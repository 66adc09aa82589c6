//! The KSM scanning loop.

use crate::{KsmParams, KsmStats};
use mem::{Fingerprint, FrameId, IdMap, IdSet, PhysMemory, Tick, HUGE_PAGE_SPAN};
use obs::EventKind;
use paging::{AddressSpace, AsId, HostMm, Mapping, SplitReason, Vpn};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Number of fingerprint shards the stable and unstable trees are
/// partitioned into: the top [`SHARD_BITS`] bits of a page's
/// [`Fingerprint`] select its shard, so the partition is monotone. Each
/// shard is a hash map; the fingerprint-sorted view of the whole stable
/// tree is built on demand, for audits and tests, by sorting each shard
/// and chaining them in index order
/// ([`KsmScanner::stable_frames`]).
pub const SHARD_COUNT: usize = 64;

/// `log2(SHARD_COUNT)` — how many top fingerprint bits select a shard.
pub const SHARD_BITS: u32 = SHARD_COUNT.trailing_zeros();

/// The shard owning `fp`: the top [`SHARD_BITS`] bits of the digest.
#[must_use]
pub fn shard_of(fp: Fingerprint) -> usize {
    fp.shard(SHARD_COUNT)
}

/// A model of the Linux Kernel Samepage Merging daemon (`ksmd`).
///
/// Call [`run`](Self::run) once per simulation tick; the scanner honours
/// its own sleep cadence. Each wake-up it examines up to
/// `pages_to_scan` mapped pages from the mergeable regions, in address
/// order, wrapping around in **full passes**:
///
/// 1. Pages already merged (stable-tree frames) are skipped.
/// 2. A page whose content matches a stable-tree node is merged
///    immediately — no volatility check, exactly like real KSM. This is
///    why freshly zero-filled GC pages get merged and then promptly
///    CoW-broken again ("these shared areas are soon modified and
///    divided", §III.A).
/// 3. Otherwise the page is admitted to the unstable tree only if its
///    content has not changed since the previous full pass (the checksum
///    test). Two unstable candidates with equal content become a new
///    stable node.
/// 4. A page under a 2 MiB transparent huge mapping is never merged in
///    place: the scanner queues a split of the huge page (counted in
///    `thp_splits`) and its subpages become ordinary candidates on a
///    later pass — the split-before-merge order of real ksmd. KSM
///    splits latch the block against khugepaged re-collapse, so the two
///    daemons cannot livelock splitting and collapsing the same run.
///
/// The unstable tree is discarded at the end of every full pass (the
/// backing maps are retained and pre-sized to their high-water mark, so
/// steady-state passes do not reallocate).
///
/// # Incremental scanning
///
/// Converged memory is mostly *stable*: whole regions whose every page
/// is already a stable-tree frame, revisited pass after pass only to be
/// skipped page by page. The scanner exploits the region
/// write-generation counters maintained by [`HostMm`]: a region whose
/// generation is unchanged since a pass that observed every one of its
/// pages stable is **credited in O(1)** instead of being walked — the
/// same number of budget units is consumed (so pass boundaries, the
/// volatility horizon, and all counters behave exactly as a page-by-page
/// walk would), but no page is touched. Regions that do get walked are
/// resolved once and iterated by direct frame-table indexing rather
/// than a per-page `BTreeMap` address lookup.
///
/// # Sharded, phased scanning
///
/// The stable and unstable trees are partitioned into [`SHARD_COUNT`]
/// shards by fingerprint top bits. Each shard keeps its trees as hash
/// maps: the scan only ever looks a fingerprint up, and the sorted view
/// that audits and tests read is built on demand by
/// [`stable_frames`](Self::stable_frames). Every wake-up runs in four
/// phases:
///
/// 1. **Plan** (sequential): the cursor/budget/clean-credit machinery
///    above walks the mergeable regions against the frozen pre-wake
///    memory state and collects the wake's window of unshared candidate
///    pages, each stamped with a global scan-sequence number and
///    bucketed by fingerprint shard. A region entered at its first page
///    whose populated-page count fits the remaining budget is not walked
///    here at all: it is deferred whole as one *scan task* (its budget
///    consumption — the populated-page count — is known O(1) from the
///    region header, and a contiguous block of scan-sequence numbers is
///    reserved for it). Only budget-crossing regions, walks resumed
///    mid-region from a previous wake, and clean-region credits stay on
///    the sequential path.
/// 2. **Classify** (parallel): the deferred scan tasks — in the common
///    full-pass case, nearly every region — run on the
///    [`par::map_sharded`] work-stealing pool. Each task classifies its
///    region's pages against the frozen state (mapped? already stable?
///    fingerprint), producing the same plan items, clean-region verdict
///    and budget consumption the sequential walk would have produced,
///    with scan-sequence numbers drawn from the task's reserved block.
///    Results fold back in task order; each shard bucket is then sorted
///    by sequence number, so the resolve phase sees exactly the window
///    a sequential walk would have collected.
/// 3. **Resolve** (parallel): each non-empty shard runs the per-page
///    merge state machine against its own trees on the
///    [`par::map_sharded`] work-stealing pool. Same-wake side effects
///    (a frame merged away, a frame becoming a stable node, refcounts
///    granted by earlier merges) are tracked in a per-shard speculative
///    overlay, so every decision matches what a live sequential scan
///    would have decided. A frame's fingerprint determines the unique
///    shard that may merge or promote it, so shards never race over a
///    frame.
/// 4. **Commit** (sequential): the planned mutations from all shards
///    are sorted by scan-sequence number and applied to the [`HostMm`]
///    in exact global scan order — frame frees, CoW refcounts and trace
///    events land in the same order a sequential scan would produce
///    them, which is what keeps reports byte-identical at any thread
///    count.
///
/// The phases run in this form at every thread count (`threads == 1`
/// simply resolves the shards serially), so a 1-thread and an N-thread
/// run are the same computation. The sole observable difference from a
/// non-phased sequential scan is `clean_region_skips`: the frozen
/// planner cannot see merges from the *current* wake when judging a
/// region "fully stable", so a region converging this wake earns its
/// clean-region credit one pass later.
///
/// See the [crate docs](crate) for a usage example.
#[derive(Debug)]
pub struct KsmScanner {
    params: KsmParams,
    threads: usize,
    shards: Vec<Shard>,
    scan_list: Vec<ScanRegion>,
    cursor_region: usize,
    cursor_page: u64,
    /// `true` once per-region pass-tracking state is initialised for the
    /// region under the cursor.
    in_region: bool,
    region_gen_at_entry: u64,
    region_all_stable: bool,
    region_mapped_seen: u64,
    /// Clean-region fast path: when skipping, how many budget units the
    /// skip has left / had in total.
    skipping: bool,
    skip_left: u64,
    skip_total: u64,
    /// Regions observed fully stable at their last completed scan, keyed
    /// by `(space, region id)` and guarded by the write generation.
    clean: HashMap<(AsId, u64), CleanRegion>,
    pass_start: Tick,
    prev_pass_start: Tick,
    first_pass_done: bool,
    /// Bumped on every stable-tree insert/remove; together with
    /// [`HostMm::epoch`] it keys the [`recount`](Self::recount) memo.
    stable_version: u64,
    /// `(mm epoch, stable_version)` at the last recount, if any.
    last_recount: Option<(u64, u64)>,
    stats: KsmStats,
    /// Per-wake plan window, bucketed by shard; reused across wakes.
    buckets: Vec<Vec<PlanItem>>,
    /// Clean-region-credit trace events buffered by the planner, to be
    /// interleaved with the resolve phase's events in scan order.
    planned_events: Vec<(u32, EventKind)>,
    /// Huge-page split requests collected this wake (split-before-merge:
    /// a page under a 2 MiB mapping cannot enter the unstable tree until
    /// the mapping is broken). Applied at commit in scan order; splitting
    /// is idempotent per block, so the 512 per-page requests of one block
    /// collapse to a single effective split.
    planned_splits: Vec<(u32, CommitOp)>,
    /// Whole-region scan tasks deferred by the planner for the parallel
    /// classify phase; reused across wakes.
    tasks: Vec<ClassifyTask>,
    /// Scan-sequence counter for the current wake's window. Sequence
    /// numbers are sparse: they only order this wake's candidates and
    /// events, and a classify task reserves one number per page slot.
    seq: u32,
    /// Phase timing of the most recent wake (measurement only).
    last_wake: WakePhases,
    /// Running sum of every wake's [`WakePhases`] (measurement only).
    wake_totals: WakePhases,
}

/// Per-phase accounting of the most recent wake, split into two
/// strictly separated halves (DESIGN.md §13):
///
/// * the `*_nanos` fields are **wall-clock** measurements — plan and
///   commit are inherently serial, resolve fans out over the worker
///   pool, and this split is what the fleet benchmark feeds its Amdahl
///   projection. They vary run to run and host to host, and nothing
///   deterministic (goldens, reports, the simulated-state metric
///   series) may depend on them;
/// * the work counters (`planned_pages`, `classify_tasks`,
///   `resolved_items`, `committed_ops`) are **simulated-state** values
///   derived purely from the scan window — byte-identical at any
///   `--threads` and safe to pin in goldens and the deterministic
///   metrics exposition.
///
/// Pure measurement plumbing either way: neither half influences scan
/// behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakePhases {
    /// Serial cursor/budget/credit bookkeeping over the frozen state.
    pub plan_nanos: u64,
    /// Parallel whole-region page classification.
    pub classify_nanos: u64,
    /// Parallel per-shard merge resolution.
    pub resolve_nanos: u64,
    /// Serial seq-ordered commit, event replay and pass-boundary work.
    pub commit_nanos: u64,
    /// Deterministic: pages covered by the plan phase's scan window
    /// (serial walk plus deferred whole-region tasks).
    pub planned_pages: u64,
    /// Deterministic: whole-region scan tasks run by the classify phase.
    pub classify_tasks: u64,
    /// Deterministic: candidate items resolved across all shards.
    pub resolved_items: u64,
    /// Deterministic: mutations (merges, promotions, splits) committed
    /// in scan order.
    pub committed_ops: u64,
}

impl WakePhases {
    /// Nanoseconds spent in the serial phases (plan + commit).
    #[must_use]
    pub fn serial_nanos(&self) -> u64 {
        self.plan_nanos + self.commit_nanos
    }

    /// Nanoseconds spent in the pool-parallel phases (classify + resolve).
    #[must_use]
    pub fn parallel_nanos(&self) -> u64 {
        self.classify_nanos + self.resolve_nanos
    }

    fn accumulate(&mut self, wake: &WakePhases) {
        self.plan_nanos += wake.plan_nanos;
        self.classify_nanos += wake.classify_nanos;
        self.resolve_nanos += wake.resolve_nanos;
        self.commit_nanos += wake.commit_nanos;
        self.planned_pages += wake.planned_pages;
        self.classify_tasks += wake.classify_tasks;
        self.resolved_items += wake.resolved_items;
        self.committed_ops += wake.committed_ops;
    }
}

/// One fingerprint shard: an independent slice of the stable and
/// unstable trees. A page belongs to the shard of its fingerprint's top
/// bits, so shards never contend for a frame.
#[derive(Debug, Default)]
struct Shard {
    stable: IdMap<Fingerprint, FrameId>,
    unstable: IdMap<Fingerprint, Mapping>,
    /// High-water mark of `unstable.len()`, used to pre-size the map at
    /// each pass boundary so steady-state passes never rehash.
    unstable_peak: usize,
}

/// One mergeable region snapshotted into the pass scan list.
#[derive(Debug, Clone, Copy)]
struct ScanRegion {
    space: AsId,
    base: Vpn,
    id: u64,
    len: u64,
}

/// Record of a region whose pages were all stable at its last scan.
#[derive(Debug, Clone, Copy)]
struct CleanRegion {
    /// Region write generation at that scan.
    generation: u64,
    /// Populated pages at that scan — the budget the skip must consume
    /// to stay cycle-accurate with a page-by-page walk.
    mapped: u64,
}

/// One unshared candidate page captured by the planner: the frozen
/// pre-wake mapping, frame and fingerprint, stamped with its global
/// scan-sequence number.
#[derive(Debug, Clone, Copy)]
struct PlanItem {
    seq: u32,
    mapping: Mapping,
    frame: FrameId,
    fp: Fingerprint,
}

/// A whole region deferred by the planner for parallel classification:
/// entered at page zero, with a populated-page count that fits the
/// wake's remaining budget. `seq_base` is the start of the contiguous
/// scan-sequence block reserved for the region (one number per page
/// slot), and `generation` is its write generation at planning time —
/// within a wake the memory state is frozen, so it is also the
/// generation any page walk of the region would observe.
#[derive(Debug, Clone, Copy)]
struct ClassifyTask {
    space: AsId,
    base: Vpn,
    id: u64,
    len: u64,
    seq_base: u32,
    generation: u64,
}

/// What classifying one task's region produced: the candidate plan
/// items (in page order, with their final sequence numbers), the
/// huge-page split requests, the populated-page count, and whether every
/// populated page was already stable — exactly the facts the sequential
/// walk tracks per region.
#[derive(Debug)]
struct ClassifyOutcome {
    items: Vec<PlanItem>,
    splits: Vec<(u32, CommitOp)>,
    mapped: u64,
    all_stable: bool,
}

/// A page-table mutation decided by a shard's resolve phase, applied to
/// the `HostMm` at commit in global scan order.
#[derive(Debug, Clone, Copy)]
enum CommitOp {
    /// Merge `dup` into the stable frame `canonical`.
    Merge { dup: FrameId, canonical: FrameId },
    /// Mark `frame` as a fresh stable-tree node.
    Promote { frame: FrameId },
    /// Split the 2 MiB block `block` of the region based at `base` so
    /// its subpages become merge candidates on a later pass.
    Split {
        space: AsId,
        base: Vpn,
        block: usize,
    },
}

/// Everything one shard's resolve phase produced: mutations and trace
/// events keyed by scan sequence, plus its counter deltas. Folding the
/// deltas and replaying the ops/events in sequence order reproduces a
/// sequential scan exactly, regardless of which worker ran the shard.
#[derive(Debug, Default)]
struct ShardOutcome {
    ops: Vec<(u32, CommitOp)>,
    events: Vec<(u32, EventKind)>,
    merges: u64,
    volatile_skips: u64,
    stale_stable_nodes: u64,
    chain_splits: u64,
    stable_version_bumps: u64,
}

impl KsmScanner {
    /// Creates a scanner with the given tuning parameters.
    #[must_use]
    pub fn new(params: KsmParams) -> KsmScanner {
        KsmScanner {
            params,
            threads: 1,
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            scan_list: Vec::new(),
            cursor_region: 0,
            cursor_page: 0,
            in_region: false,
            region_gen_at_entry: 0,
            region_all_stable: false,
            region_mapped_seen: 0,
            skipping: false,
            skip_left: 0,
            skip_total: 0,
            clean: HashMap::new(),
            pass_start: Tick::ZERO,
            prev_pass_start: Tick::ZERO,
            first_pass_done: false,
            stable_version: 0,
            last_recount: None,
            stats: KsmStats::default(),
            buckets: (0..SHARD_COUNT).map(|_| Vec::new()).collect(),
            planned_events: Vec::new(),
            planned_splits: Vec::new(),
            tasks: Vec::new(),
            seq: 0,
            last_wake: WakePhases::default(),
            wake_totals: WakePhases::default(),
        }
    }

    /// Phase timing of the most recent wake that did any scanning.
    #[must_use]
    pub fn last_wake_phases(&self) -> WakePhases {
        self.last_wake
    }

    /// Running sum of every wake's [`WakePhases`]: the deterministic
    /// work counters are exact simulated-state totals, the nanos are
    /// cumulative wall-clock time per phase.
    #[must_use]
    pub fn wake_totals(&self) -> WakePhases {
        self.wake_totals
    }

    /// Exports the scanner's deterministic counters (sysfs-mirror stats
    /// and cumulative wake work) plus the wall-clock per-phase nanos
    /// into `reg`. Simulated-state series are byte-identical at any
    /// thread count; the nanos land in the separated
    /// [`obs::MetricClass::Wall`] section.
    pub fn record_metrics(&self, reg: &mut obs::MetricsRegistry) {
        let s = self.stats;
        reg.counter(
            "ksm_pages_scanned_total",
            "Cumulative pages examined by the KSM scanner.",
            &[],
            s.pages_scanned,
        );
        reg.counter(
            "ksm_merges_total",
            "Cumulative pages merged (stable- and unstable-tree hits).",
            &[],
            s.merges,
        );
        reg.counter(
            "ksm_full_scans_total",
            "Completed full passes over all mergeable memory.",
            &[],
            s.full_scans,
        );
        reg.counter(
            "ksm_volatile_skips_total",
            "Candidates rejected by the volatility filter.",
            &[],
            s.volatile_skips,
        );
        reg.counter(
            "ksm_stale_stable_nodes_total",
            "Stale stable-tree nodes discarded during lookups.",
            &[],
            s.stale_stable_nodes,
        );
        reg.counter(
            "ksm_chain_splits_total",
            "Stable nodes re-seeded because a chain hit max_page_sharing.",
            &[],
            s.chain_splits,
        );
        reg.counter(
            "ksm_clean_region_skips_total",
            "Regions credited in O(1) by the clean-region fast path.",
            &[],
            s.clean_region_skips,
        );
        reg.counter(
            "ksm_thp_splits_total",
            "Huge pages split so their subpages could enter the unstable tree.",
            &[],
            s.thp_splits,
        );
        reg.gauge(
            "ksm_pages_shared",
            "Stable-tree frames: distinct shared pages kept in memory.",
            &[],
            s.pages_shared as f64,
        );
        reg.gauge(
            "ksm_pages_sharing",
            "PTEs pointing at stable frames beyond the first (copies elided).",
            &[],
            s.pages_sharing as f64,
        );
        reg.gauge(
            "ksm_stable_nodes",
            "Stable-tree nodes currently tracked, over all shards.",
            &[],
            self.stable_nodes() as f64,
        );
        let w = self.wake_totals;
        const WORK_HELP: &str = "Cumulative deterministic work items per KSM wake phase.";
        reg.counter(
            "ksm_wake_work_total",
            WORK_HELP,
            &[("phase", "plan_pages")],
            w.planned_pages,
        );
        reg.counter(
            "ksm_wake_work_total",
            WORK_HELP,
            &[("phase", "classify_tasks")],
            w.classify_tasks,
        );
        reg.counter(
            "ksm_wake_work_total",
            WORK_HELP,
            &[("phase", "resolve_items")],
            w.resolved_items,
        );
        reg.counter(
            "ksm_wake_work_total",
            WORK_HELP,
            &[("phase", "commit_ops")],
            w.committed_ops,
        );
        const NANOS_HELP: &str =
            "Cumulative wall-clock nanoseconds per KSM wake phase (non-deterministic).";
        let wall = obs::MetricClass::Wall;
        reg.counter_class(
            "ksm_wake_phase_nanos_total",
            NANOS_HELP,
            &[("phase", "plan")],
            wall,
            w.plan_nanos,
        );
        reg.counter_class(
            "ksm_wake_phase_nanos_total",
            NANOS_HELP,
            &[("phase", "classify")],
            wall,
            w.classify_nanos,
        );
        reg.counter_class(
            "ksm_wake_phase_nanos_total",
            NANOS_HELP,
            &[("phase", "resolve")],
            wall,
            w.resolve_nanos,
        );
        reg.counter_class(
            "ksm_wake_phase_nanos_total",
            NANOS_HELP,
            &[("phase", "commit")],
            wall,
            w.commit_nanos,
        );
    }

    /// Sets the worker count for the classify and resolve phases. The
    /// scan is the same computation at any thread count — parallelism
    /// only changes wall-clock time. Zero is clamped to one.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> KsmScanner {
        self.threads = threads.max(1);
        self
    }

    /// Worker count used by the classify and resolve phases.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Current tuning parameters.
    #[must_use]
    pub fn params(&self) -> KsmParams {
        self.params
    }

    /// Retunes the scanner, e.g. the paper's switch from the 10 000-page
    /// warm-up rate to the 1 000-page steady rate after initialization.
    pub fn set_params(&mut self, params: KsmParams) {
        self.params = params;
    }

    /// Scanner counters. `pages_shared`/`pages_sharing` are refreshed at
    /// every full-pass boundary and by [`recount`](Self::recount).
    #[must_use]
    pub fn stats(&self) -> KsmStats {
        self.stats
    }

    /// Number of stable-tree nodes currently tracked, over all shards.
    #[must_use]
    pub fn stable_nodes(&self) -> usize {
        self.shards.iter().map(|s| s.stable.len()).sum()
    }

    /// The stable tree's `(fingerprint, frame)` entries in fingerprint
    /// order. Each shard is a hash map, so this sorts every shard on
    /// demand and chains them in index order, which is global
    /// fingerprint order because the shard projection is monotone. Only
    /// audits and tests read it; the scan itself never needs the order.
    /// Entries can be stale between [`recount`](Self::recount)s
    /// (the tree is validated lazily); consumers such as the
    /// cross-layer auditor must re-validate each node against the frame
    /// table.
    pub fn stable_frames(&self) -> impl Iterator<Item = (Fingerprint, FrameId)> + '_ {
        self.stable_frames_by_shard()
            .map(|(_, fp, frame)| (fp, frame))
    }

    /// [`stable_frames`](Self::stable_frames) with each node's shard
    /// index attached, for shard-placement validation by the auditor.
    pub fn stable_frames_by_shard(
        &self,
    ) -> impl Iterator<Item = (usize, Fingerprint, FrameId)> + '_ {
        self.shards.iter().enumerate().flat_map(|(i, s)| {
            let mut nodes: Vec<(Fingerprint, FrameId)> =
                s.stable.iter().map(|(&fp, &frame)| (fp, frame)).collect();
            nodes.sort_unstable_by_key(|&(fp, _)| fp);
            nodes.into_iter().map(move |(fp, frame)| (i, fp, frame))
        })
    }

    /// Advances the scanner by one simulation tick.
    ///
    /// Does nothing unless `now` falls on the scanner's wake cadence.
    pub fn run(&mut self, mm: &mut HostMm, now: Tick) {
        if !now.0.is_multiple_of(self.params.ticks_per_wake()) {
            return;
        }
        mm.tracer().set_now(now.0);
        if self.scan_list.is_empty() {
            self.begin_pass(mm, now);
            if self.scan_list.is_empty() {
                return;
            }
        }
        // Phase 1: plan this wake's window against the frozen state.
        self.seq = 0;
        self.planned_events.clear();
        self.planned_splits.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        let budget = self.params.pages_to_scan();
        let mut scanned = 0;
        let mut pass_complete = false;
        let plan_start = std::time::Instant::now();
        while scanned < budget {
            match self.plan(mm, budget - scanned) {
                Advance::Scanned(n) => scanned += n,
                Advance::PassComplete => {
                    pass_complete = true;
                    break;
                }
            }
        }
        self.last_wake = WakePhases {
            plan_nanos: plan_start.elapsed().as_nanos() as u64,
            planned_pages: scanned as u64,
            ..WakePhases::default()
        };
        // Phase 1b: classify the deferred whole-region scan tasks in
        // parallel and fold their results back in task (= scan) order.
        self.classify(mm);
        // Phases 2 and 3: resolve the shards and commit in scan order.
        self.execute(mm);
        if pass_complete {
            // At most one pass boundary per wake: real ksmd would
            // just keep going, but bounding it keeps a wake's work
            // proportional to memory size and avoids re-scanning
            // the same pages with a stale volatility horizon.
            let boundary_start = std::time::Instant::now();
            self.finish_pass(mm, now);
            self.last_wake.commit_nanos += boundary_start.elapsed().as_nanos() as u64;
        }
        self.stats.pages_scanned += scanned as u64;
        self.wake_totals.accumulate(&self.last_wake);
    }

    /// Recomputes `pages_shared` / `pages_sharing` from the ground truth,
    /// dropping stale stable-tree nodes.
    ///
    /// Memoized on `(mm.epoch(), stable-tree version)`: when neither the
    /// host memory state nor the stable tree has changed since the last
    /// recount, the previous counts are still exact and the walk is
    /// skipped. This makes pass boundaries over converged idle memory
    /// O(1) instead of O(stable nodes).
    pub fn recount(&mut self, mm: &HostMm) {
        if self.last_recount == Some((mm.epoch(), self.stable_version)) {
            return;
        }
        let phys = mm.phys();
        let mut shared = 0u64;
        let mut sharing = 0u64;
        let mut dropped_any = false;
        for shard in &mut self.shards {
            let before = shard.stable.len();
            shard.stable.retain(|&fp, &mut frame| {
                let valid = phys.is_live(frame)
                    && phys.is_ksm_shared(frame)
                    && phys.fingerprint(frame) == fp;
                if valid {
                    shared += 1;
                    sharing += u64::from(phys.refcount(frame).saturating_sub(1));
                }
                valid
            });
            if shard.stable.len() != before {
                dropped_any = true;
            }
        }
        if dropped_any {
            self.stable_version += 1;
        }
        self.stats.pages_shared = shared;
        self.stats.pages_sharing = sharing;
        self.last_recount = Some((mm.epoch(), self.stable_version));
    }

    /// Read-only [`recount`](Self::recount): computes fresh
    /// `(pages_shared, pages_sharing)` against the ground truth without
    /// dropping stale nodes or touching any scanner state. The
    /// monitoring daemon uses this so a watched world stays
    /// byte-identical to an unwatched one.
    #[must_use]
    pub fn count_sharing(&self, mm: &HostMm) -> (u64, u64) {
        let phys = mm.phys();
        let mut shared = 0u64;
        let mut sharing = 0u64;
        for shard in &self.shards {
            for (&fp, &frame) in &shard.stable {
                if phys.is_live(frame) && phys.is_ksm_shared(frame) && phys.fingerprint(frame) == fp
                {
                    shared += 1;
                    sharing += u64::from(phys.refcount(frame).saturating_sub(1));
                }
            }
        }
        (shared, sharing)
    }

    fn begin_pass(&mut self, mm: &HostMm, now: Tick) {
        self.scan_list.clear();
        for space in mm.spaces() {
            for region in space.regions() {
                if region.mergeable() && region.len_pages() > 0 {
                    self.scan_list.push(ScanRegion {
                        space: space.id(),
                        base: region.base(),
                        id: region.id(),
                        len: region.len_pages() as u64,
                    });
                }
            }
        }
        // Drop clean records of regions that no longer exist so the map
        // stays bounded under region churn.
        let live: HashSet<(AsId, u64)> = self.scan_list.iter().map(|r| (r.space, r.id)).collect();
        self.clean.retain(|key, _| live.contains(key));
        self.cursor_region = 0;
        self.cursor_page = 0;
        self.in_region = false;
        self.skipping = false;
        self.prev_pass_start = self.pass_start;
        self.pass_start = now;
    }

    fn finish_pass(&mut self, mm: &HostMm, now: Tick) {
        for shard in &mut self.shards {
            shard.unstable_peak = shard.unstable_peak.max(shard.unstable.len());
            shard.unstable.clear();
            // Clearing retains capacity; the reserve guards the map to
            // its high-water mark so the next pass's inserts never
            // rehash even after external shrinkage.
            shard.unstable.reserve(shard.unstable_peak);
        }
        self.stats.full_scans += 1;
        self.first_pass_done = true;
        mm.tracer().emit_with(|| EventKind::PassComplete {
            pass: self.stats.full_scans,
            pages_scanned: self.stats.pages_scanned,
            merges: self.stats.merges,
        });
        self.recount(mm);
        // Snapshot the region list afresh for the next pass.
        self.begin_pass(mm, now);
    }

    fn next_region(&mut self) {
        self.cursor_region += 1;
        self.cursor_page = 0;
        self.in_region = false;
        self.skipping = false;
        self.skip_left = 0;
        self.skip_total = 0;
    }

    /// Records the scan outcome for the region just completed page by
    /// page: regions observed fully stable under an unchanged write
    /// generation become skippable; anything else loses its record.
    fn finish_region(&mut self, space: AsId, region_id: u64, generation_now: u64) {
        if self.region_all_stable && generation_now == self.region_gen_at_entry {
            self.clean.insert(
                (space, region_id),
                CleanRegion {
                    generation: generation_now,
                    mapped: self.region_mapped_seen,
                },
            );
        } else {
            self.clean.remove(&(space, region_id));
        }
    }

    /// One bounded unit of planning work: a clean-region credit, a
    /// page-walk batch within the current region (collecting candidate
    /// pages into the shard buckets), or a cursor transition. Always
    /// either makes cursor progress or reports the pass complete.
    ///
    /// Planning is read-only against the memory state, so within one
    /// wake every page is judged against the same frozen pre-wake
    /// snapshot; same-wake side effects are reconstructed per shard by
    /// [`resolve_shard`].
    fn plan(&mut self, mm: &HostMm, budget_left: usize) -> Advance {
        debug_assert!(budget_left > 0);
        let Some(&ScanRegion {
            space,
            base,
            id,
            len,
        }) = self.scan_list.get(self.cursor_region)
        else {
            return Advance::PassComplete;
        };
        // Resolve the region once for the whole batch (a single map
        // lookup), not once per page.
        let Some(region) = mm.space(space).region_at(base).filter(|r| r.id() == id) else {
            // The region was unmapped (or replaced) mid-pass.
            self.clean.remove(&(space, id));
            self.next_region();
            return Advance::Scanned(0);
        };

        if !self.in_region {
            self.in_region = true;
            self.region_gen_at_entry = region.generation();
            self.region_all_stable = true;
            self.region_mapped_seen = 0;
            if let Some(clean) = self.clean.get(&(space, id)) {
                if clean.generation == region.generation() {
                    // Unchanged since a pass that saw every page stable:
                    // credit the scan instead of walking it.
                    self.skipping = true;
                    self.skip_left = clean.mapped;
                    self.skip_total = clean.mapped;
                }
            }
        }

        if self.skipping {
            return self.plan_skip(mm.tracer(), space, region, len, budget_left);
        }

        // Scan-task fast path: a region entered at its first page whose
        // populated-page count fits the remaining budget consumes exactly
        // that budget whether walked serially or not — defer the whole
        // walk to the parallel classify phase. A contiguous sequence
        // block (one number per page slot) keeps its candidates ordered
        // against everything planned before and after it.
        let mapped = region.mapped_pages();
        if self.cursor_page == 0 && mapped <= budget_left {
            let seq_base = self.seq;
            self.seq += u32::try_from(len).expect("region exceeds sequence space");
            self.tasks.push(ClassifyTask {
                space,
                base,
                id,
                len,
                seq_base,
                generation: region.generation(),
            });
            self.next_region();
            return Advance::Scanned(mapped);
        }

        // Page-walk batch: read-only classification against the resolved
        // region; unshared pages become plan items in their shard bucket.
        let phys = mm.phys();
        let mut scanned = 0usize;
        while scanned < budget_left {
            if self.cursor_page >= len {
                self.finish_region(space, id, region.generation());
                self.next_region();
                return Advance::Scanned(scanned);
            }
            let index = self.cursor_page as usize;
            let vpn = base.offset(self.cursor_page);
            self.cursor_page += 1;
            let Some(frame) = region.frame_at_index(index) else {
                continue;
            };
            self.region_mapped_seen += 1;
            scanned += 1;
            if region.is_huge_block(index / HUGE_PAGE_SPAN) {
                // Under a 2 MiB mapping: KSM breaks the huge page before
                // its subpages can be considered (split-before-merge).
                // Queue a seq-stamped split for commit; the page itself
                // becomes a candidate only on a later pass.
                self.region_all_stable = false;
                let seq = self.seq;
                self.seq += 1;
                self.planned_splits.push((
                    seq,
                    CommitOp::Split {
                        space,
                        base,
                        block: index / HUGE_PAGE_SPAN,
                    },
                ));
                continue;
            }
            if phys.is_ksm_shared(frame) {
                // Already a stable node (or a sharer of one).
                continue;
            }
            self.region_all_stable = false;
            let fp = phys.fingerprint(frame);
            let seq = self.seq;
            self.seq += 1;
            self.buckets[shard_of(fp)].push(PlanItem {
                seq,
                mapping: Mapping { space, vpn },
                frame,
                fp,
            });
        }
        Advance::Scanned(scanned)
    }

    /// Continues a clean-region skip: consumes the same budget a page
    /// walk would, O(1) per wake. Falls back to a page walk from the
    /// equivalent cursor position if a write lands mid-skip.
    fn plan_skip(
        &mut self,
        tracer: &obs::Tracer,
        space: AsId,
        region: &paging::Region,
        len: u64,
        budget_left: usize,
    ) -> Advance {
        if region.generation() != self.region_gen_at_entry {
            let consumed = self.skip_total - self.skip_left;
            self.cursor_page = region.nth_mapped_index(consumed).map_or(len, |i| i as u64);
            self.skipping = false;
            self.region_all_stable = false;
            return Advance::Scanned(0);
        }
        if self.skip_left == 0 {
            // Zero-mapped clean region (all holes): nothing to credit.
            self.stats.clean_region_skips += 1;
            self.next_region();
            return Advance::Scanned(0);
        }
        let take = (budget_left as u64).min(self.skip_left);
        self.skip_left -= take;
        self.region_mapped_seen += take;
        if self.skip_left == 0 {
            // Record stays valid: the generation was unchanged throughout.
            self.stats.clean_region_skips += 1;
            if tracer.is_enabled() {
                let seq = self.seq;
                self.seq += 1;
                self.planned_events.push((
                    seq,
                    EventKind::CleanRegionCredit {
                        space: space.index() as u32,
                        base: region.base().0,
                        pages: self.skip_total,
                    },
                ));
            }
            self.next_region();
        }
        Advance::Scanned(take as usize)
    }

    /// Phase 1b: runs the deferred whole-region scan tasks on the worker
    /// pool and folds their outcomes back in task order — clean-region
    /// verdicts into the credit map, candidates into the shard buckets.
    /// The fold order plus each task's reserved sequence block make the
    /// buckets indistinguishable from a sequential walk's.
    fn classify(&mut self, mm: &HostMm) {
        if self.tasks.is_empty() {
            return;
        }
        let phys = mm.phys();
        let spaces = mm.spaces();
        let mut tasks = std::mem::take(&mut self.tasks);
        self.last_wake.classify_tasks = tasks.len() as u64;
        let classify_start = std::time::Instant::now();
        let outcomes = par::map_sharded(&mut tasks, self.threads, |_, task| {
            classify_region(task, phys, spaces)
        });
        self.last_wake.classify_nanos = classify_start.elapsed().as_nanos() as u64;
        for (task, outcome) in tasks.iter().zip(outcomes) {
            if outcome.all_stable {
                self.clean.insert(
                    (task.space, task.id),
                    CleanRegion {
                        generation: task.generation,
                        mapped: outcome.mapped,
                    },
                );
            } else {
                self.clean.remove(&(task.space, task.id));
            }
            for item in outcome.items {
                self.buckets[shard_of(item.fp)].push(item);
            }
            self.planned_splits.extend(outcome.splits);
        }
        tasks.clear();
        self.tasks = tasks;
    }

    /// Phases 2 and 3 of a wake: resolve every non-empty shard bucket on
    /// the worker pool, then commit all mutations and trace events in
    /// global scan order.
    fn execute(&mut self, mm: &mut HostMm) {
        if self.buckets.iter().all(Vec::is_empty) {
            // Converged fast path: the window held no merge candidates
            // (credits, stable skips, and possibly huge-page splits).
            // Split requests must still be applied or a fully-huge
            // region would never make scan progress.
            let splits = std::mem::take(&mut self.planned_splits);
            self.commit_ops(mm, splits);
            let tracer = mm.tracer();
            for (_, event) in self.planned_events.drain(..) {
                tracer.emit_with(|| event);
            }
            return;
        }

        let tracing = mm.tracer().is_enabled();
        let horizon = self.volatility_horizon();
        let max_sharing = self.params.max_page_sharing();
        let phys = mm.phys();
        let spaces = mm.spaces();
        let mut work: Vec<(&mut Shard, &mut Vec<PlanItem>)> = self
            .shards
            .iter_mut()
            .zip(self.buckets.iter_mut())
            .filter(|(_, items)| !items.is_empty())
            .collect();
        self.last_wake.resolved_items = work.iter().map(|(_, items)| items.len() as u64).sum();
        let resolve_start = std::time::Instant::now();
        let outcomes = par::map_sharded(&mut work, self.threads, |_, (shard, items)| {
            // Classify-task items are appended after the planner's own
            // serial-walk items, so a mixed wake leaves the bucket out of
            // scan order; the sequence numbers restore it.
            items.sort_unstable_by_key(|item| item.seq);
            resolve_shard(shard, items, phys, spaces, horizon, max_sharing, tracing)
        });
        self.last_wake.resolve_nanos = resolve_start.elapsed().as_nanos() as u64;
        let commit_start = std::time::Instant::now();

        // Commit: fold the per-shard deltas (order-independent sums) and
        // replay mutations and events in global scan order, so frame
        // frees, the free-list order, and the trace are those of a
        // sequential scan.
        let mut ops: Vec<(u32, CommitOp)> = std::mem::take(&mut self.planned_splits);
        let mut events: Vec<(u32, EventKind)> = std::mem::take(&mut self.planned_events);
        for outcome in outcomes {
            self.stats.merges += outcome.merges;
            self.stats.volatile_skips += outcome.volatile_skips;
            self.stats.stale_stable_nodes += outcome.stale_stable_nodes;
            self.stats.chain_splits += outcome.chain_splits;
            self.stable_version += outcome.stable_version_bumps;
            ops.extend(outcome.ops);
            events.extend(outcome.events);
        }
        self.commit_ops(mm, ops);
        events.sort_unstable_by_key(|&(seq, _)| seq);
        let tracer = mm.tracer();
        for (_, event) in events {
            tracer.emit_with(|| event);
        }
        self.last_wake.commit_nanos = commit_start.elapsed().as_nanos() as u64;
    }

    /// Applies a wake's planned mutations in global scan order. Huge-page
    /// splits are idempotent per block, so `thp_splits` counts effective
    /// splits only — the count is independent of how many of a block's
    /// subpages fell inside the scan window.
    fn commit_ops(&mut self, mm: &mut HostMm, mut ops: Vec<(u32, CommitOp)>) {
        self.last_wake.committed_ops += ops.len() as u64;
        ops.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, op) in ops {
            match op {
                CommitOp::Merge { dup, canonical } => mm.merge_frames(dup, canonical),
                CommitOp::Promote { frame } => mm.mark_ksm_stable(frame),
                CommitOp::Split { space, base, block } => {
                    if mm.split_block(space, base, block, SplitReason::Ksm) {
                        self.stats.thp_splits += 1;
                    }
                }
            }
        }
    }

    /// The oldest last-write tick a page may carry and still pass the
    /// volatility filter this pass (the checksum test of §II.C): pages
    /// written at or after this tick are skipped as volatile. Zero until
    /// scanning has begun (no filter yet). The merge-miss classifier in
    /// `analysis` uses this to label unmerged-because-volatile pages
    /// with the scanner's own criterion.
    #[must_use]
    pub fn volatility_horizon(&self) -> Tick {
        if self.first_pass_done {
            self.prev_pass_start
        } else {
            self.pass_start
        }
    }
}

/// Classifies one deferred region against the frozen pre-wake state:
/// the exact read-only judgement the sequential page walk makes, with
/// each candidate's sequence number drawn from the task's reserved
/// block (`seq_base` + page slot index, preserving page order).
fn classify_region(
    task: &ClassifyTask,
    phys: &PhysMemory,
    spaces: &[AddressSpace],
) -> ClassifyOutcome {
    let region = spaces[task.space.index()]
        .region_at(task.base)
        .filter(|r| r.id() == task.id)
        .expect("task region vanished mid-wake");
    let mut out = ClassifyOutcome {
        items: Vec::new(),
        splits: Vec::new(),
        mapped: 0,
        all_stable: true,
    };
    for index in 0..task.len {
        let Some(frame) = region.frame_at_index(index as usize) else {
            continue;
        };
        out.mapped += 1;
        if region.is_huge_block(index as usize / HUGE_PAGE_SPAN) {
            out.all_stable = false;
            out.splits.push((
                task.seq_base + index as u32,
                CommitOp::Split {
                    space: task.space,
                    base: task.base,
                    block: index as usize / HUGE_PAGE_SPAN,
                },
            ));
            continue;
        }
        if phys.is_ksm_shared(frame) {
            continue;
        }
        out.all_stable = false;
        out.items.push(PlanItem {
            seq: task.seq_base + index as u32,
            mapping: Mapping {
                space: task.space,
                vpn: task.base.offset(index),
            },
            frame,
            fp: phys.fingerprint(frame),
        });
    }
    out
}

/// Runs one shard's merge state machine over its plan items, against the
/// frozen pre-wake memory state.
///
/// The speculative overlay reconstructs exactly the same-wake side
/// effects a live sequential scan would have observed:
///
/// * `alias` maps a frame merged away this wake (a duplicate) to its
///   canonical — a later item whose mapping still froze the old frame
///   would, live, have been repointed already and skipped as shared.
/// * `spec_shared` holds frames that became stable nodes this wake
///   (merge canonicals and promoted chain heads).
/// * `spec_ref` holds refcount granted to a canonical by this wake's
///   merges (each merge adds the duplicate's frozen refcount, which is
///   exactly the number of users repointed), so the `max_page_sharing`
///   cap check sees live refcounts.
///
/// Cross-shard effects need no tracking: a frame's fingerprint names the
/// only shard that may merge, promote, or alias it, and merges preserve
/// content, so a fingerprint read through a stale frame is still exact.
#[allow(clippy::too_many_lines)]
fn resolve_shard(
    shard: &mut Shard,
    items: &[PlanItem],
    phys: &PhysMemory,
    spaces: &[AddressSpace],
    horizon: Tick,
    max_sharing: u32,
    tracing: bool,
) -> ShardOutcome {
    let mut out = ShardOutcome::default();
    let mut alias: IdMap<FrameId, FrameId> = IdMap::default();
    let mut spec_shared: IdSet<FrameId> = IdSet::default();
    let mut spec_ref: IdMap<FrameId, u32> = IdMap::default();
    for &PlanItem {
        seq,
        mapping,
        frame,
        fp,
    } in items
    {
        // The frame was merged away or became a stable node earlier this
        // wake: live, the page is already shared and is skipped without
        // touching the trees or counters.
        if alias.contains_key(&frame) || spec_shared.contains(&frame) {
            continue;
        }

        // 1. Stable-tree lookup (with stale-node validation). Nodes
        // respect the max_page_sharing cap: a saturated chain head stops
        // accepting duplicates and the page is left for a new node.
        let mut stable_hit = None;
        if let Some(&node) = shard.stable.get(&fp) {
            let valid = phys.is_live(node)
                && (phys.is_ksm_shared(node) || spec_shared.contains(&node))
                && phys.fingerprint(node) == fp;
            if valid {
                stable_hit = Some(node);
            } else {
                shard.stable.remove(&fp);
                out.stable_version_bumps += 1;
                out.stale_stable_nodes += 1;
                if tracing {
                    out.events.push((
                        seq,
                        EventKind::StaleNodeDrop {
                            frame: node.index() as u64,
                        },
                    ));
                }
            }
        }
        if let Some(canonical) = stable_hit {
            if canonical == frame {
                continue;
            }
            let refs = phys.refcount(canonical) + spec_ref.get(&canonical).copied().unwrap_or(0);
            if refs < max_sharing {
                alias.insert(frame, canonical);
                *spec_ref.entry(canonical).or_insert(0) += phys.refcount(frame);
                spec_shared.insert(canonical);
                out.merges += 1;
                out.ops.push((
                    seq,
                    CommitOp::Merge {
                        dup: frame,
                        canonical,
                    },
                ));
                if tracing {
                    out.events.push((
                        seq,
                        EventKind::MergeStable {
                            space: mapping.space.index() as u32,
                            vpn: mapping.vpn.0,
                            dup_frame: frame.index() as u64,
                            stable_frame: canonical.index() as u64,
                        },
                    ));
                }
            } else {
                // Chain full: promote this page to a fresh stable node so
                // later duplicates have somewhere to go.
                shard.stable.insert(fp, frame);
                out.stable_version_bumps += 1;
                spec_shared.insert(frame);
                out.chain_splits += 1;
                out.ops.push((seq, CommitOp::Promote { frame }));
                if tracing {
                    out.events.push((
                        seq,
                        EventKind::ChainSplit {
                            space: mapping.space.index() as u32,
                            vpn: mapping.vpn.0,
                            frame: frame.index() as u64,
                        },
                    ));
                }
            }
            continue;
        }

        // 2. Volatility filter: content must be stable across a full pass.
        if phys.last_write(frame) >= horizon && horizon > Tick::ZERO {
            out.volatile_skips += 1;
            if tracing {
                out.events.push((
                    seq,
                    EventKind::VolatileSkip {
                        space: mapping.space.index() as u32,
                        vpn: mapping.vpn.0,
                        frame: frame.index() as u64,
                        last_write: phys.last_write(frame).0,
                    },
                ));
            }
            continue;
        }

        // 3. Unstable-tree lookup: one probe, whose entry is then
        // inserted, replaced or removed in place.
        let mut entry = match shard.unstable.entry(fp) {
            Entry::Vacant(slot) => {
                slot.insert(mapping);
                continue;
            }
            Entry::Occupied(entry) => entry,
        };
        let candidate = *entry.get();
        // A candidate whose block was collapsed to a huge page since
        // insertion is no longer a 4 KiB merge target — merging into it
        // would share a subframe of a live huge mapping. Replace the
        // entry, like any dead candidate.
        if spaces[candidate.space.index()]
            .region_containing(candidate.vpn)
            .is_some_and(|r| r.is_huge_page(candidate.vpn))
        {
            entry.insert(mapping);
            continue;
        }
        let Some(other) = spaces[candidate.space.index()].frame_at(candidate.vpn) else {
            entry.insert(mapping);
            continue;
        };
        // Re-verify: the unstable tree holds no write protection, so the
        // candidate may have changed since insertion. A frozen frame
        // merged away this shard resolves through the alias (same
        // content, so the fingerprint test is unchanged either way).
        let other = alias.get(&other).copied().unwrap_or(other);
        if other == frame {
            // Same page re-encountered; leave the entry in place.
            continue;
        }
        if phys.fingerprint(other) != fp {
            entry.insert(mapping);
            continue;
        }
        entry.remove();
        shard.stable.insert(fp, other);
        out.stable_version_bumps += 1;
        alias.insert(frame, other);
        *spec_ref.entry(other).or_insert(0) += phys.refcount(frame);
        spec_shared.insert(other);
        out.merges += 1;
        out.ops.push((
            seq,
            CommitOp::Merge {
                dup: frame,
                canonical: other,
            },
        ));
        if tracing {
            out.events.push((
                seq,
                EventKind::MergeUnstable {
                    space: mapping.space.index() as u32,
                    vpn: mapping.vpn.0,
                    dup_frame: frame.index() as u64,
                    stable_frame: other.index() as u64,
                },
            ));
        }
    }
    out
}

enum Advance {
    /// Progress was made; `n` budget units were consumed.
    Scanned(usize),
    /// The cursor is past the last region.
    PassComplete,
}

#[cfg(test)]
mod tests {
    use super::*;
    use paging::MemTag;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of(&[n])
    }

    /// Two spaces with `pages` identical pages each, written at tick 0.
    fn two_vm_setup(pages: u64) -> (HostMm, AsId, Vpn, AsId, Vpn) {
        let mut mm = HostMm::new();
        let a = mm.create_space("vm1");
        let b = mm.create_space("vm2");
        let ra = mm.map_region(a, pages as usize, MemTag::VmGuestMemory, true);
        let rb = mm.map_region(b, pages as usize, MemTag::VmGuestMemory, true);
        for i in 0..pages {
            mm.write_page(a, ra.offset(i), fp(i), Tick(0));
            mm.write_page(b, rb.offset(i), fp(i), Tick(0));
        }
        (mm, a, ra, b, rb)
    }

    fn converge(scanner: &mut KsmScanner, mm: &mut HostMm, from: Tick, wakes: u64) -> Tick {
        let mut t = from;
        for _ in 0..wakes {
            t = t.next();
            scanner.run(mm, t);
        }
        scanner.recount(mm);
        t
    }

    #[test]
    fn identical_pages_across_vms_merge() {
        let (mut mm, ..) = two_vm_setup(16);
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100));
        converge(&mut scanner, &mut mm, Tick(0), 8);
        assert_eq!(scanner.stats().pages_shared, 16);
        assert_eq!(scanner.stats().pages_sharing, 16);
        assert_eq!(mm.phys().allocated_frames(), 16);
        mm.assert_consistent();
    }

    #[test]
    fn volatile_pages_are_not_merged() {
        let (mut mm, a, ra, b, rb) = two_vm_setup(4);
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100));
        // Rewrite page 0 in both VMs every tick with identical content:
        // identical but volatile, so the checksum filter rejects it.
        let mut merged_while_hot = 0;
        for t in 1..20u64 {
            mm.write_page(a, ra, fp(1000 + t), Tick(t));
            mm.write_page(b, rb, fp(1000 + t), Tick(t));
            scanner.run(&mut mm, Tick(t));
            let frame = mm.frame_at(a, ra).unwrap();
            if mm.phys().refcount(frame) > 1 {
                merged_while_hot += 1;
            }
        }
        assert_eq!(merged_while_hot, 0);
        assert!(scanner.stats().volatile_skips > 0);
        // The three quiet pages did merge.
        scanner.recount(&mm);
        assert_eq!(scanner.stats().pages_sharing, 3);
        mm.assert_consistent();
    }

    #[test]
    fn write_breaks_sharing_and_scanner_recovers_counts() {
        let (mut mm, _a, _ra, b, rb) = two_vm_setup(8);
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100));
        let t = converge(&mut scanner, &mut mm, Tick(0), 8);
        assert_eq!(scanner.stats().pages_sharing, 8);

        // VM 2 writes half its pages: CoW breaks, savings halve.
        for i in 0..4 {
            mm.write_page(b, rb.offset(i), fp(9000 + i), Tick(t.0 + 1));
        }
        scanner.recount(&mm);
        assert_eq!(scanner.stats().pages_sharing, 4);
        mm.assert_consistent();
    }

    #[test]
    fn zero_pages_merge_into_one_frame() {
        let mut mm = HostMm::new();
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100));
        for name in ["vm1", "vm2", "vm3"] {
            let s = mm.create_space(name);
            let r = mm.map_region(s, 10, MemTag::VmGuestMemory, true);
            for i in 0..10 {
                mm.write_page(s, r.offset(i), Fingerprint::ZERO, Tick(0));
            }
        }
        converge(&mut scanner, &mut mm, Tick(0), 8);
        assert_eq!(scanner.stats().pages_shared, 1);
        assert_eq!(scanner.stats().pages_sharing, 29);
        assert_eq!(mm.phys().allocated_frames(), 1);
    }

    #[test]
    fn scan_budget_limits_progress_per_wake() {
        let (mut mm, ..) = two_vm_setup(100);
        // 50 pages per wake over 200 mapped pages: a pass needs 4 wakes.
        let mut scanner = KsmScanner::new(KsmParams::new(50, 100));
        scanner.run(&mut mm, Tick(1));
        assert_eq!(scanner.stats().pages_scanned, 50);
        assert_eq!(scanner.stats().full_scans, 0);
        for t in 2..=12 {
            scanner.run(&mut mm, Tick(t));
        }
        assert!(scanner.stats().full_scans >= 2);
        scanner.recount(&mm);
        assert_eq!(scanner.stats().pages_sharing, 100);
    }

    #[test]
    fn sleep_cadence_is_respected() {
        let (mut mm, ..) = two_vm_setup(4);
        let mut scanner = KsmScanner::new(KsmParams::new(10, 300));
        scanner.run(&mut mm, Tick(1)); // not on cadence
        assert_eq!(scanner.stats().pages_scanned, 0);
        scanner.run(&mut mm, Tick(3)); // 300 ms boundary
        assert!(scanner.stats().pages_scanned > 0);
    }

    #[test]
    fn stale_stable_nodes_are_discarded() {
        let (mut mm, a, ra, b, rb) = two_vm_setup(1);
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100));
        let t = converge(&mut scanner, &mut mm, Tick(0), 6);
        assert_eq!(scanner.stats().pages_shared, 1);
        // Both sharers rewrite: the stable frame dies entirely.
        mm.write_page(a, ra, fp(777), Tick(t.0 + 1));
        mm.write_page(b, rb, fp(778), Tick(t.0 + 1));
        scanner.recount(&mm);
        assert_eq!(scanner.stats().pages_shared, 0);
        assert_eq!(scanner.stable_nodes(), 0);
        mm.assert_consistent();
    }

    #[test]
    fn retune_mid_run() {
        let (mut mm, ..) = two_vm_setup(64);
        let mut scanner = KsmScanner::new(KsmParams::paper_warmup());
        scanner.run(&mut mm, Tick(1));
        scanner.set_params(KsmParams::paper_steady());
        assert_eq!(scanner.params().pages_to_scan(), 1_000);
        converge(&mut scanner, &mut mm, Tick(1), 8);
        assert_eq!(scanner.stats().pages_sharing, 64);
    }

    #[test]
    fn converged_regions_are_credited_not_walked() {
        let (mut mm, ..) = two_vm_setup(16);
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100));
        let t = converge(&mut scanner, &mut mm, Tick(0), 8);
        assert_eq!(scanner.stats().pages_sharing, 16);

        // Steady state: both regions are fully stable, so further passes
        // run on clean-region credits alone...
        let skips_before = scanner.stats().clean_region_skips;
        let scanned_before = scanner.stats().pages_scanned;
        let scans_before = scanner.stats().full_scans;
        let t = converge(&mut scanner, &mut mm, t, 4);
        assert!(scanner.stats().clean_region_skips >= skips_before + 2 * 3);
        // ...while budget accounting stays page-walk-accurate: 32 mapped
        // pages per pass, one pass per wake at this budget.
        assert_eq!(scanner.stats().pages_scanned, scanned_before + 4 * 32);
        assert_eq!(scanner.stats().full_scans, scans_before + 4);
        assert_eq!(scanner.stats().pages_sharing, 16);
        let _ = t;
        mm.assert_consistent();
    }

    #[test]
    fn write_to_clean_region_forces_rescan() {
        let (mut mm, a, ra, b, rb) = two_vm_setup(16);
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100));
        let t = converge(&mut scanner, &mut mm, Tick(0), 8);
        assert_eq!(scanner.stats().pages_sharing, 16);

        // New identical content in both VMs: CoW breaks the old node, and
        // the generation bump must invalidate the clean-region records so
        // the pages get rescanned and re-merged.
        mm.write_page(a, ra.offset(3), fp(555), Tick(t.0 + 1));
        mm.write_page(b, rb.offset(3), fp(555), Tick(t.0 + 1));
        scanner.recount(&mm);
        assert_eq!(scanner.stats().pages_sharing, 15);
        converge(&mut scanner, &mut mm, t, 8);
        assert_eq!(scanner.stats().pages_sharing, 16);
        let frame = mm.frame_at(a, ra.offset(3)).unwrap();
        assert_eq!(mm.phys().refcount(frame), 2);
        mm.assert_consistent();
    }

    #[test]
    fn write_landing_mid_skip_falls_back_to_page_walk() {
        // Budget 10 over 2×64 mapped pages: a clean region's credit spans
        // several wakes, so a write can land in the middle of a skip.
        let (mut mm, a, ra, b, rb) = two_vm_setup(64);
        let mut scanner = KsmScanner::new(KsmParams::new(10, 100));
        let mut t = converge(&mut scanner, &mut mm, Tick(0), 64);
        assert_eq!(scanner.stats().pages_sharing, 64);
        assert!(scanner.stats().clean_region_skips > 0);

        // Interleave writes with wakes so some hit mid-skip.
        for i in 0..8u64 {
            mm.write_page(a, ra.offset(i * 7), fp(2000 + i), Tick(t.0 + 1));
            mm.write_page(b, rb.offset(i * 7), fp(2000 + i), Tick(t.0 + 1));
            t = converge(&mut scanner, &mut mm, t, 3);
        }
        converge(&mut scanner, &mut mm, t, 64);
        assert_eq!(scanner.stats().pages_sharing, 64);
        mm.assert_consistent();
    }

    /// The scan is the same computation at every thread count: stats,
    /// stable-tree contents, frame table and PTE state all match a
    /// 1-thread run exactly, through merges, CoW breaks, and rescans.
    #[test]
    fn thread_count_does_not_change_anything() {
        fn drive(threads: usize) -> (KsmStats, Vec<(Fingerprint, FrameId)>, u64) {
            let (mut mm, a, ra, b, rb) = two_vm_setup(64);
            let mut scanner = KsmScanner::new(KsmParams::new(40, 100)).with_threads(threads);
            let mut t = Tick(0);
            for round in 0..10u64 {
                mm.write_page(a, ra.offset(round * 5), fp(3000 + round), Tick(t.0 + 1));
                mm.write_page(b, rb.offset(round * 5), fp(3000 + round), Tick(t.0 + 1));
                t = converge(&mut scanner, &mut mm, t, 4);
            }
            converge(&mut scanner, &mut mm, t, 32);
            mm.assert_consistent();
            let frames_sig = mm
                .phys()
                .iter()
                .map(|(i, f)| (i.index() as u64) ^ u64::from(f.refcount()))
                .sum();
            (
                scanner.stats(),
                scanner.stable_frames().collect(),
                frames_sig,
            )
        }
        let baseline = drive(1);
        for threads in [2, 4, 8] {
            assert_eq!(drive(threads), baseline, "threads={threads}");
        }
    }

    /// Huge blocks are split (latching them against re-collapse) before
    /// any of their subpages merge, and the split count is per effective
    /// block split, not per scanned subpage.
    #[test]
    fn huge_blocks_are_split_before_their_pages_merge() {
        let (mut mm, a, ra, b, rb) = two_vm_setup(HUGE_PAGE_SPAN as u64 * 2);
        assert!(mm.try_collapse(a, ra, 0));
        assert!(mm.try_collapse(a, ra, 1));
        assert!(mm.try_collapse(b, rb, 0));
        let mut scanner = KsmScanner::new(KsmParams::new(4096, 100));
        converge(&mut scanner, &mut mm, Tick(0), 12);
        assert_eq!(scanner.stats().thp_splits, 3);
        // Once split, every page merges cross-VM like ordinary 4 KiB.
        assert_eq!(scanner.stats().pages_sharing, 2 * HUGE_PAGE_SPAN as u64);
        let region = mm.space(a).region_at(ra).unwrap();
        assert_eq!(region.huge_blocks(), 0);
        assert!(region.ksm_split_latched(0));
        assert!(!mm.try_collapse(a, ra, 0));
        mm.assert_consistent();
    }

    /// The huge-page split path is deterministic at any thread count,
    /// including budget windows that cross block boundaries mid-wake.
    #[test]
    fn thread_count_invariant_with_huge_blocks() {
        fn drive(threads: usize) -> (KsmStats, Vec<(Fingerprint, FrameId)>, u64) {
            let (mut mm, a, ra, b, rb) = two_vm_setup(HUGE_PAGE_SPAN as u64 * 2);
            assert!(mm.try_collapse(a, ra, 0));
            assert!(mm.try_collapse(b, rb, 1));
            let mut scanner = KsmScanner::new(KsmParams::new(300, 100)).with_threads(threads);
            let mut t = Tick(0);
            for round in 0..6u64 {
                mm.write_page(a, ra.offset(round * 11), fp(5000 + round), Tick(t.0 + 1));
                mm.write_page(b, rb.offset(round * 11), fp(5000 + round), Tick(t.0 + 1));
                t = converge(&mut scanner, &mut mm, t, 8);
            }
            converge(&mut scanner, &mut mm, t, 40);
            mm.assert_consistent();
            let frames_sig = mm
                .phys()
                .iter()
                .map(|(i, f)| (i.index() as u64) ^ u64::from(f.refcount()))
                .sum();
            (
                scanner.stats(),
                scanner.stable_frames().collect(),
                frames_sig,
            )
        }
        let baseline = drive(1);
        assert_eq!(baseline.0.thp_splits, 2);
        for threads in [2, 4] {
            assert_eq!(drive(threads), baseline, "threads={threads}");
        }
    }

    /// Every stable node lives in the shard its fingerprint selects, and
    /// the stable view comes out globally fingerprint-sorted.
    #[test]
    fn stable_nodes_land_in_their_fingerprint_shard() {
        let (mut mm, ..) = two_vm_setup(128);
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100));
        converge(&mut scanner, &mut mm, Tick(0), 8);
        assert_eq!(scanner.stats().pages_shared, 128);
        let nodes: Vec<(usize, Fingerprint, FrameId)> = scanner.stable_frames_by_shard().collect();
        assert_eq!(nodes.len(), 128);
        for &(shard, fp, _) in &nodes {
            assert_eq!(shard, shard_of(fp));
        }
        let fps: Vec<Fingerprint> = nodes.iter().map(|&(_, fp, _)| fp).collect();
        assert!(fps.windows(2).all(|w| w[0] < w[1]), "not sorted");
        // 128 distinct fingerprints should spread over many shards.
        let used: HashSet<usize> = nodes.iter().map(|&(s, ..)| s).collect();
        assert!(used.len() > 16, "only {} shards used", used.len());
    }
}

#[cfg(test)]
mod cap_tests {
    use super::*;
    use mem::Fingerprint;
    use paging::MemTag;

    /// With a sharing cap of 4, sixteen identical pages need at least
    /// four stable nodes (frames), not one.
    #[test]
    fn max_page_sharing_splits_chains() {
        let mut mm = HostMm::new();
        let s = mm.create_space("vm");
        let r = mm.map_region(s, 16, MemTag::VmGuestMemory, true);
        for i in 0..16 {
            mm.write_page(s, r.offset(i), Fingerprint::of(&[1]), Tick(0));
        }
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100).with_max_page_sharing(4));
        for t in 1..10 {
            scanner.run(&mut mm, Tick(t));
        }
        scanner.recount(&mm);
        // 16 identical pages at cap 4 → at least 4 frames survive.
        assert!(mm.phys().allocated_frames() >= 4);
        assert!(
            mm.phys().allocated_frames() <= 6,
            "cap should still dedupe most"
        );
        assert!(scanner.stats().chain_splits > 0);
        for (_, frame) in mm.phys().iter() {
            assert!(frame.refcount() <= 4, "cap exceeded: {}", frame.refcount());
        }
        mm.assert_consistent();
    }

    /// The default cap (256) is effectively invisible in small systems.
    #[test]
    fn default_cap_does_not_interfere() {
        let mut mm = HostMm::new();
        let s = mm.create_space("vm");
        let r = mm.map_region(s, 32, MemTag::VmGuestMemory, true);
        for i in 0..32 {
            mm.write_page(s, r.offset(i), Fingerprint::ZERO, Tick(0));
        }
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100));
        for t in 1..10 {
            scanner.run(&mut mm, Tick(t));
        }
        assert_eq!(mm.phys().allocated_frames(), 1);
        assert_eq!(scanner.stats().chain_splits, 0);
    }

    /// The cap holds at every thread count: the speculative refcount
    /// overlay must see same-wake merges or a chain could overfill.
    #[test]
    fn cap_is_respected_under_parallel_resolve() {
        for threads in [1, 4] {
            let mut mm = HostMm::new();
            let s = mm.create_space("vm");
            let r = mm.map_region(s, 64, MemTag::VmGuestMemory, true);
            for i in 0..64 {
                mm.write_page(s, r.offset(i), Fingerprint::of(&[7]), Tick(0));
            }
            let mut scanner = KsmScanner::new(KsmParams::new(1000, 100).with_max_page_sharing(4))
                .with_threads(threads);
            for t in 1..10 {
                scanner.run(&mut mm, Tick(t));
            }
            for (_, frame) in mm.phys().iter() {
                assert!(frame.refcount() <= 4, "cap exceeded: {}", frame.refcount());
            }
            mm.assert_consistent();
        }
    }
}
