//! The KSM scanning loop.

use crate::{KsmParams, KsmStats};
use mem::{Fingerprint, FrameId, IdMap, IdSet, Tick, HUGE_PAGE_SPAN};
use obs::{EventKind, Profiler};
use paging::{AsId, HostMm, Mapping, SplitReason, Vpn};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

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
///    stable node. A page with one PTE whose frame is the only live
///    holder of its content (the frame pool's sole-holder filter,
///    [`mem::PhysMemory::holders`]) is left out of the unstable tree:
///    no page this pass could merge with it.
/// 4. A page under a 2 MiB transparent huge mapping is never merged in
///    place: the scanner queues a split of the huge page (counted in
///    `thp_splits`) and its subpages become ordinary candidates on a
///    later pass — the split-before-merge order of real ksmd. KSM
///    splits latch the block against khugepaged re-collapse, so the two
///    daemons cannot livelock splitting and collapsing the same run.
///
/// Both trees are hash maps keyed by fingerprint: the scan only ever
/// looks a fingerprint up, and the sorted view that audits and tests
/// read is built on demand by [`stable_frames`](Self::stable_frames).
/// The unstable tree is discarded at the end of every full pass (the
/// map is retained and pre-sized to its high-water mark, so
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
/// walk would), but no page is touched. A region that does get walked
/// is resolved once and read in one loop over its page slots from the
/// cursor ([`paging::Region::slots`]), holes skipped, each mapped
/// page's frame read once and the page decided on the spot: a
/// KSM-shared page is passed over, and a sole holder (one PTE, the
/// only live holder of its content, the volatility filter active) that
/// has no stable-tree node is settled in the loop, counted as judged
/// and, if written inside the horizon, as a volatile skip. Every other
/// candidate goes through the full judge below.
///
/// # Judge, then commit
///
/// A wake is one serial pass over its window, in scan order, in two
/// steps:
///
/// 1. **Judge.** The cursor/budget/clean-credit machinery above walks
///    the window and judges every unshared candidate page against the
///    memory state at wake start plus an overlay of the wake's own
///    decisions so far (frames merged away, frames that became stable
///    nodes, refcount granted by earlier merges), so each verdict is
///    the one a scan mutating memory as it goes would reach. The trees
///    and counters are updated on the spot; each page-table mutation
///    (merge, promotion, huge-page split) and each trace event goes on
///    an ordered list instead.
/// 2. **Commit.** Both lists are applied in scan order and the overlay
///    is cleared.
///
/// Memory does not change until the commit, so every clean-region
/// verdict of a wake is reached against its start state: a region
/// whose last candidates merge this wake is judged "fully stable" — and
/// earns its O(1) credit — one pass later than a live scan would. A
/// region entered at its first page whose populated-page count fits
/// the remaining budget is walked to its end, trailing holes included,
/// so its verdict lands in this wake; a walk that stopped at its last
/// populated page would leave the verdict to the next wake. DESIGN.md
/// §10 explains why both rules stay.
///
/// See the [crate docs](crate) for a usage example.
#[derive(Debug)]
pub struct KsmScanner {
    params: KsmParams,
    /// The stable tree: one node per merged content.
    stable: IdMap<Fingerprint, FrameId>,
    /// The unstable tree of this pass's merge candidates.
    unstable: IdMap<Fingerprint, Mapping>,
    /// High-water mark of `unstable.len()`, used to pre-size the map at
    /// each pass boundary so steady-state passes never rehash.
    unstable_peak: usize,
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
    stats: KsmStats,
    /// The wake's page-table mutations, in scan order. Huge-page splits
    /// are idempotent per block, so the per-subpage split requests of
    /// one block collapse to a single effective split at commit.
    ops: Vec<CommitOp>,
    /// The wake's trace events, in scan order.
    events: Vec<EventKind>,
    /// Overlay: frames merged away this wake, to their canonical.
    alias: IdMap<FrameId, FrameId>,
    /// Overlay: frames that became stable nodes this wake (merge
    /// canonicals and promoted chain heads).
    spec_shared: IdSet<FrameId>,
    /// Overlay: refcount granted to a canonical by this wake's merges
    /// (each merge adds the duplicate's refcount, which is exactly the
    /// number of users repointed), so the `max_page_sharing` cap check
    /// sees the refcount a live scan would.
    spec_ref: IdMap<FrameId, u32>,
    /// Every wake's work counters, summed; the nanos stay 0 here and
    /// [`wake_totals`](Self::wake_totals) reads them from `prof`.
    work: WakePhases,
    /// Wall clock of the wake's `plan` and `commit` steps.
    prof: Profiler,
}

/// Per-phase accounting of the scanner's wakes, split into two strictly
/// separated halves (DESIGN.md §13):
///
/// * the `*_nanos` fields are **wall-clock** measurements. They vary
///   run to run and host to host, and nothing deterministic (goldens,
///   reports, the simulated-state metric series) may depend on them;
/// * the work counters (`planned_pages`, `classify_tasks`,
///   `resolved_items`, `committed_ops`) are **simulated-state** values
///   derived purely from the scan window, safe to pin in goldens and
///   the deterministic metrics exposition. Their names date from a
///   four-phase wake; the `ksm_wake_work_total` series keeps them.
///
/// Pure measurement plumbing either way: neither half influences scan
/// behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakePhases {
    /// The judging pass: cursor, budget and credit bookkeeping plus
    /// every candidate's verdict.
    pub plan_nanos: u64,
    /// Always 0: the wake has no classify phase. Kept, like
    /// `resolve_nanos`, only because `perfbench` reads it; both go at
    /// the next change to the benchmark.
    pub classify_nanos: u64,
    /// Always 0: the wake has no resolve phase (see `classify_nanos`).
    pub resolve_nanos: u64,
    /// The commit (mutations and events applied in scan order) and the
    /// pass boundary.
    pub commit_nanos: u64,
    /// Deterministic: budget units the wake consumed, pages walked plus
    /// pages credited.
    pub planned_pages: u64,
    /// Deterministic: whole regions walked to their end (entered at
    /// their first page with a populated-page count that fit the
    /// remaining budget).
    pub classify_tasks: u64,
    /// Deterministic: candidate pages judged.
    pub resolved_items: u64,
    /// Deterministic: mutations (merges, promotions, splits) committed.
    pub committed_ops: u64,
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

/// A page-table mutation decided while judging, applied to the `HostMm`
/// at commit in scan order.
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

/// One unshared candidate page as the walk read it. Memory is frozen
/// until the commit, so the read equals a live one at judging time.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    mapping: Mapping,
    frame: FrameId,
    fingerprint: Fingerprint,
    last_write: Tick,
    refcount: u32,
    /// The volatility filter is active and the frame was written at or
    /// after its horizon: the checksum test fails.
    volatile: bool,
    /// The volatility filter is active, the page is its frame's one PTE
    /// and the frame is the only live holder of its content (its bucket
    /// in the sole-holder filter counts one frame).
    sole: bool,
}

impl KsmScanner {
    /// Creates a scanner with the given tuning parameters.
    #[must_use]
    pub fn new(params: KsmParams) -> KsmScanner {
        KsmScanner {
            params,
            stable: IdMap::default(),
            unstable: IdMap::default(),
            unstable_peak: 0,
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
            stats: KsmStats::default(),
            ops: Vec::new(),
            events: Vec::new(),
            alias: IdMap::default(),
            spec_shared: IdSet::default(),
            spec_ref: IdMap::default(),
            work: WakePhases::default(),
            prof: Profiler::default(),
        }
    }

    /// Running sum of every wake's [`WakePhases`]: the deterministic
    /// work counters are exact simulated-state totals, the nanos are
    /// the scanner's profiled `plan` and `commit` wall time.
    #[must_use]
    pub fn wake_totals(&self) -> WakePhases {
        WakePhases {
            plan_nanos: self.prof.nanos("plan"),
            commit_nanos: self.prof.nanos("commit"),
            ..self.work
        }
    }

    /// Exports the scanner's deterministic counters (sysfs-mirror stats
    /// and cumulative wake work) plus the wall-clock per-phase nanos
    /// into `reg`. The nanos land in the separated
    /// [`obs::MetricClass::Wall`] section. The `pages_shared` and
    /// `pages_sharing` stats are left out: they lag between recounts,
    /// so a scrape exports a fresh [`count_sharing`](Self::count_sharing).
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
        // The help text predates the single stable tree. The telemetry
        // golden and perfbench's recorded scrape digest pin it, so it
        // is reworded at the next change to the benchmark.
        reg.gauge(
            "ksm_stable_nodes",
            "Stable-tree nodes currently tracked, over all shards.",
            &[],
            self.stable_nodes() as f64,
        );
        let w = self.wake_totals();
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
            &[("phase", "commit")],
            wall,
            w.commit_nanos,
        );
    }

    /// Returns the scanner unchanged: the wake is serial, so there is
    /// no worker count to set. Kept only because `perfbench` still
    /// calls it and changes only together with the benchmark; it goes
    /// at the next change to the benchmark.
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> KsmScanner {
        self
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

    /// Number of stable-tree nodes currently tracked.
    #[must_use]
    pub fn stable_nodes(&self) -> usize {
        self.stable.len()
    }

    /// The stable tree's `(fingerprint, frame)` entries in fingerprint
    /// order, sorted on demand: only audits and tests read it, and the
    /// scan itself never needs the order. Entries can be stale between
    /// [`recount`](Self::recount)s (the tree is validated lazily);
    /// consumers such as the cross-layer auditor must re-validate each
    /// node against the frame table.
    pub fn stable_frames(&self) -> impl Iterator<Item = (Fingerprint, FrameId)> {
        let mut nodes: Vec<(Fingerprint, FrameId)> = self
            .stable
            .iter()
            .map(|(&fp, &frame)| (fp, frame))
            .collect();
        nodes.sort_unstable_by_key(|&(fp, _)| fp);
        nodes.into_iter()
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
        // Judge this wake's window against its start state.
        let budget = self.params.pages_to_scan();
        let mut scanned = 0;
        let mut pass_complete = false;
        let judge_start = Instant::now();
        while scanned < budget {
            match self.walk(mm, budget - scanned) {
                Advance::Scanned(n) => scanned += n,
                Advance::PassComplete => {
                    pass_complete = true;
                    break;
                }
            }
        }
        self.prof.end("plan", judge_start, 0, scanned as u64);
        self.work.planned_pages += scanned as u64;
        let commit_start = Instant::now();
        self.commit(mm);
        if pass_complete {
            // At most one pass boundary per wake: real ksmd would
            // just keep going, but bounding it keeps a wake's work
            // proportional to memory size and avoids re-scanning
            // the same pages with a stale volatility horizon.
            self.finish_pass(mm, now);
        }
        self.prof.end("commit", commit_start, 0, 0);
        self.stats.pages_scanned += scanned as u64;
    }

    /// Recomputes `pages_shared` / `pages_sharing` from the ground truth,
    /// dropping stale stable-tree nodes: one walk over the stable tree.
    /// A recount with nothing changed since the last drops no node and
    /// sets the same counts.
    pub fn recount(&mut self, mm: &HostMm) {
        let phys = mm.phys();
        let mut shared = 0u64;
        let mut sharing = 0u64;
        self.stable.retain(|&fp, &mut frame| {
            let valid =
                phys.is_live(frame) && phys.is_ksm_shared(frame) && phys.fingerprint(frame) == fp;
            if valid {
                shared += 1;
                sharing += u64::from(phys.refcount(frame).saturating_sub(1));
            }
            valid
        });
        self.stats.pages_shared = shared;
        self.stats.pages_sharing = sharing;
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
        for (&fp, &frame) in &self.stable {
            if phys.is_live(frame) && phys.is_ksm_shared(frame) && phys.fingerprint(frame) == fp {
                shared += 1;
                sharing += u64::from(phys.refcount(frame).saturating_sub(1));
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
        self.unstable_peak = self.unstable_peak.max(self.unstable.len());
        self.unstable.clear();
        // Clearing retains capacity; the reserve guards the map to its
        // high-water mark so the next pass's inserts never rehash even
        // after external shrinkage.
        self.unstable.reserve(self.unstable_peak);
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

    /// One bounded unit of the judging pass: a clean-region credit, a
    /// page walk within the current region (judging each candidate), or
    /// a cursor transition. Always either makes cursor progress or
    /// reports the pass complete.
    ///
    /// Memory is only read here; every mutation waits for the
    /// [`commit`](Self::commit).
    fn walk(&mut self, mm: &HostMm, budget_left: usize) -> Advance {
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
        // Resolve the region once for the whole walk (a single map
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
            return self.skip(mm.tracer(), space, region, len, budget_left);
        }

        // Whole-region rule: a region entered at its first page whose
        // populated-page count fits the remaining budget is walked to
        // its end, trailing holes included, so its clean verdict is
        // recorded this wake.
        let whole = self.cursor_page == 0 && region.mapped_pages() <= budget_left;
        if whole {
            self.work.classify_tasks += 1;
        }
        // The wake's inputs, fixed for the walk: memory is frozen until
        // the commit, and only the pass boundary after it moves the
        // horizon.
        let phys = mm.phys();
        let holders = phys.holders();
        let tracing = mm.tracer().is_enabled();
        let horizon = self.volatility_horizon();
        let filtering = horizon > Tick::ZERO;
        let huge = region.huge_blocks() > 0;
        let limit = if whole { usize::MAX } else { budget_left };
        let mut scanned = 0usize;
        let mut all_stable = true;
        let mut region_done = true;
        let start = self.cursor_page as usize;
        for (offset, slot) in region.slots()[start..].iter().enumerate() {
            let Some(frame) = slot.frame() else { continue };
            let index = start + offset;
            scanned += 1;
            'page: {
                if huge && region.is_huge_block(index / HUGE_PAGE_SPAN) {
                    // Under a 2 MiB mapping: KSM breaks the huge page
                    // before its subpages can be considered
                    // (split-before-merge). The page itself becomes a
                    // candidate on a later pass.
                    all_stable = false;
                    let block = index / HUGE_PAGE_SPAN;
                    self.ops.push(CommitOp::Split { space, base, block });
                    break 'page;
                }
                let f = phys.frame(frame);
                if f.ksm_shared() {
                    // Already a stable node (or a sharer of one).
                    break 'page;
                }
                all_stable = false;
                let fingerprint = f.fingerprint();
                let page = Candidate {
                    mapping: Mapping {
                        space,
                        vpn: base.offset(index as u64),
                    },
                    frame,
                    fingerprint,
                    last_write: f.last_write(),
                    refcount: f.refcount(),
                    volatile: filtering && f.last_write() >= horizon,
                    sole: filtering && f.refcount() == 1 && holders.count(fingerprint) == 1,
                };
                if page.sole && !self.stable.contains_key(&fingerprint) {
                    // The judge's verdict without the call: no overlay
                    // entry (one PTE), no stable node to merge with or
                    // drop, and the unstable tree left alone.
                    self.work.resolved_items += 1;
                    if page.volatile {
                        self.skip_volatile(&page, tracing);
                    }
                    break 'page;
                }
                self.judge(mm, &page, tracing);
            }
            if scanned == limit {
                self.cursor_page = index as u64 + 1;
                region_done = false;
                break;
            }
        }
        self.region_mapped_seen += scanned as u64;
        self.region_all_stable &= all_stable;
        if region_done {
            self.finish_region(space, id, region.generation());
            self.next_region();
        }
        Advance::Scanned(scanned)
    }

    /// Continues a clean-region skip: consumes the same budget a page
    /// walk would, O(1) per wake. Falls back to a page walk from the
    /// equivalent cursor position if a write lands mid-skip.
    fn skip(
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
                self.events.push(EventKind::CleanRegionCredit {
                    space: space.index() as u32,
                    base: region.base().0,
                    pages: self.skip_total,
                });
            }
            self.next_region();
        }
        Advance::Scanned(take as usize)
    }

    /// Judges one unshared candidate page: the merge state machine,
    /// run against the wake-start memory state plus the overlay.
    ///
    /// The overlay stands in for the wake's own mutations, which only
    /// land at commit:
    ///
    /// * a frame in `alias` was merged away earlier this wake — a later
    ///   page still mapping it would, live, have been repointed already
    ///   and skipped as shared;
    /// * a frame in `spec_shared` became a stable node this wake;
    /// * `spec_ref` adds the refcount this wake's merges granted.
    ///
    /// Merges preserve content, so a fingerprint read through a frame
    /// merged away this wake is still exact.
    ///
    /// A page whose frame is the only live holder of its content skips
    /// the unstable tree once the stable lookup and the volatility
    /// filter are done; DESIGN.md §10 gives the argument that no verdict
    /// changes. The walk settles such a page itself when the stable tree
    /// has no node for its content, so here it is one whose stable
    /// lookup finds a node.
    fn judge(&mut self, mm: &HostMm, page: &Candidate, tracing: bool) {
        let phys = mm.phys();
        let (mapping, frame, fp) = (page.mapping, page.frame, page.fingerprint);
        self.work.resolved_items += 1;
        // The frame was merged away or became a stable node earlier this
        // wake: live, the page is already shared and is skipped without
        // touching the trees or counters. A frame with one PTE cannot
        // be in the overlay: that PTE is walked once per pass, so no
        // earlier page of this wake mapped the frame.
        if page.refcount > 1
            && (self.alias.contains_key(&frame) || self.spec_shared.contains(&frame))
        {
            return;
        }

        // 1. Stable-tree lookup (with stale-node validation). Nodes
        // respect the max_page_sharing cap: a saturated chain head stops
        // accepting duplicates and the page is left for a new node.
        let mut stable_hit = None;
        if let Some(&node) = self.stable.get(&fp) {
            let valid = phys.is_live(node)
                && (phys.is_ksm_shared(node) || self.spec_shared.contains(&node))
                && phys.fingerprint(node) == fp;
            if valid {
                stable_hit = Some(node);
            } else {
                self.stable.remove(&fp);
                self.stats.stale_stable_nodes += 1;
                if tracing {
                    self.events.push(EventKind::StaleNodeDrop {
                        frame: node.index() as u64,
                    });
                }
            }
        }
        if let Some(canonical) = stable_hit {
            if canonical == frame {
                return;
            }
            let refs =
                phys.refcount(canonical) + self.spec_ref.get(&canonical).copied().unwrap_or(0);
            if refs < self.params.max_page_sharing() {
                self.merge(page.refcount, frame, canonical);
                if tracing {
                    self.events.push(EventKind::MergeStable {
                        space: mapping.space.index() as u32,
                        vpn: mapping.vpn.0,
                        dup_frame: frame.index() as u64,
                        stable_frame: canonical.index() as u64,
                    });
                }
            } else {
                // Chain full: promote this page to a fresh stable node so
                // later duplicates have somewhere to go.
                self.stable.insert(fp, frame);
                self.spec_shared.insert(frame);
                self.stats.chain_splits += 1;
                self.ops.push(CommitOp::Promote { frame });
                if tracing {
                    self.events.push(EventKind::ChainSplit {
                        space: mapping.space.index() as u32,
                        vpn: mapping.vpn.0,
                        frame: frame.index() as u64,
                    });
                }
            }
            return;
        }

        // 2. Volatility filter: content must be stable across a full pass.
        if page.volatile {
            self.skip_volatile(page, tracing);
            return;
        }

        // 3. Sole holder: with the volatility filter active, a frame that
        // is its content's only live holder and has one PTE can neither
        // merge now nor be found by a later page this pass, so the
        // unstable tree is left alone.
        if page.sole {
            return;
        }

        // 4. Unstable-tree lookup: one probe, whose entry is then
        // inserted, replaced or removed in place.
        let mut entry = match self.unstable.entry(fp) {
            Entry::Vacant(slot) => {
                slot.insert(mapping);
                return;
            }
            Entry::Occupied(entry) => entry,
        };
        let candidate = *entry.get();
        let candidate_space = mm.space(candidate.space);
        // A candidate whose block was collapsed to a huge page since
        // insertion is no longer a 4 KiB merge target — merging into it
        // would share a subframe of a live huge mapping. Replace the
        // entry, like any dead candidate.
        if candidate_space
            .region_containing(candidate.vpn)
            .is_some_and(|r| r.is_huge_page(candidate.vpn))
        {
            entry.insert(mapping);
            return;
        }
        let Some(other) = candidate_space.frame_at(candidate.vpn) else {
            entry.insert(mapping);
            return;
        };
        // Re-verify: the unstable tree holds no write protection, so the
        // candidate may have changed since insertion. A frame merged
        // away this wake resolves through the alias (same content, so
        // the fingerprint test is unchanged either way).
        let other = self.alias.get(&other).copied().unwrap_or(other);
        if other == frame {
            // Same page re-encountered; leave the entry in place.
            return;
        }
        if phys.fingerprint(other) != fp {
            entry.insert(mapping);
            return;
        }
        entry.remove();
        self.stable.insert(fp, other);
        self.merge(page.refcount, frame, other);
        if tracing {
            self.events.push(EventKind::MergeUnstable {
                space: mapping.space.index() as u32,
                vpn: mapping.vpn.0,
                dup_frame: frame.index() as u64,
                stable_frame: other.index() as u64,
            });
        }
    }

    /// Counts a candidate the volatility filter rejects.
    fn skip_volatile(&mut self, page: &Candidate, tracing: bool) {
        self.stats.volatile_skips += 1;
        if tracing {
            self.events.push(EventKind::VolatileSkip {
                space: page.mapping.space.index() as u32,
                vpn: page.mapping.vpn.0,
                frame: page.frame.index() as u64,
                last_write: page.last_write.0,
            });
        }
    }

    /// Decides the merge of `dup` (with `refs` users) into `canonical`
    /// and records it in the overlay.
    fn merge(&mut self, refs: u32, dup: FrameId, canonical: FrameId) {
        self.alias.insert(dup, canonical);
        *self.spec_ref.entry(canonical).or_insert(0) += refs;
        self.spec_shared.insert(canonical);
        self.stats.merges += 1;
        self.ops.push(CommitOp::Merge { dup, canonical });
    }

    /// Applies the wake's mutations, then emits its trace events, both
    /// in scan order, and clears the overlay. Huge-page splits are
    /// idempotent per block, so `thp_splits` counts effective splits
    /// only — the count is independent of how many of a block's
    /// subpages fell inside the scan window.
    fn commit(&mut self, mm: &mut HostMm) {
        self.work.committed_ops += self.ops.len() as u64;
        for op in self.ops.drain(..) {
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
        let tracer = mm.tracer();
        for event in self.events.drain(..) {
            tracer.emit_with(|| event);
        }
        self.alias.clear();
        self.spec_shared.clear();
        self.spec_ref.clear();
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

    /// The wake's wall clock is the scanner's profiler: after a few
    /// wakes the totals carry the `plan` and `commit` nanos, the
    /// retired classify and resolve steps read 0, and the metrics
    /// export exactly those two values.
    #[test]
    fn wake_nanos_are_the_profiled_plan_and_commit() {
        let (mut mm, ..) = two_vm_setup(16);
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100));
        converge(&mut scanner, &mut mm, Tick(0), 4);
        let w = scanner.wake_totals();
        assert!(w.plan_nanos > 0 && w.commit_nanos > 0, "{w:?}");
        assert_eq!((w.classify_nanos, w.resolve_nanos), (0, 0));
        assert_eq!(w.planned_pages, scanner.stats().pages_scanned);
        assert!(w.resolved_items > 0 && w.committed_ops > 0, "{w:?}");
        let mut reg = obs::MetricsRegistry::new();
        scanner.record_metrics(&mut reg);
        let nanos = |phase| reg.counter_value("ksm_wake_phase_nanos_total", &[("phase", phase)]);
        assert_eq!(nanos("plan"), Some(w.plan_nanos));
        assert_eq!(nanos("commit"), Some(w.commit_nanos));
        assert_eq!(nanos("classify"), None);
        assert_eq!(nanos("resolve"), None);
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

    /// A pass that began at tick 0 has no volatility filter, so a copy
    /// written after a sole holder was judged still finds it in the
    /// unstable tree that pass: the sole-holder skip is off until the
    /// filter is active.
    #[test]
    fn sole_holder_skip_waits_for_the_volatility_filter() {
        let mut mm = HostMm::new();
        let a = mm.create_space("vm1");
        let b = mm.create_space("vm2");
        let ra = mm.map_region(a, 1, MemTag::VmGuestMemory, true);
        let rb = mm.map_region(b, 1, MemTag::VmGuestMemory, true);
        mm.write_page(a, ra, fp(1), Tick(0));
        mm.write_page(b, rb, fp(2), Tick(0));
        let mut scanner = KsmScanner::new(KsmParams::new(1, 100));
        scanner.run(&mut mm, Tick(0));
        assert_eq!(scanner.volatility_horizon(), Tick::ZERO);
        assert!(mm.phys().sole_holder(mm.frame_at(a, ra).unwrap()));
        mm.write_page(b, rb, fp(1), Tick(0));
        scanner.run(&mut mm, Tick(1));
        assert_eq!(scanner.stats().merges, 1);
        assert_eq!(mm.frame_at(b, rb), mm.frame_at(a, ra));
        mm.assert_consistent();
    }

    /// Walk boundaries: regions with leading, interior and trailing
    /// holes (and one of holes only), under budgets that end one page
    /// before, at and one page after the first region's last mapped
    /// page. Each wake's pages scanned and full passes, the whole
    /// regions walked to their end (`classify_tasks`, whose walks cover
    /// trailing holes in the same wake) and the clean-region credits
    /// are pinned.
    #[test]
    fn walk_boundaries_around_holes_are_pinned() {
        // The first region maps 5 of its 12 pages, the third 5 of 10.
        const LAYOUTS: [(usize, &[u64]); 3] =
            [(12, &[2, 3, 5, 6, 8]), (4, &[]), (10, &[0, 1, 4, 6, 7])];
        let run = |budget: usize| {
            let mut mm = HostMm::new();
            let mut regions = Vec::new();
            for (i, &(len, mapped)) in LAYOUTS.iter().enumerate() {
                let space = mm.create_space(format!("vm{i}"));
                let base = mm.map_region(space, len, MemTag::VmGuestMemory, true);
                for (k, &page) in mapped.iter().enumerate() {
                    mm.write_page(space, base.offset(page), fp(k as u64), Tick(0));
                }
                regions.push((space, base));
            }
            let mut scanner = KsmScanner::new(KsmParams::new(budget, 100));
            let (mut scanned, mut passes) = (Vec::new(), Vec::new());
            for t in 1..=12 {
                scanner.run(&mut mm, Tick(t));
                scanned.push(scanner.stats().pages_scanned);
                passes.push(scanner.stats().full_scans);
                if t == 1 {
                    // A page faults into the first region's trailing
                    // holes: a walk that already finished the region
                    // leaves it to the next pass.
                    let (space, base) = regions[0];
                    mm.write_page(space, base.offset(10), fp(99), Tick(t));
                }
            }
            mm.assert_consistent();
            let whole = scanner.wake_totals().classify_tasks;
            (scanned, passes, whole, scanner.stats().clean_region_skips)
        };
        // Per budget: pages scanned and full passes after each wake,
        // whole-region walks and clean-region credits. Budget 4 ends
        // one page before the first region's last mapped page, 5 at it
        // (a whole-region walk, so the page faulted in after wake 1
        // waits for pass 2), 6 one page after it.
        let expected = [
            (
                4,
                [4, 8, 11, 15, 19, 22, 26, 30, 33, 37, 41, 44],
                [0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4],
                1,
                5,
            ),
            (
                5,
                [5, 10, 10, 15, 20, 21, 26, 31, 32, 37, 42, 43],
                [0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4],
                3,
                5,
            ),
            (
                6,
                [6, 10, 16, 21, 27, 32, 38, 43, 49, 54, 60, 65],
                [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6],
                8,
                9,
            ),
        ];
        for (budget, scanned, passes, whole, credits) in expected {
            assert_eq!(
                run(budget),
                (scanned.to_vec(), passes.to_vec(), whole, credits),
                "budget {budget}"
            );
        }
    }

    /// The stable view comes out fingerprint-sorted, one entry per node.
    #[test]
    fn stable_frames_come_out_sorted() {
        let (mut mm, ..) = two_vm_setup(128);
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100));
        converge(&mut scanner, &mut mm, Tick(0), 8);
        assert_eq!(scanner.stats().pages_shared, 128);
        let fps: Vec<Fingerprint> = scanner.stable_frames().map(|(fp, _)| fp).collect();
        assert_eq!(fps.len(), 128);
        assert!(fps.windows(2).all(|w| w[0] < w[1]), "not sorted");
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

    /// The cap holds when one wake merges many duplicates into one
    /// chain: the overlay's refcount must count this wake's merges or
    /// the chain could overfill.
    #[test]
    fn cap_holds_against_same_wake_merges() {
        let mut mm = HostMm::new();
        let s = mm.create_space("vm");
        let r = mm.map_region(s, 64, MemTag::VmGuestMemory, true);
        for i in 0..64 {
            mm.write_page(s, r.offset(i), Fingerprint::of(&[7]), Tick(0));
        }
        let mut scanner = KsmScanner::new(KsmParams::new(1000, 100).with_max_page_sharing(4));
        for t in 1..10 {
            scanner.run(&mut mm, Tick(t));
        }
        for (_, frame) in mm.phys().iter() {
            assert!(frame.refcount() <= 4, "cap exceeded: {}", frame.refcount());
        }
        mm.assert_consistent();
    }
}
