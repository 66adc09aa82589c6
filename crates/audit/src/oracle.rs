//! The differential oracle: a naive, obviously-correct KSM scanner.
//!
//! [`NaiveScanner`] re-implements the scanning semantics of
//! [`ksm::KsmScanner`] with none of its machinery: no judge-then-commit
//! overlay, no sole-holder filter and no slot loop. Every wake walks
//! pages one at a time, re-resolves the region on every page and
//! merges as it goes; only huge-page splits wait for the end of the
//! wake, where the real scanner's commit applies them too. It exists
//! so tests can drive the real scanner and the oracle over identical
//! operation sequences and assert that the resulting frame tables,
//! page tables and statistics are bit-identical: any divergence is a
//! bug in the real scanner.

use ksm::{KsmParams, KsmStats};
use mem::{Fingerprint, FrameId, Tick, HUGE_PAGE_SPAN};
use paging::{AsId, HostMm, Mapping, SplitReason, Vpn};
use std::collections::{BTreeMap, HashMap};

/// One mergeable region snapshotted into the pass scan list.
#[derive(Debug, Clone, Copy)]
struct ScanRegion {
    space: AsId,
    base: Vpn,
    id: u64,
    len: u64,
}

/// The reference scanner. Same wake cadence, scan budget, volatility
/// horizon, stable/unstable trees and sharing cap as the incremental
/// scanner — and O(n) everything.
#[derive(Debug)]
pub struct NaiveScanner {
    params: KsmParams,
    stable: BTreeMap<Fingerprint, FrameId>,
    unstable: HashMap<Fingerprint, Mapping>,
    scan_list: Vec<ScanRegion>,
    cursor_region: usize,
    cursor_page: u64,
    pass_start: Tick,
    prev_pass_start: Tick,
    first_pass_done: bool,
    /// Huge-page split requests collected during the wake's page walk
    /// and applied at the end of the wake, mirroring the incremental
    /// scanner's deferred commit. Idempotent per block.
    pending_splits: Vec<(AsId, Vpn, usize)>,
    stats: KsmStats,
}

enum Advance {
    Scanned(usize),
    PassComplete,
}

/// A page-table mutation decided while the region was borrowed.
enum PageAction {
    MergeStable {
        dup: FrameId,
        canonical: FrameId,
    },
    PromoteSplit {
        frame: FrameId,
        fp: Fingerprint,
    },
    MergeUnstable {
        dup: FrameId,
        canonical: FrameId,
        fp: Fingerprint,
    },
}

impl NaiveScanner {
    /// Creates an oracle scanner with the given tuning parameters.
    #[must_use]
    pub fn new(params: KsmParams) -> NaiveScanner {
        NaiveScanner {
            params,
            stable: BTreeMap::new(),
            unstable: HashMap::new(),
            scan_list: Vec::new(),
            cursor_region: 0,
            cursor_page: 0,
            pass_start: Tick::ZERO,
            prev_pass_start: Tick::ZERO,
            first_pass_done: false,
            pending_splits: Vec::new(),
            stats: KsmStats::default(),
        }
    }

    /// Retunes the scanner (mirrors [`ksm::KsmScanner::set_params`]).
    pub fn set_params(&mut self, params: KsmParams) {
        self.params = params;
    }

    /// Scanner counters.
    #[must_use]
    pub fn stats(&self) -> KsmStats {
        self.stats
    }

    /// The stable tree's `(fingerprint, frame)` entries.
    pub fn stable_frames(&self) -> impl Iterator<Item = (Fingerprint, FrameId)> + '_ {
        self.stable.iter().map(|(&fp, &frame)| (fp, frame))
    }

    /// Advances the oracle by one simulation tick.
    pub fn run(&mut self, mm: &mut HostMm, now: Tick) {
        if !now.0.is_multiple_of(self.params.ticks_per_wake()) {
            return;
        }
        if self.scan_list.is_empty() {
            self.begin_pass(mm, now);
            if self.scan_list.is_empty() {
                return;
            }
        }
        let budget = self.params.pages_to_scan();
        let mut scanned = 0;
        while scanned < budget {
            match self.advance(mm) {
                Advance::Scanned(n) => scanned += n,
                Advance::PassComplete => {
                    self.finish_pass(mm, now);
                    break;
                }
            }
        }
        // Apply the wake's huge-page splits after the walk, exactly where
        // the incremental scanner's commit phase applies its split ops.
        for (space, base, block) in std::mem::take(&mut self.pending_splits) {
            if mm.split_block(space, base, block, SplitReason::Ksm) {
                self.stats.thp_splits += 1;
            }
        }
        self.stats.pages_scanned += scanned as u64;
    }

    /// Recomputes `pages_shared` / `pages_sharing` from scratch,
    /// dropping stale stable-tree nodes.
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
        self.cursor_region = 0;
        self.cursor_page = 0;
        self.prev_pass_start = self.pass_start;
        self.pass_start = now;
    }

    fn finish_pass(&mut self, mm: &HostMm, now: Tick) {
        self.unstable.clear();
        self.stats.full_scans += 1;
        self.first_pass_done = true;
        self.recount(mm);
        self.begin_pass(mm, now);
    }

    /// Examines exactly one page (or performs one cursor transition).
    fn advance(&mut self, mm: &mut HostMm) -> Advance {
        let Some(&ScanRegion {
            space,
            base,
            id,
            len,
        }) = self.scan_list.get(self.cursor_region)
        else {
            return Advance::PassComplete;
        };
        if self.cursor_page >= len {
            self.cursor_region += 1;
            self.cursor_page = 0;
            return Advance::Scanned(0);
        }
        let index = self.cursor_page as usize;
        let vpn = base.offset(self.cursor_page);
        self.cursor_page += 1;
        // Re-resolve the region on every page: it may have been unmapped
        // (or replaced) mid-pass.
        let (frame, in_huge_block) = {
            let Some(region) = mm.space(space).region_at(base).filter(|r| r.id() == id) else {
                self.cursor_region += 1;
                self.cursor_page = 0;
                return Advance::Scanned(0);
            };
            (
                region.frame_at_index(index),
                region.is_huge_block(index / HUGE_PAGE_SPAN),
            )
        };
        let Some(frame) = frame else {
            return Advance::Scanned(0);
        };
        if in_huge_block {
            // Split-before-merge: a page under a 2 MiB mapping is not a
            // candidate; queue the split and move on.
            self.pending_splits
                .push((space, base, index / HUGE_PAGE_SPAN));
            return Advance::Scanned(1);
        }
        if mm.phys().is_ksm_shared(frame) {
            return Advance::Scanned(1);
        }
        if let Some(action) = self.classify(mm, Mapping { space, vpn }, frame) {
            self.apply(mm, action);
        }
        Advance::Scanned(1)
    }

    /// Same classification rules as the incremental scanner: stable
    /// lookup (with stale-node validation and the sharing cap), the
    /// volatility filter, then the unstable tree.
    fn classify(&mut self, mm: &HostMm, mapping: Mapping, frame: FrameId) -> Option<PageAction> {
        let fp = mm.phys().fingerprint(frame);

        if let Some(canonical) = self.stable_lookup(mm, fp) {
            if canonical == frame {
                return None;
            }
            if mm.phys().refcount(canonical) < self.params.max_page_sharing() {
                return Some(PageAction::MergeStable {
                    dup: frame,
                    canonical,
                });
            }
            return Some(PageAction::PromoteSplit { frame, fp });
        }

        let horizon = if self.first_pass_done {
            self.prev_pass_start
        } else {
            self.pass_start
        };
        if mm.phys().last_write(frame) >= horizon && horizon > Tick::ZERO {
            self.stats.volatile_skips += 1;
            return None;
        }

        match self.unstable.get(&fp) {
            Some(&candidate) => {
                // A candidate collapsed into a huge page since insertion
                // is no longer a merge target (same rule as the
                // incremental scanner's per-page judge).
                if mm
                    .space(candidate.space)
                    .region_containing(candidate.vpn)
                    .is_some_and(|r| r.is_huge_page(candidate.vpn))
                {
                    self.unstable.insert(fp, mapping);
                    return None;
                }
                let Some(other) = mm.frame_at(candidate.space, candidate.vpn) else {
                    self.unstable.insert(fp, mapping);
                    return None;
                };
                if other != frame && mm.phys().fingerprint(other) == fp {
                    return Some(PageAction::MergeUnstable {
                        dup: frame,
                        canonical: other,
                        fp,
                    });
                } else if other == frame {
                    // Same page re-encountered; leave the entry in place.
                } else {
                    self.unstable.insert(fp, mapping);
                }
            }
            None => {
                self.unstable.insert(fp, mapping);
            }
        }
        None
    }

    fn apply(&mut self, mm: &mut HostMm, action: PageAction) {
        match action {
            PageAction::MergeStable { dup, canonical } => {
                mm.merge_frames(dup, canonical);
                self.stats.merges += 1;
            }
            PageAction::PromoteSplit { frame, fp } => {
                mm.mark_ksm_stable(frame);
                self.stable.insert(fp, frame);
                self.stats.chain_splits += 1;
            }
            PageAction::MergeUnstable { dup, canonical, fp } => {
                mm.merge_frames(dup, canonical);
                self.stable.insert(fp, canonical);
                self.unstable.remove(&fp);
                self.stats.merges += 1;
            }
        }
    }

    fn stable_lookup(&mut self, mm: &HostMm, fp: Fingerprint) -> Option<FrameId> {
        let &frame = self.stable.get(&fp)?;
        let phys = mm.phys();
        if phys.is_live(frame) && phys.is_ksm_shared(frame) && phys.fingerprint(frame) == fp {
            Some(frame)
        } else {
            self.stable.remove(&fp);
            self.stats.stale_stable_nodes += 1;
            None
        }
    }
}
