//! Directed differential tests for the KSM wake's per-page judge: one
//! per outcome of the unstable-tree step's single map probe (a vacant
//! slot is filled; a huge-collapsed, unmapped or changed candidate is
//! replaced; the same page re-encountered is kept; equal content is
//! merged and the entry removed), plus the overlay check that skips a
//! frame merged away earlier in the same wake.
//!
//! Each test drives the real [`ksm::KsmScanner`] and the naive
//! [`audit::NaiveScanner`] oracle through the same operations on two
//! identical worlds and asserts identical frame tables, page tables and
//! statistics, plus the outcome that tells the arm apart from its
//! neighbours.

use audit::{frame_table, pte_table, stats_equivalent, NaiveScanner};
use ksm::{KsmParams, KsmScanner, KsmStats};
use mem::{Fingerprint, FrameId, Tick, HUGE_PAGE_SPAN};
use paging::{AsId, HostMm, MemTag, Vpn};

/// Content `X`, the duplicated page every test is about.
const X: u64 = 7;

fn content(c: u64) -> Fingerprint {
    Fingerprint::of(&[c])
}

/// Two identical worlds, one scanned by each scanner. Every space holds
/// one mergeable region, scanned in space order.
struct Pair {
    real: (HostMm, KsmScanner),
    oracle: (HostMm, NaiveScanner),
    regions: Vec<(AsId, Vpn)>,
    now: Tick,
}

impl Pair {
    /// One space per entry of `spaces`, its region holding those page
    /// contents, written at tick 0; `budget` pages are scanned per wake.
    fn new(budget: usize, spaces: &[&[u64]]) -> Pair {
        let build = || {
            let mut mm = HostMm::new();
            let mut regions = Vec::new();
            for (i, pages) in spaces.iter().enumerate() {
                let space = mm.create_space(format!("vm{i}"));
                let base = mm.map_region(space, pages.len(), MemTag::VmGuestMemory, true);
                for (p, &c) in pages.iter().enumerate() {
                    mm.write_page(space, base.offset(p as u64), content(c), Tick::ZERO);
                }
                regions.push((space, base));
            }
            (mm, regions)
        };
        let (real_mm, regions) = build();
        let (oracle_mm, _) = build();
        let params = KsmParams::new(budget, 100);
        Pair {
            real: (real_mm, KsmScanner::new(params)),
            oracle: (oracle_mm, NaiveScanner::new(params)),
            regions,
            now: Tick::ZERO,
        }
    }

    /// Applies `op` to both worlds.
    fn each(&mut self, op: impl Fn(&mut HostMm, &[(AsId, Vpn)])) {
        op(&mut self.real.0, &self.regions);
        op(&mut self.oracle.0, &self.regions);
    }

    fn write(&mut self, space: usize, page: u64, c: u64) {
        let now = self.now;
        self.each(|mm, r| mm.write_page(r[space].0, r[space].1.offset(page), content(c), now));
    }

    /// One scanner wake on both worlds; returns the real scanner's stats
    /// after checking the two worlds still agree.
    fn wake(&mut self) -> KsmStats {
        self.now = self.now.next();
        self.real.1.run(&mut self.real.0, self.now);
        self.oracle.1.run(&mut self.oracle.0, self.now);
        self.real.0.assert_consistent();
        let stats = self.real.1.stats();
        if let Err(diff) = stats_equivalent(stats, self.oracle.1.stats()) {
            panic!("scanner stats diverged from the oracle: {diff}");
        }
        assert_eq!(frame_table(&self.real.0), frame_table(&self.oracle.0));
        assert_eq!(pte_table(&self.real.0), pte_table(&self.oracle.0));
        stats
    }

    /// The frame behind page `page` of space `space` in the real world.
    fn frame(&self, space: usize, page: u64) -> Option<FrameId> {
        let (s, base) = self.regions[space];
        self.real.0.frame_at(s, base.offset(page))
    }
}

/// The first page with content `X` fills a vacant slot, and a duplicate
/// scanned on a later wake of the same pass finds it there.
#[test]
fn vacant_slot_is_filled_and_found_on_a_later_wake() {
    let mut pair = Pair::new(1, &[&[X], &[X]]);
    assert_eq!(pair.wake().merges, 0);
    assert_eq!(pair.wake().merges, 1);
    assert_eq!(pair.frame(1, 0), pair.frame(0, 0));
}

/// The candidate's block was collapsed to a huge page after insertion:
/// the entry is replaced by the scanned page, so a third copy merges
/// with that page instead.
#[test]
fn huge_collapsed_candidate_is_replaced() {
    let mut block: Vec<u64> = (0..HUGE_PAGE_SPAN as u64).map(|i| 1000 + i).collect();
    let last = HUGE_PAGE_SPAN as u64 - 1;
    block[last as usize] = X;
    let mut pair = Pair::new(HUGE_PAGE_SPAN, &[&block, &[X], &[X]]);
    assert_eq!(pair.wake().merges, 0);
    pair.each(|mm, r| assert!(mm.try_collapse(r[0].0, r[0].1, 0)));
    assert_eq!(pair.wake().merges, 1);
    assert_eq!(pair.frame(2, 0), pair.frame(1, 0));
    assert_ne!(pair.frame(0, last), pair.frame(1, 0));
}

/// The candidate's page was unmapped after insertion: the entry is
/// replaced, so a third copy merges with the scanned page.
#[test]
fn unmapped_candidate_is_replaced() {
    let mut pair = Pair::new(1, &[&[X], &[X], &[X]]);
    assert_eq!(pair.wake().merges, 0);
    pair.each(|mm, r| mm.unmap_page(r[0].0, r[0].1));
    assert_eq!(pair.wake().merges, 0);
    assert_eq!(pair.wake().merges, 1);
    assert_eq!(pair.frame(2, 0), pair.frame(1, 0));
}

/// The candidate's content changed after insertion (the unstable tree
/// holds no write protection): the entry is replaced, so a third copy
/// merges with the scanned page.
#[test]
fn changed_candidate_is_replaced() {
    let mut pair = Pair::new(1, &[&[X], &[X], &[X]]);
    assert_eq!(pair.wake().merges, 0);
    pair.write(0, 0, X + 1);
    assert_eq!(pair.wake().merges, 0);
    assert_eq!(pair.wake().merges, 1);
    assert_eq!(pair.frame(2, 0), pair.frame(1, 0));
    assert_ne!(pair.frame(0, 0), pair.frame(1, 0));
}

/// Two page-table entries share one frame outside KSM, as after a fork
/// (the simulated workloads never create this, so it is injected). The
/// second entry finds its own frame as the candidate and keeps the
/// entry rather than merging the frame into itself, which would panic;
/// a third copy then merges into the shared frame. (Keeping the entry
/// and re-pointing it at the second entry name the same frame, so no
/// outcome tells those two apart.)
#[test]
fn same_page_re_encountered_is_kept() {
    let mut pair = Pair::new(3, &[&[X], &[X], &[X]]);
    pair.each(|mm, r| {
        let shared = mm.frame_at(r[0].0, r[0].1).expect("page 0 mapped");
        let dup = mm.frame_at(r[1].0, r[1].1).expect("page 1 mapped");
        mm.merge_frames(dup, shared);
        mm.phys_mut().set_ksm_shared(shared, false);
    });
    let shared = pair.frame(0, 0);
    assert_eq!(pair.wake().merges, 1);
    assert_eq!(pair.frame(2, 0), shared);
    let frame = shared.expect("page 0 mapped");
    assert_eq!(pair.real.0.phys().refcount(frame), 3);
}

/// Equal content merges and the entry is removed. The proof is a page
/// that later misses the stable tree: the merged node went stale, and
/// the old candidate's page holds `X` again in a fresh frame. With the
/// entry removed the page only fills the vacant slot; with it left in
/// place the page would merge with the old candidate.
#[test]
fn equal_content_merges_and_removes_the_entry() {
    let mut pair = Pair::new(2, &[&[X], &[X], &[X]]);
    assert_eq!(pair.wake().merges, 1);
    assert_eq!(pair.frame(1, 0), pair.frame(0, 0));
    // Page 0 breaks CoW back to a private copy of X; page 1 then
    // overwrites the stable frame in place, leaving its node stale.
    pair.write(0, 0, X);
    pair.write(1, 0, X + 1);
    let stats = pair.wake();
    assert_eq!(stats.stale_stable_nodes, 1);
    assert_eq!(stats.merges, 1);
    assert_ne!(pair.frame(2, 0), pair.frame(0, 0));
}

/// Two page-table entries share one frame outside KSM (injected as in
/// `same_page_re_encountered_is_kept`), and their content already has
/// a stable node. Both fall in one wake: the first entry merges the
/// frame into the node; the second still maps that frame in the
/// wake-start state and must be skipped as already shared, because
/// merging the same frame twice would read it after it was freed.
#[test]
fn frame_merged_away_earlier_in_the_wake_is_skipped() {
    let mut pair = Pair::new(2, &[&[X], &[X], &[X], &[X]]);
    pair.each(|mm, r| {
        let shared = mm.frame_at(r[2].0, r[2].1).expect("page 2 mapped");
        let dup = mm.frame_at(r[3].0, r[3].1).expect("page 3 mapped");
        mm.merge_frames(dup, shared);
        mm.phys_mut().set_ksm_shared(shared, false);
    });
    // Wake 1 scans spaces 0 and 1 and makes their frame the node.
    assert_eq!(pair.wake().merges, 1);
    let node = pair.frame(0, 0);
    assert_eq!(pair.frame(1, 0), node);
    // Wake 2 scans spaces 2 and 3: one merge, not two.
    assert_eq!(pair.wake().merges, 2);
    assert_eq!(pair.frame(2, 0), node);
    assert_eq!(pair.frame(3, 0), node);
    let frame = node.expect("page 0 mapped");
    assert_eq!(pair.real.0.phys().refcount(frame), 4);
}
