//! Directed differential tests for the KSM wake's per-page judge: one
//! per outcome of the unstable-tree step's single map probe (a vacant
//! slot is filled; a huge-collapsed, unmapped or changed candidate is
//! replaced; the same page re-encountered is kept; equal content is
//! merged and the entry removed), plus a page whose frame was merged
//! away earlier in the same wake, the sole-holder skip of the unstable
//! tree, and the stale stable node behind a sole holder that sends the
//! walk from its own verdict back to the judge.
//!
//! A sweep then maps, unmaps and writes pages of a region while the
//! cursor is in it or past it, before every wake of several passes at
//! several budgets: a page faulted into a hole behind the cursor must
//! wait for the next pass, and a page unmapped there must not shift
//! where the walk resumes, in a converged region as in any other.
//!
//! Each test drives the real [`ksm::KsmScanner`] and the naive
//! [`audit::NaiveScanner`] oracle through the same operations on two
//! identical worlds and asserts identical frame tables, page tables and
//! statistics after every wake, plus the outcome that tells the arm
//! apart from its neighbours.

use audit::{frame_table, pte_table, NaiveScanner};
use ksm::{KsmParams, KsmScanner, KsmStats};
use mem::{Fingerprint, FrameId, Tick, HUGE_PAGE_SPAN};
use paging::{AsId, HostMm, MemTag, Vpn};

/// Content `X`, the duplicated page every test is about.
const X: u64 = 7;

/// A page of [`Pair::new`]'s layout left unmapped.
const HOLE: u64 = u64::MAX;

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
    /// contents, written at tick 0 ([`HOLE`] leaves a page unmapped);
    /// `budget` pages are scanned per wake.
    fn new(budget: usize, spaces: &[&[u64]]) -> Pair {
        let build = || {
            let mut mm = HostMm::new();
            let mut regions = Vec::new();
            for (i, pages) in spaces.iter().enumerate() {
                let space = mm.create_space(format!("vm{i}"));
                let base = mm.map_region(space, pages.len(), MemTag::VmGuestMemory, true);
                for (p, &c) in pages.iter().enumerate() {
                    if c != HOLE {
                        mm.write_page(space, base.offset(p as u64), content(c), Tick::ZERO);
                    }
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
        self.wake_in("")
    }

    /// [`wake`](Self::wake), naming `case` in a divergence's message.
    fn wake_in(&mut self, case: &str) -> KsmStats {
        self.now = self.now.next();
        self.real.1.run(&mut self.real.0, self.now);
        self.oracle.1.run(&mut self.oracle.0, self.now);
        self.real.0.assert_consistent();
        let (stats, wake) = (self.real.1.stats(), self.now.0);
        assert_eq!(
            stats,
            self.oracle.1.stats(),
            "{case}stats after wake {wake}"
        );
        assert_eq!(
            frame_table(&self.real.0),
            frame_table(&self.oracle.0),
            "{case}frames after wake {wake}"
        );
        assert_eq!(
            pte_table(&self.real.0),
            pte_table(&self.oracle.0),
            "{case}PTEs after wake {wake}"
        );
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
/// frame into the node, which repoints both entries, so the walk meets
/// the node's frame at the second and passes it over as shared.
/// Merging the same frame twice would read it after it was freed.
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

/// A page whose frame is the only live holder of its content skips the
/// unstable tree. A second copy written later in the same pass, in
/// place over another page's frame, is volatile through the next pass;
/// once it has aged past the filter, the two pages merge on the same
/// wake as under the oracle, which has no such skip. Only the in-place
/// write tells the frame pool's sole-holder filter that the content has
/// a second holder: without it, both pages would skip the unstable tree
/// on every pass and never merge.
#[test]
fn sole_holder_skips_the_unstable_tree_and_a_later_copy_still_merges() {
    const Y: u64 = 1_000;
    let mut pair = Pair::new(1, &[&[X], &[Y]]);
    let first = pair.frame(0, 0).expect("page 0 mapped");
    let second = pair.frame(1, 0).expect("page 1 mapped");
    assert!(pair.real.0.phys().sole_holder(first));
    // Wake 1 judges page 0 alone: non-volatile and the sole holder of X.
    assert_eq!(pair.wake().merges, 0);
    pair.write(1, 0, X);
    assert_eq!(pair.frame(1, 0), Some(second), "written in place");
    assert!(!pair.real.0.phys().sole_holder(first));
    // Wake 2 finds the copy volatile, wake 3 ends the pass; the next
    // pass (wakes 4 to 6) still finds it volatile.
    for wake in 2..=7 {
        assert_eq!(pair.wake().merges, 0, "wake {wake}");
    }
    assert_eq!(pair.wake().merges, 1);
    assert_eq!(pair.frame(1, 0), Some(first));
}

/// A stable node goes stale behind a sole holder. Mid-pass, the second
/// sharer of a merged page breaks CoW away to other content, and the
/// canonical's own page rewrites `X` in place, which clears its KSM
/// mark: its frame is now the only live holder of `X` and has one PTE,
/// while the stable tree still names it. The walk reaches that page
/// before the pass ends, so the wake must drop the node there and count
/// it in `stale_stable_nodes`, as the oracle does; a pass-end recount
/// would drop it without counting.
#[test]
fn stale_node_behind_a_sole_holder_is_dropped_where_the_walk_meets_it() {
    const W: u64 = 1_000;
    let mut pair = Pair::new(1, &[&[W], &[X], &[X]]);
    // Pass 1: wake 2 puts page 1 in the unstable tree, wake 3 merges
    // page 2 into it, wake 4 ends the pass. Wake 5 scans space 0 only.
    for wake in 1..=5 {
        pair.wake();
        assert_eq!(
            pair.real.1.stats().merges,
            u64::from(wake >= 3),
            "wake {wake}"
        );
    }
    let canonical = pair.frame(1, 0).expect("page 1 mapped");
    assert_eq!(pair.frame(2, 0), Some(canonical));
    pair.write(2, 0, X + 1);
    pair.write(1, 0, X);
    let phys = pair.real.0.phys();
    assert_eq!(pair.frame(1, 0), Some(canonical), "written in place");
    assert!(!phys.is_ksm_shared(canonical));
    assert!(phys.sole_holder(canonical));
    assert!(pair
        .real
        .1
        .stable_frames()
        .any(|node| node == (content(X), canonical)));
    // Wake 6 reaches page 1 in the same pass.
    let stats = pair.wake();
    assert_eq!(stats.full_scans, 1);
    assert_eq!(stats.stale_stable_nodes, 1);
    assert!(pair.real.1.stable_frames().all(|(fp, _)| fp != content(X)));
}

/// One operation on the first region of the sweep below.
#[derive(Debug, Clone, Copy)]
enum Touch {
    /// A page faults into the leading hole just below the first mapped
    /// page, with content that has a stable node once the pair merged.
    Fault,
    /// The first mapped page is unmapped.
    Unmap,
    /// A mapped page is written with new content: a CoW break once it
    /// merged, an in-place write before.
    WriteNew,
    /// A mapped page is written back with the content it holds.
    WriteSame,
}

/// Pages mapped, unmapped and written while the cursor is in a region
/// or past it. The first region has two leading holes and six mapped
/// pages, the second space holds the same six contents, so the pair
/// merges in the first pass and every later pass walks two converged
/// regions. A case is a budget from 1 to 5, one operation and the wake,
/// from 1 to 79, before which it lands on the first region; each of the
/// case's 119 wakes is checked against the oracle.
#[test]
fn pages_mapped_or_unmapped_behind_the_cursor_match_the_oracle() {
    const FIRST: [u64; 8] = [HOLE, HOLE, 0, 1, 2, 3, 4, 5];
    const SECOND: [u64; 6] = [0, 1, 2, 3, 4, 5];
    const TOUCHES: [Touch; 4] = [
        Touch::Fault,
        Touch::Unmap,
        Touch::WriteNew,
        Touch::WriteSame,
    ];
    for budget in 1..=5 {
        for before in 1..=79 {
            for touch in TOUCHES {
                let case = format!("budget {budget}, {touch:?} before wake {before}: ");
                let mut pair = Pair::new(budget, &[&FIRST, &SECOND]);
                for wake in 1..=119 {
                    if wake == before {
                        match touch {
                            Touch::Fault => pair.write(0, 1, 0),
                            Touch::Unmap => {
                                pair.each(|mm, r| mm.unmap_page(r[0].0, r[0].1.offset(2)))
                            }
                            Touch::WriteNew => pair.write(0, 4, 100),
                            Touch::WriteSame => pair.write(0, 7, 5),
                        }
                    }
                    pair.wake_in(&case);
                }
            }
        }
    }
}

/// The smallest case of the sweep's unmaps, without holes: two spaces
/// of two pages each, one page per wake. The pair merges in the first
/// pass (wakes 1 to 5), and the second (wakes 6 to 10) finds both
/// regions fully merged. Wake 11 walks the first page of the first
/// region, and that page is then unmapped behind the cursor: wake 12
/// must walk the second page rather than step over it, so the pass
/// walks the second space on wakes 13 and 14 and ends on wake 15.
#[test]
fn page_unmapped_behind_the_cursor_of_a_converged_region_is_not_skipped_over() {
    let mut pair = Pair::new(1, &[&[0, 1], &[0, 1]]);
    for _ in 1..=11 {
        pair.wake();
    }
    assert_eq!(pair.real.1.stats().full_scans, 2);
    pair.each(|mm, r| mm.unmap_page(r[0].0, r[0].1));
    for _ in 12..=14 {
        assert_eq!(pair.wake().full_scans, 2);
    }
    assert_eq!(pair.wake().full_scans, 3);
}
