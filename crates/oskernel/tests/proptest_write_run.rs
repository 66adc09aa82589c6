//! Differential property test of the run write path: two identical
//! worlds driven by one random op sequence, one writing each run with
//! [`GuestOs::write_run`] and the other with one
//! [`GuestOs::write_page`] per page, must stay identical in every
//! observable: PTEs, frames, refcounts, rmap order, counters, region
//! generations, guest page tables and the trace.

use mem::{Fingerprint, Tick, HUGE_PAGE_SPAN};
use oskernel::{GuestOs, OsImage, Pid};
use paging::{HostMm, MemTag, ThpPolicy, Vpn};
use proptest::prelude::*;

const GUESTS: usize = 2;
/// Guest memory: room for the kernel, both process regions and the
/// alignment gaps of huge fault-around.
const GUEST_MIB: f64 = 8.0;
/// The process regions: a heap that can hold two huge blocks (huge
/// fault-around under `madvise` only serves the heap) and a small
/// region that never can.
const REGIONS: [(usize, MemTag); 2] = [
    (2 * HUGE_PAGE_SPAN, MemTag::JavaHeap),
    (40, MemTag::OtherProcess),
];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Writes `len` pages of region `region` of guest `guest` as one
    /// run. `anchor` 0 starts the run at the region's first page, 1 ends
    /// it at the last page, anything else starts it at `start`.
    Run {
        guest: usize,
        region: usize,
        start: usize,
        len: usize,
        anchor: u8,
        content: u8,
    },
    /// KSM-merges every page of `region` in the other guest into the
    /// page at the same index in guest `into` where both are populated
    /// with equal content, so later runs break CoW mid-run.
    Merge { into: usize, region: usize },
    /// Releases one page (`madvise(DONTNEED)`), returning its gpfn to
    /// the free list so later faults take gpfns out of order.
    Release {
        guest: usize,
        region: usize,
        page: usize,
    },
    /// khugepaged on one 2 MiB block of a guest's memslot.
    Collapse { guest: usize, block: usize },
    /// Sets a guest's THP policy for later faults.
    Thp { guest: usize, policy: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..GUESTS, 0..REGIONS.len(), 0..2 * HUGE_PAGE_SPAN, 1..2 * HUGE_PAGE_SPAN, 0..4u8, any::<u8>())
            .prop_map(|(guest, region, start, len, anchor, content)| Op::Run {
                guest,
                region,
                start,
                len,
                anchor,
                content,
            }),
        3 => (0..GUESTS, 0..REGIONS.len()).prop_map(|(into, region)| Op::Merge { into, region }),
        2 => (0..GUESTS, 0..REGIONS.len(), 0..2 * HUGE_PAGE_SPAN)
            .prop_map(|(guest, region, page)| Op::Release { guest, region, page }),
        3 => (0..GUESTS, 0..3usize).prop_map(|(guest, block)| Op::Collapse { guest, block }),
        1 => (0..GUESTS, 0..3u8).prop_map(|(guest, policy)| Op::Thp { guest, policy }),
    ]
}

/// A narrow content universe keyed by the page's index in its region:
/// runs in both guests often write equal pages at equal indices, so
/// merges find duplicates and CoW breaks follow.
fn content(content: u8, page: u64) -> Fingerprint {
    Fingerprint::of(&[u64::from(content % 2), page % 4])
}

struct World {
    mm: HostMm,
    guests: Vec<(GuestOs, Pid, Vec<Vpn>)>,
}

impl World {
    fn new() -> World {
        let mut mm = HostMm::new();
        mm.tracer_mut().enable(None);
        let guests = (0..GUESTS)
            .map(|g| {
                let space = mm.create_space(format!("vm{g}"));
                let mut os = GuestOs::boot(
                    &mut mm,
                    space,
                    mem::mib_to_pages(GUEST_MIB),
                    &OsImage::tiny_test(),
                    g as u64 + 1,
                    Tick(0),
                );
                let pid = os.spawn("java");
                let bases = REGIONS
                    .iter()
                    .map(|&(pages, tag)| os.map_region(&mut mm, pid, pages, tag))
                    .collect();
                (os, pid, bases)
            })
            .collect();
        World { mm, guests }
    }

    fn apply(&mut self, op: Op, now: Tick, as_run: bool) {
        match op {
            Op::Run {
                guest,
                region,
                start,
                len,
                anchor,
                content: c,
            } => {
                let pages = REGIONS[region].0;
                let len = 1 + len % pages;
                let start = match anchor {
                    0 => 0,
                    1 => pages - len,
                    _ => start % (pages - len + 1),
                };
                let (os, pid, bases) = &mut self.guests[guest];
                let (start, base) = (start as u64, bases[region].offset(start as u64));
                if as_run {
                    os.write_run(&mut self.mm, *pid, base, len, now, |i| {
                        content(c, start + i)
                    });
                } else {
                    for i in 0..len as u64 {
                        let fp = content(c, start + i);
                        os.write_page(&mut self.mm, *pid, base.offset(i), fp, now);
                    }
                }
            }
            Op::Merge { into: a, region } => {
                let b = (a + 1) % GUESTS;
                for page in 0..REGIONS[region].0 as u64 {
                    let frame = |(os, pid, bases): &(GuestOs, Pid, Vec<Vpn>)| {
                        let gpfn = os.translate(*pid, bases[region].offset(page))?;
                        self.mm.frame_at(os.vm_space(), os.host_vpn(gpfn))
                    };
                    let (Some(canonical), Some(dup)) =
                        (frame(&self.guests[a]), frame(&self.guests[b]))
                    else {
                        continue;
                    };
                    let phys = self.mm.phys();
                    if canonical != dup && phys.fingerprint(canonical) == phys.fingerprint(dup) {
                        self.mm.merge_frames(dup, canonical);
                    }
                }
            }
            Op::Release {
                guest,
                region,
                page,
            } => {
                let (os, pid, bases) = &mut self.guests[guest];
                let vpn = bases[region].offset((page % REGIONS[region].0) as u64);
                os.release_page(&mut self.mm, *pid, vpn);
            }
            Op::Collapse { guest, block } => {
                let os = &self.guests[guest].0;
                let (space, memslot) = (os.vm_space(), os.host_vpn(0));
                self.mm.try_collapse(space, memslot, block);
            }
            Op::Thp { guest, policy } => {
                let policy =
                    [ThpPolicy::Never, ThpPolicy::Madvise, ThpPolicy::Always][usize::from(policy)];
                self.guests[guest].0.set_thp_policy(policy);
            }
        }
    }
}

/// Asserts that the two worlds are indistinguishable, draining both
/// tracers.
fn assert_same(run: &World, paged: &World) {
    let (a, b) = (&run.mm, &paged.mm);
    assert_eq!(a.epoch(), b.epoch(), "epoch");
    assert_eq!(a.cow_breaks(), b.cow_breaks(), "cow breaks");
    assert_eq!(a.huge_splits(), b.huge_splits(), "huge splits");
    assert_eq!(a.huge_collapses(), b.huge_collapses(), "huge collapses");
    let counters = |mm: &HostMm| {
        let phys = mm.phys();
        (
            phys.allocated_frames(),
            phys.total_allocs(),
            phys.total_frees(),
            phys.total_writes(),
        )
    };
    assert_eq!(counters(a), counters(b), "phys counters");
    for (sa, sb) in a.spaces().iter().zip(b.spaces()) {
        assert_eq!(
            sa.generation_signature(),
            sb.generation_signature(),
            "region generations of {}",
            sa.name()
        );
        for (ra, rb) in sa.regions().zip(sb.regions()) {
            assert_eq!(ra.base(), rb.base());
            let huge_a: Vec<usize> = ra.huge_block_indices().collect();
            let huge_b: Vec<usize> = rb.huge_block_indices().collect();
            assert_eq!(huge_a, huge_b, "huge blocks");
            assert!(ra.iter_mapped().eq(rb.iter_mapped()), "PTEs");
            for (vpn, frame) in ra.iter_mapped() {
                let (fa, fb) = (a.phys().frame(frame), b.phys().frame(frame));
                assert_eq!(fa.fingerprint(), fb.fingerprint(), "content at {vpn}");
                assert_eq!(fa.refcount(), fb.refcount(), "refcount at {vpn}");
                assert_eq!(fa.ksm_shared(), fb.ksm_shared(), "KSM flag at {vpn}");
                assert_eq!(a.mappers_of(frame), b.mappers_of(frame), "rmap order");
            }
        }
    }
    for ((oa, _, _), (ob, _, _)) in run.guests.iter().zip(&paged.guests) {
        assert_eq!(oa.gpfn_watermark(), ob.gpfn_watermark(), "watermark");
        assert_eq!(oa.free_gpfns(), ob.free_gpfns(), "free list");
        assert!(oa.huge_hint_blocks().eq(ob.huge_hint_blocks()), "hints");
        for ((pa, ga), (pb, gb)) in oa.contexts().zip(ob.contexts()) {
            assert_eq!(pa, pb);
            for (ra, rb) in ga.regions().zip(gb.regions()) {
                assert!(ra.iter_mapped().eq(rb.iter_mapped()), "guest PTEs");
            }
        }
    }
    assert_eq!(a.tracer().take_log(), b.tracer().take_log(), "trace");
    a.assert_consistent();
    b.assert_consistent();
}

fn check_runs_match_pages(ops: &[Op]) {
    let (mut run, mut paged) = (World::new(), World::new());
    assert_same(&run, &paged);
    for (t, &op) in ops.iter().enumerate() {
        let now = Tick(t as u64 + 1);
        run.apply(op, now, true);
        paged.apply(op, now, false);
        assert_same(&run, &paged);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn guest_runs_match_page_writes(ops in prop::collection::vec(op_strategy(), 8..40)) {
        check_runs_match_pages(&ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The same check over 4 096 cases, for `cargo test -- --ignored`
    /// (CI runs it).
    #[test]
    #[ignore = "4096 cases; CI runs it with -- --ignored"]
    fn guest_runs_match_page_writes_4096_cases(ops in prop::collection::vec(op_strategy(), 8..40)) {
        check_runs_match_pages(&ops);
    }
}
