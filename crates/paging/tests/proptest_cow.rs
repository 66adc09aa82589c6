//! Property tests: random sequences of mapping operations preserve the
//! global copy-on-write invariants (refcount == rmap fan-in == PTE count),
//! and a run written with [`HostMm::write_run`] has exactly the effects
//! of one [`HostMm::write_page`] per page.

use mem::{Fingerprint, Tick, HUGE_PAGE_SPAN};
use paging::{AsId, HostMm, MemTag, Vpn};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Write fingerprint `content` to page `page` of space `space`.
    Write { space: u8, page: u16, content: u8 },
    /// Write `len` pages from page `page` of space `space` as one run,
    /// page `i` of the run with `content + i`; a `whole` run covers both
    /// regions of the space.
    WriteRun {
        space: u8,
        page: u16,
        len: u16,
        content: u8,
        whole: bool,
    },
    /// Unmap page `page` of space `space`.
    Unmap { space: u8, page: u16 },
    /// Attempt to KSM-merge `(space_a, page_a)` into `(space_b, page_b)`,
    /// skipped unless both are mapped, distinct, and content-equal.
    Merge {
        space_a: u8,
        page_a: u16,
        space_b: u8,
        page_b: u16,
    },
    /// [`Op::Merge`] at every page index of both regions, so runs over
    /// the merged pages break CoW in their middle.
    MergeAll { space_a: u8, space_b: u8 },
    /// Attempt to collapse the huge region of space `space` into one
    /// 2 MiB block.
    Collapse { space: u8 },
    /// Unmap the small region of space `space` and map a fresh, empty one
    /// at the same base, so its frames are freed and their ids reused.
    Remap { space: u8 },
}

const SPACES: u8 = 3;
/// Each space maps a small region of `PAGES` pages and, right after it,
/// a region of one huge block, so a run can cross from one into the
/// other.
const PAGES: u16 = 8;
const TOTAL: u16 = PAGES + HUGE_PAGE_SPAN as u16;

/// A page of either region, half the time in the small one, so that
/// single-page ops collide there often.
fn page_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![0..PAGES, PAGES..TOTAL]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SPACES, page_strategy(), any::<u8>()).prop_map(|(space, page, content)| Op::Write {
            space,
            page,
            content
        }),
        (
            0..SPACES,
            page_strategy(),
            1..2 * PAGES,
            any::<u8>(),
            0..4u8
        )
            .prop_map(|(space, page, len, content, whole)| Op::WriteRun {
                space,
                page,
                len,
                content,
                whole: whole == 0,
            }),
        (0..SPACES, page_strategy()).prop_map(|(space, page)| Op::Unmap { space, page }),
        (0..SPACES, page_strategy(), 0..SPACES, page_strategy()).prop_map(
            |(space_a, page_a, space_b, page_b)| {
                Op::Merge {
                    space_a,
                    page_a,
                    space_b,
                    page_b,
                }
            }
        ),
        (0..SPACES, 0..SPACES).prop_map(|(space_a, space_b)| Op::MergeAll { space_a, space_b }),
        (0..SPACES).prop_map(|space| Op::Collapse { space }),
        (0..SPACES).prop_map(|space| Op::Remap { space }),
    ]
}

/// Asserts that the world written in runs and its page-by-page shadow
/// are indistinguishable.
fn assert_same(mm: &HostMm, shadow: &HostMm) {
    assert_eq!(mm.epoch(), shadow.epoch(), "epoch");
    assert_eq!(mm.cow_breaks(), shadow.cow_breaks(), "cow breaks");
    assert_eq!(mm.huge_splits(), shadow.huge_splits(), "huge splits");
    assert_eq!(mm.huge_collapses(), shadow.huge_collapses(), "collapses");
    assert_eq!(mm.phys().total_writes(), shadow.phys().total_writes());
    for (sa, sb) in mm.spaces().iter().zip(shadow.spaces()) {
        assert_eq!(
            sa.generation_signature(),
            sb.generation_signature(),
            "region generations"
        );
        for (ra, rb) in sa.regions().zip(sb.regions()) {
            assert!(
                ra.huge_block_indices().eq(rb.huge_block_indices()),
                "huge blocks"
            );
            assert!(ra.iter_mapped().eq(rb.iter_mapped()), "PTEs");
            for (_, frame) in ra.iter_mapped() {
                let (a, b) = (mm.phys().frame(frame), shadow.phys().frame(frame));
                assert_eq!(a.fingerprint(), b.fingerprint());
                assert_eq!(a.refcount(), b.refcount());
                assert_eq!(mm.mappers_of(frame), shadow.mappers_of(frame), "rmap order");
            }
        }
    }
}

/// KSM-merges the page at `a` into the page at `b` in both worlds when
/// both are mapped, distinct, and content-equal.
fn merge(mm: &mut HostMm, shadow: &mut HostMm, a: (AsId, Vpn), b: (AsId, Vpn)) {
    let (fa, fb) = (mm.frame_at(a.0, a.1), mm.frame_at(b.0, b.1));
    if let (Some(fa), Some(fb)) = (fa, fb) {
        if fa != fb && mm.phys().fingerprint(fa) == mm.phys().fingerprint(fb) {
            let before = mm.phys().refcount(fb) + mm.phys().refcount(fa);
            for world in [&mut *mm, &mut *shadow] {
                world.merge_frames(fa, fb);
            }
            // Mapping count is conserved by a merge.
            assert_eq!(mm.phys().refcount(fb), before);
        }
    }
}

fn content_fp(content: u8) -> Fingerprint {
    // A narrow content universe makes merges and CoW breaks frequent.
    Fingerprint::of(&[u64::from(content % 4)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_ops_preserve_cow_invariants(ops in prop::collection::vec(op_strategy(), 1..120)) {
        // Every op is applied to both worlds; only a run differs, written
        // as one run in `mm` and page by page in `shadow`.
        let (mut mm, mut shadow) = (HostMm::new(), HostMm::new());
        let mut bases = Vec::new();
        for i in 0..SPACES {
            let mut s = None;
            for world in [&mut mm, &mut shadow] {
                let space = world.create_space(format!("s{i}"));
                let base = world.map_region(space, PAGES as usize, MemTag::VmGuestMemory, true);
                let huge = base.offset(u64::from(PAGES));
                world.map_region_at(space, huge, HUGE_PAGE_SPAN, MemTag::VmGuestMemory, true);
                s = Some((space, base));
            }
            bases.push(s.expect("two worlds"));
        }
        let addr = |space: u8, page: u16| {
            let (s, base) = bases[space as usize];
            (s, base.offset(u64::from(page)))
        };

        for (tick, op) in ops.iter().enumerate() {
            let now = Tick(tick as u64);
            match *op {
                Op::Write { space, page, content } => {
                    let (s, vpn) = addr(space, page);
                    for world in [&mut mm, &mut shadow] {
                        world.write_page(s, vpn, content_fp(content), now);
                    }
                    prop_assert_eq!(mm.fingerprint_at(s, vpn), Some(content_fp(content)));
                    // After a write the writer's frame is never shared.
                    let frame = mm.frame_at(s, vpn).unwrap();
                    prop_assert_eq!(mm.phys().refcount(frame), 1);
                }
                Op::WriteRun { space, page, len, content, whole } => {
                    let (page, len) = if whole { (0, TOTAL) } else { (page, len.min(TOTAL - page)) };
                    let (s, start) = addr(space, page);
                    let run = (0..u64::from(len))
                        .map(|i| (start.offset(i), content_fp(content.wrapping_add(i as u8))));
                    mm.write_run(s, now, run.clone());
                    for (vpn, fp) in run.clone() {
                        shadow.write_page(s, vpn, fp, now);
                    }
                    for (vpn, fp) in run {
                        prop_assert_eq!(mm.fingerprint_at(s, vpn), Some(fp));
                        prop_assert_eq!(mm.phys().refcount(mm.frame_at(s, vpn).unwrap()), 1);
                    }
                }
                Op::Unmap { space, page } => {
                    let (s, vpn) = addr(space, page);
                    for world in [&mut mm, &mut shadow] {
                        world.unmap_page(s, vpn);
                    }
                    prop_assert_eq!(mm.frame_at(s, vpn), None);
                }
                Op::Merge { space_a, page_a, space_b, page_b } => {
                    merge(&mut mm, &mut shadow, addr(space_a, page_a), addr(space_b, page_b));
                }
                Op::MergeAll { space_a, space_b } => {
                    for page in 0..TOTAL {
                        merge(&mut mm, &mut shadow, addr(space_a, page), addr(space_b, page));
                    }
                }
                Op::Collapse { space } => {
                    let (s, huge) = addr(space, PAGES);
                    for world in [&mut mm, &mut shadow] {
                        world.try_collapse(s, huge, 0);
                    }
                }
                Op::Remap { space } => {
                    let (s, base) = bases[space as usize];
                    for world in [&mut mm, &mut shadow] {
                        world.unmap_region(s, base);
                        world.map_region_at(s, base, PAGES as usize, MemTag::VmGuestMemory, true);
                    }
                    for page in 0..PAGES {
                        let (s, vpn) = addr(space, page);
                        prop_assert_eq!(mm.frame_at(s, vpn), None);
                    }
                }
            }
            mm.assert_consistent();
            assert_same(&mm, &shadow);
        }

        // Readback: every mapped page still translates, and fingerprints on
        // shared frames agree for all sharers.
        for &(s, base) in &bases {
            for p in 0..TOTAL {
                let vpn = base.offset(u64::from(p));
                if let Some(frame) = mm.frame_at(s, vpn) {
                    let fp = mm.phys().fingerprint(frame);
                    for m in mm.mappers_of(frame) {
                        prop_assert_eq!(mm.fingerprint_at(m.space, m.vpn), Some(fp));
                    }
                }
            }
        }
    }
}
