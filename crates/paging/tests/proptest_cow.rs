//! Property tests: random sequences of mapping operations preserve the
//! global copy-on-write invariants (refcount == rmap fan-in == PTE count).

use mem::{Fingerprint, Tick};
use paging::{HostMm, MemTag, Vpn};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Write fingerprint `content` to page `page` of space `space`.
    Write { space: u8, page: u8, content: u8 },
    /// Unmap page `page` of space `space`.
    Unmap { space: u8, page: u8 },
    /// Attempt to KSM-merge `(space_a, page_a)` into `(space_b, page_b)`,
    /// skipped unless both are mapped, distinct, and content-equal.
    Merge {
        space_a: u8,
        page_a: u8,
        space_b: u8,
        page_b: u8,
    },
    /// Unmap the whole region of space `space` and map a fresh, empty one
    /// at the same base, so its frames are freed and their ids reused.
    Remap { space: u8 },
}

const SPACES: u8 = 3;
const PAGES: u8 = 8;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SPACES, 0..PAGES, any::<u8>()).prop_map(|(space, page, content)| Op::Write {
            space,
            page,
            content
        }),
        (0..SPACES, 0..PAGES).prop_map(|(space, page)| Op::Unmap { space, page }),
        (0..SPACES, 0..PAGES, 0..SPACES, 0..PAGES).prop_map(
            |(space_a, page_a, space_b, page_b)| {
                Op::Merge {
                    space_a,
                    page_a,
                    space_b,
                    page_b,
                }
            }
        ),
        (0..SPACES).prop_map(|space| Op::Remap { space }),
    ]
}

fn content_fp(content: u8) -> Fingerprint {
    // A narrow content universe makes merges and CoW breaks frequent.
    Fingerprint::of(&[u64::from(content % 4)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_ops_preserve_cow_invariants(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut mm = HostMm::new();
        let mut bases = Vec::new();
        for i in 0..SPACES {
            let s = mm.create_space(format!("s{i}"));
            let base = mm.map_region(s, PAGES as usize, MemTag::VmGuestMemory, true);
            bases.push((s, base));
        }
        let addr = |space: u8, page: u8| {
            let (s, base) = bases[space as usize];
            (s, Vpn(base.0 + u64::from(page)))
        };

        for (tick, op) in ops.iter().enumerate() {
            let now = Tick(tick as u64);
            match *op {
                Op::Write { space, page, content } => {
                    let (s, vpn) = addr(space, page);
                    mm.write_page(s, vpn, content_fp(content), now);
                    prop_assert_eq!(mm.fingerprint_at(s, vpn), Some(content_fp(content)));
                    // After a write the writer's frame is never shared.
                    let frame = mm.frame_at(s, vpn).unwrap();
                    prop_assert_eq!(mm.phys().refcount(frame), 1);
                }
                Op::Unmap { space, page } => {
                    let (s, vpn) = addr(space, page);
                    mm.unmap_page(s, vpn);
                    prop_assert_eq!(mm.frame_at(s, vpn), None);
                }
                Op::Merge { space_a, page_a, space_b, page_b } => {
                    let (sa, va) = addr(space_a, page_a);
                    let (sb, vb) = addr(space_b, page_b);
                    let (fa, fb) = (mm.frame_at(sa, va), mm.frame_at(sb, vb));
                    if let (Some(fa), Some(fb)) = (fa, fb) {
                        if fa != fb && mm.phys().fingerprint(fa) == mm.phys().fingerprint(fb) {
                            let before = mm.phys().refcount(fb) + mm.phys().refcount(fa);
                            mm.merge_frames(fa, fb);
                            // Mapping count is conserved by a merge.
                            prop_assert_eq!(mm.phys().refcount(fb), before);
                        }
                    }
                }
                Op::Remap { space } => {
                    let (s, base) = bases[space as usize];
                    mm.unmap_region(s, base);
                    mm.map_region_at(s, base, PAGES as usize, MemTag::VmGuestMemory, true);
                    for page in 0..PAGES {
                        let (s, vpn) = addr(space, page);
                        prop_assert_eq!(mm.frame_at(s, vpn), None);
                    }
                }
            }
            mm.assert_consistent();
        }

        // Readback: every mapped page still translates, and fingerprints on
        // shared frames agree for all sharers.
        for &(s, base) in &bases {
            for p in 0..PAGES {
                let vpn = Vpn(base.0 + u64::from(p));
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
