//! Epoch-staleness property test for the incremental
//! [`analysis::SnapshotEngine`]: arbitrary interleavings of guest heap
//! writes, `madvise`-style releases, balloon inflations and KSM-style
//! merges are applied to one world, and after every operation the
//! persistent engine's incremental snapshot must be field-identical to
//! both a from-scratch rebuild and the naive reference walk.
//!
//! This is the harness that guards the engine's invalidation rule
//! (per-region write generations under an epoch short-circuit): any
//! mutation path that fails to dirty the spaces it touched shows up as
//! a stale cached segment diverging from the oracle.

use analysis::{GuestView, MemorySnapshot, SnapshotEngine};
use hypervisor::BalloonDriver;
use mem::{Fingerprint, Tick};
use oskernel::{GuestOs, OsImage, Pid};
use paging::{HostMm, MemTag, Vpn};
use proptest::prelude::*;

const GUESTS: usize = 2;
const NAMES: [&str; GUESTS] = ["vm1", "vm2"];
const HEAP_PAGES: u64 = 24;

/// Operations interleaved between snapshots.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Write `content` to heap page `page` of guest `guest`.
    Write {
        guest: usize,
        page: u64,
        content: u64,
    },
    /// `madvise(DONTNEED)` heap page `page` of guest `guest`.
    Madvise { guest: usize, page: u64 },
    /// Inflate a balloon targeting `pages` pages in guest `guest`.
    Balloon { guest: usize, pages: u64 },
    /// Write `content` to heap page `page` of *both* guests, then merge
    /// the two identical frames KSM-style (generation bump on the
    /// touched regions plus a stable flag in the frame pool).
    Merge { page: u64, content: u64 },
    /// Snapshot with no mutation: the epoch short-circuit must serve the
    /// whole world from cache and still match the oracle.
    Quiet,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..GUESTS, 0..HEAP_PAGES, 0..6u64).prop_map(|(guest, page, content)| Op::Write {
            guest,
            page,
            content
        }),
        (0..GUESTS, 0..HEAP_PAGES).prop_map(|(guest, page)| Op::Madvise { guest, page }),
        (0..GUESTS, 1..8u64).prop_map(|(guest, pages)| Op::Balloon { guest, pages }),
        (0..HEAP_PAGES, 1..6u64).prop_map(|(page, content)| Op::Merge { page, content }),
        Just(Op::Quiet),
    ]
}

/// A narrow content universe keeps CoW breaks and merge collisions
/// frequent; content 0 produces zero pages, which balloons reclaim.
fn content_fp(content: u64) -> Fingerprint {
    if content == 0 {
        Fingerprint::ZERO
    } else {
        Fingerprint::of(&[content % 6])
    }
}

struct GuestState {
    os: GuestOs,
    pid: Pid,
    heap: Vpn,
}

struct WorldState {
    mm: HostMm,
    guests: Vec<GuestState>,
}

impl WorldState {
    fn build() -> WorldState {
        let mut mm = HostMm::new();
        let mut guests = Vec::new();
        for (i, &name) in NAMES.iter().enumerate() {
            let space = mm.create_space(name);
            let mut os = GuestOs::boot(
                &mut mm,
                space,
                1024,
                &OsImage::tiny_test(),
                i as u64 + 1,
                Tick::ZERO,
            );
            let pid = os.spawn("java");
            let heap = os.add_region(pid, HEAP_PAGES as usize, MemTag::JavaHeap);
            for p in 0..HEAP_PAGES {
                os.write_page(&mut mm, pid, heap.offset(p), content_fp(p % 5), Tick::ZERO);
            }
            guests.push(GuestState { os, pid, heap });
        }
        WorldState { mm, guests }
    }

    fn heap_frame(&self, guest: usize, page: u64) -> Option<mem::FrameId> {
        let g = &self.guests[guest];
        let gpfn = g.os.translate(g.pid, g.heap.offset(page))?;
        self.mm.frame_at(g.os.vm_space(), g.os.host_vpn(gpfn))
    }

    fn apply(&mut self, op: Op, now: Tick) {
        match op {
            Op::Write {
                guest,
                page,
                content,
            } => {
                let g = &mut self.guests[guest];
                g.os.write_page(
                    &mut self.mm,
                    g.pid,
                    g.heap.offset(page),
                    content_fp(content),
                    now,
                );
            }
            Op::Madvise { guest, page } => {
                let g = &mut self.guests[guest];
                g.os.release_page(&mut self.mm, g.pid, g.heap.offset(page));
            }
            Op::Balloon { guest, pages } => {
                let g = &mut self.guests[guest];
                let target_mib = mem::pages_to_mib(pages as usize);
                BalloonDriver::new(target_mib).inflate(&mut self.mm, &mut g.os);
            }
            Op::Merge { page, content } => {
                for g in &mut self.guests {
                    g.os.write_page(
                        &mut self.mm,
                        g.pid,
                        g.heap.offset(page),
                        content_fp(content),
                        now,
                    );
                }
                let canonical = self.heap_frame(0, page);
                let dup = self.heap_frame(1, page);
                if let (Some(canonical), Some(dup)) = (canonical, dup) {
                    if canonical != dup {
                        self.mm.merge_frames(dup, canonical);
                    }
                }
            }
            Op::Quiet => {}
        }
    }

    fn views(&self) -> Vec<GuestView<'_>> {
        self.guests
            .iter()
            .enumerate()
            .map(|(i, g)| GuestView::new(NAMES[i], &g.os, vec![g.pid]))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_snapshot_matches_full_rebuild_and_naive(
        ops in prop::collection::vec(op_strategy(), 0..32),
    ) {
        let mut world = WorldState::build();
        let mut engine = SnapshotEngine::default();
        engine.snapshot(&world.mm, &world.views());

        for (t, &op) in (1u64..).zip(ops.iter()) {
            world.apply(op, Tick(t));
            let views = world.views();
            let incremental = engine.snapshot(&world.mm, &views);
            let rebuilt = SnapshotEngine::default().snapshot(&world.mm, &views);
            prop_assert_eq!(&incremental, &rebuilt, "incremental != full rebuild after {:?}", op);
            let naive = MemorySnapshot::collect_naive(&world.mm, &views);
            prop_assert_eq!(&incremental, &naive, "incremental != naive after {:?}", op);
        }
    }
}
