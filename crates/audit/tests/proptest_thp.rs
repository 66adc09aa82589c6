//! Huge-frame differential property test: arbitrary interleavings of
//! guest writes, `madvise` releases, balloon inflations and explicit
//! 2 MiB promotions/demotions — under every THP policy — applied
//! identically to two worlds, one scanned by the incremental
//! [`ksm::KsmScanner`] and one by the naive [`audit::NaiveScanner`]
//! oracle. The two must converge to bit-identical physical state and
//! identical statistics (including the `thp_splits` counter), and the
//! incrementally scanned world must pass the full cross-layer
//! conservation audit — whose huge-frame invariants (512 resident
//! subframes per huge block, no merged page under a live huge mapping)
//! are what the promote/demote churn is trying to break.
//!
//! This extends `proptest_differential.rs` with the frame-size axis:
//! the ops here run at block granularity against guests large enough to
//! hold several 2 MiB blocks, so KSM-split latching, collapse
//! eligibility (full population, no shared subframes) and the
//! madvise/balloon demote paths all engage. It is the one differential
//! check where merges land in the middle of a wake while KSM's huge-page
//! splits wait for its end, so an ignored 4,096-case copy runs in CI.

use analysis::GuestView;
use audit::{check_world, frame_table, pte_table, NaiveScanner, World};
use hypervisor::BalloonDriver;
use ksm::{KsmParams, KsmScanner};
use mem::{Fingerprint, Tick, HUGE_PAGE_SPAN};
use oskernel::{GuestOs, OsImage, Pid};
use paging::{AsId, HostMm, MemTag, SplitReason, ThpPolicy, Vpn};
use proptest::prelude::*;

const GUESTS: usize = 2;
const NAMES: [&str; GUESTS] = ["vm1", "vm2"];
/// Two full 2 MiB blocks of heap per guest, so an aligned block is
/// always fully populated and collapse can genuinely succeed.
const HEAP_PAGES: u64 = 2 * HUGE_PAGE_SPAN as u64;
/// Guest memory: heap plus kernel image headroom.
const GUEST_PAGES: usize = 4 * HUGE_PAGE_SPAN;

/// Operations a guest or the host MM can perform between scanner wakes.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Write `content` to heap page `page` of guest `guest`.
    Write {
        guest: usize,
        page: u64,
        content: u64,
    },
    /// `madvise(DONTNEED)` heap page `page` of guest `guest` — demotes
    /// the containing huge block if one is live.
    Madvise { guest: usize, page: u64 },
    /// Inflate a balloon targeting `pages` pages in guest `guest`.
    Balloon { guest: usize, pages: u64 },
    /// khugepaged-style promotion attempt on memslot block `block`.
    Collapse { guest: usize, block: usize },
    /// Forced demotion of memslot block `block` (no KSM latch, so a
    /// later `Collapse` may re-promote it).
    Split { guest: usize, block: usize },
    /// Let a scanner wake pass with no mutation.
    Quiet,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let blocks = GUEST_PAGES / HUGE_PAGE_SPAN;
    prop_oneof![
        (0..GUESTS, 0..HEAP_PAGES, 0..6u64).prop_map(|(guest, page, content)| Op::Write {
            guest,
            page,
            content
        }),
        (0..GUESTS, 0..HEAP_PAGES).prop_map(|(guest, page)| Op::Madvise { guest, page }),
        (0..GUESTS, 1..64u64).prop_map(|(guest, pages)| Op::Balloon { guest, pages }),
        (0..GUESTS, 0..blocks).prop_map(|(guest, block)| Op::Collapse { guest, block }),
        (0..GUESTS, 0..blocks).prop_map(|(guest, block)| Op::Split { guest, block }),
        Just(Op::Quiet),
    ]
}

fn policy_strategy() -> impl Strategy<Value = ThpPolicy> {
    prop_oneof![
        Just(ThpPolicy::Never),
        Just(ThpPolicy::Madvise),
        Just(ThpPolicy::Always),
    ]
}

/// A narrow content universe keeps merges and CoW breaks frequent;
/// content 0 produces zero pages, which is what balloons reclaim.
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
    space: AsId,
    slot_base: Vpn,
}

struct WorldState {
    mm: HostMm,
    guests: Vec<GuestState>,
}

impl WorldState {
    /// Two booted guests under `policy`, each with a java process whose
    /// heap spans two 2 MiB blocks of duplicate-heavy content.
    fn build(policy: ThpPolicy) -> WorldState {
        let mut mm = HostMm::new();
        let mut guests = Vec::new();
        for (i, &name) in NAMES.iter().enumerate() {
            let space = mm.create_space(name);
            let mut os = GuestOs::boot(
                &mut mm,
                space,
                GUEST_PAGES,
                &OsImage::tiny_test(),
                i as u64 + 1,
                Tick::ZERO,
            );
            os.set_thp_policy(policy);
            let pid = os.spawn("java");
            let heap = os.add_region(pid, HEAP_PAGES as usize, MemTag::JavaHeap);
            for p in 0..HEAP_PAGES {
                os.write_page(&mut mm, pid, heap.offset(p), content_fp(p % 5), Tick::ZERO);
            }
            let slot_base = mm
                .spaces()
                .iter()
                .find(|s| s.id() == space)
                .and_then(|s| s.regions().next())
                .map(|r| r.base())
                .expect("guest memslot region exists");
            guests.push(GuestState {
                os,
                pid,
                heap,
                space,
                slot_base,
            });
        }
        WorldState { mm, guests }
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
            Op::Collapse { guest, block } => {
                let g = &self.guests[guest];
                self.mm.try_collapse(g.space, g.slot_base, block);
            }
            Op::Split { guest, block } => {
                let g = &self.guests[guest];
                self.mm
                    .split_block(g.space, g.slot_base, block, SplitReason::Madvise);
            }
            Op::Quiet => {}
        }
    }

    /// Number of live huge blocks across all guests.
    fn huge_blocks(&self) -> usize {
        self.mm
            .spaces()
            .iter()
            .flat_map(|s| s.regions())
            .map(|r| r.huge_blocks())
            .sum()
    }
}

/// Applies `ops` to two identical worlds under `policy`, one op and one
/// wake of each scanner at a time, then lets both settle, and checks
/// that the incremental scanner reached the oracle's physical state,
/// statistics and huge-block count and that its world passes the
/// huge-frame conservation audit.
fn check_against_oracle(policy: ThpPolicy, ops: &[Op], budget: usize) {
    let params = KsmParams::new(budget, 100);
    let mut a = WorldState::build(policy);
    let mut b = WorldState::build(policy);
    let mut incremental = KsmScanner::new(params);
    let mut naive = NaiveScanner::new(params);

    let mut t = 1u64;
    for &op in ops {
        a.apply(op, Tick(t));
        b.apply(op, Tick(t));
        incremental.run(&mut a.mm, Tick(t));
        naive.run(&mut b.mm, Tick(t));
        t += 1;
    }
    // Idle settle: any huge block the cursor reaches is split and
    // latched identically in both worlds.
    for _ in 0..12 {
        incremental.run(&mut a.mm, Tick(t));
        naive.run(&mut b.mm, Tick(t));
        t += 1;
    }

    incremental.recount(&a.mm);
    naive.recount(&b.mm);
    assert_eq!(incremental.stats(), naive.stats(), "scanner stats");
    assert_eq!(a.huge_blocks(), b.huge_blocks(), "huge blocks");
    assert_eq!(frame_table(&a.mm), frame_table(&b.mm));
    assert_eq!(pte_table(&a.mm), pte_table(&b.mm));

    let views: Vec<GuestView<'_>> = a
        .guests
        .iter()
        .enumerate()
        .map(|(i, g)| GuestView::new(NAMES[i], &g.os, vec![g.pid]))
        .collect();
    let world = World {
        mm: &a.mm,
        guests: views,
        scanner: Some(&incremental),
    };
    if let Err(violation) = check_world(&world) {
        panic!("audit failed after op sequence under thp={policy}: {violation}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random block-granular interleavings under a random THP policy:
    /// the incremental scanner matches the naive oracle bit-for-bit and
    /// the world passes the huge-frame conservation audit.
    #[test]
    fn huge_frame_interleavings_match_oracle_and_audit(
        policy in policy_strategy(),
        ops in prop::collection::vec(op_strategy(), 0..24),
        budget in 200usize..1200,
    ) {
        check_against_oracle(policy, &ops, budget);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The same check over 4 096 cases: seconds in a release build, so
    /// `cargo test --release -- --ignored` runs it (CI does).
    #[test]
    #[ignore = "4096 cases; CI runs it with --release -- --ignored"]
    fn huge_frame_interleavings_match_oracle_and_audit_4096_cases(
        policy in policy_strategy(),
        ops in prop::collection::vec(op_strategy(), 0..24),
        budget in 200usize..1200,
    ) {
        check_against_oracle(policy, &ops, budget);
    }
}
