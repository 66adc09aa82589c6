//! Differential property test: arbitrary interleavings of guest
//! writes, rewrites of a page's own content, `madvise`-style page
//! releases and balloon inflations are applied identically to two
//! worlds — one scanned by the real incremental [`ksm::KsmScanner`],
//! one by the naive [`audit::NaiveScanner`] oracle — and the two must
//! converge to bit-identical physical state and identical statistics.
//!
//! This is the harness that guards the incremental scanner's machinery
//! (the slot loop that leaves and re-enters a region at every merge,
//! the sole-holder skip of the unstable tree and the walk's own verdict
//! on sole holders, with its fall-back to the full judge when a stale
//! stable node names the page's content): any divergence it introduces
//! shows up as a frame-table, PTE-table or stats mismatch against the
//! oracle. The incrementally scanned world must additionally pass the
//! full conservation audit.

use analysis::GuestView;
use audit::{check_world, frame_table, pte_table, NaiveScanner, World};
use hypervisor::BalloonDriver;
use ksm::{KsmParams, KsmScanner};
use mem::{Fingerprint, Tick};
use oskernel::{GuestOs, OsImage, Pid};
use paging::{HostMm, MemTag, Vpn};
use proptest::prelude::*;

const GUESTS: usize = 2;
const NAMES: [&str; GUESTS] = ["vm1", "vm2"];
const HEAP_PAGES: u64 = 32;

/// Operations a guest workload can perform between scanner wakes.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Write `content` to heap page `page` of guest `guest`.
    Write {
        guest: usize,
        page: u64,
        content: u64,
    },
    /// Write content `content` of a wide universe, disjoint from the
    /// narrow one, to heap page `page` of guest `guest`: such pages are
    /// mostly the only holders of their content.
    WriteWide {
        guest: usize,
        page: u64,
        content: u64,
    },
    /// Write heap page `page` of guest `guest` back with the content it
    /// already holds, if it is mapped. A frame with one PTE is written
    /// in place, which clears its KSM mark: a merged page whose sharers
    /// have all broken away leaves a stale stable node behind a sole
    /// holder.
    Rewrite { guest: usize, page: u64 },
    /// `madvise(DONTNEED)` heap page `page` of guest `guest`.
    Madvise { guest: usize, page: u64 },
    /// Inflate a balloon targeting `pages` pages in guest `guest`.
    Balloon { guest: usize, pages: u64 },
    /// Let a scanner wake pass with no mutation.
    Quiet,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..GUESTS, 0..HEAP_PAGES, 0..6u64).prop_map(|(guest, page, content)| Op::Write {
            guest,
            page,
            content
        }),
        (0..GUESTS, 0..HEAP_PAGES, 0..1024u64).prop_map(|(guest, page, content)| {
            Op::WriteWide {
                guest,
                page,
                content,
            }
        }),
        (0..GUESTS, 0..HEAP_PAGES).prop_map(|(guest, page)| Op::Rewrite { guest, page }),
        (0..GUESTS, 0..HEAP_PAGES).prop_map(|(guest, page)| Op::Madvise { guest, page }),
        (0..GUESTS, 1..8u64).prop_map(|(guest, pages)| Op::Balloon { guest, pages }),
        Just(Op::Quiet),
    ]
}

/// The first token of every wide-universe content.
const WIDE: u64 = 1 << 40;

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
}

struct WorldState {
    mm: HostMm,
    guests: Vec<GuestState>,
}

impl WorldState {
    /// Two booted guests, each with a java process whose heap starts
    /// full of duplicate-heavy content.
    fn build() -> WorldState {
        let mut mm = HostMm::new();
        let mut guests = Vec::new();
        for (i, &name) in NAMES.iter().enumerate() {
            let space = mm.create_space(name);
            let mut os = GuestOs::boot(
                &mut mm,
                space,
                2048,
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
            Op::WriteWide {
                guest,
                page,
                content,
            } => {
                let g = &mut self.guests[guest];
                g.os.write_page(
                    &mut self.mm,
                    g.pid,
                    g.heap.offset(page),
                    Fingerprint::of(&[WIDE, content]),
                    now,
                );
            }
            Op::Rewrite { guest, page } => {
                let g = &mut self.guests[guest];
                let vpn = g.heap.offset(page);
                if let Some(fp) = g.os.fingerprint_at(&self.mm, g.pid, vpn) {
                    g.os.write_page(&mut self.mm, g.pid, vpn, fp, now);
                }
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
            Op::Quiet => {}
        }
    }
}

/// Applies `ops` to two identical worlds, one op and one wake of each
/// scanner at a time, then lets both settle, and checks that the
/// incremental scanner reached the oracle's physical state and
/// statistics and that its world passes the conservation audit.
fn check_against_oracle(ops: &[Op], budget: usize) {
    let params = KsmParams::new(budget, 100);
    let mut a = WorldState::build();
    let mut b = WorldState::build();
    let mut incremental = KsmScanner::new(params);
    let mut naive = NaiveScanner::new(params);

    // Interleave: one op, then one scanner wake, on both worlds.
    let mut t = 1u64;
    for &op in ops {
        a.apply(op, Tick(t));
        b.apply(op, Tick(t));
        incremental.run(&mut a.mm, Tick(t));
        naive.run(&mut b.mm, Tick(t));
        t += 1;
    }
    // Let both scanners settle over an idle stretch, so converged
    // regions are walked pass after pass with no write between.
    for _ in 0..32 {
        incremental.run(&mut a.mm, Tick(t));
        naive.run(&mut b.mm, Tick(t));
        t += 1;
    }

    incremental.recount(&a.mm);
    naive.recount(&b.mm);
    assert_eq!(incremental.stats(), naive.stats(), "scanner stats");
    assert_eq!(frame_table(&a.mm), frame_table(&b.mm));
    assert_eq!(pte_table(&a.mm), pte_table(&b.mm));

    // The incrementally scanned world also passes the full
    // cross-layer conservation audit.
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
        panic!("audit failed after op sequence: {violation}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random budgets matter: a budget smaller than the mergeable span
    /// makes wakes mix whole-region walks with budget-crossing walks
    /// that stop mid-region.
    #[test]
    fn incremental_scanner_matches_naive_oracle(
        ops in prop::collection::vec(op_strategy(), 0..48),
        budget in 8usize..96,
    ) {
        check_against_oracle(&ops, budget);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The same check over 4 096 cases: about a minute in a debug
    /// build, so `cargo test -- --ignored` runs it (CI does).
    #[test]
    #[ignore = "4096 cases; CI runs it with -- --ignored"]
    fn incremental_scanner_matches_naive_oracle_4096_cases(
        ops in prop::collection::vec(op_strategy(), 0..48),
        budget in 8usize..96,
    ) {
        check_against_oracle(&ops, budget);
    }
}
