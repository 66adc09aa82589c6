//! Cross-layer memory-accounting auditor and differential oracle.
//!
//! The paper's measurements (§II) attribute every host page frame to
//! exactly one component by walking three translation layers — guest
//! process page tables → KVM memslot → host page tables. This crate
//! re-verifies that attribution *independently of the code that
//! computes it*:
//!
//! * [`check_world`] walks the layers from first principles and checks
//!   the conservation invariants (see [`check`] for the full list),
//!   returning a structured [`Violation`] naming the layer, the frame
//!   or page involved, and the expected/actual values.
//! * [`NaiveScanner`] is a from-scratch re-implementation of the KSM
//!   scanning semantics with none of the real scanner's machinery; test
//!   harnesses drive it and the real scanner over identical operation
//!   sequences and assert bit-identical outcomes: equal
//!   [`ksm::KsmStats`], [`frame_table`]s and [`pte_table`]s.
//!
//! The experiment runner (`tpslab::Experiment`) invokes [`check_world`]
//! at every timeline sample and at the end of every run when built with
//! debug assertions or when the config's `audit` flag (CLI `--audit`)
//! is set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod oracle;

pub use check::{check_world, frame_table, pte_table, AuditReport, Layer, Violation, World};
pub use oracle::NaiveScanner;

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::GuestView;
    use ksm::{KsmParams, KsmScanner};
    use mem::{Fingerprint, Tick, HUGE_PAGE_SPAN};
    use oskernel::{GuestOs, OsImage};
    use paging::{HostMm, MemTag};

    /// One booted guest with a "java" process that wrote `pages` pages.
    fn small_world() -> (HostMm, GuestOs, oskernel::Pid) {
        let mut mm = HostMm::new();
        let space = mm.create_space("vm1");
        let mut os = GuestOs::boot(&mut mm, space, 2048, &OsImage::tiny_test(), 1, Tick::ZERO);
        let pid = os.spawn("java");
        let r = os.add_region(pid, 16, MemTag::JavaHeap);
        for p in 0..16 {
            os.write_page(
                &mut mm,
                pid,
                r.offset(p),
                Fingerprint::of(&[p % 4]),
                Tick(1),
            );
        }
        (mm, os, pid)
    }

    #[test]
    fn clean_world_passes() {
        let (mm, os, pid) = small_world();
        let world = World {
            mm: &mm,
            guests: vec![GuestView::new("vm1", &os, vec![pid])],
            scanner: None,
        };
        let report = check_world(&world).expect("clean world must audit clean");
        assert!(report.frames > 16);
        assert_eq!(report.host_ptes, report.guest_ptes);
        assert!(report.attributed_mib > 0.0);
    }

    #[test]
    fn merged_world_passes_with_scanner() {
        let (mut mm, mut os, pid) = small_world();
        let mut scanner = KsmScanner::new(KsmParams::new(100_000, 100));
        for t in 2..10 {
            scanner.run(&mut mm, Tick(t));
        }
        scanner.recount(&mm);
        assert!(scanner.stats().pages_sharing > 0);
        // Release a page too, so the free-list invariant is exercised.
        let r = os.add_region(pid, 1, MemTag::JavaHeap);
        os.write_page(&mut mm, pid, r, Fingerprint::of(&[99]), Tick(10));
        assert!(os.release_page(&mut mm, pid, r));
        scanner.recount(&mm);
        let world = World {
            mm: &mm,
            guests: vec![GuestView::new("vm1", &os, vec![pid])],
            scanner: Some(&scanner),
        };
        let report = check_world(&world).expect("merged world must audit clean");
        assert!(report.stable_nodes > 0);
        assert!(report.empty_gpfns > 0);
    }

    #[test]
    fn violations_name_their_layer() {
        let v = Violation::LeakedFrame {
            frame: mem::FrameId::from_index(3),
            refcount: 1,
        };
        assert_eq!(v.layer(), Layer::Host);
        assert!(v.to_string().contains("host layer"));
        let v = Violation::KsmStatsMismatch {
            field: "pages_sharing",
            expected: 4,
            actual: 5,
        };
        assert_eq!(v.layer(), Layer::Ksm);
        assert!(v.to_string().contains("pages_sharing"));
        let v = Violation::BreakdownDivergence { what: "javas" };
        assert_eq!(v.layer(), Layer::Attribution);
        assert!(v.to_string().contains("attribution layer"));
    }

    /// One booted guest whose "java" process fills enough pages that the
    /// first two 512-page blocks of the memslot are fully populated, with
    /// block 0 collapsed to a huge frame.
    fn huge_world() -> (HostMm, GuestOs, oskernel::Pid) {
        let mut mm = HostMm::new();
        let space = mm.create_space("vm1");
        let mut os = GuestOs::boot(&mut mm, space, 2048, &OsImage::tiny_test(), 1, Tick::ZERO);
        let pid = os.spawn("java");
        let r = os.add_region(pid, 1024, MemTag::JavaHeap);
        for p in 0..1024 {
            os.write_page(
                &mut mm,
                pid,
                r.offset(p),
                Fingerprint::of(&[7000 + p]),
                Tick(1),
            );
        }
        assert!(mm.try_collapse(space, os.host_vpn(0), 0));
        (mm, os, pid)
    }

    /// A tiny deterministic generator for the fault-injection offsets, so
    /// the torn subframe differs between violation classes but every run
    /// tears the same pages.
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        *seed >> 33
    }

    #[test]
    fn intact_huge_block_audits_clean() {
        let (mm, os, pid) = huge_world();
        let world = World {
            mm: &mm,
            guests: vec![GuestView::new("vm1", &os, vec![pid])],
            scanner: None,
        };
        let report = check_world(&world).expect("intact huge block must audit clean");
        assert!(report.huge_blocks >= 1);
    }

    #[test]
    fn freed_subframe_is_reported_as_torn_huge_frame() {
        let (mut mm, os, pid) = huge_world();
        let mut seed = 0xB10C_u64;
        let gpfn = lcg(&mut seed) % HUGE_PAGE_SPAN as u64;
        let victim = mm.frame_at(os.vm_space(), os.host_vpn(gpfn)).unwrap();
        // Free the frame behind the auditor's back, mid-"collapse".
        mm.phys_mut().dec_ref(victim);
        let world = World {
            mm: &mm,
            guests: vec![GuestView::new("vm1", &os, vec![pid])],
            scanner: None,
        };
        let err = check_world(&world).expect_err("torn block must fail the audit");
        assert_eq!(err.layer(), Layer::Host);
        assert!(
            matches!(
                err,
                Violation::HugeFrameTorn {
                    block: 0,
                    populated,
                    ..
                } if populated == HUGE_PAGE_SPAN - 1
            ),
            "unexpected violation: {err}"
        );
        assert!(err.to_string().contains("torn"));
    }

    #[test]
    fn shared_subframe_is_reported_as_merged_into_huge_frame() {
        // Class 1: a subframe marked KSM-shared inside a live huge block.
        let (mut mm, os, pid) = huge_world();
        let mut seed = 0x5EED_u64;
        let gpfn = lcg(&mut seed) % HUGE_PAGE_SPAN as u64;
        let victim = mm.frame_at(os.vm_space(), os.host_vpn(gpfn)).unwrap();
        mm.phys_mut().set_ksm_shared(victim, true);
        let world = World {
            mm: &mm,
            guests: vec![GuestView::new("vm1", &os, vec![pid])],
            scanner: None,
        };
        let err = check_world(&world).expect_err("shared subframe must fail the audit");
        assert!(
            matches!(err, Violation::HugeMergedSubframe { frame, .. } if frame == victim),
            "unexpected violation: {err}"
        );

        // Class 2: a multi-referenced subframe. The huge check must fire
        // before the host fan-in reconciliation, or this would surface as
        // refcount noise instead.
        let (mut mm, os, pid) = huge_world();
        let gpfn = lcg(&mut seed) % HUGE_PAGE_SPAN as u64;
        let victim = mm.frame_at(os.vm_space(), os.host_vpn(gpfn)).unwrap();
        mm.phys_mut().inc_ref(victim);
        let world = World {
            mm: &mm,
            guests: vec![GuestView::new("vm1", &os, vec![pid])],
            scanner: None,
        };
        let err = check_world(&world).expect_err("multi-referenced subframe must fail");
        assert_eq!(err.layer(), Layer::Host);
        assert!(
            matches!(err, Violation::HugeMergedSubframe { frame, .. } if frame == victim),
            "unexpected violation: {err}"
        );
    }

    #[test]
    fn oracle_matches_incremental_on_a_simple_world() {
        let build = || {
            let mut mm = HostMm::new();
            for name in ["vm1", "vm2"] {
                let s = mm.create_space(name);
                let r = mm.map_region(s, 32, MemTag::VmGuestMemory, true);
                for i in 0..32 {
                    mm.write_page(s, r.offset(i), Fingerprint::of(&[i % 8]), Tick::ZERO);
                }
            }
            mm
        };
        let params = KsmParams::new(40, 100);
        let mut a = build();
        let mut b = build();
        let mut incremental = KsmScanner::new(params);
        let mut naive = NaiveScanner::new(params);
        for t in 1..40 {
            incremental.run(&mut a, Tick(t));
            naive.run(&mut b, Tick(t));
        }
        incremental.recount(&a);
        naive.recount(&b);
        assert_eq!(incremental.stats(), naive.stats());
        assert_eq!(frame_table(&a), frame_table(&b));
        assert_eq!(pte_table(&a), pte_table(&b));
        assert!(naive.stats().pages_sharing > 0);
    }

    /// The split-before-merge dance is part of the differential contract:
    /// with huge blocks in the scan list, the incremental scanner and the
    /// naive oracle must split the same blocks, count the same
    /// `thp_splits`, and converge to bit-identical memory.
    #[test]
    fn oracle_matches_incremental_with_huge_blocks() {
        let build = || {
            let mut mm = HostMm::new();
            for name in ["vm1", "vm2"] {
                let s = mm.create_space(name);
                let r = mm.map_region(s, HUGE_PAGE_SPAN, MemTag::VmGuestMemory, true);
                for i in 0..HUGE_PAGE_SPAN as u64 {
                    mm.write_page(s, r.offset(i), Fingerprint::of(&[i % 64]), Tick::ZERO);
                }
                assert!(mm.try_collapse(s, r, 0));
            }
            mm
        };
        // A budget below the block span makes split windows straddle
        // wakes, the ugliest case for plan/commit ordering.
        let params = KsmParams::new(200, 100);
        let mut a = build();
        let mut b = build();
        let mut incremental = KsmScanner::new(params);
        let mut naive = NaiveScanner::new(params);
        for t in 1..80 {
            incremental.run(&mut a, Tick(t));
            naive.run(&mut b, Tick(t));
        }
        incremental.recount(&a);
        naive.recount(&b);
        assert_eq!(incremental.stats(), naive.stats());
        assert_eq!(frame_table(&a), frame_table(&b));
        assert_eq!(pte_table(&a), pte_table(&b));
        assert_eq!(naive.stats().thp_splits, 2);
        assert!(naive.stats().pages_sharing > 0);
    }
}
