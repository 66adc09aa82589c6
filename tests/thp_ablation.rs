//! The THP × KSM ablation as executable physics.
//!
//! `bench::thp` renders the sharing-versus-TLB-reach frontier for the
//! committed golden/JSON artifacts; this harness asserts the frontier's
//! shape directly, checks that traffic reports stay byte-identical
//! across reruns when THP is in play, and smokes the fleet-scale preset
//! under `always`.

use bench::thp;
use proptest::prelude::*;
use tpslab::ksm::KsmParams;
use tpslab::paging::ThpPolicy;
use tpslab::traffic::{ArrivalCurve, Scenario};
use tpslab::{Experiment, ExperimentConfig, KsmSchedule};

/// The acceptance shape of the ablation, asserted piece by piece (the
/// bench's own `frontier_check` re-verifies the same thing before every
/// committed artifact is printed):
///
/// * `thp=always` with scanning off maximises TLB reach and minimises
///   sharing;
/// * `thp=never` with the saturating budget maximises sharing at unit
///   reach;
/// * at least one intermediate cell is dominated by neither endpoint.
#[test]
fn thp_frontier_is_non_degenerate() {
    let cells = thp::sweep();
    thp::frontier_check(&cells).expect("frontier must be non-degenerate");

    let cell = |policy: ThpPolicy, budget: usize| {
        cells
            .iter()
            .find(|c| c.policy == policy && c.budget == budget)
            .unwrap()
    };
    let full = *thp::BUDGETS.last().unwrap();
    let reach_end = cell(ThpPolicy::Always, 0);
    let share_end = cell(ThpPolicy::Never, full);

    // Endpoint 1: maximum reach, zero sharing, zero splits.
    assert!(reach_end.report.huge_mib > 0.0);
    assert!(reach_end.report.tlb_boost > 1.0);
    assert_eq!(reach_end.report.ksm.pages_sharing, 0);
    assert_eq!(reach_end.report.ksm.thp_splits, 0);

    // Endpoint 2: maximum sharing, no huge pages, unit reach.
    assert!(share_end.report.ksm.pages_sharing > 0);
    assert_eq!(share_end.report.huge_mib, 0.0);
    assert!((share_end.report.tlb_boost - 1.0).abs() < 1e-12);

    // The starved-budget THP cells are the frontier's interior: they
    // keep surviving huge pages (reach above unit) *and* sharing.
    let mid = thp::BUDGETS[1];
    for policy in [ThpPolicy::Madvise, ThpPolicy::Always] {
        let c = cell(policy, mid);
        assert!(
            c.report.tlb_boost > 1.0 && c.report.ksm.pages_sharing > 0,
            "{policy}@{mid} should be an interior frontier point"
        );
        assert!(
            c.report.ksm.thp_splits > 0,
            "{policy}@{mid} never paid the split tax"
        );
    }

    // The split tax is visible at the knee: with the same budget,
    // `never` out-shares both THP policies strictly, because subpages
    // freed by huge-page splits enter the unstable tree a pass late.
    let knee = thp::BUDGETS[2];
    for policy in [ThpPolicy::Madvise, ThpPolicy::Always] {
        assert!(
            cell(policy, knee).report.ksm.pages_sharing
                < cell(ThpPolicy::Never, knee).report.ksm.pages_sharing,
            "{policy}@{knee} should trail never@{knee} in sharing"
        );
    }
}

/// Fleet-scale THP smoke: the scale256 preset with `thp=always` — 256
/// over-committed guests collapsing and splitting 2 MiB blocks against
/// the KSM scanner — runs end to end. Run with
/// `cargo test -- --ignored` (CI does).
#[test]
#[ignore = "fleet-scale config; CI runs it with -- --ignored"]
fn scale256_thp_smoke() {
    let cfg = ExperimentConfig::scale256(256.0)
        .with_duration_seconds(20)
        .with_thp(ThpPolicy::Always, ThpPolicy::Always);
    let report = Experiment::run(&cfg).unwrap();
    assert_eq!(report.throughput.len(), 256);
    assert!(report.ksm.pages_sharing > 0, "fleet never merged a page");
    assert!(
        report.ksm.thp_splits > 0,
        "an always-policy fleet under active KSM must split huge pages"
    );
    assert!(report.resident_mib <= report.usable_mib * 1.01);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random THP policy × scan budget through the traffic engine: the
    /// rendered report (including the `thp huge`/`thp splits` line) is
    /// byte-identical across two runs. Extends the `traffic_determinism`
    /// harness along the frame-size axis.
    #[test]
    fn thp_traffic_reports_are_reproducible(
        policy_code in 0..3u8,
        scan_pages in 0..400usize,
        seed in 0..u64::MAX,
    ) {
        let policy = match policy_code {
            0 => ThpPolicy::Never,
            1 => ThpPolicy::Madvise,
            _ => ThpPolicy::Always,
        };
        let params = KsmParams::new(scan_pages, 100);
        let cfg = ExperimentConfig::tiny_test(2, true)
            .with_duration_seconds(30)
            .with_seed(seed)
            .with_ksm(KsmSchedule {
                warmup: params,
                steady: params,
                warmup_seconds: 0,
            })
            .with_thp(policy, policy);
        let scenario = Scenario {
            name: "thp-proptest",
            curve: ArrivalCurve::Constant { factor: 1.0 },
            deploy: None,
            noisy_factor: None,
            autoscale: None,
        };
        let first = Experiment::run_traffic(&cfg, &scenario).unwrap();
        let again = Experiment::run_traffic(&cfg, &scenario).unwrap();
        prop_assert_eq!(&first, &again);
        prop_assert_eq!(first.render(), again.render());
    }
}
