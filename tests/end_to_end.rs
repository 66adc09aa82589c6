//! Cross-crate integration tests: miniature versions of the paper's
//! experiments, asserting the qualitative results that define the
//! reproduction.
//!
//! The suite runs on [`ExperimentConfig::small_test`] (40 simulated
//! seconds) and shares the two expensive reports across tests, so the
//! default `cargo test` stays fast. The original full-size (120 s)
//! configs live in [`full_size_suite`], which is `#[ignore]`d by
//! default and run in CI with `cargo test -- --ignored`. Every
//! experiment here also runs the cross-layer conservation audit
//! (`audit::check_world`), which is always on in debug builds.

use std::sync::OnceLock;
use tpslab::jvm::MemoryCategory;
use tpslab::{Experiment, ExperimentConfig, ExperimentReport, PowerVmExperiment};

fn baseline() -> ExperimentConfig {
    ExperimentConfig::small_test(3, false)
}

/// The baseline report, computed once for the whole suite.
fn base_report() -> &'static ExperimentReport {
    static REPORT: OnceLock<ExperimentReport> = OnceLock::new();
    REPORT.get_or_init(|| Experiment::run(&baseline()).unwrap())
}

/// The class-sharing report, computed once for the whole suite.
fn cds_report() -> &'static ExperimentReport {
    static REPORT: OnceLock<ExperimentReport> = OnceLock::new();
    REPORT.get_or_init(|| Experiment::run(&baseline().with_class_sharing()).unwrap())
}

#[test]
fn tps_is_ineffective_for_java_without_preloading() {
    let report = base_report();
    // §III: class metadata, JIT code and stacks essentially unshared.
    for java in &report.breakdown.javas {
        let class = java.category(MemoryCategory::ClassMetadata);
        assert!(
            class.tps_shared_mib < 0.05 * class.resident_mib.max(0.01),
            "baseline class metadata should not share ({:.3} of {:.3} MiB)",
            class.tps_shared_mib,
            class.resident_mib
        );
        assert_eq!(
            java.category(MemoryCategory::JitCompiledCode)
                .tps_shared_mib,
            0.0
        );
        assert_eq!(java.category(MemoryCategory::Stack).tps_shared_mib, 0.0);
        // The code area, in contrast, shares (same JVM binary everywhere).
        assert!(java.category(MemoryCategory::Code).tps_shared_mib > 0.0);
    }
}

#[test]
fn preloading_makes_class_metadata_shareable() {
    let report = cds_report();
    // §V.A: most of the class metadata of non-primary JVMs is eliminated.
    let fraction = report.mean_nonprimary_class_saving_fraction();
    assert!(
        fraction > 0.6,
        "expected most class metadata eliminated, got {:.1} %",
        100.0 * fraction
    );
    // And the cache pages are TPS-shared in *every* JVM including the owner.
    for java in &report.breakdown.javas {
        let class = java.category(MemoryCategory::ClassMetadata);
        assert!(class.tps_shared_mib > 0.4 * class.resident_mib);
    }
}

#[test]
fn preloading_reduces_total_memory_usage() {
    let base = base_report();
    let cds = cds_report();
    assert!(cds.breakdown.total_owned_mib < base.breakdown.total_owned_mib);
    assert!(cds.total_tps_saving_mib() > base.total_tps_saving_mib());
}

#[test]
fn guest_kernels_share_about_half_their_area() {
    // §II.D: ~50 % of the kernel area is image-derived and shared with
    // the owning guest.
    let report = base_report();
    let kernels: Vec<f64> = report
        .breakdown
        .guests
        .iter()
        .map(|g| g.kernel_owned_mib)
        .collect();
    let owner = kernels.iter().cloned().fold(f64::MIN, f64::max);
    let others: Vec<&f64> = kernels.iter().filter(|&&k| k < owner).collect();
    assert!(!others.is_empty());
    for &&k in &others {
        let ratio = k / owner;
        assert!(
            (0.3..0.8).contains(&ratio),
            "non-owner kernel should be roughly half the owner's ({ratio:.2})"
        );
    }
}

#[test]
fn owner_oriented_usage_sums_to_unique_frames() {
    let report = cds_report();
    let guest_sum: f64 = report
        .breakdown
        .guests
        .iter()
        .map(|g| g.owned_total_mib())
        .sum();
    assert!(
        (guest_sum - report.breakdown.total_owned_mib).abs() < 1e-6,
        "owner-oriented accounting must partition physical memory"
    );
    assert!((report.resident_mib - report.breakdown.total_owned_mib).abs() < 1e-6);
}

#[test]
fn experiments_are_deterministic() {
    let rerun = Experiment::run(&baseline().with_class_sharing()).unwrap();
    let first = cds_report();
    assert_eq!(first.breakdown, rerun.breakdown);
    assert_eq!(first.ksm, rerun.ksm);
}

#[test]
fn powervm_preloading_increases_saving() {
    let exp = PowerVmExperiment::tiny_test();
    let without = exp.run(false);
    let with = exp.run(true);
    assert!(with.saving_mib() > without.saving_mib());
}

fn overcommit_config() -> ExperimentConfig {
    // Shrink the host until the guests no longer fit.
    let mut cfg = ExperimentConfig::small_test(4, false).with_duration_seconds(30);
    cfg.host.ram_mib = 300.0;
    cfg.host.reserve_mib = 20.0;
    cfg
}

#[test]
fn overcommit_collapses_throughput_and_preloading_delays_it() {
    let cfg = overcommit_config();
    let base = Experiment::run(&cfg).unwrap();
    let cds = Experiment::run(&cfg.clone().with_class_sharing()).unwrap();
    assert!(
        base.slowdown <= cds.slowdown,
        "preloading should never make memory pressure worse ({} vs {})",
        base.slowdown,
        cds.slowdown
    );
    assert!(base.total_throughput() <= cds.total_throughput());
}

/// Fleet-scale smoke: the scale256 preset — 256 over-committed
/// SPECjEnterprise guests on a host at the paper's over-commit knee —
/// runs end to end through the KSM scanner, with the conservation
/// audit active (debug build). Run with `cargo test -- --ignored`.
#[test]
#[ignore = "fleet-scale config; CI runs it with -- --ignored"]
fn scale256_preset_smoke() {
    let cfg = ExperimentConfig::scale256(256.0).with_duration_seconds(20);
    let report = Experiment::run(&cfg).unwrap();
    assert_eq!(report.breakdown.guests.len(), 256);
    assert_eq!(report.throughput.len(), 256);
    assert!(report.ksm.pages_sharing > 0, "fleet never merged a page");
    assert!(report.ksm.full_scans > 0, "scanner never completed a pass");
    assert!(report.resident_mib <= report.usable_mib * 1.01);
}

/// The original full-size (120 simulated seconds) configs, kept as a
/// slow regression net. Run with `cargo test -- --ignored` (CI does).
#[test]
#[ignore = "full-size configs; CI runs them with -- --ignored"]
fn full_size_suite() {
    let full = ExperimentConfig::tiny_test(3, false).with_duration_seconds(120);
    let base = Experiment::run(&full).unwrap();
    let cds = Experiment::run(&full.clone().with_class_sharing()).unwrap();
    assert!(cds.breakdown.total_owned_mib < base.breakdown.total_owned_mib);
    assert!(cds.mean_nonprimary_class_saving_fraction() > 0.6);
    for java in &base.breakdown.javas {
        let class = java.category(MemoryCategory::ClassMetadata);
        assert!(class.tps_shared_mib < 0.05 * class.resident_mib.max(0.01));
    }

    let mut over = ExperimentConfig::tiny_test(4, false).with_duration_seconds(120);
    over.host.ram_mib = 300.0;
    over.host.reserve_mib = 20.0;
    let over_base = Experiment::run(&over).unwrap();
    let over_cds = Experiment::run(&over.clone().with_class_sharing()).unwrap();
    assert!(over_base.slowdown <= over_cds.slowdown);
    assert!(over_base.total_throughput() <= over_cds.total_throughput());
}
