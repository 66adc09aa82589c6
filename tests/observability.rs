//! Observability integration tests: trace determinism and neutrality,
//! timeline deltas with gated attribution, per-phase profiling, the
//! merge-miss diagnostics, and the `explain` golden master.

use tps_java_repro::cli;
use tpslab::{Experiment, ExperimentConfig};

fn small() -> ExperimentConfig {
    ExperimentConfig::small_test(2, true)
}

#[test]
fn trace_jsonl_is_byte_identical_across_same_seed_runs() {
    let a = Experiment::run(&small().with_trace()).unwrap();
    let b = Experiment::run(&small().with_trace()).unwrap();
    let ja = a.trace.expect("trace on").to_jsonl();
    let jb = b.trace.expect("trace on").to_jsonl();
    assert!(!ja.is_empty());
    assert!(ja.lines().next().unwrap().starts_with("{\"seq\":0,"));
    assert_eq!(ja, jb);
}

#[test]
fn tracing_leaves_the_report_bit_identical() {
    let cfg = small().with_timeline(10);
    let plain = Experiment::run(&cfg).unwrap();
    let traced = Experiment::run(&cfg.clone().with_trace()).unwrap();
    assert!(plain.trace.is_none());
    assert!(traced.trace.is_some());
    assert_eq!(plain.breakdown, traced.breakdown);
    assert_eq!(plain.ksm, traced.ksm);
    assert_eq!(plain.resident_mib, traced.resident_mib);
    assert_eq!(plain.timeline, traced.timeline);
}

#[test]
fn timeline_deltas_telescope_and_attribution_is_gated() {
    let cfg = small().with_timeline(10);
    let plain = Experiment::run(&cfg).unwrap();
    assert!(!plain.timeline.is_empty());
    assert!(plain.timeline.iter().all(|p| p.tps_saving_mib.is_none()));
    // Per-interval deltas of a cumulative counter telescope back to the
    // last sample's running total.
    let summed: u64 = plain.timeline.iter().map(|p| p.delta.full_scans).sum();
    assert_eq!(summed, plain.timeline.last().unwrap().full_scans);

    let attr = Experiment::run(&cfg.clone().with_timeline_attribution()).unwrap();
    assert!(attr.timeline.iter().all(|p| p.tps_saving_mib.is_some()));
    // The attribution walk is read-only: every other sampled quantity
    // matches the ungated run exactly.
    let strip = |r: &tpslab::ExperimentReport| {
        r.timeline
            .iter()
            .map(|p| (p.pages_sharing, p.pages_shared, p.full_scans))
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(&plain), strip(&attr));
    // small_test runs 40 s and samples every 10 s, so the last sample
    // coincides with the end of the run: its per-sample attribution
    // must agree with the end-of-run rollup.
    let last = attr.timeline.last().unwrap().tps_saving_mib.unwrap();
    assert!(
        (last - attr.total_tps_saving_mib()).abs() < 1e-9,
        "sample {last} vs final {}",
        attr.total_tps_saving_mib()
    );
}

#[test]
fn profiling_reports_every_phase() {
    // The profile is always on: no config flag asks for it.
    let report = Experiment::run(&small().with_timeline(10)).unwrap();
    let phases = report.phases;
    let names: Vec<_> = phases.phases.iter().map(|p| p.name).collect();
    for expect in [
        "setup",
        "guest_jvm_tick",
        "thp_scan",
        "ksm_scan",
        "timeline_sample",
        "final_recount",
        "attribution",
    ] {
        assert!(names.contains(&expect), "{expect} missing from {names:?}");
    }
    let tick = phases
        .phases
        .iter()
        .find(|p| p.name == "guest_jvm_tick")
        .unwrap();
    // 40 simulated seconds at 10 ticks/s.
    assert_eq!(tick.ticks, 400);
    assert!(tick.pages > 0);
    // khugepaged runs once per simulated second.
    let thp = phases.phases.iter().find(|p| p.name == "thp_scan").unwrap();
    assert_eq!(thp.invocations, 40);
}

#[test]
fn merge_miss_report_conserves_and_covers_pages_sharing() {
    let report = Experiment::run(&small().with_trace().with_diagnose()).unwrap();
    let miss = report.merge_miss.expect("diagnosis on");
    // Exact conservation: achieved + missed == potential (page counts).
    assert_eq!(
        miss.achieved_pages + miss.total_missed_pages(),
        miss.potential_pages
    );
    // The analysis-side achieved sharing must cover the scanner's
    // pages_sharing gauge (it additionally counts non-KSM COW sharing).
    assert!(
        miss.achieved_pages >= report.ksm.pages_sharing,
        "achieved {} < pages_sharing {}",
        miss.achieved_pages,
        report.ksm.pages_sharing
    );
    assert!(miss.groups_considered > 0);
    assert!(!miss.top_groups.is_empty());
}

/// Drives a real scanner through merge → COW break → content restore
/// and checks the diagnostics call the resulting miss `cow_broken`,
/// using the tracer's broken-mapping set end to end.
#[test]
fn cow_broken_miss_is_classified_from_the_scanner_trace() {
    use analysis::MissReason;
    use mem::{Fingerprint, Tick};
    use tpslab::ksm::{KsmParams, KsmScanner};
    use tpslab::paging::{HostMm, MemTag};

    let mut mm = HostMm::new();
    mm.tracer_mut().enable(None);
    let content = Fingerprint::of(&[0x77]);
    let s1 = mm.create_space("a");
    let b1 = mm.map_region(s1, 1, MemTag::JavaHeap, true);
    mm.write_page(s1, b1, content, Tick(1));
    let s2 = mm.create_space("b");
    let b2 = mm.map_region(s2, 1, MemTag::JavaHeap, true);
    mm.write_page(s2, b2, content, Tick(1));

    let mut scanner = KsmScanner::new(KsmParams::new(10_000, 100));
    for t in 2..=40 {
        scanner.run(&mut mm, Tick(t));
    }
    scanner.recount(&mm);
    assert_eq!(scanner.stats().pages_sharing, 1, "pages merged");

    // A write COW-breaks the merged page; a later write restores the
    // shared content, leaving a volatile, content-identical private
    // copy — the classic merged-then-broken miss.
    mm.write_page(s2, b2, Fingerprint::of(&[0x88]), Tick(50));
    mm.write_page(s2, b2, content, Tick(51));
    let broken = mm.tracer().broken_mappings();
    assert!(broken.contains(&(s2.index() as u32, b2.0)));

    let report = analysis::diagnose_misses(
        &mm,
        scanner.params().max_page_sharing(),
        scanner.volatility_horizon(),
        &broken,
    );
    assert_eq!(report.missed(MissReason::CowBroken), 1);
    assert_eq!(report.total_missed_pages(), 1);
}

/// The committed `tests/golden/explain.txt` pins the full `explain`
/// output on the small CLI preset; CI also diffs the release binary's
/// output against the same file. Regenerate with:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --test observability
/// ```
#[test]
fn explain_output_matches_golden_master() {
    let args: Vec<String> = "explain --guests 2 --scale 64 --minutes 0.5 --top 3"
        .split_whitespace()
        .map(String::from)
        .collect();
    let actual = cli::dispatch(&args).expect("explain runs");
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/explain.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n\
             regenerate with: UPDATE_GOLDEN=1 cargo test --test observability",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "explain output diverges from tests/golden/explain.txt;\n\
         regenerate with: UPDATE_GOLDEN=1 cargo test --test observability\n\
         --- golden ---\n{expected}\n--- actual ---\n{actual}"
    );
}
