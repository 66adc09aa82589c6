//! The traced outside loop must leave the world exactly where
//! `Experiment::run` leaves it; otherwise its per-layer times describe a
//! different program.

use perfbench::tick::{traced_run, TickOutputs};
use tpslab::ksm::KsmParams;
use tpslab::{Experiment, ExperimentConfig, KsmSchedule};

fn assert_same_world(config: &ExperimentConfig) {
    let report = Experiment::run(config).unwrap();
    let (traced, split) = traced_run(config);
    assert_eq!(
        traced,
        TickOutputs {
            pages_sharing: report.ksm.pages_sharing,
            breakdown: report.breakdown,
        },
        "threads {}",
        config.threads
    );
    assert_eq!(split.pages_scanned, report.ksm.pages_scanned);
    assert_eq!(split.merges, report.ksm.merges);
    assert!(split.other() < split.wall);
}

#[test]
fn traced_loop_matches_experiment_run_at_one_and_two_threads() {
    for threads in [1, 2] {
        assert_same_world(&ExperimentConfig::tiny_test(2, true).with_threads(threads));
    }
}

#[test]
fn traced_loop_matches_with_sampling_and_a_warmup_switch() {
    // Timeline samples with attribution walks, and a steady rate that
    // differs from the warm-up rate, so every branch of the loop runs.
    let schedule = KsmSchedule {
        warmup: KsmParams::new(2_000, 100),
        steady: KsmParams::new(300, 100),
        warmup_seconds: 30,
    };
    for threads in [1, 2] {
        let config = ExperimentConfig::tiny_test(2, true)
            .with_ksm(schedule)
            .with_timeline(10)
            .with_timeline_attribution()
            .with_threads(threads);
        assert_same_world(&config);
    }
}
