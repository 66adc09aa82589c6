//! Determinism property test for the request-driven traffic engine.
//!
//! The tentpole guarantee of DESIGN.md §11: a traffic run's report is a
//! pure function of `(config, scenario)` — byte-identical at any
//! `--threads` value and across repeated runs. This harness samples
//! random arrival curves (constant / diurnal / flash-crowd, with random
//! deploy waves and autoscale policies layered on) crossed with random
//! KSM scan budgets, and asserts the rendered report from a
//! single-threaded run matches a 4-worker run exactly.

use mem::Tick;
use proptest::prelude::*;
use tpslab::ksm::KsmParams;
use tpslab::traffic::{
    ArrivalCurve, AutoscalePolicy, DeploySchedule, Scenario, TrafficEngine, TrafficSpec,
};
use tpslab::{Experiment, ExperimentConfig, KsmSchedule};

const DURATION_SECONDS: u64 = 30;
const GUESTS: usize = 2;

fn curve_strategy() -> impl Strategy<Value = ArrivalCurve> {
    prop_oneof![
        (0..25u64).prop_map(|f| ArrivalCurve::Constant {
            factor: f as f64 / 10.0,
        }),
        ((1..9u64), (10..25u64), (4..DURATION_SECONDS)).prop_map(|(trough, peak, period)| {
            ArrivalCurve::Diurnal {
                trough: trough as f64 / 10.0,
                peak: peak as f64 / 10.0,
                period_seconds: period,
            }
        }),
        ((0..10u64), (10..40u64), (0..20u64), (1..15u64)).prop_map(|(base, spike, start, len)| {
            ArrivalCurve::FlashCrowd {
                base: base as f64 / 10.0,
                spike: spike as f64 / 10.0,
                spike_start: start,
                spike_seconds: len,
            }
        }),
    ]
}

fn scenario_strategy_for(guests: usize) -> impl Strategy<Value = Scenario> {
    (curve_strategy(), 0..3u8, (5..15u64), (1..8u64)).prop_map(
        move |(curve, churn, start, every)| Scenario {
            name: "proptest",
            curve,
            deploy: (churn == 1).then_some(DeploySchedule {
                start_seconds: start,
                wave_interval_seconds: every,
                wave_size: (guests / 8).max(1),
            }),
            noisy_factor: None,
            autoscale: (churn == 2).then_some(AutoscalePolicy {
                min_guests: 1,
                max_guests: guests,
            }),
        },
    )
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    scenario_strategy_for(GUESTS)
}

/// Random specs for the event queue itself: a handful of guests,
/// random start-up lengths and jitter seeds, with the scenario layered
/// on top so deploy waves and autoscale churn interleave with start-up
/// chains.
fn spec_strategy() -> impl Strategy<Value = TrafficSpec> {
    (
        (curve_strategy(), 0..3u8, (5..15u64), (1..8u64)),
        (1..6usize, 1..20u64, 0..u64::MAX),
    )
        .prop_map(
            |((curve, churn, start, every), (guests, startup_seconds, seed))| TrafficSpec {
                scenario: Scenario {
                    name: "proptest",
                    curve,
                    deploy: (churn == 1).then_some(DeploySchedule {
                        start_seconds: start,
                        wave_interval_seconds: every,
                        wave_size: 1,
                    }),
                    noisy_factor: None,
                    autoscale: (churn == 2).then_some(AutoscalePolicy {
                        min_guests: 1,
                        max_guests: guests,
                    }),
                },
                guests,
                healthy_rps: 40.0,
                startup_seconds,
                duration_seconds: DURATION_SECONDS,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random curve × random scan budget: the report is byte-identical
    /// between 1 and 4 attribution/scan worker threads, and reproducible.
    #[test]
    fn traffic_reports_are_thread_invariant(
        scenario in scenario_strategy(),
        scan_pages in 50..2000usize,
        seed in 0..u64::MAX,
    ) {
        let cfg = ExperimentConfig::tiny_test(GUESTS, true)
            .with_duration_seconds(DURATION_SECONDS)
            .with_seed(seed)
            .with_ksm(KsmSchedule {
                warmup: KsmParams::new(scan_pages, 100),
                steady: KsmParams::new(scan_pages.max(100) / 2, 100),
                warmup_seconds: DURATION_SECONDS / 2,
            });
        let serial = Experiment::run_traffic(&cfg, &scenario).unwrap();
        let parallel =
            Experiment::run_traffic(&cfg.clone().with_threads(4), &scenario).unwrap();
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(serial.render(), parallel.render());
        // And a rerun of the exact same spec reproduces byte-for-byte.
        let again = Experiment::run_traffic(&cfg, &scenario).unwrap();
        prop_assert_eq!(serial.render(), again.render());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The queue's pop order: draining the whole run in one
    /// `events_until` call yields the same `(due_tick, seq)`-ordered
    /// stream as draining in arbitrary tick chunks — the `(due, seq)`
    /// tie-break is stable no matter where the drain boundaries fall.
    #[test]
    fn engine_stream_is_drain_granularity_invariant(
        spec in spec_strategy(),
        steps in prop::collection::vec(1..40_000u64, 1..40),
    ) {
        let full = TrafficEngine::new(spec).events_until(Tick(u64::MAX));
        let mut engine = TrafficEngine::new(spec);
        let mut chunked = Vec::new();
        let mut t = 0u64;
        for step in steps {
            t += step;
            chunked.extend(engine.events_until(Tick(t)));
        }
        chunked.extend(engine.events_until(Tick(u64::MAX)));
        prop_assert_eq!(&chunked, &full);
        // The merged stream across the global heap and every shard
        // never steps backwards in time.
        prop_assert!(full.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    /// `events_until(now)` is boundary-inclusive: walking the run by
    /// draining exactly at `next_due` consumes the due entry every
    /// time (the frontier always advances past `now`) and replays the
    /// identical stream.
    #[test]
    fn engine_drain_includes_the_boundary_tick(spec in spec_strategy()) {
        let full = TrafficEngine::new(spec).events_until(Tick(u64::MAX));
        let mut engine = TrafficEngine::new(spec);
        let mut walked = Vec::new();
        let mut guard = 0u64;
        while let Some(due) = engine.next_due() {
            let batch = engine.events_until(due);
            prop_assert!(batch.iter().all(|(at, _)| *at <= due));
            walked.extend(batch);
            prop_assert!(
                engine.next_due().is_none_or(|d| d > due),
                "an entry due at {:?} survived a drain at its own tick", due
            );
            guard += 1;
            prop_assert!(guard < 1_000_000, "drain walk failed to terminate");
        }
        prop_assert_eq!(&walked, &full);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Full-size net: random scenario × churn × scan budget on the
    /// scale256 fleet preset, byte-identical between 1 and 8 worker
    /// threads. Run with `cargo test -- --ignored` (CI does).
    #[test]
    #[ignore = "fleet-scale config; CI runs it with -- --ignored"]
    fn scale256_reports_are_thread_invariant(
        scenario in scenario_strategy_for(256),
        scan_pages in 500..4000usize,
        seed in 0..u64::MAX,
    ) {
        let cfg = ExperimentConfig::scale256(512.0)
            .with_duration_seconds(40)
            .with_seed(seed)
            .with_ksm(KsmSchedule {
                warmup: KsmParams::new(scan_pages, 100),
                steady: KsmParams::new(scan_pages.max(100) / 2, 100),
                warmup_seconds: 20,
            });
        let serial = Experiment::run_traffic(&cfg, &scenario).unwrap();
        let sharded =
            Experiment::run_traffic(&cfg.clone().with_threads(8), &scenario).unwrap();
        prop_assert_eq!(&serial, &sharded);
        prop_assert_eq!(serial.render(), sharded.render());
    }
}
