//! Fleet telemetry collection (DESIGN.md §13).
//!
//! Assembles one [`obs::MetricsRegistry`] scrape from a live world's
//! deterministic layer counters: the hypervisor/paging stack
//! ([`KvmHost::record_metrics`]), the KSM scanner
//! ([`ksm::KsmScanner::record_metrics`]), the attribution engine
//! ([`analysis::SnapshotEngine::record_metrics`]) and — under traffic —
//! the per-guest request tallies
//! ([`TrafficReport::record_metrics`](crate::TrafficReport::record_metrics)).
//!
//! The registry is rebuilt from scratch at every collection, so each
//! cumulative layer counter lands in the exposition exactly once and
//! the rendered deterministic section is a pure function of simulated
//! state — byte-identical on every rerun of a config, on any host.
//! Wall-clock series (wake phase nanos, walk latency) ride along in the
//! separated [`obs::MetricClass::Wall`] section.

use crate::world::World;
use crate::ExperimentConfig;
use analysis::SnapshotEngine;
use hypervisor::KvmHost;
use ksm::KsmScanner;
use mem::Tick;
use obs::MetricsRegistry;

/// Builds the deterministic scrape of a world at simulated tick `now`.
///
/// `scanner` stats may lag ground truth between recounts, so the
/// `ksm_pages_shared` / `ksm_pages_sharing` gauges take the caller's
/// read-only [`KsmScanner::count_sharing`] of the same world — watching
/// a world never mutates it.
#[must_use]
pub fn world_registry(
    host: &KvmHost,
    scanner: &KsmScanner,
    engine: &SnapshotEngine,
    now: Tick,
    (shared, sharing): (u64, u64),
) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.gauge(
        "sim_seconds",
        "Simulated seconds since the start of the run.",
        &[],
        now.as_seconds(),
    );
    reg.counter(
        "sim_ticks_total",
        "Simulated ticks since the start of the run.",
        &[],
        now.0,
    );
    host.record_metrics(&mut reg);
    scanner.record_metrics(&mut reg);
    reg.gauge(
        "ksm_pages_shared",
        "Stable-tree frames: distinct shared pages kept in memory.",
        &[],
        shared as f64,
    );
    reg.gauge(
        "ksm_pages_sharing",
        "PTEs pointing at stable frames beyond the first (copies elided).",
        &[],
        sharing as f64,
    );
    engine.record_metrics(&mut reg);
    reg
}

/// One deterministic scrape of a converged world: runs `config` to its
/// configured duration (exactly [`Experiment::build_world`]'s loop),
/// takes one warm attribution snapshot, and renders the
/// [`obs::MetricClass::Sim`] section of the registry.
///
/// This is the text pinned by `tests/golden/telemetry.txt`.
///
/// [`Experiment::build_world`]: crate::Experiment::build_world
#[must_use]
pub fn golden_scrape(config: &ExperimentConfig) -> String {
    let mut world = World::new(config, None);
    let end = Tick::from_seconds(config.duration_seconds as f64);
    for t in 1..=end.0 {
        world.step(t);
    }
    let mut engine = SnapshotEngine::default();
    let _ = engine.snapshot(world.host.mm(), &world.views());
    let sharing = world.scanner.count_sharing(world.host.mm());
    world_registry(&world.host, &world.scanner, &engine, end, sharing).render_deterministic()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_covers_every_layer_and_stays_deterministic() {
        let config = ExperimentConfig::tiny_test(2, true).with_duration_seconds(30);
        let a = golden_scrape(&config);
        let b = golden_scrape(&config);
        assert_eq!(a, b, "scrape must be byte-identical on a rerun");
        for series in [
            "sim_seconds 30",
            "ksm_pages_sharing",
            "ksm_wake_work_total{phase=\"plan_pages\"}",
            "paging_cow_breaks_total",
            "host_resident_mib",
            "engine_snapshots_total 1",
            "obs_trace_events_dropped_total 0",
        ] {
            assert!(a.contains(series), "missing {series} in:\n{a}");
        }
        // The deterministic section never carries wall-clock series.
        assert!(!a.contains("nanos"));
    }
}
