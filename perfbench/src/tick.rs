//! `Experiment::run`'s tick-model loop, rebuilt from outside the
//! simulator so each layer call can be timed: boot, then per tick the
//! guest/JVM step, khugepaged at second boundaries, the KSM warm-up to
//! steady switch and the scanner wake; at each timeline sample a
//! recount and (with timeline attribution) a snapshot; at the end a
//! final recount and snapshot.
//!
//! Only public entry points are called, in the order `Experiment::run`
//! calls them, so the world ends in the same state.
//! `tests/fidelity.rs` checks that it does.

use std::time::{Duration, Instant};
use tpslab::analysis::{BreakdownReport, GuestView, SnapshotEngine};
use tpslab::hypervisor::KvmHost;
use tpslab::jvm::JavaVm;
use tpslab::ksm::{KsmScanner, WakePhases};
use tpslab::obs::MetricsRegistry;
use tpslab::{Experiment, ExperimentConfig};

/// Wall time per layer of one traced run, plus the layers' own counters.
#[derive(Debug, Clone, Default)]
pub struct TickSplit {
    /// The whole traced run, boot included.
    pub wall: Duration,
    /// `Experiment::build_world` with zero duration (the boot).
    pub setup: Duration,
    /// `Experiment::tick_world`.
    pub tick: Duration,
    /// `KsmScanner::run`.
    pub ksm_wake: Duration,
    /// `KsmScanner::recount`, at samples and at the end.
    pub recount: Duration,
    /// `SnapshotEngine::snapshot`, at samples and at the end.
    pub snapshot: Duration,
    /// Host frame writes made by the guest/JVM ticks.
    pub writes: u64,
    /// KSM pages scanned over the run.
    pub pages_scanned: u64,
    /// KSM merges over the run.
    pub merges: u64,
    /// The scanner's per-phase wake totals after the loop.
    pub phases: WakePhases,
    /// Attribution spaces served from cache over the run.
    pub spaces_cached: u64,
    /// Attribution spaces re-walked over the run.
    pub spaces_rewalked: u64,
}

impl TickSplit {
    /// Wall time no timed layer accounts for: loop bookkeeping, the
    /// (THP-off, so idle) khugepaged calls and the warm-up switch.
    #[must_use]
    pub fn other(&self) -> Duration {
        self.wall
            .saturating_sub(self.setup + self.tick + self.ksm_wake + self.recount + self.snapshot)
    }
}

/// What the traced run leaves behind, for comparison with
/// `Experiment::run`'s report.
#[derive(Debug, Clone, PartialEq)]
pub struct TickOutputs {
    /// Final `pages_sharing` after the closing recount.
    pub pages_sharing: u64,
    /// Final attribution breakdown.
    pub breakdown: BreakdownReport,
}

fn views<'a>(host: &'a KvmHost, javas: &[JavaVm]) -> Vec<GuestView<'a>> {
    host.guests()
        .iter()
        .zip(javas)
        .map(|(g, j)| GuestView::new(&g.name, &g.os, vec![j.pid()]))
        .collect()
}

fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *total += started.elapsed();
    out
}

/// Runs `config` through the traced outside loop.
#[must_use]
pub fn traced_run(config: &ExperimentConfig) -> (TickOutputs, TickSplit) {
    let mut split = TickSplit::default();
    let started = Instant::now();
    let boot = config.clone().with_duration_seconds(0);
    let (mut host, mut javas) = timed(&mut split.setup, || Experiment::build_world(&boot));

    let mut scanner = KsmScanner::new(config.ksm.warmup).with_threads(config.threads);
    let mut engine = SnapshotEngine::new(config.threads);
    let ticks_per_second = mem::TICKS_PER_SECOND;
    let warmup_end = mem::Tick::from_seconds(config.ksm.warmup_seconds as f64);
    let end = mem::Tick::from_seconds(config.duration_seconds as f64);
    let sample_ticks = config
        .timeline
        .map(|tl| tl.every_seconds * ticks_per_second);
    let attribution = config.timeline.is_some_and(|tl| tl.attribution);
    let mut switched = false;

    for t in 1..=end.0 {
        let now = mem::Tick(t);
        let writes_before = host.mm().phys().total_writes();
        timed(&mut split.tick, || {
            Experiment::tick_world(&mut host, &mut javas, now);
        });
        split.writes += host.mm().phys().total_writes() - writes_before;
        if t % ticks_per_second == 0 {
            host.thp_scan(now);
        }
        if !switched && now >= warmup_end {
            scanner.set_params(config.ksm.steady);
            switched = true;
        }
        timed(&mut split.ksm_wake, || scanner.run(host.mm_mut(), now));
        if sample_ticks.is_some_and(|every| t % every == 0) {
            timed(&mut split.recount, || scanner.recount(host.mm()));
            if attribution {
                timed(&mut split.snapshot, || {
                    engine
                        .snapshot(host.mm(), &views(&host, &javas))
                        .breakdown()
                });
            }
        }
    }
    timed(&mut split.recount, || scanner.recount(host.mm()));
    let breakdown = timed(&mut split.snapshot, || {
        engine
            .snapshot(host.mm(), &views(&host, &javas))
            .breakdown()
    });
    split.wall = started.elapsed();

    let stats = scanner.stats();
    split.pages_scanned = stats.pages_scanned;
    split.merges = stats.merges;
    split.phases = scanner.wake_totals();
    let mut reg = MetricsRegistry::new();
    engine.record_metrics(&mut reg);
    split.spaces_cached = reg
        .counter_value("engine_spaces_cached_total", &[])
        .unwrap_or(0);
    split.spaces_rewalked = reg
        .counter_value("engine_spaces_rewalked_total", &[])
        .unwrap_or(0);
    let outputs = TickOutputs {
        pages_sharing: stats.pages_sharing,
        breakdown,
    };
    (outputs, split)
}
