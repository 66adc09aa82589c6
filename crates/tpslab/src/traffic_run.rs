//! The request-driven traffic experiment runner.
//!
//! [`Experiment::run_traffic`] replaces the tick-scripted workload side
//! of [`Experiment::run`] with the discrete-event engine from the
//! [`traffic`] crate: seeded request arrivals on a scenario's offered-
//! load curve drive allocation, GC pressure, JIT warm-up and page
//! dirtying in the guest JVMs, while fleet-churn events (rolling-deploy
//! restarts, autoscale add/remove) reshape the fleet mid-run. The KSM
//! scanner runs exactly as in the tick model — the experiment measures
//! how stable its sharing stays under realistic traffic.
//!
//! This module is the traffic [`Drive`] of the one [`World`]
//! (DESIGN.md §14): each tick drains the events due from the engine's
//! queue and applies them live, in `(due_tick, seq)` order.
//! Per-guest serving capacity is snapshotted once per batch, *before*
//! any event applies, so every request's served/shed split is a pure
//! function of batch-start state. `run_traffic` is a plain loop over
//! [`World::step`]; the `tpsd` ticker steps the same world and pauses
//! between simulated seconds to publish, so the two paths are identical
//! by construction.
//!
//! Costs follow the engine's invariant: a guest only pays when an event
//! addresses it. Kernel background churn is batched — each guest
//! remembers the last tick it was advanced to and catches up in one
//! [`tick_many`](oskernel::GuestOs::tick_many) call at its next event —
//! so a fleet that is mostly idle costs O(pending events), not
//! O(guests), per tick. A traffic run is serial, and its report is
//! byte-identical across reruns and platforms (see DESIGN.md §11).

use crate::run::{cold_estimate_mib, tlb_boost};
use crate::world::{Drive, GuestSlot, World};
use crate::{Error, Experiment, ExperimentConfig};
use hypervisor::{KvmHost, PagingModel};
use jvm::{JavaVm, RequestCost};
use ksm::KsmStats;
use mem::Tick;
use obs::EventKind;
use oskernel::GuestOs;
use paging::HostMm;
use std::fmt::Write as _;
use std::time::Instant;
use traffic::{Scenario, TrafficEngine, TrafficSpec};
use workloads::{Workload, WorkloadEvent};

/// Seconds between sharing samples in a traffic run.
const SAMPLE_SECONDS: u64 = 10;

/// One sharing/throughput sample of a traffic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSample {
    /// Simulated seconds since the start of the run.
    pub seconds: f64,
    /// Guests running a JVM at the sample point.
    pub active_guests: usize,
    /// Requests offered fleet-wide since the previous sample.
    pub offered: u64,
    /// Requests served fleet-wide since the previous sample.
    pub served: u64,
    /// `pages_sharing` at the sample point (freshly recounted).
    pub pages_sharing: u64,
}

/// What a traffic run reports: throughput under over-commit versus the
/// offered load, fleet churn counts, and how stable KSM's sharing stayed
/// while traffic reshaped guest memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficReport {
    /// Scenario name ([`Scenario::name`]).
    pub scenario: String,
    /// Initial fleet size.
    pub guests: usize,
    /// Run length, seconds.
    pub duration_seconds: u64,
    /// Requests offered fleet-wide over the whole run.
    pub offered: u64,
    /// Requests served fleet-wide over the whole run.
    pub served: u64,
    /// Requests shed (offered while over capacity or with no JVM).
    pub dropped: u64,
    /// Rolling-deploy JVM restarts performed.
    pub restarts: u64,
    /// Autoscale guest additions performed.
    pub scale_ups: u64,
    /// Autoscale guest drains performed.
    pub scale_downs: u64,
    /// Mean served throughput, requests/sec over the run.
    pub throughput_rps: f64,
    /// Sharing stability over the second half of the run:
    /// `1 − mean |Δ pages_sharing| / mean pages_sharing` across samples,
    /// clamped to `[0, 1]`. `1.0` means sharing held perfectly steady
    /// under the traffic; rolling deploys and flash crowds push it down.
    pub sharing_stability: f64,
    /// Final host-resident memory, MiB.
    pub resident_mib: f64,
    /// Final KSM counters (freshly recounted).
    pub ksm: KsmStats,
    /// Host memory mapped through 2 MiB huge frames at the end of the
    /// run, MiB. Zero under the default `ThpPolicy::Never` — and then
    /// omitted from [`render`](Self::render), keeping the non-THP golden
    /// byte-identical.
    pub huge_mib: f64,
    /// Per-interval samples, one every `SAMPLE_SECONDS` of simulated
    /// time.
    pub samples: Vec<TrafficSample>,
    /// Per-guest request tallies over the whole run, indexed by guest
    /// slot. Sums across guests equal the fleet-wide
    /// `offered`/`served`/`dropped` fields. Not rendered (the golden
    /// text predates it); exported through
    /// [`record_metrics`](Self::record_metrics) and the daemon.
    pub per_guest: Vec<GuestTraffic>,
}

/// One guest's request tallies over a traffic run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuestTraffic {
    /// Requests routed to this guest.
    pub offered: u64,
    /// Requests this guest served within capacity.
    pub served: u64,
    /// Requests shed (over capacity, or routed while drained).
    pub dropped: u64,
}

/// Wall-clock nanoseconds a traffic run spent in each step phase,
/// accumulated across every tick: a view of the world's profiled
/// phases. Wall-clock only — never part of [`TrafficReport`] or any
/// golden; exported as `Wall`-class metrics by the daemon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficWall {
    /// Draining due events out of the engine's queue
    /// (`traffic_drain`).
    pub drain_ns: u64,
    /// The per-batch serving-capacity snapshot taken before a batch's
    /// events apply (`traffic_plan`). Named for the plan phase it once
    /// timed: the daemon's `traffic_plan_wall_ns_total` series and
    /// `perfbench` read it under that name.
    pub plan_ns: u64,
    /// Applying the batch's events to guests, JVMs and host memory
    /// (`traffic_commit`).
    pub commit_ns: u64,
    /// khugepaged, the KSM scanner and sharing samples (`thp_scan`,
    /// `ksm_scan` and `timeline_sample`).
    pub scan_ns: u64,
    /// Always 0: the KSM wake no longer has a pool-parallel share of
    /// [`scan_ns`](Self::scan_ns). Kept only because `perfbench` reads
    /// it; it goes at the next change to the benchmark.
    pub scan_parallel_ns: u64,
}

impl TrafficWall {
    /// Total step time across all phases.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.drain_ns + self.plan_ns + self.commit_ns + self.scan_ns
    }
}

impl TrafficReport {
    /// Renders the report as the deterministic text table pinned by
    /// `tests/golden/traffic.txt`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "traffic {} | {} guests | {} s",
            self.scenario, self.guests, self.duration_seconds
        );
        let _ = writeln!(
            out,
            "offered {} | served {} | shed {} | throughput {:.2} r/s",
            self.offered, self.served, self.dropped, self.throughput_rps
        );
        let _ = writeln!(
            out,
            "restarts {} | scale-ups {} | scale-downs {}",
            self.restarts, self.scale_ups, self.scale_downs
        );
        let _ = writeln!(
            out,
            "sharing stability {:.3} | final pages_sharing {} | resident {:.1} MiB",
            self.sharing_stability, self.ksm.pages_sharing, self.resident_mib
        );
        if self.huge_mib > 0.0 {
            let _ = writeln!(
                out,
                "thp huge {:.1} MiB | thp splits {}",
                self.huge_mib, self.ksm.thp_splits
            );
        }
        let _ = writeln!(
            out,
            "{:>8} {:>7} {:>8} {:>7} {:>8}",
            "seconds", "active", "offered", "served", "sharing"
        );
        for s in &self.samples {
            let _ = writeln!(
                out,
                "{:>8.0} {:>7} {:>8} {:>7} {:>8}",
                s.seconds, s.active_guests, s.offered, s.served, s.pages_sharing
            );
        }
        out
    }

    /// Exports the run's deterministic traffic counters into `reg`:
    /// fleet-wide and per-guest offered/served/shed, churn counts, and
    /// the sharing-stability gauge. All series are simulated-state and
    /// byte-identical at any thread count.
    pub fn record_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.counter(
            "traffic_offered_total",
            "Requests offered fleet-wide.",
            &[],
            self.offered,
        );
        reg.counter(
            "traffic_served_total",
            "Requests served fleet-wide.",
            &[],
            self.served,
        );
        reg.counter(
            "traffic_shed_total",
            "Requests shed fleet-wide (over capacity or drained).",
            &[],
            self.dropped,
        );
        reg.counter(
            "traffic_restarts_total",
            "Rolling-deploy JVM restarts performed.",
            &[],
            self.restarts,
        );
        reg.counter(
            "traffic_scale_ups_total",
            "Autoscale guest additions performed.",
            &[],
            self.scale_ups,
        );
        reg.counter(
            "traffic_scale_downs_total",
            "Autoscale guest drains performed.",
            &[],
            self.scale_downs,
        );
        reg.gauge(
            "traffic_sharing_stability",
            "1 - mean |delta pages_sharing| / mean pages_sharing over the run's second half.",
            &[],
            self.sharing_stability,
        );
        const GUEST_HELP: &str = "Per-guest request tallies over the run.";
        for (i, g) in self.per_guest.iter().enumerate() {
            let idx = i.to_string();
            reg.counter(
                "traffic_guest_offered_total",
                GUEST_HELP,
                &[("guest", &idx)],
                g.offered,
            );
            reg.counter(
                "traffic_guest_served_total",
                GUEST_HELP,
                &[("guest", &idx)],
                g.served,
            );
            reg.counter(
                "traffic_guest_shed_total",
                GUEST_HELP,
                &[("guest", &idx)],
                g.dropped,
            );
        }
    }
}

/// The traffic [`Drive`] of a [`World`]: the event engine, the inputs of
/// the per-batch capacity snapshot and the running report.
pub(crate) struct Traffic {
    engine: TrafficEngine,
    healthy_rps: f64,
    cold_per_guest: Vec<f64>,
    window_offered: u64,
    window_served: u64,
    /// The report so far. Tallies and samples are current after every
    /// step; [`World::finish_traffic`] fills in the end-of-run fields,
    /// the sharing stability among them.
    pub(crate) report: TrafficReport,
}

impl Traffic {
    /// The engine and an empty report for `config`'s fleet under
    /// `scenario`.
    pub(crate) fn new(config: &ExperimentConfig, scenario: &Scenario) -> Traffic {
        let healthy_rps = config.guests[0].benchmark.drive.healthy_rps();
        let startup_seconds = config
            .guests
            .iter()
            .map(|g| g.benchmark.profile.class_load_seconds)
            .fold(0.0_f64, f64::max)
            .ceil() as u64;
        let guests = config.guests.len();
        let engine = TrafficEngine::new(TrafficSpec {
            scenario: *scenario,
            guests,
            healthy_rps,
            startup_seconds: startup_seconds.max(1),
            duration_seconds: config.duration_seconds,
            seed: config.seed,
        });
        Traffic {
            engine,
            healthy_rps,
            cold_per_guest: config
                .guests
                .iter()
                .map(|g| cold_estimate_mib(config, g))
                .collect(),
            window_offered: 0,
            window_served: 0,
            report: TrafficReport {
                scenario: scenario.name.to_string(),
                guests,
                duration_seconds: config.duration_seconds,
                sharing_stability: 0.0,
                per_guest: vec![GuestTraffic::default(); guests],
                ..TrafficReport::default()
            },
        }
    }

    /// Serving capacity per guest for one batch, snapshotted before any
    /// of its events apply: one healthy second of service, inflated by
    /// the memory-pressure slowdown and credited for TLB reach from
    /// whatever fraction of memory is huge-mapped. Offered load past it
    /// is shed. A single pre-batch snapshot (rather than a lazy
    /// per-second cache) makes every request's served/shed split a pure
    /// function of batch-start state. Empty when the batch carries no
    /// requests.
    fn capacity(
        &self,
        host: &KvmHost,
        slots: &[GuestSlot],
        config: &ExperimentConfig,
        batch: &[(Tick, WorkloadEvent)],
    ) -> Vec<u64> {
        if !batch
            .iter()
            .any(|(_, e)| matches!(e, WorkloadEvent::Requests { .. }))
        {
            return Vec::new();
        }
        let cold_active: f64 = slots
            .iter()
            .zip(&self.cold_per_guest)
            .filter(|(s, _)| s.java.is_some())
            .map(|(_, c)| *c)
            .sum();
        let model = PagingModel::default();
        let resident = host.resident_mib();
        // Exactly 1.0 with no huge pages, so non-THP capacity is
        // unchanged by the TLB-reach credit.
        let boost = tlb_boost(host, &model);
        self.cold_per_guest
            .iter()
            .map(|&cold| {
                let slowdown = model.slowdown(
                    resident,
                    config.host.ram_mib,
                    config.host.reserve_mib,
                    cold_active + cold,
                );
                (self.healthy_rps * (slowdown * boost).min(1.0))
                    .ceil()
                    .max(1.0) as u64
            })
            .collect()
    }

    /// Tallies one request batch routed to `guest`.
    fn tally(&mut self, guest: usize, offered: u64, served: u64) {
        let dropped = offered - served;
        let report = &mut self.report;
        report.offered += offered;
        report.served += served;
        report.dropped += dropped;
        let g = &mut report.per_guest[guest];
        g.offered += offered;
        g.served += served;
        g.dropped += dropped;
        self.window_offered += offered;
        self.window_served += served;
    }
}

impl World {
    /// The traffic drive's tick: drains the events due by `now` and
    /// applies them live, in `(due_tick, seq)` order, against one
    /// batch-start capacity snapshot.
    pub(crate) fn apply_due(&mut self, now: Tick) {
        let Drive::Traffic(traffic) = &mut self.drive else {
            unreachable!("apply_due runs under a traffic drive");
        };
        let drain_started = Instant::now();
        let batch = traffic.engine.events_until(now);
        self.prof.end("traffic_drain", drain_started, 1, 0);
        if batch.is_empty() {
            return;
        }
        let plan_started = Instant::now();
        let caps = traffic.capacity(&self.host, &self.slots, &self.config, &batch);
        self.prof.end("traffic_plan", plan_started, 0, 0);
        let commit_started = Instant::now();
        for &(at, event) in &batch {
            self.apply(at, event, &caps);
        }
        self.prof.end("traffic_commit", commit_started, 0, 0);
    }

    /// The traffic drive's end of tick, after the host daemons ran: a
    /// recounted (and audited) sharing sample, the `timeline_sample`
    /// phase, on the sample cadence and at the last tick.
    pub(crate) fn end_traffic_tick(&mut self, now: Tick) {
        let end = Tick::from_seconds(self.config.duration_seconds as f64);
        if now.0.is_multiple_of(SAMPLE_SECONDS * mem::TICKS_PER_SECOND) || now == end {
            let sample_started = Instant::now();
            self.recount();
            let active_guests = self.slots.iter().filter(|s| s.java.is_some()).count();
            let pages_sharing = self.scanner.stats().pages_sharing;
            let traffic = self.traffic_mut();
            traffic.report.samples.push(TrafficSample {
                seconds: now.as_seconds(),
                active_guests,
                offered: std::mem::take(&mut traffic.window_offered),
                served: std::mem::take(&mut traffic.window_served),
                pages_sharing,
            });
            self.prof.end("timeline_sample", sample_started, 0, 0);
        }
    }

    /// The step's wall time so far, as [`TrafficWall`]'s view of the
    /// profiled phases.
    pub(crate) fn traffic_wall(&self) -> TrafficWall {
        let p = &self.prof;
        TrafficWall {
            drain_ns: p.nanos("traffic_drain"),
            plan_ns: p.nanos("traffic_plan"),
            commit_ns: p.nanos("traffic_commit"),
            scan_ns: p.nanos("thp_scan") + p.nanos("ksm_scan") + p.nanos("timeline_sample"),
            scan_parallel_ns: 0,
        }
    }

    /// Ends a traffic run: settles every still-active guest's kernel
    /// churn (one batched call each) so the final accounting does not
    /// depend on who happened to get the last request, recounts and
    /// audits, and fills in the report's end-of-run fields.
    fn finish_traffic(mut self) -> (TrafficReport, TrafficWall) {
        let end = Tick::from_seconds(self.config.duration_seconds as f64);
        for (guest, slot) in self.slots.iter_mut().enumerate() {
            if slot.java.is_some() {
                let (mm, g) = self.host.mm_and_guest_mut(guest);
                catch_up(mm, &mut g.os, &mut slot.churned_to, end);
            }
        }
        self.recount();
        let wall = self.traffic_wall();
        let Drive::Traffic(traffic) = self.drive else {
            unreachable!("finish_traffic ends a traffic run");
        };
        let mut report = traffic.report;
        report.sharing_stability = stability(&report.samples);
        report.ksm = self.scanner.stats();
        report.resident_mib = self.host.resident_mib();
        report.huge_mib = self.host.huge_mib();
        report.throughput_rps = report.served as f64 / self.config.duration_seconds as f64;
        (report, wall)
    }

    fn traffic_mut(&mut self) -> &mut Traffic {
        match &mut self.drive {
            Drive::Traffic(traffic) => traffic,
            Drive::Scripted => unreachable!("only a traffic drive has traffic state"),
        }
    }

    /// Applies one workload event live. `caps` is the batch-start
    /// capacity snapshot.
    fn apply(&mut self, at: Tick, event: WorkloadEvent, caps: &[u64]) {
        match event {
            WorkloadEvent::StartupTick { guest } => {
                self.with_java(guest, at, |java, mm, os, _| {
                    java.advance_startup(mm, os, at);
                });
            }
            WorkloadEvent::Requests { guest, offered } => {
                // A drained guest sheds everything still routed to it
                // in the hand-off second.
                let served = if self.slots[guest].java.is_some() {
                    offered.min(caps[guest])
                } else {
                    0
                };
                let dropped = offered - served;
                self.traffic_mut().tally(guest, offered, served);
                self.with_java(guest, at, |java, mm, os, cost| {
                    java.serve_requests(mm, os, cost, served, at);
                    mm.tracer().set_now(at.0);
                    mm.tracer().emit_with(|| EventKind::RequestServe {
                        pid: java.pid().0,
                        served,
                        dropped,
                    });
                });
            }
            WorkloadEvent::RestartGuest { guest } => {
                self.traffic_mut().report.restarts += 1;
                self.relaunch(guest, at);
            }
            WorkloadEvent::AddGuest { guest } => {
                self.traffic_mut().report.scale_ups += 1;
                if self.slots[guest].java.is_none() {
                    // Skip the idle gap: a drained guest's kernel was
                    // quiesced, not accruing churn debt.
                    self.slots[guest].churned_to = at.0;
                    self.relaunch(guest, at);
                }
            }
            WorkloadEvent::RemoveGuest { guest } => {
                self.traffic_mut().report.scale_downs += 1;
                let slot = &mut self.slots[guest];
                if let Some(java) = slot.java.take() {
                    let (mm, g) = self.host.mm_and_guest_mut(guest);
                    catch_up(mm, &mut g.os, &mut slot.churned_to, at);
                    g.os.kill(mm, java.pid());
                    slot.pids.clear();
                }
            }
            WorkloadEvent::Phase { phase, offered_rps } => {
                let tracer = self.host.mm().tracer();
                tracer.set_now(at.0);
                tracer.emit_with(|| EventKind::TrafficPhase {
                    phase,
                    offered_rps: offered_rps.round() as u64,
                });
            }
        }
    }

    /// Catches guest `guest`'s kernel churn up to `at`, then runs `f` on
    /// its JVM. A guest with no JVM running is left alone.
    fn with_java(
        &mut self,
        guest: usize,
        at: Tick,
        f: impl FnOnce(&mut JavaVm, &mut HostMm, &mut GuestOs, &RequestCost),
    ) {
        let slot = &mut self.slots[guest];
        let Some(java) = slot.java.as_mut() else {
            return;
        };
        let (mm, g) = self.host.mm_and_guest_mut(guest);
        catch_up(mm, &mut g.os, &mut slot.churned_to, at);
        f(java, mm, &mut g.os, &slot.cost);
    }

    /// Kills the guest's current JVM (if any) and launches a fresh one:
    /// the next launch generation, with its own copy of the shared class
    /// cache.
    fn relaunch(&mut self, guest: usize, at: Tick) {
        let slot = &mut self.slots[guest];
        let (mm, g) = self.host.mm_and_guest_mut(guest);
        catch_up(mm, &mut g.os, &mut slot.churned_to, at);
        slot.generation += 1;
        if let Some(java) = slot.java.take() {
            g.os.kill(mm, java.pid());
        }
        self.launch(guest, at);
    }
}

impl Experiment {
    /// Runs `config`'s fleet under `scenario`'s request traffic instead
    /// of the tick-scripted workload. Deterministic in `config.seed`:
    /// the same config and scenario give a byte-identical report.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Error`] when the configuration is not runnable
    /// (see [`ExperimentConfig::validate`]).
    pub fn run_traffic(
        config: &ExperimentConfig,
        scenario: &Scenario,
    ) -> Result<TrafficReport, Error> {
        Ok(Self::run_traffic_timed(config, scenario)?.0)
    }

    /// [`run_traffic`](Self::run_traffic), also returning the wall-clock
    /// phase breakdown. The report is deterministic; the
    /// [`TrafficWall`] is wall-clock and varies run to run.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Error`] when the configuration is not runnable
    /// (see [`ExperimentConfig::validate`]).
    pub fn run_traffic_timed(
        config: &ExperimentConfig,
        scenario: &Scenario,
    ) -> Result<(TrafficReport, TrafficWall), Error> {
        config.validate()?;
        let mut world = World::new(config, Some(scenario));
        for t in 1..=Tick::from_seconds(config.duration_seconds as f64).0 {
            world.step(t);
        }
        Ok(world.finish_traffic())
    }
}

/// Advances a guest's kernel background churn from wherever it last ran
/// to `at`, in one batched call.
fn catch_up(mm: &mut HostMm, os: &mut GuestOs, churned_to: &mut u64, at: Tick) {
    let ticks = at.0.saturating_sub(*churned_to);
    if ticks > 0 {
        os.tick_many(mm, at, ticks as u32);
        *churned_to = at.0;
    }
}

/// Sharing stability over the second half of the samples: how little
/// `pages_sharing` moved between consecutive samples once the fleet
/// warmed up, as `1 − mean |Δ| / mean level`, clamped to `[0, 1]`.
fn stability(samples: &[TrafficSample]) -> f64 {
    let tail = &samples[samples.len() / 2..];
    if tail.len() < 2 {
        return 1.0;
    }
    let mean = tail.iter().map(|s| s.pages_sharing as f64).sum::<f64>() / tail.len() as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    let mean_delta = tail
        .windows(2)
        .map(|w| (w[1].pages_sharing as f64 - w[0].pages_sharing as f64).abs())
        .sum::<f64>()
        / (tail.len() - 1) as f64;
    (1.0 - mean_delta / mean).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, seconds: u64) -> ExperimentConfig {
        ExperimentConfig::tiny_test(n, true).with_duration_seconds(seconds)
    }

    #[test]
    fn constant_traffic_serves_most_of_the_offered_load() {
        let report = Experiment::run_traffic(&cfg(2, 60), &Scenario::constant()).unwrap();
        assert!(report.offered > 0);
        assert!(report.served > 0);
        assert!(
            report.served as f64 >= 0.5 * report.offered as f64,
            "served {} of {}",
            report.served,
            report.offered
        );
        assert_eq!(report.offered, report.served + report.dropped);
        assert!(report.ksm.pages_sharing > 0);
        assert_eq!(report.samples.len(), 6);
    }

    #[test]
    fn traffic_runs_are_deterministic() {
        let base = cfg(2, 60);
        let scenario = Scenario::flash_crowd(60);
        let a = Experiment::run_traffic(&base, &scenario).unwrap();
        let b = Experiment::run_traffic(&base, &scenario).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a, b);
    }

    #[test]
    fn wall_phases_are_recorded_and_stay_out_of_the_report() {
        let started = Instant::now();
        let (report, wall) =
            Experiment::run_traffic_timed(&cfg(2, 30), &Scenario::constant()).unwrap();
        let elapsed = started.elapsed().as_nanos() as u64;
        for (phase, ns) in [
            ("drain", wall.drain_ns),
            ("plan", wall.plan_ns),
            ("commit", wall.commit_ns),
            ("scan", wall.scan_ns),
        ] {
            assert!(ns > 0, "{phase}: {wall:?}");
        }
        assert_eq!(wall.scan_parallel_ns, 0);
        // The phases are sections of the call, so never more than it.
        assert!(wall.total_ns() <= elapsed, "{wall:?} over {elapsed} ns");
        // Same config, fresh run: the deterministic report matches even
        // though the wall numbers will not.
        let again = Experiment::run_traffic(&cfg(2, 30), &Scenario::constant()).unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn thp_traffic_reports_huge_memory_and_stays_deterministic() {
        use crate::KsmSchedule;
        use ksm::KsmParams;
        use paging::ThpPolicy;
        // KSM off, so the collapsed blocks survive to the final report.
        let no_ksm = KsmSchedule {
            warmup: KsmParams::new(0, 100),
            steady: KsmParams::new(0, 100),
            warmup_seconds: 0,
        };
        let config = cfg(2, 60).with_ksm(no_ksm).with_thp(ThpPolicy::Always);
        let a = Experiment::run_traffic(&config, &Scenario::constant()).unwrap();
        let again = Experiment::run_traffic(&config, &Scenario::constant()).unwrap();
        assert_eq!(a, again);
        assert!(a.huge_mib > 0.0, "huge {}", a.huge_mib);
        assert!(a.render().contains("thp huge"));
        // The non-THP render carries no THP line at all.
        let plain = Experiment::run_traffic(&cfg(2, 60), &Scenario::constant()).unwrap();
        assert_eq!(plain.huge_mib, 0.0);
        assert!(!plain.render().contains("thp"));
    }

    #[test]
    fn rolling_deploy_restarts_and_recovers_sharing() {
        let scenario = Scenario::rolling_deploy(90, 3);
        let report = Experiment::run_traffic(&cfg(3, 90), &scenario).unwrap();
        assert_eq!(report.restarts, 3);
        assert!(
            report.ksm.pages_sharing > 0,
            "sharing re-merged after waves"
        );
    }

    #[test]
    fn autoscale_changes_the_active_fleet() {
        let scenario = Scenario::autoscale(90, 4);
        let report = Experiment::run_traffic(&cfg(4, 90), &scenario).unwrap();
        assert!(report.scale_downs > 0);
        assert!(report.scale_ups > 0);
        let active: Vec<usize> = report.samples.iter().map(|s| s.active_guests).collect();
        assert!(
            active.iter().any(|&a| a < 4),
            "active never dipped: {active:?}"
        );
    }

    #[test]
    fn noisy_neighbor_serves_with_scaled_cost() {
        let report = Experiment::run_traffic(&cfg(2, 60), &Scenario::noisy_neighbor()).unwrap();
        assert!(report.served > 0);
    }

    #[test]
    fn invalid_configs_yield_typed_errors() {
        let mut empty = cfg(2, 60);
        empty.guests.clear();
        assert_eq!(
            Experiment::run_traffic(&empty, &Scenario::constant()).unwrap_err(),
            Error::NoGuests
        );
        let zero = cfg(2, 0);
        assert_eq!(
            Experiment::run_traffic(&zero, &Scenario::constant()).unwrap_err(),
            Error::ZeroDuration
        );
    }

    #[test]
    fn report_renders_golden_shaped_text() {
        let report = Experiment::run_traffic(&cfg(1, 30), &Scenario::constant()).unwrap();
        let text = report.render();
        assert!(text.starts_with("traffic constant | 1 guests | 30 s\n"));
        assert!(text.contains("sharing stability"));
        assert!(text.lines().count() >= 7, "got:\n{text}");
    }
}
