//! Fleet-scale traffic serving benchmark
//! (`results/BENCH_fleet_traffic.json`, `tests/golden/fleet_traffic.txt`).
//!
//! Where `bench::traffic` prices the event engine on a miniature fleet,
//! this module drives the **fleet presets** (`scale256`, `scale1024`)
//! through [`Experiment::run_traffic`] — hundreds to a thousand guest
//! JVMs serving a flash crowd (DESIGN.md §14):
//!
//! * [`golden_text`] — a deterministic two-combo report pinned at
//!   `tests/golden/fleet_traffic.txt`, rendered byte-identically at any
//!   `--threads` value (the golden test diffs 1 against 4 threads, which
//!   pins the KSM scanner's sharded wake).
//! * [`bench_json`] — measured 1- and 8-thread wall-clock with the
//!   per-phase split at scale256 plus a completing scale1024 run, each
//!   8-thread report asserted identical to its 1-thread one.

use std::fmt::Write as _;
use std::time::Instant;

use tpslab::traffic::Scenario;
use tpslab::{Experiment, ExperimentConfig, TrafficWall};

/// Memory scale divisor for every fleet combo: the paper's Fig. 8
/// over-commit ratio preserved while each guest shrinks enough that a
/// thousand of them fit a test run.
const SCALE: f64 = 512.0;

/// Simulated seconds per measured combo — long enough for the flash
/// crowd's spike (middle sixth) to land inside the run.
const BENCH_SECONDS: u64 = 60;

/// Simulated seconds for the golden combos (kept short: the golden
/// test renders this twice, at 1 and 4 threads).
const GOLDEN_SECONDS: u64 = 30;

/// A fleet-preset traffic configuration at `guests` guests.
#[must_use]
pub fn fleet_config(guests: usize, seconds: u64, threads: usize) -> ExperimentConfig {
    let cfg = match guests {
        256 => ExperimentConfig::scale256(SCALE),
        1024 => ExperimentConfig::scale1024(SCALE),
        n => ExperimentConfig::fleet(n, SCALE),
    };
    cfg.with_duration_seconds(seconds).with_threads(threads)
}

/// The golden combos: a mid-size fleet under two scenarios that load
/// the KSM scanner's sharded wake differently — flash-crowd (every
/// guest busy, the most pages dirtied per wake) and rolling-deploy
/// (guests relaunched mid-run, dropping and re-merging their JVMs'
/// pages).
fn golden_combos() -> [(usize, Scenario); 2] {
    [
        (64, Scenario::flash_crowd(GOLDEN_SECONDS)),
        (64, Scenario::rolling_deploy(GOLDEN_SECONDS, 64)),
    ]
}

/// Renders the deterministic fleet-traffic report pinned at
/// `tests/golden/fleet_traffic.txt`. Thread count is deliberately
/// absent from the text: the golden test renders it at 1 and 4 threads
/// and requires byte identity.
///
/// # Panics
///
/// Panics if a fixed golden configuration fails validation (it never
/// does; the panic is the test harness's failure mode).
#[must_use]
pub fn golden_text(threads: usize) -> String {
    let mut out = String::new();
    for (guests, scenario) in golden_combos() {
        let cfg = fleet_config(guests, GOLDEN_SECONDS, threads);
        let report = Experiment::run_traffic(&cfg, &scenario).expect("golden config is valid");
        out.push_str(&report.render());
        out.push('\n');
    }
    out
}

/// One measured fleet combo.
struct Measured {
    guests: usize,
    scenario: &'static str,
    offered: u64,
    served: u64,
    restarts: u64,
    sharing_stability: f64,
    serial: TrafficWall,
    sharded: TrafficWall,
    measured_1t_ms: f64,
    measured_8t_ms: f64,
}

fn measure(guests: usize, scenario: &Scenario) -> Measured {
    // Serial run: everything on the calling thread.
    let cfg1 = fleet_config(guests, BENCH_SECONDS, 1);
    let start = Instant::now();
    let (report, serial) =
        Experiment::run_traffic_timed(&cfg1, scenario).expect("bench config is valid");
    let measured_1t_ms = start.elapsed().as_secs_f64() * 1e3;

    // Sharded run: honest 8-thread wall-clock on this host, whatever
    // its core count — asserted byte-identical to the serial run.
    let cfg8 = fleet_config(guests, BENCH_SECONDS, 8);
    let start = Instant::now();
    let (report8, sharded) =
        Experiment::run_traffic_timed(&cfg8, scenario).expect("bench config is valid");
    let measured_8t_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report, report8, "thread count changed the traffic report");

    Measured {
        guests,
        scenario: scenario.name,
        offered: report.offered,
        served: report.served,
        restarts: report.restarts,
        sharing_stability: report.sharing_stability,
        serial,
        sharded,
        measured_1t_ms,
        measured_8t_ms,
    }
}

/// Measures the fleet traffic combos and prints the record committed as
/// `results/BENCH_fleet_traffic.json`.
///
/// # Panics
///
/// Panics if a configuration fails validation, if an 8-thread run's
/// report diverges from the serial run's, or if the scale1024 run
/// served no traffic.
#[must_use]
pub fn bench_json() -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"benchmark\": \"sharded traffic engine: fleet-scale request serving at scale256/scale1024\","
    );
    let _ = writeln!(out, "  \"source\": \"crates/bench/src/fleet_traffic.rs\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p bench -- fleet_traffic --json\","
    );
    let _ = writeln!(
        out,
        "  \"workload\": \"fleet presets at memory scale 1/{SCALE:.0}, {BENCH_SECONDS} s simulated flash crowd; every guest JVM serves seeded request batches while KSM scans\","
    );
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(
        out,
        "  \"measurement_note\": \"measured_*_ms are whole-run wall-clock on this host ({host_cores} core(s)), one run each; the *_ns fields split each run by step phase: drain, plan (the per-batch capacity snapshot), commit (applying events) and scan (khugepaged, the KSM wake and samples), of which scan_parallel_ns is the KSM classify+resolve share that runs on the worker pool\","
    );
    let _ = writeln!(out, "  \"combos\": [");
    let combos = [
        (256usize, Scenario::flash_crowd(BENCH_SECONDS)),
        (1024usize, Scenario::flash_crowd(BENCH_SECONDS)),
    ];
    let mut points = Vec::new();
    for (guests, scenario) in combos {
        points.push(measure(guests, &scenario));
    }
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"guests\": {},", p.guests);
        let _ = writeln!(out, "      \"scenario\": \"{}\",", p.scenario);
        let _ = writeln!(out, "      \"offered\": {},", p.offered);
        let _ = writeln!(out, "      \"served\": {},", p.served);
        let _ = writeln!(out, "      \"restarts\": {},", p.restarts);
        let _ = writeln!(
            out,
            "      \"sharing_stability\": {:.4},",
            p.sharing_stability
        );
        let _ = writeln!(out, "      \"serial_drain_ns\": {},", p.serial.drain_ns);
        let _ = writeln!(out, "      \"serial_commit_ns\": {},", p.serial.commit_ns);
        let _ = writeln!(out, "      \"serial_scan_ns\": {},", p.serial.scan_ns);
        let _ = writeln!(out, "      \"sharded_drain_ns\": {},", p.sharded.drain_ns);
        let _ = writeln!(out, "      \"sharded_plan_ns\": {},", p.sharded.plan_ns);
        let _ = writeln!(out, "      \"sharded_commit_ns\": {},", p.sharded.commit_ns);
        let _ = writeln!(out, "      \"sharded_scan_ns\": {},", p.sharded.scan_ns);
        let _ = writeln!(
            out,
            "      \"sharded_scan_parallel_ns\": {},",
            p.sharded.scan_parallel_ns
        );
        let _ = writeln!(out, "      \"measured_1t_ms\": {:.3},", p.measured_1t_ms);
        let _ = writeln!(out, "      \"measured_8t_ms\": {:.3}", p.measured_8t_ms);
        let _ = writeln!(out, "    }}{}", if i + 1 < points.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"equivalence\": \"every 8-thread run is asserted report-identical to its serial run; the fleet-traffic golden report is byte-identical at 1 vs 4 threads (tests/golden/fleet_traffic.txt)\""
    );
    out.push_str("}\n");

    // The scale1024 run must have completed with real traffic served.
    let p1024 = &points[1];
    assert!(
        p1024.guests == 1024 && p1024.served > 0,
        "scale1024 run did not serve traffic"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_combos_cover_both_scenario_classes() {
        let names: Vec<&str> = golden_combos().iter().map(|(_, s)| s.name).collect();
        assert!(names.contains(&"flash-crowd"));
        assert!(names.contains(&"rolling-deploy"));
    }
}
