//! Telemetry benchmark: what does *watching* the fleet cost?
//!
//! The monitoring daemon answers queries from the state it publishes at
//! each epoch. Every endpoint but `/guest/<i>` is rendered at publish;
//! a guest's body is rendered from the published breakdown on its first
//! request and kept for the rest of the epoch. So a query is a
//! lock-read plus a string copy, or one guest's render the first time —
//! it never re-walks attribution and never blocks the ticker. This
//! module measures that claim against the natural baseline from
//! `results/BENCH_attribution.json`: the *idle re-sample*, i.e. a warm
//! [`SnapshotEngine`] re-snapshotting an unchanged world (the
//! denominator of that record's 19.8x `idle_speedup`).
//!
//! Three costs per preset, measured while the daemon's world keeps
//! mutating underneath the queries:
//!
//! * **cached query** — in-process answer from the published state
//!   ([`tpslab::Daemon::state_answer`]), the pure query path;
//! * **socket roundtrip** — the same query over the local socket,
//!   connect + HTTP/1.0 + read included;
//! * **concurrent throughput** — several client threads hammering mixed
//!   endpoints at once, reported as queries/second.
//!
//! Acceptance (pinned in `results/BENCH_telemetry.json` and asserted at
//! generation time): at scale256 the cached-query median stays within
//! 2x the idle re-sample median — monitoring 256 guests costs no more
//! than re-sampling them idle, even mid-mutation.
//!
//! [`SnapshotEngine`]: tpslab::analysis::SnapshotEngine

use std::time::{Duration, Instant};

use tpslab::analysis::{GuestView, SnapshotEngine};
use tpslab::{Daemon, DaemonConfig, ExperimentConfig};

use crate::{median, RunOpts};

/// Measured costs of monitoring one preset.
#[derive(Debug, Clone)]
pub struct TelemetryPoint {
    /// Preset label, e.g. `"scale32"`.
    pub preset: String,
    /// Guest count in the fleet.
    pub guests: usize,
    /// Median of a warm engine re-snapshotting an unchanged world, ns.
    pub idle_resample_median_ns: u128,
    /// Median in-process cached query against the live daemon, ns.
    pub cached_query_median_ns: u128,
    /// Median socket roundtrip against the live daemon, ns.
    pub socket_roundtrip_median_ns: u128,
    /// Client threads used for the throughput phase.
    pub concurrent_threads: usize,
    /// Total queries answered in the throughput phase.
    pub concurrent_queries: u64,
    /// Queries per second sustained in the throughput phase.
    pub concurrent_qps: f64,
    /// Simulated seconds the world advanced while being queried —
    /// nonzero proves the measurements ran against a mutating world.
    pub epochs_during_queries: u64,
}

impl TelemetryPoint {
    /// Cached-query median relative to the idle re-sample median
    /// (the ≤ 2.0 acceptance ratio).
    #[must_use]
    pub fn cached_vs_idle(&self) -> f64 {
        self.cached_query_median_ns as f64 / self.idle_resample_median_ns.max(1) as f64
    }

    /// Renders the point as a fixed-field-order JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"preset\":\"{}\",\"guests\":{},\
             \"idle_resample_median_ns\":{},\"cached_query_median_ns\":{},\
             \"socket_roundtrip_median_ns\":{},\"cached_vs_idle\":{:.4},\
             \"concurrent_threads\":{},\"concurrent_queries\":{},\
             \"concurrent_qps\":{:.0},\"epochs_during_queries\":{}}}",
            self.preset,
            self.guests,
            self.idle_resample_median_ns,
            self.cached_query_median_ns,
            self.socket_roundtrip_median_ns,
            self.cached_vs_idle(),
            self.concurrent_threads,
            self.concurrent_queries,
            self.concurrent_qps,
            self.epochs_during_queries,
        )
    }
}

/// Idle re-sample baseline: run the world to its configured duration,
/// warm the engine with one snapshot, then time re-snapshots of the
/// unchanged world (pure epoch short-circuit + segment reuse).
fn idle_resample_median(cfg: &ExperimentConfig, samples: usize) -> u128 {
    let (host, javas) = tpslab::Experiment::build_world(cfg);
    let mut engine = SnapshotEngine::default();
    let views: Vec<GuestView<'_>> = host
        .guests()
        .iter()
        .zip(&javas)
        .map(|(g, j)| GuestView::new(&g.name, &g.os, vec![j.pid()]))
        .collect();
    let _ = engine.snapshot(host.mm(), &views);
    let mut ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let _ = engine.snapshot(host.mm(), &views);
        ns.push(start.elapsed().as_nanos());
    }
    median(ns)
}

/// Measures one preset: idle-re-sample baseline, then cached-query,
/// socket-roundtrip and concurrent-throughput against a live daemon
/// whose world keeps ticking throughout.
///
/// # Panics
///
/// Panics if the daemon cannot be spawned or a query fails — a bench
/// record produced from a broken daemon would be meaningless.
#[must_use]
pub fn bench_point(preset: &str, cfg: &ExperimentConfig, client_threads: usize) -> TelemetryPoint {
    const IDLE_SAMPLES: usize = 9;
    const CACHED_SAMPLES: usize = 501;
    const SOCKET_SAMPLES: usize = 101;
    const QUERIES_PER_THREAD: u64 = 64;

    let guests = cfg.guests.len();
    let idle_ns = idle_resample_median(cfg, IDLE_SAMPLES);

    // A long horizon keeps the ticker mutating the world for the whole
    // measurement window; we never wait for it to finish.
    let daemon_cfg = DaemonConfig::new(cfg.clone().with_duration_seconds(3_600));
    let mut daemon = Daemon::spawn(daemon_cfg).expect("spawn telemetry bench daemon");
    let deadline = Instant::now() + Duration::from_secs(300);
    while daemon.epoch_seconds() < 2 {
        assert!(Instant::now() < deadline, "daemon never published an epoch");
        std::thread::sleep(Duration::from_millis(10));
    }
    let epoch_before = daemon.epoch_seconds();

    let mut cached_ns = Vec::with_capacity(CACHED_SAMPLES);
    for _ in 0..CACHED_SAMPLES {
        let start = Instant::now();
        let body = daemon.state_answer("/guest/0").expect("cached query");
        cached_ns.push(start.elapsed().as_nanos());
        debug_assert!(!body.is_empty());
    }

    let addr = daemon.addr().to_string();
    let mut socket_ns = Vec::with_capacity(SOCKET_SAMPLES);
    for _ in 0..SOCKET_SAMPLES {
        let start = Instant::now();
        let body = tpslab::http_get(&addr, "/guest/0").expect("socket query");
        socket_ns.push(start.elapsed().as_nanos());
        debug_assert!(!body.is_empty());
    }

    // Throughput: every client thread rotates through the endpoint mix
    // while the ticker keeps publishing new epochs underneath.
    let paths = ["/metrics", "/guest/0", "/fleet", "/misses", "/top"];
    let start = Instant::now();
    let handles: Vec<_> = (0..client_threads)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for q in 0..QUERIES_PER_THREAD {
                    let path = paths[(c as u64 + q) as usize % paths.len()];
                    tpslab::http_get(&addr, path).expect("concurrent query");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let concurrent_queries = client_threads as u64 * QUERIES_PER_THREAD;
    let epochs_during_queries = daemon.epoch_seconds().saturating_sub(epoch_before);

    daemon.shutdown();
    daemon.join();

    TelemetryPoint {
        preset: preset.to_string(),
        guests,
        idle_resample_median_ns: idle_ns,
        cached_query_median_ns: median(cached_ns),
        socket_roundtrip_median_ns: median(socket_ns),
        concurrent_threads: client_threads,
        concurrent_queries,
        concurrent_qps: concurrent_queries as f64 / elapsed.max(1e-9),
        epochs_during_queries,
    }
}

/// Runs the full benchmark — scale32 and scale256 — and returns the
/// single-line JSON record committed as `results/BENCH_telemetry.json`.
///
/// # Panics
///
/// Panics if the scale256 cached-query median exceeds 2x its idle
/// re-sample median (the acceptance bound), or if a daemon fails.
#[must_use]
pub fn bench_json(opts: &RunOpts) -> String {
    const CLIENT_THREADS: usize = 4;
    let points = [
        bench_point(
            "scale32",
            &opts.apply(ExperimentConfig::scale32(opts.scale)),
            CLIENT_THREADS,
        ),
        bench_point(
            "scale256",
            &opts.apply(ExperimentConfig::scale256(opts.scale)),
            CLIENT_THREADS,
        ),
    ];
    let at_scale256 = &points[1];
    assert!(
        at_scale256.cached_vs_idle() <= 2.0,
        "scale256 cached-query median {} ns exceeds 2x the idle re-sample \
         median {} ns (ratio {:.2})",
        at_scale256.cached_query_median_ns,
        at_scale256.idle_resample_median_ns,
        at_scale256.cached_vs_idle(),
    );

    let mut out = format!(
        "{{\"benchmark\":\"telemetry\",\
         \"command\":\"cargo run --release -p bench -- telemetry --json --scale {} --minutes {}\",\
         \"scale\":{},\"minutes\":{},\
         \"acceptance\":\"scale256 cached_vs_idle <= 2.0\",\"points\":[",
        opts.scale, opts.minutes, opts.scale, opts.minutes,
    );
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&p.to_json());
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_point_measures_a_live_mutating_daemon() {
        let cfg = ExperimentConfig::tiny_test(2, true).with_duration_seconds(30);
        let p = bench_point("tiny", &cfg, 2);
        assert_eq!(p.guests, 2);
        assert!(p.idle_resample_median_ns > 0);
        assert!(p.cached_query_median_ns > 0);
        assert!(p.socket_roundtrip_median_ns >= p.cached_query_median_ns);
        assert!(p.concurrent_qps > 0.0);
        assert_eq!(p.concurrent_queries, 128);
        let json = p.to_json();
        assert!(json.contains("\"preset\":\"tiny\""), "got: {json}");
        assert!(json.contains("\"cached_vs_idle\""), "got: {json}");
    }
}
