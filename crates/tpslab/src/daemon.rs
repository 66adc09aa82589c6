//! `tpsd`: the persistent fleet-monitoring daemon (DESIGN.md §13).
//!
//! The paper's headline signals — shared MiB, merge rates, over-commit
//! throughput — are what a production fleet operator watches
//! continuously. [`Daemon`] turns the simulator into that monitoring
//! service: a **ticker thread** owns the ticking world (the [`HostMm`]
//! stack is deliberately not `Sync`, so all mutation stays on one
//! thread) and, once per simulated second, publishes a fully rendered
//! [`ServedState`] — Prometheus-style metrics text, per-guest
//! attribution JSON, a `diagnose_misses` breakdown and a `top`-style
//! fleet table — behind an `Arc<RwLock>`. Query threads (one per
//! accepted connection on a local socket) answer from that published
//! state, so queries are served **from cached segments while the world
//! keeps mutating** and never block the ticker.
//!
//! Attribution stays warm across epochs: one [`SnapshotEngine`] lives
//! for the daemon's lifetime, so each publish re-walks only the address
//! spaces whose region generations moved since the previous second
//! (and none at all on an idle world, via the epoch short-circuit).
//! After the final epoch the world no longer changes: the daemon keeps
//! serving that epoch's answers and refreshes only the wall-clock query
//! count in `/metrics`.
//!
//! Determinism contract: watching a world never mutates it. The ticker
//! drives exactly [`Experiment::build_world`]'s loop (or
//! [`Experiment::run_traffic`]'s under a scenario), sharing gauges are
//! refreshed with the read-only [`ksm::KsmScanner::count_sharing`], and
//! the attribution snapshot is pure — so the daemon's world at
//! simulated second `s` is byte-identical to an unmonitored run of
//! duration `s`, which is what `tests/telemetry.rs` checks against the
//! `collect_naive` oracle.
//!
//! Endpoints (HTTP/1.0, text or JSON, one request per connection):
//!
//! | path                    | payload                                       |
//! |-------------------------|-----------------------------------------------|
//! | `/metrics`              | full exposition (deterministic + wall series) |
//! | `/metrics/deterministic`| the golden-safe simulated-state section only  |
//! | `/guest/<i>`            | per-guest attribution JSON                    |
//! | `/fleet`                | fleet rollup JSON (all guests, miss classes)  |
//! | `/misses`               | `diagnose_misses` miss-class JSON             |
//! | `/top`                  | rendered fleet table (what `tps top` shows)   |
//! | `/healthz`              | readiness + epoch (404 until first publish)   |
//! | `/shutdown`             | stop ticking and serving, then exit           |
//!
//! [`HostMm`]: paging::HostMm
//! [`Experiment::build_world`]: crate::Experiment::build_world
//! [`Experiment::run_traffic`]: crate::Experiment::run_traffic

use crate::run::TickWorld;
use crate::telemetry;
use crate::traffic_run::TrafficWorld;
use crate::{Error, ExperimentConfig};
use analysis::{BreakdownReport, MergeMissReport, SnapshotEngine};
use hypervisor::KvmHost;
use ksm::KsmScanner;
use mem::Tick;
use obs::{MetricClass, MetricsRegistry};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use traffic::Scenario;

/// How the daemon runs a world and serves it.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The experiment to tick. `duration_seconds` bounds the simulated
    /// run; after it the world idles but the daemon keeps serving the
    /// final epoch until `/shutdown`.
    pub config: ExperimentConfig,
    /// Drive the fleet with this traffic scenario instead of the
    /// tick-scripted workload.
    pub scenario: Option<Scenario>,
    /// Bind address; use port 0 for an ephemeral port (the bound
    /// address is available from [`Daemon::addr`]).
    pub addr: String,
    /// Wall-clock milliseconds to sleep between published epochs, so a
    /// live `tps top` is watchable. Zero ticks flat out.
    pub throttle_ms: u64,
}

impl DaemonConfig {
    /// A daemon on an ephemeral localhost port, no throttle.
    #[must_use]
    pub fn new(config: ExperimentConfig) -> DaemonConfig {
        DaemonConfig {
            config,
            scenario: None,
            addr: "127.0.0.1:0".to_string(),
            throttle_ms: 0,
        }
    }
}

/// Everything a query can be answered from, rendered once per published
/// epoch by the ticker thread. Immutable after publication — query
/// threads clone the `Arc`, never the strings.
#[derive(Clone)]
struct ServedState {
    /// Simulated seconds this state describes.
    epoch_seconds: u64,
    /// True while the world is still ticking toward its duration.
    running: bool,
    /// Full Prometheus-style exposition (deterministic + wall).
    metrics: String,
    /// The deterministic section alone (golden-safe).
    metrics_deterministic: String,
    /// Per-guest attribution JSON, indexed by guest.
    guests: Vec<String>,
    /// Fleet rollup JSON.
    fleet: String,
    /// Miss-class breakdown JSON.
    misses: String,
    /// Rendered fleet table.
    top: String,
}

/// State shared between the ticker, the acceptor and query threads.
struct Shared {
    state: RwLock<Arc<ServedState>>,
    stop: AtomicBool,
    /// Queries answered so far (wall-clock series in the exposition).
    queries: AtomicU64,
}

/// A running `tpsd` instance. Dropping the handle does **not** stop the
/// daemon; call [`shutdown`](Self::shutdown) or hit `/shutdown`.
pub struct Daemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    ticker: Option<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Boots the world, binds the socket and starts the ticker and
    /// acceptor threads. Returns as soon as the socket is bound — the
    /// first epoch is published after the first simulated second.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Error`] when the experiment configuration is
    /// invalid or the address cannot be bound.
    pub fn spawn(cfg: DaemonConfig) -> Result<Daemon, Error> {
        cfg.config.validate()?;
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| Error::Daemon(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Daemon(format!("local_addr: {e}")))?;

        let boot = ServedState {
            epoch_seconds: 0,
            running: true,
            metrics: String::new(),
            metrics_deterministic: String::new(),
            guests: Vec::new(),
            fleet: "{\"epoch_seconds\":0,\"booting\":true}\n".to_string(),
            misses: "{\"epoch_seconds\":0,\"booting\":true}\n".to_string(),
            top: "tpsd: booting\n".to_string(),
        };
        let shared = Arc::new(Shared {
            state: RwLock::new(Arc::new(boot)),
            stop: AtomicBool::new(false),
            queries: AtomicU64::new(0),
        });

        let ticker = {
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("tpsd-ticker".to_string())
                .spawn(move || run_ticker(&cfg, &shared))
                .map_err(|e| Error::Daemon(format!("spawn ticker: {e}")))?
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tpsd-accept".to_string())
                .spawn(move || run_acceptor(&listener, &shared))
                .map_err(|e| Error::Daemon(format!("spawn acceptor: {e}")))?
        };

        Ok(Daemon {
            addr,
            shared,
            ticker: Some(ticker),
            acceptor: Some(acceptor),
        })
    }

    /// The bound socket address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Simulated seconds of the most recently published epoch.
    #[must_use]
    pub fn epoch_seconds(&self) -> u64 {
        self.shared.state.read().expect("state lock").epoch_seconds
    }

    /// Answers `path` directly from the published state, exactly as the
    /// socket handler would — the cached-query path without the
    /// transport. `None` for unknown paths. Used by `bench telemetry`
    /// to time the query path in isolation.
    #[must_use]
    pub fn state_answer(&self, path: &str) -> Option<String> {
        let state = Arc::clone(&self.shared.state.read().expect("state lock"));
        answer(&state, path).map(|(_, body)| body)
    }

    /// Signals the daemon to stop and wakes the acceptor.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the (blocking) accept call with a no-op connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Waits for the ticker and acceptor to exit. Call after
    /// [`shutdown`](Self::shutdown) (or after a client hit `/shutdown`).
    pub fn join(&mut self) {
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// The world driver: both modes expose the same per-tick step. The
/// worlds are boxed — each carries hundreds of bytes of inline state
/// (the traffic world also drags its whole event queue along).
enum Driver {
    Tick(Box<TickWorld>),
    Traffic(Box<TrafficWorld>),
}

impl Driver {
    fn step(&mut self, t: u64) {
        match self {
            Driver::Tick(w) => w.step(t),
            Driver::Traffic(w) => w.step(t),
        }
    }

    fn host(&self) -> &KvmHost {
        match self {
            Driver::Tick(w) => &w.host,
            Driver::Traffic(w) => &w.host,
        }
    }

    fn scanner(&self) -> &KsmScanner {
        match self {
            Driver::Tick(w) => &w.scanner,
            Driver::Traffic(w) => &w.scanner,
        }
    }
}

/// The ticker thread: owns the world, the warm engine and the wall-
/// clock series; ticks simulated seconds and publishes rendered state.
fn run_ticker(cfg: &DaemonConfig, shared: &Shared) {
    let mut driver = match &cfg.scenario {
        Some(scenario) => match TrafficWorld::new(&cfg.config, scenario) {
            Ok(w) => Driver::Traffic(Box::new(w)),
            Err(e) => {
                publish_error(shared, &e);
                return;
            }
        },
        None => Driver::Tick(Box::new(TickWorld::new(&cfg.config))),
    };
    let mut engine = SnapshotEngine::new(cfg.config.threads);
    // Wall-clock series survive across publishes (the deterministic
    // registry is rebuilt from layer counters each time).
    let mut wall = MetricsRegistry::new();
    let mut prev_merges = 0u64;
    let ticks_per_second = u64::from(mem::TICKS_PER_SECOND as u32);
    let duration = cfg.config.duration_seconds;

    // The registry behind the latest published exposition.
    let mut exposition = MetricsRegistry::new();
    let mut second = 0u64;
    while !shared.stop.load(Ordering::SeqCst) {
        if second < duration {
            second += 1;
            for t in (second - 1) * ticks_per_second + 1..=second * ticks_per_second {
                driver.step(t);
            }
            let state;
            (exposition, state) = publish(
                &driver,
                &mut engine,
                &mut wall,
                shared,
                second,
                second < duration,
                &mut prev_merges,
            );
            *shared.state.write().expect("state lock") = Arc::new(state);
            if cfg.throttle_ms > 0 {
                std::thread::sleep(Duration::from_millis(cfg.throttle_ms));
            }
        } else {
            // The run is over and the world no longer changes, so the
            // final epoch's answers stand; only the wall-clock query
            // count still moves.
            std::thread::sleep(Duration::from_millis(100));
            if count_queries(&mut exposition, shared) > 0 {
                let state = ServedState {
                    metrics: exposition.render(),
                    ..ServedState::clone(&shared.state.read().expect("state lock"))
                };
                *shared.state.write().expect("state lock") = Arc::new(state);
            }
        }
    }
}

/// Brings `reg`'s `daemon_queries_total` wall series up to the number
/// of queries answered so far; returns how many it added.
fn count_queries(reg: &mut MetricsRegistry, shared: &Shared) -> u64 {
    let added = shared
        .queries
        .load(Ordering::Relaxed)
        .saturating_sub(reg.counter_value("daemon_queries_total", &[]).unwrap_or(0));
    reg.counter_class(
        "daemon_queries_total",
        "Queries answered by this daemon so far (non-deterministic).",
        &[],
        MetricClass::Wall,
        added,
    );
    added
}

/// Publishes one epoch: snapshot, breakdown, misses, metrics, table.
/// Also returns the registry the exposition was rendered from.
fn publish(
    driver: &Driver,
    engine: &mut SnapshotEngine,
    wall: &mut MetricsRegistry,
    shared: &Shared,
    second: u64,
    running: bool,
    prev_merges: &mut u64,
) -> (MetricsRegistry, ServedState) {
    let host = driver.host();
    let scanner = driver.scanner();
    let now = Tick::from_seconds(second as f64);

    // The warm attribution walk: only spaces whose generations moved
    // since the previous second are re-walked. Timed into the separated
    // wall-clock histogram.
    let walk_started = Instant::now();
    let views = match driver {
        Driver::Tick(w) => w.views(),
        Driver::Traffic(w) => w.views(),
    };
    let snapshot = engine.snapshot(host.mm(), &views);
    drop(views);
    wall.observe(
        "engine_walk_latency_ns",
        "Wall-clock latency of the per-epoch attribution walk (non-deterministic).",
        &[],
        MetricClass::Wall,
        walk_started.elapsed().as_nanos() as u64,
    );
    let breakdown = snapshot.breakdown();

    let misses = analysis::diagnose_misses(
        host.mm(),
        scanner.params().max_page_sharing(),
        scanner.volatility_horizon(),
        &host.mm().tracer().broken_mappings(),
    );

    // Deterministic registry, rebuilt from layer counters; wall-clock
    // series merged behind it.
    let sharing = scanner.count_sharing(host.mm());
    let mut reg = telemetry::world_registry(host, scanner, engine, now, sharing);
    if let Driver::Traffic(w) = driver {
        w.report.record_metrics(&mut reg);
        // Step-phase wall clocks (DESIGN.md §14): cumulative in the
        // world, exported as per-publish increments on the persistent
        // wall registry so the series survives epoch rebuilds.
        const PHASE_HELP: &str =
            "Wall-clock nanoseconds the traffic step spent in this phase (non-deterministic).";
        for (name, total) in [
            ("traffic_drain_wall_ns_total", w.wall.drain_ns),
            ("traffic_plan_wall_ns_total", w.wall.plan_ns),
            ("traffic_commit_wall_ns_total", w.wall.commit_ns),
            ("traffic_scan_wall_ns_total", w.wall.scan_ns),
        ] {
            let prev = wall.counter_value(name, &[]).unwrap_or(0);
            wall.counter_class(
                name,
                PHASE_HELP,
                &[],
                MetricClass::Wall,
                total.saturating_sub(prev),
            );
        }
    }
    count_queries(wall, shared);
    reg.merge(wall);
    let metrics = reg.render();
    let metrics_deterministic = reg.render_deterministic();

    // Fleet-wide merge rate over the published interval.
    let merges = scanner.stats().merges;
    let merge_rate = merges.saturating_sub(*prev_merges) as f64;
    *prev_merges = merges;

    let per_guest_traffic = match driver {
        Driver::Traffic(w) => Some(w.report.per_guest.as_slice()),
        Driver::Tick(_) => None,
    };

    let guests = render_guests(host, &breakdown, second, per_guest_traffic);
    let fleet = render_fleet(
        host,
        &breakdown,
        &misses,
        second,
        running,
        merge_rate,
        sharing,
        per_guest_traffic,
    );
    let top = render_top(
        host,
        &breakdown,
        &misses,
        second,
        merge_rate,
        per_guest_traffic,
    );
    let mut misses_json = format!("{{\"epoch_seconds\":{second},");
    misses_json.push_str(misses.to_json().trim_start_matches('{'));
    if !misses_json.ends_with('\n') {
        misses_json.push('\n');
    }

    let state = ServedState {
        epoch_seconds: second,
        running,
        metrics,
        metrics_deterministic,
        guests,
        fleet,
        misses: misses_json,
        top,
    };
    (reg, state)
}

fn publish_error(shared: &Shared, e: &Error) {
    let msg = format!("tpsd: {e}\n");
    let state = ServedState {
        epoch_seconds: 0,
        running: false,
        metrics: msg.clone(),
        metrics_deterministic: msg.clone(),
        guests: Vec::new(),
        fleet: msg.clone(),
        misses: msg.clone(),
        top: msg,
    };
    *shared.state.write().expect("state lock") = Arc::new(state);
    shared.stop.store(true, Ordering::SeqCst);
}

/// Per-guest attribution JSON ("what does guest 17's Java heap cost
/// right now?"): the guest rollup plus, when a JVM is live, its
/// Table IV category breakdown. Field order is fixed — this is the
/// canonical shape of the daemon's `/guest/<i>` responses, exported so
/// oracle tests can rebuild the exact text from an unmonitored world
/// (e.g. via `MemorySnapshot::collect_naive`) and compare bytes.
#[must_use]
pub fn render_guests(
    host: &KvmHost,
    breakdown: &BreakdownReport,
    second: u64,
    traffic: Option<&[crate::GuestTraffic]>,
) -> Vec<String> {
    breakdown
        .guests
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let mut out = String::with_capacity(512);
            let _ = write!(
                out,
                "{{\"epoch_seconds\":{second},\"guest\":{i},\"name\":\"{}\",\
                 \"resident_mib\":{:.3},\"owned_mib\":{:.3},\"java_owned_mib\":{:.3},\
                 \"other_owned_mib\":{:.3},\"kernel_owned_mib\":{:.3},\
                 \"vm_overhead_owned_mib\":{:.3},\"tps_saving_mib\":{:.3},\
                 \"huge_mib\":{:.3}",
                g.name,
                g.resident_mib,
                g.owned_total_mib(),
                g.java_owned_mib,
                g.other_owned_mib,
                g.kernel_owned_mib,
                g.vm_overhead_owned_mib,
                g.tps_saving_mib(),
                mem::pages_to_mib(host.guest_huge_pages(i)),
            );
            if let Some(per_guest) = traffic {
                let t = per_guest.get(i).copied().unwrap_or_default();
                let _ = write!(
                    out,
                    ",\"offered\":{},\"served\":{},\"shed\":{}",
                    t.offered, t.served, t.dropped
                );
            }
            // `javas` is in (guest, pid) order: this guest's first JVM
            // sits where the earlier guests' end.
            let first = breakdown.javas.partition_point(|j| j.guest < i as u32);
            match breakdown.javas.get(first).filter(|j| j.guest == i as u32) {
                Some(java) => {
                    let _ = write!(out, ",\"java\":{{\"pid\":{},\"categories\":{{", java.pid.0);
                    for (k, (category, usage)) in java.categories.iter().enumerate() {
                        if k > 0 {
                            out.push(',');
                        }
                        let _ = write!(
                            out,
                            "\"{category:?}\":{{\"resident_mib\":{:.3},\"owned_mib\":{:.3},\
                             \"saved_mib\":{:.3}}}",
                            usage.resident_mib,
                            usage.owned_mib,
                            usage.saved_mib(),
                        );
                    }
                    let _ = writeln!(
                        out,
                        "}},\"resident_total_mib\":{:.3},\"owned_total_mib\":{:.3},\
                         \"saved_total_mib\":{:.3}}}}}",
                        java.resident_total_mib(),
                        java.owned_total_mib(),
                        java.saved_total_mib(),
                    );
                }
                None => out.push_str(",\"java\":null}\n"),
            }
            out
        })
        .collect()
}

/// Fleet rollup JSON: host totals, sharing counters, miss classes and
/// one row per guest.
#[allow(clippy::too_many_arguments)]
fn render_fleet(
    host: &KvmHost,
    breakdown: &BreakdownReport,
    misses: &MergeMissReport,
    second: u64,
    running: bool,
    merge_rate: f64,
    (shared_pages, sharing_pages): (u64, u64),
    traffic: Option<&[crate::GuestTraffic]>,
) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"epoch_seconds\":{second},\"running\":{running},\
         \"mode\":\"{}\",\"guests\":{},\"resident_mib\":{:.3},\"huge_mib\":{:.3},\
         \"overcommit_mib\":{:.3},\"pages_shared\":{shared_pages},\
         \"pages_sharing\":{sharing_pages},\"merge_rate_per_s\":{merge_rate},\
         \"misses\":",
        if traffic.is_some() { "traffic" } else { "tick" },
        breakdown.guests.len(),
        host.resident_mib(),
        host.huge_mib(),
        host.overcommit_mib(),
    );
    out.push_str(misses.to_json().trim_end());
    out.push_str(",\"fleet\":[");
    for (i, g) in breakdown.guests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"guest\":{i},\"name\":\"{}\",\"resident_mib\":{:.3},\
             \"shared_mib\":{:.3},\"huge_mib\":{:.3}",
            g.name,
            g.resident_mib,
            g.tps_saving_mib(),
            mem::pages_to_mib(host.guest_huge_pages(i)),
        );
        if let Some(per_guest) = traffic {
            let t = per_guest.get(i).copied().unwrap_or_default();
            let _ = write!(out, ",\"served\":{},\"shed\":{}", t.served, t.dropped);
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// The `top`-style fleet table `tps top` polls and displays.
fn render_top(
    host: &KvmHost,
    breakdown: &BreakdownReport,
    misses: &MergeMissReport,
    second: u64,
    merge_rate: f64,
    traffic: Option<&[crate::GuestTraffic]>,
) -> String {
    let mut out = String::with_capacity(1024);
    let total_shared: f64 = breakdown
        .guests
        .iter()
        .map(analysis::GuestBreakdown::tps_saving_mib)
        .sum();
    let _ = writeln!(
        out,
        "tpsd | epoch {second} s | {} guests | resident {:.1} MiB | shared {:.1} MiB | huge {:.1} MiB | merges {merge_rate:.0}/s",
        breakdown.guests.len(),
        host.resident_mib(),
        total_shared,
        host.huge_mib(),
    );
    let mut miss_line = String::from("misses:");
    for reason in analysis::MissReason::ALL {
        let _ = write!(miss_line, " {}={}", reason.label(), misses.missed(reason));
    }
    let _ = writeln!(out, "{miss_line}");
    if traffic.is_some() {
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>10} {:>9} {:>8} {:>10} {:>10} {:>8}",
            "guest", "name", "resident", "shared", "huge", "offered", "served", "shed"
        );
    } else {
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>10} {:>9} {:>8}",
            "guest", "name", "resident", "shared", "huge"
        );
    }
    for (i, g) in breakdown.guests.iter().enumerate() {
        let huge = mem::pages_to_mib(host.guest_huge_pages(i));
        match traffic.and_then(|t| t.get(i)) {
            Some(t) => {
                let _ = writeln!(
                    out,
                    "{i:>5} {:>8} {:>10.1} {:>9.1} {:>8.1} {:>10} {:>10} {:>8}",
                    g.name,
                    g.resident_mib,
                    g.tps_saving_mib(),
                    huge,
                    t.offered,
                    t.served,
                    t.dropped
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{i:>5} {:>8} {:>10.1} {:>9.1} {:>8.1}",
                    g.name,
                    g.resident_mib,
                    g.tps_saving_mib(),
                    huge
                );
            }
        }
    }
    out
}

/// Routes a request path to `(content type, body)` against a published
/// state. Shared by the socket handler and [`Daemon::state_answer`].
fn answer(state: &ServedState, path: &str) -> Option<(&'static str, String)> {
    match path {
        "/metrics" => Some(("text/plain; version=0.0.4", state.metrics.clone())),
        "/metrics/deterministic" => Some((
            "text/plain; version=0.0.4",
            state.metrics_deterministic.clone(),
        )),
        "/fleet" => Some(("application/json", state.fleet.clone())),
        "/misses" => Some(("application/json", state.misses.clone())),
        "/top" => Some(("text/plain", state.top.clone())),
        // Readiness, not liveness: 404 until the first epoch publishes,
        // so a wait-for-healthz loop guarantees every other endpoint
        // answers from fully rendered state.
        "/healthz" if state.epoch_seconds > 0 => Some((
            "text/plain",
            format!(
                "ok epoch={} running={}\n",
                state.epoch_seconds, state.running
            ),
        )),
        _ => {
            let idx: usize = path.strip_prefix("/guest/")?.parse().ok()?;
            state
                .guests
                .get(idx)
                .map(|g| ("application/json", g.clone()))
        }
    }
}

/// The accept loop: one handler thread per connection; `/shutdown`
/// flips the stop flag, and the self-connection from
/// [`Daemon::shutdown`] (or the handler itself) unblocks the accept.
fn run_acceptor(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let shared = Arc::clone(shared);
        let addr = listener.local_addr().ok();
        let _ = std::thread::Builder::new()
            .name("tpsd-query".to_string())
            .spawn(move || handle(stream, &shared, addr));
    }
}

/// Answers one HTTP/1.0 request from the published state.
fn handle(stream: TcpStream, shared: &Shared, addr: Option<SocketAddr>) {
    let mut reader = BufReader::new(&stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    let path = match request_line.split_whitespace().nth(1) {
        Some(p) => p.to_string(),
        None => return, // e.g. the shutdown wake-up connection
    };
    // Drain the (ignored) headers so the client can write them fully.
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    shared.queries.fetch_add(1, Ordering::Relaxed);

    let mut stream = stream;
    if path == "/shutdown" {
        shared.stop.store(true, Ordering::SeqCst);
        let _ = respond(&mut stream, 200, "text/plain", "shutting down\n");
        // Unblock the accept loop so the daemon exits promptly.
        if let Some(addr) = addr {
            let _ = TcpStream::connect(addr);
        }
        return;
    }
    let state = Arc::clone(&shared.state.read().expect("state lock"));
    match answer(&state, &path) {
        Some((content_type, body)) => {
            let _ = respond(&mut stream, 200, content_type, &body);
        }
        None => {
            let _ = respond(&mut stream, 404, "text/plain", "not found\n");
        }
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = if status == 200 { "OK" } else { "Not Found" };
    write!(
        stream,
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A minimal blocking HTTP/1.0 GET against a daemon, returning the
/// body. Used by `tps top`, the CI smoke job and the benches — no
/// external HTTP client needed.
///
/// # Errors
///
/// Returns [`Error::Daemon`] on connection or protocol failures.
pub fn http_get(addr: &str, path: &str) -> Result<String, Error> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| Error::Daemon(format!("connect {addr}: {e}")))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n")
        .map_err(|e| Error::Daemon(format!("send: {e}")))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| Error::Daemon(format!("read status: {e}")))?;
    if !status_line.contains("200") {
        return Err(Error::Daemon(format!("{path}: {}", status_line.trim_end())));
    }
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => {}
            Err(e) => return Err(Error::Daemon(format!("read headers: {e}"))),
        }
    }
    let mut body = String::new();
    std::io::Read::read_to_string(&mut reader, &mut body)
        .map_err(|e| Error::Daemon(format!("read body: {e}")))?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_for_epoch(daemon: &Daemon, at_least: u64) {
        let deadline = Instant::now() + Duration::from_secs(120);
        while daemon.epoch_seconds() < at_least {
            assert!(Instant::now() < deadline, "daemon never reached epoch");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn daemon_serves_metrics_guests_and_shuts_down() {
        let config = ExperimentConfig::tiny_test(2, true).with_duration_seconds(20);
        let mut daemon = Daemon::spawn(DaemonConfig::new(config)).unwrap();
        wait_for_epoch(&daemon, 5);
        let addr = daemon.addr().to_string();

        let health = http_get(&addr, "/healthz").unwrap();
        assert!(health.starts_with("ok epoch="), "got: {health}");
        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(metrics.contains("ksm_pages_sharing"), "got: {metrics}");
        assert!(metrics.contains("# --- non-deterministic"));
        let det = http_get(&addr, "/metrics/deterministic").unwrap();
        assert!(!det.contains("non-deterministic"));
        let g0 = http_get(&addr, "/guest/0").unwrap();
        assert!(g0.contains("\"guest\":0"), "got: {g0}");
        assert!(g0.contains("\"JavaHeap\""), "got: {g0}");
        let fleet = http_get(&addr, "/fleet").unwrap();
        assert!(fleet.contains("\"pages_sharing\""), "got: {fleet}");
        let misses = http_get(&addr, "/misses").unwrap();
        assert!(misses.contains("\"missed\""), "got: {misses}");
        let top = http_get(&addr, "/top").unwrap();
        assert!(top.starts_with("tpsd | epoch"), "got: {top}");
        assert!(http_get(&addr, "/guest/99").is_err());
        assert!(http_get(&addr, "/nope").is_err());

        assert!(http_get(&addr, "/shutdown").unwrap().contains("shutting"));
        daemon.join();
    }

    #[test]
    fn traffic_daemon_reports_per_guest_served() {
        let config = ExperimentConfig::tiny_test(2, true).with_duration_seconds(30);
        let mut cfg = DaemonConfig::new(config);
        cfg.scenario = Some(Scenario::constant());
        let mut daemon = Daemon::spawn(cfg).unwrap();
        wait_for_epoch(&daemon, 15);
        let addr = daemon.addr().to_string();
        let g0 = http_get(&addr, "/guest/0").unwrap();
        assert!(g0.contains("\"served\":"), "got: {g0}");
        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(
            metrics.contains("traffic_guest_served_total{guest=\"0\"}"),
            "got: {metrics}"
        );
        let top = http_get(&addr, "/top").unwrap();
        assert!(top.contains("offered"), "got: {top}");
        assert!(top.contains("served"), "got: {top}");
        assert!(
            metrics.contains("traffic_plan_wall_ns_total"),
            "got: {metrics}"
        );
        daemon.shutdown();
        daemon.join();
    }

    /// Once the run is over, the deterministic scrape is a pure function
    /// of the final world: it must not drift while the daemon idles, but
    /// the wall-clock query count must keep moving.
    #[test]
    fn idle_daemon_keeps_its_final_scrape() {
        let config = ExperimentConfig::tiny_test(2, true).with_duration_seconds(3);
        let mut daemon = Daemon::spawn(DaemonConfig::new(config)).unwrap();
        wait_for_epoch(&daemon, 3);
        let addr = daemon.addr().to_string();
        let queries = |metrics: &str| -> u64 {
            metrics
                .lines()
                .find_map(|l| l.strip_prefix("daemon_queries_total "))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no query count in: {metrics}"))
        };
        let before = queries(&http_get(&addr, "/metrics").unwrap());
        let first = http_get(&addr, "/metrics/deterministic").unwrap();
        // More than two 100 ms idle intervals.
        std::thread::sleep(Duration::from_millis(350));
        let second = http_get(&addr, "/metrics/deterministic").unwrap();
        let after = queries(&http_get(&addr, "/metrics").unwrap());
        assert_eq!(
            first, second,
            "the idle daemon's deterministic scrape drifted"
        );
        assert!(after > before, "query count stuck at {before}");
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        let mut config = ExperimentConfig::tiny_test(1, false);
        config.guests.clear();
        let err = match Daemon::spawn(DaemonConfig::new(config)) {
            Err(e) => e,
            Ok(_) => panic!("empty fleet must be rejected"),
        };
        assert_eq!(err, Error::NoGuests);
    }
}
