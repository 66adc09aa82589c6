//! `tpsd`: the persistent fleet-monitoring daemon (DESIGN.md §13).
//!
//! The paper's headline signals — shared MiB, merge rates, over-commit
//! throughput — are what a production fleet operator watches
//! continuously. [`Daemon`] turns the simulator into that monitoring
//! service: a **ticker thread** owns the ticking world (the [`HostMm`]
//! stack is deliberately not `Sync`, so all mutation stays on one
//! thread) and, once per simulated second, publishes an `Epoch` behind
//! an `Arc<RwLock>`. The epoch captures what the answers read and the
//! world does not keep: the metrics registry, the attribution breakdown,
//! the `diagnose_misses` report, the host's MiB figures, the sharing
//! counts and the merge rate. The ticker renders nothing. Query threads
//! (one per accepted connection on a local socket) answer from the latest
//! epoch and render each body on its first request into a write-once
//! cell, so queries are served **from the last published epoch while the
//! world keeps mutating** and never block the ticker.
//!
//! One [`SnapshotEngine`] lives for the daemon's lifetime: each publish
//! walks the world once, and a publish at an unchanged epoch reassembles
//! the previous walk instead. Once the final epoch is published the
//! ticker returns and drops the world; the daemon keeps answering from
//! that epoch until `/shutdown`. `/metrics` appends the wall-clock query
//! count as it answers, so nothing else moves after the run.
//!
//! Determinism contract: watching a world never mutates it. The ticker
//! owns one `World` and drives it with the same `World::step` loop as
//! [`Experiment::build_world`] (or [`Experiment::run_traffic`] under a
//! scenario), pausing only between simulated seconds to publish.
//! Sharing gauges are refreshed with the read-only
//! [`ksm::KsmScanner::count_sharing`], and the attribution snapshot is
//! pure — so the daemon's world at simulated second `s` is
//! byte-identical to an unmonitored run of duration `s`, which is what
//! `tests/telemetry.rs` checks against the `collect_naive` oracle.
//!
//! Endpoints (HTTP/1.0 `GET`, text or JSON, one request per connection;
//! any other method gets `405`, a request line without a path `400`):
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
//! | `/shutdown`             | stop and exit (loopback peers only, else 403) |
//!
//! [`HostMm`]: paging::HostMm
//! [`Experiment::build_world`]: crate::Experiment::build_world
//! [`Experiment::run_traffic`]: crate::Experiment::run_traffic

use crate::telemetry;
use crate::world::World;
use crate::{Error, ExperimentConfig, GuestTraffic};
use analysis::{BreakdownReport, MergeMissReport, SnapshotEngine};
use hypervisor::KvmHost;
use mem::Tick;
use obs::{MetricClass, MetricsRegistry};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Take, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use traffic::Scenario;

/// How the daemon runs a world and serves it.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The experiment to tick. `duration_seconds` bounds the simulated
    /// run; the ticker stops at the final epoch, and the daemon keeps
    /// serving that epoch until `/shutdown`.
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

/// One published simulated second: what the ticker captured from the
/// world, and each endpoint's body once something asked for it.
/// Immutable after publication apart from those write-once bodies —
/// query threads clone the `Arc`, never the epoch.
struct Epoch {
    /// Simulated seconds this epoch describes.
    second: u64,
    /// True while the world is still ticking toward its duration.
    running: bool,
    /// The deterministic series, plus the wall series as of the publish.
    registry: MetricsRegistry,
    breakdown: BreakdownReport,
    misses: MergeMissReport,
    /// Host-wide MiB figures.
    resident_mib: f64,
    huge_mib: f64,
    overcommit_mib: f64,
    /// Each guest's huge-page MiB.
    guest_huge_mib: Vec<f64>,
    /// `(pages_shared, pages_sharing)` from `count_sharing`.
    sharing: (u64, u64),
    /// Fleet-wide merges over the published interval.
    merge_rate: f64,
    /// Per-guest request tallies under a traffic scenario.
    traffic: Option<Vec<GuestTraffic>>,
    bodies: Bodies,
}

/// An epoch's answers, each rendered on its first request.
#[derive(Default)]
struct Bodies {
    /// `/metrics` without the query count, which moves per answer.
    metrics: OnceLock<String>,
    deterministic: OnceLock<String>,
    fleet: OnceLock<String>,
    misses: OnceLock<String>,
    top: OnceLock<String>,
    /// One per guest.
    guests: Vec<OnceLock<String>>,
}

impl Epoch {
    /// The `/metrics` body: the epoch's exposition, then `queries`, the
    /// daemon's query count as of this answer, as the last wall series.
    fn metrics(&self, queries: u64) -> String {
        let exposition = self.bodies.metrics.get_or_init(|| self.registry.render());
        format!(
            "{exposition}# HELP daemon_queries_total Queries answered by this daemon so far \
             (non-deterministic).\n# TYPE daemon_queries_total counter\n\
             daemon_queries_total {queries}\n"
        )
    }
}

/// State shared between the ticker, the acceptor and query threads.
#[derive(Default)]
struct Shared {
    /// The latest published epoch; `None` while the world boots.
    epoch: RwLock<Option<Arc<Epoch>>>,
    stop: AtomicBool,
    /// Queries answered so far (the last wall series of `/metrics`).
    queries: AtomicU64,
}

impl Shared {
    /// The latest published epoch, if any.
    fn latest(&self) -> Option<Arc<Epoch>> {
        self.epoch.read().expect("epoch lock").clone()
    }
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

        let shared = Arc::new(Shared::default());

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
        self.shared.latest().map_or(0, |epoch| epoch.second)
    }

    /// Answers `path` directly from the published epoch, exactly as the
    /// socket handler would — the query path without the transport.
    /// `None` for unknown paths. `perfbench` times the query path
    /// through it in isolation (`daemon.answer_ns`).
    #[must_use]
    pub fn state_answer(&self, path: &str) -> Option<String> {
        let queries = self.shared.queries.load(Ordering::Relaxed);
        answer(self.shared.latest().as_deref(), path, queries).map(|(_, body)| body)
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

/// The ticker thread: owns the world and the warm engine, ticks
/// simulated seconds and publishes each as an [`Epoch`]. Returns after
/// the final epoch, or at the first second after a stop.
fn run_ticker(cfg: &DaemonConfig, shared: &Shared) {
    let mut world = World::new(&cfg.config, cfg.scenario.as_ref());
    let mut engine = SnapshotEngine::default();
    // Each walk's latency, the one series that accumulates across
    // publishes (every epoch's registry is built afresh).
    let mut walks = MetricsRegistry::new();
    let mut prev_merges = 0u64;
    let duration = cfg.config.duration_seconds;
    for second in 1..=duration {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        for t in (second - 1) * mem::TICKS_PER_SECOND + 1..=second * mem::TICKS_PER_SECOND {
            world.step(t);
        }
        let epoch = publish(
            &mut world,
            &mut engine,
            &mut walks,
            second,
            second < duration,
            &mut prev_merges,
        );
        *shared.epoch.write().expect("epoch lock") = Some(Arc::new(epoch));
        if cfg.throttle_ms > 0 && second < duration {
            std::thread::sleep(Duration::from_millis(cfg.throttle_ms));
        }
    }
}

/// Captures the epoch at simulated second `second`: the attribution walk
/// and its breakdown, the miss diagnosis, the sharing counts and the
/// registry, computed here because the world moves on after the publish.
/// Renders nothing.
fn publish(
    world: &mut World,
    engine: &mut SnapshotEngine,
    walks: &mut MetricsRegistry,
    second: u64,
    running: bool,
    prev_merges: &mut u64,
) -> Epoch {
    // The attribution walk, reused only when the epoch has not moved
    // since the previous publish. Timed as the world's `attribution`
    // phase, and each walk into the separated wall-clock histogram.
    let walk_started = Instant::now();
    let snapshot = engine.snapshot(world.host.mm(), &world.views());
    let frames = world.host.mm().phys().allocated_frames() as u64;
    let walk = world.prof.end("attribution", walk_started, 0, frames);
    walks.observe(
        "engine_walk_latency_ns",
        "Wall-clock latency of the per-epoch attribution walk (non-deterministic).",
        &[],
        MetricClass::Wall,
        walk.as_nanos() as u64,
    );
    let breakdown = snapshot.breakdown();

    let host = &world.host;
    let scanner = &world.scanner;
    let traffic = world.traffic();
    let misses = analysis::diagnose_misses(
        host.mm(),
        scanner.params().max_page_sharing(),
        scanner.volatility_horizon(),
    );

    // Deterministic registry, rebuilt from layer counters; wall-clock
    // series behind it.
    let sharing = scanner.count_sharing(host.mm());
    let now = Tick::from_seconds(second as f64);
    let mut registry = telemetry::world_registry(host, scanner, engine, now, sharing);
    if let Some(traffic) = traffic {
        traffic.report.record_metrics(&mut registry);
        // Step-phase wall clocks (DESIGN.md §14): the world profiler's
        // totals so far.
        const PHASE_HELP: &str = "Wall-clock nanoseconds the traffic step spent in this phase \
             (plan: the per-batch capacity snapshot; non-deterministic).";
        let w = world.traffic_wall();
        for (name, total) in [
            ("traffic_drain_wall_ns_total", w.drain_ns),
            ("traffic_plan_wall_ns_total", w.plan_ns),
            ("traffic_commit_wall_ns_total", w.commit_ns),
            ("traffic_scan_wall_ns_total", w.scan_ns),
        ] {
            registry.counter_class(name, PHASE_HELP, &[], MetricClass::Wall, total);
        }
    }
    registry.merge(walks);

    // Fleet-wide merge rate over the published interval.
    let merges = scanner.stats().merges;
    let merge_rate = merges.saturating_sub(*prev_merges) as f64;
    *prev_merges = merges;

    Epoch {
        second,
        running,
        registry,
        guest_huge_mib: (0..breakdown.guests.len())
            .map(|i| mem::pages_to_mib(host.guest_huge_pages(i)))
            .collect(),
        bodies: Bodies {
            guests: breakdown.guests.iter().map(|_| OnceLock::new()).collect(),
            ..Bodies::default()
        },
        breakdown,
        misses,
        resident_mib: host.resident_mib(),
        huge_mib: host.huge_mib(),
        overcommit_mib: host.overcommit_mib(),
        sharing,
        merge_rate,
        traffic: traffic.map(|t| t.report.per_guest.clone()),
    }
}

/// Per-guest attribution JSON ("what does guest 17's Java heap cost
/// right now?") for every guest, in guest order: what `render_guest`
/// gives each. Exported so oracle tests can rebuild the daemon's exact
/// `/guest/<i>` text from an unmonitored world (e.g. via
/// `MemorySnapshot::collect_naive`) and compare bytes.
#[must_use]
pub fn render_guests(
    host: &KvmHost,
    breakdown: &BreakdownReport,
    second: u64,
    traffic: Option<&[GuestTraffic]>,
) -> Vec<String> {
    (0..breakdown.guests.len())
        .map(|i| {
            let huge_mib = mem::pages_to_mib(host.guest_huge_pages(i));
            render_guest(i, breakdown, huge_mib, second, traffic)
        })
        .collect()
}

/// Guest `i`'s attribution JSON: the guest rollup plus, when a JVM is
/// live, its Table IV category breakdown. Field order is fixed — this
/// is the canonical shape of the daemon's `/guest/<i>` responses.
fn render_guest(
    i: usize,
    breakdown: &BreakdownReport,
    huge_mib: f64,
    second: u64,
    traffic: Option<&[GuestTraffic]>,
) -> String {
    let g = &breakdown.guests[i];
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"epoch_seconds\":{second},\"guest\":{i},\"name\":\"{}\",\
         \"resident_mib\":{:.3},\"owned_mib\":{:.3},\"java_owned_mib\":{:.3},\
         \"other_owned_mib\":{:.3},\"kernel_owned_mib\":{:.3},\
         \"vm_overhead_owned_mib\":{:.3},\"tps_saving_mib\":{:.3},\
         \"huge_mib\":{huge_mib:.3}",
        g.name,
        g.resident_mib,
        g.owned_total_mib(),
        g.java_owned_mib,
        g.other_owned_mib,
        g.kernel_owned_mib,
        g.vm_overhead_owned_mib,
        g.tps_saving_mib(),
    );
    if let Some(per_guest) = traffic {
        let t = per_guest.get(i).copied().unwrap_or_default();
        let _ = write!(
            out,
            ",\"offered\":{},\"served\":{},\"shed\":{}",
            t.offered, t.served, t.dropped
        );
    }
    // `javas` is in (guest, pid) order: this guest's first JVM sits
    // where the earlier guests' end.
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
}

/// Fleet rollup JSON: host totals, sharing counters, miss classes and
/// one row per guest.
fn render_fleet(epoch: &Epoch) -> String {
    let (shared_pages, sharing_pages) = epoch.sharing;
    let mode = if epoch.traffic.is_some() {
        "traffic"
    } else {
        "tick"
    };
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"epoch_seconds\":{},\"running\":{},\
         \"mode\":\"{mode}\",\"guests\":{},\"resident_mib\":{:.3},\"huge_mib\":{:.3},\
         \"overcommit_mib\":{:.3},\"pages_shared\":{shared_pages},\
         \"pages_sharing\":{sharing_pages},\"merge_rate_per_s\":{},\
         \"misses\":",
        epoch.second,
        epoch.running,
        epoch.breakdown.guests.len(),
        epoch.resident_mib,
        epoch.huge_mib,
        epoch.overcommit_mib,
        epoch.merge_rate,
    );
    out.push_str(epoch.misses.to_json().trim_end());
    out.push_str(",\"fleet\":[");
    for (i, g) in epoch.breakdown.guests.iter().enumerate() {
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
            epoch.guest_huge_mib[i],
        );
        if let Some(per_guest) = &epoch.traffic {
            let t = per_guest.get(i).copied().unwrap_or_default();
            let _ = write!(out, ",\"served\":{},\"shed\":{}", t.served, t.dropped);
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// The miss-class breakdown JSON, stamped with the epoch.
fn render_misses(epoch: &Epoch) -> String {
    let mut out = format!("{{\"epoch_seconds\":{},", epoch.second);
    out.push_str(epoch.misses.to_json().trim_start_matches('{'));
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// The `top`-style fleet table `tps top` polls and displays.
fn render_top(epoch: &Epoch) -> String {
    let mut out = String::with_capacity(1024);
    let guests = &epoch.breakdown.guests;
    let total_shared: f64 = guests
        .iter()
        .map(analysis::GuestBreakdown::tps_saving_mib)
        .sum();
    let _ = writeln!(
        out,
        "tpsd | epoch {} s | {} guests | resident {:.1} MiB | shared {:.1} MiB | huge {:.1} MiB | merges {:.0}/s",
        epoch.second,
        guests.len(),
        epoch.resident_mib,
        total_shared,
        epoch.huge_mib,
        epoch.merge_rate,
    );
    let misses = &epoch.misses;
    let mut miss_line = String::from("misses:");
    for reason in analysis::MissReason::ALL {
        let _ = write!(miss_line, " {}={}", reason.label(), misses.missed(reason));
    }
    let _ = writeln!(out, "{miss_line}");
    if epoch.traffic.is_some() {
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
    for (i, g) in guests.iter().enumerate() {
        let huge = epoch.guest_huge_mib[i];
        match epoch.traffic.as_ref().and_then(|t| t.get(i)) {
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

const PROMETHEUS: &str = "text/plain; version=0.0.4";
const JSON: &str = "application/json";
const TEXT: &str = "text/plain";

/// Routes a request path to `(content type, body)` against the latest
/// epoch (`None` while the world boots), rendering a body on its first
/// request; `queries` is the count `/metrics` reports. Shared by the
/// socket handler and [`Daemon::state_answer`].
fn answer(epoch: Option<&Epoch>, path: &str, queries: u64) -> Option<(&'static str, String)> {
    let Some(epoch) = epoch else {
        return match path {
            "/metrics" | "/metrics/deterministic" => Some((PROMETHEUS, String::new())),
            "/fleet" | "/misses" => Some((JSON, "{\"epoch_seconds\":0,\"booting\":true}\n".into())),
            "/top" => Some((TEXT, "tpsd: booting\n".into())),
            // Readiness, not liveness: `/healthz` answers 404 until the
            // first epoch publishes, so a wait-for-healthz loop
            // guarantees every other endpoint answers from a world.
            _ => None,
        };
    };
    let bodies = &epoch.bodies;
    let (content_type, body) = match path {
        "/metrics" => return Some((PROMETHEUS, epoch.metrics(queries))),
        "/healthz" => {
            let health = format!("ok epoch={} running={}\n", epoch.second, epoch.running);
            return Some((TEXT, health));
        }
        "/metrics/deterministic" => (
            PROMETHEUS,
            bodies
                .deterministic
                .get_or_init(|| epoch.registry.render_deterministic()),
        ),
        "/fleet" => (JSON, bodies.fleet.get_or_init(|| render_fleet(epoch))),
        "/misses" => (JSON, bodies.misses.get_or_init(|| render_misses(epoch))),
        "/top" => (TEXT, bodies.top.get_or_init(|| render_top(epoch))),
        _ => {
            let i: usize = path.strip_prefix("/guest/")?.parse().ok()?;
            let body = bodies.guests.get(i)?.get_or_init(|| {
                render_guest(
                    i,
                    &epoch.breakdown,
                    epoch.guest_huge_mib[i],
                    epoch.second,
                    epoch.traffic.as_deref(),
                )
            });
            (JSON, body)
        }
    };
    Some((content_type, body.clone()))
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

/// How long a query handler waits for a client that sends nothing.
/// Every client the daemon serves (`http_get`, `tps top`, curl) sends
/// its request as soon as it connects, so a silent connection is closed
/// rather than left holding its handler thread.
const READ_TIMEOUT: Duration = Duration::from_secs(3);

/// How long a query handler waits for a client that stops reading its
/// answer, so a stalled reader cannot hold its handler thread either.
const WRITE_TIMEOUT: Duration = Duration::from_secs(3);

/// Most bytes a request line and its headers may take together. A
/// longer head, such as a line that never ends, closes the connection.
const MAX_REQUEST_HEAD: u64 = 16 * 1024;

/// Whether a client at `peer` may stop the daemon: only one on this
/// host, connected from a loopback address (IPv4-mapped included). An
/// unknown peer may not.
fn may_shut_down(peer: Option<SocketAddr>) -> bool {
    peer.is_some_and(|peer| peer.ip().to_canonical().is_loopback())
}

/// Answers one HTTP/1.0 request from the latest published epoch. A client
/// silent for [`READ_TIMEOUT`], or whose request head passes
/// [`MAX_REQUEST_HEAD`] bytes, is disconnected without an answer, and
/// so is an empty request line (the shutdown wake-up connection). A
/// request line without a path gets `400`, any method but `GET` gets
/// `405` — `/shutdown` included — and `/shutdown` from a peer that is
/// not on a loopback address gets `403`. Writing an answer gives up
/// after [`WRITE_TIMEOUT`].
fn handle(stream: TcpStream, shared: &Shared, addr: Option<SocketAddr>) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let mut reader = BufReader::new((&stream).take(MAX_REQUEST_HEAD));
    let mut request_line = String::new();
    if read_head_line(&mut reader, &mut request_line).is_none() {
        return;
    }
    let mut words = request_line.split_whitespace();
    let Some(method) = words.next() else {
        return;
    };
    let path = words.next();
    // Drain the (ignored) headers so the client can write them fully.
    loop {
        let mut line = String::new();
        match read_head_line(&mut reader, &mut line) {
            None => return,
            Some(0) => break,
            Some(_) if line == "\r\n" || line == "\n" => break,
            Some(_) => {}
        }
    }
    let queries = shared.queries.fetch_add(1, Ordering::Relaxed) + 1;

    let mut stream = stream;
    let Some(path) = path else {
        let _ = respond(&mut stream, 400, "text/plain", "bad request\n");
        return;
    };
    if method != "GET" {
        let _ = respond(&mut stream, 405, "text/plain", "method not allowed\n");
        return;
    }
    if path == "/shutdown" {
        if !may_shut_down(stream.peer_addr().ok()) {
            let _ = respond(&mut stream, 403, "text/plain", "forbidden\n");
            return;
        }
        shared.stop.store(true, Ordering::SeqCst);
        let _ = respond(&mut stream, 200, "text/plain", "shutting down\n");
        // Unblock the accept loop so the daemon exits promptly.
        if let Some(addr) = addr {
            let _ = TcpStream::connect(addr);
        }
        return;
    }
    match answer(shared.latest().as_deref(), path, queries) {
        Some((content_type, body)) => {
            let _ = respond(&mut stream, 200, content_type, &body);
        }
        None => {
            let _ = respond(&mut stream, 404, "text/plain", "not found\n");
        }
    }
}

/// Reads one line of a request head into `line`, returning its length:
/// `None` on a read error or timeout, or when the line runs into the
/// [`MAX_REQUEST_HEAD`] cap before its newline.
fn read_head_line(reader: &mut BufReader<Take<&TcpStream>>, line: &mut String) -> Option<usize> {
    let n = reader.read_line(line).ok()?;
    let capped = reader.get_ref().limit() == 0 && !line.ends_with('\n');
    (!capped).then_some(n)
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let (reason, allow) = match status {
        200 => ("OK", ""),
        400 => ("Bad Request", ""),
        403 => ("Forbidden", ""),
        405 => ("Method Not Allowed", "Allow: GET\r\n"),
        _ => ("Not Found", ""),
    };
    write!(
        stream,
        "HTTP/1.0 {status} {reason}\r\n{allow}Content-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
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
        // Every series `perfbench` reads its daemon split from.
        let value = |key: &str| -> f64 {
            metrics
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("no {key} in: {metrics}"))
        };
        for key in [
            "traffic_drain_wall_ns_total",
            "traffic_plan_wall_ns_total",
            "traffic_commit_wall_ns_total",
            "traffic_scan_wall_ns_total",
            "ksm_wake_phase_nanos_total{phase=\"plan\"}",
            "ksm_wake_phase_nanos_total{phase=\"commit\"}",
            "engine_walk_latency_ns_sum",
            "ksm_wake_work_total{phase=\"resolve_items\"}",
            "ksm_pages_scanned_total",
        ] {
            assert!(value(key) > 0.0, "{key} is 0 in: {metrics}");
        }
        value("engine_spaces_cached_total");
        value("ksm_merges_total");
        daemon.shutdown();
        daemon.join();
    }

    /// Once the run is over the ticker has returned, yet the daemon keeps
    /// answering: `/healthz` reports the final epoch as not running, the
    /// deterministic scrape is a pure function of the final world and
    /// must not drift, and the wall-clock query count keeps moving.
    #[test]
    fn idle_daemon_keeps_its_final_scrape() {
        let config = ExperimentConfig::tiny_test(2, true).with_duration_seconds(3);
        let mut daemon = Daemon::spawn(DaemonConfig::new(config)).unwrap();
        wait_for_epoch(&daemon, 3);
        let ticker = daemon.ticker.as_ref().expect("a ticker handle");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ticker.is_finished() {
            assert!(Instant::now() < deadline, "ticker still running");
            std::thread::sleep(Duration::from_millis(5));
        }
        let addr = daemon.addr().to_string();
        let health = http_get(&addr, "/healthz").unwrap();
        assert_eq!(health, "ok epoch=3 running=false\n");
        let queries = |metrics: &str| -> u64 {
            metrics
                .lines()
                .find_map(|l| l.strip_prefix("daemon_queries_total "))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no query count in: {metrics}"))
        };
        let before = queries(&http_get(&addr, "/metrics").unwrap());
        let first = http_get(&addr, "/metrics/deterministic").unwrap();
        // Give a world that still moved time to show it.
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

    /// A client that connects and sends nothing is disconnected once
    /// the read timeout passes, instead of pinning its handler thread.
    #[test]
    fn silent_client_is_disconnected() {
        let config = ExperimentConfig::tiny_test(1, false).with_duration_seconds(2);
        let mut daemon = Daemon::spawn(DaemonConfig::new(config)).unwrap();
        let mut client = TcpStream::connect(daemon.addr()).unwrap();
        client.set_read_timeout(Some(READ_TIMEOUT * 3)).unwrap();
        let read = client.read(&mut [0u8; 16]);
        assert!(matches!(read, Ok(0)), "expected EOF, got {read:?}");
        daemon.shutdown();
        daemon.join();
    }

    /// A request line that never ends is cut off at the head cap and
    /// its connection closed, while other clients keep being answered.
    #[test]
    fn endless_request_line_is_cut_off() {
        let config = ExperimentConfig::tiny_test(1, false).with_duration_seconds(2);
        let mut daemon = Daemon::spawn(DaemonConfig::new(config)).unwrap();
        wait_for_epoch(&daemon, 1);
        let addr = daemon.addr().to_string();
        let mut client = TcpStream::connect(&addr).unwrap();
        client.set_read_timeout(Some(READ_TIMEOUT * 3)).unwrap();
        let mut sender = client.try_clone().unwrap();
        let writer = std::thread::spawn(move || {
            // The daemon closes mid-line, so this write may fail.
            let _ = sender.write_all(&vec![b'a'; 1 << 20]);
        });
        let health = http_get(&addr, "/healthz").unwrap();
        assert!(health.starts_with("ok epoch="), "got: {health}");
        // EOF or a reset both mean the daemon closed the connection; a
        // timeout means it was still reading the line.
        match client.read(&mut [0u8; 16]) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("connection stayed open: {other:?}"),
        }
        writer.join().unwrap();
        daemon.shutdown();
        daemon.join();
    }

    /// Every body is rendered on its first request from the epoch the
    /// ticker published: each `/guest/<i>` equals `render_guests` over
    /// the same world and stops at the last guest, the deterministic
    /// scrape equals the telemetry registry of the same world and engine,
    /// every rendered endpoint reads the same a second time and carries
    /// the epoch, and `/metrics` ends with the query count it was given.
    #[test]
    fn guest_bodies_render_on_request_from_the_published_epoch() {
        let config = ExperimentConfig::tiny_test(2, true).with_duration_seconds(15);
        let mut world = World::new(&config, Some(&Scenario::constant()));
        let second = 15;
        for t in 1..=second * mem::TICKS_PER_SECOND {
            world.step(t);
        }
        let mut engine = SnapshotEngine::default();
        let epoch = publish(
            &mut world,
            &mut engine,
            &mut MetricsRegistry::new(),
            second,
            false,
            &mut 0,
        );
        let epoch = Some(&epoch);

        let breakdown =
            analysis::MemorySnapshot::collect(world.host.mm(), &world.views()).breakdown();
        let report = &world.traffic().expect("a traffic world").report;
        let expected = render_guests(&world.host, &breakdown, second, Some(&report.per_guest));
        assert_eq!(expected.len(), 2);
        assert!(expected.iter().any(|g| g.contains("\"java\":{")));
        for (i, want) in expected.iter().enumerate() {
            let path = format!("/guest/{i}");
            let (content_type, first) = answer(epoch, &path, 0).expect("a guest body");
            assert_eq!(content_type, JSON);
            assert_eq!(&first, want, "guest {i}");
            assert_eq!(answer(epoch, &path, 0).map(|(_, body)| body), Some(first));
        }
        assert!(answer(epoch, &format!("/guest/{}", expected.len()), 0).is_none());

        let sharing = world.scanner.count_sharing(world.host.mm());
        let now = Tick::from_seconds(second as f64);
        let mut registry =
            telemetry::world_registry(&world.host, &world.scanner, &engine, now, sharing);
        report.record_metrics(&mut registry);
        let deterministic = answer(epoch, "/metrics/deterministic", 0).expect("a scrape");
        assert_eq!(deterministic, (PROMETHEUS, registry.render_deterministic()));

        for (path, content_type, stamp) in [
            ("/fleet", JSON, "{\"epoch_seconds\":15,"),
            ("/misses", JSON, "{\"epoch_seconds\":15,"),
            ("/top", TEXT, "tpsd | epoch 15 s |"),
        ] {
            let first = answer(epoch, path, 0).expect("an answer");
            assert_eq!(first.0, content_type, "{path}");
            assert!(first.1.starts_with(stamp), "{path}: {}", first.1);
            assert_eq!(answer(epoch, path, 0), Some(first), "{path}");
        }

        let (_, metrics) = answer(epoch, "/metrics", 7).expect("an exposition");
        assert!(metrics.starts_with(&deterministic.1), "{metrics}");
        assert!(metrics.ends_with("\ndaemon_queries_total 7\n"), "{metrics}");
    }

    /// Before the first epoch every endpoint but `/healthz` and
    /// `/guest/<i>` answers with a placeholder.
    #[test]
    fn a_booting_daemon_gives_placeholder_answers() {
        let booting = "{\"epoch_seconds\":0,\"booting\":true}\n";
        for (path, want) in [
            ("/metrics", Some((PROMETHEUS, ""))),
            ("/metrics/deterministic", Some((PROMETHEUS, ""))),
            ("/fleet", Some((JSON, booting))),
            ("/misses", Some((JSON, booting))),
            ("/top", Some((TEXT, "tpsd: booting\n"))),
            ("/healthz", None),
            ("/guest/0", None),
        ] {
            let want = want.map(|(content_type, body)| (content_type, body.to_string()));
            assert_eq!(answer(None, path, 3), want, "{path}");
        }
    }

    /// Sends `request` raw and returns the status line of the answer.
    fn raw_status(addr: SocketAddr, request: &str) -> String {
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(READ_TIMEOUT * 3)).unwrap();
        client.write_all(request.as_bytes()).unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        reply.lines().next().unwrap_or_default().to_string()
    }

    /// Only `GET` is served: a `POST /shutdown` gets 405 and leaves the
    /// daemon running, and a request line with no path gets 400.
    #[test]
    fn wrong_method_and_pathless_request_are_refused() {
        let config = ExperimentConfig::tiny_test(1, false).with_duration_seconds(2);
        let mut daemon = Daemon::spawn(DaemonConfig::new(config)).unwrap();
        wait_for_epoch(&daemon, 1);
        let status = raw_status(daemon.addr(), "POST /shutdown HTTP/1.0\r\n\r\n");
        assert_eq!(status, "HTTP/1.0 405 Method Not Allowed");
        let status = raw_status(daemon.addr(), "POST /metrics HTTP/1.0\r\n\r\n");
        assert_eq!(status, "HTTP/1.0 405 Method Not Allowed");
        let health = http_get(&daemon.addr().to_string(), "/healthz").unwrap();
        assert!(health.starts_with("ok epoch="), "got: {health}");
        let status = raw_status(daemon.addr(), "GARBAGE\r\n\r\n");
        assert_eq!(status, "HTTP/1.0 400 Bad Request");
        daemon.shutdown();
        daemon.join();
    }

    /// `/shutdown` is honoured only from a loopback peer; any other
    /// peer, or one whose address is unknown, may not stop the daemon.
    #[test]
    fn shutdown_is_honoured_only_from_loopback_peers() {
        let peer = |addr: &str| Some(addr.parse::<SocketAddr>().unwrap());
        for addr in [
            "127.0.0.1:5000",
            "127.8.9.10:1",
            "[::1]:5000",
            "[::ffff:127.0.0.1]:80",
        ] {
            assert!(may_shut_down(peer(addr)), "{addr}");
        }
        for addr in [
            "10.0.0.7:5000",
            "0.0.0.0:1",
            "[2001:db8::1]:5000",
            "[::ffff:10.0.0.7]:80",
        ] {
            assert!(!may_shut_down(peer(addr)), "{addr}");
        }
        assert!(!may_shut_down(None));
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
