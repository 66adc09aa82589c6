//! Telemetry determinism and daemon-oracle integration tests.
//!
//! Three layers of assurance for the monitoring stack (DESIGN.md §13):
//!
//! 1. **Golden pin** — one deterministic metrics scrape of the
//!    converged scale32 world is byte-pinned under
//!    `tests/golden/telemetry.txt` (regenerate with
//!    `UPDATE_GOLDEN=1 cargo test --test telemetry`), and asserted
//!    byte-identical across `--threads` counts.
//! 2. **Thread-invariance property** — random interleavings of guest
//!    writes, `madvise` releases, balloon inflations and explicit 2 MiB
//!    promotions/demotions, scanned at 1 vs. N threads, must render the
//!    *entire* deterministic exposition (scanner + paging layers)
//!    byte-identically.
//! 3. **Daemon oracle** — a live `tpsd` serving the mutating scale32
//!    world under concurrent client load must answer `/guest/<i>` with
//!    exactly the JSON rebuilt post-hoc from an unmonitored world of
//!    the same simulated length via the naive attribution walk and the
//!    naive rollup, `/misses` with exactly the merge-miss report of an
//!    unmonitored diagnosed run, and its deterministic metrics must
//!    match the unmonitored scrape series-for-series.

use mem::{Fingerprint, Tick, HUGE_PAGE_SPAN};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tpslab::analysis::{GuestView, MemorySnapshot};
use tpslab::hypervisor::BalloonDriver;
use tpslab::ksm::{KsmParams, KsmScanner};
use tpslab::obs::MetricsRegistry;
use tpslab::oskernel::{GuestOs, OsImage, Pid};
use tpslab::paging::{AsId, HostMm, MemTag, SplitReason, ThpPolicy, Vpn};
use tpslab::{Daemon, DaemonConfig, ExperimentConfig, KsmSchedule};

// ---------------------------------------------------------------------
// 1. Golden pin
// ---------------------------------------------------------------------

/// The fixed configuration the telemetry golden is generated under:
/// the scale32 over-commit preset at the figure-golden settings
/// (scale 128, 12 simulated seconds, 2 attribution workers) — the same
/// world `cargo run -p bench -- telemetry` prints.
fn golden_config(threads: usize) -> ExperimentConfig {
    ExperimentConfig::scale32(128.0)
        .with_duration_seconds(12)
        .with_ksm(KsmSchedule::compressed(128.0, 12))
        .with_threads(threads)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/telemetry.txt")
}

#[test]
fn telemetry_scrape_matches_golden_master() {
    let actual = tpslab::telemetry::golden_scrape(&golden_config(2));
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n\
             regenerate with: UPDATE_GOLDEN=1 cargo test --test telemetry",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "telemetry scrape diverged from tests/golden/telemetry.txt; if \
         intentional, regenerate with UPDATE_GOLDEN=1 cargo test --test telemetry"
    );
}

#[test]
fn telemetry_scrape_is_thread_count_invariant() {
    let one = tpslab::telemetry::golden_scrape(&golden_config(1));
    for threads in [2, 8] {
        assert_eq!(
            one,
            tpslab::telemetry::golden_scrape(&golden_config(threads)),
            "telemetry scrape diverged at {threads} threads"
        );
    }
}

// ---------------------------------------------------------------------
// 2. Thread-invariance property over mutation interleavings
// ---------------------------------------------------------------------

const GUESTS: usize = 2;
const NAMES: [&str; GUESTS] = ["vm1", "vm2"];
const HEAP_PAGES: u64 = 2 * HUGE_PAGE_SPAN as u64;
const GUEST_PAGES: usize = 4 * HUGE_PAGE_SPAN;

/// Mutations a guest or the host can interleave between scanner wakes —
/// every kind the instrumented layers count: CoW writes, `madvise`
/// releases, balloon reclaim, and explicit 2 MiB collapse/split.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write {
        guest: usize,
        page: u64,
        content: u64,
    },
    Madvise {
        guest: usize,
        page: u64,
    },
    Balloon {
        guest: usize,
        pages: u64,
    },
    Collapse {
        guest: usize,
        block: usize,
    },
    Split {
        guest: usize,
        block: usize,
    },
    Quiet,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let blocks = GUEST_PAGES / HUGE_PAGE_SPAN;
    prop_oneof![
        (0..GUESTS, 0..HEAP_PAGES, 0..6u64).prop_map(|(guest, page, content)| Op::Write {
            guest,
            page,
            content
        }),
        (0..GUESTS, 0..HEAP_PAGES).prop_map(|(guest, page)| Op::Madvise { guest, page }),
        (0..GUESTS, 1..64u64).prop_map(|(guest, pages)| Op::Balloon { guest, pages }),
        (0..GUESTS, 0..blocks).prop_map(|(guest, block)| Op::Collapse { guest, block }),
        (0..GUESTS, 0..blocks).prop_map(|(guest, block)| Op::Split { guest, block }),
        Just(Op::Quiet),
    ]
}

fn content_fp(content: u64) -> Fingerprint {
    if content == 0 {
        Fingerprint::ZERO
    } else {
        Fingerprint::of(&[content % 6])
    }
}

struct GuestState {
    os: GuestOs,
    pid: Pid,
    heap: Vpn,
    space: AsId,
    slot_base: Vpn,
}

struct WorldState {
    mm: HostMm,
    guests: Vec<GuestState>,
}

impl WorldState {
    fn build() -> WorldState {
        let mut mm = HostMm::new();
        let mut guests = Vec::new();
        for (i, &name) in NAMES.iter().enumerate() {
            let space = mm.create_space(name);
            let mut os = GuestOs::boot(
                &mut mm,
                space,
                GUEST_PAGES,
                &OsImage::tiny_test(),
                i as u64 + 1,
                Tick::ZERO,
            );
            os.set_thp_policy(ThpPolicy::Always);
            let pid = os.spawn("java");
            let heap = os.add_region(pid, HEAP_PAGES as usize, MemTag::JavaHeap);
            for p in 0..HEAP_PAGES {
                os.write_page(&mut mm, pid, heap.offset(p), content_fp(p % 5), Tick::ZERO);
            }
            let slot_base = mm
                .spaces()
                .iter()
                .find(|s| s.id() == space)
                .and_then(|s| s.regions().next())
                .map(|r| r.base())
                .expect("guest memslot region exists");
            guests.push(GuestState {
                os,
                pid,
                heap,
                space,
                slot_base,
            });
        }
        WorldState { mm, guests }
    }

    fn apply(&mut self, op: Op, now: Tick) {
        match op {
            Op::Write {
                guest,
                page,
                content,
            } => {
                let g = &mut self.guests[guest];
                g.os.write_page(
                    &mut self.mm,
                    g.pid,
                    g.heap.offset(page),
                    content_fp(content),
                    now,
                );
            }
            Op::Madvise { guest, page } => {
                let g = &mut self.guests[guest];
                g.os.release_page(&mut self.mm, g.pid, g.heap.offset(page));
            }
            Op::Balloon { guest, pages } => {
                let g = &mut self.guests[guest];
                let target_mib = mem::pages_to_mib(pages as usize);
                BalloonDriver::new(target_mib).inflate(&mut self.mm, &mut g.os);
            }
            Op::Collapse { guest, block } => {
                let g = &self.guests[guest];
                self.mm.try_collapse(g.space, g.slot_base, block);
            }
            Op::Split { guest, block } => {
                let g = &self.guests[guest];
                self.mm
                    .split_block(g.space, g.slot_base, block, SplitReason::Madvise);
            }
            Op::Quiet => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The rendered deterministic exposition — every scanner and paging
    /// series at once — is byte-identical at 1, 2 and 4 scan threads
    /// for arbitrary write/madvise/balloon/collapse/split interleavings.
    #[test]
    fn exposition_is_thread_invariant_under_interleavings(
        ops in prop::collection::vec(op_strategy(), 0..20),
        budget in 200usize..900,
    ) {
        let params = KsmParams::new(budget, 100);
        let drive = |threads: usize| {
            let mut w = WorldState::build();
            let mut scanner = KsmScanner::new(params).with_threads(threads);
            let mut t = 1u64;
            for &op in &ops {
                w.apply(op, Tick(t));
                scanner.run(&mut w.mm, Tick(t));
                t += 1;
            }
            for _ in 0..8 {
                scanner.run(&mut w.mm, Tick(t));
                t += 1;
            }
            scanner.recount(&w.mm);
            let mut reg = MetricsRegistry::new();
            scanner.record_metrics(&mut reg);
            w.mm.record_metrics(&mut reg);
            reg.render_deterministic()
        };
        let baseline = drive(1);
        for threads in [2, 4] {
            prop_assert_eq!(
                &baseline,
                &drive(threads),
                "exposition diverged at {} threads",
                threads
            );
        }
    }
}

// ---------------------------------------------------------------------
// 3. Daemon vs. post-hoc naive oracle, under concurrent queries
// ---------------------------------------------------------------------

/// Extracts the embedded epoch from a `/guest/<i>` or `/misses` JSON body.
fn body_epoch(body: &str) -> u64 {
    body.strip_prefix("{\"epoch_seconds\":")
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no epoch in body: {body}"))
}

/// Extracts the `sim_seconds` gauge from a deterministic metrics body.
fn metrics_epoch(body: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix("sim_seconds "))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or_else(|| panic!("no sim_seconds in metrics body: {body}"))
}

/// Drops the engine-lifetime series (`engine_*`): the daemon's warm
/// engine has snapshotted once per epoch, the oracle's fresh engine
/// exactly once, so those counters legitimately differ. Everything
/// else must match series-for-series.
fn without_engine_series(body: &str) -> String {
    body.lines()
        .filter(|l| !l.contains("engine_"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn daemon_answers_match_naive_oracle_at_same_epoch() {
    // The daemon ticks the scale32 world on a long horizon with a
    // wall-clock throttle wide enough to fetch every guest inside one
    // published epoch; the oracle below replays the same config to the
    // observed epoch. The KSM schedule is fixed up front so truncating
    // the duration cannot change scanner behaviour.
    let base = ExperimentConfig::scale32(128.0)
        .with_ksm(KsmSchedule::compressed(128.0, 12))
        .with_threads(2);
    let mut dcfg = DaemonConfig::new(base.clone().with_duration_seconds(3_600));
    dcfg.throttle_ms = 250;
    let mut daemon = Daemon::spawn(dcfg).expect("spawn daemon");
    let deadline = Instant::now() + Duration::from_secs(300);
    while daemon.epoch_seconds() < 3 {
        assert!(Instant::now() < deadline, "daemon never reached epoch 3");
        std::thread::sleep(Duration::from_millis(20));
    }
    let addr = daemon.addr().to_string();

    // Concurrent load for the whole comparison window: three clients
    // hammering mixed endpoints while we take the epoch-consistent
    // reads. Their answers only need to be well-formed — the point is
    // that the oracle comparison happens *under* concurrent mutation
    // and queries.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let addr = addr.clone();
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let paths = ["/metrics", "/fleet", "/misses", "/top", "/healthz"];
                let mut i = c;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let body =
                        tpslab::http_get(&addr, paths[i % paths.len()]).expect("concurrent query");
                    assert!(!body.is_empty());
                    i += 1;
                }
            })
        })
        .collect();

    // Epoch-consistent capture: all guest bodies, the miss report and
    // the deterministic metrics must report the same simulated second.
    // Retry while the publish boundary slices through the reads.
    let n_guests = base.guests.len();
    let mut captured: Option<(u64, Vec<String>, String, String)> = None;
    for _ in 0..40 {
        let metrics = tpslab::http_get(&addr, "/metrics/deterministic").expect("metrics");
        let s = metrics_epoch(&metrics);
        let guests: Vec<String> = (0..n_guests)
            .map(|i| tpslab::http_get(&addr, &format!("/guest/{i}")).expect("guest"))
            .collect();
        let misses = tpslab::http_get(&addr, "/misses").expect("misses");
        if guests.iter().all(|g| body_epoch(g) == s)
            && body_epoch(&misses) == s
            && metrics_epoch(&tpslab::http_get(&addr, "/metrics/deterministic").expect("metrics"))
                == s
        {
            captured = Some((s, guests, misses, metrics));
            break;
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for c in clients {
        c.join().expect("client thread");
    }
    let (epoch, daemon_guests, daemon_misses, daemon_metrics) =
        captured.expect("never captured an epoch-consistent read");
    daemon.shutdown();
    daemon.join();

    // Post-hoc oracle: replay the identical config to `epoch` simulated
    // seconds in-process, walk attribution with the naive reference
    // collector, roll it up with the naive reference rollup, and rebuild
    // the canonical per-guest JSON.
    let oracle_cfg = base.with_duration_seconds(epoch);
    let (host, javas) = tpslab::Experiment::build_world(&oracle_cfg);
    let views: Vec<GuestView<'_>> = host
        .guests()
        .iter()
        .zip(&javas)
        .map(|(g, j)| GuestView::new(&g.name, &g.os, vec![j.pid()]))
        .collect();
    let naive = MemorySnapshot::collect_naive(host.mm(), &views);
    let expected_guests = tpslab::render_guests(&host, &naive.breakdown_naive(), epoch, None);
    assert_eq!(expected_guests.len(), daemon_guests.len());
    for (i, (expected, actual)) in expected_guests.iter().zip(&daemon_guests).enumerate() {
        assert_eq!(
            expected, actual,
            "daemon /guest/{i} diverged from the naive oracle at epoch {epoch}"
        );
    }

    // The miss report must be what a diagnosed unmonitored run of the
    // same length finds.
    let report = tpslab::Experiment::run(&oracle_cfg.clone().with_diagnose()).expect("oracle run");
    let expected_misses = format!(
        "{{\"epoch_seconds\":{epoch},{}\n",
        report
            .merge_miss
            .expect("diagnosis was enabled")
            .to_json()
            .trim_start_matches('{')
    );
    assert_eq!(
        expected_misses, daemon_misses,
        "daemon /misses diverged from the diagnosed run at epoch {epoch}"
    );

    // And the deterministic metrics series (engine-lifetime counters
    // aside) must be what an unmonitored scrape of the same world says.
    let oracle_metrics = tpslab::telemetry::golden_scrape(&oracle_cfg);
    assert_eq!(
        without_engine_series(&oracle_metrics),
        without_engine_series(&daemon_metrics),
        "daemon deterministic metrics diverged from the unmonitored scrape at epoch {epoch}"
    );
}
