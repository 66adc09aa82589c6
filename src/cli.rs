//! The command-line interface: argument parsing and subcommand
//! execution, testable without spawning a process.

use std::fmt::Write as _;
use std::io::Write as _;
use tpslab::traffic::Scenario;
use tpslab::{Experiment, ExperimentConfig, GuestSpec, KsmSchedule, PowerVmExperiment};
use workloads::Benchmark;

/// Usage text shown on bad input.
pub const USAGE: &str = "\
usage:
  tps-java run     [--guests N] [--benchmark NAME] [--preset NAME] [--scale S] [--minutes M] [--preload]
                   [--csv] [--audit] [--trace FILE] [--profile] [--timeline S] [--thp POLICY]
  tps-java traffic [--scenario NAME] [--guests N] [--benchmark NAME] [--preset NAME] [--scale S]
                   [--minutes M] [--preload] [--audit] [--thp POLICY]
  tps-java explain [--guests N] [--benchmark NAME] [--preset NAME] [--scale S] [--minutes M] [--preload]
                   [--top N] [--audit] [--thp POLICY]
  tps-java sweep   [--from N] [--to N] [--benchmark NAME] [--preset NAME] [--scale S] [--minutes M]
                   [--audit] [--thp POLICY]
  tps-java powervm [--scale S] [--minutes M]
  tps-java smaps   [--preload]
  tps-java serve   [--port P] [--scenario NAME] [--throttle-ms MS] [--guests N] [--benchmark NAME]
                   [--preset NAME] [--scale S] [--minutes M] [--preload] [--audit] [--thp POLICY]
                   [--addr HOST:PORT]
  tps-java top     [--addr HOST:PORT] [--port P] [--once] [--interval-ms MS]
  tps-java scenario list
Each subcommand refuses a flag it does not read.
benchmarks: daytrader | specjenterprise | tpcw | tuscany
presets: scale32 | scale256 | scale1024 — fleet SPECjEnterprise
configurations (preset fixes the benchmark and host). --guests sets the
guest count, validated against the host's memory budget.
scenarios: constant | diurnal | flash-crowd | rolling-deploy |
noisy-neighbor | autoscale — `traffic` replaces the scripted tick
workload with the discrete-event request engine and reports sharing
stability and throughput versus offered load; `scenario list` describes
each one.
--audit runs the cross-layer conservation audit at the end of each
experiment (always on in debug builds) and aborts on any violation.
--trace FILE writes the page-lifecycle event trace as JSONL; --profile
prints the per-phase cost table. `run --csv` prints only the CSV: it
refuses --profile and --timeline, and its trace summary goes to stderr.
`explain` reruns the experiment with
tracing on and reports why content-identical pages were not merged,
plus the --top N busiest page lifecycles. --timeline S samples the
sharing timeline with full attribution every S simulated seconds and
prints one row per sample. --thp POLICY (never | madvise | always,
default never) sets both the host khugepaged and guest fault-around
transparent-huge-page policies; the run reports 2 MiB-mapped memory and
the TLB-reach throughput credit when nonzero.
`serve` runs the experiment as the persistent tpsd monitoring daemon on
a local socket (default 127.0.0.1:7878, --port 0 for ephemeral; --port and
--addr both name that address, so they do not combine): /metrics is
the Prometheus-style exposition, /guest/N and /fleet and /misses are
attribution JSON, /top is the live fleet table, /shutdown stops it.
With --scenario the daemon ticks the traffic engine instead of the
scripted workload; --throttle-ms slows simulated seconds to wall time
so the view is watchable. `top` polls a daemon and repaints its fleet
table every --interval-ms (default 1000); --once prints one snapshot.";

/// A parse or execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Every subcommand that takes options and the flags it reads, in
/// [`USAGE`] order. A flag that only other subcommands read is refused
/// rather than silently dropped.
const FLAGS: [(&str, &str); 8] = [
    (
        "run",
        "--guests --benchmark --preset --scale --minutes --preload --csv --audit --trace \
         --profile --timeline --thp",
    ),
    (
        "traffic",
        "--scenario --guests --benchmark --preset --scale --minutes --preload --audit --thp",
    ),
    (
        "explain",
        "--guests --benchmark --preset --scale --minutes --preload --top --audit --thp",
    ),
    (
        "sweep",
        "--from --to --benchmark --preset --scale --minutes --audit --thp",
    ),
    ("powervm", "--scale --minutes"),
    ("smaps", "--preload"),
    (
        "serve",
        "--port --scenario --throttle-ms --guests --benchmark --preset --scale --minutes \
         --preload --audit --thp --addr",
    ),
    ("top", "--addr --port --once --interval-ms"),
];

/// Parsed common options.
#[derive(Debug, Clone, PartialEq)]
struct Opts {
    guests: usize,
    guests_explicit: bool,
    from: usize,
    to: usize,
    benchmark: String,
    preset: Option<String>,
    scale: f64,
    minutes: f64,
    preload: bool,
    csv: bool,
    audit: bool,
    trace: Option<String>,
    profile: bool,
    top: usize,
    timeline: Option<u64>,
    scenario: String,
    scenario_explicit: bool,
    thp: Option<String>,
    port: Option<u16>,
    addr: Option<String>,
    once: bool,
    interval_ms: u64,
    throttle_ms: u64,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            guests: 4,
            guests_explicit: false,
            from: 4,
            to: 9,
            benchmark: "daytrader".into(),
            preset: None,
            scale: 8.0,
            minutes: 6.0,
            preload: false,
            csv: false,
            audit: false,
            trace: None,
            profile: false,
            top: 3,
            timeline: None,
            scenario: "constant".into(),
            scenario_explicit: false,
            thp: None,
            port: None,
            addr: None,
            once: false,
            interval_ms: 1000,
            throttle_ms: 0,
        }
    }
}

/// Parses `cmd`'s options: a flag [`FLAGS`] does not list for `cmd` is
/// refused.
fn parse_opts(cmd: &str, args: &[String]) -> Result<Opts, CliError> {
    let reads = |flags: &str, arg: &str| flags.split(' ').any(|f| f == arg);
    let own = FLAGS.iter().find(|(c, _)| *c == cmd).map_or("", |(_, f)| f);
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !reads(own, arg) && FLAGS.iter().any(|(_, flags)| reads(flags, arg)) {
            return Err(err(format!("{arg} does not apply to {cmd}")));
        }
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| err(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--guests" => {
                opts.guests = value("--guests")?
                    .parse()
                    .map_err(|_| err("--guests: not a number"))?;
                opts.guests_explicit = true;
            }
            "--from" => {
                opts.from = value("--from")?
                    .parse()
                    .map_err(|_| err("--from: not a number"))?
            }
            "--to" => {
                opts.to = value("--to")?
                    .parse()
                    .map_err(|_| err("--to: not a number"))?
            }
            "--benchmark" => opts.benchmark = value("--benchmark")?.clone(),
            "--preset" => opts.preset = Some(value("--preset")?.clone()),
            "--scale" => {
                opts.scale = value("--scale")?
                    .parse()
                    .map_err(|_| err("--scale: not a number"))?
            }
            "--minutes" => {
                opts.minutes = value("--minutes")?
                    .parse()
                    .map_err(|_| err("--minutes: not a number"))?
            }
            "--preload" => opts.preload = true,
            "--csv" => opts.csv = true,
            "--audit" => opts.audit = true,
            "--trace" => opts.trace = Some(value("--trace")?.clone()),
            "--profile" => opts.profile = true,
            "--top" => {
                opts.top = value("--top")?
                    .parse()
                    .map_err(|_| err("--top: not a number"))?
            }
            "--timeline" => {
                opts.timeline = Some(
                    value("--timeline")?
                        .parse()
                        .map_err(|_| err("--timeline: not a number"))?,
                )
            }
            "--scenario" => {
                opts.scenario = value("--scenario")?.clone();
                opts.scenario_explicit = true;
            }
            "--thp" => opts.thp = Some(value("--thp")?.clone()),
            "--port" => {
                opts.port = Some(
                    value("--port")?
                        .parse()
                        .map_err(|_| err("--port: not a port number"))?,
                )
            }
            "--addr" => opts.addr = Some(value("--addr")?.clone()),
            "--once" => opts.once = true,
            "--interval-ms" => {
                opts.interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|_| err("--interval-ms: not a number"))?
            }
            "--throttle-ms" => {
                opts.throttle_ms = value("--throttle-ms")?
                    .parse()
                    .map_err(|_| err("--throttle-ms: not a number"))?
            }
            other => return Err(err(format!("unknown option {other}"))),
        }
    }
    if opts.guests == 0 || opts.from == 0 || opts.to < opts.from {
        return Err(err("guest counts must be positive and --to >= --from"));
    }
    ExperimentConfig::check_scale(opts.scale).map_err(|e| err(format!("--scale: {e}")))?;
    if !opts.minutes.is_finite() {
        return Err(err("--minutes must be a finite number"));
    }
    // A huge finite count would cast to a run that never ends.
    let max_minutes = ExperimentConfig::MAX_DURATION_SECONDS / 60;
    if opts.minutes > max_minutes as f64 {
        return Err(err(format!(
            "--minutes must be at most {max_minutes} (one simulated day)"
        )));
    }
    if opts.top == 0 {
        return Err(err("--top must be positive"));
    }
    if opts.timeline == Some(0) {
        return Err(err("--timeline must be positive"));
    }
    if opts.interval_ms == 0 {
        return Err(err("--interval-ms must be positive"));
    }
    if opts.port.is_some() && opts.addr.is_some() {
        return Err(err(
            "--port and --addr both name the daemon's address; give one",
        ));
    }
    Ok(opts)
}

/// The daemon's address: `--addr`, or loopback at `--port` (default
/// 7878).
fn daemon_addr(opts: &Opts) -> String {
    opts.addr
        .clone()
        .unwrap_or_else(|| format!("127.0.0.1:{}", opts.port.unwrap_or(7878)))
}

/// What the run header calls the workload: the preset name when one was
/// chosen (it fixes the benchmark), the `--benchmark` name otherwise.
fn workload_label(opts: &Opts) -> &str {
    opts.preset.as_deref().unwrap_or(&opts.benchmark)
}

fn benchmark_by_name(name: &str, scale: f64) -> Result<Benchmark, CliError> {
    let bench = match name {
        "daytrader" => workloads::daytrader(),
        "specjenterprise" => workloads::specjenterprise_generational(),
        "tpcw" => workloads::tpcw(),
        "tuscany" => workloads::tuscany(),
        other => return Err(err(format!("unknown benchmark {other} (see usage)"))),
    };
    Ok(bench.scaled(scale))
}

/// Builds the fleet preset named on the command line: a typo'd
/// `--preset` fails in [`ExperimentConfig::preset`] and an over-budget
/// `--guests 100000` in [`ExperimentConfig::with_guest_count`], and
/// their typed errors render as the diagnostic.
fn preset_config(opts: &Opts, name: &str, guests: usize) -> Result<ExperimentConfig, CliError> {
    let mut cfg = ExperimentConfig::preset(name, opts.scale).map_err(|e| err(e.to_string()))?;
    if opts.guests_explicit {
        cfg = cfg
            .with_guest_count(guests)
            .map_err(|e| err(e.to_string()))?;
    }
    Ok(cfg)
}

fn config_for(opts: &Opts, guests: usize) -> Result<ExperimentConfig, CliError> {
    let mut cfg = if let Some(name) = &opts.preset {
        preset_config(opts, name, guests)?
    } else {
        let benchmark = benchmark_by_name(&opts.benchmark, opts.scale)?;
        let mut cfg = ExperimentConfig::paper_daytrader_4vm(opts.scale);
        let mem_mib = if opts.benchmark == "specjenterprise" {
            1280.0 / opts.scale
        } else {
            1024.0 / opts.scale
        };
        cfg.guests = vec![GuestSpec { benchmark, mem_mib }];
        cfg.with_guest_count(guests)
            .map_err(|e| err(e.to_string()))?
    };
    let seconds = (opts.minutes * 60.0) as u64;
    cfg = cfg
        .with_duration_seconds(seconds)
        .with_ksm(KsmSchedule::compressed(opts.scale, seconds));
    if opts.preload {
        cfg = cfg.with_class_sharing();
    }
    if opts.audit {
        cfg = cfg.with_audit();
    }
    if let Some(name) = &opts.thp {
        let policy = tpslab::paging::ThpPolicy::parse(name).ok_or_else(|| {
            err(format!(
                "--thp: unknown policy {name} (never | madvise | always)"
            ))
        })?;
        cfg = cfg.with_thp(policy);
    }
    if let Some(seconds) = opts.timeline {
        cfg = cfg.with_timeline(seconds).with_timeline_attribution();
    }
    Ok(cfg)
}

/// Parses and runs one invocation, returning its stdout text.
///
/// # Errors
///
/// Returns a [`CliError`] on unknown subcommands, options, or values.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| err("missing subcommand"))?;
    let opts = || parse_opts(cmd, rest);
    match cmd.as_str() {
        "run" => cmd_run(&opts()?),
        "traffic" => cmd_traffic(&opts()?),
        "explain" => cmd_explain(&opts()?),
        "sweep" => cmd_sweep(&opts()?),
        "powervm" => cmd_powervm(&opts()?),
        "smaps" => cmd_smaps(&opts()?),
        "serve" => cmd_serve(&opts()?),
        "top" => cmd_top(&opts()?),
        "scenario" => cmd_scenario(rest),
        other => Err(err(format!("unknown subcommand {other}"))),
    }
}

fn cmd_run(opts: &Opts) -> Result<String, CliError> {
    // The CSV is all `--csv` prints: no table or timeline rows.
    for (flag, set) in [
        ("--profile", opts.profile),
        ("--timeline", opts.timeline.is_some()),
    ] {
        if opts.csv && set {
            return Err(err(format!("{flag} does not apply to run --csv")));
        }
    }
    let mut cfg = config_for(opts, opts.guests)?;
    if opts.trace.is_some() {
        cfg = cfg.with_trace();
    }
    let n_guests = cfg.guests.len();
    let report = Experiment::run(&cfg).map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    if let Some(path) = &opts.trace {
        let log = report.trace.as_ref().expect("tracing was enabled");
        std::fs::write(path, log.to_jsonl()).map_err(|e| err(format!("--trace {path}: {e}")))?;
        warn_dropped_events(log);
        let summary = format!(
            "trace: {} events ({} dropped, {} merged-then-broken mappings) -> {path}\n",
            log.events.len(),
            log.dropped,
            log.broken_mappings.len(),
        );
        // CSV stdout stays CSV from its first line.
        if opts.csv {
            let _ = std::io::stderr().write_all(summary.as_bytes());
        } else {
            out.push_str(&summary);
        }
    }
    if opts.csv {
        out.push_str(&analysis::guest_csv(&report.breakdown));
        out.push('\n');
        out.push_str(&analysis::java_csv(&report.breakdown));
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "{} x {} | scale 1/{} | preload: {}",
        n_guests,
        workload_label(opts),
        opts.scale,
        opts.preload
    );
    out.push_str(&analysis::render_guest_table(&report.breakdown));
    let _ = writeln!(
        out,
        "\nnon-primary Java saving: {:.1} MiB | class metadata eliminated: {:.1} % | slowdown {:.3}",
        report.mean_nonprimary_java_saving_mib() * opts.scale,
        100.0 * report.mean_nonprimary_class_saving_fraction(),
        report.slowdown,
    );
    if report.huge_mib > 0.0 || report.ksm.thp_splits > 0 {
        let _ = writeln!(
            out,
            "thp huge: {:.1} MiB | tlb boost {:.3} | ksm thp splits {}",
            report.huge_mib * opts.scale,
            report.tlb_boost,
            report.ksm.thp_splits,
        );
    }
    if !report.timeline.is_empty() {
        out.push('\n');
        let _ = writeln!(
            out,
            "{:>8} {:>13} {:>14} {:>15}",
            "seconds", "resident MiB", "pages_sharing", "tps_saving MiB"
        );
        for point in &report.timeline {
            let _ = writeln!(
                out,
                "{:>8.0} {:>13.1} {:>14} {:>15.1}",
                point.seconds,
                point.resident_mib * opts.scale,
                point.pages_sharing,
                point.tps_saving_mib.unwrap_or(0.0) * opts.scale,
            );
        }
    }
    if opts.profile {
        out.push('\n');
        out.push_str(&report.phases.render());
    }
    Ok(out)
}

/// `tps-java scenario list`: one line per traffic scenario, the same
/// table the unknown-scenario error shows.
fn cmd_scenario(rest: &[String]) -> Result<String, CliError> {
    match rest.first().map(String::as_str) {
        Some("list") | None => Ok(format!("traffic scenarios:\n{}", Scenario::describe_all())),
        Some(other) => Err(err(format!(
            "unknown scenario subcommand {other} (expected: list)"
        ))),
    }
}

fn cmd_traffic(opts: &Opts) -> Result<String, CliError> {
    let cfg = config_for(opts, opts.guests)?;
    let scenario = Scenario::by_name(&opts.scenario, cfg.duration_seconds, cfg.guests.len())
        .ok_or_else(|| err(tpslab::Error::UnknownScenario(opts.scenario.clone()).to_string()))?;
    let n_guests = cfg.guests.len();
    let report = Experiment::run_traffic(&cfg, &scenario).map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} x {} | scale 1/{} | scenario {}",
        n_guests,
        workload_label(opts),
        opts.scale,
        scenario.name,
    );
    out.push_str(&report.render());
    Ok(out)
}

/// Renders the `--top N` busiest page lifecycles from a trace: the
/// per-mapping event chains with the most recorded events.
fn render_lifecycles(log: &tpslab::obs::TraceLog, top: usize) -> String {
    use std::collections::HashMap;
    /// One mapping's recorded history: `(tick, event name)` in emission order.
    type Lifecycle = Vec<(u64, &'static str)>;
    let mut by_mapping: HashMap<(u32, u64), Lifecycle> = HashMap::new();
    for ev in &log.events {
        if let Some(key) = ev.kind.mapping() {
            by_mapping
                .entry(key)
                .or_default()
                .push((ev.tick, ev.kind.name()));
        }
    }
    let mut ranked: Vec<((u32, u64), Lifecycle)> = by_mapping.into_iter().collect();
    // Busiest first; (space, vpn) breaks ties deterministically.
    ranked.sort_by_key(|(key, events)| (std::cmp::Reverse(events.len()), *key));
    ranked.truncate(top);
    let mut out = format!("top {top} page lifecycles (most-eventful mappings):\n");
    if ranked.is_empty() {
        out.push_str("  (no per-page events recorded)\n");
        return out;
    }
    const MAX_STEPS: usize = 10;
    for ((space, vpn), events) in ranked {
        let _ = writeln!(
            out,
            "  space {space} vpn {vpn:#x} - {} events",
            events.len()
        );
        let mut line = String::from("   ");
        for (tick, name) in events.iter().take(MAX_STEPS) {
            let _ = write!(line, " t{tick}:{name}");
        }
        if events.len() > MAX_STEPS {
            let _ = write!(line, " ... ({} more)", events.len() - MAX_STEPS);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Warns on stderr when the tracer's bounded ring dropped events: the
/// drop count itself is deterministic, but any analysis derived from
/// the *surviving* events (lifecycles, broken-mapping sets) is partial.
fn warn_dropped_events(log: &tpslab::obs::TraceLog) {
    if log.dropped > 0 {
        let _ = writeln!(
            std::io::stderr(),
            "warning: trace ring buffer dropped {} events; lifecycle and \
             broken-mapping views are incomplete (raise the tracer capacity \
             or shorten the run)",
            log.dropped
        );
    }
}

fn cmd_explain(opts: &Opts) -> Result<String, CliError> {
    let cfg = config_for(opts, opts.guests)?.with_trace().with_diagnose();
    let n_guests = cfg.guests.len();
    let report = Experiment::run(&cfg).map_err(|e| err(e.to_string()))?;
    let miss = report.merge_miss.as_ref().expect("diagnosis was enabled");
    let log = report.trace.as_ref().expect("tracing was enabled");
    warn_dropped_events(log);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} x {} | scale 1/{} | preload: {} | pages_sharing {}",
        n_guests,
        workload_label(opts),
        opts.scale,
        opts.preload,
        report.ksm.pages_sharing,
    );
    out.push_str(&miss.render());
    out.push('\n');
    out.push_str(&render_lifecycles(log, opts.top));
    let _ = writeln!(
        out,
        "\ntrace: {} events recorded, {} dropped, {} merged-then-broken mappings",
        log.events.len(),
        log.dropped,
        log.broken_mappings.len(),
    );
    Ok(out)
}

fn cmd_sweep(opts: &Opts) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:>18} {:>18}",
        "VMs", "default (thr)", "preloaded (thr)"
    );
    // Every point is built (and budget-checked) before the first runs,
    // at its own guest count rather than a preset's.
    let opts = &Opts {
        guests_explicit: true,
        ..opts.clone()
    };
    let configs = (opts.from..=opts.to)
        .map(|n| config_for(opts, n))
        .collect::<Result<Vec<_>, _>>()?;
    for (n, cfg) in (opts.from..).zip(&configs) {
        let default = Experiment::run(cfg).map_err(|e| err(e.to_string()))?;
        let preload =
            Experiment::run(&cfg.clone().with_class_sharing()).map_err(|e| err(e.to_string()))?;
        let _ = writeln!(
            out,
            "{:>4} {:>18.1} {:>18.1}",
            n,
            default.total_throughput(),
            preload.total_throughput()
        );
    }
    Ok(out)
}

fn cmd_powervm(opts: &Opts) -> Result<String, CliError> {
    let mut exp = PowerVmExperiment::paper(opts.scale);
    exp.startup_seconds = (opts.minutes * 60.0) as u64;
    let without = exp.run(false);
    let with = exp.run(true);
    let mut out = String::new();
    for (name, fig) in [("not preloaded", without), ("preloaded", with)] {
        let _ = writeln!(
            out,
            "{name:<16} before {:>10.1} MiB | after {:>10.1} MiB | saved {:>8.1} MiB",
            fig.before_mib * opts.scale,
            fig.after_mib * opts.scale,
            fig.saving_mib() * opts.scale,
        );
    }
    let _ = writeln!(
        out,
        "preloading delta: {:.1} MiB",
        (with.saving_mib() - without.saving_mib()) * opts.scale
    );
    Ok(out)
}

fn cmd_smaps(opts: &Opts) -> Result<String, CliError> {
    // A two-guest demo of the §II.A PSS view, read from the
    // attribution breakdown.
    let mut cfg = ExperimentConfig::small_test(2, opts.preload);
    cfg.timeline = None;
    let report = Experiment::run(&cfg).map_err(|e| err(e.to_string()))?;
    let mut out = String::from("per-JVM PSS view (distribution-oriented accounting):\n");
    for java in &report.breakdown.javas {
        let _ = writeln!(out, "  {}", analysis::summarize_java(java));
        for (cat, usage) in &java.categories {
            let _ = writeln!(
                out,
                "    {cat:<18} rss {:>8.2} MiB  pss {:>8.2} MiB",
                usage.resident_mib, usage.pss_mib
            );
        }
    }
    Ok(out)
}

/// `serve`: run the experiment as the persistent `tpsd` monitoring
/// daemon. Prints the bound address immediately (so scripts using
/// `--port 0` can discover the ephemeral port), then blocks until a
/// client hits `/shutdown`.
fn cmd_serve(opts: &Opts) -> Result<String, CliError> {
    let cfg = config_for(opts, opts.guests)?;
    let scenario = if opts.scenario_explicit {
        Some(
            Scenario::by_name(&opts.scenario, cfg.duration_seconds, cfg.guests.len()).ok_or_else(
                || err(tpslab::Error::UnknownScenario(opts.scenario.clone()).to_string()),
            )?,
        )
    } else {
        None
    };
    let mut dcfg = tpslab::DaemonConfig::new(cfg);
    dcfg.scenario = scenario;
    dcfg.addr = daemon_addr(opts);
    dcfg.throttle_ms = opts.throttle_ms;
    let mut daemon = tpslab::Daemon::spawn(dcfg).map_err(|e| err(e.to_string()))?;
    // Nobody may read the banner (`serve | head -1`); the daemon serves
    // on regardless.
    let mut out = std::io::stdout();
    let _ = writeln!(out, "tpsd listening on {}", daemon.addr());
    let _ = out.flush();
    daemon.join();
    Ok(format!(
        "tpsd: stopped at simulated second {}\n",
        daemon.epoch_seconds()
    ))
}

/// `top`: poll a running daemon's `/top` endpoint. `--once` prints a
/// single snapshot; otherwise the table is repainted in place every
/// `--interval-ms` until the daemon goes away.
fn cmd_top(opts: &Opts) -> Result<String, CliError> {
    let addr = daemon_addr(opts);
    if opts.once {
        return tpslab::http_get(&addr, "/top").map_err(|e| err(e.to_string()));
    }
    // First poll must succeed so a typo'd address is a hard error, not
    // an infinite repaint loop.
    let mut table = tpslab::http_get(&addr, "/top").map_err(|e| err(e.to_string()))?;
    loop {
        // ANSI clear + home, then the freshly rendered fleet table. The
        // view ends when nothing reads it any more.
        let mut out = std::io::stdout();
        if write!(out, "\x1b[2J\x1b[H{table}")
            .and_then(|()| out.flush())
            .is_err()
        {
            return Ok(String::new());
        }
        std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms));
        table = match tpslab::http_get(&addr, "/top") {
            Ok(t) => t,
            Err(_) => return Ok(format!("tps top: daemon at {addr} stopped\n")),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let opts = parse_opts(
            "run",
            &argv("--guests 3 --preload --csv --audit --scale 16 --minutes 2"),
        )
        .unwrap();
        assert_eq!(opts.guests, 3);
        assert!(opts.preload);
        assert!(opts.csv);
        assert!(opts.audit);
        assert_eq!(opts.scale, 16.0);
        assert!(!parse_opts("run", &argv("--guests 3")).unwrap().audit);
    }

    #[test]
    fn parse_rejects_bad_input() {
        let run = |line: &str| parse_opts("run", &argv(line));
        assert!(run("--guests").is_err());
        assert!(run("--guests zero").is_err());
        assert!(run("--wat 1").is_err());
        assert!(run("--scale 0.5").is_err());
        // A divisor past the cap shrinks guests below a kernel and a JVM.
        let max = ExperimentConfig::MAX_SCALE;
        assert_eq!(run(&format!("--scale {max}")).unwrap().scale, max);
        for line in ["--scale 30000", "--scale 100000", "--scale 1e300"] {
            let e = run(line).unwrap_err().to_string();
            assert!(e.starts_with("--scale: the size divisor"), "{line}: {e}");
        }
        assert!(parse_opts("sweep", &argv("--from 5 --to 3")).is_err());
        assert!(run("--timeline 0").is_err());
        // Non-finite sizes would panic deep in the run or never end.
        for line in [
            "--scale nan",
            "--scale inf",
            "--minutes inf",
            "--minutes nan",
        ] {
            assert!(run(line).is_err(), "{line}");
        }
        // So would a finite count past one simulated day.
        assert!(run("--minutes 1440").is_ok());
        for line in ["--minutes 1440.5", "--minutes 1e12"] {
            let e = run(line).unwrap_err();
            assert!(e.to_string().contains("at most 1440"), "{line}: {e}");
        }
        let e = run("--threads 2").unwrap_err();
        assert_eq!(e.to_string(), "unknown option --threads");
        // A flag the subcommand would silently drop is refused, before
        // anything runs.
        for (line, want) in [
            (
                "traffic --profile --timeline 5 --csv",
                "--profile does not apply to traffic",
            ),
            (
                "traffic --timeline 5",
                "--timeline does not apply to traffic",
            ),
            ("traffic --csv", "--csv does not apply to traffic"),
            (
                "powervm --guests 9 --preload",
                "--guests does not apply to powervm",
            ),
            ("powervm --preload", "--preload does not apply to powervm"),
            ("sweep --preload", "--preload does not apply to sweep"),
            (
                "run --csv --profile",
                "--profile does not apply to run --csv",
            ),
            (
                "run --csv --timeline 5",
                "--timeline does not apply to run --csv",
            ),
            ("top --once --guests 2", "--guests does not apply to top"),
        ] {
            let e = dispatch(&argv(line)).unwrap_err();
            assert_eq!(e.to_string(), want, "{line}");
        }
    }

    /// USAGE lists exactly the flags each subcommand reads.
    #[test]
    fn usage_lists_the_flags_each_subcommand_reads() {
        let mut listed: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in USAGE.lines().skip(1) {
            if let Some(rest) = line.trim_start().strip_prefix("tps-java ") {
                listed.push((rest.split(' ').next().unwrap(), Vec::new()));
            } else if !line.starts_with("   ") {
                break;
            }
            let flags = &mut listed.last_mut().unwrap().1;
            flags.extend(line.split(['[', ']', ' ']).filter(|w| w.starts_with("--")));
        }
        let scenario = listed.pop().unwrap();
        assert_eq!(scenario, ("scenario", Vec::new()));
        let expected: Vec<(&str, Vec<&str>)> = FLAGS
            .iter()
            .map(|(cmd, flags)| (*cmd, flags.split(' ').collect()))
            .collect();
        assert_eq!(listed, expected);
    }

    #[test]
    fn parse_timeline() {
        let opts = parse_opts("run", &argv("--timeline 15")).unwrap();
        assert_eq!(opts.timeline, Some(15));
        let defaults = parse_opts("run", &argv("")).unwrap();
        assert_eq!(defaults.timeline, None);
    }

    #[test]
    fn run_with_timeline_prints_sample_rows() {
        let text = dispatch(&argv(
            "run --guests 2 --scale 64 --minutes 0.5 --timeline 10",
        ))
        .unwrap();
        assert!(text.contains("pages_sharing"));
        assert!(text.contains("tps_saving"));
        // 30 simulated seconds sampled every 10 -> rows at 10, 20, 30.
        for row in ["\n      10 ", "\n      20 ", "\n      30 "] {
            assert!(text.contains(row), "missing timeline row {row:?}");
        }
    }

    #[test]
    fn parse_thp_and_reject_unknown_policy() {
        use tpslab::paging::ThpPolicy;
        let opts = parse_opts("run", &argv("--thp always")).unwrap();
        assert_eq!(opts.thp.as_deref(), Some("always"));
        let cfg = config_for(&opts, 2).unwrap();
        assert_eq!(cfg.thp, ThpPolicy::Always);
        let defaults = parse_opts("run", &argv("")).unwrap();
        let cfg = config_for(&defaults, 2).unwrap();
        assert_eq!(cfg.thp, ThpPolicy::Never);
        let bad = parse_opts("run", &argv("--thp sometimes")).unwrap();
        let e = config_for(&bad, 2).unwrap_err();
        assert!(e.to_string().contains("--thp"), "got: {e}");
    }

    #[test]
    fn run_with_thp_prints_the_huge_line() {
        let text = dispatch(&argv(
            "run --guests 2 --scale 64 --minutes 0.5 --thp always",
        ))
        .unwrap();
        assert!(text.contains("thp huge:"), "got: {text}");
        assert!(text.contains("tlb boost"));
        let plain = dispatch(&argv("run --guests 2 --scale 64 --minutes 0.5")).unwrap();
        assert!(!plain.contains("thp huge:"), "got: {plain}");
    }

    #[test]
    fn preset_selects_fleet_config_and_guests_override_is_budgeted() {
        let run = |line: &str| parse_opts("run", &argv(line)).unwrap();
        let opts = run("--preset scale256 --scale 64");
        assert_eq!(opts.preset.as_deref(), Some("scale256"));
        assert!(!opts.guests_explicit);
        let cfg = config_for(&opts, opts.guests).unwrap();
        assert_eq!(cfg.guests.len(), 256, "preset keeps its native count");

        let shrunk = run("--preset scale256 --scale 64 --guests 3");
        assert!(shrunk.guests_explicit);
        let cfg = config_for(&shrunk, shrunk.guests).unwrap();
        assert_eq!(cfg.guests.len(), 3, "--guests overrides the preset count");

        let bloated = run("--preset scale256 --scale 64 --guests 99999");
        let e = config_for(&bloated, bloated.guests).unwrap_err();
        assert!(e.to_string().contains("caps the fleet"), "got: {e}");

        let bad = run("--preset scale9000");
        assert!(config_for(&bad, bad.guests).is_err());

        // The --benchmark path checks the same budget: 22 DayTrader
        // guests at any scale.
        let huge = run("--guests 100000");
        let e = config_for(&huge, huge.guests).unwrap_err();
        assert!(e.to_string().contains("caps the fleet"), "got: {e}");
        assert!(config_for(&huge, 22).is_ok());
        assert!(config_for(&huge, 23).is_err());
    }

    #[test]
    fn run_with_preset_prints_preset_header() {
        let text = dispatch(&argv(
            "run --preset scale32 --guests 2 --scale 64 --minutes 0.5",
        ))
        .unwrap();
        assert!(text.starts_with("2 x scale32"), "got: {text}");
        assert!(text.contains("class metadata eliminated"));
    }

    #[test]
    fn unknown_subcommand_and_benchmark_fail() {
        assert!(dispatch(&argv("frobnicate")).is_err());
        assert!(dispatch(&argv("run --benchmark nope --scale 16 --minutes 1")).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn run_subcommand_produces_table_and_csv() {
        let text = dispatch(&argv(
            "run --guests 2 --scale 64 --minutes 0.5 --preload --audit",
        ))
        .unwrap();
        assert!(text.contains("Guest"));
        assert!(text.contains("class metadata eliminated"));
        let csv = dispatch(&argv("run --guests 2 --scale 64 --minutes 0.5 --csv")).unwrap();
        assert!(csv.starts_with("guest,"));
        assert!(csv.contains("Java heap"));
    }

    /// With `--csv`, the trace summary goes to stderr: stdout is the
    /// CSV from its first line.
    #[test]
    fn run_csv_with_trace_keeps_stdout_csv() {
        let path = std::env::temp_dir().join("tps_java_cli_csv_trace_test.jsonl");
        let arg = format!(
            "run --guests 1 --scale 64 --minutes 0.5 --csv --trace {}",
            path.display()
        );
        let csv = dispatch(&argv(&arg)).unwrap();
        assert!(csv.starts_with("guest,"), "got: {csv}");
        assert!(!csv.contains("trace:"), "got: {csv}");
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .starts_with("{\"seq\":"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_writes_trace_file_and_prints_profile() {
        let path = std::env::temp_dir().join("tps_java_cli_trace_test.jsonl");
        let arg = format!(
            "run --guests 1 --scale 64 --minutes 0.5 --profile --trace {}",
            path.display()
        );
        let text = dispatch(&argv(&arg)).unwrap();
        assert!(text.contains("trace:"));
        assert!(text.contains("guest_jvm_tick"));
        assert!(text.contains("ksm_scan"));
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.lines().next().unwrap().starts_with("{\"seq\":"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explain_subcommand_reports_misses_and_lifecycles() {
        let text = dispatch(&argv("explain --guests 2 --scale 64 --minutes 0.5 --top 2")).unwrap();
        assert!(text.contains("merge-miss diagnostics"));
        assert!(text.contains("pending"));
        assert!(text.contains("top 2 page lifecycles"));
        assert!(text.contains("events recorded"));
        assert!(parse_opts("explain", &argv("--top 0")).is_err());
    }

    #[test]
    fn smaps_subcommand_lists_categories() {
        let text = dispatch(&argv("smaps --preload")).unwrap();
        assert!(text.contains("pss"));
        assert!(text.contains("Class metadata"));
    }

    #[test]
    fn sweep_emits_one_row_per_point() {
        let text = dispatch(&argv("sweep --from 1 --to 2 --scale 64 --minutes 0.5")).unwrap();
        assert_eq!(text.lines().count(), 3);
        // Every row runs its own guest count under a preset too, the
        // row at the default `--guests` included.
        let text = dispatch(&argv(
            "sweep --preset scale32 --from 3 --to 5 --scale 512 --minutes 0.2",
        ))
        .unwrap();
        let default: Vec<f64> = text
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(default.windows(2).all(|w| w[0] < w[1]), "got:\n{text}");
    }

    #[test]
    fn parse_daemon_flags() {
        let opts = parse_opts(
            "top",
            &argv("--addr 127.0.0.1:9999 --once --interval-ms 50"),
        )
        .unwrap();
        assert_eq!(daemon_addr(&opts), "127.0.0.1:9999");
        assert!(opts.once);
        assert_eq!(opts.interval_ms, 50);
        for cmd in ["serve", "top"] {
            let addr = |line: &str| parse_opts(cmd, &argv(line)).map(|o| daemon_addr(&o));
            assert_eq!(addr("").unwrap(), "127.0.0.1:7878");
            assert_eq!(addr("--port 0").unwrap(), "127.0.0.1:0");
            // Both flags name the address: neither silently wins.
            let e = addr("--port 7000 --addr 127.0.0.1:8000").unwrap_err();
            assert_eq!(
                e.to_string(),
                "--port and --addr both name the daemon's address; give one",
                "{cmd}"
            );
        }
        let serve = |line: &str| parse_opts("serve", &argv(line));
        assert_eq!(serve("--throttle-ms 5").unwrap().throttle_ms, 5);
        assert!(!serve("").unwrap().scenario_explicit);
        assert!(serve("--scenario diurnal").unwrap().scenario_explicit);
        assert!(parse_opts("top", &argv("--interval-ms 0")).is_err());
        assert!(serve("--port seventy").is_err());
    }

    #[test]
    fn top_once_polls_a_live_daemon() {
        let config = tpslab::ExperimentConfig::tiny_test(2, true).with_duration_seconds(10);
        let mut daemon = tpslab::Daemon::spawn(tpslab::DaemonConfig::new(config)).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        while daemon.epoch_seconds() < 3 {
            assert!(std::time::Instant::now() < deadline, "daemon never ticked");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let arg = format!("top --once --addr {}", daemon.addr());
        let table = dispatch(&argv(&arg)).unwrap();
        assert!(table.starts_with("tpsd | epoch"), "got: {table}");
        assert!(table.contains("resident"), "got: {table}");
        daemon.shutdown();
        daemon.join();

        // A dead daemon is a hard error for --once.
        assert!(dispatch(&argv(&arg)).is_err());
    }

    /// Every subcommand that sizes a world runs at the largest scale the
    /// parser accepts, past the JVMs' warm-up, where the guests hold
    /// the most pages.
    #[test]
    fn every_sized_subcommand_runs_at_max_scale() {
        let sized = format!("--scale {} --minutes 8", ExperimentConfig::MAX_SCALE);
        for cmd in [
            "run --guests 2",
            "run --guests 2 --benchmark specjenterprise --preload",
            "run --guests 2 --benchmark tpcw --thp always",
            "run --guests 2 --benchmark tuscany",
            "run --preset scale32 --guests 2",
            "traffic --guests 2 --scenario flash-crowd",
            "explain --guests 2",
            "sweep --from 1 --to 2",
            "powervm",
        ] {
            let line = format!("{cmd} {sized}");
            dispatch(&argv(&line)).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // `serve` ticks the same world in a daemon, to its last epoch.
        let opts = parse_opts("serve", &argv(&format!("--guests 2 {sized}"))).unwrap();
        let config = config_for(&opts, opts.guests).unwrap();
        let last = config.duration_seconds;
        let mut daemon = tpslab::Daemon::spawn(tpslab::DaemonConfig::new(config)).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
        while daemon.epoch_seconds() < last {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon stopped ticking"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn serve_rejects_unknown_scenario() {
        let e = dispatch(&argv(
            "serve --guests 2 --scale 64 --minutes 0.5 --scenario wat --port 0",
        ))
        .unwrap_err();
        assert!(
            e.to_string().contains("unknown traffic scenario"),
            "got: {e}"
        );
    }

    #[test]
    fn scenario_list_prints_the_table_the_error_shows() {
        let out = dispatch(&argv("scenario list")).unwrap();
        for (name, what) in Scenario::DESCRIPTIONS {
            assert!(out.contains(name) && out.contains(what), "got:\n{out}");
        }
        // Bare `scenario` defaults to the listing; anything else is an error.
        assert_eq!(dispatch(&argv("scenario")).unwrap(), out);
        assert!(dispatch(&argv("scenario wat")).is_err());
        // The unknown-scenario error renders the same table.
        let e = dispatch(&argv(
            "traffic --guests 1 --scale 64 --minutes 0.1 --scenario wat",
        ))
        .unwrap_err();
        for (name, what) in Scenario::DESCRIPTIONS {
            assert!(
                e.to_string().contains(name) && e.to_string().contains(what),
                "got: {e}"
            );
        }
    }
}
