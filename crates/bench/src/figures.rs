//! The paper's figures and tables, the timeline and the attribution
//! timeline, each rendered as the text `bench <name>` prints. The
//! golden-master tests (`tests/golden_figures.rs` at the workspace root)
//! pin them at [`RunOpts::golden`].

use std::fmt::Write as _;

use tpslab::{Experiment, ExperimentConfig, PowerVmExperiment};
use workloads::SlaOutcome;

use crate::{banner_text, guest_figure_text, java_figure_text, RunOpts};

/// Fig. 2 — per-guest usage + TPS saving, 4 DayTrader guests,
/// baseline (no preloading).
pub fn fig2_text(opts: &RunOpts) -> String {
    let mut out = banner_text(
        "Fig. 2",
        "4 x DayTrader/WAS, baseline (no preloading)",
        opts,
    );
    let cfg = opts.apply(ExperimentConfig::paper_daytrader_4vm(opts.scale));
    let report = Experiment::run(&cfg).expect("bench configs are valid");
    out.push_str(&guest_figure_text(&report, opts.unscale()));
    out
}

/// Fig. 3(a/b/c) — per-JVM Table IV breakdowns, baseline (no
/// preloading): (a) the four WAS/DayTrader processes of Fig. 2, (b)
/// DayTrader / SPECjEnterprise 2010 / TPC-W in the same WAS, (c) three
/// Tuscany bigbank servers. Paper: TPS shares the code area but almost
/// nothing else; heap sharing ≈0.7 %, "JVM and JIT work" ≈9.2 %.
pub fn fig3_text(opts: &RunOpts) -> String {
    java_panels(opts, "Fig. 3", "baseline", |cfg| cfg)
}

/// Fig. 4 — the Fig. 2 measurement with a pre-populated shared class
/// cache copied to all four guests. Paper: non-primary savings rise from
/// ≈20 MB to ≈120 MB each; the total drops from 3 648 MB to 3 314 MB.
pub fn fig4_text(opts: &RunOpts) -> String {
    let mut out = banner_text(
        "Fig. 4",
        "4 x DayTrader/WAS, shared class cache copied to all guests",
        opts,
    );
    let cfg = opts
        .apply(ExperimentConfig::paper_daytrader_4vm(opts.scale))
        .with_class_sharing();
    let report = Experiment::run(&cfg).expect("bench configs are valid");
    out.push_str(&guest_figure_text(&report, opts.unscale()));
    for (name, classes, used) in &report.caches {
        let _ = writeln!(
            out,
            "Shared class cache '{name}': {classes} classes, {:.1} MiB populated",
            used * opts.unscale()
        );
    }
    out
}

/// Fig. 5(a/b/c) — the Fig. 3 panels with class preloading. Paper:
/// 89.6 % of the non-primary JVMs' class metadata is shared, nearly the
/// same for every WAS workload (b) and for Tuscany (c).
pub fn fig5_text(opts: &RunOpts) -> String {
    java_panels(
        opts,
        "Fig. 5",
        "preloaded",
        ExperimentConfig::with_class_sharing,
    )
}

/// The three per-JVM panels Fig. 3 (baseline) and Fig. 5 (preloaded)
/// share; `finish` adds the run mode to each panel's config.
fn java_panels(
    opts: &RunOpts,
    figure: &str,
    mode: &str,
    finish: fn(ExperimentConfig) -> ExperimentConfig,
) -> String {
    let panels = [
        (
            "a",
            format!("per-JVM breakdown, 4 x DayTrader/WAS, {mode}"),
            ExperimentConfig::paper_daytrader_4vm(opts.scale),
        ),
        (
            "b",
            format!("DayTrader / SPECjEnterprise / TPC-W in the same WAS, {mode}"),
            ExperimentConfig::paper_mixed_was(opts.scale),
        ),
        (
            "c",
            format!("3 x Tuscany bigbank, {mode}"),
            ExperimentConfig::paper_tuscany_3vm(opts.scale),
        ),
    ];
    let mut out = String::new();
    for (panel, what, cfg) in panels {
        out.push_str(&banner_text(&format!("{figure}({panel})"), &what, opts));
        let report = Experiment::run(&finish(opts.apply(cfg))).expect("bench configs are valid");
        out.push_str(&java_figure_text(&report, opts.unscale()));
    }
    out
}

/// Fig. 6 — PowerVM/AIX: total physical memory of three 3.5 GB LPARs
/// just after starting WAS and after PowerVM finished sharing, with and
/// without preloading. Paper: 243.4 MB saved without, 424.4 MB with
/// (+181.0 MB, ≈90.5 MB per non-primary LPAR).
pub fn fig6_text(opts: &RunOpts) -> String {
    let mut out = banner_text(
        "Fig. 6",
        "PowerVM: 3 x WAS+DayTrader LPARs, before/after page sharing",
        opts,
    );
    let mut exp = PowerVmExperiment::paper(opts.scale);
    exp.startup_seconds = (opts.minutes * 60.0) as u64;
    let unscale = opts.unscale();
    let without = exp.run(false);
    let with = exp.run(true);
    let _ = writeln!(
        out,
        "{:<24} {:>14} {:>14} {:>12}",
        "Configuration", "Before (MiB)", "After (MiB)", "Saved (MiB)"
    );
    for (name, fig) in [("Not preloaded", without), ("Preloaded", with)] {
        let _ = writeln!(
            out,
            "{:<24} {:>14.1} {:>14.1} {:>12.1}",
            name,
            fig.before_mib * unscale,
            fig.after_mib * unscale,
            fig.saving_mib() * unscale,
        );
    }
    let delta = (with.saving_mib() - without.saving_mib()) * unscale;
    let _ = writeln!(
        out,
        "\nIncreased sharing by preloading: {delta:.1} MiB (paper: 181.0 MiB; \
         per non-primary LPAR {:.1} MiB, paper: 90.5 MiB)",
        delta / 2.0
    );
    out
}

/// Fig. 7 — DayTrader total throughput vs. number of guest VMs,
/// default vs. preloaded.
pub fn fig7_text(opts: &RunOpts) -> String {
    let mut out = banner_text(
        "Fig. 7",
        "DayTrader total throughput (req/s) vs. number of guest VMs",
        opts,
    );
    // All 18 runs (default + preloaded per VM count) are independent:
    // build the whole sweep, run it on the worker pool, print in order.
    let mut configs = Vec::new();
    for n in 1..=9usize {
        let base_cfg = opts.apply(ExperimentConfig::paper_overcommit_daytrader(n, opts.scale));
        configs.push(base_cfg.clone());
        configs.push(base_cfg.with_class_sharing());
    }
    let reports = opts.run_sweep(&configs);
    let _ = writeln!(
        out,
        "{:>4} {:>18} {:>18} {:>14} {:>14}",
        "VMs", "default (req/s)", "preloaded (req/s)", "default slow", "preload slow"
    );
    for (i, pair) in reports.chunks(2).enumerate() {
        let (default, preload) = (&pair[0], &pair[1]);
        let _ = writeln!(
            out,
            "{:>4} {:>18.1} {:>18.1} {:>14.3} {:>14.3}",
            i + 1,
            default.total_throughput(),
            preload.total_throughput(),
            default.slowdown,
            preload.slowdown,
        );
    }
    let _ = writeln!(
        out,
        "\npaper: default knee at 8 VMs (17.2 r/s), preloaded knee at 9 VMs (148.1 r/s at 8)."
    );
    out
}

/// Fig. 8 — SPECjEnterprise 2010 EjOPS per VM vs. number of guest
/// VMs (IR 15), with the response-time SLA verdict.
pub fn fig8_text(opts: &RunOpts) -> String {
    const VM_COUNTS: std::ops::RangeInclusive<usize> = 5..=8;
    let mut out = banner_text(
        "Fig. 8",
        "SPECjEnterprise 2010 EjOPS vs. number of guest VMs (IR 15)",
        opts,
    );
    let mut configs = Vec::new();
    for n in VM_COUNTS {
        let cfg = opts.apply(ExperimentConfig::paper_overcommit_specj(n, opts.scale));
        configs.push(cfg.clone());
        configs.push(cfg.with_class_sharing());
    }
    let reports = opts.run_sweep(&configs);
    let _ = writeln!(
        out,
        "{:>4} {:>16} {:>10} {:>16} {:>10}",
        "VMs", "default EjOPS", "SLA", "preload EjOPS", "SLA"
    );
    for (n, pair) in VM_COUNTS.zip(reports.chunks(2)) {
        let (default, preload) = (&pair[0], &pair[1]);
        let per_vm = |r: &tpslab::ExperimentReport| r.total_throughput() / n as f64;
        let sla = |r: &tpslab::ExperimentReport| {
            if r.throughput.iter().all(|t| t.sla == SlaOutcome::Met) {
                "met"
            } else {
                "VIOLATED"
            }
        };
        let _ = writeln!(
            out,
            "{:>4} {:>16.1} {:>10} {:>16.1} {:>10}",
            n,
            per_vm(default),
            sla(default),
            per_vm(preload),
            sla(preload),
        );
    }
    let _ = writeln!(
        out,
        "\npaper: default fails SLA at 7 VMs (score 15), preloading holds ~24 through 7."
    );
    out
}

/// The scale32 attribution timeline: 32 over-committed
/// SPECjEnterprise guests sampled with the full attribution walk at
/// a quarter of the run length. The rows come from the timeline
/// report, which the engine guarantees bit-identical to a
/// from-scratch walk at every sample — this text is pinned by the
/// golden-master tests and diffed against the golden in CI.
pub fn attribution_text(opts: &RunOpts) -> String {
    let mut out = banner_text(
        "Attribution",
        "scale32 timeline attribution (32 x SPECjEnterprise, preloaded, over-committed)",
        opts,
    );
    let seconds = (opts.minutes * 60.0) as u64;
    let every = (seconds / 4).max(1);
    let cfg = opts
        .apply(ExperimentConfig::scale32(opts.scale))
        .with_timeline(every)
        .with_timeline_attribution();
    let report = Experiment::run(&cfg).expect("bench configs are valid");
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>14} {:>16}",
        "seconds", "resident MiB", "pages_sharing", "tps_saving MiB"
    );
    for point in &report.timeline {
        let _ = writeln!(
            out,
            "{:>8.0} {:>14.1} {:>14} {:>16.1}",
            point.seconds,
            point.resident_mib * opts.unscale(),
            point.pages_sharing,
            point.tps_saving_mib.unwrap_or(0.0) * opts.unscale(),
        );
    }
    let _ = writeln!(
        out,
        "\nGuests: {} | total usage {:.1} MiB | final TPS saving {:.1} MiB",
        report.breakdown.guests.len(),
        report.breakdown.total_owned_mib * opts.unscale(),
        report
            .breakdown
            .guests
            .iter()
            .map(tpslab::analysis::GuestBreakdown::tps_saving_mib)
            .sum::<f64>()
            * opts.unscale(),
    );
    out
}

/// Tables I–IV — the measurement environment and the Java memory
/// taxonomy, as encoded in the reproduction's presets. Static: no
/// simulation runs.
pub fn tables_text() -> String {
    use hypervisor::HostConfig;
    use jvm::MemoryCategory;
    use oskernel::OsImage;

    let mut out = String::new();
    let _ = writeln!(out, "TABLE I — physical machines");
    let intel = HostConfig::paper_intel();
    let power = HostConfig::paper_power();
    let _ = writeln!(
        out,
        "  Intel: IBM BladeCenter LS21-like, {:.0} MiB RAM, KVM (host reserve {:.0} MiB)",
        intel.ram_mib, intel.reserve_mib
    );
    let _ = writeln!(
        out,
        "  POWER: IBM BladeCenter PS701-like, {:.0} MiB RAM, PowerVM 2.1 (reserve {:.0} MiB)",
        power.ram_mib, power.reserve_mib
    );

    let _ = writeln!(out, "\nTABLE II — guest VM configuration");
    let rhel = OsImage::rhel55();
    let aix = OsImage::aix61();
    let _ = writeln!(
        out,
        "  Intel guest: RHEL 5.5 image — kernel area {:.0} MiB ({:.0} MiB image-derived/shareable), 1 GiB guests, KSM 1000 pages / 100 ms steady",
        rhel.total_mib(),
        rhel.shareable_mib()
    );
    let _ = writeln!(
        out,
        "  POWER guest: AIX 6.1 image — kernel area {:.0} MiB ({:.0} MiB shareable), 3.5 GiB LPARs",
        aix.total_mib(),
        aix.shareable_mib()
    );

    let _ = writeln!(out, "\nTABLE III — benchmark and JVM configuration");
    for bench in [
        workloads::daytrader(),
        workloads::specjenterprise(),
        workloads::tpcw(),
        workloads::tuscany(),
        workloads::daytrader_power(),
    ] {
        let p = &bench.profile;
        let _ = writeln!(
            out,
            "  {:<22} heap {:>6.0} MiB | cache {:>5.0} MiB | {:>6} classes | drive {:?}",
            p.name, p.heap.heap_mib, bench.cache_mib, p.class_count, bench.drive
        );
    }

    let _ = writeln!(out, "\nTABLE IV — categories of Java memory");
    for cat in MemoryCategory::all() {
        let _ = writeln!(out, "  {cat}");
    }
    out
}

/// KSM sharing convergence over time (not in the paper, but implied by
/// its §II.C schedule): how fast the warm-up rate merges the preloaded
/// class pages, and what the steady rate maintains. Sampled every
/// 15 s, or every quarter of the run if that is shorter, so a short run
/// still prints rows.
pub fn timeline_text(opts: &RunOpts) -> String {
    let mut out = banner_text(
        "Timeline",
        "KSM sharing convergence, 4 x DayTrader with preloading",
        opts,
    );
    let seconds = (opts.minutes * 60.0) as u64;
    let cfg = opts
        .apply(ExperimentConfig::paper_daytrader_4vm(opts.scale))
        .with_class_sharing()
        .with_timeline((seconds / 4).clamp(1, 15));
    let report = Experiment::run(&cfg).expect("bench configs are valid");
    let _ = writeln!(
        out,
        "{:>10} {:>16} {:>16} {:>16}",
        "t (s)", "resident (MiB)", "pages sharing", "stable frames"
    );
    for point in &report.timeline {
        let _ = writeln!(
            out,
            "{:>10.0} {:>16.0} {:>16} {:>16}",
            point.seconds,
            point.resident_mib * opts.unscale(),
            point.pages_sharing,
            point.pages_shared,
        );
    }
    let _ = writeln!(
        out,
        "\nfinal saving: {:.1} MiB across {} stable frames",
        report.total_tps_saving_mib() * opts.unscale(),
        report.ksm.pages_shared
    );
    out
}
