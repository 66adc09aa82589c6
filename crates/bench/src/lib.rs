//! The `bench` runner: one binary that regenerates the paper's figures
//! and tables, our ablations and the extension reports by name.
//!
//! ```text
//! cargo run --release -p bench -- <name> [--scale S] [--minutes M] [--paper] [--audit]
//! ```
//!
//! | Command | Prints |
//! |---|---|
//! | `bench fig2` | Fig. 2 — per-guest usage + TPS saving, 4 DayTrader guests, baseline |
//! | `bench fig3` | Fig. 3(a/b/c) — per-JVM Table IV breakdowns, baseline |
//! | `bench fig4` | Fig. 4 — Fig. 2 with the shared class cache copied to all guests |
//! | `bench fig5` | Fig. 5(a/b/c) — Fig. 3 with preloading (89.6 % headline) |
//! | `bench fig6` | Fig. 6 — PowerVM/AIX before/after sharing, ±preloading |
//! | `bench fig7` | Fig. 7 — DayTrader throughput vs. number of guests |
//! | `bench fig8` | Fig. 8 — SPECjEnterprise EjOPS vs. number of guests + SLA |
//! | `bench tables` | Tables I–IV — configuration and taxonomy |
//! | `bench timeline` | KSM sharing convergence over time, 4 DayTrader guests, preloaded |
//! | `bench ablation_scan_rate` | X1 — KSM pages-to-scan sweep |
//! | `bench ablation_cache_size` | X2 — shared-cache capacity sweep |
//! | `bench ablation_balloon` | X3 — ballooning baseline |
//! | `bench ablation_related_work` | X4 — Satori, ballooning and Difference Engine vs. TPS |
//! | `bench ablation_placement` | X5 — sharing-aware placement over two hosts |
//! | `bench attribution` | scale32 attribution timeline |
//! | `bench telemetry` | scale32 metrics scrape |
//! | `bench fleet` | fleet-scale KSM convergence report |
//! | `bench fleet_traffic` | fleet-preset traffic report |
//! | `bench thp` | THP × KSM sweep table |
//! | `bench traffic` | three-scenario traffic report |
//!
//! Here `bench <name>` stands for `cargo run --release -p bench --
//! <name>`. `--scale S` divides every size by S, from 1 to
//! [`ExperimentConfig::MAX_SCALE`] (default 8), `--minutes M` sets the
//! simulated duration (default 8), and `--paper` selects paper scale
//! with a longer run (what EXPERIMENTS.md records). The
//! fixed-shape names (`tables`, `fleet`, `fleet_traffic`, `thp`,
//! `traffic`) reject those sizing flags and `--audit`. Text goes to
//! stdout and is a pure function of the flags; a successful run writes
//! nothing to stderr, and the repository's timed measurements are
//! `perfbench`'s.
//! A sweep runs its independent experiments side by side on
//! [`par::default_threads`] workers, the machine's available
//! parallelism, which honours the process's CPU affinity and quota
//! (`taskset -c 0 bench fig7` runs one at a time); every experiment
//! itself is serial.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod figures;
pub mod fleet;
pub mod fleet_traffic;
pub mod thp;
pub mod traffic;

use std::fmt::Write as _;

use tpslab::{Experiment, ExperimentConfig, KsmSchedule};

/// One name the `bench` binary answers to.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// The name on the command line.
    pub name: &'static str,
    /// One line for the usage text.
    pub about: &'static str,
    /// The run's shape is fixed: `--scale`, `--minutes`, `--paper` and
    /// `--audit` do not apply.
    pub fixed_shape: bool,
    /// Renders what `bench <name>` prints at these options.
    pub text: fn(&RunOpts) -> String,
}

/// Every name the runner answers to, in usage order.
pub const BENCHES: [Bench; 20] = [
    Bench {
        name: "fig2",
        about: "Fig. 2: per-guest usage and TPS saving, 4 DayTrader guests, baseline",
        fixed_shape: false,
        text: figures::fig2_text,
    },
    Bench {
        name: "fig3",
        about: "Fig. 3(a/b/c): per-JVM Table IV breakdowns, baseline",
        fixed_shape: false,
        text: figures::fig3_text,
    },
    Bench {
        name: "fig4",
        about: "Fig. 4: Fig. 2 with the shared class cache copied to all guests",
        fixed_shape: false,
        text: figures::fig4_text,
    },
    Bench {
        name: "fig5",
        about: "Fig. 5(a/b/c): Fig. 3 with preloading",
        fixed_shape: false,
        text: figures::fig5_text,
    },
    Bench {
        name: "fig6",
        about: "Fig. 6: PowerVM/AIX before/after sharing, with and without preloading",
        fixed_shape: false,
        text: figures::fig6_text,
    },
    Bench {
        name: "fig7",
        about: "Fig. 7: DayTrader throughput vs. number of guests",
        fixed_shape: false,
        text: figures::fig7_text,
    },
    Bench {
        name: "fig8",
        about: "Fig. 8: SPECjEnterprise EjOPS vs. number of guests, with the SLA",
        fixed_shape: false,
        text: figures::fig8_text,
    },
    Bench {
        name: "tables",
        about: "Tables I-IV: configuration and taxonomy",
        fixed_shape: true,
        text: |_| figures::tables_text(),
    },
    Bench {
        name: "timeline",
        about: "KSM sharing convergence over time, 4 DayTrader guests, preloaded",
        fixed_shape: false,
        text: figures::timeline_text,
    },
    Bench {
        name: "ablation_scan_rate",
        about: "X1: KSM pages-to-scan sweep",
        fixed_shape: false,
        text: ablations::scan_rate_text,
    },
    Bench {
        name: "ablation_cache_size",
        about: "X2: shared-class-cache capacity sweep",
        fixed_shape: false,
        text: ablations::cache_size_text,
    },
    Bench {
        name: "ablation_balloon",
        about: "X3: ballooning baseline",
        fixed_shape: false,
        text: ablations::balloon_text,
    },
    Bench {
        name: "ablation_related_work",
        about: "X4: Satori, ballooning and Difference Engine vs. TPS",
        fixed_shape: false,
        text: ablations::related_work_text,
    },
    Bench {
        name: "ablation_placement",
        about: "X5: sharing-aware placement over two hosts",
        fixed_shape: false,
        text: ablations::placement_text,
    },
    Bench {
        name: "attribution",
        about: "scale32 attribution timeline",
        fixed_shape: false,
        text: figures::attribution_text,
    },
    Bench {
        name: "telemetry",
        about: "scale32 metrics scrape",
        fixed_shape: false,
        text: |opts| {
            tpslab::telemetry::golden_scrape(&opts.apply(ExperimentConfig::scale32(opts.scale)))
        },
    },
    Bench {
        name: "fleet",
        about: "fleet-scale KSM convergence report",
        fixed_shape: true,
        text: |_| fleet::golden_text(),
    },
    Bench {
        name: "fleet_traffic",
        about: "fleet-preset traffic report",
        fixed_shape: true,
        text: |_| fleet_traffic::golden_text(),
    },
    Bench {
        name: "thp",
        about: "THP x KSM sweep table",
        fixed_shape: true,
        text: |_| thp::golden_text(),
    },
    Bench {
        name: "traffic",
        about: "three-scenario traffic report",
        fixed_shape: true,
        text: |_| traffic::golden_text(),
    },
];

/// The usage text the binary prints on a bad command line.
#[must_use]
pub fn usage() -> String {
    let mut out =
        String::from("usage: bench <name> [--scale S] [--minutes M] [--paper] [--audit]\nnames:\n");
    for bench in &BENCHES {
        let _ = writeln!(out, "  {:<22} {}", bench.name, bench.about);
    }
    let fixed_shape = BENCHES
        .iter()
        .filter(|b| b.fixed_shape)
        .map(|b| b.name)
        .collect::<Vec<_>>()
        .join(" ");
    let _ = write!(
        out,
        "--scale S divides every size by S, 1 to {} (default 8); --minutes M sets the\n\
         simulated duration, one second to one day (default 8); --paper is scale 1 for\n\
         20 minutes; --audit runs the conservation audit.\n\
         fixed shape (no --scale, --minutes, --paper or --audit): {fixed_shape}",
        ExperimentConfig::MAX_SCALE,
    );
    out
}

/// The options every name shares.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Size divisor (1 = paper scale).
    pub scale: f64,
    /// Simulated duration in minutes.
    pub minutes: f64,
    /// Run the cross-layer conservation audit during each experiment.
    pub audit: bool,
}

impl RunOpts {
    /// Default quick options: scale 8, 8 simulated minutes.
    pub fn quick() -> RunOpts {
        RunOpts {
            scale: 8.0,
            minutes: 8.0,
            audit: false,
        }
    }

    /// Paper-scale options: scale 1, 20 simulated minutes (the
    /// aggressive KSM schedule converges to the 90-minute state well
    /// within that window).
    pub fn paper() -> RunOpts {
        RunOpts {
            scale: 1.0,
            minutes: 20.0,
            ..RunOpts::quick()
        }
    }

    /// The fixed preset the golden-master tests pin figure output
    /// under: scale 128, 0.2 simulated minutes. Output is bit-identical
    /// across build profiles and sweep worker counts, so the committed
    /// `tests/golden/*.txt` files are reproducible with e.g.
    /// `cargo run --release -p bench -- fig7 --scale 128 --minutes 0.2`.
    pub fn golden() -> RunOpts {
        RunOpts {
            scale: 128.0,
            minutes: 0.2,
            ..RunOpts::quick()
        }
    }

    /// Parses a `bench` command line after the program name: `<name>`,
    /// then any of `--scale S`, `--minutes M`, `--paper` and `--audit`.
    /// Flags apply in order, so `--paper` resets an earlier `--scale` or
    /// `--minutes`.
    ///
    /// # Errors
    ///
    /// A one-line message for a missing or unknown name, an unknown
    /// flag, a flag without its value, `--scale` outside 1 to
    /// [`ExperimentConfig::MAX_SCALE`], `--minutes`
    /// under one simulated second or over one simulated day, or a
    /// sizing flag on a fixed-shape name.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(&'static Bench, RunOpts), String> {
        let mut args = args.into_iter();
        let name = args.next().ok_or("missing benchmark name")?;
        let bench = BENCHES
            .iter()
            .find(|b| b.name == name)
            .ok_or_else(|| format!("unknown benchmark {name}"))?;
        let mut opts = RunOpts::quick();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" | "--minutes" | "--paper" | "--audit" if bench.fixed_shape => {
                    return Err(format!("{name} has a fixed shape: {flag} does not apply"));
                }
                "--scale" => {
                    let scale = value()?.parse().map_err(|_| "--scale needs a number")?;
                    opts.scale = ExperimentConfig::check_scale(scale)
                        .map_err(|e| format!("--scale: {e}"))?;
                }
                "--minutes" => {
                    let max = ExperimentConfig::MAX_DURATION_SECONDS as f64;
                    opts.minutes = value()?
                        .parse()
                        .ok()
                        .filter(|m: &f64| (1.0..=max).contains(&(m * 60.0)))
                        .ok_or(
                            "--minutes needs at least one simulated second (1/60) \
                             and at most one simulated day (1440)",
                        )?;
                }
                "--paper" => {
                    let paper = RunOpts::paper();
                    opts.scale = paper.scale;
                    opts.minutes = paper.minutes;
                }
                "--audit" => opts.audit = true,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok((bench, opts))
    }

    /// Applies duration, the compressed-run KSM schedule and the audit
    /// flag to a config.
    pub fn apply(&self, cfg: ExperimentConfig) -> ExperimentConfig {
        let seconds = (self.minutes * 60.0) as u64;
        let cfg = cfg
            .with_duration_seconds(seconds)
            .with_ksm(KsmSchedule::compressed(self.scale, seconds));
        if self.audit {
            cfg.with_audit()
        } else {
            cfg
        }
    }

    /// Multiplier to convert a scaled MiB value back to paper-scale MiB
    /// for reporting.
    pub fn unscale(&self) -> f64 {
        self.scale
    }

    /// Runs a sweep of configs on [`par::default_threads`] workers and
    /// returns the reports in input order (bit-identical to serial
    /// runs).
    ///
    /// # Panics
    ///
    /// Panics if a config fails validation.
    pub fn run_sweep(&self, configs: &[ExperimentConfig]) -> Vec<tpslab::ExperimentReport> {
        par::map_parallel(configs, par::default_threads(), |config| {
            Experiment::run(config).expect("bench sweep configs are valid")
        })
    }
}

/// Renders the standard figure header.
pub fn banner_text(figure: &str, what: &str, opts: &RunOpts) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "================================================================"
    );
    let _ = writeln!(out, "{figure}: {what}");
    let _ = writeln!(
        out,
        "scale 1/{} | {} simulated minutes | values in paper-scale MiB",
        opts.scale, opts.minutes
    );
    let _ = writeln!(
        out,
        "================================================================"
    );
    out
}

/// Renders the per-guest rows of Fig. 2 / Fig. 4.
pub fn guest_figure_text(report: &tpslab::ExperimentReport, unscale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "Guest", "Java", "Other", "Kernel", "GuestVM", "Usage", "TPS saving"
    );
    for g in &report.breakdown.guests {
        let _ = writeln!(
            out,
            "{:<8} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            g.name,
            g.java_owned_mib * unscale,
            g.other_owned_mib * unscale,
            g.kernel_owned_mib * unscale,
            g.vm_overhead_owned_mib * unscale,
            g.owned_total_mib() * unscale,
            g.tps_saving_mib() * unscale,
        );
    }
    let _ = writeln!(
        out,
        "\nTotal usage of all guests: {:.0} MiB (paper baseline: 3648, preloaded: 3314)",
        report.breakdown.total_owned_mib * unscale
    );
    let _ = writeln!(
        out,
        "Mean TPS saving per non-primary Java process: {:.1} MiB (paper: ~20 baseline, ~120 preloaded)",
        report.mean_nonprimary_java_saving_mib() * unscale
    );
    let _ = writeln!(
        out,
        "KSM: {} stable pages, {} duplicates elided, {} full scans",
        report.ksm.pages_shared, report.ksm.pages_sharing, report.ksm.full_scans
    );
    out
}

/// Renders the per-JVM Table IV category rows of Fig. 3 / Fig. 5
/// ("resident/shared" per category, paper-scale MiB).
pub fn java_figure_text(report: &tpslab::ExperimentReport, unscale: f64) -> String {
    use jvm::MemoryCategory;
    let mut out = String::new();
    let _ = write!(out, "{:<22}", "JVM");
    for cat in [
        MemoryCategory::Code,
        MemoryCategory::ClassMetadata,
        MemoryCategory::JitCompiledCode,
        MemoryCategory::JavaHeap,
        MemoryCategory::Stack,
    ] {
        let _ = write!(out, " {:>17}", cat.figure_label());
    }
    let _ = write!(out, " {:>17}", "JVM and JIT work");
    let _ = writeln!(out, " {:>17}", "TOTAL");
    for j in &report.breakdown.javas {
        let _ = write!(out, "{:<22}", format!("{} {}", j.guest_name, j.pid));
        let mut work_res = 0.0;
        let mut work_shared = 0.0;
        let mut total_res = 0.0;
        let mut total_shared = 0.0;
        for (&cat, u) in &j.categories {
            total_res += u.resident_mib;
            total_shared += u.tps_shared_mib;
            if matches!(cat, MemoryCategory::JitWork | MemoryCategory::JvmWork) {
                work_res += u.resident_mib;
                work_shared += u.tps_shared_mib;
            }
        }
        for cat in [
            MemoryCategory::Code,
            MemoryCategory::ClassMetadata,
            MemoryCategory::JitCompiledCode,
            MemoryCategory::JavaHeap,
            MemoryCategory::Stack,
        ] {
            let u = j.category(cat);
            let _ = write!(
                out,
                " {:>9.1}/{:>7.1}",
                u.resident_mib * unscale,
                u.tps_shared_mib * unscale
            );
        }
        let _ = write!(
            out,
            " {:>9.1}/{:>7.1}",
            work_res * unscale,
            work_shared * unscale
        );
        let _ = writeln!(
            out,
            " {:>9.1}/{:>7.1}",
            total_res * unscale,
            total_shared * unscale
        );
    }
    let _ = writeln!(
        out,
        "\nMean class-metadata saving fraction over non-primary JVMs: {:.1} % (paper with preloading: 89.6 %)",
        100.0 * report.mean_nonprimary_class_saving_fraction()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(&'static Bench, RunOpts), String> {
        RunOpts::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn quick_and_paper_defaults() {
        assert_eq!(RunOpts::quick().scale, 8.0);
        assert_eq!(RunOpts::paper().scale, 1.0);
        assert!(RunOpts::paper().minutes > RunOpts::quick().minutes);
    }

    #[test]
    fn apply_sets_duration_and_schedule() {
        let opts = RunOpts {
            scale: 4.0,
            minutes: 2.0,
            ..RunOpts::quick()
        };
        let cfg = opts.apply(tpslab::ExperimentConfig::tiny_test(1, false));
        assert_eq!(cfg.duration_seconds, 120);
        // Aggressive head, paper-ratio steady tail.
        assert!(cfg.ksm.warmup.pages_to_scan() > cfg.ksm.steady.pages_to_scan());
        assert_eq!(cfg.ksm.steady.pages_to_scan(), 250);
        assert_eq!(cfg.ksm.warmup_seconds, 80);
    }

    #[test]
    fn parse_reads_flags_in_order() {
        let (bench, opts) = parse("fig2 --scale 64 --minutes 0.5 --audit").unwrap();
        assert_eq!(bench.name, "fig2");
        assert_eq!((opts.scale, opts.minutes), (64.0, 0.5));
        assert!(opts.audit);
        assert_eq!(parse("fig7 --scale 4 --paper").unwrap().1.scale, 1.0);
        assert_eq!(parse("fig7 --paper --scale 4").unwrap().1.scale, 4.0);
        assert!(parse("tables").is_ok());
        assert_eq!(parse("fig2 --minutes 1440").unwrap().1.minutes, 1440.0);
        let max = ExperimentConfig::MAX_SCALE;
        assert_eq!(parse(&format!("fig2 --scale {max}")).unwrap().1.scale, max);
    }

    #[test]
    fn parse_rejects_bad_input() {
        for (line, message) in [
            ("", "missing benchmark name"),
            ("nosuch", "unknown benchmark nosuch"),
            ("fig2 --bogus", "unknown flag --bogus"),
            ("fig2 --scale", "--scale needs a value"),
            ("fig2 --scale x", "--scale needs a number"),
            ("fig2 --scale 0.5", "--scale: the size divisor 0.5 is not"),
            ("fig2 --scale NaN", "--scale: the size divisor NaN is not"),
            (
                "fig2 --scale 30000",
                "--scale: the size divisor 30000 is not",
            ),
            (
                "fig7 --scale 100000",
                "--scale: the size divisor 100000 is not",
            ),
            ("fig2 --minutes 0", "--minutes needs at least"),
            ("fig2 --minutes 1440.5", "--minutes needs at least"),
            ("fig2 --minutes 1e12", "--minutes needs at least"),
            ("fig2 --minutes inf", "--minutes needs at least"),
            ("fig2 --threads 2", "unknown flag --threads"),
            ("fleet --threads 2", "unknown flag --threads"),
            ("fleet --json", "unknown flag --json"),
            ("fig2 --json", "unknown flag --json"),
            ("phases", "unknown benchmark phases"),
            ("tables --paper", "tables has a fixed shape: --paper"),
            ("thp --scale 8", "thp has a fixed shape: --scale"),
            ("fleet --audit", "fleet has a fixed shape: --audit"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.starts_with(message), "{line}: {err}");
        }
    }

    /// Every sized name runs at the largest scale `parse` accepts, past
    /// the JVMs' warm-up, where the guests hold the most pages. About
    /// two minutes in a debug build.
    #[test]
    #[ignore = "every sized name at 8 simulated minutes; CI runs it with -- --ignored"]
    fn every_sized_name_runs_at_max_scale() {
        let (_, opts) = parse(&format!(
            "fig2 --scale {} --minutes 8",
            ExperimentConfig::MAX_SCALE
        ))
        .unwrap();
        for bench in BENCHES.iter().filter(|b| !b.fixed_shape) {
            assert!(!(bench.text)(&opts).is_empty(), "{}", bench.name);
        }
    }

    /// The sweep's contract: experiments run side by side come back in
    /// input order, identical to serial runs of the same configs.
    #[test]
    fn sweep_matches_serial_runs() {
        let configs = vec![
            ExperimentConfig::tiny_test(1, false),
            ExperimentConfig::tiny_test(2, true),
            ExperimentConfig::tiny_test(2, false).with_seed(77),
            ExperimentConfig::tiny_test(3, true).with_seed(99),
        ];
        let swept = RunOpts::quick().run_sweep(&configs);
        assert_eq!(swept.len(), configs.len());
        for (config, a) in configs.iter().zip(&swept) {
            let b = Experiment::run(config).unwrap();
            assert_eq!(a.breakdown, b.breakdown);
            assert_eq!(a.ksm, b.ksm);
            assert_eq!(a.resident_mib, b.resident_mib);
            assert_eq!(a.slowdown, b.slowdown);
        }
    }

    #[test]
    fn usage_lists_every_name_once() {
        let text = usage();
        for (i, bench) in BENCHES.iter().enumerate() {
            assert!(
                BENCHES[..i].iter().all(|b| b.name != bench.name),
                "{} is listed twice",
                bench.name
            );
            assert!(text.contains(&format!("  {:<22} ", bench.name)));
        }
        assert!(!text.contains("--json"), "{text}");
    }
}
