//! Experiment configuration.

use crate::Error;
use hypervisor::HostConfig;
use ksm::KsmParams;
use oskernel::OsImage;
use workloads::Benchmark;

/// The KSM tuning schedule of §II.C: an aggressive rate while the
/// application server starts up and the benchmark initialises, then a
/// cheap steady rate for the measured interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KsmSchedule {
    /// Parameters during warm-up.
    pub warmup: KsmParams,
    /// Parameters afterwards.
    pub steady: KsmParams,
    /// Length of the warm-up window, seconds.
    pub warmup_seconds: u64,
}

impl KsmSchedule {
    /// The paper's schedule: 10 000 pages/100 ms for the first three
    /// minutes, 1 000 pages/100 ms afterwards.
    #[must_use]
    pub fn paper() -> KsmSchedule {
        KsmSchedule {
            warmup: KsmParams::paper_warmup(),
            steady: KsmParams::paper_steady(),
            warmup_seconds: 180,
        }
    }

    /// The schedule used by the figure binaries when regenerating at
    /// compressed durations and reduced scale: an aggressive phase
    /// converges the *stable* content (code, class cache) to the same
    /// merged state the paper reached over 90 minutes, then the final
    /// stretch runs at the paper's steady scan-to-memory ratio
    /// (1 000 pages per 100 ms per 6 GiB, i.e. `1000 / scale`) so the
    /// *volatile* equilibria — merged-then-divided GC zero pages — relax
    /// to the rate the paper measured under.
    #[must_use]
    pub fn compressed(scale: f64, run_seconds: u64) -> KsmSchedule {
        let steady_pages = ((1000.0 / scale).round() as usize).max(50);
        let tail = 150.min(run_seconds / 3);
        KsmSchedule {
            warmup: KsmParams::paper_warmup(),
            steady: KsmParams::new(steady_pages, 100),
            warmup_seconds: run_seconds.saturating_sub(tail),
        }
    }
}

/// Timeline sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Sample the sharing timeline every this many simulated seconds
    /// (each sample costs one stable-tree recount).
    pub every_seconds: u64,
    /// Also run the full attribution walk
    /// ([`analysis::MemorySnapshot::collect`] + breakdown) at every
    /// sample and record the TPS saving. This walks every page-table
    /// entry of every guest, which is far more expensive than the
    /// recount — off by default; enable with
    /// [`ExperimentConfig::with_timeline_attribution`].
    pub attribution: bool,
}

/// One guest VM in an experiment.
#[derive(Debug, Clone)]
pub struct GuestSpec {
    /// The benchmark this guest's JVM runs.
    pub benchmark: Benchmark,
    /// Guest memory, MiB (1 024 for the paper's Intel guests).
    pub mem_mib: f64,
}

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Physical host (Table I).
    pub host: HostConfig,
    /// Guest base image (Table II).
    pub image: OsImage,
    /// The guests (Table II/III).
    pub guests: Vec<GuestSpec>,
    /// KSM schedule (§II.C).
    pub ksm: KsmSchedule,
    /// Simulated run length, seconds (the paper measures after 90
    /// minutes; compressed runs with [`KsmSchedule::compressed`] converge
    /// to the same state much sooner).
    pub duration_seconds: u64,
    /// Whether the paper's technique — a pre-populated shared class
    /// cache file copied to every guest — is enabled.
    pub class_sharing: bool,
    /// Master seed; every run with the same config and seed is
    /// bit-identical.
    pub seed: u64,
    /// If set, sample the sharing timeline (KSM convergence curves) at
    /// the configured cadence; see [`TimelineConfig`].
    pub timeline: Option<TimelineConfig>,
    /// Record the page-lifecycle event trace: every merge, COW break,
    /// volatile skip, chain split, map/unmap, GC move, JIT emission and
    /// memslot change, in simulation order. Costs memory and a few
    /// percent of runtime; leaves the report bit-identical otherwise.
    pub trace: bool,
    /// Run the merge-miss diagnostics
    /// ([`analysis::diagnose_misses`]) on the final state and attach
    /// the per-category missed-sharing report.
    pub diagnose: bool,
    /// Run the cross-layer conservation audit (`audit::check_world`) at
    /// every timeline sample and at the end of the run, panicking on
    /// the first violation. Always on in debug builds (and therefore in
    /// every test); this flag extends the self-check to release runs
    /// (CLI/figure-binary `--audit`).
    pub audit: bool,
    /// Read by nothing: every run is serial (the attribution walk, the
    /// KSM wake and the traffic step). Kept only because the
    /// `perfbench` package sets and prints it; it goes at the next
    /// change to the benchmark.
    pub threads: usize,
    /// Transparent-huge-page policy, on both sides: what the host's
    /// khugepaged collapse scan ([`hypervisor::KvmHost::thp_scan`]) is
    /// allowed to promote to 2 MiB frames, and whether guest kernels
    /// fault around heap writes with 2 MiB-aligned fill
    /// ([`oskernel::GuestOs`]'s huge fault path) and, under `Madvise`,
    /// advertise heap blocks as collapse hints to the host. `Never`
    /// (the default) reproduces the paper's configuration exactly.
    pub thp: paging::ThpPolicy,
}

impl ExperimentConfig {
    /// The Fig. 2/3(a) setup: four 1 GB KVM guests on the 6 GB Intel
    /// host, each running WAS + DayTrader, measured for 90 minutes.
    ///
    /// `scale` divides all sizes (1 = paper scale); see DESIGN.md §5.
    #[must_use]
    pub fn paper_daytrader_4vm(scale: f64) -> ExperimentConfig {
        let bench = workloads::daytrader().scaled(scale);
        ExperimentConfig {
            host: HostConfig::paper_intel().scaled(scale),
            image: OsImage::rhel55().scaled(scale),
            guests: (0..4)
                .map(|_| GuestSpec {
                    benchmark: bench.clone(),
                    mem_mib: 1024.0 / scale,
                })
                .collect(),
            ksm: KsmSchedule::paper(),
            duration_seconds: 90 * 60,
            class_sharing: false,
            seed: 0x0015_9a55,
            timeline: None,
            trace: false,
            diagnose: false,
            audit: false,
            threads: 1,
            thp: paging::ThpPolicy::Never,
        }
    }

    /// The Fig. 3(b)/5(b) setup: three guests running DayTrader,
    /// SPECjEnterprise 2010 and TPC-W in the same WAS version.
    #[must_use]
    pub fn paper_mixed_was(scale: f64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_daytrader_4vm(scale);
        cfg.guests = [
            workloads::daytrader(),
            workloads::specjenterprise(),
            workloads::tpcw(),
        ]
        .into_iter()
        .map(|b| GuestSpec {
            benchmark: b.scaled(scale),
            mem_mib: 1280.0 / scale,
        })
        .collect();
        cfg
    }

    /// The Fig. 3(c)/5(c) setup: three guests each running a Tuscany
    /// bigbank server (no WAS).
    #[must_use]
    pub fn paper_tuscany_3vm(scale: f64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_daytrader_4vm(scale);
        let bench = workloads::tuscany().scaled(scale);
        cfg.guests = (0..3)
            .map(|_| GuestSpec {
                benchmark: bench.clone(),
                mem_mib: 1024.0 / scale,
            })
            .collect();
        cfg
    }

    /// The Fig. 7 setup: `n` DayTrader guests on the 6 GB host.
    #[must_use]
    pub fn paper_overcommit_daytrader(n: usize, scale: f64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_daytrader_4vm(scale);
        let spec = cfg.guests[0].clone();
        cfg.guests = (0..n).map(|_| spec.clone()).collect();
        cfg
    }

    /// The Fig. 8 setup: `n` SPECjEnterprise guests with the generational
    /// GC policy (530 MB nursery + 200 MB tenured), 1.25 GB guests.
    #[must_use]
    pub fn paper_overcommit_specj(n: usize, scale: f64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_daytrader_4vm(scale);
        let bench = workloads::specjenterprise_generational().scaled(scale);
        cfg.guests = (0..n)
            .map(|_| GuestSpec {
                benchmark: bench.clone(),
                mem_mib: 1280.0 / scale,
            })
            .collect();
        cfg
    }

    /// The attribution stress preset: 32 heavily over-committed
    /// SPECjEnterprise guests (the Fig. 8 workload pushed past the
    /// paper's 8-VM maximum). With class sharing and timeline
    /// attribution enabled this is the worst case for the per-sample
    /// walk — tens of address spaces, millions of PTEs — and the
    /// scenario `bench attribution` pins [`analysis::SnapshotEngine`]
    /// on (`tests/golden/attribution.txt`).
    #[must_use]
    pub fn scale32(scale: f64) -> ExperimentConfig {
        ExperimentConfig::paper_overcommit_specj(32, scale).with_class_sharing()
    }

    /// The fleet preset family: `n` over-committed SPECjEnterprise
    /// guests with class sharing on a host provisioned at the paper's
    /// Fig. 8 over-commit knee (8 × 1.25 GB nominal on ≈5.6 GB usable,
    /// about 1.75×), scaled up to `n` guests. This keeps the sharing
    /// pressure — and therefore the KSM workload per pass — at the
    /// paper's measured operating point while the guest count grows to
    /// fleet density.
    #[must_use]
    pub fn fleet(n: usize, scale: f64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_overcommit_specj(n, scale).with_class_sharing();
        let nominal_mib: f64 = cfg.guests.iter().map(|g| g.mem_mib).sum();
        let usable = nominal_mib / 1.75;
        let reserve = usable * 0.05;
        cfg.host = HostConfig {
            ram_mib: usable + reserve,
            reserve_mib: reserve,
        };
        cfg
    }

    /// The fleet stress preset: 256 over-committed SPECjEnterprise
    /// guests — the smaller of the two fleet presets, and the fleet
    /// `perfbench`'s `tpsd-256` workload watches. See
    /// [`fleet`](Self::fleet).
    #[must_use]
    pub fn scale256(scale: f64) -> ExperimentConfig {
        ExperimentConfig::fleet(256, scale)
    }

    /// The extreme fleet preset: 1024 over-committed SPECjEnterprise
    /// guests, the fleet `perfbench`'s `flash-1024` workload drives.
    /// Every KSM pass walks every mergeable page of all 1024 guests,
    /// converged or not, so a pass costs in proportion to guest memory.
    /// See [`fleet`](Self::fleet).
    #[must_use]
    pub fn scale1024(scale: f64) -> ExperimentConfig {
        ExperimentConfig::fleet(1024, scale)
    }

    /// The most over-commit the throughput model tolerates before a run
    /// stops being meaningful: past ≈4× nominal-to-usable the thrash
    /// term collapses throughput to noise. The CLI validates every
    /// `--guests` count against this ceiling through
    /// [`with_guest_count`](Self::with_guest_count).
    pub const MAX_OVERCOMMIT: f64 = 4.0;

    /// The longest run [`validate`](Self::validate) accepts: one
    /// simulated day, sixteen times the paper's 90-minute runs.
    pub const MAX_DURATION_SECONDS: u64 = 24 * 60 * 60;

    /// The largest size divisor either binary accepts. Every sized
    /// `bench` name and every `tps-java-repro` subcommand runs at it
    /// through the end of the JVMs' warm-up. From a divisor of about 830
    /// the scaled guests have too few pages for a booted kernel, a JVM
    /// and the guest's daemons, and the run panics with a guest out of
    /// memory once the JVMs warm up. Each region rounds up to whole
    /// pages on its own, so where that starts is irregular; the cap is
    /// the power of two below it.
    pub const MAX_SCALE: f64 = 512.0;

    /// Checks a size divisor given on a command line: a finite number
    /// from 1 (paper scale) to [`MAX_SCALE`](Self::MAX_SCALE). Both
    /// binaries' parsers call this.
    ///
    /// # Errors
    ///
    /// [`Error::ScaleOutOfRange`] otherwise.
    pub fn check_scale(scale: f64) -> Result<f64, Error> {
        if (1.0..=Self::MAX_SCALE).contains(&scale) {
            Ok(scale)
        } else {
            Err(Error::ScaleOutOfRange { scale })
        }
    }

    /// Greatest guest count this configuration's host can hold within
    /// the [`MAX_OVERCOMMIT`](Self::MAX_OVERCOMMIT) memory budget,
    /// assuming every guest is sized like the first.
    #[must_use]
    pub fn max_guests_for_budget(&self) -> usize {
        let per_guest = self.guests.first().map_or(0.0, |g| g.mem_mib);
        if per_guest <= 0.0 {
            return usize::MAX;
        }
        ((self.host.usable_mib() * Self::MAX_OVERCOMMIT) / per_guest).floor() as usize
    }

    /// Replaces the guests with `n` copies of the first, checked against
    /// the [`MAX_OVERCOMMIT`](Self::MAX_OVERCOMMIT) budget.
    ///
    /// # Errors
    ///
    /// [`Error::NoGuests`] if there is no guest to copy;
    /// [`Error::BudgetExceeded`] when `n` guests exceed
    /// [`max_guests_for_budget`](Self::max_guests_for_budget).
    pub fn with_guest_count(mut self, n: usize) -> Result<ExperimentConfig, Error> {
        let spec = self.guests.first().cloned().ok_or(Error::NoGuests)?;
        let budget = self.max_guests_for_budget();
        if n > budget {
            return Err(Error::BudgetExceeded {
                guests: n,
                nominal_mib: spec.mem_mib * n as f64,
                usable_mib: self.host.usable_mib(),
                max_guests: budget,
            });
        }
        self.guests = vec![spec; n];
        Ok(self)
    }

    /// A miniature configuration for unit tests: `n` guests with the tiny
    /// profile, seconds of simulated time.
    #[must_use]
    pub fn tiny_test(n: usize, class_sharing: bool) -> ExperimentConfig {
        let bench = Benchmark {
            profile: jvm::AppProfile::tiny_test(),
            drive: workloads::DriveModel::closed_loop(4, 1.0),
            cache_mib: 4.0,
        };
        ExperimentConfig {
            host: HostConfig {
                ram_mib: 512.0,
                reserve_mib: 32.0,
            },
            image: OsImage::tiny_test(),
            guests: (0..n)
                .map(|_| GuestSpec {
                    benchmark: bench.clone(),
                    mem_mib: 64.0,
                })
                .collect(),
            ksm: KsmSchedule {
                warmup: KsmParams::new(2_000, 100),
                steady: KsmParams::new(2_000, 100),
                warmup_seconds: 0,
            },
            duration_seconds: 90,
            class_sharing,
            seed: 7,
            timeline: None,
            trace: false,
            diagnose: false,
            audit: false,
            threads: 1,
            thp: paging::ThpPolicy::Never,
        }
    }

    /// [`tiny_test`](Self::tiny_test) at a shorter duration, sized so a
    /// debug-profile run finishes in well under a second. The default
    /// preset for integration tests; the 90-second `tiny_test` stays
    /// available for `#[ignore]`d full-size variants.
    #[must_use]
    pub fn small_test(n: usize, class_sharing: bool) -> ExperimentConfig {
        ExperimentConfig::tiny_test(n, class_sharing).with_duration_seconds(40)
    }

    /// Enables the class-sharing technique.
    #[must_use]
    pub fn with_class_sharing(mut self) -> ExperimentConfig {
        self.class_sharing = true;
        self
    }

    /// Sets the run duration.
    #[must_use]
    pub fn with_duration_seconds(mut self, seconds: u64) -> ExperimentConfig {
        self.duration_seconds = seconds;
        self
    }

    /// Sets the KSM schedule.
    #[must_use]
    pub fn with_ksm(mut self, ksm: KsmSchedule) -> ExperimentConfig {
        self.ksm = ksm;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ExperimentConfig {
        self.seed = seed;
        self
    }

    /// Samples the sharing timeline every `seconds` (no attribution
    /// walk; see [`with_timeline_attribution`](Self::with_timeline_attribution)).
    #[must_use]
    pub fn with_timeline(mut self, seconds: u64) -> ExperimentConfig {
        assert!(seconds > 0, "sampling interval must be positive");
        let attribution = self.timeline.is_some_and(|t| t.attribution);
        self.timeline = Some(TimelineConfig {
            every_seconds: seconds,
            attribution,
        });
        self
    }

    /// Runs the full attribution walk at every timeline sample,
    /// recording the TPS saving per sample. Requires
    /// [`with_timeline`](Self::with_timeline) first.
    #[must_use]
    pub fn with_timeline_attribution(mut self) -> ExperimentConfig {
        let timeline = self
            .timeline
            .as_mut()
            .expect("with_timeline must be configured before attribution");
        timeline.attribution = true;
        self
    }

    /// Records the page-lifecycle event trace.
    #[must_use]
    pub fn with_trace(mut self) -> ExperimentConfig {
        self.trace = true;
        self
    }

    /// Runs the merge-miss diagnostics on the final state.
    #[must_use]
    pub fn with_diagnose(mut self) -> ExperimentConfig {
        self.diagnose = true;
        self
    }

    /// Enables the cross-layer conservation audit for this run.
    #[must_use]
    pub fn with_audit(mut self) -> ExperimentConfig {
        self.audit = true;
        self
    }

    /// Sets [`threads`](Self::threads), which no run reads (`0` is
    /// treated as `1`). Kept only for the `perfbench` package.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> ExperimentConfig {
        self.threads = threads.max(1);
        self
    }

    /// Sets the transparent huge page policy of the host (khugepaged)
    /// and the guests (fault-around). `Never` — the default —
    /// reproduces the paper's configuration.
    #[must_use]
    pub fn with_thp(mut self, policy: paging::ThpPolicy) -> ExperimentConfig {
        self.thp = policy;
        self
    }

    /// Checks that this configuration describes a runnable experiment:
    /// at least one guest, each with room for the image's kernel, and a
    /// duration of one second to
    /// [`MAX_DURATION_SECONDS`](Self::MAX_DURATION_SECONDS).
    ///
    /// Every entry point ([`Experiment::run`](crate::Experiment::run),
    /// [`Experiment::run_traffic`](crate::Experiment::run_traffic),
    /// [`preset`](Self::preset)) calls this, so invalid configs
    /// surface as a typed [`Error`] instead of a panic mid-run.
    ///
    /// Deliberately *not* checked here: the memory budget. Over-commit
    /// far beyond [`MAX_OVERCOMMIT`](Self::MAX_OVERCOMMIT) is the
    /// paper's subject (the named presets themselves exceed it), so the
    /// budget cap only guards explicit guest-count overrides — see
    /// [`with_guest_count`](Self::with_guest_count).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), Error> {
        if self.guests.is_empty() {
            return Err(Error::NoGuests);
        }
        let kernel_pages = self.image.kernel_pages();
        for (guest, spec) in self.guests.iter().enumerate() {
            let guest_pages = mem::mib_to_pages(spec.mem_mib);
            if guest_pages < kernel_pages {
                return Err(Error::GuestTooSmall {
                    guest,
                    guest_pages,
                    kernel_pages,
                });
            }
        }
        if self.duration_seconds == 0 {
            return Err(Error::ZeroDuration);
        }
        if self.duration_seconds > Self::MAX_DURATION_SECONDS {
            return Err(Error::DurationTooLong {
                seconds: self.duration_seconds,
            });
        }
        Ok(())
    }

    /// The named fleet preset at size divisor `scale`, validated — the
    /// entry point the CLI routes `--preset` through:
    ///
    /// ```
    /// use tpslab::ExperimentConfig;
    ///
    /// let cfg = ExperimentConfig::preset("scale32", 64.0)
    ///     .and_then(|cfg| cfg.with_guest_count(4))
    ///     .unwrap();
    /// assert_eq!(cfg.guests.len(), 4);
    /// assert!(ExperimentConfig::preset("scale9000", 8.0).is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::UnknownPreset`] for a name other than `scale32`,
    /// `scale256` and `scale1024`; whatever
    /// [`validate`](Self::validate) finds otherwise.
    pub fn preset(name: &str, scale: f64) -> Result<ExperimentConfig, Error> {
        let cfg = match name {
            "scale32" => ExperimentConfig::scale32(scale),
            "scale256" => ExperimentConfig::scale256(scale),
            "scale1024" => ExperimentConfig::scale1024(scale),
            other => return Err(Error::UnknownPreset(other.to_string())),
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_have_expected_shapes() {
        let fig2 = ExperimentConfig::paper_daytrader_4vm(1.0);
        assert_eq!(fig2.guests.len(), 4);
        assert!(!fig2.class_sharing);
        assert_eq!(fig2.duration_seconds, 5400);

        let fig3b = ExperimentConfig::paper_mixed_was(1.0);
        assert_eq!(fig3b.guests.len(), 3);
        let names: Vec<_> = fig3b
            .guests
            .iter()
            .map(|g| g.benchmark.profile.name.clone())
            .collect();
        assert!(names.iter().any(|n| n.contains("SPECj")));

        let fig7 = ExperimentConfig::paper_overcommit_daytrader(8, 1.0);
        assert_eq!(fig7.guests.len(), 8);
    }

    #[test]
    fn scaling_shrinks_guests_and_host_together() {
        let full = ExperimentConfig::paper_daytrader_4vm(1.0);
        let quarter = ExperimentConfig::paper_daytrader_4vm(4.0);
        assert!((quarter.host.ram_mib - full.host.ram_mib / 4.0).abs() < 1e-9);
        assert!((quarter.guests[0].mem_mib - 256.0).abs() < 1e-9);
    }

    #[test]
    fn validate_refuses_a_guest_smaller_than_its_kernel() {
        let cfg = ExperimentConfig::paper_daytrader_4vm(64.0);
        assert_eq!(cfg.validate(), Ok(()));
        let mut small = cfg.clone();
        let kernel_pages = small.image.kernel_pages();
        small.guests[2].mem_mib = mem::pages_to_mib(kernel_pages - 1);
        assert_eq!(
            small.validate(),
            Err(Error::GuestTooSmall {
                guest: 2,
                guest_pages: kernel_pages - 1,
                kernel_pages,
            })
        );
        small.guests[2].mem_mib = mem::pages_to_mib(kernel_pages);
        assert_eq!(small.validate(), Ok(()));
    }

    #[test]
    fn check_scale_bounds_the_divisor() {
        let max = ExperimentConfig::MAX_SCALE;
        for ok in [1.0, 8.0, max] {
            assert_eq!(ExperimentConfig::check_scale(ok), Ok(ok));
        }
        for bad in [0.5, max + 1.0, 1e5, f64::NAN, f64::INFINITY] {
            let e = ExperimentConfig::check_scale(bad).unwrap_err();
            assert!(matches!(e, Error::ScaleOutOfRange { .. }), "{bad}");
            assert!(!e.to_string().contains('\n'));
        }
    }

    #[test]
    fn validate_bounds_the_duration() {
        let day = ExperimentConfig::MAX_DURATION_SECONDS;
        let cfg = ExperimentConfig::tiny_test(1, false);
        assert_eq!(cfg.clone().with_duration_seconds(day).validate(), Ok(()));
        assert_eq!(
            cfg.clone().with_duration_seconds(day + 1).validate(),
            Err(Error::DurationTooLong { seconds: day + 1 })
        );
        assert_eq!(
            cfg.with_duration_seconds(0).validate(),
            Err(Error::ZeroDuration)
        );
    }

    #[test]
    fn builder_helpers() {
        let cfg = ExperimentConfig::tiny_test(1, false)
            .with_class_sharing()
            .with_duration_seconds(10)
            .with_seed(99);
        assert!(cfg.class_sharing);
        assert_eq!(cfg.duration_seconds, 10);
        assert_eq!(cfg.seed, 99);
    }

    #[test]
    fn observability_builders() {
        let cfg = ExperimentConfig::tiny_test(1, false)
            .with_timeline(5)
            .with_timeline_attribution()
            .with_trace()
            .with_diagnose();
        assert_eq!(
            cfg.timeline,
            Some(TimelineConfig {
                every_seconds: 5,
                attribution: true
            })
        );
        // Re-tuning the cadence keeps the attribution flag.
        assert!(cfg.clone().with_timeline(7).timeline.unwrap().attribution);
        assert!(cfg.trace && cfg.diagnose);
    }

    #[test]
    #[should_panic(expected = "with_timeline")]
    fn attribution_requires_timeline() {
        let _ = ExperimentConfig::tiny_test(1, false).with_timeline_attribution();
    }

    #[test]
    fn threads_default_to_one_and_clamp_zero() {
        let cfg = ExperimentConfig::tiny_test(1, false);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.with_threads(0).threads, 1);
        let cfg = ExperimentConfig::tiny_test(1, false).with_threads(8);
        assert_eq!(cfg.threads, 8);
    }

    #[test]
    fn thp_defaults_to_never_and_builder_sets_both_sides() {
        use paging::ThpPolicy;
        let cfg = ExperimentConfig::tiny_test(1, false);
        assert_eq!(cfg.thp, ThpPolicy::Never);
        let cfg = cfg.with_thp(ThpPolicy::Madvise);
        assert_eq!(cfg.thp, ThpPolicy::Madvise);
    }

    #[test]
    fn scale32_is_an_overcommitted_specj_fleet() {
        let cfg = ExperimentConfig::scale32(128.0);
        assert_eq!(cfg.guests.len(), 32);
        assert!(cfg.class_sharing);
        assert!(cfg
            .guests
            .iter()
            .all(|g| g.benchmark.profile.name.contains("SPECj")));
    }

    #[test]
    fn fleet_presets_hold_the_overcommit_knee() {
        for (cfg, n) in [
            (ExperimentConfig::scale256(512.0), 256),
            (ExperimentConfig::scale1024(512.0), 1024),
        ] {
            assert_eq!(cfg.guests.len(), n);
            assert!(cfg.class_sharing);
            let nominal: f64 = cfg.guests.iter().map(|g| g.mem_mib).sum();
            let ratio = nominal / cfg.host.usable_mib();
            assert!((ratio - 1.75).abs() < 0.01, "overcommit {ratio}");
        }
    }

    #[test]
    fn memory_budget_bounds_guest_overrides() {
        let cfg = ExperimentConfig::scale256(512.0);
        let max = cfg.max_guests_for_budget();
        // The preset sits at 1.75x of a 4x ceiling: plenty of headroom
        // to scale up, but not unboundedly.
        assert!(max > 256 && max < 4096, "max {max}");
        let paper = ExperimentConfig::paper_overcommit_specj(8, 1.0);
        assert!(paper.max_guests_for_budget() >= 8);
    }
}
