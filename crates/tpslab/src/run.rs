//! The KVM experiment runner.

use crate::world::{tick_guest, World};
use crate::{ExperimentConfig, ExperimentReport, TimelinePoint, VmThroughput};
use analysis::{BreakdownReport, SnapshotEngine};
use hypervisor::{KvmHost, PagingModel};
use jvm::JavaVm;
use ksm::KsmStats;
use mem::{Fingerprint, Tick};
use std::time::Instant;

/// The JVM build used throughout the paper: IBM J9, Java 6 SR9.
pub(crate) const JVM_VERSION: u64 = 0x0659;

/// Runs experiments described by [`ExperimentConfig`].
#[derive(Debug)]
pub struct Experiment;

impl Experiment {
    /// Boots the configured guests and JVMs and advances the world
    /// through `config.duration_seconds` of simulated time (guest/JVM
    /// ticks plus KSM scanning — no sampling or auditing), returning
    /// the live host and JVMs.
    ///
    /// This is the bench harness: it hands out the same warmed-up world
    /// state [`run`](Self::run) measures, so analysis passes (e.g. the
    /// attribution walk) can be timed in isolation against it. Continue
    /// the simulation manually with [`tick_world`](Self::tick_world).
    #[must_use]
    pub fn build_world(config: &ExperimentConfig) -> (KvmHost, Vec<JavaVm>) {
        let mut world = World::new(config, None);
        for t in 1..=Tick::from_seconds(config.duration_seconds as f64).0 {
            world.step(t);
        }
        let javas = world
            .slots
            .into_iter()
            .map(|slot| slot.java.expect("a scripted guest runs its JVM"))
            .collect();
        (world.host, javas)
    }

    /// Advances the world one tick: every guest OS and its JVM, in
    /// guest order (exactly the per-tick step of [`run`](Self::run),
    /// without KSM scanning).
    pub fn tick_world(host: &mut KvmHost, javas: &mut [JavaVm], now: Tick) {
        for (i, java) in javas.iter_mut().enumerate() {
            tick_guest(host, i, java, now);
        }
    }

    /// Simulates the configured system and reports the paper's
    /// measurement quantities. Deterministic in `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Error`](crate::Error) when the configuration is
    /// not runnable (no guests, zero duration, fleet beyond the host's
    /// memory budget) — see [`ExperimentConfig::validate`].
    pub fn run(config: &ExperimentConfig) -> Result<ExperimentReport, crate::Error> {
        config.validate()?;
        let mut world = World::new(config, None);
        let end = Tick::from_seconds(config.duration_seconds as f64);
        let sample_ticks = config
            .timeline
            .map(|tl| tl.every_seconds * mem::TICKS_PER_SECOND);
        let attribution = config.timeline.is_some_and(|tl| tl.attribution);
        // One engine for the whole run: it keeps one walk buffer, and
        // the final breakdown reuses the last sample's walk when nothing
        // moved since. The report stays bit-identical to a from-scratch
        // walk at every sample.
        let mut engine = SnapshotEngine::default();
        let mut timeline = Vec::new();
        let mut last_stats = KsmStats::default();
        for t in 1..=end.0 {
            world.step(t);
            if sample_ticks.is_none_or(|every| t % every != 0) {
                continue;
            }
            let sample_started = Instant::now();
            world.recount();
            let stats = world.scanner.stats();
            world.prof.end("timeline_sample", sample_started, 0, 0);
            // The full per-PTE attribution walk is far more expensive
            // than the recount, so it is gated behind its own timeline
            // flag.
            let tps_saving_mib = attribution.then(|| {
                attribute(&mut world, &mut engine)
                    .guests
                    .iter()
                    .map(analysis::GuestBreakdown::tps_saving_mib)
                    .sum()
            });
            timeline.push(TimelinePoint {
                seconds: Tick(t).as_seconds(),
                resident_mib: world.host.resident_mib(),
                pages_sharing: stats.pages_sharing,
                pages_shared: stats.pages_shared,
                full_scans: stats.full_scans,
                delta: stats.delta(&last_stats),
                tps_saving_mib,
            });
            last_stats = stats;
        }
        let final_started = Instant::now();
        world.recount();
        world.prof.end("final_recount", final_started, 0, 0);

        // Attribution walk (§II) and rollup.
        let breakdown = attribute(&mut world, &mut engine);

        // Merge-miss diagnostics over the final state: classify the
        // sharing an ideal merger would still find.
        let host = &mut world.host;
        let scanner = &world.scanner;
        let merge_miss = config.diagnose.then(|| {
            analysis::diagnose_misses(
                host.mm(),
                scanner.params().max_page_sharing(),
                scanner.volatility_horizon(),
            )
        });
        let trace = config.trace.then(|| host.mm_mut().tracer_mut().take_log());
        let phases = world.prof.report();

        // Over-commit throughput model (Figs. 7–8).
        let resident_mib = host.resident_mib();
        let cold_mib: f64 = config
            .guests
            .iter()
            .map(|g| cold_estimate_mib(config, g))
            .sum();
        let paging = PagingModel::default();
        let slowdown = paging.slowdown(
            resident_mib,
            config.host.ram_mib,
            config.host.reserve_mib,
            cold_mib,
        );
        // TLB-reach credit: huge mappings shrink the page-walk overhead,
        // recovering some of the paging slowdown — never beyond the
        // healthy rate. With no huge pages the boost is exactly 1.0 and
        // the service factor degenerates to the pure paging slowdown.
        let huge_mib = host.huge_mib();
        let tlb_boost = tlb_boost(host, &paging);
        let service = (slowdown * tlb_boost).min(1.0);
        let throughput = config
            .guests
            .iter()
            .enumerate()
            .map(|(i, spec)| VmThroughput {
                name: format!("vm{}", i + 1),
                throughput: spec.benchmark.drive.throughput(service),
                sla: spec.benchmark.drive.sla(service),
            })
            .collect();

        Ok(ExperimentReport {
            breakdown,
            ksm: scanner.stats(),
            resident_mib,
            usable_mib: config.host.usable_mib(),
            slowdown,
            huge_mib,
            tlb_boost,
            throughput,
            caches: world
                .caches
                .values()
                .map(|c| {
                    (
                        c.name().to_string(),
                        c.class_count(),
                        c.used_bytes() as f64 / (1024.0 * 1024.0),
                    )
                })
                .collect(),
            timeline,
            merge_miss,
            cow_broken_mappings: host.mm().cow_broken_mappings(),
            phases,
            trace,
        })
    }
}

/// One warm attribution walk (§II) of `world` and its rollup, timed as
/// the `attribution` phase.
fn attribute(world: &mut World, engine: &mut SnapshotEngine) -> BreakdownReport {
    let started = Instant::now();
    let breakdown = engine.snapshot(world.host.mm(), &world.views()).breakdown();
    let frames = world.host.mm().phys().allocated_frames() as u64;
    world.prof.end("attribution", started, 0, frames);
    breakdown
}

/// Cold (harmlessly swappable) memory per guest: most of the clean page
/// cache (droppable, though some is re-read), the dirty page cache, and
/// the untouched tail of the heap — ≈80 MiB per 1 GiB DayTrader guest.
/// Under the generational policy at a light injection rate, the nursery's
/// free space cycles slowly (a minor collection every tens of seconds),
/// so a slice of it is also harmlessly swappable between collections.
pub(crate) fn cold_estimate_mib(config: &ExperimentConfig, guest: &crate::GuestSpec) -> f64 {
    let heap = &guest.benchmark.profile.heap;
    let nursery_cold = match heap.policy {
        jvm::GcPolicy::Generational { nursery_mib, .. } => 0.3 * nursery_mib,
        jvm::GcPolicy::Flat => 0.0,
    };
    0.7 * config.image.pagecache_clean_mib
        + config.image.pagecache_dirty_mib
        + heap.untouched_fraction * heap.heap_mib
        + nursery_cold
}

/// `model`'s TLB-reach credit for the fraction of host memory mapped
/// through huge frames.
pub(crate) fn tlb_boost(host: &KvmHost, model: &PagingModel) -> f64 {
    let allocated = host.mm().phys().allocated_frames();
    let huge_fraction = if allocated == 0 {
        0.0
    } else {
        host.huge_pages() as f64 / allocated as f64
    };
    model.tlb_boost(huge_fraction)
}

pub(crate) fn mix(seed: u64, tag: u64, idx: u64) -> u64 {
    Fingerprint::of(&[seed, tag, idx]).as_u128() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn tiny_experiment_runs_and_reports() {
        let report = Experiment::run(&ExperimentConfig::tiny_test(2, false)).unwrap();
        assert_eq!(report.breakdown.guests.len(), 2);
        assert_eq!(report.breakdown.javas.len(), 2);
        assert!(report.resident_mib > 0.0);
        assert!(report.slowdown > 0.0 && report.slowdown <= 1.0);
        assert_eq!(report.throughput.len(), 2);
        assert!(report.caches.is_empty());
        // Some sharing exists even at baseline (code text, zeros).
        assert!(report.ksm.pages_sharing > 0);
    }

    #[test]
    fn class_sharing_increases_sharing_and_reduces_usage() {
        let base = Experiment::run(&ExperimentConfig::tiny_test(3, false)).unwrap();
        let cds = Experiment::run(&ExperimentConfig::tiny_test(3, true)).unwrap();
        assert!(cds.total_tps_saving_mib() > base.total_tps_saving_mib());
        assert!(cds.breakdown.total_owned_mib < base.breakdown.total_owned_mib);
        assert_eq!(cds.caches.len(), 1);
        // Non-primary JVMs share most of their class metadata.
        assert!(
            cds.mean_nonprimary_class_saving_fraction() > 0.5,
            "fraction {}",
            cds.mean_nonprimary_class_saving_fraction()
        );
    }

    #[test]
    fn thp_always_builds_huge_pages_and_boosts_throughput() {
        use crate::KsmSchedule;
        use ksm::KsmParams;
        use paging::ThpPolicy;
        let no_ksm = KsmSchedule {
            warmup: KsmParams::new(0, 100),
            steady: KsmParams::new(0, 100),
            warmup_seconds: 0,
        };
        let base = ExperimentConfig::tiny_test(2, false).with_ksm(no_ksm);
        let thp = base.clone().with_thp(ThpPolicy::Always);
        let plain = Experiment::run(&base).unwrap();
        let boosted = Experiment::run(&thp).unwrap();
        // The default config is THP-free and pays no reach credit.
        assert_eq!(plain.huge_mib, 0.0);
        assert_eq!(plain.tlb_boost, 1.0);
        // Under always/always with KSM off, guest fault-around populates
        // whole blocks and khugepaged collapses them (debug builds audit
        // the final state, so the collapsed world is conservation-clean).
        assert!(boosted.huge_mib > 0.0, "huge {}", boosted.huge_mib);
        assert!(boosted.tlb_boost > 1.0);
        assert!(boosted.total_throughput() >= plain.total_throughput());
        // And the THP world is just as deterministic.
        let again = Experiment::run(&thp).unwrap();
        assert_eq!(boosted.breakdown, again.breakdown);
        assert_eq!(boosted.huge_mib, again.huge_mib);
        assert_eq!(boosted.tlb_boost, again.tlb_boost);
    }

    #[test]
    fn ksm_splits_huge_pages_it_scans() {
        use paging::ThpPolicy;
        // The real THP×KSM tension: with both daemons on, KSM breaks the
        // huge mappings (split-before-merge) and the latch keeps
        // khugepaged from endlessly re-collapsing behind it.
        let cfg = ExperimentConfig::tiny_test(2, false).with_thp(ThpPolicy::Always);
        let report = Experiment::run(&cfg).unwrap();
        assert!(report.ksm.thp_splits > 0, "no splits recorded");
        assert!(report.ksm.pages_sharing > 0);
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let cfg = ExperimentConfig::tiny_test(2, true);
        let a = Experiment::run(&cfg).unwrap();
        let b = Experiment::run(&cfg).unwrap();
        assert_eq!(a.breakdown, b.breakdown);
        let c = Experiment::run(&cfg.clone().with_seed(12345)).unwrap();
        // A different seed perturbs layouts (resident sizes move a bit).
        assert_ne!(a.breakdown, c.breakdown);
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn timeline_samples_at_requested_cadence() {
        let cfg = ExperimentConfig::tiny_test(2, true)
            .with_duration_seconds(60)
            .with_timeline(10);
        let report = Experiment::run(&cfg).unwrap();
        assert_eq!(report.timeline.len(), 6);
        assert!((report.timeline[0].seconds - 10.0).abs() < 1e-9);
        // Sharing is monotone-ish during warm-up: the last sample has at
        // least as much stable content as the first.
        let first = report.timeline.first().unwrap();
        let last = report.timeline.last().unwrap();
        assert!(last.pages_sharing >= first.pages_sharing);
        // Resident memory grows as the JVMs warm up.
        assert!(last.resident_mib >= first.resident_mib * 0.9);
    }

    #[test]
    fn no_timeline_by_default() {
        let report =
            Experiment::run(&ExperimentConfig::tiny_test(1, false).with_duration_seconds(30))
                .unwrap();
        assert!(report.timeline.is_empty());
    }
}
