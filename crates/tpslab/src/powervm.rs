//! The Fig. 6 PowerVM/AIX experiment.

use cds::CacheBuilder;
use hypervisor::PowerVmHost;
use jvm::{ClassSet, JavaVm, JvmConfig};
use mem::{Fingerprint, Tick};
use oskernel::OsImage;
use workloads::Benchmark;

/// One bar pair from Fig. 6: physical memory just after starting WAS and
/// after PowerVM finished sharing pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerVmFigure {
    /// Total LPAR memory before deduplication, MiB.
    pub before_mib: f64,
    /// Total after deduplication, MiB.
    pub after_mib: f64,
}

impl PowerVmFigure {
    /// Memory saved by sharing, MiB (424.4 with preloading vs. 243.4
    /// without, in the paper).
    #[must_use]
    pub fn saving_mib(&self) -> f64 {
        self.before_mib - self.after_mib
    }
}

/// The §V.B experiment: three AIX LPARs running WAS + DayTrader on
/// PowerVM, with and without class preloading.
#[derive(Debug, Clone)]
pub struct PowerVmExperiment {
    /// Number of LPARs (three in the paper).
    pub lpars: usize,
    /// LPAR memory, MiB (3.5 GB in the paper).
    pub lpar_mem_mib: f64,
    /// The benchmark (DayTrader with a 1 GB heap and 25 client threads).
    pub benchmark: Benchmark,
    /// Guest image (AIX 6.1).
    pub image: OsImage,
    /// Seconds of WAS start-up simulated before measuring.
    pub startup_seconds: u64,
    /// Master seed.
    pub seed: u64,
}

impl PowerVmExperiment {
    /// The paper's configuration (rightmost columns of Tables I–III),
    /// scaled by `scale`.
    #[must_use]
    pub fn paper(scale: f64) -> PowerVmExperiment {
        PowerVmExperiment {
            lpars: 3,
            lpar_mem_mib: 3584.0 / scale,
            benchmark: workloads::daytrader_power().scaled(scale),
            image: OsImage::aix61().scaled(scale),
            startup_seconds: 420,
            seed: 0x0009_03e4,
        }
    }

    /// A miniature configuration for tests.
    #[must_use]
    pub fn tiny_test() -> PowerVmExperiment {
        PowerVmExperiment {
            lpars: 3,
            lpar_mem_mib: 96.0,
            benchmark: Benchmark {
                profile: jvm::AppProfile::tiny_test(),
                drive: workloads::DriveModel::closed_loop(4, 1.0),
                cache_mib: 4.0,
            },
            image: OsImage::tiny_test(),
            startup_seconds: 60,
            seed: 11,
        }
    }

    /// Runs the experiment once. `preload` selects whether the shared
    /// class cache file is present on every LPAR.
    #[must_use]
    pub fn run(&self, preload: bool) -> PowerVmFigure {
        let mut host = PowerVmHost::new();
        let profile = &self.benchmark.profile;
        let cache = preload.then(|| {
            let classes = ClassSet::for_profile(profile);
            let mut builder = CacheBuilder::new(profile.name.clone(), self.benchmark.cache_mib);
            for class in classes.cacheable() {
                builder.add(class.token, class.ro_bytes);
            }
            builder.finish()
        });

        let mut javas: Vec<JavaVm> = Vec::new();
        for i in 0..self.lpars {
            let salt = Fingerprint::of(&[self.seed, 0x19a4, i as u64]).as_u128() as u64;
            let idx = host.create_lpar(
                format!("lpar{}", i + 1),
                self.lpar_mem_mib,
                &self.image,
                salt,
                Tick::ZERO,
            );
            let mut cfg = JvmConfig::new(0x0659, salt.rotate_left(13));
            if let Some(c) = &cache {
                cfg = cfg.with_shared_cache(c.clone());
            }
            let (mm, lpar) = host.mm_and_lpar_mut(idx);
            javas.push(JavaVm::launch(
                mm,
                &mut lpar.os,
                cfg,
                profile.clone(),
                Tick::ZERO,
            ));
        }

        // Start WAS everywhere; PowerVM has not shared anything yet.
        let end = Tick::from_seconds(self.startup_seconds as f64);
        for t in 1..=end.0 {
            let now = Tick(t);
            for (i, java) in javas.iter_mut().enumerate() {
                let (mm, lpar) = host.mm_and_lpar_mut(i);
                lpar.os.tick(mm, now);
                java.tick(mm, &mut lpar.os, now);
            }
        }
        let before_mib = host.resident_mib();
        host.dedupe(end.next());
        let after_mib = host.resident_mib();
        PowerVmFigure {
            before_mib,
            after_mib,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preloading_increases_powervm_saving() {
        let exp = PowerVmExperiment::tiny_test();
        let without = exp.run(false);
        let with = exp.run(true);
        assert!(without.saving_mib() > 0.0, "kernel pages always share");
        assert!(
            with.saving_mib() > without.saving_mib(),
            "preload {} vs baseline {}",
            with.saving_mib(),
            without.saving_mib()
        );
        // Before-sizes are comparable (the cache itself is shared work,
        // not extra footprint of similar magnitude).
        assert!((with.before_mib - without.before_mib).abs() < 0.25 * without.before_mib);
    }
}
