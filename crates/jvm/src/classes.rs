//! The class population of a workload.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One Java class as the memory model sees it: an identity plus the sizes
/// of its read-only and writable halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSpec {
    /// Content identity of the class (stable across processes and VMs —
    /// the same jar file is installed everywhere).
    pub token: u64,
    /// Read-only half: bytecode, constant pool, string literals. This is
    /// what the shared class cache stores.
    pub ro_bytes: usize,
    /// Writable half: method tables, statics, resolution state. Always
    /// created privately by each JVM.
    pub rw_bytes: usize,
    /// Whether the class can be stored in the shared class cache.
    /// Middleware and system classes can; the paper's EJB application
    /// classes cannot (their class loaders are not cache-aware, §V.A).
    pub cacheable: bool,
}

/// The deterministic set of classes a workload loads, in canonical
/// (first-run) load order.
///
/// The population has two parts, mirroring §V.A ("around 90 % of
/// preloaded classes were those for WAS … only around 10 % were Java
/// system classes; the classes for the EJB applications were not
/// preloaded"):
///
/// * **Middleware classes** — derived from `middleware_id` alone, so two
///   *different* benchmarks hosted by the same middleware (DayTrader and
///   TPC-W in the same WAS) load byte-identical middleware classes in the
///   same canonical order. These are cache-eligible.
/// * **Application classes** — derived from `workload_id`, distinct per
///   benchmark, not cache-eligible.
///
/// # Example
///
/// ```
/// use jvm::ClassSet;
///
/// let daytrader = ClassSet::generate(1, 99, 100, 8_000, 1_000, 0.9);
/// let tpcw = ClassSet::generate(2, 99, 100, 8_000, 1_000, 0.9);
/// // Same WAS (middleware 99): identical middleware classes...
/// assert!(daytrader.cacheable().eq(tpcw.cacheable()));
/// // ...different application classes.
/// assert_ne!(daytrader.classes(), tpcw.classes());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSet {
    classes: Vec<ClassSpec>,
}

impl ClassSet {
    /// Generates `count` classes: the first `middleware_fraction` of the
    /// load order is the middleware population (determined by
    /// `middleware_id`), the rest are application classes (determined by
    /// `workload_id`).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `middleware_fraction` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn generate(
        workload_id: u64,
        middleware_id: u64,
        count: usize,
        avg_ro_bytes: usize,
        avg_rw_bytes: usize,
        middleware_fraction: f64,
    ) -> ClassSet {
        assert!(count > 0, "a workload loads at least one class");
        assert!(
            (0.0..=1.0).contains(&middleware_fraction),
            "middleware fraction must be in [0, 1]"
        );
        // Class sizes are right-skewed: many small classes, a few very
        // large generated/framework classes.
        let skew = |avg: usize, rng: &mut SmallRng| -> usize {
            let u: f64 = rng.gen_range(0.0..1.0);
            let factor = 0.25 + 2.2 * u * u;
            ((avg as f64) * factor).max(64.0) as usize
        };
        let mw_count = (count as f64 * middleware_fraction).round() as usize;
        let mut mw_rng = SmallRng::seed_from_u64(middleware_id ^ 0x31dd);
        let mut app_rng = SmallRng::seed_from_u64(workload_id ^ 0x0c1a_55e5);
        let classes = (0..count)
            .map(|i| {
                let middleware = i < mw_count;
                let (seed, rng) = if middleware {
                    (middleware_id, &mut mw_rng)
                } else {
                    (workload_id, &mut app_rng)
                };
                ClassSpec {
                    token: mem::Fingerprint::of(&[0xc1a55, seed, i as u64]).as_u128() as u64,
                    ro_bytes: skew(avg_ro_bytes, rng),
                    rw_bytes: skew(avg_rw_bytes, rng),
                    cacheable: middleware,
                }
            })
            .collect();
        ClassSet { classes }
    }

    /// Generates the class set described by an
    /// [`AppProfile`](crate::AppProfile).
    #[must_use]
    pub fn for_profile(profile: &crate::AppProfile) -> ClassSet {
        ClassSet::generate(
            profile.workload_id,
            profile.middleware_id,
            profile.class_count,
            profile.avg_class_ro_bytes,
            profile.avg_class_rw_bytes,
            profile.cacheable_fraction,
        )
    }

    /// The classes in canonical load order.
    #[must_use]
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    /// Number of classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` if the set is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Total read-only bytes across all classes.
    #[must_use]
    pub fn total_ro_bytes(&self) -> usize {
        self.classes.iter().map(|c| c.ro_bytes).sum()
    }

    /// Classes eligible for the shared class cache (the middleware
    /// population).
    pub fn cacheable(&self) -> impl Iterator<Item = &ClassSpec> {
        self.classes.iter().filter(|c| c.cacheable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn gen(workload: u64, mw: u64) -> ClassSet {
        ClassSet::generate(workload, mw, 100, 8000, 1000, 0.8)
    }

    #[test]
    fn deterministic_per_ids() {
        assert_eq!(gen(7, 1), gen(7, 1));
    }

    #[test]
    fn different_workloads_share_middleware_only() {
        let a = gen(7, 1);
        let b = gen(8, 1);
        let mw_a: Vec<_> = a.cacheable().collect();
        let mw_b: Vec<_> = b.cacheable().collect();
        assert_eq!(mw_a, mw_b);
        assert_ne!(a, b);
        // App classes (the non-cacheable suffix) differ entirely.
        let app_a: HashSet<u64> = a
            .classes()
            .iter()
            .filter(|c| !c.cacheable)
            .map(|c| c.token)
            .collect();
        let app_b: HashSet<u64> = b
            .classes()
            .iter()
            .filter(|c| !c.cacheable)
            .map(|c| c.token)
            .collect();
        assert!(app_a.is_disjoint(&app_b));
    }

    #[test]
    fn different_middleware_differs() {
        assert_ne!(gen(7, 1), gen(7, 2));
    }

    #[test]
    fn tokens_are_unique() {
        let set = ClassSet::generate(7, 1, 500, 8000, 1000, 0.8);
        let tokens: HashSet<u64> = set.classes().iter().map(|c| c.token).collect();
        assert_eq!(tokens.len(), set.len());
    }

    #[test]
    fn cacheable_prefix() {
        let set = ClassSet::generate(7, 1, 100, 8000, 1000, 0.6);
        assert_eq!(set.cacheable().count(), 60);
        assert!(set.classes()[0].cacheable);
        assert!(!set.classes()[99].cacheable);
    }

    #[test]
    fn mean_sizes_are_near_target() {
        let set = ClassSet::generate(7, 1, 2000, 8000, 1000, 1.0);
        let mean_ro = set.total_ro_bytes() as f64 / set.len() as f64;
        assert!((mean_ro / 8000.0 - 1.0).abs() < 0.15, "mean ro {mean_ro}");
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_count_rejected() {
        let _ = ClassSet::generate(7, 1, 0, 1, 1, 1.0);
    }
}
