//! Parallel execution of experiment sweeps.
//!
//! Every figure and ablation in the paper is a *sweep*: a list of
//! independent [`ExperimentConfig`]s run one after another. Each
//! [`Experiment::run`] is single-threaded and deterministic in its
//! config, so a sweep parallelizes trivially across experiments — the
//! reports come back in input order and are bit-identical to a serial
//! run regardless of worker count.
//!
//! The pool itself lives in the `par` crate (a [`std::thread::scope`]
//! over plain workers pulling from an atomic work index; no external
//! dependencies) so the attribution engine in `analysis` can share it;
//! [`map_parallel`] is re-exported here for sweeps that are not
//! expressed as `ExperimentConfig`s (e.g. the ballooning ablation,
//! which builds its hosts by hand) or that time each run (the `bench`
//! runner).
//!
//! ```
//! use tpslab::{sweep, ExperimentConfig};
//!
//! let configs = vec![
//!     ExperimentConfig::tiny_test(1, false),
//!     ExperimentConfig::tiny_test(1, true),
//! ];
//! let reports = sweep::run_all(&configs, 2).unwrap();
//! assert_eq!(reports.len(), 2);
//! ```

use crate::{Error, Experiment, ExperimentConfig, ExperimentReport};
pub use par::{default_threads, map_parallel};

/// Runs every config and returns the reports in input order.
///
/// With `threads <= 1` the sweep runs serially on the calling thread;
/// either way the reports are identical — parallelism only changes
/// wall-clock time.
///
/// # Errors
///
/// Validates every config up front and returns the first violation
/// before any experiment runs, so a bad sweep point cannot waste the
/// rest of the sweep's work.
pub fn run_all(
    configs: &[ExperimentConfig],
    threads: usize,
) -> Result<Vec<ExperimentReport>, Error> {
    for config in configs {
        config.validate()?;
    }
    Ok(map_parallel(configs, threads, |config| {
        Experiment::run(config).expect("config was validated before the sweep started")
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_pool_keeps_input_order() {
        let items: Vec<u64> = (0..32).collect();
        let doubled = map_parallel(&items, 4, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    /// The sweep determinism contract: N workers produce byte-identical
    /// reports to a single worker, in the same order.
    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let configs = vec![
            ExperimentConfig::tiny_test(1, false),
            ExperimentConfig::tiny_test(2, true),
            ExperimentConfig::tiny_test(2, false).with_seed(77),
            ExperimentConfig::tiny_test(3, true).with_seed(99),
        ];
        let serial = run_all(&configs, 1).unwrap();
        let parallel = run_all(&configs, 4).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.breakdown, b.breakdown);
            assert_eq!(a.ksm, b.ksm);
            assert_eq!(a.resident_mib, b.resident_mib);
            assert_eq!(a.slowdown, b.slowdown);
        }
    }

    #[test]
    fn sweeps_reject_invalid_configs_up_front() {
        let mut bad = ExperimentConfig::tiny_test(1, false);
        bad.duration_seconds = 0;
        let configs = vec![ExperimentConfig::tiny_test(1, false), bad];
        assert_eq!(
            run_all(&configs, 2).unwrap_err(),
            crate::Error::ZeroDuration
        );
    }
}
