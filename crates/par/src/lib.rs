//! A deterministic scoped worker pool.
//!
//! [`map_parallel`] applies a function to every item of a slice on a
//! pool of scoped threads and returns the results **in input order**,
//! bit-identical to a serial run regardless of worker count —
//! parallelism only changes wall-clock time. The pool is a
//! [`std::thread::scope`] over plain workers pulling from an atomic
//! work index; no external dependencies.
//!
//! One caller builds on this primitive: the `bench` runner's sweeps,
//! which run independent experiments side by side (one experiment per
//! item) on [`default_threads`] workers. Every simulated world is
//! serial; a fan-out inside one (the KSM wake, the attribution walk)
//! lost to its serial pass on a 2-core host and was deleted.
//!
//! ```
//! let items: Vec<u64> = (0..32).collect();
//! let doubled = par::map_parallel(&items, 4, |&x| x * 2);
//! assert_eq!(doubled[31], 62);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count to use when the caller expresses no preference: the
/// machine's available parallelism, or 1 if that cannot be determined.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on a scoped worker pool, returning results
/// in input order.
///
/// With `threads <= 1` the map runs serially on the calling thread;
/// either way the results are identical — parallelism only changes
/// wall-clock time.
#[must_use]
pub fn map_parallel<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            pairs.extend(handle.join().expect("pool worker panicked"));
        }
    });
    pairs.sort_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..32).collect();
        let doubled = map_parallel(&items, 4, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let items: Vec<u64> = (0..10).collect();
        let serial = map_parallel(&items, 1, |&x| x * x);
        for threads in [2, 3, 8, 64] {
            assert_eq!(map_parallel(&items, threads, |&x| x * x), serial);
        }
    }

    #[test]
    fn empty_and_single_item_maps_work() {
        let empty: Vec<u64> = Vec::new();
        assert!(map_parallel(&empty, 4, |&x| x).is_empty());
        assert_eq!(map_parallel(&[7u64], 4, |&x| x + 1), vec![8]);
    }
}
