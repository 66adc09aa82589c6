//! A deterministic scoped worker pool.
//!
//! [`map_parallel`] applies a function to every item of a slice on a
//! pool of scoped threads and returns the results **in input order**,
//! bit-identical to a serial run regardless of worker count —
//! parallelism only changes wall-clock time. The pool is a
//! [`std::thread::scope`] over plain workers pulling from an atomic
//! work index; no external dependencies.
//!
//! Two layers build on this primitive: `tpslab::sweep` runs whole
//! experiment sweeps on it (one experiment per item), and
//! `analysis::SnapshotEngine` runs the per-guest passes of the
//! attribution walk on it (one address space per item). It lives in
//! its own crate so both can share it without a dependency cycle.
//!
//! ```
//! let items: Vec<u64> = (0..32).collect();
//! let doubled = par::map_parallel(&items, 4, |&x| x * 2);
//! assert_eq!(doubled[31], 62);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Applies `f` to every item of a mutable slice on a scoped worker
/// pool, returning results in input order.
///
/// Unlike [`map_parallel`] the items are handed to `f` **by mutable
/// reference**, so each worker can mutate the item it claimed in place —
/// the primitive behind sharded data structures where every shard owns
/// disjoint state (e.g. the KSM scanner's per-shard stable/unstable
/// trees). Scheduling is work-stealing in spirit: workers claim the next
/// unclaimed item from a shared atomic index, so shards with uneven
/// costs balance dynamically instead of being pre-partitioned.
///
/// With `threads <= 1` the map runs serially on the calling thread;
/// either way the results (and the mutations) are identical —
/// parallelism only changes wall-clock time.
#[must_use]
pub fn map_sharded<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // Each slot is locked exactly once (the atomic index hands every
    // index to exactly one worker), so the mutexes are uncontended —
    // they exist to hand a `&mut T` across threads without unsafe code.
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, R)> = Vec::with_capacity(slots.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let mut item = slot.lock().expect("shard slot poisoned");
                        local.push((i, f(i, &mut **item)));
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

    #[test]
    fn sharded_map_mutates_in_place_and_orders_results() {
        let mut shards: Vec<Vec<u64>> = (0..16).map(|i| vec![i]).collect();
        let sums = map_sharded(&mut shards, 4, |i, shard| {
            shard.push(i as u64 * 10);
            shard.iter().sum::<u64>()
        });
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard, &vec![i as u64, i as u64 * 10]);
        }
        assert_eq!(sums[3], 33);
    }

    #[test]
    fn sharded_map_is_thread_count_invariant() {
        let reference: Vec<u64> = (0..32).map(|i| i * 11).collect();
        for threads in [1, 2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..32).collect();
            let out = map_sharded(&mut items, threads, |i, item| {
                *item *= 11;
                *item + i as u64
            });
            assert_eq!(items, reference);
            let expected: Vec<u64> = reference.iter().zip(0u64..).map(|(v, i)| v + i).collect();
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn sharded_map_handles_empty_and_single() {
        let mut empty: Vec<u64> = Vec::new();
        assert!(map_sharded(&mut empty, 4, |_, x| *x).is_empty());
        let mut one = [5u64];
        assert_eq!(map_sharded(&mut one, 4, |_, x| *x + 1), vec![6]);
    }
}
