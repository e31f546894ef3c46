//! Deterministic scoped-thread fan-out for embarrassingly parallel grids.
//!
//! The experiment harness evaluates large grids of *independent*
//! simulation points (figure curves, grid cells, repetitions): each item
//! builds its own device, pool and seeds from the item itself, so nothing
//! random is shared between items. [`par_map`] runs such a grid across OS
//! threads and merges the results back **in submission order**, so the
//! output `Vec` is identical no matter how the items were interleaved
//! across threads. That makes `PIOQO_THREADS=1` and `PIOQO_THREADS=N`
//! produce byte-identical CSVs (enforced by `crates/repro/tests/` and CI).
//!
//! The pool is dependency-free: plain `std::thread::scope`, one atomic
//! work index, no channels. Worker threads exist only inside `par_map`;
//! nothing simulated ever runs concurrently with itself. This module is
//! the one allowlisted `std::thread` exception in a simulation crate
//! (lint rule D7, see `lint.toml`).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads currently parked inside a `par_*` fan-out anywhere in
/// the process. Nested fan-outs (a grid cell that itself calls
/// [`par_map`]) consult this to size themselves against the *free* cores
/// instead of oversubscribing the host — see [`free_thread_budget`].
static CORES_IN_USE: AtomicUsize = AtomicUsize::new(0);

/// RAII registration of `workers` busy cores in [`CORES_IN_USE`], so the
/// count unwinds correctly even if a worker panics.
struct CoreReservation(usize);

impl CoreReservation {
    fn new(workers: usize) -> CoreReservation {
        CORES_IN_USE.fetch_add(workers, Ordering::Relaxed);
        CoreReservation(workers)
    }
}

impl Drop for CoreReservation {
    fn drop(&mut self) {
        CORES_IN_USE.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// How many threads a fan-out starting *now* should use: the configured
/// [`thread_count`] minus the cores already reserved by enclosing
/// fan-outs, floored at 1. The budget only changes scheduling, never
/// results (the index-ordered merge is thread-count blind), so a nested
/// [`par_map`] stays byte-identical while no longer multiplying the
/// host's thread count.
pub fn free_thread_budget() -> usize {
    thread_count()
        .saturating_sub(CORES_IN_USE.load(Ordering::Relaxed))
        .max(1)
}

/// Number of worker threads the harness should use.
///
/// Reads `PIOQO_THREADS` (the `repro --threads N` flag sets it); any
/// value that is not a positive integer falls back to the host's
/// available parallelism. The returned count only affects wall-clock
/// time, never results — see the module docs.
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("PIOQO_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on [`free_thread_budget`] threads, returning
/// results in submission order. With one thread (or one item) the items
/// run inline on the caller's thread.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(free_thread_budget(), items, f)
}

/// [`par_map`] with an explicit thread count (used by tests and the
/// benchmark harness to pin both sides of a 1-vs-N comparison).
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        let _phase = pioqo_profiler::scope("par_inline");
        return items
            .iter()
            .map(|item| {
                let _item = pioqo_profiler::scope("item");
                f(item)
            })
            .collect();
    }

    // One shared claim counter; each worker grabs the next unclaimed index
    // and keeps `(index, result)` pairs locally so no lock sits on the
    // result path. Which worker computes which item varies run to run —
    // the index-ordered merge below keeps the output independent of that.
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    {
        let _phase = pioqo_profiler::scope("par_fanout");
        let _cores = CoreReservation::new(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (next, f) = (&next, &f);
                    scope.spawn(move || {
                        pioqo_profiler::set_thread_label(&format!("worker{w}"));
                        let mut local = Vec::new();
                        {
                            let _worker = pioqo_profiler::scope("par_worker");
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                let _item = pioqo_profiler::scope("item");
                                local.push((i, f(&items[i])));
                            }
                        }
                        pioqo_profiler::flush_thread();
                        local
                    })
                })
                .collect();
            let _join = pioqo_profiler::scope("join");
            for handle in handles {
                buckets.push(handle.join().expect("par_map worker thread panicked"));
            }
        });
    }

    // Merge in submission order.
    let _merge = pioqo_profiler::scope("par_merge");
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("par_map worker skipped a claimed item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// A little simulation-shaped job: an rng seeded from the item alone,
    /// folded with the item so the payload shows up in the result.
    fn job(item: &u64) -> u64 {
        let mut rng = SimRng::seeded(*item);
        let mut acc = *item;
        for _ in 0..16 {
            acc = acc.wrapping_add(rng.below(1 << 20));
        }
        acc
    }

    #[test]
    fn order_matches_input_and_thread_count_is_invisible() {
        let items: Vec<u64> = (0..97).collect();
        let seq = par_map_threads(1, &items, job);
        for threads in [2, 3, 4, 8, 64] {
            let par = par_map_threads(threads, &items, job);
            assert_eq!(seq, par, "threads={threads} diverged from threads=1");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(par_map_threads(4, &empty, job).is_empty());
        let one = [7u64];
        assert_eq!(par_map_threads(4, &one, job), par_map_threads(1, &one, job));
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items: Vec<u64> = (0..3).collect();
        let a = par_map_threads(16, &items, job);
        let b = par_map_threads(1, &items, job);
        assert_eq!(a, b);
    }

    #[test]
    fn nested_fanout_respects_the_free_core_budget() {
        // The outer fan-out reserves its workers; a nested par_map must see
        // a reduced budget (floored at 1) instead of thread_count().
        let items: Vec<u64> = (0..4).collect();
        let budgets = par_map_threads(4, &items, |_| free_thread_budget());
        let total = thread_count();
        for b in budgets {
            if total > 4 {
                assert!(
                    b <= total - 4,
                    "outer workers not subtracted: {b} vs {total}"
                );
            } else {
                assert_eq!(b, 1, "oversubscribed host must floor at 1");
            }
        }
        // (No post-return budget assertion: sibling tests fan out
        // concurrently under the harness, so the global count is theirs
        // to perturb. Release is covered by CoreReservation's Drop.)
    }
}
