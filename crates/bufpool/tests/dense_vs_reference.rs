//! Property test: the dense-table `BufferPool` is observationally
//! identical to the reference `BTreeMap`-backed pool.
//!
//! Both pools replay the same randomized trace of requests, admits,
//! prefetches, unpins, dirty/clean transitions, flusher lists and flushes;
//! after every operation the `Access` results, error values, resident set
//! size and the full `PoolStats` (hits, misses, evictions, refetches,
//! prefetch and dirty counters) must agree and both pools' invariants must
//! hold, and at the end the resident sets themselves are compared page by
//! page. The flusher step checks `dirty_pages` against the LRU walk
//! filtered to dirty frames, on a dirty list as unsorted as the steps since
//! the last call left it (the invariant checker sorts a copy).

use pioqo_bufpool::{Access, BufferPool, PoolError};
use proptest::prelude::*;

/// One step of a trace: an opcode and a page argument.
type Op = (u8, u64);

fn stats_eq(a: &BufferPool, b: &BufferPool) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        format!("{:?}", a.stats()),
        format!("{:?}", b.stats()),
        "stats diverged: dense={:?} reference={:?}",
        a.stats(),
        b.stats()
    );
    prop_assert_eq!(a.len(), b.len(), "resident counts diverged");
    Ok(())
}

/// Replay `ops` against a dense pool and a reference pool in lockstep.
fn replay(cap: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut dense = BufferPool::new(cap);
    let mut reference = BufferPool::new_reference(cap);
    // Pages currently holding pins (same for both pools by induction).
    let mut pinned: Vec<u64> = Vec::new();
    // Pages recently requested or prefetched, most of them still resident:
    // the targets the dirty/clean steps mostly pick from.
    let mut touched: Vec<u64> = Vec::new();

    for &(code, page) in ops {
        // Never wedge the trace: with every frame pinned, unpin first.
        let code = if pinned.len() >= cap { 7 } else { code };
        if code <= 6 {
            touched.push(page);
            if touched.len() > 2 * cap {
                touched.remove(0);
            }
        }
        let target = match touched.len() {
            n if n > 0 && page % 4 != 0 => touched[page as usize % n],
            _ => page,
        };
        match code {
            // Demand request, admit on miss, sometimes keep the pin.
            0..=5 => {
                let a = dense.request(page);
                let b = reference.request(page);
                prop_assert_eq!(a, b, "request({}) diverged", page);
                if a == Access::Miss {
                    let ra = dense.admit(page);
                    let rb = reference.admit(page);
                    prop_assert_eq!(&ra, &rb, "admit({}) diverged", page);
                    if ra.is_err() {
                        stats_eq(&dense, &reference)?;
                        continue;
                    }
                }
                if code % 2 == 0 {
                    prop_assert_eq!(dense.unpin(page), Ok(()));
                    prop_assert_eq!(reference.unpin(page), Ok(()));
                } else {
                    pinned.push(page);
                }
            }
            // Asynchronous prefetch completion (admits unpinned).
            6 => {
                let ra = dense.admit_prefetched(page);
                let rb = reference.admit_prefetched(page);
                prop_assert_eq!(ra, rb, "admit_prefetched({}) diverged", page);
            }
            // Release a tracked pin (or probe an unpinned page's error).
            7 => {
                if let Some(i) = pinned
                    .len()
                    .checked_sub(1)
                    .map(|last| (page as usize) % (last + 1))
                {
                    let p = pinned.swap_remove(i);
                    prop_assert_eq!(dense.unpin(p), Ok(()));
                    prop_assert_eq!(reference.unpin(p), Ok(()));
                } else {
                    prop_assert_eq!(dense.unpin(page), Err(PoolError::NotPinned(page)));
                    prop_assert_eq!(reference.unpin(page), Err(PoolError::NotPinned(page)));
                }
            }
            // Cold-start flush (requires no pins and no dirty pages
            // outstanding).
            8 => {
                for p in pinned.drain(..) {
                    dense.unpin(p).expect("tracked pin");
                    reference.unpin(p).expect("tracked pin");
                }
                let mut dirty = Vec::new();
                dense.dirty_pages(&mut dirty);
                for p in dirty {
                    dense.mark_clean(p).expect("dirty page is resident");
                    reference.mark_clean(p).expect("dirty page is resident");
                }
                dense.flush_all();
                reference.flush_all();
            }
            // A write dirties a page (resident or not).
            10 => {
                prop_assert_eq!(dense.mark_dirty(target), reference.mark_dirty(target));
            }
            // A writeback completes.
            11 => {
                prop_assert_eq!(dense.mark_clean(target), reference.mark_clean(target));
            }
            // The flusher lists the dirty pages and cleans the coldest few.
            12 => {
                let walked = dense.check_invariants();
                let (mut a, mut b) = (Vec::new(), Vec::new());
                dense.dirty_pages(&mut a);
                reference.dirty_pages(&mut b);
                prop_assert_eq!(&a, &walked, "dirty_pages != the LRU walk's dirty pages");
                prop_assert_eq!(&a, &b, "dirty_pages diverged");
                prop_assert_eq!(a.len(), dense.dirty_count());
                for &p in a.iter().take(1 + page as usize % 4) {
                    prop_assert_eq!(dense.mark_clean(p), Ok(()));
                    prop_assert_eq!(reference.mark_clean(p), Ok(()));
                }
            }
            // Read-only probes.
            _ => {
                prop_assert_eq!(dense.contains(page), reference.contains(page));
                let (base, len) = (page.saturating_sub(16), 64);
                prop_assert_eq!(
                    dense.resident_in_range(base, len),
                    reference.resident_in_range(base, len)
                );
            }
        }
        stats_eq(&dense, &reference)?;
        dense.check_invariants();
        reference.check_invariants();
    }

    // Final deep comparison: identical resident sets and internal
    // consistency on both backends.
    dense.check_invariants();
    reference.check_invariants();
    for &(_, page) in ops {
        prop_assert_eq!(
            dense.contains(page),
            reference.contains(page),
            "final residency of page {} diverged",
            page
        );
    }
    prop_assert_eq!(dense.resident_in_range(0, 1 << 17), dense.len() as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_pool_matches_reference_model(
        cap in 1usize..48,
        ops in prop::collection::vec((0u8..13, 0u64..4096), 0usize..600),
    ) {
        replay(cap, &ops)?;
    }

    #[test]
    fn dense_pool_matches_reference_on_wide_page_domain(
        cap in 1usize..16,
        ops in prop::collection::vec((0u8..13, 0u64..100_000), 0usize..300),
    ) {
        replay(cap, &ops)?;
    }
}
