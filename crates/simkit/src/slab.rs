//! A table keyed by ids handed out in increasing order.
//!
//! Request and handle ids in the simulator are issued by counters and
//! retired roughly in issue order, so a map from id to state needs no
//! ordered set: a deque of slots indexed by `id - base` does it in O(1).
//! [`IdSlab::insert`] hands out the next id itself, so the table and the
//! counter can never disagree.

use std::collections::VecDeque;

/// Slots for ids `base .. base + slots.len()`, `None` where retired.
///
/// Memory is bounded by the span from the oldest live id to the newest:
/// removing the front entry pops every leading hole, and a drained table
/// re-bases at the next id it will issue.
#[derive(Debug)]
pub struct IdSlab<T> {
    slots: VecDeque<Option<T>>,
    base: u64,
    live: usize,
}

impl<T> Default for IdSlab<T> {
    fn default() -> Self {
        IdSlab::new()
    }
}

impl<T> IdSlab<T> {
    /// An empty table whose first id is 0.
    pub fn new() -> IdSlab<T> {
        IdSlab {
            slots: VecDeque::new(),
            base: 0,
            live: 0,
        }
    }

    /// The id the next [`IdSlab::insert`] returns.
    #[inline]
    pub fn next_id(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Store `value` under the next id and return that id.
    #[inline]
    pub fn insert(&mut self, value: T) -> u64 {
        let id = self.next_id();
        self.slots.push_back(Some(value));
        self.live += 1;
        id
    }

    /// Deque index of `id`; callers bounds-check it with `get`.
    #[inline]
    fn slot(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    /// The entry under `id`, if live.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.slot(id)?)?.as_ref()
    }

    /// The entry under `id`, mutably, if live.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = self.slot(id)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Retire `id` and return its entry, if it was live.
    #[inline]
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.slot(id)?;
        let value = self.slots.get_mut(i)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// Live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entry is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn empty_table_has_nothing_and_issues_zero() {
        let mut s: IdSlab<u32> = IdSlab::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.get(0), None);
        assert_eq!(s.get_mut(7), None);
        assert_eq!(s.remove(0), None);
        assert_eq!(s.next_id(), 0);
        assert_eq!(s.insert(5), 0);
    }

    #[test]
    fn a_hole_at_the_front_is_popped_with_it() {
        let mut s = IdSlab::new();
        let ids: Vec<u64> = (0..4).map(|v| s.insert(v * 10)).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        // Retire 1 first: a hole behind a live front keeps its slot.
        assert_eq!(s.remove(1), Some(10));
        assert_eq!(s.remove(1), None, "a retired id stays retired");
        assert_eq!((s.len(), s.slots.len(), s.base), (3, 4, 0));
        // Retiring the front pops it and the hole behind it.
        assert_eq!(s.remove(0), Some(0));
        assert_eq!((s.len(), s.slots.len(), s.base), (2, 2, 2));
        assert_eq!(s.get(0), None, "below the base");
        assert_eq!(s.get(2), Some(&20));
        assert_eq!(s.next_id(), 4);
    }

    #[test]
    fn a_long_lived_oldest_entry_holds_the_span_open() {
        let mut s = IdSlab::new();
        let oldest = s.insert("old");
        for i in 0..1000u64 {
            let id = s.insert("young");
            assert_eq!(id, i + 1);
            assert_eq!(s.remove(id), Some("young"));
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.slots.len(), 1001, "every younger slot is a hole");
        assert_eq!(s.get(oldest), Some(&"old"));
        assert_eq!(s.remove(oldest), Some("old"));
        assert!(s.is_empty());
        assert!(s.slots.is_empty(), "the holes go with the oldest entry");
    }

    #[test]
    fn a_drained_table_rebases_at_the_next_id() {
        let mut s = IdSlab::new();
        for v in 0..3 {
            s.insert(v);
        }
        for id in [2, 0, 1] {
            assert!(s.remove(id).is_some());
        }
        assert!(s.is_empty());
        assert_eq!((s.base, s.next_id()), (3, 3));
        assert_eq!(s.insert(9), 3, "ids keep counting after a drain");
        *s.get_mut(3).expect("just inserted") += 1;
        assert_eq!(s.get(3), Some(&10));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Monotone inserts and arbitrary removes: every accessor agrees
        /// with a `BTreeMap` model after every operation.
        #[test]
        fn slab_matches_an_ordered_map(
            seed in proptest::prelude::any::<u64>(),
            ops in 1usize..400,
        ) {
            let mut rng = crate::SimRng::seeded(seed);
            let mut slab = IdSlab::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut next = 0u64;
            for step in 0..ops as u64 {
                match rng.below(4) {
                    // Insert half the time, so the table grows and drains.
                    0 | 1 => {
                        proptest::prop_assert_eq!(slab.insert(step), next);
                        model.insert(next, step);
                        next += 1;
                    }
                    // Remove any id ever issued (or one past), live or not.
                    2 => {
                        let id = rng.below(next + 1);
                        proptest::prop_assert_eq!(slab.remove(id), model.remove(&id));
                    }
                    // Mutate one.
                    _ => {
                        let id = rng.below(next + 1);
                        if let Some(v) = slab.get_mut(id) {
                            *v += 1_000_000;
                        }
                        if let Some(v) = model.get_mut(&id) {
                            *v += 1_000_000;
                        }
                    }
                }
                proptest::prop_assert_eq!(slab.len(), model.len());
                proptest::prop_assert_eq!(slab.is_empty(), model.is_empty());
                proptest::prop_assert_eq!(slab.next_id(), next);
                for id in 0..=next {
                    proptest::prop_assert_eq!(slab.get(id), model.get(&id));
                }
                // Slots span exactly the oldest live id to the newest issued.
                let span = model.keys().next().map_or(0, |&lo| (next - lo) as usize);
                proptest::prop_assert_eq!(slab.slots.len(), span);
            }
        }
    }
}
