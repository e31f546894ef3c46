//! A small open-addressing `u64 → u64` table.
//!
//! Some per-read state is looked up by a sparse key and never walked: the
//! device pages a context has in flight, the picks of one
//! [`SimRng::distinct_below`](crate::SimRng::distinct_below) call. Such a
//! table needs neither an ordered map nor a std hasher. Linear probing
//! under a fixed Fibonacci hash keeps a lookup to a few adjacent slots, a
//! delete shifts the entries behind it back (no tombstones), and since the
//! table is only probed, never iterated, its slot order cannot reach a
//! result (lint rule D3). Memory follows the most entries held at once.

/// A map from `u64` keys to `u64` values, at most half full.
///
/// `u64::MAX` marks an empty slot, so it is not a key: inserting it
/// panics, and looking it up or removing it finds nothing.
#[derive(Debug, Default)]
pub struct U64Map {
    /// `(key, value)` pairs; a power-of-two count, or none before the
    /// first insert.
    slots: Vec<(u64, u64)>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash keeps the top bits. Read only
    /// once there are slots.
    shift: u32,
}

impl U64Map {
    const EMPTY: u64 = u64::MAX;
    const MIN_SLOTS: usize = 8;

    /// An empty table; it allocates on the first insert.
    pub fn new() -> U64Map {
        U64Map::default()
    }

    /// An empty table that holds `n` entries without growing.
    pub fn with_capacity(n: usize) -> U64Map {
        let mut map = U64Map::new();
        if n > 0 {
            map.rehash(Self::slots_for(n));
        }
        map
    }

    /// Slots for `n` entries at most half full.
    fn slots_for(n: usize) -> usize {
        n.saturating_mul(2).next_power_of_two().max(Self::MIN_SLOTS)
    }

    /// The slot `key` hashes to.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `key`, or the empty slot that ends its probe run.
    /// The table must have slots.
    #[inline]
    fn find(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.slots[i].0;
            if k == key || k == Self::EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Move every entry into `slots` fresh slots.
    fn rehash(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![(Self::EMPTY, 0); slots]);
        self.shift = 64 - slots.trailing_zeros();
        for (k, v) in old.into_iter().filter(|&(k, _)| k != Self::EMPTY) {
            let i = self.find(k);
            self.slots[i] = (k, v);
        }
    }

    /// The value under `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        if self.len == 0 || key == Self::EMPTY {
            return None;
        }
        let (k, v) = self.slots[self.find(key)];
        (k == key).then_some(v)
    }

    /// Store `value` under `key`; returns the value it replaced.
    ///
    /// # Panics
    /// Panics if `key` is `u64::MAX`.
    #[inline]
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        assert!(key != Self::EMPTY, "u64::MAX marks an empty slot");
        if (self.len + 1) * 2 > self.slots.len() {
            self.rehash(Self::slots_for(self.len + 1));
        }
        let i = self.find(key);
        let slot = &mut self.slots[i];
        if slot.0 == key {
            return Some(std::mem::replace(&mut slot.1, value));
        }
        *slot = (key, value);
        self.len += 1;
        None
    }

    /// Remove `key`; returns its value.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        if self.len == 0 || key == Self::EMPTY {
            return None;
        }
        let mut hole = self.find(key);
        let (k, value) = self.slots[hole];
        if k != key {
            return None;
        }
        // Backward shift: walk the run behind the hole and pull back every
        // entry whose probe path (home ..= j) passes through the hole.
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.slots[j].0;
            if k == Self::EMPTY {
                break;
            }
            if j.wrapping_sub(self.home(k)) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = (Self::EMPTY, 0);
        self.len -= 1;
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Keys that all hash to slot `home` of a table with `slots` slots.
    fn colliding(slots: usize, home: usize, n: usize) -> Vec<u64> {
        let map = U64Map::with_capacity(slots / 2);
        assert_eq!(map.slots.len(), slots);
        (0..u64::MAX)
            .filter(|&k| map.home(k) == home)
            .take(n)
            .collect()
    }

    #[test]
    fn an_empty_table_finds_nothing_and_allocates_nothing() {
        let mut m = U64Map::new();
        assert!(m.slots.is_empty());
        assert_eq!(m.get(3), None);
        assert_eq!(m.remove(3), None);
        assert_eq!(m.get(u64::MAX), None);
        assert_eq!(m.insert(3, 30), None);
        assert_eq!(m.slots.len(), U64Map::MIN_SLOTS);
        assert_eq!(m.insert(3, 31), Some(30), "a re-insert replaces");
        assert_eq!((m.get(3), m.len), (Some(31), 1));
        assert_eq!(m.get(u64::MAX), None, "the empty marker is no key");
        assert_eq!(m.remove(u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "empty slot")]
    fn the_empty_marker_cannot_be_inserted() {
        U64Map::new().insert(u64::MAX, 1);
    }

    #[test]
    fn a_delete_that_wraps_past_the_end_pulls_the_run_back() {
        // Four keys homed on the last slot of eight: they occupy 7, 0, 1, 2.
        let keys = colliding(8, 7, 4);
        let mut m = U64Map::with_capacity(4);
        for (v, &k) in keys.iter().enumerate() {
            m.insert(k, v as u64);
        }
        let at = |m: &U64Map| m.slots.iter().map(|s| s.0).collect::<Vec<_>>();
        assert_eq!(at(&m)[7], keys[0]);
        assert_eq!(&at(&m)[..3], &keys[1..]);
        // Deleting the entry in slot 7 shifts the wrapped run back by one.
        assert_eq!(m.remove(keys[0]), Some(0));
        assert_eq!(at(&m)[7], keys[1]);
        assert_eq!(&at(&m)[..2], &keys[2..]);
        assert_eq!(at(&m)[2], u64::MAX);
        for (v, &k) in keys.iter().enumerate().skip(1) {
            assert_eq!(m.get(k), Some(v as u64));
        }
        // Re-inserting after the delete lands at the end of the run.
        assert_eq!(m.insert(keys[0], 9), None);
        assert_eq!(at(&m)[2], keys[0]);
        assert_eq!(m.len, 4);
    }

    #[test]
    fn an_entry_at_its_home_stays_when_an_earlier_run_shrinks() {
        // Slot 6 holds a key homed at 6, slot 7 one homed at 7: deleting
        // the first must not pull the second off its home.
        let a = colliding(8, 6, 1)[0];
        let b = colliding(8, 7, 1)[0];
        let mut m = U64Map::with_capacity(4);
        m.insert(a, 1);
        m.insert(b, 2);
        assert_eq!(m.remove(a), Some(1));
        assert_eq!(m.slots[7].0, b);
        assert_eq!(m.get(b), Some(2));
    }

    #[test]
    fn growth_keeps_every_entry_and_the_table_half_full() {
        let mut m = U64Map::new();
        for k in 0..1000u64 {
            m.insert(k * 4096, k);
            assert!(m.len * 2 <= m.slots.len());
        }
        assert_eq!(m.slots.len(), 2048);
        assert!((0..1000u64).all(|k| m.get(k * 4096) == Some(k)));
        let sized = U64Map::with_capacity(1000);
        assert_eq!(sized.slots.len(), 2048, "sized up front, no growth");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Inserts, re-inserts, deletes and lookups over a small key space
        /// (so keys collide and runs wrap) agree with a `BTreeMap` model
        /// after every operation, through growth.
        #[test]
        fn table_matches_an_ordered_map(
            seed in proptest::prelude::any::<u64>(),
            ops in 1usize..600,
            keys in 1u64..200,
        ) {
            let mut rng = crate::SimRng::seeded(seed);
            let mut map = U64Map::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            // Half the draws come from a pool of keys that collide.
            let pool = colliding(64, rng.below(64) as usize, 8);
            for step in 0..ops as u64 {
                let key = if rng.below(2) == 0 {
                    pool[rng.below(8) as usize]
                } else {
                    rng.below(keys) * 3
                };
                match rng.below(3) {
                    0 => proptest::prop_assert_eq!(map.insert(key, step), model.insert(key, step)),
                    1 => proptest::prop_assert_eq!(map.remove(key), model.remove(&key)),
                    _ => proptest::prop_assert_eq!(map.get(key), model.get(&key).copied()),
                }
                proptest::prop_assert_eq!(map.len, model.len());
                proptest::prop_assert!(map.len * 2 <= map.slots.len());
            }
            for (&k, &v) in &model {
                proptest::prop_assert_eq!(map.get(k), Some(v));
            }
            for &k in &pool {
                proptest::prop_assert_eq!(map.get(k), model.get(&k).copied());
            }
        }
    }
}
