//! Deterministic random number utilities.
//!
//! Every stochastic choice in the workspace (data generation, calibration
//! offsets, service-time jitter) flows through [`SimRng`], a seeded
//! xoshiro256** generator, so that a given seed reproduces a run
//! bit-for-bit. The generator is implemented here with no external
//! dependencies and never touches OS entropy — workspace lint rule D2
//! forbids `thread_rng`-style ambient randomness in simulation code.

use crate::U64Map;

/// A seeded RNG with helpers used across the simulation.
///
/// Internally xoshiro256** (Blackman & Vigna), seeded through SplitMix64
/// per the authors' recommendation.
///
/// Deliberately not `Clone`: a copy would replay the same draws and
/// silently correlate two decision streams. Derive an independent stream
/// with [`SimRng::derive`] (or [`SimRng::fork`]) instead:
///
/// ```compile_fail
/// use pioqo_simkit::SimRng;
/// let rng = SimRng::seeded(7);
/// let twin = rng.clone(); // no `clone` on SimRng
/// ```
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next raw 32-bit value (upper half of the 64-bit output).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Derive an independent child generator; used to give each component
    /// (table gen, calibrator, jitter) its own stream from one master seed.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seeded(s)
    }

    /// Derive stream `stream` of master seed `master_seed` without any
    /// shared mutable state.
    ///
    /// Unlike [`SimRng::fork`], which advances the parent generator, this
    /// is a pure function of `(master_seed, stream)`: stream *i* is the
    /// same generator no matter how many other streams were derived before
    /// it or on which thread. The session engine and the write path rely
    /// on this to give every session and writer its own generator, so
    /// adding one cannot shift another's stream.
    pub fn derive(master_seed: u64, stream: u64) -> SimRng {
        // Mix both inputs through SplitMix64 separately before combining so
        // that neighbouring (seed, stream) pairs land far apart; a plain
        // `seed + stream` would make stream i of seed s collide with stream
        // i-1 of seed s+1.
        let mut a = master_seed;
        let mut b = stream ^ 0xA076_1D64_78BD_642F;
        let mixed = splitmix64(&mut a) ^ splitmix64(&mut b).rotate_left(17);
        SimRng::seeded(mixed)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be > 0.
    ///
    /// A modulo with a rejection zone, so the result is exactly uniform
    /// for any bound, not just powers of two: a draw past the largest
    /// multiple of `bound` that fits in `u64` would bias the modulus and
    /// is redrawn. That zone never ends below `2^64 - bound`, so a draw at
    /// or below that value is accepted without working the zone out — one
    /// `u64` division per accepted draw instead of two.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut v = self.next_u64();
        if v <= bound.wrapping_neg() {
            return v % bound;
        }
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        while v > zone {
            v = self.next_u64();
        }
        v % bound
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    #[inline]
    pub fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 top bits → the standard dyadic-uniform construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Multiplicative jitter factor in `[1 - spread, 1 + spread]`.
    ///
    /// Device models apply this to service times to emulate measurement
    /// noise; `spread = 0` disables it.
    #[inline]
    pub fn jitter(&mut self, spread: f64) -> f64 {
        if spread <= 0.0 {
            return 1.0;
        }
        1.0 + (self.unit() * 2.0 - 1.0) * spread
    }

    /// A random permutation of `0..n` (Fisher–Yates).
    ///
    /// The calibrator uses this to produce the paper's "sequence of P
    /// non-repetitive random numbers from 0 to b" (§4.4).
    pub fn permutation(&mut self, n: usize) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n as u64).collect();
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }

    /// `count` distinct values sampled uniformly from `[0, n)`; the
    /// allocating form of [`SimRng::distinct_below_into`].
    pub fn distinct_below(&mut self, n: u64, count: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(count);
        self.distinct_below_into(n, count, &mut out);
        out
    }

    /// Append `count` distinct values sampled uniformly from `[0, n)` to
    /// `out`, in a uniformly random order.
    ///
    /// Uses Floyd's algorithm so it stays O(count) even for huge `n` — the
    /// calibrator samples 3 200 offsets out of bands holding millions of
    /// pages. The working set is a [`U64Map`], only ever probed, never
    /// iterated, so the result is a function of the seed alone (lint rule
    /// D3); the final shuffle, over the appended values only, is
    /// seed-deterministic too. When `count == n` the pick at step `j` is
    /// always `j` (every value below `j` is taken, and `j` is new), so the
    /// table is skipped and only the draws are made.
    pub fn distinct_below_into(&mut self, n: u64, count: usize, out: &mut Vec<u64>) {
        assert!(count as u64 <= n, "cannot sample {count} distinct from {n}");
        let base = out.len();
        out.reserve(count);
        if count as u64 == n {
            for j in 0..n {
                let _ = self.below(j + 1);
                out.push(j);
            }
        } else {
            // Every pick is below `n <= u64::MAX`, so none is the map's
            // empty marker.
            let mut chosen = U64Map::with_capacity(count);
            for j in (n - count as u64)..n {
                let t = self.below(j + 1);
                // Every earlier pick is below `j`, so `j` itself is always
                // new.
                let v = if chosen.insert(t, 0).is_none() {
                    t
                } else {
                    chosen.insert(j, 0);
                    j
                };
                out.push(v);
            }
        }
        // Floyd's algorithm yields a sorted-biased order; shuffle for a
        // uniformly random visit order, which the calibration I/O pattern
        // requires.
        let picked = &mut out[base..];
        for i in (1..picked.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            picked.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::seeded(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut r = SimRng::seeded(13);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn in_range_is_inclusive_and_bounded() {
        let mut r = SimRng::seeded(21);
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..2000 {
            let v = r.in_range(3, 6);
            assert!((3..=6).contains(&v));
            hit_lo |= v == 3;
            hit_hi |= v == 6;
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    fn unit_is_half_open() {
        let mut r = SimRng::seeded(17);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = SimRng::seeded(3);
        let mut p = r.permutation(257);
        p.sort_unstable();
        assert_eq!(p, (0..257).collect::<Vec<u64>>());
    }

    #[test]
    fn distinct_below_distinct_and_bounded() {
        let mut r = SimRng::seeded(9);
        let v = r.distinct_below(1_000_000_000, 3200);
        assert_eq!(v.len(), 3200);
        let set: std::collections::BTreeSet<_> = v.iter().collect();
        assert_eq!(set.len(), 3200);
        assert!(v.iter().all(|&x| x < 1_000_000_000));
    }

    #[test]
    fn distinct_below_full_range() {
        let mut r = SimRng::seeded(11);
        let mut v = r.distinct_below(16, 16);
        v.sort_unstable();
        assert_eq!(v, (0..16).collect::<Vec<u64>>());
    }

    /// `below` as it was before the fast accept: the rejection zone
    /// worked out on every call.
    fn below_reference(r: &mut SimRng, bound: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = r.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    #[test]
    fn below_matches_the_zone_on_every_call_body() {
        // Bounds where the fast accept always fires (1), where it fires
        // for under half of all draws (above 2^63, so rejections happen),
        // and the widest, plus a seeded spread of ordinary bounds.
        let mut bounds = vec![
            1,
            2,
            3,
            (1 << 63) + 1,
            (1 << 63) + (1 << 62),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut grid = SimRng::seeded(0xB0);
        for _ in 0..64 {
            let bits = 1 + grid.below(63);
            bounds.push(1 + grid.below(1 << bits));
        }
        for (case, &bound) in bounds.iter().enumerate() {
            let mut fast = SimRng::seeded(0xBE10 ^ case as u64);
            let mut reference = SimRng::seeded(0xBE10 ^ case as u64);
            for _ in 0..2000 {
                assert_eq!(
                    fast.below(bound),
                    below_reference(&mut reference, bound),
                    "bound={bound}"
                );
            }
            assert_eq!(fast.next_u64(), reference.next_u64(), "bound={bound}");
        }
    }

    /// Floyd's sampler as it was before the hashed table and the
    /// `count == n` shortcut: its working set in a `BTreeSet`, every draw
    /// through the reference `below`. The reference the sampler must
    /// reproduce draw for draw.
    fn distinct_below_btree(r: &mut SimRng, n: u64, count: usize) -> Vec<u64> {
        let mut chosen = std::collections::BTreeSet::new();
        let mut out = Vec::with_capacity(count);
        for j in (n - count as u64)..n {
            let t = below_reference(r, j + 1);
            let v = if chosen.contains(&t) { j } else { t };
            chosen.insert(v);
            out.push(v);
        }
        for i in (1..out.len()).rev() {
            let j = below_reference(r, i as u64 + 1) as usize;
            out.swap(i, j);
        }
        out
    }

    #[test]
    fn distinct_below_matches_the_ordered_set_sampler() {
        let mut cases: Vec<(u64, usize)> = vec![
            (1, 0),
            (1, 1),
            (2, 2),
            (16, 0),
            (16, 15),
            (16, 16),
            (3199, 3199),
            (3200, 3199),
            (3200, 3200),
            (1_000_000_000, 0),
            (1_000_000_000, 1),
            (1_000_000_000, 3200),
            (u64::MAX, 64),
        ];
        // A seeded grid, dense (count near n: many collisions) to sparse,
        // with every tenth case drawing the whole range.
        let mut grid = SimRng::seeded(0xD15C);
        for i in 0..200 {
            let bits = 1 + grid.below(24);
            let n = 1 + grid.below(1 << bits);
            let count = if i % 10 == 0 {
                n.min(5000) as usize
            } else {
                grid.below(n.min(5000) + 1) as usize
            };
            cases.push((n, count));
        }
        for (case, &(n, count)) in cases.iter().enumerate() {
            let seed = 0xA11CE ^ case as u64;
            let mut hashed = SimRng::seeded(seed);
            let mut ordered = SimRng::seeded(seed);
            assert_eq!(
                hashed.distinct_below(n, count),
                distinct_below_btree(&mut ordered, n, count),
                "n={n} count={count}"
            );
            // Same draws consumed: the streams stay in lockstep.
            assert_eq!(hashed.next_u64(), ordered.next_u64(), "n={n} count={count}");

            // Appending after a non-empty prefix, twice into one buffer as
            // the calibrator does per tile: the prefix is left alone and
            // each call appends exactly the reference draw.
            let mut buf = vec![u64::MAX, 7, 0];
            let mut want = buf.clone();
            for _ in 0..2 {
                hashed.distinct_below_into(n, count, &mut buf);
                want.extend(distinct_below_btree(&mut ordered, n, count));
                assert_eq!(buf, want, "n={n} count={count}");
                assert_eq!(hashed.next_u64(), ordered.next_u64(), "n={n} count={count}");
            }
        }
    }

    #[test]
    fn jitter_bounds() {
        let mut r = SimRng::seeded(5);
        for _ in 0..1000 {
            let j = r.jitter(0.1);
            assert!((0.9..=1.1).contains(&j));
        }
        assert_eq!(r.jitter(0.0), 1.0);
    }

    #[test]
    fn fork_streams_are_independent_but_deterministic() {
        let mut m1 = SimRng::seeded(99);
        let mut m2 = SimRng::seeded(99);
        let mut c1 = m1.fork(1);
        let mut c2 = m2.fork(1);
        for _ in 0..10 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn derive_is_pure_and_stream_separated() {
        // Pure: same (seed, stream) → same generator, regardless of what
        // else was derived first.
        let mut a = SimRng::derive(42, 7);
        let _ = SimRng::derive(42, 3).next_u64();
        let mut b = SimRng::derive(42, 7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Separated: neighbouring streams and seeds do not collide.
        let mut outs = std::collections::BTreeSet::new();
        for seed in 0..8u64 {
            for stream in 0..8u64 {
                outs.insert(SimRng::derive(seed, stream).next_u64());
            }
        }
        assert_eq!(outs.len(), 64);
    }

    #[test]
    fn known_xoshiro_reference_values() {
        // First outputs of xoshiro256** seeded via SplitMix64(0), as
        // produced by the reference C implementation pairing.
        let mut r = SimRng::seeded(0);
        let first = r.next_u64();
        let mut r2 = SimRng::seeded(0);
        assert_eq!(first, r2.next_u64(), "self-consistency");
        // The stream must not be trivially zero or constant.
        let second = r2.next_u64();
        assert_ne!(first, second);
        assert_ne!(first, 0);
    }
}
