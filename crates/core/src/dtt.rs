//! The classic disk transfer time (DTT) model (§4.1).
//!
//! `DTT(band)` is the amortized cost, in microseconds, of reading one page
//! at a uniformly random offset within a *band* of `band` consecutive pages.
//! A band of 1 is sequential I/O. The model is a piecewise-linear function
//! through calibrated `(band, cost)` knots — SQL Anywhere interpolates
//! linearly between calibration points, and so do we.

use serde::{Deserialize, Serialize};

/// A calibrated DTT model. Knots are strictly increasing in band size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dtt {
    band_sizes: Vec<u64>,
    cost_us: Vec<f64>,
}

impl Dtt {
    /// Build from `(band_size, cost_us)` knots (sorted internally).
    ///
    /// # Panics
    /// Panics on an empty knot set, duplicate band sizes, or non-finite /
    /// negative costs — a calibration that produced those is broken.
    pub fn new(mut points: Vec<(u64, f64)>) -> Dtt {
        assert!(!points.is_empty(), "DTT needs at least one knot");
        points.sort_unstable_by_key(|&(b, _)| b);
        for w in points.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate band size {}", w[0].0);
        }
        for &(b, c) in &points {
            assert!(b >= 1, "band size must be >= 1");
            assert!(c.is_finite() && c >= 0.0, "bad cost {c} at band {b}");
        }
        Dtt {
            band_sizes: points.iter().map(|&(b, _)| b).collect(),
            cost_us: points.iter().map(|&(_, c)| c).collect(),
        }
    }

    /// Amortized cost (µs) of one random page read within a band of
    /// `band` pages. Linear interpolation between knots; clamped to the
    /// first/last knot outside the calibrated range.
    pub fn cost(&self, band: u64) -> f64 {
        interp_band(&self.band_sizes, &self.cost_us, band)
    }

    /// The calibrated band sizes (ascending).
    pub fn band_sizes(&self) -> &[u64] {
        &self.band_sizes
    }

    /// The knots as `(band, cost)` pairs.
    pub fn points(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.band_sizes
            .iter()
            .copied()
            .zip(self.cost_us.iter().copied())
    }
}

/// Where `x` sits among strictly ascending `knots`, answered as
/// `binary_search` answers: `Ok(i)` on knot `i`, else `Err(i)` with `i`
/// the number of knots below `x`.
///
/// It counts the knots below `x` rather than bisecting, so no branch
/// depends on the data: the optimizer prices each candidate at a
/// different band (FTS at band 1, IS and sorted IS at the table and index
/// extents), and a bisection would take a different path every time.
#[inline]
pub(crate) fn knot_search<T: Copy + Ord>(knots: &[T], x: T) -> Result<usize, usize> {
    let below: usize = knots.iter().map(|&k| usize::from(k < x)).sum();
    if knots.get(below) == Some(&x) {
        Ok(below)
    } else {
        Err(below)
    }
}

/// Shared linear interpolation over an ascending knot vector; clamps
/// outside the range. Also used for the QDTT's band axis.
pub(crate) fn interp_band(xs: &[u64], ys: &[f64], x: u64) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    match knot_search(xs, x) {
        Ok(i) => ys[i],
        Err(0) => ys[0],
        Err(i) if i == xs.len() => ys[xs.len() - 1],
        Err(i) => {
            let (x0, x1) = (xs[i - 1] as f64, xs[i] as f64);
            let t = (x as f64 - x0) / (x1 - x0);
            ys[i - 1] + t * (ys[i] - ys[i - 1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dtt {
        Dtt::new(vec![(1, 40.0), (1024, 100.0), (1 << 20, 9000.0)])
    }

    #[test]
    fn exact_on_knots() {
        let d = sample();
        assert_eq!(d.cost(1), 40.0);
        assert_eq!(d.cost(1024), 100.0);
        assert_eq!(d.cost(1 << 20), 9000.0);
    }

    #[test]
    fn linear_between_knots() {
        let d = sample();
        // Halfway between band 1 and 1024 in *band value*.
        let mid = d.cost(512);
        let expected = 40.0 + (512.0 - 1.0) / 1023.0 * 60.0;
        assert!((mid - expected).abs() < 1e-9);
    }

    #[test]
    fn clamps_outside_range() {
        let d = Dtt::new(vec![(4, 50.0), (64, 80.0)]);
        assert_eq!(d.cost(1), 50.0);
        assert_eq!(d.cost(1 << 30), 80.0);
    }

    #[test]
    fn monotone_inputs_stay_bounded() {
        let d = sample();
        for band in [1u64, 3, 17, 999, 5000, 1 << 19] {
            let c = d.cost(band);
            assert!((40.0..=9000.0).contains(&c), "band {band} -> {c}");
        }
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let d = Dtt::new(vec![(1024, 100.0), (1, 40.0)]);
        assert_eq!(d.band_sizes(), &[1, 1024]);
        assert_eq!(d.cost(1), 40.0);
    }

    #[test]
    #[should_panic(expected = "duplicate band size")]
    fn rejects_duplicates() {
        Dtt::new(vec![(8, 1.0), (8, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one knot")]
    fn rejects_empty() {
        Dtt::new(vec![]);
    }

    /// `knot_search` against `binary_search` at every knot, one either
    /// side of it, and below and above the range.
    fn check_knot_search<T: Copy + Ord + std::fmt::Debug>(
        knots: &[T],
        probes: impl IntoIterator<Item = T>,
    ) {
        for x in probes {
            assert_eq!(
                knot_search(knots, x),
                knots.binary_search(&x),
                "x={x:?} knots={knots:?}"
            );
        }
    }

    /// `n` strictly ascending knots in `[0, top]`: the first at 0 or a
    /// little above, gaps of 1 to `gap`, the last now and then at `top`.
    fn ascending(rng: &mut pioqo_simkit::SimRng, n: usize, gap: u64, top: u64) -> Vec<u64> {
        let mut k = if rng.below(4) == 0 {
            0
        } else {
            rng.below(1 << 20)
        };
        let mut knots = Vec::with_capacity(n);
        for _ in 0..n {
            knots.push(k);
            k += 1 + rng.below(gap);
        }
        if rng.below(6) == 0 {
            *knots.last_mut().expect("n >= 1") = top;
        }
        knots
    }

    /// 0, 1, `top - 1`, `top`, and every knot with its two neighbours.
    fn around(knots: &[u64], top: u64) -> Vec<u64> {
        let mut p = vec![0, 1, top - 1, top];
        for &k in knots {
            p.extend(
                [k.checked_sub(1), Some(k), k.checked_add(1)]
                    .into_iter()
                    .flatten(),
            );
        }
        p.retain(|&x| x <= top);
        p
    }

    #[test]
    fn knot_search_answers_as_binary_search() {
        let mut rng = pioqo_simkit::SimRng::seeded(0x4B07);
        for n in 1..=20usize {
            for round in 0..40 {
                // Dense (gaps of 1 and 2: neighbours are knots too) to
                // sparse.
                let gap = [2u64, 3, 1 << 10, 1 << 20][round % 4];
                let wide = ascending(&mut rng, n, gap << (round % 3 * 19), u64::MAX);
                check_knot_search(&wide, around(&wide, u64::MAX));
                let top = u32::MAX as u64;
                let narrow = ascending(&mut rng, n, gap, top);
                let as_u32 = |xs: Vec<u64>| xs.into_iter().map(|x| x as u32).collect::<Vec<_>>();
                check_knot_search(&as_u32(narrow.clone()), as_u32(around(&narrow, top)));
            }
        }
        // The calibrated queue-depth axis, and no knots at all.
        check_knot_search(&[1u32, 2, 4, 8, 16, 32], 0..=40);
        check_knot_search::<u64>(&[], [0, 7, u64::MAX]);
    }

    #[test]
    fn single_knot_is_constant() {
        let d = Dtt::new(vec![(16, 75.0)]);
        assert_eq!(d.cost(1), 75.0);
        assert_eq!(d.cost(1 << 24), 75.0);
    }
}
