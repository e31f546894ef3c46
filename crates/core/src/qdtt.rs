//! The queue-depth-aware disk transfer time (QDTT) model (§4.2, §4.5).
//!
//! `QDTT(band, qd)` is the amortized cost, in microseconds, of one random
//! page read within a band of `band` pages while the device's I/O queue
//! depth is held at `qd`. The model is a grid of calibrated knots —
//! exponentially spaced band sizes × queue depths {1, 2, 4, 8, 16, 32} —
//! with **bilinear interpolation**: linear on the band size first, then on
//! the queue depth, exactly as §4.5 prescribes.
//!
//! `QDTT(·, 1)` *is* the DTT model, which is why the paper calls QDTT a
//! generalization of DTT (§4.2): [`Qdtt::to_dtt`] extracts it.

use crate::dtt::{interp_band, knot_search, Dtt};
use serde::{Deserialize, Serialize};

/// A calibrated QDTT model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Qdtt {
    band_sizes: Vec<u64>,
    queue_depths: Vec<u32>,
    /// Row-major: `grid[qd_idx * n_bands + band_idx]`.
    grid: Vec<f64>,
}

impl Qdtt {
    /// Build from ascending band sizes, ascending queue depths, and a
    /// row-major cost grid (`queue_depths.len() × band_sizes.len()`).
    ///
    /// # Panics
    /// Panics on empty axes, unsorted/duplicate knots, a grid of the wrong
    /// size, or non-finite/negative costs.
    pub fn new(band_sizes: Vec<u64>, queue_depths: Vec<u32>, grid: Vec<f64>) -> Qdtt {
        assert!(!band_sizes.is_empty() && !queue_depths.is_empty());
        assert!(
            band_sizes.windows(2).all(|w| w[0] < w[1]),
            "band sizes must be strictly ascending"
        );
        assert!(
            queue_depths.windows(2).all(|w| w[0] < w[1]),
            "queue depths must be strictly ascending"
        );
        assert!(queue_depths[0] >= 1, "queue depth starts at 1");
        assert_eq!(grid.len(), band_sizes.len() * queue_depths.len());
        assert!(
            grid.iter().all(|c| c.is_finite() && *c >= 0.0),
            "grid costs must be finite and non-negative"
        );
        Qdtt {
            band_sizes,
            queue_depths,
            grid,
        }
    }

    /// Amortized cost (µs) of one random page read: bilinear interpolation,
    /// band axis first, then queue depth; both axes clamp outside their
    /// calibrated range.
    pub fn cost(&self, band: u64, qd: u32) -> f64 {
        let nb = self.band_sizes.len();
        // Interpolate along the band axis within each bracketing qd row.
        let row_cost = |qi: usize| {
            let row = &self.grid[qi * nb..(qi + 1) * nb];
            interp_band(&self.band_sizes, row, band)
        };
        match knot_search(&self.queue_depths, qd) {
            Ok(qi) => row_cost(qi),
            Err(0) => row_cost(0),
            Err(i) if i == self.queue_depths.len() => row_cost(self.queue_depths.len() - 1),
            Err(i) => {
                let (q0, q1) = (self.queue_depths[i - 1] as f64, self.queue_depths[i] as f64);
                let t = (qd as f64 - q0) / (q1 - q0);
                let y0 = row_cost(i - 1);
                y0 + t * (row_cost(i) - y0)
            }
        }
    }

    /// The calibrated band sizes (ascending).
    pub fn band_sizes(&self) -> &[u64] {
        &self.band_sizes
    }

    /// The calibrated queue depths (ascending).
    pub fn queue_depths(&self) -> &[u32] {
        &self.queue_depths
    }

    /// The knot cost at exact grid indices (test/report helper).
    pub fn knot(&self, band_idx: usize, qd_idx: usize) -> f64 {
        self.grid[qd_idx * self.band_sizes.len() + band_idx]
    }

    /// Fix the queue depth, yielding a band-only [`Dtt`] curve.
    pub fn at_qd(&self, qd: u32) -> Dtt {
        let points = self
            .band_sizes
            .iter()
            .map(|&b| (b, self.cost(b, qd)))
            .collect();
        Dtt::new(points)
    }

    /// The DTT this model generalizes: its queue-depth-1 slice (§4.2).
    pub fn to_dtt(&self) -> Dtt {
        self.at_qd(1)
    }

    /// Nearest-knot lookup — the naive alternative to bilinear
    /// interpolation, kept for the DESIGN.md §8 interpolation ablation
    /// (Fig. 12 compares both against dense measurement).
    pub fn cost_nearest(&self, band: u64, qd: u32) -> f64 {
        let bi = nearest_idx_u64(&self.band_sizes, band);
        let qi = nearest_idx_u32(&self.queue_depths, qd);
        self.grid[qi * self.band_sizes.len() + bi]
    }

    /// The largest calibrated queue depth (what a single-query optimizer
    /// passes for a maximally parallel plan, §4.3).
    pub fn max_queue_depth(&self) -> u32 {
        *self
            .queue_depths
            .last()
            .expect("QDTT always has at least one calibrated queue depth")
    }

    /// The smallest calibrated queue depth whose cost at `band` is within
    /// `tolerance` (fractional, e.g. 0.05) of the best achievable — the
    /// "maximum beneficial queue depth" of §4.4, useful for budgeting
    /// queue depth across concurrent queries (future-work extension).
    pub fn beneficial_queue_depth(&self, band: u64, tolerance: f64) -> u32 {
        let best = self
            .queue_depths
            .iter()
            .map(|&q| self.cost(band, q))
            .fold(f64::INFINITY, f64::min);
        for &q in &self.queue_depths {
            if self.cost(band, q) <= best * (1.0 + tolerance) {
                return q;
            }
        }
        self.max_queue_depth()
    }
}

fn nearest_idx_u64(xs: &[u64], x: u64) -> usize {
    match xs.binary_search(&x) {
        Ok(i) => i,
        Err(0) => 0,
        Err(i) if i == xs.len() => xs.len() - 1,
        Err(i) => {
            if x - xs[i - 1] <= xs[i] - x {
                i - 1
            } else {
                i
            }
        }
    }
}

fn nearest_idx_u32(xs: &[u32], x: u32) -> usize {
    match xs.binary_search(&x) {
        Ok(i) => i,
        Err(0) => 0,
        Err(i) if i == xs.len() => xs.len() - 1,
        Err(i) => {
            if x - xs[i - 1] <= xs[i] - x {
                i - 1
            } else {
                i
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plausible SSD-shaped model: cost falls with qd, rises with band.
    fn sample() -> Qdtt {
        let bands = vec![1u64, 1024, 1 << 20];
        let qds = vec![1u32, 2, 4, 8, 16, 32];
        let mut grid = Vec::new();
        for (qi, &q) in qds.iter().enumerate() {
            let _ = qi;
            for (bi, _) in bands.iter().enumerate() {
                let base = 80.0 + 20.0 * bi as f64;
                grid.push(base / (q as f64).sqrt());
            }
        }
        Qdtt::new(bands, qds, grid)
    }

    #[test]
    fn exact_on_knots() {
        let m = sample();
        assert!((m.cost(1, 1) - 80.0).abs() < 1e-9);
        assert!((m.cost(1024, 4) - 50.0).abs() < 1e-9);
        assert!((m.cost(1 << 20, 32) - 120.0 / 32f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn bilinear_between_knots() {
        let m = sample();
        // qd 3 is between rows 2 and 4; band on a knot.
        let c2 = m.cost(1024, 2);
        let c4 = m.cost(1024, 4);
        let c3 = m.cost(1024, 3);
        assert!((c3 - (c2 + c4) / 2.0).abs() < 1e-9);
        // Band between knots at a knot qd.
        let cb = m.cost(512, 8);
        let c1 = m.cost(1, 8);
        let ck = m.cost(1024, 8);
        assert!(cb >= ck.min(c1) && cb <= ck.max(c1));
    }

    #[test]
    fn clamps_on_both_axes() {
        let m = sample();
        assert_eq!(m.cost(1, 0), m.cost(1, 1));
        assert_eq!(m.cost(1, 64), m.cost(1, 32));
        assert_eq!(m.cost(1 << 30, 8), m.cost(1 << 20, 8));
    }

    #[test]
    fn qd1_slice_is_a_dtt() {
        let m = sample();
        let d = m.to_dtt();
        for &b in m.band_sizes() {
            assert!((d.cost(b) - m.cost(b, 1)).abs() < 1e-9);
        }
        // Interpolated points agree too (same linear band interpolation).
        assert!((d.cost(512) - m.cost(512, 1)).abs() < 1e-9);
    }

    #[test]
    fn deeper_queue_never_costs_more_in_sample() {
        let m = sample();
        for &b in m.band_sizes() {
            for w in m.queue_depths().windows(2) {
                assert!(m.cost(b, w[1]) <= m.cost(b, w[0]) + 1e-9);
            }
        }
    }

    #[test]
    fn beneficial_queue_depth_finds_knee() {
        let m = sample();
        // Costs fall like 1/sqrt(q): within 5% of best only at q=32.
        assert_eq!(m.beneficial_queue_depth(1024, 0.05), 32);
        // With a huge tolerance, qd 1 suffices.
        assert_eq!(m.beneficial_queue_depth(1024, 100.0), 1);
    }

    #[test]
    fn nearest_knot_exact_on_knots_and_snaps_between() {
        let m = sample();
        for (bi, &b) in m.band_sizes().to_vec().iter().enumerate() {
            for (qi, &q) in m.queue_depths().to_vec().iter().enumerate() {
                assert_eq!(m.cost_nearest(b, q), m.knot(bi, qi));
            }
        }
        // qd 3 snaps to knot 2 or 4; either way it equals a knot value.
        let v = m.cost_nearest(1024, 3);
        assert!(v == m.cost(1024, 2) || v == m.cost(1024, 4));
        // Clamping beyond the grid.
        assert_eq!(m.cost_nearest(1 << 30, 64), m.cost(1 << 20, 32));
    }

    #[test]
    fn hdd_like_flat_model() {
        // An HDD: queue depth barely matters.
        let bands = vec![1u64, 4096];
        let qds = vec![1u32, 2, 4];
        let grid = vec![40.0, 8000.0, 39.0, 7800.0, 39.0, 7700.0];
        let m = Qdtt::new(bands, qds, grid);
        assert_eq!(m.beneficial_queue_depth(4096, 0.05), 1);
    }

    /// The band-axis interpolation as it was before `knot_search`.
    fn interp_band_reference(xs: &[u64], ys: &[f64], x: u64) -> f64 {
        match xs.binary_search(&x) {
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

    /// The queue-depth-axis interpolation as it was before `knot_search`.
    fn interp_qd_reference(xs: &[u32], ys: &[f64], x: u32) -> f64 {
        match xs.binary_search(&x) {
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

    /// `Qdtt::cost` as it was before `knot_search`.
    fn cost_reference(m: &Qdtt, band: u64, qd: u32) -> f64 {
        let nb = m.band_sizes.len();
        let row_cost = |qi: usize| {
            let row = &m.grid[qi * nb..(qi + 1) * nb];
            interp_band_reference(&m.band_sizes, row, band)
        };
        match m.queue_depths.binary_search(&qd) {
            Ok(qi) => row_cost(qi),
            Err(0) => row_cost(0),
            Err(i) if i == m.queue_depths.len() => row_cost(m.queue_depths.len() - 1),
            Err(i) => interp_qd_reference(
                &[m.queue_depths[i - 1], m.queue_depths[i]],
                &[row_cost(i - 1), row_cost(i)],
                qd,
            ),
        }
    }

    #[test]
    fn cost_matches_the_binary_search_interpolation_bit_for_bit() {
        let mut rng = pioqo_simkit::SimRng::seeded(0xC057);
        let surfaces = [
            (
                (0..25).map(|e| 1u64 << e).collect::<Vec<_>>(),
                vec![1u32, 2, 4, 8, 16, 32],
            ),
            (vec![1, 3, 1000, 1001, 1 << 30], vec![1, 5, 6, 64]),
            (vec![7], vec![2]),
        ];
        for (bands, qds) in surfaces {
            let grid = (0..bands.len() * qds.len())
                .map(|_| 10.0 + rng.unit() * 9000.0)
                .collect();
            let m = Qdtt::new(bands.clone(), qds.clone(), grid);
            let dtt = m.to_dtt();
            let ys: Vec<f64> = dtt.points().map(|(_, c)| c).collect();
            let mut probe_bands = vec![0, u64::MAX >> 11];
            for &b in &bands {
                probe_bands.extend([b - 1, b, b + 1, b + b / 3, b * 2 - 1]);
            }
            probe_bands.extend((0..200).map(|_| rng.below(1 << 31)));
            let mut probe_qds: Vec<u32> = (0..=70).collect();
            probe_qds.push(u32::MAX);
            for &band in &probe_bands {
                for &qd in &probe_qds {
                    assert_eq!(
                        m.cost(band, qd).to_bits(),
                        cost_reference(&m, band, qd).to_bits(),
                        "band={band} qd={qd}"
                    );
                }
                assert_eq!(
                    dtt.cost(band).to_bits(),
                    interp_band_reference(&bands, &ys, band).to_bits(),
                    "band={band}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_bands() {
        Qdtt::new(vec![10, 5], vec![1], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn rejects_wrong_grid_size() {
        Qdtt::new(vec![1, 2], vec![1, 2], vec![1.0, 2.0, 3.0]);
    }
}
