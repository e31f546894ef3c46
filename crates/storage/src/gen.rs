//! Deterministic column data generation.
//!
//! The paper inserts uniformly distributed random integers into every
//! column (§3.1). We generate `C1` and `C2` from a seeded RNG so a given
//! [`TableSpec`] always produces identical data — a requirement for
//! reproducible experiments and for checking scan results against a naive
//! evaluator.

use crate::spec::TableSpec;
use pioqo_simkit::SimRng;

/// In-memory column data for a table.
///
/// The experiments never ship padding bytes around: the simulator charges
/// I/O time per *page* while the logical values live in these compact
/// columns (see DESIGN.md §1). Physical page bytes are produced on demand
/// by the page codec when a test or the real-file path needs them.
#[derive(Debug, Clone)]
pub struct ColumnData {
    c1: Vec<u32>,
    c2: Vec<u32>,
}

impl ColumnData {
    /// Generate data for `spec` (uniform `C1`, uniform `C2 ∈ [0, c2_max]`).
    pub fn generate(spec: &TableSpec) -> ColumnData {
        let mut master = SimRng::seeded(spec.seed);
        let mut r1 = master.fork(0xC1);
        let mut r2 = master.fork(0xC2);
        let n = spec.rows as usize;
        let mut c1 = Vec::with_capacity(n);
        let mut c2 = Vec::with_capacity(n);
        for _ in 0..n {
            c1.push(r1.in_range(0, u32::MAX as u64) as u32);
            c2.push(r2.in_range(0, spec.c2_max as u64) as u32);
        }
        ColumnData { c1, c2 }
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.c1.len() as u64
    }

    /// `C1` value of `row`.
    #[inline]
    pub fn c1(&self, row: u64) -> u32 {
        self.c1[row as usize]
    }

    /// `C2` value of `row`.
    #[inline]
    pub fn c2(&self, row: u64) -> u32 {
        self.c2[row as usize]
    }

    /// The `C1` and `C2` values of the rows in `rows`, as two parallel
    /// slices — what a page-at-a-time evaluator reads instead of calling
    /// [`ColumnData::c1`] / [`ColumnData::c2`] once per row.
    #[inline]
    pub fn cols(&self, rows: std::ops::Range<u64>) -> (&[u32], &[u32]) {
        let rows = rows.start as usize..rows.end as usize;
        (&self.c1[rows.clone()], &self.c2[rows])
    }

    /// All `(C2, row)` pairs — input to the index bulk loader.
    pub fn c2_entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.c2.iter().enumerate().map(|(i, &k)| (k, i as u64))
    }

    /// Naive evaluation of the paper's query
    /// `SELECT MAX(C1) FROM T WHERE C2 BETWEEN low AND high` — the oracle
    /// all scan operators are validated against.
    pub fn naive_max_c1(&self, low: u32, high: u32) -> Option<u32> {
        self.c2
            .iter()
            .zip(&self.c1)
            .filter(|&(&c2, _)| c2 >= low && c2 <= high)
            .map(|(_, &c1)| c1)
            .max()
    }

    /// Number of rows matching `C2 BETWEEN low AND high`.
    pub fn count_matching(&self, low: u32, high: u32) -> u64 {
        self.c2.iter().filter(|&&v| v >= low && v <= high).count() as u64
    }
}

/// The `[low, high]` predicate range centred in the `C2` domain whose
/// expected selectivity is `sel` (fraction in `[0, 1]`).
pub fn range_for_selectivity(sel: f64, c2_max: u32) -> (u32, u32) {
    let domain = c2_max as f64 + 1.0;
    let width = (sel.clamp(0.0, 1.0) * domain).round();
    if width <= 0.0 {
        // Empty range: high < low selects nothing.
        return (1, 0);
    }
    let width = width as u64;
    let low = ((domain as u64 - width) / 2) as u32;
    let high = (low as u64 + width - 1).min(c2_max as u64) as u32;
    (low, high)
}

/// Exact expected selectivity of `C2 BETWEEN low AND high` over a uniform
/// domain `[0, c2_max]`.
pub fn selectivity_of_range(low: u32, high: u32, c2_max: u32) -> f64 {
    if high < low {
        return 0.0;
    }
    (high as f64 - low as f64 + 1.0) / (c2_max as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rows: u64) -> TableSpec {
        TableSpec::paper_table(33, rows, 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ColumnData::generate(&spec(1000));
        let b = ColumnData::generate(&spec(1000));
        for r in 0..1000 {
            assert_eq!(a.c1(r), b.c1(r));
            assert_eq!(a.c2(r), b.c2(r));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut s2 = spec(1000);
        s2.seed = 43;
        let a = ColumnData::generate(&spec(1000));
        let b = ColumnData::generate(&s2);
        let same = (0..1000).filter(|&r| a.c2(r) == b.c2(r)).count();
        assert!(same < 10);
    }

    #[test]
    fn selectivity_ranges_hit_target() {
        let data = ColumnData::generate(&spec(200_000));
        for target in [0.001, 0.01, 0.1, 0.5] {
            let (lo, hi) = range_for_selectivity(target, u32::MAX - 1);
            let got = data.count_matching(lo, hi) as f64 / 200_000.0;
            assert!(
                (got - target).abs() < target * 0.2 + 0.001,
                "target {target}, got {got}"
            );
            let exact = selectivity_of_range(lo, hi, u32::MAX - 1);
            assert!((exact - target).abs() < 0.001);
        }
    }

    #[test]
    fn zero_and_full_selectivity() {
        let (lo, hi) = range_for_selectivity(0.0, 1000);
        assert!(hi < lo);
        assert_eq!(selectivity_of_range(lo, hi, 1000), 0.0);
        let (lo, hi) = range_for_selectivity(1.0, 1000);
        assert_eq!((lo, hi), (0, 1000));
        assert!((selectivity_of_range(lo, hi, 1000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn naive_oracle_matches_manual_filter() {
        let data = ColumnData::generate(&spec(5000));
        let (lo, hi) = range_for_selectivity(0.05, u32::MAX - 1);
        let expected = (0..5000u64)
            .filter(|&r| data.c2(r) >= lo && data.c2(r) <= hi)
            .map(|r| data.c1(r))
            .max();
        assert_eq!(data.naive_max_c1(lo, hi), expected);
        assert_eq!(data.naive_max_c1(5, 4), None);
    }

    #[test]
    fn cols_are_the_per_row_accessors_side_by_side() {
        let data = ColumnData::generate(&spec(100));
        let (c1s, c2s) = data.cols(33..66);
        assert_eq!(c1s.len(), 33);
        for (i, r) in (33..66u64).enumerate() {
            assert_eq!((c1s[i], c2s[i]), (data.c1(r), data.c2(r)));
        }
        assert_eq!(data.cols(100..100), (&[][..], &[][..]));
    }

    #[test]
    fn c2_entries_cover_all_rows() {
        let data = ColumnData::generate(&spec(777));
        let v: Vec<_> = data.c2_entries().collect();
        assert_eq!(v.len(), 777);
        assert!(v.iter().enumerate().all(|(i, &(_, r))| r == i as u64));
    }
}
