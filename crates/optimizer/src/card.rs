//! Cardinality estimation: expected page fetches for an index scan.
//!
//! Two classic results the paper leans on (§2 cites Yue & Wong's analytical
//! formula; SQL Anywhere's IS cost model must also account for the small
//! buffer pool that makes pages "retrieved over and over again"):
//!
//! * **Yao's formula** (1977): the expected number of *distinct* pages
//!   touched when k records are selected uniformly without replacement from
//!   a table of m pages × n/m records each.
//! * **Mackert–Lohman** (1989): the expected number of page *fetches* when
//!   k accesses go through an LRU buffer of b frames — beyond the buffer
//!   size, re-references start missing and total fetches can exceed the
//!   table size.

use std::collections::BTreeMap;

/// Yao's formula: expected distinct pages touched selecting `k` of `n`
/// records uniformly at random (without replacement) from `m` pages.
///
/// Exact: `m · (1 − C(n−n/m, k) / C(n, k))`, evaluated stably in log space.
/// Edge cases: `k = 0 → 0`, `k ≥ n − n/m → m` (every page must be hit).
pub fn yao_pages(m: u64, n: u64, k: u64) -> f64 {
    if m == 0 || n == 0 || k == 0 {
        return 0.0;
    }
    let m_f = m as f64;
    if k >= n || m == 1 {
        return m_f;
    }
    let per_page = n as f64 / m_f;
    let n_f = n as f64;
    let k_f = k as f64;

    // P(one specific page untouched) = C(n - n/m, k) / C(n, k).
    // For large k the O(k) product would dominate plan costing, so switch
    // to the closed form via ln-gamma: lnΓ(a+1) − lnΓ(a−k+1) − lnΓ(n+1) +
    // lnΓ(n−k+1), with a = n − n/m (fractional a is fine).
    let log_p = if k > EXACT_K_LIMIT {
        let a = n_f - per_page;
        if a - k_f + 1.0 <= 0.0 {
            return m_f;
        }
        ln_gamma(a + 1.0) - ln_gamma(a - k_f + 1.0) - ln_gamma(n_f + 1.0)
            + ln_gamma(n_f - k_f + 1.0)
    } else {
        // Exact log-space running product with early exit once the
        // probability is ~0.
        let mut log_p = 0.0f64;
        for i in 0..k {
            let numer = n_f - per_page - i as f64;
            if numer <= 0.0 {
                return m_f;
            }
            log_p += (numer / (n_f - i as f64)).ln();
            if log_p < -45.0 {
                return m_f;
            }
        }
        log_p
    };
    if log_p < -45.0 {
        // e^-45 ~ 3e-20: all pages touched, to machine precision.
        return m_f;
    }
    m_f * (1.0 - log_p.exp())
}

/// Largest `k` for which [`yao_pages`] runs its exact O(k) product.
const EXACT_K_LIMIT: u64 = 4096;

/// [`yao_pages`] remembered per distinct `(m, n, k)`, for a caller that
/// re-costs the same few queries many times (the admission planner: one
/// table, a finite selectivity cycle). Only the exact O(k) branch is
/// remembered — the closed form above [`EXACT_K_LIMIT`] is already O(1) —
/// so the memo holds at most that many entries per table. The value is a
/// pure function of the key: nothing that moves between admissions (pool
/// residency, the queue-depth lease) enters it.
#[derive(Debug, Default)]
pub struct YaoMemo {
    exact: BTreeMap<(u64, u64, u64), f64>,
}

impl YaoMemo {
    /// `yao_pages(m, n, k)`, bit for bit.
    pub fn pages(&mut self, m: u64, n: u64, k: u64) -> f64 {
        if k > EXACT_K_LIMIT {
            return yao_pages(m, n, k);
        }
        *self
            .exact
            .entry((m, n, k))
            .or_insert_with(|| yao_pages(m, n, k))
    }
}

/// Natural log of the gamma function for positive arguments (Lanczos
/// approximation, g = 7, ~1e-13 relative accuracy — far below the noise
/// floor of any cardinality estimate).
fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0);
    // The canonical published Lanczos(g=7) coefficients; kept verbatim even
    // though the trailing digits exceed f64 precision.
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_59,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Mackert–Lohman: expected page *fetches* for `k` uniformly random
/// accesses to a table of `t` pages through an LRU buffer of `b` frames
/// (the formula behind PostgreSQL's `index_pages_fetched`).
///
/// * If the table fits in the buffer, fetches are capped at `t` (each page
///   read at most once).
/// * Otherwise fetches follow `2·t·k / (2·t + k)` until the buffer
///   saturates at `k_lim = 2·t·b / (2·t − b)`, after which every further
///   access misses with probability `(t − b)/t`.
pub fn mackert_lohman_fetches(t: u64, k: u64, b: u64) -> f64 {
    if t == 0 || k == 0 {
        return 0.0;
    }
    let t_f = t as f64;
    let k_f = k as f64;
    let b_f = (b.max(1)) as f64;
    if t_f <= b_f {
        (2.0 * t_f * k_f / (2.0 * t_f + k_f)).min(t_f)
    } else {
        let lim = 2.0 * t_f * b_f / (2.0 * t_f - b_f);
        if k_f <= lim {
            2.0 * t_f * k_f / (2.0 * t_f + k_f)
        } else {
            b_f + (k_f - lim) * (t_f - b_f) / t_f
        }
    }
}

/// Index leaf pages touched for `k` qualifying entries with `leaf_fanout`
/// entries per leaf (at least one leaf whenever `k > 0`).
pub fn leaf_pages_touched(k: u64, leaf_fanout: u32) -> u64 {
    if k == 0 {
        0
    } else {
        k.div_ceil(leaf_fanout as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yao_edges() {
        assert_eq!(yao_pages(100, 3300, 0), 0.0);
        assert_eq!(yao_pages(100, 3300, 3300), 100.0);
        assert_eq!(yao_pages(0, 0, 5), 0.0);
        assert_eq!(yao_pages(1, 33, 10), 1.0);
    }

    #[test]
    fn yao_single_record_touches_one_page() {
        let p = yao_pages(1000, 33_000, 1);
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn yao_monotone_in_k_and_bounded() {
        let mut prev = 0.0;
        for k in [1u64, 10, 100, 1000, 10_000, 33_000] {
            let p = yao_pages(1000, 33_000, k);
            assert!(p >= prev - 1e-9, "monotone violated at k={k}");
            assert!(p <= 1000.0 + 1e-9);
            assert!(p <= k as f64 + 1e-9 || k > 1000);
            prev = p;
        }
    }

    #[test]
    fn yao_many_rows_per_page_saturates_fast() {
        // 500 rows/page: selecting 1% of rows touches nearly every page.
        let m = 1000u64;
        let n = 500_000u64;
        let p = yao_pages(m, n, 5000);
        assert!(p > 0.99 * m as f64, "expected saturation, got {p}");
        // 1 row/page: selecting 1% touches exactly 1% of pages (the
        // closed-form ln-gamma path carries ~0.05 page of cancellation
        // error at this scale — noise for a cost model).
        let p1 = yao_pages(n, n, 5000);
        assert!((p1 - 5000.0).abs() < 1.0, "{p1}");
    }

    #[test]
    fn yao_matches_monte_carlo() {
        // m=50 pages, 10 rows per page, k=25.
        let (m, n, k) = (50u64, 500u64, 25u64);
        let expected = yao_pages(m, n, k);
        let mut rng = pioqo_simkit::SimRng::seeded(42);
        let trials = 4000;
        let mut total = 0usize;
        for _ in 0..trials {
            let rows = rng.distinct_below(n, k as usize);
            let pages: std::collections::BTreeSet<u64> = rows.iter().map(|r| r / 10).collect();
            total += pages.len();
        }
        let mc = total as f64 / trials as f64;
        assert!(
            (mc - expected).abs() < 0.3,
            "Yao {expected} vs Monte Carlo {mc}"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // lnΓ(n+1) = ln(n!)
        let mut ln_fact = 0.0f64;
        for n in 1..=20u32 {
            ln_fact += (n as f64).ln();
            let lg = super::ln_gamma(n as f64 + 1.0);
            assert!(
                (lg - ln_fact).abs() < 1e-10 * ln_fact.max(1.0),
                "n={n}: {lg} vs {ln_fact}"
            );
        }
        // Γ(0.5) = sqrt(pi)
        let half = super::ln_gamma(0.5);
        assert!((half - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn yao_gamma_path_continuous_with_exact_path() {
        // Values straddling the exact/closed-form switch must agree.
        let (m, n) = (250_000u64, 8_250_000u64);
        let below = yao_pages(m, n, 4096);
        let above = yao_pages(m, n, 4097);
        assert!(
            (above - below) / below < 1e-3 && above >= below,
            "discontinuity at the switch: {below} vs {above}"
        );
        // And the closed form stays monotone/bounded across a wide sweep.
        let mut prev = 0.0;
        for k in [5_000u64, 50_000, 500_000, 5_000_000] {
            let p = yao_pages(m, n, k);
            assert!(p >= prev && p <= m as f64 + 1e-6);
            prev = p;
        }
    }

    #[test]
    fn ml_table_fits_in_buffer_caps_at_table() {
        let f = mackert_lohman_fetches(100, 1_000_000, 1000);
        assert!(f <= 100.0 + 1e-9);
    }

    #[test]
    fn ml_exceeds_table_when_buffer_small() {
        // §2: "the total number of pages fetched using IS can be potentially
        // even more than the number of pages fetched using FTS."
        let t = 10_000u64;
        let b = 100u64;
        let k = 1_000_000u64;
        let f = mackert_lohman_fetches(t, k, b);
        assert!(f > t as f64, "small buffer must refetch: {f}");
    }

    #[test]
    fn ml_monotone_in_k_and_decreasing_in_b() {
        let t = 10_000;
        let mut prev = 0.0;
        for k in [1u64, 100, 10_000, 100_000, 1_000_000] {
            let f = mackert_lohman_fetches(t, k, 500);
            assert!(f >= prev);
            prev = f;
        }
        let small = mackert_lohman_fetches(t, 100_000, 100);
        let big = mackert_lohman_fetches(t, 100_000, 5000);
        assert!(big < small, "bigger buffer fewer fetches: {big} vs {small}");
    }

    #[test]
    fn ml_few_accesses_roughly_one_fetch_each() {
        let f = mackert_lohman_fetches(1_000_000, 10, 100);
        assert!((f - 10.0).abs() < 0.1);
    }

    #[test]
    fn leaf_pages() {
        assert_eq!(leaf_pages_touched(0, 338), 0);
        assert_eq!(leaf_pages_touched(1, 338), 1);
        assert_eq!(leaf_pages_touched(338, 338), 1);
        assert_eq!(leaf_pages_touched(339, 338), 2);
    }
}
