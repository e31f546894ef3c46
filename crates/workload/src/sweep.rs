//! Selectivity sweeps and break-even search (Fig. 4, Table 2).

use crate::experiments::{Experiment, MethodSpec};
use serde::{Deserialize, Serialize};

/// One point of a runtime curve.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Predicate selectivity (fraction).
    pub selectivity: f64,
    /// Query runtime in seconds (virtual time).
    pub runtime_s: f64,
    /// Observed mean device queue depth.
    pub mean_qd: f64,
    /// Observed read throughput, MB/s.
    pub throughput_mb_s: f64,
}

/// Run `method` across `selectivities` on cold device+pool per point.
///
/// Points are independent cold runs (each builds its own device and pool
/// and seeds itself from the experiment config), so they fan out across
/// the harness thread pool; results come back in selectivity order and
/// are identical at any thread count.
pub fn runtime_curve(
    exp: &Experiment,
    method: MethodSpec,
    selectivities: &[f64],
) -> Vec<SweepPoint> {
    pioqo_simkit::par::par_map(selectivities, |&sel| {
        let m = exp
            .run_cold(method, sel)
            .expect("sweep experiment scan completes without pool exhaustion");
        SweepPoint {
            selectivity: sel,
            runtime_s: m.runtime.as_secs_f64(),
            mean_qd: m.io.mean_queue_depth,
            throughput_mb_s: m.io.throughput_mb_s,
        }
    })
}

/// The selectivity at which the runtime curves of `index_method` and
/// `table_method` cross — the paper's *break-even point*. Bisection on the
/// sign of `t_index − t_table` within `[lo, hi]`; assumes the index method
/// wins at `lo` and loses at `hi` (returns a bound if not).
pub fn break_even(
    exp: &Experiment,
    index_method: MethodSpec,
    table_method: MethodSpec,
    lo: f64,
    hi: f64,
    iterations: u32,
) -> f64 {
    // The bisection itself is inherently sequential, but the two cold
    // runs compared at each probe are independent — run them as a pair on
    // the harness pool.
    let faster = |sel: f64| {
        let methods = [index_method, table_method];
        let times = pioqo_simkit::par::par_map(&methods, |&m| {
            exp.run_cold(m, sel)
                .expect("sweep break-even scan completes without pool exhaustion")
                .runtime
        });
        times[0] < times[1]
    };
    let mut lo = lo;
    let mut hi = hi;
    if !faster(lo) {
        return lo; // index never wins in this range
    }
    if faster(hi) {
        return hi; // index always wins in this range
    }
    for _ in 0..iterations {
        let mid = (lo * hi).sqrt().max((lo + hi) / 4.0); // geometric-ish mid
        if faster(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo * hi).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentConfig;

    fn small_exp(name: &str) -> Experiment {
        Experiment::build(
            ExperimentConfig::by_name(name)
                .expect("exists")
                .scaled_down(200),
        )
    }

    #[test]
    fn curves_are_monotone_enough_for_is() {
        // IS runtime grows with selectivity (more rows, more I/O).
        let exp = small_exp("E33-SSD");
        let pts = runtime_curve(
            &exp,
            MethodSpec::Is {
                workers: 1,
                prefetch: 0,
            },
            &[0.001, 0.01, 0.1],
        );
        assert!(pts[0].runtime_s < pts[2].runtime_s);
    }

    #[test]
    fn fts_runtime_flat_across_selectivity() {
        let exp = small_exp("E33-SSD");
        let pts = runtime_curve(&exp, MethodSpec::Fts { workers: 1 }, &[0.001, 0.5]);
        let ratio = pts[1].runtime_s / pts[0].runtime_s;
        assert!((0.8..=1.3).contains(&ratio), "FTS should not care: {ratio}");
    }

    #[test]
    fn break_even_found_between_extremes() {
        let exp = small_exp("E33-SSD");
        let be = break_even(
            &exp,
            MethodSpec::Is {
                workers: 1,
                prefetch: 0,
            },
            MethodSpec::Fts { workers: 1 },
            1e-5,
            0.9,
            12,
        );
        assert!(be > 1e-5 && be < 0.9, "break-even inside the bracket: {be}");
        // IS wins below, FTS wins above.
        let below = exp
            .run_cold(
                MethodSpec::Is {
                    workers: 1,
                    prefetch: 0,
                },
                be / 4.0,
            )
            .expect("runs")
            .runtime;
        let below_fts = exp
            .run_cold(MethodSpec::Fts { workers: 1 }, be / 4.0)
            .expect("runs")
            .runtime;
        assert!(below < below_fts);
    }
}
