//! The metrics bundle: every cell metered through
//! [`mod@crate::capture`], each on its own registry, and the snapshots
//! merged in cell order under cell-label prefixes. Because the registry
//! is integer-only and keyed off the virtual clock, all five exports —
//! Prometheus text exposition, time-series CSV, summary JSON, SLO verdict
//! JSON and Chrome counter tracks — are byte-identical across runs and
//! across any worker-thread count (enforced by `tests/determinism.rs` and
//! CI).
//!
//! The default cells cover the instrumented subsystems end to end: two
//! single-query scans (engine/pool/device series, I/O histograms) and a
//! multi-session closed-loop workload under QDTT admission with shared
//! scans and the write system running (admission gauges, `ScanHub`
//! attach counters, WAL group-commit and flush-lag metrics).

use crate::capture::{capture, table1, CaptureCell, CaptureError, CellKind};
use crate::concurrent::ConcurrencyConfig;
use crate::experiments::MethodSpec;
use pioqo_exec::WorkloadSpec;
use pioqo_obs::{evaluate_slos, slo_report_json, MetricsSnapshot, SloCheck, SloSpec, SloVerdict};
use pioqo_optimizer::OptimizerConfig;
use pioqo_simkit::SimDuration;

/// The default capture scenario: the §2 queue-depth cell (PIS n = 8), an
/// FTS contrast cell, and an 8-session shared-scan cell with the write
/// system running, all on scaled-down Table 1 rows.
pub fn default_metrics_cells(seed: u64) -> Vec<CaptureCell> {
    let ssd = table1("E33-SSD", 256, seed);
    let is8 = MethodSpec::Is {
        workers: 8,
        prefetch: 0,
    };
    let spec = WorkloadSpec {
        shared_scans: true,
        ..ConcurrencyConfig {
            seed,
            ..ConcurrencyConfig::default()
        }
        .workload(8)
    };
    vec![
        CaptureCell::scan(ssd.clone(), is8, 0.01),
        CaptureCell::scan(ssd.clone(), MethodSpec::Fts { workers: 1 }, 0.01),
        CaptureCell {
            fixture: ssd,
            kind: CellKind::Sessions {
                spec: Box::new(spec),
                optimizer: OptimizerConfig::default(),
                writes: true,
            },
        },
    ]
}

/// The default SLO roster over [`default_metrics_cells`]: generous enough
/// to pass on the committed fixture, tight enough that a subsystem going
/// quiet (absent metric) or an order-of-magnitude regression fails.
pub fn default_slos() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "pis8_io_p99_us".to_string(),
            check: SloCheck::HistP99AtMost {
                hist: "e33_ssd_pis8_0_01_io_latency_us".to_string(),
                limit: 20_000,
            },
        },
        SloSpec {
            name: "shared_cursor_attaches".to_string(),
            check: SloCheck::CounterAtLeast {
                counter: "e33_ssd_ses8_shared_writes_shared_attach_total".to_string(),
                limit: 1,
            },
        },
        SloSpec {
            name: "wal_flush_lag_drains".to_string(),
            check: SloCheck::SeriesLastAtMost {
                series: "e33_ssd_ses8_shared_writes_wal_flush_lag_lsn".to_string(),
                limit: 64,
            },
        },
        SloSpec {
            name: "fts_pool_miss_permille".to_string(),
            check: SloCheck::RatioPermilleAtMost {
                num: "e33_ssd_fts_0_01_pool_misses_total".to_string(),
                den: "e33_ssd_fts_0_01_io_pages_read_total".to_string(),
                limit: 1_000,
            },
        },
    ]
}

/// A finished capture: four deterministic text documents ready to write
/// to `metrics.prom`, `series.csv`, `metrics.json` and `slo.json`.
#[derive(Debug, Clone)]
pub struct MetricsBundle {
    /// Prometheus text exposition of every counter/gauge/histogram.
    pub prometheus: String,
    /// All sim-time series as `series,t_us,value` rows.
    pub series_csv: String,
    /// Summary JSON (counters, gauges, histogram digests, series digests).
    pub summary_json: String,
    /// SLO verdicts as machine-readable JSON.
    pub slo_json: String,
    /// Every series as Chrome counter tracks (Perfetto-loadable, same
    /// schema `pioqo-lint trace-check` validates).
    pub counters_json: String,
    /// The merged snapshot the documents were rendered from.
    pub snapshot: MetricsSnapshot,
    /// The evaluated verdicts (also rendered into `slo_json`).
    pub verdicts: Vec<SloVerdict>,
}

impl MetricsBundle {
    /// True when every SLO passed.
    pub fn slo_pass(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }
}

/// Meter every cell (its own device, pool and registry sampling on
/// `cadence`), merge the snapshots in cell order and evaluate `slos`
/// against the merge. `threads` bounds the worker pool; the output is
/// byte-identical for any value, including 1.
pub fn capture_metrics(
    cells: &[CaptureCell],
    cadence: SimDuration,
    slos: &[SloSpec],
    threads: usize,
) -> Result<MetricsBundle, CaptureError> {
    let mut snapshot = MetricsSnapshot::default();
    for o in capture(cells, None, Some(cadence), threads)? {
        snapshot.merge(&o.snapshot.expect("every cell ran metered"));
    }
    let verdicts = evaluate_slos(&snapshot, slos);
    Ok(MetricsBundle {
        prometheus: snapshot.to_prometheus(),
        series_csv: snapshot.series_csv(),
        summary_json: snapshot.summary_json(),
        slo_json: slo_report_json(&verdicts),
        counters_json: snapshot.chrome_counters_json(),
        snapshot,
        verdicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`default_metrics_cells`] shrunk for tests.
    fn small_metrics_cells(seed: u64) -> Vec<CaptureCell> {
        let cells = default_metrics_cells(seed);
        cells.into_iter().map(|c| c.scaled_down(4)).collect()
    }

    #[test]
    fn capture_is_thread_count_invariant_and_repeatable() {
        let cells = small_metrics_cells(7);
        let cadence = SimDuration::from_millis(1);
        let slos = default_slos();
        let a = capture_metrics(&cells, cadence, &slos, 1).expect("threads=1");
        let b = capture_metrics(&cells, cadence, &slos, 4).expect("threads=4");
        let c = capture_metrics(&cells, cadence, &slos, 1).expect("second run");
        assert_eq!(a.prometheus, b.prometheus, "prometheus differs by threads");
        assert_eq!(a.series_csv, b.series_csv, "series csv differs by threads");
        assert_eq!(a.summary_json, b.summary_json, "summary differs by threads");
        assert_eq!(a.slo_json, b.slo_json, "slo differs by threads");
        assert_eq!(a.prometheus, c.prometheus, "prometheus differs across runs");
        assert_eq!(a.series_csv, c.series_csv, "series csv differs across runs");
    }

    #[test]
    fn default_cells_exercise_every_subsystem() {
        let cells = small_metrics_cells(7);
        let bundle = capture_metrics(&cells, SimDuration::from_millis(1), &[], 2).expect("runs");
        let s = &bundle.snapshot;
        // Engine + device + pool from the scan cells.
        assert!(s
            .counters
            .contains_key("e33_ssd_pis8_0_01_io_pages_read_total"));
        assert!(s
            .series
            .contains_key("e33_ssd_pis8_0_01_engine_queue_depth"));
        assert!(s.hists.contains_key("e33_ssd_pis8_0_01_io_latency_us"));
        // Shared scans, admission and WAL from the sessions cell.
        let ses = "e33_ssd_ses8_shared_writes";
        assert!(s.counters[&format!("{ses}_shared_attach_total")] >= 1);
        assert!(s.counters[&format!("{ses}_admission_total")] >= 1);
        assert!(s
            .hists
            .contains_key(&format!("{ses}_wal_group_commit_records")));
        assert!(s.series.contains_key(&format!("{ses}_wal_flush_lag_lsn")));
        assert!(s
            .series
            .contains_key(&format!("{ses}_admission_active_leases")));
        // The PIS n=8 cell should show the §2 plateau in its depth series.
        let depth = &s.series["e33_ssd_pis8_0_01_engine_queue_depth"];
        assert!(depth.max_value() >= 4, "depth series: {:?}", depth.points);
        // Exports are well formed.
        assert!(bundle.prometheus.contains("# TYPE"));
        assert!(bundle.series_csv.starts_with("series,t_us,value"));
    }

    #[test]
    fn default_slos_pass_on_the_default_cells() {
        let cells = small_metrics_cells(7);
        let slos = default_slos();
        let bundle = capture_metrics(&cells, SimDuration::from_millis(1), &slos, 2).expect("runs");
        for v in &bundle.verdicts {
            assert!(
                v.pass,
                "SLO {} failed: found={} observed={} limit={}",
                v.name, v.found, v.observed, v.limit
            );
        }
        assert!(bundle.slo_pass());
        assert!(bundle.slo_json.contains("\"pass\": true"));
    }
}
