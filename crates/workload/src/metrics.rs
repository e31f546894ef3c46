//! Metrics capture harness: run experiment cells with the always-on
//! metrics registry enabled and export one merged, deterministic bundle.
//!
//! The shape mirrors [`crate::trace`]: a *cell* is one workload point,
//! every cell runs on its own simulated device, buffer pool and registry
//! (in parallel via `par_map_threads`), and the per-cell snapshots merge
//! in cell order under cell-label prefixes. Because the registry is
//! integer-only and keyed off the virtual clock, all four exports —
//! Prometheus text exposition, time-series CSV, summary JSON, and the
//! SLO verdict JSON — are byte-identical across runs and across any
//! worker-thread count (enforced by `tests/determinism.rs` and CI).
//!
//! Two cell kinds cover the instrumented subsystems end to end: a
//! single-query scan (engine/pool/device series, I/O histograms) and a
//! multi-session closed-loop workload under QDTT admission with shared
//! scans and the write system running (admission gauges, `ScanHub`
//! attach counters, WAL group-commit and flush-lag metrics).

use crate::concurrent::{run_cell as run_session_cell, ConcurrencyConfig};
use crate::experiments::{Experiment, ExperimentConfig, MethodSpec};
use crate::interference::write_side;
use crate::opteval::calibrate;
use crate::trace::TraceError;
use pioqo_exec::{execute, WorkloadSpec, WriteConfig};
use pioqo_obs::{
    evaluate_slos, slo_report_json, MetricsRegistry, MetricsSnapshot, SloCheck, SloSpec, SloVerdict,
};
use pioqo_optimizer::OptimizerConfig;
use pioqo_simkit::par::par_map_threads;
use pioqo_simkit::SimDuration;

/// What one metrics cell executes.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// One cold query Q: `method` at `selectivity`.
    Scan {
        /// Access method to execute.
        method: MethodSpec,
        /// Predicate selectivity.
        selectivity: f64,
    },
    /// A closed-loop multi-session workload under QDTT admission.
    Sessions {
        /// Concurrent sessions.
        sessions: u32,
        /// Enable the shared-scan cursor.
        shared: bool,
        /// Run the write system (WAL + flusher) alongside the scans.
        writes: bool,
    },
}

/// One point of a metrics capture.
#[derive(Debug, Clone)]
pub struct MetricsCell {
    /// Table 1 row name, e.g. `"E33-SSD"` (case-insensitive).
    pub experiment: String,
    /// Row-count divisor applied to the Table 1 config (1 = full scale).
    pub scale_down: u64,
    /// Master seed for the cell's dataset and device.
    pub seed: u64,
    /// The workload to run.
    pub kind: CellKind,
}

impl MetricsCell {
    /// The label whose sanitized form prefixes this cell's metric names.
    pub fn label(&self) -> String {
        match &self.kind {
            CellKind::Scan {
                method,
                selectivity,
            } => format!("{}/{}@{}", self.experiment, method, selectivity),
            CellKind::Sessions {
                sessions,
                shared,
                writes,
            } => format!(
                "{}/SES{}{}{}",
                self.experiment,
                sessions,
                if *shared { "-shared" } else { "" },
                if *writes { "-writes" } else { "" }
            ),
        }
    }
}

/// The default capture scenario: the §2 queue-depth cell (PIS n = 8), an
/// FTS contrast cell, and an 8-session shared-scan cell with the write
/// system running, all on scaled-down Table 1 rows.
pub fn default_metrics_cells(seed: u64) -> Vec<MetricsCell> {
    vec![
        MetricsCell {
            experiment: "E33-SSD".to_string(),
            scale_down: 256,
            seed,
            kind: CellKind::Scan {
                method: MethodSpec::Is {
                    workers: 8,
                    prefetch: 0,
                },
                selectivity: 0.01,
            },
        },
        MetricsCell {
            experiment: "E33-SSD".to_string(),
            scale_down: 256,
            seed,
            kind: CellKind::Scan {
                method: MethodSpec::Fts { workers: 1 },
                selectivity: 0.01,
            },
        },
        MetricsCell {
            experiment: "E33-SSD".to_string(),
            scale_down: 256,
            seed,
            kind: CellKind::Sessions {
                sessions: 8,
                shared: true,
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

fn run_cell(cell: &MetricsCell, cadence: SimDuration) -> Result<MetricsSnapshot, TraceError> {
    let mut cfg = ExperimentConfig::by_name(&cell.experiment)
        .ok_or_else(|| TraceError::UnknownExperiment(cell.experiment.clone()))?
        .scaled_down(cell.scale_down);
    cfg.seed = cell.seed;
    let exp = Experiment::build(cfg);
    let mut registry = MetricsRegistry::enabled(cadence);
    let (mut device, mut pool) = (exp.make_device(), exp.make_pool());
    let mut ctx = Experiment::context(&mut *device, &mut pool);
    ctx.set_metrics(&mut registry);
    match &cell.kind {
        CellKind::Scan {
            method,
            selectivity,
        } => {
            execute(&mut ctx, &exp.query(*method, *selectivity))?;
            ctx.fold_metrics();
        }
        // QDTT admission over a model calibrated on the cell's own
        // fixture; the write table and WAL live in the dataset's slack
        // pages, as in `crate::interference`.
        CellKind::Sessions {
            sessions,
            shared,
            writes,
        } => {
            let seed = exp.cfg.seed;
            let spec = WorkloadSpec {
                shared_scans: *shared,
                ..ConcurrencyConfig {
                    seed,
                    ..ConcurrencyConfig::default()
                }
                .workload(*sessions)
            };
            let mut ws = writes
                .then(|| write_side(&exp, 2_000, seed ^ 0x57AB).system(WriteConfig::default()));
            let (model, opt_cfg) = (calibrate(&exp).qdtt, OptimizerConfig::default());
            run_session_cell(&exp, &model, &opt_cfg, spec, ws.as_mut(), &mut ctx)?;
        }
    }
    drop(ctx);
    Ok(registry.snapshot(&cell.label()))
}

/// Run every cell (its own device, pool and registry) and merge the
/// snapshots in cell order. `threads` bounds the worker pool; the output
/// is byte-identical for any value, including 1.
pub fn capture_metrics(
    cells: &[MetricsCell],
    cadence: SimDuration,
    slos: &[SloSpec],
    threads: usize,
) -> Result<MetricsBundle, TraceError> {
    let results = par_map_threads(threads, 0x4D45, cells, |_rng, cell| run_cell(cell, cadence));
    let mut snapshot = MetricsSnapshot::default();
    for r in results {
        snapshot.merge(&r?);
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

/// [`default_metrics_cells`] shrunk for tests and smoke runs.
pub fn small_metrics_cells(seed: u64) -> Vec<MetricsCell> {
    let mut cells = default_metrics_cells(seed);
    for c in &mut cells {
        c.scale_down = 1024;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioqo_simkit::SimTime;

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
        let _t = SimTime::ZERO; // keep the import honest under cfg(test)
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

    #[test]
    fn unknown_experiment_is_reported() {
        let cells = vec![MetricsCell {
            experiment: "E7-TAPE".to_string(),
            scale_down: 1,
            seed: 0,
            kind: CellKind::Scan {
                method: MethodSpec::Fts { workers: 1 },
                selectivity: 0.5,
            },
        }];
        match capture_metrics(&cells, SimDuration::from_millis(1), &[], 1) {
            Err(TraceError::UnknownExperiment(name)) => assert_eq!(name, "E7-TAPE"),
            other => panic!("expected UnknownExperiment, got {other:?}"),
        }
    }
}
