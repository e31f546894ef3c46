//! Trace capture harness: run experiment cells with tracing enabled and
//! export one merged, deterministic observability bundle.
//!
//! A *cell* is one (Table 1 experiment, access method, selectivity) point.
//! [`capture_trace`] executes every cell — in parallel via
//! `pioqo_simkit::par_map_threads`, each cell on its own simulated device
//! and buffer pool with its own event ring — then merges the per-cell
//! results in cell order into:
//!
//! * a Chrome trace-event JSON document (Perfetto-loadable), with track
//!   names prefixed by the cell label so the cells render side by side;
//! * the combined histogram CSV (`hist,bucket_lo,bucket_hi,count`);
//! * a summary JSON with per-cell and workload-total counters.
//!
//! Everything is keyed off the virtual clock and per-cell seeds, and the
//! merge order is the submission order of the cells, so all three exports
//! are byte-identical across runs and across any worker-thread count.

use crate::experiments::{Experiment, ExperimentConfig, MethodSpec};
use pioqo_bufpool::PoolStats;
use pioqo_exec::{execute, ExecError, ResilienceStats, ScanMetrics};
use pioqo_obs::{chrome_trace_json, HistSet, RingSink, TraceEvent};
use pioqo_simkit::par::par_map_threads;
use serde::Serialize;

/// One (experiment, method, selectivity) point of a trace capture.
#[derive(Debug, Clone)]
pub struct TraceCell {
    /// Table 1 row name, e.g. `"E33-SSD"` (case-insensitive).
    pub experiment: String,
    /// Row-count divisor applied to the Table 1 config (1 = full scale).
    pub scale_down: u64,
    /// Master seed for the cell's dataset and device.
    pub seed: u64,
    /// Access method to execute.
    pub method: MethodSpec,
    /// Predicate selectivity for query Q.
    pub selectivity: f64,
}

impl TraceCell {
    /// The label used to prefix this cell's tracks and summary row.
    pub fn label(&self) -> String {
        format!("{}/{}@{}", self.experiment, self.method, self.selectivity)
    }
}

/// The default capture scenario: the paper's §2 queue-depth observation
/// (PIS with n = 8 workers drives the device at depth 8) plus an FTS and a
/// sorted-IS cell for contrast, all on scaled-down Table 1 rows.
pub fn default_trace_cells(seed: u64) -> Vec<TraceCell> {
    vec![
        TraceCell {
            experiment: "E33-SSD".to_string(),
            scale_down: 256,
            seed,
            method: MethodSpec::Is {
                workers: 8,
                prefetch: 0,
            },
            selectivity: 0.01,
        },
        TraceCell {
            experiment: "E33-SSD".to_string(),
            scale_down: 256,
            seed,
            method: MethodSpec::Fts { workers: 1 },
            selectivity: 0.01,
        },
        TraceCell {
            experiment: "E33-HDD".to_string(),
            scale_down: 256,
            seed,
            method: MethodSpec::SortedIs { prefetch: 8 },
            selectivity: 0.01,
        },
    ]
}

/// Errors a capture can hit.
#[derive(Debug)]
pub enum TraceError {
    /// The cell named a Table 1 experiment that does not exist.
    UnknownExperiment(String),
    /// The scan itself failed.
    Exec(ExecError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::UnknownExperiment(name) => {
                write!(f, "unknown Table 1 experiment: {name}")
            }
            TraceError::Exec(e) => write!(f, "scan failed: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<ExecError> for TraceError {
    fn from(e: ExecError) -> TraceError {
        TraceError::Exec(e)
    }
}

/// Everything one cell produced, before merging.
struct CellCapture {
    label: String,
    tracks: Vec<String>,
    events: Vec<TraceEvent>,
    recorded: u64,
    dropped: u64,
    metrics: ScanMetrics,
}

/// Per-cell row of the summary JSON.
#[derive(Debug, Clone, Serialize)]
pub struct CellSummary {
    /// Cell label (`experiment/method@selectivity`).
    pub label: String,
    /// Virtual runtime in seconds.
    pub runtime_secs: f64,
    /// Rows satisfying the predicate.
    pub rows_matched: u64,
    /// Pages transferred from the device.
    pub pages_read: u64,
    /// I/O operations completed.
    pub io_ops: u64,
    /// Most populated queue-depth bucket (lower bound).
    pub modal_queue_depth: u64,
    /// Median per-I/O latency bucket, µs.
    pub p50_io_latency_us: u64,
    /// 99th-percentile per-I/O latency bucket, µs.
    pub p99_io_latency_us: u64,
    /// Buffer-pool counters for the cell.
    pub pool: PoolStats,
    /// Fault-handling counters for the cell.
    pub resilience: ResilienceStats,
    /// Events the ring accepted.
    pub events_recorded: u64,
    /// Events the ring discarded (capacity overflow; oldest first).
    pub events_dropped: u64,
}

/// Workload-total tail of the summary JSON.
#[derive(Debug, Clone, Serialize)]
pub struct TraceTotals {
    /// Field-wise sum of every cell's pool counters.
    pub pool: PoolStats,
    /// Field-wise sum of every cell's fault counters.
    pub resilience: ResilienceStats,
    /// Most populated queue-depth bucket across all cells.
    pub modal_queue_depth: u64,
    /// 99th-percentile I/O latency bucket across all cells, µs.
    pub p99_io_latency_us: u64,
    /// Events accepted across all rings.
    pub events_recorded: u64,
    /// Events discarded across all rings.
    pub events_dropped: u64,
}

#[derive(Debug, Clone, Serialize)]
struct TraceSummary {
    cells: Vec<CellSummary>,
    totals: TraceTotals,
}

/// A finished capture: three deterministic text documents ready to write
/// to `trace.json`, `hists.csv` and `summary.json`.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Chrome trace-event JSON (load in Perfetto or `chrome://tracing`).
    pub chrome_json: String,
    /// Merged histogram CSV across all cells.
    pub hist_csv: String,
    /// Per-cell + total summary JSON.
    pub summary_json: String,
    /// Combined histograms (also rendered into `hist_csv`).
    pub hists: HistSet,
    /// Per-cell summary rows (also rendered into `summary_json`).
    pub cells: Vec<CellSummary>,
}

fn run_cell(cell: &TraceCell, ring_capacity: usize) -> Result<CellCapture, TraceError> {
    let mut cfg = ExperimentConfig::by_name(&cell.experiment)
        .ok_or_else(|| TraceError::UnknownExperiment(cell.experiment.clone()))?
        .scaled_down(cell.scale_down);
    cfg.seed = cell.seed;
    let exp = Experiment::build(cfg);
    let mut device = exp.make_device();
    let mut pool = exp.make_pool();
    let mut sink = RingSink::with_capacity(ring_capacity);
    let mut ctx = Experiment::context(device.as_mut(), &mut pool);
    ctx.set_trace_sink(&mut sink);
    let metrics = execute(&mut ctx, &exp.query(cell.method, cell.selectivity))?;
    drop(ctx);
    Ok(CellCapture {
        label: cell.label(),
        tracks: sink.track_names().to_vec(),
        events: sink.events().copied().collect(),
        recorded: sink.recorded(),
        dropped: sink.dropped(),
        metrics,
    })
}

/// Run every cell (its own device, pool and event ring) and merge the
/// results in cell order. `threads` bounds the worker pool; the output is
/// byte-identical for any value, including 1.
pub fn capture_trace(
    cells: &[TraceCell],
    ring_capacity: usize,
    threads: usize,
) -> Result<TraceBundle, TraceError> {
    let results = par_map_threads(threads, 0xB5, cells, |_rng, cell| {
        run_cell(cell, ring_capacity)
    });
    let mut caps = Vec::with_capacity(results.len());
    for r in results {
        caps.push(r?);
    }

    // One global track table: cell-local ids are remapped by a per-cell
    // offset, and names get the cell label as a prefix.
    let mut tracks: Vec<String> = Vec::new();
    let mut events: Vec<TraceEvent> = Vec::new();
    for cap in &caps {
        let base = tracks.len() as u32;
        for name in &cap.tracks {
            tracks.push(format!("{}/{}", cap.label, name));
        }
        for ev in &cap.events {
            let mut ev = *ev;
            ev.track += base;
            events.push(ev);
        }
    }
    let chrome_json = chrome_trace_json(&tracks, events.iter());

    let mut hists = HistSet::new();
    let mut totals = TraceTotals {
        pool: PoolStats::default(),
        resilience: ResilienceStats::default(),
        modal_queue_depth: 0,
        p99_io_latency_us: 0,
        events_recorded: 0,
        events_dropped: 0,
    };
    let mut cell_rows = Vec::with_capacity(caps.len());
    for cap in &caps {
        let m = &cap.metrics;
        hists.merge(&m.hists);
        totals.pool.merge(&m.pool);
        totals.resilience.merge(&m.resilience);
        totals.events_recorded += cap.recorded;
        totals.events_dropped += cap.dropped;
        cell_rows.push(CellSummary {
            label: cap.label.clone(),
            runtime_secs: m.runtime_secs(),
            rows_matched: m.rows_matched,
            pages_read: m.io.pages_read,
            io_ops: m.io.io_ops,
            modal_queue_depth: m.hists.queue_depth.mode_lo(),
            p50_io_latency_us: m.hists.io_latency_us.quantile_lo(50, 100),
            p99_io_latency_us: m.hists.io_latency_us.quantile_lo(99, 100),
            pool: m.pool.clone(),
            resilience: m.resilience,
            events_recorded: cap.recorded,
            events_dropped: cap.dropped,
        });
    }
    totals.modal_queue_depth = hists.queue_depth.mode_lo();
    totals.p99_io_latency_us = hists.io_latency_us.quantile_lo(99, 100);

    let hist_csv = hists.to_csv();
    let summary = TraceSummary {
        cells: cell_rows,
        totals,
    };
    let summary_json = match serde_json::to_string_pretty(&summary) {
        Ok(s) => s,
        Err(_) => String::from("{}"),
    };
    Ok(TraceBundle {
        chrome_json,
        hist_csv,
        summary_json,
        hists,
        cells: summary.cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cells() -> Vec<TraceCell> {
        let mut cells = default_trace_cells(7);
        for c in &mut cells {
            c.scale_down = 1024;
        }
        cells
    }

    #[test]
    fn capture_is_thread_count_invariant_and_repeatable() {
        let cells = small_cells();
        let a = capture_trace(&cells, 1 << 14, 1).expect("threads=1 capture");
        let b = capture_trace(&cells, 1 << 14, 4).expect("threads=4 capture");
        let c = capture_trace(&cells, 1 << 14, 1).expect("second threads=1 capture");
        assert_eq!(
            a.chrome_json, b.chrome_json,
            "chrome json differs by thread count"
        );
        assert_eq!(a.hist_csv, b.hist_csv, "hist csv differs by thread count");
        assert_eq!(
            a.summary_json, b.summary_json,
            "summary differs by thread count"
        );
        assert_eq!(
            a.chrome_json, c.chrome_json,
            "chrome json differs across runs"
        );
        assert_eq!(
            a.summary_json, c.summary_json,
            "summary differs across runs"
        );
    }

    #[test]
    fn pis8_cell_has_modal_queue_depth_eight() {
        // The paper's §2 observation: PIS with n workers drives the device
        // at queue depth n.
        let cells = default_trace_cells(7);
        let bundle = capture_trace(&cells[..1], 1 << 14, 1).expect("capture");
        assert_eq!(
            bundle.cells[0].modal_queue_depth, 8,
            "PIS n=8 should keep 8 I/Os outstanding most of the time"
        );
        assert!(bundle.cells[0].events_recorded > 0);
    }

    #[test]
    fn chrome_json_carries_cell_prefixed_tracks() {
        let cells = small_cells();
        let bundle = capture_trace(&cells[..1], 1 << 12, 1).expect("capture");
        assert!(bundle.chrome_json.contains("E33-SSD/PIS8@0.01/io"));
        assert!(bundle.chrome_json.contains("\"traceEvents\""));
        assert!(bundle
            .hist_csv
            .starts_with("hist,bucket_lo,bucket_hi,count"));
    }

    #[test]
    fn unknown_experiment_is_reported() {
        let cells = vec![TraceCell {
            experiment: "E7-TAPE".to_string(),
            scale_down: 1,
            seed: 0,
            method: MethodSpec::Fts { workers: 1 },
            selectivity: 0.5,
        }];
        match capture_trace(&cells, 64, 1) {
            Err(TraceError::UnknownExperiment(name)) => assert_eq!(name, "E7-TAPE"),
            other => panic!("expected UnknownExperiment, got {other:?}"),
        }
    }
}
