//! The trace bundle: every cell traced and metered through
//! [`mod@crate::capture`], each with its own event ring and metrics
//! registry, and the results merged in cell order into:
//!
//! * a Chrome trace-event JSON document (Perfetto-loadable), with track
//!   names prefixed by the cell label so the cells render side by side;
//! * the histogram CSV (`hist,bucket_lo,bucket_hi,count`), one block per
//!   cell distribution under its cell-prefixed registry name;
//! * a summary JSON with per-cell and workload-total counters.

use crate::capture::{capture, table1, CaptureCell, CaptureError, Outcome};
use crate::experiments::MethodSpec;
use pioqo_bufpool::PoolStats;
use pioqo_exec::ResilienceStats;
use pioqo_obs::metrics::{sanitize_prefix, DEFAULT_CADENCE};
use pioqo_obs::{chrome_trace_json, Histogram, MetricsSnapshot, TraceEvent};
use serde::Serialize;

/// The default capture scenario: the paper's §2 queue-depth observation
/// (PIS with n = 8 workers drives the device at depth 8) plus an FTS and a
/// sorted-IS cell for contrast, all on scaled-down Table 1 rows.
pub fn default_trace_cells(seed: u64) -> Vec<CaptureCell> {
    let (ssd, hdd) = (table1("E33-SSD", 256, seed), table1("E33-HDD", 256, seed));
    let is8 = MethodSpec::Is {
        workers: 8,
        prefetch: 0,
    };
    vec![
        CaptureCell::scan(ssd.clone(), is8, 0.01),
        CaptureCell::scan(ssd, MethodSpec::Fts { workers: 1 }, 0.01),
        CaptureCell::scan(hdd, MethodSpec::SortedIs { prefetch: 8 }, 0.01),
    ]
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
#[derive(Debug, Clone, Default, Serialize)]
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
    /// Histogram CSV of every cell's distributions.
    pub hist_csv: String,
    /// Per-cell + total summary JSON.
    pub summary_json: String,
    /// Per-cell summary rows (also rendered into `summary_json`).
    pub cells: Vec<CellSummary>,
}

/// Trace every cell (its own device, pool, `ring_capacity`-event ring and
/// metrics registry) and merge the results in cell order. `threads`
/// bounds the worker pool; the output is byte-identical for any value,
/// including 1.
pub fn capture_trace(
    cells: &[CaptureCell],
    ring_capacity: usize,
    threads: usize,
) -> Result<TraceBundle, CaptureError> {
    let observed = capture(cells, Some(ring_capacity), Some(DEFAULT_CADENCE), threads)?;
    // One global track table: cell-local ids are remapped by a per-cell
    // offset, and names get the cell label as a prefix.
    let (mut tracks, mut events) = (Vec::new(), Vec::new());
    let (mut metrics, mut totals) = (MetricsSnapshot::default(), TraceTotals::default());
    let (mut queue_depth, mut io_latency) = (Histogram::new(), Histogram::new());
    let mut rows = Vec::with_capacity(cells.len());
    for (cell, o) in cells.iter().zip(observed) {
        let (label, ring) = (cell.label(), o.ring.expect("every cell ran traced"));
        let snapshot = o.snapshot.expect("every cell ran metered");
        let base = tracks.len() as u32;
        tracks.extend(ring.track_names().iter().map(|n| format!("{label}/{n}")));
        events.extend(ring.events().map(|ev| TraceEvent {
            track: ev.track + base,
            ..*ev
        }));
        // A session cell reports its makespan and the rows its recorded
        // queries matched.
        let (runtime, rows_matched, io, pool, resilience) = match &o.outcome {
            Outcome::Scan(m) => (m.runtime, m.rows_matched, &m.io, &m.pool, m.resilience),
            Outcome::Sessions(r, _) => {
                let rows = r.records.iter().map(|q| q.rows_matched).sum();
                (r.makespan, rows, &r.io, &r.pool, r.resilience)
            }
        };
        let prefix = sanitize_prefix(&label);
        let hist = |name| snapshot.hists.get(&format!("{prefix}_{name}")).cloned();
        let cell_depth = hist("queue_depth").unwrap_or_default();
        let cell_latency = hist("io_latency_us").unwrap_or_default();
        queue_depth.merge(&cell_depth);
        io_latency.merge(&cell_latency);
        totals.pool.merge(pool);
        totals.resilience.merge(&resilience);
        totals.events_recorded += ring.recorded();
        totals.events_dropped += ring.dropped();
        rows.push(CellSummary {
            label,
            runtime_secs: runtime.as_secs_f64(),
            rows_matched,
            pages_read: io.pages_read,
            io_ops: io.io_ops,
            modal_queue_depth: cell_depth.mode_lo(),
            p50_io_latency_us: cell_latency.quantile_lo(50, 100),
            p99_io_latency_us: cell_latency.quantile_lo(99, 100),
            pool: pool.clone(),
            resilience,
            events_recorded: ring.recorded(),
            events_dropped: ring.dropped(),
        });
        metrics.merge(&snapshot);
    }
    totals.modal_queue_depth = queue_depth.mode_lo();
    totals.p99_io_latency_us = io_latency.quantile_lo(99, 100);
    let summary = TraceSummary {
        cells: rows,
        totals,
    };
    Ok(TraceBundle {
        chrome_json: chrome_trace_json(&tracks, events.iter()),
        hist_csv: metrics.hists_csv(),
        summary_json: serde_json::to_string_pretty(&summary).unwrap_or_else(|_| String::from("{}")),
        cells: summary.cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cells() -> Vec<CaptureCell> {
        let cells = default_trace_cells(7);
        cells.into_iter().map(|c| c.scaled_down(4)).collect()
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
    fn a_session_cell_traces_beside_a_scan() {
        let sessions = crate::metrics::default_metrics_cells(7).remove(2);
        let cells = [small_cells().remove(0), sessions.scaled_down(4)];
        let bundle = capture_trace(&cells, 1 << 14, 1).expect("capture");
        let row = &bundle.cells[1];
        assert_eq!(row.label, "E33-SSD/SES8-shared-writes");
        assert!(row.rows_matched > 0 && row.io_ops > 0 && row.runtime_secs > 0.0);
        assert!(bundle
            .chrome_json
            .contains("E33-SSD/SES8-shared-writes/session7"));
    }
}
