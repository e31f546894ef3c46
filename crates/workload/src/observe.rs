//! The observation bundle: every cell captured once through
//! [`mod@crate::capture`], traced by its own event ring and metered by its
//! own registry, and the results merged in cell order into nine
//! documents:
//!
//! * `trace.json` — Chrome trace-event JSON (Perfetto-loadable), every
//!   cell's tracks (per-session tracks included) named under the cell
//!   label so the cells render side by side;
//! * `hists.csv` — one block per cell distribution under its cell-prefixed
//!   registry name (`hist,bucket_lo,bucket_hi,count`);
//! * `summary.json` — per-cell and workload-total counters;
//! * `metrics.prom`, `series.csv`, `metrics.json`, `slo.json` and
//!   `counters.json` — the merged registry snapshot as Prometheus text,
//!   sim-time series, a digest, SLO verdicts and Chrome counter tracks;
//! * `sessions.json` — one `{label, report, admissions}` entry per session
//!   cell: the engine's report and the admission journal.
//!
//! A cell's label prefixes every name it contributes, so a cell's rows in
//! every document do not depend on which other cells ran beside it, and
//! the ring and registry are keyed off the virtual clock, so every
//! document is byte-identical across runs and any worker-thread count.

use crate::capture::{capture, table1, CaptureCell, CaptureError, CellKind, Outcome};
use crate::concurrent::ConcurrencyConfig;
use crate::experiments::{DeviceKind, MethodSpec};
use pioqo_bufpool::PoolStats;
use pioqo_exec::{ResilienceStats, WorkloadReport, WorkloadSpec};
use pioqo_obs::metrics::{sanitize_prefix, DEFAULT_CADENCE};
use pioqo_obs::{
    chrome_trace_json, evaluate_slos, slo_report_json, Histogram, MetricsSnapshot, SloCheck,
    SloSpec, SloVerdict, TraceEvent,
};
use pioqo_optimizer::{AdmissionDecision, OptimizerConfig};
use serde::Serialize;

/// Events each cell's ring keeps.
const RING_CAPACITY: usize = 1 << 16;

/// The default cells at `seed`, on scaled-down Table 1 rows unless noted:
/// the paper's §2 queue-depth observation (PIS with n = 8 workers drives
/// the device at depth 8), an FTS and an HDD sorted-IS cell for contrast,
/// 8 shared-scan sessions with the write system running (admission,
/// `ScanHub` and WAL metrics), and the 8-session concurrency cell on its
/// own SSD fixture, admitted by the fine-grained optimizer.
pub fn default_observe_cells(seed: u64) -> Vec<CaptureCell> {
    let (ssd, hdd) = (table1("E33-SSD", 256, seed), table1("E33-HDD", 256, seed));
    let is8 = MethodSpec::Is {
        workers: 8,
        prefetch: 0,
    };
    let conc = ConcurrencyConfig {
        seed,
        ..ConcurrencyConfig::default()
    };
    let sessions = |spec, optimizer, writes| CellKind::Sessions {
        spec: Box::new(spec),
        optimizer,
        writes,
    };
    let shared = WorkloadSpec {
        shared_scans: true,
        ..conc.workload(8)
    };
    vec![
        CaptureCell::scan(ssd.clone(), is8, 0.01),
        CaptureCell::scan(ssd.clone(), MethodSpec::Fts { workers: 1 }, 0.01),
        CaptureCell::scan(hdd, MethodSpec::SortedIs { prefetch: 8 }, 0.01),
        CaptureCell {
            fixture: ssd,
            kind: sessions(shared, OptimizerConfig::default(), true),
        },
        CaptureCell {
            fixture: conc.experiment(DeviceKind::Ssd),
            kind: sessions(conc.workload(8), OptimizerConfig::fine_grained(), false),
        },
    ]
}

/// The default SLO roster over [`default_observe_cells`]: generous enough
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

/// Per-cell row of `summary.json`.
#[derive(Debug, Clone, Serialize)]
pub struct CellSummary {
    /// Cell label (`experiment/method@selectivity`, `experiment/SESn...`).
    pub label: String,
    /// Virtual runtime (a session cell's makespan) in seconds.
    pub runtime_secs: f64,
    /// Rows satisfying the predicate (a session cell: over its recorded
    /// queries).
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

/// Workload-total tail of `summary.json`.
#[derive(Debug, Default, Serialize)]
struct Totals {
    pool: PoolStats,
    resilience: ResilienceStats,
    modal_queue_depth: u64,
    p99_io_latency_us: u64,
    events_recorded: u64,
    events_dropped: u64,
}

#[derive(Debug, Serialize)]
struct Summary {
    cells: Vec<CellSummary>,
    totals: Totals,
}

/// One entry of `sessions.json`: a session cell's engine report and its
/// admission journal, in admission order.
#[derive(Debug, Clone, Serialize)]
pub struct SessionCell {
    /// Cell label.
    pub label: String,
    /// The engine's full report.
    pub report: WorkloadReport,
    /// The admission journal.
    pub admissions: Vec<AdmissionDecision>,
}

/// A finished capture: the documents, their file names, and the rows and
/// verdicts they were rendered from.
#[derive(Debug, Clone)]
pub struct ObserveBundle {
    /// `(file name, body)` of every document, in the order they are
    /// written.
    pub files: Vec<(&'static str, String)>,
    /// Per-cell summary rows, in cell order.
    pub cells: Vec<CellSummary>,
    /// Every session cell's `sessions.json` entry, in cell order.
    pub sessions: Vec<SessionCell>,
    /// The merged, cell-prefixed registry snapshot.
    pub snapshot: MetricsSnapshot,
    /// [`default_slos`] evaluated against `snapshot`.
    pub verdicts: Vec<SloVerdict>,
}

/// `doc` as pretty JSON.
fn pretty<T: Serialize>(doc: &T) -> String {
    serde_json::to_string_pretty(doc).expect("bundle documents serialize")
}

/// Capture every cell once (its own device, pool, ring and registry),
/// merge the results in cell order and evaluate [`default_slos`] against
/// the merged snapshot. `threads` bounds the worker pool; the bundle is
/// byte-identical for any value, including 1.
pub fn observe_bundle(
    cells: &[CaptureCell],
    threads: usize,
) -> Result<ObserveBundle, CaptureError> {
    let observed = capture(cells, Some(RING_CAPACITY), Some(DEFAULT_CADENCE), threads)?;
    // One global track table: cell-local ids are remapped by a per-cell
    // offset, and names get the cell label as a prefix.
    let (mut tracks, mut events) = (Vec::new(), Vec::new());
    let (mut snapshot, mut totals) = (MetricsSnapshot::default(), Totals::default());
    let (mut queue_depth, mut io_latency) = (Histogram::new(), Histogram::new());
    let (mut rows, mut sessions) = (Vec::with_capacity(cells.len()), Vec::new());
    for (cell, o) in cells.iter().zip(observed) {
        let (label, ring) = (cell.label(), o.ring.expect("every cell ran traced"));
        let metered = o.snapshot.expect("every cell ran metered");
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
        let hist = |name| metered.hists.get(&format!("{prefix}_{name}")).cloned();
        let cell_depth = hist("queue_depth").unwrap_or_default();
        let cell_latency = hist("io_latency_us").unwrap_or_default();
        queue_depth.merge(&cell_depth);
        io_latency.merge(&cell_latency);
        totals.pool.merge(pool);
        totals.resilience.merge(&resilience);
        totals.events_recorded += ring.recorded();
        totals.events_dropped += ring.dropped();
        snapshot.merge(&metered);
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
        if let Outcome::Sessions(report, admissions) = o.outcome {
            sessions.push(SessionCell {
                label: cell.label(),
                report: *report,
                admissions,
            });
        }
    }
    totals.modal_queue_depth = queue_depth.mode_lo();
    totals.p99_io_latency_us = io_latency.quantile_lo(99, 100);
    let verdicts = evaluate_slos(&snapshot, &default_slos());
    let summary = Summary {
        cells: rows,
        totals,
    };
    let files = vec![
        ("trace.json", chrome_trace_json(&tracks, events.iter())),
        ("hists.csv", snapshot.hists_csv()),
        ("summary.json", pretty(&summary)),
        ("metrics.prom", snapshot.to_prometheus()),
        ("series.csv", snapshot.series_csv()),
        ("metrics.json", snapshot.summary_json()),
        ("slo.json", slo_report_json(&verdicts)),
        ("counters.json", snapshot.chrome_counters_json()),
        ("sessions.json", pretty(&sessions)),
    ];
    Ok(ObserveBundle {
        files,
        cells: summary.cells,
        sessions,
        snapshot,
        verdicts,
    })
}

/// The bundle's tests. The trace documents are checked in `trace::tests`,
/// the metrics documents in `metrics::tests` and a lone session cell in
/// `concurrent::tests`; all of them share the helpers here.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl ObserveBundle {
        /// The body of document `name` (empty when there is none).
        pub(crate) fn doc(&self, name: &str) -> &str {
            let file = self.files.iter().find(|(n, _)| *n == name);
            file.map_or("", |(_, body)| body)
        }
    }

    /// [`default_observe_cells`] at seed 7 with their rows divided by 4.
    pub(crate) fn small_cells() -> Vec<CaptureCell> {
        let cells = default_observe_cells(7);
        cells.into_iter().map(|c| c.scaled_down(4)).collect()
    }

    #[test]
    fn a_cells_documents_do_not_depend_on_the_other_cells() {
        // What lets one cell list serve every document: a cell's rows in each
        // document are the same whether it ran alone or beside others.
        let cells = small_cells();
        let (pis8, shared) = (cells[0].clone(), cells[3].clone());
        let both = observe_bundle(&[pis8.clone(), shared.clone()], 2).expect("both");
        for (i, cell) in [pis8, shared].into_iter().enumerate() {
            let alone = observe_bundle(std::slice::from_ref(&cell), 1).expect("alone");
            let prefix = format!("{}_", sanitize_prefix(&cell.label()));
            for doc in ["hists.csv", "metrics.prom", "series.csv"] {
                let rows = |b: &ObserveBundle| {
                    let lines = b.doc(doc).lines();
                    let mine = lines.filter(|l| l.contains(&prefix));
                    mine.map(String::from).collect::<Vec<_>>()
                };
                assert!(!rows(&alone).is_empty(), "{doc}: no rows for {prefix}");
                assert_eq!(rows(&both), rows(&alone), "{doc}");
            }
            assert_eq!(pretty(&both.cells[i]), pretty(&alone.cells[0]));
            let entry = |b: &ObserveBundle| {
                let entries = b.sessions.iter().filter(|e| e.label == cell.label());
                entries.map(pretty).collect::<Vec<_>>()
            };
            assert_eq!(entry(&both), entry(&alone));
        }
        assert_eq!(both.sessions.len(), 1);
    }
}
