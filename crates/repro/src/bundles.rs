//! The bundle targets: `trace`, `metrics` and `session-export`. Each takes
//! its default cells at `--seed` (default 0 for `trace` and `metrics`, 42
//! for `session-export`), scales every fixture down by `--scale` as the
//! figures' are, renders them with its `pioqo_workload` renderer and
//! writes the documents into `results/<target>/`. Deterministic in
//! (`--scale`, `--seed`), independent of the thread count.

use crate::figs::Opts;
use crate::report::{or_exit, results_dir, write_artifacts};
use pioqo_simkit::par::thread_count;
use pioqo_simkit::SimDuration;
use pioqo_workload::{
    capture_metrics, capture_trace, default_metrics_cells, default_slos, default_trace_cells,
    session_export, session_export_cell, CaptureCell,
};

/// `of(--seed)` (or `of(default_seed)`), every fixture scaled by `--scale`.
fn cells(opts: Opts, default_seed: u64, of: fn(u64) -> Vec<CaptureCell>) -> Vec<CaptureCell> {
    let cells = of(opts.seed.unwrap_or(default_seed));
    cells
        .into_iter()
        .map(|c| c.scaled_down(opts.scale))
        .collect()
}

/// `trace.json` (Perfetto-loadable Chrome trace), `hists.csv` and
/// `summary.json` into `results/trace/`.
pub fn trace(opts: Opts) {
    let cells = cells(opts, 0, default_trace_cells);
    let bundle = or_exit(
        capture_trace(&cells, 1 << 16, thread_count()),
        "trace capture",
    );
    write_artifacts(
        &results_dir().join("trace"),
        &[
            ("trace.json", &bundle.chrome_json),
            ("hists.csv", &bundle.hist_csv),
            ("summary.json", &bundle.summary_json),
        ],
    );
    for cell in &bundle.cells {
        println!(
            "[trace] {}: runtime {:.3}s, {} ios, modal depth {}, p99 {} us",
            cell.label,
            cell.runtime_secs,
            cell.io_ops,
            cell.modal_queue_depth,
            cell.p99_io_latency_us
        );
    }
}

/// `metrics.prom`, `series.csv`, `metrics.json`, `slo.json` and
/// `counters.json` into `results/metrics/`; exits nonzero if an SLO fails.
pub fn metrics(opts: Opts) {
    let cells = cells(opts, 0, default_metrics_cells);
    let cadence = SimDuration::from_millis(1);
    let bundle = or_exit(
        capture_metrics(&cells, cadence, &default_slos(), thread_count()),
        "metrics capture",
    );
    write_artifacts(
        &results_dir().join("metrics"),
        &[
            ("metrics.prom", &bundle.prometheus),
            ("series.csv", &bundle.series_csv),
            ("metrics.json", &bundle.summary_json),
            ("slo.json", &bundle.slo_json),
            ("counters.json", &bundle.counters_json),
        ],
    );
    for v in &bundle.verdicts {
        println!(
            "[metrics] slo {}: {} (observed {} vs limit {})",
            v.name,
            if v.pass { "pass" } else { "FAIL" },
            v.observed,
            v.limit
        );
    }
    if !bundle.slo_pass() {
        eprintln!("error: one or more SLOs failed");
        std::process::exit(1);
    }
}

/// The canonical 8-session SSD workload, traced: `session_report.json`
/// (engine report), `session_trace.json` (Chrome trace with one track per
/// session) and `session_admissions.json` (the admission journal) into
/// `results/session-export/`.
pub fn session(opts: Opts) {
    let cell = cells(opts, 42, |seed| vec![session_export_cell(seed)]).remove(0);
    let export = or_exit(session_export(&cell), "session export");
    write_artifacts(
        &results_dir().join("session-export"),
        &[
            ("session_report.json", &export.report_json),
            ("session_trace.json", &export.chrome_json),
            ("session_admissions.json", &export.admissions_json),
        ],
    );
    println!(
        "[session-export] {} queries, makespan {:.3} ms, fairness {:.2}",
        export.report.total_completed(),
        export.report.makespan.as_micros_f64() / 1_000.0,
        export.report.fairness_ratio()
    );
}
