//! The bundle target `observe`: the default observation cells at `--seed`
//! (default 0), every fixture scaled down by `--scale` as the figures'
//! are, captured once traced and metered, with the documents written into
//! `results/observe/`. Deterministic in (`--scale`, `--seed`), independent
//! of the thread count.

use crate::figs::Opts;
use crate::report::{or_exit, results_dir, write_artifacts};
use pioqo_simkit::par::thread_count;
use pioqo_workload::{default_observe_cells, observe_bundle};

/// `trace.json`, `hists.csv`, `summary.json`, `metrics.prom`,
/// `series.csv`, `metrics.json`, `slo.json`, `counters.json` and
/// `sessions.json` into `results/observe/`; exits nonzero if an SLO
/// fails.
pub fn observe(opts: Opts) {
    let cells: Vec<_> = default_observe_cells(opts.seed.unwrap_or(0))
        .into_iter()
        .map(|c| c.scaled_down(opts.scale))
        .collect();
    let bundle = or_exit(observe_bundle(&cells, thread_count()), "observe capture");
    write_artifacts(&results_dir().join("observe"), &bundle.files);
    for cell in &bundle.cells {
        println!(
            "[observe] {}: runtime {:.3}s, {} ios, modal depth {}, p99 {} us",
            cell.label,
            cell.runtime_secs,
            cell.io_ops,
            cell.modal_queue_depth,
            cell.p99_io_latency_us
        );
    }
    for v in &bundle.verdicts {
        println!(
            "[observe] slo {}: {} (observed {} vs limit {})",
            v.name,
            if v.pass { "pass" } else { "FAIL" },
            v.observed,
            v.limit
        );
    }
    if bundle.verdicts.iter().any(|v| !v.pass) {
        eprintln!("error: one or more SLOs failed");
        std::process::exit(1);
    }
}
