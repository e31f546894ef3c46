//! Determinism regression test: the same seeded experiment run twice must
//! produce byte-identical serialized metrics. This is the workspace's
//! north-star invariant (lint rules D1-D4 exist to protect it), so any
//! hash-order leak, wall-clock read, or ambient entropy introduced
//! anywhere in the scan path fails here even if every unit test passes.

use pioqo::prelude::*;

fn experiment(name: &str) -> Experiment {
    Experiment::build(
        ExperimentConfig::by_name(name)
            .expect("table 1 lists this experiment")
            .scaled_down(100),
    )
}

/// Serialize every metric of one full cold-scan run, covering both scan
/// operators and a multi-worker configuration (the concurrency paths are
/// where nondeterminism likes to hide).
fn run_fingerprint(name: &str) -> String {
    let e = experiment(name);
    let methods = [
        MethodSpec::Fts { workers: 1 },
        MethodSpec::Fts { workers: 8 },
        MethodSpec::Is {
            workers: 1,
            prefetch: 0,
        },
        MethodSpec::Is {
            workers: 16,
            prefetch: 0,
        },
    ];
    let mut parts = Vec::new();
    for (i, method) in methods.iter().enumerate() {
        let metrics = e
            .run_cold(*method, 0.02 + 0.01 * i as f64)
            .expect("cold scan completes at test scale");
        parts.push(serde_json::to_string(&metrics).expect("scan metrics serialize to JSON"));
    }
    parts.join("\n")
}

#[test]
fn repeated_runs_serialize_identically_ssd() {
    let a = run_fingerprint("E33-SSD");
    let b = run_fingerprint("E33-SSD");
    assert_eq!(a, b, "same seed must reproduce byte-identical SSD metrics");
}

#[test]
fn repeated_runs_serialize_identically_hdd() {
    let a = run_fingerprint("E33-HDD");
    let b = run_fingerprint("E33-HDD");
    assert_eq!(a, b, "same seed must reproduce byte-identical HDD metrics");
}

#[test]
fn fresh_experiment_instances_agree_with_reused_ones() {
    // Rebuilding the experiment from config must not change results either:
    // all state that matters is derived from the seed, none from ambient
    // process state.
    let e = experiment("E500-SSD");
    let method = MethodSpec::Is {
        workers: 8,
        prefetch: 0,
    };
    let reused = e
        .run_cold(method, 0.03)
        .expect("cold scan completes at test scale");
    let rebuilt = experiment("E500-SSD")
        .run_cold(method, 0.03)
        .expect("cold scan completes at test scale");
    let a = serde_json::to_string(&reused).expect("scan metrics serialize to JSON");
    let b = serde_json::to_string(&rebuilt).expect("scan metrics serialize to JSON");
    assert_eq!(
        a, b,
        "experiment construction must be a pure function of its config"
    );
}

/// The observation bundle extends the invariant from metrics to full
/// traces: `repro observe` writes exactly the documents [`observe_bundle`]
/// returns, so each must be byte-identical across runs and any
/// worker-thread count. `names` picks the documents to compare.
fn observe_documents(names: &[&str], threads: usize) -> Vec<(&'static str, String)> {
    // Rows / 4 keeps the integration test quick.
    let cells: Vec<CaptureCell> = default_observe_cells(11)
        .into_iter()
        .map(|c| c.scaled_down(4))
        .collect();
    let bundle = observe_bundle(&cells, threads).expect("observe capture completes at test scale");
    assert_eq!(bundle.files.len(), 9);
    let docs: Vec<_> = bundle
        .files
        .into_iter()
        .filter(|(name, _)| names.contains(name))
        .collect();
    assert_eq!(
        docs.len(),
        names.len(),
        "the bundle has every named document"
    );
    docs
}

/// The trace documents: Chrome trace, histogram CSV, summary and the
/// session cells' reports and admission journals.
const TRACE_DOCS: [&str; 4] = ["trace.json", "hists.csv", "summary.json", "sessions.json"];

/// The metrics documents, rendered from the merged registry snapshot:
/// Prometheus text, series CSV, digest, SLO verdicts and counter tracks.
const METRICS_DOCS: [&str; 5] = [
    "metrics.prom",
    "series.csv",
    "metrics.json",
    "slo.json",
    "counters.json",
];

#[test]
fn trace_exports_are_identical_across_double_runs() {
    let a = observe_documents(&TRACE_DOCS, 1);
    let b = observe_documents(&TRACE_DOCS, 1);
    assert_eq!(a, b, "every trace document must survive a double run");
}

#[test]
fn trace_exports_are_identical_across_thread_counts() {
    let a = observe_documents(&TRACE_DOCS, 1);
    let b = observe_documents(&TRACE_DOCS, 4);
    assert_eq!(
        a, b,
        "no trace document may depend on the worker-thread count"
    );
}

#[test]
fn metrics_exports_are_identical_across_double_runs() {
    let a = observe_documents(&METRICS_DOCS, 1);
    let b = observe_documents(&METRICS_DOCS, 1);
    assert_eq!(a, b, "every metrics document must survive a double run");
}

#[test]
fn metrics_exports_are_identical_across_thread_counts() {
    let a = observe_documents(&METRICS_DOCS, 1);
    let b = observe_documents(&METRICS_DOCS, 4);
    assert_eq!(
        a, b,
        "no metrics document may depend on the worker-thread count"
    );
}

#[test]
fn traced_and_untraced_runs_report_identical_metrics() {
    // Installing a sink must observe the simulation, never perturb it:
    // the scan results with a recording RingSink and with no sink at all
    // have to match field for field (histograms included).
    let e = experiment("E33-SSD");
    let method = MethodSpec::Is {
        workers: 8,
        prefetch: 0,
    };
    let mut dev_a = e.make_device();
    let mut pool_a = e.make_pool();
    let untraced = e
        .run_with(dev_a.as_mut(), &mut pool_a, method, 0.02)
        .expect("cold scan completes at test scale");
    let mut dev_b = e.make_device();
    let mut pool_b = e.make_pool();
    let mut sink = RingSink::with_capacity(1 << 14);
    let mut ctx = Experiment::context(dev_b.as_mut(), &mut pool_b);
    ctx.set_trace_sink(&mut sink);
    let traced =
        execute(&mut ctx, &e.query(method, 0.02)).expect("cold scan completes at test scale");
    drop(ctx);
    let a = serde_json::to_string(&untraced).expect("scan metrics serialize to JSON");
    let b = serde_json::to_string(&traced).expect("scan metrics serialize to JSON");
    assert_eq!(a, b, "tracing must be observation-only");
    assert!(sink.recorded() > 0, "the sink actually saw the run");
}

#[test]
fn an_installed_registry_is_observation_only() {
    // Metering must observe the simulation, never perturb it: a scan on a
    // context with a registry installed reports `ScanMetrics` identical to
    // an unmetered run, and the registry saw the run.
    let e = experiment("E33-SSD");
    let method = MethodSpec::Is {
        workers: 8,
        prefetch: 0,
    };
    let mut dev_a = e.make_device();
    let mut pool_a = e.make_pool();
    let plain = e
        .run_with(dev_a.as_mut(), &mut pool_a, method, 0.02)
        .expect("cold scan completes at test scale");

    let mut dev_b = e.make_device();
    let mut pool_b = e.make_pool();
    let mut registry = MetricsRegistry::enabled(SimDuration::from_millis(1));
    let mut ctx = Experiment::context(dev_b.as_mut(), &mut pool_b);
    ctx.set_metrics(&mut registry);
    let metered =
        execute(&mut ctx, &e.query(method, 0.02)).expect("cold scan completes at test scale");
    ctx.fold_metrics();
    drop(ctx);

    let a = serde_json::to_string(&plain).expect("scan metrics serialize to JSON");
    let b = serde_json::to_string(&metered).expect("scan metrics serialize to JSON");
    assert_eq!(a, b, "an installed registry must be observation-only");
    assert!(!registry.is_empty(), "the registry saw the run");
    assert_eq!(
        registry.counter("io_pages_read_total"),
        metered.io.pages_read,
        "the fold carries the run's totals"
    );
    assert!(registry
        .series("engine_queue_depth")
        .is_some_and(|s| !s.points.is_empty()));
}
