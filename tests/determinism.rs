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

/// The observability exports extend the invariant from metrics to full
/// traces: `repro trace` writes exactly what [`capture_trace`] returns,
/// so the Chrome JSON, histogram CSV and summary JSON must each be
/// byte-identical across runs and across any worker-thread count.
fn trace_cells() -> Vec<CaptureCell> {
    let cells = default_trace_cells(11);
    // Rows / 4 keeps the integration test quick.
    cells.into_iter().map(|c| c.scaled_down(4)).collect()
}

fn trace_exports(threads: usize) -> (String, String, String) {
    let bundle = pioqo::workload::trace::capture_trace(&trace_cells(), 1 << 14, threads)
        .expect("trace capture completes at test scale");
    (bundle.chrome_json, bundle.hist_csv, bundle.summary_json)
}

#[test]
fn trace_exports_are_identical_across_double_runs() {
    let a = trace_exports(1);
    let b = trace_exports(1);
    assert_eq!(a.0, b.0, "chrome trace JSON must survive a double run");
    assert_eq!(a.1, b.1, "histogram CSV must survive a double run");
    assert_eq!(a.2, b.2, "summary JSON must survive a double run");
}

#[test]
fn trace_exports_are_identical_across_thread_counts() {
    let a = trace_exports(1);
    let b = trace_exports(4);
    assert_eq!(
        a.0, b.0,
        "chrome trace JSON must not depend on the worker-thread count"
    );
    assert_eq!(
        a.1, b.1,
        "histogram CSV must not depend on the worker-thread count"
    );
    assert_eq!(
        a.2, b.2,
        "summary JSON must not depend on the worker-thread count"
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

/// The metrics registry extends the invariant once more: every document
/// `repro metrics` writes (Prometheus text, series CSV, summary JSON,
/// SLO verdicts, counter tracks) is rendered from a merged snapshot that
/// must not depend on run count or worker-thread count.
fn metrics_exports(threads: usize) -> [String; 5] {
    let cells: Vec<CaptureCell> = pioqo::workload::default_metrics_cells(11)
        .into_iter()
        .map(|c| c.scaled_down(4))
        .collect();
    let slos = pioqo::workload::metrics::default_slos();
    let bundle = pioqo::workload::metrics::capture_metrics(
        &cells,
        SimDuration::from_millis(1),
        &slos,
        threads,
    )
    .expect("metrics capture completes at test scale");
    [
        bundle.prometheus,
        bundle.series_csv,
        bundle.summary_json,
        bundle.slo_json,
        bundle.counters_json,
    ]
}

#[test]
fn metrics_exports_are_identical_across_double_runs() {
    let a = metrics_exports(1);
    let b = metrics_exports(1);
    assert_eq!(a, b, "every metrics document must survive a double run");
}

#[test]
fn metrics_exports_are_identical_across_thread_counts() {
    let a = metrics_exports(1);
    let b = metrics_exports(4);
    assert_eq!(
        a, b,
        "no metrics document may depend on the worker-thread count"
    );
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
