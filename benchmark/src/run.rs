//! One workload, one process: set-up, the timed passes (or the traced
//! pass), the checks, and the result line.

use crate::probes;
use crate::report::{
    fmt_value, host_info, obj, peak_rss_mb, per, result_line, zeroed, Failure, MetricDef, Values,
    END_TO_END, PER_LAYER,
};
use crate::runner::run_passes;
use crate::timing::{median, min_median_max, timed_normalised, PassTimes, REF_NOMINAL_NS};
use crate::trace::{chrome_trace, Layer, Tracer, N_LAYERS};
use crate::workloads::{passes_for, TracedPass, Workload, DRIVER_METRICS};
use serde::Content;
use std::path::PathBuf;

/// Command-line options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `--seed`: every input derives from it.
    pub seed: u64,
    /// `--seconds`: the measuring budget K is sized from.
    pub seconds: u64,
    /// `--trace 1`: run the traced pass and print the per-layer metrics.
    pub trace: bool,
    /// `--quick`: K = 1 on cut-down fixtures; numbers are not comparable.
    pub quick: bool,
}

/// Where the traced pass writes its files: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn print_table(defs: &[MetricDef], values: &Values, with_bound: bool) {
    for d in defs {
        let v = values.get(d.name).copied().unwrap_or(0.0);
        let bound = if with_bound {
            format!("  bound {:>4.0}%", d.bound * 100.0)
        } else {
            String::new()
        };
        println!(
            "  {:<34} {:>18} {:<8} {:<6} {}{bound}",
            d.name,
            fmt_value(v),
            d.unit,
            d.better.as_str(),
            if d.exact { "exact" } else { "host " },
        );
    }
}

fn print_failures(failures: &[Failure]) {
    for f in failures.iter().take(20) {
        println!("  FAILED op {}: {}", f.op, f.reason);
    }
    if failures.len() > 20 {
        println!("  ... and {} more", failures.len() - 20);
    }
}

/// The ops that weigh most in `wall_s`, with their fastest and slowest
/// pass (normalised).
fn print_slowest(names: &[String], times: &PassTimes) {
    let mut ops: Vec<(usize, f64)> = (0..names.len()).map(|op| (op, times.op_ns(op))).collect();
    ops.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("  slowest ops, normalised ms (median; min / max over passes):");
    for (op, mid) in ops.into_iter().take(8) {
        let per_pass: Vec<f64> = times.norm.iter().map(|p| p[op]).collect();
        let (lo, _, hi) = min_median_max(&per_pass);
        println!(
            "    {:<34} {:>10.3}; {:>10.3} / {:>10.3}",
            names[op],
            mid / 1e6,
            lo / 1e6,
            hi / 1e6
        );
    }
}

/// Distinct failed ops (an op can fail more than one check).
fn failed_ops(failures: &[Failure]) -> u64 {
    let mut ops: Vec<usize> = failures.iter().map(|f| f.op).collect();
    ops.sort_unstable();
    ops.dedup();
    ops.len() as u64
}

fn write_json(name: &str, doc: &Content) {
    let dir = out_dir();
    let text = serde_json::to_string(doc).expect("a Content tree always renders");
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), text))
    {
        eprintln!("warning: could not write {}/{name}: {e}", dir.display());
    }
}

fn values_content(defs: &[MetricDef], values: &Values) -> Content {
    Content::Map(
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    Content::F64(values.get(d.name).copied().unwrap_or(0.0)),
                )
            })
            .collect(),
    )
}

fn floats(values: &[f64]) -> Content {
    Content::Seq(values.iter().copied().map(Content::F64).collect())
}

/// Run workload `W` as the driver asks and print the result line.
pub fn run_workload<W: Workload>(opts: &Opts) {
    if opts.quick {
        println!(
            "--quick: K = 1 on cut-down fixtures; these numbers are NOT comparable with a full run"
        );
    }
    if opts.trace {
        run_traced::<W>(opts);
    } else {
        run_timed::<W>(opts);
    }
}

/// `--trace 0`: the end-to-end metrics, from untraced passes only.
fn run_timed<W: Workload>(opts: &Opts) {
    // Set-up is repeated and the median reported, so work moved into
    // set-up shows and one slow page-fault storm does not.
    let reps = if opts.quick { 1 } else { W::SETUP_REPS };
    let mut setups_s = Vec::with_capacity(reps);
    let mut fixture = None;
    for _ in 0..reps {
        drop(fixture.take());
        let (fx, _, ns) = timed_normalised(|| W::setup(opts.seed, opts.quick));
        setups_s.push(ns / 1e9);
        fixture = Some(fx);
    }
    let fx = fixture.expect("at least one set-up ran");

    let k = if opts.quick {
        1
    } else {
        passes_for::<W>(opts.seconds)
    };
    let run = run_passes(k, None, |rec| W::pass(&fx, rec));
    let mut failures = run.failures.clone();
    failures.extend(W::check(&fx, &run.outcomes));

    let mut v = Values::new();
    v.insert("setup_s", median(&setups_s));
    v.insert("wall_s", run.times.wall_s());
    W::end_to_end(&fx, &run.outcomes, &mut v);
    // Last, so it covers everything above.
    v.insert("peak_rss_mb", peak_rss_mb());

    let (lo, mid, hi) = min_median_max(&run.times.pass_totals_s());
    let (raw_lo, raw_mid, raw_hi) = min_median_max(&run.times.raw_pass_totals_s());
    println!(
        "{}: seed {} K {} ops/pass {}\n  why: {}",
        W::NAME,
        opts.seed,
        k,
        run.outcomes.len(),
        W::WHY
    );
    print_table(&END_TO_END, &v, true);
    println!(
        "  host times are normalised to the reference machine speed (README.md, Method)\n  wall_s is the sum over ops of the median of {k} passes; whole-pass totals min/median/max = {lo:.4} / {mid:.4} / {hi:.4} s normalised, {raw_lo:.4} / {raw_mid:.4} / {raw_hi:.4} s raw"
    );
    let n_ops = run.outcomes.len();
    let sum_ops = |f: &dyn Fn(usize) -> f64| (0..n_ops).map(f).sum::<f64>() / 1e9;
    println!(
        "  other estimators of the same passes: best-of-{k} normalised {:.4} s, median raw {:.4} s, best-of-{k} raw {:.4} s",
        sum_ops(&|op| run.times.norm.iter().map(|p| p[op]).fold(f64::INFINITY, f64::min)),
        sum_ops(&|op| median(&run.times.raw.iter().map(|p| p[op] as f64).collect::<Vec<_>>())),
        sum_ops(&|op| run.times.raw.iter().map(|p| p[op] as f64).fold(f64::INFINITY, f64::min)),
    );
    let (ref_lo, ref_mid, ref_hi) = min_median_max(&run.times.reference_ns);
    println!(
        "  reference kernel: {} samples, min/median/max = {:.1} / {:.1} / {:.1} us (nominal {:.1})",
        run.times.reference_ns.len(),
        ref_lo / 1e3,
        ref_mid / 1e3,
        ref_hi / 1e3,
        REF_NOMINAL_NS / 1e3
    );
    let (setup_lo, _, setup_hi) = min_median_max(&setups_s);
    println!(
        "  setup_s is the median of {} set-ups; min/max = {setup_lo:.6} / {setup_hi:.6} s",
        setups_s.len()
    );
    print_slowest(&run.names, &run.times);
    for n in W::notes(&fx, &run.outcomes) {
        println!("  {n}");
    }
    print_failures(&failures);
    let attempted = run.outcomes.len().max(1) as u64;
    let failed = failed_ops(&failures).min(attempted);
    println!(
        "  failed_frac {:.6} ({failed} of {attempted} ops)",
        failed as f64 / attempted as f64
    );
    write_json(
        &format!("results_{}.json", W::NAME),
        &obj(vec![
            ("workload", Content::Str(W::NAME.to_string())),
            ("host", host_info(opts.seed, k, opts.quick)),
            ("attempted", Content::U64(attempted)),
            ("failed", Content::U64(failed)),
            ("pass_totals_s", floats(&run.times.pass_totals_s())),
            ("raw_pass_totals_s", floats(&run.times.raw_pass_totals_s())),
            ("setups_s", floats(&setups_s)),
            (
                "reference_kernel_us_min_median_max",
                floats(&[ref_lo / 1e3, ref_mid / 1e3, ref_hi / 1e3]),
            ),
            ("end_to_end", values_content(&END_TO_END, &v)),
        ]),
    );
    println!("{}", result_line(&END_TO_END, &v, attempted, failed));
}

/// `--trace 1`: one untraced reference pass, one traced pass that must
/// reproduce it exactly, the standalone probes, and the per-layer metrics.
fn run_traced<W: Workload>(opts: &Opts) {
    let (fx, setup_raw_ns, setup_ns) = timed_normalised(|| W::setup(opts.seed, opts.quick));
    let untraced = run_passes(1, None, |rec| W::pass(&fx, rec));
    let tracer = Tracer::new();
    let traced = run_passes(1, Some(tracer.clone()), |rec| W::pass(&fx, rec));

    let mut failures = untraced.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    failures.extend(W::check(&fx, &untraced.outcomes));
    if traced.outcomes.len() != untraced.outcomes.len() {
        failures.push(Failure {
            op: 0,
            reason: "traced pass ran a different op list".to_string(),
        });
    }
    for (op, (a, b)) in untraced.outcomes.iter().zip(&traced.outcomes).enumerate() {
        if a != b {
            failures.push(Failure {
                op,
                reason: "traced pass did not reproduce the untraced pass exactly".to_string(),
            });
        }
    }

    // Fold the per-op layer records, each op scaled to the reference
    // machine speed by the factor its own span was scaled by.
    let ops = tracer.ops();
    let mut calls = [0u64; N_LAYERS];
    let mut self_s = [0.0f64; N_LAYERS];
    let mut traced_wall_s = 0.0;
    for op in &ops {
        let factor = match (traced.times.norm.first(), traced.times.raw.first()) {
            (Some(norm), Some(raw)) if op.op < raw.len() && raw[op.op] > 0 => {
                norm[op.op] / raw[op.op] as f64
            }
            _ => 1.0,
        };
        traced_wall_s += op.wall_ns() as f64 * factor / 1e9;
        for (l, acc) in op.layers.iter().enumerate() {
            calls[l] += acc.calls;
            self_s[l] += acc.self_ns as f64 * factor / 1e9;
        }
    }
    let t = TracedPass {
        untraced: &untraced,
        calls,
        layer_self_s: self_s,
        counts: tracer.counts(),
    };
    let mut v = zeroed(&PER_LAYER);
    // Layers every workload can reach, from the spans and their counts.
    v.insert("device.ios", t.counts.device_ios as f64);
    v.insert("device.calls", t.calls[Layer::Device as usize] as f64);
    v.insert("device.self_s", t.self_s(Layer::Device));
    v.insert(
        "device.ns_per_io",
        per(t.self_s(Layer::Device) * 1e9, t.counts.device_ios),
    );
    v.insert("engine.steps", t.counts.engine_steps as f64);
    v.insert("engine.events", t.counts.engine_events as f64);
    v.insert("engine.step_self_s", t.self_s(Layer::Engine));
    v.insert(
        "engine.ns_per_event",
        per(t.self_s(Layer::Engine) * 1e9, t.counts.engine_events),
    );
    for (layer, self_s, _) in DRIVER_METRICS {
        v.insert(self_s, t.self_s(layer));
    }
    v.insert("optimizer.admits", t.counts.admits as f64);
    v.insert(
        "optimizer.admit_ns",
        per(t.self_s(Layer::Admission) * 1e9, t.counts.admits),
    );
    v.insert("session.rest_self_s", t.self_s(Layer::Session));
    v.insert(
        "storage.build_s",
        W::storage_build_s(&fx) * setup_ns / setup_raw_ns.max(1) as f64,
    );

    let untraced_wall_s = untraced.times.wall_s();
    let attributed_s: f64 = t.layer_self_s.iter().sum();
    v.insert("trace.overhead", traced_wall_s / untraced_wall_s);
    v.insert("trace.residual_frac", 1.0 - attributed_s / traced_wall_s);

    W::per_layer(&fx, &t, &mut v);
    probes::run_all(opts.seed, opts.quick, &mut v);

    println!(
        "{}: seed {} traced pass, ops/pass {}\n  why: {}",
        W::NAME,
        opts.seed,
        untraced.outcomes.len(),
        W::WHY
    );
    print_table(&PER_LAYER, &v, false);
    println!(
        "  host times are normalised to the reference machine speed (README.md, Method)\n  untraced pass {untraced_wall_s:.4} s, traced pass {traced_wall_s:.4} s; layer self time, share of the traced pass:"
    );
    for (layer, (&calls, &secs)) in Layer::ALL.iter().zip(t.calls.iter().zip(&t.layer_self_s)) {
        if calls > 0 {
            println!(
                "    {:<18} {:>12} calls {:>10.4} s {:>6.1}%",
                layer.name(),
                calls,
                secs,
                secs / traced_wall_s * 100.0
            );
        }
    }
    println!(
        "    {:<18} {:>29.4} s {:>6.1}%  (op-level glue no span covers)",
        "residual",
        traced_wall_s - attributed_s,
        (1.0 - attributed_s / traced_wall_s) * 100.0
    );
    print_failures(&failures);
    let attempted = untraced.outcomes.len().max(1) as u64;
    let failed = failed_ops(&failures).min(attempted);

    write_json(
        &format!("trace_{}.json", W::NAME),
        &chrome_trace(W::NAME, &ops),
    );
    write_json(
        &format!("layers_{}.json", W::NAME),
        &obj(vec![
            ("workload", Content::Str(W::NAME.to_string())),
            ("host", host_info(opts.seed, 1, opts.quick)),
            ("per_layer", values_content(&PER_LAYER, &v)),
        ]),
    );
    println!("  trace written to {}", out_dir().display());
    println!("{}", result_line(&PER_LAYER, &v, attempted, failed));
}
