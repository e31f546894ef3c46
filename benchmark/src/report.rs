//! Metric names, units, directions and bounds — the table `BENCHMARK.json`
//! mirrors (a unit test checks the two agree) — and the result record a
//! run prints.

use serde::Content;
use std::collections::BTreeMap;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed. `sim_*` units are simulated (virtual) time, which
    /// repeats bit-for-bit at a fixed seed; `s` and `MiB` are the host's.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics, which carry none).
    pub bound: f64,
    /// True for simulated quantities and counts that must repeat exactly
    /// pass to pass and run to run at one seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// The end-to-end metrics, every one emitted by every workload. A cell a
/// workload does not define (e.g. `plan_regret` on `warm_mix`) carries the
/// neutral value 1.0 — the empty geometric mean — because the run contract
/// requires every metric on every run and forbids zeros; README.md has the
/// matrix of defined cells.
pub const END_TO_END: [MetricDef; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("wall_s", "s", Better::Lower, 0.10, false),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10, false),
    e2e("sim_time_s", "sim_s", Better::Lower, 0.15, true),
    e2e("plan_regret", "ratio", Better::Lower, 0.15, true),
    e2e("qdtt_gain", "ratio", Better::Higher, 0.15, true),
    e2e("cost_err", "ratio", Better::Lower, 0.10, true),
    e2e("sim_p50_ms", "sim_ms", Better::Lower, 0.15, true),
    e2e("sim_p99_ms", "sim_ms", Better::Lower, 0.10, true),
    e2e("sim_qps", "1/sim_s", Better::Higher, 0.15, true),
    e2e("sim_commits_per_s", "1/sim_s", Better::Higher, 0.20, true),
];

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact,
    }
}

use Better::{Higher as H, Lower as L};

/// The per-layer metrics, every one emitted by every traced run (0 where
/// the workload does not touch the layer — that zero *is* the layer
/// separation the workloads were chosen for).
pub const PER_LAYER: [MetricDef; 63] = [
    layer("simkit.queue_ev_per_s", "1/s", H, false),
    layer("device.ios", "count", L, true),
    layer("device.calls", "count", L, true),
    layer("device.self_s", "s", L, false),
    layer("device.ns_per_io", "ns", L, false),
    layer("device.raw_ios_per_s.hdd", "1/s", H, false),
    layer("device.raw_ios_per_s.ssd", "1/s", H, false),
    layer("device.raw_ios_per_s.raid8", "1/s", H, false),
    layer("device.qd_achieved_frac", "ratio", H, true),
    layer("engine.steps", "count", L, true),
    layer("engine.events", "count", L, true),
    layer("engine.step_self_s", "s", L, false),
    layer("engine.ns_per_event", "ns", L, false),
    layer("driver.self_s.fts", "s", L, false),
    layer("driver.self_s.is", "s", L, false),
    layer("driver.self_s.sorted_is", "s", L, false),
    layer("driver.self_s.inl", "s", L, false),
    layer("driver.self_s.hash", "s", L, false),
    layer("driver.ns_per_page.fts", "ns", L, false),
    layer("driver.ns_per_page.is", "ns", L, false),
    layer("driver.ns_per_page.sorted_is", "ns", L, false),
    layer("driver.ns_per_page.inl", "ns", L, false),
    layer("driver.ns_per_page.hash", "ns", L, false),
    layer("bufpool.hits", "count", H, true),
    layer("bufpool.misses", "count", L, true),
    layer("bufpool.evictions", "count", L, true),
    layer("bufpool.refetches", "count", L, true),
    layer("bufpool.hit_rate", "ratio", H, true),
    layer("bufpool.prefetch_eff", "ratio", H, true),
    layer("bufpool.replay_acc_per_s.hit", "1/s", H, false),
    layer("bufpool.replay_acc_per_s.miss", "1/s", H, false),
    layer("storage.build_s", "s", L, false),
    layer("storage.index_lookups_per_s", "1/s", H, false),
    layer("core.calibrate_s.hdd", "s", L, false),
    layer("core.calibrate_s.ssd", "s", L, false),
    layer("core.calibrate_s.raid8", "s", L, false),
    layer("core.calib_reads", "count", L, true),
    layer("core.calib_early_stop_frac", "ratio", H, true),
    layer("core.qdtt_cost_ns", "ns", L, false),
    layer("core.surface_err", "ratio", L, true),
    layer("optimizer.choose_ns", "ns", L, false),
    layer("optimizer.admit_ns", "ns", L, false),
    layer("optimizer.admits", "count", L, true),
    layer("optimizer.pick_agree", "ratio", H, true),
    layer("optimizer.est_ratio_p50", "ratio", L, true),
    layer("optimizer.est_ratio_max", "ratio", L, true),
    layer("optimizer.mean_lease_depth", "count", H, true),
    layer("session.queries", "count", H, true),
    layer("session.attach_rate", "ratio", H, true),
    layer("session.cursor_starts", "count", L, true),
    layer("session.us_per_query.shared", "us", L, false),
    layer("session.us_per_query.unshared", "us", L, false),
    layer("session.rest_self_s", "s", L, false),
    layer("write.commits", "count", H, true),
    layer("write.wal_pages_per_commit", "ratio", L, true),
    layer("write.flushes_per_commit", "ratio", L, true),
    layer("write.checkpoints", "count", L, true),
    layer("write.pages_replayed", "count", L, true),
    layer("write.only_commits_per_s", "1/s", H, false),
    layer("write.recover_s", "s", L, false),
    layer("obs.metrics_on_ratio", "ratio", L, false),
    layer("trace.overhead", "ratio", L, false),
    layer("trace.residual_frac", "ratio", L, false),
];

/// A value for a table column: six decimals where they mean something,
/// fewer on large counts and rates (the result record keeps every digit).
pub fn fmt_value(v: f64) -> String {
    match v.abs() {
        a if a >= 1e6 => format!("{v:.0}"),
        a if a >= 1e3 => format!("{v:.2}"),
        _ => format!("{v:.6}"),
    }
}

/// `num / den`, 0 when nothing was counted (a layer the workload does not
/// touch reads 0, never NaN).
pub fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Content)>) -> Content {
    Content::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Every name of `defs` at 0 — per-layer tables start here so a workload
/// only fills in the layers it touches.
pub fn zeroed(defs: &[MetricDef]) -> Values {
    defs.iter().map(|d| (d.name, 0.0)).collect()
}

/// One failed op.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Index in the workload's op list.
    pub op: usize,
    /// What went wrong.
    pub reason: String,
}

/// The record a run prints as its last stdout line.
pub fn result_line(defs: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    let metrics: Vec<(String, Content)> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            (
                d.name.to_string(),
                obj(vec![
                    ("value", Content::F64(v)),
                    ("unit", Content::Str(d.unit.to_string())),
                ]),
            )
        })
        .collect();
    let doc = obj(vec![
        ("correct", Content::Bool(failed == 0)),
        ("attempted", Content::U64(attempted)),
        ("failed", Content::U64(failed)),
        ("metrics", Content::Map(metrics)),
    ]);
    serde_json::to_string(&doc).expect("a Content tree always renders")
}

/// The first line of a command's stdout, or "unknown".
fn command_line(cmd: &str, args: &[&str]) -> String {
    // Run from the benchmark's own directory, and keep git from climbing
    // out of the checkout in search of a repository.
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let ceiling = here
        .parent()
        .and_then(std::path::Path::parent)
        .unwrap_or(here);
    std::process::Command::new(cmd)
        .args(args)
        .current_dir(here)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What produced the numbers: recorded in every results file.
pub fn host_info(seed: u64, passes: usize, quick: bool) -> Content {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let profile =
        "release: opt-level=3, lto=thin, debug=line-tables-only; one host thread, PIOQO_THREADS=1";
    obj(vec![
        ("seed", Content::U64(seed)),
        ("passes", Content::U64(passes as u64)),
        ("quick", Content::Bool(quick)),
        (
            "git_commit",
            Content::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Content::Str(command_line("rustc", &["-V"]))),
        ("profile", Content::Str(profile.to_string())),
        ("nproc", Content::U64(nproc)),
        ("cpu_model", Content::Str(cpu_model)),
    ])
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_ok(defs: &[MetricDef]) {
        let mut seen = std::collections::BTreeSet::new();
        for d in defs {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!((0.0..=0.25).contains(&d.bound));
        }
    }

    #[test]
    fn metric_tables_obey_the_naming_contract() {
        names_ok(&END_TO_END);
        names_ok(&PER_LAYER);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    /// `BENCHMARK.json` is the contract later PRs are judged on; it must
    /// list exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::from_str_content(&text).expect("valid JSON");
        let Content::Map(top) = doc else {
            panic!("top level must be an object")
        };
        let section = |key: &str| -> Vec<Vec<(String, Content)>> {
            let Some((_, Content::Seq(items))) = top.iter().find(|(k, _)| k == key) else {
                panic!("missing {key}")
            };
            items
                .iter()
                .map(|i| match i {
                    Content::Map(f) => f.clone(),
                    _ => panic!("{key} entries are objects"),
                })
                .collect()
        };
        let field = |f: &[(String, Content)], k: &str| -> Content {
            f.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.clone())
                .unwrap_or(Content::Null)
        };
        for (key, defs, bounded) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let listed = section(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (f, d) in listed.iter().zip(defs) {
                assert_eq!(field(f, "name"), Content::Str(d.name.into()), "{key}");
                assert_eq!(field(f, "unit"), Content::Str(d.unit.into()), "{}", d.name);
                assert_eq!(
                    field(f, "better"),
                    Content::Str(d.better.as_str().into()),
                    "{}",
                    d.name
                );
                if bounded {
                    assert_eq!(field(f, "bound"), Content::F64(d.bound), "{}", d.name);
                } else {
                    assert_eq!(f.len(), 3, "{} carries no bound", d.name);
                }
            }
        }
        let workloads: Vec<Content> = section("workloads")
            .iter()
            .map(|f| field(f, "name"))
            .collect();
        let want: Vec<Content> = crate::workloads::NAMES
            .iter()
            .map(|n| Content::Str((*n).into()))
            .collect();
        assert_eq!(workloads, want);
    }
}
