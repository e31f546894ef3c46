//! `pioqo-benchmark` — the repo's single benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--selfcheck]
//! ```
//!
//! With `--workload` it runs that workload in this process and prints its
//! metrics, the last stdout line being the result record (`--trace 0`: the
//! end-to-end metrics from untraced passes; `--trace 1`: the per-layer
//! metrics from one traced pass). Without `--workload` it runs every
//! workload, each in a fresh child process so peak RSS and allocator state
//! are per workload. `--selfcheck` runs the suite twice and requires exact
//! metrics to be equal and host-time ones to agree within their bounds.
//! See README.md for the method, the metric x workload matrix and the
//! frozen list of public functions this crate calls.

mod probes;
mod report;
mod run;
mod runner;
mod timing;
mod trace;
mod workloads;

use report::{fmt_value, Better, MetricDef, END_TO_END, PER_LAYER};
use run::{run_workload, Opts};
use serde::Content;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use workloads::{
    calib_plan::CalibPlan, cold_grid::ColdGrid, sessions_rw::SessionsRw, warm_mix::WarmMix,
    Workload, NAMES,
};

/// `--seconds` when the caller gives none; `BENCHMARK.json` records the
/// same number as `run_seconds`.
const DEFAULT_SECONDS: u64 = 18;

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: pioqo-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--selfcheck]",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // One host thread: harness parallelism (`simkit::par`) is deliberately
    // not measured, and nothing below may fan out behind our back.
    std::env::set_var("PIOQO_THREADS", "1");

    let mut opts = Opts {
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut workload: Option<String> = None;
    let mut selfcheck = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        let parsed: Result<(), String> = (|| {
            match arg.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    let v = value()?;
                    opts.seed = v
                        .parse()
                        .map_err(|_| format!("--seed {v}: not an unsigned integer"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    opts.seconds = match v.parse() {
                        Ok(n) if n >= 1 => n,
                        _ => return Err(format!("--seconds {v}: not a positive integer")),
                    };
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace {v}: expected 0 or 1")),
                    };
                }
                "--quick" => opts.quick = true,
                "--selfcheck" => selfcheck = true,
                other => return Err(format!("unknown argument {other}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            return usage(&e);
        }
    }

    match workload.as_deref() {
        Some(ColdGrid::NAME) => run_workload::<ColdGrid>(&opts),
        Some(WarmMix::NAME) => run_workload::<WarmMix>(&opts),
        Some(CalibPlan::NAME) => run_workload::<CalibPlan>(&opts),
        Some(SessionsRw::NAME) => run_workload::<SessionsRw>(&opts),
        Some(other) => return usage(&format!("unknown workload {other}")),
        None if selfcheck => return self_check(&opts),
        None => {
            return match suite(&opts) {
                Some(r) if r.failed == 0 => ExitCode::SUCCESS,
                _ => ExitCode::FAILURE,
            }
        }
    }
    ExitCode::SUCCESS
}

/// One suite run: metric values by workload, and the failed-op total.
struct SuiteResult {
    values: BTreeMap<&'static str, BTreeMap<String, f64>>,
    failed: u64,
}

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Run one workload in a child process and parse its result line.
fn child(name: &str, opts: &Opts) -> Option<(BTreeMap<String, f64>, u64, u64)> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child; its stderr (panic messages of failed
    // ops) passes through.
    let out = cmd.stderr(std::process::Stdio::inherit()).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last()?;
    // Everything above the result line is the child's own table.
    for line in text.lines().take(text.lines().count().saturating_sub(1)) {
        println!("{line}");
    }
    if !out.status.success() {
        eprintln!("{name}: child exited with {}", out.status);
        return None;
    }
    let Content::Map(fields) = serde_json::from_str_content(last).ok()? else {
        return None;
    };
    let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    let count = |k: &str| match get(k) {
        Some(Content::U64(n)) => Some(*n),
        _ => None,
    };
    let Some(Content::Map(metrics)) = get("metrics") else {
        return None;
    };
    let mut values = BTreeMap::new();
    for (metric, body) in metrics {
        let Content::Map(body) = body else {
            return None;
        };
        let v = match body.iter().find(|(n, _)| n == "value").map(|(_, v)| v) {
            Some(Content::F64(f)) => *f,
            Some(Content::U64(n)) => *n as f64,
            Some(Content::I64(n)) => *n as f64,
            _ => return None,
        };
        values.insert(metric.clone(), v);
    }
    Some((values, count("attempted")?, count("failed")?))
}

/// Every workload, one child process at a time, then the metric x
/// workload matrix.
fn suite(opts: &Opts) -> Option<SuiteResult> {
    let mut result = SuiteResult {
        values: BTreeMap::new(),
        failed: 0,
    };
    for name in NAMES {
        let (values, attempted, failed) = child(name, opts)?;
        println!(
            "{name}: {failed} of {attempted} ops failed (failed_frac {:.6})\n",
            failed as f64 / attempted as f64
        );
        result.failed += failed;
        result.values.insert(name, values);
    }
    println!(
        "{:<34} {:<8} {:<6} {:>6} {}",
        "metric",
        "unit",
        "better",
        "bound",
        NAMES.map(|n| format!("{n:>17}")).join("")
    );
    for d in defs(opts.trace) {
        let cells: String = NAMES
            .iter()
            .map(|n| {
                format!(
                    "{:>17}",
                    fmt_value(result.values[n].get(d.name).copied().unwrap_or(0.0))
                )
            })
            .collect();
        let bound = if opts.trace {
            "-".to_string()
        } else {
            format!("{:.0}%", d.bound * 100.0)
        };
        println!(
            "{:<34} {:<8} {:<6} {:>6} {cells}",
            d.name,
            d.unit,
            d.better.as_str(),
            bound
        );
    }
    Some(result)
}

/// Two complete suite runs of the same build must agree: exact metrics
/// bit-for-bit, host-time ones within their bounds.
fn self_check(opts: &Opts) -> ExitCode {
    let opts = Opts {
        trace: false,
        ..opts.clone()
    };
    let (Some(a), Some(b)) = (suite(&opts), suite(&opts)) else {
        eprintln!("selfcheck: a suite run did not complete");
        return ExitCode::FAILURE;
    };
    let mut bad = a.failed + b.failed;
    println!("\nselfcheck: run 1 vs run 2 (spread = |a - b| / min(a, b))");
    for name in NAMES {
        for d in &END_TO_END {
            let (x, y) = (a.values[name][d.name], b.values[name][d.name]);
            let spread = (x - y).abs() / x.min(y);
            let ok = if d.exact {
                x.to_bits() == y.to_bits()
            } else {
                // The second run may not be worse than the first by more
                // than the bound, nor the first worse than the second.
                let (worse, better) = match d.better {
                    Better::Lower => (x.max(y), x.min(y)),
                    Better::Higher => (x.min(y), x.max(y)),
                };
                (worse - better).abs() / better <= d.bound
            };
            println!(
                "  {name:<12} {:<20} {x:>16.6} {y:>16.6} spread {:>7.3}% {} {}",
                d.name,
                spread * 100.0,
                if d.exact { "exact" } else { "host " },
                if ok { "ok" } else { "MISMATCH" }
            );
            if !ok {
                bad += 1;
            }
        }
    }
    if bad == 0 {
        println!("selfcheck: PASS");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: FAIL ({bad} problems)");
        ExitCode::FAILURE
    }
}
