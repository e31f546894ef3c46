//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--scale N] [--reps N] [--buffer-mb N] [--threads N] [--seed N]
//!       [--profile DIR] <target>...
//!   CSV targets (all of them: `all`):
//!     fig1 table1 fig4 table2 table3 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//!     fig12 ablation concurrency accuracy
//!     concurrency-grid joins interference session-scale
//!   bundle targets: trace metrics session-export
//! ```
//!
//! `--scale N` divides experiment row counts by N (quick runs);
//! `--reps N` sets calibration repetitions for the AW/GW figures;
//! `--threads N` sets the harness thread count (equivalent to the
//! `PIOQO_THREADS` environment variable — results are byte-identical at
//! any thread count, threads only change wall-clock time);
//! `--seed N` varies the dataset/device seed of the seeded targets — the
//! four grids and `session-export` (default 42), `trace` and `metrics`
//! (default 0); the paper figures carry their Table 1 seeds and ignore it;
//! `--profile DIR` turns on the wall-clock self-profiler for the whole
//! run and writes `profile.folded` (collapsed stacks, inferno /
//! speedscope-loadable) and `profile.txt` (per-thread phase table) into
//! DIR. Profile output is wall-clock and therefore NOT deterministic.
//!
//! A CSV target prints an aligned text table and writes its CSVs under
//! `results/` (override with `PIOQO_RESULTS`); every one of those files is
//! committed as a golden (full scale and `--scale 4`), and `all` runs
//! every CSV target. Beyond the paper's figures: `concurrency-grid` is
//! the sessions ∈ {1,2,4,8,16} × device grid under QDTT-aware admission
//! (`concurrency_grid*.csv`); `joins` the join-crossover grid — both join
//! methods costed under the cell's queue-depth lease, the pick validated
//! by executing both (`join_crossover*.csv`); `interference` the
//! scan-vs-checkpoint sweep, scan p99 with the background flusher off vs
//! on (`interference*.csv`); `session-scale` the 1K/10K-session
//! overlapping-scan sweep with the shared-scan cursor off vs on
//! (`session_scale*.csv`).
//!
//! A bundle target (`bundles.rs` lists the documents of each) writes
//! several documents into `results/<target>/` (git-ignored; not part of
//! `all`), byte-identical at any thread count.

mod bundles;
mod conc;
mod devmeasure;
mod figs;
mod grids;
mod report;

use figs::Opts;
use report::write_artifacts;

/// A target name and the function it runs.
type Target = (&'static str, fn(Opts));

/// Every target that writes CSVs into `results/`, in the order `all`
/// runs them. A grid added here is in `all`, and so under the golden gate.
const CSV_TARGETS: &[Target] = &[
    ("fig1", figs::fig1),
    ("table1", figs::table1),
    ("fig4", figs::fig4),
    ("table2", figs::table2),
    ("table3", figs::table3),
    ("fig5", figs::fig5),
    ("fig6", figs::fig6),
    ("fig7", figs::fig7),
    ("fig8", figs::fig8),
    ("fig9", figs::fig9_10_11),
    ("fig12", figs::fig12),
    ("ablation", figs::ablation),
    ("concurrency", figs::concurrency),
    ("accuracy", figs::accuracy),
    ("concurrency-grid", conc::concurrency),
    ("joins", conc::joins),
    ("interference", conc::interference),
    ("session-scale", conc::session_scale),
];

/// Targets that write a multi-file bundle into `results/<target>/`.
const BUNDLE_TARGETS: &[Target] = &[
    ("trace", bundles::trace),
    ("metrics", bundles::metrics),
    ("session-export", bundles::session),
];

/// Flags earlier versions took, with what replaces each.
const REMOVED_FLAGS: &[(&str, &str)] = &[
    ("--trace", "the `trace` target"),
    ("--metrics", "the `metrics` target"),
    ("--concurrency", "the `concurrency-grid` target"),
    ("--joins", "the `joins` target"),
    ("--interference", "the `interference` target"),
    ("--session-scale", "the `session-scale` target"),
    ("--session-export", "the `session-export` target"),
    ("--trace-seed", "`--seed N` with the `trace` target"),
    ("--metrics-seed", "`--seed N` with the `metrics` target"),
    ("--conc-seed", "`--seed N` with the grid targets"),
];

/// The table entries a target name runs, or `None` for an unknown name.
fn expand(target: &str) -> Option<Vec<Target>> {
    let name = match target {
        "all" => return Some(CSV_TARGETS.to_vec()),
        // One function draws all three AW/GW figures.
        "fig10" | "fig11" => "fig9",
        t => t,
    };
    CSV_TARGETS
        .iter()
        .chain(BUNDLE_TARGETS)
        .find(|&&(n, _)| n == name)
        .map(|&entry| vec![entry])
}

fn main() {
    let mut opts = Opts::default();
    let mut runs: Vec<Target> = Vec::new();
    let mut profile_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => opts.scale = parse_positive(&mut args, "--scale"),
            "--reps" => opts.reps = parse_positive(&mut args, "--reps") as u32,
            "--buffer-mb" => opts.buffer_mb = parse_positive(&mut args, "--buffer-mb"),
            "--threads" => {
                let n = parse_positive(&mut args, "--threads");
                // The harness pool reads this on every par_map call; the
                // flag is just a spelling of the environment variable.
                std::env::set_var("PIOQO_THREADS", n.to_string());
            }
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => opts.seed = Some(n),
                None => usage("--seed needs an integer"),
            },
            "--profile" => match args.next() {
                Some(dir) => profile_dir = Some(dir),
                None => usage("--profile needs an output directory"),
            },
            "--help" | "-h" => usage(""),
            t => match (expand(t), REMOVED_FLAGS.iter().find(|&&(f, _)| f == t)) {
                (Some(entries), _) => runs.extend(entries),
                (None, Some((flag, instead))) => {
                    usage(&format!("{flag} was removed: use {instead}"))
                }
                (None, None) => usage(&format!("unknown target '{t}'")),
            },
        }
    }
    if runs.is_empty() {
        usage("no target given");
    }

    if profile_dir.is_some() {
        pioqo_profiler::enable();
    }
    let started = std::time::Instant::now();
    {
        let _run = pioqo_profiler::scope("run");
        for (_, run) in runs {
            let _t = pioqo_profiler::scope("targets");
            run(opts);
        }
    }
    if let Some(dir) = profile_dir {
        let report = pioqo_profiler::report();
        write_artifacts(
            std::path::Path::new(&dir),
            &[
                ("profile.folded", &report.collapsed()),
                ("profile.txt", &report.phase_table()),
            ],
        );
        eprint!("{}", report.phase_table());
    }
    eprintln!("[done] {:.1}s wall", started.elapsed().as_secs_f64());
}

/// Parse the next argument as a strictly positive integer, or exit with a
/// usage error. `0` is rejected: a zero scale would divide row counts away
/// entirely, zero reps would produce empty statistics, and zero threads or
/// buffer pages are meaningless.
fn parse_positive(args: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    match args.next().and_then(|v| v.parse::<u64>().ok()) {
        Some(n) if n >= 1 => n,
        _ => usage(&format!("{flag} needs a positive integer (>= 1)")),
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    let names = |targets: &[Target]| {
        let names: Vec<&str> = targets.iter().map(|&(n, _)| n).collect();
        names.join(" ")
    };
    eprintln!(
        "usage: repro [--scale N] [--reps N] [--buffer-mb N] [--threads N] \
         [--seed N] [--profile DIR] <target>...\n\
         CSV targets, written to results/ and committed as goldens \
         (`all` runs every one; fig10 and fig11 are drawn by fig9):\n  {}\n\
         bundle targets, written to results/<target>/ (not in `all`):\n  {}",
        names(CSV_TARGETS),
        names(BUNDLE_TARGETS),
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_runs_every_target_that_writes_a_csv_into_results() {
        let names = |entries: &[Target]| entries.iter().map(|&(n, _)| n).collect::<Vec<_>>();
        // `all` is the CSV table itself, so a grid cannot become a target
        // without also coming under the golden gate.
        let all = names(&expand("all").expect("`all` is a target"));
        assert_eq!(all, names(CSV_TARGETS));
        for grid in ["concurrency-grid", "joins", "interference", "session-scale"] {
            assert!(all.contains(&grid), "{grid} missing from all");
        }
        // Every other name resolves to exactly itself; the bundles write
        // outside the golden files and stay out of `all`.
        for &(name, _) in CSV_TARGETS.iter().chain(BUNDLE_TARGETS) {
            assert_eq!(names(&expand(name).expect("listed target")), [name]);
        }
        for &(name, _) in BUNDLE_TARGETS {
            assert!(!all.contains(&name), "{name} must not be in all");
        }
        assert_eq!(names(&expand("fig11").expect("alias")), ["fig9"]);
        assert!(expand("fig99").is_none() && expand("--concurrency").is_none());
    }
}
