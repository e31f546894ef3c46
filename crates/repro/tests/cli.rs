//! End-to-end CLI tests for the `repro` binary: argument validation and
//! thread-count-invariant (byte-identical) CSV output.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A unique empty scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pioqo-repro-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch results directory");
    dir
}

#[test]
fn rejects_zero_scale_and_threads() {
    for flag in ["--scale", "--threads"] {
        let out = repro()
            .args([flag, "0", "table1"])
            .output()
            .expect("spawn repro binary");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} 0 must exit with a usage error"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("positive integer"),
            "{flag} 0 should explain the constraint, got: {err}"
        );
    }
}

#[test]
fn rejects_non_numeric_and_missing_flag_values() {
    for args in [&["--scale", "eight", "table1"][..], &["--scale"][..]] {
        let out = repro().args(args).output().expect("spawn repro binary");
        assert_eq!(out.status.code(), Some(2), "bad value for {args:?}");
    }
}

#[test]
fn rejects_unknown_target() {
    let out = repro().arg("fig99").output().expect("spawn repro binary");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn retired_flags_are_rejected_as_unknown_targets() {
    for flag in [
        "--reps",
        "--buffer-mb",
        "--trace",
        "--metrics",
        "--concurrency",
        "--joins",
        "--interference",
        "--session-scale",
        "--session-export",
        "--trace-seed",
        "--metrics-seed",
        "--conc-seed",
    ] {
        let out = repro()
            .args([flag, "7", "table1"])
            .output()
            .expect("spawn repro binary");
        assert_eq!(out.status.code(), Some(2), "{flag} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown target '{flag}'")),
            "{flag} should be named as an unknown target, got: {err}"
        );
    }
}

#[test]
fn rescaled_or_reseeded_csv_runs_need_a_results_directory() {
    let dir = scratch("goldens");
    for args in [
        &["--scale", "64", "table1"][..],
        &["fig1", "--seed", "7"][..],
    ] {
        let out = repro()
            .args(args)
            .env_remove("PIOQO_RESULTS")
            .current_dir(&dir)
            .output()
            .expect("spawn repro binary");
        assert_eq!(out.status.code(), Some(2), "{args:?} must be refused");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("PIOQO_RESULTS"), "{args:?}: {err}");
        assert!(!dir.join("results").exists(), "{args:?} wrote results/");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_lists_csv_and_bundle_targets() {
    let out = repro().arg("--help").output().expect("spawn repro binary");
    let err = String::from_utf8_lossy(&out.stderr);
    for word in ["concurrency-grid", "session-export", "--seed", "`all`"] {
        assert!(err.contains(word), "--help should mention {word}: {err}");
    }
}

#[test]
fn help_exits_cleanly() {
    let out = repro().arg("--help").output().expect("spawn repro binary");
    assert_eq!(out.status.code(), Some(0));
}

/// Thread count is invisible in the results. Run `fig1 fig4` (device
/// measurements + four-method sweep over six experiments) and the four
/// session-engine grids at 1 and at 4 harness threads and require every
/// CSV to be byte-identical. CI's golden gate repeats this for every
/// target at full scale, and its second-seed job at `--scale 4`; the
/// in-tree test uses a smaller scale to stay fast in debug builds.
#[test]
fn csv_output_is_byte_identical_across_thread_counts() {
    let dir1 = scratch("t1");
    let dir4 = scratch("t4");
    for (threads, dir) in [("1", &dir1), ("4", &dir4)] {
        let out = repro()
            .args(["fig1", "fig4", "concurrency-grid", "joins"])
            .args(["interference", "session-scale"])
            .args(["--scale", "64", "--threads", threads])
            .env("PIOQO_RESULTS", dir)
            .env_remove("PIOQO_THREADS")
            .output()
            .expect("spawn repro binary");
        assert!(
            out.status.success(),
            "repro --threads {threads} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let mut names: Vec<String> = std::fs::read_dir(&dir1)
        .expect("read results directory")
        .map(|e| {
            e.expect("read results directory entry")
                .file_name()
                .into_string()
                .expect("csv file names are valid unicode")
        })
        .collect();
    names.sort();
    for stem in [
        "fig1",
        "fig4",
        "concurrency_grid",
        "join_crossover",
        "interference",
        "session_scale",
    ] {
        assert!(
            names.iter().any(|n| n.starts_with(stem)),
            "expected a {stem} CSV, got {names:?}"
        );
    }
    for name in &names {
        let a = std::fs::read(dir1.join(name)).expect("read single-thread csv");
        let b = std::fs::read(dir4.join(name)).expect("read four-thread csv");
        assert_eq!(a, b, "{name} differs between --threads 1 and --threads 4");
    }

    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}
