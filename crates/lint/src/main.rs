//! Command-line entry point for the workspace linter.
//!
//! ```text
//! pioqo-lint check [--root DIR] [--config FILE] [--json]
//! pioqo-lint explain RULE
//! pioqo-lint trace-check <file>...
//! pioqo-lint metrics-check <file>...
//! ```
//!
//! `check` runs the D1-D7 determinism scan; `explain` prints one rule's
//! rationale; `trace-check` validates exported Chrome trace JSON files
//! against the exporter's schema; `metrics-check` validates exported
//! Prometheus text expositions (from `repro observe`).
//!
//! Exit status: 0 when clean, 1 when any rule fired, an allowlist entry
//! is stale, or an exported artifact is malformed, 2 on usage or I/O
//! errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pioqo_lint::{check_workspace, load_config, LintError};
use std::io::Write;
use std::path::PathBuf;

const USAGE: &str = "usage: pioqo-lint check [--root DIR] [--config FILE] [--json]
       pioqo-lint explain RULE
       pioqo-lint trace-check <file>...
       pioqo-lint metrics-check <file>...

`check` enforces the workspace determinism invariants D1-D7 over every
.rs file under <root>/crates/. The allowlist is read from --config
(default: <root>/lint.toml); entries that suppress nothing are errors.
Prints a human-readable table, or a JSON report with --json.

`explain RULE` prints the invariant a rule guards and why it matters
(e.g. `pioqo-lint explain D4`).

`trace-check` validates exported Chrome trace JSON (from `repro observe`)
against the exporter's event schema.

`metrics-check` validates exported Prometheus text expositions (from
`repro observe`): TYPE-declared snake_case pioqo_* names, unique,
integer-valued samples only.

Exits 0 when clean, 1 on violations/stale allows/malformed artifacts, 2
on errors.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pioqo-lint: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Parse arguments, run the scan, print the report.
fn run(args: &[String]) -> Result<i32, LintError> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_out(USAGE);
        return Ok(0);
    }
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return Ok(2);
    };
    if command == "trace-check" {
        return run_trace_check(rest);
    }
    if command == "metrics-check" {
        return run_metrics_check(rest);
    }
    if command == "explain" {
        return run_explain(rest);
    }
    if command != "check" {
        return Err(LintError(format!(
            "unknown command {command:?}; only `check`, `explain`, `trace-check`, and \
             `metrics-check` are supported"
        )));
    }

    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut json = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| LintError("--root needs a value".to_string()))?,
                );
            }
            "--config" => {
                config_path =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        LintError("--config needs a value".to_string())
                    })?));
            }
            "--json" => json = true,
            other => return Err(LintError(format!("unknown flag {other:?}"))),
        }
    }

    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let config = load_config(&config_path)?;
    let report = check_workspace(&root, &config)?;

    if json {
        let rendered = serde_json::to_string_pretty(&report)
            .map_err(|e| LintError(format!("cannot serialize report: {e}")))?;
        print_out(&rendered);
    } else {
        let table = report.render_table();
        print_out(table.trim_end_matches('\n'));
    }
    Ok(if report.is_clean() { 0 } else { 1 })
}

/// Print the rationale for one rule identifier.
fn run_explain(args: &[String]) -> Result<i32, LintError> {
    let [rule] = args else {
        return Err(LintError(
            "explain takes exactly one rule identifier (e.g. `pioqo-lint explain D4`)".to_string(),
        ));
    };
    let id = rule.to_ascii_uppercase();
    match pioqo_lint::explain::rationale(&id) {
        Some(text) => {
            print_out(text);
            Ok(0)
        }
        None => Err(LintError(format!(
            "unknown rule {rule:?}; known rules: {}",
            pioqo_lint::rules::RULE_IDS.join(", ")
        ))),
    }
}

/// Validate each named Chrome trace JSON file against the exporter's
/// schema; exit 1 on the first malformed document.
fn run_trace_check(files: &[String]) -> Result<i32, LintError> {
    if files.is_empty() {
        return Err(LintError(
            "trace-check needs at least one trace JSON file".to_string(),
        ));
    }
    let mut code = 0;
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| LintError(format!("cannot read {file}: {e}")))?;
        match pioqo_lint::validate_chrome_trace(&text) {
            Ok(events) => print_out(&format!("{file}: ok ({events} events)")),
            Err(e) => {
                eprintln!("{file}: INVALID: {e}");
                code = 1;
            }
        }
    }
    Ok(code)
}

/// Validate each named Prometheus exposition file against the metrics
/// exporter's schema; exit 1 when any document is malformed.
fn run_metrics_check(files: &[String]) -> Result<i32, LintError> {
    if files.is_empty() {
        return Err(LintError(
            "metrics-check needs at least one Prometheus exposition file".to_string(),
        ));
    }
    let mut code = 0;
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| LintError(format!("cannot read {file}: {e}")))?;
        match pioqo_lint::validate_prometheus(&text) {
            Ok(samples) => print_out(&format!("{file}: ok ({samples} samples)")),
            Err(e) => {
                eprintln!("{file}: INVALID: {e}");
                code = 1;
            }
        }
    }
    Ok(code)
}

/// Print a line to stdout, swallowing write errors: when the consumer
/// closes the pipe early (`pioqo-lint check | head`), a failed write must
/// not panic — the exit code still carries the verdict.
fn print_out(text: &str) {
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{text}");
}
