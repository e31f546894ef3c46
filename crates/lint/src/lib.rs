//! Workspace determinism and unit-safety linter (`pioqo-lint`).
//!
//! The whole point of this workspace is that a seed reproduces a run
//! bit-for-bit; that property is easy to break silently (one `Instant::now`,
//! one `HashMap` iteration in a scheduling decision, one host thread).
//! This crate is a purpose-built static-analysis pass that walks
//! every `.rs` file under `crates/` and enforces the project's
//! determinism invariants D1-D7 — see [`rules`] for the catalogue. All
//! seven are token-level scans over comment- and literal-masked source
//! ([`lexer`]) — no rustc or syn dependency. Invariants a type, a runtime
//! assert or rustc already enforces are left to them (DESIGN.md §14).
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p pioqo-lint -- check              # human table, exit 1 on findings
//! cargo run -p pioqo-lint -- check --json       # machine-readable diagnostics
//! cargo run -p pioqo-lint -- explain D4         # rule rationale
//! ```
//!
//! Deliberate exceptions live in `lint.toml` ([`config`]); each carries a
//! mandatory reason, and an entry that no longer suppresses any finding
//! is itself an error (stale suppressions hide regressions). Files under
//! `tests/`, `benches/`, and `examples/` directories are harness code and
//! are not scanned, and the trailing `#[cfg(test)]` region of a library
//! file is exempt from every rule except D6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod explain;
pub mod lexer;
pub mod metrics_check;
pub mod rules;
pub mod trace_check;

pub use config::{load_config, LintConfig, LintError};
pub use diag::{Diagnostic, Report};
pub use metrics_check::validate_prometheus;
pub use trace_check::validate_chrome_trace;

use std::path::{Path, PathBuf};

/// Directory names never descended into while scanning.
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", "fixtures", "tests", "benches", "examples",
];

/// Lint every crate under `<root>/crates/`, applying the allowlist.
///
/// Diagnostics come back sorted by path, then line, then rule, so output
/// is stable across runs and platforms. Allowlist entries that suppressed
/// nothing are reported as stale — a stale entry means the exception it
/// documented no longer exists, and leaving it around would silently
/// swallow a future regression at that path.
pub fn check_workspace(root: &Path, config: &LintConfig) -> Result<Report, LintError> {
    let crates_dir = root.join("crates");
    let mut crate_dirs = list_dirs(&crates_dir)?;
    crate_dirs.sort();

    let mut diagnostics = Vec::new();
    let mut entry_used = vec![false; config.allow.len()];
    let mut files_checked = 0u64;
    for crate_dir in &crate_dirs {
        let crate_name = file_name_str(crate_dir)?;
        let is_lib_crate = crate_dir.join("src").join("lib.rs").is_file();
        let mut files = Vec::new();
        collect_rs_files(crate_dir, &mut files)?;
        files.sort();
        for file in files {
            let original = std::fs::read_to_string(&file)
                .map_err(|e| LintError(format!("cannot read {}: {e}", file.display())))?;
            let rel_path = relative_path(root, &file)?;
            let mut found = Vec::new();
            rules::check_file(
                &rules::FileInput {
                    rel_path: &rel_path,
                    crate_dir: &crate_name,
                    is_lib_crate,
                    is_lib_root: is_lib_crate && rel_path.ends_with("/src/lib.rs"),
                    original: &original,
                },
                &mut found,
            );
            files_checked += 1;
            for d in found {
                match config.matching_entry(&d.rule, &d.path) {
                    Some(idx) => entry_used[idx] = true,
                    None => diagnostics.push(d),
                }
            }
        }
    }
    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.as_str()).cmp(&(b.path.as_str(), b.line, b.rule.as_str()))
    });
    let stale_allows = config
        .allow
        .iter()
        .zip(&entry_used)
        .filter(|(_, used)| !**used)
        .map(|(e, _)| format!("{} {}", e.rule, e.path))
        .collect();
    Ok(Report {
        files_checked,
        diagnostics,
        stale_allows,
    })
}

/// Immediate subdirectories of `dir`.
fn list_dirs(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| LintError(format!("cannot list {}: {e}", dir.display())))?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| LintError(format!("cannot list {}: {e}", dir.display())))?;
        let path = entry.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    Ok(out)
}

/// Recursively gather `.rs` files, skipping [`SKIP_DIRS`] and dotdirs.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| LintError(format!("cannot list {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError(format!("cannot list {}: {e}", dir.display())))?;
        let path = entry.path();
        let name = file_name_str(&path)?;
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Final path component as UTF-8.
fn file_name_str(path: &Path) -> Result<String, LintError> {
    path.file_name()
        .and_then(|n| n.to_str())
        .map(|n| n.to_string())
        .ok_or_else(|| LintError(format!("non-UTF-8 path: {}", path.display())))
}

/// `file` relative to `root`, `/`-separated regardless of platform.
fn relative_path(root: &Path, file: &Path) -> Result<String, LintError> {
    let rel = file
        .strip_prefix(root)
        .map_err(|_| LintError(format!("{} is outside {}", file.display(), root.display())))?;
    let mut parts = Vec::new();
    for comp in rel.components() {
        let s = comp
            .as_os_str()
            .to_str()
            .ok_or_else(|| LintError(format!("non-UTF-8 path: {}", file.display())))?;
        parts.push(s);
    }
    Ok(parts.join("/"))
}
