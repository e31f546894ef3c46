//! Tier-1 integration tests: the real workspace must be clean under the
//! committed `lint.toml`, and the known-bad fixture tree must trip every
//! rule. Both call the library API directly so `cargo test` needs no
//! nested cargo invocation.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// `<repo root>` — the lint crate lives at `<root>/crates/lint`.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate manifest dir has a crates/ parent and a workspace root")
        .to_path_buf()
}

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("bad_workspace")
}

#[test]
fn workspace_is_clean_under_committed_allowlist() {
    let root = workspace_root();
    let config = pioqo_lint::load_config(&root.join("lint.toml"))
        .expect("workspace lint.toml parses without errors");
    let report = pioqo_lint::check_workspace(&root, &config)
        .expect("workspace scan reads every crate source file");
    assert!(
        report.is_clean(),
        "workspace has lint violations or stale allowlist entries:\n{}",
        report.render_table()
    );
    assert!(
        report.stale_allows.is_empty(),
        "lint.toml carries entries that suppress nothing: {:?}",
        report.stale_allows
    );
    assert!(
        report.files_checked > 40,
        "scan looks truncated: only {} files checked",
        report.files_checked
    );
}

#[test]
fn fixtures_trip_every_rule() {
    let report = pioqo_lint::check_workspace(&fixture_root(), &pioqo_lint::LintConfig::default())
        .expect("fixture scan succeeds");
    assert!(!report.is_clean());

    let fired: BTreeSet<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
    let expected: BTreeSet<&str> = ["D1", "D2", "D3", "D4", "D5", "D6", "D7"].into();
    assert_eq!(
        fired,
        expected,
        "every rule D1-D7 must fire on the known-bad fixture:\n{}",
        report.render_table()
    );

    // All findings point into the bad crate; the clean fixture crate and
    // the #[cfg(test)] region of the bad crate stay silent.
    for d in &report.diagnostics {
        assert_eq!(
            d.path, "crates/simkit/src/lib.rs",
            "unexpected finding outside the known-bad file: {d:?}"
        );
    }
    let test_region_line = 51; // the #[cfg(test)] attribute in the fixture
    for d in &report.diagnostics {
        assert!(
            d.line < test_region_line,
            "finding leaked out of the exempt test region: {d:?}"
        );
    }

    // The wall-clock trace sink (lines 37-48) must trip D1: a sink runs
    // inside the simulation, so reading SystemTime there is exactly the
    // determinism leak the observability layer must never introduce.
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "D1" && (37..test_region_line).contains(&d.line)),
        "no D1 finding on the wall-clock trace sink:\n{}",
        report.render_table()
    );
}

/// The concurrency layer lives in `exec/src/session.rs`; `exec` is in the
/// sim-crate determinism set, and module files must get the same scrutiny
/// as the crate root. The fixture plants the three classic multi-session
/// determinism bugs (wall-clock admission stamps, HashMap session tables,
/// host threads) in a session module and expects D1, D3 and D7 to fire
/// there — and nowhere else in the tree.
#[test]
fn session_module_is_in_the_sim_crate_determinism_set() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("session_module");
    let report = pioqo_lint::check_workspace(&root, &pioqo_lint::LintConfig::default())
        .expect("session fixture scan succeeds");

    for d in &report.diagnostics {
        assert_eq!(
            d.path, "crates/exec/src/session.rs",
            "the clean crate root must stay silent: {d:?}"
        );
    }
    let fired: BTreeSet<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
    for rule in ["D1", "D3", "D7"] {
        assert!(
            fired.contains(rule),
            "{rule} must fire on the session module:\n{}",
            report.render_table()
        );
    }
}

/// The query layer (`exec/src/query.rs`, `exec/src/join.rs`) is sim-crate
/// code like any other executor module. The fixture plants the two bugs
/// a predicate/join layer is most tempted by — wall-clock strategy timing
/// (D1) and a hasher-ordered join build table (D3) — and expects both to
/// fire in the query module, and nowhere else in the tree. (A cloned RNG
/// stream, the third, does not compile: `SimRng` is not `Clone`.)
#[test]
fn query_module_is_in_the_sim_crate_determinism_set() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("query_module");
    let report = pioqo_lint::check_workspace(&root, &pioqo_lint::LintConfig::default())
        .expect("query fixture scan succeeds");

    for d in &report.diagnostics {
        assert_eq!(
            d.path, "crates/exec/src/query.rs",
            "the clean crate root must stay silent: {d:?}"
        );
    }
    let fired: BTreeSet<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
    for rule in ["D1", "D3"] {
        assert!(
            fired.contains(rule),
            "{rule} must fire on the query module:\n{}",
            report.render_table()
        );
    }
}

/// The write path lives in `bufpool/src/wal.rs` and `exec/src/write.rs`;
/// both crates are in the sim-crate determinism set, so a WAL module that
/// stamps commits with the host's wall clock must trip D1 exactly as the
/// crate root would. The fixture plants `SystemTime::now()` in a WAL
/// append and expects D1 there — and nothing from the clean crate root.
#[test]
fn wal_module_is_in_the_sim_crate_determinism_set() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("wal_module");
    let report = pioqo_lint::check_workspace(&root, &pioqo_lint::LintConfig::default())
        .expect("wal fixture scan succeeds");

    for d in &report.diagnostics {
        assert_eq!(
            d.path, "crates/bufpool/src/wal.rs",
            "the clean crate root must stay silent: {d:?}"
        );
    }
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "D1" && d.snippet.contains("SystemTime")),
        "D1 must fire on the wall-clock WAL stamp:\n{}",
        report.render_table()
    );
}

/// A metrics sink that stamps samples with the host clock breaks the
/// byte-determinism contract of the metrics layer; `obs` is a sim crate,
/// so D1 must fire on it. The same tree carries the harness-profiler
/// near-miss: a `profiler` crate reading `Instant` by design, which D1
/// also flags under the default config — and which the workspace-style
/// allowlist entry must suppress *as a used (non-stale) entry* while
/// leaving the sim-crate finding alone.
#[test]
fn wall_clock_metrics_sink_trips_d1_and_profiler_allow_is_a_near_miss() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("metrics_module");

    // Default config: both the sim-crate sink and the harness profiler
    // read the wall clock, so D1 fires in both files.
    let report = pioqo_lint::check_workspace(&root, &pioqo_lint::LintConfig::default())
        .expect("metrics fixture scan succeeds");
    let d1_paths: BTreeSet<&str> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "D1")
        .map(|d| d.path.as_str())
        .collect();
    assert!(
        d1_paths.contains("crates/obs/src/metrics_sink.rs"),
        "D1 must fire on the wall-clock metrics sink:\n{}",
        report.render_table()
    );
    assert!(
        d1_paths.contains("crates/profiler/src/lib.rs"),
        "D1 must fire on the unallowlisted profiler:\n{}",
        report.render_table()
    );

    // With the workspace-style allow entry, the profiler goes quiet (and
    // the entry counts as used), while the sim-crate sink still fails.
    let config = pioqo_lint::config::parse_config(
        r#"
[[allow]]
rule = "D1"
path = "crates/profiler/src/lib.rs"
reason = "harness-only self-profiler; wall clock is its job"
"#,
    )
    .expect("inline config parses");
    let report =
        pioqo_lint::check_workspace(&root, &config).expect("metrics fixture scan succeeds");
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.path == "crates/profiler/src/lib.rs"),
        "the allowlisted profiler must stay silent:\n{}",
        report.render_table()
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "D1" && d.path == "crates/obs/src/metrics_sink.rs"),
        "the sim-crate sink must keep failing:\n{}",
        report.render_table()
    );
    assert!(
        report.stale_allows.is_empty(),
        "the profiler allow entry suppressed a real finding and must not be stale: {:?}",
        report.stale_allows
    );
}

/// Allowlist entries that no longer suppress anything are themselves
/// errors: a matched entry stays quiet, an unmatched one is reported as
/// stale and makes the report dirty.
#[test]
fn stale_allowlist_entries_are_reported() {
    let config = pioqo_lint::config::parse_config(
        r#"
[[allow]]
rule = "D1"
path = "crates/simkit/src/lib.rs"
reason = "used entry: the fixture really trips D1 here"

[[allow]]
rule = "D7"
path = "crates/okcrate/src/lib.rs"
reason = "stale entry: the clean crate never trips D7"
"#,
    )
    .expect("inline config parses");
    let report =
        pioqo_lint::check_workspace(&fixture_root(), &config).expect("fixture scan succeeds");
    assert_eq!(
        report.stale_allows,
        vec!["D7 crates/okcrate/src/lib.rs".to_string()],
        "exactly the unmatched entry is stale"
    );
    assert!(!report.is_clean(), "stale allows must fail the check");
    assert!(
        report.render_table().contains("STALE ALLOW"),
        "stale entries must show up in the human-readable table"
    );
}

#[test]
fn allowlist_suppresses_matching_rule_only() {
    let config = pioqo_lint::config::parse_config(
        r#"
[[allow]]
rule = "D1"
path = "crates/simkit/src/lib.rs"
reason = "fixture exercise"
"#,
    )
    .expect("inline config parses");
    let report =
        pioqo_lint::check_workspace(&fixture_root(), &config).expect("fixture scan succeeds");
    assert!(!report.diagnostics.iter().any(|d| d.rule == "D1"));
    assert!(report.diagnostics.iter().any(|d| d.rule == "D2"));
}

#[test]
fn json_report_is_machine_readable() {
    let report = pioqo_lint::check_workspace(&fixture_root(), &pioqo_lint::LintConfig::default())
        .expect("fixture scan succeeds");
    let json = serde_json::to_string_pretty(&report).expect("report serializes to JSON");
    for key in [
        "\"files_checked\"",
        "\"diagnostics\"",
        "\"rule\"",
        "\"path\"",
        "\"line\"",
        "\"message\"",
        "\"snippet\"",
    ] {
        assert!(json.contains(key), "JSON report missing {key}:\n{json}");
    }
    // The JSON must parse back as a generic document.
    let parsed = serde_json::from_str_content(&json).expect("emitted JSON parses");
    let _ = parsed;
}
