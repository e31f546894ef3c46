//! The determinism and unit-safety rules (D1-D7).
//!
//! Every rule scans the masked source (see [`crate::lexer`]) so that
//! comments and string literals never trigger findings. Rules other than
//! D6 skip the trailing `#[cfg(test)]` region of a file; by workspace
//! convention test modules come last, and the lint treats everything from
//! the first `#[cfg(test)]` attribute to end-of-file as test code.
//!
//! All seven are token-level scans. D4 also consults
//! [`crate::lexer::find_time_typed`]: identifiers declared
//! `SimTime`/`SimDuration` are unit-safe by construction and are exempt
//! from the textual arithmetic check.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | D1   | No wall-clock types (`Instant`, `SystemTime`) — virtual time only |
//! | D2   | No ambient entropy (`thread_rng`, `OsRng`, ...) — seeded `SimRng` only |
//! | D3   | No `HashMap`/`HashSet` in simulation crates — iteration order leaks |
//! | D4   | No raw arithmetic on time-named bindings — use `SimTime`/`SimDuration` |
//! | D5   | No panics in library crates (`unwrap`, `panic!`, ...) — return errors |
//! | D6   | Library crates declare `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]` |
//! | D7   | No OS threads in simulation crates — concurrency is modeled in virtual time |

use crate::diag::Diagnostic;
use crate::lexer::{find_time_typed, is_ident_char};

/// All rule identifiers, in severity-agnostic lexical order.
pub const RULE_IDS: &[&str] = &["D1", "D2", "D3", "D4", "D5", "D6", "D7"];

/// Crates whose code runs inside the deterministic simulation; D3/D4
/// apply only here (matching the `crates/<name>` directory name).
pub const SIM_CRATES: &[&str] = &[
    "simkit",
    "device",
    "exec",
    "bufpool",
    "core",
    "optimizer",
    "obs",
];

/// Shortest `.expect("...")` message D5 accepts as descriptive.
const MIN_EXPECT_MESSAGE: usize = 10;

/// One source file plus the crate facts the rules need.
#[derive(Debug, Clone, Copy)]
pub struct FileInput<'a> {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: &'a str,
    /// Directory name of the owning crate under `crates/`.
    pub crate_dir: &'a str,
    /// True when the owning crate has a `src/lib.rs` (library crate).
    pub is_lib_crate: bool,
    /// True when this file *is* the crate's `src/lib.rs`.
    pub is_lib_root: bool,
    /// Full original source text.
    pub original: &'a str,
}

/// Byte offsets of line starts, for offset→line mapping.
struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    fn new(text: &str) -> LineIndex {
        let mut starts = vec![0];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based line number containing byte `offset`.
    fn line_of(&self, offset: usize) -> u64 {
        match self.starts.binary_search(&offset) {
            Ok(i) => i as u64 + 1,
            Err(i) => i as u64,
        }
    }

    /// The original text of the line containing byte `offset`, trimmed.
    fn snippet<'a>(&self, text: &'a str, offset: usize) -> &'a str {
        let line = self.line_of(offset) as usize - 1;
        let start = self.starts[line];
        let end = self
            .starts
            .get(line + 1)
            .map(|e| e - 1)
            .unwrap_or(text.len());
        text[start..end].trim()
    }
}

/// Run every applicable rule over one file, appending findings.
pub fn check_file(input: &FileInput<'_>, out: &mut Vec<Diagnostic>) {
    let masked = crate::lexer::mask_source(input.original);
    let lines = LineIndex::new(&masked);
    let test_start = test_region_start(&masked).unwrap_or(usize::MAX);

    let mut emit = |rule: &str, offset: usize, message: String| {
        out.push(Diagnostic {
            rule: rule.to_string(),
            path: input.rel_path.to_string(),
            line: lines.line_of(offset),
            message,
            snippet: truncate(lines.snippet(input.original, offset)),
        });
    };

    // D1: wall-clock types.
    for token in ["Instant", "SystemTime"] {
        for off in word_hits(&masked, token) {
            if off >= test_start {
                continue;
            }
            emit(
                "D1",
                off,
                format!("wall-clock type `{token}`: simulated code must use SimTime/SimDuration"),
            );
        }
    }

    // D2: ambient entropy.
    for token in [
        "thread_rng",
        "ThreadRng",
        "from_entropy",
        "OsRng",
        "getrandom",
        "RandomState",
    ] {
        for off in word_hits(&masked, token) {
            if off >= test_start {
                continue;
            }
            emit(
                "D2",
                off,
                format!("ambient entropy `{token}`: randomness must flow through a seeded SimRng"),
            );
        }
    }

    let is_sim = SIM_CRATES.contains(&input.crate_dir);

    // D3: hash-ordered collections in simulation crates.
    if is_sim {
        for token in ["HashMap", "HashSet"] {
            for off in word_hits(&masked, token) {
                if off >= test_start {
                    continue;
                }
                emit(
                    "D3",
                    off,
                    format!(
                        "`{token}` in simulation crate: iteration order is seed-independent; \
                         use BTreeMap/BTreeSet or sort before iterating"
                    ),
                );
            }
        }
    }

    // D4: raw arithmetic on time-named bindings. Identifiers declared as
    // SimTime/SimDuration are unit-safe already — the wrapper's operator
    // overloads enforce the units — so only untyped (raw-integer) time
    // names are flagged.
    if is_sim {
        let time_typed = find_time_typed(&masked);
        for (off, ident) in time_arith_hits(&masked) {
            if off >= test_start || time_typed.contains(&ident) {
                continue;
            }
            emit(
                "D4",
                off,
                format!(
                    "raw arithmetic on time-named binding `{ident}`: \
                     wrap it in SimTime/SimDuration so units cannot mix"
                ),
            );
        }
    }

    // D7: OS threading primitives in simulation crates. Harness crates
    // (repro, workload) may spawn real threads freely; inside the
    // simulation, concurrency must be modeled in virtual time, and the
    // only sanctioned real-thread site is `simkit::par` (allowlisted in
    // lint.toml with its determinism argument).
    if is_sim {
        for token in ["thread", "spawn", "JoinHandle"] {
            for off in word_hits(&masked, token) {
                if off >= test_start {
                    continue;
                }
                emit(
                    "D7",
                    off,
                    format!(
                        "OS thread primitive `{token}` in simulation crate: model concurrency \
                         in virtual time; real threads belong to the harness (simkit::par)"
                    ),
                );
            }
        }
    }

    // D5: panics in library crates.
    if input.is_lib_crate {
        for off in word_hits(&masked, "unwrap") {
            if off >= test_start || !is_method_call(&masked, off, "unwrap") {
                continue;
            }
            emit(
                "D5",
                off,
                "bare `.unwrap()` in library crate: return an error or use a descriptive `.expect()`"
                    .to_string(),
            );
        }
        for mac in ["panic", "unreachable", "todo", "unimplemented"] {
            for off in word_hits(&masked, mac) {
                if off >= test_start {
                    continue;
                }
                if masked[off + mac.len()..].starts_with('!') {
                    emit(
                        "D5",
                        off,
                        format!("`{mac}!` in library crate: return an error instead of panicking"),
                    );
                }
            }
        }
        for off in word_hits(&masked, "expect") {
            if off >= test_start || !is_method_call(&masked, off, "expect") {
                continue;
            }
            if let Some(len) = expect_message_len(input.original, &masked, off) {
                if len < MIN_EXPECT_MESSAGE {
                    emit(
                        "D5",
                        off,
                        format!(
                            "`.expect()` message is only {len} chars: describe the violated \
                             invariant (>= {MIN_EXPECT_MESSAGE} chars)"
                        ),
                    );
                }
            }
        }
    }

    // D6: mandatory crate-root hygiene attributes.
    if input.is_lib_root {
        let squashed: String = masked.chars().filter(|c| !c.is_whitespace()).collect();
        for attr in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
            if !squashed.contains(attr) {
                emit("D6", 0, format!("library crate root is missing `{attr}`"));
            }
        }
    }
}

/// Byte offset where the trailing `#[cfg(test)]` region begins, if any.
fn test_region_start(masked: &str) -> Option<usize> {
    let mut offset = 0;
    for line in masked.split_inclusive('\n') {
        let squashed: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        if squashed.contains("#[cfg(test)]") {
            return Some(offset);
        }
        offset += line.len();
    }
    None
}

/// All word-boundary occurrences of `token` in `text`.
fn word_hits(text: &str, token: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(token) {
        let off = from + pos;
        let before_ok = off == 0 || !is_ident_char(bytes[off - 1]);
        let after = off + token.len();
        let after_ok = after >= bytes.len() || !is_ident_char(bytes[after]);
        if before_ok && after_ok {
            hits.push(off);
        }
        from = off + token.len();
    }
    hits
}

/// True when the identifier at `off` is invoked as `.name(` — a method
/// call, as opposed to a standalone function or a path segment.
fn is_method_call(masked: &str, off: usize, name: &str) -> bool {
    let bytes = masked.as_bytes();
    if off == 0 || bytes[off - 1] != b'.' {
        return false;
    }
    let mut i = off + name.len();
    while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b'\t' || bytes[i] == b'\n') {
        i += 1;
    }
    i < bytes.len() && bytes[i] == b'('
}

/// Character length of the string literal passed to `.expect(` at `off`,
/// or `None` when the argument is not a string literal.
fn expect_message_len(original: &str, masked: &str, off: usize) -> Option<usize> {
    let bytes = masked.as_bytes();
    let mut i = off + "expect".len();
    while i < bytes.len() && bytes[i] != b'(' {
        i += 1;
    }
    i += 1;
    let orig = original.as_bytes();
    while i < orig.len() && (orig[i] as char).is_whitespace() {
        i += 1;
    }
    if i >= orig.len() || orig[i] != b'"' {
        return None;
    }
    i += 1;
    let start = i;
    let mut len = 0usize;
    while i < orig.len() {
        match orig[i] {
            b'\\' => {
                len += 1;
                i += 2;
            }
            b'"' => return Some(len),
            _ => {
                len += 1;
                i += 1;
            }
        }
    }
    Some(i - start)
}

/// True when an identifier names a raw time quantity D4 protects.
fn is_time_name(ident: &str) -> bool {
    ident.ends_with("_ns") || ident.ends_with("_time") || ident == "deadline" || ident == "latency"
}

/// Offsets (and names) of time-named identifiers used as operands of raw
/// `+ - * / %` arithmetic.
fn time_arith_hits(masked: &str) -> Vec<(usize, String)> {
    let bytes = masked.as_bytes();
    let mut hits = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !is_ident_char(bytes[i]) || bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident_char(bytes[i]) {
            i += 1;
        }
        let ident = &masked[start..i];
        if is_time_name(ident) && (op_follows(bytes, i) || op_precedes(bytes, start)) {
            hits.push((start, ident.to_string()));
        }
    }
    hits
}

/// True when the next non-blank char after `i` is a binary arithmetic
/// operator (excluding `->` arrows).
fn op_follows(bytes: &[u8], mut i: usize) -> bool {
    while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b'\t') {
        i += 1;
    }
    match bytes.get(i) {
        Some(b'+') | Some(b'*') | Some(b'/') | Some(b'%') => true,
        Some(b'-') => bytes.get(i + 1) != Some(&b'>'),
        _ => false,
    }
}

/// True when the identifier starting at `start` is the right operand of a
/// binary arithmetic operator — i.e. the previous non-blank char is an
/// operator whose own left side is a value (distinguishing `a * x_ns`
/// from a deref `*x_ns`).
fn op_precedes(bytes: &[u8], start: usize) -> bool {
    let mut i = start;
    while i > 0 && (bytes[i - 1] == b' ' || bytes[i - 1] == b'\t') {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let op = bytes[i - 1];
    if !matches!(op, b'+' | b'-' | b'*' | b'/' | b'%') {
        return false;
    }
    let mut j = i - 1;
    while j > 0 && (bytes[j - 1] == b' ' || bytes[j - 1] == b'\t') {
        j -= 1;
    }
    j > 0 && (is_ident_char(bytes[j - 1]) || bytes[j - 1] == b')' || bytes[j - 1] == b']')
}

/// Cap snippets so the table stays readable.
fn truncate(s: &str) -> String {
    const MAX: usize = 120;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let mut end = MAX;
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}...", &s[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str, crate_dir: &str, is_lib: bool, is_root: bool) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_file(
            &FileInput {
                rel_path: "crates/x/src/lib.rs",
                crate_dir,
                is_lib_crate: is_lib,
                is_lib_root: is_root,
                original: src,
            },
            &mut out,
        );
        out
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn d1_flags_wall_clock_not_comments() {
        let d = lint(
            "use std::time::Instant;\n// Instant in prose\n",
            "storage",
            true,
            false,
        );
        assert_eq!(rules(&d), vec!["D1"]);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn d2_flags_thread_rng() {
        let d = lint("let x = rand::thread_rng();\n", "workload", true, false);
        assert_eq!(rules(&d), vec!["D2"]);
    }

    #[test]
    fn d3_only_fires_in_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules(&lint(src, "exec", true, false)), vec!["D3"]);
        assert!(lint(src, "workload", true, false).is_empty());
    }

    #[test]
    fn d4_flags_raw_time_arithmetic() {
        let d = lint(
            "let t = base_ns * 3;\nlet u = 2 + seek_time;\n",
            "device",
            true,
            false,
        );
        assert_eq!(rules(&d), vec!["D4", "D4"]);
    }

    #[test]
    fn d4_ignores_method_calls_and_derefs() {
        let src = "let a = c.latency();\nlet b = *wait_ns;\nfn f(x_ns: u64) -> u64 { x_ns }\n";
        assert!(lint(src, "device", true, false).is_empty());
    }

    #[test]
    fn d7_flags_os_threads_in_sim_crates_only() {
        let src =
            "pub fn go() -> std::thread::JoinHandle<()> {\n    std::thread::spawn(|| {})\n}\n";
        let diags = lint(src, "exec", true, false);
        let fired = rules(&diags);
        assert!(
            fired.iter().all(|&r| r == "D7") && fired.len() >= 2,
            "expected only D7 findings: {fired:?}"
        );
        // Harness crates may use real threads.
        assert!(lint(src, "workload", true, false).is_empty());
        assert!(lint(src, "repro", false, false).is_empty());
    }

    #[test]
    fn d7_ignores_virtual_thread_names_and_comments() {
        // `Threads` (the calibration driver enum) and prose mentions must
        // not trip the OS-thread rule.
        let src = "pub enum Method { Threads }\n// a thread of execution in prose\n";
        assert!(lint(src, "core", true, false).is_empty());
    }

    #[test]
    fn d5_flags_unwrap_and_panics_in_lib_crates_only() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\nfn g() { panic!(\"boom\") }\n";
        assert_eq!(rules(&lint(src, "storage", true, false)), vec!["D5", "D5"]);
        assert!(lint(src, "repro", false, false).is_empty());
    }

    #[test]
    fn d5_accepts_descriptive_expect_rejects_terse() {
        let good = "fn f(v: Option<u32>) -> u32 { v.expect(\"frame table lost a pinned page\") }\n";
        assert!(lint(good, "bufpool", true, false).is_empty());
        let bad = "fn f(v: Option<u32>) -> u32 { v.expect(\"bad\") }\n";
        assert_eq!(rules(&lint(bad, "bufpool", true, false)), vec!["D5"]);
    }

    #[test]
    fn d5_ignores_unwrap_or_variants() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap_or(0).max(v.unwrap_or_default()) }\n";
        assert!(lint(src, "storage", true, false).is_empty());
    }

    #[test]
    fn test_region_is_exempt_from_d1_through_d5() {
        let src = "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    fn f(v: Option<u32>) -> u32 { v.unwrap() }\n}\n";
        assert!(lint(src, "exec", true, false).is_empty());
    }

    #[test]
    fn d4_exempts_simtime_typed_identifiers() {
        // `issue_time` is declared SimTime, so its arithmetic goes through
        // the wrapper's operators — the textual rule must stay quiet.
        let src = "struct S { issue_time: SimTime }\n\
                   fn f(st: &S, grace: SimDuration) -> SimTime { st.issue_time + grace }\n";
        assert!(lint(src, "exec", true, false).is_empty());
        // The same name without the annotation is still raw arithmetic.
        let raw = "fn f(issue_time: u64, grace: u64) -> u64 { issue_time + grace }\n";
        assert_eq!(rules(&lint(raw, "exec", true, false)), vec!["D4"]);
    }

    #[test]
    fn d6_requires_both_attributes() {
        let d = lint(
            "//! Docs.\n#![warn(missing_docs)]\npub fn f() {}\n",
            "storage",
            true,
            true,
        );
        assert_eq!(rules(&d), vec!["D6"]);
        assert!(d[0].message.contains("forbid(unsafe_code)"));
        let clean = "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n";
        assert!(lint(clean, "storage", true, true).is_empty());
    }
}
