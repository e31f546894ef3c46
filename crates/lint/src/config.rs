//! The `lint.toml` allowlist.
//!
//! Every suppression is explicit and carries a reason, so the allowlist
//! doubles as documentation of the workspace's deliberate exceptions to
//! the determinism rules. The format is a restricted TOML subset, parsed
//! by hand (the workspace vendors no TOML crate):
//!
//! ```toml
//! [[allow]]
//! rule = "D1"
//! path = "crates/device/src/real.rs"
//! reason = "real-device backend measures actual wall-clock latencies"
//! ```
//!
//! `path` is a `/`-separated path relative to the workspace root. A path
//! ending in `/**` allows the rule for everything under that directory.

use std::fmt;
use std::path::Path;

/// A single allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule identifier this entry suppresses (`"D1"` .. `"D7"`).
    pub rule: String,
    /// Workspace-relative path, or a `dir/**` prefix pattern.
    pub path: String,
    /// Human rationale; required so suppressions stay auditable.
    pub reason: String,
}

/// Parsed lint configuration.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Accepted suppressions.
    pub allow: Vec<AllowEntry>,
}

/// A configuration or I/O failure, with context.
#[derive(Debug)]
pub struct LintError(pub String);

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for LintError {}

impl LintConfig {
    /// True when `rule` is suppressed for the file at `rel_path`.
    pub fn is_allowed(&self, rule: &str, rel_path: &str) -> bool {
        self.matching_entry(rule, rel_path).is_some()
    }

    /// Index of the first entry suppressing `rule` at `rel_path`, if any.
    /// The caller can use the index to track which entries ever matched —
    /// an entry that suppresses nothing is stale and must be deleted.
    pub fn matching_entry(&self, rule: &str, rel_path: &str) -> Option<usize> {
        self.allow.iter().position(|e| {
            e.rule == rule
                && (e.path == rel_path
                    || e.path
                        .strip_suffix("/**")
                        .map(|prefix| {
                            rel_path
                                .strip_prefix(prefix)
                                .is_some_and(|rest| rest.starts_with('/'))
                        })
                        .unwrap_or(false))
        })
    }
}

/// Load `lint.toml` from `path`; a missing file yields an empty config.
pub fn load_config(path: &Path) -> Result<LintConfig, LintError> {
    if !path.exists() {
        return Ok(LintConfig::default());
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| LintError(format!("cannot read {}: {e}", path.display())))?;
    parse_config(&text).map_err(|e| LintError(format!("{}: {e}", path.display())))
}

/// Parse the restricted-TOML allowlist format.
pub fn parse_config(text: &str) -> Result<LintConfig, LintError> {
    let mut config = LintConfig::default();
    let mut current: Option<AllowEntry> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            finish_entry(&mut config, current.take(), lineno)?;
            current = Some(AllowEntry {
                rule: String::new(),
                path: String::new(),
                reason: String::new(),
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(LintError(format!(
                "line {lineno}: unknown section {line}; only [[allow]] is supported"
            )));
        }
        let (key, value) = parse_assignment(line).ok_or_else(|| {
            LintError(format!(
                "line {lineno}: expected key = \"value\", got {line}"
            ))
        })?;
        let entry = current.as_mut().ok_or_else(|| {
            LintError(format!(
                "line {lineno}: {key} outside of an [[allow]] block"
            ))
        })?;
        match key {
            "rule" => entry.rule = value,
            "path" => entry.path = value,
            "reason" => entry.reason = value,
            other => {
                return Err(LintError(format!(
                    "line {lineno}: unknown key {other}; expected rule/path/reason"
                )))
            }
        }
    }
    let end = text.lines().count();
    finish_entry(&mut config, current, end)?;
    Ok(config)
}

/// Validate and append a completed `[[allow]]` block.
fn finish_entry(
    config: &mut LintConfig,
    entry: Option<AllowEntry>,
    lineno: usize,
) -> Result<(), LintError> {
    let Some(entry) = entry else { return Ok(()) };
    if !crate::rules::RULE_IDS.contains(&entry.rule.as_str()) {
        return Err(LintError(format!(
            "allow block ending near line {lineno}: unknown rule {:?} (expected one of {:?})",
            entry.rule,
            crate::rules::RULE_IDS
        )));
    }
    if entry.path.is_empty() {
        return Err(LintError(format!(
            "allow block ending near line {lineno}: missing path"
        )));
    }
    if entry.reason.is_empty() {
        return Err(LintError(format!(
            "allow block ending near line {lineno}: missing reason (suppressions must be justified)"
        )));
    }
    config.allow.push(entry);
    Ok(())
}

/// Parse a `key = "value"` line; returns `None` when malformed.
fn parse_assignment(line: &str) -> Option<(&str, String)> {
    let (key, rest) = line.split_once('=')?;
    let key = key.trim();
    let rest = rest.trim();
    let inner = rest.strip_prefix('"')?.strip_suffix('"')?;
    if inner.contains('"') {
        return None;
    }
    Some((key, inner.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_matches_paths() {
        let cfg = parse_config(
            r#"
# comment
[[allow]]
rule = "D1"
path = "crates/device/src/real.rs"
reason = "measures real latencies"

[[allow]]
rule = "D5"
path = "crates/repro/**"
reason = "binary crate"
"#,
        )
        .expect("well-formed config parses");
        assert_eq!(cfg.allow.len(), 2);
        assert!(cfg.is_allowed("D1", "crates/device/src/real.rs"));
        assert!(!cfg.is_allowed("D2", "crates/device/src/real.rs"));
        assert!(cfg.is_allowed("D5", "crates/repro/src/grids.rs"));
        assert!(!cfg.is_allowed("D5", "crates/repro2/src/grids.rs"));
    }

    #[test]
    fn rejects_unknown_rule() {
        assert!(parse_config("[[allow]]\nrule = \"D99\"\npath = \"x\"\nreason = \"r\"\n").is_err());
    }

    #[test]
    fn rejects_missing_reason() {
        assert!(parse_config("[[allow]]\nrule = \"D1\"\npath = \"x\"\n").is_err());
    }

    #[test]
    fn empty_config_allows_nothing() {
        let cfg = parse_config("").expect("empty config is valid");
        assert!(!cfg.is_allowed("D1", "crates/a/src/lib.rs"));
    }
}
