//! Diagnostics and report rendering.

use serde::Serialize;

/// One rule violation at a specific source location.
#[derive(Debug, Clone, Serialize)]
pub struct Diagnostic {
    /// Rule identifier (`"D1"` .. `"D7"`).
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: u64,
    /// What went wrong and how to fix it.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// The result of linting a workspace tree.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_checked: u64,
    /// All violations, ordered by path then line.
    pub diagnostics: Vec<Diagnostic>,
    /// `lint.toml` entries (`"RULE path"`) that suppressed nothing — each
    /// one documents an exception that no longer exists and must be
    /// deleted, or it will silently swallow a future regression.
    pub stale_allows: Vec<String>,
}

impl Report {
    /// True when no rule fired and no allowlist entry is stale.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.stale_allows.is_empty()
    }

    /// Render the human-readable table: one row per diagnostic with
    /// aligned columns, then stale-allowlist errors, then a summary line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.diagnostics.is_empty() {
            let loc_width = self
                .diagnostics
                .iter()
                .map(|d| d.path.len() + 1 + digits(d.line))
                .max()
                .unwrap_or(0);
            out.push_str(&format!(
                "{:<4} {:<loc_width$} MESSAGE\n",
                "RULE", "LOCATION"
            ));
            for d in &self.diagnostics {
                let loc = format!("{}:{}", d.path, d.line);
                out.push_str(&format!(
                    "{:<4} {:<loc_width$} {}\n",
                    d.rule, loc, d.message
                ));
                out.push_str(&format!("{:<4} {:<loc_width$}   | {}\n", "", "", d.snippet));
            }
        }
        for stale in &self.stale_allows {
            out.push_str(&format!(
                "STALE ALLOW {stale}: this lint.toml entry suppresses nothing; delete it\n"
            ));
        }
        out.push_str(&format!(
            "checked {} file(s): {} violation(s), {} stale allowlist entr{}\n",
            self.files_checked,
            self.diagnostics.len(),
            self.stale_allows.len(),
            if self.stale_allows.len() == 1 {
                "y"
            } else {
                "ies"
            }
        ));
        out
    }
}

/// Number of decimal digits in `n` (for column alignment).
fn digits(mut n: u64) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            files_checked: 3,
            diagnostics: vec![Diagnostic {
                rule: "D1".to_string(),
                path: "crates/x/src/lib.rs".to_string(),
                line: 12,
                message: "wall-clock type Instant in simulation code".to_string(),
                snippet: "let t = Instant::now();".to_string(),
            }],
            stale_allows: vec![],
        }
    }

    #[test]
    fn table_lists_rule_location_and_summary() {
        let t = sample().render_table();
        assert!(t.contains("D1"));
        assert!(t.contains("crates/x/src/lib.rs:12"));
        assert!(t.contains("checked 3 file(s): 1 violation(s)"));
    }

    #[test]
    fn json_round_trip_shape() {
        let j = serde_json::to_string(&sample()).expect("report serializes");
        assert!(j.contains("\"rule\""));
        assert!(j.contains("\"files_checked\""));
        assert!(j.contains("\"line\":12"));
        assert!(j.contains("\"stale_allows\""));
    }

    #[test]
    fn clean_report_renders_summary_only() {
        let r = Report {
            files_checked: 5,
            diagnostics: vec![],
            stale_allows: vec![],
        };
        assert!(r.is_clean());
        assert_eq!(
            r.render_table(),
            "checked 5 file(s): 0 violation(s), 0 stale allowlist entries\n"
        );
    }

    #[test]
    fn stale_allow_entries_make_report_dirty() {
        let r = Report {
            files_checked: 5,
            diagnostics: vec![],
            stale_allows: vec!["D4 crates/exec/src/engine.rs".to_string()],
        };
        assert!(!r.is_clean());
        let t = r.render_table();
        assert!(t.contains("STALE ALLOW D4 crates/exec/src/engine.rs"));
        assert!(t.contains("1 stale allowlist entry\n"));
    }
}
