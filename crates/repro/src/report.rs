//! Plain-text tables and CSV output for the reproduction harness.

use std::path::{Path, PathBuf};

/// A simple aligned text table.
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> TextTable {
        TextTable {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line_len: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        println!("\n== {} ==", self.title);
        let sep: String = "-".repeat(line_len.min(120));
        println!("{sep}");
        let fmt_row = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(" {:>w$} |", c, w = widths[i]));
            }
            s
        };
        println!("{}", fmt_row(&self.headers));
        println!("{sep}");
        for r in &self.rows {
            println!("{}", fmt_row(r));
        }
        println!("{sep}");
    }

    /// The table as CSV: the header line, then one line per row.
    pub fn csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }

    /// Print the table and write it as `<id>.csv` under the results
    /// directory.
    pub fn emit(&self, id: &str) {
        self.print();
        write_artifacts(&results_dir(), &[(&format!("{id}.csv"), &self.csv())]);
    }
}

/// Write each `(name, body)` into `dir`, creating it first, and print one
/// `[wrote]` line per file. Exits with status 1 on an I/O error: a target
/// whose output cannot be written has failed.
pub fn write_artifacts<S: AsRef<str>>(dir: &Path, files: &[(&str, S)]) {
    or_exit(
        std::fs::create_dir_all(dir),
        &format!("creating {}", dir.display()),
    );
    for (name, body) in files {
        let path = dir.join(name);
        let body = body.as_ref();
        or_exit(
            std::fs::write(&path, body),
            &format!("writing {}", path.display()),
        );
        println!("[wrote] {} ({} bytes)", path.display(), body.len());
    }
}

/// Unwrap `result`, or report `what` failed and exit with status 1.
pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what} failed: {e}");
        std::process::exit(1)
    })
}

/// The output directory (`$PIOQO_RESULTS` or `./results`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("PIOQO_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Format seconds with sensible precision.
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.1}")
    } else if v >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a selectivity as a percentage like the paper.
pub fn pct(v: f64) -> String {
    let p = v * 100.0;
    if p >= 1.0 {
        format!("{p:.2}%")
    } else if p >= 0.01 {
        format!("{p:.3}%")
    } else {
        format!("{p:.4}%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_must_match_headers() {
        let mut t = TextTable::new("t", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_wrong_arity() {
        let mut t = TextTable::new("t", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_output_round_trips() {
        let mut t = TextTable::new("t", &["x", "y"]);
        t.row(vec!["1".into(), "2.5".into()]);
        assert_eq!(t.csv(), "x,y\n1,2.5\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(123.4), "123.4");
        assert_eq!(secs(1.5), "1.500");
        assert_eq!(secs(0.01234), "0.01234");
        assert_eq!(f2(4.5678), "4.57");
        assert_eq!(pct(0.021), "2.10%");
        assert_eq!(pct(0.0004), "0.040%");
        assert_eq!(pct(0.0000045), "0.0004%"); // 0.00045% rounds down at 4 dp
    }
}
