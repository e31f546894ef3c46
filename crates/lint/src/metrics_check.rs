//! Schema validation for the Prometheus text exposition the metrics
//! registry exports.
//!
//! `repro observe` writes `metrics.prom`; CI validates it with
//! `pioqo-lint metrics-check <file>`. The checks mirror what the
//! exporter promises rather than the full Prometheus grammar:
//!
//! - every comment line is a `# TYPE <name> <counter|gauge|histogram>`
//!   declaration (the exporter emits no HELP text or other comments);
//! - metric names are `snake_case` (`[a-z][a-z0-9_]*`) and carry the
//!   `pioqo_` namespace prefix;
//! - no metric name is declared twice (uniqueness across merged cells);
//! - every sample line refers to a previously declared metric —
//!   histogram samples via their `_bucket`/`_sum`/`_count` suffixes;
//! - sample values are non-negative integers (the registry is
//!   integer-only; a float in the output means nondeterminism leaked in);
//! - the only label is `le` on histogram buckets, integer or `+Inf`.

use std::collections::BTreeMap;

/// Validate one Prometheus text exposition document; returns the sample
/// count. Errors carry the 1-based line number.
pub fn validate_prometheus(text: &str) -> Result<u64, String> {
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    let mut samples = 0u64;
    for (i, line) in text.lines().enumerate() {
        let ln = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("line {ln}: malformed TYPE declaration {rest:?}"));
            };
            check_name(name).map_err(|e| format!("line {ln}: {e}"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!(
                    "line {ln}: metric type {kind:?} is not counter/gauge/histogram"
                ));
            }
            if types.insert(name, kind).is_some() {
                return Err(format!("line {ln}: metric {name:?} declared twice"));
            }
        } else if line.starts_with('#') {
            return Err(format!(
                "line {ln}: only `# TYPE` comments are allowed, got {line:?}"
            ));
        } else {
            validate_sample(line, &types).map_err(|e| format!("line {ln}: {e}"))?;
            samples += 1;
        }
    }
    if types.is_empty() {
        return Err("no metrics: document has no TYPE declarations".to_string());
    }
    Ok(samples)
}

/// `snake_case` with the `pioqo_` namespace prefix.
fn check_name(name: &str) -> Result<(), String> {
    let Some(rest) = name.strip_prefix("pioqo_") else {
        return Err(format!("metric {name:?} lacks the pioqo_ prefix"));
    };
    let mut chars = rest.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_lowercase());
    if !head_ok
        || !rest
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return Err(format!(
            "metric {name:?} is not snake_case ([a-z][a-z0-9_]*)"
        ));
    }
    Ok(())
}

fn validate_sample(line: &str, types: &BTreeMap<&str, &str>) -> Result<(), String> {
    let Some((series, value)) = line.rsplit_once(' ') else {
        return Err(format!("sample {line:?} has no value"));
    };
    if value.parse::<u64>().is_err() {
        return Err(format!(
            "value {value:?} is not a non-negative integer (the registry is integer-only)"
        ));
    }
    let (name, labels) = match series.split_once('{') {
        Some((n, rest)) => (n, Some(rest)),
        None => (series, None),
    };
    // Resolve the declared base: exact name first (counters/gauges), then
    // the histogram sample suffixes.
    let declared = types.get(name).copied().or_else(|| {
        ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            let base = name.strip_suffix(suffix)?;
            (types.get(base) == Some(&"histogram")).then_some("histogram")
        })
    });
    let Some(kind) = declared else {
        return Err(format!("sample {name:?} has no preceding TYPE declaration"));
    };
    match labels {
        None => Ok(()),
        Some(l) => {
            if kind != "histogram" || !name.ends_with("_bucket") {
                return Err(format!(
                    "labels are only allowed on histogram buckets, got {series:?}"
                ));
            }
            let ok = l
                .strip_prefix("le=\"")
                .and_then(|r| r.strip_suffix("\"}"))
                .is_some_and(|le| le == "+Inf" || le.parse::<u64>().is_ok());
            if !ok {
                return Err(format!(
                    "bucket label must be le=\"<integer>\" or le=\"+Inf\", got {{{l}"
                ));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_exporter_shape() {
        let doc = "\
# TYPE pioqo_cell_io_ops_total counter
pioqo_cell_io_ops_total 15
# TYPE pioqo_cell_depth gauge
pioqo_cell_depth 4
# TYPE pioqo_cell_io_latency_us histogram
pioqo_cell_io_latency_us_bucket{le=\"100\"} 2
pioqo_cell_io_latency_us_bucket{le=\"+Inf\"} 5
pioqo_cell_io_latency_us_sum 731
pioqo_cell_io_latency_us_count 5
";
        assert_eq!(validate_prometheus(doc), Ok(6));
    }

    #[test]
    fn rejects_duplicate_declarations() {
        let doc = "\
# TYPE pioqo_x counter
pioqo_x 1
# TYPE pioqo_x counter
pioqo_x 2
";
        assert!(validate_prometheus(doc).is_err_and(|e| e.contains("declared twice")));
    }

    #[test]
    fn rejects_bad_names() {
        let no_prefix = "# TYPE io_ops counter\nio_ops 1\n";
        assert!(validate_prometheus(no_prefix).is_err_and(|e| e.contains("pioqo_ prefix")));
        let camel = "# TYPE pioqo_ioOps counter\npioqo_ioOps 1\n";
        assert!(validate_prometheus(camel).is_err_and(|e| e.contains("snake_case")));
    }

    #[test]
    fn rejects_samples_without_type() {
        let doc = "pioqo_orphan 3\n";
        assert!(validate_prometheus(doc).is_err_and(|e| e.contains("no preceding TYPE")));
    }

    #[test]
    fn rejects_float_values() {
        let doc = "# TYPE pioqo_x gauge\npioqo_x 1.5\n";
        assert!(validate_prometheus(doc).is_err_and(|e| e.contains("integer-only")));
    }

    #[test]
    fn rejects_foreign_comments_and_empty_documents() {
        assert!(
            validate_prometheus("# HELP pioqo_x help text\n").is_err_and(|e| e.contains("# TYPE"))
        );
        assert!(validate_prometheus("").is_err_and(|e| e.contains("no metrics")));
    }

    #[test]
    fn rejects_labels_outside_histogram_buckets() {
        let doc = "# TYPE pioqo_x counter\npioqo_x{le=\"5\"} 1\n";
        assert!(validate_prometheus(doc).is_err_and(|e| e.contains("histogram buckets")));
        let bad_le = "\
# TYPE pioqo_h histogram
pioqo_h_bucket{le=\"fast\"} 1
";
        assert!(validate_prometheus(bad_le).is_err_and(|e| e.contains("le=")));
    }
}
