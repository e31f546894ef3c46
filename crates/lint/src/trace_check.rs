//! Minimal schema validation for exported Chrome trace-event JSON.
//!
//! `repro observe` and the workload capture harness emit Trace Event
//! Format documents that Perfetto consumes. CI validates those artifacts
//! with `pioqo-lint trace-check <file>`: the document must be an object
//! with a `traceEvents` array, and every event must carry `name`, `ph`,
//! `pid` and `tid`, a `ph` from the phase set the exporter is allowed to
//! produce, and a numeric `ts` (metadata events excepted). This is a
//! schema check, not a semantic one — span nesting and id matching are
//! the exporter's unit tests' job.

use serde::Content;

/// Phases the pioqo exporter may emit: metadata, duration begin/end,
/// async begin/end, instant, and counter.
const ALLOWED_PHASES: &[&str] = &["M", "B", "E", "b", "e", "i", "C"];

/// Validate one Chrome trace JSON document; returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<u64, String> {
    let doc = serde_json::from_str_content(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let Content::Map(fields) = doc else {
        return Err("top level must be a JSON object".to_string());
    };
    let Some((_, events)) = fields.iter().find(|(k, _)| k == "traceEvents") else {
        return Err("missing \"traceEvents\" key".to_string());
    };
    let Content::Seq(events) = events else {
        return Err("\"traceEvents\" must be an array".to_string());
    };
    for (i, ev) in events.iter().enumerate() {
        validate_event(ev).map_err(|e| format!("traceEvents[{i}]: {e}"))?;
    }
    Ok(events.len() as u64)
}

fn validate_event(ev: &Content) -> Result<(), String> {
    let Content::Map(fields) = ev else {
        return Err("event must be an object".to_string());
    };
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    match get("name") {
        Some(Content::Str(_)) => {}
        Some(_) => return Err("\"name\" must be a string".to_string()),
        None => return Err("missing \"name\"".to_string()),
    }
    let phase = match get("ph") {
        Some(Content::Str(p)) => p.as_str(),
        Some(_) => return Err("\"ph\" must be a string".to_string()),
        None => return Err("missing \"ph\"".to_string()),
    };
    if !ALLOWED_PHASES.contains(&phase) {
        return Err(format!(
            "phase {phase:?} is not one of the exporter's phases {ALLOWED_PHASES:?}"
        ));
    }
    for key in ["pid", "tid"] {
        match get(key) {
            Some(Content::U64(_)) | Some(Content::I64(_)) => {}
            Some(_) => return Err(format!("{key:?} must be an integer")),
            None => return Err(format!("missing {key:?}")),
        }
    }
    // Metadata records name a process/thread; they carry no timestamp.
    if phase != "M" {
        match get("ts") {
            Some(Content::U64(_)) | Some(Content::I64(_)) | Some(Content::F64(_)) => {}
            Some(_) => return Err("\"ts\" must be a number".to_string()),
            None => return Err("missing \"ts\"".to_string()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_minimal_valid_document() {
        let doc = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"pioqo"}},
            {"name":"io_submit","ph":"b","cat":"io","id":3,"pid":1,"tid":0,"ts":12.5},
            {"name":"queue_depth","ph":"C","pid":1,"tid":0,"ts":13.0,"args":{"depth":4}}
        ]}"#;
        assert_eq!(validate_chrome_trace(doc), Ok(3));
    }

    #[test]
    fn rejects_missing_trace_events() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("not json").is_err());
    }

    #[test]
    fn rejects_unknown_phase_and_missing_fields() {
        let bad_phase = r#"{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome_trace(bad_phase)
            .is_err_and(|e| e.contains("phase") && e.contains("traceEvents[0]")));
        let no_ts = r#"{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(no_ts).is_err_and(|e| e.contains("ts")));
        let no_tid = r#"{"traceEvents":[{"name":"x","ph":"M","pid":1}]}"#;
        assert!(validate_chrome_trace(no_tid).is_err_and(|e| e.contains("tid")));
    }

    #[test]
    fn metadata_events_need_no_timestamp() {
        let doc = r#"{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":7}]}"#;
        assert_eq!(validate_chrome_trace(doc), Ok(1));
    }
}
