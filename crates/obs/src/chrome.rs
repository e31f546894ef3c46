//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Renders a recorded event stream in the Trace Event Format: one process
//! (`pioqo`), one thread per interned track, `B`/`E` pairs for operator
//! phase spans, async `b`/`e` pairs (matched by id) for I/O
//! submit/complete, instants for pool/retry activity and a `queue_depth`
//! counter track. Timestamps are virtual microseconds with nanosecond
//! decimals; output is built by deterministic string formatting only, so
//! identical runs export byte-identical JSON.

use crate::event::{EventKind, TraceEvent};
use std::fmt::Write as _;

/// Escape a string for embedding in a JSON literal.
fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append `"ts":<µs.nnn>` for a virtual timestamp.
fn push_ts(ev: &TraceEvent, out: &mut String) {
    let nanos = ev.t.as_nanos();
    let _ = write!(out, "\"ts\":{}.{:03}", nanos / 1000, nanos % 1000);
}

/// Render `tracks` and `events` (chronological order) as Chrome trace-event
/// JSON. The result loads directly in Perfetto (`ui.perfetto.dev`) or
/// `chrome://tracing`.
pub fn chrome_trace_json<'a>(
    tracks: &[String],
    events: impl Iterator<Item = &'a TraceEvent>,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"pioqo\"}}",
    );
    for (i, name) in tracks.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"args\":{{\"name\":\""
        );
        escape_json(name, &mut out);
        out.push_str("\"}}");
    }
    for ev in events {
        out.push_str(",\n{");
        let _ = write!(out, "\"name\":\"{}\",", ev.kind.name());
        match ev.kind {
            EventKind::SpanBegin(_) => {
                out.push_str("\"ph\":\"B\",");
            }
            EventKind::SpanEnd(_) => {
                out.push_str("\"ph\":\"E\",");
            }
            EventKind::IoSubmit => {
                let _ = write!(out, "\"ph\":\"b\",\"cat\":\"io\",\"id\":{},", ev.span);
            }
            EventKind::IoComplete => {
                let _ = write!(out, "\"ph\":\"e\",\"cat\":\"io\",\"id\":{},", ev.span);
            }
            EventKind::QueueDepth => {
                out.push_str("\"ph\":\"C\",");
            }
            _ => {
                out.push_str("\"ph\":\"i\",\"s\":\"t\",");
            }
        }
        let _ = write!(out, "\"pid\":1,\"tid\":{},", ev.track);
        push_ts(ev, &mut out);
        match ev.kind {
            EventKind::SpanBegin(_) | EventKind::SpanEnd(_) => {}
            EventKind::IoSubmit => {
                let _ = write!(out, ",\"args\":{{\"page\":{},\"len\":{}}}", ev.a, ev.b);
            }
            EventKind::IoComplete => {
                let _ = write!(out, ",\"args\":{{\"pages\":{},\"ok\":{}}}", ev.a, ev.b);
            }
            EventKind::PoolHit
            | EventKind::PoolMiss
            | EventKind::PoolEvict
            | EventKind::PoolRefetch
            | EventKind::PoolPrefetchHit
            | EventKind::PoolDirty
            | EventKind::PoolFlush
            | EventKind::PageFlush => {
                let _ = write!(out, ",\"args\":{{\"page\":{}}}", ev.a);
            }
            EventKind::WalFlush => {
                let _ = write!(out, ",\"args\":{{\"page\":{},\"len\":{}}}", ev.a, ev.b);
            }
            EventKind::WalDurable => {
                let _ = write!(
                    out,
                    ",\"args\":{{\"page\":{},\"durable_lsn\":{}}}",
                    ev.a, ev.b
                );
            }
            EventKind::Checkpoint => {
                let _ = write!(
                    out,
                    ",\"args\":{{\"lsn\":{},\"flushed_through\":{}}}",
                    ev.a, ev.b
                );
            }
            EventKind::CrashHalt => {
                let _ = write!(out, ",\"args\":{{\"discarded\":{}}}", ev.a);
            }
            EventKind::Retry | EventKind::TimeoutHedge => {
                let _ = write!(out, ",\"args\":{{\"io\":{},\"attempts\":{}}}", ev.a, ev.b);
            }
            EventKind::Backoff => {
                let _ = write!(out, ",\"args\":{{\"io\":{},\"wait_us\":{}}}", ev.a, ev.b);
            }
            EventKind::QueueDepth => {
                let _ = write!(out, ",\"args\":{{\"depth\":{}}}", ev.a);
            }
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioqo_simkit::SimTime;

    fn ev(kind: EventKind, track: u32, span: u64, a: u64, b: u64, micros: u64) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_micros(micros),
            track,
            span,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn export_is_valid_json_with_expected_shape() {
        let tracks = vec!["io".to_string(), "op \"x\"".to_string()];
        let events = [
            ev(EventKind::SpanBegin("scan"), 1, 0, 0, 0, 1),
            ev(EventKind::IoSubmit, 0, 7, 1234, 16, 2),
            ev(EventKind::QueueDepth, 0, 0, 3, 0, 2),
            ev(EventKind::IoComplete, 0, 7, 16, 1, 90),
            ev(EventKind::SpanEnd("scan"), 1, 0, 0, 0, 100),
        ];
        let json = chrome_trace_json(&tracks, events.iter());
        let parsed = serde_json::from_str_content(&json).expect("export must be parseable JSON");
        let top = match parsed {
            serde::Content::Map(m) => m,
            other => panic!("expected object, got {other:?}"),
        };
        let list = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents key present");
        match list {
            serde::Content::Seq(items) => {
                // 1 process meta + 2 thread metas + 5 events.
                assert_eq!(items.len(), 8);
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert!(json.contains("\"ts\":2.000"));
        assert!(json.contains("\"id\":7"));
        assert!(json.contains("op \\\"x\\\""));
    }

    #[test]
    fn identical_inputs_export_identically() {
        let tracks = vec!["io".to_string()];
        let events = [
            ev(EventKind::IoSubmit, 0, 1, 5, 1, 3),
            ev(EventKind::IoComplete, 0, 1, 1, 1, 80),
        ];
        let a = chrome_trace_json(&tracks, events.iter());
        let b = chrome_trace_json(&tracks, events.iter());
        assert_eq!(a, b);
    }
}
