//! The trace sink: a bounded ring of [`TraceEvent`]s.

use crate::event::TraceEvent;
use std::collections::BTreeMap;

/// Where instrumented code sends [`TraceEvent`]s: a bounded in-memory
/// ring that keeps the most recent `capacity` events, counting (not
/// keeping) everything older. No OS threads, no locks, no allocation
/// after the ring fills — a plain `Vec` with a rotating start index.
/// Deterministic like everything it records: no wall clock, ordered
/// collections only, so a recorded trace is byte-identical across runs
/// and thread counts.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    events: Vec<TraceEvent>,
    /// Index of the chronologically oldest retained event.
    start: usize,
    dropped: u64,
    ids: BTreeMap<String, u32>,
    names: Vec<String>,
}

impl RingSink {
    /// A sink retaining at most `capacity` events (must be >= 1).
    pub fn with_capacity(capacity: usize) -> RingSink {
        assert!(capacity >= 1, "ring sink needs room for at least one event");
        RingSink {
            cap: capacity,
            events: Vec::new(),
            start: 0,
            dropped: 0,
            ids: BTreeMap::new(),
            names: Vec::new(),
        }
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.dropped + self.events.len() as u64
    }

    /// Interned track names, indexed by track id.
    pub fn track_names(&self) -> &[String] {
        &self.names
    }

    /// Retained events in recording order (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, head) = self.events.split_at(self.start);
        head.iter().chain(tail.iter())
    }

    /// Render the retained events as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::chrome_trace_json(&self.names, self.events())
    }

    /// Intern a track name (one Perfetto thread per track), returning its
    /// stable id. Interning the same name twice returns the same id; ids
    /// are assigned in first-interning order, which is deterministic
    /// because instrumented code runs in virtual-time order.
    pub fn track(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Record one event, evicting the oldest when the ring is full.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.start] = ev;
            self.start += 1;
            if self.start == self.cap {
                self.start = 0;
            }
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use pioqo_simkit::SimTime;

    fn ev(n: u64) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_micros(n),
            track: 0,
            span: n,
            kind: EventKind::PoolHit,
            a: n,
            b: 0,
        }
    }

    #[test]
    fn ring_keeps_newest_in_order() {
        let mut s = RingSink::with_capacity(3);
        for n in 0..5u64 {
            s.record(ev(n));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.recorded(), 5);
        let spans: Vec<u64> = s.events().map(|e| e.span).collect();
        assert_eq!(spans, vec![2, 3, 4], "oldest-first chronological order");
    }

    #[test]
    fn track_interning_is_stable() {
        let mut s = RingSink::with_capacity(4);
        let a = s.track("io");
        let b = s.track("pool");
        assert_eq!(s.track("io"), a);
        assert_eq!(s.track("pool"), b);
        assert_ne!(a, b);
        assert_eq!(s.track_names(), &["io".to_string(), "pool".to_string()]);
    }
}
