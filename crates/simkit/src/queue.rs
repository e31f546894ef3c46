//! Event calendar: a time-bucketed calendar of `(time, payload)` entries.
//!
//! Events scheduled for the same instant always fire in the order they
//! were scheduled — a requirement for reproducible simulations. The
//! calendar makes that FIFO tie-break *structural*: events are grouped
//! into per-instant buckets (`BTreeMap<nanos, Vec<E>>`), so same-time
//! events sit in one queue in insertion order and no sequence counter
//! is needed.
//!
//! The execution engine's timer queue (session think times, periodic
//! samplers) is the calendar's user: timers are set for arbitrary
//! future instants, so they need an ordered map. [`EventQueue::pop`]
//! finds the earliest bucket by walking the map's leftmost spine, which
//! stays resident in cache across consecutive pops. Exhausted buckets are
//! recycled through a small free list so steady-state scheduling does not
//! allocate. (Device models that know their completions in order keep a
//! plain FIFO instead: the SSD's channels and bus are FIFO servers.)

use crate::time::SimTime;
use std::collections::BTreeMap;

/// Most empty buckets kept for reuse; beyond this they are freed.
const BUCKET_POOL_CAP: usize = 64;

/// Always-on plain-integer calendar counters, cheap enough to maintain
/// unconditionally (a handful of adds per operation, no allocation). The
/// metrics layer snapshots these at end of run; `simkit` itself never
/// depends on `pioqo-obs` — the dependency runs the other way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events accepted by [`EventQueue::schedule`].
    pub scheduled: u64,
    /// Events removed by [`EventQueue::pop`].
    pub popped: u64,
    /// High-water mark of concurrent time buckets (calendar occupancy).
    pub peak_buckets: u64,
    /// High-water mark of pending events.
    pub peak_len: u64,
    /// Buckets allocated fresh because the free list was empty —
    /// reschedule churn that outruns the recycler shows up here.
    pub bucket_allocs: u64,
}

/// A calendar of future events ordered by firing time.
pub struct EventQueue<E> {
    /// Per-instant FIFO buckets, keyed by firing time in nanoseconds.
    buckets: BTreeMap<u64, Vec<E>>,
    /// Drained buckets kept around so `schedule` can reuse their storage.
    pool: Vec<Vec<E>>,
    /// Total pending events across all buckets.
    len: usize,
    now: SimTime,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty calendar with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            buckets: BTreeMap::new(),
            pool: Vec::new(),
            len: 0,
            now: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Lifetime occupancy/churn counters for this calendar.
    #[inline]
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Current clock reading: the firing time of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling into the past would make
    /// the simulation non-causal and is always a bug in the caller.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at}, now={}",
            self.now
        );
        let pool = &mut self.pool;
        let allocs = &mut self.stats.bucket_allocs;
        self.buckets
            .entry(at.as_nanos())
            .or_insert_with(|| {
                pool.pop().unwrap_or_else(|| {
                    *allocs += 1;
                    Vec::new()
                })
            })
            .push(event);
        self.len += 1;
        self.stats.scheduled += 1;
        self.stats.peak_len = self.stats.peak_len.max(self.len as u64);
        self.stats.peak_buckets = self.stats.peak_buckets.max(self.buckets.len() as u64);
    }

    /// Firing time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.buckets
            .keys()
            .next()
            .map(|&nanos| SimTime::from_nanos(nanos))
    }

    /// Pop the earliest event and advance the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut entry = self.buckets.first_entry()?;
        let at = SimTime::from_nanos(*entry.key());
        // Front removal shifts the remaining same-instant events down;
        // few timers share an instant, so the shift is a few machine
        // words.
        let event = entry.get_mut().remove(0);
        if entry.get().is_empty() {
            let drained = entry.remove();
            self.recycle(drained);
        }
        self.len -= 1;
        self.stats.popped += 1;
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Keep a drained bucket's storage for reuse, up to the pool cap.
    #[inline]
    fn recycle(&mut self, bucket: Vec<E>) {
        debug_assert!(bucket.is_empty());
        if self.pool.len() < BUCKET_POOL_CAP {
            self.pool.push(bucket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), "c");
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), ());
        q.pop();
        q.schedule(SimTime::from_micros(5), ());
    }

    #[test]
    fn stats_track_occupancy_and_churn() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..4 {
            q.schedule(t, i);
        }
        q.schedule(SimTime::from_micros(9), 99);
        let s = q.stats();
        assert_eq!(s.scheduled, 5);
        assert_eq!(s.peak_len, 5);
        assert_eq!(s.peak_buckets, 2);
        assert_eq!(s.bucket_allocs, 2, "both buckets were fresh allocations");

        for _ in 0..5 {
            q.pop();
        }
        assert_eq!(q.stats().popped, 5);

        // A recycled bucket must not count as a fresh allocation.
        q.schedule(SimTime::from_micros(20), 7);
        assert_eq!(q.stats().bucket_allocs, 2);
    }

    #[test]
    fn len_tracks_pending() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.schedule(SimTime::from_micros(1), 1);
        q.schedule(SimTime::from_micros(2), 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_reuses_buckets() {
        let mut q = EventQueue::new();
        // Drive enough schedule/drain cycles that the bucket pool is
        // exercised; order must stay exact throughout.
        let mut fired = Vec::new();
        for round in 0u64..200 {
            let t = SimTime::from_micros(round * 10);
            q.schedule(t, round * 2);
            q.schedule(t, round * 2 + 1);
            for _ in 0..2 {
                let (at, e) = q.pop().expect("two events pending");
                assert_eq!(at, t);
                fired.push(e);
            }
        }
        assert_eq!(fired, (0..400).collect::<Vec<_>>());
        assert!(q.is_empty());
    }
}
