//! Trace event taxonomy.

use pioqo_simkit::SimTime;

/// What a [`TraceEvent`] describes.
///
/// The two generic payload words of the event (`a`, `b`) are interpreted
/// per kind — see each variant. Span-like kinds correlate through the
/// event's `span` id, which is stable across runs (it is derived from
/// simulator sequence numbers, never from addresses or wall-clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A named phase opens on the event's track (`ph: "B"`).
    SpanBegin(&'static str),
    /// The matching phase closes (`ph: "E"`).
    SpanEnd(&'static str),
    /// A physical device request was submitted (`a` = first device page,
    /// `b` = length in pages). Correlates with [`EventKind::IoComplete`]
    /// through `span` (the physical request id).
    IoSubmit,
    /// A physical device request completed (`a` = pages transferred,
    /// `b` = 1 on success, 0 on error).
    IoComplete,
    /// Buffer-pool request satisfied from memory (`a` = page).
    PoolHit,
    /// Buffer-pool request needs I/O (`a` = page).
    PoolMiss,
    /// A frame was evicted to make room (`a` = page evicted).
    PoolEvict,
    /// A miss on a page that had been resident before (`a` = page).
    PoolRefetch,
    /// A demand request hit a page a prefetch admitted (`a` = page).
    PoolPrefetchHit,
    /// A failed read was re-submitted after backoff (`a` = logical io id,
    /// `b` = attempts so far).
    Retry,
    /// A read outstanding past the policy timeout was hedged
    /// (`a` = logical io id, `b` = attempts so far).
    TimeoutHedge,
    /// A backoff wait was scheduled (`a` = logical io id, `b` = wait µs).
    Backoff,
    /// Device queue-depth counter sample (`a` = outstanding requests).
    QueueDepth,
    /// A resident page transitioned clean→dirty (`a` = page).
    PoolDirty,
    /// A dirty page transitioned dirty→clean after durable writeback
    /// (`a` = page).
    PoolFlush,
    /// A WAL segment write was submitted by group commit (`a` = first WAL
    /// page, `b` = pages in the segment).
    WalFlush,
    /// A WAL segment became durable (`a` = first WAL page, `b` = the
    /// WAL's durable LSN after the contiguity rule).
    WalDurable,
    /// The background flusher submitted a data-page writeback (`a` = page).
    PageFlush,
    /// A checkpoint record was logged (`a` = its LSN, `b` = flushed-through
    /// LSN it certifies).
    Checkpoint,
    /// The device halted on an injected crash (`a` = requests discarded
    /// in flight).
    CrashHalt,
}

impl EventKind {
    /// Stable display name (used for Chrome `name` fields and summaries).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SpanBegin(n) | EventKind::SpanEnd(n) => n,
            EventKind::IoSubmit | EventKind::IoComplete => "io",
            EventKind::PoolHit => "pool_hit",
            EventKind::PoolMiss => "pool_miss",
            EventKind::PoolEvict => "pool_evict",
            EventKind::PoolRefetch => "pool_refetch",
            EventKind::PoolPrefetchHit => "pool_prefetch_hit",
            EventKind::Retry => "retry",
            EventKind::TimeoutHedge => "timeout_hedge",
            EventKind::Backoff => "backoff",
            EventKind::QueueDepth => "queue_depth",
            EventKind::PoolDirty => "pool_dirty",
            EventKind::PoolFlush => "pool_flush",
            EventKind::WalFlush => "wal_flush",
            EventKind::WalDurable => "wal_durable",
            EventKind::PageFlush => "page_flush",
            EventKind::Checkpoint => "checkpoint",
            EventKind::CrashHalt => "crash",
        }
    }
}

/// One structured trace record, stamped with virtual time.
///
/// Events are plain `Copy` data: 8 machine words, no allocation, so a
/// disabled sink costs one predictable branch and an enabled ring sink
/// costs one array store per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual timestamp.
    pub t: SimTime,
    /// Track the event belongs to (interned via [`crate::TraceSink::track`];
    /// rendered as one Perfetto thread per track).
    pub track: u32,
    /// Correlation id for span-like kinds (0 for instants).
    pub span: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (kind-specific, see [`EventKind`]).
    pub a: u64,
    /// Second payload word (kind-specific, see [`EventKind`]).
    pub b: u64,
}
