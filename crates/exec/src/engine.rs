//! The simulation context shared by all operators: one event loop binding a
//! device, the CPU scheduler and the buffer pool, with single-page read
//! deduplication and queue-depth profiling.
//! I/O and compute are stamped with the owner tag current when they were
//! declared ([`SimContext::with_owner`]) and completions report it
//! ([`SimContext::event_owners`]), so a loop running many queries on one
//! context can hand each event to the queries that asked for it.

use crate::cpu::{CpuConfig, CpuScheduler, TaskId};
use pioqo_bufpool::{BufferPool, PoolEvent};
use pioqo_device::{DeviceModel, IoCompletion, IoRequest, IoStatus};
use pioqo_obs::{EventKind, HistHandle, MetricsRegistry, RingSink, SeriesHandle, TraceEvent};
use pioqo_simkit::{EventQueue, IdSlab, SimDuration, SimTime, TimeWeighted, U64Map};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// CPU work constants for the scan operators, in microseconds.
///
/// These play the role of SQL Anywhere's calibrated CPU cost-model unit
/// costs; the defaults are tuned so the simulated throughput hierarchy
/// matches the paper's Table 3 (see EXPERIMENTS.md).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuCosts {
    /// Fixed work to process one heap page in a table scan (latching,
    /// slot-array walk, page checksum).
    pub page_overhead_us: f64,
    /// Work per row evaluated by the table-scan predicate.
    pub row_scan_us: f64,
    /// Work per index-scan row: locate slot, fetch row, evaluate output.
    pub row_lookup_us: f64,
    /// Work to decode one index leaf page.
    pub leaf_decode_us: f64,
    /// Work per `(key, row_id)` entry extracted from a leaf.
    pub entry_decode_us: f64,
    /// One-time work to start a worker (thread wake-up, plan fragment
    /// setup) — the §4.3 "overhead cost for synchronization and
    /// coordination" that makes parallel plans not free.
    pub worker_startup_us: f64,
    /// Work per comparison-ish unit for sorting row ids (sorted index
    /// scan extension): total sort cost = `k log2 k × sort_entry_us`.
    pub sort_entry_us: f64,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            page_overhead_us: 12.0,
            row_scan_us: 0.13,
            row_lookup_us: 1.6,
            leaf_decode_us: 6.0,
            entry_decode_us: 0.05,
            worker_startup_us: 250.0,
            sort_entry_us: 0.02,
        }
    }
}

/// Deterministic retry/timeout policy for reads issued through a context.
///
/// All times are virtual, so a policy is reproducible bit-for-bit: the k-th
/// retry of a failed read waits `backoff * 2^(k-1)` of *simulated* time, and
/// a timeout re-issue happens at an exact simulated instant. The default
/// policy (`max_attempts = 1`, no timeout) disables both mechanisms, so a
/// context without an explicit policy behaves exactly as before this layer
/// existed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per logical read, including the first issue.
    /// `1` means a device error surfaces immediately (no retries).
    pub max_attempts: u32,
    /// Base backoff before the first retry; doubled on each further retry.
    pub backoff: SimDuration,
    /// Re-issue a read still outstanding after this long (hedging against
    /// tail latency). Each re-issue consumes one attempt; `None` disables.
    pub timeout: Option<SimDuration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: SimDuration::from_micros_f64(100.0),
            timeout: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that retries up to `max_attempts` total attempts with the
    /// default backoff and no timeout.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }
}

/// The engine's distributions, recorded into an installed registry's
/// histograms named by [`Dist::NAMES`] (in declaration order).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Dist {
    /// Per-physical-I/O completion latency, µs.
    IoLatencyUs,
    /// Device queue depth sampled at every submission.
    QueueDepth,
    /// Per-logical-I/O time from issue to settle, µs.
    PageWaitUs,
    /// Attempts after the first, per settled logical I/O.
    RetriesPerRead,
    /// Group-commit ack latency, µs: last WAL append to durable ack.
    CommitAckUs,
}

impl Dist {
    const NAMES: [&'static str; 5] = [
        "io_latency_us",
        "queue_depth",
        "page_wait_us",
        "io_retries_per_read",
        "commit_ack_us",
    ];
}

/// Fault-handling counters accumulated by a context (and reported per scan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceStats {
    /// Failed reads re-submitted after backoff.
    pub retries: u64,
    /// Reads re-issued because they were outstanding past the timeout.
    pub timeouts: u64,
    /// Completions served by redundancy reconstruction (RAID degraded mode).
    pub degraded_reads: u64,
}

impl ResilienceStats {
    /// Fold another counter set into this one (par_map reduction / trace
    /// summary).
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.degraded_reads += other.degraded_reads;
    }
}

/// Execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The device reported an I/O error for this device page.
    Io {
        /// The scan operator that issued the failed read.
        operator: &'static str,
        /// First device page of the failed request.
        device_page: u64,
    },
    /// A read failed on every attempt the [`RetryPolicy`] allowed.
    IoExhausted {
        /// First device page of the failed request.
        device_page: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The buffer pool could not make room (all frames pinned).
    PoolExhausted,
    /// The device halted on an injected crash; in-flight work is gone and
    /// the run must go through recovery, not completion.
    Crashed,
    /// An executor state-machine invariant was violated (a bug in the
    /// engine, not in the caller's configuration).
    Internal {
        /// Description of the violated invariant.
        detail: &'static str,
    },
}

/// Map a failed read to the right error: a single-attempt failure is a
/// plain [`ExecError::Io`]; a failure after retries is
/// [`ExecError::IoExhausted`] (the attempt count is the diagnosis).
pub(crate) fn io_failure(operator: &'static str, device_page: u64, attempts: u32) -> ExecError {
    if attempts > 1 {
        ExecError::IoExhausted {
            device_page,
            attempts,
        }
    } else {
        ExecError::Io {
            operator,
            device_page,
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Io {
                operator,
                device_page,
            } => write!(f, "{operator}: I/O error at device page {device_page}"),
            ExecError::IoExhausted {
                device_page,
                attempts,
            } => write!(
                f,
                "I/O error at device page {device_page} after {attempts} attempts"
            ),
            ExecError::PoolExhausted => write!(f, "buffer pool exhausted (all frames pinned)"),
            ExecError::Crashed => write!(f, "device crashed mid-run; recovery required"),
            ExecError::Internal { detail } => {
                write!(f, "executor invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<pioqo_bufpool::PoolError> for ExecError {
    fn from(_: pioqo_bufpool::PoolError) -> Self {
        ExecError::PoolExhausted
    }
}

/// What a completed I/O was for.
#[derive(Debug, Clone, Copy)]
enum IoMeta {
    /// Single-page read (demand or index prefetch), deduplicated per page.
    Page { device_page: u64 },
    /// Multi-page sequential block read (table-scan prefetch).
    Block { start: u64, len: u32 },
    /// Page-aligned write (data-page flush or WAL segment). Never
    /// deduplicated: each write carries its own payload on the byte side.
    Write { start: u64, len: u32 },
}

/// A logical read: one handle handed to the operator, backed by one or more
/// physical device requests (the original plus retries / timeout re-issues).
struct LogicalIo {
    meta: IoMeta,
    /// Attempts issued so far (1 = the original).
    attempts: u32,
    /// Physical requests currently in flight for this read.
    live: u32,
    /// When the operator first asked for this read (drives the page-wait
    /// histogram).
    started: SimTime,
    /// When the newest physical request was issued (drives the timeout).
    issue_time: SimTime,
    /// A backoff retry is scheduled; the timeout must not also re-issue.
    pending_retry: bool,
    /// Owner tag current when the read was declared (`0` = untagged).
    owner: u64,
    /// Further distinct tags that joined a deduplicated page read, in join
    /// order. Stays unallocated unless a second owner shows up.
    joined: Vec<u64>,
}

impl LogicalIo {
    /// Record the (nonzero) `tag` as an owner; a repeat join is a no-op.
    fn join(&mut self, tag: u64) {
        if tag == self.owner || self.joined.contains(&tag) {
            return;
        }
        if self.owner == 0 {
            self.owner = tag;
        } else {
            self.joined.push(tag);
        }
    }
}

/// An event delivered by [`SimContext::step`].
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A single-page read finished.
    IoPage {
        /// The I/O handle returned by [`SimContext::read_page`].
        io: u64,
        /// The device page read.
        device_page: u64,
        /// Outcome. `Error` means the retry policy is exhausted.
        status: IoStatus,
        /// Physical attempts the read took (1 = no retries).
        attempts: u32,
    },
    /// A block read finished.
    IoBlock {
        /// The I/O handle returned by [`SimContext::read_block`].
        io: u64,
        /// First device page of the block.
        start: u64,
        /// Block length in pages.
        len: u32,
        /// Outcome. `Error` means the retry policy is exhausted.
        status: IoStatus,
        /// Physical attempts the read took (1 = no retries).
        attempts: u32,
    },
    /// A write finished.
    IoWrite {
        /// The I/O handle returned by [`SimContext::write_page`] /
        /// [`SimContext::write_block`].
        io: u64,
        /// First device page of the write.
        start: u64,
        /// Write length in pages.
        len: u32,
        /// Outcome. `Error` means the retry policy is exhausted.
        status: IoStatus,
        /// Physical attempts the write took (1 = no retries).
        attempts: u32,
    },
    /// A compute task finished.
    Cpu(TaskId),
    /// A virtual-time timer armed with [`SimContext::schedule_timer`] or
    /// [`SimContext::schedule_timer_tagged`] expired (session think time,
    /// periodic samplers).
    Timer {
        /// The handle returned by [`SimContext::schedule_timer`].
        id: u64,
        /// Caller-chosen routing tag (`0` for untagged timers). Lets a
        /// dispatcher route the wakeup to its owner in O(1) instead of
        /// keeping an id-to-owner side table.
        tag: u64,
    },
}

/// Aggregate I/O statistics observed by a context over its lifetime.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IoProfile {
    /// Pages transferred by reads.
    pub pages_read: u64,
    /// I/O operations completed (reads and writes).
    pub io_ops: u64,
    /// Pages transferred by writes (WAL segments + data-page flushes).
    pub pages_written: u64,
    /// Write operations completed.
    pub write_ops: u64,
    /// Time-weighted mean device queue depth while the scan ran.
    pub mean_queue_depth: f64,
    /// Peak device queue depth.
    pub peak_queue_depth: f64,
    /// Mean read throughput between first submission and last completion,
    /// MB/s.
    pub throughput_mb_s: f64,
    /// Mean per-I/O latency, µs.
    pub mean_latency_us: f64,
}

/// The per-scan simulation context. See the module docs.
pub struct SimContext<'a> {
    /// The storage device under the scan. Inspect it freely, but submit
    /// and advance only through the context: `step` caches its next event.
    pub device: &'a mut dyn DeviceModel,
    /// The buffer pool.
    pub pool: &'a mut BufferPool,
    /// The CPU scheduler.
    pub cpu: CpuScheduler,
    costs: CpuCosts,
    retry: RetryPolicy,
    res: ResilienceStats,
    now: SimTime,
    /// The device's `next_event()` as of its last submit or advance —
    /// the only calls that move it (`DeviceModel::advance`'s contract).
    /// `step` asks the device again only when `dev_stale` says one of
    /// them happened since.
    dev_next: Option<SimTime>,
    dev_stale: bool,
    /// The device has been advanced since its last submit, so an idle
    /// device needs no further advance until the next one.
    dev_settled: bool,
    /// Device page -> handle of the page read in flight.
    inflight_page: U64Map,
    /// Logical reads and writes, by io handle.
    ios: IdSlab<LogicalIo>,
    /// Physical request id -> io handle.
    req_owner: IdSlab<u64>,
    retry_queue: BTreeMap<SimTime, Vec<u64>>,
    deadline_queue: BTreeMap<SimTime, Vec<u64>>,
    timer_queue: EventQueue<(u64, u64)>, // (timer id, routing tag)
    next_timer: u64,
    io_buf: Vec<IoCompletion>,
    cpu_buf: Vec<(TaskId, u64)>,
    /// The current-owner register stamped on new I/O and compute.
    owner: u64,
    /// Owner tags of the events the last `step` appended, flattened;
    /// `ev_owner_end[i]` closes event `i`'s run.
    ev_owners: Vec<u64>,
    ev_owner_end: Vec<u32>,
    depth: TimeWeighted,
    latency_sum_us: f64,
    pages_read: u64,
    io_ops: u64,
    pages_written: u64,
    write_ops: u64,
    first_submit: Option<SimTime>,
    last_complete: SimTime,
    /// Requests currently outstanding on the device (integer twin of
    /// `depth`, sampled into the queue-depth histogram at every submit).
    depth_now: u32,
    trace: Option<&'a mut RingSink>,
    io_track: u32,
    pool_track: u32,
    pool_evbuf: Vec<PoolEvent>,
    /// The installed registry with the slots of the five engine series
    /// and the five `Dist`s, resolved once in `set_metrics` so neither
    /// the per-boundary sampler nor the per-read sites walk the name index.
    metrics: Option<(&'a mut MetricsRegistry, [SeriesHandle; 5], [HistHandle; 5])>,
    /// Next sim-time cadence boundary at which `step` samples the engine
    /// series (queue depth, pool hit rate, device channel occupancy).
    next_metric_sample: SimTime,
}

impl<'a> SimContext<'a> {
    /// Build a context over a device, pool and CPU.
    pub fn new(
        device: &'a mut dyn DeviceModel,
        pool: &'a mut BufferPool,
        cpu_cfg: CpuConfig,
        costs: CpuCosts,
    ) -> SimContext<'a> {
        SimContext {
            device,
            pool,
            cpu: CpuScheduler::new(cpu_cfg),
            costs,
            retry: RetryPolicy::default(),
            res: ResilienceStats::default(),
            now: SimTime::ZERO,
            dev_next: None,
            dev_stale: true,
            dev_settled: false,
            inflight_page: U64Map::new(),
            ios: IdSlab::new(),
            req_owner: IdSlab::new(),
            retry_queue: BTreeMap::new(),
            deadline_queue: BTreeMap::new(),
            timer_queue: EventQueue::new(),
            next_timer: 0,
            io_buf: Vec::new(),
            cpu_buf: Vec::new(),
            owner: 0,
            ev_owners: Vec::new(),
            ev_owner_end: Vec::new(),
            depth: TimeWeighted::new(SimTime::ZERO, 0.0),
            latency_sum_us: 0.0,
            pages_read: 0,
            io_ops: 0,
            pages_written: 0,
            write_ops: 0,
            first_submit: None,
            last_complete: SimTime::ZERO,
            depth_now: 0,
            trace: None,
            io_track: 0,
            pool_track: 0,
            pool_evbuf: Vec::new(),
            metrics: None,
            next_metric_sample: SimTime::ZERO,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The CPU cost constants.
    pub fn costs(&self) -> &CpuCosts {
        &self.costs
    }

    /// Run `f` with `tag` in the current-owner register: every read, write
    /// and compute task `f` declares is stamped with it (a deduplicated
    /// [`SimContext::read_page`] records every distinct tag that joined)
    /// and [`SimContext::event_owners`] reports the stamps on completion.
    /// The run loop wraps each query's `start` / `on_event` in it, so
    /// drivers carry no tagging code; the shared-scan cursor and the write
    /// system run untagged (`0`).
    pub fn with_owner<R>(&mut self, tag: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let outer = std::mem::replace(&mut self.owner, tag);
        let r = f(self);
        self.owner = outer;
        r
    }

    /// Owner tags of the `i`-th event appended by the most recent
    /// [`SimContext::step`], in the order they joined. Empty for timers
    /// (their tag travels on the event), for work declared untagged, and
    /// for an out-of-range `i`.
    pub fn event_owners(&self, i: usize) -> &[u64] {
        let Some(&end) = self.ev_owner_end.get(i) else {
            return &[];
        };
        let start = if i == 0 { 0 } else { self.ev_owner_end[i - 1] };
        &self.ev_owners[start as usize..end as usize]
    }

    /// Append `ev`, closing its run of owner tags (whatever was pushed onto
    /// `ev_owners` since the previous event).
    fn push_event(&mut self, events: &mut Vec<Event>, ev: Event) {
        events.push(ev);
        self.ev_owner_end.push(self.ev_owners.len() as u32);
    }

    /// Install a retry/timeout policy (the default policy does neither).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        assert!(retry.max_attempts >= 1, "at least one attempt is required");
        self.retry = retry;
    }

    /// The fault-handling counters accumulated so far.
    pub fn resilience(&self) -> ResilienceStats {
        self.res
    }

    /// Install a trace sink: the run is traced from here on, and an
    /// untraced context's hot path stays a single `None` branch. The sink
    /// also switches on the buffer pool's event journal, which the
    /// context drains and timestamps at every step.
    pub fn set_trace_sink(&mut self, sink: &'a mut RingSink) {
        self.io_track = sink.track("io");
        self.pool_track = sink.track("pool");
        self.pool.set_event_log(true);
        self.trace = Some(sink);
    }

    /// Whether a trace sink is installed.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Install a metrics registry: the run is metered from here on, and
    /// an unmetered context's hot path stays a single `None` branch (as
    /// for [`SimContext::set_trace_sink`]). An installed registry makes
    /// `step` sample the engine series — queue depth, pool hit rate,
    /// dirty backlog, device channel occupancy — on the registry's
    /// sim-time cadence, and the I/O path and write system record every
    /// `Dist` sample into its histograms; an unmetered run records none.
    pub fn set_metrics(&mut self, metrics: &'a mut MetricsRegistry) {
        self.next_metric_sample = self.now;
        let series = [
            metrics.series_handle("engine_queue_depth"),
            metrics.series_handle("pool_hit_rate_permille"),
            metrics.series_handle("pool_dirty_pages"),
            metrics.series_handle("device_busy_channels"),
            metrics.series_handle("device_util_permille"),
        ];
        let hists = Dist::NAMES.map(|name| metrics.hist_handle(name));
        self.metrics = Some((metrics, series, hists));
    }

    /// Add to a named counter on the installed registry (no-op unmetered).
    #[inline]
    pub fn metric_counter(&mut self, name: &'static str, delta: u64) {
        if let Some((m, ..)) = &mut self.metrics {
            m.counter_add(name, delta);
        }
    }

    /// Record into a named histogram on the installed registry (no-op
    /// unmetered).
    #[inline]
    pub fn metric_hist(&mut self, name: &'static str, value: u64) {
        if let Some((m, ..)) = &mut self.metrics {
            m.hist_record(name, value);
        }
    }

    /// Record one sample of an engine distribution through its
    /// pre-resolved slot (no-op unmetered).
    #[inline]
    pub(crate) fn record(&mut self, dist: Dist, value: u64) {
        if let Some((m, _, hists)) = &mut self.metrics {
            m.hist_record_at(hists[dist as usize], value);
        }
    }

    /// Sample a named sim-time series at the current virtual time (no-op
    /// unmetered). Subsystems with event-driven signals (WAL flush lag,
    /// admission lease occupancy) call this from their handlers; the
    /// cadence reservoir bounds the stored points.
    #[inline]
    pub fn metric_sample(&mut self, name: &'static str, value: u64) {
        if let Some((m, ..)) = &mut self.metrics {
            m.series_sample(name, self.now, value);
        }
    }

    /// Sample the engine series when the clock advancing to `t` crosses a
    /// cadence boundary. Values are the state as of the *previous* events
    /// — exactly what a sampler waking at the boundary would observe. A
    /// jump across many boundaries (an idle gap) emits one point at the
    /// *last* boundary crossed: no events fired inside the gap, so the
    /// skipped boundaries would all have recorded the same values, and
    /// series consumers forward-fill between points.
    fn sample_metric_series(&mut self, t: SimTime) {
        let Some((m, handles, _)) = &mut self.metrics else {
            return;
        };
        if t < self.next_metric_sample {
            return;
        }
        let cadence = m.cadence();
        let skipped = t.since(self.next_metric_sample).as_nanos() / cadence.as_nanos().max(1);
        let at = self.next_metric_sample + cadence * skipped;
        let depth = self.depth_now as u64;
        let pstats = self.pool.stats();
        let lookups = pstats.hits + pstats.misses;
        let hit_permille = (pstats.hits * 1000).checked_div(lookups).unwrap_or(0);
        let dirty = self.pool.dirty_count() as u64;
        let busy = self.device.channels_busy(at) as u64;
        let total = self.device.channels().max(1) as u64;
        let [h_depth, h_hit, h_dirty, h_busy, h_util] = *handles;
        m.series_sample_at(h_depth, at, depth);
        m.series_sample_at(h_hit, at, hit_permille);
        m.series_sample_at(h_dirty, at, dirty);
        m.series_sample_at(h_busy, at, busy);
        m.series_sample_at(h_util, at, busy * 1000 / total);
        self.next_metric_sample = at + cadence;
    }

    /// Fold the end-of-run subsystem counters into the installed registry:
    /// the timer calendar's occupancy/churn stats, the pool counters and
    /// the physical I/O profile. Harnesses call this once, after the event
    /// loop quiesces and before snapshotting the registry.
    pub fn fold_metrics(&mut self) {
        let (io, res) = (self.io_profile(), self.res);
        let Some((m, ..)) = self.metrics.as_mut() else {
            return;
        };
        let (q, pstats) = (self.timer_queue.stats(), self.pool.stats());
        m.counter_add("timer_events_scheduled_total", q.scheduled);
        m.counter_add("timer_events_popped_total", q.popped);
        m.gauge_set("timer_peak_buckets", q.peak_buckets);
        m.gauge_set("timer_peak_len", q.peak_len);
        m.counter_add("timer_bucket_allocs_total", q.bucket_allocs);
        m.counter_add("pool_hits_total", pstats.hits);
        m.counter_add("pool_misses_total", pstats.misses);
        m.counter_add("pool_evictions_total", pstats.evictions);
        m.counter_add("pool_refetches_total", pstats.refetches);
        m.counter_add("pool_pages_dirtied_total", pstats.pages_dirtied);
        m.counter_add("pool_pages_flushed_total", pstats.pages_flushed);
        m.counter_add("io_pages_read_total", io.pages_read);
        m.counter_add("io_pages_written_total", io.pages_written);
        m.counter_add("io_ops_total", io.io_ops);
        m.counter_add("io_write_ops_total", io.write_ops);
        m.counter_add("io_retries_total", res.retries);
        m.counter_add("io_timeout_hedges_total", res.timeouts);
        m.counter_add("io_degraded_reads_total", res.degraded_reads);
    }

    /// Intern a track name on the installed sink (0 when untraced).
    pub fn trace_track(&mut self, name: &str) -> u32 {
        match &mut self.trace {
            Some(sink) => sink.track(name),
            None => 0,
        }
    }

    /// Open a named phase span on `track` at the current virtual time.
    pub fn trace_span_begin(&mut self, track: u32, name: &'static str) {
        self.emit(EventKind::SpanBegin(name), track, 0, 0, 0);
    }

    /// Close the innermost phase span on `track`.
    pub fn trace_span_end(&mut self, track: u32, name: &'static str) {
        self.emit(EventKind::SpanEnd(name), track, 0, 0, 0);
    }

    #[inline]
    pub(crate) fn emit(&mut self, kind: EventKind, track: u32, span: u64, a: u64, b: u64) {
        if let Some(sink) = &mut self.trace {
            sink.record(TraceEvent {
                t: self.now,
                track,
                span,
                kind,
                a,
                b,
            });
        }
    }

    /// Drain the pool's event journal into the sink, stamped at the
    /// current virtual time (pool activity happens synchronously between
    /// steps, so `now` is exact). `step` pumps before time moves on; the
    /// run paths pump once more when a run ends.
    pub(crate) fn pump_pool_events(&mut self) {
        let Some(sink) = &mut self.trace else {
            return;
        };
        let mut buf = std::mem::take(&mut self.pool_evbuf);
        buf.clear();
        self.pool.take_events(&mut buf);
        for ev in &buf {
            let (kind, page) = match *ev {
                PoolEvent::Hit(p) => (EventKind::PoolHit, p),
                PoolEvent::PrefetchHit(p) => (EventKind::PoolPrefetchHit, p),
                PoolEvent::Miss(p) => (EventKind::PoolMiss, p),
                PoolEvent::Refetch(p) => (EventKind::PoolRefetch, p),
                PoolEvent::Evict(p) => (EventKind::PoolEvict, p),
                PoolEvent::Dirty(p) => (EventKind::PoolDirty, p),
                PoolEvent::Flush(p) => (EventKind::PoolFlush, p),
            };
            sink.record(TraceEvent {
                t: self.now,
                track: self.pool_track,
                span: 0,
                kind,
                a: page,
                b: 0,
            });
        }
        self.pool_evbuf = buf;
    }

    /// Read one device page. If an identical read is already in flight the
    /// existing handle is returned, so concurrent workers (or a prefetcher
    /// and a demand read) share one physical I/O.
    pub fn read_page(&mut self, device_page: u64) -> u64 {
        if let Some(io) = self.inflight_page.get(device_page) {
            if self.owner != 0 {
                if let Some(st) = self.ios.get_mut(io) {
                    st.join(self.owner);
                }
            }
            return io;
        }
        let io = self.start_logical(IoMeta::Page { device_page });
        self.inflight_page.insert(device_page, io);
        io
    }

    /// Read a block of consecutive device pages (no deduplication; the
    /// table-scan prefetcher is the only issuer and never overlaps blocks).
    pub fn read_block(&mut self, start: u64, len: u32) -> u64 {
        self.start_logical(IoMeta::Block { start, len })
    }

    /// Write one device page. Writes share the reads' queue, band and
    /// retry machinery but are never deduplicated — two writes to the same
    /// page carry different payloads on the byte side.
    pub fn write_page(&mut self, device_page: u64) -> u64 {
        self.write_block(device_page, 1)
    }

    /// Write a block of consecutive device pages (a WAL segment or a
    /// multi-page flush).
    pub fn write_block(&mut self, start: u64, len: u32) -> u64 {
        self.start_logical(IoMeta::Write { start, len })
    }

    /// True once the underlying device halted on an injected crash. Event
    /// loops check this when a step stalls (or each iteration) and surface
    /// [`ExecError::Crashed`] instead of spinning on timers forever.
    pub fn device_crashed(&self) -> bool {
        self.device.crashed()
    }

    /// Open a logical I/O, issue its first attempt and return its handle.
    fn start_logical(&mut self, meta: IoMeta) -> u64 {
        let io = self.ios.insert(LogicalIo {
            meta,
            attempts: 0,
            live: 0,
            started: self.now,
            issue_time: self.now,
            pending_retry: false,
            owner: self.owner,
            joined: Vec::new(),
        });
        self.submit_physical(io);
        io
    }

    /// Issue one physical device request for logical read `io`.
    fn submit_physical(&mut self, io: u64) {
        let rid = self.req_owner.insert(io);
        let st = self
            .ios
            .get_mut(io)
            .expect("submit for unknown logical I/O");
        st.attempts += 1;
        st.live += 1;
        st.issue_time = self.now;
        let req = match st.meta {
            IoMeta::Page { device_page } => IoRequest::page(rid, device_page),
            IoMeta::Block { start, len } => IoRequest::block(rid, start, len),
            IoMeta::Write { start, len } => IoRequest::write_block(rid, start, len),
        };
        let (first_page, len) = (req.offset, req.len as u64);
        if let Some(grace) = self.retry.timeout {
            let due = self.now + grace;
            self.deadline_queue.entry(due).or_default().push(io);
        }
        self.track_submit();
        self.emit(EventKind::IoSubmit, self.io_track, rid, first_page, len);
        self.device.submit(self.now, req);
        self.dev_stale = true;
        self.dev_settled = false;
    }

    /// Sim-time exponential backoff before retry number `retry_no` (1-based):
    /// `backoff * 2^(retry_no - 1)`, with the shift clamped so a pathological
    /// policy cannot overflow.
    fn backoff_for(&self, retry_no: u32) -> SimDuration {
        self.retry.backoff * (1u64 << retry_no.saturating_sub(1).min(20))
    }

    /// Submit `work_us` core-microseconds of compute.
    pub fn submit_cpu(&mut self, work_us: f64) -> TaskId {
        self.cpu.submit_tagged(self.now, work_us, self.owner)
    }

    /// Arm a virtual-time timer that fires as [`Event::Timer`] once `after`
    /// has elapsed. Timers keep [`SimContext::step`] progressing even when
    /// no I/O or compute is pending (e.g. every session of a closed-loop
    /// workload is in think time), and consume neither device nor CPU
    /// capacity. Timers armed for the same instant fire in arming order.
    pub fn schedule_timer(&mut self, after: SimDuration) -> u64 {
        self.schedule_timer_tagged(after, 0)
    }

    /// [`SimContext::schedule_timer`] with a caller-chosen routing `tag`
    /// carried back on the [`Event::Timer`]. Tag `0` is the untagged
    /// default; a multi-owner dispatcher (e.g. the session engine) uses
    /// nonzero tags to route each wakeup to its owner without a per-timer
    /// side table. Timers live on a calendar [`EventQueue`], so arming and
    /// expiry are O(1) amortized regardless of how many are outstanding.
    pub fn schedule_timer_tagged(&mut self, after: SimDuration, tag: u64) -> u64 {
        let id = self.next_timer;
        self.next_timer += 1;
        self.timer_queue.schedule(self.now + after, (id, tag));
        id
    }

    fn track_submit(&mut self) {
        self.first_submit.get_or_insert(self.now);
        self.depth.add(self.now, 1.0);
        self.depth_now += 1;
        self.record(Dist::QueueDepth, self.depth_now as u64);
        if self.trace.is_some() {
            let depth = self.depth_now as u64;
            self.emit(EventKind::QueueDepth, self.io_track, 0, depth, 0);
        }
    }

    /// Advance to the next event and append the wakes to `events`.
    /// Returns `false` when neither the device, the CPU, nor the retry
    /// machinery has anything pending (deadlock or completion — the caller
    /// knows which).
    pub fn step(&mut self, events: &mut Vec<Event>) -> bool {
        if self.trace.is_some() {
            // Flush pool activity that happened since the last step, before
            // virtual time moves on (pool calls are synchronous at `now`).
            self.pump_pool_events();
        }
        self.ev_owners.clear();
        self.ev_owner_end.clear();
        if self.dev_stale {
            self.dev_next = self.device.next_event();
            self.dev_stale = false;
        }
        let mut t: Option<SimTime> = None;
        for cand in [
            self.dev_next,
            self.cpu.next_event(),
            self.retry_queue.keys().next().copied(),
            self.deadline_queue.keys().next().copied(),
            self.timer_queue.peek_time(),
        ] {
            t = match (t, cand) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        let Some(t) = t else { return false };
        debug_assert!(t >= self.now);
        self.now = t;
        if self.metrics.is_some() {
            // Sample series at every cadence boundary the clock just
            // crossed, before this instant's events are processed.
            self.sample_metric_series(t);
        }

        // A device with nothing due by `t` is not asked: an advance short
        // of its next event delivers nothing and changes nothing. An idle
        // device (`None`) is advanced once per idle spell, on the first
        // step after a submit (or ever), so a wrapper that starts lazily
        // on its first advance starts at the same instant; a second idle
        // advance is a no-op (`DeviceModel::advance`'s contract).
        let due = match self.dev_next {
            Some(due) => due <= t,
            None => !self.dev_settled,
        };
        if due {
            let mut io_buf = std::mem::take(&mut self.io_buf);
            io_buf.clear();
            self.device.advance(t, &mut io_buf);
            self.dev_stale = true;
            self.dev_settled = true;
            for c in &io_buf {
                self.deliver(c, events);
            }
            self.io_buf = io_buf;
        }

        // Backoff expiries: re-submit failed reads whose wait is over.
        while let Some((&due, _)) = self.retry_queue.iter().next() {
            if due > t {
                break;
            }
            let ios = self.retry_queue.remove(&due).expect("key just observed");
            for io in ios {
                let st = self.ios.get_mut(io).expect("retry for unknown logical I/O");
                st.pending_retry = false;
                let attempts = st.attempts as u64;
                self.res.retries += 1;
                self.emit(EventKind::Retry, self.io_track, 0, io, attempts);
                self.submit_physical(io);
            }
        }

        // Timeout expiries: hedge reads still outstanding from the issuance
        // the deadline was armed for (a completed, failed or already
        // re-issued read leaves a stale entry behind — skip those).
        while let Some((&due, _)) = self.deadline_queue.iter().next() {
            if due > t {
                break;
            }
            let ios = self.deadline_queue.remove(&due).expect("key just observed");
            let Some(grace) = self.retry.timeout else {
                continue;
            };
            for io in ios {
                let Some(st) = self.ios.get(io) else {
                    continue;
                };
                let armed_for = st.issue_time + grace;
                if armed_for != due || st.live == 0 || st.pending_retry {
                    continue;
                }
                if st.attempts >= self.retry.max_attempts {
                    continue; // out of attempts: wait for what's in flight
                }
                let attempts = st.attempts as u64;
                self.res.timeouts += 1;
                self.emit(EventKind::TimeoutHedge, self.io_track, 0, io, attempts);
                self.submit_physical(io);
            }
        }

        // Expired timers, in arming order within each instant (the
        // calendar queue pops FIFO within a timestamp).
        while self.timer_queue.peek_time().is_some_and(|due| due <= t) {
            let Some((_, (id, tag))) = self.timer_queue.pop() else {
                break;
            };
            self.push_event(events, Event::Timer { id, tag });
        }

        let mut cpu_buf = std::mem::take(&mut self.cpu_buf);
        cpu_buf.clear();
        self.cpu.advance(t, &mut cpu_buf);
        for &(id, tag) in &cpu_buf {
            if tag != 0 {
                self.ev_owners.push(tag);
            }
            self.push_event(events, Event::Cpu(id));
        }
        self.cpu_buf = cpu_buf;
        true
    }

    /// Account for one physical completion and, when it settles the owning
    /// logical read (success, or failure with no retry budget and no
    /// duplicate still in flight), emit its event.
    fn deliver(&mut self, c: &IoCompletion, events: &mut Vec<Event>) {
        // Physical accounting happens for every completion, including
        // duplicates of reads that already finished: the device really did
        // the work, so the profile must see it.
        self.depth.add(c.completed, -1.0);
        self.depth_now = self.depth_now.saturating_sub(1);
        self.latency_sum_us += c.latency().as_micros_f64();
        self.record(Dist::IoLatencyUs, c.latency().as_nanos() / 1000);
        if c.req.is_write() {
            self.pages_written += c.req.len as u64;
            self.write_ops += 1;
        } else {
            self.pages_read += c.req.len as u64;
        }
        self.io_ops += 1;
        self.last_complete = self.last_complete.max(c.completed);
        if c.degraded {
            self.res.degraded_reads += 1;
        }
        if let Some(sink) = &mut self.trace {
            sink.record(TraceEvent {
                t: c.completed,
                track: self.io_track,
                span: c.req.id,
                kind: EventKind::IoComplete,
                a: c.req.len as u64,
                b: (c.status == IoStatus::Ok) as u64,
            });
        }
        let io = match self.req_owner.remove(c.req.id) {
            Some(io) => io,
            None => return, // duplicate of a read that already settled
        };
        let (attempts, live, pending) = {
            // The logical read may have settled already via another physical
            // attempt (a hedge raced the original); this arrival is then
            // accounting-only.
            let Some(st) = self.ios.get_mut(io) else {
                return;
            };
            st.live -= 1;
            (st.attempts, st.live, st.pending_retry)
        };
        match c.status {
            IoStatus::Ok => {
                let st = self.ios.remove(io).expect("present just above");
                self.finish(io, &st, IoStatus::Ok, events);
            }
            IoStatus::Error if attempts < self.retry.max_attempts => {
                if !pending {
                    let wait = self.backoff_for(attempts);
                    let due = c.completed + wait;
                    self.retry_queue.entry(due).or_default().push(io);
                    self.ios
                        .get_mut(io)
                        .expect("present just above")
                        .pending_retry = true;
                    let wait_us = wait.as_nanos() / 1000;
                    self.emit(EventKind::Backoff, self.io_track, 0, io, wait_us);
                }
            }
            IoStatus::Error if live == 0 && !pending => {
                let st = self.ios.remove(io).expect("present just above");
                self.finish(io, &st, IoStatus::Error, events);
            }
            // A duplicate is still in flight; let it settle the read
            // (a late success wins over this failure).
            IoStatus::Error => {}
        }
    }

    fn finish(&mut self, io: u64, st: &LogicalIo, status: IoStatus, events: &mut Vec<Event>) {
        self.record(Dist::PageWaitUs, (self.now - st.started).as_nanos() / 1000);
        self.record(Dist::RetriesPerRead, st.attempts.saturating_sub(1) as u64);
        if st.owner != 0 {
            self.ev_owners.push(st.owner);
            self.ev_owners.extend_from_slice(&st.joined);
        }
        let attempts = st.attempts;
        let ev = match st.meta {
            IoMeta::Page { device_page } => {
                self.inflight_page.remove(device_page);
                Event::IoPage {
                    io,
                    device_page,
                    status,
                    attempts,
                }
            }
            IoMeta::Block { start, len } => Event::IoBlock {
                io,
                start,
                len,
                status,
                attempts,
            },
            IoMeta::Write { start, len } => Event::IoWrite {
                io,
                start,
                len,
                status,
                attempts,
            },
        };
        self.push_event(events, ev);
    }

    /// Let the context's own in-flight I/O finish (without emitting events)
    /// so its pages land in the pool and its accounting closes. Bounded by
    /// the context's outstanding work, not the device's — a device carrying
    /// unrelated background load stays busy forever.
    pub fn quiesce(&mut self) {
        let mut events = Vec::new();
        while self.holds_work() {
            events.clear();
            if !self.step(&mut events) {
                break;
            }
            // Every completion is a stray now.
            for e in &events {
                self.admit_stray(e);
            }
        }
    }

    /// Whether any logical I/O, physical request or CPU task is in flight.
    pub(crate) fn holds_work(&self) -> bool {
        !self.ios.is_empty() || !self.req_owner.is_empty() || self.cpu.next_event().is_some()
    }

    /// The stray rule: a successful read no running query owns lands its
    /// pages in the pool, non-fatally (a full pool just leaves them out).
    pub(crate) fn admit_stray(&mut self, ev: &Event) {
        let (start, len) = match *ev {
            Event::IoPage {
                device_page,
                status: IoStatus::Ok,
                ..
            } => (device_page, 1),
            Event::IoBlock {
                start,
                len,
                status: IoStatus::Ok,
                ..
            } => (start, len),
            _ => return,
        };
        for p in start..start + len as u64 {
            let _ = self.pool.admit_prefetched(p);
        }
    }

    /// The I/O profile observed so far (`now` bounds the queue-depth mean).
    pub fn io_profile(&self) -> IoProfile {
        let window = match self.first_submit {
            Some(t0) => self.last_complete - t0,
            None => SimDuration::ZERO,
        };
        IoProfile {
            pages_read: self.pages_read,
            io_ops: self.io_ops,
            pages_written: self.pages_written,
            write_ops: self.write_ops,
            mean_queue_depth: match self.first_submit {
                Some(_) => self.depth.mean(self.last_complete.max(self.now)),
                None => 0.0,
            },
            peak_queue_depth: self.depth.peak(),
            throughput_mb_s: pioqo_simkit::stats::mb_per_sec(
                self.pages_read * self.device.page_size() as u64,
                window,
            ),
            mean_latency_us: if self.io_ops == 0 {
                0.0
            } else {
                self.latency_sum_us / self.io_ops as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioqo_device::presets::consumer_pcie_ssd;

    #[test]
    fn page_reads_deduplicate() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let a = ctx.read_page(100);
        let b = ctx.read_page(100);
        assert_eq!(a, b, "same in-flight page must share one I/O");
        let c = ctx.read_page(101);
        assert_ne!(a, c);
        let mut events = Vec::new();
        while ctx.step(&mut events) {}
        let pages: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::IoPage { device_page, .. } => Some(*device_page),
                _ => None,
            })
            .collect();
        assert_eq!(pages.len(), 2);
        // After completion the page may be read again with a fresh I/O.
        let d = ctx.read_page(100);
        assert_ne!(a, d);
    }

    /// Step to quiescence, returning each event with its owner tags.
    fn drain_with_owners(ctx: &mut SimContext<'_>) -> Vec<(Event, Vec<u64>)> {
        let mut out = Vec::new();
        let mut events = Vec::new();
        loop {
            events.clear();
            if !ctx.step(&mut events) {
                return out;
            }
            for (i, e) in events.iter().enumerate() {
                out.push((*e, ctx.event_owners(i).to_vec()));
            }
        }
    }

    fn page_owners(done: &[(Event, Vec<u64>)], want: u64) -> Vec<Vec<u64>> {
        done.iter()
            .filter_map(|(e, owners)| match e {
                Event::IoPage { io, .. } if *io == want => Some(owners.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn joined_page_read_reports_every_owner_in_join_order() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let a = ctx.with_owner(9, |ctx| ctx.read_page(100));
        let b = ctx.with_owner(4, |ctx| ctx.read_page(100));
        // Repeat joins (a second worker of the same query) add nothing.
        let c = ctx.with_owner(9, |ctx| ctx.read_page(100));
        assert_eq!([b, c], [a, a], "one physical read serves all three");
        let solo = ctx.with_owner(4, |ctx| ctx.read_page(101));
        let task = ctx.with_owner(7, |ctx| ctx.submit_cpu(1.0));
        let blk = ctx.with_owner(5, |ctx| ctx.read_block(200, 4));
        let wr = ctx.with_owner(6, |ctx| ctx.write_page(300));
        let done = drain_with_owners(&mut ctx);
        assert_eq!(page_owners(&done, a), vec![vec![9, 4]]);
        assert_eq!(page_owners(&done, solo), vec![vec![4]]);
        for (e, owners) in &done {
            match e {
                Event::Cpu(t) if *t == task => assert_eq!(owners, &[7]),
                Event::IoBlock { io, .. } if *io == blk => assert_eq!(owners, &[5]),
                Event::IoWrite { io, .. } if *io == wr => assert_eq!(owners, &[6]),
                _ => {}
            }
        }
        assert_eq!(done.len(), 5);
    }

    #[test]
    fn untagged_issuer_yields_no_owner() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let plain = ctx.read_page(100);
        ctx.submit_cpu(1.0);
        ctx.schedule_timer_tagged(SimDuration::from_micros_f64(1.0), 3);
        // An untagged issuer joined by a tagged one: only the tag shows.
        let mixed = ctx.read_page(101);
        assert_eq!(ctx.with_owner(8, |ctx| ctx.read_page(101)), mixed);
        let done = drain_with_owners(&mut ctx);
        assert_eq!(done.len(), 4);
        for (e, owners) in &done {
            match e {
                Event::IoPage { io, .. } if *io == mixed => assert_eq!(owners, &[8]),
                Event::IoPage { io, .. } => {
                    assert_eq!(*io, plain);
                    assert!(owners.is_empty());
                }
                // A timer's tag travels on the event itself.
                _ => assert!(owners.is_empty(), "{e:?}"),
            }
        }
        assert!(ctx.event_owners(99).is_empty(), "out of range is empty");
    }

    #[test]
    fn owners_survive_a_backoff_retry() {
        let inner = consumer_pcie_ssd(1 << 16, 1);
        let mut dev = pioqo_device::Faulty::new(
            inner,
            pioqo_device::FaultPlan::Transient {
                p: 1.0,
                attempts: 2,
                seed: 7,
            },
        );
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        ctx.set_retry_policy(RetryPolicy::attempts(4));
        let io = ctx.with_owner(2, |ctx| ctx.read_page(42));
        // Joins while the first attempt is in flight...
        ctx.with_owner(3, |ctx| ctx.read_page(42));
        let mut events = Vec::new();
        while ctx.resilience().retries == 0 {
            assert!(ctx.step(&mut events));
        }
        // ...and while a retry is.
        assert_eq!(ctx.with_owner(5, |ctx| ctx.read_page(42)), io);
        let done = drain_with_owners(&mut ctx);
        assert_eq!(page_owners(&done, io), vec![vec![2, 3, 5]]);
        assert_eq!(ctx.resilience().retries, 2);
    }

    #[test]
    fn owners_survive_a_timeout_hedge() {
        let mut dev = pioqo_device::presets::hdd_7200(1 << 20, 1);
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        ctx.set_retry_policy(RetryPolicy {
            max_attempts: 2,
            backoff: SimDuration::from_micros_f64(100.0),
            timeout: Some(SimDuration::from_micros_f64(500.0)),
        });
        let ios: Vec<u64> = (0..8u64)
            .map(|i| ctx.with_owner(10 + i, |ctx| ctx.read_page(i * 100_000)))
            .collect();
        ctx.with_owner(99, |ctx| ctx.read_page(7 * 100_000));
        let done = drain_with_owners(&mut ctx);
        assert!(ctx.resilience().timeouts > 0, "some reads were hedged");
        for (i, &io) in ios.iter().enumerate() {
            let mut want = vec![10 + i as u64];
            if i == 7 {
                want.push(99);
            }
            // Exactly one event per logical read, hedged or not, and the
            // hedge's duplicate completion carries nobody.
            assert_eq!(page_owners(&done, io), vec![want]);
        }
    }

    #[test]
    fn step_interleaves_io_and_cpu() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        ctx.read_page(5);
        let t = ctx.submit_cpu(3.0);
        let mut events = Vec::new();
        let mut cpu_done = false;
        let mut io_done = false;
        while ctx.step(&mut events) {
            for e in events.drain(..) {
                match e {
                    Event::Cpu(id) => {
                        assert_eq!(id, t);
                        cpu_done = true;
                        // CPU task (3 us) finishes before the flash read.
                        assert!(!io_done);
                    }
                    Event::IoPage { .. } => io_done = true,
                    _ => {}
                }
            }
        }
        assert!(cpu_done && io_done);
    }

    #[test]
    fn profile_counts_io() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        ctx.read_block(0, 16);
        ctx.read_page(1000);
        let mut events = Vec::new();
        while ctx.step(&mut events) {}
        let p = ctx.io_profile();
        assert_eq!(p.io_ops, 2);
        assert_eq!(p.pages_read, 17);
        assert!(p.throughput_mb_s > 0.0);
        assert!(p.mean_latency_us > 0.0);
        assert!(p.peak_queue_depth >= 2.0);
    }

    #[test]
    fn transient_fault_is_retried_to_success() {
        let inner = consumer_pcie_ssd(1 << 16, 1);
        let mut dev = pioqo_device::Faulty::new(
            inner,
            pioqo_device::FaultPlan::Transient {
                p: 1.0,
                attempts: 2,
                seed: 7,
            },
        );
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        ctx.set_retry_policy(RetryPolicy::attempts(4));
        let io = ctx.read_page(42);
        let mut events = Vec::new();
        while ctx.step(&mut events) {}
        let done: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::IoPage {
                    io: id,
                    status,
                    attempts,
                    ..
                } if *id == io => Some((*status, *attempts)),
                _ => None,
            })
            .collect();
        assert_eq!(done, vec![(IoStatus::Ok, 3)], "fails twice, heals on 3rd");
        assert_eq!(ctx.resilience().retries, 2);
        assert_eq!(ctx.resilience().timeouts, 0);
    }

    #[test]
    fn exhausted_retries_surface_as_error_with_attempts() {
        let inner = consumer_pcie_ssd(1 << 16, 1);
        let mut dev = pioqo_device::Faulty::new(inner, pioqo_device::FaultPlan::EveryNth(1));
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        ctx.set_retry_policy(RetryPolicy::attempts(3));
        let io = ctx.read_page(9);
        let mut events = Vec::new();
        while ctx.step(&mut events) {}
        let done: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::IoPage {
                    io: id,
                    status,
                    attempts,
                    ..
                } if *id == io => Some((*status, *attempts)),
                _ => None,
            })
            .collect();
        assert_eq!(done, vec![(IoStatus::Error, 3)]);
        assert_eq!(ctx.resilience().retries, 2);
        assert_eq!(
            io_failure("fts", 9, 3),
            ExecError::IoExhausted {
                device_page: 9,
                attempts: 3
            }
        );
    }

    #[test]
    fn backoff_spaces_retries_in_sim_time() {
        let inner = consumer_pcie_ssd(1 << 16, 1);
        let mut dev = pioqo_device::Faulty::new(inner, pioqo_device::FaultPlan::EveryNth(1));
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        ctx.set_retry_policy(RetryPolicy {
            max_attempts: 3,
            backoff: SimDuration::from_micros_f64(1000.0),
            timeout: None,
        });
        ctx.read_page(9);
        let mut events = Vec::new();
        while ctx.step(&mut events) {}
        // One flash read is well under 1 ms, so the run is dominated by the
        // two backoff waits: 1 ms + 2 ms of exponential spacing.
        assert!(ctx.now() >= SimTime::ZERO + SimDuration::from_micros_f64(3000.0));
        assert_eq!(ctx.resilience().retries, 2);
    }

    #[test]
    fn timeout_reissues_a_slow_read() {
        // A deep queue on a single spindle makes the last read wait far
        // longer than the timeout, so the context hedges it.
        let mut dev = pioqo_device::presets::hdd_7200(1 << 20, 1);
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        ctx.set_retry_policy(RetryPolicy {
            max_attempts: 2,
            backoff: SimDuration::from_micros_f64(100.0),
            timeout: Some(SimDuration::from_micros_f64(500.0)),
        });
        for i in 0..8u64 {
            ctx.read_page(i * 100_000);
        }
        let mut events = Vec::new();
        while ctx.step(&mut events) {}
        let oks = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::IoPage {
                        status: IoStatus::Ok,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(oks, 8, "every logical read settles exactly once");
        assert!(ctx.resilience().timeouts > 0, "some reads were hedged");
        // Hedged duplicates really ran: more physical ops than logical reads.
        assert!(ctx.io_profile().io_ops > 8);
        ctx.quiesce();
        assert_eq!(ctx.device.outstanding(), 0);
    }

    #[test]
    fn default_policy_is_inert() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        ctx.read_block(0, 16);
        ctx.read_page(1000);
        let mut events = Vec::new();
        while ctx.step(&mut events) {}
        assert_eq!(ctx.resilience(), ResilienceStats::default());
        assert_eq!(ctx.io_profile().io_ops, 2);
    }

    #[test]
    fn tracing_records_io_events_and_histograms() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(64);
        let mut sink = pioqo_obs::RingSink::with_capacity(1024);
        let mut registry = MetricsRegistry::enabled(SimDuration::from_millis(1));
        {
            let mut ctx = SimContext::new(
                &mut dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            ctx.set_trace_sink(&mut sink);
            ctx.set_metrics(&mut registry);
            assert!(ctx.trace_enabled());
            ctx.read_block(0, 4);
            ctx.read_page(1000);
            ctx.pool.request(0); // miss journaled by the pool
            let mut events = Vec::new();
            while ctx.step(&mut events) {}
            ctx.pump_pool_events();
        }
        for name in Dist::NAMES.into_iter().take(4) {
            let h = registry.hist(name).expect("recorded");
            assert_eq!(h.count, 2, "{name}");
        }
        let retries = registry.hist("io_retries_per_read").expect("recorded");
        assert_eq!(retries.max, 0, "clean device: no retries");
        let mut submits = 0;
        let mut completes = 0;
        let mut depth_samples = 0;
        let mut pool_misses = 0;
        for ev in sink.events() {
            match ev.kind {
                EventKind::IoSubmit => submits += 1,
                EventKind::IoComplete => completes += 1,
                EventKind::QueueDepth => depth_samples += 1,
                EventKind::PoolMiss => pool_misses += 1,
                _ => {}
            }
        }
        assert_eq!(submits, 2);
        assert_eq!(completes, 2);
        assert_eq!(depth_samples, 2);
        assert_eq!(pool_misses, 1);
        let json = sink.to_chrome_json();
        assert!(json.contains("\"cat\":\"io\""));
    }

    #[test]
    fn every_sample_reaches_the_registry_once() {
        // Every page's first read fails (backoff retries) and a deep queue
        // on one spindle outlasts the timeout (hedges), so physical I/Os,
        // attempts and settled reads all differ.
        let inner = pioqo_device::presets::hdd_7200(1 << 20, 1);
        let plan = pioqo_device::FaultPlan::Transient {
            p: 1.0,
            attempts: 1,
            seed: 3,
        };
        let mut dev = pioqo_device::Faulty::new(inner, plan);
        let mut pool = BufferPool::new(64);
        let mut registry = MetricsRegistry::enabled(SimDuration::from_millis(1));
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        ctx.set_metrics(&mut registry);
        ctx.set_retry_policy(RetryPolicy {
            max_attempts: 4,
            backoff: SimDuration::from_micros(100),
            timeout: Some(SimDuration::from_millis(20)),
        });
        for i in 0..16u64 {
            ctx.read_page(i * 50_000);
        }
        ctx.quiesce();
        let (io_ops, res) = (ctx.io_profile().io_ops, ctx.resilience());
        ctx.fold_metrics();
        drop(ctx);
        assert!(res.retries > 0 && res.timeouts > 0, "{res:?}");
        let count = |name| registry.hist(name).map_or(0, |h| h.count);
        assert_eq!(count("io_latency_us"), io_ops);
        assert_eq!(count("queue_depth"), io_ops);
        assert_eq!(count("page_wait_us"), 16, "one settle per logical read");
        assert_eq!(count("io_retries_per_read"), 16);
        // Every attempt after a read's first is a backoff retry or a hedge.
        let extra = registry.hist("io_retries_per_read").map(|h| h.sum);
        assert_eq!(extra, Some(res.retries + res.timeouts));
        assert!(registry.hist("commit_ack_us").is_none(), "no commit ran");
        let snap = registry.snapshot("");
        assert!(!snap.hists.contains_key("commit_ack_us"));
        assert_eq!(snap.hists.len(), 4);
    }

    #[test]
    fn resilience_stats_merge_sums_fields() {
        let mut a = ResilienceStats {
            retries: 1,
            timeouts: 2,
            degraded_reads: 3,
        };
        let b = ResilienceStats {
            retries: 10,
            timeouts: 20,
            degraded_reads: 30,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ResilienceStats {
                retries: 11,
                timeouts: 22,
                degraded_reads: 33,
            }
        );
    }

    /// Every model and wrapper the cached next event must be right for.
    fn device_zoo(cap: u64, seed: u64) -> Vec<(&'static str, Box<dyn DeviceModel>)> {
        use pioqo_device::presets::{hdd_7200, raid_15k};
        use pioqo_device::{CrashPlan, Crashable, FaultPlan, Faulty, WithBackgroundLoad};
        let mut degraded = raid_15k(8, cap, seed);
        degraded.set_degraded(Some(5));
        vec![
            ("hdd", Box::new(hdd_7200(cap, seed))),
            ("ssd", Box::new(consumer_pcie_ssd(cap, seed))),
            ("raid", Box::new(raid_15k(8, cap, seed))),
            ("raid-degraded", Box::new(degraded)),
            (
                "faulty-tail",
                Box::new(
                    Faulty::new(
                        consumer_pcie_ssd(cap, seed),
                        FaultPlan::Transient {
                            p: 0.05,
                            attempts: 1,
                            seed,
                        },
                    )
                    .with_tail_latency(0.2, 8.0, seed),
                ),
            ),
            (
                "crashable",
                Box::new(Crashable::new(
                    hdd_7200(cap, seed),
                    CrashPlan::at(SimTime::from_micros(3_600_000_000), seed),
                )),
            ),
            (
                "background",
                Box::new(WithBackgroundLoad::new(
                    consumer_pcie_ssd(cap, seed),
                    3,
                    2,
                    seed,
                )),
            ),
        ]
    }

    #[test]
    fn step_never_skips_a_due_device() {
        use crate::execute::{make_driver, PlanSpec};
        use crate::query::{oracle, QuerySpec};
        use crate::{FtsConfig, IsConfig, SortedIsConfig};
        use pioqo_storage::{range_for_selectivity, BTreeIndex, HeapTable, TableSpec, Tablespace};

        let spec = TableSpec::paper_table(33, 12_000, 55);
        let mut ts = Tablespace::new(4 * spec.n_pages() + 1000);
        let table = HeapTable::create(spec, &mut ts).expect("table fits");
        let entries = table.data().c2_entries();
        let index = BTreeIndex::build("c2_idx", entries, table.spec().page_size, &mut ts)
            .expect("index fits");
        let (low, high) = range_for_selectivity(0.05, u32::MAX - 1);
        // Retries and hedges put the context's own queues in play too.
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff: SimDuration::from_micros(200),
            timeout: Some(SimDuration::from_millis(5)),
        };
        let plans = [
            PlanSpec::Fts(FtsConfig {
                workers: 4,
                retry: retry.clone(),
                ..FtsConfig::default()
            }),
            PlanSpec::Is(IsConfig {
                workers: 8,
                prefetch_depth: 4,
                retry: retry.clone(),
            }),
            PlanSpec::SortedIs(SortedIsConfig {
                retry,
                ..SortedIsConfig::default()
            }),
        ];
        for (plan_no, plan) in plans.iter().enumerate() {
            let q = QuerySpec::range_max(&table, Some(&index), low, high).with_plan(plan.clone());
            let want = oracle(&q).fingerprint;
            for (name, mut dev) in device_zoo(ts.capacity(), 7 + plan_no as u64) {
                let mut pool = BufferPool::new(256);
                let mut ctx = SimContext::new(
                    dev.as_mut(),
                    &mut pool,
                    CpuConfig::paper_xeon(),
                    CpuCosts::default(),
                );
                ctx.set_retry_policy(q.plan.retry().clone());
                let mut driver = make_driver(&q).expect("plan lowers");
                driver.start(&mut ctx).expect("driver starts");
                let mut events = Vec::new();
                while !driver.done() {
                    events.clear();
                    assert!(ctx.step(&mut events), "{name} {}: stalled", plan.label());
                    let due = ctx.device.next_event();
                    assert!(
                        due.is_none_or(|t| t > ctx.now()),
                        "{name} {}: device due at {due:?} left behind at {}",
                        plan.label(),
                        ctx.now()
                    );
                    for e in &events {
                        driver.on_event(&mut ctx, e).expect("no exhausted read");
                    }
                }
                assert_eq!(driver.answer().fingerprint, want, "{name} {}", plan.label());
            }
        }
    }

    #[test]
    fn quiesce_leaves_device_idle_and_pool_populated() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(64);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        ctx.read_block(0, 8);
        ctx.quiesce();
        assert_eq!(ctx.device.outstanding(), 0);
        for p in 0..8u64 {
            assert!(ctx.pool.contains(p));
        }
    }
}
