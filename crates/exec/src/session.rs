//! Concurrent multi-query execution: closed-loop sessions sharing one
//! simulated machine.
//!
//! The paper's experiments run one query at a time; real servers admit many.
//! [`MultiEngine`] interleaves N *sessions* — each a closed loop of
//! range-MAX queries separated by seeded think time — on **one**
//! [`SimContext`]: one device, one buffer pool, one CPU scheduler.
//!
//! The engine is session policy — think timers, admission, records — on
//! top of the crate's one run loop, which owns stepping and routes each
//! completion to the running queries whose owner tag it carries
//! ([`SimContext::event_owners`]), so an event costs the same whether 8 or
//! 100K sessions are open. A finished query's stray prefetch reaches no
//! driver and only warms the pool. Queries attached to the shared-scan hub
//! ([`crate::shared::ScanHub`], enabled by [`WorkloadSpec::shared_scans`])
//! ride one untagged circular cursor. The interleaving is exact and
//! byte-deterministic for a given [`WorkloadSpec`] seed.
//!
//! Plan choice is delegated to an [`AdmissionPlanner`]: the engine tells it
//! how many queries are already running when a new one arrives, and the
//! planner answers with the [`PlanSpec`] to execute — or, under shared
//! scans, with [`SharedChoice::Attach`] to ride the hub's cursor at
//! marginal cost. The trivial [`FixedPlanner`] always picks the same plan;
//! the QDTT-aware planner in the optimizer crate hands out queue-depth
//! leases from the device budget and re-costs every candidate under its
//! lease, charging the shared cursor's lease **once** no matter how many
//! consumers attach.
//!
//! Determinism invariants: per-session randomness comes from
//! `SimRng::derive(spec.seed, session)`, think time advances on virtual
//! [`crate::Event::Timer`]s, and all engine state lives in ordered or dense
//! collections.

use crate::driver::QueryAnswer;
use crate::engine::{ExecError, IoProfile, ResilienceStats, SimContext};
use crate::execute::PlanSpec;
use crate::fts::FtsConfig;
use crate::query::{Aggregate, Col, Predicate, QuerySpec};
use crate::run::{tag, Policy, Run};
use crate::shared::{ScanHub, SharedScanStats};
use crate::write::{WriteConfig, WriteStats, WriteSystem};
use pioqo_bufpool::{BufferPool, PoolStats};
use pioqo_obs::Histogram;
use pioqo_simkit::{SimDuration, SimRng, SimTime};
use pioqo_storage::range_for_selectivity;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Plan label recorded for queries served by the shared-scan hub.
const SHARED_LABEL: &str = "FTS+shared";

/// Distribution of the pause between a session's consecutive queries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ThinkTime {
    /// The same pause every time.
    Fixed(SimDuration),
    /// Exponentially distributed pause (memoryless arrivals, the classic
    /// closed-loop client model).
    Exponential {
        /// Mean of the distribution.
        mean: SimDuration,
    },
}

impl ThinkTime {
    /// Draw one pause from the session's generator.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            ThinkTime::Fixed(d) => d,
            ThinkTime::Exponential { mean } => {
                // Inverse CDF on (0, 1]: -ln(1-u) is Exp(1).
                let u = rng.unit();
                mean * (-(1.0 - u).ln())
            }
        }
    }
}

/// A multi-session closed-loop workload, fully described (and so fully
/// reproducible: the spec plus the machine is the experiment).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of concurrent closed-loop sessions.
    pub sessions: u32,
    /// Queries each session issues before it stops.
    pub queries_per_session: u32,
    /// Pause between a session's queries (sampled per query).
    pub think: ThinkTime,
    /// Selectivities cycled through by each session (query `i` uses
    /// `selectivities[i % len]`).
    pub selectivities: Vec<f64>,
    /// Master seed; session `s` draws from `SimRng::derive(seed, s)`.
    pub seed: u64,
    /// Stop issuing new queries past this much virtual time (in-flight
    /// queries still finish). `None` means every session runs its full
    /// query count. A horizon makes per-session completion counts diverge,
    /// which is what the fairness metrics are for.
    pub horizon: Option<SimDuration>,
    /// The write workload running beside the scans, if any (populated by
    /// [`MultiEngine::run_with_writes`] so reports stay self-describing).
    pub writes: Option<WriteConfig>,
    /// Route table-scan queries through the cooperative shared-scan hub:
    /// overlapping consumers ride one circular cursor instead of each
    /// issuing their own device stream. Answers are identical either way;
    /// only the simulated machine usage (and the wall-clock cost of the
    /// simulation itself) changes.
    pub shared_scans: bool,
    /// Keep at most this many per-query [`QueryRecord`]s in the report
    /// (`None` = keep all). At 100K sessions the full record vector is the
    /// dominant memory cost; aggregates and the query-latency histogram
    /// always cover every query regardless of the cap.
    pub record_limit: Option<u64>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            sessions: 4,
            queries_per_session: 4,
            think: ThinkTime::Exponential {
                mean: SimDuration::from_micros_f64(2_000.0),
            },
            selectivities: vec![0.001, 0.01, 0.05],
            seed: 42,
            horizon: None,
            writes: None,
            shared_scans: false,
            record_limit: None,
        }
    }
}

/// What the engine tells the planner about a query asking for admission.
#[derive(Debug, Clone, Copy)]
pub struct QueryAdmission {
    /// The issuing session.
    pub session: u32,
    /// The session-local query index (0-based).
    pub query_index: u32,
    /// Queries of *other* sessions running at admission time (this query
    /// will make it `active + 1`).
    pub active: u32,
    /// The query's predicate selectivity.
    pub selectivity: f64,
    /// Predicate lower bound (inclusive).
    pub low: u32,
    /// Predicate upper bound (inclusive).
    pub high: u32,
}

/// The planner's answer under shared scans: run a plan of your own, or
/// attach to the shared circular cursor at marginal cost.
#[derive(Debug, Clone)]
pub enum SharedChoice {
    /// Execute a dedicated plan (the classic path).
    Solo(PlanSpec),
    /// Attach to the shared-scan hub's cursor (starting it if idle).
    Attach,
}

/// Chooses the physical plan for each admitted query.
///
/// Implementations see the live concurrency level and buffer pool, so they
/// can be as simple as [`FixedPlanner`] or as involved as the optimizer
/// crate's QDTT admission layer (lease out device queue depth, re-cost all
/// candidates under the lease). [`AdmissionPlanner::complete`] is the
/// engine's promise that every admission is paired with exactly one
/// completion — the hook where leases are returned.
pub trait AdmissionPlanner {
    /// Choose the plan for `q`. Called once per query, at admission.
    fn admit(&mut self, q: &QueryAdmission, pool: &BufferPool) -> PlanSpec;

    /// Choose between a dedicated plan and attaching to the shared scan
    /// cursor (`cursor_active` says whether one is already streaming).
    /// Only called when the workload enables shared scans. The default
    /// never attaches.
    fn admit_shared(
        &mut self,
        q: &QueryAdmission,
        pool: &BufferPool,
        cursor_active: bool,
    ) -> SharedChoice {
        let _ = cursor_active;
        SharedChoice::Solo(self.admit(q, pool))
    }

    /// The shared cursor is starting: lease it a queue depth (in block
    /// submissions). Charged once per cursor start, not per consumer.
    fn cursor_start(&mut self, pool: &BufferPool) -> u32 {
        let _ = pool;
        8
    }

    /// The shared cursor went idle; the paired release of
    /// [`cursor_start`](Self::cursor_start).
    fn cursor_stop(&mut self) {}

    /// The query admitted for `session` finished (successfully or not).
    fn complete(&mut self, session: u32) {
        let _ = session;
    }

    /// Background writeback (checkpoint flushing) became active: planners
    /// managing a device budget should carve out a share for it, so
    /// concurrent scans are admitted with less queue depth while the
    /// flusher's writes contend for the device. The default ignores it.
    fn background_acquire(&mut self) {}

    /// Background writeback went idle again; the paired release of
    /// [`background_acquire`](Self::background_acquire).
    fn background_release(&mut self) {}

    /// Instantaneous lease accounting for metrics: `(active_leases,
    /// depth_limit)`. Planners that manage no queue-depth budget report
    /// `(0, 0)` and the engine's admission gauges stay flat at zero.
    fn depth_gauges(&self) -> (u32, u32) {
        (0, 0)
    }
}

/// The null admission policy: every query runs the same plan. Under
/// shared scans, full-table-scan plans attach to the shared cursor.
#[derive(Debug, Clone)]
pub struct FixedPlanner {
    /// The plan to run.
    pub plan: PlanSpec,
}

impl AdmissionPlanner for FixedPlanner {
    fn admit(&mut self, _q: &QueryAdmission, _pool: &BufferPool) -> PlanSpec {
        self.plan.clone()
    }

    fn admit_shared(
        &mut self,
        q: &QueryAdmission,
        pool: &BufferPool,
        _cursor_active: bool,
    ) -> SharedChoice {
        match self.plan {
            PlanSpec::Fts(_) => SharedChoice::Attach,
            _ => SharedChoice::Solo(self.admit(q, pool)),
        }
    }
}

/// Passing `&mut planner` lets the caller keep the planner (and whatever
/// journal it accumulated) after [`MultiEngine::run`] consumes the engine.
impl<P: AdmissionPlanner + ?Sized> AdmissionPlanner for &mut P {
    fn admit(&mut self, q: &QueryAdmission, pool: &BufferPool) -> PlanSpec {
        (**self).admit(q, pool)
    }

    fn admit_shared(
        &mut self,
        q: &QueryAdmission,
        pool: &BufferPool,
        cursor_active: bool,
    ) -> SharedChoice {
        (**self).admit_shared(q, pool, cursor_active)
    }

    fn cursor_start(&mut self, pool: &BufferPool) -> u32 {
        (**self).cursor_start(pool)
    }

    fn cursor_stop(&mut self) {
        (**self).cursor_stop();
    }

    fn complete(&mut self, session: u32) {
        (**self).complete(session);
    }

    fn background_acquire(&mut self) {
        (**self).background_acquire();
    }

    fn background_release(&mut self) {
        (**self).background_release();
    }

    fn depth_gauges(&self) -> (u32, u32) {
        (**self).depth_gauges()
    }
}

/// One completed query, as the workload report records it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryRecord {
    /// The issuing session.
    pub session: u32,
    /// The session-local query index.
    pub query_index: u32,
    /// The predicate selectivity the query ran with.
    pub selectivity: f64,
    /// Label of the plan the planner chose ("FTS", "PIS8+pf4",
    /// "FTS+shared", ...).
    pub plan: String,
    /// The plan's parallel degree.
    pub degree: u32,
    /// Concurrent queries (other sessions) when this one was admitted.
    pub active_at_admit: u32,
    /// Virtual admission time.
    pub submitted: SimTime,
    /// Admission-to-answer virtual latency.
    pub latency: SimDuration,
    /// The query answer.
    pub max_c1: Option<u32>,
    /// Rows matching the predicate.
    pub rows_matched: u64,
}

/// Per-session accounting in the workload report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSummary {
    /// The session.
    pub session: u32,
    /// Queries the session completed.
    pub completed: u32,
    /// Mean query latency, µs.
    pub mean_latency_us: f64,
}

/// Everything a [`MultiEngine`] run reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// The spec that produced this report (self-describing exports).
    pub spec: WorkloadSpec,
    /// Completed queries in completion order (capped by
    /// [`WorkloadSpec::record_limit`]).
    pub records: Vec<QueryRecord>,
    /// Per-session accounting.
    pub per_session: Vec<SessionSummary>,
    /// How often each plan label was chosen.
    pub plan_counts: BTreeMap<String, u64>,
    /// Query latencies across all sessions, µs.
    pub query_latency_us: Histogram,
    /// 95th-percentile query latency across all sessions, µs.
    pub p95_latency_us: u64,
    /// 99th-percentile query latency across all sessions, µs.
    pub p99_latency_us: u64,
    /// First admission to last completion, virtual time.
    pub makespan: SimDuration,
    /// Device-level I/O profile over the whole workload.
    pub io: IoProfile,
    /// Buffer-pool counters over the whole workload.
    pub pool: PoolStats,
    /// Fault-handling counters over the whole workload.
    pub resilience: ResilienceStats,
    /// Shared-scan hub counters (all zero when sharing is off).
    pub shared: SharedScanStats,
    /// Write-path counters, when a write workload ran beside the scans.
    pub writes: Option<WriteStats>,
}

impl WorkloadReport {
    /// Total queries completed across all sessions.
    pub fn total_completed(&self) -> u64 {
        self.per_session.iter().map(|s| s.completed as u64).sum()
    }

    /// Fraction of completed queries served by the shared-scan hub.
    pub fn shared_attach_rate(&self) -> f64 {
        let total = self.total_completed();
        if total == 0 {
            0.0
        } else {
            self.shared.attaches as f64 / total as f64
        }
    }

    /// Max/min completed-query ratio across sessions: 1.0 is perfectly
    /// fair, `f64::INFINITY` means a session starved completely. Only
    /// meaningful for horizon-bounded workloads (without a horizon every
    /// session completes its full count and the ratio is trivially 1).
    pub fn fairness_ratio(&self) -> f64 {
        let min = self.per_session.iter().map(|s| s.completed).min();
        let max = self.per_session.iter().map(|s| s.completed).max();
        match (min, max) {
            (Some(0), Some(0)) | (None, _) | (_, None) => 1.0,
            (Some(0), Some(_)) => f64::INFINITY,
            (Some(min), Some(max)) => max as f64 / min as f64,
        }
    }

    /// The report as pretty JSON (the byte-identity artifact the
    /// determinism tests and CI compare).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

struct Sess {
    rng: SimRng,
    track: u32,
    issued: u32,
    completed: u32,
    latency_sum_us: f64,
    /// The query in flight, completed when it ends; its plan label stays
    /// empty if the record cap was reached at admission.
    flight: Option<QueryRecord>,
}

/// The concurrent multi-query engine. See the module docs.
///
/// ```
/// use pioqo_exec::{
///     CpuConfig, CpuCosts, FixedPlanner, MultiEngine, PlanSpec, QuerySpec,
///     SimContext, SortedIsConfig, WorkloadSpec,
/// };
/// use pioqo_bufpool::BufferPool;
/// use pioqo_device::presets::consumer_pcie_ssd;
/// use pioqo_storage::{BTreeIndex, HeapTable, TableSpec, Tablespace};
///
/// let spec = TableSpec::paper_table(33, 20_000, 7);
/// let mut ts = Tablespace::new(4 * spec.n_pages() + 1000);
/// let table = HeapTable::create(spec, &mut ts).unwrap();
/// let index = BTreeIndex::build(
///     "c2_idx", table.data().c2_entries(), table.spec().page_size, &mut ts,
/// ).unwrap();
/// let mut dev = consumer_pcie_ssd(ts.capacity(), 7);
/// let mut pool = BufferPool::new(4096);
/// let mut ctx = SimContext::new(
///     &mut dev, &mut pool, CpuConfig::paper_xeon(), CpuCosts::default(),
/// );
/// let engine = MultiEngine::new(
///     WorkloadSpec { sessions: 2, queries_per_session: 2, ..WorkloadSpec::default() },
///     QuerySpec::range_max(&table, Some(&index), 0, 0),
///     FixedPlanner { plan: PlanSpec::SortedIs(SortedIsConfig::default()) },
/// );
/// let report = engine.run(&mut ctx).unwrap();
/// assert_eq!(report.total_completed(), 4);
/// ```
pub struct MultiEngine<'q, P: AdmissionPlanner> {
    spec: WorkloadSpec,
    base: QuerySpec<'q>,
    planner: P,
    /// The base predicate is `True` or a pure `C2` range (replaced by each
    /// query's window, not ANDed with it).
    pure_range: bool,
    sess: Vec<Sess>,
    records: Vec<QueryRecord>,
    plan_counts: BTreeMap<String, u64>,
    query_latency: Histogram,
    last_complete: SimTime,
    /// Sessions still to retire (kept, not counted by a scan).
    unfinished: u32,
    /// Reusable plan-label scratch (no per-query allocation).
    label_buf: String,
}

impl<'q, P: AdmissionPlanner> MultiEngine<'q, P> {
    /// An engine for `spec` over the given base query, with `planner`
    /// choosing each query's plan. Each query runs the base spec with its
    /// own predicate window from the selectivity cycle: a base predicate
    /// that is `True` or a pure `C2 BETWEEN` range is *replaced* by the
    /// per-query window; any richer predicate tree is ANDed with it. The
    /// base's plan field is ignored — the planner decides per query.
    pub fn new(spec: WorkloadSpec, base: QuerySpec<'q>, planner: P) -> MultiEngine<'q, P> {
        assert!(spec.sessions >= 1, "a workload needs at least one session");
        assert!(
            !spec.selectivities.is_empty(),
            "a workload needs at least one selectivity"
        );
        MultiEngine {
            pure_range: matches!(base.predicate, Predicate::True)
                || base.predicate.is_pure_c2_range(),
            unfinished: spec.sessions,
            spec,
            base,
            planner,
            sess: Vec::new(),
            records: Vec::new(),
            plan_counts: BTreeMap::new(),
            query_latency: Histogram::new(),
            last_complete: SimTime::ZERO,
            label_buf: String::new(),
        }
    }

    /// Run the workload to completion on `ctx` and report.
    ///
    /// Returns `ExecError::Internal` if the event loop stalls with sessions
    /// outstanding or the run leaks work or an admission share (an engine
    /// bug, not a caller error), or the underlying error if any query's own
    /// I/O fails. On any error every admission share is released first.
    pub fn run(self, ctx: &mut SimContext<'_>) -> Result<WorkloadReport, ExecError> {
        self.run_inner(ctx, None)
    }

    /// Run the workload with a [`WriteSystem`] sharing the machine: its
    /// group-commit and writeback I/O goes through the same device queue
    /// the scans use, so checkpoints visibly perturb scan latency — and
    /// the planner's [`AdmissionPlanner::background_acquire`] hook fires
    /// while writeback is in flight, shifting admission decisions.
    ///
    /// Returns [`ExecError::Crashed`] as soon as the device halts (a
    /// [`pioqo_device::Crashable`] plan firing); the write system then
    /// holds the exact pre-crash WAL/media state for
    /// [`crate::recovery::recover`].
    pub fn run_with_writes(
        mut self,
        ctx: &mut SimContext<'_>,
        ws: &mut WriteSystem,
    ) -> Result<WorkloadReport, ExecError> {
        self.spec.writes = Some(ws.config().clone());
        self.run_inner(ctx, Some(ws))
    }

    fn run_inner(
        mut self,
        ctx: &mut SimContext<'_>,
        ws: Option<&mut WriteSystem>,
    ) -> Result<WorkloadReport, ExecError> {
        let start = ctx.now();
        let pool_before = ctx.pool.stats().clone();
        let tracing = ctx.trace_enabled();
        for s in 0..self.spec.sessions {
            let track = if tracing {
                ctx.trace_track(&format!("session{s}"))
            } else {
                0
            };
            let mut rng = SimRng::derive(self.spec.seed, s as u64);
            // Initial stagger: sessions do not all arrive at t=0. The tag
            // routes the wakeup straight back to this session.
            let delay = self.spec.think.sample(&mut rng);
            ctx.schedule_timer_tagged(delay, tag(s, 0));
            self.sess.push(Sess {
                rng,
                track,
                issued: 0,
                completed: 0,
                latency_sum_us: 0.0,
                flight: None,
            });
        }
        // The hub's cursor computes the pure range-MAX answer over a C2
        // window; a base query with a join, a residual predicate or another
        // aggregate cannot ride it and always runs solo.
        let shareable = self.spec.shared_scans
            && self.pure_range
            && self.base.join.is_none()
            && self.base.aggregate == Aggregate::Max(Col::C1);
        let hub =
            shareable.then(|| ScanHub::new(self.base.table, FtsConfig::default().block_pages));
        let mut run = Run::new(ctx, self.spec.sessions, hub, ws);
        let (io, resilience) = run.drive(ctx, &mut self)?;
        ctx.pump_pool_events();
        let pool = ctx.pool.stats().diff(&pool_before);
        let writes = run.ws.as_deref().map(WriteSystem::stats);
        let shared = run.hub.map(|h| h.stats().clone()).unwrap_or_default();
        let per_session = self
            .sess
            .iter()
            .enumerate()
            .map(|(s, sess)| SessionSummary {
                session: s as u32,
                completed: sess.completed,
                // A session that completed nothing has a zero sum.
                mean_latency_us: sess.latency_sum_us / f64::from(sess.completed.max(1)),
            })
            .collect();
        Ok(WorkloadReport {
            spec: self.spec,
            records: self.records,
            per_session,
            plan_counts: self.plan_counts,
            p95_latency_us: self.query_latency.quantile_lo(95, 100),
            p99_latency_us: self.query_latency.quantile_lo(99, 100),
            query_latency_us: self.query_latency,
            makespan: self.last_complete.since(start),
            io,
            pool,
            resilience,
            shared,
            writes,
        })
    }
}

/// Count one admission of plan `label` (allocating only for a new label).
fn count_plan(counts: &mut BTreeMap<String, u64>, label: &str) {
    match counts.get_mut(label) {
        Some(n) => *n += 1,
        None => {
            counts.insert(label.to_string(), 1);
        }
    }
}

/// The session policy on the run loop: think timers, admission, records.
impl<'q, P: AdmissionPlanner> Policy<'q> for MultiEngine<'q, P> {
    fn pending(&self) -> bool {
        self.unfinished > 0
    }

    /// A session's think timer fired: admit its next query, or retire the
    /// session if its count is done or the horizon has passed.
    fn wake(
        &mut self,
        run: &mut Run<'q, '_>,
        ctx: &mut SimContext<'_>,
        s: usize,
    ) -> Result<(), ExecError> {
        let now = ctx.now();
        let horizon_passed = self.spec.horizon.is_some_and(|h| now - SimTime::ZERO >= h);
        let sess = &mut self.sess[s];
        if sess.issued >= self.spec.queries_per_session || horizon_passed {
            self.unfinished -= 1;
            return Ok(());
        }
        let (query_index, track) = (sess.issued, Some(sess.track));
        sess.issued += 1;
        let selectivity =
            self.spec.selectivities[query_index as usize % self.spec.selectivities.len()];
        let (low, high) = range_for_selectivity(selectivity, self.base.table.spec().c2_max);
        let admission = QueryAdmission {
            session: s as u32,
            query_index,
            active: run.in_flight,
            selectivity,
            low,
            high,
        };
        let choice = match run.hub.as_ref().map(ScanHub::is_active) {
            Some(active) => self.planner.admit_shared(&admission, ctx.pool, active),
            None => SharedChoice::Solo(self.planner.admit(&admission, ctx.pool)),
        };
        ctx.metric_counter("admission_total", 1);
        let (leased, limit) = self.planner.depth_gauges();
        ctx.metric_sample("admission_active_leases", u64::from(leased));
        ctx.metric_sample("admission_depth_limit", u64::from(limit));
        // A label is materialized only if the record can still be kept.
        let recorded = (self.records.len() as u64) < self.spec.record_limit.unwrap_or(u64::MAX);
        let label = |l: &str| String::from(if recorded { l } else { "" });
        let mut flight = QueryRecord {
            session: s as u32,
            query_index,
            selectivity,
            plan: String::new(),
            degree: 1,
            active_at_admit: admission.active,
            submitted: now,
            latency: SimDuration::ZERO,
            max_c1: None,
            rows_matched: 0,
        };
        // Only a run with a hub asks for (and so gets) an attach verdict.
        let SharedChoice::Solo(plan) = choice else {
            if let Some(h) = run.hub.as_mut().filter(|h| !h.is_active()) {
                h.set_window(self.planner.cursor_start(ctx.pool));
            }
            count_plan(&mut self.plan_counts, SHARED_LABEL);
            flight.plan = label(SHARED_LABEL);
            self.sess[s].flight = Some(flight);
            run.begin_attached(ctx, s, query_index, (low, high), track);
            return Ok(());
        };
        self.label_buf.clear();
        plan.label_into(&mut self.label_buf);
        count_plan(&mut self.plan_counts, &self.label_buf);
        flight.plan = label(&self.label_buf);
        flight.degree = plan.degree();
        self.sess[s].flight = Some(flight);
        let window = Predicate::c2_between(low, high);
        let mut q = self.base.clone();
        q.plan = plan;
        q.predicate = if self.pure_range {
            window
        } else {
            Predicate::And(vec![self.base.predicate.clone(), window])
        };
        run.begin(ctx, s, query_index, &q, track)
    }

    /// Record the query, then arm the next think pause (or retire the
    /// session).
    fn ended(
        &mut self,
        ctx: &mut SimContext<'_>,
        s: usize,
        answer: QueryAnswer,
        latency: SimDuration,
    ) {
        let sess = &mut self.sess[s];
        let Some(mut record) = sess.flight.take() else {
            return;
        };
        self.query_latency.record(latency.as_nanos() / 1000);
        sess.latency_sum_us += latency.as_micros_f64();
        sess.completed += 1;
        self.last_complete = self.last_complete.max(ctx.now());
        if (self.records.len() as u64) < self.spec.record_limit.unwrap_or(u64::MAX) {
            record.latency = latency;
            record.max_c1 = answer.max_c1;
            record.rows_matched = answer.rows_matched;
            self.records.push(record);
        }
        if sess.issued >= self.spec.queries_per_session {
            self.unfinished -= 1;
        } else {
            let delay = self.spec.think.sample(&mut sess.rng);
            ctx.schedule_timer_tagged(delay, tag(s as u32, sess.issued));
        }
    }

    fn planner(&mut self) -> Option<&mut dyn AdmissionPlanner> {
        Some(&mut self.planner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuConfig;
    use crate::engine::CpuCosts;
    use crate::is::IsConfig;
    use crate::sorted_is::SortedIsConfig;
    use pioqo_device::presets::consumer_pcie_ssd;
    use pioqo_storage::{BTreeIndex, HeapTable, TableSpec, Tablespace};

    fn fixture(rows: u64, rpp: u32) -> (HeapTable, BTreeIndex, u64) {
        let spec = TableSpec::paper_table(rpp, rows, 31);
        let mut ts = Tablespace::new(4 * spec.n_pages() + 1000);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        let index = BTreeIndex::build(
            "c2_idx",
            table.data().c2_entries(),
            table.spec().page_size,
            &mut ts,
        )
        .expect("fits");
        let cap = ts.capacity();
        (table, index, cap)
    }

    fn run_workload(
        fx: &(HeapTable, BTreeIndex, u64),
        spec: WorkloadSpec,
        plan: PlanSpec,
    ) -> WorkloadReport {
        let mut dev = consumer_pcie_ssd(fx.2, 13);
        let mut pool = BufferPool::new(4096);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let engine = MultiEngine::new(
            spec,
            QuerySpec::range_max(&fx.0, Some(&fx.1), 0, 0),
            FixedPlanner { plan },
        );
        engine.run(&mut ctx).expect("workload runs")
    }

    #[test]
    fn every_query_answers_the_oracle() {
        let fx = fixture(20_000, 33);
        let spec = WorkloadSpec {
            sessions: 3,
            queries_per_session: 3,
            ..WorkloadSpec::default()
        };
        let report = run_workload(&fx, spec, PlanSpec::Is(IsConfig::default()));
        assert_eq!(report.total_completed(), 9);
        assert_eq!(report.records.len(), 9);
        for r in &report.records {
            let (low, high) = range_for_selectivity(r.selectivity, fx.0.spec().c2_max);
            assert_eq!(
                r.max_c1,
                fx.0.data().naive_max_c1(low, high),
                "session {} query {}",
                r.session,
                r.query_index
            );
        }
        assert_eq!(report.fairness_ratio(), 1.0);
        assert!(report.makespan > SimDuration::ZERO);
    }

    #[test]
    fn concurrent_run_is_deterministic() {
        let fx = fixture(20_000, 33);
        let spec = WorkloadSpec {
            sessions: 4,
            queries_per_session: 2,
            ..WorkloadSpec::default()
        };
        let a = run_workload(
            &fx,
            spec.clone(),
            PlanSpec::SortedIs(SortedIsConfig::default()),
        );
        let b = run_workload(&fx, spec, PlanSpec::SortedIs(SortedIsConfig::default()));
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "double run must be byte-identical"
        );
    }

    #[test]
    fn sessions_overlap_in_time() {
        let fx = fixture(40_000, 33);
        let spec = WorkloadSpec {
            sessions: 8,
            ..WorkloadSpec::default()
        };
        let report = run_workload(&fx, spec, PlanSpec::Is(IsConfig::default()));
        assert!(
            report.records.iter().any(|r| r.active_at_admit > 0),
            "8 closed-loop sessions with short think time must overlap"
        );
    }

    #[test]
    fn shared_scans_answer_the_oracle_and_charge_one_cursor() {
        let fx = fixture(9_900, 33);
        let spec = WorkloadSpec {
            sessions: 8,
            queries_per_session: 2,
            selectivities: vec![0.4],
            shared_scans: true,
            ..WorkloadSpec::default()
        };
        let report = run_workload(&fx, spec.clone(), PlanSpec::Fts(FtsConfig::default()));
        assert_eq!(report.total_completed(), 16);
        for r in &report.records {
            let (low, high) = range_for_selectivity(r.selectivity, fx.0.spec().c2_max);
            assert_eq!(r.max_c1, fx.0.data().naive_max_c1(low, high));
            assert_eq!(r.plan, "FTS+shared");
        }
        assert_eq!(report.shared.attaches, 16);
        assert!(
            report.shared.cursor_starts >= 1,
            "at least one cursor must have streamed"
        );
        assert!(
            report.shared.cursor_starts < 16,
            "overlapping consumers must share cursors, got {} starts",
            report.shared.cursor_starts
        );
        // Answers are identical with sharing off.
        let solo = run_workload(
            &fx,
            WorkloadSpec {
                shared_scans: false,
                ..spec
            },
            PlanSpec::Fts(FtsConfig::default()),
        );
        let key = |r: &QueryRecord| (r.session, r.query_index, r.max_c1, r.rows_matched);
        let mut a: Vec<_> = report.records.iter().map(key).collect();
        let mut b: Vec<_> = solo.records.iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "sharing must not change any answer");
    }

    #[test]
    fn record_limit_caps_memory_not_aggregates() {
        let fx = fixture(20_000, 33);
        let spec = WorkloadSpec {
            sessions: 4,
            queries_per_session: 4,
            record_limit: Some(3),
            ..WorkloadSpec::default()
        };
        let report = run_workload(&fx, spec, PlanSpec::Is(IsConfig::default()));
        assert_eq!(report.records.len(), 3, "records are capped");
        assert_eq!(report.total_completed(), 16, "aggregates are not");
        assert_eq!(report.query_latency_us.count, 16);
    }

    #[test]
    fn scans_and_writes_share_the_machine() {
        use crate::write::{WriteConfig, WriteSystem};
        use pioqo_device::MediaStore;
        use pioqo_storage::decode_heap_page;

        let spec = TableSpec::paper_table(33, 20_000, 31);
        let mut ts = Tablespace::new(4 * spec.n_pages() + 1000);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        let index = BTreeIndex::build(
            "c2_idx",
            table.data().c2_entries(),
            table.spec().page_size,
            &mut ts,
        )
        .expect("fits");
        let wspec = TableSpec {
            name: "W33".into(),
            ..TableSpec::paper_table(33, 3_000, 77)
        };
        let wtable = HeapTable::create(wspec, &mut ts).expect("fits");
        let wal = ts.alloc("wal", 512).expect("fits");

        let run = || {
            let mut dev = consumer_pcie_ssd(ts.capacity(), 13);
            let mut pool = BufferPool::new(4096);
            let mut ctx = SimContext::new(
                &mut dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            let mut ws = WriteSystem::new(
                WriteConfig::default(),
                &wtable,
                wal,
                MediaStore::new(wtable.spec().page_size),
            );
            let engine = MultiEngine::new(
                WorkloadSpec {
                    sessions: 2,
                    queries_per_session: 2,
                    ..WorkloadSpec::default()
                },
                QuerySpec::range_max(&table, Some(&index), 0, 0),
                FixedPlanner {
                    plan: PlanSpec::Is(IsConfig::default()),
                },
            );
            let report = engine.run_with_writes(&mut ctx, &mut ws).expect("runs");
            (report, ws)
        };
        let (report, ws) = run();
        // Scans still answer the oracle while writers churn.
        assert_eq!(report.total_completed(), 4);
        for r in &report.records {
            let (low, high) = range_for_selectivity(r.selectivity, table.spec().c2_max);
            assert_eq!(r.max_c1, table.data().naive_max_c1(low, high));
        }
        // The report is self-describing and carries the write counters.
        let stats = report.writes.as_ref().expect("write stats present");
        assert!(report.spec.writes.is_some());
        let cfg = WriteConfig::default();
        assert_eq!(
            stats.commits_acked,
            (cfg.writers * cfg.commits_per_writer) as u64
        );
        // The write path quiesced cleanly and its media decodes.
        assert!(ws.finished());
        for dp in ws.touched_pages() {
            let image = ws.media().read(dp).expect("flushed");
            let page = decode_heap_page(ws.table_spec(), image).expect("decodes");
            assert_eq!(page.rows, ws.current_rows(dp));
        }
        // Byte-determinism holds with writers in the mix.
        let (report2, _) = run();
        assert_eq!(report.to_json(), report2.to_json());
    }

    #[test]
    fn a_sessions_think_gaps_do_not_depend_on_the_session_count() {
        // Session s draws its think times from its own stream,
        // `SimRng::derive(seed, s)`, so a session added beside it cannot
        // shift its gaps; with one stream shared across the session loop,
        // every draw after the first would move.
        let fx = fixture(20_000, 33);
        let gaps = |sessions: u32| -> Vec<Vec<SimDuration>> {
            let spec = WorkloadSpec {
                sessions,
                queries_per_session: 4,
                think: ThinkTime::Exponential {
                    mean: SimDuration::from_micros(500),
                },
                ..WorkloadSpec::default()
            };
            let report = run_workload(&fx, spec, PlanSpec::Is(IsConfig::default()));
            (0..sessions)
                .map(|s| {
                    let mut recs: Vec<_> =
                        report.records.iter().filter(|r| r.session == s).collect();
                    recs.sort_by_key(|r| r.query_index);
                    // The initial stagger, then each pause between a
                    // completion and the next submission.
                    let mut g = vec![recs[0].submitted.since(SimTime::ZERO)];
                    g.extend(
                        recs.windows(2)
                            .map(|w| w[1].submitted.since(w[0].submitted + w[0].latency)),
                    );
                    g
                })
                .collect()
        };
        let three = gaps(3);
        let four = gaps(4);
        assert!(three.iter().all(|g| g.len() == 4));
        assert_eq!(three[..], four[..3]);
    }

    #[test]
    fn horizon_caps_issuance() {
        let fx = fixture(20_000, 33);
        let spec = WorkloadSpec {
            sessions: 2,
            queries_per_session: 1000,
            horizon: Some(SimDuration::from_micros_f64(30_000.0)),
            ..WorkloadSpec::default()
        };
        let report = run_workload(&fx, spec, PlanSpec::Is(IsConfig::default()));
        let total = report.total_completed();
        assert!(total > 0, "some queries run before the horizon");
        assert!(total < 2000, "the horizon must stop issuance");
    }
}
