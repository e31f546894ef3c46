//! The outside-in tracer: a span stack in the benchmark's own files.
//!
//! Nothing here lives inside the program under test. Layer boundaries are
//! observed from outside: [`TimedDevice`] and [`TimedPlanner`] are timing
//! pass-throughs implementing the public `DeviceModel` / `AdmissionPlanner`
//! traits, and [`traced_execute`] is a copy of `pioqo_exec::execute`'s
//! control flow with a span around every call into the engine and the
//! driver. One span is kept per op; everything below op level is folded
//! into per-op `(layer, calls, self_ns)` records, so a 300 K-step scan
//! costs a few counters, not 300 K spans. A layer's self time is its
//! span's duration minus the part its child spans cover; what is left of
//! the op span after all layers is the residual.

use crate::report::obj;
use pioqo_bufpool::{BufferPool, PoolStats};
use pioqo_device::{DeviceModel, IoCompletion, IoRequest};
use pioqo_exec::{
    make_driver, AdmissionPlanner, Event, ExecError, PlanSpec, QueryAdmission, QueryAnswer,
    QuerySpec, ScanMetrics, SharedChoice, SimContext,
};
use pioqo_simkit::SimTime;
use serde::Content;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// A layer of the program under test, named after its crate/module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `pioqo_device`: the HDD/SSD/RAID models behind `DeviceModel`.
    Device,
    /// `pioqo_exec::engine`: `SimContext::step` / `quiesce`.
    Engine,
    /// `pioqo_exec::fts`.
    DriverFts,
    /// `pioqo_exec::is`.
    DriverIs,
    /// `pioqo_exec::sorted_is`.
    DriverSortedIs,
    /// `pioqo_exec::join` (index-nested-loop).
    DriverInl,
    /// `pioqo_exec::join` (hybrid hash).
    DriverHash,
    /// `pioqo_core`: calibration and `Qdtt::cost`.
    Core,
    /// `pioqo_optimizer::optimizer`: `Optimizer::choose`.
    Optimizer,
    /// `pioqo_optimizer::admission`, seen through `AdmissionPlanner`.
    Admission,
    /// `pioqo_exec::session` (+ `shared`, and `write` when writers run):
    /// `MultiEngine::run` minus the device and admission calls under it.
    Session,
    /// `pioqo_exec::write` / `recovery` driven on their own.
    Write,
}

/// Number of [`Layer`] variants.
pub const N_LAYERS: usize = 12;

impl Layer {
    /// Every layer, in accumulator order.
    pub const ALL: [Layer; N_LAYERS] = [
        Layer::Device,
        Layer::Engine,
        Layer::DriverFts,
        Layer::DriverIs,
        Layer::DriverSortedIs,
        Layer::DriverInl,
        Layer::DriverHash,
        Layer::Core,
        Layer::Optimizer,
        Layer::Admission,
        Layer::Session,
        Layer::Write,
    ];

    /// Name used in the trace file and the per-layer table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Device => "device",
            Layer::Engine => "engine",
            Layer::DriverFts => "driver.fts",
            Layer::DriverIs => "driver.is",
            Layer::DriverSortedIs => "driver.sorted_is",
            Layer::DriverInl => "driver.inl",
            Layer::DriverHash => "driver.hash",
            Layer::Core => "core",
            Layer::Optimizer => "optimizer",
            Layer::Admission => "admission",
            Layer::Session => "session",
            Layer::Write => "write",
        }
    }

    /// The driver layer a plan runs in.
    pub fn of_plan(plan: &PlanSpec) -> Layer {
        match plan {
            PlanSpec::Fts(_) => Layer::DriverFts,
            PlanSpec::Is(_) => Layer::DriverIs,
            PlanSpec::SortedIs(_) => Layer::DriverSortedIs,
            PlanSpec::Inl(_) => Layer::DriverInl,
            PlanSpec::Hash(_) => Layer::DriverHash,
        }
    }
}

/// Calls into a layer and the self time they add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerAcc {
    /// Spans closed on the layer.
    pub calls: u64,
    /// Σ (span duration − child span durations), nanoseconds.
    pub self_ns: u64,
}

/// The per-layer accumulators of one op (or of a whole pass).
pub type LayerTable = [LayerAcc; N_LAYERS];

struct Frame {
    layer: Option<Layer>,
    start: Instant,
    child_ns: u64,
}

/// One op span with its folded layer records.
#[derive(Debug, Clone)]
pub struct OpSpan {
    /// Op name ("T33/SSD/0.01/PIS32", "q0417:inl", "cell_b", ...).
    pub name: String,
    /// Index in the workload's op list.
    pub op: usize,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Folded `(layer, calls, self_ns)` records.
    pub layers: LayerTable,
}

impl OpSpan {
    /// Host nanoseconds the op span covers.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Exact event counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryCounts {
    /// Requests handed to `DeviceModel::submit`.
    pub device_ios: u64,
    /// `SimContext::step` calls.
    pub engine_steps: u64,
    /// Events those steps delivered.
    pub engine_events: u64,
    /// `AdmissionPlanner::admit` + `admit_shared` calls.
    pub admits: u64,
}

/// The in-memory span stack. Shared (`Rc`) between the benchmark's event
/// loop and the pass-through wrappers the program under test calls back
/// into; single-threaded by construction.
pub struct Tracer {
    origin: Instant,
    stack: RefCell<Vec<Frame>>,
    current: RefCell<LayerTable>,
    op_meta: RefCell<Option<(String, usize)>>,
    ops: RefCell<Vec<OpSpan>>,
    device_ios: Cell<u64>,
    engine_steps: Cell<u64>,
    engine_events: Cell<u64>,
    admits: Cell<u64>,
}

impl Tracer {
    /// A fresh tracer; `origin` is now.
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            origin: Instant::now(),
            stack: RefCell::new(Vec::with_capacity(8)),
            current: RefCell::new([LayerAcc::default(); N_LAYERS]),
            op_meta: RefCell::new(None),
            ops: RefCell::new(Vec::new()),
            device_ios: Cell::new(0),
            engine_steps: Cell::new(0),
            engine_events: Cell::new(0),
            admits: Cell::new(0),
        })
    }

    /// Open the span of op `op`. Ops do not nest.
    pub fn begin_op(&self, name: String, op: usize) {
        debug_assert!(self.stack.borrow().is_empty(), "ops do not nest");
        *self.op_meta.borrow_mut() = Some((name, op));
        self.stack.borrow_mut().push(Frame {
            layer: None,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Close the current op span and fold its layer records.
    pub fn end_op(&self) {
        let end = Instant::now();
        let mut stack = self.stack.borrow_mut();
        // A panic caught mid-op leaves layer frames behind; drop them so
        // the next op starts clean.
        let Some(frame) = stack.drain(..).next() else {
            return;
        };
        let Some((name, op)) = self.op_meta.borrow_mut().take() else {
            return;
        };
        let layers = std::mem::replace(
            &mut *self.current.borrow_mut(),
            [LayerAcc::default(); N_LAYERS],
        );
        self.ops.borrow_mut().push(OpSpan {
            name,
            op,
            start_ns: (frame.start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            layers,
        });
    }

    /// Open a span on `layer` under whatever span is open.
    #[inline]
    pub fn enter(&self, layer: Layer) {
        self.stack.borrow_mut().push(Frame {
            layer: Some(layer),
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Close the innermost span: its self time goes to its layer, its
    /// whole duration to the parent's child time.
    #[inline]
    pub fn exit(&self) {
        let end = Instant::now();
        let mut stack = self.stack.borrow_mut();
        let Some(frame) = stack.pop() else { return };
        let dur = (end - frame.start).as_nanos() as u64;
        if let Some(layer) = frame.layer {
            let acc = &mut self.current.borrow_mut()[layer as usize];
            acc.calls += 1;
            acc.self_ns += dur.saturating_sub(frame.child_ns);
        }
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Close the innermost span and open one on `layer` with a single
    /// timestamp. The hot loop of [`traced_execute`] alternates between the
    /// engine and the driver millions of times; two timestamps per
    /// boundary would double the tracer's own share of the op span.
    #[inline]
    pub fn switch(&self, layer: Layer) {
        let now = Instant::now();
        let mut stack = self.stack.borrow_mut();
        let Some(frame) = stack.pop() else { return };
        let dur = (now - frame.start).as_nanos() as u64;
        if let Some(prev) = frame.layer {
            let acc = &mut self.current.borrow_mut()[prev as usize];
            acc.calls += 1;
            acc.self_ns += dur.saturating_sub(frame.child_ns);
        }
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += dur;
        }
        stack.push(Frame {
            layer: Some(layer),
            start: now,
            child_ns: 0,
        });
    }

    /// Run `f` inside a span on `layer`.
    #[inline]
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer);
        let r = f();
        self.exit();
        r
    }

    /// The boundary counts so far.
    pub fn counts(&self) -> BoundaryCounts {
        BoundaryCounts {
            device_ios: self.device_ios.get(),
            engine_steps: self.engine_steps.get(),
            engine_events: self.engine_events.get(),
            admits: self.admits.get(),
        }
    }

    /// The closed op spans, in op order.
    pub fn ops(&self) -> Vec<OpSpan> {
        self.ops.borrow().clone()
    }
}

/// `device` itself on an untraced pass, behind a [`TimedDevice`] on a
/// traced one.
pub fn on_pass(device: Box<dyn DeviceModel>, tracer: Option<&Rc<Tracer>>) -> Box<dyn DeviceModel> {
    match tracer {
        None => device,
        Some(tr) => Box::new(TimedDevice::new(device, tr.clone())),
    }
}

fn bump(counter: &Cell<u64>, by: u64) {
    counter.set(counter.get() + by);
}

/// Run `f` under a span on `layer` on a traced pass, bare otherwise.
pub fn spanned<R>(tracer: Option<&Rc<Tracer>>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match tracer {
        None => f(),
        Some(tr) => tr.span(layer, f),
    }
}

/// Timing pass-through over any device: every hot `DeviceModel` call is a
/// span on [`Layer::Device`]; everything else forwards untouched, so a
/// wrapped run is bit-identical to an unwrapped one.
pub struct TimedDevice<D> {
    inner: D,
    tracer: Rc<Tracer>,
}

impl<D: DeviceModel> TimedDevice<D> {
    /// Wrap `inner`.
    pub fn new(inner: D, tracer: Rc<Tracer>) -> TimedDevice<D> {
        TimedDevice { inner, tracer }
    }
}

impl<D: DeviceModel> DeviceModel for TimedDevice<D> {
    fn page_size(&self) -> u32 {
        self.inner.page_size()
    }
    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }
    fn submit(&mut self, now: SimTime, req: IoRequest) {
        bump(&self.tracer.device_ios, 1);
        self.tracer.enter(Layer::Device);
        self.inner.submit(now, req);
        self.tracer.exit();
    }
    fn next_event(&self) -> Option<SimTime> {
        self.tracer.enter(Layer::Device);
        let t = self.inner.next_event();
        self.tracer.exit();
        t
    }
    fn advance(&mut self, now: SimTime, out: &mut Vec<IoCompletion>) {
        self.tracer.enter(Layer::Device);
        self.inner.advance(now, out);
        self.tracer.exit();
    }
    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn reset_state(&mut self) {
        self.tracer.enter(Layer::Device);
        self.inner.reset_state();
        self.tracer.exit();
    }
    fn crashed(&self) -> bool {
        self.inner.crashed()
    }
    fn channels(&self) -> u32 {
        self.inner.channels()
    }
    fn channels_busy(&self, now: SimTime) -> u32 {
        self.inner.channels_busy(now)
    }
}

/// Timing pass-through over any admission planner ([`Layer::Admission`]).
pub struct TimedPlanner<P> {
    inner: P,
    tracer: Rc<Tracer>,
}

impl<P: AdmissionPlanner> TimedPlanner<P> {
    /// Wrap `inner`.
    pub fn new(inner: P, tracer: Rc<Tracer>) -> TimedPlanner<P> {
        TimedPlanner { inner, tracer }
    }
}

impl<P: AdmissionPlanner> AdmissionPlanner for TimedPlanner<P> {
    fn admit(&mut self, q: &QueryAdmission, pool: &BufferPool) -> PlanSpec {
        bump(&self.tracer.admits, 1);
        self.tracer
            .span(Layer::Admission, || self.inner.admit(q, pool))
    }
    fn admit_shared(
        &mut self,
        q: &QueryAdmission,
        pool: &BufferPool,
        cursor_active: bool,
    ) -> SharedChoice {
        bump(&self.tracer.admits, 1);
        self.tracer.span(Layer::Admission, || {
            self.inner.admit_shared(q, pool, cursor_active)
        })
    }
    fn cursor_start(&mut self, pool: &BufferPool) -> u32 {
        self.tracer
            .span(Layer::Admission, || self.inner.cursor_start(pool))
    }
    fn cursor_stop(&mut self) {
        self.tracer
            .span(Layer::Admission, || self.inner.cursor_stop())
    }
    fn complete(&mut self, session: u32) {
        self.tracer
            .span(Layer::Admission, || self.inner.complete(session))
    }
    fn background_acquire(&mut self) {
        self.tracer
            .span(Layer::Admission, || self.inner.background_acquire())
    }
    fn background_release(&mut self) {
        self.tracer
            .span(Layer::Admission, || self.inner.background_release())
    }
    fn depth_gauges(&self) -> (u32, u32) {
        self.inner.depth_gauges()
    }
}

/// What a single-query run reports, in a comparable form: the exact
/// fields of `ScanMetrics`, or the typed error.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome {
    /// Simulated runtime, nanoseconds.
    pub runtime_ns: u64,
    /// The answer.
    pub answer: QueryAnswer,
    /// I/O operations completed.
    pub io_ops: u64,
    /// Pages read.
    pub pages_read: u64,
    /// Pages written (hash-join spill).
    pub pages_written: u64,
    /// Time-weighted mean device queue depth.
    pub mean_qd: f64,
    /// Buffer-pool counters of this query.
    pub pool: PoolCounts,
    /// `Some` when the run returned a typed error (or panicked).
    pub error: Option<String>,
}

/// The `PoolStats` counters the benchmark reports (`PoolStats` itself has
/// no `PartialEq`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounts {
    /// Requests satisfied from the pool.
    pub hits: u64,
    /// Requests that required I/O.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Misses on previously resident pages.
    pub refetches: u64,
    /// Pages admitted by prefetch.
    pub prefetch_admissions: u64,
    /// Demand requests that hit a prefetched page.
    pub prefetch_hits: u64,
}

impl PoolCounts {
    /// Field-wise sum.
    pub fn add(&mut self, o: &PoolCounts) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.refetches += o.refetches;
        self.prefetch_admissions += o.prefetch_admissions;
        self.prefetch_hits += o.prefetch_hits;
    }
}

impl From<&PoolStats> for PoolCounts {
    fn from(s: &PoolStats) -> PoolCounts {
        PoolCounts {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            refetches: s.refetches,
            prefetch_admissions: s.prefetch_admissions,
            prefetch_hits: s.prefetch_hits,
        }
    }
}

impl crate::runner::Outcome for ScanOutcome {
    fn panicked(msg: String) -> ScanOutcome {
        ScanOutcome::failed(msg)
    }
    fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
}

impl ScanOutcome {
    /// An outcome that carries only a failure.
    pub fn failed(error: String) -> ScanOutcome {
        ScanOutcome {
            runtime_ns: 0,
            answer: QueryAnswer::default(),
            io_ops: 0,
            pages_read: 0,
            pages_written: 0,
            mean_qd: 0.0,
            pool: PoolCounts::default(),
            error: Some(error),
        }
    }

    /// From what `execute` / `Experiment::run_cold` returned.
    pub fn from_result(r: Result<ScanMetrics, ExecError>) -> ScanOutcome {
        match r {
            Ok(m) => ScanOutcome {
                runtime_ns: m.runtime.as_nanos(),
                answer: QueryAnswer {
                    max_c1: m.max_c1,
                    rows_matched: m.rows_matched,
                    rows_examined: m.rows_examined,
                    fingerprint: m.fingerprint,
                },
                io_ops: m.io.io_ops,
                pages_read: m.io.pages_read,
                pages_written: m.io.pages_written,
                mean_qd: m.io.mean_queue_depth,
                pool: PoolCounts::from(&m.pool),
                error: None,
            },
            Err(e) => ScanOutcome::failed(e.to_string()),
        }
    }

    /// Simulated runtime in seconds.
    pub fn runtime_s(&self) -> f64 {
        self.runtime_ns as f64 / 1e9
    }
}

/// `pioqo_exec::execute`, driven from the benchmark with the time between
/// its calls split into engine spans (`SimContext::step`, `quiesce`) and
/// driver spans (`make_driver`, `start`, every `on_event` of a step). The
/// control flow is copied from `execute` and must reproduce its runtime,
/// answer, I/O profile and pool counters exactly; the traced pass fails
/// otherwise.
pub fn traced_execute(ctx: &mut SimContext<'_>, q: &QuerySpec<'_>, tr: &Tracer) -> ScanOutcome {
    match traced_execute_inner(ctx, q, tr) {
        Ok(o) => o,
        Err(e) => ScanOutcome::failed(e.to_string()),
    }
}

fn traced_execute_inner(
    ctx: &mut SimContext<'_>,
    q: &QuerySpec<'_>,
    tr: &Tracer,
) -> Result<ScanOutcome, ExecError> {
    let layer = Layer::of_plan(&q.plan);
    ctx.set_retry_policy(q.plan.retry().clone());
    let start = ctx.now();
    let pool_before = ctx.pool.stats().clone();
    // From here to `exit` exactly one of the driver / engine spans is
    // open; `?` may leave it open, which `end_op` cleans up.
    tr.enter(layer);
    let mut driver = make_driver(q)?;
    driver.start(ctx)?;
    let mut events: Vec<Event> = Vec::new();
    while !driver.done() {
        events.clear();
        tr.switch(Layer::Engine);
        let progressed = ctx.step(&mut events);
        tr.switch(layer);
        bump(&tr.engine_steps, 1);
        bump(&tr.engine_events, events.len() as u64);
        if !progressed {
            return Err(ExecError::Internal {
                detail: "scan deadlocked with work pending",
            });
        }
        for e in &events {
            driver.on_event(ctx, e)?;
        }
    }
    let answer = driver.answer();
    let runtime = ctx.now() - start;
    let io = ctx.io_profile();
    tr.switch(Layer::Engine);
    ctx.quiesce();
    tr.exit();
    let pool = ctx.pool.stats().diff(&pool_before);
    Ok(ScanOutcome {
        runtime_ns: runtime.as_nanos(),
        answer,
        io_ops: io.io_ops,
        pages_read: io.pages_read,
        pages_written: io.pages_written,
        mean_qd: io.mean_queue_depth,
        pool: PoolCounts::from(&pool),
        error: None,
    })
}

/// One trace event on the benchmark's process; metadata events carry no
/// timestamp.
fn event(name: &str, ph: &str, tid: u64, ts_ns: Option<u64>, args: Option<Content>) -> Content {
    let mut fields = vec![
        ("name", Content::Str(name.to_string())),
        ("ph", Content::Str(ph.to_string())),
        ("pid", Content::U64(1)),
        ("tid", Content::U64(tid)),
    ];
    if let Some(ns) = ts_ns {
        fields.push(("ts", Content::F64(ns as f64 / 1e3)));
    }
    if let Some(args) = args {
        fields.push(("args", args));
    }
    obj(fields)
}

/// Render the op spans as a Chrome trace-event document (`B`/`E` pairs,
/// one thread per workload; the folded layer records ride on the `E`
/// event's args). Validates under `pioqo-lint trace-check`.
pub fn chrome_trace(workload: &str, ops: &[OpSpan]) -> Content {
    let named = |name: &str| Some(obj(vec![("name", Content::Str(name.to_string()))]));
    let mut events = vec![
        event("process_name", "M", 0, None, named("pioqo-benchmark")),
        event("thread_name", "M", 1, None, named(workload)),
    ];
    let pass = format!("{workload}:traced_pass");
    if let (Some(first), Some(last)) = (ops.first(), ops.last()) {
        events.push(event(&pass, "B", 1, Some(first.start_ns), None));
        for op in ops {
            let begin_args = obj(vec![
                ("workload", Content::Str(workload.to_string())),
                ("op", Content::U64(op.op as u64)),
                ("parent", Content::Str(pass.clone())),
            ]);
            events.push(event(&op.name, "B", 1, Some(op.start_ns), Some(begin_args)));
            let layers: Vec<(&str, Content)> = Layer::ALL
                .iter()
                .zip(&op.layers)
                .filter(|(_, acc)| acc.calls > 0)
                .map(|(l, acc)| {
                    (
                        l.name(),
                        obj(vec![
                            ("calls", Content::U64(acc.calls)),
                            ("self_ns", Content::U64(acc.self_ns)),
                        ]),
                    )
                })
                .collect();
            let end_args = obj(vec![("layers", obj(layers))]);
            events.push(event(&op.name, "E", 1, Some(op.end_ns), Some(end_args)));
        }
        events.push(event(&pass, "E", 1, Some(last.end_ns), None));
    }
    obj(vec![
        ("traceEvents", Content::Seq(events)),
        ("displayTimeUnit", Content::Str("ms".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::paper_context;
    use pioqo_core::{CalibrationConfig, Calibrator};
    use pioqo_exec::{MultiEngine, WorkloadSpec};
    use pioqo_optimizer::{OptimizerConfig, QdttAdmission};
    use pioqo_workload::{DeviceKind, Experiment, ExperimentConfig, MethodSpec};

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_child_spans_and_ops_fold() {
        let tr = Tracer::new();
        tr.begin_op("op0".into(), 0);
        tr.span(Layer::Engine, || {
            spin(200_000);
            tr.span(Layer::Device, || spin(300_000));
            tr.span(Layer::Device, || spin(300_000));
        });
        spin(100_000); // op-level glue: the residual
        tr.end_op();
        tr.begin_op("op1".into(), 1);
        tr.span(Layer::Core, || spin(100_000));
        tr.end_op();

        let ops = tr.ops();
        assert_eq!(ops.len(), 2);
        let l = &ops[0].layers;
        assert_eq!(l[Layer::Device as usize].calls, 2);
        assert_eq!(l[Layer::Engine as usize].calls, 1);
        let device = l[Layer::Device as usize].self_ns;
        assert!(device >= 600_000);
        // Engine self time excludes what its device children cover (no
        // upper bounds on spins: the host may preempt any of them).
        let engine = l[Layer::Engine as usize].self_ns;
        assert!(engine >= 200_000, "engine {engine}");
        // Layer self times never exceed the op span; the gap is the glue.
        let attributed: u64 = l.iter().map(|a| a.self_ns).sum();
        assert_eq!(attributed, engine + device);
        assert!(attributed <= ops[0].wall_ns());
        assert!(ops[0].wall_ns() - attributed >= 100_000);
        // Op 1 starts from zeroed accumulators.
        assert_eq!(ops[1].layers[Layer::Device as usize].calls, 0);
        assert_eq!(ops[1].layers[Layer::Core as usize].calls, 1);
    }

    #[test]
    fn switch_hands_the_clock_from_one_layer_to_the_next() {
        let tr = Tracer::new();
        tr.begin_op("op".into(), 0);
        tr.enter(Layer::DriverIs);
        spin(100_000);
        tr.switch(Layer::Engine);
        tr.span(Layer::Device, || spin(200_000));
        spin(100_000);
        tr.switch(Layer::DriverIs);
        spin(100_000);
        tr.exit();
        tr.end_op();
        let op = &tr.ops()[0];
        let l = &op.layers;
        assert_eq!(l[Layer::DriverIs as usize].calls, 2);
        assert_eq!(l[Layer::Engine as usize].calls, 1);
        assert!(l[Layer::DriverIs as usize].self_ns >= 200_000);
        assert!(l[Layer::Engine as usize].self_ns >= 100_000);
        assert!(l[Layer::Device as usize].self_ns >= 200_000);
        // The spans tile the op: only begin_op..enter and exit..end_op,
        // two adjacent timestamps each, are left to the residual.
        let attributed: u64 = l.iter().map(|a| a.self_ns).sum();
        assert!(attributed >= 500_000);
        assert!(attributed <= op.wall_ns());
    }

    fn small_experiment(device: DeviceKind) -> Experiment {
        Experiment::build(ExperimentConfig {
            name: "test".into(),
            table: "T33".into(),
            rows_per_page: 33,
            rows: 20_000,
            device,
            buffer_frames: 128,
            seed: 7,
        })
    }

    /// Wrapped run == unwrapped run on every exact field, for every scan
    /// driver and device model.
    #[test]
    fn timed_device_and_traced_execute_are_transparent() {
        for device in [DeviceKind::Hdd, DeviceKind::Ssd, DeviceKind::Raid8] {
            let exp = small_experiment(device);
            for method in [
                MethodSpec::Fts { workers: 4 },
                MethodSpec::Is {
                    workers: 8,
                    prefetch: 2,
                },
                MethodSpec::SortedIs { prefetch: 16 },
            ] {
                let plain = ScanOutcome::from_result(exp.run_cold(method, 0.02));
                assert_eq!(plain.error, None);

                let tr = Tracer::new();
                tr.begin_op("t".into(), 0);
                let mut dev = TimedDevice::new(exp.make_device(), tr.clone());
                let mut pool = exp.make_pool();
                let (low, high) = pioqo_storage::range_for_selectivity(0.02, exp.dataset.c2_max());
                let mut ctx = paper_context(&mut dev, &mut pool);
                let q =
                    QuerySpec::range_max(exp.dataset.table(), Some(exp.dataset.index()), low, high)
                        .with_plan(method.to_plan_spec());
                let traced = traced_execute(&mut ctx, &q, &tr);
                tr.end_op();

                assert_eq!(traced, plain, "{device} {method}");
                let op = &tr.ops()[0];
                assert_eq!(tr.counts().device_ios, plain.io_ops, "{device} {method}");
                assert!(op.layers[Layer::Device as usize].calls > plain.io_ops);
                assert!(op.layers[Layer::Engine as usize].self_ns > 0);
                assert!(op.layers[Layer::of_plan(&q.plan) as usize].self_ns > 0);
            }
        }
    }

    /// A session run admitted through `TimedPlanner` over a `TimedDevice`
    /// produces the same report and the same admission journal.
    #[test]
    fn timed_planner_is_transparent() {
        let exp = small_experiment(DeviceKind::Ssd);
        let mut dev = exp.make_device();
        let cal = Calibrator::new(CalibrationConfig::for_device(dev.capacity_pages(), 3));
        let (model, _) = cal.calibrate_qdtt(&mut *dev);
        let spec = || WorkloadSpec {
            sessions: 6,
            queries_per_session: 3,
            shared_scans: true,
            selectivities: vec![0.001, 0.3],
            ..WorkloadSpec::default()
        };
        let base = || QuerySpec::range_max(exp.dataset.table(), Some(exp.dataset.index()), 0, 0);
        let planner = || {
            QdttAdmission::new(
                exp.dataset.table(),
                exp.dataset.index(),
                model.clone(),
                OptimizerConfig::fine_grained(),
            )
        };

        let mut plain_planner = planner();
        let plain = {
            let mut dev = exp.make_device();
            let mut pool = exp.make_pool();
            let mut ctx = paper_context(&mut *dev, &mut pool);
            MultiEngine::new(spec(), base(), &mut plain_planner)
                .run(&mut ctx)
                .expect("runs")
        };

        let tr = Tracer::new();
        let mut timed_planner = planner();
        let timed = {
            let mut dev = TimedDevice::new(exp.make_device(), tr.clone());
            let mut pool = exp.make_pool();
            let mut ctx = paper_context(&mut dev, &mut pool);
            tr.begin_op("cell".into(), 0);
            let wrapped = TimedPlanner::new(&mut timed_planner, tr.clone());
            let r = tr.span(Layer::Session, || {
                MultiEngine::new(spec(), base(), wrapped).run(&mut ctx)
            });
            tr.end_op();
            r.expect("runs")
        };

        assert_eq!(timed.to_json(), plain.to_json());
        let journal = |p: &QdttAdmission<'_>| {
            serde_json::to_string(&p.decisions().to_vec()).expect("serializes")
        };
        assert_eq!(journal(&timed_planner), journal(&plain_planner));
        assert_eq!(tr.counts().admits, 18);
        let l = &tr.ops()[0].layers;
        assert!(l[Layer::Admission as usize].calls >= 36, "admit + complete");
        assert!(l[Layer::Session as usize].self_ns > 0);
    }

    #[test]
    fn chrome_trace_has_balanced_pairs_and_folded_layers() {
        let tr = Tracer::new();
        tr.begin_op("a".into(), 0);
        tr.span(Layer::Device, || ());
        tr.end_op();
        let doc = chrome_trace("cold_grid", &tr.ops());
        let text = serde_json::to_string(&doc).expect("renders");
        assert_eq!(text.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"E\"").count(), 2);
        assert!(text.contains("\"device\":{\"calls\":1"));
        assert!(text.contains("\"parent\":\"cold_grid:traced_pass\""));
    }
}
