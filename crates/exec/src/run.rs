//! The one event loop behind [`crate::execute`], [`crate::drive_writes`]
//! and [`crate::MultiEngine`]: [`Run::drive`] owns the step, the crash
//! check, the stall error and the fan-out of each event (the write system,
//! the stray rule, a session timer, the shared-scan hub, the running
//! queries that own it), and a [`Policy`] adds what differs. A query
//! begins in [`Run::begin`] or [`Run::begin_attached`], ends in one place,
//! and runs under its own owner tag ([`tag`]). DESIGN.md §13 has the
//! contract.

use crate::driver::{QueryAnswer, QueryDriver};
use crate::engine::{Event, ExecError, IoProfile, ResilienceStats, SimContext};
use crate::execute::make_driver;
use crate::query::QuerySpec;
use crate::session::AdmissionPlanner;
use crate::shared::ScanHub;
use crate::write::WriteSystem;
use pioqo_simkit::{SimDuration, SimTime};

/// The owner tag of query `query_index` of `session`: `1 + session` in the
/// low 32 bits, the query index above. Tag `0` stays untagged.
pub(crate) fn tag(session: u32, query_index: u32) -> u64 {
    (u64::from(query_index) << 32) | (u64::from(session) + 1)
}

/// What a caller layers on top of the loop.
pub(crate) trait Policy<'q> {
    /// Keep the run going with no query in flight (a session thinks).
    fn pending(&self) -> bool {
        false
    }

    /// Session `_s`'s think timer fired.
    fn wake(
        &mut self,
        _: &mut Run<'q, '_>,
        _: &mut SimContext<'_>,
        _s: usize,
    ) -> Result<(), ExecError> {
        Ok(())
    }

    /// The query of session `_s` answered, after the latency given.
    fn ended(&mut self, _: &mut SimContext<'_>, _s: usize, _: QueryAnswer, _: SimDuration) {}

    /// The planner whose shares the loop returns (and checks at the end).
    fn planner(&mut self) -> Option<&mut dyn AdmissionPlanner> {
        None
    }
}

/// One query, or the write system alone: no timers, no planner.
impl Policy<'_> for () {}

/// One query in flight.
struct Live<'q> {
    tag: u64,
    /// `None` while the query rides the shared-scan hub.
    driver: Option<Box<dyn QueryDriver + 'q>>,
    submitted: SimTime,
    /// The session's trace track, if the query opens a span on it.
    track: Option<u32>,
}

/// The parties of one run.
pub(crate) struct Run<'q, 'w> {
    /// The query in flight per session (at most one each).
    live: Vec<Option<Live<'q>>>,
    /// Sessions whose query runs its own driver, in delivery order, and
    /// each such session's position on that list.
    solo: Vec<u32>,
    solo_pos: Vec<u32>,
    /// Queries in flight, solo and attached.
    pub(crate) in_flight: u32,
    pub(crate) hub: Option<ScanHub<'q>>,
    /// Hub consumer slot -> session.
    attached: Vec<u32>,
    pub(crate) ws: Option<&'w mut WriteSystem>,
    /// Whether writeback was active after the write system's last event.
    background: bool,
    /// Reusable copy of one event's owners still to serve.
    owners: Vec<u64>,
    /// The answer and latency of the query that ended last.
    pub(crate) last: Option<(QueryAnswer, SimDuration)>,
}

impl<'q, 'w> Run<'q, 'w> {
    /// A run of `sessions` sessions beside `hub` and `ws` (started here).
    pub(crate) fn new(
        ctx: &mut SimContext<'_>,
        sessions: u32,
        hub: Option<ScanHub<'q>>,
        mut ws: Option<&'w mut WriteSystem>,
    ) -> Run<'q, 'w> {
        if let Some(w) = ws.as_deref_mut() {
            w.start(ctx);
        }
        Run {
            live: (0..sessions).map(|_| None).collect(),
            solo: Vec::new(),
            solo_pos: vec![0; sessions as usize],
            in_flight: 0,
            hub,
            attached: Vec::new(),
            ws,
            background: false,
            owners: Vec::new(),
            last: None,
        }
    }

    /// The session a tag belongs to (`None` for tag `0`).
    #[inline(always)]
    fn session_of(&self, tag: u64) -> Option<usize> {
        let s = (tag as u32).checked_sub(1)? as usize;
        (s < self.live.len()).then_some(s)
    }

    /// Put query `query_index` of session `s` in flight and open its span
    /// on `track` (an error from here on returns its share).
    fn enter(&mut self, ctx: &mut SimContext<'_>, s: usize, query_index: u32, track: Option<u32>) {
        if let Some(t) = track {
            ctx.trace_span_begin(t, "query");
        }
        self.live[s] = Some(Live {
            tag: tag(s as u32, query_index),
            driver: None,
            submitted: ctx.now(),
            track,
        });
        self.in_flight += 1;
    }

    /// Begin query `query_index` of session `s` on its own driver: the
    /// plan's retry policy, the query span on `track`, then `start` under
    /// the query's tag.
    pub(crate) fn begin(
        &mut self,
        ctx: &mut SimContext<'_>,
        s: usize,
        query_index: u32,
        q: &QuerySpec<'q>,
        track: Option<u32>,
    ) -> Result<(), ExecError> {
        ctx.set_retry_policy(q.plan.retry().clone());
        self.enter(ctx, s, query_index, track);
        let mut driver = make_driver(q)?;
        ctx.with_owner(tag(s as u32, query_index), |ctx| driver.start(ctx))?;
        if let Some(live) = self.live[s].as_mut() {
            live.driver = Some(driver);
            self.solo_pos[s] = self.solo.len() as u32;
            self.solo.push(s as u32);
        }
        Ok(())
    }

    /// Begin query `query_index` of session `s` on the hub's cursor over
    /// `C2 BETWEEN low AND high`.
    pub(crate) fn begin_attached(
        &mut self,
        ctx: &mut SimContext<'_>,
        s: usize,
        query_index: u32,
        (low, high): (u32, u32),
        track: Option<u32>,
    ) {
        let Some(hub) = self.hub.as_mut() else {
            return;
        };
        let slot = hub.attach(ctx, low, high) as usize;
        if self.attached.len() <= slot {
            self.attached.resize(slot + 1, 0);
        }
        self.attached[slot] = s as u32;
        self.enter(ctx, s, query_index, track);
    }

    /// The one place a query ends: with `answer` (the hub's), or with its
    /// driver's once done (maybe straight out of `start`). It leaves the
    /// solo list, closes its span, returns its share, tells the policy.
    pub(crate) fn settle(
        &mut self,
        ctx: &mut SimContext<'_>,
        policy: &mut impl Policy<'q>,
        s: usize,
        answer: Option<QueryAnswer>,
    ) {
        let done = |q: &Live| q.driver.as_ref().filter(|d| d.done()).map(|d| d.answer());
        let Some(answer) = answer.or_else(|| self.live[s].as_ref().and_then(done)) else {
            return;
        };
        let Some(q) = self.live[s].take() else {
            return;
        };
        if q.driver.is_some() {
            let i = self.solo_pos[s];
            self.solo.swap_remove(i as usize);
            if let Some(&moved) = self.solo.get(i as usize) {
                self.solo_pos[moved as usize] = i;
            }
        }
        self.in_flight -= 1;
        if let Some(t) = q.track {
            ctx.trace_span_end(t, "query");
        }
        if let Some(p) = policy.planner() {
            p.complete(s as u32);
        }
        let latency = ctx.now().since(q.submitted);
        self.last = Some((answer, latency));
        policy.ended(ctx, s, answer, latency);
    }

    /// The session of the query tagged `tag`, if it runs its own driver.
    #[inline(always)]
    fn running(&self, tag: u64) -> Option<usize> {
        let s = self.session_of(tag)?;
        let q = self.live[s].as_ref()?;
        (q.tag == tag && q.driver.is_some()).then_some(s)
    }

    /// Step until no query is in flight, the policy has nothing pending and
    /// the write system is done; then drain `ctx` and check that nothing
    /// leaked. Returns the I/O profile and fault counters of the last
    /// event. On an error every share still held is returned first.
    pub(crate) fn drive(
        &mut self,
        ctx: &mut SimContext<'_>,
        policy: &mut impl Policy<'q>,
    ) -> Result<(IoProfile, ResilienceStats), ExecError> {
        let (mut events, mut failed) = (Vec::new(), None);
        while failed.is_none()
            && (self.in_flight > 0
                || policy.pending()
                || self.ws.as_deref().is_some_and(|w| !w.finished()))
        {
            events.clear();
            failed = if ctx.device_crashed() || !ctx.step(&mut events) {
                Some(if ctx.device_crashed() {
                    ExecError::Crashed
                } else {
                    ExecError::Internal {
                        detail: "event loop stalled with work pending",
                    }
                })
            } else {
                (0..events.len()).find_map(|i| self.fan_out(ctx, policy, i, events[i]).err())
            };
        }
        if let Some(e) = failed {
            if let Some(p) = policy.planner() {
                for s in (0..self.live.len()).filter(|&s| self.live[s].is_some()) {
                    p.complete(s as u32);
                }
                if self.hub.as_ref().is_some_and(ScanHub::is_active) {
                    p.cursor_stop();
                }
                if self.background {
                    p.background_release();
                }
            }
            return Err(e);
        }
        let measured = (ctx.io_profile(), ctx.resilience());
        ctx.quiesce();
        // Work a crash swallowed is no leak.
        let detail = if ctx.holds_work() && !ctx.device_crashed() {
            "the context held work after the run drained"
        } else if policy.planner().is_some_and(|p| p.depth_gauges().0 != 0) {
            "an admission share outlived the run"
        } else {
            return Ok(measured);
        };
        Err(ExecError::Internal { detail })
    }

    /// Hand the `i`-th event of the last step to its party.
    #[inline(always)]
    fn fan_out(
        &mut self,
        ctx: &mut SimContext<'_>,
        policy: &mut impl Policy<'q>,
        i: usize,
        ev: Event,
    ) -> Result<(), ExecError> {
        // The write system's own timers are untagged, so no session sees
        // them.
        if let Some(w) = self.ws.as_deref_mut() {
            w.on_event(ctx, &ev)?;
            if w.checkpoint_active() != self.background {
                self.background = !self.background;
                match policy.planner() {
                    Some(p) if self.background => p.background_acquire(),
                    Some(p) => p.background_release(),
                    None => {}
                }
            }
        }
        // One running owner is the common case, and nothing before the
        // delivery applies to it: timers and the hub's work are untagged.
        let owners = ctx.event_owners(i);
        if let [t] = *owners {
            if let Some(s) = self.running(t) {
                return self.deliver(ctx, policy, s, &ev);
            }
        }
        if !owners.iter().any(|&t| self.running(t).is_some()) {
            ctx.admit_stray(&ev);
        }
        if let Event::Timer { tag, .. } = ev {
            if let Some(s) = self.session_of(tag) {
                policy.wake(self, ctx, s)?;
                self.settle(ctx, policy, s, None);
            }
            return Ok(());
        }
        if let Some(hub) = self.hub.as_mut() {
            if hub.on_event(ctx, &ev)? {
                let mut answers = Vec::new();
                hub.take_completions(&mut answers);
                let idle = !hub.is_active();
                for (slot, answer) in answers {
                    let s = self.attached[slot as usize] as usize;
                    self.settle(ctx, policy, s, Some(answer));
                }
                if let Some(p) = policy.planner().filter(|_| idle) {
                    p.cursor_stop();
                }
                return Ok(());
            }
        }
        // Several running owners go in solo-list order, re-read after each
        // delivery: an ending query is swap-removed and the entry swapped
        // into its place comes next, as in a sweep of the whole list.
        // Same-instant resubmissions, and so every simulated result, depend
        // on that order.
        let mut owners = std::mem::take(&mut self.owners);
        owners.clear();
        owners.extend_from_slice(ctx.event_owners(i));
        while let Some((_, s, k)) = owners
            .iter()
            .enumerate()
            .filter_map(|(k, &t)| self.running(t).map(|s| (self.solo_pos[s], s, k)))
            .min()
        {
            owners.swap_remove(k);
            self.deliver(ctx, policy, s, &ev)?;
        }
        self.owners = owners;
        Ok(())
    }

    /// Hand `ev` to the driver of session `s`, under its tag.
    #[inline(always)]
    fn deliver(
        &mut self,
        ctx: &mut SimContext<'_>,
        policy: &mut impl Policy<'q>,
        s: usize,
        ev: &Event,
    ) -> Result<(), ExecError> {
        if let Some(q) = self.live[s].as_mut() {
            if let Some(driver) = q.driver.as_mut() {
                ctx.with_owner(q.tag, |ctx| driver.on_event(ctx, ev))?;
            }
        }
        self.settle(ctx, policy, s, None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuConfig;
    use crate::engine::CpuCosts;
    use crate::execute::PlanSpec;
    use crate::fts::FtsConfig;
    use crate::session::QueryAdmission;
    use pioqo_bufpool::BufferPool;
    use pioqo_device::presets::consumer_pcie_ssd;
    use pioqo_device::{CrashPlan, Crashable, DeviceModel};
    use pioqo_storage::{HeapTable, TableSpec, Tablespace};

    /// A 100-page table and a device with room beside it.
    fn table() -> (HeapTable, u64) {
        let spec = TableSpec::paper_table(33, 3_300, 3);
        let mut ts = Tablespace::new(spec.n_pages() + 1_000);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        (table, ts.capacity())
    }

    fn context<'a>(dev: &'a mut dyn DeviceModel, pool: &'a mut BufferPool) -> SimContext<'a> {
        SimContext::new(dev, pool, CpuConfig::paper_xeon(), CpuCosts::default())
    }

    fn fts(table: &HeapTable) -> QuerySpec<'_> {
        QuerySpec::range_max(table, None, 0, u32::MAX - 1)
            .with_plan(PlanSpec::Fts(FtsConfig::default()))
    }

    /// A planner that only counts shares: `held` active, `released` in
    /// release order.
    #[derive(Default)]
    struct Shares {
        held: u32,
        released: Vec<u32>,
    }

    impl AdmissionPlanner for Shares {
        fn admit(&mut self, _: &QueryAdmission, _: &BufferPool) -> PlanSpec {
            PlanSpec::Fts(FtsConfig::default())
        }

        fn complete(&mut self, session: u32) {
            self.released.push(session);
        }

        fn depth_gauges(&self) -> (u32, u32) {
            (self.held, 0)
        }
    }

    /// Records what the loop tells it.
    #[derive(Default)]
    struct Probe {
        /// Keep the run going with nothing in flight.
        waiting: bool,
        ended: Vec<usize>,
        shares: Shares,
        /// Residency of `watch` pages, sampled when the first query ends.
        watch: Vec<u64>,
        resident_at_end: Vec<bool>,
    }

    impl Policy<'_> for Probe {
        fn pending(&self) -> bool {
            self.waiting
        }

        fn ended(&mut self, ctx: &mut SimContext<'_>, s: usize, _: QueryAnswer, _: SimDuration) {
            if self.ended.is_empty() {
                self.resident_at_end = self.watch.iter().map(|&p| ctx.pool.contains(p)).collect();
            }
            self.ended.push(s);
        }

        fn planner(&mut self) -> Option<&mut dyn AdmissionPlanner> {
            Some(&mut self.shares)
        }
    }

    /// Records every answer, by session.
    #[derive(Default)]
    struct Answers(Vec<(usize, QueryAnswer)>);

    impl Policy<'_> for Answers {
        fn ended(&mut self, _: &mut SimContext<'_>, s: usize, answer: QueryAnswer, _: SimDuration) {
            self.0.push((s, answer));
        }
    }

    /// Begin `sessions` copies of `q` at the same instant (on the hub's
    /// cursor when `hub` is set) and drive them to the end: each answer,
    /// in session order, and the I/O operations the device completed.
    fn side_by_side<'q>(
        q: &QuerySpec<'q>,
        hub: Option<ScanHub<'q>>,
        sessions: u32,
        cap: u64,
    ) -> (Vec<QueryAnswer>, u64) {
        let mut dev = consumer_pcie_ssd(cap, 5);
        let mut pool = BufferPool::new(512);
        let mut ctx = context(&mut dev, &mut pool);
        let attached = hub.is_some();
        let mut run = Run::new(&mut ctx, sessions, hub, None);
        for s in 0..sessions as usize {
            if attached {
                run.begin_attached(&mut ctx, s, 0, q.predicate.sarg(), None);
            } else {
                run.begin(&mut ctx, s, 0, q, None).expect("query starts");
            }
        }
        let mut answers = Answers::default();
        run.drive(&mut ctx, &mut answers).expect("run completes");
        answers.0.sort_by_key(|&(s, _)| s);
        let ios = ctx.io_profile().io_ops;
        (answers.0.into_iter().map(|(_, a)| a).collect(), ios)
    }

    #[test]
    fn every_reader_wakes_each_query_that_joined_its_read() {
        use crate::is::IsConfig;
        use crate::join::{HashJoinConfig, InlConfig};
        use crate::query::{oracle, JoinClause, Predicate};
        use crate::sorted_is::SortedIsConfig;
        use pioqo_storage::BTreeIndex;

        let spec = TableSpec::paper_table(33, 3_300, 3);
        let inner_spec = TableSpec {
            name: "T_inner".to_string(),
            ..TableSpec::paper_table(33, 1_650, 4)
        };
        let mut ts = Tablespace::new(8 * (spec.n_pages() + inner_spec.n_pages()) + 1_000);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        let inner = HeapTable::create(inner_spec, &mut ts).expect("fits");
        let build = |t: &HeapTable, ts: &mut Tablespace| {
            BTreeIndex::build("c2", t.data().c2_entries(), t.spec().page_size, ts).expect("fits")
        };
        let index = build(&table, &mut ts);
        let inner_index = build(&inner, &mut ts);
        let spill = ts.alloc("spill", 2 * 150 + 64).expect("fits");
        let cap = ts.capacity();
        let window = QuerySpec::range_max(&table, Some(&index), 0, u32::MAX / 4);
        let join = |plan| {
            QuerySpec::scan(&table)
                .filter(Predicate::c2_between(0, u32::MAX / 8))
                .with_plan(plan)
                .join(JoinClause {
                    right: &inner,
                    right_index: Some(&inner_index),
                    spill: Some(spill),
                })
        };
        // (query, its reads are page reads a second query can join)
        let cases = [
            // Several workers parked on one prefetch block.
            (
                window.clone().with_plan(PlanSpec::Fts(FtsConfig {
                    workers: 4,
                    ..FtsConfig::default()
                })),
                false,
            ),
            // Every page a demand read.
            (
                window.clone().with_plan(PlanSpec::Fts(FtsConfig {
                    workers: 4,
                    prefetch_blocks: 0,
                    ..FtsConfig::default()
                })),
                true,
            ),
            // Chunked leaves: many workers parked on one leaf read.
            (
                window.clone().with_plan(PlanSpec::Is(IsConfig {
                    workers: 16,
                    prefetch_depth: 2,
                    ..IsConfig::default()
                })),
                true,
            ),
            (
                window
                    .clone()
                    .with_plan(PlanSpec::SortedIs(SortedIsConfig::default())),
                true,
            ),
            // Probes parked on the inner root.
            (join(PlanSpec::Inl(InlConfig::default())), true),
            (join(PlanSpec::Hash(HashJoinConfig::default())), false),
        ];
        for (q, joinable) in &cases {
            let want = oracle(q);
            let (one, solo_ios) = side_by_side(q, None, 1, cap);
            let (three, ios) = side_by_side(q, None, 3, cap);
            for a in one.iter().chain(&three) {
                assert_eq!(
                    (a.max_c1, a.rows_matched, a.fingerprint),
                    (want.agg, want.matched, want.fingerprint),
                    "{}",
                    q.plan.label()
                );
            }
            assert_eq!(three.len(), 3, "{}: every query answers", q.plan.label());
            if *joinable {
                assert!(ios < 3 * solo_ios, "{}: no read was joined", q.plan.label());
            }
        }
        // The shared cursor: one credit holder per block, three consumers.
        let want = oracle(&window);
        let (answers, _) = side_by_side(&window, Some(ScanHub::new(&table, 8)), 3, cap);
        assert_eq!(answers.len(), 3);
        for a in &answers {
            assert_eq!((a.max_c1, a.fingerprint), (want.agg, want.fingerprint));
        }
    }

    #[test]
    fn a_tag_decodes_to_its_session() {
        let mut dev = consumer_pcie_ssd(64, 1);
        let mut pool = BufferPool::new(8);
        let mut ctx = context(&mut dev, &mut pool);
        for sessions in [1u32, 3, 1_000] {
            let run = Run::new(&mut ctx, sessions, None, None);
            for s in [0, sessions / 2, sessions - 1] {
                for q in [0u32, 1, 49, u32::MAX] {
                    assert_eq!(run.session_of(tag(s, q)), Some(s as usize));
                }
            }
            assert_eq!(run.session_of(0), None, "tag 0 is untagged");
            assert_eq!(run.session_of(tag(sessions, 0)), None, "not a session");
        }
    }

    #[test]
    fn a_read_is_claimed_exactly_while_its_query_runs() {
        let (table, cap) = table();
        let mut dev = consumer_pcie_ssd(cap, 1);
        let mut pool = BufferPool::new(256);
        let mut ctx = context(&mut dev, &mut pool);
        let mut run = Run::new(&mut ctx, 1, None, None);
        run.begin(&mut ctx, 0, 1, &fts(&table), None)
            .expect("query starts");
        // Beside the table: one read owned by a query that already ended,
        // one owned by the running query but unknown to its driver.
        let (stray, claimed) = (cap - 10, cap - 20);
        ctx.with_owner(tag(0, 0), |ctx| ctx.read_page(stray));
        ctx.with_owner(tag(0, 1), |ctx| ctx.read_page(claimed));
        let mut probe = Probe {
            watch: vec![stray, claimed],
            ..Probe::default()
        };
        run.drive(&mut ctx, &mut probe).expect("run completes");
        assert_eq!(probe.ended, [0]);
        assert_eq!(probe.resident_at_end, [true, false]);
        assert_eq!(probe.shares.released, [0]);
    }

    #[test]
    fn a_failed_run_releases_every_query_in_flight() {
        let (table, cap) = table();
        let mut dev = Crashable::new(
            consumer_pcie_ssd(cap, 1),
            CrashPlan::at(SimTime::from_micros(200), 1),
        );
        let mut pool = BufferPool::new(256);
        let mut ctx = context(&mut dev, &mut pool);
        let mut run = Run::new(&mut ctx, 3, None, None);
        for s in [0, 2] {
            run.begin(&mut ctx, s, 0, &fts(&table), None)
                .expect("query starts");
        }
        let mut probe = Probe::default();
        assert_eq!(
            run.drive(&mut ctx, &mut probe).err(),
            Some(ExecError::Crashed)
        );
        assert!(probe.ended.is_empty());
        assert_eq!(probe.shares.released, [0, 2]);
    }

    #[test]
    fn a_stalled_or_leaking_run_is_an_internal_error() {
        let mut dev = consumer_pcie_ssd(64, 1);
        let mut pool = BufferPool::new(8);
        let mut ctx = context(&mut dev, &mut pool);
        let mut run = Run::new(&mut ctx, 1, None, None);
        let mut waiting = Probe {
            waiting: true,
            ..Probe::default()
        };
        assert_eq!(
            run.drive(&mut ctx, &mut waiting).err(),
            Some(ExecError::Internal {
                detail: "event loop stalled with work pending"
            })
        );
        let mut leaking = Probe {
            shares: Shares {
                held: 1,
                ..Shares::default()
            },
            ..Probe::default()
        };
        assert_eq!(
            run.drive(&mut ctx, &mut leaking).err(),
            Some(ExecError::Internal {
                detail: "an admission share outlived the run"
            })
        );
    }
}
