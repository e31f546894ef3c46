//! QDTT-aware admission control: the bridge between the optimizer and the
//! concurrent multi-query engine.
//!
//! §4.3's future-work paragraph says the optimizer "needs to pass a lower
//! queue depth number to the QDTT model" when queries run concurrently.
//! [`QdttAdmission`] operationalizes that: it implements the executor's
//! [`AdmissionPlanner`] hook, and on every admission it
//!
//! 1. takes a queue-depth lease from the shared [`QdBudget`] (the device's
//!    beneficial depth split over the active queries),
//! 2. gathers live [`TableStats`] — including what is *currently cached*,
//!    which under concurrency reflects the other sessions' footprints,
//! 3. re-runs plan selection with `max_queue_depth` capped at the lease, and
//! 4. lowers the winning [`Plan`] to an executable [`PlanSpec`] whose
//!    prefetch depths respect the lease.
//!
//! The lease is returned when the engine reports the query complete, so a
//! lull re-grants the full depth. Every decision is journaled in an
//! [`AdmissionDecision`] — the experiment harness reads that log to show
//! plan choice and parallel degree shifting with the concurrency level.

use crate::concurrency::{Holder, QdBudget};
use crate::cost::QdttCost;
use crate::join::{join_plan_to_spec, JoinMethod, JoinStats};
use crate::optimizer::{AccessMethod, ChooseScratch, Optimizer, OptimizerConfig, Plan};
use crate::stats::TableStats;
use pioqo_bufpool::BufferPool;
use pioqo_core::Qdtt;
use pioqo_exec::{
    AdmissionPlanner, FtsConfig, IsConfig, PlanSpec, QueryAdmission, SharedChoice, SortedIsConfig,
};
use pioqo_storage::{BTreeIndex, HeapTable};
use serde::{Deserialize, Serialize};

/// Lower a costed [`Plan`] to the executor's [`PlanSpec`].
///
/// The operator configuration is sized from the plan's costing assumptions:
/// an index scan gets the per-worker prefetch depth the cost model assumed,
/// scaled down when a queue-depth cap clipped the plan's depth, and a
/// sorted index scan sizes its fetch ring to the plan's queue depth.
pub fn plan_to_spec(plan: &Plan, cfg: &OptimizerConfig) -> PlanSpec {
    match plan.method {
        AccessMethod::TableScan => PlanSpec::Fts(FtsConfig {
            workers: plan.degree,
            ..FtsConfig::default()
        }),
        AccessMethod::IndexScan => {
            let per_worker = if cfg.is_prefetch_depth == 0 {
                0
            } else {
                // `plan.queue_depth = (degree * pf).min(cap)`: recover the
                // per-worker share so the executor's outstanding I/O stays
                // within what the plan was costed (and leased) for.
                cfg.is_prefetch_depth
                    .min((plan.queue_depth / plan.degree.max(1)).max(1))
            };
            PlanSpec::Is(IsConfig {
                workers: plan.degree,
                prefetch_depth: per_worker,
                ..IsConfig::default()
            })
        }
        AccessMethod::SortedIndexScan => PlanSpec::SortedIs(SortedIsConfig {
            prefetch_depth: plan.queue_depth.max(1),
            leaf_prefetch: plan.queue_depth.clamp(1, 8),
            ..SortedIsConfig::default()
        }),
    }
}

/// One admission decision, journaled for the concurrency experiments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmissionDecision {
    /// The admitted session.
    pub session: u32,
    /// The session-local query index.
    pub query_index: u32,
    /// Queries of other sessions running at admission time.
    pub active: u32,
    /// Queue depth the lease granted this query.
    pub lease_depth: u32,
    /// The query's selectivity.
    pub selectivity: f64,
    /// The chosen access method.
    pub method: AccessMethod,
    /// The chosen parallel degree.
    pub degree: u32,
    /// Queue depth the winning plan was costed with (≤ `lease_depth`).
    pub queue_depth: u32,
    /// Executable plan label ("PIS8+pf4", ...).
    pub plan: String,
    /// The query attached to the shared-scan cursor instead of taking a
    /// lease of its own (`lease_depth`/`queue_depth` are 0 in that case:
    /// the cursor's lease, taken once at cursor start, covers it).
    pub attached: bool,
}

/// One join admission decision, journaled separately from the scan
/// decisions (a join chooses among join operators, not access paths).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinDecision {
    /// The admitted session.
    pub session: u32,
    /// Queries of other sessions running at admission time.
    pub active: u32,
    /// Queue depth the lease granted this query.
    pub lease_depth: u32,
    /// The query's outer selectivity.
    pub selectivity: f64,
    /// The chosen join operator.
    pub method: JoinMethod,
    /// Queue depth the winning plan was costed with (≤ `lease_depth`).
    pub queue_depth: u32,
    /// Hash partitions (1 for INL).
    pub partitions: u32,
    /// Executable plan label ("INL+qd8", "HHJ8").
    pub plan: String,
}

/// The QDTT-aware admission planner. See the module docs.
pub struct QdttAdmission<'a> {
    table: &'a HeapTable,
    index: &'a BTreeIndex,
    /// When set, every admission is a join against this inner table and
    /// plan choice runs through [`Optimizer::choose_join`] instead of the
    /// scan plans.
    join: Option<(&'a HeapTable, &'a BTreeIndex)>,
    join_decisions: Vec<JoinDecision>,
    model: QdttCost,
    cfg: OptimizerConfig,
    /// Per-admission working copy of `cfg` with `max_queue_depth` capped at
    /// the live lease — cloned once at construction, mutated in place on
    /// every admission instead of cloning the degree list per query.
    run_cfg: OptimizerConfig,
    /// Reused across admissions by `Optimizer::choose_into`: the candidate
    /// buffer and the Yao memo (one table, a finite selectivity cycle).
    scratch: ChooseScratch,
    /// Who holds how much depth: one [`Holder::Session`] per admitted
    /// solo query, [`Holder::Cursor`] while the shared cursor streams
    /// (charged once no matter how many consumers attach), and
    /// [`Holder::Background`] while writeback is active — it contends
    /// exactly like a query, shrinking every concurrent scan's share.
    budget: QdBudget,
    /// Journal of cursor-lease depths, one entry per cursor start — the
    /// artifact the tests use to assert sharing takes exactly one lease.
    cursor_leases: Vec<u32>,
    decisions: Vec<AdmissionDecision>,
}

impl<'a> QdttAdmission<'a> {
    /// An admission planner over the calibrated `model`, choosing plans for
    /// queries against `table`/`index` with `cfg` as the *uncontended*
    /// configuration (its `max_queue_depth` is the single-query cap; leases
    /// can only lower it). The queue-depth budget is derived from the
    /// model's beneficial depth.
    pub fn new(
        table: &'a HeapTable,
        index: &'a BTreeIndex,
        model: Qdtt,
        cfg: OptimizerConfig,
    ) -> QdttAdmission<'a> {
        let budget = QdBudget::from_model(&model);
        let run_cfg = cfg.clone();
        QdttAdmission {
            table,
            index,
            join: None,
            join_decisions: Vec::new(),
            model: QdttCost(model),
            cfg,
            run_cfg,
            scratch: ChooseScratch::default(),
            budget,
            cursor_leases: Vec::new(),
            decisions: Vec::new(),
        }
    }

    /// Turn the planner into a join planner: every admitted query joins
    /// the base table (as the outer side) against `right` through
    /// `right_index`, and admission picks INL vs. hybrid hash from the
    /// QDTT costs under the live queue-depth lease.
    pub fn with_join(
        mut self,
        right: &'a HeapTable,
        right_index: &'a BTreeIndex,
    ) -> QdttAdmission<'a> {
        self.join = Some((right, right_index));
        self
    }

    /// The join admission journal, in admission order (empty unless
    /// [`with_join`](Self::with_join) was used).
    pub fn join_decisions(&self) -> &[JoinDecision] {
        &self.join_decisions
    }

    /// True while the planner holds a lease for background writeback.
    pub fn background_lease_held(&self) -> bool {
        self.budget.holds(Holder::Background)
    }

    /// The shared queue-depth budget (for reporting).
    pub fn budget(&self) -> &QdBudget {
        &self.budget
    }

    /// The admission journal so far, in admission order.
    pub fn decisions(&self) -> &[AdmissionDecision] {
        &self.decisions
    }

    /// Queue-depth lease granted at each shared-cursor start, in order.
    /// Its length equals the number of cursor starts: the whole point of
    /// the shared scan is that this list stays short while the number of
    /// attached consumers grows without bound.
    pub fn cursor_leases(&self) -> &[u32] {
        &self.cursor_leases
    }

    /// Consume the planner, keeping its journal.
    pub fn into_decisions(self) -> Vec<AdmissionDecision> {
        self.decisions
    }

    /// The cheapest dedicated plan for selectivity `sel` with the queue
    /// depth capped at `depth` (a lease's, granted or hypothetical).
    fn best_solo(&mut self, stats: &TableStats, sel: f64, depth: u32) -> Plan {
        self.run_cfg.max_queue_depth = self.cfg.max_queue_depth.min(depth);
        Optimizer::with_cfg(&self.model, &self.run_cfg).choose_into(stats, sel, &mut self.scratch)
    }

    /// Admit `q` on `plan`, which was costed under the `lease_depth` its
    /// session holds until the query completes: lower it, journal it.
    fn journal(&mut self, q: &QueryAdmission, lease_depth: u32, plan: &Plan) -> PlanSpec {
        let spec = plan_to_spec(plan, &self.cfg);
        self.decisions.push(AdmissionDecision {
            session: q.session,
            query_index: q.query_index,
            active: q.active,
            lease_depth,
            selectivity: q.selectivity,
            method: plan.method,
            degree: plan.degree,
            queue_depth: plan.queue_depth,
            plan: spec.label(),
            attached: false,
        });
        spec
    }
}

impl AdmissionPlanner for QdttAdmission<'_> {
    fn admit(&mut self, q: &QueryAdmission, pool: &BufferPool) -> PlanSpec {
        let lease_depth = self.budget.grant(Holder::Session(q.session));
        let stats = TableStats::gather(self.table, self.index, pool);
        if let Some((right, right_index)) = self.join {
            let right_stats = TableStats::gather(right, right_index, pool);
            let js = JoinStats {
                left: &stats,
                right: &right_stats,
                key_cardinality: (right.spec().c2_max as u64 + 1).min(right.spec().rows),
            };
            self.run_cfg.max_queue_depth = self.cfg.max_queue_depth.min(lease_depth);
            let plan =
                Optimizer::with_cfg(&self.model, &self.run_cfg).choose_join(&js, q.selectivity);
            let spec = join_plan_to_spec(&plan);
            self.join_decisions.push(JoinDecision {
                session: q.session,
                active: q.active,
                lease_depth,
                selectivity: q.selectivity,
                method: plan.method,
                queue_depth: plan.queue_depth,
                partitions: plan.partitions,
                plan: spec.label(),
            });
            return spec;
        }
        let plan = self.best_solo(&stats, q.selectivity, lease_depth);
        self.journal(q, lease_depth, &plan)
    }

    fn admit_shared(
        &mut self,
        q: &QueryAdmission,
        pool: &BufferPool,
        cursor_active: bool,
    ) -> SharedChoice {
        let stats = TableStats::gather(self.table, self.index, pool);
        // Marginal cost of riding the shared cursor: the table scan's CPU
        // alone. Its device stream is already paid for by the cursor's own
        // lease, so no I/O term and no new lease.
        let opt = Optimizer::with_cfg(&self.model, &self.cfg);
        let attached_cpu = opt.fts(&stats, 1).cpu_us;
        // Cost the best solo plan under the lease this query WOULD get if
        // it were admitted on its own (hypothetical: no lease is taken).
        let depth = self.budget.share_at(self.budget.active() as u32 + 1);
        let solo = self.best_solo(&stats, q.selectivity, depth);
        // With a cursor already streaming, attach whenever riding it is
        // cheaper than the best dedicated plan. With no cursor, attach
        // exactly when a table scan would win anyway — the first consumer
        // starts the cursor and pays its lease.
        let attach = if cursor_active {
            attached_cpu < solo.est_total_us
        } else {
            solo.method == AccessMethod::TableScan
        };
        if attach {
            self.decisions.push(AdmissionDecision {
                session: q.session,
                query_index: q.query_index,
                active: q.active,
                lease_depth: 0,
                selectivity: q.selectivity,
                method: AccessMethod::TableScan,
                degree: 1,
                queue_depth: 0,
                plan: "FTS+shared".to_string(),
                attached: true,
            });
            SharedChoice::Attach
        } else if self.join.is_some() {
            SharedChoice::Solo(self.admit(q, pool))
        } else {
            // The share now granted is the one `solo` was costed under, so
            // the plan stands as it is.
            let lease_depth = self.budget.grant(Holder::Session(q.session));
            debug_assert_eq!(lease_depth, depth);
            SharedChoice::Solo(self.journal(q, lease_depth, &solo))
        }
    }

    fn cursor_start(&mut self, pool: &BufferPool) -> u32 {
        let _ = pool;
        let depth = self.budget.grant(Holder::Cursor);
        self.cursor_leases.push(depth);
        depth
    }

    fn cursor_stop(&mut self) {
        self.budget.release(Holder::Cursor);
    }

    fn complete(&mut self, session: u32) {
        self.budget.release(Holder::Session(session));
    }

    fn background_acquire(&mut self) {
        // Writeback became active: take one share so subsequent query
        // admissions see a smaller one. Idempotent — repeated activity
        // transitions while it is held keep the same grant.
        if !self.budget.holds(Holder::Background) {
            self.budget.grant(Holder::Background);
        }
    }

    fn background_release(&mut self) {
        self.budget.release(Holder::Background);
    }

    fn depth_gauges(&self) -> (u32, u32) {
        (self.budget.active() as u32, self.budget.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioqo_storage::{TableSpec, Tablespace};

    fn fixture() -> (HeapTable, BTreeIndex) {
        let spec = TableSpec::paper_table(33, 100_000, 5);
        let mut ts = Tablespace::new(4 * spec.n_pages() + 2000);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        let index = BTreeIndex::build(
            "c2_idx",
            table.data().c2_entries(),
            table.spec().page_size,
            &mut ts,
        )
        .expect("fits");
        (table, index)
    }

    /// SSD-like synthetic QDTT: per-page cost halves with every doubling of
    /// queue depth, at every band size.
    fn ssd_model() -> Qdtt {
        Qdtt::new(
            vec![1, 1 << 20],
            vec![1, 2, 4, 8, 16, 32],
            vec![
                100.0, 100.0, 50.0, 50.0, 25.0, 25.0, 12.0, 12.0, 6.0, 6.0, 3.0, 3.0,
            ],
        )
    }

    fn admission(session: u32, active: u32, sel: f64) -> QueryAdmission {
        QueryAdmission {
            session,
            query_index: 0,
            active,
            selectivity: sel,
            low: 0,
            high: 0,
        }
    }

    #[test]
    fn leases_shrink_and_degree_steps_down_under_concurrency() {
        let (table, index) = fixture();
        let pool = BufferPool::new(4096);
        // Index-scan-only configuration so the lease effect shows up in the
        // parallel degree (with sorted IS enabled, a serial deep-ring plan
        // can dominate at every lease level).
        let cfg = OptimizerConfig {
            consider_sorted_is: false,
            ..OptimizerConfig::fine_grained()
        };
        let mut adm = QdttAdmission::new(&table, &index, ssd_model(), cfg);
        // Admit 16 sessions without completing any: the lease shrinks from
        // the full 32 down to 2, and the chosen plans must follow.
        for s in 0..16 {
            adm.admit(&admission(s, s, 0.01), &pool);
        }
        let d = adm.decisions();
        assert_eq!(d[0].lease_depth, 32);
        assert_eq!(d[15].lease_depth, 2);
        assert!(
            d[15].queue_depth < d[0].queue_depth,
            "costed queue depth must shrink with the lease: {} vs {}",
            d[0].queue_depth,
            d[15].queue_depth
        );
        assert!(
            d[0].degree > 1,
            "uncontended, the query should parallelize: {:?}",
            d[0]
        );
        assert!(
            d[15].degree < d[0].degree,
            "parallel degree must step down as leases shrink: {} vs {}",
            d[0].degree,
            d[15].degree
        );
    }

    #[test]
    fn completion_returns_the_lease() {
        let (table, index) = fixture();
        let pool = BufferPool::new(4096);
        let mut adm =
            QdttAdmission::new(&table, &index, ssd_model(), OptimizerConfig::fine_grained());
        adm.admit(&admission(0, 0, 0.01), &pool);
        assert_eq!(adm.budget().active(), 1);
        adm.complete(0);
        assert_eq!(adm.budget().active(), 0);
        adm.admit(&admission(1, 0, 0.01), &pool);
        assert_eq!(
            adm.decisions()[1].lease_depth,
            adm.decisions()[0].lease_depth,
            "after a completion the next query gets the full depth again"
        );
    }

    #[test]
    fn completing_an_unknown_session_is_a_no_op() {
        let (table, index) = fixture();
        let mut adm =
            QdttAdmission::new(&table, &index, ssd_model(), OptimizerConfig::fine_grained());
        adm.complete(7); // engine never admitted session 7: nothing to release
        assert_eq!(adm.budget().active(), 0);
    }

    #[test]
    fn background_lease_contends_like_a_query() {
        let (table, index) = fixture();
        let pool = BufferPool::new(4096);
        let mut adm =
            QdttAdmission::new(&table, &index, ssd_model(), OptimizerConfig::fine_grained());
        adm.admit(&admission(0, 0, 0.01), &pool);
        let solo = adm.decisions()[0].lease_depth;
        adm.complete(0);
        adm.background_acquire();
        assert!(adm.background_lease_held());
        assert_eq!(adm.budget().active(), 1);
        adm.background_acquire(); // idempotent while active
        assert_eq!(adm.budget().active(), 1);
        adm.admit(&admission(1, 0, 0.01), &pool);
        assert!(
            adm.decisions()[1].lease_depth < solo,
            "writeback must shrink concurrent admissions: {} vs {}",
            solo,
            adm.decisions()[1].lease_depth
        );
        adm.complete(1);
        adm.background_release();
        assert!(!adm.background_lease_held());
        assert_eq!(adm.budget().active(), 0);
        adm.background_release(); // releasing while idle is a no-op
        assert_eq!(adm.budget().active(), 0);
    }

    #[test]
    fn a_long_lived_planner_decides_like_a_fresh_one_per_admission() {
        // The planner remembers the Yao term between admissions. Pool
        // residency and the lease move between them and must not be
        // remembered with it: a planner that has seen every earlier
        // admission journals what a brand-new planner would.
        let (table, index) = fixture();
        let mut pool = BufferPool::new(4096);
        let cfg = OptimizerConfig::fine_grained();
        let mut veteran = QdttAdmission::new(&table, &index, ssd_model(), cfg.clone());
        // k = 100, 1 000 and 4 000 sit on Yao's exact (memoized) path,
        // 5 000 on the closed form; the cycle repeats every key.
        let cycle = [0.001, 0.04, 0.01, 0.05];
        let mut next_page = 0;
        for i in 0..24u32 {
            let mut fresh = QdttAdmission::new(&table, &index, ssd_model(), cfg.clone());
            // 0, 1 or 2 leases already out, without costing anything.
            for adm in [&mut veteran, &mut fresh] {
                if i % 3 >= 1 {
                    adm.background_acquire();
                }
                if i % 3 == 2 {
                    adm.cursor_start(&pool);
                }
            }
            let q = QueryAdmission {
                query_index: i,
                ..admission(i, i % 3, cycle[i as usize % cycle.len()])
            };
            // Alternate the two entry points; with no cursor streaming and
            // an index plan winning, `admit_shared` takes its solo path.
            let (a, b) = if i % 2 == 0 {
                (veteran.admit(&q, &pool), fresh.admit(&q, &pool))
            } else {
                let solo = |c| match c {
                    SharedChoice::Solo(p) => p,
                    SharedChoice::Attach => panic!("selective query attached"),
                };
                (
                    solo(veteran.admit_shared(&q, &pool, false)),
                    solo(fresh.admit_shared(&q, &pool, false)),
                )
            };
            assert_eq!(a.label(), b.label());
            let journaled = veteran.decisions().last().expect("journaled");
            assert_eq!(
                format!("{journaled:?}"),
                format!("{:?}", fresh.decisions()[0]),
                "admission {i}"
            );
            assert_eq!(fresh.decisions().len(), 1, "one admission, one row");
            veteran.complete(i);
            veteran.background_release();
            veteran.cursor_stop();
            assert_eq!(veteran.budget().active(), 0);
            // More of the table turns resident before the next admission.
            for _ in 0..100 {
                pool.admit_prefetched(table.device_page(next_page))
                    .expect("pool has room");
                next_page += 1;
            }
        }
        let d = veteran.decisions();
        assert_eq!(d.len(), 24);
        assert!(
            d.iter().any(|x| x.lease_depth != d[0].lease_depth),
            "the lease must have moved"
        );
    }

    #[test]
    fn solo_fallback_of_admit_shared_costs_once_and_journals_like_admit() {
        let (table, index) = fixture();
        let pool = BufferPool::new(4096);
        let cfg = OptimizerConfig::fine_grained();
        let mut via_shared = QdttAdmission::new(&table, &index, ssd_model(), cfg.clone());
        let mut via_admit = QdttAdmission::new(&table, &index, ssd_model(), cfg);
        for s in 0..6 {
            let q = admission(s, s, 0.002);
            let SharedChoice::Solo(a) = via_shared.admit_shared(&q, &pool, s % 2 == 1) else {
                panic!("a 0.2% query must not ride a table scan");
            };
            let b = via_admit.admit(&q, &pool);
            assert_eq!(a.label(), b.label());
        }
        assert_eq!(via_shared.budget().active(), 6, "one lease per admission");
        assert_eq!(
            format!("{:?}", via_shared.decisions()),
            format!("{:?}", via_admit.decisions())
        );
    }

    #[test]
    fn plan_to_spec_respects_the_costed_queue_depth() {
        let cfg = OptimizerConfig::fine_grained();
        let plan = Plan {
            method: AccessMethod::IndexScan,
            degree: 8,
            queue_depth: 8, // capped: 8 workers x pf4 = 32 assumed, leased to 8
            band: 1000,
            est_page_fetches: 10.0,
            est_io_us: 100.0,
            est_cpu_us: 10.0,
            est_total_us: 110.0,
        };
        let PlanSpec::Is(is) = plan_to_spec(&plan, &cfg) else {
            panic!("index plan must lower to an index scan");
        };
        assert_eq!(is.workers, 8);
        assert_eq!(is.prefetch_depth, 1, "8 workers share a depth-8 lease");
        let sorted = Plan {
            method: AccessMethod::SortedIndexScan,
            degree: 1,
            queue_depth: 4,
            ..plan
        };
        let PlanSpec::SortedIs(s) = plan_to_spec(&sorted, &cfg) else {
            panic!("sorted plan must lower to a sorted index scan");
        };
        assert_eq!(s.prefetch_depth, 4);
        assert_eq!(s.leaf_prefetch, 4);
    }
}
