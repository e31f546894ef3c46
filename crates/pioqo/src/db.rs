//! A small embedded-database-shaped wrapper tying the whole stack
//! together: create a table, calibrate the storage, run range-MAX queries
//! through the cost-based optimizer — one at a time or as a concurrent
//! multi-session workload with QDTT-aware admission control.
//!
//! This is the "downstream user" API: everything the reproduction harness
//! does by hand — device construction, tablespace layout, calibration,
//! statistics gathering, plan choice, execution — behind a handful of
//! methods. Databases are built with [`Db::builder`]; every knob has a
//! sensible default.
//!
//! ```
//! use pioqo::db::{Db, StorageKind};
//!
//! let mut db = Db::builder()
//!     .storage(StorageKind::Ssd)
//!     .rows(50_000)
//!     .seed(7)
//!     .build();
//! db.calibrate();
//! let out = db.query_max_between(1 << 30, 3 << 30).expect("query runs");
//! assert_eq!(out.value, db.oracle_max_between(1 << 30, 3 << 30));
//! ```
//!
//! Concurrent workloads go through [`Db::run_workload`]: N closed-loop
//! sessions interleaved on the shared event loop, each query re-optimized
//! under its queue-depth lease:
//!
//! ```
//! use pioqo::db::Db;
//! use pioqo::exec::WorkloadSpec;
//!
//! let mut db = Db::builder().rows(20_000).build();
//! let spec = WorkloadSpec {
//!     sessions: 4,
//!     queries_per_session: 2,
//!     ..WorkloadSpec::default()
//! };
//! let out = db.run_workload(spec).expect("workload runs");
//! assert_eq!(out.report.total_completed(), 8);
//! assert_eq!(out.admissions.len(), 8);
//! ```

use pioqo_bufpool::BufferPool;
use pioqo_core::{CalibrationConfig, Calibrator, Qdtt};
use pioqo_device::{presets, DeviceModel};
use pioqo_exec::{
    execute, Aggregate, Col, CpuConfig, CpuCosts, ExecError, MultiEngine, PlanSpec, Predicate,
    Projection, QuerySpec, ScanMetrics, SimContext, WorkloadReport, WorkloadSpec,
};
use pioqo_optimizer::{
    plan_to_spec, AdmissionDecision, DttCost, Holder, Optimizer, OptimizerConfig, Plan, QdBudget,
    QdttAdmission, QdttCost, TableStats,
};
use pioqo_storage::{selectivity_of_range, BTreeIndex, HeapTable, TableSpec, Tablespace};
use std::cell::RefCell;
use std::rc::Rc;

/// Which simulated device backs the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Commodity 7200 RPM hard drive.
    Hdd,
    /// Consumer PCIe SSD.
    Ssd,
    /// 8-spindle 15K RAID array.
    Raid8,
}

/// Database construction parameters. Prefer [`Db::builder`], which fills
/// in the defaults below field by field.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Backing device.
    pub storage: StorageKind,
    /// Buffer pool size in MB.
    pub buffer_mb: u64,
    /// Rows in the table.
    pub rows: u64,
    /// Rows per page (the paper's RPP knob).
    pub rows_per_page: u32,
    /// Data/determinism seed.
    pub seed: u64,
}

impl Default for DbConfig {
    fn default() -> DbConfig {
        DbConfig {
            storage: StorageKind::Ssd,
            buffer_mb: 16,
            rows: 50_000,
            rows_per_page: 33,
            seed: 42,
        }
    }
}

/// Builder for [`Db`]. Obtain one with [`Db::builder`]; every setter has a
/// default ([`StorageKind::Ssd`], 16 MB pool, 50 000 rows, 33 rows/page,
/// seed 42), so `Db::builder().build()` already yields a working database.
#[derive(Debug, Clone)]
#[must_use = "the builder does nothing until .build() is called"]
pub struct DbBuilder {
    cfg: DbConfig,
}

impl DbBuilder {
    /// Backing device kind.
    pub fn storage(mut self, storage: StorageKind) -> DbBuilder {
        self.cfg.storage = storage;
        self
    }

    /// Buffer pool size in MB (floored at 64 frames).
    pub fn buffer_mb(mut self, mb: u64) -> DbBuilder {
        self.cfg.buffer_mb = mb;
        self
    }

    /// Rows in the generated table.
    pub fn rows(mut self, rows: u64) -> DbBuilder {
        self.cfg.rows = rows;
        self
    }

    /// Rows per page (the paper's RPP knob).
    pub fn rows_per_page(mut self, rpp: u32) -> DbBuilder {
        self.cfg.rows_per_page = rpp;
        self
    }

    /// Data/determinism seed: fixes table contents, device jitter, and
    /// calibration sampling.
    pub fn seed(mut self, seed: u64) -> DbBuilder {
        self.cfg.seed = seed;
        self
    }

    /// Materialize the database: generate the table and its `C2` index and
    /// lay them out on a fresh device sized ~2× the data.
    pub fn build(self) -> Db {
        Db::from_config(self.cfg)
    }
}

/// Result of one query: the answer, the plan that produced it, and the
/// execution metrics.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// `MAX(C1)` over the qualifying rows (`None` if none qualify).
    pub value: Option<u32>,
    /// The plan the optimizer chose.
    pub plan: Plan,
    /// Human-readable plan ("PIS32", "FTS", ...).
    pub plan_name: String,
    /// Execution metrics (virtual runtime, I/O profile, pool counters).
    pub metrics: ScanMetrics,
}

/// Result of a concurrent workload: the engine's report plus the admission
/// journal (one entry per query, recording the lease depth and the plan
/// re-costed under it).
#[derive(Debug, Clone)]
pub struct WorkloadOutput {
    /// Per-query records, per-session summaries, histograms, I/O profile.
    pub report: WorkloadReport,
    /// The QDTT admission journal, in admission order.
    pub admissions: Vec<AdmissionDecision>,
    /// Queue-depth lease granted at each shared-scan cursor start (empty
    /// when the spec did not enable shared scans). One entry per cursor,
    /// no matter how many consumers attached to it.
    pub cursor_leases: Vec<u32>,
}

/// An open session: holds a share of the database's queue-depth budget
/// for as long as it lives, so concurrently open sessions plan their
/// queries with proportionally lower depths (§4.3's future work).
///
/// Dropping the session releases its share.
pub struct Session {
    budget: Rc<RefCell<QdBudget>>,
    holder: Holder,
    depth: u32,
}

impl Session {
    /// The queue depth this session's queries may assume.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Plan `SELECT MAX(C1) WHERE C2 BETWEEN low AND high` under this
    /// session's queue-depth lease, without executing it.
    pub fn explain_max_between(&self, db: &Db, low: u32, high: u32) -> (Plan, String) {
        db.explain_capped(low, high, self.depth())
    }

    /// Plan *and execute* the query under this session's lease.
    pub fn query_max_between(
        &self,
        db: &mut Db,
        low: u32,
        high: u32,
    ) -> Result<QueryOutput, ExecError> {
        db.query_capped(low, high, self.depth())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.budget.borrow_mut().release(self.holder);
    }
}

/// An embedded single-table database over simulated storage.
pub struct Db {
    cfg: DbConfig,
    device: Box<dyn DeviceModel>,
    pool: BufferPool,
    table: HeapTable,
    index: BTreeIndex,
    model: Option<Qdtt>,
    opt_cfg: OptimizerConfig,
    budget: Option<Rc<RefCell<QdBudget>>>,
    /// Holder id of the next session opened on this database.
    next_session: u32,
}

impl Db {
    /// Start building a database. See [`DbBuilder`] for the defaults.
    pub fn builder() -> DbBuilder {
        DbBuilder {
            cfg: DbConfig::default(),
        }
    }

    fn from_config(cfg: DbConfig) -> Db {
        let spec = TableSpec::paper_table(cfg.rows_per_page, cfg.rows, cfg.seed);
        let est_index = cfg.rows.div_ceil(300) + 64;
        let capacity = (spec.n_pages() + est_index) * 2 + 4096;
        let mut ts = Tablespace::new(capacity);
        let table = HeapTable::create(spec, &mut ts).expect("device sized to fit");
        let index = BTreeIndex::build(
            "c2_idx",
            table.data().c2_entries(),
            table.spec().page_size,
            &mut ts,
        )
        .expect("device sized to fit");
        let device: Box<dyn DeviceModel> = match cfg.storage {
            StorageKind::Hdd => Box::new(presets::hdd_7200(capacity, cfg.seed ^ 0xD)),
            StorageKind::Ssd => Box::new(presets::consumer_pcie_ssd(capacity, cfg.seed ^ 0xE)),
            StorageKind::Raid8 => Box::new(presets::raid_15k(8, capacity, cfg.seed ^ 0xF)),
        };
        let frames = ((cfg.buffer_mb << 20) / 4096).max(64) as usize;
        Db {
            pool: BufferPool::new(frames),
            device,
            table,
            index,
            model: None,
            opt_cfg: OptimizerConfig::default(),
            budget: None,
            next_session: 0,
            cfg,
        }
    }

    /// Calibrate the device into a QDTT model (must run before queries can
    /// be optimized; §4.1's "calibrated on the customer's hardware").
    pub fn calibrate(&mut self) -> &Qdtt {
        let cal = Calibrator::new(CalibrationConfig::for_device(
            self.device.capacity_pages(),
            self.cfg.seed ^ 0xCA11,
        ));
        let (qdtt, _) = cal.calibrate_qdtt(&mut *self.device);
        self.model = Some(qdtt);
        // The queue-depth budget follows the model; sessions opened before
        // recalibration keep (and correctly release) their old shares.
        self.budget = None;
        self.model
            .as_ref()
            .expect("calibrated model was stored on the line above")
    }

    /// Use an externally calibrated / persisted model instead.
    pub fn set_model(&mut self, model: Qdtt) {
        self.model = Some(model);
        self.budget = None;
    }

    /// Tune the optimizer (degrees considered, sorted-IS, prefetch-aware
    /// costing, queue-depth cap for concurrency budgeting).
    pub fn set_optimizer_config(&mut self, cfg: OptimizerConfig) {
        self.opt_cfg = cfg;
    }

    /// Current catalog statistics, including live cached-page counts.
    pub fn stats(&self) -> TableStats {
        TableStats::gather(&self.table, &self.index, &self.pool)
    }

    /// Open a session: takes a share of the queue-depth budget (the
    /// calibrated device's beneficial depth split across open sessions).
    /// Queries run through the session are planned under its share;
    /// dropping the session releases it.
    pub fn session(&mut self) -> Session {
        let budget = self.ensure_budget();
        let holder = Holder::Session(self.next_session);
        self.next_session = self.next_session.wrapping_add(1);
        let depth = budget.borrow_mut().grant(holder);
        Session {
            budget,
            holder,
            depth,
        }
    }

    fn ensure_budget(&mut self) -> Rc<RefCell<QdBudget>> {
        if self.budget.is_none() {
            let budget = match &self.model {
                Some(m) => QdBudget::from_model(m),
                None => QdBudget::new(self.opt_cfg.max_queue_depth),
            };
            self.budget = Some(Rc::new(RefCell::new(budget)));
        }
        self.budget
            .clone()
            .expect("budget was stored on the line above")
    }

    /// Start a fluent query over the table: chain [`QueryBuilder::filter`]
    /// and [`QueryBuilder::project`], then finish with
    /// [`QueryBuilder::max`] or [`QueryBuilder::count`]. The sarg of the
    /// predicate tree drives the optimizer's selectivity estimate, so the
    /// plan is still chosen by the calibrated cost model.
    ///
    /// ```
    /// use pioqo::db::Db;
    /// use pioqo::exec::{Col, Predicate};
    ///
    /// let mut db = Db::builder().rows(20_000).seed(7).build();
    /// db.calibrate();
    /// let out = db
    ///     .query()
    ///     .filter(Predicate::c2_between(0, 1 << 30))
    ///     .project(vec![Col::C1])
    ///     .max(Col::C1)
    ///     .expect("query runs");
    /// assert_eq!(out.value, db.oracle_max_between(0, 1 << 30));
    /// ```
    pub fn query(&mut self) -> QueryBuilder<'_> {
        QueryBuilder {
            db: self,
            predicate: Predicate::True,
            projection: Projection::All,
        }
    }

    /// Plan `SELECT MAX(C1) WHERE C2 BETWEEN low AND high` without
    /// executing it. Uses the QDTT model if calibrated, else a pessimistic
    /// DTT-at-depth-1 fallback.
    pub fn explain_max_between(&self, low: u32, high: u32) -> (Plan, String) {
        self.explain_capped(low, high, self.opt_cfg.max_queue_depth)
    }

    fn explain_capped(&self, low: u32, high: u32, depth_cap: u32) -> (Plan, String) {
        let sel = selectivity_of_range(low, high, self.table.spec().c2_max);
        let stats = self.stats();
        let mut cfg = self.opt_cfg.clone();
        cfg.max_queue_depth = cfg.max_queue_depth.min(depth_cap.max(1));
        let plan = match &self.model {
            Some(m) => {
                let model = QdttCost(m.clone());
                Optimizer::new(&model, cfg).choose(&stats, sel)
            }
            None => {
                // Uncalibrated: a flat, queue-depth-blind guess.
                let model = DttCost(pioqo_core::Dtt::new(vec![
                    (1, 100.0),
                    (self.device.capacity_pages(), 10_000.0),
                ]));
                Optimizer::new(&model, cfg).choose(&stats, sel)
            }
        };
        let name = plan.label();
        (plan, name)
    }

    /// Plan *and execute* the query against the live device and pool
    /// (the pool stays warm across queries, like a real server).
    pub fn query_max_between(&mut self, low: u32, high: u32) -> Result<QueryOutput, ExecError> {
        self.query_capped(low, high, self.opt_cfg.max_queue_depth)
    }

    fn query_capped(
        &mut self,
        low: u32,
        high: u32,
        depth_cap: u32,
    ) -> Result<QueryOutput, ExecError> {
        let (plan, plan_name) = self.explain_capped(low, high, depth_cap);
        let mut cfg = self.opt_cfg.clone();
        cfg.max_queue_depth = cfg.max_queue_depth.min(depth_cap.max(1));
        let spec = plan_to_spec(&plan, &cfg);
        let metrics = self.run_spec(&spec, low, high)?;
        Ok(QueryOutput {
            value: metrics.max_c1,
            plan,
            plan_name,
            metrics,
        })
    }

    /// Execute an explicit [`PlanSpec`] against the live device and pool,
    /// bypassing the optimizer (for experiments and plan forcing).
    pub fn run_spec(
        &mut self,
        spec: &PlanSpec,
        low: u32,
        high: u32,
    ) -> Result<ScanMetrics, ExecError> {
        let mut ctx = SimContext::new(
            &mut *self.device,
            &mut self.pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let q =
            QuerySpec::range_max(&self.table, Some(&self.index), low, high).with_plan(spec.clone());
        execute(&mut ctx, &q)
    }

    /// Run a concurrent closed-loop workload on the shared event loop: N
    /// sessions of range-MAX queries with think times, each query admitted
    /// through QDTT-aware admission control (a queue-depth lease from the
    /// device's beneficial depth, plan re-costed under the lease).
    ///
    /// Auto-calibrates first if no model is set. The buffer pool stays
    /// warm across the workload and into subsequent queries.
    pub fn run_workload(&mut self, spec: WorkloadSpec) -> Result<WorkloadOutput, ExecError> {
        if self.model.is_none() {
            self.calibrate();
        }
        let model = self.model.clone().expect("calibrated on the lines above");
        let mut planner = QdttAdmission::new(&self.table, &self.index, model, self.opt_cfg.clone());
        let base = QuerySpec::range_max(&self.table, Some(&self.index), 0, 0);
        let mut ctx = SimContext::new(
            &mut *self.device,
            &mut self.pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let report = MultiEngine::new(spec, base, &mut planner).run(&mut ctx)?;
        drop(ctx);
        let cursor_leases = planner.cursor_leases().to_vec();
        Ok(WorkloadOutput {
            report,
            admissions: planner.into_decisions(),
            cursor_leases,
        })
    }

    /// Ground truth for `MAX(C1) WHERE C2 BETWEEN low AND high`.
    pub fn oracle_max_between(&self, low: u32, high: u32) -> Option<u32> {
        self.table.data().naive_max_c1(low, high)
    }

    /// Drop every cached page (the paper's cold-start protocol).
    pub fn flush_pool(&mut self) {
        self.pool.flush_all();
    }

    /// The table (for statistics/inspection).
    pub fn table(&self) -> &HeapTable {
        &self.table
    }

    /// The index (for statistics/inspection).
    pub fn index(&self) -> &BTreeIndex {
        &self.index
    }

    /// The calibrated model, if any.
    pub fn model(&self) -> Option<&Qdtt> {
        self.model.as_ref()
    }
}

/// A fluent single-query builder over the database's table, obtained from
/// [`Db::query`]. Filters AND together; the projection defaults to all
/// columns; the finisher picks the aggregate and runs the query through
/// the cost-based optimizer on the live device and (warm) pool.
#[must_use = "the builder does nothing until .max()/.count() is called"]
pub struct QueryBuilder<'d> {
    db: &'d mut Db,
    predicate: Predicate,
    projection: Projection,
}

impl<'d> QueryBuilder<'d> {
    /// AND `pred` onto the query's predicate tree.
    pub fn filter(mut self, pred: Predicate) -> QueryBuilder<'d> {
        self.predicate = match self.predicate {
            Predicate::True => pred,
            Predicate::And(mut ps) => {
                ps.push(pred);
                Predicate::And(ps)
            }
            p => Predicate::And(vec![p, pred]),
        };
        self
    }

    /// Project only `cols` (affects the result fingerprint; the aggregate
    /// is computed regardless).
    pub fn project(mut self, cols: Vec<Col>) -> QueryBuilder<'d> {
        self.projection = Projection::Cols(cols);
        self
    }

    /// Run `SELECT MAX(col)` over the qualifying rows.
    pub fn max(self, col: Col) -> Result<QueryOutput, ExecError> {
        self.run(Aggregate::Max(col))
    }

    /// Run `SELECT COUNT(*)` over the qualifying rows: the row count comes
    /// back in `metrics.rows_matched` (and `value` is `None`).
    pub fn count(self) -> Result<QueryOutput, ExecError> {
        self.run(Aggregate::Count)
    }

    fn run(self, aggregate: Aggregate) -> Result<QueryOutput, ExecError> {
        let QueryBuilder {
            db,
            predicate,
            projection,
        } = self;
        // The optimizer sees the predicate through its C2 sarg: residual
        // (non-sargable) terms narrow the answer but not the page set, so
        // costing on the sarg window is exactly right for these operators.
        let (low, high) = predicate.sarg();
        let (plan, plan_name) = db.explain_capped(low, high, db.opt_cfg.max_queue_depth);
        let spec = plan_to_spec(&plan, &db.opt_cfg);
        let mut q = QuerySpec::scan(&db.table)
            .with_index(&db.index)
            .with_plan(spec)
            .aggregate(aggregate);
        q.predicate = predicate;
        q.projection = projection;
        let mut ctx = SimContext::new(
            &mut *db.device,
            &mut db.pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let metrics = execute(&mut ctx, &q)?;
        Ok(QueryOutput {
            value: metrics.max_c1,
            plan,
            plan_name,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioqo_exec::ThinkTime;
    use pioqo_optimizer::AccessMethod;
    use pioqo_simkit::SimDuration;
    use pioqo_storage::range_for_selectivity;

    fn small_db(storage: StorageKind) -> Db {
        Db::builder()
            .storage(storage)
            .buffer_mb(8)
            .rows(30_000)
            .rows_per_page(33)
            .seed(77)
            .build()
    }

    #[test]
    fn query_matches_oracle_calibrated_or_not() {
        let mut db = small_db(StorageKind::Ssd);
        let (lo, hi) = range_for_selectivity(0.05, u32::MAX - 1);
        // Uncalibrated: falls back to the pessimistic DTT and still answers.
        let out = db.query_max_between(lo, hi).expect("runs");
        assert_eq!(out.value, db.oracle_max_between(lo, hi));
        // Calibrated: same answer, possibly different plan.
        db.calibrate();
        db.flush_pool();
        let out2 = db.query_max_between(lo, hi).expect("runs");
        assert_eq!(out2.value, out.value);
    }

    #[test]
    fn calibrated_ssd_db_parallelizes_large_low_selectivity_scans() {
        let mut db = Db::builder()
            .storage(StorageKind::Ssd)
            .buffer_mb(8)
            .rows(400_000)
            .seed(3)
            .build();
        db.calibrate();
        let (lo, hi) = range_for_selectivity(0.002, u32::MAX - 1);
        let (plan, name) = db.explain_max_between(lo, hi);
        assert_eq!(plan.method, AccessMethod::IndexScan);
        assert!(plan.degree > 1, "calibrated SSD should go parallel: {name}");
    }

    #[test]
    fn calibrate_is_the_one_calibration_recipe() {
        // `Db::calibrate` gives the surface every other path gives for its
        // device and seed: the paper defaults, one walk, one fresh device.
        for storage in [StorageKind::Hdd, StorageKind::Ssd] {
            let build = || Db::builder().storage(storage).rows(20_000).seed(9).build();
            let mut twin = build();
            let cal = Calibrator::new(CalibrationConfig::for_device(
                twin.device.capacity_pages(),
                9 ^ 0xCA11,
            ));
            let (expected, _) = cal.calibrate_qdtt(&mut *twin.device);
            assert_eq!(build().calibrate(), &expected);
        }
    }

    #[test]
    fn hdd_db_stays_serial() {
        let mut db = Db::builder()
            .storage(StorageKind::Hdd)
            .buffer_mb(8)
            .rows(400_000)
            .seed(3)
            .build();
        db.calibrate();
        let (lo, hi) = range_for_selectivity(0.002, u32::MAX - 1);
        let (plan, _) = db.explain_max_between(lo, hi);
        assert_eq!(plan.degree, 1, "single spindle gains nothing from depth");
    }

    #[test]
    fn warm_pool_changes_the_costing() {
        let mut db = small_db(StorageKind::Ssd);
        db.calibrate();
        let (lo, hi) = range_for_selectivity(0.9, u32::MAX - 1);
        let (cold_plan, _) = db.explain_max_between(lo, hi);
        db.query_max_between(lo, hi).expect("runs");
        // Much of the table is now cached; estimated I/O must drop.
        let (warm_plan, _) = db.explain_max_between(lo, hi);
        assert!(warm_plan.est_io_us < cold_plan.est_io_us);
    }

    #[test]
    fn persisted_model_round_trips_through_set_model() {
        let mut db = small_db(StorageKind::Ssd);
        let model = db.calibrate().clone();
        let mut db2 = small_db(StorageKind::Ssd);
        db2.set_model(model);
        let (lo, hi) = range_for_selectivity(0.01, u32::MAX - 1);
        let (p1, _) = db.explain_max_between(lo, hi);
        let (p2, _) = db2.explain_max_between(lo, hi);
        assert_eq!(p1.method, p2.method);
        assert_eq!(p1.degree, p2.degree);
    }

    #[test]
    fn empty_range_returns_none() {
        let mut db = small_db(StorageKind::Ssd);
        db.calibrate();
        let out = db.query_max_between(10, 9).expect("runs");
        assert_eq!(out.value, None);
        assert_eq!(out.metrics.rows_matched, 0);
    }

    #[test]
    fn query_builder_matches_range_max_and_oracle() {
        let mut db = small_db(StorageKind::Ssd);
        db.calibrate();
        let (lo, hi) = range_for_selectivity(0.05, u32::MAX - 1);
        let out = db
            .query()
            .filter(Predicate::c2_between(lo, hi))
            .max(Col::C1)
            .expect("runs");
        assert_eq!(out.value, db.oracle_max_between(lo, hi));
        db.flush_pool();
        let cnt = db
            .query()
            .filter(Predicate::c2_between(lo, hi))
            .count()
            .expect("runs");
        assert_eq!(cnt.value, None, "COUNT has no MAX payload");
        assert_eq!(cnt.metrics.rows_matched, out.metrics.rows_matched);
    }

    #[test]
    fn query_builder_handles_residual_predicates() {
        use pioqo_exec::{oracle, CmpOp};
        let mut db = small_db(StorageKind::Ssd);
        db.calibrate();
        let pred = Predicate::And(vec![
            Predicate::c2_between(0, u32::MAX / 2),
            Predicate::Cmp {
                col: Col::C1,
                op: CmpOp::Ge,
                value: 1 << 20,
            },
        ]);
        let out = db
            .query()
            .filter(pred.clone())
            .project(vec![Col::C1])
            .max(Col::C1)
            .expect("runs");
        let acc = oracle(&QuerySpec::scan(db.table()).filter(pred));
        assert_eq!(out.value, acc.agg);
        assert_eq!(out.metrics.rows_matched, acc.matched);
    }

    #[test]
    fn sessions_split_the_queue_depth_budget() {
        let mut db = small_db(StorageKind::Ssd);
        db.calibrate();
        db.set_optimizer_config(OptimizerConfig::fine_grained());
        let s1 = db.session();
        let d1 = s1.depth();
        assert!(d1 >= 1);
        let s2 = db.session();
        assert!(
            s2.depth() <= d1.div_ceil(2).max(1),
            "second open session must get at most half the budget: {} vs {}",
            s2.depth(),
            d1
        );
        // Both sessions still answer correctly under their leases.
        let (lo, hi) = range_for_selectivity(0.01, u32::MAX - 1);
        let out = s2.query_max_between(&mut db, lo, hi).expect("runs");
        assert_eq!(out.value, db.oracle_max_between(lo, hi));
        assert!(out.plan.queue_depth <= s2.depth().max(1));
        // Dropping both returns the full budget to the next session.
        drop(s1);
        drop(s2);
        let s3 = db.session();
        assert_eq!(s3.depth(), d1);
    }

    #[test]
    fn workload_runs_and_journals_admissions() {
        let mut db = small_db(StorageKind::Ssd);
        db.set_optimizer_config(OptimizerConfig::fine_grained());
        let spec = WorkloadSpec {
            sessions: 3,
            queries_per_session: 2,
            think: ThinkTime::Fixed(SimDuration::from_micros(500)),
            ..WorkloadSpec::default()
        };
        let out = db.run_workload(spec).expect("workload runs");
        assert_eq!(out.report.total_completed(), 6);
        assert_eq!(out.admissions.len(), 6);
        assert!(db.model().is_some(), "run_workload auto-calibrates");
        // Every journaled plan label matches a record's.
        for adm in &out.admissions {
            assert!(
                out.report.records.iter().any(|r| r.plan == adm.plan
                    && r.session == adm.session
                    && r.query_index == adm.query_index),
                "admission {adm:?} has no matching record"
            );
        }
    }
}
