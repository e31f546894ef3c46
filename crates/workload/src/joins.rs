//! The join-crossover grid: INL vs hybrid hash across devices and
//! admission pressure.
//!
//! For each device the grid calibrates a QDTT model once, then sweeps the
//! open-session count. Each cell takes the queue-depth lease a session
//! would hold at that concurrency ([`QdBudget::share_at`]), costs both
//! join methods under the lease with the QDTT surface, and *runs* both
//! lowered plans on a cold device to validate the choice. The interesting
//! output is where the INL↔HHJ crossover sits per device — deep flash
//! lets index-nested-loop win until admission pressure shrinks the lease,
//! spindles prefer the hash join's sequential partitioned I/O almost
//! everywhere.

use crate::experiments::{DeviceKind, Experiment};
use crate::CsvRow;
use pioqo_bufpool::BufferPool;
use pioqo_core::{CalibrationConfig, Calibrator, Qdtt};
use pioqo_exec::{execute, ExecError, JoinClause, Predicate, QuerySpec, ScanMetrics};
use pioqo_optimizer::{
    cheapest, join_plan_to_spec, JoinMethod, JoinPlan, JoinStats, Optimizer, OptimizerConfig,
    QdBudget, QdttCost, TableStats,
};
use pioqo_simkit::par::par_map_threads;
use pioqo_storage::{range_for_selectivity, BTreeIndex, Extent, HeapTable, TableSpec, Tablespace};
use serde::{Deserialize, Serialize};

/// Knobs of the join grid. Defaults keep a full three-device sweep under
/// a few seconds of wall clock while leaving the crossover visible.
#[derive(Debug, Clone)]
pub struct JoinGridConfig {
    /// Data/determinism seed.
    pub seed: u64,
    /// Rows in the outer (probe-side) table.
    pub left_rows: u64,
    /// Rows in the inner (build-side) table.
    pub right_rows: u64,
    /// Rows per page in both tables.
    pub rows_per_page: u32,
    /// Key domain: `C2 ∈ [0, key_max]` on both sides, so the expected
    /// match count per outer row is `right_rows / (key_max + 1)`.
    pub key_max: u32,
    /// Outer-side predicate selectivity.
    pub selectivity: f64,
    /// Open-session counts to sweep (the admission-pressure axis).
    pub session_counts: Vec<u32>,
    /// Buffer pool frames per run.
    pub buffer_frames: usize,
}

impl Default for JoinGridConfig {
    fn default() -> JoinGridConfig {
        JoinGridConfig {
            seed: 42,
            left_rows: 40_000,
            right_rows: 80_000,
            rows_per_page: 33,
            key_max: 9_999,
            selectivity: 0.01,
            session_counts: vec![1, 4, 16],
            buffer_frames: 2_048,
        }
    }
}

/// One (device, sessions) point: estimates for both methods under the
/// lease, the optimizer's pick, and the measured runtimes backing it up.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinCell {
    /// Device label ("HDD", "SSD", "RAID8").
    pub device: String,
    /// Open sessions sharing the queue-depth budget.
    pub sessions: u32,
    /// The per-session queue-depth lease at this concurrency.
    pub lease_depth: u32,
    /// Outer predicate selectivity.
    pub selectivity: f64,
    /// Cheapest INL estimate under the lease, µs.
    pub inl_est_us: f64,
    /// Queue depth of that INL plan.
    pub inl_depth: u32,
    /// Cheapest hybrid-hash estimate under the lease, µs.
    pub hash_est_us: f64,
    /// Partition count of that hash plan.
    pub hash_partitions: u32,
    /// The optimizer's pick ("INL+qd8", "HHJ8", ...).
    pub chosen: String,
    /// Measured INL runtime, µs of virtual time.
    pub inl_run_us: f64,
    /// Measured hybrid-hash runtime, µs of virtual time.
    pub hash_run_us: f64,
    /// Whether the estimated winner also won on the simulated device.
    pub agree: bool,
    /// Whether both operators returned identical (answer, fingerprint).
    pub answers_match: bool,
}

impl CsvRow for JoinCell {
    fn csv_header() -> &'static str {
        "device,sessions,lease_depth,selectivity,inl_est_us,inl_depth,\
         hash_est_us,hash_partitions,chosen,inl_run_us,hash_run_us,agree,answers_match"
    }

    fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{:.1},{},{:.1},{},{},{:.1},{:.1},{},{}",
            self.device,
            self.sessions,
            self.lease_depth,
            self.selectivity,
            self.inl_est_us,
            self.inl_depth,
            self.hash_est_us,
            self.hash_partitions,
            self.chosen,
            self.inl_run_us,
            self.hash_run_us,
            self.agree,
            self.answers_match,
        )
    }
}

/// The two-table join fixture: outer + inner heaps, a `C2` index on each
/// (the inner one probed by INL, the outer one feeding the stats), and a
/// spill extent for the hash join's partitions.
struct JoinFixture {
    left: HeapTable,
    left_index: BTreeIndex,
    right: HeapTable,
    right_index: BTreeIndex,
    spill: Extent,
    capacity: u64,
}

fn build_fixture(cfg: &JoinGridConfig) -> JoinFixture {
    let lspec = TableSpec {
        c2_max: cfg.key_max,
        ..TableSpec::paper_table(cfg.rows_per_page, cfg.left_rows, cfg.seed ^ 0x10)
    };
    let rspec = TableSpec {
        name: "T_inner".to_string(),
        c2_max: cfg.key_max,
        ..TableSpec::paper_table(cfg.rows_per_page, cfg.right_rows, cfg.seed ^ 0x20)
    };
    let mut ts = Tablespace::new(5 * (lspec.n_pages() + rspec.n_pages()) + 4_000);
    let left = HeapTable::create(lspec, &mut ts).expect("tablespace sized to fit");
    let right = HeapTable::create(rspec, &mut ts).expect("tablespace sized to fit");
    let left_index = BTreeIndex::build(
        "outer_c2",
        left.data().c2_entries(),
        left.spec().page_size,
        &mut ts,
    )
    .expect("tablespace sized to fit");
    let right_index = BTreeIndex::build(
        "inner_c2",
        right.data().c2_entries(),
        right.spec().page_size,
        &mut ts,
    )
    .expect("tablespace sized to fit");
    let spill = ts
        .alloc("join_spill", 2 * (left.n_pages() + right.n_pages()) + 64)
        .expect("tablespace sized to fit");
    let capacity = ts.capacity();
    JoinFixture {
        left,
        left_index,
        right,
        right_index,
        spill,
        capacity,
    }
}

/// Execute one join method on a cold device and flushed pool.
fn run_join(
    fx: &JoinFixture,
    kind: DeviceKind,
    cfg: &JoinGridConfig,
    plan: pioqo_exec::PlanSpec,
    low: u32,
    high: u32,
) -> Result<ScanMetrics, ExecError> {
    let mut device = kind.make(fx.capacity, cfg.seed);
    let mut pool = BufferPool::new(cfg.buffer_frames);
    let mut ctx = Experiment::context(&mut *device, &mut pool);
    let q = QuerySpec::scan(&fx.left)
        .filter(Predicate::c2_between(low, high))
        .with_plan(plan)
        .join(JoinClause {
            right: &fx.right,
            right_index: Some(&fx.right_index),
            spill: Some(fx.spill),
        });
    execute(&mut ctx, &q)
}

/// Sweep devices × session counts. Per device: calibrate once, then for
/// each session count cost both joins under the [`QdBudget::share_at`]
/// lease, pick, and run both plans cold. Byte-identical output at any
/// `threads` count.
pub fn join_grid(
    devices: &[DeviceKind],
    cfg: &JoinGridConfig,
    threads: usize,
) -> Result<Vec<JoinCell>, ExecError> {
    let fx = build_fixture(cfg);
    // One calibration per device, serially; the cells fan out below.
    let models: Vec<(DeviceKind, Qdtt)> = devices
        .iter()
        .map(|&kind| {
            let cal = Calibrator::new(CalibrationConfig::for_device(
                fx.capacity,
                cfg.seed ^ 0xCA11,
            ));
            let (qdtt, _) = cal.calibrate_qdtt(&mut *kind.make(fx.capacity, cfg.seed));
            (kind, qdtt)
        })
        .collect();
    let cells: Vec<(usize, u32)> = (0..models.len())
        .flat_map(|d| cfg.session_counts.iter().map(move |&s| (d, s)))
        .collect();
    let results = par_map_threads(threads, &cells, |&(d, sessions)| {
        let (kind, model) = &models[d];
        run_grid_cell(&fx, *kind, model, cfg, sessions)
    });
    results.into_iter().collect()
}

fn run_grid_cell(
    fx: &JoinFixture,
    kind: DeviceKind,
    model: &Qdtt,
    cfg: &JoinGridConfig,
    sessions: u32,
) -> Result<JoinCell, ExecError> {
    let lease_depth = QdBudget::from_model(model).share_at(sessions).max(1);
    let pool = BufferPool::new(cfg.buffer_frames);
    let left = TableStats::gather(&fx.left, &fx.left_index, &pool);
    let right = TableStats::gather(&fx.right, &fx.right_index, &pool);
    let js = JoinStats {
        left: &left,
        right: &right,
        key_cardinality: u64::from(cfg.key_max) + 1,
    };
    let cost_model = QdttCost(model.clone());
    let opt_cfg = OptimizerConfig {
        max_queue_depth: lease_depth,
        ..OptimizerConfig::default()
    };
    // One enumeration: the pick and both per-method bests come out of it.
    let plans = Optimizer::new(&cost_model, opt_cfg).enumerate_joins(&js, cfg.selectivity);
    let total = |p: &&JoinPlan| p.est_total_us;
    let best = |method| cheapest(plans.iter().filter(|p| p.method == method), total);
    let (Some(inl), Some(hash)) = (
        best(JoinMethod::IndexNestedLoop),
        best(JoinMethod::HybridHash),
    ) else {
        return Err(ExecError::Internal {
            detail: "join enumeration produced no INL or no hash plan",
        });
    };
    let chosen = cheapest(&plans, total).expect("the list holds an INL plan");

    let (low, high) = range_for_selectivity(cfg.selectivity, cfg.key_max);
    let inl_run = run_join(fx, kind, cfg, join_plan_to_spec(inl), low, high)?;
    let hash_run = run_join(fx, kind, cfg, join_plan_to_spec(hash), low, high)?;

    let est_winner = chosen.method;
    let measured_winner = if inl_run.runtime <= hash_run.runtime {
        JoinMethod::IndexNestedLoop
    } else {
        JoinMethod::HybridHash
    };
    Ok(JoinCell {
        device: kind.to_string(),
        sessions,
        lease_depth,
        selectivity: cfg.selectivity,
        inl_est_us: inl.est_total_us,
        inl_depth: inl.queue_depth,
        hash_est_us: hash.est_total_us,
        hash_partitions: hash.partitions,
        chosen: chosen.label(),
        inl_run_us: inl_run.runtime.as_micros_f64(),
        hash_run_us: hash_run.runtime.as_micros_f64(),
        agree: est_winner == measured_winner,
        answers_match: inl_run.max_c1 == hash_run.max_c1
            && inl_run.rows_matched == hash_run.rows_matched
            && inl_run.fingerprint == hash_run.fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> JoinGridConfig {
        JoinGridConfig {
            left_rows: 8_000,
            right_rows: 4_000,
            key_max: 1_999,
            session_counts: vec![1, 16],
            ..JoinGridConfig::default()
        }
    }

    #[test]
    fn grid_cells_validate_and_are_thread_count_invariant() {
        let cfg = quick_cfg();
        let devices = [DeviceKind::Ssd, DeviceKind::Hdd];
        let a = join_grid(&devices, &cfg, 1).expect("grid runs");
        let b = join_grid(&devices, &cfg, 4).expect("grid runs");
        assert_eq!(a.len(), 4);
        assert_eq!(crate::to_csv(&a), crate::to_csv(&b), "threads leaked in");
        for c in &a {
            assert!(
                c.answers_match,
                "{}/{}: operators disagree",
                c.device, c.sessions
            );
            assert!(c.inl_est_us > 0.0 && c.hash_est_us > 0.0);
            assert!(c.lease_depth >= 1);
        }
    }

    #[test]
    fn deeper_lease_favors_inl_more_than_shallow() {
        // The INL estimate must improve (or hold) as the lease deepens,
        // while the hash estimate barely moves — that differential is the
        // whole crossover story.
        let cfg = quick_cfg();
        let cells = join_grid(&[DeviceKind::Ssd], &cfg, 1).expect("grid runs");
        let deep = &cells[0]; // 1 session
        let shallow = &cells[1]; // 16 sessions
        assert!(deep.lease_depth > shallow.lease_depth);
        assert!(deep.inl_est_us <= shallow.inl_est_us);
    }
}
