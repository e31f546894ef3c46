//! Scan-vs-checkpoint interference: what background writeback does to
//! scan tail latency.
//!
//! The ROADMAP asks for the mixed read/write scenario the paper leaves
//! open: a write workload (WAL group commit + background flusher) sharing
//! the device with N closed-loop scan sessions under QDTT-aware
//! admission. Each [`InterferenceCell`] is one (session count, flusher
//! on/off) point on the same SSD fixture: identical dataset, identical
//! calibrated model, identical scan schedule seed — the only difference
//! is whether the write system is running. Comparing the scan latency
//! p99 across the pair isolates the cost of checkpoint I/O contending in
//! the device queue *and* of the flusher's background queue-depth lease
//! shrinking every admission (`QdttAdmission::background_acquire`).
//!
//! The write table and its WAL live in the dataset's slack pages (the
//! capacity headroom `Dataset::build` reserves past the index), so scans
//! and checkpoints really do share one device with disjoint extents.

use crate::concurrent::{run_cell, ConcurrencyConfig};
use crate::experiments::{DeviceKind, Experiment};
use crate::opteval::calibrate;
use crate::CsvRow;
use pioqo_device::MediaStore;
use pioqo_exec::{ExecError, WorkloadReport, WriteConfig, WriteSystem};
use pioqo_optimizer::OptimizerConfig;
use pioqo_storage::{Extent, HeapTable, TableSpec, Tablespace};
use serde::{Deserialize, Serialize};

/// One (session count, flusher on/off) point of the interference sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterferenceCell {
    /// Concurrent scan sessions.
    pub sessions: u32,
    /// Whether the write system (WAL + background flusher) was running.
    pub flusher: bool,
    /// Queries completed across all sessions.
    pub completed: u64,
    /// First admission to last completion, milliseconds of virtual time.
    pub makespan_ms: f64,
    /// Mean scan latency, µs.
    pub mean_latency_us: f64,
    /// 99th-percentile scan latency bucket, µs.
    pub p99_latency_us: u64,
    /// Commits acknowledged by the write system (0 with the flusher off).
    pub commits_acked: u64,
    /// Dirty data pages written back (0 with the flusher off).
    pub data_page_flushes: u64,
    /// Checkpoint records logged (0 with the flusher off).
    pub checkpoints: u64,
}

impl InterferenceCell {
    fn from_report(sessions: u32, flusher: bool, report: &WorkloadReport) -> InterferenceCell {
        let w = report.writes.as_ref();
        InterferenceCell {
            sessions,
            flusher,
            completed: report.total_completed(),
            makespan_ms: report.makespan.as_micros_f64() / 1_000.0,
            mean_latency_us: report.query_latency_us.mean(),
            p99_latency_us: report.query_latency_us.quantile_lo(99, 100),
            commits_acked: w.map_or(0, |s| s.commits_acked),
            data_page_flushes: w.map_or(0, |s| s.data_page_flushes),
            checkpoints: w.map_or(0, |s| s.checkpoints),
        }
    }
}

impl CsvRow for InterferenceCell {
    fn csv_header() -> &'static str {
        "sessions,flusher,completed,makespan_ms,mean_latency_us,p99_latency_us,\
         commits_acked,data_page_flushes,checkpoints"
    }

    fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.3},{:.1},{},{},{},{}",
            self.sessions,
            if self.flusher { "on" } else { "off" },
            self.completed,
            self.makespan_ms,
            self.mean_latency_us,
            self.p99_latency_us,
            self.commits_acked,
            self.data_page_flushes,
            self.checkpoints,
        )
    }
}

/// The write-side fixture: a heap table plus WAL extent carved out of the
/// dataset's slack pages so both workloads share one device.
pub(crate) struct WriteSide {
    table: HeapTable,
    wal: Extent,
}

impl WriteSide {
    /// A write system over this fixture, starting from empty media.
    pub(crate) fn system(&self, cfg: WriteConfig) -> WriteSystem {
        WriteSystem::new(
            cfg,
            &self.table,
            self.wal,
            MediaStore::new(self.table.spec().page_size),
        )
    }
}

pub(crate) fn write_side(exp: &Experiment, write_rows: u64, seed: u64) -> WriteSide {
    let used = exp.dataset.index().extent().end();
    let mut ts = Tablespace::new(exp.dataset.device_capacity());
    ts.alloc("scan-data", used)
        .expect("mirror of the dataset layout fits by construction");
    let spec = TableSpec {
        name: format!("W{}", exp.cfg.rows_per_page),
        ..TableSpec::paper_table(exp.cfg.rows_per_page, write_rows, seed)
    };
    let table = HeapTable::create(spec, &mut ts).expect("write table fits in the dataset slack");
    let wal = ts
        .alloc("wal", 2_048)
        .expect("WAL fits in the dataset slack");
    WriteSide { table, wal }
}

/// Sweep scan sessions × {flusher off, on} on the SSD fixture. Cells come
/// back in sweep order: for each session count, the flusher-off point
/// first, then flusher-on. Fully deterministic in `cfg.seed`.
pub fn interference_sweep(
    cfg: &ConcurrencyConfig,
    writes: &WriteConfig,
    write_rows: u64,
    opt_cfg: &OptimizerConfig,
) -> Result<Vec<InterferenceCell>, ExecError> {
    let exp = Experiment::build(cfg.experiment(DeviceKind::Ssd));
    let model = calibrate(&exp).qdtt;
    let side = write_side(&exp, write_rows, cfg.seed ^ 0x57AB);
    let mut cells = Vec::new();
    for &sessions in &cfg.session_counts {
        for flusher in [false, true] {
            let mut ws = flusher.then(|| side.system(writes.clone()));
            let (mut dev, mut pool) = (exp.make_device(), exp.make_pool());
            let mut ctx = Experiment::context(&mut *dev, &mut pool);
            let spec = cfg.workload(sessions);
            let (report, _) = run_cell(&exp, &model, opt_cfg, spec, ws.as_mut(), &mut ctx)?;
            cells.push(InterferenceCell::from_report(sessions, flusher, &report));
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioqo_simkit::SimDuration;

    fn tiny() -> ConcurrencyConfig {
        ConcurrencyConfig {
            rows: 8_000,
            session_counts: vec![1, 4],
            queries_per_session: 2,
            selectivities: vec![0.01],
            ..ConcurrencyConfig::default()
        }
    }

    fn busy_writes() -> WriteConfig {
        WriteConfig {
            writers: 4,
            commits_per_writer: 16,
            think: SimDuration::from_micros_f64(300.0),
            group_commit: SimDuration::from_micros_f64(150.0),
            flush_interval: SimDuration::from_micros_f64(500.0),
            flush_batch: 8,
            seed: 7,
            ..WriteConfig::default()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_pairs_differ_only_by_flusher() {
        let cfg = tiny();
        let opt = OptimizerConfig::fine_grained();
        let a = interference_sweep(&cfg, &busy_writes(), 2_000, &opt).expect("sweep");
        let b = interference_sweep(&cfg, &busy_writes(), 2_000, &opt).expect("rerun");
        assert_eq!(crate::to_csv(&a), crate::to_csv(&b));
        assert_eq!(a.len(), 4, "2 session counts x flusher off/on");
        for pair in a.chunks(2) {
            let (off, on) = (&pair[0], &pair[1]);
            assert_eq!(off.sessions, on.sessions);
            assert!(!off.flusher && on.flusher);
            // Same scan schedule either way; only the device contention
            // and admission leases may move.
            assert_eq!(off.completed, on.completed);
            assert_eq!(off.commits_acked, 0);
            assert!(on.commits_acked > 0, "write side must make progress");
            assert!(on.data_page_flushes > 0, "flusher must write back pages");
        }
    }
}
