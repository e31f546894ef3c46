//! Concurrent multi-session workloads over the experiment fixtures — the
//! §4.3 "multiple queries are running on the system concurrently" study.
//!
//! A *cell* is one (device, session count) point: N closed-loop sessions
//! of range-MAX queries interleaved on one shared event loop, each query
//! admitted through [`QdttAdmission`] so it is re-optimized under its
//! queue-depth lease. [`concurrency_grid`] sweeps sessions ∈ {1, 2, 4, 8,
//! 16} per device — the CSV it feeds shows plan choice and parallel degree
//! shifting as concurrency rises. [`session_export`] renders the canonical
//! 8-session observability bundle (report JSON + per-session Perfetto
//! tracks) that CI schema-checks and the determinism tests byte-compare,
//! from one [`CaptureCell`].
//!
//! Every cell runs on its own fresh device and flushed pool with a model
//! calibrated once per device, and the engine itself is a serial
//! discrete-event loop, so all outputs are byte-identical across runs and
//! across any worker-thread count.

use crate::capture::{observe, CaptureCell, CaptureError, CellKind, Outcome};
use crate::experiments::{DeviceKind, Experiment, ExperimentConfig};
use crate::opteval::calibrate;
use crate::CsvRow;
use pioqo_core::Qdtt;
use pioqo_exec::{
    ExecError, MultiEngine, QuerySpec, SimContext, ThinkTime, WorkloadReport, WorkloadSpec,
    WriteSystem,
};
use pioqo_optimizer::{AdmissionDecision, OptimizerConfig, QdttAdmission};
use pioqo_simkit::par::par_map_threads;
use pioqo_simkit::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of the concurrency grid (and of single cells).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcurrencyConfig {
    /// Rows in the shared table.
    pub rows: u64,
    /// Rows per page.
    pub rows_per_page: u32,
    /// Buffer pool frames shared by all sessions of a cell.
    pub buffer_frames: usize,
    /// Session counts to sweep.
    pub session_counts: Vec<u32>,
    /// Queries each session issues.
    pub queries_per_session: u32,
    /// Per-query selectivities, cycled per session.
    pub selectivities: Vec<f64>,
    /// Mean exponential think time between a session's queries, µs.
    pub think_mean_us: u64,
    /// Master seed (dataset, device jitter, think times).
    pub seed: u64,
}

impl Default for ConcurrencyConfig {
    fn default() -> ConcurrencyConfig {
        ConcurrencyConfig {
            rows: 40_000,
            rows_per_page: 33,
            buffer_frames: 512,
            session_counts: vec![1, 2, 4, 8, 16],
            queries_per_session: 3,
            selectivities: vec![0.001, 0.01, 0.05],
            think_mean_us: 2_000,
            seed: 42,
        }
    }
}

impl ConcurrencyConfig {
    /// The experiment fixture for one device of the grid.
    pub fn experiment(&self, device: DeviceKind) -> ExperimentConfig {
        ExperimentConfig {
            name: format!("C{}-{device}", self.rows_per_page),
            table: format!("T{}", self.rows_per_page),
            rows_per_page: self.rows_per_page,
            rows: self.rows,
            device,
            buffer_frames: self.buffer_frames,
            seed: self.seed,
        }
    }

    /// The workload spec for one cell of the grid.
    pub fn workload(&self, sessions: u32) -> WorkloadSpec {
        WorkloadSpec {
            sessions,
            queries_per_session: self.queries_per_session,
            think: ThinkTime::Exponential {
                mean: SimDuration::from_micros(self.think_mean_us),
            },
            selectivities: self.selectivities.clone(),
            seed: self.seed,
            horizon: None,
            writes: None,
            shared_scans: false,
            record_limit: None,
        }
    }
}

/// Run one session cell on `ctx` — the one runner every grid, sweep and
/// capture shares: `spec`'s closed-loop sessions, each query admitted
/// through [`QdttAdmission`] over the calibrated `model`, with `ws` (when
/// given) sharing the event loop. The caller builds `ctx` (a fresh device
/// and flushed pool from [`Experiment::context`] for a cold cell) and
/// installs whatever observes the run on it. Returns the engine's report
/// and the admission journal.
pub fn run_cell(
    exp: &Experiment,
    model: &Qdtt,
    opt_cfg: &OptimizerConfig,
    spec: WorkloadSpec,
    ws: Option<&mut WriteSystem>,
    ctx: &mut SimContext<'_>,
) -> Result<(WorkloadReport, Vec<AdmissionDecision>), ExecError> {
    let mut planner = QdttAdmission::new(
        exp.dataset.table(),
        exp.dataset.index(),
        model.clone(),
        opt_cfg.clone(),
    );
    let base = QuerySpec::range_max(exp.dataset.table(), Some(exp.dataset.index()), 0, 0);
    let engine = MultiEngine::new(spec, base, &mut planner);
    let report = match ws {
        Some(ws) => engine.run_with_writes(ctx, ws),
        None => engine.run(ctx),
    }?;
    Ok((report, planner.into_decisions()))
}

/// One row of the concurrency grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcurrencyCell {
    /// Device under test ("HDD", "SSD", "RAID8").
    pub device: String,
    /// Concurrent sessions in this cell.
    pub sessions: u32,
    /// Queries completed across all sessions.
    pub completed: u64,
    /// First admission to last completion, milliseconds of virtual time.
    pub makespan_ms: f64,
    /// Mean query latency, µs.
    pub mean_latency_us: f64,
    /// 95th-percentile query latency bucket, µs.
    pub p95_latency_us: u64,
    /// 99th-percentile query latency bucket, µs.
    pub p99_latency_us: u64,
    /// Max/min completed-query ratio across sessions.
    pub fairness: f64,
    /// Mean queue-depth lease granted at admission.
    pub mean_lease_depth: f64,
    /// Smallest lease granted at admission.
    pub min_lease_depth: u32,
    /// Mean chosen parallel degree.
    pub mean_degree: f64,
    /// Largest chosen parallel degree.
    pub max_degree: u32,
    /// How often each plan label was chosen.
    pub plan_counts: BTreeMap<String, u64>,
}

impl ConcurrencyCell {
    /// The most frequently chosen plan label (ties break lexically).
    pub fn dominant_plan(&self) -> String {
        self.plan_counts
            .iter()
            .max_by_key(|(label, n)| (**n, std::cmp::Reverse(label.as_str())))
            .map(|(label, _)| label.clone())
            .unwrap_or_default()
    }

    fn from_run(
        device: DeviceKind,
        sessions: u32,
        report: &WorkloadReport,
        admissions: &[AdmissionDecision],
    ) -> ConcurrencyCell {
        let n = admissions.len().max(1) as f64;
        ConcurrencyCell {
            device: device.to_string(),
            sessions,
            completed: report.total_completed(),
            makespan_ms: report.makespan.as_micros_f64() / 1_000.0,
            mean_latency_us: report.query_latency_us.mean(),
            p95_latency_us: report.p95_latency_us,
            p99_latency_us: report.p99_latency_us,
            fairness: report.fairness_ratio(),
            mean_lease_depth: admissions.iter().map(|a| a.lease_depth as f64).sum::<f64>() / n,
            min_lease_depth: admissions.iter().map(|a| a.lease_depth).min().unwrap_or(0),
            mean_degree: admissions.iter().map(|a| a.degree as f64).sum::<f64>() / n,
            max_degree: admissions.iter().map(|a| a.degree).max().unwrap_or(0),
            plan_counts: report.plan_counts.clone(),
        }
    }
}

impl CsvRow for ConcurrencyCell {
    fn csv_header() -> &'static str {
        "device,sessions,completed,makespan_ms,mean_latency_us,p95_latency_us,\
         p99_latency_us,fairness,mean_lease_depth,min_lease_depth,mean_degree,\
         max_degree,dominant_plan,plans"
    }

    /// Plan counts render as `label:count|label:count`.
    fn csv_row(&self) -> String {
        let plans = self
            .plan_counts
            .iter()
            .map(|(label, n)| format!("{label}:{n}"))
            .collect::<Vec<_>>()
            .join("|");
        format!(
            "{},{},{},{:.3},{:.1},{},{},{:.3},{:.2},{},{:.2},{},{},{}",
            self.device,
            self.sessions,
            self.completed,
            self.makespan_ms,
            self.mean_latency_us,
            self.p95_latency_us,
            self.p99_latency_us,
            self.fairness,
            self.mean_lease_depth,
            self.min_lease_depth,
            self.mean_degree,
            self.max_degree,
            self.dominant_plan(),
            plans,
        )
    }
}

/// Sweep the concurrency grid: for each device, calibrate once, then run
/// every session count on its own fresh device and flushed pool. Cells
/// fan out over `threads` harness workers; the result is byte-identical
/// for any thread count, including 1.
pub fn concurrency_grid(
    devices: &[DeviceKind],
    cfg: &ConcurrencyConfig,
    opt_cfg: &OptimizerConfig,
    threads: usize,
) -> Result<Vec<ConcurrencyCell>, ExecError> {
    // Calibration itself fans out over the global harness pool; run it
    // serially per device so the grid's parallelism is purely per-cell.
    let fixtures: Vec<(DeviceKind, Experiment, Qdtt)> = devices
        .iter()
        .map(|&device| {
            let exp = Experiment::build(cfg.experiment(device));
            let model = calibrate(&exp).qdtt;
            (device, exp, model)
        })
        .collect();
    let cells: Vec<(usize, u32)> = (0..fixtures.len())
        .flat_map(|d| cfg.session_counts.iter().map(move |&s| (d, s)))
        .collect();
    let results = par_map_threads(
        threads,
        cfg.seed ^ 0xC0C0,
        &cells,
        |_rng, &(d, sessions)| {
            let (device, exp, model) = &fixtures[d];
            let (mut dev, mut pool) = (exp.make_device(), exp.make_pool());
            let mut ctx = Experiment::context(&mut *dev, &mut pool);
            let (report, admissions) =
                run_cell(exp, model, opt_cfg, cfg.workload(sessions), None, &mut ctx)?;
            Ok(ConcurrencyCell::from_run(
                *device,
                sessions,
                &report,
                &admissions,
            ))
        },
    );
    results.into_iter().collect()
}

/// The canonical 8-session observability bundle (CI's schema-check target
/// and the determinism tests' byte-identity artifact).
#[derive(Debug, Clone)]
pub struct SessionExport {
    /// The engine's full report.
    pub report: WorkloadReport,
    /// The admission journal, in admission order.
    pub admissions: Vec<AdmissionDecision>,
    /// `report` as pretty JSON.
    pub report_json: String,
    /// `admissions` as pretty JSON.
    pub admissions_json: String,
    /// Chrome trace-event JSON with one track per session plus the
    /// engine's `io`/`pool` tracks.
    pub chrome_json: String,
}

/// The canonical 8-session cell: [`ConcurrencyConfig`]'s workload at
/// `seed` on its SSD fixture, admitted by the fine-grained optimizer.
pub fn session_export_cell(seed: u64) -> CaptureCell {
    let cfg = ConcurrencyConfig {
        seed,
        ..ConcurrencyConfig::default()
    };
    CaptureCell {
        fixture: cfg.experiment(DeviceKind::Ssd),
        kind: CellKind::Sessions {
            spec: Box::new(cfg.workload(8)),
            optimizer: OptimizerConfig::fine_grained(),
            writes: false,
        },
    }
}

/// Run a session `cell` traced and export it: each session gets its own
/// track (`session0`, `session1`, ...) next to the engine's `io`/`pool`
/// tracks.
pub fn session_export(cell: &CaptureCell) -> Result<SessionExport, CaptureError> {
    let observed = observe(cell, Some(1 << 16), None).map_err(CaptureError::Exec)?;
    let Outcome::Sessions(report, admissions) = observed.outcome else {
        return Err(CaptureError::NotSessions(cell.label()));
    };
    let ring = observed.ring.expect("the export runs traced");
    Ok(SessionExport {
        report_json: report.to_json(),
        admissions_json: serde_json::to_string_pretty(&admissions)
            .unwrap_or_else(|_| String::from("[]")),
        chrome_json: ring.to_chrome_json(),
        report: *report,
        admissions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ConcurrencyConfig {
        ConcurrencyConfig {
            rows: 8_000,
            session_counts: vec![1, 4],
            queries_per_session: 2,
            selectivities: vec![0.01],
            ..ConcurrencyConfig::default()
        }
    }

    #[test]
    fn grid_is_thread_count_invariant_and_repeatable() {
        let cfg = tiny();
        let opt = OptimizerConfig::fine_grained();
        let devices = [DeviceKind::Ssd];
        let a = concurrency_grid(&devices, &cfg, &opt, 1).expect("threads=1");
        let b = concurrency_grid(&devices, &cfg, &opt, 4).expect("threads=4");
        let c = concurrency_grid(&devices, &cfg, &opt, 1).expect("rerun");
        assert_eq!(
            crate::to_csv(&a),
            crate::to_csv(&b),
            "grid differs by thread count"
        );
        assert_eq!(
            crate::to_csv(&a),
            crate::to_csv(&c),
            "grid differs across runs"
        );
    }

    #[test]
    fn leases_shrink_as_sessions_rise_on_ssd() {
        let cfg = tiny();
        let opt = OptimizerConfig::fine_grained();
        let cells = concurrency_grid(&[DeviceKind::Ssd], &cfg, &opt, 1).expect("grid");
        assert_eq!(cells.len(), 2);
        let (one, four) = (&cells[0], &cells[1]);
        assert_eq!(one.sessions, 1);
        assert_eq!(four.sessions, 4);
        assert_eq!(one.completed, 2);
        assert_eq!(four.completed, 8);
        assert!(
            four.min_lease_depth < one.min_lease_depth,
            "leases must shrink under concurrency: {} vs {}",
            one.min_lease_depth,
            four.min_lease_depth
        );
    }

    #[test]
    fn session_export_has_one_track_per_session() {
        let export = session_export(&session_export_cell(7)).expect("export runs");
        assert_eq!(export.report.per_session.len(), 8);
        for s in 0..8 {
            assert!(
                export.chrome_json.contains(&format!("session{s}")),
                "missing session{s} track"
            );
        }
        assert!(export.chrome_json.contains("\"traceEvents\""));
        assert_eq!(
            export.admissions.len() as u64,
            export.report.total_completed()
        );
    }
}
