//! # pioqo — Parallel I/O Aware Query Optimization
//!
//! A from-scratch Rust reproduction of Ghodsnia, Bowman & Nica, *"Parallel
//! I/O Aware Query Optimization"*, SIGMOD 2014 — the queue-depth-aware disk
//! transfer time (**QDTT**) I/O cost model of SAP SQL Anywhere, together
//! with every substrate the paper's evaluation needs: simulated storage
//! devices (HDD / SSD / RAID), heap tables and a B+-tree, a buffer pool,
//! parallel scan operators with prefetching, the calibration process, and
//! the cost-based optimizer.
//!
//! This facade re-exports the whole stack under one import:
//!
//! ```
//! use pioqo::prelude::*;
//!
//! // A small table on a simulated SSD.
//! let exp = Experiment::build(
//!     ExperimentConfig::by_name("E33-SSD").unwrap().scaled_down(400),
//! );
//! // Calibrate the device, build old/new optimizers, pick plans.
//! let models = pioqo::workload::calibrate(&exp);
//! let stats = pioqo::workload::cold_stats(&exp);
//! let qdtt_model = QdttCost(models.qdtt.clone());
//! let new_opt = Optimizer::new(&qdtt_model, OptimizerConfig::default());
//! let plan = new_opt.choose(&stats, 0.01);
//! assert!(plan.est_total_us > 0.0);
//! ```
//!
//! The individual layers are also published as their own crates:
//! [`simkit`], [`device`], [`storage`], [`bufpool`], [`exec`], [`obs`]
//! (sim-time tracing and histograms), [`core`] (the QDTT model itself),
//! [`optimizer`] and [`workload`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod db;

pub use pioqo_bufpool as bufpool;
pub use pioqo_core as core;
pub use pioqo_device as device;
pub use pioqo_exec as exec;
pub use pioqo_obs as obs;
pub use pioqo_optimizer as optimizer;
pub use pioqo_simkit as simkit;
pub use pioqo_storage as storage;
pub use pioqo_workload as workload;

/// The commonly used types, one `use` away.
pub mod prelude {
    pub use crate::db::{Db, DbBuilder, StorageKind};
    pub use pioqo_bufpool::wal::{Wal, WalOp, WalRecord, WalScan};
    pub use pioqo_bufpool::BufferPool;
    pub use pioqo_core::{CalibrationConfig, Calibrator, Dtt, Method, Qdtt};
    pub use pioqo_device::{
        presets, CrashPlan, CrashReport, Crashable, DeviceModel, FaultPlan, Faulty, Hdd, IoKind,
        IoRequest, IoStatus, MediaStore, Raid, Ssd,
    };
    pub use pioqo_exec::{
        drive_writes, execute, oracle, recover, Aggregate, CmpOp, Col, CpuConfig, CpuCosts,
        ExecError, FtsConfig, HashJoinConfig, InlConfig, IsConfig, JoinClause, MultiEngine,
        PlanSpec, Predicate, Projection, QuerySpec, RecoveryStats, ResilienceStats, RetryPolicy,
        ScanMetrics, SimContext, SortedIsConfig, ThinkTime, WorkloadReport, WorkloadSpec,
        WriteConfig, WriteStats, WriteSystem,
    };
    pub use pioqo_obs::{Histogram, MetricsRegistry, RingSink};
    pub use pioqo_optimizer::{
        plan_to_spec, AccessMethod, DttCost, JoinDecision, JoinMethod, JoinPlan, JoinStats,
        Optimizer, OptimizerConfig, Plan, QdBudget, QdttAdmission, QdttCost, TableStats,
    };
    pub use pioqo_simkit::{SimDuration, SimRng, SimTime};
    pub use pioqo_storage::{BTreeIndex, HeapTable, TableSpec, Tablespace};
    pub use pioqo_workload::{
        break_even, capture_trace, default_trace_cells, runtime_curve, CaptureCell, DeviceKind,
        Experiment, ExperimentConfig, MethodSpec, TraceBundle,
    };
}
