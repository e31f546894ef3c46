//! # pioqo-exec — query execution engine
//!
//! The paper's access methods plus a real query layer, executed over
//! simulated hardware:
//!
//! * [`FtsConfig`] — full table scan / parallel full table scan (Fig. 2),
//!   with asynchronous block prefetching;
//! * [`IsConfig`] — index scan / parallel index scan (Fig. 3), with the
//!   §3.3 per-worker, per-leaf asynchronous prefetch ring;
//! * [`SortedIsConfig`] — sorted index scan (§3.1), each table page fetched
//!   at most once;
//! * [`InlConfig`] — index-nested-loop join (random probes into the inner
//!   index, wants deep queues);
//! * [`HashJoinConfig`] — hybrid hash join (sequential partitioned I/O
//!   through the spill write path).
//!
//! Everything runs inside one discrete-event loop ([`SimContext`]) binding
//! the device model, a hyper-threaded CPU scheduler ([`CpuScheduler`]) and
//! the buffer pool. A query is a [`QuerySpec`]: the table, a [`Predicate`]
//! tree, a [`Projection`], an [`Aggregate`] and a physical [`PlanSpec`] —
//! predicates and projections are evaluated *inside* the scan drivers
//! (pushdown: each page is decoded once and filtered at scan rate, never
//! materialized upward). [`execute`] runs a single query; [`MultiEngine`]
//! interleaves concurrent closed-loop sessions. Each query returns
//! [`ScanMetrics`]: the answer (aggregate, row counts, an order-independent
//! result fingerprint), the virtual runtime, and the observed I/O profile
//! (queue depth, throughput), which is what the paper's figures plot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cpu;
pub mod driver;
pub mod engine;
pub mod execute;
pub mod fts;
pub mod is;
pub mod join;
pub mod metrics;
pub mod query;
pub mod recovery;
mod run;
pub mod session;
pub mod shared;
pub mod sorted_is;
mod window;
pub mod write;

pub use cpu::{CpuConfig, CpuScheduler, TaskId};
pub use driver::{QueryAnswer, QueryDriver};
pub use engine::{CpuCosts, Event, ExecError, IoProfile, ResilienceStats, RetryPolicy, SimContext};
pub use execute::{execute, make_driver, PlanSpec, ScanOutput};
pub use fts::FtsConfig;
pub use is::IsConfig;
pub use join::{HashJoinConfig, HashJoinDriver, InlConfig, InlDriver};
pub use metrics::ScanMetrics;
pub use query::{
    oracle, Aggregate, CmpOp, Col, JoinClause, Predicate, Projection, QuerySpec, RowAcc, RowEval,
};
pub use recovery::{recover, RecoveryStats};
pub use session::{
    AdmissionPlanner, FixedPlanner, MultiEngine, QueryAdmission, QueryRecord, SessionSummary,
    SharedChoice, ThinkTime, WorkloadReport, WorkloadSpec,
};
pub use shared::{ScanHub, SharedScanStats};
pub use sorted_is::SortedIsConfig;
pub use write::{drive_writes, WriteConfig, WriteStats, WriteSystem};
