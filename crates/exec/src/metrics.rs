//! Scan results and observability.

use crate::engine::{IoProfile, ResilienceStats};
use pioqo_bufpool::PoolStats;
use pioqo_simkit::SimDuration;
use serde::{Deserialize, Serialize};

/// The result of executing one [`crate::query::QuerySpec`] with one
/// physical plan, plus everything the experiments report about the run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanMetrics {
    /// Virtual runtime of the scan (first work to last result).
    pub runtime: SimDuration,
    /// The aggregate value (`None` when no row matches or for `COUNT`).
    pub max_c1: Option<u32>,
    /// Rows satisfying the predicate (joined pairs for joins).
    pub rows_matched: u64,
    /// Rows the operator examined (FTS examines all; IS only matches).
    pub rows_examined: u64,
    /// Order-independent fingerprint of the projected matching rows.
    pub fingerprint: u64,
    /// Device-level I/O statistics for the run.
    pub io: IoProfile,
    /// Buffer-pool counters accumulated during the run.
    pub pool: PoolStats,
    /// Fault-handling counters for the run (all zero on a clean device).
    pub resilience: ResilienceStats,
}

impl ScanMetrics {
    /// Runtime in seconds (for reporting).
    pub fn runtime_secs(&self) -> f64 {
        self.runtime.as_secs_f64()
    }
}
