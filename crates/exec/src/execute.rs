//! The unified execution entry point: one function, any operator.
//!
//! [`execute`] takes a single [`QuerySpec`] — the physical plan *and* the
//! logical query (table, predicate tree, projection, aggregate, optional
//! join) — lowers it to a [`QueryDriver`] and pumps the context's event
//! loop until the answer is complete. This replaced the earlier
//! `(PlanSpec, ScanInputs)` pair (and, before that, six per-operator
//! `run_*` entry points): the `low`/`high` window of `ScanInputs` survives
//! as the sarg of a `C2 BETWEEN` predicate, so the paper's range-MAX is
//! now just one point in the query space.

use crate::driver::QueryDriver;
use crate::engine::{ExecError, RetryPolicy, SimContext};
use crate::fts::{FtsConfig, FtsDriver};
use crate::is::{IsConfig, IsDriver};
use crate::join::{HashJoinConfig, HashJoinDriver, InlConfig, InlDriver};
use crate::metrics::ScanMetrics;
use crate::query::QuerySpec;
use crate::run::Run;
use crate::sorted_is::{SortedIsConfig, SortedIsDriver};
use serde::{Deserialize, Serialize};

/// What [`execute`] returns: the metrics bundle of one query.
pub type ScanOutput = ScanMetrics;

/// A physical plan, fully specified: the access method (or join operator)
/// plus its configuration. This is the executor-side twin of the
/// optimizer's `Plan` (the optimizer crate depends on this one, so the
/// lowering lives there).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PlanSpec {
    /// (Parallel) full table scan.
    Fts(FtsConfig),
    /// (Parallel) index scan.
    Is(IsConfig),
    /// Sorted index scan.
    SortedIs(SortedIsConfig),
    /// Index-nested-loop join (random probes, wants deep queues).
    Inl(InlConfig),
    /// Hybrid hash join (sequential partitioned I/O).
    Hash(HashJoinConfig),
}

impl PlanSpec {
    /// Short human-readable plan label ("FTS", "PIS8+pf4", "INL+qd8",
    /// "HHJ8").
    pub fn label(&self) -> String {
        let mut s = String::new();
        self.label_into(&mut s);
        s
    }

    /// Append the plan label to `buf` without allocating (hot admission
    /// paths reuse one scratch `String` across queries).
    pub fn label_into(&self, buf: &mut String) {
        use std::fmt::Write as _;
        match self {
            PlanSpec::Fts(c) if c.workers == 1 => buf.push_str("FTS"),
            PlanSpec::Fts(c) => {
                let _ = write!(buf, "PFTS{}", c.workers);
            }
            PlanSpec::Is(c) if c.workers == 1 && c.prefetch_depth == 0 => buf.push_str("IS"),
            PlanSpec::Is(c) if c.prefetch_depth == 0 => {
                let _ = write!(buf, "PIS{}", c.workers);
            }
            PlanSpec::Is(c) => {
                let _ = write!(buf, "PIS{}+pf{}", c.workers, c.prefetch_depth);
            }
            PlanSpec::SortedIs(_) => buf.push_str("SortedIS"),
            PlanSpec::Inl(c) => {
                let _ = write!(buf, "INL+qd{}", c.probe_depth);
            }
            PlanSpec::Hash(c) => {
                let _ = write!(buf, "HHJ{}", c.partitions);
            }
        }
    }

    /// The parallel degree the plan runs at.
    pub fn degree(&self) -> u32 {
        match self {
            PlanSpec::Fts(c) => c.workers,
            PlanSpec::Is(c) => c.workers,
            PlanSpec::SortedIs(_) | PlanSpec::Inl(_) | PlanSpec::Hash(_) => 1,
        }
    }

    /// Whether this is a join plan (needs a [`crate::query::JoinClause`]).
    pub fn is_join(&self) -> bool {
        matches!(self, PlanSpec::Inl(_) | PlanSpec::Hash(_))
    }

    /// The plan's retry/timeout policy (installed on the context by
    /// [`execute`]).
    pub fn retry(&self) -> &RetryPolicy {
        match self {
            PlanSpec::Fts(c) => &c.retry,
            PlanSpec::Is(c) => &c.retry,
            PlanSpec::SortedIs(c) => &c.retry,
            PlanSpec::Inl(c) => &c.retry,
            PlanSpec::Hash(c) => &c.retry,
        }
    }
}

/// Lower a query to its driver. Fails if the plan needs an index or join
/// clause the spec does not provide.
pub fn make_driver<'q>(q: &QuerySpec<'q>) -> Result<Box<dyn QueryDriver + 'q>, ExecError> {
    let need_index = || {
        q.index.ok_or(ExecError::Internal {
            detail: "index-scan plan without an index",
        })
    };
    let need_join = || {
        q.join.ok_or(ExecError::Internal {
            detail: "join plan without a join clause",
        })
    };
    let zero = match &q.plan {
        PlanSpec::Fts(cfg) if cfg.workers == 0 => Some("FtsConfig::workers"),
        PlanSpec::Fts(cfg) if cfg.block_pages == 0 => Some("FtsConfig::block_pages"),
        PlanSpec::Is(cfg) if cfg.workers == 0 => Some("IsConfig::workers"),
        PlanSpec::Inl(cfg) if cfg.probe_depth == 0 => Some("InlConfig::probe_depth"),
        PlanSpec::Hash(cfg) if cfg.partitions == 0 => Some("HashJoinConfig::partitions"),
        _ => None,
    };
    if let Some(detail) = zero {
        return Err(ExecError::InvalidPlan { detail });
    }
    let eval = q.row_eval();
    Ok(match &q.plan {
        PlanSpec::Fts(cfg) => Box::new(FtsDriver::new(cfg.clone(), q.table, eval)),
        PlanSpec::Is(cfg) => Box::new(IsDriver::new(cfg.clone(), q.table, need_index()?, eval)),
        PlanSpec::SortedIs(cfg) => Box::new(SortedIsDriver::new(
            cfg.clone(),
            q.table,
            need_index()?,
            eval,
        )),
        PlanSpec::Inl(cfg) => Box::new(InlDriver::new(cfg.clone(), q.table, need_join()?, eval)?),
        PlanSpec::Hash(cfg) => Box::new(HashJoinDriver::new(
            cfg.clone(),
            q.table,
            need_join()?,
            eval,
        )?),
    })
}

/// Execute one query to completion on `ctx` and return its metrics.
///
/// The context is not consumed: callers can run several queries back to
/// back on one context (warm pool, monotone virtual time) or install a
/// trace sink up front. The plan's retry policy is installed on the
/// context; each query's metrics cover only its own window (runtime is
/// measured from the context time at entry, pool stats are diffed).
///
/// This is a run of one session with one query: `make_driver`, `start`,
/// then `step` / `on_event` until the driver is done, then `quiesce`.
pub fn execute(ctx: &mut SimContext<'_>, q: &QuerySpec<'_>) -> Result<ScanOutput, ExecError> {
    let pool_before = ctx.pool.stats().clone();
    let mut run = Run::new(ctx, 1, None, None);
    run.begin(ctx, 0, 0, q, None)?;
    run.settle(ctx, &mut (), 0, None);
    let (io, resilience) = run.drive(ctx, &mut ())?;
    let (answer, runtime) = run.last.ok_or(ExecError::Internal {
        detail: "a query run ended without an answer",
    })?;
    ctx.pump_pool_events();
    let pool = ctx.pool.stats().diff(&pool_before);
    Ok(ScanMetrics {
        runtime,
        max_c1: answer.max_c1,
        rows_matched: answer.rows_matched,
        rows_examined: answer.rows_examined,
        fingerprint: answer.fingerprint,
        io,
        pool,
        resilience,
    })
}
