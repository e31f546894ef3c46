//! The typed query layer: predicate trees, projections, aggregates, joins,
//! and the [`QuerySpec`] bundle that [`crate::execute()`] consumes.
//!
//! Until this module existed every query the executor could run was the
//! paper's hard-wired `SELECT MAX(C1) ... WHERE C2 BETWEEN low AND high`.
//! [`QuerySpec`] generalizes the *what* (table, predicate tree, projection,
//! aggregate, optional join) while the physical *how* stays a
//! [`PlanSpec`]. Predicates and projections are pushed down into the scan
//! drivers: each driver evaluates the tree once per page visit (the same
//! once-per-page discipline the shared-scan hub uses), never materializing
//! unprojected columns.
//!
//! A page, not a row, is the unit of evaluation. [`Predicate::mask`] runs
//! the tree over up to 64 rows of two column slices and returns their
//! match bits; [`RowEval::cols`] / [`RowEval::left_cols`] take one mask
//! per chunk and touch only the rows whose bit is set. Every page walk
//! (FTS, the shared-scan hub, the joins' outer / build / probe runs) goes
//! through them. [`Predicate::matches`] is the row-at-a-time reference:
//! [`RowEval::row`] (index plans, which fetch single rows) and the
//! [`oracle`] use it, so the oracle never runs the kernel it checks, and
//! the unit tests below pin the two equal.
//!
//! Two things keep the old range-MAX behaviour byte-identical:
//! - [`Predicate::terms`] is 1 for a single BETWEEN, so the per-page CPU
//!   charge `page_overhead + rows x row_scan x terms` matches the old
//!   formula exactly;
//! - [`Predicate::sarg`] recovers the `[low, high]` window that index
//!   plans and shared-scan cursors key on, so plan lowering is unchanged
//!   for sargable predicates.
//!
//! Result checking across arbitrary predicates/projections uses an
//! order-independent [fingerprint](RowAcc::fingerprint): a commutative
//! (wrapping-add) fold of one FNV-1a hash per matching row over its
//! *projected* columns. Operators that visit rows in different orders
//! (FTS vs sorted IS vs hash join) agree on it, and the naive in-memory
//! [`oracle`] reproduces it exactly.

use crate::engine::CpuCosts;
use crate::execute::PlanSpec;
use pioqo_storage::{BTreeIndex, Extent, HeapTable};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A column reference in the paper's two-column schema (resolved against
/// [`pioqo_storage::Schema`] by [`Col::ordinal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Col {
    /// The payload column (aggregated by MAX).
    C1,
    /// The indexed predicate column.
    C2,
}

impl Col {
    /// The column's ordinal in the paper schema.
    pub fn ordinal(&self) -> usize {
        match self {
            Col::C1 => 0,
            Col::C2 => 1,
        }
    }

    /// The column's value in a `(c1, c2)` row.
    #[inline]
    pub fn of(&self, c1: u32, c2: u32) -> u32 {
        match self {
            Col::C1 => c1,
            Col::C2 => c2,
        }
    }
}

/// A comparison operator in a predicate leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `!=`
    Ne,
}

/// A predicate tree over one row: comparisons against constants, BETWEEN
/// windows, and AND/OR combinations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// `col op value`.
    Cmp {
        /// Column referenced.
        col: Col,
        /// Comparison operator.
        op: CmpOp,
        /// Constant compared against.
        value: u32,
    },
    /// `col BETWEEN low AND high` (inclusive both ends; `low > high` is the
    /// canonical empty window).
    Between {
        /// Column referenced.
        col: Col,
        /// Inclusive lower bound.
        low: u32,
        /// Inclusive upper bound.
        high: u32,
    },
    /// Conjunction of children (empty = `True`).
    And(Vec<Predicate>),
    /// Disjunction of children (empty = `False`: no child matches).
    Or(Vec<Predicate>),
}

/// Bit `i` set iff `low <= vs[i] <= high` (`low <= high`, at most 64
/// values): one wrapping subtract and one unsigned compare per value.
#[inline]
fn interval_mask(vs: &[u32], low: u32, high: u32) -> u64 {
    let span = high - low;
    let mut m = 0u64;
    for (i, &v) in vs.iter().enumerate() {
        m |= u64::from(v.wrapping_sub(low) <= span) << i;
    }
    m
}

impl Predicate {
    /// The paper predicate: `C2 BETWEEN low AND high`.
    pub fn c2_between(low: u32, high: u32) -> Predicate {
        Predicate::Between {
            col: Col::C2,
            low,
            high,
        }
    }

    /// Evaluate the tree against one row.
    pub fn matches(&self, c1: u32, c2: u32) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp { col, op, value } => {
                let v = col.of(c1, c2);
                match op {
                    CmpOp::Lt => v < *value,
                    CmpOp::Le => v <= *value,
                    CmpOp::Eq => v == *value,
                    CmpOp::Ge => v >= *value,
                    CmpOp::Gt => v > *value,
                    CmpOp::Ne => v != *value,
                }
            }
            Predicate::Between { col, low, high } => {
                let v = col.of(c1, c2);
                v >= *low && v <= *high
            }
            Predicate::And(ps) => ps.iter().all(|p| p.matches(c1, c2)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches(c1, c2)),
        }
    }

    /// Evaluate the tree on up to 64 rows at once: bit `i` of the result is
    /// [`Predicate::matches`]`(c1s[i], c2s[i])`, bits at or above the
    /// slices' length are clear. A leaf is one branch-free interval test
    /// over its column slice, `And` / `Or` are `&` / `|` of the children's
    /// masks — the tree is its own program, at any depth.
    pub fn mask(&self, c1s: &[u32], c2s: &[u32]) -> u64 {
        debug_assert!(c1s.len() == c2s.len() && c1s.len() <= 64);
        // `1 << 64` wraps to 1 in release and panics in debug: the full
        // chunk needs its own arm.
        let all = match c1s.len() {
            64 => u64::MAX,
            n => (1u64 << n) - 1,
        };
        let of = |col: &Col| match col {
            Col::C1 => c1s,
            Col::C2 => c2s,
        };
        match self {
            Predicate::True => all,
            Predicate::Cmp { col, op, value } => {
                let v = *value;
                match op {
                    CmpOp::Lt if v == 0 => 0,
                    CmpOp::Lt => interval_mask(of(col), 0, v - 1),
                    CmpOp::Le => interval_mask(of(col), 0, v),
                    CmpOp::Eq => interval_mask(of(col), v, v),
                    CmpOp::Ge => interval_mask(of(col), v, u32::MAX),
                    CmpOp::Gt if v == u32::MAX => 0,
                    CmpOp::Gt => interval_mask(of(col), v + 1, u32::MAX),
                    CmpOp::Ne => all & !interval_mask(of(col), v, v),
                }
            }
            Predicate::Between { low, high, .. } if low > high => 0,
            Predicate::Between { col, low, high } => interval_mask(of(col), *low, *high),
            Predicate::And(ps) => ps.iter().fold(all, |m, p| m & p.mask(c1s, c2s)),
            Predicate::Or(ps) => ps.iter().fold(0, |m, p| m | p.mask(c1s, c2s)),
        }
    }

    /// Number of comparison leaves — the unit the per-page CPU charge
    /// scales with (`True` and a single BETWEEN both cost 1, preserving the
    /// pre-query-layer scan cost exactly).
    pub fn terms(&self) -> u32 {
        match self {
            Predicate::True | Predicate::Cmp { .. } | Predicate::Between { .. } => 1,
            Predicate::And(ps) | Predicate::Or(ps) => {
                ps.iter().map(Predicate::terms).sum::<u32>().max(1)
            }
        }
    }

    /// The tightest `[low, high]` window on `C2` that *covers* every
    /// matching row (the search argument for index plans and shared-scan
    /// cursors). Always a valid cover: predicates that do not constrain
    /// `C2` return the full domain, AND intersects children, OR takes the
    /// hull. An inverted window (`low > high`) means no row can match.
    pub fn sarg(&self) -> (u32, u32) {
        const FULL: (u32, u32) = (0, u32::MAX);
        match self {
            Predicate::True => FULL,
            Predicate::Cmp { col: Col::C1, .. } => FULL,
            Predicate::Cmp {
                col: Col::C2,
                op,
                value,
            } => match op {
                CmpOp::Lt => {
                    if *value == 0 {
                        (1, 0)
                    } else {
                        (0, value - 1)
                    }
                }
                CmpOp::Le => (0, *value),
                CmpOp::Eq => (*value, *value),
                CmpOp::Ge => (*value, u32::MAX),
                CmpOp::Gt => {
                    if *value == u32::MAX {
                        (1, 0)
                    } else {
                        (value + 1, u32::MAX)
                    }
                }
                CmpOp::Ne => FULL,
            },
            Predicate::Between {
                col: Col::C1,
                low,
                high,
            } => {
                if low > high {
                    (1, 0) // empty on any column is empty overall
                } else {
                    FULL
                }
            }
            Predicate::Between {
                col: Col::C2,
                low,
                high,
            } => (*low, *high),
            Predicate::And(ps) => {
                let mut lo = 0u32;
                let mut hi = u32::MAX;
                for p in ps {
                    let (l, h) = p.sarg();
                    lo = lo.max(l);
                    hi = hi.min(h);
                }
                (lo, hi)
            }
            Predicate::Or(ps) => {
                if ps.is_empty() {
                    return (1, 0);
                }
                let mut lo = u32::MAX;
                let mut hi = 0u32;
                let mut any = false;
                for p in ps {
                    let (l, h) = p.sarg();
                    if l > h {
                        continue; // empty branch contributes nothing
                    }
                    any = true;
                    lo = lo.min(l);
                    hi = hi.max(h);
                }
                if any {
                    (lo, hi)
                } else {
                    (1, 0)
                }
            }
        }
    }

    /// Whether the sarg window is the predicate itself (no residual): a
    /// single `C2` BETWEEN/comparison or `True`. Index plans on residual
    /// predicates re-check [`Predicate::matches`] per fetched row.
    pub fn is_pure_c2_range(&self) -> bool {
        matches!(
            self,
            Predicate::True
                | Predicate::Between { col: Col::C2, .. }
                | Predicate::Cmp {
                    col: Col::C2,
                    op: CmpOp::Lt | CmpOp::Le | CmpOp::Eq | CmpOp::Ge | CmpOp::Gt,
                    ..
                }
        )
    }
}

/// A projection list: which columns each matching row contributes to the
/// output fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Projection {
    /// Every column (`SELECT *`).
    All,
    /// The listed columns, in listed order.
    Cols(Vec<Col>),
}

impl Projection {
    /// The projected columns as a concrete slice (paper schema order for
    /// [`Projection::All`]).
    pub fn cols(&self) -> Vec<Col> {
        match self {
            Projection::All => vec![Col::C1, Col::C2],
            Projection::Cols(cs) => cs.clone(),
        }
    }
}

/// The aggregate a query computes over matching (or joined) rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregate {
    /// `MAX(col)` — `None` when nothing matched. For joins the column is
    /// read from the inner (right) row of each joined pair.
    Max(Col),
    /// `COUNT(*)` — reported via `rows_matched`; the value slot is `None`.
    Count,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a folded at `u32` granularity: one xor + multiply per column
/// value, not per byte — the fold runs once per matched row on the scan
/// hot path, so the byte loop was four multiplies where one suffices.
#[inline]
fn fnv_fold(h: u64, v: u32) -> u64 {
    (h ^ v as u64).wrapping_mul(FNV_PRIME)
}

/// One matching row's contribution to the order-independent output
/// fingerprint: FNV-1a over the projected column values, in projection
/// order.
pub fn row_fingerprint(cols: &[Col], c1: u32, c2: u32) -> u64 {
    let mut h = FNV_OFFSET;
    for c in cols {
        h = fnv_fold(h, c.of(c1, c2));
    }
    h
}

/// Accumulator threaded through a driver's row visits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowAcc {
    /// Running aggregate value (`MAX`), `None` until a row matches.
    pub agg: Option<u32>,
    /// Rows that satisfied the predicate (joined pairs for joins).
    pub matched: u64,
    /// Rows the operator evaluated.
    pub examined: u64,
    /// Wrapping sum of per-row fingerprints (order-independent).
    pub fingerprint: u64,
}

impl RowAcc {
    /// Fold another accumulator in (parallel-worker merge).
    pub fn merge(&mut self, other: &RowAcc) {
        self.agg = match (self.agg, other.agg) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.matched += other.matched;
        self.examined += other.examined;
        self.fingerprint = self.fingerprint.wrapping_add(other.fingerprint);
    }
}

/// Precompiled projection shape: the common one- and two-column lists
/// fold their fingerprint as a direct expression instead of walking the
/// column vector per matched row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FpShape {
    /// `SELECT *` / `[C1, C2]`.
    C1C2,
    /// `[C1]` only.
    C1,
    /// `[C2]` only.
    C2,
    /// Anything else — fold via [`row_fingerprint`].
    Listed,
}

/// A compiled row evaluator: the pushed-down predicate + projection +
/// aggregate, resolved once per query. Page walks go through
/// [`RowEval::cols`] / [`RowEval::left_cols`] (one [`Predicate::mask`] per
/// 64-row chunk); single fetched rows go through [`RowEval::row`].
#[derive(Debug, Clone)]
pub struct RowEval {
    pred: Predicate,
    proj: Vec<Col>,
    agg: Aggregate,
    terms: u32,
    shape: FpShape,
}

impl RowEval {
    /// Compile the evaluator for one query.
    pub fn new(pred: Predicate, proj: &Projection, agg: Aggregate) -> RowEval {
        let terms = pred.terms();
        let proj = proj.cols();
        let shape = match proj.as_slice() {
            [Col::C1, Col::C2] => FpShape::C1C2,
            [Col::C1] => FpShape::C1,
            [Col::C2] => FpShape::C2,
            _ => FpShape::Listed,
        };
        RowEval {
            pred,
            proj,
            agg,
            terms,
            shape,
        }
    }

    /// The projected fingerprint of one row, dispatched on the
    /// precompiled shape.
    #[inline]
    fn fp(&self, c1: u32, c2: u32) -> u64 {
        match self.shape {
            FpShape::C1C2 => fnv_fold(fnv_fold(FNV_OFFSET, c1), c2),
            FpShape::C1 => fnv_fold(FNV_OFFSET, c1),
            FpShape::C2 => fnv_fold(FNV_OFFSET, c2),
            FpShape::Listed => row_fingerprint(&self.proj, c1, c2),
        }
    }

    /// The `[low, high]` cover on `C2` (see [`Predicate::sarg`]).
    pub fn sarg(&self) -> (u32, u32) {
        self.pred.sarg()
    }

    /// The predicate's comparison-leaf count.
    pub fn terms(&self) -> u32 {
        self.terms
    }

    /// CPU charge for evaluating one heap page of `nrows` rows: the fixed
    /// page overhead plus one `row_scan` unit per row *per predicate term*
    /// (identical to the pre-query-layer charge when `terms == 1`).
    pub fn page_work(&self, costs: &CpuCosts, nrows: u64) -> f64 {
        costs.page_overhead_us + nrows as f64 * costs.row_scan_us * self.terms as f64
    }

    /// Evaluate one row, folding it into `acc` if it matches.
    #[inline]
    pub fn row(&self, c1: u32, c2: u32, acc: &mut RowAcc) -> bool {
        acc.examined += 1;
        if !self.pred.matches(c1, c2) {
            return false;
        }
        acc.matched += 1;
        let v = match self.agg {
            Aggregate::Max(col) => Some(col.of(c1, c2)),
            Aggregate::Count => None,
        };
        acc.agg = match (acc.agg, v) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        acc.fingerprint = acc.fingerprint.wrapping_add(self.fp(c1, c2));
        true
    }

    /// Evaluate a run of rows given as parallel `C1` / `C2` slices: one
    /// match mask per 64-row chunk, then aggregate and fingerprint folded
    /// over the set bits only, with the accumulators held in locals.
    /// Equal to calling [`RowEval::row`] on every row in turn.
    pub fn cols(&self, c1s: &[u32], c2s: &[u32], acc: &mut RowAcc) {
        let mut matched = 0u64;
        let mut best: Option<u32> = None;
        let mut fp = 0u64;
        let walk = self.left_cols(c1s, c2s, acc, |c1, c2, _| {
            matched += 1;
            if let Aggregate::Max(col) = self.agg {
                best = best.max(Some(col.of(c1, c2)));
            }
            fp = fp.wrapping_add(self.fp(c1, c2));
            Ok::<(), std::convert::Infallible>(())
        });
        let Ok(()) = walk;
        acc.matched += matched;
        // `None` orders below every `Some`: no match leaves `agg` alone.
        acc.agg = acc.agg.max(best);
        acc.fingerprint = acc.fingerprint.wrapping_add(fp);
    }

    /// Evaluate every row of table page `local` (the full-scan page visit).
    pub fn page(&self, table: &HeapTable, local: u64, acc: &mut RowAcc) {
        let (c1s, c2s) = table.page_cols(local, 1);
        self.cols(c1s, c2s, acc);
    }

    /// Examine a run of rows as the *outer* side of a join: counts them as
    /// examined and hands each row the predicate admits, in row order, to
    /// `f` (the probe/build side) — one match mask per 64-row chunk, `f`
    /// called for the set bits only. Does not touch `matched` — joined
    /// pairs do, via [`RowEval::join_pair`]. Stops at the first error `f`
    /// returns.
    pub fn left_cols<E>(
        &self,
        c1s: &[u32],
        c2s: &[u32],
        acc: &mut RowAcc,
        mut f: impl FnMut(u32, u32, &mut RowAcc) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert_eq!(c1s.len(), c2s.len());
        acc.examined += c1s.len() as u64;
        for (c1s, c2s) in c1s.chunks(64).zip(c2s.chunks(64)) {
            let mut m = self.pred.mask(c1s, c2s);
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                f(c1s[i], c2s[i], acc)?;
            }
        }
        Ok(())
    }

    /// Fold one joined pair: outer row `(lc1, lc2)` × inner row with
    /// payload `rc1` (the key is `lc2`, equal on both sides).
    #[inline]
    pub fn join_pair(&self, lc1: u32, lc2: u32, rc1: u32, acc: &mut RowAcc) {
        self.join_pair_n(lc1, lc2, rc1, 1, acc);
    }

    /// Fold `n` joined pairs of one outer row at once: `rc1_max` is the
    /// maximum inner payload among the key-equal group (hash joins fold a
    /// whole group per probe; the result is identical to `n` single
    /// [`RowEval::join_pair`] calls).
    pub fn join_pair_n(&self, lc1: u32, lc2: u32, rc1_max: u32, n: u64, acc: &mut RowAcc) {
        if n == 0 {
            return;
        }
        acc.matched += n;
        let v = match self.agg {
            Aggregate::Max(Col::C1) => Some(rc1_max),
            Aggregate::Max(Col::C2) => Some(lc2),
            Aggregate::Count => None,
        };
        acc.agg = match (acc.agg, v) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        acc.fingerprint = acc
            .fingerprint
            .wrapping_add(n.wrapping_mul(self.fp(lc1, lc2)));
    }
}

/// The inner side of an equi-join on `C2` (`left.C2 = right.C2`).
#[derive(Debug, Clone, Copy)]
pub struct JoinClause<'a> {
    /// The inner (build/probe-target) table.
    pub right: &'a HeapTable,
    /// The inner table's `C2` index (required by index-nested-loop).
    pub right_index: Option<&'a BTreeIndex>,
    /// Scratch extent for hash-join spill partitions (required by hybrid
    /// hash with more than one partition).
    pub spill: Option<Extent>,
}

/// A fully described query: physical plan, operands, predicate tree,
/// projection, aggregate, optional join. The single argument to
/// [`crate::execute()`].
#[derive(Debug, Clone)]
pub struct QuerySpec<'a> {
    /// The physical plan to run (access method / join operator + knobs).
    pub plan: PlanSpec,
    /// The (outer) heap table.
    pub table: &'a HeapTable,
    /// The outer table's `C2` index (required by index-scan plans).
    pub index: Option<&'a BTreeIndex>,
    /// Predicate tree over the outer table's rows.
    pub predicate: Predicate,
    /// Projection list for matching rows.
    pub projection: Projection,
    /// The aggregate to compute.
    pub aggregate: Aggregate,
    /// Equi-join inner side, if this is a join query.
    pub join: Option<JoinClause<'a>>,
}

impl<'a> QuerySpec<'a> {
    /// A full-scan `SELECT MAX(C1)` over every row of `table` with the
    /// default FTS plan. The starting point for the builder methods.
    pub fn scan(table: &'a HeapTable) -> QuerySpec<'a> {
        QuerySpec {
            plan: PlanSpec::Fts(crate::fts::FtsConfig::default()),
            table,
            index: None,
            predicate: Predicate::True,
            projection: Projection::All,
            aggregate: Aggregate::Max(Col::C1),
            join: None,
        }
    }

    /// The paper query: `SELECT MAX(C1) FROM table WHERE C2 BETWEEN low
    /// AND high`, with the default FTS plan until [`QuerySpec::with_plan`]
    /// replaces it.
    pub fn range_max(
        table: &'a HeapTable,
        index: Option<&'a BTreeIndex>,
        low: u32,
        high: u32,
    ) -> QuerySpec<'a> {
        QuerySpec {
            predicate: Predicate::c2_between(low, high),
            index,
            ..QuerySpec::scan(table)
        }
    }

    /// Replace the physical plan.
    pub fn with_plan(mut self, plan: PlanSpec) -> QuerySpec<'a> {
        self.plan = plan;
        self
    }

    /// Attach the `C2` index (required by index-scan plans).
    pub fn with_index(mut self, index: &'a BTreeIndex) -> QuerySpec<'a> {
        self.index = Some(index);
        self
    }

    /// AND another predicate onto the query.
    pub fn filter(mut self, pred: Predicate) -> QuerySpec<'a> {
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

    /// Replace the projection list.
    pub fn project(mut self, cols: Vec<Col>) -> QuerySpec<'a> {
        self.projection = Projection::Cols(cols);
        self
    }

    /// Replace the aggregate.
    pub fn aggregate(mut self, agg: Aggregate) -> QuerySpec<'a> {
        self.aggregate = agg;
        self
    }

    /// Make this an equi-join (`self.C2 = right.C2`) with `right` as the
    /// inner side.
    pub fn join(mut self, clause: JoinClause<'a>) -> QuerySpec<'a> {
        self.join = Some(clause);
        self
    }

    /// Compile the row evaluator for the outer side.
    pub fn row_eval(&self) -> RowEval {
        RowEval::new(self.predicate.clone(), &self.projection, self.aggregate)
    }
}

/// The naive in-memory reference evaluator: the oracle every operator is
/// tested against. Evaluates the predicate over all rows (and the full
/// cross product of key-equal pairs for joins) with no I/O model at all.
pub fn oracle(q: &QuerySpec<'_>) -> RowAcc {
    let eval = q.row_eval();
    let mut acc = RowAcc::default();
    match &q.join {
        None => {
            for r in 0..q.table.data().rows() {
                let (c1, c2) = q.table.row(r);
                eval.row(c1, c2, &mut acc);
            }
        }
        Some(j) => {
            // Build: right side grouped by key.
            let mut by_key: BTreeMap<u32, (u64, u32)> = BTreeMap::new();
            for r in 0..j.right.data().rows() {
                let (rc1, rc2) = j.right.row(r);
                let e = by_key.entry(rc2).or_insert((0, 0));
                e.0 += 1;
                e.1 = e.1.max(rc1);
            }
            // Probe: each matching outer row joins every key-equal inner
            // row; the aggregate column is read from the inner side.
            let cols = q.projection.cols();
            for r in 0..q.table.data().rows() {
                let (c1, c2) = q.table.row(r);
                acc.examined += 1;
                if !q.predicate.matches(c1, c2) {
                    continue;
                }
                if let Some(&(n, maxc1)) = by_key.get(&c2) {
                    acc.matched += n;
                    let v = match q.aggregate {
                        Aggregate::Max(col) => Some(match col {
                            Col::C1 => maxc1,
                            Col::C2 => c2,
                        }),
                        Aggregate::Count => None,
                    };
                    acc.agg = match (acc.agg, v) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                    acc.fingerprint = acc
                        .fingerprint
                        .wrapping_add(n.wrapping_mul(row_fingerprint(&cols, c1, c2)));
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioqo_simkit::SimRng;
    use pioqo_storage::{TableSpec, Tablespace};

    fn table(rows: u64, c2_max: u32, seed: u64) -> HeapTable {
        let spec = TableSpec {
            c2_max,
            ..TableSpec::paper_table(33, rows, seed)
        };
        let mut ts = Tablespace::new(spec.n_pages() + 10);
        HeapTable::create(spec, &mut ts).expect("fits")
    }

    #[test]
    fn between_matches_and_sarg_round_trip() {
        let p = Predicate::c2_between(10, 20);
        assert!(p.matches(0, 10) && p.matches(0, 20) && !p.matches(0, 21));
        assert_eq!(p.sarg(), (10, 20));
        assert_eq!(p.terms(), 1);
        assert!(p.is_pure_c2_range());
    }

    #[test]
    fn and_intersects_or_hulls() {
        let a = Predicate::And(vec![
            Predicate::c2_between(10, 100),
            Predicate::c2_between(50, 200),
        ]);
        assert_eq!(a.sarg(), (50, 100));
        assert_eq!(a.terms(), 2);
        assert!(!a.is_pure_c2_range());
        let o = Predicate::Or(vec![
            Predicate::c2_between(10, 20),
            Predicate::c2_between(80, 90),
        ]);
        assert_eq!(o.sarg(), (10, 90));
        assert!(o.matches(0, 15) && o.matches(0, 85) && !o.matches(0, 50));
        // C1 constraints do not narrow the C2 cover.
        let c1 = Predicate::Cmp {
            col: Col::C1,
            op: CmpOp::Lt,
            value: 5,
        };
        assert_eq!(c1.sarg(), (0, u32::MAX));
        // Empty AND branch empties the whole cover.
        let empty = Predicate::And(vec![
            Predicate::c2_between(10, 20),
            Predicate::c2_between(30, 40),
        ]);
        let (l, h) = empty.sarg();
        assert!(l > h);
    }

    #[test]
    fn cmp_sargs_cover_exactly() {
        for (op, want) in [
            (CmpOp::Lt, (0u32, 41u32)),
            (CmpOp::Le, (0, 42)),
            (CmpOp::Eq, (42, 42)),
            (CmpOp::Ge, (42, u32::MAX)),
            (CmpOp::Gt, (43, u32::MAX)),
            (CmpOp::Ne, (0, u32::MAX)),
        ] {
            let p = Predicate::Cmp {
                col: Col::C2,
                op,
                value: 42,
            };
            assert_eq!(p.sarg(), want, "{op:?}");
            // Cover property: every matching c2 lies inside the sarg.
            let (lo, hi) = p.sarg();
            for c2 in [0u32, 41, 42, 43, 1000] {
                if p.matches(0, c2) {
                    assert!(c2 >= lo && c2 <= hi, "{op:?} c2={c2}");
                }
            }
        }
    }

    #[test]
    fn windows_no_value_can_enter_have_an_empty_sarg() {
        let cmp = |col, op, value| Predicate::Cmp { col, op, value };
        for p in [
            cmp(Col::C2, CmpOp::Lt, 0),
            cmp(Col::C2, CmpOp::Gt, u32::MAX),
            Predicate::c2_between(7, 3),
            Predicate::Between {
                col: Col::C1,
                low: 7,
                high: 3,
            },
        ] {
            let (low, high) = p.sarg();
            assert!(low > high, "{p:?}: ({low}, {high})");
            assert!(!p.matches(0, 0) && !p.matches(u32::MAX, u32::MAX), "{p:?}");
        }
        assert_eq!(
            cmp(Col::C2, CmpOp::Lt, 0).sarg(),
            (1, 0),
            "the canonical one"
        );
        // `C1 < 0` matches nothing but says nothing about C2.
        assert_eq!(cmp(Col::C1, CmpOp::Lt, 0).sarg(), (0, u32::MAX));
        assert_eq!(cmp(Col::C2, CmpOp::Lt, 1).sarg(), (0, 0));
    }

    const C2_MAX: u32 = 1_000;

    /// A comparison constant: half the time inside the column domain, else
    /// one of the boundary values where the interval arithmetic can wrap.
    fn constant(rng: &mut SimRng) -> u32 {
        const EDGES: [u32; 5] = [0, 1, C2_MAX, u32::MAX - 1, u32::MAX];
        match rng.below(2) {
            0 => EDGES[rng.below(5) as usize],
            _ => rng.below(C2_MAX as u64 + 1) as u32,
        }
    }

    /// A seeded arbitrary tree: every leaf kind and operator, inverted
    /// windows, empty connectives, at most `depth` connective levels.
    fn tree(rng: &mut SimRng, depth: u32) -> Predicate {
        const OPS: [CmpOp; 6] = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ge,
            CmpOp::Gt,
            CmpOp::Ne,
        ];
        let col = [Col::C1, Col::C2][rng.below(2) as usize];
        match rng.below(if depth == 0 { 3 } else { 5 }) {
            0 => Predicate::True,
            1 => Predicate::Cmp {
                col,
                op: OPS[rng.below(6) as usize],
                value: constant(rng),
            },
            2 => Predicate::Between {
                col,
                low: constant(rng),
                high: constant(rng),
            },
            kind => {
                let children = (0..rng.below(4)).map(|_| tree(rng, depth - 1)).collect();
                if kind == 3 {
                    Predicate::And(children)
                } else {
                    Predicate::Or(children)
                }
            }
        }
    }

    /// Column values from the same mix as the constants, so equalities and
    /// boundary windows actually hit.
    fn columns(rng: &mut SimRng, n: usize) -> (Vec<u32>, Vec<u32>) {
        let mut col = |_| (0..n).map(|_| constant(rng)).collect();
        (col(1), col(2))
    }

    #[test]
    fn mask_bit_i_is_matches_of_row_i() {
        let mut rng = SimRng::seeded(0x6D61_736B);
        let mut seen = [0u32; 3];
        for round in 0..400 {
            let p = tree(&mut rng, 3);
            seen[0] += u32::from(matches!(&p, Predicate::And(ps) if ps.is_empty()));
            seen[1] += u32::from(matches!(&p, Predicate::Or(ps) if ps.is_empty()));
            seen[2] += u32::from(matches!(&p, Predicate::Between { low, high, .. } if low > high));
            for n in [0usize, 1, 33, 63, 64] {
                let (c1s, c2s) = columns(&mut rng, n);
                let m = p.mask(&c1s, &c2s);
                for i in 0..n {
                    let want = p.matches(c1s[i], c2s[i]);
                    assert_eq!(m >> i & 1 == 1, want, "round {round} n {n} bit {i}: {p:?}");
                }
                assert!(
                    n == 64 || m >> n == 0,
                    "round {round} n {n}: stray high bit"
                );
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "generator coverage: {seen:?}");
    }

    /// The projections and aggregates of `tests/query_layer.rs`.
    fn shapes() -> Vec<(Projection, Aggregate)> {
        let projections = [
            Projection::All,
            Projection::Cols(vec![Col::C1]),
            Projection::Cols(vec![Col::C2]),
            Projection::Cols(vec![Col::C2, Col::C1]),
        ];
        let aggregates = [
            Aggregate::Max(Col::C1),
            Aggregate::Max(Col::C2),
            Aggregate::Count,
        ];
        projections
            .iter()
            .flat_map(|p| aggregates.iter().map(move |a| (p.clone(), *a)))
            .collect()
    }

    #[test]
    fn cols_equals_a_row_by_row_fold() {
        let mut rng = SimRng::seeded(0x636F_6C73);
        for (proj, agg) in shapes() {
            for _ in 0..24 {
                let eval = RowEval::new(tree(&mut rng, 3), &proj, agg);
                // Runs shorter than, equal to and longer than a chunk,
                // folded into one accumulator like a scan's pages.
                let (mut got, mut want) = (RowAcc::default(), RowAcc::default());
                for n in [0usize, 1, 33, 63, 64, 65, 500] {
                    let (c1s, c2s) = columns(&mut rng, n);
                    eval.cols(&c1s, &c2s, &mut got);
                    for (&c1, &c2) in c1s.iter().zip(&c2s) {
                        eval.row(c1, c2, &mut want);
                    }
                    assert_eq!(got, want, "{eval:?} after a run of {n}");
                }
            }
        }
    }

    #[test]
    fn page_walk_over_a_table_equals_the_row_walk() {
        let t = table(3_300, C2_MAX, 11);
        let low_half = Predicate::Cmp {
            col: Col::C2,
            op: CmpOp::Le,
            value: C2_MAX / 2,
        };
        for (proj, agg) in shapes() {
            for pred in [low_half.clone(), Predicate::c2_between(1, 0)] {
                let eval = RowEval::new(pred, &proj, agg);
                let (mut got, mut want) = (RowAcc::default(), RowAcc::default());
                for p in 0..t.n_pages() {
                    eval.page(&t, p, &mut got);
                }
                for r in 0..t.data().rows() {
                    let (c1, c2) = t.row(r);
                    eval.row(c1, c2, &mut want);
                }
                assert_eq!(got, want, "{eval:?}");
                assert_eq!(got.examined, 3_300);
                let is_max = matches!(agg, Aggregate::Max(_));
                assert_eq!(got.agg.is_some(), is_max && got.matched > 0, "{eval:?}");
            }
        }
    }

    #[test]
    fn left_cols_hands_over_the_admitted_rows_in_order() {
        let mut rng = SimRng::seeded(0x6C65_6674);
        for _ in 0..50 {
            let p = tree(&mut rng, 2);
            let eval = RowEval::new(p.clone(), &Projection::All, Aggregate::Count);
            let (c1s, c2s) = columns(&mut rng, 150);
            let mut acc = RowAcc::default();
            let mut got = Vec::new();
            eval.left_cols(&c1s, &c2s, &mut acc, |c1, c2, _| {
                got.push((c1, c2));
                Ok::<(), ()>(())
            })
            .expect("infallible");
            let want: Vec<_> = (c1s.iter().copied().zip(c2s.iter().copied()))
                .filter(|&(c1, c2)| p.matches(c1, c2))
                .collect();
            assert_eq!(got, want, "{p:?}");
            assert_eq!((acc.examined, acc.matched), (150, 0));
            // The first error stops the walk.
            let mut seen = 0;
            let r = eval.left_cols(&c1s, &c2s, &mut acc, |_, _, _| {
                seen += 1;
                Err(())
            });
            assert_eq!((r.is_err(), seen), (!want.is_empty(), want.len().min(1)));
        }
    }

    #[test]
    fn row_eval_matches_predicate_and_fingerprints_projection() {
        let eval = RowEval::new(
            Predicate::c2_between(5, 10),
            &Projection::Cols(vec![Col::C1]),
            Aggregate::Max(Col::C1),
        );
        let mut acc = RowAcc::default();
        assert!(eval.row(7, 6, &mut acc));
        assert!(!eval.row(9, 50, &mut acc));
        assert!(eval.row(3, 10, &mut acc));
        assert_eq!(acc.matched, 2);
        assert_eq!(acc.examined, 3);
        assert_eq!(acc.agg, Some(7));
        // Fingerprint ignores the unprojected C2: same C1, any C2.
        let fp1 = row_fingerprint(&[Col::C1], 7, 6);
        let fp2 = row_fingerprint(&[Col::C1], 7, 999);
        assert_eq!(fp1, fp2);
        let mut other = RowAcc::default();
        let e2 = RowEval::new(
            Predicate::c2_between(5, 10),
            &Projection::Cols(vec![Col::C1]),
            Aggregate::Max(Col::C1),
        );
        e2.row(3, 10, &mut other);
        e2.row(7, 6, &mut other);
        // Order independence.
        assert_eq!(
            acc.fingerprint,
            other.fingerprint.wrapping_add(fp1).wrapping_sub(fp1)
        );
    }

    #[test]
    fn count_aggregate_leaves_value_none() {
        let eval = RowEval::new(Predicate::True, &Projection::All, Aggregate::Count);
        let mut acc = RowAcc::default();
        eval.row(1, 2, &mut acc);
        eval.row(3, 4, &mut acc);
        assert_eq!(acc.agg, None);
        assert_eq!(acc.matched, 2);
    }

    #[test]
    fn oracle_agrees_with_scan_page_math() {
        let t = table(5_000, u32::MAX - 1, 9);
        let q = QuerySpec::range_max(&t, None, 1 << 30, 3 << 30);
        let acc = oracle(&q);
        assert_eq!(acc.agg, t.data().naive_max_c1(1 << 30, 3 << 30));
        assert_eq!(acc.matched, t.data().count_matching(1 << 30, 3 << 30));
        assert_eq!(acc.examined, 5_000);
    }

    #[test]
    fn oracle_join_counts_key_equal_pairs() {
        let left = table(2_000, 500, 3);
        let right = table(1_500, 500, 4);
        let q = QuerySpec::scan(&left).join(JoinClause {
            right: &right,
            right_index: None,
            spill: None,
        });
        let acc = oracle(&q);
        // Brute-force pair count.
        let mut pairs = 0u64;
        let mut best: Option<u32> = None;
        for l in 0..left.data().rows() {
            let (_, lc2) = left.row(l);
            for r in 0..right.data().rows() {
                let (rc1, rc2) = right.row(r);
                if lc2 == rc2 {
                    pairs += 1;
                    best = Some(best.map_or(rc1, |b| b.max(rc1)));
                }
            }
        }
        assert!(pairs > 0, "key space of 500 must collide");
        assert_eq!(acc.matched, pairs);
        assert_eq!(acc.agg, best);
    }

    #[test]
    fn builder_composes() {
        let t = table(1_000, 100, 5);
        let q = QuerySpec::scan(&t)
            .filter(Predicate::c2_between(10, 90))
            .filter(Predicate::Cmp {
                col: Col::C1,
                op: CmpOp::Ge,
                value: 1,
            })
            .project(vec![Col::C2])
            .aggregate(Aggregate::Count);
        assert_eq!(q.predicate.terms(), 2);
        assert_eq!(q.predicate.sarg(), (10, 90));
        let acc = oracle(&q);
        assert!(acc.matched <= 1_000);
        assert_eq!(acc.agg, None);
    }
}
