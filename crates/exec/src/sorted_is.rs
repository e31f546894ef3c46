//! Sorted index scan — the access method the paper *couldn't* evaluate.
//!
//! §3.1: "Some databases support a variation of index scan in which before
//! fetching table pages, row identifiers are sorted in the order of page id.
//! In this way, each table page will be fetched at most once. ... Since SAP
//! SQL Anywhere does not support this operator, we could not consider it in
//! our experiments." We implement it as an extension so the optimizer
//! ablations can compare it (see DESIGN.md §8).
//!
//! Single worker, three phases:
//! 1. root→leaf traversal, then leaf pages streamed with a prefetch ring;
//! 2. qualifying row ids sorted by page id (costed `k·log₂k` CPU);
//! 3. each distinct table page fetched exactly once, ascending, with an
//!    active-waiting prefetch ring of configurable depth — so even this
//!    non-parallel operator sustains a deep I/O queue on SSD.
//!
//! The scan is a [`QueryDriver`] (see `driver.rs`): what used to be three
//! blocking wait loops is now one resumable state machine (`pump`), so the
//! operator can share its context with concurrent queries.

use crate::driver::{QueryAnswer, QueryDriver};
use crate::engine::{Event, ExecError, RetryPolicy, SimContext};
use crate::query::{RowAcc, RowEval};
use crate::window::{Descent, IoWindow, Landed};
use pioqo_storage::{BTreeIndex, HeapTable, LeafRange};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Sorted-index-scan configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SortedIsConfig {
    /// Outstanding table-page reads kept in flight during phase 3
    /// (the operator's effective I/O queue depth).
    pub prefetch_depth: u32,
    /// Outstanding leaf-page reads kept in flight during phase 1.
    pub leaf_prefetch: u32,
    /// Retry/timeout policy for the scan's reads (default: no retries).
    pub retry: RetryPolicy,
}

impl Default for SortedIsConfig {
    fn default() -> Self {
        SortedIsConfig {
            prefetch_depth: 32,
            leaf_prefetch: 8,
            retry: RetryPolicy::default(),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Traverse,
    /// The ring runs over `leaves`.
    Leaves,
    Sort,
    /// The ring runs over `pages`.
    Fetch,
    Done,
}

/// Who a read or compute task of this operator is for.
#[derive(Clone, Copy)]
enum Party {
    Traverse,
    Sort,
    /// The ring item at this index of the phase's item list.
    Item(usize),
}

/// An ordered read-ahead ring over an item list: items `[head, next)` have
/// their page read issued, `head` is the one being consumed, and items are
/// consumed strictly in list order however their reads land.
#[derive(Default)]
struct Ring {
    head: usize,
    next: usize,
    /// Per item of `[head, next)`: a read of its page landed since it was
    /// last found missing.
    landed: VecDeque<bool>,
    /// The head's compute (leaf decode / row lookups) is in flight.
    busy: bool,
}

/// The sorted-index-scan state machine. See the module docs.
pub struct SortedIsDriver<'q> {
    cfg: SortedIsConfig,
    table: &'q HeapTable,
    index: &'q BTreeIndex,
    eval: RowEval,
    low: u32,
    high: u32,
    range: Option<LeafRange>,
    descent: Descent,
    phase: Phase,
    /// Reads and compute in flight.
    win: IoWindow<Party>,
    ring: Ring,
    leaves: Vec<u64>,
    rids: Vec<u64>,
    pages: Vec<(u64, Vec<u64>)>,
    acc: RowAcc,
    op_track: u32,
}

impl<'q> SortedIsDriver<'q> {
    /// A driver evaluating `eval` with a sorted index scan: the index
    /// covers the predicate's sarg window on `C2`, the full tree is applied
    /// as a residual on each fetched row.
    pub fn new(
        cfg: SortedIsConfig,
        table: &'q HeapTable,
        index: &'q BTreeIndex,
        eval: RowEval,
    ) -> SortedIsDriver<'q> {
        let (low, high) = eval.sarg();
        SortedIsDriver {
            cfg,
            table,
            index,
            eval,
            low,
            high,
            range: None,
            descent: Descent::new(Vec::new()),
            phase: Phase::Traverse,
            win: IoWindow::new("sorted_is"),
            ring: Ring::default(),
            leaves: Vec::new(),
            rids: Vec::new(),
            pages: Vec::new(),
            acc: RowAcc::default(),
            op_track: 0,
        }
    }

    /// Device page of ring item `i` in the current phase.
    fn ring_page(&self, i: usize) -> u64 {
        match self.phase {
            Phase::Leaves => self.index.device_page_of_leaf(self.leaves[i]),
            _ => self.table.device_page(self.pages[i].0),
        }
    }

    /// Advance the machine as far as it can go without waiting.
    fn pump(&mut self, ctx: &mut SimContext<'_>) {
        loop {
            match self.phase {
                Phase::Traverse => {
                    if !self.descent.advance(&mut self.win, ctx, Party::Traverse) {
                        return;
                    }
                    ctx.trace_span_end(self.op_track, "sorted_is_traverse");
                    let Some(range) = self.range else {
                        // Nothing qualifies; the traversal cost is the
                        // whole runtime.
                        self.phase = Phase::Done;
                        return;
                    };
                    ctx.trace_span_begin(self.op_track, "sorted_is_leaves");
                    self.leaves = (range.first_leaf..=range.last_leaf).collect();
                    self.rids = Vec::with_capacity(range.len() as usize);
                    self.phase = Phase::Leaves;
                }
                Phase::Leaves => {
                    if !self.pump_ring(ctx, self.leaves.len(), self.cfg.leaf_prefetch) {
                        return;
                    }
                    ctx.trace_span_end(self.op_track, "sorted_is_leaves");
                    ctx.trace_span_begin(self.op_track, "sorted_is_sort");
                    // Phase 2: sort row ids into page order (row id order
                    // == page order in a heap table), charging k·log2(k)
                    // CPU.
                    let k = self.rids.len() as f64;
                    if k > 1.0 {
                        let work = k * k.log2() * ctx.costs().sort_entry_us;
                        self.win.compute(ctx, work, Party::Sort);
                        self.phase = Phase::Sort;
                        return;
                    }
                    self.finish_sort(ctx);
                }
                Phase::Fetch => {
                    if self.pump_ring(ctx, self.pages.len(), self.cfg.prefetch_depth) {
                        ctx.trace_span_end(self.op_track, "sorted_is_fetch");
                        self.phase = Phase::Done;
                    }
                    return;
                }
                Phase::Sort | Phase::Done => return,
            }
        }
    }

    /// Serve the head of the ring over the phase's `n` items, keeping up
    /// to `depth` reads ahead of it — issued whether or not the page is
    /// resident. `true` once every item is consumed; `false` while the
    /// head's read or compute is outstanding.
    fn pump_ring(&mut self, ctx: &mut SimContext<'_>, n: usize, depth: u32) -> bool {
        if self.ring.busy {
            return false;
        }
        while self.ring.next < n && self.ring.next - self.ring.head < depth.max(1) as usize {
            let dp = self.ring_page(self.ring.next);
            self.win.prefetch_page(ctx, dp, Party::Item(self.ring.next));
            self.ring.landed.push_back(false);
            self.ring.next += 1;
        }
        if self.ring.head == n {
            self.ring = Ring::default();
            return true;
        }
        if self.ring.landed[0] {
            let i = self.ring.head;
            if self.win.pin(ctx, self.ring_page(i), Party::Item(i)) {
                let costs = ctx.costs();
                let work = if self.phase == Phase::Leaves {
                    let entries = self.index.leaf_entry_range(self.leaves[i]);
                    let n = (entries.end - entries.start) as f64;
                    costs.leaf_decode_us + n * costs.entry_decode_us
                } else {
                    self.pages[i].1.len() as f64 * costs.row_lookup_us
                };
                self.win.compute(ctx, work, Party::Item(i));
                self.ring.busy = true;
            } else {
                // Evicted by a pathologically small pool: parked on a
                // demand re-read.
                self.ring.landed[0] = false;
            }
        }
        false
    }

    /// Ring item `i`'s compute finished: fold it in and release its page.
    fn consume(&mut self, ctx: &mut SimContext<'_>, i: usize) -> Result<(), ExecError> {
        if self.phase == Phase::Leaves {
            let range = self.range.expect("leaf phase requires a range");
            let entries = self.index.leaf_entry_range(self.leaves[i]);
            let from = entries.start.max(range.first_entry);
            let to = entries.end.min(range.end_entry);
            self.rids.extend((from..to).map(|e| self.index.entry(e).1));
        } else {
            for &rid in &self.pages[i].1 {
                let (c1, c2) = self.table.row(rid);
                debug_assert!(c2 >= self.low && c2 <= self.high);
                // Residual check beyond the sarg window.
                self.eval.row(c1, c2, &mut self.acc);
            }
        }
        ctx.pool.unpin(self.ring_page(i))?;
        self.ring.landed.pop_front();
        self.ring.head += 1;
        self.ring.busy = false;
        Ok(())
    }

    /// Phase 2 → phase 3 transition: sort, group consecutive rids by table
    /// page, open the fetch ring.
    fn finish_sort(&mut self, ctx: &mut SimContext<'_>) {
        self.rids.sort_unstable();
        ctx.trace_span_end(self.op_track, "sorted_is_sort");
        let mut pages: Vec<(u64, Vec<u64>)> = Vec::new();
        for &rid in &self.rids {
            let p = self.table.spec().page_of_row(rid);
            match pages.last_mut() {
                Some((lp, v)) if *lp == p => v.push(rid),
                _ => pages.push((p, vec![rid])),
            }
        }
        self.pages = pages;
        ctx.trace_span_begin(self.op_track, "sorted_is_fetch");
        self.phase = Phase::Fetch;
    }
}

impl QueryDriver for SortedIsDriver<'_> {
    fn operator(&self) -> &'static str {
        "sorted_is"
    }

    fn start(&mut self, ctx: &mut SimContext<'_>) -> Result<(), ExecError> {
        self.op_track = ctx.trace_track("sorted_is");
        ctx.trace_span_begin(self.op_track, "sorted_is_traverse");
        self.range = if self.low <= self.high {
            self.index.range(self.low, self.high)
        } else {
            None // inverted sarg: the predicate matches nothing
        };
        let probe_leaf = self.range.map_or(0, |r| r.first_leaf);
        self.descent = Descent::new(self.index.path_to_leaf(probe_leaf));
        self.pump(ctx);
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: &Event) -> Result<(), ExecError> {
        let Some(landed) = self.win.landed(ctx, ev)? else {
            return Ok(());
        };
        match landed {
            Landed::Read { credit, parked, .. } => {
                for who in credit.into_iter().chain(parked) {
                    let Party::Item(i) = who else { continue };
                    let slot = i.checked_sub(self.ring.head);
                    if let Some(flag) = slot.and_then(|k| self.ring.landed.get_mut(k)) {
                        *flag = true;
                    }
                }
            }
            Landed::Cpu(Party::Traverse) => self.descent.decoded(ctx)?,
            Landed::Cpu(Party::Sort) => self.finish_sort(ctx),
            Landed::Cpu(Party::Item(i)) => self.consume(ctx, i)?,
            Landed::Write => {}
        }
        self.pump(ctx);
        Ok(())
    }

    fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    fn answer(&self) -> QueryAnswer {
        QueryAnswer::from_acc(&self.acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuConfig;
    use crate::engine::CpuCosts;
    use crate::execute::{execute, PlanSpec};
    use crate::is::IsConfig;
    use crate::metrics::ScanMetrics;
    use crate::query::QuerySpec;
    use pioqo_bufpool::BufferPool;
    use pioqo_device::presets::consumer_pcie_ssd;
    use pioqo_storage::{range_for_selectivity, TableSpec, Tablespace};

    fn fixture(rows: u64, rpp: u32) -> (HeapTable, BTreeIndex, u64) {
        let spec = TableSpec::paper_table(rpp, rows, 31);
        let mut ts = Tablespace::new(4 * spec.n_pages() + 1000);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        let index = BTreeIndex::build(
            "c2_idx",
            table.data().c2_entries(),
            table.spec().page_size,
            &mut ts,
        )
        .expect("fits");
        let cap = ts.capacity();
        (table, index, cap)
    }

    fn run(
        fx: &(HeapTable, BTreeIndex, u64),
        sel: f64,
        plan: &PlanSpec,
        pool_frames: usize,
    ) -> ScanMetrics {
        let mut dev = consumer_pcie_ssd(fx.2, 13);
        let mut pool = BufferPool::new(pool_frames);
        let (low, high) = range_for_selectivity(sel, u32::MAX - 1);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        execute(
            &mut ctx,
            &QuerySpec::range_max(&fx.0, Some(&fx.1), low, high).with_plan(plan.clone()),
        )
        .expect("scan runs")
    }

    fn scan(fx: &(HeapTable, BTreeIndex, u64), sel: f64, cfg: &SortedIsConfig) -> ScanMetrics {
        run(fx, sel, &PlanSpec::SortedIs(cfg.clone()), 4096)
    }

    #[test]
    fn result_matches_oracle() {
        let fx = fixture(20_000, 33);
        for sel in [0.0, 0.01, 0.3] {
            let (low, high) = range_for_selectivity(sel, u32::MAX - 1);
            let m = scan(&fx, sel, &SortedIsConfig::default());
            assert_eq!(m.max_c1, fx.0.data().naive_max_c1(low, high), "sel={sel}");
        }
    }

    #[test]
    fn each_page_fetched_at_most_once() {
        let fx = fixture(40_000, 33);
        // High selectivity, pool big enough: page count bounded by
        // table + index pages (the operator's defining property).
        let m = scan(&fx, 0.8, &SortedIsConfig::default());
        assert!(m.io.pages_read <= fx.0.n_pages() + fx.1.n_pages());
        assert_eq!(m.pool.refetches, 0);
    }

    #[test]
    fn deep_ring_sustains_queue_depth() {
        let fx = fixture(60_000, 33);
        let shallow = scan(
            &fx,
            0.05,
            &SortedIsConfig {
                prefetch_depth: 1,
                leaf_prefetch: 1,
                ..SortedIsConfig::default()
            },
        );
        let deep = scan(&fx, 0.05, &SortedIsConfig::default());
        assert!(
            deep.io.mean_queue_depth > shallow.io.mean_queue_depth * 4.0,
            "{} vs {}",
            shallow.io.mean_queue_depth,
            deep.io.mean_queue_depth
        );
        assert!(deep.runtime < shallow.runtime);
    }

    #[test]
    fn beats_plain_is_at_high_selectivity() {
        let fx = fixture(40_000, 33);
        // Small pool: plain IS will refetch.
        let plain = run(&fx, 0.5, &PlanSpec::Is(IsConfig::default()), 512);
        let sorted = run(
            &fx,
            0.5,
            &PlanSpec::SortedIs(SortedIsConfig::default()),
            512,
        );
        assert_eq!(plain.max_c1, sorted.max_c1);
        assert!(
            sorted.runtime < plain.runtime,
            "sorted IS should win at high selectivity: {} vs {}",
            plain.runtime,
            sorted.runtime
        );
    }
}
