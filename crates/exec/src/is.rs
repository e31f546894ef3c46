//! Index scan (IS) and parallel index scan (PIS), with per-worker
//! asynchronous prefetching.
//!
//! Mirrors the paper's Fig. 3, §2 and §3.3: one worker traverses the index
//! root→leaf to find the qualifying leaf range; leaf pages are then consumed
//! one at a time by the worker pool; for every `(key, row_id)` tuple the
//! worker fetches the row's table page through the buffer pool. Because each
//! worker's inter-request gap is far below device latency, the observed
//! device queue depth equals the worker count — the property the QDTT model
//! prices.
//!
//! Prefetching (§3.3): each of the M workers keeps up to `n` asynchronous
//! table-page reads outstanding, but only for pages referenced by its
//! *current* leaf page (the paper's simplification), so the expected peak
//! queue depth is `M·n` and tails off near leaf boundaries.
//!
//! The pushed-down [`RowEval`] supplies the index window: the scan covers
//! the predicate's [`sarg`](crate::query::Predicate::sarg) range on `C2`
//! and re-checks the full tree on each fetched row (the residual check is
//! free for a pure BETWEEN — the sarg *is* the predicate).
//!
//! The scan is a [`QueryDriver`] (see `driver.rs`): the root-to-leaf
//! traversal, formerly a blocking loop, is itself a small state machine so
//! the whole operator can share a context with other queries.

use crate::driver::{QueryAnswer, QueryDriver};
use crate::engine::{Event, ExecError, RetryPolicy, SimContext};
use crate::query::{RowAcc, RowEval};
use crate::window::{Descent, IoWindow, Landed};
use pioqo_storage::{BTreeIndex, HeapTable, LeafRange};
use serde::{Deserialize, Serialize};

/// Index-scan configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IsConfig {
    /// Parallel degree (1 = the non-parallel IS).
    pub workers: u32,
    /// Per-worker asynchronous prefetch depth over the current leaf's table
    /// pages (0 disables prefetching — the paper's baseline PIS).
    pub prefetch_depth: u32,
    /// Retry/timeout policy for the scan's reads (default: no retries).
    pub retry: RetryPolicy,
}

impl Default for IsConfig {
    fn default() -> Self {
        IsConfig {
            workers: 1,
            prefetch_depth: 0,
            retry: RetryPolicy::default(),
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum WState {
    Startup,
    WaitLeaf,
    DecodeLeaf,
    WaitRow,
    ComputeRow,
    Done,
}

struct Worker {
    state: WState,
    /// Index-local leaf currently owned.
    leaf: u64,
    /// Chunk of the leaf owned (0-based; leaves are split into chunks when
    /// the qualifying leaf range is smaller than the worker pool).
    chunk: u64,
    /// Qualifying rows of the current leaf chunk, in key order.
    rows: Vec<IndexRow>,
    /// Next entry to process.
    pos: usize,
    /// Next entry to prefetch.
    pf_pos: usize,
    /// Prefetch reads in flight for this worker.
    outstanding_pf: u32,
}

enum Phase {
    /// Phase 0: one worker walks root→leaf (§2).
    Traverse,
    Scan,
}

/// The party the traversal runs as; the scan's workers do not exist yet.
const TRAVERSER: usize = 0;

/// A qualifying index entry with its row: `(device page, C1, C2)`, the
/// device page being the table page that holds the row.
pub(crate) type IndexRow = (u64, u32, u32);

/// Replace `out` with the rows of C2-index entries `entries`, gathered
/// when their leaf is decoded: C2 is the entry's key, C1 and the row's
/// device page are worked out here, in one loop whose column loads
/// overlap, so the per-row steps later touch no column memory and divide
/// nothing. Heap columns never change, so reading them early is invisible
/// to the simulation.
pub(crate) fn gather_rows(
    index: &BTreeIndex,
    table: &HeapTable,
    entries: std::ops::Range<u64>,
    out: &mut Vec<IndexRow>,
) {
    out.clear();
    out.extend(entries.map(|i| {
        let (key, rid) = index.entry(i);
        debug_assert_eq!(key, table.data().c2(rid), "index key is the row's C2");
        let dp = table.device_page(table.spec().page_of_row(rid));
        (dp, table.data().c1(rid), key)
    }));
}

/// The (parallel) index-scan state machine. See the module docs.
pub struct IsDriver<'q> {
    cfg: IsConfig,
    table: &'q HeapTable,
    index: &'q BTreeIndex,
    eval: RowEval,
    low: u32,
    high: u32,
    range: Option<LeafRange>,
    phase: Phase,
    descent: Descent,
    workers: Vec<Worker>,
    chunks_per_leaf: u64,
    total_units: u64,
    unit_cursor: u64,
    /// Reads and compute in flight, by worker.
    win: IoWindow<usize>,
    acc: RowAcc,
    op_track: u32,
    finished: bool,
}

impl<'q> IsDriver<'q> {
    /// A driver evaluating `eval` with a (parallel) index scan over the
    /// `C2` B+-tree: the index covers the predicate's sarg window, the full
    /// tree is applied as a residual on each fetched row.
    pub fn new(
        cfg: IsConfig,
        table: &'q HeapTable,
        index: &'q BTreeIndex,
        eval: RowEval,
    ) -> IsDriver<'q> {
        let (low, high) = eval.sarg();
        IsDriver {
            cfg,
            table,
            index,
            eval,
            low,
            high,
            range: None,
            phase: Phase::Traverse,
            descent: Descent::new(Vec::new()),
            workers: Vec::new(),
            chunks_per_leaf: 1,
            total_units: 0,
            unit_cursor: 0,
            win: IoWindow::new("is"),
            acc: RowAcc::default(),
            op_track: 0,
            finished: false,
        }
    }

    /// Push the traversal as far as it can go without waiting; past the
    /// leaf, switch to the scan phase.
    fn advance_traverse(&mut self, ctx: &mut SimContext<'_>) {
        if !self.descent.advance(&mut self.win, ctx, TRAVERSER) {
            return;
        }
        ctx.trace_span_end(self.op_track, "is_traverse");
        match self.range {
            // Nothing qualifies; the traversal cost is the whole runtime.
            None => self.finished = true,
            Some(_) => self.enter_scan(ctx),
        }
    }

    /// Start phase 1: workers drain the leaf range.
    fn enter_scan(&mut self, ctx: &mut SimContext<'_>) {
        let range = self.range.expect("scan phase requires a range");
        ctx.trace_span_begin(self.op_track, "is_scan");
        self.phase = Phase::Scan;
        self.workers = (0..self.cfg.workers)
            .map(|_| Worker {
                state: WState::Startup,
                leaf: 0,
                chunk: 0,
                rows: Vec::new(),
                pos: 0,
                pf_pos: 0,
                outstanding_pf: 0,
            })
            .collect();
        // Work units: when fewer qualifying leaves than workers, each leaf
        // is split into chunks so every worker stays busy (very selective
        // queries otherwise idle most of the pool — §2 notes the queue
        // depth only reaches n when enough leaf pages qualify).
        let n_range_leaves = range.last_leaf - range.first_leaf + 1;
        self.chunks_per_leaf =
            ((self.cfg.workers as u64 * 2).div_ceil(n_range_leaves)).clamp(1, 16);
        self.total_units = n_range_leaves * self.chunks_per_leaf;
        self.unit_cursor = 0;
        for w in 0..self.workers.len() {
            let startup = if self.cfg.workers > 1 {
                ctx.costs().worker_startup_us
            } else {
                0.0
            };
            self.win.compute(ctx, startup, w);
        }
    }

    /// Keep worker `w`'s prefetch credit spent on the non-resident table
    /// pages of its current leaf.
    fn top_up_prefetch(&mut self, ctx: &mut SimContext<'_>, w: usize) {
        let depth = self.cfg.prefetch_depth;
        if depth == 0 {
            return;
        }
        let worker = &mut self.workers[w];
        worker.pf_pos = worker.pf_pos.max(worker.pos);
        while worker.outstanding_pf < depth {
            let Some(&(dp, ..)) = worker.rows.get(worker.pf_pos) else {
                break;
            };
            worker.pf_pos += 1;
            if !ctx.pool.contains(dp) {
                self.win.prefetch_page(ctx, dp, w);
                worker.outstanding_pf += 1;
            }
        }
    }

    fn claim_leaf(&mut self, ctx: &mut SimContext<'_>, w: usize) {
        if self.unit_cursor >= self.total_units {
            self.workers[w].state = WState::Done;
            return;
        }
        let range = self.range.expect("scan phase requires a range");
        let unit = self.unit_cursor;
        self.unit_cursor += 1;
        self.workers[w].leaf = range.first_leaf + unit / self.chunks_per_leaf;
        self.workers[w].chunk = unit % self.chunks_per_leaf;
        self.fetch_leaf(ctx, w);
    }

    /// Pin worker `w`'s leaf and start decoding it, or park on its read.
    fn fetch_leaf(&mut self, ctx: &mut SimContext<'_>, w: usize) {
        let leaf = self.workers[w].leaf;
        if !self.win.pin(ctx, self.index.device_page_of_leaf(leaf), w) {
            self.workers[w].state = WState::WaitLeaf;
            return;
        }
        let r = self.index.leaf_entry_range(leaf);
        let n = (r.end - r.start) as f64;
        // Chunked leaves share the decode work across their owners.
        let work = (ctx.costs().leaf_decode_us + n * ctx.costs().entry_decode_us)
            / self.chunks_per_leaf as f64;
        self.win.compute(ctx, work, w);
        self.workers[w].state = WState::DecodeLeaf;
    }

    fn next_entry(&mut self, ctx: &mut SimContext<'_>, w: usize) {
        if self.workers[w].pos >= self.workers[w].rows.len() {
            // Current leaf exhausted: move to the next one. The decode
            // completion (or retirement) continues the cycle.
            self.claim_leaf(ctx, w);
            return;
        }
        self.top_up_prefetch(ctx, w);
        self.fetch_row(ctx, w);
    }

    /// Pin the table page of worker `w`'s current entry and start the row
    /// lookup, or park on its read.
    fn fetch_row(&mut self, ctx: &mut SimContext<'_>, w: usize) {
        let (dp, ..) = self.workers[w].rows[self.workers[w].pos];
        if !self.win.pin(ctx, dp, w) {
            self.workers[w].state = WState::WaitRow;
            return;
        }
        let work = ctx.costs().row_lookup_us;
        self.win.compute(ctx, work, w);
        self.workers[w].state = WState::ComputeRow;
    }

    fn on_scan_cpu(&mut self, ctx: &mut SimContext<'_>, w: usize) -> Result<(), ExecError> {
        match self.workers[w].state {
            WState::Startup => self.claim_leaf(ctx, w),
            WState::DecodeLeaf => {
                // Leaf decoded: gather this chunk's qualifying rows.
                let range = self.range.expect("scan phase requires a range");
                let leaf = self.workers[w].leaf;
                ctx.pool.unpin(self.index.device_page_of_leaf(leaf))?;
                let entry_range = self.index.leaf_entry_range(leaf);
                let from = entry_range.start.max(range.first_entry);
                let to = entry_range.end.min(range.end_entry);
                let span = to.saturating_sub(from);
                let chunk_sz = span.div_ceil(self.chunks_per_leaf);
                let cfrom = (from + self.workers[w].chunk * chunk_sz).min(to);
                let cto = (cfrom + chunk_sz).min(to);
                gather_rows(
                    self.index,
                    self.table,
                    cfrom..cto,
                    &mut self.workers[w].rows,
                );
                self.workers[w].pos = 0;
                self.workers[w].pf_pos = 0;
                self.next_entry(ctx, w);
            }
            WState::ComputeRow => {
                let (dp, c1, c2) = self.workers[w].rows[self.workers[w].pos];
                debug_assert!(c2 >= self.low && c2 <= self.high);
                // Residual check: the sarg cover guarantees the C2 window,
                // the full tree may reject on other terms.
                self.eval.row(c1, c2, &mut self.acc);
                ctx.pool.unpin(dp)?;
                self.workers[w].pos += 1;
                self.next_entry(ctx, w);
            }
            _ => {
                return Err(ExecError::Internal {
                    detail: "cpu completion in unexpected state",
                })
            }
        }
        Ok(())
    }

    fn maybe_finish(&mut self, ctx: &mut SimContext<'_>) {
        if !self.finished
            && matches!(self.phase, Phase::Scan)
            && self.workers.iter().all(|w| matches!(w.state, WState::Done))
        {
            ctx.trace_span_end(self.op_track, "is_scan");
            self.finished = true;
        }
    }
}

impl QueryDriver for IsDriver<'_> {
    fn operator(&self) -> &'static str {
        "is"
    }

    fn start(&mut self, ctx: &mut SimContext<'_>) -> Result<(), ExecError> {
        self.op_track = ctx.trace_track("is");
        ctx.trace_span_begin(self.op_track, "is_traverse");
        self.range = if self.low <= self.high {
            self.index.range(self.low, self.high)
        } else {
            None // inverted sarg: the predicate matches nothing
        };
        let probe_leaf = self.range.map_or(0, |r| r.first_leaf);
        self.descent = Descent::new(self.index.path_to_leaf(probe_leaf));
        self.advance_traverse(ctx);
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: &Event) -> Result<(), ExecError> {
        let Some(landed) = self.win.landed(ctx, ev)? else {
            return Ok(());
        };
        match (&self.phase, landed) {
            (Phase::Traverse, Landed::Cpu(_)) => {
                self.descent.decoded(ctx)?;
                self.advance_traverse(ctx);
            }
            (Phase::Traverse, _) => self.advance_traverse(ctx),
            (Phase::Scan, Landed::Read { credit, parked, .. }) => {
                // Prefetch credit back to issuing workers.
                for w in credit {
                    self.workers[w].outstanding_pf -= 1;
                    if !matches!(self.workers[w].state, WState::Done) {
                        self.top_up_prefetch(ctx, w);
                    }
                }
                // Wake workers blocked on this page.
                for w in parked {
                    match self.workers[w].state {
                        WState::WaitLeaf => self.fetch_leaf(ctx, w),
                        WState::WaitRow => self.fetch_row(ctx, w),
                        _ => {
                            return Err(ExecError::Internal {
                                detail: "waiter in unexpected state",
                            })
                        }
                    }
                }
            }
            (Phase::Scan, Landed::Cpu(w)) => self.on_scan_cpu(ctx, w)?,
            (Phase::Scan, Landed::Write) => {}
        }
        self.maybe_finish(ctx);
        Ok(())
    }

    fn done(&self) -> bool {
        self.finished
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
    use crate::metrics::ScanMetrics;
    use crate::query::{oracle, QuerySpec};
    use pioqo_bufpool::BufferPool;
    use pioqo_device::presets::{consumer_pcie_ssd, hdd_7200};
    use pioqo_storage::{range_for_selectivity, TableSpec, Tablespace};

    struct Fixture {
        table: HeapTable,
        index: BTreeIndex,
        capacity: u64,
    }

    fn fixture(rows: u64, rpp: u32) -> Fixture {
        let spec = TableSpec::paper_table(rpp, rows, 55);
        let mut ts = Tablespace::new(4 * spec.n_pages() + 1000);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        let index = BTreeIndex::build(
            "c2_idx",
            table.data().c2_entries(),
            table.spec().page_size,
            &mut ts,
        )
        .expect("fits");
        let capacity = ts.capacity();
        Fixture {
            table,
            index,
            capacity,
        }
    }

    fn scan(fx: &Fixture, sel: f64, cfg: &IsConfig, ssd: bool, pool_frames: usize) -> ScanMetrics {
        let mut pool = BufferPool::new(pool_frames);
        let (low, high) = range_for_selectivity(sel, u32::MAX - 1);
        let q = QuerySpec::range_max(&fx.table, Some(&fx.index), low, high)
            .with_plan(PlanSpec::Is(cfg.clone()));
        if ssd {
            let mut dev = consumer_pcie_ssd(fx.capacity, 13);
            let mut ctx = SimContext::new(
                &mut dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            execute(&mut ctx, &q).expect("scan runs")
        } else {
            let mut dev = hdd_7200(fx.capacity, 13);
            let mut ctx = SimContext::new(
                &mut dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            execute(&mut ctx, &q).expect("scan runs")
        }
    }

    #[test]
    fn result_matches_oracle() {
        let fx = fixture(20_000, 33);
        for sel in [0.0, 0.003, 0.05, 0.4] {
            let (low, high) = range_for_selectivity(sel, u32::MAX - 1);
            let m = scan(&fx, sel, &IsConfig::default(), true, 4096);
            assert_eq!(
                m.max_c1,
                fx.table.data().naive_max_c1(low, high),
                "sel={sel}"
            );
            assert_eq!(m.rows_matched, fx.table.data().count_matching(low, high));
            let acc = oracle(&QuerySpec::range_max(&fx.table, None, low, high));
            assert_eq!(m.fingerprint, acc.fingerprint, "sel={sel}");
        }
    }

    #[test]
    fn all_configs_agree_on_answer() {
        let fx = fixture(20_000, 33);
        let base = scan(&fx, 0.05, &IsConfig::default(), true, 4096);
        for (workers, pf) in [(4u32, 0u32), (32, 0), (1, 8), (4, 8)] {
            let m = scan(
                &fx,
                0.05,
                &IsConfig {
                    workers,
                    prefetch_depth: pf,
                    ..IsConfig::default()
                },
                true,
                4096,
            );
            assert_eq!(m.max_c1, base.max_c1, "w={workers} pf={pf}");
            assert_eq!(m.rows_matched, base.rows_matched);
            assert_eq!(m.fingerprint, base.fingerprint, "w={workers} pf={pf}");
        }
    }

    #[test]
    fn residual_predicate_filters_fetched_rows() {
        use crate::query::{CmpOp, Col, Predicate};
        let fx = fixture(20_000, 33);
        let (low, high) = range_for_selectivity(0.1, u32::MAX - 1);
        // Index covers the C2 window; the C1 term is a residual that
        // rejects roughly half the fetched rows.
        let q = QuerySpec::range_max(&fx.table, Some(&fx.index), low, high)
            .filter(Predicate::Cmp {
                col: Col::C1,
                op: CmpOp::Ge,
                value: u32::MAX / 2,
            })
            .with_plan(PlanSpec::Is(IsConfig::default()));
        let mut dev = consumer_pcie_ssd(fx.capacity, 13);
        let mut pool = BufferPool::new(4096);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let m = execute(&mut ctx, &q).expect("scan runs");
        let acc = oracle(&q);
        assert_eq!(m.max_c1, acc.agg);
        assert_eq!(m.rows_matched, acc.matched);
        assert_eq!(m.fingerprint, acc.fingerprint);
        // examined counts every index-fetched row; matched only residual
        // survivors.
        assert_eq!(
            m.rows_examined,
            fx.table.data().count_matching(low, high),
            "examined = rows in the sarg cover"
        );
        assert!(m.rows_matched < m.rows_examined);
        assert!(m.rows_matched > 0);
    }

    #[test]
    fn queue_depth_tracks_worker_count() {
        // §2: "the I/O pattern of PIS with parallel degree n is the parallel
        // random I/O with constant queue depth of n."
        let fx = fixture(60_000, 33);
        let m8 = scan(
            &fx,
            0.08,
            &IsConfig {
                workers: 8,
                prefetch_depth: 0,
                ..IsConfig::default()
            },
            true,
            8192,
        );
        assert!(
            (4.0..=9.0).contains(&m8.io.mean_queue_depth),
            "PIS8 mean queue depth should be near 8: {}",
            m8.io.mean_queue_depth
        );
        assert!(m8.io.peak_queue_depth <= 10.0);
    }

    #[test]
    fn parallelism_speeds_up_index_scan_on_ssd() {
        let fx = fixture(60_000, 33);
        let m1 = scan(&fx, 0.05, &IsConfig::default(), true, 8192);
        let m16 = scan(
            &fx,
            0.05,
            &IsConfig {
                workers: 16,
                prefetch_depth: 0,
                ..IsConfig::default()
            },
            true,
            8192,
        );
        let speedup = m1.runtime.as_secs_f64() / m16.runtime.as_secs_f64();
        assert!(speedup > 6.0, "PIS16 on SSD should fly: {speedup}");
    }

    #[test]
    fn parallelism_helps_only_modestly_on_hdd() {
        // Enough matching rows that the leaf range exceeds the worker
        // count (PIS parallelism is per leaf page, Fig. 3).
        let fx = fixture(60_000, 33);
        let m1 = scan(&fx, 0.2, &IsConfig::default(), false, 8192);
        let m32 = scan(
            &fx,
            0.2,
            &IsConfig {
                workers: 32,
                prefetch_depth: 0,
                ..IsConfig::default()
            },
            false,
            8192,
        );
        let speedup = m1.runtime.as_secs_f64() / m32.runtime.as_secs_f64();
        // Paper: ~2.4-2.5x on their spindle; our seek model gives a bit
        // more (the band is a small slice of the device), but it must stay
        // an order of magnitude below the SSD's scaling.
        assert!(
            (1.5..=10.0).contains(&speedup),
            "HDD PIS speedup out of range: {speedup}"
        );
    }

    #[test]
    fn prefetching_raises_queue_depth_and_speed() {
        let fx = fixture(60_000, 33);
        let plain = scan(
            &fx,
            0.05,
            &IsConfig {
                workers: 2,
                prefetch_depth: 0,
                ..IsConfig::default()
            },
            true,
            8192,
        );
        let pf = scan(
            &fx,
            0.05,
            &IsConfig {
                workers: 2,
                prefetch_depth: 8,
                ..IsConfig::default()
            },
            true,
            8192,
        );
        assert!(
            pf.io.mean_queue_depth > plain.io.mean_queue_depth * 2.0,
            "prefetch should deepen the queue: {} vs {}",
            plain.io.mean_queue_depth,
            pf.io.mean_queue_depth
        );
        assert!(
            pf.runtime < plain.runtime,
            "prefetch should speed up the scan: {} vs {}",
            plain.runtime,
            pf.runtime
        );
    }

    #[test]
    fn small_pool_causes_refetches() {
        let fx = fixture(40_000, 33);
        // High selectivity + tiny pool: pages re-fetched (§2).
        let m = scan(&fx, 0.6, &IsConfig::default(), true, 64);
        assert!(
            m.pool.refetches > 0,
            "tiny pool at high selectivity must refetch"
        );
        assert!(m.io.pages_read > fx.table.n_pages());
    }

    #[test]
    fn empty_result_still_traverses_index() {
        let fx = fixture(10_000, 33);
        let m = scan(&fx, 0.0, &IsConfig::default(), true, 1024);
        assert_eq!(m.max_c1, None);
        assert_eq!(m.rows_matched, 0);
        assert!(m.io.io_ops >= 1, "root path should be read");
    }

    #[test]
    fn io_error_surfaces() {
        let fx = fixture(5_000, 33);
        let dev = consumer_pcie_ssd(fx.capacity, 3);
        let mut dev = pioqo_device::Faulty::new(dev, pioqo_device::FaultPlan::EveryNth(4));
        let mut pool = BufferPool::new(1024);
        let (low, high) = range_for_selectivity(0.2, u32::MAX - 1);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let r = execute(
            &mut ctx,
            &QuerySpec::range_max(&fx.table, Some(&fx.index), low, high)
                .with_plan(PlanSpec::Is(IsConfig::default())),
        );
        assert!(matches!(r, Err(ExecError::Io { operator: "is", .. })));
    }
}
