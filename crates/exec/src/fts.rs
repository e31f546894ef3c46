//! Full table scan (FTS) and parallel full table scan (PFTS).
//!
//! Mirrors the paper's Fig. 2 and §2: a shared page cursor hands the next
//! unprocessed page to whichever worker finishes first; an asynchronous
//! prefetcher reads *blocks of consecutive pages* up to `prefetch_blocks`
//! blocks ahead of the scan frontier, so workers usually find their next
//! page already in the buffer pool and the device sees a sequential I/O
//! pattern. With rows-per-page high the scan is CPU-bound; with it low the
//! scan is bound by sequential bandwidth — exactly the regimes of Table 3.
//!
//! The predicate tree, projection and aggregate are pushed down as a
//! compiled [`RowEval`]: each page is evaluated exactly once, in place,
//! when its compute task completes — [`RowEval::page`] takes the page's
//! two column slices, one match mask per 64 rows, and folds the matching
//! rows only — and the per-page CPU charge scales with the predicate's
//! comparison-leaf count.
//!
//! The scan is a [`QueryDriver`]: it owns no event loop of its own and can
//! therefore run alone (via [`crate::execute()`]) or interleaved with other
//! queries on a shared context (via [`crate::MultiEngine`]).

use crate::driver::{QueryAnswer, QueryDriver};
use crate::engine::{Event, ExecError, RetryPolicy, SimContext};
use crate::query::{RowAcc, RowEval};
use crate::window::{IoWindow, Landed};
use pioqo_storage::HeapTable;
use serde::{Deserialize, Serialize};

/// Table-scan configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FtsConfig {
    /// Parallel degree (1 = the non-parallel FTS).
    pub workers: u32,
    /// Prefetch distance in blocks ahead of the scan frontier
    /// (0 disables prefetching: every page is a demand read).
    pub prefetch_blocks: u32,
    /// Pages per prefetch block ("instead of prefetching pages one by one a
    /// large block consisting of several consecutive pages is read", §2).
    pub block_pages: u32,
    /// Retry/timeout policy for the scan's reads (default: no retries).
    pub retry: RetryPolicy,
}

impl Default for FtsConfig {
    fn default() -> Self {
        FtsConfig {
            workers: 1,
            prefetch_blocks: 8,
            block_pages: 16,
            retry: RetryPolicy::default(),
        }
    }
}

#[derive(Debug)]
enum WState {
    Startup,
    WaitIo,
    Compute,
    Done,
}

struct Worker {
    state: WState,
    /// Table-local page being fetched/processed.
    page: u64,
}

/// The (parallel) full-table-scan state machine. See the module docs.
pub struct FtsDriver<'q> {
    cfg: FtsConfig,
    table: &'q HeapTable,
    eval: RowEval,
    n_pages: u64,
    workers: Vec<Worker>,
    cursor: u64,
    pf_next: u64,
    /// Reads and compute in flight, by worker.
    win: IoWindow<usize>,
    acc: RowAcc,
    op_track: u32,
    finished: bool,
}

impl<'q> FtsDriver<'q> {
    /// A driver evaluating `eval` over every row of `table` with a
    /// (parallel) full table scan.
    pub fn new(cfg: FtsConfig, table: &'q HeapTable, eval: RowEval) -> FtsDriver<'q> {
        assert!(cfg.workers >= 1);
        assert!(cfg.block_pages >= 1);
        let workers = (0..cfg.workers)
            .map(|_| Worker {
                state: WState::Startup,
                page: 0,
            })
            .collect();
        FtsDriver {
            n_pages: table.n_pages(),
            cfg,
            table,
            eval,
            workers,
            cursor: 0,
            pf_next: 0,
            win: IoWindow::new("fts"),
            acc: RowAcc::default(),
            op_track: 0,
            finished: false,
        }
    }

    /// Keep the prefetcher `prefetch_blocks` blocks ahead of the frontier,
    /// skipping blocks that are resident in full. Never prefetch behind
    /// the cursor (those pages are already claimed and demand-read).
    fn top_up_prefetch(&mut self, ctx: &mut SimContext<'_>) {
        if self.cfg.prefetch_blocks == 0 {
            return;
        }
        if self.pf_next < self.cursor {
            self.pf_next = self.cursor;
        }
        let window_end = self
            .n_pages
            .min(self.cursor + (self.cfg.prefetch_blocks * self.cfg.block_pages) as u64);
        while self.pf_next < window_end {
            let len = (self.cfg.block_pages as u64).min(self.n_pages - self.pf_next) as u32;
            let first_dp = self.table.device_page(self.pf_next);
            let all_resident = (0..len as u64).all(|i| ctx.pool.contains(first_dp + i));
            if !all_resident {
                self.win.prefetch_block(ctx, first_dp, len, true, None);
            }
            self.pf_next += len as u64;
        }
    }

    /// Hand worker `w` its next page (or retire it).
    fn claim(&mut self, ctx: &mut SimContext<'_>, w: usize) {
        if self.cursor >= self.n_pages {
            self.workers[w].state = WState::Done;
            return;
        }
        self.workers[w].page = self.cursor;
        self.cursor += 1;
        self.top_up_prefetch(ctx);
        self.fetch(ctx, w);
    }

    /// Pin worker `w`'s page and start evaluating it (the CPU charge
    /// scales with predicate terms), or park the worker on its read.
    fn fetch(&mut self, ctx: &mut SimContext<'_>, w: usize) {
        let p = self.workers[w].page;
        if !self.win.pin(ctx, self.table.device_page(p), w) {
            self.workers[w].state = WState::WaitIo;
            return;
        }
        let rows = self.table.spec().rows_in_page(p);
        let work = self.eval.page_work(ctx.costs(), rows.end - rows.start);
        self.win.compute(ctx, work, w);
        self.workers[w].state = WState::Compute;
    }

    fn maybe_finish(&mut self, ctx: &mut SimContext<'_>) {
        if !self.finished && self.workers.iter().all(|w| matches!(w.state, WState::Done)) {
            ctx.trace_span_end(self.op_track, "fts_scan");
            self.finished = true;
        }
    }
}

impl QueryDriver for FtsDriver<'_> {
    fn operator(&self) -> &'static str {
        "fts"
    }

    fn start(&mut self, ctx: &mut SimContext<'_>) -> Result<(), ExecError> {
        self.op_track = ctx.trace_track("fts");
        ctx.trace_span_begin(self.op_track, "fts_scan");
        // Worker startup cost: threads wake and attach to the plan fragment.
        for w in 0..self.workers.len() {
            let startup = if self.cfg.workers > 1 {
                ctx.costs().worker_startup_us
            } else {
                0.0
            };
            self.win.compute(ctx, startup, w);
        }
        self.top_up_prefetch(ctx);
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: &Event) -> Result<(), ExecError> {
        match self.win.landed(ctx, ev)? {
            None | Some(Landed::Write) => return Ok(()),
            Some(Landed::Read { parked, .. }) => {
                for w in parked {
                    debug_assert!(matches!(self.workers[w].state, WState::WaitIo));
                    self.fetch(ctx, w);
                }
            }
            Some(Landed::Cpu(w)) => match self.workers[w].state {
                WState::Startup => self.claim(ctx, w),
                WState::Compute => {
                    let p = self.workers[w].page;
                    self.eval.page(self.table, p, &mut self.acc);
                    ctx.pool.unpin(self.table.device_page(p))?;
                    self.claim(ctx, w);
                }
                _ => {
                    return Err(ExecError::Internal {
                        detail: "cpu completion in non-compute state",
                    })
                }
            },
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

    fn make_table(rows: u64, rpp: u32) -> HeapTable {
        let spec = TableSpec::paper_table(rpp, rows, 77);
        let mut ts = Tablespace::new(spec.n_pages() + 100);
        HeapTable::create(spec, &mut ts).expect("fits")
    }

    fn scan(table: &HeapTable, sel: f64, cfg: &FtsConfig, ssd: bool) -> ScanMetrics {
        let cap = table.n_pages() + 200;
        let mut pool = BufferPool::new(1024);
        let (low, high) = range_for_selectivity(sel, u32::MAX - 1);
        let q = QuerySpec::range_max(table, None, low, high).with_plan(PlanSpec::Fts(cfg.clone()));
        if ssd {
            let mut dev = consumer_pcie_ssd(cap, 9);
            let mut ctx = SimContext::new(
                &mut dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            execute(&mut ctx, &q).expect("scan runs")
        } else {
            let mut dev = hdd_7200(cap, 9);
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
        let table = make_table(20_000, 33);
        for sel in [0.0, 0.01, 0.5, 1.0] {
            let (low, high) = range_for_selectivity(sel, u32::MAX - 1);
            let m = scan(&table, sel, &FtsConfig::default(), true);
            assert_eq!(m.max_c1, table.data().naive_max_c1(low, high), "sel={sel}");
            assert_eq!(m.rows_matched, table.data().count_matching(low, high));
            assert_eq!(m.rows_examined, 20_000);
            let acc = oracle(&QuerySpec::range_max(&table, None, low, high));
            assert_eq!(m.fingerprint, acc.fingerprint, "sel={sel}");
        }
    }

    #[test]
    fn parallel_degrees_agree_on_answer() {
        let table = make_table(10_000, 33);
        let base = scan(&table, 0.2, &FtsConfig::default(), true);
        for workers in [2u32, 8, 32] {
            let cfg = FtsConfig {
                workers,
                ..FtsConfig::default()
            };
            let m = scan(&table, 0.2, &cfg, true);
            assert_eq!(m.max_c1, base.max_c1, "workers={workers}");
            assert_eq!(m.rows_matched, base.rows_matched);
            assert_eq!(m.fingerprint, base.fingerprint, "workers={workers}");
        }
    }

    #[test]
    fn every_page_read_exactly_once_cold() {
        let table = make_table(33_000, 33); // 1000 pages
        let m = scan(&table, 0.1, &FtsConfig::default(), true);
        assert_eq!(m.io.pages_read, 1000);
        assert_eq!(m.pool.refetches, 0);
    }

    #[test]
    fn prefetching_beats_demand_reads() {
        let table = make_table(33_000, 33);
        let with_pf = scan(&table, 0.1, &FtsConfig::default(), true);
        let without = scan(
            &table,
            0.1,
            &FtsConfig {
                prefetch_blocks: 0,
                ..FtsConfig::default()
            },
            true,
        );
        assert!(
            with_pf.runtime < without.runtime,
            "prefetch should overlap I/O with CPU: {} vs {}",
            with_pf.runtime,
            without.runtime
        );
    }

    #[test]
    fn parallelism_helps_on_ssd_for_cpu_heavy_pages() {
        // T500-style: very CPU-intensive scan.
        let table = make_table(250_000, 500); // 500 pages of 500 rows
        let m1 = scan(&table, 0.1, &FtsConfig::default(), true);
        let m8 = scan(
            &table,
            0.1,
            &FtsConfig {
                workers: 8,
                ..FtsConfig::default()
            },
            true,
        );
        let speedup = m1.runtime.as_secs_f64() / m8.runtime.as_secs_f64();
        assert!(
            speedup > 2.0,
            "PFTS8 should clearly beat FTS on CPU-bound scan: {speedup}"
        );
    }

    #[test]
    fn parallelism_does_not_help_io_bound_hdd() {
        // T1-style on HDD: pure sequential I/O bound.
        let table = make_table(2_000, 1);
        let m1 = scan(&table, 0.1, &FtsConfig::default(), false);
        let m8 = scan(
            &table,
            0.1,
            &FtsConfig {
                workers: 8,
                ..FtsConfig::default()
            },
            false,
        );
        let speedup = m1.runtime.as_secs_f64() / m8.runtime.as_secs_f64();
        assert!(
            (0.7..=1.5).contains(&speedup),
            "HDD sequential scan should not scale with workers: {speedup}"
        );
    }

    #[test]
    fn predicate_terms_scale_page_cpu() {
        use crate::query::{CmpOp, Col, Predicate};
        let table = make_table(250_000, 500); // CPU-bound scan
        let one_term = scan(&table, 1.0, &FtsConfig::default(), true);
        // Same match set expressed with three AND-ed comparison leaves:
        // costs more CPU, returns the same rows.
        let q = QuerySpec::scan(&table)
            .filter(Predicate::Cmp {
                col: Col::C2,
                op: CmpOp::Le,
                value: u32::MAX,
            })
            .filter(Predicate::Cmp {
                col: Col::C1,
                op: CmpOp::Le,
                value: u32::MAX,
            })
            .filter(Predicate::Cmp {
                col: Col::C1,
                op: CmpOp::Ge,
                value: 0,
            });
        assert_eq!(q.predicate.terms(), 3);
        let mut dev = consumer_pcie_ssd(table.n_pages() + 200, 9);
        let mut pool = BufferPool::new(1024);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let m3 = execute(&mut ctx, &q).expect("scan runs");
        assert_eq!(m3.rows_matched, 250_000);
        assert!(
            m3.runtime > one_term.runtime,
            "3 predicate terms must cost more CPU than 1: {} vs {}",
            m3.runtime,
            one_term.runtime
        );
    }

    #[test]
    fn io_error_surfaces() {
        let table = make_table(10_000, 33);
        let dev = consumer_pcie_ssd(table.n_pages() + 10, 3);
        let mut dev = pioqo_device::Faulty::new(dev, pioqo_device::FaultPlan::EveryNth(2));
        let mut pool = BufferPool::new(256);
        let (low, high) = range_for_selectivity(0.5, u32::MAX - 1);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let r = execute(&mut ctx, &QuerySpec::range_max(&table, None, low, high));
        assert!(matches!(
            r,
            Err(ExecError::Io {
                operator: "fts",
                ..
            })
        ));
    }

    #[test]
    fn empty_table_page_range() {
        let table = make_table(5, 33); // single partial page
        let m = scan(&table, 1.0, &FtsConfig::default(), true);
        assert_eq!(m.rows_examined, 5);
        assert_eq!(m.rows_matched, 5);
    }
}
