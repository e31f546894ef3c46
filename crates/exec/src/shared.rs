//! Cooperative shared scans: one circular PFTS cursor, many consumers.
//!
//! [`ScanHub`] is the push-based storage-manager idea (one in-flight scan
//! per table, consumers attach to the stream) specialised to this
//! engine's range-MAX queries. A single circular cursor streams the heap
//! in block-sized submissions; every admitted consumer attaches at the
//! cursor's current position, rides the stream for exactly one lap
//! (`n_pages` page deliveries, wrapping at the table end) and completes
//! with the full-table answer. Because `MAX`/`COUNT` over a static table
//! are start-position independent, the hub evaluates each table page
//! **once per distinct predicate** as it streams past, no matter how many
//! consumers share that predicate or where they attached — N consumers
//! cost one device stream plus near-marginal CPU, not N scans.
//!
//! The device stream is one block submission window (sized by the shared
//! cursor's queue-depth lease, charged **once** by the admission layer —
//! see `QdttAdmission::cursor_start`), and evaluation is one in-flight
//! CPU task at a time over contiguous ready runs, so the hub adds O(1)
//! simulator events per delivered block regardless of consumer count.
//!
//! Positions are absolute **ticks**: tick `t` denotes table page
//! `t % n_pages`. Ticks only grow, which makes attach/finish bookkeeping
//! a pair of ordered maps and keeps wrap-around arithmetic out of the
//! hot path.

use crate::driver::QueryAnswer;
use crate::engine::{Event, ExecError, SimContext};
use crate::query::{Aggregate, Col, Predicate, Projection, RowAcc, RowEval};
use crate::window::{IoWindow, Landed, Runs};
use pioqo_storage::HeapTable;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counters describing one hub's lifetime, surfaced in workload reports.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SharedScanStats {
    /// Consumers attached to a shared cursor.
    pub attaches: u64,
    /// Times the circular cursor went from idle to streaming (each one
    /// costs exactly one queue-depth lease at the admission layer).
    pub cursor_starts: u64,
    /// Page deliveries evaluated by the shared stream (each table page
    /// counts once per tick it streamed past, not once per consumer).
    pub pages_delivered: u64,
    /// Block read submissions issued by the cursor.
    pub blocks_fetched: u64,
    /// Pages satisfied from the buffer pool without a device read.
    pub resident_pages: u64,
    /// Device page reads avoided by the shared stream: each delivered page
    /// would have cost one read per live rider running solo, but the
    /// cursor fetched it once — `(riders - 1)` saved per delivered page.
    pub pages_saved: u64,
}

/// One distinct predicate's shared accumulator. The hub evaluates each
/// table page once for each predicate, starting at the tick the predicate
/// first appeared; after `n_pages` evaluated pages the accumulator holds
/// the full-table answer and is reusable by any later consumer.
#[derive(Debug, Clone)]
struct PredState {
    eval: RowEval,
    acc: RowAcc,
    start_tick: u64,
    pages_done: u64,
}

/// The compiled evaluator of the hub's query shape: `MAX(C1)` over a `C2`
/// window, all columns projected.
fn window_eval(low: u32, high: u32) -> RowEval {
    let pred = Predicate::c2_between(low, high);
    RowEval::new(pred, &Projection::All, Aggregate::Max(Col::C1))
}

/// The shared-scan hub for one heap table. See the module docs.
pub struct ScanHub<'q> {
    table: &'q HeapTable,
    n_pages: u64,
    block_pages: u32,
    /// Fetch window in pages (cursor queue-depth lease × block size).
    window_pages: u64,
    active: bool,
    /// Block reads in flight (each credited with the tick of its first
    /// page) and the evaluation task.
    win: IoWindow<u64>,
    /// Resident runs awaiting evaluation; the frontier is the next tick to
    /// be scheduled into CPU evaluation.
    runs: Runs,
    /// Evaluation frontier: ticks below this are fully evaluated.
    done: u64,
    /// Next tick to fetch (>= the scheduling frontier; fetched-but-not-
    /// ready runs are in `win`, ready-but-not-scheduled runs in `runs`).
    fetched: u64,
    /// Exclusive max tick any live consumer still needs.
    need: u64,
    /// The run `(start, len)` whose evaluation task is in flight.
    eval: Option<(u64, u64)>,
    /// Consumer slot -> the predicate whose accumulator answers it.
    slots: Vec<Option<usize>>,
    free: Vec<u32>,
    live: u32,
    preds: Vec<PredState>,
    pred_ids: BTreeMap<(u32, u32), usize>,
    /// finish tick -> consumer slots completing there.
    finish_at: BTreeMap<u64, Vec<u32>>,
    completions: Vec<(u32, QueryAnswer)>,
    stats: SharedScanStats,
}

impl<'q> ScanHub<'q> {
    /// Build an idle hub over `table`, streaming in `block_pages`-page
    /// device submissions.
    pub fn new(table: &'q HeapTable, block_pages: u32) -> ScanHub<'q> {
        assert!(block_pages >= 1, "shared cursor needs a positive block");
        assert!(
            table.n_pages() >= 1,
            "shared cursor needs a non-empty table"
        );
        ScanHub {
            table,
            n_pages: table.n_pages(),
            block_pages,
            window_pages: block_pages as u64,
            active: false,
            win: IoWindow::new("shared_scan"),
            runs: Runs::default(),
            done: 0,
            fetched: 0,
            need: 0,
            eval: None,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            preds: Vec::new(),
            pred_ids: BTreeMap::new(),
            finish_at: BTreeMap::new(),
            completions: Vec::new(),
            stats: SharedScanStats::default(),
        }
    }

    /// Whether the circular cursor is streaming (any live consumer).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &SharedScanStats {
        &self.stats
    }

    /// Size the fetch window from the cursor's queue-depth lease: `depth`
    /// block submissions may be in flight ahead of the evaluation frontier.
    pub fn set_window(&mut self, depth: u32) {
        self.window_pages = depth.max(1) as u64 * self.block_pages as u64;
    }

    fn page_of(&self, tick: u64) -> u64 {
        tick % self.n_pages
    }

    /// Next tick to be scheduled into CPU evaluation.
    fn sched(&self) -> u64 {
        self.runs.frontier
    }

    fn pred_index(&mut self, low: u32, high: u32) -> usize {
        if let Some(&i) = self.pred_ids.get(&(low, high)) {
            return i;
        }
        let i = self.preds.len();
        self.preds.push(PredState {
            eval: window_eval(low, high),
            acc: RowAcc::default(),
            start_tick: self.sched(),
            pages_done: 0,
        });
        self.pred_ids.insert((low, high), i);
        i
    }

    fn alloc_slot(&mut self, pred: usize) -> u32 {
        self.live += 1;
        if let Some(s) = self.free.pop() {
            self.slots[s as usize] = Some(pred);
            s
        } else {
            self.slots.push(Some(pred));
            (self.slots.len() - 1) as u32
        }
    }

    /// Attach a fresh consumer for `BETWEEN low AND high` at the cursor's
    /// current position; it completes after one full circular lap.
    /// Returns the consumer slot (stable until completion).
    pub fn attach(&mut self, ctx: &mut SimContext<'_>, low: u32, high: u32) -> u32 {
        if !self.active {
            self.active = true;
            self.stats.cursor_starts += 1;
        }
        self.stats.attaches += 1;
        let pred = self.pred_index(low, high);
        let finish = self.sched() + self.n_pages;
        let slot = self.alloc_slot(pred);
        self.need = self.need.max(finish);
        self.finish_at.entry(finish).or_default().push(slot);
        ctx.metric_counter("shared_attach_total", 1);
        ctx.metric_sample("shared_live_consumers", u64::from(self.live));
        self.pump(ctx);
        slot
    }

    /// Drain completed consumers as `(slot, answer)` pairs, in completion
    /// order.
    pub fn take_completions(&mut self, out: &mut Vec<(u32, QueryAnswer)>) {
        out.append(&mut self.completions);
    }

    /// Feed one engine event to the hub. Returns `Ok(true)` when the event
    /// belonged to the shared cursor (the caller must not pass it on to
    /// solo queries), `Ok(false)` otherwise.
    pub fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: &Event) -> Result<bool, ExecError> {
        let Some(landed) = self.win.landed(ctx, ev)? else {
            return Ok(false);
        };
        match landed {
            // The run loop admitted the block's pages as strays (the
            // cursor's reads are untagged); the run is now evaluable.
            Landed::Read { len, credit, .. } => {
                for tick in credit {
                    self.runs.insert(tick, len);
                }
            }
            Landed::Cpu(_) => {
                if let Some((start, len)) = self.eval.take() {
                    self.finish_run(start, len);
                }
            }
            Landed::Write => {}
        }
        self.pump(ctx);
        Ok(true)
    }

    /// Evaluate a completed run for every predicate whose lap covers it,
    /// advance the frontier and pop consumers whose lap is complete.
    fn finish_run(&mut self, run_start: u64, run_len: u64) {
        self.stats.pages_delivered += run_len;
        self.stats.pages_saved += run_len * u64::from(self.live).saturating_sub(1);
        for p in &mut self.preds {
            for t in run_start..run_start + run_len {
                if t >= p.start_tick && p.pages_done < self.n_pages {
                    p.eval.page(self.table, t % self.n_pages, &mut p.acc);
                    p.pages_done += 1;
                }
            }
        }
        self.done = run_start + run_len;
        while let Some((&finish, _)) = self.finish_at.iter().next() {
            if finish > self.done {
                break;
            }
            let slots = self.finish_at.remove(&finish).expect("key just observed");
            for slot in slots {
                let Some(pred) = self.slots[slot as usize].take() else {
                    continue;
                };
                self.free.push(slot);
                self.live -= 1;
                let p = &self.preds[pred];
                debug_assert_eq!(p.pages_done, self.n_pages);
                self.completions.push((slot, QueryAnswer::from_acc(&p.acc)));
            }
        }
        if self.live == 0 {
            self.go_idle();
        }
    }

    /// Keep the device window full and one evaluation task in flight.
    fn pump(&mut self, ctx: &mut SimContext<'_>) {
        if !self.active {
            return;
        }
        // Fetch: stay `window_pages` ahead of the scheduling frontier but
        // never past what consumers need. Blocks are clipped at the table
        // end so no submission spans the wrap.
        let limit = self.need.min(self.sched() + self.window_pages);
        while self.fetched < limit {
            let page = self.page_of(self.fetched);
            let len = (self.block_pages as u64)
                .min(self.n_pages - page)
                .min(limit - self.fetched) as u32;
            let first_dp = self.table.device_page(page);
            let resident = (0..len as u64).all(|i| ctx.pool.contains(first_dp + i));
            if resident {
                self.stats.resident_pages += len as u64;
                self.runs.insert(self.fetched, len);
            } else {
                // Not admitted here: the run loop lands untagged reads.
                let tick = Some(self.fetched);
                self.win.prefetch_block(ctx, first_dp, len, false, tick);
                self.stats.blocks_fetched += 1;
            }
            self.fetched += len as u64;
        }
        // Evaluate: coalesce the contiguous ready run at the scheduling
        // frontier into one CPU task. Per-page work is the FTS page cost
        // with the row term scaled by the number of predicates whose lap
        // covers that tick (shared evaluation does each page once per
        // distinct predicate).
        if self.eval.is_some() {
            return;
        }
        self.eval = self.runs.take();
        let Some((run_start, run_len)) = self.eval else {
            return;
        };
        let costs = ctx.costs().clone();
        let mut work = 0.0;
        for t in run_start..run_start + run_len {
            let rows = self.table.spec().rows_in_page(t % self.n_pages);
            let preds = self
                .preds
                .iter()
                .filter(|p| t >= p.start_tick && t - p.start_tick < self.n_pages)
                .count()
                .max(1);
            work += costs.page_overhead_us
                + (rows.end - rows.start) as f64 * costs.row_scan_us * preds as f64;
        }
        self.win.compute(ctx, work, run_start);
    }

    /// All consumers gone: stop streaming. Every consumer ran its lap to
    /// completion, so every predicate's accumulator holds the full-table
    /// answer, reusable forever (the table is static).
    fn go_idle(&mut self) {
        self.active = false;
        self.win.forget_reads();
        // The next attach streams from a fresh frontier.
        let restart = self.sched().max(self.done).max(self.fetched);
        self.runs.restart(restart);
        self.done = restart;
        self.fetched = restart;
        self.need = restart;
    }
}
