//! Equi-join operators with *opposite* I/O profiles.
//!
//! Both join `outer.C2 = inner.C2` and push the outer predicate tree down
//! into the outer scan, but they stress the device in opposite ways —
//! which is exactly the choice the QDTT cost model arbitrates:
//!
//! * [`InlDriver`] — **index-nested-loop**: a sequential outer scan feeds
//!   a pool of concurrent index probes into the inner table. Every probe
//!   is a root→leaf descent plus random heap-page fetches, so the device
//!   sees random reads in a *small band* (the inner extent) at a queue
//!   depth set by [`InlConfig::probe_depth`] — the regime where deep
//!   queues and band locality pay (QDTT's D(band, depth) surface).
//! * [`HashJoinDriver`] — **hybrid hash**: both tables stream
//!   sequentially once; rows outside partition 0 spill to per-partition
//!   scratch slices with sequential page writes (the PR-7 write path) and
//!   stream back sequentially per partition. All I/O is sequential at
//!   ring depth [`HashJoinConfig::io_depth`]; the price is writing and
//!   re-reading the spilled fraction `(P-1)/P` of both inputs.
//!
//! Both scans are page-at-a-time: a ready run of pages is taken as two
//! column slices ([`HeapTable::page_cols`]) and the outer predicate is
//! applied a 64-row mask at a time ([`RowEval::left_cols`]); only INL's
//! probes, which fetch single inner rows, read row by row. A hash
//! partition's inner rows become a lookup table by sorting them in place
//! (`KeyTable`) — partition 0 when the build stream ends, a spilled
//! partition when its outer slice has streamed back.
//!
//! Both are [`QueryDriver`]s: they run solo under [`crate::execute()`] or
//! inside [`crate::MultiEngine`] sessions under admission leases, and
//! ignore events they do not own.

use crate::driver::{QueryAnswer, QueryDriver};
use crate::engine::{Event, ExecError, RetryPolicy, SimContext};
use crate::is::{gather_rows, IndexRow};
use crate::query::{JoinClause, RowAcc, RowEval};
use crate::window::{BlockStream, Descent, IoWindow, Landed};
use pioqo_storage::{BTreeIndex, HeapTable};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Index-nested-loop join configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InlConfig {
    /// Concurrent index probes kept in flight (the operator's effective
    /// random-read queue depth; admission leases cap it).
    pub probe_depth: u32,
    /// Outer-scan prefetch distance in blocks.
    pub prefetch_blocks: u32,
    /// Pages per outer-scan prefetch block.
    pub block_pages: u32,
    /// Retry/timeout policy for the join's I/O (default: no retries).
    pub retry: RetryPolicy,
}

impl Default for InlConfig {
    fn default() -> Self {
        InlConfig {
            probe_depth: 8,
            prefetch_blocks: 4,
            block_pages: 16,
            retry: RetryPolicy::default(),
        }
    }
}

/// Hybrid hash join configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HashJoinConfig {
    /// Hash partitions. Partition 0 is held in memory (the "hybrid" part);
    /// partitions 1..P spill to the scratch extent. 1 = a pure in-memory
    /// hash join, no spill I/O at all.
    pub partitions: u32,
    /// Sequential read ring depth (outstanding block submissions).
    pub io_depth: u32,
    /// Pages per block submission.
    pub block_pages: u32,
    /// Retry/timeout policy for the join's I/O (default: no retries).
    pub retry: RetryPolicy,
}

impl Default for HashJoinConfig {
    fn default() -> Self {
        HashJoinConfig {
            partitions: 8,
            io_depth: 8,
            block_pages: 16,
            retry: RetryPolicy::default(),
        }
    }
}

/// One in-flight index probe: root→leaf descent, then the key's entry
/// range, then the referenced heap rows.
struct Probe {
    /// Outer row that spawned the probe (`lc2` is the join key).
    lc1: u32,
    lc2: u32,
    stage: PStage,
    descent: Descent,
    /// Inner-index leaves overlapping the key's entry range.
    leaves: Vec<u64>,
    leaf_idx: usize,
    first_entry: u64,
    end_entry: u64,
    /// Rows of the current leaf's key-equal entries.
    rows: Vec<IndexRow>,
    row_idx: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum PStage {
    /// Walking `descent`.
    Path,
    /// Fetching/decoding the current leaf.
    Leaf,
    /// Fetching/joining the current rid's heap row.
    Row,
}

/// Who a read or compute task of the join is for.
#[derive(Clone, Copy)]
enum Party {
    /// The sequential outer scan.
    Outer,
    /// The probe with this id.
    Probe(u64),
}

/// The index-nested-loop join state machine. See the module docs.
pub struct InlDriver<'q> {
    cfg: InlConfig,
    left: &'q HeapTable,
    right: &'q HeapTable,
    right_index: &'q BTreeIndex,
    eval: RowEval,
    /// Reads and compute in flight.
    win: IoWindow<Party>,
    outer: BlockStream<Party>,
    /// The outer run `(start, len)` whose evaluation is in flight.
    outer_run: Option<(u64, u64)>,
    /// Outer rows admitted by the predicate, awaiting a probe slot.
    keys: VecDeque<(u32, u32)>,
    probes: BTreeMap<u64, Probe>,
    next_probe: u64,
    acc: RowAcc,
    op_track: u32,
    finished: bool,
}

impl<'q> InlDriver<'q> {
    /// A driver joining `left` (outer, filtered by `eval`) against the
    /// clause's inner table via its `C2` index.
    pub fn new(
        cfg: InlConfig,
        left: &'q HeapTable,
        join: JoinClause<'q>,
        eval: RowEval,
    ) -> Result<InlDriver<'q>, ExecError> {
        let right_index = join.right_index.ok_or(ExecError::Internal {
            detail: "index-nested-loop join without an inner index",
        })?;
        let outer = BlockStream::new(
            Party::Outer,
            left.device_page(0),
            left.n_pages(),
            cfg.block_pages,
            cfg.prefetch_blocks,
            true,
        );
        Ok(InlDriver {
            cfg,
            left,
            right: join.right,
            right_index,
            eval,
            win: IoWindow::new("inl"),
            outer,
            outer_run: None,
            keys: VecDeque::new(),
            probes: BTreeMap::new(),
            next_probe: 0,
            acc: RowAcc::default(),
            op_track: 0,
            finished: false,
        })
    }

    /// Probe-queue high-water mark: beyond it the outer scan stops
    /// claiming new runs so memory (and the probe backlog) stays bounded.
    fn high_water(&self) -> usize {
        (self.cfg.probe_depth as usize) * 4
    }

    /// Advance everything that can move without an event.
    fn pump(&mut self, ctx: &mut SimContext<'_>) {
        // Spawn probes up to the configured depth.
        while self.probes.len() < self.cfg.probe_depth as usize {
            let Some((lc1, lc2)) = self.keys.pop_front() else {
                break;
            };
            self.start_probe(ctx, lc1, lc2);
        }
        // Outer scan: fetch ahead unless the probe backlog is deep, and
        // evaluate the ready run when no evaluation is in flight.
        if self.keys.len() < self.high_water() {
            self.outer.top_up(&mut self.win, ctx);
            if self.outer_run.is_none() {
                self.outer_run = self.outer.take_run();
                if let Some((start, len)) = self.outer_run {
                    let mut work = 0.0;
                    for p in start..start + len {
                        let rows = self.left.spec().rows_in_page(p);
                        work += self.eval.page_work(ctx.costs(), rows.end - rows.start);
                    }
                    self.win.compute(ctx, work, Party::Outer);
                }
            }
        }
        self.maybe_finish(ctx);
    }

    fn maybe_finish(&mut self, ctx: &mut SimContext<'_>) {
        let outer_done = self.outer.exhausted() && self.outer_run.is_none();
        if !self.finished && outer_done && self.keys.is_empty() && self.probes.is_empty() {
            ctx.trace_span_end(self.op_track, "inl_join");
            self.finished = true;
        }
    }

    fn start_probe(&mut self, ctx: &mut SimContext<'_>, lc1: u32, lc2: u32) {
        let id = self.next_probe;
        self.next_probe += 1;
        let (leaves, first_entry, end_entry, probe_leaf) = match self.right_index.range(lc2, lc2) {
            Some(r) => (
                (r.first_leaf..=r.last_leaf).collect(),
                r.first_entry,
                r.end_entry,
                r.first_leaf,
            ),
            // Missing key: the descent still happens, finds nothing.
            None => (Vec::new(), 0, 0, 0),
        };
        self.probes.insert(
            id,
            Probe {
                lc1,
                lc2,
                stage: PStage::Path,
                descent: Descent::new(self.right_index.path_to_leaf(probe_leaf)),
                leaves,
                leaf_idx: 0,
                first_entry,
                end_entry,
                rows: Vec::new(),
                row_idx: 0,
            },
        );
        self.step_probe(ctx, id);
    }

    /// Move probe `id` forward: pin the page its stage needs and start the
    /// stage's compute, park on the page's read, or finish the probe.
    fn step_probe(&mut self, ctx: &mut SimContext<'_>, id: u64) {
        let who = Party::Probe(id);
        loop {
            let p = self.probes.get_mut(&id).expect("live probe");
            let (dp, work) = match p.stage {
                PStage::Path => {
                    if p.descent.advance(&mut self.win, ctx, who) {
                        p.stage = PStage::Leaf;
                        continue;
                    }
                    return;
                }
                PStage::Leaf => {
                    let Some(&leaf) = p.leaves.get(p.leaf_idx) else {
                        self.finish_probe(ctx, id);
                        return;
                    };
                    let lr = self.right_index.leaf_entry_range(leaf);
                    let n = (lr.end.min(p.end_entry)).saturating_sub(lr.start.max(p.first_entry));
                    let costs = ctx.costs();
                    (
                        self.right_index.device_page_of_leaf(leaf),
                        costs.leaf_decode_us + n as f64 * costs.entry_decode_us,
                    )
                }
                PStage::Row => {
                    let Some(&(dp, ..)) = p.rows.get(p.row_idx) else {
                        p.leaf_idx += 1;
                        p.stage = PStage::Leaf;
                        continue;
                    };
                    (dp, ctx.costs().row_lookup_us)
                }
            };
            if self.win.pin(ctx, dp, who) {
                self.win.compute(ctx, work, who);
            }
            return;
        }
    }

    /// A probe's CPU task completed: apply the stage's effect and step on.
    fn on_probe_cpu(&mut self, ctx: &mut SimContext<'_>, id: u64) -> Result<(), ExecError> {
        let p = self.probes.get_mut(&id).expect("live probe");
        match p.stage {
            PStage::Path => p.descent.decoded(ctx)?,
            PStage::Leaf => {
                let leaf = p.leaves[p.leaf_idx];
                let lr = self.right_index.leaf_entry_range(leaf);
                let from = lr.start.max(p.first_entry);
                let to = lr.end.min(p.end_entry);
                gather_rows(self.right_index, self.right, from..to, &mut p.rows);
                p.row_idx = 0;
                p.stage = PStage::Row;
                ctx.pool.unpin(self.right_index.device_page_of_leaf(leaf))?;
            }
            PStage::Row => {
                let (dp, rc1, rc2) = p.rows[p.row_idx];
                debug_assert_eq!(rc2, p.lc2, "index probe returned a foreign key");
                self.eval.join_pair(p.lc1, p.lc2, rc1, &mut self.acc);
                p.row_idx += 1;
                ctx.pool.unpin(dp)?;
            }
        }
        self.step_probe(ctx, id);
        Ok(())
    }

    fn finish_probe(&mut self, ctx: &mut SimContext<'_>, id: u64) {
        self.probes.remove(&id);
        if let Some((lc1, lc2)) = self.keys.pop_front() {
            self.start_probe(ctx, lc1, lc2);
        }
        self.maybe_finish(ctx);
    }
}

impl QueryDriver for InlDriver<'_> {
    fn operator(&self) -> &'static str {
        "inl"
    }

    fn start(&mut self, ctx: &mut SimContext<'_>) -> Result<(), ExecError> {
        self.op_track = ctx.trace_track("inl");
        ctx.trace_span_begin(self.op_track, "inl_join");
        self.pump(ctx);
        Ok(())
    }

    fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: &Event) -> Result<(), ExecError> {
        let Some(landed) = self.win.landed(ctx, ev)? else {
            return Ok(());
        };
        match landed {
            Landed::Read {
                start,
                len,
                credit,
                parked,
            } => {
                // Only the outer stream's blocks carry credit.
                if !credit.is_empty() {
                    self.outer.landed(start, len);
                }
                for who in parked {
                    if let Party::Probe(id) = who {
                        self.step_probe(ctx, id);
                    }
                }
            }
            Landed::Cpu(Party::Probe(id)) => self.on_probe_cpu(ctx, id)?,
            Landed::Cpu(Party::Outer) => {
                // The evaluated run: matching outer rows join the queue.
                let (start, len) = self.outer_run.take().ok_or(ExecError::Internal {
                    detail: "outer evaluation completed with no run in flight",
                })?;
                let (c1s, c2s) = self.left.page_cols(start, len);
                let keys = &mut self.keys;
                self.eval.left_cols(c1s, c2s, &mut self.acc, |c1, c2, _| {
                    keys.push_back((c1, c2));
                    Ok::<(), ExecError>(())
                })?;
            }
            Landed::Write => {}
        }
        self.pump(ctx);
        Ok(())
    }

    fn done(&self) -> bool {
        self.finished
    }

    fn answer(&self) -> QueryAnswer {
        QueryAnswer::from_acc(&self.acc)
    }
}

/// A spill slice: a contiguous run of scratch pages for one partition of
/// one side.
struct Slice {
    base_dp: u64,
    capacity: u64,
    /// Pages written so far.
    used: u64,
}

/// One side's partitioned rows and where they spill to.
struct Side {
    /// Rows per spill page (the side's table geometry).
    rpp: u64,
    /// `(payload, key)` rows per partition. Slot 0 is the in-memory
    /// partition: the inner side collects it here and never writes it,
    /// the outer side probes it on the fly and leaves the slot empty.
    rows: Vec<Vec<(u32, u32)>>,
    /// Rows already written to disk, per partition.
    flushed: Vec<u64>,
    /// Partition `p`'s scratch slice, at `p - 1`.
    slices: Vec<Slice>,
}

impl Side {
    fn new(rpp: u32, rows: Vec<Vec<(u32, u32)>>, slices: Vec<Slice>) -> Side {
        Side {
            rpp: rpp as u64,
            flushed: vec![0; rows.len()],
            rows,
            slices,
        }
    }

    /// Append `row` to partition `p`, writing the page it completes.
    fn push(
        &mut self,
        win: &mut IoWindow<()>,
        ctx: &mut SimContext<'_>,
        p: usize,
        row: (u32, u32),
    ) -> Result<(), ExecError> {
        self.rows[p].push(row);
        if p == 0 {
            return Ok(());
        }
        self.flush(win, ctx, p, false)
    }

    /// Flush full spill pages of partition `p` (or everything with
    /// `all`), charging one sequential page write per page.
    fn flush(
        &mut self,
        win: &mut IoWindow<()>,
        ctx: &mut SimContext<'_>,
        p: usize,
        all: bool,
    ) -> Result<(), ExecError> {
        let rows = self.rows[p].len() as u64;
        let (flushed, slice) = (&mut self.flushed[p], &mut self.slices[p - 1]);
        loop {
            let unflushed = rows - *flushed;
            let write = if all {
                unflushed > 0
            } else {
                unflushed >= self.rpp
            };
            if !write {
                return Ok(());
            }
            if slice.used >= slice.capacity {
                return Err(ExecError::Internal {
                    detail: "hash-join spill slice overflow",
                });
            }
            win.write_page(ctx, slice.base_dp + slice.used);
            slice.used += 1;
            *flushed += unflushed.min(self.rpp);
        }
    }

    /// Flush every spilled partition's partial last page.
    fn flush_all(
        &mut self,
        win: &mut IoWindow<()>,
        ctx: &mut SimContext<'_>,
    ) -> Result<(), ExecError> {
        (1..self.rows.len()).try_for_each(|p| self.flush(win, ctx, p, true))
    }
}

/// One partition of the inner side as a lookup table: its `(payload,
/// key)` rows sorted in place by `(key, payload)`, so a key's rows are one
/// contiguous run whose last row carries the maximum payload. Lookup-only
/// (never iterated), so the answer does not depend on the sort's order
/// among equal rows.
#[derive(Default)]
struct KeyTable(Vec<(u32, u32)>);

impl KeyTable {
    fn new(mut rows: Vec<(u32, u32)>) -> KeyTable {
        rows.sort_unstable_by_key(|&(payload, key)| (key, payload));
        KeyTable(rows)
    }

    /// `(rows, max payload)` of `key`'s run, `None` when the key is absent.
    fn get(&self, key: u32) -> Option<(u64, u32)> {
        let from = self.0.partition_point(|&(_, k)| k < key);
        let n = self.0[from..].partition_point(|&(_, k)| k == key);
        (n > 0).then(|| (n as u64, self.0[from + n - 1].0))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum HPhase {
    /// Streaming the inner (build) table.
    Build,
    /// Streaming the outer (probe) table.
    Probe,
    /// Barrier: all spill writes must land before re-reading.
    Drain,
    /// Re-reading spilled partition `p`'s inner slice.
    PartBuild(u32),
    /// Re-reading spilled partition `p`'s outer slice.
    PartProbe(u32),
    Done,
}

/// The hybrid-hash-join state machine. See the module docs.
pub struct HashJoinDriver<'q> {
    cfg: HashJoinConfig,
    left: &'q HeapTable,
    right: &'q HeapTable,
    eval: RowEval,
    phase: HPhase,
    /// Block reads, spill writes and the one compute task in flight.
    win: IoWindow<()>,
    reader: BlockStream<()>,
    /// The run `(start, len)` whose scan/partition compute is in flight.
    cur_run: Option<(u64, u64)>,
    /// Partition 0's in-memory table, sealed when the build stream ends.
    ht: KeyTable,
    /// The inner (build) side's partitions.
    inner: Side,
    /// The outer (probe) side's partitions.
    outer: Side,
    acc: RowAcc,
    op_track: u32,
}

impl<'q> HashJoinDriver<'q> {
    /// A driver joining `left` (outer, filtered by `eval`) against the
    /// clause's inner table with a hybrid hash join. Partitions beyond the
    /// in-memory partition 0 need the clause's spill extent.
    pub fn new(
        cfg: HashJoinConfig,
        left: &'q HeapTable,
        join: JoinClause<'q>,
        eval: RowEval,
    ) -> Result<HashJoinDriver<'q>, ExecError> {
        let np = cfg.partitions as usize;
        let (slices_right, slices_left) = if np > 1 {
            let ext = join.spill.ok_or(ExecError::Internal {
                detail: "hybrid hash join without a spill extent",
            })?;
            let n_slices = 2 * (np as u64 - 1);
            let per = ext.pages / n_slices;
            if per == 0 {
                return Err(ExecError::Internal {
                    detail: "hash-join spill extent too small",
                });
            }
            let slice = |i: u64| Slice {
                base_dp: ext.base + i * per,
                capacity: per,
                used: 0,
            };
            (
                (0..np as u64 - 1).map(slice).collect(),
                (np as u64 - 1..n_slices).map(slice).collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let reader = Self::stream(&cfg, join.right.device_page(0), join.right.n_pages(), true);
        // Keys are spread evenly by `key % partitions`: size each inner
        // partition once (an eighth of slack) instead of growing it.
        let per_part = join.right.spec().rows as usize / np;
        let inner_rows = (0..np)
            .map(|_| Vec::with_capacity(per_part + per_part / 8 + 16))
            .collect();
        Ok(HashJoinDriver {
            cfg,
            left,
            right: join.right,
            eval,
            phase: HPhase::Build,
            win: IoWindow::new("hash_join"),
            reader,
            cur_run: None,
            ht: KeyTable::default(),
            inner: Side::new(join.right.spec().rows_per_page, inner_rows, slices_right),
            outer: Side::new(left.spec().rows_per_page, vec![Vec::new(); np], slices_left),
            acc: RowAcc::default(),
            op_track: 0,
        })
    }

    /// A block stream over `pages` pages from `base_dp`. Heap pages go
    /// through the pool; spill re-reads are scratch traffic and bypass it.
    fn stream(cfg: &HashJoinConfig, base_dp: u64, pages: u64, heap: bool) -> BlockStream<()> {
        BlockStream::new((), base_dp, pages, cfg.block_pages, cfg.io_depth, heap)
    }

    /// Begin re-reading one spill slice (or skip ahead when it is empty).
    fn enter_part(&mut self, ctx: &mut SimContext<'_>, phase: HPhase) -> Result<(), ExecError> {
        self.phase = phase;
        loop {
            match self.phase {
                HPhase::PartBuild(p) => {
                    let s = &self.inner.slices[p as usize - 1];
                    if s.used == 0 {
                        self.phase = HPhase::PartProbe(p);
                        continue;
                    }
                    self.reader = Self::stream(&self.cfg, s.base_dp, s.used, false);
                    self.reader.top_up(&mut self.win, ctx);
                    return Ok(());
                }
                HPhase::PartProbe(p) => {
                    let s = &self.outer.slices[p as usize - 1];
                    if s.used == 0 || self.inner.rows[p as usize].is_empty() {
                        // Nothing on one side: no pairs from this partition.
                        self.phase = if (p as usize) + 1 < self.cfg.partitions as usize {
                            HPhase::PartBuild(p + 1)
                        } else {
                            HPhase::Done
                        };
                        continue;
                    }
                    self.reader = Self::stream(&self.cfg, s.base_dp, s.used, false);
                    self.reader.top_up(&mut self.win, ctx);
                    return Ok(());
                }
                HPhase::Done => {
                    ctx.trace_span_end(self.op_track, "hash_join");
                    return Ok(());
                }
                HPhase::Build | HPhase::Probe | HPhase::Drain => {
                    return Err(ExecError::Internal {
                        detail: "enter_part called outside the partition phases",
                    })
                }
            }
        }
    }

    /// Join partition `p`'s spilled rows (both sides are in memory; the
    /// spill I/O priced their round trip).
    fn join_partition(&mut self, p: usize) {
        let pt = KeyTable::new(std::mem::take(&mut self.inner.rows[p]));
        for (lc1, lc2) in std::mem::take(&mut self.outer.rows[p]) {
            if let Some((n, max)) = pt.get(lc2) {
                self.eval.join_pair_n(lc1, lc2, max, n, &mut self.acc);
            }
        }
    }

    /// Advance the streaming phases: top the ring up, start the next CPU
    /// task over the contiguous ready run, cross phase boundaries.
    fn pump(&mut self, ctx: &mut SimContext<'_>) -> Result<(), ExecError> {
        loop {
            match self.phase {
                HPhase::Build | HPhase::Probe => {
                    self.reader.top_up(&mut self.win, ctx);
                    if self.cur_run.is_some() {
                        return Ok(());
                    }
                    self.cur_run = self.reader.take_run();
                    if let Some((start, len)) = self.cur_run {
                        let mut work = 0.0;
                        for p in start..start + len {
                            let rows = if self.phase == HPhase::Build {
                                let r = self.right.spec().rows_in_page(p);
                                work += ctx.costs().page_overhead_us
                                    + (r.end - r.start) as f64 * ctx.costs().row_scan_us;
                                continue;
                            } else {
                                let r = self.left.spec().rows_in_page(p);
                                r.end - r.start
                            };
                            work += self.eval.page_work(ctx.costs(), rows);
                        }
                        self.win.compute(ctx, work, ());
                        return Ok(());
                    }
                    if self.reader.exhausted() {
                        if self.phase == HPhase::Build {
                            // Flush partial spill pages, seal partition 0,
                            // start the outer stream.
                            self.inner.flush_all(&mut self.win, ctx)?;
                            self.ht = KeyTable::new(std::mem::take(&mut self.inner.rows[0]));
                            self.phase = HPhase::Probe;
                            self.reader = Self::stream(
                                &self.cfg,
                                self.left.device_page(0),
                                self.left.n_pages(),
                                true,
                            );
                            continue;
                        }
                        self.outer.flush_all(&mut self.win, ctx)?;
                        self.phase = HPhase::Drain;
                        continue;
                    }
                    return Ok(());
                }
                HPhase::Drain => {
                    if self.win.writes_pending() {
                        return Ok(());
                    }
                    if self.cfg.partitions > 1 {
                        return self.enter_part(ctx, HPhase::PartBuild(1));
                    }
                    self.phase = HPhase::Done;
                    ctx.trace_span_end(self.op_track, "hash_join");
                    return Ok(());
                }
                HPhase::PartBuild(_) | HPhase::PartProbe(_) => {
                    self.reader.top_up(&mut self.win, ctx);
                    if self.cur_run.is_some() {
                        return Ok(());
                    }
                    self.cur_run = self.reader.take_run();
                    if let Some((_, len)) = self.cur_run {
                        // Spill pages hold raw row runs; charge scan-rate
                        // CPU for rebuild, lookup-rate for probe.
                        let build = matches!(self.phase, HPhase::PartBuild(_));
                        let rpp = if build {
                            self.right.spec().rows_per_page
                        } else {
                            self.left.spec().rows_per_page
                        } as f64;
                        let per_row = if build {
                            ctx.costs().row_scan_us
                        } else {
                            ctx.costs().row_lookup_us
                        };
                        let work = len as f64 * (ctx.costs().page_overhead_us + rpp * per_row);
                        self.win.compute(ctx, work, ());
                    }
                    // A fully streamed slice moves on in the CPU
                    // completion handler.
                    return Ok(());
                }
                HPhase::Done => return Ok(()),
            }
        }
    }

    /// Handle completion of the current phase's CPU task.
    fn on_cpu(&mut self, ctx: &mut SimContext<'_>, start: u64, len: u64) -> Result<(), ExecError> {
        match self.phase {
            HPhase::Build => {
                let (c1s, c2s) = self.right.page_cols(start, len);
                for (&rc1, &rc2) in c1s.iter().zip(c2s) {
                    let p = (rc2 % self.cfg.partitions) as usize;
                    self.inner.push(&mut self.win, ctx, p, (rc1, rc2))?;
                }
            }
            HPhase::Probe => {
                let (c1s, c2s) = self.left.page_cols(start, len);
                let Self {
                    cfg,
                    eval,
                    ht,
                    outer,
                    win,
                    acc,
                    ..
                } = self;
                eval.left_cols(c1s, c2s, acc, |lc1, lc2, acc| {
                    let p = (lc2 % cfg.partitions) as usize;
                    if p != 0 {
                        return outer.push(win, ctx, p, (lc1, lc2));
                    }
                    if let Some((n, max)) = ht.get(lc2) {
                        eval.join_pair_n(lc1, lc2, max, n, acc);
                    }
                    Ok(())
                })?;
            }
            HPhase::PartBuild(p) => {
                if self.reader.exhausted() {
                    return self.enter_part(ctx, HPhase::PartProbe(p));
                }
            }
            HPhase::PartProbe(p) => {
                if self.reader.exhausted() {
                    self.join_partition(p as usize);
                    let next = if (p as usize) + 1 < self.cfg.partitions as usize {
                        HPhase::PartBuild(p + 1)
                    } else {
                        HPhase::Done
                    };
                    return self.enter_part(ctx, next);
                }
            }
            HPhase::Drain | HPhase::Done => {
                return Err(ExecError::Internal {
                    detail: "hash-join cpu completion in a non-compute phase",
                })
            }
        }
        Ok(())
    }
}

impl QueryDriver for HashJoinDriver<'_> {
    fn operator(&self) -> &'static str {
        "hash_join"
    }

    fn start(&mut self, ctx: &mut SimContext<'_>) -> Result<(), ExecError> {
        self.op_track = ctx.trace_track("hash_join");
        ctx.trace_span_begin(self.op_track, "hash_join");
        self.pump(ctx)
    }

    fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: &Event) -> Result<(), ExecError> {
        let Some(landed) = self.win.landed(ctx, ev)? else {
            return Ok(());
        };
        match landed {
            Landed::Read { start, len, .. } => self.reader.landed(start, len),
            Landed::Write => {}
            Landed::Cpu(()) => {
                let (start, len) = self.cur_run.take().ok_or(ExecError::Internal {
                    detail: "hash-join compute completed with no run in flight",
                })?;
                self.on_cpu(ctx, start, len)?;
            }
        }
        self.pump(ctx)
    }

    fn done(&self) -> bool {
        matches!(self.phase, HPhase::Done) && !self.win.writes_pending()
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
    use crate::query::{oracle, Predicate, QuerySpec};
    use pioqo_bufpool::BufferPool;
    use pioqo_device::presets::{consumer_pcie_ssd, hdd_7200};
    use pioqo_storage::{Extent, TableSpec, Tablespace};

    struct Fixture {
        left: HeapTable,
        right: HeapTable,
        right_index: BTreeIndex,
        spill: Extent,
        capacity: u64,
    }

    fn fixture(left_rows: u64, right_rows: u64, c2_max: u32) -> Fixture {
        let lspec = TableSpec {
            c2_max,
            ..TableSpec::paper_table(33, left_rows, 401)
        };
        let rspec = TableSpec {
            name: "T_inner".to_string(),
            c2_max,
            ..TableSpec::paper_table(33, right_rows, 402)
        };
        let mut ts = Tablespace::new(4 * (lspec.n_pages() + rspec.n_pages()) + 4000);
        let left = HeapTable::create(lspec, &mut ts).expect("fits");
        let right = HeapTable::create(rspec, &mut ts).expect("fits");
        let right_index = BTreeIndex::build(
            "inner_c2",
            right.data().c2_entries(),
            right.spec().page_size,
            &mut ts,
        )
        .expect("fits");
        let spill = ts
            .alloc("join_spill", 2 * (left.n_pages() + right.n_pages()) + 64)
            .expect("fits");
        let capacity = ts.capacity();
        Fixture {
            left,
            right,
            right_index,
            spill,
            capacity,
        }
    }

    fn join_spec<'a>(fx: &'a Fixture, plan: PlanSpec) -> QuerySpec<'a> {
        QuerySpec::scan(&fx.left)
            .filter(Predicate::c2_between(0, u32::MAX / 2))
            .with_plan(plan)
            .join(crate::query::JoinClause {
                right: &fx.right,
                right_index: Some(&fx.right_index),
                spill: Some(fx.spill),
            })
    }

    fn run(fx: &Fixture, plan: PlanSpec, ssd: bool) -> crate::metrics::ScanMetrics {
        let mut pool = BufferPool::new(4096);
        let q = join_spec(fx, plan);
        if ssd {
            let mut dev = consumer_pcie_ssd(fx.capacity, 17);
            let mut ctx = SimContext::new(
                &mut dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            execute(&mut ctx, &q).expect("join runs")
        } else {
            let mut dev = hdd_7200(fx.capacity, 17);
            let mut ctx = SimContext::new(
                &mut dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            execute(&mut ctx, &q).expect("join runs")
        }
    }

    #[test]
    fn a_zero_count_in_a_plan_is_an_invalid_plan_error() {
        use crate::fts::FtsConfig;
        use crate::is::IsConfig;
        let fx = fixture(200, 200, 1_000);
        let plans = [
            PlanSpec::Fts(FtsConfig {
                workers: 0,
                ..FtsConfig::default()
            }),
            PlanSpec::Fts(FtsConfig {
                block_pages: 0,
                ..FtsConfig::default()
            }),
            PlanSpec::Is(IsConfig {
                workers: 0,
                ..IsConfig::default()
            }),
            PlanSpec::Inl(InlConfig {
                probe_depth: 0,
                ..InlConfig::default()
            }),
            PlanSpec::Hash(HashJoinConfig {
                partitions: 0,
                ..HashJoinConfig::default()
            }),
        ];
        for plan in plans {
            let mut dev = consumer_pcie_ssd(fx.capacity, 17);
            let mut pool = BufferPool::new(64);
            let mut ctx = SimContext::new(
                &mut dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            let q = join_spec(&fx, plan.clone());
            let err = execute(&mut ctx, &q).expect_err("a zero count cannot run");
            assert!(
                matches!(err, ExecError::InvalidPlan { .. }),
                "{plan:?}: {err}"
            );
        }
    }

    /// The `key -> (rows, max payload)` map a [`KeyTable`] stands in for.
    fn model(rows: &[(u32, u32)]) -> BTreeMap<u32, (u64, u32)> {
        let mut m = BTreeMap::new();
        for &(payload, key) in rows {
            let e = m.entry(key).or_insert((0u64, 0u32));
            e.0 += 1;
            e.1 = e.1.max(payload);
        }
        m
    }

    #[test]
    fn key_table_answers_like_a_map() {
        let mut rng = pioqo_simkit::SimRng::seeded(0x6B65_7973);
        assert_eq!(KeyTable::new(Vec::new()).get(0), None);
        assert_eq!(KeyTable::default().get(u32::MAX), None);
        for keys in [1u64, 7, 400] {
            // Even keys from a small set (heavy duplicates, gaps between
            // and around them), plus both ends of the key domain.
            let mut rows: Vec<(u32, u32)> = (0..600)
                .map(|_| (rng.next_u32(), 10 + 2 * rng.below(keys) as u32))
                .collect();
            rows.extend([(5, u32::MAX), (9, u32::MAX), (0, 3), (0, 3)]);
            let want = model(&rows);
            let table = KeyTable::new(rows);
            for key in (0..2 * keys as u32 + 14).chain([u32::MAX - 1, u32::MAX]) {
                assert_eq!(table.get(key), want.get(&key).copied(), "key {key}");
            }
            assert_eq!(table.get(u32::MAX), Some((2, 9)));
            assert_eq!(table.get(3), Some((2, 0)));
        }
    }

    #[test]
    fn inl_matches_oracle() {
        let fx = fixture(3_000, 2_000, 1_000);
        let want = oracle(&join_spec(&fx, PlanSpec::Inl(InlConfig::default())));
        assert!(want.matched > 0, "fixture must produce joined pairs");
        let m = run(&fx, PlanSpec::Inl(InlConfig::default()), true);
        assert_eq!(m.max_c1, want.agg);
        assert_eq!(m.rows_matched, want.matched);
        assert_eq!(m.rows_examined, want.examined);
        assert_eq!(m.fingerprint, want.fingerprint);
    }

    #[test]
    fn hash_matches_oracle_with_and_without_spill() {
        let fx = fixture(3_000, 2_000, 1_000);
        let want = oracle(&join_spec(&fx, PlanSpec::Hash(HashJoinConfig::default())));
        for partitions in [1u32, 4, 8] {
            let m = run(
                &fx,
                PlanSpec::Hash(HashJoinConfig {
                    partitions,
                    ..HashJoinConfig::default()
                }),
                true,
            );
            assert_eq!(m.max_c1, want.agg, "P={partitions}");
            assert_eq!(m.rows_matched, want.matched, "P={partitions}");
            assert_eq!(m.fingerprint, want.fingerprint, "P={partitions}");
        }
    }

    #[test]
    fn operators_agree_with_each_other() {
        let fx = fixture(5_000, 3_000, 500);
        let inl = run(&fx, PlanSpec::Inl(InlConfig::default()), true);
        let hash = run(&fx, PlanSpec::Hash(HashJoinConfig::default()), true);
        assert_eq!(inl.max_c1, hash.max_c1);
        assert_eq!(inl.rows_matched, hash.rows_matched);
        assert_eq!(inl.fingerprint, hash.fingerprint);
    }

    #[test]
    fn probe_depth_raises_queue_depth() {
        let fx = fixture(4_000, 20_000, 2_000);
        let shallow = run(
            &fx,
            PlanSpec::Inl(InlConfig {
                probe_depth: 1,
                ..InlConfig::default()
            }),
            true,
        );
        let deep = run(
            &fx,
            PlanSpec::Inl(InlConfig {
                probe_depth: 16,
                ..InlConfig::default()
            }),
            true,
        );
        assert_eq!(shallow.rows_matched, deep.rows_matched);
        assert!(
            deep.io.mean_queue_depth > shallow.io.mean_queue_depth * 2.0,
            "probe depth should deepen the device queue: {} vs {}",
            shallow.io.mean_queue_depth,
            deep.io.mean_queue_depth
        );
        assert!(
            deep.runtime < shallow.runtime,
            "deep probes should finish faster on SSD: {} vs {}",
            shallow.runtime,
            deep.runtime
        );
    }

    #[test]
    fn hash_join_writes_and_rereads_spill() {
        let fx = fixture(6_000, 6_000, 3_000);
        let spilled = run(
            &fx,
            PlanSpec::Hash(HashJoinConfig {
                partitions: 8,
                ..HashJoinConfig::default()
            }),
            true,
        );
        assert!(
            spilled.io.pages_written > 0,
            "8 partitions must spill 7/8 of both inputs"
        );
        let memory = run(
            &fx,
            PlanSpec::Hash(HashJoinConfig {
                partitions: 1,
                ..HashJoinConfig::default()
            }),
            true,
        );
        assert_eq!(memory.io.pages_written, 0, "P=1 never spills");
        assert_eq!(memory.rows_matched, spilled.rows_matched);
        assert_eq!(memory.fingerprint, spilled.fingerprint);
        assert!(
            memory.runtime < spilled.runtime,
            "spilling costs I/O: {} vs {}",
            memory.runtime,
            spilled.runtime
        );
    }

    #[test]
    fn hash_beats_inl_on_hdd() {
        // Random probes on a spindle are brutal; two sequential streams
        // plus a sequential spill round trip win easily.
        let fx = fixture(4_000, 8_000, 1_000);
        let inl = run(&fx, PlanSpec::Inl(InlConfig::default()), false);
        let hash = run(&fx, PlanSpec::Hash(HashJoinConfig::default()), false);
        assert_eq!(inl.rows_matched, hash.rows_matched);
        assert!(
            hash.runtime < inl.runtime,
            "hash must beat INL on HDD: {} vs {}",
            hash.runtime,
            inl.runtime
        );
    }

    #[test]
    fn empty_outer_match_set_still_terminates() {
        let fx = fixture(2_000, 1_000, 300);
        let q = QuerySpec::scan(&fx.left)
            .filter(Predicate::c2_between(1, 0)) // empty window
            .with_plan(PlanSpec::Inl(InlConfig::default()))
            .join(crate::query::JoinClause {
                right: &fx.right,
                right_index: Some(&fx.right_index),
                spill: Some(fx.spill),
            });
        let mut dev = consumer_pcie_ssd(fx.capacity, 17);
        let mut pool = BufferPool::new(4096);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let m = execute(&mut ctx, &q).expect("join runs");
        assert_eq!(m.rows_matched, 0);
        assert_eq!(m.max_c1, None);
        assert_eq!(m.rows_examined, 2_000, "outer rows still examined");
    }

    #[test]
    fn determinism_double_run() {
        let fx = fixture(3_000, 2_000, 1_000);
        for plan in [
            PlanSpec::Inl(InlConfig::default()),
            PlanSpec::Hash(HashJoinConfig::default()),
        ] {
            let a = run(&fx, plan.clone(), true);
            let b = run(&fx, plan.clone(), true);
            assert_eq!(a.runtime, b.runtime, "{}", plan.label());
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.io.pages_read, b.io.pages_read);
        }
    }
}
