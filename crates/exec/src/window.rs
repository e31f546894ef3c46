//! One read window for every operator.
//!
//! The operators differ in which page they want next and how many reads
//! they keep outstanding; everything around that is the same, and lives
//! here once. An [`IoWindow`] belongs to one driver instance (one *query*)
//! and owns
//!
//! * the handle→party tables: which worker / probe / ring slot waits on
//!   which read, write or compute task. Handles are handed out
//!   monotonically and the tables are lookup-only, so an id-sorted deque
//!   per window does it — sized by live handles, not by ids. A fresh
//!   handle sorts last; only a page read, which `SimContext` deduplicates,
//!   can come back with an older one;
//! * [`IoWindow::pin`]: pool hit, or join the in-flight read covering the
//!   page, or issue the read — and park the party;
//! * [`IoWindow::landed`]: the completion side. A handle the window does
//!   not hold is *not mine* and yields `None`; a read out of retries is the
//!   operator's `ExecError`; a pool read is admitted (the window alone
//!   decides for its query's reads) and its parties handed back. A woken
//!   party simply [`pin`](IoWindow::pin)s again, so a page evicted between
//!   its admission and the wake is just one more miss.
//!
//! On top sit the two shapes several operators share: [`Descent`], the
//! root→leaf index walk, and [`BlockStream`], a sequential block reader
//! handing back contiguous runs ([`Runs`]). *When* to issue and *whether*
//! to skip resident pages stay with each operator (DESIGN.md §3).

use crate::cpu::TaskId;
use crate::engine::{io_failure, Event, ExecError, SimContext};
use pioqo_bufpool::Access;
use pioqo_device::IoStatus;
use std::collections::{BTreeMap, VecDeque};

/// Who hears about one read, in issue or arrival order. The first party
/// sits inline, so a read with one party allocates nothing; a second one
/// moves them all to the heap.
pub(crate) enum Parties<P> {
    None,
    One(P),
    Many(Vec<P>),
}

impl<P> Parties<P> {
    fn push(&mut self, who: P) {
        *self = match std::mem::replace(self, Parties::None) {
            Parties::None => Parties::One(who),
            // Room for four: a crowd of workers parked on one block then
            // grows the list by doubling from four, not from two.
            Parties::One(first) => {
                let mut all = Vec::with_capacity(4);
                all.extend([first, who]);
                Parties::Many(all)
            }
            Parties::Many(mut all) => {
                all.push(who);
                Parties::Many(all)
            }
        };
    }

    /// Whether nobody is listed.
    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, Parties::None)
    }
}

impl<P> IntoIterator for Parties<P> {
    type Item = P;
    type IntoIter = std::iter::Chain<std::option::IntoIter<P>, std::vec::IntoIter<P>>;

    fn into_iter(self) -> Self::IntoIter {
        let (first, rest) = match self {
            Parties::None => (None, Vec::new()),
            Parties::One(who) => (Some(who), Vec::new()),
            Parties::Many(all) => (None, all),
        };
        first.into_iter().chain(rest)
    }
}

/// One in-flight read and who hears about it.
struct Read<P> {
    io: u64,
    /// Device pages `[start, start + len)` the read covers.
    start: u64,
    len: u32,
    /// Whether landing admits those pages to the pool (hash-join scratch
    /// does not; the shared cursor's untagged blocks land as strays).
    admit: bool,
    /// Parties that issued it as a prefetch, in issue order.
    credit: Parties<P>,
    /// Parties blocked on it, in arrival order.
    parked: Parties<P>,
}

/// A completion that belonged to the window.
pub(crate) enum Landed<P> {
    /// A page or block read landed. `credit` holders come first when both
    /// kinds of party must react.
    Read {
        /// First device page read.
        start: u64,
        /// Pages read.
        len: u32,
        /// Who prefetched it.
        credit: Parties<P>,
        /// Who was blocked on it; each must [`IoWindow::pin`] again.
        parked: Parties<P>,
    },
    /// The party's compute task finished.
    Cpu(P),
    /// A write issued through [`IoWindow::write_page`] is durable.
    Write,
}

/// The per-query read window. See the module docs.
pub(crate) struct IoWindow<P> {
    /// Operator name reported by read failures.
    op: &'static str,
    /// Single-page reads in flight, sorted by io id.
    pages: VecDeque<Read<P>>,
    /// Block reads in flight, sorted by io id.
    blocks: VecDeque<Read<P>>,
    /// Compute tasks in flight, sorted by task id.
    tasks: VecDeque<(TaskId, P)>,
    /// Writes in flight, sorted by io id.
    writes: VecDeque<u64>,
}

impl<P> Read<P> {
    fn new(io: u64, start: u64, len: u32, admit: bool) -> Read<P> {
        Read {
            io,
            start,
            len,
            admit,
            credit: Parties::None,
            parked: Parties::None,
        }
    }
}

/// Where `id` sits in an id-sorted deque, as `binary_search` answers.
/// Both ends are tried first: a fresh handle sorts last and the oldest
/// one usually settles first, so most lookups never search.
fn locate<T, K: Ord>(table: &VecDeque<T>, id: K, key: impl Fn(&T) -> K) -> Result<usize, usize> {
    match table.front() {
        None => return Err(0),
        Some(first) if key(first) == id => return Ok(0),
        Some(_) => {}
    }
    if table.back().is_some_and(|last| key(last) < id) {
        return Err(table.len());
    }
    table.binary_search_by_key(&id, key)
}

fn take<P>(table: &mut VecDeque<Read<P>>, io: u64) -> Option<Read<P>> {
    let i = locate(table, io, |r| r.io).ok()?;
    table.remove(i)
}

impl<P: Copy> IoWindow<P> {
    /// An empty window for operator `op`.
    pub(crate) fn new(op: &'static str) -> IoWindow<P> {
        IoWindow {
            op,
            pages: VecDeque::new(),
            blocks: VecDeque::new(),
            tasks: VecDeque::new(),
            writes: VecDeque::new(),
        }
    }

    /// Pin device page `dp` for `who`. `true`: resident and pinned now.
    /// `false`: `who` is parked on the read that brings it in — an
    /// in-flight block of this window covering it, else a (deduplicated)
    /// page read — and comes back through [`IoWindow::landed`].
    pub(crate) fn pin(&mut self, ctx: &mut SimContext<'_>, dp: u64, who: P) -> bool {
        if ctx.pool.request(dp) == Access::Hit {
            return true;
        }
        let covering = self
            .blocks
            .iter_mut()
            .find(|b| b.admit && dp.wrapping_sub(b.start) < b.len as u64);
        match covering {
            Some(b) => b.parked.push(who),
            None => self.page_read(ctx, dp).parked.push(who),
        }
        false
    }

    /// The (deduplicated) read of `dp`, entered in id order if new here.
    fn page_read(&mut self, ctx: &mut SimContext<'_>, dp: u64) -> &mut Read<P> {
        let io = ctx.read_page(dp);
        let i = match locate(&self.pages, io, |r| r.io) {
            Ok(i) => i,
            Err(i) => {
                self.pages.insert(i, Read::new(io, dp, 1, true));
                i
            }
        };
        &mut self.pages[i]
    }

    /// Read `dp` ahead of need on `who`'s credit, resident or not.
    pub(crate) fn prefetch_page(&mut self, ctx: &mut SimContext<'_>, dp: u64, who: P) {
        self.page_read(ctx, dp).credit.push(who);
    }

    /// Read `len` consecutive pages from `start` ahead of need. `admit`
    /// says whether they are pool pages this window lands (and a later
    /// [`pin`](IoWindow::pin) may join) or traffic that bypasses it.
    pub(crate) fn prefetch_block(
        &mut self,
        ctx: &mut SimContext<'_>,
        start: u64,
        len: u32,
        admit: bool,
        credit: Option<P>,
    ) {
        let mut read = Read::new(ctx.read_block(start, len), start, len, admit);
        if let Some(who) = credit {
            read.credit.push(who);
        }
        self.blocks.push_back(read);
    }

    /// Run `work_us` core-microseconds of compute for `who`.
    pub(crate) fn compute(&mut self, ctx: &mut SimContext<'_>, work_us: f64, who: P) {
        self.tasks.push_back((ctx.submit_cpu(work_us), who));
    }

    /// Write scratch page `dp` (hash-join spill).
    pub(crate) fn write_page(&mut self, ctx: &mut SimContext<'_>, dp: u64) {
        self.writes.push_back(ctx.write_page(dp));
    }

    /// Whether any write is still in flight.
    pub(crate) fn writes_pending(&self) -> bool {
        !self.writes.is_empty()
    }

    /// Disown every read in flight: their completions become *not mine*.
    pub(crate) fn forget_reads(&mut self) {
        self.pages.clear();
        self.blocks.clear();
    }

    /// Route one engine event. `Ok(None)`: not this window's. See the
    /// module docs for the rest.
    pub(crate) fn landed(
        &mut self,
        ctx: &mut SimContext<'_>,
        ev: &Event,
    ) -> Result<Option<Landed<P>>, ExecError> {
        let (read, start, len, status, attempts) = match *ev {
            Event::IoPage {
                io,
                device_page,
                status,
                attempts,
            } => (take(&mut self.pages, io), device_page, 1, status, attempts),
            Event::IoBlock {
                io,
                start,
                len,
                status,
                attempts,
            } => (take(&mut self.blocks, io), start, len, status, attempts),
            Event::IoWrite {
                io,
                start,
                status,
                attempts,
                ..
            } => {
                let Ok(i) = locate(&self.writes, io, |&w| w) else {
                    return Ok(None);
                };
                self.writes.remove(i);
                if status == IoStatus::Error {
                    return Err(io_failure(self.op, start, attempts));
                }
                return Ok(Some(Landed::Write));
            }
            Event::Cpu(task) => {
                let found = locate(&self.tasks, task, |&(t, _)| t).ok();
                let who = found.and_then(|i| self.tasks.remove(i));
                return Ok(who.map(|(_, who)| Landed::Cpu(who)));
            }
            Event::Timer { .. } => return Ok(None),
        };
        let Some(read) = read else {
            return Ok(None);
        };
        if status == IoStatus::Error {
            return Err(io_failure(self.op, start, attempts));
        }
        if read.admit {
            for dp in start..start + len as u64 {
                ctx.pool.admit_prefetched(dp)?;
            }
        }
        Ok(Some(Landed::Read {
            start,
            len,
            credit: read.credit,
            parked: read.parked,
        }))
    }
}

/// The root→leaf index walk: pin a level, decode it, unpin, next.
pub(crate) struct Descent {
    path: Vec<u64>,
    level: usize,
}

impl Descent {
    /// A walk down `path` (device pages, root first).
    pub(crate) fn new(path: Vec<u64>) -> Descent {
        Descent { path, level: 0 }
    }

    /// Move `who` as far as it goes without waiting: `true` once past the
    /// leaf; otherwise the level's read or decode is outstanding under
    /// `who`. Call again when the read lands, and after
    /// [`Descent::decoded`] when the decode does.
    pub(crate) fn advance<P: Copy>(
        &self,
        win: &mut IoWindow<P>,
        ctx: &mut SimContext<'_>,
        who: P,
    ) -> bool {
        let Some(&dp) = self.path.get(self.level) else {
            return true;
        };
        if win.pin(ctx, dp, who) {
            let work = ctx.costs().leaf_decode_us;
            win.compute(ctx, work, who);
        }
        false
    }

    /// The current level's decode finished: release it and step down.
    pub(crate) fn decoded(&mut self, ctx: &mut SimContext<'_>) -> Result<(), ExecError> {
        ctx.pool.unpin(self.path[self.level])?;
        self.level += 1;
        Ok(())
    }
}

/// Completed page runs awaiting in-order consumption at a frontier.
#[derive(Default)]
pub(crate) struct Runs {
    /// Offset of a landed run -> pages.
    ready: BTreeMap<u64, u32>,
    /// Offsets below this are consumed.
    pub(crate) frontier: u64,
}

impl Runs {
    /// `len` pages at `off` are ready.
    pub(crate) fn insert(&mut self, off: u64, len: u32) {
        self.ready.insert(off, len);
    }

    /// Consume the contiguous ready run at the frontier: `(start, pages)`.
    pub(crate) fn take(&mut self) -> Option<(u64, u64)> {
        let start = self.frontier;
        while let Some(len) = self.ready.remove(&self.frontier) {
            self.frontier += len as u64;
        }
        (self.frontier > start).then_some((start, self.frontier - start))
    }

    /// Drop every unconsumed run and restart at `frontier`.
    pub(crate) fn restart(&mut self, frontier: u64) {
        self.ready.clear();
        self.frontier = frontier;
    }
}

/// A sequential block reader: streams `total_pages` pages from `base_dp`
/// in `block_pages`-sized submissions with at most `depth` in flight, and
/// hands back contiguous ready runs at the frontier.
pub(crate) struct BlockStream<P> {
    who: P,
    base_dp: u64,
    total_pages: u64,
    block_pages: u32,
    depth: u32,
    admit: bool,
    /// Next page offset to submit.
    next_off: u64,
    in_flight: u32,
    runs: Runs,
}

impl<P: Copy> BlockStream<P> {
    /// A stream whose blocks carry `who` as their credit holder; `admit`
    /// as for [`IoWindow::prefetch_block`].
    pub(crate) fn new(
        who: P,
        base_dp: u64,
        total_pages: u64,
        block_pages: u32,
        depth: u32,
        admit: bool,
    ) -> BlockStream<P> {
        BlockStream {
            who,
            base_dp,
            total_pages,
            block_pages: block_pages.max(1),
            depth: depth.max(1),
            admit,
            next_off: 0,
            in_flight: 0,
            runs: Runs::default(),
        }
    }

    /// Everything submitted, landed and consumed.
    pub(crate) fn exhausted(&self) -> bool {
        self.runs.frontier >= self.total_pages
    }

    /// Keep `depth` blocks in flight.
    pub(crate) fn top_up(&mut self, win: &mut IoWindow<P>, ctx: &mut SimContext<'_>) {
        while self.next_off < self.total_pages && self.in_flight < self.depth {
            let len = (self.block_pages as u64).min(self.total_pages - self.next_off) as u32;
            let start = self.base_dp + self.next_off;
            win.prefetch_block(ctx, start, len, self.admit, Some(self.who));
            self.in_flight += 1;
            self.next_off += len as u64;
        }
    }

    /// One of the stream's blocks landed.
    pub(crate) fn landed(&mut self, start: u64, len: u32) {
        self.in_flight -= 1;
        self.runs.insert(start - self.base_dp, len);
    }

    /// Consume the contiguous ready run at the frontier, as page offsets.
    pub(crate) fn take_run(&mut self) -> Option<(u64, u64)> {
        self.runs.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuConfig;
    use crate::engine::{CpuCosts, RetryPolicy};
    use pioqo_bufpool::BufferPool;
    use pioqo_device::presets::consumer_pcie_ssd;
    use pioqo_device::{DeviceModel, FaultPlan, Faulty};

    fn context<'a>(dev: &'a mut dyn DeviceModel, pool: &'a mut BufferPool) -> SimContext<'a> {
        SimContext::new(dev, pool, CpuConfig::paper_xeon(), CpuCosts::default())
    }

    /// Step to quiescence and return every event, in delivery order.
    fn drain(ctx: &mut SimContext<'_>) -> Vec<Event> {
        let (mut all, mut batch) = (Vec::new(), Vec::new());
        while ctx.step(&mut batch) {
            all.append(&mut batch);
        }
        all
    }

    /// The `(credit, parked)` parties of a landed read, in delivery order.
    fn parties<P>(landed: Option<Landed<P>>) -> (Vec<P>, Vec<P>) {
        match landed {
            Some(Landed::Read { credit, parked, .. }) => {
                (credit.into_iter().collect(), parked.into_iter().collect())
            }
            _ => panic!("expected a landed read"),
        }
    }

    #[test]
    fn locate_answers_as_a_binary_search() {
        for n in 0..8u64 {
            // Ids 10, 20, ... with gaps, the deque wrapped around its buffer.
            let mut table: VecDeque<u64> = VecDeque::with_capacity(8);
            table.extend(0..3);
            table.drain(..3);
            table.extend((1..=n).map(|i| i * 10));
            for id in 0..=(n + 1) * 10 {
                assert_eq!(
                    locate(&table, id, |&v| v),
                    table.binary_search(&id),
                    "n={n} id={id}"
                );
            }
        }
    }

    #[test]
    fn parties_keep_their_order_across_the_switch_to_the_heap() {
        for n in 1..=3u8 {
            let mut dev = consumer_pcie_ssd(1 << 16, 1);
            let mut pool = BufferPool::new(16);
            let mut ctx = context(&mut dev, &mut pool);
            let mut win: IoWindow<u8> = IoWindow::new("test");
            let credit: Vec<u8> = (0..n).collect();
            let parked: Vec<u8> = (10..10 + n).collect();
            // A page read: credit holders and parked parties interleaved.
            for (&c, &p) in credit.iter().zip(&parked) {
                win.prefetch_page(&mut ctx, 7, c);
                assert!(!win.pin(&mut ctx, 7, p));
            }
            // A block read: one credit holder, then parties parked on
            // pages it covers.
            win.prefetch_block(&mut ctx, 100, 4, true, Some(99));
            for &p in &parked {
                assert!(!win.pin(&mut ctx, 100 + u64::from(p % 4), p));
            }
            assert_eq!(win.pages.len(), 1, "n={n}: one deduplicated page read");
            assert_eq!(win.blocks.len(), 1, "n={n}: the block covers every pin");
            for ev in drain(&mut ctx) {
                let got = parties(win.landed(&mut ctx, &ev).unwrap());
                match ev {
                    Event::IoPage { .. } => assert_eq!(got, (credit.clone(), parked.clone())),
                    Event::IoBlock { .. } => assert_eq!(got, (vec![99], parked.clone())),
                    _ => panic!("only reads were issued"),
                }
            }
            assert!(win.pages.is_empty() && win.blocks.is_empty());
        }
    }

    #[test]
    fn a_second_query_joining_an_in_flight_read_wakes_both() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(8);
        let mut ctx = context(&mut dev, &mut pool);
        let mut first: IoWindow<char> = IoWindow::new("first");
        let mut second: IoWindow<char> = IoWindow::new("second");
        // Query 1 reads page 5; query 2 joins the read with two parties,
        // the second of which moves its list to the heap.
        assert!(!ctx.with_owner(1, |ctx| first.pin(ctx, 5, 'a')));
        ctx.with_owner(2, |ctx| {
            second.prefetch_page(ctx, 5, 'c');
            assert!(!second.pin(ctx, 5, 'b'));
            assert!(!second.pin(ctx, 5, 'd'));
        });
        let mut events = Vec::new();
        let mut woken = Vec::new();
        while ctx.step(&mut events) {
            for (i, ev) in events.iter().enumerate() {
                assert_eq!(ctx.event_owners(i), [1, 2], "both queries own the read");
                // Each owner's window hands back only its own parties.
                woken.push(parties(first.landed(&mut ctx, ev).unwrap()));
                woken.push(parties(second.landed(&mut ctx, ev).unwrap()));
            }
            events.clear();
        }
        assert_eq!(
            woken,
            [(vec![], vec!['a']), (vec!['c'], vec!['b', 'd'])],
            "one physical read wakes both queries"
        );
        assert_eq!(ctx.io_profile().io_ops, 1);
        assert!(ctx.pool.contains(5));
    }

    #[test]
    fn foreign_completions_are_not_mine_and_touch_nothing() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(8);
        let mut ctx = context(&mut dev, &mut pool);
        let mut win: IoWindow<u8> = IoWindow::new("test");
        // A predecessor's strays: same context, not this window's handles.
        ctx.read_page(100);
        ctx.read_block(200, 4);
        ctx.write_page(300);
        ctx.submit_cpu(1.0);
        let events = drain(&mut ctx);
        assert_eq!(events.len(), 4);
        for ev in &events {
            assert!(win.landed(&mut ctx, ev).expect("no error").is_none());
        }
        assert!(ctx.pool.is_empty(), "a foreign read must not be admitted");
        ctx.pool.flush_all(); // asserts no frame is pinned
    }

    #[test]
    fn older_deduplicated_handle_sorts_in_and_wakes_credit_then_parked() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(8);
        let mut ctx = context(&mut dev, &mut pool);
        let mut win: IoWindow<char> = IoWindow::new("test");
        // Another query already reads page 7; ours then reads page 8 and
        // only afterwards joins the older read, twice.
        let older = ctx.read_page(7);
        win.prefetch_page(&mut ctx, 8, 'a');
        assert!(!win.pin(&mut ctx, 7, 'p'), "page 7 is not resident");
        win.prefetch_page(&mut ctx, 7, 'c');
        let ids: Vec<u64> = win.pages.iter().map(|r| r.io).collect();
        assert_eq!(ids, [older, older + 1], "joined in id order, one entry");

        let mut seen = Vec::new();
        for ev in drain(&mut ctx) {
            let Event::IoPage { device_page, .. } = ev else {
                panic!("only page reads were issued");
            };
            seen.push((device_page, parties(win.landed(&mut ctx, &ev).unwrap())));
        }
        seen.sort();
        assert_eq!(seen[0], (7, (vec!['c'], vec!['p'])), "credit and parked");
        assert_eq!(seen[1], (8, (vec!['a'], vec![])));
        assert!(win.pages.is_empty());
        assert!(win.pin(&mut ctx, 7, 'p'), "landed pages are resident");
        ctx.pool.unpin(7).expect("pinned by the line above");
    }

    #[test]
    fn page_evicted_before_the_wake_is_read_again() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(2);
        let mut ctx = context(&mut dev, &mut pool);
        let mut win: IoWindow<u8> = IoWindow::new("test");
        assert!(!win.pin(&mut ctx, 10, 0));
        let first = drain(&mut ctx);
        assert_eq!(parties(win.landed(&mut ctx, &first[0]).unwrap()).1, [0]);
        // Two other admissions push page 10 out of the 2-frame pool before
        // the woken party gets to pin it.
        ctx.pool.admit_prefetched(11).expect("room");
        ctx.pool.admit_prefetched(12).expect("room");
        assert!(!win.pin(&mut ctx, 10, 0), "evicted: a fresh read, parked");
        let second = drain(&mut ctx);
        assert_eq!(second.len(), 1, "the re-read completes");
        assert_eq!(parties(win.landed(&mut ctx, &second[0]).unwrap()).1, [0]);
        assert!(win.pin(&mut ctx, 10, 0));
        assert_eq!(ctx.io_profile().pages_read, 2);
        assert_eq!(ctx.pool.stats().refetches, 1);
    }

    #[test]
    fn failed_read_carries_the_operator_name() {
        for (policy, want) in [
            (
                RetryPolicy::default(),
                ExecError::Io {
                    operator: "probe_op",
                    device_page: 40,
                },
            ),
            (
                RetryPolicy::attempts(3),
                ExecError::IoExhausted {
                    device_page: 40,
                    attempts: 3,
                },
            ),
        ] {
            let mut dev = Faulty::new(consumer_pcie_ssd(1 << 16, 1), FaultPlan::EveryNth(1));
            let mut pool = BufferPool::new(8);
            let mut ctx = context(&mut dev, &mut pool);
            ctx.set_retry_policy(policy);
            let mut win: IoWindow<u8> = IoWindow::new("probe_op");
            assert!(!win.pin(&mut ctx, 40, 0));
            let events = drain(&mut ctx);
            assert_eq!(events.len(), 1);
            assert_eq!(win.landed(&mut ctx, &events[0]).err(), Some(want));
            assert!(!ctx.pool.contains(40));
        }
    }

    #[test]
    fn out_of_order_blocks_coalesce_once_the_frontier_lands() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(64);
        let mut ctx = context(&mut dev, &mut pool);
        let mut win: IoWindow<()> = IoWindow::new("test");
        let mut stream = BlockStream::new((), 1000, 10, 4, 8, true);
        stream.top_up(&mut win, &mut ctx);
        let mut events = drain(&mut ctx);
        assert_eq!(events.len(), 3, "blocks of 4 + 4 + 2 pages");
        // Deliver the frontier block last.
        events.sort_by_key(|ev| match *ev {
            Event::IoBlock { start, .. } => std::cmp::Reverse(start),
            _ => panic!("only block reads were issued"),
        });
        for (i, ev) in events.iter().enumerate() {
            let Some(Landed::Read { start, len, .. }) = win.landed(&mut ctx, ev).unwrap() else {
                panic!("the stream's own block");
            };
            stream.landed(start, len);
            if i < 2 {
                assert_eq!(stream.take_run(), None, "hole at the frontier");
            }
        }
        assert_eq!(stream.take_run(), Some((0, 10)), "one coalesced run");
        assert!(stream.exhausted());
        assert!((1000..1010).all(|dp| ctx.pool.contains(dp)));
    }

    #[test]
    fn scratch_block_bypasses_the_pool() {
        let mut dev = consumer_pcie_ssd(1 << 16, 1);
        let mut pool = BufferPool::new(64);
        let mut ctx = context(&mut dev, &mut pool);
        let mut win: IoWindow<u8> = IoWindow::new("test");
        win.prefetch_block(&mut ctx, 500, 4, false, Some(1));
        win.prefetch_block(&mut ctx, 600, 4, true, None);
        assert!(!win.pin(&mut ctx, 601, 2), "joins the covering pool block");
        assert!(win.pages.is_empty(), "no second read of page 601");
        for ev in drain(&mut ctx) {
            let Event::IoBlock { start, .. } = ev else {
                panic!("only block reads were issued");
            };
            let (credit, parked) = parties(win.landed(&mut ctx, &ev).unwrap());
            if start == 500 {
                assert_eq!((credit, parked), (vec![1], vec![]));
            } else {
                assert_eq!((credit, parked), (vec![], vec![2]));
            }
        }
        assert!((500..504).all(|dp| !ctx.pool.contains(dp)));
        assert!((600..604).all(|dp| ctx.pool.contains(dp)));
    }
}
