//! # pioqo-bufpool — buffer pool
//!
//! An LRU page cache with pinning, sized in frames. Two properties matter
//! for the paper's experiments:
//!
//! * With a **small pool** (64 MB in §3.1), a high-selectivity index scan
//!   re-fetches table pages it already read — the effect that lets IS fetch
//!   *more* pages than the table holds (§2) and that the optimizer's
//!   Mackert–Lohman cardinality model estimates.
//! * The pool reports **how many of a table's pages are cached**, because
//!   "SQL Anywhere maintains statistics on how many table and index pages
//!   are currently cached" and the optimizer uses them (§4.3).
//!
//! The pool tracks *residency*, not payloads: logical row values live in
//! `pioqo-storage`'s column data, so frames carry no bytes. Every hit,
//! miss, eviction and refetch is counted.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod wal;

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of a page request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Page resident: it was pinned and moved to MRU.
    Hit,
    /// Page absent: the caller must perform I/O, then call
    /// [`BufferPool::admit`].
    Miss,
}

/// Errors from pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// Every frame is pinned or dirty; nothing can be evicted.
    AllPinned,
    /// `unpin` on a page that is not resident or not pinned.
    NotPinned(u64),
    /// A dirty-bit operation on a page that is not resident.
    NotResident(u64),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::AllPinned => {
                write!(f, "buffer pool exhausted: all frames pinned or dirty")
            }
            PoolError::NotPinned(p) => write!(f, "page {p} is not pinned"),
            PoolError::NotResident(p) => write!(f, "page {p} is not resident"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Counters exposed by the pool.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PoolStats {
    /// Requests satisfied from the pool.
    pub hits: u64,
    /// Requests that required I/O.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Misses on pages that had been resident before (the §2 "same table
    /// pages retrieved over and over again" effect).
    pub refetches: u64,
    /// Pages admitted by prefetch rather than demand.
    pub prefetch_admissions: u64,
    /// Demand requests that hit a page a prefetch admitted.
    pub prefetch_hits: u64,
    /// Clean→dirty transitions ([`BufferPool::mark_dirty`]).
    pub pages_dirtied: u64,
    /// Dirty→clean transitions after a durable writeback
    /// ([`BufferPool::mark_clean`]).
    pub pages_flushed: u64,
}

impl PoolStats {
    /// Fold another snapshot into this one, field by field — the single
    /// reduction used by parallel harnesses and trace summaries.
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.refetches += other.refetches;
        self.prefetch_admissions += other.prefetch_admissions;
        self.prefetch_hits += other.prefetch_hits;
        self.pages_dirtied += other.pages_dirtied;
        self.pages_flushed += other.pages_flushed;
    }

    /// Counters accumulated since the `before` snapshot (`self - before`).
    /// `before` must be an earlier snapshot of the same pool.
    pub fn diff(&self, before: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            refetches: self.refetches - before.refetches,
            prefetch_admissions: self.prefetch_admissions - before.prefetch_admissions,
            prefetch_hits: self.prefetch_hits - before.prefetch_hits,
            pages_dirtied: self.pages_dirtied - before.pages_dirtied,
            pages_flushed: self.pages_flushed - before.pages_flushed,
        }
    }
}

/// One entry of the pool's optional event journal (see
/// [`BufferPool::set_event_log`]). Events carry no timestamp: the pool has
/// no clock; the simulation context stamps them with virtual time when it
/// drains the journal into a trace sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolEvent {
    /// Request satisfied from memory.
    Hit(u64),
    /// First demand hit on a page a prefetch admitted.
    PrefetchHit(u64),
    /// Request needs I/O (page never resident before).
    Miss(u64),
    /// Request needs I/O on a previously-resident page (a §2 refetch).
    Refetch(u64),
    /// Page evicted to make room.
    Evict(u64),
    /// Resident page transitioned clean→dirty.
    Dirty(u64),
    /// Dirty page transitioned dirty→clean after a durable writeback.
    Flush(u64),
}

const NIL: u32 = u32::MAX;

/// A hit reads and writes its frame and its LRU neighbours', so the frame
/// stays 24 bytes; the stamp and the dirty-list slot are side tables of
/// [`BufferPool`].
#[derive(Debug, Clone, Copy)]
struct Frame {
    page: u64,
    pins: u32,
    prefetched: bool,
    /// Page modified in memory but not yet durably written back. Dirty
    /// frames are never evicted (eviction would silently drop the update).
    dirty: bool,
    prev: u32,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Frame>() == 24);

/// Page-id → frame-index table, the pool's hottest data structure.
///
/// The default backend is **dense**: page ids are dense per tablespace
/// (tables and indexes are laid out consecutively from page 0), so a flat
/// `Vec<u32>` indexed by page id gives O(1) lookups where the original
/// `BTreeMap` paid O(log n) with pointer chasing on every single page
/// access. The vector grows geometrically to the highest page id ever
/// admitted — a few bytes per page of *addressed* extent, not of device
/// capacity. The `BTree` backend is retained as the reference model for
/// the property test.
#[derive(Debug)]
enum PageTable {
    /// `slots[page] == NIL` means not resident; `seen` is a bitset of page
    /// ids ever admitted (refetch accounting).
    Dense {
        /// Frame index per page id, `NIL` when absent.
        slots: Vec<u32>,
        /// Resident count (number of non-`NIL` slots).
        resident: usize,
        /// One bit per page id: admitted at least once since last flush.
        seen: Vec<u64>,
    },
    /// The original map-based table, kept as a comparison baseline.
    BTree {
        /// Page id → frame index.
        map: BTreeMap<u64, u32>,
        /// Page ids admitted at least once since last flush.
        seen: BTreeSet<u64>,
    },
}

impl PageTable {
    #[inline]
    fn get(&self, page: u64) -> Option<u32> {
        match self {
            PageTable::Dense { slots, .. } => match slots.get(page as usize) {
                Some(&idx) if idx != NIL => Some(idx),
                _ => None,
            },
            PageTable::BTree { map, .. } => map.get(&page).copied(),
        }
    }

    /// Insert a page that is known to be absent.
    fn insert(&mut self, page: u64, frame: u32) {
        match self {
            PageTable::Dense {
                slots, resident, ..
            } => {
                let i = page as usize;
                if i >= slots.len() {
                    let new_len = (i + 1).next_power_of_two().max(64);
                    slots.resize(new_len, NIL);
                }
                debug_assert_eq!(slots[i], NIL);
                slots[i] = frame;
                *resident += 1;
            }
            PageTable::BTree { map, .. } => {
                map.insert(page, frame);
            }
        }
    }

    /// Remove a page that is known to be present.
    fn remove(&mut self, page: u64) {
        match self {
            PageTable::Dense {
                slots, resident, ..
            } => {
                debug_assert_ne!(slots[page as usize], NIL);
                slots[page as usize] = NIL;
                *resident -= 1;
            }
            PageTable::BTree { map, .. } => {
                map.remove(&page);
            }
        }
    }

    #[inline]
    fn resident(&self) -> usize {
        match self {
            PageTable::Dense { resident, .. } => *resident,
            PageTable::BTree { map, .. } => map.len(),
        }
    }

    fn mark_seen(&mut self, page: u64) {
        match self {
            PageTable::Dense { seen, .. } => {
                let word = (page / 64) as usize;
                if word >= seen.len() {
                    let new_len = (word + 1).next_power_of_two().max(8);
                    seen.resize(new_len, 0);
                }
                seen[word] |= 1 << (page % 64);
            }
            PageTable::BTree { seen, .. } => {
                seen.insert(page);
            }
        }
    }

    #[inline]
    fn was_seen(&self, page: u64) -> bool {
        match self {
            PageTable::Dense { seen, .. } => seen
                .get((page / 64) as usize)
                .is_some_and(|w| w & (1 << (page % 64)) != 0),
            PageTable::BTree { seen, .. } => seen.contains(&page),
        }
    }

    /// Drop residency and history, keeping allocations for reuse.
    fn clear(&mut self) {
        match self {
            PageTable::Dense {
                slots,
                resident,
                seen,
            } => {
                slots.iter_mut().for_each(|s| *s = NIL);
                seen.iter_mut().for_each(|w| *w = 0);
                *resident = 0;
            }
            PageTable::BTree { map, seen } => {
                map.clear();
                seen.clear();
            }
        }
    }
}

/// An LRU buffer pool. See the crate docs.
#[derive(Debug)]
pub struct BufferPool {
    cap: usize,
    frames: Vec<Frame>,
    table: PageTable,
    /// LRU list head (least recent) and tail (most recent) among resident
    /// frames; pinned frames stay in the list but are skipped by eviction.
    head: u32,
    tail: u32,
    /// Per frame, when it last became MRU: ascending stamps are exactly
    /// the head-to-tail LRU order. Apart from `dirty_at` because a hit
    /// writes it.
    stamp: Vec<u64>,
    /// Stamp the next [`push_mru`](Self::push_mru) hands out.
    next_stamp: u64,
    /// Per frame, its position in `dirty` while it is dirty.
    dirty_at: Vec<u32>,
    stats: PoolStats,
    /// Dirty resident frames right now, in no particular order until
    /// [`BufferPool::dirty_pages`] sorts them. Maintained on every
    /// clean<->dirty transition, so neither the dirty count the metrics
    /// sampler reads nor the flusher's list walks the pool.
    dirty: Vec<u32>,
    /// Event journal, disabled (and costless beyond one branch) by default.
    journal: Option<Vec<PoolEvent>>,
}

impl BufferPool {
    /// A pool with `capacity` frames (must be >= 1), using the dense
    /// page-table fast path.
    pub fn new(capacity: usize) -> BufferPool {
        Self::with_table(
            capacity,
            PageTable::Dense {
                slots: Vec::new(),
                resident: 0,
                seen: Vec::new(),
            },
        )
    }

    /// A pool backed by the original `BTreeMap` page table.
    ///
    /// Behaviourally identical to [`BufferPool::new`] — the property test
    /// in `tests/` replays random traces against both and asserts equal
    /// `Access` results, evictions and [`PoolStats`].
    pub fn new_reference(capacity: usize) -> BufferPool {
        Self::with_table(
            capacity,
            PageTable::BTree {
                map: BTreeMap::new(),
                seen: BTreeSet::new(),
            },
        )
    }

    fn with_table(capacity: usize, table: PageTable) -> BufferPool {
        assert!(capacity >= 1, "pool needs at least one frame");
        assert!(capacity < NIL as usize, "pool too large for u32 links");
        BufferPool {
            cap: capacity,
            frames: Vec::new(),
            table,
            head: NIL,
            tail: NIL,
            stamp: Vec::new(),
            next_stamp: 0,
            dirty_at: Vec::new(),
            stats: PoolStats::default(),
            dirty: Vec::new(),
            journal: None,
        }
    }

    /// Enable or disable the event journal. While enabled, every hit,
    /// miss, refetch, prefetch hit and eviction is appended to an internal
    /// buffer the caller drains with [`BufferPool::take_events`].
    /// Disabling clears any undrained entries.
    pub fn set_event_log(&mut self, enabled: bool) {
        self.journal = if enabled { Some(Vec::new()) } else { None };
    }

    /// Move every journaled event (in occurrence order) into `out`.
    /// No-op when the journal is disabled.
    pub fn take_events(&mut self, out: &mut Vec<PoolEvent>) {
        if let Some(j) = &mut self.journal {
            out.append(j);
        }
    }

    #[inline]
    fn log(&mut self, ev: PoolEvent) {
        if let Some(j) = &mut self.journal {
            j.push(ev);
        }
    }

    /// Capacity in frames.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Resident page count.
    pub fn len(&self) -> usize {
        self.table.resident()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.table.resident() == 0
    }

    /// Counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// True if `page` is resident (no side effects, no pinning).
    pub fn contains(&self, page: u64) -> bool {
        self.table.get(page).is_some()
    }

    /// Number of resident pages within `[base, base+len)` — the cached-page
    /// statistic the optimizer consults per table/index extent.
    pub fn resident_in_range(&self, base: u64, len: u64) -> u64 {
        if (self.table.resident() as u64) <= len {
            // Fewer residents than range pages: walk the LRU list.
            let mut count = 0u64;
            let mut cur = self.head;
            while cur != NIL {
                let f = &self.frames[cur as usize];
                if f.page >= base && f.page < base + len {
                    count += 1;
                }
                cur = f.next;
            }
            count
        } else {
            (base..base + len)
                .filter(|&p| self.table.get(p).is_some())
                .count() as u64
        }
    }

    fn detach(&mut self, idx: u32) {
        let f = self.frames[idx as usize];
        match f.prev {
            NIL => self.head = f.next,
            p => self.frames[p as usize].next = f.next,
        }
        match f.next {
            NIL => self.tail = f.prev,
            n => self.frames[n as usize].prev = f.prev,
        }
        self.frames[idx as usize].prev = NIL;
        self.frames[idx as usize].next = NIL;
    }

    #[inline]
    fn push_mru(&mut self, idx: u32) {
        self.stamp[idx as usize] = self.next_stamp;
        self.next_stamp += 1;
        self.frames[idx as usize].prev = self.tail;
        self.frames[idx as usize].next = NIL;
        match self.tail {
            NIL => self.head = idx,
            t => self.frames[t as usize].next = idx,
        }
        self.tail = idx;
    }

    /// Request `page` for reading. On [`Access::Hit`] the page is pinned
    /// and promoted to MRU; on [`Access::Miss`] the caller must do the I/O
    /// and then [`admit`](BufferPool::admit) the page.
    pub fn request(&mut self, page: u64) -> Access {
        if let Some(idx) = self.table.get(page) {
            self.stats.hits += 1;
            if self.frames[idx as usize].prefetched {
                self.stats.prefetch_hits += 1;
                self.frames[idx as usize].prefetched = false;
                self.log(PoolEvent::PrefetchHit(page));
            } else {
                self.log(PoolEvent::Hit(page));
            }
            self.frames[idx as usize].pins += 1;
            self.detach(idx);
            self.push_mru(idx);
            Access::Hit
        } else {
            self.stats.misses += 1;
            if self.table.was_seen(page) {
                self.stats.refetches += 1;
                self.log(PoolEvent::Refetch(page));
            } else {
                self.log(PoolEvent::Miss(page));
            }
            Access::Miss
        }
    }

    /// Make `page` resident and pinned after a demand-read I/O. Evicts the
    /// LRU unpinned frame when full. Admitting an already-resident page
    /// just pins it (two workers can race on the same miss).
    pub fn admit(&mut self, page: u64) -> Result<(), PoolError> {
        self.admit_inner(page, false, true)
    }

    /// Make `page` resident *unpinned*, as an asynchronous prefetch
    /// completion does. No-op if already resident.
    pub fn admit_prefetched(&mut self, page: u64) -> Result<(), PoolError> {
        self.admit_inner(page, true, false)
    }

    fn admit_inner(&mut self, page: u64, prefetched: bool, pin: bool) -> Result<(), PoolError> {
        if let Some(idx) = self.table.get(page) {
            if pin {
                self.frames[idx as usize].pins += 1;
                self.detach(idx);
                self.push_mru(idx);
            }
            return Ok(());
        }
        self.table.mark_seen(page);
        if prefetched {
            self.stats.prefetch_admissions += 1;
        }
        let frame = Frame {
            page,
            pins: u32::from(pin),
            prefetched,
            dirty: false,
            prev: NIL,
            next: NIL,
        };
        let idx = if self.frames.len() < self.cap {
            self.frames.push(frame);
            self.stamp.push(0);
            self.dirty_at.push(NIL);
            (self.frames.len() - 1) as u32
        } else {
            let idx = self.evict_lru()?;
            self.frames[idx as usize] = frame;
            idx
        };
        self.table.insert(page, idx);
        self.push_mru(idx);
        Ok(())
    }

    /// Evict the least-recently-used unpinned *clean* frame; returns its
    /// index. Dirty frames are skipped like pinned ones: dropping a dirty
    /// frame would lose an update that may not be WAL-durable yet, so the
    /// flusher — not the eviction path — is the only way out of dirty.
    fn evict_lru(&mut self) -> Result<u32, PoolError> {
        let mut cur = self.head;
        while cur != NIL {
            if self.frames[cur as usize].pins == 0 && !self.frames[cur as usize].dirty {
                let page = self.frames[cur as usize].page;
                self.detach(cur);
                self.table.remove(page);
                self.stats.evictions += 1;
                self.log(PoolEvent::Evict(page));
                return Ok(cur);
            }
            cur = self.frames[cur as usize].next;
        }
        Err(PoolError::AllPinned)
    }

    /// Mark a resident page dirty (modified in memory, not yet written
    /// back). Idempotent: re-dirtying a dirty page counts nothing. The
    /// page need not be pinned — the write path typically dirties while
    /// pinned, but the bit itself is what protects the frame from
    /// eviction.
    pub fn mark_dirty(&mut self, page: u64) -> Result<(), PoolError> {
        let idx = self.table.get(page).ok_or(PoolError::NotResident(page))?;
        if !self.frames[idx as usize].dirty {
            self.frames[idx as usize].dirty = true;
            self.dirty_at[idx as usize] = self.dirty.len() as u32;
            self.dirty.push(idx);
            self.stats.pages_dirtied += 1;
            self.log(PoolEvent::Dirty(page));
        }
        Ok(())
    }

    /// Mark a resident page clean after its image became durable on media.
    /// Idempotent on already-clean pages.
    pub fn mark_clean(&mut self, page: u64) -> Result<(), PoolError> {
        let idx = self.table.get(page).ok_or(PoolError::NotResident(page))?;
        if std::mem::replace(&mut self.frames[idx as usize].dirty, false) {
            let at = self.dirty_at[idx as usize];
            self.dirty.swap_remove(at as usize);
            if let Some(&moved) = self.dirty.get(at as usize) {
                self.dirty_at[moved as usize] = at;
            }
            self.stats.pages_flushed += 1;
            self.log(PoolEvent::Flush(page));
        }
        Ok(())
    }

    /// True if `page` is resident and dirty.
    pub fn is_dirty(&self, page: u64) -> bool {
        self.table
            .get(page)
            .is_some_and(|idx| self.frames[idx as usize].dirty)
    }

    /// Number of dirty resident pages (O(1), maintained on transitions).
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Append every dirty page to `out` in LRU order (coldest first), the
    /// order a background flusher wants to write them back in. Costs
    /// O(d log d) in the d dirty pages, not a walk of the pool: the dirty
    /// list is sorted by stamp in place, so it stays nearly sorted from one
    /// call to the next.
    pub fn dirty_pages(&mut self, out: &mut Vec<u64>) {
        let stamp = &self.stamp;
        self.dirty.sort_unstable_by_key(|&i| stamp[i as usize]);
        for (at, &i) in self.dirty.iter().enumerate() {
            self.dirty_at[i as usize] = at as u32;
            out.push(self.frames[i as usize].page);
        }
    }

    /// Release one pin on `page`.
    pub fn unpin(&mut self, page: u64) -> Result<(), PoolError> {
        let idx = self.table.get(page).ok_or(PoolError::NotPinned(page))?;
        let f = &mut self.frames[idx as usize];
        if f.pins == 0 {
            return Err(PoolError::NotPinned(page));
        }
        f.pins -= 1;
        Ok(())
    }

    /// Drop every resident page and forget refetch history — the paper
    /// flushes the buffer pool at the start of each experiment (§3.2).
    /// Counters survive so callers may snapshot them first.
    ///
    /// # Panics
    /// Panics when any frame is still pinned **or dirty**: dropping a
    /// dirty frame would discard an update that may not be WAL-durable.
    /// Write back (and [`mark_clean`](Self::mark_clean)) first, or model a
    /// crash explicitly with [`discard_all`](Self::discard_all).
    pub fn flush_all(&mut self) {
        assert!(
            self.frames.iter().all(|f| f.pins == 0),
            "flush with pinned pages"
        );
        assert!(
            self.dirty.is_empty(),
            "flush with dirty pages: un-flushed updates would be dropped"
        );
        self.discard_all();
    }

    /// Drop everything *unconditionally*, pinned and dirty frames
    /// included — the in-memory state simply ceases to exist, as it does
    /// at a crash. Only crash-modeling callers should use this; normal
    /// teardown goes through [`flush_all`](Self::flush_all).
    pub fn discard_all(&mut self) {
        self.table.clear();
        self.frames.clear();
        self.head = NIL;
        self.tail = NIL;
        self.stamp.clear();
        self.dirty_at.clear();
        self.dirty.clear();
    }

    /// Invariant checker used by tests: list membership matches the map,
    /// no duplicate pages, length within capacity, stamps ascend from head
    /// to tail, and the dirty list sorted by stamp equals the head-to-tail
    /// walk filtered to dirty frames. It sorts a copy, so the dirty list
    /// stays as unsorted as the operations left it. Returns that walk: what
    /// [`dirty_pages`](Self::dirty_pages) must list.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Vec<u64> {
        assert!(self.table.resident() <= self.cap);
        let mut seen = 0usize;
        let mut walked_dirty = Vec::new();
        let mut cur = self.head;
        let mut prev = NIL;
        while cur != NIL {
            let f = &self.frames[cur as usize];
            assert_eq!(f.prev, prev, "broken prev link");
            assert_eq!(self.table.get(f.page), Some(cur), "table/list mismatch");
            if prev != NIL {
                assert!(
                    self.stamp[prev as usize] < self.stamp[cur as usize],
                    "stamps out of LRU order"
                );
            }
            if f.dirty {
                let at = self.dirty_at[cur as usize];
                assert_eq!(self.dirty.get(at as usize), Some(&cur), "stale dirty slot");
                walked_dirty.push(f.page);
            }
            seen += 1;
            prev = cur;
            cur = f.next;
        }
        assert_eq!(seen, self.table.resident(), "list length != resident count");
        assert_eq!(self.tail, prev, "tail mismatch");
        assert_eq!(self.stamp.len(), self.frames.len(), "stamp table length");
        assert_eq!(self.dirty_at.len(), self.frames.len(), "slot table length");
        let mut sorted = self.dirty.clone();
        sorted.sort_unstable_by_key(|&i| self.stamp[i as usize]);
        let listed: Vec<u64> = sorted
            .iter()
            .map(|&i| self.frames[i as usize].page)
            .collect();
        assert_eq!(
            listed, walked_dirty,
            "dirty list by stamp != dirty frames in LRU order"
        );
        walked_dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_admit() {
        let mut p = BufferPool::new(4);
        assert_eq!(p.request(10), Access::Miss);
        p.admit(10).expect("admit");
        p.unpin(10).expect("unpin");
        assert_eq!(p.request(10), Access::Hit);
        p.unpin(10).expect("unpin");
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
        p.check_invariants();
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = BufferPool::new(2);
        for page in [1u64, 2] {
            assert_eq!(p.request(page), Access::Miss);
            p.admit(page).expect("admit");
            p.unpin(page).expect("unpin");
        }
        // Touch 1 so 2 becomes LRU.
        assert_eq!(p.request(1), Access::Hit);
        p.unpin(1).expect("unpin");
        assert_eq!(p.request(3), Access::Miss);
        p.admit(3).expect("admit");
        p.unpin(3).expect("unpin");
        assert!(p.contains(1));
        assert!(!p.contains(2), "LRU page 2 should have been evicted");
        assert!(p.contains(3));
        assert_eq!(p.stats().evictions, 1);
        p.check_invariants();
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let mut p = BufferPool::new(2);
        p.request(1);
        p.admit(1).expect("admit"); // stays pinned
        p.request(2);
        p.admit(2).expect("admit");
        p.unpin(2).expect("unpin");
        p.request(3);
        p.admit(3).expect("admit"); // must evict 2, not pinned 1
        assert!(p.contains(1));
        assert!(!p.contains(2));
        p.check_invariants();
    }

    #[test]
    fn all_pinned_is_an_error() {
        let mut p = BufferPool::new(1);
        p.request(1);
        p.admit(1).expect("admit");
        assert_eq!(p.admit(2), Err(PoolError::AllPinned));
    }

    #[test]
    fn refetch_accounting() {
        let mut p = BufferPool::new(1);
        p.request(1);
        p.admit(1).expect("admit");
        p.unpin(1).expect("unpin");
        p.request(2);
        p.admit(2).expect("admit"); // evicts 1
        p.unpin(2).expect("unpin");
        assert_eq!(p.request(1), Access::Miss); // refetch!
        assert_eq!(p.stats().refetches, 1);
        assert_eq!(p.stats().misses, 3);
    }

    #[test]
    fn prefetch_admission_and_hit() {
        let mut p = BufferPool::new(4);
        p.admit_prefetched(7).expect("admit");
        assert_eq!(p.stats().prefetch_admissions, 1);
        assert_eq!(p.request(7), Access::Hit);
        p.unpin(7).expect("unpin");
        assert_eq!(p.stats().prefetch_hits, 1);
        // Second hit is an ordinary hit, not a prefetch hit.
        assert_eq!(p.request(7), Access::Hit);
        p.unpin(7).expect("unpin");
        assert_eq!(p.stats().prefetch_hits, 1);
    }

    #[test]
    fn double_admit_races_pin_twice() {
        let mut p = BufferPool::new(2);
        p.request(5);
        p.admit(5).expect("admit");
        p.admit(5).expect("second admit pins again");
        p.unpin(5).expect("unpin 1");
        p.unpin(5).expect("unpin 2");
        assert_eq!(p.unpin(5), Err(PoolError::NotPinned(5)));
    }

    #[test]
    fn resident_in_range_counts_extent_pages() {
        let mut p = BufferPool::new(8);
        for page in [100u64, 101, 105, 200] {
            p.admit_prefetched(page).expect("admit");
        }
        assert_eq!(p.resident_in_range(100, 10), 3);
        assert_eq!(p.resident_in_range(0, 50), 0);
        assert_eq!(p.resident_in_range(200, 1), 1);
    }

    #[test]
    fn flush_all_clears_residency_and_history() {
        let mut p = BufferPool::new(2);
        p.request(1);
        p.admit(1).expect("admit");
        p.unpin(1).expect("unpin");
        p.flush_all();
        assert!(p.is_empty());
        assert_eq!(p.request(1), Access::Miss);
        // Not a refetch: flush cleared the history, matching the paper's
        // cold-start protocol.
        assert_eq!(p.stats().refetches, 0);
    }

    #[test]
    fn unpin_unknown_page_errors() {
        let mut p = BufferPool::new(2);
        assert_eq!(p.unpin(9), Err(PoolError::NotPinned(9)));
    }

    #[test]
    fn stats_merge_and_diff_are_inverse_field_sums() {
        let a = PoolStats {
            hits: 10,
            misses: 4,
            evictions: 2,
            refetches: 1,
            prefetch_admissions: 3,
            prefetch_hits: 2,
            pages_dirtied: 6,
            pages_flushed: 4,
        };
        let b = PoolStats {
            hits: 5,
            misses: 1,
            evictions: 0,
            refetches: 0,
            prefetch_admissions: 7,
            prefetch_hits: 1,
            pages_dirtied: 2,
            pages_flushed: 2,
        };
        let mut sum = a.clone();
        sum.merge(&b);
        assert_eq!(sum.hits, 15);
        assert_eq!(sum.prefetch_admissions, 10);
        assert_eq!(sum.pages_dirtied, 8);
        assert_eq!(sum.pages_flushed, 6);
        let back = sum.diff(&b);
        assert_eq!(back.hits, a.hits);
        assert_eq!(back.misses, a.misses);
        assert_eq!(back.evictions, a.evictions);
        assert_eq!(back.refetches, a.refetches);
        assert_eq!(back.prefetch_admissions, a.prefetch_admissions);
        assert_eq!(back.prefetch_hits, a.prefetch_hits);
        assert_eq!(back.pages_dirtied, a.pages_dirtied);
        assert_eq!(back.pages_flushed, a.pages_flushed);
    }

    #[test]
    fn dirty_pages_resist_eviction_and_flush_cleans() {
        let mut p = BufferPool::new(2);
        p.request(1);
        p.admit(1).expect("admit");
        p.mark_dirty(1).expect("resident page can be dirtied");
        p.unpin(1).expect("unpin");
        p.request(2);
        p.admit(2).expect("admit");
        p.unpin(2).expect("unpin");
        // Page 1 is LRU but dirty; eviction must take clean page 2.
        p.request(3);
        p.admit(3).expect("admit evicts the clean frame");
        p.unpin(3).expect("unpin");
        assert!(p.contains(1), "dirty page must survive eviction pressure");
        assert!(!p.contains(2));
        assert!(p.is_dirty(1));
        assert_eq!(p.dirty_count(), 1);
        let mut dirty = Vec::new();
        p.dirty_pages(&mut dirty);
        assert_eq!(dirty, vec![1]);
        p.mark_clean(1).expect("clean after durable writeback");
        assert!(!p.is_dirty(1));
        assert_eq!(p.stats().pages_dirtied, 1);
        assert_eq!(p.stats().pages_flushed, 1);
        p.check_invariants();
    }

    #[test]
    fn mark_dirty_is_idempotent_and_requires_residency() {
        let mut p = BufferPool::new(2);
        assert_eq!(p.mark_dirty(9), Err(PoolError::NotResident(9)));
        assert_eq!(p.mark_clean(9), Err(PoolError::NotResident(9)));
        p.request(1);
        p.admit(1).expect("admit");
        p.mark_dirty(1).expect("dirty");
        p.mark_dirty(1).expect("re-dirty is a no-op");
        assert_eq!(p.stats().pages_dirtied, 1);
        p.mark_clean(1).expect("clean");
        p.mark_clean(1).expect("re-clean is a no-op");
        assert_eq!(p.stats().pages_flushed, 1);
        p.unpin(1).expect("unpin");
    }

    #[test]
    fn all_dirty_pool_is_exhausted() {
        let mut p = BufferPool::new(1);
        p.request(1);
        p.admit(1).expect("admit");
        p.mark_dirty(1).expect("dirty");
        p.unpin(1).expect("unpin");
        assert_eq!(p.admit(2), Err(PoolError::AllPinned));
    }

    #[test]
    #[should_panic(expected = "flush with dirty pages")]
    fn flush_all_refuses_dirty_pages() {
        let mut p = BufferPool::new(2);
        p.request(1);
        p.admit(1).expect("admit");
        p.mark_dirty(1).expect("dirty");
        p.unpin(1).expect("unpin");
        p.flush_all();
    }

    #[test]
    #[should_panic(expected = "flush with pinned pages")]
    fn flush_all_refuses_a_pinned_page_0() {
        let mut p = BufferPool::new(2);
        p.request(0);
        p.admit(0).expect("admit");
        p.flush_all();
    }

    #[test]
    fn dirty_pages_come_out_coldest_first_whatever_the_dirtying_order() {
        let mut p = BufferPool::new(8);
        for page in 0..6u64 {
            p.request(page);
            p.admit(page).expect("admit");
            p.unpin(page).expect("unpin");
        }
        for page in [4u64, 1, 5, 2] {
            p.mark_dirty(page).expect("dirty");
        }
        // A hit makes page 1 the most recent.
        assert_eq!(p.request(1), Access::Hit);
        p.unpin(1).expect("unpin");
        let mut dirty = Vec::new();
        p.dirty_pages(&mut dirty);
        assert_eq!(dirty, vec![2, 4, 5, 1]);
        p.mark_clean(4).expect("clean");
        p.check_invariants();
        dirty.clear();
        p.dirty_pages(&mut dirty);
        assert_eq!(dirty, vec![2, 5, 1]);
        p.check_invariants();
    }

    #[test]
    fn discard_all_drops_dirty_state_like_a_crash() {
        let mut p = BufferPool::new(2);
        p.request(1);
        p.admit(1).expect("admit");
        p.mark_dirty(1).expect("dirty");
        p.discard_all();
        assert!(p.is_empty());
        assert_eq!(p.dirty_count(), 0);
        p.check_invariants();
    }

    #[test]
    fn dirty_events_are_journaled() {
        let mut p = BufferPool::new(2);
        p.set_event_log(true);
        p.request(1);
        p.admit(1).expect("admit");
        p.mark_dirty(1).expect("dirty");
        p.mark_clean(1).expect("clean");
        p.unpin(1).expect("unpin");
        let mut evs = Vec::new();
        p.take_events(&mut evs);
        assert_eq!(
            evs,
            vec![PoolEvent::Miss(1), PoolEvent::Dirty(1), PoolEvent::Flush(1)]
        );
    }

    #[test]
    fn event_journal_records_in_order_and_matches_stats() {
        let mut p = BufferPool::new(1);
        p.set_event_log(true);
        p.request(1);
        p.admit(1).expect("admit");
        p.unpin(1).expect("unpin");
        p.request(2);
        p.admit(2).expect("admit"); // evicts 1
        p.unpin(2).expect("unpin");
        p.request(1); // refetch
        let mut evs = Vec::new();
        p.take_events(&mut evs);
        assert_eq!(
            evs,
            vec![
                PoolEvent::Miss(1),
                PoolEvent::Miss(2),
                PoolEvent::Evict(1),
                PoolEvent::Refetch(1),
            ]
        );
        // Drained: a second take yields nothing.
        evs.clear();
        p.take_events(&mut evs);
        assert!(evs.is_empty());
        // Journal off by default and after disabling.
        p.set_event_log(false);
        p.request(5);
        p.take_events(&mut evs);
        assert!(evs.is_empty());
    }

    #[test]
    fn prefetch_hit_is_journaled_distinctly() {
        let mut p = BufferPool::new(4);
        p.set_event_log(true);
        p.admit_prefetched(7).expect("admit");
        assert_eq!(p.request(7), Access::Hit);
        p.unpin(7).expect("unpin");
        assert_eq!(p.request(7), Access::Hit);
        p.unpin(7).expect("unpin");
        let mut evs = Vec::new();
        p.take_events(&mut evs);
        assert_eq!(evs, vec![PoolEvent::PrefetchHit(7), PoolEvent::Hit(7)]);
    }

    #[test]
    fn single_frame_pool_works() {
        let mut p = BufferPool::new(1);
        for page in 0..100u64 {
            assert_eq!(p.request(page), Access::Miss);
            p.admit(page).expect("admit");
            p.unpin(page).expect("unpin");
        }
        assert_eq!(p.len(), 1);
        assert_eq!(p.stats().evictions, 99);
        p.check_invariants();
    }
}
