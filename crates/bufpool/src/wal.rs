//! Write-ahead log: append, group-commit sealing, durability tracking,
//! and the prefix-valid recovery scan.
//!
//! ## Design
//!
//! The WAL is **redo-from-origin**: recovery replays every durable record
//! from the start of the WAL extent. To make replay independent of
//! (possibly torn) data-page media, the write path logs a **full page
//! image on the first touch of each page** (`WalOp::PageImage`, the
//! post-update image) and incremental [`WalOp::Update`]s afterwards — so
//! for every page the WAL ever touched, replay starts from a logged base,
//! never from disk. [`WalOp::Checkpoint`] records mark writeback progress
//! (all updates `<= flushed_through` are on media); they bound how stale
//! the media can be but are *not* needed for replay correctness.
//!
//! ## Segments
//!
//! Records become durable in **segments**: a group-commit tick seals all
//! pending records into one contiguous page-aligned image (header: magic,
//! sequence number, record count, payload length, FNV-1a checksum over the
//! payload) which the caller writes to the WAL extent as a single block
//! write. A full page image (page-sized payload) cannot fit in one WAL
//! page next to its header, which is exactly why segments span pages.
//!
//! Durability is **contiguous**: a segment's records only count as durable
//! once every earlier segment is durable too, because the recovery scan
//! ([`Wal::scan`]) stops at the first invalid/missing segment — anything
//! after a hole is unreachable and must never be acknowledged.
//!
//! This module is pure bytes and counters: it owns no clock (group-commit
//! *timing* lives in the discrete-event loop) and performs no I/O (the
//! caller writes sealed images through the device model and reports
//! completion via [`Wal::mark_durable`]).

use serde::{Deserialize, Serialize};

/// Log sequence number. Monotonic from 1; 0 means "nothing".
pub type Lsn = u64;

/// Magic leading every WAL segment header ("PWAL").
pub const WAL_MAGIC: u32 = 0x5057_414C;

/// Bytes of a segment header (magic, seq, n_records, payload_len,
/// checksum, reserved).
pub const SEGMENT_HEADER_BYTES: usize = 32;

/// One logged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// An incremental row update: set column value of `slot` on `page`.
    Update {
        /// Device page the row lives on.
        page: u64,
        /// Row slot within the page.
        slot: u32,
        /// New value of the updated column.
        value: u32,
    },
    /// Full post-update page image, logged on the first touch of a page so
    /// replay never depends on data-page media.
    PageImage {
        /// Device page the image belongs to.
        page: u64,
        /// The complete encoded page (one device page).
        image: Vec<u8>,
    },
    /// Writeback progress marker: every update with `lsn <=
    /// flushed_through` is durably on media.
    Checkpoint {
        /// Highest update LSN whose page image is durably flushed.
        flushed_through: Lsn,
    },
}

/// A logged operation with its assigned LSN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Position in the log; monotonic from 1.
    pub lsn: Lsn,
    /// The operation.
    pub op: WalOp,
}

/// A group-committed batch of records, encoded and page-aligned, ready to
/// be written to the WAL extent as one block write.
#[derive(Debug, Clone)]
pub struct SealedSegment {
    /// Segment sequence number (0-based, consecutive).
    pub seq: u64,
    /// First device page of the segment within the WAL extent.
    pub start_page: u64,
    /// Number of device pages the segment spans.
    pub pages: u32,
    /// Highest LSN contained in the segment.
    pub last_lsn: Lsn,
    /// The page-aligned encoded image (`pages * page_size` bytes).
    pub image: Vec<u8>,
}

/// Counters exposed by the WAL.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Segments sealed by group commit.
    pub segments: u64,
    /// WAL-extent pages consumed by sealed segments.
    pub pages: u64,
    /// Checkpoint records appended.
    pub checkpoints: u64,
}

/// Result of the recovery scan over a WAL extent.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// Every record in the valid durable prefix, in LSN order.
    pub records: Vec<WalRecord>,
    /// Valid segments scanned before the stop.
    pub segments: u64,
    /// Highest LSN recovered (0 when the log is empty).
    pub durable_lsn: Lsn,
    /// Checkpoint records seen in the prefix.
    pub checkpoints: u64,
}

/// In-flight segment bookkeeping: sealed, written, awaiting completion.
#[derive(Debug, Clone, Copy)]
struct SegMeta {
    start_page: u64,
    last_lsn: Lsn,
    durable: bool,
}

/// The write-ahead log over a fixed extent of device pages.
#[derive(Debug)]
pub struct Wal {
    base: u64,
    capacity_pages: u64,
    page_size: u32,
    next_lsn: Lsn,
    next_seq: u64,
    /// Pages of the extent consumed by sealed segments.
    cursor: u64,
    pending: Vec<WalRecord>,
    /// Sealed segments not yet durable, in seal (= sequence) order.
    inflight: Vec<SegMeta>,
    durable_lsn: Lsn,
    full: bool,
    stats: WalStats,
}

impl Wal {
    /// A WAL over `capacity_pages` device pages starting at `base`.
    pub fn new(base: u64, capacity_pages: u64, page_size: u32) -> Self {
        assert!(capacity_pages >= 1, "WAL extent cannot be empty");
        assert!(
            page_size as usize > SEGMENT_HEADER_BYTES,
            "page too small for a segment header"
        );
        Wal {
            base,
            capacity_pages,
            page_size,
            next_lsn: 1,
            next_seq: 0,
            cursor: 0,
            pending: Vec::new(),
            inflight: Vec::new(),
            durable_lsn: 0,
            full: false,
            stats: WalStats::default(),
        }
    }

    /// First device page of the extent.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Extent capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Counters.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// Append an operation; returns its LSN. Records sit in the pending
    /// buffer (volatile) until a group-commit [`seal`](Self::seal).
    pub fn append(&mut self, op: WalOp) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.stats.records += 1;
        if matches!(op, WalOp::Checkpoint { .. }) {
            self.stats.checkpoints += 1;
        }
        self.pending.push(WalRecord { lsn, op });
        lsn
    }

    /// Highest LSN assigned so far (0 when nothing was appended).
    pub fn last_lsn(&self) -> Lsn {
        self.next_lsn - 1
    }

    /// Highest LSN known durable under the contiguity rule.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn
    }

    /// True when appended records await sealing.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// True when sealed segments await their write completion.
    pub fn has_inflight(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// True once a seal was refused because the extent is out of space.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Group commit: encode every pending record into one page-aligned
    /// segment. Returns `None` when nothing is pending or the extent has
    /// no room (then [`is_full`](Self::is_full) turns on and the records
    /// stay pending — the write path must stop acknowledging commits).
    pub fn seal(&mut self) -> Option<SealedSegment> {
        if self.pending.is_empty() {
            return None;
        }
        let payload = encode_records(&self.pending);
        let total = SEGMENT_HEADER_BYTES + payload.len();
        let pages = total.div_ceil(self.page_size as usize) as u64;
        if self.cursor + pages > self.capacity_pages {
            self.full = true;
            return None;
        }
        let mut image = vec![0u8; (pages * self.page_size as u64) as usize];
        image[0..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
        image[4..12].copy_from_slice(&self.next_seq.to_le_bytes());
        image[12..16].copy_from_slice(&(self.pending.len() as u32).to_le_bytes());
        image[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        image[20..24].copy_from_slice(&fnv1a(&payload).to_le_bytes());
        image[SEGMENT_HEADER_BYTES..SEGMENT_HEADER_BYTES + payload.len()].copy_from_slice(&payload);
        let seg = SealedSegment {
            seq: self.next_seq,
            start_page: self.base + self.cursor,
            pages: pages as u32,
            last_lsn: self.pending.last().expect("pending checked non-empty").lsn,
            image,
        };
        self.inflight.push(SegMeta {
            start_page: seg.start_page,
            last_lsn: seg.last_lsn,
            durable: false,
        });
        self.pending.clear();
        self.next_seq += 1;
        self.cursor += pages;
        self.stats.segments += 1;
        self.stats.pages += pages;
        Some(seg)
    }

    /// Report that the segment starting at `start_page` finished its write
    /// durably. Advances [`durable_lsn`](Self::durable_lsn) over the
    /// longest contiguous durable prefix of sealed segments.
    ///
    /// # Panics
    /// Panics when no in-flight segment starts at `start_page`.
    pub fn mark_durable(&mut self, start_page: u64) {
        let seg = self
            .inflight
            .iter_mut()
            .find(|s| s.start_page == start_page)
            .expect("mark_durable on unknown segment");
        seg.durable = true;
        while let Some(first) = self.inflight.first() {
            if !first.durable {
                break;
            }
            self.durable_lsn = first.last_lsn;
            self.inflight.remove(0);
        }
    }

    /// Recovery scan: walk the extent from the start, validating segment
    /// headers, sequence numbers and payload checksums, and stop at the
    /// first hole or damage. `read_page` returns the media image of a
    /// device page (or `None` when the page was never written).
    pub fn scan<F>(base: u64, capacity_pages: u64, page_size: u32, mut read_page: F) -> WalScan
    where
        F: FnMut(u64) -> Option<Vec<u8>>,
    {
        let mut out = WalScan::default();
        let mut cursor = 0u64;
        let mut expect_seq = 0u64;
        while cursor < capacity_pages {
            let Some(first) = read_page(base + cursor) else {
                break;
            };
            if first.len() != page_size as usize || first.len() < SEGMENT_HEADER_BYTES {
                break;
            }
            let magic = u32::from_le_bytes(first[0..4].try_into().expect("4-byte slice"));
            if magic != WAL_MAGIC {
                break;
            }
            let seq = u64::from_le_bytes(first[4..12].try_into().expect("8-byte slice"));
            let n_records = u32::from_le_bytes(first[12..16].try_into().expect("4-byte slice"));
            let payload_len =
                u32::from_le_bytes(first[16..20].try_into().expect("4-byte slice")) as usize;
            let checksum = u32::from_le_bytes(first[20..24].try_into().expect("4-byte slice"));
            if seq != expect_seq {
                break;
            }
            let total = SEGMENT_HEADER_BYTES + payload_len;
            let pages = total.div_ceil(page_size as usize) as u64;
            if cursor + pages > capacity_pages {
                break;
            }
            // Assemble the payload across the segment's pages.
            let mut bytes = first;
            let mut whole = true;
            for p in 1..pages {
                match read_page(base + cursor + p) {
                    Some(next) if next.len() == page_size as usize => bytes.extend(next),
                    _ => {
                        whole = false;
                        break;
                    }
                }
            }
            if !whole || bytes.len() < total {
                break;
            }
            let payload = &bytes[SEGMENT_HEADER_BYTES..total];
            if fnv1a(payload) != checksum {
                break;
            }
            let Some(records) = decode_records(payload, n_records) else {
                break;
            };
            for r in &records {
                if matches!(r.op, WalOp::Checkpoint { .. }) {
                    out.checkpoints += 1;
                }
                out.durable_lsn = r.lsn;
            }
            out.records.extend(records);
            out.segments += 1;
            cursor += pages;
            expect_seq += 1;
        }
        out
    }
}

const FNV_OFFSET: u32 = 0x811C_9DC5;
const FNV_PRIME: u32 = 0x0100_0193;
/// `FNV_PRIME^8` (mod 2^32): since `(h ^ 0) · P = h · P`, eight zero bytes
/// fold into the hash as one multiply by this.
const FNV_PRIME_POW8: u32 = FNV_PRIME
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME);

/// FNV-1a over `bytes` — the storage page codec's checksum, so a single
/// damaged payload byte is detected with overwhelming probability. Page
/// images in the payload are mostly zero pad, so the input is read eight
/// bytes at a time and an all-zero word costs one multiply; the result is
/// the byte-serial FNV-1a's, bit for bit. (A copy of `pioqo-storage`'s:
/// this crate depends on no other `pioqo` crate.)
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h = FNV_OFFSET;
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        if u64::from_ne_bytes(*w) == 0 {
            h = h.wrapping_mul(FNV_PRIME_POW8);
        } else {
            for &b in w {
                h = (h ^ b as u32).wrapping_mul(FNV_PRIME);
            }
        }
    }
    for &b in tail {
        h = (h ^ b as u32).wrapping_mul(FNV_PRIME);
    }
    h
}

const TAG_UPDATE: u8 = 1;
const TAG_PAGE_IMAGE: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;

fn encode_records(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend(r.lsn.to_le_bytes());
        match &r.op {
            WalOp::Update { page, slot, value } => {
                out.push(TAG_UPDATE);
                out.extend(page.to_le_bytes());
                out.extend(slot.to_le_bytes());
                out.extend(value.to_le_bytes());
            }
            WalOp::PageImage { page, image } => {
                out.push(TAG_PAGE_IMAGE);
                out.extend(page.to_le_bytes());
                out.extend((image.len() as u32).to_le_bytes());
                out.extend(image.iter());
            }
            WalOp::Checkpoint { flushed_through } => {
                out.push(TAG_CHECKPOINT);
                out.extend(flushed_through.to_le_bytes());
            }
        }
    }
    out
}

/// Decode exactly `n_records` records from a checksum-verified payload.
/// Returns `None` on any structural mismatch (truncation, bad tag,
/// trailing garbage) — the scan treats that like damage and stops.
fn decode_records(payload: &[u8], n_records: u32) -> Option<Vec<WalRecord>> {
    let mut records = Vec::with_capacity(n_records as usize);
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
        let s = payload.get(*at..*at + n)?;
        *at += n;
        Some(s)
    };
    for _ in 0..n_records {
        let lsn = u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?);
        let tag = take(&mut at, 1)?[0];
        let op = match tag {
            TAG_UPDATE => WalOp::Update {
                page: u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?),
                slot: u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?),
                value: u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?),
            },
            TAG_PAGE_IMAGE => {
                let page = u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?);
                let len = u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?) as usize;
                let image = take(&mut at, len)?.to_vec();
                WalOp::PageImage { page, image }
            }
            TAG_CHECKPOINT => WalOp::Checkpoint {
                flushed_through: u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?),
            },
            _ => return None,
        };
        records.push(WalRecord { lsn, op });
    }
    if at != payload.len() {
        return None;
    }
    Some(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const PS: u32 = 4096;

    /// Write sealed segments into a page map, as the device path would.
    fn write_seg(media: &mut BTreeMap<u64, Vec<u8>>, seg: &SealedSegment, page_size: u32) {
        for p in 0..seg.pages as u64 {
            let from = (p * page_size as u64) as usize;
            media.insert(
                seg.start_page + p,
                seg.image[from..from + page_size as usize].to_vec(),
            );
        }
    }

    fn scan_map(media: &BTreeMap<u64, Vec<u8>>, base: u64, cap: u64) -> WalScan {
        Wal::scan(base, cap, PS, |p| media.get(&p).cloned())
    }

    #[test]
    fn append_seal_scan_roundtrip() {
        let mut wal = Wal::new(100, 64, PS);
        let l1 = wal.append(WalOp::PageImage {
            page: 7,
            image: vec![0xAB; PS as usize],
        });
        let l2 = wal.append(WalOp::Update {
            page: 7,
            slot: 3,
            value: 42,
        });
        assert_eq!((l1, l2), (1, 2));
        let seg = wal.seal().expect("pending records seal");
        assert_eq!(seg.start_page, 100);
        assert!(seg.pages >= 2, "a full page image spans multiple WAL pages");
        assert_eq!(wal.durable_lsn(), 0, "sealed is not yet durable");
        wal.mark_durable(seg.start_page);
        assert_eq!(wal.durable_lsn(), 2);

        let mut media = BTreeMap::new();
        write_seg(&mut media, &seg, PS);
        let scan = scan_map(&media, 100, 64);
        assert_eq!(scan.segments, 1);
        assert_eq!(scan.durable_lsn, 2);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(
            scan.records[1].op,
            WalOp::Update {
                page: 7,
                slot: 3,
                value: 42
            }
        );
        match &scan.records[0].op {
            WalOp::PageImage { page, image } => {
                assert_eq!(*page, 7);
                assert_eq!(image.len(), PS as usize);
            }
            other => panic!("expected page image, got {other:?}"),
        }
    }

    #[test]
    fn scan_stops_at_damaged_segment() {
        let mut wal = Wal::new(0, 64, PS);
        let mut media = BTreeMap::new();
        let mut segs = Vec::new();
        for i in 0..3u32 {
            wal.append(WalOp::Update {
                page: 1,
                slot: i,
                value: i,
            });
            let seg = wal.seal().expect("seal");
            write_seg(&mut media, &seg, PS);
            segs.push(seg);
        }
        // Damage a payload byte of the middle segment.
        let page = segs[1].start_page;
        media.get_mut(&page).expect("segment page")[SEGMENT_HEADER_BYTES + 1] ^= 0xFF;
        let scan = scan_map(&media, 0, 64);
        assert_eq!(scan.segments, 1, "scan must stop at the damaged segment");
        assert_eq!(scan.durable_lsn, 1);
    }

    #[test]
    fn scan_stops_at_hole_even_with_valid_later_segments() {
        let mut wal = Wal::new(0, 64, PS);
        let mut media = BTreeMap::new();
        wal.append(WalOp::Update {
            page: 1,
            slot: 0,
            value: 0,
        });
        let a = wal.seal().expect("seal a");
        wal.append(WalOp::Update {
            page: 1,
            slot: 1,
            value: 1,
        });
        let b = wal.seal().expect("seal b");
        // Only b reaches media: a was in flight at the crash.
        write_seg(&mut media, &b, PS);
        let scan = scan_map(&media, 0, 64);
        assert_eq!(scan.segments, 0, "a hole hides everything after it");
        // Contiguity: marking only b durable must not advance durable_lsn.
        wal.mark_durable(b.start_page);
        assert_eq!(wal.durable_lsn(), 0);
        wal.mark_durable(a.start_page);
        assert_eq!(wal.durable_lsn(), 2, "prefix closes once a lands");
    }

    #[test]
    fn empty_extent_scans_empty() {
        let media = BTreeMap::new();
        let scan = scan_map(&media, 0, 16);
        assert_eq!(scan.segments, 0);
        assert_eq!(scan.durable_lsn, 0);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn full_extent_refuses_seal_and_flags() {
        let mut wal = Wal::new(0, 1, PS);
        wal.append(WalOp::PageImage {
            page: 0,
            image: vec![0; PS as usize],
        });
        assert!(wal.seal().is_none(), "image + header exceeds one page");
        assert!(wal.is_full());
        assert!(wal.has_pending(), "records stay pending when full");
    }

    #[test]
    fn checkpoint_records_are_counted() {
        let mut wal = Wal::new(0, 64, PS);
        wal.append(WalOp::Update {
            page: 0,
            slot: 0,
            value: 9,
        });
        wal.append(WalOp::Checkpoint { flushed_through: 1 });
        assert_eq!(wal.stats().checkpoints, 1);
        let seg = wal.seal().expect("seal");
        let mut media = BTreeMap::new();
        write_seg(&mut media, &seg, PS);
        let scan = scan_map(&media, 0, 64);
        assert_eq!(scan.checkpoints, 1);
        assert_eq!(scan.records.len(), 2);
    }

    #[test]
    fn sealing_is_deterministic() {
        let run = || {
            let mut wal = Wal::new(10, 32, PS);
            for i in 0..20u32 {
                wal.append(WalOp::Update {
                    page: i as u64 % 5,
                    slot: i,
                    value: i * 7,
                });
            }
            wal.seal().expect("seal").image
        };
        assert_eq!(run(), run(), "identical appends seal identical bytes");
    }
    /// The byte-serial FNV-1a the zero-run version must equal.
    fn fnv1a_bytewise(data: &[u8]) -> u32 {
        data.iter()
            .fold(FNV_OFFSET, |h, &b| (h ^ b as u32).wrapping_mul(FNV_PRIME))
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0x811C_9DC5);
        assert_eq!(fnv1a(b"a"), 0xE40C_292C);
        assert_eq!(fnv1a(b"foobar"), 0xBF9C_F968);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any length (most not a multiple of 8) at any share of zero
        /// bytes, from none to all: the zero-run checksum is the
        /// byte-serial one.
        #[test]
        fn fnv1a_skipping_zero_runs_matches_the_byte_serial_reference(
            zero_pct in 0u64..101,
            bytes in proptest::prop::collection::vec((0u64..100, proptest::prelude::any::<u8>()), 0usize..300),
        ) {
            let data: Vec<u8> = bytes
                .iter()
                .map(|&(r, b)| if r < zero_pct { 0 } else { b })
                .collect();
            proptest::prop_assert_eq!(fnv1a(&data), fnv1a_bytewise(&data));
        }
    }
}
