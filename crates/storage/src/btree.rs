//! Non-clustered B+-tree index on `C2`.
//!
//! The paper's index scan (§2) traverses "the index from root to leaf level
//! and finds the range of leaf pages which must be accessed", then workers
//! consume leaf pages one by one, fetching the table page for every
//! `(key, row_id)` tuple. This implementation is bulk-loaded (the workload
//! is read-only), paged (leaves and internal nodes occupy real extents so
//! index I/O is charged like any other I/O), and exposes exactly the
//! operations the operators need: the leaf range for a `[low, high]` key
//! range, the entries of each leaf, and the root-to-leaf page path.
//!
//! Layout within the index extent: leaves first (level 0), then each
//! internal level in order, root last.

use crate::page::{fnv1a, PageCodecError, PageKind, PAGE_MAGIC};
use crate::spec::PAGE_HEADER_BYTES;
use crate::tablespace::{Extent, Tablespace, TablespaceError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Bytes per leaf entry: key (u32) + row id (u64).
const LEAF_ENTRY_BYTES: u32 = 12;
/// Bytes per internal entry: separator key (u32) + child page (u64).
const INTERNAL_ENTRY_BYTES: u32 = 12;

/// The leaf range selected by a `[low, high]` key-range probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafRange {
    /// Global index of the first qualifying entry.
    pub first_entry: u64,
    /// One past the global index of the last qualifying entry.
    pub end_entry: u64,
    /// First leaf page (index-local) holding qualifying entries.
    pub first_leaf: u64,
    /// Last leaf page (inclusive) holding qualifying entries.
    pub last_leaf: u64,
}

impl LeafRange {
    /// Number of qualifying entries.
    pub fn len(&self) -> u64 {
        self.end_entry - self.first_entry
    }

    /// True when no entries qualify.
    pub fn is_empty(&self) -> bool {
        self.first_entry == self.end_entry
    }

    /// Number of leaf pages touched.
    pub fn n_leaves(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.last_leaf - self.first_leaf + 1
        }
    }
}

/// A bulk-loaded, paged B+-tree on `(C2, row_id)`.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    keys: Vec<u32>,
    rids: Vec<u32>,
    leaf_fanout: u32,
    internal_fanout: u32,
    /// Pages per level, `levels[0]` = leaf count, last = 1 (root).
    levels: Vec<u64>,
    extent: Extent,
    page_size: u32,
}

impl BTreeIndex {
    /// Bulk-load from `(key, row_id)` pairs (any order; sorted internally)
    /// and allocate the index extent from `ts`.
    pub fn build(
        name: &str,
        entries: impl Iterator<Item = (u32, u64)>,
        page_size: u32,
        ts: &mut Tablespace,
    ) -> Result<BTreeIndex, TablespaceError> {
        let mut pairs: Vec<(u32, u32)> = entries
            .map(|(k, r)| {
                assert!(r <= u32::MAX as u64, "row ids above 2^32 unsupported");
                (k, r as u32)
            })
            .collect();
        // Non-clustered index order: by key, ties by row id.
        pairs.sort_unstable();
        let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
        let rids: Vec<u32> = pairs.iter().map(|&(_, r)| r).collect();
        drop(pairs);

        let leaf_fanout = (page_size - PAGE_HEADER_BYTES) / LEAF_ENTRY_BYTES;
        let internal_fanout = (page_size - PAGE_HEADER_BYTES) / INTERNAL_ENTRY_BYTES;
        assert!(leaf_fanout >= 2 && internal_fanout >= 2, "page too small");

        let n_leaves = (keys.len() as u64).div_ceil(leaf_fanout as u64).max(1);
        let mut levels = vec![n_leaves];
        while *levels
            .last()
            .expect("level stack starts with the leaf level")
            > 1
        {
            let above = levels
                .last()
                .expect("level stack starts with the leaf level")
                .div_ceil(internal_fanout as u64);
            levels.push(above);
        }
        let total_pages: u64 = levels.iter().sum();
        let extent = ts.alloc(name, total_pages)?;

        Ok(BTreeIndex {
            keys,
            rids,
            leaf_fanout,
            internal_fanout,
            levels,
            extent,
            page_size,
        })
    }

    /// Number of `(key, row)` entries.
    pub fn n_entries(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Number of leaf pages.
    pub fn n_leaves(&self) -> u64 {
        self.levels[0]
    }

    /// Tree height in levels (1 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.levels.len() as u32
    }

    /// Entries per leaf page.
    pub fn leaf_fanout(&self) -> u32 {
        self.leaf_fanout
    }

    /// Total pages (all levels).
    pub fn n_pages(&self) -> u64 {
        self.levels.iter().sum()
    }

    /// The index's extent on the device.
    pub fn extent(&self) -> Extent {
        self.extent
    }

    /// Global entry range and leaf range qualifying for `[low, high]`.
    /// Returns `None` when the range selects nothing.
    pub fn range(&self, low: u32, high: u32) -> Option<LeafRange> {
        if high < low {
            return None;
        }
        let first = self.keys.partition_point(|&k| k < low) as u64;
        let end = self.keys.partition_point(|&k| k <= high) as u64;
        if first == end {
            return None;
        }
        Some(LeafRange {
            first_entry: first,
            end_entry: end,
            first_leaf: first / self.leaf_fanout as u64,
            last_leaf: (end - 1) / self.leaf_fanout as u64,
        })
    }

    /// Global entry indices stored on leaf `leaf` (the last leaf may be
    /// partial).
    pub fn leaf_entry_range(&self, leaf: u64) -> std::ops::Range<u64> {
        let start = leaf * self.leaf_fanout as u64;
        let end = (start + self.leaf_fanout as u64).min(self.n_entries());
        start..end
    }

    /// `(key, row_id)` at global entry index `idx`.
    #[inline]
    pub fn entry(&self, idx: u64) -> (u32, u64) {
        (self.keys[idx as usize], self.rids[idx as usize] as u64)
    }

    /// Device page of leaf `leaf`.
    pub fn device_page_of_leaf(&self, leaf: u64) -> u64 {
        debug_assert!(leaf < self.n_leaves());
        self.extent.device_page(leaf)
    }

    /// First index-local page of level `level` (0 = leaves).
    fn level_base(&self, level: usize) -> u64 {
        self.levels[..level].iter().sum()
    }

    /// Device pages visited by a root→leaf traversal ending at `leaf`,
    /// **excluding** the leaf itself, ordered root first.
    pub fn path_to_leaf(&self, leaf: u64) -> Vec<u64> {
        let mut path = Vec::with_capacity(self.levels.len().saturating_sub(1));
        // Node index at level l covering `leaf` is leaf / internal_fanout^l.
        for level in (1..self.levels.len()).rev() {
            let mut idx = leaf;
            for _ in 0..level {
                idx /= self.internal_fanout as u64;
            }
            debug_assert!(idx < self.levels[level]);
            path.push(self.extent.device_page(self.level_base(level) + idx));
        }
        path
    }

    /// Physical image of leaf page `leaf` (for format tests and the
    /// real-file path).
    pub fn leaf_page_image(&self, leaf: u64) -> Bytes {
        let range = self.leaf_entry_range(leaf);
        let n = (range.end - range.start) as u16;
        let mut out = BytesMut::with_capacity(self.page_size as usize);
        out.put_u32_le(PAGE_MAGIC);
        out.put_u8(PageKind::IndexLeaf as u8);
        out.put_bytes(0, 3);
        out.put_u64_le(leaf);
        out.put_u16_le(n);
        out.put_u16_le(LEAF_ENTRY_BYTES as u16);
        out.put_u32_le(0); // checksum patched below
        out.put_bytes(0, 8);
        let payload_start = out.len();
        for idx in range {
            let (k, r) = self.entry(idx);
            out.put_u32_le(k);
            out.put_u64_le(r);
        }
        let checksum = fnv1a(&out[payload_start..]);
        out[20..24].copy_from_slice(&checksum.to_le_bytes());
        out.put_bytes(0, self.page_size as usize - out.len());
        out.freeze()
    }

    /// Decode a leaf-page image produced by [`leaf_page_image`].
    ///
    /// [`leaf_page_image`]: BTreeIndex::leaf_page_image
    pub fn decode_leaf_page(image: &[u8]) -> Result<(u64, Vec<(u32, u64)>), PageCodecError> {
        if image.len() < PAGE_HEADER_BYTES as usize {
            return Err(PageCodecError::Truncated);
        }
        let mut hdr = &image[..PAGE_HEADER_BYTES as usize];
        let magic = hdr.get_u32_le();
        if magic != PAGE_MAGIC {
            return Err(PageCodecError::BadMagic(magic));
        }
        let kind = hdr.get_u8();
        if kind != PageKind::IndexLeaf as u8 {
            return Err(PageCodecError::BadKind(kind));
        }
        hdr.advance(3);
        let leaf_no = hdr.get_u64_le();
        let n = hdr.get_u16_le() as usize;
        let entry_bytes = hdr.get_u16_le() as usize;
        let stored = hdr.get_u32_le();
        if entry_bytes != LEAF_ENTRY_BYTES as usize {
            return Err(PageCodecError::Geometry);
        }
        let start = PAGE_HEADER_BYTES as usize;
        let payload_len = n * entry_bytes;
        if image.len() < start + payload_len {
            return Err(PageCodecError::Truncated);
        }
        let payload = &image[start..start + payload_len];
        let computed = fnv1a(payload);
        if computed != stored {
            return Err(PageCodecError::Corrupt { stored, computed });
        }
        let mut entries = Vec::with_capacity(n);
        let mut cur = payload;
        for _ in 0..n {
            let k = cur.get_u32_le();
            let r = cur.get_u64_le();
            entries.push((k, r));
        }
        Ok((leaf_no, entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ColumnData;
    use crate::spec::TableSpec;

    fn build_index(rows: u64) -> (BTreeIndex, ColumnData) {
        let spec = TableSpec::paper_table(33, rows, 17);
        let data = ColumnData::generate(&spec);
        let mut ts = Tablespace::new(10_000_000);
        let idx = BTreeIndex::build("idx", data.c2_entries(), 4096, &mut ts).expect("fits");
        (idx, data)
    }

    #[test]
    fn fanouts_fill_pages() {
        let (idx, _) = build_index(100);
        assert_eq!(idx.leaf_fanout(), (4096 - 32) / 12);
    }

    #[test]
    fn range_scan_equals_sorted_filter() {
        let (idx, data) = build_index(20_000);
        for sel in [0.0005, 0.01, 0.25, 1.0] {
            let (lo, hi) = crate::gen::range_for_selectivity(sel, u32::MAX - 1);
            let expected = data.count_matching(lo, hi);
            match idx.range(lo, hi) {
                Some(r) => {
                    assert_eq!(r.len(), expected, "sel={sel}");
                    // Every qualifying entry's key must be inside the range,
                    // and boundary neighbours outside it.
                    let (k_first, _) = idx.entry(r.first_entry);
                    let (k_last, _) = idx.entry(r.end_entry - 1);
                    assert!(k_first >= lo && k_last <= hi);
                    if r.first_entry > 0 {
                        assert!(idx.entry(r.first_entry - 1).0 < lo);
                    }
                    if r.end_entry < idx.n_entries() {
                        assert!(idx.entry(r.end_entry).0 > hi);
                    }
                }
                None => assert_eq!(expected, 0, "sel={sel}"),
            }
        }
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let (idx, _) = build_index(1000);
        assert!(idx.range(5, 4).is_none());
        // A 1-value range in a u32 domain over 1000 rows is almost surely empty.
        assert!(idx.range(7, 7).is_none());
    }

    #[test]
    fn leaves_partition_entries() {
        let (idx, _) = build_index(5000);
        let mut covered = 0u64;
        for leaf in 0..idx.n_leaves() {
            let r = idx.leaf_entry_range(leaf);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, idx.n_entries());
    }

    #[test]
    fn entries_are_key_ordered() {
        let (idx, _) = build_index(5000);
        for i in 1..idx.n_entries() {
            assert!(idx.entry(i - 1).0 <= idx.entry(i).0);
        }
    }

    #[test]
    fn height_and_page_count_consistent() {
        let (idx, _) = build_index(200_000);
        // 200 000 entries / 338 per leaf = 592 leaves; one internal level +
        // root... 592 / 338 = 2, then 1. Height 3.
        assert_eq!(idx.n_leaves(), 200_000u64.div_ceil(338));
        assert_eq!(idx.height(), 3);
        assert_eq!(idx.n_pages(), idx.n_leaves() + 2 + 1);
    }

    #[test]
    fn path_to_leaf_is_root_first_and_in_extent() {
        let (idx, _) = build_index(200_000);
        let path = idx.path_to_leaf(0);
        assert_eq!(path.len() as u32, idx.height() - 1);
        for p in &path {
            assert!(idx.extent().contains(*p));
        }
        // Root (last level) must be the extent's final page.
        assert_eq!(path[0], idx.extent().end() - 1);
        // A different leaf under the same subtree shares the root.
        let path2 = idx.path_to_leaf(idx.n_leaves() - 1);
        assert_eq!(path[0], path2[0]);
    }

    #[test]
    fn single_leaf_tree() {
        let (idx, _) = build_index(10);
        assert_eq!(idx.n_leaves(), 1);
        assert_eq!(idx.height(), 1);
        assert!(idx.path_to_leaf(0).is_empty());
    }

    #[test]
    fn leaf_page_image_round_trips() {
        let (idx, _) = build_index(5000);
        for leaf in [0, idx.n_leaves() - 1] {
            let img = idx.leaf_page_image(leaf);
            assert_eq!(img.len(), 4096);
            let (no, entries) = BTreeIndex::decode_leaf_page(&img).expect("decodes");
            assert_eq!(no, leaf);
            let expected: Vec<_> = idx.leaf_entry_range(leaf).map(|i| idx.entry(i)).collect();
            assert_eq!(entries, expected);
        }
    }

    #[test]
    fn leaf_page_detects_corruption() {
        let (idx, _) = build_index(500);
        let img = idx.leaf_page_image(0);
        let mut bad = img.to_vec();
        bad[50] ^= 0xFF;
        assert!(matches!(
            BTreeIndex::decode_leaf_page(&bad),
            Err(PageCodecError::Corrupt { .. })
        ));
    }
}
