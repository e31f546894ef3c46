//! Catalog statistics the optimizer consumes.
//!
//! §4.3: the optimizer knows table/index geometry, the extent each object
//! occupies (for band-size estimation), and "statistics on how many table
//! and index pages are currently cached".

use pioqo_bufpool::BufferPool;
use pioqo_storage::{BTreeIndex, Extent, HeapTable};
use serde::{Deserialize, Serialize};

/// Statistics for the index on `C2`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndexStats {
    /// Leaf pages.
    pub leaves: u64,
    /// Tree height (1 = root is a leaf).
    pub height: u32,
    /// Entries per leaf.
    pub leaf_fanout: u32,
    /// The index's extent on the device.
    pub extent: Extent,
    /// Index pages currently in the buffer pool.
    pub cached_pages: u64,
}

/// Statistics for a heap table and its `C2` index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableStats {
    /// Heap pages.
    pub pages: u64,
    /// Rows.
    pub rows: u64,
    /// Rows per page.
    pub rows_per_page: u32,
    /// Page size in bytes.
    pub page_size: u32,
    /// The table's extent on the device.
    pub extent: Extent,
    /// Table pages currently in the buffer pool.
    pub cached_pages: u64,
    /// Buffer pool capacity in frames (for refetch estimation).
    pub buffer_frames: u64,
    /// The `C2` index.
    pub index: IndexStats,
}

impl TableStats {
    /// Gather statistics from live objects (the "catalog lookup").
    pub fn gather(table: &HeapTable, index: &BTreeIndex, pool: &BufferPool) -> TableStats {
        let t_ext = table.extent();
        let i_ext = index.extent();
        TableStats {
            pages: table.n_pages(),
            rows: table.spec().rows,
            rows_per_page: table.spec().rows_per_page,
            page_size: table.spec().page_size,
            extent: t_ext,
            cached_pages: pool.resident_in_range(t_ext.base, t_ext.pages),
            buffer_frames: pool.capacity() as u64,
            index: IndexStats {
                leaves: index.n_leaves(),
                height: index.height(),
                leaf_fanout: index.leaf_fanout(),
                extent: i_ext,
                cached_pages: pool.resident_in_range(i_ext.base, i_ext.pages),
            },
        }
    }

    /// Fraction of table pages resident in the buffer pool, at most 1.
    pub fn cached_fraction(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            self.resident_pages() as f64 / self.pages as f64
        }
    }

    /// Table pages a full pass must fetch: those not resident.
    pub(crate) fn uncached_pages(&self) -> f64 {
        (self.pages - self.resident_pages()) as f64
    }

    /// `cached_pages`, clamped to the table: the fields are public, so
    /// hand-built stats can claim more pages cached than the table holds.
    fn resident_pages(&self) -> u64 {
        self.cached_pages.min(self.pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioqo_storage::{TableSpec, Tablespace};

    #[test]
    fn gather_reads_geometry_and_cache() {
        let spec = TableSpec::paper_table(33, 10_000, 5);
        let mut ts = Tablespace::new(100_000);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        let index = BTreeIndex::build("i", table.data().c2_entries(), 4096, &mut ts).expect("fits");
        let mut pool = BufferPool::new(64);
        // Cache three table pages and one index page.
        for p in 0..3 {
            pool.admit_prefetched(table.device_page(p)).expect("admit");
        }
        pool.admit_prefetched(index.device_page_of_leaf(0))
            .expect("admit");
        let stats = TableStats::gather(&table, &index, &pool);
        assert_eq!(stats.pages, table.n_pages());
        assert_eq!(stats.rows, 10_000);
        assert_eq!(stats.cached_pages, 3);
        assert_eq!(stats.index.cached_pages, 1);
        assert_eq!(stats.buffer_frames, 64);
        assert!(stats.cached_fraction() > 0.0);
    }
}
