//! Heap tables: the paper's `Ti` tables bound to a device extent.

use crate::gen::ColumnData;
use crate::page::{encode_heap_page, HeapPage};
use crate::spec::TableSpec;
use crate::tablespace::{Extent, Tablespace, TablespaceError};
use bytes::Bytes;

/// A heap table: spec + deterministic column data + its extent on disk.
#[derive(Debug, Clone)]
pub struct HeapTable {
    spec: TableSpec,
    data: ColumnData,
    extent: Extent,
}

impl HeapTable {
    /// Generate the table's data and allocate its extent from `ts`.
    pub fn create(spec: TableSpec, ts: &mut Tablespace) -> Result<HeapTable, TablespaceError> {
        let extent = ts.alloc(&spec.name, spec.n_pages())?;
        let data = ColumnData::generate(&spec);
        Ok(HeapTable { spec, data, extent })
    }

    /// The table's logical description.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// The table's typed row schema (`C1 u32, C2 u32` for paper tables).
    pub fn schema(&self) -> crate::schema::Schema {
        crate::schema::Schema::paper()
    }

    /// The table's column data (also the oracle for result checking).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The table's extent on the device.
    pub fn extent(&self) -> Extent {
        self.extent
    }

    /// Number of heap pages.
    pub fn n_pages(&self) -> u64 {
        self.spec.n_pages()
    }

    /// Device page backing table page `local`.
    #[inline]
    pub fn device_page(&self, local: u64) -> u64 {
        self.extent.device_page(local)
    }

    /// `(C1, C2)` of `row`.
    #[inline]
    pub fn row(&self, row: u64) -> (u32, u32) {
        (self.data.c1(row), self.data.c2(row))
    }

    /// The `C1` and `C2` column slices of the `pages` table pages starting
    /// at `local` (the table's last page may be partial): one slice pair
    /// per page or per contiguous run, for page-at-a-time evaluation.
    #[inline]
    pub fn page_cols(&self, local: u64, pages: u64) -> (&[u32], &[u32]) {
        let rpp = self.spec.rows_per_page as u64;
        let end = ((local + pages) * rpp).min(self.spec.rows);
        self.data.cols(local * rpp..end)
    }

    /// Materialize the physical image of table page `local` (page codec).
    pub fn page_image(&self, local: u64) -> Bytes {
        let rows: Vec<(u32, u32)> = self
            .spec
            .rows_in_page(local)
            .map(|r| (self.data.c1(r), self.data.c2(r)))
            .collect();
        encode_heap_page(&self.spec, local, &rows)
    }

    /// Decode helper used by round-trip tests.
    pub fn decode_image(&self, image: &[u8]) -> Result<HeapPage, crate::page::PageCodecError> {
        crate::page::decode_heap_page(&self.spec, image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: u64, rpp: u32) -> HeapTable {
        let spec = TableSpec::paper_table(rpp, rows, 21);
        let mut ts = Tablespace::new(spec.n_pages() + 10);
        HeapTable::create(spec, &mut ts).expect("fits")
    }

    #[test]
    fn page_scan_agrees_with_oracle() {
        let t = table(10_000, 33);
        let (low, high) = crate::gen::range_for_selectivity(0.2, u32::MAX - 1);
        let mut best: Option<u32> = None;
        let mut examined = 0;
        for p in 0..t.n_pages() {
            let (c1s, c2s) = t.page_cols(p, 1);
            assert_eq!(c1s.len(), t.spec().rows_in_page(p).count());
            examined += c1s.len();
            let hits = c1s
                .iter()
                .zip(c2s)
                .filter(|&(_, &c2)| c2 >= low && c2 <= high);
            best = best.max(hits.map(|(&c1, _)| c1).max());
        }
        assert_eq!(examined, 10_000);
        assert_eq!(best, t.data().naive_max_c1(low, high));
    }

    #[test]
    fn page_cols_of_a_run_spans_its_pages_and_clips_at_the_table_end() {
        let t = table(100, 33); // pages of 33, 33, 33, 1 rows
        let (c1s, c2s) = t.page_cols(1, 3);
        assert_eq!((c1s.len(), c2s.len()), (67, 67));
        assert_eq!((c1s[0], c2s[0]), t.row(33));
        assert_eq!((c1s[66], c2s[66]), t.row(99));
        assert_eq!(t.page_cols(3, 1).0.len(), 1);
    }

    #[test]
    fn page_image_round_trips() {
        let t = table(100, 33);
        for p in [0u64, 1, 3] {
            let img = t.page_image(p);
            let page = t.decode_image(&img).expect("decodes");
            assert_eq!(page.page_no, p);
            let expected: Vec<_> = t.spec().rows_in_page(p).map(|r| t.row(r)).collect();
            assert_eq!(page.rows, expected);
        }
    }

    #[test]
    fn device_mapping_uses_extent() {
        let spec = TableSpec::paper_table(1, 50, 3);
        let mut ts = Tablespace::new(1000);
        ts.alloc("other", 100).expect("fits");
        let t = HeapTable::create(spec, &mut ts).expect("fits");
        assert_eq!(t.extent().base, 100);
        assert_eq!(t.device_page(0), 100);
        assert_eq!(t.device_page(49), 149);
    }

    #[test]
    fn create_fails_when_tablespace_full() {
        let spec = TableSpec::paper_table(1, 50, 3);
        let mut ts = Tablespace::new(10);
        assert!(HeapTable::create(spec, &mut ts).is_err());
    }
}
