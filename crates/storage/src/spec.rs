//! Table specifications.
//!
//! The paper's workload tables (§3.1) are defined entirely by their row
//! count and their rows-per-page (RPP): T1 (one huge row per page), T33
//! (typical), T500 (many tiny rows per page). Columns are `C1` and `C2`
//! (uniform random integers) plus padding that fixes the row size; a
//! non-clustered index exists on `C2` and none on `C1`.

use serde::{Deserialize, Serialize};

/// Fixed per-page header size used by the page codec (bytes).
pub const PAGE_HEADER_BYTES: u32 = 32;

/// Logical description of a workload table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSpec {
    /// Table name (e.g. "T33").
    pub name: String,
    /// Total row count.
    pub rows: u64,
    /// Rows stored per page (the paper's RPP knob).
    pub rows_per_page: u32,
    /// Page size in bytes.
    pub page_size: u32,
    /// Seed for deterministic column data.
    pub seed: u64,
    /// `C2` values are uniform in `[0, c2_max]`; the BETWEEN predicate's
    /// selectivity is controlled against this domain.
    pub c2_max: u32,
}

impl TableSpec {
    /// A spec in the paper's style: `Tn` with `n` rows per page.
    pub fn paper_table(rows_per_page: u32, rows: u64, seed: u64) -> TableSpec {
        TableSpec {
            name: format!("T{rows_per_page}"),
            rows,
            rows_per_page,
            page_size: 4096,
            seed,
            c2_max: u32::MAX - 1,
        }
    }

    /// Number of heap pages the table occupies.
    pub fn n_pages(&self) -> u64 {
        self.rows.div_ceil(self.rows_per_page as u64)
    }

    /// Row size in bytes, derived so `rows_per_page` rows exactly fill the
    /// page payload (this is what the paper's padding columns achieve).
    pub fn row_bytes(&self) -> u32 {
        (self.page_size - PAGE_HEADER_BYTES) / self.rows_per_page
    }

    /// Heap page holding `row`.
    #[inline]
    pub fn page_of_row(&self, row: u64) -> u64 {
        row / self.rows_per_page as u64
    }

    /// Slot of `row` within its page.
    #[inline]
    pub fn slot_of_row(&self, row: u64) -> u32 {
        (row % self.rows_per_page as u64) as u32
    }

    /// Rows stored on heap page `page` (the last page may be partial).
    pub fn rows_in_page(&self, page: u64) -> std::ops::Range<u64> {
        let start = page * self.rows_per_page as u64;
        let end = (start + self.rows_per_page as u64).min(self.rows);
        start..end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_geometry() {
        let t1 = TableSpec::paper_table(1, 1000, 0);
        assert_eq!(t1.name, "T1");
        assert_eq!(t1.n_pages(), 1000);
        assert_eq!(t1.row_bytes(), 4064);

        let t33 = TableSpec::paper_table(33, 330, 0);
        assert_eq!(t33.n_pages(), 10);
        assert_eq!(t33.row_bytes(), 123);

        let t500 = TableSpec::paper_table(500, 1001, 0);
        assert_eq!(t500.n_pages(), 3); // 500 + 500 + 1
        assert_eq!(t500.rows_in_page(2), 1000..1001);
    }

    #[test]
    fn row_addressing_round_trips() {
        let t = TableSpec::paper_table(33, 1_000, 0);
        for row in [0u64, 32, 33, 999] {
            let p = t.page_of_row(row);
            let s = t.slot_of_row(row);
            assert_eq!(p * 33 + s as u64, row);
            assert!(t.rows_in_page(p).contains(&row));
        }
    }
}
