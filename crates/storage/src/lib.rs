//! # pioqo-storage — physical storage substrate
//!
//! Everything below the buffer pool: the workload tables of the paper
//! ([`TableSpec`], [`HeapTable`]), the non-clustered B+-tree on `C2`
//! ([`BTreeIndex`]), the physical page codec ([`page`]), deterministic
//! uniform data generation ([`gen`]), and device extent allocation
//! ([`Tablespace`]).
//!
//! The design keeps *logical values* (compact column vectors, the oracle
//! for correctness checks) separate from *physical page geometry* (extents,
//! fanouts, codecs) so the simulator can charge exact per-page I/O without
//! shipping padding bytes — see DESIGN.md §1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree;
pub mod gen;
pub mod heap;
pub mod page;
pub mod schema;
pub mod spec;
pub mod tablespace;

pub use btree::{BTreeIndex, LeafRange};
pub use bytes::Bytes;
pub use gen::{range_for_selectivity, selectivity_of_range, ColumnData};
pub use heap::HeapTable;
pub use page::{decode_heap_page, encode_heap_page, HeapPage, PageCodecError, PageKind};
pub use schema::{ColumnDef, ColumnType, Schema};
pub use spec::{TableSpec, PAGE_HEADER_BYTES};
pub use tablespace::{Extent, Tablespace, TablespaceError};
