//! Typed row schemas: the logical description of a table's columns.
//!
//! The paper's workload tables all share one shape — two unsigned 32-bit
//! columns `C1` (the aggregated payload) and `C2` (the indexed predicate
//! column) — but the query layer above storage should not hard-code that:
//! predicates and projections name columns, and naming needs a schema to
//! resolve against. [`Schema`] is deliberately small (ordinal positions,
//! names, fixed-width types) so the executor can compile a predicate tree
//! into column ordinals once per query instead of string-matching per row.

use serde::{Deserialize, Serialize};

/// The type of one column. All paper tables are fixed-width `u32`; wider
/// types slot in here without touching the page codec's callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// Unsigned 32-bit integer.
    U32,
}

/// One column: its name and type. The ordinal position is the index of the
/// definition inside its [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name (`"C1"`, `"C2"`).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// A schema from explicit column definitions.
    pub fn new(columns: Vec<ColumnDef>) -> Schema {
        Schema { columns }
    }

    /// The paper's two-column table shape: `C1 u32, C2 u32`.
    pub fn paper() -> Schema {
        Schema {
            columns: vec![
                ColumnDef {
                    name: "C1".to_string(),
                    ty: ColumnType::U32,
                },
                ColumnDef {
                    name: "C2".to_string(),
                    ty: ColumnType::U32,
                },
            ],
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The column at ordinal `i`.
    pub fn column(&self, i: usize) -> &ColumnDef {
        &self.columns[i]
    }

    /// All columns, in ordinal order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schema_resolves_both_columns() {
        let s = Schema::paper();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.column(0).name, "C1");
        assert_eq!(s.columns()[1].ty, ColumnType::U32);
    }

    #[test]
    fn custom_schema_orders_by_definition() {
        let s = Schema::new(vec![
            ColumnDef {
                name: "K".into(),
                ty: ColumnType::U32,
            },
            ColumnDef {
                name: "V".into(),
                ty: ColumnType::U32,
            },
        ]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.column(1).name, "V");
    }
}
