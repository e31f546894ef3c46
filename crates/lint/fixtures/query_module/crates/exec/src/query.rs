//! Known-bad fixture: a query layer that breaks determinism in the two
//! ways a predicate/join module is most tempted to. The lint must treat
//! `exec/src/query.rs` exactly like the rest of the sim crate — D1 and D3
//! both fire here. Never compiled; only scanned.

use std::collections::HashMap;
use std::time::Instant;

/// D3: a hash-join build table keyed by join key. `HashMap` iteration
/// order would decide partition drain order — the row fingerprint (and
/// any tie-broken aggregate) then depends on the hasher seed.
pub struct BuildTable {
    pub rows: HashMap<u32, Vec<u32>>,
}

impl BuildTable {
    /// D3 again at the use site, plus D1: timing predicate evaluation
    /// with the host clock to pick a pushdown strategy — plan choice
    /// must come from the virtual cost model, not wall time.
    pub fn drain_partitions(&mut self) -> Vec<u32> {
        let started = Instant::now();
        let drained: Vec<u32> = self.rows.keys().copied().collect();
        let _ = started.elapsed();
        drained
    }
}
