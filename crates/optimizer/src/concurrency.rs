//! Queue-depth budgeting across concurrent queries — the paper's future
//! work, built as an extension.
//!
//! §4.3: "When multiple queries are running on the system concurrently, the
//! optimizer needs to pass a lower queue depth number to the QDTT model.
//! The optimal decision ... depends on the concurrency level of the system
//! and the type of database operators in the query plans. Studying the role
//! of these factors ... is considered as a future work."
//!
//! [`QdBudget`] implements the natural policy: the device's maximum
//! beneficial queue depth is shared across the holders currently granted a
//! share, so a single query gets the full depth and k concurrent holders
//! get `max(1, beneficial / k)` each. The budget is one table of who holds
//! how much depth, keyed by [`Holder`]: a grant is stored the moment it is
//! made and removed by naming its holder, so there is no token to drop
//! between granting and storing it.

use pioqo_core::Qdtt;
use std::collections::BTreeMap;

/// Who holds a share of a [`QdBudget`]; each holds at most one grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Holder {
    /// The query admitted for this session (or an open `pioqo::Session`).
    Session(u32),
    /// The shared-scan cursor, while it streams.
    Cursor,
    /// Background writeback (checkpoint flushing), while it is active.
    Background,
}

/// A queue-depth budget shared by concurrent queries.
#[derive(Debug)]
pub struct QdBudget {
    /// The device's maximum beneficial queue depth (from the calibrated
    /// model, e.g. [`Qdtt::beneficial_queue_depth`]).
    total: u32,
    /// Live grants: holder -> granted depth.
    grants: BTreeMap<Holder, u32>,
}

impl QdBudget {
    /// A budget of `total` queue depth (the device's beneficial maximum).
    pub fn new(total: u32) -> QdBudget {
        QdBudget {
            total: total.max(1),
            grants: BTreeMap::new(),
        }
    }

    /// Derive the budget from a calibrated model: the smallest depth within
    /// 5% of the best cost at the widest calibrated band.
    pub fn from_model(model: &Qdtt) -> QdBudget {
        let widest = *model.band_sizes().last().expect("non-empty model");
        QdBudget::new(model.beneficial_queue_depth(widest, 0.05))
    }

    /// The device's total queue-depth budget (the beneficial maximum).
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Number of holders currently granted a share.
    pub fn active(&self) -> usize {
        self.grants.len()
    }

    /// True while `holder` has a grant.
    pub(crate) fn holds(&self, holder: Holder) -> bool {
        self.grants.contains_key(&holder)
    }

    /// Grant `holder` a share for a newly admitted query (or cursor, or
    /// writeback): the budget is re-split over `held + 1` holders and the
    /// share returned. Existing grants keep their depth until re-granted
    /// (plans are costed at admission time). A holder is granted once
    /// until released; a second grant replaces the first (its share
    /// computed with the first still counted) and trips a debug assertion.
    pub fn grant(&mut self, holder: Holder) -> u32 {
        let share = self.share_at(self.grants.len() as u32 + 1);
        let stale = self.grants.insert(holder, share);
        debug_assert!(stale.is_none(), "{holder:?} granted twice");
        share
    }

    /// Release `holder`'s grant when its query (cursor, writeback)
    /// finishes. Releasing a holder with no grant is a no-op.
    pub fn release(&mut self, holder: Holder) {
        self.grants.remove(&holder);
    }

    /// The depth a hypothetical `k`-way concurrent workload would grant
    /// each query (for reporting and the ablation bench).
    pub fn share_at(&self, k: u32) -> u32 {
        (self.total / k.max(1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_query_gets_everything() {
        let mut b = QdBudget::new(32);
        assert_eq!(b.grant(Holder::Session(0)), 32);
        assert_eq!(b.active(), 1);
        b.release(Holder::Session(0));
        assert_eq!(b.active(), 0);
    }

    #[test]
    fn concurrent_queries_split_the_budget() {
        let mut b = QdBudget::new(32);
        assert_eq!(b.grant(Holder::Session(1)), 32);
        assert_eq!(b.grant(Holder::Cursor), 16);
        assert_eq!(b.grant(Holder::Background), 10);
        b.release(Holder::Cursor);
        assert_eq!(b.grant(Holder::Session(4)), 10); // 32 / (2 existing + 1)
        b.release(Holder::Cursor); // already released: no-op
        assert_eq!(b.active(), 3);
    }

    #[test]
    fn budget_never_grants_zero() {
        let mut b = QdBudget::new(2);
        for s in 0..10 {
            assert!(b.grant(Holder::Session(s)) >= 1);
        }
    }

    #[test]
    fn share_table() {
        let b = QdBudget::new(32);
        assert_eq!(b.share_at(1), 32);
        assert_eq!(b.share_at(2), 16);
        assert_eq!(b.share_at(32), 1);
        assert_eq!(b.share_at(64), 1);
        assert_eq!(b.share_at(0), 32);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "granted twice")]
    fn double_grant_is_detected() {
        let mut b = QdBudget::new(8);
        b.grant(Holder::Session(3));
        b.grant(Holder::Session(3));
    }

    #[test]
    fn from_model_uses_beneficial_depth() {
        // SSD-like: improves through 32 -> budget 32.
        let ssd = Qdtt::new(
            vec![1, 1000],
            vec![1, 2, 4, 8, 16, 32],
            vec![
                100.0, 100.0, 50.0, 50.0, 25.0, 25.0, 12.0, 12.0, 6.0, 6.0, 3.0, 3.0,
            ],
        );
        assert_eq!(QdBudget::from_model(&ssd).total, 32);
        // HDD-like: flat -> budget 1.
        let hdd = Qdtt::new(
            vec![1, 1000],
            vec![1, 2],
            vec![100.0, 9000.0, 100.0, 9000.0],
        );
        assert_eq!(QdBudget::from_model(&hdd).total, 1);
    }
}
