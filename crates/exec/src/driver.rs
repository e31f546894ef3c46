//! The event-driven query-driver abstraction behind [`crate::execute()`] and
//! [`crate::MultiEngine`].
//!
//! A `QueryDriver` is one query's state machine, decoupled from the event
//! loop that feeds it: [`QueryDriver::start`] issues the initial I/O and
//! compute, and [`QueryDriver::on_event`] advances the machine on each
//! [`Event`] delivered by [`SimContext::step`].
//!
//! Many drivers share one context: the crate's run loop (behind
//! [`crate::execute()`] and [`crate::MultiEngine`] alike) runs each driver
//! under its query's own tag ([`SimContext::with_owner`]) and hands it only
//! completions carrying that tag. Drivers do no tagging themselves, and a
//! done driver receives nothing.
//!
//! Drivers do not track handles either. Each owns one `IoWindow` (module
//! `window`), issues every read and compute task through it naming the
//! party that waits — a worker, a probe, a ring slot — and passes each
//! event to `IoWindow::landed` first. `None` means "not mine": return `Ok`.
//! A failed read of the window's own comes back as the operator's
//! [`ExecError`]. Otherwise the window has admitted the pages and hands
//! back the parties, which the driver moves on — a party that was parked
//! on a page simply pins it again. The driver itself decides only which
//! page each party wants next, how far ahead to read and whether resident
//! pages are skipped (DESIGN.md §3).
//!
//! Determinism: drivers hold ordered collections only, never consult
//! wall-clock time, and react to events in the order the context delivers
//! them — the same invariants as the rest of the sim crates (DESIGN.md §8).

use crate::engine::{Event, ExecError, SimContext};

/// The answer of one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryAnswer {
    /// The aggregate value (`MAX`); `None` when nothing matched or the
    /// aggregate is `COUNT` (reported via `rows_matched`).
    pub max_c1: Option<u32>,
    /// Rows satisfying the predicate (joined pairs for join queries).
    pub rows_matched: u64,
    /// Rows the operator actually evaluated.
    pub rows_examined: u64,
    /// Order-independent fingerprint of the projected matching rows (see
    /// `crate::query::row_fingerprint`).
    pub fingerprint: u64,
}

impl QueryAnswer {
    /// Build an answer from a finished row accumulator.
    pub fn from_acc(acc: &crate::query::RowAcc) -> QueryAnswer {
        QueryAnswer {
            max_c1: acc.agg,
            rows_matched: acc.matched,
            rows_examined: acc.examined,
            fingerprint: acc.fingerprint,
        }
    }
}

/// One query's scan state machine, drivable by any event loop over a
/// [`SimContext`] (see the module docs).
pub trait QueryDriver {
    /// The operator name used in traces and [`ExecError::Io`].
    fn operator(&self) -> &'static str;

    /// Issue the query's initial work (startup compute, root fetch,
    /// prefetch window). Called exactly once, before any event delivery.
    fn start(&mut self, ctx: &mut SimContext<'_>) -> Result<(), ExecError>;

    /// React to one context event. Events for I/O, compute or timers the
    /// driver did not issue must be ignored (return `Ok`); an error on the
    /// driver's own I/O surfaces as `Err`.
    fn on_event(&mut self, ctx: &mut SimContext<'_>, ev: &Event) -> Result<(), ExecError>;

    /// Whether the query has produced its final answer. A done driver
    /// receives no further events (stray completions of its outstanding
    /// prefetch are landed in the pool by the event loop).
    fn done(&self) -> bool;

    /// The final answer. Meaningful once [`QueryDriver::done`] is true.
    fn answer(&self) -> QueryAnswer;
}
