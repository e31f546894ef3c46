//! # pioqo-optimizer — parallel-I/O-aware access-path selection
//!
//! The consumer of the QDTT model: a cost-based optimizer choosing among
//! (parallel) full table scans and (parallel) index scans for the paper's
//! range-predicate query.
//!
//! * [`card`] — Yao's formula and Mackert–Lohman buffered-fetch estimation;
//! * [`TableStats`] — the catalog statistics the optimizer consumes,
//!   including the cached-page counts of §4.3;
//! * [`IoCostModel`] — the pluggable I/O model: [`DttCost`] gives the
//!   paper's *old* (queue-depth-blind) optimizer, [`QdttCost`] the *new*
//!   one; nothing else differs;
//! * [`Optimizer`] — plan enumeration over `{FTS, IS} × degree` and the
//!   join candidates, every plan priced by one function from the page
//!   streams it reads;
//! * [`QdBudget`] — the future-work extension budgeting queue depth across
//!   concurrent queries;
//! * [`QdttAdmission`] — the admission planner plugging that budget into
//!   the executor's concurrent multi-query engine: each admitted query is
//!   re-optimized with its queue-depth lease as the cap;
//! * [`join`] — QDTT-costed join planning: index-nested-loop (random
//!   probes, wants deep queues) vs. hybrid hash (sequential partitioned
//!   I/O), chosen per device and per queue-depth lease.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod card;
pub mod concurrency;
pub mod cost;
pub mod join;
pub mod optimizer;
pub mod stats;

pub use admission::{plan_to_spec, AdmissionDecision, JoinDecision, QdttAdmission};
pub use concurrency::{Holder, QdBudget};
pub use cost::{DttCost, EstCpuCosts, IoCostModel, QdttCost};
pub use join::{join_plan_to_spec, JoinMethod, JoinPlan, JoinStats};
pub use optimizer::{cheapest, AccessMethod, ChooseScratch, Optimizer, OptimizerConfig, Plan};
pub use stats::{IndexStats, TableStats};
