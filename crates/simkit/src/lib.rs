//! # pioqo-simkit — discrete-event simulation kernel
//!
//! The minimal machinery the rest of the workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — an exact integer virtual clock;
//! * [`EventQueue`] — a deterministic event calendar (FIFO tie-breaking);
//! * [`SimRng`] — seeded randomness with sampling helpers;
//! * [`IdSlab`] — O(1) tables keyed by ids issued in increasing order;
//! * [`U64Map`] — an open-addressing table for sparse keys that are
//!   probed, never iterated;
//! * [`stats`] — running statistics and time-weighted level tracking;
//! * [`par`] — deterministic scoped-thread fan-out for independent
//!   experiment grid points (results merged in submission order).
//!
//! Device models (`pioqo-device`) and the execution engine (`pioqo-exec`)
//! are actors driven by a single event loop built from these pieces; the
//! virtual clock is what lets us reproduce the paper's runtime curves
//! without the paper's hardware.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod par;
mod queue;
mod rng;
mod slab;
pub mod stats;
mod time;
mod u64map;

pub use queue::{EventQueue, QueueStats};
pub use rng::SimRng;
pub use slab::IdSlab;
pub use stats::{Running, TimeWeighted};
pub use time::{SimDuration, SimTime};
pub use u64map::U64Map;
