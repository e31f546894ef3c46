//! # pioqo-device — storage device models
//!
//! The hardware substrate of the reproduction: discrete-event simulations of
//! the three device classes the paper evaluates, all behind one
//! [`DeviceModel`] trait:
//!
//! * [`Hdd`] — single 7200 RPM spindle: seek curve, rotational latency,
//!   SSTF/NCQ reordering. Queue depth barely helps (Fig. 1).
//! * [`Ssd`] — consumer PCIe flash: parallel channels, shared host bus,
//!   interface IOPS cap, FTL mapping-cache band sensitivity. Queue depth
//!   helps enormously, up to the internal parallelism (Fig. 1, Fig. 7).
//! * [`Raid`] — striped array of 15K spindles: queue depth helps up to
//!   the spindle count (Figs. 11, 12).
//!
//! Plus the wrappers [`Faulty`] (error injection), [`Crashable`] (halt at
//! a chosen instant) and [`WithBackgroundLoad`] (competing streams), and
//! [`real`] — a real-file thread-pool backend for running the calibration
//! against actual hardware.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod background;
pub mod crash;
pub mod fault;
pub mod hdd;
pub mod io;
pub mod media;
pub mod presets;
pub mod raid;
pub mod real;
pub mod ssd;

pub use background::WithBackgroundLoad;
pub use crash::{CrashPlan, CrashReport, Crashable};
pub use fault::{FaultPlan, Faulty};
pub use hdd::{Hdd, HddConfig};
pub use io::{drain_all, DeviceModel, IoCompletion, IoKind, IoRequest, IoStatus};
pub use media::MediaStore;
pub use raid::{Raid, RaidConfig};
pub use ssd::{Ssd, SsdConfig};
