//! # pioqo-workload — the paper's experiments as a library
//!
//! Everything the reproduction harness (and downstream users) need to run
//! the paper's evaluation:
//!
//! * [`ExperimentConfig::table1`] — the six E1/E33/E500 × HDD/SSD
//!   configurations of Table 1 at simulation scale;
//! * [`Experiment`] — builds the dataset, manufactures cold devices and
//!   flushed 64 MB buffer pools, and executes query Q with any
//!   [`MethodSpec`] (FTS/PFTS/IS/PIS/sorted-IS);
//! * [`sweep`] — runtime-vs-selectivity curves and break-even bisection
//!   (Fig. 4, Table 2);
//! * [`opteval`] — calibrate → optimize (DTT vs QDTT) → execute (Fig. 8);
//! * [`mod@capture`] — one cell type and one runner for every observed run;
//! * [`observe`] — the observation bundle: every cell captured once,
//!   traced and metered, rendered into one set of documents;
//! * [`concurrent`] — the §4.3 concurrency grid: N closed-loop sessions
//!   under QDTT-aware admission control, per device;
//! * [`interference`] — scan-vs-checkpoint interference: the same scan
//!   sessions with the crash-consistent write path (WAL + background
//!   flusher) on and off, isolating what writeback does to scan p99;
//! * [`joins`] — the join-crossover grid: INL vs hybrid hash costed and
//!   executed per device and per queue-depth lease;
//! * [`sessions`] — the session-scale study: 1K/10K/100K closed-loop
//!   sessions on overlapping scans, cooperative shared-scan cursor vs
//!   one cursor per query.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capture;
pub mod concurrent;
pub mod dataset;
pub mod experiments;
pub mod interference;
pub mod joins;
#[cfg(test)]
mod metrics;
pub mod observe;
pub mod opteval;
pub mod sessions;
pub mod sweep;
#[cfg(test)]
mod trace;

pub use capture::{CaptureCell, CaptureError, CellKind};
pub use concurrent::{concurrency_grid, run_cell, ConcurrencyCell, ConcurrencyConfig};
pub use dataset::Dataset;
pub use experiments::{DeviceKind, Experiment, ExperimentConfig, MethodSpec};
pub use interference::{interference_sweep, InterferenceCell};
pub use joins::{join_grid, JoinCell, JoinGridConfig};
pub use observe::{
    default_observe_cells, default_slos, observe_bundle, CellSummary, ObserveBundle, SessionCell,
};
pub use opteval::{
    calibrate, cold_stats, evaluate, plan_to_method, CalibratedModels, OptEvalPoint,
};
pub use sessions::{
    session_scale_cell, session_scale_fixture, session_scale_sweep, SessionScaleCell,
    SessionScaleConfig,
};
pub use sweep::{break_even, runtime_curve, SweepPoint};

/// One row of a grid CSV: the four cell types ([`ConcurrencyCell`],
/// [`JoinCell`], [`InterferenceCell`], [`SessionScaleCell`]) serialise
/// through this and [`to_csv`].
pub trait CsvRow {
    /// The column names, comma-separated.
    fn csv_header() -> &'static str;
    /// This cell's values, in header order.
    fn csv_row(&self) -> String;
}

/// The header line plus one line per cell — the file a `repro` grid
/// target writes under `results/`.
pub fn to_csv<C: CsvRow>(cells: &[C]) -> String {
    let mut out = String::from(C::csv_header());
    out.push('\n');
    for cell in cells {
        out.push_str(&cell.csv_row());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first line of a committed golden CSV.
    macro_rules! golden_header {
        ($file:literal) => {
            include_str!(concat!("../../../results/", $file))
                .lines()
                .next()
                .expect("golden CSV has a header line")
        };
    }

    #[test]
    fn to_csv_headers_match_the_committed_goldens() {
        fn header<C: CsvRow>() -> String {
            // No cells: the document is the header line alone.
            let doc = to_csv::<C>(&[]);
            assert_eq!(doc, format!("{}\n", C::csv_header()));
            doc.trim_end().to_string()
        }
        assert_eq!(
            header::<ConcurrencyCell>(),
            golden_header!("concurrency_grid.csv")
        );
        assert_eq!(header::<JoinCell>(), golden_header!("join_crossover.csv"));
        assert_eq!(
            header::<InterferenceCell>(),
            golden_header!("interference.csv")
        );
        assert_eq!(
            header::<SessionScaleCell>(),
            golden_header!("session_scale.csv")
        );
    }
}
