//! # pioqo-obs — deterministic observability
//!
//! A tracing, histogram and metrics layer for the simulator that costs
//! nothing until an observer is installed. Everything here is keyed to
//! *virtual* time ([`pioqo_simkit::SimTime`]) and built exclusively from
//! integer arithmetic and ordered collections, so a trace captured from a
//! run is **byte-identical** across thread counts and across repeated runs
//! — the same invariant the rest of the workspace enforces (lint rules
//! D1–D7).
//!
//! Four pieces:
//!
//! * **Structured event trace** — [`TraceEvent`]s (span begin/end, I/O
//!   submit/complete, buffer-pool hit/miss/evict, retry/backoff/timeout
//!   hedges, queue-depth counters) recorded into a [`RingSink`], which
//!   keeps the most recent `capacity` events in a fixed ring. A run is
//!   traced exactly when a ring is installed on its context; an untraced
//!   run skips event construction at one `None` branch per site.
//! * **Log-bucketed histograms** — [`Histogram`] uses HDR-style
//!   octave/sub-bucket indexing with *no floating point in bucket
//!   selection*.
//! * **Metrics registry** — [`MetricsRegistry`] holds integer counters,
//!   gauges, histograms and sim-time [`Series`] reservoirs registered by
//!   static `snake_case` name; like the ring, it records exactly when it
//!   is installed. It is the only home of the engine's five distributions
//!   (I/O latency, queue depth, page wait, retries, commit ack), recorded
//!   through pre-resolved [`HistHandle`]s. [`MetricsSnapshot`] is the
//!   mergeable form rendered by the Prometheus / CSV / JSON exporters,
//!   and [`SloSpec`] / [`evaluate_slos`] turn a snapshot into a
//!   machine-readable pass/fail verdict.
//! * **Exporters** — [`chrome_trace_json`] renders a ring's tracks and
//!   events (one ring, or several merged under per-cell track names) as
//!   Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`,
//!   one track per device channel / worker / operator / session), and
//!   [`MetricsSnapshot::hists_csv`] renders histogram buckets as CSV.
//!   `repro observe` writes every document these exporters render, for
//!   each of its cells captured once, traced and metered.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod hist;
pub mod metrics;
mod sink;

pub use chrome::chrome_trace_json;
pub use event::{EventKind, TraceEvent};
pub use hist::Histogram;
pub use metrics::{
    evaluate_slos, slo_report_json, HistHandle, MetricsRegistry, MetricsSnapshot, Series,
    SeriesHandle, SloCheck, SloSpec, SloVerdict,
};
pub use sink::RingSink;
