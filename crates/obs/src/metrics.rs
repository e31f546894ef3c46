//! Deterministic, integer-only metrics registry with sim-time series.
//!
//! This is the "what is the system doing over time" layer that complements
//! the event-level tracing in [`crate::RingSink`]: typed counters, gauges and
//! histograms registered by **static name**, plus time-series reservoirs
//! sampled on a fixed **sim-time** cadence. Everything is integer `u64`
//! arithmetic on the virtual clock, so the rendered exports are
//! byte-identical across harness thread counts and double runs — the same
//! invariant the trace exporter holds.
//!
//! Design rules:
//!
//! - **Names are `&'static str`** in `snake_case`. The registry stores them
//!   in `BTreeMap`s, so every iteration (and therefore every exporter) is
//!   sorted by name with no hashing nondeterminism.
//! - **A registry records exactly when it is installed.** There is no
//!   disabled mode: an unmetered context holds no registry and pays one
//!   `None` branch per site, as an untraced one does for the ring.
//! - **Series sample on a cadence.** A [`Series`] holds `(tick, value)`
//!   pairs where `tick = sim_nanos / cadence_nanos`; repeated samples inside
//!   one cadence window collapse to the last value. Callers may sample from
//!   event handlers at arbitrary sim times — the reservoir stays bounded by
//!   run length / cadence, not by event count.
//! - **Exporters are rendered from snapshots.** A [`MetricsSnapshot`] is the
//!   `String`-keyed, mergeable form: per-cell registries are snapshotted
//!   under a sanitized cell prefix and merged in cell submission order, the
//!   same scheme `workload::trace` uses for track names.
//!
//! Wall-clock time never enters this module; the harness-side self-profiler
//! (`pioqo-profiler`) owns that domain separately so lint rule D1 keeps
//! meaning inside sim crates.

use crate::hist::Histogram;
use pioqo_simkit::{SimDuration, SimTime};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default sampling cadence for time series: 1ms of sim time.
pub const DEFAULT_CADENCE: SimDuration = SimDuration::from_millis(1);

/// A bounded sim-time series reservoir: `(tick, value)` pairs on a fixed
/// cadence, last-value-wins within a cadence window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Series {
    /// Sampling cadence in sim nanoseconds (tick width).
    pub cadence_ns: u64,
    /// `(tick, value)` pairs in strictly increasing tick order.
    pub points: Vec<(u64, u64)>,
}

impl Series {
    fn new(cadence: SimDuration) -> Self {
        Series {
            cadence_ns: cadence.as_nanos().max(1),
            points: Vec::new(),
        }
    }

    /// Record `value` at sim time `t`. Samples landing in an already-closed
    /// (earlier) window are collapsed into the latest window instead of
    /// violating tick monotonicity.
    pub fn sample(&mut self, t: SimTime, value: u64) {
        let tick = t.as_nanos() / self.cadence_ns;
        match self.points.last_mut() {
            Some(last) if last.0 >= tick => last.1 = value,
            _ => self.points.push((tick, value)),
        }
    }

    /// Last sampled value, or 0 when the series is empty.
    pub fn last_value(&self) -> u64 {
        self.points.last().map(|&(_, v)| v).unwrap_or(0)
    }

    /// Largest sampled value, or 0 when the series is empty.
    pub fn max_value(&self) -> u64 {
        self.points.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }
}

/// Deterministic integer metrics registry. See the module docs for the
/// contract; construct with [`MetricsRegistry::enabled`].
#[derive(Debug)]
pub struct MetricsRegistry {
    cadence: SimDuration,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    // Histograms and series live in Vecs so a pre-resolved handle indexes
    // in O(1) on a hot path; the BTreeMaps only map names to slots (and
    // keep snapshot order name-sorted).
    hist_index: BTreeMap<&'static str, usize>,
    hists: Vec<Histogram>,
    series_index: BTreeMap<&'static str, usize>,
    series: Vec<Series>,
}

/// The slot of `name` in a name-indexed table, pushing `make()` if absent.
fn slot<T>(
    index: &mut BTreeMap<&'static str, usize>,
    items: &mut Vec<T>,
    name: &'static str,
    make: impl FnOnce() -> T,
) -> usize {
    *index.entry(name).or_insert_with(|| {
        items.push(make());
        items.len() - 1
    })
}

/// A pre-resolved slot in one registry's series table. The engine samples
/// a fixed set of series at every cadence boundary; resolving the names
/// once (at registry install time) and sampling by index keeps the
/// enabled hot path free of string-keyed map walks. A handle is only
/// meaningful on the registry that issued it.
#[derive(Debug, Clone, Copy)]
pub struct SeriesHandle(usize);

/// A pre-resolved slot in one registry's histogram table, as
/// [`SeriesHandle`] is for series. A slot that never records stays out of
/// [`MetricsRegistry::hist`] and of every snapshot.
#[derive(Debug, Clone, Copy)]
pub struct HistHandle(usize);

impl MetricsRegistry {
    /// A collecting registry whose series sample on `cadence` of sim time
    /// (a zero cadence means [`DEFAULT_CADENCE`]).
    pub fn enabled(cadence: SimDuration) -> Self {
        MetricsRegistry {
            cadence: if cadence.is_zero() {
                DEFAULT_CADENCE
            } else {
                cadence
            },
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hist_index: BTreeMap::new(),
            hists: Vec::new(),
            series_index: BTreeMap::new(),
            series: Vec::new(),
        }
    }

    /// Sim-time series sampling cadence.
    pub fn cadence(&self) -> SimDuration {
        self.cadence
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.iter().all(Histogram::is_empty)
            && self.series.is_empty()
    }

    /// Add `delta` to the named monotonic counter.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set the named gauge to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        self.gauges.insert(name, value);
    }

    /// Record one observation into the named histogram.
    pub fn hist_record(&mut self, name: &'static str, value: u64) {
        let handle = self.hist_handle(name);
        self.hist_record_at(handle, value);
    }

    /// Resolve (creating if needed) the slot for a named histogram.
    pub fn hist_handle(&mut self, name: &'static str) -> HistHandle {
        let i = slot(&mut self.hist_index, &mut self.hists, name, Histogram::new);
        HistHandle(i)
    }

    /// Record through a pre-resolved handle: an indexed write, no name
    /// lookup. The engine's per-read sites run entirely on this path.
    #[inline]
    pub fn hist_record_at(&mut self, handle: HistHandle, value: u64) {
        self.hists[handle.0].record(value);
    }

    /// Sample the named time series at sim time `t`.
    pub fn series_sample(&mut self, name: &'static str, t: SimTime, value: u64) {
        let handle = self.series_handle(name);
        self.series_sample_at(handle, t, value);
    }

    /// Resolve (creating if needed) the slot for a named series.
    pub fn series_handle(&mut self, name: &'static str) -> SeriesHandle {
        let cadence = self.cadence;
        let make = || Series::new(cadence);
        SeriesHandle(slot(&mut self.series_index, &mut self.series, name, make))
    }

    /// Sample through a pre-resolved handle: an indexed write, no name
    /// lookup. The per-cadence-boundary sampler in the engine runs
    /// entirely on this path.
    #[inline]
    pub fn series_sample_at(&mut self, handle: SeriesHandle, t: SimTime, value: u64) {
        self.series[handle.0].sample(t, value);
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Named histogram, if any observation was recorded.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        let slot = self.hist_index.get(name)?;
        Some(&self.hists[*slot]).filter(|h| !h.is_empty())
    }

    /// Named series, if its slot was resolved.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series_index.get(name).map(|&slot| &self.series[slot])
    }

    /// Snapshot into the `String`-keyed mergeable form, prefixing every
    /// metric name with `sanitize_prefix(prefix)` + `_` (no prefix when
    /// `prefix` is empty). Snapshots from many cells merge in submission
    /// order into one exportable document.
    pub fn snapshot(&self, prefix: &str) -> MetricsSnapshot {
        let key = |name: &str| -> String {
            if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{}_{name}", sanitize_prefix(prefix))
            }
        };
        MetricsSnapshot {
            counters: self.counters.iter().map(|(n, v)| (key(n), *v)).collect(),
            gauges: self.gauges.iter().map(|(n, v)| (key(n), *v)).collect(),
            hists: self
                .hist_index
                .iter()
                .filter(|&(_, &slot)| !self.hists[slot].is_empty())
                .map(|(n, &slot)| (key(n), self.hists[slot].clone()))
                .collect(),
            series: self
                .series_index
                .iter()
                .map(|(n, &slot)| (key(n), self.series[slot].clone()))
                .collect(),
        }
    }
}

/// Lower-case a cell label and fold every non `[a-z0-9]` run into a single
/// `_` so it is a legal Prometheus metric-name prefix
/// (`E33-SSD/PIS8@0.01` becomes `e33_ssd_pis8_0_01`).
pub fn sanitize_prefix(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut pending_sep = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            if pending_sep && !out.is_empty() {
                out.push('_');
            }
            pending_sep = false;
            out.push(c.to_ascii_lowercase());
        } else {
            pending_sep = true;
        }
    }
    out
}

/// `String`-keyed, mergeable snapshot of one or more registries; the form
/// all exporters render from.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by full (possibly prefixed) name.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges by full name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by full name.
    pub hists: BTreeMap<String, Histogram>,
    /// Sim-time series by full name.
    pub series: BTreeMap<String, Series>,
}

impl MetricsSnapshot {
    /// Fold `other` into `self`. Name collisions add counters, overwrite
    /// gauges, merge histograms and append series points.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (n, v) in &other.counters {
            *self.counters.entry(n.clone()).or_insert(0) += v;
        }
        for (n, v) in &other.gauges {
            self.gauges.insert(n.clone(), *v);
        }
        for (n, h) in &other.hists {
            self.hists.entry(n.clone()).or_default().merge(h);
        }
        for (n, s) in &other.series {
            self.series
                .entry(n.clone())
                .and_modify(|mine| mine.points.extend_from_slice(&s.points))
                .or_insert_with(|| s.clone());
        }
    }

    /// True when no metric of any kind is present.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.series.is_empty()
    }

    /// Render the Prometheus text exposition format (v0.0.4). Counters and
    /// gauges are plain samples; histograms emit cumulative `_bucket{le=..}`
    /// samples over *occupied* buckets plus `+Inf`/`_sum`/`_count`; series
    /// contribute their last value as a gauge (the full series lives in the
    /// CSV export). All values are integers and the output is sorted by
    /// metric name, so the document is byte-stable.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE pioqo_{name} counter");
            let _ = writeln!(out, "pioqo_{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE pioqo_{name} gauge");
            let _ = writeln!(out, "pioqo_{name} {v}");
        }
        for (name, s) in &self.series {
            let _ = writeln!(out, "# TYPE pioqo_{name} gauge");
            let _ = writeln!(out, "pioqo_{name} {}", s.last_value());
        }
        for (name, h) in &self.hists {
            let _ = writeln!(out, "# TYPE pioqo_{name} histogram");
            let mut cum = 0u64;
            for (_lo, hi, count) in h.occupied_buckets() {
                cum += count;
                if hi == u64::MAX {
                    continue; // folded into +Inf below
                }
                let _ = writeln!(out, "pioqo_{name}_bucket{{le=\"{hi}\"}} {cum}");
            }
            let _ = writeln!(out, "pioqo_{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "pioqo_{name}_sum {}", h.sum);
            let _ = writeln!(out, "pioqo_{name}_count {}", h.count);
        }
        out
    }

    /// Render every time series as Chrome trace-event counter tracks
    /// (`ph: "C"`), one named counter per series. The document loads in
    /// Perfetto next to (or merged with) the span trace from
    /// `chrome_trace_json`, and passes the same `trace-check` schema.
    pub fn chrome_counters_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"pioqo-metrics\"}}",
        );
        for (name, s) in &self.series {
            for &(tick, v) in &s.points {
                let t_us = tick.saturating_mul(s.cadence_ns) / 1_000;
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\
                     \"ts\":{t_us}.000,\"args\":{{\"value\":{v}}}}}"
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Render every time series as CSV: `series,t_us,value`, sorted by
    /// series name and tick.
    pub fn series_csv(&self) -> String {
        let mut out = String::from("series,t_us,value\n");
        for (name, s) in &self.series {
            for &(tick, v) in &s.points {
                let t_us = tick.saturating_mul(s.cadence_ns) / 1_000;
                let _ = writeln!(out, "{name},{t_us},{v}");
            }
        }
        out
    }

    /// Render every histogram's occupied buckets as CSV:
    /// `hist,bucket_lo,bucket_hi,count`, sorted by histogram name and
    /// bucket.
    pub fn hists_csv(&self) -> String {
        let mut out = String::from("hist,bucket_lo,bucket_hi,count\n");
        for (name, h) in &self.hists {
            for (lo, hi, count) in h.occupied_buckets() {
                let _ = writeln!(out, "{name},{lo},{hi},{count}");
            }
        }
        out
    }

    /// Render a compact machine-readable summary: every counter and gauge,
    /// five-number digests per histogram, and per-series point counts with
    /// last/max values. Integer-only and sorted, hence byte-stable.
    pub fn summary_json(&self) -> String {
        #[derive(Serialize)]
        struct HistDigest {
            count: u64,
            sum: u64,
            min: u64,
            max: u64,
            p50: u64,
            p99: u64,
        }
        #[derive(Serialize)]
        struct SeriesDigest {
            points: u64,
            cadence_ns: u64,
            last: u64,
            max: u64,
        }
        #[derive(Serialize)]
        struct Summary {
            counters: BTreeMap<String, u64>,
            gauges: BTreeMap<String, u64>,
            hists: BTreeMap<String, HistDigest>,
            series: BTreeMap<String, SeriesDigest>,
        }
        let summary = Summary {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| {
                    (
                        n.clone(),
                        HistDigest {
                            count: h.count,
                            sum: h.sum,
                            min: h.min,
                            max: h.max,
                            p50: h.quantile_lo(50, 100),
                            p99: h.quantile_lo(99, 100),
                        },
                    )
                })
                .collect(),
            series: self
                .series
                .iter()
                .map(|(n, s)| {
                    (
                        n.clone(),
                        SeriesDigest {
                            points: s.points.len() as u64,
                            cadence_ns: s.cadence_ns,
                            last: s.last_value(),
                            max: s.max_value(),
                        },
                    )
                })
                .collect(),
        };
        serde_json::to_string_pretty(&summary).expect("metrics summary serializes to JSON")
    }
}

/// One service-level check against a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum SloCheck {
    /// The histogram's integer p99 lower bound must be `<= limit`.
    HistP99AtMost {
        /// Full histogram name in the snapshot.
        hist: String,
        /// Inclusive upper limit.
        limit: u64,
    },
    /// The counter must be `>= limit`.
    CounterAtLeast {
        /// Full counter name in the snapshot.
        counter: String,
        /// Inclusive lower limit.
        limit: u64,
    },
    /// The series' final sampled value must be `<= limit`.
    SeriesLastAtMost {
        /// Full series name in the snapshot.
        series: String,
        /// Inclusive upper limit.
        limit: u64,
    },
    /// `num * 1000 / den` (integer parts-per-mille over two counters) must
    /// be `<= limit`; fails when `den` is zero or either counter is absent.
    RatioPermilleAtMost {
        /// Numerator counter name.
        num: String,
        /// Denominator counter name.
        den: String,
        /// Inclusive upper limit in parts-per-mille.
        limit: u64,
    },
}

/// A named SLO: a check plus the label the verdict reports under.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SloSpec {
    /// Verdict label (snake_case by convention).
    pub name: String,
    /// The check to evaluate.
    pub check: SloCheck,
}

/// Outcome of evaluating one [`SloSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SloVerdict {
    /// The spec's label.
    pub name: String,
    /// True when the referenced metric exists (an absent metric fails).
    pub found: bool,
    /// Observed integer value (0 when absent).
    pub observed: u64,
    /// The spec's limit.
    pub limit: u64,
    /// Final verdict: found and within limit.
    pub pass: bool,
}

/// Evaluate every spec against the snapshot. Absent metrics fail their
/// check: an SLO over a metric nobody recorded is a wiring bug, not a pass.
pub fn evaluate_slos(snapshot: &MetricsSnapshot, specs: &[SloSpec]) -> Vec<SloVerdict> {
    specs
        .iter()
        .map(|spec| {
            let (found, observed, limit, within) = match &spec.check {
                SloCheck::HistP99AtMost { hist, limit } => match snapshot.hists.get(hist) {
                    Some(h) if h.count > 0 => {
                        let p99 = h.quantile_lo(99, 100);
                        (true, p99, *limit, p99 <= *limit)
                    }
                    _ => (false, 0, *limit, false),
                },
                SloCheck::CounterAtLeast { counter, limit } => {
                    match snapshot.counters.get(counter) {
                        Some(&v) => (true, v, *limit, v >= *limit),
                        None => (false, 0, *limit, false),
                    }
                }
                SloCheck::SeriesLastAtMost { series, limit } => match snapshot.series.get(series) {
                    Some(s) if !s.points.is_empty() => {
                        let v = s.last_value();
                        (true, v, *limit, v <= *limit)
                    }
                    _ => (false, 0, *limit, false),
                },
                SloCheck::RatioPermilleAtMost { num, den, limit } => {
                    match (snapshot.counters.get(num), snapshot.counters.get(den)) {
                        (Some(&n), Some(&d)) if d > 0 => {
                            let permille = n.saturating_mul(1000) / d;
                            (true, permille, *limit, permille <= *limit)
                        }
                        _ => (false, 0, *limit, false),
                    }
                }
            };
            SloVerdict {
                name: spec.name.clone(),
                found,
                observed,
                limit,
                pass: found && within,
            }
        })
        .collect()
}

/// Render verdicts as the machine-readable report `repro metrics`
/// writes: `{"pass": bool, "slos": [...]}`, sorted input order preserved.
pub fn slo_report_json(verdicts: &[SloVerdict]) -> String {
    #[derive(Serialize)]
    struct Report {
        pass: bool,
        slos: Vec<SloVerdict>,
    }
    let report = Report {
        pass: verdicts.iter().all(|v| v.pass),
        slos: verdicts.to_vec(),
    };
    serde_json::to_string_pretty(&report).expect("SLO report serializes to JSON")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_collapse_within_cadence_window() {
        let mut reg = MetricsRegistry::enabled(SimDuration::from_micros(10));
        reg.series_sample("depth", SimTime::from_micros(1), 3);
        reg.series_sample("depth", SimTime::from_micros(9), 5); // same window
        reg.series_sample("depth", SimTime::from_micros(25), 7);
        let s = reg.series("depth").expect("series recorded");
        assert_eq!(s.points, vec![(0, 5), (2, 7)]);
        assert_eq!(s.last_value(), 7);
        assert_eq!(s.max_value(), 7);
    }

    #[test]
    fn out_of_order_samples_collapse_into_latest_window() {
        let mut reg = MetricsRegistry::enabled(SimDuration::from_micros(10));
        reg.series_sample("x", SimTime::from_micros(50), 1);
        reg.series_sample("x", SimTime::from_micros(20), 9); // late arrival
        let s = reg.series("x").expect("series recorded");
        assert_eq!(s.points, vec![(5, 9)], "tick order must stay monotone");
    }

    #[test]
    fn prefix_sanitizer_produces_snake_case() {
        assert_eq!(sanitize_prefix("E33-SSD/PIS8@0.01"), "e33_ssd_pis8_0_01");
        assert_eq!(sanitize_prefix("--x--"), "x");
        assert_eq!(sanitize_prefix(""), "");
    }

    #[test]
    fn snapshot_merge_is_order_stable_and_prefixed() {
        let mut a = MetricsRegistry::enabled(DEFAULT_CADENCE);
        a.counter_add("ios", 3);
        a.gauge_set("depth", 8);
        let mut b = MetricsRegistry::enabled(DEFAULT_CADENCE);
        b.counter_add("ios", 4);
        let mut merged = a.snapshot("cell A");
        merged.merge(&b.snapshot("cell B"));
        assert_eq!(merged.counters.get("cell_a_ios"), Some(&3));
        assert_eq!(merged.counters.get("cell_b_ios"), Some(&4));
        assert_eq!(merged.gauges.get("cell_a_depth"), Some(&8));

        // Same-name collision: counters add.
        let mut twice = a.snapshot("");
        twice.merge(&a.snapshot(""));
        assert_eq!(twice.counters.get("ios"), Some(&6));
    }

    #[test]
    fn a_resolved_histogram_slot_shows_only_once_it_records() {
        let mut reg = MetricsRegistry::enabled(DEFAULT_CADENCE);
        let depth = reg.hist_handle("queue_depth");
        let idle = reg.hist_handle("commit_ack_us");
        assert!(reg.is_empty() && reg.hist("queue_depth").is_none());
        assert!(reg.snapshot("").hists.is_empty());
        reg.hist_record_at(depth, 8);
        reg.hist_record_at(depth, 8);
        reg.hist_record("queue_depth", 1);
        assert_eq!(reg.hist("queue_depth").map(|h| h.count), Some(3));
        assert!(reg.hist("commit_ack_us").is_none());
        let snap = reg.snapshot("cell");
        assert_eq!(
            snap.hists.keys().collect::<Vec<_>>(),
            ["cell_queue_depth"],
            "the idle slot {idle:?} stays out of the snapshot"
        );
        assert_eq!(
            snap.hists_csv(),
            "hist,bucket_lo,bucket_hi,count\ncell_queue_depth,1,1,1\ncell_queue_depth,8,8,2\n"
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut reg = MetricsRegistry::enabled(DEFAULT_CADENCE);
        reg.counter_add("pool_hits_total", 10);
        reg.gauge_set("sessions_active", 2);
        reg.hist_record("io_latency_us", 100);
        reg.hist_record("io_latency_us", 200);
        reg.series_sample("queue_depth", SimTime::from_micros(1), 8);
        let text = reg.snapshot("").to_prometheus();
        assert!(text.contains("# TYPE pioqo_pool_hits_total counter\npioqo_pool_hits_total 10\n"));
        assert!(text.contains("# TYPE pioqo_sessions_active gauge\npioqo_sessions_active 2\n"));
        assert!(text.contains("# TYPE pioqo_io_latency_us histogram\n"));
        assert!(text.contains("pioqo_io_latency_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("pioqo_io_latency_us_sum 300\n"));
        assert!(text.contains("pioqo_io_latency_us_count 2\n"));
        assert!(text.contains("# TYPE pioqo_queue_depth gauge\npioqo_queue_depth 8\n"));
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=\"")) {
            let v: u64 = line
                .rsplit(' ')
                .next()
                .expect("bucket line has a value")
                .parse()
                .expect("bucket value is an integer");
            assert!(v >= last, "cumulative bucket counts must be monotone");
            last = v;
        }
    }

    #[test]
    fn csv_and_summary_are_deterministic() {
        let build = || {
            let mut reg = MetricsRegistry::enabled(SimDuration::from_micros(2));
            reg.series_sample("a", SimTime::from_micros(0), 1);
            reg.series_sample("a", SimTime::from_micros(4), 2);
            reg.counter_add("c", 7);
            reg.hist_record("h", 5);
            reg.snapshot("cell")
        };
        let (x, y) = (build(), build());
        assert_eq!(x.series_csv(), y.series_csv());
        assert_eq!(x.summary_json(), y.summary_json());
        assert_eq!(x.to_prometheus(), y.to_prometheus());
        assert!(x.series_csv().starts_with("series,t_us,value\n"));
        assert!(x.series_csv().contains("cell_a,4,2\n"));
    }

    #[test]
    fn slo_evaluation_and_report() {
        let mut reg = MetricsRegistry::enabled(DEFAULT_CADENCE);
        reg.counter_add("hits", 90);
        reg.counter_add("lookups", 100);
        for v in [10u64, 20, 3000] {
            reg.hist_record("lat_us", v);
        }
        reg.series_sample("depth", SimTime::from_micros(1), 8);
        reg.series_sample("depth", SimTime::from_micros(5_000), 3);
        let snap = reg.snapshot("");
        let specs = vec![
            SloSpec {
                name: "p99_latency".into(),
                check: SloCheck::HistP99AtMost {
                    hist: "lat_us".into(),
                    limit: 5000,
                },
            },
            SloSpec {
                name: "hit_ratio".into(),
                check: SloCheck::RatioPermilleAtMost {
                    num: "hits".into(),
                    den: "lookups".into(),
                    limit: 950,
                },
            },
            SloSpec {
                name: "enough_lookups".into(),
                check: SloCheck::CounterAtLeast {
                    counter: "lookups".into(),
                    limit: 101,
                },
            },
            SloSpec {
                name: "depth_drains".into(),
                check: SloCheck::SeriesLastAtMost {
                    series: "depth".into(),
                    limit: 4,
                },
            },
            SloSpec {
                name: "missing_metric".into(),
                check: SloCheck::SeriesLastAtMost {
                    series: "nope".into(),
                    limit: 1,
                },
            },
        ];
        let verdicts = evaluate_slos(&snap, &specs);
        assert!(verdicts[0].pass, "{verdicts:?}");
        assert!(verdicts[1].pass && verdicts[1].observed == 900);
        assert!(!verdicts[2].pass && verdicts[2].found && verdicts[2].observed == 100);
        assert!(verdicts[3].pass && verdicts[3].observed == 3);
        assert!(!verdicts[4].pass && !verdicts[4].found);
        let json = slo_report_json(&verdicts);
        assert!(json.contains("\"pass\": false"));
        let parsed = serde_json::from_str_content(&json).expect("SLO report parses");
        let _ = parsed;
    }
}
