//! The four workloads. Names are fixed: later issues cite them.

pub mod calib_plan;
pub mod cold_grid;
pub mod sessions_rw;
pub mod warm_mix;

use crate::report::{per, Failure, Values};
use crate::runner::{Outcome, PassRecorder, RunResult};
use crate::timing::latency_summary;
use crate::trace::{BoundaryCounts, Layer, PoolCounts, N_LAYERS};
use pioqo_bufpool::BufferPool;
use pioqo_device::{presets, DeviceModel};
use pioqo_exec::{CpuConfig, CpuCosts, SimContext};
use pioqo_simkit::SimRng;
use pioqo_workload::DeviceKind;

/// Workload names, in suite order.
pub const NAMES: [&str; 4] = ["cold_grid", "warm_mix", "calib_plan", "sessions_rw"];

/// The three devices the paper evaluates.
pub const DEVICES: [DeviceKind; 3] = [DeviceKind::Hdd, DeviceKind::Ssd, DeviceKind::Raid8];

/// A fresh cold device of `kind` (the presets `Experiment::make_device`
/// uses, for fixtures that are not an `Experiment`).
pub fn make_device(kind: DeviceKind, capacity: u64, seed: u64) -> Box<dyn DeviceModel> {
    match kind {
        DeviceKind::Hdd => Box::new(presets::hdd_7200(capacity, seed)),
        DeviceKind::Ssd => Box::new(presets::consumer_pcie_ssd(capacity, seed)),
        DeviceKind::Raid8 => Box::new(presets::raid_15k(8, capacity, seed)),
    }
}

/// A context over the paper's machine (its Xeon, the default CPU costs):
/// the only one the benchmark runs on.
pub fn paper_context<'a>(
    device: &'a mut dyn DeviceModel,
    pool: &'a mut BufferPool,
) -> SimContext<'a> {
    SimContext::new(device, pool, CpuConfig::paper_xeon(), CpuCosts::default())
}

/// Every dataset, device, think-time and query-sequence seed of a run is
/// derived from `--seed` through here, one stream per purpose.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SimRng::derive(seed, stream).next_u64()
}

/// What the traced pass hands to a workload's per-layer accounting.
pub struct TracedPass<'a, O> {
    /// The single untraced reference pass run just before it.
    pub untraced: &'a RunResult<O>,
    /// Spans closed per layer over the traced pass.
    pub calls: [u64; N_LAYERS],
    /// Self seconds per layer over the traced pass, each op's records
    /// scaled to the reference machine speed like the op itself.
    pub layer_self_s: [f64; N_LAYERS],
    /// Exact counts taken at the span boundaries.
    pub counts: BoundaryCounts,
}

impl<O> TracedPass<'_, O> {
    /// Self seconds of `layer` over the traced pass.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.layer_self_s[layer as usize]
    }
}

/// One workload: a fixture, a fixed ordered op list, the checks on what
/// the ops computed, and the metrics derived from it.
pub trait Workload {
    /// Everything set-up builds.
    type Fixture;
    /// What one op computes.
    type Outcome: Outcome;
    /// The workload's fixed name.
    const NAME: &'static str;
    /// One line on why the workload exists (mirrored in `BENCHMARK.json`).
    const WHY: &'static str;
    /// Host seconds one pass takes on the reference host. `--seconds`
    /// divided by this is K; K is never derived from a clock.
    const NOMINAL_PASS_S: f64;
    /// Set-ups per run whose median is `setup_s`: the shorter one set-up,
    /// the more of them it takes for the median to sit still.
    const SETUP_REPS: usize;

    /// Build every fixture from `seed`. Timed as `setup_s`.
    fn setup(seed: u64, quick: bool) -> Self::Fixture;
    /// Host seconds of `setup` spent generating data and bulk-loading
    /// indexes (`storage.build_s`).
    fn storage_build_s(fx: &Self::Fixture) -> f64;
    /// Run every op once, in order. On a traced pass (`rec.tracer()` is
    /// set) the calls into the program go through the timing wrappers.
    fn pass(fx: &Self::Fixture, rec: &mut PassRecorder<Self::Outcome>);
    /// Check the answers against the oracles.
    fn check(fx: &Self::Fixture, outcomes: &[Self::Outcome]) -> Vec<Failure>;
    /// The simulated end-to-end metrics (host-time ones are the caller's).
    fn end_to_end(fx: &Self::Fixture, outcomes: &[Self::Outcome], v: &mut Values);
    /// The workload's own per-layer metrics (the generic device / engine /
    /// driver / trace ones are the caller's).
    fn per_layer(fx: &Self::Fixture, t: &TracedPass<'_, Self::Outcome>, v: &mut Values);
    /// Human-readable notes printed under the table (sample counts, the
    /// percentile `sim_p99_ms` actually is, ...).
    fn notes(fx: &Self::Fixture, outcomes: &[Self::Outcome]) -> Vec<String>;
}

/// K for a `--seconds` budget.
pub fn passes_for<W: Workload>(seconds: u64) -> usize {
    ((seconds as f64 / W::NOMINAL_PASS_S).floor() as usize).max(1)
}

/// The driver layers with their `driver.self_s.*` and
/// `driver.ns_per_page.*` metric names.
pub const DRIVER_METRICS: [(Layer, &str, &str); 5] = [
    (
        Layer::DriverFts,
        "driver.self_s.fts",
        "driver.ns_per_page.fts",
    ),
    (Layer::DriverIs, "driver.self_s.is", "driver.ns_per_page.is"),
    (
        Layer::DriverSortedIs,
        "driver.self_s.sorted_is",
        "driver.ns_per_page.sorted_is",
    ),
    (
        Layer::DriverInl,
        "driver.self_s.inl",
        "driver.ns_per_page.inl",
    ),
    (
        Layer::DriverHash,
        "driver.self_s.hash",
        "driver.ns_per_page.hash",
    ),
];

/// `sim_p50_ms` and `sim_p99_ms` of a latency sample (milliseconds); the
/// tail is the highest percentile the sample supports (`timing::tail_rank`).
pub fn latency_metrics(ms: &[f64], v: &mut Values) {
    let (p50, tail, _) = latency_summary(ms);
    v.insert("sim_p50_ms", p50);
    v.insert("sim_p99_ms", tail);
}

/// The `bufpool.*` counters and the two efficiency ratios (`prefetch_eff`
/// is the `ReadAheadMetrics` shape of SNIPPETS.md: prefetched pages that
/// were then used ÷ pages prefetched).
pub fn pool_metrics(pool: &PoolCounts, v: &mut Values) {
    v.insert("bufpool.hits", pool.hits as f64);
    v.insert("bufpool.misses", pool.misses as f64);
    v.insert("bufpool.evictions", pool.evictions as f64);
    v.insert("bufpool.refetches", pool.refetches as f64);
    v.insert(
        "bufpool.hit_rate",
        per(pool.hits as f64, pool.hits + pool.misses),
    );
    v.insert(
        "bufpool.prefetch_eff",
        per(pool.prefetch_hits as f64, pool.prefetch_admissions),
    );
}

/// `driver.ns_per_page.*`: each driver's traced self time ÷ the pages its
/// ops handled. `ops` yields `(driver layer, pages)` per op, pages being
/// the op's pool requests (hits + misses) — or, for the hash join, which
/// streams blocks past the pool, the device pages it moved.
pub fn driver_page_metrics<O>(
    ops: impl Iterator<Item = (Layer, u64)>,
    t: &TracedPass<'_, O>,
    v: &mut Values,
) {
    let mut pages = [0u64; N_LAYERS];
    for (layer, n) in ops {
        pages[layer as usize] += n;
    }
    for (layer, _, ns_per_page) in DRIVER_METRICS {
        v.insert(
            ns_per_page,
            per(t.self_s(layer) * 1e9, pages[layer as usize]),
        );
    }
}
