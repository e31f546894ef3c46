//! Access-path selection.
//!
//! The optimizer enumerates `{table scan, index scan} × degree ∈
//! {1, 2, 4, 8, 16, 32}` (plus the sorted-index-scan extension when
//! enabled), costs each plan with the configured [`IoCostModel`], and
//! picks the cheapest. Swapping [`DttCost`](crate::cost::DttCost) for
//! [`QdttCost`](crate::cost::QdttCost) is the entire difference between
//! the paper's old and new optimizers (§4.3).
//!
//! Every plan family — the three scans here and the two joins in
//! [`crate::join`] — is a builder that describes its plan as a short list
//! of page-read streams (`pages` within a `band` at a queue `depth`), a
//! CPU term and a parallel degree. One `price` turns any such description
//! into the plan's estimates, and [`cheapest`] is the one argmin over the
//! candidates.

use crate::card::{leaf_pages_touched, mackert_lohman_fetches, yao_pages, YaoMemo};
use crate::cost::{EstCpuCosts, IoCostModel};
use crate::stats::TableStats;
use pioqo_exec::CpuConfig;
use serde::{Deserialize, Serialize};

/// The access methods the optimizer chooses among.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessMethod {
    /// (Parallel) full table scan.
    TableScan,
    /// (Parallel) index scan on `C2`.
    IndexScan,
    /// Sorted index scan (extension; §3.1 notes SQL Anywhere lacks it).
    SortedIndexScan,
}

impl std::fmt::Display for AccessMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessMethod::TableScan => write!(f, "FTS"),
            AccessMethod::IndexScan => write!(f, "IS"),
            AccessMethod::SortedIndexScan => write!(f, "SortedIS"),
        }
    }
}

/// A costed plan candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Plan {
    /// Access method.
    pub method: AccessMethod,
    /// Parallel degree (1 = serial).
    pub degree: u32,
    /// Queue depth passed to the I/O cost model.
    pub queue_depth: u32,
    /// Band size passed to the I/O cost model (pages).
    pub band: u64,
    /// Estimated page fetches (I/O operations that miss the pool).
    pub est_page_fetches: f64,
    /// Estimated I/O time, µs.
    pub est_io_us: f64,
    /// Estimated (parallelism-adjusted) CPU time, µs.
    pub est_cpu_us: f64,
    /// Estimated total runtime, µs — what the optimizer minimizes.
    pub est_total_us: f64,
}

impl Plan {
    /// Short human-readable plan label ("FTS", "PIS8", "SortedIS"),
    /// matching the executor-side `PlanSpec::label` family.
    pub fn label(&self) -> String {
        match (self.method, self.degree) {
            (AccessMethod::TableScan, 1) => "FTS".to_string(),
            (AccessMethod::TableScan, d) => format!("PFTS{d}"),
            (AccessMethod::IndexScan, 1) => "IS".to_string(),
            (AccessMethod::IndexScan, d) => format!("PIS{d}"),
            (AccessMethod::SortedIndexScan, _) => "SortedIS".to_string(),
        }
    }
}

/// Optimizer knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Parallel degrees to consider (always includes 1). SQL Anywhere
    /// considers serial vs. the maximum allowable degree (32 in §4.3 —
    /// "in all three experiments a parallel plan with parallel degree 32
    /// is selected"); intermediate degrees can be added for ablations.
    pub degrees: Vec<u32>,
    /// Consider the sorted-index-scan extension.
    pub consider_sorted_is: bool,
    /// Per-worker index-scan prefetch depth assumed by the cost model
    /// (multiplies the queue depth passed to QDTT; the paper's §4.3
    /// experiments pass the parallel degree alone, i.e. depth 0).
    pub is_prefetch_depth: u32,
    /// Cap on the queue depth passed to the model ("the maximum beneficial
    /// queue depth, here 32" — §4.3).
    pub max_queue_depth: u32,
    /// CPU geometry used to discount parallel CPU work.
    pub cpu: CpuConfig,
    /// The optimizer's CPU estimate constants.
    pub est: EstCpuCosts,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            degrees: vec![1, 32],
            consider_sorted_is: false,
            is_prefetch_depth: 0,
            max_queue_depth: 32,
            cpu: CpuConfig::paper_xeon(),
            est: EstCpuCosts::default(),
        }
    }
}

impl OptimizerConfig {
    /// The configuration the admission layer uses under concurrency: all
    /// intermediate degrees plus the sorted-IS extension, and a per-worker
    /// prefetch assumption, so a shrinking queue-depth lease has degrees to
    /// step down through instead of a binary serial/32 choice.
    pub fn fine_grained() -> OptimizerConfig {
        OptimizerConfig {
            degrees: vec![1, 2, 4, 8, 16, 32],
            consider_sorted_is: true,
            is_prefetch_depth: 4,
            ..OptimizerConfig::default()
        }
    }
}

/// The cardinality terms of `k` row lookups in one table. None of them
/// depends on the candidate's degree or queue depth, so they are worked out
/// once per costing call and shared by every candidate; what does move
/// between calls on one table — `cached_pages`, the queue-depth cap — is
/// applied by the per-candidate costing on top.
pub(crate) struct CardTerms {
    /// Qualifying rows.
    k: u64,
    /// Distinct data pages touched (Yao).
    distinct: f64,
    /// Data-page fetches through the LRU pool (Mackert–Lohman).
    fetches_lru: f64,
    /// Index leaf pages touched.
    leaves: f64,
}

impl CardTerms {
    /// The terms of a scan keeping fraction `sel` of the rows. `yao` is
    /// [`yao_pages`] or a memo of it.
    fn new(stats: &TableStats, sel: f64, yao: impl FnOnce(u64, u64, u64) -> f64) -> CardTerms {
        let k = (sel.clamp(0.0, 1.0) * stats.rows as f64).ceil() as u64;
        CardTerms::at_k(stats, k, yao)
    }

    /// The terms of `k` lookups. Yao sees `k` clamped to the table's rows,
    /// where its value is the same (every page) anyway.
    pub(crate) fn at_k(
        stats: &TableStats,
        k: u64,
        yao: impl FnOnce(u64, u64, u64) -> f64,
    ) -> CardTerms {
        CardTerms {
            k,
            distinct: yao(stats.pages, stats.rows, k.min(stats.rows)),
            fetches_lru: mackert_lohman_fetches(stats.pages, k, stats.buffer_frames),
            leaves: leaf_pages_touched(k, stats.index.leaf_fanout) as f64,
        }
    }

    /// Heap-page fetches of the lookups: distinct pages by Yao, inflated
    /// by LRU refetches when the pool is smaller than the touched set,
    /// less the already-cached fraction.
    pub(crate) fn heap_fetches(&self, stats: &TableStats) -> f64 {
        self.distinct.max(self.fetches_lru) * (1.0 - stats.cached_fraction())
    }
}

/// One run of page reads a plan issues: `pages` reads within a
/// `band`-page extent at device queue depth `depth`.
#[derive(Clone, Copy)]
pub(crate) struct Stream {
    pub(crate) pages: f64,
    pub(crate) band: u64,
    pub(crate) depth: u32,
}

impl Stream {
    pub(crate) fn new(pages: f64, band: u64, depth: u32) -> Stream {
        Stream { pages, band, depth }
    }
}

/// A plan as its family's builder describes it: the `N` streams it reads
/// in pricing order, its CPU work and the degree that shares that work.
/// The first stream leads: its band and depth are the plan's. The streams
/// are a plain array, so costing never allocates.
pub(crate) struct Access<const N: usize> {
    pub(crate) streams: [Stream; N],
    pub(crate) cpu_us: f64,
    degree: u32,
}

impl<const N: usize> Access<N> {
    pub(crate) fn new(streams: [Stream; N], cpu_us: f64, degree: u32) -> Access<N> {
        Access {
            streams,
            cpu_us,
            degree,
        }
    }
}

/// The one argmin of plan choice: the first of `plans` with the lowest
/// `total_us`, so enumeration order breaks ties (toward the lower degree,
/// the shallower probe depth, the fewer partitions).
pub fn cheapest<P>(plans: impl IntoIterator<Item = P>, total_us: impl Fn(&P) -> f64) -> Option<P> {
    plans
        .into_iter()
        .min_by(|a, b| total_us(a).partial_cmp(&total_us(b)).expect("finite costs"))
}

/// Caller-owned state [`Optimizer::choose_into`] reuses across calls: the
/// candidate buffer (one allocation for any number of admissions) and a
/// [`YaoMemo`], so re-costing a query whose cardinality was seen before
/// skips the O(k) Yao product.
#[derive(Debug, Default)]
pub struct ChooseScratch {
    plans: Vec<Plan>,
    yao: YaoMemo,
}

/// The access-path optimizer. Generic over the I/O cost model — the same
/// code is the paper's old optimizer with [`DttCost`](crate::cost::DttCost)
/// and the new one with [`QdttCost`](crate::cost::QdttCost).
pub struct Optimizer<'m> {
    model: &'m dyn IoCostModel,
    cfg: std::borrow::Cow<'m, OptimizerConfig>,
}

impl<'m> Optimizer<'m> {
    /// Build an optimizer over `model`, taking ownership of `cfg`.
    pub fn new(model: &'m dyn IoCostModel, cfg: OptimizerConfig) -> Optimizer<'m> {
        assert!(cfg.degrees.contains(&1), "serial plans must be considered");
        Optimizer {
            model,
            cfg: std::borrow::Cow::Owned(cfg),
        }
    }

    /// Build an optimizer over `model` borrowing `cfg` — the per-admission
    /// hot path re-costs under a shrunken queue-depth cap without cloning
    /// the configuration (and its degree list) every time.
    pub fn with_cfg(model: &'m dyn IoCostModel, cfg: &'m OptimizerConfig) -> Optimizer<'m> {
        assert!(cfg.degrees.contains(&1), "serial plans must be considered");
        Optimizer {
            model,
            cfg: std::borrow::Cow::Borrowed(cfg),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// The underlying I/O model's name ("DTT" / "QDTT").
    pub fn model_name(&self) -> &'static str {
        self.model.model_name()
    }

    /// Enumerate every candidate plan for the query
    /// `SELECT MAX(C1) FROM t WHERE C2 BETWEEN …` with selectivity `sel`.
    pub fn enumerate(&self, stats: &TableStats, sel: f64) -> Vec<Plan> {
        let mut plans = Vec::new();
        self.enumerate_into(stats, &CardTerms::new(stats, sel, yao_pages), &mut plans);
        plans
    }

    fn enumerate_into(&self, stats: &TableStats, terms: &CardTerms, plans: &mut Vec<Plan>) {
        plans.clear();
        for &d in &self.cfg.degrees {
            plans.push(self.scan(stats, terms, AccessMethod::TableScan, d));
            plans.push(self.scan(stats, terms, AccessMethod::IndexScan, d));
        }
        if self.cfg.consider_sorted_is {
            plans.push(self.scan(stats, terms, AccessMethod::SortedIndexScan, 1));
        }
    }

    /// Pick the cheapest plan (ties break toward lower degree, which the
    /// enumeration order guarantees).
    pub fn choose(&self, stats: &TableStats, sel: f64) -> Plan {
        let mut plans = Vec::new();
        self.pick(stats, &CardTerms::new(stats, sel, yao_pages), &mut plans)
    }

    /// [`choose`](Self::choose) for a caller that re-costs many times (the
    /// admission planner): same pick, bit for bit, with the candidate
    /// buffer and the Yao term reused through `scratch`.
    pub fn choose_into(&self, stats: &TableStats, sel: f64, scratch: &mut ChooseScratch) -> Plan {
        let yao = &mut scratch.yao;
        let terms = CardTerms::new(stats, sel, |m, n, k| yao.pages(m, n, k));
        self.pick(stats, &terms, &mut scratch.plans)
    }

    fn pick(&self, stats: &TableStats, terms: &CardTerms, plans: &mut Vec<Plan>) -> Plan {
        self.enumerate_into(stats, terms, plans);
        cheapest(plans.iter(), |p| p.est_total_us)
            .expect("at least one plan")
            .clone()
    }

    /// Cost one specific `(method, degree)` candidate — used by the
    /// model-accuracy harness to compare estimates against simulated
    /// runtimes plan-by-plan.
    pub fn cost_access(
        &self,
        stats: &TableStats,
        sel: f64,
        method: AccessMethod,
        degree: u32,
    ) -> Plan {
        let terms = CardTerms::new(stats, sel, yao_pages);
        self.scan(stats, &terms, method, degree)
    }

    /// Price `a`: `Σ pages` fetches and `Σ pages · D(band, depth)` µs of
    /// I/O over its streams in order, and the one combine rule for the
    /// total, `max(io, cpu / capacity(degree))` plus `degree × startup`
    /// when parallel: a plan overlaps CPU with I/O, and each parallel
    /// worker pays a coordination overhead. Returns `(fetches, io, total)`.
    pub(crate) fn price<const N: usize>(&self, a: &Access<N>) -> (f64, f64, f64) {
        // -0.0 is the exact additive identity: a one-stream plan's sums are
        // that stream's own terms, bit for bit.
        let (mut fetches, mut io) = (-0.0, -0.0);
        for s in &a.streams {
            fetches += s.pages;
            io += s.pages * self.model.page_cost_us(s.band, s.depth);
        }
        let overhead = if a.degree > 1 {
            a.degree as f64 * self.cfg.est.startup_us
        } else {
            0.0
        };
        let total = io.max(a.cpu_us / self.cfg.cpu.capacity(a.degree as usize)) + overhead;
        (fetches, io, total)
    }

    /// Build and price one scan candidate.
    fn scan(
        &self,
        stats: &TableStats,
        terms: &CardTerms,
        method: AccessMethod,
        degree: u32,
    ) -> Plan {
        match method {
            AccessMethod::TableScan => self.plan(method, self.fts(stats, degree)),
            AccessMethod::IndexScan => self.plan(method, self.is(stats, terms, degree)),
            AccessMethod::SortedIndexScan => self.plan(method, self.sorted_is(stats, terms)),
        }
    }

    fn plan<const N: usize>(&self, method: AccessMethod, a: Access<N>) -> Plan {
        let (fetches, io, total) = self.price(&a);
        Plan {
            method,
            degree: a.degree,
            queue_depth: a.streams[0].depth,
            band: a.streams[0].band,
            est_page_fetches: fetches,
            est_io_us: io,
            est_cpu_us: a.cpu_us,
            est_total_us: total,
        }
    }

    /// Full table scan with `degree` workers: one sequential stream over
    /// the pages not already cached, CPU for every page and every row.
    pub(crate) fn fts(&self, stats: &TableStats, degree: u32) -> Access<1> {
        let depth = degree.min(self.cfg.max_queue_depth);
        let table = Stream::new(stats.uncached_pages(), 1, depth);
        let cpu = stats.pages as f64 * self.cfg.est.page_us
            + stats.rows as f64 * self.cfg.est.row_scan_us;
        Access::new([table], cpu, degree)
    }

    /// Index scan with `degree` workers: the heap fetches at random over
    /// the table's extent, then the root path and qualifying leaves over
    /// the index's extent.
    fn is(&self, stats: &TableStats, terms: &CardTerms, degree: u32) -> Access<2> {
        let depth = (degree * self.cfg.is_prefetch_depth.max(1)).min(self.cfg.max_queue_depth);
        let heap = Stream::new(terms.heap_fetches(stats), stats.extent.pages, depth);
        let index_pages = (terms.leaves + stats.index.height.saturating_sub(1) as f64).max(1.0);
        let index = Stream::new(index_pages, stats.index.extent.pages.max(1), depth);
        let cpu = terms.k as f64 * self.cfg.est.row_lookup_us + terms.leaves * self.cfg.est.leaf_us;
        Access::new([heap, index], cpu, degree)
    }

    /// Sorted index scan (extension): each distinct page fetched once on a
    /// ring as deep as the cap, plus the rid sort.
    fn sorted_is(&self, stats: &TableStats, terms: &CardTerms) -> Access<2> {
        let depth = self.cfg.max_queue_depth;
        let distinct = terms.distinct * (1.0 - stats.cached_fraction());
        let heap = Stream::new(distinct, stats.extent.pages, depth);
        let leaves = Stream::new(terms.leaves, stats.index.extent.pages.max(1), depth);
        let k = terms.k as f64;
        let sort_cpu = if k > 1.0 { k * k.log2() * 0.02 } else { 0.0 };
        let cpu = k * self.cfg.est.row_lookup_us + terms.leaves * self.cfg.est.leaf_us + sort_cpu;
        Access::new([heap, leaves], cpu, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DttCost, QdttCost};
    use pioqo_core::{CalibrationConfig, Calibrator, Method};
    use pioqo_device::presets::{consumer_pcie_ssd, hdd_7200};
    use pioqo_storage::Extent;

    fn stats(pages: u64, rpp: u32, buffer: u64) -> TableStats {
        TableStats {
            pages,
            rows: pages * rpp as u64,
            rows_per_page: rpp,
            page_size: 4096,
            extent: Extent { base: 0, pages },
            cached_pages: 0,
            buffer_frames: buffer,
            index: crate::stats::IndexStats {
                leaves: (pages * rpp as u64).div_ceil(338),
                height: 3,
                leaf_fanout: 338,
                extent: Extent {
                    base: pages,
                    pages: (pages * rpp as u64).div_ceil(338) + 4,
                },
                cached_pages: 0,
            },
        }
    }

    fn models(ssd: bool, capacity: u64) -> (pioqo_core::Dtt, pioqo_core::Qdtt) {
        let cfg = CalibrationConfig {
            band_sizes: vec![1, 64, 4096, capacity],
            queue_depths: vec![1, 2, 4, 8, 16, 32],
            max_reads: 800,
            method: Method::ActiveWait,
            repetitions: 1,
            early_stop_pct: None,
            stop_fill_factor: 1.02,
            seed: 7,
        };
        let cal = Calibrator::new(cfg);
        if ssd {
            let mut dev = consumer_pcie_ssd(capacity, 3);
            let (q, _) = cal.calibrate_qdtt(&mut dev);
            (q.to_dtt(), q)
        } else {
            let mut dev = hdd_7200(capacity, 3);
            let (q, _) = cal.calibrate_qdtt(&mut dev);
            (q.to_dtt(), q)
        }
    }

    #[test]
    fn dtt_optimizer_prefers_serial_plans() {
        let (dtt, _) = models(true, 1 << 20);
        let model = DttCost(dtt);
        let opt = Optimizer::new(&model, OptimizerConfig::default());
        let st = stats(100_000, 33, 16_384);
        for sel in [0.001, 0.01, 0.2, 0.9] {
            let plan = opt.choose(&st, sel);
            assert_eq!(plan.degree, 1, "old optimizer must stay serial (sel={sel})");
        }
    }

    #[test]
    fn qdtt_optimizer_parallelizes_on_ssd() {
        let (_, qdtt) = models(true, 1 << 20);
        let model = QdttCost(qdtt);
        let opt = Optimizer::new(&model, OptimizerConfig::default());
        let st = stats(100_000, 33, 16_384);
        let low = opt.choose(&st, 0.001);
        assert_eq!(low.method, AccessMethod::IndexScan);
        assert!(low.degree >= 16, "PIS with high degree expected: {low:?}");
        let high = opt.choose(&st, 0.9);
        assert_eq!(high.method, AccessMethod::TableScan);
        assert!(high.degree >= 8, "PFTS expected at high selectivity");
    }

    #[test]
    fn break_even_shifts_right_under_qdtt_on_ssd() {
        // Table 2's central claim: the IS/FTS crossover moves to much
        // higher selectivity when the optimizer knows about parallel I/O.
        let (dtt, qdtt) = models(true, 1 << 20);
        let old_model = DttCost(dtt);
        let new_model = QdttCost(qdtt);
        let old = Optimizer::new(&old_model, OptimizerConfig::default());
        let new = Optimizer::new(&new_model, OptimizerConfig::default());
        let st = stats(100_000, 33, 16_384);
        let crossover = |opt: &Optimizer<'_>| {
            let mut lo = 0.0f64;
            let mut hi = 1.0f64;
            for _ in 0..40 {
                let mid = (lo + hi) / 2.0;
                match opt.choose(&st, mid).method {
                    AccessMethod::IndexScan => lo = mid,
                    _ => hi = mid,
                }
            }
            (lo + hi) / 2.0
        };
        let np = crossover(&old);
        let p = crossover(&new);
        assert!(
            p > np * 1.5,
            "parallel break-even must sit well beyond the serial one: {np} vs {p}"
        );
    }

    #[test]
    fn hdd_break_even_shift_is_far_smaller_than_ssd() {
        // §4.2: on a single spindle the QDTT degenerates to (almost) the
        // DTT; Table 2: the HDD break-even shift (0.02% -> 0.05%) is tiny
        // next to the SSD one (0.4% -> 2.1%).
        let st = stats(100_000, 33, 16_384);
        let crossover = |opt: &Optimizer<'_>| {
            let mut lo = 0.0f64;
            let mut hi = 1.0f64;
            for _ in 0..40 {
                let mid = (lo + hi) / 2.0;
                match opt.choose(&st, mid).method {
                    AccessMethod::IndexScan => lo = mid,
                    _ => hi = mid,
                }
            }
            (lo + hi) / 2.0
        };
        let shift = |ssd: bool| {
            let (dtt, qdtt) = models(ssd, 1 << 20);
            let old_model = DttCost(dtt);
            let new_model = QdttCost(qdtt);
            let old = Optimizer::new(&old_model, OptimizerConfig::default());
            let new = Optimizer::new(&new_model, OptimizerConfig::default());
            crossover(&new) / crossover(&old)
        };
        let hdd_shift = shift(false);
        let ssd_shift = shift(true);
        assert!(hdd_shift < 5.0, "HDD shift should stay modest: {hdd_shift}");
        assert!(
            ssd_shift > hdd_shift,
            "SSD shift ({ssd_shift}) must exceed HDD shift ({hdd_shift})"
        );
    }

    #[test]
    fn zero_selectivity_picks_index_scan() {
        let (_, qdtt) = models(true, 1 << 20);
        let model = QdttCost(qdtt);
        let opt = Optimizer::new(&model, OptimizerConfig::default());
        let plan = opt.choose(&stats(100_000, 33, 16_384), 0.0);
        assert_eq!(plan.method, AccessMethod::IndexScan);
    }

    #[test]
    fn cached_table_discounts_io() {
        let (_, qdtt) = models(true, 1 << 20);
        let model = QdttCost(qdtt);
        let opt = Optimizer::new(&model, OptimizerConfig::default());
        let cold = stats(100_000, 33, 200_000);
        let mut warm = cold.clone();
        warm.cached_pages = 100_000; // fully cached
        let p_cold = opt.choose(&cold, 0.5);
        let p_warm = opt.choose(&warm, 0.5);
        assert!(p_warm.est_io_us < p_cold.est_io_us * 0.2);
    }

    #[test]
    fn sorted_is_wins_midrange_when_enabled() {
        let (_, qdtt) = models(true, 1 << 20);
        let model = QdttCost(qdtt);
        let cfg = OptimizerConfig {
            consider_sorted_is: true,
            ..OptimizerConfig::default()
        };
        let opt = Optimizer::new(&model, cfg);
        // Small buffer: plain IS refetches heavily in the midrange.
        let st = stats(100_000, 33, 2_000);
        let methods: Vec<_> = [0.02, 0.05, 0.1]
            .iter()
            .map(|&s| opt.choose(&st, s).method)
            .collect();
        assert!(
            methods.contains(&AccessMethod::SortedIndexScan),
            "sorted IS should win somewhere in the midrange: {methods:?}"
        );
    }

    /// `choose_into` shares the cardinality terms between candidates and
    /// takes Yao from a memo; `cost_access` works each candidate out from
    /// scratch. Same expressions, so the same bits — including where the
    /// memo is hit again under a different residency and cap.
    #[test]
    fn choose_into_equals_the_per_candidate_arg_min_bit_for_bit() {
        let model = QdttCost(pioqo_core::Qdtt::new(
            vec![1, 1 << 20],
            vec![1, 2, 4, 8, 16, 32],
            vec![
                100.0, 9000.0, 50.0, 4600.0, 25.0, 2400.0, 12.0, 1300.0, 6.0, 700.0, 3.0, 400.0,
            ],
        ));
        let bits = |p: &Plan| {
            (
                (p.method, p.degree, p.queue_depth, p.band),
                [
                    p.est_page_fetches.to_bits(),
                    p.est_io_us.to_bits(),
                    p.est_cpu_us.to_bits(),
                    p.est_total_us.to_bits(),
                ],
            )
        };
        let mut scratch = ChooseScratch::default();
        let mut cells = 0;
        for cap in [32, 5, 1] {
            for base in [OptimizerConfig::default(), OptimizerConfig::fine_grained()] {
                let cfg = OptimizerConfig {
                    max_queue_depth: cap,
                    ..base
                };
                let opt = Optimizer::with_cfg(&model, &cfg);
                // Enumeration order; the first strict minimum wins.
                let mut candidates: Vec<(AccessMethod, u32)> = cfg
                    .degrees
                    .iter()
                    .flat_map(|&d| [(AccessMethod::TableScan, d), (AccessMethod::IndexScan, d)])
                    .collect();
                if cfg.consider_sorted_is {
                    candidates.push((AccessMethod::SortedIndexScan, 1));
                }
                // 300 x 33 (every k on the exact path), 5 000 x 33 and
                // 3 000 x 500 (k on both sides of the 4 096 switch).
                for (pages, rpp, buffer) in [(300, 33, 128), (5_000, 33, 2_048), (3_000, 500, 64)] {
                    for cached in [0, pages / 3, pages] {
                        let mut st = stats(pages, rpp, buffer);
                        st.cached_pages = cached;
                        let rows = st.rows as f64;
                        for k in [0.0, 1.0, 40.0, 3_960.0, 4_095.0, 4_096.0, 4_097.0, 60_000.0] {
                            let sel = k / rows;
                            let mut want: Option<Plan> = None;
                            for &(m, d) in &candidates {
                                let p = opt.cost_access(&st, sel, m, d);
                                if want
                                    .as_ref()
                                    .is_none_or(|w| p.est_total_us < w.est_total_us)
                                {
                                    want = Some(p);
                                }
                            }
                            let want = want.expect("serial plans are always costed");
                            let got = opt.choose_into(&st, sel, &mut scratch);
                            assert_eq!(bits(&got), bits(&want), "{pages}x{rpp} k={k} cap={cap}");
                            assert_eq!(bits(&opt.choose(&st, sel)), bits(&want));
                            let listed = opt.enumerate(&st, sel);
                            assert!(listed.iter().any(|p| bits(p) == bits(&want)));
                            cells += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cells, 3 * 2 * 3 * 3 * 8);
    }

    #[test]
    fn over_cached_stats_cost_like_fully_cached_ones() {
        // `TableStats` fields are public: a hand-built claim of more cached
        // pages than the table holds must clamp, not underflow.
        let model = QdttCost(pioqo_core::Qdtt::new(
            vec![1, 1 << 20],
            vec![1, 32],
            vec![100.0, 9000.0, 3.0, 400.0],
        ));
        let opt = Optimizer::new(&model, OptimizerConfig::fine_grained());
        let full = TableStats {
            cached_pages: 1_000,
            ..stats(1_000, 33, 100)
        };
        let over = TableStats {
            cached_pages: 1_500,
            ..full.clone()
        };
        assert_eq!(over.cached_fraction(), 1.0);
        for sel in [0.0, 0.01, 0.5, 1.0] {
            let got = opt.enumerate(&over, sel);
            assert_eq!(
                format!("{got:?}"),
                format!("{:?}", opt.enumerate(&full, sel))
            );
            assert!(got.iter().all(|p| p.est_page_fetches >= 0.0));
        }
    }

    #[test]
    fn enumerate_covers_all_degrees() {
        let (_, qdtt) = models(true, 1 << 20);
        let model = QdttCost(qdtt);
        let opt = Optimizer::new(&model, OptimizerConfig::default());
        let plans = opt.enumerate(&stats(1000, 33, 100), 0.1);
        assert_eq!(plans.len(), 4); // {1, 32} x {FTS, IS}
        assert!(plans.iter().all(|p| p.est_total_us.is_finite()));
    }
}
