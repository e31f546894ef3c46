//! QDTT-costed join planning: index-nested-loop vs. hybrid hash.
//!
//! The two join operators in `pioqo_exec::join` have opposite I/O
//! profiles, which makes the choice between them exactly the kind of
//! decision the QDTT surface D(band, depth) was built for:
//!
//! * **INL** issues random page reads confined to the inner table's band
//!   at the probe queue depth — cheap precisely where QDTT says random
//!   reads are cheap (small band, deep queue, flash).
//! * **Hybrid hash** streams both inputs sequentially and pays a
//!   sequential write + read round trip for the spilled `(P-1)/P`
//!   fraction — nearly flat in queue depth and band size.
//!
//! So the winner flips with the device *and* with the queue-depth lease:
//! on a spindle, hash wins almost always; on flash at depth 32, INL wins
//! until admission pressure shrinks the lease and drags its random reads
//! back toward serial latency. [`Optimizer::choose_join`] enumerates
//! `{INL} × depths ∪ {HHJ} × partitions` under the optimizer's depth cap
//! and picks the cheapest — the concurrency experiments sweep that cap to
//! show the crossover moving. Both operators are stream builders priced by
//! the one [`Optimizer`] pricing, as degree-1 plans.

use crate::card::yao_pages;
use crate::optimizer::{cheapest, Access, CardTerms, Optimizer, Stream};
use crate::stats::TableStats;
use pioqo_exec::{HashJoinConfig, InlConfig, PlanSpec};
use serde::{Deserialize, Serialize};

/// The join operators the planner chooses among.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinMethod {
    /// Index-nested-loop: sequential outer scan + random inner probes.
    IndexNestedLoop,
    /// Hybrid hash: two sequential streams + a sequential spill round trip.
    HybridHash,
}

impl std::fmt::Display for JoinMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinMethod::IndexNestedLoop => write!(f, "INL"),
            JoinMethod::HybridHash => write!(f, "HHJ"),
        }
    }
}

/// A costed join candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinPlan {
    /// Join operator.
    pub method: JoinMethod,
    /// Queue depth passed to the I/O model (probe depth for INL, ring
    /// depth for hash).
    pub queue_depth: u32,
    /// Hash partitions (1 for INL, where it is meaningless).
    pub partitions: u32,
    /// Estimated page fetches (reads + spill writes).
    pub est_page_fetches: f64,
    /// Estimated I/O time, µs.
    pub est_io_us: f64,
    /// Estimated CPU time, µs.
    pub est_cpu_us: f64,
    /// Estimated total runtime, µs — what [`Optimizer::choose_join`]
    /// minimizes.
    pub est_total_us: f64,
}

impl JoinPlan {
    /// Short label matching the executor's `PlanSpec::label` family
    /// ("INL+qd8", "HHJ8").
    pub fn label(&self) -> String {
        match self.method {
            JoinMethod::IndexNestedLoop => format!("INL+qd{}", self.queue_depth),
            JoinMethod::HybridHash => format!("HHJ{}", self.partitions),
        }
    }
}

/// The statistics a join costing call consumes: both sides plus the inner
/// key cardinality (distinct `C2` values — `rows / cardinality` is the
/// average number of inner matches per probe).
#[derive(Debug, Clone)]
pub struct JoinStats<'a> {
    /// Outer (probe/left) table.
    pub left: &'a TableStats,
    /// Inner (build/right) table, whose `index` field is the probe target.
    pub right: &'a TableStats,
    /// Distinct join-key values in the inner table.
    pub key_cardinality: u64,
}

/// The smallest partition count whose in-memory partition 0 of the inner
/// table fits in a quarter of the buffer pool (so the "hybrid" part is
/// honest about memory).
pub fn min_feasible_partitions(js: &JoinStats<'_>) -> u32 {
    let mem_rows = (js.right.buffer_frames * js.right.rows_per_page as u64 / 4).max(1);
    let mut p = 1u32;
    while p < 64 && js.right.rows.div_ceil(p as u64) > mem_rows {
        p *= 2;
    }
    p
}

impl Optimizer<'_> {
    /// Enumerate every join candidate under the queue-depth cap
    /// (`max_queue_depth`, at least 1): INL at each power-of-two probe
    /// depth up to the cap, hash at each feasible power-of-two partition
    /// count up to 16× the minimum, its ring at the cap but at most 8. The
    /// outer predicate keeps fraction `sel` of the outer rows.
    pub fn enumerate_joins(&self, js: &JoinStats<'_>, sel: f64) -> Vec<JoinPlan> {
        let sel = sel.clamp(0.0, 1.0);
        let max_qd = self.config().max_queue_depth.max(1);
        let mut plans = Vec::new();
        let mut qd = 1u32;
        loop {
            plans.push(self.join(JoinMethod::IndexNestedLoop, 1, self.inl(js, sel, qd)));
            if qd >= max_qd {
                break;
            }
            qd = (qd * 2).min(max_qd);
        }
        let p0 = min_feasible_partitions(js);
        let mut p = p0;
        while p <= p0 * 16 && p <= 64 {
            let hash = self.hash(js, sel, p, max_qd.min(8));
            plans.push(self.join(JoinMethod::HybridHash, p, hash));
            p *= 2;
        }
        plans
    }

    /// Pick the cheapest join plan under the queue-depth cap (the
    /// admission lease, under concurrency).
    pub fn choose_join(&self, js: &JoinStats<'_>, sel: f64) -> JoinPlan {
        cheapest(self.enumerate_joins(js, sel), |p| p.est_total_us).expect("at least one join plan")
    }

    fn join<const N: usize>(&self, method: JoinMethod, partitions: u32, a: Access<N>) -> JoinPlan {
        let (fetches, io, total) = self.price(&a);
        JoinPlan {
            method,
            queue_depth: a.streams[0].depth,
            partitions,
            est_page_fetches: fetches,
            est_io_us: io,
            est_cpu_us: a.cpu_us,
            est_total_us: total,
        }
    }

    /// Index-nested-loop join at probe depth `qd`: the outer table streams
    /// sequentially; each probe fetches about one leaf from the index band
    /// (the upper levels stay hot after the first descent); the matched
    /// inner rows are heap lookups over the inner band, through the shared
    /// pool.
    fn inl(&self, js: &JoinStats<'_>, sel: f64, qd: u32) -> Access<3> {
        let probes = (sel * js.left.rows as f64).ceil();
        let matched = probes * (js.right.rows as f64 / js.key_cardinality.max(1) as f64);
        let idx = &js.right.index;
        let outer = Stream::new(js.left.uncached_pages(), 1, qd);
        let leaf_pages = probes
            .min(idx.leaves as f64)
            .max(if probes > 0.0 { 1.0 } else { 0.0 })
            + idx.height.saturating_sub(1) as f64;
        let leaves = Stream::new(leaf_pages, idx.extent.pages.max(1), qd);
        let terms = CardTerms::at_k(js.right, matched.ceil() as u64, yao_pages);
        let heap_pages = terms.heap_fetches(js.right);
        let heap = Stream::new(heap_pages, js.right.extent.pages.max(1), qd);
        let est = &self.config().est;
        let cpu = self.fts(js.left, 1).cpu_us + probes * est.leaf_us + matched * est.row_lookup_us;
        Access::new([outer, leaves, heap], cpu, 1)
    }

    /// Hybrid hash join with `partitions` partitions at sequential ring
    /// depth `qd`: both inputs stream once, and the spilled `(P-1)/P` of
    /// both sides (of the outer, only the rows the predicate keeps) is
    /// written out and read back, all sequential.
    fn hash(&self, js: &JoinStats<'_>, sel: f64, partitions: u32, qd: u32) -> Access<2> {
        let p = partitions as f64;
        let spill_frac = (p - 1.0) / p;
        let inputs = Stream::new(js.right.uncached_pages() + js.left.uncached_pages(), 1, qd);
        let spilled = spill_frac * (js.right.pages as f64 + sel * js.left.pages as f64);
        // The round trip: every spilled page once out and once back in.
        let spill = Stream::new(2.0 * spilled, 1, qd);
        let est = &self.config().est;
        let probes = sel * js.left.rows as f64;
        let cpu = (js.right.pages as f64 + js.left.pages as f64) * est.page_us
            + (js.right.rows as f64 + js.left.rows as f64) * est.row_scan_us
            + probes * est.row_lookup_us
            // Spilled rows are hashed twice (once out, once back in).
            + spill_frac * (js.right.rows as f64 * est.row_scan_us + probes * est.row_lookup_us);
        Access::new([inputs, spill], cpu, 1)
    }
}

/// Lower a costed [`JoinPlan`] to the executor's [`PlanSpec`].
pub fn join_plan_to_spec(plan: &JoinPlan) -> PlanSpec {
    match plan.method {
        JoinMethod::IndexNestedLoop => PlanSpec::Inl(InlConfig {
            probe_depth: plan.queue_depth.max(1),
            ..InlConfig::default()
        }),
        JoinMethod::HybridHash => PlanSpec::Hash(HashJoinConfig {
            partitions: plan.partitions.max(1),
            io_depth: plan.queue_depth.max(1),
            ..HashJoinConfig::default()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::QdttCost;
    use crate::optimizer::OptimizerConfig;
    use crate::stats::IndexStats;
    use pioqo_core::Qdtt;
    use pioqo_storage::Extent;

    fn stats(pages: u64, rpp: u32, base: u64, buffer: u64) -> TableStats {
        let rows = pages * rpp as u64;
        let leaves = rows.div_ceil(338);
        TableStats {
            pages,
            rows,
            rows_per_page: rpp,
            page_size: 4096,
            extent: Extent { base, pages },
            cached_pages: 0,
            buffer_frames: buffer,
            index: IndexStats {
                leaves,
                height: 3,
                leaf_fanout: 338,
                extent: Extent {
                    base: base + pages,
                    pages: leaves + 4,
                },
                cached_pages: 0,
            },
        }
    }

    /// Flash-like surface: sequential (band 1) reads are cheap at any
    /// depth; random reads start ~4–5× dearer but deep queues close most
    /// of the gap (what makes INL viable at all). The 4096-page knot makes
    /// the band axis saturate like a calibrated device instead of
    /// interpolating linearly across the whole capacity.
    fn ssd_model() -> QdttCost {
        QdttCost(Qdtt::new(
            vec![1, 4096, 1 << 20],
            vec![1, 2, 4, 8, 16, 32],
            vec![
                20.0, 80.0, 90.0, //
                10.0, 40.0, 45.0, //
                5.0, 20.0, 23.0, //
                2.5, 10.0, 12.0, //
                1.5, 5.0, 6.0, //
                1.0, 2.5, 3.0,
            ],
        ))
    }

    /// Spindle-like surface: depth buys nothing, random (large band) reads
    /// are ~30× sequential.
    fn hdd_model() -> QdttCost {
        QdttCost(Qdtt::new(
            vec![1, 4096, 1 << 20],
            vec![1, 32],
            vec![300.0, 7000.0, 9000.0, 290.0, 6800.0, 8700.0],
        ))
    }

    /// The join planner under queue-depth cap `max_qd`.
    fn capped(max_qd: u32) -> OptimizerConfig {
        OptimizerConfig {
            max_queue_depth: max_qd,
            ..OptimizerConfig::default()
        }
    }

    fn pick(model: &QdttCost, js: &JoinStats<'_>, sel: f64, max_qd: u32) -> JoinPlan {
        Optimizer::new(model, capped(max_qd)).choose_join(js, sel)
    }

    #[test]
    fn choose_matches_brute_force_sweep() {
        // The oracle: the sweep lists every (method, qd, partitions) point
        // — INL at depths 1, 2, 4, ... up to the cap, hash at p0, 2·p0, ...
        // up to 16·p0 (at most 64) on a ring of min(cap, 8) — and its first
        // strict minimum is what `choose_join` must pick.
        let left = stats(30_000, 33, 0, 16_384);
        let right = stats(10_000, 33, 40_000, 16_384);
        for model in [ssd_model(), hdd_model()] {
            for sel in [0.001, 0.05, 0.5] {
                for max_qd in [1u32, 4, 32] {
                    let js = JoinStats {
                        left: &left,
                        right: &right,
                        key_cardinality: 50_000,
                    };
                    let mut points = Vec::new();
                    let mut qd = 1;
                    loop {
                        points.push((JoinMethod::IndexNestedLoop, qd, 1));
                        if qd >= max_qd {
                            break;
                        }
                        qd = (qd * 2).min(max_qd);
                    }
                    let p0 = min_feasible_partitions(&js);
                    let mut parts = p0;
                    while parts <= p0 * 16 && parts <= 64 {
                        points.push((JoinMethod::HybridHash, max_qd.min(8), parts));
                        parts *= 2;
                    }
                    let opt = Optimizer::new(&model, capped(max_qd));
                    let plans = opt.enumerate_joins(&js, sel);
                    let swept: Vec<_> = plans
                        .iter()
                        .map(|p| (p.method, p.queue_depth, p.partitions))
                        .collect();
                    assert_eq!(swept, points);
                    let mut best: Option<&JoinPlan> = None;
                    for p in &plans {
                        if best.is_none_or(|b| p.est_total_us < b.est_total_us) {
                            best = Some(p);
                        }
                    }
                    let want = best.expect("non-empty sweep");
                    let got = opt.choose_join(&js, sel);
                    assert_eq!(got.label(), want.label(), "sel={sel} max_qd={max_qd}");
                    assert_eq!(got.est_total_us, want.est_total_us);
                }
            }
        }
    }

    #[test]
    fn over_cached_stats_cost_like_fully_cached_ones() {
        // `TableStats` fields are public: a hand-built claim of more cached
        // pages than the table holds must clamp, not underflow.
        let left = stats(30_000, 33, 0, 16_384);
        let right = stats(10_000, 33, 40_000, 16_384);
        let over = |st: &TableStats| TableStats {
            cached_pages: st.pages + 7,
            ..st.clone()
        };
        let full = |st: &TableStats| TableStats {
            cached_pages: st.pages,
            ..st.clone()
        };
        let (left_over, right_over) = (over(&left), over(&right));
        let (left_full, right_full) = (full(&left), full(&right));
        let model = ssd_model();
        let opt = Optimizer::new(&model, capped(32));
        for sel in [0.001, 0.05, 0.5] {
            let got = opt.enumerate_joins(
                &JoinStats {
                    left: &left_over,
                    right: &right_over,
                    key_cardinality: 50_000,
                },
                sel,
            );
            let want = opt.enumerate_joins(
                &JoinStats {
                    left: &left_full,
                    right: &right_full,
                    key_cardinality: 50_000,
                },
                sel,
            );
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert!(got.iter().all(|p| p.est_page_fetches >= 0.0));
        }
    }

    #[test]
    fn hash_wins_on_spindles_inl_wins_on_deep_flash() {
        let left = stats(30_000, 33, 0, 16_384);
        let right = stats(10_000, 33, 40_000, 16_384);
        // Low-selectivity probe workload: few probes, INL's natural home.
        let js = JoinStats {
            left: &left,
            right: &right,
            key_cardinality: 300_000,
        };
        let hdd = hdd_model();
        let ssd = ssd_model();
        assert_eq!(
            pick(&hdd, &js, 0.01, 32).method,
            JoinMethod::HybridHash,
            "random probes on a spindle must lose"
        );
        assert_eq!(
            pick(&ssd, &js, 0.01, 32).method,
            JoinMethod::IndexNestedLoop,
            "deep-queue flash probes must win at low selectivity"
        );
    }

    #[test]
    fn shrinking_lease_flips_inl_to_hash() {
        // The concurrency story: at full depth INL wins on flash; as the
        // admission lease shrinks the probe stream loses its parallelism
        // and the sequential hash join takes over.
        let left = stats(30_000, 33, 0, 16_384);
        let right = stats(10_000, 33, 40_000, 16_384);
        let js = JoinStats {
            left: &left,
            right: &right,
            key_cardinality: 300_000,
        };
        let ssd = ssd_model();
        let sel = 0.02;
        let deep = pick(&ssd, &js, sel, 32);
        let shallow = pick(&ssd, &js, sel, 1);
        assert_eq!(deep.method, JoinMethod::IndexNestedLoop, "{deep:?}");
        assert_eq!(shallow.method, JoinMethod::HybridHash, "{shallow:?}");
    }

    #[test]
    fn selectivity_sweep_crosses_over_on_flash() {
        let left = stats(30_000, 33, 0, 16_384);
        let right = stats(10_000, 33, 40_000, 16_384);
        let js = JoinStats {
            left: &left,
            right: &right,
            key_cardinality: 300_000,
        };
        let ssd = ssd_model();
        let lo = pick(&ssd, &js, 0.001, 32);
        let hi = pick(&ssd, &js, 0.9, 32);
        assert_eq!(lo.method, JoinMethod::IndexNestedLoop);
        assert_eq!(
            hi.method,
            JoinMethod::HybridHash,
            "probing every outer row must lose to a hash"
        );
    }

    #[test]
    fn partition_count_respects_memory() {
        let right_small = stats(100, 33, 0, 16_384);
        let right_big = stats(200_000, 33, 0, 1_000);
        let left = stats(1_000, 33, 300_000, 1_000);
        let js_small = JoinStats {
            left: &left,
            right: &right_small,
            key_cardinality: 1_000,
        };
        let js_big = JoinStats {
            left: &left,
            right: &right_big,
            key_cardinality: 1_000_000,
        };
        assert_eq!(min_feasible_partitions(&js_small), 1);
        assert!(min_feasible_partitions(&js_big) > 1);
    }

    #[test]
    fn lowering_preserves_depth_and_partitions() {
        let left = stats(1_000, 33, 0, 4_096);
        let right = stats(1_000, 33, 2_000, 4_096);
        let js = JoinStats {
            left: &left,
            right: &right,
            key_cardinality: 10_000,
        };
        let plan = pick(&ssd_model(), &js, 0.01, 16);
        match (&plan.method, join_plan_to_spec(&plan)) {
            (JoinMethod::IndexNestedLoop, PlanSpec::Inl(c)) => {
                assert_eq!(c.probe_depth, plan.queue_depth)
            }
            (JoinMethod::HybridHash, PlanSpec::Hash(c)) => {
                assert_eq!(c.partitions, plan.partitions);
                assert_eq!(c.io_depth, plan.queue_depth);
            }
            (m, s) => panic!("method {m:?} lowered to mismatched spec {s:?}"),
        }
    }
}
