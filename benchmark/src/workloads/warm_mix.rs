//! `warm_mix` — the fits-in-cache counterpart of `cold_grid`: one SSD
//! `SimContext`, everything resident, a seeded sequence of queries through
//! `execute`. The pool hit path, B+-tree descent, `RowEval`, the CPU
//! scheduler and the event queue dominate; the device model barely shows.

use super::{latency_metrics, paper_context, sub_seed, TracedPass, Workload};
use crate::report::{Failure, Values};
use crate::runner::PassRecorder;
use crate::timing::{median, tail_rank, timed, timed_normalised};
use crate::trace::{on_pass, traced_execute, Layer, PoolCounts, ScanOutcome};
use pioqo_bufpool::BufferPool;
use pioqo_device::{presets, DeviceModel};
use pioqo_exec::{
    execute, oracle, Aggregate, CmpOp, Col, FtsConfig, HashJoinConfig, InlConfig, IsConfig,
    JoinClause, PlanSpec, Predicate, QuerySpec, SortedIsConfig,
};
use pioqo_obs::MetricsRegistry;
use pioqo_simkit::{SimDuration, SimRng};
use pioqo_storage::{BTreeIndex, Extent, HeapTable, TableSpec, Tablespace};

/// T33 with 330 K rows: 10 000 table pages + ~1 000 index pages.
const ROWS: u64 = 330_000;
/// The inner join table.
const RIGHT_ROWS: u64 = 40_000;
/// Everything fits: 10 000 + ~1 000 + 1 213 + ~130 pages < 16 384 frames.
const POOL_FRAMES: usize = 16_384;
/// `C2` key domain of both tables, so the equi-join finds partners
/// (~3.3 outer and ~0.4 inner rows per key).
const KEY_MAX: u32 = 99_999;
/// Queries per pass; 1 200 puts 12 samples beyond p99.
const QUERIES: usize = 1_200;
/// Queries of the `obs.metrics_on_ratio` slice.
const METRICS_SLICE: usize = 100;

/// One query of the sequence (the `QuerySpec` minus its borrows).
struct QueryDesc {
    kind: &'static str,
    plan: PlanSpec,
    predicate: Predicate,
    project: Option<Vec<Col>>,
    aggregate: Aggregate,
    join: bool,
}

/// Everything `warm_mix` builds in set-up.
pub struct Fixture {
    table: HeapTable,
    index: BTreeIndex,
    right: HeapTable,
    right_index: BTreeIndex,
    spill: Extent,
    capacity: u64,
    device_seed: u64,
    queries: Vec<QueryDesc>,
    storage_build_s: f64,
}

impl Fixture {
    fn spec<'a>(&'a self, q: &QueryDesc) -> QuerySpec<'a> {
        let mut spec = QuerySpec::scan(&self.table)
            .with_index(&self.index)
            .filter(q.predicate.clone())
            .aggregate(q.aggregate)
            .with_plan(q.plan.clone());
        if let Some(cols) = &q.project {
            spec = spec.project(cols.clone());
        }
        if q.join {
            spec = spec.join(JoinClause {
                right: &self.right,
                right_index: Some(&self.right_index),
                spill: Some(self.spill),
            });
        }
        spec
    }

    fn device(&self) -> impl DeviceModel {
        presets::consumer_pcie_ssd(self.capacity, self.device_seed)
    }

    /// A pool with every table and index page resident (the warm-up; the
    /// pool cannot be cloned, so every pass warms its own, untimed).
    fn warm_pool(&self) -> BufferPool {
        let mut pool = BufferPool::new(POOL_FRAMES);
        for extent in [
            self.table.extent(),
            self.index.extent(),
            self.right.extent(),
            self.right_index.extent(),
        ] {
            for p in extent.base..extent.end() {
                pool.admit_prefetched(p)
                    .expect("sizing: every extent fits the pool");
            }
        }
        pool
    }
}

/// A `C2` window of `width` keys at a seeded offset.
fn window(rng: &mut SimRng, width: u32) -> Predicate {
    let low = rng.below(u64::from(KEY_MAX - width)) as u32;
    Predicate::c2_between(low, low + width - 1)
}

/// A residual term on the unindexed column keeping ~`keep` of the rows.
fn c1_below(keep: f64) -> Predicate {
    Predicate::Cmp {
        col: Col::C1,
        op: CmpOp::Lt,
        value: (keep * f64::from(u32::MAX)) as u32,
    }
}

fn keys(sel: f64) -> u32 {
    ((sel * f64::from(KEY_MAX + 1)) as u32).max(1)
}

/// The query kinds with their share of the sequence (parts of 100) and
/// their selectivity range.
const MIX: [(&str, usize, f64, f64); 9] = [
    // Predicate trees with projection + fingerprint on FTS.
    ("fts", 12, 0.05, 0.3),
    ("pfts8", 8, 0.02, 0.1),
    // Index plans on narrow ranges.
    ("is", 16, 0.0002, 0.002),
    ("pis8pf4", 14, 0.002, 0.01),
    ("pis32", 12, 0.005, 0.02),
    ("sorted_is", 12, 0.002, 0.02),
    ("count", 8, 0.001, 0.01),
    // Joins: probes want depth; the hash spill is the only device
    // traffic of the whole workload.
    ("inl", 9, 0.001, 0.004),
    ("hash", 9, 0.01, 0.05),
];

fn describe(kind: &'static str, sel: f64, rng: &mut SimRng) -> QueryDesc {
    let max = Aggregate::Max(Col::C1);
    let w = keys(sel);
    let (plan, predicate, project, aggregate, join) = match kind {
        "fts" => (
            PlanSpec::Fts(FtsConfig::default()),
            Predicate::And(vec![window(rng, w), c1_below(0.5)]),
            Some(vec![Col::C1]),
            max,
            false,
        ),
        "pfts8" => (
            PlanSpec::Fts(FtsConfig {
                workers: 8,
                ..FtsConfig::default()
            }),
            Predicate::Or(vec![
                window(rng, w),
                Predicate::And(vec![window(rng, w), c1_below(0.25)]),
            ]),
            None,
            max,
            false,
        ),
        "is" => (
            PlanSpec::Is(IsConfig::default()),
            window(rng, w),
            None,
            max,
            false,
        ),
        "pis8pf4" => (
            PlanSpec::Is(IsConfig {
                workers: 8,
                prefetch_depth: 4,
                ..IsConfig::default()
            }),
            Predicate::And(vec![window(rng, w), c1_below(0.5)]),
            Some(vec![Col::C2, Col::C1]),
            max,
            false,
        ),
        "pis32" => (
            PlanSpec::Is(IsConfig {
                workers: 32,
                ..IsConfig::default()
            }),
            window(rng, w),
            None,
            max,
            false,
        ),
        "sorted_is" => (
            PlanSpec::SortedIs(SortedIsConfig::default()),
            window(rng, w),
            None,
            max,
            false,
        ),
        "count" => (
            PlanSpec::Is(IsConfig {
                workers: 8,
                ..IsConfig::default()
            }),
            window(rng, w),
            None,
            Aggregate::Count,
            false,
        ),
        "inl" => (
            PlanSpec::Inl(InlConfig::default()),
            window(rng, w),
            None,
            max,
            true,
        ),
        _ => (
            PlanSpec::Hash(HashJoinConfig::default()),
            window(rng, w),
            None,
            max,
            true,
        ),
    };
    QueryDesc {
        kind,
        plan,
        predicate,
        project,
        aggregate,
        join,
    }
}

/// The seeded query sequence. Its *composition* is fixed — every kind gets
/// its share of `n`, with selectivities on a geometric ladder across the
/// kind's range — so the work and the latency distribution do not depend
/// on the luck of the draw; the seed decides the order of the queries and
/// where in the key domain each window sits.
fn sequence(seed: u64, n: usize) -> Vec<QueryDesc> {
    let mut rng = SimRng::seeded(seed);
    let mut slots: Vec<(&'static str, f64)> = Vec::with_capacity(n);
    for &(kind, share, lo, hi) in &MIX {
        let count = n * share / 100;
        for j in 0..count {
            let t = (j as f64 + 0.5) / count as f64;
            slots.push((kind, lo * (hi / lo).powf(t)));
        }
    }
    // Fisher-Yates with the seeded generator.
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i as u64 + 1) as usize);
    }
    slots
        .into_iter()
        .map(|(kind, sel)| describe(kind, sel, &mut rng))
        .collect()
}

/// The workload.
pub struct WarmMix;

impl Workload for WarmMix {
    type Fixture = Fixture;
    type Outcome = ScanOutcome;
    const NAME: &'static str = "warm_mix";
    const WHY: &'static str = "all fits the pool: 1200 seeded queries (predicate trees, index ranges, COUNT, INL and hash joins) on one warm SSD context; pool hit path, B+-tree, RowEval, CPU scheduler, event queue; device ~idle";
    const NOMINAL_PASS_S: f64 = 4.4;
    const SETUP_REPS: usize = 21;

    fn setup(seed: u64, quick: bool) -> Fixture {
        let ((table, index, right, right_index, spill, capacity), build_ns) = timed(|| {
            let spec = TableSpec {
                c2_max: KEY_MAX,
                ..TableSpec::paper_table(33, ROWS, sub_seed(seed, 0x201))
            };
            let rspec = TableSpec {
                name: "T33_inner".to_string(),
                c2_max: KEY_MAX,
                ..TableSpec::paper_table(33, RIGHT_ROWS, sub_seed(seed, 0x202))
            };
            let mut ts = Tablespace::new(4 * (spec.n_pages() + rspec.n_pages()) + 4_096);
            let table = HeapTable::create(spec, &mut ts).expect("tablespace sized to fit");
            let index = BTreeIndex::build(
                "outer_c2",
                table.data().c2_entries(),
                table.spec().page_size,
                &mut ts,
            )
            .expect("tablespace sized to fit");
            let right = HeapTable::create(rspec, &mut ts).expect("tablespace sized to fit");
            let right_index = BTreeIndex::build(
                "inner_c2",
                right.data().c2_entries(),
                right.spec().page_size,
                &mut ts,
            )
            .expect("tablespace sized to fit");
            let spill = ts
                .alloc("join_spill", 2 * (table.n_pages() + right.n_pages()) + 64)
                .expect("tablespace sized to fit");
            let capacity = ts.capacity();
            (table, index, right, right_index, spill, capacity)
        });
        let n = if quick { QUERIES / 10 } else { QUERIES };
        let fx = Fixture {
            table,
            index,
            right,
            right_index,
            spill,
            capacity,
            device_seed: sub_seed(seed, 0x203),
            queries: sequence(sub_seed(seed, 0x204), n),
            storage_build_s: build_ns as f64 / 1e9,
        };
        // Sizing assertion: the workload is defined by "everything fits".
        let resident =
            fx.table.n_pages() + fx.index.n_pages() + fx.right.n_pages() + fx.right_index.n_pages();
        assert!(
            (resident as usize) < POOL_FRAMES,
            "{resident} pages must fit the {POOL_FRAMES}-frame pool"
        );
        // The warm-up itself is set-up work.
        drop(fx.warm_pool());
        fx
    }

    fn storage_build_s(fx: &Fixture) -> f64 {
        fx.storage_build_s
    }

    fn pass(fx: &Fixture, rec: &mut PassRecorder<ScanOutcome>) {
        let tracer = rec.tracer().cloned();
        let mut pool = fx.warm_pool();
        let mut device = on_pass(Box::new(fx.device()), tracer.as_ref());
        let mut ctx = paper_context(&mut *device, &mut pool);
        for (i, q) in fx.queries.iter().enumerate() {
            let spec = fx.spec(q);
            rec.op(format!("q{i:04}:{}", q.kind), || match &tracer {
                None => ScanOutcome::from_result(execute(&mut ctx, &spec)),
                Some(tr) => traced_execute(&mut ctx, &spec, tr),
            });
        }
    }

    fn check(fx: &Fixture, outcomes: &[ScanOutcome]) -> Vec<Failure> {
        let mut failures = Vec::new();
        if outcomes.len() != fx.queries.len() {
            failures.push(Failure {
                op: 0,
                reason: format!("{} ops ran, {} expected", outcomes.len(), fx.queries.len()),
            });
            return failures;
        }
        for (op, (q, o)) in fx.queries.iter().zip(outcomes).enumerate() {
            if o.error.is_some() {
                continue; // already failed by the runner
            }
            let want = oracle(&fx.spec(q));
            let got = &o.answer;
            if got.max_c1 != want.agg
                || got.rows_matched != want.matched
                || got.fingerprint != want.fingerprint
            {
                failures.push(Failure {
                    op,
                    reason: format!(
                        "{}: answer ({:?}, {} rows, fp {:x}) != oracle ({:?}, {} rows, fp {:x})",
                        q.kind,
                        got.max_c1,
                        got.rows_matched,
                        got.fingerprint,
                        want.agg,
                        want.matched,
                        want.fingerprint
                    ),
                });
            }
        }
        failures
    }

    fn end_to_end(_fx: &Fixture, outcomes: &[ScanOutcome], v: &mut Values) {
        let total_s: f64 = outcomes.iter().map(ScanOutcome::runtime_s).sum();
        v.insert("sim_time_s", total_s);
        let ms: Vec<f64> = outcomes.iter().map(|o| o.runtime_s() * 1e3).collect();
        latency_metrics(&ms, v);
        v.insert("sim_qps", outcomes.len() as f64 / total_s);
        // Plans are fixed by the mix and nothing commits; see
        // report::END_TO_END on neutral cells.
        for name in ["plan_regret", "qdtt_gain", "cost_err", "sim_commits_per_s"] {
            v.insert(name, 1.0);
        }
    }

    fn per_layer(fx: &Fixture, t: &TracedPass<'_, ScanOutcome>, v: &mut Values) {
        let outcomes = &t.untraced.outcomes;
        let mut pool = PoolCounts::default();
        for o in outcomes {
            pool.add(&o.pool);
        }
        super::pool_metrics(&pool, v);
        // The context's I/O profile is cumulative, so an op's device pages
        // are the step from the op before it.
        let moved = |o: &ScanOutcome| o.pages_read + o.pages_written;
        let before = std::iter::once(0).chain(outcomes.iter().map(moved));
        super::driver_page_metrics(
            fx.queries
                .iter()
                .zip(outcomes.iter().zip(before))
                .map(|(q, (o, before))| {
                    let layer = Layer::of_plan(&q.plan);
                    let pages = match layer {
                        Layer::DriverHash => moved(o) - before,
                        _ => o.pool.hits + o.pool.misses,
                    };
                    (layer, pages)
                }),
            t,
            v,
        );
        v.insert("obs.metrics_on_ratio", metrics_on_ratio(fx));
    }

    fn notes(fx: &Fixture, outcomes: &[ScanOutcome]) -> Vec<String> {
        let (_, pct) = tail_rank(outcomes.len());
        let mut by_kind: std::collections::BTreeMap<&str, (u64, f64)> = Default::default();
        for (q, o) in fx.queries.iter().zip(outcomes) {
            let e = by_kind.entry(q.kind).or_default();
            e.0 += 1;
            e.1 += o.runtime_s();
        }
        let mix: Vec<String> = by_kind
            .iter()
            .map(|(k, (n, s))| format!("{k} x{n} ({s:.3} sim_s)"))
            .collect();
        // The context's I/O profile is cumulative; the last query has it all.
        let (read, written) = outcomes
            .last()
            .map_or((0, 0), |o| (o.pages_read, o.pages_written));
        vec![
            format!(
                "sim_p50_ms/sim_p99_ms over {} per-query latencies (tail is p{pct:.1})",
                outcomes.len()
            ),
            format!("mix: {}", mix.join(", ")),
            format!("device traffic: {read} pages read, {written} pages written (hash-join spill)"),
        ]
    }
}

/// The first `METRICS_SLICE` queries with an enabled `MetricsRegistry`
/// riding the context vs none, interleaved with the starting mode
/// alternated, as the ratio of the per-mode medians (normalised like
/// every host time).
fn metrics_on_ratio(fx: &Fixture) -> f64 {
    let slice = &fx.queries[..METRICS_SLICE.min(fx.queries.len())];
    let run = |with_registry: bool| -> f64 {
        let mut pool = fx.warm_pool();
        let mut device = fx.device();
        let mut registry = MetricsRegistry::enabled(SimDuration::from_millis(1));
        let mut ctx = paper_context(&mut device, &mut pool);
        if with_registry {
            ctx.set_metrics(&mut registry);
        }
        let ((), _, ns) = timed_normalised(|| {
            for q in slice {
                std::hint::black_box(execute(&mut ctx, &fx.spec(q)).is_ok());
            }
        });
        ns
    };
    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for cycle in 0..3 {
        for slot in 0..2 {
            let on = (cycle + slot) % 2 == 1;
            times[usize::from(on)].push(run(on));
        }
    }
    median(&times[1]) / median(&times[0])
}
