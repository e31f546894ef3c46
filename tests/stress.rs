//! Randomized stress: hundreds of queries with random operators (the
//! three scans, index-nested-loop and hybrid hash joins), selectivities,
//! devices, retry policies and pools down to 8 frames. Every round either
//! answers the oracle and leaves the device idle and the pool unpinned, or
//! fails with the one typed error a too-small pool allows — never a panic
//! or a hang.
//!
//! Ignored in the default (debug) test run, where it takes minutes; CI
//! runs it with `cargo test --release --test stress -- --ignored` (about
//! two seconds). One fixed hash-join case beside it runs in every build.

use pioqo::bufpool::BufferPool;
use pioqo::prelude::*;
use pioqo::storage::{range_for_selectivity, Extent};

/// An outer table with its index, plus an inner table, its index and a
/// spill extent for the join plans. Both tables share `c2_max`.
struct Fixture {
    table: HeapTable,
    index: BTreeIndex,
    inner: HeapTable,
    inner_index: BTreeIndex,
    spill: Extent,
    c2_max: u32,
    capacity: u64,
}

fn fixture(rpp: u32, rows: u64, c2_max: u32) -> Fixture {
    let seed = 1000 + rpp as u64;
    let spec = TableSpec {
        c2_max,
        ..TableSpec::paper_table(rpp, rows, seed)
    };
    let inner_spec = TableSpec {
        name: "T_inner".to_string(),
        c2_max,
        ..TableSpec::paper_table(33, rows / 4, seed ^ 0x20)
    };
    let mut ts = Tablespace::new(8 * (spec.n_pages() + inner_spec.n_pages()) + 4_000);
    let table = HeapTable::create(spec, &mut ts).expect("fits");
    let index = BTreeIndex::build("i", table.data().c2_entries(), 4096, &mut ts).expect("fits");
    let inner = HeapTable::create(inner_spec, &mut ts).expect("fits");
    let inner_index =
        BTreeIndex::build("inner_c2", inner.data().c2_entries(), 4096, &mut ts).expect("fits");
    let spill = ts
        .alloc("join_spill", 2 * (table.n_pages() + inner.n_pages()) + 64)
        .expect("fits");
    Fixture {
        table,
        index,
        inner,
        inner_index,
        spill,
        c2_max,
        capacity: ts.capacity(),
    }
}

#[test]
fn hash_spill_rereads_stay_out_of_the_pool_on_both_run_paths() {
    // Spill re-reads are scratch traffic the hash join's window does not
    // admit. A session run and a single query run must agree on that: the
    // loop admits only reads no running query owns.
    let fx = fixture(33, 60_000, 20_000);
    let (lo, hi) = range_for_selectivity(0.05, fx.c2_max);
    let q = QuerySpec::range_max(&fx.table, Some(&fx.index), lo, hi).join(JoinClause {
        right: &fx.inner,
        right_index: Some(&fx.inner_index),
        spill: Some(fx.spill),
    });
    let want = oracle(&q);
    let plan = PlanSpec::Hash(HashJoinConfig {
        partitions: 4,
        ..HashJoinConfig::default()
    });
    let spill_resident = |pool: &BufferPool| {
        (0..fx.spill.pages)
            .filter(|&p| pool.contains(fx.spill.base + p))
            .count()
    };

    let mut dev = presets::consumer_pcie_ssd(fx.capacity, 5);
    let mut pool = BufferPool::new(16_384);
    let mut ctx = SimContext::new(
        &mut dev,
        &mut pool,
        CpuConfig::paper_xeon(),
        CpuCosts::default(),
    );
    let m = execute(&mut ctx, &q.clone().with_plan(plan.clone())).expect("query runs");
    drop(ctx);
    assert_eq!(
        (m.max_c1, m.rows_matched, m.fingerprint),
        (want.agg, want.matched, want.fingerprint)
    );
    assert_eq!(spill_resident(&pool), 0, "execute admitted spill pages");

    let mut dev = presets::consumer_pcie_ssd(fx.capacity, 5);
    let mut pool = BufferPool::new(16_384);
    let spec = WorkloadSpec {
        sessions: 1,
        queries_per_session: 1,
        selectivities: vec![0.05],
        ..WorkloadSpec::default()
    };
    let mut ctx = SimContext::new(
        &mut dev,
        &mut pool,
        CpuConfig::paper_xeon(),
        CpuCosts::default(),
    );
    let report = MultiEngine::new(spec, q, pioqo::exec::FixedPlanner { plan })
        .run(&mut ctx)
        .expect("session runs");
    drop(ctx);
    let r = &report.records[0];
    assert_eq!((r.max_c1, r.rows_matched), (want.agg, want.matched));
    assert_eq!(spill_resident(&pool), 0, "a session admitted spill pages");
}

#[test]
#[ignore = "minutes in debug builds; CI runs it in release with --ignored"]
fn randomized_query_storm() {
    let mut rng = SimRng::seeded(0xBEEF);
    // Varied geometry; the small key domains give the joins real matches.
    let fixtures = [
        fixture(1, 20_000, u32::MAX - 1),
        fixture(33, 60_000, 20_000),
        fixture(120, 120_000, 5_000),
    ];
    let (mut answered, mut exhausted) = (0u32, 0u32);

    for round in 0..300u32 {
        let fx = &fixtures[rng.below(fixtures.len() as u64) as usize];
        let workers = [1u32, 2, 3, 8, 17, 32][rng.below(6) as usize];
        // A third of the rounds hedge: reads outstanding past the timeout
        // are re-issued, so duplicates race the originals.
        let retry = if rng.below(3) == 0 {
            RetryPolicy {
                max_attempts: 3,
                timeout: Some(SimDuration::from_micros_f64(50.0 + rng.unit() * 5_000.0)),
                ..RetryPolicy::default()
            }
        } else {
            RetryPolicy::default()
        };
        // (plan, most pages it can hold pinned at once)
        let (plan, max_pins) = match rng.below(5) {
            0 => (
                PlanSpec::Fts(FtsConfig {
                    workers,
                    prefetch_blocks: rng.below(12) as u32,
                    block_pages: 1 + rng.below(32) as u32,
                    retry,
                }),
                workers,
            ),
            1 => (
                PlanSpec::Is(IsConfig {
                    workers,
                    prefetch_depth: rng.below(16) as u32,
                    retry,
                }),
                workers,
            ),
            2 => (
                PlanSpec::SortedIs(SortedIsConfig {
                    prefetch_depth: 1 + rng.below(48) as u32,
                    leaf_prefetch: 1 + rng.below(16) as u32,
                    retry,
                }),
                1,
            ),
            3 => {
                let probe_depth = 1 + rng.below(32) as u32;
                (
                    PlanSpec::Inl(InlConfig {
                        probe_depth,
                        prefetch_blocks: rng.below(6) as u32,
                        block_pages: 1 + rng.below(32) as u32,
                        retry,
                    }),
                    probe_depth,
                )
            }
            _ => (
                PlanSpec::Hash(HashJoinConfig {
                    partitions: [1u32, 1, 4, 8][rng.below(4) as usize],
                    io_depth: 1 + rng.below(12) as u32,
                    block_pages: 1 + rng.below(32) as u32,
                    retry,
                }),
                0,
            ),
        };
        // Skew toward low selectivity; joins stay selective so the probe
        // count stays in the thousands.
        let sel = rng.unit().powi(3) * if plan.is_join() { 0.05 } else { 1.0 };
        let (lo, hi) = range_for_selectivity(sel, fx.c2_max);
        let mut q = QuerySpec::range_max(&fx.table, Some(&fx.index), lo, hi);
        if plan.is_join() {
            q = q.join(JoinClause {
                right: &fx.inner,
                right_index: Some(&fx.inner_index),
                spill: Some(fx.spill),
            });
        }
        let want = oracle(&q);
        let q = q.with_plan(plan);

        // Pools from 8 frames up, skewed small.
        let frames = [8usize, 8, 12, 16, 24, 32, 64, 256, 1024, 4096][rng.below(10) as usize];
        let mut pool = BufferPool::new(frames);
        let seed = rng.below(1 << 32);
        let mut device: Box<dyn DeviceModel> = match rng.below(3) {
            0 => Box::new(presets::hdd_7200(fx.capacity, seed)),
            1 => Box::new(presets::consumer_pcie_ssd(fx.capacity, seed)),
            _ => Box::new(presets::raid_15k(4, fx.capacity, seed)),
        };
        let mut ctx = SimContext::new(
            &mut *device,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let label = format!("round {round} ({}, {frames} frames)", q.plan.label());
        let metrics = match execute(&mut ctx, &q) {
            Ok(m) => m,
            // Every frame pinned: only possible when the pool is no larger
            // than the plan's concurrent pins.
            Err(ExecError::PoolExhausted) => {
                assert!(frames <= max_pins as usize, "{label}: spurious exhaustion");
                exhausted += 1;
                continue;
            }
            Err(e) => panic!("{label}: {e}"),
        };
        drop(ctx);
        answered += 1;

        assert_eq!(metrics.max_c1, want.agg, "{label}: aggregate");
        assert_eq!(metrics.rows_matched, want.matched, "{label}: rows matched");
        assert_eq!(
            metrics.fingerprint, want.fingerprint,
            "{label}: fingerprint"
        );
        assert!(
            metrics.runtime > SimDuration::ZERO || metrics.rows_matched == 0,
            "{label}: zero runtime with work done"
        );
        // Hedged duplicates are never cancelled, so a short timeout lets
        // them pile up at the device: the depth bound holds unhedged only.
        if !q.plan.is_join() && q.plan.retry().timeout.is_none() {
            let bound = (workers as f64 + 1.0) * 49.0;
            assert!(
                metrics.io.peak_queue_depth <= bound,
                "{label}: absurd queue depth {}",
                metrics.io.peak_queue_depth
            );
        }
        assert_eq!(device.outstanding(), 0, "{label}: device left busy");
        pool.flush_all(); // panics on a frame left pinned
    }
    assert!(answered >= 250, "only {answered} of 300 rounds answered");
    assert!(exhausted > 0, "no round hit the small-pool error path");
}
