//! Chaos property suite: scans under injected faults, tail latency and
//! degraded RAID must either return the exact fault-free answer or a clean
//! typed error — never a wrong answer, a hang, or a nondeterministic run.
//!
//! The fault seed is taken from `CHAOS_SEED` (default 11) so CI can sweep
//! distinct fault universes; within one seed every assertion is exact.

use pioqo::bufpool::BufferPool;
use pioqo::prelude::*;

/// The seed for this process's fault universe (CI runs several).
fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => s.parse().expect("CHAOS_SEED must be an integer"),
        Err(_) => 11,
    }
}

struct Fixture {
    table: HeapTable,
    index: BTreeIndex,
    capacity: u64,
}

fn fixture(rows: u64, rpp: u32) -> Fixture {
    let spec = TableSpec::paper_table(rpp, rows, 4242);
    let mut ts = Tablespace::new(4 * spec.n_pages() + 2000);
    let table = HeapTable::create(spec, &mut ts).expect("fits");
    let index = BTreeIndex::build("c2", table.data().c2_entries(), 4096, &mut ts).expect("fits");
    let capacity = ts.capacity();
    Fixture {
        table,
        index,
        capacity,
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Fts { workers: u32 },
    Is { workers: u32 },
    SortedIs,
}

const OPS: [Op; 5] = [
    Op::Fts { workers: 1 },
    Op::Fts { workers: 4 },
    Op::Is { workers: 1 },
    Op::Is { workers: 4 },
    Op::SortedIs,
];

fn run_op(
    fx: &Fixture,
    op: Op,
    device: &mut dyn DeviceModel,
    frames: usize,
    sel: f64,
    retry: RetryPolicy,
) -> Result<ScanMetrics, ExecError> {
    let mut pool = BufferPool::new(frames);
    let (lo, hi) = pioqo::storage::range_for_selectivity(sel, u32::MAX - 1);
    let plan = match op {
        Op::Fts { workers } => PlanSpec::Fts(FtsConfig {
            workers,
            retry,
            ..FtsConfig::default()
        }),
        Op::Is { workers } => PlanSpec::Is(IsConfig {
            workers,
            prefetch_depth: 4,
            retry,
        }),
        Op::SortedIs => PlanSpec::SortedIs(SortedIsConfig {
            retry,
            ..SortedIsConfig::default()
        }),
    };
    let q = QuerySpec::range_max(&fx.table, Some(&fx.index), lo, hi).with_plan(plan);
    let mut ctx = SimContext::new(
        device,
        &mut pool,
        CpuConfig::paper_xeon(),
        CpuCosts::default(),
    );
    execute(&mut ctx, &q)
}

fn plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::None),
        ("every-97th", FaultPlan::EveryNth(97)),
        ("random-2pct", FaultPlan::Random { p: 0.02, seed }),
        (
            "transient-20pct",
            FaultPlan::Transient {
                p: 0.2,
                attempts: 2,
                seed,
            },
        ),
    ]
}

/// Every fault plan × operator combination must produce the exact fault-free
/// answer or a typed I/O error — and must terminate.
#[test]
fn fault_sweep_exact_answer_or_typed_error() {
    let seed = chaos_seed();
    let fx = fixture(20_000, 33);
    let sel = 0.08;
    let (lo, hi) = pioqo::storage::range_for_selectivity(sel, u32::MAX - 1);
    let want_max = fx.table.data().naive_max_c1(lo, hi);
    let want_rows = fx.table.data().count_matching(lo, hi);

    for (plan_name, plan) in plans(seed) {
        for op in OPS {
            let inner = presets::consumer_pcie_ssd(fx.capacity, seed ^ 1);
            let mut dev = Faulty::new(inner, plan.clone());
            let r = run_op(&fx, op, &mut dev, 1024, sel, RetryPolicy::attempts(4));
            match r {
                Ok(m) => {
                    assert_eq!(
                        m.max_c1, want_max,
                        "{plan_name}/{op:?}: wrong MAX under faults"
                    );
                    assert_eq!(
                        m.rows_matched, want_rows,
                        "{plan_name}/{op:?}: wrong row count under faults"
                    );
                }
                Err(
                    ExecError::Io { .. } | ExecError::IoExhausted { .. } | ExecError::PoolExhausted,
                ) => {}
                Err(other) => panic!("{plan_name}/{op:?}: untyped failure {other}"),
            }
        }
    }
}

/// Transient faults (heal after k attempts) must be fully absorbed by the
/// retry policy: the scan succeeds, and the retry counter proves the faults
/// actually fired.
#[test]
fn transient_faults_heal_under_retry() {
    let seed = chaos_seed();
    let fx = fixture(20_000, 33);
    let (lo, hi) = pioqo::storage::range_for_selectivity(0.1, u32::MAX - 1);
    let inner = presets::consumer_pcie_ssd(fx.capacity, seed);
    let mut dev = Faulty::new(
        inner,
        FaultPlan::Transient {
            p: 0.25,
            attempts: 2,
            seed,
        },
    );
    let m = run_op(
        &fx,
        Op::Fts { workers: 4 },
        &mut dev,
        1024,
        0.1,
        RetryPolicy::attempts(4),
    )
    .expect("transient faults heal inside the retry budget");
    assert_eq!(m.max_c1, fx.table.data().naive_max_c1(lo, hi));
    assert_eq!(m.rows_matched, fx.table.data().count_matching(lo, hi));
    assert!(
        m.resilience.retries > 0,
        "the plan must actually have injected faults"
    );
}

/// A RAID array with a failed spindle still answers every query exactly,
/// reports its reconstruction reads, and is measurably slower than the
/// healthy array.
#[test]
fn degraded_raid_scan_is_exact_and_slower() {
    let seed = chaos_seed();
    let fx = fixture(20_000, 33);
    let (lo, hi) = pioqo::storage::range_for_selectivity(0.2, u32::MAX - 1);

    let mut healthy = presets::raid_15k(8, fx.capacity, seed);
    let hm = run_op(
        &fx,
        Op::Is { workers: 4 },
        &mut healthy,
        2048,
        0.2,
        RetryPolicy::default(),
    )
    .expect("healthy raid scan runs");

    let mut degraded = presets::raid_15k(8, fx.capacity, seed);
    degraded.set_degraded(Some(2));
    let dm = run_op(
        &fx,
        Op::Is { workers: 4 },
        &mut degraded,
        2048,
        0.2,
        RetryPolicy::default(),
    )
    .expect("degraded raid scan runs");

    assert_eq!(dm.max_c1, fx.table.data().naive_max_c1(lo, hi));
    assert_eq!(dm.rows_matched, fx.table.data().count_matching(lo, hi));
    assert_eq!(dm.max_c1, hm.max_c1);
    assert!(
        dm.resilience.degraded_reads > 0,
        "reads on the failed spindle must be reconstructed"
    );
    assert_eq!(hm.resilience.degraded_reads, 0);
    assert!(
        dm.runtime > hm.runtime,
        "reconstruction must cost time: healthy {} vs degraded {}",
        hm.runtime,
        dm.runtime
    );
}

/// The whole fault machinery is deterministic: a faulty, tail-latency,
/// retrying run serialized twice is byte-identical (including the
/// resilience counters).
#[test]
fn chaos_runs_are_byte_identical() {
    let seed = chaos_seed();
    let run = || {
        let fx = fixture(20_000, 33);
        let mut parts = Vec::new();
        for op in OPS {
            let inner = presets::consumer_pcie_ssd(fx.capacity, seed ^ 3);
            let mut dev = Faulty::new(
                inner,
                FaultPlan::Transient {
                    p: 0.15,
                    attempts: 1,
                    seed,
                },
            )
            .with_tail_latency(0.1, 4.0, seed ^ 5);
            let r = run_op(&fx, op, &mut dev, 1024, 0.07, RetryPolicy::attempts(3));
            parts.push(match r {
                Ok(m) => serde_json::to_string(&m).expect("metrics serialize"),
                Err(e) => format!("error: {e}"),
            });
        }
        parts.join("\n")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "chaos run must be byte-identical under one seed");
}

/// Tail-latency injection slows a scan down but never changes its answer.
#[test]
fn tail_latency_slows_but_does_not_corrupt() {
    let seed = chaos_seed();
    let fx = fixture(20_000, 33);
    let (lo, hi) = pioqo::storage::range_for_selectivity(0.1, u32::MAX - 1);

    let inner = presets::consumer_pcie_ssd(fx.capacity, seed);
    let mut clean = Faulty::new(inner, FaultPlan::None);
    let cm = run_op(
        &fx,
        Op::SortedIs,
        &mut clean,
        1024,
        0.1,
        RetryPolicy::default(),
    )
    .expect("clean scan runs");

    let inner = presets::consumer_pcie_ssd(fx.capacity, seed);
    let mut slow = Faulty::new(inner, FaultPlan::None).with_tail_latency(0.2, 8.0, seed ^ 9);
    let sm = run_op(
        &fx,
        Op::SortedIs,
        &mut slow,
        1024,
        0.1,
        RetryPolicy::default(),
    )
    .expect("tail-latency scan runs");

    assert_eq!(sm.max_c1, fx.table.data().naive_max_c1(lo, hi));
    assert_eq!(sm.rows_matched, fx.table.data().count_matching(lo, hi));
    assert_eq!(sm.max_c1, cm.max_c1);
    assert!(
        sm.runtime > cm.runtime,
        "stretching 20% of completions 8x must cost time: {} vs {}",
        cm.runtime,
        sm.runtime
    );
}

/// Every operator surfaces `PoolExhausted` (not a panic, not a wrong
/// answer) when the buffer pool has no evictable frame left.
#[test]
fn pinned_out_pool_surfaces_typed_error() {
    let fx = fixture(20_000, 33);
    for op in OPS {
        let mut dev = presets::consumer_pcie_ssd(fx.capacity, 1);
        // A pool whose every frame is pinned by pages outside the scan's
        // working set: the first admission has nothing to evict.
        let frames = 8;
        let mut pool = BufferPool::new(frames);
        for i in 0..frames as u64 {
            pool.admit(fx.capacity - 1 - i).expect("fresh pool admits");
        }
        let (lo, hi) = pioqo::storage::range_for_selectivity(0.1, u32::MAX - 1);
        let plan = match op {
            Op::Fts { workers } => PlanSpec::Fts(FtsConfig {
                workers,
                ..FtsConfig::default()
            }),
            Op::Is { workers } => PlanSpec::Is(IsConfig {
                workers,
                ..IsConfig::default()
            }),
            Op::SortedIs => PlanSpec::SortedIs(SortedIsConfig::default()),
        };
        let q = QuerySpec::range_max(&fx.table, Some(&fx.index), lo, hi).with_plan(plan);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let r = execute(&mut ctx, &q);
        assert!(
            matches!(r, Err(ExecError::PoolExhausted)),
            "{op:?}: expected PoolExhausted, got {r:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Crash / recovery properties: the crash-consistent write path.
// ---------------------------------------------------------------------------

use pioqo::storage::{decode_heap_page, Extent};
use std::collections::BTreeMap;

struct WriteFixture {
    table: HeapTable,
    wal: Extent,
    capacity: u64,
}

fn write_fixture() -> WriteFixture {
    let spec = TableSpec::paper_table(33, 3_000, 77);
    let mut ts = Tablespace::new(spec.n_pages() + 600);
    let table = HeapTable::create(spec, &mut ts).expect("fits");
    let wal = ts.alloc("wal", 512).expect("fits");
    let capacity = ts.capacity();
    WriteFixture {
        table,
        wal,
        capacity,
    }
}

/// Media pre-populated with the full table (the database files exist before
/// the workload), optionally with a RAID-style shadow mirror.
fn base_media(fx: &WriteFixture, redundant: bool) -> MediaStore {
    let mut m = MediaStore::new(fx.table.spec().page_size);
    if redundant {
        m = m.with_redundancy();
    }
    for local in 0..fx.table.n_pages() {
        m.write(fx.table.device_page(local), &fx.table.page_image(local));
    }
    m
}

fn write_cfg(seed: u64) -> WriteConfig {
    // Busier than the defaults so crash instants routinely land on
    // in-flight WAL and data-page writes.
    WriteConfig {
        writers: 4,
        commits_per_writer: 10,
        think: SimDuration::from_micros_f64(300.0),
        group_commit: SimDuration::from_micros_f64(150.0),
        flush_interval: SimDuration::from_micros_f64(500.0),
        flush_batch: 8,
        seed,
        ..WriteConfig::default()
    }
}

/// Crash-free run: returns the finished write system and the virtual end
/// time (the sweep places its crash points strictly inside this window).
fn crash_free_run(fx: &WriteFixture, seed: u64, redundant: bool) -> (WriteSystem, SimDuration) {
    let mut dev = presets::consumer_pcie_ssd(fx.capacity, seed ^ 0xD);
    let mut pool = pioqo::bufpool::BufferPool::new(256);
    let mut ctx = SimContext::new(
        &mut dev,
        &mut pool,
        CpuConfig::paper_xeon(),
        CpuCosts::default(),
    );
    let mut ws = WriteSystem::new(
        write_cfg(seed),
        &fx.table,
        fx.wal,
        base_media(fx, redundant),
    );
    drive_writes(&mut ctx, &mut ws).expect("crash-free run completes");
    let end = ctx.now().since(SimTime::ZERO);
    (ws, end)
}

/// Run the identical workload on the identical device, crashing at `at`.
/// Returns the write system holding the post-crash media.
fn crashed_run(fx: &WriteFixture, seed: u64, redundant: bool, at: SimTime) -> WriteSystem {
    let inner = presets::consumer_pcie_ssd(fx.capacity, seed ^ 0xD);
    let mut dev = Crashable::new(inner, CrashPlan::at(at, seed ^ 0xC1));
    let mut pool = pioqo::bufpool::BufferPool::new(256);
    let mut ws = {
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let mut ws = WriteSystem::new(
            write_cfg(seed),
            &fx.table,
            fx.wal,
            base_media(fx, redundant),
        );
        let r = drive_writes(&mut ctx, &mut ws);
        assert!(
            matches!(r, Err(ExecError::Crashed)),
            "crash inside the workload window must surface as Crashed, got {r:?}"
        );
        ws
    };
    let report = dev.crash_report().expect("crashed device has a report");
    ws.apply_crash(report, seed ^ 0xC1);
    ws
}

/// The independent oracle: apply the durable WAL prefix with a fresh
/// interpreter (no shared code with `recover`'s replay loop beyond the
/// codec). Pages it never mentions keep the generated table data.
fn oracle_rows(fx: &WriteFixture, scan: &WalScan) -> BTreeMap<u64, Vec<(u32, u32)>> {
    let spec = fx.table.spec();
    let mut rows: BTreeMap<u64, Vec<(u32, u32)>> = BTreeMap::new();
    for rec in &scan.records {
        match &rec.op {
            WalOp::PageImage { page, image } => {
                let p = decode_heap_page(spec, image).expect("logged image decodes");
                rows.insert(*page, p.rows);
            }
            WalOp::Update { page, slot, value } => {
                rows.get_mut(page).expect("first touch logs a full image")[*slot as usize].0 =
                    *value;
            }
            WalOp::Checkpoint { .. } => {}
        }
    }
    rows
}

fn scan_wal(fx: &WriteFixture, media: &MediaStore) -> WalScan {
    Wal::scan(fx.wal.base, fx.wal.pages, fx.table.spec().page_size, |p| {
        media.read(p).map(<[u8]>::to_vec)
    })
}

/// One crash point, end to end. Returns a deterministic summary line, the
/// recovery stats, and the count of media pages the crash damaged (torn
/// WAL segments included — those only truncate the durable prefix and so
/// never show up in `torn_pages_detected`).
fn crash_point_case(
    fx: &WriteFixture,
    seed: u64,
    redundant: bool,
    at: SimTime,
) -> (String, RecoveryStats, u64) {
    let ws = crashed_run(fx, seed, redundant, at);
    let acked = ws.acked_lsns().to_vec();
    let mut media = ws.into_media();
    let damaged = media.damaged();

    let pre = scan_wal(fx, &media);
    let oracle = oracle_rows(fx, &pre);
    // Durability: every acknowledged commit lies inside the durable prefix.
    for lsn in &acked {
        assert!(
            *lsn <= pre.durable_lsn,
            "acked lsn {lsn} past durable horizon {} (crash at {at})",
            pre.durable_lsn
        );
    }

    let stats = recover(&mut media, fx.wal, fx.table.spec(), fx.table.extent());
    assert!(
        stats.fully_recovered(),
        "crash-torn pages are always WAL-covered; nothing may be unrecoverable: {stats:?}"
    );
    assert_eq!(stats.durable_lsn, pre.durable_lsn);

    // Byte identity against the oracle: every updated page equals the
    // oracle's replayed image, every untouched page equals the generated
    // table image. No silent corruption, anywhere.
    let spec = fx.table.spec();
    for local in 0..fx.table.n_pages() {
        let dp = fx.table.device_page(local);
        let got = media
            .read(dp)
            .unwrap_or_else(|| panic!("table page {dp} missing after recovery"));
        match oracle.get(&dp) {
            Some(rows) => {
                let want = pioqo::storage::encode_heap_page(spec, local, rows);
                assert_eq!(
                    got,
                    &want[..],
                    "page {dp} diverges from the durable-prefix oracle (crash at {at})"
                );
            }
            None => {
                assert_eq!(
                    got,
                    &fx.table.page_image(local)[..],
                    "untouched page {dp} changed across crash+recovery (crash at {at})"
                );
            }
        }
    }
    let line = format!(
        "seed={seed} redundant={redundant} at={at} durable={} records={} replayed={} torn={} damaged={damaged} acked={}",
        stats.durable_lsn,
        stats.wal_records,
        stats.pages_replayed,
        stats.torn_pages_detected,
        acked.len(),
    );
    (line, stats, damaged)
}

/// The tentpole property: at every injected crash point, every seed, both
/// media variants, the recovered database is byte-identical to the
/// durable-prefix oracle — and acked commits are always durable.
#[test]
fn crash_sweep_recovers_to_oracle_at_every_point() {
    const CRASH_POINTS: u64 = 4;
    let fx = write_fixture();
    let sweep = || {
        let mut lines = Vec::new();
        let mut damage_total = 0u64;
        for seed in [chaos_seed(), chaos_seed() ^ 0xBEEF] {
            for redundant in [false, true] {
                let (_, end) = crash_free_run(&fx, seed, redundant);
                for i in 1..=CRASH_POINTS {
                    let at = SimTime::ZERO + end * (i as f64 / (CRASH_POINTS + 1) as f64);
                    let (line, _, damaged) = crash_point_case(&fx, seed, redundant, at);
                    damage_total += damaged;
                    lines.push(line);
                }
            }
        }
        (lines.join("\n"), damage_total)
    };
    let (a, damage) = sweep();
    assert!(
        damage > 0,
        "the sweep must damage at least one in-flight write (torn WAL segment or data page)"
    );
    // The whole sweep — crash classification, damage bytes, recovery — is
    // byte-deterministic.
    let (b, _) = sweep();
    assert_eq!(a, b, "crash sweep must be byte-identical across runs");
}

/// Regression: a torn write is always caught by the page checksum — the
/// damaged image never decodes, for any seed.
/// A halt must surface as `Crashed` wherever `Crashable` sits in a wrapper
/// stack: `Faulty` and `WithBackgroundLoad` forward `crashed()`, so the
/// fault × crash and load × crash products report the crash rather than a
/// stalled event loop. Both orders, all three run surfaces.
#[test]
fn crash_behind_another_wrapper_is_reported_as_crashed() {
    use pioqo::device::WithBackgroundLoad;
    use pioqo::exec::FixedPlanner;

    let seed = chaos_seed();
    let spec = TableSpec::paper_table(33, 20_000, 4242);
    let mut ts = Tablespace::new(4 * spec.n_pages() + 2_000);
    let table = HeapTable::create(spec, &mut ts).expect("fits");
    let index = BTreeIndex::build("c2", table.data().c2_entries(), 4096, &mut ts).expect("fits");
    let wspec = TableSpec {
        name: "W33".into(),
        ..TableSpec::paper_table(33, 3_000, 77)
    };
    let wtable = HeapTable::create(wspec, &mut ts).expect("fits");
    let wal = ts.alloc("wal", 512).expect("fits");

    let ssd = || presets::consumer_pcie_ssd(ts.capacity(), seed ^ 0xD);
    let plan = CrashPlan::at(SimTime::from_micros(300), seed ^ 0xC1);
    let stacks = [
        "Faulty<Crashable>",
        "Crashable<Faulty>",
        "WithBackgroundLoad<Crashable>",
        "Crashable<WithBackgroundLoad>",
    ];
    let make = |stack: &str| -> Box<dyn DeviceModel> {
        match stack {
            "Faulty<Crashable>" => {
                Box::new(Faulty::new(Crashable::new(ssd(), plan), FaultPlan::None))
            }
            "Crashable<Faulty>" => {
                Box::new(Crashable::new(Faulty::new(ssd(), FaultPlan::None), plan))
            }
            "WithBackgroundLoad<Crashable>" => Box::new(WithBackgroundLoad::new(
                Crashable::new(ssd(), plan),
                4,
                1,
                seed,
            )),
            _ => Box::new(Crashable::new(
                WithBackgroundLoad::new(ssd(), 4, 1, seed),
                plan,
            )),
        }
    };
    let write_system = || {
        WriteSystem::new(
            write_cfg(seed),
            &wtable,
            wal,
            MediaStore::new(wtable.spec().page_size),
        )
    };
    let scan = QuerySpec::range_max(&table, Some(&index), 0, u32::MAX - 1);
    for name in stacks {
        let mut pool = BufferPool::new(256);
        let mut dev = make(name);
        let mut ctx = Experiment::context(&mut *dev, &mut pool);
        let r = execute(&mut ctx, &scan);
        assert!(
            matches!(r, Err(ExecError::Crashed)),
            "{name}: execute returned {r:?}"
        );

        let mut pool = BufferPool::new(256);
        let mut dev = make(name);
        let mut ctx = Experiment::context(&mut *dev, &mut pool);
        let r = drive_writes(&mut ctx, &mut write_system());
        assert!(
            matches!(r, Err(ExecError::Crashed)),
            "{name}: drive_writes returned {r:?}"
        );

        let mut pool = BufferPool::new(256);
        let mut dev = make(name);
        let mut ctx = Experiment::context(&mut *dev, &mut pool);
        let engine = MultiEngine::new(
            WorkloadSpec {
                sessions: 2,
                queries_per_session: 2,
                ..WorkloadSpec::default()
            },
            QuerySpec::range_max(&table, Some(&index), 0, 0),
            FixedPlanner {
                plan: PlanSpec::Fts(FtsConfig::default()),
            },
        );
        let r = engine.run_with_writes(&mut ctx, &mut write_system());
        assert!(
            matches!(r, Err(ExecError::Crashed)),
            "{name}: run_with_writes returned {:?}",
            r.map(|report| report.total_completed())
        );
    }
}

#[test]
fn torn_write_is_detected_by_checksum() {
    let fx = write_fixture();
    let spec = fx.table.spec();
    for seed in 0..32u64 {
        let mut media = base_media(&fx, false);
        let dp = fx.table.device_page(1);
        assert!(decode_heap_page(spec, media.read(dp).expect("present")).is_ok());
        media.tear(dp, seed);
        assert!(
            decode_heap_page(spec, media.read(dp).expect("present")).is_err(),
            "torn page must fail its checksum (seed {seed})"
        );
    }
}

/// At-rest corruption of a page the WAL never covered: plain SSD reports a
/// typed unrecoverable loss; a healthy mirror reconstructs it; a degraded
/// mirror reports the loss again. Never silently-wrong bytes.
#[test]
fn at_rest_corruption_after_crash_follows_redundancy() {
    let fx = write_fixture();
    let seed = chaos_seed();
    let (_, end) = crash_free_run(&fx, seed, false);
    let at = SimTime::ZERO + end * 0.5;

    let run = |redundant: bool, degrade: bool| {
        let ws = crashed_run(&fx, seed, redundant, at);
        let mut media = ws.into_media();
        let scan = scan_wal(&fx, &media);
        let oracle = oracle_rows(&fx, &scan);
        // Corrupt a page the log never touched, so replay cannot repair it.
        let victim = (0..fx.table.n_pages())
            .map(|l| fx.table.device_page(l))
            .find(|dp| !oracle.contains_key(dp))
            .expect("small workload leaves untouched pages");
        media.corrupt(victim, seed ^ 0xA7);
        if degrade {
            media.set_degraded(true);
        }
        let stats = recover(&mut media, fx.wal, fx.table.spec(), fx.table.extent());
        (victim, stats)
    };

    let (victim, ssd) = run(false, false);
    assert_eq!(
        ssd.unrecoverable_pages,
        vec![victim],
        "no redundancy: the corrupt page is a typed loss"
    );

    let (victim, healthy) = run(true, false);
    assert!(
        healthy.fully_recovered() && healthy.reconstructed_pages == 1,
        "healthy mirror must reconstruct page {victim}: {healthy:?}"
    );

    let (victim, degraded) = run(true, true);
    assert_eq!(
        degraded.unrecoverable_pages,
        vec![victim],
        "degraded mirror cannot reconstruct"
    );
}
