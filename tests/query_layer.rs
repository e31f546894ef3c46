//! Integration tests for the query layer: arbitrary predicate trees,
//! projections and aggregates through every scan operator; both join
//! operators against the naive in-memory oracle; shared scans on/off
//! answering the same oracle; and crash-recovery of a spilling hash join.

use pioqo::exec::FixedPlanner;
use pioqo::prelude::*;
use pioqo::storage::{range_for_selectivity, Extent};
use proptest::prelude::*;

/// SplitMix64 expansion of one drawn `u64` into a whole predicate tree —
/// the vendored proptest stand-in has no recursive combinators, so trees
/// grow from a sampled seed instead.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn col(&mut self) -> Col {
        if self.below(2) == 0 {
            Col::C1
        } else {
            Col::C2
        }
    }

    /// A comparison constant: usually near the C2 domain (so windows and
    /// equalities discriminate), one time in eight a full-range u32, one
    /// time in eight a boundary value (where `C2 < 0` and friends live).
    fn value(&mut self, c2_max: u32) -> u32 {
        match self.below(8) {
            0 => self.next() as u32,
            1 => [0, 1, c2_max, u32::MAX - 1, u32::MAX][self.below(5) as usize],
            _ => self.below(u64::from(c2_max) + u64::from(c2_max / 4) + 1) as u32,
        }
    }

    /// Arbitrary predicate trees: True / Cmp / Between leaves under
    /// nested AND/OR, at most `depth` connective levels.
    fn pred(&mut self, depth: u32, c2_max: u32) -> Predicate {
        let kind = if depth == 0 {
            self.below(3)
        } else {
            self.below(5)
        };
        match kind {
            0 => Predicate::True,
            1 => {
                const OPS: [CmpOp; 6] = [
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Eq,
                    CmpOp::Ge,
                    CmpOp::Gt,
                    CmpOp::Ne,
                ];
                Predicate::Cmp {
                    col: self.col(),
                    op: OPS[self.below(6) as usize],
                    value: self.value(c2_max),
                }
            }
            2 => {
                let col = self.col();
                let a = self.value(c2_max);
                let b = self.value(c2_max);
                // One window in eight is inverted: the empty window.
                let (low, high) = match self.below(8) {
                    0 => (a.max(b), a.min(b)),
                    _ => (a.min(b), a.max(b)),
                };
                Predicate::Between { col, low, high }
            }
            kind => {
                let children = (0..1 + self.below(3))
                    .map(|_| self.pred(depth - 1, c2_max))
                    .collect();
                if kind == 3 {
                    Predicate::And(children)
                } else {
                    Predicate::Or(children)
                }
            }
        }
    }
}

fn projections() -> Vec<Projection> {
    vec![
        Projection::All,
        Projection::Cols(vec![Col::C1]),
        Projection::Cols(vec![Col::C2]),
        Projection::Cols(vec![Col::C2, Col::C1]),
    ]
}

fn aggregates() -> Vec<Aggregate> {
    vec![
        Aggregate::Max(Col::C1),
        Aggregate::Max(Col::C2),
        Aggregate::Count,
    ]
}

fn run_query(q: &QuerySpec<'_>, capacity: u64, seed: u64) -> ScanMetrics {
    let mut dev = presets::consumer_pcie_ssd(capacity, seed);
    let mut pool = BufferPool::new(4096);
    let mut ctx = SimContext::new(
        &mut dev,
        &mut pool,
        CpuConfig::paper_xeon(),
        CpuCosts::default(),
    );
    execute(&mut ctx, q).expect("query runs")
}

fn assert_answers(m: &ScanMetrics, want: &pioqo::exec::RowAcc, label: &str) {
    assert_eq!(m.max_c1, want.agg, "{label}: aggregate");
    assert_eq!(m.rows_matched, want.matched, "{label}: rows matched");
    assert_eq!(m.fingerprint, want.fingerprint, "{label}: fingerprint");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every scan operator pushes arbitrary predicate trees, projections
    /// and aggregates down into the driver and still answers the naive
    /// in-memory oracle — value, cardinality, and projected fingerprint.
    #[test]
    fn scan_pushdown_answers_the_oracle(
        rows in 200u64..1_500,
        rpp in prop::sample::select(vec![7u32, 33]),
        c2_max in prop::sample::select(vec![500u32, 5_000, 1 << 20]),
        pred_seed in any::<u64>(),
        proj in prop::sample::select(projections()),
        agg in prop::sample::select(aggregates()),
        seed in any::<u64>(),
    ) {
        let pred = Gen(pred_seed).pred(2, c2_max);
        let spec = TableSpec { c2_max, ..TableSpec::paper_table(rpp, rows, seed) };
        let mut ts = Tablespace::new(4 * spec.n_pages() + 1_000);
        let table = HeapTable::create(spec, &mut ts).expect("fits");
        let index = BTreeIndex::build(
            "c2",
            table.data().c2_entries(),
            table.spec().page_size,
            &mut ts,
        ).expect("fits");

        let mut base = QuerySpec::scan(&table)
            .with_index(&index)
            .filter(pred)
            .aggregate(agg);
        base.projection = proj;
        let want = oracle(&base);

        let plans = [
            PlanSpec::Fts(FtsConfig { workers: 3, ..FtsConfig::default() }),
            PlanSpec::Is(IsConfig::default()),
            PlanSpec::SortedIs(SortedIsConfig::default()),
        ];
        for plan in plans {
            let label = format!("{plan:?}");
            let m = run_query(&base.clone().with_plan(plan), ts.capacity(), 11);
            assert_answers(&m, &want, &label);
        }
    }
}

/// Predicates no row can satisfy answer the oracle (nothing) through every
/// scan plan and the `Db` facade; where the empty window is on `C2` the
/// index plans stop after the descent, before any leaf. (`C2 < 0` once had
/// the full domain as its sarg and the full table as its FTS answer.) The
/// session paths take the empty window as selectivity 0.0 in
/// `shared_scans_on_and_off_both_answer_the_oracle`.
#[test]
fn empty_windows_match_nothing_on_every_path() {
    let spec = TableSpec::paper_table(33, 3_300, 5);
    let mut ts = Tablespace::new(4 * spec.n_pages() + 1_000);
    let table = HeapTable::create(spec, &mut ts).expect("fits");
    let index = BTreeIndex::build(
        "c2",
        table.data().c2_entries(),
        table.spec().page_size,
        &mut ts,
    )
    .expect("fits");
    let cmp = |col, op, value| Predicate::Cmp { col, op, value };
    let inverted = |col| Predicate::Between {
        col,
        low: 9,
        high: 2,
    };
    // (predicate, whether its sarg window on C2 is empty)
    let cases = [
        (cmp(Col::C2, CmpOp::Lt, 0), true),
        (cmp(Col::C2, CmpOp::Gt, u32::MAX), true),
        (inverted(Col::C2), true),
        (inverted(Col::C1), true),
        (cmp(Col::C1, CmpOp::Lt, 0), false),
    ];
    for (pred, empty_sarg) in cases {
        let base = QuerySpec::scan(&table)
            .with_index(&index)
            .filter(pred.clone());
        let want = oracle(&base);
        assert_eq!((want.matched, want.agg), (0, None), "{pred:?}");

        let fts = run_query(&base.clone(), ts.capacity(), 11);
        assert_answers(&fts, &want, &format!("FTS {pred:?}"));
        assert_eq!(fts.rows_examined, 3_300);
        for plan in [
            PlanSpec::Is(IsConfig::default()),
            PlanSpec::SortedIs(SortedIsConfig::default()),
        ] {
            let label = format!("{plan:?} {pred:?}");
            let m = run_query(&base.clone().with_plan(plan), ts.capacity(), 11);
            assert_answers(&m, &want, &label);
            if empty_sarg {
                assert_eq!(m.rows_examined, 0, "{label}");
                assert!(
                    m.io.pages_read < u64::from(index.height()),
                    "{label}: read {} pages of a height-{} index",
                    m.io.pages_read,
                    index.height()
                );
            }
        }

        let mut db = Db::builder().rows(3_300).seed(5).build();
        let out = db.query().filter(pred.clone()).max(Col::C1).expect("runs");
        assert_eq!((out.value, out.metrics.rows_matched), (None, 0), "{pred:?}");
        if empty_sarg {
            let (_, costed_as_empty) = db.explain_max_between(1, 0);
            assert_eq!(out.plan_name, costed_as_empty, "{pred:?}: selectivity 0");
        }
    }
}

struct JoinFixture {
    left: HeapTable,
    right: HeapTable,
    right_index: BTreeIndex,
    spill: Extent,
    capacity: u64,
}

fn join_fixture(left_rows: u64, right_rows: u64, c2_max: u32, seed: u64) -> JoinFixture {
    let lspec = TableSpec {
        c2_max,
        ..TableSpec::paper_table(33, left_rows, seed ^ 0x10)
    };
    let rspec = TableSpec {
        name: "T_inner".to_string(),
        c2_max,
        ..TableSpec::paper_table(33, right_rows, seed ^ 0x20)
    };
    let mut ts = Tablespace::new(4 * (lspec.n_pages() + rspec.n_pages()) + 4_000);
    let left = HeapTable::create(lspec, &mut ts).expect("fits");
    let right = HeapTable::create(rspec, &mut ts).expect("fits");
    let right_index = BTreeIndex::build(
        "inner_c2",
        right.data().c2_entries(),
        right.spec().page_size,
        &mut ts,
    )
    .expect("fits");
    let spill = ts
        .alloc("join_spill", 2 * (left.n_pages() + right.n_pages()) + 64)
        .expect("fits");
    JoinFixture {
        left,
        right,
        right_index,
        spill,
        capacity: ts.capacity(),
    }
}

fn join_spec<'a>(fx: &'a JoinFixture, pred: Predicate, plan: PlanSpec) -> QuerySpec<'a> {
    QuerySpec::scan(&fx.left)
        .filter(pred)
        .with_plan(plan)
        .join(JoinClause {
            right: &fx.right,
            right_index: Some(&fx.right_index),
            spill: Some(fx.spill),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// INL and hybrid hash (with and without real spill partitions) agree
    /// with the oracle on arbitrary small two-table fixtures and
    /// arbitrary outer windows.
    #[test]
    fn joins_answer_the_oracle(
        left_rows in 400u64..1_500,
        right_rows in 300u64..1_200,
        c2_max in prop::sample::select(vec![200u32, 1_000, 5_000]),
        win in (any::<u32>(), any::<u32>()),
        seed in any::<u64>(),
    ) {
        let fx = join_fixture(left_rows, right_rows, c2_max, seed);
        let (a, b) = win;
        let pred = Predicate::c2_between(a.min(b) % (c2_max + 1), a.max(b) % (2 * c2_max));
        let want = oracle(&join_spec(&fx, pred.clone(), PlanSpec::Inl(InlConfig::default())));

        let plans = [
            PlanSpec::Inl(InlConfig::default()),
            PlanSpec::Hash(HashJoinConfig { partitions: 1, ..HashJoinConfig::default() }),
            PlanSpec::Hash(HashJoinConfig { partitions: 8, ..HashJoinConfig::default() }),
        ];
        for plan in plans {
            let label = format!("{plan:?}");
            let m = run_query(&join_spec(&fx, pred.clone(), plan), fx.capacity, 17);
            assert_answers(&m, &want, &label);
        }
    }
}

/// Fifty-one keys over a few thousand rows: every key a long run of
/// duplicates on both sides, in memory (`partitions` 1) and spilled (8).
#[test]
fn duplicate_heavy_joins_answer_the_oracle() {
    let fx = join_fixture(2_000, 1_500, 50, 23);
    let pred = Predicate::c2_between(5, 45);
    let want = oracle(&join_spec(
        &fx,
        pred.clone(),
        PlanSpec::Inl(InlConfig::default()),
    ));
    assert!(
        want.matched > 20 * 2_000,
        "~29 inner rows per outer row: {}",
        want.matched
    );
    for partitions in [1, 8] {
        let plan = PlanSpec::Hash(HashJoinConfig {
            partitions,
            ..HashJoinConfig::default()
        });
        let m = run_query(&join_spec(&fx, pred.clone(), plan), fx.capacity, 17);
        assert_answers(&m, &want, &format!("hash P={partitions}"));
        assert_eq!(m.rows_examined, want.examined);
    }
}

/// One completed query's identity: `(session, query_index, max_c1,
/// rows_matched)`.
type QueryAnswer = (u32, u32, Option<u32>, u64);

/// Shared scans toggled on and off return the same per-query answers, and
/// both match the oracle for each query's selectivity window — the empty
/// window (selectivity 0.0) included.
#[test]
fn shared_scans_on_and_off_both_answer_the_oracle() {
    let spec = TableSpec::paper_table(33, 12_000, 77);
    let mut ts = Tablespace::new(4 * spec.n_pages() + 1_000);
    let table = HeapTable::create(spec, &mut ts).expect("fits");
    let index = BTreeIndex::build(
        "c2",
        table.data().c2_entries(),
        table.spec().page_size,
        &mut ts,
    )
    .expect("fits");

    let mut answers: Vec<Vec<QueryAnswer>> = Vec::new();
    for shared in [false, true] {
        let wspec = WorkloadSpec {
            sessions: 6,
            queries_per_session: 2,
            selectivities: vec![0.3, 0.0],
            shared_scans: shared,
            ..WorkloadSpec::default()
        };
        let mut dev = presets::consumer_pcie_ssd(ts.capacity(), 13);
        let mut pool = BufferPool::new(4096);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let engine = MultiEngine::new(
            wspec,
            QuerySpec::range_max(&table, Some(&index), 0, 0),
            FixedPlanner {
                plan: PlanSpec::Fts(FtsConfig::default()),
            },
        );
        let report = engine.run(&mut ctx).expect("workload runs");
        assert_eq!(report.total_completed(), 12, "shared={shared}");
        for r in &report.records {
            let (low, high) = range_for_selectivity(r.selectivity, table.spec().c2_max);
            assert_eq!(
                r.max_c1,
                table.data().naive_max_c1(low, high),
                "shared={shared} session {} query {}",
                r.session,
                r.query_index
            );
            assert_eq!(r.selectivity == 0.0, r.rows_matched == 0);
        }
        let mut keyed: Vec<_> = report
            .records
            .iter()
            .map(|r| (r.session, r.query_index, r.max_c1, r.rows_matched))
            .collect();
        keyed.sort_unstable();
        answers.push(keyed);
    }
    assert_eq!(answers[0], answers[1], "sharing must not change any answer");
}

/// A mid-run device crash during a spilling hash join surfaces as
/// [`ExecError::Crashed`] instead of hanging or corrupting the answer,
/// and rerunning the identical query on a healthy device recovers the
/// oracle result.
#[test]
fn hash_join_spill_crash_surfaces_and_rerun_recovers() {
    let fx = join_fixture(4_000, 3_000, 1_000, 99);
    let pred = Predicate::c2_between(0, 800);
    let plan = PlanSpec::Hash(HashJoinConfig {
        partitions: 8,
        ..HashJoinConfig::default()
    });

    // Healthy baseline: establishes the runtime and proves the plan
    // really spills (writes to the spill extent).
    let healthy = run_query(&join_spec(&fx, pred.clone(), plan.clone()), fx.capacity, 17);
    assert!(
        healthy.io.pages_written > 0,
        "8-way hash join on this fixture must spill partitions"
    );
    let want = oracle(&join_spec(&fx, pred.clone(), plan.clone()));
    assert_answers(&healthy, &want, "healthy HHJ8");

    // Crash the device halfway through the same run.
    let at = SimTime::ZERO + healthy.runtime / 2;
    let mut dev = Crashable::new(
        presets::consumer_pcie_ssd(fx.capacity, 17),
        CrashPlan::at(at, 0xC4A5),
    );
    let mut pool = BufferPool::new(4096);
    let mut ctx = SimContext::new(
        &mut dev,
        &mut pool,
        CpuConfig::paper_xeon(),
        CpuCosts::default(),
    );
    let q = join_spec(&fx, pred.clone(), plan.clone());
    match execute(&mut ctx, &q) {
        Err(ExecError::Crashed) => {}
        other => panic!("mid-join crash must surface as Crashed, got {other:?}"),
    }
    drop(ctx);
    assert!(
        dev.crash_report().is_some(),
        "the device must have recorded the crash"
    );

    // A fresh healthy device recovers the oracle answer.
    let rerun = run_query(&join_spec(&fx, pred, plan), fx.capacity, 17);
    assert_answers(&rerun, &want, "post-crash rerun");
    assert_eq!(
        rerun.fingerprint, healthy.fingerprint,
        "byte-identical rerun"
    );
}
