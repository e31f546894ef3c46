//! Concurrent-engine regression suite: the 8-session workload must be
//! byte-identical across double runs and across harness thread counts,
//! closed-loop sessions must share the device fairly, every answer must
//! still match the oracle, and admission control must actually shrink
//! queue-depth leases (and with them plan choice) as concurrency rises.
//!
//! The second half covers cooperative shared scans: the session-scale
//! sweep must be byte-identical and fair at 1K/10K sessions, flipping
//! `shared_scans` must change no answer, the admission journal must
//! charge exactly one queue-depth lease per shared cursor, every session,
//! cursor and writeback share must be back in the budget when a run ends,
//! cleanly or on a crash, and the [`ScanHub`] itself must survive
//! property-tested late joins (wrap around the table end).
//!
//! The routing tests sit in between: completions go to the queries that
//! declared the I/O, so a page read two sessions deduplicated onto must
//! wake both (hedged or not), and a prefetch that outlives its query must
//! not disturb the session's next one.

use pioqo::exec::{
    AdmissionPlanner, Event, FixedPlanner, QueryAdmission, QueryAnswer, QueryRecord, ScanHub,
};
use pioqo::obs::EventKind;
use pioqo::prelude::*;
use pioqo::storage::range_for_selectivity;
use pioqo::workload::{
    calibrate, concurrency_grid, default_observe_cells, observe_bundle, run_cell,
    session_scale_sweep, to_csv, ConcurrencyConfig, ObserveBundle, SessionScaleConfig,
};
use proptest::prelude::*;

/// A grid config small enough for debug-build CI.
fn tiny() -> ConcurrencyConfig {
    ConcurrencyConfig {
        rows: 8_000,
        session_counts: vec![1, 8],
        queries_per_session: 2,
        selectivities: vec![0.01],
        ..ConcurrencyConfig::default()
    }
}

/// The body of the bundle's document `name`.
fn doc<'a>(bundle: &'a ObserveBundle, name: &str) -> &'a str {
    let file = bundle.files.iter().find(|(n, _)| *n == name);
    file.map_or("", |(_, body)| body)
}

#[test]
fn eight_session_export_is_byte_identical_across_double_runs() {
    // The observation bundle's 8-session cell, captured alone.
    let cell = default_observe_cells(ConcurrencyConfig::default().seed).remove(4);
    assert_eq!(cell.label(), "C33-SSD/SES8");
    let export = || observe_bundle(std::slice::from_ref(&cell), 1).expect("export runs");
    let (a, b) = (export(), export());
    assert_eq!(
        doc(&a, "sessions.json"),
        doc(&b, "sessions.json"),
        "workload report and admission journal must survive a double run"
    );
    assert_eq!(
        doc(&a, "trace.json"),
        doc(&b, "trace.json"),
        "per-session Chrome trace must survive a double run"
    );
}

#[test]
fn grid_with_eight_sessions_is_identical_across_thread_counts() {
    // `threads` is the harness fan-out knob (the `--threads` flag / the
    // PIOQO_THREADS variable): the engine itself is a serial event loop,
    // so the grid — 8-session cell included — must not move at all.
    let cfg = tiny();
    let opt = OptimizerConfig::fine_grained();
    let devices = [DeviceKind::Ssd];
    let t1 = concurrency_grid(&devices, &cfg, &opt, 1).expect("threads=1");
    let t4 = concurrency_grid(&devices, &cfg, &opt, 4).expect("threads=4");
    let again = concurrency_grid(&devices, &cfg, &opt, 4).expect("rerun");
    assert_eq!(
        to_csv(&t1),
        to_csv(&t4),
        "grid must not depend on the harness thread count"
    );
    assert_eq!(to_csv(&t4), to_csv(&again), "grid must survive a rerun");
}

#[test]
fn sessions_complete_fairly_under_a_truncating_horizon() {
    // A horizon makes per-session completion counts diverge — that spread
    // must stay bounded: the shared event loop and the admission budget
    // may not starve any session.
    let cfg = tiny();
    let exp = Experiment::build(cfg.experiment(DeviceKind::Ssd));
    let model = calibrate(&exp).qdtt;
    let mut spec = cfg.workload(8);
    spec.queries_per_session = 16;
    spec.horizon = Some(SimDuration::from_micros(15_000));
    let (mut dev, mut pool) = (exp.make_device(), exp.make_pool());
    let mut ctx = Experiment::context(&mut *dev, &mut pool);
    let opt = OptimizerConfig::fine_grained();
    let (report, _) = run_cell(&exp, &model, &opt, spec, None, &mut ctx).expect("cell runs");
    assert!(
        report.total_completed() < 8 * 16,
        "horizon must actually truncate the workload"
    );
    for s in &report.per_session {
        assert!(
            s.completed >= 1,
            "session {} starved: every session's t=0 query must complete",
            s.session
        );
    }
    let fairness = report.fairness_ratio();
    assert!(
        fairness.is_finite() && (1.0..=16.0).contains(&fairness),
        "unbounded completion spread across sessions: {fairness}"
    );
}

#[test]
fn every_concurrent_answer_matches_the_oracle() {
    let cfg = tiny();
    let exp = Experiment::build(cfg.experiment(DeviceKind::Ssd));
    let model = calibrate(&exp).qdtt;
    let (mut dev, mut pool) = (exp.make_device(), exp.make_pool());
    let mut ctx = Experiment::context(&mut *dev, &mut pool);
    let opt = OptimizerConfig::fine_grained();
    let (report, _) =
        run_cell(&exp, &model, &opt, cfg.workload(8), None, &mut ctx).expect("cell runs");
    assert_eq!(report.total_completed(), 16);
    for r in &report.records {
        let (lo, hi) = range_for_selectivity(r.selectivity, exp.dataset.c2_max());
        assert_eq!(
            r.max_c1,
            exp.dataset.table().data().naive_max_c1(lo, hi),
            "session {} query {} returned a wrong MAX under concurrency",
            r.session,
            r.query_index
        );
    }
}

#[test]
fn admission_leases_shrink_through_the_db_facade() {
    // The same shift, exercised end to end through the public API: more
    // sessions → smaller queue-depth leases at admission.
    let mean_lease = |sessions: u32| {
        let mut db = Db::builder().storage(StorageKind::Ssd).rows(8_000).build();
        let out = db
            .run_workload(WorkloadSpec {
                sessions,
                queries_per_session: 2,
                selectivities: vec![0.01],
                ..WorkloadSpec::default()
            })
            .expect("workload runs");
        assert_eq!(out.report.total_completed(), sessions as u64 * 2);
        let n = out.admissions.len().max(1) as f64;
        out.admissions
            .iter()
            .map(|a| a.lease_depth as f64)
            .sum::<f64>()
            / n
    };
    let solo = mean_lease(1);
    let crowded = mean_lease(8);
    assert!(
        crowded < solo,
        "admission must shrink leases under concurrency: {solo} vs {crowded}"
    );

    // Open `Db` sessions hold shares of the same kind of budget; once every
    // one is dropped, a fresh session gets the whole budget back.
    let mut db = Db::builder().storage(StorageKind::Ssd).rows(8_000).build();
    db.calibrate();
    let first = db.session();
    let full = first.depth();
    let open: Vec<_> = (0..3).map(|_| db.session()).collect();
    assert!(
        open.iter().all(|s| s.depth() < full),
        "sessions opened beside another must get a smaller share"
    );
    drop(first);
    drop(open);
    assert_eq!(
        db.session().depth(),
        full,
        "dropped sessions must release their shares"
    );
}

#[test]
fn every_budget_share_is_released_when_a_run_ends() {
    // Session, cursor and writeback shares all come out of one budget: a
    // run with shared scans and a write system beside them exercises all
    // three holders, and each must be released by the time it ends.
    let spec = TableSpec::paper_table(33, 8_000, 7);
    let mut ts = Tablespace::new(4 * spec.n_pages() + 2_000);
    let table = HeapTable::create(spec, &mut ts).expect("fits");
    let index = BTreeIndex::build("c2", table.data().c2_entries(), 4096, &mut ts).expect("fits");
    let wspec = TableSpec {
        name: "W33".into(),
        ..TableSpec::paper_table(33, 2_000, 77)
    };
    let wtable = HeapTable::create(wspec, &mut ts).expect("fits");
    let wal = ts.alloc("wal", 512).expect("fits");

    let mut dev = presets::consumer_pcie_ssd(ts.capacity(), 7);
    let mut pool = BufferPool::new(64);
    let model = {
        let cal = Calibrator::new(CalibrationConfig::for_device(ts.capacity(), 7));
        cal.calibrate_qdtt(&mut dev).0
    };
    let mut planner = QdttAdmission::new(&table, &index, model, OptimizerConfig::fine_grained());
    let mut ws = WriteSystem::new(
        WriteConfig::default(),
        &wtable,
        wal,
        MediaStore::new(wtable.spec().page_size),
    );
    let mut ctx = Experiment::context(&mut dev, &mut pool);
    let report = MultiEngine::new(
        WorkloadSpec {
            sessions: 16,
            queries_per_session: 2,
            selectivities: vec![0.4, 0.002],
            shared_scans: true,
            ..WorkloadSpec::default()
        },
        QuerySpec::range_max(&table, Some(&index), 0, 0),
        &mut planner,
    )
    .run_with_writes(&mut ctx, &mut ws)
    .expect("workload runs");
    drop(ctx);

    assert_eq!(report.total_completed(), 32);
    assert!(
        report.shared.attaches > 0,
        "no query rode the shared cursor"
    );
    assert!(
        planner.decisions().iter().any(|d| !d.attached),
        "no query held a session share"
    );
    let writes = report.writes.as_ref().expect("write stats present");
    assert!(
        writes.data_page_flushes > 0,
        "writeback never ran, so the background share was never taken"
    );
    assert_eq!(
        planner.budget().active(),
        0,
        "a session, cursor or writeback share outlived the run"
    );
}

#[test]
fn a_failed_run_releases_every_admission_share() {
    // A crash 20 ms in strands queries mid-flight; the engine returns the
    // error, but every share those queries were admitted with must be
    // back in the budget, exactly as after a clean run.
    let spec = TableSpec::paper_table(33, 8_000, 7);
    let mut ts = Tablespace::new(4 * spec.n_pages() + 2_000);
    let table = HeapTable::create(spec, &mut ts).expect("fits");
    let index = BTreeIndex::build("c2", table.data().c2_entries(), 4096, &mut ts).expect("fits");
    let model = {
        let cal = Calibrator::new(CalibrationConfig::for_device(ts.capacity(), 7));
        cal.calibrate_qdtt(&mut presets::consumer_pcie_ssd(ts.capacity(), 7))
            .0
    };
    let mut dev = Crashable::new(
        presets::consumer_pcie_ssd(ts.capacity(), 7),
        CrashPlan::at(SimTime::from_micros(20_000), 7),
    );
    let mut pool = BufferPool::new(64);
    let mut planner = QdttAdmission::new(&table, &index, model, OptimizerConfig::fine_grained());
    let mut ctx = Experiment::context(&mut dev, &mut pool);
    let r = MultiEngine::new(
        WorkloadSpec {
            sessions: 8,
            queries_per_session: 50,
            ..WorkloadSpec::default()
        },
        QuerySpec::range_max(&table, Some(&index), 0, 0),
        &mut planner,
    )
    .run(&mut ctx)
    .map(|report| report.total_completed());
    drop(ctx);
    assert_eq!(r, Err(ExecError::Crashed));
    assert!(
        planner.decisions().len() > 8,
        "the crash must land after queries were admitted"
    );
    assert_eq!(
        planner.budget().active(),
        0,
        "a share admitted before the crash outlived the failed run"
    );
}

/// A session-scale config small enough for debug-build CI: a 100-page
/// table behind a 48-frame pool (scans stay I/O-bound, so sharing is
/// actually chosen), one scan query per session.
fn scale_cfg() -> SessionScaleConfig {
    SessionScaleConfig {
        rows: 3_300,
        buffer_frames: 48,
        session_counts: vec![1_000, 10_000],
        ..SessionScaleConfig::default()
    }
}

#[test]
fn session_scale_sweep_is_byte_identical_and_fair_at_1k_and_10k() {
    let cfg = scale_cfg();
    let t1 = session_scale_sweep(&cfg, 1).expect("threads=1");
    let t4 = session_scale_sweep(&cfg, 4).expect("threads=4");
    assert_eq!(
        to_csv(&t1),
        to_csv(&t4),
        "session-scale sweep must not depend on the harness thread count"
    );
    // 1K runs both modes; 10K is shared-only (the unshared baseline is
    // capped by `SessionScaleConfig::unshared_cap`).
    assert_eq!(t1.len(), 3);
    for c in &t1 {
        assert_eq!(
            c.completed, c.sessions as u64,
            "every session's single query must complete at {} sessions",
            c.sessions
        );
        assert_eq!(
            c.fairness, 1.0,
            "one query per session leaves no room for unfairness"
        );
    }
    let shared_10k = &t1[2];
    assert!(shared_10k.shared && shared_10k.sessions == 10_000);
    assert!(
        shared_10k.attach_rate > 0.9,
        "overlapping scans at 10K sessions should ride the shared cursor: {}",
        shared_10k.attach_rate
    );
}

/// The `Db`-facade fixture for the shared-scan tests: `buffer_mb(0)`
/// clamps the pool to its 64-frame floor, well under the 243-page table,
/// so selectivity-0.4 queries stay scans instead of cached index probes.
fn shared_db() -> Db {
    Db::builder()
        .storage(StorageKind::Ssd)
        .rows(8_000)
        .buffer_mb(0)
        .seed(7)
        .build()
}

fn shared_spec(shared: bool) -> WorkloadSpec {
    WorkloadSpec {
        sessions: 32,
        queries_per_session: 2,
        selectivities: vec![0.4],
        shared_scans: shared,
        ..WorkloadSpec::default()
    }
}

#[test]
fn flipping_shared_scans_changes_no_answer() {
    let answers = |shared: bool| -> Vec<(u32, u32, Option<u32>, u64)> {
        let out = shared_db()
            .run_workload(shared_spec(shared))
            .expect("workload runs");
        assert_eq!(out.report.total_completed(), 64);
        if shared {
            assert!(
                out.report.shared.attaches > 0,
                "the shared run must actually share"
            );
        }
        // Completion order differs between modes (the hub completes whole
        // laps at once); the per-query answers may not.
        let mut keyed: Vec<(u32, u32, Option<u32>, u64)> = out
            .report
            .records
            .iter()
            .map(|r: &QueryRecord| (r.session, r.query_index, r.max_c1, r.rows_matched))
            .collect();
        keyed.sort_unstable();
        keyed
    };
    assert_eq!(
        answers(false),
        answers(true),
        "sharing may change the cursor, never the answers"
    );
}

#[test]
fn shared_cursor_is_charged_exactly_one_lease() {
    let out = shared_db()
        .run_workload(shared_spec(true))
        .expect("workload runs");
    let shared = &out.report.shared;
    assert!(shared.attaches > 0, "workload must exercise the hub");
    assert!(shared.cursor_starts >= 1);
    assert!(
        shared.cursor_starts < shared.attaches,
        "cursors must be shared: {} starts for {} attaches",
        shared.cursor_starts,
        shared.attaches
    );
    // The journal's invariant: the device stream is paid for once per
    // cursor start, and attached consumers ride it lease-free.
    assert_eq!(
        out.cursor_leases.len() as u64,
        shared.cursor_starts,
        "exactly one queue-depth lease per cursor start"
    );
    for depth in &out.cursor_leases {
        assert!(*depth >= 1, "a cursor lease must grant positive depth");
    }
    let attached: Vec<_> = out.admissions.iter().filter(|a| a.attached).collect();
    assert_eq!(
        attached.len() as u64,
        shared.attaches,
        "every hub attach must come from an attached admission decision"
    );
    for a in attached {
        assert_eq!(a.lease_depth, 0, "attached queries must not hold a lease");
        assert_eq!(a.queue_depth, 0);
        assert_eq!(a.plan, "FTS+shared");
    }
}

// ---------------------------------------------------------------------
// Owner-routed completions.
// ---------------------------------------------------------------------

fn routing_experiment(rows: u64, device: DeviceKind) -> Experiment {
    Experiment::build(ExperimentConfig {
        name: "ROUTE".to_string(),
        table: "T33".to_string(),
        rows_per_page: 33,
        rows,
        device,
        // Everything fits: a page is read once, by whoever asks first.
        buffer_frames: 4096,
        seed: 21,
    })
}

fn assert_answers_match_the_oracle(exp: &Experiment, report: &WorkloadReport) {
    let data = exp.dataset.table().data();
    for r in &report.records {
        let (lo, hi) = range_for_selectivity(r.selectivity, exp.dataset.c2_max());
        assert_eq!(
            (r.max_c1, r.rows_matched),
            (data.naive_max_c1(lo, hi), data.count_matching(lo, hi)),
            "session {} query {}",
            r.session,
            r.query_index
        );
    }
}

#[test]
fn hedged_reads_shared_by_several_sessions_wake_every_owner() {
    // Eight serial, prefetch-free index scans over the same centred C2
    // windows on a cold spindle: sessions keep asking for index and row
    // pages another session's read is already fetching, and the slow queue
    // makes the 2 ms timeout hedge them.
    let exp = routing_experiment(8_000, DeviceKind::Hdd);
    let run = || {
        let mut dev = exp.make_device();
        let mut pool = exp.make_pool();
        let mut registry = MetricsRegistry::enabled(SimDuration::from_millis(1));
        let mut ctx = SimContext::new(
            &mut *dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        ctx.set_metrics(&mut registry);
        let plan = PlanSpec::Is(IsConfig {
            workers: 1,
            prefetch_depth: 0,
            retry: RetryPolicy {
                max_attempts: 3,
                backoff: SimDuration::from_micros(100),
                timeout: Some(SimDuration::from_micros(2_000)),
            },
        });
        let spec = WorkloadSpec {
            sessions: 8,
            queries_per_session: 3,
            selectivities: vec![0.01, 0.03],
            ..WorkloadSpec::default()
        };
        let base = QuerySpec::range_max(exp.dataset.table(), Some(exp.dataset.index()), 0, 0);
        let report = MultiEngine::new(spec, base, FixedPlanner { plan })
            .run(&mut ctx)
            .expect("workload runs");
        drop(ctx);
        let settled_reads = registry.hist("page_wait_us").map_or(0, |h| h.count);
        (report, settled_reads)
    };
    let (report, logical_reads) = run();
    assert_eq!(report.total_completed(), 24);
    assert_answers_match_the_oracle(&exp, &report);
    assert!(report.resilience.timeouts > 0, "no read was hedged");
    // A serial scan without prefetch has one request outstanding and turns
    // every pool miss into exactly one `read_page`. Fewer logical reads
    // than misses therefore means some read was joined by a *second
    // session* — and had both not been woken, the run would have stalled.
    assert!(
        report.pool.misses > logical_reads,
        "no read had two owners: {} misses, {logical_reads} reads",
        report.pool.misses
    );
    assert_eq!(report.to_json(), run().0.to_json(), "double run must agree");
}

/// Session 0 scans the table, session 1 walks the index with a deep
/// per-worker prefetch window.
struct ScanBesideProbe;

impl AdmissionPlanner for ScanBesideProbe {
    fn admit(&mut self, q: &QueryAdmission, _pool: &BufferPool) -> PlanSpec {
        if q.session == 0 {
            PlanSpec::Fts(FtsConfig::default())
        } else {
            PlanSpec::Is(IsConfig {
                prefetch_depth: 8,
                ..IsConfig::default()
            })
        }
    }
}

#[test]
fn prefetch_outliving_its_query_does_not_disturb_the_next_one() {
    // The table scan's sequential blocks overtake the index scan's random
    // prefetches on the spindle: the pages turn resident under the index
    // scan, it finishes on pool hits with prefetch reads still queued, and
    // its session's next queries (all hits by then) start, run and finish
    // while those reads land one seek at a time.
    let exp = routing_experiment(33_000, DeviceKind::Hdd);
    let run = || {
        let mut dev = exp.make_device();
        let mut pool = exp.make_pool();
        // A warm index lets the probe reach its first heap rows while the
        // scan has barely started.
        let index = exp.dataset.index().extent();
        for p in index.base..index.base + index.pages {
            pool.admit_prefetched(p).expect("pool holds the index");
        }
        let mut sink = RingSink::with_capacity(1 << 20);
        let report = {
            let mut ctx = SimContext::new(
                &mut *dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            ctx.set_trace_sink(&mut sink);
            let spec = WorkloadSpec {
                sessions: 2,
                queries_per_session: 40,
                think: ThinkTime::Fixed(SimDuration::from_micros(100)),
                selectivities: vec![0.01],
                ..WorkloadSpec::default()
            };
            let base = QuerySpec::range_max(exp.dataset.table(), Some(exp.dataset.index()), 0, 0);
            MultiEngine::new(spec, base, ScanBesideProbe)
                .run(&mut ctx)
                .expect("a stray completion is not an error")
        };
        (report, sink)
    };
    let (report, sink) = run();
    assert_eq!(sink.dropped(), 0, "the witness below needs the whole trace");
    assert_eq!(report.total_completed(), 80);
    assert_answers_match_the_oracle(&exp, &report);

    // Witness from the trace. The table scan issues 16-page blocks only, so
    // every single-page read of a *table* page is the index scan's. Find
    // one submitted during query i of session 1 that lands inside a later
    // query of the same session: a stray of a finished query, landing while
    // its session runs a new one under a new tag.
    let probe_track = sink
        .track_names()
        .iter()
        .position(|n| n == "session1")
        .expect("session 1 traced") as u32;
    let table = exp.dataset.table().extent();
    let mut spans: Vec<(SimTime, SimTime)> = Vec::new();
    let mut submitted: std::collections::BTreeMap<u64, SimTime> = Default::default();
    let mut reads: Vec<(SimTime, SimTime)> = Vec::new();
    for ev in sink.events() {
        match ev.kind {
            EventKind::SpanBegin("query") if ev.track == probe_track => {
                spans.push((ev.t, SimTime::MAX));
            }
            EventKind::SpanEnd("query") if ev.track == probe_track => {
                spans.last_mut().expect("begin before end").1 = ev.t;
            }
            EventKind::IoSubmit
                if ev.b == 1 && (table.base..table.base + table.pages).contains(&ev.a) =>
            {
                submitted.insert(ev.span, ev.t);
            }
            EventKind::IoComplete => {
                if let Some(t0) = submitted.remove(&ev.span) {
                    reads.push((t0, ev.t));
                }
            }
            _ => {}
        }
    }
    let query_at = |t: SimTime| spans.iter().position(|&(b, e)| b <= t && t < e);
    let stray_into_running = reads
        .iter()
        .filter(|&&(t0, t1)| matches!((query_at(t0), query_at(t1)), (Some(i), Some(j)) if j > i))
        .count();
    assert!(
        stray_into_running > 0,
        "no prefetch of session 1 landed inside a later query of session 1"
    );

    let (again, _) = run();
    assert_eq!(report.to_json(), again.to_json(), "double run must agree");
}

// ---------------------------------------------------------------------
// ScanHub property tests: drive the hub directly on a SimContext.
// ---------------------------------------------------------------------

/// A 30-page table behind a 16-frame pool on a simulated SSD.
fn hub_experiment() -> Experiment {
    Experiment::build(ExperimentConfig {
        name: "HUB-SSD".to_string(),
        table: "T33".to_string(),
        rows_per_page: 33,
        rows: 990,
        device: DeviceKind::Ssd,
        buffer_frames: 16,
        seed: 9,
    })
}

/// Land a successful read's pages in the pool, as the engine's event loop
/// does before handing the event to the hub.
fn admit_pages(ctx: &mut SimContext<'_>, ev: &Event) {
    match *ev {
        Event::IoPage {
            device_page,
            status: IoStatus::Ok,
            ..
        } => {
            let _ = ctx.pool.admit_prefetched(device_page);
        }
        Event::IoBlock {
            start,
            len,
            status: IoStatus::Ok,
            ..
        } => {
            for p in start..start + len as u64 {
                let _ = ctx.pool.admit_prefetched(p);
            }
        }
        _ => {}
    }
}

/// Step the simulation until the hub goes idle, draining completions.
fn drain_hub(
    ctx: &mut SimContext<'_>,
    hub: &mut ScanHub<'_>,
    done: &mut Vec<(u32, QueryAnswer)>,
) -> Result<(), TestCaseError> {
    let mut events = Vec::new();
    while hub.is_active() {
        events.clear();
        prop_assert!(ctx.step(&mut events), "hub stalled with consumers live");
        for &ev in &events {
            admit_pages(ctx, &ev);
            hub.on_event(ctx, &ev).expect("hub event");
        }
        hub.take_completions(done);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A consumer that attaches mid-stream starts mid-table, wraps at the
    /// end, and still aggregates every page exactly once: its answer (max
    /// AND match count — a double-delivered page would inflate the count)
    /// equals the oracle, for any attach offset and predicate pair.
    #[test]
    fn late_joiner_wraps_and_answers_the_oracle(
        k in 0u32..70,
        sel_a in 0.05f64..1.0,
        sel_b in 0.05f64..1.0,
    ) {
        let exp = hub_experiment();
        let data = exp.dataset.table().data();
        let c2_max = exp.dataset.c2_max();
        let (lo_a, hi_a) = range_for_selectivity(sel_a, c2_max);
        let (lo_b, hi_b) = range_for_selectivity(sel_b, c2_max);
        let mut device = exp.make_device();
        let mut pool = exp.make_pool();
        let mut ctx = SimContext::new(
            device.as_mut(),
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let mut hub = ScanHub::new(exp.dataset.table(), 4);
        hub.set_window(2);
        let mut done: Vec<(u32, QueryAnswer)> = Vec::new();
        let mut events = Vec::new();

        let slot_a = hub.attach(&mut ctx, lo_a, hi_a);
        // Advance the stream k evaluation completions so the second
        // consumer attaches mid-lap (k past one lap: it never attaches —
        // the cursor went idle — which is also a valid outcome).
        let mut cpu_seen = 0u32;
        while cpu_seen < k && hub.is_active() {
            events.clear();
            prop_assert!(ctx.step(&mut events), "hub stalled");
            for &ev in &events {
                admit_pages(&mut ctx, &ev);
                let was_cpu = matches!(ev, Event::Cpu(_));
                if hub.on_event(&mut ctx, &ev).expect("hub event") && was_cpu {
                    cpu_seen += 1;
                }
            }
            hub.take_completions(&mut done);
        }
        let slot_b = hub
            .is_active()
            .then(|| hub.attach(&mut ctx, lo_b, hi_b));
        drain_hub(&mut ctx, &mut hub, &mut done)?;

        let a = done.iter().find(|(s, _)| *s == slot_a).expect("A completes");
        prop_assert_eq!(a.1.max_c1, data.naive_max_c1(lo_a, hi_a));
        prop_assert_eq!(a.1.rows_matched, data.count_matching(lo_a, hi_a));
        if let Some(slot_b) = slot_b {
            let b = done
                .iter()
                .find(|(s, _)| *s == slot_b)
                .expect("late joiner completes");
            prop_assert_eq!(b.1.max_c1, data.naive_max_c1(lo_b, hi_b));
            prop_assert_eq!(b.1.rows_matched, data.count_matching(lo_b, hi_b));
            prop_assert_eq!(b.1.rows_examined, data.rows());
        }
    }
}
