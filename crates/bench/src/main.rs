//! `pioqo-bench` — wall-clock benchmark harness for the simulator hot
//! paths and the observability layer.
//!
//! ```text
//! cargo run -p pioqo-bench --release -- --json [--scale N] [--out PATH] [--trace] [--metrics]
//! ```
//!
//! Measures nine things and emits a JSON report (default `BENCH_pr10.json`
//! in the current directory):
//!
//! 1. **Event queue** — events/sec draining a seeded schedule with
//!    repeated `pop` vs the cohort-draining `pop_batch`.
//! 2. **Buffer pool** — page accesses/sec replaying the same trace on the
//!    dense-table pool vs the reference `BTreeMap` backend.
//! 3. **Tracing** — the same PIS scan with tracing disabled (`NullSink`
//!    never installed — the zero-cost claim) vs enabled (`RingSink`
//!    recording every event).
//! 4. **Concurrency** — wall seconds of the canonical traced 8-session
//!    workload under QDTT-aware admission control (calibration + engine
//!    run + exports), with the engine's simulated makespan alongside so
//!    sim-time-per-wall-second is legible.
//! 5. **Sessions** — the session-scale comparison: 1K closed-loop
//!    sessions of overlapping scans run unshared (one cursor per query)
//!    vs riding the cooperative shared-scan hub, as wall-clock
//!    queries/sec each way plus their ratio (`shared_speedup_1k`, gated
//!    by `scripts/bench_gate.py`), and a shared-only 100K-session point.
//! 6. **Write path** — commits/sec through the crash-consistent write
//!    workload (WAL group commit + background flusher), and the wall cost
//!    of one crash + replay-from-origin recovery cycle.
//! 7. **Metrics** — the same PIS8 scan three ways: no registry installed
//!    (baseline), a *disabled* registry riding the context (the always-on
//!    configuration every run pays; `disabled_overhead_ratio` must stay
//!    ~1.0x and is gated by `scripts/bench_gate.py` at 1.02x), and an
//!    enabled registry sampling on the default cadence
//!    (`enabled_overhead_ratio`, same 1.02x gate). One full
//!    `capture_metrics` pass follows so the report carries the SLO
//!    verdict (`slo_pass`, also gated).
//! 8. **Query layer** — wall-clock throughput of the PR 10 query path:
//!    rows/sec through a filtered scan whose predicate tree (sargable C2
//!    window + residual C1 term) is pushed down into the FTS driver, and
//!    input rows/sec through both join operators (hybrid hash
//!    partition/build/probe, and index-nested-loop probing) on the same
//!    two-table fixture. `scripts/bench_gate.py` gates all three as
//!    ordinary `_per_sec` throughput metrics once a baseline carries them.
//! 9. **End to end** — wall seconds of `repro all --scale N` at 1 and 4
//!    harness threads (the repro binary is built on demand). The 1-vs-4
//!    ratio is recorded as the named leaf `threads_1v4_speedup`, which
//!    `scripts/bench_gate.py` fails on (below 1.0) only when the
//!    recorded `host_logical_cpus` says the host actually had >= 4
//!    cores, and warns otherwise. Every section embeds
//!    `host_logical_cpus` so the artifact stays legible on its own.
//!
//! `--trace` runs only the tracing comparison (quick check of the
//! overhead ratio; the report's other sections are null). `--metrics`
//! runs only the tracing and metrics comparisons. `--profile` turns on
//! the harness self-profiler and prints its phase table on exit.
//!
//! All numbers are wall-clock (this is the one harness crate allowed to
//! look at the real clock; see `lint.toml`).

use pioqo_bufpool::{Access, BufferPool};
use pioqo_device::{presets, CrashPlan, Crashable, MediaStore};
use pioqo_exec::{
    drive_writes, recover, AdmissionPlanner, CpuConfig, CpuCosts, ExecError, QueryAdmission,
    SimContext, WriteConfig, WriteSystem,
};
use pioqo_obs::{MetricsRegistry, RingSink};
use pioqo_optimizer::{OptimizerConfig, QdttAdmission};
use pioqo_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use pioqo_storage::{HeapTable, TableSpec, Tablespace};
use pioqo_workload::{
    calibrate, capture_metrics, default_slos, session_export, session_scale_cell,
    session_scale_fixture, small_metrics_cells, Experiment, ExperimentConfig, MethodSpec,
    SessionScaleConfig,
};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut scale: u64 = 8;
    let mut out_path = PathBuf::from("BENCH_pr10.json");
    let mut json = false;
    let mut trace_only = false;
    let mut metrics_only = false;
    let mut profile = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--trace" => trace_only = true,
            "--metrics" => metrics_only = true,
            "--profile" => profile = true,
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--scale needs a positive integer"));
            }
            "--out" => {
                out_path = args
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--out needs a path"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("[bench] host logical CPUs: {cpus}");
    if profile {
        pioqo_profiler::enable();
    }

    let tr = {
        let _span = pioqo_profiler::scope("tracing");
        bench_tracing()
    };
    let sections = if trace_only {
        Sections::default()
    } else if metrics_only {
        Sections {
            metrics: Some(bench_metrics()),
            ..Sections::default()
        }
    } else {
        Sections {
            eq: Some({
                let _span = pioqo_profiler::scope("event_queue");
                bench_event_queue()
            }),
            bp: Some({
                let _span = pioqo_profiler::scope("bufpool");
                bench_bufpool()
            }),
            conc: Some({
                let _span = pioqo_profiler::scope("concurrency");
                bench_concurrency()
            }),
            sessions: Some({
                let _span = pioqo_profiler::scope("sessions");
                bench_sessions()
            }),
            wp: Some({
                let _span = pioqo_profiler::scope("write_path");
                bench_write_path()
            }),
            metrics: Some({
                let _span = pioqo_profiler::scope("metrics");
                bench_metrics()
            }),
            ql: Some({
                let _span = pioqo_profiler::scope("query_layer");
                bench_query_layer()
            }),
            e2e: Some({
                let _span = pioqo_profiler::scope("end_to_end");
                bench_end_to_end(scale)
            }),
        }
    };

    let report = render_json(cpus, scale, &tr, &sections);
    if json {
        println!("{report}");
    }
    match std::fs::write(&out_path, &report) {
        Ok(()) => eprintln!("[bench] wrote {}", out_path.display()),
        Err(e) => {
            eprintln!("[bench] failed to write {}: {e}", out_path.display());
            std::process::exit(1);
        }
    }
    if profile {
        pioqo_profiler::flush_thread();
        eprintln!("{}", pioqo_profiler::report().phase_table());
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: pioqo-bench [--json] [--scale N] [--out PATH] [--trace] [--metrics] [--profile]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// (events, pop events/sec, pop_batch events/sec).
struct EventQueueBench {
    events: u64,
    pop_per_sec: f64,
    pop_batch_per_sec: f64,
}

/// Drain a schedule shaped like a device at queue depth ~32: many events
/// sharing each timestamp (completion cohorts), which is exactly the shape
/// `pop_batch` exists for.
fn bench_event_queue() -> EventQueueBench {
    const COHORTS: u64 = 200_000;
    const PER_COHORT: u64 = 8;
    const EVENTS: u64 = COHORTS * PER_COHORT;

    let fill = |rng: &mut SimRng| {
        let mut q: EventQueue<u64> = EventQueue::new();
        for c in 0..COHORTS {
            let at = SimTime::from_micros(c * 100 + rng.below(50));
            for e in 0..PER_COHORT {
                q.schedule(at, c * PER_COHORT + e);
            }
        }
        q
    };

    // Best of seven per drain style, the two styles interleaved: a
    // sub-50ms loop is at the mercy of one scheduler hiccup on a busy
    // host, and the minimum is the honest estimate of what the code
    // costs. Interleaving spreads the repetitions across ~0.5s of wall
    // time so a single disturbance burst can't blanket one style's
    // every repetition while missing the other's.
    let mut sink = 0u64;
    let mut pop_s = f64::INFINITY;
    let mut pop_batch_s = f64::INFINITY;
    let mut batch: Vec<u64> = Vec::with_capacity(PER_COHORT as usize);
    for _ in 0..7 {
        {
            let mut rng = SimRng::seeded(42);
            let mut q = fill(&mut rng);
            let started = Instant::now();
            while let Some((_, e)) = q.pop() {
                sink = sink.wrapping_add(e);
            }
            pop_s = pop_s.min(started.elapsed().as_secs_f64());
        }
        {
            let mut rng = SimRng::seeded(42);
            let mut q = fill(&mut rng);
            let started = Instant::now();
            while q.peek_time().is_some() {
                batch.clear();
                if q.pop_batch(&mut batch).is_some() {
                    for &e in &batch {
                        sink = sink.wrapping_add(e);
                    }
                }
            }
            pop_batch_s = pop_batch_s.min(started.elapsed().as_secs_f64());
        }
    }
    // Keep `sink` observable so the drains aren't optimized away.
    eprintln!("[bench] event queue: {EVENTS} events, checksum {sink:x}");
    eprintln!(
        "[bench]   pop: {:.0} ev/s, pop_batch: {:.0} ev/s",
        EVENTS as f64 / pop_s,
        EVENTS as f64 / pop_batch_s
    );
    EventQueueBench {
        events: EVENTS,
        pop_per_sec: EVENTS as f64 / pop_s,
        pop_batch_per_sec: EVENTS as f64 / pop_batch_s,
    }
}

/// (accesses, dense accesses/sec, reference accesses/sec).
struct BufpoolBench {
    accesses: u64,
    dense_per_sec: f64,
    reference_per_sec: f64,
}

/// Replay an identical seeded request/admit/unpin trace against the dense
/// page table and the reference `BTreeMap` backend — the A/B behind the
/// PR's page-table claim. Working set ~4x the pool so the trace exercises
/// hits, misses and evictions.
fn bench_bufpool() -> BufpoolBench {
    const CAP: usize = 16_384;
    const PAGES: u64 = 65_536;
    const OPS: u64 = 4_000_000;

    let run = |mut pool: BufferPool| -> f64 {
        let mut rng = SimRng::seeded(7);
        let started = Instant::now();
        for _ in 0..OPS {
            let page = rng.below(PAGES);
            if pool.request(page) == Access::Miss {
                pool.admit(page)
                    .expect("bench trace never exhausts the pool");
            }
            pool.unpin(page).expect("bench page was just pinned");
        }
        let secs = started.elapsed().as_secs_f64();
        pool.check_invariants();
        secs
    };

    // Best of five: the loop is short enough that a single scheduler
    // hiccup on a busy host shows up as a 20-30% swing; the minimum is
    // the honest estimate of what the code costs.
    let best = |make: &dyn Fn() -> BufferPool| -> f64 {
        (0..5).map(|_| run(make())).fold(f64::INFINITY, f64::min)
    };
    let dense_s = best(&|| BufferPool::new(CAP));
    let reference_s = best(&|| BufferPool::new_reference(CAP));
    eprintln!(
        "[bench] bufpool: {OPS} accesses; dense {:.0}/s, reference {:.0}/s ({:.2}x)",
        OPS as f64 / dense_s,
        OPS as f64 / reference_s,
        reference_s / dense_s
    );
    BufpoolBench {
        accesses: OPS,
        dense_per_sec: OPS as f64 / dense_s,
        reference_per_sec: OPS as f64 / reference_s,
    }
}

/// Disabled-vs-enabled tracing timings for the same scan.
struct TracingBench {
    runs: u64,
    disabled_s: f64,
    enabled_s: f64,
    overhead_ratio: f64,
    events_per_run: u64,
}

/// Run the default-scenario PIS8 scan `RUNS` times untraced (`run_with`,
/// which never installs a sink — the zero-cost configuration) and `RUNS`
/// times with a `RingSink` capturing every event, and compare wall time.
fn bench_tracing() -> TracingBench {
    const RUNS: u64 = 24;
    let cfg = ExperimentConfig::by_name("E33-SSD")
        .expect("E33-SSD is a Table 1 row")
        .scaled_down(64);
    let exp = Experiment::build(cfg);
    let method = MethodSpec::Is {
        workers: 8,
        prefetch: 0,
    };

    // One untimed warm-up so first-touch costs (page faults, lazy init)
    // don't land in whichever loop happens to run first.
    let mut checksum = 0u64;
    {
        let mut dev = exp.make_device();
        let mut pool = exp.make_pool();
        let m = exp
            .run_with(dev.as_mut(), &mut pool, method, 0.01)
            .expect("clean device cannot fail");
        checksum ^= m.io.io_ops;
    }

    // The two configurations interleave at single-run granularity with
    // the starting mode alternated per cycle, and the reported seconds
    // are per-mode medians scaled to the block size — the same estimator
    // the metrics section uses (and for the same reason: block-at-a-time
    // best-of timing flakes the gate whenever one mode's blocks alias
    // against periodic host activity).
    let mut events_per_run = 0u64;
    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    {
        let mut time_run = |traced: bool| -> f64 {
            let mut dev = exp.make_device();
            let mut pool = exp.make_pool();
            let mut sink = RingSink::with_capacity(1 << 16);
            let started = Instant::now();
            let m = if traced {
                exp.run_with_traced(dev.as_mut(), &mut pool, method, 0.01, &mut sink)
            } else {
                exp.run_with(dev.as_mut(), &mut pool, method, 0.01)
            }
            .expect("clean device cannot fail");
            let t = started.elapsed().as_secs_f64();
            checksum ^= m.io.io_ops;
            if traced {
                events_per_run = sink.recorded();
            }
            t
        };
        for cycle in 0..(5 * RUNS) {
            for slot in 0..2u64 {
                let traced = (cycle + slot) % 2 == 1;
                times[traced as usize].push(time_run(traced));
            }
        }
    }
    let median = |v: &[f64]| -> f64 {
        let mut v = v.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let best = |v: &[f64]| -> f64 { v.iter().copied().fold(f64::INFINITY, f64::min) };
    // Absolute seconds stay best-of (comparable across reports); the
    // gated overhead ratio comes from the medians.
    let disabled_s = best(&times[0]) * RUNS as f64;
    let enabled_s = best(&times[1]) * RUNS as f64;
    let overhead_ratio = median(&times[1]) / median(&times[0]);

    eprintln!(
        "[bench] tracing: {RUNS} PIS8 scans (checksum {checksum:x}); \
         disabled {disabled_s:.3}s, enabled {enabled_s:.3}s ({overhead_ratio:.2}x), \
         {events_per_run} events/run"
    );
    TracingBench {
        runs: RUNS,
        disabled_s,
        enabled_s,
        overhead_ratio,
        events_per_run,
    }
}

/// Wall time of the canonical traced 8-session workload, with the
/// engine's own simulated makespan for scale.
struct ConcurrencyBench {
    runs: u64,
    sessions: u32,
    queries: u64,
    wall_s_per_run: f64,
    sim_makespan_ms: f64,
    admissions: u64,
    admissions_per_sec: f64,
}

/// Run `session_export` (calibrate the SSD fixture, execute 8 closed-loop
/// sessions through QDTT-aware admission control with per-session trace
/// tracks, render the JSON exports) end to end and time it. One untimed
/// warm-up run absorbs first-touch costs, same as the tracing bench.
fn bench_concurrency() -> ConcurrencyBench {
    const RUNS: u64 = 9;
    let warm = session_export(42).expect("canonical session export cannot fail");
    let sessions = warm.report.spec.sessions;
    let queries = warm.report.total_completed() as u64;
    let sim_makespan_ms = warm.report.makespan.as_micros_f64() / 1_000.0;
    let admissions = warm.admissions.len() as u64;

    // Median of nine ~60ms runs: a mean of three flaked the bench gate
    // whenever one run caught a scheduler hiccup on a busy host.
    let mut checksum = 0usize;
    let mut times = Vec::with_capacity(RUNS as usize);
    for _ in 0..RUNS {
        let started = Instant::now();
        let export = session_export(42).expect("canonical session export cannot fail");
        times.push(started.elapsed().as_secs_f64());
        checksum ^= export.chrome_json.len();
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let wall_s_per_run = times[times.len() / 2];
    let admissions_per_sec = bench_admission_rate();
    eprintln!(
        "[bench] concurrency: {RUNS} runs of {sessions} sessions / {queries} queries \
         (checksum {checksum:x}); {wall_s_per_run:.3}s/run, sim makespan {sim_makespan_ms:.1}ms, \
         {admissions_per_sec:.0} admissions/s"
    );
    ConcurrencyBench {
        runs: RUNS,
        sessions,
        queries,
        wall_s_per_run,
        sim_makespan_ms,
        admissions,
        admissions_per_sec,
    }
}

/// Wall-clock rate of the QDTT admission hot path alone: acquire a lease,
/// gather stats, re-cost every candidate under the lease, lower and
/// journal, release. This is the loop the planner's reused scratch
/// buffers (candidate vector + working config) exist for — the before/
/// after A/B for the no-per-query-allocations claim.
fn bench_admission_rate() -> f64 {
    const ADMITS: u64 = 50_000;
    let cfg = ExperimentConfig::by_name("E33-SSD")
        .expect("E33-SSD is a Table 1 row")
        .scaled_down(64);
    let exp = Experiment::build(cfg);
    let model = calibrate(&exp).qdtt;
    let pool = exp.make_pool();
    let mut best = f64::INFINITY;
    let mut decisions = 0usize;
    for _ in 0..3 {
        let mut adm = QdttAdmission::new(
            exp.dataset.table(),
            exp.dataset.index(),
            model.clone(),
            OptimizerConfig::fine_grained(),
        );
        let started = Instant::now();
        for i in 0..ADMITS {
            let q = QueryAdmission {
                session: (i % 64) as u32,
                query_index: (i / 64) as u32,
                active: (i % 8) as u32,
                selectivity: 0.001 + (i % 10) as f64 * 0.05,
                low: 0,
                high: 0,
            };
            let _ = adm.admit(&q, &pool);
            adm.complete((i % 64) as u32);
        }
        best = best.min(started.elapsed().as_secs_f64());
        decisions = adm.decisions().len();
    }
    assert_eq!(decisions as u64, ADMITS, "every admission must journal");
    ADMITS as f64 / best
}

/// The session-scale wall-clock comparison: shared vs unshared cursors at
/// 1K sessions, plus a shared-only 100K-session point.
struct SessionsBench {
    sessions_1k: u32,
    unshared_wall_s: f64,
    shared_wall_s: f64,
    unshared_queries_per_wall_s: f64,
    shared_queries_per_wall_s: f64,
    shared_speedup_1k: f64,
    attach_rate_1k: f64,
    sessions_100k: u32,
    sessions_100k_wall_s: f64,
    sessions_100k_queries_per_wall_s: f64,
}

/// Run single session-scale cells under a wall-clock timer (the workload
/// crate itself never looks at the real clock). The 1K-session pair is
/// the tentpole's headline: identical spec and answers, one run
/// driving up to 1K solo scan drivers, the other riding one shared
/// circular cursor.
fn bench_sessions() -> SessionsBench {
    let cfg = SessionScaleConfig::default();
    let (exp, model) = session_scale_fixture(&cfg);
    let time_cell = |sessions: u32, shared: bool| {
        eprintln!(
            "[bench] sessions: {sessions} sessions, shared {} ...",
            if shared { "on" } else { "off" }
        );
        let started = Instant::now();
        let cell = session_scale_cell(&exp, &model, &cfg, sessions, shared)
            .expect("session-scale cell cannot fail");
        (started.elapsed().as_secs_f64(), cell)
    };
    let (unshared_wall_s, unshared) = time_cell(1_000, false);
    let (shared_wall_s, shared) = time_cell(1_000, true);
    let (wall_100k, cell_100k) = time_cell(100_000, true);
    let unshared_qps = unshared.completed as f64 / unshared_wall_s;
    let shared_qps = shared.completed as f64 / shared_wall_s;
    eprintln!(
        "[bench] sessions: 1K unshared {:.0} q/s, shared {:.0} q/s ({:.1}x, attach rate {:.2}); \
         100K shared {:.1}s ({:.0} q/s)",
        unshared_qps,
        shared_qps,
        shared_qps / unshared_qps,
        shared.attach_rate,
        wall_100k,
        cell_100k.completed as f64 / wall_100k,
    );
    SessionsBench {
        sessions_1k: 1_000,
        unshared_wall_s,
        shared_wall_s,
        unshared_queries_per_wall_s: unshared_qps,
        shared_queries_per_wall_s: shared_qps,
        shared_speedup_1k: shared_qps / unshared_qps,
        attach_rate_1k: shared.attach_rate,
        sessions_100k: 100_000,
        sessions_100k_wall_s: wall_100k,
        sessions_100k_queries_per_wall_s: cell_100k.completed as f64 / wall_100k,
    }
}

/// Commit throughput of the crash-consistent write workload and the wall
/// cost of a crash + replay-from-origin recovery cycle.
struct WritePathBench {
    commits: u64,
    wal_records: u64,
    commits_per_sec: f64,
    recover_wall_s: f64,
    pages_verified: u64,
}

/// Drive the WAL-backed write workload (group commit + background
/// flusher) to completion on a simulated SSD and time it wall-clock, then
/// crash the identical workload halfway through, corrupt-and-replay, and
/// time `recover` alone. Best-of-three per side, same rationale as the
/// other short loops.
fn bench_write_path() -> WritePathBench {
    let seed = 7u64;
    let spec = TableSpec::paper_table(33, 20_000, seed);
    let mut ts = Tablespace::new(spec.n_pages() + 4_200);
    let table = HeapTable::create(spec, &mut ts).expect("bench table fits");
    let wal_extent = ts.alloc("wal", 4_096).expect("bench WAL fits");
    let capacity = ts.capacity();
    let cfg = WriteConfig {
        writers: 8,
        commits_per_writer: 64,
        think: SimDuration::from_micros_f64(300.0),
        group_commit: SimDuration::from_micros_f64(150.0),
        flush_interval: SimDuration::from_micros_f64(500.0),
        flush_batch: 8,
        seed,
        ..WriteConfig::default()
    };
    let base_media = || {
        let mut m = MediaStore::new(table.spec().page_size);
        for local in 0..table.n_pages() {
            m.write(table.device_page(local), &table.page_image(local));
        }
        m
    };

    // Crash-free side: commits acked per wall second.
    let mut commits = 0u64;
    let mut wal_records = 0u64;
    let mut end = SimDuration::ZERO;
    let mut clean_s = f64::INFINITY;
    for _ in 0..3 {
        let mut dev = presets::consumer_pcie_ssd(capacity, seed ^ 0xD);
        let mut pool = BufferPool::new(1024);
        let mut ctx = SimContext::new(
            &mut dev,
            &mut pool,
            CpuConfig::paper_xeon(),
            CpuCosts::default(),
        );
        let mut ws = WriteSystem::new(cfg.clone(), &table, wal_extent, base_media());
        let started = Instant::now();
        drive_writes(&mut ctx, &mut ws).expect("clean device cannot fail");
        clean_s = clean_s.min(started.elapsed().as_secs_f64());
        let stats = ws.stats();
        commits = stats.commits_acked;
        wal_records = stats.wal_records;
        end = ctx.now().since(SimTime::ZERO);
    }

    // Crash side: same workload torn mid-flight, then recovery alone.
    let mut recover_wall_s = f64::INFINITY;
    let mut pages_verified = 0u64;
    for _ in 0..3 {
        let at = SimTime::ZERO + end * 0.5;
        let inner = presets::consumer_pcie_ssd(capacity, seed ^ 0xD);
        let mut dev = Crashable::new(inner, CrashPlan::at(at, seed ^ 0xC1));
        let mut pool = BufferPool::new(1024);
        let mut ws = {
            let mut ctx = SimContext::new(
                &mut dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            let mut ws = WriteSystem::new(cfg.clone(), &table, wal_extent, base_media());
            let r = drive_writes(&mut ctx, &mut ws);
            assert!(
                matches!(r, Err(ExecError::Crashed)),
                "mid-workload crash must surface as Crashed, got {r:?}"
            );
            ws
        };
        let report = dev.crash_report().expect("crashed device has a report");
        ws.apply_crash(report, seed ^ 0xC1);
        let mut media = ws.into_media();
        let started = Instant::now();
        let rec = recover(&mut media, wal_extent, table.spec(), table.extent());
        recover_wall_s = recover_wall_s.min(started.elapsed().as_secs_f64());
        assert!(rec.fully_recovered(), "bench crash must recover: {rec:?}");
        pages_verified = rec.pages_verified;
    }

    eprintln!(
        "[bench] write path: {commits} commits / {wal_records} WAL records, \
         {:.0} commits/s; recovery {recover_wall_s:.4}s ({pages_verified} pages verified)",
        commits as f64 / clean_s
    );
    WritePathBench {
        commits,
        wal_records,
        commits_per_sec: commits as f64 / clean_s,
        recover_wall_s,
        pages_verified,
    }
}

/// Baseline / disabled-registry / enabled-registry timings for the same
/// scan, plus the SLO verdict of a full capture.
struct MetricsBench {
    runs: u64,
    baseline_s: f64,
    disabled_s: f64,
    enabled_s: f64,
    disabled_ratio: f64,
    enabled_ratio: f64,
    slo_checks: u64,
    slo_pass: bool,
}

/// Time the default-scenario PIS8 scan three ways: `run_with` (no
/// registry anywhere near the context — the pre-metrics baseline),
/// `run_with_metrics` over a **disabled** registry (what every ordinary
/// run now pays for the always-on plumbing; the 1.02x gate lives on this
/// ratio), and over an **enabled** registry sampling at the default 1ms
/// sim cadence. Then run one full `capture_metrics` pass over the small
/// cells so the committed report records whether the SLO roster holds.
fn bench_metrics() -> MetricsBench {
    // 8x the tracing bench's dataset (one scan ~5ms), 360 timed scans per
    // mode: the gated ratios live at 1.02x, so the estimator has to beat
    // scheduler noise on a busy 1-CPU host by an order of magnitude.
    const RUNS: u64 = 360;
    let cfg = ExperimentConfig::by_name("E33-SSD")
        .expect("E33-SSD is a Table 1 row")
        .scaled_down(8);
    let exp = Experiment::build(cfg);
    let method = MethodSpec::Is {
        workers: 8,
        prefetch: 0,
    };

    // Untimed warm-up, same rationale as the tracing bench.
    let mut checksum = 0u64;
    {
        let mut dev = exp.make_device();
        let mut pool = exp.make_pool();
        let m = exp
            .run_with(dev.as_mut(), &mut pool, method, 0.01)
            .expect("clean device cannot fail");
        checksum ^= m.io.io_ops;
    }

    let mut time_run = |mode: u8| -> f64 {
        let mut dev = exp.make_device();
        let mut pool = exp.make_pool();
        let started = Instant::now();
        let m = match mode {
            0 => exp.run_with(dev.as_mut(), &mut pool, method, 0.01),
            1 => {
                let mut reg = MetricsRegistry::disabled();
                exp.run_with_metrics(dev.as_mut(), &mut pool, method, 0.01, &mut reg)
            }
            _ => {
                let mut reg = MetricsRegistry::enabled(SimDuration::from_millis(1));
                exp.run_with_metrics(dev.as_mut(), &mut pool, method, 0.01, &mut reg)
            }
        }
        .expect("clean device cannot fail");
        let t = started.elapsed().as_secs_f64();
        checksum ^= m.io.io_ops;
        t
    };
    // The three modes interleave at single-run (~5ms) granularity with the
    // starting mode rotated every cycle. Coarser block-at-a-time timing
    // kept flaking the 1.02x gate two different ways: a fixed 0,1,2 block
    // order hands mode 0 the coolest slot every time (a systematic ~2%
    // phantom "overhead" on the later modes, though the disabled path is
    // instruction-identical to the baseline), and even rotated blocks can
    // alias against periodic host activity so one mode soaks a
    // disturbance the others miss. At per-run granularity anything longer
    // than a few milliseconds lands on all three modes evenly, and the
    // per-mode *median* of 360 runs estimates the typical cost with the
    // outliers discarded symmetrically. Absolute seconds are still
    // best-of (the cleanest run each mode achieved).
    let mut runs: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for cycle in 0..RUNS {
        for slot in 0..3u64 {
            let mode = ((cycle + slot) % 3) as u8;
            runs[mode as usize].push(time_run(mode));
        }
    }
    let median = |v: &[f64]| -> f64 {
        let mut v = v.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let best = |v: &[f64]| -> f64 { v.iter().copied().fold(f64::INFINITY, f64::min) };
    let [baseline_s, disabled_s, enabled_s] = [best(&runs[0]), best(&runs[1]), best(&runs[2])];
    let disabled_ratio = median(&runs[1]) / median(&runs[0]);
    let enabled_ratio = median(&runs[2]) / median(&runs[1]);

    let cells = small_metrics_cells(7);
    let slos = default_slos();
    let bundle = capture_metrics(&cells, SimDuration::from_millis(1), &slos, 2)
        .expect("metrics capture over Table 1 rows cannot fail");
    eprintln!(
        "[bench] metrics: {RUNS} PIS8 scans (checksum {checksum:x}); \
         baseline {baseline_s:.3}s, disabled {disabled_s:.3}s ({disabled_ratio:.3}x), \
         enabled {enabled_s:.3}s ({enabled_ratio:.3}x); {} SLOs, pass={}",
        bundle.verdicts.len(),
        bundle.slo_pass(),
    );
    MetricsBench {
        runs: RUNS,
        baseline_s,
        disabled_s,
        enabled_s,
        disabled_ratio,
        enabled_ratio,
        slo_checks: bundle.verdicts.len() as u64,
        slo_pass: bundle.slo_pass(),
    }
}

/// Throughput of the query layer's three hot paths.
struct QueryLayerBench {
    table_rows: u64,
    filtered_scan_rows_per_sec: f64,
    join_left_rows: u64,
    join_right_rows: u64,
    hash_join_rows_per_sec: f64,
    inl_join_rows_per_sec: f64,
}

/// Time the PR 10 query path wall-clock: a filtered FTS scan (sargable C2
/// window AND a residual C1 term, both evaluated inside the driver's page
/// visits) over a 200K-row table, and both join operators consuming a
/// 20K-row outer against a 40K-row inner. Throughput is input rows per
/// wall second, best-of-three per shape.
fn bench_query_layer() -> QueryLayerBench {
    use pioqo_exec::{
        execute, FtsConfig, HashJoinConfig, InlConfig, JoinClause, PlanSpec, Predicate, QuerySpec,
    };
    use pioqo_storage::BTreeIndex;

    const TABLE_ROWS: u64 = 200_000;
    const LEFT_ROWS: u64 = 20_000;
    const RIGHT_ROWS: u64 = 40_000;
    const KEY_MAX: u32 = 9_999;

    // Scan fixture.
    let scan_spec = TableSpec::paper_table(33, TABLE_ROWS, 7);
    let mut scan_ts = Tablespace::new(2 * scan_spec.n_pages() + 1_000);
    let scan_table = HeapTable::create(scan_spec, &mut scan_ts).expect("bench table fits");
    let scan_capacity = scan_ts.capacity();
    let scan_pred = Predicate::And(vec![
        Predicate::c2_between(0, u32::MAX / 5),
        Predicate::Cmp {
            col: pioqo_exec::Col::C1,
            op: pioqo_exec::CmpOp::Ge,
            value: 1 << 20,
        },
    ]);

    // Join fixture (mirrors `workload::joins`).
    let lspec = TableSpec {
        c2_max: KEY_MAX,
        ..TableSpec::paper_table(33, LEFT_ROWS, 0x10)
    };
    let rspec = TableSpec {
        name: "T_inner".to_string(),
        c2_max: KEY_MAX,
        ..TableSpec::paper_table(33, RIGHT_ROWS, 0x20)
    };
    let mut join_ts = Tablespace::new(4 * (lspec.n_pages() + rspec.n_pages()) + 4_000);
    let left = HeapTable::create(lspec, &mut join_ts).expect("bench outer fits");
    let right = HeapTable::create(rspec, &mut join_ts).expect("bench inner fits");
    let right_index = BTreeIndex::build(
        "inner_c2",
        right.data().c2_entries(),
        right.spec().page_size,
        &mut join_ts,
    )
    .expect("bench index fits");
    let spill = join_ts
        .alloc("join_spill", 2 * (left.n_pages() + right.n_pages()) + 64)
        .expect("bench spill fits");
    let join_capacity = join_ts.capacity();

    let time_best = |q: &QuerySpec<'_>, capacity: u64| -> f64 {
        let mut best = f64::INFINITY;
        let mut checksum = 0u64;
        for _ in 0..3 {
            let mut dev = presets::consumer_pcie_ssd(capacity, 17);
            let mut pool = BufferPool::new(4_096);
            let mut ctx = SimContext::new(
                &mut dev,
                &mut pool,
                CpuConfig::paper_xeon(),
                CpuCosts::default(),
            );
            let started = Instant::now();
            let m = execute(&mut ctx, q).expect("clean device cannot fail");
            best = best.min(started.elapsed().as_secs_f64());
            checksum ^= m.fingerprint;
        }
        std::hint::black_box(checksum);
        best
    };

    let scan_q = QuerySpec::scan(&scan_table)
        .filter(scan_pred)
        .with_plan(PlanSpec::Fts(FtsConfig {
            workers: 8,
            ..FtsConfig::default()
        }));
    let scan_s = time_best(&scan_q, scan_capacity);

    let join_q = |plan: PlanSpec| {
        QuerySpec::scan(&left)
            .filter(Predicate::c2_between(0, KEY_MAX / 4))
            .with_plan(plan)
            .join(JoinClause {
                right: &right,
                right_index: Some(&right_index),
                spill: Some(spill),
            })
    };
    let hash_s = time_best(
        &join_q(PlanSpec::Hash(HashJoinConfig::default())),
        join_capacity,
    );
    let inl_s = time_best(&join_q(PlanSpec::Inl(InlConfig::default())), join_capacity);

    let join_rows = (LEFT_ROWS + RIGHT_ROWS) as f64;
    eprintln!(
        "[bench] query layer: filtered scan {:.0} rows/s; hash join {:.0} rows/s, \
         INL {:.0} rows/s",
        TABLE_ROWS as f64 / scan_s,
        join_rows / hash_s,
        join_rows / inl_s,
    );
    QueryLayerBench {
        table_rows: TABLE_ROWS,
        filtered_scan_rows_per_sec: TABLE_ROWS as f64 / scan_s,
        join_left_rows: LEFT_ROWS,
        join_right_rows: RIGHT_ROWS,
        hash_join_rows_per_sec: join_rows / hash_s,
        inl_join_rows_per_sec: join_rows / inl_s,
    }
}

/// Wall seconds of `repro all --scale N` at the given thread count, or
/// `None` when the run failed.
struct EndToEndBench {
    threads_1_s: Option<f64>,
    threads_4_s: Option<f64>,
}

/// Locate the release `repro` binary next to our own executable, building
/// it via cargo if it isn't there yet.
fn find_repro() -> Option<PathBuf> {
    let sibling = std::env::current_exe()
        .ok()?
        .parent()?
        .join(format!("repro{}", std::env::consts::EXE_SUFFIX));
    if !sibling.exists() {
        eprintln!("[bench] building repro (release) ...");
        let status = std::process::Command::new("cargo")
            .args(["build", "--release", "-p", "pioqo-repro"])
            .status()
            .ok()?;
        if !status.success() {
            return None;
        }
    }
    sibling.exists().then_some(sibling)
}

fn bench_end_to_end(scale: u64) -> EndToEndBench {
    let Some(repro) = find_repro() else {
        eprintln!("[bench] repro binary unavailable; skipping end-to-end runs");
        return EndToEndBench {
            threads_1_s: None,
            threads_4_s: None,
        };
    };
    let results = std::env::temp_dir().join(format!("pioqo-bench-{}", std::process::id()));
    let run = |threads: &str| -> Option<f64> {
        eprintln!("[bench] repro all --scale {scale} --threads {threads} ...");
        let started = Instant::now();
        let out = std::process::Command::new(&repro)
            .args(["all", "--scale", &scale.to_string(), "--threads", threads])
            .env("PIOQO_RESULTS", &results)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .ok()?;
        out.success().then(|| started.elapsed().as_secs_f64())
    };
    let t1 = run("1");
    let t4 = run("4");
    let _ = std::fs::remove_dir_all(&results);
    if let (Some(a), Some(b)) = (t1, t4) {
        eprintln!(
            "[bench] end-to-end: 1 thread {a:.1}s, 4 threads {b:.1}s ({:.2}x)",
            a / b
        );
    }
    EndToEndBench {
        threads_1_s: t1,
        threads_4_s: t4,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_num)
}

/// The measurement sections skipped under `--trace`.
#[derive(Default)]
struct Sections {
    eq: Option<EventQueueBench>,
    bp: Option<BufpoolBench>,
    conc: Option<ConcurrencyBench>,
    sessions: Option<SessionsBench>,
    wp: Option<WritePathBench>,
    metrics: Option<MetricsBench>,
    ql: Option<QueryLayerBench>,
    e2e: Option<EndToEndBench>,
}

fn render_json(cpus: usize, scale: u64, tr: &TracingBench, sections: &Sections) -> String {
    let Sections {
        eq,
        bp,
        conc,
        sessions,
        wp,
        metrics,
        ql,
        e2e,
    } = sections;
    let eq_json = match eq {
        Some(eq) => format!(
            "{{\n    \"host_logical_cpus\": {cpus},\n    \"events\": {},\n    \"pop_events_per_sec\": {},\n    \"pop_batch_events_per_sec\": {},\n    \"speedup\": {}\n  }}",
            eq.events,
            json_num(eq.pop_per_sec),
            json_num(eq.pop_batch_per_sec),
            json_num(eq.pop_batch_per_sec / eq.pop_per_sec),
        ),
        None => "null".to_string(),
    };
    let bp_json = match bp {
        Some(bp) => format!(
            "{{\n    \"host_logical_cpus\": {cpus},\n    \"accesses\": {},\n    \"dense_accesses_per_sec\": {},\n    \"reference_btree_accesses_per_sec\": {},\n    \"speedup\": {}\n  }}",
            bp.accesses,
            json_num(bp.dense_per_sec),
            json_num(bp.reference_per_sec),
            json_num(bp.dense_per_sec / bp.reference_per_sec),
        ),
        None => "null".to_string(),
    };
    let tr_json = format!(
        "{{\n    \"host_logical_cpus\": {cpus},\n    \"runs\": {},\n    \"disabled_wall_s\": {},\n    \"enabled_wall_s\": {},\n    \"overhead_ratio\": {},\n    \"events_per_run\": {}\n  }}",
        tr.runs,
        json_num(tr.disabled_s),
        json_num(tr.enabled_s),
        json_num(tr.overhead_ratio),
        tr.events_per_run,
    );
    let conc_json = match conc {
        Some(c) => format!(
            "{{\n    \"host_logical_cpus\": {cpus},\n    \"runs\": {},\n    \"sessions\": {},\n    \"queries\": {},\n    \"wall_s_per_run\": {},\n    \"sim_makespan_ms\": {},\n    \"queries_per_wall_s\": {},\n    \"admissions\": {},\n    \"admissions_per_sec\": {}\n  }}",
            c.runs,
            c.sessions,
            c.queries,
            json_num(c.wall_s_per_run),
            json_num(c.sim_makespan_ms),
            json_num(c.queries as f64 / c.wall_s_per_run),
            c.admissions,
            json_num(c.admissions_per_sec),
        ),
        None => "null".to_string(),
    };
    let sessions_json = match sessions {
        Some(s) => format!(
            "{{\n    \"host_logical_cpus\": {cpus},\n    \"sessions_1k\": {},\n    \"unshared_wall_s\": {},\n    \"shared_wall_s\": {},\n    \"unshared_queries_per_wall_s\": {},\n    \"shared_queries_per_wall_s\": {},\n    \"shared_speedup_1k\": {},\n    \"attach_rate_1k\": {},\n    \"sessions_100k\": {},\n    \"sessions_100k_wall_s\": {},\n    \"sessions_100k_queries_per_wall_s\": {}\n  }}",
            s.sessions_1k,
            json_num(s.unshared_wall_s),
            json_num(s.shared_wall_s),
            json_num(s.unshared_queries_per_wall_s),
            json_num(s.shared_queries_per_wall_s),
            json_num(s.shared_speedup_1k),
            json_num(s.attach_rate_1k),
            s.sessions_100k,
            json_num(s.sessions_100k_wall_s),
            json_num(s.sessions_100k_queries_per_wall_s),
        ),
        None => "null".to_string(),
    };
    let wp_json = match wp {
        Some(w) => format!(
            "{{\n    \"host_logical_cpus\": {cpus},\n    \"commits\": {},\n    \"wal_records\": {},\n    \"commits_per_sec\": {},\n    \"recover_wall_s\": {},\n    \"pages_verified\": {}\n  }}",
            w.commits,
            w.wal_records,
            json_num(w.commits_per_sec),
            json_num(w.recover_wall_s),
            w.pages_verified,
        ),
        None => "null".to_string(),
    };
    let metrics_json = match metrics {
        Some(m) => format!(
            "{{\n    \"host_logical_cpus\": {cpus},\n    \"runs\": {},\n    \"baseline_wall_s\": {},\n    \"disabled_wall_s\": {},\n    \"enabled_wall_s\": {},\n    \"disabled_overhead_ratio\": {},\n    \"enabled_overhead_ratio\": {},\n    \"slo_checks\": {},\n    \"slo_pass\": {}\n  }}",
            m.runs,
            json_num(m.baseline_s),
            json_num(m.disabled_s),
            json_num(m.enabled_s),
            json_num(m.disabled_ratio),
            json_num(m.enabled_ratio),
            m.slo_checks,
            m.slo_pass,
        ),
        None => "null".to_string(),
    };
    let ql_json = match ql {
        Some(q) => format!(
            "{{\n    \"host_logical_cpus\": {cpus},\n    \"table_rows\": {},\n    \"filtered_scan_rows_per_sec\": {},\n    \"join_left_rows\": {},\n    \"join_right_rows\": {},\n    \"hash_join_rows_per_sec\": {},\n    \"inl_join_rows_per_sec\": {}\n  }}",
            q.table_rows,
            json_num(q.filtered_scan_rows_per_sec),
            q.join_left_rows,
            q.join_right_rows,
            json_num(q.hash_join_rows_per_sec),
            json_num(q.inl_join_rows_per_sec),
        ),
        None => "null".to_string(),
    };
    let e2e_json = match e2e {
        Some(e2e) => {
            let speedup = match (e2e.threads_1_s, e2e.threads_4_s) {
                (Some(a), Some(b)) if b > 0.0 => json_num(a / b),
                _ => "null".to_string(),
            };
            format!(
                "{{\n    \"host_logical_cpus\": {cpus},\n    \"target\": \"all\",\n    \"scale\": {scale},\n    \"threads_1_wall_s\": {},\n    \"threads_4_wall_s\": {},\n    \"threads_1v4_speedup\": {}\n  }}",
                json_opt(e2e.threads_1_s),
                json_opt(e2e.threads_4_s),
                speedup,
            )
        }
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"bench\": \"pr10\",\n  \"host_logical_cpus\": {cpus},\n  \"event_queue\": {eq_json},\n  \"bufpool\": {bp_json},\n  \"tracing\": {tr_json},\n  \"concurrency\": {conc_json},\n  \"sessions\": {sessions_json},\n  \"write_path\": {wp_json},\n  \"metrics\": {metrics_json},\n  \"query_layer\": {ql_json},\n  \"end_to_end\": {e2e_json}\n}}\n"
    )
}
