//! The session-engine targets: `concurrency-grid`, `joins`,
//! `interference` and `session-scale`, one golden CSV each. All take
//! `--seed` (default 42) and `--scale`.

use crate::figs::Opts;
use crate::report::{f2, or_exit, results_dir, write_artifacts, TextTable};
use pioqo_exec::WriteConfig;
use pioqo_optimizer::OptimizerConfig;
use pioqo_simkit::SimDuration;
use pioqo_workload::{
    concurrency_grid, interference_sweep, join_grid, session_scale_sweep, to_csv,
    ConcurrencyConfig, CsvRow, DeviceKind, JoinGridConfig, SessionScaleConfig,
};

const DEVICES: [DeviceKind; 3] = [DeviceKind::Hdd, DeviceKind::Ssd, DeviceKind::Raid8];

fn grid_config(opts: Opts) -> ConcurrencyConfig {
    let mut cfg = ConcurrencyConfig {
        seed: opts.seed.unwrap_or(42),
        ..ConcurrencyConfig::default()
    };
    if opts.scale > 1 {
        cfg.rows = (cfg.rows / opts.scale).max(1_000);
    }
    cfg
}

/// Write a grid's full-fidelity CSV — the golden artifact; the text table
/// each target prints is a digest of it.
fn write_grid<C: CsvRow>(stem: &str, opts: Opts, cells: &[C]) {
    let name = format!("{stem}{}.csv", opts.suffix());
    write_artifacts(&results_dir(), &[(&name, &to_csv(cells))]);
}

/// Run the sessions ∈ {1, 2, 4, 8, 16} × {HDD, SSD, RAID8} grid: every
/// query admitted through QDTT-aware admission control, so plan choice
/// and parallel degree shift as the per-query queue-depth lease shrinks.
pub fn concurrency(opts: Opts) {
    let cfg = grid_config(opts);
    eprintln!(
        "[concurrency-grid] {} rows/device, sessions {:?} ...",
        cfg.rows, cfg.session_counts
    );
    let threads = pioqo_simkit::par::thread_count();
    let cells = or_exit(
        concurrency_grid(&DEVICES, &cfg, &OptimizerConfig::fine_grained(), threads),
        "concurrency grid",
    );
    let mut t = TextTable::new(
        "Extension — multi-session workloads under QDTT-aware admission control",
        &[
            "device",
            "sessions",
            "completed",
            "makespan (ms)",
            "mean lat (us)",
            "fairness",
            "mean lease",
            "mean degree",
            "dominant plan",
        ],
    );
    for c in &cells {
        t.row(vec![
            c.device.clone(),
            c.sessions.to_string(),
            c.completed.to_string(),
            f2(c.makespan_ms),
            f2(c.mean_latency_us),
            f2(c.fairness),
            f2(c.mean_lease_depth),
            f2(c.mean_degree),
            c.dominant_plan(),
        ]);
    }
    t.print();
    write_grid("concurrency_grid", opts, &cells);
}

/// Run the join-crossover grid: devices ∈ {HDD, SSD, RAID8} × sessions ∈
/// {1, 4, 16}. Each cell costs index-nested-loop and hybrid-hash under
/// the cell's queue-depth lease, picks the cheaper, then executes both to
/// validate the pick. Exits nonzero if the two operators ever disagree on
/// an answer.
pub fn joins(opts: Opts) {
    let mut cfg = JoinGridConfig {
        seed: opts.seed.unwrap_or(42),
        ..JoinGridConfig::default()
    };
    if opts.scale > 1 {
        cfg.left_rows = (cfg.left_rows / opts.scale).max(2_000);
        cfg.right_rows = (cfg.right_rows / opts.scale).max(1_000);
    }
    eprintln!(
        "[joins] {}x{} rows, sessions {:?}, sel {} ...",
        cfg.left_rows, cfg.right_rows, cfg.session_counts, cfg.selectivity
    );
    let threads = pioqo_simkit::par::thread_count();
    let cells = or_exit(join_grid(&DEVICES, &cfg, threads), "join grid");
    let mut t = TextTable::new(
        "Extension — QDTT-costed joins: INL vs hybrid hash per device and lease",
        &[
            "device",
            "sessions",
            "lease qd",
            "INL est (us)",
            "HHJ est (us)",
            "chosen",
            "INL run (us)",
            "HHJ run (us)",
            "agree",
        ],
    );
    for c in &cells {
        t.row(vec![
            c.device.clone(),
            c.sessions.to_string(),
            c.lease_depth.to_string(),
            f2(c.inl_est_us),
            f2(c.hash_est_us),
            c.chosen.clone(),
            f2(c.inl_run_us),
            f2(c.hash_run_us),
            c.agree.to_string(),
        ]);
        if !c.answers_match {
            eprintln!(
                "error: {}/{} sessions: join operators disagree on the answer",
                c.device, c.sessions
            );
            std::process::exit(1);
        }
    }
    t.print();
    write_grid("join_crossover", opts, &cells);
}

/// Run the scan-vs-checkpoint interference sweep: sessions ∈ {1, 4, 16}
/// on the SSD fixture, each twice — flusher off, then the full write
/// path (WAL group commit + background writeback) sharing the device.
pub fn interference(opts: Opts) {
    let cfg = ConcurrencyConfig {
        session_counts: vec![1, 4, 16],
        ..grid_config(opts)
    };
    // Busy enough that checkpoint writes overlap the scan window.
    let writes = WriteConfig {
        writers: 4,
        commits_per_writer: 48,
        think: SimDuration::from_micros_f64(300.0),
        group_commit: SimDuration::from_micros_f64(150.0),
        flush_interval: SimDuration::from_micros_f64(500.0),
        flush_batch: 8,
        seed: cfg.seed,
        ..WriteConfig::default()
    };
    eprintln!(
        "[interference] {} rows, sessions {:?}, flusher off/on ...",
        cfg.rows, cfg.session_counts
    );
    let cells = or_exit(
        interference_sweep(&cfg, &writes, 4_000, &OptimizerConfig::fine_grained()),
        "interference sweep",
    );
    let mut t = TextTable::new(
        "Extension — scan p99 with the background flusher off vs on",
        &[
            "sessions",
            "flusher",
            "completed",
            "makespan (ms)",
            "mean lat (us)",
            "p99 lat (us)",
            "commits",
            "page flushes",
        ],
    );
    for c in &cells {
        t.row(vec![
            c.sessions.to_string(),
            if c.flusher { "on" } else { "off" }.to_string(),
            c.completed.to_string(),
            f2(c.makespan_ms),
            f2(c.mean_latency_us),
            c.p99_latency_us.to_string(),
            c.commits_acked.to_string(),
            c.data_page_flushes.to_string(),
        ]);
    }
    t.print();
    write_grid("interference", opts, &cells);
}

/// Run the session-scale sweep: sessions ∈ {1K, 10K} on the SSD fixture,
/// each twice — every query on its own cursor, then all scans riding the
/// cooperative shared-scan hub.
pub fn session_scale(opts: Opts) {
    let mut cfg = SessionScaleConfig {
        seed: opts.seed.unwrap_or(42),
        ..SessionScaleConfig::default()
    };
    if opts.scale > 1 {
        cfg.session_counts = cfg
            .session_counts
            .iter()
            .map(|&s| (s / opts.scale as u32).max(64))
            .collect();
    }
    eprintln!(
        "[session-scale] {} rows, sessions {:?}, shared off/on ...",
        cfg.rows, cfg.session_counts
    );
    let threads = pioqo_simkit::par::thread_count();
    let cells = or_exit(session_scale_sweep(&cfg, threads), "session-scale sweep");
    let mut t = TextTable::new(
        "Extension — overlapping scans at session scale: shared cursor off vs on",
        &[
            "sessions",
            "shared",
            "completed",
            "makespan (ms)",
            "p99 lat (us)",
            "fairness",
            "attach rate",
            "cursor starts",
            "q/sim-s",
        ],
    );
    for c in &cells {
        t.row(vec![
            c.sessions.to_string(),
            if c.shared { "on" } else { "off" }.to_string(),
            c.completed.to_string(),
            f2(c.makespan_ms),
            c.p99_latency_us.to_string(),
            f2(c.fairness),
            f2(c.attach_rate),
            c.cursor_starts.to_string(),
            f2(c.queries_per_sim_s),
        ]);
    }
    t.print();
    write_grid("session_scale", opts, &cells);
}
