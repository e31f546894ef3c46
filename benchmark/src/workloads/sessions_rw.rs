//! `sessions_rw` — `MultiEngine` under `QdttAdmission`, reads beside
//! writes: the only workload that exercises the session scheduler, the
//! shared-scan hub, admission leases, the WAL/flusher and recovery. All
//! sessions are closed-loop with exponential think time inside one event
//! loop.

use super::{latency_metrics, make_device, paper_context, sub_seed, TracedPass, Workload};
use crate::report::{per, Failure, Values};
use crate::runner::{Outcome, PassRecorder};
use crate::timing::{tail_rank, timed};
use crate::trace::{on_pass, spanned, Layer, PoolCounts, TimedPlanner, Tracer};
use pioqo_bufpool::wal::{Wal, WalOp};
use pioqo_bufpool::BufferPool;
use pioqo_core::{CalibrationConfig, Calibrator, Qdtt};
use pioqo_device::{CrashPlan, Crashable, DeviceModel, MediaStore};
use pioqo_exec::{
    drive_writes, recover, ExecError, MultiEngine, QuerySpec, SimContext, ThinkTime,
    WorkloadReport, WorkloadSpec, WriteConfig, WriteStats, WriteSystem,
};
use pioqo_optimizer::{OptimizerConfig, QdttAdmission};
use pioqo_simkit::{SimDuration, SimTime};
use pioqo_storage::{
    decode_heap_page, encode_heap_page, range_for_selectivity, BTreeIndex, Extent, HeapTable,
    TableSpec, Tablespace,
};
use pioqo_workload::DeviceKind;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The session-scale fixture of cell (a): a 300-page table under a pool
/// that cannot swallow it. A pool that holds the whole table silently
/// turns the shared sessions into broadcast solo drivers (asserted).
const SMALL_ROWS: u64 = 9_900;
const SMALL_FRAMES: usize = 128;
const SHARED_SESSIONS: u32 = 10_000;
const SHARED_SELECTIVITY: f64 = 0.4;

/// The fixture of cells (b)-(d): table > pool, and a pool large enough
/// that eight writers' pinned and dirty pages never exhaust it (128- and
/// 512-frame pools did).
const MEDIUM_ROWS: u64 = 132_000;
const MEDIUM_FRAMES: usize = 2_048;
const MIX_SELECTIVITIES: [f64; 3] = [0.001, 0.01, 0.05];

/// The write table and its WAL. 1 600 commits overflowed a 2 048-page
/// extent on HDD/RAID8 (slow flushes seal more, smaller segments).
const WRITE_ROWS: u64 = 33_000;
const WAL_PAGES: u64 = 16_384;
const WRITERS: u32 = 8;
const COMMITS_PER_WRITER: u32 = 200;

const THINK_MEAN_US: u64 = 2_000;

/// The ops of one pass, in order.
const OPS: [&str; 7] = [
    "a_ssd_10000x1_shared",
    "b_ssd_64x8_writers",
    "c_raid8_32x8_writers",
    "d_hdd_8x6_readonly",
    "e_writes_only",
    "e_crash_run",
    "e_recover",
];

/// One read table with its index, optional write side, and the devices'
/// calibrated models.
struct Bed {
    table: HeapTable,
    index: BTreeIndex,
    capacity: u64,
    frames: usize,
    models: BTreeMap<u8, Qdtt>,
}

/// The write side of the medium bed.
struct WriteSide {
    table: HeapTable,
    wal: Extent,
    /// Every page of the write table as first written.
    base_media: MediaStore,
}

/// Everything `sessions_rw` builds in set-up.
pub struct Fixture {
    small: Bed,
    medium: Bed,
    write: WriteSide,
    seed: u64,
    quick: bool,
    storage_build_s: f64,
}

/// Write-path counters of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct WriteCounts {
    commits: u64,
    wal_pages: u64,
    data_page_flushes: u64,
    checkpoints: u64,
}

impl From<&WriteStats> for WriteCounts {
    fn from(s: &WriteStats) -> WriteCounts {
        WriteCounts {
            commits: s.commits_acked,
            wal_pages: s.wal_pages,
            data_page_flushes: s.data_page_flushes,
            checkpoints: s.checkpoints,
        }
    }
}

/// What one `sessions_rw` op computed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessOutcome {
    /// Queries completed and first-admission-to-last-completion time.
    completed: u64,
    makespan_ns: u64,
    /// Per-query `(selectivity bits, latency ns, MAX, rows matched)`.
    queries: Vec<(u64, u64, Option<u32>, u64)>,
    attaches: u64,
    cursor_starts: u64,
    pool: PoolCounts,
    io_ops: u64,
    /// Admission journal: decisions and Σ lease depth of the solo ones.
    admissions: u64,
    solo_admissions: u64,
    lease_depth_sum: u64,
    writes: WriteCounts,
    /// Crash/recovery: durable horizon, highest acknowledged LSN, pages
    /// replayed, and the digests of the recovered table and of the
    /// durable-prefix oracle (which must agree).
    durable_lsn: u64,
    max_acked_lsn: u64,
    pages_replayed: u64,
    unrecoverable: u64,
    media_digest: u64,
    oracle_digest: u64,
    error: Option<String>,
}

impl Outcome for SessOutcome {
    fn panicked(msg: String) -> SessOutcome {
        SessOutcome {
            error: Some(msg),
            ..SessOutcome::default()
        }
    }
    fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn build_bed(rows: u64, frames: usize, extra_pages: u64, seed: u64) -> (Bed, Tablespace) {
    let spec = TableSpec::paper_table(33, rows, seed);
    let mut ts =
        Tablespace::new(2 * (spec.n_pages() + rows.div_ceil(300) + 64) + extra_pages + 4_096);
    let table = HeapTable::create(spec, &mut ts).expect("tablespace sized to fit");
    let index = BTreeIndex::build(
        "c2",
        table.data().c2_entries(),
        table.spec().page_size,
        &mut ts,
    )
    .expect("tablespace sized to fit");
    let capacity = ts.capacity();
    (
        Bed {
            table,
            index,
            capacity,
            frames,
            models: BTreeMap::new(),
        },
        ts,
    )
}

fn device_seed(seed: u64, kind: DeviceKind) -> u64 {
    sub_seed(seed, 0x410 + kind as u64)
}

/// Calibrate `bed`'s devices with the paper defaults (set-up work here).
fn calibrate(bed: &mut Bed, kinds: &[DeviceKind], seed: u64) {
    for &kind in kinds {
        let mut dev = make_device(kind, bed.capacity, device_seed(seed, kind));
        let cal = Calibrator::new(CalibrationConfig::for_device(
            bed.capacity,
            sub_seed(seed, 0x420),
        ));
        bed.models
            .insert(kind as u8, cal.calibrate_qdtt(&mut *dev).0);
    }
}

impl Fixture {
    fn device(&self, bed: &Bed, kind: DeviceKind, tr: Option<&Rc<Tracer>>) -> Box<dyn DeviceModel> {
        on_pass(
            make_device(kind, bed.capacity, device_seed(self.seed, kind)),
            tr,
        )
    }

    fn workload(&self, sessions: u32, queries: u32, shared: bool, stream: u64) -> WorkloadSpec {
        let cut = if self.quick { 8 } else { 1 };
        WorkloadSpec {
            sessions: (sessions / cut).max(2),
            queries_per_session: queries,
            think: ThinkTime::Exponential {
                mean: SimDuration::from_micros(THINK_MEAN_US),
            },
            selectivities: if shared {
                vec![SHARED_SELECTIVITY]
            } else {
                MIX_SELECTIVITIES.to_vec()
            },
            seed: sub_seed(self.seed, 0x430 + stream),
            horizon: None,
            writes: None,
            shared_scans: shared,
            record_limit: None,
        }
    }

    fn write_config(&self) -> WriteConfig {
        WriteConfig {
            writers: WRITERS,
            commits_per_writer: if self.quick {
                COMMITS_PER_WRITER / 8
            } else {
                COMMITS_PER_WRITER
            },
            think: SimDuration::from_micros(300),
            group_commit: SimDuration::from_micros(150),
            flush_interval: SimDuration::from_micros(500),
            flush_batch: 8,
            seed: sub_seed(self.seed, 0x440),
            ..WriteConfig::default()
        }
    }

    fn write_system(&self, media: MediaStore) -> WriteSystem {
        WriteSystem::new(
            self.write_config(),
            &self.write.table,
            self.write.wal,
            media,
        )
    }

    /// One `MultiEngine` cell on a fresh device and a flushed pool.
    fn run_cell(
        &self,
        bed: &Bed,
        kind: DeviceKind,
        spec: WorkloadSpec,
        writers: bool,
        tr: Option<&Rc<Tracer>>,
    ) -> SessOutcome {
        let mut device = self.device(bed, kind, tr);
        let mut pool = BufferPool::new(bed.frames);
        let mut planner = QdttAdmission::new(
            &bed.table,
            &bed.index,
            bed.models[&(kind as u8)].clone(),
            OptimizerConfig::fine_grained(),
        );
        let base = QuerySpec::range_max(&bed.table, Some(&bed.index), 0, 0);
        let mut ws = writers.then(|| self.write_system(MediaStore::new(4096)));
        let result = {
            let mut ctx = paper_context(&mut *device, &mut pool);
            match tr {
                None => run_engine(spec, base, &mut planner, &mut ctx, ws.as_mut()),
                Some(tr) => {
                    let timed = TimedPlanner::new(&mut planner, tr.clone());
                    tr.span(Layer::Session, || {
                        run_engine(spec, base, timed, &mut ctx, ws.as_mut())
                    })
                }
            }
        };
        let report = match result {
            Ok(r) => r,
            Err(e) => return SessOutcome::panicked(e.to_string()),
        };
        let journal = planner.decisions();
        let solo = journal.iter().filter(|d| !d.attached);
        SessOutcome {
            completed: report.total_completed(),
            makespan_ns: report.makespan.as_nanos(),
            queries: report
                .records
                .iter()
                .map(|r| {
                    (
                        r.selectivity.to_bits(),
                        r.latency.as_nanos(),
                        r.max_c1,
                        r.rows_matched,
                    )
                })
                .collect(),
            attaches: report.shared.attaches,
            cursor_starts: report.shared.cursor_starts,
            pool: PoolCounts::from(&report.pool),
            io_ops: report.io.io_ops,
            admissions: journal.len() as u64,
            solo_admissions: solo.clone().count() as u64,
            lease_depth_sum: solo.map(|d| u64::from(d.lease_depth)).sum(),
            writes: report
                .writes
                .as_ref()
                .map_or_else(WriteCounts::default, WriteCounts::from),
            ..SessOutcome::default()
        }
    }
}

fn run_engine<P: pioqo_exec::AdmissionPlanner>(
    spec: WorkloadSpec,
    base: QuerySpec<'_>,
    planner: P,
    ctx: &mut SimContext<'_>,
    ws: Option<&mut WriteSystem>,
) -> Result<WorkloadReport, ExecError> {
    let engine = MultiEngine::new(spec, base, planner);
    match ws {
        Some(ws) => engine.run_with_writes(ctx, ws),
        None => engine.run(ctx),
    }
}

/// The workload.
pub struct SessionsRw;

impl Workload for SessionsRw {
    type Fixture = Fixture;
    type Outcome = SessOutcome;
    const NAME: &'static str = "sessions_rw";
    const WHY: &'static str = "closed-loop sessions under QdttAdmission: 10000 shared-scan sessions, 64x8 and 32x8 unshared beside 8 writers, 8x6 on HDD, crash + recover; scheduler, ScanHub, leases, WAL/flusher, recovery";
    const NOMINAL_PASS_S: f64 = 4.4;
    const SETUP_REPS: usize = 9;

    fn setup(seed: u64, quick: bool) -> Fixture {
        let ((small, medium, write), build_ns) = timed(|| {
            let (small, _) = build_bed(SMALL_ROWS, SMALL_FRAMES, 0, sub_seed(seed, 0x401));
            let wspec = TableSpec {
                name: "W33".to_string(),
                ..TableSpec::paper_table(33, WRITE_ROWS, sub_seed(seed, 0x403))
            };
            let (medium, mut ts) = build_bed(
                MEDIUM_ROWS,
                MEDIUM_FRAMES,
                wspec.n_pages() + WAL_PAGES,
                sub_seed(seed, 0x402),
            );
            let table = HeapTable::create(wspec, &mut ts).expect("tablespace sized to fit");
            let wal = ts.alloc("wal", WAL_PAGES).expect("tablespace sized to fit");
            let mut base_media = MediaStore::new(table.spec().page_size);
            for local in 0..table.n_pages() {
                base_media.write(table.device_page(local), &table.page_image(local));
            }
            (
                small,
                medium,
                WriteSide {
                    table,
                    wal,
                    base_media,
                },
            )
        });
        let (mut small, mut medium) = (small, medium);
        calibrate(&mut small, &[DeviceKind::Ssd], seed);
        calibrate(
            &mut medium,
            &[DeviceKind::Ssd, DeviceKind::Raid8, DeviceKind::Hdd],
            seed,
        );
        let fx = Fixture {
            small,
            medium,
            write,
            seed,
            quick,
            storage_build_s: build_ns as f64 / 1e9,
        };
        // Sizing assertions (see the constants above).
        assert!(
            (fx.small.table.n_pages() as usize) > 2 * SMALL_FRAMES,
            "the shared-scan table must not fit its pool"
        );
        assert!(
            (fx.medium.table.n_pages() as usize) > MEDIUM_FRAMES,
            "the mixed-cell table must not fit its pool"
        );
        assert!(
            WAL_PAGES >= 8 * u64::from(WRITERS * COMMITS_PER_WRITER),
            "WAL extent must hold every commit's segments with room to spare"
        );
        fx
    }

    fn storage_build_s(fx: &Fixture) -> f64 {
        fx.storage_build_s
    }

    fn pass(fx: &Fixture, rec: &mut PassRecorder<SessOutcome>) {
        let tracer = rec.tracer().cloned();
        let tr = tracer.as_ref();
        let name = |op: usize| OPS[op].to_string();

        rec.op(name(0), || {
            let spec = fx.workload(SHARED_SESSIONS, 1, true, 0);
            fx.run_cell(&fx.small, DeviceKind::Ssd, spec, false, tr)
        });
        rec.op(name(1), || {
            let spec = fx.workload(64, 8, false, 1);
            fx.run_cell(&fx.medium, DeviceKind::Ssd, spec, true, tr)
        });
        rec.op(name(2), || {
            let spec = fx.workload(32, 8, false, 2);
            fx.run_cell(&fx.medium, DeviceKind::Raid8, spec, true, tr)
        });
        rec.op(name(3), || {
            let spec = fx.workload(8, 6, false, 3);
            fx.run_cell(&fx.medium, DeviceKind::Hdd, spec, false, tr)
        });

        // (e) The writers of (b) alone, clean: the reference end time the
        // crash is placed inside, and `write.only_commits_per_s`.
        let mut clean_end = SimTime::ZERO;
        rec.op(name(4), || {
            let mut device = fx.device(&fx.medium, DeviceKind::Ssd, tr);
            let mut pool = BufferPool::new(MEDIUM_FRAMES);
            let mut ctx = paper_context(&mut *device, &mut pool);
            let mut ws = fx.write_system(fx.write.base_media.clone());
            let r = spanned(tr, Layer::Write, || drive_writes(&mut ctx, &mut ws));
            if let Err(e) = r {
                return SessOutcome::panicked(e.to_string());
            }
            clean_end = ctx.now();
            SessOutcome {
                makespan_ns: clean_end.since(SimTime::ZERO).as_nanos(),
                writes: WriteCounts::from(&ws.stats()),
                ..SessOutcome::default()
            }
        });

        // The same run, crashed half way; what the crash left on media
        // goes to the recover op, the durable-prefix oracle is built here.
        let mut crashed_media: Option<MediaStore> = None;
        rec.op(name(5), || {
            let at = SimTime::ZERO + clean_end.since(SimTime::ZERO) * 0.5;
            let crash_seed = sub_seed(fx.seed, 0x450);
            let mut device = Crashable::new(
                fx.device(&fx.medium, DeviceKind::Ssd, tr),
                CrashPlan::at(at, crash_seed),
            );
            let mut pool = BufferPool::new(MEDIUM_FRAMES);
            let mut ws = fx.write_system(fx.write.base_media.clone());
            let r = {
                let mut ctx = paper_context(&mut device, &mut pool);
                spanned(tr, Layer::Write, || drive_writes(&mut ctx, &mut ws))
            };
            if r != Err(ExecError::Crashed) {
                return SessOutcome::panicked(format!(
                    "a crash inside the run must surface as Crashed, got {r:?}"
                ));
            }
            let Some(report) = device.crash_report() else {
                return SessOutcome::panicked("crashed device has no report".to_string());
            };
            ws.apply_crash(report, crash_seed);
            let commits = ws.stats().commits_acked;
            let max_acked_lsn = ws.acked_lsns().iter().copied().max().unwrap_or(0);
            let media = ws.into_media();
            let (durable_lsn, oracle_digest) = oracle_digest(&fx.write, &media);
            crashed_media = Some(media);
            SessOutcome {
                writes: WriteCounts {
                    commits,
                    ..WriteCounts::default()
                },
                durable_lsn,
                max_acked_lsn,
                oracle_digest,
                ..SessOutcome::default()
            }
        });

        rec.op(name(6), || {
            let Some(mut media) = crashed_media.take() else {
                return SessOutcome::panicked("no crashed media to recover".to_string());
            };
            let w = &fx.write;
            let stats = spanned(tr, Layer::Write, || {
                recover(&mut media, w.wal, w.table.spec(), w.table.extent())
            });
            let mut digest = FNV_OFFSET;
            for local in 0..w.table.n_pages() {
                digest = fnv(
                    digest,
                    media.read(w.table.device_page(local)).unwrap_or(&[]),
                );
            }
            SessOutcome {
                durable_lsn: stats.durable_lsn,
                pages_replayed: stats.pages_replayed,
                unrecoverable: stats.unrecoverable_pages.len() as u64,
                media_digest: digest,
                ..SessOutcome::default()
            }
        });
    }

    fn check(fx: &Fixture, outcomes: &[SessOutcome]) -> Vec<Failure> {
        let mut failures = Vec::new();
        if outcomes.len() != OPS.len() {
            failures.push(Failure {
                op: 0,
                reason: format!("{} ops ran, {} expected", outcomes.len(), OPS.len()),
            });
            return failures;
        }
        let mut fail = |op: usize, reason: String| {
            failures.push(Failure {
                op,
                reason: format!("{}: {reason}", OPS[op]),
            })
        };
        // Every query of every cell against the naive oracle.
        for (op, bed) in [
            (0, &fx.small),
            (1, &fx.medium),
            (2, &fx.medium),
            (3, &fx.medium),
        ] {
            let o = &outcomes[op];
            if o.error.is_some() {
                continue; // already failed by the runner
            }
            if o.completed != o.queries.len() as u64 || o.completed == 0 {
                fail(
                    op,
                    format!("{} completed, {} recorded", o.completed, o.queries.len()),
                );
            }
            let mut want: BTreeMap<u64, (Option<u32>, u64)> = BTreeMap::new();
            let wrong = o
                .queries
                .iter()
                .filter(|(sel, _, max, rows)| {
                    let w = want.entry(*sel).or_insert_with(|| {
                        let (low, high) =
                            range_for_selectivity(f64::from_bits(*sel), bed.table.spec().c2_max);
                        let data = bed.table.data();
                        (data.naive_max_c1(low, high), data.count_matching(low, high))
                    });
                    (*max, *rows) != *w
                })
                .count();
            if wrong > 0 {
                fail(op, format!("{wrong} answers differ from the oracle"));
            }
        }
        // The shared cell must really share, the writer cells really write.
        if outcomes[0].error.is_none() && outcomes[0].attaches * 10 < outcomes[0].completed * 9 {
            fail(
                0,
                format!(
                    "only {} of {} queries attached",
                    outcomes[0].attaches, outcomes[0].completed
                ),
            );
        }
        let want_commits =
            u64::from(fx.write_config().writers * fx.write_config().commits_per_writer);
        for op in [1, 2, 4] {
            if outcomes[op].error.is_none() && outcomes[op].writes.commits != want_commits {
                fail(
                    op,
                    format!(
                        "{} commits acknowledged, {want_commits} expected",
                        outcomes[op].writes.commits
                    ),
                );
            }
        }
        // Crash: acknowledged implies durable; recovery restores exactly
        // the durable prefix.
        let (crash, rec) = (&outcomes[5], &outcomes[6]);
        if crash.error.is_none() && rec.error.is_none() {
            if crash.max_acked_lsn > crash.durable_lsn {
                fail(
                    5,
                    format!(
                        "acked lsn {} past the durable horizon {}",
                        crash.max_acked_lsn, crash.durable_lsn
                    ),
                );
            }
            if rec.unrecoverable > 0 || rec.durable_lsn != crash.durable_lsn {
                fail(
                    6,
                    format!(
                        "{} unrecoverable pages, durable lsn {} vs {}",
                        rec.unrecoverable, rec.durable_lsn, crash.durable_lsn
                    ),
                );
            }
            if rec.media_digest != crash.oracle_digest {
                fail(
                    6,
                    "recovered media differs from the durable-prefix oracle".to_string(),
                );
            }
        }
        failures
    }

    fn end_to_end(_fx: &Fixture, outcomes: &[SessOutcome], v: &mut Values) {
        let cells = &outcomes[..4.min(outcomes.len())];
        let makespan_s: f64 = cells.iter().map(|o| o.makespan_ns as f64 / 1e9).sum();
        let completed: u64 = cells.iter().map(|o| o.completed).sum();
        v.insert("sim_time_s", makespan_s);
        latency_metrics(&latencies_ms(cells), v);
        v.insert("sim_qps", completed as f64 / makespan_s);
        let writers: Vec<&SessOutcome> = cells.iter().filter(|o| o.writes.commits > 0).collect();
        let commits: u64 = writers.iter().map(|o| o.writes.commits).sum();
        let writer_s: f64 = writers.iter().map(|o| o.makespan_ns as f64 / 1e9).sum();
        v.insert("sim_commits_per_s", commits as f64 / writer_s);
        // Plans are the admission planner's and are not re-run against
        // alternatives; see report::END_TO_END on neutral cells.
        for name in ["plan_regret", "qdtt_gain", "cost_err"] {
            v.insert(name, 1.0);
        }
    }

    fn per_layer(_fx: &Fixture, t: &TracedPass<'_, SessOutcome>, v: &mut Values) {
        let o = &t.untraced.outcomes;
        let wall_s = |op: usize| t.untraced.times.ops_s(std::iter::once(op));
        let mut pool = PoolCounts::default();
        for c in &o[..4] {
            pool.add(&c.pool);
        }
        super::pool_metrics(&pool, v);
        v.insert(
            "session.queries",
            o[..4].iter().map(|c| c.completed).sum::<u64>() as f64,
        );
        v.insert(
            "session.attach_rate",
            per(o[0].attaches as f64, o[0].completed),
        );
        v.insert("session.cursor_starts", o[0].cursor_starts as f64);
        v.insert(
            "session.us_per_query.shared",
            per(wall_s(0) * 1e6, o[0].completed),
        );
        v.insert(
            "session.us_per_query.unshared",
            per(wall_s(1) * 1e6, o[1].completed),
        );
        v.insert(
            "optimizer.mean_lease_depth",
            per(
                o[..4].iter().map(|c| c.lease_depth_sum).sum::<u64>() as f64,
                o[..4].iter().map(|c| c.solo_admissions).sum(),
            ),
        );
        let w = [&o[1], &o[2], &o[4]];
        let commits: u64 = w.iter().map(|c| c.writes.commits).sum();
        v.insert("write.commits", commits as f64);
        v.insert(
            "write.wal_pages_per_commit",
            per(
                w.iter().map(|c| c.writes.wal_pages).sum::<u64>() as f64,
                commits,
            ),
        );
        v.insert(
            "write.flushes_per_commit",
            per(
                w.iter().map(|c| c.writes.data_page_flushes).sum::<u64>() as f64,
                commits,
            ),
        );
        v.insert(
            "write.checkpoints",
            w.iter().map(|c| c.writes.checkpoints).sum::<u64>() as f64,
        );
        v.insert("write.pages_replayed", o[6].pages_replayed as f64);
        v.insert(
            "write.only_commits_per_s",
            o[4].writes.commits as f64 / wall_s(4),
        );
        v.insert("write.recover_s", wall_s(6));
    }

    fn notes(_fx: &Fixture, outcomes: &[SessOutcome]) -> Vec<String> {
        let cells = &outcomes[..4.min(outcomes.len())];
        let samples: usize = cells.iter().map(|o| o.queries.len()).sum();
        let (_, pct) = tail_rank(samples);
        let mut notes = vec![format!(
            "sim_p50_ms/sim_p99_ms over {} per-query latencies pooled across cells a-d (tail is p{pct:.1})",
            samples
        )];
        for (name, o) in OPS.iter().zip(outcomes) {
            notes.push(format!(
                "  {name}: {} queries, makespan {:.4} sim_s, {} attached / {} cursors, {} commits, {} io ops, mean lease {:.2}",
                o.completed,
                o.makespan_ns as f64 / 1e9,
                o.attaches,
                o.cursor_starts,
                o.writes.commits,
                o.io_ops,
                o.lease_depth_sum as f64 / o.solo_admissions.max(1) as f64,
            ));
        }
        notes
    }
}

fn latencies_ms(cells: &[SessOutcome]) -> Vec<f64> {
    cells
        .iter()
        .flat_map(|o| o.queries.iter().map(|q| q.1 as f64 / 1e6))
        .collect()
}

/// The independent durable-prefix oracle: replay the WAL prefix that
/// survived on `media` with a fresh interpreter (it shares only the page
/// codec with `recover`), and digest the table it implies — replayed
/// images for pages the log touched, the generated images for the rest.
/// Returns `(durable lsn, digest)`.
fn oracle_digest(w: &WriteSide, media: &MediaStore) -> (u64, u64) {
    let spec = w.table.spec();
    let scan = Wal::scan(w.wal.base, w.wal.pages, spec.page_size, |p| {
        media.read(p).map(<[u8]>::to_vec)
    });
    let mut rows: BTreeMap<u64, Vec<(u32, u32)>> = BTreeMap::new();
    for rec in &scan.records {
        match &rec.op {
            WalOp::PageImage { page, image } => {
                if let Ok(p) = decode_heap_page(spec, image) {
                    rows.insert(*page, p.rows);
                }
            }
            WalOp::Update { page, slot, value } => {
                if let Some(r) = rows.get_mut(page) {
                    r[*slot as usize].0 = *value;
                }
            }
            WalOp::Checkpoint { .. } => {}
        }
    }
    let mut digest = FNV_OFFSET;
    for local in 0..w.table.n_pages() {
        let dp = w.table.device_page(local);
        digest = match rows.get(&dp) {
            Some(r) => fnv(digest, &encode_heap_page(spec, local, r)),
            None => fnv(digest, &w.table.page_image(local)),
        };
    }
    (scan.durable_lsn, digest)
}
