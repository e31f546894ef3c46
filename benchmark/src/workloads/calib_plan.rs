//! `calib_plan` — no executor, no scans: calibration, the dense
//! D(band, depth) surface against held-out points, and the optimizer and
//! admission hot paths. It drives the device layer differently from
//! `cold_grid` (raw fixed-depth random reads, no engine) and is the one
//! workload where `core` and `optimizer` host time is most of the work.

use super::{latency_metrics, make_device, sub_seed, TracedPass, Workload, DEVICES};
use crate::report::{Failure, Values};
use crate::runner::{Outcome, PassRecorder};
use crate::timing::{log_ratio_err, tail_rank, timed};
use crate::trace::{on_pass, spanned, Layer};
use pioqo_bufpool::BufferPool;
use pioqo_core::{CalibrationConfig, CalibrationReport, Calibrator, Method, Qdtt};
use pioqo_device::DeviceModel;
use pioqo_exec::{AdmissionPlanner, QueryAdmission};
use pioqo_optimizer::{
    IndexStats, Optimizer, OptimizerConfig, QdttAdmission, QdttCost, TableStats,
};
use pioqo_storage::{BTreeIndex, Extent, HeapTable, TableSpec, Tablespace};
use pioqo_workload::DeviceKind;
use std::hint::black_box;

/// T33 at the paper's full scale: 8 M rows, laid out as `Dataset::build`
/// would (data + index, doubled, plus slack).
const T33_ROWS: u64 = 8_000_000;
const T33_PAGES: u64 = T33_ROWS.div_ceil(33);
const CAPACITY: u64 = (T33_PAGES + T33_ROWS.div_ceil(300) + 64) * 2 + 4096;
const LEAF_FANOUT: u32 = 338;

/// The dense surface: 12 depths 1...64, 3 repetitions, early stop off.
const DENSE_DEPTHS: [u32; 12] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];
const DENSE_REPS: u32 = 3;
/// Held-out points sit between the knots of the default grid on both
/// axes: bands at the log-midpoints of the x4 ladder, depths between the
/// powers of two.
const HELD_OUT_BANDS: [u64; 6] = [128, 512, 2_048, 8_192, 32_768, 131_072];
const HELD_OUT_DEPTHS: [u32; 4] = [3, 6, 12, 24];
/// `Optimizer::choose` calls and admit/complete cycles per device. The
/// issue's 200 K each is cut so that the device layer keeps
/// its share (README.md, "Sizing").
const CHOOSE_CALLS: u64 = 120_000;
const ADMIT_CYCLES: u64 = 120_000;
const MAX_OPEN_LEASES: u32 = 16;
/// Rows of the real table the admission planner is built over. Large
/// enough that most of the selectivity ladder selects more than the 4 096
/// rows below which `yao_pages` runs its O(k) exact product: on a 33 K-row
/// table every admission sat in that loop and cost 22 us instead of 4.
const ADMIT_TABLE_ROWS: u64 = 330_000;

const OPS_PER_DEVICE: usize = 6;
const OP_NAMES: [&str; OPS_PER_DEVICE] = [
    "calibrate_default",
    "dense_aw",
    "dense_gw",
    "held_out",
    "choose",
    "admit",
];

/// What one `calib_plan` op computed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibOutcome {
    /// Page reads the calibrator issued.
    reads: u64,
    /// Grid points measured / filled by the early stop.
    measured: u64,
    defaulted: u64,
    /// Virtual time spent reading, nanoseconds.
    virtual_ns: u64,
    /// The op's numbers: surface knots (µs/page), held-out `(estimate,
    /// measured)` pairs flattened, or the choose/admit checksums.
    values: Vec<f64>,
    error: Option<String>,
}

impl Outcome for CalibOutcome {
    fn panicked(msg: String) -> CalibOutcome {
        CalibOutcome {
            error: Some(msg),
            ..CalibOutcome::default()
        }
    }
    fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
}

impl CalibOutcome {
    fn surface(model: &Qdtt, report: &CalibrationReport) -> CalibOutcome {
        let values = (0..model.queue_depths().len())
            .flat_map(|qi| (0..model.band_sizes().len()).map(move |bi| model.knot(bi, qi)))
            .collect();
        CalibOutcome {
            reads: report.total_reads,
            measured: report.points_measured,
            defaulted: report.points_defaulted,
            virtual_ns: report.virtual_duration.as_nanos(),
            values,
            error: None,
        }
    }
}

/// Everything `calib_plan` builds in set-up: only what the optimizer and
/// admission planner need as arguments.
pub struct Fixture {
    devices: Vec<DeviceKind>,
    seed: u64,
    /// Catalog statistics of the full-scale T33 (no table is built).
    stats: TableStats,
    /// A small real table + index: `QdttAdmission::new` takes references.
    table: HeapTable,
    index: BTreeIndex,
    choose_calls: u64,
    admit_cycles: u64,
    storage_build_s: f64,
}

impl Fixture {
    fn device(&self, kind: DeviceKind) -> Box<dyn DeviceModel> {
        make_device(kind, CAPACITY, sub_seed(self.seed, 0x310 + kind as u64))
    }

    fn default_cfg(&self) -> CalibrationConfig {
        CalibrationConfig::for_device(CAPACITY, sub_seed(self.seed, 0x320))
    }

    fn dense_cfg(&self, method: Method) -> CalibrationConfig {
        CalibrationConfig {
            queue_depths: DENSE_DEPTHS.to_vec(),
            repetitions: DENSE_REPS,
            early_stop_pct: None,
            method,
            ..self.default_cfg()
        }
    }
}

/// The selectivity ladder the choose/admit loops walk: 1e-4 ... 0.5.
fn ladder(i: u64) -> f64 {
    1e-4 * (1.0 + (i % 5_000) as f64)
}

/// The workload.
pub struct CalibPlan;

impl Workload for CalibPlan {
    type Fixture = Fixture;
    type Outcome = CalibOutcome;
    const NAME: &'static str = "calib_plan";
    const WHY: &'static str = "no executor: default calibration, dense AW/GW surface vs 24 held-out points per device, 120K Optimizer::choose and 120K admit/complete cycles; raw fixed-depth device reads, core and optimizer time";
    const NOMINAL_PASS_S: f64 = 3.0;
    const SETUP_REPS: usize = 21;

    fn setup(seed: u64, quick: bool) -> Fixture {
        let ((table, index), build_ns) = timed(|| {
            let spec = TableSpec::paper_table(33, ADMIT_TABLE_ROWS, sub_seed(seed, 0x301));
            let mut ts = Tablespace::new(2 * spec.n_pages() + 1_024);
            let table = HeapTable::create(spec, &mut ts).expect("tablespace sized to fit");
            let index = BTreeIndex::build(
                "c2",
                table.data().c2_entries(),
                table.spec().page_size,
                &mut ts,
            )
            .expect("tablespace sized to fit");
            (table, index)
        });
        let leaves = T33_ROWS.div_ceil(u64::from(LEAF_FANOUT));
        let stats = TableStats {
            pages: T33_PAGES,
            rows: T33_ROWS,
            rows_per_page: 33,
            page_size: 4096,
            extent: Extent {
                base: 0,
                pages: T33_PAGES,
            },
            cached_pages: 0,
            buffer_frames: 16_384,
            index: IndexStats {
                leaves,
                height: 3,
                leaf_fanout: LEAF_FANOUT,
                extent: Extent {
                    base: T33_PAGES,
                    pages: leaves + leaves / 300 + 2,
                },
                cached_pages: 0,
            },
        };
        let cut = if quick { 10 } else { 1 };
        Fixture {
            devices: if quick {
                vec![DeviceKind::Ssd]
            } else {
                DEVICES.to_vec()
            },
            seed,
            stats,
            table,
            index,
            choose_calls: CHOOSE_CALLS / cut,
            admit_cycles: ADMIT_CYCLES / cut,
            storage_build_s: build_ns as f64 / 1e9,
        }
    }

    fn storage_build_s(fx: &Fixture) -> f64 {
        fx.storage_build_s
    }

    fn pass(fx: &Fixture, rec: &mut PassRecorder<CalibOutcome>) {
        let tracer = rec.tracer().cloned();
        let tr = tracer.as_ref();
        for &kind in &fx.devices {
            let name = |op: usize| format!("{kind}/{}", OP_NAMES[op]);

            // What `Db::calibrate` pays: the paper defaults, early stop on.
            let mut model: Option<Qdtt> = None;
            rec.op(name(0), || {
                let mut dev = on_pass(fx.device(kind), tr);
                let cal = Calibrator::new(fx.default_cfg());
                let (q, report) = spanned(tr, Layer::Core, || cal.calibrate_qdtt(&mut *dev));
                let o = CalibOutcome::surface(&q, &report);
                model = Some(q);
                o
            });
            let Some(model) = model else {
                // The default calibration panicked; nothing to build on.
                for op in 1..OPS_PER_DEVICE {
                    rec.op(name(op), || {
                        CalibOutcome::panicked("default calibration failed".to_string())
                    });
                }
                continue;
            };

            for (op, method) in [(1, Method::ActiveWait), (2, Method::GroupWait)] {
                rec.op(name(op), || {
                    let mut dev = on_pass(fx.device(kind), tr);
                    let cal = Calibrator::new(fx.dense_cfg(method));
                    let (q, report) = spanned(tr, Layer::Core, || cal.calibrate_qdtt(&mut *dev));
                    CalibOutcome::surface(&q, &report)
                });
            }

            rec.op(name(3), || {
                let mut dev = on_pass(fx.device(kind), tr);
                let cal = Calibrator::new(fx.default_cfg());
                let mut values = Vec::with_capacity(2 * 24);
                spanned(tr, Layer::Core, || {
                    for &band in &HELD_OUT_BANDS {
                        for &qd in &HELD_OUT_DEPTHS {
                            values.push(model.cost(band, qd));
                            values.push(cal.measure_point(&mut *dev, band, qd));
                        }
                    }
                });
                CalibOutcome {
                    values,
                    ..CalibOutcome::default()
                }
            });

            let cost_model = QdttCost(model.clone());
            rec.op(name(4), || {
                let opt = Optimizer::new(&cost_model, OptimizerConfig::fine_grained());
                let mut acc = 0.0;
                spanned(tr, Layer::Optimizer, || {
                    for i in 0..fx.choose_calls {
                        acc += opt.choose(black_box(&fx.stats), ladder(i)).est_total_us;
                    }
                });
                CalibOutcome {
                    values: vec![acc],
                    ..CalibOutcome::default()
                }
            });

            rec.op(name(5), || {
                let inner = QdttAdmission::new(
                    &fx.table,
                    &fx.index,
                    model.clone(),
                    OptimizerConfig::fine_grained(),
                );
                let pool = BufferPool::new(256);
                // Called directly, not from the session engine: this is
                // optimizer-crate host time, one span for the batch.
                let cycles = spanned(tr, Layer::Optimizer, || {
                    admit_cycles(inner, &pool, fx.admit_cycles)
                });
                CalibOutcome {
                    values: vec![cycles.0 as f64, cycles.1 as f64],
                    ..CalibOutcome::default()
                }
            });
        }
    }

    fn check(fx: &Fixture, outcomes: &[CalibOutcome]) -> Vec<Failure> {
        let mut failures = Vec::new();
        let want = fx.devices.len() * OPS_PER_DEVICE;
        if outcomes.len() != want {
            failures.push(Failure {
                op: 0,
                reason: format!("{} ops ran, {want} expected", outcomes.len()),
            });
            return failures;
        }
        for (op, o) in outcomes.iter().enumerate() {
            if o.error.is_some() {
                continue; // already failed by the runner
            }
            // There is no oracle for a measured surface; what can be
            // checked is that every number is a usable cost.
            if !o.values.iter().all(|c| c.is_finite() && *c > 0.0) {
                failures.push(Failure {
                    op,
                    reason: format!(
                        "{}: non-finite or non-positive value",
                        OP_NAMES[op % OPS_PER_DEVICE]
                    ),
                });
            }
            if op % OPS_PER_DEVICE == 5 && o.values[0] as u64 != fx.admit_cycles {
                failures.push(Failure {
                    op,
                    reason: format!("{} admissions, {} expected", o.values[0], fx.admit_cycles),
                });
            }
        }
        failures
    }

    fn end_to_end(_fx: &Fixture, outcomes: &[CalibOutcome], v: &mut Values) {
        let of = |op: usize| {
            outcomes
                .iter()
                .enumerate()
                .filter(move |(i, _)| i % OPS_PER_DEVICE == op)
                .map(|(_, o)| o)
        };
        // §4.6's concern: what calibrating costs the modelled system.
        v.insert("sim_time_s", of(0).map(|o| o.virtual_ns as f64 / 1e9).sum());
        v.insert("cost_err", log_ratio_err(held_out_pairs(outcomes)));
        let knots_ms: Vec<f64> = of(1)
            .chain(of(2))
            .flat_map(|o| o.values.iter().map(|us| us / 1e3))
            .collect();
        latency_metrics(&knots_ms, v);
        let calibrations = || of(0).chain(of(1)).chain(of(2));
        let reads: u64 = calibrations().map(|o| o.reads).sum();
        let virtual_s: f64 = calibrations().map(|o| o.virtual_ns as f64 / 1e9).sum();
        v.insert("sim_qps", reads as f64 / virtual_s);
        // No plans are executed and nothing commits; see
        // report::END_TO_END on neutral cells.
        for name in ["plan_regret", "qdtt_gain", "sim_commits_per_s"] {
            v.insert(name, 1.0);
        }
    }

    fn per_layer(fx: &Fixture, t: &TracedPass<'_, CalibOutcome>, v: &mut Values) {
        let outcomes = &t.untraced.outcomes;
        let wall_s = |op: usize| t.untraced.times.ops_s(std::iter::once(op));
        let (mut reads, mut measured, mut defaulted) = (0u64, 0u64, 0u64);
        let (mut choose_s, mut admit_s) = (0.0, 0.0);
        for (d, &kind) in fx.devices.iter().enumerate() {
            let base = d * OPS_PER_DEVICE;
            let (calibrate_s, raw_ios_per_s) = match kind {
                DeviceKind::Hdd => ("core.calibrate_s.hdd", "device.raw_ios_per_s.hdd"),
                DeviceKind::Ssd => ("core.calibrate_s.ssd", "device.raw_ios_per_s.ssd"),
                DeviceKind::Raid8 => ("core.calibrate_s.raid8", "device.raw_ios_per_s.raid8"),
            };
            v.insert(calibrate_s, wall_s(base));
            let dev_reads: u64 = (0..3).map(|op| outcomes[base + op].reads).sum();
            let dev_wall: f64 = (0..3).map(|op| wall_s(base + op)).sum();
            v.insert(raw_ios_per_s, dev_reads as f64 / dev_wall);
            reads += outcomes[base].reads;
            measured += outcomes[base].measured;
            defaulted += outcomes[base].defaulted;
            choose_s += wall_s(base + 4);
            admit_s += wall_s(base + 5);
        }
        v.insert("core.calib_reads", reads as f64);
        v.insert(
            "core.calib_early_stop_frac",
            defaulted as f64 / (measured + defaulted).max(1) as f64,
        );
        v.insert("core.surface_err", log_ratio_err(held_out_pairs(outcomes)));
        let n_devices = fx.devices.len() as u64;
        v.insert(
            "optimizer.choose_ns",
            choose_s * 1e9 / (fx.choose_calls * n_devices) as f64,
        );
        // Per admit + complete cycle, from the untraced pass (no wrapper
        // sits in this path; `sessions_rw` measures it through one).
        v.insert("optimizer.admits", (fx.admit_cycles * n_devices) as f64);
        v.insert(
            "optimizer.admit_ns",
            admit_s * 1e9 / (fx.admit_cycles * n_devices) as f64,
        );
    }

    fn notes(fx: &Fixture, outcomes: &[CalibOutcome]) -> Vec<String> {
        let knots: usize = outcomes
            .iter()
            .enumerate()
            .filter(|(i, _)| matches!(i % OPS_PER_DEVICE, 1 | 2))
            .map(|(_, o)| o.values.len())
            .sum();
        let (_, pct) = tail_rank(knots);
        let mut notes = vec![format!(
            "sim_p50_ms/sim_p99_ms over the {knots} knots of the dense AW+GW surfaces (amortized ms per page read; tail is p{pct:.1}); sim_qps is calibration reads per simulated second"
        )];
        for (d, kind) in fx.devices.iter().enumerate() {
            let o = &outcomes[d * OPS_PER_DEVICE];
            let held = &outcomes[d * OPS_PER_DEVICE + 3];
            notes.push(format!(
                "  {kind}: default calibration {} reads, {} measured + {} defaulted points, {:.3} sim_s; held-out error {:.3}x over {} points",
                o.reads,
                o.measured,
                o.defaulted,
                o.virtual_ns as f64 / 1e9,
                log_ratio_err(held.values.chunks(2).map(|p| (p[0], p[1]))),
                held.values.len() / 2
            ));
        }
        notes
    }
}

/// `cycles` admissions in rounds of 1..=16 open leases, each round
/// completed before the next. Returns `(admissions, Σ plan degree)`.
fn admit_cycles<P: AdmissionPlanner>(mut planner: P, pool: &BufferPool, cycles: u64) -> (u64, u64) {
    let (mut admitted, mut degrees, mut round) = (0u64, 0u64, 0u64);
    while admitted < cycles {
        let open =
            (1 + (round % u64::from(MAX_OPEN_LEASES)) as u32).min((cycles - admitted) as u32);
        for session in 0..open {
            let q = QueryAdmission {
                session,
                query_index: round as u32,
                active: session,
                selectivity: ladder(admitted),
                low: 0,
                high: 0,
            };
            degrees += u64::from(planner.admit(&q, pool).degree());
            admitted += 1;
        }
        for session in 0..open {
            planner.complete(session);
        }
        round += 1;
    }
    (admitted, degrees)
}

/// `(Qdtt::cost, measure_point)` at every held-out point of every device.
fn held_out_pairs(outcomes: &[CalibOutcome]) -> impl Iterator<Item = (f64, f64)> + '_ {
    outcomes
        .iter()
        .enumerate()
        .filter(|(i, _)| i % OPS_PER_DEVICE == 3)
        .flat_map(|(_, o)| o.values.chunks(2).map(|p| (p[0], p[1])))
}
