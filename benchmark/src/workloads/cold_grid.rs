//! `cold_grid` — the paper's Fig. 4 / Fig. 8 protocol and the stand-in for
//! `repro all`: every candidate plan at every grid point on a fresh device
//! and a flushed pool, with the QDTT and DTT optimizers' picks recorded.

use super::{latency_metrics, paper_context, sub_seed, TracedPass, Workload, DEVICES};
use crate::report::{Failure, Values};
use crate::runner::PassRecorder;
use crate::timing::{geo_mean, log_ratio_err, median, tail_rank, timed};
use crate::trace::{traced_execute, Layer, PoolCounts, ScanOutcome, TimedDevice};
use pioqo_core::{CalibrationConfig, Calibrator};
use pioqo_exec::QuerySpec;
use pioqo_optimizer::{DttCost, Optimizer, OptimizerConfig, Plan, QdttCost, TableStats};
use pioqo_storage::range_for_selectivity;
use pioqo_workload::{plan_to_method, Experiment, ExperimentConfig, MethodSpec};

/// Table-1 rows ÷ 16, pool scaled alike (16 384 ÷ 16), so the paper's
/// pool:table ratios (table ≫ pool) hold.
const SCALE: u64 = 16;
const TABLES: [(u32, u64); 3] = [(1, 1 << 21), (33, 8_000_000), (500, 32_000_000)];
const POOL_FRAMES: usize = 16_384 / SCALE as usize;
/// The 0.5 row of the issue's ladder is cut: it alone was more than half
/// of a pass, and the run contract caps a run far below the issue's
/// sizing (README.md, "Sizing").
const SELECTIVITIES: [f64; 5] = [0.0005, 0.002, 0.01, 0.05, 0.2];

/// One (table, device) fixture with its calibrated model.
struct Cell {
    exp: Experiment,
    label: String,
}

/// One grid point: a cell at a selectivity with its costed candidates.
struct Point {
    cell: usize,
    sel: f64,
    candidates: Vec<Plan>,
    methods: Vec<MethodSpec>,
    /// Index into `candidates` of the QDTT optimizer's pick.
    qdtt_pick: usize,
    /// Index into `candidates` of the DTT (queue-depth-blind) pick.
    dtt_pick: usize,
    /// First op of this point in the op list.
    first_op: usize,
}

/// Everything `cold_grid` builds in set-up.
pub struct Fixture {
    cells: Vec<Cell>,
    points: Vec<Point>,
    n_ops: usize,
    storage_build_s: f64,
}

fn same_plan(a: &Plan, b: &Plan) -> bool {
    a.method == b.method && a.degree == b.degree
}

/// The workload.
pub struct ColdGrid;

impl Workload for ColdGrid {
    type Fixture = Fixture;
    type Outcome = ScanOutcome;
    const NAME: &'static str = "cold_grid";
    const WHY: &'static str = "table >> pool: 225 cold scans (3 tables x 3 devices x 5 selectivities x 5 plans) on fresh devices; device models, SimContext::step, scan drivers and pool miss/evict path; optimizer picks set quality";
    const NOMINAL_PASS_S: f64 = 4.4;
    const SETUP_REPS: usize = 3;

    fn setup(seed: u64, quick: bool) -> Fixture {
        let opt_cfg = OptimizerConfig {
            degrees: vec![1, 32],
            consider_sorted_is: true,
            ..OptimizerConfig::default()
        };
        let mut cells = Vec::new();
        let mut points = Vec::new();
        let mut storage_build_s = 0.0;
        let mut n_ops = 0;
        for (t, &(rpp, rows)) in TABLES.iter().enumerate() {
            for (d, &device) in DEVICES.iter().enumerate() {
                // --quick: one table x one device, not comparable.
                if quick && !(rpp == 33 && d == 1) {
                    continue;
                }
                let cfg = ExperimentConfig {
                    name: format!("E{rpp}-{device}"),
                    table: format!("T{rpp}"),
                    rows_per_page: rpp,
                    rows: rows / SCALE,
                    device,
                    buffer_frames: POOL_FRAMES,
                    seed: sub_seed(seed, 0x100 + (t * DEVICES.len() + d) as u64),
                };
                let (exp, build_ns) = timed(|| Experiment::build(cfg));
                storage_build_s += build_ns as f64 / 1e9;

                // Calibration is set-up here (it is the measured work of
                // `calib_plan`): the paper defaults, as `Db::calibrate`.
                let mut dev = exp.make_device();
                let cal = Calibrator::new(CalibrationConfig::for_device(
                    dev.capacity_pages(),
                    exp.cfg.seed ^ 0xCA11,
                ));
                let (qdtt, _) = cal.calibrate_qdtt(&mut *dev);

                let stats =
                    TableStats::gather(exp.dataset.table(), exp.dataset.index(), &exp.make_pool());
                let qdtt_model = QdttCost(qdtt.clone());
                let dtt_model = DttCost(qdtt.to_dtt());
                let new = Optimizer::new(&qdtt_model, opt_cfg.clone());
                let old = Optimizer::new(&dtt_model, opt_cfg.clone());
                let cell = cells.len();
                for &sel in &SELECTIVITIES {
                    let candidates = new.enumerate(&stats, sel);
                    let pick = new.choose(&stats, sel);
                    let old_pick = old.choose(&stats, sel);
                    let index_of = |p: &Plan| {
                        candidates
                            .iter()
                            .position(|c| same_plan(c, p))
                            .expect("choose picks among the plans enumerate returns")
                    };
                    let (qdtt_pick, dtt_pick) = (index_of(&pick), index_of(&old_pick));
                    let methods = candidates
                        .iter()
                        .map(|p| plan_to_method(p, opt_cfg.is_prefetch_depth))
                        .collect();
                    let first_op = n_ops;
                    n_ops += candidates.len();
                    points.push(Point {
                        cell,
                        sel,
                        candidates,
                        methods,
                        qdtt_pick,
                        dtt_pick,
                        first_op,
                    });
                }
                cells.push(Cell {
                    label: format!("T{rpp}/{device}"),
                    exp,
                });
            }
        }
        // Sizing assertion: the protocol needs table >> pool, or every
        // plan is cached CPU and there is no break-even to find.
        for c in &cells {
            assert!(
                c.exp.dataset.table().n_pages() as usize > 3 * POOL_FRAMES,
                "{}: table must be much larger than the pool",
                c.label
            );
        }
        Fixture {
            cells,
            points,
            n_ops,
            storage_build_s,
        }
    }

    fn storage_build_s(fx: &Fixture) -> f64 {
        fx.storage_build_s
    }

    fn pass(fx: &Fixture, rec: &mut PassRecorder<ScanOutcome>) {
        for p in &fx.points {
            let cell = &fx.cells[p.cell];
            let exp = &cell.exp;
            for (plan, &method) in p.candidates.iter().zip(&p.methods) {
                let name = format!("{}/{}/{}", cell.label, p.sel, plan.label());
                match rec.tracer().cloned() {
                    None => rec.op(name, || {
                        ScanOutcome::from_result(exp.run_cold(method, p.sel))
                    }),
                    // What `run_cold` does, with the wrappers in the path.
                    Some(tr) => rec.op(name, || {
                        let mut device = TimedDevice::new(exp.make_device(), tr.clone());
                        let mut pool = exp.make_pool();
                        let (low, high) = range_for_selectivity(p.sel, exp.dataset.c2_max());
                        let mut ctx = paper_context(&mut device, &mut pool);
                        let q = QuerySpec::range_max(
                            exp.dataset.table(),
                            Some(exp.dataset.index()),
                            low,
                            high,
                        )
                        .with_plan(method.to_plan_spec());
                        traced_execute(&mut ctx, &q, &tr)
                    }),
                }
            }
        }
    }

    fn check(fx: &Fixture, outcomes: &[ScanOutcome]) -> Vec<Failure> {
        let mut failures = Vec::new();
        if outcomes.len() != fx.n_ops {
            failures.push(Failure {
                op: 0,
                reason: format!("{} ops ran, {} expected", outcomes.len(), fx.n_ops),
            });
            return failures;
        }
        for p in &fx.points {
            let data = &fx.cells[p.cell].exp.dataset;
            let (want_max, want_rows) = (data.oracle_max(p.sel), data.oracle_count(p.sel));
            let first = &outcomes[p.first_op];
            for (i, plan) in p.candidates.iter().enumerate() {
                let op = p.first_op + i;
                let o = &outcomes[op];
                if o.error.is_some() {
                    continue; // already failed by the runner
                }
                let reason = if o.answer.max_c1 != want_max {
                    Some(format!("MAX {:?} != oracle {want_max:?}", o.answer.max_c1))
                } else if o.answer.rows_matched != want_rows {
                    Some(format!(
                        "{} rows matched != oracle {want_rows}",
                        o.answer.rows_matched
                    ))
                } else if o.answer.fingerprint != first.answer.fingerprint {
                    Some("fingerprint differs from the point's first candidate".to_string())
                } else {
                    None
                };
                if let Some(r) = reason {
                    failures.push(Failure {
                        op,
                        reason: format!("{} {}: {r}", fx.cells[p.cell].label, plan.label()),
                    });
                }
            }
        }
        failures
    }

    fn end_to_end(fx: &Fixture, outcomes: &[ScanOutcome], v: &mut Values) {
        let rt = |p: &Point, i: usize| outcomes[p.first_op + i].runtime_s();
        let best = |p: &Point| {
            (0..p.candidates.len())
                .map(|i| rt(p, i))
                .fold(f64::INFINITY, f64::min)
        };
        let picked: f64 = fx.points.iter().map(|p| rt(p, p.qdtt_pick)).sum();
        v.insert("sim_time_s", picked);
        v.insert(
            "plan_regret",
            geo_mean(fx.points.iter().map(|p| rt(p, p.qdtt_pick) / best(p))),
        );
        v.insert(
            "qdtt_gain",
            geo_mean(
                fx.points
                    .iter()
                    .map(|p| rt(p, p.dtt_pick) / rt(p, p.qdtt_pick)),
            ),
        );
        v.insert("cost_err", log_ratio_err(est_vs_measured(fx, outcomes)));
        let all_ms: Vec<f64> = outcomes.iter().map(|o| o.runtime_s() * 1e3).collect();
        latency_metrics(&all_ms, v);
        let total_s: f64 = outcomes.iter().map(ScanOutcome::runtime_s).sum();
        v.insert("sim_qps", outcomes.len() as f64 / total_s);
        // No writers here; see report::END_TO_END on neutral cells.
        v.insert("sim_commits_per_s", 1.0);
    }

    fn per_layer(fx: &Fixture, t: &TracedPass<'_, ScanOutcome>, v: &mut Values) {
        let outcomes = &t.untraced.outcomes;
        let mut pool = PoolCounts::default();
        for o in outcomes {
            pool.add(&o.pool);
        }
        super::pool_metrics(&pool, v);
        super::driver_page_metrics(
            fx.points.iter().flat_map(|p| {
                p.methods.iter().enumerate().map(|(i, m)| {
                    let o = &outcomes[p.first_op + i];
                    (
                        Layer::of_plan(&m.to_plan_spec()),
                        o.pool.hits + o.pool.misses,
                    )
                })
            }),
            t,
            v,
        );

        // Leased vs sustained depth on the plans costed at depth > 1.
        let fracs: Vec<f64> = fx
            .points
            .iter()
            .flat_map(|p| {
                p.candidates
                    .iter()
                    .enumerate()
                    .filter(|(_, plan)| plan.queue_depth > 1)
                    .map(|(i, plan)| outcomes[p.first_op + i].mean_qd / plan.queue_depth as f64)
            })
            .collect();
        v.insert(
            "device.qd_achieved_frac",
            fracs.iter().sum::<f64>() / fracs.len().max(1) as f64,
        );

        let agree = fx
            .points
            .iter()
            .filter(|p| {
                let picked = outcomes[p.first_op + p.qdtt_pick].runtime_ns;
                (0..p.candidates.len()).all(|i| outcomes[p.first_op + i].runtime_ns >= picked)
            })
            .count();
        v.insert(
            "optimizer.pick_agree",
            agree as f64 / fx.points.len().max(1) as f64,
        );
        let ratios: Vec<f64> = est_vs_measured(fx, outcomes)
            .map(|(est, measured)| (est / measured).ln().abs().exp())
            .collect();
        v.insert("optimizer.est_ratio_p50", median(&ratios));
        v.insert(
            "optimizer.est_ratio_max",
            ratios.iter().copied().fold(0.0, f64::max),
        );
    }

    fn notes(fx: &Fixture, outcomes: &[ScanOutcome]) -> Vec<String> {
        let (_, pct) = tail_rank(outcomes.len());
        let mut notes = vec![format!(
            "{} grid points, {} cold scans; sim_p50_ms/sim_p99_ms over {} scan runtimes (tail is p{pct:.1}: the highest percentile with 10 samples beyond)",
            fx.points.len(),
            outcomes.len(),
            outcomes.len()
        )];
        for p in &fx.points {
            let rts: Vec<String> = p
                .candidates
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{} {:.4}s", c.label(), outcomes[p.first_op + i].runtime_s()))
                .collect();
            notes.push(format!(
                "  {} sel {}: QDTT picks {}, DTT picks {} | {}",
                fx.cells[p.cell].label,
                p.sel,
                p.candidates[p.qdtt_pick].label(),
                p.candidates[p.dtt_pick].label(),
                rts.join(", ")
            ));
        }
        notes
    }
}

/// `(Plan::est_total_us, measured runtime)` in seconds, every scan.
fn est_vs_measured<'a>(
    fx: &'a Fixture,
    outcomes: &'a [ScanOutcome],
) -> impl Iterator<Item = (f64, f64)> + 'a {
    fx.points.iter().flat_map(move |p| {
        p.candidates.iter().enumerate().map(move |(i, plan)| {
            (
                plan.est_total_us / 1e6,
                outcomes[p.first_op + i].runtime_s(),
            )
        })
    })
}
