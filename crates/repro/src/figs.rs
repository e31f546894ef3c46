//! One function per paper figure/table. Each prints an aligned text table
//! (paper reference values alongside where the paper reports numbers) and
//! writes a CSV under `results/`.

use crate::devmeasure::{random_mb_s, sequential_mb_s};
use crate::grids;
use crate::report::{f2, pct, secs, TextTable};
use pioqo_core::{CalibrationConfig, Calibrator, Method};
use pioqo_device::presets::{consumer_pcie_ssd, hdd_7200, raid_15k};
use pioqo_optimizer::{Optimizer, OptimizerConfig};
use pioqo_simkit::Running;
use pioqo_workload::{
    break_even, calibrate, evaluate, runtime_curve, Experiment, ExperimentConfig, MethodSpec,
};

/// Harness-wide options.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Divide experiment row counts by this factor (1 = full scale, the
    /// only scale whose output is committed).
    pub scale: u64,
    /// `--seed N`: dataset/device seed of the seeded targets (the grids
    /// and `observe`); `None` keeps each target's default.
    pub seed: Option<u64>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 1,
            seed: None,
        }
    }
}

/// Table 1's buffer pool: the paper's small-memory setup.
const POOL_MB: u64 = 64;

/// Calibration repetitions per point of the AW/GW figures (the paper
/// uses 50).
const REPS: u64 = 5;

/// Build Table 1's experiment `name` with its rows divided by `scale` on
/// a `pool_mb` buffer pool.
fn build(name: &str, scale: u64, pool_mb: u64) -> Experiment {
    let mut cfg = ExperimentConfig::by_name(name)
        .expect("known experiment")
        .scaled_down(scale);
    cfg.buffer_frames = (pool_mb << 20) as usize / 4096;
    eprintln!("[build] {name}: {} rows, {pool_mb} MB pool ...", cfg.rows);
    Experiment::build(cfg)
}

/// Fig. 1: sequential reads vs parallel 4 KiB random reads by queue depth.
pub fn fig1(_opts: Opts) {
    let cap = 1u64 << 20; // 4 GiB
    let mut t = TextTable::new(
        "Fig. 1 — throughput: non-parallel sequential vs parallel 4KB random reads",
        &["device", "pattern", "qd", "MB/s", "% of sequential"],
    );
    for dev_name in ["HDD", "SSD"] {
        // Fresh device per measurement, seeded exactly as before — the
        // factory is a plain closure over the name so the random-read
        // points can fan out across the harness pool.
        let make = || -> Box<dyn pioqo_device::DeviceModel> {
            if dev_name == "HDD" {
                Box::new(hdd_7200(cap, 7))
            } else {
                Box::new(consumer_pcie_ssd(cap, 7))
            }
        };
        let mut dev = make();
        let seq = sequential_mb_s(&mut *dev, 4096, 16);
        t.row(vec![
            dev_name.into(),
            "sequential".into(),
            "1".into(),
            f2(seq),
            "100.00".into(),
        ]);
        let qds = [1u32, 2, 4, 8, 16, 32];
        let n = if dev_name == "HDD" { 600 } else { 6000 };
        let rates = pioqo_simkit::par::par_map(&qds, |&qd| {
            let mut dev = make();
            random_mb_s(&mut *dev, qd, n, 11 + qd as u64)
        });
        for (&qd, &r) in qds.iter().zip(&rates) {
            t.row(vec![
                dev_name.into(),
                "random-4K".into(),
                qd.to_string(),
                f2(r),
                f2(r / seq * 100.0),
            ]);
        }
    }
    t.emit("fig1");
    println!("[paper] SSD random @qd32 ~ 51.7% of sequential; HDD random @qd32 ~ 1.3%.");
}

/// Table 1: experimental configurations.
pub fn table1(opts: Opts) {
    let mut t = TextTable::new(
        "Table 1 — experimental configurations (simulation scale)",
        &[
            "experiment",
            "table",
            "rows/page",
            "rows",
            "device",
            "buffer",
        ],
    );
    for e in ExperimentConfig::table1() {
        let e = e.scaled_down(opts.scale);
        t.row(vec![
            e.name.clone(),
            e.table.clone(),
            e.rows_per_page.to_string(),
            e.rows.to_string(),
            e.device.to_string(),
            format!("{} MB", (e.buffer_frames * 4096) >> 20),
        ]);
    }
    t.emit("table1");
}

/// Fig. 4(a–f): runtime of query Q by access method over selectivity.
pub fn fig4(opts: Opts) {
    for cfg in ExperimentConfig::table1() {
        let name = cfg.name.clone();
        let exp = build(&name, opts.scale, POOL_MB);
        let grid = grids::fig4_grid(&name);
        let methods = [
            MethodSpec::Is {
                workers: 1,
                prefetch: 0,
            },
            MethodSpec::Fts { workers: 1 },
            MethodSpec::Is {
                workers: 32,
                prefetch: 0,
            },
            MethodSpec::Fts { workers: 32 },
        ];
        let mut curves = Vec::new();
        for m in methods {
            eprintln!("[fig4] {name}: {m} ...");
            curves.push(runtime_curve(&exp, m, &grid));
        }
        let mut t = TextTable::new(
            &format!("Fig. 4 — runtime of Q on {name} (seconds, virtual)"),
            &["selectivity", "IS", "FTS", "PIS32", "PFTS32"],
        );
        for (i, &sel) in grid.iter().enumerate() {
            t.row(vec![
                pct(sel),
                secs(curves[0][i].runtime_s),
                secs(curves[1][i].runtime_s),
                secs(curves[2][i].runtime_s),
                secs(curves[3][i].runtime_s),
            ]);
        }
        t.emit(&format!("fig4_{}", name.to_lowercase()));
    }
}

/// Table 2: break-even shifts, non-parallel vs parallel, HDD vs SSD —
/// on Table 1's 64 MB pool, and on the §3.2 large-memory variant's 1 GB.
pub fn table2(opts: Opts) {
    let pools = [(POOL_MB, "table2"), (1024, "table2_1024mb")];
    // Each experiment's pair of bisections is independent of the others:
    // fan the (pool, configuration) cells out, keep row order.
    let cfgs = ExperimentConfig::table1();
    let mut cells = Vec::new();
    for &(pool_mb, _) in &pools {
        cells.extend(cfgs.iter().map(|cfg| (pool_mb, cfg)));
    }
    let rows = pioqo_simkit::par::par_map(&cells, |&(pool_mb, cfg)| {
        let name = cfg.name.clone();
        let exp = build(&name, opts.scale, pool_mb);
        let (np_lo, np_hi) = grids::np_bracket(&name);
        let (p_lo, p_hi) = grids::p_bracket(&name);
        eprintln!("[table2] {name}: bisecting NP break-even ...");
        let np = break_even(
            &exp,
            MethodSpec::Is {
                workers: 1,
                prefetch: 0,
            },
            MethodSpec::Fts { workers: 1 },
            np_lo,
            np_hi,
            10,
        );
        eprintln!("[table2] {name}: bisecting P break-even ...");
        let p = break_even(
            &exp,
            MethodSpec::Is {
                workers: 32,
                prefetch: 0,
            },
            MethodSpec::Fts { workers: 32 },
            p_lo,
            p_hi,
            10,
        );
        let (pnp, pp) = grids::paper_table2(&name);
        vec![
            name,
            pct(np),
            pct(p),
            f2(p / np.max(1e-9)),
            pct(pnp),
            pct(pp),
            f2(pp / pnp),
        ]
    });
    for (&(pool_mb, id), rows) in pools.iter().zip(rows.chunks(cfgs.len())) {
        let mut t = TextTable::new(
            &format!("Table 2 — break-even selectivities, {pool_mb} MB pool (ours vs paper)"),
            &[
                "experiment",
                "NP (ours)",
                "P (ours)",
                "shift (ours)",
                "NP (paper)",
                "P (paper)",
                "shift (paper)",
            ],
        );
        for r in rows {
            t.row(r.clone());
        }
        t.emit(id);
    }
}

/// Table 3: PFTS32 vs FTS I/O throughput.
pub fn table3(opts: Opts) {
    let mut t = TextTable::new(
        "Table 3 — I/O throughput of PFTS32 and FTS (MB/s; paper values in parens)",
        &[
            "experiment",
            "PFTS32 (ours)",
            "FTS (ours)",
            "ratio (ours)",
            "PFTS32 (paper)",
            "FTS (paper)",
            "ratio (paper)",
        ],
    );
    let cfgs = ExperimentConfig::table1();
    let rows = pioqo_simkit::par::par_map(&cfgs, |cfg| {
        let name = cfg.name.clone();
        let exp = build(&name, opts.scale, POOL_MB);
        eprintln!("[table3] {name} ...");
        let sel = 0.5;
        let pfts = exp
            .run_cold(MethodSpec::Fts { workers: 32 }, sel)
            .expect("runs");
        let fts = exp
            .run_cold(MethodSpec::Fts { workers: 1 }, sel)
            .expect("runs");
        let (pp, pf) = grids::paper_table3(&name);
        vec![
            name,
            f2(pfts.io.throughput_mb_s),
            f2(fts.io.throughput_mb_s),
            f2(pfts.io.throughput_mb_s / fts.io.throughput_mb_s),
            f2(pp),
            f2(pf),
            f2(pp / pf),
        ]
    });
    for r in rows {
        t.row(r);
    }
    t.emit("table3");
}

/// Fig. 5: PIS runtime vs per-worker prefetch depth, by parallel degree.
pub fn fig5(opts: Opts) {
    let exp = build("E33-SSD", opts.scale, POOL_MB);
    let sel = 0.003;
    let prefetches = [0u32, 1, 2, 4, 8, 16, 32];
    let workers = [1u32, 2, 4, 8, 16, 32];
    let mut t = TextTable::new(
        "Fig. 5 — index scan runtime (s) vs per-worker prefetch depth n",
        &["n", "M=1", "M=2", "M=4", "M=8", "M=16", "M=32"],
    );
    // The 7x6 grid is 42 independent cold runs — flatten and fan out.
    let mut cells: Vec<(usize, usize, u32, u32)> = Vec::new();
    for (wi, &w) in workers.iter().enumerate() {
        for (pi, &p) in prefetches.iter().enumerate() {
            cells.push((wi, pi, w, p));
        }
    }
    let runtimes = pioqo_simkit::par::par_map(&cells, |&(_, _, w, p)| {
        eprintln!("[fig5] workers={w} prefetch={p} ...");
        exp.run_cold(
            MethodSpec::Is {
                workers: w,
                prefetch: p,
            },
            sel,
        )
        .expect("runs")
        .runtime
        .as_secs_f64()
    });
    let mut grid = vec![vec![0.0f64; workers.len()]; prefetches.len()];
    for (&(wi, pi, _, _), &rt) in cells.iter().zip(&runtimes) {
        grid[pi][wi] = rt;
    }
    for (pi, &p) in prefetches.iter().enumerate() {
        let mut row = vec![p.to_string()];
        row.extend(grid[pi].iter().map(|&v| secs(v)));
        t.row(row);
    }
    t.emit("fig5");
    // The paper's headline: 4 workers + prefetch 32 beats 32 workers + none.
    let w4p32 = grid[prefetches.iter().position(|&p| p == 32).expect("has 32")]
        [workers.iter().position(|&w| w == 4).expect("has 4")];
    let w32p0 = grid[0][workers.iter().position(|&w| w == 32).expect("has 32")];
    println!(
        "[check] PIS4+pf32 = {} s vs PIS32+pf0 = {} s  (paper: the former ~35% faster)",
        secs(w4p32),
        secs(w32p0)
    );
}

/// Fig. 6: calibrated DTT models for HDD and SSD.
pub fn fig6(_opts: Opts) {
    let cap = 1u64 << 20;
    let mut t = TextTable::new(
        "Fig. 6 — calibrated DTT (amortized µs per page read)",
        &["band (pages)", "HDD", "SSD"],
    );
    let cal = Calibrator::new(CalibrationConfig::for_device(cap, 3));
    // The DTT is the calibrated surface's depth-1 row, as the "old"
    // optimizer of fig8 sees it.
    let dtt_h = cal.calibrate_qdtt(&mut hdd_7200(cap, 3)).0.to_dtt();
    let dtt_s = cal
        .calibrate_qdtt(&mut consumer_pcie_ssd(cap, 3))
        .0
        .to_dtt();
    for &b in dtt_h.band_sizes() {
        t.row(vec![b.to_string(), f2(dtt_h.cost(b)), f2(dtt_s.cost(b))]);
    }
    t.emit("fig6");
}

/// Fig. 7: calibrated QDTT models for HDD and SSD.
pub fn fig7(_opts: Opts) {
    let cap = 1u64 << 20;
    for (name, id) in [("HDD", "fig7_hdd"), ("SSD", "fig7_ssd")] {
        let cal = Calibrator::new(CalibrationConfig {
            early_stop_pct: None, // show the full surface
            ..CalibrationConfig::for_device(cap, 3)
        });
        let qdtt = if name == "HDD" {
            cal.calibrate_qdtt(&mut hdd_7200(cap, 3)).0
        } else {
            cal.calibrate_qdtt(&mut consumer_pcie_ssd(cap, 3)).0
        };
        let mut t = TextTable::new(
            &format!("Fig. 7 — calibrated QDTT on {name} (µs per page read)"),
            &[
                "band (pages)",
                "qd=1",
                "qd=2",
                "qd=4",
                "qd=8",
                "qd=16",
                "qd=32",
            ],
        );
        for &b in qdtt.band_sizes() {
            let mut row = vec![b.to_string()];
            row.extend(qdtt.queue_depths().iter().map(|&q| f2(qdtt.cost(b, q))));
            t.row(row);
        }
        t.emit(id);
    }
}

/// Fig. 8(a–c): DTT-based vs QDTT-based optimizer on the SSD experiments.
pub fn fig8(opts: Opts) {
    for name in ["E1-SSD", "E33-SSD", "E500-SSD"] {
        let exp = build(name, opts.scale, POOL_MB);
        eprintln!("[fig8] {name}: calibrating ...");
        let models = calibrate(&exp);
        let grid = grids::fig4_grid(name);
        eprintln!("[fig8] {name}: evaluating optimizers ...");
        let pts = evaluate(&exp, &models, &OptimizerConfig::default(), &grid);
        let mut t = TextTable::new(
            &format!("Fig. 8 — old (DTT) vs new (QDTT) optimizer on {name}"),
            &[
                "selectivity",
                "old plan",
                "old (s)",
                "new plan",
                "new (s)",
                "speedup",
            ],
        );
        for p in &pts {
            t.row(vec![
                pct(p.selectivity),
                p.old_plan.clone(),
                secs(p.old_runtime_s),
                p.new_plan.clone(),
                secs(p.new_runtime_s),
                f2(p.speedup),
            ]);
        }
        t.emit(&format!("fig8_{}", name.to_lowercase()));
    }
    println!("[paper] max speedups: E1-SSD 19.7x, E33-SSD 16.9x, E500-SSD 13.7x.");
}

/// Extension ablations (DESIGN.md §8): prefetch-aware plan costing and the
/// sorted-index-scan access method, both driven by the QDTT optimizer on
/// E33-SSD.
pub fn ablation(opts: Opts) {
    use pioqo_workload::{cold_stats, plan_to_method};
    let exp = build("E33-SSD", opts.scale, POOL_MB);
    eprintln!("[ablation] calibrating ...");
    let models = calibrate(&exp);
    let stats = cold_stats(&exp);
    let qdtt = pioqo_optimizer::QdttCost(models.qdtt.clone());

    let variants: Vec<(&str, OptimizerConfig)> = vec![
        ("baseline (paper §4.3)", OptimizerConfig::default()),
        (
            "prefetch-aware (4 workers x pf8)",
            OptimizerConfig {
                degrees: vec![1, 4],
                is_prefetch_depth: 8,
                ..OptimizerConfig::default()
            },
        ),
        (
            "with sorted index scan",
            OptimizerConfig {
                consider_sorted_is: true,
                ..OptimizerConfig::default()
            },
        ),
    ];
    let mut t = TextTable::new(
        "Ablation — QDTT optimizer variants on E33-SSD (measured runtime, s)",
        &["selectivity", "variant", "plan", "runtime (s)", "mean qd"],
    );
    // Every (selectivity, variant) cell plans and runs cold independently.
    // The optimizer is rebuilt inside each cell: it borrows a
    // `dyn IoCostModel` without a Sync bound and is only two pointers.
    let mut cases: Vec<(f64, usize)> = Vec::new();
    for &sel in &[0.002, 0.02, 0.2] {
        for vi in 0..variants.len() {
            cases.push((sel, vi));
        }
    }
    let rows = pioqo_simkit::par::par_map(&cases, |&(sel, vi)| {
        let (name, cfg) = &variants[vi];
        let opt = Optimizer::new(&qdtt, cfg.clone());
        let plan = opt.choose(&stats, sel);
        let method = plan_to_method(&plan, cfg.is_prefetch_depth);
        eprintln!("[ablation] sel={sel} {name}: {method} ...");
        let m = exp.run_cold(method, sel).expect("plan runs");
        vec![
            pct(sel),
            (*name).into(),
            format!("{method}"),
            secs(m.runtime.as_secs_f64()),
            f2(m.io.mean_queue_depth),
        ]
    });
    for r in rows {
        t.row(r);
    }
    t.emit("ablation");
    println!(
        "[note] prefetch-aware costing reaches the same queue depth with an\n\
         eighth of the workers — the §3.3 observation, now visible to the\n\
         optimizer; sorted IS wins midrange selectivities by never refetching."
    );
}

/// Extension — concurrency (the paper's §4.3 future work): how the
/// marginal benefit of a deep queue collapses as concurrent queries load
/// the device, and what the queue-depth budget policy would choose.
pub fn concurrency(opts: Opts) {
    use pioqo_optimizer::QdBudget;
    let exp = build("E33-SSD", opts.scale, POOL_MB);
    eprintln!("[concurrency] calibrating ...");
    let models = calibrate(&exp);
    let budget = QdBudget::from_model(&models.qdtt);
    let sel = 0.005;
    let degrees = [1u32, 2, 4, 8, 16, 32];
    let streams = [0u32, 3, 7, 15, 31];
    let mut t = TextTable::new(
        "Extension — PIS runtime (s) vs parallel degree under concurrent load",
        &[
            "bg streams",
            "PIS1",
            "PIS2",
            "PIS4",
            "PIS8",
            "PIS16",
            "PIS32",
            "budget pick",
        ],
    );
    // The (streams x degree) grid is 30 independent loaded runs.
    let mut cells: Vec<(u32, u32)> = Vec::new();
    for &k in &streams {
        for &d in &degrees {
            cells.push((k, d));
        }
    }
    let times = pioqo_simkit::par::par_map(&cells, |&(k, d)| {
        eprintln!("[concurrency] streams={k} degree={d} ...");
        exp.run_under_load(
            MethodSpec::Is {
                workers: d,
                prefetch: 0,
            },
            sel,
            k,
        )
        .expect("runs")
        .runtime
        .as_secs_f64()
    });
    for (ki, &k) in streams.iter().enumerate() {
        let mut row = vec![k.to_string()];
        for di in 0..degrees.len() {
            row.push(secs(times[ki * degrees.len() + di]));
        }
        // What the §4.3 budget policy would hand this query.
        row.push(format!("qd {}", budget.share_at(k + 1)));
        t.row(row);
    }
    t.emit("concurrency");
    println!(
        "[note] alone, degree 32 is ~an order of magnitude faster than serial;\n\
         with 31 competing streams the marginal gain of 32 vs the budget's\n\
         share shrinks toward nothing — the §4.3 rationale for passing a\n\
         lower queue depth to the QDTT model under concurrency."
    );
}

/// Extension — model accuracy: optimizer estimate vs simulated runtime for
/// every access method across selectivities (is the QDTT-based estimate a
/// usable predictor, not just a ranker?), on E33-SSD at full size and at
/// a quarter of its rows.
pub fn accuracy(opts: Opts) {
    use pioqo_optimizer::{AccessMethod, QdttCost};
    use pioqo_workload::{cold_stats, plan_to_method};
    let fixtures = [opts.scale, opts.scale * 4].map(|scale| {
        let exp = build("E33-SSD", scale, POOL_MB);
        eprintln!("[accuracy] calibrating ...");
        let qdtt = QdttCost(calibrate(&exp).qdtt);
        let stats = cold_stats(&exp);
        (exp, qdtt, stats)
    });
    let mut t = TextTable::new(
        "Extension — QDTT-based estimate vs simulated runtime (E33-SSD)",
        &[
            "rows",
            "selectivity",
            "plan",
            "est (s)",
            "measured (s)",
            "est/measured",
        ],
    );
    let candidates = [
        (AccessMethod::TableScan, 1u32),
        (AccessMethod::TableScan, 32),
        (AccessMethod::IndexScan, 1),
        (AccessMethod::IndexScan, 32),
    ];
    // 2 x 16 independent (table size, selectivity, candidate) cells; the
    // optimizer is rebuilt per cell (it borrows a `dyn IoCostModel` with
    // no Sync bound).
    let mut cases = Vec::new();
    for fixture in &fixtures {
        for &sel in &[0.001, 0.01, 0.1, 0.5] {
            for &(method, degree) in &candidates {
                cases.push((fixture, sel, method, degree));
            }
        }
    }
    let rows = pioqo_simkit::par::par_map(&cases, |&((exp, qdtt, stats), sel, method, degree)| {
        let opt = Optimizer::new(qdtt, OptimizerConfig::default());
        let plan = opt.cost_access(stats, sel, method, degree);
        let spec = plan_to_method(&plan, 0);
        eprintln!("[accuracy] sel={sel} {spec} ...");
        let m = exp.run_cold(spec, sel).expect("runs");
        let est_s = plan.est_total_us / 1e6;
        let meas_s = m.runtime.as_secs_f64();
        vec![
            exp.cfg.rows.to_string(),
            pct(sel),
            format!("{spec}"),
            secs(est_s),
            secs(meas_s),
            f2(est_s / meas_s),
        ]
    });
    for r in rows {
        t.row(r);
    }
    t.emit("accuracy");
    println!(
        "[note] the estimate only needs to *rank* plans correctly; the table\n\
         shows how far absolute predictions drift (CPU estimates are\n\
         deliberately I/O-centric, as §4.3 describes for SQL Anywhere)."
    );
}

/// Figs. 9/10/11: AW vs GW calibration on SSD and RAID.
pub fn fig9_10_11(_opts: Opts) {
    let cap = 1u64 << 19;
    let bands = [1u64 << 12, 1 << 15, cap];
    let qds = [1u32, 2, 4, 8, 16, 32];

    let run = |raid: bool, id: &str, title: &str| {
        let mut t = TextTable::new(
            title,
            &["band", "qd", "GW µs", "AW µs", "AW-GW µs", "σ(AW)"],
        );
        // Every (band, qd) cell is a self-contained repetition loop with
        // its own fixed seeds (100+rep / 5+rep), so cells fan out across
        // the harness pool without changing a single value.
        let mut cells: Vec<(u64, u32)> = Vec::new();
        for &band in &bands {
            for &qd in &qds {
                cells.push((band, qd));
            }
        }
        let stats = pioqo_simkit::par::par_map(&cells, |&(band, qd)| {
            let mut gw = Running::new();
            let mut aw = Running::new();
            for rep in 0..REPS {
                let cfg = CalibrationConfig {
                    band_sizes: vec![band],
                    queue_depths: vec![qd],
                    max_reads: 3200,
                    method: Method::GroupWait,
                    repetitions: 1,
                    early_stop_pct: None,
                    stop_fill_factor: 1.02,
                    seed: 100 + rep,
                };
                let mut cfg_aw = cfg.clone();
                cfg_aw.method = Method::ActiveWait;
                if raid {
                    let mut d = raid_15k(8, cap, 5 + rep);
                    gw.push(Calibrator::new(cfg).measure_point(&mut d, band, qd));
                    let mut d = raid_15k(8, cap, 5 + rep);
                    aw.push(Calibrator::new(cfg_aw).measure_point(&mut d, band, qd));
                } else {
                    let mut d = consumer_pcie_ssd(cap, 5 + rep);
                    gw.push(Calibrator::new(cfg).measure_point(&mut d, band, qd));
                    let mut d = consumer_pcie_ssd(cap, 5 + rep);
                    aw.push(Calibrator::new(cfg_aw).measure_point(&mut d, band, qd));
                }
            }
            (gw.mean(), aw.mean(), aw.std_dev())
        });
        let mut max_abs_diff = 0.0f64;
        for (&(band, qd), &(gw_mean, aw_mean, aw_sd)) in cells.iter().zip(&stats) {
            let diff = aw_mean - gw_mean;
            max_abs_diff = max_abs_diff.max(diff.abs());
            t.row(vec![
                band.to_string(),
                qd.to_string(),
                f2(gw_mean),
                f2(aw_mean),
                f2(diff),
                f2(aw_sd),
            ]);
        }
        t.emit(id);
        max_abs_diff
    };

    let ssd_diff = run(
        false,
        "fig9_10_ssd",
        "Figs. 9 & 10 — QDTT calibration on SSD: GW vs AW",
    );
    println!("[check] max |AW-GW| on SSD: {ssd_diff:.2} µs (paper: ~7 µs, negligible vs σ)");
    let raid_diff = run(
        true,
        "fig11_raid",
        "Fig. 11 — QDTT calibration on RAID-8: GW vs AW (AW substantially cheaper)",
    );
    println!("[check] max |AW-GW| on RAID-8: {raid_diff:.2} µs (paper: large, AW < GW)");
}

/// Fig. 12: exponential-qd calibration + linear interpolation vs dense
/// calibration on RAID-8.
pub fn fig12(_opts: Opts) {
    let cap = 1u64 << 19;
    let bands = [1u64 << 12, 1 << 15, cap];
    let mut t = TextTable::new(
        "Fig. 12 — dense measurement vs interpolation on RAID-8 (µs/page)",
        &[
            "band",
            "qd",
            "measured",
            "bilinear",
            "err %",
            "nearest-knot",
            "err %",
        ],
    );
    let knot_cfg = CalibrationConfig {
        band_sizes: bands.to_vec(),
        queue_depths: vec![1, 2, 4, 8, 16, 32],
        max_reads: 1600,
        method: Method::ActiveWait,
        repetitions: 3,
        early_stop_pct: None,
        stop_fill_factor: 1.02,
        seed: 21,
    };
    let mut dev = raid_15k(8, cap, 9);
    let (model, _) = Calibrator::new(knot_cfg.clone()).calibrate_qdtt(&mut dev);
    // The 96 dense-measurement points each build their own device (seed 9)
    // and calibrator, so they fan out without changing any value.
    let mut cells: Vec<(u64, u32)> = Vec::new();
    for &band in &bands {
        for qd in 1..=32u32 {
            cells.push((band, qd));
        }
    }
    let measured_pts = pioqo_simkit::par::par_map(&cells, |&(band, qd)| {
        let mut meas_cfg = knot_cfg.clone();
        meas_cfg.queue_depths = vec![qd];
        meas_cfg.band_sizes = vec![band];
        let mut dev = raid_15k(8, cap, 9);
        Calibrator::new(meas_cfg).measure_point(&mut dev, band, qd)
    });
    let mut worst = 0.0f64;
    let mut worst_nearest = 0.0f64;
    for (&(band, qd), &measured) in cells.iter().zip(&measured_pts) {
        let interp = model.cost(band, qd);
        let near = model.cost_nearest(band, qd);
        let err = (interp - measured).abs() / measured * 100.0;
        let err_n = (near - measured).abs() / measured * 100.0;
        worst = worst.max(err);
        worst_nearest = worst_nearest.max(err_n);
        if qd.is_power_of_two() || qd % 5 == 0 || qd == 3 {
            t.row(vec![
                band.to_string(),
                qd.to_string(),
                f2(measured),
                f2(interp),
                f2(err),
                f2(near),
                f2(err_n),
            ]);
        }
    }
    t.emit("fig12");
    println!(
        "[check] worst error: bilinear {worst:.1}% vs nearest-knot {worst_nearest:.1}% \
         (paper: bilinear over exponential knots is 'fairly accurate')"
    );
}
