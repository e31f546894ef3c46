//! Cross-crate integration tests: storage + bufpool + exec + core +
//! optimizer wired together the way the reproduction harness uses them.

use pioqo::core::{load_qdtt, save_qdtt, CalibrationConfig, Calibrator, Method};
use pioqo::prelude::*;
use pioqo::workload::{calibrate, cold_stats, plan_to_method};

fn small_experiment(name: &str, factor: u64) -> Experiment {
    Experiment::build(
        ExperimentConfig::by_name(name)
            .expect("known experiment")
            .scaled_down(factor),
    )
}

#[test]
fn all_access_methods_agree_with_oracle() {
    let exp = small_experiment("E33-SSD", 400);
    for sel in [0.0, 0.01, 0.3, 1.0] {
        let expected = exp.dataset.oracle_max(sel);
        let methods = [
            MethodSpec::Fts { workers: 1 },
            MethodSpec::Fts { workers: 32 },
            MethodSpec::Is {
                workers: 1,
                prefetch: 0,
            },
            MethodSpec::Is {
                workers: 32,
                prefetch: 0,
            },
            MethodSpec::Is {
                workers: 4,
                prefetch: 8,
            },
            MethodSpec::SortedIs { prefetch: 16 },
        ];
        for m in methods {
            let r = exp.run_cold(m, sel).expect("scan runs");
            assert_eq!(r.max_c1, expected, "method {m} sel {sel}");
            assert_eq!(r.rows_matched, exp.dataset.oracle_count(sel));
        }
    }
}

#[test]
fn pis_queue_depth_equals_worker_count() {
    // §2's profiling observation, across devices.
    let exp = small_experiment("E33-SSD", 100);
    for workers in [2u32, 8] {
        let m = exp
            .run_cold(
                MethodSpec::Is {
                    workers,
                    prefetch: 0,
                },
                0.05,
            )
            .expect("scan runs");
        assert!(
            (workers as f64 * 0.5..=workers as f64 * 1.2).contains(&m.io.mean_queue_depth),
            "PIS{workers}: mean qd {}",
            m.io.mean_queue_depth
        );
    }
}

#[test]
fn warm_cache_is_faster_and_does_less_io() {
    let exp = small_experiment("E33-SSD", 400);
    let mut dev = exp.make_device();
    let mut pool = exp.make_pool();
    let m = MethodSpec::Fts { workers: 1 };
    let cold = exp
        .run_with(&mut *dev, &mut pool, m, 0.1)
        .expect("cold run");
    let warm = exp
        .run_with(&mut *dev, &mut pool, m, 0.1)
        .expect("warm run");
    assert_eq!(cold.max_c1, warm.max_c1);
    assert!(warm.io.pages_read < cold.io.pages_read / 2);
    assert!(warm.runtime < cold.runtime);
}

#[test]
fn calibrated_model_survives_persistence_and_drives_same_plans() {
    let exp = small_experiment("E33-SSD", 200);
    let models = calibrate(&exp);
    let path = std::env::temp_dir().join(format!("pioqo-it-{}.json", std::process::id()));
    save_qdtt(&models.qdtt, &path).expect("save model");
    let reloaded = load_qdtt(&path).expect("load model");
    // JSON round-trips floats to ~1 ulp; compare the surfaces numerically.
    for &b in models.qdtt.band_sizes() {
        for &q in models.qdtt.queue_depths() {
            let a = models.qdtt.cost(b, q);
            let r = reloaded.cost(b, q);
            assert!((a - r).abs() <= a * 1e-12, "band {b} qd {q}: {a} vs {r}");
        }
    }

    let stats = cold_stats(&exp);
    let m1 = QdttCost(models.qdtt.clone());
    let m2 = QdttCost(reloaded);
    let o1 = Optimizer::new(&m1, OptimizerConfig::default());
    let o2 = Optimizer::new(&m2, OptimizerConfig::default());
    for sel in [0.001, 0.05, 0.6] {
        let p1 = o1.choose(&stats, sel);
        let p2 = o2.choose(&stats, sel);
        assert_eq!(p1.method, p2.method);
        assert_eq!(p1.degree, p2.degree);
    }
    std::fs::remove_file(&path).ok();
}

/// `repro`'s calibrated CSVs (through `workload::calibrate`) and the
/// benchmark's `cold_grid` recipe judge one surface per (device, seed).
#[test]
fn one_device_and_seed_give_one_surface_on_every_path() {
    for name in ["E33-SSD", "E1-HDD"] {
        let exp = small_experiment(name, 200);
        let mut dev = exp.make_device();
        let cal = Calibrator::new(CalibrationConfig::for_device(
            dev.capacity_pages(),
            exp.cfg.seed ^ 0xCA11,
        ));
        let (direct, _) = cal.calibrate_qdtt(&mut *dev);
        let models = calibrate(&exp);
        assert_eq!(models.qdtt, direct, "{name}");
        assert_eq!(models.dtt, direct.to_dtt(), "{name}");
    }
}

#[test]
fn early_stop_hdd_yes_ssd_no() {
    let cap = 1u64 << 18;
    let cal = Calibrator::new(CalibrationConfig::for_device(cap, 5));
    let mut hdd = presets::hdd_7200(cap, 5);
    let (_, r_hdd) = cal.calibrate_qdtt(&mut hdd);
    assert!(r_hdd.stopped_at_qd.is_some(), "HDD should stop early");
    let mut ssd = presets::consumer_pcie_ssd(cap, 5);
    let (_, r_ssd) = cal.calibrate_qdtt(&mut ssd);
    assert_eq!(r_ssd.stopped_at_qd, None, "SSD must calibrate fully");
    assert!(r_hdd.points_measured < r_ssd.points_measured);
}

#[test]
fn chosen_plans_execute_and_keep_answers() {
    let exp = small_experiment("E33-SSD", 100);
    let models = calibrate(&exp);
    let stats = cold_stats(&exp);
    let dtt_model = DttCost(models.dtt.clone());
    let qdtt_model = QdttCost(models.qdtt.clone());
    let old = Optimizer::new(&dtt_model, OptimizerConfig::default());
    let new = Optimizer::new(&qdtt_model, OptimizerConfig::default());
    for sel in [0.002, 0.08, 0.5] {
        let po = old.choose(&stats, sel);
        let pn = new.choose(&stats, sel);
        let ro = exp
            .run_cold(plan_to_method(&po, 0), sel)
            .expect("old plan runs");
        let rn = exp
            .run_cold(plan_to_method(&pn, 0), sel)
            .expect("new plan runs");
        assert_eq!(ro.max_c1, rn.max_c1, "sel {sel}");
        assert_eq!(ro.max_c1, exp.dataset.oracle_max(sel));
    }
}

#[test]
fn gw_aw_threads_all_calibrate_ssd_consistently() {
    let cap = 1u64 << 16;
    let band = 1u64 << 14;
    let mut costs = Vec::new();
    for method in [Method::Threads, Method::GroupWait, Method::ActiveWait] {
        let cal = Calibrator::new(CalibrationConfig {
            band_sizes: vec![band],
            queue_depths: vec![8],
            max_reads: 800,
            method,
            repetitions: 2,
            early_stop_pct: None,
            stop_fill_factor: 1.02,
            seed: 9,
        });
        let mut dev = presets::consumer_pcie_ssd(cap, 9);
        costs.push(cal.measure_point(&mut dev, band, 8));
    }
    let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = costs.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max / min < 1.5,
        "methods should agree on SSD within 50%: {costs:?}"
    );
}

#[test]
fn fault_injection_propagates_to_experiment_level() {
    use pioqo::device::{FaultPlan, Faulty};
    let exp = small_experiment("E33-SSD", 400);
    let dev = presets::consumer_pcie_ssd(exp.dataset.device_capacity(), 3);
    let mut dev = Faulty::new(dev, FaultPlan::EveryNth(2));
    let mut pool = exp.make_pool();
    let r = exp.run_with(&mut dev, &mut pool, MethodSpec::Fts { workers: 4 }, 0.5);
    assert!(r.is_err(), "injected I/O errors must surface");
}

#[test]
fn determinism_same_seed_same_metrics() {
    let run = || {
        let exp = small_experiment("E33-SSD", 400);
        let m = exp
            .run_cold(
                MethodSpec::Is {
                    workers: 8,
                    prefetch: 4,
                },
                0.05,
            )
            .expect("scan runs");
        (m.runtime, m.io.pages_read, m.max_c1)
    };
    assert_eq!(run(), run());
}

#[test]
fn tiny_pool_still_completes_with_refetches() {
    let cfg = ExperimentConfig {
        buffer_frames: 40,
        ..ExperimentConfig::by_name("E33-SSD").expect("exists")
    }
    .scaled_down(400);
    let exp = Experiment::build(cfg);
    let m = exp
        .run_cold(
            MethodSpec::Is {
                workers: 4,
                prefetch: 0,
            },
            0.5,
        )
        .expect("scan survives a 40-frame pool");
    assert_eq!(m.max_c1, exp.dataset.oracle_max(0.5));
    assert!(m.pool.refetches > 0);
}

/// The §1 motivation: the same calibration + optimizer, pointed at a
/// device generation the paper never saw (gen4 NVMe), adapts on its own —
/// deeper beneficial queue depth, cheaper random I/O, parallel plans
/// chosen over an even wider selectivity range than on the 2013 SSD.
#[test]
fn calibration_adapts_to_future_devices_unseen_by_the_paper() {
    let cap = 1u64 << 19;
    let cal = Calibrator::new(CalibrationConfig::for_device(cap, 5));

    let mut ssd = presets::consumer_pcie_ssd(cap, 5);
    let (m_ssd, _) = cal.calibrate_qdtt(&mut ssd);
    let mut nvme = presets::nvme_gen4(cap, 5);
    let (m_nvme, _) = cal.calibrate_qdtt(&mut nvme);

    let widest = *m_ssd.band_sizes().last().expect("bands");
    // The NVMe's random reads are cheaper at every depth...
    for &qd in m_ssd.queue_depths() {
        assert!(m_nvme.cost(widest, qd) < m_ssd.cost(widest, qd));
    }
    // ...and its queue-depth payoff is at least as strong.
    let gain = |m: &pioqo::core::Qdtt| m.cost(widest, 1) / m.cost(widest, 32);
    assert!(
        gain(&m_nvme) >= gain(&m_ssd) * 0.8,
        "nvme gain {} vs ssd gain {}",
        gain(&m_nvme),
        gain(&m_ssd)
    );
}
