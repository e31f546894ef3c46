//! Old-vs-new optimizer evaluation (Fig. 8).
//!
//! For an experiment: calibrate the device (once), build the DTT-based
//! "old" optimizer and the QDTT-based "new" one, let each choose a plan at
//! every selectivity, execute the chosen plans in the simulator, and report
//! runtimes plus the speedup — §4.3's protocol.

use crate::experiments::{Experiment, MethodSpec};
use pioqo_core::{CalibrationConfig, Calibrator, Dtt, Qdtt};
use pioqo_optimizer::{
    AccessMethod, DttCost, Optimizer, OptimizerConfig, Plan, QdttCost, TableStats,
};
use serde::{Deserialize, Serialize};

/// One Fig. 8 point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptEvalPoint {
    /// Predicate selectivity.
    pub selectivity: f64,
    /// The old (DTT) optimizer's plan, rendered like the paper ("IS",
    /// "PFTS32"...).
    pub old_plan: String,
    /// Old plan's measured runtime, seconds.
    pub old_runtime_s: f64,
    /// The new (QDTT) optimizer's plan.
    pub new_plan: String,
    /// New plan's measured runtime, seconds.
    pub new_runtime_s: f64,
    /// `old_runtime / new_runtime` — the paper's speedup curve.
    pub speedup: f64,
}

/// Calibrated models for an experiment's device.
pub struct CalibratedModels {
    /// The queue-depth-blind model (old optimizer).
    pub dtt: Dtt,
    /// The queue-depth-aware model (new optimizer).
    pub qdtt: Qdtt,
}

/// Calibrate the experiment's device with the paper's defaults, the way
/// `Db::calibrate` does: one walk over one fresh device, so the same
/// experiment always yields the same surface.
pub fn calibrate(exp: &Experiment) -> CalibratedModels {
    let mut dev = exp.make_device();
    let cfg = CalibrationConfig::for_device(dev.capacity_pages(), exp.cfg.seed ^ 0xCA11);
    let (qdtt, _) = Calibrator::new(cfg).calibrate_qdtt(&mut *dev);
    CalibratedModels {
        dtt: qdtt.to_dtt(),
        qdtt,
    }
}

/// Map an optimizer plan onto an executable method spec.
pub fn plan_to_method(plan: &Plan, is_prefetch: u32) -> MethodSpec {
    match plan.method {
        AccessMethod::TableScan => MethodSpec::Fts {
            workers: plan.degree,
        },
        AccessMethod::IndexScan => MethodSpec::Is {
            workers: plan.degree,
            prefetch: is_prefetch,
        },
        AccessMethod::SortedIndexScan => MethodSpec::SortedIs {
            prefetch: plan.queue_depth,
        },
    }
}

/// Catalog statistics as the optimizer sees them at plan time (cold pool).
pub fn cold_stats(exp: &Experiment) -> TableStats {
    let pool = exp.make_pool();
    TableStats::gather(exp.dataset.table(), exp.dataset.index(), &pool)
}

/// Run the full Fig. 8 protocol over `selectivities`.
pub fn evaluate(
    exp: &Experiment,
    models: &CalibratedModels,
    opt_cfg: &OptimizerConfig,
    selectivities: &[f64],
) -> Vec<OptEvalPoint> {
    let old_model = DttCost(models.dtt.clone());
    let new_model = QdttCost(models.qdtt.clone());
    let stats = cold_stats(exp);

    // Each selectivity plans and executes independently against its own
    // cold device+pool — fan the points out across the harness pool.
    // (Optimizers are built per point: they are a couple of pointers, and
    // `Optimizer` borrows a `dyn IoCostModel` that carries no Sync bound.)
    pioqo_simkit::par::par_map(selectivities, |&sel| {
        let old = Optimizer::new(&old_model, opt_cfg.clone());
        let new = Optimizer::new(&new_model, opt_cfg.clone());
        let old_plan = old.choose(&stats, sel);
        let new_plan = new.choose(&stats, sel);
        let old_method = plan_to_method(&old_plan, opt_cfg.is_prefetch_depth);
        let new_method = plan_to_method(&new_plan, opt_cfg.is_prefetch_depth);
        let old_m = exp.run_cold(old_method, sel).expect("old plan runs");
        let new_m = exp.run_cold(new_method, sel).expect("new plan runs");
        let old_s = old_m.runtime.as_secs_f64();
        let new_s = new_m.runtime.as_secs_f64();
        OptEvalPoint {
            selectivity: sel,
            old_plan: format!("{old_method}"),
            old_runtime_s: old_s,
            new_plan: format!("{new_method}"),
            new_runtime_s: new_s,
            speedup: if new_s > 0.0 { old_s / new_s } else { 1.0 },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentConfig;

    #[test]
    fn qdtt_optimizer_never_loses_badly_on_ssd() {
        // Large enough that per-worker startup does not dominate the
        // scan (at tiny scale staying serial is the *correct* choice).
        let cfg = ExperimentConfig::by_name("E33-SSD")
            .expect("exists")
            .scaled_down(20); // 400 000 rows
        let exp = Experiment::build(cfg);
        let models = calibrate(&exp);
        let pts = evaluate(
            &exp,
            &models,
            &OptimizerConfig::default(),
            &[0.002, 0.05, 0.5],
        );
        for p in &pts {
            assert!(p.speedup > 0.8, "new optimizer should not regress: {p:?}");
        }
        // Somewhere the new optimizer should clearly win.
        assert!(
            pts.iter().any(|p| p.speedup > 2.0),
            "expected a clear QDTT win: {pts:?}"
        );
    }

    #[test]
    fn old_optimizer_runs_serial_plans() {
        let cfg = ExperimentConfig::by_name("E33-SSD")
            .expect("exists")
            .scaled_down(200);
        let exp = Experiment::build(cfg);
        let models = calibrate(&exp);
        let pts = evaluate(&exp, &models, &OptimizerConfig::default(), &[0.01, 0.3]);
        for p in &pts {
            assert!(
                p.old_plan == "IS" || p.old_plan == "FTS",
                "old optimizer must be serial: {}",
                p.old_plan
            );
        }
    }
}
