//! One way to observe a run. A [`CaptureCell`] is a resolved fixture plus
//! the workload run on it. `observe` runs one cell on a fresh device and
//! flushed pool with the observers asked for (a trace ring, a metrics
//! registry, both or neither); `capture` fans a cell list out over
//! `par_map_threads` and returns the results in cell order, so every
//! bundle rendered from them is byte-identical across runs and thread
//! counts. [`crate::observe::observe_bundle`] renders them into the one
//! observation bundle.

use crate::concurrent::run_cell;
use crate::experiments::{Experiment, ExperimentConfig, MethodSpec};
use crate::interference::write_side;
use crate::opteval::calibrate;
use pioqo_exec::{execute, ExecError, ScanMetrics, WorkloadReport, WorkloadSpec, WriteConfig};
use pioqo_obs::metrics::sanitize_prefix;
use pioqo_obs::{MetricsRegistry, MetricsSnapshot, RingSink};
use pioqo_optimizer::{AdmissionDecision, OptimizerConfig};
use pioqo_simkit::par::par_map_threads;
use pioqo_simkit::SimDuration;
use std::collections::BTreeSet;

/// What one cell runs.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// One cold query Q: `method` at `selectivity`.
    Scan {
        /// Access method to execute.
        method: MethodSpec,
        /// Predicate selectivity.
        selectivity: f64,
    },
    /// Closed-loop sessions through [`run_cell`] under QDTT admission,
    /// over a model calibrated on the cell's own fixture.
    Sessions {
        /// The sessions' workload.
        spec: Box<WorkloadSpec>,
        /// The admission planner's optimizer configuration.
        optimizer: OptimizerConfig,
        /// Run the write system (WAL + flusher) beside the scans, in the
        /// dataset's slack pages as `crate::interference` does.
        writes: bool,
    },
}

/// One point of a capture.
#[derive(Debug, Clone)]
pub struct CaptureCell {
    /// The experiment fixture: dataset, device, pool and seed.
    pub fixture: ExperimentConfig,
    /// The workload to run on it.
    pub kind: CellKind,
}

impl CaptureCell {
    /// A cold scan of query Q on `fixture`.
    pub fn scan(fixture: ExperimentConfig, method: MethodSpec, selectivity: f64) -> CaptureCell {
        let kind = CellKind::Scan {
            method,
            selectivity,
        };
        CaptureCell { fixture, kind }
    }

    /// This cell with its fixture's rows divided by `factor`, as
    /// [`ExperimentConfig::scaled_down`] shrinks the figures' fixtures.
    pub fn scaled_down(self, factor: u64) -> CaptureCell {
        CaptureCell {
            fixture: self.fixture.scaled_down(factor),
            ..self
        }
    }

    /// The label naming this cell in every bundle: it prefixes the cell's
    /// trace tracks, and its sanitized form the cell's metric names.
    pub fn label(&self) -> String {
        let name = &self.fixture.name;
        match &self.kind {
            CellKind::Scan {
                method,
                selectivity,
            } => format!("{name}/{method}@{selectivity}"),
            CellKind::Sessions { spec, writes, .. } => format!(
                "{name}/SES{}{}{}",
                spec.sessions,
                if spec.shared_scans { "-shared" } else { "" },
                if *writes { "-writes" } else { "" }
            ),
        }
    }
}

/// The Table 1 row `name`, its rows divided by `scale_down`, at `seed`.
pub(crate) fn table1(name: &str, scale_down: u64, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        ..ExperimentConfig::by_name(name)
            .expect("Table 1 lists the default cells' rows")
            .scaled_down(scale_down)
    }
}

/// What a cell's workload returned.
#[derive(Debug)]
pub(crate) enum Outcome {
    /// The scan's metrics.
    Scan(Box<ScanMetrics>),
    /// The engine's report and the admission journal.
    Sessions(Box<WorkloadReport>, Vec<AdmissionDecision>),
}

/// One cell, observed: the outcome, the ring when traced and the
/// registry's snapshot (under the cell's label) when metered.
#[derive(Debug)]
pub(crate) struct Observation {
    pub(crate) outcome: Outcome,
    pub(crate) ring: Option<RingSink>,
    pub(crate) snapshot: Option<MetricsSnapshot>,
}

/// Why a capture failed.
#[derive(Debug)]
pub enum CaptureError {
    /// Two cells' labels sanitize to this same name, so their metrics,
    /// tracks and summary rows would merge into one. Nothing ran.
    DuplicateLabel(String),
    /// A cell's run failed.
    Exec(ExecError),
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::DuplicateLabel(label) => write!(f, "two cells are labelled {label}"),
            CaptureError::Exec(e) => write!(f, "cell failed: {e}"),
        }
    }
}

impl std::error::Error for CaptureError {}

/// Run `cell` once, traced by a ring of `ring` events and metered by a
/// registry on `cadence` when asked; the registry is folded once, after
/// the workload.
pub(crate) fn observe(
    cell: &CaptureCell,
    ring: Option<usize>,
    cadence: Option<SimDuration>,
) -> Result<Observation, ExecError> {
    let exp = Experiment::build(cell.fixture.clone());
    let mut ring = ring.map(RingSink::with_capacity);
    let mut registry = cadence.map(MetricsRegistry::enabled);
    let (mut device, mut pool) = (exp.make_device(), exp.make_pool());
    let mut ctx = Experiment::context(&mut *device, &mut pool);
    if let Some(ring) = ring.as_mut() {
        ctx.set_trace_sink(ring);
    }
    if let Some(registry) = registry.as_mut() {
        ctx.set_metrics(registry);
    }
    let outcome = match &cell.kind {
        CellKind::Scan {
            method,
            selectivity,
        } => Outcome::Scan(Box::new(execute(
            &mut ctx,
            &exp.query(*method, *selectivity),
        )?)),
        CellKind::Sessions {
            spec,
            optimizer,
            writes,
        } => {
            let seed = exp.cfg.seed;
            let mut ws = writes
                .then(|| write_side(&exp, 2_000, seed ^ 0x57AB).system(WriteConfig::default()));
            let model = calibrate(&exp).qdtt;
            let (report, admissions) = run_cell(
                &exp,
                &model,
                optimizer,
                (**spec).clone(),
                ws.as_mut(),
                &mut ctx,
            )?;
            Outcome::Sessions(Box::new(report), admissions)
        }
    };
    ctx.fold_metrics();
    drop(ctx);
    let snapshot = registry.map(|r| r.snapshot(&cell.label()));
    Ok(Observation {
        outcome,
        ring,
        snapshot,
    })
}

/// [`observe`] every cell over `threads` harness workers, results in cell
/// order. A list whose sanitized labels collide is rejected before
/// anything runs.
pub(crate) fn capture(
    cells: &[CaptureCell],
    ring: Option<usize>,
    cadence: Option<SimDuration>,
    threads: usize,
) -> Result<Vec<Observation>, CaptureError> {
    let mut seen = BTreeSet::new();
    if let Some(dup) = cells
        .iter()
        .find(|c| !seen.insert(sanitize_prefix(&c.label())))
    {
        return Err(CaptureError::DuplicateLabel(dup.label()));
    }
    let observed = par_map_threads(threads, cells, |cell| observe(cell, ring, cadence));
    observed
        .into_iter()
        .map(|r| r.map_err(CaptureError::Exec))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{default_observe_cells, observe_bundle};
    use pioqo_obs::chrome_trace_json;

    fn pis8() -> CaptureCell {
        default_observe_cells(7).remove(0).scaled_down(4)
    }

    #[test]
    fn colliding_labels_are_rejected_before_anything_runs() {
        // Two seeds, one label: the seed is not part of it.
        let mut cells = default_observe_cells(0);
        cells.extend(default_observe_cells(7));
        match observe_bundle(&cells, 1) {
            Err(CaptureError::DuplicateLabel(label)) => assert_eq!(label, "E33-SSD/PIS8@0.01"),
            other => panic!("expected DuplicateLabel, got {other:?}"),
        }
        let twice = vec![pis8(), pis8()];
        assert!(matches!(
            observe_bundle(&twice, 1),
            Err(CaptureError::DuplicateLabel(_))
        ));
        // Labels that differ only in what sanitizing folds away collide too.
        let mut lower = pis8();
        lower.fixture.name = "e33 ssd".to_string();
        assert!(matches!(
            capture(&[pis8(), lower], None, None, 1),
            Err(CaptureError::DuplicateLabel(_))
        ));
    }

    #[test]
    fn a_ring_and_a_registry_together_observe_what_each_does_alone() {
        for cell in [pis8(), default_observe_cells(7).remove(3).scaled_down(4)] {
            let cadence = Some(SimDuration::from_millis(1));
            let both = observe(&cell, Some(1 << 14), cadence).expect("both");
            let traced = observe(&cell, Some(1 << 14), None).expect("traced");
            let metered = observe(&cell, None, cadence).expect("metered");
            let bare = observe(&cell, None, None).expect("bare");
            let ring = |o: &Observation| {
                let r = o.ring.as_ref().expect("traced run keeps its ring");
                assert!(r.recorded() > 0 && r.dropped() == 0);
                (chrome_trace_json(r.track_names(), r.events()), r.recorded())
            };
            assert_eq!(ring(&both), ring(&traced), "{}", cell.label());
            let snapshot = |o: &Observation| o.snapshot.clone().expect("metered run snapshots");
            assert_eq!(snapshot(&both), snapshot(&metered), "{}", cell.label());
            assert!(!snapshot(&both).is_empty());
            let outcome = |o: &Observation| match &o.outcome {
                Outcome::Scan(m) => serde_json::to_string(&**m).expect("metrics serialize"),
                Outcome::Sessions(r, a) => format!(
                    "{}{}",
                    r.to_json(),
                    serde_json::to_string(a).expect("journal serializes")
                ),
            };
            for other in [&traced, &metered, &bare] {
                assert_eq!(outcome(&both), outcome(other), "{}", cell.label());
            }
            assert!(bare.ring.is_none() && bare.snapshot.is_none());
        }
    }
}
