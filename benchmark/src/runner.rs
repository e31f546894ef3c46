//! Pass runner: runs a workload's fixed op list K times, times every op,
//! and checks that what the ops computed is identical pass to pass.

use crate::report::Failure;
use crate::timing::{PassTimes, RefClock};
use crate::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// What one op computed, in a form two passes can be compared on. Host
/// times never go in here; everything that does must repeat bit-for-bit.
pub trait Outcome: PartialEq + Clone {
    /// The outcome of an op whose call into the program panicked.
    fn panicked(msg: String) -> Self;
    /// The typed error (or panic message) the op ended in, if any.
    fn error(&self) -> Option<&str>;
}

/// Records the ops of one pass as the workload runs them.
pub struct PassRecorder<O> {
    /// `(start, end)` of every op.
    spans: Vec<(Instant, Instant)>,
    clock: RefClock,
    outcomes: Vec<O>,
    names: Vec<String>,
    tracer: Option<Rc<Tracer>>,
}

impl<O: Outcome> PassRecorder<O> {
    fn new(tracer: Option<Rc<Tracer>>) -> PassRecorder<O> {
        PassRecorder {
            spans: Vec::new(),
            clock: RefClock::new(),
            outcomes: Vec::new(),
            names: Vec::new(),
            tracer,
        }
    }

    /// The tracer of a traced pass; `None` on the passes that produce the
    /// end-to-end numbers.
    pub fn tracer(&self) -> Option<&Rc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Close the pass: one last reference sample, then every op's raw and
    /// normalised nanoseconds.
    fn finish(mut self) -> FinishedPass<O> {
        self.clock.sample();
        let raw: Vec<u64> = self
            .spans
            .iter()
            .map(|(s, e)| (*e - *s).as_nanos() as u64)
            .collect();
        let norm = self
            .spans
            .iter()
            .zip(&raw)
            .map(|(&(s, e), &ns)| ns as f64 * self.clock.factor(s, e))
            .collect();
        FinishedPass {
            reference_ns: self.clock.readings().map(|ns| ns as f64).collect(),
            outcomes: self.outcomes,
            names: self.names,
            raw,
            norm,
        }
    }

    /// Run and time the next op. A panic inside the program under test is
    /// a failed op, not a dead runner.
    pub fn op(&mut self, name: String, f: impl FnOnce() -> O) {
        let idx = self.outcomes.len();
        if let Some(tr) = &self.tracer {
            tr.begin_op(name.clone(), idx);
        }
        self.names.push(name);
        // Between ops, never inside one: the machine-speed sample.
        self.clock.tick();
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(f));
        let end = Instant::now();
        if let Some(tr) = &self.tracer {
            tr.end_op();
        }
        self.spans.push((start, end));
        self.outcomes.push(result.unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            O::panicked(format!("panic: {msg}"))
        }));
    }
}

/// One recorded pass: what ran, what it computed, what it took.
struct FinishedPass<O> {
    outcomes: Vec<O>,
    names: Vec<String>,
    raw: Vec<u64>,
    norm: Vec<f64>,
    reference_ns: Vec<f64>,
}

/// K passes of one workload.
pub struct RunResult<O> {
    /// The first pass's outcomes (every later pass must equal them).
    pub outcomes: Vec<O>,
    /// Op names, in op order.
    pub names: Vec<String>,
    /// Per-pass, per-op host times.
    pub times: PassTimes,
    /// Ops that failed: typed error, panic, or a pass-to-pass mismatch.
    pub failures: Vec<Failure>,
}

/// Run `pass` `k` times. Every pass must run the same ops in the same
/// order and compute the same outcomes; an op that differs in any pass is
/// failed as non-deterministic.
pub fn run_passes<O: Outcome>(
    k: usize,
    tracer: Option<Rc<Tracer>>,
    mut pass: impl FnMut(&mut PassRecorder<O>),
) -> RunResult<O> {
    let mut times = PassTimes::default();
    let mut first: Vec<O> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut failures: Vec<Failure> = Vec::new();
    for p in 0..k.max(1) {
        let mut rec = PassRecorder::new(tracer.clone());
        pass(&mut rec);
        let FinishedPass {
            outcomes,
            names: pass_names,
            raw,
            norm,
            reference_ns,
        } = rec.finish();
        times.reference_ns.extend(reference_ns);
        if p == 0 {
            for (op, o) in outcomes.iter().enumerate() {
                if let Some(e) = o.error() {
                    failures.push(Failure {
                        op,
                        reason: e.to_string(),
                    });
                }
            }
            first = outcomes;
            names = pass_names;
        } else if outcomes.len() != first.len() {
            failures.push(Failure {
                op: 0,
                reason: format!(
                    "pass {p} ran {} ops, pass 0 ran {}",
                    outcomes.len(),
                    first.len()
                ),
            });
            // Times of a pass with a different op list are not comparable.
            continue;
        } else {
            for (op, (a, b)) in first.iter().zip(&outcomes).enumerate() {
                if a != b && !failures.iter().any(|f| f.op == op) {
                    failures.push(Failure {
                        op,
                        reason: format!("non-deterministic: pass {p} differs from pass 0"),
                    });
                }
            }
        }
        times.raw.push(raw);
        times.norm.push(norm);
    }
    RunResult {
        outcomes: first,
        names,
        times,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Val(u64, Option<String>);
    impl Outcome for Val {
        fn panicked(msg: String) -> Val {
            Val(0, Some(msg))
        }
        fn error(&self) -> Option<&str> {
            self.1.as_deref()
        }
    }

    #[test]
    fn identical_passes_are_clean() {
        let r = run_passes(3, None, |rec: &mut PassRecorder<Val>| {
            for i in 0..4u64 {
                rec.op(format!("op{i}"), || Val(i, None));
            }
        });
        assert!(r.failures.is_empty());
        assert_eq!(r.outcomes.len(), 4);
        assert_eq!(r.names[3], "op3");
        assert_eq!(r.times.raw.len(), 3);
        assert!(r.times.norm.iter().all(|p| p.len() == 4));
        assert!(r.times.norm.iter().flatten().all(|ns| *ns > 0.0));
    }

    #[test]
    fn a_pass_that_differs_fails_only_the_op_that_differs() {
        let mut pass_no = 0u64;
        let r = run_passes(3, None, |rec: &mut PassRecorder<Val>| {
            for i in 0..4u64 {
                // Op 2 drifts on the last pass.
                let v = if i == 2 && pass_no == 2 { 99 } else { i };
                rec.op(String::new(), || Val(v, None));
            }
            pass_no += 1;
        });
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].op, 2);
        assert!(r.failures[0].reason.contains("non-deterministic"));
    }

    #[test]
    fn panics_and_typed_errors_are_failed_ops_not_a_dead_runner() {
        let r = run_passes(1, None, |rec: &mut PassRecorder<Val>| {
            rec.op(String::new(), || Val(1, None));
            rec.op(String::new(), || panic!("boom"));
            rec.op(String::new(), || Val(0, Some("PoolExhausted".into())));
            rec.op(String::new(), || Val(4, None));
        });
        assert_eq!(r.outcomes.len(), 4);
        let ops: Vec<usize> = r.failures.iter().map(|f| f.op).collect();
        assert_eq!(ops, vec![1, 2]);
        assert!(r.failures[0].reason.contains("boom"));
    }

    #[test]
    fn traced_passes_fold_one_span_per_op() {
        let tr = Tracer::new();
        let r = run_passes(1, Some(tr.clone()), |rec: &mut PassRecorder<Val>| {
            for i in 0..3u64 {
                rec.op(format!("op{i}"), || Val(i, None));
            }
        });
        assert!(r.failures.is_empty());
        let ops = tr.ops();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[2].name, "op2");
    }
}
