//! Fault injection for failure-path and resilience testing.
//!
//! [`Faulty`] wraps a [`DeviceModel`] and perturbs selected completions:
//!
//! * **Hard faults** flip a completion to [`IoStatus::Error`] — by explicit
//!   request id, deterministic round-robin, or a seeded coin flip.
//! * **Transient faults** ([`FaultPlan::Transient`]) fail a *page's* first
//!   `attempts` reads and let later attempts succeed, modeling media errors
//!   cured by retry. Selection is keyed on the request offset (not the id),
//!   so a re-submitted read of the same page is recognised as a retry.
//! * **Tail latency** ([`Faulty::with_tail_latency`]) stretches a seeded
//!   fraction of completions to a multiple of their device latency,
//!   modeling the p99 stragglers that make naive device models diverge at
//!   depth. Delayed completions are held inside the wrapper and released
//!   at their stretched completion time.
//!
//! Every stochastic choice flows through the workspace's seeded
//! [`SimRng`], so a given seed perturbs a run bit-for-bit reproducibly.
//! The scan operators must surface injected errors as typed errors (or
//! absorb them via retry) rather than silently producing wrong answers.

use crate::io::{DeviceModel, IoCompletion, IoRequest, IoStatus};
use pioqo_simkit::{SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Which completions to fail.
#[derive(Debug, Clone)]
pub enum FaultPlan {
    /// Fail requests with these exact ids.
    Ids(BTreeSet<u64>),
    /// Fail every `n`-th completed request (1-based: `EveryNth(3)` fails the
    /// 3rd, 6th, ... completion).
    EveryNth(u64),
    /// Fail each completion independently with probability `p`, drawn from
    /// a [`SimRng`] seeded with `seed` (draws happen in completion order,
    /// which is itself deterministic).
    Random {
        /// Per-completion failure probability in `[0, 1]`.
        p: f64,
        /// Seed of the fault stream.
        seed: u64,
    },
    /// Transient faults: offsets selected with probability `p` (by a
    /// stateless per-offset hash of `seed`) fail their first `attempts`
    /// reads, then succeed. A retrying engine recovers; a non-retrying
    /// one sees a hard error.
    Transient {
        /// Probability that a given offset is fault-prone.
        p: f64,
        /// How many leading attempts on a faulty offset fail.
        attempts: u32,
        /// Seed of the per-offset selection hash.
        seed: u64,
    },
    /// Never fail (useful to toggle plans in tests).
    None,
}

/// Tail-latency injection parameters (see [`Faulty::with_tail_latency`]).
struct Tail {
    fraction: f64,
    multiplier: f64,
    seed: u64,
    rng: SimRng,
}

/// A [`DeviceModel`] decorator that injects read errors and latency tails.
pub struct Faulty<D> {
    inner: D,
    plan: FaultPlan,
    completed: u64,
    injected: u64,
    delayed: u64,
    plan_rng: SimRng,
    /// Attempts observed so far per fault-prone offset (Transient plans).
    seen_attempts: BTreeMap<u64, u32>,
    tail: Option<Tail>,
    /// Completions held back by tail injection, keyed by release time.
    held: BTreeMap<SimTime, Vec<IoCompletion>>,
    scratch: Vec<IoCompletion>,
}

impl<D: DeviceModel> Faulty<D> {
    /// Wrap a device with a fault plan.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        let plan_rng = Self::rng_for(&plan);
        Faulty {
            inner,
            plan,
            completed: 0,
            injected: 0,
            delayed: 0,
            plan_rng,
            seen_attempts: BTreeMap::new(),
            tail: None,
            held: BTreeMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Additionally stretch a seeded `fraction` of completions to
    /// `multiplier ×` their device latency (released at the stretched
    /// time). `fraction = 0` or `multiplier <= 1` disables injection.
    pub fn with_tail_latency(mut self, fraction: f64, multiplier: f64, seed: u64) -> Self {
        self.tail = Some(Tail {
            fraction,
            multiplier,
            seed,
            rng: SimRng::seeded(seed),
        });
        self
    }

    fn rng_for(plan: &FaultPlan) -> SimRng {
        match plan {
            FaultPlan::Random { seed, .. } => SimRng::seeded(*seed),
            // Plans that draw nothing still get a fixed stream so the
            // struct stays uniform.
            _ => SimRng::seeded(0),
        }
    }

    /// Number of errors injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Number of completions delayed by tail injection so far.
    pub fn delayed(&self) -> u64 {
        self.delayed
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// True when a Transient plan marks `offset` fault-prone: a stateless
    /// hash of (seed, offset), so selection is independent of arrival
    /// order and stable across retries and resets.
    fn transient_hit(p: f64, seed: u64, offset: u64) -> bool {
        SimRng::seeded(seed ^ offset.wrapping_mul(0x9E37_79B9_7F4A_7C15)).unit() < p
    }

    fn should_fail(&mut self, req: &IoRequest) -> bool {
        match &self.plan {
            FaultPlan::Ids(ids) => ids.contains(&req.id),
            FaultPlan::EveryNth(n) => *n > 0 && self.completed.is_multiple_of(*n),
            FaultPlan::Random { p, .. } => self.plan_rng.unit() < *p,
            FaultPlan::Transient { p, attempts, seed } => {
                if !Self::transient_hit(*p, *seed, req.offset) {
                    return false;
                }
                let seen = self.seen_attempts.entry(req.offset).or_insert(0);
                *seen += 1;
                *seen <= *attempts
            }
            FaultPlan::None => false,
        }
    }
}

impl<D: DeviceModel> DeviceModel for Faulty<D> {
    fn page_size(&self) -> u32 {
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn submit(&mut self, now: SimTime, req: IoRequest) {
        self.inner.submit(now, req);
    }

    fn next_event(&self) -> Option<SimTime> {
        let held = self.held.keys().next().copied();
        match (self.inner.next_event(), held) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn advance(&mut self, now: SimTime, out: &mut Vec<IoCompletion>) {
        self.scratch.clear();
        self.inner.advance(now, &mut self.scratch);
        let mut completions = std::mem::take(&mut self.scratch);
        let emit_from = out.len();
        for mut c in completions.drain(..) {
            self.completed += 1;
            if self.should_fail(&c.req) {
                c.status = IoStatus::Error;
                self.injected += 1;
            }
            // Tail injection applies to successes only: an errored request
            // already terminated early at the device.
            if c.status == IoStatus::Ok {
                if let Some(tail) = &mut self.tail {
                    if tail.fraction > 0.0
                        && tail.multiplier > 1.0
                        && tail.rng.unit() < tail.fraction
                    {
                        self.delayed += 1;
                        let release = c.submitted + c.latency() * tail.multiplier;
                        c.completed = release;
                        if release > now {
                            self.held.entry(release).or_default().push(c);
                            continue;
                        }
                    }
                }
            }
            out.push(c);
        }
        self.scratch = completions;
        // Release held completions that are due by `now`.
        while let Some((&t, _)) = self.held.iter().next() {
            if t > now {
                break;
            }
            let batch = self.held.remove(&t).expect("key taken from live iterator");
            out.extend(batch);
        }
        // Keep deliveries in completion-time order regardless of whether
        // they came from the device or the held queue (stable on ties by
        // request id, so the order is fully deterministic).
        out[emit_from..].sort_by_key(|c| (c.completed, c.req.id));
    }

    fn outstanding(&self) -> usize {
        self.inner.outstanding() + self.held.values().map(Vec::len).sum::<usize>()
    }

    fn channels(&self) -> u32 {
        self.inner.channels()
    }

    fn channels_busy(&self, now: SimTime) -> u32 {
        self.inner.channels_busy(now)
    }

    fn crashed(&self) -> bool {
        self.inner.crashed()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reset_state(&mut self) {
        assert!(
            self.held.is_empty(),
            "reset_state with tail-delayed completions still held"
        );
        self.inner.reset_state();
        // Counters and streams restart so the plan fires at the same
        // positions after a reset (calibration points must not leak fault
        // phase into each other).
        self.completed = 0;
        self.injected = 0;
        self.delayed = 0;
        self.plan_rng = Self::rng_for(&self.plan);
        self.seen_attempts.clear();
        if let Some(tail) = &mut self.tail {
            tail.rng = SimRng::seeded(tail.seed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::drain_all;
    use crate::presets::consumer_pcie_ssd;

    #[test]
    fn fails_selected_ids() {
        let plan = FaultPlan::Ids([2u64, 4u64].into_iter().collect());
        let mut d = Faulty::new(consumer_pcie_ssd(1 << 16, 1), plan);
        for i in 0..6u64 {
            d.submit(SimTime::ZERO, IoRequest::page(i, i));
        }
        let mut out = Vec::new();
        drain_all(&mut d, SimTime::ZERO, &mut out);
        let failed: Vec<u64> = out
            .iter()
            .filter(|c| c.status == IoStatus::Error)
            .map(|c| c.req.id)
            .collect();
        assert_eq!(failed.len(), 2);
        assert!(failed.contains(&2) && failed.contains(&4));
        assert_eq!(d.injected(), 2);
    }

    #[test]
    fn every_nth_is_periodic() {
        let mut d = Faulty::new(consumer_pcie_ssd(1 << 16, 1), FaultPlan::EveryNth(3));
        for i in 0..9u64 {
            d.submit(SimTime::ZERO, IoRequest::page(i, i));
        }
        let mut out = Vec::new();
        drain_all(&mut d, SimTime::ZERO, &mut out);
        let errors = out.iter().filter(|c| c.status == IoStatus::Error).count();
        assert_eq!(errors, 3);
    }

    #[test]
    fn none_plan_never_fails() {
        let mut d = Faulty::new(consumer_pcie_ssd(1 << 16, 1), FaultPlan::None);
        for i in 0..10u64 {
            d.submit(SimTime::ZERO, IoRequest::page(i, i));
        }
        let mut out = Vec::new();
        drain_all(&mut d, SimTime::ZERO, &mut out);
        assert!(out.iter().all(|c| c.status == IoStatus::Ok));
    }

    /// Which completion indices fail under `plan` for `n` single-page reads.
    fn failure_pattern(d: &mut Faulty<crate::Ssd>, n: u64) -> Vec<u64> {
        for i in 0..n {
            d.submit(SimTime::ZERO, IoRequest::page(i, i));
        }
        let mut out = Vec::new();
        drain_all(d, SimTime::ZERO, &mut out);
        out.iter()
            .filter(|c| c.status == IoStatus::Error)
            .map(|c| c.req.id)
            .collect()
    }

    #[test]
    fn reset_state_restarts_the_fault_phase() {
        // Regression: reset_state used to forward to the inner device but
        // keep `completed`, so EveryNth fired at shifted positions after a
        // reset.
        let mut d = Faulty::new(consumer_pcie_ssd(1 << 16, 1), FaultPlan::EveryNth(3));
        let first = failure_pattern(&mut d, 10);
        assert_eq!(d.injected(), first.len() as u64);
        d.reset_state();
        assert_eq!(d.injected(), 0, "reset must clear the injected counter");
        let second = failure_pattern(&mut d, 10);
        assert_eq!(
            first, second,
            "EveryNth must fire at the same positions after reset_state"
        );
    }

    #[test]
    fn random_plan_is_seed_deterministic() {
        let mk = || {
            Faulty::new(
                consumer_pcie_ssd(1 << 16, 1),
                FaultPlan::Random { p: 0.3, seed: 7 },
            )
        };
        let a = failure_pattern(&mut mk(), 64);
        let b = failure_pattern(&mut mk(), 64);
        assert_eq!(a, b, "same seed must fail the same completions");
        assert!(!a.is_empty(), "p=0.3 over 64 reads should fail some");
        assert!(a.len() < 64, "p=0.3 must not fail everything");
        let mut c = Faulty::new(
            consumer_pcie_ssd(1 << 16, 1),
            FaultPlan::Random { p: 0.3, seed: 8 },
        );
        let other = failure_pattern(&mut c, 64);
        assert_ne!(a, other, "a different seed should fail different reads");
    }

    #[test]
    fn random_plan_resets_with_state() {
        let mut d = Faulty::new(
            consumer_pcie_ssd(1 << 16, 1),
            FaultPlan::Random { p: 0.25, seed: 42 },
        );
        let first = failure_pattern(&mut d, 48);
        d.reset_state();
        let second = failure_pattern(&mut d, 48);
        assert_eq!(first, second, "random stream must restart on reset");
    }

    #[test]
    fn transient_faults_heal_after_k_attempts() {
        // p = 1.0: every offset is fault-prone; each fails twice, then heals.
        let plan = FaultPlan::Transient {
            p: 1.0,
            attempts: 2,
            seed: 5,
        };
        let mut d = Faulty::new(consumer_pcie_ssd(1 << 16, 1), plan);
        let mut statuses = Vec::new();
        for attempt in 0..4u64 {
            d.submit(SimTime::ZERO, IoRequest::page(attempt, 99));
            let mut out = Vec::new();
            drain_all(&mut d, SimTime::ZERO, &mut out);
            assert_eq!(out.len(), 1);
            statuses.push(out[0].status);
        }
        assert_eq!(
            statuses,
            vec![IoStatus::Error, IoStatus::Error, IoStatus::Ok, IoStatus::Ok],
            "first two attempts fail, retries succeed"
        );
    }

    #[test]
    fn transient_selection_is_offset_stable() {
        let plan = FaultPlan::Transient {
            p: 0.4,
            attempts: 1,
            seed: 21,
        };
        let mut d = Faulty::new(consumer_pcie_ssd(1 << 16, 1), plan.clone());
        let forward = failure_pattern(&mut d, 32);
        // Same offsets submitted in reverse order fail identically (by
        // offset, not by position in the arrival stream).
        let mut r = Faulty::new(consumer_pcie_ssd(1 << 16, 1), plan);
        for i in (0..32u64).rev() {
            r.submit(SimTime::ZERO, IoRequest::page(i, i));
        }
        let mut out = Vec::new();
        drain_all(&mut r, SimTime::ZERO, &mut out);
        let mut reversed: Vec<u64> = out
            .iter()
            .filter(|c| c.status == IoStatus::Error)
            .map(|c| c.req.offset)
            .collect();
        reversed.sort_unstable();
        let mut fwd_sorted = forward.clone();
        fwd_sorted.sort_unstable();
        assert_eq!(fwd_sorted, reversed);
    }

    #[test]
    fn tail_latency_stretches_a_fraction_of_completions() {
        let mk = |frac| {
            Faulty::new(consumer_pcie_ssd(1 << 16, 3), FaultPlan::None)
                .with_tail_latency(frac, 8.0, 17)
        };
        let run = |mut d: Faulty<crate::Ssd>| {
            for i in 0..64u64 {
                d.submit(SimTime::ZERO, IoRequest::page(i, i * 7 % (1 << 16)));
            }
            let mut out = Vec::new();
            drain_all(&mut d, SimTime::ZERO, &mut out);
            assert_eq!(out.len(), 64);
            assert_eq!(d.outstanding(), 0);
            let delayed = d.delayed();
            let max_lat = out
                .iter()
                .map(|c| c.latency().as_micros_f64())
                .fold(0.0f64, f64::max);
            (delayed, max_lat)
        };
        let (none_delayed, base_max) = run(mk(0.0));
        let (some_delayed, tail_max) = run(mk(0.25));
        assert_eq!(none_delayed, 0);
        assert!(
            (4..=28).contains(&(some_delayed as i64)),
            "~25% of 64 completions should be delayed: {some_delayed}"
        );
        assert!(
            tail_max > base_max * 4.0,
            "stretched tail should dominate the latency max: {base_max} vs {tail_max}"
        );
    }

    #[test]
    fn tail_latency_is_deterministic_and_ordered() {
        let run = || {
            let mut d = Faulty::new(consumer_pcie_ssd(1 << 16, 9), FaultPlan::None)
                .with_tail_latency(0.3, 5.0, 77);
            for i in 0..48u64 {
                d.submit(SimTime::ZERO, IoRequest::page(i, i * 13 % (1 << 16)));
            }
            let mut out = Vec::new();
            drain_all(&mut d, SimTime::ZERO, &mut out);
            out.iter()
                .map(|c| (c.req.id, c.completed.as_nanos()))
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "tail injection must be byte-deterministic");
    }
}
