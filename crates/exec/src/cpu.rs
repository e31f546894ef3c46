//! CPU scheduler with a hyper-threading capacity model.
//!
//! The paper's machine is a quad-core Xeon with hyper-threading (4 physical,
//! 8 logical cores). PFTS scaling plateaus at parallel degree 8 precisely
//! because logical cores beyond the physical count add only fractional
//! capacity (§3.2: "increasing the parallel degree to a number larger than
//! the number of logical cores would not be helpful anymore").
//!
//! Model: with `n` runnable tasks the aggregate compute capacity (in
//! core-equivalents) is
//!
//! ```text
//! C(n) = min(n, physical)                                 n <= physical
//! C(n) = physical + ht_efficiency * (min(n, logical) - physical)   otherwise
//! ```
//!
//! and capacity is shared equally (processor sharing), so each task
//! progresses at `C(n)/n` core-equivalents. This is the standard fluid
//! approximation of an OS round-robin scheduler, and it is what makes
//! "degree 32 on 8 logical cores" cost the right amount.

use pioqo_simkit::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// CPU geometry and hyper-threading efficiency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Physical cores.
    pub physical: u32,
    /// Logical (SMT) cores; must be >= `physical`.
    pub logical: u32,
    /// Extra core-equivalents contributed by each logical core beyond the
    /// physical count (0.0 = SMT useless, 1.0 = SMT as good as a core).
    pub ht_efficiency: f64,
}

impl CpuConfig {
    /// The paper's quad-core hyper-threaded Xeon W3530.
    pub fn paper_xeon() -> CpuConfig {
        CpuConfig {
            physical: 4,
            logical: 8,
            ht_efficiency: 0.25,
        }
    }

    /// Aggregate capacity in core-equivalents with `n` runnable tasks.
    pub fn capacity(&self, n: usize) -> f64 {
        let n = n as f64;
        let phys = self.physical as f64;
        if n <= phys {
            n
        } else {
            let extra = (n.min(self.logical as f64) - phys).max(0.0);
            phys + self.ht_efficiency * extra
        }
    }
}

/// Identifier of a submitted compute task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Work residue below this threshold (in core-microseconds, 0.1 ns) counts
/// as complete — it absorbs integer-clock rounding.
const COMPLETE_EPS: f64 = 1e-4;

/// Processor-sharing CPU scheduler. See the module docs.
///
/// The run queue is kept in ascending order of remaining work. A settle
/// takes the same `dt_us * rate` from every task, and IEEE
/// round-to-nearest subtraction is monotone, so settling never reorders
/// it: the next completion is the front, the finished tasks are a prefix,
/// and a fresh task with the most work (the common case) is an append.
#[derive(Debug)]
pub struct CpuScheduler {
    cfg: CpuConfig,
    /// Remaining work in core-microseconds. The runnable tasks are
    /// `remaining[head..]`, ascending, one contiguous `f64` slice so that a
    /// settle is one vectorisable pass.
    remaining: Vec<f64>,
    /// `(id, caller-chosen routing tag)` of the task at the same index in
    /// `remaining`.
    owners: Vec<(TaskId, u64)>,
    /// Index of the first runnable task: finished tasks leave from the
    /// front by moving it, and the vectors are compacted once it passes
    /// their middle.
    head: usize,
    /// Per-task progress rate (core-equivalents), `capacity(n) / n` for
    /// the `n` runnable tasks, `0.0` when idle; set whenever `n` changes.
    rate: f64,
    next_id: u64,
    /// Time at which `remaining` values were last brought current.
    last_update: SimTime,
}

impl CpuScheduler {
    /// A scheduler for the given CPU.
    pub fn new(cfg: CpuConfig) -> CpuScheduler {
        CpuScheduler {
            cfg,
            remaining: Vec::new(),
            owners: Vec::new(),
            head: 0,
            rate: 0.0,
            next_id: 0,
            last_update: SimTime::ZERO,
        }
    }

    /// Set `rate` for the current number of runnable tasks.
    fn set_rate(&mut self) {
        let n = self.remaining.len() - self.head;
        self.rate = if n == 0 {
            0.0
        } else {
            self.cfg.capacity(n) / n as f64
        };
    }

    /// Bring all `remaining` values current to `now`.
    fn settle(&mut self, now: SimTime) {
        let dt_us = now.since(self.last_update).as_micros_f64();
        if dt_us > 0.0 {
            let rate = self.rate;
            if rate > 0.0 {
                for r in &mut self.remaining[self.head..] {
                    *r -= dt_us * rate;
                }
            }
        }
        self.last_update = now;
    }

    /// Submit a compute task of `work_us` core-microseconds at time `now`
    /// with a caller-chosen routing `tag` that [`CpuScheduler::advance`]
    /// hands back beside the finished id.
    pub fn submit_tagged(&mut self, now: SimTime, work_us: f64, tag: u64) -> TaskId {
        self.settle(now);
        let id = TaskId(self.next_id);
        self.next_id += 1;
        let work = work_us.max(0.0);
        // 97.5-99.9 % of submits on the benchmark workloads carry the most
        // work. Sending them through the search and `insert` too made a
        // step cost 12-27 % more at 4-8 runnable tasks and up to twice as
        // much at 40 (EXPERIMENTS.md, "Ordered run queue").
        if self.remaining.last().is_none_or(|&r| r <= work) {
            self.remaining.push(work);
            self.owners.push((id, tag));
        } else {
            let at = self.head + self.remaining[self.head..].partition_point(|&r| r <= work);
            self.remaining.insert(at, work);
            self.owners.insert(at, (id, tag));
        }
        self.set_rate();
        id
    }

    /// Earliest time a task will finish (given no further submissions),
    /// or `None` when idle.
    pub fn next_event(&self) -> Option<SimTime> {
        let &min_remaining = self.remaining.get(self.head)?;
        let rate = self.rate;
        if rate == 0.0 {
            return None;
        }
        if min_remaining <= COMPLETE_EPS {
            // Finished (possibly with float residue): completes "now".
            return Some(self.last_update);
        }
        let dt = SimDuration::from_micros_f64(min_remaining / rate);
        // Rounding the event time to the integer clock must never produce a
        // zero-length step for unfinished work, or the event loop would spin
        // without progress; force at least one nanosecond.
        let dt = if dt.is_zero() {
            SimDuration::from_nanos(1)
        } else {
            dt
        };
        Some(self.last_update + dt)
    }

    /// Advance to `now`, appending the `(id, tag)` of every finished task
    /// to `out` in ascending id order.
    pub fn advance(&mut self, now: SimTime, out: &mut Vec<(TaskId, u64)>) {
        self.settle(now);
        let first = self.head;
        while self
            .remaining
            .get(self.head)
            .is_some_and(|&r| r <= COMPLETE_EPS)
        {
            self.head += 1;
        }
        if self.head == first {
            return;
        }
        let from = out.len();
        out.extend_from_slice(&self.owners[first..self.head]);
        out[from..].sort_unstable_by_key(|&(id, _)| id);
        if 2 * self.head >= self.remaining.len() {
            self.remaining.drain(..self.head);
            self.owners.drain(..self.head);
            self.head = 0;
        }
        self.set_rate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xeon() -> CpuScheduler {
        CpuScheduler::new(CpuConfig::paper_xeon())
    }

    fn run_to_idle(cpu: &mut CpuScheduler) -> (SimTime, Vec<(TaskId, u64)>) {
        let mut done = Vec::new();
        let mut now = SimTime::ZERO;
        while let Some(t) = cpu.next_event() {
            now = t;
            cpu.advance(now, &mut done);
        }
        (now, done)
    }

    #[test]
    fn capacity_model() {
        let c = CpuConfig::paper_xeon();
        assert_eq!(c.capacity(1), 1.0);
        assert_eq!(c.capacity(4), 4.0);
        assert_eq!(c.capacity(8), 5.0); // 4 + 0.25*4
        assert_eq!(c.capacity(32), 5.0); // oversubscription adds nothing
    }

    #[test]
    fn single_task_runs_at_full_speed() {
        let mut cpu = xeon();
        cpu.submit_tagged(SimTime::ZERO, 100.0, 0);
        let (end, done) = run_to_idle(&mut cpu);
        assert_eq!(done.len(), 1);
        assert!((end.as_micros_f64() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn four_tasks_run_in_parallel() {
        let mut cpu = xeon();
        for _ in 0..4 {
            cpu.submit_tagged(SimTime::ZERO, 100.0, 0);
        }
        let (end, done) = run_to_idle(&mut cpu);
        assert_eq!(done.len(), 4);
        assert!((end.as_micros_f64() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn eight_tasks_see_ht_capacity() {
        let mut cpu = xeon();
        for _ in 0..8 {
            cpu.submit_tagged(SimTime::ZERO, 100.0, 0);
        }
        // 800 core-us of work at 5 core-equivalents -> 160 us.
        let (end, _) = run_to_idle(&mut cpu);
        assert!((end.as_micros_f64() - 160.0).abs() < 1e-6, "{end}");
    }

    #[test]
    fn oversubscription_no_faster_than_logical() {
        let mut cpu = xeon();
        for _ in 0..32 {
            cpu.submit_tagged(SimTime::ZERO, 100.0, 0);
        }
        // 3200 core-us at 5 -> 640 us.
        let (end, _) = run_to_idle(&mut cpu);
        assert!((end.as_micros_f64() - 640.0).abs() < 1e-6, "{end}");
    }

    #[test]
    fn staggered_submission_shares_fairly() {
        let mut cpu = CpuScheduler::new(CpuConfig {
            physical: 1,
            logical: 1,
            ht_efficiency: 0.0,
        });
        let a = cpu.submit_tagged(SimTime::ZERO, 100.0, 0);
        // At t=50, task a has 50 left; b arrives, they share the core.
        let b = cpu.submit_tagged(SimTime::from_micros(50), 100.0, 0);
        let mut done = Vec::new();
        let t1 = cpu.next_event().expect("busy");
        cpu.advance(t1, &mut done);
        // a finishes after 50 more core-us at rate 1/2 -> t = 150.
        assert_eq!(done, vec![(a, 0)]);
        assert!((t1.as_micros_f64() - 150.0).abs() < 1e-6);
        let t2 = cpu.next_event().expect("b still running");
        done.clear();
        cpu.advance(t2, &mut done);
        // b: progresses 50 core-us by t=150 (rate 1/2), then runs alone at
        // full speed for its remaining 50 -> finishes at t=200.
        assert_eq!(done, vec![(b, 0)]);
        assert!((t2.as_micros_f64() - 200.0).abs() < 1e-6);
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut cpu = xeon();
        cpu.submit_tagged(SimTime::from_micros(5), 0.0, 0);
        let t = cpu.next_event().expect("task pending");
        assert_eq!(t, SimTime::from_micros(5));
        let mut done = Vec::new();
        cpu.advance(t, &mut done);
        assert_eq!(done.len(), 1);
        // Beside a running task too: zero-work tasks go to the front of
        // the queue and all finish at once.
        let long = cpu.submit_tagged(t, 100.0, 1);
        let now = SimTime::from_micros(10);
        let zeros: Vec<(TaskId, u64)> = (0..5)
            .map(|i| (cpu.submit_tagged(now, 0.0, 2 + i), 2 + i))
            .collect();
        cpu.assert_ordered();
        assert_eq!(cpu.next_event(), Some(now));
        done.clear();
        cpu.advance(now, &mut done);
        assert_eq!(done, zeros);
        let (_, rest) = run_to_idle(&mut cpu);
        assert_eq!(rest, vec![(long, 1)]);
    }

    #[test]
    fn idle_scheduler_has_no_events() {
        let cpu = xeon();
        assert_eq!(cpu.next_event(), None);
        assert!(cpu.remaining.is_empty());
        assert_eq!(cpu.head, 0);
    }

    #[test]
    fn tags_come_back_with_their_tasks_in_id_order() {
        let mut cpu = xeon();
        let a = cpu.submit_tagged(SimTime::ZERO, 10.0, 7);
        let b = cpu.submit_tagged(SimTime::ZERO, 10.0, 0);
        let c = cpu.submit_tagged(SimTime::ZERO, 10.0, 9);
        let (_, done) = run_to_idle(&mut cpu);
        assert_eq!(done, vec![(a, 7), (b, 0), (c, 9)]);
        // Many equal-work tasks submitted at one instant finish in one
        // advance, still in id order.
        let now = SimTime::from_micros(100);
        let ids: Vec<(TaskId, u64)> = (0..64)
            .map(|i| (cpu.submit_tagged(now, 25.0, i % 3), i % 3))
            .collect();
        let t = cpu.next_event().expect("busy");
        let mut done = Vec::new();
        cpu.advance(t, &mut done);
        assert_eq!(done, ids);
        assert_eq!(cpu.next_event(), None);
    }

    /// The scheduler this one replaced, kept as the reference: tasks in a
    /// `BTreeMap`, finished ids collected and sorted on every advance. The
    /// per-task arithmetic is the same expression for expression, so the
    /// two must agree to the bit.
    struct TreeModel {
        cfg: CpuConfig,
        tasks: std::collections::BTreeMap<TaskId, f64>,
        next_id: u64,
        last_update: SimTime,
    }

    impl TreeModel {
        fn new(cfg: CpuConfig) -> TreeModel {
            TreeModel {
                cfg,
                tasks: std::collections::BTreeMap::new(),
                next_id: 0,
                last_update: SimTime::ZERO,
            }
        }

        /// `(id, remaining bits)` in id order.
        fn by_id(&self) -> Vec<(TaskId, u64)> {
            self.tasks
                .iter()
                .map(|(&id, r)| (id, r.to_bits()))
                .collect()
        }

        fn rate(&self) -> f64 {
            let n = self.tasks.len();
            if n == 0 {
                return 0.0;
            }
            self.cfg.capacity(n) / n as f64
        }

        fn settle(&mut self, now: SimTime) {
            let dt_us = now.since(self.last_update).as_micros_f64();
            if dt_us > 0.0 {
                let rate = self.rate();
                if rate > 0.0 {
                    for r in self.tasks.values_mut() {
                        *r -= dt_us * rate;
                    }
                }
            }
            self.last_update = now;
        }

        fn submit(&mut self, now: SimTime, work_us: f64) -> TaskId {
            self.settle(now);
            let id = TaskId(self.next_id);
            self.next_id += 1;
            self.tasks.insert(id, work_us.max(0.0));
            id
        }

        fn next_event(&self) -> Option<SimTime> {
            let rate = self.rate();
            if rate == 0.0 {
                return None;
            }
            let min_remaining = self.tasks.values().copied().fold(f64::INFINITY, f64::min);
            if min_remaining <= COMPLETE_EPS {
                return Some(self.last_update);
            }
            let dt = SimDuration::from_micros_f64(min_remaining / rate);
            let dt = if dt.is_zero() {
                SimDuration::from_nanos(1)
            } else {
                dt
            };
            Some(self.last_update + dt)
        }

        fn advance(&mut self, now: SimTime, out: &mut Vec<TaskId>) {
            self.settle(now);
            let mut finished: Vec<TaskId> = self
                .tasks
                .iter()
                .filter(|(_, r)| **r <= COMPLETE_EPS)
                .map(|(&id, _)| id)
                .collect();
            finished.sort_unstable();
            for id in &finished {
                self.tasks.remove(id);
            }
            out.extend(finished);
        }
    }

    impl CpuScheduler {
        /// `(id, remaining bits)` in id order, for comparison with the
        /// tree model.
        fn by_id(&self) -> Vec<(TaskId, u64)> {
            let mut v: Vec<(TaskId, u64)> = self.owners[self.head..]
                .iter()
                .zip(&self.remaining[self.head..])
                .map(|(&(id, _), r)| (id, r.to_bits()))
                .collect();
            v.sort_unstable();
            v
        }

        /// The run queue is in ascending order of remaining work, its two
        /// halves are the same length and its front is at most half way.
        fn assert_ordered(&self) {
            assert_eq!(self.remaining.len(), self.owners.len());
            assert!(2 * self.head < self.remaining.len() || self.remaining.is_empty());
            let r = &self.remaining[self.head..];
            assert!(
                r.windows(2).all(|w| w[0] <= w[1]),
                "run queue out of order: {r:?}"
            );
        }
    }

    /// One seeded step of the comparison: a completion, or a burst of up
    /// to `burst` submissions part-way to the next completion (`0`: always
    /// the completion). Checks the next event and, when `check` is set,
    /// the per-task remaining bits and the queue order.
    fn step_both(
        dense: &mut CpuScheduler,
        tree: &mut TreeModel,
        rng: &mut pioqo_simkit::SimRng,
        now: &mut SimTime,
        done: (&mut Vec<(TaskId, u64)>, &mut Vec<TaskId>),
        burst: u64,
        check: bool,
    ) {
        let a = dense.next_event();
        assert_eq!(a, tree.next_event());
        match a {
            Some(t) if burst == 0 || rng.below(3) > 0 => {
                *now = t;
                dense.advance(t, done.0);
                tree.advance(t, done.1);
            }
            _ => {
                let gap = a.map_or(50_000, |t| t.since(*now).as_nanos());
                *now += SimDuration::from_nanos(rng.below(gap + 1));
                for _ in 0..1 + rng.below(burst) {
                    // Mostly short page-sized work, some zero-work
                    // startups, some long sorts, some exact ties.
                    let work = match rng.below(8) {
                        0 => 0.0,
                        1 => 2_000.0 * rng.unit(),
                        2 => 20.0,
                        _ => 20.0 * rng.unit(),
                    };
                    let tag = rng.below(5);
                    assert_eq!(
                        dense.submit_tagged(*now, work, tag),
                        tree.submit(*now, work)
                    );
                }
            }
        }
        if check {
            dense.assert_ordered();
            assert_eq!(dense.by_id(), tree.by_id());
        }
    }

    #[test]
    fn a_4096_task_run_matches_the_tree_model() {
        let cfg = CpuConfig::paper_xeon();
        let mut dense = CpuScheduler::new(cfg.clone());
        let mut tree = TreeModel::new(cfg);
        let mut rng = pioqo_simkit::SimRng::seeded(4096);
        let mut now = SimTime::ZERO;
        let (mut done_dense, mut done_tree) = (Vec::new(), Vec::new());
        // Fill past 4 096 submissions, then drain; the full state is
        // compared every 64th step to keep the debug build quick.
        let mut steps = 0u64;
        while tree.next_id < 4096 || dense.next_event().is_some() {
            let burst = if tree.next_id < 4096 { 64 } else { 0 };
            let done = (&mut done_dense, &mut done_tree);
            step_both(
                &mut dense,
                &mut tree,
                &mut rng,
                &mut now,
                done,
                burst,
                steps.is_multiple_of(64),
            );
            steps += 1;
        }
        assert_eq!(tree.next_event(), None);
        let ids: Vec<TaskId> = done_dense.iter().map(|d| d.0).collect();
        assert_eq!(ids, done_tree);
        assert_eq!(ids.len() as u64, tree.next_id);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Seeded submit/advance interleavings: every `next_event` time and
        /// every task's remaining work is bit-equal to the tree model's,
        /// the queue stays ordered, and tasks complete in the same order.
        #[test]
        fn dense_scheduler_matches_the_tree_model(
            seed in proptest::prelude::any::<u64>(),
            physical in 1u32..6,
            smt in 0u32..6,
            steps in 20usize..200,
        ) {
            let cfg = CpuConfig { physical, logical: physical + smt, ht_efficiency: 0.25 };
            let mut dense = CpuScheduler::new(cfg.clone());
            let mut tree = TreeModel::new(cfg);
            let mut rng = pioqo_simkit::SimRng::seeded(seed);
            let mut now = SimTime::ZERO;
            let (mut done_dense, mut done_tree) = (Vec::new(), Vec::new());
            for _ in 0..steps {
                let done = (&mut done_dense, &mut done_tree);
                step_both(&mut dense, &mut tree, &mut rng, &mut now, done, 4, true);
            }
            let ids: Vec<TaskId> = done_dense.iter().map(|d| d.0).collect();
            proptest::prop_assert_eq!(ids, done_tree);
        }
    }
}
