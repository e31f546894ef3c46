//! Harness-side wall-clock self-profiler.
//!
//! Everything simulated in this workspace runs on virtual time; the only
//! legitimate consumers of the host clock are the *harness* — the `repro`
//! binary and the `par_map` thread-pool driver that fans grid points
//! across cores. When the 4-thread harness runs slower
//! than the 1-thread harness (see ROADMAP), sim-time metrics cannot say
//! why: the regression lives in wall-clock land. This crate answers it.
//!
//! The profiler is a scoped phase timer, not a sampler:
//!
//! * [`scope`] opens a named phase on the current thread and a RAII guard
//!   closes it; nesting builds a stack (`main;run_grid;par_item`);
//! * each thread accumulates **self time** per stack path (child time is
//!   subtracted from the parent), so a collapsed-stack flame graph does
//!   not double-count;
//! * worker threads fold their totals into a process-wide table when they
//!   exit; [`report`] folds the calling thread and snapshots the table.
//!
//! Output formats: [`ProfileReport::collapsed`] is the classic
//! `frame;frame;frame value` text that `inferno` / speedscope /
//! `flamegraph.pl` load directly (weights are microseconds), and
//! [`ProfileReport::phase_table`] is a per-thread, per-phase breakdown
//! table for terminal reading.
//!
//! The profiler is **off by default** and costs one relaxed atomic load
//! per [`scope`] call when disabled. It is deliberately wall-clock and
//! therefore non-deterministic; nothing in the byte-determinism contract
//! may depend on it, which is why it lives in its own harness-only crate
//! (allowlisted for lint rule D1) rather than in `pioqo-obs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide fold target: stack path -> self nanoseconds.
static GLOBAL: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState::new());
}

struct ThreadState {
    label: String,
    /// Open spans: (name, accumulated child nanoseconds).
    stack: Vec<(&'static str, u64)>,
    /// Closed-span self time per full path, in nanoseconds.
    acc: BTreeMap<String, u64>,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            label: String::from("main"),
            stack: Vec::new(),
            acc: BTreeMap::new(),
        }
    }

    fn fold_into_global(&mut self) {
        if self.acc.is_empty() {
            return;
        }
        let mut global = GLOBAL.lock().expect("profiler table poisoned");
        for (path, ns) in std::mem::take(&mut self.acc) {
            *global.entry(path).or_insert(0) += ns;
        }
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        // Best-effort backstop for threads that forget to flush. Scoped
        // threads may be joined *before* their TLS destructors run, so
        // workers whose totals matter must call [`flush_thread`] at the
        // end of their closure rather than rely on this.
        self.fold_into_global();
    }
}

/// Turn the profiler on. Spans opened before this call are not recorded.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the profiler off again (open spans still record on drop).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether [`scope`] is currently recording.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Name the current thread in profile output (default `main`). Workers
/// should call this once before their first [`scope`].
pub fn set_thread_label(label: &str) {
    TLS.with(|t| t.borrow_mut().label = label.to_string());
}

/// Open a phase on the current thread; the returned guard closes it.
/// Near-free when the profiler is disabled.
pub fn scope(name: &'static str) -> Span {
    if !is_enabled() {
        return Span { start: None };
    }
    TLS.with(|t| t.borrow_mut().stack.push((name, 0)));
    Span {
        start: Some(Instant::now()),
    }
}

/// RAII guard for one open phase. Spans must nest (stack discipline),
/// which the borrow checker enforces for the normal `let _g = scope(..)`
/// pattern.
pub struct Span {
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        TLS.with(|t| {
            let mut st = t.borrow_mut();
            let Some((name, child_ns)) = st.stack.pop() else {
                return;
            };
            let self_ns = elapsed.saturating_sub(child_ns);
            let mut path = String::with_capacity(st.label.len() + 16);
            path.push_str(&st.label);
            for (frame, _) in &st.stack {
                path.push(';');
                path.push_str(frame);
            }
            path.push(';');
            path.push_str(name);
            *st.acc.entry(path).or_insert(0) += self_ns;
            if let Some(parent) = st.stack.last_mut() {
                parent.1 += elapsed;
            }
        });
    }
}

/// Fold the calling thread's totals into the process-wide table without
/// ending the thread. [`report`] calls this for its own thread; long-lived
/// threads that are not the reporter should call it when their phase of
/// interest ends.
pub fn flush_thread() {
    TLS.with(|t| t.borrow_mut().fold_into_global());
}

/// Discard all recorded data (calling thread and global table). Open
/// spans on other threads survive and will record on drop.
pub fn reset() {
    TLS.with(|t| {
        let mut st = t.borrow_mut();
        st.acc.clear();
        for frame in &mut st.stack {
            frame.1 = 0;
        }
    });
    GLOBAL.lock().expect("profiler table poisoned").clear();
}

/// A snapshot of all folded profile data.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Stack path (`thread;phase;subphase`) -> self time in microseconds.
    pub stacks: BTreeMap<String, u64>,
}

impl ProfileReport {
    /// Total recorded self time across every stack, in microseconds.
    pub fn total_us(&self) -> u64 {
        self.stacks.values().sum()
    }

    /// Collapsed-stack text: one `path weight` line per stack, weights in
    /// microseconds. Loads directly into inferno / speedscope /
    /// `flamegraph.pl`.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, us) in &self.stacks {
            out.push_str(path);
            out.push(' ');
            out.push_str(&us.to_string());
            out.push('\n');
        }
        out
    }

    /// Per-thread, per-phase breakdown: self time of each *top-level*
    /// phase (inclusive of its subphases), sorted heaviest-first within
    /// each thread, with a percent-of-total column.
    pub fn phase_table(&self) -> String {
        // (thread, phase) -> inclusive micros. Summing self time over all
        // paths under a phase reconstructs its inclusive time.
        let mut rows: BTreeMap<(String, String), u64> = BTreeMap::new();
        for (path, us) in &self.stacks {
            let mut parts = path.splitn(3, ';');
            let thread = parts.next().unwrap_or("?").to_string();
            let phase = parts.next().unwrap_or("?").to_string();
            *rows.entry((thread, phase)).or_insert(0) += us;
        }
        let total: u64 = rows.values().sum::<u64>().max(1);
        let mut sorted: Vec<(&(String, String), &u64)> = rows.iter().collect();
        sorted.sort_by(|a, b| {
            (&a.0 .0, std::cmp::Reverse(a.1)).cmp(&(&b.0 .0, std::cmp::Reverse(b.1)))
        });
        let mut out =
            String::from("thread         phase                          self_us      pct\n");
        for ((thread, phase), us) in sorted {
            let pct = *us as f64 * 100.0 / total as f64;
            out.push_str(&format!("{thread:<14} {phase:<30} {us:>10} {pct:>7.2}%\n"));
        }
        out.push_str(&format!("total {total} us\n"));
        out
    }
}

/// Fold the calling thread and snapshot everything recorded so far.
pub fn report() -> ProfileReport {
    flush_thread();
    let global = GLOBAL.lock().expect("profiler table poisoned");
    let stacks = global
        .iter()
        .map(|(path, ns)| (path.clone(), ns / 1_000))
        .collect();
    ProfileReport { stacks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The profiler state is process-wide; tests serialize on this.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        enable();
        guard
    }

    fn spin_us(us: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < us as u128 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn nested_scopes_split_self_time() {
        let _g = exclusive();
        {
            let _a = scope("outer");
            spin_us(2_000);
            {
                let _b = scope("inner");
                spin_us(2_000);
            }
        }
        let r = report();
        disable();
        let outer = r.stacks.get("main;outer").copied().unwrap_or(0);
        let inner = r.stacks.get("main;outer;inner").copied().unwrap_or(0);
        assert!(inner >= 1_500, "inner self time recorded: {inner}");
        assert!(
            outer < inner * 3,
            "outer self time must exclude inner: outer={outer} inner={inner}"
        );
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _g = exclusive();
        disable();
        {
            let _a = scope("ghost");
            spin_us(500);
        }
        assert!(report().stacks.is_empty());
    }

    #[test]
    fn worker_threads_fold_on_exit() {
        let _g = exclusive();
        std::thread::scope(|s| {
            for w in 0..2 {
                s.spawn(move || {
                    set_thread_label(&format!("w{w}"));
                    {
                        let _a = scope("work");
                        spin_us(1_000);
                    }
                    flush_thread();
                });
            }
        });
        let r = report();
        disable();
        assert!(r.stacks.contains_key("w0;work"), "stacks: {:?}", r.stacks);
        assert!(r.stacks.contains_key("w1;work"));
        let table = r.phase_table();
        assert!(table.contains("w0") && table.contains("work"));
        let collapsed = r.collapsed();
        assert!(collapsed.lines().all(|l| l.split(' ').count() == 2));
    }
}
