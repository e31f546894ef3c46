//! Rule rationale for `pioqo-lint explain RULE` and SARIF rule metadata.
//!
//! Every rule's entry answers three questions: what invariant it guards,
//! why the invariant matters for byte-deterministic replay, and what the
//! blessed alternative looks like. The text is the contract reviewers
//! hold code to; keep it in sync with the implementations in
//! [`crate::rules`].

/// One-line summary of a rule (used as SARIF `shortDescription`).
pub fn summary(rule: &str) -> &'static str {
    match rule {
        "D1" => "no wall-clock types in simulated code",
        "D2" => "no ambient entropy; randomness flows through seeded SimRng",
        "D3" => "no hash-ordered collections in simulation crates",
        "D4" => "no raw integer arithmetic on time-named bindings",
        "D5" => "no panics in library crates; return errors",
        "D6" => "library crate roots declare the hygiene attributes",
        "D7" => "no OS threads in simulation crates",
        "D8" => "RNG stream discipline: derive, never clone or share across sessions",
        "D9" => "every acquired lease is released or returned on every exit path",
        "D10" => "no scheduling argument that traces to `now - x`",
        "D11" => "no internal calls to #[deprecated] items",
        _ => "unknown rule",
    }
}

/// Full rationale for a rule, or `None` for an unknown identifier.
pub fn rationale(rule: &str) -> Option<&'static str> {
    let text = match rule {
        "D1" => {
            "D1 — no wall-clock types in simulated code.\n\n\
             `Instant` and `SystemTime` read the host clock, so two runs of the same\n\
             seed diverge the moment a timing-dependent decision is made. Simulated\n\
             code must use `SimTime`/`SimDuration`, which advance only when the event\n\
             queue pops. Harness code that genuinely measures the host (repro,\n\
             the profiler, the real-device backend) carries lint.toml allowlist entries."
        }
        "D2" => {
            "D2 — no ambient entropy.\n\n\
             `thread_rng`, `OsRng`, `from_entropy`, `getrandom`, and `RandomState`\n\
             all pull bits from the OS, which no seed controls. Every random draw in\n\
             the workspace must come from a `SimRng` constructed with `seeded` or\n\
             `derive`, so the master seed reproduces the full draw sequence."
        }
        "D3" => {
            "D3 — no hash-ordered collections in simulation crates.\n\n\
             `HashMap`/`HashSet` iteration order depends on a per-process random\n\
             hasher seed; any simulation decision made while iterating one leaks\n\
             that order into results. Use `BTreeMap`/`BTreeSet`, or sort before\n\
             iterating."
        }
        "D4" => {
            "D4 — no raw integer arithmetic on time-named bindings.\n\n\
             A `u64` nanosecond count mixes silently with a microsecond count; the\n\
             typed wrappers `SimTime`/`SimDuration` make unit mixing a compile\n\
             error. The rule flags `+ - * / %` on identifiers that look like raw\n\
             times (`*_ns`, `*_time`, `deadline`, `latency`) — unless the syntax\n\
             layer saw the identifier declared as `SimTime`/`SimDuration`, in which\n\
             case the wrapper's operators already enforce the units."
        }
        "D5" => {
            "D5 — no panics in library crates.\n\n\
             `unwrap()`, `panic!`, `todo!`, and terse `expect()` calls turn internal\n\
             bugs into aborts for every consumer of the crate. Return `Result`, or\n\
             use `.expect(\"...\")` with a message (>= 10 chars) describing the\n\
             violated invariant so the panic is a documented impossibility."
        }
        "D6" => {
            "D6 — library crate roots declare the hygiene attributes.\n\n\
             Every `src/lib.rs` must carry `#![forbid(unsafe_code)]` and\n\
             `#![warn(missing_docs)]`. The first makes memory safety a workspace\n\
             invariant rather than a review item; the second keeps the public API\n\
             documented as it grows."
        }
        "D7" => {
            "D7 — no OS threads in simulation crates.\n\n\
             Real threads introduce scheduling nondeterminism the seed cannot\n\
             reproduce. Concurrency inside the simulation is modeled in virtual\n\
             time (interleaved I/Os, overlapped seeks); the only sanctioned\n\
             real-thread site is `simkit::par`, which derives one RNG per item and\n\
             merges in submission order so outputs are identical at any thread\n\
             count."
        }
        "D8" => {
            "D8 — RNG stream discipline (flow-sensitive, simulation crates).\n\n\
             Three shapes are flagged. (a) `.clone()` of an RNG: the copy replays\n\
             the same draw sequence, silently correlating two decision streams.\n\
             (b) Passing one RNG `&mut` into calls and also `.fork()`ing it inside\n\
             the same loop body: the fork salt then depends on how many draws the\n\
             callee made, so adding a draw anywhere reshuffles every derived\n\
             stream. (c) Drawing inside a session loop from an RNG declared\n\
             outside it: session N's draws then depend on how much randomness\n\
             sessions 0..N consumed, so adding one draw to one session perturbs\n\
             all later sessions. The blessed pattern is a fresh\n\
             `SimRng::derive(master_seed, index)` stream per unit of work."
        }
        "D9" => {
            "D9 — must-release resource analysis (flow-sensitive, simulation\n\
             crates).\n\n\
             A binding `let x = <expr>.acquire(...)` (a `QdBudget` queue-depth\n\
             lease) must be consumed — released, returned, or moved into a store —\n\
             on every path to the function exit, including the early exits `?`\n\
             inserts. A leaked lease permanently shrinks the simulated device's\n\
             queue budget, which shows up as a throughput collapse thousands of\n\
             events later with no backtrace. This is the static upgrade of\n\
             `QdBudget`'s runtime debug assert: the assert catches a double\n\
             release, D9 catches a missing one. The analysis walks a per-function\n\
             CFG (if/else, match arms, loops, `?`-edges); resources threaded\n\
             through containers or cross-function handoffs are out of scope and\n\
             covered by the runtime check."
        }
        "D10" => {
            "D10 — sim-time causality (flow-sensitive, simulation crates).\n\n\
             An event scheduled at `now - x` fires in the past; the event queue\n\
             panics at runtime (`event scheduled in the past`), but only on the\n\
             input that reaches the bad branch. D10 flags any `schedule`,\n\
             `schedule_timer`, or `complete_at` call whose time argument contains\n\
             `now - ...` — directly or traced through the `let` bindings feeding\n\
             it. Compute deadlines as `now + duration`, and clamp completions with\n\
             `t.max(now)` when retrofitting stored timestamps."
        }
        "D11" => {
            "D11 — no internal calls to #[deprecated] items.\n\n\
             Deprecated shims exist to give external users one release of\n\
             migration room; internal callers would keep them alive forever.\n\
             Free functions are matched as bare `name(...)` calls; methods only\n\
             as `Type::name(...)`, so an unrelated type's method with the same\n\
             name never trips. Test code is exempt (tests may pin deprecated\n\
             behavior until the shim is deleted)."
        }
        _ => return None,
    };
    Some(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RULE_IDS;

    #[test]
    fn every_rule_has_summary_and_rationale() {
        for id in RULE_IDS {
            assert_ne!(summary(id), "unknown rule", "missing summary for {id}");
            let r = rationale(id).unwrap_or_default();
            assert!(
                r.starts_with(&format!("{id} —")),
                "rationale for {id} must lead with its identifier"
            );
        }
    }

    #[test]
    fn unknown_rule_is_none() {
        assert!(rationale("D99").is_none());
        assert_eq!(summary("D99"), "unknown rule");
    }
}
