//! Rule rationale for `pioqo-lint explain RULE`.
//!
//! Every rule's entry answers three questions: what invariant it guards,
//! why the invariant matters for byte-deterministic replay, and what the
//! blessed alternative looks like. The text is the contract reviewers
//! hold code to; keep it in sync with the implementations in
//! [`crate::rules`].

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
             times (`*_ns`, `*_time`, `deadline`, `latency`) — unless the file\n\
             declares the identifier as `SimTime`/`SimDuration`, in which case the\n\
             wrapper's operators already enforce the units."
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
             real-thread site is `simkit::par`, which runs independent items and\n\
             merges in submission order so outputs are identical at any thread\n\
             count."
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
            let r = rationale(id).unwrap_or_default();
            // The first line is the one-line summary, then a blank line.
            let summary = r.lines().next().unwrap_or_default();
            assert!(
                summary.starts_with(&format!("{id} — ")) && summary.ends_with('.'),
                "rationale for {id} must lead with a one-line summary: {summary:?}"
            );
            assert_eq!(
                r.lines().nth(1),
                Some(""),
                "{id}: summary, then a blank line"
            );
        }
    }

    #[test]
    fn unknown_rule_is_none() {
        assert!(rationale("D99").is_none());
    }
}
