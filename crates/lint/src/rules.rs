//! The determinism and unit-safety rules (D1-D11).
//!
//! Every rule scans the masked source (see [`crate::lexer`]) so that
//! comments and string literals never trigger findings. Rules other than
//! D6 skip the trailing `#[cfg(test)]` region of a file; by workspace
//! convention test modules come last, and the lint treats everything from
//! the first `#[cfg(test)]` attribute to end-of-file as test code.
//!
//! D1-D7 are token-level scans. D8-D11 are flow-sensitive: they run on
//! the [`crate::syntax`] structural view (functions, loops, `let`
//! bindings, typed identifiers) and, for D9, the per-function
//! [`crate::cfg`] control-flow graph. D4 also consults the syntax layer:
//! identifiers declared `SimTime`/`SimDuration` are unit-safe by
//! construction and are exempt from the textual arithmetic check.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | D1   | No wall-clock types (`Instant`, `SystemTime`) — virtual time only |
//! | D2   | No ambient entropy (`thread_rng`, `OsRng`, ...) — seeded `SimRng` only |
//! | D3   | No `HashMap`/`HashSet` in simulation crates — iteration order leaks |
//! | D4   | No raw arithmetic on time-named bindings — use `SimTime`/`SimDuration` |
//! | D5   | No panics in library crates (`unwrap`, `panic!`, ...) — return errors |
//! | D6   | Library crates declare `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]` |
//! | D7   | No OS threads in simulation crates — concurrency is modeled in virtual time |
//! | D8   | RNG stream discipline — no `.clone()` of an RNG, no forking a stream that is also passed `&mut` in the same loop, no reuse of one stream across session iterations |
//! | D9   | Must-release — a lease bound from `.acquire()` is released/returned on every exit path, including `?`-early-returns |
//! | D10  | Sim-time causality — no `schedule`/`complete_at` argument that traces to `now - x` |
//! | D11  | No internal calls to `#[deprecated]` items outside test code |

use crate::cfg::Cfg;
use crate::diag::Diagnostic;
use crate::flow;
use crate::lexer::is_ident_char;
use crate::syntax::{Syntax, TokKind};

/// All rule identifiers, in severity-agnostic lexical order.
pub const RULE_IDS: &[&str] = &[
    "D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9", "D10", "D11",
];

/// Crates whose code runs inside the deterministic simulation; D3/D4
/// apply only here (matching the `crates/<name>` directory name).
pub const SIM_CRATES: &[&str] = &[
    "simkit",
    "device",
    "exec",
    "bufpool",
    "core",
    "optimizer",
    "obs",
];

/// Shortest `.expect("...")` message D5 accepts as descriptive.
const MIN_EXPECT_MESSAGE: usize = 10;

/// Workspace-wide facts gathered in a first pass, consumed by rules that
/// need cross-file context (currently D11's deprecated-item set).
#[derive(Debug, Clone, Default)]
pub struct WorkspaceInfo {
    /// Every `#[deprecated]` fn in the workspace, as
    /// `(impl type if a method, name)`. Methods are matched only as
    /// `Type::name(` so an unrelated `Other::name` never trips D11.
    pub deprecated: std::collections::BTreeSet<(Option<String>, String)>,
}

impl WorkspaceInfo {
    /// Record the deprecated items declared in one file.
    pub fn collect(&mut self, original: &str) {
        let masked = crate::lexer::mask_source(original);
        let syn = Syntax::parse(&masked);
        for d in &syn.deprecated {
            self.deprecated
                .insert((d.impl_type.clone(), d.name.clone()));
        }
    }
}

/// One source file plus the crate facts the rules need.
#[derive(Debug, Clone, Copy)]
pub struct FileInput<'a> {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: &'a str,
    /// Directory name of the owning crate under `crates/`.
    pub crate_dir: &'a str,
    /// True when the owning crate has a `src/lib.rs` (library crate).
    pub is_lib_crate: bool,
    /// True when this file *is* the crate's `src/lib.rs`.
    pub is_lib_root: bool,
    /// Full original source text.
    pub original: &'a str,
}

/// Byte offsets of line starts, for offset→line mapping.
struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    fn new(text: &str) -> LineIndex {
        let mut starts = vec![0];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based line number containing byte `offset`.
    fn line_of(&self, offset: usize) -> u64 {
        match self.starts.binary_search(&offset) {
            Ok(i) => i as u64 + 1,
            Err(i) => i as u64,
        }
    }

    /// The original text of the line containing byte `offset`, trimmed.
    fn snippet<'a>(&self, text: &'a str, offset: usize) -> &'a str {
        let line = self.line_of(offset) as usize - 1;
        let start = self.starts[line];
        let end = self
            .starts
            .get(line + 1)
            .map(|e| e - 1)
            .unwrap_or(text.len());
        text[start..end].trim()
    }
}

/// Run every applicable rule over one file, appending findings.
pub fn check_file(input: &FileInput<'_>, ws: &WorkspaceInfo, out: &mut Vec<Diagnostic>) {
    let masked = crate::lexer::mask_source(input.original);
    let syn = Syntax::parse(&masked);
    let lines = LineIndex::new(&masked);
    let test_start = test_region_start(&masked).unwrap_or(usize::MAX);

    let mut emit = |rule: &str, offset: usize, message: String| {
        out.push(Diagnostic {
            rule: rule.to_string(),
            path: input.rel_path.to_string(),
            line: lines.line_of(offset),
            message,
            snippet: truncate(lines.snippet(input.original, offset)),
        });
    };

    // D1: wall-clock types.
    for token in ["Instant", "SystemTime"] {
        for off in word_hits(&masked, token) {
            if off >= test_start {
                continue;
            }
            emit(
                "D1",
                off,
                format!("wall-clock type `{token}`: simulated code must use SimTime/SimDuration"),
            );
        }
    }

    // D2: ambient entropy.
    for token in [
        "thread_rng",
        "ThreadRng",
        "from_entropy",
        "OsRng",
        "getrandom",
        "RandomState",
    ] {
        for off in word_hits(&masked, token) {
            if off >= test_start {
                continue;
            }
            emit(
                "D2",
                off,
                format!("ambient entropy `{token}`: randomness must flow through a seeded SimRng"),
            );
        }
    }

    let is_sim = SIM_CRATES.contains(&input.crate_dir);

    // D3: hash-ordered collections in simulation crates.
    if is_sim {
        for token in ["HashMap", "HashSet"] {
            for off in word_hits(&masked, token) {
                if off >= test_start {
                    continue;
                }
                emit(
                    "D3",
                    off,
                    format!(
                        "`{token}` in simulation crate: iteration order is seed-independent; \
                         use BTreeMap/BTreeSet or sort before iterating"
                    ),
                );
            }
        }
    }

    // D4: raw arithmetic on time-named bindings. Identifiers the syntax
    // layer saw declared as SimTime/SimDuration are unit-safe already —
    // the wrapper's operator overloads enforce the units — so only
    // untyped (raw-integer) time names are flagged.
    if is_sim {
        for (off, ident) in time_arith_hits(&masked) {
            if off >= test_start || syn.time_typed.contains(&ident) {
                continue;
            }
            emit(
                "D4",
                off,
                format!(
                    "raw arithmetic on time-named binding `{ident}`: \
                     wrap it in SimTime/SimDuration so units cannot mix"
                ),
            );
        }
    }

    // D7: OS threading primitives in simulation crates. Harness crates
    // (repro, workload) may spawn real threads freely; inside the
    // simulation, concurrency must be modeled in virtual time, and the
    // only sanctioned real-thread site is `simkit::par` (allowlisted in
    // lint.toml with its determinism argument).
    if is_sim {
        for token in ["thread", "spawn", "JoinHandle"] {
            for off in word_hits(&masked, token) {
                if off >= test_start {
                    continue;
                }
                emit(
                    "D7",
                    off,
                    format!(
                        "OS thread primitive `{token}` in simulation crate: model concurrency \
                         in virtual time; real threads belong to the harness (simkit::par)"
                    ),
                );
            }
        }
    }

    // D5: panics in library crates.
    if input.is_lib_crate {
        for off in word_hits(&masked, "unwrap") {
            if off >= test_start || !is_method_call(&masked, off, "unwrap") {
                continue;
            }
            emit(
                "D5",
                off,
                "bare `.unwrap()` in library crate: return an error or use a descriptive `.expect()`"
                    .to_string(),
            );
        }
        for mac in ["panic", "unreachable", "todo", "unimplemented"] {
            for off in word_hits(&masked, mac) {
                if off >= test_start {
                    continue;
                }
                if masked[off + mac.len()..].starts_with('!') {
                    emit(
                        "D5",
                        off,
                        format!("`{mac}!` in library crate: return an error instead of panicking"),
                    );
                }
            }
        }
        for off in word_hits(&masked, "expect") {
            if off >= test_start || !is_method_call(&masked, off, "expect") {
                continue;
            }
            if let Some(len) = expect_message_len(input.original, &masked, off) {
                if len < MIN_EXPECT_MESSAGE {
                    emit(
                        "D5",
                        off,
                        format!(
                            "`.expect()` message is only {len} chars: describe the violated \
                             invariant (>= {MIN_EXPECT_MESSAGE} chars)"
                        ),
                    );
                }
            }
        }
    }

    // D6: mandatory crate-root hygiene attributes.
    if input.is_lib_root {
        let squashed: String = masked.chars().filter(|c| !c.is_whitespace()).collect();
        for attr in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
            if !squashed.contains(attr) {
                emit("D6", 0, format!("library crate root is missing `{attr}`"));
            }
        }
    }

    // Flow-sensitive rules on the syntax/CFG layers.
    if is_sim {
        d8_rng_discipline(&masked, &syn, test_start, &mut emit);
        d9_must_release(&masked, &syn, test_start, &mut emit);
        d10_causality(&masked, &syn, test_start, &mut emit);
    }
    d11_deprecated_calls(&masked, &syn, ws, test_start, &mut emit);
}

/// True when an identifier names an RNG stream.
fn is_rng_name(ident: &str) -> bool {
    ident.to_ascii_lowercase().contains("rng")
}

/// D8: RNG stream discipline in simulation crates. Three shapes are
/// flagged: (a) `.clone()` of an RNG value — a cloned stream replays the
/// same draws, silently correlating two decision sequences; (b) one RNG
/// identifier both passed `&mut` into calls and `.fork()`ed inside the
/// same loop body — the fork salt then depends on how many draws the
/// callee made, coupling derived streams to call order; (c) a loop over
/// sessions drawing from an RNG declared outside the loop — per-session
/// streams must be derived per iteration so session N's draws don't
/// depend on how much randomness sessions 0..N consumed.
fn d8_rng_discipline(
    masked: &str,
    syn: &Syntax,
    test_start: usize,
    emit: &mut impl FnMut(&str, usize, String),
) {
    let n = syn.tokens.len();
    // (a) `.clone()` on an rng-named receiver.
    for i in 0..n.saturating_sub(3) {
        if syn.tokens[i].start >= test_start {
            break;
        }
        let is_rng_ident =
            matches!(syn.tokens[i].kind, TokKind::Ident) && is_rng_name(syn.text(masked, i));
        if is_rng_ident
            && matches!(syn.tokens[i + 1].kind, TokKind::Punct(b'.'))
            && syn.is_word(masked, i + 2, "clone")
            && matches!(syn.tokens[i + 3].kind, TokKind::Punct(b'('))
        {
            emit(
                "D8",
                syn.tokens[i].start,
                format!(
                    "`{}.clone()` duplicates an RNG stream: the copy replays identical draws; \
                     derive an independent stream with SimRng::derive or .fork instead",
                    syn.text(masked, i)
                ),
            );
        }
    }
    for l in &syn.loops {
        let body = syn.blocks[l.body];
        let (bstart, bend) = (body.open + 1, body.close.min(n));
        if bstart < n && syn.tokens[bstart].start >= test_start {
            continue;
        }
        // (b) same RNG borrowed &mut into calls AND forked in one body.
        let mut borrowed: Vec<&str> = Vec::new();
        let mut forked: Vec<(usize, &str)> = Vec::new();
        for i in bstart..bend {
            if matches!(syn.tokens[i].kind, TokKind::Punct(b'&'))
                && i + 2 < bend
                && syn.is_word(masked, i + 1, "mut")
                && matches!(syn.tokens[i + 2].kind, TokKind::Ident)
                && is_rng_name(syn.text(masked, i + 2))
            {
                borrowed.push(syn.text(masked, i + 2));
            }
            if matches!(syn.tokens[i].kind, TokKind::Ident)
                && is_rng_name(syn.text(masked, i))
                && i + 2 < bend
                && matches!(syn.tokens[i + 1].kind, TokKind::Punct(b'.'))
                && syn.is_word(masked, i + 2, "fork")
            {
                forked.push((i, syn.text(masked, i)));
            }
        }
        for (i, name) in &forked {
            if borrowed.contains(name) && syn.tokens[*i].start < test_start {
                emit(
                    "D8",
                    syn.tokens[*i].start,
                    format!(
                        "RNG `{name}` is both passed `&mut` and forked inside one loop body: \
                         the fork salt depends on the callee's draw count; derive child \
                         streams from a stable (seed, index) pair instead"
                    ),
                );
            }
        }
        // (c) session loops drawing from a stream declared outside.
        let header_mentions_session = (l.header_start..l.header_end.min(n)).any(|i| {
            matches!(syn.tokens[i].kind, TokKind::Ident)
                && syn.text(masked, i).to_ascii_lowercase().contains("session")
        });
        if !header_mentions_session {
            continue;
        }
        for i in bstart..bend {
            if syn.tokens[i].start >= test_start {
                break;
            }
            if !matches!(syn.tokens[i].kind, TokKind::Ident) || !is_rng_name(syn.text(masked, i)) {
                continue;
            }
            // Only variable uses: skip fields (`sess.rng`) and declarations.
            let after_decl_mut = i > 0
                && syn.is_word(masked, i - 1, "mut")
                && !(i > 1 && matches!(syn.tokens[i - 2].kind, TokKind::Punct(b'&')));
            if i > 0
                && (matches!(syn.tokens[i - 1].kind, TokKind::Punct(b'.'))
                    || matches!(syn.tokens[i - 1].kind, TokKind::Punct(b'|'))
                    || syn.is_word(masked, i - 1, "let")
                    || after_decl_mut
                    || syn.is_word(masked, i - 1, "fn"))
            {
                continue;
            }
            // A draw is a method call or a &mut borrow of the stream.
            let used = (i + 1 < n && matches!(syn.tokens[i + 1].kind, TokKind::Punct(b'.')))
                || (i > 0 && matches!(syn.tokens[i - 1].kind, TokKind::Punct(b'&')))
                || (i > 1
                    && syn.is_word(masked, i - 1, "mut")
                    && matches!(syn.tokens[i - 2].kind, TokKind::Punct(b'&')));
            if !used {
                continue;
            }
            let name = syn.text(masked, i);
            let declared_inside = syn
                .lets
                .iter()
                .any(|lb| lb.name == name && bstart <= lb.name_tok && lb.name_tok < bend);
            if !declared_inside {
                emit(
                    "D8",
                    syn.tokens[i].start,
                    format!(
                        "RNG `{name}` is reused across session-loop iterations: derive a \
                         fresh per-session stream (SimRng::derive(seed, session)) inside \
                         the loop so sessions stay statistically independent"
                    ),
                );
                break; // one finding per loop is enough
            }
        }
    }
}

/// D9: must-release analysis. Every `let x = <expr>.acquire(...)` binding
/// in a simulation crate must have `x` consumed (released, returned, or
/// moved into a store) on every path to the function exit — including the
/// implicit exits that `?` inserts. This is the static form of
/// `QdBudget`'s debug-assert double-release check: the runtime assert
/// catches a double release, this catches a missing one.
fn d9_must_release(
    masked: &str,
    syn: &Syntax,
    test_start: usize,
    emit: &mut impl FnMut(&str, usize, String),
) {
    for lb in &syn.lets {
        if syn.tokens[lb.name_tok].start >= test_start {
            continue;
        }
        let acquires = (lb.rhs_start..lb.rhs_end.min(syn.tokens.len())).any(|i| {
            syn.is_word(masked, i, "acquire")
                && i > 0
                && matches!(syn.tokens[i - 1].kind, TokKind::Punct(b'.'))
                && i + 1 < syn.tokens.len()
                && matches!(syn.tokens[i + 1].kind, TokKind::Punct(b'('))
        });
        if !acquires {
            continue;
        }
        let Some(f) = syn.enclosing_fn(lb.name_tok) else {
            continue;
        };
        let cfg = Cfg::build(masked, syn, f.body);
        let Some(bind_node) = cfg.node_containing(lb.name_tok) else {
            continue;
        };
        let consumed = |node: usize| {
            let nd = cfg.nodes[node];
            (nd.start..nd.end.min(syn.tokens.len()))
                .any(|i| i != lb.name_tok && flow::is_consuming_use(syn, masked, i, &lb.name))
        };
        if flow::reaches_exit_unconsumed(&cfg, bind_node, consumed) {
            emit(
                "D9",
                syn.tokens[lb.name_tok].start,
                format!(
                    "lease `{}` acquired here can reach a fn exit without being released or \
                     returned (check ?-early-returns and conditional branches)",
                    lb.name
                ),
            );
        }
    }
}

/// Scheduling calls whose first argument D10 inspects.
const D10_SCHEDULING_CALLS: &[&str] = &["schedule", "schedule_timer", "complete_at"];

/// D10: sim-time causality. A `schedule`/`schedule_timer`/`complete_at`
/// call whose time argument contains `now - x` — directly or through the
/// `let` bindings feeding it — would fire an event in the past, which the
/// event queue rejects at runtime; this catches it at lint time with the
/// expression context the old token-level D4 lacked.
fn d10_causality(
    masked: &str,
    syn: &Syntax,
    test_start: usize,
    emit: &mut impl FnMut(&str, usize, String),
) {
    let n = syn.tokens.len();
    for i in 0..n {
        if syn.tokens[i].start >= test_start {
            break;
        }
        if !matches!(syn.tokens[i].kind, TokKind::Ident) {
            continue;
        }
        let name = syn.text(masked, i);
        if !D10_SCHEDULING_CALLS.contains(&name) {
            continue;
        }
        // Call sites only: `recv.schedule(...)`, never the fn declaration.
        let is_call = i > 0
            && matches!(syn.tokens[i - 1].kind, TokKind::Punct(b'.'))
            && i + 1 < n
            && matches!(syn.tokens[i + 1].kind, TokKind::Punct(b'('));
        if !is_call {
            continue;
        }
        // First argument: tokens up to the `,` or `)` at depth 0.
        let mut depth = 0i32;
        let mut j = i + 2;
        let arg_start = j;
        while j < n {
            match syn.tokens[j].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokKind::Punct(b',') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if flow::traces_to_now_minus(syn, masked, arg_start, j, 3) {
            emit(
                "D10",
                syn.tokens[i].start,
                format!(
                    "time argument of `.{name}()` traces to `now - ...`: an event scheduled \
                     before the current instant breaks causality (the queue panics at runtime)"
                ),
            );
        }
    }
}

/// D11: no internal calls to `#[deprecated]` items outside test code.
/// Free functions match as bare `name(...)` calls; methods declared in an
/// `impl Type` block match only as `Type::name(...)`, so an unrelated
/// type's method with the same name never trips.
fn d11_deprecated_calls(
    masked: &str,
    syn: &Syntax,
    ws: &WorkspaceInfo,
    test_start: usize,
    emit: &mut impl FnMut(&str, usize, String),
) {
    if ws.deprecated.is_empty() {
        return;
    }
    let n = syn.tokens.len();
    for i in 0..n {
        if syn.tokens[i].start >= test_start {
            break;
        }
        if !matches!(syn.tokens[i].kind, TokKind::Ident) {
            continue;
        }
        let name = syn.text(masked, i);
        let is_open = i + 1 < n && matches!(syn.tokens[i + 1].kind, TokKind::Punct(b'('));
        if !is_open {
            continue;
        }
        // Declarations (`fn name(`) and method calls on other receivers
        // (`x.name(`) are not matched; D11 targets direct invocations.
        if i > 0 && (syn.is_word(masked, i - 1, "fn")) {
            continue;
        }
        let after_dot = i > 0 && matches!(syn.tokens[i - 1].kind, TokKind::Punct(b'.'));
        let qualifier = if i >= 3
            && matches!(syn.tokens[i - 1].kind, TokKind::Punct(b':'))
            && matches!(syn.tokens[i - 2].kind, TokKind::Punct(b':'))
            && matches!(syn.tokens[i - 3].kind, TokKind::Ident)
        {
            Some(syn.text(masked, i - 3))
        } else {
            None
        };
        let hit = ws.deprecated.iter().any(|(ty, dep_name)| {
            if dep_name != name {
                return false;
            }
            match ty {
                Some(ty) => qualifier == Some(ty.as_str()),
                None => !after_dot,
            }
        });
        if hit {
            let shown = match qualifier {
                Some(q) => format!("{q}::{name}"),
                None => name.to_string(),
            };
            emit(
                "D11",
                syn.tokens[i].start,
                format!(
                    "call to #[deprecated] `{shown}`: migrate to the supported API \
                     (deprecated shims exist only for external callers and will be removed)"
                ),
            );
        }
    }
}

/// Byte offset where the trailing `#[cfg(test)]` region begins, if any.
fn test_region_start(masked: &str) -> Option<usize> {
    let mut offset = 0;
    for line in masked.split_inclusive('\n') {
        let squashed: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        if squashed.contains("#[cfg(test)]") {
            return Some(offset);
        }
        offset += line.len();
    }
    None
}

/// All word-boundary occurrences of `token` in `text`.
fn word_hits(text: &str, token: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(token) {
        let off = from + pos;
        let before_ok = off == 0 || !is_ident_char(bytes[off - 1]);
        let after = off + token.len();
        let after_ok = after >= bytes.len() || !is_ident_char(bytes[after]);
        if before_ok && after_ok {
            hits.push(off);
        }
        from = off + token.len();
    }
    hits
}

/// True when the identifier at `off` is invoked as `.name(` — a method
/// call, as opposed to a standalone function or a path segment.
fn is_method_call(masked: &str, off: usize, name: &str) -> bool {
    let bytes = masked.as_bytes();
    if off == 0 || bytes[off - 1] != b'.' {
        return false;
    }
    let mut i = off + name.len();
    while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b'\t' || bytes[i] == b'\n') {
        i += 1;
    }
    i < bytes.len() && bytes[i] == b'('
}

/// Character length of the string literal passed to `.expect(` at `off`,
/// or `None` when the argument is not a string literal.
fn expect_message_len(original: &str, masked: &str, off: usize) -> Option<usize> {
    let bytes = masked.as_bytes();
    let mut i = off + "expect".len();
    while i < bytes.len() && bytes[i] != b'(' {
        i += 1;
    }
    i += 1;
    let orig = original.as_bytes();
    while i < orig.len() && (orig[i] as char).is_whitespace() {
        i += 1;
    }
    if i >= orig.len() || orig[i] != b'"' {
        return None;
    }
    i += 1;
    let start = i;
    let mut len = 0usize;
    while i < orig.len() {
        match orig[i] {
            b'\\' => {
                len += 1;
                i += 2;
            }
            b'"' => return Some(len),
            _ => {
                len += 1;
                i += 1;
            }
        }
    }
    Some(i - start)
}

/// True when an identifier names a raw time quantity D4 protects.
fn is_time_name(ident: &str) -> bool {
    ident.ends_with("_ns") || ident.ends_with("_time") || ident == "deadline" || ident == "latency"
}

/// Offsets (and names) of time-named identifiers used as operands of raw
/// `+ - * / %` arithmetic.
fn time_arith_hits(masked: &str) -> Vec<(usize, String)> {
    let bytes = masked.as_bytes();
    let mut hits = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !is_ident_char(bytes[i]) || bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident_char(bytes[i]) {
            i += 1;
        }
        let ident = &masked[start..i];
        if is_time_name(ident) && (op_follows(bytes, i) || op_precedes(bytes, start)) {
            hits.push((start, ident.to_string()));
        }
    }
    hits
}

/// True when the next non-blank char after `i` is a binary arithmetic
/// operator (excluding `->` arrows).
fn op_follows(bytes: &[u8], mut i: usize) -> bool {
    while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b'\t') {
        i += 1;
    }
    match bytes.get(i) {
        Some(b'+') | Some(b'*') | Some(b'/') | Some(b'%') => true,
        Some(b'-') => bytes.get(i + 1) != Some(&b'>'),
        _ => false,
    }
}

/// True when the identifier starting at `start` is the right operand of a
/// binary arithmetic operator — i.e. the previous non-blank char is an
/// operator whose own left side is a value (distinguishing `a * x_ns`
/// from a deref `*x_ns`).
fn op_precedes(bytes: &[u8], start: usize) -> bool {
    let mut i = start;
    while i > 0 && (bytes[i - 1] == b' ' || bytes[i - 1] == b'\t') {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let op = bytes[i - 1];
    if !matches!(op, b'+' | b'-' | b'*' | b'/' | b'%') {
        return false;
    }
    let mut j = i - 1;
    while j > 0 && (bytes[j - 1] == b' ' || bytes[j - 1] == b'\t') {
        j -= 1;
    }
    j > 0 && (is_ident_char(bytes[j - 1]) || bytes[j - 1] == b')' || bytes[j - 1] == b']')
}

/// Cap snippets so the table stays readable.
fn truncate(s: &str) -> String {
    const MAX: usize = 120;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let mut end = MAX;
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}...", &s[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str, crate_dir: &str, is_lib: bool, is_root: bool) -> Vec<Diagnostic> {
        lint_ws(src, crate_dir, is_lib, is_root, &WorkspaceInfo::default())
    }

    fn lint_ws(
        src: &str,
        crate_dir: &str,
        is_lib: bool,
        is_root: bool,
        ws: &WorkspaceInfo,
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_file(
            &FileInput {
                rel_path: "crates/x/src/lib.rs",
                crate_dir,
                is_lib_crate: is_lib,
                is_lib_root: is_root,
                original: src,
            },
            ws,
            &mut out,
        );
        out
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn d1_flags_wall_clock_not_comments() {
        let d = lint(
            "use std::time::Instant;\n// Instant in prose\n",
            "storage",
            true,
            false,
        );
        assert_eq!(rules(&d), vec!["D1"]);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn d2_flags_thread_rng() {
        let d = lint("let x = rand::thread_rng();\n", "workload", true, false);
        assert_eq!(rules(&d), vec!["D2"]);
    }

    #[test]
    fn d3_only_fires_in_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules(&lint(src, "exec", true, false)), vec!["D3"]);
        assert!(lint(src, "workload", true, false).is_empty());
    }

    #[test]
    fn d4_flags_raw_time_arithmetic() {
        let d = lint(
            "let t = base_ns * 3;\nlet u = 2 + seek_time;\n",
            "device",
            true,
            false,
        );
        assert_eq!(rules(&d), vec!["D4", "D4"]);
    }

    #[test]
    fn d4_ignores_method_calls_and_derefs() {
        let src = "let a = c.latency();\nlet b = *wait_ns;\nfn f(x_ns: u64) -> u64 { x_ns }\n";
        assert!(lint(src, "device", true, false).is_empty());
    }

    #[test]
    fn d7_flags_os_threads_in_sim_crates_only() {
        let src =
            "pub fn go() -> std::thread::JoinHandle<()> {\n    std::thread::spawn(|| {})\n}\n";
        let diags = lint(src, "exec", true, false);
        let fired = rules(&diags);
        assert!(
            fired.iter().all(|&r| r == "D7") && fired.len() >= 2,
            "expected only D7 findings: {fired:?}"
        );
        // Harness crates may use real threads.
        assert!(lint(src, "workload", true, false).is_empty());
        assert!(lint(src, "repro", false, false).is_empty());
    }

    #[test]
    fn d7_ignores_virtual_thread_names_and_comments() {
        // `Threads` (the calibration driver enum) and prose mentions must
        // not trip the OS-thread rule.
        let src = "pub enum Method { Threads }\n// a thread of execution in prose\n";
        assert!(lint(src, "core", true, false).is_empty());
    }

    #[test]
    fn d5_flags_unwrap_and_panics_in_lib_crates_only() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\nfn g() { panic!(\"boom\") }\n";
        assert_eq!(rules(&lint(src, "storage", true, false)), vec!["D5", "D5"]);
        assert!(lint(src, "repro", false, false).is_empty());
    }

    #[test]
    fn d5_accepts_descriptive_expect_rejects_terse() {
        let good = "fn f(v: Option<u32>) -> u32 { v.expect(\"frame table lost a pinned page\") }\n";
        assert!(lint(good, "bufpool", true, false).is_empty());
        let bad = "fn f(v: Option<u32>) -> u32 { v.expect(\"bad\") }\n";
        assert_eq!(rules(&lint(bad, "bufpool", true, false)), vec!["D5"]);
    }

    #[test]
    fn d5_ignores_unwrap_or_variants() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap_or(0).max(v.unwrap_or_default()) }\n";
        assert!(lint(src, "storage", true, false).is_empty());
    }

    #[test]
    fn test_region_is_exempt_from_d1_through_d5() {
        let src = "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    fn f(v: Option<u32>) -> u32 { v.unwrap() }\n}\n";
        assert!(lint(src, "exec", true, false).is_empty());
    }

    #[test]
    fn d4_exempts_simtime_typed_identifiers() {
        // `issue_time` is declared SimTime, so its arithmetic goes through
        // the wrapper's operators — the textual rule must stay quiet.
        let src = "struct S { issue_time: SimTime }\n\
                   fn f(st: &S, grace: SimDuration) -> SimTime { st.issue_time + grace }\n";
        assert!(lint(src, "exec", true, false).is_empty());
        // The same name without the annotation is still raw arithmetic.
        let raw = "fn f(issue_time: u64, grace: u64) -> u64 { issue_time + grace }\n";
        assert_eq!(rules(&lint(raw, "exec", true, false)), vec!["D4"]);
    }

    #[test]
    fn d8_flags_rng_clone_not_other_clones() {
        let bad = "fn f(rng: &SimRng) { let r2 = rng.clone(); }\n";
        assert_eq!(rules(&lint(bad, "exec", true, false)), vec!["D8"]);
        let ok = "fn f(plan: &Plan) { let p2 = plan.clone(); }\n";
        assert!(lint(ok, "exec", true, false).is_empty());
    }

    #[test]
    fn d8_flags_borrow_plus_fork_in_one_loop() {
        let bad = "fn f(rng: &mut SimRng) {\n    for i in 0..4 {\n        draw(&mut rng);\n        let child = rng.fork(i);\n        run(child);\n    }\n}\n";
        assert_eq!(rules(&lint(bad, "exec", true, false)), vec!["D8"]);
        // Fork alone (no &mut passing in the same body) is the sanctioned
        // derivation pattern.
        let ok = "fn f(rng: &mut SimRng) {\n    for i in 0..4 {\n        let child = rng.fork(i);\n        run(child);\n    }\n}\n";
        assert!(lint(ok, "exec", true, false).is_empty());
    }

    #[test]
    fn d8_flags_rng_reuse_across_session_loop() {
        let bad = "fn f(seed: u64, sessions: u64) {\n    let mut rng = SimRng::seeded(seed);\n    for s in 0..sessions {\n        let think = sample(&mut rng);\n        run(s, think);\n    }\n}\n";
        assert_eq!(rules(&lint(bad, "exec", true, false)), vec!["D8"]);
        // Deriving a fresh stream inside the loop is the blessed shape.
        let ok = "fn f(seed: u64, sessions: u64) {\n    for s in 0..sessions {\n        let mut rng = SimRng::derive(seed, s);\n        let think = sample(&mut rng);\n        run(s, think);\n    }\n}\n";
        assert!(lint(ok, "exec", true, false).is_empty());
    }

    #[test]
    fn d9_flags_leaked_lease_on_early_return() {
        let bad = "fn f(b: &mut QdBudget) -> Result<(), E> {\n    let lease = b.acquire();\n    submit()?;\n    b.release(lease);\n    Ok(())\n}\n";
        assert_eq!(rules(&lint(bad, "optimizer", true, false)), vec!["D9"]);
        let ok = "fn f(b: &mut QdBudget) {\n    let lease = b.acquire();\n    submit();\n    b.release(lease);\n}\n";
        assert!(lint(ok, "optimizer", true, false).is_empty());
    }

    #[test]
    fn d9_accepts_lease_returned_or_stored() {
        let stored = "fn f(&mut self) {\n    let lease = self.budget.acquire();\n    self.leases.insert(self.id, lease);\n}\n";
        assert!(lint(stored, "optimizer", true, false).is_empty());
        let returned =
            "fn f(b: &mut QdBudget) -> QdLease {\n    let lease = b.acquire();\n    lease\n}\n";
        assert!(lint(returned, "optimizer", true, false).is_empty());
    }

    #[test]
    fn d10_flags_now_minus_through_bindings() {
        let direct = "fn f(&mut self) { self.queue.schedule(self.now() - lag, ev); }\n";
        assert_eq!(rules(&lint(direct, "simkit", true, false)), vec!["D10"]);
        let traced = "fn f(&mut self, now: SimTime, lag: SimDuration) {\n    let due = now - lag;\n    self.queue.schedule(due, ev);\n}\n";
        assert_eq!(rules(&lint(traced, "simkit", true, false)), vec!["D10"]);
        let ok = "fn f(&mut self, now: SimTime, lag: SimDuration) {\n    let due = now + lag;\n    self.queue.schedule(due, ev);\n}\n";
        assert!(lint(ok, "simkit", true, false).is_empty());
    }

    #[test]
    fn d11_flags_calls_matching_deprecated_set() {
        let mut ws = WorkspaceInfo::default();
        ws.collect("#[deprecated]\npub fn run_fts(p: &Plan) { }\nimpl Db { #[deprecated]\npub fn create(c: Cfg) -> Db { x } }\n");
        assert_eq!(
            ws.deprecated.len(),
            2,
            "both deprecated items should be collected"
        );
        let bad = "fn go() { let r = run_fts(&plan); let d = Db::create(cfg); }\n";
        assert_eq!(
            rules(&lint_ws(bad, "workload", true, false, &ws)),
            vec!["D11", "D11"]
        );
        // Same method name on a different type is not the deprecated item,
        // and test-region calls are exempt.
        let ok = "fn go() { let t = HeapTable::create(cfg); }\n#[cfg(test)]\nmod tests { fn t() { let d = Db::create(cfg); } }\n";
        assert!(lint_ws(ok, "workload", true, false, &ws).is_empty());
    }

    #[test]
    fn d6_requires_both_attributes() {
        let d = lint(
            "//! Docs.\n#![warn(missing_docs)]\npub fn f() {}\n",
            "storage",
            true,
            true,
        );
        assert_eq!(rules(&d), vec!["D6"]);
        assert!(d[0].message.contains("forbid(unsafe_code)"));
        let clean = "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n";
        assert!(lint(clean, "storage", true, true).is_empty());
    }
}
