//! A minimal Rust lexer that masks comments and string/char literals.
//!
//! The rule checkers in this crate are token-level: they look for
//! identifiers such as `Instant` or `HashMap` in source text. Doing that
//! naively would flag prose in doc comments and message strings, so every
//! file is first passed through [`mask_source`], which replaces the
//! contents of comments, string literals, and char literals with spaces
//! while preserving byte offsets and line boundaries exactly. Rules then
//! scan the masked text, and map hits back to the original text (same
//! offsets) when they need literal content — e.g. to measure the length of
//! an `.expect("...")` message.
//!
//! D4 needs one structural fact beyond token hits — which identifiers are
//! declared `SimTime` / `SimDuration` — so the masked text can also be
//! split into tokens and scanned for typed declarations
//! ([`find_time_typed`]).

use std::collections::BTreeSet;

/// Lexing state while walking a source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Ordinary code.
    Code,
    /// Inside `// ...` until end of line.
    LineComment,
    /// Inside `/* ... */`, tracking nesting depth.
    BlockComment(u32),
    /// Inside a cooked string literal (`"..."` or `b"..."`).
    Str,
    /// Inside a raw string literal, with this many `#` marks in the fence.
    RawStr(u32),
    /// Inside a char or byte literal (`'x'`, `b'\n'`).
    CharLit,
}

/// True when `c` can be part of an identifier.
pub fn is_ident_char(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Replace the interior of comments and string/char literals with spaces.
///
/// The output has exactly the same length and the same newline positions
/// as the input, so line numbers and byte offsets computed on the masked
/// text are valid for the original.
pub fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match state {
            State::Code => {
                if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    out[i] = b' ';
                    out[i + 1] = b' ';
                    i += 2;
                    continue;
                }
                if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    out[i] = b' ';
                    out[i + 1] = b' ';
                    i += 2;
                    continue;
                }
                if c == b'"' {
                    state = State::Str;
                    out[i] = b' ';
                    i += 1;
                    continue;
                }
                // Raw strings: r"...", r#"..."#, and byte variants b"..",
                // br#".."#. Only when the prefix letter does not terminate
                // a longer identifier (`var` is not a raw-string start).
                let prev_ident = i > 0 && is_ident_char(bytes[i - 1]);
                if !prev_ident && (c == b'r' || c == b'b') {
                    if let Some((hashes, skip)) = raw_string_start(&bytes[i..]) {
                        for b in out.iter_mut().skip(i).take(skip) {
                            *b = b' ';
                        }
                        state = State::RawStr(hashes);
                        i += skip;
                        continue;
                    }
                    if c == b'b' && bytes.get(i + 1) == Some(&b'"') {
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        state = State::Str;
                        i += 2;
                        continue;
                    }
                    if c == b'b' && bytes.get(i + 1) == Some(&b'\'') {
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        state = State::CharLit;
                        i += 2;
                        continue;
                    }
                }
                if c == b'\'' {
                    // Disambiguate char literals from lifetimes: `'a'` is a
                    // char, `'a` followed by a non-quote is a lifetime.
                    let next = bytes.get(i + 1).copied();
                    let is_char = match next {
                        Some(b'\\') => true,
                        Some(n) if is_ident_char(n) => bytes.get(i + 2) == Some(&b'\''),
                        Some(_) => true,
                        None => false,
                    };
                    if is_char {
                        out[i] = b' ';
                        state = State::CharLit;
                        i += 1;
                        continue;
                    }
                }
                i += 1;
            }
            State::LineComment => {
                if c == b'\n' {
                    state = State::Code;
                } else {
                    out[i] = b' ';
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    out[i] = b' ';
                    out[i + 1] = b' ';
                    i += 2;
                } else if c == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out[i] = b' ';
                    out[i + 1] = b' ';
                    i += 2;
                } else {
                    if c != b'\n' {
                        out[i] = b' ';
                    }
                    i += 1;
                }
            }
            State::Str => {
                if c == b'\\' && i + 1 < bytes.len() {
                    out[i] = b' ';
                    if bytes[i + 1] != b'\n' {
                        out[i + 1] = b' ';
                    }
                    i += 2;
                } else if c == b'"' {
                    out[i] = b' ';
                    state = State::Code;
                    i += 1;
                } else {
                    if c != b'\n' {
                        out[i] = b' ';
                    }
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == b'"' && fence_closes(&bytes[i + 1..], hashes) {
                    let span = 1 + hashes as usize;
                    for b in out.iter_mut().skip(i).take(span) {
                        *b = b' ';
                    }
                    state = State::Code;
                    i += span;
                } else {
                    if c != b'\n' {
                        out[i] = b' ';
                    }
                    i += 1;
                }
            }
            State::CharLit => {
                if c == b'\\' && i + 1 < bytes.len() {
                    out[i] = b' ';
                    out[i + 1] = b' ';
                    i += 2;
                } else if c == b'\'' {
                    out[i] = b' ';
                    state = State::Code;
                    i += 1;
                } else {
                    out[i] = b' ';
                    i += 1;
                }
            }
        }
    }
    // The input was valid UTF-8 and we only overwrote ASCII positions with
    // spaces inside masked regions; multi-byte chars inside those regions
    // are replaced byte-for-byte, which keeps lengths identical. Replacing
    // continuation bytes with spaces cannot produce invalid text because we
    // replace every byte of the region.
    mask_non_ascii(&mut out);
    match String::from_utf8(out) {
        Ok(s) => s,
        // Unreachable in practice; fall back to the original so a lexer bug
        // degrades to extra findings rather than a crash.
        Err(_) => src.to_string(),
    }
}

/// Replace any remaining non-ASCII bytes with spaces so the masked buffer
/// is always valid UTF-8 (multi-byte chars can appear inside literals).
fn mask_non_ascii(out: &mut [u8]) {
    for b in out.iter_mut() {
        if !b.is_ascii() {
            *b = b' ';
        }
    }
}

/// If `rest` begins a raw-string fence (`r"`, `r#"`, `br##"` ...), return
/// the number of `#` marks and the total prefix length to skip.
fn raw_string_start(rest: &[u8]) -> Option<(u32, usize)> {
    let mut idx = 0;
    if rest.first() == Some(&b'b') {
        idx = 1;
    }
    if rest.get(idx) != Some(&b'r') {
        return None;
    }
    idx += 1;
    let mut hashes = 0u32;
    while rest.get(idx) == Some(&b'#') {
        hashes += 1;
        idx += 1;
    }
    if rest.get(idx) == Some(&b'"') {
        Some((hashes, idx + 1))
    } else {
        None
    }
}

/// True when `rest` starts with `hashes` consecutive `#` bytes.
fn fence_closes(rest: &[u8], hashes: u32) -> bool {
    let n = hashes as usize;
    rest.len() >= n && rest[..n].iter().all(|&b| b == b'#')
}

/// Lexical class of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokKind {
    /// Identifier or keyword (`fn`, `issue_time`, `SimRng`).
    Ident,
    /// Numeric literal (`42`, `0xC1`, `1u64`).
    Number,
    /// Any single punctuation byte (`{`, `?`, `+`, ...).
    Punct(u8),
}

/// One token of the masked source, with its byte span.
#[derive(Debug, Clone, Copy)]
struct Token {
    /// Lexical class.
    kind: TokKind,
    /// Byte offset of the first character.
    start: usize,
    /// Byte offset one past the last character.
    end: usize,
}

/// Split masked source into identifier / number / punctuation tokens.
///
/// Comments and literals were already blanked by [`mask_source`], so
/// whitespace is the only other content and is skipped.
fn tokenize(masked: &str) -> Vec<Token> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if is_ident_char(c) {
            let start = i;
            while i < bytes.len() && is_ident_char(bytes[i]) {
                i += 1;
            }
            let kind = if c.is_ascii_digit() {
                TokKind::Number
            } else {
                TokKind::Ident
            };
            out.push(Token {
                kind,
                start,
                end: i,
            });
        } else {
            out.push(Token {
                kind: TokKind::Punct(c),
                start: i,
                end: i + 1,
            });
            i += 1;
        }
    }
    out
}

/// Identifiers annotated `: SimTime` or `: SimDuration` anywhere in the
/// masked file: struct fields, fn parameters, and `let` type ascriptions.
pub fn find_time_typed(masked: &str) -> BTreeSet<String> {
    let tokens = tokenize(masked);
    let word = |i: usize| &masked[tokens[i].start..tokens[i].end];
    let mut typed = BTreeSet::new();
    for i in 1..tokens.len().saturating_sub(1) {
        if !matches!(tokens[i].kind, TokKind::Punct(b':')) {
            continue;
        }
        // Skip `::` path separators on either side.
        if matches!(tokens[i - 1].kind, TokKind::Punct(b':'))
            || matches!(tokens[i + 1].kind, TokKind::Punct(b':'))
        {
            continue;
        }
        if !matches!(tokens[i - 1].kind, TokKind::Ident) {
            continue;
        }
        // Scan the type expression (until a `,`/`;`/`=`/`)`/`{`/`>` at
        // depth 0) for the wrapper names.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut is_time = false;
        while j < tokens.len() {
            match tokens[j].kind {
                TokKind::Punct(b'<') | TokKind::Punct(b'(') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b'>') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokKind::Punct(b',')
                | TokKind::Punct(b';')
                | TokKind::Punct(b'=')
                | TokKind::Punct(b'{')
                | TokKind::Punct(b'}')
                    if depth == 0 =>
                {
                    break
                }
                TokKind::Ident => {
                    let w = word(j);
                    if w == "SimTime" || w == "SimDuration" {
                        is_time = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if is_time {
            typed.insert(word(i - 1).to_string());
        }
    }
    typed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_idents_numbers_punct() {
        let toks = tokenize("let x_ns = 0xFF + f(2);");
        let kinds: Vec<_> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(kinds[0], TokKind::Ident); // let
        assert_eq!(kinds[1], TokKind::Ident); // x_ns
        assert_eq!(kinds[3], TokKind::Number); // 0xFF
        assert_eq!(kinds[4], TokKind::Punct(b'+'));
    }

    #[test]
    fn time_typed_collects_fields_params_and_ascriptions() {
        let typed = find_time_typed(&mask_source(
            "struct S { issue_time: SimTime, grace: Option<SimDuration>, n: u64 }\n\
             fn f(deadline: SimTime) { let t: SimDuration = d; }\n",
        ));
        assert!(typed.contains("issue_time"));
        assert!(typed.contains("grace"));
        assert!(typed.contains("deadline"));
        assert!(typed.contains("t"));
        assert!(!typed.contains("n"));
    }

    #[test]
    fn masks_line_comments() {
        let m = mask_source("let x = 1; // Instant::now()\nlet y = 2;");
        assert!(!m.contains("Instant"));
        assert!(m.contains("let y = 2;"));
        assert_eq!(m.len(), "let x = 1; // Instant::now()\nlet y = 2;".len());
    }

    #[test]
    fn masks_nested_block_comments() {
        let m = mask_source("a /* x /* HashMap */ y */ b");
        assert!(!m.contains("HashMap"));
        assert!(m.starts_with("a "));
        assert!(m.ends_with(" b"));
    }

    #[test]
    fn masks_strings_and_keeps_offsets() {
        let src = r#"panic!("uses Instant here"); x"#;
        let m = mask_source(src);
        assert!(!m.contains("Instant"));
        assert!(m.contains("panic!"));
        assert_eq!(m.len(), src.len());
    }

    #[test]
    fn masks_raw_strings() {
        let src = "let s = r#\"thread_rng\"#; done";
        let m = mask_source(src);
        assert!(!m.contains("thread_rng"));
        assert!(m.contains("done"));
    }

    #[test]
    fn keeps_lifetimes_masks_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'H'; }";
        let m = mask_source(src);
        assert!(m.contains("<'a>"));
        assert!(m.contains("&'a str"));
        assert!(!m.contains('H'));
    }

    #[test]
    fn masks_escaped_quote_in_string() {
        let src = r#"let s = "a\"HashMap"; rest"#;
        let m = mask_source(src);
        assert!(!m.contains("HashMap"));
        assert!(m.contains("rest"));
    }

    #[test]
    fn preserves_newlines_in_multiline_strings() {
        let src = "let s = \"one\ntwo\nthree\";\nlet t = 1;";
        let m = mask_source(src);
        assert_eq!(m.matches('\n').count(), src.matches('\n').count());
        assert!(m.contains("let t = 1;"));
    }
}
