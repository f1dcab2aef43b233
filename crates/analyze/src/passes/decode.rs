//! Pass `decode-panic`: decode paths must never panic.
//!
//! The wire layer's contract (DESIGN.md §8, PROTOCOL.md §4) is
//! adversarial-input safety: malformed bytes yield a `WireError`, never a
//! panic. A single `unwrap` in a `Decode` impl is a remote denial of
//! service, so the contract is enforced mechanically over:
//!
//! * every `impl Decode for …` block, workspace-wide, and
//! * every parsing-shaped function (`get_*`, `read_*`, `decode`,
//!   `decode_*`, `from_wire_bytes`, `from_u8`) in a file named `wire.rs`
//!   or `protocol.rs`.
//!
//! Inside those regions the pass flags `.unwrap(` / `.expect(` calls,
//! the panic macro family (`panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`, `assert*!`, `debug_assert*!`), and direct indexing
//! `x[i]` — with one carve-out: indexing with a *pure integer literal*
//! into a value is allowed, because `buf[0]` on a fixed-size array the
//! type system already sized (e.g. a `[u8; 2]` read buffer) cannot be
//! data-dependent. Anything computed must go through `get(..)`.
//!
//! Finding keys are `file:region:token` (line-free, so allowlist entries
//! survive edits above them).

use crate::diag::Finding;
use crate::lexer::{find_fns, find_trait_impls, Tok, TokKind};
use crate::workspace::Workspace;

/// This pass's name.
pub const NAME: &str = "decode-panic";

const PANIC_MACROS: [&str; 10] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Function-name shapes that mark a frame/value parser in wire.rs /
/// protocol.rs.
fn is_parsing_fn(name: &str) -> bool {
    name.starts_with("get_")
        || name.starts_with("read_")
        || name == "decode"
        || name.starts_with("decode_")
        || name == "from_wire_bytes"
        || name == "from_u8"
}

/// Runs the pass.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for src in &ws.sources {
        // Decode impls anywhere.
        for (type_name, (lo, hi)) in find_trait_impls(&src.toks, "Decode") {
            let region = format!("impl Decode for {type_name}");
            scan_region(&src.toks, lo, hi, &src.rel, &region, &mut out);
        }
        // Parsing functions in the wire/protocol modules. Decode-impl
        // bodies are excluded so a site inside both regions reports once.
        if src.file_name() == "wire.rs" || src.file_name() == "protocol.rs" {
            let impl_ranges: Vec<(usize, usize)> = find_trait_impls(&src.toks, "Decode")
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            for f in find_fns(&src.toks) {
                if !is_parsing_fn(&f.name) {
                    continue;
                }
                if impl_ranges.iter().any(|&(lo, hi)| f.kw >= lo && f.kw <= hi) {
                    continue;
                }
                let region = format!("fn {}", f.name);
                scan_region(&src.toks, f.body.0, f.body.1, &src.rel, &region, &mut out);
            }
        }
    }
    out
}

/// Scans `toks[lo..=hi]` for panic sources, emitting findings keyed on
/// `region`.
fn scan_region(
    toks: &[Tok],
    lo: usize,
    hi: usize,
    file: &str,
    region: &str,
    out: &mut Vec<Finding>,
) {
    let mut emit = |t: &Tok, what: &str, detail: String| {
        out.push(Finding {
            pass: NAME,
            file: file.to_string(),
            line: t.line,
            key: format!("{file}:{region}:{what}"),
            message: format!(
                "{detail} in `{region}` — decode paths must return WireError, never panic"
            ),
        });
    };
    let mut i = lo;
    while i <= hi && i < toks.len() {
        let t = &toks[i];
        // `.unwrap(` / `.expect(`
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
        {
            emit(t, &t.text, format!("`.{}()` call", t.text));
        }
        // panic-family macro invocation.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).map(|n| n.is_punct('!')) == Some(true)
        {
            emit(t, &t.text, format!("`{}!` macro", t.text));
        }
        // Direct indexing: `[` after an expression tail (identifier or a
        // closing `)` / `]`), with non-literal contents.
        if t.is_punct('[')
            && i > 0
            && (toks[i - 1].kind == TokKind::Ident
                || toks[i - 1].is_punct(')')
                || toks[i - 1].is_punct(']'))
        {
            // `ident [` where ident is a keyword introducing a slice
            // pattern or type position is not indexing; the keywords that
            // can directly precede `[` in those positions are few.
            let prev = &toks[i - 1];
            let keyword_prev = prev.kind == TokKind::Ident
                && matches!(
                    prev.text.as_str(),
                    "let" | "mut" | "ref" | "in" | "return" | "break" | "else" | "match" | "impl"
                );
            if !keyword_prev {
                // Literal-only index? Find the matching `]`.
                let mut j = i + 1;
                let mut depth = 1i32;
                let mut inner = Vec::new();
                while j < toks.len() && depth > 0 {
                    if toks[j].is_punct('[') {
                        depth += 1;
                    } else if toks[j].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    inner.push(j);
                    j += 1;
                }
                let literal_only = inner.len() == 1 && toks[inner[0]].kind == TokKind::Int;
                let empty = inner.is_empty();
                if !literal_only && !empty {
                    let subject = if prev.kind == TokKind::Ident {
                        prev.text.clone()
                    } else {
                        "expression".to_string()
                    };
                    emit(
                        t,
                        &format!("index:{subject}"),
                        format!("direct indexing of `{subject}`"),
                    );
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(src: &str) -> Vec<Finding> {
        let toks = lex(src);
        let mut out = Vec::new();
        scan_region(&toks, 0, toks.len() - 1, "f.rs", "fn test", &mut out);
        out
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let out = scan("let x = v.unwrap(); let y = w.expect(\"m\"); panic!(\"no\");");
        assert_eq!(out.len(), 3);
        assert!(out[0].message.contains("unwrap"));
        assert!(out[2].message.contains("panic"));
    }

    #[test]
    fn literal_index_is_allowed_computed_is_not() {
        let out = scan("let a = head[0]; let b = buf[i]; let c = rows[n + 1];");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].key.contains("index:buf"));
        assert!(out[1].key.contains("index:rows"));
    }

    #[test]
    fn attribute_and_slice_type_brackets_are_not_indexing() {
        let out = scan("fn f(x: [u8; 4], v: &mut [u8]) { g(&mut v[..2]); }");
        // `v[..2]` is real indexing (can panic) and must be flagged;
        // the type-position brackets must not be.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].key.contains("index:v"));
    }

    #[test]
    fn unwrap_without_receiver_dot_is_ignored() {
        let out = scan("fn unwrap() {} unwrap();");
        assert!(out.is_empty(), "{out:?}");
    }
}
