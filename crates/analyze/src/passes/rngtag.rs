//! Pass `lint-rng`: top-level RNG stream tags are distinct.
//!
//! `Xoshiro256pp::from_seed_stream(seed, TAG)` partitions one master
//! seed into independent streams by tag. Two call sites sharing a tag
//! draw *the same stream* — statistically invisible in any single test,
//! and fatal to the perfect-sampling law when the colliding components
//! interact (the coordinator's node pick correlating with an engine's
//! accept/reject loop would bias the very distribution the chi-squared
//! pins certify). Tags must therefore be globally unique, and any
//! intentional share must be *visibly* intentional: allowlisted with its
//! justification.
//!
//! Scope: `from_seed_stream` call sites outside `rng.rs` (the definition
//! site). `derive_seed(parent, i)` child streams are *not* stream tags —
//! they are scoped to their parent seed, so equal second arguments under
//! different parents are independent by construction.
//!
//! Tags are resolved from integer literals or same-file `const NAME:
//! u64 = <literal>;` definitions. A duplicate value produces **one
//! finding per extra site**, keyed `tag:0x…` — one allowlist entry
//! covers the tag, however many sites share it.

use crate::diag::Finding;
use crate::lexer::{Tok, TokKind};
use crate::workspace::Workspace;
use std::collections::BTreeMap;

/// This pass's name.
pub const NAME: &str = "lint-rng";

/// Runs the pass.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    // tag value -> first site (file, line)
    let mut seen: BTreeMap<u64, (String, u32)> = BTreeMap::new();
    for src in &ws.sources {
        if src.file_name() == "rng.rs" {
            continue;
        }
        let consts = file_consts(&src.toks);
        for i in 0..src.toks.len() {
            let t = &src.toks[i];
            if !(t.kind == TokKind::Ident && t.text == "from_seed_stream") {
                continue;
            }
            if src.toks.get(i + 1).map(|n| n.is_punct('(')) != Some(true) {
                continue;
            }
            let Some(tag) = second_arg_value(&src.toks, i + 1, &consts) else {
                continue;
            };
            match seen.get(&tag) {
                None => {
                    seen.insert(tag, (src.rel.clone(), t.line));
                }
                Some((first_file, first_line)) => {
                    out.push(Finding {
                        pass: NAME,
                        file: src.rel.clone(),
                        line: t.line,
                        key: format!("tag:{tag:#x}"),
                        message: format!(
                            "RNG stream tag {tag:#x} is also used at {first_file}:{first_line} — \
                             tags must be unique or the streams are identical"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// `const NAME: <ty> = <int literal>;` definitions in this file.
fn file_consts(toks: &[Tok]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("const") {
            if let Some(name) = toks.get(i + 1) {
                if name.kind == TokKind::Ident {
                    // Find `=` then a single Int then `;` within a short
                    // window (type annotations are 1–3 tokens here).
                    let window = &toks[(i + 2).min(toks.len())..(i + 8).min(toks.len())];
                    for w in 0..window.len().saturating_sub(2) {
                        if window[w].is_punct('=')
                            && window[w + 1].kind == TokKind::Int
                            && window[w + 2].is_punct(';')
                        {
                            if let Some(v) = window[w + 1].value {
                                out.insert(name.text.clone(), v);
                            }
                            break;
                        }
                    }
                }
            }
        }
    }
    out
}

/// The second top-level argument of the call whose `(` is at `open`,
/// resolved to a value when it is a lone literal or known const.
fn second_arg_value(toks: &[Tok], open: usize, consts: &BTreeMap<String, u64>) -> Option<u64> {
    let mut depth = 0i32;
    let mut arg = 0usize;
    let mut current: Vec<&Tok> = Vec::new();
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
            if depth > 1 {
                current.push(t);
            }
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
            current.push(t);
        } else if depth == 1 && t.is_punct(',') {
            if arg == 1 {
                break;
            }
            arg += 1;
            current.clear();
        } else if depth >= 1 {
            current.push(t);
        }
        i += 1;
    }
    if arg != 1 || current.len() != 1 {
        return None;
    }
    let t = current[0];
    match t.kind {
        TokKind::Int => t.value,
        TokKind::Ident => consts.get(&t.text).copied(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::workspace::SourceFile;

    fn ws(files: Vec<(&str, &str)>) -> Workspace {
        Workspace {
            root: std::path::PathBuf::new(),
            sources: files
                .into_iter()
                .map(|(rel, text)| SourceFile {
                    rel: rel.to_string(),
                    toks: lex(text),
                    text: text.to_string(),
                })
                .collect(),
            docs: Vec::new(),
        }
    }

    #[test]
    fn duplicate_tags_across_files_are_one_finding_per_extra_site() {
        let w = ws(vec![
            (
                "crates/a/src/x.rs",
                "fn f(s: u64) { let r = Xoshiro256pp::from_seed_stream(s, 0xD4A3); }",
            ),
            (
                "crates/b/src/y.rs",
                "fn g(s: u64) { let r = Xoshiro256pp::from_seed_stream(s, 0xD4A3); }",
            ),
        ]);
        let out = run(&w);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].key, "tag:0xd4a3");
        assert_eq!(out[0].file, "crates/b/src/y.rs");
    }

    #[test]
    fn const_tags_resolve_within_a_file() {
        let w = ws(vec![
            (
                "crates/a/src/x.rs",
                "const STREAM: u64 = 0xC157;\n\
                 fn f(s: u64) { let r = Xoshiro256pp::from_seed_stream(s, STREAM); }",
            ),
            (
                "crates/b/src/y.rs",
                "fn g(s: u64) { let r = Xoshiro256pp::from_seed_stream(s, 0xC157); }",
            ),
        ]);
        let out = run(&w);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].key, "tag:0xc157");
    }

    #[test]
    fn distinct_tags_and_the_definition_site_are_quiet() {
        let w = ws(vec![
            (
                "crates/util/src/rng.rs",
                "pub fn from_seed_stream(seed: u64, stream: u64) -> Self { todo() }",
            ),
            (
                "crates/a/src/x.rs",
                "fn f(s: u64) { Xoshiro256pp::from_seed_stream(s, 1); \
                 Xoshiro256pp::from_seed_stream(s, 2); }",
            ),
        ]);
        assert!(run(&w).is_empty());
    }
}
