//! Pass `lock-io`: no `MutexGuard` live across socket I/O in the
//! service crates.
//!
//! The server runs one handler thread per connection over **one shared
//! engine `Mutex`**; the coordinator serializes node conversations the
//! same way. A guard held across a socket read or write couples every
//! other connection's latency to one peer's network behavior — a slow
//! client becomes a whole-server stall. The discipline (DESIGN.md §10)
//! is: lock, compute, unlock, *then* talk to the network.
//!
//! The pass walks every function body in `crates/server/src` and
//! `crates/cluster/src`, tracks `.lock(` acquisitions (the binding's
//! name and brace depth, via the enclosing `let`; an unbound temporary
//! dies at its statement's `;`), releases them on scope exit or an
//! explicit `drop(guard)`, and flags any call to an I/O-shaped callee
//! while a guard is live.
//!
//! This is a token-level approximation, deliberately conservative in
//! what it *tracks* (only `.lock(` — `RwLock` would be `read`/`write`,
//! added when the tree grows one) and in what it *flags* (a fixed list
//! of I/O callee names, not alias analysis). False positives go to the
//! allowlist with a justification; the value is that the *next* refactor
//! that threads a socket call under the engine lock fails CI instead of
//! shipping a tail-latency cliff.

use crate::diag::Finding;
use crate::lexer::{find_fns, Tok, TokKind};
use crate::workspace::Workspace;

/// This pass's name.
pub const NAME: &str = "lock-io";

/// Callee names that perform socket (or socket-shaped) I/O.
const IO_FNS: [&str; 12] = [
    "write_all",
    "read_exact",
    "read_to_end",
    "flush",
    "write_response",
    "write_request",
    "read_response",
    "read_request",
    "read_frame",
    "read_frame_lenient",
    "connect",
    "shutdown",
];

/// Runs the pass.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for src in ws.sources.iter().filter(|s| {
        s.rel.starts_with("crates/server/src") || s.rel.starts_with("crates/cluster/src")
    }) {
        for f in find_fns(&src.toks) {
            scan_fn(&src.toks, f.body.0, f.body.1, &f.name, &src.rel, &mut out);
        }
    }
    out
}

struct Guard {
    name: Option<String>,
    depth: i32,
    line: u32,
}

fn scan_fn(toks: &[Tok], lo: usize, hi: usize, fn_name: &str, file: &str, out: &mut Vec<Finding>) {
    let mut depth = 0i32;
    let mut guards: Vec<Guard> = Vec::new();
    // The token index of the current statement's `let`, if the statement
    // started with one (reset at `;` and block boundaries).
    let mut stmt_let: Option<usize> = None;
    let mut i = lo;
    while i <= hi && i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            stmt_let = None;
        } else if t.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
            stmt_let = None;
        } else if t.is_punct(';') {
            guards.retain(|g| !(g.name.is_none() && g.depth == depth));
            stmt_let = None;
        } else if t.is_ident("let") {
            stmt_let = Some(i);
        } else if t.kind == TokKind::Ident
            && t.text == "lock"
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
        {
            let name = if chain_ends_statement(toks, i + 1) {
                stmt_let.and_then(|l| binding_name(toks, l, i))
            } else {
                // `let n = x.lock().unwrap().len();` — the guard is a
                // temporary inside the chain, not what `n` binds.
                None
            };
            guards.push(Guard {
                name,
                depth,
                line: t.line,
            });
        } else if t.is_ident("drop") && toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true) {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Ident {
                    guards.retain(|g| g.name.as_deref() != Some(arg.text.as_str()));
                }
            }
        } else if t.kind == TokKind::Ident
            && IO_FNS.contains(&t.text.as_str())
            && toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
        {
            if let Some(g) = guards.last() {
                let held = match &g.name {
                    Some(n) => format!("guard `{n}` (locked on line {})", g.line),
                    None => format!("a temporary guard (locked on line {})", g.line),
                };
                out.push(Finding {
                    pass: NAME,
                    file: file.to_string(),
                    line: t.line,
                    key: format!("{file}:{fn_name}:{}", t.text),
                    message: format!(
                        "`{}` in `fn {fn_name}` performs I/O while {held} is live — release the \
                         lock before touching the socket",
                        t.text
                    ),
                });
            }
        }
        i += 1;
    }
}

/// Whether the method chain continuing at `open` (the `(` of `.lock`)
/// reaches the end of its statement through guard-preserving steps only
/// (`.unwrap()`, `.expect("…")`, `?`). A further method call consumes
/// the guard as a temporary instead of binding it.
fn chain_ends_statement(toks: &[Tok], open: usize) -> bool {
    // Skip the balanced `(…)` of the lock call.
    let mut i = open;
    let mut depth = 0i32;
    while i < toks.len() {
        if toks[i].is_punct('(') {
            depth += 1;
        } else if toks[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                i += 1;
                break;
            }
        }
        i += 1;
    }
    loop {
        let Some(t) = toks.get(i) else { return true };
        if t.is_punct('?') {
            i += 1;
            continue;
        }
        if t.is_punct('.')
            && toks
                .get(i + 1)
                .map(|n| n.is_ident("unwrap") || n.is_ident("expect"))
                == Some(true)
            && toks.get(i + 2).map(|n| n.is_punct('(')) == Some(true)
        {
            // Skip `.unwrap(…)` / `.expect(…)`.
            i += 2;
            let mut depth = 0i32;
            while i < toks.len() {
                if toks[i].is_punct('(') {
                    depth += 1;
                } else if toks[i].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
            continue;
        }
        // `;`, `else`, `)` (call argument), `}` — the chain is over and
        // nothing consumed the guard: it is what the statement binds.
        // Any other `.method(` consumes it.
        return !t.is_punct('.');
    }
}

/// The bound name of `let <pat> = …` starting at `let_idx`, for a
/// statement whose `=` precedes `lock_idx`: the last plain identifier
/// before the `=` that is not a pattern keyword or constructor.
fn binding_name(toks: &[Tok], let_idx: usize, lock_idx: usize) -> Option<String> {
    let mut name = None;
    for t in &toks[let_idx + 1..lock_idx] {
        if t.is_punct('=') {
            break;
        }
        if t.kind == TokKind::Ident
            && !matches!(
                t.text.as_str(),
                "mut" | "ref" | "Ok" | "Some" | "Err" | "else"
            )
        {
            name = Some(t.text.clone());
        }
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{find_fns, lex};

    fn scan(src: &str) -> Vec<Finding> {
        let toks = lex(src);
        let mut out = Vec::new();
        for f in find_fns(&toks) {
            scan_fn(&toks, f.body.0, f.body.1, &f.name, "f.rs", &mut out);
        }
        out
    }

    #[test]
    fn io_under_a_live_guard_is_flagged() {
        let out = scan(
            "fn bad(s: &Shared, w: &mut W) {\n\
                 let mut engine = s.engine.lock().unwrap();\n\
                 engine.apply();\n\
                 w.write_all(b\"x\").unwrap();\n\
             }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("guard `engine`"));
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let out = scan(
            "fn good(s: &Shared, w: &mut W) {\n\
                 { let g = s.engine.lock().unwrap(); g.apply(); }\n\
                 w.write_all(b\"x\").unwrap();\n\
             }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let out = scan(
            "fn good(s: &Shared, w: &mut W) {\n\
                 let g = s.engine.lock().unwrap();\n\
                 let n = g.len();\n\
                 drop(g);\n\
                 w.write_all(b\"x\").unwrap();\n\
             }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn let_else_binding_is_tracked() {
        let out = scan(
            "fn bad(s: &Shared, w: &mut W) {\n\
                 let Ok(mut engine) = s.engine.lock() else { return };\n\
                 w.write_response(engine.answer());\n\
             }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("guard `engine`"));
    }

    #[test]
    fn temporary_guard_dies_at_the_statement() {
        let out = scan(
            "fn good(s: &Shared, w: &mut W) {\n\
                 let n = s.engine.lock().unwrap().len();\n\
                 w.write_all(b\"x\").unwrap();\n\
             }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn io_after_a_same_statement_lock_is_flagged() {
        let out = scan(
            "fn bad(s: &Shared, w: &mut W) {\n\
                 let g = s.engine.lock().unwrap();\n\
                 if g.ready() { w.flush().unwrap(); }\n\
             }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].key.ends_with(":flush"));
    }

    #[test]
    fn a_socket_shut_under_a_guard_is_flagged() {
        let bad = scan(
            "fn end(d: &Demux) {\n\
                 let mut s = d.state.lock().unwrap();\n\
                 s.dead = true;\n\
                 d.socket.shutdown(Shutdown::Both);\n\
             }",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].key.ends_with(":shutdown"));
        let good = scan(
            "fn end(d: &Demux) {\n\
                 let first = d.state.lock().is_ok_and(|mut s| { s.dead = true; true });\n\
                 d.socket.shutdown(Shutdown::Both);\n\
             }",
        );
        assert!(good.is_empty(), "{good:?}");
    }
}
