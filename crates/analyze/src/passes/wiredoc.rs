//! Pass `wire-doc`: the wire grammar and PROTOCOL.md cannot drift apart.
//!
//! PROTOCOL.md is normative together with `wire.rs`/`protocol.rs` — a
//! third party implements from the document, so a stale byte there is an
//! interoperability bug. This pass extracts the authoritative values
//! *from the code* (a tiny const-expression evaluator over the token
//! stream — `1 << 26` and `MAX_FRAME_BYTES - 11` resolve, no rustc
//! needed) and checks, in code and document both:
//!
//! * **Tag uniqueness** — `KIND_*`, `REQ_*`, `RESP_*` constants and
//!   `ErrorCode` discriminants are distinct within their family.
//! * **Normative tables** — the request-tag, response-tag, and
//!   error-code tables in PROTOCOL.md are set-equal to the code's
//!   constants (both directions: a documented tag the code lacks is as
//!   much drift as an undocumented one).
//! * **Quoted constants** — every PROTOCOL.md line quoting
//!   `WIRE_VERSION` as a hex byte matches the code; `kind` bytes quoted
//!   next to the words *request*/*response* match `KIND_REQUEST`/
//!   `KIND_RESPONSE`; the document renders `MAX_FRAME_BYTES` in MiB and
//!   `MAX_SAMPLE_COUNT` in digit-grouped form correctly; the FNV-1a
//!   offset/prime quoted in §1 are the ones `wire.rs` actually uses.
//!
//! The §6 worked hex examples are not this pass's job: the unit test
//! `protocol_md_worked_examples_are_exact` in `protocol.rs` reads them
//! straight from PROTOCOL.md and pins each against the encoder.

use crate::diag::Finding;
use crate::lexer::{Tok, TokKind};
use crate::workspace::Workspace;
use std::collections::BTreeMap;

/// This pass's name.
pub const NAME: &str = "wire-doc";

/// The FNV-1a 64 offset basis (checked against both wire.rs and
/// PROTOCOL.md §1).
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// The FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// Everything extracted from wire.rs + protocol.rs.
#[derive(Default)]
struct CodeModel {
    /// `const NAME = value` for every evaluatable integer const, with
    /// the defining file and line.
    consts: BTreeMap<String, (u64, String, u32)>,
    /// `ErrorCode` variants in declaration order.
    error_codes: Vec<(String, u64, u32)>,
    /// All integer literal values seen in wire.rs (for the FNV check).
    wire_ints: Vec<u64>,
    /// Relative path of protocol.rs (for finding locations).
    protocol_file: String,
}

/// Runs the pass.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut model = CodeModel::default();
    // wire.rs first: protocol.rs's MAX_RESTORE_BYTES refers to its own
    // file, but keeping one env across both is harmless and ordered.
    for name in ["wire.rs", "protocol.rs"] {
        for src in ws.sources.iter().filter(|s| s.file_name() == name) {
            extract(src.toks.as_slice(), &src.rel, &mut model);
            if name == "wire.rs" {
                model
                    .wire_ints
                    .extend(src.toks.iter().filter_map(|t| t.value));
            } else {
                model.protocol_file = src.rel.clone();
            }
        }
    }
    if model.consts.is_empty() {
        // No wire layer in this tree (e.g. a fixture for another pass):
        // nothing to check.
        return out;
    }
    check_uniqueness(&model, &mut out);
    check_fnv_in_code(&model, &mut out);
    if let Some(doc) = ws.doc("PROTOCOL.md") {
        check_doc(doc, &model, &mut out);
    } else {
        out.push(Finding {
            pass: NAME,
            file: "PROTOCOL.md".into(),
            line: 0,
            key: "doc:missing".into(),
            message: "PROTOCOL.md is missing but the wire layer exists — the protocol must stay \
                      documented"
                .into(),
        });
    }
    out
}

/// Extracts consts and the ErrorCode enum from one file's tokens.
fn extract(toks: &[Tok], rel: &str, model: &mut CodeModel) {
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("const") && toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            // Skip the type annotation: scan to `=` at delimiter depth 0.
            let mut j = i + 2;
            let mut depth = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                if depth == 0 && t.is_punct('=') {
                    break;
                }
                if depth == 0 && t.is_punct(';') {
                    break;
                }
                if t.is_punct('[') || t.is_punct('(') || t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct(']') || t.is_punct(')') || t.is_punct('>') {
                    depth -= 1;
                }
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('=') {
                // Expression tokens until `;` at depth 0.
                let lo = j + 1;
                let mut k = lo;
                let mut d = 0i32;
                while k < toks.len() {
                    let t = &toks[k];
                    if d == 0 && t.is_punct(';') {
                        break;
                    }
                    if t.is_punct('[') || t.is_punct('(') || t.is_punct('{') {
                        d += 1;
                    } else if t.is_punct(']') || t.is_punct(')') || t.is_punct('}') {
                        d -= 1;
                    }
                    k += 1;
                }
                let expr = &toks[lo..k.min(toks.len())];
                if let Some(v) = eval(expr, &model.consts) {
                    model.consts.insert(name, (v, rel.to_string(), line));
                }
                i = k + 1;
                continue;
            }
        }
        if toks[i].is_ident("enum")
            && toks.get(i + 1).map(|t| t.is_ident("ErrorCode")) == Some(true)
        {
            // Parse `Variant = Int ,` pairs inside the braces.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0i32;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1
                    && toks[j].kind == TokKind::Ident
                    && toks.get(j + 1).map(|t| t.is_punct('=')) == Some(true)
                {
                    if let Some(v) = toks.get(j + 2).and_then(|t| t.value) {
                        model
                            .error_codes
                            .push((toks[j].text.clone(), v, toks[j].line));
                    }
                    j += 2;
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
}

/// Evaluates a const expression: integer literals, previously-defined
/// const names, `<<`, `+`, `-`, `*`, parentheses. Left-associative,
/// single precedence — exactly enough for `1 << 26` and `MAX - 11`;
/// anything richer returns `None` and the const is simply not modeled.
fn eval(expr: &[Tok], env: &BTreeMap<String, (u64, String, u32)>) -> Option<u64> {
    fn operand(
        expr: &[Tok],
        i: &mut usize,
        env: &BTreeMap<String, (u64, String, u32)>,
    ) -> Option<u64> {
        let t = expr.get(*i)?;
        if t.kind == TokKind::Int {
            *i += 1;
            return t.value;
        }
        if t.kind == TokKind::Ident {
            *i += 1;
            return env.get(&t.text).map(|&(v, _, _)| v);
        }
        if t.is_punct('(') {
            // Find the matching close, evaluate the inside.
            let mut depth = 1i32;
            let open = *i;
            let mut j = open + 1;
            while j < expr.len() && depth > 0 {
                if expr[j].is_punct('(') {
                    depth += 1;
                } else if expr[j].is_punct(')') {
                    depth -= 1;
                }
                j += 1;
            }
            let v = eval(&expr[open + 1..j - 1], env)?;
            *i = j;
            return Some(v);
        }
        None
    }
    let mut i = 0usize;
    let mut acc = operand(expr, &mut i, env)?;
    while i < expr.len() {
        let op = expr.get(i)?;
        // `<<` arrives as two adjacent `<` puncts.
        if op.is_punct('<')
            && expr
                .get(i + 1)
                .map(|t| t.is_punct('<') && t.start == op.end)
                == Some(true)
        {
            i += 2;
            let rhs = operand(expr, &mut i, env)?;
            acc = acc.checked_shl(rhs as u32)?;
        } else if op.is_punct('+') {
            i += 1;
            acc = acc.checked_add(operand(expr, &mut i, env)?)?;
        } else if op.is_punct('-') {
            i += 1;
            acc = acc.checked_sub(operand(expr, &mut i, env)?)?;
        } else if op.is_punct('*') {
            i += 1;
            acc = acc.checked_mul(operand(expr, &mut i, env)?)?;
        } else {
            // A cast (`as u64`) or anything else: stop at a cast, fail on
            // the rest.
            if op.is_ident("as") {
                break;
            }
            return None;
        }
    }
    Some(acc)
}

/// Constants within one `prefix` family must have distinct values.
fn check_uniqueness(model: &CodeModel, out: &mut Vec<Finding>) {
    for family in ["KIND_", "REQ_", "RESP_"] {
        let mut seen: BTreeMap<u64, &str> = BTreeMap::new();
        for (name, &(v, ref file, line)) in &model.consts {
            if !name.starts_with(family) {
                continue;
            }
            if let Some(first) = seen.get(&v) {
                out.push(Finding {
                    pass: NAME,
                    file: file.clone(),
                    line,
                    key: format!("dup:{family}{v:#04x}"),
                    message: format!(
                        "`{name}` and `{first}` share tag value {v:#04x} — wire tags must be \
                         unique within their family"
                    ),
                });
            } else {
                seen.insert(v, name);
            }
        }
    }
    let mut seen: BTreeMap<u64, &str> = BTreeMap::new();
    for (name, v, line) in &model.error_codes {
        if let Some(first) = seen.get(v) {
            out.push(Finding {
                pass: NAME,
                file: model.protocol_file.clone(),
                line: *line,
                key: format!("dup:ErrorCode:{v}"),
                message: format!(
                    "`ErrorCode::{name}` and `ErrorCode::{first}` share discriminant {v}"
                ),
            });
        } else {
            seen.insert(*v, name);
        }
    }
}

/// wire.rs must actually contain the FNV offset/prime this pass (and
/// PROTOCOL.md §1) assume.
fn check_fnv_in_code(model: &CodeModel, out: &mut Vec<Finding>) {
    for (value, what) in [(FNV_OFFSET, "offset basis"), (FNV_PRIME, "prime")] {
        if !model.wire_ints.contains(&value) {
            out.push(Finding {
                pass: NAME,
                file: "crates/util/src/wire.rs".into(),
                line: 0,
                key: format!("fnv:{what}"),
                message: format!(
                    "wire.rs does not contain the FNV-1a 64 {what} {value:#x} — if the checksum \
                     changed, PROTOCOL.md §1 and this analyzer must change with it"
                ),
            });
        }
    }
}

fn get(model: &CodeModel, name: &str) -> Option<u64> {
    model.consts.get(name).map(|&(v, _, _)| v)
}

/// All document-side checks.
fn check_doc(doc: &str, model: &CodeModel, out: &mut Vec<Finding>) {
    let mut finding = |line: u32, key: String, message: String| {
        out.push(Finding {
            pass: NAME,
            file: "PROTOCOL.md".into(),
            line,
            key,
            message,
        });
    };

    // --- Quoted scalar constants, line by line -------------------------
    let version = get(model, "WIRE_VERSION");
    let kind_req = get(model, "KIND_REQUEST");
    let kind_resp = get(model, "KIND_RESPONSE");
    let mut in_code_block = false;
    for (idx, line) in doc.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        if line.trim_start().starts_with("```") {
            in_code_block = !in_code_block;
            continue;
        }
        if in_code_block {
            continue; // worked examples are pinned by protocol.rs's tests
        }
        let hexes = hex_literals(line);
        if let Some(v) = version {
            if line.contains("WIRE_VERSION") && hexes.len() == 1 && hexes[0].1 != v {
                finding(
                    lineno,
                    "doc:version".into(),
                    format!(
                        "PROTOCOL.md quotes WIRE_VERSION as {:#04x} but the code says {v:#04x}",
                        hexes[0].1
                    ),
                );
            }
        }
        // `kind` bytes quoted next to the words request/response.
        let lower = line.to_lowercase();
        if lower.contains("kind") && !hexes.is_empty() {
            for (word, expect, cname) in [
                ("request", kind_req, "KIND_REQUEST"),
                ("response", kind_resp, "KIND_RESPONSE"),
            ] {
                let Some(expect) = expect else { continue };
                let Some(wpos) = lower.find(word) else {
                    continue;
                };
                // The hex literal nearest the word is the one quoting it.
                if let Some(&(_, got)) = hexes
                    .iter()
                    .min_by_key(|&&(pos, _)| (pos as i64 - wpos as i64).unsigned_abs())
                {
                    if got != expect {
                        finding(
                            lineno,
                            format!("doc:kind:{word}"),
                            format!(
                                "PROTOCOL.md quotes the {word} kind byte as {got:#04x} but \
                                 `{cname}` is {expect:#04x}"
                            ),
                        );
                    }
                }
            }
        }
        // MAX_FRAME_BYTES rendered in MiB.
        if let Some(frame) = get(model, "MAX_FRAME_BYTES") {
            if line.contains("MAX_FRAME_BYTES") && line.contains("MiB") {
                let expect = frame >> 20;
                if !line.contains(&format!("{expect} MiB")) {
                    finding(
                        lineno,
                        "doc:frame-cap".into(),
                        format!(
                            "PROTOCOL.md renders MAX_FRAME_BYTES in MiB but not as `{expect} \
                             MiB` (code value: {frame} bytes)"
                        ),
                    );
                }
            }
        }
    }

    // --- Whole-document renderings ------------------------------------
    if let Some(cap) = get(model, "MAX_SAMPLE_COUNT") {
        let grouped = group_digits(cap);
        if !doc.contains(&grouped) {
            finding(
                0,
                "doc:sample-cap".into(),
                format!(
                    "PROTOCOL.md never renders MAX_SAMPLE_COUNT as `{grouped}` — the Sample \
                     request row must state the current cap"
                ),
            );
        }
    }
    for (value, what) in [(FNV_OFFSET, "offset basis"), (FNV_PRIME, "prime")] {
        if !doc.to_lowercase().contains(&format!("{value:#x}")) {
            finding(
                0,
                format!("doc:fnv:{what}"),
                format!("PROTOCOL.md does not quote the FNV-1a 64 {what} {value:#x}"),
            );
        }
    }

    // --- Normative tag tables -----------------------------------------
    check_table(doc, model, "REQ_", "request", out);
    check_table(doc, model, "RESP_", "response", out);
    check_error_table(doc, model, out);
}

/// `0x`-prefixed hex literals on a line, with their positions.
fn hex_literals(line: &str) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0usize;
    while i + 2 < bytes.len() {
        if bytes[i] == b'0' && (bytes[i + 1] | 0x20) == b'x' && bytes[i + 2].is_ascii_hexdigit() {
            let start = i;
            i += 2;
            let mut v: u64 = 0;
            let mut overflow = false;
            while i < bytes.len() && (bytes[i].is_ascii_hexdigit() || bytes[i] == b'_') {
                if bytes[i] != b'_' {
                    let d = (bytes[i] as char).to_digit(16).unwrap_or(0) as u64;
                    match v.checked_mul(16).and_then(|v| v.checked_add(d)) {
                        Some(nv) => v = nv,
                        None => overflow = true,
                    }
                }
                i += 1;
            }
            if !overflow {
                out.push((start, v));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Digit-grouping with spaces, as PROTOCOL.md renders large counts
/// (`65 536`).
fn group_digits(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

/// Set-compares one tag table (`| tag | request |` or `| tag | response |`
/// headers) with the code's `REQ_*` / `RESP_*` family.
fn check_table(
    doc: &str,
    model: &CodeModel,
    family: &str,
    header_word: &str,
    out: &mut Vec<Finding>,
) {
    let code: BTreeMap<u64, &str> = model
        .consts
        .iter()
        .filter(|(name, _)| name.starts_with(family))
        .map(|(name, &(v, _, _))| (v, name.as_str()))
        .collect();
    if code.is_empty() {
        return;
    }
    let mut doc_tags: BTreeMap<u64, u32> = BTreeMap::new();
    let mut in_table = false;
    for (idx, line) in doc.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let t = line.trim();
        if !t.starts_with('|') {
            in_table = false;
            continue;
        }
        let cells: Vec<String> = t
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().trim_matches('`').to_string())
            .collect();
        if cells.first().map(String::as_str) == Some("tag")
            && cells.get(1).map(String::as_str) == Some(header_word)
        {
            in_table = true;
            continue;
        }
        if !in_table {
            continue;
        }
        let Some(first) = cells.first() else { continue };
        if let Some(stripped) = first.strip_prefix("0x").or(first.strip_prefix("0X")) {
            if let Ok(v) = u64::from_str_radix(stripped, 16) {
                doc_tags.insert(v, lineno);
            }
        }
    }
    if doc_tags.is_empty() {
        out.push(Finding {
            pass: NAME,
            file: "PROTOCOL.md".into(),
            line: 0,
            key: format!("table:{header_word}:missing"),
            message: format!(
                "PROTOCOL.md has no `| tag | {header_word} |` table, but the code defines {} \
                 `{family}*` tags",
                code.len()
            ),
        });
        return;
    }
    for (&v, &lineno) in &doc_tags {
        if !code.contains_key(&v) {
            out.push(Finding {
                pass: NAME,
                file: "PROTOCOL.md".into(),
                line: lineno,
                key: format!("table:{header_word}:{v:#04x}"),
                message: format!(
                    "PROTOCOL.md documents {header_word} tag {v:#04x}, which no `{family}*` \
                     constant defines"
                ),
            });
        }
    }
    for (&v, name) in &code {
        if !doc_tags.contains_key(&v) {
            out.push(Finding {
                pass: NAME,
                file: "PROTOCOL.md".into(),
                line: 0,
                key: format!("table:{header_word}:{v:#04x}"),
                message: format!(
                    "`{name}` ({v:#04x}) is missing from PROTOCOL.md's {header_word} tag table"
                ),
            });
        }
    }
}

/// Set-compares the `| code | name |` error table with the `ErrorCode`
/// discriminants.
fn check_error_table(doc: &str, model: &CodeModel, out: &mut Vec<Finding>) {
    if model.error_codes.is_empty() {
        return;
    }
    let code: BTreeMap<u64, &str> = model
        .error_codes
        .iter()
        .map(|(name, v, _)| (*v, name.as_str()))
        .collect();
    let mut doc_codes: BTreeMap<u64, u32> = BTreeMap::new();
    let mut in_table = false;
    for (idx, line) in doc.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let t = line.trim();
        if !t.starts_with('|') {
            in_table = false;
            continue;
        }
        let cells: Vec<String> = t
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().trim_matches('`').to_string())
            .collect();
        if cells.first().map(String::as_str) == Some("code")
            && cells.get(1).map(String::as_str) == Some("name")
        {
            in_table = true;
            continue;
        }
        if !in_table {
            continue;
        }
        if let Some(v) = cells.first().and_then(|c| c.parse::<u64>().ok()) {
            doc_codes.insert(v, lineno);
        }
    }
    if doc_codes.is_empty() {
        out.push(Finding {
            pass: NAME,
            file: "PROTOCOL.md".into(),
            line: 0,
            key: "table:error:missing".into(),
            message: "PROTOCOL.md has no `| code | name |` error table, but ErrorCode exists"
                .into(),
        });
        return;
    }
    for (&v, &lineno) in &doc_codes {
        if !code.contains_key(&v) {
            out.push(Finding {
                pass: NAME,
                file: "PROTOCOL.md".into(),
                line: lineno,
                key: format!("table:error:{v}"),
                message: format!("PROTOCOL.md documents error code {v}, which ErrorCode lacks"),
            });
        }
    }
    for (&v, name) in &code {
        if !doc_codes.contains_key(&v) {
            out.push(Finding {
                pass: NAME,
                file: "PROTOCOL.md".into(),
                line: 0,
                key: format!("table:error:{v}"),
                message: format!(
                    "`ErrorCode::{name}` ({v}) is missing from PROTOCOL.md's error code table"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model_from(src: &str) -> CodeModel {
        let mut m = CodeModel::default();
        extract(&lex(src), "crates/util/src/protocol.rs", &mut m);
        m
    }

    #[test]
    fn const_expressions_evaluate() {
        let m = model_from(
            "pub const A: u64 = 1 << 26; pub const B: u64 = A - 11; const C: u8 = 0x04;",
        );
        assert_eq!(get(&m, "A"), Some(1 << 26));
        assert_eq!(get(&m, "B"), Some((1 << 26) - 11));
        assert_eq!(get(&m, "C"), Some(4));
    }

    #[test]
    fn magic_and_error_codes_extract() {
        let m = model_from(
            "pub const WIRE_MAGIC: [u8; 4] = *b\"PTSW\";\n\
             pub enum ErrorCode { Malformed = 1, TooLarge = 4, }",
        );
        // The magic is a byte string, not an integer: left unmodeled.
        assert_eq!(get(&m, "WIRE_MAGIC"), None);
        assert_eq!(m.error_codes.len(), 2);
        assert_eq!(m.error_codes[1], ("TooLarge".to_string(), 4, 2));
    }

    #[test]
    fn duplicate_tags_are_findings() {
        let m = model_from("const REQ_A: u8 = 0x01; const REQ_B: u8 = 0x01;");
        let mut out = Vec::new();
        check_uniqueness(&m, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("share tag value 0x01"));
    }

    #[test]
    fn hex_literal_scan_finds_positions() {
        let hexes = hex_literals("| 4 | 1 | version | `0x02` (`WIRE_VERSION`) |");
        assert_eq!(hexes.len(), 1);
        assert_eq!(hexes[0].1, 2);
    }

    #[test]
    fn digit_grouping_matches_doc_style() {
        assert_eq!(group_digits(65536), "65 536");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1234567), "1 234 567");
    }
}
