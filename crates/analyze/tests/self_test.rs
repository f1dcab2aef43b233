//! Fixture self-tests for every analyzer pass.
//!
//! Each pass gets a `*_bad` fixture tree with a planted violation (the
//! pass must fire, at the right file/line, with the documented key) and
//! a `*_good` twin with the same shapes written correctly (the pass must
//! stay silent). The driver-level tests prove the allowlist suppresses
//! exactly what it names, that a stale entry is itself an error, and
//! that a malformed entry both fails and fails to suppress.

use pts_analyze::analyze_workspace;
use pts_analyze::diag::Finding;
use pts_analyze::passes;
use pts_analyze::workspace::Workspace;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture(name: &str) -> Workspace {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    Workspace::load(&root)
}

fn run_pass(pass: &str, ws: &Workspace) -> Vec<Finding> {
    let (_, run) = passes::ALL
        .iter()
        .find(|(name, _)| *name == pass)
        .unwrap_or_else(|| panic!("unknown pass {pass}"));
    run(ws)
}

fn keys(findings: &[Finding]) -> BTreeSet<String> {
    findings.iter().map(|f| f.key.clone()).collect()
}

fn assert_quiet(pass: &str, tree: &str) {
    let out = run_pass(pass, &fixture(tree));
    assert!(
        out.is_empty(),
        "{pass} should stay quiet on {tree}, got: {:#?}",
        out
    );
}

// ---------------------------------------------------------------- decode

#[test]
fn decode_pass_fires_on_planted_panics() {
    let out = run_pass("decode-panic", &fixture("decode_bad"));
    let got = keys(&out);
    let want: BTreeSet<String> = [
        "crates/codec/src/wire.rs:impl Decode for Foo:unwrap",
        "crates/codec/src/wire.rs:fn read_frame:index:buf",
        "crates/codec/src/wire.rs:fn get_header:panic",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(got, want, "full findings: {out:#?}");
    // Line numbers point at the planted tokens, not the enclosing items.
    let by_key = |k: &str| out.iter().find(|f| f.key.ends_with(k)).unwrap();
    assert_eq!(by_key(":unwrap").line, 8);
    assert_eq!(by_key(":index:buf").line, 14);
    assert_eq!(by_key(":panic").line, 19);
}

#[test]
fn decode_pass_accepts_panic_free_twin() {
    assert_quiet("decode-panic", "decode_good");
}

// --------------------------------------------------------------- wiredoc

#[test]
fn wiredoc_pass_fires_on_planted_drift() {
    let out = run_pass("wire-doc", &fixture("wiredoc_bad"));
    let got = keys(&out);
    let want: BTreeSet<String> = [
        "dup:REQ_0x04",       // REQ_STATS and REQ_PING share a tag
        "doc:version",        // PROTOCOL.md quotes 0x03, code says 2
        "table:request:0x09", // ghost row not backed by any REQ_ const
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(got, want, "full findings: {out:#?}");
    let version = out.iter().find(|f| f.key == "doc:version").unwrap();
    assert_eq!(version.file, "PROTOCOL.md");
    assert_eq!(version.line, 6);
}

#[test]
fn wiredoc_pass_accepts_consistent_twin() {
    assert_quiet("wire-doc", "wiredoc_good");
}

// --------------------------------------------------------------- metrics

#[test]
fn metrics_pass_fires_on_planted_inventory_drift() {
    let out = run_pass("metrics-doc", &fixture("metrics_bad"));
    let got = keys(&out);
    for want in [
        "name:NotDotted",                  // not dotted lowercase
        "owner:server.stolen.metric",      // server.* registered in engine
        "inventory:engine.ingest.batches", // documented, never registered
        "inventory:engine.secret.series",  // registered, never documented
        "inventory-kind:engine.draw.ns",   // counter in code, histogram in doc
    ] {
        assert!(got.contains(want), "missing {want}; got {got:#?}");
    }
}

#[test]
fn metrics_pass_accepts_matching_inventory() {
    assert_quiet("metrics-doc", "metrics_good");
}

// ---------------------------------------------------------------- lockio

#[test]
fn lockio_pass_fires_on_io_under_guard() {
    let out = run_pass("lock-io", &fixture("lockio_bad"));
    assert_eq!(out.len(), 1, "full findings: {out:#?}");
    assert_eq!(out[0].key, "crates/server/src/server.rs:dispatch:write_all");
    assert_eq!(out[0].line, 5);
}

#[test]
fn lockio_pass_accepts_scoped_and_dropped_guards() {
    assert_quiet("lock-io", "lockio_good");
}

// --------------------------------------------------------------- headers

#[test]
fn headers_pass_fires_on_missing_print_deny() {
    let out = run_pass("lint-headers", &fixture("headers_bad"));
    assert_eq!(out.len(), 1, "full findings: {out:#?}");
    assert_eq!(out[0].key, "deny-print:quiet");
    assert_eq!(out[0].file, "crates/quiet/src/lib.rs");
}

#[test]
fn headers_pass_accepts_full_headers_and_exempts_shims() {
    // The good tree includes a shim lib.rs carrying only
    // forbid(unsafe_code); shims are exempt from the other two headers.
    assert_quiet("lint-headers", "headers_good");
}

// ---------------------------------------------------------------- rngtag

#[test]
fn rngtag_pass_fires_on_shared_stream_tag() {
    let out = run_pass("lint-rng", &fixture("rngtag_bad"));
    assert_eq!(out.len(), 1, "full findings: {out:#?}");
    assert_eq!(out[0].key, "tag:0xbeef");
    // The finding lands on the later site (file order), and resolving
    // the tag through a local const still counts.
    assert_eq!(out[0].file, "crates/b/src/two.rs");
}

#[test]
fn rngtag_pass_accepts_distinct_tags() {
    assert_quiet("lint-rng", "rngtag_good");
}

// ---------------------------------------------- allowlist + driver logic

const GOOD_ENTRY: &str = "lint-rng | tag:0xbeef | fixture twins intentionally share one stream\n";

#[test]
fn allowlist_suppresses_exactly_the_named_finding() {
    let report = analyze_workspace(&fixture("rngtag_bad"), GOOD_ENTRY, &[]);
    assert!(
        report.is_clean(),
        "denials: {:#?}",
        report.denials().collect::<Vec<_>>()
    );
    assert_eq!(report.allowlisted.len(), 1);
    assert_eq!(report.allowlisted[0].finding.key, "tag:0xbeef");
    assert!(report.allowlisted[0]
        .justification
        .contains("intentionally share"));
}

#[test]
fn stale_allowlist_entry_is_itself_a_finding() {
    let text = format!("{GOOD_ENTRY}lint-rng | tag:0xdead | covers nothing on this tree\n");
    let report = analyze_workspace(&fixture("rngtag_bad"), &text, &[]);
    assert!(!report.is_clean());
    assert_eq!(report.stale.len(), 1);
    assert_eq!(report.stale[0].key, "stale:lint-rng:tag:0xdead");
    // The live finding is still suppressed by the entry that does match.
    assert!(report.findings.is_empty());
}

#[test]
fn malformed_allowlist_entry_fails_and_does_not_suppress() {
    // Justification under the 10-character floor: the line is rejected,
    // reported under the reserved `allowlist` pass, and the finding it
    // tried to cover stays live.
    let report = analyze_workspace(
        &fixture("rngtag_bad"),
        "lint-rng | tag:0xbeef | nope\n",
        &[],
    );
    assert!(!report.is_clean());
    assert!(report
        .findings
        .iter()
        .any(|f| f.pass == "allowlist" && f.key == "line:1"));
    assert!(report.findings.iter().any(|f| f.key == "tag:0xbeef"));
}

#[test]
fn empty_tree_is_a_driver_error_not_a_clean_run() {
    let report = analyze_workspace(&fixture("no_such_tree"), "", &[]);
    assert!(!report.is_clean());
    assert_eq!(report.findings[0].key, "workspace:empty");
}
