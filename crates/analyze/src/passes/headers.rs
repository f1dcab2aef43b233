//! Pass `lint-headers`: every library crate root carries the workspace's
//! protective lint headers.
//!
//! Three inner attributes are the floor for library code here:
//!
//! * `#![forbid(unsafe_code)]` — the whole reproduction is safe Rust;
//!   `forbid` (not `deny`) so no module can quietly opt back in.
//! * `#![deny(clippy::print_stdout, clippy::print_stderr)]` — the
//!   never-print rule (DESIGN.md S37): libraries record events and
//!   metrics, they do not write to a terminal they don't own. Binaries
//!   (`src/bin/**`, `src/main.rs`) own their output and are exempt, as
//!   are `examples/`, and a module may locally `allow` with a comment
//!   when output *is* the product (the bench progress reporter).
//! * `#![warn(missing_docs)]` — public API stays documented.
//!
//! Shim crates (`shims/*`) mirror an external crate's API and only need
//! `#![forbid(unsafe_code)]`: their surface follows the real crate, not
//! this workspace's library rules.

use crate::diag::Finding;
use crate::workspace::Workspace;

/// This pass's name.
pub const NAME: &str = "lint-headers";

const FORBID_UNSAFE: &str = "#![forbid(unsafe_code)]";
const DENY_PRINT: &str = "#![deny(clippy::print_stdout, clippy::print_stderr)]";
const WARN_MISSING_DOCS: &str = "#![warn(missing_docs)]";

/// Runs the pass.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for src in &ws.sources {
        let is_lib = src.rel.ends_with("src/lib.rs");
        if !is_lib {
            continue;
        }
        let shim = src.rel.starts_with("shims/");
        let krate = src.crate_name();
        let mut require = vec![("forbid-unsafe", FORBID_UNSAFE)];
        if !shim {
            require.push(("deny-print", DENY_PRINT));
            require.push(("warn-missing-docs", WARN_MISSING_DOCS));
        }
        for (slug, header) in require {
            if !src.text.contains(header) {
                out.push(Finding {
                    pass: NAME,
                    file: src.rel.clone(),
                    line: 0,
                    key: format!("{slug}:{krate}"),
                    message: format!("library crate `{krate}` is missing the `{header}` header"),
                });
            }
        }
    }
    out
}
