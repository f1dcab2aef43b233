//! O1: observability overhead — instrumented vs obs-off builds.
//!
//! The obs contract (DESIGN.md §11) is "a few relaxed atomics per touched
//! metric, zero when compiled off"; `o1` is the experiment that holds the
//! implementation to it. Instrumentation is a compile-time feature, so one
//! process cannot measure both sides: `o1` shells out to `cargo run` and
//! executes the `obs_overhead` helper binary twice on the pinned S1
//! workload — once from the default (instrumented) workspace build, once
//! from `--no-default-features` (obs compiled off) — and reports best-of-N
//! ingest rates side by side with the relative overhead.
//!
//! The helper also prints which side it was built as (`obs=on|off`), and
//! `o1` cross-checks that against the flags it passed — a feature-wiring
//! regression (e.g. a dependency edge that stops forwarding
//! `default-features = false`) fails the experiment rather than silently
//! comparing two instrumented builds.

use pts_util::table::fmt_sig;
use pts_util::Table;
use std::process::Command;

/// Workspace root: this crate sits at `crates/bench`.
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// Runs the `obs_overhead` helper in one feature configuration and returns
/// its best ingest rate in updates/sec.
fn run_side(obs_on: bool, quick: bool) -> f64 {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(workspace_root()).args([
        "run",
        "--release",
        "--quiet",
        "-p",
        "pts-bench",
        "--bin",
        "obs_overhead",
    ]);
    if !obs_on {
        cmd.arg("--no-default-features");
    }
    if !quick {
        cmd.args(["--", "--full"]);
    }
    let output = cmd
        .output()
        .expect("o1: cannot spawn cargo for obs_overhead");
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        panic!(
            "o1: obs_overhead (obs {}) failed: {}\n{}",
            if obs_on { "on" } else { "off" },
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let built = parse_obs(&stdout).expect("o1: helper printed no obs= line");
    assert_eq!(
        built,
        obs_on,
        "o1: feature wiring regression — asked for obs {} but the helper was built obs {}",
        if obs_on { "on" } else { "off" },
        if built { "on" } else { "off" }
    );
    parse_best(&stdout)
        .into_iter()
        .find(|(name, _)| name == "seq")
        .expect("o1: helper printed no best line for seq")
        .1
}

/// Extracts the helper's `obs=on|off` self-report.
pub(crate) fn parse_obs(stdout: &str) -> Option<bool> {
    stdout.lines().find_map(|l| match l.trim() {
        "obs=on" => Some(true),
        "obs=off" => Some(false),
        _ => None,
    })
}

/// Extracts `best workload=<name> updates_per_sec=<rate>` lines.
pub(crate) fn parse_best(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|l| {
            let rest = l.trim().strip_prefix("best workload=")?;
            let (name, rate) = rest.split_once(" updates_per_sec=")?;
            Some((name.to_string(), rate.trim().parse().ok()?))
        })
        .collect()
}

/// O1 runner.
pub fn o1_obs_overhead(quick: bool) -> Table {
    let trials = if quick { 5 } else { 7 };
    println!("  building + running obs_overhead in both feature builds (best of {trials})");
    let off_seq = run_side(false, quick);
    println!("  obs off: seq {} u/s", fmt_sig(off_seq, 3));
    let on_seq = run_side(true, quick);
    println!("  obs on:  seq {} u/s", fmt_sig(on_seq, 3));

    let mut table = Table::new(["workload", "obs", "trials", "best updates/sec", "overhead"]);
    table.push_row([
        "seq S=4".into(),
        "off".into(),
        trials.to_string(),
        fmt_sig(off_seq, 3),
        "baseline".into(),
    ]);
    table.push_row([
        "seq S=4".into(),
        "on".into(),
        trials.to_string(),
        fmt_sig(on_seq, 3),
        format!("{:+.1}%", (off_seq / on_seq - 1.0) * 100.0),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full runner shells out to cargo (a release build per side), so
    // unit tests pin the output contract instead of running it.

    #[test]
    fn parses_the_helper_output_contract() {
        let stdout = "obs=off\n\
                      trial workload=seq i=0 updates=61440 seconds=0.021 rate=2926000\n\
                      best workload=seq updates_per_sec=3100000\n";
        assert_eq!(parse_obs(stdout), Some(false));
        assert_eq!(parse_best(stdout), vec![("seq".to_string(), 3.1e6)]);
    }

    #[test]
    fn ignores_unrelated_lines() {
        assert_eq!(parse_obs("warning: something\n"), None);
        assert!(parse_best("best workload=seq updates_per_sec=oops\n").is_empty());
    }
}
