//! `reproduce` — regenerate the paper's tables and figures. [`USAGE`]
//! (what `reproduce --help` prints) lists the ids, modes and flags.
//!
//! An unknown id or flag exits 2 before anything runs.

use pts_bench::{json, registry, select};
use pts_util::table::{arm_witness, disarm_witness};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// The usage block `--help` and `-h` print.
const USAGE: &str = "\
reproduce                    # run every experiment in quick mode
reproduce e1 e4 a1           # run a subset
reproduce --full             # full trial counts (the EXPERIMENTS.md record)
reproduce --list             # list experiment ids
reproduce --json <dir> e1 w1 # also write machine-readable BENCH_<id>.json
                             # files into <dir> (created if missing) —
                             # what the nightly CI job uploads
reproduce --help             # this text (also -h)
";

/// What a command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    /// Print [`USAGE`].
    Help,
    /// List the experiment ids.
    List,
    /// Run the experiments `ids` (all of them when empty).
    Run {
        ids: Vec<String>,
        full: bool,
        json_dir: Option<PathBuf>,
    },
}

/// Parses the arguments after the program name. Any token starting with
/// `-` is a flag; an unknown flag or a `--json` without a directory is an
/// error. `--help` wins over everything else, then `--list`.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let (mut help, mut list, mut full) = (false, false, false);
    let mut json_dir = None;
    let mut ids = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => help = true,
            "--list" => list = true,
            "--full" => full = true,
            "--json" => match args.next() {
                Some(dir) if !dir.starts_with('-') => json_dir = Some(PathBuf::from(dir)),
                _ => return Err("--json requires a directory argument".to_string()),
            },
            flag if flag.starts_with('-') => return Err(format!("unknown flag: {flag}")),
            id => ids.push(id.to_string()),
        }
    }
    Ok(if help {
        Command::Help
    } else if list {
        Command::List
    } else {
        Command::Run {
            ids,
            full,
            json_dir,
        }
    })
}

/// Human-readable panic payload (panics carry `&str` or `String`; anything
/// else is reported opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (wanted, full, json_dir) = match parse_args(&args) {
        Ok(Command::Help) => {
            print!("{USAGE}");
            return;
        }
        Ok(Command::List) => {
            for e in &registry() {
                println!("{:>4}  {}", e.id, e.title);
            }
            return;
        }
        Ok(Command::Run {
            ids,
            full,
            json_dir,
        }) => (ids, full, json_dir),
        Err(err) => {
            eprintln!("{err}");
            eprint!("usage:\n{USAGE}");
            std::process::exit(2);
        }
    };
    let wanted: Vec<&str> = wanted.iter().map(String::as_str).collect();
    let experiments = select(&wanted).unwrap_or_else(|unknown| {
        let valid: Vec<&str> = registry().iter().map(|e| e.id).collect();
        eprintln!("unknown experiment id(s): {}", unknown.join(", "));
        eprintln!("valid ids: {}", valid.join(" "));
        std::process::exit(2);
    });
    if let Some(dir) = &json_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --json directory {}: {err}", dir.display());
            std::process::exit(2);
        }
    }

    // Invariant summary for the artifact notes: the numbers in a bench
    // JSON are only as trustworthy as the tree they were built from, so
    // each document records whether pts-analyze found that tree clean.
    // Computed once — the analyzer reads the whole workspace. Outside a
    // source checkout (installed binary, bare artifact dir) the summary
    // degrades to "unchecked" rather than failing the run.
    let invariants = json_dir.as_ref().map(|_| {
        match std::env::current_dir()
            .ok()
            .and_then(|cwd| pts_analyze::find_workspace_root(&cwd))
        {
            Some(root) => {
                let report = pts_analyze::analyze(&root, &[]);
                format!("invariants: {}", report.summary())
            }
            None => "invariants: unchecked (source tree unavailable)".to_string(),
        }
    });
    let notes = invariants.as_deref().unwrap_or("");

    let mut stdout = std::io::stdout().lock();
    let mode = if full { "full" } else { "quick" };
    let _ = writeln!(stdout, "# reproduce — mode: {mode}\n");
    let mut panicked: Vec<&str> = Vec::new();
    for e in &experiments {
        let _ = writeln!(stdout, "## {} — {}\n", e.id, e.title);
        let _ = stdout.flush();
        // The witness mirrors completed rows so a mid-experiment panic
        // still yields the finished part of the table (and, with --json,
        // a partial artifact marked "incomplete") instead of aborting the
        // whole run with nothing.
        arm_witness();
        let started = std::time::Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| (e.run)(!full)));
        let seconds = started.elapsed().as_secs_f64();
        let witness = disarm_witness();
        let (doc, table_md, rows, note) = match &outcome {
            Ok(table) => (
                json_dir
                    .as_ref()
                    .map(|_| json::experiment_json(e.id, e.title, mode, seconds, table, notes)),
                table.to_markdown(),
                table.len(),
                format!("_({} rows in {seconds:.1}s)_", table.len()),
            ),
            Err(payload) => {
                panicked.push(e.id);
                let (header, rows) = witness.unwrap_or_default();
                let mut partial = pts_util::Table::new(header);
                for row in &rows {
                    partial.push_row(row.iter().cloned());
                }
                (
                    json_dir.as_ref().map(|_| {
                        json::experiment_json_parts(
                            e.id,
                            e.title,
                            mode,
                            seconds,
                            partial.header(),
                            partial.rows(),
                            true,
                            notes,
                        )
                    }),
                    partial.to_markdown(),
                    partial.len(),
                    format!(
                        "**PANICKED after {seconds:.1}s** ({} completed rows salvaged): {}",
                        partial.len(),
                        panic_message(payload.as_ref()),
                    ),
                )
            }
        };
        if rows > 0 || outcome.is_ok() {
            let _ = writeln!(stdout, "{table_md}");
        }
        let _ = writeln!(stdout, "{note}\n");
        let _ = stdout.flush();
        if let (Some(dir), Some(doc)) = (&json_dir, doc) {
            let path = dir.join(format!("BENCH_{}.json", e.id));
            if let Err(err) = std::fs::write(&path, doc) {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(2);
            }
            let _ = writeln!(stdout, "_json → {}_\n", path.display());
        }
    }
    if !panicked.is_empty() {
        eprintln!("experiments panicked: {}", panicked.join(", "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn help_wins_over_everything_else() {
        for args in [
            &["--help"][..],
            &["-h"],
            &["e1", "--full", "-h"],
            &["--list", "--help"],
        ] {
            assert_eq!(parse(args), Ok(Command::Help), "{args:?}");
        }
        assert_eq!(parse(&["--list", "e1"]), Ok(Command::List));
    }

    #[test]
    fn unknown_flags_are_errors() {
        for args in [
            &["--hepl"][..],
            &["e1", "-x"],
            &["--full", "--fast"],
            &["-"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{args:?}: {err}");
        }
        for args in [&["--json"][..], &["--json", "--full"], &["e1", "--json"]] {
            assert_eq!(
                parse(args),
                Err("--json requires a directory argument".to_string()),
                "{args:?}"
            );
        }
    }

    #[test]
    fn runs_take_ids_modes_and_a_json_dir_in_any_order() {
        assert_eq!(
            parse(&[]),
            Ok(Command::Run {
                ids: vec![],
                full: false,
                json_dir: None
            })
        );
        assert_eq!(
            parse(&["e1", "--json", "out", "--full", "w1"]),
            Ok(Command::Run {
                ids: vec!["e1".to_string(), "w1".to_string()],
                full: true,
                json_dir: Some(PathBuf::from("out")),
            })
        );
    }
}
