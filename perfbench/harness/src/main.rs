//! `perfbench --workload <ingest|draw|tenants> --seed <n> --seconds <s>
//! --trace <0|1> [--commit <id>] [--rustc <version>]`
//!
//! Prints notes, a stamp line, and as its last line one JSON result:
//! `{"correct", "attempted", "failed", "metrics"}`, and exits non-zero when
//! a request failed or a correctness check did not hold. A traced run
//! writes its spans to `$CARGO_TARGET_DIR/perfbench-spans/<workload>-<seed>.tsv`
//! (`CARGO_TARGET_DIR` defaults to `.bench_build`). `perfbench/run.py`
//! builds this binary and runs it; see `perfbench/README.md`.

use perfbench::report::quote;
use perfbench::{run, Ctx, WORKLOADS};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        arg("--workload"),
        arg("--seed").and_then(|s| s.parse::<u64>().ok()),
        arg("--seconds").and_then(|s| s.parse::<f64>().ok()),
        arg("--trace").and_then(|s| s.parse::<u8>().ok()),
    ) else {
        eprintln!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            WORKLOADS.join("|")
        );
        return ExitCode::from(2);
    };
    let ctx = Ctx {
        seed,
        seconds,
        trace: trace == 1,
        tiny: false,
        plant: false,
    };
    let Some(out) = run(&workload, &ctx) else {
        eprintln!("unknown workload {workload:?}; expected one of {WORKLOADS:?}");
        return ExitCode::from(2);
    };

    for note in &out.notes {
        println!("# {note}");
    }
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# stamp {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \"nproc\": {nproc}, \"commit\": {}, \"rustc\": {}, \"obs\": {}}}",
        quote(&workload),
        ctx.trace,
        quote(&arg("--commit").unwrap_or_else(|| "unknown".into())),
        quote(&arg("--rustc").unwrap_or_else(|| "unknown".into())),
        pts_obs::enabled(),
    );
    if ctx.trace {
        let path = PathBuf::from(
            std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
        )
        .join("perfbench-spans")
        .join(format!("{workload}-{seed}.tsv"));
        if let Err(e) = write_spans(&path, &out.spans) {
            eprintln!("cannot write spans to {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("# {} spans written to {}", out.spans.len(), path.display());
    }
    println!("{}", out.json());
    if out.failures.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One span per line: name, request, start and duration in ns.
fn write_spans(path: &Path, spans: &[perfbench::adapter::SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\treq\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(w, "{}\t{}\t{}\t{}", s.name, s.req, s.start_ns, s.dur_ns)?;
    }
    w.flush()
}
