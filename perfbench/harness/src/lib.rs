//! The benchmark of the served perfect-sampling stack: three seeded
//! workloads (`ingest`, `draw`, `tenants`) run against real loopback
//! servers, with correctness checks on every run, and a traced mode that
//! produces the per-layer ledger. `perfbench/README.md` documents the
//! metrics and how to run it.

pub mod adapter;
pub mod draw;
pub mod gen;
pub mod ingest;
pub mod ledger;
pub mod report;
pub mod tenants;

use report::Outcome;
use std::time::Instant;

/// The workloads, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 3] = ["ingest", "draw", "tenants"];

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Measured seconds (the traced mode splits them between an untraced
    /// and a traced served phase).
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every size for the self-tests.
    pub tiny: bool,
    /// Self-test only: perturbs the expected final mass by one part in
    /// 10⁶, which the correctness checks must catch.
    pub plant: bool,
}

impl Ctx {
    /// The factor applied to every expected final mass.
    pub fn mass_factor(&self) -> f64 {
        if self.plant {
            1.0 + 1e-6
        } else {
            1.0
        }
    }

    /// How many set-ups `setup_s` takes the median of.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.tiny {
            1
        } else {
            full
        }
    }
}

/// Times one set-up.
pub fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let built = build();
    (built, report::secs_since(t))
}

/// Reports `setup_s`: the median of the first set-up (the one the run
/// used) and `reps - 1` more, each built and torn down after the
/// measured phase so they cannot add to the run's peak memory.
pub fn push_setup<T>(out: &mut Outcome, first: f64, reps: usize, mut build: impl FnMut() -> T) {
    let mut times = vec![first];
    for _ in 1..reps {
        let (built, secs) = timed(&mut build);
        drop(built);
        times.push(secs);
    }
    out.push("setup_s", report::median(&times), "s");
}

/// Runs one workload.
pub fn run(workload: &str, ctx: &Ctx) -> Option<Outcome> {
    let out = match workload {
        "ingest" => ingest::run(ctx),
        "draw" => draw::run(ctx),
        "tenants" => tenants::run(ctx),
        _ => return None,
    };
    Some(out)
}

/// Tracing overhead as a fraction: how much lower the traced phase's
/// headline rate was than the untraced one's.
pub fn push_overhead(out: &mut Outcome, untraced_rate: f64, traced_rate: f64) {
    let overhead = if traced_rate > 0.0 {
        untraced_rate / traced_rate - 1.0
    } else {
        0.0
    };
    out.push("trace.overhead", overhead, "ratio");
    out.notes.push(format!(
        "tracing overhead: untraced {untraced_rate:.1}/s vs traced {traced_rate:.1}/s"
    ));
}
