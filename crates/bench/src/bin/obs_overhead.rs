//! `obs_overhead` — one side of the `o1` measurement.
//!
//! Runs the pinned S1 ingest workload in *this* build and prints
//! machine-parsable lines; experiment `o1` runs this binary twice — once
//! from the default (instrumented) build and once from
//! `--no-default-features` (obs-off) — and compares the reported rates.
//! The split exists because observability is a compile-time feature: one
//! process can only ever measure one side.
//!
//! ```text
//! obs_overhead [--full]
//! ```
//!
//! Output contract (parsed by `experiments::obs`):
//!
//! ```text
//! obs=on|off
//! trial workload=seq i=0 updates=61440 seconds=0.021 rate=2.9e6
//! ...
//! best workload=seq updates_per_sec=3.1e6
//! ```

use pts_bench::experiments::throughput::workload;
use pts_engine::{EngineConfig, LpLe2Factory, ShardedEngine};
use pts_stream::Stream;
use std::time::Instant;

const BATCH_LEN: usize = 1024;
const QUERY_EVERY_BATCHES: usize = 8;

/// One timed pass of the s1 loop (S=4 sequential): returns
/// `(updates, seconds)`.
fn run_seq(base: &Stream, reps: usize, n: usize) -> (u64, f64) {
    let factory = LpLe2Factory::for_universe(n, 2.0);
    let config = EngineConfig::new(n).shards(4).pool_size(2).seed(99);
    let mut engine = ShardedEngine::new(config, factory);
    let started = Instant::now();
    for _ in 0..reps {
        for (b, batch) in base.batches(BATCH_LEN).enumerate() {
            engine.ingest_batch(batch);
            if b % QUERY_EVERY_BATCHES == 0 {
                let _ = engine.sample();
            }
        }
    }
    (engine.stats().updates, started.elapsed().as_secs_f64())
}

fn main() {
    let full = std::env::args().skip(1).any(|a| a == "--full");
    let trials = if full { 7 } else { 5 };
    let (base, reps, n) = workload(!full);
    println!("obs={}", if pts_obs::enabled() { "on" } else { "off" });
    // One discarded warmup pass: the first run after a build pays cold
    // caches and CPU frequency ramp, which best-of-N should not.
    let _ = run_seq(&base, reps, n);
    let mut best = 0.0f64;
    for i in 0..trials {
        let (updates, seconds) = run_seq(&base, reps, n);
        let rate = updates as f64 / seconds;
        best = best.max(rate);
        println!("trial workload=seq i={i} updates={updates} seconds={seconds:.3} rate={rate:.0}");
    }
    println!("best workload=seq updates_per_sec={best:.0}");
}
