//! S1: engine ingest throughput.
//!
//! Batched ingest through the shard router is shard-count-insensitive on
//! one thread (total pool work is conserved), while queries stay
//! serviceable throughout. Drives a zipfian turnstile workload through
//! `ShardedEngine` configurations `S ∈ {1, 4, 16}` and reports wall-clock
//! updates/sec, plus the cost of interleaving a query every `Q` batches
//! (the always-on serving mode).
//!
//! The workload is identical across rows (same updates, same batch size),
//! so rows are directly comparable; the sampler is the perfect L₂ family
//! (`LpLe2Factory`), the engine's production default for value-weighted
//! sampling.

use pts_engine::{EngineConfig, LpLe2Factory, ShardedEngine};
use pts_stream::gen::zipf_vector;
use pts_stream::{Stream, StreamStyle};
use pts_util::table::fmt_sig;
use pts_util::{Table, Xoshiro256pp};
use std::time::Instant;

/// S1 runner.
pub fn s1_engine_throughput(quick: bool) -> Table {
    let batch_len = 1024;
    let query_every_batches = 8;

    // One fixed workload for every configuration.
    let (base, reps, n) = workload(quick);

    let mut table = Table::new([
        "shards",
        "updates",
        "ingest s",
        "updates/sec",
        "queries",
        "⊥",
        "respawns",
    ]);
    for shards in [1usize, 4, 16] {
        let factory = LpLe2Factory::for_universe(n, 2.0);
        let config = EngineConfig::new(n).shards(shards).pool_size(2).seed(99);
        let mut engine = ShardedEngine::new(config, factory);
        let mut queries = 0u64;
        let started = Instant::now();
        for _ in 0..reps {
            for (b, batch) in base.batches(batch_len).enumerate() {
                engine.ingest_batch(batch);
                if b % query_every_batches == 0 {
                    let _ = engine.sample();
                    queries += 1;
                }
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let stats = engine.stats();
        let rate = stats.updates as f64 / elapsed;
        println!(
            "  S={shards:>2}: {} updates in {:.2}s = {} updates/sec",
            stats.updates,
            elapsed,
            fmt_sig(rate, 3)
        );
        table.push_row([
            shards.to_string(),
            stats.updates.to_string(),
            fmt_sig(elapsed, 3),
            fmt_sig(rate, 3),
            queries.to_string(),
            stats.fails.to_string(),
            engine.respawns().to_string(),
        ]);
    }
    table
}

/// The fixed S1 workload: one churny zipfian stream, repeated until the
/// target update count is reached. Returns `(stream, reps, universe)`.
///
/// Public because the `obs_overhead` helper binary (experiment `o1`) must
/// drive byte-identical work in both feature builds it compares.
pub fn workload(quick: bool) -> (Stream, usize, usize) {
    let n = 1 << 12;
    let target_updates = if quick { 60_000 } else { 600_000 };
    let x = zipf_vector(n, 1.0, 500, 4242);
    let mut rng = Xoshiro256pp::new(4243);
    let base = Stream::from_target(&x, StreamStyle::Turnstile { churn: 1.0 }, &mut rng);
    let reps = target_updates / base.len().max(1) + 1;
    (base, reps, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s1_reports_all_shard_counts() {
        let t = s1_engine_throughput(true);
        assert_eq!(t.len(), 3);
        let md = t.to_markdown();
        for s in ["| 1 ", "| 4 ", "| 16 "] {
            assert!(md.contains(s), "missing row {s}: {md}");
        }
    }
}
