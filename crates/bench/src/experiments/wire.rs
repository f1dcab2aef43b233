//! W1: durable-snapshot size next to the sampler state the paper bounds.
//!
//! Theorem 1.2's headline is that perfect L_p sampler state occupies
//! `O(n^{1−2/p})` words (up to polylog factors). The engine keeps no
//! sampler instance — a draw respawns one from the net vector — so its
//! checkpoint is compact state, and the theorem's quantity is the
//! `space_bits` of the sampler a draw spawns. This experiment measures,
//! per `(factory, p, n, S)` configuration:
//!
//! * the framed [`pts_engine::EngineSnapshot`] payload (gap+varint coded sparse net
//!   vector — the merge-layer shipping unit, `O(support)` bytes);
//! * the full engine checkpoint (config + RNG + stats + two varints of
//!   pool counters per shard + the snapshot body — the crash-recovery
//!   unit, also `O(support)` bytes);
//! * the `space_bits` of one spawned sampler, and the ratio
//!   `sampler bits / n^{1−2/p}`, which the space bound predicts grows
//!   only polylogarithmically in `n` at fixed `p > 2`.
//!
//! Every measured checkpoint is also restored and cross-checked, so the
//! recorded sizes are of *working* checkpoints, not write-only blobs.

use pts_engine::{EngineConfig, LpLe2Factory, PerfectLpFactory, SamplerFactory, ShardedEngine};
use pts_samplers::TurnstileSampler;
use pts_stream::Update;
use pts_util::table::{fmt_sig, Table};
use pts_util::wire::{Decode, Encode};

/// One measured configuration.
struct Sizes {
    support: usize,
    snapshot_bytes: usize,
    checkpoint_bytes: usize,
    sampler_bits: usize,
}

/// Builds, loads, checkpoints, and measures one engine configuration.
fn measure<F>(config: EngineConfig, factory: F, seed: u64) -> Sizes
where
    F: SamplerFactory + Encode + Decode,
{
    let n = config.universe;
    let x = pts_stream::gen::zipf_vector(n, 1.0, 4 * n as i64, seed);
    let updates: Vec<Update> = x.iter_nonzero().map(|(i, v)| Update::new(i, v)).collect();
    let sampler_bits = factory.build(n, seed).space_bits();
    let mut engine = ShardedEngine::new(config, factory);
    for chunk in updates.chunks(512) {
        engine.ingest_batch(chunk);
    }
    let _ = engine.sample();

    let snapshot_bytes = engine.snapshot().to_bytes().len();
    let mut checkpoint = Vec::new();
    engine.checkpoint(&mut checkpoint).expect("checkpoint");
    // The recorded size must belong to a payload that actually restores.
    let restored: ShardedEngine<F> =
        ShardedEngine::restore(&mut checkpoint.as_slice()).expect("restore");
    assert_eq!(restored.snapshot(), engine.snapshot());

    Sizes {
        support: engine.support(),
        snapshot_bytes,
        checkpoint_bytes: checkpoint.len(),
        sampler_bits,
    }
}

/// W1 runner.
pub fn w1_snapshot_size(quick: bool) -> Table {
    let mut table = Table::new([
        "factory",
        "p",
        "n",
        "shards",
        "support",
        "snapshot B",
        "checkpoint B",
        "sampler bits",
        "bits / n^(1-2/p)",
    ]);

    // The merge-layer story: snapshot and checkpoint bytes scale with
    // support. LpLe2 keeps the configurations cheap enough to sweep shard
    // counts.
    let l2_universes: &[usize] = if quick {
        &[1 << 10]
    } else {
        &[1 << 10, 1 << 12]
    };
    for &n in l2_universes {
        for shards in [1usize, 4] {
            let config = EngineConfig::new(n).shards(shards).pool_size(2).seed(11);
            let sizes = measure(config, LpLe2Factory::for_universe(n, 2.0), 21 + n as u64);
            push_row(&mut table, "lp-le2", 2.0, n, shards, &sizes);
        }
    }

    // The paper's p > 2 space curve. Attempts scale as n^{1-2/p} ln n, so
    // the spawned sampler is the theorem's word count in the flesh;
    // universes stay small because the *constant* in front (attempts ×
    // per-attempt CountSketch tables, tens of KB each) is laptop-hostile.
    let hi_p_universes: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64] };
    for &p in &[3.0f64, 4.0] {
        for &n in hi_p_universes {
            let config = EngineConfig::new(n).shards(1).pool_size(1).seed(13);
            let sizes = measure(config, PerfectLpFactory::for_universe(n, p), 31 + n as u64);
            push_row(&mut table, "perfect-lp", p, n, 1, &sizes);
        }
    }
    table
}

fn push_row(table: &mut Table, factory: &str, p: f64, n: usize, shards: usize, sizes: &Sizes) {
    let Sizes {
        support,
        snapshot_bytes: snap,
        checkpoint_bytes: ckpt,
        sampler_bits: bits,
    } = *sizes;
    // The space-bound ratio only says something for p > 2 (at p = 2 the
    // exponent degenerates to n^0 and the column would just repeat the
    // absolute size).
    let ratio = if p > 2.0 {
        fmt_sig(bits as f64 / (n as f64).powf(1.0 - 2.0 / p), 3)
    } else {
        "-".to_string()
    };
    println!(
        "  {factory} p={p} n={n} S={shards}: support {support}, snapshot {snap} B, \
         checkpoint {ckpt} B, sampler {bits} bits (ratio {ratio})"
    );
    table.push_row([
        factory.to_string(),
        fmt_sig(p, 2),
        n.to_string(),
        shards.to_string(),
        support.to_string(),
        snap.to_string(),
        ckpt.to_string(),
        bits.to_string(),
        ratio,
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w1_reports_all_configurations() {
        let t = w1_snapshot_size(true);
        // Quick mode: 2 LpLe2 rows (S ∈ {1,4}) + 2 p-values × 2 universes.
        assert_eq!(t.len(), 6);
        let md = t.to_markdown();
        assert!(md.contains("lp-le2"), "{md}");
        assert!(md.contains("perfect-lp"), "{md}");
    }

    #[test]
    fn snapshot_bytes_track_support_not_universe() {
        // Same support, 16× universe: the snapshot payload must stay within
        // a small factor (gap varints grow with index width, not with n).
        let sizes: Vec<usize> = [1usize << 8, 1 << 12]
            .iter()
            .map(|&n| {
                let config = EngineConfig::new(n).shards(2).pool_size(1).seed(3);
                let mut e = ShardedEngine::new(config, LpLe2Factory::for_universe(n, 2.0));
                let updates: Vec<Update> = (0..64u64).map(|i| Update::new(i, 5)).collect();
                e.ingest_batch(&updates);
                e.snapshot().to_bytes().len()
            })
            .collect();
        assert!(
            sizes[1] < sizes[0] * 2,
            "snapshot grew with universe: {sizes:?}"
        );
    }
}
