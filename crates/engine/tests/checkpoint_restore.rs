//! The durable-snapshot contract: `checkpoint → restore` yields an engine
//! **bit-identical going forward** — the same subsequent call sequence
//! produces the same draws, the same masses, the same snapshots, and the
//! same stats as the uninterrupted original. Every draw is compared,
//! across S ∈ {1, 4}, and a golden test pins the checkpoint bytes.
//!
//! The second half is the adversarial-input contract: truncations at every
//! prefix, a bumped version byte, flipped payload bytes, and a
//! wrong-factory restore all return `WireError` — never a panic.

use pts_engine::{
    EngineConfig, L0Factory, LogGFactory, LpLe2Factory, SamplerFactory, ShardedEngine,
};
use pts_stream::{Stream, StreamStyle, Update};
use pts_util::wire::{Decode, WireError, WIRE_VERSION};
use pts_util::{Encode, Xoshiro256pp};

/// The shared scripted workload: ingest in small batches with draw bursts
/// interleaved, split at a mid-stream checkpoint instant.
fn workload(n: usize, seed: u64) -> (Vec<Update>, Vec<Update>) {
    let x = pts_stream::gen::zipf_vector(n, 1.1, 100, seed);
    let mut rng = Xoshiro256pp::new(seed ^ 0xBEEF);
    let stream = Stream::from_target(&x, StreamStyle::Turnstile { churn: 0.8 }, &mut rng);
    let updates = stream.updates().to_vec();
    let mid = updates.len() / 2;
    let (a, b) = updates.split_at(mid);
    (a.to_vec(), b.to_vec())
}

/// Drives the second half of the call sequence on both engines, asserting
/// every observable agrees.
fn drive_identically<F>(
    original: &mut ShardedEngine<F>,
    restored: &mut ShardedEngine<F>,
    second_half: &[Update],
) where
    F: SamplerFactory,
{
    for (round, chunk) in second_half.chunks(23).enumerate() {
        original.ingest_batch(chunk);
        restored.ingest_batch(chunk);
        if round % 2 == 0 {
            for d in 0..3 {
                assert_eq!(
                    original.sample(),
                    restored.sample(),
                    "draw diverged at round {round} draw {d}"
                );
                assert_eq!(
                    original.mass().to_bits(),
                    restored.mass().to_bits(),
                    "mass diverged at {round}"
                );
            }
        }
    }
    // Tail burst past pool capacity: the restored engine must walk the
    // identical lazy-respawn seed stream.
    for d in 0..16 {
        assert_eq!(
            original.sample(),
            restored.sample(),
            "tail draw {d} diverged"
        );
    }
}

/// Checkpoint a `ShardedEngine` mid-stream, restore it, and require the
/// restored engine to be indistinguishable from the original thereafter.
fn sharded_roundtrip<F>(config: EngineConfig, factory: F, seed: u64)
where
    F: SamplerFactory + Encode + Decode,
    F::Sampler: Encode + Decode,
{
    let (first, second) = workload(config.universe, seed);
    let mut engine = ShardedEngine::new(config, factory);
    for chunk in first.chunks(31) {
        engine.ingest_batch(chunk);
    }
    // Consume some pool instances pre-checkpoint so slot/cursor/respawn
    // state is non-trivial in the payload.
    for _ in 0..3 {
        let _ = engine.sample();
    }

    let mut bytes = Vec::new();
    engine.checkpoint(&mut bytes).expect("checkpoint");
    let mut restored: ShardedEngine<F> = ShardedEngine::restore(&mut bytes.as_slice()).unwrap();

    assert_eq!(restored.config(), engine.config());
    assert_eq!(restored.stats(), engine.stats());
    assert_eq!(restored.snapshot(), engine.snapshot());
    assert_eq!(restored.mass().to_bits(), engine.mass().to_bits());
    assert_eq!(restored.support(), engine.support());

    drive_identically(&mut engine, &mut restored, &second);
    assert_eq!(restored.snapshot(), engine.snapshot());
    assert_eq!(restored.stats(), engine.stats());
    assert_eq!(restored.respawns(), engine.respawns());
}

#[test]
fn sharded_restore_is_bit_identical_l0() {
    for shards in [1usize, 4] {
        let config = EngineConfig::new(96)
            .shards(shards)
            .pool_size(2)
            .seed(300 + shards as u64);
        sharded_roundtrip(config, L0Factory::default(), 40 + shards as u64);
    }
}

#[test]
fn sharded_restore_is_bit_identical_l2() {
    for shards in [1usize, 4] {
        let config = EngineConfig::new(64)
            .shards(shards)
            .pool_size(3)
            .seed(500 + shards as u64);
        sharded_roundtrip(config, LpLe2Factory::for_universe(64, 2.0), 50);
    }
}

#[test]
fn sharded_restore_is_bit_identical_log_g() {
    let config = EngineConfig::new(64).shards(4).pool_size(2).seed(77);
    sharded_roundtrip(
        config,
        LogGFactory {
            stream_bound_m: 10_000,
        },
        60,
    );
}

/// Golden pin on the checkpoint bytes themselves: a tiny fixed engine must
/// serialize to exactly this length and FNV-1a digest. Any change to the
/// payload layout — field order, shard framing, pool encoding — moves one
/// of the two and must come with a `WIRE_VERSION` bump.
#[test]
fn checkpoint_bytes_are_pinned() {
    let mut e = ShardedEngine::new(
        EngineConfig::new(16).shards(2).pool_size(1).seed(2024),
        L0Factory::default(),
    );
    e.ingest_batch(&[
        Update::new(1, 4),
        Update::new(6, -3),
        Update::new(11, 7),
        Update::new(6, 1),
        Update::new(15, -2),
    ]);
    let _ = e.sample();
    let mut bytes = Vec::new();
    e.checkpoint(&mut bytes).unwrap();
    let digest = pts_util::wire::fnv1a64(&bytes);
    assert_eq!(
        (bytes.len(), digest),
        (19_679, 0xfa83_5c6d_725b_d299),
        "checkpoint bytes moved: len {} digest {digest:#018x}",
        bytes.len()
    );
}

#[test]
fn snapshot_wire_bytes_roundtrip_and_reject_corruption() {
    let mut e = ShardedEngine::new(
        EngineConfig::new(128).shards(4).pool_size(2).seed(1),
        L0Factory::default(),
    );
    let updates: Vec<Update> = (0..64).map(|i| Update::new(i * 2, 1 + i as i64)).collect();
    e.ingest_batch(&updates);
    let snap = e.snapshot();
    let bytes = snap.to_bytes();
    assert_eq!(
        pts_engine::EngineSnapshot::from_bytes(&bytes).unwrap(),
        snap
    );
    for cut in 0..bytes.len() {
        assert!(
            pts_engine::EngineSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "snapshot truncation at {cut} decoded"
        );
    }
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x08;
        assert!(
            pts_engine::EngineSnapshot::from_bytes(&corrupt).is_err(),
            "snapshot corruption at {i} decoded"
        );
    }
}

#[test]
fn shard_decode_rejects_out_of_universe_net_entries() {
    use pts_engine::{SamplerPool, Shard};
    use pts_samplers::PerfectL0Sampler;
    use pts_util::wire::WireWriter;

    // Hand-build a shard payload whose net vector addresses index 100 in a
    // universe of 4: a checksum-valid forgery of this shape must be caught
    // by decode itself (it would otherwise panic later when the snapshot is
    // densified).
    let mut w = WireWriter::new();
    L0Factory::default().encode(&mut w).unwrap();
    w.put_u64(4); // universe
    w.put_f64(1.0); // mass
    w.put_u64(1); // one net entry
    w.put_u64(100); // index 100 >= universe
    w.put_i64(5);
    SamplerPool::<PerfectL0Sampler>::new(1, 7)
        .encode(&mut w)
        .unwrap();
    let res = <Shard<L0Factory> as Decode>::from_wire_bytes(w.as_bytes());
    assert!(
        matches!(res, Err(WireError::Invalid("net entry outside universe"))),
        "got {res:?}"
    );
}

#[test]
fn malformed_checkpoints_error_never_panic() {
    let mut e = ShardedEngine::new(
        EngineConfig::new(64).shards(2).pool_size(2).seed(9),
        L0Factory::default(),
    );
    e.ingest_batch(&[Update::new(3, 5), Update::new(40, -2)]);
    let mut bytes = Vec::new();
    e.checkpoint(&mut bytes).unwrap();

    // Truncation at every prefix length.
    for cut in 0..bytes.len() {
        let res: Result<ShardedEngine<L0Factory>, _> =
            ShardedEngine::restore(&mut bytes[..cut].as_ref());
        assert!(res.is_err(), "truncation at {cut} restored");
    }
    // Version bump.
    let mut bumped = bytes.clone();
    bumped[4] = WIRE_VERSION + 1;
    assert!(matches!(
        ShardedEngine::<L0Factory>::restore(&mut bumped.as_slice()),
        Err(WireError::BadVersion { .. })
    ));
    // Checksum catches payload corruption (sample every 7th byte for
    // speed; the frame checksum covers all of them identically).
    for i in (6..bytes.len()).step_by(7) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x20;
        assert!(
            ShardedEngine::<L0Factory>::restore(&mut corrupt.as_slice()).is_err(),
            "corruption at {i} restored"
        );
    }
    // Wrong factory type: an L0 checkpoint refuses to restore as LpLe2.
    assert!(matches!(
        ShardedEngine::<LpLe2Factory>::restore(&mut bytes.as_slice()),
        Err(WireError::Invalid(_))
    ));
}
