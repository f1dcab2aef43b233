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
/// payload layout — field order, pool counters, snapshot coding — moves
/// one of the two and must come with a `WIRE_VERSION` bump. The engine's
/// pools hold no sampler instance, so its one draw respawned, and the
/// checkpoint carries only each pool's `spawned ‖ cursor` and the net
/// vector.
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
        (80, 0x1e04_44c5_6e14_e9f2),
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

/// A hand-built checkpoint frame in the v6 layout over an L₀ factory:
/// `config`, a fixed RNG, zero stats, the given `spawned ‖ cursor` pairs,
/// then (if given) a snapshot body over `universe` with `entries`
/// gap-coded. The pairs need not match `config.shards`, so a frame can
/// back fewer pools than it claims.
fn hand_built(
    config: EngineConfig,
    counters: &[(u64, u64)],
    snapshot: Option<(u64, &[(u64, i64)])>,
) -> Vec<u8> {
    use pts_engine::EngineStats;
    use pts_util::wire::WireWriter;

    let mut w = WireWriter::new();
    config.encode(&mut w).unwrap();
    L0Factory::default().encode(&mut w).unwrap();
    Xoshiro256pp::new(1).encode(&mut w).unwrap();
    EngineStats::default().encode(&mut w).unwrap();
    for &(spawned, cursor) in counters {
        w.put_u64(spawned);
        w.put_u64(cursor);
    }
    if let Some((universe, entries)) = snapshot {
        w.put_u64(universe);
        w.put_usize(entries.len());
        let mut next = 0;
        for &(i, v) in entries {
            w.put_u64(i - next);
            w.put_i64(v);
            next = i + 1;
        }
    }
    frame(w.as_bytes())
}

fn restore_l0(bytes: &[u8]) -> Result<ShardedEngine<L0Factory>, WireError> {
    ShardedEngine::restore(&mut &bytes[..])
}

/// The checkpoint's net vector is an `EngineSnapshot` body, decoded by the
/// snapshot's own codec: a checksum-valid forgery addressing index 100 in
/// a universe of 4 is refused there (it would otherwise panic later when
/// the snapshot is densified), and a snapshot over another universe than
/// the config's is refused by restore.
#[test]
fn shard_decode_rejects_out_of_universe_net_entries() {
    let config = EngineConfig::new(4).shards(2).pool_size(1).seed(7);
    let pools = [(0, 0), (0, 0)];
    let res = restore_l0(&hand_built(config, &pools, Some((4, &[(100, 5)]))));
    assert!(
        matches!(
            res,
            Err(WireError::Invalid("snapshot entry outside universe"))
        ),
        "got {:?}",
        res.err()
    );
    let res = restore_l0(&hand_built(config, &pools, Some((128, &[(100, 5)]))));
    assert!(
        matches!(res, Err(WireError::Invalid("snapshot universe mismatch"))),
        "got {:?}",
        res.err()
    );
    let restored = restore_l0(&hand_built(config, &pools, Some((4, &[(3, 5)])))).unwrap();
    assert_eq!(restored.snapshot().entries(), &[(3, 5)]);
}

/// A pool's cursor must name one of its `pool_size` slots.
#[test]
fn restore_refuses_a_pool_cursor_outside_the_pool() {
    let config = EngineConfig::new(16).shards(2).pool_size(3).seed(7);
    for (cursor, ok) in [(2, true), (3, false), (u64::MAX, false)] {
        let bytes = hand_built(config, &[(5, 0), (9, cursor)], Some((16, &[])));
        let res = restore_l0(&bytes);
        assert_eq!(res.is_ok(), ok, "cursor {cursor}: {:?}", res.err());
        if let Ok(engine) = res {
            assert_eq!(engine.respawns(), 14, "respawns equal spawns");
        }
    }
}

/// A payload allocates only what its bytes back. A checkpoint with
/// shards = pool_size = 2^16 and no entries (128 KiB of pool counters)
/// restores without allocating a sampler slot, and one that claims those
/// shards but stops after three pools' counters fails on the counters,
/// before any shard is built.
#[test]
fn restore_allocates_only_what_the_payload_backs() {
    let config = EngineConfig::new(16)
        .shards(1 << 16)
        .pool_size(1 << 16)
        .seed(7);
    let pools = vec![(0, 0); 1 << 16];
    let engine = restore_l0(&hand_built(config, &pools, Some((16, &[])))).unwrap();
    assert_eq!((engine.config(), engine.support()), (config, 0));

    let res = restore_l0(&hand_built(config, &pools[..3], None));
    assert!(
        matches!(res, Err(WireError::Truncated)),
        "got {:?}",
        res.err()
    );
}

/// A version-5 checkpoint — the pinned engine above, captured before the
/// layout changed — is refused with the typed version error.
#[test]
fn a_version_5_checkpoint_is_refused() {
    let hex = include_str!("fixtures/checkpoint_v5.hex").trim();
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(bytes.len(), 129);
    assert!(matches!(
        restore_l0(&bytes),
        Err(WireError::BadVersion { got: 5 })
    ));
}

/// The frame around a hand-built payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    pts_util::wire::write_frame(pts_util::wire::KIND_ENGINE, payload, &mut bytes).unwrap();
    bytes
}

/// A checkpoint whose L₂ sketch shape is too large to allocate is refused
/// by `restore` itself, before a draw could build a sampler from it: the
/// shape is capped at 2^24 table cells.
#[test]
fn restore_refuses_an_unallocatable_sketch_shape() {
    let checkpoint = |buckets: usize| {
        let mut factory = LpLe2Factory::for_universe(64, 2.0);
        assert_eq!(factory.params.rows, 7);
        factory.params.buckets = buckets;
        let config = EngineConfig::new(64).shards(2).pool_size(2).seed(8);
        let mut engine = ShardedEngine::new(config, factory);
        engine.ingest_batch(&[Update::new(3, 5), Update::new(40, -2)]);
        let mut bytes = Vec::new();
        engine.checkpoint(&mut bytes).unwrap();
        bytes
    };
    let restore = |bytes: Vec<u8>| ShardedEngine::<LpLe2Factory>::restore(&mut bytes.as_slice());
    for buckets in [1 << 40, (1 << 24) / 7 + 1] {
        assert!(
            matches!(
                restore(checkpoint(buckets)),
                Err(WireError::Invalid("lp-le2 shape"))
            ),
            "buckets {buckets}"
        );
    }
    assert!(restore(checkpoint((1 << 24) / 7)).is_ok());
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
