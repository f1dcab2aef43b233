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
/// payload layout — field order, shard framing, pool encoding — moves one
/// of the two and must come with a `WIRE_VERSION` bump. The engine's pools
/// are born empty, so this checkpoint carries no sampler instance: its one
/// draw respawned, and its slots encode as empty.
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
        (129, 0x94ac_1152_96d5_0e77),
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

/// The stored mass field is kept only for the layout: whatever it holds,
/// the decoded shard's mass is recomputed from its entries.
#[test]
fn shard_decode_recomputes_the_stored_mass() {
    use pts_engine::{SamplerPool, Shard};
    use pts_samplers::PerfectL0Sampler;
    use pts_util::wire::WireWriter;

    // A shard payload with one net entry and the given raw mass bits.
    let payload = |mass: f64| {
        let mut w = WireWriter::new();
        L0Factory::default().encode(&mut w).unwrap();
        w.put_u64(4); // universe
        w.put_f64(mass);
        w.put_u64(1); // one net entry
        w.put_u64(2);
        w.put_i64(5);
        SamplerPool::<PerfectL0Sampler>::new(1, 7)
            .encode(&mut w)
            .unwrap();
        w.as_bytes().to_vec()
    };
    for mass in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-15, 0.0, 7.0] {
        let shard = <Shard<L0Factory> as Decode>::from_wire_bytes(&payload(mass))
            .unwrap_or_else(|e| panic!("mass {mass}: {e:?}"));
        assert_eq!(shard.support(), 1);
        assert_eq!(shard.mass(), 1.0, "stored mass {mass}");
    }
}

/// The payload of an engine's checkpoint frame, and the frame around an
/// edited payload.
fn payload_of(bytes: &[u8]) -> Vec<u8> {
    pts_util::wire::read_frame(pts_util::wire::KIND_ENGINE, &mut &bytes[..]).unwrap()
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    pts_util::wire::write_frame(pts_util::wire::KIND_ENGINE, payload, &mut bytes).unwrap();
    bytes
}

/// A checkpoint whose stored mass disagrees with its entries restores to
/// the mass of the entries, and checkpoints back to the honest bytes.
#[test]
fn restore_recomputes_a_stored_mass_that_disagrees_with_the_entries() {
    let config = EngineConfig::new(32).shards(1).pool_size(2).seed(5);
    let mut engine = ShardedEngine::new(config, LpLe2Factory::for_universe(32, 2.0));
    engine.ingest_batch(&[Update::new(3, 5), Update::new(9, -2), Update::new(20, 4)]);
    assert_eq!(engine.mass(), 45.0);
    let mut honest = Vec::new();
    engine.checkpoint(&mut honest).unwrap();
    let payload = payload_of(&honest);
    let mass_bits = 45.0f64.to_bits().to_le_bytes();
    let at: Vec<usize> = (0..payload.len() - 7)
        .filter(|&i| payload[i..i + 8] == mass_bits)
        .collect();
    assert_eq!(at.len(), 1, "the stored mass appears once");
    for stored in [0.0, 1.0, -45.0, 1e300, f64::NAN, f64::INFINITY] {
        let mut forged = payload.clone();
        forged[at[0]..at[0] + 8].copy_from_slice(&stored.to_bits().to_le_bytes());
        let restored =
            ShardedEngine::<LpLe2Factory>::restore(&mut frame(&forged).as_slice()).unwrap();
        assert_eq!(restored.mass(), 45.0, "stored mass {stored}");
        let mut again = Vec::new();
        restored.checkpoint(&mut again).unwrap();
        assert_eq!(again, honest, "stored mass {stored}");
    }
}

/// A set slot bit marks a live sampler instance, which no checkpoint path
/// writes any more: restore refuses it with a typed error, and a service
/// asked to restore it keeps its state.
#[test]
fn restore_refuses_a_live_pool_slot() {
    use pts_engine::SamplingService;

    let config = EngineConfig::new(32).shards(2).pool_size(2).seed(6);
    let mut engine = ShardedEngine::new(config, L0Factory::default());
    engine.ingest_batch(&[Update::new(3, 5), Update::new(17, -2)]);
    let _ = engine.sample();
    let mut bytes = Vec::new();
    engine.checkpoint(&mut bytes).unwrap();
    // The payload ends with the last shard's last slot bit.
    let mut payload = payload_of(&bytes);
    assert_eq!(payload.last(), Some(&0));
    *payload.last_mut().unwrap() = 1;
    let live = frame(&payload);
    assert!(matches!(
        ShardedEngine::<L0Factory>::restore(&mut live.as_slice()),
        Err(WireError::Invalid("live pool slot"))
    ));

    let mut service = engine.clone();
    assert!(service.restore_bytes(&live).is_err());
    assert_eq!(service.snapshot(), engine.snapshot());
    assert_eq!(service.stats(), engine.stats());
    assert_eq!(service.checkpoint_bytes().unwrap(), bytes);
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

/// A checksum-valid checkpoint whose net entry sits on a shard the router
/// does not send its index to must not restore: no later update could
/// cancel the entry, and the snapshot would list the index twice.
#[test]
fn restore_rejects_misrouted_net_entry() {
    use pts_engine::{EngineStats, Shard};
    use pts_util::wire::{write_frame, WireWriter, KIND_ENGINE};

    let config = EngineConfig::new(16).shards(2).pool_size(1).seed(4);
    // A two-shard checkpoint whose shards hold the given net entries.
    let checkpoint = |placement: [&[Update]; 2]| {
        let mut w = WireWriter::new();
        config.encode(&mut w).unwrap();
        L0Factory::default().encode(&mut w).unwrap();
        Xoshiro256pp::new(1).encode(&mut w).unwrap();
        EngineStats::default().encode(&mut w).unwrap();
        for (s, run) in placement.into_iter().enumerate() {
            let mut shard = Shard::new(L0Factory::default(), 16, 1, s as u64);
            shard.apply_run(run);
            shard.encode(&mut w).unwrap();
        }
        let mut bytes = Vec::new();
        write_frame(KIND_ENGINE, w.as_bytes(), &mut bytes).unwrap();
        bytes
    };
    let restore = |bytes: Vec<u8>| ShardedEngine::<L0Factory>::restore(&mut bytes.as_slice());

    // Index 2 on exactly one shard: the router's shard restores, the other
    // one is refused.
    let entry = [Update::new(2, 3)];
    let on_shard = |s: usize| {
        let mut placement: [&[Update]; 2] = [&[], &[]];
        placement[s] = &entry;
        restore(checkpoint(placement))
    };
    let (on_0, on_1) = (on_shard(0), on_shard(1));
    assert!(
        on_0.is_ok() != on_1.is_ok(),
        "exactly one shard owns index 2: {:?} / {:?}",
        on_0.as_ref().err(),
        on_1.as_ref().err()
    );
    let owned = on_0.or(on_1).unwrap();
    assert_eq!(owned.snapshot().entries(), &[(2, 3)]);

    // Index 2 on both shards: whichever shard the router picks, the other
    // copy is misrouted.
    let res = restore(checkpoint([&[Update::new(2, 5)], &entry]));
    assert!(
        matches!(res, Err(WireError::Invalid("net entry on the wrong shard"))),
        "got {:?}",
        res.map(|e| e.snapshot())
    );
}

/// Every shard carries its own factory copy, and restore refuses one that
/// differs from the engine header's: a p = 4 shard under a p = 3 header
/// would weigh its entry of value 2 as 16, while `factory()` reports
/// p = 3, whose weight is 8.
#[test]
fn restore_refuses_a_shard_whose_factory_differs_from_the_engine_header() {
    use pts_engine::{EngineStats, PerfectLpFactory, Shard};
    use pts_util::wire::{write_frame, WireWriter, KIND_ENGINE};

    let config = EngineConfig::new(16).shards(1).pool_size(1).seed(4);
    let header = PerfectLpFactory::for_universe(16, 3.0);
    let checkpoint = |shard_p: f64| {
        let mut w = WireWriter::new();
        config.encode(&mut w).unwrap();
        header.encode(&mut w).unwrap();
        Xoshiro256pp::new(1).encode(&mut w).unwrap();
        EngineStats::default().encode(&mut w).unwrap();
        let mut shard = Shard::new(PerfectLpFactory::for_universe(16, shard_p), 16, 1, 0);
        shard.apply_run(&[Update::new(2, 2)]);
        shard.encode(&mut w).unwrap();
        let mut bytes = Vec::new();
        write_frame(KIND_ENGINE, w.as_bytes(), &mut bytes).unwrap();
        bytes
    };
    let restore =
        |bytes: Vec<u8>| ShardedEngine::<PerfectLpFactory>::restore(&mut bytes.as_slice());

    let same = restore(checkpoint(3.0)).unwrap();
    assert_eq!(same.factory().params.p, 3.0);
    assert_eq!(same.mass(), 8.0);
    assert!(matches!(
        restore(checkpoint(4.0)),
        Err(WireError::Invalid("shard factory mismatch"))
    ));
}
