//! The per-layer ledger: the workload's seeded updates and draws replayed
//! through each layer of the stack in isolation, innermost first, each
//! layer timed from outside through its public functions.
//!
//! Update path (ns per update): sketch → sampler → pool → shard →
//! router + engine → service (frame decode + mutex + engine) → served
//! (loopback server) → cluster (2-node coordinator).
//! Draw path (µs per draw): sampler → pool (respawn + draw) → engine →
//! served → cluster.
//!
//! Each row is reported with its delta over the row before it and its
//! share of the workload's end-to-end row.

use crate::adapter::{Cluster, Conn, Recorder};
use crate::gen::Reference;
use crate::report::Outcome;
use pts_core::PerfectLpSampler;
use pts_engine::{
    EngineConfig, LpLe2Factory, PerfectLpFactory, SamplerFactory, SamplerPool, SamplingService,
    Shard, ShardRouter, ShardedEngine,
};
use pts_obs::MetricsSnapshot;
use pts_samplers::{LpLe2Params, TurnstileSampler};
use pts_sketch::{CountSketch, CountSketchParams, LinearSketch};
use pts_stream::Update;
use pts_util::protocol::Request;
use pts_util::wire::{
    read_frame, write_frame, Decode, Encode, WireReader, WireWriter, KIND_REQUEST,
};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// The universe and moment of the paper's headline sampler as the `draw`
/// workload serves it; every workload replays its updates (folded into
/// this universe) through that sampler for the `core.perfect_lp.*` rows.
pub const PERFECT_LP_UNIVERSE: usize = 64;
pub const PERFECT_LP_P: f64 = 3.0;

/// What one workload feeds the ledger.
pub struct Input<'a, F> {
    pub factory: F,
    pub config: EngineConfig,
    /// The seeded update sequence, replayed in `batch_len` batches.
    pub updates: &'a [Update],
    pub batch_len: usize,
    /// Engine, served and cluster draws to time.
    pub draws: usize,
    /// Fresh instances to time for the sampler and pool draw rows.
    pub instances: usize,
    /// Which row is the workload's end-to-end cost: `served` or `cluster`.
    pub end_row: &'static str,
}

fn ns_per(t: Instant, ops: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Encodes one request envelope (`id ‖ namespace ‖ untraced ‖ body`)
/// with the wire's `Encode` and `write_frame`.
pub fn encode_request(id: u64, ns: u64, req: &Request, sink: &mut Vec<u8>) {
    let mut w = WireWriter::new();
    w.put_u64(id);
    w.put_u64(ns);
    w.put_u64(0);
    req.encode(&mut w).expect("requests encode");
    write_frame(KIND_REQUEST, w.as_bytes(), sink).expect("writing to a Vec cannot fail");
}

/// Decodes one envelope written by [`encode_request`].
pub fn decode_request(src: &mut &[u8]) -> (u64, u64, Request) {
    let payload = read_frame(KIND_REQUEST, src).expect("own frame decodes");
    let mut r = WireReader::new(&payload);
    let id = r.get_u64().expect("request id");
    let ns = r.get_u64().expect("namespace");
    assert_eq!(r.get_u64().expect("trace marker"), 0, "untraced envelope");
    let req = Request::decode(&mut r).expect("request body");
    r.finish().expect("no trailing bytes");
    (id, ns, req)
}

fn to_pairs(batch: &[Update]) -> Vec<(u64, i64)> {
    batch.iter().map(|u| (u.index, u.delta)).collect()
}

fn net_of(r: &Reference) -> BTreeMap<u64, i64> {
    r.x.iter()
        .enumerate()
        .filter(|(_, &v)| v != 0)
        .map(|(i, &v)| (i as u64, v))
        .collect()
}

/// Replays `input` through every layer; pushes the named per-layer
/// metrics, the two ledger tables and their delta/share metrics.
pub fn run<F>(out: &mut Outcome, input: Input<'_, F>) -> Served
where
    F: SamplerFactory + Encode + Decode + Send + 'static,
    F::Sampler: Encode + Decode + Send + 'static,
{
    let Input {
        factory,
        config,
        updates,
        batch_len,
        draws,
        instances,
        end_row,
    } = input;
    let n = config.universe;
    let seed = config.seed;
    let batches: Vec<&[Update]> = updates.chunks(batch_len).collect();
    let mut reference = Reference::new(n);
    reference.apply(updates);
    let net = net_of(&reference);
    let mut up: Vec<(&'static str, f64)> = Vec::new();
    let mut dr: Vec<(&'static str, f64)> = Vec::new();
    let per_input = |total: u128| total as f64 / updates.len() as f64;

    // Below the router every layer sees each batch sorted and coalesced;
    // the inner rows replay exactly that. Their named metrics are per
    // call, their ledger rows per generated update.
    let one = ShardRouter::new(1, seed);
    let mut plan1 = vec![Vec::new()];
    let mut coalesced = Vec::with_capacity(updates.len());
    for b in &batches {
        one.plan_batch(b, &mut plan1);
        coalesced.extend_from_slice(&plan1[0]);
    }
    let calls = coalesced.len();

    // Sketch: one CountSketch shaped like the L2 sampler's.
    let lp = LpLe2Params::for_universe(n, 2.0);
    let mut cs = CountSketch::new(
        CountSketchParams {
            rows: lp.rows,
            buckets: lp.buckets,
        },
        seed,
    );
    let t = Instant::now();
    for u in &coalesced {
        cs.update(u.index, u.delta as f64);
    }
    black_box(&cs);
    let total = t.elapsed().as_nanos();
    out.push(
        "sketch.countsketch.update_ns",
        total as f64 / calls as f64,
        "ns",
    );
    up.push(("sketch", per_input(total)));

    // Sampler: the perfect L2 sampler at this universe, then the
    // workload's own sampler.
    let mut l2 = LpLe2Factory::for_universe(n, 2.0).build(n, seed);
    let t = Instant::now();
    for &u in &coalesced {
        l2.process(u);
    }
    black_box(&l2);
    out.push("samplers.lple2.process_ns", ns_per(t, calls), "ns");
    let mut own = factory.build(n, seed);
    let t = Instant::now();
    for &u in &coalesced {
        own.process(u);
    }
    black_box(&own);
    up.push(("sampler", per_input(t.elapsed().as_nanos())));
    perfect_lp(out, updates, seed);

    // Pool: k live instances.
    let mut pool: SamplerPool<F::Sampler> = SamplerPool::new(config.pool_size, seed);
    pool.prime(&factory, n, &BTreeMap::new());
    let t = Instant::now();
    for &u in &coalesced {
        pool.process_live(u);
    }
    black_box(&pool);
    let total = t.elapsed().as_nanos();
    out.push(
        "engine.pool.process_live_ns",
        total as f64 / calls as f64,
        "ns",
    );
    up.push(("pool", per_input(total)));

    // Shard: single-shard plan + apply_run.
    let mut shard = Shard::new(factory.clone(), n, config.pool_size, seed);
    let (mut plan_ns, mut apply_ns) = (0u128, 0u128);
    for b in &batches {
        let t = Instant::now();
        one.plan_batch(b, &mut plan1);
        plan_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        shard.apply_run(&plan1[0]);
        apply_ns += t.elapsed().as_nanos();
    }
    black_box(&shard);
    out.push("engine.shard.apply_ns", per_input(apply_ns), "ns");
    up.push(("shard", per_input(plan_ns + apply_ns)));

    // Router at the workload's shard count.
    let router = ShardRouter::new(config.shards, seed);
    let mut plan: Vec<Vec<Update>> = (0..config.shards).map(|_| Vec::new()).collect();
    let (mut ns_total, mut kept) = (0u128, 0usize);
    for b in &batches {
        let t = Instant::now();
        router.plan_batch(b, &mut plan);
        ns_total += t.elapsed().as_nanos();
        kept += plan.iter().map(Vec::len).sum::<usize>();
    }
    out.push(
        "engine.router.plan_ns",
        ns_total as f64 / updates.len() as f64,
        "ns",
    );
    out.push(
        "engine.router.coalesce_ratio",
        kept as f64 / updates.len() as f64,
        "ratio",
    );

    // Engine: routed, coalesced, applied.
    let mut engine = ShardedEngine::new(config, factory.clone());
    let t = Instant::now();
    for b in &batches {
        engine.ingest_batch(b);
    }
    let v = ns_per(t, updates.len());
    out.push("engine.ingest_ns", v, "ns");
    up.push(("engine", v));

    // Protocol: the same batches as request frames.
    let mut frames = Vec::new();
    let t = Instant::now();
    for (i, b) in batches.iter().enumerate() {
        encode_request(
            i as u64 + 1,
            0,
            &Request::IngestBatch(to_pairs(b)),
            &mut frames,
        );
    }
    out.push("protocol.encode_ns", ns_per(t, batches.len()), "ns");
    out.push(
        "protocol.bytes_per_request",
        frames.len() as f64 / batches.len() as f64,
        "bytes",
    );
    let mut src = &frames[..];
    let t = Instant::now();
    for _ in &batches {
        black_box(decode_request(&mut src));
    }
    out.push("protocol.decode_ns", ns_per(t, batches.len()), "ns");

    // Service: decode + engine behind a mutex, no socket.
    let service = Mutex::new(ShardedEngine::new(config, factory.clone()));
    let mut src = &frames[..];
    let t = Instant::now();
    for _ in &batches {
        let (_, _, req) = decode_request(&mut src);
        if let Request::IngestBatch(pairs) = req {
            let batch: Vec<Update> = pairs.into_iter().map(|(i, d)| Update::new(i, d)).collect();
            let mut guard = service.lock().expect("service mutex poisoned");
            SamplingService::ingest_batch(&mut *guard, &batch);
        }
    }
    up.push(("service", ns_per(t, updates.len())));

    // Draw path, innermost first. A draw respawns from one shard's
    // slice of the net vector, so the inner rows replay such a slice.
    let slice: BTreeMap<u64, i64> = net
        .iter()
        .filter(|(&i, _)| router.shard_of(i) == 0)
        .map(|(&i, &v)| (i, v))
        .collect();
    let mut sample_ns = 0u128;
    for r in 0..instances {
        let mut s = factory.build(n, seed ^ (r as u64 + 1));
        for (&i, &v) in &slice {
            s.process(Update::new(i, v));
        }
        let t = Instant::now();
        black_box(s.sample());
        sample_ns += t.elapsed().as_nanos();
    }
    dr.push(("sampler", sample_ns as f64 / instances as f64 / 1e3));
    let (mut respawn_ns, mut respawned, mut pool_draw_ns) = (0u128, 0usize, 0u128);
    for r in 0..instances {
        let mut p: SamplerPool<F::Sampler> = SamplerPool::new(config.pool_size, seed ^ r as u64);
        let t = Instant::now();
        respawned += p.refill(&factory, n, &slice);
        respawn_ns += t.elapsed().as_nanos();
        let mut p: SamplerPool<F::Sampler> = SamplerPool::new(config.pool_size, seed ^ r as u64);
        let t = Instant::now();
        black_box(p.draw(&factory, n, &slice));
        pool_draw_ns += t.elapsed().as_nanos();
    }
    out.push(
        "engine.pool.respawn_us",
        respawn_ns as f64 / respawned.max(1) as f64 / 1e3,
        "us",
    );
    out.push("engine.pool.replay_len", slice.len() as f64, "entries");
    dr.push(("pool", pool_draw_ns as f64 / instances as f64 / 1e3));
    let respawns0 = engine.respawns();
    let t = Instant::now();
    for _ in 0..draws {
        black_box(engine.sample());
    }
    let v = ns_per(t, draws) / 1e3;
    out.push("engine.draw_us", v, "us");
    out.push(
        "engine.pool.respawns_per_draw",
        (engine.respawns() - respawns0) as f64 / draws as f64,
        "count",
    );
    dr.push(("engine", v));

    // Served: one loopback server, one connection.
    let server = pts_server::serve("127.0.0.1:0", ShardedEngine::new(config, factory.clone()))
        .expect("bind loopback server");
    let mut conn = Conn::connect(server.local_addr(), 16, 0).expect("connect");
    let mut rec = Recorder::new(true, Instant::now());
    let before = pts_obs::registry().snapshot();
    let mut window = VecDeque::new();
    let t = Instant::now();
    for b in &batches {
        window.push_back(conn.ingest(&mut rec, 0, b).expect("submit ingest"));
        if window.len() == 16 {
            let r = window.pop_front().expect("non-empty window");
            r.wait(&mut rec).expect("ingest ack");
        }
    }
    for r in window {
        r.wait(&mut rec).expect("ingest ack");
    }
    up.push(("served", ns_per(t, updates.len())));
    let t = Instant::now();
    for _ in 0..draws {
        let r = conn.sample(&mut rec, 0).expect("submit sample");
        black_box(r.wait(&mut rec).expect("sample answer"));
    }
    dr.push(("served", ns_per(t, draws) / 1e3));
    let served = Served {
        submit_us: rec.mean_us("client.submit"),
        wait_us: rec.mean_us("client.wait"),
        before,
        after: pts_obs::registry().snapshot(),
    };
    drop(conn);
    server.join();

    // Cluster: a coordinator over two loopback nodes.
    let nodes: Vec<_> = (0..2)
        .map(|i| {
            let c = config.seed(seed ^ (0xC0 + i));
            pts_server::serve("127.0.0.1:0", ShardedEngine::new(c, factory.clone()))
                .expect("bind node")
        })
        .collect();
    let addrs: Vec<_> = nodes.iter().map(|s| s.local_addr()).collect();
    let mut cluster = Cluster::connect(n, &addrs, seed).expect("connect cluster");
    let mut rec = Recorder::new(true, Instant::now());
    for b in &batches {
        cluster.ingest(&mut rec, b).expect("cluster ingest");
    }
    for _ in 0..draws {
        black_box(cluster.sample(&mut rec).expect("cluster draw"));
        black_box(cluster.mass(&mut rec).expect("mass scatter"));
    }
    let ingest_us = rec.mean_us("cluster.ingest");
    out.push("cluster.ingest_us", ingest_us, "us");
    out.push("cluster.scatter_us", rec.mean_us("cluster.scatter"), "us");
    out.push("cluster.sample_us", rec.mean_us("cluster.sample"), "us");
    up.push((
        "cluster",
        ingest_us * 1e3 * batches.len() as f64 / updates.len() as f64,
    ));
    dr.push(("cluster", rec.mean_us("cluster.sample")));
    drop(cluster);
    for s in nodes {
        s.join();
    }

    table(out, "update", "ns", &up, end_row);
    table(out, "draw", "us", &dr, end_row);
    served
}

/// The client and server split observed around the served replay.
pub struct Served {
    pub submit_us: f64,
    pub wait_us: f64,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

/// The paper's headline sampler at the `draw` workload's shape, on this
/// workload's updates folded into its universe.
fn perfect_lp(out: &mut Outcome, updates: &[Update], seed: u64) {
    const REPLAY: usize = 512;
    const INSTANCES: usize = 4;
    let n = PERFECT_LP_UNIVERSE;
    let factory = PerfectLpFactory::for_universe(n, PERFECT_LP_P);
    let folded: Vec<Update> = updates
        .iter()
        .take(REPLAY)
        .map(|u| Update::new(u.index % n as u64, u.delta))
        .collect();
    let mut reference = Reference::new(n);
    reference.apply(&folded);
    let net = net_of(&reference);

    let (mut build_ns, mut sample_ns) = (0u128, 0u128);
    for r in 0..INSTANCES {
        let t = Instant::now();
        let mut s: PerfectLpSampler = factory.build(n, seed ^ (r as u64 + 7));
        build_ns += t.elapsed().as_nanos();
        for (&i, &v) in &net {
            s.process(Update::new(i, v));
        }
        let t = Instant::now();
        black_box(s.sample());
        sample_ns += t.elapsed().as_nanos();
    }
    out.push(
        "core.perfect_lp.build_us",
        build_ns as f64 / INSTANCES as f64 / 1e3,
        "us",
    );
    out.push(
        "core.perfect_lp.sample_us",
        sample_ns as f64 / INSTANCES as f64 / 1e3,
        "us",
    );
    let mut s = factory.build(n, seed);
    let t = Instant::now();
    for &u in &folded {
        s.process(u);
    }
    black_box(&s);
    out.push("core.perfect_lp.process_ns", ns_per(t, folded.len()), "ns");
}

/// Prints one ledger and pushes each row's delta and share.
fn table(out: &mut Outcome, path: &str, unit: &'static str, rows: &[(&str, f64)], end_row: &str) {
    let end = rows
        .iter()
        .find(|(name, _)| *name == end_row)
        .map_or(0.0, |r| r.1);
    out.notes.push(format!(
        "ledger ({path} path, {unit}/op; share of {end_row})"
    ));
    out.notes.push(format!(
        "  {:<8} {:>14} {:>14} {:>8}",
        "layer", "cost", "delta", "share"
    ));
    let mut prev = 0.0;
    for &(name, v) in rows {
        let share = if end > 0.0 { v / end } else { 0.0 };
        out.notes.push(format!(
            "  {name:<8} {v:>14.3} {:>14.3} {:>7.1}%",
            v - prev,
            share * 100.0
        ));
        out.push(format!("ledger.{path}.{name}.delta_{unit}"), v - prev, unit);
        out.push(format!("ledger.{path}.{name}.share"), share, "ratio");
        prev = v;
    }
}
