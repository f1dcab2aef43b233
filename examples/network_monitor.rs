//! Network anomaly detection on the engine: heavy-tailed (p > 2) sampling
//! as an *always-on* service.
//!
//! The scenario from the paper's introduction: a router sees per-source
//! packet counts as a turnstile stream (NAT rebindings and retractions make
//! it a *general* turnstile, not insertion-only). A DDoS source floods the
//! link; because `p > 2` emphasizes dominant coordinates, a handful of
//! perfect L₄ draws finds the attackers with near-certainty.
//!
//! Where the seed version built 16 throwaway one-shot samplers, the engine
//! ingests the traffic **once** and serves all 16 draws from its shard
//! pools — and it answers *mid-stream*, before the attack has even
//! finished, because a query only consumes a pool instance that lazily
//! respawns from compact per-shard state.
//!
//! Run with: `cargo run --release --example network_monitor`
//!
//! Pass `--tenants N` for the wire-v4 multi-tenant variant: N routers'
//! monitors — each with its own attackers and its own traffic — served by
//! ONE `pts-server` process through one connection, each in its own
//! namespace. Ingest and draws are interleaved across tenants, and every
//! tenant's report is checked draw-for-draw against an isolated
//! in-process control monitor: the reports are independent — one
//! router's flood never bleeds into another's sampling law.
//!
//! New in this version: the monitor **crashes** halfway through the attack.
//! Right after the mid-stream probe it checkpoints its complete state to a
//! byte buffer (in production: disk/S3), the engine value is dropped, and a
//! fresh process-equivalent restores from the bytes and keeps serving. A
//! control engine that never crashed runs the identical call sequence, and
//! the example asserts the two reports agree **draw for draw** — crash
//! recovery is invisible, which is the wire format's whole contract.

use perfect_sampling::prelude::*;
use std::collections::HashMap;

/// One tenant's scenario: its own attacker pair and turnstile stream over
/// the shared 96-source universe.
struct Tenant {
    ns: u64,
    attackers: [u64; 2],
    stream: Stream,
}

/// Builds tenant `ns`'s monitor engine — a pure function of the
/// namespace, used by the server's spawner AND for the isolated control
/// monitors, which is what makes the draw-for-draw independence check
/// meaningful.
fn tenant_engine(ns: u64) -> ShardedEngine<PerfectLpFactory> {
    let n = 96;
    ShardedEngine::new(
        EngineConfig::new(n).shards(2).pool_size(2).seed(900 + ns),
        PerfectLpFactory::for_universe(n, 4.0),
    )
}

/// The `--tenants N` mode: N routers monitored by one server process.
fn run_tenants(count: u64) {
    let n = 96u64;
    println!("mode: multi-tenant — {count} routers through one server (wire v4)\n");

    // Each tenant gets its own attackers and its own turnstile stream.
    let tenants: Vec<Tenant> = (1..=count)
        .map(|ns| {
            let a0 = (7 + 17 * ns) % n;
            let mut a1 = (41 + 29 * ns) % n;
            if a1 == a0 {
                a1 = (a1 + 1) % n;
            }
            let mut flows = pts_stream::gen::uniform_vector(n as usize, 40, 100 + ns);
            let mut values = flows.values().to_vec();
            values[a0 as usize] = 2_500;
            values[a1 as usize] = 1_800;
            flows = FrequencyVector::from_values(values);
            let mut rng = pts_util::Xoshiro256pp::new(1000 + ns);
            let stream =
                Stream::from_target(&flows, StreamStyle::Turnstile { churn: 0.5 }, &mut rng);
            Tenant {
                ns,
                attackers: [a0, a1],
                stream,
            }
        })
        .collect();

    // One server hosts every router's monitor; tenants spawn lazily.
    let server = serve_with_spawner("127.0.0.1:0", tenant_engine(0), tenant_engine)
        .expect("bind multi-tenant server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut controls: Vec<ShardedEngine<PerfectLpFactory>> = Vec::new();
    for t in &tenants {
        client
            .submit_create_namespace(t.ns)
            .and_then(Pending::wait)
            .expect("create tenant");
        controls.push(tenant_engine(t.ns));
    }

    // Interleaved ingest: round-robin one batch per tenant per turn, so
    // every tenant's traffic lands with every other tenant's in between.
    let mut chunk_iters: Vec<_> = tenants
        .iter()
        .map(|t| t.stream.updates().chunks(128))
        .collect();
    loop {
        let mut any = false;
        for (k, t) in tenants.iter().enumerate() {
            if let Some(batch) = chunk_iters[k].next() {
                any = true;
                client
                    .submit_ingest_batch_ns(t.ns, batch)
                    .and_then(Pending::wait)
                    .expect("ingest");
                controls[k].ingest_batch(batch);
            }
        }
        if !any {
            break;
        }
    }
    let total: usize = tenants.iter().map(|t| t.stream.len()).sum();
    println!("ingested {total} updates across {count} namespaces, interleaved\n");

    // Interleaved draws: 16 per tenant, each checked draw-for-draw
    // against that tenant's isolated control monitor.
    let draws = 16;
    let mut hits: Vec<HashMap<u64, u32>> = vec![HashMap::new(); tenants.len()];
    let mut fails = vec![0u32; tenants.len()];
    for _ in 0..draws {
        for (k, t) in tenants.iter().enumerate() {
            let shared = client
                .submit_sample_many_ns(t.ns, 1)
                .and_then(Pending::wait)
                .expect("sample")
                .pop()
                .flatten();
            let isolated = controls[k].sample();
            assert_eq!(
                shared, isolated,
                "tenant {} diverged from its isolated control — tenancy leaked",
                t.ns
            );
            match shared {
                Some(s) => *hits[k].entry(s.index).or_default() += 1,
                None => fails[k] += 1,
            }
        }
    }

    // Per-tenant reports: each router catches its OWN attackers.
    let mut caught_total = 0;
    for (k, t) in tenants.iter().enumerate() {
        let caught = t
            .attackers
            .iter()
            .filter(|a| hits[k].get(a).copied().unwrap_or(0) >= 2)
            .count();
        caught_total += caught;
        let top = hits[k]
            .iter()
            .max_by_key(|&(_, c)| *c)
            .map(|(s, c)| format!("top source {s} with {c} hits"))
            .unwrap_or_else(|| "no successful draws".into());
        println!(
            "tenant {}: attackers {:?} — detected {caught}/2 (draws {}/{draws} ok, {}), \
             0 draws diverged from isolated control",
            t.ns,
            t.attackers,
            draws - fails[k],
            top
        );
    }
    println!(
        "\n{caught_total}/{} attackers detected across tenants; every report matched its \
         isolated control draw for draw — per-tenant independence holds",
        2 * tenants.len()
    );

    client
        .submit_shutdown()
        .and_then(Pending::wait)
        .expect("shutdown");
    server.join();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--tenants") {
        let count: u64 = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(3)
            .max(2);
        run_tenants(count);
        return;
    }

    let n = 96; // source universe (hashed /24s, say)
    let seed = 7u64;

    // Background traffic: moderate flows everywhere; two attackers.
    let mut flows = pts_stream::gen::uniform_vector(n, 40, seed);
    let attackers = [37u64, 81u64];
    let mut values = flows.values().to_vec();
    values[attackers[0] as usize] = 2_500;
    values[attackers[1] as usize] = 1_800;
    flows = FrequencyVector::from_values(values);

    let mut rng = pts_util::Xoshiro256pp::new(seed + 1);
    let stream = Stream::from_target(&flows, StreamStyle::Turnstile { churn: 0.5 }, &mut rng);
    println!(
        "traffic stream: {} updates, {} sources, attackers at {:?}",
        stream.len(),
        n,
        attackers
    );

    // Who dominates F4? (Ground truth, for reference.)
    let f4 = flows.fp_moment(4.0);
    let attacker_share: f64 = attackers
        .iter()
        .map(|&a| (flows.value(a).abs() as f64).powf(4.0) / f4)
        .sum();
    println!("attackers hold {:.2}% of F4", attacker_share * 100.0);

    // One engine, perfect L4 law, 2 shards × 2 pooled samplers. The
    // `control` twin runs the identical call sequence without ever
    // crashing, to prove recovery is invisible.
    let config = EngineConfig::new(n).shards(2).pool_size(2).seed(seed);
    let factory = PerfectLpFactory::for_universe(n, 4.0);
    let mut engine = ShardedEngine::new(config, factory);
    let mut control = ShardedEngine::new(config, factory);

    // Ingest the first half of the traffic, then probe MID-STREAM: the
    // engine answers while the attack is still in flight.
    let updates = stream.updates();
    let (first_half, second_half) = updates.split_at(updates.len() / 2);
    for batch in first_half.chunks(128) {
        engine.ingest_batch(batch);
        control.ingest_batch(batch);
    }
    let early = engine.sample();
    let _ = control.sample();
    println!(
        "mid-stream probe after {} updates: {}",
        first_half.len(),
        match early {
            Some(s) => format!("index {} (estimate {:.0})", s.index, s.estimate),
            None => "⊥".to_string(),
        }
    );

    // CRASH. The monitor checkpoints its full state — net vectors, masses,
    // live sampler sketches, RNG positions — and the process "dies"; a
    // replacement restores from the bytes and keeps serving as if nothing
    // happened.
    let mut snapshot_bytes = Vec::new();
    engine.checkpoint(&mut snapshot_bytes).expect("checkpoint");
    drop(engine);
    let mut engine: ShardedEngine<PerfectLpFactory> =
        ShardedEngine::restore(&mut &snapshot_bytes[..]).expect("restore");
    println!(
        "crash + recovery: {} checkpoint bytes restored mid-attack",
        snapshot_bytes.len()
    );

    // Finish the stream, then catch the pools up *before* the query burst.
    for batch in second_half.chunks(128) {
        engine.ingest_batch(batch);
        control.ingest_batch(batch);
    }
    let refilled = engine.prime();
    let _ = control.prime();
    println!("pool catch-up before the burst: {refilled} slot(s) refilled");

    // Draw 16 L4 samples from the recovered engine — each checked against
    // the never-crashed control, draw for draw.
    let draws = 16;
    let mut hits: HashMap<u64, u32> = HashMap::new();
    let mut fails = 0;
    let mut divergences = 0;
    for _ in 0..draws {
        let recovered = engine.sample();
        let uninterrupted = control.sample();
        if recovered != uninterrupted {
            divergences += 1;
        }
        match recovered {
            Some(s) => *hits.entry(s.index).or_default() += 1,
            None => fails += 1,
        }
    }
    assert_eq!(
        divergences, 0,
        "recovered engine diverged from the uninterrupted control"
    );
    println!("recovered vs uninterrupted control: 0/{draws} draws diverged");
    let mut report: Vec<(u64, u32)> = hits.into_iter().collect();
    report.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    println!("\nperfect L4 sampling report ({draws} draws, {fails} ⊥):");
    for (src, count) in &report {
        let flag = if attackers.contains(src) {
            "  << attacker"
        } else {
            ""
        };
        println!("  source {src:>4}: {count:>2} hits{flag}");
    }
    let caught = report
        .iter()
        .filter(|(s, c)| attackers.contains(s) && *c >= 2)
        .count();
    println!(
        "\ndetected {caught}/{} attackers with >=2 hits ({} respawns served the draws)",
        attackers.len(),
        engine.respawns()
    );

    // The reservoir baseline cannot even ingest this stream.
    let mut reservoir = ReservoirSampler::new(seed);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        reservoir.ingest_stream(&stream);
    }));
    match outcome {
        Err(_) => println!(
            "reservoir baseline: panicked on the first deletion — \
             insertion-only samplers cannot monitor turnstile traffic"
        ),
        Ok(()) => println!("reservoir baseline unexpectedly survived (no deletions?)"),
    }
}
