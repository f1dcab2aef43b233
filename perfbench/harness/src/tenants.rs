//! `tenants`: the request path with tiny engines.
//!
//! One spawner server hosts 10⁴ tenants, each a `ShardedEngine<L0Factory>`
//! (n = 64), created during set-up. Two connections carry a
//! zipf-over-tenants mix: mostly 8-update `IngestBatch`, plus `Sample`,
//! `Stats` and a small share of `Checkpoint`. A closed-loop capacity phase
//! (depth 16 per connection) is followed by an open-loop phase at a fixed
//! rate, each request timed from when it was due.
//!
//! Each connection owns the tenants of one parity, so the per-connection
//! FIFO makes every answer exactly predictable: draws must return exact
//! values, stats and checkpoints must match the generator's reference.

use crate::adapter::{Conn, Recorder, Req};
use crate::gen::{small_batch, Reference, Rng, ZipfIds};
use crate::report::{mean, server_stages, EndToEnd, Outcome, Timeline};
use crate::{ledger, push_overhead, push_setup, timed, Ctx};
use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
use pts_samplers::Sample;
use pts_server::{ClientError, Server};
use pts_stream::Update;
use pts_util::protocol::ServiceStats;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const UNIVERSE: usize = 64;
const BATCH: usize = 8;
const DEPTH: usize = 16;
/// Zipf exponent of the tenant popularity: the exponent of the key
/// frequencies in the `s1`/`n1`/`c1` experiments, carried over to tenants
/// for want of a measured tenant trace.
const ZIPF_S: f64 = 1.0;
/// Share of the measured seconds spent in the closed-loop capacity phase.
const CAPACITY_SHARE: f64 = 0.4;
/// The open-loop rate over both connections, fixed once at about half
/// the capacity measured on a 2-core machine (0.43 of a median 46 400
/// requests/s over five seeds), then frozen.
pub const OPEN_LOOP_RATE: f64 = 20_000.0;
/// Request mix: cumulative shares of ingest, sample and stats; the rest
/// is checkpoint. Ingest to sample is 8 : 1, the serving mix of the `n1`
/// experiment (one `Sample` every 8 batches); the remaining tenth is split
/// evenly between `Stats` and `Checkpoint`, which no experiment of the
/// repository weighs.
const MIX: [f64; 3] = [0.80, 0.90, 0.95];

fn tenants(ctx: &Ctx) -> u64 {
    if ctx.tiny {
        200
    } else {
        10_000
    }
}

fn config(seed: u64) -> EngineConfig {
    EngineConfig::new(UNIVERSE)
        .shards(1)
        .pool_size(1)
        .seed(seed)
}

fn engine(seed: u64) -> ShardedEngine<L0Factory> {
    ShardedEngine::new(config(seed), L0Factory::default())
}

struct Stack {
    server: Server,
    conns: [Conn; 2],
}

fn setup(seed: u64, tenants: u64) -> Stack {
    let server =
        pts_server::serve_with_spawner("127.0.0.1:0", engine(seed), move |ns| engine(seed ^ ns))
            .expect("bind server");
    let addr = server.local_addr();
    let mut conns = [0, 1].map(|_| Conn::connect(addr, 256, 0).expect("connect"));
    let mut rec = Recorder::new(false, Instant::now());
    let mut window = VecDeque::new();
    for ns in 1..=tenants {
        window.push_back(conns[0].create_namespace(&mut rec, ns).expect("create"));
        if window.len() == 64 {
            let r: Req<()> = window.pop_front().expect("full window");
            r.wait(&mut rec).expect("namespace created");
        }
    }
    for r in window {
        r.wait(&mut rec).expect("namespace created");
    }
    Stack { server, conns }
}

/// What the answer to one request must be.
enum Expect {
    Ingest,
    Sample(Vec<i64>),
    Stats {
        updates: u64,
        support: u64,
        mass: f64,
    },
    Checkpoint(Vec<(u64, i64)>),
}

enum Sent {
    Ingest(Req<u64>),
    Sample(Req<Vec<Option<Sample>>>),
    Stats(Req<ServiceStats>),
    Checkpoint(Req<Vec<u8>>),
}

/// One connection's request generator and its tenants' references.
struct Gen<'a> {
    rng: Rng,
    zipf: &'a ZipfIds,
    parity: u64,
    refs: Vec<Reference>,
    touched: Vec<bool>,
}

impl<'a> Gen<'a> {
    fn new(seed: u64, parity: u64, zipf: &'a ZipfIds, tenants: u64) -> Self {
        Self {
            rng: Rng::new(seed, 10 + parity),
            zipf,
            parity,
            refs: vec![Reference::new(UNIVERSE); tenants as usize + 1],
            touched: vec![false; tenants as usize + 1],
        }
    }

    /// Picks a tenant of this connection's parity and an operation,
    /// updates the reference, and submits.
    fn submit(
        &mut self,
        conn: &mut Conn,
        rec: &mut Recorder,
    ) -> Result<(Sent, Expect), ClientError> {
        let ns = loop {
            let ns = self.zipf.pick(&mut self.rng);
            if ns % 2 == self.parity {
                break ns;
            }
        };
        self.touched[ns as usize] = true;
        let r = self.rng.unit();
        let t = &mut self.refs[ns as usize];
        Ok(if r < MIX[0] {
            let batch = small_batch(UNIVERSE, BATCH, &mut self.rng);
            t.apply(&batch);
            (Sent::Ingest(conn.ingest(rec, ns, &batch)?), Expect::Ingest)
        } else if r < MIX[1] {
            (
                Sent::Sample(conn.sample(rec, ns)?),
                Expect::Sample(t.x.clone()),
            )
        } else if r < MIX[2] {
            let expect = Expect::Stats {
                updates: t.updates,
                support: t.support(),
                mass: t.mass(0.0),
            };
            (Sent::Stats(conn.stats(rec, ns)?), expect)
        } else {
            (
                Sent::Checkpoint(conn.checkpoint(rec, ns)?),
                Expect::Checkpoint(entries(t)),
            )
        })
    }
}

fn entries(r: &Reference) -> Vec<(u64, i64)> {
    r.x.iter()
        .enumerate()
        .filter(|(_, &v)| v != 0)
        .map(|(i, &v)| (i as u64, v))
        .collect()
}

/// Answers and checks of one connection.
struct Tally {
    /// The phase start the timelines count from.
    start: Instant,
    attempted: u64,
    failed: u64,
    /// Draws from tenants with a non-empty support, and how many were ⊥.
    draws: u64,
    bottoms: u64,
    requests: Timeline,
    updates: Timeline,
    samples: Timeline,
    request_us: Vec<f64>,
    draw_ms: Vec<f64>,
    late_us: Vec<f64>,
    failures: Vec<String>,
}

impl Tally {
    fn new(start: Instant) -> Self {
        Self {
            start,
            attempted: 0,
            failed: 0,
            draws: 0,
            bottoms: 0,
            requests: Timeline::default(),
            updates: Timeline::default(),
            samples: Timeline::default(),
            request_us: Vec::new(),
            draw_ms: Vec::new(),
            late_us: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.draws += o.draws;
        self.bottoms += o.bottoms;
        self.requests.absorb(o.requests);
        self.updates.absorb(o.updates);
        self.samples.absorb(o.samples);
        self.request_us.extend(o.request_us);
        self.draw_ms.extend(o.draw_ms);
        self.late_us.extend(o.late_us);
        self.failures.extend(o.failures);
    }

    fn error(&mut self, e: ClientError) {
        self.failed += 1;
        self.failures.push(format!("request failed: {e}"));
    }

    /// Waits for one answer, records its latency from `due` (open loop),
    /// then checks it.
    fn settle(&mut self, rec: &mut Recorder, sent: Sent, expect: Expect, due: Option<Instant>) {
        let latency_us: Option<f64>;
        macro_rules! answer {
            ($r:expr) => {{
                let a = $r.wait(rec);
                let elapsed = due.map(|d| d.elapsed().as_secs_f64() * 1e6);
                match a {
                    Ok(v) => {
                        latency_us = elapsed;
                        v
                    }
                    Err(e) => return self.error(e),
                }
            }};
        }
        let fail = match (sent, expect) {
            (Sent::Ingest(r), Expect::Ingest) => {
                let n = answer!(r);
                self.updates.add(self.start, n);
                (n != BATCH as u64).then(|| format!("ingest acknowledged {n} of {BATCH}"))
            }
            (Sent::Sample(r), Expect::Sample(x)) => {
                let v = answer!(r);
                self.samples.add(self.start, 1);
                self.draw_ms.extend(latency_us.map(|us| us / 1e3));
                let support = x.iter().any(|&v| v != 0);
                match v.first().copied().flatten() {
                    Some(s)
                        if x[s.index as usize] == 0 || s.estimate != x[s.index as usize] as f64 =>
                    {
                        Some(format!(
                            "draw ({}, {}) is not an exact support entry",
                            s.index, s.estimate
                        ))
                    }
                    Some(_) => {
                        self.draws += 1;
                        None
                    }
                    None if support => {
                        self.draws += 1;
                        self.bottoms += 1;
                        None
                    }
                    None => None,
                }
            }
            (
                Sent::Stats(r),
                Expect::Stats {
                    updates,
                    support,
                    mass,
                },
            ) => {
                let st = answer!(r);
                (st.updates != updates || st.support != support || st.mass != mass)
                    .then(|| {
                        format!(
                            "stats (updates, support, mass) ({}, {}, {}) != reference ({updates}, {support}, {mass})",
                            st.updates, st.support, st.mass
                        )
                    })
            }
            (Sent::Checkpoint(r), Expect::Checkpoint(want)) => {
                let bytes = answer!(r);
                match ShardedEngine::<L0Factory>::restore(&mut &bytes[..]) {
                    Ok(e) if e.snapshot().entries() == &want[..] => None,
                    Ok(_) => Some("checkpoint does not hold the reference vector".into()),
                    Err(e) => Some(format!("checkpoint does not restore: {e}")),
                }
            }
            _ => unreachable!("requests and expectations are built in pairs"),
        };
        self.requests.add(self.start, 1);
        self.request_us.extend(latency_us);
        self.failures.extend(fail);
    }
}

/// Closed loop at depth 16 on both connections.
fn capacity(
    stack: &mut Stack,
    gens: &mut [Gen<'_>; 2],
    secs: f64,
    recs: &mut [Recorder; 2],
) -> Tally {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut total = Tally::new(start);
    std::thread::scope(|s| {
        let handles: Vec<_> = stack
            .conns
            .iter_mut()
            .zip(gens.iter_mut())
            .zip(recs.iter_mut())
            .map(|((conn, gen), rec)| {
                s.spawn(move || {
                    let mut t = Tally::new(start);
                    let mut window = VecDeque::with_capacity(DEPTH);
                    while Instant::now() < deadline {
                        t.attempted += 1;
                        match gen.submit(conn, rec) {
                            Ok(pair) => window.push_back(pair),
                            Err(e) => {
                                t.error(e);
                                break;
                            }
                        }
                        if window.len() == DEPTH {
                            let (sent, expect) = window.pop_front().expect("full window");
                            t.settle(rec, sent, expect, None);
                        }
                    }
                    for (sent, expect) in window {
                        t.settle(rec, sent, expect, None);
                    }
                    t
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("capacity thread"));
        }
    });
    total
}

/// Open loop at `rate` requests/s over both connections: each connection
/// has a generator submitting on schedule and a collector settling
/// answers in order.
fn open_loop(
    stack: &mut Stack,
    gens: &mut [Gen<'_>; 2],
    secs: f64,
    rate: f64,
    recs: &mut [Recorder; 2],
    origin: Instant,
) -> Tally {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let every = Duration::from_secs_f64(2.0 / rate);
    let mut total = Tally::new(start);
    let mut collected = Vec::new();
    std::thread::scope(|s| {
        let mut generators = Vec::new();
        let mut collectors = Vec::new();
        for ((conn, gen), rec) in stack
            .conns
            .iter_mut()
            .zip(gens.iter_mut())
            .zip(recs.iter_mut())
        {
            let (tx, rx) = mpsc::channel::<(Instant, Sent, Expect)>();
            let traced = rec.is_on();
            collectors.push(s.spawn(move || {
                let mut rec = Recorder::new(traced, origin);
                let mut t = Tally::new(start);
                for (due, sent, expect) in rx {
                    t.settle(&mut rec, sent, expect, Some(due));
                }
                (t, rec)
            }));
            generators.push(s.spawn(move || {
                let mut t = Tally::new(start);
                for k in 0u32.. {
                    let due = start + every * k;
                    if due >= deadline {
                        break;
                    }
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    t.late_us.push(due.elapsed().as_secs_f64() * 1e6);
                    t.attempted += 1;
                    match gen.submit(conn, rec) {
                        Ok((sent, expect)) => {
                            if tx.send((due, sent, expect)).is_err() {
                                break;
                            }
                        }
                        Err(e) => {
                            t.error(e);
                            break;
                        }
                    }
                }
                t
            }));
        }
        for h in generators {
            total.absorb(h.join().expect("generator thread"));
        }
        for h in collectors {
            let (t, rec) = h.join().expect("collector thread");
            total.absorb(t);
            collected.push(rec);
        }
    });
    for rec in collected {
        recs[0].spans.extend(rec.spans);
    }
    total
}

/// Both phases: rates from the closed-loop capacity phase, latencies
/// from the open-loop phase.
fn serve_phases(
    out: &mut Outcome,
    stack: &mut Stack,
    gens: &mut [Gen<'_>; 2],
    secs: f64,
    recs: &mut [Recorder; 2],
    origin: Instant,
) -> (EndToEnd, Tally) {
    let cap_secs = secs * CAPACITY_SHARE;
    let mut cap = capacity(stack, gens, cap_secs, recs);
    let open = open_loop(stack, gens, secs - cap_secs, OPEN_LOOP_RATE, recs, origin);
    for t in [&cap, &open] {
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.failures.extend(t.failures.iter().cloned());
    }
    let e2e = EndToEnd {
        updates_per_s: cap.updates.median_rate(cap_secs),
        requests_per_s: cap.requests.median_rate(cap_secs),
        draws_per_s: cap.samples.median_rate(cap_secs),
        draw_ms: open.draw_ms,
        request_us: open.request_us,
    };
    out.notes.push(format!(
        "capacity {:.0} req/s (per second: {:.0?}); open loop at {OPEN_LOOP_RATE} req/s, generator late by {:.1} us on average",
        e2e.requests_per_s,
        cap.requests.window_rates(cap_secs),
        mean(&open.late_us),
    ));
    cap.draws += open.draws;
    cap.bottoms += open.bottoms;
    (e2e, cap)
}

/// Every touched tenant's counters and support against its reference.
fn final_check(ctx: &Ctx, out: &mut Outcome, stack: &mut Stack, gens: &[Gen<'_>; 2]) {
    let mut rec = Recorder::new(false, Instant::now());
    for (conn, gen) in stack.conns.iter_mut().zip(gens) {
        let mut t = Tally::new(Instant::now());
        let mut window = VecDeque::new();
        for (ns, r) in gen
            .refs
            .iter()
            .enumerate()
            .filter(|(ns, _)| gen.touched[*ns])
        {
            t.attempted += 1;
            let expect = Expect::Stats {
                updates: r.updates,
                support: r.support(),
                mass: r.mass(0.0) * ctx.mass_factor(),
            };
            match conn.stats(&mut rec, ns as u64) {
                Ok(req) => window.push_back((Sent::Stats(req), expect)),
                Err(e) => t.error(e),
            }
            if window.len() == 64 {
                let (sent, expect) = window.pop_front().expect("full window");
                t.settle(&mut rec, sent, expect, None);
            }
        }
        for (sent, expect) in window {
            t.settle(&mut rec, sent, expect, None);
        }
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.failures.extend(t.failures);
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let count = tenants(ctx);
    let zipf = ZipfIds::new(count as usize, ZIPF_S, &mut Rng::new(ctx.seed, 9));
    let mut gens = [0, 1].map(|parity| Gen::new(ctx.seed, parity, &zipf, count));
    out.notes.push(format!(
        "tenants: {count} tenants (n={UNIVERSE}, L0), zipf({ZIPF_S}) popularity, {BATCH}-update ingests, mix {MIX:?}"
    ));
    let origin = Instant::now();

    if !ctx.trace {
        let (mut stack, first) = timed(|| setup(ctx.seed, count));
        out.attempted += count;
        let mut recs = [0, 1].map(|_| Recorder::new(false, origin));
        let (e2e, t) = serve_phases(
            &mut out,
            &mut stack,
            &mut gens,
            ctx.seconds,
            &mut recs,
            origin,
        );
        final_check(ctx, &mut out, &mut stack, &gens);
        out.notes
            .push(format!("{} draws, {} bottom", t.draws, t.bottoms));
        e2e.push(&mut out);
        stack.server.join();
        push_setup(&mut out, first, ctx.setup_reps(5), || {
            setup(ctx.seed, count).server.join()
        });
        return out;
    }

    let mut stack = setup(ctx.seed, count);
    out.attempted += count;
    let half = ctx.seconds / 2.0;
    let mut recs = [0, 1].map(|_| Recorder::new(false, origin));
    let (e0, t0) = serve_phases(&mut out, &mut stack, &mut gens, half, &mut recs, origin);
    let addr = stack.server.local_addr();
    let mut traced = Stack {
        conns: [0, 1].map(|_| Conn::connect(addr, 256, 256).expect("connect")),
        server: stack.server,
    };
    let mut recs = [0, 1].map(|_| Recorder::new(true, origin));
    let before = pts_obs::registry().snapshot();
    let (e1, t1) = serve_phases(&mut out, &mut traced, &mut gens, half, &mut recs, origin);
    let after = pts_obs::registry().snapshot();
    final_check(ctx, &mut out, &mut traced, &gens);
    traced.server.join();
    let [mut ra, rb] = recs;
    ra.spans.extend(rb.spans);
    let submit = ra.mean_us("client.submit");
    out.push("client.submit_us", submit, "us");
    out.push("client.wait_us", ra.mean_us("client.wait"), "us");
    server_stages(&mut out, &before, &after, submit);
    push_overhead(&mut out, e0.requests_per_s, e1.requests_per_s);
    e0.push_tails(&mut out);
    out.push(
        "bottom_ratio",
        (t0.bottoms + t1.bottoms) as f64 / (t0.draws + t1.draws).max(1) as f64,
        "ratio",
    );
    out.spans = ra.spans;

    // The ledger replays one tenant's worth of seeded 8-update batches.
    let mut rng = Rng::new(ctx.seed, 5);
    let replay: Vec<Update> = small_batch(UNIVERSE, if ctx.tiny { 512 } else { 16_384 }, &mut rng);
    ledger::run(
        &mut out,
        ledger::Input {
            factory: L0Factory::default(),
            config: config(ctx.seed),
            updates: &replay,
            batch_len: BATCH,
            draws: if ctx.tiny { 16 } else { 512 },
            instances: if ctx.tiny { 4 } else { 64 },
            end_row: "served",
        },
    );
    out
}
