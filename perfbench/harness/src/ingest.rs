//! `ingest`: a write-heavy feed into the production default sampler.
//!
//! One server serves `ShardedEngine<LpLe2Factory>` (p = 2, n = 4096,
//! S = 4, k = 2). Connection 1 runs closed-loop pipelined `IngestBatch`
//! at depth 16, 1024-update batches cycling through a churny zipf
//! turnstile stream. Connection 2 sends single draws open loop at a
//! fixed 20 draws/s, each timed from when it was due.

use crate::adapter::{Conn, Recorder, Req};
use crate::gen::{churn_stream, zipf_vector, Reference, Rng};
use crate::report::{server_stages, EndToEnd, Outcome, Timeline};
use crate::{ledger, push_overhead, push_setup, timed, Ctx};
use pts_engine::{EngineConfig, LpLe2Factory, ShardedEngine};
use pts_server::Server;
use pts_stream::Update;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub const UNIVERSE: usize = 4096;
const BATCH: usize = 1024;
const DEPTH: usize = 16;
const DRAW_EVERY: Duration = Duration::from_millis(50);
/// Draws pick a shard by mass, and the zipf top coordinate leaves some
/// shards with ~2% of it: this many draws pick every shard at least twice
/// (k = 2) with overwhelming probability, which drains every pool.
const WARM_UP_DRAWS: usize = 800;
/// Set-up takes milliseconds, so `setup_s` is the median of many.
const SETUP_REPS: usize = 41;

fn config(seed: u64) -> EngineConfig {
    EngineConfig::new(UNIVERSE)
        .shards(4)
        .pool_size(2)
        .seed(seed)
}

fn factory() -> LpLe2Factory {
    LpLe2Factory::for_universe(UNIVERSE, 2.0)
}

/// The seeded base stream, the `s1` experiment's shape: a zipf(1) vector
/// (top magnitude 500) on every coordinate, reached through a churny
/// turnstile stream.
pub fn base_stream(seed: u64) -> Vec<Update> {
    let mut rng = Rng::new(seed, 1);
    let x = zipf_vector(UNIVERSE, UNIVERSE, 500.0, 1.0, &mut rng);
    churn_stream(&x, &mut rng)
}

/// Cycles the base stream in fixed-size batches.
struct Feed<'a> {
    base: &'a [Update],
    pos: usize,
}

impl Feed<'_> {
    fn next(&mut self, len: usize) -> Vec<Update> {
        (0..len)
            .map(|_| {
                let u = self.base[self.pos];
                self.pos = (self.pos + 1) % self.base.len();
                u
            })
            .collect()
    }
}

struct Stack {
    server: Server,
    feed_conn: Conn,
    draw_conn: Conn,
}

fn setup(seed: u64, trace_every: u64) -> Stack {
    let server = pts_server::serve("127.0.0.1:0", ShardedEngine::new(config(seed), factory()))
        .expect("bind server");
    let addr: SocketAddr = server.local_addr();
    Stack {
        feed_conn: Conn::connect(addr, DEPTH, trace_every).expect("connect feed"),
        draw_conn: Conn::connect(addr, 1, trace_every).expect("connect draws"),
        server,
    }
}

/// One measured phase of both connections.
#[derive(Default)]
struct Phase {
    updates: Timeline,
    requests: Timeline,
    draws: Timeline,
    draw_ms: Vec<f64>,
    request_us: Vec<f64>,
    bottoms: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Phase {
    fn end_to_end(self, secs: f64) -> EndToEnd {
        EndToEnd {
            updates_per_s: self.updates.median_rate(secs),
            requests_per_s: self.requests.median_rate(secs),
            draws_per_s: self.draws.median_rate(secs),
            draw_ms: self.draw_ms,
            request_us: self.request_us,
        }
    }
}

fn phase(
    stack: &mut Stack,
    feed: &mut Feed<'_>,
    reference: &mut Reference,
    support: &[bool],
    secs: f64,
    recs: [&mut Recorder; 2],
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let Stack {
        feed_conn,
        draw_conn,
        ..
    } = stack;
    let [rec_feed, rec_draw] = recs;
    let (mut a, b) = std::thread::scope(|s| {
        let drawer = s.spawn(|| {
            let mut p = Phase::default();
            for k in 0u32.. {
                let due = start + DRAW_EVERY * k;
                if due >= deadline {
                    break;
                }
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                p.attempted += 1;
                match draw_conn.sample(rec_draw, 0).and_then(|r| r.wait(rec_draw)) {
                    Ok(v) => {
                        let late = due.elapsed().as_secs_f64();
                        p.draw_ms.push(late * 1e3);
                        p.request_us.push(late * 1e6);
                        p.draws.add(start, 1);
                        p.requests.add(start, 1);
                        match v.first().copied().flatten() {
                            Some(s) if !support[s.index as usize] => p
                                .failures
                                .push(format!("draw returned {} outside the support", s.index)),
                            Some(_) => {}
                            None => p.bottoms += 1,
                        }
                    }
                    Err(e) => {
                        p.failed += 1;
                        p.failures.push(format!("draw failed: {e}"));
                    }
                }
            }
            p
        });
        let mut p = Phase::default();
        let mut window = VecDeque::with_capacity(DEPTH);
        while Instant::now() < deadline {
            let batch = feed.next(BATCH);
            reference.apply(&batch);
            p.attempted += 1;
            let submitted = Instant::now();
            match feed_conn.ingest(rec_feed, 0, &batch) {
                Ok(r) => window.push_back((r, submitted)),
                Err(e) => {
                    p.failed += 1;
                    p.failures.push(format!("ingest submit failed: {e}"));
                    break;
                }
            }
            if window.len() == DEPTH {
                let front = window.pop_front().expect("full window");
                resolve(&mut p, rec_feed, front, start);
            }
        }
        for r in window {
            resolve(&mut p, rec_feed, r, start);
        }
        (p, drawer.join().expect("draw thread"))
    });
    a.draws = b.draws;
    a.requests.absorb(b.requests);
    a.draw_ms = b.draw_ms;
    a.request_us.extend(b.request_us);
    a.bottoms = b.bottoms;
    a.attempted += b.attempted;
    a.failed += b.failed;
    a.failures.extend(b.failures);
    a
}

/// Waits for one batch's acknowledgement; every batch is `BATCH` long.
fn resolve(p: &mut Phase, rec: &mut Recorder, (r, submitted): (Req<u64>, Instant), start: Instant) {
    match r.wait(rec) {
        Ok(n) if n == BATCH as u64 => {
            p.request_us.push(submitted.elapsed().as_secs_f64() * 1e6);
            p.updates.add(start, n);
            p.requests.add(start, 1);
        }
        Ok(n) => p
            .failures
            .push(format!("ingest acknowledged {n} of {BATCH} updates")),
        Err(e) => {
            p.failed += 1;
            p.failures.push(format!("ingest failed: {e}"));
        }
    }
}

/// Final state check: the server's counters, support and mass equal the
/// generator's exact reference.
fn final_check(ctx: &Ctx, out: &mut Outcome, stack: &mut Stack, reference: &Reference) {
    let mut rec = Recorder::new(false, Instant::now());
    out.attempted += 1;
    match stack
        .feed_conn
        .stats(&mut rec, 0)
        .and_then(|r| r.wait(&mut rec))
    {
        Ok(st) => {
            let mass = reference.mass(2.0) * ctx.mass_factor();
            out.check(st.updates == reference.updates, || {
                format!(
                    "server counted {} updates, sent {}",
                    st.updates, reference.updates
                )
            });
            out.check(st.support == reference.support(), || {
                format!(
                    "support {} != reference {}",
                    st.support,
                    reference.support()
                )
            });
            out.check((st.mass - mass).abs() <= 1e-9 * mass, || {
                format!("mass {} != reference {mass}", st.mass)
            });
        }
        Err(e) => {
            out.failed += 1;
            out.failures.push(format!("final stats failed: {e}"));
        }
    }
}

/// Feeds one pass of the base stream, then draws until every pool slot
/// has been consumed once. A consumed slot respawns only when a draw next
/// reaches it and is consumed again by that draw, so from then on ingest
/// feeds no live sampler and each draw pays one respawn: the steady state
/// of this workload, reached here instead of during the measured phase.
fn warm_up(stack: &mut Stack, feed: &mut Feed<'_>, reference: &mut Reference, out: &mut Outcome) {
    let mut rec = Recorder::new(false, Instant::now());
    let mut p = Phase::default();
    for _ in 0..feed.base.len().div_ceil(BATCH) {
        let batch = feed.next(BATCH);
        reference.apply(&batch);
        p.attempted += 1;
        let submitted = Instant::now();
        match stack.feed_conn.ingest(&mut rec, 0, &batch) {
            Ok(r) => resolve(&mut p, &mut rec, (r, submitted), submitted),
            Err(e) => {
                p.failed += 1;
                p.failures.push(format!("warm-up ingest failed: {e}"));
            }
        }
    }
    absorb(out, &p);
    for _ in 0..WARM_UP_DRAWS {
        out.attempted += 1;
        if let Err(e) = stack
            .draw_conn
            .sample(&mut rec, 0)
            .and_then(|r| r.wait(&mut rec))
        {
            out.failed += 1;
            out.failures.push(format!("warm-up draw failed: {e}"));
        }
    }
}

fn absorb(out: &mut Outcome, p: &Phase) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.failures.extend(p.failures.iter().cloned());
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let base = base_stream(ctx.seed);
    let mut support = vec![false; UNIVERSE];
    for u in &base {
        support[u.index as usize] = true;
    }
    let mut feed = Feed {
        base: &base,
        pos: 0,
    };
    let mut reference = Reference::new(UNIVERSE);
    out.notes.push(format!(
        "ingest: n={UNIVERSE} S=4 k=2 p=2, batch {BATCH} at depth {DEPTH}, base stream {} updates, draws every {} ms",
        base.len(),
        DRAW_EVERY.as_millis()
    ));

    if !ctx.trace {
        let (mut stack, first) = timed(|| setup(ctx.seed, 0));
        warm_up(&mut stack, &mut feed, &mut reference, &mut out);
        let origin = Instant::now();
        let (mut ra, mut rb) = (Recorder::new(false, origin), Recorder::new(false, origin));
        let p = phase(
            &mut stack,
            &mut feed,
            &mut reference,
            &support,
            ctx.seconds,
            [&mut ra, &mut rb],
        );
        absorb(&mut out, &p);
        final_check(ctx, &mut out, &mut stack, &reference);
        out.notes.push(format!(
            "{} updates acknowledged; {} bottom draws; per-second update rates {:.0?}",
            p.updates.total(),
            p.bottoms,
            p.updates.window_rates(ctx.seconds)
        ));
        p.end_to_end(ctx.seconds).push(&mut out);
        stack.server.join();
        push_setup(&mut out, first, ctx.setup_reps(SETUP_REPS), || {
            setup(ctx.seed, 0).server.join()
        });
        return out;
    }

    // Traced: an untraced and a traced half, then the layer replays.
    let mut stack = setup(ctx.seed, 0);
    warm_up(&mut stack, &mut feed, &mut reference, &mut out);
    let origin = Instant::now();
    let (mut ra, mut rb) = (Recorder::new(false, origin), Recorder::new(false, origin));
    let half = ctx.seconds / 2.0;
    let p0 = phase(
        &mut stack,
        &mut feed,
        &mut reference,
        &support,
        half,
        [&mut ra, &mut rb],
    );
    absorb(&mut out, &p0);
    let (updates0, bottoms0, draws0) = (p0.updates.median_rate(half), p0.bottoms, p0.draws.total());
    p0.end_to_end(half).push_tails(&mut out);
    let mut traced = Stack {
        feed_conn: Conn::connect(stack.server.local_addr(), DEPTH, 256).expect("connect"),
        draw_conn: Conn::connect(stack.server.local_addr(), 1, 256).expect("connect"),
        server: stack.server,
    };
    let (mut ra, mut rb) = (Recorder::new(true, origin), Recorder::new(true, origin));
    let before = pts_obs::registry().snapshot();
    let p1 = phase(
        &mut traced,
        &mut feed,
        &mut reference,
        &support,
        half,
        [&mut ra, &mut rb],
    );
    let after = pts_obs::registry().snapshot();
    absorb(&mut out, &p1);
    final_check(ctx, &mut out, &mut traced, &reference);
    ra.spans.extend(rb.spans);
    let submit = ra.mean_us("client.submit");
    out.push("client.submit_us", submit, "us");
    out.push("client.wait_us", ra.mean_us("client.wait"), "us");
    server_stages(&mut out, &before, &after, submit);
    push_overhead(&mut out, updates0, p1.updates.median_rate(half));
    out.push(
        "bottom_ratio",
        (bottoms0 + p1.bottoms) as f64 / (draws0 + p1.draws.total()).max(1) as f64,
        "ratio",
    );
    out.spans = ra.spans;
    traced.server.join();

    let replay = if ctx.tiny { 4 * BATCH } else { 64 * BATCH };
    let updates: Vec<Update> = (0..replay).map(|i| base[i % base.len()]).collect();
    ledger::run(
        &mut out,
        ledger::Input {
            factory: factory(),
            config: config(ctx.seed),
            updates: &updates,
            batch_len: BATCH,
            draws: if ctx.tiny { 8 } else { 64 },
            instances: if ctx.tiny { 2 } else { 8 },
            end_row: "served",
        },
    );
    out
}
