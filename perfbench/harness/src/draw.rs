//! `draw`: read-heavy, the paper's headline sampler.
//!
//! A coordinator sits over two loopback nodes, each serving
//! `ShardedEngine<PerfectLpFactory>` (p = 3, n = 64, S = 1, k = 2).
//! Set-up preloads a zipf vector; then one closed-loop client draws, with
//! one 8-update ingest every 16 draws so respawns replay a moving vector.
//! Every draw is checked against the exact law current at that draw.

use crate::adapter::{Cluster, Recorder};
use crate::gen::{small_batch, zipf_vector, Reference, Rng};
use crate::ledger::{self, PERFECT_LP_P, PERFECT_LP_UNIVERSE};
use crate::report::{server_stages, EndToEnd, Outcome, Timeline};
use crate::{push_overhead, push_setup, timed, Ctx};
use pts_engine::{EngineConfig, PerfectLpFactory, ShardedEngine};
use pts_server::Server;
use pts_stream::Update;
use pts_util::stats::chi_square_sf;
use std::time::{Duration, Instant};

const UNIVERSE: usize = PERFECT_LP_UNIVERSE;
const NODES: u64 = 2;
const INGEST_EVERY: u64 = 16;
const INGEST_LEN: usize = 8;
const WARM_UP_DRAWS: usize = 8;
/// Set-up takes tens of milliseconds, so `setup_s` is the median of many.
const SETUP_REPS: usize = 21;
/// A chi-squared p-value below this fails the run. Small enough that a
/// correct sampler fails about once in 10⁵ runs.
pub const CHI_ALPHA: f64 = 1e-5;

fn config(seed: u64) -> EngineConfig {
    EngineConfig::new(UNIVERSE)
        .shards(1)
        .pool_size(2)
        .seed(seed)
}

fn factory() -> PerfectLpFactory {
    PerfectLpFactory::for_universe(UNIVERSE, PERFECT_LP_P)
}

/// The preloaded vector, the shape of the `table1` experiment's p = 3
/// row: zipf(1.1) over the whole universe, top 60, sent as one update per
/// coordinate.
pub fn preload(seed: u64) -> Vec<Update> {
    let mut rng = Rng::new(seed, 2);
    zipf_vector(UNIVERSE, UNIVERSE, 60.0, 1.1, &mut rng)
        .iter()
        .enumerate()
        .map(|(i, &v)| Update::new(i as u64, v))
        .collect()
}

/// Pearson chi-squared over all draws, with each draw's expected counts
/// taken from the exact law `G(x_i)/ΣG` current when it was drawn.
pub struct LawCheck {
    observed: Vec<u64>,
    expected: Vec<f64>,
}

impl LawCheck {
    pub fn new(n: usize) -> Self {
        Self {
            observed: vec![0; n],
            expected: vec![0.0; n],
        }
    }

    pub fn observe(&mut self, index: u64, law: &[f64]) {
        self.observed[index as usize] += 1;
        for (e, &p) in self.expected.iter_mut().zip(law) {
            *e += p;
        }
    }

    /// `(statistic, dof, p-value)`; cells expecting fewer than 5 draws
    /// are pooled into one.
    pub fn verdict(&self) -> (f64, f64, f64) {
        let (mut stat, mut cells, mut pool_o, mut pool_e) = (0.0, 0usize, 0.0, 0.0);
        for (&o, &e) in self.observed.iter().zip(&self.expected) {
            if e < 5.0 {
                pool_o += o as f64;
                pool_e += e;
            } else {
                stat += (o as f64 - e).powi(2) / e;
                cells += 1;
            }
        }
        if pool_e > 0.0 {
            stat += (pool_o - pool_e).powi(2) / pool_e;
            cells += 1;
        }
        let dof = (cells.max(2) - 1) as f64;
        (stat, dof, chi_square_sf(stat, dof))
    }
}

fn law(reference: &Reference) -> Vec<f64> {
    let total = reference.mass(PERFECT_LP_P);
    reference
        .x
        .iter()
        .map(|&v| (v.abs() as f64).powf(PERFECT_LP_P) / total)
        .collect()
}

struct Stack {
    nodes: Vec<Server>,
    cluster: Cluster,
}

fn setup(seed: u64, preload: &[Update]) -> Stack {
    let nodes: Vec<Server> = (0..NODES)
        .map(|i| {
            pts_server::serve(
                "127.0.0.1:0",
                ShardedEngine::new(config(seed ^ (i + 1)), factory()),
            )
            .expect("bind node")
        })
        .collect();
    let addrs: Vec<_> = nodes.iter().map(Server::local_addr).collect();
    let mut cluster = Cluster::connect(UNIVERSE, &addrs, seed).expect("connect cluster");
    let mut rec = Recorder::new(false, Instant::now());
    cluster.ingest(&mut rec, preload).expect("preload");
    Stack { nodes, cluster }
}

#[derive(Default)]
struct Phase {
    updates: Timeline,
    requests: Timeline,
    draws: Timeline,
    draw_ms: Vec<f64>,
    request_us: Vec<f64>,
    bottoms: u64,
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
    out: &mut Outcome,
    stack: &mut Stack,
    rng: &mut Rng,
    reference: &mut Reference,
    check: &mut LawCheck,
    secs: f64,
    rec: &mut Recorder,
) -> Phase {
    let mut p = Phase::default();
    let mut current = law(reference);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    for k in 0u64.. {
        if Instant::now() >= deadline {
            break;
        }
        if k > 0 && k % INGEST_EVERY == 0 {
            let batch = small_batch(UNIVERSE, INGEST_LEN, rng);
            reference.apply(&batch);
            current = law(reference);
            out.attempted += 1;
            let t = Instant::now();
            match stack.cluster.ingest(rec, &batch) {
                Ok(n) => {
                    p.request_us.push(t.elapsed().as_secs_f64() * 1e6);
                    p.updates.add(start, n);
                    p.requests.add(start, 1);
                    out.check(n == INGEST_LEN as u64, || {
                        format!("ingest acknowledged {n} of {INGEST_LEN}")
                    });
                }
                Err(e) => {
                    out.failed += 1;
                    out.failures.push(format!("ingest failed: {e}"));
                }
            }
        }
        out.attempted += 1;
        let t = Instant::now();
        match stack.cluster.sample(rec) {
            Ok(s) => {
                let secs = t.elapsed().as_secs_f64();
                p.draw_ms.push(secs * 1e3);
                p.request_us.push(secs * 1e6);
                p.draws.add(start, 1);
                p.requests.add(start, 1);
                match s {
                    Some(s) if reference.x[s.index as usize] == 0 => out
                        .failures
                        .push(format!("draw returned {} outside the support", s.index)),
                    Some(s) => check.observe(s.index, &current),
                    None => p.bottoms += 1,
                }
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("draw failed: {e}"));
            }
        }
    }
    p
}

/// The cluster's counters, support and mass against the reference, and
/// the law verdict over every draw.
fn final_check(
    ctx: &Ctx,
    out: &mut Outcome,
    stack: &mut Stack,
    reference: &Reference,
    check: &LawCheck,
) {
    let st = stack.cluster.stats();
    let mass = reference.mass(PERFECT_LP_P) * ctx.mass_factor();
    out.check(st.total_updates == reference.updates, || {
        format!(
            "cluster counted {} updates, sent {}",
            st.total_updates, reference.updates
        )
    });
    out.check(st.total_support == reference.support(), || {
        format!(
            "support {} != reference {}",
            st.total_support,
            reference.support()
        )
    });
    out.check((st.total_mass - mass).abs() <= 1e-9 * mass, || {
        format!("mass {} != reference {mass}", st.total_mass)
    });
    let (stat, dof, p) = check.verdict();
    out.notes.push(format!(
        "law check: chi2 {stat:.2} on {dof} dof, p = {p:.4} ({})",
        if p >= CHI_ALPHA { "pass" } else { "FAIL" }
    ));
    out.check(p >= CHI_ALPHA, || {
        format!("draws do not follow G(x_i)/sum G: chi2 {stat:.2}, dof {dof}, p {p:.2e}")
    });
}

/// Draws until both pool slots of each node have been consumed once, so
/// the measured phase starts in the respawn-per-draw steady state.
fn warm_up(out: &mut Outcome, stack: &mut Stack) {
    let mut rec = Recorder::new(false, Instant::now());
    for _ in 0..WARM_UP_DRAWS {
        out.attempted += 1;
        if let Err(e) = stack.cluster.sample(&mut rec) {
            out.failed += 1;
            out.failures.push(format!("warm-up draw failed: {e}"));
        }
    }
}

fn teardown(stack: Stack) {
    drop(stack.cluster);
    for s in stack.nodes {
        s.join();
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let preload = preload(ctx.seed);
    let mut rng = Rng::new(ctx.seed, 3);
    let mut reference = Reference::new(UNIVERSE);
    let mut check = LawCheck::new(UNIVERSE);
    out.notes.push(format!(
        "draw: {NODES} nodes, n={UNIVERSE} S=1 k=2 p={PERFECT_LP_P}, one {INGEST_LEN}-update ingest every {INGEST_EVERY} draws"
    ));

    if !ctx.trace {
        let (mut stack, first) = timed(|| setup(ctx.seed, &preload));
        reference.apply(&preload);
        out.attempted += 1;
        warm_up(&mut out, &mut stack);
        let mut rec = Recorder::new(false, Instant::now());
        let p = phase(
            &mut out,
            &mut stack,
            &mut rng,
            &mut reference,
            &mut check,
            ctx.seconds,
            &mut rec,
        );
        final_check(ctx, &mut out, &mut stack, &reference, &check);
        out.notes.push(format!("{} bottom draws", p.bottoms));
        p.end_to_end(ctx.seconds).push(&mut out);
        teardown(stack);
        push_setup(&mut out, first, ctx.setup_reps(SETUP_REPS), || {
            teardown(setup(ctx.seed, &preload))
        });
        return out;
    }

    let mut stack = setup(ctx.seed, &preload);
    reference.apply(&preload);
    out.attempted += 1;
    warm_up(&mut out, &mut stack);
    let half = ctx.seconds / 2.0;
    let mut rec = Recorder::new(false, Instant::now());
    let p0 = phase(
        &mut out,
        &mut stack,
        &mut rng,
        &mut reference,
        &mut check,
        half,
        &mut rec,
    );
    let mut rec = Recorder::new(true, Instant::now());
    let p1 = phase(
        &mut out,
        &mut stack,
        &mut rng,
        &mut reference,
        &mut check,
        half,
        &mut rec,
    );
    final_check(ctx, &mut out, &mut stack, &reference, &check);
    teardown(stack);
    push_overhead(
        &mut out,
        p0.draws.median_rate(half),
        p1.draws.median_rate(half),
    );
    let draws = (p0.draw_ms.len() + p1.draw_ms.len()).max(1) as f64;
    out.push(
        "bottom_ratio",
        (p0.bottoms + p1.bottoms) as f64 / draws,
        "ratio",
    );
    p0.end_to_end(half).push_tails(&mut out);
    out.spans = rec.spans;

    // The ledger replays the preload plus seeded small batches.
    let batches = if ctx.tiny { 8 } else { 64 };
    let mut replay = preload.clone();
    let mut rng = Rng::new(ctx.seed, 4);
    for _ in 0..batches {
        replay.extend(small_batch(UNIVERSE, INGEST_LEN, &mut rng));
    }
    let served = ledger::run(
        &mut out,
        ledger::Input {
            factory: factory(),
            config: config(ctx.seed),
            updates: &replay,
            batch_len: INGEST_LEN,
            draws: if ctx.tiny { 4 } else { 64 },
            instances: if ctx.tiny { 2 } else { 8 },
            end_row: "cluster",
        },
    );
    // The coordinator owns this workload's clients, so the client and
    // server split comes from the ledger's served replay.
    out.push("client.submit_us", served.submit_us, "us");
    out.push("client.wait_us", served.wait_us, "us");
    server_stages(&mut out, &served.before, &served.after, served.submit_us);
    out
}
