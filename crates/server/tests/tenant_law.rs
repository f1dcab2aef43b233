//! Per-tenant sampling law + cross-tenant isolation, against one **live**
//! multi-tenant server.
//!
//! * **Law, per tenant** — three concurrently-active tenants with
//!   *different universes and different factories* (L0 over 32, Lp≤2 over
//!   48, perfect-Lp over 24) behind one socket: each tenant's draws must
//!   fit its own ideal law `G(x_i)/Σ_j G(x_j)` by chi-squared, with the
//!   draw bursts interleaved across tenants so the laws are pinned while
//!   the neighbors are active — not one tenant at a time.
//! * **Isolation** — a tenant's draw stream through the shared server is
//!   compared **draw for draw** against a single-tenant control server
//!   built from the identical engine constructor, while the other tenants
//!   ingest and sample in between: if tenancy leaked any state (RNG,
//!   mass, pool instances), the subject would diverge from its control.
//!
//! The tenant engines are `ShardedEngine`s behind a delegating enum, so
//! one spawner can hand different factory types to different namespaces —
//! the server only sees the common [`SamplingService`] surface.

use pts_engine::{
    EngineConfig, EngineSnapshot, EngineStats, L0Factory, LpLe2Factory, PerfectLpFactory,
    SamplerFactory, SamplingService, ShardedEngine,
};
use pts_samplers::Sample;
use pts_server::{serve_with_spawner, Client, Server};
use pts_stream::{gen::zipf_vector, FrequencyVector, Update};
use pts_util::protocol::DEFAULT_NAMESPACE;
use pts_util::stats::chi_square_test;
use pts_util::wire::WireError;

/// One engine type per tenant *kind*: the server's spawner must return a
/// single engine type, so heterogeneous tenants delegate through an enum.
#[derive(Debug)]
enum TenantEngine {
    L0(ShardedEngine<L0Factory>),
    L2(ShardedEngine<LpLe2Factory>),
    Lp(ShardedEngine<PerfectLpFactory>),
}

macro_rules! delegate {
    ($self:ident, $e:ident => $body:expr) => {
        match $self {
            TenantEngine::L0($e) => $body,
            TenantEngine::L2($e) => $body,
            TenantEngine::Lp($e) => $body,
        }
    };
}

impl SamplingService for TenantEngine {
    fn universe(&self) -> usize {
        delegate!(self, e => e.universe())
    }
    fn ingest_batch(&mut self, batch: &[Update]) {
        delegate!(self, e => SamplingService::ingest_batch(e, batch))
    }
    fn sample(&mut self) -> Option<Sample> {
        delegate!(self, e => SamplingService::sample(e))
    }
    fn snapshot(&self) -> EngineSnapshot {
        delegate!(self, e => SamplingService::snapshot(e))
    }
    fn stats(&self) -> EngineStats {
        delegate!(self, e => SamplingService::stats(e))
    }
    fn mass(&self) -> f64 {
        delegate!(self, e => SamplingService::mass(e))
    }
    fn support(&self) -> usize {
        delegate!(self, e => SamplingService::support(e))
    }
    fn checkpoint_bytes(&self) -> std::io::Result<Vec<u8>> {
        delegate!(self, e => e.checkpoint_bytes())
    }
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        delegate!(self, e => e.restore_bytes(bytes))
    }
}

/// The shared engine constructor: a pure function of the namespace, used
/// by the multi-tenant server's spawner *and* to build the single-tenant
/// control servers — which is what makes draw-for-draw comparison
/// meaningful.
fn tenant_engine(ns: u64) -> TenantEngine {
    let config = |n: usize| EngineConfig::new(n).shards(2).pool_size(2).seed(911 + ns);
    match ns % 3 {
        1 => TenantEngine::L0(ShardedEngine::new(config(32), L0Factory::default())),
        2 => TenantEngine::L2(ShardedEngine::new(
            config(48),
            LpLe2Factory::for_universe(48, 2.0),
        )),
        _ => TenantEngine::Lp(ShardedEngine::new(
            config(24),
            PerfectLpFactory::for_universe(24, 3.0),
        )),
    }
}

fn updates_of(x: &FrequencyVector) -> Vec<Update> {
    x.iter_nonzero().map(|(i, v)| Update::new(i, v)).collect()
}

fn live_tenant_server() -> (Server, Client) {
    let server = serve_with_spawner("127.0.0.1:0", tenant_engine(0), tenant_engine).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    (server, client)
}

/// One tenant's law-tally under interleaved driving.
struct LawTally {
    ns: u64,
    probs: Vec<f64>,
    counts: Vec<u64>,
    fails: u64,
    remaining: u64,
    max_fail: f64,
    trials: u64,
}

impl LawTally {
    fn new<F: SamplerFactory>(
        ns: u64,
        x: &FrequencyVector,
        factory: &F,
        trials: u64,
        max_fail: f64,
    ) -> Self {
        let weights: Vec<f64> = x.values().iter().map(|&v| factory.weight(v)).collect();
        let total: f64 = weights.iter().sum();
        Self {
            ns,
            probs: weights.iter().map(|w| w / total).collect(),
            counts: vec![0; x.n()],
            fails: 0,
            remaining: trials,
            max_fail,
            trials,
        }
    }

    fn tally(&mut self, draws: Vec<Option<Sample>>) {
        for draw in draws {
            match draw {
                Some(s) => self.counts[s.index as usize] += 1,
                None => self.fails += 1,
            }
        }
    }

    fn assert_law(&self) {
        assert!(
            (self.fails as f64) < self.trials as f64 * self.max_fail,
            "tenant {}: fails {}/{}",
            self.ns,
            self.fails,
            self.trials
        );
        let chi = chi_square_test(&self.counts, &self.probs, 5.0);
        assert!(
            chi.p_value > 1e-4,
            "tenant {} law off: chi2 {:.2} p {:.6}",
            self.ns,
            chi.statistic,
            chi.p_value
        );
    }
}

/// Three tenants with different universes and factories, driven through
/// one live server with their draw bursts interleaved: each fits its own
/// ideal law.
#[test]
fn per_tenant_laws_hold_concurrently_through_one_server() {
    let (server, mut client) = live_tenant_server();
    for ns in [1, 2, 3] {
        client.submit_create_namespace(ns).unwrap().wait().unwrap();
    }

    let x1 = zipf_vector(32, 1.1, 20, 41);
    let x2 = zipf_vector(48, 1.2, 25, 42);
    let x3 = zipf_vector(24, 1.0, 15, 43);
    client
        .submit_ingest_batch_ns(1, &updates_of(&x1))
        .unwrap()
        .wait()
        .unwrap();
    client
        .submit_ingest_batch_ns(2, &updates_of(&x2))
        .unwrap()
        .wait()
        .unwrap();
    client
        .submit_ingest_batch_ns(3, &updates_of(&x3))
        .unwrap()
        .wait()
        .unwrap();

    let mut laws = [
        LawTally::new(1, &x1, &L0Factory::default(), 2_400, 0.05),
        LawTally::new(2, &x2, &LpLe2Factory::for_universe(48, 2.0), 1_600, 0.3),
        LawTally::new(3, &x3, &PerfectLpFactory::for_universe(24, 3.0), 1_600, 0.6),
    ];

    // Interleave: every round touches every tenant, so the laws are
    // pinned while the neighbors are actively sampling.
    loop {
        let mut any = false;
        for law in laws.iter_mut() {
            if law.remaining == 0 {
                continue;
            }
            any = true;
            let take = law.remaining.min(400);
            law.remaining -= take;
            let ns = law.ns;
            law.tally(
                client
                    .submit_sample_many_ns(ns, take)
                    .unwrap()
                    .wait()
                    .unwrap(),
            );
        }
        if !any {
            break;
        }
    }
    for law in &laws {
        law.assert_law();
    }

    // Per-tenant stats are per-tenant: each namespace reports exactly its
    // own universe and stream.
    for (law, (n, support)) in laws.iter().zip([
        (32, x1.iter_nonzero().count()),
        (48, x2.iter_nonzero().count()),
        (24, x3.iter_nonzero().count()),
    ]) {
        let stats = client.submit_stats_ns(law.ns).unwrap().wait().unwrap();
        assert_eq!(stats.universe, n as u64, "tenant {} universe", law.ns);
        assert_eq!(stats.support, support as u64, "tenant {} support", law.ns);
    }

    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// Interleaved ingest into the neighbors never perturbs a tenant's draw
/// stream: every tenant on the shared server matches, draw for draw, a
/// single-tenant control server built from the identical engine
/// constructor and driven through the identical per-tenant call sequence.
#[test]
fn cross_tenant_isolation_is_draw_for_draw_against_controls() {
    let (server, mut client) = live_tenant_server();

    // One single-tenant control server per namespace: its *default*
    // engine is the same constructor the subject's spawner uses.
    let tenants = [1u64, 2, 3];
    let mut controls: Vec<(Server, Client)> = tenants
        .iter()
        .map(|&ns| {
            let control = pts_server::serve("127.0.0.1:0", tenant_engine(ns)).unwrap();
            let c = Client::connect(control.local_addr()).unwrap();
            (control, c)
        })
        .collect();
    for &ns in &tenants {
        client.submit_create_namespace(ns).unwrap().wait().unwrap();
    }

    // Interleaved rounds: every round, each tenant ingests a fresh batch
    // and draws — on the shared server *and* on its control — with the
    // other tenants' traffic in between on the shared server only.
    let universes = [32usize, 48, 24];
    for round in 0..6u64 {
        for (k, &ns) in tenants.iter().enumerate() {
            let n = universes[k];
            let x = zipf_vector(n, 1.0 + 0.1 * k as f64, 12, 100 * round + ns);
            let batch = updates_of(&x);
            let accepted = client
                .submit_ingest_batch_ns(ns, &batch)
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                accepted,
                controls[k]
                    .1
                    .submit_ingest_batch_ns(DEFAULT_NAMESPACE, &batch)
                    .unwrap()
                    .wait()
                    .unwrap()
            );

            let subject_draws = client.submit_sample_many_ns(ns, 8).unwrap().wait().unwrap();
            let control_draws = controls[k]
                .1
                .submit_sample_many_ns(DEFAULT_NAMESPACE, 8)
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                subject_draws, control_draws,
                "tenant {ns} diverged from its control in round {round} — tenancy leaked"
            );
        }
    }

    // Closing state is identical too: mass, counters, snapshot.
    for (k, &ns) in tenants.iter().enumerate() {
        let subject = client.submit_stats_ns(ns).unwrap().wait().unwrap();
        let control = controls[k]
            .1
            .submit_stats_ns(DEFAULT_NAMESPACE)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(subject.mass, control.mass, "tenant {ns} mass");
        assert_eq!(subject.updates, control.updates, "tenant {ns} updates");
        assert_eq!(subject.support, control.support, "tenant {ns} support");
        assert_eq!(
            client.submit_snapshot_ns(ns).unwrap().wait().unwrap(),
            controls[k]
                .1
                .submit_snapshot_ns(DEFAULT_NAMESPACE)
                .unwrap()
                .wait()
                .unwrap(),
            "tenant {ns} snapshot"
        );
    }

    client.submit_shutdown().unwrap().wait().unwrap();
    for (control, mut c) in controls {
        c.submit_shutdown().unwrap().wait().unwrap();
        control.join();
    }
    server.join();
}
