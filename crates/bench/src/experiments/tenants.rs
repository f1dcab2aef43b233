//! MT1: wire v4 multi-tenancy — requests/sec and resident bytes/tenant
//! as the tenant count scales from thousands to a million.
//!
//! One loopback server with a spawner, one pipelined connection. For each
//! tier `T` the run creates `T` namespaces and ingests one small batch
//! into each (so every tenant holds live sampler state, not just a map
//! entry), driving both phases through a 64-deep in-flight window. Two
//! quantities per tier:
//!
//! * **requests/sec** — `2·T` requests (create + ingest) over wall-clock:
//!   the tenant map's sharded-lock dispatch path under churny, all-miss
//!   traffic. Dispatch itself is O(1) per request and no per-tenant
//!   threads exist to collide; at large `T` the wall-clock is dominated
//!   by faulting in each fresh engine's pages, so the rate measures
//!   spawn cost, not lookup degradation.
//! * **bytes/tenant** — the `VmRSS` delta across the tier divided by `T`:
//!   the marginal resident cost of one lazily-spawned engine (universe 64,
//!   one shard, pool of one L0 sampler). This is an allocator-level
//!   measurement, so small tiers are noisy (page granularity, free-list
//!   reuse); the million-tenant row is the honest one.

use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
use pts_server::{Client, ClientConfig, Pending, Server};
use pts_stream::Update;
use pts_util::table::fmt_sig;
use pts_util::Table;
use std::collections::VecDeque;
use std::time::Instant;

/// Tenant-count tiers (quick keeps CI smoke runs to seconds).
const QUICK_TIERS: [u64; 2] = [1_000, 10_000];
const FULL_TIERS: [u64; 3] = [10_000, 100_000, 1_000_000];
/// In-flight request window for both phases.
const DEPTH: usize = 64;

/// The leanest engine that still holds real sampler state.
fn tiny_engine(seed: u64) -> ShardedEngine<L0Factory> {
    ShardedEngine::new(
        EngineConfig::new(64).shards(1).pool_size(1).seed(seed),
        L0Factory::default(),
    )
}

/// Resident set size in bytes, from `/proc/self/status` (`None` off
/// Linux — the column degrades to `-`).
fn vm_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Drains the in-flight window down below `depth`, then pushes `pending`.
fn window_push<T>(window: &mut VecDeque<Pending<T>>, pending: Pending<T>, depth: usize) {
    if window.len() == depth {
        let front = window.pop_front().expect("non-empty window");
        front.wait().expect("response");
    }
    window.push_back(pending);
}

fn drain<T>(window: &mut VecDeque<Pending<T>>) {
    for pending in window.drain(..) {
        pending.wait().expect("response");
    }
}

/// One tier: returns (seconds for 2·T requests, bytes/tenant or None).
fn tier_run(tenants: u64) -> (f64, Option<u64>) {
    let server: Server = pts_server::serve_with_spawner("127.0.0.1:0", tiny_engine(0), tiny_engine)
        .expect("bind server");
    let config = ClientConfig::new().max_in_flight(DEPTH);
    let mut client = Client::connect_with(server.local_addr(), &config).expect("connect");

    let rss_before = vm_rss_bytes();
    let started = Instant::now();

    // Phase 1: create every namespace, pipelined.
    let mut creates: VecDeque<Pending<()>> = VecDeque::with_capacity(DEPTH);
    for ns in 1..=tenants {
        let pending = client.submit_create_namespace(ns).expect("submit create");
        window_push(&mut creates, pending, DEPTH);
    }
    drain(&mut creates);

    // Phase 2: one tiny ingest per tenant — forces the lazy spawn and
    // leaves live per-tenant sampler state behind for the RSS delta.
    let mut ingests: VecDeque<Pending<u64>> = VecDeque::with_capacity(DEPTH);
    for ns in 1..=tenants {
        let batch = [Update::new(ns % 64, 1 + (ns % 5) as i64)];
        let pending = client
            .submit_ingest_batch_ns(ns, &batch)
            .expect("submit ingest");
        window_push(&mut ingests, pending, DEPTH);
    }
    drain(&mut ingests);

    let secs = started.elapsed().as_secs_f64();
    let rss_after = vm_rss_bytes();

    // Spot-check a probe tenant actually holds its stream before teardown.
    let probe = tenants.max(2) / 2;
    let stats = client
        .submit_stats_ns(probe)
        .and_then(Pending::wait)
        .expect("probe stats");
    assert_eq!(stats.updates, 1, "tenant {probe} lost its ingest");

    let bytes_per_tenant = match (rss_before, rss_after) {
        (Some(b), Some(a)) => Some(a.saturating_sub(b) / tenants),
        _ => None,
    };

    client
        .submit_shutdown()
        .and_then(Pending::wait)
        .expect("shutdown");
    server.join();
    (secs, bytes_per_tenant)
}

/// MT1 runner.
pub fn mt1_tenants(quick: bool) -> Table {
    let tiers: &[u64] = if quick { &QUICK_TIERS } else { &FULL_TIERS };
    let mut table = Table::new(["tenants", "requests", "seconds", "req/sec", "bytes/tenant"]);
    for &tenants in tiers {
        let (secs, bytes_per_tenant) = tier_run(tenants);
        let requests = 2 * tenants;
        let rate = requests as f64 / secs;
        let bytes_cell = bytes_per_tenant
            .map(|b| b.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "  T={tenants}: {requests} requests in {secs:.3}s = {} req/s, {bytes_cell} bytes/tenant",
            fmt_sig(rate, 3)
        );
        table.push_row([
            tenants.to_string(),
            requests.to_string(),
            fmt_sig(secs, 3),
            fmt_sig(rate, 3),
            bytes_cell,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shape only — rates and RSS are machine-dependent; the flat-in-T
    /// claim lives in the recorded EXPERIMENTS.md runs.
    #[test]
    fn mt1_reports_every_tier() {
        let t = mt1_tenants(true);
        assert_eq!(t.len(), QUICK_TIERS.len());
        for (row, tenants) in t.rows().iter().zip(QUICK_TIERS) {
            assert_eq!(row[0], tenants.to_string(), "missing tier T={tenants}");
            assert_eq!(row[1], (2 * tenants).to_string(), "request count drifted");
        }
    }
}
