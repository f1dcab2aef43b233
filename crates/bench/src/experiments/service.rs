//! N1: service throughput — requests/sec over loopback vs batch size.
//!
//! Drives the same zipfian turnstile workload as `s1` through a live
//! `pts-server` on 127.0.0.1 (one `IngestBatch` request per batch, a
//! `Sample` request every 8 batches — the always-on serving mix), for
//! batch sizes `B ∈ {64, 256, 1024, 4096}`. The last row repeats the best
//! batch size **in-process** (no socket, same engine and call mix), so the
//! table directly prices the protocol: framing + checksum + TCP round
//! trip, amortized over `B` updates per request.
//!
//! Timing is gated on server-side completion: every run ends with a
//! `Stats` round trip before the clock stops, so the server has answered
//! every earlier request and none of the ingest is still in flight.

use pts_engine::{EngineConfig, LpLe2Factory, ShardedEngine};
use pts_server::{serve, Client, Pending};
use pts_stream::gen::zipf_vector;
use pts_stream::{Stream, StreamStyle};
use pts_util::protocol::DEFAULT_NAMESPACE;
use pts_util::table::fmt_sig;
use pts_util::{Table, Xoshiro256pp};
use std::time::Instant;

/// The batch sizes swept over loopback.
const BATCH_SIZES: [usize; 4] = [64, 256, 1024, 4096];
/// One sample request per this many ingest requests.
const QUERY_EVERY: usize = 8;

/// The fixed workload (the `s1` shape): one churny zipfian stream,
/// repeated to the target update count.
fn workload(quick: bool) -> (Stream, usize, usize) {
    let n = 1 << 12;
    let target_updates = if quick { 60_000 } else { 600_000 };
    let x = zipf_vector(n, 1.0, 500, 4242);
    let mut rng = Xoshiro256pp::new(4243);
    let base = Stream::from_target(&x, StreamStyle::Turnstile { churn: 1.0 }, &mut rng);
    let reps = target_updates / base.len().max(1) + 1;
    (base, reps, n)
}

fn engine(n: usize) -> ShardedEngine<LpLe2Factory> {
    let factory = LpLe2Factory::for_universe(n, 2.0);
    ShardedEngine::new(
        EngineConfig::new(n).shards(4).pool_size(2).seed(99),
        factory,
    )
}

/// N1 runner.
pub fn n1_service_throughput(quick: bool) -> Table {
    let (base, reps, n) = workload(quick);
    let mut table = Table::new([
        "transport",
        "batch",
        "requests",
        "updates",
        "seconds",
        "req/sec",
        "updates/sec",
    ]);

    for batch_len in BATCH_SIZES {
        let server = serve("127.0.0.1:0", engine(n)).expect("bind loopback");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let mut requests = 0u64;
        let started = Instant::now();
        for _ in 0..reps {
            for (b, batch) in base.batches(batch_len).enumerate() {
                client
                    .submit_ingest_batch_ns(DEFAULT_NAMESPACE, batch)
                    .and_then(Pending::wait)
                    .expect("ingest");
                requests += 1;
                if b % QUERY_EVERY == 0 {
                    let _ = client
                        .submit_sample_many_ns(DEFAULT_NAMESPACE, 1)
                        .and_then(Pending::wait)
                        .expect("sample round trip")
                        .pop()
                        .flatten();
                    requests += 1;
                }
            }
        }
        // Server-side completion gate (see module docs), also a request.
        let stats = client
            .submit_stats_ns(DEFAULT_NAMESPACE)
            .and_then(Pending::wait)
            .expect("stats");
        requests += 1;
        let elapsed = started.elapsed().as_secs_f64();
        client
            .submit_shutdown()
            .and_then(Pending::wait)
            .expect("shutdown");
        server.join();

        let req_rate = requests as f64 / elapsed;
        let upd_rate = stats.updates as f64 / elapsed;
        println!(
            "  loopback B={batch_len:>4}: {requests} requests, {} updates in {elapsed:.2}s = {} req/s, {} upd/s",
            stats.updates,
            fmt_sig(req_rate, 3),
            fmt_sig(upd_rate, 3)
        );
        table.push_row([
            "loopback".into(),
            batch_len.to_string(),
            requests.to_string(),
            stats.updates.to_string(),
            fmt_sig(elapsed, 3),
            fmt_sig(req_rate, 3),
            fmt_sig(upd_rate, 3),
        ]);
    }

    // The no-socket reference: identical engine and call mix, direct
    // method calls, at the largest swept batch size.
    let batch_len = *BATCH_SIZES.last().expect("non-empty sweep");
    let mut direct = engine(n);
    let mut calls = 0u64;
    let started = Instant::now();
    for _ in 0..reps {
        for (b, batch) in base.batches(batch_len).enumerate() {
            direct.ingest_batch(batch);
            calls += 1;
            if b % QUERY_EVERY == 0 {
                let _ = direct.sample();
                calls += 1;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let updates = direct.stats().updates;
    let req_rate = calls as f64 / elapsed;
    let upd_rate = updates as f64 / elapsed;
    println!(
        "  in-proc  B={batch_len:>4}: {calls} calls, {updates} updates in {elapsed:.2}s = {} call/s, {} upd/s",
        fmt_sig(req_rate, 3),
        fmt_sig(upd_rate, 3)
    );
    table.push_row([
        "in-proc".into(),
        batch_len.to_string(),
        calls.to_string(),
        updates.to_string(),
        fmt_sig(elapsed, 3),
        fmt_sig(req_rate, 3),
        fmt_sig(upd_rate, 3),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n1_reports_all_batch_sizes_plus_reference() {
        let t = n1_service_throughput(true);
        assert_eq!(t.len(), BATCH_SIZES.len() + 1);
        let md = t.to_markdown();
        for b in BATCH_SIZES {
            assert!(md.contains(&format!("| {b} ")), "missing row {b}: {md}");
        }
        assert!(md.contains("| in-proc "), "missing reference row: {md}");
    }
}
