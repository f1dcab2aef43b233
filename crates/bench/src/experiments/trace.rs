//! TR1: wire v5 tracing overhead — traced at 1/256 vs untraced.
//!
//! The tracing contract (DESIGN.md §14) is "a no-op `Span` handle when a
//! request is untraced, and ≤5% request-rate overhead at 1-in-256
//! sampling when it isn't"; `tr1` is the experiment that holds the
//! implementation to it. Trace sampling is a per-connection run-time
//! setting ([`ClientConfig::trace_sampling`]), so both sides run in this
//! process against one loopback server, over the m1 depth-16 pipelined
//! `Stats` workload:
//!
//! * **untraced** — a client with trace sampling disabled: every request
//!   pays exactly one no-op `Span` decision;
//! * **traced 1/256** — a client sampling one request in 256 into the
//!   global `TraceRing`.
//!
//! Each side gets one discarded warmup pass, then trials alternate
//! between the two clients so machine drift hits both alike. The ≤5% gate
//! (traced vs untraced, best of N) is recorded in the table's `gate`
//! column.

use crate::experiments::multiplex::{depth_run, small_engine};
use pts_server::{serve, Client, ClientConfig};
use pts_util::table::fmt_sig;
use pts_util::Table;

/// The m1 sweet spot: deep enough to amortize round trips, small enough
/// that the server's dispatch path, not the demux table, is what's timed.
const DEPTH: usize = 16;
/// 1-in-N request sampling for the traced side — the rate the ≤5%
/// overhead gate is defined at.
const TRACE_EVERY: u64 = 256;
/// The overhead budget: traced at 1/256 may cost at most this fraction
/// of the untraced request rate.
const GATE_FRACTION: f64 = 0.05;

/// TR1 runner.
pub fn tr1_trace_overhead(quick: bool) -> Table {
    let trials = if quick { 5 } else { 7 };
    let total: u64 = if quick { 4_000 } else { 20_000 };
    let server = serve("127.0.0.1:0", small_engine(4242)).expect("bind loopback server");
    let mut clients = [
        ClientConfig::new(),
        ClientConfig::new().trace_sampling(TRACE_EVERY),
    ]
    .map(|config| {
        Client::connect_with(server.local_addr(), &config.max_in_flight(DEPTH)).expect("connect")
    });
    println!("  {total} requests per trial at depth {DEPTH}, best of {trials} per side");
    // One discarded warmup pass per side: cold caches and CPU frequency
    // ramp are not what best-of-N should see.
    for client in &mut clients {
        depth_run(client, total, DEPTH);
    }
    let mut best = [0.0f64; 2];
    for _ in 0..trials {
        for (client, best) in clients.iter_mut().zip(&mut best) {
            *best = best.max(total as f64 / depth_run(client, total, DEPTH));
        }
    }
    drop(clients);
    server.join();
    let [untraced, traced] = best;
    println!("  untraced:      {} req/s", fmt_sig(untraced, 3));
    println!("  traced 1/256:  {} req/s", fmt_sig(traced, 3));

    let trace_cost = (untraced / traced - 1.0) * 100.0;
    let gate = if trace_cost <= GATE_FRACTION * 100.0 {
        "pass".to_string()
    } else {
        format!("FAIL (> {:.0}%)", GATE_FRACTION * 100.0)
    };
    println!(
        "  traced-vs-untraced overhead {trace_cost:+.1}% — gate ≤{:.0}%: {gate}",
        GATE_FRACTION * 100.0
    );

    let mut table = Table::new(["config", "trials", "best req/sec", "overhead", "gate ≤5%"]);
    table.push_row([
        "untraced".into(),
        trials.to_string(),
        fmt_sig(untraced, 3),
        "baseline".into(),
        "-".into(),
    ]);
    table.push_row([
        "traced 1/256".into(),
        trials.to_string(),
        fmt_sig(traced, 3),
        format!("{trace_cost:+.1}%"),
        gate,
    ]);
    table
}
