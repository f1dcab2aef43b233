//! Pins the Prometheus text exposition format, byte for byte.
//!
//! A scraper config written against one release must parse every later
//! release, so the rendered grammar — `# TYPE` placement, name mangling,
//! label syntax, histogram expansion, ordering — is a compatibility
//! surface like the wire format. The exact-string pin covers the
//! snapshot renderer; the registry round-trip checks that the live
//! registry renders through the same grammar.

use pts_obs::{HistogramSnapshot, MetricPoint, MetricValue, MetricsSnapshot};

/// The exact text a handcrafted snapshot must render to. Any diff here is
/// a breaking change for deployed scrapers — change it knowingly.
#[test]
fn exposition_format_is_pinned() {
    let snapshot = MetricsSnapshot {
        points: vec![
            MetricPoint {
                name: "server.conn.active",
                label: None,
                value: MetricValue::Gauge(-2),
            },
            MetricPoint {
                name: "server.lat.ns",
                label: None,
                value: MetricValue::Histogram(HistogramSnapshot {
                    buckets: vec![(0, 1), (1, 2), (3, 4)],
                    count: 5,
                    sum: 1006,
                }),
            },
            MetricPoint {
                name: "server.requests",
                label: Some(("kind", "ingest")),
                value: MetricValue::Counter(7),
            },
            MetricPoint {
                name: "server.requests",
                label: Some(("kind", "weird \"k\"\n\\end")),
                value: MetricValue::Counter(1),
            },
        ],
    };
    let expected = "\
# TYPE pts_server_conn_active gauge
pts_server_conn_active -2
# TYPE pts_server_lat_ns histogram
pts_server_lat_ns_bucket{le=\"0\"} 1
pts_server_lat_ns_bucket{le=\"1\"} 2
pts_server_lat_ns_bucket{le=\"3\"} 4
pts_server_lat_ns_bucket{le=\"+Inf\"} 5
pts_server_lat_ns_sum 1006
pts_server_lat_ns_count 5
# TYPE pts_server_requests counter
pts_server_requests{kind=\"ingest\"} 7
pts_server_requests{kind=\"weird \\\"k\\\"\\n\\\\end\"} 1
";
    assert_eq!(snapshot.render_prometheus(), expected);
}

/// The live registry renders through the same pinned grammar: real
/// handles, real atomics, deterministic byte-identical repeat renders.
#[test]
fn registry_round_trip_matches_pinned_grammar() {
    let r = pts_obs::registry();
    r.counter("pin.requests").add(3);
    r.counter_labeled("pin.hits", "kind", "b").add(2);
    r.counter_labeled("pin.hits", "kind", "a").inc();
    r.gauge("pin.active").add(7);
    let h = r.histogram("pin.lat");
    for v in [0u64, 1, 2, 3, 1000] {
        h.observe(v);
    }

    let text = pts_obs::render_prometheus();
    for line in [
        "# TYPE pts_pin_requests counter\npts_pin_requests 3\n",
        // Labeled series sort by label value regardless of registration
        // order.
        "pts_pin_hits{kind=\"a\"} 1\npts_pin_hits{kind=\"b\"} 2\n",
        "pts_pin_active 7\n",
        // Cumulative log-bucket counts: 0 ≤ le=0, 1 ≤ le=1, {2,3} ≤ le=3,
        // 1000 ≤ le=1023.
        "pts_pin_lat_bucket{le=\"0\"} 1\n",
        "pts_pin_lat_bucket{le=\"1\"} 2\n",
        "pts_pin_lat_bucket{le=\"3\"} 4\n",
        "pts_pin_lat_bucket{le=\"7\"} 4\n",
        "pts_pin_lat_bucket{le=\"1023\"} 5\n",
        "pts_pin_lat_bucket{le=\"+Inf\"} 5\n",
        "pts_pin_lat_sum 1006\npts_pin_lat_count 5\n",
    ] {
        assert!(text.contains(line), "missing {line:?} in:\n{text}");
    }
    assert_eq!(
        text,
        pts_obs::render_prometheus(),
        "unchanged state must render byte-identically"
    );
}
