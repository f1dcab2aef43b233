//! Protocol fuzz against a **live** loopback server, in the style of
//! `wire_roundtrip.rs`: hostile bytes must yield clean in-band error
//! responses — never a panic, never a hang — and the connection must
//! remain usable whenever the stream is still at a frame boundary (the
//! normative recoverable/fatal split in `pts_util::protocol`).
//!
//! Recoverable (same connection keeps working): byte-soup payloads inside
//! a valid envelope, truncation at every prefix of a request body, of the
//! request-id varint itself, of the namespace varint, *and* of the trace
//! field, the reserved id 0, duplicate ids, unknown namespaces
//! (dropped-then-used included), response frames where requests belong,
//! oversized *inner* length prefixes, checksum flips, version bumps.
//! Fatal (error response, then the server closes that connection — and
//! only that connection): bad magic, envelope length over the service
//! cap.
//!
//! Wire v5: every request payload is `varint request_id ‖ varint
//! namespace ‖ trace ‖ tag ‖ body` (`trace := 0 | trace_id ‖
//! parent_span_id`), and the server echoes the id on the response — or
//! answers under the reserved id 0 when the failure is unattributable
//! (unreadable id, frame-level error). A readable id with an unreadable
//! namespace or trace field *is* attributable: the error echoes the id.

use pts_engine::{EngineConfig, L0Factory, LpLe2Factory, ShardedEngine};
use pts_server::{serve, serve_with_spawner, Client, ClientConfig, ClientError, Pending};
use pts_stream::Update;
use pts_util::protocol::{
    write_request, ErrorCode, Request, RequestHeader, Response, ServiceError, TraceContext,
    DEFAULT_NAMESPACE,
};
use pts_util::wire::{write_frame, Encode, WireWriter, KIND_REQUEST, WIRE_MAGIC, WIRE_VERSION};
use pts_util::Xoshiro256pp;
use std::io::ErrorKind;
use std::time::Duration;

fn small_engine(seed: u64) -> ShardedEngine<L0Factory> {
    ShardedEngine::new(
        EngineConfig::new(64).shards(2).pool_size(1).seed(seed),
        L0Factory::default(),
    )
}

/// A live server over a small L0 engine, plus one connected client.
fn live_server() -> (pts_server::Server, Client) {
    let server = serve("127.0.0.1:0", small_engine(13)).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    (server, client)
}

/// A live server plus one client whose responses are due within 5 s, for
/// the fatal-frame tests: if the server left the connection half-open
/// instead of closing it, the next round trip would fail with `TimedOut`
/// (see [`expect_closed`]) rather than block forever.
fn live_server_with_deadline() -> (pts_server::Server, Client) {
    let server = serve("127.0.0.1:0", small_engine(13)).unwrap();
    let config = ClientConfig::new().read_timeout(Duration::from_secs(5));
    let client = Client::connect_with(server.local_addr(), &config).unwrap();
    (server, client)
}

/// Asserts the server has closed this connection: the next round trip
/// fails with a close, not with an expired response deadline.
fn expect_closed(client: &mut Client, context: &str) {
    match client
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .and_then(Pending::wait)
    {
        Err(ClientError::Io(e)) => assert!(
            !matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock),
            "{context}: the server left the connection open: {e}"
        ),
        Err(ClientError::Wire(_)) => {}
        other => panic!("{context}: wanted a closed connection, got {other:?}"),
    }
}

/// A live *multi-tenant* server (spawner attached), plus one client.
fn live_tenant_server() -> (pts_server::Server, Client) {
    let server = serve_with_spawner("127.0.0.1:0", small_engine(13), |ns| {
        small_engine(1000 + ns)
    })
    .unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    (server, client)
}

/// Frames `payload` as a well-formed `KIND_REQUEST` envelope (valid magic,
/// version, length, checksum) so only the *payload* is hostile.
fn enveloped(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(KIND_REQUEST, payload, &mut out).unwrap();
    out
}

/// A v5 request payload — `varint id ‖ varint ns ‖ trace 0 ‖ body` —
/// inside a valid envelope, so only the *body* (or the id/namespace
/// values themselves) is hostile. The trace field is the untraced
/// marker; `traced_frame` below builds the traced flavor.
fn enveloped_v5(id: u64, ns: u64, body: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(id);
    w.put_u64(ns);
    w.put_u64(0); // untraced
    let mut payload = w.as_bytes().to_vec();
    payload.extend_from_slice(body);
    enveloped(&payload)
}

/// A well-formed *traced* request frame: the v5 trace field populated
/// with `trace_id ‖ parent_span_id`.
fn traced_frame(id: u64, ns: u64, trace: TraceContext, request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    let header = RequestHeader {
        id,
        ns,
        trace: Some(trace),
    };
    write_request(&header, request, &mut out).unwrap();
    out
}

/// Asserts the next response is an in-band error of `code` carried under
/// `id` (0 = the failure was unattributable).
fn expect_error(client: &mut Client, id: u64, code: ErrorCode, context: &str) {
    match client.recv_response() {
        Ok((got_id, Response::Error(ServiceError { code: got, .. }))) => {
            assert_eq!(got, code, "{context}: wrong error code");
            assert_eq!(got_id, id, "{context}: wrong response id");
        }
        other => panic!("{context}: wanted error response, got {other:?}"),
    }
}

/// Asserts the connection still answers a real request correctly.
fn assert_usable(client: &mut Client, context: &str) {
    let stats = client
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .and_then(Pending::wait)
        .unwrap_or_else(|e| {
            panic!("{context}: connection unusable afterwards: {e}");
        });
    assert_eq!(stats.updates, 0, "{context}: fuzz must not mutate state");
}

#[test]
fn byte_soup_payloads_yield_errors_and_connection_survives() {
    let (server, mut client) = live_server();
    let mut rng = Xoshiro256pp::new(0xF00D);
    for round in 0..200 {
        let len = (rng.next_u64() % 40) as usize;
        let soup: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        // Skip the rare soup that *is* a valid request body (e.g. a lone
        // Stats tag): the point is malformed bodies under a sound id.
        if pts_util::wire::Decode::from_wire_bytes(&soup)
            .map(|_: Request| ())
            .is_ok()
        {
            continue;
        }
        client
            .send_raw(&enveloped_v5(round + 1, DEFAULT_NAMESPACE, &soup))
            .unwrap();
        expect_error(
            &mut client,
            round + 1,
            ErrorCode::Malformed,
            &format!("soup {round}"),
        );
    }
    assert_usable(&mut client, "after 200 soup rounds");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

#[test]
fn truncation_at_every_prefix_yields_errors_on_one_connection() {
    let (server, mut client) = live_server();
    let request = Request::IngestBatch(vec![(3, 5), (900, -2), (17, 1 << 40)]);
    let payload = request.to_wire_bytes().unwrap();
    // Every proper prefix of this body is malformed (the update count
    // promises more pairs than the bytes deliver), each under a sound id
    // inside a fresh valid envelope: error response under that id every
    // time, same connection throughout.
    for cut in 0..payload.len() {
        let id = cut as u64 + 1;
        client
            .send_raw(&enveloped_v5(id, DEFAULT_NAMESPACE, &payload[..cut]))
            .unwrap();
        expect_error(&mut client, id, ErrorCode::Malformed, &format!("cut {cut}"));
    }
    assert_usable(&mut client, "after truncation sweep");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// The header twin of the body-truncation sweep: truncation at every
/// prefix of the *request-id varint itself*. The id is unreadable, so the
/// error comes back under the reserved id 0 — and the connection
/// survives.
#[test]
fn truncation_at_every_prefix_of_the_id_field_yields_id_zero_errors() {
    let (server, mut client) = live_server();
    // u64::MAX is the maximal varint: ten bytes, every one continuation-
    // flagged except the last — so every proper prefix is an unterminated
    // varint.
    let mut w = WireWriter::new();
    w.put_u64(u64::MAX);
    let id_bytes = w.as_bytes().to_vec();
    assert_eq!(id_bytes.len(), 10, "u64::MAX must be the 10-byte varint");
    for cut in 0..id_bytes.len() {
        client.send_raw(&enveloped(&id_bytes[..cut])).unwrap();
        expect_error(
            &mut client,
            0,
            ErrorCode::Malformed,
            &format!("id cut {cut}"),
        );
    }
    // The full maximal id with nothing after it is a readable id whose
    // *namespace* is missing: attributable, so the error echoes u64::MAX.
    client.send_raw(&enveloped(&id_bytes)).unwrap();
    expect_error(&mut client, u64::MAX, ErrorCode::Malformed, "empty body");
    assert_usable(&mut client, "after id-truncation sweep");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// The reserved id 0 on a request — even one whose body is a perfectly
/// valid `Stats` — is rejected as unattributable (the error answers under
/// id 0) and the connection survives.
#[test]
fn request_id_zero_is_rejected_in_band() {
    let (server, mut client) = live_server();
    let body = Request::Stats.to_wire_bytes().unwrap();
    client
        .send_raw(&enveloped_v5(0, DEFAULT_NAMESPACE, &body))
        .unwrap();
    expect_error(&mut client, 0, ErrorCode::Malformed, "id 0 request");
    assert_usable(&mut client, "after id-0 request");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// The server does not police id reuse: two in-flight requests under the
/// same id are both answered (under that id, in submission order), and
/// interleaved distinct-id pipelining echoes every id exactly once.
/// Disambiguating duplicates is the client's problem — the typed client
/// never issues them.
#[test]
fn duplicate_and_interleaved_request_ids_are_echoed() {
    let (server, mut client) = live_server();

    // Two Stats under the same id, written back-to-back before reading.
    let mut twice = Vec::new();
    let header = RequestHeader {
        id: 7,
        ns: DEFAULT_NAMESPACE,
        trace: None,
    };
    write_request(&header, &Request::Stats, &mut twice).unwrap();
    write_request(&header, &Request::Stats, &mut twice).unwrap();
    client.send_raw(&twice).unwrap();
    for round in 0..2 {
        match client.recv_response() {
            Ok((7, Response::Stats(_))) => {}
            other => panic!("duplicate id round {round}: got {other:?}"),
        }
    }

    // A pipelined burst of distinct ids: every id comes back exactly once.
    let ids: Vec<u64> = (100..132).collect();
    let mut burst = Vec::new();
    for &id in &ids {
        let header = RequestHeader {
            id,
            ns: DEFAULT_NAMESPACE,
            trace: None,
        };
        write_request(&header, &Request::Stats, &mut burst).unwrap();
    }
    client.send_raw(&burst).unwrap();
    let mut seen = Vec::new();
    for _ in &ids {
        match client.recv_response() {
            Ok((id, Response::Stats(_))) => seen.push(id),
            other => panic!("interleaved burst: got {other:?}"),
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, ids, "every pipelined id must be echoed exactly once");

    assert_usable(&mut client, "after id fuzz");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

#[test]
fn oversized_inner_length_prefix_is_rejected_without_allocation() {
    let (server, mut client) = live_server();
    // An IngestBatch whose count varint claims ~2^62 updates backed by
    // two bytes: the allocation-capped decode must reject it in-band.
    let mut w = WireWriter::new();
    w.put_u8(0x01); // IngestBatch tag
    w.put_u64(1 << 62);
    w.put_u8(0x00);
    w.put_u8(0x00);
    client
        .send_raw(&enveloped_v5(1, DEFAULT_NAMESPACE, w.as_bytes()))
        .unwrap();
    expect_error(&mut client, 1, ErrorCode::Malformed, "oversized count");

    // Same attack through the Restore blob length.
    let mut w = WireWriter::new();
    w.put_u8(0x06); // Restore tag
    w.put_u64(u64::MAX); // blob "length"
    client
        .send_raw(&enveloped_v5(2, DEFAULT_NAMESPACE, w.as_bytes()))
        .unwrap();
    expect_error(&mut client, 2, ErrorCode::Malformed, "oversized blob");

    assert_usable(&mut client, "after oversized-length attacks");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

#[test]
fn checksum_flip_version_bump_and_wrong_kind_are_recoverable() {
    let (server, mut client) = live_server();

    let mut good = Vec::new();
    let header = RequestHeader {
        id: 1,
        ns: DEFAULT_NAMESPACE,
        trace: None,
    };
    write_request(&header, &Request::Stats, &mut good).unwrap();

    // Flip each payload/checksum byte in turn: every flip is caught by
    // the checksum and answered under id 0 (the frame can't be trusted,
    // its id included), connection intact. (The frame is magic(4) ‖
    // version ‖ kind ‖ len, so payload + checksum start at offset 7;
    // flipping the *length* byte destroys framing itself and is fatal by
    // design, and the version byte is exercised separately below.)
    for i in 7..good.len() {
        let mut corrupt = good.clone();
        corrupt[i] ^= 0x40;
        client.send_raw(&corrupt).unwrap();
        expect_error(&mut client, 0, ErrorCode::Malformed, &format!("flip {i}"));
    }

    // Unknown envelope version.
    let mut bumped = good.clone();
    bumped[4] = WIRE_VERSION + 1;
    client.send_raw(&bumped).unwrap();
    expect_error(&mut client, 0, ErrorCode::Malformed, "version bump");

    // A response frame where a request belongs — including a "response"
    // to an id this connection never issued. The kind check rejects it
    // before any id is looked at.
    let mut as_response = Vec::new();
    pts_util::protocol::write_response(0xDEAD, &Response::Restored, &mut as_response).unwrap();
    client.send_raw(&as_response).unwrap();
    expect_error(&mut client, 0, ErrorCode::Malformed, "wrong kind");

    assert_usable(&mut client, "after framing corruption sweep");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// The no-silent-work rule, exercised as raw hostile frames: an empty
/// `IngestBatch` and a zero `Sample` count are in-band recoverable
/// errors, never silently-accepted no-ops — and the connection survives.
#[test]
fn empty_batch_and_zero_sample_count_are_in_band_errors() {
    let (server, mut client) = live_server();

    // IngestBatch with count 0 (tag 0x01, varint 0).
    client
        .send_raw(&enveloped_v5(1, DEFAULT_NAMESPACE, &[0x01, 0x00]))
        .unwrap();
    expect_error(&mut client, 1, ErrorCode::Malformed, "empty ingest batch");

    // Sample with count 0 (tag 0x02, varint 0).
    client
        .send_raw(&enveloped_v5(2, DEFAULT_NAMESPACE, &[0x02, 0x00]))
        .unwrap();
    expect_error(&mut client, 2, ErrorCode::Malformed, "zero sample count");

    // The typed client surfaces the same rejection in-band.
    match client
        .submit_ingest_batch_ns(DEFAULT_NAMESPACE, &[])
        .and_then(Pending::wait)
    {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Malformed),
        other => panic!("empty batch must be a server error, got {other:?}"),
    }

    assert_usable(&mut client, "after no-op-work rejections");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// An L₂ engine over a universe of 64.
fn lp_engine(seed: u64) -> ShardedEngine<LpLe2Factory> {
    ShardedEngine::new(
        EngineConfig::new(64).shards(2).pool_size(1).seed(seed),
        LpLe2Factory::for_universe(64, 2.0),
    )
}

/// A served `Restore` of a checkpoint whose L₂ sketch shape is too large
/// to allocate is refused with a typed error, so no later draw can abort
/// the process: the addressed namespace keeps its state and, like every
/// other namespace on the server, still samples.
#[test]
fn restore_of_an_unallocatable_sketch_shape_is_refused_in_band() {
    let server =
        serve_with_spawner("127.0.0.1:0", lp_engine(21), |ns| lp_engine(100 + ns)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut hostile = LpLe2Factory::for_universe(64, 2.0);
    hostile.params.buckets = 1 << 40;
    let mut forged = ShardedEngine::new(
        EngineConfig::new(64).shards(2).pool_size(1).seed(21),
        hostile,
    );
    forged.ingest_batch(&[Update::new(3, 5)]);
    let mut checkpoint = Vec::new();
    forged.checkpoint(&mut checkpoint).unwrap();

    client.submit_create_namespace(7).unwrap().wait().unwrap();
    match client
        .submit_restore_ns(7, &checkpoint)
        .and_then(Pending::wait)
    {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Malformed),
        other => panic!("hostile restore must be a server error, got {other:?}"),
    }
    for ns in [7, DEFAULT_NAMESPACE] {
        let batch = [Update::new(9, 4), Update::new(30, -3)];
        client
            .submit_ingest_batch_ns(ns, &batch)
            .and_then(Pending::wait)
            .unwrap();
        let draws = client
            .submit_sample_many_ns(ns, 8)
            .and_then(Pending::wait)
            .unwrap();
        assert!(draws.iter().flatten().count() > 0, "ns {ns} drew nothing");
        assert!(
            draws
                .iter()
                .flatten()
                .all(|s| s.index == 9 || s.index == 30),
            "ns {ns}: {draws:?}"
        );
    }
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// A `Restore` carrying a version-5 checkpoint (the engine pinned by
/// `checkpoint_restore.rs`, captured before the v6 layout) is answered
/// with an in-band error; the tenant keeps its state and the connection
/// keeps working.
#[test]
fn a_version_5_checkpoint_restore_is_refused_in_band() {
    let hex = include_str!("../../engine/tests/fixtures/checkpoint_v5.hex").trim();
    let v5: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let (server, mut client) = live_server();
    match client
        .submit_restore_ns(DEFAULT_NAMESPACE, &v5)
        .and_then(Pending::wait)
    {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Malformed);
            assert!(e.message.contains("version 5"), "{}", e.message);
        }
        other => panic!("a v5 checkpoint must be refused in-band, got {other:?}"),
    }
    assert_usable(&mut client, "after a v5 restore");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// The `Stats` response carries the engine's universe (what the cluster
/// coordinator validates slice assignments against), and its decoder
/// rejects truncation at every prefix — the response-side twin of the
/// request fuzz above.
#[test]
fn stats_response_reports_universe_and_rejects_truncation() {
    let (server, mut client) = live_server();
    let stats = client
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(stats.universe, 64, "served universe must cross the wire");

    // Client-side adversarial safety: every proper prefix of a real
    // Stats response payload must error, never panic or misdecode.
    let payload = Response::Stats(stats).to_wire_bytes().unwrap();
    for cut in 0..payload.len() {
        assert!(
            <Response as pts_util::wire::Decode>::from_wire_bytes(&payload[..cut]).is_err(),
            "stats cut at {cut} decoded"
        );
    }

    // And the connection still serves the cluster's scatter path.
    assert_eq!(
        client
            .submit_stats_ns(DEFAULT_NAMESPACE)
            .unwrap()
            .wait()
            .unwrap()
            .universe,
        64
    );
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

#[test]
fn bad_magic_gets_an_error_then_a_clean_close_and_server_survives() {
    let (server, mut client) = live_server_with_deadline();

    // Raw soup on the wire (no envelope): framing is unrecoverable. The
    // server still answers in-band (under id 0 — no id ever arrived) —
    // then closes this connection only.
    client.send_raw(b"GARBAGE GARBAGE GARBAGE!").unwrap();
    expect_error(&mut client, 0, ErrorCode::Malformed, "raw soup");
    // The connection is now closed: the next round trip fails cleanly.
    expect_closed(&mut client, "after raw soup");

    // The server itself is fine: fresh connections work.
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        fresh
            .submit_ingest_batch_ns(DEFAULT_NAMESPACE, &[Update::new(1, 1)])
            .unwrap()
            .wait()
            .unwrap(),
        1
    );
    fresh.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

#[test]
fn envelope_length_over_cap_is_too_large_then_close() {
    let (server, mut client) = live_server_with_deadline();

    // magic | version | kind | len = MAX_FRAME_BYTES + 1 — rejected from
    // the length field alone, before any "payload" is read.
    let mut frame = Vec::new();
    frame.extend_from_slice(&WIRE_MAGIC);
    frame.push(WIRE_VERSION);
    frame.push(KIND_REQUEST);
    let mut w = WireWriter::new();
    w.put_u64(pts_util::protocol::MAX_FRAME_BYTES + 1);
    frame.extend_from_slice(w.as_bytes());
    client.send_raw(&frame).unwrap();
    expect_error(&mut client, 0, ErrorCode::TooLarge, "over-cap length");
    expect_closed(&mut client, "after an over-cap length");

    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert_usable(&mut fresh, "server after over-cap frame");
    fresh.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// An unknown namespace is an in-band *recoverable* error: answered under
/// the request's own id with `ErrorCode::UnknownNamespace`, connection
/// intact — both as raw frames and through the typed client. Addressing a
/// namespace never creates it as a side effect.
#[test]
fn unknown_namespace_is_in_band_recoverable() {
    let (server, mut client) = live_server();

    // Raw frame: Stats addressed to a namespace nobody created.
    let body = Request::Stats.to_wire_bytes().unwrap();
    client.send_raw(&enveloped_v5(9, 424242, &body)).unwrap();
    expect_error(
        &mut client,
        9,
        ErrorCode::UnknownNamespace,
        "raw unknown ns",
    );

    // Typed client: the same rejection surfaces as a recoverable server
    // error, for read-only and mutating kinds alike.
    let err = client
        .submit_stats_ns(77)
        .and_then(Pending::wait)
        .expect_err("stats on unknown ns");
    match &err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::UnknownNamespace),
        other => panic!("wanted UnknownNamespace, got {other:?}"),
    }
    assert!(
        err.is_recoverable(),
        "an unknown namespace is scoped to its request"
    );
    let err = client
        .submit_ingest_batch_ns(77, &[Update::new(1, 1)])
        .and_then(Pending::wait)
        .expect_err("ingest on unknown ns");
    match &err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::UnknownNamespace),
        other => panic!("wanted UnknownNamespace, got {other:?}"),
    }

    assert_usable(&mut client, "after unknown-namespace probes");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// Truncation at every prefix of the *namespace varint*: the id before it
/// was readable, so — unlike id truncation — every error is answered
/// under the request's own id, and the connection survives.
#[test]
fn truncation_at_every_prefix_of_the_namespace_field_echoes_the_id() {
    let (server, mut client) = live_server();
    // u64::MAX is the maximal varint: ten bytes, every proper prefix an
    // unterminated varint.
    let mut w = WireWriter::new();
    w.put_u64(u64::MAX);
    let ns_bytes = w.as_bytes().to_vec();
    assert_eq!(ns_bytes.len(), 10, "u64::MAX must be the 10-byte varint");
    for cut in 0..ns_bytes.len() {
        let id = cut as u64 + 1;
        let mut w = WireWriter::new();
        w.put_u64(id);
        let mut payload = w.as_bytes().to_vec();
        payload.extend_from_slice(&ns_bytes[..cut]);
        client.send_raw(&enveloped(&payload)).unwrap();
        expect_error(
            &mut client,
            id,
            ErrorCode::Malformed,
            &format!("ns cut {cut}"),
        );
    }
    // The full namespace with nothing after it is a readable header whose
    // *body* is missing: still Malformed under the id — not
    // UnknownNamespace, because the request never decoded.
    let mut w = WireWriter::new();
    w.put_u64(99);
    let mut payload = w.as_bytes().to_vec();
    payload.extend_from_slice(&ns_bytes);
    client.send_raw(&enveloped(&payload)).unwrap();
    expect_error(&mut client, 99, ErrorCode::Malformed, "empty body after ns");
    assert_usable(&mut client, "after ns-truncation sweep");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// Id 0 combined with every namespace flavor — default, unknown, maximal
/// — is rejected under id 0 before the namespace is even considered, and
/// a `CreateNamespace` under id 0 creates nothing.
#[test]
fn request_id_zero_wins_over_namespace_errors() {
    let (server, mut client) = live_tenant_server();
    let body = Request::Stats.to_wire_bytes().unwrap();
    for ns in [DEFAULT_NAMESPACE, 424242, u64::MAX] {
        client.send_raw(&enveloped_v5(0, ns, &body)).unwrap();
        expect_error(
            &mut client,
            0,
            ErrorCode::Malformed,
            &format!("id 0 ns {ns}"),
        );
    }
    let create = Request::CreateNamespace.to_wire_bytes().unwrap();
    client.send_raw(&enveloped_v5(0, 31, &create)).unwrap();
    expect_error(&mut client, 0, ErrorCode::Malformed, "id 0 create");
    assert_eq!(
        client.submit_list_namespaces().unwrap().wait().unwrap(),
        vec![DEFAULT_NAMESPACE],
        "a dead-on-arrival create must not leave a tenant behind"
    );
    assert_usable(&mut client, "after id-0/namespace sweep");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// Truncation at every prefix of the *trace field* (wire v5): the id
/// before it was readable, so every error is answered under the
/// request's own id — and the connection survives, because each hostile
/// frame is still a sound envelope (the stream stays at a frame
/// boundary).
#[test]
fn truncation_at_every_prefix_of_the_trace_field_echoes_the_id() {
    let (server, mut client) = live_server();
    // A maximal trace field: trace_id and parent_span_id both u64::MAX,
    // ten continuation-flagged bytes each — every proper prefix either
    // tears a varint or loses the parent outright.
    let mut w = WireWriter::new();
    w.put_u64(u64::MAX);
    w.put_u64(u64::MAX);
    let trace_bytes = w.as_bytes().to_vec();
    assert_eq!(trace_bytes.len(), 20, "maximal trace must be 20 bytes");
    for cut in 0..trace_bytes.len() {
        let id = cut as u64 + 1;
        let mut w = WireWriter::new();
        w.put_u64(id);
        w.put_u64(DEFAULT_NAMESPACE);
        let mut payload = w.as_bytes().to_vec();
        payload.extend_from_slice(&trace_bytes[..cut]);
        client.send_raw(&enveloped(&payload)).unwrap();
        expect_error(
            &mut client,
            id,
            ErrorCode::Malformed,
            &format!("trace cut {cut}"),
        );
    }
    // The full trace field with nothing after it is a readable header
    // whose *body* is missing: still Malformed, still under the id.
    let mut w = WireWriter::new();
    w.put_u64(99);
    w.put_u64(DEFAULT_NAMESPACE);
    let mut payload = w.as_bytes().to_vec();
    payload.extend_from_slice(&trace_bytes);
    client.send_raw(&enveloped(&payload)).unwrap();
    expect_error(
        &mut client,
        99,
        ErrorCode::Malformed,
        "empty body after trace",
    );
    assert_usable(&mut client, "after trace-truncation sweep");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// The trace field composes with **every** request tag: a populated
/// `trace_id ‖ parent_span_id` in front of each request kind decodes and
/// dispatches exactly like its untraced twin — no kind is allowed to
/// misparse the trace bytes as part of its body.
#[test]
fn trace_field_rides_every_request_kind() {
    let (server, mut client) = live_tenant_server();
    let ctx = TraceContext {
        trace_id: 0xDECAF,
        parent_span_id: 7,
    };
    let checkpoint = client
        .submit_checkpoint_ns(DEFAULT_NAMESPACE)
        .unwrap()
        .wait()
        .unwrap();
    let script: Vec<(u64, u64, Request)> = vec![
        (1, 9, Request::CreateNamespace),
        (2, 9, Request::IngestBatch(vec![(3, 5), (9, -2)])),
        (3, 9, Request::Sample { count: 2 }),
        (4, 9, Request::Snapshot),
        (5, 9, Request::Stats),
        (6, 9, Request::Checkpoint),
        (7, DEFAULT_NAMESPACE, Request::Restore(checkpoint)),
        (8, DEFAULT_NAMESPACE, Request::ListNamespaces),
        (9, 9, Request::DropNamespace),
    ];
    for (id, ns, request) in script {
        client
            .send_raw(&traced_frame(id, ns, ctx, &request))
            .unwrap();
        match client.recv_response() {
            Ok((got_id, Response::Error(e))) => {
                panic!("traced {request:?} (id {id}) errored under {got_id}: {e:?}")
            }
            Ok((got_id, _)) => assert_eq!(got_id, id, "traced {request:?}: wrong response id"),
            Err(e) => panic!("traced {request:?} (id {id}) failed: {e}"),
        }
    }
    assert_usable(&mut client, "after traced sweep of every kind");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// Untraced and traced requests interleave freely on one connection: a
/// pipelined burst alternating the two flavors echoes every id exactly
/// once, all Stats, nothing cross-resolved.
#[test]
fn untraced_and_traced_requests_interleave_on_one_connection() {
    let (server, mut client) = live_server();
    let ids: Vec<u64> = (1..=16).collect();
    let mut burst = Vec::new();
    for &id in &ids {
        let trace = (id % 2 == 0).then_some(TraceContext {
            trace_id: 0x1000 + id,
            parent_span_id: id,
        });
        let header = RequestHeader {
            id,
            ns: DEFAULT_NAMESPACE,
            trace,
        };
        write_request(&header, &Request::Stats, &mut burst).unwrap();
    }
    client.send_raw(&burst).unwrap();
    let mut seen = Vec::new();
    for _ in &ids {
        match client.recv_response() {
            Ok((id, Response::Stats(_))) => seen.push(id),
            other => panic!("interleaved trace burst: got {other:?}"),
        }
    }
    seen.sort_unstable();
    assert_eq!(
        seen, ids,
        "every interleaved id must be echoed exactly once"
    );
    assert_usable(&mut client, "after traced/untraced interleave");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// Drop-then-use, sequenced and raced. Sequenced on one connection the
/// outcome is deterministic (per-connection FIFO): requests before the
/// drop land, requests after answer `UnknownNamespace`, and recreating
/// the namespace yields a *fresh* engine. Raced from a second connection
/// the use lands either before or after the drop — both in-band, never a
/// panic or a poisoned connection.
#[test]
fn drop_then_use_is_unknown_namespace_and_race_stays_in_band() {
    let (server, mut client) = live_tenant_server();

    client.submit_create_namespace(5).unwrap().wait().unwrap();
    assert_eq!(
        client
            .submit_ingest_batch_ns(5, &[Update::new(3, 5)])
            .unwrap()
            .wait()
            .unwrap(),
        1
    );

    // Pipelined on one connection: ingest, drop, ingest — FIFO makes the
    // first land and the second die.
    let before = client
        .submit_ingest_batch_ns(5, &[Update::new(4, 1)])
        .unwrap();
    let dropped = client.submit_drop_namespace(5).unwrap();
    let after = client
        .submit_ingest_batch_ns(5, &[Update::new(9, 1)])
        .unwrap();
    assert_eq!(before.wait().unwrap(), 1, "pre-drop request must land");
    dropped.wait().unwrap();
    let err = after.wait().expect_err("post-drop request must fail");
    match &err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::UnknownNamespace),
        other => panic!("wanted UnknownNamespace, got {other:?}"),
    }
    assert!(
        err.is_recoverable(),
        "drop-then-use is scoped to its request"
    );

    // Recreate: the tenant comes back *empty* (a fresh spawner build, not
    // the dropped engine).
    client.submit_create_namespace(5).unwrap().wait().unwrap();
    assert_eq!(
        client.submit_stats_ns(5).unwrap().wait().unwrap().updates,
        0,
        "recreate must yield a fresh engine"
    );

    // Race from a second connection: landing order is genuinely
    // nondeterministic, but every outcome is in-band and both connections
    // survive.
    let mut racer = Client::connect(server.local_addr()).unwrap();
    for round in 0..20u64 {
        let ns = 100 + round;
        client.submit_create_namespace(ns).unwrap().wait().unwrap();
        let use_pending = racer
            .submit_ingest_batch_ns(ns, &[Update::new(1, 1)])
            .unwrap();
        let drop_pending = client.submit_drop_namespace(ns).unwrap();
        match use_pending.wait() {
            Ok(1) => {}
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::UnknownNamespace, "round {round}");
            }
            other => panic!("round {round}: raced use must land or miss in-band, got {other:?}"),
        }
        drop_pending.wait().unwrap();
    }
    assert_usable(&mut racer, "racer after drop races");
    assert_usable(&mut client, "after drop races");
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// A batch that would carry a net value out of `(-2^63, 2^63)` is refused
/// whole and in-band with its own code, `ValueOverflow` (wire v6):
/// `i64::MAX` then `2`, `i64::MIN` alone, and a pair that overflows while
/// it is coalesced. The tenant's state is untouched
/// and the connection keeps working.
#[test]
fn overflowing_net_values_are_rejected_whole_and_in_band() {
    fn ingest(client: &mut Client, pairs: &[(u64, i64)]) -> Result<u64, ClientError> {
        let batch: Vec<Update> = pairs.iter().map(|&(i, d)| Update::new(i, d)).collect();
        client
            .submit_ingest_batch_ns(DEFAULT_NAMESPACE, &batch)
            .and_then(Pending::wait)
    }
    fn entries(client: &mut Client) -> Vec<(u64, i64)> {
        let snapshot = client.submit_snapshot_ns(DEFAULT_NAMESPACE);
        snapshot.and_then(Pending::wait).unwrap().entries().to_vec()
    }
    let (server, mut client) = live_server();
    type Pairs = &'static [(u64, i64)];
    let cases: [(&str, Pairs, Pairs); 3] = [
        ("i64::MAX then 2", &[(0, i64::MAX)], &[(9, 5), (0, 2)]),
        ("i64::MIN alone", &[], &[(1, i64::MIN)]),
        (
            "pair overflowing in coalesce",
            &[],
            &[(5, i64::MAX), (6, 1), (5, 1)],
        ),
    ];
    for (context, prefix, bad) in cases {
        if !prefix.is_empty() {
            ingest(&mut client, prefix).unwrap_or_else(|e| panic!("{context}: {e}"));
        }
        let before = entries(&mut client);
        match ingest(&mut client, bad) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::ValueOverflow, "{context}");
            }
            other => panic!("{context}: wanted an in-band error, got {other:?}"),
        }
        assert_eq!(entries(&mut client), before, "{context}");
        let stats = client
            .submit_stats_ns(DEFAULT_NAMESPACE)
            .and_then(Pending::wait)
            .unwrap_or_else(|e| panic!("{context}: connection unusable: {e}"));
        assert!(stats.mass.is_finite(), "{context}: mass {}", stats.mass);
    }
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}
