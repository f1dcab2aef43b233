//! The service protocol: framed request/response messages for driving a
//! sampling engine over a byte stream.
//!
//! [`crate::wire`] gives engine state a durable byte encoding; this module
//! gives a *conversation* one. A client sends [`Request`] frames, a server
//! answers each with exactly one [`Response`] frame, over any reliable
//! byte stream (`pts-server` runs it over TCP). The module is
//! transport-agnostic and dependency-free: everything here is plain
//! `std::io`.
//!
//! Since wire version 3 the conversation is **multiplexed**: every
//! request carries a client-assigned `request_id` which its response
//! echoes verbatim, so one connection can hold many requests in flight
//! and the server may answer them **in any order**. A client that wants
//! the old lockstep behavior simply keeps one request in flight.
//!
//! Since wire version 4 the conversation is **multi-tenant**: every
//! request also carries a varint `namespace` id (after the request id),
//! addressing one of many logical tenant engines served by the same
//! endpoint. Namespace [`DEFAULT_NAMESPACE`] (0) is the default tenant
//! every server has, so a single-tenant caller simply sends 0 everywhere.
//!
//! Since wire version 5 the conversation is **traceable**: every request
//! also carries a varint-framed *trace context* (after the namespace) —
//! a single `0` varint for untraced requests, or `trace_id ‖
//! parent_span_id` for requests sampled into a distributed trace
//! ([`TraceContext`]). Responses are unchanged.
//!
//! # Frame layout (normative)
//!
//! Every protocol message is one [`crate::wire`] envelope:
//!
//! ```text
//! offset  bytes  field
//! 0       4      magic        "PTSW" (0x50 0x54 0x53 0x57)
//! 4       1      version      WIRE_VERSION (currently 0x05)
//! 5       1      kind         KIND_REQUEST (0x04) or KIND_RESPONSE (0x05)
//! 6       1–10   len          payload length, LEB128 varint
//! 6+|len| len    payload      request: varint request_id ‖ varint namespace ‖
//!                                      trace ‖ body
//!                             response: varint request_id ‖ body (below)
//! …       8      checksum     FNV-1a 64 over version ‖ kind ‖ payload,
//!                             little-endian (see [`crate::wire::fnv1a64`])
//! ```
//!
//! # Request ids (normative)
//!
//! Every request and response payload **leads with a varint
//! `request_id`**, ahead of everything else:
//!
//! * A request's id is client-assigned and must be **≥ 1**; a request
//!   carrying id 0 fails decode (and draws a recoverable `malformed`
//!   error response, per the semantics below).
//! * A response echoes its request's id verbatim. The server does not
//!   police id reuse — correlating responses is the client's problem,
//!   and the reference client assigns ids sequentially.
//! * Id **0** is reserved for *unattributable* server error responses:
//!   when a request payload is so damaged that even its leading id
//!   varint cannot be read (or the framing itself failed), the server
//!   still answers — with the error response carrying id 0.
//!
//! # Namespaces (normative)
//!
//! Every request payload carries a varint `namespace` id **between the
//! request id and the tag byte** (responses carry no namespace — the
//! echoed request id already identifies the conversation):
//!
//! * Namespace [`DEFAULT_NAMESPACE`] (**0**) is the default tenant: it
//!   exists on every server from startup and cannot be dropped.
//! * Any other namespace must be created with `CreateNamespace` before
//!   engine requests can address it; an engine-scoped request naming a
//!   namespace the server does not host draws a recoverable
//!   [`ErrorCode::UnknownNamespace`] error response.
//! * `Shutdown` and `ListNamespaces` are server-scoped: their namespace
//!   field is carried but ignored. `CreateNamespace` and `DropNamespace`
//!   take the header namespace as their **operand** (their bodies stay
//!   empty).
//! * A namespace field that cannot be read (truncated varint) is a
//!   payload decode failure: the server answers `malformed` under the
//!   request's own id, which *was* readable.
//!
//! # Trace context (normative)
//!
//! Every request payload carries a varint-framed trace context **between
//! the namespace and the tag byte** (responses carry none — a response
//! is correlated by its echoed request id):
//!
//! ```text
//! trace := varint 0                                  (untraced)
//!        | varint trace_id (≥ 1) ‖ varint parent_span_id
//! ```
//!
//! * Trace id **0** means *untraced* — the field is exactly one `0x00`
//!   byte and no span ids follow. An untraced v5 request behaves exactly
//!   like a v4 request did.
//! * A nonzero leading varint **is** the `trace_id`, and a
//!   `parent_span_id` varint must follow: the request was sampled into a
//!   distributed trace, and any spans the server records for it attach
//!   under `parent_span_id` within `trace_id`. Both ids are opaque to
//!   the protocol — the server never interprets them beyond propagation.
//! * The trace context carries no protocol semantics: traced and
//!   untraced requests are answered identically, and servers must accept
//!   both interleaved freely on one connection.
//! * A trace field that cannot be read (a truncated varint, or a nonzero
//!   trace id with no parent span id behind it) is a payload decode
//!   failure: the server answers `malformed` under the request's own id,
//!   which was already readable — same attribution rule as the
//!   namespace.
//!
//! Primitive encodings inside a payload are the wire vocabulary:
//! `varint` is LEB128 (7 value bits per byte, high bit = continue, max 10
//! bytes), `zigzag` is a varint of `(v << 1) ^ (v >> 63)`, `f64` is the raw
//! little-endian IEEE-754 bit pattern (8 bytes), `blob` and `string` are a
//! varint byte count followed by that many raw bytes (strings must be
//! UTF-8).
//!
//! # Request grammar (normative)
//!
//! After the leading varint request id, varint namespace, and trace
//! context, a request payload is a one-byte request tag followed by the
//! tag's body:
//!
//! ```text
//! 0x01 IngestBatch      varint count (≥ 1), then per update:
//!                       varint index ‖ zigzag delta
//! 0x02 Sample           varint count          (1 ..= 65 536)
//! 0x03 Snapshot         (empty body)
//! 0x04 Stats            (empty body)
//! 0x05 Checkpoint       (empty body)
//! 0x06 Restore          blob                  (a framed KIND_ENGINE payload)
//! 0x07 Shutdown         (empty body; namespace ignored)
//! 0x08 CreateNamespace  (empty body; the header namespace is the operand)
//! 0x09 DropNamespace    (empty body; the header namespace is the operand)
//! 0x0A ListNamespaces   (empty body; namespace ignored)
//! ```
//!
//! # Response grammar (normative)
//!
//! After the leading varint request id (echoed from the request, or 0
//! for an unattributable error), a response payload is a one-byte
//! response tag followed by the body:
//!
//! ```text
//! 0x00 Error             u8 code ‖ string message     (codes below)
//! 0x01 Ingested          varint accepted-update-count
//! 0x02 Samples           varint count, then per draw:
//!                        0x00                         (⊥ — the sampler FAILed)
//!                        0x01 ‖ varint index ‖ f64 estimate
//! 0x03 Snapshot          blob                         (a framed KIND_SNAPSHOT payload)
//! 0x04 Stats             varint universe ‖ varint updates ‖ varint batches ‖
//!                        varint samples ‖ varint fails ‖ varint merges ‖
//!                        f64 mass ‖ varint support
//! 0x05 Checkpoint        blob                         (a framed KIND_ENGINE payload)
//! 0x06 Restored          (empty body)
//! 0x07 ShuttingDown      (empty body)
//! 0x08 NamespaceCreated  (empty body)
//! 0x09 NamespaceDropped  (empty body)
//! 0x0A Namespaces        varint count, then per namespace:
//!                        varint id                    (strictly ascending)
//! ```
//!
//! # Error-response semantics
//!
//! A server must answer *every* readable request frame, malformed payloads
//! included, with exactly one response — malformed input yields an
//! [`ErrorCode`]-carrying [`Response::Error`], never a dropped request,
//! a panic, or a hang. Whether the connection survives the error depends
//! only on whether the *stream position* is still a frame boundary:
//!
//! * **Recoverable** ([`FrameError::Recoverable`]): the envelope's length
//!   field was readable and the full frame extent (payload + checksum) was
//!   consumed, so the next byte is the start of the next frame. Bad
//!   checksum, wrong frame kind, unknown wire version, and every payload
//!   decode failure are in this class: the server sends an error response
//!   and keeps serving the connection.
//! * **Fatal** ([`FrameError::Fatal`], or [`FrameError::TooLarge`] for a
//!   length field over the cap): framing itself is destroyed — bad magic,
//!   an unparseable or over-cap length field, or the stream ending
//!   mid-frame. The server sends a best-effort error response and closes
//!   the connection (there is no trustworthy next-frame position in a byte
//!   stream).
//!
//! # Version compatibility
//!
//! The envelope version byte is [`crate::wire::WIRE_VERSION`] and the
//! rules of DESIGN.md S27–S29 apply unchanged: readers reject unknown
//! versions, payload grammars are never extended in place, and any layout
//! change bumps the version. Request tags, response tags, and error codes
//! may gain *new* values within a version (an unknown tag decodes to a
//! [`WireError`], which a server answers with [`ErrorCode::Malformed`] and
//! a client surfaces as a protocol error); existing values are frozen.
//!
//! See `PROTOCOL.md` at the repository root for worked hex examples (pinned
//! byte-for-byte by this module's tests).

use crate::wire::{
    read_frame, write_frame, Decode, Encode, WireError, WireReader, WireWriter, KIND_REQUEST,
    KIND_RESPONSE,
};
use std::io::{Read, Write};

/// The largest envelope payload a service endpoint accepts, in bytes
/// (64 MiB). A frame whose length field exceeds this is rejected before
/// any payload byte is read — a hostile length can neither allocate nor
/// make the server consume gigabytes hunting for a checksum.
pub const MAX_FRAME_BYTES: u64 = 1 << 26;

/// The largest `count` a [`Request::Sample`] may carry (65 536): one
/// request cannot pin a worker arbitrarily long, and the reply stays far
/// under [`MAX_FRAME_BYTES`].
pub const MAX_SAMPLE_COUNT: u64 = 1 << 16;

/// The largest checkpoint blob a [`Request::Restore`] can carry:
/// [`MAX_FRAME_BYTES`] minus the request tag byte and a maximal blob
/// length varint. [`Response::Checkpoint`] payloads are *not* capped on
/// the client's read path, so a checkpoint can exceed this (experiment
/// `w1` shows `p > 2` factories reach tens of MiB at toy universes) —
/// such a checkpoint must be restored out-of-band (start the replacement
/// server from the bytes via the engine's own `restore`) instead of being
/// shipped back through a request. The client refuses to send an
/// over-cap `Restore` up front rather than letting the server kill the
/// connection.
pub const MAX_RESTORE_BYTES: u64 = MAX_FRAME_BYTES - 11;

/// The namespace every server hosts from startup (wire version 4): the
/// default tenant. It cannot be dropped, so a single-tenant caller that
/// sends 0 everywhere behaves exactly like a pre-v4 conversation.
pub const DEFAULT_NAMESPACE: u64 = 0;

/// The trace context a sampled request carries on the wire (wire
/// version 5): which distributed trace it belongs to and which span to
/// attach server-side spans under. Both ids are opaque varints; trace
/// id 0 is reserved to mean *untraced* (encoded as a single `0` varint
/// with no parent span id), so a [`TraceContext`] always has
/// `trace_id ≥ 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The distributed trace this request belongs to (≥ 1).
    pub trace_id: u64,
    /// The caller's span: spans recorded while serving this request
    /// attach under it (0 = the trace root itself submitted this).
    pub parent_span_id: u64,
}

/// Request tag: [`Request::IngestBatch`].
const REQ_INGEST: u8 = 0x01;
/// Request tag: [`Request::Sample`].
const REQ_SAMPLE: u8 = 0x02;
/// Request tag: [`Request::Snapshot`].
const REQ_SNAPSHOT: u8 = 0x03;
/// Request tag: [`Request::Stats`].
const REQ_STATS: u8 = 0x04;
/// Request tag: [`Request::Checkpoint`].
const REQ_CHECKPOINT: u8 = 0x05;
/// Request tag: [`Request::Restore`].
const REQ_RESTORE: u8 = 0x06;
/// Request tag: [`Request::Shutdown`].
const REQ_SHUTDOWN: u8 = 0x07;
/// Request tag: [`Request::CreateNamespace`].
const REQ_CREATE_NS: u8 = 0x08;
/// Request tag: [`Request::DropNamespace`].
const REQ_DROP_NS: u8 = 0x09;
/// Request tag: [`Request::ListNamespaces`].
const REQ_LIST_NS: u8 = 0x0A;

/// Response tag: [`Response::Error`].
const RESP_ERROR: u8 = 0x00;
/// Response tag: [`Response::Ingested`].
const RESP_INGESTED: u8 = 0x01;
/// Response tag: [`Response::Samples`].
const RESP_SAMPLES: u8 = 0x02;
/// Response tag: [`Response::Snapshot`].
const RESP_SNAPSHOT: u8 = 0x03;
/// Response tag: [`Response::Stats`].
const RESP_STATS: u8 = 0x04;
/// Response tag: [`Response::Checkpoint`].
const RESP_CHECKPOINT: u8 = 0x05;
/// Response tag: [`Response::Restored`].
const RESP_RESTORED: u8 = 0x06;
/// Response tag: [`Response::ShuttingDown`].
const RESP_SHUTDOWN: u8 = 0x07;
/// Response tag: [`Response::NamespaceCreated`].
const RESP_NS_CREATED: u8 = 0x08;
/// Response tag: [`Response::NamespaceDropped`].
const RESP_NS_DROPPED: u8 = 0x09;
/// Response tag: [`Response::Namespaces`].
const RESP_NAMESPACES: u8 = 0x0A;

/// One client→server message.
///
/// Updates travel as raw `(index, signed delta)` pairs — the protocol
/// layer sits below the stream model, so it does not depend on
/// `pts_stream::Update`; `pts-server` converts at the boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply a batch of turnstile updates `(index, delta)`. A conforming
    /// batch carries at least one update; an empty batch is rejected on
    /// decode (wire version 2) — the server must never be asked to do
    /// silent no-op work.
    IngestBatch(Vec<(u64, i64)>),
    /// Draw `count` samples from the engine's current state (each draw may
    /// independently come back ⊥).
    Sample {
        /// How many draws to perform (`1 ..= MAX_SAMPLE_COUNT`).
        count: u64,
    },
    /// Capture the compact mergeable net vector as framed snapshot bytes.
    Snapshot,
    /// Report the engine's running counters, mass, and support.
    Stats,
    /// Serialize the engine's complete state as framed checkpoint bytes.
    Checkpoint,
    /// Replace the engine's state with a previously captured checkpoint
    /// (the blob is a full framed `KIND_ENGINE` payload).
    Restore(Vec<u8>),
    /// Stop the server: every connection is answered-then-closed and the
    /// accept loop exits. Server-scoped — the namespace field is ignored.
    Shutdown,
    /// Create the tenant engine named by the envelope's namespace field
    /// (the body is empty — the header namespace is the operand).
    /// Creating an existing namespace, or namespace 0, is `unsupported`.
    CreateNamespace,
    /// Drop the tenant engine named by the envelope's namespace field,
    /// releasing its state. Dropping namespace 0 is `unsupported`;
    /// dropping a namespace the server does not host is
    /// `unknown-namespace`.
    DropNamespace,
    /// List every namespace the server currently hosts, in ascending
    /// order. Server-scoped — the namespace field is ignored.
    ListNamespaces,
}

impl Encode for Request {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        match self {
            Request::IngestBatch(updates) => {
                w.put_u8(REQ_INGEST);
                w.put_usize(updates.len());
                for &(index, delta) in updates {
                    w.put_u64(index);
                    w.put_i64(delta);
                }
            }
            Request::Sample { count } => {
                w.put_u8(REQ_SAMPLE);
                w.put_u64(*count);
            }
            Request::Snapshot => w.put_u8(REQ_SNAPSHOT),
            Request::Stats => w.put_u8(REQ_STATS),
            Request::Checkpoint => w.put_u8(REQ_CHECKPOINT),
            Request::Restore(bytes) => {
                w.put_u8(REQ_RESTORE);
                w.put_blob(bytes);
            }
            Request::Shutdown => w.put_u8(REQ_SHUTDOWN),
            Request::CreateNamespace => w.put_u8(REQ_CREATE_NS),
            Request::DropNamespace => w.put_u8(REQ_DROP_NS),
            Request::ListNamespaces => w.put_u8(REQ_LIST_NS),
        }
        Ok(())
    }
}

impl Decode for Request {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            REQ_INGEST => {
                // Each pair costs at least two bytes (varint + zigzag), so
                // the length prefix is capped by the bytes actually present.
                let len = r.get_len(2)?;
                if len == 0 {
                    return Err(WireError::Invalid("empty ingest batch"));
                }
                let mut updates = Vec::with_capacity(len);
                for _ in 0..len {
                    let index = r.get_u64()?;
                    let delta = r.get_i64()?;
                    updates.push((index, delta));
                }
                Ok(Request::IngestBatch(updates))
            }
            REQ_SAMPLE => {
                let count = r.get_u64()?;
                if count == 0 || count > MAX_SAMPLE_COUNT {
                    return Err(WireError::Invalid("sample count out of range"));
                }
                Ok(Request::Sample { count })
            }
            REQ_SNAPSHOT => Ok(Request::Snapshot),
            REQ_STATS => Ok(Request::Stats),
            REQ_CHECKPOINT => Ok(Request::Checkpoint),
            REQ_RESTORE => Ok(Request::Restore(r.get_blob()?)),
            REQ_SHUTDOWN => Ok(Request::Shutdown),
            REQ_CREATE_NS => Ok(Request::CreateNamespace),
            REQ_DROP_NS => Ok(Request::DropNamespace),
            REQ_LIST_NS => Ok(Request::ListNamespaces),
            _ => Err(WireError::Invalid("unknown request tag")),
        }
    }
}

/// Why a request failed, as a wire-stable one-byte code.
///
/// Codes are frozen once shipped; new failure modes get new codes. The
/// accompanying message string is human-readable detail and carries no
/// protocol meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame or its payload could not be decoded.
    Malformed = 1,
    /// An update addressed a coordinate outside the engine's universe.
    OutOfUniverse = 2,
    /// A valid request the engine cannot serve (e.g. restoring bytes
    /// written by a different factory type).
    Unsupported = 3,
    /// The request frame exceeded [`MAX_FRAME_BYTES`].
    TooLarge = 4,
    /// A server-side failure unrelated to the request bytes.
    Internal = 5,
    /// An engine-scoped request named a namespace the server does not
    /// host (wire version 4). Always recoverable: the frame was
    /// well-formed, only its addressee is missing.
    UnknownNamespace = 6,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::OutOfUniverse,
            3 => ErrorCode::Unsupported,
            4 => ErrorCode::TooLarge,
            5 => ErrorCode::Internal,
            6 => ErrorCode::UnknownNamespace,
            _ => return Err(WireError::Invalid("unknown error code")),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::OutOfUniverse => "out-of-universe",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::TooLarge => "too-large",
            ErrorCode::Internal => "internal",
            ErrorCode::UnknownNamespace => "unknown-namespace",
        };
        f.write_str(name)
    }
}

/// An in-band failure report: the error response's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// The wire-stable failure class.
    pub code: ErrorCode,
    /// Human-readable detail (no protocol meaning).
    pub message: String,
}

impl ServiceError {
    /// A service error with the given code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServiceError {}

/// A point-in-time view of the served engine, as reported by
/// [`Response::Stats`]: the engine's universe bound and running counters
/// plus its current exact `G`-mass and support.
///
/// Wire version 2 added the leading `universe` field: a remote caller
/// previously had no way to learn the universe a served engine's mass and
/// support refer to, which the cluster coordinator needs to validate that
/// every node serves the partition it was assigned (`pts-cluster`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceStats {
    /// The engine's universe bound `n` (every index lies in `[0, n)`).
    pub universe: u64,
    /// Updates ingested (pre-coalescing).
    pub updates: u64,
    /// Batches ingested.
    pub batches: u64,
    /// Successful samples served.
    pub samples: u64,
    /// Draws that returned ⊥.
    pub fails: u64,
    /// Snapshots merged in.
    pub merges: u64,
    /// The exact global `G`-mass `Σ_j G(x_j)`.
    pub mass: f64,
    /// Number of non-zero coordinates.
    pub support: u64,
    /// **Local-view field — never on the wire.** Requests this server
    /// process has answered (all kinds, monotonic). Filled by `pts-server`
    /// when it builds a `Stats` response; `encode` skips it and `decode`
    /// leaves it 0, so the v2 frame grammar is unchanged (see
    /// PROTOCOL.md §Stats notes and the byte-pinned worked examples).
    pub requests_served: u64,
    /// **Local-view field — never on the wire.** Whole seconds since this
    /// server process started serving. Same wire rules as
    /// [`ServiceStats::requests_served`].
    pub uptime_secs: u64,
}

impl Encode for ServiceStats {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u64(self.universe);
        w.put_u64(self.updates);
        w.put_u64(self.batches);
        w.put_u64(self.samples);
        w.put_u64(self.fails);
        w.put_u64(self.merges);
        w.put_f64(self.mass);
        w.put_u64(self.support);
        Ok(())
    }
}

impl Decode for ServiceStats {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            universe: r.get_u64()?,
            updates: r.get_u64()?,
            batches: r.get_u64()?,
            samples: r.get_u64()?,
            fails: r.get_u64()?,
            merges: r.get_u64()?,
            mass: r.get_f64()?,
            support: r.get_u64()?,
            // Local-view fields: not carried by the v2 frame, so a decoded
            // ServiceStats always reports 0 for them.
            requests_served: 0,
            uptime_secs: 0,
        })
    }
}

/// One server→client message: the answer to exactly one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed; see [`ServiceError`] and the module docs for
    /// which failures keep the connection alive.
    Error(ServiceError),
    /// An ingest batch was applied; carries the accepted update count.
    Ingested {
        /// Updates applied from the batch (pre-coalescing).
        accepted: u64,
    },
    /// Sample draws, in request order. `None` is the paper's ⊥ (the
    /// chosen shard's entire pool FAILed) — an honest outcome, not an
    /// error.
    Samples(Vec<Option<(u64, f64)>>),
    /// A framed `KIND_SNAPSHOT` payload (decode with
    /// `EngineSnapshot::from_bytes`).
    Snapshot(Vec<u8>),
    /// The engine's counters, mass, and support.
    Stats(ServiceStats),
    /// A framed `KIND_ENGINE` payload (feed to an engine `restore`, or
    /// send back in a [`Request::Restore`]).
    Checkpoint(Vec<u8>),
    /// A [`Request::Restore`] succeeded; subsequent requests observe the
    /// restored state.
    Restored,
    /// A [`Request::Shutdown`] was accepted; the server stops accepting
    /// connections and this connection closes after the frame is flushed.
    ShuttingDown,
    /// A [`Request::CreateNamespace`] succeeded; the namespace named in
    /// the request's envelope now hosts a fresh engine.
    NamespaceCreated,
    /// A [`Request::DropNamespace`] succeeded; the namespace named in
    /// the request's envelope no longer exists.
    NamespaceDropped,
    /// The namespaces the server currently hosts, in ascending order
    /// (always contains [`DEFAULT_NAMESPACE`]).
    Namespaces(Vec<u64>),
}

impl Encode for Response {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        match self {
            Response::Error(e) => {
                w.put_u8(RESP_ERROR);
                w.put_u8(e.code as u8);
                w.put_str(&e.message);
            }
            Response::Ingested { accepted } => {
                w.put_u8(RESP_INGESTED);
                w.put_u64(*accepted);
            }
            Response::Samples(draws) => {
                w.put_u8(RESP_SAMPLES);
                w.put_usize(draws.len());
                for draw in draws {
                    match draw {
                        None => w.put_u8(0),
                        Some((index, estimate)) => {
                            w.put_u8(1);
                            w.put_u64(*index);
                            w.put_f64(*estimate);
                        }
                    }
                }
            }
            Response::Snapshot(bytes) => {
                w.put_u8(RESP_SNAPSHOT);
                w.put_blob(bytes);
            }
            Response::Stats(stats) => {
                w.put_u8(RESP_STATS);
                stats.encode(w)?;
            }
            Response::Checkpoint(bytes) => {
                w.put_u8(RESP_CHECKPOINT);
                w.put_blob(bytes);
            }
            Response::Restored => w.put_u8(RESP_RESTORED),
            Response::ShuttingDown => w.put_u8(RESP_SHUTDOWN),
            Response::NamespaceCreated => w.put_u8(RESP_NS_CREATED),
            Response::NamespaceDropped => w.put_u8(RESP_NS_DROPPED),
            Response::Namespaces(ids) => {
                w.put_u8(RESP_NAMESPACES);
                w.put_usize(ids.len());
                for &id in ids {
                    w.put_u64(id);
                }
            }
        }
        Ok(())
    }
}

impl Decode for Response {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            RESP_ERROR => {
                let code = ErrorCode::from_u8(r.get_u8()?)?;
                let message = r.get_str()?;
                Ok(Response::Error(ServiceError { code, message }))
            }
            RESP_INGESTED => Ok(Response::Ingested {
                accepted: r.get_u64()?,
            }),
            RESP_SAMPLES => {
                let len = r.get_len(1)?;
                let mut draws = Vec::with_capacity(len);
                for _ in 0..len {
                    draws.push(match r.get_u8()? {
                        0 => None,
                        1 => Some((r.get_u64()?, r.get_f64()?)),
                        _ => return Err(WireError::Invalid("sample presence byte")),
                    });
                }
                Ok(Response::Samples(draws))
            }
            RESP_SNAPSHOT => Ok(Response::Snapshot(r.get_blob()?)),
            RESP_STATS => Ok(Response::Stats(ServiceStats::decode(r)?)),
            RESP_CHECKPOINT => Ok(Response::Checkpoint(r.get_blob()?)),
            RESP_RESTORED => Ok(Response::Restored),
            RESP_SHUTDOWN => Ok(Response::ShuttingDown),
            RESP_NS_CREATED => Ok(Response::NamespaceCreated),
            RESP_NS_DROPPED => Ok(Response::NamespaceDropped),
            RESP_NAMESPACES => {
                // Each id is at least one byte, so the count is capped by
                // the bytes actually present.
                let len = r.get_len(1)?;
                let mut ids = Vec::with_capacity(len);
                let mut last: Option<u64> = None;
                for _ in 0..len {
                    let id = r.get_u64()?;
                    if last.is_some_and(|prev| prev >= id) {
                        return Err(WireError::Invalid("namespace list not ascending"));
                    }
                    last = Some(id);
                    ids.push(id);
                }
                Ok(Response::Namespaces(ids))
            }
            _ => Err(WireError::Invalid("unknown response tag")),
        }
    }
}

/// The header every request payload carries ahead of its tag byte, in
/// wire order: `varint id ‖ varint ns ‖ trace` (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHeader {
    /// The client-assigned request id its response echoes (≥ 1; id 0 is
    /// reserved for unattributable server error responses).
    pub id: u64,
    /// The namespace (tenant) the request addresses; single-tenant
    /// callers send [`DEFAULT_NAMESPACE`].
    pub ns: u64,
    /// The distributed trace the request was sampled into (`None` =
    /// untraced, the lone `0` varint on the wire).
    pub trace: Option<TraceContext>,
}

/// A request payload that failed to decode, and how far decoding got
/// before it failed — which decides whom the server's error answers.
#[derive(Debug)]
pub struct RequestError {
    /// The request's id once the leading id varint was read and found
    /// nonzero: every later failure answers under it. `None` when the id
    /// itself was unreadable or the reserved 0, so the error answers
    /// under id 0.
    pub id: Option<u64>,
    /// What went wrong.
    pub error: WireError,
}

/// Writes one request as a framed `KIND_REQUEST` envelope:
/// `varint id ‖ varint ns ‖ trace ‖ request body`, where `trace` is a
/// lone `0` varint for `None` or `varint trace_id ‖ varint
/// parent_span_id` for `Some`.
///
/// `header.id` must be ≥ 1, and a [`TraceContext`] must carry a nonzero
/// trace id (0 would read back as untraced); debug builds assert both.
pub fn write_request<W: Write>(
    header: &RequestHeader,
    req: &Request,
    sink: &mut W,
) -> std::io::Result<()> {
    debug_assert!(header.id != 0, "request id 0 is reserved");
    let mut w = WireWriter::new();
    w.put_u64(header.id);
    w.put_u64(header.ns);
    match header.trace {
        None => w.put_u64(0),
        Some(ctx) => {
            debug_assert!(ctx.trace_id != 0, "trace id 0 means untraced");
            w.put_u64(ctx.trace_id);
            w.put_u64(ctx.parent_span_id);
        }
    }
    req.encode(&mut w).expect("requests always encode");
    write_frame(KIND_REQUEST, w.as_bytes(), sink)
}

/// Decodes one request payload (a frame's contents) into its header and
/// body. The id is read first and kept, so every later failure — an
/// unreadable namespace or trace field, a bad body — still reports the
/// request's own id; this is the server's demux entry point.
pub fn decode_request(payload: &[u8]) -> Result<(RequestHeader, Request), RequestError> {
    let mut r = WireReader::new(payload);
    let id = match r.get_u64() {
        Ok(0) => Err(WireError::Invalid("request id 0 is reserved")),
        read => read,
    }
    .map_err(|error| RequestError { id: None, error })?;
    decode_after_id(id, &mut r).map_err(|error| RequestError {
        id: Some(id),
        error,
    })
}

/// The rest of [`decode_request`] once the id is known.
fn decode_after_id(id: u64, r: &mut WireReader<'_>) -> Result<(RequestHeader, Request), WireError> {
    let ns = r.get_u64()?;
    let trace = match r.get_u64()? {
        0 => None,
        trace_id => Some(TraceContext {
            trace_id,
            parent_span_id: r.get_u64()?,
        }),
    };
    let req = Request::decode(r)?;
    r.finish()?;
    Ok((RequestHeader { id, ns, trace }, req))
}

/// Reads one framed request (strict: any malformation is an error;
/// servers wanting to keep the connection read with
/// [`read_frame_lenient`] and attribute failures via [`decode_request`]).
pub fn read_request<R: Read>(src: &mut R) -> Result<(RequestHeader, Request), WireError> {
    let payload = read_frame(KIND_REQUEST, src)?;
    decode_request(&payload).map_err(|e| e.error)
}

/// Writes one response as a framed `KIND_RESPONSE` envelope:
/// `varint request_id ‖ response body`. The id echoes the request's
/// (id 0 = unattributable server error, the one id a request can't use).
pub fn write_response<W: Write>(
    request_id: u64,
    resp: &Response,
    sink: &mut W,
) -> std::io::Result<()> {
    let mut w = WireWriter::new();
    w.put_u64(request_id);
    resp.encode(&mut w).expect("responses always encode");
    write_frame(KIND_RESPONSE, w.as_bytes(), sink)
}

/// Reads one framed response; returns the echoed request id (0 =
/// unattributable server error) and the response.
pub fn read_response<R: Read>(src: &mut R) -> Result<(u64, Response), WireError> {
    let payload = read_frame(KIND_RESPONSE, src)?;
    let mut r = WireReader::new(&payload);
    let id = r.get_u64()?;
    let resp = Response::decode(&mut r)?;
    r.finish()?;
    Ok((id, resp))
}

// The lenient frame reader and its recoverable/fatal classification live
// beside the envelope in `wire` (one frame-parsing implementation for
// strict and lenient readers alike); re-exported here because they are
// the protocol's error-response semantics.
pub use crate::wire::{read_frame_lenient, FrameError};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WIRE_MAGIC, WIRE_VERSION};

    fn roundtrip_request(req: Request) {
        // Ids, namespaces and trace fields spanning 1, 2, and 10 varint
        // bytes must frame and decode identically at every width
        // (namespace 0 is the default tenant, so it must roundtrip too).
        let traces = [
            None,
            Some(TraceContext {
                trace_id: 1,
                parent_span_id: 0,
            }),
            Some(TraceContext {
                trace_id: 300,
                parent_span_id: 7,
            }),
            Some(TraceContext {
                trace_id: u64::MAX,
                parent_span_id: u64::MAX,
            }),
        ];
        for id in [1u64, 7, 300, u64::MAX] {
            for ns in [DEFAULT_NAMESPACE, 7, 300, u64::MAX] {
                for trace in traces {
                    let header = RequestHeader { id, ns, trace };
                    let mut buf = Vec::new();
                    write_request(&header, &req, &mut buf).unwrap();
                    let back = read_request(&mut buf.as_slice()).unwrap();
                    assert_eq!(back, (header, req.clone()));
                }
            }
        }
    }

    fn roundtrip_response(resp: Response) {
        // Id 0 is legal on responses (unattributable server errors).
        for id in [0u64, 1, 300, u64::MAX] {
            let mut buf = Vec::new();
            write_response(id, &resp, &mut buf).unwrap();
            let (back_id, back) = read_response(&mut buf.as_slice()).unwrap();
            assert_eq!((back_id, back), (id, resp.clone()));
        }
    }

    #[test]
    fn every_request_kind_roundtrips() {
        roundtrip_request(Request::IngestBatch(vec![(3, 5), (900, -2), (0, 1)]));
        roundtrip_request(Request::Sample { count: 1 });
        roundtrip_request(Request::Sample {
            count: MAX_SAMPLE_COUNT,
        });
        roundtrip_request(Request::Snapshot);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Checkpoint);
        roundtrip_request(Request::Restore(vec![0xDE, 0xAD, 0xBE, 0xEF]));
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::CreateNamespace);
        roundtrip_request(Request::DropNamespace);
        roundtrip_request(Request::ListNamespaces);
    }

    #[test]
    fn every_response_kind_roundtrips() {
        roundtrip_response(Response::Error(ServiceError::new(
            ErrorCode::Malformed,
            "bad request tag",
        )));
        roundtrip_response(Response::Ingested { accepted: 42 });
        roundtrip_response(Response::Samples(vec![
            Some((7, 10.0)),
            None,
            Some((21, -9.5)),
        ]));
        roundtrip_response(Response::Samples(vec![]));
        roundtrip_response(Response::Snapshot(vec![1, 2, 3]));
        // Local-view fields stay 0 here: they are not on the wire, so a
        // decoded ServiceStats always reports 0 for them (see
        // `local_view_stats_fields_never_reach_the_wire`).
        roundtrip_response(Response::Stats(ServiceStats {
            universe: 1 << 20,
            updates: 10,
            batches: 2,
            samples: 5,
            fails: 1,
            merges: 0,
            mass: 123.5,
            support: 9,
            requests_served: 0,
            uptime_secs: 0,
        }));
        roundtrip_response(Response::Checkpoint(vec![9; 100]));
        roundtrip_response(Response::Restored);
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::NamespaceCreated);
        roundtrip_response(Response::NamespaceDropped);
        roundtrip_response(Response::Namespaces(vec![0]));
        roundtrip_response(Response::Namespaces(vec![0, 1, 300, u64::MAX]));
    }

    #[test]
    fn namespace_list_must_be_ascending_on_decode() {
        // The encoder trusts its caller; the decoder enforces the
        // strictly-ascending rule (duplicates included), so a hostile
        // response cannot smuggle an unsorted or repeating list.
        for bad in [vec![1u64, 1], vec![5, 3], vec![0, 2, 2]] {
            let payload = Response::Namespaces(bad.clone()).to_wire_bytes().unwrap();
            assert!(
                Response::from_wire_bytes(&payload).is_err(),
                "unsorted list {bad:?} decoded"
            );
        }
    }

    #[test]
    fn local_view_stats_fields_never_reach_the_wire() {
        // Two stats differing only in the local-view fields must encode
        // byte-identically — that is the "no wire change" contract of the
        // requests_served / uptime_secs additions.
        let base = ServiceStats {
            universe: 4096,
            updates: 1000,
            batches: 4,
            samples: 6,
            fails: 1,
            merges: 0,
            mass: 123.5,
            support: 9,
            requests_served: 0,
            uptime_secs: 0,
        };
        let filled = ServiceStats {
            requests_served: u64::MAX,
            uptime_secs: 86_400,
            ..base
        };
        assert_eq!(
            base.to_wire_bytes().unwrap(),
            filled.to_wire_bytes().unwrap()
        );
        // And a decode of the filled encoding reports them as 0.
        let decoded = ServiceStats::from_wire_bytes(&filled.to_wire_bytes().unwrap()).unwrap();
        assert_eq!(decoded.requests_served, 0);
        assert_eq!(decoded.uptime_secs, 0);
        assert_eq!(decoded, base);
    }

    #[test]
    fn empty_ingest_batch_rejected_on_decode() {
        // An empty batch encodes (the type allows it) but must not decode:
        // wire version 2 forbids asking a server for silent no-op work.
        let payload = Request::IngestBatch(vec![]).to_wire_bytes().unwrap();
        assert!(matches!(
            Request::from_wire_bytes(&payload),
            Err(WireError::Invalid("empty ingest batch"))
        ));
    }

    #[test]
    fn sample_count_bounds_enforced_on_decode() {
        for count in [0u64, MAX_SAMPLE_COUNT + 1, u64::MAX] {
            let mut w = WireWriter::new();
            w.put_u8(0x02);
            w.put_u64(count);
            assert!(
                Request::from_wire_bytes(w.as_bytes()).is_err(),
                "count {count} accepted"
            );
        }
    }

    #[test]
    fn restore_cap_fits_the_frame_cap() {
        // A Restore carrying a MAX_RESTORE_BYTES blob must frame within
        // MAX_FRAME_BYTES: tag byte + length varint + blob.
        let mut w = WireWriter::new();
        w.put_u8(0x06);
        w.put_u64(MAX_RESTORE_BYTES);
        assert!(w.len() as u64 + MAX_RESTORE_BYTES <= MAX_FRAME_BYTES);
    }

    #[test]
    fn unknown_tags_and_codes_rejected() {
        assert!(Request::from_wire_bytes(&[0xAA]).is_err());
        assert!(Response::from_wire_bytes(&[0xAA]).is_err());
        let mut w = WireWriter::new();
        w.put_u8(RESP_ERROR);
        w.put_u8(99); // unknown error code
        w.put_str("x");
        assert!(Response::from_wire_bytes(w.as_bytes()).is_err());
    }

    #[test]
    fn request_truncation_at_every_prefix_errors() {
        let req = Request::IngestBatch(vec![(3, 5), (900, -2)]);
        let payload = req.to_wire_bytes().unwrap();
        for cut in 0..payload.len() {
            assert!(
                Request::from_wire_bytes(&payload[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    /// A maximal header (10-byte id, 10-byte namespace, 20-byte trace)
    /// plus a Stats tag: 41 bytes, every field `u64::MAX`.
    fn maximal_stats_payload() -> Vec<u8> {
        let mut w = WireWriter::new();
        for field in [u64::MAX; 4] {
            w.put_u64(field);
        }
        Request::Stats.encode(&mut w).unwrap();
        assert_eq!(w.len(), 41);
        w.as_bytes().to_vec()
    }

    /// Every cut of the maximal payload in `cuts` fails to decode, and the
    /// failure carries the request's id exactly when the cut falls after
    /// the id field — that is what lets the server answer under the
    /// request's own id.
    fn assert_cuts_attribute(cuts: std::ops::Range<usize>) {
        let payload = maximal_stats_payload();
        for cut in cuts {
            let err = decode_request(&payload[..cut]).expect_err("a cut header decoded");
            let want = (cut >= 10).then_some(u64::MAX);
            assert_eq!(err.id, want, "cut at {cut}: {:?}", err.error);
        }
    }

    #[test]
    fn request_id_zero_rejected_everywhere() {
        // Id 0 is reserved: unattributable however sound the rest is, and
        // the strict framed reader refuses it too.
        let mut w = WireWriter::new();
        w.put_u64(0);
        w.put_u64(DEFAULT_NAMESPACE);
        w.put_u64(0); // untraced
        Request::Stats.encode(&mut w).unwrap();
        assert!(matches!(
            decode_request(w.as_bytes()),
            Err(RequestError {
                id: None,
                error: WireError::Invalid("request id 0 is reserved")
            })
        ));
        let mut frame = Vec::new();
        write_frame(KIND_REQUEST, w.as_bytes(), &mut frame).unwrap();
        assert!(read_request(&mut frame.as_slice()).is_err());
        // Id 0 stays legal on the response side (unattributable errors).
        let mut resp = Vec::new();
        write_response(
            0,
            &Response::Error(ServiceError::new(ErrorCode::Malformed, "x")),
            &mut resp,
        )
        .unwrap();
        assert_eq!(read_response(&mut resp.as_slice()).unwrap().0, 0);
    }

    #[test]
    fn split_request_payload_demuxes_id_and_namespace_from_body() {
        // Multi-byte varint id, namespace and trace fields decode into the
        // header, and exactly the body bytes after them into the request.
        let mut w = WireWriter::new();
        w.put_u64(300); // two varint bytes: 0xAC 0x02
        w.put_u64(777); // two varint bytes: 0x89 0x06
        w.put_u64(200); // trace id, two varint bytes: 0xC8 0x01
        w.put_u64(150); // parent span id, two varint bytes: 0x96 0x01
        w.put_u8(REQ_STATS);
        let header = RequestHeader {
            id: 300,
            ns: 777,
            trace: Some(TraceContext {
                trace_id: 200,
                parent_span_id: 150,
            }),
        };
        assert_eq!(
            decode_request(w.as_bytes()).unwrap(),
            (header, Request::Stats)
        );
        // The untraced marker decodes to None without consuming the body.
        let untraced = [0x01, 0x00, 0x00, REQ_STATS];
        let want = RequestHeader {
            id: 1,
            ns: DEFAULT_NAMESPACE,
            trace: None,
        };
        assert_eq!(decode_request(&untraced).unwrap(), (want, Request::Stats));
        // And the maximal header decodes whole.
        let max = RequestHeader {
            id: u64::MAX,
            ns: u64::MAX,
            trace: Some(TraceContext {
                trace_id: u64::MAX,
                parent_span_id: u64::MAX,
            }),
        };
        assert_eq!(
            decode_request(&maximal_stats_payload()).unwrap(),
            (max, Request::Stats)
        );
    }

    #[test]
    fn truncation_at_every_prefix_of_the_id_field_errors() {
        // u64::MAX is a 10-byte varint: every cut inside the id field
        // fails, unattributably (never panics, never misdecodes).
        assert_cuts_attribute(0..10);
    }

    #[test]
    fn truncation_at_every_prefix_of_the_namespace_field_errors() {
        // Same sweep one field later: the id was already read, so every
        // cut inside the namespace answers under it.
        assert_cuts_attribute(10..20);
    }

    #[test]
    fn truncation_at_every_prefix_of_the_trace_field_errors() {
        // Every cut inside the 20-byte trace context (a truncated trace
        // id, or a nonzero trace id with a missing/truncated parent span
        // id), and the full header with no body behind it, fail under the
        // request's id.
        assert_cuts_attribute(20..41);
    }

    /// Every fenced block of `doc` whose lines lead with hex byte pairs,
    /// as the bytes those pairs spell (the annotation after them on each
    /// line is ignored).
    fn hex_blocks(doc: &str) -> Vec<Vec<u8>> {
        let mut blocks = Vec::new();
        let mut block: Option<Vec<u8>> = None;
        for line in doc.lines() {
            if line.trim_start().starts_with("```") {
                match block.take() {
                    Some(bytes) if !bytes.is_empty() => blocks.push(bytes),
                    Some(_) => {}
                    None => block = Some(Vec::new()),
                }
            } else if let Some(bytes) = block.as_mut() {
                bytes.extend(line.split_whitespace().map_while(|tok| {
                    let pair = tok.len() == 2 && tok.bytes().all(|b| b.is_ascii_hexdigit());
                    pair.then(|| u8::from_str_radix(tok, 16).ok()).flatten()
                }));
            }
        }
        blocks
    }

    /// PROTOCOL.md §6 is the single source of truth for the worked
    /// examples' bytes: each must be exactly what the encoder writes for
    /// the message its heading describes, and must decode back to it.
    #[test]
    fn protocol_md_worked_examples_are_exact() {
        let blocks = hex_blocks(include_str!("../../../PROTOCOL.md"));
        // §6.1–§6.4, in document order.
        let untraced = |id, ns| RequestHeader {
            id,
            ns,
            trace: None,
        };
        let requests = [
            (untraced(1, DEFAULT_NAMESPACE), Request::Stats),
            (
                untraced(2, 7),
                Request::IngestBatch(vec![(3, 5), (900, -2)]),
            ),
            (untraced(3, 7), Request::CreateNamespace),
            (
                RequestHeader {
                    id: 4,
                    ns: DEFAULT_NAMESPACE,
                    trace: Some(TraceContext {
                        trace_id: 9,
                        parent_span_id: 1,
                    }),
                },
                Request::Sample { count: 2 },
            ),
        ];
        // §6.5–§6.7. The Stats report's local-view fields are nonzero on
        // purpose: the document's bytes prove they never reach the wire.
        let responses = [
            (2, Response::Samples(vec![Some((3, 5.0)), None])),
            (
                5,
                Response::Error(ServiceError::new(
                    ErrorCode::Malformed,
                    "unknown request tag",
                )),
            ),
            (
                1,
                Response::Stats(ServiceStats {
                    universe: 4096,
                    updates: 1000,
                    batches: 4,
                    samples: 6,
                    fails: 1,
                    merges: 0,
                    mass: 123.5,
                    support: 9,
                    requests_served: 77,
                    uptime_secs: 3600,
                }),
            ),
        ];
        assert_eq!(
            blocks.len(),
            requests.len() + responses.len(),
            "PROTOCOL.md must hold exactly 7 hex worked examples"
        );
        let (request_blocks, response_blocks) = blocks.split_at(requests.len());
        for (block, (header, req)) in request_blocks.iter().zip(&requests) {
            let mut frame = Vec::new();
            write_request(header, req, &mut frame).unwrap();
            assert_eq!(block, &frame, "{req:?} drifted: {frame:02X?}");
            let back = read_request(&mut block.as_slice()).unwrap();
            assert_eq!(back, (*header, req.clone()));
        }
        for (block, (id, resp)) in response_blocks.iter().zip(&responses) {
            let mut frame = Vec::new();
            write_response(*id, resp, &mut frame).unwrap();
            assert_eq!(block, &frame, "{resp:?} drifted: {frame:02X?}");
            // Decoded, then re-encoded: local-view stats fields decode
            // as 0, so compare on the wire, where they do not exist.
            let (back_id, back) = read_response(&mut block.as_slice()).unwrap();
            let mut again = Vec::new();
            write_response(back_id, &back, &mut again).unwrap();
            assert_eq!((back_id, &again), (*id, block));
        }
    }

    #[test]
    fn lenient_read_classifies_fatal_vs_recoverable() {
        let header = RequestHeader {
            id: 9,
            ns: 4,
            trace: None,
        };
        let mut good = Vec::new();
        write_request(&header, &Request::Stats, &mut good).unwrap();

        // Clean read.
        let payload = read_frame_lenient(KIND_REQUEST, MAX_FRAME_BYTES, &mut good.as_slice())
            .expect("well-formed frame reads");
        assert_eq!(decode_request(&payload).unwrap(), (header, Request::Stats));

        // Bad magic: fatal.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame_lenient(KIND_REQUEST, MAX_FRAME_BYTES, &mut bad.as_slice()),
            Err(FrameError::Fatal(WireError::BadMagic))
        ));

        // Version bump: recoverable, and the whole frame was consumed.
        let mut bumped = good.clone();
        bumped[4] = WIRE_VERSION + 1;
        let mut src = bumped.as_slice();
        assert!(matches!(
            read_frame_lenient(KIND_REQUEST, MAX_FRAME_BYTES, &mut src),
            Err(FrameError::Recoverable(WireError::BadVersion { .. }))
        ));
        assert!(src.is_empty(), "recoverable error must consume the frame");

        // Kind mismatch: recoverable, frame consumed.
        let mut src = good.as_slice();
        assert!(matches!(
            read_frame_lenient(KIND_RESPONSE, MAX_FRAME_BYTES, &mut src),
            Err(FrameError::Recoverable(WireError::Invalid(_)))
        ));
        assert!(src.is_empty());

        // Payload corruption: recoverable (checksum), frame consumed.
        let mut corrupt = good.clone();
        let p = corrupt.len() - 9; // last payload byte
        corrupt[p] ^= 0x40;
        let mut src = corrupt.as_slice();
        assert!(matches!(
            read_frame_lenient(KIND_REQUEST, MAX_FRAME_BYTES, &mut src),
            Err(FrameError::Recoverable(WireError::BadChecksum))
        ));
        assert!(src.is_empty());

        // Oversized length field: fatal, via the structured cap variant,
        // before consuming the "payload".
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&WIRE_MAGIC);
        oversized.push(WIRE_VERSION);
        oversized.push(KIND_REQUEST);
        let mut w = WireWriter::new();
        w.put_u64(MAX_FRAME_BYTES + 1);
        oversized.extend_from_slice(w.as_bytes());
        assert!(matches!(
            read_frame_lenient(KIND_REQUEST, MAX_FRAME_BYTES, &mut oversized.as_slice()),
            Err(FrameError::TooLarge(_))
        ));

        // Truncation at every prefix: always an error, never a panic; cuts
        // inside the payload/checksum are fatal (stream ended mid-frame).
        for cut in 0..good.len() {
            assert!(
                read_frame_lenient(KIND_REQUEST, MAX_FRAME_BYTES, &mut good[..cut].as_ref())
                    .is_err(),
                "cut at {cut} read"
            );
        }
    }
}
