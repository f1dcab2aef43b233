//! The wire format: a serde-free, versioned binary encoding for sketch and
//! engine state.
//!
//! Linearity makes every sampler in this stack mergeable; this module makes
//! the merge layer *durable*. A [`WireWriter`]/[`WireReader`] pair provides
//! the primitive vocabulary (LEB128 varints, zigzag signed integers, raw
//! IEEE-754 bit patterns for floats — bit-exact by construction), the
//! [`Encode`]/[`Decode`] traits are the contract every sketch, sampler, and
//! engine component implements, and [`write_frame`]/[`read_frame`] wrap a
//! payload in the self-describing outer envelope
//!
//! ```text
//! "PTSW" | version: u8 | kind: u8 | len: varint | payload | fnv1a64 checksum
//! ```
//!
//! Design rules (see DESIGN.md §8 for the full compatibility story):
//!
//! * **Bit-exactness.** Floats are encoded as raw `to_bits` octets, RNG
//!   states as their raw words — a decoded object is *the same value*, so a
//!   restored engine draws the same samples the original would have.
//! * **Adversarial-input safety.** Every read is bounds-checked; length
//!   prefixes are validated against the bytes actually present before any
//!   allocation; malformed input yields a [`WireError`], never a panic and
//!   never an attacker-sized allocation.
//! * **Versioning.** The envelope carries one format version byte; readers
//!   reject versions they do not know ([`WireError::BadVersion`]) instead
//!   of guessing. In-payload compatibility is by construction: payloads are
//!   never extended in place — a layout change bumps the version.

use crate::hashing::{KWiseHash, MERSENNE_P};
use crate::rng::Xoshiro256pp;
use std::io::{Read, Write};

/// Magic bytes opening every framed payload.
pub const WIRE_MAGIC: [u8; 4] = *b"PTSW";

/// The current wire-format version.
///
/// Version history (PROTOCOL.md §5 carries the service-facing notes):
///
/// * **1** — the original format (durable snapshots + the PR-4 service
///   protocol).
/// * **2** — the `Stats` response body gained the leading `universe`
///   varint (a remote caller — the cluster coordinator in particular —
///   must be able to learn which universe a node's exact `G`-mass refers
///   to), and the request grammar tightened: an `IngestBatch` must carry
///   at least one update. Grammar changes are never made in place, hence
///   the bump.
/// * **3** — request and response payloads lead with a varint
///   `request_id` (client-assigned, echoed verbatim), multiplexing many
///   in-flight requests over one connection with out-of-order completion.
///   Id `0` is reserved for server error responses that cannot be
///   attributed to a request (the id itself failed to decode). Same rule
///   as v2: the payload layout changed, so the version bumps and v2
///   endpoints reject v3 frames recoverably (and vice versa).
/// * **4** — request payloads carry a varint `namespace` id between the
///   request id and the request tag, addressing one of many logical
///   tenant engines served by a single endpoint (namespace 0 is the
///   default tenant every server has). Three namespace-management
///   request tags and their responses were added, plus the
///   `unknown-namespace` error code. Response payloads are unchanged.
///   As always the layout change bumps the version: v3 endpoints reject
///   v4 frames recoverably (and vice versa).
/// * **5** — request payloads carry a varint-framed *trace context*
///   between the namespace and the request tag: a single `0` varint for
///   untraced requests, or a nonzero `trace_id` varint followed by a
///   `parent_span_id` varint for requests sampled into a distributed
///   trace. Response payloads are unchanged. Same never-extend-in-place
///   rule: the layout changed, so the version bumps and v4 endpoints
///   reject v5 frames recoverably (and vice versa).
/// * **6** — an engine checkpoint is its snapshot: config, factory, RNG
///   and stats, then each shard pool's `spawned ‖ cursor` varints, then
///   the net vector as one `EngineSnapshot` body. The per-shard factory
///   copies, universes, mass slots, pool seeds and slot bits are gone.
///   Request and response grammars are unchanged; the new error code 7
///   (`value-overflow`) rides the bump.
pub const WIRE_VERSION: u8 = 6;

/// Frame kind: a full engine checkpoint (config + factory + RNG + stats +
/// per-shard pool counters + the net vector).
pub const KIND_ENGINE: u8 = 1;

/// Frame kind: a compact `EngineSnapshot`-style sparse net vector.
pub const KIND_SNAPSHOT: u8 = 2;

/// Frame kind: a service request ([`crate::protocol::Request`]).
pub const KIND_REQUEST: u8 = 4;

/// Frame kind: a service response ([`crate::protocol::Response`]).
pub const KIND_RESPONSE: u8 = 5;

/// Everything that can go wrong while decoding wire bytes.
#[derive(Debug)]
pub enum WireError {
    /// The input ended before the encoded value did.
    Truncated,
    /// The frame does not open with [`WIRE_MAGIC`].
    BadMagic,
    /// The frame was written by an unknown format version.
    BadVersion {
        /// The version byte found in the frame.
        got: u8,
    },
    /// The frame checksum does not match its payload.
    BadChecksum,
    /// A structurally invalid encoding (bad tag, inconsistent lengths,
    /// out-of-range field, overlong varint, …).
    Invalid(&'static str),
    /// The value cannot be represented on the wire (e.g. a custom
    /// G-function closure).
    Unsupported(&'static str),
    /// Decoding succeeded but bytes were left over.
    TrailingBytes,
    /// An I/O error from the underlying reader.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire input truncated"),
            WireError::BadMagic => write!(f, "bad wire magic (not a PTSW frame)"),
            WireError::BadVersion { got } => {
                write!(f, "unknown wire version {got} (expected {WIRE_VERSION})")
            }
            WireError::BadChecksum => write!(f, "wire checksum mismatch"),
            WireError::Invalid(what) => write!(f, "invalid wire encoding: {what}"),
            WireError::Unsupported(what) => write!(f, "not wire-encodable: {what}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after decoded value"),
            WireError::Io(kind) => write!(f, "wire i/o error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.kind())
        }
    }
}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// The standard 64-bit FNV offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The standard 64-bit FNV prime (0x100000001b3).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a hash over `bytes` from state `h` (chain from
/// [`FNV_OFFSET`] to hash a logical concatenation without allocating it).
fn fnv1a64_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a byte slice — the frame checksum. Not cryptographic; it
/// guards against truncation, bit rot, and mis-framing, which is the threat
/// model for checkpoint files and snapshot shipping. This is textbook
/// 64-bit FNV-1a (offset 0xcbf29ce484222325, prime 0x100000001b3), so an
/// independent implementation of the spec interoperates.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(FNV_OFFSET, bytes)
}

/// The frame checksum: FNV-1a over the version byte, the kind byte, and
/// the payload, in that order.
fn frame_checksum(version: u8, kind: u8, payload: &[u8]) -> u64 {
    fnv1a64_continue(fnv1a64(&[version, kind]), payload)
}

/// Appends wire primitives to a growable byte buffer.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// LEB128 varint (1–10 bytes).
    pub fn put_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// `usize` as a varint.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Zigzag-coded signed varint.
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// `i128` as raw little-endian octets (sparse-recovery cell sums).
    pub fn put_i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` as its raw IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A `u64` slice with a length prefix.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// An `f64` slice with a length prefix.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// A raw byte blob with a length prefix (an opaque nested payload, e.g.
    /// a framed checkpoint riding inside a protocol response).
    pub fn put_blob(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// A UTF-8 string as a length-prefixed byte blob.
    pub fn put_str(&mut self, s: &str) {
        self.put_blob(s.as_bytes());
    }
}

/// Bounds-checked cursor over wire bytes.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Asserts the input is fully consumed (top-level decoders call this to
    /// reject padded/concatenated garbage).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }

    /// One raw byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// LEB128 varint; rejects encodings longer than 10 bytes or overflowing
    /// 64 bits.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            let chunk = (byte & 0x7F) as u64;
            if shift == 63 && chunk > 1 {
                return Err(WireError::Invalid("varint overflow"));
            }
            v |= chunk << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::Invalid("overlong varint"))
    }

    /// A varint that must fit a `usize`.
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.get_u64()?).map_err(|_| WireError::Invalid("length exceeds usize"))
    }

    /// A length prefix for a sequence whose elements occupy at least
    /// `min_elem_bytes` each; rejects lengths the remaining input cannot
    /// possibly hold, so a hostile prefix can never drive a huge allocation.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let len = self.get_usize()?;
        let need = len
            .checked_mul(min_elem_bytes.max(1))
            .ok_or(WireError::Invalid("length overflow"))?;
        if need > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(len)
    }

    /// Zigzag-coded signed varint.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        let z = self.get_u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Raw little-endian `i128`.
    pub fn get_i128(&mut self) -> Result<i128, WireError> {
        let end = self.pos.checked_add(16).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        let arr: [u8; 16] = bytes.try_into().map_err(|_| WireError::Truncated)?;
        Ok(i128::from_le_bytes(arr))
    }

    /// Raw IEEE-754 `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        let end = self.pos.checked_add(8).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        let arr: [u8; 8] = bytes.try_into().map_err(|_| WireError::Truncated)?;
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// A length-prefixed `u64` sequence.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let len = self.get_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// A length-prefixed `f64` sequence.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let len = self.get_len(8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// A length-prefixed raw byte blob (the inverse of
    /// [`WireWriter::put_blob`]). The length is validated against the bytes
    /// actually present before allocating.
    pub fn get_blob(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_len(1)?;
        let end = self.pos.checked_add(len).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(bytes.to_vec())
    }

    /// A length-prefixed UTF-8 string; invalid UTF-8 is a [`WireError`],
    /// never a panic.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.get_blob()?).map_err(|_| WireError::Invalid("non-UTF-8 string"))
    }
}

/// A value with a binary wire encoding.
///
/// Encoding is fallible only for values that cannot cross process
/// boundaries at all (e.g. samplers wrapping opaque user closures); every
/// shippable value encodes unconditionally.
pub trait Encode {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError>;

    /// Convenience: the unframed encoding as a fresh byte vector.
    fn to_wire_bytes(&self) -> Result<Vec<u8>, WireError> {
        let mut w = WireWriter::new();
        self.encode(&mut w)?;
        Ok(w.into_bytes())
    }
}

/// A value decodable from its wire encoding.
///
/// Implementations validate shape and ranges before allocating or
/// constructing, and must never panic on malformed input.
pub trait Decode: Sized {
    /// Reads one value from `r`.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Convenience: decodes a value that must span exactly `bytes`.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Writes the framed envelope around `payload`:
/// magic, version, kind, varint length, payload, FNV-1a checksum (over the
/// version byte, the kind byte, and the payload).
pub fn write_frame<W: Write>(kind: u8, payload: &[u8], sink: &mut W) -> std::io::Result<()> {
    sink.write_all(&WIRE_MAGIC)?;
    sink.write_all(&[WIRE_VERSION, kind])?;
    let mut len = WireWriter::new();
    len.put_usize(payload.len());
    sink.write_all(len.as_bytes())?;
    sink.write_all(payload)?;
    sink.write_all(&frame_checksum(WIRE_VERSION, kind, payload).to_le_bytes())?;
    Ok(())
}

/// A frame-read failure, classified by whether the byte stream is still
/// at a frame boundary afterwards — what lets a *server* decide between
/// answering in-band and closing the connection (see
/// [`crate::protocol`]'s error-response semantics).
#[derive(Debug)]
pub enum FrameError {
    /// The full frame extent was consumed; the next byte is the start of
    /// the next frame. Report in-band and keep the connection.
    Recoverable(WireError),
    /// Framing is destroyed (or the peer is gone); report best-effort and
    /// close.
    Fatal(WireError),
    /// Fatal, specifically because the length field exceeded the caller's
    /// cap — split out so a server can answer with its wire-stable
    /// "too large" code without matching on error text.
    TooLarge(WireError),
}

impl FrameError {
    /// The uniform recoverability classification shared across the
    /// stack's error surfaces (`pts_server::ClientError::is_recoverable`,
    /// `pts_cluster::ClusterError::is_recoverable` follow the same
    /// contract): `true` means the byte stream is still at a frame
    /// boundary, so the consumer may answer in-band and keep using the
    /// connection; `false` means framing state is lost and the connection
    /// must be closed (and, for a client, re-established). Only
    /// [`FrameError::Recoverable`] is recoverable — [`FrameError::Fatal`]
    /// and [`FrameError::TooLarge`] both destroy the stream position.
    pub fn is_recoverable(&self) -> bool {
        matches!(self, FrameError::Recoverable(_))
    }

    /// Collapses the classification back into the plain wire error
    /// (strict readers treat every class as failure).
    pub fn into_wire_error(self) -> WireError {
        match self {
            FrameError::Recoverable(e) | FrameError::Fatal(e) | FrameError::TooLarge(e) => e,
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Recoverable(e) => write!(f, "recoverable frame error: {e}"),
            FrameError::Fatal(e) => write!(f, "fatal frame error: {e}"),
            FrameError::TooLarge(e) => write!(f, "fatal frame error (over size cap): {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one envelope of `expect_kind`, consuming **exactly one frame
/// extent whenever the length field is readable and within `max_len`** —
/// the property that lets a server answer a corrupt frame in-band and
/// keep the connection at a valid boundary.
///
/// Validation order is therefore deliberate: magic and length first
/// (their failure is [`FrameError::Fatal`] / [`FrameError::TooLarge`] —
/// the stream position is unrecoverable), then the payload and checksum
/// bytes are consumed in full, and only *then* are version, kind, and
/// checksum judged (their failure is [`FrameError::Recoverable`]). A
/// hostile length neither allocates up front (the payload is read
/// through a length-capped reader) nor makes the caller consume more
/// than `max_len` bytes.
///
/// This is the one frame-parsing implementation; the strict
/// [`read_frame`] delegates to it.
pub fn read_frame_lenient<R: Read>(
    expect_kind: u8,
    max_len: u64,
    src: &mut R,
) -> Result<Vec<u8>, FrameError> {
    let fatal = |e: WireError| FrameError::Fatal(e);
    let mut magic = [0u8; 4];
    src.read_exact(&mut magic).map_err(|e| fatal(e.into()))?;
    if magic != WIRE_MAGIC {
        return Err(fatal(WireError::BadMagic));
    }
    let mut head = [0u8; 2];
    src.read_exact(&mut head).map_err(|e| fatal(e.into()))?;
    let (version, kind) = (head[0], head[1]);
    // The length varint, byte-at-a-time off the reader.
    let mut len: u64 = 0;
    let mut done = false;
    for shift in (0..64).step_by(7) {
        let mut b = [0u8; 1];
        src.read_exact(&mut b).map_err(|e| fatal(e.into()))?;
        let chunk = (b[0] & 0x7F) as u64;
        if shift == 63 && chunk > 1 {
            return Err(fatal(WireError::Invalid("varint overflow")));
        }
        len |= chunk << shift;
        if b[0] & 0x80 == 0 {
            done = true;
            break;
        }
    }
    if !done {
        return Err(fatal(WireError::Invalid("overlong varint")));
    }
    if len > max_len {
        return Err(FrameError::TooLarge(WireError::Invalid(
            "frame exceeds size cap",
        )));
    }
    // Consume the full frame extent: payload + checksum. `take` bounds the
    // read; the Vec grows only as real bytes arrive, so a hostile length
    // cannot force a giant allocation. From here on the stream is at a
    // frame boundary, so failures become recoverable.
    let mut payload = Vec::new();
    let read = src
        .take(len)
        .read_to_end(&mut payload)
        .map_err(|e| fatal(e.into()))?;
    if (read as u64) < len {
        return Err(fatal(WireError::Truncated));
    }
    let mut sum = [0u8; 8];
    src.read_exact(&mut sum).map_err(|e| fatal(e.into()))?;
    if version != WIRE_VERSION {
        return Err(FrameError::Recoverable(WireError::BadVersion {
            got: version,
        }));
    }
    if kind != expect_kind {
        return Err(FrameError::Recoverable(WireError::Invalid(
            "frame kind mismatch",
        )));
    }
    if u64::from_le_bytes(sum) != frame_checksum(version, kind, &payload) {
        return Err(FrameError::Recoverable(WireError::BadChecksum));
    }
    Ok(payload)
}

/// Reads one framed payload, validating magic, version, kind, and checksum.
/// Truncated, corrupted, or version-bumped frames return a [`WireError`];
/// nothing panics and no attacker-chosen allocation happens up front (the
/// payload is read incrementally through a length-capped reader). Strict:
/// any malformation is a plain error; servers that must keep a connection
/// alive across bad frames use [`read_frame_lenient`] directly.
pub fn read_frame<R: Read>(expect_kind: u8, src: &mut R) -> Result<Vec<u8>, WireError> {
    read_frame_lenient(expect_kind, u64::MAX, src).map_err(FrameError::into_wire_error)
}

impl Encode for Xoshiro256pp {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        for word in self.state() {
            w.put_u64(word);
        }
        Ok(())
    }
}

impl Decode for Xoshiro256pp {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.get_u64()?;
        }
        Ok(Xoshiro256pp::from_state(s))
    }
}

impl Encode for KWiseHash {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u64s(self.coefficients());
        Ok(())
    }
}

impl Decode for KWiseHash {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let coeffs = r.get_u64s()?;
        if coeffs.is_empty() || coeffs.len() > 64 {
            return Err(WireError::Invalid("hash coefficient count"));
        }
        if coeffs.iter().any(|&c| c >= MERSENNE_P) {
            return Err(WireError::Invalid("hash coefficient out of field"));
        }
        Ok(KWiseHash::from_coefficients(coeffs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_published_reference_vectors() {
        // Independent implementations of the frame spec must agree, so pin
        // the textbook 64-bit FNV-1a values.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn varint_roundtrip_edges() {
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut w = WireWriter::new();
        for &v in &cases {
            w.put_u64(v);
        }
        let mut r = WireReader::new(w.as_bytes());
        for &v in &cases {
            assert_eq!(r.get_u64().unwrap(), v);
        }
        r.finish().unwrap();
    }

    #[test]
    fn zigzag_roundtrip_edges() {
        let cases = [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN];
        let mut w = WireWriter::new();
        for &v in &cases {
            w.put_i64(v);
        }
        let mut r = WireReader::new(w.as_bytes());
        for &v in &cases {
            assert_eq!(r.get_i64().unwrap(), v);
        }
    }

    #[test]
    fn f64_bit_exact_including_nan() {
        let cases = [0.0f64, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE];
        let mut w = WireWriter::new();
        for &v in &cases {
            w.put_f64(v);
        }
        w.put_f64(f64::NAN);
        let mut r = WireReader::new(w.as_bytes());
        for &v in &cases {
            assert_eq!(r.get_f64().unwrap().to_bits(), v.to_bits());
        }
        assert!(r.get_f64().unwrap().is_nan());
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX);
        w.put_f64(1.0);
        w.put_i128(-5);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            // Whatever partially decodes must end in an error, not a panic.
            let ok = (|| -> Result<(), WireError> {
                r.get_u64()?;
                r.get_f64()?;
                r.get_i128()?;
                Ok(())
            })();
            assert!(ok.is_err(), "cut at {cut} still decoded");
        }
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocating() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX); // astronomically long "length"
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.get_len(8),
            Err(WireError::Truncated) | Err(WireError::Invalid(_))
        ));
        let mut r2 = WireReader::new(&bytes);
        assert!(r2.get_f64s().is_err());
    }

    #[test]
    fn blob_and_str_roundtrip_and_reject_malformed() {
        let mut w = WireWriter::new();
        w.put_blob(&[1, 2, 3]);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_blob().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.finish().unwrap();
        // Truncated blob bodies error at every cut.
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            let ok = (|| -> Result<(), WireError> {
                r.get_blob()?;
                r.get_str()?;
                Ok(())
            })();
            assert!(ok.is_err(), "cut at {cut} still decoded");
        }
        // A length-prefixed blob that is not valid UTF-8 is an error as a
        // string, not a panic.
        let mut w = WireWriter::new();
        w.put_blob(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(matches!(
            WireReader::new(&bytes).get_str(),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn frame_roundtrip_and_rejections() {
        let payload = b"engine state".to_vec();
        let mut buf = Vec::new();
        write_frame(KIND_ENGINE, &payload, &mut buf).unwrap();
        let got = read_frame(KIND_ENGINE, &mut buf.as_slice()).unwrap();
        assert_eq!(got, payload);

        // Wrong kind.
        assert!(matches!(
            read_frame(KIND_SNAPSHOT, &mut buf.as_slice()),
            Err(WireError::Invalid(_))
        ));
        // Version bump.
        let mut bumped = buf.clone();
        bumped[4] = WIRE_VERSION + 1;
        assert!(matches!(
            read_frame(KIND_ENGINE, &mut bumped.as_slice()),
            Err(WireError::BadVersion { .. })
        ));
        // Bad magic.
        let mut magicless = buf.clone();
        magicless[0] = b'X';
        assert!(matches!(
            read_frame(KIND_ENGINE, &mut magicless.as_slice()),
            Err(WireError::BadMagic)
        ));
        // Flip every payload byte in turn: checksum must catch each one.
        for i in 6..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x40;
            assert!(
                read_frame(KIND_ENGINE, &mut corrupt.as_slice()).is_err(),
                "flip at {i} passed"
            );
        }
        // Truncate at every length: error, never panic.
        for cut in 0..buf.len() {
            assert!(
                read_frame(KIND_ENGINE, &mut buf[..cut].as_ref()).is_err(),
                "cut at {cut} passed"
            );
        }
    }

    #[test]
    fn rng_state_roundtrip_preserves_stream() {
        let mut rng = Xoshiro256pp::new(42);
        for _ in 0..17 {
            rng.next_u64();
        }
        let bytes = rng.to_wire_bytes().unwrap();
        let mut back = Xoshiro256pp::from_wire_bytes(&bytes).unwrap();
        let mut orig = rng.clone();
        for _ in 0..64 {
            assert_eq!(orig.next_u64(), back.next_u64());
        }
    }

    #[test]
    fn kwise_hash_roundtrip_and_validation() {
        let h = KWiseHash::from_seed(4, 7);
        let bytes = h.to_wire_bytes().unwrap();
        let back = KWiseHash::from_wire_bytes(&bytes).unwrap();
        for x in 0..200u64 {
            assert_eq!(h.hash(x), back.hash(x));
        }
        // An out-of-field coefficient is rejected.
        let mut w = WireWriter::new();
        w.put_u64s(&[MERSENNE_P]);
        assert!(KWiseHash::from_wire_bytes(w.as_bytes()).is_err());
        // Empty coefficient vectors too.
        let mut w2 = WireWriter::new();
        w2.put_u64s(&[]);
        assert!(KWiseHash::from_wire_bytes(w2.as_bytes()).is_err());
    }
}
