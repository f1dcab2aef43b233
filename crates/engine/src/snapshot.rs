//! Engine snapshots: the merge layer's wire format.
//!
//! A snapshot is the engine's compact exact state — the sparse net
//! frequency vector of everything it has ingested — flattened across
//! shards. Merging a snapshot into another engine routes the entries
//! through that engine's own ingest path, so by linearity
//! `merge(snapshot(A)) ≡ ingest(stream(A))`: two engines that each saw half
//! a stream combine into exactly the engine that saw all of it. Because the
//! payload is router-agnostic, the two engines do **not** need the same
//! shard count — a 16-shard ingest tier can snapshot into a 2-shard
//! query tier.
//!
//! This is the one codec for a net vector: snapshots, merges, and the
//! engine checkpoint (which ends with a snapshot body) all encode and
//! validate entries here.

use pts_stream::{FrequencyVector, Update};
use pts_util::wire::{
    read_frame, write_frame, Decode, Encode, WireError, WireReader, WireWriter, KIND_SNAPSHOT,
};

/// A compact, mergeable capture of an engine's ingested state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    universe: usize,
    /// Sorted sparse `(index, net value)` entries.
    entries: Vec<(u64, i64)>,
}

impl EngineSnapshot {
    /// Builds a snapshot from the shards' entries, concatenated
    /// (crate-internal). Each shard's entries arrive ascending, so the
    /// run-adaptive stable sort merges `S` runs; indices are distinct, so
    /// the order is the same as any sort's.
    pub(crate) fn from_entries(universe: usize, mut entries: Vec<(u64, i64)>) -> Self {
        entries.sort_by_key(|&(i, _)| i);
        entries.retain(|&(_, v)| v != 0);
        Self { universe, entries }
    }

    /// The universe size the snapshot was taken over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of non-zero coordinates captured.
    pub fn support(&self) -> usize {
        self.entries.len()
    }

    /// The sorted sparse entries.
    pub fn entries(&self) -> &[(u64, i64)] {
        &self.entries
    }

    /// The snapshot as a bulk-update sequence (one update per non-zero).
    pub fn to_updates(&self) -> Vec<Update> {
        self.entries
            .iter()
            .map(|&(i, v)| Update::new(i, v))
            .collect()
    }

    /// The snapshot as a dense exact frequency vector.
    pub fn to_vector(&self) -> FrequencyVector {
        let mut x = FrequencyVector::zeros(self.universe);
        for &(i, v) in &self.entries {
            x.apply(Update::new(i, v));
        }
        x
    }

    /// Size of the serialized payload in bits (128 per entry).
    pub fn space_bits(&self) -> usize {
        self.entries.len() * 128 + 64
    }

    /// The snapshot as a framed, checksummed wire payload — what actually
    /// leaves the machine. Entries are gap+zigzag varint coded, so the byte
    /// count tracks the true information content (≈ support · (Δindex +
    /// value) bytes), usually far below the 128-bit-per-entry accounting of
    /// [`EngineSnapshot::space_bits`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = WireWriter::new();
        self.encode(&mut payload).expect("snapshot always encodes");
        let mut out = Vec::with_capacity(payload.len() + 16);
        write_frame(KIND_SNAPSHOT, payload.as_bytes(), &mut out).expect("vec write");
        out
    }

    /// Decodes a payload produced by [`EngineSnapshot::to_bytes`].
    /// Truncated, corrupted, or version-bumped bytes return a
    /// [`WireError`]; decode never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let payload = read_frame(KIND_SNAPSHOT, &mut &bytes[..])?;
        Self::from_wire_bytes(&payload)
    }
}

impl Encode for EngineSnapshot {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_usize(self.universe);
        w.put_usize(self.entries.len());
        let mut prev = 0u64;
        for (k, &(i, v)) in self.entries.iter().enumerate() {
            w.put_u64(if k == 0 { i } else { i - prev - 1 });
            w.put_i64(v);
            prev = i;
        }
        Ok(())
    }
}

impl Decode for EngineSnapshot {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let universe = r.get_usize()?;
        if universe < 2 {
            return Err(WireError::Invalid("snapshot universe"));
        }
        let support = r.get_len(2)?;
        let mut entries = Vec::with_capacity(support);
        let mut prev = 0u64;
        for k in 0..support {
            let gap = r.get_u64()?;
            let i = if k == 0 {
                gap
            } else {
                prev.checked_add(gap)
                    .and_then(|v| v.checked_add(1))
                    .ok_or(WireError::Invalid("snapshot gap overflow"))?
            };
            let v = r.get_i64()?;
            if v == 0 {
                return Err(WireError::Invalid("zero entry in snapshot"));
            }
            // No engine ever holds `i64::MIN`, and `ShardedEngine::merge`
            // panics on one.
            if v == i64::MIN {
                return Err(WireError::Invalid("snapshot value i64::MIN"));
            }
            if (i as u128) >= universe as u128 {
                return Err(WireError::Invalid("snapshot entry outside universe"));
            }
            entries.push((i, v));
            prev = i;
        }
        Ok(Self { universe, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_sorted_and_nonzero() {
        let s = EngineSnapshot::from_entries(16, vec![(9, 2), (1, -3), (4, 0)]);
        assert_eq!(s.entries(), &[(1, -3), (9, 2)]);
        assert_eq!(s.support(), 2);
        assert_eq!(s.universe(), 16);
    }

    #[test]
    fn decode_rejects_a_net_value_of_i64_min() {
        let bytes = |v: i64| {
            let mut w = WireWriter::new();
            w.put_usize(32);
            w.put_usize(1);
            w.put_u64(3);
            w.put_i64(v);
            w.into_bytes()
        };
        let max = EngineSnapshot::from_wire_bytes(&bytes(-i64::MAX)).unwrap();
        assert_eq!(max.entries(), &[(3, -i64::MAX)]);
        let min = EngineSnapshot::from_wire_bytes(&bytes(i64::MIN));
        assert!(matches!(min, Err(WireError::Invalid(_))));
    }

    #[test]
    fn vector_roundtrip() {
        let s = EngineSnapshot::from_entries(8, vec![(2, 5), (7, -1)]);
        let x = s.to_vector();
        assert_eq!(x.value(2), 5);
        assert_eq!(x.value(7), -1);
        assert_eq!(x.f0(), 2);
        assert_eq!(s.to_updates().len(), 2);
    }
}
