//! Exact s-sparse recovery for integer turnstile vectors.
//!
//! The JST11 perfect L₀ sampler (Theorem 5.4) needs to recover a subsampled
//! vector *exactly* (values included) whenever it is sparse. We use the
//! textbook construction: a grid of 1-sparse testers (sum / index-weighted
//! sum / fingerprint), peeled greedily.
//!
//! A 1-sparse cell over a vector `v` holds `W = Σ v_i`, `S = Σ v_i·i` and a
//! fingerprint `F = Σ v_i·r^i mod P` (P = 2^61−1, r keyed). If exactly one
//! index is alive, `i = S/W` and `F = W·r^i`; the fingerprint makes false
//! positives vanishingly unlikely.

use crate::traits::LinearSketch;
use pts_util::hashing::MERSENNE_P;
use pts_util::wire::{Decode, Encode, WireError, WireReader, WireWriter};
use pts_util::{derive_seed, keyed_u64, KWiseHash, Xoshiro256pp};

/// Modular exponentiation `r^e mod 2^61−1`.
fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    base %= MERSENNE_P;
    let mut acc: u128 = 1;
    let mut b: u128 = base as u128;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = (acc * b) % (MERSENNE_P as u128);
        }
        b = (b * b) % (MERSENNE_P as u128);
        exp >>= 1;
    }
    acc as u64
}

/// Adds `delta·r^index` to a fingerprint accumulator (mod P, delta signed),
/// given `power = r^index mod P`.
fn fp_add(fp: u64, power: u64, delta: i64) -> u64 {
    let term =
        (power as u128 * (delta.unsigned_abs() as u128 % MERSENNE_P as u128)) % MERSENNE_P as u128;
    let term = term as u64;
    if delta >= 0 {
        ((fp as u128 + term as u128) % MERSENNE_P as u128) as u64
    } else {
        ((fp as u128 + (MERSENNE_P - term) as u128) % MERSENNE_P as u128) as u64
    }
}

/// A single 1-sparse tester cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct OneSparseCell {
    /// `Σ v_i` over indices hashed here.
    weight: i128,
    /// `Σ v_i · i`.
    index_weighted: i128,
    /// `Σ v_i · r^i mod P`.
    fingerprint: u64,
}

impl OneSparseCell {
    /// Adds `delta` at `index` for fingerprint base `r` (the single-cell
    /// form the unit tests drive; the grid goes through `add`).
    #[cfg(test)]
    fn update(&mut self, index: u64, delta: i64, r: u64) {
        self.add(index, delta, pow_mod(r, index));
    }

    /// [`OneSparseCell::update`] given `power = r^index mod P`, which is
    /// the same for every row's cell.
    fn add(&mut self, index: u64, delta: i64, power: u64) {
        self.weight += delta as i128;
        self.index_weighted += delta as i128 * index as i128;
        self.fingerprint = fp_add(self.fingerprint, power, delta);
    }

    /// Pointwise add of another cell over the same hash position (linearity:
    /// sums and the modular fingerprint are both additive).
    fn absorb(&mut self, other: &OneSparseCell) {
        self.weight += other.weight;
        self.index_weighted += other.index_weighted;
        self.fingerprint =
            ((self.fingerprint as u128 + other.fingerprint as u128) % MERSENNE_P as u128) as u64;
    }

    fn is_zero(&self) -> bool {
        self.weight == 0 && self.index_weighted == 0 && self.fingerprint == 0
    }

    /// Decodes `(index, value)` if the cell provably holds exactly one item.
    fn decode(&self, r: u64) -> Option<(u64, i64)> {
        if self.weight == 0 {
            return None;
        }
        if self.index_weighted % self.weight != 0 {
            return None;
        }
        let idx = self.index_weighted / self.weight;
        if idx < 0 || idx > u64::MAX as i128 {
            return None;
        }
        let idx = idx as u64;
        let val = self.weight;
        if val.abs() > i64::MAX as i128 {
            return None;
        }
        // Verify against the fingerprint.
        let expect = fp_add(0, pow_mod(r, idx), val as i64);
        (expect == self.fingerprint).then_some((idx, val as i64))
    }
}

/// Exact `s`-sparse recovery structure: `rows × 2s` grid of 1-sparse cells
/// with pairwise-independent bucket hashes, decoded by peeling.
#[derive(Debug, Clone)]
pub struct SparseRecovery {
    sparsity: usize,
    rows: usize,
    buckets: usize,
    cells: Vec<OneSparseCell>,
    hashes: Vec<KWiseHash>,
    fingerprint_base: u64,
}

impl SparseRecovery {
    /// Recovery succeeds w.h.p. whenever the vector has at most `sparsity`
    /// non-zeros; `rows` controls the failure probability (`2^{−Ω(rows)}`).
    ///
    /// # Panics
    /// Panics on a degenerate configuration.
    pub fn new(sparsity: usize, rows: usize, seed: u64) -> Self {
        assert!(sparsity >= 1 && rows >= 1, "degenerate configuration");
        let buckets = 2 * sparsity;
        let mut rng = Xoshiro256pp::new(derive_seed(seed, 0x5A25));
        let hashes = (0..rows).map(|_| KWiseHash::new(2, &mut rng)).collect();
        // Fingerprint base in [2, P): keyed off the seed.
        let fingerprint_base = 2 + keyed_u64(seed, 0xF1A6) % (MERSENNE_P - 2);
        Self {
            sparsity,
            rows,
            buckets,
            cells: vec![OneSparseCell::default(); rows * buckets],
            hashes,
            fingerprint_base,
        }
    }

    /// Applies an integer turnstile update. Every row shares the base and
    /// the index, so the fingerprint power is computed once per update.
    pub fn update_int(&mut self, index: u64, delta: i64) {
        let power = pow_mod(self.fingerprint_base, index);
        for r in 0..self.rows {
            let b = self.hashes[r].bucket(index, self.buckets);
            self.cells[r * self.buckets + b].add(index, delta, power);
        }
    }

    /// The designed sparsity budget.
    pub fn sparsity(&self) -> usize {
        self.sparsity
    }

    /// Whether every cell is identically zero (vector is zero w.h.p.).
    pub fn is_zero(&self) -> bool {
        self.cells.iter().all(OneSparseCell::is_zero)
    }

    /// Attempts exact recovery by peeling. Returns the non-zero support
    /// `(index, value)` sorted by index, or `None` if the vector is not
    /// explainable within the sparsity budget.
    pub fn recover(&self) -> Option<Vec<(u64, i64)>> {
        let mut work = self.clone();
        let mut recovered: Vec<(u64, i64)> = Vec::new();
        // Peel: find any decodable cell, subtract the item everywhere.
        // At most `sparsity` + slack iterations can succeed.
        for _ in 0..(2 * self.sparsity + 4) {
            if work.is_zero() {
                recovered.sort_unstable();
                // Merge duplicates (an index can be recovered in pieces if
                // its updates were split — values then add).
                let mut merged: Vec<(u64, i64)> = Vec::with_capacity(recovered.len());
                for (i, v) in recovered {
                    match merged.last_mut() {
                        Some((li, lv)) if *li == i => *lv += v,
                        _ => merged.push((i, v)),
                    }
                }
                merged.retain(|&(_, v)| v != 0);
                if merged.len() <= self.sparsity {
                    return Some(merged);
                }
                return None;
            }
            let mut found = None;
            'search: for cell in &work.cells {
                if let Some((idx, val)) = cell.decode(work.fingerprint_base) {
                    found = Some((idx, val));
                    break 'search;
                }
            }
            let (idx, val) = found?;
            work.update_int(idx, -val);
            recovered.push((idx, val));
        }
        None
    }
}

impl LinearSketch for SparseRecovery {
    /// Floating updates are accepted only when integral: the L₀ machinery is
    /// exact-integer by design.
    ///
    /// # Panics
    /// Panics if `delta` is not an integer value.
    fn update(&mut self, index: u64, delta: f64) {
        assert!(
            delta.fract() == 0.0 && delta.abs() <= i64::MAX as f64,
            "sparse recovery is integer-only"
        );
        self.update_int(index, delta as i64);
    }

    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.fingerprint_base, other.fingerprint_base,
            "seed mismatch"
        );
        assert_eq!(self.sparsity, other.sparsity, "sparsity mismatch");
        assert_eq!(self.rows, other.rows, "row mismatch");
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            a.absorb(b);
        }
    }

    fn space_bits(&self) -> usize {
        // Each cell: two 128-bit sums + 61-bit fingerprint.
        let cell_bits = 128 + 128 + 61;
        self.cells.len() * cell_bits
            + self.hashes.iter().map(KWiseHash::space_bits).sum::<usize>()
            + 64
    }
}

impl Encode for SparseRecovery {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_usize(self.sparsity);
        w.put_usize(self.rows);
        w.put_u64(self.fingerprint_base);
        for h in &self.hashes {
            h.encode(w)?;
        }
        for cell in &self.cells {
            w.put_i128(cell.weight);
            w.put_i128(cell.index_weighted);
            w.put_u64(cell.fingerprint);
        }
        Ok(())
    }
}

impl Decode for SparseRecovery {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let sparsity = r.get_usize()?;
        let rows = r.get_usize()?;
        let fingerprint_base = r.get_u64()?;
        if !(1..=1 << 20).contains(&sparsity) || !(1..=1024).contains(&rows) {
            return Err(WireError::Invalid("sparse-recovery shape"));
        }
        let buckets = 2 * sparsity;
        let cell_count = rows
            .checked_mul(buckets)
            .ok_or(WireError::Invalid("sparse-recovery shape overflow"))?;
        let mut hashes = Vec::with_capacity(rows);
        for _ in 0..rows {
            hashes.push(KWiseHash::decode(r)?);
        }
        // Each cell occupies at least 33 bytes on the wire; reject shapes
        // the remaining input cannot hold before allocating the grid.
        if cell_count.saturating_mul(33) > r.remaining() {
            return Err(WireError::Truncated);
        }
        let mut cells = Vec::with_capacity(cell_count);
        for _ in 0..cell_count {
            cells.push(OneSparseCell {
                weight: r.get_i128()?,
                index_weighted: r.get_i128()?,
                fingerprint: r.get_u64()?,
            });
        }
        Ok(Self {
            sparsity,
            rows,
            buckets,
            cells,
            hashes,
            fingerprint_base,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_util::Xoshiro256pp;

    #[test]
    fn pow_mod_matches_naive() {
        for (b, e) in [(2u64, 10u64), (3, 0), (7, 61), (123456789, 3)] {
            let mut naive: u128 = 1;
            for _ in 0..e {
                naive = naive * b as u128 % MERSENNE_P as u128;
            }
            assert_eq!(pow_mod(b, e) as u128, naive, "b={b} e={e}");
        }
    }

    #[test]
    fn one_sparse_cell_roundtrip() {
        let r = 1234577;
        let mut cell = OneSparseCell::default();
        cell.update(42, -17, r);
        assert_eq!(cell.decode(r), Some((42, -17)));
        cell.update(42, 17, r);
        assert!(cell.is_zero());
    }

    #[test]
    fn one_sparse_cell_rejects_two_items() {
        let r = 987654321;
        let mut cell = OneSparseCell::default();
        cell.update(3, 5, r);
        cell.update(9, 5, r);
        // (S/W = 6 parses as an index but the fingerprint refuses.)
        assert_eq!(cell.decode(r), None);
    }

    #[test]
    fn recovers_exact_sparse_vector() {
        let mut sr = SparseRecovery::new(8, 4, 1);
        let support = [(5u64, 3i64), (100, -7), (1000, 42), (65535, 1)];
        for &(i, v) in &support {
            sr.update_int(i, v);
        }
        let got = sr.recover().expect("recovery should succeed");
        assert_eq!(got, support.to_vec());
    }

    #[test]
    fn recovery_after_cancellation() {
        let mut sr = SparseRecovery::new(4, 4, 2);
        sr.update_int(7, 10);
        sr.update_int(8, 3);
        sr.update_int(7, -10); // cancels
        let got = sr.recover().expect("recovery should succeed");
        assert_eq!(got, vec![(8, 3)]);
    }

    #[test]
    fn zero_vector_recovers_empty() {
        let sr = SparseRecovery::new(4, 4, 3);
        assert!(sr.is_zero());
        assert_eq!(sr.recover(), Some(vec![]));
    }

    #[test]
    fn overfull_vector_fails_gracefully() {
        let mut sr = SparseRecovery::new(4, 4, 4);
        let mut rng = Xoshiro256pp::new(5);
        // 64 items >> sparsity 4: recovery must return None, not garbage.
        let mut failures = 0;
        for trial in 0..20 {
            let mut s = SparseRecovery::new(4, 4, 100 + trial);
            for _ in 0..64 {
                s.update_int(rng.next_below(10_000), 1 + rng.next_below(50) as i64);
            }
            if s.recover().is_none() {
                failures += 1;
            }
        }
        assert!(
            failures >= 19,
            "dense vectors must fail recovery: {failures}/20"
        );
        // Keep the original (unused beyond construction) exercised:
        sr.update_int(1, 1);
        assert!(!sr.is_zero());
    }

    #[test]
    fn recovery_over_many_random_sparse_vectors() {
        let mut rng = Xoshiro256pp::new(6);
        let mut successes = 0;
        let trials = 50;
        for t in 0..trials {
            let mut sr = SparseRecovery::new(10, 5, 1_000 + t);
            let k = 1 + rng.next_index(10);
            let idxs = rng.sample_indices(100_000, k);
            let mut want: Vec<(u64, i64)> = idxs
                .into_iter()
                .map(|i| {
                    (
                        i as u64,
                        rng.next_sign() * (1 + rng.next_below(1_000) as i64),
                    )
                })
                .collect();
            for &(i, v) in &want {
                sr.update_int(i, v);
            }
            want.sort_unstable();
            if sr.recover() == Some(want) {
                successes += 1;
            }
        }
        assert!(successes >= trials - 1, "{successes}/{trials} recovered");
    }

    #[test]
    #[should_panic(expected = "integer-only")]
    fn float_updates_rejected() {
        let mut sr = SparseRecovery::new(2, 2, 7);
        sr.update(1, 0.5);
    }
}
