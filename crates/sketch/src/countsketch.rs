//! Classic CountSketch \[CCF04\]: `d` rows × `b` buckets, per-row bucket and
//! sign hashes, median-of-rows decoding.
//!
//! Guarantee: for each `i`, `|x̂_i − x_i| ≤ O(‖x_tail‖₂ / √b)` with
//! probability `1 − 2^{−Ω(d)}`. The perfect L_p samplers lean on this twice:
//! to find the maximum of the scaled vector (Lemma 1.17 makes it a heavy
//! hitter) and to extract near-unbiased estimates `x̂_j^{(a)}` for the
//! rejection step (Corollary 2.2/2.3).
//!
//! Hashing: rows use keyed splitmix finalizers (`pts_util::keyed_u64`) —
//! the same random-oracle-style keyed randomness that drives the samplers'
//! per-index exponentials, chosen because CountSketch evaluation is the hot
//! path of every experiment (the formally pairwise/4-wise polynomial family
//! over 2^61−1 costs ~10× more per update; it remains in use where k-wise
//! independence is load-bearing for an estimator's variance analysis — AMS
//! and sparse recovery). The unbiasedness and error-bound tests below
//! validate the behaviour empirically.

use crate::traits::LinearSketch;
use pts_util::wire::{Decode, Encode, WireError, WireReader, WireWriter};
use pts_util::{derive_seed, keyed_u64};

/// The most rows a [`CountSketch`] may have: [`CountSketch::estimate`] takes
/// its row median in a stack buffer of this size. Every in-repo
/// configuration has at most 9 rows.
pub const MAX_ROWS: usize = 16;

/// The most cells (`rows × buckets`) a [`CountSketch`] may have, so that a
/// cell offset fits the 31 bits [`CountSketch::update_recording`] gives
/// it. Every in-repo configuration has at most 9 × 65,536.
pub const MAX_CELLS: usize = 1 << 24;

/// The bit of a recorded cell (see [`CountSketch::update_recording`]) that
/// holds the row's sign; the bits below it hold the table offset.
const CELL_SIGN: u32 = 1 << 31;

/// One (sketch, row) of a [`CountSketch::point_estimates`] query: the row's
/// hash key, the queried index's bucket and sign in it, and that bucket's
/// cell as rebuilt so far.
struct Lane {
    row_seed: u64,
    bucket: usize,
    sign: u64,
    cell: f64,
}

/// Configuration for a [`CountSketch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountSketchParams {
    /// Number of rows `d` (the median is taken across rows).
    pub rows: usize,
    /// Number of buckets per row `b`.
    pub buckets: usize,
}

impl CountSketchParams {
    /// Standard parameters: `rows = Θ(log n)` rows for failure probability
    /// `1/poly(n)` and the requested bucket count.
    pub fn for_universe(n: usize, buckets: usize) -> Self {
        let rows = ((n.max(2) as f64).ln().ceil() as usize).clamp(3, 9) | 1;
        Self { rows, buckets }
    }

    /// The [`space_bits`](LinearSketch::space_bits) of a sketch of this
    /// shape: one 64-bit counter per cell plus one 64-bit seed per row.
    pub fn space_bits(&self) -> usize {
        (self.rows * self.buckets + self.rows) * 64
    }
}

/// The classic CountSketch table.
#[derive(Debug, Clone)]
pub struct CountSketch {
    rows: usize,
    buckets: usize,
    table: Vec<f64>,
    row_seeds: Vec<u64>,
    seed: u64,
}

impl CountSketch {
    /// Creates an empty sketch with the given parameters and seed.
    ///
    /// # Panics
    /// Panics if `rows == 0`, `rows > MAX_ROWS`, `buckets == 0` or
    /// `rows × buckets > MAX_CELLS`.
    pub fn new(params: CountSketchParams, seed: u64) -> Self {
        check_shape(params);
        Self {
            rows: params.rows,
            buckets: params.buckets,
            table: vec![0.0; params.rows * params.buckets],
            row_seeds: row_seeds(seed).take(params.rows).collect(),
            seed,
        }
    }

    /// The point estimates at `i` of the sketches `new(params, seed)`, one
    /// per seed in `seeds`, after `update(k, value(k, v))` for each entry
    /// `(k, v)` in order — computed in one pass over the entries, without
    /// materializing a table. `out` is cleared, then gets one estimate per
    /// seed, in order.
    ///
    /// Bit-identical to each materialized [`CountSketch::estimate`]: every
    /// (seed, row) lane rebuilds its cell of `i` by summing, in entry order
    /// and from `0.0`, the signed deltas of the entries that land in it —
    /// the same float sequence the table cell receives. `value` is called
    /// at most once per entry, on the first lane where it shares `i`'s
    /// bucket, and never for an entry that shares none.
    ///
    /// # Panics
    /// Panics on the shapes [`CountSketch::new`] rejects.
    pub fn point_estimates<I, V>(
        params: CountSketchParams,
        seeds: &[u64],
        entries: I,
        i: u64,
        mut value: V,
        out: &mut Vec<f64>,
    ) where
        I: IntoIterator<Item = (u64, i64)>,
        V: FnMut(u64, i64) -> f64,
    {
        check_shape(params);
        let rows = params.rows;
        // Lane `s · rows + r` is row `r` of the sketch seeded by `seeds[s]`.
        let mut lanes: Vec<Lane> = seeds
            .iter()
            .flat_map(|&seed| row_seeds(seed).take(rows))
            .map(|row_seed| {
                let (bucket, sign) = slot(row_seed, params.buckets, i);
                Lane {
                    row_seed,
                    bucket,
                    sign,
                    cell: 0.0,
                }
            })
            .collect();
        for (k, v) in entries {
            let mut delta = None;
            for lane in &mut lanes {
                let (b, s) = slot(lane.row_seed, params.buckets, k);
                if b == lane.bucket {
                    let d = *delta.get_or_insert_with(|| value(k, v));
                    lane.cell += signed(d, s);
                }
            }
        }
        out.clear();
        out.extend(lanes.chunks_exact(rows).map(|sketch| {
            let mut vals = [0.0f64; MAX_ROWS];
            for (val, lane) in vals.iter_mut().zip(sketch) {
                *val = signed(lane.cell, lane.sign);
            }
            median_in_place(&mut vals[..rows])
        }));
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Buckets per row.
    #[inline]
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// The seed this sketch was built with (two sketches merge iff equal).
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    #[inline]
    fn cell(&self, row: usize, bucket: usize) -> usize {
        row * self.buckets + bucket
    }

    /// Point estimate `x̂_i`: median over rows of `sign · bucket`.
    pub fn estimate(&self, i: u64) -> f64 {
        let mut vals = [0.0f64; MAX_ROWS];
        for (r, v) in vals[..self.rows].iter_mut().enumerate() {
            let (b, s) = slot(self.row_seeds[r], self.buckets, i);
            *v = signed(self.table[self.cell(r, b)], s);
        }
        median_in_place(&mut vals[..self.rows])
    }

    /// [`update`](LinearSketch::update) that also appends `index`'s cell in
    /// each row to `cells`: its table offset, with the row's sign in the
    /// top bit. [`estimate_recorded`](Self::estimate_recorded) reads those
    /// cells back without hashing `index` again.
    #[inline]
    pub fn update_recording(&mut self, index: u64, delta: f64, cells: &mut Vec<u32>) {
        for r in 0..self.rows {
            let (b, s) = slot(self.row_seeds[r], self.buckets, index);
            let cell = self.cell(r, b);
            self.table[cell] += signed(delta, s);
            // `check_shape` caps the table at MAX_CELLS, below the sign bit.
            cells.push(cell as u32 | (s >> 32) as u32);
        }
    }

    /// [`estimate`](Self::estimate) of the index whose per-row `cells`
    /// [`update_recording`](Self::update_recording) appended, bit for bit.
    pub fn estimate_recorded(&self, cells: &[u32]) -> f64 {
        debug_assert_eq!(cells.len(), self.rows, "one recorded cell per row");
        let mut vals = [0.0f64; MAX_ROWS];
        for (v, &c) in vals.iter_mut().zip(cells) {
            *v = signed(
                self.table[(c & !CELL_SIGN) as usize],
                u64::from(c & CELL_SIGN) << 32,
            );
        }
        median_in_place(&mut vals[..self.rows])
    }

    /// The index with the largest estimated magnitude over `[0, n)`,
    /// together with its estimate.
    pub fn argmax(&self, n: usize) -> (u64, f64) {
        let mut best = (0u64, f64::NEG_INFINITY);
        for i in 0..n as u64 {
            let e = self.estimate(i);
            if e.abs() > best.1.abs() || best.1 == f64::NEG_INFINITY {
                best = (i, e);
            }
        }
        best
    }

    /// Raw table access for white-box tests.
    #[doc(hidden)]
    pub fn table(&self) -> &[f64] {
        &self.table
    }
}

impl LinearSketch for CountSketch {
    #[inline]
    fn update(&mut self, index: u64, delta: f64) {
        for r in 0..self.rows {
            let (b, s) = slot(self.row_seeds[r], self.buckets, index);
            let cell = self.cell(r, b);
            self.table[cell] += signed(delta, s);
        }
    }

    fn merge(&mut self, other: &Self) {
        assert_eq!(self.seed, other.seed, "seed mismatch");
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.buckets, other.buckets, "bucket mismatch");
        for (a, b) in self.table.iter_mut().zip(&other.table) {
            *a += b;
        }
    }

    fn space_bits(&self) -> usize {
        CountSketchParams {
            rows: self.rows,
            buckets: self.buckets,
        }
        .space_bits()
    }
}

impl Encode for CountSketch {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_usize(self.rows);
        w.put_usize(self.buckets);
        w.put_u64(self.seed);
        w.put_f64s(&self.table);
        Ok(())
    }
}

impl Decode for CountSketch {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rows = r.get_usize()?;
        let buckets = r.get_usize()?;
        let seed = r.get_u64()?;
        if !(1..=MAX_ROWS).contains(&rows) || buckets == 0 {
            return Err(WireError::Invalid("countsketch shape"));
        }
        let cells = rows
            .checked_mul(buckets)
            .filter(|&cells| cells <= MAX_CELLS)
            .ok_or(WireError::Invalid("countsketch shape overflow"))?;
        let table = r.get_f64s()?;
        if table.len() != cells {
            return Err(WireError::Invalid("countsketch table length"));
        }
        if !table.iter().all(|c| c.is_finite()) {
            return Err(WireError::Invalid("countsketch cell not finite"));
        }
        // Row seeds are pure functions of the seed — recomputed, not shipped.
        Ok(Self {
            rows,
            buckets,
            table,
            row_seeds: row_seeds(seed).take(rows).collect(),
            seed,
        })
    }
}

/// Asserts the shape invariants every sketch and point query relies on.
fn check_shape(params: CountSketchParams) {
    assert!(params.rows > 0 && params.buckets > 0, "degenerate table");
    assert!(
        params.rows <= MAX_ROWS,
        "{} rows exceed MAX_ROWS = {MAX_ROWS}",
        params.rows
    );
    assert!(
        params.buckets <= MAX_CELLS / params.rows,
        "{} × {} cells exceed MAX_CELLS = {MAX_CELLS}",
        params.rows,
        params.buckets
    );
}

/// The hash keys of rows `0, 1, …` of a sketch seeded by `seed`.
fn row_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let base = derive_seed(seed, 0x6353);
    (0u64..).map(move |r| derive_seed(base, r))
}

/// The (bucket, sign) pair of index `i` in the row keyed by `row_seed`: one
/// keyed-hash evaluation supplies 63 bits for the bucket and 1 bit for the
/// sign, returned in bit 63 (set for `−1`) for [`signed`].
#[inline]
fn slot(row_seed: u64, buckets: usize, i: u64) -> (usize, u64) {
    let h = keyed_u64(row_seed, i);
    let bucket = (((h >> 1) as u128 * buckets as u128) >> 63) as usize;
    (bucket, h << 63)
}

/// `x` with `sign` (`0` or bit 63) XORed into its sign bit: `±1.0 · x`
/// without a branch, bit for bit for every non-NaN `x`, `±0.0` included.
#[inline]
pub(crate) fn signed(x: f64, sign: u64) -> f64 {
    f64::from_bits(x.to_bits() ^ sign)
}

/// Median of a mutable slice (averages the middle pair on even length).
pub(crate) fn median_in_place(vals: &mut [f64]) -> f64 {
    assert!(!vals.is_empty(), "median of empty slice");
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = vals.len();
    if n % 2 == 1 {
        vals[n / 2]
    } else {
        0.5 * (vals[n / 2 - 1] + vals[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_stream::gen::zipf_vector;
    use pts_stream::{FrequencyVector, Stream, StreamStyle};

    fn params() -> CountSketchParams {
        CountSketchParams {
            rows: 5,
            buckets: 64,
        }
    }

    #[test]
    fn exact_recovery_when_sparse() {
        // With far fewer non-zeros than buckets, collisions are rare and the
        // median across 5 rows recovers values exactly.
        let mut cs = CountSketch::new(params(), 1);
        cs.update(3, 10.0);
        cs.update(47, -6.0);
        assert!((cs.estimate(3) - 10.0).abs() < 1e-9);
        assert!((cs.estimate(47) + 6.0).abs() < 1e-9);
        assert!(cs.estimate(12).abs() < 1e-9 + 16.0); // untouched index: noise only
    }

    #[test]
    fn update_is_linear_in_delta() {
        let mut a = CountSketch::new(params(), 2);
        let mut b = CountSketch::new(params(), 2);
        a.update(9, 7.5);
        b.update(9, 5.0);
        b.update(9, 2.5);
        assert_eq!(a.table(), b.table());
    }

    #[test]
    fn stream_and_vector_ingest_agree() {
        let target = zipf_vector(128, 1.1, 500, 3);
        let mut rng = pts_util::Xoshiro256pp::new(4);
        let stream = Stream::from_target(&target, StreamStyle::Turnstile { churn: 1.0 }, &mut rng);
        let mut via_stream = CountSketch::new(params(), 5);
        via_stream.ingest_stream(&stream);
        let mut via_vector = CountSketch::new(params(), 5);
        via_vector.ingest_vector(&target);
        for (a, b) in via_stream.table().iter().zip(via_vector.table()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn merge_equals_ingesting_sum() {
        let x = zipf_vector(64, 1.0, 100, 6);
        let y = zipf_vector(64, 1.0, 100, 7);
        let mut sx = CountSketch::new(params(), 8);
        sx.ingest_vector(&x);
        let mut sy = CountSketch::new(params(), 8);
        sy.ingest_vector(&y);
        sx.merge(&sy);
        let mut sxy = CountSketch::new(params(), 8);
        sxy.ingest_vector(&x.add(&y));
        for (a, b) in sx.table().iter().zip(sxy.table()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn merge_rejects_different_seeds() {
        let mut a = CountSketch::new(params(), 1);
        let b = CountSketch::new(params(), 2);
        a.merge(&b);
    }

    #[test]
    fn error_bounded_by_l2_over_sqrt_buckets() {
        // Textbook guarantee: per-index error ≲ ‖x‖₂/√b w.h.p.
        let n = 512;
        let x = zipf_vector(n, 0.8, 200, 9);
        let l2 = x.f2().sqrt();
        let cs_params = CountSketchParams {
            rows: 7,
            buckets: 128,
        };
        let mut cs = CountSketch::new(cs_params, 10);
        cs.ingest_vector(&x);
        let bound = 4.0 * l2 / (cs_params.buckets as f64).sqrt();
        let mut violations = 0;
        for i in 0..n as u64 {
            if (cs.estimate(i) - x.value(i) as f64).abs() > bound {
                violations += 1;
            }
        }
        assert!(violations <= n / 100, "violations {violations}");
    }

    #[test]
    fn estimate_is_empirically_unbiased() {
        // Average the estimate of one fixed index over many independent
        // sketches: the signed collision noise cancels.
        let x = zipf_vector(256, 1.0, 300, 11);
        let i = 17u64;
        let truth = x.value(i) as f64;
        let reps = 400;
        let mean_est: f64 = (0..reps)
            .map(|r| {
                let mut cs = CountSketch::new(
                    CountSketchParams {
                        rows: 1,
                        buckets: 32,
                    },
                    1000 + r,
                );
                cs.ingest_vector(&x);
                cs.estimate(i)
            })
            .sum::<f64>()
            / reps as f64;
        let l2 = x.f2().sqrt();
        let standard_err = l2 / 32f64.sqrt() / (reps as f64).sqrt() * 3.0;
        assert!(
            (mean_est - truth).abs() < standard_err.max(1.0),
            "mean {mean_est} vs truth {truth}"
        );
    }

    #[test]
    fn argmax_finds_planted_heavy_hitter() {
        let mut values = vec![1i64; 256];
        values[99] = 10_000;
        let x = FrequencyVector::from_values(values);
        let mut cs = CountSketch::new(params(), 12);
        cs.ingest_vector(&x);
        let (i, est) = cs.argmax(256);
        assert_eq!(i, 99);
        assert!((est - 10_000.0).abs() / 10_000.0 < 0.05);
    }

    #[test]
    fn space_bits_counts_table_and_seeds() {
        let cs = CountSketch::new(
            CountSketchParams {
                rows: 3,
                buckets: 16,
            },
            1,
        );
        // 48 counters * 64 bits + 3 row seeds * 64 bits.
        assert_eq!(cs.space_bits(), 48 * 64 + 3 * 64);
    }

    #[test]
    fn median_in_place_both_parities() {
        let mut odd = [3.0, 1.0, 2.0];
        assert_eq!(median_in_place(&mut odd), 2.0);
        let mut even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median_in_place(&mut even), 2.5);
    }

    #[test]
    fn point_estimate_equals_materialized_estimate_bit_for_bit() {
        // Even row counts take the two-value median; 4 buckets force
        // collisions, so most cells sum several entries in a fixed order.
        let mut rng = pts_util::Xoshiro256pp::new(0xC0FFEE);
        for rows in [1usize, 2, 7, 9] {
            for buckets in [4usize, 13, 576] {
                for seed in 0..6u64 {
                    let params = CountSketchParams { rows, buckets };
                    let entries: Vec<(u64, i64)> = (0..40)
                        .map(|_| {
                            let i = rng.next_below(96);
                            let magnitude = 1 + rng.next_below(1000) as i64;
                            (i, rng.next_sign() * magnitude)
                        })
                        .collect();
                    // A non-trivial per-entry value, as a scaled replica sees.
                    let value = |i: u64, v: i64| v as f64 * (1.0 + (i as f64).sqrt() / 7.0);
                    let mut cs = CountSketch::new(params, seed);
                    for &(i, v) in &entries {
                        cs.update(i, value(i, v));
                    }
                    // The recording update fills the same table, and its
                    // cells read back every entry's estimate.
                    let mut recorded = CountSketch::new(params, seed);
                    let mut cells = Vec::new();
                    for &(i, v) in &entries {
                        recorded.update_recording(i, value(i, v), &mut cells);
                    }
                    let bits = |t: &[f64]| t.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(recorded.table()), bits(cs.table()));
                    for (&(i, _), row_cells) in entries.iter().zip(cells.chunks_exact(rows)) {
                        assert_eq!(
                            recorded.estimate_recorded(row_cells).to_bits(),
                            cs.estimate(i).to_bits(),
                            "rows {rows} buckets {buckets} seed {seed} entry {i}"
                        );
                    }
                    let mut point = Vec::new();
                    for i in 0..96u64 {
                        let entries = entries.iter().copied();
                        CountSketch::point_estimates(
                            params,
                            &[seed],
                            entries,
                            i,
                            value,
                            &mut point,
                        );
                        assert_eq!(
                            bits(&point),
                            [cs.estimate(i).to_bits()],
                            "rows {rows} buckets {buckets} seed {seed} index {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn point_estimate_values_only_colliding_entries() {
        let params = CountSketchParams {
            rows: 3,
            buckets: 1 << 20,
        };
        let entries = [(5u64, 2i64), (9, 3), (5, -1)];
        let mut seen = Vec::new();
        let mut est = Vec::new();
        let value = |i, v| {
            seen.push(i);
            v as f64
        };
        CountSketch::point_estimates(params, &[3, 4], entries, 5, value, &mut est);
        assert_eq!(est, [1.0, 1.0]);
        // Index 9 shares none of 5's buckets among 2^20; index 5 is valued
        // once per entry, not once per row or per sketch.
        assert_eq!(seen, [5, 5]);
    }

    #[test]
    fn point_estimates_of_many_sketches_equal_materialized_estimates() {
        let n = 64u64;
        // A full support with mixed signs, every fifth entry of it, and the
        // full one on a narrow 64-bucket sketch, where most cells collide.
        let full: Vec<(u64, i64)> = (0..n)
            .map(|i| {
                let v = 1 + (i * 7919 % 101) as i64;
                (i, if i % 3 == 0 { -v } else { v })
            })
            .collect();
        let sparse: Vec<(u64, i64)> = full.iter().copied().step_by(5).collect();
        let value = |i: u64, v: i64| v as f64 * (1.0 + (i as f64).sqrt() / 7.0);
        let mut point = Vec::new();
        for rows in [3usize, 5, 7, 9] {
            for (entries, buckets) in [(&full, 576), (&sparse, 576), (&full, 64)] {
                let params = CountSketchParams { rows, buckets };
                for replicas in [1u64, 4, 32] {
                    let seeds: Vec<u64> = (0..replicas).map(|k| 500 + 37 * k).collect();
                    let sketches: Vec<CountSketch> = seeds
                        .iter()
                        .map(|&seed| {
                            let mut cs = CountSketch::new(params, seed);
                            for &(i, v) in entries {
                                cs.update(i, value(i, v));
                            }
                            cs
                        })
                        .collect();
                    for i in 0..n {
                        let mut calls = 0;
                        let counted = |k, v| {
                            calls += 1;
                            value(k, v)
                        };
                        let iter = entries.iter().copied();
                        CountSketch::point_estimates(params, &seeds, iter, i, counted, &mut point);
                        let want: Vec<u64> =
                            sketches.iter().map(|cs| cs.estimate(i).to_bits()).collect();
                        let got: Vec<u64> = point.iter().map(|e| e.to_bits()).collect();
                        let context = format!("rows {rows} buckets {buckets} × {replicas} i {i}");
                        assert_eq!(got, want, "{context}");
                        assert!(calls <= entries.len(), "{context}: {calls} value calls");
                    }
                }
            }
        }
    }

    #[test]
    fn for_universe_picks_odd_row_count() {
        for n in [2usize, 100, 10_000, 1_000_000] {
            let p = CountSketchParams::for_universe(n, 8);
            assert!(p.rows % 2 == 1 && (3..=9).contains(&p.rows), "n={n}");
        }
    }
}
