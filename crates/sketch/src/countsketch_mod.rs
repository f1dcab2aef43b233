//! The JW18-modified CountSketch used in Section 3.
//!
//! Instead of one bucket per row, every (row, bucket, item) triple has an
//! i.i.d. membership indicator `h_{i,j,k} = 1` with probability `1/buckets`,
//! and signs `g_{i,k}` are Rademacher per (row, item). The estimate of item
//! `k` is the median of `g_{i,k}·A_{i,j}` over **all** cells containing `k`.
//! An item can land in several buckets of one row or in none — this is the
//! property the paper's fast-update simulation (geometric bucket gaps)
//! relies on, and it decouples the cell set from any fixed per-row hash.
//!
//! The cell set of an item is regenerated deterministically from
//! `(seed, item)` by geometric jumps across the flattened table, so updates
//! need no per-item state and the expected work per update is `Θ(rows)`.

use crate::countsketch::median_in_place;
use crate::traits::LinearSketch;
use pts_util::variates::{geometric, keyed_sign};
use pts_util::{derive_seed, Xoshiro256pp};

/// The modified CountSketch table.
#[derive(Debug, Clone)]
pub struct ModCountSketch {
    rows: usize,
    buckets: usize,
    table: Vec<f64>,
    seed: u64,
}

impl ModCountSketch {
    /// Creates an empty table.
    ///
    /// # Panics
    /// Panics on degenerate shapes.
    pub fn new(rows: usize, buckets: usize, seed: u64) -> Self {
        assert!(rows > 0 && buckets > 0, "degenerate table");
        Self {
            rows,
            buckets,
            table: vec![0.0; rows * buckets],
            seed,
        }
    }

    /// The flattened cells `(row, bucket)` containing `item`, derived by
    /// geometric gaps with success probability `1/buckets` — identical in
    /// distribution to i.i.d. Bernoulli membership per cell.
    pub fn cells_of(&self, item: u64) -> Vec<(usize, usize)> {
        let total = self.rows * self.buckets;
        let mut rng = Xoshiro256pp::new(derive_seed(derive_seed(self.seed, 0xCE11), item));
        let p = 1.0 / self.buckets as f64;
        let mut cells = Vec::with_capacity(self.rows + 2);
        let mut pos: u64 = 0;
        loop {
            pos += geometric(&mut rng, p);
            if pos > total as u64 {
                break;
            }
            let flat = (pos - 1) as usize;
            cells.push((flat / self.buckets, flat % self.buckets));
        }
        cells
    }

    /// The Rademacher sign `g_{row, item}`.
    #[inline]
    pub fn sign(&self, row: usize, item: u64) -> i64 {
        keyed_sign(derive_seed(self.seed, 0x5160 + row as u64), item)
    }

    /// Point estimate: median of `g_{i,k}·A_{i,j}` over the item's cells;
    /// `None` if the item was hashed into no cell (probability `e^{−rows}`).
    pub fn estimate(&self, item: u64) -> Option<f64> {
        let cells = self.cells_of(item);
        if cells.is_empty() {
            return None;
        }
        let mut vals: Vec<f64> = cells
            .iter()
            .map(|&(r, b)| self.sign(r, item) as f64 * self.table[r * self.buckets + b])
            .collect();
        Some(median_in_place(&mut vals))
    }

    /// Direct cell write used by the fast-update simulation (Algorithm 4):
    /// the caller has already aggregated the signed mass for the cell.
    pub fn add_to_cell(&mut self, row: usize, bucket: usize, value: f64) {
        assert!(
            row < self.rows && bucket < self.buckets,
            "cell out of range"
        );
        self.table[row * self.buckets + bucket] += value;
    }

    /// Raw table access for white-box tests.
    #[doc(hidden)]
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// The per-estimate noise scale `‖x‖₂/√buckets`, read off the table:
    /// each row's sum of squared cells is an unbiased `F₂` estimate (signs
    /// cancel cross terms), and the per-cell collision noise is its
    /// `1/buckets` fraction.
    pub fn noise_scale(&self) -> f64 {
        let per_row: f64 = self.table.iter().map(|c| c * c).sum::<f64>() / self.rows as f64;
        (per_row / self.buckets as f64).sqrt()
    }
}

impl LinearSketch for ModCountSketch {
    #[inline]
    fn update(&mut self, index: u64, delta: f64) {
        for (r, b) in self.cells_of(index) {
            let s = self.sign(r, index) as f64;
            self.table[r * self.buckets + b] += s * delta;
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
        self.table.len() * 64 + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_stream::gen::zipf_vector;

    #[test]
    fn cell_sets_are_deterministic_and_expected_size() {
        let cs = ModCountSketch::new(7, 32, 1);
        let a = cs.cells_of(42);
        let b = cs.cells_of(42);
        assert_eq!(a, b);
        // Expected |cells| = rows; average over many items.
        let total: usize = (0..2_000u64).map(|i| cs.cells_of(i).len()).sum();
        let avg = total as f64 / 2_000.0;
        assert!((avg - 7.0).abs() < 0.3, "avg cells {avg}");
    }

    #[test]
    fn membership_rate_is_one_over_buckets() {
        let cs = ModCountSketch::new(5, 20, 2);
        // Count how often item k occupies a *fixed* cell across items.
        let mut hits = 0usize;
        let items = 20_000u64;
        for k in 0..items {
            if cs.cells_of(k).contains(&(2, 7)) {
                hits += 1;
            }
        }
        let rate = hits as f64 / items as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn sparse_vector_recovery() {
        let mut cs = ModCountSketch::new(9, 64, 3);
        cs.update(5, 100.0);
        cs.update(900, -40.0);
        let e5 = cs.estimate(5).unwrap();
        let e900 = cs.estimate(900).unwrap();
        assert!((e5 - 100.0).abs() < 1e-9, "{e5}");
        assert!((e900 + 40.0).abs() < 1e-9, "{e900}");
    }

    #[test]
    fn estimate_error_within_countsketch_bound() {
        let x = zipf_vector(512, 1.0, 300, 81);
        let mut cs = ModCountSketch::new(9, 128, 4);
        cs.ingest_vector(&x);
        let l2 = x.f2().sqrt();
        let bound = 4.0 * l2 / (128f64).sqrt();
        let mut violations = 0;
        for i in 0..512u64 {
            if let Some(est) = cs.estimate(i) {
                if (est - x.value(i) as f64).abs() > bound {
                    violations += 1;
                }
            }
        }
        assert!(violations <= 10, "violations {violations}");
    }

    #[test]
    fn update_linearity() {
        let mut a = ModCountSketch::new(5, 16, 5);
        let mut b = ModCountSketch::new(5, 16, 5);
        a.update(3, 10.0);
        b.update(3, 4.0);
        b.update(3, 6.0);
        assert_eq!(a.table(), b.table());
    }

    #[test]
    fn add_to_cell_matches_manual_update() {
        // Reconstruct an update by writing its cells directly.
        let mut auto = ModCountSketch::new(5, 16, 6);
        auto.update(11, 2.5);
        let mut manual = ModCountSketch::new(5, 16, 6);
        for (r, b) in manual.cells_of(11) {
            let s = manual.sign(r, 11) as f64;
            manual.add_to_cell(r, b, s * 2.5);
        }
        assert_eq!(auto.table(), manual.table());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_to_cell_bounds_checked() {
        let mut cs = ModCountSketch::new(2, 2, 7);
        cs.add_to_cell(2, 0, 1.0);
    }
}
