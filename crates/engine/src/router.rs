//! The shard router: hash-partitioning of the universe and batched
//! per-shard update planning.
//!
//! Routing is a keyed hash of the index, not a contiguous range split, so a
//! skewed key space (all traffic in one prefix) still spreads across
//! shards. The router also owns the batched-ingest *plan*: scatter a batch
//! into per-shard runs, then sort and coalesce each run so every shard sees
//! at most one update per distinct index per batch — linearity makes the
//! coalesced batch equivalent, and the per-index work of the heavyweight
//! samplers (tens of sketch-row evaluations) dwarfs the sort.

use pts_stream::Update;
use pts_util::keyed_u64;
use std::collections::BTreeMap;

/// Hash-partitions `[0, n)` across `S` shards.
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter {
    shards: usize,
    seed: u64,
}

impl ShardRouter {
    /// A router over `shards` shards, keyed by `seed`.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize, seed: u64) -> Self {
        assert!(shards >= 1, "need at least one shard");
        Self { shards, seed }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `index` (stable for the router's lifetime).
    #[inline]
    pub fn shard_of(&self, index: u64) -> usize {
        // Multiply-shift of the keyed hash: unbiased bucket in [0, shards).
        ((keyed_u64(self.seed, index) as u128 * self.shards as u128) >> 64) as usize
    }

    /// Scatters `batch` into `plan` (one run per shard), then sorts each run
    /// by index and coalesces duplicate indices by summing deltas. Runs are
    /// cleared first; `plan` must have one entry per shard.
    ///
    /// # Panics
    /// Panics if `plan.len() != self.shards()`, or if a coalesced delta
    /// leaves the `i64` range.
    pub fn plan_batch(&self, batch: &[Update], plan: &mut [Vec<Update>]) {
        assert_eq!(plan.len(), self.shards, "plan arity mismatch");
        for run in plan.iter_mut() {
            run.clear();
        }
        for u in batch {
            if u.delta != 0 {
                plan[self.shard_of(u.index)].push(*u);
            }
        }
        for run in plan.iter_mut() {
            run.sort_unstable_by_key(|u| u.index);
            coalesce_sorted(run);
        }
    }
}

/// Merges adjacent same-index updates in a sorted run, dropping zero nets.
/// The sum runs in `i128`, so only the coalesced delta itself must fit an
/// `i64`, whatever order the sort left the run's deltas in.
fn coalesce_sorted(run: &mut Vec<Update>) {
    let mut write = 0usize;
    let mut read = 0usize;
    while read < run.len() {
        let index = run[read].index;
        let mut sum = 0i128;
        while read < run.len() && run[read].index == index {
            sum += i128::from(run[read].delta);
            read += 1;
        }
        let delta = i64::try_from(sum).expect("coalesced delta overflows i64");
        if delta != 0 {
            run[write] = Update::new(index, delta);
            write += 1;
        }
    }
    run.truncate(write);
}

/// A batch that would carry some net value out of the `i64` range, or onto
/// `i64::MIN` (whose `abs` wraps, giving every factory's weight a NaN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueOverflow {
    /// The first index (ascending) whose coalesced delta or new net value
    /// does not fit.
    pub index: u64,
}

impl std::fmt::Display for ValueOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "net value of index {} would leave the range (-2^63, 2^63)",
            self.index
        )
    }
}

/// The exact value check behind [`crate::ShardedEngine::check_values`]:
/// coalesces `batch` in `i128` and tests each index's coalesced delta and
/// new net value (`value` reads the current one).
pub(crate) fn first_overflow(
    batch: &[Update],
    value: impl Fn(u64) -> i64,
) -> Result<(), ValueOverflow> {
    let mut sums: BTreeMap<u64, i128> = BTreeMap::new();
    for u in batch {
        *sums.entry(u.index).or_default() += i128::from(u.delta);
    }
    let net_range = i128::from(i64::MIN) + 1..=i128::from(i64::MAX);
    for (index, sum) in sums {
        let new = i128::from(value(index)) + sum;
        if i64::try_from(sum).is_err() || !net_range.contains(&new) {
            return Err(ValueOverflow { index });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let r = ShardRouter::new(8, 42);
        for i in 0..1_000u64 {
            let s = r.shard_of(i);
            assert!(s < 8);
            assert_eq!(s, r.shard_of(i));
        }
    }

    #[test]
    fn routing_is_roughly_balanced() {
        let r = ShardRouter::new(4, 7);
        let mut counts = [0usize; 4];
        for i in 0..40_000u64 {
            counts[r.shard_of(i)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn single_shard_takes_everything() {
        let r = ShardRouter::new(1, 3);
        assert_eq!(r.shard_of(0), 0);
        assert_eq!(r.shard_of(u64::MAX), 0);
    }

    #[test]
    fn plan_batch_partitions_and_coalesces() {
        let r = ShardRouter::new(4, 11);
        let batch: Vec<Update> = vec![
            Update::new(1, 5),
            Update::new(2, 3),
            Update::new(1, -2),
            Update::new(3, 0),  // dropped: zero delta
            Update::new(2, -3), // cancels to zero net
            Update::new(9, 1),
        ];
        let mut plan: Vec<Vec<Update>> = (0..4).map(|_| Vec::new()).collect();
        r.plan_batch(&batch, &mut plan);
        let flat: Vec<Update> = plan.iter().flatten().copied().collect();
        // Net effect preserved: index 1 → +3, index 9 → +1, nothing else.
        let mut nets: Vec<(u64, i64)> = flat.iter().map(|u| (u.index, u.delta)).collect();
        nets.sort_unstable();
        assert_eq!(nets, vec![(1, 3), (9, 1)]);
        // Every update landed on its routed shard, sorted within the run.
        for (s, run) in plan.iter().enumerate() {
            assert!(run.windows(2).all(|w| w[0].index < w[1].index));
            assert!(run.iter().all(|u| r.shard_of(u.index) == s));
        }
    }

    #[test]
    fn plan_batch_reuses_buffers() {
        let r = ShardRouter::new(2, 1);
        let mut plan: Vec<Vec<Update>> = (0..2).map(|_| Vec::new()).collect();
        r.plan_batch(&[Update::new(5, 1)], &mut plan);
        r.plan_batch(&[Update::new(6, 2)], &mut plan);
        let total: usize = plan.iter().map(Vec::len).sum();
        assert_eq!(total, 1, "stale updates must be cleared between batches");
    }
}
