//! Reservoir sampling \[Vit85\]: the truly perfect L₁ sampler for
//! insertion-only streams, in `O(log n)` bits.
//!
//! This is the classical baseline in Table 1 — zero distortion, but it
//! cannot survive deletions (a turnstile update with `Δ < 0` is rejected).
//! The weighted variant treats an update `(i, Δ)` as `Δ` unit arrivals.

use crate::traits::{Sample, TurnstileSampler};
use pts_stream::Update;
use pts_util::Xoshiro256pp;

/// Single-item weighted reservoir sampler (perfect L₁ law over increments).
#[derive(Debug, Clone)]
pub struct ReservoirSampler {
    rng: Xoshiro256pp,
    total_weight: u64,
    current: Option<u64>,
}

impl ReservoirSampler {
    /// Creates an empty reservoir.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256pp::new(seed),
            total_weight: 0,
            current: None,
        }
    }

    /// Total inserted weight so far.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }
}

impl TurnstileSampler for ReservoirSampler {
    /// # Panics
    /// Panics on a deletion: reservoir sampling is insertion-only (this is
    /// precisely the limitation the paper's samplers remove).
    fn process(&mut self, u: Update) {
        assert!(
            u.delta >= 0,
            "reservoir sampling cannot process deletions (turnstile stream)"
        );
        if u.delta == 0 {
            return;
        }
        let w = u.delta as u64;
        self.total_weight += w;
        // Replace the held item with probability w / total: induction gives
        // the exact L1 law over all arrivals.
        if self.rng.next_below(self.total_weight) < w {
            self.current = Some(u.index);
        }
    }

    fn sample(&mut self) -> Option<Sample> {
        self.current.map(|index| Sample {
            index,
            // Reservoir keeps no frequency estimate; report the sampled
            // weight granularity instead (1 unit).
            estimate: 1.0,
        })
    }

    fn space_bits(&self) -> usize {
        // index + weight counter + RNG state.
        64 + 64 + 256
    }
}

/// k-item reservoir (uniform over arrivals, without replacement) — used by
/// the distributed-summary example.
#[derive(Debug, Clone)]
pub struct ReservoirK {
    rng: Xoshiro256pp,
    k: usize,
    seen: u64,
    items: Vec<u64>,
}

impl ReservoirK {
    /// A reservoir holding up to `k` items.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "reservoir capacity must be positive");
        Self {
            rng: Xoshiro256pp::new(seed),
            k,
            seen: 0,
            items: Vec::with_capacity(k),
        }
    }

    /// Offers one unit arrival of `index`.
    pub fn offer(&mut self, index: u64) {
        self.seen += 1;
        if self.items.len() < self.k {
            self.items.push(index);
        } else {
            let j = self.rng.next_below(self.seen);
            if (j as usize) < self.k {
                self.items[j as usize] = index;
            }
        }
    }

    /// The current reservoir contents.
    pub fn items(&self) -> &[u64] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_stream::{FrequencyVector, Stream, StreamStyle};
    use pts_util::stats::tv_distance;

    #[test]
    fn samples_follow_l1_law() {
        let x = FrequencyVector::from_values(vec![1, 2, 3, 4]);
        let weights: Vec<f64> = x.values().iter().map(|&v| v as f64).collect();
        let mut counts = vec![0u64; 4];
        let trials = 40_000;
        for t in 0..trials {
            let mut rng = pts_util::Xoshiro256pp::new(t);
            let s = Stream::from_target(&x, StreamStyle::InsertionOnly, &mut rng);
            let mut r = ReservoirSampler::new(10_000 + t);
            r.ingest_stream(&s);
            counts[r.sample().unwrap().index as usize] += 1;
        }
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.02, "tv {tv}");
    }

    #[test]
    fn empty_stream_fails() {
        let mut r = ReservoirSampler::new(1);
        assert!(r.sample().is_none());
    }

    #[test]
    fn bulk_weights_count_fully() {
        // A single update of weight 99 vs one of weight 1.
        let mut hits = 0;
        let trials = 20_000;
        for t in 0..trials {
            let mut r = ReservoirSampler::new(t);
            r.process(Update::new(0, 99));
            r.process(Update::new(1, 1));
            if r.sample().unwrap().index == 0 {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.99).abs() < 0.005, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "deletions")]
    fn rejects_deletions() {
        let mut r = ReservoirSampler::new(1);
        r.process(Update::new(0, -1));
    }

    #[test]
    fn zero_weight_updates_are_ignored() {
        let mut r = ReservoirSampler::new(1);
        r.process(Update::new(5, 0));
        assert!(r.sample().is_none());
        assert_eq!(r.total_weight(), 0);
    }

    #[test]
    fn reservoir_k_is_uniform() {
        let stream_len = 50u64;
        let k = 5;
        let mut counts = vec![0u64; stream_len as usize];
        let trials = 20_000;
        for t in 0..trials {
            let mut r = ReservoirK::new(k, t);
            for i in 0..stream_len {
                r.offer(i);
            }
            for &i in r.items() {
                counts[i as usize] += 1;
            }
        }
        let expected = trials as f64 * k as f64 / stream_len as f64;
        for (i, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.1, "item {i}: {c} vs {expected}");
        }
    }

    #[test]
    fn reservoir_k_holds_at_most_k() {
        let mut r = ReservoirK::new(3, 1);
        for i in 0..100 {
            r.offer(i);
        }
        assert_eq!(r.items().len(), 3);
    }
}
