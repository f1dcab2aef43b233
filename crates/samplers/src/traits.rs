//! The sampler contract shared by every sampler in the stack.

use pts_stream::{FrequencyVector, Stream, Update};

/// A sample drawn from a stream: the index and (when the sampler provides
/// one) an estimate of its frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The sampled coordinate.
    pub index: u64,
    /// The sampler's estimate of `x_index` (exact for L₀ samplers, `(1+ε)`
    /// for the L_p family, `NaN`-free always).
    pub estimate: f64,
}

/// A one-shot sampler over a turnstile stream.
///
/// Lifecycle: construct with a seed → feed every update → call
/// [`TurnstileSampler::sample`] once at the end of the stream. The outcome
/// is `Some(sample)` or `None` (the paper's FAIL symbol ⊥ — failing is part
/// of the contract, with bounded probability). Independent samples require
/// independent sampler instances (fresh seeds); the experiment harness runs
/// thousands of instances to measure the output law.
pub trait TurnstileSampler {
    /// Processes one turnstile update.
    fn process(&mut self, u: Update);

    /// Draws the sample (or FAIL) from the current state.
    fn sample(&mut self) -> Option<Sample>;

    /// Merges a same-seeded shard sampler into this one.
    ///
    /// Every sampler whose state is a linear sketch overrides this with a
    /// pointwise combine, making shard-and-merge exactly equivalent to one
    /// sampler seeing the whole stream (the §1.3 distributed deployment and
    /// the contract `pts-engine` is built on). The default panics: samplers
    /// that are not linear (e.g. the insertion-only reservoir baseline)
    /// cannot merge.
    ///
    /// # Panics
    /// Panics when the sampler is not mergeable, or when the shards were
    /// built with different seeds or parameters.
    fn merge(&mut self, _other: &Self)
    where
        Self: Sized,
    {
        unimplemented!("this sampler is not a linear sketch and cannot merge")
    }

    /// Information-theoretic sketch size in bits (see
    /// `pts_sketch::LinearSketch::space_bits` for the accounting rules).
    fn space_bits(&self) -> usize;

    /// Feeds a whole frequency vector (one bulk update per non-zero).
    fn ingest_vector(&mut self, x: &FrequencyVector) {
        for (i, v) in x.iter_nonzero() {
            self.process(Update::new(i, v));
        }
    }

    /// Feeds sparse `(index, value)` entries, one bulk update each.
    fn ingest_entries(&mut self, entries: impl IntoIterator<Item = (u64, i64)>)
    where
        Self: Sized,
    {
        for (i, v) in entries {
            self.process(Update::new(i, v));
        }
    }

    /// Replays a stream update-by-update.
    fn ingest_stream(&mut self, s: &Stream) {
        for u in s.iter() {
            self.process(*u);
        }
    }
}
