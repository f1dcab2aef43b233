//! The narrow engine surface a network front-end drives.
//!
//! `pts-server` hosts an engine behind a socket, and the server should not
//! grow engine internals (nor the engine grow socket concerns).
//! [`SamplingService`] is the boundary: exactly the operations the service
//! protocol (`pts_util::protocol`) can express, object-shaped enough that
//! the server hosts any implementor — [`crate::ShardedEngine`] over any
//! encodable factory, or a test double wrapping one.
//!
//! The trait deliberately re-exposes engine operations under service
//! semantics:
//!
//! * state-changing calls take `&mut self` (the protocol loop holds the
//!   engine behind a lock); state-reporting calls, checkpoint included,
//!   take `&self`;
//! * checkpoint/restore move **bytes**, not writers, because the protocol
//!   ships checkpoints as response payloads;
//! * restore *replaces* the receiver in place, so a server can apply a
//!   `Restore` request without tearing down its accept loop.

use crate::engine::EngineStats;
use crate::snapshot::EngineSnapshot;
use pts_samplers::Sample;
use pts_stream::Update;
use pts_util::protocol::ServiceStats;
use pts_util::wire::WireError;

/// Everything a request/response front-end may ask of an engine.
///
/// A server written against this trait cannot reach around it into
/// engine internals.
pub trait SamplingService {
    /// The universe bound `n`: every ingested index must lie in `[0, n)`.
    ///
    /// Servers validate request indices against this *before* calling
    /// [`SamplingService::ingest_batch`], converting what would be an
    /// engine panic into an in-band protocol error.
    fn universe(&self) -> usize;

    /// Applies a batch of turnstile updates.
    ///
    /// # Panics
    /// Panics if an update addresses a coordinate outside the universe —
    /// callers validate against [`SamplingService::universe`] first.
    fn ingest_batch(&mut self, batch: &[Update]);

    /// Draws one sample from the global law `G(x_i)/Σ_j G(x_j)`; `None` is
    /// the paper's ⊥ (an honest bounded-probability outcome, not an
    /// error).
    fn sample(&mut self) -> Option<Sample>;

    /// Captures the compact mergeable net vector.
    fn snapshot(&self) -> EngineSnapshot;

    /// The engine's running counters.
    fn stats(&self) -> EngineStats;

    /// The exact global `G`-mass `Σ_j G(x_j)`.
    fn mass(&self) -> f64;

    /// Number of non-zero coordinates.
    fn support(&self) -> usize;

    /// The universe, counters, mass, and support as one protocol-shaped
    /// report (the wire-version-2 `Stats` response body).
    fn service_stats(&self) -> ServiceStats {
        let stats = self.stats();
        ServiceStats {
            universe: self.universe() as u64,
            updates: stats.updates,
            batches: stats.batches,
            samples: stats.samples,
            fails: stats.fails,
            merges: stats.merges,
            mass: self.mass(),
            support: self.support() as u64,
            // Local-view fields: the engine has no notion of requests or
            // process uptime; `pts-server` fills these when it answers a
            // Stats request (never on the wire — see PROTOCOL.md §3).
            requests_served: 0,
            uptime_secs: 0,
        }
    }

    /// Serializes the engine's complete state as one framed checkpoint
    /// payload (see `DESIGN.md` S29).
    fn checkpoint_bytes(&self) -> std::io::Result<Vec<u8>>;

    /// Replaces this engine's state with a previously captured checkpoint.
    /// Malformed or wrong-factory bytes leave the engine **unchanged** and
    /// return the [`WireError`].
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), WireError>;
}

/// The engine implements the service surface by delegation; the bounds
/// are exactly what checkpoint/restore require of the factory.
mod impls {
    use super::*;
    use crate::engine::ShardedEngine;
    use crate::factory::SamplerFactory;
    use pts_util::wire::{Decode, Encode};

    impl<F> SamplingService for ShardedEngine<F>
    where
        F: SamplerFactory + Encode + Decode,
        F::Sampler: Encode + Decode,
    {
        fn universe(&self) -> usize {
            self.config().universe
        }

        fn ingest_batch(&mut self, batch: &[Update]) {
            ShardedEngine::ingest_batch(self, batch);
        }

        fn sample(&mut self) -> Option<Sample> {
            ShardedEngine::sample(self)
        }

        fn snapshot(&self) -> EngineSnapshot {
            ShardedEngine::snapshot(self)
        }

        fn stats(&self) -> EngineStats {
            ShardedEngine::stats(self)
        }

        fn mass(&self) -> f64 {
            ShardedEngine::mass(self)
        }

        fn support(&self) -> usize {
            ShardedEngine::support(self)
        }

        fn checkpoint_bytes(&self) -> std::io::Result<Vec<u8>> {
            let mut bytes = Vec::new();
            ShardedEngine::checkpoint(self, &mut bytes)?;
            Ok(bytes)
        }

        fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), WireError> {
            *self = ShardedEngine::restore(&mut &bytes[..])?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::ShardedEngine;
    use crate::factory::L0Factory;

    /// A driver written only against the trait: the engine serves it, and
    /// checkpoint → restore round-trips through bytes.
    fn drive<S: SamplingService>(engine: &mut S) {
        assert_eq!(engine.universe(), 32);
        engine.ingest_batch(&[Update::new(3, 5), Update::new(17, -2)]);
        let s = engine.sample().expect("non-zero state samples");
        assert!(s.index == 3 || s.index == 17);
        let report = engine.service_stats();
        assert_eq!(report.universe, 32);
        assert_eq!(report.updates, 2);
        assert_eq!(report.support, 2);
        assert!(report.mass > 0.0);
        assert_eq!(report.samples + report.fails, 1);

        let bytes = engine.checkpoint_bytes().expect("encodable factory");
        engine.ingest_batch(&[Update::new(3, -5)]);
        assert_eq!(engine.support(), 1);
        // Restore rolls the extra ingest back.
        engine
            .restore_bytes(&bytes)
            .expect("own checkpoint restores");
        assert_eq!(engine.support(), 2);
        assert_eq!(engine.snapshot().entries(), &[(3, 5), (17, -2)]);

        // Garbage neither panics nor clobbers state.
        assert!(engine.restore_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert_eq!(engine.support(), 2);
    }

    #[test]
    fn sharded_engine_serves_the_trait() {
        let config = EngineConfig::new(32).shards(2).pool_size(2).seed(9);
        drive(&mut ShardedEngine::new(config, L0Factory::default()));
    }
}
