//! One shard: a sampler pool plus the compact exact state that makes the
//! pool respawnable and the shard's `G`-mass known.
//!
//! The shard keeps the *net frequency vector of its own slice of the
//! universe* as a sparse map. This single structure serves three roles:
//!
//! 1. **Replay buffer** for lazy respawn — a fresh sampler instance catches
//!    up by ingesting the net vector, which by linearity is exactly the
//!    state it would have reached streaming from the start.
//! 2. **Mass oracle** for the merge layer — the exact `Σ_i G(x_i)` over the
//!    shard's slice, maintained incrementally per update, is the weight the
//!    engine uses to pick a shard before sampling within it.
//! 3. **Snapshot payload** — the entries are what `snapshot()` ships to a
//!    coordinator.
//!
//! ## Ownership model
//!
//! A shard **owns everything it needs to evolve**: its factory copy, its
//! universe bound, its pool, and its net state. Nothing outside the shard
//! may mutate the net vector or the pool — every mutation goes through
//! [`Shard::apply_run`] (compact state and mass, plus any live instances)
//! or [`Shard::draw`]/[`Shard::prime`] (which only consume/respawn pool
//! instances and never touch the net state).
//!
//! A shard is born with an empty pool: no sampler instance exists, and
//! `apply_run` touches only the net vector and the mass, until a draw
//! respawns from the net vector. Live instances exist only after an
//! explicit [`Shard::prime`]; from then until a draw consumes them they
//! advance *in lockstep* with the net state inside `apply_run`, so the
//! lockstep invariant cannot be violated from outside.
//!
//! Space accounting: the sparse net state is `O(nnz)` for the shard's
//! slice — this is the price of always-queryable respawn, paid once per
//! shard regardless of pool size. Without a prime it is the shard's whole
//! state.

use crate::factory::SamplerFactory;
use crate::pool::SamplerPool;
use pts_samplers::Sample;
use pts_stream::Update;
use pts_util::wire::{Decode, Encode, WireError, WireReader, WireWriter};
use std::collections::BTreeMap;

/// A shard: factory + pool + compact state + incremental mass.
#[derive(Debug, Clone)]
pub struct Shard<F: SamplerFactory> {
    factory: F,
    universe: usize,
    pool: SamplerPool<F::Sampler>,
    /// Sparse net values of this shard's slice (zero entries removed).
    net: BTreeMap<u64, i64>,
    /// Incrementally maintained `Σ_i G(x_i)` over the slice.
    mass: f64,
    /// The largest `|value|` ever stored in `net` (deletions do not lower
    /// it): an upper bound that lets the engine clear an ordinary batch of
    /// overflow without reading the net vector.
    value_bound: u64,
}

impl<F: SamplerFactory> Shard<F> {
    /// An empty shard owning its copy of the factory, with `pool_size`
    /// empty slots: no sampler instance exists until a draw (or an
    /// explicit [`Shard::prime`]) needs one.
    pub fn new(factory: F, universe: usize, pool_size: usize, seed: u64) -> Self {
        Self {
            factory,
            universe,
            pool: SamplerPool::new(pool_size, seed),
            net: BTreeMap::new(),
            mass: 0.0,
            value_bound: 0,
        }
    }

    /// Applies a coalesced run of updates: compact state, mass, and every
    /// live pool instance (there are none unless the shard was primed)
    /// advance together.
    ///
    /// # Panics
    /// Panics if a net value would leave the `i64` range or become
    /// `i64::MIN` ([`crate::ShardedEngine::check_values`] tests a batch
    /// for this before any shard changes).
    pub fn apply_run(&mut self, run: &[Update]) {
        for &u in run {
            debug_assert!(u.delta != 0, "router must drop zero deltas");
            let old = self.value(u.index);
            let new = old
                .checked_add(u.delta)
                .filter(|&v| v != i64::MIN)
                .expect("net value overflows i64");
            self.value_bound = self.value_bound.max(new.unsigned_abs());
            self.mass += self.factory.weight(new) - self.factory.weight(old);
            if new == 0 {
                self.net.remove(&u.index);
            } else {
                self.net.insert(u.index, new);
            }
            self.pool.process_live(u);
        }
    }

    /// The exact `G`-mass of this shard's slice. Incremental float updates
    /// can leave ~ulp-scale residue once the true mass returns to zero, so
    /// an empty slice reports exactly zero.
    pub fn mass(&self) -> f64 {
        if self.net.is_empty() {
            0.0
        } else {
            self.mass.max(0.0)
        }
    }

    /// The net value of `index` (zero off the support).
    pub(crate) fn value(&self, index: u64) -> i64 {
        self.net.get(&index).copied().unwrap_or(0)
    }

    /// An upper bound on every `|value|` in the slice.
    pub(crate) fn value_bound(&self) -> u64 {
        self.value_bound
    }

    /// Number of non-zero coordinates in the slice.
    pub fn support(&self) -> usize {
        self.net.len()
    }

    /// The universe bound this shard was built over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of pool slots (live or empty).
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// The sparse net entries (sorted by index).
    pub fn entries(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        self.net.iter().map(|(&i, &v)| (i, v))
    }

    /// Draws one sample from this shard's slice (⊥ retried across the
    /// pool; empty slots respawn lazily from the compact state).
    pub fn draw(&mut self) -> Option<Sample> {
        self.pool.draw(&self.factory, self.universe, &self.net)
    }

    /// Eagerly respawns every empty pool slot as a full instance
    /// caught up from the net vector, so draws find live instances.
    /// Returns the number of slots refilled. This pays off only for
    /// factories on the default [`SamplerFactory::draw_from`] path; for the
    /// rejection-loop factories it is slower than the lazy draw it
    /// replaces (see [`SamplerPool::refill`]).
    pub fn prime(&mut self) -> usize {
        self.pool.refill(&self.factory, self.universe, &self.net)
    }

    /// Lazy respawns performed by this shard's pool.
    pub fn respawns(&self) -> u64 {
        self.pool.respawns()
    }

    /// Live pool instances.
    pub fn live(&self) -> usize {
        self.pool.live()
    }

    /// Sketch bits of live instances plus compact-state bits (128 per
    /// entry: index + value).
    pub fn space_bits(&self) -> usize {
        self.pool.space_bits() + self.net.len() * 128
    }
}

impl<F> Encode for Shard<F>
where
    F: SamplerFactory + Encode,
    F::Sampler: Encode,
{
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        self.factory.encode(w)?;
        w.put_usize(self.universe);
        // Raw bits: the incrementally maintained mass carries its exact
        // float history, which recomputation from `net` would not.
        w.put_f64(self.mass);
        w.put_usize(self.net.len());
        let mut prev = 0u64;
        for (k, (&i, &v)) in self.net.iter().enumerate() {
            w.put_u64(if k == 0 { i } else { i - prev - 1 });
            w.put_i64(v);
            prev = i;
        }
        self.pool.encode(w)
    }
}

impl<F> Decode for Shard<F>
where
    F: SamplerFactory + Decode,
    F::Sampler: Decode,
{
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let factory = F::decode(r)?;
        let universe = r.get_usize()?;
        if universe < 2 {
            return Err(WireError::Invalid("shard universe"));
        }
        let mass = r.get_f64()?;
        // A NaN mass would read as zero (`mass()` clamps with `max`) and
        // an infinite one breaks the engine's mass-weighted shard pick.
        // Small negative residue is legitimate: incremental updates can
        // leave it once the true mass returns to zero.
        if !mass.is_finite() {
            return Err(WireError::Invalid("shard mass"));
        }
        let support = r.get_len(2)?;
        let mut net = BTreeMap::new();
        let mut prev = 0u64;
        for k in 0..support {
            let gap = r.get_u64()?;
            let i = if k == 0 {
                gap
            } else {
                prev.checked_add(gap)
                    .and_then(|v| v.checked_add(1))
                    .ok_or(WireError::Invalid("net-vector gap overflow"))?
            };
            let v = r.get_i64()?;
            if v == 0 {
                return Err(WireError::Invalid("zero entry in net vector"));
            }
            // `i64::MIN` has no `abs`: every factory's weight would be NaN.
            if v == i64::MIN {
                return Err(WireError::Invalid("net value i64::MIN"));
            }
            // Out-of-universe entries would panic later in dense
            // materialization (`snapshot().to_vector()`); the never-panic
            // decode contract requires rejecting them here.
            if (i as u128) >= universe as u128 {
                return Err(WireError::Invalid("net entry outside universe"));
            }
            net.insert(i, v);
            prev = i;
        }
        let pool = SamplerPool::decode(r)?;
        let value_bound = net.values().map(|v| v.unsigned_abs()).max().unwrap_or(0);
        Ok(Self {
            factory,
            universe,
            pool,
            net,
            mass,
            value_bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{L0Factory, LpLe2Factory};

    #[test]
    fn decode_rejects_a_net_value_of_i64_min() {
        let bytes = |v: i64| {
            let mut w = WireWriter::new();
            L0Factory::default().encode(&mut w).unwrap();
            w.put_usize(32);
            w.put_f64(1.0);
            w.put_usize(1);
            w.put_u64(3);
            w.put_i64(v);
            let pool = SamplerPool::<<L0Factory as SamplerFactory>::Sampler>::new(1, 7);
            pool.encode(&mut w).unwrap();
            w.into_bytes()
        };
        assert!(Shard::<L0Factory>::from_wire_bytes(&bytes(-i64::MAX)).is_ok());
        let min = Shard::<L0Factory>::from_wire_bytes(&bytes(i64::MIN));
        assert!(matches!(min, Err(WireError::Invalid(_))));
    }

    #[test]
    fn mass_tracks_updates_incrementally() {
        let f = LpLe2Factory::for_universe(64, 2.0);
        let mut shard = Shard::new(f, 64, 1, 3);
        shard.apply_run(&[Update::new(5, 3)]);
        assert!((shard.mass() - 9.0).abs() < 1e-9);
        shard.apply_run(&[Update::new(5, -1), Update::new(9, 2)]);
        assert!((shard.mass() - (4.0 + 4.0)).abs() < 1e-9);
        // Full cancellation: support and mass return to exactly zero.
        shard.apply_run(&[Update::new(5, -2), Update::new(9, -2)]);
        assert_eq!(shard.support(), 0);
        assert_eq!(shard.mass(), 0.0);
    }

    #[test]
    fn entries_are_net_values() {
        let f = L0Factory::default();
        let mut shard = Shard::new(f, 32, 1, 4);
        shard.apply_run(&[Update::new(8, 10)]);
        shard.apply_run(&[Update::new(8, -3), Update::new(2, 1)]);
        let got: Vec<(u64, i64)> = shard.entries().collect();
        assert_eq!(got, vec![(2, 1), (8, 7)]);
    }

    #[test]
    fn draw_returns_exact_values_for_l0() {
        let f = L0Factory::default();
        let mut shard = Shard::new(f, 32, 2, 5);
        shard.apply_run(&[Update::new(3, -4), Update::new(21, 6)]);
        for _ in 0..10 {
            let s = shard.draw().expect("sparse slice must sample");
            let want = if s.index == 3 { -4.0 } else { 6.0 };
            assert_eq!(s.estimate, want);
        }
    }

    #[test]
    fn prime_refills_consumed_slots() {
        let f = L0Factory::default();
        let mut shard = Shard::new(f, 32, 2, 6);
        // Born empty: no instance exists until a draw or a prime needs one.
        assert_eq!(shard.live(), 0);
        shard.apply_run(&[Update::new(4, 9)]);
        assert_eq!(shard.live(), 0);
        assert_eq!(shard.prime(), 2);
        assert_eq!(shard.live(), 2);
        assert_eq!(shard.respawns(), 2);
        let _ = shard.draw();
        let _ = shard.draw();
        assert_eq!(shard.live(), 0);
        // Eager catch-up: both slots respawn from the net state again.
        assert_eq!(shard.prime(), 2);
        assert_eq!(shard.live(), 2);
        assert_eq!(shard.respawns(), 4);
        // The refilled instances reflect the net vector exactly.
        let s = shard.draw().expect("primed instance samples");
        assert_eq!(s.index, 4);
        assert_eq!(s.estimate, 9.0);
    }
}
