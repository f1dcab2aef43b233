//! Per-shard sampler pools: always-queryable sampling from one-shot
//! samplers.
//!
//! The paper's samplers are one-shot objects — construct, ingest, query
//! *once* (re-querying the same instance replays the same randomness and
//! returns a correlated answer). A [`SamplerPool`] turns them into a
//! repeatedly-queryable resource: it holds `k` independently seeded
//! instances, a draw *consumes* the instance it touches, and consumed slots
//! respawn **lazily** — a fresh instance with a fresh seed catches up from
//! the shard's compact vector state the next time the slot is needed.
//! Linearity makes catch-up exact: ingesting the net vector reproduces
//! precisely the state the instance would have had streaming from the
//! start. FAIL (⊥) is absorbed by retrying across the pool within one draw.
//!
//! A consumed slot's draw never materializes the instance: it hands the
//! slot's fresh seed and the net vector to [`SamplerFactory::draw_from`].
//! For the rejection-loop samplers (perfect L_p for `p > 2`, the
//! success-boosted L_p batch) that builds and replays only the attempts
//! the loop reaches — ~23 of 134 on average for the paper's
//! `p = 3` sampler at `n = 64` on a zipf vector. The draw is
//! bit-identical to build + replay + `sample()`: each attempt's seed and
//! accept coin depend on the instance seed and the attempt index alone,
//! and the loop stops at the first accept. The seed sequence and the
//! counters are the same either way, so engine draws and checkpoint bytes
//! do not depend on the path.

use crate::factory::{entries, SamplerFactory};
use pts_samplers::{Sample, TurnstileSampler};
use pts_stream::Update;
use pts_util::derive_seed;
use pts_util::wire::{Decode, Encode, WireError, WireReader, WireWriter};
use std::collections::BTreeMap;

/// A pool of `k` independently seeded one-shot sampler instances.
#[derive(Debug, Clone)]
pub struct SamplerPool<S> {
    /// `None` marks a consumed slot awaiting lazy respawn.
    slots: Vec<Option<S>>,
    /// Base seed of this pool's seed stream.
    seed: u64,
    /// Monotone counter: every spawned instance gets a never-reused seed.
    spawned: u64,
    /// Round-robin start position for draws.
    cursor: usize,
    /// Number of lazy respawns performed (diagnostics).
    respawns: u64,
}

impl<S: TurnstileSampler> SamplerPool<S> {
    /// An empty pool of `k` slots; instances are spawned eagerly by
    /// [`SamplerPool::prime`] or lazily at first draw.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 1, "pool needs at least one slot");
        Self {
            slots: (0..k).map(|_| None).collect(),
            seed,
            spawned: 0,
            cursor: 0,
            respawns: 0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool has no slots (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of currently live (unconsumed) instances.
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Lazy respawns performed so far.
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Spawns every empty slot from the current `net` state (called at
    /// construction so first draws are cheap).
    pub fn prime<F>(&mut self, factory: &F, universe: usize, net: &BTreeMap<u64, i64>)
    where
        F: SamplerFactory<Sampler = S>,
    {
        for j in 0..self.slots.len() {
            if self.slots[j].is_none() {
                self.slots[j] = Some(self.spawn(factory, universe, net));
            }
        }
    }

    /// Eagerly respawns every consumed slot from the current `net` state,
    /// returning how many slots were refilled. Each refill builds a full
    /// instance and replays the whole net vector into it; the refills count
    /// toward [`SamplerPool::respawns`]. This moves work off the query path
    /// only for factories that draw through the default
    /// [`SamplerFactory::draw_from`] (e.g. L₀). For the rejection-loop
    /// factories a refill builds every attempt, while a consumed-slot draw
    /// builds only the attempts its loop reaches, so refilling costs more
    /// than the draw it replaces.
    pub fn refill<F>(&mut self, factory: &F, universe: usize, net: &BTreeMap<u64, i64>) -> usize
    where
        F: SamplerFactory<Sampler = S>,
    {
        let mut refilled = 0;
        for j in 0..self.slots.len() {
            if self.slots[j].is_none() {
                self.slots[j] = Some(self.spawn(factory, universe, net));
                refilled += 1;
                crate::obs::obs().pool_replayed.observe(net.len() as u64);
            }
        }
        self.respawns += refilled as u64;
        crate::obs::obs().pool_respawns.add(refilled as u64);
        refilled
    }

    /// The next never-reused instance seed.
    fn next_seed(&mut self) -> u64 {
        let instance_seed = derive_seed(self.seed, self.spawned);
        self.spawned += 1;
        instance_seed
    }

    /// Builds a fresh instance with a never-reused seed and catches it up
    /// from the compact net state (exact, by linearity).
    fn spawn<F>(&mut self, factory: &F, universe: usize, net: &BTreeMap<u64, i64>) -> S
    where
        F: SamplerFactory<Sampler = S>,
    {
        let mut s = factory.build(universe, self.next_seed());
        s.ingest_entries(entries(net));
        s
    }

    /// Feeds one update to every live instance (consumed slots are skipped —
    /// they will catch up from the net state when respawned).
    #[inline]
    pub fn process_live(&mut self, u: Update) {
        for slot in self.slots.iter_mut().flatten() {
            slot.process(u);
        }
    }

    /// Draws one sample, consuming up to `k` instances: each tried instance
    /// is spent whether it answers or FAILs (its randomness is revealed
    /// either way), and ⊥ is absorbed by moving to the next slot. Consumed
    /// slots respawn lazily from `net` when the rotation next reaches them.
    pub fn draw<F>(
        &mut self,
        factory: &F,
        universe: usize,
        net: &BTreeMap<u64, i64>,
    ) -> Option<Sample>
    where
        F: SamplerFactory<Sampler = S>,
    {
        for _ in 0..self.slots.len() {
            let j = self.cursor;
            self.cursor = (self.cursor + 1) % self.slots.len();
            let drawn = match self.slots[j].take() {
                Some(mut live) => live.sample(),
                None => {
                    self.respawns += 1;
                    let o = crate::obs::obs();
                    o.pool_respawns.inc();
                    o.pool_replayed.observe(net.len() as u64);
                    factory.draw_from(universe, self.next_seed(), net)
                }
            };
            if drawn.is_some() {
                return drawn;
            }
        }
        None
    }

    /// Total sketch size of the live instances, in bits.
    pub fn space_bits(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .map(TurnstileSampler::space_bits)
            .sum()
    }
}

impl<S: TurnstileSampler + Encode> Encode for SamplerPool<S> {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u64(self.seed);
        w.put_u64(self.spawned);
        w.put_usize(self.cursor);
        w.put_u64(self.respawns);
        w.put_usize(self.slots.len());
        for slot in &self.slots {
            match slot {
                Some(instance) => {
                    w.put_bool(true);
                    instance.encode(w)?;
                }
                None => w.put_bool(false),
            }
        }
        Ok(())
    }
}

impl<S: TurnstileSampler + Decode> Decode for SamplerPool<S> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let seed = r.get_u64()?;
        let spawned = r.get_u64()?;
        let cursor = r.get_usize()?;
        let respawns = r.get_u64()?;
        let k = r.get_len(1)?;
        if !(1..=1 << 16).contains(&k) || cursor >= k {
            return Err(WireError::Invalid("pool shape"));
        }
        let mut slots = Vec::with_capacity(k);
        for _ in 0..k {
            slots.push(if r.get_bool()? {
                Some(S::decode(r)?)
            } else {
                None
            });
        }
        Ok(Self {
            slots,
            seed,
            spawned,
            cursor,
            respawns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::L0Factory;

    fn net_of(entries: &[(u64, i64)]) -> BTreeMap<u64, i64> {
        entries.iter().copied().collect()
    }

    #[test]
    fn draws_consume_and_respawn() {
        let f = L0Factory::default();
        let net = net_of(&[(3, 5), (9, -2)]);
        let mut pool: SamplerPool<_> = SamplerPool::new(2, 77);
        pool.prime(&f, 16, &net);
        assert_eq!(pool.live(), 2);
        // First two draws consume the primed instances...
        assert!(pool.draw(&f, 16, &net).is_some());
        assert!(pool.draw(&f, 16, &net).is_some());
        assert_eq!(pool.live(), 0);
        // ...and the third forces a lazy respawn that catches up from `net`.
        let s = pool.draw(&f, 16, &net).expect("respawned instance samples");
        assert!(s.index == 3 || s.index == 9);
        assert!(pool.respawns() >= 1);
    }

    #[test]
    fn respawned_instances_are_independent() {
        // Across many draws both support points must appear: every respawn
        // uses a fresh seed, so draws are not locked to one coordinate.
        let f = L0Factory::default();
        let net = net_of(&[(1, 4), (11, 4)]);
        let mut pool: SamplerPool<_> = SamplerPool::new(1, 5);
        let mut seen = [false; 16];
        for _ in 0..40 {
            if let Some(s) = pool.draw(&f, 16, &net) {
                seen[s.index as usize] = true;
            }
        }
        assert!(seen[1] && seen[11], "draws locked to one coordinate");
    }

    #[test]
    fn refill_respawns_only_consumed_slots() {
        let f = L0Factory::default();
        let net = net_of(&[(2, 3)]);
        let mut pool: SamplerPool<_> = SamplerPool::new(3, 13);
        pool.prime(&f, 16, &net);
        assert_eq!(pool.refill(&f, 16, &net), 0, "full pool needs no refill");
        assert!(pool.draw(&f, 16, &net).is_some());
        assert!(pool.draw(&f, 16, &net).is_some());
        assert_eq!(pool.live(), 1);
        assert_eq!(pool.refill(&f, 16, &net), 2);
        assert_eq!(pool.live(), 3);
        assert_eq!(pool.respawns(), 2, "eager refills count as respawns");
    }

    /// The consumed-slot draw as it was before factories drew lazily:
    /// build, replay every net entry, `sample()`.
    fn eager_draw<F: SamplerFactory>(
        f: &F,
        n: usize,
        seed: u64,
        net: &BTreeMap<u64, i64>,
    ) -> Option<Sample> {
        let mut s = f.build(n, seed);
        for (&i, &v) in net {
            s.process(Update::new(i, v));
        }
        s.sample()
    }

    /// Consumed-slot draws equal the eager build-replay-sample draws from
    /// the same seed sequence, bit for bit, with the same counters.
    fn respawn_draws_match_eager<F: SamplerFactory>(f: F, net: &BTreeMap<u64, i64>) {
        let (n, k, seed) = (24, 2, 31);
        let mut pool: SamplerPool<F::Sampler> = SamplerPool::new(k, seed);
        let mut spawned = 0;
        let bits = |s: Option<Sample>| s.map(|s| (s.index, s.estimate.to_bits()));
        for draw in 0..12 {
            // ⊥ moves on to the next slot, which respawns from the next seed.
            let want = (0..k).find_map(|_| {
                spawned += 1;
                eager_draw(&f, n, derive_seed(seed, spawned - 1), net)
            });
            assert_eq!(bits(pool.draw(&f, n, net)), bits(want), "draw {draw}");
            assert_eq!((pool.spawned, pool.respawns()), (spawned, spawned));
        }
    }

    #[test]
    fn respawn_draws_equal_eager_draws_for_every_factory() {
        use crate::factory::{LogGFactory, LpLe2Factory, PerfectLpFactory};
        let net = net_of(&[
            (1, 4),
            (5, -9),
            (6, 2),
            (11, 15),
            (17, -3),
            (20, 7),
            (23, 1),
        ]);
        for net in [net, BTreeMap::new()] {
            respawn_draws_match_eager(L0Factory::default(), &net);
            respawn_draws_match_eager(LpLe2Factory::for_universe(24, 2.0), &net);
            respawn_draws_match_eager(PerfectLpFactory::for_universe(24, 3.0), &net);
            respawn_draws_match_eager(
                LogGFactory {
                    stream_bound_m: 100,
                },
                &net,
            );
        }
    }

    #[test]
    fn live_instances_track_updates() {
        let f = L0Factory::default();
        let mut net = BTreeMap::new();
        let mut pool: SamplerPool<_> = SamplerPool::new(1, 9);
        pool.prime(&f, 16, &net);
        pool.process_live(Update::new(7, 3));
        net.insert(7, 3);
        let s = pool.draw(&f, 16, &net).expect("must sample");
        assert_eq!(s.index, 7);
        assert_eq!(s.estimate, 3.0);
    }
}
