//! # pts-engine
//!
//! A sharded, mergeable, **always-queryable** sampling engine over the
//! WXZ25 perfect samplers — the serving layer that turns the paper's
//! one-shot, single-threaded sampler objects into a continuously-ingesting
//! service (DESIGN.md, "Engine architecture").
//!
//! Three properties of the substrate make the design correct:
//!
//! * **Linearity** — every sampler is a linear sketch
//!   (`sketch(x+y) = sketch(x) ⊕ sketch(y)`), so hash-partitioned shards,
//!   merged snapshots, and replayed compact state all reproduce exactly the
//!   state of one sampler that saw the whole stream.
//! * **Perfectness** — the in-shard law is exactly `G(x_i)/mass(shard)`, so
//!   composing it with a mass-proportional shard pick yields the global law
//!   `G(x_i)/Σ_j G(x_j)` for any shard count, up to the per-shard FAIL
//!   factor `(1 − δ_s^k)` the pool suppresses (see [`engine`] docs).
//! * **Seed-determinism** — instances are cheap to respawn from a compact
//!   net vector with fresh seeds, which converts one-shot samplers into a
//!   pool serving unlimited queries over the stream's lifetime (the
//!   repeated-draw semantics of \[JWZ21\] and the query-at-any-time
//!   semantics of \[HTY14\], engineered rather than re-proved).
//!
//! ## Data path
//!
//! ```text
//!            ingest_batch(&[Update])
//!                     │
//!              [ ShardRouter ]        hash-partition + per-shard
//!                /    │    \          reorder & coalesce
//!            shard₀ shard₁ … shard_S
//!            │ pool │ pool │ pool     k one-shot samplers each,
//!            │ +net │ +net │ +net     lazily respawned from `net`
//!                     │
//!         sample() ── mass-weighted shard pick, in-shard draw
//!         snapshot()/merge() ── compact exact state, router-agnostic
//! ```
//!
//! [`ShardedEngine`] is the one driver of this data path: it owns every
//! shard and applies the per-shard runs in shard order, so a fixed seed
//! and call sequence give the same draws on every machine.
//!
//! ## Quickstart
//!
//! ```
//! use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
//! use pts_stream::Update;
//!
//! let mut engine = ShardedEngine::new(
//!     EngineConfig::new(1 << 10).shards(4).pool_size(2).seed(7),
//!     L0Factory::default(),
//! );
//! engine.ingest_batch(&[Update::new(3, 5), Update::new(900, -2)]);
//! let s = engine.sample().expect("non-zero state samples");
//! assert!(s.index == 3 || s.index == 900);
//! // Still streaming? Keep querying — instances respawn as consumed.
//! engine.ingest_batch(&[Update::new(3, -5)]);
//! assert_eq!(engine.sample().unwrap().index, 900);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod config;
pub mod engine;
pub mod factory;
mod obs;
pub mod pool;
pub mod router;
pub mod service;
pub mod shard;
pub mod snapshot;

pub use config::EngineConfig;
pub use engine::{pick_by_mass, EngineStats, ShardedEngine};
pub use factory::{L0Factory, LogGFactory, LpLe2Factory, PerfectLpFactory, SamplerFactory};
pub use pool::SamplerPool;
pub use router::ShardRouter;
pub use service::SamplingService;
pub use shard::Shard;
pub use snapshot::EngineSnapshot;
