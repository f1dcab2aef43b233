//! # perfect-sampling
//!
//! A Rust implementation of *Perfect Sampling in Turnstile Streams Beyond
//! Small Moments* (Woodruff, Xie, Zhou — PODS 2025): perfect and
//! approximate `G`-samplers for turnstile streams, including the first
//! perfect `L_p` sampler for `p > 2`, perfect polynomial samplers,
//! logarithmic/cap/bounded-`G` samplers, and post-stream subset-norm
//! estimation ("right to be forgotten").
//!
//! ## Quickstart
//!
//! ```
//! use perfect_sampling::prelude::*;
//!
//! // A turnstile stream: inserts and deletes over a universe of 32 items.
//! let mut sampler = PerfectLpSampler::new(
//!     32,
//!     PerfectLpParams::for_universe(32, 3.0), // perfect L3 sampling
//!     42,                                     // seed
//! );
//! sampler.process(Update::new(7, 10));
//! sampler.process(Update::new(3, 4));
//! sampler.process(Update::new(7, -6)); // deletion — turnstile
//! sampler.process(Update::new(21, 9));
//!
//! match sampler.sample() {
//!     Some(s) => println!("sampled index {} (≈ {})", s.index, s.estimate),
//!     None => println!("⊥ (FAIL — retry with an independent instance)"),
//! }
//! ```
//!
//! ## Always-queryable serving: the engine
//!
//! The paper's samplers are one-shot objects; [`pts_engine`] turns them
//! into a sharded, mergeable, continuously-queryable service:
//!
//! ```
//! use perfect_sampling::prelude::*;
//!
//! let mut engine = ShardedEngine::new(
//!     EngineConfig::new(1 << 10).shards(4).pool_size(2).seed(7),
//!     L0Factory::default(),
//! );
//! engine.ingest_batch(&[Update::new(3, 5), Update::new(900, -2)]);
//! let s = engine.sample().expect("non-zero state samples");
//! assert!(s.index == 3 || s.index == 900);
//! ```
//!
//! Behind a socket, [`pts_server`] serves the engine over a framed,
//! request-id multiplexed TCP protocol (see `PROTOCOL.md`) with a
//! matching client — one `submit_*` method per request verb, each
//! returning a [`pts_server::Pending`] (block with `.wait()`) — and
//! `examples/serve_demo.rs` runs the full ingest → sample → checkpoint →
//! kill → restore arc over loopback.
//!
//! ## Crate map
//!
//! * [`pts_obs`] — zero-dependency metrics + event tracing with a
//!   Prometheus-text scrape endpoint (start at [`pts_obs::MetricsServer`];
//!   compiled out entirely under `--no-default-features`).
//! * [`pts_cluster`] — the multi-node coordinator: N servers, one
//!   logical sampler (start at [`pts_cluster::Coordinator`]).
//! * [`pts_server`] — the TCP sampling service + client (start at
//!   [`pts_server::serve`]).
//! * [`pts_engine`] — the sharded, mergeable, always-queryable engine
//!   (start at [`pts_engine::ShardedEngine`]).
//! * [`pts_core`] — the paper's samplers (start at
//!   [`pts_core::PerfectLpSampler`]).
//! * [`pts_samplers`] — substrates: perfect L₀ (JST11), perfect L₂ (JW18),
//!   precision-sampling and reservoir baselines.
//! * [`pts_sketch`] — CountSketch (classic + JW18-modified), AMS, `F_p`
//!   estimators, heavy hitters, sparse recovery.
//! * [`pts_stream`] — the turnstile model, ground truth, workload
//!   generators.
//! * [`pts_util`] — seeded RNG streams, hash families, variates,
//!   statistics.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every reproduced table and figure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub use pts_cluster;
pub use pts_core;
pub use pts_engine;
pub use pts_obs;
pub use pts_samplers;
pub use pts_server;
pub use pts_sketch;
pub use pts_stream;
pub use pts_util;

/// Compiles the README's Rust blocks as doctests, so a client API change
/// cannot leave a quickstart behind.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// One-stop imports for applications.
pub mod prelude {
    pub use pts_cluster::{ClusterConfig, ClusterError, ClusterStats, Coordinator, NodeHealth};
    pub use pts_core::{
        ApproxLpBatch, ApproxLpParams, ApproxLpSampler, GSpec, PerfectLpParams, PerfectLpSampler,
        Polynomial, PolynomialParams, PolynomialSampler, RejectionGSampler, SubsetNormEstimator,
        SubsetNormParams,
    };
    pub use pts_engine::{
        EngineConfig, EngineSnapshot, EngineStats, L0Factory, LogGFactory, LpLe2Factory,
        PerfectLpFactory, SamplerFactory, SamplingService, ShardedEngine,
    };
    pub use pts_obs::{MetricsServer, MetricsServerConfig};
    pub use pts_samplers::{
        L0Params, LpLe2Batch, LpLe2Params, PerfectL0Sampler, PerfectLpLe2Sampler, PrecisionParams,
        PrecisionSampler, ReservoirSampler, Sample, TurnstileSampler,
    };
    pub use pts_server::{
        serve, serve_with_spawner, Client, ClientConfig, ClientError, Pending, Server,
    };
    pub use pts_sketch::LinearSketch;
    pub use pts_stream::{FrequencyVector, Stream, StreamStyle, Update};
    pub use pts_util::protocol::{ErrorCode, ServiceError, ServiceStats, DEFAULT_NAMESPACE};
    pub use pts_util::wire::{Decode, Encode, WireError};
}
