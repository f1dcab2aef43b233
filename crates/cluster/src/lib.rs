//! # pts-cluster
//!
//! A multi-node coordinator that turns N [`pts_server`] nodes into **one
//! logical perfect sampler** — the serving tier above the single-node
//! service, with the same law the single engine serves:
//!
//! ```text
//!                    Coordinator
//!        ingest: route by slice │ sample: ① Stats scatter (exact masses)
//!        (one batch per node)   │         ② node pick ∝ mass
//!                               │         ③ Sample fetch from that node
//!          ┌──────────┬─────────┴┬──────────┐
//!        node₀      node₁      node₂     standby
//!      [0, n/3)   [n/3, 2n/3) [2n/3, n)   (empty)
//!      pts-server pts-server  pts-server pts-server
//!        engine     engine      engine    engine
//! ```
//!
//! Because every engine in this stack is a linear sketch, per-node
//! samplers over disjoint universe slices *compose*: drawing a node
//! proportional to its exact `G`-mass and then sampling within it serves
//! the global law `G(x_i)/Σ_j G(x_j)` for any node count — the same
//! two-stage argument [`pts_engine::ShardedEngine::sample`] uses across
//! in-process shards, lifted over sockets (see [`coordinator`] for the
//! derivation, DESIGN.md §10 for the full story).
//!
//! Operational flows exercise every layer below: **rebalance** streams a
//! PR-3 checkpoint from a slice owner into a standby through two
//! lockstep connections, and **failover** marks a dead node down (typed
//! [`ClusterError`]s, per-node health in [`ClusterStats`]) until a
//! restarted server [`Coordinator::rejoin`]s from its last checkpoint —
//! bit-exact, so the recovered cluster serves draw-for-draw the same
//! samples as one that never failed (`tests/cluster_law.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use pts_cluster::{ClusterConfig, Coordinator};
//! use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
//! use pts_server::{serve, ClientConfig};
//! use pts_stream::Update;
//! use std::time::Duration;
//!
//! // Two real loopback nodes (any SamplingService implementor).
//! let engine = |seed| {
//!     ShardedEngine::new(
//!         EngineConfig::new(1 << 10).shards(2).pool_size(2).seed(seed),
//!         L0Factory::default(),
//!     )
//! };
//! let a = serve("127.0.0.1:0", engine(1)).unwrap();
//! let b = serve("127.0.0.1:0", engine(2)).unwrap();
//!
//! let mut cluster = Coordinator::connect(
//!     ClusterConfig::new(1 << 10)
//!         .node(a.local_addr().to_string())
//!         .node(b.local_addr().to_string())
//!         .seed(7)
//!         .client(ClientConfig::new().read_timeout(Duration::from_secs(5))),
//! )
//! .unwrap();
//!
//! // One logical sampler: updates route to their owning node, draws
//! // compose the per-node laws into the global one.
//! cluster.ingest_batch(&[Update::new(3, 5), Update::new(900, -2)]).unwrap();
//! let draw = cluster.sample().unwrap().expect("non-zero state samples");
//! assert!(draw.index == 3 || draw.index == 900);
//! let stats = cluster.stats();
//! assert_eq!(stats.total_support, 2);
//! # drop(cluster);
//! # a.join();
//! # b.join();
//! ```
//!
//! See `examples/cluster_demo.rs` for the full arc — 3 nodes → ingest →
//! sample → kill one → restore from checkpoint → identical draws — and
//! experiment `c1` (`reproduce -- c1`) for cluster throughput and sample
//! latency vs node count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library crates never print: diagnostics go through the pts-obs event
// ring (drainable, bounded), metrics through its registry.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod config;
pub mod coordinator;
mod obs;

pub use config::{ClusterConfig, NodeSpec};
pub use coordinator::{ClusterError, ClusterStats, Coordinator, NodeHealth, NodeStatus};
