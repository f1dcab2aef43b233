//! # pts-server
//!
//! A wire-native TCP sampling service: a [`pts_engine`] front-end behind
//! the framed request/response protocol of [`pts_util::protocol`], built
//! on nothing but `std::net`.
//!
//! The ROADMAP's serving story in one picture (wire v4, multiplexed and
//! multi-tenant):
//!
//! ```text
//!  Client ──TCP──►  [ accept loop ]      one reader thread per
//!  Client ──TCP──►      │    │           connection, demuxing ids
//!                   reader   reader
//!                      \      /
//!                  [ worker pool ]       bounded; per-connection FIFO,
//!                        │               responses via per-conn write lock
//!                   [ TenantMap ]        namespace → Arc<Mutex<engine>>
//!                    │    │    │         (sharded-lock map; ns 0 is the
//!                   ns 0  ns 7  ns 42    default tenant, spawner builds
//!                                        the rest lazily on demand)
//! ```
//!
//! * **[`Server`]** binds a listener, hosts any
//!   [`pts_engine::SamplingService`] implementor, and serves each
//!   connection with a reader thread that demuxes v4 request-id frames
//!   into a bounded worker pool. Every request addresses a **namespace**
//!   (tenant): the engine passed at bind is namespace 0, and
//!   [`Server::bind_with_spawner`] / [`serve_with_spawner`] additionally
//!   accept a factory closure so clients can create and drop further
//!   tenants at runtime — each a fully isolated engine sharing the same
//!   worker pool (no per-tenant threads). Every readable request frame —
//!   malformed payloads included — gets exactly one response frame under
//!   the id it carried (id 0 when the failure is unattributable);
//!   protocol-recoverable errors (unknown namespaces included) keep the
//!   connection, framing-fatal ones close it (see `pts_util::protocol`
//!   for the normative classification).
//! * **[`Client`]** is the matching multiplexed client: one `submit_*`
//!   method per request verb, each addressed to a namespace and each
//!   returning a [`Pending`] handle, so one connection can hold up to
//!   [`ClientConfig::max_in_flight`] requests in flight with
//!   out-of-order completion. A blocking call is
//!   `submit_…(…)?.wait()`; `submit_create_namespace` /
//!   `submit_drop_namespace` / `submit_list_namespaces` manage the
//!   tenant set.
//! * **[`serve`]** is the one-call entry point `examples/serve_demo.rs`
//!   uses.
//!
//! ## Quickstart
//!
//! ```
//! use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
//! use pts_server::{serve, Client, ClientError};
//! use pts_stream::Update;
//! use pts_util::protocol::DEFAULT_NAMESPACE;
//!
//! # fn main() -> Result<(), ClientError> {
//! // Any SamplingService implementor works; loopback port 0 = ephemeral.
//! let engine = ShardedEngine::new(
//!     EngineConfig::new(1 << 10).shards(2).pool_size(2).seed(7),
//!     L0Factory::default(),
//! );
//! let server = serve("127.0.0.1:0", engine).unwrap();
//!
//! let mut client = Client::connect(server.local_addr())?;
//! let batch = [Update::new(3, 5), Update::new(900, -2)];
//! client.submit_ingest_batch_ns(DEFAULT_NAMESPACE, &batch)?.wait()?;
//! let draws = client.submit_sample_many_ns(DEFAULT_NAMESPACE, 1)?.wait()?;
//! let draw = draws[0].expect("non-zero state samples");
//! assert!(draw.index == 3 || draw.index == 900);
//!
//! // Full engine state, framed.
//! let checkpoint = client.submit_checkpoint_ns(DEFAULT_NAMESPACE)?.wait()?;
//! client.submit_shutdown()?.wait()?;
//! server.join();
//! # let _ = checkpoint;
//! # Ok(())
//! # }
//! ```
//!
//! Durability composes with serving: the checkpoint bytes a client pulls
//! are the same framed `KIND_ENGINE` payload `engine.checkpoint()` writes
//! to disk, so "checkpoint over the wire, kill the process, restore into
//! a fresh server" yields draw-for-draw identical behavior (pinned by
//! `tests/loopback.rs` and demonstrated by `examples/serve_demo.rs`).
//!
//! See `PROTOCOL.md` at the repository root for the byte-level frame
//! grammar and worked hex examples.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library crates never print: diagnostics go through the pts-obs event
// ring (drainable, bounded), metrics through its registry.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod client;
mod obs;
pub mod server;

pub use client::{Client, ClientConfig, ClientError, Pending, DEFAULT_MAX_IN_FLIGHT};
pub use server::{serve, serve_with_spawner, Server};
