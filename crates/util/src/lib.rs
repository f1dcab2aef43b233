//! # pts-util
//!
//! Shared foundation for the `perfect-sampling` stack: deterministic seeded
//! RNG streams, k-wise independent hash families, the random variates the
//! paper's samplers are built from (exponential / Gaussian / geometric /
//! binomial / multinomial), the `rnd_η` discretization grid of §3, and the
//! statistics used by the experiment harness to compare empirical sampling
//! laws against the ideal `G(x_i)/Σ G(x_j)` distribution, plus the two
//! byte formats everything durable or remote speaks: the versioned binary
//! [`wire`] encoding and the framed request/response service [`protocol`]
//! layered on it.
//!
//! Everything here is dependency-free and deterministic given a `u64` seed;
//! see `DESIGN.md` (S1–S5) for where each piece is used.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod discretize;
pub mod hashing;
pub mod protocol;
pub mod rng;
pub mod stats;
pub mod table;
pub mod variates;
pub mod wire;

pub use discretize::EtaGrid;
pub use hashing::{cubic_powers, eval_cubic, KWiseHash};
pub use protocol::{ErrorCode, Request, Response, ServiceError, ServiceStats};
pub use rng::{derive_seed, keyed_u64, mix64, SplitMix64, Xoshiro256pp};
pub use table::Table;
pub use wire::{Decode, Encode, WireError, WireReader, WireWriter};
