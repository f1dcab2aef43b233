//! # pts-core
//!
//! The paper's contributions — *Perfect Sampling in Turnstile Streams
//! Beyond Small Moments* (PODS 2025) — implemented over the substrate
//! crates:
//!
//! | Module | Paper result |
//! |--------|--------------|
//! | [`perfect`] | Perfect L_p sampler, `p > 2` (Thms 1.2/2.6/2.10; Algs 1–2) |
//! | [`polynomial`] | Perfect polynomial sampler (Thm 1.5/2.14; Alg 3) |
//! | [`approximate`] | Approximate L_p sampler with fast update (Thm 1.3/3.21; Alg 4) |
//! | [`subset_norm`] | Post-stream subset-norm estimation / RFDS (Thm 1.6; Alg 5) |
//! | [`gsampler`] | Log / cap / bounded-G samplers (Thms 5.5–5.7; Algs 6–8) |
//! | [`lower_bound`] | The Ω(n^{1−2/p} log n) distinguishing protocol (Thm 1.4/4.3) |
//!
//! All samplers implement `pts_samplers::TurnstileSampler`: feed turnstile
//! updates, then call `sample()` once — `None` is the paper's FAIL symbol ⊥
//! whose probability is part of each theorem's contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod approximate;
pub mod gsampler;
pub mod lower_bound;
pub mod perfect;
pub mod polynomial;
pub mod subset_norm;

pub use approximate::{ApproxLpBatch, ApproxLpParams, ApproxLpSampler};
pub use gsampler::RejectionGSampler;
pub use perfect::{PerfectLpParams, PerfectLpSampler, PowerEstimator};
pub use polynomial::{Polynomial, PolynomialParams, PolynomialSampler};
pub use subset_norm::{SubsetNormEstimator, SubsetNormParams};
