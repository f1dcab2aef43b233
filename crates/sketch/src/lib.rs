//! # pts-sketch
//!
//! Linear sketches underpinning the perfect-sampling stack (DESIGN.md
//! S8–S14): classic and JW18-modified CountSketch, the AMS second moment
//! estimator, constant-factor and Taylor-corrected `F_p` estimators for
//! `p > 2`, and exact s-sparse recovery.
//!
//! All sketches implement [`LinearSketch`]; linearity (stream replay ≡
//! final-vector ingest ≡ shard merging) is property-tested per structure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod ams;
pub mod countsketch;
pub mod countsketch_mod;
pub mod fp_maxstab;
pub mod fp_taylor;
pub mod sparse_recovery;
pub mod traits;

pub use ams::AmsF2;
pub use countsketch::{CountSketch, CountSketchParams};
pub use countsketch_mod::ModCountSketch;
pub use fp_maxstab::{FpMaxStab, FpMaxStabParams};
pub use fp_taylor::{FpTaylor, FpTaylorParams};
pub use sparse_recovery::SparseRecovery;
pub use traits::LinearSketch;
