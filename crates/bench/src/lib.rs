//! # pts-bench
//!
//! The experiment harness regenerating every table and figure of the paper
//! (DESIGN.md §5 / EXPERIMENTS.md): parallel trial runners, the experiment
//! registry, and the `reproduce` binary that prints each experiment as a
//! markdown table. The served stack's benchmark is `perfbench/`, not this
//! crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod experiments;
pub mod json;
pub mod runner;

pub use experiments::{registry, select, Experiment};
