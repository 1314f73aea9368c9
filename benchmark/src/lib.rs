//! `pochoir-benchmark`: the repo's one layered, seeded, digest-checked benchmark.
//!
//! It measures every layer **from outside**, by timing calls into public functions of
//! `crates/{core,stencils,runtime,serve,trace}`; nothing in those crates knows it
//! exists.  `BENCHMARK.json` at the repo root declares the workloads and metrics,
//! `benchmark/README.md` explains them, and `src/main.rs` is the command line.

#![warn(missing_docs)]

pub mod inputs;
pub mod ledger;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
