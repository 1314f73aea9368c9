//! # pochoir-runtime
//!
//! A Cilk-like fork-join work-stealing runtime.
//!
//! The Pochoir paper (Tang et al., SPAA 2011) compiles stencil specifications into Cilk
//! Plus code; the trapezoidal-decomposition algorithm TRAP relies only on two scheduling
//! primitives — binary fork-join (`cilk_spawn`/`cilk_sync`) and a parallel loop
//! (`cilk_for`) — executed by a greedy work-stealing scheduler.  This crate provides those
//! primitives natively in Rust:
//!
//! * [`Runtime::join`] — run two closures, potentially in parallel (work-first stealing).
//! * [`Runtime::parallel_for`] / [`Runtime::for_each`] — a `cilk_for`-style parallel loop
//!   implemented by recursive range splitting over `join`.
//! * [`Runtime::install`] — enter the pool from an external thread.
//! * [`Parallelism`] — an abstraction implemented by both the parallel [`Runtime`] and the
//!   deterministic [`Serial`] executor, so the stencil engines can be written once and run
//!   in either mode (the serial mode is used for cache-trace collection and for the
//!   Phase-1 "template library" interpreter).
//!
//! ## Example
//!
//! ```
//! use pochoir_runtime::Runtime;
//!
//! let rt = Runtime::new(2);
//! let (a, b) = rt.join(|| (1..=10).sum::<u32>(), || (1..=10).product::<u32>());
//! assert_eq!(a, 55);
//! assert_eq!(b, 3628800);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod job;
mod latch;
mod metrics;
mod parallel;
mod pool;
mod registry;

pub use latch::{CountLatch, Latch, LockLatch, SpinLatch};
pub use metrics::{Counter, Metrics, MetricsSnapshot};
pub use parallel::{Parallelism, Serial};
pub use pool::{default_num_threads, join, parallel_for, Runtime, NUM_THREADS_ENV};
