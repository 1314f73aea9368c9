//! # pochoir
//!
//! A Rust reproduction of *"The Pochoir Stencil Compiler"* (Tang, Chowdhury, Kuszmaul,
//! Luk, Leiserson — SPAA 2011): a parallel, cache-oblivious stencil-computation framework
//! built around trapezoidal decompositions with hyperspace cuts, together with the
//! embedded specification language, the loop/STRAP baselines, and the measurement
//! substrates (work/span analyzer, cache simulator, autotuner) needed to regenerate the
//! paper's evaluation.
//!
//! This facade crate simply re-exports the workspace members:
//!
//! * [`core`] (`pochoir-core`) — shapes, arrays, boundaries, zoids, hyperspace cuts, and
//!   the TRAP / STRAP / loop engines.
//! * [`dsl`] (`pochoir-dsl`) — the `Pochoir` object, the specification macros, Phase-1
//!   checking and the Pochoir Guarantee.
//! * [`runtime`] (`pochoir-runtime`) — the Cilk-like work-stealing scheduler.
//! * [`stencils`] (`pochoir-stencils`) — the Figure 3 / Figure 5 benchmark applications.
//! * [`analysis`] (`pochoir-analysis`) — the Cilkview-style work/span analyzer.
//! * [`cachesim`] (`pochoir-cachesim`) — the ideal-cache and set-associative simulators.
//! * [`autotune`] (`pochoir-autotune`) — ISAT-style coarsening/block searches; the
//!   stencil presets they are checked against are committed constants.
//! * [`trace`] (`pochoir-trace`) — the traffic-trace format, generators and corpus
//!   behind the trace-replay benchmark harness.
//!
//! ## Quickstart
//!
//! ```
//! use pochoir::prelude::*;
//! use pochoir::dsl::{pochoir_kernel, pochoir_shape, Pochoir};
//!
//! pochoir_kernel!(
//!     /// 2D heat kernel (paper, Figure 6).
//!     pub struct Heat<f64, 2> { cx: f64, cy: f64 }
//!     |this, u, t, (x, y)| {
//!         let c = u.get(t, [x, y]);
//!         u.set(t + 1, [x, y], c
//!             + this.cx * (u.get(t, [x + 1, y]) - 2.0 * c + u.get(t, [x - 1, y]))
//!             + this.cy * (u.get(t, [x, y + 1]) - 2.0 * c + u.get(t, [x, y - 1])));
//!     }
//! );
//!
//! let shape = pochoir_shape![(1,0,0), (0,0,0), (0,1,0), (0,-1,0), (0,0,-1), (0,0,1)];
//! let mut heat = Pochoir::<f64, 2>::with_array(shape, [128, 128]);
//! heat.register_boundary(Boundary::Periodic).unwrap();
//! heat.array_mut().unwrap().fill_time_slice(0, |x| (x[0] + x[1]) as f64);
//! heat.run(50, &Heat { cx: 0.1, cy: 0.1 }).unwrap();
//! let result = heat.array().unwrap().snapshot(heat.result_time());
//! assert_eq!(result.len(), 128 * 128);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use pochoir_analysis as analysis;
pub use pochoir_autotune as autotune;
pub use pochoir_cachesim as cachesim;
pub use pochoir_core as core;
pub use pochoir_dsl as dsl;
pub use pochoir_runtime as runtime;
pub use pochoir_stencils as stencils;
pub use pochoir_trace as trace;

/// The most commonly used types, re-exported from `pochoir-core` and friends.
pub mod prelude {
    pub use pochoir_core::prelude::*;
    pub use pochoir_dsl::{Pochoir, PochoirError};
    pub use pochoir_runtime::{Parallelism, Runtime, Serial};
}

/// Compiles and runs the top-level `README.md`'s code blocks under
/// `cargo test --doc`, so the quickstart can never drift from the actual API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
