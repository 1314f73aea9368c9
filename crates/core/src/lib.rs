//! # pochoir-core
//!
//! The algorithmic core of a Rust reproduction of *"The Pochoir Stencil Compiler"*
//! (Tang, Chowdhury, Kuszmaul, Luk, Leiserson — SPAA 2011).
//!
//! A **stencil computation** repeatedly updates every point of a d-dimensional grid as a
//! function of itself and its near neighbours.  This crate provides:
//!
//! * the data model of the Pochoir specification language — [`Shape`](shape::Shape),
//!   [`PochoirArray`](grid::PochoirArray), [`Boundary`](boundary::Boundary),
//!   [`StencilKernel`](kernel::StencilKernel);
//! * the space-time geometry of trapezoidal decompositions —
//!   [`Zoid`](zoid::Zoid), parallel space cuts, time cuts and
//!   [hyperspace cuts](hyperspace::hyperspace_cut) (the paper's Section 3 contribution);
//! * the execution engines — TRAP (cache-oblivious, hyperspace cuts), STRAP
//!   (Frigo–Strumpen-style single space cuts) and the loop-nest baselines of Figure 1,
//!   all runnable serially, in parallel on the `pochoir-runtime` work-stealing pool, or
//!   in traced mode feeding a cache simulator ([`engine`]).
//!
//! The surface language (macros, two-phase execution, the Pochoir Guarantee) lives in the
//! companion crate `pochoir-dsl`; the benchmark applications of the paper's Figure 3 live
//! in `pochoir-stencils`.
//!
//! ## Quick example
//!
//! ```
//! use pochoir_core::prelude::*;
//!
//! // 1D heat equation: u(t+1,x) = 0.25 u(t,x-1) + 0.5 u(t,x) + 0.25 u(t,x+1)
//! struct Heat;
//! impl StencilKernel<f64, 1> for Heat {
//!     fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
//!         let v = 0.25 * g.get(t, [x[0] - 1]) + 0.5 * g.get(t, [x[0]]) + 0.25 * g.get(t, [x[0] + 1]);
//!         g.set(t + 1, x, v);
//!     }
//! }
//!
//! let spec = StencilSpec::new(star_shape::<1>(1));
//! let mut u = PochoirArray::<f64, 1>::new([64]);
//! u.register_boundary(Boundary::Periodic);
//! u.fill_time_slice(0, |x| (x[0] % 7) as f64);
//! pochoir_core::engine::run(
//!     &mut u, &spec, &Heat, 0, 10,
//!     &ExecutionPlan::trap(), &pochoir_runtime::Serial,
//! );
//! let result = u.snapshot(10);
//! assert_eq!(result.len(), 64);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod boundary;
pub mod engine;
pub mod grid;
pub mod hyperspace;
pub mod kernel;
pub mod shape;
pub mod simd;
pub mod view;
pub mod zoid;

/// Convenient re-exports of the types most programs need.
pub mod prelude {
    pub use crate::boundary::{AxisRule, Boundary, BoundaryProbe};
    pub use crate::engine::{
        run, run_traced, run_with_global_runtime, AdmissionPolicy, BaseCase, BatchRun, CloneMode,
        Coarsening, CompiledProgram, CompiledStencil, DrainReport, EngineKind, ExecutionPlan,
        FaultPlan, GeometryError, IndexMode, RetryPolicy, Schedule, ScheduleMode, ServeError,
        SessionStats, ShardError, ShardPlan, ShardReport, Sharding, ShedReason, StencilServer,
        TicketOutcome,
    };
    pub use crate::grid::{AlignedVec, PochoirArray, RowWriter, SpaceIter, GRID_ALIGN};
    pub use crate::hyperspace::{hyperspace_cut, single_space_cut, HyperspaceCut};
    pub use crate::kernel::{update_row_pointwise, StencilKernel, StencilSpec};
    pub use crate::shape::{box_shape, star_shape, Shape, ShapeCell};
    pub use crate::simd::{SimdIsa, SimdPolicy};
    pub use crate::view::{AccessTracer, GridAccess};
    pub use crate::zoid::Zoid;
}
