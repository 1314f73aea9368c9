//! # pochoir-trace
//!
//! The traffic-trace layer of the serving benchmark harness: a versioned,
//! human-readable trace format for multi-tenant stencil traffic, seeded synthetic
//! generators for adversarial workload shapes, and the minimal JSON layer the trace
//! format is written in.
//!
//! The Pochoir paper's amortization claim — compile a trapezoidal schedule once,
//! replay it across many invocations — is exercised in this workspace by a
//! multi-tenant serving layer whose scheduler claims (EDF ordering, weighted-stride
//! fairness, shed/quarantine behaviour, shard-round pipelining) need *reproducible
//! traffic* to be testable.  A [`Trace`] is that reproducible
//! artifact: a named, seeded stream of
//! `(tenant, app, geometry, window, weight, deadline, arrival_tick)` records that
//! `pochoir_bench::replay` drives through `StencilServer` under pipelined / barrier /
//! sequential disciplines.
//!
//! * [`format`](mod@format) — the versioned record/stream types, `emit`/`parse` with a
//!   property-pinned round trip, and validation against the closed app vocabulary.
//! * [`gen`] — integer-only seeded generators: memoryless (Poisson-analogue)
//!   arrivals, heavy-tail tenant skew, diurnal bursts, session-registry geometry
//!   churn, and sharded giant-grid traffic.
//! * [`corpus`] — the committed `traces/` corpus definition (pinned seeds).
//! * [`json`] — the dependency-free JSON value this workspace's harness layers
//!   share (the workspace builds offline, without serde).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod corpus;
pub mod format;
pub mod gen;
pub mod json;

pub use format::{
    Trace, TraceApp, TraceError, TraceRecord, TRACE_APPS, TRACE_FORMAT, TRACE_VERSION,
};
pub use gen::{Rng, WorkShape};
pub use json::{Json, JsonError};
