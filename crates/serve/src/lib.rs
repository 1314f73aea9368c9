//! `pochoir-serve`: a network-facing stencil service over the pochoir serving
//! layer.
//!
//! The crate turns the in-process [`StencilServer`](pochoir_core::engine::StencilServer)
//! into a TCP service speaking a small length-prefixed binary protocol
//! (documented in `docs/protocol.md`):
//!
//! 1. a client negotiates an `(app, geometry, window)` session and receives a
//!    handle backed by the process-global session registry — the compiled
//!    program is shared with every other client (and every in-process caller)
//!    of the same geometry;
//! 2. it submits `(grid, t0, t1, weight, deadline)` requests, which drain
//!    through the pipelined scheduler under the configured
//!    [`AdmissionPolicy`](pochoir_core::engine::AdmissionPolicy);
//! 3. it waits for and fetches results that are bitwise-identical to running the
//!    same batch in-process — the end-to-end tests pin exactly that.
//!
//! [`protocol`] is the wire codec (pure, fuzzed by property tests), which
//! streams a grid between its rows and the socket with no payload-sized buffer
//! on any hop; [`server`] is the blocking reactor, and [`client`] a minimal
//! blocking client.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, FetchedResult, Session};
pub use protocol::{Deadline, ElemType, ErrorCode, Frame, FrameError, RequestStatus};
pub use server::{RecordConfig, ServeConfig, Server};
