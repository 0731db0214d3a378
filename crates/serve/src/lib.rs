//! dmac-serve: a concurrent, multi-tenant matrix service over the DMac
//! runtime.
//!
//! Long-lived server ([`server::Server`]) speaking a length-prefixed
//! JSON protocol ([`protocol`]) over TCP, with:
//!
//! * a **plan cache** ([`cache`]) keyed by normalized program AST +
//!   load-input partition schemes,
//! * a **shared matrix store** ([`dmac_core::SharedStore`]) all
//!   sessions read and write,
//! * **admission control** — bounded queue, `busy` backpressure,
//!   per-request deadlines, write-intent conflict rejection — and
//!   graceful drain-then-exit shutdown,
//! * deterministic concurrency: conflicting programs execute in
//!   admission order, so replaying a request log serially reproduces
//!   every matrix and trace bit for bit (see [`server`] docs).
//!
//! Binaries: `dmac-served` (the server) and `dmac-cli` (submit /
//! explain / fetch / stats / shutdown / smoke).

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod smoke;

pub use cache::{CacheStats, PlanCache};
pub use client::{Client, ClientError};
pub use dmac_cluster::jsonin::Json;
pub use protocol::{ProgramResult, Request, Response};
pub use server::{Server, ServerConfig};
