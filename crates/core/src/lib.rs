//! # dmac-core — matrix-dependency analysis, planning, and execution
//!
//! This crate is the reproduction of the DMac paper's primary contribution:
//!
//! * [`event`] — input/output *events* (`In(A, p, op)` / `Out(A, p, op)`),
//!   the vocabulary of §3.
//! * [`dependency`] — the matrix-dependency classifier: Definition 1 and
//!   the eight dependency types of Table 2, split into communication and
//!   non-communication categories.
//! * [`cost`] — the dependency-oriented cost model of §4.1: input events
//!   cost `0`, `|A|`, or `N·|A|`; a CPMM output event costs `N·|A|`.
//! * [`strategy`] — the candidate execution strategies per operator
//!   (RMM1 / RMM2 / CPMM for multiplication, scheme-aligned strategies for
//!   cell-wise and unary operators).
//! * [`plan`] — the execution plan: compute steps plus the five extended
//!   operators (`partition`, `broadcast`, `transpose`, `reference`,
//!   `extract`) of §4.2.1.
//! * [`planner`] — Algorithm 1 with Heuristic 1 (Pull-Up Broadcast) and
//!   Heuristic 2 (Re-assignment).
//! * [`liveness`] — static live-range analysis over the finished plan:
//!   explicit `free` steps at each intermediate's last use and the
//!   [`plan::MemoryCertificate`] bounding per-step resident bytes.
//! * [`stage`] — the traverse-based stage scheduler of §5.2: the plan is
//!   split into un-interleaved stages whose boundaries are exactly the
//!   communication operators.
//! * [`engine`] — executes a staged plan on the simulated cluster,
//!   reporting per-phase compute/communication statistics.
//! * [`trace`] — the execution flight recorder: low-level cluster spans
//!   merged into a per-step [`Trace`] whose measured bytes are diffed
//!   against the planner's Table 2 predictions (`Trace::conformance`),
//!   exportable as chrome://tracing JSON.
//! * [`recovery`] — lineage-based stage recovery: worker losses are
//!   survived by decommissioning the host, remapping its logical workers,
//!   and deterministically replaying the producing stages of lost state.
//! * [`disk`] — the durable tier under the store: content-addressed
//!   checksummed blob files, snapshot manifests with an atomically-swapped
//!   `CURRENT` pointer, compaction, and a deterministic crash injector for
//!   every durability boundary.
//! * [`baselines`] — the systems DMac is compared against: SystemML-S
//!   (same runtime, dependency-blind planner), single-node R, and the
//!   ScaLAPACK / SciDB simulators used for Table 4.
//! * [`session`] — the user-facing facade tying everything together.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod cost;
pub mod dependency;
pub mod disk;
pub mod engine;
pub mod error;
pub mod event;
pub mod liveness;
pub mod plan;
pub mod planner;
pub mod profile;
pub mod recovery;
pub mod session;
pub mod stage;
pub mod store;
pub mod strategy;
pub mod trace;
pub mod verifyhook;

pub use disk::{CompactionReport, DiskTier, Manifest, ManifestEntry};
pub use dmac_stats::{DensityClass, SparsityProfile};
pub use error::{CoreError, Result};
pub use recovery::{RecoveryPolicy, RecoveryStats};
pub use session::Session;
pub use store::{SharedStore, StoreStats};
pub use trace::{Conformance, SpillTraffic, StepTrace, Trace};
