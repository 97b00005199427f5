//! Consistency checkers for DSM computations.
//!
//! Theorem 1 of the paper is a correctness claim — *the system obtained by
//! interconnecting two causal systems with the IS-protocols is causal* —
//! so this reproduction verifies it empirically on every experiment. The
//! crate implements the paper's definitions verbatim:
//!
//! * [`order`] — Definition 2: the causal order `→→`, the transitive
//!   closure of program order and writes-into, as a bitset closure
//!   ([`order::CausalOrder`], litmus-sized input) and as per-operation
//!   vector clocks (simulator-sized input).
//! * [`causal`] — Definitions 1–5: a computation is causal iff for every
//!   process `i` the projection `α_i` (all writes + `i`'s reads) has a
//!   **causal view**: a legal permutation preserving `→→`. The
//!   exhaustive checker searches for such views (and returns them as
//!   witnesses); the search is complete thanks to the differentiated-
//!   history assumption the paper makes.
//! * [`screen`] — a polynomial necessary-condition screen (thin-air
//!   reads, cyclic causal order, overwritten-value reads) that catches
//!   almost all violations cheaply before the exhaustive search runs.
//! * [`wio`] — the polynomial **fast-path** causal checker over the
//!   writes-into order: definitive on write-distinct histories (every
//!   history the simulator produces), scaling to 100k-op computations
//!   where the exhaustive search cannot go. [`causal::check`] uses it
//!   by default and records the deciding engine in
//!   [`causal::CheckEngine`].
//! * [`sequential`] — an exhaustive sequential-consistency checker, used
//!   to demonstrate the paper's Section 1.1 remark that interconnecting
//!   two sequential systems yields a system that is causal but "most
//!   possibly will not be sequential".
//! * [`pram`] and [`cache`] — checkers for the two neighbouring models
//!   in the consistency hierarchy (paper refs \[5\], \[6\], \[9\]); the
//!   extension experiments use them to map which models survive
//!   IS-protocol interconnection.
//! * [`trace`] — order-conformance checks for protocol-internal traces:
//!   the Causal Updating Property (Property 1) and the propagation-order
//!   guarantee of Lemma 1.
//! * [`forensics`] — joins a dirty screen with the causal lineage record
//!   to name the broken causal edge and print the lifecycle of every
//!   involved update.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod causal;
pub mod dot;
pub mod forensics;
pub mod linearizable;
pub mod litmus;
pub mod metrics;
pub mod online;
pub mod order;
pub mod pram;
pub mod screen;
pub mod sequential;
pub mod session;
pub mod trace;
pub mod wio;

/// The seeded history generators of the integration tests.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

pub use cache::CacheVerdict;
pub use causal::{CausalReport, CausalVerdict, CausalViolation, CheckEngine};
pub use forensics::{Finding, ForensicsReport};
pub use linearizable::LinearizableVerdict;
pub use online::{MonitorConfig, MonitorReport, MonitorViolation, OnlineMonitor};
pub use order::CausalOrder;
pub use pram::{PramReport, PramVerdict};
pub use screen::{BadPattern, ScreenReport};
pub use sequential::{SequentialVerdict, SequentialWitness};
pub use session::{SessionReport, SessionVerdict};
pub use trace::{AppliedWrite, OrderViolation};
