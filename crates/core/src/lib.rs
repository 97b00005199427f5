//! The paper's contribution: IS-protocols interconnecting
//! propagation-based causal DSM systems.
//!
//! # What this crate implements
//!
//! * [`isp`] — the IS-process tasks of Figs. 1–3: `Propagate_out`
//!   (on a `post_update(x,v)` upcall: read `x`, send `⟨x,v⟩` over the
//!   inter-system FIFO channel), `Propagate_in` (on receipt of `⟨x,v⟩`:
//!   issue a local causal write), and `Pre_Propagate_out` (variant 2,
//!   Fig. 2: read `x` immediately before the replica updates). The
//!   variant is chosen per system from
//!   [`McsProtocol::satisfies_causal_updating`](cmi_memory::McsProtocol::satisfies_causal_updating),
//!   exactly as the paper prescribes.
//! * [`build`] — [`InterconnectBuilder`]: assembles any number of
//!   systems (possibly running **different** MCS protocols) and
//!   interconnects them pairwise over bidirectional reliable FIFO
//!   channels in a cycle-free (tree) topology, per Corollary 1. Two
//!   topology modes are provided: [`IsTopology::Pairwise`] — two
//!   IS-processes per link, the literal construction of Theorem 1 — and
//!   [`IsTopology::Shared`] — one IS-process per system serving all its
//!   links (with explicit forwarding), the configuration behind
//!   Section 6's `n + m − 1` message count.
//! * [`report`] — run reports exposing the computations the paper
//!   reasons about: `α^T` (the interconnected system, IS-process
//!   operations excluded), each `α^k`, and the protocol-internal logs
//!   (replica updates, link sends) that Property 1 and Lemma 1 constrain.
//! * Fault injection for the ablation experiments: a batching IS-process
//!   that violates Lemma 1's send order, and (via
//!   [`ChannelSpec::reordering`](cmi_sim::ChannelSpec::reordering))
//!   non-FIFO links that violate the channel assumption.
//!
//! # Example
//!
//! ```
//! use cmi_core::{InterconnectBuilder, LinkSpec, SystemSpec};
//! use cmi_memory::{ProtocolKind, WorkloadSpec};
//! use std::time::Duration;
//!
//! let mut b = InterconnectBuilder::new();
//! let a = b.add_system(SystemSpec::new("A", ProtocolKind::Ahamad, 3));
//! let c = b.add_system(SystemSpec::new("B", ProtocolKind::Frontier, 2));
//! b.link(a, c, LinkSpec::new(Duration::from_millis(10)));
//! let mut world = b.build(42)?;
//! let report = world.run(&WorkloadSpec::small());
//! assert!(report.outcome().is_quiescent());
//! let alpha_t = report.global_history();
//! assert!(alpha_t.validate_differentiated().is_ok());
//! # Ok::<(), cmi_core::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod build;
pub mod isp;
pub mod msg;
pub mod report;
pub mod shard;
pub mod spec;
pub mod topology;
pub mod transport;

pub use build::{InterconnectBuilder, World};
pub use isp::{IsFault, IsVariant};
pub use msg::{FrameMeta, WorldMsg};
pub use report::{LinkTraffic, RunReport};
pub use shard::ShardedWorld;
pub use spec::{
    BuildError, IsTopology, LinkSpec, ProtocolFactory, SystemHandle, SystemSpec, MAX_SYSTEM_PROCS,
};
pub use topology::{parse_topology, TopologyShape, TopologySpec};
pub use transport::{ReliableConfig, ReliableReceiver, ReliableSender};
