//! Static specification of an interconnected world.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use cmi_memory::{McsProtocol, ProtocolKind};
use cmi_sim::ChannelSpec;
use cmi_types::SystemId;

use crate::isp::IsFault;
use crate::transport::ReliableConfig;

/// Factory for custom MCS-process implementations: given
/// `(system, slot, n_procs, n_vars)`, produce the protocol instance for
/// that slot. Lets downstream crates interconnect protocols this
/// repository has never heard of, as long as they uphold the
/// [`McsProtocol`] contract (propagation-based, local reads). The
/// factory must be `Send + Sync`: the sharded engine instantiates
/// protocols from worker threads.
pub type ProtocolFactory =
    Arc<dyn Fn(SystemId, u16, usize, usize) -> Box<dyn McsProtocol> + Send + Sync>;

/// Opaque handle to a system added to an
/// [`InterconnectBuilder`](crate::InterconnectBuilder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SystemHandle(pub(crate) usize);

impl SystemHandle {
    /// Dense index of the system.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Description of one DSM system to interconnect.
#[derive(Clone)]
pub struct SystemSpec {
    /// Human-readable name (experiment tables, traces).
    pub name: String,
    /// The MCS protocol all of this system's processes run (used unless
    /// a custom factory is installed).
    pub protocol: ProtocolKind,
    /// Optional custom protocol factory overriding `protocol`.
    pub factory: Option<ProtocolFactory>,
    /// Number of application processes (IS-processes are added by the
    /// builder according to the topology).
    pub n_app_procs: usize,
    /// Channel spec of the intra-system full mesh.
    pub intra: ChannelSpec,
}

impl fmt::Debug for SystemSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemSpec")
            .field("name", &self.name)
            .field("protocol", &self.protocol)
            .field("custom_factory", &self.factory.is_some())
            .field("n_app_procs", &self.n_app_procs)
            .finish()
    }
}

impl SystemSpec {
    /// A system named `name` with `n_app_procs` application processes
    /// running `protocol`, with a 1 ms intra-system mesh.
    pub fn new(name: impl Into<String>, protocol: ProtocolKind, n_app_procs: usize) -> Self {
        SystemSpec {
            name: name.into(),
            protocol,
            factory: None,
            n_app_procs,
            intra: ChannelSpec::fixed(Duration::from_millis(1)),
        }
    }

    /// A system running a **custom** protocol produced by `factory` —
    /// the downstream-extension hook (see `examples/custom_protocol.rs`).
    /// The factory must produce propagation-based MCS-processes with
    /// local reads, as [`McsProtocol`] documents; the IS-protocol
    /// variant is selected from the produced instances'
    /// [`satisfies_causal_updating`](McsProtocol::satisfies_causal_updating).
    pub fn custom(
        name: impl Into<String>,
        n_app_procs: usize,
        factory: impl Fn(SystemId, u16, usize, usize) -> Box<dyn McsProtocol> + Send + Sync + 'static,
    ) -> Self {
        SystemSpec {
            name: name.into(),
            protocol: ProtocolKind::Ahamad, // placeholder, unused
            factory: Some(Arc::new(factory)),
            n_app_procs,
            intra: ChannelSpec::fixed(Duration::from_millis(1)),
        }
    }

    /// Instantiates the MCS-process for one slot.
    pub(crate) fn make_protocol(
        &self,
        system: SystemId,
        slot: u16,
        n_procs: usize,
        n_vars: usize,
    ) -> Box<dyn McsProtocol> {
        match &self.factory {
            Some(f) => f(system, slot, n_procs, n_vars),
            None => self.protocol.instantiate(system, slot, n_procs, n_vars),
        }
    }

    /// Whether this system's protocol guarantees Causal Updating
    /// (probes a factory-built instance for custom protocols).
    pub(crate) fn causal_updating(&self) -> bool {
        match &self.factory {
            Some(f) => f(SystemId(u16::MAX), 0, 1, 1).satisfies_causal_updating(),
            None => self.protocol.satisfies_causal_updating(),
        }
    }

    /// Replaces the intra-system channel spec.
    pub fn with_intra(mut self, intra: ChannelSpec) -> Self {
        self.intra = intra;
        self
    }
}

/// Description of one bidirectional inter-system link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Channel spec of both directions of the IS-process channel.
    pub channel: ChannelSpec,
    /// Fault injection applied to both endpoint IS-processes
    /// ([`IsFault::None`] for correct runs).
    pub fault: IsFault,
    /// X14 batching: accumulate outgoing pairs and flush them as one
    /// message per window (`None` = the paper's one-message-per-pair
    /// protocol).
    pub batch: Option<Duration>,
    /// Reliable transport sublayer (`None` = the paper's assumption of
    /// an already-reliable FIFO channel; required whenever the channel
    /// carries a lossy [`FaultSpec`](cmi_sim::FaultSpec)).
    pub reliable: Option<ReliableConfig>,
    /// Crash windows `(down_at, up_at)` in virtual time for the
    /// IS-process on the **first** linked system.
    pub crash_a: Vec<(Duration, Duration)>,
    /// Crash windows for the IS-process on the **second** linked system.
    pub crash_b: Vec<(Duration, Duration)>,
}

impl LinkSpec {
    /// A reliable FIFO link with fixed `delay` and no faults — the
    /// paper's assumption.
    pub fn new(delay: Duration) -> Self {
        LinkSpec {
            channel: ChannelSpec::fixed(delay),
            fault: IsFault::None,
            batch: None,
            reliable: None,
            crash_a: Vec::new(),
            crash_b: Vec::new(),
        }
    }

    /// Enables pair batching with the given flush window (X14).
    pub fn with_batching(mut self, window: Duration) -> Self {
        self.batch = Some(window);
        self
    }

    /// Uses an explicit channel spec (jitter, availability windows for
    /// the dial-up experiment, or a non-FIFO ablation channel).
    pub fn with_channel(mut self, channel: ChannelSpec) -> Self {
        self.channel = channel;
        self
    }

    /// Injects an IS-process fault (ablation experiments).
    pub fn with_fault(mut self, fault: IsFault) -> Self {
        self.fault = fault;
        self
    }

    /// Runs the link over the reliable transport sublayer
    /// ([`crate::transport`]): framing, cumulative acks, retransmission
    /// with backoff, dedup and resequencing at the receiver.
    pub fn with_reliability(mut self, cfg: ReliableConfig) -> Self {
        self.reliable = Some(cfg);
        self
    }

    /// Schedules crashes of the IS-process on the **second** linked
    /// system: it dies at each `down_at` and restarts at the matching
    /// `up_at`, resyncing from its surviving MCS replica (the re-reads
    /// forge the causal links, the paper's Section 3 trick).
    pub fn with_crash(mut self, windows: &[(Duration, Duration)]) -> Self {
        for &(down, up) in windows {
            assert!(down < up, "crash window must end after it starts");
        }
        self.crash_b = windows.to_vec();
        self
    }

    /// Same as [`with_crash`](Self::with_crash) for the IS-process on
    /// the **first** linked system.
    pub fn with_crash_at_a(mut self, windows: &[(Duration, Duration)]) -> Self {
        for &(down, up) in windows {
            assert!(down < up, "crash window must end after it starts");
        }
        self.crash_a = windows.to_vec();
        self
    }
}

/// How IS-processes are allocated to links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsTopology {
    /// Two IS-processes per link, one in each linked system — the
    /// literal construction of Theorem 1 / Corollary 1. A system incident
    /// to `k` links hosts `k` IS-processes; propagation across a middle
    /// system flows through its MCS (one IS-process's `Propagate_in`
    /// write triggers the other's `post_update`).
    #[default]
    Pairwise,
    /// One IS-process per system, attached to every incident link, with
    /// explicit forwarding of received pairs to the other links. This is
    /// the configuration behind Section 6's `n + m − 1` messages-per-
    /// write count ("one IS-process could belong to several systems").
    Shared,
}

impl fmt::Display for IsTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsTopology::Pairwise => f.write_str("pairwise"),
            IsTopology::Shared => f.write_str("shared"),
        }
    }
}

/// Why a world could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// No systems were added.
    NoSystems,
    /// A system has zero application processes.
    EmptySystem {
        /// Offending system index.
        system: usize,
    },
    /// A link references an unknown system handle.
    UnknownSystem {
        /// Offending handle index.
        handle: usize,
    },
    /// A link connects a system to itself.
    SelfLink {
        /// Offending system index.
        system: usize,
    },
    /// The links contain a cycle; Corollary 1 requires interconnecting
    /// "in pairs avoiding the creation of cycles", i.e. a tree.
    CyclicTopology,
    /// Two links connect the same pair of systems (a 2-cycle).
    DuplicateLink {
        /// The linked pair.
        systems: (usize, usize),
    },
    /// A system's application processes plus its IS slots outnumber the
    /// [`MAX_SYSTEM_PROCS`] ids a `ProcId` can give within one system.
    TooManyProcesses {
        /// Offending system index.
        system: usize,
        /// Its application processes.
        processes: usize,
        /// Its IS-process slots (one per incident link, or one shared).
        is_slots: usize,
    },
    /// Two scripted crash windows of one IS-process overlap — on one
    /// link end, or on two links one shared IS-process serves.
    OverlappingCrashWindows {
        /// The system hosting the IS-process.
        system: usize,
        /// The earlier window, `(down_at, up_at)`.
        first: (Duration, Duration),
        /// The later window, which starts before `first` ends.
        second: (Duration, Duration),
    },
}

/// Processes one system can hold: a `ProcId`'s index within its system
/// is a `u16`.
pub const MAX_SYSTEM_PROCS: usize = 1 << 16;

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoSystems => f.write_str("no systems to interconnect"),
            BuildError::EmptySystem { system } => {
                write!(f, "system #{system} has no application processes")
            }
            BuildError::UnknownSystem { handle } => write!(f, "unknown system handle #{handle}"),
            BuildError::SelfLink { system } => write!(f, "system #{system} linked to itself"),
            BuildError::CyclicTopology => {
                f.write_str("interconnection topology contains a cycle (must be a tree)")
            }
            BuildError::DuplicateLink { systems: (a, b) } => {
                write!(f, "systems #{a} and #{b} linked twice")
            }
            BuildError::TooManyProcesses {
                system,
                processes,
                is_slots,
            } => write!(
                f,
                "system #{system}: processes ({processes}) plus IS slots ({is_slots}) \
                 must be at most {MAX_SYSTEM_PROCS}"
            ),
            BuildError::OverlappingCrashWindows {
                system,
                first,
                second,
            } => write!(
                f,
                "system #{system}: IS-process crash windows {:?}..{:?} and {:?}..{:?} \
                 overlap (one IS-process crashes on one ordered, disjoint schedule)",
                first.0, first.1, second.0, second.1
            ),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_spec_defaults() {
        let s = SystemSpec::new("A", ProtocolKind::Ahamad, 3);
        assert_eq!(s.name, "A");
        assert_eq!(s.n_app_procs, 3);
        assert_eq!(s.intra.delay, Duration::from_millis(1));
    }

    #[test]
    fn link_spec_defaults_to_reliable_fifo() {
        let l = LinkSpec::new(Duration::from_millis(40));
        assert!(l.channel.fifo);
        assert_eq!(l.fault, IsFault::None);
        assert_eq!(l.batch, None);
        let b = l.with_batching(Duration::from_millis(20));
        assert_eq!(b.batch, Some(Duration::from_millis(20)));
    }

    #[test]
    fn build_errors_display_reasonably() {
        assert!(BuildError::CyclicTopology.to_string().contains("tree"));
        assert!(BuildError::EmptySystem { system: 2 }
            .to_string()
            .contains("#2"));
        assert!(BuildError::DuplicateLink { systems: (0, 1) }
            .to_string()
            .contains("twice"));
    }

    #[test]
    fn custom_factory_overrides_the_kind() {
        let spec = SystemSpec::custom("mine", 2, |system, slot, n, vars| {
            ProtocolKind::Frontier.instantiate(system, slot, n, vars)
        });
        let p = spec.make_protocol(SystemId(3), 1, 2, 2);
        assert_eq!(p.proc(), cmi_types::ProcId::new(SystemId(3), 1));
        assert!(spec.causal_updating());
        assert!(format!("{spec:?}").contains("custom_factory: true"));
    }

    #[test]
    fn custom_factory_can_disable_causal_updating() {
        let spec = SystemSpec::custom("eager", 2, |system, slot, n, vars| {
            ProtocolKind::EagerFifo.instantiate(system, slot, n, vars)
        });
        assert!(!spec.causal_updating(), "variant 2 would be selected");
    }

    #[test]
    fn topology_modes_display() {
        assert_eq!(IsTopology::Pairwise.to_string(), "pairwise");
        assert_eq!(IsTopology::Shared.to_string(), "shared");
        assert_eq!(IsTopology::default(), IsTopology::Pairwise);
    }
}
