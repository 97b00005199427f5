//! Scenario files: a JSON description of an interconnected world, its
//! workload and the consistency checks to run.
//!
//! ```json
//! {
//!   "seed": 42,
//!   "vars": 4,
//!   "topology": "pairwise",
//!   "systems": [
//!     { "name": "A", "protocol": "ahamad", "processes": 3 },
//!     { "name": "B", "protocol": "frontier", "processes": 2 }
//!   ],
//!   "links": [ { "a": 0, "b": 1, "delay_ms": 10 } ],
//!   "workload": { "ops_per_proc": 20, "write_fraction": 0.5, "mean_gap_ms": 5 },
//!   "checks": ["causal", "sequential"]
//! }
//! ```
//!
//! Large interconnections skip the hand-written arrays: a
//! `topology_spec` block names a generated shape instead (see
//! [`TopologyEntry`]):
//!
//! ```json
//! {
//!   "topology_spec": { "shape": "hub_of_hubs", "systems": 64, "fanout": 8 },
//!   "topology": "shared",
//!   "workload": { "ops_per_proc": 4 }
//! }
//! ```
//!
//! Every field is declared once, in the `schema!` table below: its type,
//! its bound, its default and its doc line. Decoding, encoding, the
//! per-field checks of [`Scenario::validate`] and the README's field
//! reference all derive from that table (see [`crate::schema`]). A
//! misspelled member, a value of the wrong type and a number outside its
//! field's bound are each one error naming the field; only the rules
//! that relate two fields are written out by hand, in `validate`.

use std::fmt;
use std::time::Duration;

use cmi_core::{
    parse_topology, BuildError, InterconnectBuilder, IsTopology, LinkSpec, ReliableConfig,
    RunReport, SystemSpec, TopologySpec, World, MAX_SYSTEM_PROCS,
};
use cmi_memory::{ProtocolKind, WorkloadSpec};
use cmi_obs::{Json, TelemetryConfig, ToJson, WatchKind, WatchdogSpec};
use cmi_sim::{
    sort_schedule, Availability, ChannelSpec, ChaosEvent, ChaosEventKind, ChaosSpec, FaultSpec,
};
use cmi_types::SimTime;

use crate::schema::{Kind, Value};

/// Errors loading or validating a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// JSON syntax / shape error.
    Parse(String),
    /// Semantically invalid scenario.
    Invalid(String),
    /// Topology rejected by the builder.
    Build(BuildError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "scenario parse error: {e}"),
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::Build(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<BuildError> for ScenarioError {
    fn from(e: BuildError) -> Self {
        ScenarioError::Build(e)
    }
}

/// Largest value any `*_ms` field may take: 2^32 ms, about 50 days.
/// Virtual time is a `u64` of nanoseconds, about 4295 × 2^32 ms, so
/// every instant the engine forms from a bounded number of these fields
/// stays far from overflow: a link delay plus its jitter and reorder
/// window, a dial-up period, a retransmission timeout backed off 64×
/// plus 10 % jitter (about 70 limits), a chaos window's start plus its
/// length. The workload's own horizon, `ops_per_proc × mean_gap_ms`,
/// is held to the same limit.
const MAX_MS: u64 = 1 << 32;

/// Virtual milliseconds.
const MS: Kind = Kind::int(false, MAX_MS, "ms");
/// A positive span of virtual milliseconds.
const POSITIVE_MS: Kind = Kind::int(true, MAX_MS, "ms");
/// Protocol names, in [`PROTOCOL_KINDS`] order.
const PROTOCOLS: &[&str] = &[
    "ahamad",
    "frontier",
    "sequencer",
    "atomic",
    "eager-fifo",
    "var-seq",
];
const PROTOCOL_KINDS: [ProtocolKind; 6] = [
    ProtocolKind::Ahamad,
    ProtocolKind::Frontier,
    ProtocolKind::Sequencer,
    ProtocolKind::Atomic,
    ProtocolKind::EagerFifo,
    ProtocolKind::VarSeq,
];
const PROTOCOL: Kind = Kind::Str(PROTOCOLS);

schema! {
    /// A full scenario.
    #[derive(Debug, Clone)]
    pub struct Scenario {
        seed: u64 = 0 => "World seed: a run is a pure function of the scenario and its seed.";
        vars: usize [Kind::int(true, 4096, "")] = 4 => "Shared variables, at most 4096: \
            every replica holds one slot per variable and a resync re-sends them all.";
        topology: Option<String> [Kind::Str(&["pairwise", "shared"])] = None
            => "IS-process allocation; absent means `pairwise`.";
        systems: Vec<SystemEntry> = Vec::new()
            => "Systems to interconnect; empty exactly when `topology_spec` is set.";
        links: Vec<LinkEntry> = Vec::new() => "Tree links between `systems`.";
        workload: WorkloadEntry => "What every application process does.";
        checks: Vec<String>
            [Kind::Str(&["causal", "sequential", "pram", "cache", "linearizable", "session"])]
            = vec!["causal".into()] => "Consistency checks run on every history.";
        trace: bool = false => "Record the simulator trace.";
        lineage: bool = false
            => "Record each update's lifecycle across the interconnection (a Chrome trace).";
        monitor: bool = false
            => "Check causality online, during the run, and alert on the first violation.";
        topology_spec: Option<TopologyEntry> = None
            => "Generated shape replacing `systems` and `links`." omit;
        chaos: Option<ChaosEntry> = None
            => "Seeded schedule of partitions, crashes and detach/attach churn." omit;
        membership: Option<MembershipEntry> = None
            => "Systems that start detached, and scripted attach/detach events." omit;
        telemetry: Option<TelemetryEntry> = None
            => "Flight-recorder sampling of the metric registry, with watchdogs." omit;
    }

    /// One system in a scenario file.
    #[derive(Debug, Clone)]
    pub struct SystemEntry {
        name: String => "Display name.";
        protocol: String [PROTOCOL] => "MCS protocol run by every process of the system.";
        processes: usize [Kind::int(false, MAX_SYSTEM_PROCS as u64, "")]
            => "Application processes; a `ProcId` numbers them by a `u16`.";
        intra_delay_ms: u64 [MS] = 1 => "Delay of the system's own message mesh.";
    }

    /// One link in a scenario file (indices into `systems`).
    #[derive(Debug, Clone)]
    pub struct LinkEntry {
        a: usize => "First system (index into `systems`).";
        b: usize => "Second system (index into `systems`).";
        delay_ms: u64 [MS] = 0 => "Base delay.";
        jitter_ms: u64 [MS] = 0 => "Uniform jitter bound; FIFO order is kept.";
        dialup: Option<DialupEntry> = None => "Dial-up availability: up for a window each period.";
        batch_ms: Option<u64> [MS] = None => "Batching window: pairs are flushed once per window.";
        faults: Option<FaultsEntry> = None => "Probabilistic faults of the link's channel.";
        reliable: Option<ReliableEntry> = None => "Reliable framed transport over the channel.";
        crash: Option<CrashEntry> = None => "Scripted crash schedule of one end's IS-process.";
    }

    /// Dial-up availability window of a link.
    #[derive(Debug, Clone, Copy)]
    pub struct DialupEntry {
        period_ms: u64 [POSITIVE_MS] => "Full period.";
        up_ms: u64 [POSITIVE_MS] => "Up time at the start of each period.";
    }

    /// Probabilistic fault rates of a link's channel.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct FaultsEntry {
        drop: f64 [Kind::Probability] = 0.0 => "Per-message drop probability.";
        duplicate: f64 [Kind::Probability] = 0.0 => "Per-message duplication probability.";
        reorder: f64 [Kind::Probability] = 0.0 => "Per-message reordering probability.";
        reorder_window_ms: u64 [MS] = 20 => "Extra delay bound of a reordered message.";
        corrupt: f64 [Kind::Probability] = 0.0 => "Per-message corruption probability.";
    }

    /// Reliable-transport sublayer settings of a link.
    #[derive(Debug, Clone, Copy)]
    pub struct ReliableEntry {
        rto_ms: u64 [POSITIVE_MS] = 100 => "Base retransmission timeout.";
        max_retries: u32 = 10 => "Retransmissions before a frame is abandoned.";
        max_queue: usize [Kind::int(true, u64::MAX, "")] = 1024
            => "Send-queue bound before degraded coalescing.";
        degraded_after_ms: u64 [MS] = 500 => "Head-of-queue age that triggers degraded mode.";
    }

    /// Scripted IS-process crash schedule of a link end.
    #[derive(Debug, Clone)]
    pub struct CrashEntry {
        side: String [Kind::Str(&["a", "b"])] = "b".into() => "Which end crashes.";
        windows: Vec<CrashWindowEntry> => "Outage windows, ordered and disjoint.";
    }

    /// One outage of a crash schedule.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct CrashWindowEntry {
        down_ms: u64 [MS] => "Instant the IS-process crashes.";
        up_ms: u64 [MS] => "Instant it recovers, after `down_ms`.";
    }

    /// Generated-topology section: one named shape expanded into
    /// `systems` uniform systems (named `S0`, `S1`, …) and the
    /// `systems − 1` tree links, in place of the `systems`/`links` arrays.
    ///
    /// ```json
    /// { "topology_spec": { "shape": "hub_of_hubs", "systems": 64, "fanout": 8 } }
    /// ```
    #[derive(Debug, Clone)]
    pub struct TopologyEntry {
        shape: String => "`chain`, `star`, `tree` or `hub_of_hubs`.";
        systems: usize [Kind::int(false, 1 << 16, "")]
            => "System count, at most 65536: a `SystemId` is a `u16`.";
        fanout: Option<usize> = None
            => "Children per node (`tree`) or leaves per mid hub (`hub_of_hubs`); 4 if absent.";
        protocol: String [PROTOCOL] = "ahamad".into() => "Protocol of every system.";
        processes: usize [Kind::int(true, MAX_SYSTEM_PROCS as u64, "")] = 1
            => "Application processes per system.";
        delay_ms: u64 [MS] = 2 => "Delay of every link.";
        reliable: Option<ReliableEntry> = None => "Reliable framed transport on every link.";
    }

    /// Workload section.
    #[derive(Debug, Clone, Copy)]
    pub struct WorkloadEntry {
        ops_per_proc: u32 => "Operations per application process.";
        write_fraction: f64 [Kind::Probability] = 0.5 => "Fraction of operations that write.";
        mean_gap_ms: u64 [MS] = 5 => "Mean think time between operations.";
    }

    /// Seeded chaos block: compiled into a deterministic schedule of
    /// partition/heal, crash/recover and detach/attach events.
    #[derive(Debug, Clone)]
    pub struct ChaosEntry {
        seed: Option<u64> = None => "Schedule seed; the scenario's seed if absent.";
        horizon_ms: u64 [POSITIVE_MS] => "Window starts are drawn from `[0, horizon_ms)`.";
        partitions: Option<ChaosRateEntry> = None => "Partition/heal windows over the links.";
        crashes: Option<ChaosRateEntry> = None => "Crash/recover windows over the IS-processes.";
        churn: Option<ChaosRateEntry> = None => "Detach/attach cycles over the linked systems.";
    }

    /// One rate block of a chaos schedule: `count` windows, each lasting
    /// `min_ms..=max_ms` virtual milliseconds.
    #[derive(Debug, Clone, Copy)]
    pub struct ChaosRateEntry {
        count: u32 [Kind::int(false, 1 << 16, "")] => "Windows to draw, at most 65536: \
            all are drawn and held before overlapping ones are pruned.";
        min_ms: u64 [MS] = 0 => "Shortest window.";
        max_ms: u64 [MS] = 0 => "Longest window.";
    }

    /// Membership block: systems that start outside the interconnection
    /// plus scripted attach/detach events.
    #[derive(Debug, Clone)]
    pub struct MembershipEntry {
        start_detached: Vec<usize> = Vec::new()
            => "Systems built detached: their links carry nothing in epoch 0.";
        events: Vec<MembershipEventEntry> = Vec::new()
            => "Scripted events, merged with any compiled chaos.";
    }

    /// One scripted membership event.
    #[derive(Debug, Clone)]
    pub struct MembershipEventEntry {
        at_ms: u64 [MS] => "Virtual instant of the event.";
        op: String [Kind::Str(&["attach", "detach"])] => "What happens to the system.";
        system: usize => "Target system index.";
    }

    /// Telemetry block: flight-recorder sampling of the metric registry
    /// at a virtual-time cadence, with optional health watchdogs.
    #[derive(Debug, Clone)]
    pub struct TelemetryEntry {
        every_ms: u64 [POSITIVE_MS] = 1 => "Sampling cadence.";
        capacity: Option<u64> = None => "Samples kept before downsampling; 4096 if absent.";
        watchdogs: Vec<WatchdogEntry> = Vec::new() => "Health watchdogs tested at every sample.";
    }

    /// One declarative health watchdog of a telemetry block.
    #[derive(Debug, Clone)]
    pub struct WatchdogEntry {
        metric: String => "Watched registry metric (counter or gauge).";
        kind: String [Kind::Str(&["above", "below", "rate_above"])] => "Test applied to it.";
        limit: f64 => "Threshold; for `rate_above`, per virtual second.";
    }
}

impl ToJson for Scenario {
    fn to_json(&self) -> Json {
        self.encode()
    }
}

impl TelemetryEntry {
    /// The builder-level config this block describes. Only valid after
    /// [`Scenario::validate`] accepted the watchdog kinds.
    fn to_config(&self) -> TelemetryConfig {
        let mut cfg = TelemetryConfig::default().with_every_ms(self.every_ms);
        if let Some(cap) = self.capacity {
            cfg = cfg.with_capacity(cap as usize);
        }
        for w in &self.watchdogs {
            let kind = WatchKind::parse(&w.kind).expect("kinds checked by validate()");
            cfg = cfg.with_watchdog(WatchdogSpec::new(&*w.metric, kind, w.limit));
        }
        cfg
    }
}

impl ReliableEntry {
    /// The transport configuration this entry names.
    fn to_config(&self) -> ReliableConfig {
        ReliableConfig::default()
            .with_rto(Duration::from_millis(self.rto_ms))
            .with_max_retries(self.max_retries)
            .with_max_queue(self.max_queue)
            .with_degraded_after(Duration::from_millis(self.degraded_after_ms))
    }
}

impl TopologyEntry {
    /// The cmi-core [`TopologySpec`] this entry names, re-parsed
    /// through the CLI's `shape:m[:fanout]` grammar so a scenario file
    /// and `--topology` reject exactly the same inputs (zero counts,
    /// fanout on chain/star, unknown shapes).
    fn to_spec(&self) -> Result<TopologySpec, ScenarioError> {
        if self.shape.contains(':') {
            // A ':' would silently re-segment the grammar below.
            return Err(ScenarioError::Invalid(format!(
                "topology_spec.shape {:?} must not contain ':'",
                self.shape
            )));
        }
        let text = match self.fanout {
            Some(f) => format!("{}:{}:{}", self.shape, self.systems, f),
            None => format!("{}:{}", self.shape, self.systems),
        };
        parse_topology(&text).map_err(ScenarioError::Invalid)
    }
}

fn parse_protocol(name: &str) -> Result<ProtocolKind, ScenarioError> {
    PROTOCOLS
        .iter()
        .position(|&p| p == name)
        .map(|i| PROTOCOL_KINDS[i])
        .ok_or_else(|| ScenarioError::Invalid(format!("unknown protocol {name:?}")))
}

impl Scenario {
    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] for malformed JSON, a missing
    /// required field, a value of the wrong type or an unknown field, and
    /// [`ScenarioError::Invalid`] for semantic problems.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let v = Json::parse(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        let scenario = Self::decode(&v, "", Self::KIND)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Semantic validation, run automatically by
    /// [`from_json`](Self::from_json): every field's own rule from the
    /// schema table, then the rules that relate two fields. Call again
    /// after mutating a parsed scenario (e.g. a CLI `--topology` override
    /// changes the system count membership indices are checked against).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] describing the first
    /// offending field.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.check("", Self::KIND)?;
        let invalid = |msg: String| Err(ScenarioError::Invalid(msg));
        if let Some(t) = &self.topology_spec {
            if !self.systems.is_empty() || !self.links.is_empty() {
                return invalid(
                    "topology_spec replaces the systems/links arrays; remove them".into(),
                );
            }
            t.to_spec()?;
        } else if self.systems.is_empty() {
            return invalid(
                "no systems: give a \"systems\" array or a \"topology_spec\" block".into(),
            );
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.a >= self.systems.len() || l.b >= self.systems.len() {
                return invalid(format!("link {}–{} references an unknown system", l.a, l.b));
            }
            if let (Some(f), Some(_)) = (&l.faults, &l.reliable) {
                if f.drop >= 1.0 {
                    return invalid(format!(
                        "links[{i}].faults.drop = 1 starves the reliable transport: \
                         every frame and ack is lost, got {}",
                        f.drop
                    ));
                }
            }
            let windows = l.crash.as_ref().map_or(&[][..], |c| &c.windows);
            for (w, win) in windows.iter().enumerate() {
                if win.down_ms >= win.up_ms {
                    return invalid(format!(
                        "links[{i}].crash.windows[{w}] must satisfy down_ms < up_ms, \
                         got down_ms = {}, up_ms = {}",
                        win.down_ms, win.up_ms
                    ));
                }
                if w > 0 && windows[w - 1].up_ms > win.down_ms {
                    return invalid(format!(
                        "links[{i}].crash.windows[{w}] overlaps the previous window \
                         (up_ms = {} > down_ms = {})",
                        windows[w - 1].up_ms,
                        win.down_ms
                    ));
                }
            }
        }
        if let Some(c) = &self.chaos {
            for (name, rate) in [
                ("partitions", &c.partitions),
                ("crashes", &c.crashes),
                ("churn", &c.churn),
            ] {
                if let Some(r) = rate.filter(|r| r.min_ms > r.max_ms) {
                    return invalid(format!(
                        "chaos.{name} must satisfy min_ms <= max_ms, \
                         got min_ms = {}, max_ms = {}",
                        r.min_ms, r.max_ms
                    ));
                }
            }
        }
        if let Some(m) = &self.membership {
            let n_systems = self.system_count();
            for (i, &s) in m.start_detached.iter().enumerate() {
                if s >= n_systems {
                    return invalid(format!(
                        "membership.start_detached[{i}] references unknown system {s} \
                         (have {n_systems} systems)"
                    ));
                }
            }
            for (i, e) in m.events.iter().enumerate() {
                if e.system >= n_systems {
                    return invalid(format!(
                        "membership.events[{i}] references unknown system {} \
                         (have {n_systems} systems)",
                        e.system,
                    ));
                }
            }
            // Epoch-range walk: every attach must target a detached
            // system and vice versa, so each event advances the
            // target's link epochs by exactly one. A detach of an
            // already-detached system would be a no-op epoch-wise and
            // almost certainly a script bug.
            let mut attached = vec![true; n_systems];
            for &s in &m.start_detached {
                attached[s] = false;
            }
            let mut order: Vec<usize> = (0..m.events.len()).collect();
            order.sort_by_key(|&i| (m.events[i].at_ms, i));
            for i in order {
                let e = &m.events[i];
                let want_attached = e.op == "detach";
                if attached[e.system] != want_attached {
                    return invalid(format!(
                        "membership.events[{i}]: {} of system {} at t={}ms is out of \
                         epoch range — the system is already {}",
                        e.op,
                        e.system,
                        e.at_ms,
                        if attached[e.system] {
                            "attached"
                        } else {
                            "detached"
                        }
                    ));
                }
                attached[e.system] = !want_attached;
            }
        }
        let horizon =
            u64::from(self.workload.ops_per_proc).saturating_mul(self.workload.mean_gap_ms);
        if horizon > MAX_MS {
            return invalid(format!(
                "workload.ops_per_proc × workload.mean_gap_ms must be at most {MAX_MS} ms, \
                 got {horizon}"
            ));
        }
        Ok(())
    }

    /// Number of systems after expanding any `topology_spec`.
    pub fn system_count(&self) -> usize {
        self.topology_spec
            .as_ref()
            .map_or(self.systems.len(), |t| t.systems)
    }

    /// Display names of the scenario's systems — the explicit entries,
    /// or the generated `S{i}` names of an expanded `topology_spec`.
    pub fn system_names(&self) -> Vec<String> {
        match &self.topology_spec {
            Some(t) => (0..t.systems).map(|i| format!("S{i}")).collect(),
            None => self.systems.iter().map(|s| s.name.clone()).collect(),
        }
    }

    /// Builds the world this scenario describes.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Build`] if the topology is rejected
    /// (cycles, duplicate links, …).
    pub fn build(&self) -> Result<World, ScenarioError> {
        Ok(self.builder()?.build(self.seed)?)
    }

    /// Builds the sharded world this scenario describes: disjoint
    /// connected components run on up to `shards` worker threads and
    /// merge into a report byte-identical to [`build`](Self::build) +
    /// run. Scenarios with observability artifacts (trace, lineage,
    /// monitor, telemetry) coalesce into one group and still produce
    /// the identical report.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`build`](Self::build).
    pub fn build_sharded(&self, shards: usize) -> Result<cmi_core::ShardedWorld, ScenarioError> {
        Ok(self.builder()?.build_sharded(self.seed, shards)?)
    }

    /// The configured [`InterconnectBuilder`] shared by the serial and
    /// sharded build paths.
    fn builder(&self) -> Result<InterconnectBuilder, ScenarioError> {
        let topology = match self.topology.as_deref() {
            Some("shared") => IsTopology::Shared,
            _ => IsTopology::Pairwise,
        };
        let mut b = InterconnectBuilder::new()
            .with_vars(self.vars)
            .with_topology(topology);
        if self.trace {
            b.enable_trace();
        }
        if self.lineage {
            b.enable_lineage();
        }
        if self.monitor {
            b.enable_monitor();
        }
        if let Some(t) = &self.telemetry {
            b.enable_telemetry(t.to_config());
        }
        if let Some(t) = &self.topology_spec {
            // Generated shape: uniform systems, one link spec per tree
            // edge, handles in index order (membership indices line up).
            let spec = t.to_spec()?;
            let mut link = LinkSpec::new(Duration::ZERO)
                .with_channel(ChannelSpec::fixed(Duration::from_millis(t.delay_ms)));
            if let Some(r) = &t.reliable {
                link = link.with_reliability(r.to_config());
            }
            let handles =
                spec.expand_uniform(&mut b, parse_protocol(&t.protocol)?, t.processes, &link);
            if let Some(m) = &self.membership {
                for &s in &m.start_detached {
                    b.start_detached(handles[s]);
                }
            }
            return Ok(b);
        }
        let mut handles = Vec::new();
        for s in &self.systems {
            let spec = SystemSpec::new(&*s.name, parse_protocol(&s.protocol)?, s.processes)
                .with_intra(ChannelSpec::fixed(Duration::from_millis(s.intra_delay_ms)));
            handles.push(b.add_system(spec));
        }
        for l in &self.links {
            let mut channel = ChannelSpec::jittered(
                Duration::from_millis(l.delay_ms),
                Duration::from_millis(l.jitter_ms),
            );
            if let Some(d) = l.dialup {
                channel = channel.with_availability(Availability::DutyCycle {
                    period: Duration::from_millis(d.period_ms),
                    up: Duration::from_millis(d.up_ms),
                });
            }
            if let Some(f) = &l.faults {
                let mut spec = FaultSpec::none();
                if f.drop > 0.0 {
                    spec = spec.with_drop(f.drop);
                }
                if f.duplicate > 0.0 {
                    spec = spec.with_duplication(f.duplicate);
                }
                if f.reorder > 0.0 {
                    spec =
                        spec.with_reordering(f.reorder, Duration::from_millis(f.reorder_window_ms));
                }
                if f.corrupt > 0.0 {
                    spec = spec.with_corruption(f.corrupt);
                }
                channel = channel.with_faults(spec);
            }
            let mut link = LinkSpec::new(Duration::ZERO).with_channel(channel);
            if let Some(batch_ms) = l.batch_ms {
                link = link.with_batching(Duration::from_millis(batch_ms));
            }
            if let Some(r) = &l.reliable {
                link = link.with_reliability(r.to_config());
            }
            if let Some(c) = &l.crash {
                let windows: Vec<(Duration, Duration)> = c
                    .windows
                    .iter()
                    .map(|w| {
                        (
                            Duration::from_millis(w.down_ms),
                            Duration::from_millis(w.up_ms),
                        )
                    })
                    .collect();
                link = if c.side == "a" {
                    link.with_crash_at_a(&windows)
                } else {
                    link.with_crash(&windows)
                };
            }
            b.link(handles[l.a], handles[l.b], link);
        }
        if let Some(m) = &self.membership {
            for &s in &m.start_detached {
                b.start_detached(handles[s]);
            }
        }
        Ok(b)
    }

    /// The seeded [`ChaosSpec`] of the chaos block, if any.
    fn chaos_spec(&self) -> Option<(ChaosSpec, u64)> {
        let c = self.chaos.as_ref()?;
        let mut spec = ChaosSpec::new(Duration::from_millis(c.horizon_ms));
        if let Some(p) = &c.partitions {
            spec = spec.with_partitions(
                p.count,
                Duration::from_millis(p.min_ms),
                Duration::from_millis(p.max_ms),
            );
        }
        if let Some(p) = &c.crashes {
            spec = spec.with_crashes(
                p.count,
                Duration::from_millis(p.min_ms),
                Duration::from_millis(p.max_ms),
            );
        }
        if let Some(p) = &c.churn {
            spec = spec.with_churn(
                p.count,
                Duration::from_millis(p.min_ms),
                Duration::from_millis(p.max_ms),
            );
        }
        Some((spec, c.seed.unwrap_or(self.seed)))
    }

    /// The scripted membership events as chaos events (unsorted).
    fn membership_events(&self) -> Vec<ChaosEvent> {
        let Some(m) = &self.membership else {
            return Vec::new();
        };
        m.events
            .iter()
            .map(|e| ChaosEvent {
                at: SimTime::from_millis(e.at_ms),
                kind: if e.op == "detach" {
                    ChaosEventKind::Detach { system: e.system }
                } else {
                    ChaosEventKind::Attach { system: e.system }
                },
            })
            .collect()
    }

    /// Compiles the scenario's chaos block (if any) through `compile`
    /// and merges in the scripted membership events, time-sorted for
    /// [`World::run_with_chaos`]. Empty when neither block is present.
    fn chaos_events(
        &self,
        compile: impl FnOnce(&ChaosSpec, u64) -> Vec<ChaosEvent>,
    ) -> Vec<ChaosEvent> {
        let mut events = Vec::new();
        if let Some((spec, seed)) = self.chaos_spec() {
            events.extend(compile(&spec, seed));
        }
        events.extend(self.membership_events());
        sort_schedule(&mut events);
        events
    }

    /// The workload section as a [`WorkloadSpec`].
    fn workload_spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            ops_per_proc: self.workload.ops_per_proc,
            write_fraction: self.workload.write_fraction,
            n_vars: self.vars as u32,
            mean_gap: Duration::from_millis(self.workload.mean_gap_ms),
            pattern: cmi_memory::VarPattern::Uniform,
        }
    }

    /// Builds and runs the scenario.
    ///
    /// # Errors
    ///
    /// Propagates topology errors from [`Scenario::build`].
    pub fn run(&self) -> Result<RunReport, ScenarioError> {
        let mut world = self.build()?;
        let workload = self.workload_spec();
        let events = self.chaos_events(|spec, seed| world.compile_chaos(spec, seed));
        if events.is_empty() {
            Ok(world.run(&workload))
        } else {
            Ok(world.run_with_chaos(&workload, &events))
        }
    }

    /// Builds and runs the scenario on the sharded engine with up to
    /// `shards` worker threads. The report is byte-identical to
    /// [`run`](Self::run) for every shard count.
    ///
    /// # Errors
    ///
    /// Propagates topology errors from [`Scenario::build`].
    pub fn run_sharded(&self, shards: usize) -> Result<RunReport, ScenarioError> {
        let mut world = self.build_sharded(shards)?;
        let workload = self.workload_spec();
        let events = self.chaos_events(|spec, seed| world.compile_chaos(spec, seed));
        if events.is_empty() {
            Ok(world.run(&workload))
        } else {
            Ok(world.run_with_chaos(&workload, &events))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "systems": [
            { "name": "A", "protocol": "ahamad", "processes": 2 },
            { "name": "B", "protocol": "frontier", "processes": 2 }
        ],
        "links": [ { "a": 0, "b": 1, "delay_ms": 5 } ],
        "workload": { "ops_per_proc": 4 }
    }"#;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        assert_eq!(s.vars, 4);
        assert_eq!(s.checks, vec!["causal"]);
        assert_eq!(s.workload.write_fraction, 0.5);
        assert_eq!(s.systems[0].intra_delay_ms, 1);
    }

    #[test]
    fn minimal_scenario_builds_and_runs() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        let report = s.run().unwrap();
        assert!(report.outcome().is_quiescent());
        assert_eq!(report.global_history().len(), 16);
    }

    #[test]
    fn unknown_protocol_is_rejected() {
        let bad = MINIMAL.replace("ahamad", "paxos");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("paxos"));
    }

    #[test]
    fn unknown_check_is_rejected() {
        let bad = MINIMAL.replace(
            "\"workload\"",
            "\"checks\": [\"serializable\"], \"workload\"",
        );
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("serializable"));
    }

    #[test]
    fn link_to_unknown_system_is_rejected() {
        let bad = MINIMAL.replace("\"b\": 1", "\"b\": 7");
        assert!(Scenario::from_json(&bad).is_err());
    }

    #[test]
    fn cyclic_topology_fails_at_build() {
        let cyclic = r#"{
            "systems": [
                { "name": "A", "protocol": "ahamad", "processes": 2 },
                { "name": "B", "protocol": "ahamad", "processes": 2 },
                { "name": "C", "protocol": "ahamad", "processes": 2 }
            ],
            "links": [
                { "a": 0, "b": 1 }, { "a": 1, "b": 2 }, { "a": 2, "b": 0 }
            ],
            "workload": { "ops_per_proc": 2 }
        }"#;
        let s = Scenario::from_json(cyclic).unwrap();
        assert!(matches!(s.build(), Err(ScenarioError::Build(_))));
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        assert!(matches!(
            Scenario::from_json("{ nope"),
            Err(ScenarioError::Parse(_))
        ));
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        let json = s.to_json().to_pretty();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back.systems.len(), 2);
        assert_eq!(back.workload.ops_per_proc, s.workload.ops_per_proc);
        assert_eq!(back.checks, s.checks);
        assert_eq!(back.to_json(), s.to_json());
    }

    const FAULTY: &str = r#"{
        "seed": 11,
        "systems": [
            { "name": "A", "protocol": "ahamad", "processes": 2 },
            { "name": "B", "protocol": "ahamad", "processes": 2 }
        ],
        "links": [ {
            "a": 0, "b": 1, "delay_ms": 5,
            "faults": { "drop": 0.3, "duplicate": 0.05, "corrupt": 0.05 },
            "reliable": { "rto_ms": 40 },
            "crash": { "windows": [ { "down_ms": 150, "up_ms": 320 } ] }
        } ],
        "workload": { "ops_per_proc": 10 }
    }"#;

    #[test]
    fn faulty_scenario_parses_with_defaults() {
        let s = Scenario::from_json(FAULTY).unwrap();
        let l = &s.links[0];
        let f = l.faults.unwrap();
        assert_eq!(f.drop, 0.3);
        assert_eq!(f.reorder, 0.0);
        assert_eq!(f.reorder_window_ms, 20);
        let r = l.reliable.unwrap();
        assert_eq!(r.rto_ms, 40);
        assert_eq!(r.max_retries, 10);
        let c = l.crash.as_ref().unwrap();
        assert_eq!(c.side, "b");
        assert_eq!(
            c.windows,
            vec![CrashWindowEntry {
                down_ms: 150,
                up_ms: 320
            }]
        );
    }

    #[test]
    fn faulty_scenario_builds_runs_and_stays_causal() {
        let s = Scenario::from_json(FAULTY).unwrap();
        let report = s.run().unwrap();
        assert!(report.outcome().is_quiescent());
        assert!(report.metrics().counter("isp.crashes") >= 1);
    }

    #[test]
    fn faulty_scenario_round_trips_through_json() {
        let s = Scenario::from_json(FAULTY).unwrap();
        let back = Scenario::from_json(&s.to_json().to_pretty()).unwrap();
        assert_eq!(back.to_json(), s.to_json());
    }

    #[test]
    fn out_of_range_fault_probability_names_field_and_value() {
        let bad = FAULTY.replace("\"drop\": 0.3", "\"drop\": 1.5");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("links[0].faults.drop"), "{msg}");
        assert!(msg.contains("1.5"), "{msg}");
    }

    #[test]
    fn inverted_crash_window_names_field_and_values() {
        let bad = FAULTY.replace("\"up_ms\": 320", "\"up_ms\": 100");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("links[0].crash.windows[0]"), "{msg}");
        assert!(msg.contains("150"), "{msg}");
        assert!(msg.contains("100"), "{msg}");
    }

    #[test]
    fn bad_crash_side_is_rejected() {
        let bad = FAULTY.replace("\"windows\"", "\"side\": \"c\", \"windows\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("links[0].crash.side"));
    }

    #[test]
    fn zero_rto_is_rejected() {
        let bad = FAULTY.replace("\"rto_ms\": 40", "\"rto_ms\": 0");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("links[0].reliable.rto_ms"));
    }

    #[test]
    fn lineage_flag_parses_and_round_trips() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        assert!(!s.lineage, "lineage defaults to off");
        let on = MINIMAL.replace("\"workload\"", "\"lineage\": true, \"workload\"");
        let s = Scenario::from_json(&on).unwrap();
        assert!(s.lineage);
        let back = Scenario::from_json(&s.to_json().to_pretty()).unwrap();
        assert!(back.lineage);
        let report = s.run().unwrap();
        let lin = report.lineage().expect("lineage-enabled run records it");
        assert!(!lin.is_empty());
    }

    #[test]
    fn monitor_flag_parses_round_trips_and_runs_clean() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        assert!(!s.monitor, "monitor defaults to off");
        let on = MINIMAL.replace("\"workload\"", "\"monitor\": true, \"workload\"");
        let s = Scenario::from_json(&on).unwrap();
        assert!(s.monitor);
        let back = Scenario::from_json(&s.to_json().to_pretty()).unwrap();
        assert!(back.monitor);
        let report = s.run().unwrap();
        let mon = report.monitor().expect("monitored run reports it");
        assert!(mon.is_clean(), "{:?}", mon.violation);
        assert_eq!(mon.ops_seen, report.global_history().len() as u64);
    }

    #[test]
    fn wrong_field_types_are_parse_errors() {
        let bad = MINIMAL.replace("\"processes\": 2", "\"processes\": \"two\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(matches!(err, ScenarioError::Parse(_)), "{err}");
        assert!(err.to_string().contains("processes"));
    }

    const CHAOTIC: &str = r#"{
        "seed": 7,
        "systems": [
            { "name": "A", "protocol": "ahamad", "processes": 2 },
            { "name": "B", "protocol": "frontier", "processes": 2 },
            { "name": "C", "protocol": "ahamad", "processes": 2 }
        ],
        "links": [
            { "a": 0, "b": 1, "delay_ms": 4, "reliable": { "rto_ms": 30 } },
            { "a": 1, "b": 2, "delay_ms": 4, "reliable": { "rto_ms": 30 } }
        ],
        "workload": { "ops_per_proc": 12, "mean_gap_ms": 3 },
        "monitor": true,
        "chaos": {
            "horizon_ms": 120,
            "partitions": { "count": 1, "min_ms": 15, "max_ms": 40 }
        },
        "membership": {
            "start_detached": [2],
            "events": [
                { "at_ms": 60, "op": "attach", "system": 2 },
                { "at_ms": 140, "op": "detach", "system": 2 }
            ]
        }
    }"#;

    #[test]
    fn chaos_scenario_parses_with_defaults() {
        let s = Scenario::from_json(CHAOTIC).unwrap();
        let c = s.chaos.as_ref().unwrap();
        assert_eq!(c.seed, None);
        assert_eq!(c.horizon_ms, 120);
        assert_eq!(c.partitions.unwrap().count, 1);
        assert!(c.crashes.is_none());
        let m = s.membership.as_ref().unwrap();
        assert_eq!(m.start_detached, vec![2]);
        assert_eq!(m.events.len(), 2);
        assert_eq!(m.events[0].op, "attach");
    }

    #[test]
    fn chaos_scenario_round_trips_through_json() {
        let s = Scenario::from_json(CHAOTIC).unwrap();
        let back = Scenario::from_json(&s.to_json().to_pretty()).unwrap();
        assert_eq!(back.to_json(), s.to_json());
    }

    /// `monitor.check_latency_ns` records host wall-clock time per
    /// checked op, so it differs between ANY two runs of a monitored
    /// scenario — serial or sharded. Everything else must match.
    fn replay_bytes(report: &cmi_core::RunReport) -> String {
        fn strip(j: Json) -> Json {
            match j {
                Json::Obj(members) => Json::Obj(
                    members
                        .into_iter()
                        .filter(|(k, _)| k != "monitor.check_latency_ns")
                        .map(|(k, v)| (k, strip(v)))
                        .collect(),
                ),
                Json::Arr(items) => Json::Arr(items.into_iter().map(strip).collect()),
                other => other,
            }
        }
        strip(report.to_json()).to_compact()
    }

    #[test]
    fn sharded_run_matches_serial_bytes() {
        for text in [MINIMAL, FAULTY, CHAOTIC] {
            let s = Scenario::from_json(text).unwrap();
            let serial = replay_bytes(&s.run().unwrap());
            for shards in [1usize, 2, 4] {
                let sharded = replay_bytes(&s.run_sharded(shards).unwrap());
                assert_eq!(serial, sharded, "shards={shards} diverged from serial");
            }
        }
    }

    #[test]
    fn chaos_scenario_runs_clean_under_the_monitor() {
        let s = Scenario::from_json(CHAOTIC).unwrap();
        let report = s.run().unwrap();
        assert!(report.outcome().is_quiescent());
        let metrics = report.metrics();
        assert_eq!(metrics.counter("membership.attaches"), 1);
        assert_eq!(metrics.counter("membership.detaches"), 1);
        let mon = report.monitor().expect("monitored run reports it");
        assert!(mon.is_clean(), "{:?}", mon.violation);
    }

    #[test]
    fn chaos_and_membership_are_absent_from_plain_serializations() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        let json = s.to_json().to_pretty();
        assert!(!json.contains("chaos"), "{json}");
        assert!(!json.contains("membership"), "{json}");
    }

    #[test]
    fn unknown_chaos_field_is_rejected_by_name() {
        let bad = CHAOTIC.replace("\"horizon_ms\"", "\"horizonms\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown field"), "{msg}");
        assert!(msg.contains("horizonms"), "{msg}");
    }

    #[test]
    fn unknown_membership_event_field_is_rejected_by_name() {
        let bad = CHAOTIC.replace("\"at_ms\": 60, ", "\"at_ms\": 60, \"when\": 1, ");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("membership.events[0]"), "{msg}");
        assert!(msg.contains("unknown field"), "{msg}");
        assert!(msg.contains("when"), "{msg}");
    }

    #[test]
    fn out_of_epoch_range_membership_event_is_rejected() {
        // Detaching system 2 while it is still detached (before its
        // scripted attach) would not advance any epoch.
        let bad = CHAOTIC.replace(
            "\"at_ms\": 60, \"op\": \"attach\"",
            "\"at_ms\": 60, \"op\": \"detach\"",
        );
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("out of epoch range"), "{msg}");
        assert!(msg.contains("already detached"), "{msg}");
    }

    #[test]
    fn membership_event_for_unknown_system_is_rejected() {
        let bad = CHAOTIC.replace(
            "\"op\": \"attach\", \"system\": 2",
            "\"op\": \"attach\", \"system\": 9",
        );
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("membership.events"), "{msg}");
        assert!(msg.contains('9'), "{msg}");
    }

    #[test]
    fn inverted_chaos_window_is_rejected_with_values() {
        let bad = CHAOTIC.replace("\"min_ms\": 15", "\"min_ms\": 55");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("chaos.partitions"), "{msg}");
        assert!(msg.contains("55"), "{msg}");
        assert!(msg.contains("40"), "{msg}");
    }

    #[test]
    fn bad_membership_op_is_rejected() {
        let bad = CHAOTIC.replace("\"op\": \"detach\"", "\"op\": \"leave\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("membership.events[1].op"), "{msg}");
        assert!(msg.contains("leave"), "{msg}");
    }

    const TELEMETRIC: &str = r#"{
        "seed": 5,
        "systems": [
            { "name": "A", "protocol": "ahamad", "processes": 2 },
            { "name": "B", "protocol": "frontier", "processes": 2 }
        ],
        "links": [ { "a": 0, "b": 1, "delay_ms": 4 } ],
        "workload": { "ops_per_proc": 8, "mean_gap_ms": 3 },
        "telemetry": {
            "every_ms": 2,
            "capacity": 256,
            "watchdogs": [
                { "metric": "engine.events_dispatched", "kind": "above", "limit": 10 },
                { "metric": "isp.send_queue_depth_max", "kind": "rate_above", "limit": 5000 }
            ]
        }
    }"#;

    #[test]
    fn telemetry_scenario_parses_with_defaults() {
        let s = Scenario::from_json(TELEMETRIC).unwrap();
        let t = s.telemetry.as_ref().unwrap();
        assert_eq!(t.every_ms, 2);
        assert_eq!(t.capacity, Some(256));
        assert_eq!(t.watchdogs.len(), 2);
        assert_eq!(t.watchdogs[0].kind, "above");
        // every_ms and capacity default when omitted.
        let bare = TELEMETRIC.replace("\"every_ms\": 2,\n            \"capacity\": 256,", "");
        let s = Scenario::from_json(&bare).unwrap();
        let t = s.telemetry.as_ref().unwrap();
        assert_eq!(t.every_ms, 1);
        assert_eq!(t.capacity, None);
    }

    #[test]
    fn telemetry_scenario_round_trips_through_json() {
        let s = Scenario::from_json(TELEMETRIC).unwrap();
        let back = Scenario::from_json(&s.to_json().to_pretty()).unwrap();
        assert_eq!(back.to_json(), s.to_json());
    }

    #[test]
    fn telemetry_is_absent_from_plain_serializations() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        let json = s.to_json().to_pretty();
        assert!(!json.contains("telemetry"), "{json}");
    }

    #[test]
    fn telemetry_run_records_a_timeline_and_fires_watchdogs() {
        let s = Scenario::from_json(TELEMETRIC).unwrap();
        let report = s.run().unwrap();
        let t = report
            .telemetry()
            .expect("telemetry-enabled run records it");
        assert!(t.sample_count() >= 1);
        assert!(
            !t.alerts().is_empty(),
            "an 8-op run dispatches more than 10 events"
        );
        assert!(t
            .alerts()
            .iter()
            .all(|a| a.metric == "engine.events_dispatched"));
    }

    #[test]
    fn unknown_telemetry_field_is_rejected_by_name() {
        let bad = TELEMETRIC.replace("\"every_ms\"", "\"everyms\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown field"), "{msg}");
        assert!(msg.contains("everyms"), "{msg}");
    }

    #[test]
    fn unknown_watchdog_field_is_rejected_by_name() {
        let bad = TELEMETRIC.replace("\"limit\": 10", "\"limit\": 10, \"grace\": 1");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("telemetry.watchdogs[0]"), "{msg}");
        assert!(msg.contains("grace"), "{msg}");
    }

    #[test]
    fn unknown_watchdog_kind_is_rejected_with_alternatives() {
        let bad = TELEMETRIC.replace("\"kind\": \"above\"", "\"kind\": \"over\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("telemetry.watchdogs[0].kind"), "{msg}");
        assert!(msg.contains("over"), "{msg}");
        assert!(msg.contains("rate_above"), "{msg}");
    }

    #[test]
    fn zero_telemetry_cadence_is_rejected() {
        let bad = TELEMETRIC.replace("\"every_ms\": 2", "\"every_ms\": 0");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("telemetry.every_ms"));
    }

    const TOPOLOGIC: &str = r#"{
        "seed": 24,
        "vars": 2,
        "topology": "shared",
        "topology_spec": {
            "shape": "hub_of_hubs", "systems": 12, "fanout": 3,
            "delay_ms": 3, "reliable": { "rto_ms": 60 }
        },
        "workload": { "ops_per_proc": 2, "mean_gap_ms": 2 }
    }"#;

    #[test]
    fn topology_spec_parses_with_defaults() {
        let s = Scenario::from_json(TOPOLOGIC).unwrap();
        let t = s.topology_spec.as_ref().unwrap();
        assert_eq!(t.shape, "hub_of_hubs");
        assert_eq!(t.systems, 12);
        assert_eq!(t.fanout, Some(3));
        assert_eq!(t.protocol, "ahamad");
        assert_eq!(t.processes, 1);
        assert_eq!(t.reliable.unwrap().rto_ms, 60);
        assert!(s.systems.is_empty(), "no explicit systems array");
        assert_eq!(s.system_count(), 12);
        assert_eq!(s.system_names()[11], "S11");
    }

    #[test]
    fn topology_spec_builds_runs_and_stays_causal() {
        let s = Scenario::from_json(TOPOLOGIC).unwrap();
        let report = s.run().unwrap();
        assert!(report.outcome().is_quiescent());
        // 12 systems, 1 proc each, 2 ops → α^T holds every op.
        assert_eq!(report.global_history().len(), 24);
        // Reliable links ship frames; steady state is all-O(1).
        assert!(report.metrics().counter("isp.frames_o1") > 0);
    }

    #[test]
    fn topology_spec_round_trips_through_json() {
        let s = Scenario::from_json(TOPOLOGIC).unwrap();
        let back = Scenario::from_json(&s.to_json().to_pretty()).unwrap();
        assert_eq!(back.to_json(), s.to_json());
    }

    #[test]
    fn topology_spec_rejects_explicit_systems_and_links() {
        let both = MINIMAL.replace(
            "\"systems\"",
            "\"topology_spec\": { \"shape\": \"star\", \"systems\": 4 }, \"systems\"",
        );
        let err = Scenario::from_json(&both).unwrap_err();
        assert!(err.to_string().contains("replaces the systems/links"));
    }

    #[test]
    fn topology_spec_rejects_bad_shapes_by_name() {
        for (patch, needle) in [
            ("\"shape\": \"ring\"", "unknown shape 'ring'"),
            ("\"shape\": \"star\"", "star takes no fanout"),
            ("\"systems\": 0", "at least 1"),
            ("\"fanout\": 0", "fanout must be a positive number"),
        ] {
            let bad = match patch.split_once(':').unwrap().0 {
                "\"shape\"" => TOPOLOGIC.replace("\"shape\": \"hub_of_hubs\"", patch),
                "\"systems\"" => TOPOLOGIC.replace("\"systems\": 12", patch),
                _ => TOPOLOGIC.replace("\"fanout\": 3", patch),
            };
            let err = Scenario::from_json(&bad).unwrap_err();
            assert!(err.to_string().contains(needle), "{patch}: {err}");
        }
    }

    #[test]
    fn topology_spec_unknown_field_is_rejected_by_name() {
        let bad = TOPOLOGIC.replace("\"delay_ms\": 3", "\"delayms\": 3");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("topology_spec"), "{msg}");
        assert!(msg.contains("delayms"), "{msg}");
    }

    #[test]
    fn topology_spec_membership_indices_check_the_expanded_count() {
        let with_membership = |system: usize| {
            TOPOLOGIC.replace(
                "\"workload\"",
                &format!(
                    "\"membership\": {{ \"start_detached\": [{system}], \"events\": [ \
                     {{ \"at_ms\": 30, \"op\": \"attach\", \"system\": {system} }} ] }}, \
                     \"workload\""
                ),
            )
        };
        let s = Scenario::from_json(&with_membership(11)).unwrap();
        let report = s.run().unwrap();
        assert!(report.outcome().is_quiescent());
        let err = Scenario::from_json(&with_membership(12)).unwrap_err();
        assert!(err.to_string().contains("unknown system 12"));
    }

    #[test]
    fn readme_field_reference_is_the_schema_table() {
        let readme = include_str!("../../../README.md");
        let (begin, end) = (
            "<!-- scenario fields: begin -->\n",
            "<!-- scenario fields: end -->",
        );
        let start = readme.find(begin).expect("README marks the reference") + begin.len();
        let len = readme[start..]
            .find(end)
            .expect("README closes the reference");
        let table = crate::schema::reference(Scenario::FIELDS);
        assert!(
            readme[start..start + len] == table,
            "README's scenario field reference differs from the schema table; \
             put this between its markers:\n{table}"
        );
    }

    #[test]
    fn missing_systems_without_topology_spec_is_rejected() {
        let err = Scenario::from_json(r#"{ "workload": { "ops_per_proc": 2 } }"#).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("systems"), "{msg}");
        assert!(msg.contains("topology_spec"), "{msg}");
    }
}
