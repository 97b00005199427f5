//! Assembly of interconnected worlds.
//!
//! Since PR 9 the assembly is split into three stages so the sharded
//! engine ([`crate::ShardedWorld`]) can reuse it verbatim:
//!
//! 1. [`InterconnectBuilder::layout`] validates the topology once and
//!    computes the *global* layout — per-system incident links, IS
//!    slots, dense actor-id / driver-label / IS-slot bases and the
//!    connected component of every system.
//! 2. `build_world` materializes a runnable [`World`] over any subset
//!    of systems (a *shard group*) of that layout. The serial
//!    [`build`](InterconnectBuilder::build) is exactly `build_world`
//!    over all systems.
//! 3. `extract` + `assemble_report` turn one or more finished worlds
//!    into a [`RunReport`]; the serial path routes through the same
//!    single-extract assembly, so sharded and serial reports are
//!    byte-identical by construction.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::time::Duration;

use cmi_checker::online::{MonitorConfig, OnlineMonitor};
use cmi_checker::MonitorReport;
use cmi_memory::{
    Driver, NodeHost, OpPlan, ReplicaUpdate, ScriptedDriver, WorkloadDriver, WorkloadSpec,
};
use cmi_obs::{
    LineageEvent, LineageRecorder, MetricId, MetricsRegistry, TelemetryConfig, TimeSeries,
};
use cmi_sim::chaos::{self, ChaosEvent, ChaosEventKind, ChaosSpec};
use cmi_sim::rng::derive_rng;
use cmi_sim::tap::RunTap;
use cmi_sim::{NetworkTag, RunLimit, RunOutcome, Sim, SimBuilder, TraceEntry, TrafficStats};
use cmi_types::{OpRecord, ProcId, SimTime, SystemId};

use crate::actor::{
    AddressBook, IsSettings, LinkState, WorldActor, CRASH_TIMER, POKE_TIMER, RECOVER_TIMER,
};
use crate::isp::{IsProcess, IsVariant, LinkEnd};
use crate::msg::WorldMsg;
use crate::report::{FirstApplied, LinkTraffic, RunReport};
use crate::spec::{BuildError, IsTopology, LinkSpec, SystemHandle, SystemSpec, MAX_SYSTEM_PROCS};

/// A system as realized in a built world.
#[derive(Debug, Clone)]
pub struct SystemInfo {
    /// System identity.
    pub id: SystemId,
    /// Name from the spec.
    pub name: String,
    /// Protocol from the spec.
    pub protocol: cmi_memory::ProtocolKind,
    /// Application processes (slots `0..n_app`).
    pub app_procs: Vec<ProcId>,
    /// IS-processes hosted by this system (slots after the apps).
    pub isp_procs: Vec<ProcId>,
}

impl SystemInfo {
    /// Total MCS-processes of this system (apps + IS-processes).
    pub fn mcs_count(&self) -> usize {
        self.app_procs.len() + self.isp_procs.len()
    }
}

/// A link as realized in a built world.
#[derive(Debug, Clone, Copy)]
pub struct LinkInfo {
    /// IS-process on the first system.
    pub a_isp: ProcId,
    /// IS-process on the second system.
    pub b_isp: ProcId,
}

/// Validated global layout of an interconnection, shared by the serial
/// world and every shard group. Index spaces (actor ids, driver labels,
/// IS-process slots) are dense in system-major order over the FULL
/// world, so a group world can address its slice without knowing how
/// the other groups are laid out.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Per system, the global link indices incident to it.
    pub(crate) incident: Vec<Vec<usize>>,
    /// Per system, how many IS-process slots it hosts.
    pub(crate) isp_slots: Vec<usize>,
    /// Per system, its connected component keyed by smallest member.
    pub(crate) component: Vec<usize>,
    /// Per system, the global actor id of its first process.
    pub(crate) actor_base: Vec<u32>,
    /// Per system, the global driver label of its first app process.
    pub(crate) label_base: Vec<u64>,
    /// Per system, the global IS-process slot of its first IS slot.
    pub(crate) isp_base: Vec<usize>,
    /// Total number of links.
    pub(crate) n_links: usize,
    /// All system names, in global order.
    pub(crate) names: Vec<String>,
}

impl Layout {
    /// Total IS-process slots across the whole world.
    pub(crate) fn n_isps(&self) -> usize {
        self.isp_slots.iter().sum()
    }
}

/// The links IS slot `slot` of a system with `incident` links serves:
/// its own link under [`IsTopology::Pairwise`], all of them under
/// [`IsTopology::Shared`].
fn slot_links(topology: IsTopology, incident: &[usize], slot: usize) -> &[usize] {
    match topology {
        IsTopology::Pairwise => &incident[slot..=slot],
        IsTopology::Shared => incident,
    }
}

/// Process `k`'s index within its system; [`InterconnectBuilder::layout`]
/// has bounded every system's process count by [`MAX_SYSTEM_PROCS`].
fn proc_index(k: usize) -> u16 {
    u16::try_from(k).expect("layout bounds a system's processes")
}

/// Builder for an interconnected world of causal DSM systems.
///
/// See the crate-level example. Validation happens in
/// [`build`](Self::build): the link graph must be a forest (Corollary 1
/// interconnects "in pairs avoiding the creation of cycles").
#[derive(Debug)]
pub struct InterconnectBuilder {
    systems: Vec<SystemSpec>,
    links: Vec<(usize, usize, LinkSpec)>,
    topology: IsTopology,
    n_vars: usize,
    trace: bool,
    lineage: bool,
    monitor: bool,
    telemetry: Option<TelemetryConfig>,
    force_variant2: bool,
    force_clocked: bool,
    detached: Vec<usize>,
}

impl Default for InterconnectBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl InterconnectBuilder {
    /// Creates an empty builder (pairwise topology, 4 shared variables).
    pub fn new() -> Self {
        InterconnectBuilder {
            systems: Vec::new(),
            links: Vec::new(),
            topology: IsTopology::Pairwise,
            n_vars: 4,
            trace: false,
            lineage: false,
            monitor: false,
            telemetry: None,
            force_variant2: false,
            force_clocked: false,
            detached: Vec::new(),
        }
    }

    /// Adds a system.
    pub fn add_system(&mut self, spec: SystemSpec) -> SystemHandle {
        self.systems.push(spec);
        SystemHandle(self.systems.len() - 1)
    }

    /// Interconnects two systems with a bidirectional FIFO link.
    pub fn link(&mut self, a: SystemHandle, b: SystemHandle, spec: LinkSpec) {
        self.links.push((a.0, b.0, spec));
    }

    /// Selects the IS-process allocation mode.
    pub fn with_topology(mut self, topology: IsTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the number of shared variables (shared by all systems — the
    /// paper requires the IS-process MCS to replicate *every* variable).
    pub fn with_vars(mut self, n_vars: usize) -> Self {
        assert!(n_vars > 0, "at least one shared variable");
        self.n_vars = n_vars;
        self
    }

    /// Enables the simulator trace (X1 protocol traces).
    pub fn enable_trace(&mut self) {
        self.trace = true;
    }

    /// Enables causal lineage tracing: every write's full lifecycle
    /// (issue, replica applies, IS reads, link crossings, remote writes)
    /// is recorded and surfaced through [`RunReport::lineage`]. Off by
    /// default; a disabled run does no lineage work at all.
    pub fn enable_lineage(&mut self) {
        self.lineage = true;
    }

    /// Enables the online causal monitor: application operations (and
    /// lineage events, when lineage is enabled) stream into an
    /// incremental checker during the run, the first violation is
    /// alerted on stderr the moment it is detected, and the final
    /// [`MonitorReport`](cmi_checker::MonitorReport) lands in
    /// [`RunReport::monitor`]. Off by default; a disabled run installs
    /// no tap and [`RunReport::to_json`] is byte-identical.
    pub fn enable_monitor(&mut self) {
        self.monitor = true;
    }

    /// Enables flight-recorder telemetry: the engine samples the metric
    /// registry at the configured virtual-time cadence into a
    /// delta-encoded bounded ring, evaluates the configured watchdogs at
    /// each sample, and profiles engine phases with wall-clock spans.
    /// The timeline (virtual time only) lands in
    /// [`RunReport::telemetry`]; span totals ride along but never enter
    /// the timeline, so same-seed runs serialize byte-identically. Off
    /// by default; a disabled run takes no samples and
    /// [`RunReport::to_json`] is byte-identical.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry = Some(cfg);
    }

    /// Marks a system as initially detached: every link incident to it
    /// starts inactive on both ends (epoch 0 carries no traffic) until
    /// [`World::attach_system`] brings the system — and with it each
    /// link whose other endpoint is attached — online. The system's
    /// processes still exist and serve local operations; only
    /// inter-system propagation is withheld.
    pub fn start_detached(&mut self, s: SystemHandle) {
        if !self.detached.contains(&s.0) {
            self.detached.push(s.0);
        }
    }

    /// Forces IS-protocol variant 2 (`Pre_Propagate_out` enabled) even
    /// for protocols that satisfy Causal Updating. Variant 2 is correct
    /// for every causal MCS protocol; this switch exists to exercise it.
    pub fn force_pre_propagate(mut self) -> Self {
        self.force_variant2 = true;
        self
    }

    /// Forces every reliable-transport frame to carry the explicit
    /// per-origin clock ([`crate::FrameMeta::Clocked`]) instead of the
    /// constant-size steady-state metadata. Delivered histories are
    /// identical either way (the metadata is control-plane); this
    /// switch exists so differential tests and X24 can compare the two
    /// paths byte-for-byte and measure the `O(m)` overhead avoided.
    pub fn force_clocked_metadata(mut self) -> Self {
        self.force_clocked = true;
        self
    }

    /// Validates the topology and constructs the world.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for an empty world, empty systems,
    /// unknown handles, self-links, duplicate links, cycles, systems
    /// past the process id space, or overlapping crash windows of one
    /// IS-process.
    pub fn build(self, seed: u64) -> Result<World, BuildError> {
        let layout = self.layout()?;
        let all: Vec<usize> = (0..self.systems.len()).collect();
        Ok(self.build_world(seed, &layout, &all, false))
    }

    /// Validates the topology and computes the global [`Layout`].
    pub(crate) fn layout(&self) -> Result<Layout, BuildError> {
        if self.systems.is_empty() {
            return Err(BuildError::NoSystems);
        }
        for (i, s) in self.systems.iter().enumerate() {
            if s.n_app_procs == 0 {
                return Err(BuildError::EmptySystem { system: i });
            }
        }
        // Union-find cycle check.
        let mut parent: Vec<usize> = (0..self.systems.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        let mut seen_pairs = std::collections::HashSet::new();
        for &(a, b, _) in &self.links {
            for h in [a, b] {
                if h >= self.systems.len() {
                    return Err(BuildError::UnknownSystem { handle: h });
                }
            }
            if a == b {
                return Err(BuildError::SelfLink { system: a });
            }
            if !seen_pairs.insert((a.min(b), a.max(b))) {
                return Err(BuildError::DuplicateLink {
                    systems: (a.min(b), a.max(b)),
                });
            }
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra == rb {
                return Err(BuildError::CyclicTopology);
            }
            parent[ra] = rb;
        }

        // Connected components, canonically keyed by smallest member.
        let n_sys = self.systems.len();
        let mut component = vec![usize::MAX; n_sys];
        let mut min_of_root: HashMap<usize, usize> = HashMap::new();
        for s in 0..n_sys {
            let root = find(&mut parent, s);
            component[s] = *min_of_root.entry(root).or_insert(s);
        }

        // Layout: per system, incident links and IS slots.
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n_sys];
        for (l, &(a, b, _)) in self.links.iter().enumerate() {
            incident[a].push(l);
            incident[b].push(l);
        }
        let isp_slots: Vec<usize> = (0..n_sys)
            .map(|s| match self.topology {
                IsTopology::Pairwise => incident[s].len(),
                IsTopology::Shared => usize::from(!incident[s].is_empty()),
            })
            .collect();
        for (s, spec) in self.systems.iter().enumerate() {
            if spec.n_app_procs.saturating_add(isp_slots[s]) > MAX_SYSTEM_PROCS {
                return Err(BuildError::TooManyProcesses {
                    system: s,
                    processes: spec.n_app_procs,
                    is_slots: isp_slots[s],
                });
            }
            // One IS-process crashes on one schedule: the windows of
            // every link end it serves must not overlap.
            for slot in 0..isp_slots[s] {
                let windows = self.crash_windows(s, slot_links(self.topology, &incident[s], slot));
                if let Some(w) = windows.windows(2).find(|w| w[0].1 > w[1].0) {
                    return Err(BuildError::OverlappingCrashWindows {
                        system: s,
                        first: w[0],
                        second: w[1],
                    });
                }
            }
        }

        // Dense global bases in system-major order.
        let mut actor_base = Vec::with_capacity(n_sys);
        let mut label_base = Vec::with_capacity(n_sys);
        let mut isp_base = Vec::with_capacity(n_sys);
        let (mut actors, mut labels, mut isps) = (0u32, 0u64, 0usize);
        for (s, spec) in self.systems.iter().enumerate() {
            actor_base.push(actors);
            label_base.push(labels);
            isp_base.push(isps);
            actors += (spec.n_app_procs + isp_slots[s]) as u32;
            labels += spec.n_app_procs as u64;
            isps += isp_slots[s];
        }

        Ok(Layout {
            incident,
            isp_slots,
            component,
            actor_base,
            label_base,
            isp_base,
            n_links: self.links.len(),
            names: self.systems.iter().map(|s| s.name.clone()).collect(),
        })
    }

    /// The scripted crash windows of system `s`'s IS slot serving
    /// `serving`, merged over those links' `s` ends and sorted.
    fn crash_windows(&self, s: usize, serving: &[usize]) -> Vec<(Duration, Duration)> {
        let mut windows = Vec::new();
        for (a, _, l) in serving.iter().map(|&l| &self.links[l]) {
            windows.extend_from_slice(if *a == s { &l.crash_a } else { &l.crash_b });
        }
        windows.sort();
        windows
    }

    /// Partitions the systems into shard groups, each a union of
    /// connected components (ascending, keyed by smallest member).
    /// Disjoint components exchange no messages and draw from disjoint
    /// RNG streams, so they replay independently — with two exceptions
    /// that force coalescing:
    ///
    /// * jittered channels all draw from the serial world's single
    ///   jitter stream, so every component with a jittered channel
    ///   (intra or link) lands in ONE group;
    /// * trace, lineage, monitor and telemetry artifacts record global
    ///   event order, so enabling any of them forces a single group.
    pub(crate) fn plan_groups(&self, layout: &Layout) -> Vec<Vec<usize>> {
        let n_sys = self.systems.len();
        if self.trace || self.lineage || self.monitor || self.telemetry.is_some() {
            return vec![(0..n_sys).collect()];
        }
        let mut jittery = BTreeSet::new();
        for (s, spec) in self.systems.iter().enumerate() {
            if !spec.intra.jitter.is_zero() {
                jittery.insert(layout.component[s]);
            }
        }
        for &(a, _, ref spec) in &self.links {
            if !spec.channel.jitter.is_zero() {
                jittery.insert(layout.component[a]);
            }
        }
        let jitter_home = jittery.iter().next().copied();
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for s in 0..n_sys {
            let mut key = layout.component[s];
            if jittery.contains(&key) {
                key = jitter_home.expect("non-empty jitter set");
            }
            groups.entry(key).or_default().push(s);
        }
        groups.into_values().collect()
    }

    /// Materializes a runnable world over `group` (ascending global
    /// system indices, a union of whole connected components) of the
    /// validated `layout`. With `group` = all systems and `shard` =
    /// false this is exactly the serial world. A shard world carries
    /// the global identities of its slice — actor ids, driver labels,
    /// IS slots, network tags — so its run, and later its extract, is
    /// byte-identical to the serial world restricted to the group.
    pub(crate) fn build_world(
        &self,
        seed: u64,
        layout: &Layout,
        group: &[usize],
        shard: bool,
    ) -> World {
        debug_assert!(group.windows(2).all(|w| w[0] < w[1]), "group sorted");
        let in_group = |s: usize| group.binary_search(&s).is_ok();
        let local_sys = |s: usize| group.binary_search(&s).expect("system in group");

        // Process ids and the address book (actor ids dense in creation
        // order: system by system, slot by slot). Local ids are dense
        // over the group; the parallel `global_ids` table carries each
        // actor's identity in the full layout, and `depth_classes`
        // groups actors by connected component for per-component queue
        // depth accounting.
        let mut addr = AddressBook::default();
        let mut next_actor = 0u32;
        let mut global_ids = Vec::new();
        let mut depth_classes = Vec::new();
        let mut class_of_component: HashMap<usize, u32> = HashMap::new();
        let mut proc_ids: Vec<Vec<ProcId>> = Vec::with_capacity(group.len());
        for &s in group {
            let id = SystemId(u16::try_from(s).expect("system index fits u16"));
            let spec = &self.systems[s];
            let total = spec.n_app_procs + layout.isp_slots[s];
            let next_class = class_of_component.len() as u32;
            let class = *class_of_component
                .entry(layout.component[s])
                .or_insert(next_class);
            let procs: Vec<ProcId> = (0..total).map(|k| ProcId::new(id, proc_index(k))).collect();
            for (k, p) in procs.iter().enumerate() {
                addr.insert(*p, cmi_sim::ActorId(next_actor));
                global_ids.push(layout.actor_base[s] + k as u32);
                depth_classes.push(class);
                next_actor += 1;
            }
            proc_ids.push(procs);
        }
        let addr = Rc::new(addr);

        // IS-process proc per (system, link).
        let isp_of = |sys: usize, link: usize| -> ProcId {
            let base = self.systems[sys].n_app_procs;
            let offset = match self.topology {
                IsTopology::Pairwise => layout.incident[sys]
                    .iter()
                    .position(|&l| l == link)
                    .expect("link not incident"),
                IsTopology::Shared => 0,
            };
            proc_ids[local_sys(sys)][base + offset]
        };

        // Instantiate actors.
        let mut b = SimBuilder::new(seed);
        b.set_global_ids(global_ids);
        b.set_depth_classes(depth_classes);
        if self.trace {
            b.enable_trace();
        }
        if self.lineage {
            b.enable_lineage();
        }
        if let Some(cfg) = self.telemetry.clone() {
            b.enable_telemetry(cfg);
        }
        let monitor = if self.monitor {
            let app_procs: Vec<ProcId> = group
                .iter()
                .flat_map(|&s| {
                    let id = SystemId(u16::try_from(s).expect("system index fits u16"));
                    (0..self.systems[s].n_app_procs).map(move |k| ProcId::new(id, proc_index(k)))
                })
                .collect();
            let mon = Rc::new(RefCell::new(OnlineMonitor::new(MonitorConfig::bounded(
                app_procs,
            ))));
            b.set_tap(Box::new(MonitorTap {
                monitor: Rc::clone(&mon),
                alerted: false,
            }));
            Some(mon)
        } else {
            None
        };
        let mut systems_info = Vec::with_capacity(group.len());
        for &s in group {
            let spec = &self.systems[s];
            let id = SystemId(u16::try_from(s).expect("system index fits u16"));
            let total = spec.n_app_procs + layout.isp_slots[s];
            let variant = if self.force_variant2 || !spec.causal_updating() {
                IsVariant::PrePost
            } else {
                IsVariant::PostOnly
            };
            for k in 0..total {
                let host = NodeHost::new(spec.make_protocol(id, proc_index(k), total, self.n_vars));
                let actor = if k < spec.n_app_procs {
                    WorldActor::app(host, Rc::clone(&addr))
                } else {
                    // Which links does this IS slot serve?
                    let serving =
                        slot_links(self.topology, &layout.incident[s], k - spec.n_app_procs);
                    let ends: Vec<LinkEnd> = serving
                        .iter()
                        .map(|&l| {
                            let (la, lb, _) = &self.links[l];
                            let peer_sys = if *la == s { *lb } else { *la };
                            let peer_isp = isp_of(peer_sys, l);
                            LinkEnd {
                                peer_isp,
                                peer_actor: addr.actor_of(peer_isp),
                            }
                        })
                        .collect();
                    let fault = serving
                        .iter()
                        .map(|&l| self.links[l].2.fault)
                        .find(|f| *f != crate::isp::IsFault::None)
                        .unwrap_or(crate::isp::IsFault::None);
                    // Links touching an initially-detached system start
                    // inactive on BOTH ends.
                    let links = serving
                        .iter()
                        .map(|&l| {
                            let (la, lb, link) = &self.links[l];
                            let active = !self.detached.contains(la) && !self.detached.contains(lb);
                            LinkState::new(link.reliable, active, self.systems.len())
                        })
                        .collect();
                    let settings = IsSettings {
                        batch_window: serving.iter().find_map(|&l| self.links[l].2.batch),
                        crash_windows: self.crash_windows(s, serving),
                        n_vars: self.n_vars,
                        force_clocked: self.force_clocked,
                    };
                    WorldActor::is_node(
                        host,
                        Rc::clone(&addr),
                        IsProcess::new(variant, fault, ends),
                        links,
                        settings,
                    )
                };
                b.add_actor(
                    Box::new(actor),
                    NetworkTag(u16::try_from(s).expect("system index fits u16")),
                );
            }
            systems_info.push(SystemInfo {
                id,
                name: spec.name.clone(),
                protocol: spec.protocol,
                app_procs: proc_ids[local_sys(s)][..spec.n_app_procs].to_vec(),
                isp_procs: proc_ids[local_sys(s)][spec.n_app_procs..].to_vec(),
            });
        }

        // Intra-system full meshes.
        for procs in &proc_ids {
            for i in 0..procs.len() {
                for j in 0..procs.len() {
                    if i != j {
                        b.connect(
                            addr.actor_of(procs[i]),
                            addr.actor_of(procs[j]),
                            self.systems[procs[i].system.index()].intra.clone(),
                        );
                    }
                }
            }
        }
        // Inter-system links inside the group (links never cross
        // component — hence group — boundaries).
        let mut links_info = Vec::new();
        let mut link_global = Vec::new();
        for (l, (la, lb, spec)) in self.links.iter().enumerate() {
            if !in_group(*la) {
                continue;
            }
            let a_isp = isp_of(*la, l);
            let b_isp = isp_of(*lb, l);
            b.connect_bidi(
                addr.actor_of(a_isp),
                addr.actor_of(b_isp),
                spec.channel.clone(),
            );
            links_info.push(LinkInfo { a_isp, b_isp });
            link_global.push(l);
        }

        // Payload corruption damages the transport frame's checksum (so
        // the receiver detects and rejects it). Raw `Link`/`Mcs`
        // messages carry no integrity check — corruption detection
        // requires the framed reliable transport.
        b.set_corrupter(|msg: &mut WorldMsg, rng| {
            if let WorldMsg::Frame { checksum, .. } = msg {
                *checksum ^= rng.next_u64() | 1;
            }
        });

        let mut sys_attached = vec![true; group.len()];
        for &s in &self.detached {
            if in_group(s) {
                sys_attached[local_sys(s)] = false;
            }
        }
        let partitioned = vec![false; links_info.len()];
        let isp_slot_global: Vec<usize> = group
            .iter()
            .flat_map(|&s| (0..layout.isp_slots[s]).map(move |j| layout.isp_base[s] + j))
            .collect();
        World {
            sim: b.build(),
            systems: systems_info,
            links: links_info,
            addr,
            n_vars: self.n_vars,
            seed,
            monitor,
            ran: false,
            sys_attached,
            partitioned,
            sys_global: group.to_vec(),
            link_global,
            isp_slot_global,
            label_base: group.iter().map(|&s| layout.label_base[s]).collect(),
            all_names: layout.names.clone(),
            shard,
        }
    }
}

/// The [`RunTap`] feeding the online causal monitor. One clone of the
/// shared handle is boxed into the simulator; the [`World`] keeps the
/// other for end-of-run finalization. The first violation is announced
/// on stderr immediately — that is the monitor's reason to exist: the
/// alert fires mid-run, not after the history is extracted.
struct MonitorTap {
    monitor: Rc<RefCell<OnlineMonitor>>,
    alerted: bool,
}

impl RunTap for MonitorTap {
    fn op(&mut self, rec: &cmi_types::OpRecord) {
        let mut mon = self.monitor.borrow_mut();
        mon.observe(rec);
        if !self.alerted {
            if let Some(v) = mon.violation() {
                self.alerted = true;
                eprintln!(
                    "MONITOR ALERT: causal violation at op {} — {}\n  {}",
                    v.op_index, v.pattern, v.broken_edge
                );
            }
        }
    }

    fn lineage_event(&mut self, ev: &LineageEvent) {
        self.monitor.borrow_mut().observe_lineage(ev);
    }
}

/// Everything a finished world contributes to the final report, carved
/// out so shard worlds (which die with their worker threads) can ship
/// their share to the assembling thread as plain data.
#[derive(Debug)]
pub(crate) struct WorldExtract {
    chunks: Vec<SystemChunk>,
    events: u64,
    stats: TrafficStats,
    metrics: MetricsRegistry,
    trace: Vec<TraceEntry>,
    transport: Option<(u64, usize)>,
    lineage: Option<LineageRecorder>,
    monitor: Option<MonitorReport>,
    telemetry: Option<TimeSeries>,
}

/// One system's extracted state, keyed by its global [`SystemId`] so
/// the assembly can interleave chunks from different shard groups back
/// into global system order.
#[derive(Debug)]
struct SystemChunk {
    sys_id: SystemId,
    procs: Vec<ProcId>,
    isps: Vec<ProcId>,
    streams: Vec<Vec<OpRecord>>,
    updates: Vec<(ProcId, Vec<ReplicaUpdate>)>,
    responses: Vec<(ProcId, Vec<Duration>)>,
    link_sends: Vec<LinkTraffic>,
}

/// A built, runnable interconnected world.
pub struct World {
    sim: Sim<WorldMsg>,
    systems: Vec<SystemInfo>,
    links: Vec<LinkInfo>,
    addr: Rc<AddressBook>,
    n_vars: usize,
    seed: u64,
    monitor: Option<Rc<RefCell<OnlineMonitor>>>,
    ran: bool,
    /// Membership: `sys_attached[s]` ⟺ system `s` is currently part of
    /// the interconnection. A link is live ⟺ BOTH endpoint systems are
    /// attached.
    sys_attached: Vec<bool>,
    /// Partition state per link index (chaos-plane, orthogonal to
    /// membership: a partitioned link is still *attached*, its frames
    /// are dropped in flight and retransmitted after the heal).
    partitioned: Vec<bool>,
    /// Global system index per local system (identity for serial).
    sys_global: Vec<usize>,
    /// Global link index per local link (identity for serial).
    link_global: Vec<usize>,
    /// Global IS-process slot per local slot (identity for serial).
    isp_slot_global: Vec<usize>,
    /// Global driver-label base per local system.
    label_base: Vec<u64>,
    /// All system names of the FULL layout (== local names for serial).
    all_names: Vec<String>,
    /// Shard worlds silently skip chaos events targeting other groups;
    /// the serial world panics on unknown targets as documented.
    shard: bool,
}

impl World {
    /// Runs a randomized workload on every application process and
    /// returns the report. A world can be run once.
    ///
    /// # Panics
    ///
    /// Panics on a second run (histories were already extracted).
    pub fn run(&mut self, workload: &WorkloadSpec) -> RunReport {
        self.install_random_drivers(workload);
        self.finish()
    }

    /// Runs a randomized workload while applying a chaos schedule at
    /// exact virtual instants: the simulator advances to each event's
    /// time, the event is applied, and the run resumes — same seed and
    /// same schedule give a byte-identical [`RunReport::to_json`]. An
    /// empty schedule is exactly [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics on a second run, an unsorted schedule, or an event
    /// referencing an unknown link/IS-process/system.
    pub fn run_with_chaos(&mut self, workload: &WorkloadSpec, events: &[ChaosEvent]) -> RunReport {
        assert!(
            events.windows(2).all(|w| w[0].at <= w[1].at),
            "chaos schedule must be time-sorted (see cmi_sim::sort_schedule)"
        );
        self.install_random_drivers(workload);
        for ev in events {
            self.sim.run(RunLimit::until(ev.at));
            self.apply_chaos(ev);
        }
        self.finish()
    }

    pub(crate) fn install_random_drivers(&mut self, workload: &WorkloadSpec) {
        for s in 0..self.systems.len() {
            let base = self.label_base[s];
            for (k, p) in self.systems[s].app_procs.clone().into_iter().enumerate() {
                let driver = Driver::Random(WorkloadDriver::new(
                    p,
                    workload.clone().with_vars(self.n_vars as u32),
                    derive_rng(self.seed, 0x9000 + base + k as u64),
                ));
                self.set_driver(p, driver);
            }
        }
    }

    /// Runs explicit per-process scripts (adversarial scenarios);
    /// processes without a script stay passive.
    ///
    /// # Panics
    ///
    /// Panics on a second run or on scripts for unknown/IS processes.
    pub fn run_scripted(
        &mut self,
        scripts: impl IntoIterator<Item = (ProcId, Vec<(Duration, OpPlan)>)>,
    ) -> RunReport {
        for (p, steps) in scripts {
            self.set_driver(p, Driver::Scripted(ScriptedDriver::new(steps)));
        }
        self.finish()
    }

    fn set_driver(&mut self, p: ProcId, driver: Driver) {
        let actor = self.addr.actor_of(p);
        self.sim
            .actor_mut::<WorldActor>(actor)
            .expect("world actors are WorldActor")
            .set_driver(driver);
    }

    fn finish(&mut self) -> RunReport {
        let events = self.run_to_quiescence();
        let end_of_run = self.sim.now();
        let extract = self.extract(events, end_of_run);
        let names = self.all_names.clone();
        assemble_report(vec![extract], names)
    }

    /// Drains the event queue and returns the events processed by this
    /// final drain (matching the serial [`RunOutcome::Quiescent`]
    /// count: chaos pre-runs are excluded on both paths).
    pub(crate) fn run_to_quiescence(&mut self) -> u64 {
        assert!(!self.ran, "a world can be run once");
        self.ran = true;
        self.sim.run(RunLimit::unlimited()).events()
    }

    /// Advances the simulator to `t` (inclusive), processing every
    /// pending event up to it.
    pub(crate) fn run_until(&mut self, t: SimTime) {
        self.sim.run(RunLimit::until(t));
    }

    /// Extracts this world's contribution to the report. `end_of_run`
    /// is the GLOBAL end instant — for shard worlds the max across all
    /// groups, so degraded-transport accounting closes every window at
    /// the same instant the serial run would.
    pub(crate) fn extract(&mut self, events: u64, end_of_run: SimTime) -> WorldExtract {
        let mut chunks = Vec::with_capacity(self.systems.len());
        let mut transport: Option<(u64, usize)> = None;
        for sys in &self.systems {
            let mut chunk = SystemChunk {
                sys_id: sys.id,
                procs: Vec::new(),
                isps: Vec::new(),
                streams: Vec::new(),
                updates: Vec::new(),
                responses: Vec::new(),
                link_sends: Vec::new(),
            };
            for p in sys.app_procs.iter().chain(&sys.isp_procs) {
                chunk.procs.push(*p);
                let actor_id = self.addr.actor_of(*p);
                let actor = self
                    .sim
                    .actor_mut::<WorldActor>(actor_id)
                    .expect("world actors are WorldActor");
                let host = actor.host_mut();
                chunk.streams.push(host.take_ops());
                // The log lives on in the report: hand back what its
                // growth over-allocated.
                let mut log = host.take_updates();
                log.shrink_to_fit();
                chunk.updates.push((*p, log));
                chunk.responses.push((*p, host.take_write_responses()));
                if let Some((ns, depth)) = actor.transport_totals(end_of_run) {
                    let t = transport.get_or_insert((0, 0));
                    t.0 += ns;
                    t.1 = t.1.max(depth);
                }
                if let Some(isp) = actor.isp() {
                    chunk.isps.push(*p);
                    // Group the send log per destination in one pass
                    // (the topology is a tree: one link per peer).
                    let mut slot_of = HashMap::new();
                    for end in isp.links() {
                        let dup = slot_of.insert(end.peer_isp, chunk.link_sends.len());
                        debug_assert!(dup.is_none(), "two links to {}", end.peer_isp);
                        chunk.link_sends.push(LinkTraffic {
                            from_isp: *p,
                            to_isp: end.peer_isp,
                            pairs: Vec::new(),
                        });
                    }
                    for sp in isp.sent_log() {
                        if let Some(&slot) = slot_of.get(&sp.to_isp) {
                            chunk.link_sends[slot].pairs.push(*sp);
                        }
                    }
                }
            }
            chunks.push(chunk);
        }
        WorldExtract {
            chunks,
            events,
            stats: self.sim.stats().clone(),
            metrics: self.sim.metrics_snapshot(),
            trace: self.sim.trace().to_vec(),
            transport,
            lineage: self.sim.take_lineage(),
            monitor: self.monitor.take().map(|mon| mon.borrow_mut().finalize()),
            telemetry: self.sim.take_telemetry(),
        }
    }

    /// Compiles a seeded chaos schedule against this world's shape:
    /// partition/heal windows target link indices, crash/recover
    /// windows target IS-process slots in the system-major order of
    /// [`isp_procs`](Self::isp_procs), and churn (detach/attach)
    /// windows target every system that hosts at least one IS-process.
    /// Byte-identical for a given `(spec, seed, world shape)`.
    pub fn compile_chaos(&self, spec: &ChaosSpec, seed: u64) -> Vec<ChaosEvent> {
        let churnable: Vec<usize> = (0..self.systems.len())
            .filter(|&s| !self.systems[s].isp_procs.is_empty())
            .collect();
        chaos::compile(
            spec,
            seed,
            self.links.len(),
            self.isp_procs().len(),
            &churnable,
        )
    }

    /// Applies one chaos event. Partitions, heals and membership
    /// changes take effect at the current virtual instant; crash and
    /// recover are delivered as injected timers firing at `ev.at`, so
    /// they run through the exact same actor path as scripted crash
    /// windows. Event targets use GLOBAL indices; a shard world
    /// silently skips events aimed at systems outside its group.
    pub fn apply_chaos(&mut self, ev: &ChaosEvent) {
        let delay = ev.at.saturating_since(self.sim.now());
        match ev.kind {
            ChaosEventKind::Partition { link } => {
                if let Some(l) = self.local_link(link) {
                    self.partition_link(l);
                }
            }
            ChaosEventKind::Heal { link } => {
                if let Some(l) = self.local_link(link) {
                    self.heal_link(l);
                }
            }
            ChaosEventKind::Crash { isp } => {
                if let Some(i) = self.local_isp(isp) {
                    self.inject_isp_timer(i, delay, CRASH_TIMER);
                }
            }
            ChaosEventKind::Recover { isp } => {
                if let Some(i) = self.local_isp(isp) {
                    self.inject_isp_timer(i, delay, RECOVER_TIMER);
                }
            }
            ChaosEventKind::Detach { system } => {
                if let Some(s) = self.local_system(system) {
                    // Anchor the drain at the schedule's instant, not at
                    // the last processed event: the two differ when no
                    // event lands exactly at `ev.at`, and only `ev.at`
                    // is shard-count independent.
                    self.detach_system_at(s, ev.at);
                }
            }
            ChaosEventKind::Attach { system } => {
                if let Some(s) = self.local_system(system) {
                    self.attach_system_at(s, ev.at);
                }
            }
        }
    }

    fn local_link(&self, link: usize) -> Option<usize> {
        let found = self.link_global.iter().position(|&g| g == link);
        assert!(found.is_some() || self.shard, "unknown link {link}");
        found
    }

    fn local_isp(&self, isp: usize) -> Option<usize> {
        let found = self.isp_slot_global.iter().position(|&g| g == isp);
        assert!(
            found.is_some() || self.shard,
            "unknown IS-process slot {isp}"
        );
        found
    }

    fn local_system(&self, system: usize) -> Option<usize> {
        let found = self.sys_global.iter().position(|&g| g == system);
        assert!(found.is_some() || self.shard, "unknown system {system}");
        found
    }

    /// Severs both directions of link `link` atomically: sends after
    /// this instant are dropped at the source (counted in the
    /// `channel.*.partitioned` metrics); messages already in flight
    /// still arrive, and the reliable transport's retransmissions carry
    /// the backlog across the eventual heal. Idempotent.
    pub fn partition_link(&mut self, link: usize) {
        assert!(link < self.links.len(), "unknown link {link}");
        if self.partitioned[link] {
            return;
        }
        self.partitioned[link] = true;
        self.sim.metrics_mut().inc("chaos.partitions");
        let info = self.links[link];
        self.sim.set_link_blocked(
            self.addr.actor_of(info.a_isp),
            self.addr.actor_of(info.b_isp),
            true,
        );
    }

    /// Heals a partitioned link; retransmission timers already pending
    /// on both ends deliver the backlog with no extra kick. Idempotent.
    pub fn heal_link(&mut self, link: usize) {
        assert!(link < self.links.len(), "unknown link {link}");
        if !self.partitioned[link] {
            return;
        }
        self.partitioned[link] = false;
        self.sim.metrics_mut().inc("chaos.heals");
        let info = self.links[link];
        self.sim.set_link_blocked(
            self.addr.actor_of(info.a_isp),
            self.addr.actor_of(info.b_isp),
            false,
        );
    }

    /// Crashes IS-process slot `isp` (system-major order of
    /// [`isp_procs`](Self::isp_procs)) at the current virtual instant.
    pub fn crash_isp(&mut self, isp: usize) {
        self.inject_isp_timer(isp, Duration::ZERO, CRASH_TIMER);
    }

    /// Recovers IS-process slot `isp`; recovery re-arms a *fresh*
    /// resync sweep (a resync interrupted by the crash was discarded,
    /// never merged).
    pub fn recover_isp(&mut self, isp: usize) {
        self.inject_isp_timer(isp, Duration::ZERO, RECOVER_TIMER);
    }

    fn inject_isp_timer(&mut self, isp: usize, delay: Duration, token: u64) {
        let procs = self.isp_procs();
        assert!(isp < procs.len(), "unknown IS-process slot {isp}");
        self.sim
            .inject_timer(self.addr.actor_of(procs[isp]), delay, token);
    }

    /// Detaches a whole system at the current virtual instant: every
    /// incident link whose other endpoint is still attached is torn
    /// down on both ends in lockstep — the link epoch is bumped, queued
    /// and in-flight frames are drained (counted in
    /// `membership.drained_pairs`), and any frame of the old epoch that
    /// arrives later is rejected, not applied. Idempotent — composed
    /// chaos schedules may double-fire.
    pub fn detach_system(&mut self, system: usize) {
        let now = self.sim.now();
        self.detach_system_at(system, now);
    }

    /// [`detach_system`](Self::detach_system) with an explicit instant:
    /// chaos schedules anchor the drain at the event's `at`, which is
    /// identical across serial and sharded runs (the current clock is
    /// merely the last *processed* event and depends on what else the
    /// world contains).
    fn detach_system_at(&mut self, system: usize, at: SimTime) {
        assert!(system < self.systems.len(), "unknown system {system}");
        if !self.sys_attached[system] {
            return;
        }
        self.sys_attached[system] = false;
        self.sim.metrics_mut().inc("membership.detaches");
        let now = at;
        let mut drained = 0u64;
        for l in 0..self.links.len() {
            let Some(other) = self.link_peer_system(l, system) else {
                continue;
            };
            // A link is live only while BOTH endpoint systems are
            // attached; if the other end already left, this link is
            // already down.
            if !self.sys_attached[other] {
                continue;
            }
            drained += self.detach_link_ends(l, now);
        }
        if drained > 0 {
            self.sim
                .metrics_mut()
                .add("membership.drained_pairs", drained);
        }
    }

    /// (Re-)attaches a system: every incident link whose other endpoint
    /// is attached comes online on both ends in lockstep (epoch bump),
    /// and each endpoint IS-process immediately resyncs its full
    /// replica over the live links — the same snapshot-plus-catch-up
    /// path crash recovery uses — before resuming live propagation.
    /// Idempotent.
    pub fn attach_system(&mut self, system: usize) {
        let now = self.sim.now();
        self.attach_system_at(system, now);
    }

    /// [`attach_system`](Self::attach_system) with an explicit instant:
    /// the resync poke timer fires at `at` exactly, shard-count
    /// independently (see [`detach_system_at`](Self::detach_system_at)).
    fn attach_system_at(&mut self, system: usize, at: SimTime) {
        assert!(system < self.systems.len(), "unknown system {system}");
        if self.sys_attached[system] {
            return;
        }
        self.sys_attached[system] = true;
        self.sim.metrics_mut().inc("membership.attaches");
        for l in 0..self.links.len() {
            let Some(other) = self.link_peer_system(l, system) else {
                continue;
            };
            if !self.sys_attached[other] {
                continue; // stays down until the other end attaches too
            }
            self.attach_link_ends(l, at);
        }
    }

    /// Whether system `system` is currently attached.
    pub fn system_attached(&self, system: usize) -> bool {
        self.sys_attached[system]
    }

    /// Whether link `link` is currently partitioned.
    pub fn link_partitioned(&self, link: usize) -> bool {
        self.partitioned[link]
    }

    /// IS-process slots in deterministic system-major order — the index
    /// space compiled chaos schedules use for crash/recover targets.
    pub fn isp_procs(&self) -> Vec<ProcId> {
        self.systems
            .iter()
            .flat_map(|s| s.isp_procs.iter().copied())
            .collect()
    }

    /// The LOCAL system on the far end of link `l` from local system
    /// `system`, if `l` is incident to it. Link endpoints carry global
    /// [`SystemId`]s, so this maps through `sys_global` — for the
    /// serial world that mapping is the identity.
    fn link_peer_system(&self, l: usize, system: usize) -> Option<usize> {
        let (sa, sb) = (
            self.links[l].a_isp.system.index(),
            self.links[l].b_isp.system.index(),
        );
        let me = self.sys_global[system];
        let other = if sa == me {
            sb
        } else if sb == me {
            sa
        } else {
            return None;
        };
        Some(
            self.sys_global
                .iter()
                .position(|&s| s == other)
                .expect("link endpoints live in the same world"),
        )
    }

    fn detach_link_ends(&mut self, l: usize, now: SimTime) -> u64 {
        let info = self.links[l];
        let mut drained = 0u64;
        for (me, peer) in [(info.a_isp, info.b_isp), (info.b_isp, info.a_isp)] {
            let idx = self.local_link_index(me, peer);
            let actor = self.addr.actor_of(me);
            drained += self
                .sim
                .actor_mut::<WorldActor>(actor)
                .expect("world actors are WorldActor")
                .detach_link(idx, now);
        }
        drained
    }

    fn attach_link_ends(&mut self, l: usize, at: SimTime) {
        let info = self.links[l];
        let poke_delay = at.saturating_since(self.sim.now());
        for (me, peer) in [(info.a_isp, info.b_isp), (info.b_isp, info.a_isp)] {
            let idx = self.local_link_index(me, peer);
            let actor = self.addr.actor_of(me);
            self.sim
                .actor_mut::<WorldActor>(actor)
                .expect("world actors are WorldActor")
                .attach_link(idx);
            // The attach armed a resync; poke the actor so the sweep
            // runs at the attach instant instead of waiting for
            // unrelated traffic.
            self.sim.inject_timer(actor, poke_delay, POKE_TIMER);
        }
    }

    fn local_link_index(&mut self, me: ProcId, peer: ProcId) -> usize {
        let actor = self.addr.actor_of(me);
        self.sim
            .actor_mut::<WorldActor>(actor)
            .expect("world actors are WorldActor")
            .isp()
            .expect("link endpoints are IS-processes")
            .links()
            .iter()
            .position(|e| e.peer_isp == peer)
            .expect("peer registered on this IS-process")
    }

    /// The systems of this world.
    pub fn systems(&self) -> &[SystemInfo] {
        &self.systems
    }

    /// The links of this world.
    pub fn links(&self) -> &[LinkInfo] {
        &self.links
    }

    /// Total number of MCS-processes (apps + IS-processes) — the `n + …`
    /// of Section 6's message counts.
    pub fn total_mcs_processes(&self) -> usize {
        self.systems.iter().map(|s| s.mcs_count()).sum()
    }

    /// Number of shared variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &Sim<WorldMsg> {
        &self.sim
    }
}

/// Assembles the final report from one extract per shard group (one
/// total for the serial path). The merge is deterministic and
/// shard-count independent: chunks interleave back into global system
/// order, group-level registries fold in group order (counters and
/// tables add, gauges max, trace/lineage artifacts come from the single
/// group allowed to record them), and the derived end-of-run
/// histograms are computed from the merged logs exactly as the serial
/// extraction always has.
pub(crate) fn assemble_report(extracts: Vec<WorldExtract>, system_names: Vec<String>) -> RunReport {
    let mut chunks: Vec<SystemChunk> = Vec::new();
    let mut events = 0u64;
    let mut stats = TrafficStats::new();
    let mut metrics = MetricsRegistry::new();
    let mut trace: Vec<TraceEntry> = Vec::new();
    let mut transport: Option<(u64, usize)> = None;
    let mut lineage: Option<LineageRecorder> = None;
    let mut monitor: Option<MonitorReport> = None;
    let mut telemetry: Option<TimeSeries> = None;
    for ex in extracts {
        events += ex.events;
        stats.merge(&ex.stats);
        metrics.merge(&ex.metrics);
        trace.extend(ex.trace);
        if let Some((ns, depth)) = ex.transport {
            let t = transport.get_or_insert((0, 0));
            t.0 += ns;
            t.1 = t.1.max(depth);
        }
        lineage = lineage.or(ex.lineage);
        monitor = monitor.or(ex.monitor);
        telemetry = telemetry.or(ex.telemetry);
        chunks.extend(ex.chunks);
    }
    chunks.sort_by_key(|c| c.sys_id);

    let mut streams: Vec<Vec<OpRecord>> = Vec::new();
    let mut updates: BTreeMap<ProcId, Vec<ReplicaUpdate>> = BTreeMap::new();
    let mut responses: BTreeMap<ProcId, Vec<Duration>> = BTreeMap::new();
    let mut system_of = HashMap::new();
    let mut isps: BTreeSet<ProcId> = BTreeSet::new();
    let mut link_sends: Vec<LinkTraffic> = Vec::new();
    for chunk in chunks {
        for p in &chunk.procs {
            system_of.insert(*p, chunk.sys_id);
        }
        isps.extend(chunk.isps.iter().copied());
        streams.extend(chunk.streams);
        updates.extend(chunk.updates);
        responses.extend(chunk.responses);
        link_sends.extend(chunk.link_sends);
    }
    let full = cmi_types::History::merge_streams(streams);

    // End-of-run histograms derived from the merged logs. Observations
    // enter each histogram in an order fixed by the merged data alone —
    // `responses` in process order, visibility in `global.writes()` ×
    // `updates` process order — so however many shards produced the
    // extracts, the registry comes out the same.
    if let Some((degraded_ns, depth)) = transport {
        metrics.add("isp.degraded_time_ns", degraded_ns);
        metrics.gauge_max("isp.send_queue_depth_max", depth as f64);
    }
    for durations in responses.values() {
        for d in durations {
            metrics.observe("protocol.write_response_ns", d.as_nanos() as f64);
        }
    }
    // Visibility latency of every application write, overall and per
    // cross-system direction (Section 6's "time until a value
    // written is visible in any other process").
    let global = full.filtered(|op| !isps.contains(&op.proc));
    let first_applied = FirstApplied::of(&global, &updates);
    let dest_of: Vec<SystemId> = (first_applied.procs().iter())
        .map(|proc| system_of[proc])
        .collect();
    let overall = metrics.key("visibility.latency_ns");
    // One histogram per ordered system pair, its name resolved the first
    // time the pair is seen.
    let n_systems = system_names.len();
    let mut direction: Vec<Option<MetricId>> = vec![None; n_systems * n_systems];
    for (id, row) in first_applied.rows() {
        let op = global.op(id);
        let origin = system_of[&op.proc];
        for (&dest, at) in dest_of.iter().zip(row) {
            let Some(at) = at else { continue };
            let lat = at.saturating_since(op.at).as_nanos() as f64;
            metrics.observe_id(overall, lat);
            if dest != origin {
                let slot = &mut direction[origin.index() * n_systems + dest.index()];
                let pair = *slot.get_or_insert_with(|| {
                    metrics.key(&format!("visibility.{origin}->{dest}.latency_ns"))
                });
                metrics.observe_id(pair, lat);
            }
        }
    }

    let mut report = RunReport::new(
        full,
        RunOutcome::Quiescent { events },
        stats,
        metrics,
        system_of,
        system_names,
        isps,
        updates,
        responses,
        link_sends,
        trace,
    );
    if let Some(lineage) = lineage {
        report.set_lineage(lineage);
    }
    if let Some(monitor) = monitor {
        report.set_monitor(monitor);
    }
    if let Some(telemetry) = telemetry {
        report.set_telemetry(telemetry);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmi_memory::ProtocolKind;

    fn spec(name: &str, n: usize) -> SystemSpec {
        SystemSpec::new(name, ProtocolKind::Ahamad, n)
    }

    #[test]
    fn empty_builder_fails() {
        assert_eq!(
            InterconnectBuilder::new().build(0).err(),
            Some(BuildError::NoSystems)
        );
    }

    #[test]
    fn empty_system_fails() {
        let mut b = InterconnectBuilder::new();
        b.add_system(spec("A", 0));
        assert_eq!(
            b.build(0).err(),
            Some(BuildError::EmptySystem { system: 0 })
        );
    }

    #[test]
    fn self_link_fails() {
        let mut b = InterconnectBuilder::new();
        let a = b.add_system(spec("A", 2));
        b.link(a, a, LinkSpec::new(Duration::from_millis(1)));
        assert_eq!(b.build(0).err(), Some(BuildError::SelfLink { system: 0 }));
    }

    #[test]
    fn duplicate_link_fails() {
        let mut b = InterconnectBuilder::new();
        let a = b.add_system(spec("A", 2));
        let c = b.add_system(spec("B", 2));
        b.link(a, c, LinkSpec::new(Duration::from_millis(1)));
        b.link(c, a, LinkSpec::new(Duration::from_millis(1)));
        assert_eq!(
            b.build(0).err(),
            Some(BuildError::DuplicateLink { systems: (0, 1) })
        );
    }

    #[test]
    fn processes_past_the_u16_id_space_fail() {
        // 65 535 application processes plus one IS slot fill the id
        // space exactly; one more process does not fit.
        for (n, fits) in [(MAX_SYSTEM_PROCS - 1, true), (MAX_SYSTEM_PROCS, false)] {
            let mut b = InterconnectBuilder::new();
            let a = b.add_system(spec("A", n));
            let c = b.add_system(spec("B", 2));
            b.link(a, c, LinkSpec::new(Duration::from_millis(1)));
            let err = b.layout().err();
            assert_eq!(err.is_none(), fits, "{n}: {err:?}");
        }
    }

    #[test]
    fn cyclic_topology_fails() {
        let mut b = InterconnectBuilder::new();
        let a = b.add_system(spec("A", 2));
        let c = b.add_system(spec("B", 2));
        let d = b.add_system(spec("C", 2));
        b.link(a, c, LinkSpec::new(Duration::from_millis(1)));
        b.link(c, d, LinkSpec::new(Duration::from_millis(1)));
        b.link(d, a, LinkSpec::new(Duration::from_millis(1)));
        assert_eq!(b.build(0).err(), Some(BuildError::CyclicTopology));
    }

    #[test]
    fn overlapping_crash_windows_of_one_isp_fail() {
        let ms = Duration::from_millis;
        let world = |topology: IsTopology| {
            let mut b = InterconnectBuilder::new().with_topology(topology);
            let hub = b.add_system(spec("hub", 1));
            for leaf in ["x", "y"] {
                let h = b.add_system(spec(leaf, 1));
                let window = if leaf == "x" {
                    (ms(50), ms(150))
                } else {
                    (ms(100), ms(200))
                };
                b.link(hub, h, LinkSpec::new(ms(3)).with_crash_at_a(&[window]));
            }
            b.build(0).err()
        };
        // Pairwise: one IS-process per link end, each on its own schedule.
        assert_eq!(world(IsTopology::Pairwise), None);
        // Shared: the hub's one IS-process would crash twice at once.
        assert_eq!(
            world(IsTopology::Shared),
            Some(BuildError::OverlappingCrashWindows {
                system: 0,
                first: (ms(50), ms(150)),
                second: (ms(100), ms(200)),
            })
        );
        // The same overlap on one link end fails under either topology.
        let mut b = InterconnectBuilder::new();
        let (a, c) = (b.add_system(spec("a", 1)), b.add_system(spec("c", 1)));
        let windows = [(ms(10), ms(30)), (ms(20), ms(40))];
        b.link(a, c, LinkSpec::new(ms(3)).with_crash(&windows));
        assert!(matches!(
            b.build(0).err(),
            Some(BuildError::OverlappingCrashWindows { system: 1, .. })
        ));
    }

    #[test]
    fn pairwise_layout_adds_one_isp_per_link_end() {
        let mut b = InterconnectBuilder::new();
        let a = b.add_system(spec("A", 3));
        let c = b.add_system(spec("B", 2));
        let d = b.add_system(spec("C", 2));
        // Chain A – B – C: B hosts two IS-processes in pairwise mode.
        b.link(a, c, LinkSpec::new(Duration::from_millis(1)));
        b.link(c, d, LinkSpec::new(Duration::from_millis(1)));
        let world = b.build(1).unwrap();
        assert_eq!(world.systems()[0].isp_procs.len(), 1);
        assert_eq!(world.systems()[1].isp_procs.len(), 2);
        assert_eq!(world.systems()[2].isp_procs.len(), 1);
        // n + 2(m−1) MCS processes: 7 apps + 4 isps.
        assert_eq!(world.total_mcs_processes(), 11);
        assert_eq!(world.links().len(), 2);
    }

    #[test]
    fn shared_layout_adds_one_isp_per_system() {
        let mut b = InterconnectBuilder::new().with_topology(IsTopology::Shared);
        let a = b.add_system(spec("A", 3));
        let c = b.add_system(spec("B", 2));
        let d = b.add_system(spec("C", 2));
        b.link(a, c, LinkSpec::new(Duration::from_millis(1)));
        b.link(c, d, LinkSpec::new(Duration::from_millis(1)));
        let world = b.build(1).unwrap();
        for s in world.systems() {
            assert_eq!(s.isp_procs.len(), 1);
        }
        // n + m: 7 apps + 3 isps.
        assert_eq!(world.total_mcs_processes(), 10);
    }

    #[test]
    fn standalone_system_has_no_isps() {
        let mut b = InterconnectBuilder::new();
        b.add_system(spec("solo", 4));
        let world = b.build(1).unwrap();
        assert!(world.systems()[0].isp_procs.is_empty());
        assert_eq!(world.total_mcs_processes(), 4);
    }

    #[test]
    #[should_panic(expected = "run once")]
    fn double_run_panics() {
        let mut b = InterconnectBuilder::new();
        b.add_system(spec("A", 2));
        let mut world = b.build(1).unwrap();
        let _ = world.run(&WorkloadSpec::small());
        let _ = world.run(&WorkloadSpec::small());
    }

    #[test]
    fn groups_are_connected_components_keyed_by_smallest_member() {
        let mut b = InterconnectBuilder::new();
        let a = b.add_system(spec("A", 2));
        b.add_system(spec("B", 2));
        let c = b.add_system(spec("C", 2));
        b.add_system(spec("D", 2));
        b.link(a, c, LinkSpec::new(Duration::from_millis(1)));
        let layout = b.layout().unwrap();
        assert_eq!(b.plan_groups(&layout), vec![vec![0, 2], vec![1], vec![3]]);
    }

    #[test]
    fn jittered_components_coalesce_into_one_group() {
        let mut b = InterconnectBuilder::new();
        let mut s0 = spec("A", 2);
        s0.intra.jitter = Duration::from_micros(5);
        b.add_system(s0);
        let mut s1 = spec("B", 2);
        s1.intra.jitter = Duration::from_micros(5);
        b.add_system(s1);
        b.add_system(spec("C", 2));
        let layout = b.layout().unwrap();
        // A and B share the jitter stream; C is independent.
        assert_eq!(b.plan_groups(&layout), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn observability_artifacts_force_a_single_group() {
        let mut b = InterconnectBuilder::new();
        b.add_system(spec("A", 2));
        b.add_system(spec("B", 2));
        b.enable_trace();
        let layout = b.layout().unwrap();
        assert_eq!(b.plan_groups(&layout), vec![vec![0, 1]]);
    }

    /// The visibility histograms as `assemble_report` filled them before
    /// it resolved one id per system pair: a name formatted and looked
    /// up for every (write, process) pair.
    fn visibility_by_name(report: &RunReport) -> MetricsRegistry {
        let mut metrics = MetricsRegistry::new();
        let global = report.global_history();
        for (id, wv) in global.writes().into_iter().zip(report.write_visibility()) {
            let origin = report.system_of(global.op(id).proc).unwrap();
            for (proc, at) in &wv.visible_at {
                let lat = at.saturating_since(wv.issued_at).as_nanos() as f64;
                metrics.observe("visibility.latency_ns", lat);
                let dest = report.system_of(*proc).unwrap();
                if dest != origin {
                    metrics.observe(&format!("visibility.{origin}->{dest}.latency_ns"), lat);
                }
            }
        }
        metrics
    }

    fn assert_visibility_matches_by_name(report: &RunReport, directions: usize) {
        let by_name = visibility_by_name(report);
        let got: Vec<_> = (report.metrics().histograms())
            .filter(|(name, _)| name.starts_with("visibility."))
            .collect();
        assert_eq!(got, by_name.histograms().collect::<Vec<_>>());
        assert_eq!(got.len(), 1 + directions);
    }

    #[test]
    fn visibility_histograms_match_the_by_name_loop_on_a_three_system_chain() {
        let mut b = InterconnectBuilder::new().with_vars(3);
        let a = b.add_system(spec("A", 3));
        let c = b.add_system(SystemSpec::new("B", ProtocolKind::Frontier, 2));
        let d = b.add_system(spec("C", 2));
        b.link(a, c, LinkSpec::new(Duration::from_millis(3)));
        b.link(c, d, LinkSpec::new(Duration::from_millis(5)));
        let report = b.build(0x5EED).unwrap().run(&WorkloadSpec::small());
        assert_visibility_matches_by_name(&report, 6);
    }

    #[test]
    fn visibility_histograms_match_the_by_name_loop_on_sharded_islands() {
        let mut b = InterconnectBuilder::new().with_vars(2);
        for pair in 0..4 {
            let a = b.add_system(spec(&format!("A{pair}"), 2));
            let c = b.add_system(SystemSpec::new(
                format!("B{pair}"),
                ProtocolKind::Frontier,
                2,
            ));
            b.link(a, c, LinkSpec::new(Duration::from_millis(2 + pair)));
        }
        let mut world = b.build_sharded(0x5EED, 2).unwrap();
        assert_eq!(world.groups().len(), 4);
        let report = world.run(&WorkloadSpec::small());
        // Two directions per island, none across islands.
        assert_visibility_matches_by_name(&report, 8);
    }
}
