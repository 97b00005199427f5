//! The simulator actor of an interconnected world: one MCS-process, its
//! attached application or IS-process, and the plumbing between them.
//!
//! A [`WorldActor`] is the parts every node shares (the host, the
//! address book, the metric ids) plus one role. An application node
//! holds its workload driver. An IS node holds the paper's
//! [`IsProcess`], its crash and resync state, and one `LinkState` per
//! link it serves: that link's transport, membership epoch, causal
//! metadata counters and X14 batch.

use std::any::Any;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use cmi_memory::{Driver, HostSink, McsMsg, NoUpcalls, NodeHost, OpPlan, UpcallHandler};
use cmi_obs::{LineageRecorder, MetricId, MetricsRegistry, SpanId};
use cmi_sim::{Actor, ActorId, Ctx};
use cmi_types::{ProcId, SimTime, Value, VarId};

use crate::isp::{IsFault, IsProcess, OutPair};
use crate::msg::{FrameMeta, WorldMsg};
use crate::transport::{OutFrame, ReliableConfig, ReliableReceiver, ReliableSender, TimeoutAction};

// Timer keys are namespaced: class in the high 32 bits, index in the
// low 32. Class 0 (control) carries the singleton tokens below as
// indices — numerically identical to their raw values, so externally
// injected timers (the chaos orchestrator's CRASH/RECOVER/POKE) need no
// translation. Class 1 carries the per-link retransmission timers, one
// key per link index: the old flat `BASE + link` arithmetic shared one
// number line with the control tokens, which at hundreds of links is a
// collision waiting for the next constant added above the base. The
// namespace keeps every class disjoint by construction.

/// Timer token: workload driver tick.
pub(crate) const OP_TIMER: u64 = 0;
/// Timer token: reorder-fault flush.
pub(crate) const FLUSH_TIMER: u64 = 1;
/// Timer token: X14 batching flush.
pub(crate) const BATCH_TIMER: u64 = 2;
/// Timer token: scripted IS-process crash.
pub(crate) const CRASH_TIMER: u64 = 3;
/// Timer token: scripted IS-process restart.
pub(crate) const RECOVER_TIMER: u64 = 4;
/// Timer token: harness poke. A chaos orchestrator that mutates actor
/// state between run segments (attach, out-of-band recovery) injects
/// this so the actor observes the change with a live context — a
/// pending resync must not wait for unrelated traffic to arrive.
pub(crate) const POKE_TIMER: u64 = 5;

/// Bits of a timer key holding the index; the class lives above them.
pub(crate) const TIMER_CLASS_SHIFT: u32 = 32;
/// Timer class of the singleton control tokens (raw values 0..=5).
pub(crate) const TIMER_CLASS_CONTROL: u64 = 0;
/// Timer class of the per-link retransmission timers (index = link).
pub(crate) const TIMER_CLASS_RETX: u64 = 1;

// Compile-time disjointness: every control token must fit the index
// space of class 0 (so `timer_key(CONTROL, token) == token`), and the
// classes must differ — a retransmission key can never equal a control
// token, at any link count.
const _: () = {
    assert!(OP_TIMER < 1 << TIMER_CLASS_SHIFT);
    assert!(FLUSH_TIMER < 1 << TIMER_CLASS_SHIFT);
    assert!(BATCH_TIMER < 1 << TIMER_CLASS_SHIFT);
    assert!(CRASH_TIMER < 1 << TIMER_CLASS_SHIFT);
    assert!(RECOVER_TIMER < 1 << TIMER_CLASS_SHIFT);
    assert!(POKE_TIMER < 1 << TIMER_CLASS_SHIFT);
    assert!(TIMER_CLASS_CONTROL != TIMER_CLASS_RETX);
};

/// Packs a `(class, index)` pair into one timer token.
pub(crate) fn timer_key(class: u64, index: u64) -> u64 {
    debug_assert!(
        index < 1 << TIMER_CLASS_SHIFT,
        "timer index {index} overflows its class"
    );
    (class << TIMER_CLASS_SHIFT) | index
}

/// Splits a timer token back into its `(class, index)` pair.
pub(crate) fn timer_parts(token: u64) -> (u64, u64) {
    (
        token >> TIMER_CLASS_SHIFT,
        token & ((1 << TIMER_CLASS_SHIFT) - 1),
    )
}

/// Reliable transport state of one link end (sender + receiver halves
/// and the armed retransmit deadline, used to ignore stale timers).
struct LinkTransport {
    tx: ReliableSender,
    rx: ReliableReceiver,
    deadline: Option<SimTime>,
}

/// Everything an IS node keeps for one of its links: the transport,
/// membership, causal metadata and X14 batching state of that link.
#[derive(Default)]
pub(crate) struct LinkState {
    /// Reliable transport (`None` = the paper's raw reliable-FIFO
    /// channel).
    reliable: Option<LinkTransport>,
    /// `false` while either endpoint system is detached. An inactive
    /// link neither sends nor accepts traffic.
    active: bool,
    /// Membership epoch, bumped on every detach *and* attach (both
    /// endpoints bump together — membership changes are control-plane
    /// events applied to both ends at the same virtual instant). Frames
    /// and acks are stamped with it; in-flight traffic from a detached
    /// epoch is rejected on arrival, never applied.
    epoch: u64,
    /// Cumulative pairs shipped (first transmissions only); the
    /// [`FrameMeta::O1`] counter.
    sent_pairs: u64,
    /// Per-origin-system ship counts; the [`FrameMeta::Clocked`] vector.
    clock: Vec<u64>,
    /// Cumulative pairs delivered (receiver side).
    delivered: u64,
    /// High-water mark of the metadata counters observed; the delivery
    /// condition checks `delivered ≤ high` on every delivery.
    meta_high: u64,
    /// Pairs waiting for the next X14 batch flush.
    batch: Vec<(VarId, Value)>,
}

impl LinkState {
    /// A link end over `reliable` (or raw), live or detached from the
    /// start, in a world of `n_systems` systems. A link that starts
    /// detached stays at epoch 0, which never carries a frame: the first
    /// attach moves both ends to 1.
    pub(crate) fn new(reliable: Option<ReliableConfig>, active: bool, n_systems: usize) -> Self {
        LinkState {
            reliable: reliable.map(|cfg| LinkTransport {
                tx: ReliableSender::new(cfg),
                rx: ReliableReceiver::new(),
                deadline: None,
            }),
            active,
            clock: vec![0; n_systems],
            ..LinkState::default()
        }
    }
}

/// Bidirectional process ↔ actor address book, shared by every actor of
/// a world.
#[derive(Debug, Default)]
pub struct AddressBook {
    by_proc: HashMap<ProcId, ActorId>,
    by_actor: HashMap<ActorId, ProcId>,
}

impl AddressBook {
    /// Registers a pair.
    pub fn insert(&mut self, proc: ProcId, actor: ActorId) {
        self.by_proc.insert(proc, actor);
        self.by_actor.insert(actor, proc);
    }

    /// Actor hosting `proc`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` was never registered (harness bug).
    pub fn actor_of(&self, proc: ProcId) -> ActorId {
        *self
            .by_proc
            .get(&proc)
            .unwrap_or_else(|| panic!("no actor registered for {proc}"))
    }

    /// Process hosted by `actor`.
    ///
    /// # Panics
    ///
    /// Panics if `actor` was never registered (harness bug).
    pub fn proc_of(&self, actor: ActorId) -> ProcId {
        *self
            .by_actor
            .get(&actor)
            .unwrap_or_else(|| panic!("no process registered for {actor}"))
    }
}

/// Every protocol/ISP counter the world actor touches while handling an
/// event, interned once in `on_start` so the per-event path records by
/// index and never formats or hashes a metric name.
#[derive(Debug, Clone, Copy)]
struct CoreMetricIds {
    updates_propagated: MetricId,
    writes_issued: MetricId,
    causal_wait_stalls: MetricId,
    updates_applied: MetricId,
    link_pairs_sent: MetricId,
    propagate_in: MetricId,
    propagate_out: MetricId,
    retransmits: MetricId,
    rto_backoffs: MetricId,
    frames_abandoned: MetricId,
    pairs_abandoned: MetricId,
    degraded_coalesced: MetricId,
    degraded_flushes: MetricId,
    corrupt_rejected: MetricId,
    dedup_drops: MetricId,
    acks: MetricId,
    crashes: MetricId,
    recoveries: MetricId,
    resync_pairs: MetricId,
    pairs_lost_in_crash: MetricId,
    recv_dropped_crashed: MetricId,
    abandoned_pairs: MetricId,
    partition_sheds: MetricId,
    stale_epoch_rejected: MetricId,
    frames_o1: MetricId,
    frames_clocked: MetricId,
    meta_bytes_o1: MetricId,
    meta_bytes_clocked: MetricId,
    meta_violations: MetricId,
}

impl CoreMetricIds {
    fn resolve(metrics: &mut MetricsRegistry) -> Self {
        CoreMetricIds {
            updates_propagated: metrics.key("protocol.updates_propagated"),
            writes_issued: metrics.key("protocol.writes_issued"),
            causal_wait_stalls: metrics.key("protocol.causal_wait_stalls"),
            updates_applied: metrics.key("protocol.updates_applied"),
            link_pairs_sent: metrics.key("isp.link_pairs_sent"),
            propagate_in: metrics.key("isp.propagate_in"),
            propagate_out: metrics.key("isp.propagate_out"),
            retransmits: metrics.key("isp.retransmits"),
            rto_backoffs: metrics.key("isp.rto_backoffs"),
            frames_abandoned: metrics.key("isp.frames_abandoned"),
            pairs_abandoned: metrics.key("isp.pairs_abandoned"),
            degraded_coalesced: metrics.key("isp.degraded_coalesced"),
            degraded_flushes: metrics.key("isp.degraded_flushes"),
            corrupt_rejected: metrics.key("isp.corrupt_rejected"),
            dedup_drops: metrics.key("isp.dedup_drops"),
            acks: metrics.key("isp.acks"),
            crashes: metrics.key("isp.crashes"),
            recoveries: metrics.key("isp.recoveries"),
            resync_pairs: metrics.key("isp.resync_pairs"),
            pairs_lost_in_crash: metrics.key("isp.pairs_lost_in_crash"),
            recv_dropped_crashed: metrics.key("isp.recv_dropped_crashed"),
            abandoned_pairs: metrics.key("transport.abandoned_pairs"),
            partition_sheds: metrics.key("isp.partition_sheds"),
            stale_epoch_rejected: metrics.key("isp.stale_epoch_rejected"),
            frames_o1: metrics.key("isp.frames_o1"),
            frames_clocked: metrics.key("isp.frames_clocked"),
            meta_bytes_o1: metrics.key("isp.meta_bytes_o1"),
            meta_bytes_clocked: metrics.key("isp.meta_bytes_clocked"),
            meta_violations: metrics.key("isp.meta_violations"),
        }
    }
}

/// [`HostSink`] over a simulator context and the shared address book.
struct WorldSink<'a, 'b> {
    ctx: &'a mut Ctx<'b, WorldMsg>,
    addr: &'a AddressBook,
    ids: CoreMetricIds,
}

impl HostSink for WorldSink<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn send_mcs(&mut self, to: ProcId, msg: McsMsg) {
        let actor = self.addr.actor_of(to);
        self.ctx.metrics().inc_id(self.ids.updates_propagated);
        self.ctx.send(actor, WorldMsg::Mcs(msg));
    }

    fn note(&mut self, text: String) {
        self.ctx.note(text);
    }

    fn tracing(&self) -> bool {
        self.ctx.tracing()
    }

    fn lineage(&mut self) -> Option<(&mut LineageRecorder, ProcId)> {
        let me = self.addr.proc_of(self.ctx.me());
        self.ctx.lineage().map(|lin| (lin, me))
    }
}

impl WorldSink<'_, '_> {
    /// Hands `host` an MCS message from `from` and counts the updates
    /// it buffered and applied.
    fn deliver(
        &mut self,
        host: &mut NodeHost,
        from: ActorId,
        m: McsMsg,
        upcalls: &mut dyn UpcallHandler,
    ) {
        let buffered_before = host.buffered();
        let applied_before = host.updates().len();
        host.on_mcs_message(self.addr.proc_of(from), m, self, upcalls);
        let buffered_after = host.buffered();
        if buffered_after > buffered_before {
            let stalls = (buffered_after - buffered_before) as u64;
            self.ctx
                .metrics()
                .add_id(self.ids.causal_wait_stalls, stalls);
        }
        let applied_after = host.updates().len();
        if applied_after > applied_before {
            let applied = (applied_after - applied_before) as u64;
            self.ctx.metrics().add_id(self.ids.updates_applied, applied);
        }
    }
}

/// Rejects a timer token no handler owns.
fn unknown_timer(token: u64) -> ! {
    let (class, index) = timer_parts(token);
    panic!("unknown timer token: class {class} index {index}")
}

/// One node of an interconnected world: the hosted MCS-process, the
/// address book and metric ids every node shares, and the node's role.
pub struct WorldActor {
    host: NodeHost,
    addr: Rc<AddressBook>,
    /// Pre-resolved metric ids (`None` until `on_start` interns them).
    ids: Option<CoreMetricIds>,
    role: Role,
}

/// What a node is attached to: an application process or an
/// IS-process.
enum Role {
    App(AppNode),
    Is(IsNode),
}

/// An application node: the workload driver and its progress.
#[derive(Default)]
struct AppNode {
    driver: Option<Driver>,
    /// The op fetched from the driver, waiting for its think-time timer.
    pending_plan: Option<OpPlan>,
    /// A blocking write call is outstanding; the driver resumes when the
    /// protocol completes it.
    waiting_completion: bool,
    /// Operations already streamed to the run tap (watermark).
    ops_fed: usize,
}

/// The build-time settings of an IS node.
pub(crate) struct IsSettings {
    /// X14 batching: outgoing pairs accumulate per link and flush as one
    /// message per window (in order — Lemma 1's send order is
    /// preserved, only delayed). `None` = one message per pair.
    pub(crate) batch_window: Option<Duration>,
    /// Scripted `(down_at, up_at)` crash windows, ordered and disjoint.
    pub(crate) crash_windows: Vec<(Duration, Duration)>,
    /// Shared-variable count, swept by the restart/attach resync.
    pub(crate) n_vars: usize,
    /// Every frame ships [`FrameMeta::Clocked`] regardless of windows
    /// (the differential-test reference path).
    pub(crate) force_clocked: bool,
}

/// An IS node: the paper's IS-process, its crash and resync state, and
/// one [`LinkState`] per link it serves (same order as `isp.links()`).
struct IsNode {
    isp: IsProcess,
    links: Vec<LinkState>,
    settings: IsSettings,
    /// An X14 batch-flush timer is armed.
    batch_scheduled: bool,
    /// A reorder-fault flush timer is armed.
    flush_scheduled: bool,
    /// The IS-process is currently down.
    crashed: bool,
    /// A restart or attach happened; resync from the MCS replica as soon
    /// as no operation is in flight.
    resync_pending: bool,
    /// Frames ship with explicit-clock metadata while true: set by
    /// attach/recover, cleared when the resync sweep completes (the
    /// Nédelec-style fallback window; see [`FrameMeta`]).
    meta_clocked: bool,
}

impl WorldActor {
    /// An application node (its driver is installed before the run).
    pub(crate) fn app(host: NodeHost, addr: Rc<AddressBook>) -> Self {
        WorldActor {
            host,
            addr,
            ids: None,
            role: Role::App(AppNode::default()),
        }
    }

    /// An IS node running `isp` over `links` (same order as
    /// `isp.links()`).
    pub(crate) fn is_node(
        host: NodeHost,
        addr: Rc<AddressBook>,
        isp: IsProcess,
        links: Vec<LinkState>,
        settings: IsSettings,
    ) -> Self {
        debug_assert_eq!(links.len(), isp.links().len(), "one state per link");
        WorldActor {
            host,
            addr,
            ids: None,
            role: Role::Is(IsNode {
                isp,
                links,
                settings,
                batch_scheduled: false,
                flush_scheduled: false,
                crashed: false,
                resync_pending: false,
                meta_clocked: false,
            }),
        }
    }

    /// The interned metric ids (available from `on_start` onwards).
    fn ids(&self) -> CoreMetricIds {
        self.ids.expect("metric ids resolved in on_start")
    }

    /// The IS node, for the membership calls of the world orchestrator.
    fn is_node_mut(&mut self) -> &mut IsNode {
        match &mut self.role {
            Role::Is(node) => node,
            Role::App(_) => panic!("membership changes apply to IS-process nodes"),
        }
    }

    /// Total nanoseconds this node's reliable senders spent in degraded
    /// (coalescing) mode, and the high-water mark of their send queues.
    /// `None` if no reliable transport is configured.
    pub fn transport_totals(&self, now: SimTime) -> Option<(u64, usize)> {
        let Role::Is(node) = &self.role else {
            return None;
        };
        let mut totals = None;
        for t in node.links.iter().filter_map(|l| l.reliable.as_ref()) {
            let (ns, depth) = totals.get_or_insert((0u64, 0usize));
            *ns += t.tx.degraded_ns_at(now);
            *depth = (*depth).max(t.tx.max_depth());
        }
        totals
    }

    /// Runtime detach of link `link` (this end). Called by the world
    /// orchestrator on *both* endpoint actors at the same virtual
    /// instant. In-flight frames are abandoned cleanly: the reliable
    /// sender drops its retransmission queue and degraded backlog
    /// (keeping its seq counter), the receiver resets, the pending
    /// batch for the link is dropped, and the epoch bump rejects
    /// whatever was still on the wire. Returns how many queued pairs
    /// were drained.
    ///
    /// # Panics
    ///
    /// Panics on application nodes, or if the link is already detached
    /// — membership events must alternate (the chaos compiler
    /// guarantees this).
    pub fn detach_link(&mut self, link: usize, now: SimTime) -> u64 {
        let state = &mut self.is_node_mut().links[link];
        assert!(state.active, "detach of a detached link");
        state.active = false;
        state.epoch += 1;
        // A resync armed before this detach targeted the old epoch; a
        // future attach re-arms a fresh sweep against the new one.
        let mut drained = 0u64;
        if let Some(t) = state.reliable.as_mut() {
            drained += t.tx.crash(now) as u64;
            t.rx = ReliableReceiver::new();
            t.deadline = None;
        }
        drained + std::mem::take(&mut state.batch).len() as u64
    }

    /// Runtime attach of link `link` (this end). Bumps the epoch (in
    /// lockstep with the peer's end) and arms the replica resync: as
    /// soon as the host is free, the IS-process re-reads every variable
    /// and re-sends the current snapshot — the same path a crash
    /// recovery uses, so the joining system catches up and then
    /// switches to live propagation. The orchestrator follows up with a
    /// [`POKE_TIMER`] so the resync is not stranded waiting for
    /// unrelated traffic.
    ///
    /// # Panics
    ///
    /// Panics on application nodes, or if the link is already attached.
    pub fn attach_link(&mut self, link: usize) {
        let node = self.is_node_mut();
        let state = &mut node.links[link];
        assert!(!state.active, "attach of an attached link");
        state.active = true;
        state.epoch += 1;
        node.resync_pending = true;
        // The membership change opens the explicit-clock window: the
        // constant-size delivery condition assumes a stable tree, so
        // frames fall back to full clocks until the resync completes.
        node.meta_clocked = true;
    }

    /// Installs the workload driver (before the first `run`).
    ///
    /// # Panics
    ///
    /// Panics on IS-process nodes — IS-processes only propagate.
    pub fn set_driver(&mut self, driver: Driver) {
        match &mut self.role {
            Role::App(app) => app.driver = Some(driver),
            Role::Is(_) => panic!("IS-processes do not run workloads"),
        }
    }

    /// The hosted MCS-process + bookkeeping.
    pub fn host(&self) -> &NodeHost {
        &self.host
    }

    /// Mutable host access (history extraction).
    pub fn host_mut(&mut self) -> &mut NodeHost {
        &mut self.host
    }

    /// The IS-process state, if this node hosts one.
    pub fn isp(&self) -> Option<&IsProcess> {
        match &self.role {
            Role::Is(node) => Some(&node.isp),
            Role::App(_) => None,
        }
    }
}

impl AppNode {
    fn fetch_and_schedule(&mut self, ctx: &mut Ctx<'_, WorldMsg>) {
        let Some(driver) = self.driver.as_mut() else {
            return;
        };
        if let Some((gap, plan)) = driver.next() {
            self.pending_plan = Some(plan);
            ctx.schedule(gap, OP_TIMER);
        }
    }

    /// The think-time timer fired: issue the pending op.
    fn on_op_timer(&mut self, host: &mut NodeHost, sink: &mut WorldSink<'_, '_>) {
        let Some(plan) = self.pending_plan.take() else {
            return;
        };
        match plan {
            OpPlan::Read(var) => {
                host.issue_read(var, sink, &mut NoUpcalls);
            }
            OpPlan::Write(var, val) => {
                sink.ctx.metrics().inc_id(sink.ids.writes_issued);
                host.issue_write(var, val, sink, &mut NoUpcalls);
            }
        }
        if host.op_in_flight() {
            self.waiting_completion = true;
        } else {
            self.fetch_and_schedule(sink.ctx);
        }
        self.resume(host, sink.ctx);
    }

    /// Resumes the workload driver after a write completion.
    fn resume(&mut self, host: &NodeHost, ctx: &mut Ctx<'_, WorldMsg>) {
        if self.waiting_completion && !host.op_in_flight() {
            self.waiting_completion = false;
            self.fetch_and_schedule(ctx);
        }
    }

    /// Streams newly recorded application operations to the run tap.
    /// The online causal checker watches the application history (the
    /// `global_history` every offline check runs on), so IS-process
    /// nodes — whose `Propagate_in` writes are protocol plumbing, not
    /// application ops — feed nothing. One branch when no tap is
    /// installed.
    fn feed_tap(&mut self, host: &NodeHost, ctx: &mut Ctx<'_, WorldMsg>) {
        let n = host.ops().len();
        if n == self.ops_fed {
            return;
        }
        let t0 = ctx.profiling().then(std::time::Instant::now);
        if let Some(tap) = ctx.tap() {
            for rec in &host.ops()[self.ops_fed..] {
                tap.op(rec);
            }
        }
        self.ops_fed = n;
        if let Some(t0) = t0 {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ctx.record_span(SpanId::MonitorTap, ns);
        }
    }
}

/// An IS node handling one event, with the parts of its actor every
/// node shares borrowed alongside.
struct IsHandler<'a> {
    host: &'a mut NodeHost,
    addr: &'a AddressBook,
    ids: CoreMetricIds,
    node: &'a mut IsNode,
}

impl IsHandler<'_> {
    /// Logs `pairs` as sent on link `link` and records them in the
    /// lineage (`retx` marks a retransmission; no lineage record when
    /// lineage is disabled).
    fn log_sent(
        &mut self,
        link: usize,
        pairs: &[(VarId, Value)],
        retx: bool,
        ctx: &mut Ctx<'_, WorldMsg>,
    ) {
        let to = self.node.isp.links()[link].peer_isp;
        let me = self.host.proc();
        let now = ctx.now();
        for &(var, val) in pairs {
            self.node.isp.log_sent(to, var, val, now);
            if let Some(lin) = ctx.lineage() {
                let (u, at) = (val.update_id(), now.as_nanos());
                if retx {
                    lin.retransmitted(u, me.system.0, me.index, to.system.0, at);
                } else {
                    lin.frame_sent(u, me.system.0, me.index, to.system.0, at);
                }
            }
        }
    }

    /// Puts `pairs` on raw link `link` — one `LinkBatch` message when
    /// `batched`, else one `Link` message per pair — and counts, logs
    /// and lineage-records every pair.
    fn send_raw(
        &mut self,
        link: usize,
        pairs: &[(VarId, Value)],
        batched: bool,
        ctx: &mut Ctx<'_, WorldMsg>,
    ) {
        let peer = self.node.isp.links()[link].peer_actor;
        ctx.metrics()
            .add_id(self.ids.link_pairs_sent, pairs.len() as u64);
        if batched {
            ctx.send(peer, WorldMsg::LinkBatch(pairs.to_vec()));
        } else {
            for &(var, val) in pairs {
                ctx.send(peer, WorldMsg::Link { var, val });
            }
        }
        self.log_sent(link, pairs, false, ctx);
    }

    /// Transmits each pair on every link except the pair's source link,
    /// and logs it. With X14 batching the pairs accumulate per link and
    /// go out together at the next batch flush; on a reliable link the
    /// pairs travel together in one transport frame.
    fn send_pairs(&mut self, pairs: &[OutPair], ctx: &mut Ctx<'_, WorldMsg>) {
        let n_links = self.node.links.len();
        let batching = self.node.settings.batch_window.is_some();
        for pair in pairs {
            for i in 0..n_links {
                let state = &mut self.node.links[i];
                if Some(i) == pair.except || !state.active {
                    continue;
                }
                if batching {
                    state.batch.push((pair.var, pair.val));
                } else if state.reliable.is_none() {
                    self.send_raw(i, &[(pair.var, pair.val)], false, ctx);
                }
                // Reliable links are framed below, link-major.
            }
        }
        if batching {
            self.arm_batch_timer(ctx);
            return;
        }
        for i in 0..n_links {
            let state = &self.node.links[i];
            if state.reliable.is_none() || !state.active {
                continue;
            }
            let link_pairs: Vec<(VarId, Value)> = pairs
                .iter()
                .filter(|p| p.except != Some(i))
                .map(|p| (p.var, p.val))
                .collect();
            if !link_pairs.is_empty() {
                self.offer_on_link(i, link_pairs, ctx);
            }
        }
    }

    /// Arms the X14 batch-flush timer if pairs wait and it is not armed.
    fn arm_batch_timer(&mut self, ctx: &mut Ctx<'_, WorldMsg>) {
        let Some(window) = self.node.settings.batch_window else {
            return;
        };
        let pending = self.node.links.iter().any(|l| !l.batch.is_empty());
        if pending && !self.node.batch_scheduled {
            self.node.batch_scheduled = true;
            ctx.schedule(window, BATCH_TIMER);
        }
    }

    /// Flushes every non-empty per-link batch as one `LinkBatch`
    /// message (or one transport frame on a reliable link).
    fn flush_batches(&mut self, ctx: &mut Ctx<'_, WorldMsg>) {
        for i in 0..self.node.links.len() {
            let state = &mut self.node.links[i];
            if !state.active {
                // Nothing accumulates for a detached link (enqueue is
                // gated too); whatever was pending died with the detach.
                continue;
            }
            let batch = std::mem::take(&mut state.batch);
            if batch.is_empty() {
                continue;
            }
            if state.reliable.is_some() {
                self.offer_on_link(i, batch, ctx);
            } else {
                self.send_raw(i, &batch, true, ctx);
            }
        }
    }

    /// The reliable transport of link `link`.
    fn transport(&mut self, link: usize) -> &mut LinkTransport {
        self.node.links[link]
            .reliable
            .as_mut()
            .expect("transport call on a raw link (mismatched LinkSpec.reliable?)")
    }

    /// Hands pairs to link `i`'s reliable sender: either a frame goes
    /// out now, or the sender is degraded and coalesces them for later.
    fn offer_on_link(
        &mut self,
        link: usize,
        pairs: Vec<(VarId, Value)>,
        ctx: &mut Ctx<'_, WorldMsg>,
    ) {
        let now = ctx.now();
        let n_pairs = pairs.len() as u64;
        let ids = self.ids;
        match self.transport(link).tx.offer(pairs, now) {
            Some(frame) => {
                ctx.metrics().add_id(ids.link_pairs_sent, n_pairs);
                self.ship_frame(link, frame, false, ctx);
            }
            None => {
                ctx.metrics().add_id(ids.degraded_coalesced, n_pairs);
                let shed = self.transport(link).tx.take_shed();
                if shed > 0 {
                    ctx.metrics().add_id(ids.partition_sheds, shed);
                    ctx.note_with(|| format!("backlog cap: shed {shed} oldest pairs"));
                }
            }
        }
    }

    /// Puts a frame on the wire (`retx` distinguishes a retransmission
    /// from a first transmission) and makes sure the retransmit timer is
    /// armed.
    fn ship_frame(
        &mut self,
        link: usize,
        frame: OutFrame,
        retx: bool,
        ctx: &mut Ctx<'_, WorldMsg>,
    ) {
        let ids = self.ids;
        let clocked = self.node.settings.force_clocked || self.node.meta_clocked;
        let state = &mut self.node.links[link];
        // First transmissions advance the metadata counters; a
        // retransmission re-reads them (its counters are ≥ the
        // original's, which the receiver's `≤ high-water` check
        // tolerates by construction).
        if !retx {
            state.sent_pairs += frame.pairs.len() as u64;
            for &(_, val) in &frame.pairs {
                let origin = usize::from(val.origin().system.0);
                if let Some(slot) = state.clock.get_mut(origin) {
                    *slot += 1;
                }
            }
        }
        let meta = if clocked {
            ctx.metrics().inc_id(ids.frames_clocked);
            FrameMeta::Clocked {
                clock: state.clock.clone(),
            }
        } else {
            ctx.metrics().inc_id(ids.frames_o1);
            FrameMeta::O1 {
                sent: state.sent_pairs,
            }
        };
        let epoch = state.epoch;
        let bytes = if meta.is_clocked() {
            ids.meta_bytes_clocked
        } else {
            ids.meta_bytes_o1
        };
        ctx.metrics().add_id(bytes, meta.wire_bytes());
        self.log_sent(link, &frame.pairs, retx, ctx);
        ctx.send(
            self.node.isp.links()[link].peer_actor,
            WorldMsg::Frame {
                seq: frame.seq,
                lo: frame.lo,
                pairs: frame.pairs,
                checksum: frame.checksum,
                epoch,
                meta,
            },
        );
        self.arm_retx_timer(link, ctx);
    }

    /// Arms the retransmission timer for link `i` if it is not armed:
    /// current (backed-off) timeout plus uniform jitter.
    fn arm_retx_timer(&mut self, link: usize, ctx: &mut Ctx<'_, WorldMsg>) {
        let t = self.transport(link);
        if t.deadline.is_some() {
            return;
        }
        let base = t.tx.current_timeout();
        let frac = t.tx.config().jitter_frac;
        let jitter = if frac > 0.0 {
            // Same rounding as `Duration::mul_f64`, but saturating: a
            // backed-off timeout near `Duration::MAX` must not panic.
            Duration::try_from_secs_f64(base.as_secs_f64() * (frac * ctx.rng().gen_range(0.0..1.0)))
                .unwrap_or(Duration::MAX)
        } else {
            Duration::ZERO
        };
        let delay = base.saturating_add(jitter);
        self.transport(link).deadline = Some(ctx.now() + delay);
        let index = u64::try_from(link).expect("link index fits a timer key");
        ctx.schedule(delay, timer_key(TIMER_CLASS_RETX, index));
    }

    /// The retransmit timer for link `i` fired.
    fn on_retx_timer(&mut self, link: usize, ctx: &mut Ctx<'_, WorldMsg>) {
        let (crashed, ids) = (self.node.crashed, self.ids);
        let t = self.transport(link);
        if t.deadline != Some(ctx.now()) {
            return; // Stale timer from before an ack or a crash.
        }
        t.deadline = None;
        if crashed {
            return;
        }
        let was_backed_off = t.tx.current_timeout() > t.tx.config().rto;
        match t.tx.on_timeout(ctx.now()) {
            TimeoutAction::Idle => {}
            TimeoutAction::Retransmit(frame) => {
                ctx.metrics().inc_id(ids.retransmits);
                if was_backed_off {
                    ctx.metrics().inc_id(ids.rto_backoffs);
                }
                ctx.note_with(|| format!("retransmit frame #{}", frame.seq));
                self.ship_frame(link, frame, true, ctx);
            }
            TimeoutAction::Abandoned { lost_pairs, next } => {
                ctx.metrics().inc_id(ids.frames_abandoned);
                ctx.metrics().add_id(ids.pairs_abandoned, lost_pairs as u64);
                ctx.metrics().add_id(ids.abandoned_pairs, lost_pairs as u64);
                eprintln!(
                    "[transport] {}: retry cap hit on link {link} — abandoned {lost_pairs} \
                     pairs, lo-watermark skips the gap",
                    self.host.proc()
                );
                ctx.note_with(|| format!("retry cap hit: abandoned {lost_pairs} pairs"));
                if let Some(frame) = next {
                    ctx.metrics().inc_id(ids.retransmits);
                    self.ship_frame(link, frame, true, ctx);
                }
            }
        }
    }

    /// Passes a received pair to `Propagate_in`, or queues it behind
    /// the IS-process's blocked write call (FIFO order preserved).
    /// Returns whether it was propagated now.
    fn receive_pair(
        &mut self,
        link: usize,
        var: VarId,
        val: Value,
        ctx: &mut Ctx<'_, WorldMsg>,
    ) -> bool {
        if self.host.write_in_flight() {
            ctx.metrics().inc_id(self.ids.causal_wait_stalls);
            self.node.isp.defer_incoming(link, var, val);
            false
        } else {
            self.propagate_in(link, var, val, ctx);
            true
        }
    }

    /// An incoming transport frame on link `link`.
    #[allow(clippy::too_many_arguments)]
    fn on_frame(
        &mut self,
        link: usize,
        seq: u64,
        lo: u64,
        pairs: Vec<(VarId, Value)>,
        checksum: u64,
        meta: FrameMeta,
        ctx: &mut Ctx<'_, WorldMsg>,
    ) {
        // The receiver consumes the pairs; keep a copy for the lineage
        // record in case the frame turns out to be a duplicate (only
        // when lineage is on — disabled runs never clone).
        let dup_pairs = ctx.lineage().is_some().then(|| pairs.clone());
        let ids = self.ids;
        let outcome = self.transport(link).rx.on_frame(seq, lo, pairs, checksum);
        if outcome.corrupt {
            // No ack: silence makes the sender retransmit an intact copy.
            ctx.metrics().inc_id(ids.corrupt_rejected);
            ctx.note_with(|| format!("rejected damaged frame #{seq}"));
            return;
        }
        // Delivery condition: the metadata counters are cumulative, so
        // the highest value seen on the link bounds what may legally be
        // delivered (a frame released from the receiver's reorder
        // buffer was covered by the counter of the frame that filled
        // the gap — hence a high-water mark, not a per-frame equality).
        let observed = match &meta {
            FrameMeta::O1 { sent } => *sent,
            FrameMeta::Clocked { clock } => clock.iter().sum(),
        };
        let end = self.node.isp.links()[link];
        let state = &mut self.node.links[link];
        state.meta_high = state.meta_high.max(observed);
        if outcome.duplicate {
            ctx.metrics().inc_id(ids.dedup_drops);
            if let Some(dup) = dup_pairs {
                let from_system = end.peer_isp.system.0;
                let me = self.host.proc();
                let at = ctx.now().as_nanos();
                if let Some(lin) = ctx.lineage() {
                    for (_, val) in dup {
                        lin.dedup_dropped(val.update_id(), me.system.0, me.index, from_system, at);
                    }
                }
            }
        }
        if let Some(cum) = outcome.ack {
            ctx.metrics().inc_id(ids.acks);
            ctx.send(
                end.peer_actor,
                WorldMsg::Ack {
                    cum,
                    epoch: state.epoch,
                },
            );
        }
        state.delivered += outcome.deliver.len() as u64;
        if state.delivered > state.meta_high {
            // More pairs delivered than any sender counter accounts
            // for: the delivery condition is violated (harness bug or
            // metadata regression, never expected in a correct run).
            ctx.metrics().inc_id(ids.meta_violations);
            debug_assert!(
                false,
                "delivery condition violated on link {link}: delivered {} > high {}",
                state.delivered, state.meta_high
            );
        }
        // Released pairs behave exactly like an in-order batch.
        for (var, val) in outcome.deliver {
            self.receive_pair(link, var, val, ctx);
        }
        self.post_actions(ctx);
    }

    /// An incoming cumulative ack on link `link`.
    fn on_transport_ack(&mut self, link: usize, cum: u64, ctx: &mut Ctx<'_, WorldMsg>) {
        let now = ctx.now();
        let t = self.transport(link);
        let (acked, flush) = t.tx.on_ack(cum, now);
        if acked > 0 {
            // Restart the retransmission timer from the ack: the old
            // deadline belongs to an already-acked frame, and letting it
            // fire would retransmit a still-fresh head (spurious resends
            // on a busy fault-free link). The stale-deadline check
            // retires the old timer event.
            t.deadline = None;
            if t.tx.in_flight() > 0 {
                self.arm_retx_timer(link, ctx);
            }
            if let Some(frame) = flush {
                let ids = self.ids;
                ctx.metrics().inc_id(ids.degraded_flushes);
                ctx.metrics()
                    .add_id(ids.link_pairs_sent, frame.pairs.len() as u64);
                ctx.note_with(|| format!("degraded backlog flushed as frame #{}", frame.seq));
                self.ship_frame(link, frame, false, ctx);
            }
        }
    }

    /// Scripted crash: volatile IS-process state dies — unacked frames,
    /// the degraded backlog, pending batches, stashes and deferred
    /// incoming pairs — while the MCS replica (the memory itself)
    /// survives. Incoming link traffic is dropped until restart.
    fn crash(&mut self, ctx: &mut Ctx<'_, WorldMsg>) {
        let node = &mut *self.node;
        if node.crashed {
            return; // Composed chaos schedules may double-fire.
        }
        node.crashed = true;
        ctx.metrics().inc_id(self.ids.crashes);
        ctx.note("IS-process crashed".to_string());
        // A resync that was armed but has not swept yet dies with the
        // crash: its snapshot would mix pre- and post-crash state, and
        // any frames it already queued are destroyed below. Recovery
        // re-arms a *fresh* sweep, so a half-applied resync is always
        // discarded and restarted, never merged.
        node.resync_pending = false;
        node.meta_clocked = false;
        let now = ctx.now();
        let mut lost = 0u64;
        for state in &mut node.links {
            if let Some(t) = state.reliable.as_mut() {
                lost += t.tx.crash(now) as u64;
                t.deadline = None;
            }
            lost += std::mem::take(&mut state.batch).len() as u64;
        }
        lost += node.isp.take_ready().len() as u64;
        while node.isp.flush_reordered().is_some() {
            lost += 1;
        }
        while node.isp.next_deferred().is_some() {
            lost += 1;
        }
        if lost > 0 {
            ctx.metrics().add_id(self.ids.pairs_lost_in_crash, lost);
        }
    }

    /// Scripted restart: mark the resync and run it as soon as the host
    /// is free (the MCS replica survived, so the IS-process re-reads
    /// every variable — forging the causal links, the paper's trick —
    /// and re-sends the current values to its peers).
    fn recover(&mut self, ctx: &mut Ctx<'_, WorldMsg>) {
        if !self.node.crashed {
            return; // Composed chaos schedules may double-fire.
        }
        self.node.crashed = false;
        ctx.metrics().inc_id(self.ids.recoveries);
        ctx.note("IS-process restarted".to_string());
        self.node.resync_pending = true;
        self.node.meta_clocked = true;
        self.post_actions(ctx);
    }

    /// The restart resync sweep.
    fn resync(&mut self, ctx: &mut Ctx<'_, WorldMsg>) {
        let ids = self.ids;
        let (addr, mut pairs) = (self.addr, Vec::new());
        for v in 0..self.node.settings.n_vars {
            let var = VarId(u32::try_from(v).expect("variable index fits u32"));
            let mut sink = WorldSink { ctx, addr, ids };
            self.host.issue_read(var, &mut sink, &mut self.node.isp);
            if let Some(val) = self.host.peek(var) {
                pairs.push((var, val));
            }
        }
        if pairs.is_empty() {
            return;
        }
        let active_links = self.node.links.iter().filter(|l| l.active).count();
        if active_links == 0 {
            return;
        }
        ctx.metrics()
            .add_id(ids.resync_pairs, (pairs.len() * active_links) as u64);
        ctx.note_with(|| format!("resync: re-sent {} pairs per link", pairs.len()));
        for i in 0..self.node.links.len() {
            let state = &self.node.links[i];
            if !state.active {
                continue;
            }
            if state.reliable.is_some() {
                self.offer_on_link(i, pairs.clone(), ctx);
            } else {
                self.send_raw(i, &pairs, false, ctx);
            }
        }
    }

    /// Propagate_in: issues the local causal write for a received pair.
    /// The forward to the other links (shared topology) is released when
    /// the write *applies* — see [`IsProcess::begin_forward`] — so the
    /// wire order equals the replica-update order (Lemma 1).
    fn propagate_in(&mut self, link: usize, var: VarId, val: Value, ctx: &mut Ctx<'_, WorldMsg>) {
        let ids = self.ids;
        ctx.metrics().inc_id(ids.propagate_in);
        ctx.note_with(|| format!("Propagate_in({var},{val})"));
        // Register the update's arrival in this system (and its hop
        // count) before the write's apply events are recorded.
        let from_system = self.node.isp.links()[link].peer_isp.system.0;
        let me = self.host.proc();
        let at = ctx.now().as_nanos();
        if let Some(lin) = ctx.lineage() {
            lin.remote_written(val.update_id(), me.system.0, me.index, from_system, at);
        }
        let addr = self.addr;
        let mut sink = WorldSink { ctx, addr, ids };
        self.node.isp.begin_forward(link, var, val);
        self.host
            .issue_write(var, val, &mut sink, &mut self.node.isp);
    }

    /// Arms the reorder-fault flush timer if pairs are stashed and it is
    /// not armed.
    fn arm_flush_timer(&mut self, ctx: &mut Ctx<'_, WorldMsg>) {
        if let IsFault::ReorderBatch { window } = self.node.isp.fault() {
            if self.node.isp.stash_len() > 0 && !self.node.flush_scheduled {
                self.node.flush_scheduled = true;
                ctx.schedule(window, FLUSH_TIMER);
            }
        }
    }

    /// Drains `Propagate_out` pairs produced during the last host call
    /// and arms the reorder-fault flush timer if needed.
    fn flush_ready(&mut self, ctx: &mut Ctx<'_, WorldMsg>) {
        let ready = self.node.isp.take_ready();
        if self.node.crashed {
            // The replica keeps applying updates, but the crashed
            // IS-process cannot propagate them; the restart resync
            // re-reads the replica and covers the loss.
            if !ready.is_empty() {
                ctx.metrics()
                    .add_id(self.ids.pairs_lost_in_crash, ready.len() as u64);
            }
            return;
        }
        if !ready.is_empty() {
            ctx.metrics()
                .add_id(self.ids.propagate_out, ready.len() as u64);
            self.send_pairs(&ready, ctx);
        }
        self.arm_flush_timer(ctx);
    }

    /// Everything that must happen after the host processed an event:
    /// flush Propagate_out pairs, drain deferred incoming pairs, run an
    /// armed resync once the host is free.
    fn post_actions(&mut self, ctx: &mut Ctx<'_, WorldMsg>) {
        self.flush_ready(ctx);
        while !self.node.crashed && !self.host.write_in_flight() {
            let Some((link, var, val)) = self.node.isp.next_deferred() else {
                break;
            };
            self.propagate_in(link, var, val, ctx);
            self.flush_ready(ctx);
        }
        if self.node.resync_pending && !self.node.crashed && !self.host.op_in_flight() {
            self.node.resync_pending = false;
            self.resync(ctx);
            // The resync snapshot went out under explicit clocks;
            // the tree is consistent again — back to O(1) metadata.
            self.node.meta_clocked = false;
        }
    }

    /// The receive guard every link message passes: a crashed node
    /// drops it, the sender's link is looked up, and traffic on a
    /// detached link or from another epoch is rejected, never applied.
    /// `epoch` is the message's stamp (`None` on raw links, which carry
    /// none, so membership itself gates them); `pairs` weighs a
    /// rejection in `stale_epoch_rejected`. Returns the link of an
    /// accepted message.
    fn accept(
        &mut self,
        from: ActorId,
        epoch: Option<u64>,
        pairs: usize,
        ctx: &mut Ctx<'_, WorldMsg>,
    ) -> Option<usize> {
        if self.node.crashed {
            ctx.metrics().inc_id(self.ids.recv_dropped_crashed);
            return None;
        }
        let link = self
            .node
            .isp
            .link_from_actor(from)
            .unwrap_or_else(|| panic!("link message from unknown actor {from}"));
        let state = &self.node.links[link];
        if !state.active || epoch.is_some_and(|e| e != state.epoch) {
            ctx.metrics()
                .add_id(self.ids.stale_epoch_rejected, pairs as u64);
            return None;
        }
        Some(link)
    }

    /// Handles one message; `false` if the receive guard rejected it.
    fn on_message(&mut self, from: ActorId, msg: WorldMsg, ctx: &mut Ctx<'_, WorldMsg>) -> bool {
        match msg {
            WorldMsg::Mcs(m) => {
                let (addr, ids) = (self.addr, self.ids);
                WorldSink { ctx, addr, ids }.deliver(self.host, from, m, &mut self.node.isp);
                self.post_actions(ctx);
            }
            WorldMsg::Link { var, val } => {
                let Some(link) = self.accept(from, None, 1, ctx) else {
                    return false;
                };
                if self.receive_pair(link, var, val, ctx) {
                    self.post_actions(ctx);
                }
            }
            WorldMsg::LinkBatch(pairs) => {
                let Some(link) = self.accept(from, None, pairs.len(), ctx) else {
                    return false;
                };
                // Process in batch order; once a Propagate_in write
                // blocks, the rest defer behind it (order preserved).
                for (var, val) in pairs {
                    self.receive_pair(link, var, val, ctx);
                }
                self.post_actions(ctx);
            }
            WorldMsg::Frame {
                seq,
                lo,
                pairs,
                checksum,
                epoch,
                meta,
            } => {
                let Some(link) = self.accept(from, Some(epoch), 1, ctx) else {
                    // A crashed node sends no ack: the peer keeps
                    // retransmitting and refills the gap after the
                    // restart. A stale frame is not acked either: the
                    // sender of that epoch is gone.
                    if !self.node.crashed {
                        ctx.note_with(|| format!("rejected frame #{seq} from stale epoch {epoch}"));
                    }
                    return false;
                };
                self.on_frame(link, seq, lo, pairs, checksum, meta, ctx);
            }
            WorldMsg::Ack { cum, epoch } => {
                let Some(link) = self.accept(from, Some(epoch), 1, ctx) else {
                    return false;
                };
                self.on_transport_ack(link, cum, ctx);
            }
        }
        true
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, WorldMsg>) {
        match timer_parts(token) {
            (TIMER_CLASS_CONTROL, CRASH_TIMER) => self.crash(ctx),
            (TIMER_CLASS_CONTROL, RECOVER_TIMER) => self.recover(ctx),
            (TIMER_CLASS_CONTROL, POKE_TIMER) => {
                // Harness poke after out-of-band surgery (attach):
                // observe the new state with a live context so an armed
                // resync runs now instead of waiting for traffic.
                if !self.node.crashed {
                    self.post_actions(ctx);
                }
            }
            (TIMER_CLASS_CONTROL, BATCH_TIMER) => {
                self.node.batch_scheduled = false;
                if self.node.crashed {
                    return; // Buffers were drained by the crash.
                }
                self.flush_batches(ctx);
                self.arm_batch_timer(ctx);
            }
            (TIMER_CLASS_CONTROL, FLUSH_TIMER) => {
                self.node.flush_scheduled = false;
                if self.node.crashed {
                    return;
                }
                if let Some(pair) = self.node.isp.flush_reordered() {
                    ctx.note("reorder-fault send (newest-first)".to_string());
                    self.send_pairs(&[pair], ctx);
                }
                self.arm_flush_timer(ctx);
            }
            (TIMER_CLASS_RETX, link) => {
                let link = usize::try_from(link).expect("retx timer index fits usize");
                self.on_retx_timer(link, ctx);
            }
            _ => unknown_timer(token),
        }
    }
}

impl Actor<WorldMsg> for WorldActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, WorldMsg>) {
        // Intern every counter name this actor will ever touch; the ids
        // are shared across actors because the registry deduplicates.
        // Interned-but-untouched names never appear in snapshots.
        self.ids = Some(CoreMetricIds::resolve(ctx.metrics()));
        match &mut self.role {
            Role::App(app) => app.fetch_and_schedule(ctx),
            Role::Is(node) => {
                for &(down, up) in &node.settings.crash_windows {
                    ctx.schedule(down, CRASH_TIMER);
                    ctx.schedule(up, RECOVER_TIMER);
                }
            }
        }
    }

    fn on_message(&mut self, from: ActorId, msg: WorldMsg, ctx: &mut Ctx<'_, WorldMsg>) {
        // Span profiling mirrors `feed_tap`'s placement: a message the
        // receive guard rejects (crashed / stale epoch) does negligible
        // work and records nothing, exactly as it feeds nothing.
        let t0 = ctx.profiling().then(std::time::Instant::now);
        let span = match &msg {
            WorldMsg::Mcs(_) => SpanId::ProtocolStep,
            _ => SpanId::Transport,
        };
        let record_span = |ctx: &mut Ctx<'_, WorldMsg>| {
            if let Some(t0) = t0 {
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                ctx.record_span(span, ns);
            }
        };
        let ids = self.ids();
        let addr: &AddressBook = &self.addr;
        match &mut self.role {
            Role::App(app) => {
                let WorldMsg::Mcs(m) = msg else {
                    panic!("link message from actor {from} at an application node");
                };
                WorldSink { ctx, addr, ids }.deliver(&mut self.host, from, m, &mut NoUpcalls);
                app.resume(&self.host, ctx);
                record_span(ctx);
                app.feed_tap(&self.host, ctx);
            }
            Role::Is(node) => {
                let mut handler = IsHandler {
                    host: &mut self.host,
                    addr,
                    ids,
                    node,
                };
                if handler.on_message(from, msg, ctx) {
                    record_span(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, WorldMsg>) {
        let ids = self.ids();
        let addr: &AddressBook = &self.addr;
        match &mut self.role {
            Role::App(app) => {
                if timer_parts(token) != (TIMER_CLASS_CONTROL, OP_TIMER) {
                    unknown_timer(token);
                }
                let mut sink = WorldSink { ctx, addr, ids };
                app.on_op_timer(&mut self.host, &mut sink);
                app.feed_tap(&self.host, ctx);
            }
            Role::Is(node) => IsHandler {
                host: &mut self.host,
                addr,
                ids,
                node,
            }
            .on_timer(token, ctx),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isp::{IsFault, IsVariant, LinkEnd};
    use cmi_memory::ProtocolKind;
    use cmi_types::SystemId;

    fn book() -> AddressBook {
        let mut b = AddressBook::default();
        b.insert(ProcId::new(SystemId(0), 0), ActorId(0));
        b.insert(ProcId::new(SystemId(1), 0), ActorId(1));
        b
    }

    #[test]
    fn address_book_round_trips() {
        let b = book();
        let p = ProcId::new(SystemId(1), 0);
        assert_eq!(b.actor_of(p), ActorId(1));
        assert_eq!(b.proc_of(ActorId(0)), ProcId::new(SystemId(0), 0));
    }

    #[test]
    #[should_panic(expected = "no actor registered")]
    fn unknown_proc_panics() {
        book().actor_of(ProcId::new(SystemId(9), 9));
    }

    #[test]
    #[should_panic(expected = "no process registered")]
    fn unknown_actor_panics() {
        book().proc_of(ActorId(42));
    }

    fn isp_actor() -> WorldActor {
        let host = NodeHost::new(ProtocolKind::Ahamad.instantiate(SystemId(0), 1, 2, 2));
        let isp = IsProcess::new(
            IsVariant::PostOnly,
            IsFault::None,
            vec![LinkEnd {
                peer_isp: ProcId::new(SystemId(1), 1),
                peer_actor: ActorId(3),
            }],
        );
        WorldActor::is_node(
            host,
            Rc::new(book()),
            isp,
            vec![LinkState::new(None, true, 2)],
            IsSettings {
                batch_window: None,
                crash_windows: Vec::new(),
                n_vars: 2,
                force_clocked: false,
            },
        )
    }

    #[test]
    #[should_panic(expected = "IS-processes do not run workloads")]
    fn driver_on_isp_panics() {
        let mut actor = isp_actor();
        actor.set_driver(Driver::Scripted(cmi_memory::ScriptedDriver::new([])));
    }

    #[test]
    fn isp_accessors_expose_state() {
        let actor = isp_actor();
        assert!(actor.isp().is_some());
        assert_eq!(actor.isp().unwrap().links().len(), 1);
        assert_eq!(actor.host().proc(), ProcId::new(SystemId(0), 1));
    }

    #[test]
    fn timer_keys_round_trip_and_stay_disjoint_past_256_links() {
        // Every control token decodes as class 0 with itself as index…
        for token in [
            OP_TIMER,
            FLUSH_TIMER,
            BATCH_TIMER,
            CRASH_TIMER,
            RECOVER_TIMER,
            POKE_TIMER,
        ] {
            assert_eq!(timer_parts(token), (TIMER_CLASS_CONTROL, token));
            assert_eq!(timer_key(TIMER_CLASS_CONTROL, token), token);
        }
        // …and no retransmission key for any link — far past 256 —
        // ever lands in the control class. The flat `BASE + link`
        // scheme this replaces broke exactly here.
        for link in 0..=4096u64 {
            let key = timer_key(TIMER_CLASS_RETX, link);
            let (class, index) = timer_parts(key);
            assert_eq!((class, index), (TIMER_CLASS_RETX, link));
            assert_ne!(class, TIMER_CLASS_CONTROL, "link {link} collided");
        }
    }

    #[test]
    #[should_panic(expected = "unknown timer token")]
    fn foreign_timer_class_panics() {
        use cmi_sim::{NetworkTag, RunLimit, SimBuilder};
        // Class 9 exists in no namespace; the dispatcher must reject
        // it loudly instead of treating it as a link index.
        let mut b: SimBuilder<WorldMsg> = SimBuilder::new(7);
        let id = b.add_actor(Box::new(isp_actor()), NetworkTag(0));
        let mut sim = b.build();
        sim.inject_timer(id, std::time::Duration::from_millis(1), timer_key(9, 3));
        sim.run(RunLimit::unlimited());
    }
}
