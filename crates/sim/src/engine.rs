//! The discrete-event engine: event queue, scheduler and world assembly.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use cmi_obs::{
    LineageRecorder, MetricId, MetricsRegistry, SpanId, SpanStats, TelemetryConfig, TimeSeries,
};
use cmi_types::SimTime;

use crate::actor::{Actor, ActorId, Ctx};
use crate::channel::{ChannelCounters, ChannelSpec, ChannelState};
use crate::rng::{derive_rng, derive_seed, SplitMix64};
use crate::sched::CalendarQueue;
use crate::stats::{NetworkTag, SendCounts, TrafficStats};
use crate::tap::RunTap;
use crate::trace::{TraceEntry, TraceKind, TraceSink};

/// What should stop a [`Sim::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimit {
    /// Do not process events scheduled after this instant.
    pub max_time: Option<SimTime>,
    /// Process at most this many events in this call.
    pub max_events: Option<u64>,
}

impl RunLimit {
    /// Run until no events remain (quiescence).
    pub fn unlimited() -> Self {
        RunLimit {
            max_time: None,
            max_events: None,
        }
    }

    /// Run until quiescent or until the next event would be after `t`.
    pub fn until(t: SimTime) -> Self {
        RunLimit {
            max_time: Some(t),
            max_events: None,
        }
    }

    /// Run until quiescent or until `n` events have been processed.
    pub fn events(n: u64) -> Self {
        RunLimit {
            max_time: None,
            max_events: Some(n),
        }
    }
}

/// Why a [`Sim::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Quiescent {
        /// Events processed during this call.
        events: u64,
    },
    /// The next pending event lies beyond the time limit.
    TimeLimit {
        /// Events processed during this call.
        events: u64,
    },
    /// The per-call event budget was exhausted.
    EventLimit {
        /// Events processed during this call.
        events: u64,
    },
}

impl RunOutcome {
    /// `true` if the run drained the queue.
    pub fn is_quiescent(self) -> bool {
        matches!(self, RunOutcome::Quiescent { .. })
    }

    /// Events processed during the call.
    pub fn events(self) -> u64 {
        match self {
            RunOutcome::Quiescent { events }
            | RunOutcome::TimeLimit { events }
            | RunOutcome::EventLimit { events } => events,
        }
    }
}

enum EventPayload<M> {
    Message { from: ActorId, to: ActorId, msg: M },
    Timer { actor: ActorId, token: u64 },
}

/// Damages a message in place when the channel injects corruption; the
/// RNG is seeded from the channel's own fault stream so the damage
/// replays deterministically.
pub type Corrupter<M> = Box<dyn FnMut(&mut M, &mut SplitMix64)>;

/// The engine's own counters, interned once at build time so the event
/// loop records them by index instead of by name.
#[derive(Debug, Clone, Copy)]
struct EngineIds {
    messages_sent: MetricId,
    payload_units: MetricId,
    crossings: MetricId,
    events_dispatched: MetricId,
    timer_fires: MetricId,
    queue_depth_max: MetricId,
}

impl EngineIds {
    fn resolve(metrics: &mut MetricsRegistry) -> Self {
        EngineIds {
            messages_sent: metrics.key("engine.messages_sent"),
            payload_units: metrics.key("engine.payload_units"),
            crossings: metrics.key("engine.crossings"),
            events_dispatched: metrics.key("engine.events_dispatched"),
            timer_fires: metrics.key("engine.timer_fires"),
            queue_depth_max: metrics.key("engine.queue_depth_max"),
        }
    }
}

/// Engine internals shared with [`Ctx`]; not part of the public API.
pub(crate) struct Engine<M> {
    pub(crate) now: SimTime,
    queue: CalendarQueue<EventPayload<M>>,
    seq: u64,
    /// Dense channel states, indexed by the adjacency table.
    channels: Vec<ChannelState>,
    /// Per-sender adjacency rows `(to, channel index)`, sorted by `to` —
    /// resolved once at build so the send path never hashes.
    adjacency: Vec<Vec<(u32, u32)>>,
    /// Local → global actor identity (identity unless the world is a
    /// shard of a larger one); stats, traces, channel metric names and
    /// RNG streams all use the global id so a shard reproduces the
    /// serial world's output byte-for-byte.
    global: Vec<ActorId>,
    /// Queue-depth class per local actor (all 0 unless set); the
    /// `engine.queue_depth_max` gauge tracks the per-class maximum so
    /// serial and sharded runs agree (max across shards).
    depth_class: Vec<u32>,
    /// Live pending-event count per depth class.
    class_depth: Vec<u64>,
    pub(crate) actor_rngs: Vec<SplitMix64>,
    jitter_rng: SplitMix64,
    corrupter: Option<Corrupter<M>>,
    /// Sends counted per dense channel index since the last fold; every
    /// `Sim::run` call ends by folding them into `stats`.
    sends: SendCounts,
    stats: TrafficStats,
    metrics: MetricsRegistry,
    ids: EngineIds,
    trace: Option<Vec<TraceEntry>>,
    lineage: Option<LineageRecorder>,
    tap: Option<Box<dyn RunTap>>,
    /// Lineage events already streamed to the tap (watermark).
    lineage_fed: usize,
    sinks: Vec<Box<dyn TraceSink>>,
    /// Flight-recorder telemetry (`None` = disabled, the default: one
    /// branch per event, no sampling state allocated).
    telemetry: Option<Box<TimeSeries>>,
    /// Wall-clock span profiling of engine phases; enabled together
    /// with telemetry, never written into the deterministic timeline.
    spans: Option<Box<SpanStats>>,
}

impl<M: fmt::Debug + Clone> Engine<M> {
    // AUDIT:HOT-BEGIN — event-loop send/push path: metric access only by
    // interned id, no formatting, no hashing, no per-event allocation.
    fn push(&mut self, at: SimTime, payload: EventPayload<M>) {
        let seq = self.seq;
        self.seq += 1;
        let target = match &payload {
            EventPayload::Message { to, .. } => to.index(),
            EventPayload::Timer { actor, .. } => actor.index(),
        };
        let class = self.depth_class[target];
        self.class_depth[class as usize] += 1;
        self.queue.push(at.as_nanos(), seq, class, payload);
    }

    /// Dense-table channel lookup: linear scan for the short rows that
    /// dominate real topologies, binary search above that.
    fn channel_index(&self, from: ActorId, to: ActorId) -> Option<usize> {
        let row = self.adjacency.get(from.index())?;
        if row.len() <= 8 {
            row.iter()
                .find(|&&(t, _)| t == to.0)
                .map(|&(_, i)| i as usize)
        } else {
            row.binary_search_by_key(&to.0, |&(t, _)| t)
                .ok()
                .map(|p| row[p].1 as usize)
        }
    }

    pub(crate) fn send(&mut self, from: ActorId, to: ActorId, msg: M) {
        let ci = self
            .channel_index(from, to)
            .unwrap_or_else(|| panic!("no channel {from} → {to} registered in the topology"));
        let channel = &mut self.channels[ci];
        if channel.blocked {
            // Partitioned: the send is discarded at the send instant
            // (messages already in flight still arrive). No RNG stream is
            // touched, so healing resumes the exact unpartitioned draws.
            let counters = channel
                .counters
                .expect("channel counters resolved at build");
            self.metrics.inc_id(counters.partitioned);
            return;
        }
        let jitter = if channel.spec.jitter.is_zero() {
            Duration::ZERO
        } else {
            let max = u64::try_from(channel.spec.jitter.as_nanos()).expect("jitter too large");
            Duration::from_nanos(self.jitter_rng.gen_range(0..max))
        };
        let plan = channel.plan(self.now, jitter);
        let counters = channel
            .counters
            .expect("channel counters resolved at build");
        if plan.dropped {
            self.metrics.inc_id(counters.dropped);
            return;
        }
        if plan.duplicated {
            self.metrics.inc_id(counters.duplicated);
        }
        if plan.reordered {
            self.metrics.inc_id(counters.reordered);
        }
        let mut msg = msg;
        if plan.corrupted {
            self.metrics.inc_id(counters.corrupted);
            if let Some(corrupter) = self.corrupter.as_mut() {
                let mut damage_rng = SplitMix64::seed_from_u64(plan.corrupt_seed);
                corrupter(&mut msg, &mut damage_rng);
            }
        }
        let payload_units = std::mem::size_of_val(&msg) as u64;
        let deliveries = plan.deliveries.as_slice();
        let last = deliveries.len() - 1;
        let mut remaining = Some(msg);
        for (i, &delivery) in deliveries.iter().enumerate() {
            let m = if i == last {
                remaining.take().expect("one message per delivery list")
            } else {
                remaining.as_ref().expect("clone before the move").clone()
            };
            self.count_send(ci, payload_units);
            if self.tracing() {
                self.trace_sent(from, to, delivery, &m);
            }
            self.push(delivery, EventPayload::Message { from, to, msg: m });
        }
    }

    /// Scalar per-send accounting shared by originals and duplicates,
    /// by the dense index of the channel `send` already resolved.
    fn count_send(&mut self, ci: usize, payload_units: u64) {
        let crosses = self.sends.on_send(ci);
        self.metrics.inc_id(self.ids.messages_sent);
        self.metrics.add_id(self.ids.payload_units, payload_units);
        if crosses {
            self.metrics.inc_id(self.ids.crossings);
        }
    }
    // AUDIT:HOT-END

    /// Renders and records a `Sent` trace entry. Cold: only reached when
    /// a trace consumer is attached, so the Debug render (the only
    /// allocation on the send path) never happens in plain runs.
    #[cold]
    fn trace_sent(&mut self, from: ActorId, to: ActorId, delivery: SimTime, msg: &M) {
        let rendered = render_debug(msg);
        self.emit_trace(TraceEntry {
            at: self.now,
            kind: TraceKind::Sent {
                from: self.global[from.index()],
                to: self.global[to.index()],
                delivery,
                msg: rendered,
            },
        });
    }

    /// Renders and records a `Delivered` trace entry; cold like
    /// [`trace_sent`](Engine::trace_sent).
    #[cold]
    fn trace_delivered(&mut self, at: SimTime, from: ActorId, to: ActorId, msg: &M) {
        let rendered = render_debug(msg);
        self.emit_trace(TraceEntry {
            at,
            kind: TraceKind::Delivered {
                from: self.global[from.index()],
                to: self.global[to.index()],
                msg: rendered,
            },
        });
    }

    pub(crate) fn schedule_timer(&mut self, actor: ActorId, delay: Duration, token: u64) {
        let at = self.now + delay;
        self.push(at, EventPayload::Timer { actor, token });
    }

    pub(crate) fn has_channel(&self, from: ActorId, to: ActorId) -> bool {
        self.channel_index(from, to).is_some()
    }

    pub(crate) fn set_blocked(&mut self, from: ActorId, to: ActorId, blocked: bool) {
        let ci = self
            .channel_index(from, to)
            .unwrap_or_else(|| panic!("no channel {from} → {to} registered in the topology"));
        self.channels[ci].blocked = blocked;
    }

    pub(crate) fn note(&mut self, actor: ActorId, text: String) {
        if self.tracing() {
            self.emit_trace(TraceEntry {
                at: self.now,
                kind: TraceKind::Note {
                    actor: self.global[actor.index()],
                    text,
                },
            });
        }
    }

    /// `true` if any trace consumer is active (lets callers skip the
    /// `format!` cost of rendering messages nobody will see).
    pub(crate) fn tracing(&self) -> bool {
        self.trace.is_some() || !self.sinks.is_empty()
    }

    pub(crate) fn emit_trace(&mut self, entry: TraceEntry) {
        for sink in &mut self.sinks {
            sink.record(&entry);
        }
        if let Some(trace) = &mut self.trace {
            trace.push(entry);
        }
    }

    pub(crate) fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    pub(crate) fn lineage_mut(&mut self) -> Option<&mut LineageRecorder> {
        self.lineage.as_mut()
    }

    pub(crate) fn tap_mut(&mut self) -> Option<&mut (dyn RunTap + 'static)> {
        self.tap.as_deref_mut()
    }

    /// Streams lineage events recorded since the last call to the tap.
    /// A single branch when no tap is installed (the default).
    pub(crate) fn feed_tap(&mut self) {
        let Some(tap) = self.tap.as_deref_mut() else {
            return;
        };
        let Some(lineage) = self.lineage.as_ref() else {
            return;
        };
        let events = lineage.events();
        for ev in &events[self.lineage_fed..] {
            tap.lineage_event(ev);
        }
        self.lineage_fed = events.len();
    }

    /// `true` when telemetry is installed and the next cadence tick has
    /// arrived — the one cheap check the event loop pays per event.
    #[inline]
    pub(crate) fn telemetry_due(&self) -> bool {
        matches!(&self.telemetry, Some(t) if t.is_due(self.now.as_nanos()))
    }

    /// Takes one telemetry sample of the live registry. Cold: only
    /// reached on cadence ticks of telemetry-enabled runs.
    #[cold]
    pub(crate) fn telemetry_sample(&mut self) {
        let now_ns = self.now.as_nanos();
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.sample(now_ns, &self.metrics);
        }
    }

    /// `true` when span profiling is active (callers read the wall clock
    /// only behind this check, so disabled runs pay one branch).
    #[inline]
    pub(crate) fn profiling(&self) -> bool {
        self.spans.is_some()
    }

    /// Records one timed span. Cold: only reached when profiling is on.
    #[cold]
    pub(crate) fn record_span(&mut self, id: SpanId, ns: u64) {
        if let Some(s) = self.spans.as_deref_mut() {
            s.record(id, ns);
        }
    }
}

/// The single place a message's Debug form is rendered for tracing;
/// callers guard on [`Engine::tracing`] so this never runs in plain
/// (untraced) simulations.
fn render_debug<M: fmt::Debug>(msg: &M) -> String {
    format!("{msg:?}")
}

/// Builder assembling actors and channels into a [`Sim`].
pub struct SimBuilder<M> {
    actors: Vec<Box<dyn Actor<M>>>,
    tags: Vec<NetworkTag>,
    channels: HashMap<(ActorId, ActorId), ChannelState>,
    seed: u64,
    trace: bool,
    lineage: bool,
    tap: Option<Box<dyn RunTap>>,
    sinks: Vec<Box<dyn TraceSink>>,
    corrupter: Option<Corrupter<M>>,
    telemetry: Option<TelemetryConfig>,
    global_ids: Option<Vec<u32>>,
    depth_classes: Option<Vec<u32>>,
}

impl<M: fmt::Debug + Clone + 'static> SimBuilder<M> {
    /// Creates a builder whose world is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            actors: Vec::new(),
            tags: Vec::new(),
            channels: HashMap::new(),
            seed,
            trace: false,
            lineage: false,
            tap: None,
            sinks: Vec::new(),
            corrupter: None,
            telemetry: None,
            global_ids: None,
            depth_classes: None,
        }
    }

    /// Registers an actor on network `tag` and returns its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>, tag: NetworkTag) -> ActorId {
        let id = ActorId(u32::try_from(self.actors.len()).expect("too many actors"));
        self.actors.push(actor);
        self.tags.push(tag);
        id
    }

    /// Registers a unidirectional channel `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if the channel already exists or either endpoint is
    /// unknown — both are harness bugs.
    pub fn connect(&mut self, from: ActorId, to: ActorId, spec: ChannelSpec) {
        assert!(from.index() < self.actors.len(), "unknown sender {from}");
        assert!(to.index() < self.actors.len(), "unknown receiver {to}");
        assert_ne!(from, to, "self-channels are not allowed");
        let prev = self.channels.insert((from, to), ChannelState::new(spec));
        assert!(prev.is_none(), "duplicate channel {from} → {to}");
    }

    /// Registers channels in both directions with the same spec.
    pub fn connect_bidi(&mut self, a: ActorId, b: ActorId, spec: ChannelSpec) {
        self.connect(a, b, spec.clone());
        self.connect(b, a, spec);
    }

    /// Installs the hook that damages a message when its channel injects
    /// payload corruption (see [`FaultSpec::with_corruption`]).
    ///
    /// Without a corrupter, corrupted sends are still counted in the
    /// `channel.*.corrupted` metric but the payload is delivered intact —
    /// corruption is then purely an accounting event. The hook receives an
    /// RNG seeded from the channel's own fault stream, so the damage is
    /// part of the deterministic replay.
    ///
    /// [`FaultSpec::with_corruption`]: crate::channel::FaultSpec::with_corruption
    pub fn set_corrupter(&mut self, f: impl FnMut(&mut M, &mut SplitMix64) + 'static) {
        self.corrupter = Some(Box::new(f));
    }

    /// Enables the human-readable event trace (off by default; tracing
    /// every event costs memory proportional to the run).
    pub fn enable_trace(&mut self) {
        self.trace = true;
    }

    /// Enables causal lineage recording (off by default). When enabled,
    /// actors can reach the world's [`LineageRecorder`] through
    /// [`Ctx::lineage`] and the run's accumulated record is retrieved
    /// with [`Sim::take_lineage`]. When disabled, [`Ctx::lineage`]
    /// returns `None` and no lineage state is ever allocated.
    ///
    /// [`Ctx::lineage`]: crate::actor::Ctx::lineage
    pub fn enable_lineage(&mut self) {
        self.lineage = true;
    }

    /// Installs a [`RunTap`] that observes the run as a stream:
    /// protocol actors feed it memory operations through
    /// [`Ctx::tap`](crate::actor::Ctx::tap), and the engine feeds it
    /// lineage events (when lineage is enabled) after every dispatched
    /// event. Off by default; a run without a tap pays one branch per
    /// event.
    pub fn set_tap(&mut self, tap: Box<dyn RunTap>) {
        self.tap = Some(tap);
    }

    /// Enables flight-recorder telemetry (off by default): the engine
    /// samples the metric registry at `cfg`'s virtual-time cadence into
    /// a bounded delta-encoded timeline, evaluates `cfg`'s watchdogs at
    /// every sample, and profiles the engine's phases with wall-clock
    /// spans. The finished recorder is retrieved with
    /// [`Sim::take_telemetry`]. A disabled run allocates no telemetry
    /// state and pays one branch per event.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry = Some(cfg);
    }

    /// Registers a [`TraceSink`] that receives every trace entry of the
    /// run as it happens (independently of [`enable_trace`]'s in-memory
    /// log). Sinks are invoked in registration order. Returns the sink's
    /// index for later retrieval with [`Sim::sink_mut`].
    ///
    /// [`enable_trace`]: SimBuilder::enable_trace
    pub fn add_trace_sink(&mut self, sink: Box<dyn TraceSink>) -> usize {
        self.sinks.push(sink);
        self.sinks.len() - 1
    }

    /// Number of actors registered so far.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Assigns each local actor a *global* identity (one entry per
    /// registered actor, in registration order). RNG streams, channel
    /// fault streams, stats keys, channel metric names and trace entries
    /// all use the global id, so a world built as a shard of a larger
    /// layout reproduces exactly the byte output the full serial world
    /// attributes to those actors. Defaults to the identity mapping.
    pub fn set_global_ids(&mut self, ids: Vec<u32>) {
        self.global_ids = Some(ids);
    }

    /// Assigns each local actor a queue-depth class (one entry per
    /// registered actor). The `engine.queue_depth_max` gauge records the
    /// maximum *per-class* pending-event count — with one class per
    /// independent component, a serial run and a sharded run (which
    /// merges the gauge as a max across shards) report the same value.
    /// Defaults to a single class, which is the total queue depth.
    pub fn set_depth_classes(&mut self, classes: Vec<u32>) {
        self.depth_classes = Some(classes);
    }

    /// Finalizes the world.
    pub fn build(self) -> Sim<M> {
        let n = self.actors.len();
        let global: Vec<ActorId> = match self.global_ids {
            Some(ids) => {
                assert_eq!(ids.len(), n, "one global id per actor");
                ids.into_iter().map(ActorId).collect()
            }
            None => (0..n).map(|i| ActorId(i as u32)).collect(),
        };
        let depth_class = match self.depth_classes {
            Some(classes) => {
                assert_eq!(classes.len(), n, "one depth class per actor");
                classes
            }
            None => vec![0; n],
        };
        let n_classes = depth_class.iter().copied().max().unwrap_or(0) as usize + 1;
        let actor_rngs = (0..n)
            .map(|i| derive_rng(self.seed, u64::from(global[i].0)))
            .collect();
        // Each channel gets a fault stream derived from the world seed and
        // its (global) endpoint ids, so the stream is independent of
        // registration order and identical whether the endpoint runs in
        // the full world or in a shard.
        let fault_seed = derive_seed(self.seed, u64::MAX - 1);
        // Intern every metric name the event loop will ever touch up
        // front: the engine's own counters plus the four fault counters
        // of every channel. Interned-but-untouched names never appear in
        // snapshots, so pre-resolving cannot change any output.
        let mut metrics = MetricsRegistry::new();
        let ids = EngineIds::resolve(&mut metrics);
        // Resolve the channel map into a dense state table plus a
        // per-sender adjacency index, both in sorted key order so the
        // layout is deterministic; the event loop never hashes again.
        let mut keyed: Vec<((ActorId, ActorId), ChannelState)> =
            self.channels.into_iter().collect();
        keyed.sort_by_key(|&(k, _)| k);
        let mut channels = Vec::with_capacity(keyed.len());
        let mut adjacency: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut sends = SendCounts::default();
        for ((from, to), mut state) in keyed {
            let (gfrom, gto) = (global[from.index()], global[to.index()]);
            sends.add_channel(gfrom, gto, self.tags[from.index()], self.tags[to.index()]);
            let key = (u64::from(gfrom.0) << 32) | u64::from(gto.0);
            state.fault_rng = derive_rng(fault_seed, key);
            state.counters = Some(ChannelCounters::resolve(&mut metrics, gfrom, gto));
            adjacency[from.index()].push((to.0, channels.len() as u32));
            channels.push(state);
        }
        Sim {
            engine: Engine {
                now: SimTime::ZERO,
                queue: CalendarQueue::new(),
                seq: 0,
                channels,
                adjacency,
                global,
                depth_class,
                class_depth: vec![0; n_classes],
                actor_rngs,
                jitter_rng: derive_rng(self.seed, u64::MAX),
                corrupter: self.corrupter,
                sends,
                stats: TrafficStats::new(),
                metrics,
                ids,
                trace: if self.trace { Some(Vec::new()) } else { None },
                tap: self.tap,
                lineage_fed: 0,
                lineage: if self.lineage {
                    Some(LineageRecorder::new())
                } else {
                    None
                },
                sinks: self.sinks,
                spans: self.telemetry.as_ref().map(|_| Box::new(SpanStats::new())),
                telemetry: self.telemetry.map(|cfg| Box::new(TimeSeries::new(cfg))),
            },
            actors: self.actors,
            started: false,
            events_processed: 0,
        }
    }
}

/// A runnable simulated world.
pub struct Sim<M> {
    engine: Engine<M>,
    actors: Vec<Box<dyn Actor<M>>>,
    started: bool,
    events_processed: u64,
}

impl<M: fmt::Debug + Clone + 'static> Sim<M> {
    /// Processes events until the limit is reached or the queue drains.
    ///
    /// The first call also delivers `on_start` to every actor (in id
    /// order, at time zero). `run` can be called repeatedly with
    /// different limits; virtual time never goes backwards.
    pub fn run(&mut self, limit: RunLimit) -> RunOutcome {
        let mut events_this_call = 0u64;
        if !self.started {
            self.started = true;
            for i in 0..self.actors.len() {
                let me = ActorId(i as u32);
                let mut ctx = Ctx {
                    engine: &mut self.engine,
                    me,
                };
                self.actors[i].on_start(&mut ctx);
            }
        }
        // AUDIT:HOT-BEGIN — dispatch loop: pop from the calendar queue,
        // per-class depth gauge by interned id, no formatting.
        let outcome = loop {
            let Some((head_at_ns, _, head_class)) = self.engine.queue.peek() else {
                break RunOutcome::Quiescent {
                    events: events_this_call,
                };
            };
            if let Some(max_time) = limit.max_time {
                if head_at_ns > max_time.as_nanos() {
                    break RunOutcome::TimeLimit {
                        events: events_this_call,
                    };
                }
            }
            if let Some(max_events) = limit.max_events {
                if events_this_call >= max_events {
                    break RunOutcome::EventLimit {
                        events: events_this_call,
                    };
                }
            }
            // Depth accounting *before* the pop, counting the head event
            // itself: total pending events of the head's class across the
            // slot ring, the live window (batch and late heap) and the
            // overflow heap.
            self.engine.metrics.gauge_max_id(
                self.engine.ids.queue_depth_max,
                self.engine.class_depth[head_class as usize] as f64,
            );
            let (at_ns, _, payload) = self.engine.queue.pop().expect("peeked event vanished");
            self.engine.class_depth[head_class as usize] -= 1;
            let at = SimTime::from_nanos(at_ns);
            debug_assert!(at >= self.engine.now, "time went backwards");
            self.engine.now = at;
            // Flight-recorder sampling happens on virtual-time cadence
            // ticks, before the event's effects — one branch per event
            // when telemetry is off.
            if self.engine.telemetry_due() {
                self.engine.telemetry_sample();
            }
            events_this_call += 1;
            self.events_processed += 1;
            self.engine
                .metrics
                .inc_id(self.engine.ids.events_dispatched);
            match payload {
                EventPayload::Message { from, to, msg } => {
                    if self.engine.tracing() {
                        self.engine.trace_delivered(at, from, to, &msg);
                    }
                    let t0 = self.engine.profiling().then(std::time::Instant::now);
                    let mut ctx = Ctx {
                        engine: &mut self.engine,
                        me: to,
                    };
                    self.actors[to.index()].on_message(from, msg, &mut ctx);
                    if let Some(t0) = t0 {
                        self.engine
                            .record_span(SpanId::Deliver, t0.elapsed().as_nanos() as u64);
                    }
                }
                EventPayload::Timer { actor, token } => {
                    self.engine.stats.on_timer();
                    self.engine.metrics.inc_id(self.engine.ids.timer_fires);
                    if self.engine.tracing() {
                        self.engine.emit_trace(TraceEntry {
                            at,
                            kind: TraceKind::Timer {
                                actor: self.engine.global[actor.index()],
                                token,
                            },
                        });
                    }
                    let t0 = self.engine.profiling().then(std::time::Instant::now);
                    let mut ctx = Ctx {
                        engine: &mut self.engine,
                        me: actor,
                    };
                    self.actors[actor.index()].on_timer(token, &mut ctx);
                    if let Some(t0) = t0 {
                        self.engine
                            .record_span(SpanId::Timer, t0.elapsed().as_nanos() as u64);
                    }
                }
            }
            let t0 = self.engine.profiling().then(std::time::Instant::now);
            self.engine.feed_tap();
            if let Some(t0) = t0 {
                self.engine
                    .record_span(SpanId::TapFeed, t0.elapsed().as_nanos() as u64);
            }
        };
        // AUDIT:HOT-END
        // Sends were counted by channel index; fold them into the keyed
        // tables so `stats()` is exact between `run` calls.
        self.engine.sends.fold_into(&mut self.engine.stats);
        outcome
    }

    /// Current virtual time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.engine.now
    }

    /// Total events processed across all `run` calls.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &TrafficStats {
        &self.engine.stats
    }

    /// Mutable statistics, e.g. to [`reset`](TrafficStats::reset) after a
    /// warm-up phase.
    pub fn stats_mut(&mut self) -> &mut TrafficStats {
        &mut self.engine.stats
    }

    /// The recorded trace (empty unless
    /// [`SimBuilder::enable_trace`] was called).
    pub fn trace(&self) -> &[TraceEntry] {
        self.engine.trace.as_deref().unwrap_or(&[])
    }

    /// The accumulated lineage record (`None` unless
    /// [`SimBuilder::enable_lineage`] was called).
    pub fn lineage(&self) -> Option<&LineageRecorder> {
        self.engine.lineage.as_ref()
    }

    /// Takes ownership of the accumulated lineage record, leaving the
    /// world without one (subsequent [`Ctx::lineage`] calls see `None`).
    ///
    /// [`Ctx::lineage`]: crate::actor::Ctx::lineage
    pub fn take_lineage(&mut self) -> Option<LineageRecorder> {
        self.engine.lineage.take()
    }

    /// The live telemetry recorder (`None` unless
    /// [`SimBuilder::enable_telemetry`] was called, or after
    /// [`take_telemetry`](Sim::take_telemetry)).
    pub fn telemetry(&self) -> Option<&TimeSeries> {
        self.engine.telemetry.as_deref()
    }

    /// Takes ownership of the telemetry timeline, first recording a
    /// final sample at the current virtual time (so the timeline always
    /// ends with the run-final totals) and attaching the span profile.
    pub fn take_telemetry(&mut self) -> Option<TimeSeries> {
        let mut t = self.engine.telemetry.take()?;
        t.sample(self.engine.now.as_nanos(), &self.engine.metrics);
        if let Some(spans) = self.engine.spans.take() {
            t.set_spans(*spans);
        }
        Some(*t)
    }

    /// The live metrics registry: engine counters (`engine.*`) plus
    /// whatever the actors recorded through [`Ctx::metrics`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.engine.metrics
    }

    /// Mutable registry access, e.g. for harness-level observations.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        self.engine.metrics_mut()
    }

    /// A full metrics snapshot: the live registry plus the per-channel
    /// (`channel.*`) and per-crossing (`crossing.*`) counter tables
    /// mirrored from [`TrafficStats`], so a single artifact carries
    /// engine, channel, protocol and IS-process counters together.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut snapshot = self.engine.metrics.clone();
        self.engine.stats.export_into(&mut snapshot);
        snapshot
    }

    /// Flushes every registered trace sink (file-backed sinks buffer).
    pub fn flush_sinks(&mut self) {
        for sink in &mut self.engine.sinks {
            sink.flush();
        }
    }

    /// Downcasts the trace sink at `index` (as returned by
    /// [`SimBuilder::add_trace_sink`]) to its concrete type.
    pub fn sink_mut<T: 'static>(&mut self, index: usize) -> Option<&mut T> {
        self.engine
            .sinks
            .get_mut(index)?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Downcasts the actor `id` to its concrete type.
    pub fn actor<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.actors.get(id.index())?.as_any().downcast_ref::<T>()
    }

    /// Mutable downcast of the actor `id`.
    pub fn actor_mut<T: 'static>(&mut self, id: ActorId) -> Option<&mut T> {
        self.actors
            .get_mut(id.index())?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Number of actors in the world.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Sets or clears the partitioned state of the directed channel
    /// `from → to`. While partitioned, every send on the channel is
    /// discarded at the send instant and counted in
    /// `channel.{from}->{to}.partitioned`; messages already in flight
    /// still arrive. No RNG stream is consulted, so a heal resumes the
    /// channel's fault and jitter draws exactly where they stopped.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not exist — a harness bug.
    pub fn set_channel_blocked(&mut self, from: ActorId, to: ActorId, blocked: bool) {
        self.engine.set_blocked(from, to, blocked);
    }

    /// Sets or clears the partitioned state of both directions of the
    /// link `a ↔ b` atomically (no event can interleave between the two
    /// direction updates — the engine is not running while this is
    /// called).
    ///
    /// # Panics
    ///
    /// Panics if either direction is missing — a harness bug.
    pub fn set_link_blocked(&mut self, a: ActorId, b: ActorId, blocked: bool) {
        self.engine.set_blocked(a, b, blocked);
        self.engine.set_blocked(b, a, blocked);
    }

    /// Injects a timer event for `actor`, firing `delay` after the
    /// current virtual time — the harness-side counterpart of
    /// [`Ctx::schedule`](crate::Ctx::schedule). Orchestrators that
    /// mutate actor state between run segments (chaos membership
    /// changes, crash scripts) use this to hand the actor a live
    /// context right after the surgery, so deferred work (resyncs,
    /// driver resumption) is not stranded until unrelated traffic
    /// happens to arrive.
    pub fn inject_timer(&mut self, actor: ActorId, delay: Duration, token: u64) {
        self.engine.schedule_timer(actor, delay, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Availability, FaultSpec};
    use std::any::Any;

    /// Test actor: floods `count` messages to a peer at start, records
    /// received payloads and timer tokens.
    struct Flood {
        peer: Option<ActorId>,
        count: u32,
        received: Vec<u32>,
        timers: Vec<u64>,
    }

    impl Flood {
        fn sender(peer: ActorId, count: u32) -> Box<Self> {
            Box::new(Flood {
                peer: Some(peer),
                count,
                received: Vec::new(),
                timers: Vec::new(),
            })
        }

        fn sink() -> Box<Self> {
            Box::new(Flood {
                peer: None,
                count: 0,
                received: Vec::new(),
                timers: Vec::new(),
            })
        }
    }

    impl Actor<u32> for Flood {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if let Some(peer) = self.peer {
                for i in 0..self.count {
                    ctx.send(peer, i);
                }
            }
        }

        fn on_message(&mut self, _from: ActorId, msg: u32, _ctx: &mut Ctx<'_, u32>) {
            self.received.push(msg);
        }

        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_, u32>) {
            self.timers.push(token);
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn two_actor_world(spec: ChannelSpec, count: u32, seed: u64) -> (Sim<u32>, ActorId, ActorId) {
        let mut b = SimBuilder::new(seed);
        let sink_id = ActorId(1);
        let a0 = b.add_actor(Flood::sender(sink_id, count), NetworkTag(0));
        let a1 = b.add_actor(Flood::sink(), NetworkTag(1));
        b.connect(a0, a1, spec);
        (b.build(), a0, a1)
    }

    #[test]
    fn messages_arrive_in_fifo_order() {
        let (mut sim, _a0, a1) = two_actor_world(ChannelSpec::fixed(ms(5)), 100, 7);
        let outcome = sim.run(RunLimit::unlimited());
        assert!(outcome.is_quiescent());
        let sink = sim.actor::<Flood>(a1).unwrap();
        assert_eq!(sink.received, (0..100).collect::<Vec<_>>());
        assert_eq!(sim.now(), SimTime::from_millis(5));
    }

    #[test]
    fn fifo_holds_under_jitter() {
        for seed in 0..20 {
            let (mut sim, _a0, a1) =
                two_actor_world(ChannelSpec::jittered(ms(5), ms(20)), 50, seed);
            sim.run(RunLimit::unlimited());
            let sink = sim.actor::<Flood>(a1).unwrap();
            assert_eq!(sink.received, (0..50).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let (mut s1, ..) = two_actor_world(ChannelSpec::jittered(ms(5), ms(20)), 50, 3);
        let (mut s2, ..) = two_actor_world(ChannelSpec::jittered(ms(5), ms(20)), 50, 3);
        s1.run(RunLimit::unlimited());
        s2.run(RunLimit::unlimited());
        assert_eq!(s1.now(), s2.now());
        assert_eq!(s1.stats(), s2.stats());
    }

    #[test]
    fn down_channel_queues_until_up() {
        let spec = ChannelSpec::fixed(ms(1))
            .with_availability(Availability::UpFrom(SimTime::from_millis(50)));
        let (mut sim, _a0, a1) = two_actor_world(spec, 3, 1);
        sim.run(RunLimit::unlimited());
        let sink = sim.actor::<Flood>(a1).unwrap();
        assert_eq!(sink.received, vec![0, 1, 2]);
        assert_eq!(sim.now(), SimTime::from_millis(51));
    }

    /// Sends one payload at t=0 and one more per timer fire.
    struct Beacon {
        peer: ActorId,
        sent: u32,
    }

    impl Actor<u32> for Beacon {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.peer, self.sent);
            self.sent += 1;
            ctx.schedule(ms(50), 0);
        }

        fn on_message(&mut self, _from: ActorId, _msg: u32, _ctx: &mut Ctx<'_, u32>) {}

        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.peer, self.sent);
            self.sent += 1;
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn partitioned_channel_drops_sends_and_heals_cleanly() {
        // The t=0 send hits the partition and is discarded; healing
        // before the t=50ms beacon lets the next send through untouched.
        let mut b = SimBuilder::new(4);
        let peer = ActorId(1);
        let a0 = b.add_actor(Box::new(Beacon { peer, sent: 0 }), NetworkTag(0));
        let a1 = b.add_actor(Flood::sink(), NetworkTag(1));
        b.connect_bidi(a0, a1, ChannelSpec::fixed(ms(2)));
        let mut sim = b.build();
        sim.set_link_blocked(a0, a1, true);
        sim.run(RunLimit::until(SimTime::from_millis(20)));
        assert!(sim.actor::<Flood>(a1).unwrap().received.is_empty());
        assert_eq!(
            sim.metrics()
                .counter(&format!("channel.{a0}->{a1}.partitioned")),
            1
        );
        assert_eq!(sim.stats().total_messages(), 0, "dropped before accounting");
        sim.set_link_blocked(a0, a1, false);
        assert!(sim.run(RunLimit::unlimited()).is_quiescent());
        assert_eq!(
            sim.actor::<Flood>(a1).unwrap().received,
            vec![1],
            "the post-heal send arrives; the partitioned one is gone"
        );
        assert_eq!(
            sim.metrics()
                .counter(&format!("channel.{a0}->{a1}.partitioned")),
            1
        );
    }

    #[test]
    fn in_flight_messages_survive_a_partition() {
        let (mut sim, a0, a1) = two_actor_world(ChannelSpec::fixed(ms(10)), 5, 1);
        // Let the sends enter the channel, then partition mid-flight.
        sim.run(RunLimit::events(0));
        sim.set_channel_blocked(a0, a1, true);
        sim.run(RunLimit::unlimited());
        let sink = sim.actor::<Flood>(a1).unwrap();
        assert_eq!(
            sink.received,
            vec![0, 1, 2, 3, 4],
            "a partition severs sends, not deliveries already in flight"
        );
    }

    #[test]
    fn stats_count_sends_and_crossings() {
        let (mut sim, a0, a1) = two_actor_world(ChannelSpec::fixed(ms(1)), 10, 1);
        sim.run(RunLimit::unlimited());
        assert_eq!(sim.stats().total_messages(), 10);
        assert_eq!(sim.stats().channel_messages(a0, a1), 10);
        assert_eq!(sim.stats().crossings(), 10); // actors on different nets
    }

    #[test]
    fn time_limit_stops_before_late_events() {
        let (mut sim, ..) = two_actor_world(ChannelSpec::fixed(ms(10)), 5, 1);
        let outcome = sim.run(RunLimit::until(SimTime::from_millis(5)));
        assert_eq!(outcome, RunOutcome::TimeLimit { events: 0 });
        // Resume to quiescence.
        let outcome = sim.run(RunLimit::unlimited());
        assert_eq!(outcome, RunOutcome::Quiescent { events: 5 });
    }

    #[test]
    fn event_limit_is_resumable() {
        let (mut sim, _a0, a1) = two_actor_world(ChannelSpec::fixed(ms(10)), 5, 1);
        let outcome = sim.run(RunLimit::events(2));
        assert_eq!(outcome, RunOutcome::EventLimit { events: 2 });
        sim.run(RunLimit::unlimited());
        assert_eq!(sim.actor::<Flood>(a1).unwrap().received.len(), 5);
        assert_eq!(sim.events_processed(), 5);
    }

    /// An actor that schedules timers and checks firing order.
    struct Clockwork {
        fired: Vec<u64>,
    }

    impl Actor<u32> for Clockwork {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.schedule(ms(30), 3);
            ctx.schedule(ms(10), 1);
            ctx.schedule(ms(20), 2);
            ctx.schedule(ms(10), 11); // same instant as token 1; FIFO by insertion
        }

        fn on_message(&mut self, _from: ActorId, _msg: u32, _ctx: &mut Ctx<'_, u32>) {}

        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_, u32>) {
            self.fired.push(token);
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timers_fire_in_time_then_insertion_order() {
        let mut b = SimBuilder::new(0);
        let id = b.add_actor(Box::new(Clockwork { fired: vec![] }), NetworkTag(0));
        let mut sim = b.build();
        sim.run(RunLimit::unlimited());
        assert_eq!(sim.actor::<Clockwork>(id).unwrap().fired, vec![1, 11, 2, 3]);
        assert_eq!(sim.stats().timer_events(), 4);
    }

    #[test]
    fn trace_records_send_delivery_and_notes() {
        let mut b = SimBuilder::new(0);
        b.enable_trace();
        let a1 = ActorId(1);
        let a0 = b.add_actor(Flood::sender(a1, 1), NetworkTag(0));
        b.add_actor(Flood::sink(), NetworkTag(0));
        b.connect(a0, a1, ChannelSpec::fixed(ms(2)));
        let mut sim = b.build();
        sim.run(RunLimit::unlimited());
        let trace = sim.trace();
        assert_eq!(trace.len(), 2);
        assert!(matches!(trace[0].kind, TraceKind::Sent { .. }));
        assert!(matches!(trace[1].kind, TraceKind::Delivered { .. }));
    }

    #[test]
    #[should_panic(expected = "no channel")]
    fn sending_without_channel_panics() {
        let mut b = SimBuilder::new(0);
        b.add_actor(Flood::sender(ActorId(1), 1), NetworkTag(0));
        b.add_actor(Flood::sink(), NetworkTag(0));
        // No connect() call.
        b.build().run(RunLimit::unlimited());
    }

    #[test]
    #[should_panic(expected = "duplicate channel")]
    fn duplicate_channel_panics() {
        let mut b = SimBuilder::new(0);
        let a0 = b.add_actor(Flood::sink(), NetworkTag(0));
        let a1 = b.add_actor(Flood::sink(), NetworkTag(0));
        b.connect(a0, a1, ChannelSpec::fixed(ms(1)));
        b.connect(a0, a1, ChannelSpec::fixed(ms(1)));
    }

    #[test]
    #[should_panic(expected = "self-channels")]
    fn self_channel_panics() {
        let mut b = SimBuilder::new(0);
        let a0 = b.add_actor(Flood::sink(), NetworkTag(0));
        b.connect(a0, a0, ChannelSpec::fixed(ms(1)));
    }

    #[test]
    fn duplicating_channel_delivers_twice_and_counts_twice() {
        let spec = ChannelSpec::fixed(ms(2)).with_faults(FaultSpec::none().with_duplication(1.0));
        let (mut sim, a0, a1) = two_actor_world(spec, 3, 1);
        sim.run(RunLimit::unlimited());
        let sink = sim.actor::<Flood>(a1).unwrap();
        assert_eq!(sink.received.len(), 6, "every message delivered twice");
        assert_eq!(sim.stats().channel_messages(a0, a1), 6);
        assert_eq!(sim.metrics().counter("channel.a0->a1.duplicated"), 3);
    }

    /// A payload whose `Debug` impl panics: if any dispatch path renders
    /// it while no trace consumer is attached, the test dies.
    #[derive(Clone)]
    struct Landmine(u32);

    impl fmt::Debug for Landmine {
        fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
            panic!("Debug rendered without a trace consumer attached")
        }
    }

    struct LandmineActor {
        peer: Option<ActorId>,
        count: u32,
        received: Vec<u32>,
    }

    impl Actor<Landmine> for LandmineActor {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Landmine>) {
            if let Some(peer) = self.peer {
                for i in 0..self.count {
                    ctx.send(peer, Landmine(i));
                }
            }
        }

        fn on_message(&mut self, _from: ActorId, msg: Landmine, _ctx: &mut Ctx<'_, Landmine>) {
            self.received.push(msg.0);
        }

        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, Landmine>) {}

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn no_debug_render_on_either_dispatch_path_without_trace_consumers() {
        // Duplication forces the clone branch of the send loop too, so
        // both the send and the deliver path are exercised per message.
        let spec = ChannelSpec::fixed(ms(2)).with_faults(FaultSpec::none().with_duplication(1.0));
        let mut b = SimBuilder::new(1);
        let a1 = ActorId(1);
        let a0 = b.add_actor(
            Box::new(LandmineActor {
                peer: Some(a1),
                count: 3,
                received: Vec::new(),
            }),
            NetworkTag(0),
        );
        b.add_actor(
            Box::new(LandmineActor {
                peer: None,
                count: 0,
                received: Vec::new(),
            }),
            NetworkTag(1),
        );
        b.connect(a0, a1, spec);
        let mut sim = b.build();
        sim.run(RunLimit::unlimited());
        assert_eq!(sim.actor::<LandmineActor>(a1).unwrap().received.len(), 6);
    }

    #[test]
    fn dropping_channel_loses_messages_and_counts_them() {
        let spec = ChannelSpec::fixed(ms(2)).with_faults(FaultSpec::none().with_drop(1.0));
        let (mut sim, a0, a1) = two_actor_world(spec, 5, 1);
        let outcome = sim.run(RunLimit::unlimited());
        assert!(outcome.is_quiescent());
        assert!(sim.actor::<Flood>(a1).unwrap().received.is_empty());
        assert_eq!(sim.stats().channel_messages(a0, a1), 0);
        assert_eq!(sim.metrics().counter("channel.a0->a1.dropped"), 5);
    }

    #[test]
    fn partial_loss_is_deterministic_across_replays() {
        let run = |seed| {
            let spec =
                ChannelSpec::jittered(ms(2), ms(3)).with_faults(FaultSpec::none().with_drop(0.4));
            let (mut sim, _a0, a1) = two_actor_world(spec, 50, seed);
            sim.run(RunLimit::unlimited());
            sim.actor::<Flood>(a1).unwrap().received.clone()
        };
        let first = run(9);
        assert_eq!(first, run(9), "same seed must replay identically");
        assert!(
            !first.is_empty() && first.len() < 50,
            "loss should be partial"
        );
        // FIFO still holds among survivors.
        assert!(first.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn reordering_fault_counts_and_still_delivers() {
        let spec =
            ChannelSpec::fixed(ms(1)).with_faults(FaultSpec::none().with_reordering(1.0, ms(20)));
        let (mut sim, _a0, a1) = two_actor_world(spec, 10, 3);
        sim.run(RunLimit::unlimited());
        assert_eq!(sim.actor::<Flood>(a1).unwrap().received.len(), 10);
        assert_eq!(sim.metrics().counter("channel.a0->a1.reordered"), 10);
    }

    #[test]
    fn corrupter_hook_damages_flagged_messages_deterministically() {
        let run = |seed| {
            let spec =
                ChannelSpec::fixed(ms(1)).with_faults(FaultSpec::none().with_corruption(0.5));
            let mut b = SimBuilder::new(seed);
            let a1 = ActorId(1);
            let a0 = b.add_actor(Flood::sender(a1, 20), NetworkTag(0));
            b.add_actor(Flood::sink(), NetworkTag(0));
            b.connect(a0, a1, spec);
            b.set_corrupter(|msg: &mut u32, rng| *msg ^= rng.next_u64() as u32 | 1);
            let mut sim = b.build();
            sim.run(RunLimit::unlimited());
            let corrupted = sim.metrics().counter("channel.a0->a1.corrupted");
            (sim.actor::<Flood>(a1).unwrap().received.clone(), corrupted)
        };
        let (received, corrupted) = run(4);
        assert_eq!(received.len(), 20, "corruption damages, never drops");
        let damaged = received.iter().filter(|&&m| m >= 20).count();
        assert_eq!(corrupted, damaged as u64);
        assert!(
            damaged > 0,
            "p=0.5 over 20 messages should hit at least once"
        );
        assert_eq!(run(4), (received, corrupted), "replays bit-identically");
    }

    #[test]
    fn scripted_drop_loses_exactly_the_scripted_message() {
        use crate::channel::FaultAction;
        let spec = ChannelSpec::fixed(ms(1))
            .with_faults(FaultSpec::none().with_scripted(2, FaultAction::Drop));
        let (mut sim, _a0, a1) = two_actor_world(spec, 5, 1);
        sim.run(RunLimit::unlimited());
        assert_eq!(sim.actor::<Flood>(a1).unwrap().received, vec![0, 1, 3, 4]);
    }

    #[test]
    fn fault_free_runs_are_unchanged_by_the_fault_machinery() {
        // The fast path must leave jittered schedules exactly as the
        // pre-fault engine produced them: an inactive FaultSpec draws
        // nothing from any RNG.
        let plain = {
            let (mut sim, ..) = two_actor_world(ChannelSpec::jittered(ms(5), ms(20)), 50, 3);
            sim.run(RunLimit::unlimited());
            (sim.now(), sim.stats().clone())
        };
        let with_spec = {
            let spec = ChannelSpec::jittered(ms(5), ms(20)).with_faults(FaultSpec::none());
            let (mut sim, ..) = two_actor_world(spec, 50, 3);
            sim.run(RunLimit::unlimited());
            (sim.now(), sim.stats().clone())
        };
        assert_eq!(plain, with_spec);
    }

    #[test]
    fn telemetry_records_a_deterministic_timeline_and_spans() {
        let run = || {
            let mut b = SimBuilder::new(3);
            let a1 = ActorId(1);
            let a0 = b.add_actor(Flood::sender(a1, 50), NetworkTag(0));
            b.add_actor(Flood::sink(), NetworkTag(1));
            b.connect(a0, a1, ChannelSpec::jittered(ms(5), ms(10)));
            b.enable_telemetry(TelemetryConfig::default().with_every_ms(1));
            let mut sim = b.build();
            sim.run(RunLimit::unlimited());
            assert!(sim.telemetry().is_some());
            let t = sim.take_telemetry().unwrap();
            assert!(sim.telemetry().is_none(), "take leaves no recorder");
            t
        };
        let t1 = run();
        assert!(t1.sample_count() >= 1, "cadence ticks produced samples");
        let dispatched = t1.series("engine.events_dispatched");
        assert_eq!(
            dispatched.last().unwrap().1,
            50.0,
            "final sample carries run-final totals"
        );
        // Span profiling ran (wall clock), but never touches the
        // timeline: the JSONL export is virtual-time deterministic.
        assert!(t1.spans().is_some());
        assert!(t1.spans().unwrap().count(SpanId::Deliver) > 0);
        let t2 = run();
        assert_eq!(t1.to_jsonl(), t2.to_jsonl(), "byte-identical timelines");
    }

    #[test]
    fn disabled_telemetry_allocates_nothing_and_yields_none() {
        let (mut sim, ..) = two_actor_world(ChannelSpec::fixed(ms(5)), 10, 1);
        sim.run(RunLimit::unlimited());
        assert!(sim.telemetry().is_none());
        assert!(sim.take_telemetry().is_none());
    }

    #[test]
    fn downcast_to_wrong_type_returns_none() {
        let mut b = SimBuilder::new(0);
        let a0 = b.add_actor(Flood::sink(), NetworkTag(0));
        let sim = b.build();
        assert!(sim.actor::<Clockwork>(a0).is_none());
        assert!(sim.actor::<Flood>(a0).is_some());
    }
}
