//! Traffic accounting: the measurement substrate of the paper's Section 6.

use std::collections::BTreeMap;
use std::fmt;

use cmi_obs::{Json, MetricsRegistry, ToJson};

use crate::actor::ActorId;

/// Tag identifying the physical network an actor sits on.
///
/// Section 6's bottleneck argument counts messages *crossing* between
/// networks ("two local area networks connected with a low-speed
/// point-to-point link"); tagging each actor with its network lets the
/// stats separate intra-network traffic from crossings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NetworkTag(pub u16);

impl fmt::Display for NetworkTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// Exact message counts accumulated during a run.
///
/// Counters can be [`reset`](TrafficStats::reset) between phases so that
/// an experiment can, e.g., exclude warm-up traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    total_messages: u64,
    per_channel: BTreeMap<(ActorId, ActorId), u64>,
    per_crossing: BTreeMap<(NetworkTag, NetworkTag), u64>,
    timer_events: u64,
}

impl TrafficStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    pub(crate) fn on_timer(&mut self) {
        self.timer_events += 1;
    }

    /// Total messages sent since the last reset.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Messages sent on the channel `from → to` since the last reset.
    pub fn channel_messages(&self, from: ActorId, to: ActorId) -> u64 {
        self.per_channel.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Messages that crossed between two different networks (in either
    /// direction) since the last reset.
    pub fn crossings(&self) -> u64 {
        self.per_crossing.values().sum()
    }

    /// Messages that crossed from network `a` to network `b` (directed).
    pub fn crossings_between(&self, a: NetworkTag, b: NetworkTag) -> u64 {
        self.per_crossing.get(&(a, b)).copied().unwrap_or(0)
    }

    /// Directed crossing table `(from, to) → count`.
    pub fn crossing_table(&self) -> &BTreeMap<(NetworkTag, NetworkTag), u64> {
        &self.per_crossing
    }

    /// Per-channel table `(from, to) → count`.
    pub fn channel_table(&self) -> &BTreeMap<(ActorId, ActorId), u64> {
        &self.per_channel
    }

    /// Timer events fired since the last reset.
    pub fn timer_events(&self) -> u64 {
        self.timer_events
    }

    /// Zeroes all counters (e.g. at the end of a warm-up phase).
    pub fn reset(&mut self) {
        *self = TrafficStats::default();
    }

    /// Folds `other` into `self` (cross-shard aggregation): totals and
    /// timer counts add, the per-channel and per-crossing tables add
    /// entry-wise. Shards key their tables by *global* actor identity,
    /// so merging shard stats reproduces the serial tables exactly.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.total_messages += other.total_messages;
        self.timer_events += other.timer_events;
        for (k, n) in &other.per_channel {
            *self.per_channel.entry(*k).or_insert(0) += n;
        }
        for (k, n) in &other.per_crossing {
            *self.per_crossing.entry(*k).or_insert(0) += n;
        }
    }

    /// Mirrors every counter into `metrics`, under the `traffic.*`,
    /// `channel.*` and `crossing.*` names. Because the registry copy is
    /// derived from this table, the registry's counts match the
    /// closed-form checks (experiment X2) exactly whenever these do.
    pub fn export_into(&self, metrics: &mut MetricsRegistry) {
        metrics.add("traffic.total_messages", self.total_messages);
        metrics.add("traffic.timer_events", self.timer_events);
        metrics.add("traffic.crossings", self.crossings());
        for ((from, to), n) in &self.per_channel {
            metrics.add(&format!("channel.{from}->{to}.messages"), *n);
        }
        for ((a, b), n) in &self.per_crossing {
            metrics.add(&format!("crossing.{a}->{b}.messages"), *n);
        }
    }
}

/// The send path's side of [`TrafficStats`]: one counter per channel in
/// the engine's dense channel order, so counting a message is an indexed
/// increment. [`fold_into`](SendCounts::fold_into) moves the counts into
/// the keyed tables; the engine does so at the end of every `Sim::run`
/// call, the only point from which the stats can be read.
#[derive(Debug, Default)]
pub(crate) struct SendCounts {
    channels: Vec<ChannelCount>,
}

/// One channel's sends since the last fold, and where they land in
/// [`TrafficStats`] (resolved once at build). Endpoints are *global*
/// actor identities so shard-local runs merge into the serial tables
/// without translation.
#[derive(Debug)]
struct ChannelCount {
    from: ActorId,
    to: ActorId,
    /// The directed network pair, if the endpoints sit on different
    /// networks.
    crossing: Option<(NetworkTag, NetworkTag)>,
    pending: u64,
}

impl SendCounts {
    /// Registers the next channel of the dense table.
    pub(crate) fn add_channel(
        &mut self,
        from: ActorId,
        to: ActorId,
        from_tag: NetworkTag,
        to_tag: NetworkTag,
    ) {
        self.channels.push(ChannelCount {
            from,
            to,
            crossing: (from_tag != to_tag).then_some((from_tag, to_tag)),
            pending: 0,
        });
    }

    // AUDIT:HOT-BEGIN — per-send accounting: an indexed increment, no
    // keyed table (BTreeMap, .entry) is touched.
    /// Counts one message on channel `ci`; `true` if it crosses networks.
    #[inline]
    pub(crate) fn on_send(&mut self, ci: usize) -> bool {
        let channel = &mut self.channels[ci];
        channel.pending += 1;
        channel.crossing.is_some()
    }
    // AUDIT:HOT-END

    /// Adds every pending count to `stats` and zeroes it. A channel that
    /// carried nothing adds no entry, exactly like a table updated per
    /// send.
    pub(crate) fn fold_into(&mut self, stats: &mut TrafficStats) {
        for channel in &mut self.channels {
            let n = std::mem::take(&mut channel.pending);
            if n == 0 {
                continue;
            }
            stats.total_messages += n;
            *stats
                .per_channel
                .entry((channel.from, channel.to))
                .or_insert(0) += n;
            if let Some(pair) = channel.crossing {
                *stats.per_crossing.entry(pair).or_insert(0) += n;
            }
        }
    }
}

impl ToJson for TrafficStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("total_messages", self.total_messages.to_json()),
            ("timer_events", self.timer_events.to_json()),
            ("crossings", self.crossings().to_json()),
            (
                "per_channel",
                Json::Obj(
                    self.per_channel
                        .iter()
                        .map(|((f, t), n)| (format!("{f}->{t}"), n.to_json()))
                        .collect(),
                ),
            ),
            (
                "per_crossing",
                Json::Obj(
                    self.per_crossing
                        .iter()
                        .map(|((a, b), n)| (format!("{a}->{b}"), n.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "traffic: {} messages, {} crossings, {} timers",
            self.total_messages,
            self.crossings(),
            self.timer_events
        )?;
        for ((a, b), n) in &self.per_crossing {
            writeln!(f, "  {a} → {b}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Ctx};
    use crate::channel::{ChannelSpec, FaultSpec};
    use crate::engine::{RunLimit, SimBuilder};
    use crate::trace::TraceKind;
    use cmi_types::SimTime;
    use std::any::Any;
    use std::time::Duration;

    /// The accounting the send path did before `SendCounts`: both keyed
    /// tables updated on every message. Kept as the reference.
    fn per_send_reference(
        s: &mut TrafficStats,
        from: ActorId,
        to: ActorId,
        from_tag: NetworkTag,
        to_tag: NetworkTag,
    ) {
        s.total_messages += 1;
        *s.per_channel.entry((from, to)).or_insert(0) += 1;
        if from_tag != to_tag {
            *s.per_crossing.entry((from_tag, to_tag)).or_insert(0) += 1;
        }
    }

    /// Stats after one send per entry of `sends` (channel indices) over
    /// `channels` = `(from, to, from_tag, to_tag)`.
    fn folded(channels: &[(u32, u32, u16, u16)], sends: &[usize]) -> TrafficStats {
        let mut counts = SendCounts::default();
        for &(from, to, from_tag, to_tag) in channels {
            counts.add_channel(
                ActorId(from),
                ActorId(to),
                NetworkTag(from_tag),
                NetworkTag(to_tag),
            );
        }
        let mut stats = TrafficStats::new();
        for &ci in sends {
            counts.on_send(ci);
        }
        counts.fold_into(&mut stats);
        stats
    }

    /// a0, a1 on net0; a2 on net1.
    const CHANNELS: [(u32, u32, u16, u16); 4] =
        [(0, 1, 0, 0), (0, 2, 0, 1), (2, 0, 1, 0), (1, 0, 0, 0)];

    #[test]
    fn counts_totals_channels_and_crossings() {
        let s = folded(&CHANNELS, &[0, 1, 2, 1]);
        let (a, b, c) = (ActorId(0), ActorId(1), ActorId(2));
        let (n0, n1) = (NetworkTag(0), NetworkTag(1));
        assert_eq!(s.total_messages(), 4);
        assert_eq!(s.channel_messages(a, c), 2);
        assert_eq!(s.channel_messages(b, a), 0);
        assert!(
            !s.channel_table().contains_key(&(b, a)),
            "a channel that carried nothing has no entry"
        );
        assert_eq!(s.crossings(), 3);
        assert_eq!(s.crossings_between(n0, n1), 2);
        assert_eq!(s.crossings_between(n1, n0), 1);
    }

    #[test]
    fn same_network_sends_are_not_crossings() {
        let s = folded(&[(0, 1, 3, 3)], &[0]);
        assert_eq!(s.total_messages(), 1);
        assert_eq!(s.crossings(), 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = folded(&CHANNELS, &[1]);
        s.on_timer();
        s.reset();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.crossings(), 0);
        assert_eq!(s.timer_events(), 0);
        assert!(s.channel_table().is_empty());
    }

    #[test]
    fn display_summarizes_counters() {
        let text = folded(&CHANNELS, &[1]).to_string();
        assert!(text.contains("1 messages"));
        assert!(text.contains("net0 → net1: 1"));
    }

    /// Forwards every message to a random neighbour until its hop
    /// budget runs out; a timer keeps injecting fresh ones.
    struct Gossip {
        peers: Vec<ActorId>,
        rounds: u32,
    }

    impl Gossip {
        fn forward(&self, hops: u32, ctx: &mut Ctx<'_, u32>) {
            let pick = ctx.rng().gen_range(0..self.peers.len());
            ctx.send(self.peers[pick], hops);
        }
    }

    impl Actor<u32> for Gossip {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.schedule(Duration::from_millis(1), 0);
        }

        fn on_message(&mut self, _from: ActorId, hops: u32, ctx: &mut Ctx<'_, u32>) {
            if hops > 0 {
                self.forward(hops - 1, ctx);
            }
        }

        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, u32>) {
            self.forward(6, ctx);
            if self.rounds > 0 {
                self.rounds -= 1;
                ctx.schedule(Duration::from_millis(3), 0);
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn folded_tables_equal_per_send_accounting_across_runs_and_resets() {
        // Six actors, two per network, fully connected over jittered
        // channels that duplicate one send in five (a duplicate is a
        // second send). Global ids differ from local ones, as in a shard.
        const N: u32 = 6;
        let tag = |local: u32| NetworkTag((local / 2) as u16);
        let global = |local: u32| 10 + 3 * local;
        let mut b = SimBuilder::new(23);
        b.enable_trace();
        for i in 0..N {
            let peers = (0..N).filter(|&j| j != i).map(ActorId).collect();
            b.add_actor(Box::new(Gossip { peers, rounds: 8 }), tag(i));
        }
        let spec = ChannelSpec::jittered(Duration::from_millis(2), Duration::from_millis(3))
            .with_faults(FaultSpec::none().with_duplication(0.2));
        for i in 0..N {
            for j in (0..N).filter(|&j| j != i) {
                b.connect(ActorId(i), ActorId(j), spec.clone());
            }
        }
        b.set_global_ids((0..N).map(global).collect());
        let mut sim = b.build();

        let tag_of = |a: ActorId| tag((a.0 - 10) / 3);
        let reference = |entries: &[crate::trace::TraceEntry]| {
            let mut want = TrafficStats::new();
            for e in entries {
                match e.kind {
                    TraceKind::Sent { from, to, .. } => {
                        per_send_reference(&mut want, from, to, tag_of(from), tag_of(to));
                    }
                    TraceKind::Timer { .. } => want.on_timer(),
                    _ => {}
                }
            }
            want
        };

        sim.run(RunLimit::until(SimTime::from_millis(9)));
        let first_len = sim.trace().len();
        let first = sim.stats().clone();
        assert_eq!(first, reference(sim.trace()));
        assert!(first.total_messages() > 20 && first.crossing_table().len() == 6);

        // A second, event-limited call adds to the same tables.
        sim.run(RunLimit::events(15));
        assert_eq!(sim.stats(), &reference(sim.trace()));
        let second_from = sim.trace().len();
        let so_far = sim.stats().clone();

        // After a reset only later sends count: nothing pending in the
        // dense counters survives the fold.
        sim.stats_mut().reset();
        assert!(sim.run(RunLimit::unlimited()).is_quiescent());
        let tail = reference(&sim.trace()[second_from..]);
        assert_eq!(sim.stats(), &tail);
        assert_eq!(
            sim.stats().crossings(),
            tail.crossing_table().values().sum::<u64>()
        );
        assert!(second_from > first_len && tail.total_messages() > 20);

        let mut merged = so_far;
        merged.merge(sim.stats());
        assert_eq!(merged, reference(sim.trace()));

        let mut want = MetricsRegistry::new();
        tail.export_into(&mut want);
        let snapshot = sim.metrics_snapshot();
        assert!(want.counters().count() > 30);
        for (name, n) in want.counters() {
            assert_eq!(snapshot.counter(name), n, "{name}");
        }
    }
}
