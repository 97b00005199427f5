//! The traced run's measurements beyond the pipeline spans: the
//! isolated calls (siblings outside the `e2e` root, timed on the last
//! repetition's report) and the calibration cuts below the world
//! (scheduler, engine, channels, one MCS system, the transport state
//! machines), which run once per invocation under a `calib` root.

use std::any::Any;
use std::hint::black_box;
use std::time::Duration;

use cmi_checker::{causal, MonitorConfig, OnlineMonitor};
use cmi_cli::Scenario;
use cmi_core::transport::TimeoutAction;
use cmi_core::{ReliableConfig, ReliableReceiver, ReliableSender};
use cmi_memory::{ProtocolKind, SingleSystem, SystemConfig, VarPattern, WorkloadSpec};
use cmi_obs::Json;
use cmi_sim::{
    Actor, ActorId, CalendarQueue, ChannelSpec, Ctx, NetworkTag, RunLimit, SimBuilder, SplitMix64,
};
use cmi_types::{ProcId, SimTime, SystemId, Value, VarId};

use crate::pipeline::{build_and_run, Engine, Rep};
use crate::trace::Tracer;
use crate::workloads::{Workload, PAIR_DEEP_OPS};

/// What the isolated calls measured.
pub struct Isolated {
    pub system_histories_s: f64,
    pub causal_check_s: f64,
    pub causal_steps: u64,
    pub causal_ok: bool,
    pub online_replay_s: f64,
    pub write_visibility_s: f64,
    pub json_parse_s: f64,
    /// `run_s` of one extra run with the monitor off (`chaos_lossy`).
    pub monitor_off_run_s: Option<f64>,
    /// `run_s` of one extra run on the serial engine (`islands_sharded`).
    pub serial_run_s: Option<f64>,
}

/// Times each isolated call once on `rep`, every span a root.
pub fn isolated(workload: Workload, rep: &Rep, tracer: &mut Tracer) -> Result<Isolated, String> {
    let report = &rep.report;
    let (global, system_histories_s) = tracer.timed("core.report.system_histories_s", |_| {
        for k in 0..rep.scenario.system_count() {
            let k = u16::try_from(k).expect("system index fits u16");
            black_box(report.system_history(SystemId(k)));
        }
        report.global_history()
    });
    let (check, causal_check_s) =
        tracer.timed("checker.causal.check_s", |_| causal::check(&global));
    let (online, online_replay_s) = tracer.timed("checker.online.replay_s", |_| {
        OnlineMonitor::check_history(&global, MonitorConfig::default())
    });
    if online.is_clean() != check.is_causal() {
        return Err("online replay and causal::check disagree on α^T".into());
    }
    let ((), write_visibility_s) = tracer.timed("core.report.write_visibility_s", |_| {
        black_box(report.write_visibility());
    });
    let (parsed, json_parse_s) = tracer.timed("obs.json.parse_s", |_| Json::parse(&rep.bytes));
    black_box(parsed.map_err(|e| format!("report bytes do not parse back: {e}"))?);

    // One extra build + run with the one setting flipped; only its
    // `run_s` is read.
    let mut extra_run_s = |scenario: &Scenario| -> Result<f64, String> {
        let ran = tracer.span("extra_run", |t| build_and_run(scenario, Engine::Serial, t))?;
        Ok(ran.run_s)
    };
    let monitor_off_run_s = match workload {
        Workload::ChaosLossy => {
            let mut off = rep.scenario.clone();
            off.monitor = false;
            Some(extra_run_s(&off)?)
        }
        _ => None,
    };
    let serial_run_s = match workload {
        Workload::IslandsSharded => Some(extra_run_s(&rep.scenario)?),
        _ => None,
    };
    Ok(Isolated {
        system_histories_s,
        causal_check_s,
        causal_steps: check.steps,
        causal_ok: check.is_causal(),
        online_replay_s,
        write_visibility_s,
        json_parse_s,
        monitor_off_run_s,
        serial_run_s,
    })
}

/// What the calibration cuts measured.
pub struct Calib {
    pub sched_ns_1e4: f64,
    pub sched_ns_1e6: f64,
    pub flood_events_per_s: f64,
    pub pingpong_msgs_per_s: f64,
    pub ahamad: MemoryCut,
    pub frontier: MemoryCut,
    pub transport_clean_ns: f64,
    pub transport_lossy_ns: f64,
    pub transport_retransmits_per_frame: f64,
}

/// One standalone MCS system, no interconnection.
pub struct MemoryCut {
    pub ns_per_event: f64,
    pub msgs_per_write: f64,
}

/// Runs every cut once. `scale` divides the sizes (`--quick` passes 20).
pub fn calibrate(seed: u64, scale: u64, tracer: &mut Tracer) -> Calib {
    let million = 1_000_000 / scale;
    let per_million = |seconds: f64| seconds * 1e9 / million as f64;
    tracer.span("calib", |t| {
        // In-ring depth: every time inside the ≈1.07 s slot-ring horizon.
        let shallow = 10_000 / scale;
        let (_, in_ring_s) = t.timed("sim.sched.push_pop_1e4", |_| {
            sched_cycles(shallow, million / shallow, 1_000_000_000)
        });
        // Overflow depth: times over 1000 s, so ~99.9 % start in the heap.
        let (_, overflow_s) = t.timed("sim.sched.push_pop_1e6", |_| {
            sched_cycles(million, 1, 1_000_000_000_000)
        });
        let (events, flood_s) = t.timed("sim.engine.flood", |_| flood(million));
        let (msgs, pingpong_s) = t.timed("sim.channel.pingpong", |_| pingpong(million));

        let ops = (PAIR_DEEP_OPS / scale) as u32;
        let ahamad = memory_cut("memory.ahamad", ProtocolKind::Ahamad, ops, seed, t);
        let frontier = memory_cut("memory.frontier", ProtocolKind::Frontier, ops, seed, t);

        let (_, clean_s) = t.timed("core.transport.clean", |_| transport(million, None));
        let (retransmits, lossy_s) =
            t.timed("core.transport.lossy", |_| transport(million, Some(5)));
        Calib {
            sched_ns_1e4: per_million(in_ring_s),
            sched_ns_1e6: per_million(overflow_s),
            flood_events_per_s: events as f64 / flood_s,
            pingpong_msgs_per_s: msgs as f64 / pingpong_s,
            ahamad,
            frontier,
            transport_clean_ns: per_million(clean_s),
            transport_lossy_ns: per_million(lossy_s),
            transport_retransmits_per_frame: retransmits as f64 / million as f64,
        }
    })
}

/// `cycles` × (push `depth` events at pseudo-random times below
/// `spread_ns`, pop them all). Returns a checksum of the pop order.
fn sched_cycles(depth: u64, cycles: u64, spread_ns: u64) -> u64 {
    let mut rng = SplitMix64::seed_from_u64(0x5eed);
    let times: Vec<u64> = (0..depth).map(|_| rng.next_u64() % spread_ns).collect();
    let mut acc = 0u64;
    for _ in 0..cycles {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        for (seq, &at) in times.iter().enumerate() {
            q.push(at, seq as u64, 0, 0);
        }
        while let Some((at, ..)) = q.pop() {
            acc = acc.wrapping_add(at);
        }
    }
    black_box(acc)
}

/// Actors per engine-level cut.
const CUT_ACTORS: u64 = 64;

/// X23's raw-engine stress actor: a chain of 1 µs timers, no protocol.
struct Flood {
    remaining: u64,
}

impl Actor<()> for Flood {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.schedule(Duration::from_micros(1), 0);
    }
    fn on_message(&mut self, _from: ActorId, _msg: (), _ctx: &mut Ctx<'_, ()>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, ()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.schedule(Duration::from_micros(1), 0);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Engine + scheduler with no-op actors; returns events dispatched
/// (at least `events`).
fn flood(events: u64) -> u64 {
    let mut b = SimBuilder::new(7);
    for _ in 0..CUT_ACTORS {
        b.add_actor(
            Box::new(Flood {
                remaining: events / CUT_ACTORS,
            }),
            NetworkTag(0),
        );
    }
    let mut sim = b.build();
    sim.run(RunLimit::unlimited());
    sim.metrics().counter("engine.events_dispatched")
}

/// Bounces a countdown to its peer until it reaches zero.
struct Bouncer {
    peer: ActorId,
    serve: Option<u64>,
}

impl Actor<u64> for Bouncer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if let Some(n) = self.serve {
            ctx.send(self.peer, n);
        }
    }
    fn on_message(&mut self, from: ActorId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        if msg > 1 {
            ctx.send(from, msg - 1);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Engine + channels: pairs bouncing one message over a fixed 1 ms
/// channel; returns messages sent (at least `msgs`).
fn pingpong(msgs: u64) -> u64 {
    let mut b = SimBuilder::new(7);
    let pairs = CUT_ACTORS / 2;
    for p in 0..pairs as u32 {
        let bouncer = |peer: u32, serve| {
            Box::new(Bouncer {
                peer: ActorId(peer),
                serve,
            })
        };
        let a = b.add_actor(bouncer(2 * p + 1, Some(msgs / pairs)), NetworkTag(0));
        let c = b.add_actor(bouncer(2 * p, None), NetworkTag(0));
        b.connect_bidi(a, c, ChannelSpec::fixed(Duration::from_millis(1)));
    }
    let mut sim = b.build();
    sim.run(RunLimit::unlimited());
    sim.metrics().counter("engine.messages_sent")
}

/// One half of `pair_deep` without interconnection: 8 processes of
/// `protocol`, `ops` operations each, through build, run and history.
fn memory_cut(
    span: &'static str,
    protocol: ProtocolKind,
    ops: u32,
    seed: u64,
    tracer: &mut Tracer,
) -> MemoryCut {
    let workload = WorkloadSpec {
        ops_per_proc: ops,
        write_fraction: 0.5,
        n_vars: 8,
        mean_gap: Duration::from_millis(2),
        pattern: VarPattern::Uniform,
    };
    let ((events, messages, writes), seconds) = tracer.timed(span, |_| {
        let config = SystemConfig::new(SystemId(0), protocol, 8).with_vars(8);
        let mut system = SingleSystem::build(config, &workload, seed);
        system.run();
        let writes = system.history().writes().len();
        let m = system.sim().metrics();
        (
            m.counter("engine.events_dispatched"),
            m.counter("engine.messages_sent"),
            writes,
        )
    });
    MemoryCut {
        ns_per_event: seconds * 1e9 / events as f64,
        msgs_per_write: messages as f64 / writes as f64,
    }
}

/// Drives `ReliableSender` ↔ `ReliableReceiver` directly for `frames`
/// one-pair frames, acking each before the next. With `drop_every =
/// Some(k)` the wire eats every k-th first transmission and the
/// retransmit timer delivers it. Returns retransmissions.
fn transport(frames: u64, drop_every: Option<u64>) -> u64 {
    let mut tx = ReliableSender::new(ReliableConfig::default());
    let mut rx = ReliableReceiver::new();
    let origin = ProcId::new(SystemId(0), 0);
    let (mut retransmits, mut delivered) = (0u64, 0u64);
    for i in 0..frames {
        let now = SimTime::from_micros(i + 1);
        let pairs = vec![(VarId((i % 8) as u32), Value::new(origin, i as u32 + 1))];
        let mut frame = tx
            .offer(pairs, now)
            .expect("never degraded: every frame is acked before the next");
        if drop_every.is_some_and(|k| i % k == k - 1) {
            let TimeoutAction::Retransmit(again) = tx.on_timeout(now) else {
                panic!("an unacked frame retransmits on timeout");
            };
            frame = again;
            retransmits += 1;
        }
        let out = rx.on_frame(frame.seq, frame.lo, frame.pairs, frame.checksum);
        delivered += out.deliver.len() as u64;
        let ack = out.ack.expect("an intact frame is acked");
        black_box(tx.on_ack(ack, now));
    }
    assert_eq!(delivered, frames, "every pair is delivered exactly once");
    retransmits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuts_do_the_work_they_claim() {
        assert!(flood(6_400) >= 6_400);
        assert!(pingpong(6_400) >= 6_400);
        assert_eq!(transport(1_000, None), 0);
        assert_eq!(transport(1_000, Some(5)), 200);
        let mut t = Tracer::new(true);
        let c = calibrate(3, 100, &mut t);
        assert!(c.sched_ns_1e4 > 0.0 && c.sched_ns_1e6 > 0.0);
        assert!(c.ahamad.msgs_per_write > 0.0 && c.frontier.msgs_per_write > 0.0);
        assert_eq!(c.transport_retransmits_per_frame, 0.2);
        // Every cut is a child of the one calib root.
        assert!(t.spans()[1..].iter().all(|s| s.parent == Some(0)));
    }
}
