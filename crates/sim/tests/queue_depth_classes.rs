//! Pinning tests for `engine.queue_depth_max` accounting after PR 9.
//!
//! The gauge used to read `queue.len()` — the total over the single
//! global heap. Two things changed underneath it:
//!
//! * the calendar queue splits pending events across a slot ring, a
//!   live batch, the late heap of same-window pushes beside it and an
//!   overflow heap — the depth must still count ALL of them, wherever
//!   they sit;
//! * the sharded engine runs disjoint components in separate worlds,
//!   where a per-world total would depend on the shard count. Depth is
//!   therefore accounted **per depth class** (one class per connected
//!   component) and the gauge records the max class depth — a quantity
//!   that is identical whether the components share one queue or run
//!   on separate shards (`MetricsRegistry::merge` folds gauges by max).

use std::any::Any;
use std::time::Duration;

use cmi_sim::{Actor, ActorId, Ctx, NetworkTag, RunLimit, SimBuilder};

/// Schedules `near` timers at +1 ms and `far` timers at +2 s (beyond
/// the default ring horizon of ~1.07 s, so they land in the overflow
/// heap). With `late` > 0 it also schedules one timer at +0.5 ms that,
/// when it fires, schedules `late` more 0.1 ms on: those land in the
/// 2²⁰ ns window that is already draining. Ignores everything else.
struct Burst {
    near: u32,
    far: u32,
    late: u32,
}

const SPAWN_LATE: u64 = u64::MAX;

impl Actor<()> for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for i in 0..self.near {
            ctx.schedule(Duration::from_millis(1), u64::from(i));
        }
        for i in 0..self.far {
            ctx.schedule(Duration::from_secs(2), u64::from(1000 + i));
        }
        if self.late > 0 {
            ctx.schedule(Duration::from_micros(500), SPAWN_LATE);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, ()>) {
        if token == SPAWN_LATE {
            for i in 0..self.late {
                ctx.schedule(Duration::from_micros(100), u64::from(2000 + i));
            }
        }
    }

    fn on_message(&mut self, _from: ActorId, _msg: (), _ctx: &mut Ctx<'_, ()>) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn depth_after_run(bursts: &[(u32, u32)], classes: Option<Vec<u32>>) -> f64 {
    let bursts: Vec<Burst> = bursts
        .iter()
        .map(|&(near, far)| Burst { near, far, late: 0 })
        .collect();
    depth_after_bursts(bursts, classes)
}

fn depth_after_bursts(bursts: Vec<Burst>, classes: Option<Vec<u32>>) -> f64 {
    let mut b = SimBuilder::new(1);
    for burst in bursts {
        b.add_actor(Box::new(burst), NetworkTag(0));
    }
    if let Some(classes) = classes {
        b.set_depth_classes(classes);
    }
    let mut sim = b.build();
    sim.run(RunLimit::unlimited());
    sim.metrics()
        .gauge("engine.queue_depth_max")
        .expect("depth gauge recorded")
}

#[test]
fn depth_counts_ring_and_overflow_together() {
    // 6 near-future (slot ring) + 6 far-future (overflow heap) events
    // pending at the first pop: the gauge must see all 12, not just the
    // ring's share.
    assert_eq!(depth_after_run(&[(6, 6)], None), 12.0);
}

#[test]
fn depth_counts_same_window_pushes_beside_the_live_batch() {
    // First pop (+0.5 ms): 6 near + 2 far + the spawner = 9 pending, the
    // batch of window [0, 2²⁰ ns) live. The spawner then pushes 5 timers
    // at +0.6 ms into that window, so the next pop sees 6 + 2 + 5 = 13:
    // batch, late heap and overflow together.
    let burst = Burst {
        near: 6,
        far: 2,
        late: 5,
    };
    assert_eq!(depth_after_bursts(vec![burst], None), 13.0);
    // Per class, too: the late entries count for their own class only.
    let bursts = vec![
        Burst {
            near: 6,
            far: 2,
            late: 5,
        },
        Burst {
            near: 10,
            far: 0,
            late: 0,
        },
    ];
    assert_eq!(depth_after_bursts(bursts, Some(vec![0, 1])), 13.0);
}

#[test]
fn single_class_depth_is_the_total_queue_depth() {
    // Default classing (everything in class 0) preserves the pre-PR-9
    // meaning: the max total number of pending events.
    assert_eq!(depth_after_run(&[(10, 0), (4, 0)], None), 14.0);
}

#[test]
fn per_class_depth_is_the_max_class_not_the_sum() {
    // Two classes — as built for two disjoint components. 10 + 4 events
    // are pending simultaneously, but the gauge records the heaviest
    // CLASS (10): that is the value a sharded run reproduces exactly,
    // since each shard only ever sees its own class and the merge folds
    // gauges by max. A total (14) would depend on the shard count.
    assert_eq!(depth_after_run(&[(10, 0), (4, 0)], Some(vec![0, 1])), 10.0);
    // Symmetric: the heavier class may come second.
    assert_eq!(depth_after_run(&[(4, 0), (10, 4)], Some(vec![0, 1])), 14.0);
}
