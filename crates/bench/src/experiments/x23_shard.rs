//! X23 — slotted scheduler throughput and sharded multi-core scaling.
//!
//! PR 9 rebuilt the `cmi-sim` hot path (calendar-queue scheduler, dense
//! channel adjacency, payload slab) and added the sharded engine
//! ([`ShardedWorld`](cmi_core::ShardedWorld)) that runs disjoint
//! connected components on worker threads with a deterministic merge.
//! This experiment pins both claims:
//!
//! * **byte-identical replay** — the canonical multi-island world (and
//!   a composed chaos schedule over it) renders the exact same
//!   `RunReport::to_json` bytes serially and at 1, 2 and 4 shards;
//! * **throughput floor** — a raw-engine timer flood must clear
//!   [`FLOOD_FLOOR_EPS`] events/sec on a single core, double the 848k
//!   X18 committed floor the `BinaryHeap` engine recorded;
//! * **shard-scaling curve** — wall time of the island world at 1/2/4
//!   shards, with a CPU-aware speedup gate (machines with one CPU
//!   cannot show a speedup; the curve is still recorded).
//!
//! The registry `run()` prints only deterministic quantities;
//! wall-clock numbers are emitted by `exp x18` (which embeds this
//! module's fields) into `BENCH_PERF.json` and gated by
//! `exp x23 --check` in scripts/verify.sh.

use std::any::Any;
use std::time::Duration;

use cmi_core::{InterconnectBuilder, LinkSpec, RunReport, SystemSpec};
use cmi_memory::{ProtocolKind, WorkloadSpec};
use cmi_obs::{bench, Json, ToJson};
use cmi_sim::chaos::ChaosSpec;
use cmi_sim::{Actor, ActorId, Ctx, NetworkTag, RunLimit, SimBuilder};

use crate::gate::{self, Gate};
use crate::table::Table;

/// The committed baseline must record at least this flood throughput:
/// 2× the 848k events/sec the pre-PR-9 `BinaryHeap` engine committed in
/// `BENCH_PERF.json`. The *measured* value is then compared to the
/// baseline within [`gate::TIMING_TOLERANCE`] so slow CI machines stay
/// green while a silently lowered baseline cannot pass review.
pub const FLOOD_FLOOR_EPS: f64 = 1_700_000.0;

/// Timer-chain actors in the raw-engine flood.
const FLOOD_ACTORS: usize = 64;
/// Timers each flood actor burns through.
const FLOOD_CHAIN: u64 = 4_000;

/// A raw-engine stress actor: burns through a chain of timers, keeping
/// the scheduler hot without any protocol logic on top.
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

/// Runs the raw-engine timer flood and returns events dispatched.
fn flood() -> u64 {
    let mut b = SimBuilder::new(7);
    for _ in 0..FLOOD_ACTORS {
        b.add_actor(
            Box::new(Flood {
                remaining: FLOOD_CHAIN,
            }),
            NetworkTag(0),
        );
    }
    let mut sim = b.build();
    sim.run(RunLimit::unlimited());
    sim.metrics().counter("engine.events_dispatched")
}

/// The canonical island world: four disjoint pairs of 3-process
/// systems, protocols alternating, so the shard planner finds four
/// independent groups.
fn island_builder() -> InterconnectBuilder {
    let mut b = InterconnectBuilder::new();
    for i in 0..4 {
        let protocol = if i % 2 == 0 {
            ProtocolKind::Ahamad
        } else {
            ProtocolKind::Frontier
        };
        let a = b.add_system(SystemSpec::new(format!("S{}a", i), protocol, 3));
        let c = b.add_system(SystemSpec::new(format!("S{}b", i), protocol, 3));
        b.link(a, c, LinkSpec::new(Duration::from_millis(2 + i as u64)));
    }
    b
}

/// Serial reference run of the island world.
fn island_serial(workload: &WorkloadSpec) -> RunReport {
    island_builder()
        .build(23)
        .expect("island topology is valid")
        .run(workload)
}

/// Sharded run of the island world at `shards` workers.
fn island_sharded(workload: &WorkloadSpec, shards: usize) -> RunReport {
    island_builder()
        .build_sharded(23, shards)
        .expect("island topology is valid")
        .run(workload)
}

/// Byte-compares serial vs 1/2/4-shard reports of the island world.
/// Returns (identical, serial report byte length, shard groups).
fn replay_identity(workload: &WorkloadSpec) -> (bool, usize, usize) {
    let serial = island_serial(workload).to_json().to_compact();
    let groups = island_builder()
        .build_sharded(23, 4)
        .expect("island topology is valid")
        .groups()
        .len();
    let identical = [1usize, 2, 4]
        .iter()
        .all(|&shards| island_sharded(workload, shards).to_json().to_compact() == serial);
    (identical, serial.len(), groups)
}

/// Byte-compares serial vs sharded replay under a composed chaos
/// schedule (partitions + crashes + churn across the islands).
fn chaos_replay_identity() -> (bool, usize) {
    let spec = ChaosSpec::new(Duration::from_millis(40))
        .with_partitions(2, Duration::from_millis(3), Duration::from_millis(10))
        .with_crashes(1, Duration::from_millis(2), Duration::from_millis(8))
        .with_churn(1, Duration::from_millis(4), Duration::from_millis(12));
    let workload = WorkloadSpec::small().with_ops(6);

    let world = island_builder()
        .build(23)
        .expect("island topology is valid");
    let schedule = world.compile_chaos(&spec, 0x23);
    let mut world = world;
    let serial = world
        .run_with_chaos(&workload, &schedule)
        .to_json()
        .to_compact();

    let identical = [1usize, 2, 4].iter().all(|&shards| {
        let mut sharded = island_builder()
            .build_sharded(23, shards)
            .expect("island topology is valid");
        sharded
            .run_with_chaos(&workload, &schedule)
            .to_json()
            .to_compact()
            == serial
    });
    (identical, schedule.len())
}

/// Deterministic registry report (no wall-clock numbers).
pub fn run() -> String {
    let mut out = String::new();
    let workload = WorkloadSpec::small();

    let (identical, bytes, groups) = replay_identity(&workload);
    let mut t = Table::new(
        "sharded replay identity (4 island pairs, seed 23, shards 1/2/4 vs serial)",
        &["check", "result"],
    );
    t.row(&["shard groups planned".into(), groups.to_string()]);
    t.row(&["report bytes".into(), bytes.to_string()]);
    t.row(&[
        "serial == 1 == 2 == 4 shards (RunReport::to_json)".into(),
        if identical { "identical" } else { "DIVERGED" }.into(),
    ]);
    out.push_str(&t.to_string());

    let (chaos_identical, schedule_len) = chaos_replay_identity();
    let mut t = Table::new(
        "chaos replay identity (partitions + crashes + churn, seed 0x23)",
        &["check", "result"],
    );
    t.row(&["chaos events compiled".into(), schedule_len.to_string()]);
    t.row(&[
        "serial == 1 == 2 == 4 shards under the schedule".into(),
        if chaos_identical {
            "identical"
        } else {
            "DIVERGED"
        }
        .into(),
    ]);
    out.push_str(&t.to_string());
    out.push_str(
        "wall-clock measurements (flood events/sec, shard-scaling curve) are\n\
         embedded by `exp x18` into BENCH_PERF.json and regression-checked\n\
         by `exp x23 --check` in scripts/verify.sh.\n",
    );
    out
}

/// The X23 artifact fragment embedded under the `"x23"` key of
/// `BENCH_PERF.json` by [`x18_perf::measure`](crate::experiments::x18_perf::measure)
/// and checked by `exp x23 --check`. Returns the human table and
/// the fragment.
pub fn measure(quick: bool) -> (String, Json) {
    let mut out = String::new();
    let reps = if quick { 1 } else { 3 };

    // Raw-engine flood throughput on one core.
    let flood_events = flood();
    let flood_res = bench("x23/flood", 1, reps, flood);
    let flood_eps = flood_events as f64 / (flood_res.median_ns() / 1e9);

    // Shard-scaling curve on the island world, heavier workload so the
    // per-run wall time dominates thread setup.
    let workload = WorkloadSpec::small().with_ops(96);
    let mut walls = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let res = bench(&format!("x23/shards_{shards}"), 0, reps, || {
            island_sharded(&workload, shards)
        });
        walls.push((shards, res.median_ns() / 1e6));
    }
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let (identical, _, groups) = replay_identity(&WorkloadSpec::small());

    let mut t = Table::new(
        "scheduler flood and shard scaling",
        &["case", "wall ms", "throughput / speedup"],
    );
    t.row(&[
        format!("timer flood ({FLOOD_ACTORS} actors × {FLOOD_CHAIN})"),
        format!("{:.2}", flood_res.median_ns() / 1e6),
        format!("{flood_eps:.0} events/sec"),
    ]);
    for &(shards, wall_ms) in &walls {
        t.row(&[
            format!("island world, {shards} shard(s)"),
            format!("{wall_ms:.2}"),
            format!("{:.2}x", walls[0].1 / wall_ms),
        ]);
    }
    t.row(&[
        "available_parallelism".into(),
        String::new(),
        parallelism.to_string(),
    ]);
    out.push_str(&t.to_string());

    let fragment = Json::obj([
        (
            "structural",
            Json::obj([
                ("flood_events", flood_events.to_json()),
                ("shard_groups", (groups as u64).to_json()),
                ("replay_identical", identical.to_json()),
            ]),
        ),
        (
            "timing",
            Json::obj([
                ("flood_events_per_sec", flood_eps.to_json()),
                ("shard_wall_ms_1", walls[0].1.to_json()),
                ("shard_wall_ms_2", walls[1].1.to_json()),
                ("shard_wall_ms_4", walls[2].1.to_json()),
                ("shard_speedup_2", (walls[0].1 / walls[1].1).to_json()),
                ("shard_speedup_4", (walls[0].1 / walls[2].1).to_json()),
            ]),
        ),
    ]);
    (out, fragment)
}

/// [`measure`] wrapped the way `BENCH_PERF.json` carries the fragment,
/// so `exp x23 --json` output and `--check` input share one shape.
fn measure_wrapped(quick: bool) -> (String, Json) {
    let (table, fragment) = measure(quick);
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1) as u64;
    let artifact = Json::obj([
        ("experiment", Json::Str("X23 sharded engine".into())),
        (
            "structural",
            Json::obj([("available_parallelism", parallelism.to_json())]),
        ),
        ("x23", fragment),
    ]);
    (table, artifact)
}

/// X23's share of the baseline gate: the `"x23"` fragment of the
/// committed `BENCH_PERF.json`.
pub const GATE: Gate = Gate {
    baseline: "BENCH_PERF.json",
    section: Some("x23"),
    structural: &["flood_events", "shard_groups", "replay_identical"],
    timing: &[
        "flood_events_per_sec",
        "shard_wall_ms_1",
        "shard_wall_ms_2",
        "shard_wall_ms_4",
    ],
    measure: |quick, _| measure_wrapped(quick),
    extra: Some(shard_rules),
};

/// What only X23 asks on top of the shared rule: replay identity is
/// true (not merely unchanged), every gated timing field is present on
/// both sides, the committed flood floor is at least
/// [`FLOOD_FLOOR_EPS`], and — on machines with ≥ 2 CPUs — the measured
/// 2-shard run beats the 1-shard run.
fn shard_rules(new: &Json, baseline: &Json, errors: &mut Vec<String>) {
    let timing =
        |artifact: &Json, key| gate::path(artifact, &["x23", "timing", key]).and_then(Json::as_f64);
    if gate::path(new, &["x23", "structural", "replay_identical"]).and_then(Json::as_bool)
        != Some(true)
    {
        errors.push("sharded replay no longer byte-identical to serial".into());
    }
    for key in GATE.timing {
        if timing(new, key).is_none() || timing(baseline, key).is_none() {
            errors.push(format!("x23 timing field {key} missing"));
        }
    }
    // The committed baseline itself must clear the raised floor — a
    // regenerated baseline cannot quietly lower it.
    if let Some(eps) = timing(baseline, "flood_events_per_sec") {
        if eps < FLOOD_FLOOR_EPS {
            errors.push(format!(
                "committed flood baseline {eps:.0} events/sec is below the \
                 {FLOOD_FLOOR_EPS:.0} floor"
            ));
        }
    }
    // CPU-aware speedup gate: a 1-CPU container cannot show a speedup
    // (the curve is still recorded); with real parallelism available the
    // 2-shard run must actually beat the 1-shard run.
    let parallelism = gate::recorded_parallelism(new);
    if parallelism >= 2 {
        match timing(new, "shard_speedup_2") {
            Some(s) if s > 1.0 => {}
            Some(s) => errors.push(format!(
                "shard_speedup_2 is {s:.2} on a {parallelism}-CPU machine — \
                 the sharded engine no longer scales"
            )),
            None => errors.push("x23 timing field shard_speedup_2 missing".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x23_report_is_deterministic() {
        assert_eq!(run(), run(), "registry report must be byte-reproducible");
    }

    #[test]
    fn replay_is_identical_across_shard_counts() {
        let (identical, bytes, groups) = replay_identity(&WorkloadSpec::small());
        assert!(identical);
        assert!(bytes > 0);
        assert_eq!(groups, 4);
        let (chaos_identical, schedule_len) = chaos_replay_identity();
        assert!(chaos_identical);
        assert!(schedule_len > 0);
    }
}
