//! X23 — sharded multi-core engine: byte-identical replay.
//!
//! The sharded engine ([`ShardedWorld`](cmi_core::ShardedWorld)) runs
//! disjoint connected components on worker threads with a deterministic
//! merge. This experiment pins the claim that makes it safe to use: the
//! canonical multi-island world (and a composed chaos schedule
//! over it) renders the exact same `RunReport::to_json` bytes serially
//! and at 1, 2 and 4 shards.
//!
//! The shard plan and the replay verdict are the `"x23"` block of
//! `BENCH_PERF.json` (written by `exp x18 --json`, checked by
//! `exp x23 --check`). Flood throughput and shard speedup are measured
//! by `benchmark/` (`sim.engine.flood_events_per_s`,
//! `core.shard.speedup`).

use std::time::Duration;

use cmi_core::{InterconnectBuilder, LinkSpec, RunReport, SystemSpec};
use cmi_memory::{ProtocolKind, WorkloadSpec};
use cmi_obs::{Json, ToJson};
use cmi_sim::chaos::ChaosSpec;

use crate::table::Table;

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
        "these facts are pinned in the \"x23\" block of BENCH_PERF.json\n\
         (`exp x23 --check`); flood and shard wall time are measured by\n\
         benchmark/ (sim.engine.flood_events_per_s, core.shard.speedup).\n",
    );
    out
}

/// The `"x23"` block of `BENCH_PERF.json`, which
/// [`x18_perf::measure`](crate::experiments::x18_perf::measure) embeds.
pub(crate) fn fragment() -> Json {
    let (identical, _, groups) = replay_identity(&WorkloadSpec::small());
    Json::obj([(
        "structural",
        Json::obj([
            ("shard_groups", (groups as u64).to_json()),
            ("replay_identical", identical.to_json()),
        ]),
    )])
}

/// [`fragment`] wrapped the way `BENCH_PERF.json` carries it, so
/// `exp x23 --json` output and `--check` input share one shape.
pub fn measure() -> Json {
    Json::obj([
        ("experiment", Json::Str("X23 sharded engine".into())),
        ("x23", fragment()),
    ])
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
