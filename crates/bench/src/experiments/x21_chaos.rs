//! X21 (extension) — churn under chaos: dynamic membership, network
//! partitions and message loss composed by the seeded orchestrator.
//!
//! The paper's Section 1.1 motivates interconnection for links that are
//! not "available all the time"; this experiment pushes that to its
//! operational extreme. A seeded chaos schedule ([`cmi_sim::chaos`])
//! composes partition/heal windows over the inter-system links,
//! crash/recover windows over the IS-processes and detach/attach churn
//! over whole systems, while the online monitor watches every surviving
//! application operation live. The sweep crosses churn rate × partition
//! duration × loss on the pair, chain and star topologies and records,
//! per cell, the monitor verdict plus delivered-vs-shed update counts
//! (`isp.propagate_in` vs the bounded-queue and membership casualties).
//! Two arms mirror X20's alerting idiom: a composed schedule must
//! replay byte-identically, and a stale read injected into a partitioned
//! run's surviving history must fire at the exact closing op.
//! `exp x21 --json` writes the sweep's facts as the `BENCH_CHAOS.json`
//! baseline; chaos wall time is measured by `benchmark/` (the
//! `chaos_lossy` workload's `e2e_wall_s`).

use std::time::Duration;

use cmi_checker::{wio, MonitorConfig, OnlineMonitor};
use cmi_core::{InterconnectBuilder, LinkSpec, ReliableConfig, RunReport, SystemSpec, World};
use cmi_memory::{ProtocolKind, WorkloadSpec};
use cmi_obs::{Json, ToJson};
use cmi_sim::{ChannelSpec, ChaosSpec, FaultSpec};
use cmi_types::{OpRecord, ProcId, SimTime, Value, VarId};

use crate::table::Table;

/// Topology axis of the sweep.
pub const TOPOLOGIES: [&str; 3] = ["pair", "chain", "star"];

/// Churn axis: detach→attach cycles drawn per run.
pub const CHURN_CYCLES: [u32; 2] = [1, 3];

/// Partition-duration axis (each run draws two partition windows of
/// exactly this length).
pub const PARTITION_MS: [u64; 2] = [20, 50];

/// Message-loss axis over the inter-system channels.
pub const LOSS: [f64; 2] = [0.0, 0.25];

const SWEEP_SEED: u64 = 0xC4A05;

/// Shared virtual horizon: window starts are drawn from `[0, HORIZON)`.
const HORIZON: Duration = Duration::from_millis(100);

/// System count per topology name.
fn system_count(topology: &str) -> usize {
    match topology {
        "pair" => 2,
        "chain" => 3,
        "star" => 4,
        other => unreachable!("unknown topology {other}"),
    }
}

/// Builds one sweep world: `n` two-process Ahamad systems, reliable
/// 4 ms links with `loss` drop probability and a deliberately small
/// retransmit backlog cap so sustained partitions exercise the
/// shed-oldest degradation path.
fn chaos_world(topology: &str, loss: f64, seed: u64, monitor: bool) -> World {
    let n = system_count(topology);
    let mut b = InterconnectBuilder::new().with_vars(3);
    if monitor {
        b.enable_monitor();
    }
    let handles: Vec<_> = (0..n)
        .map(|i| b.add_system(SystemSpec::new(format!("S{i}"), ProtocolKind::Ahamad, 2)))
        .collect();
    let mut channel = ChannelSpec::fixed(Duration::from_millis(4));
    if loss > 0.0 {
        channel = channel.with_faults(FaultSpec::none().with_drop(loss));
    }
    let link = |channel: ChannelSpec| {
        LinkSpec::new(Duration::ZERO)
            .with_channel(channel)
            .with_reliability(
                ReliableConfig::default()
                    .with_rto(Duration::from_millis(25))
                    .with_backlog_cap(4),
            )
    };
    match topology {
        // pair and chain: a path graph; star: everything off a hub.
        "pair" | "chain" => {
            for w in handles.windows(2) {
                b.link(w[0], w[1], link(channel.clone()));
            }
        }
        _ => {
            for &leaf in &handles[1..] {
                b.link(handles[0], leaf, link(channel.clone()));
            }
        }
    }
    b.build(seed).expect("sweep topologies are trees")
}

/// The per-cell workload: write-heavy and fast enough that partitions
/// and churn windows overlap in-flight propagation.
fn workload() -> WorkloadSpec {
    WorkloadSpec::small()
        .with_ops(12)
        .with_write_fraction(0.6)
        .with_vars(3)
        .with_mean_gap(Duration::from_millis(3))
}

/// Deterministic per-cell seed.
fn cell_seed(idx: usize) -> u64 {
    SWEEP_SEED ^ ((idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs one sweep cell: compile the chaos schedule against the cell's
/// world, then drive the workload through it.
fn run_cell(topology: &str, churn: u32, partition_ms: u64, loss: f64, idx: usize) -> RunReport {
    let seed = cell_seed(idx);
    let mut world = chaos_world(topology, loss, seed, true);
    let spec = ChaosSpec::new(HORIZON)
        .with_partitions(
            2,
            Duration::from_millis(partition_ms),
            Duration::from_millis(partition_ms),
        )
        .with_churn(churn, Duration::from_millis(20), Duration::from_millis(40));
    let events = world.compile_chaos(&spec, seed);
    world.run_with_chaos(&workload(), &events)
}

/// Updates that never reached a replica: bounded-queue sheds, retry-cap
/// abandonments, pairs drained at detach and pairs lost in crashes.
fn shed_count(report: &RunReport) -> u64 {
    let m = report.metrics();
    m.counter("isp.partition_sheds")
        + m.counter("isp.pairs_abandoned")
        + m.counter("membership.drained_pairs")
        + m.counter("isp.pairs_lost_in_crash")
}

/// Every `(topology, churn, partition, loss)` cell in sweep order.
fn cells() -> Vec<(&'static str, u32, u64, f64)> {
    let mut out = Vec::new();
    for &topology in &TOPOLOGIES {
        for &churn in &CHURN_CYCLES {
            for &partition_ms in &PARTITION_MS {
                for &loss in &LOSS {
                    out.push((topology, churn, partition_ms, loss));
                }
            }
        }
    }
    out
}

/// The composed-replay arm: one schedule drawing from all six event
/// kinds on the chain topology, run twice with the monitor off. The
/// serialized reports must be byte-identical (the monitor's own report
/// records wall-clock check latencies, so replay comparisons exclude
/// it), and a third monitored run must stay quiet.
fn composed_replay() -> (bool, bool, usize) {
    let spec = ChaosSpec::new(Duration::from_millis(140))
        .with_partitions(1, Duration::from_millis(25), Duration::from_millis(45))
        .with_crashes(1, Duration::from_millis(10), Duration::from_millis(25))
        .with_churn(1, Duration::from_millis(20), Duration::from_millis(40));
    let run = |monitor: bool| {
        let mut world = chaos_world("chain", 0.15, SWEEP_SEED, monitor);
        let events = world.compile_chaos(&spec, SWEEP_SEED ^ 0xC0);
        let n = events.len();
        (world.run_with_chaos(&workload(), &events), n)
    };
    let (a, n) = run(false);
    let (b, _) = run(false);
    let identical = a.to_json().to_compact() == b.to_json().to_compact();
    let (monitored, _) = run(true);
    let quiet = monitored
        .monitor()
        .is_some_and(|m| m.is_clean() && m.ops_seen > 0);
    (identical, quiet, n)
}

/// The injected-violation arm, X20's idiom under partition: take the
/// surviving history of a partitioned run and append a stale read —
/// the reader observes the second write, then the first. The monitor
/// must fire at the exact closing op with the pattern named.
fn stale_read_under_partition() -> (Option<(u64, String)>, u64) {
    let mut world = chaos_world("pair", 0.0, SWEEP_SEED ^ 0x51A1E, false);
    let spec = ChaosSpec::new(HORIZON).with_partitions(
        1,
        Duration::from_millis(40),
        Duration::from_millis(40),
    );
    let events = world.compile_chaos(&spec, SWEEP_SEED ^ 0x51A1E);
    let report = world.run_with_chaos(&workload(), &events);
    let mut h = report.global_history();

    let mut procs: Vec<ProcId> = h.iter().map(|r| r.proc).collect();
    procs.sort();
    procs.dedup();
    let (w, r) = (procs[0], procs[1]);
    let base = h.iter().map(|rec| rec.at.as_nanos()).max().unwrap_or(0);
    let at = |k: u64| SimTime::from_nanos(base + 1 + k);
    let x = VarId(0);
    let (v1, v2) = (Value::new(w, u32::MAX - 1), Value::new(w, u32::MAX));
    h.record(OpRecord::write(w, x, v1, at(0)));
    h.record(OpRecord::write(w, x, v2, at(1)));
    h.record(OpRecord::read(r, x, Some(v2), at(2)));
    h.record(OpRecord::read(r, x, Some(v1), at(3)));

    let expected = h.len() as u64 - 1;
    let rep = OnlineMonitor::check_history(&h, MonitorConfig::bounded(procs));
    let fired = rep
        .violation
        .as_ref()
        .map(|v| (v.op_index, v.pattern.to_string()));
    (fired, expected)
}

/// Deterministic registry report (no wall-clock numbers).
pub fn run() -> String {
    let mut t = Table::new(
        format!(
            "churn × partition × loss sweep under the online monitor \
             (2 partition windows/run, horizon {}ms, seed {SWEEP_SEED:#x})",
            HORIZON.as_millis()
        ),
        &[
            "topology",
            "churn",
            "partition ms",
            "loss",
            "monitor",
            "delivered",
            "shed",
        ],
    );
    for (idx, (topology, churn, partition_ms, loss)) in cells().into_iter().enumerate() {
        let report = run_cell(topology, churn, partition_ms, loss, idx);
        let mon = report.monitor().expect("sweep runs are monitored");
        t.row(&[
            topology.to_string(),
            churn.to_string(),
            partition_ms.to_string(),
            format!("{loss:.2}"),
            if mon.is_clean() {
                "causal"
            } else {
                "VIOLATION"
            }
            .to_string(),
            report.metrics().counter("isp.propagate_in").to_string(),
            shed_count(&report).to_string(),
        ]);
    }
    let mut out = t.to_string();

    let (identical, quiet, n_events) = composed_replay();
    out.push_str(&format!(
        "\ncomposed schedule (partition+heal, crash+recover, detach+attach; \
         {n_events} events): replay {}, monitor {}\n",
        if identical {
            "byte-identical"
        } else {
            "DIVERGED"
        },
        if quiet { "quiet" } else { "FIRED" },
    ));
    let (fired, expected) = stale_read_under_partition();
    let (at, pattern) = match &fired {
        Some((op, pattern)) => (op.to_string(), pattern.clone()),
        None => ("MISSED".into(), "—".into()),
    };
    out.push_str(&format!(
        "stale read injected under partition: fired at op {at} (expected {expected}), \
         pattern {pattern}\n\
         these facts are pinned in BENCH_CHAOS.json (`exp x21 --check`);\n\
         chaos wall time is measured by benchmark/ (chaos_lossy e2e_wall_s).\n"
    ));
    out
}

/// The `BENCH_CHAOS.json` artifact: the sweep's structural facts.
pub fn measure() -> Json {
    let mut all_cells_causal = true;
    let mut delivered_positive = true;
    let mut total_shed = 0u64;
    let mut total_resync = 0u64;
    for (idx, (topology, churn, partition_ms, loss)) in cells().into_iter().enumerate() {
        let report = run_cell(topology, churn, partition_ms, loss, idx);
        let mon = report.monitor().expect("sweep runs are monitored");
        all_cells_causal &=
            mon.is_clean() && wio::analyze(&report.global_history()).verdict.is_causal();
        delivered_positive &= report.metrics().counter("isp.propagate_in") > 0;
        total_shed += shed_count(&report);
        total_resync += report.metrics().counter("isp.resync_pairs");
    }
    let (replay_identical, composed_quiet, _) = composed_replay();
    let (fired, expected) = stale_read_under_partition();
    let stale_read_fires_at_closing_op = fired.as_ref().is_some_and(|(op, _)| *op == expected);

    Json::obj([
        ("experiment", Json::Str("X21 chaos churn".into())),
        (
            "structural",
            Json::obj([
                (
                    "topologies",
                    Json::Arr(TOPOLOGIES.iter().map(|t| Json::Str((*t).into())).collect()),
                ),
                (
                    "churn_cycles",
                    Json::Arr(
                        CHURN_CYCLES
                            .iter()
                            .map(|&c| u64::from(c).to_json())
                            .collect(),
                    ),
                ),
                (
                    "partition_ms",
                    Json::Arr(PARTITION_MS.iter().map(|&p| p.to_json()).collect()),
                ),
                (
                    "loss",
                    Json::Arr(LOSS.iter().map(|&l| l.to_json()).collect()),
                ),
                ("all_cells_causal", all_cells_causal.to_json()),
                ("delivered_positive", delivered_positive.to_json()),
                ("sheds_under_pressure", (total_shed > 0).to_json()),
                ("attach_resyncs", (total_resync > 0).to_json()),
                ("replay_identical", replay_identical.to_json()),
                ("composed_quiet", composed_quiet.to_json()),
                (
                    "stale_read_fires_at_closing_op",
                    stale_read_fires_at_closing_op.to_json(),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x21_sweep_cell_replays_byte_identically() {
        let a = run_cell("chain", 1, 50, 0.25, 5);
        let b = run_cell("chain", 1, 50, 0.25, 5);
        // Monitored reports record wall-clock check latencies; compare
        // everything but the monitor block via the metrics + history.
        assert_eq!(
            a.global_history().to_json().to_compact(),
            b.global_history().to_json().to_compact()
        );
        assert_eq!(
            a.metrics().counter("isp.propagate_in"),
            b.metrics().counter("isp.propagate_in")
        );
    }

    #[test]
    fn x21_composed_schedule_replays_and_stays_quiet() {
        let (identical, quiet, n_events) = composed_replay();
        assert!(identical, "composed chaos replay diverged");
        assert!(quiet, "monitor fired on a surviving history");
        assert!(n_events >= 4, "schedule composed {n_events} events");
    }

    #[test]
    fn x21_stale_read_fires_at_the_exact_closing_op() {
        let (fired, expected) = stale_read_under_partition();
        let (op, pattern) = fired.expect("violation must fire");
        assert_eq!(op, expected);
        assert!(!pattern.is_empty());
    }

    #[test]
    fn x21_every_cell_stays_causal_and_delivers() {
        // Debug builds sample one cell per topology; the full grid is
        // pinned by `experiments_output.txt` and BENCH_CHAOS.json.
        for (idx, topology) in TOPOLOGIES.iter().enumerate() {
            let report = run_cell(topology, 1, 50, 0.25, idx * 7);
            let mon = report.monitor().expect("monitored");
            assert!(mon.is_clean(), "{topology}: {:?}", mon.violation);
            assert!(
                report.metrics().counter("isp.propagate_in") > 0,
                "{topology}"
            );
        }
    }
}
