//! Experiment X6 — Theorem 1 and Corollary 1 as executable checks.
//!
//! Theorem 1: the system obtained by connecting two propagation-based
//! causal systems with the IS-protocols is causal. Corollary 1: the same
//! holds for any number of systems interconnected in a tree.
//!
//! Each test runs a randomized workload on an interconnected world and
//! verifies that the observed computation `α^T` (IS-process operations
//! excluded, as in the paper's Section 4) is causal per Definitions 1–5,
//! and that each per-system computation `α^k` is causal too.

use std::time::Duration;

use cmi::checker::causal;
use cmi::core::{InterconnectBuilder, IsTopology, LinkSpec, RunReport, SystemSpec};
use cmi::memory::{ProtocolKind, WorkloadSpec};

fn assert_all_causal(report: &RunReport, label: &str) {
    let global = report.global_history();
    assert!(
        global.validate_differentiated().is_ok(),
        "{label}: α^T must be differentiated"
    );
    let verdict = causal::check(&global);
    assert!(
        verdict.is_causal(),
        "{label}: α^T not causal: {:?}",
        verdict.verdict
    );
    for sys in 0..report_system_count(report) {
        let sys_id = cmi::types::SystemId(sys as u16);
        let alpha_k = report.system_history(sys_id);
        let v = causal::check(&alpha_k);
        assert!(
            v.is_causal(),
            "{label}: α^{sys} not causal: {:?}",
            v.verdict
        );
    }
}

fn report_system_count(report: &RunReport) -> usize {
    let mut n = 0;
    for op in report.full_history().iter() {
        n = n.max(op.proc.system.index() + 1);
    }
    n
}

fn pair(protocol_a: ProtocolKind, protocol_b: ProtocolKind, seed: u64) -> RunReport {
    let mut b = InterconnectBuilder::new().with_vars(3);
    let a = b.add_system(SystemSpec::new("A", protocol_a, 3));
    let c = b.add_system(SystemSpec::new("B", protocol_b, 3));
    b.link(a, c, LinkSpec::new(Duration::from_millis(8)));
    let mut world = b.build(seed).unwrap();
    world.run(&WorkloadSpec::small().with_ops(10))
}

#[test]
fn two_ahamad_systems_interconnect_causally() {
    for seed in 0..8 {
        let report = pair(ProtocolKind::Ahamad, ProtocolKind::Ahamad, seed);
        assert!(report.outcome().is_quiescent());
        assert_all_causal(&report, &format!("ahamad×ahamad seed {seed}"));
    }
}

#[test]
fn heterogeneous_protocols_interconnect_causally() {
    // The paper's headline flexibility: systems "possibly implemented
    // with different algorithms".
    let combos = [
        (ProtocolKind::Ahamad, ProtocolKind::Frontier),
        (ProtocolKind::Frontier, ProtocolKind::Sequencer),
        (ProtocolKind::Sequencer, ProtocolKind::Ahamad),
    ];
    for (i, (pa, pb)) in combos.into_iter().enumerate() {
        let report = pair(pa, pb, 100 + i as u64);
        assert!(report.outcome().is_quiescent(), "{pa}×{pb} quiesces");
        assert_all_causal(&report, &format!("{pa}×{pb}"));
    }
}

#[test]
fn values_actually_cross_the_interconnection() {
    // Guard against vacuous causality: at least one read in each system
    // must return a value originated in the other system. The run must be
    // long relative to the link delay, or no cross value arrives in time.
    let mut b = InterconnectBuilder::new().with_vars(3);
    let a = b.add_system(SystemSpec::new("A", ProtocolKind::Ahamad, 3));
    let c = b.add_system(SystemSpec::new("B", ProtocolKind::Ahamad, 3));
    b.link(a, c, LinkSpec::new(Duration::from_millis(5)));
    let mut world = b.build(3).unwrap();
    let report = world.run(&WorkloadSpec::small().with_ops(40).with_write_fraction(0.4));
    let global = report.global_history();
    let mut cross = [false, false];
    for op in global.iter() {
        if let Some(Some(v)) = op.read_value() {
            let reader_sys = op.proc.system.index();
            let origin_sys = v.origin().system.index();
            if reader_sys != origin_sys {
                cross[reader_sys] = true;
            }
        }
    }
    assert!(
        cross[0] && cross[1],
        "expected cross-system reads in both directions, got {cross:?}"
    );
}

#[test]
fn corollary1_tree_of_four_systems_is_causal() {
    // A – B – C star + D off B: a genuine tree, mixed protocols.
    let mut b = InterconnectBuilder::new().with_vars(3);
    let a = b.add_system(SystemSpec::new("A", ProtocolKind::Ahamad, 2));
    let c = b.add_system(SystemSpec::new("B", ProtocolKind::Frontier, 2));
    let d = b.add_system(SystemSpec::new("C", ProtocolKind::Ahamad, 2));
    let e = b.add_system(SystemSpec::new("D", ProtocolKind::Sequencer, 2));
    b.link(a, c, LinkSpec::new(Duration::from_millis(10)));
    b.link(c, d, LinkSpec::new(Duration::from_millis(20)));
    b.link(c, e, LinkSpec::new(Duration::from_millis(5)));
    let mut world = b.build(7).unwrap();
    let report = world.run(&WorkloadSpec::small().with_ops(5));
    assert!(report.outcome().is_quiescent());
    assert_all_causal(&report, "tree of four");
}

#[test]
fn corollary1_holds_for_shared_is_topology() {
    let mut b = InterconnectBuilder::new()
        .with_vars(3)
        .with_topology(IsTopology::Shared);
    let a = b.add_system(SystemSpec::new("A", ProtocolKind::Ahamad, 2));
    let c = b.add_system(SystemSpec::new("B", ProtocolKind::Ahamad, 2));
    let d = b.add_system(SystemSpec::new("C", ProtocolKind::Frontier, 2));
    b.link(a, c, LinkSpec::new(Duration::from_millis(4)));
    b.link(c, d, LinkSpec::new(Duration::from_millis(4)));
    let mut world = b.build(11).unwrap();
    let report = world.run(&WorkloadSpec::small().with_ops(30).with_write_fraction(0.4));
    assert!(report.outcome().is_quiescent());
    assert_all_causal(&report, "shared-IS chain");

    // End-to-end propagation: a value from system A must become visible
    // in system C (two hops through B's shared IS-process).
    let global = report.global_history();
    let crossed = global.iter().any(|op| {
        matches!(op.read_value(), Some(Some(v))
            if op.proc.system.index() == 2 && v.origin().system.index() == 0)
    });
    assert!(crossed, "no A-originated value was read in C");
}

#[test]
fn variant2_pre_propagate_is_also_causal() {
    // Force IS-protocol variant 2 (Pre_Propagate_out enabled) — correct
    // for any causal MCS protocol, per Lemma 1's general case.
    for seed in 0..4 {
        let mut b = InterconnectBuilder::new()
            .with_vars(3)
            .force_pre_propagate();
        let a = b.add_system(SystemSpec::new("A", ProtocolKind::Ahamad, 3));
        let c = b.add_system(SystemSpec::new("B", ProtocolKind::Frontier, 3));
        b.link(a, c, LinkSpec::new(Duration::from_millis(12)));
        let mut world = b.build(seed).unwrap();
        let report = world.run(&WorkloadSpec::small().with_ops(6));
        assert!(report.outcome().is_quiescent());
        assert_all_causal(&report, &format!("variant-2 seed {seed}"));
    }
}

/// The known counterexample, shrunk by hand from
/// `benchmark/known_bad/churn_loss.json`: a lossy A–B–C chain, two
/// processes a system, two variables, 180 operations and one
/// detach/attach. Every α^k stays causal, yet α^T ends with a stale
/// read: the attach resync sends a replica's snapshot as fresh writes,
/// and one of them carries a value the reader had seen overwritten.
#[test]
#[ignore = "ROADMAP item 1: attach resync re-injects a causally overwritten value"]
fn attach_resync_keeps_the_union_causal() {
    let text = include_str!("data/churn_resync.json");
    let scenario = cmi_cli::Scenario::from_json(text).expect("scenario parses");
    scenario.validate().expect("scenario validates");
    let report = scenario.run().expect("scenario builds");
    assert_all_causal(&report, "churn_resync");
}

#[test]
fn witnesses_from_the_checker_validate() {
    let report = pair(ProtocolKind::Ahamad, ProtocolKind::Frontier, 42);
    let global = report.global_history();
    // The default `check` decides via the witness-free fast path; the
    // exhaustive engine is the one that produces verifiable views.
    let result = causal::check_exhaustive(&global);
    assert!(result.is_causal());
    assert!(
        !result.views.is_empty(),
        "exhaustive engine emits witnesses"
    );
    for (proc, view) in &result.views {
        causal::validate_view(&global, *proc, view)
            .unwrap_or_else(|e| panic!("witness for {proc} invalid: {e}"));
    }
}
