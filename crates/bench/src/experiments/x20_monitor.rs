//! X20 (extension) — online causal monitor: streaming verdicts during
//! the run instead of a post-mortem check.
//!
//! The monitor ([`cmi_checker::online`]) consumes the same histories the
//! offline writes-into fast path checks, but as a stream: it maintains
//! the program-order ∪ writes-into saturation incrementally, retires
//! fully-dominated writes to bound its state, and flags the **first**
//! violation at the exact op that closes it. This experiment sweeps
//! history sizes from 10³ to 10⁵ operations and records, per size, the
//! monitor's verdict and bounded-state footprint (deterministic, pinned
//! in `experiments_output.txt`), plus first-violation alerting arms and
//! a faulted simulation arm (30 % frame loss over the reliable
//! transport) on which the monitor must stay quiet. `exp x20 --json`
//! writes those facts as the `BENCH_MONITOR.json` baseline, together
//! with `overhead_ok`: at the largest size the monitor, timed in the same
//! process against the offline fast path, costs at most
//! [`OVERHEAD_LIMIT`] times as much.

use std::time::Duration;

use cmi_checker::{wio, MonitorConfig, MonitorReport, OnlineMonitor};
use cmi_core::{InterconnectBuilder, LinkSpec, ReliableConfig, SystemSpec};
use cmi_memory::{ProtocolKind, WorkloadSpec};
use cmi_obs::{Json, ToJson};
use cmi_types::{History, ProcId, SystemId};

use super::x19_checker::{causal_history, saturation_history, stale_read_history, PROCS, VARS};
use crate::table::Table;

/// The ops sweep.
pub const SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// Online overhead gate: at the largest size the monitor must finish
/// within this factor of the offline fast path.
pub const OVERHEAD_LIMIT: f64 = 2.0;

/// Sublinearity gate: a 10× ops growth (10⁴ → 10⁵) must grow the
/// retirement-governed peak state by strictly less than this factor.
pub const SUBLINEAR_LIMIT: f64 = 8.0;

const SWEEP_SEED: u64 = 0x0B5E55;

/// The production monitor configuration over the generated store's
/// process set.
fn monitor_config() -> MonitorConfig {
    MonitorConfig::bounded(
        (0..PROCS)
            .map(|i| ProcId::new(SystemId(0), i as u16))
            .collect(),
    )
}

fn monitored(h: &History) -> MonitorReport {
    OnlineMonitor::check_history(h, monitor_config())
}

/// A 30 %-loss interconnection run with the monitor tapped in: the
/// reliable transport masks the faults, so the run stays causal and the
/// monitor must stay quiet while watching every application op live.
fn faulted_run() -> cmi_core::RunReport {
    let mut b = InterconnectBuilder::new().with_vars(3);
    let a = b.add_system(SystemSpec::new("A", ProtocolKind::Ahamad, 2));
    let c = b.add_system(SystemSpec::new("B", ProtocolKind::Ahamad, 2));
    let channel = cmi_sim::ChannelSpec::fixed(Duration::from_millis(5))
        .with_faults(cmi_sim::FaultSpec::none().with_drop(0.30));
    b.link(
        a,
        c,
        LinkSpec::new(Duration::ZERO)
            .with_channel(channel)
            .with_reliability(ReliableConfig::default().with_rto(Duration::from_millis(40))),
    );
    b.enable_monitor();
    let mut world = b.build(SWEEP_SEED).expect("two-system chain");
    world.run(
        &WorkloadSpec::small()
            .with_ops(20)
            .with_write_fraction(0.5)
            .with_mean_gap(Duration::from_millis(5)),
    )
}

/// The deterministic sweep table shared by `run()` and the tests: per
/// size, the monitor's verdict and bounded-state footprint.
fn sweep_report(sizes: &[usize]) -> String {
    let mut t = Table::new(
        format!(
            "online monitor on causal replicated-store histories \
             ({PROCS} procs, {VARS} vars, seed {SWEEP_SEED:#x})"
        ),
        &[
            "ops",
            "verdict",
            "peak frontier",
            "retired",
            "peak state B",
            "reads evicted",
        ],
    );
    for &ops in sizes {
        let rep = monitored(&causal_history(SWEEP_SEED, ops));
        t.row(&[
            ops.to_string(),
            if rep.is_clean() {
                "causal"
            } else {
                "VIOLATION"
            }
            .to_string(),
            rep.peak_frontier.to_string(),
            rep.retired.to_string(),
            rep.peak_state_bytes.to_string(),
            rep.reads_evicted.to_string(),
        ]);
    }
    t.to_string()
}

/// The alerting arms: injected violations must fire at the exact op
/// that closes the bad pattern, with the pattern named.
fn alert_report() -> String {
    let mut t = Table::new(
        "first-violation alerting (violation appended to a 1k-op causal prefix)",
        &["arm", "fired at op", "expected", "pattern"],
    );
    for (label, h) in [
        ("stale read injected", stale_read_history(SWEEP_SEED, 1_000)),
        (
            "saturation-only violation (CM separator)",
            saturation_history(SWEEP_SEED, 1_000),
        ),
    ] {
        let expected = h.len() as u64 - 1;
        let rep = monitored(&h);
        let (at, pattern) = match &rep.violation {
            Some(v) => (v.op_index.to_string(), v.pattern.to_string()),
            None => ("MISSED".into(), "—".into()),
        };
        t.row(&[label.to_string(), at, expected.to_string(), pattern]);
    }
    t.to_string()
}

/// Deterministic registry report (no wall-clock numbers).
pub fn run() -> String {
    let mut out = String::new();
    out.push_str(&sweep_report(&SIZES));
    out.push_str(&alert_report());
    let faulted = faulted_run();
    let mon = faulted.monitor().expect("monitor enabled");
    out.push_str(&format!(
        "\nfaulted arm (30% loss, reliable transport): monitor {} over {} live ops, \
         peak frontier {}\n\
         these facts and overhead_ok (online <= {OVERHEAD_LIMIT}x offline, timed in-process)\n\
         are pinned in BENCH_MONITOR.json (`exp x20 --check`).\n",
        if mon.is_clean() { "quiet" } else { "FIRED" },
        mon.ops_seen,
        mon.peak_frontier,
    ));
    out
}

/// The `BENCH_MONITOR.json` artifact: the sweep's structural facts.
pub fn measure() -> Json {
    let mut quiet_on_causal = true;
    let mut verdict_agreement = true;
    let mut peaks = Vec::new();
    for &ops in &SIZES {
        let h = causal_history(SWEEP_SEED, ops);
        let rep = monitored(&h);
        quiet_on_causal &= rep.is_clean() && rep.violation.is_none();
        verdict_agreement &= wio::analyze(&h).verdict.is_causal() == rep.verdict.is_causal();
        peaks.push(rep.peak_state_bytes);
    }
    let largest = causal_history(SWEEP_SEED, SIZES[SIZES.len() - 1]);
    let overhead = super::calibrated_ratio(|| wio::analyze(&largest), || monitored(&largest));

    // Violation arms: the monitor must fire at the exact closing op and
    // agree with the offline fast path.
    let mut violation_op_exact = true;
    for h in [
        stale_read_history(SWEEP_SEED, 10_000),
        saturation_history(SWEEP_SEED, 10_000),
    ] {
        let rep = monitored(&h);
        verdict_agreement &= !wio::analyze(&h).verdict.is_causal() && !rep.is_clean();
        violation_op_exact &= rep
            .violation
            .as_ref()
            .is_some_and(|v| v.op_index == h.len() as u64 - 1);
    }

    let peak_state_sublinear = (peaks[2] as f64) < SUBLINEAR_LIMIT * (peaks[1] as f64);
    let overhead_ok = overhead <= OVERHEAD_LIMIT;
    let faulted = faulted_run();
    let faulted_mon = faulted.monitor().expect("monitor enabled");
    let faulted_quiet = faulted_mon.is_clean() && faulted_mon.ops_seen > 0;

    Json::obj([
        ("experiment", Json::Str("X20 online monitor".into())),
        (
            "structural",
            Json::obj([
                (
                    "sizes",
                    Json::Arr(SIZES.iter().map(|&s| (s as u64).to_json()).collect()),
                ),
                ("procs", u64::from(PROCS).to_json()),
                ("vars", u64::from(VARS).to_json()),
                ("quiet_on_causal", quiet_on_causal.to_json()),
                ("verdict_agreement", verdict_agreement.to_json()),
                ("violation_op_exact", violation_op_exact.to_json()),
                ("peak_state_sublinear", peak_state_sublinear.to_json()),
                ("overhead_ok", overhead_ok.to_json()),
                ("faulted_quiet", faulted_quiet.to_json()),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x20_sweep_report_is_deterministic() {
        // Debug builds keep the determinism check small; the full-size
        // report is pinned by `experiments_output.txt` in release.
        let a = sweep_report(&[100, 400]);
        let b = sweep_report(&[100, 400]);
        assert_eq!(a, b);
    }

    #[test]
    fn x20_alerts_fire_at_the_exact_closing_op() {
        for h in [stale_read_history(7, 200), saturation_history(7, 200)] {
            let rep = monitored(&h);
            let v = rep.violation.expect("violation must fire");
            assert_eq!(v.op_index, h.len() as u64 - 1);
            assert!(!wio::analyze(&h).verdict.is_causal(), "oracle agrees");
        }
    }

    #[test]
    fn x20_monitor_retires_state_on_the_sweep_workload() {
        let rep = monitored(&causal_history(7, 2_000));
        assert!(rep.is_clean(), "{:?}", rep.violation);
        assert!(rep.retired > 0, "no retirement over {} ops", rep.ops_seen);
        assert!(rep.peak_frontier < rep.ops_seen / 2);
    }

    #[test]
    fn x20_faulted_run_keeps_the_monitor_quiet() {
        let report = faulted_run();
        let mon = report.monitor().expect("monitor enabled");
        assert!(mon.is_clean(), "{:?}", mon.violation);
        assert!(mon.ops_seen > 0, "tap must see the live ops");
        assert_eq!(mon.ops_checked, mon.ops_seen);
    }
}
