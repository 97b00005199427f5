//! X24 (extension) — large-m scale-out: the m = 2 → 256 churn sweep
//! over hub-of-hubs topologies with O(1) frame metadata.
//!
//! ROADMAP item 1 asks for hundreds of systems with dynamic join/leave
//! and names vector-clock growth as the scaling killer. This sweep
//! expands [`cmi_core::TopologySpec::hub_of_hubs`] (fan-out 8, shared
//! IS-processes, reliable framed links) at every power of two from 2
//! to 256 systems and measures, per m: link crossings (which must hit
//! the closed form `writes × (m − 1)` exactly — every update crosses
//! every tree edge once), per-frame causal-metadata bytes (the
//! steady-state [`cmi_core::FrameMeta::O1`] path must stay at 9 bytes
//! *flat* in m, where explicit clocks would grow `3 + 8m`), and
//! convergence latency (worst-case write visibility, virtual time). A
//! second arm re-runs each m under seeded detach/attach churn with the
//! online monitor sampling causality live (m ≤ 64): the monitor must
//! stay quiet, the per-frame delivery condition must never fire, and
//! frames shipped inside attach/resync windows must fall back to
//! explicit clocks (`isp.frames_clocked`). `exp x24 --json` writes the
//! sweep's facts as the `BENCH_X24.json` baseline; wall time at this
//! scale is measured by `benchmark/` (the `hub256_wide` workload's
//! `e2e_wall_s`).

use std::time::Duration;

use cmi_core::{InterconnectBuilder, IsTopology, LinkSpec, ReliableConfig, TopologySpec, World};
use cmi_memory::{ProtocolKind, WorkloadSpec};
use cmi_obs::{Json, ToJson};
use cmi_sim::{ChannelSpec, ChaosSpec};

use crate::table::Table;

/// The m axis: every power of two from 2 to 256.
pub const M_VALUES: [usize; 8] = [2, 4, 8, 16, 32, 64, 128, 256];

/// Leaves per mid-tier hub in the hub-of-hubs expansion.
pub const FANOUT: usize = 8;

/// Monitoring cap: the online monitor samples causality live on every
/// churned cell up to this m (the checker's bounded state is per-proc
/// quadratic; larger worlds are covered by the steady-arm closed forms
/// and the delivery-condition counter instead).
pub const MONITOR_MAX_M: usize = 64;

const SWEEP_SEED: u64 = 0x5CA1E;

/// Writes each application process issues in the steady arm (the
/// closed forms below are linear in this).
const STEADY_WRITES: u32 = 2;

/// Deterministic per-cell seed.
fn cell_seed(idx: usize) -> u64 {
    SWEEP_SEED ^ ((idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Builds one sweep world: an m-system hub-of-hubs of single-process
/// Ahamad systems over reliable framed 2 ms links, shared IS-processes.
fn scale_world(m: usize, seed: u64, monitor: bool, force_clocked: bool) -> World {
    let mut b = InterconnectBuilder::new().with_vars(2);
    if monitor {
        b.enable_monitor();
    }
    if force_clocked {
        b = b.force_clocked_metadata();
    }
    let link = LinkSpec::new(Duration::from_millis(1))
        .with_channel(ChannelSpec::fixed(Duration::from_millis(2)))
        .with_reliability(ReliableConfig::default().with_rto(Duration::from_millis(80)));
    TopologySpec::hub_of_hubs(m, FANOUT).expand_uniform(&mut b, ProtocolKind::Ahamad, 1, &link);
    b.with_topology(IsTopology::Shared)
        .build(seed)
        .expect("hub-of-hubs is a tree")
}

/// Steady-arm workload: write-only so the crossing count has a closed
/// form (reads generate no inter-system traffic).
fn steady_workload() -> WorkloadSpec {
    WorkloadSpec::write_only(STEADY_WRITES, 2)
}

/// Churn-arm workload: small and mixed, so the monitor sees reads.
fn churn_workload() -> WorkloadSpec {
    WorkloadSpec::small()
        .with_ops(4)
        .with_write_fraction(0.6)
        .with_vars(2)
        .with_mean_gap(Duration::from_millis(3))
}

/// One detach→attach cycle drawn over a 60 ms horizon.
fn churn_spec() -> ChaosSpec {
    ChaosSpec::new(Duration::from_millis(60)).with_churn(
        1,
        Duration::from_millis(10),
        Duration::from_millis(25),
    )
}

/// Per-m facts of one steady (no-churn) cell.
struct SteadyCell {
    crossings: u64,
    frames_o1: u64,
    frames_clocked: u64,
    o1_bytes_per_frame: u64,
    converge_us: u64,
    meta_violations: u64,
}

/// Runs the steady arm at `m` and extracts the per-m facts.
fn run_steady(m: usize, idx: usize) -> SteadyCell {
    let mut world = scale_world(m, cell_seed(idx), false, false);
    let report = world.run(&steady_workload());
    assert!(report.outcome().is_quiescent(), "m={m}: did not drain");
    let metrics = report.metrics();
    let frames_o1 = metrics.counter("isp.frames_o1");
    let converge_us = report
        .write_visibility()
        .iter()
        .map(|wv| wv.max_latency())
        .max()
        .unwrap_or_default()
        .as_micros() as u64;
    SteadyCell {
        crossings: metrics.counter("isp.link_pairs_sent"),
        frames_o1,
        frames_clocked: metrics.counter("isp.frames_clocked"),
        o1_bytes_per_frame: if frames_o1 == 0 {
            0
        } else {
            metrics.counter("isp.meta_bytes_o1") / frames_o1
        },
        converge_us,
        meta_violations: metrics.counter("isp.meta_violations"),
    }
}

/// Per-m facts of one churned cell.
struct ChurnCell {
    monitored: bool,
    causal: bool,
    frames_clocked: u64,
    meta_violations: u64,
    churn_events: usize,
}

/// Runs the churn arm at `m`: one seeded detach→attach cycle, online
/// monitor attached for m ≤ [`MONITOR_MAX_M`].
fn run_churn(m: usize, idx: usize) -> ChurnCell {
    let monitored = m <= MONITOR_MAX_M;
    let seed = cell_seed(idx) ^ 0xC0;
    let mut world = scale_world(m, seed, monitored, false);
    let events = world.compile_chaos(&churn_spec(), seed);
    let n_events = events.len();
    let report = world.run_with_chaos(&churn_workload(), &events);
    assert!(report.outcome().is_quiescent(), "m={m}: churned run hung");
    ChurnCell {
        monitored,
        causal: report.monitor().map(|mon| mon.is_clean()).unwrap_or(true),
        frames_clocked: report.metrics().counter("isp.frames_clocked"),
        meta_violations: report.metrics().counter("isp.meta_violations"),
        churn_events: n_events,
    }
}

/// Per-frame metadata bytes of a forced-explicit-clock run at `m` —
/// the `3 + 8m` growth the O(1) path avoids.
fn clocked_bytes_per_frame(m: usize) -> u64 {
    let mut world = scale_world(m, SWEEP_SEED ^ 0xCE, false, true);
    let report = world.run(&steady_workload());
    let frames = report.metrics().counter("isp.frames_clocked");
    assert!(frames > 0, "forced-clock run at m={m} shipped no frames");
    report.metrics().counter("isp.meta_bytes_clocked") / frames
}

/// Deterministic registry report (no wall-clock numbers).
pub fn run() -> String {
    let mut t = Table::new(
        format!(
            "hub-of-hubs (fan-out {FANOUT}, shared IS) m-sweep, write-only \
             {STEADY_WRITES} ops/proc (seed {SWEEP_SEED:#x})",
        ),
        &[
            "m",
            "diameter",
            "crossings",
            "closed form",
            "O(1) frames",
            "meta B/frame",
            "converge",
            "churn monitor",
        ],
    );
    for (idx, &m) in M_VALUES.iter().enumerate() {
        let steady = run_steady(m, idx);
        let churn = run_churn(m, idx);
        let writes = u64::from(STEADY_WRITES) * m as u64;
        t.row(&[
            m.to_string(),
            TopologySpec::hub_of_hubs(m, FANOUT).diameter().to_string(),
            steady.crossings.to_string(),
            (writes * (m as u64 - 1)).to_string(),
            steady.frames_o1.to_string(),
            steady.o1_bytes_per_frame.to_string(),
            format!("{:.1} ms", steady.converge_us as f64 / 1e3),
            if !churn.monitored {
                "(unsampled)".to_string()
            } else if churn.causal {
                "causal".to_string()
            } else {
                "VIOLATION".to_string()
            },
        ]);
    }
    let (c4, c64) = (clocked_bytes_per_frame(4), clocked_bytes_per_frame(64));
    let mut out = t.to_string();
    out.push_str(&format!(
        "\nexplicit-clock fallback for comparison: {c4} B/frame at m=4, \
         {c64} B/frame at m=64 (3 + 8m, linear) — the steady-state O(1) \
         path stays at 9 B/frame for every m.\n\
         these facts are pinned in BENCH_X24.json (`exp x24 --check`);\n\
         hub wall time is measured by benchmark/ (hub256_wide e2e_wall_s).\n"
    ));
    out
}

/// The `BENCH_X24.json` artifact: the sweep's structural facts.
pub fn measure() -> Json {
    let mut crossings_by_m = Vec::new();
    let mut o1_bytes_by_m = Vec::new();
    let mut converge_us_by_m = Vec::new();
    let mut closed_form_exact = true;
    let mut steady_all_o1 = true;
    let mut monitored_churn_causal = true;
    let mut meta_violations = 0u64;
    let mut churn_fallback_frames = 0u64;
    let mut churn_events = 0usize;
    for (idx, &m) in M_VALUES.iter().enumerate() {
        let steady = run_steady(m, idx);
        closed_form_exact &=
            steady.crossings == u64::from(STEADY_WRITES) * (m as u64) * (m as u64 - 1);
        steady_all_o1 &= steady.frames_clocked == 0 && steady.frames_o1 > 0;
        meta_violations += steady.meta_violations;
        crossings_by_m.push(steady.crossings);
        o1_bytes_by_m.push(steady.o1_bytes_per_frame);
        converge_us_by_m.push(steady.converge_us);

        let churn = run_churn(m, idx);
        monitored_churn_causal &= !churn.monitored || churn.causal;
        meta_violations += churn.meta_violations;
        churn_fallback_frames += churn.frames_clocked;
        churn_events += churn.churn_events;
    }
    let o1_flat = o1_bytes_by_m.iter().all(|&b| b == 9);
    let (clocked_m4, clocked_m64) = (clocked_bytes_per_frame(4), clocked_bytes_per_frame(64));

    Json::obj([
        ("experiment", Json::Str("X24 large-m scale-out".into())),
        (
            "structural",
            Json::obj([
                (
                    "m_values",
                    Json::Arr(M_VALUES.iter().map(|&m| (m as u64).to_json()).collect()),
                ),
                ("fanout", (FANOUT as u64).to_json()),
                (
                    "crossings_by_m",
                    Json::Arr(crossings_by_m.iter().map(|c| c.to_json()).collect()),
                ),
                ("crossings_closed_form_exact", closed_form_exact.to_json()),
                (
                    "o1_bytes_per_frame_by_m",
                    Json::Arr(o1_bytes_by_m.iter().map(|b| b.to_json()).collect()),
                ),
                ("o1_overhead_flat", o1_flat.to_json()),
                ("steady_all_o1", steady_all_o1.to_json()),
                ("clocked_bytes_per_frame_m4", clocked_m4.to_json()),
                ("clocked_bytes_per_frame_m64", clocked_m64.to_json()),
                (
                    "converge_us_by_m",
                    Json::Arr(converge_us_by_m.iter().map(|c| c.to_json()).collect()),
                ),
                ("monitored_churn_causal", monitored_churn_causal.to_json()),
                ("meta_violations_zero", (meta_violations == 0).to_json()),
                ("churn_fallback_used", (churn_fallback_frames > 0).to_json()),
                ("churn_events_applied", (churn_events > 0).to_json()),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x24_steady_cells_hit_closed_forms_at_small_m() {
        // Debug builds sample the small end of the sweep; the full
        // grid is pinned by experiments_output.txt and BENCH_X24.json.
        for (idx, m) in [(1usize, 4usize), (3, 16)] {
            let cell = run_steady(m, idx);
            assert_eq!(
                cell.crossings,
                u64::from(STEADY_WRITES) * (m as u64) * (m as u64 - 1),
                "m={m}"
            );
            assert_eq!(cell.o1_bytes_per_frame, 9, "m={m}: O(1) overhead not flat");
            assert_eq!(cell.frames_clocked, 0, "m={m}: steady state fell back");
            assert_eq!(cell.meta_violations, 0, "m={m}");
            assert!(cell.converge_us > 0, "m={m}: no write became visible");
        }
    }

    #[test]
    fn x24_churned_cell_stays_causal_under_the_monitor() {
        let cell = run_churn(16, 3);
        assert!(cell.monitored);
        assert!(cell.causal, "monitor fired on a churned m=16 world");
        assert_eq!(cell.meta_violations, 0);
        assert!(cell.churn_events > 0, "churn schedule compiled empty");
    }

    #[test]
    fn x24_clocked_fallback_grows_linearly_where_o1_stays_flat() {
        assert_eq!(clocked_bytes_per_frame(4), 3 + 8 * 4);
        assert_eq!(clocked_bytes_per_frame(16), 3 + 8 * 16);
    }
}
