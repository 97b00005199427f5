//! X22 (extension) — flight-recorder telemetry: sampled timelines of a
//! chaos run, watchdog alerting and the overhead gate.
//!
//! X21 established that partition/heal/churn schedules replay
//! byte-identically and that the bounded retransmit backlog sheds under
//! sustained partitions. This experiment points the `cmi-obs`
//! flight recorder at the same regime and asserts the *timeline* tells
//! that story: the delta-encoded samples show a shed burst while a
//! partition window is open, deliveries (`isp.propagate_in`) keep
//! climbing after the heal, and a watchdog armed on the shed counter
//! fires during the burst. Because samples are taken at a virtual-time
//! cadence from the interned registry, the JSONL timeline of a seeded
//! run is byte-identical across replays — the second arm pins that.
//! The third arm gates the cost of watching: the identical workload runs
//! with telemetry on and off, the engine event counts must agree exactly
//! (sampling adds no events), and the two arms, timed in the same
//! process, give `overhead_ok`: telemetry on costs at most
//! [`OVERHEAD_LIMIT`] times telemetry off. `exp x22 --json` writes these
//! facts as the `BENCH_TELEMETRY.json` baseline.

use std::time::Duration;

use cmi_core::{InterconnectBuilder, LinkSpec, ReliableConfig, RunReport, SystemSpec, World};
use cmi_memory::{ProtocolKind, WorkloadSpec};
use cmi_obs::{Json, TelemetryConfig, TimeSeries, ToJson, WatchKind, WatchdogSpec};
use cmi_sim::ChaosSpec;

use crate::table::Table;

/// Sampling cadences swept in the deterministic report (virtual ms).
pub const CADENCE_MS: [u64; 3] = [1, 2, 5];

/// Overhead gate: a telemetry-on run must finish within this factor of
/// the same run with telemetry off.
pub const OVERHEAD_LIMIT: f64 = 2.0;

/// Seed chosen so the drawn partition windows open while propagation is
/// in flight: the backlog cap sheds during the window (the burst) and
/// deliveries resume after the heal (the recovery).
const SWEEP_SEED: u64 = 0x17;

/// Chaos horizon; window starts are drawn from `[0, HORIZON)`.
const HORIZON: Duration = Duration::from_millis(100);

/// X21's chain regime, tightened so partitions visibly shed: three
/// two-process Ahamad systems on reliable 4 ms links, six variables
/// against a two-variable coalescing backlog — a degraded sender under
/// an open partition must drop its oldest pending writes.
fn chain_world(telemetry: Option<TelemetryConfig>, seed: u64) -> World {
    let mut b = InterconnectBuilder::new().with_vars(6);
    if let Some(cfg) = telemetry {
        b.enable_telemetry(cfg);
    }
    let handles: Vec<_> = (0..3)
        .map(|i| b.add_system(SystemSpec::new(format!("S{i}"), ProtocolKind::Ahamad, 2)))
        .collect();
    for w in handles.windows(2) {
        b.link(
            w[0],
            w[1],
            LinkSpec::new(Duration::from_millis(4)).with_reliability(
                ReliableConfig::default()
                    .with_rto(Duration::from_millis(25))
                    .with_degraded_after(Duration::from_millis(10))
                    .with_backlog_cap(2),
            ),
        );
    }
    b.build(seed).expect("chain is a tree")
}

/// Write-heavy and fast, so partition windows overlap in-flight
/// propagation (X21's workload).
fn workload() -> WorkloadSpec {
    WorkloadSpec::small()
        .with_ops(12)
        .with_write_fraction(0.6)
        .with_vars(6)
        .with_mean_gap(Duration::from_millis(3))
}

/// The partition/heal/churn schedule every telemetry arm replays.
fn chaos_spec() -> ChaosSpec {
    ChaosSpec::new(HORIZON)
        .with_partitions(2, Duration::from_millis(40), Duration::from_millis(40))
        .with_churn(1, Duration::from_millis(20), Duration::from_millis(40))
}

/// Telemetry armed for the chaos run: 1 ms cadence and a watchdog on
/// the shed counter, so the burst itself raises a structured alert.
fn armed_telemetry(every_ms: u64) -> TelemetryConfig {
    TelemetryConfig::default()
        .with_every_ms(every_ms)
        .with_capacity(512)
        .with_watchdog(WatchdogSpec::new(
            "isp.partition_sheds",
            WatchKind::Above,
            0.0,
        ))
}

/// One telemetry-instrumented chaos run at the given cadence.
fn chaos_run(every_ms: u64) -> RunReport {
    let mut world = chain_world(Some(armed_telemetry(every_ms)), SWEEP_SEED);
    let events = world.compile_chaos(&chaos_spec(), SWEEP_SEED);
    world.run_with_chaos(&workload(), &events)
}

/// What the timeline must show about the partition window. Returns
/// `(shed_burst, recovery_after_heal, watchdog_fired_on_shed)`:
/// the shed counter rises mid-run, deliveries keep climbing *after*
/// the first shed sample, and the armed watchdog names the shed metric.
fn timeline_story(t: &TimeSeries) -> (bool, bool, bool) {
    let sheds = t.series("isp.partition_sheds");
    let shed_burst = sheds.last().is_some_and(|&(_, v)| v > 0.0);
    let recovery = match sheds.iter().find(|&&(_, v)| v > 0.0) {
        Some(&(t_burst, _)) => {
            let delivered = t.series("isp.propagate_in");
            let at_burst = delivered
                .iter()
                .take_while(|&&(ts, _)| ts <= t_burst)
                .last()
                .map_or(0.0, |&(_, v)| v);
            delivered.last().is_some_and(|&(_, v)| v > at_burst)
        }
        None => false,
    };
    let watchdog_fired =
        !t.alerts().is_empty() && t.alerts().iter().all(|a| a.metric == "isp.partition_sheds");
    (shed_burst, recovery, watchdog_fired)
}

/// The replay arm: the same seeded chaos run twice; the JSONL timelines
/// must be byte-identical (samples hold only virtual-time registry
/// values, never wall clock).
fn replay_identical() -> bool {
    let a = chaos_run(1);
    let b = chaos_run(1);
    let (ta, tb) = (a.telemetry().unwrap(), b.telemetry().unwrap());
    ta.to_jsonl() == tb.to_jsonl() && ta.alerts().len() == tb.alerts().len()
}

/// The overhead arm's shared workload: the chain without chaos so both
/// sides run the exact same event schedule, scaled up (200 ops/proc)
/// so the wall-clock measurement is not timer-quantization noise.
fn overhead_run(telemetry: bool) -> RunReport {
    let cfg = telemetry.then(|| {
        TelemetryConfig::default()
            .with_every_ms(1)
            .with_capacity(512)
    });
    let mut world = chain_world(cfg, SWEEP_SEED ^ 0x0F);
    world.run(&workload().with_ops(200))
}

/// Engine events dispatched by a run.
fn events_of(report: &RunReport) -> u64 {
    report.metrics().counter("engine.events_dispatched")
}

/// Deterministic registry report (no wall-clock numbers; the timeline
/// samples only virtual-time registry values, so every cell replays).
pub fn run() -> String {
    let mut t = Table::new(
        format!(
            "flight recorder over the X21 chaos regime (chain, 2×40ms \
             partitions + churn, horizon {}ms, seed {SWEEP_SEED:#x})",
            HORIZON.as_millis()
        ),
        &[
            "cadence ms",
            "samples",
            "taken",
            "series",
            "downsamples",
            "alerts",
            "shed burst",
            "recovery",
        ],
    );
    for &every_ms in &CADENCE_MS {
        let report = chaos_run(every_ms);
        let tl = report.telemetry().expect("telemetry enabled");
        let (burst, recovery, _) = timeline_story(tl);
        t.row(&[
            every_ms.to_string(),
            tl.sample_count().to_string(),
            tl.samples_taken().to_string(),
            tl.series_count().to_string(),
            tl.downsample_rounds().to_string(),
            tl.alerts().len().to_string(),
            if burst { "yes" } else { "NO" }.to_string(),
            if recovery { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let mut out = t.to_string();

    out.push_str(&format!(
        "\nseeded replay: timelines {}\n",
        if replay_identical() {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    ));
    let (on, off) = (overhead_run(true), overhead_run(false));
    out.push_str(&format!(
        "sampling adds no events: {} dispatched with telemetry on, {} off\n\
         these facts and overhead_ok (on <= {OVERHEAD_LIMIT}x off, timed in-process)\n\
         are pinned in BENCH_TELEMETRY.json (`exp x22 --check`).\n",
        events_of(&on),
        events_of(&off),
    ));
    out
}

/// The `BENCH_TELEMETRY.json` artifact: the timeline's structural facts
/// and the in-process overhead verdict.
pub fn measure() -> Json {
    // The chaos timeline tells the partition story.
    let report = chaos_run(1);
    let tl = report.telemetry().expect("telemetry enabled");
    let (shed_burst, recovery, watchdog_fired) = timeline_story(tl);
    let sampled = tl.sample_count() > 0;
    let replay = replay_identical();
    let events_on = events_of(&overhead_run(true));
    let events_off = events_of(&overhead_run(false));
    let overhead = super::calibrated_ratio(|| overhead_run(false), || overhead_run(true));

    Json::obj([
        ("experiment", Json::Str("X22 telemetry".into())),
        (
            "structural",
            Json::obj([
                (
                    "cadence_ms",
                    Json::Arr(CADENCE_MS.iter().map(|&c| c.to_json()).collect()),
                ),
                ("sampled", sampled.to_json()),
                ("shed_burst", shed_burst.to_json()),
                ("recovery_after_heal", recovery.to_json()),
                ("watchdog_fired_on_shed", watchdog_fired.to_json()),
                ("replay_identical", replay.to_json()),
                ("event_counts_match", (events_on == events_off).to_json()),
                ("overhead_ok", (overhead <= OVERHEAD_LIMIT).to_json()),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x22_chaos_timeline_shows_burst_recovery_and_alert() {
        let report = chaos_run(1);
        let tl = report.telemetry().expect("telemetry enabled");
        assert!(tl.sample_count() > 0);
        let (burst, recovery, watchdog) = timeline_story(tl);
        assert!(burst, "partition must shed: {}", tl.summary());
        assert!(recovery, "deliveries must resume after the heal");
        assert!(watchdog, "the armed watchdog names the shed counter");
    }

    #[test]
    fn x22_seeded_timelines_replay_byte_identically() {
        assert!(replay_identical(), "telemetry replay diverged");
    }

    #[test]
    fn x22_sampling_adds_no_engine_events() {
        assert_eq!(
            events_of(&overhead_run(true)),
            events_of(&overhead_run(false)),
            "telemetry sampling must not schedule events"
        );
    }
}
