//! X18 — structural baseline of the counting machinery itself.
//!
//! Section 6 of the paper is purely analytic: it counts messages and
//! link-crossings. This experiment pins the deterministic shape of the
//! canonical instrumented run (event/message/crossing counts) and proves
//! the interned `MetricId` fast path is observably identical to the
//! string API. `exp x18 --json` writes those facts, plus X23's fragment
//! under the `"x23"` key, as the `BENCH_PERF.json` baseline that
//! `exp x18 --check` and `exp x23 --check` hold a fresh run to. Wall
//! time is measured by `benchmark/` (`sim.engine.flood_events_per_s`,
//! `core.run.ns_per_event`), not here.

use std::time::Duration;

use cmi_memory::{ProtocolKind, WorkloadSpec};
use cmi_obs::{Json, MetricsRegistry, ToJson};

use crate::presets::pair_world;
use crate::table::Table;

/// The canonical instrumented run: the same two 4-process Ahamad
/// systems over a 10 ms link as `sample_run_json`, write-heavy.
fn canonical_counts() -> (u64, u64, u64) {
    let mut world = pair_world(ProtocolKind::Ahamad, 4, Duration::from_millis(10), 1);
    let report = world.run(&WorkloadSpec::small().with_write_fraction(0.8));
    assert!(report.outcome().is_quiescent());
    (
        report.metrics().counter("engine.events_dispatched"),
        report.stats().total_messages(),
        report.stats().crossings(),
    )
}

/// Drives the string API and the interned-id API through the same
/// mixed operation sequence and returns whether the registries are
/// logically equal with byte-identical snapshots.
fn interning_agrees() -> bool {
    let names = ["a.one", "b.two", "c.three"];
    let mut by_str = MetricsRegistry::new();
    let mut by_id = MetricsRegistry::new();
    let ids: Vec<_> = names.iter().map(|n| by_id.key(n)).collect();
    for round in 0..1_000u64 {
        for (i, name) in names.iter().enumerate() {
            by_str.inc(name);
            by_id.inc_id(ids[i]);
            if round % 7 == 0 {
                by_str.add(name, round);
                by_id.add_id(ids[i], round);
            }
        }
    }
    by_str == by_id && by_str.snapshot().to_pretty() == by_id.snapshot().to_pretty()
}

/// Deterministic registry report (no wall-clock numbers).
pub fn run() -> String {
    let mut out = String::new();
    let (events, messages, crossings) = canonical_counts();
    let mut t = Table::new(
        "canonical instrumented run (2×4 Ahamad, 10 ms link, seed 1)",
        &["quantity", "count"],
    );
    t.row(&["events dispatched".into(), events.to_string()]);
    t.row(&["messages sent".into(), messages.to_string()]);
    t.row(&["link crossings".into(), crossings.to_string()]);
    out.push_str(&t.to_string());

    let mut t = Table::new(
        "interned MetricId fast path vs string API (3 names × 1000 rounds)",
        &["check", "result"],
    );
    t.row(&[
        "registries logically equal, snapshots byte-identical".into(),
        if interning_agrees() { "yes" } else { "NO" }.into(),
    ]);
    out.push_str(&t.to_string());
    out.push_str(
        "these counts are pinned in BENCH_PERF.json (`exp x18 --check`);\n\
         engine wall time is measured by benchmark/\n\
         (sim.engine.flood_events_per_s, core.run.ns_per_event).\n",
    );
    out
}

/// The `BENCH_PERF.json` artifact: X18's structural facts, with X23's
/// fragment under the `"x23"` key so one file carries both.
pub fn measure() -> Json {
    let (canonical_events, canonical_messages, canonical_crossings) = canonical_counts();
    Json::obj([
        ("experiment", Json::Str("X18 perf baseline".into())),
        (
            "structural",
            Json::obj([
                (
                    "suite_experiments",
                    (super::REGISTRY.len() as u64).to_json(),
                ),
                ("canonical_events", canonical_events.to_json()),
                ("canonical_messages", canonical_messages.to_json()),
                ("canonical_crossings", canonical_crossings.to_json()),
                ("interning_agreement", interning_agrees().to_json()),
            ]),
        ),
        ("x23", super::x23_shard::fragment()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x18_report_is_deterministic() {
        assert_eq!(run(), run(), "registry report must be byte-reproducible");
    }

    #[test]
    fn interning_agreement_holds() {
        assert!(interning_agrees());
    }
}
