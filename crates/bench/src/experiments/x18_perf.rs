//! X18 — performance baseline of the counting machinery itself.
//!
//! Section 6 of the paper is purely analytic: it counts messages and
//! link-crossings. This experiment makes the counting machinery cheap
//! *and measurable*: it pins the deterministic shape of the canonical
//! instrumented run (event/message/crossing counts), proves the interned
//! `MetricId` fast path is observably identical to the string API, and —
//! through `exp x18` — measures counter-increment throughput,
//! simulation events/sec, and the serial-vs-parallel wall
//! time of the rest of the suite (every experiment but X18 itself),
//! emitting the regression-gated `BENCH_PERF.json` baseline.
//!
//! The registry `run()` below prints only deterministic quantities, so
//! `experiments_output.txt` stays byte-reproducible; wall-clock numbers
//! live exclusively in `exp x18`'s measured table and JSON artifact.

use std::time::{Duration, Instant};

use cmi_memory::{ProtocolKind, WorkloadSpec};
use cmi_obs::{bench, Json, MetricsRegistry, ToJson};

use crate::gate::{self, Gate};
use crate::pool;
use crate::presets::pair_world;
use crate::table::Table;

/// Counter increments per measured iteration in the micro-bench.
const INCS: u64 = 100_000;

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
        "wall-clock measurements (counter throughput, events/sec, serial vs\n\
         parallel suite time) are emitted by `exp x18` into BENCH_PERF.json\n\
         and regression-checked by scripts/verify.sh.\n",
    );
    out
}

/// One timed pass over the registry (X18 itself excluded so the sweep
/// cannot recurse) with `jobs` workers. Returns (wall time, byte
/// length of the concatenated reports).
fn time_suite(jobs: usize) -> (Duration, usize) {
    let reg: Vec<_> = super::REGISTRY.iter().filter(|e| e.id != "x18").collect();
    let t0 = Instant::now();
    let reports = pool::run_indexed(reg.len(), jobs, |i| (reg[i].run)());
    let elapsed = t0.elapsed();
    (elapsed, reports.iter().map(String::len).sum())
}

/// Runs the measured benchmark. Returns the human table and the
/// `BENCH_PERF.json` artifact. `parallel_jobs` sizes the parallel suite
/// pass; `quick` skips the (slow) suite sweep, leaving its timing
/// fields out of the artifact.
pub fn measure(parallel_jobs: usize, quick: bool) -> (String, Json) {
    let mut out = String::new();

    // Counter-increment throughput: string API vs interned ids.
    let str_res = bench("counters/inc_str", 2, 10, || {
        let mut m = MetricsRegistry::new();
        for _ in 0..INCS {
            m.inc("engine.events_dispatched");
        }
        m
    });
    let id_res = bench("counters/inc_id", 2, 10, || {
        let mut m = MetricsRegistry::new();
        let id = m.key("engine.events_dispatched");
        for _ in 0..INCS {
            m.inc_id(id);
        }
        m
    });
    let str_ns_per_inc = str_res.median_ns() / INCS as f64;
    let id_ns_per_inc = id_res.median_ns() / INCS as f64;

    // Simulation event throughput on the canonical world.
    let (events, ..) = canonical_counts();
    let world_res = bench("sim/canonical_world", 1, 5, || canonical_counts());
    let events_per_sec = events as f64 / (world_res.median_ns() / 1e9);

    let mut t = Table::new(
        "counter-increment and event throughput",
        &["case", "ns/op", "ops/sec"],
    );
    t.row(&[
        "counter inc (string API)".into(),
        format!("{str_ns_per_inc:.1}"),
        format!("{:.0}", 1e9 / str_ns_per_inc),
    ]);
    t.row(&[
        "counter inc (MetricId)".into(),
        format!("{id_ns_per_inc:.1}"),
        format!("{:.0}", 1e9 / id_ns_per_inc),
    ]);
    t.row(&[
        "simulation events".into(),
        format!("{:.1}", 1e9 / events_per_sec),
        format!("{events_per_sec:.0}"),
    ]);
    out.push_str(&t.to_string());

    let mut timing = vec![
        ("counter_inc_str_ns", str_ns_per_inc.to_json()),
        ("counter_inc_id_ns", id_ns_per_inc.to_json()),
        ("events_per_sec", events_per_sec.to_json()),
    ];

    if !quick {
        let (serial, serial_bytes) = time_suite(1);
        let (parallel, parallel_bytes) = time_suite(parallel_jobs);
        assert_eq!(
            serial_bytes, parallel_bytes,
            "parallel suite output diverged from serial"
        );
        let speedup = serial.as_secs_f64() / parallel.as_secs_f64();
        let mut t = Table::new(
            &format!("suite wall time (all but X18), serial vs --jobs {parallel_jobs}"),
            &["mode", "wall", "speedup"],
        );
        t.row(&[
            "serial".into(),
            format!("{:.2} s", serial.as_secs_f64()),
            "1.00x".into(),
        ]);
        t.row(&[
            format!("parallel ({parallel_jobs} jobs)"),
            format!("{:.2} s", parallel.as_secs_f64()),
            format!("{speedup:.2}x"),
        ]);
        out.push_str(&t.to_string());
        timing.push(("suite_serial_ms", (serial.as_secs_f64() * 1e3).to_json()));
        timing.push((
            "suite_parallel_ms",
            (parallel.as_secs_f64() * 1e3).to_json(),
        ));
        timing.push(("parallel_jobs", (parallel_jobs as u64).to_json()));
        timing.push(("suite_speedup", speedup.to_json()));
    }

    // X23's scheduler-flood and shard-scaling fields live in the same
    // artifact (BENCH_PERF.json) so one file carries the whole perf
    // baseline; `exp x23 --check` gates the x23 fragment.
    let (x23_table, x23_fragment) = super::x23_shard::measure(quick);
    out.push_str(&x23_table);

    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1) as u64;
    let (canonical_events, canonical_messages, canonical_crossings) = canonical_counts();
    let artifact = Json::obj([
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
                // Machine-dependent: recorded for CPU-aware gating, not
                // exact-compared against the baseline.
                ("available_parallelism", parallelism.to_json()),
            ]),
        ),
        ("timing", Json::obj(timing)),
        ("x23", x23_fragment),
    ]);
    (out, artifact)
}

/// X18's share of the baseline gate. `events_per_sec` is
/// higher-is-better but rides the same ratio window.
pub const GATE: Gate = Gate {
    baseline: "BENCH_PERF.json",
    section: None,
    structural: &[
        "suite_experiments",
        "canonical_events",
        "canonical_messages",
        "canonical_crossings",
        "interning_agreement",
    ],
    timing: &[
        "counter_inc_str_ns",
        "counter_inc_id_ns",
        "events_per_sec",
        "suite_serial_ms",
        "suite_parallel_ms",
    ],
    measure: |quick, jobs| measure(jobs.unwrap_or(4), quick),
    extra: Some(speedup_rule),
};

/// CPU-aware speedup gate: on a multi-core machine the parallel suite
/// pass must not be slower than serial. Single-CPU containers (where
/// ~1.0 is physically expected) are exempt, so the 1-CPU caveat no
/// longer hides real regressions on machines that could parallelize.
fn speedup_rule(new: &Json, _baseline: &Json, errors: &mut Vec<String>) {
    let parallelism = gate::recorded_parallelism(new);
    if parallelism < 2 {
        return;
    }
    if let Some(speedup) = gate::path(new, &["timing", "suite_speedup"]).and_then(Json::as_f64) {
        if speedup < 1.0 {
            errors.push(format!(
                "suite_speedup is {speedup:.2} on a {parallelism}-CPU machine — \
                 the parallel runner regressed"
            ));
        }
    }
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
