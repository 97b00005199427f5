//! The experiment suite: one module per row of the experiment index in
//! `DESIGN.md` §6, one [`Experiment`] record per module in
//! [`REGISTRY`]. Each module's `run()` returns the formatted report
//! `exp <id>` prints, so `exp all` and the test-suite can reuse them.

pub mod x01_trace;
pub mod x02_messages;
pub mod x03_crossings;
pub mod x04_latency;
pub mod x05_response;
pub mod x06_causality;
pub mod x07_ablation;
pub mod x08_sequential;
pub mod x09_dialup;
pub mod x10_lemmas;
pub mod x11_hierarchy;
pub mod x12_model_survival;
pub mod x13_atomic;
pub mod x14_batching;
pub mod x15_topology;
pub mod x16_faults;
pub mod x17_lineage;
pub mod x18_perf;
pub mod x19_checker;
pub mod x20_monitor;
pub mod x21_chaos;
pub mod x22_telemetry;
pub mod x23_shard;
pub mod x24_scale;

use std::hint::black_box;
use std::time::{Duration, Instant};

use cmi_obs::Json;

use crate::gate::Gate;

/// One registered experiment: everything the `exp` binary needs to run
/// it, write its artifact and gate it against a committed baseline.
pub struct Experiment {
    /// Command-line id, `"x1"`…`"x24"`.
    pub id: &'static str,
    /// Display title (the banner in `experiments_output.txt`).
    pub title: &'static str,
    /// The deterministic report (no wall-clock numbers).
    pub run: fn() -> String,
    /// Structured artifact written by `--json` and, for a gated
    /// experiment, compared by `--check`.
    pub artifact: Option<fn() -> Json>,
    /// The committed baseline the artifact is held to, if any.
    pub gate: Option<Gate>,
}

/// An experiment that only prints its report.
const fn plain(id: &'static str, title: &'static str, run: fn() -> String) -> Experiment {
    Experiment {
        id,
        title,
        run,
        artifact: None,
        gate: None,
    }
}

/// An experiment whose artifact is held to a committed baseline:
/// `section` names the key its block sits under in a shared file.
const fn gated(
    id: &'static str,
    title: &'static str,
    run: fn() -> String,
    measure: fn() -> Json,
    baseline: &'static str,
    section: Option<&'static str>,
) -> Experiment {
    Experiment {
        artifact: Some(measure),
        gate: Some(Gate { baseline, section }),
        ..plain(id, title, run)
    }
}

/// Table cell for a causal verdict. A budget-exhausted `Unknown` is
/// reported distinctly — it must never be counted as a violation.
pub(crate) fn causal_cell(v: &cmi_checker::CausalVerdict) -> &'static str {
    match v {
        cmi_checker::CausalVerdict::Causal => "true",
        cmi_checker::CausalVerdict::NotCausal(_) => "false",
        cmi_checker::CausalVerdict::Unknown => "unknown",
    }
}

/// Table cell for a sequential-consistency verdict, `Unknown`-distinct.
pub(crate) fn sequential_cell(v: &cmi_checker::SequentialVerdict) -> &'static str {
    match v {
        cmi_checker::SequentialVerdict::Sequential(_) => "true",
        cmi_checker::SequentialVerdict::NotSequential => "false",
        cmi_checker::SequentialVerdict::Unknown => "unknown",
    }
}

/// Table cell for a cache-consistency verdict, `Unknown`-distinct.
pub(crate) fn cache_cell(v: &cmi_checker::CacheVerdict) -> &'static str {
    match v {
        cmi_checker::CacheVerdict::CacheConsistent => "true",
        cmi_checker::CacheVerdict::NotCacheConsistent { .. } => "false",
        cmi_checker::CacheVerdict::Unknown { .. } => "unknown",
    }
}

/// Wall-clock ratio `measured / reference`, calibrated in this process:
/// the two arms run interleaved and each keeps the fastest of a few
/// repetitions, so load that comes and goes hits both arms alike.
pub(crate) fn calibrated_ratio<A, B>(
    mut reference: impl FnMut() -> A,
    mut measured: impl FnMut() -> B,
) -> f64 {
    const REPS: usize = 5;
    let (mut best_ref, mut best_measured) = (Duration::MAX, Duration::MAX);
    for _ in 0..REPS {
        let t0 = Instant::now();
        black_box(reference());
        best_ref = best_ref.min(t0.elapsed());
        let t0 = Instant::now();
        black_box(measured());
        best_measured = best_measured.min(t0.elapsed());
    }
    best_measured.as_secs_f64() / best_ref.as_secs_f64().max(1e-9)
}

/// Runs every experiment on up to `jobs` worker threads and
/// concatenates the reports **in registry order** (the `exp all`
/// payload), so the output is byte-identical to the serial run for any
/// job count. Experiments are independently seeded, which is what makes
/// this safe.
pub fn run_all_jobs(jobs: usize) -> String {
    let reports = crate::pool::run_indexed(REGISTRY.len(), jobs, |i| (REGISTRY[i].run)());
    let mut out = String::new();
    for (exp, report) in REGISTRY.iter().zip(reports) {
        out.push_str(&format!("\n######## {} ########\n", exp.title));
        out.push_str(&report);
    }
    out
}

/// Runs every experiment and packages the suite as one diffable JSON
/// artifact: each experiment's text report plus a fully-instrumented
/// sample run (engine, channel, protocol and IS-process metrics with
/// histogram quantiles) from the canonical two-system configuration.
pub fn run_all_json() -> Json {
    let experiments = Json::Arr(
        REGISTRY
            .iter()
            .map(|exp| {
                Json::obj([
                    ("id", Json::Str(exp.title.to_string())),
                    ("report", Json::Str((exp.run)())),
                ])
            })
            .collect(),
    );
    let sample = sample_run_json();
    Json::obj([
        ("suite", Json::Str("cmi experiments X1-X24".into())),
        ("experiments", experiments),
        ("sample_run", sample),
    ])
}

/// One instrumented reference run: two 4-process Ahamad systems over a
/// 10 ms link, write-heavy workload, serialized with
/// [`RunReport::to_json`](cmi_core::RunReport::to_json).
pub fn sample_run_json() -> Json {
    use cmi_memory::WorkloadSpec;
    let mut world = crate::presets::pair_world(
        cmi_memory::ProtocolKind::Ahamad,
        4,
        std::time::Duration::from_millis(10),
        1,
    );
    let report = world.run(&WorkloadSpec::small().with_write_fraction(0.8));
    report.to_json()
}

/// The experiment registry, in suite order.
pub const REGISTRY: &[Experiment] = &[
    plain("x1", "X1 protocol trace (Figs. 1-3)", x01_trace::run),
    plain("x2", "X2 messages per write (Section 6)", x02_messages::run),
    plain("x3", "X3 link crossings (Section 6)", x03_crossings::run),
    plain("x4", "X4 latency 3l+2d (Section 6)", x04_latency::run),
    plain("x5", "X5 response time (Section 6)", x05_response::run),
    plain("x6", "X6 Theorem 1 / Corollary 1", x06_causality::run),
    plain("x7", "X7 ablations (Section 3)", x07_ablation::run),
    plain(
        "x8",
        "X8 sequential interconnection (Section 1.1)",
        x08_sequential::run,
    ),
    plain("x9", "X9 dial-up link (Section 1.1)", x09_dialup::run),
    plain(
        "x10",
        "X10 lemma trace checks (Lemmas 1-6)",
        x10_lemmas::run,
    ),
    plain(
        "x11",
        "X11 consistency hierarchy (extension)",
        x11_hierarchy::run,
    ),
    plain(
        "x12",
        "X12 model survival under interconnection (extension)",
        x12_model_survival::run,
    ),
    plain(
        "x13",
        "X13 atomic memory interconnection (extension)",
        x13_atomic::run,
    ),
    plain("x14", "X14 link batching (extension)", x14_batching::run),
    plain("x15", "X15 tree shapes (extension)", x15_topology::run),
    plain(
        "x16",
        "X16 unreliable links & crashes (extension)",
        x16_faults::run,
    ),
    Experiment {
        artifact: Some(x17_lineage::run_json),
        ..plain(
            "x17",
            "X17 causal lineage tracing (extension)",
            x17_lineage::run,
        )
    },
    gated(
        "x18",
        "X18 perf baseline (extension)",
        x18_perf::run,
        x18_perf::measure,
        "BENCH_PERF.json",
        None,
    ),
    gated(
        "x19",
        "X19 checker scaling (extension)",
        x19_checker::run,
        x19_checker::measure,
        "BENCH_CHECK.json",
        None,
    ),
    gated(
        "x20",
        "X20 online causal monitor (extension)",
        x20_monitor::run,
        x20_monitor::measure,
        "BENCH_MONITOR.json",
        None,
    ),
    gated(
        "x21",
        "X21 churn under chaos: membership & partitions (extension)",
        x21_chaos::run,
        x21_chaos::measure,
        "BENCH_CHAOS.json",
        None,
    ),
    gated(
        "x22",
        "X22 flight-recorder telemetry (extension)",
        x22_telemetry::run,
        x22_telemetry::measure,
        "BENCH_TELEMETRY.json",
        None,
    ),
    gated(
        "x23",
        "X23 sharded engine: throughput & replay identity (extension)",
        x23_shard::run,
        x23_shard::measure,
        "BENCH_PERF.json",
        Some("x23"),
    ),
    gated(
        "x24",
        "X24 large-m scale-out: hub-of-hubs & O(1) metadata (extension)",
        x24_scale::run,
        x24_scale::measure,
        "BENCH_X24.json",
        None,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// Ids are `x1`…`x24` in suite order and the titles are, byte for
    /// byte, the banners of the committed `experiments_output.txt`.
    #[test]
    fn registry_ids_and_titles_are_the_suite_order() {
        let ids: Vec<String> = (1..=24).map(|n| format!("x{n}")).collect();
        assert_eq!(REGISTRY.iter().map(|e| e.id).collect::<Vec<_>>(), ids);
        let committed = repo_file("experiments_output.txt");
        let banners: Vec<&str> = committed
            .lines()
            .filter_map(|l| l.strip_prefix("######## ")?.strip_suffix(" ########"))
            .collect();
        assert_eq!(
            REGISTRY.iter().map(|e| e.title).collect::<Vec<_>>(),
            banners
        );
    }

    /// Every committed baseline of a gated experiment holds only
    /// deterministic facts: no `timing` block anywhere, and every boolean
    /// under `structural` is `true` (a fact pinned at `false` would make
    /// the gate demand the failure).
    #[test]
    fn every_committed_baseline_is_structural_and_true() {
        fn walk(json: &Json, path: &str, under_structural: bool) {
            match json {
                Json::Obj(pairs) => {
                    for (key, value) in pairs {
                        assert_ne!(key, "timing", "{path} has a timing block");
                        let structural = under_structural || key == "structural";
                        walk(value, &format!("{path}.{key}"), structural);
                    }
                }
                Json::Arr(items) => {
                    for (i, item) in items.iter().enumerate() {
                        walk(item, &format!("{path}[{i}]"), under_structural);
                    }
                }
                Json::Bool(b) => assert!(!under_structural || *b, "{path} is false"),
                _ => {}
            }
        }
        for exp in REGISTRY {
            let Some(gate) = &exp.gate else { continue };
            let baseline = Json::parse(&repo_file(gate.baseline)).expect(gate.baseline);
            let section = gate
                .section
                .map_or(Some(&baseline), |key| baseline.get(key));
            let structural = section.and_then(|s| s.get("structural"));
            assert!(
                structural
                    .and_then(Json::as_object)
                    .is_some_and(|f| !f.is_empty()),
                "{}: {} has no structural block",
                exp.id,
                gate.baseline
            );
            walk(&baseline, gate.baseline, false);
        }
    }
}
