//! The names this harness emits: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `BENCHMARK.json` at the repo
//! root is the contract the driver reads; [`schema_errors`] checks that
//! the two agree in both directions, so a metric cannot be added to one
//! and forgotten in the other.

use cmi_obs::Json;

/// Seconds one run measures for when `--seconds` is absent — equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;
/// Scenario seed when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 42;

/// `(name, unit)` of every end-to-end metric, measured with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("e2e_wall_s", "s"),
    ("sim_events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
    ("msgs_per_write", "msgs"),
    ("visibility_p50_virtual_ms", "virtual_ms"),
];

/// `(name, unit)` of every per-layer metric, emitted by the traced run.
/// Layer = crate.module; `_s` are medians over the traced repetitions,
/// counts are exact.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("cli.scenario.parse_s", "s"),
    ("core.build.build_s", "s"),
    ("core.run.run_s", "s"),
    ("core.run.ns_per_event", "ns"),
    ("core.run.events", "count"),
    ("core.run.messages", "count"),
    ("core.run.timer_fires", "count"),
    ("core.isp.pairs_sent", "count"),
    ("core.isp.acks_per_frame", "ratio"),
    ("core.isp.timer_fires_per_pair", "ratio"),
    ("core.isp.meta_bytes_per_frame", "B"),
    ("core.isp.retransmits", "count"),
    ("core.isp.coalesced_ratio", "ratio"),
    ("cli.report.render_s", "s"),
    ("core.report.system_histories_s", "s"),
    ("checker.causal.check_s", "s"),
    ("checker.causal.steps", "count"),
    ("checker.causal.ns_per_op", "ns"),
    ("checker.online.replay_s", "s"),
    ("core.report.write_visibility_s", "s"),
    ("core.report.to_json_s", "s"),
    ("obs.json.to_pretty_s", "s"),
    ("obs.json.bytes", "B"),
    ("obs.json.parse_s", "s"),
    ("obs.metrics.series", "count"),
    ("core.monitor.overhead_ratio", "ratio"),
    ("core.shard.serial_run_s", "s"),
    ("core.shard.speedup", "ratio"),
    ("e2e.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("visibility_p99_virtual_ms", "virtual_ms"),
    ("visibility_max_virtual_ms", "virtual_ms"),
    ("sim.sched.push_pop_ns_1e4", "ns"),
    ("sim.sched.push_pop_ns_1e6", "ns"),
    ("sim.engine.flood_events_per_s", "events/s"),
    ("sim.channel.pingpong_msgs_per_s", "msgs/s"),
    ("memory.ahamad.ns_per_event", "ns"),
    ("memory.frontier.ns_per_event", "ns"),
    ("memory.ahamad.msgs_per_write", "msgs"),
    ("memory.frontier.msgs_per_write", "msgs"),
    ("core.transport.clean_ns_per_frame", "ns"),
    ("core.transport.lossy_ns_per_frame", "ns"),
    ("core.transport.retransmits_per_frame", "ratio"),
];

/// The unit of a metric this harness emits.
///
/// # Panics
///
/// Panics on a name in neither table — a bug in the harness.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name:?} is in neither spec table"))
}

/// Which direction of a metric is better, as `BENCHMARK.json` spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bounded {
    pub name: String,
    pub better: Better,
    /// Share of the first median by which the second may be worse.
    pub bound: f64,
}

/// Reads `BENCHMARK.json` next to the benchmark directory.
pub fn load_contract() -> Result<Json, String> {
    let path = format!("{}/../BENCHMARK.json", crate::BENCH_DIR);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `end_to_end` block of the contract: direction and bound per metric.
pub fn bounds(contract: &Json) -> Result<Vec<Bounded>, String> {
    let entries = contract
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: end_to_end must be an array")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str);
            let better = match e.get("better").and_then(Json::as_str) {
                Some("lower") => Some(Better::Lower),
                Some("higher") => Some(Better::Higher),
                _ => None,
            };
            let bound = e.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Bounded {
                    name: name.to_string(),
                    better,
                    bound,
                }),
                _ => Err(format!(
                    "BENCHMARK.json: malformed end_to_end entry {}",
                    e.to_compact()
                )),
            }
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// `(name, unit)` pairs of one block of the contract.
fn block(contract: &Json, key: &str, unit_key: Option<&str>) -> Vec<(String, String)> {
    let str_of = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    contract
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|e| {
            (
                str_of(e, "name"),
                unit_key.map_or(String::new(), |k| str_of(e, k)),
            )
        })
        .collect()
}

/// Every way `BENCHMARK.json` and the harness tables disagree: a name
/// or unit in one and not the other, a malformed name, `run_seconds`
/// differing from [`RUN_SECONDS`]. Empty when they match.
pub fn schema_errors(contract: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    let mut compare = |what: &str, theirs: Vec<(String, String)>, ours: Vec<(String, String)>| {
        for pair in &theirs {
            if !valid_name(&pair.0) {
                errors.push(format!("{what}: malformed name {:?}", pair.0));
            }
            if !ours.contains(pair) {
                errors.push(format!(
                    "{what}: {pair:?} is in BENCHMARK.json, not the harness"
                ));
            }
        }
        for pair in &ours {
            if !theirs.contains(pair) {
                errors.push(format!(
                    "{what}: {pair:?} is in the harness, not BENCHMARK.json"
                ));
            }
        }
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    compare(
        "end_to_end",
        block(contract, "end_to_end", Some("unit")),
        own(&END_TO_END),
    );
    compare(
        "per_layer",
        block(contract, "per_layer", Some("unit")),
        own(&PER_LAYER),
    );
    compare(
        "workloads",
        block(contract, "workloads", None),
        crate::workloads::ALL
            .iter()
            .map(|w| (w.name().to_string(), String::new()))
            .collect(),
    );
    if contract.get("run_seconds").and_then(Json::as_u64) != Some(RUN_SECONDS) {
        errors.push(format!(
            "run_seconds must equal the harness's {RUN_SECONDS}"
        ));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_and_harness_name_the_same_metrics_and_workloads() {
        let contract = load_contract().unwrap();
        assert_eq!(schema_errors(&contract), Vec::<String>::new());
        // setup_s carries the largest bound, as the contract requires.
        let bounds = bounds(&contract).unwrap();
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(bounds
            .iter()
            .all(|b| b.bound <= setup.bound && b.bound <= 0.25));
    }

    #[test]
    fn schema_check_reports_drift_in_both_directions() {
        let mut contract = load_contract().unwrap();
        let Json::Obj(members) = &mut contract else {
            panic!("contract is an object")
        };
        for (key, value) in members.iter_mut() {
            if key == "per_layer" {
                let Json::Arr(items) = value else {
                    panic!("per_layer is an array")
                };
                items.pop();
                items.push(Json::obj([
                    ("name", Json::Str("bad name".into())),
                    ("unit", Json::Str("s".into())),
                ]));
            }
        }
        let errors = schema_errors(&contract);
        assert!(errors.iter().any(|e| e.contains("malformed name")));
        assert!(errors.iter().any(|e| e.contains("not the harness")));
        assert!(errors.iter().any(|e| e.contains("not BENCHMARK.json")));
    }

    #[test]
    fn names_follow_the_contract_alphabet() {
        assert!(valid_name("core.run.ns_per_event"));
        assert!(valid_name("1e4-x"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
    }
}
