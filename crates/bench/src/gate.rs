//! The one baseline gate: every measured experiment (X18–X24) commits a
//! `BENCH_*.json` artifact at the repo root, and `exp <id> --check` holds
//! a fresh measurement to it by a single rule — **structural fields
//! match exactly, timing fields agree within [`TIMING_TOLERANCE`] in
//! either direction**. An experiment only declares, in its [`Gate`],
//! which fields it governs and whatever is genuinely its own
//! ([`Gate::extra`]).

use cmi_obs::Json;

/// Timing fields are accepted within this factor of the committed
/// baseline in either direction — generous enough for slow CI machines,
/// tight enough to catch a hot path regressing by orders of magnitude.
pub const TIMING_TOLERANCE: f64 = 32.0;

/// What one measured experiment contributes to the gate.
pub struct Gate {
    /// The committed baseline file at the repo root.
    pub baseline: &'static str,
    /// Key the gated `structural`/`timing` blocks sit under in both
    /// artifacts, when they are a fragment of a shared file.
    pub section: Option<&'static str>,
    /// Fields of `structural` that must equal the baseline's exactly.
    pub structural: &'static [&'static str],
    /// Fields of `timing` held to the tolerance window. A field absent
    /// on either side is skipped (`--quick` runs omit the slow ones).
    pub timing: &'static [&'static str],
    /// Runs the measurement: `(quick, --jobs)` → human table + artifact.
    pub measure: fn(bool, Option<usize>) -> (String, Json),
    /// Per-experiment rules over the two whole artifacts, appending to
    /// the violation list.
    pub extra: Option<fn(&Json, &Json, &mut Vec<String>)>,
}

/// Walks `keys` down nested objects.
pub(crate) fn path<'a>(json: &'a Json, keys: &[&str]) -> Option<&'a Json> {
    keys.iter().try_fold(json, |j, key| j.get(key))
}

/// The CPU count an artifact was measured on (top-level
/// `structural.available_parallelism`; 1 when unrecorded), so the
/// speedup rules can exempt single-CPU machines.
pub(crate) fn recorded_parallelism(artifact: &Json) -> u64 {
    path(artifact, &["structural", "available_parallelism"])
        .and_then(Json::as_u64)
        .unwrap_or(1)
}

/// Compares a freshly-measured artifact against the committed baseline
/// under `gate`. Returns every violation found.
pub fn check(gate: &Gate, new: &Json, baseline: &Json) -> Result<(), Vec<String>> {
    let (new_sec, base_sec) = match gate.section {
        None => (new, baseline),
        Some(key) => match (new.get(key), baseline.get(key)) {
            (Some(n), Some(b)) => (n, b),
            _ => {
                return Err(vec![format!(
                    "missing {key} section in artifact or baseline"
                )])
            }
        },
    };
    let (Some(new_struct), Some(base_struct)) =
        (new_sec.get("structural"), base_sec.get("structural"))
    else {
        return Err(vec!["missing structural section".into()]);
    };
    let mut errors = Vec::new();
    for key in gate.structural {
        match (new_struct.get(key), base_struct.get(key)) {
            (Some(n), Some(b)) if n.to_compact() == b.to_compact() => {}
            (Some(n), Some(b)) => errors.push(format!(
                "structural regression in {key}: baseline {} vs measured {}",
                b.to_compact(),
                n.to_compact()
            )),
            _ => errors.push(format!("structural field {key} missing")),
        }
    }
    for key in gate.timing {
        let (Some(n), Some(b)) = (
            path(new_sec, &["timing", key]).and_then(Json::as_f64),
            path(base_sec, &["timing", key]).and_then(Json::as_f64),
        ) else {
            continue;
        };
        if n <= 0.0 || b <= 0.0 {
            errors.push(format!("non-positive timing in {key}"));
            continue;
        }
        let ratio = n / b;
        if !(1.0 / TIMING_TOLERANCE..=TIMING_TOLERANCE).contains(&ratio) {
            errors.push(format!(
                "timing regression in {key}: baseline {b:.2} vs measured {n:.2} \
                 (ratio {ratio:.2}, tolerance {TIMING_TOLERANCE}x)"
            ));
        }
    }
    if let Some(extra) = gate.extra {
        extra(new, baseline, &mut errors);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{x18_perf, x23_shard};

    /// A gate with nothing of its own: the shared rule only.
    const TOY: Gate = Gate {
        baseline: "",
        section: None,
        structural: &["count", "ok"],
        timing: &["fast_ms", "slow_ms"],
        measure: |_, _| unreachable!("the gate tests never measure"),
        extra: None,
    };

    fn toy() -> Json {
        Json::parse(
            r#"{"structural": {"count": 424, "ok": true},
                "timing": {"fast_ms": 2.0, "slow_ms": 100.0}}"#,
        )
        .unwrap()
    }

    /// A `BENCH_PERF.json`-shaped artifact (X18 fields + the `"x23"`
    /// fragment) recorded on a `cpus`-CPU machine, both speedups at 0.9.
    fn perf(cpus: u64) -> Json {
        let text = r#"{
            "structural": {"suite_experiments": 24, "canonical_events": 424,
                "canonical_messages": 360, "canonical_crossings": 40,
                "interning_agreement": true, "available_parallelism": CPUS},
            "timing": {"counter_inc_str_ns": 10, "counter_inc_id_ns": 1,
                "events_per_sec": 848000, "suite_serial_ms": 30000,
                "suite_parallel_ms": 33000, "suite_speedup": 0.9},
            "x23": {
                "structural": {"flood_events": 256064, "shard_groups": 4,
                    "replay_identical": true},
                "timing": {"flood_events_per_sec": 16000000, "shard_wall_ms_1": 36,
                    "shard_wall_ms_2": 40, "shard_wall_ms_4": 40,
                    "shard_speedup_2": 0.9}}}"#;
        Json::parse(&text.replace("CPUS", &cpus.to_string())).unwrap()
    }

    /// `json` with the value at the dotted `path` replaced, or removed
    /// on `None`.
    fn edit(json: &Json, path: &str, value: Option<Json>) -> Json {
        let Json::Obj(pairs) = json else {
            panic!("no object at {path}");
        };
        let mut pairs = pairs.clone();
        match path.split_once('.') {
            None => {
                pairs.retain(|(k, _)| k != path);
                pairs.extend(value.map(|v| (path.to_string(), v)));
            }
            Some((head, rest)) => {
                let slot = pairs.iter_mut().find(|(k, _)| k == head).expect(head);
                slot.1 = edit(&slot.1, rest, value);
            }
        }
        Json::Obj(pairs)
    }

    fn set(json: &Json, path: &str, value: f64) -> Json {
        edit(json, path, Some(Json::Num(value)))
    }

    fn unset(json: &Json, path: &str) -> Json {
        edit(json, path, None)
    }

    #[test]
    fn the_gate_accepts_and_rejects_exactly_what_it_should() {
        const FAST: &str = "timing.fast_ms";
        const SLOW: &str = "timing.slow_ms";
        const EPS: &str = "timing.events_per_sec";
        const GROUPS: &str = "x23.structural.shard_groups";
        const REPLAY: &str = "x23.structural.replay_identical";
        const FLOOD: &str = "x23.timing.flood_events_per_sec";
        const WALL_1: &str = "x23.timing.shard_wall_ms_1";
        const WALL_4: &str = "x23.timing.shard_wall_ms_4";
        const SPEEDUP: &str = "x23.timing.shard_speedup_2";
        let (x18, x23) = (&x18_perf::GATE, &x23_shard::GATE);
        // `one`/`two`: measured on a 1-/2-CPU machine, speedups 0.9.
        let (toy, one, two) = (toy(), perf(1), perf(2));
        let stale = edit(&one, REPLAY, Some(Json::Bool(false)));
        let low = set(&one, FLOOD, x23_shard::FLOOD_FLOOR_EPS - 1.0);

        // (gate, measured, baseline, the one violation expected); one row a case.
        #[rustfmt::skip]
        let table: Vec<(&Gate, Json, Json, Option<&str>)> = vec![
            (&TOY, toy.clone(), toy.clone(), None),
            (&TOY, unset(&toy, "structural"), toy.clone(), Some("missing structural section")),
            (&TOY, toy.clone(), unset(&toy, "structural"), Some("missing structural section")),
            (&TOY, unset(&toy, "structural.ok"), toy.clone(), Some("structural field ok missing")),
            (&TOY, toy.clone(), unset(&toy, "structural.ok"), Some("structural field ok missing")),
            (&TOY, set(&toy, "structural.count", 425.0), toy.clone(), Some("424 vs measured 425")),
            // Timing: 32x either way is in, 33x is out, zero is an error.
            (&TOY, set(&toy, FAST, 2.0 * 32.0), toy.clone(), None),
            (&TOY, set(&toy, SLOW, 100.0 / 32.0), toy.clone(), None),
            (&TOY, set(&toy, FAST, 2.0 * 33.0), toy.clone(), Some("regression in fast_ms")),
            (&TOY, set(&toy, SLOW, 100.0 / 33.0), toy.clone(), Some("regression in slow_ms")),
            (&TOY, set(&toy, FAST, 0.0), toy.clone(), Some("non-positive timing in fast_ms")),
            // A --quick run against a full baseline, and the reverse.
            (&TOY, unset(&toy, SLOW), toy.clone(), None),
            (&TOY, toy.clone(), unset(&toy, SLOW), None),
            // X18: events_per_sec rides the same window; a parallel suite
            // pass slower than serial is fine on 1 CPU, not on 2.
            (x18, one.clone(), one.clone(), None),
            (x18, set(&one, EPS, 848000.0 / 33.0), one.clone(), Some("in events_per_sec")),
            (x18, two.clone(), two.clone(), Some("suite_speedup is 0.90 on a 2-CPU machine")),
            // X23: read from the "x23" fragment; its timings are required;
            // the committed floor holds even when measured == baseline;
            // replay identity is true, not merely unchanged; 2 shards
            // beat 1 on 2 CPUs.
            (x23, one.clone(), one.clone(), None),
            (x23, unset(&one, "x23"), one.clone(), Some("missing x23 section")),
            (x23, one.clone(), unset(&one, "x23"), Some("missing x23 section")),
            (x23, set(&one, GROUPS, 3.0), one.clone(), Some("regression in shard_groups")),
            (x23, unset(&one, WALL_4), one.clone(), Some("field shard_wall_ms_4 missing")),
            (x23, one.clone(), unset(&one, WALL_1), Some("field shard_wall_ms_1 missing")),
            (x23, low.clone(), low, Some("is below the 1700000 floor")),
            (x23, stale.clone(), stale, Some("sharded replay no longer byte-identical")),
            (x23, two.clone(), two.clone(), Some("shard_speedup_2 is 0.90 on a 2-CPU machine")),
            (x23, set(&two, SPEEDUP, 1.0), two.clone(), Some("shard_speedup_2 is 1.00 on a 2-CPU")),
            (x23, unset(&two, SPEEDUP), two.clone(), Some("field shard_speedup_2 missing")),
            (x23, set(&two, SPEEDUP, 1.01), two.clone(), None),
        ];
        for (row, (gate, measured, baseline, expected)) in table.into_iter().enumerate() {
            let violations = check(gate, &measured, &baseline).err().unwrap_or_default();
            match expected {
                None => assert!(violations.is_empty(), "row {row}: {violations:?}"),
                Some(want) => assert!(
                    violations.len() == 1 && violations[0].contains(want),
                    "row {row}: wanted one violation containing {want:?}, got {violations:?}"
                ),
            }
        }
    }
}
