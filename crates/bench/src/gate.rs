//! The one baseline gate: every gated experiment (X18–X24) commits a
//! `BENCH_*.json` artifact at the repo root, and `exp <id> --check` holds
//! a fresh artifact to it by a single rule — **the two `structural`
//! objects agree on the union of their keys**. The committed file is the
//! spec: a key on one side only is a violation, and so is any value that
//! differs. Nothing wall-clock is compared; a ratio an experiment times
//! in-process reaches its artifact only as a structural boolean.

use std::collections::BTreeMap;

use cmi_obs::Json;

/// Where one gated experiment's committed baseline lives.
pub struct Gate {
    /// The committed baseline file at the repo root.
    pub baseline: &'static str,
    /// Key the gated `structural` block sits under in both artifacts,
    /// when it is a fragment of a shared file.
    pub section: Option<&'static str>,
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
    let (Some(new_struct), Some(base_struct)) = (
        new_sec.get("structural").and_then(Json::as_object),
        base_sec.get("structural").and_then(Json::as_object),
    ) else {
        return Err(vec!["missing structural section".into()]);
    };
    // key → [measured, baseline], each rendered compactly.
    let mut fields: BTreeMap<&str, [Option<String>; 2]> = BTreeMap::new();
    for (side, pairs) in [new_struct, base_struct].into_iter().enumerate() {
        for (key, value) in pairs {
            fields.entry(key).or_default()[side] = Some(value.to_compact());
        }
    }
    let mut errors = Vec::new();
    for (key, [n, b]) in fields {
        match (n, b) {
            (Some(n), Some(b)) if n == b => {}
            (Some(n), Some(b)) => errors.push(format!(
                "structural regression in {key}: baseline {b} vs measured {n}"
            )),
            (None, _) => errors.push(format!("structural field {key} missing from the artifact")),
            (_, None) => errors.push(format!("structural field {key} missing from the baseline")),
        }
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

    const WHOLE: Gate = Gate {
        baseline: "",
        section: None,
    };

    const SECTION: Gate = Gate {
        baseline: "",
        section: Some("x23"),
    };

    fn artifact() -> Json {
        Json::parse(
            r#"{"structural": {"count": 424, "ok": true, "sizes": [100, 1000]},
                "x23": {"structural": {"shard_groups": 4}}}"#,
        )
        .unwrap()
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

    fn set(json: &Json, path: &str, value: Json) -> Json {
        edit(json, path, Some(value))
    }

    fn unset(json: &Json, path: &str) -> Json {
        edit(json, path, None)
    }

    #[test]
    fn the_gate_accepts_and_rejects_exactly_what_it_should() {
        let a = artifact();
        let extra = set(&a, "structural.new_key", Json::Bool(true));
        let shorter = Json::Arr(vec![Json::Num(100.0)]);

        // (gate, measured, baseline, the one violation expected); one row a case.
        #[rustfmt::skip]
        let table: Vec<(&Gate, Json, Json, Option<&str>)> = vec![
            (&WHOLE, a.clone(), a.clone(), None),
            (&SECTION, a.clone(), a.clone(), None),
            (&WHOLE, unset(&a, "structural"), a.clone(), Some("missing structural section")),
            (&WHOLE, a.clone(), unset(&a, "structural"), Some("missing structural section")),
            (&SECTION, unset(&a, "x23"), a.clone(), Some("missing x23 section")),
            (&SECTION, a.clone(), unset(&a, "x23"), Some("missing x23 section")),
            (&WHOLE, extra.clone(), a.clone(), Some("new_key missing from the baseline")),
            (&WHOLE, a.clone(), extra, Some("new_key missing from the artifact")),
            (&WHOLE, set(&a, "structural.count", Json::Num(425.0)), a.clone(), Some("count: baseline 424 vs measured 425")),
            (&WHOLE, set(&a, "structural.ok", Json::Bool(false)), a.clone(), Some("ok: baseline true vs measured false")),
            (&WHOLE, set(&a, "structural.sizes", shorter), a.clone(), Some("sizes: baseline [100,1000] vs measured [100]")),
            (&SECTION, set(&a, "x23.structural.shard_groups", Json::Num(3.0)), a.clone(), Some("shard_groups: baseline 4 vs measured 3")),
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
