//! Every numeric field's bound is where the schema table puts it, and no
//! scenario input panics.
//!
//! For every numeric leaf of every shipped `scenarios/*.json` file, the
//! leaf takes each of 0, 1, its bound, bound + 1 and 2^53 + 1 (which the
//! JSON model reads as 2^53), the bound being the one the schema table
//! (`Scenario::FIELDS`) gives the leaf's field; a field the table leaves
//! unbounded takes 0, 1 and 2^53 + 1. The mutated scenario goes down the
//! CLI's path: parse → `validate` → build → run, under `catch_unwind`.
//! - A value the table admits ends in `Ok` or in an `Err` from a rule
//!   that relates two fields: never one that rejects the leaf itself.
//! - A value the table does not admit ends in an `Err` naming the leaf.
//! - Nothing panics.
//!
//! To keep the sweep small, every mutated copy first shrinks its other
//! leaves: `workload.ops_per_proc` to at most 3 and
//! `topology_spec.systems` to at most 8. A copy whose leaf takes a
//! value of [`WIDE`] or more also raises `telemetry.every_ms` to at
//! least [`WIDE`] ms, so a run that leaf stretches to 2^32 ms of virtual
//! time takes 4096 telemetry samples, not 2^31; every other copy samples
//! at the shipped cadence.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cmi_cli::schema::{Field, Kind, JSON_MAX_INT};
use cmi_cli::Scenario;
use cmi_obs::Json;

/// Fields whose value at the bound is valid but too large to build in a
/// test, whatever the scenario; these cases stop after `validate`. The
/// table cannot say it: the bound is an id space, not a cost. 65536
/// generated systems outgrow the test's memory (the report alone keeps a
/// series per system pair).
const LONG: &[&str] = &["topology_spec.systems"];

/// A leaf value from which a copy samples telemetry at least this many
/// ms apart.
const WIDE: f64 = (1u64 << 20) as f64;

/// A leaf's path from the document root: object keys and array indices.
type Path = Vec<Step>;

#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

fn render(path: &[Step]) -> String {
    let mut out = String::new();
    for step in path {
        match step {
            Step::Key(k) if out.is_empty() => out.push_str(k),
            Step::Key(k) => out.push_str(&format!(".{k}")),
            Step::Index(i) => out.push_str(&format!("[{i}]")),
        }
    }
    out
}

/// Paths of every numeric leaf under `v`.
fn numeric_leaves(v: &Json, path: &mut Path, out: &mut Vec<Path>) {
    match v {
        Json::Num(_) => out.push(path.clone()),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(Step::Index(i));
                numeric_leaves(item, path, out);
                path.pop();
            }
        }
        Json::Obj(members) => {
            for (k, item) in members {
                path.push(Step::Key(k.clone()));
                numeric_leaves(item, path, out);
                path.pop();
            }
        }
        Json::Null | Json::Bool(_) | Json::Str(_) => {}
    }
}

fn at_mut<'a>(v: &'a mut Json, path: &[Step]) -> Option<&'a mut Json> {
    path.iter().try_fold(v, |v, step| match (v, step) {
        (Json::Obj(members), Step::Key(k)) => {
            members.iter_mut().find(|(m, _)| m == k).map(|(_, v)| v)
        }
        (Json::Arr(items), Step::Index(i)) => items.get_mut(*i),
        _ => None,
    })
}

/// Moves the number at `path`, if present, into `low..=high`.
fn clamp(doc: &mut Json, path: &[&str], low: f64, high: f64) {
    let path: Path = path.iter().map(|k| Step::Key(k.to_string())).collect();
    if let Some(Json::Num(n)) = at_mut(doc, &path) {
        *n = n.clamp(low, high);
    }
}

/// The table's field at `path`, and its path with array indices dropped.
fn field(path: &[Step]) -> (&'static Field, String) {
    let mut fields = Scenario::FIELDS;
    let mut found = None;
    let mut name = String::new();
    for step in path {
        if let Step::Key(k) = step {
            let f = fields
                .iter()
                .find(|f| f.key == k)
                .unwrap_or_else(|| panic!("{} is not in the schema table", render(path)));
            if let Kind::Obj(children) = f.kind {
                fields = children;
            }
            name = if name.is_empty() {
                k.clone()
            } else {
                format!("{name}.{k}")
            };
            found = Some(f);
        }
    }
    (found.expect("a leaf has a key"), name)
}

/// 0, 1, the bound and one past it if the field has one, and 2^53 + 1.
fn values(kind: Kind) -> Vec<f64> {
    let bound = match kind {
        Kind::Int { max, .. } if max < JSON_MAX_INT => Some(max as f64),
        Kind::Probability => Some(1.0),
        _ => None,
    };
    let mut values = vec![0.0, 1.0];
    values.extend(bound.into_iter().flat_map(|b| [b, b + 1.0]));
    values.push((JSON_MAX_INT + 1) as f64);
    values.dedup();
    values
}

/// Parse → validate → build → run (or only validate), as the CLI does.
fn drive(text: &str, run: bool) -> Result<(), String> {
    let scenario = Scenario::from_json(text).map_err(|e| e.to_string())?;
    scenario.validate().map_err(|e| e.to_string())?;
    if run {
        scenario.run().map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn mutated_shipped_scenarios_return_ok_or_err_never_panic() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("scenario directory exists")
        .map(|e| {
            e.expect("directory entry reads")
                .file_name()
                .into_string()
                .unwrap()
        })
        .filter(|name| name.ends_with(".json"))
        .collect();
    files.sort();
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut cases = 0;
    for file in &files {
        let text = std::fs::read_to_string(format!("{dir}/{file}")).expect("scenario reads");
        let mut doc = Json::parse(&text).expect("shipped scenario is JSON");
        let mut paths = Vec::new();
        numeric_leaves(&doc, &mut Vec::new(), &mut paths);
        clamp(&mut doc, &["workload", "ops_per_proc"], 0.0, 3.0);
        clamp(&mut doc, &["topology_spec", "systems"], 0.0, 8.0);
        for path in &paths {
            let leaf = render(path);
            let (field, name) = field(path);
            let mut failures = Vec::new();
            for value in values(field.kind) {
                let mut mutated = doc.clone();
                if value >= WIDE {
                    clamp(&mut mutated, &["telemetry", "every_ms"], WIDE, f64::MAX);
                }
                *at_mut(&mut mutated, path).expect("leaf exists") = Json::Num(value);
                let admitted = field.kind.admits(value);
                let run = !(admitted && LONG.contains(&name.as_str()));
                let text = mutated.to_compact();
                cases += 1;
                // A per-field error opens with the field's path.
                let rejects_leaf = |e: &String| {
                    e.split_once(": ")
                        .is_some_and(|(_, msg)| msg.starts_with(&format!("{leaf} must be")))
                };
                match catch_unwind(AssertUnwindSafe(|| drive(&text, run))) {
                    Err(payload) => {
                        failures.push(format!("  = {value}: panicked: {}", panic_text(&*payload)))
                    }
                    Ok(Err(e)) if admitted && rejects_leaf(&e) => {
                        failures.push(format!("  = {value}: admitted, but {e}"))
                    }
                    Ok(Ok(())) if !admitted => {
                        failures.push(format!("  = {value}: out of bounds, but accepted"))
                    }
                    Ok(Err(e)) if !admitted && !rejects_leaf(&e) => {
                        failures.push(format!("  = {value}: out of bounds, but {e}"))
                    }
                    Ok(_) => {}
                }
            }
            // Fail at the first leaf that goes wrong: a later mutation of
            // an unvalidated scenario may run for as long as it likes.
            if !failures.is_empty() {
                std::panic::set_hook(quiet);
                panic!("{file} {leaf}:\n{}", failures.join("\n"));
            }
        }
    }
    std::panic::set_hook(quiet);
    assert!(cases > 0, "no numeric leaves found under {dir}");
}
