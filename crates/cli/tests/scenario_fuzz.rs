//! Every rejected scenario input returns an `Err`, never a panic.
//!
//! For every numeric leaf of every shipped `scenarios/*.json` file, the
//! leaf is replaced by each of 0, 1, 2^32 and 2^53 + 1, and the mutated
//! scenario goes down the CLI's path: parse → `validate` → build → run,
//! under `catch_unwind`. Each case must end in `Ok` or `Err`. To keep
//! the sweep small, every mutated copy caps `workload.ops_per_proc` at 3
//! and `topology_spec.systems` at 8.
//!
//! A few cases are valid but run for a long time (their virtual horizon
//! stretches to 2^32 ms under a 2 ms telemetry cadence, or a 2^32 ms
//! retransmission timeout). [`LONG`] names them; they stop after build.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cmi_cli::Scenario;
use cmi_obs::Json;

/// The values every numeric leaf takes in turn.
const VALUES: [u64; 4] = [0, 1, 1 << 32, (1 << 53) + 1];

/// Valid mutations whose run is legitimately long: `(file, leaf, value)`.
const LONG: &[(&str, &str, u64)] = &[
    ("chaos_churn.json", "links[0].delay_ms", 1 << 32),
    ("chaos_churn.json", "links[0].reliable.rto_ms", 1 << 32),
    ("chaos_churn.json", "links[1].delay_ms", 1 << 32),
    ("chaos_churn.json", "links[1].reliable.rto_ms", 1 << 32),
    ("chaos_churn.json", "membership.events[0].at_ms", 1 << 32),
    ("telemetry.json", "links[0].delay_ms", 1 << 32),
    ("telemetry.json", "links[0].reliable.rto_ms", 1 << 32),
    ("telemetry.json", "links[1].delay_ms", 1 << 32),
    ("telemetry.json", "links[1].reliable.rto_ms", 1 << 32),
];

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

/// Lowers the number at `path`, if present, to at most `cap`.
fn cap(doc: &mut Json, path: &[&str], cap: f64) {
    let path: Path = path.iter().map(|k| Step::Key(k.to_string())).collect();
    if let Some(Json::Num(n)) = at_mut(doc, &path) {
        *n = n.min(cap);
    }
}

/// Parse → validate → build → run (or only build), as the CLI does.
fn drive(text: &str, run: bool) -> Result<(), String> {
    let scenario = Scenario::from_json(text).map_err(|e| e.to_string())?;
    scenario.validate().map_err(|e| e.to_string())?;
    if run {
        scenario.run().map_err(|e| e.to_string())?;
    } else {
        scenario.build().map_err(|e| e.to_string())?;
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
    let mut leaves = 0;
    for file in &files {
        let text = std::fs::read_to_string(format!("{dir}/{file}")).expect("scenario reads");
        let doc = Json::parse(&text).expect("shipped scenario is JSON");
        let mut paths = Vec::new();
        numeric_leaves(&doc, &mut Vec::new(), &mut paths);
        leaves += paths.len();
        for path in &paths {
            let leaf = render(path);
            let mut panics = Vec::new();
            for value in VALUES {
                let mut mutated = doc.clone();
                *at_mut(&mut mutated, path).expect("leaf exists") = Json::Num(value as f64);
                cap(&mut mutated, &["workload", "ops_per_proc"], 3.0);
                cap(&mut mutated, &["topology_spec", "systems"], 8.0);
                let run = !LONG.contains(&(file.as_str(), leaf.as_str(), value));
                let text = mutated.to_compact();
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| drive(&text, run))) {
                    panics.push(format!("  = {value}: {}", panic_text(&*payload)));
                }
            }
            // Fail at the first leaf that panics: a later mutation of an
            // unvalidated scenario may run for as long as it likes.
            if !panics.is_empty() {
                std::panic::set_hook(quiet);
                panic!("{file} {leaf} panicked:\n{}", panics.join("\n"));
            }
        }
    }
    std::panic::set_hook(quiet);
    assert!(leaves > 0, "no numeric leaves found under {dir}");
}
