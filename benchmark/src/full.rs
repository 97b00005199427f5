//! The full set: every workload in a fresh child process of this
//! binary, one after another (never two at once, so memory and CPU are
//! per workload), through the same single-run interface the driver
//! uses. Also `--agree`, `--quick`'s extra smokes and `--known-bad`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

use cmi_obs::{Json, ToJson};

use crate::pipeline::{repetition, Engine};
use crate::run::available_cpus;
use crate::spec::{bounds, load_contract, schema_errors};
use crate::stats::{within_bound, worse_by};
use crate::trace::Tracer;
use crate::workloads::{Workload, ALL};
use crate::{out_dir, BENCH_DIR};

/// The arguments of a full run.
pub struct FullArgs {
    pub only: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub reps: Option<u32>,
    pub traced: bool,
    pub agree: bool,
    pub quick: bool,
}

/// Starts one single-run child, echoes its output and returns its
/// result line.
fn child_run(args: &FullArgs, workload: Workload, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    // `--quick` runs a fixed three repetitions: its timings are not
    // comparable anyway.
    if let Some(reps) = args.reps.or(args.quick.then_some(3)) {
        cmd.args(["--reps", &reps.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("cannot read the child's output: {e}"))?;
        // The result line is for this process; everything else is the
        // child printing its metrics.
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for the child: {e}"))?;
    if !status.success() {
        return Err(format!(
            "the {} child exited with {status}",
            workload.name()
        ));
    }
    Json::parse(&last).map_err(|e| format!("the child's last line is no result object: {e}"))
}

/// One pass over the workloads: `(workload, end-to-end result,
/// per-layer result when traced)`.
type Set = Vec<(Workload, Json, Option<Json>)>;

fn run_set(args: &FullArgs) -> Result<Set, String> {
    let mut set = Vec::new();
    for workload in ALL
        .into_iter()
        .filter(|w| args.only.is_none_or(|o| o == *w))
    {
        println!("\n== {} (end to end, tracing off)", workload.name());
        let end_to_end = child_run(args, workload, false)?;
        let per_layer = if args.traced {
            println!("\n== {} (traced)", workload.name());
            Some(child_run(args, workload, true)?)
        } else {
            None
        };
        set.push((workload, end_to_end, per_layer));
    }
    Ok(set)
}

fn all_correct(set: &Set) -> bool {
    set.iter().all(|(_, e2e, layers)| {
        std::iter::once(e2e)
            .chain(layers)
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
    })
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compares two sets per workload × end-to-end metric against the
/// contract's bounds; prints a row each. Returns whether all passed and
/// the rows for `results.json`.
fn agreement(first: &Set, second: &Set) -> Result<(bool, Json), String> {
    let bounds = bounds(&load_contract()?)?;
    let mut all_pass = true;
    let mut rows = Vec::new();
    println!("\n== agreement of the two sets (second vs first, against each metric's bound)");
    for ((workload, a, _), (_, b, _)) in first.iter().zip(second) {
        for m in &bounds {
            let (Some(x), Some(y)) = (metric(a, &m.name), metric(b, &m.name)) else {
                return Err(format!("{}: no {} in a result", workload.name(), m.name));
            };
            let pass = within_bound(m.better, m.bound, x, y);
            all_pass &= pass;
            println!(
                "{:<16} {:<28} {:>16.6} {:>16.6}  ratio {:.4}  worse by {:+.2} % (bound {} %)  {}",
                workload.name(),
                m.name,
                x,
                y,
                y / x,
                100.0 * worse_by(m.better, x, y),
                100.0 * m.bound,
                if pass { "PASS" } else { "FAIL" }
            );
            rows.push(Json::obj([
                ("workload", Json::Str(workload.name().into())),
                ("metric", Json::Str(m.name.clone())),
                ("first", Json::Num(x)),
                ("second", Json::Num(y)),
                ("pass", Json::Bool(pass)),
            ]));
        }
    }
    Ok((all_pass, Json::Arr(rows)))
}

fn set_json(set: &Set) -> Json {
    Json::Obj(
        set.iter()
            .map(|(w, e2e, layers)| {
                let mut members = vec![("end_to_end".to_string(), e2e.clone())];
                if let Some(layers) = layers {
                    members.push(("per_layer".to_string(), layers.clone()));
                }
                (w.name().to_string(), Json::Obj(members))
            })
            .collect(),
    )
}

/// Runs the full set (twice with `--agree`), writes `out/results.json`.
/// `Ok(true)` when every oracle passed and, with `--agree`, the sets
/// agreed.
pub fn full(args: &FullArgs) -> Result<bool, String> {
    println!(
        "# seed {}, {} CPUs; workloads run one at a time, islands_sharded alone uses 2 threads",
        args.seed,
        available_cpus()
    );
    let first = run_set(args)?;
    let mut ok = all_correct(&first);
    let mut sets = vec![set_json(&first)];
    let mut agree_rows = Json::Null;
    if args.agree {
        let second = run_set(args)?;
        ok &= all_correct(&second);
        sets.push(set_json(&second));
        let (pass, rows) = agreement(&first, &second)?;
        ok &= pass;
        agree_rows = rows;
    }
    if args.quick {
        let errors = schema_errors(&load_contract()?);
        for e in &errors {
            eprintln!("SCHEMA: {e}");
        }
        ok &= errors.is_empty();
        println!("\n== CLI equivalence smoke");
        match cli_equivalence()? {
            Some(skipped) => println!("skipped: {skipped}"),
            None => println!("harness text and JSON bytes equal cmi-cli's"),
        }
        println!("quick: timings not comparable");
    }
    let results = Json::obj([
        ("seed", args.seed.to_json()),
        ("quick", Json::Bool(args.quick)),
        ("cpus", (available_cpus() as u64).to_json()),
        ("sets", Json::Arr(sets)),
        ("agreement", agree_rows),
    ]);
    let path = format!("{}/results.json", out_dir()?);
    std::fs::write(&path, results.to_pretty() + "\n")
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("\nresults written to {path}");
    if !ok {
        eprintln!("FAILED: an oracle failed or the two sets disagree (see above)");
    }
    Ok(ok)
}

/// Satellite smoke: for two of the CLI's own scenarios, the harness's
/// in-process text and JSON bytes equal what `cmi-cli run … --json`
/// prints and writes, so the benchmark measures what users run.
/// `Ok(Some(reason))` when skipped because the root binary is not built.
pub fn cli_equivalence() -> Result<Option<String>, String> {
    let cli = format!("{BENCH_DIR}/../target/release/cmi-cli");
    if !Path::new(&cli).exists() {
        return Ok(Some(format!(
            "{cli} is not built (run `cargo build --release` at the repo root)"
        )));
    }
    let out_dir = out_dir()?;
    for name in ["islands.json", "faulty_link.json"] {
        let scenario = format!("{BENCH_DIR}/../crates/cli/scenarios/{name}");
        let text = std::fs::read_to_string(&scenario)
            .map_err(|e| format!("cannot read {scenario}: {e}"))?;
        let rep = repetition(&text, Engine::Serial, &mut Tracer::new(false))?;
        let json_path = format!("{out_dir}/cli_smoke.{name}");
        let output = Command::new(&cli)
            .args(["run", &scenario, "--json", &json_path])
            .output()
            .map_err(|e| format!("cannot run {cli}: {e}"))?;
        let expected = format!("{}JSON report written to {json_path}\n", rep.rendered);
        if !output.status.success() || output.stdout != expected.as_bytes() {
            return Err(format!("{name}: cmi-cli's text differs from the harness's"));
        }
        let written = std::fs::read_to_string(&json_path)
            .map_err(|e| format!("cannot read {json_path}: {e}"))?;
        if written != rep.bytes {
            return Err(format!(
                "{name}: cmi-cli's JSON bytes differ from the harness's"
            ));
        }
    }
    Ok(None)
}

/// Runs `known_bad/churn_loss.json` — churn over lossy links, which
/// today ends `α^T: NOT causal` — and prints the verdict. Excluded from
/// every metric; `Ok(true)` when the known failure reproduces.
pub fn known_bad() -> Result<bool, String> {
    let path = format!("{BENCH_DIR}/known_bad/churn_loss.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rep = repetition(&text, Engine::Serial, &mut Tracer::new(false))?;
    print!("{}", rep.rendered);
    let union_not_causal = rep
        .rendered
        .lines()
        .any(|l| l.starts_with("  α^T: NOT causal"));
    let monitor_flagged = rep.report.monitor().is_some_and(|m| !m.is_clean());
    if union_not_causal && monitor_flagged {
        println!("\nknown-bad reproduced: α^T is NOT causal and the live monitor flagged it");
    } else {
        println!(
            "\nknown-bad did NOT reproduce: if a correctness fix landed, fold this scenario \
             into the chaos_lossy workload's family in a benchmark-only change"
        );
    }
    Ok(union_not_causal && monitor_flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result object reading 1 on every metric but the two given.
    fn result(wall: f64, msgs: f64) -> Json {
        let metrics = crate::spec::END_TO_END
            .iter()
            .map(|(name, _)| {
                let value = match *name {
                    "e2e_wall_s" => wall,
                    "msgs_per_write" => msgs,
                    _ => 1.0,
                };
                (name.to_string(), Json::obj([("value", Json::Num(value))]))
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(true)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    #[test]
    fn agreement_applies_each_metrics_own_bound() {
        let set = |wall, msgs| vec![(Workload::PairDeep, result(wall, msgs), None)];
        // 5 % slower is inside e2e_wall_s's bound.
        assert!(agreement(&set(1.0, 15.0), &set(1.05, 15.0)).unwrap().0);
        // 30 % slower is outside every bound.
        assert!(!agreement(&set(1.0, 15.0), &set(1.3, 15.0)).unwrap().0);
        // Faster never fails.
        assert!(agreement(&set(1.0, 15.0), &set(0.5, 15.0)).unwrap().0);
        assert!(all_correct(&set(1.0, 15.0)));
    }

    #[test]
    fn known_bad_scenario_still_ends_not_causal() {
        assert_eq!(known_bad(), Ok(true));
    }

    #[test]
    fn cli_equivalence_holds_or_skips_with_a_reason() {
        match cli_equivalence().unwrap() {
            None => {}
            Some(reason) => assert!(reason.contains("not built"), "{reason}"),
        }
    }
}
