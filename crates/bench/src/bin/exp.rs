//! The experiment runner: every experiment of the suite behind one binary.
//!
//!   exp <id> [--json PATH] [--check BASELINE] [--quick] [--jobs N]
//!   exp all [--jobs N] [--json PATH]
//!   exp --list        ids and titles, in suite order
//!   exp --gated       `id<TAB>baseline` per baseline-gated experiment
//!
//! `exp <id>` prints the experiment's deterministic report; a gated
//! experiment (X18–X24) then runs its measurement and prints that table
//! too. `exp all` prints every report in registry order (the source of
//! `experiments_output.txt`); with `--jobs N` they run on N worker
//! threads and the bytes do not change.
//!
//!   --json PATH       write the experiment's artifact (a gated
//!                     experiment's measurement, X17's lineage artifact,
//!                     or for `all` the whole suite plus an instrumented
//!                     sample run)
//!   --check BASELINE  compare the fresh measurement against a committed
//!                     baseline (see `cmi_bench::gate`); exit nonzero on
//!                     any violation
//!   --quick           fast smoke measurement (fewer reps; the slow
//!                     timing fields are omitted and not compared)
//!   --jobs N          worker count for `all` (default 1) and for X18's
//!                     parallel suite pass (default 4)

use std::process::ExitCode;

use cmi_bench::experiments::{run_all_jobs, run_all_json, REGISTRY};
use cmi_bench::gate;
use cmi_obs::Json;

const USAGE: &str =
    "usage: exp <id>|all [--json PATH] [--check BASELINE] [--quick] [--jobs N] | --list | --gated";

fn write_json(target: &str, path: &str, artifact: &Json) -> Result<(), String> {
    std::fs::write(path, artifact.to_pretty() + "\n")
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("{target} artifact written to {path}");
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let (mut target, mut json_out, mut check_path) = (None, None, None);
    let (mut jobs, mut quick) = (None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for exp in REGISTRY {
                    println!("{}\t{}", exp.id, exp.title);
                }
                return Ok(());
            }
            "--gated" => {
                for exp in REGISTRY {
                    if let Some(gate) = exp.gate {
                        println!("{}\t{}", exp.id, gate.baseline);
                    }
                }
                return Ok(());
            }
            "--quick" => quick = true,
            "--json" | "--check" | "--jobs" => {
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} requires an argument"))?;
                match arg.as_str() {
                    "--json" => json_out = Some(value.as_str()),
                    "--check" => check_path = Some(value.as_str()),
                    _ => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => jobs = Some(n),
                        _ => return Err("--jobs requires a positive integer argument".into()),
                    },
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            id if target.is_none() => target = Some(id),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    let target = target.ok_or(USAGE)?;

    if target == "all" {
        if check_path.is_some() {
            return Err("--check needs one gated experiment (see exp --gated), not all".into());
        }
        print!("{}", run_all_jobs(jobs.unwrap_or(1)));
        if let Some(path) = json_out {
            write_json(target, path, &run_all_json())?;
        }
        return Ok(());
    }

    let exp = REGISTRY
        .iter()
        .find(|exp| exp.id == target)
        .ok_or_else(|| {
            let ids: Vec<_> = REGISTRY.iter().map(|exp| exp.id).collect();
            format!(
                "unknown experiment {target}; valid ids: all {}",
                ids.join(" ")
            )
        })?;
    if check_path.is_some() && exp.gate.is_none() {
        return Err(format!(
            "{target} has no baseline gate (see exp --gated), --check does not apply"
        ));
    }
    if json_out.is_some() && exp.gate.is_none() && exp.artifact.is_none() {
        return Err(format!(
            "{target} has no JSON artifact, --json does not apply"
        ));
    }

    print!("{}", (exp.run)());
    let Some(gate) = exp.gate else {
        if let (Some(path), Some(artifact)) = (json_out, exp.artifact) {
            write_json(target, path, &artifact())?;
        }
        return Ok(());
    };
    let (table, artifact) = (gate.measure)(quick, jobs);
    print!("{table}");
    if let Some(path) = json_out {
        write_json(target, path, &artifact)?;
    }
    let Some(path) = check_path else {
        return Ok(());
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let baseline =
        Json::parse(&text).map_err(|e| format!("cannot parse baseline {path}: {e:?}"))?;
    gate::check(gate, &artifact, &baseline).map_err(|violations| {
        let mut msg = format!("{target} baseline check against {path}: FAILED");
        for v in &violations {
            msg.push_str(&format!("\n  - {v}"));
        }
        msg
    })?;
    eprintln!("{target} baseline check against {path}: OK");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
