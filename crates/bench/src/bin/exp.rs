//! The experiment runner: every experiment of the suite behind one binary.
//!
//!   exp <id> [--json PATH] [--check BASELINE]
//!   exp all [--jobs N] [--json PATH]
//!   exp --list        ids and titles, in suite order
//!   exp --gated       `id<TAB>baseline` per baseline-gated experiment
//!
//! `exp <id>` prints the experiment's deterministic report. `exp all`
//! prints every report in registry order (the source of
//! `experiments_output.txt`); with `--jobs N` they run on N worker
//! threads and the bytes do not change.
//!
//!   --json PATH       write the experiment's artifact (a gated
//!                     experiment's structural facts, X17's lineage
//!                     artifact, or for `all` the whole suite plus an
//!                     instrumented sample run)
//!   --check BASELINE  compare the artifact's structural facts against a
//!                     committed baseline (see `cmi_bench::gate`); exit
//!                     nonzero on any violation
//!   --jobs N          worker count for `all` (default 1)

use std::process::ExitCode;

use cmi_bench::experiments::{run_all_jobs, run_all_json, REGISTRY};
use cmi_bench::gate;
use cmi_obs::Json;

const USAGE: &str =
    "usage: exp <id> [--json PATH] [--check BASELINE] | all [--jobs N] [--json PATH] | --list | --gated";

fn write_json(target: &str, path: &str, artifact: &Json) -> Result<(), String> {
    std::fs::write(path, artifact.to_pretty() + "\n")
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("{target} artifact written to {path}");
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let (mut target, mut json_out, mut check_path, mut jobs) = (None, None, None, None);
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
                    if let Some(gate) = &exp.gate {
                        println!("{}\t{}", exp.id, gate.baseline);
                    }
                }
                return Ok(());
            }
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
    if jobs.is_some() {
        return Err(format!("--jobs applies to all, not to {target}"));
    }
    if check_path.is_some() && exp.gate.is_none() {
        return Err(format!(
            "{target} has no baseline gate (see exp --gated), --check does not apply"
        ));
    }
    if json_out.is_some() && exp.artifact.is_none() {
        return Err(format!(
            "{target} has no JSON artifact, --json does not apply"
        ));
    }

    print!("{}", (exp.run)());
    let Some(measure) = exp
        .artifact
        .filter(|_| json_out.is_some() || check_path.is_some())
    else {
        return Ok(());
    };
    let artifact = measure();
    if let Some(path) = json_out {
        write_json(target, path, &artifact)?;
    }
    let (Some(path), Some(gate)) = (check_path, &exp.gate) else {
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
