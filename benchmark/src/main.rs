//! `cmi-benchmark` — the repo benchmark, measured from outside: it
//! times calls into each crate's public functions and changes nothing
//! inside them. `benchmark/run.sh` builds and starts it; see
//! `benchmark/README.md` for the metric definitions.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run in this process (the
//!                                                        driver's contract); last stdout
//!                                                        line is the result object
//! run.sh [--seed N] [--seconds S | --reps N] [--workload W]
//!        [--traced] [--agree] [--quick]                  the full set, one child process
//!                                                        per workload, one after another
//! run.sh --known-bad                                     the excluded known-bad scenario
//! run.sh --workload W [--seed N] [--quick] --print-scenario
//!                                                        the generated scenario JSON, to
//!                                                        replay with `cmi-cli run`
//! ```

#![forbid(unsafe_code)]

mod digest;
mod full;
mod layers;
mod pipeline;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use crate::workloads::Workload;

/// The benchmark's own directory (this package is built where it runs).
pub const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// The git-ignored `out/` directory next to the sources, created on
/// first use.
pub fn out_dir() -> Result<String, String> {
    let dir = format!("{BENCH_DIR}/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    Ok(dir)
}

/// Exit code when an oracle failed or two sets disagreed.
const EXIT_FAILED: u8 = 2;

/// Command-line arguments, as given.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<u32>,
    trace: Option<bool>,
    traced: bool,
    agree: bool,
    quick: bool,
    known_bad: bool,
    print_scenario: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} requires a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot use {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload = Some(Workload::parse(v).ok_or_else(|| {
                    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?} (one of: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                out.seed = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--seconds" => {
                let v = value()?;
                let seconds: f64 = v.parse().map_err(|_| bad(v))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad(v));
                }
                out.seconds = Some(seconds);
            }
            "--reps" => {
                let v = value()?;
                let reps: u32 = v.parse().map_err(|_| bad(v))?;
                if reps == 0 {
                    return Err(bad(v));
                }
                out.reps = Some(reps);
            }
            "--trace" => {
                out.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                });
            }
            "--traced" => out.traced = true,
            "--agree" => out.agree = true,
            "--quick" => out.quick = true,
            "--known-bad" => out.known_bad = true,
            "--print-scenario" => out.print_scenario = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let seed = args.seed.unwrap_or(spec::DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS as f64);
    let outcome = if args.known_bad {
        full::known_bad()
    } else if args.print_scenario {
        match args.workload {
            None => Err("--print-scenario needs --workload".to_string()),
            Some(workload) => {
                print!("{}", workload.scenario_text(seed, args.quick));
                Ok(true)
            }
        }
    } else if let Some(traced) = args.trace {
        match args.workload {
            None => Err("--trace selects a single run and needs --workload".to_string()),
            Some(workload) => run::run(
                &run::RunArgs {
                    workload,
                    seed,
                    seconds,
                    reps: args.reps,
                    traced,
                    quick: args.quick,
                },
                process_start,
            ),
        }
    } else {
        full::full(&full::FullArgs {
            only: args.workload,
            seed,
            seconds,
            reps: args.reps,
            traced: args.traced,
            agree: args.agree,
            quick: args.quick,
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A single run that reported `"correct": false` still exits 0:
        // the result line carries the verdict.
        Ok(false) if args.trace.is_some() => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(EXIT_FAILED),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn contract_invocation_parses() {
        let args = parse(&[
            "--workload",
            "pair_deep",
            "--seed",
            "7",
            "--seconds",
            "18",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Workload::PairDeep));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(7), Some(18.0), Some(true))
        );
    }

    #[test]
    fn malformed_arguments_are_rejected_by_name() {
        assert!(parse(&["--workload", "nope"])
            .unwrap_err()
            .contains("hub256_wide"));
        assert!(parse(&["--seed"]).unwrap_err().contains("requires a value"));
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--reps", "0"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown argument"));
    }
}
