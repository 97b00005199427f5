//! The `exp` binary's command line: every misuse is a one-line error
//! and a non-zero exit, never a silent no-op.

use std::process::{Command, Output};

use cmi_bench::experiments::x01_trace;
use cmi_obs::Json;

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp runs")
}

/// Asserts `exp args` fails without printing a report and returns its
/// stderr.
fn rejected(args: &[&str]) -> String {
    let out = exp(args);
    assert!(!out.status.success(), "exp {args:?} must fail");
    assert!(out.stdout.is_empty(), "exp {args:?} ran before failing");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn an_unknown_id_lists_the_valid_ones() {
    let err = rejected(&["x25"]);
    assert!(err.contains("unknown experiment x25"), "{err}");
    for id in ["all", "x1", "x17", "x24"] {
        assert!(err.split_whitespace().any(|w| w == id), "{id}: {err}");
    }
}

#[test]
fn flags_that_do_not_apply_are_errors() {
    let err = rejected(&["x1", "--check", "BENCH_PERF.json"]);
    assert!(err.contains("x1 has no baseline gate"), "{err}");
    let err = rejected(&["all", "--check", "BENCH_PERF.json"]);
    assert!(err.contains("--check needs one gated experiment"), "{err}");
    let err = rejected(&["x1", "--json", "unwritten.json"]);
    assert!(err.contains("x1 has no JSON artifact"), "{err}");
    assert!(rejected(&["x1", "--bogus"]).contains("unknown flag --bogus"));
    assert!(rejected(&["x19", "--quick"]).contains("unknown flag --quick"));
    let err = rejected(&["x19", "--jobs", "2"]);
    assert!(err.contains("--jobs applies to all, not to x19"), "{err}");
    assert!(rejected(&["x1", "x2"]).contains("unexpected argument x2"));
    assert!(rejected(&[]).contains("usage: exp"));
}

#[test]
fn value_flags_need_their_value() {
    for flag in ["--json", "--check", "--jobs"] {
        let want = format!("{flag} requires an argument");
        assert!(rejected(&["x19", flag]).contains(&want), "{flag} last");
        assert!(
            rejected(&["x19", flag, "--list"]).contains(&want),
            "{flag} followed by a flag"
        );
    }
    for jobs in ["0", "many"] {
        let err = rejected(&["all", "--jobs", jobs]);
        assert!(err.contains("--jobs requires a positive integer"), "{err}");
    }
}

#[test]
fn a_plain_experiment_prints_exactly_its_report() {
    let out = exp(&["x1"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), x01_trace::run());
}

#[test]
fn gated_lists_the_seven_baselines() {
    let out = exp(&["--gated"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "x18\tBENCH_PERF.json\n\
         x19\tBENCH_CHECK.json\n\
         x20\tBENCH_MONITOR.json\n\
         x21\tBENCH_CHAOS.json\n\
         x22\tBENCH_TELEMETRY.json\n\
         x23\tBENCH_PERF.json\n\
         x24\tBENCH_X24.json\n"
    );
}

/// A gated experiment prints exactly its deterministic report, and
/// `--json` writes its artifact: structural facts only, no timing.
/// (No `--check` here: `scripts/verify.sh` gates every baseline.)
#[test]
fn a_gated_experiment_writes_a_structural_artifact() {
    let path = std::env::temp_dir().join(format!("exp_cli_x19_{}.json", std::process::id()));
    let out = exp(&["x19", "--json", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.ends_with("(checker.causal.check_s).\n"), "{stdout}");

    let artifact = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let structural = artifact.get("structural").and_then(Json::as_object);
    assert!(structural.is_some_and(|f| !f.is_empty()), "{artifact:?}");
    assert!(artifact.get("timing").is_none(), "{artifact:?}");
}
