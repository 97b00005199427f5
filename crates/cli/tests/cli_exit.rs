//! End-to-end exit-status and artifact tests for the `cmi-cli` binary.
//!
//! The strict flags turn observability findings into exit codes so CI
//! can gate on them: `--monitor-strict` exits 3 on a live causal
//! violation, `--telemetry-strict` exits 4 on a watchdog alert. Both
//! default OFF — a violating run without the flag still exits 0, which
//! these tests pin so scripts relying on the old behaviour keep working.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_cmi-cli");

/// Reordering (non-FIFO) inter-system links break Ahamad's FIFO
/// assumption; seed 3 deterministically produces a live causal
/// violation that the online monitor flags mid-run.
const VIOLATING: &str = r#"{
  "seed": 3,
  "vars": 3,
  "monitor": true,
  "systems": [
    { "name": "A", "protocol": "ahamad", "processes": 2 },
    { "name": "B", "protocol": "ahamad", "processes": 2 }
  ],
  "links": [
    { "a": 0, "b": 1, "delay_ms": 1, "faults": { "reorder": 0.9, "reorder_window_ms": 30 } }
  ],
  "workload": { "ops_per_proc": 10, "write_fraction": 0.6, "mean_gap_ms": 2 },
  "checks": ["causal"]
}"#;

/// Healthy reliable-link run whose watchdog is calibrated to fire on
/// any activity at all (`above 1` on the dispatch counter).
const ALERTING: &str = r#"{
  "seed": 7,
  "vars": 2,
  "systems": [
    { "name": "A", "protocol": "ahamad", "processes": 2 },
    { "name": "B", "protocol": "ahamad", "processes": 2 }
  ],
  "links": [ { "a": 0, "b": 1, "delay_ms": 3, "reliable": { "rto_ms": 25 } } ],
  "workload": { "ops_per_proc": 8, "write_fraction": 0.5, "mean_gap_ms": 3 },
  "checks": ["causal"],
  "telemetry": {
    "every_ms": 2,
    "watchdogs": [ { "metric": "engine.events_dispatched", "kind": "above", "limit": 1 } ]
  }
}"#;

/// Same run with the watchdog threshold out of reach: telemetry on,
/// zero alerts.
const QUIET: &str = r#"{
  "seed": 7,
  "vars": 2,
  "systems": [
    { "name": "A", "protocol": "ahamad", "processes": 2 },
    { "name": "B", "protocol": "ahamad", "processes": 2 }
  ],
  "links": [ { "a": 0, "b": 1, "delay_ms": 3, "reliable": { "rto_ms": 25 } } ],
  "workload": { "ops_per_proc": 8, "write_fraction": 0.5, "mean_gap_ms": 3 },
  "checks": ["causal"],
  "telemetry": {
    "every_ms": 2,
    "watchdogs": [ { "metric": "engine.events_dispatched", "kind": "above", "limit": 1000000000 } ]
  }
}"#;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmi-cli-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

fn write_scenario(name: &str, text: &str) -> PathBuf {
    let path = scratch(name);
    std::fs::write(&path, text).expect("write scenario");
    path
}

fn run_cli(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn cmi-cli")
}

#[test]
fn monitor_strict_exits_3_on_live_violation() {
    let path = write_scenario("violating.json", VIOLATING);
    let out = run_cli(&["run", path.to_str().unwrap(), "--monitor-strict"]);
    assert_eq!(out.status.code(), Some(3), "monitor violation must exit 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("MONITOR ALERT"),
        "live alert still printed: {stderr}"
    );
}

#[test]
fn monitor_violation_without_strict_keeps_exit_0() {
    let path = write_scenario("violating_lenient.json", VIOLATING);
    let out = run_cli(&["run", path.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "default behaviour is report-only"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("NOT CAUSAL"), "verdict in report: {stdout}");
}

#[test]
fn telemetry_strict_exits_4_on_watchdog_alert() {
    let path = write_scenario("alerting.json", ALERTING);
    let out = run_cli(&["run", path.to_str().unwrap(), "--telemetry-strict"]);
    assert_eq!(out.status.code(), Some(4), "watchdog alert must exit 4");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[telemetry]"), "summary rendered: {stdout}");

    // Without the flag the same alerting run exits 0.
    let out = run_cli(&["run", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn telemetry_strict_passes_a_quiet_run() {
    let path = write_scenario("quiet.json", QUIET);
    let out = run_cli(&["run", path.to_str().unwrap(), "--telemetry-strict"]);
    assert_eq!(out.status.code(), Some(0), "no alerts, no failure");
}

#[test]
fn telemetry_out_writes_jsonl_timeline() {
    let path = write_scenario("timeline_src.json", QUIET);
    let dest = scratch("timeline.jsonl");
    let out = run_cli(&[
        "run",
        path.to_str().unwrap(),
        "--telemetry-out",
        dest.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&dest).expect("timeline written");
    let mut lines = text.lines();
    let header = lines.next().expect("header line");
    assert!(header.contains("\"telemetry\":"), "header: {header}");
    assert!(
        lines.clone().count() >= 1,
        "at least one sample line: {text}"
    );
    assert!(
        lines.all(|l| l.starts_with('{') && l.contains("\"t\":")),
        "every sample is a JSON object with a timestamp: {text}"
    );
}

#[test]
fn telemetry_out_json_extension_writes_chrome_trace() {
    let path = write_scenario("trace_src.json", QUIET);
    let dest = scratch("counters.json");
    let out = run_cli(&[
        "run",
        path.to_str().unwrap(),
        "--telemetry-out",
        dest.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&dest).expect("trace written");
    assert!(
        text.contains("\"traceEvents\""),
        ".json extension selects the Chrome trace exporter: {text}"
    );
    assert!(text.contains("\"ph\": \"C\""), "counter events: {text}");
}

#[test]
fn flag_only_telemetry_needs_no_scenario_block() {
    // --telemetry-every enables telemetry on a scenario without a
    // `telemetry` block, so any run can be inspected ad hoc.
    let path = write_scenario("plain.json", VIOLATING);
    let dest = scratch("adhoc.jsonl");
    let out = run_cli(&[
        "run",
        path.to_str().unwrap(),
        "--telemetry-every",
        "2",
        "--telemetry-out",
        dest.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&dest).expect("timeline written");
    assert!(text.contains("\"every_ns\":2000000"), "cadence: {text}");
}

#[test]
fn experiments_filter_selects_an_id_exactly_and_refuses_a_miss() {
    // `x1` names X1 alone, not X10–X19, whose titles contain "x1" too.
    let out = run_cli(&["experiments", "x1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let banners: Vec<_> = stdout
        .lines()
        .filter(|l| l.starts_with("########"))
        .collect();
    assert_eq!(banners, ["######## X1 protocol trace (Figs. 1-3) ########"]);

    // A filter that matches nothing is an error, not an empty success.
    let out = run_cli(&["experiments", "x1", "no-such-experiment"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "nothing runs before the error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains("\"no-such-experiment\"") && stderr.contains("valid ids: x1 x2 x3"),
        "{stderr}"
    );
}

/// Wide enough that a batch of runs prints several pipe buffers of
/// text: 33 verdict lines under each of four checks.
const WIDE: &str = r#"{
  "seed": 5,
  "vars": 2,
  "topology": "shared",
  "topology_spec": { "shape": "star", "systems": 32, "delay_ms": 2 },
  "workload": { "ops_per_proc": 2, "write_fraction": 0.5, "mean_gap_ms": 2 },
  "checks": ["causal", "pram", "session", "cache"]
}"#;

#[test]
fn closed_stdout_pipe_is_a_quiet_exit_0() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    // `cmi-cli … | head -1`: the reader takes one line and goes away
    // while the tool still has far more to print than a pipe holds.
    let path = write_scenario("wide.json", WIDE);
    let mut args = vec!["run"];
    args.resize(1 + 24, path.to_str().unwrap());
    let mut child = Command::new(BIN)
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cmi-cli");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first_line = String::new();
    stdout.read_line(&mut first_line).expect("read one line");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for cmi-cli");
    assert_eq!(
        out.status.code(),
        Some(0),
        "a vanished reader is not an error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "and not worth a message: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Numbers past the id spaces: variables are numbered by a `u32`, a
/// system's processes (application plus IS slots) by a `u16`. Each is a
/// one-line error naming the field and its limit, never a panic or an
/// allocation abort.
#[test]
fn numbers_outside_the_id_spaces_exit_1_with_one_line() {
    const WORKLOAD: &str =
        r#""workload": { "ops_per_proc": 2, "write_fraction": 0.5, "mean_gap_ms": 2 }"#;
    // Two systems; `link` follows the link's `"a", "b"` members.
    let two = |link: &str, workload: &str| {
        format!(
            r#""systems": [
                {{ "name": "A", "protocol": "ahamad", "processes": 2 }},
                {{ "name": "B", "protocol": "ahamad", "processes": 2 }}
              ],
              "links": [ {{ "a": 0, "b": 1{link} }} ],
              {workload}"#
        )
    };
    let systems = |processes: &str| {
        format!(
            r#""systems": [
                {{ "name": "A", "protocol": "ahamad", "processes": {processes} }},
                {{ "name": "B", "protocol": "ahamad", "processes": 2 }}
              ],
              "links": [ {{ "a": 0, "b": 1, "delay_ms": 3 }} ],
              {WORKLOAD}"#
        )
    };
    let spec = |processes: &str| {
        format!(
            r#""topology_spec": {{ "shape": "star", "systems": 3, "processes": {processes} }},
              {WORKLOAD}"#
        )
    };
    // Two links into one shared IS-process whose crash windows overlap.
    let shared_crashes = format!(
        r#""topology": "shared",
          "systems": [
            {{ "name": "A", "protocol": "ahamad", "processes": 2 }},
            {{ "name": "B", "protocol": "ahamad", "processes": 2 }},
            {{ "name": "C", "protocol": "ahamad", "processes": 2 }}
          ],
          "links": [
            {{ "a": 0, "b": 1, "delay_ms": 3,
               "crash": {{ "side": "a", "windows": [ {{ "down_ms": 50, "up_ms": 150 }} ] }} }},
            {{ "a": 0, "b": 2, "delay_ms": 3,
               "crash": {{ "side": "a", "windows": [ {{ "down_ms": 100, "up_ms": 200 }} ] }} }}
          ],
          {WORKLOAD}"#
    );
    let gap = |ops: &str, gap: &str| {
        format!(
            r#""workload": {{ "ops_per_proc": {ops}, "write_fraction": 0.5, "mean_gap_ms": {gap} }}"#
        )
    };
    let vars_limit = "vars must be in 1..=4294967295";
    let cases = [
        ("vars0", "0", systems("2"), vars_limit),
        ("vars-wide", "4294967296", systems("2"), vars_limit),
        (
            "procs",
            "2",
            systems("65536"),
            "processes (65536) plus IS slots (1)",
        ),
        (
            "procs-2^53",
            "2",
            systems("9007199254740993"),
            "at most 65536",
        ),
        (
            "spec-procs",
            "2",
            spec("65536"),
            "processes (65536) plus IS slots",
        ),
        ("spec-2^53", "2", spec("9007199254740993"), "at most 65536"),
        (
            "shared-crash-overlap",
            "2",
            shared_crashes,
            "system #0: IS-process crash windows 50ms..150ms and 100ms..200ms overlap",
        ),
        (
            "dialup-period0",
            "2",
            two(r#", "dialup": { "period_ms": 0, "up_ms": 1 }"#, WORKLOAD),
            "links[0].dialup.period_ms must be positive, got 0",
        ),
        (
            "dialup-up0",
            "2",
            two(r#", "dialup": { "period_ms": 10, "up_ms": 0 }"#, WORKLOAD),
            "links[0].dialup.up_ms must be positive, got 0",
        ),
        (
            "write-fraction-2^32",
            "2",
            two(
                "",
                r#""workload": { "ops_per_proc": 2, "write_fraction": 4294967296 }"#,
            ),
            "workload.write_fraction must be a probability in [0, 1], got 4294967296",
        ),
        (
            "delay-2^53",
            "2",
            two(r#", "delay_ms": 9007199254740993"#, WORKLOAD),
            "links[0].delay_ms must be at most 4294967296 ms",
        ),
        (
            "rto-2^53",
            "2",
            two(r#", "reliable": { "rto_ms": 9007199254740993 }"#, WORKLOAD),
            "links[0].reliable.rto_ms must be at most 4294967296 ms",
        ),
        (
            "dialup-2^53",
            "2",
            two(
                r#", "dialup": { "period_ms": 9007199254740993, "up_ms": 1 }"#,
                WORKLOAD,
            ),
            "links[0].dialup.period_ms must be at most 4294967296 ms",
        ),
        (
            "crash-up-2^53",
            "2",
            two(
                r#", "crash": { "windows": [ { "down_ms": 1, "up_ms": 9007199254740993 } ] }"#,
                WORKLOAD,
            ),
            "links[0].crash.windows[0].up_ms must be at most 4294967296 ms",
        ),
        (
            "mean-gap-2^53",
            "2",
            two("", &gap("2", "9007199254740993")),
            "workload.mean_gap_ms must be at most 4294967296 ms",
        ),
        (
            "workload-horizon",
            "2",
            two("", &gap("4294967295", "4294967296")),
            "workload.ops_per_proc × workload.mean_gap_ms must be at most 4294967296 ms",
        ),
        (
            "chaos-horizon-2^53",
            "2",
            two(
                "",
                &format!(r#"{WORKLOAD}, "chaos": {{ "horizon_ms": 9007199254740993 }}"#),
            ),
            "chaos.horizon_ms must be at most 4294967296 ms",
        ),
        (
            "chaos-max-2^53",
            "2",
            two(
                "",
                &format!(
                    r#"{WORKLOAD}, "chaos": {{ "horizon_ms": 10,
                        "partitions": {{ "count": 1, "max_ms": 9007199254740993 }} }}"#
                ),
            ),
            "chaos.partitions.max_ms must be at most 4294967296 ms",
        ),
        (
            "membership-at-2^53",
            "2",
            two(
                "",
                &format!(
                    r#"{WORKLOAD}, "membership": {{ "events": [
                        {{ "at_ms": 9007199254740993, "op": "detach", "system": 1 }} ] }}"#
                ),
            ),
            "membership.events[0].at_ms must be at most 4294967296 ms",
        ),
        (
            "spec-delay-2^53",
            "2",
            format!(
                r#""topology_spec": {{ "shape": "star", "systems": 3,
                    "delay_ms": 9007199254740993 }}, {WORKLOAD}"#
            ),
            "topology_spec.delay_ms must be at most 4294967296 ms",
        ),
        (
            "spec-rto-2^53",
            "2",
            format!(
                r#""topology_spec": {{ "shape": "star", "systems": 3,
                    "reliable": {{ "rto_ms": 9007199254740993 }} }}, {WORKLOAD}"#
            ),
            "topology_spec.reliable.rto_ms must be at most 4294967296 ms",
        ),
    ];
    for (name, vars, body, needle) in cases {
        let text = format!(r#"{{ "seed": 1, "vars": {vars}, {body} }}"#);
        let path = write_scenario(&format!("{name}.json"), &text);
        let out = run_cli(&["run", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(stderr.contains(needle), "{name}: {stderr}");
    }
}
