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

/// Numbers past the id spaces and past what a field can hold: variables
/// are bounded by what every replica allocates, a system's processes
/// (application plus IS slots) and the systems themselves are numbered by
/// a `u16`, and a `u32` field never truncates. Each is a one-line error
/// naming the field and its limit, never a panic or an allocation abort.
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
    let spec_systems = |systems: &str| {
        format!(r#""topology_spec": {{ "shape": "chain", "systems": {systems} }}, {WORKLOAD}"#)
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
    let cases = [
        ("vars0", "0", systems("2"), "vars must be positive, got 0"),
        (
            "vars-wide",
            "4294967296",
            systems("2"),
            "vars must be at most 4096, got 4294967296",
        ),
        (
            "vars-4097",
            "4097",
            systems("2"),
            "vars must be at most 4096, got 4097",
        ),
        (
            "ops-2^32+1",
            "2",
            two("", &gap("4294967297", "2")),
            "workload.ops_per_proc must be at most 4294967295, got 4294967297",
        ),
        (
            "retries-2^32",
            "2",
            two(
                r#", "reliable": { "rto_ms": 30, "max_retries": 4294967296 }"#,
                WORKLOAD,
            ),
            "links[0].reliable.max_retries must be at most 4294967295, got 4294967296",
        ),
        (
            // Both of the above in one file: the link comes first.
            "ops-and-retries",
            "2",
            two(
                r#", "reliable": { "rto_ms": 30, "max_retries": 4294967296 }"#,
                &gap("4294967297", "2"),
            ),
            "links[0].reliable.max_retries must be at most 4294967295, got 4294967296",
        ),
        (
            "chaos-count-2^32",
            "2",
            two(
                "",
                &format!(
                    r#"{WORKLOAD}, "chaos": {{ "horizon_ms": 10,
                        "crashes": {{ "count": 4294967296, "max_ms": 4 }} }}"#
                ),
            ),
            "chaos.crashes.count must be at most 65536, got 4294967296",
        ),
        (
            "spec-systems-65537",
            "2",
            spec_systems("65537"),
            "topology_spec.systems must be at most 65536, got 65537",
        ),
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

/// Every shape of decode error: a missing required field, a value of
/// the wrong type for each kind, an unknown field in every object. Each
/// exits 1 with exactly this one line on stderr.
#[test]
fn decode_errors_exit_1_with_one_line() {
    const SYSTEMS: &str = r#""systems": [
        { "name": "A", "protocol": "ahamad", "processes": 2 },
        { "name": "B", "protocol": "ahamad", "processes": 2 }
      ]"#;
    const WORKLOAD: &str = r#""workload": { "ops_per_proc": 2 }"#;
    // Two systems and one link; `link` follows the link's `"a", "b"`
    // members, `extra` follows the workload.
    let two = |link: &str, workload: &str, extra: &str| {
        format!(
            r#"{{ "seed": 1, {SYSTEMS}, "links": [ {{ "a": 0, "b": 1{link} }} ],
                  {workload}{extra} }}"#
        )
    };
    let link = |link: &str| two(link, WORKLOAD, "");
    let root = |extra: &str| two("", WORKLOAD, extra);
    let workload = |workload: &str| two("", workload, "");
    let spec = |inner: &str| format!(r#"{{ "topology_spec": {{ {inner} }}, {WORKLOAD} }}"#);
    let cases = [
        (
            "missing-workload",
            format!("{{ {SYSTEMS} }}"),
            r#"scenario parse error: scenario: missing field "workload""#,
        ),
        (
            "missing-ops",
            workload(r#""workload": { "mean_gap_ms": 2 }"#),
            r#"scenario parse error: workload: missing field "ops_per_proc""#,
        ),
        (
            "missing-system-processes",
            format!(r#"{{ "systems": [ {{ "name": "A", "protocol": "ahamad" }} ], {WORKLOAD} }}"#),
            r#"scenario parse error: systems[0]: missing field "processes""#,
        ),
        (
            "missing-link-b",
            format!(r#"{{ {SYSTEMS}, "links": [ {{ "a": 0 }} ], {WORKLOAD} }}"#),
            r#"scenario parse error: links[0]: missing field "b""#,
        ),
        (
            "missing-crash-windows",
            link(r#", "crash": { "side": "a" }"#),
            r#"scenario parse error: links[0].crash: missing field "windows""#,
        ),
        (
            "missing-window-up",
            link(r#", "crash": { "windows": [ { "down_ms": 1 } ] }"#),
            r#"scenario parse error: links[0].crash.windows[0]: missing field "up_ms""#,
        ),
        (
            "missing-spec-shape",
            spec(r#""systems": 3"#),
            r#"scenario parse error: topology_spec: missing field "shape""#,
        ),
        (
            "missing-chaos-horizon",
            root(r#", "chaos": { "seed": 3 }"#),
            r#"scenario parse error: chaos: missing field "horizon_ms""#,
        ),
        (
            "missing-rate-count",
            root(r#", "chaos": { "horizon_ms": 10, "crashes": { "min_ms": 1 } }"#),
            r#"scenario parse error: chaos.crashes: missing field "count""#,
        ),
        (
            "missing-event-op",
            root(r#", "membership": { "events": [ { "at_ms": 1, "system": 1 } ] }"#),
            r#"scenario parse error: membership.events[0]: missing field "op""#,
        ),
        (
            "missing-watchdog-limit",
            root(r#", "telemetry": { "watchdogs": [ { "metric": "m", "kind": "above" } ] }"#),
            r#"scenario parse error: telemetry.watchdogs[0]: missing field "limit""#,
        ),
        (
            "type-root-int",
            root("").replace(r#""seed": 1"#, r#""seed": "one""#),
            "scenario parse error: seed must be a non-negative integer",
        ),
        (
            "type-root-bool",
            root(r#", "trace": 1"#),
            "scenario parse error: trace must be a boolean",
        ),
        (
            "type-root-string",
            root(r#", "topology": 1"#),
            "scenario parse error: topology must be a string",
        ),
        (
            "type-root-array",
            root(r#", "checks": "causal""#),
            "scenario parse error: checks must be an array",
        ),
        (
            "type-array-item",
            root(r#", "checks": [1]"#),
            "scenario parse error: checks[0] must be a string",
        ),
        (
            "type-systems-array",
            format!(r#"{{ "systems": {{}}, {WORKLOAD} }}"#),
            "scenario parse error: systems must be an array",
        ),
        (
            "type-system-string",
            root("").replace(r#""name": "A""#, r#""name": 1"#),
            "scenario parse error: systems[0].name must be a string",
        ),
        (
            "type-system-int",
            root("").replacen(r#""processes": 2 }"#, r#""processes": "two" }"#, 1),
            "scenario parse error: systems[0].processes must be a non-negative integer",
        ),
        (
            "type-link-index",
            root("").replace(r#""a": 0"#, r#""a": -1"#),
            "scenario parse error: links[0].a must be a non-negative integer",
        ),
        (
            "type-link-ms",
            link(r#", "delay_ms": 1.5"#),
            "scenario parse error: links[0].delay_ms must be a non-negative integer",
        ),
        (
            "type-link-batch",
            link(r#", "batch_ms": "x""#),
            "scenario parse error: links[0].batch_ms must be a non-negative integer",
        ),
        (
            "type-fault-number",
            link(r#", "faults": { "drop": "x" }"#),
            "scenario parse error: links[0].faults.drop must be a number",
        ),
        (
            "type-reliable-int",
            link(r#", "reliable": { "max_retries": -1 }"#),
            "scenario parse error: links[0].reliable.max_retries must be a non-negative integer",
        ),
        (
            "type-crash-array",
            link(r#", "crash": { "windows": 1 }"#),
            "scenario parse error: links[0].crash.windows must be an array",
        ),
        (
            "type-workload-int",
            workload(r#""workload": { "ops_per_proc": "x" }"#),
            "scenario parse error: workload.ops_per_proc must be a non-negative integer",
        ),
        (
            "type-workload-number",
            workload(r#""workload": { "ops_per_proc": 2, "write_fraction": "x" }"#),
            "scenario parse error: workload.write_fraction must be a number",
        ),
        (
            "type-spec-int",
            spec(r#""shape": "star", "systems": "3""#),
            "scenario parse error: topology_spec.systems must be a non-negative integer",
        ),
        (
            "type-spec-fanout",
            spec(r#""shape": "tree", "systems": 3, "fanout": 1.5"#),
            "scenario parse error: topology_spec.fanout must be a non-negative integer",
        ),
        (
            "type-chaos-object",
            root(r#", "chaos": 1"#),
            "scenario parse error: chaos must be an object",
        ),
        (
            "type-chaos-seed",
            root(r#", "chaos": { "seed": -1, "horizon_ms": 10 }"#),
            "scenario parse error: chaos.seed must be a non-negative integer",
        ),
        (
            "type-rate-count",
            root(r#", "chaos": { "horizon_ms": 10, "churn": { "count": "x" } }"#),
            "scenario parse error: chaos.churn.count must be a non-negative integer",
        ),
        (
            "type-start-detached",
            root(r#", "membership": { "start_detached": ["x"] }"#),
            "scenario parse error: membership.start_detached[0] must be a non-negative integer",
        ),
        (
            "type-events-array",
            root(r#", "membership": { "events": {} }"#),
            "scenario parse error: membership.events must be an array",
        ),
        (
            "type-telemetry-capacity",
            root(r#", "telemetry": { "capacity": "x" }"#),
            "scenario parse error: telemetry.capacity must be a non-negative integer",
        ),
        (
            "type-watchdog-limit",
            root(
                r#", "telemetry": { "watchdogs": [
                    { "metric": "m", "kind": "above", "limit": "x" } ] }"#,
            ),
            "scenario parse error: telemetry.watchdogs[0].limit must be a number",
        ),
        (
            "unknown-spec",
            spec(r#""shape": "star", "systems": 3, "fan": 2"#),
            "scenario parse error: topology_spec: unknown field \"fan\" \
             (allowed: shape, systems, fanout, protocol, processes, delay_ms, reliable)",
        ),
        (
            "unknown-chaos",
            root(r#", "chaos": { "horizon_ms": 10, "partition": {} }"#),
            "scenario parse error: chaos: unknown field \"partition\" \
             (allowed: seed, horizon_ms, partitions, crashes, churn)",
        ),
        (
            "unknown-rate",
            root(r#", "chaos": { "horizon_ms": 10, "partitions": { "count": 1, "max": 4 } }"#),
            "scenario parse error: chaos.partitions: unknown field \"max\" \
             (allowed: count, min_ms, max_ms)",
        ),
        (
            "unknown-membership",
            root(r#", "membership": { "detached": [1] }"#),
            "scenario parse error: membership: unknown field \"detached\" \
             (allowed: start_detached, events)",
        ),
        (
            "unknown-event",
            root(
                r#", "membership": { "events": [
                    { "at_ms": 1, "op": "detach", "system": 1, "sys": 1 } ] }"#,
            ),
            "scenario parse error: membership.events[0]: unknown field \"sys\" \
             (allowed: at_ms, op, system)",
        ),
        (
            "unknown-telemetry",
            root(r#", "telemetry": { "every": 2 }"#),
            "scenario parse error: telemetry: unknown field \"every\" \
             (allowed: every_ms, capacity, watchdogs)",
        ),
        (
            "unknown-watchdog",
            root(
                r#", "telemetry": { "watchdogs": [
                    { "metric": "m", "kind": "above", "limit": 1, "for_ms": 3 } ] }"#,
            ),
            "scenario parse error: telemetry.watchdogs[0]: unknown field \"for_ms\" \
             (allowed: metric, kind, limit)",
        ),
        (
            "unknown-root",
            root(r#", "var": 3"#),
            "scenario parse error: scenario: unknown field \"var\" (allowed: seed, vars, \
             topology, systems, links, workload, checks, trace, lineage, monitor, \
             topology_spec, chaos, membership, telemetry)",
        ),
        (
            "unknown-system",
            root("").replacen(r#""processes": 2 }"#, r#""processes": 2, "procs": 3 }"#, 1),
            "scenario parse error: systems[0]: unknown field \"procs\" \
             (allowed: name, protocol, processes, intra_delay_ms)",
        ),
        (
            // A misspelled delay, fault and gap: each ran as its default.
            "unknown-link",
            two(
                r#", "delayms": 40, "faults": { "dorp": 0.3 }"#,
                r#""workload": { "ops_per_proc": 2, "mean_gap": 50 }"#,
                "",
            ),
            "scenario parse error: links[0]: unknown field \"delayms\" (allowed: a, b, \
             delay_ms, jitter_ms, dialup, batch_ms, faults, reliable, crash)",
        ),
        (
            "unknown-dialup",
            link(r#", "dialup": { "period_ms": 10, "up_ms": 2, "down_ms": 8 }"#),
            "scenario parse error: links[0].dialup: unknown field \"down_ms\" \
             (allowed: period_ms, up_ms)",
        ),
        (
            "unknown-faults",
            link(r#", "faults": { "dorp": 0.3 }"#),
            "scenario parse error: links[0].faults: unknown field \"dorp\" \
             (allowed: drop, duplicate, reorder, reorder_window_ms, corrupt)",
        ),
        (
            "unknown-reliable",
            spec(r#""shape": "star", "systems": 3, "reliable": { "rto": 30 }"#),
            "scenario parse error: topology_spec.reliable: unknown field \"rto\" \
             (allowed: rto_ms, max_retries, max_queue, degraded_after_ms)",
        ),
        (
            "unknown-crash",
            link(r#", "crash": { "end": "a", "windows": [] }"#),
            "scenario parse error: links[0].crash: unknown field \"end\" \
             (allowed: side, windows)",
        ),
        (
            "unknown-window",
            link(r#", "crash": { "windows": [ { "down_ms": 1, "up_ms": 2, "for_ms": 1 } ] }"#),
            "scenario parse error: links[0].crash.windows[0]: unknown field \"for_ms\" \
             (allowed: down_ms, up_ms)",
        ),
        (
            "unknown-workload",
            workload(r#""workload": { "ops_per_proc": 2, "mean_gap": 50 }"#),
            "scenario parse error: workload: unknown field \"mean_gap\" \
             (allowed: ops_per_proc, write_fraction, mean_gap_ms)",
        ),
        (
            "type-faults-object",
            link(r#", "faults": 5"#),
            "scenario parse error: links[0].faults must be an object",
        ),
    ];
    for (name, text, line) in cases {
        let path = write_scenario(&format!("decode-{name}.json"), &text);
        let out = run_cli(&["run", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert_eq!(stderr, format!("{line}\n"), "{name}");
    }
}

/// `--chaos-*` flag values meet the same table bounds and two-field
/// rules as a `chaos` block in the file: one line naming the field.
#[test]
fn chaos_flag_values_are_held_to_the_schema_table() {
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/islands.json");
    let cases: [(&[&str], &str); 2] = [
        (
            &["--chaos-horizon", "0"],
            "invalid scenario: chaos.horizon_ms must be positive, got 0",
        ),
        (
            &["--chaos-horizon", "100", "--chaos-partitions", "1:40-20"],
            "invalid scenario: chaos.partitions must satisfy min_ms <= max_ms, \
             got min_ms = 40, max_ms = 20",
        ),
    ];
    for (flags, line) in cases {
        let mut args = vec!["run", scenario];
        args.extend_from_slice(flags);
        let out = run_cli(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert_eq!(stderr, format!("{line}\n"), "{flags:?}");
    }
}
