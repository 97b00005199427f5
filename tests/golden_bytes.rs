//! Golden report bytes: the `--json` artifact and the rendered terminal
//! text of a fixed set of scenarios, hashed and compared against
//! committed constants.
//!
//! Every run is a pure function of `(scenario text, seed)`, so a change
//! that does not mean to move report bytes must leave every digest
//! here untouched — the property the repo benchmark's `report_digest`
//! checks at full size, made visible in `cargo test`. The scenarios are
//! reduced-size versions of the four benchmark shapes (wide hub, deep
//! pair, lossy monitored tree, disconnected islands on the serial and
//! the sharded engine), every file under `crates/cli/scenarios/`, and a
//! table of link shapes no benchmark runs (raw links under membership
//! churn and crashes, batching, lossy lineage, a mixed shared hub),
//! each of which also proves through a counter that its actor arm fired,
//! and two rows that between them set every scenario field.
//!
//! The path is the CLI's and the benchmark harness's: scenario text →
//! `Scenario::from_json` → `validate` → build + run (`Scenario::run` /
//! `run_sharded`) → `RunReport::to_json` with the `scenario` member
//! prepended → `to_pretty() + "\n"`. No clock is read, and the two
//! host-wall-clock members a report can carry stay out of the hash:
//! `monitor.check_latency_ns` (monitored runs) is masked by
//! `report_digest`, `telemetry.spans` (telemetry runs) is dropped from
//! the artifact before it is serialized.
//!
//! `report_digest` hashes only the JSON; the text `cmi-cli run` prints
//! (`cmi_cli::render_report`: the `concurrency: …% … longest causal
//! write chain N` header, every `causal ✓ (N steps)` line) is pinned by
//! `rendered_digest` over the same runs, minus the `[telemetry]` block's
//! wall-clock `span …` lines.

use cmi::obs::{Json, ToJson};
use cmi_cli::{render_report, Scenario};

/// The wall-clock member of a monitored run's report.
const WALL_CLOCK_KEY: &str = "\"monitor.check_latency_ns\"";

/// FNV-1a (64-bit) folded over `bytes` from state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of `report` with the body of every `monitor.check_latency_ns`
/// object skipped — the same function as `benchmark/src/digest.rs`, so a
/// digest printed by `benchmark/run.sh` and one pinned here mean the
/// same thing.
fn report_digest(report: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut rest = report;
    while let Some(at) = rest.find(WALL_CLOCK_KEY) {
        let after_key = at + WALL_CLOCK_KEY.len();
        // The histogram snapshot is a flat object of numbers: the first
        // '}' after its '{' closes it.
        let Some(open) = rest[after_key..].find('{').map(|i| after_key + i) else {
            break;
        };
        let Some(close) = rest[open..].find('}').map(|i| open + i) else {
            break;
        };
        h = fnv1a(h, &rest.as_bytes()[..=open]);
        rest = &rest[close..];
    }
    fnv1a(h, rest.as_bytes())
}

/// Hash of the text `cmi-cli run` prints, with the wall-clock lines of
/// a telemetry run's span profile (`  span <phase>: … ns total …`)
/// skipped.
fn rendered_digest(rendered: &str) -> u64 {
    rendered
        .split_inclusive('\n')
        .filter(|line| !line.starts_with("  span "))
        .fold(0xcbf2_9ce4_8422_2325, |h, line| fnv1a(h, line.as_bytes()))
}

/// What `cmi-cli run <scenario> --json <file>` writes and prints.
struct Artifacts {
    /// The `--json` file's bytes, minus the wall-clock span profile of
    /// a telemetry run.
    json: String,
    /// The terminal text.
    rendered: String,
    /// The run's counters, for rows that assert which arm fired.
    report: cmi::core::RunReport,
}

/// Runs `text` on the serial engine or on the sharded one with `shards`
/// worker threads.
fn artifacts(text: &str, shards: Option<usize>) -> Artifacts {
    let scenario = Scenario::from_json(text).expect("scenario parses");
    scenario.validate().expect("scenario validates");
    let report = match shards {
        None => scenario.run(),
        Some(n) => scenario.run_sharded(n),
    }
    .expect("scenario builds");
    let rendered = render_report(&scenario, &report);
    let mut artifact = report.to_json();
    if let Json::Obj(members) = &mut artifact {
        members.insert(0, ("scenario".to_string(), scenario.to_json()));
        if let Some((_, Json::Obj(telemetry))) = members.iter_mut().find(|(k, _)| k == "telemetry")
        {
            telemetry.retain(|(k, _)| k != "spans");
        }
    }
    Artifacts {
        json: artifact.to_pretty() + "\n",
        rendered,
        report,
    }
}

/// Compares `(name, digest)` rows against `golden`; on any difference
/// the panic message is the measured table in source form.
fn assert_golden(what: &str, golden: &[(&str, u64)], measured: &[(String, u64)]) {
    if measured
        .iter()
        .map(|(name, digest)| (name.as_str(), *digest))
        .eq(golden.iter().copied())
    {
        return;
    }
    let mut table = String::new();
    for (name, digest) in measured {
        let note = match golden.iter().find(|(n, _)| n == name) {
            Some((_, d)) if d == digest => String::new(),
            Some((_, d)) => format!(" // was 0x{d:016x}"),
            None => " // new".to_string(),
        };
        table.push_str(&format!("    (\"{name}\", 0x{digest:016x}),{note}\n"));
    }
    panic!(
        "golden bytes moved. If that is intended, replace the rows of {what} in \
         tests/golden_bytes.rs with:\n{table}"
    );
}

/// `hub256_wide` at m = 32: shared-IS hub of hubs, one process per
/// system, write-only.
const HUB32_WIDE: &str = r#"{
  "seed": 42,
  "vars": 2,
  "topology": "shared",
  "topology_spec": {
    "shape": "hub_of_hubs",
    "systems": 32,
    "fanout": 8,
    "protocol": "ahamad",
    "processes": 1,
    "delay_ms": 2,
    "reliable": { "rto_ms": 80 }
  },
  "workload": { "ops_per_proc": 3, "write_fraction": 1.0, "mean_gap_ms": 2 },
  "checks": ["causal"]
}"#;

/// `pair_deep` at 60 ops per process: Ahamad×8 + Frontier×8 over one
/// reliable link.
const PAIR_DEEP_60: &str = r#"{
  "seed": 42,
  "vars": 8,
  "systems": [
    { "name": "A", "protocol": "ahamad", "processes": 8 },
    { "name": "F", "protocol": "frontier", "processes": 8 }
  ],
  "links": [ { "a": 0, "b": 1, "delay_ms": 10, "reliable": { "rto_ms": 100 } } ],
  "workload": { "ops_per_proc": 60, "write_fraction": 0.5, "mean_gap_ms": 2 },
  "checks": ["causal"]
}"#;

/// `chaos_lossy` at 60 ops per process: the 4-system lossy tree, three
/// seeded partitions, the online monitor live.
const CHAOS_LOSSY_60: &str = r#"{
  "seed": 42,
  "vars": 6,
  "systems": [
    { "name": "S0", "protocol": "ahamad", "processes": 4 },
    { "name": "S1", "protocol": "frontier", "processes": 4 },
    { "name": "S2", "protocol": "ahamad", "processes": 4 },
    { "name": "S3", "protocol": "frontier", "processes": 4 }
  ],
  "links": [
    { "a": 0, "b": 1, "delay_ms": 4,
      "faults": { "drop": 0.05, "duplicate": 0.02, "corrupt": 0.02 },
      "reliable": { "rto_ms": 30 } },
    { "a": 1, "b": 2, "delay_ms": 4,
      "faults": { "drop": 0.05, "duplicate": 0.02, "corrupt": 0.02 },
      "reliable": { "rto_ms": 30 } },
    { "a": 1, "b": 3, "delay_ms": 4,
      "faults": { "drop": 0.05, "duplicate": 0.02, "corrupt": 0.02 },
      "reliable": { "rto_ms": 30 } }
  ],
  "workload": { "ops_per_proc": 60, "write_fraction": 0.5, "mean_gap_ms": 4 },
  "checks": ["causal"],
  "monitor": true,
  "chaos": {
    "seed": 1234567,
    "horizon_ms": 240,
    "partitions": { "count": 3, "min_ms": 20, "max_ms": 120 }
  }
}"#;

/// `islands_sharded` at 16 ops per process: four disconnected
/// Ahamad×6 + Frontier×6 pairs.
const ISLANDS_16: &str = r#"{
  "seed": 42,
  "vars": 8,
  "systems": [
    { "name": "A0", "protocol": "ahamad", "processes": 6 },
    { "name": "F0", "protocol": "frontier", "processes": 6 },
    { "name": "A1", "protocol": "ahamad", "processes": 6 },
    { "name": "F1", "protocol": "frontier", "processes": 6 },
    { "name": "A2", "protocol": "ahamad", "processes": 6 },
    { "name": "F2", "protocol": "frontier", "processes": 6 },
    { "name": "A3", "protocol": "ahamad", "processes": 6 },
    { "name": "F3", "protocol": "frontier", "processes": 6 }
  ],
  "links": [
    { "a": 0, "b": 1, "delay_ms": 10, "reliable": { "rto_ms": 100 } },
    { "a": 2, "b": 3, "delay_ms": 10, "reliable": { "rto_ms": 100 } },
    { "a": 4, "b": 5, "delay_ms": 10, "reliable": { "rto_ms": 100 } },
    { "a": 6, "b": 7, "delay_ms": 10, "reliable": { "rto_ms": 100 } }
  ],
  "workload": { "ops_per_proc": 16, "write_fraction": 0.5, "mean_gap_ms": 2 },
  "checks": ["causal"]
}"#;

/// Digests of the reduced benchmark shapes.
const GOLDEN_SHAPES: &[(&str, u64)] = &[
    ("hub32_wide", 0x89dae739e74e8bf6),
    ("pair_deep_60", 0x2c53dad8183b61df),
    ("chaos_lossy_60", 0xe47746284df00062),
    ("islands_16", 0x769c44a984b531c4),
    ("islands_16 --shards 2", 0x769c44a984b531c4),
];

/// Rendered-text digests of the reduced benchmark shapes.
const GOLDEN_SHAPES_RENDERED: &[(&str, u64)] = &[
    ("hub32_wide", 0x916364a4043b3fea),
    ("pair_deep_60", 0xf5852ea716becbfa),
    ("chaos_lossy_60", 0x6b6338668154c56d),
    ("islands_16", 0x384cc9cfa950c45c),
    ("islands_16 --shards 2", 0x384cc9cfa950c45c),
];

/// Digests of `crates/cli/scenarios/*.json`, in file-name order.
const GOLDEN_CLI_SCENARIOS: &[(&str, u64)] = &[
    ("chaos_churn.json", 0x3fc0f1a96fda5004),
    ("dialup_tree.json", 0x7bcc410077c9fe09),
    ("faulty_link.json", 0x9d420059457382e0),
    ("hub_churn.json", 0xf811428d15de5cb4),
    ("islands.json", 0xd97678bf389a331a),
    ("lineage.json", 0x9f8afef741e8b503),
    ("telemetry.json", 0x30dab8c70d8b7b6a),
];

/// Rendered-text digests of `crates/cli/scenarios/*.json`.
const GOLDEN_CLI_SCENARIOS_RENDERED: &[(&str, u64)] = &[
    ("chaos_churn.json", 0x464fce88866f7aaf),
    ("dialup_tree.json", 0x22f97c9ad2f45d35),
    ("faulty_link.json", 0x07866cf0282031ca),
    ("hub_churn.json", 0x0104284ccf14f672),
    ("islands.json", 0xf2b1639228ece681),
    ("lineage.json", 0xe6f02ac2f2c7001c),
    ("telemetry.json", 0x0c864bc036449a8c),
];

/// Link shapes the benchmark workloads never run: every one of them
/// drives actor arms of the IS node that only these rows and
/// `experiments_output.txt` pin. Each entry is `(name, scenario, the
/// counters that must be positive — proof that the arm fired)`.
const ARM_SHAPES: &[(&str, &str, &[&str])] = &[
    (
        // Raw links (one plain, one batched) under a detach/attach of
        // the middle system: the `Link` and `LinkBatch` stale arms and
        // the raw attach resync.
        "raw_membership",
        r#"{
  "seed": 11,
  "vars": 3,
  "systems": [
    { "name": "A", "protocol": "ahamad", "processes": 2 },
    { "name": "B", "protocol": "frontier", "processes": 2 },
    { "name": "C", "protocol": "ahamad", "processes": 2 }
  ],
  "links": [
    { "a": 0, "b": 1, "delay_ms": 6 },
    { "a": 1, "b": 2, "delay_ms": 6, "batch_ms": 4 }
  ],
  "workload": { "ops_per_proc": 30, "write_fraction": 0.6, "mean_gap_ms": 2 },
  "checks": ["causal"],
  "membership": {
    "events": [
      { "at_ms": 20, "op": "detach", "system": 1 },
      { "at_ms": 45, "op": "attach", "system": 1 }
    ]
  }
}"#,
        &["isp.stale_epoch_rejected", "isp.resync_pairs"],
    ),
    (
        // A raw link whose b end crashes: the raw resync branch and the
        // crashed receiver's drops.
        "raw_crash",
        r#"{
  "seed": 12,
  "vars": 3,
  "systems": [
    { "name": "A", "protocol": "ahamad", "processes": 2 },
    { "name": "B", "protocol": "ahamad", "processes": 2 }
  ],
  "links": [
    { "a": 0, "b": 1, "delay_ms": 5,
      "crash": { "side": "b", "windows": [ { "down_ms": 15, "up_ms": 40 } ] } }
  ],
  "workload": { "ops_per_proc": 30, "write_fraction": 0.6, "mean_gap_ms": 2 },
  "checks": ["causal"]
}"#,
        &[
            "isp.crashes",
            "isp.resync_pairs",
            "isp.recv_dropped_crashed",
        ],
    ),
    (
        // Batching on a reliable link whose a end crashes: batches into
        // frames, the degraded backlog, the reliable resync.
        "batch_reliable_crash",
        r#"{
  "seed": 13,
  "vars": 3,
  "systems": [
    { "name": "A", "protocol": "ahamad", "processes": 2 },
    { "name": "B", "protocol": "frontier", "processes": 2 }
  ],
  "links": [
    { "a": 0, "b": 1, "delay_ms": 5, "batch_ms": 4,
      "reliable": { "rto_ms": 20, "degraded_after_ms": 10 },
      "crash": { "side": "a", "windows": [ { "down_ms": 15, "up_ms": 45 } ] } }
  ],
  "workload": { "ops_per_proc": 30, "write_fraction": 0.6, "mean_gap_ms": 2 },
  "checks": ["causal"]
}"#,
        &[
            "isp.resync_pairs",
            "isp.recv_dropped_crashed",
            "isp.degraded_coalesced",
            "isp.degraded_flushes",
        ],
    ),
    (
        // A dropping, duplicating, corrupting reliable link with lineage
        // on: dedup and retransmit lineage records, damaged frames.
        "lossy_lineage",
        r#"{
  "seed": 14,
  "vars": 3,
  "lineage": true,
  "systems": [
    { "name": "A", "protocol": "ahamad", "processes": 2 },
    { "name": "B", "protocol": "frontier", "processes": 2 }
  ],
  "links": [
    { "a": 0, "b": 1, "delay_ms": 4,
      "faults": { "drop": 0.2, "duplicate": 0.2, "corrupt": 0.2 },
      "reliable": { "rto_ms": 15, "degraded_after_ms": 20 } }
  ],
  "workload": { "ops_per_proc": 30, "write_fraction": 0.6, "mean_gap_ms": 2 },
  "checks": ["causal"]
}"#,
        &[
            "isp.dedup_drops",
            "isp.corrupt_rejected",
            "isp.retransmits",
            "isp.degraded_coalesced",
        ],
    ),
    (
        // One shared IS node serving a raw and a reliable link.
        "shared_mixed",
        r#"{
  "seed": 15,
  "vars": 3,
  "topology": "shared",
  "systems": [
    { "name": "hub", "protocol": "ahamad", "processes": 2 },
    { "name": "raw", "protocol": "frontier", "processes": 2 },
    { "name": "rel", "protocol": "ahamad", "processes": 2 }
  ],
  "links": [
    { "a": 0, "b": 1, "delay_ms": 5 },
    { "a": 0, "b": 2, "delay_ms": 5, "reliable": { "rto_ms": 30 } }
  ],
  "workload": { "ops_per_proc": 20, "write_fraction": 0.6, "mean_gap_ms": 3 },
  "checks": ["causal"]
}"#,
        &["isp.acks", "isp.link_pairs_sent", "isp.propagate_in"],
    ),
];

/// Digests of [`ARM_SHAPES`].
const GOLDEN_ARM_SHAPES: &[(&str, u64)] = &[
    ("raw_membership", 0x5e6f83b22f8d6b29),
    ("raw_crash", 0x690a910b8e7f0746),
    ("batch_reliable_crash", 0xf44da86c73faeab5),
    ("lossy_lineage", 0x6e6fdf922278fc3d),
    ("shared_mixed", 0x12527d25caa6ebbd),
];

/// Rendered-text digests of [`ARM_SHAPES`].
const GOLDEN_ARM_SHAPES_RENDERED: &[(&str, u64)] = &[
    ("raw_membership", 0x9dbe1fde8133464a),
    ("raw_crash", 0x6577ebe4c86cbb2c),
    ("batch_reliable_crash", 0x1f30ac98d88ca5dc),
    ("lossy_lineage", 0x5a70551770a9e169),
    ("shared_mixed", 0xfe82a222f933d544),
];

/// Every scenario field away from its default, in two rows: explicit
/// `systems`/`links` carrying every optional block, and a generated
/// `topology_spec` shape (the two exclude each other). The `--json`
/// artifact embeds the parsed scenario, so these rows pin the scenario
/// decoder and encoder field by field.
const SCHEMA_SHAPES: &[(&str, &str)] = &[
    (
        "every_field",
        r#"{
  "seed": 21,
  "vars": 5,
  "topology": "shared",
  "systems": [
    { "name": "A", "protocol": "ahamad", "processes": 2, "intra_delay_ms": 2 },
    { "name": "B", "protocol": "frontier", "processes": 2, "intra_delay_ms": 3 },
    { "name": "C", "protocol": "ahamad", "processes": 2 }
  ],
  "links": [
    { "a": 0, "b": 1, "delay_ms": 4, "jitter_ms": 2, "batch_ms": 3,
      "faults": { "drop": 0.1, "duplicate": 0.05, "reorder": 0.2, "reorder_window_ms": 6, "corrupt": 0.05 },
      "reliable": { "rto_ms": 25, "max_retries": 40, "max_queue": 64, "degraded_after_ms": 300 },
      "crash": { "side": "a", "windows": [ { "down_ms": 30, "up_ms": 60 } ] } },
    { "a": 1, "b": 2, "delay_ms": 5, "dialup": { "period_ms": 40, "up_ms": 15 } }
  ],
  "workload": { "ops_per_proc": 12, "write_fraction": 0.6, "mean_gap_ms": 3 },
  "checks": ["causal", "pram"],
  "trace": true,
  "lineage": true,
  "monitor": true,
  "chaos": {
    "seed": 99,
    "horizon_ms": 80,
    "partitions": { "count": 1, "min_ms": 5, "max_ms": 15 },
    "crashes": { "count": 1, "min_ms": 5, "max_ms": 10 },
    "churn": { "count": 1, "min_ms": 5, "max_ms": 10 }
  },
  "membership": {
    "start_detached": [2],
    "events": [ { "at_ms": 20, "op": "attach", "system": 2 } ]
  },
  "telemetry": {
    "every_ms": 3,
    "capacity": 64,
    "watchdogs": [ { "metric": "isp.retransmits", "kind": "below", "limit": 2.5 } ]
  }
}"#,
    ),
    (
        "every_spec_field",
        r#"{
  "seed": 22,
  "vars": 3,
  "topology": "shared",
  "topology_spec": {
    "shape": "tree",
    "systems": 7,
    "fanout": 3,
    "protocol": "frontier",
    "processes": 2,
    "delay_ms": 3,
    "reliable": { "rto_ms": 45, "max_retries": 12, "max_queue": 32, "degraded_after_ms": 200 }
  },
  "workload": { "ops_per_proc": 4, "write_fraction": 0.7, "mean_gap_ms": 2 },
  "checks": ["causal", "sequential"]
}"#,
    ),
];

/// Digests of [`SCHEMA_SHAPES`].
const GOLDEN_SCHEMA_SHAPES: &[(&str, u64)] = &[
    ("every_field", 0x6f70111bce47d553),
    ("every_spec_field", 0x7608d7cf28cc801d),
];

/// Rendered-text digests of [`SCHEMA_SHAPES`].
const GOLDEN_SCHEMA_SHAPES_RENDERED: &[(&str, u64)] = &[
    ("every_field", 0xaf57daedc949efc3),
    ("every_spec_field", 0x2764c736e3ff1989),
];

/// `(name, digest)` rows, as `assert_golden` compares them.
type Rows = Vec<(String, u64)>;

/// The rows of `runs`' JSON artifacts and of their rendered texts.
fn digests(runs: &[(&str, Artifacts)]) -> (Rows, Rows) {
    runs.iter()
        .map(|(name, run)| {
            (
                (name.to_string(), report_digest(&run.json)),
                (name.to_string(), rendered_digest(&run.rendered)),
            )
        })
        .unzip()
}

#[test]
fn reduced_benchmark_shapes_keep_their_report_bytes() {
    let islands_serial = artifacts(ISLANDS_16, None);
    let islands_sharded = artifacts(ISLANDS_16, Some(2));
    assert!(
        islands_serial.json == islands_sharded.json,
        "the sharded engine's report bytes differ from the serial engine's"
    );
    assert!(
        islands_serial.rendered == islands_sharded.rendered,
        "the sharded engine's rendered text differs from the serial engine's"
    );
    let (json, rendered) = digests(&[
        ("hub32_wide", artifacts(HUB32_WIDE, None)),
        ("pair_deep_60", artifacts(PAIR_DEEP_60, None)),
        ("chaos_lossy_60", artifacts(CHAOS_LOSSY_60, None)),
        ("islands_16", islands_serial),
        ("islands_16 --shards 2", islands_sharded),
    ]);
    assert_golden("GOLDEN_SHAPES", GOLDEN_SHAPES, &json);
    assert_golden("GOLDEN_SHAPES_RENDERED", GOLDEN_SHAPES_RENDERED, &rendered);
}

#[test]
fn committed_cli_scenarios_keep_their_report_bytes() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/cli/scenarios");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("scenario directory exists")
        .map(|entry| entry.expect("directory entry reads").file_name())
        .map(|name| name.into_string().expect("scenario file names are UTF-8"))
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    let runs: Vec<(&str, Artifacts)> = names
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(format!("{dir}/{name}")).expect("scenario reads");
            (name.as_str(), artifacts(&text, None))
        })
        .collect();
    let (json, rendered) = digests(&runs);
    assert_golden("GOLDEN_CLI_SCENARIOS", GOLDEN_CLI_SCENARIOS, &json);
    assert_golden(
        "GOLDEN_CLI_SCENARIOS_RENDERED",
        GOLDEN_CLI_SCENARIOS_RENDERED,
        &rendered,
    );
}

#[test]
fn actor_arm_shapes_keep_their_report_bytes() {
    let runs: Vec<(&str, Artifacts)> = ARM_SHAPES
        .iter()
        .map(|&(name, text, proofs)| {
            let run = artifacts(text, None);
            for &counter in proofs {
                assert!(
                    run.report.metrics().counter(counter) > 0,
                    "{name}: {counter} is 0, the arm it proves never fired"
                );
            }
            (name, run)
        })
        .collect();
    let (json, rendered) = digests(&runs);
    assert_golden("GOLDEN_ARM_SHAPES", GOLDEN_ARM_SHAPES, &json);
    assert_golden(
        "GOLDEN_ARM_SHAPES_RENDERED",
        GOLDEN_ARM_SHAPES_RENDERED,
        &rendered,
    );
}

#[test]
fn schema_shapes_keep_their_report_bytes() {
    let runs: Vec<(&str, Artifacts)> = SCHEMA_SHAPES
        .iter()
        .map(|&(name, text)| (name, artifacts(text, None)))
        .collect();
    let (json, rendered) = digests(&runs);
    assert_golden("GOLDEN_SCHEMA_SHAPES", GOLDEN_SCHEMA_SHAPES, &json);
    assert_golden(
        "GOLDEN_SCHEMA_SHAPES_RENDERED",
        GOLDEN_SCHEMA_SHAPES_RENDERED,
        &rendered,
    );
}

#[test]
fn rendered_digest_skips_the_span_profile_and_nothing_else() {
    let text = |total_ns: u64, steps: u64| {
        format!(
            "  α^T: causal ✓ ({steps} steps)\n\n[telemetry]\n  alerts: 0\n  \
             span deliver: 539 calls, {total_ns} ns total, 540 ns avg\n"
        )
    };
    assert_eq!(
        rendered_digest(&text(291_586, 5436)),
        rendered_digest(&text(7, 5436))
    );
    assert_ne!(
        rendered_digest(&text(7, 5436)),
        rendered_digest(&text(7, 5437))
    );
    assert_eq!(rendered_digest(""), 0xcbf2_9ce4_8422_2325);
}

#[test]
fn digest_masks_the_wall_clock_histogram_and_nothing_else() {
    let report = |latency_sum: u64, checked: u64| {
        format!(
            "{{\n  \"ops_checked\": {checked},\n  \"monitor.check_latency_ns\": {{\n    \
             \"count\": 80,\n    \"sum\": {latency_sum}\n  }},\n  \"tail\": 1\n}}\n"
        )
    };
    assert_eq!(
        report_digest(&report(126_521, 80)),
        report_digest(&report(9, 80))
    );
    assert_ne!(report_digest(&report(9, 80)), report_digest(&report(9, 81)));
    assert_eq!(report_digest(""), 0xcbf2_9ce4_8422_2325);
}
