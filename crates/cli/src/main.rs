//! `cmi-cli` — run causal-memory interconnection scenarios from the
//! shell.
//!
//! ```text
//! cmi-cli run <scenario.json> [<scenario.json> …] [--jobs <n>]
//!             [--shards <n>]
//!             [--json <report.json>] [--monitor] [--monitor-strict]
//!             [--dump-history <out.json>] [--dump-dot <out.dot>]
//!             [--trace-out <trace.json>]
//!             [--telemetry-out <timeline.jsonl|trace.json>]
//!             [--telemetry-every <ms>] [--telemetry-strict]
//!             [--chaos-horizon <ms>] [--chaos-seed <n>]
//!             [--chaos-partitions <n:min-max>] [--chaos-crashes <n:min-max>]
//!             [--chaos-churn <n:min-max>] [--topology <shape:m[:fanout]>]
//! cmi-cli experiments [<id>|<substring> …]  # regenerate the paper's experiments
//! cmi-cli list                              # list experiment ids
//! ```

use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;

use cmi_bench::experiments::{Experiment, REGISTRY};
use cmi_cli::{render_report, ChaosEntry, ChaosRateEntry, Scenario, TelemetryEntry, TopologyEntry};
use cmi_core::{RunReport, TopologyShape};
use cmi_obs::ToJson;

/// Exit code of `--monitor-strict` when the run violated causality.
const EXIT_MONITOR_VIOLATION: u8 = 3;
/// Exit code of `--telemetry-strict` when a watchdog alerted.
const EXIT_WATCHDOG_ALERT: u8 = 4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Everything the tool prints goes through this one writer, so a
    // reader that goes away (`cmi-cli experiments | head -1`) ends the
    // program quietly instead of panicking inside `println!`.
    let mut out = io::stdout().lock();
    let result = dispatch(&args, &mut out).and_then(|code| out.flush().map(|()| code));
    match result {
        Ok(code) => code,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the command `args` names, printing to `out`. An `Err` is a
/// failed write to `out`; every other failure is reported on stderr and
/// returned as an exit code.
fn dispatch(args: &[String], out: &mut impl Write) -> io::Result<ExitCode> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], out),
        Some("experiments") => cmd_experiments(&args[1..], out),
        Some("list") => {
            for exp in REGISTRY {
                writeln!(out, "{}", exp.title)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("--help" | "-h" | "help") | None => {
            print_usage(out)?;
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => {
            eprintln!("unknown command '{other}'");
            print_usage(out)?;
            Ok(ExitCode::FAILURE)
        }
    }
}

fn print_usage(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "cmi-cli — interconnection of causal memory systems\n\n\
         USAGE:\n\
         \u{20}  cmi-cli run <scenario.json> [<scenario.json> …] [--jobs <n>]\n\
         \u{20}          [--shards <n>]\n\
         \u{20}          [--json <report.json>] [--monitor] [--monitor-strict]\n\
         \u{20}          [--dump-history <out.json>] [--dump-dot <out.dot>]\n\
         \u{20}          [--trace-out <trace.json>]\n\
         \u{20}          [--telemetry-out <timeline.jsonl|trace.json>]\n\
         \u{20}          [--telemetry-every <ms>] [--telemetry-strict]\n\
         \u{20}          [--chaos-horizon <ms>] [--chaos-seed <n>]\n\
         \u{20}          [--chaos-partitions <n:min-max>]\n\
         \u{20}          [--chaos-crashes <n:min-max>] [--chaos-churn <n:min-max>]\n\
         \u{20}          [--topology <shape:m[:fanout]>]\n\
         \u{20}  cmi-cli experiments [<id>|<substring> …]\n\
         \u{20}  cmi-cli list\n\n\
         A scenario file describes systems, tree links, a workload and the\n\
         consistency checks to run; see crates/cli/scenarios/ for examples.\n\
         Several scenarios run as a batch, up to --jobs at a time, with the\n\
         reports printed in argument order.\n\
         --shards runs each scenario on the sharded multi-core engine:\n\
         disjoint components execute on up to <n> worker threads and merge\n\
         into a report byte-identical to the serial engine's. Scenarios\n\
         recording global-order artifacts (trace, lineage, monitor,\n\
         telemetry) coalesce into one shard group automatically.\n\
         --monitor checks causality incrementally *during* the run and\n\
         alerts on the first violation, with a summary in the report;\n\
         --monitor-strict additionally exits with code 3 on a violation.\n\
         --trace-out records causal lineage and writes a Chrome trace-event\n\
         file (open with Perfetto or chrome://tracing).\n\
         --telemetry-out enables flight-recorder telemetry and writes the\n\
         sampled timeline: JSON-lines by default, or Chrome-trace counter\n\
         events when the path ends in .json (open with Perfetto).\n\
         --telemetry-every overrides the sampling cadence (virtual ms);\n\
         --telemetry-strict exits with code 4 if any watchdog alerted.\n\
         --chaos-* flags compile a seeded fault schedule — partition/heal\n\
         windows over links, crash/recover windows over IS-processes and\n\
         detach/attach churn over systems — replacing any chaos block in\n\
         the scenario file. Each rate spec is <count>:<min_ms>-<max_ms>;\n\
         window starts are drawn from [0, --chaos-horizon). The same seed\n\
         replays the same schedule byte-for-byte.\n\
         --topology replaces the scenario's systems/links with a generated\n\
         shape — chain, star, tree or hub_of_hubs over <m> uniform Ahamad\n\
         systems (scenario files can say the same with a topology_spec\n\
         block, which also picks protocol, processes and link settings)."
    )
}

/// The value following `flag`, or an error if `flag` is present but the
/// next argument is missing or is itself a flag.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(format!("{flag} requires a path argument")),
        },
    }
}

/// Positional (non-flag) arguments, skipping every `--flag value` pair.
fn positional_args(args: &[String]) -> Vec<String> {
    const VALUE_FLAGS: [&str; 14] = [
        "--topology",
        "--json",
        "--dump-history",
        "--dump-dot",
        "--trace-out",
        "--telemetry-out",
        "--telemetry-every",
        "--jobs",
        "--shards",
        "--chaos-horizon",
        "--chaos-partitions",
        "--chaos-crashes",
        "--chaos-churn",
        "--chaos-seed",
    ];
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if VALUE_FLAGS.contains(&args[i].as_str()) {
            i += 2;
        } else if args[i].starts_with("--") {
            i += 1;
        } else {
            out.push(args[i].clone());
            i += 1;
        }
    }
    out
}

/// Parses a `--chaos-partitions`-style rate spec: `<count>:<min>-<max>`
/// in virtual milliseconds, e.g. `2:15-40`.
fn parse_rate_spec(flag: &str, spec: &str) -> Result<ChaosRateEntry, String> {
    let bad = || format!("{flag} expects <count>:<min_ms>-<max_ms>, got {spec:?}");
    let (count, window) = spec.split_once(':').ok_or_else(bad)?;
    let (min_ms, max_ms) = window.split_once('-').ok_or_else(bad)?;
    Ok(ChaosRateEntry {
        count: count.parse().map_err(|_| bad())?,
        min_ms: min_ms.parse().map_err(|_| bad())?,
        max_ms: max_ms.parse().map_err(|_| bad())?,
    })
}

/// Builds a chaos block from the `--chaos-*` flags, overriding any
/// `chaos` block in the scenario file. `None` when no flag is present.
/// A zero horizon or a window with min > max is left to `validate`.
fn chaos_flags(args: &[String]) -> Result<Option<ChaosEntry>, String> {
    let horizon = flag_value(args, "--chaos-horizon")?;
    let seed = flag_value(args, "--chaos-seed")?;
    let mut rates = [None, None, None];
    for (slot, flag) in ["--chaos-partitions", "--chaos-crashes", "--chaos-churn"]
        .iter()
        .enumerate()
    {
        if let Some(spec) = flag_value(args, flag)? {
            rates[slot] = Some(parse_rate_spec(flag, spec)?);
        }
    }
    let Some(horizon) = horizon else {
        if seed.is_some() || rates.iter().any(Option::is_some) {
            return Err("--chaos-* flags require --chaos-horizon <ms>".into());
        }
        return Ok(None);
    };
    let horizon_ms: u64 = horizon
        .parse()
        .map_err(|_| format!("--chaos-horizon expects milliseconds, got {horizon:?}"))?;
    let seed = match seed {
        None => None,
        Some(s) => Some(
            s.parse::<u64>()
                .map_err(|_| format!("--chaos-seed expects an integer, got {s:?}"))?,
        ),
    };
    let [partitions, crashes, churn] = rates;
    Ok(Some(ChaosEntry {
        seed,
        horizon_ms,
        partitions,
        crashes,
        churn,
    }))
}

/// Builds a generated-topology override from `--topology
/// shape:m[:fanout]`, replacing any `systems`/`links`/`topology_spec`
/// in the scenario file. Generated systems run Ahamad with one process
/// each over plain 2 ms links (edit the scenario file for anything
/// fancier). `None` when the flag is absent.
fn topology_flag(args: &[String]) -> Result<Option<TopologyEntry>, String> {
    let Some(text) = flag_value(args, "--topology")? else {
        return Ok(None);
    };
    let spec = cmi_core::parse_topology(text).map_err(|e| format!("--topology: {e}"))?;
    let fanout = match spec.shape() {
        TopologyShape::Tree { fanout } | TopologyShape::HubOfHubs { fanout } => Some(fanout),
        TopologyShape::Chain | TopologyShape::Star => None,
    };
    Ok(Some(TopologyEntry {
        shape: spec.shape().name().to_string(),
        systems: spec.systems(),
        fanout,
        protocol: "ahamad".to_string(),
        processes: 1,
        delay_ms: 2,
        reliable: None,
    }))
}

/// The `run` flags shared by every scenario of a batch.
#[derive(Clone, Default)]
struct RunFlags {
    monitor: bool,
    monitor_strict: bool,
    /// `--shards <n>`: run each scenario on the sharded multi-core
    /// engine (1 = serial engine; reports are byte-identical).
    shards: usize,
    /// `--telemetry-out` present (enables telemetry even without a
    /// scenario block).
    telemetry_on: bool,
    telemetry_every_ms: Option<u64>,
    telemetry_strict: bool,
    chaos: Option<ChaosEntry>,
    /// `--topology shape:m[:fanout]`: generated-shape override.
    topology: Option<TopologyEntry>,
}

impl RunFlags {
    fn apply(&self, scenario: &mut Scenario) {
        if self.monitor || self.monitor_strict {
            scenario.monitor = true;
        }
        if self.chaos.is_some() {
            scenario.chaos = self.chaos.clone();
        }
        if let Some(t) = &self.topology {
            scenario.topology_spec = Some(t.clone());
            scenario.systems.clear();
            scenario.links.clear();
        }
        if self.telemetry_on || self.telemetry_every_ms.is_some() {
            let mut t = scenario.telemetry.take().unwrap_or(TelemetryEntry {
                every_ms: 1,
                capacity: None,
                watchdogs: Vec::new(),
            });
            if let Some(ms) = self.telemetry_every_ms {
                t.every_ms = ms;
            }
            scenario.telemetry = Some(t);
        }
    }
}

/// What the strict gates need from a finished run beyond its rendering.
struct RunOutput {
    rendered: String,
    monitor_violation: bool,
    watchdog_alerts: usize,
}

impl RunOutput {
    fn of(scenario: &Scenario, report: &RunReport) -> RunOutput {
        RunOutput {
            rendered: render_report(scenario, report),
            monitor_violation: report.monitor().is_some_and(|m| !m.is_clean()),
            watchdog_alerts: report.telemetry().map_or(0, |t| t.alerts().len()),
        }
    }
}

/// The strict-gate exit code for one or more finished runs: 3 beats 4
/// beats success (a causality violation is the stronger signal).
fn strict_exit(flags: &RunFlags, outputs: &[&RunOutput]) -> ExitCode {
    if flags.monitor_strict && outputs.iter().any(|o| o.monitor_violation) {
        return ExitCode::from(EXIT_MONITOR_VIOLATION);
    }
    if flags.telemetry_strict && outputs.iter().any(|o| o.watchdog_alerts > 0) {
        return ExitCode::from(EXIT_WATCHDOG_ALERT);
    }
    ExitCode::SUCCESS
}

/// Reads, parses, runs and renders one scenario — the unit of work the
/// batch runner executes per worker thread.
fn run_one(path: &str, flags: &RunFlags) -> Result<RunOutput, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut scenario = Scenario::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    flags.apply(&mut scenario);
    // Flag overrides can change the system count (--topology), so the
    // membership/index checks must run again on the mutated scenario;
    // the table's bounds and the chaos min <= max rule hold the flag
    // values as they hold the file's.
    scenario.validate().map_err(|e| format!("{path}: {e}"))?;
    let report = if flags.shards > 1 {
        scenario.run_sharded(flags.shards)
    } else {
        scenario.run()
    }
    .map_err(|e| format!("{path}: {e}"))?;
    Ok(RunOutput::of(&scenario, &report))
}

fn cmd_run(args: &[String], out: &mut impl Write) -> io::Result<ExitCode> {
    let paths = positional_args(args);
    let Some(path) = paths.first() else {
        eprintln!(
            "usage: cmi-cli run <scenario.json> [<scenario.json> …] [--jobs <n>] \
             [--json <report.json>] [--monitor] [--dump-history <out.json>] \
             [--dump-dot <out.dot>] [--trace-out <trace.json>]"
        );
        return Ok(ExitCode::FAILURE);
    };
    let flags_or_err: Result<_, String> = (|| {
        Ok((
            flag_value(args, "--json")?,
            flag_value(args, "--dump-history")?,
            flag_value(args, "--dump-dot")?,
            flag_value(args, "--trace-out")?,
            flag_value(args, "--telemetry-out")?,
            flag_value(args, "--telemetry-every")?,
            flag_value(args, "--jobs")?,
            flag_value(args, "--shards")?,
        ))
    })();
    let (json_out, dump, dump_dot, trace_out, telemetry_out, telemetry_every, jobs_arg, shards_arg) =
        match flags_or_err {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{e}");
                return Ok(ExitCode::FAILURE);
            }
        };
    let telemetry_every_ms = match telemetry_every.map(|v| v.parse::<u64>()) {
        None => None,
        Some(Ok(ms)) if ms >= 1 => Some(ms),
        Some(_) => {
            eprintln!("--telemetry-every requires a positive integer (virtual ms)");
            return Ok(ExitCode::FAILURE);
        }
    };
    let jobs = match jobs_arg.map(|v| v.parse::<usize>()) {
        None => 1,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => {
            eprintln!("--jobs requires a positive integer argument");
            return Ok(ExitCode::FAILURE);
        }
    };
    let shards = match shards_arg.map(|v| v.parse::<usize>()) {
        None => 1,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => {
            eprintln!("--shards requires a positive integer argument");
            return Ok(ExitCode::FAILURE);
        }
    };
    let chaos = match chaos_flags(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let topology = match topology_flag(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let flags = RunFlags {
        monitor: args.iter().any(|a| a == "--monitor"),
        monitor_strict: args.iter().any(|a| a == "--monitor-strict"),
        shards,
        telemetry_on: telemetry_out.is_some(),
        telemetry_every_ms,
        telemetry_strict: args.iter().any(|a| a == "--telemetry-strict"),
        chaos,
        topology,
    };
    if paths.len() > 1 {
        // Batch mode: run every scenario (up to --jobs at a time) and
        // print the reports in argument order. Per-run artifact flags
        // have no unambiguous target across a batch.
        if json_out.is_some()
            || dump.is_some()
            || dump_dot.is_some()
            || trace_out.is_some()
            || telemetry_out.is_some()
        {
            eprintln!(
                "--json/--dump-history/--dump-dot/--trace-out/--telemetry-out \
                 apply to a single scenario; run them one at a time"
            );
            return Ok(ExitCode::FAILURE);
        }
        let results =
            cmi_bench::pool::run_indexed(paths.len(), jobs, |i| run_one(&paths[i], &flags));
        let mut failed = false;
        let mut outputs = Vec::new();
        for (path, result) in paths.iter().zip(results) {
            writeln!(out, "\n======== {path} ========")?;
            match result {
                Ok(output) => {
                    write!(out, "{}", output.rendered)?;
                    outputs.push(output);
                }
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
        if failed {
            return Ok(ExitCode::FAILURE);
        }
        return Ok(strict_exit(&flags, &outputs.iter().collect::<Vec<_>>()));
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut scenario = match Scenario::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if trace_out.is_some() {
        scenario.lineage = true;
    }
    flags.apply(&mut scenario);
    // Flag overrides can change the system count (--topology), so the
    // membership/index checks must run again on the mutated scenario;
    // the table's bounds and the chaos min <= max rule hold the flag
    // values as they hold the file's.
    if let Err(e) = scenario.validate() {
        eprintln!("{e}");
        return Ok(ExitCode::FAILURE);
    }
    let run_result = if flags.shards > 1 {
        scenario.run_sharded(flags.shards)
    } else {
        scenario.run()
    };
    let report = match run_result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let output = RunOutput::of(&scenario, &report);
    write!(out, "{}", output.rendered)?;
    if let Some(out_path) = json_out {
        let mut artifact = report.to_json();
        if let cmi_obs::Json::Obj(members) = &mut artifact {
            members.insert(0, ("scenario".to_string(), scenario.to_json()));
        }
        match std::fs::write(out_path, artifact.to_pretty() + "\n") {
            Ok(()) => writeln!(out, "JSON report written to {out_path}")?,
            Err(e) => {
                eprintln!("cannot write {out_path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if let Some(out_path) = dump {
        let history = report.global_history();
        match std::fs::write(out_path, history.to_json().to_pretty() + "\n") {
            Ok(()) => writeln!(out, "α^T written to {out_path}")?,
            Err(e) => {
                eprintln!("cannot write {out_path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if let Some(dot_path) = dump_dot {
        let dot = cmi_checker::dot::to_dot(&report.global_history(), &[]);
        match std::fs::write(dot_path, dot) {
            Ok(()) => writeln!(out, "causal-order graph written to {dot_path}")?,
            Err(e) => {
                eprintln!("cannot write {dot_path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if let Some(trace_path) = trace_out {
        let lin = report.lineage().expect("--trace-out enables lineage");
        match std::fs::write(trace_path, lin.to_chrome_trace().to_pretty() + "\n") {
            Ok(()) => writeln!(
                out,
                "Chrome trace ({} updates, {} events) written to {trace_path} — \
                 open with Perfetto (ui.perfetto.dev) or chrome://tracing",
                lin.updates().len(),
                lin.len()
            )?,
            Err(e) => {
                eprintln!("cannot write {trace_path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if let Some(out_path) = telemetry_out {
        let t = report
            .telemetry()
            .expect("--telemetry-out enables telemetry");
        // Extension dispatch: `.json` gets Chrome-trace counter events
        // (Perfetto), anything else the canonical JSON-lines timeline.
        let (text, kind) = if out_path.ends_with(".json") {
            (t.to_chrome_trace().to_pretty() + "\n", "Chrome trace")
        } else {
            (t.to_jsonl(), "JSONL timeline")
        };
        match std::fs::write(out_path, text) {
            Ok(()) => writeln!(
                out,
                "telemetry {kind} ({} samples, {} series) written to {out_path}",
                t.sample_count(),
                t.series_count()
            )?,
            Err(e) => {
                eprintln!("cannot write {out_path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(strict_exit(&flags, &[&output]))
}

/// Whether `filter` selects `exp`: an id (`x1`) selects that experiment
/// alone, anything else every title containing it, case-insensitively.
fn selects(filter: &str, exp: &Experiment) -> bool {
    let filter = filter.to_lowercase();
    if REGISTRY.iter().any(|e| e.id == filter) {
        exp.id == filter
    } else {
        exp.title.to_lowercase().contains(&filter)
    }
}

fn cmd_experiments(filters: &[String], out: &mut impl Write) -> io::Result<ExitCode> {
    if let Some(unmatched) = filters
        .iter()
        .find(|f| !REGISTRY.iter().any(|exp| selects(f, exp)))
    {
        let ids: Vec<_> = REGISTRY.iter().map(|exp| exp.id).collect();
        eprintln!(
            "no experiment matches {unmatched:?}; valid ids: {}",
            ids.join(" ")
        );
        return Ok(ExitCode::FAILURE);
    }
    for exp in REGISTRY {
        if filters.is_empty() || filters.iter().any(|f| selects(f, exp)) {
            writeln!(out, "\n######## {} ########", exp.title)?;
            write!(out, "{}", (exp.run)())?;
        }
    }
    Ok(ExitCode::SUCCESS)
}
