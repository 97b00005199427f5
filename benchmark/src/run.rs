//! One run of one workload inside this process: the contract's
//! `--workload W --seed N --seconds S --trace 0|1`.
//!
//! Set-up is the scenario generation plus the first, cold repetition;
//! then closed-loop repetitions, one at a time, for `--seconds`. With
//! `--trace 0` no span is recorded and the end-to-end metrics come out;
//! with `--trace 1` traced and untraced repetitions alternate, the
//! isolated calls and calibration cuts follow, and the per-layer metrics
//! come out with a Chrome trace file.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cmi_obs::Json;

use crate::layers::{calibrate, isolated};
use crate::pipeline::{
    check_rep, independent_causal_check, repetition, Engine, Facts, Rep, CHECKS_PER_REP,
};
use crate::spec::unit_of;
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::workloads::{Workload, SHARDS};

/// Fewest timed repetitions of a run, however short `--seconds` is.
const MIN_REPS: u32 = 3;

/// The arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Exactly this many timed repetitions instead of `seconds`.
    pub reps: Option<u32>,
    pub traced: bool,
    pub quick: bool,
}

/// Oracle checks attempted and failed so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            eprintln!("FAILED CHECK: {what}");
        }
    }
}

/// A repetition that panics becomes an error instead of ending the run.
fn guarded(text: &str, engine: Engine, tracer: &mut Tracer) -> Result<Rep, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| repetition(text, engine, tracer)));
    outcome.unwrap_or_else(|_| {
        tracer.close_open();
        Err("the repetition panicked".into())
    })
}

/// Runs the per-repetition oracles; a repetition that failed outright
/// counts every one of them as failed.
fn judge(
    workload: Workload,
    rep: &Result<Rep, String>,
    reference: Option<u64>,
    tally: &mut Tally,
) -> Option<Facts> {
    let judged = rep.as_ref().map_err(String::clone).and_then(|rep| {
        let facts = Facts::of(rep)?;
        for (what, passed) in check_rep(workload, rep, &facts, reference) {
            tally.record(what, passed);
        }
        Ok(facts)
    });
    match judged {
        Ok(facts) => Some(facts),
        Err(e) => {
            eprintln!("FAILED REPETITION: {e}");
            tally.attempted += CHECKS_PER_REP as u64;
            tally.failed += CHECKS_PER_REP as u64;
            None
        }
    }
}

/// What the repetitions of one run measured.
struct Measured {
    setup_s: f64,
    /// Wall seconds of the untraced and of the traced repetitions.
    walls: Vec<f64>,
    traced_walls: Vec<f64>,
    /// `build` + `run` seconds of every repetition.
    build_runs: Vec<f64>,
    /// The exact numbers (equal in every repetition, by the digest check).
    facts: Facts,
    /// The final repetition, kept for the once-per-run calls (`None`
    /// if it failed).
    last: Option<Rep>,
    reps: u32,
}

/// Set-up, then the timed loop.
fn measure(
    args: &RunArgs,
    process_start: Instant,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let workload = args.workload;
    let text = workload.scenario_text(args.seed, args.quick);
    let engine = if workload.sharded() {
        Engine::Sharded(SHARDS)
    } else {
        Engine::Serial
    };

    // Set-up: the cold repetition, always on the serial engine, so that
    // on the sharded workload the reference digest is the serial run's.
    let cold = guarded(&text, Engine::Serial, tracer);
    let setup_s = process_start.elapsed().as_secs_f64();
    let reference = judge(workload, &cold, None, tally)
        .ok_or("the set-up repetition failed")?
        .digest;
    drop(cold);

    let (mut walls, mut traced_walls, mut build_runs) = (Vec::new(), Vec::new(), Vec::new());
    let mut facts = None;
    let loop_start = Instant::now();
    let mut reps = 0u32;
    // At most one report is alive at a time (peak RSS is a metric);
    // only the final repetition's outlives the loop.
    let last = loop {
        // T U T …: the traced run's overhead ratio comes from one process.
        let traced_rep = args.traced && reps.is_multiple_of(2);
        tracer.set_enabled(traced_rep);
        tracer.set_rep(reps + 1);
        let rep_start = Instant::now();
        let rep = guarded(&text, engine, tracer);
        if let Some(f) = judge(workload, &rep, Some(reference), tally) {
            let rep = rep.as_ref().expect("judged repetitions succeeded");
            if traced_rep {
                traced_walls.push(rep.wall_s);
            } else {
                walls.push(rep.wall_s);
            }
            build_runs.push(rep.build_run_s);
            facts = Some(f);
        }
        reps += 1;
        let enough = match args.reps {
            Some(n) => reps >= n,
            // Start another repetition only if it should end in time.
            None => {
                reps >= MIN_REPS
                    && (loop_start.elapsed() + rep_start.elapsed()).as_secs_f64() > args.seconds
            }
        };
        // A traced run is at least T U T and ends on a traced
        // repetition: the overhead ratio needs both kinds, the isolated
        // calls a report whose spans were recorded.
        if enough && (!args.traced || (traced_rep && reps >= 3)) {
            break rep;
        }
    };
    tracer.set_enabled(args.traced);
    tracer.set_rep(0);
    Ok(Measured {
        setup_s,
        walls,
        traced_walls,
        build_runs,
        facts: facts.ok_or("no timed repetition succeeded")?,
        last: last.ok(),
        reps,
    })
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The metrics of a run, printed by name with their unit as they are
/// added and serialized into the result line at the end.
#[derive(Default)]
struct Metrics(Vec<(String, Json)>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, note: &str) {
        let unit = unit_of(name);
        println!("{name} = {value} {unit}{note}");
        let entry = Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ]);
        self.0.push((name.to_string(), entry));
    }
}

/// Runs the workload, prints every metric and, as the last line of
/// stdout, the result object. `Ok(correct)`; `Err` when no result can
/// be reported at all.
pub fn run(args: &RunArgs, process_start: Instant) -> Result<bool, String> {
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let measured = measure(args, process_start, &mut tracer, &mut tally)?;
    println!(
        "# {}{} seed {}: {} timed repetitions, report_digest {:016x}",
        args.workload.name(),
        if args.quick { " (quick)" } else { "" },
        args.seed,
        measured.reps,
        measured.facts.digest
    );
    let mut metrics = Metrics::default();
    if args.traced {
        per_layer(args, &measured, &mut tracer, &mut tally, &mut metrics)?;
        let path = format!("{}/{}.trace.json", crate::out_dir()?, args.workload.name());
        let trace = tracer.to_chrome_trace(args.workload.name()).to_pretty() + "\n";
        std::fs::write(&path, trace).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("# {} spans written to {path}", tracer.spans().len());
    } else {
        tally.record(
            "an independent causal::check(α^T) agrees",
            (measured.last.as_ref()).is_some_and(|rep| independent_causal_check(&rep.report)),
        );
        end_to_end(measured, &mut metrics)?;
    }

    println!(
        "# checks: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    let correct = tally.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics.0)),
    ]);
    println!("{}", result.to_compact());
    Ok(correct)
}

/// The untraced run's metrics.
fn end_to_end(measured: Measured, metrics: &mut Metrics) -> Result<(), String> {
    let Measured {
        setup_s,
        walls,
        build_runs,
        facts,
        last,
        ..
    } = measured;
    // Nothing of the last repetition may still count when RSS is read.
    drop(last);
    metrics.add(
        "setup_s",
        setup_s,
        "  (scenario generation + the cold repetition; one sample)",
    );
    let wall = summarize(&walls);
    metrics.add(
        "e2e_wall_s",
        wall.median,
        &format!(
            "  (median of {}; min {}, max {}; too few samples for a higher percentile)",
            wall.n, wall.min, wall.max
        ),
    );
    metrics.add(
        "sim_events_per_s",
        facts.events as f64 / median(&build_runs),
        &format!("  ({} events ÷ median build+run seconds)", facts.events),
    );
    metrics.add("peak_rss_mb", peak_rss_mb()?, "");
    metrics.add("msgs_per_write", facts.msgs_per_write(), "");
    metrics.add("visibility_p50_virtual_ms", facts.visibility.p50_ms, "");
    Ok(())
}

/// The traced run's metrics: pipeline medians from the spans recorded
/// so far, then the isolated calls and the calibration cuts.
fn per_layer(
    args: &RunArgs,
    measured: &Measured,
    tracer: &mut Tracer,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let facts = &measured.facts;
    // Medians over the traced repetitions, read before the isolated
    // calls add spans of the same names.
    let span_median = |name: &str| median(&tracer.seconds_of(name));
    let run_s = span_median("core.run.run_s");
    let unattributed_s = median(&tracer.self_seconds_of("e2e"));
    let traced_wall_s = median(&measured.traced_walls);
    let pipeline = [
        "cli.scenario.parse_s",
        "core.build.build_s",
        "core.run.run_s",
        "cli.report.render_s",
        "core.report.to_json_s",
        "obs.json.to_pretty_s",
    ]
    .map(|name| (name, span_median(name)));

    let last = measured
        .last
        .as_ref()
        .ok_or("the last traced repetition failed: no report for the isolated calls")?;
    let iso = isolated(args.workload, last, tracer)?;
    tally.record("an independent causal::check(α^T) agrees", iso.causal_ok);
    let calib = calibrate(args.seed, if args.quick { 20 } else { 1 }, tracer);

    let traced_note = format!(
        "  (median of {} traced repetitions)",
        measured.traced_walls.len()
    );
    for (name, value) in pipeline {
        metrics.add(name, value, &traced_note);
    }
    metrics.add("e2e.unattributed_s", unattributed_s, &traced_note);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let once = "  (one call on the last repetition's report)";
    let cpus = format!("  ({SHARDS} shards on {} CPUs)", available_cpus());
    #[rustfmt::skip]
    let rows = [
        ("core.run.ns_per_event", run_s * 1e9 / facts.events as f64, ""),
        ("core.run.events", facts.events as f64, ""),
        ("core.run.messages", facts.messages as f64, ""),
        ("core.run.timer_fires", facts.timer_fires as f64, ""),
        ("core.isp.pairs_sent", facts.pairs_sent as f64, ""),
        ("core.isp.acks_per_frame", ratio(facts.acks, facts.frames), ""),
        // Application processes fire one think-time timer per
        // operation; the rest are the IS-processes' transport timers.
        ("core.isp.timer_fires_per_pair",
         ratio(facts.timer_fires.saturating_sub(facts.app_ops), facts.pairs_sent), ""),
        ("core.isp.meta_bytes_per_frame", ratio(facts.meta_bytes, facts.frames), ""),
        ("core.isp.retransmits", facts.retransmits as f64, ""),
        ("core.isp.coalesced_ratio", ratio(facts.coalesced, facts.propagate_out), ""),
        ("core.report.system_histories_s", iso.system_histories_s, once),
        ("checker.causal.check_s", iso.causal_check_s, once),
        ("checker.causal.steps", iso.causal_steps as f64, ""),
        ("checker.causal.ns_per_op", iso.causal_check_s * 1e9 / facts.app_ops as f64, ""),
        ("checker.online.replay_s", iso.online_replay_s, once),
        ("core.report.write_visibility_s", iso.write_visibility_s, once),
        ("obs.json.bytes", facts.json_bytes as f64, ""),
        ("obs.json.parse_s", iso.json_parse_s, once),
        ("obs.metrics.series", facts.series as f64, ""),
        // Monitored run_s ÷ one unmonitored run; 1 by construction
        // where the workload itself runs unmonitored.
        ("core.monitor.overhead_ratio", iso.monitor_off_run_s.map_or(1.0, |off| run_s / off), ""),
        // The workload's own run_s where it already runs serially.
        ("core.shard.serial_run_s", iso.serial_run_s.unwrap_or(run_s), ""),
        ("core.shard.speedup", iso.serial_run_s.map_or(1.0, |serial| serial / run_s), cpus.as_str()),
        ("trace.overhead_ratio", traced_wall_s / median(&measured.walls),
         "  (traced ÷ untraced median e2e wall)"),
        ("visibility_p99_virtual_ms", facts.visibility.p99_ms, ""),
        ("visibility_max_virtual_ms", facts.visibility.max_ms, ""),
        ("sim.sched.push_pop_ns_1e4", calib.sched_ns_1e4, ""),
        ("sim.sched.push_pop_ns_1e6", calib.sched_ns_1e6, ""),
        ("sim.engine.flood_events_per_s", calib.flood_events_per_s, ""),
        ("sim.channel.pingpong_msgs_per_s", calib.pingpong_msgs_per_s, ""),
        ("memory.ahamad.ns_per_event", calib.ahamad.ns_per_event, ""),
        ("memory.frontier.ns_per_event", calib.frontier.ns_per_event, ""),
        ("memory.ahamad.msgs_per_write", calib.ahamad.msgs_per_write, ""),
        ("memory.frontier.msgs_per_write", calib.frontier.msgs_per_write, ""),
        ("core.transport.clean_ns_per_frame", calib.transport_clean_ns, ""),
        ("core.transport.lossy_ns_per_frame", calib.transport_lossy_ns, ""),
        ("core.transport.retransmits_per_frame", calib.transport_retransmits_per_frame, ""),
    ];
    for (name, value, note) in rows {
        metrics.add(name, value, note);
    }
    println!(
        "# e2e.unattributed_s is {:.2} % of the traced root span",
        100.0 * unattributed_s / traced_wall_s
    );
    Ok(())
}

/// CPUs this process may use (1 when unknown).
pub fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
