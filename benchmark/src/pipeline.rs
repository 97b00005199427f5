//! The end-to-end path, one repetition at a time, and its oracles.
//!
//! A repetition is exactly what `cmi-cli run s.json --json r.json` does
//! minus file I/O: scenario text → `Scenario::from_json` → `validate` →
//! `build` (or `build_sharded`) → `run` / `run_with_chaos` →
//! `render_report` → `RunReport::to_json` (+ the `scenario` member the
//! CLI prepends) → `to_pretty` bytes. The CLI's `Scenario::run` fuses
//! build and run; the harness times them apart, so the few private
//! lines between them (workload spec, chaos compilation) are restated
//! here and pinned equal to `Scenario::run` by a test.

use std::time::Duration;

use cmi_checker::causal;
use cmi_cli::{render_report, Scenario, ScenarioError};
use cmi_core::{RunReport, ShardedWorld, World};
use cmi_memory::{VarPattern, WorkloadSpec};
use cmi_obs::{Json, ToJson};
use cmi_sim::{sort_schedule, ChaosEvent, ChaosSpec};

use crate::digest::report_digest;
use crate::stats::nearest_rank;
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Which engine runs the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Serial,
    Sharded(usize),
}

/// Everything one repetition produced.
pub struct Rep {
    pub scenario: Scenario,
    pub report: RunReport,
    /// The terminal text of `cmi-cli run`.
    pub rendered: String,
    /// The `--json` artifact before serialization.
    pub artifact: Json,
    /// The `--json` file's bytes.
    pub bytes: String,
    pub wall_s: f64,
    pub build_run_s: f64,
    /// Shard groups of the sharded engine (`None` on the serial one).
    pub groups: Option<usize>,
}

/// The two world types behind one set of calls.
trait Runnable {
    fn compile(&self, spec: &ChaosSpec, seed: u64) -> Vec<ChaosEvent>;
    /// `run_with_chaos`; an empty schedule is exactly `run`.
    fn go(&mut self, workload: &WorkloadSpec, events: &[ChaosEvent]) -> RunReport;
    fn groups(&self) -> Option<usize>;
}

impl Runnable for World {
    fn compile(&self, spec: &ChaosSpec, seed: u64) -> Vec<ChaosEvent> {
        self.compile_chaos(spec, seed)
    }
    fn go(&mut self, workload: &WorkloadSpec, events: &[ChaosEvent]) -> RunReport {
        self.run_with_chaos(workload, events)
    }
    fn groups(&self) -> Option<usize> {
        None
    }
}

impl Runnable for ShardedWorld {
    fn compile(&self, spec: &ChaosSpec, seed: u64) -> Vec<ChaosEvent> {
        self.compile_chaos(spec, seed)
    }
    fn go(&mut self, workload: &WorkloadSpec, events: &[ChaosEvent]) -> RunReport {
        self.run_with_chaos(workload, events)
    }
    fn groups(&self) -> Option<usize> {
        Some(ShardedWorld::groups(self).len())
    }
}

/// `Scenario::run` after `build`: workload spec, chaos schedule, run.
fn run_world(scenario: &Scenario, world: &mut impl Runnable) -> RunReport {
    let workload = WorkloadSpec {
        ops_per_proc: scenario.workload.ops_per_proc,
        write_fraction: scenario.workload.write_fraction,
        n_vars: scenario.vars as u32,
        mean_gap: Duration::from_millis(scenario.workload.mean_gap_ms),
        pattern: VarPattern::Uniform,
    };
    let mut events = Vec::new();
    if let Some(c) = &scenario.chaos {
        let ms = Duration::from_millis;
        let mut spec = ChaosSpec::new(ms(c.horizon_ms));
        if let Some(p) = &c.partitions {
            spec = spec.with_partitions(p.count, ms(p.min_ms), ms(p.max_ms));
        }
        if let Some(p) = &c.crashes {
            spec = spec.with_crashes(p.count, ms(p.min_ms), ms(p.max_ms));
        }
        if let Some(p) = &c.churn {
            spec = spec.with_churn(p.count, ms(p.min_ms), ms(p.max_ms));
        }
        events = world.compile(&spec, c.seed.unwrap_or(scenario.seed));
        sort_schedule(&mut events);
    }
    world.go(&workload, &events)
}

/// A built-and-run world: the report, the sharded engine's group count
/// and the seconds of each call.
pub struct Ran {
    pub report: RunReport,
    pub groups: Option<usize>,
    pub build_s: f64,
    pub run_s: f64,
}

fn timed_build_and_run<W: Runnable>(
    scenario: &Scenario,
    tracer: &mut Tracer,
    build: impl FnOnce() -> Result<W, ScenarioError>,
) -> Result<Ran, String> {
    let (world, build_s) = tracer.timed("core.build.build_s", |_| build());
    let mut world = world.map_err(|e| e.to_string())?;
    let groups = world.groups();
    let (report, run_s) = tracer.timed("core.run.run_s", |_| run_world(scenario, &mut world));
    Ok(Ran {
        report,
        groups,
        build_s,
        run_s,
    })
}

/// Builds and runs `scenario`, each call under its own span.
pub fn build_and_run(
    scenario: &Scenario,
    engine: Engine,
    tracer: &mut Tracer,
) -> Result<Ran, String> {
    if scenario.membership.is_some() {
        return Err("the harness does not split scenarios with a membership block".into());
    }
    match engine {
        Engine::Serial => timed_build_and_run(scenario, tracer, || scenario.build()),
        Engine::Sharded(n) => timed_build_and_run(scenario, tracer, || scenario.build_sharded(n)),
    }
}

/// One closed-loop repetition of the end-to-end path under an `e2e`
/// root span.
pub fn repetition(text: &str, engine: Engine, tracer: &mut Tracer) -> Result<Rep, String> {
    let (rep, wall_s) = tracer.timed("e2e", |t| {
        let scenario = t.span("cli.scenario.parse_s", |_| {
            let scenario = Scenario::from_json(text)?;
            // The CLI validates once more after applying its flags.
            scenario.validate()?;
            Ok::<_, ScenarioError>(scenario)
        });
        let scenario = scenario.map_err(|e| e.to_string())?;
        let ran = build_and_run(&scenario, engine, t)?;
        let report = ran.report;
        let rendered = t.span("cli.report.render_s", |_| render_report(&scenario, &report));
        let artifact = t.span("core.report.to_json_s", |_| {
            let mut artifact = report.to_json();
            if let Json::Obj(members) = &mut artifact {
                members.insert(0, ("scenario".to_string(), scenario.to_json()));
            }
            artifact
        });
        let bytes = t.span("obs.json.to_pretty_s", |_| artifact.to_pretty() + "\n");
        Ok::<_, String>(Rep {
            scenario,
            report,
            rendered,
            artifact,
            bytes,
            wall_s: 0.0, // set below, once the root span has closed
            build_run_s: ran.build_s + ran.run_s,
            groups: ran.groups,
        })
    });
    let mut rep = rep?;
    rep.wall_s = wall_s;
    Ok(rep)
}

/// Exact visibility latencies (virtual ms) over every (write, process)
/// pair of the artifact's `write_visibility` block — the population the
/// registry's `visibility.latency_ns` histogram observes, without its
/// 1-2-5 bucket resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Visibility {
    pub count: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

fn visibility(artifact: &Json) -> Option<Visibility> {
    let mut latencies_ns = Vec::new();
    for write in artifact.get("write_visibility")?.as_array()? {
        let issued = write.get("issued_at_ns")?.as_f64()?;
        for (_, at) in write.get("visible_at")?.as_object()? {
            latencies_ns.push((at.as_f64()? - issued).max(0.0));
        }
    }
    if latencies_ns.is_empty() {
        return None;
    }
    latencies_ns.sort_by(|a, b| a.partial_cmp(b).expect("latencies are not NaN"));
    Some(Visibility {
        count: latencies_ns.len() as u64,
        p50_ms: nearest_rank(&latencies_ns, 0.50) / 1e6,
        p99_ms: nearest_rank(&latencies_ns, 0.99) / 1e6,
        max_ms: latencies_ns[latencies_ns.len() - 1] / 1e6,
    })
}

/// The exact, repeatable numbers of one repetition — everything kept
/// once the report itself is dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    pub digest: u64,
    pub json_bytes: u64,
    /// Counters + gauges + histograms in the report's registry.
    pub series: u64,
    pub events: u64,
    pub messages: u64,
    pub timer_fires: u64,
    /// Operations and writes of `α^T`.
    pub app_ops: u64,
    pub writes: u64,
    pub pairs_sent: u64,
    pub acks: u64,
    pub frames: u64,
    pub meta_bytes: u64,
    pub retransmits: u64,
    pub coalesced: u64,
    pub propagate_out: u64,
    pub visibility: Visibility,
}

impl Facts {
    /// Reads the facts off a finished repetition.
    pub fn of(rep: &Rep) -> Result<Facts, String> {
        let m = rep.report.metrics();
        let global = rep.report.global_history();
        Ok(Facts {
            digest: report_digest(&rep.bytes),
            json_bytes: rep.bytes.len() as u64,
            series: (m.counters().count() + m.gauges().count() + m.histograms().count()) as u64,
            events: m.counter("engine.events_dispatched"),
            messages: m.counter("engine.messages_sent"),
            timer_fires: m.counter("engine.timer_fires"),
            app_ops: global.len() as u64,
            writes: global.writes().len() as u64,
            pairs_sent: m.counter("isp.link_pairs_sent"),
            acks: m.counter("isp.acks"),
            frames: m.counter("isp.frames_o1") + m.counter("isp.frames_clocked"),
            meta_bytes: m.counter("isp.meta_bytes_o1") + m.counter("isp.meta_bytes_clocked"),
            retransmits: m.counter("isp.retransmits"),
            coalesced: m.counter("isp.degraded_coalesced"),
            propagate_out: m.counter("isp.propagate_out"),
            visibility: visibility(&rep.artifact)
                .ok_or("report has no write_visibility latencies")?,
        })
    }

    /// Paper §6 message cost: messages sent per write of `α^T`.
    pub fn msgs_per_write(&self) -> f64 {
        self.messages as f64 / self.writes as f64
    }
}

/// Checks one repetition must pass; a repetition that panics or errors
/// counts all of them as failed.
pub const CHECKS_PER_REP: usize = 8;

/// The per-repetition oracles: `(what, passed)` for each of
/// [`CHECKS_PER_REP`] checks. `reference` is the first repetition's
/// digest (`None` on the first repetition itself).
pub fn check_rep(
    workload: Workload,
    rep: &Rep,
    facts: &Facts,
    reference: Option<u64>,
) -> [(&'static str, bool); CHECKS_PER_REP] {
    let m = rep.report.metrics();
    // The indented `α^T:` / `α^k (name):` lines under each `[check]`.
    let verdict_lines: Vec<&str> = rep
        .rendered
        .lines()
        .filter(|l| l.starts_with("  α^"))
        .collect();
    let histogram = m.histogram("visibility.latency_ns");
    let own = match workload {
        // Every write crosses each of the m−1 tree edges exactly once.
        Workload::Hub256Wide => {
            let edges = rep.scenario.system_count() as u64 - 1;
            facts.retransmits == 0 && facts.pairs_sent == facts.writes * edges
        }
        Workload::PairDeep => facts.retransmits == 0,
        Workload::ChaosLossy => facts.retransmits > 0,
        // The world really split; bytes ≡ serial is the digest check,
        // whose reference repetition ran the serial engine.
        Workload::IslandsSharded => facts.retransmits == 0 && rep.groups.is_none_or(|g| g == 4),
    };
    [
        ("outcome is quiescent", rep.report.outcome().is_quiescent()),
        (
            "every verdict line is ✓",
            !verdict_lines.is_empty()
                && verdict_lines
                    .iter()
                    .all(|l| l.contains('✓') && !l.contains("NOT") && !l.contains("unknown")),
        ),
        (
            "monitor is clean when on",
            rep.report
                .monitor()
                .map_or(!rep.scenario.monitor, |m| m.is_clean()),
        ),
        (
            "isp.meta_violations == 0",
            m.counter("isp.meta_violations") == 0,
        ),
        (
            "no pair abandoned",
            m.counter("isp.pairs_abandoned") == 0 && m.counter("transport.abandoned_pairs") == 0,
        ),
        (
            "report_digest equals the first repetition's",
            reference.is_none_or(|r| r == facts.digest),
        ),
        (
            "visibility block agrees with the registry histogram",
            histogram.is_some_and(|h| {
                h.count() == facts.visibility.count && h.max() == facts.visibility.max_ms * 1e6
            }),
        ),
        ("the workload's own exact oracle", own),
    ]
}

/// The once-per-run oracle: an independent `causal::check(α^T)` agrees
/// with the rendered verdict.
pub fn independent_causal_check(report: &RunReport) -> bool {
    causal::check(&report.global_history()).is_causal()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{ALL, SHARDS};

    fn quick_rep(w: Workload, engine: Engine) -> Rep {
        repetition(&w.scenario_text(5, true), engine, &mut Tracer::new(false)).unwrap()
    }

    #[test]
    fn split_path_equals_scenario_run_bytes() {
        // chaos_lossy exercises the restated chaos compilation,
        // pair_deep the plain path.
        for w in [Workload::ChaosLossy, Workload::PairDeep] {
            let rep = quick_rep(w, Engine::Serial);
            let fused = rep.scenario.run().unwrap().to_json();
            let split = rep.report.to_json();
            assert_eq!(
                report_digest(&split.to_pretty()),
                report_digest(&fused.to_pretty()),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn every_quick_workload_passes_its_oracles() {
        for w in ALL {
            let engine = if w.sharded() {
                Engine::Sharded(SHARDS)
            } else {
                Engine::Serial
            };
            let rep = quick_rep(w, engine);
            let facts = Facts::of(&rep).unwrap();
            let failed: Vec<_> = check_rep(w, &rep, &facts, Some(facts.digest))
                .into_iter()
                .filter(|(_, ok)| !ok)
                .collect();
            assert!(failed.is_empty(), "{}: {failed:?}", w.name());
            assert!(independent_causal_check(&rep.report), "{}", w.name());
            assert!(facts.events > 0 && facts.msgs_per_write() > 0.0);
        }
    }

    #[test]
    fn sharded_bytes_equal_serial_and_a_wrong_digest_fails_the_check() {
        let w = Workload::IslandsSharded;
        let serial = quick_rep(w, Engine::Serial);
        let sharded = quick_rep(w, Engine::Sharded(SHARDS));
        assert_eq!(sharded.groups, Some(4));
        assert_eq!(serial.bytes, sharded.bytes);
        let facts = Facts::of(&sharded).unwrap();
        let checks = check_rep(w, &sharded, &facts, Some(facts.digest ^ 1));
        assert_eq!(checks.iter().filter(|(_, ok)| !ok).count(), 1);
    }

    #[test]
    fn traced_repetition_nests_the_pipeline_under_the_root() {
        let mut t = Tracer::new(true);
        repetition(
            &Workload::PairDeep.scenario_text(5, true),
            Engine::Serial,
            &mut t,
        )
        .unwrap();
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("e2e", None),
                ("cli.scenario.parse_s", Some(0)),
                ("core.build.build_s", Some(0)),
                ("core.run.run_s", Some(0)),
                ("cli.report.render_s", Some(0)),
                ("core.report.to_json_s", Some(0)),
                ("obs.json.to_pretty_s", Some(0)),
            ]
        );
    }
}
