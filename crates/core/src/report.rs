//! Run reports: the computations and protocol-internal logs of one run.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cmi_memory::ReplicaUpdate;
use cmi_obs::{Json, LineageRecorder, MetricsRegistry, TimeSeries, ToJson};
use cmi_sim::{RunOutcome, TraceEntry, TrafficStats};
use cmi_types::{History, OpId, ProcId, SimTime, SystemId, Value, VarId};

use crate::isp::SentPair;

/// The `⟨x,v⟩` pairs one IS-process sent to one peer, in send order.
#[derive(Debug, Clone)]
pub struct LinkTraffic {
    /// Sending IS-process.
    pub from_isp: ProcId,
    /// Receiving IS-process.
    pub to_isp: ProcId,
    /// Pairs in send order.
    pub pairs: Vec<SentPair>,
}

/// Visibility data for one write: when it was issued and when each
/// MCS-process applied it — the paper's Section 6 "latency … the time
/// until a value written is visible in any other process".
#[derive(Debug, Clone)]
pub struct WriteVisibility {
    /// Variable written.
    pub var: VarId,
    /// Value written.
    pub val: Value,
    /// Completion instant of the originating write call.
    pub issued_at: SimTime,
    /// Application instant at every MCS-process that applied it.
    pub visible_at: BTreeMap<ProcId, SimTime>,
}

impl WriteVisibility {
    /// Worst-case visibility latency across all processes.
    pub fn max_latency(&self) -> std::time::Duration {
        self.visible_at
            .values()
            .map(|t| t.saturating_since(self.issued_at))
            .max()
            .unwrap_or_default()
    }
}

/// Everything observable from one world run.
#[derive(Debug, Clone)]
pub struct RunReport {
    full: History,
    outcome: RunOutcome,
    stats: TrafficStats,
    metrics: MetricsRegistry,
    system_of: HashMap<ProcId, SystemId>,
    system_names: Vec<String>,
    isps: BTreeSet<ProcId>,
    updates: BTreeMap<ProcId, Vec<ReplicaUpdate>>,
    responses: BTreeMap<ProcId, Vec<std::time::Duration>>,
    link_sends: Vec<LinkTraffic>,
    trace: Vec<TraceEntry>,
    lineage: Option<LineageRecorder>,
    monitor: Option<cmi_checker::MonitorReport>,
    telemetry: Option<TimeSeries>,
}

impl RunReport {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        full: History,
        outcome: RunOutcome,
        stats: TrafficStats,
        metrics: MetricsRegistry,
        system_of: HashMap<ProcId, SystemId>,
        system_names: Vec<String>,
        isps: BTreeSet<ProcId>,
        updates: BTreeMap<ProcId, Vec<ReplicaUpdate>>,
        responses: BTreeMap<ProcId, Vec<std::time::Duration>>,
        link_sends: Vec<LinkTraffic>,
        trace: Vec<TraceEntry>,
    ) -> Self {
        RunReport {
            full,
            outcome,
            stats,
            metrics,
            system_of,
            system_names,
            isps,
            updates,
            responses,
            link_sends,
            trace,
            lineage: None,
            monitor: None,
            telemetry: None,
        }
    }

    pub(crate) fn set_lineage(&mut self, lineage: LineageRecorder) {
        self.lineage = Some(lineage);
    }

    pub(crate) fn set_monitor(&mut self, monitor: cmi_checker::MonitorReport) {
        self.monitor = Some(monitor);
    }

    pub(crate) fn set_telemetry(&mut self, telemetry: TimeSeries) {
        self.telemetry = Some(telemetry);
    }

    /// How the run ended (quiescent for complete workloads).
    pub fn outcome(&self) -> RunOutcome {
        self.outcome
    }

    /// Message statistics of the run.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The full metrics registry of the run: engine counters, per-channel
    /// and per-crossing message counts, protocol and IS-process counters,
    /// and the visibility/response-time latency histograms.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Every recorded operation, IS-process operations included.
    pub fn full_history(&self) -> &History {
        &self.full
    }

    /// The computation `α^T` of the interconnected system `S^T`: all
    /// operations of application processes, **excluding** IS-processes
    /// ("the set of processes of `S^T` includes all the processes in
    /// `S^0` and `S^1` except `isp^0` and `isp^1`"). Because an
    /// IS-process writes the same value its original write wrote, each
    /// value still has exactly one write here.
    pub fn global_history(&self) -> History {
        self.full.filtered(|op| !self.isps.contains(&op.proc))
    }

    /// The computation `α^k` of system `k`: operations of the system's
    /// application processes *and* its IS-processes (whose writes are
    /// the propagations `prop(op)` of remote writes).
    ///
    /// Each call filters the whole recording; a caller that wants every
    /// `α^k` should split it once with
    /// [`system_histories`](Self::system_histories).
    pub fn system_history(&self, system: SystemId) -> History {
        self.full
            .filtered(|op| self.system_of.get(&op.proc) == Some(&system))
    }

    /// Every `α^k` at once, indexed by system: one pass over the full
    /// recording, each operation appended to its system's history in
    /// recording order, so entry `k` equals
    /// [`system_history(SystemId(k))`](Self::system_history).
    pub fn system_histories(&self) -> Vec<History> {
        let mut out = vec![History::new(); self.system_names.len()];
        for op in self.full.iter() {
            if let Some(system) = self.system_of.get(&op.proc) {
                out[system.index()].record(*op);
            }
        }
        out
    }

    /// `true` if `proc` is an IS-process.
    pub fn is_isp(&self, proc: ProcId) -> bool {
        self.isps.contains(&proc)
    }

    /// All IS-processes.
    pub fn isp_procs(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.isps.iter().copied()
    }

    /// The system a process belongs to.
    pub fn system_of(&self, proc: ProcId) -> Option<SystemId> {
        self.system_of.get(&proc).copied()
    }

    /// Name of a system.
    pub fn system_name(&self, system: SystemId) -> &str {
        &self.system_names[system.index()]
    }

    /// Replica-update log of one MCS-process (Property 1 checks).
    pub fn updates_of(&self, proc: ProcId) -> &[ReplicaUpdate] {
        self.updates.get(&proc).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Per-direction IS-protocol link traffic (Lemma 1 checks, X2/X3
    /// counts).
    pub fn link_traffic(&self) -> &[LinkTraffic] {
        &self.link_sends
    }

    /// Write-call response times of one process, in issue order
    /// (Section 6: "our IS-protocols should not affect the response
    /// time a process observes").
    pub fn responses_of(&self, proc: ProcId) -> &[std::time::Duration] {
        self.responses
            .get(&proc)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The simulator trace, if tracing was enabled at build time.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// The run's causal lineage record, if lineage tracing was enabled
    /// at build time ([`InterconnectBuilder::enable_lineage`]).
    ///
    /// [`InterconnectBuilder::enable_lineage`]: crate::InterconnectBuilder::enable_lineage
    pub fn lineage(&self) -> Option<&LineageRecorder> {
        self.lineage.as_ref()
    }

    /// The online causal monitor's final report, if the monitor was
    /// enabled at build time ([`InterconnectBuilder::enable_monitor`]).
    ///
    /// [`InterconnectBuilder::enable_monitor`]: crate::InterconnectBuilder::enable_monitor
    pub fn monitor(&self) -> Option<&cmi_checker::MonitorReport> {
        self.monitor.as_ref()
    }

    /// The run's telemetry timeline (and span profile), if telemetry was
    /// enabled at build time ([`InterconnectBuilder::enable_telemetry`]).
    ///
    /// [`InterconnectBuilder::enable_telemetry`]: crate::InterconnectBuilder::enable_telemetry
    pub fn telemetry(&self) -> Option<&TimeSeries> {
        self.telemetry.as_ref()
    }

    /// Serializes the whole report as one diffable JSON artifact:
    /// outcome, per-system names, traffic statistics, the metrics
    /// snapshot (counters, gauges, histogram quantiles), write-visibility
    /// latencies, link traffic and the full history.
    pub fn to_json(&self) -> Json {
        let outcome = match self.outcome {
            RunOutcome::Quiescent { events } => Json::obj([
                ("kind", Json::Str("quiescent".into())),
                ("events", events.to_json()),
            ]),
            RunOutcome::TimeLimit { events } => Json::obj([
                ("kind", Json::Str("time_limit".into())),
                ("events", events.to_json()),
            ]),
            RunOutcome::EventLimit { events } => Json::obj([
                ("kind", Json::Str("event_limit".into())),
                ("events", events.to_json()),
            ]),
        };
        let visibility = Json::Arr(
            self.write_visibility()
                .iter()
                .map(|wv| {
                    Json::obj([
                        ("var", wv.var.to_json()),
                        ("val", wv.val.to_json()),
                        ("issued_at_ns", wv.issued_at.to_json()),
                        (
                            "max_latency_ns",
                            (wv.max_latency().as_nanos() as u64).to_json(),
                        ),
                        (
                            "visible_at",
                            Json::Obj(
                                wv.visible_at
                                    .iter()
                                    .map(|(p, t)| (p.to_string(), t.to_json()))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let links = Json::Arr(
            self.link_sends
                .iter()
                .map(|lt| {
                    Json::obj([
                        ("from", Json::Str(lt.from_isp.to_string())),
                        ("to", Json::Str(lt.to_isp.to_string())),
                        ("pairs_sent", lt.pairs.len().to_json()),
                    ])
                })
                .collect(),
        );
        let mut fields = vec![
            ("outcome", outcome),
            ("systems", self.system_names.to_json()),
            ("stats", self.stats.to_json()),
            ("metrics", self.metrics.snapshot()),
            ("write_visibility", visibility),
            ("link_traffic", links),
            ("trace_entries", self.trace.len().to_json()),
            ("history", self.full.to_json()),
        ];
        // The monitor block only exists when the monitor ran, keeping
        // the artifact byte-identical for monitor-off runs.
        if let Some(m) = &self.monitor {
            fields.push(("monitor", m.to_json()));
        }
        // Same rule for telemetry: absent ⟺ disabled, so telemetry-off
        // artifacts stay byte-identical to pre-telemetry ones.
        if let Some(t) = &self.telemetry {
            fields.push(("telemetry", t.to_json()));
        }
        Json::obj(fields)
    }

    /// Visibility analysis of every write in `α^T` (Section 6 latency),
    /// one entry per write in the order of `α^T`.
    ///
    /// `visible_at` holds the *first* application of the written value
    /// at each MCS-process: a later re-application of the same pair
    /// (an attach resync, a duplicated frame) does not move it, and a
    /// process that never applied the value has no entry. Recomputed on
    /// every call from the replica-update logs, in O(total log length +
    /// writes × processes).
    ///
    /// # Example
    ///
    /// ```
    /// use cmi_core::{InterconnectBuilder, LinkSpec, SystemSpec};
    /// use cmi_memory::{ProtocolKind, WorkloadSpec};
    /// use std::time::Duration;
    ///
    /// let mut b = InterconnectBuilder::new().with_vars(2);
    /// let a = b.add_system(SystemSpec::new("A", ProtocolKind::Ahamad, 2));
    /// let c = b.add_system(SystemSpec::new("B", ProtocolKind::Ahamad, 2));
    /// b.link(a, c, LinkSpec::new(Duration::from_millis(10)));
    /// let mut world = b.build(1)?;
    /// let report = world.run(&WorkloadSpec::small().with_write_fraction(1.0));
    /// for wv in report.write_visibility() {
    ///     // Every write becomes visible at every MCS-process (4 apps + 2 ISs).
    ///     assert_eq!(wv.visible_at.len(), 6);
    /// }
    /// # Ok::<(), cmi_core::BuildError>(())
    /// ```
    pub fn write_visibility(&self) -> Vec<WriteVisibility> {
        let global = self.global_history();
        FirstApplied::of(&global, &self.updates).into_visibility(&global)
    }
}

/// When each write of `global` was first applied at each process of
/// `updates`: one row per write in `global.writes()` order, one column
/// per process in `updates` key order.
///
/// The writes are indexed once by `(variable, value)` and each replica
/// log is walked once, its first entry for a pair winning; the index is
/// only ever looked up, so the order of everything read out of the
/// table comes from `global` and the `BTreeMap` alone.
pub(crate) struct FirstApplied {
    writes: Vec<OpId>,
    procs: Vec<ProcId>,
    /// `at[w · procs.len() + p]`: `None` if `procs[p]` never applied
    /// the value of `writes[w]`.
    at: Vec<Option<SimTime>>,
}

impl FirstApplied {
    pub(crate) fn of(global: &History, updates: &BTreeMap<ProcId, Vec<ReplicaUpdate>>) -> Self {
        let writes = global.writes();
        let procs: Vec<ProcId> = updates.keys().copied().collect();
        let width = procs.len();
        let mut row_of = HashMap::with_capacity(writes.len());
        // A pair written again shares the row of its first write.
        let mut rewrites = Vec::new();
        for (w, &id) in writes.iter().enumerate() {
            let op = global.op(id);
            let val = op.written_value().expect("writes() returns writes");
            if let Some(&first) = row_of.get(&(op.var, val)) {
                rewrites.push((w, first));
            } else {
                row_of.insert((op.var, val), w);
            }
        }
        let mut at = vec![None; writes.len() * width];
        for (p, log) in updates.values().enumerate() {
            for u in log {
                if let Some(&w) = row_of.get(&(u.var, u.val)) {
                    at[w * width + p].get_or_insert(u.at);
                }
            }
        }
        for (w, first) in rewrites {
            at.copy_within(first * width..(first + 1) * width, w * width);
        }
        FirstApplied { writes, procs, at }
    }

    /// The table's columns: the keys of `updates`, in order.
    pub(crate) fn procs(&self) -> &[ProcId] {
        &self.procs
    }

    /// Each write with its row, in `global.writes()` order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (OpId, &[Option<SimTime>])> {
        let width = self.procs.len();
        (self.writes.iter().enumerate()).map(move |(w, &id)| (id, &self.at[w * width..][..width]))
    }

    /// One [`WriteVisibility`] per row, its `visible_at` in column order.
    fn into_visibility(self, global: &History) -> Vec<WriteVisibility> {
        self.rows()
            .map(|(id, row)| {
                let op = global.op(id);
                WriteVisibility {
                    var: op.var,
                    val: op.written_value().expect("writes() returns writes"),
                    issued_at: op.at,
                    visible_at: (self.procs.iter().zip(row))
                        .filter_map(|(proc, at)| Some((*proc, (*at)?)))
                        .collect(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmi_sim::rng::SplitMix64;
    use cmi_types::OpRecord;
    use std::time::Duration;

    /// The definition [`FirstApplied`] must agree with: for every write
    /// and every process, the first entry of the process's log (in log
    /// order) that carries the written pair.
    fn visibility_by_scan(
        global: &History,
        updates: &BTreeMap<ProcId, Vec<ReplicaUpdate>>,
    ) -> Vec<WriteVisibility> {
        let mut out = Vec::new();
        for id in global.writes() {
            let op = global.op(id);
            let val = op.written_value().expect("writes() returns writes");
            let mut visible_at = BTreeMap::new();
            for (proc, log) in updates {
                if let Some(u) = log.iter().find(|u| u.var == op.var && u.val == val) {
                    visible_at.insert(*proc, u.at);
                }
            }
            out.push(WriteVisibility {
                var: op.var,
                val,
                issued_at: op.at,
                visible_at,
            });
        }
        out
    }

    #[test]
    fn first_applied_agrees_with_a_linear_scan_on_random_logs() {
        let sys = SystemId(0);
        let apps: Vec<ProcId> = (0..3).map(|i| ProcId::new(sys, i)).collect();
        let isp = ProcId::new(sys, 3);
        // (v) a process that applied nothing: an empty log is a column
        // of the table and an entry of no `visible_at`.
        let idle = ProcId::new(sys, 4);
        let (mut repeated, mut missing, mut isp_only, mut rewritten) = (0, 0, 0, 0);
        for seed in 0..50 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut global = History::new();
            let mut updates: BTreeMap<ProcId, Vec<ReplicaUpdate>> = BTreeMap::new();
            updates.insert(idle, Vec::new());
            let mut written: Vec<(VarId, Value)> = Vec::new();
            for step in 0..40u32 {
                let writer = apps[rng.gen_range(0..apps.len())];
                let var = VarId(rng.gen_range(0..3u32));
                let at = SimTime::from_millis(u64::from(step) * 10);
                if rng.gen_bool(0.3) {
                    global.record(OpRecord::read(writer, var, None, at));
                    continue;
                }
                // (iv) a pair written a second time: both writes of
                // `global` look up the same first applications.
                if !written.is_empty() && rng.gen_bool(0.1) {
                    rewritten += 1;
                    let (var, val) = written[rng.gen_range(0..written.len())];
                    global.record(OpRecord::write(writer, var, val, at));
                    continue;
                }
                let val = Value::new(writer, step);
                written.push((var, val));
                global.record(OpRecord::write(writer, var, val, at));
                for &proc in apps.iter().chain([&isp]) {
                    // (ii) some processes never apply the write.
                    if rng.gen_bool(0.2) {
                        missing += 1;
                        continue;
                    }
                    let log = updates.entry(proc).or_default();
                    let applied = |ms| ReplicaUpdate {
                        var,
                        val,
                        writer,
                        at: SimTime::from_millis(ms),
                    };
                    log.push(applied(rng.gen_range(0..1000u64)));
                    // (i) the same pair applied again at another time,
                    // earlier or later: the first log entry still wins.
                    if rng.gen_bool(0.3) {
                        repeated += 1;
                        log.push(applied(rng.gen_range(1000..2000u64)));
                    }
                }
                // (iii) the IS-process's own propagated write: applied
                // everywhere, but no operation of `global`.
                if rng.gen_bool(0.3) {
                    isp_only += 1;
                    let prop = ReplicaUpdate {
                        var,
                        val: Value::new(isp, step),
                        writer: isp,
                        at,
                    };
                    for &proc in apps.iter().chain([&isp]) {
                        updates.entry(proc).or_default().push(prop);
                    }
                }
            }
            // Log order is not time order.
            for log in updates.values_mut() {
                rng.shuffle(log);
            }
            let table = FirstApplied::of(&global, &updates);
            assert_eq!(table.procs(), updates.keys().copied().collect::<Vec<_>>());
            let indexed = table.into_visibility(&global);
            let scanned = visibility_by_scan(&global, &updates);
            let fields =
                |wv: &WriteVisibility| (wv.var, wv.val, wv.issued_at, wv.visible_at.clone());
            assert_eq!(
                indexed.iter().map(fields).collect::<Vec<_>>(),
                scanned.iter().map(fields).collect::<Vec<_>>(),
                "seed {seed}"
            );
            assert_eq!(indexed.len(), global.writes().len());
            assert!(indexed.iter().all(|wv| wv.val.origin() != isp));
            assert!(indexed.iter().all(|wv| !wv.visible_at.contains_key(&idle)));
        }
        assert!(
            repeated > 0 && missing > 0 && isp_only > 0 && rewritten > 0,
            "every case occurred: {repeated} repeated, {missing} missing, \
             {isp_only} IS-only, {rewritten} rewritten"
        );
    }

    #[test]
    fn write_visibility_latency_math() {
        let origin = ProcId::new(SystemId(0), 0);
        let val = Value::new(origin, 1);
        let mut visible_at = BTreeMap::new();
        visible_at.insert(origin, SimTime::from_millis(10));
        visible_at.insert(ProcId::new(SystemId(0), 1), SimTime::from_millis(14));
        visible_at.insert(ProcId::new(SystemId(1), 0), SimTime::from_millis(25));
        let wv = WriteVisibility {
            var: VarId(0),
            val,
            issued_at: SimTime::from_millis(10),
            visible_at,
        };
        assert_eq!(wv.max_latency(), Duration::from_millis(15));
    }

    #[test]
    fn empty_visibility_has_zero_latency() {
        let origin = ProcId::new(SystemId(0), 0);
        let wv = WriteVisibility {
            var: VarId(0),
            val: Value::new(origin, 1),
            issued_at: SimTime::from_millis(10),
            visible_at: BTreeMap::new(),
        };
        assert_eq!(wv.max_latency(), Duration::ZERO);
    }
}
