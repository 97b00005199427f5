//! Online causal monitor: the fast path of [`crate::wio`], incremental.
//!
//! [`OnlineMonitor`] consumes a run as a stream — one [`OpRecord`] per
//! completed operation, plus optional [`LineageEvent`]s for forensic
//! evidence — and maintains the writes-into ∪ program-order vector-clock
//! saturation of the offline fast path *as the ops arrive*, flagging the
//! **first** causal violation at the exact stream index instead of
//! post-mortem. The verdict at [`OnlineMonitor::finalize`] is the same
//! one [`crate::wio::check`] computes offline (the differential test
//! `online_vs_fastpath` pins this over seeded histories).
//!
//! # How the offline algorithm becomes incremental
//!
//! * **Causal clocks stream.** Ops are processed in a topological order
//!   of program order ∪ writes-into: a read of a value whose write has
//!   not arrived yet *stalls* its chain (program order queues behind
//!   it), and the write's arrival drains the stall queue. A processed
//!   op's clock is final, so each op needs one `O(np)` join — no Kahn
//!   pass over a materialized graph. Leftover stalls at finalize are
//!   classified exactly like the offline checker: a value written
//!   nowhere is a [`BadPattern::ThinAirRead`], otherwise the wait-for
//!   loop is a [`BadPattern::CyclicCausalOrder`].
//! * **Two clock coordinate systems.** Every write carries its clock in
//!   full-chain coordinates *and* in writes-only coordinates. The
//!   writes-only clock is exactly the projection `pref[q][vc[op][q]]`
//!   the offline saturation seeds `hvc` from — so a per-process
//!   saturation view can be (re)seeded for any write in `O(np)` at any
//!   time, with no per-chain prefix tables and no history replay.
//! * **Saturation is per-watcher and event-driven.** For each process
//!   `i` that reads, the monitor keeps hb_i clocks on the live nodes of
//!   the projection α_i. The pinning rule re-runs exactly when it can
//!   change: at a read's arrival and whenever propagation grows a read's
//!   clock. Every edge join is propagated immediately, so the invariant
//!   *`hvc[dst] ⊇ hvc[src]` for every recorded edge* holds continuously
//!   — which is what makes state retirement sound.
//! * **Memory is bounded by retirement.** A write whose clock is
//!   dominated by every chain's frontier is causally before everything
//!   that can still arrive; once a *later* write to the same variable on
//!   the same chain is also dominated, the older write can never again
//!   be the hb-latest candidate of any future read, and any future read
//!   returning it is a guaranteed [`BadPattern::WriteCoRead`] (the
//!   shadow is the interposed witness). Such writes are retired: their
//!   per-watcher clocks are released and a constant-size per-(var, chain)
//!   summary remains. Retirement needs the full process membership up
//!   front ([`MonitorConfig::procs`]) — without it the frontier minimum
//!   is not meaningful and retirement stays off.
//!
//! # Memory layout
//!
//! Every clock is a row of `stride` lanes (`stride` ≥ the number of
//! chains) in a flat `Vec<u32>`; no clock is a vector of its own.
//!
//! * Writes live in arena slots. A write's two causal clocks are row
//!   `slot` of the slot-major `clock` and `wclock` tables; each chain's
//!   frontier is row `q` of the chain-major `frontier`/`wfrontier`.
//! * Watcher `i` owns one slot-major table `hb` (row `slot` = the hb_i
//!   clock of the write in that slot) with a *seeded* bit per slot in
//!   place of an `Option`: set when the row is seeded, cleared when the
//!   write retires, and a freed slot's row is re-seeded whole on reuse.
//!   Its reads' hb_i clocks are rows of a ring `rhb`, row `seq %
//!   read_window` (row `seq` when the window is unbounded).
//! * A join is a row-to-row lane-wise max on one table
//!   (`order::join_rows`) or across a watcher's two tables
//!   (`order::join_lanes`, the loop `join_rows` calls); propagation
//!   walks successor lists in place and reuses one stack.
//! * Re-stride: the rows widen only when a chain appears past `stride`
//!   (never, under declared membership, which sizes them up front); all
//!   tables are then re-laid at twice the width, the new lanes zero — as
//!   a clock's missing lanes always were — so the cost is amortised over
//!   the chains that appear.
//!
//! The state estimate behind `peak_state_bytes` counts logical objects —
//! live writes, seeded (write, watcher) clocks, read nodes, edges, stalled
//! ops — at fixed per-object sizes, not the tables' capacities: the same
//! run reports the same estimate whatever the layout.
//!
//! Health metrics go through interned [`MetricId`]s only — the per-op
//! path does no string formatting, no name lookups and no clock copied
//! into a fresh vector (`tests/hot_path_audit.rs` greps this file to
//! keep it that way).

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use cmi_obs::lineage::{LineageEvent, UpdateId};
use cmi_obs::metrics::{MetricId, MetricsRegistry};
use cmi_obs::ring::RingBuffer;
use cmi_obs::{Json, ToJson};
use cmi_types::{History, OpId, OpKind, OpRecord, ProcId, Value, VarId};

use crate::causal::{CausalVerdict, CausalViolation};
use crate::order::{join_lanes, join_rows};
use crate::screen::BadPattern;

/// Packs a [`Value`] into the matching lineage [`UpdateId`] key.
fn update_key(v: Value) -> u64 {
    UpdateId::pack(v.origin().system.0, v.origin().index, v.seq()).0
}

/// Configuration of an [`OnlineMonitor`].
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Full process membership, when known up front. Required for state
    /// retirement: the frontier minimum is only sound over all processes
    /// that will ever speak. `None` disables retirement (exact,
    /// unbounded — what the differential tests use).
    pub procs: Option<Vec<ProcId>>,
    /// Per-process cap on live read nodes in the saturation views
    /// (oldest are evicted, counted). `0` = unbounded (exact).
    pub read_window: usize,
    /// Capacity of the lineage evidence ring kept for forensics.
    pub evidence: usize,
    /// Run a retirement sweep every this many processed ops (`0` =
    /// never).
    pub sweep_every: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            procs: None,
            read_window: 0,
            evidence: 256,
            sweep_every: 0,
        }
    }
}

impl MonitorConfig {
    /// Production shape: declared membership, bounded read windows,
    /// periodic retirement sweeps.
    pub fn bounded(procs: Vec<ProcId>) -> Self {
        MonitorConfig {
            procs: Some(procs),
            read_window: 4096,
            evidence: 256,
            sweep_every: 64,
        }
    }
}

/// The first violation an [`OnlineMonitor`] flagged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorViolation {
    /// Stream index of the op that closed the violation (0-based; equals
    /// the history [`OpId`] when the monitor is fed a history in order).
    pub op_index: u64,
    /// The bad pattern, with ops named by stream index.
    pub pattern: BadPattern,
    /// The broken causal edge, human-readable.
    pub broken_edge: String,
    /// Lifecycle evidence for the updates involved, from the evidence
    /// ring (possibly truncated — the ring counts its drops).
    pub narrative: String,
    /// Updates involved in the violation (lineage ids).
    pub updates: Vec<UpdateId>,
}

/// Final report of a monitored run.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Same verdict the offline fast path computes, or
    /// [`CausalVerdict::Unknown`] if the stream was not write-distinct.
    pub verdict: CausalVerdict,
    /// The first violation, when the verdict is `NotCausal`.
    pub violation: Option<MonitorViolation>,
    /// Ops fully processed (excludes ops after the first violation).
    pub ops_checked: u64,
    /// Ops received on the stream.
    pub ops_seen: u64,
    /// High-water mark of live (unretired) writes.
    pub peak_frontier: u64,
    /// High-water mark of the retirement-governed state estimate, bytes.
    pub peak_state_bytes: u64,
    /// Writes retired by the domination rule.
    pub retired: u64,
    /// Read nodes evicted from bounded saturation windows.
    pub reads_evicted: u64,
    /// Lineage events dropped from the evidence ring.
    pub evidence_dropped: u64,
    /// The monitor's own health metrics (`monitor.*`).
    pub metrics: MetricsRegistry,
}

impl MonitorReport {
    /// `true` when the monitored stream is causal so far.
    pub fn is_clean(&self) -> bool {
        self.verdict.is_causal()
    }

    /// Stable JSON block for run reports (`"monitor"` in the CLI).
    pub fn to_json(&self) -> Json {
        let verdict = match &self.verdict {
            CausalVerdict::Causal => "causal",
            CausalVerdict::NotCausal(_) => "not-causal",
            CausalVerdict::Unknown => "unknown",
        };
        let mut fields = vec![
            ("verdict".to_string(), Json::Str(verdict.into())),
            ("ops_checked".to_string(), self.ops_checked.to_json()),
            ("ops_seen".to_string(), self.ops_seen.to_json()),
            ("peak_frontier".to_string(), self.peak_frontier.to_json()),
            (
                "peak_state_bytes".to_string(),
                self.peak_state_bytes.to_json(),
            ),
            ("retired".to_string(), self.retired.to_json()),
            ("reads_evicted".to_string(), self.reads_evicted.to_json()),
            (
                "evidence_dropped".to_string(),
                self.evidence_dropped.to_json(),
            ),
        ];
        if let Some(v) = &self.violation {
            fields.push((
                "violation".to_string(),
                Json::obj([
                    ("op_index", v.op_index.to_json()),
                    ("pattern", Json::Str(v.pattern.to_string())),
                    ("broken_edge", Json::Str(v.broken_edge.clone())),
                    (
                        "updates",
                        Json::Arr(v.updates.iter().map(|u| Json::Str(u.to_string())).collect()),
                    ),
                ]),
            ));
        }
        fields.push(("metrics".to_string(), self.metrics.snapshot()));
        Json::Obj(fields)
    }

    /// Multi-line human summary for the CLI text report.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let verdict = match &self.verdict {
            CausalVerdict::Causal => "causal",
            CausalVerdict::NotCausal(_) => "NOT CAUSAL",
            CausalVerdict::Unknown => "unknown (stream not write-distinct)",
        };
        let _ = writeln!(out, "verdict: {verdict}");
        let _ = writeln!(
            out,
            "ops checked: {} / {} seen, peak frontier {}, retired {}, peak state ~{} B",
            self.ops_checked,
            self.ops_seen,
            self.peak_frontier,
            self.retired,
            self.peak_state_bytes
        );
        if let Some(v) = &self.violation {
            let _ = writeln!(out, "first violation at op {}: {}", v.op_index, v.pattern);
            let _ = writeln!(out, "broken edge: {}", v.broken_edge);
            if !v.narrative.is_empty() {
                let _ = writeln!(out, "evidence:\n{}", v.narrative.trim_end());
            }
        }
        out
    }
}

/// Interned ids of the monitor's health metrics — resolved once at
/// construction so the per-op path is index arithmetic only.
struct MonitorIds {
    ops_checked: MetricId,
    frontier_size: MetricId,
    peak_state_bytes: MetricId,
    violations: MetricId,
    check_latency_ns: MetricId,
}

impl MonitorIds {
    fn resolve(m: &mut MetricsRegistry) -> Self {
        MonitorIds {
            ops_checked: m.key("monitor.ops_checked"),
            frontier_size: m.key("monitor.frontier_size"),
            peak_state_bytes: m.key("monitor.peak_state_bytes"),
            violations: m.key("monitor.violations"),
            check_latency_ns: m.key("monitor.check_latency_ns"),
        }
    }
}

/// Reference to a live node of a saturation view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef {
    /// A write: arena slot + generation (stale generations are skipped).
    W(u32, u32),
    /// A read node of watcher `i`: (`i`, monotone read sequence).
    R(u32, u64),
}

/// Where a node's hb clock lives in its watcher's tables.
#[derive(Clone, Copy)]
enum Row {
    /// Row of [`Watcher::hb`] (a write's slot).
    W(usize),
    /// Row of [`Watcher::rhb`] (a read's ring position).
    R(usize),
}

/// A live (unretired) write. Its clocks are row `slot` of the monitor's
/// `clock`/`wclock` tables and of every watcher's `hb` table.
struct WriteState {
    op: u64,
    update: u64,
    q: u32,
    cpos: u32,
    widx: u32,
    /// Out-edges valid in every watcher's view (chain + shortcut edges).
    succ_all: Vec<NodeRef>,
    /// Watcher-specific out-edges (writes-into + saturation edges).
    succ_of: Vec<(u32, NodeRef)>,
    /// Membership count in pending-shortcut lists (defers retirement).
    pins: u32,
}

struct Slot {
    gen: u32,
    st: Option<WriteState>,
}

/// A read node of watcher `i` (lives in a bounded window). Its hb clock
/// is a row of the watcher's `rhb` table.
struct ReadNode {
    op: u64,
    var: u32,
    cpos: u32,
    /// Row of the read's clock in `rhb`.
    row: u32,
    src: ReadSrc,
    succ: Vec<NodeRef>,
}

#[derive(Clone, Copy)]
enum ReadSrc {
    Init,
    Write { slot: u32, gen: u32 },
}

/// Watcher `i`'s saturation view: its read window and the hb_i clocks
/// of its nodes, `stride` lanes per row.
struct Watcher {
    reads: VecDeque<ReadNode>,
    dropped: u64,
    /// hb_i clocks of writes, slot-major: row `s` belongs to the write
    /// in slot `s`.
    hb: Vec<u32>,
    /// One bit per slot: row `s` of `hb` holds the clock of the write
    /// now in slot `s` (set when seeded, cleared when it retires).
    seeded: Vec<u64>,
    /// hb_i clocks of the window's reads: row `seq % read_window`, or
    /// row `seq` when the window is unbounded.
    rhb: Vec<u32>,
}

/// Per-process chain state. The chain's frontier clocks are row `q` of
/// the monitor's `frontier`/`wfrontier` tables.
struct ChainState {
    proc: ProcId,
    len: u32,
    widx: u32,
    last_write: Option<(u32, u32)>,
    /// Last node of this chain in its *own* watcher's view.
    last_own: Option<NodeRef>,
    /// Dictating writes of this chain's recent reads, awaiting the
    /// chain's next write (the shortcut edge through removed reads).
    pending_shortcut: Vec<(u32, u32)>,
    /// Ops queued behind an unresolvable read (program order preserved).
    stalled: VecDeque<PendingOp>,
}

/// One op waiting in a stall queue.
struct PendingOp {
    op: u64,
    var: VarId,
    kind: OpKind,
}

/// Per-(variable, chain) write bookkeeping.
#[derive(Default)]
struct ChainVar {
    /// The chain's first write to the variable (never forgotten).
    first: Option<(u32, u64)>,
    /// Live writes, in chain order: `(cpos, widx, slot, gen)`.
    active: Vec<(u32, u32, u32, u32)>,
    /// Constant-size summary of the most recently retired write.
    retired_last: Option<RetiredWrite>,
}

#[derive(Default)]
struct RetiredWrite {
    cpos: u32,
    op: u64,
    clock: Vec<u32>,
}

/// Ledger entry: every write ever seen, `O(1)` each, kept for read
/// resolution (outside the retirement-governed state estimate).
struct LedgerEntry {
    q: u32,
    cpos: u32,
    op: u64,
    slot: Option<(u32, u32)>,
    acks: u32,
}

enum Phase {
    Running,
    Fired,
    Unknown,
}

/// `dst ⊔= src` for two rows of one watcher's `hb`/`rhb` tables, `n`
/// lanes each; `true` if some lane of `dst` rose.
fn join_in(hb: &mut [u32], rhb: &mut [u32], n: usize, src: Row, dst: Row) -> bool {
    match (src, dst) {
        (Row::W(a), Row::W(b)) => join_rows(hb, n, a, b),
        (Row::R(a), Row::R(b)) => join_rows(rhb, n, a, b),
        (Row::W(a), Row::R(b)) => join_lanes(&mut rhb[b * n..][..n], &hb[a * n..][..n]),
        (Row::R(a), Row::W(b)) => join_lanes(&mut hb[b * n..][..n], &rhb[a * n..][..n]),
    }
}

/// Bit `s` of a bitset.
fn bit(words: &[u64], s: u32) -> bool {
    words[s as usize / 64] >> (s % 64) & 1 == 1
}

/// The incremental causal monitor. Feed ops with
/// [`observe`](Self::observe) (and lineage with
/// [`observe_lineage`](Self::observe_lineage)), poll
/// [`violation`](Self::violation) live, and call
/// [`finalize`](Self::finalize) at end of run.
pub struct OnlineMonitor {
    cfg: MonitorConfig,
    phase: Phase,
    arrival: u64,
    ops_checked: u64,
    declared: bool,
    chains: Vec<ChainState>,
    chain_ix: HashMap<ProcId, u32>,
    vars: Vec<Vec<ChainVar>>,
    var_ix: HashMap<VarId, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    watchers: Vec<Option<Watcher>>,
    /// Lanes per row of every clock table (≥ the number of chains).
    stride: usize,
    /// Causal clocks of writes, slot-major, full-chain coordinates.
    clock: Vec<u32>,
    /// Causal clocks of writes, slot-major, writes-only coordinates
    /// (the α_i seed).
    wclock: Vec<u32>,
    /// Clock of each chain's last processed op, chain-major, full
    /// coordinates.
    frontier: Vec<u32>,
    /// Same, writes-only coordinates.
    wfrontier: Vec<u32>,
    ledger: HashMap<u64, LedgerEntry>,
    waiters: HashMap<u64, Vec<u32>>,
    stalled_ops: u64,
    active_writes: u64,
    retired: u64,
    hvc_vecs: u64,
    edges: u64,
    read_nodes: u64,
    peak_frontier: u64,
    peak_state_bytes: u64,
    violation: Option<MonitorViolation>,
    evidence: Option<RingBuffer<LineageEvent>>,
    metrics: MetricsRegistry,
    ids: MonitorIds,
    // Buffers reused by the per-op path.
    /// Updates whose stall-queue waiters may drain.
    unlocked: Vec<u64>,
    /// Reads whose pinning rule must re-run.
    dirty: Vec<u64>,
    /// Propagation stack.
    stack: Vec<NodeRef>,
    /// A read's two causal clocks (full | writes-only); a sweep's
    /// frontier minimum.
    scratch: Vec<u32>,
}

impl OnlineMonitor {
    /// A monitor with the given configuration.
    pub fn new(cfg: MonitorConfig) -> Self {
        let mut metrics = MetricsRegistry::new();
        let ids = MonitorIds::resolve(&mut metrics);
        // Zero-seed the counters so a clean run's snapshot still shows
        // them: `monitor.violations == 0` is an assertable health fact,
        // not an absence.
        metrics.add_id(ids.ops_checked, 0);
        metrics.add_id(ids.violations, 0);
        let evidence = (cfg.evidence > 0).then(|| RingBuffer::new(cfg.evidence));
        let mut mon = OnlineMonitor {
            declared: cfg.procs.is_some(),
            phase: Phase::Running,
            arrival: 0,
            ops_checked: 0,
            chains: Vec::new(),
            chain_ix: HashMap::new(),
            vars: Vec::new(),
            var_ix: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            watchers: Vec::new(),
            // Declared membership sizes the rows once; otherwise they
            // widen as chains arrive.
            stride: cfg.procs.as_ref().map_or(0, Vec::len),
            clock: Vec::new(),
            wclock: Vec::new(),
            frontier: Vec::new(),
            wfrontier: Vec::new(),
            ledger: HashMap::new(),
            waiters: HashMap::new(),
            stalled_ops: 0,
            active_writes: 0,
            retired: 0,
            hvc_vecs: 0,
            edges: 0,
            read_nodes: 0,
            peak_frontier: 0,
            peak_state_bytes: 0,
            violation: None,
            evidence,
            metrics,
            ids,
            unlocked: Vec::new(),
            dirty: Vec::new(),
            stack: Vec::new(),
            scratch: Vec::new(),
            cfg,
        };
        if let Some(procs) = mon.cfg.procs.clone() {
            for p in procs {
                mon.chain_of(p);
            }
        }
        mon
    }

    /// Convenience: feed a whole history in op order and finalize —
    /// what the differential tests and X20 use.
    pub fn check_history(history: &History, cfg: MonitorConfig) -> MonitorReport {
        let mut mon = OnlineMonitor::new(cfg);
        for rec in history.iter() {
            mon.observe(rec);
        }
        mon.finalize()
    }

    /// The first violation, if one has fired.
    pub fn violation(&self) -> Option<&MonitorViolation> {
        self.violation.as_ref()
    }

    /// Ops received so far.
    pub fn ops_seen(&self) -> u64 {
        self.arrival
    }

    /// Records one lineage event into the evidence ring and the ack
    /// ledger (cheap; never on the checking path).
    pub fn observe_lineage(&mut self, ev: &LineageEvent) {
        use cmi_obs::lineage::Stage;
        if matches!(ev.stage, Stage::ReplicaApplied | Stage::RemoteApplied) {
            if let Some(e) = self.ledger.get_mut(&ev.update.0) {
                e.acks += 1;
            }
        }
        if let Some(ring) = &mut self.evidence {
            ring.push(*ev);
        }
    }

    // AUDIT:HOT-BEGIN — per-op monitor path. No `format!`, no string-keyed
    // metric calls and no clock copied into a fresh vector below this line
    // until AUDIT:HOT-END; `tests/hot_path_audit.rs` enforces it.

    /// Feeds one operation from the stream.
    pub fn observe(&mut self, rec: &OpRecord) {
        let idx = self.arrival;
        self.arrival += 1;
        if !matches!(self.phase, Phase::Running) {
            return;
        }
        let t0 = Instant::now();
        let q = self.chain_of(rec.proc);
        if !matches!(self.phase, Phase::Running) {
            return; // undeclared late process degraded the verdict
        }
        let pending = PendingOp {
            op: idx,
            var: rec.var,
            kind: rec.kind,
        };
        if !self.chains[q as usize].stalled.is_empty() || !self.resolvable(&pending) {
            // A newly blocked chain head registers interest in the value
            // it awaits; drains re-register as heads change.
            if self.chains[q as usize].stalled.is_empty() {
                if let OpKind::Read { value: Some(v) } = pending.kind {
                    self.waiters.entry(update_key(v)).or_default().push(q);
                }
            }
            self.chains[q as usize].stalled.push_back(pending);
            self.stalled_ops += 1;
        } else {
            self.process_op(q, pending);
            self.drain_waiters();
        }
        if matches!(self.phase, Phase::Running)
            && self.cfg.sweep_every > 0
            && self.ops_checked > 0
            && self.ops_checked % self.cfg.sweep_every == 0
        {
            self.sweep();
        }
        self.note_state();
        self.metrics
            .observe_id(self.ids.check_latency_ns, t0.elapsed().as_nanos() as f64);
    }

    /// `true` if the op can be processed now (its read value, if any, is
    /// in the ledger).
    fn resolvable(&self, p: &PendingOp) -> bool {
        match p.kind {
            OpKind::Write { .. } | OpKind::Read { value: None } => true,
            OpKind::Read { value: Some(v) } => self.ledger.contains_key(&update_key(v)),
        }
    }

    /// Processes one resolvable op; a processed write's update goes on
    /// `unlocked`, for [`drain_waiters`](Self::drain_waiters).
    fn process_op(&mut self, q: u32, p: PendingOp) {
        self.ops_checked += 1;
        self.metrics.inc_id(self.ids.ops_checked);
        let v = self.var_of(p.var);
        match p.kind {
            OpKind::Write { value } => {
                let key = update_key(value);
                if self.ledger.contains_key(&key) {
                    // A re-written value: the stream is not
                    // write-distinct, the bad-pattern characterization
                    // does not apply. Degrade gracefully.
                    self.phase = Phase::Unknown;
                    return;
                }
                self.insert_write(q, v, p.op, key);
                self.unlocked.push(key);
            }
            OpKind::Read { value } => {
                let src = match value {
                    None => ReadSrc::Init,
                    Some(val) => {
                        let key = update_key(val);
                        let e = &self.ledger[&key];
                        match e.slot {
                            Some((s, g)) => ReadSrc::Write { slot: s, gen: g },
                            None => {
                                // Reading a retired (dominated + shadowed)
                                // write is a guaranteed stale read.
                                self.fire_retired_read(q, v, p.op, key);
                                return;
                            }
                        }
                    }
                };
                self.insert_read(q, v, p.op, src);
            }
        }
    }

    /// Drains stall queues unblocked by newly processed writes.
    fn drain_waiters(&mut self) {
        while let Some(key) = self.unlocked.pop() {
            if !matches!(self.phase, Phase::Running) {
                return;
            }
            let Some(chains) = self.waiters.remove(&key) else {
                continue;
            };
            for q in chains {
                loop {
                    if !matches!(self.phase, Phase::Running) {
                        return;
                    }
                    let Some(head) = self.chains[q as usize].stalled.front() else {
                        break;
                    };
                    if !self.resolvable(head) {
                        // Still blocked: register interest in the head's
                        // awaited value.
                        if let OpKind::Read { value: Some(v) } = head.kind {
                            self.waiters.entry(update_key(v)).or_default().push(q);
                        }
                        break;
                    }
                    let head = self.chains[q as usize].stalled.pop_front().expect("front");
                    self.stalled_ops -= 1;
                    self.process_op(q, head);
                }
            }
        }
    }

    // ---- clock tables and arena ----------------------------------------

    fn chain_of(&mut self, p: ProcId) -> u32 {
        match self.chain_ix.get(&p) {
            Some(&q) => q,
            None => self.new_chain(p),
        }
    }

    fn var_of(&mut self, var: VarId) -> u32 {
        match self.var_ix.get(&var) {
            Some(&v) => v,
            None => self.new_var(var),
        }
    }

    fn alloc_slot(&mut self, st: WriteState) -> (u32, u32) {
        if let Some(s) = self.free.pop() {
            let slot = &mut self.slots[s as usize];
            slot.st = Some(st);
            return (s, slot.gen);
        }
        self.slots.push(Slot {
            gen: 0,
            st: Some(st),
        });
        // A new row in every slot-major table.
        let n = self.stride;
        self.clock.resize(self.clock.len() + n, 0);
        self.wclock.resize(self.wclock.len() + n, 0);
        let words = self.slots.len().div_ceil(64);
        for w in self.watchers.iter_mut().flatten() {
            w.hb.resize(w.hb.len() + n, 0);
            w.seeded.resize(words, 0);
        }
        ((self.slots.len() - 1) as u32, 0)
    }

    fn write(&self, s: u32, g: u32) -> Option<&WriteState> {
        let slot = &self.slots[s as usize];
        (slot.gen == g).then(|| slot.st.as_ref()).flatten()
    }

    fn write_mut(&mut self, s: u32, g: u32) -> Option<&mut WriteState> {
        let slot = &mut self.slots[s as usize];
        (slot.gen == g).then(|| slot.st.as_mut()).flatten()
    }

    fn at(clock: &[u32], q: usize) -> u32 {
        clock.get(q).copied().unwrap_or(0)
    }

    /// α_i position of a write on chain `q`: its write index for foreign
    /// chains, its full chain position for the watcher's own chain.
    fn apos(i: u32, q: u32, cpos: u32, widx: u32) -> u32 {
        if i == q {
            cpos
        } else {
            widx
        }
    }

    /// `true` if watcher `i` exists and holds an hb clock for slot `s`.
    fn seeded(&self, i: u32, s: u32) -> bool {
        self.watchers[i as usize]
            .as_ref()
            .is_some_and(|w| bit(&w.seeded, s))
    }

    /// Seeds watcher `i`'s hb clock of the write in slot `s` from its
    /// causal clocks — the streaming equivalent of the offline `pref`
    /// projection: writes-only coordinates, full ones on lane `i`.
    fn seed_write(&mut self, i: u32, s: u32) {
        let n = self.stride;
        let si = s as usize * n;
        let w = self.watchers[i as usize].as_mut().expect("watcher exists");
        let row = &mut w.hb[si..si + n];
        row.copy_from_slice(&self.wclock[si..si + n]);
        row[i as usize] = self.clock[si + i as usize];
        w.seeded[s as usize / 64] |= 1 << (s % 64);
    }

    /// Row of read `seq` in its watcher's `rhb` table.
    fn ring_row(&self, seq: u64) -> usize {
        match self.cfg.read_window {
            0 => seq as usize,
            window => (seq % window as u64) as usize,
        }
    }

    /// The row of `n`'s clock in watcher `i`'s view, if `n` is live there.
    fn row_of(&self, i: u32, n: NodeRef) -> Option<Row> {
        match n {
            NodeRef::W(s, g) => {
                (self.write(s, g).is_some() && self.seeded(i, s)).then_some(Row::W(s as usize))
            }
            NodeRef::R(ri, seq) => {
                debug_assert_eq!(ri, i);
                self.read(ri, seq).map(|r| Row::R(r.row as usize))
            }
        }
    }

    /// Joins watcher `i`'s clock at `src` into its clock of `dst` (no
    /// propagation); `true` if `dst` grew.
    fn join_node(&mut self, i: u32, src: Row, dst: NodeRef) -> bool {
        let Some(dst) = self.row_of(i, dst) else {
            return false;
        };
        let w = self.watchers[i as usize].as_mut().expect("watcher exists");
        join_in(&mut w.hb, &mut w.rhb, self.stride, src, dst)
    }

    // ---- write arrival -------------------------------------------------

    fn insert_write(&mut self, q: u32, v: u32, op: u64, key: u64) {
        let ch = &self.chains[q as usize];
        let (cpos, widx) = (ch.len, ch.widx);
        let (s, g) = self.alloc_slot(WriteState {
            op,
            update: key,
            q,
            cpos,
            widx,
            succ_all: Vec::new(),
            succ_of: Vec::new(),
            pins: 0,
        });
        // The write's causal clocks: its chain's frontier, plus itself.
        let n = self.stride;
        let (qi, si) = (q as usize * n, s as usize * n);
        self.clock[si..si + n].copy_from_slice(&self.frontier[qi..qi + n]);
        self.clock[si + q as usize] = cpos + 1;
        self.wclock[si..si + n].copy_from_slice(&self.wfrontier[qi..qi + n]);
        self.wclock[si + q as usize] = widx + 1;
        // Seed hb clocks for every existing watcher.
        for i in 0..self.watchers.len() as u32 {
            if self.watchers[i as usize].is_some() {
                self.seed_write(i, s);
                self.hvc_vecs += 1;
            }
        }
        self.active_writes += 1;
        self.peak_frontier = self.peak_frontier.max(self.active_writes);

        // Chain, own-watcher and shortcut edges into the new node, each
        // with an immediate join (saturation surplus beyond the seed).
        let prev_write = self.chains[q as usize].last_write;
        let prev_own = self.chains[q as usize].last_own;
        let mut pending = std::mem::take(&mut self.chains[q as usize].pending_shortcut);
        if let Some((ps, pg)) = prev_write {
            self.add_edge_all(ps, pg, NodeRef::W(s, g));
        }
        if let Some(NodeRef::R(i, seq)) = prev_own {
            self.add_read_edge(i, seq, NodeRef::W(s, g));
        }
        for &(ws, wg) in &pending {
            if let Some(w) = self.write_mut(ws, wg) {
                w.pins -= 1;
            }
            if (ws, wg) != (s, g) {
                self.add_edge_all(ws, wg, NodeRef::W(s, g));
            }
        }
        pending.clear();
        self.chains[q as usize].pending_shortcut = pending;

        // Bookkeeping: ledger, per-(var, chain) lists, chain advance.
        self.ledger.insert(
            key,
            LedgerEntry {
                q,
                cpos,
                op,
                slot: Some((s, g)),
                acks: 0,
            },
        );
        let cv = &mut self.vars[v as usize][q as usize];
        if cv.first.is_none() {
            cv.first = Some((cpos, op));
        }
        cv.active.push((cpos, widx, s, g));
        let ch = &mut self.chains[q as usize];
        ch.len += 1;
        ch.widx += 1;
        ch.last_write = Some((s, g));
        ch.last_own = Some(NodeRef::W(s, g));
        self.frontier[qi..qi + n].copy_from_slice(&self.clock[si..si + n]);
        self.wfrontier[qi..qi + n].copy_from_slice(&self.wclock[si..si + n]);

        // The joins may have produced saturation surplus; the new node
        // has no successors to propagate to yet, but it may close a
        // cycle.
        for i in 0..self.watchers.len() as u32 {
            if self.watchers[i as usize].is_some() && self.cycle_at(i, NodeRef::W(s, g)) {
                self.fire_cyclic(i, op);
                return;
            }
        }
    }

    /// Adds `src → dst` valid for every watcher, joining `src`'s current
    /// per-watcher clocks into `dst` (keeps the edge invariant).
    fn add_edge_all(&mut self, ss: u32, sg: u32, dst: NodeRef) {
        let Some(src) = self.write_mut(ss, sg) else {
            // Retired source: its clocks can no longer grow and were
            // already folded into every successor — safe to skip.
            return;
        };
        src.succ_all.push(dst);
        self.edges += 1;
        for i in 0..self.watchers.len() as u32 {
            if self.seeded(i, ss) {
                self.join_node(i, Row::W(ss as usize), dst);
            }
        }
    }

    /// Adds read node `(i, seq) → dst` (only meaningful in watcher `i`).
    fn add_read_edge(&mut self, i: u32, seq: u64, dst: NodeRef) {
        let Some(r) = self.read_mut(i, seq) else {
            return; // evicted from the window
        };
        r.succ.push(dst);
        let src = Row::R(r.row as usize);
        self.edges += 1;
        self.join_node(i, src, dst);
    }

    // ---- read arrival and the pinning rule -----------------------------

    fn insert_read(&mut self, q: u32, v: u32, op: u64, src: ReadSrc) {
        let n = self.stride;
        let qi = q as usize * n;
        let cpos = self.chains[q as usize].len;
        // The read's causal clocks, full | writes-only coordinates: its
        // chain's frontier joined with the dictating write's clocks.
        let mut cw = std::mem::take(&mut self.scratch);
        cw.clear();
        cw.extend_from_slice(&self.frontier[qi..qi + n]);
        cw.extend_from_slice(&self.wfrontier[qi..qi + n]);
        if let ReadSrc::Write { slot, .. } = src {
            let si = slot as usize * n;
            let (clock, wclock) = cw.split_at_mut(n);
            join_lanes(clock, &self.clock[si..si + n]);
            join_lanes(wclock, &self.wclock[si..si + n]);
        }
        cw[q as usize] = cpos + 1;

        // Phase A: the causal-consistency patterns, straight off the
        // clocks (same binary searches as the offline co_patterns).
        if let Some(pattern) = self.co_check(v, op, src, &cw[..n]) {
            self.scratch = cw;
            self.fire(pattern, op);
            return;
        }

        // Phase B: this read becomes a node of its own watcher's view,
        // seeded with the writes-only projection (full on its own lane).
        if self.watchers[q as usize].is_none() {
            self.create_watcher(q);
        }
        let window = self.cfg.read_window;
        let seq = {
            let w = self.watchers[q as usize].as_ref().expect("created");
            w.dropped + w.reads.len() as u64
        };
        let row = self.ring_row(seq);
        let ri = row * n;
        let evicted = {
            let w = self.watchers[q as usize].as_mut().expect("created");
            let evicted = if window > 0 && w.reads.len() == window {
                w.dropped += 1;
                w.reads.pop_front()
            } else {
                self.read_nodes += 1;
                None
            };
            w.reads.push_back(ReadNode {
                op,
                var: v,
                cpos,
                row: row as u32,
                src,
                succ: Vec::new(),
            });
            if w.rhb.len() < ri + n {
                w.rhb.resize(ri + n, 0);
            }
            let hb = &mut w.rhb[ri..ri + n];
            hb.copy_from_slice(&cw[n..]);
            hb[q as usize] = cpos + 1;
            evicted
        };
        // A read leaving the window takes its propagation role with it:
        // re-route its dictating write straight to the read's successors,
        // or — when the chain hasn't written since — pin it into the
        // shortcut queue so the chain's next write inherits the edge.
        if let Some(old) = evicted {
            if let ReadSrc::Write { slot, gen, .. } = old.src {
                if old.succ.is_empty() {
                    if let Some(w) = self.write_mut(slot, gen) {
                        w.pins += 1;
                        self.chains[q as usize].pending_shortcut.push((slot, gen));
                    }
                } else if self.write(slot, gen).is_some() {
                    for d in old.succ {
                        if let Some(w) = self.write_mut(slot, gen) {
                            w.succ_of.push((q, d));
                            self.edges += 1;
                        }
                    }
                }
            }
        }
        let me = NodeRef::R(q, seq);
        // Program-order edge from the chain's previous node, plus the
        // writes-into edge from the dictating write. The live read node
        // itself is the shortcut to the chain's next write, so no pin is
        // needed while it stays in the window.
        match self.chains[q as usize].last_own {
            Some(NodeRef::W(s, g)) => self.add_write_succ_of(q, s, g, me),
            Some(NodeRef::R(i, pseq)) => self.add_read_edge(i, pseq, me),
            None => {}
        }
        if let ReadSrc::Write { slot, gen, .. } = src {
            self.add_write_succ_of(q, slot, gen, me);
        }
        let ch = &mut self.chains[q as usize];
        ch.len += 1;
        ch.last_own = Some(me);
        self.frontier[qi..qi + n].copy_from_slice(&cw[..n]);
        self.wfrontier[qi..qi + n].copy_from_slice(&cw[n..]);
        self.scratch = cw;

        // Apply the pinning rule at this read (and propagate until the
        // watcher's fixpoint).
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.clear();
        dirty.push(seq);
        while let Some(rs) = dirty.pop() {
            if !matches!(self.phase, Phase::Running) {
                break;
            }
            self.apply_rule(q, rs, &mut dirty, op);
        }
        self.dirty = dirty;
    }

    /// Watcher-specific edge write → node with immediate join.
    fn add_write_succ_of(&mut self, i: u32, s: u32, g: u32, dst: NodeRef) {
        let Some(w) = self.write_mut(s, g) else {
            return;
        };
        w.succ_of.push((i, dst));
        self.edges += 1;
        if self.seeded(i, s) {
            self.join_node(i, Row::W(s as usize), dst);
        }
    }

    /// The Co patterns for one read, against live lists plus the
    /// retired summaries.
    fn co_check(&self, v: u32, op: u64, src: ReadSrc, clock: &[u32]) -> Option<BadPattern> {
        let np = self.chains.len();
        match src {
            ReadSrc::Init => {
                let mut best: Option<u64> = None;
                for q in 0..np {
                    let cv = &self.vars[v as usize][q];
                    if let Some((c, wop)) = cv.first {
                        if c < clock[q] && best.is_none_or(|b| wop < b) {
                            best = Some(wop);
                        }
                    }
                }
                best.map(|write| BadPattern::WriteCoInitRead {
                    write: OpId(write),
                    read: OpId(op),
                })
            }
            ReadSrc::Write { slot, gen, .. } => {
                let w0 = self.write(slot, gen).expect("dictating write is live");
                let (q0, c0, w0op) = (w0.q as usize, w0.cpos, w0.op);
                let n = self.stride;
                let mut best: Option<u64> = None;
                for q in 0..np {
                    let cv = &self.vars[v as usize][q];
                    let hi = cv.active.partition_point(|&(c, _, _, _)| c < clock[q]);
                    // The first of them causally after the dictating write:
                    // lane `q0` of a chain's clocks never decreases along the
                    // chain. (Active entries are live writes: retirement
                    // removes an entry before it frees the slot.)
                    let lo = cv.active[..hi]
                        .partition_point(|&(_, _, s, _)| self.clock[s as usize * n + q0] <= c0);
                    if let Some(&(_, _, s, g)) = cv.active[lo..hi]
                        .iter()
                        .find(|&&(_, _, s, g)| (s, g) != (slot, gen))
                    {
                        let wop = self.write(s, g).expect("active writes are live").op;
                        if best.is_none_or(|b| wop < b) {
                            best = Some(wop);
                        }
                    }
                    // A retired write is causally before every future op;
                    // it qualifies whenever the dictating write precedes it.
                    if let Some(rl) = &cv.retired_last {
                        if rl.op != w0op
                            && Self::at(&rl.clock, q0) > c0
                            && best.is_none_or(|b| rl.op < b)
                        {
                            best = Some(rl.op);
                        }
                    }
                }
                best.map(|interposed| BadPattern::WriteCoRead {
                    write: OpId(w0op),
                    interposed: OpId(interposed),
                    read: OpId(op),
                })
            }
        }
    }

    /// The saturation rule for read `seq` of watcher `i`, exactly the
    /// offline loop body: per chain, only the hb-latest same-variable
    /// write matters.
    fn apply_rule(&mut self, i: u32, seq: u64, dirty: &mut Vec<u64>, at_op: u64) {
        let np = self.chains.len();
        let n = self.stride;
        // The read stays in the window while its rule runs (only a new
        // read evicts); its clock may grow between chains.
        let Some(r) = self.read(i, seq) else { return };
        let (v, rop, rrow) = (r.var, r.op, r.row as usize * n);
        // The dictating write, in α_i coordinates. Once it has retired
        // (an older read re-run by propagation), no pin can apply.
        let w1 = match r.src {
            ReadSrc::Init => None,
            ReadSrc::Write { slot, gen } => match self.write(slot, gen) {
                Some(w) => Some((slot, gen, w.q, Self::apos(i, w.q, w.cpos, w.widx), w.op)),
                None => return,
            },
        };
        for q in 0..np as u32 {
            let w = self.watchers[i as usize].as_ref().expect("watcher exists");
            let rhvc_q = w.rhb[rrow + q as usize];
            let cv = &self.vars[v as usize][q as usize];
            let hi = cv
                .active
                .partition_point(|&(c, w, _, _)| Self::apos(i, q, c, w) < rhvc_q);
            let Some(&(c2, w2x, s2, g2)) = cv.active[..hi].last() else {
                continue;
            };
            let apos2 = Self::apos(i, q, c2, w2x);
            // Active entries are live writes; their op is read only to
            // name a violation.
            let w2op = |mon: &Self| mon.write(s2, g2).expect("active writes are live").op;
            let Some((s1, g1, q1, apos1, w1op)) = w1 else {
                self.fire(
                    BadPattern::WriteHbInitRead {
                        write: OpId(w2op(self)),
                        read: OpId(rop),
                    },
                    at_op,
                );
                return;
            };
            if (s1, g1) == (s2, g2) {
                continue;
            }
            debug_assert!(self.seeded(i, s1) && self.seeded(i, s2), "watcher seeded");
            if w.hb[s1 as usize * n + q as usize] > apos2 {
                continue; // w2 already hb-before w1
            }
            if w.hb[s2 as usize * n + q1 as usize] > apos1 {
                self.fire(
                    BadPattern::WriteHbRead {
                        write: OpId(w1op),
                        interposed: OpId(w2op(self)),
                        read: OpId(rop),
                    },
                    at_op,
                );
                return;
            }
            // Pin: w2 hb_i w1. Add the edge, fold, propagate.
            if let Some(w2m) = self.write_mut(s2, g2) {
                w2m.succ_of.push((i, NodeRef::W(s1, g1)));
                self.edges += 1;
            }
            if self.join_node(i, Row::W(s2 as usize), NodeRef::W(s1, g1)) {
                if self.cycle_at(i, NodeRef::W(s1, g1)) {
                    self.fire_cyclic(i, at_op);
                    return;
                }
                self.propagate(i, NodeRef::W(s1, g1), dirty, at_op);
                if !matches!(self.phase, Phase::Running) {
                    return;
                }
                // Our own clock may have grown; re-run this read.
                dirty.push(seq);
            }
        }
    }

    /// Pushes a grown clock through the watcher's edges to the fixpoint.
    ///
    /// One loop over split borrows: the write arena is read while watcher
    /// `i`'s tables are joined into, so each node is looked up once per
    /// visit and no successor list is copied.
    fn propagate(&mut self, i: u32, from: NodeRef, dirty: &mut Vec<u64>, at_op: u64) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.push(from);
        let n = self.stride;
        let slots = &self.slots;
        let Watcher {
            reads,
            dropped,
            hb,
            seeded,
            rhb,
        } = self.watchers[i as usize].as_mut().expect("watcher exists");
        let dropped = *dropped;
        // A write's state, if it is live and seeded in this view.
        let write = |s: u32, g: u32| {
            let slot = &slots[s as usize];
            slot.st.as_ref().filter(|_| slot.gen == g && bit(seeded, s))
        };
        let read = |seq: u64| {
            seq.checked_sub(dropped)
                .and_then(|ix| reads.get(ix as usize))
        };
        let mut cyclic = false;
        'pop: while let Some(u) = stack.pop() {
            let (src, all, of): (Row, &[NodeRef], &[(u32, NodeRef)]) = match u {
                NodeRef::W(s, g) => {
                    let Some(w) = write(s, g) else { continue };
                    (Row::W(s as usize), &w.succ_all, &w.succ_of)
                }
                NodeRef::R(_, seq) => {
                    let Some(r) = read(seq) else { continue };
                    (Row::R(r.row as usize), &r.succ, &[])
                }
            };
            let mine = of.iter().filter(|(wi, _)| *wi == i).map(|&(_, t)| t);
            for t in all.iter().copied().chain(mine) {
                // The successor's row, and the bound its own lane may not
                // pass (the hb cycle test).
                let (dst, lane, bound) = match t {
                    NodeRef::W(s, g) => {
                        let Some(w) = write(s, g) else { continue };
                        let own = Self::apos(i, w.q, w.cpos, w.widx) + 1;
                        (Row::W(s as usize), w.q as usize, own)
                    }
                    NodeRef::R(ri, seq) => {
                        debug_assert_eq!(ri, i);
                        let Some(r) = read(seq) else { continue };
                        (Row::R(r.row as usize), ri as usize, r.cpos + 1)
                    }
                };
                if join_in(hb, rhb, n, src, dst) {
                    let own = match dst {
                        Row::W(b) => hb[b * n + lane],
                        Row::R(b) => rhb[b * n + lane],
                    };
                    if own > bound {
                        cyclic = true;
                        break 'pop;
                    }
                    if let NodeRef::R(_, seq) = t {
                        dirty.push(seq);
                    }
                    stack.push(t);
                }
            }
        }
        self.stack = stack;
        if cyclic {
            self.fire_cyclic(i, at_op);
        }
    }

    /// `true` if watcher `i`'s clock of `n` exceeds `n`'s own position —
    /// the hb cycle test.
    fn cycle_at(&self, i: u32, n: NodeRef) -> bool {
        let stride = self.stride;
        match n {
            NodeRef::W(s, g) => {
                let Some(w) = self.write(s, g) else {
                    return false;
                };
                if !self.seeded(i, s) {
                    return false;
                }
                let hb = &self.watchers[i as usize].as_ref().expect("seeded").hb;
                hb[s as usize * stride + w.q as usize] > Self::apos(i, w.q, w.cpos, w.widx) + 1
            }
            NodeRef::R(ri, seq) => {
                let Some(r) = self.read(ri, seq) else {
                    return false;
                };
                let rhb = &self.watchers[ri as usize].as_ref().expect("read").rhb;
                rhb[r.row as usize * stride + ri as usize] > r.cpos + 1
            }
        }
    }

    // ---- read-window access --------------------------------------------

    fn read(&self, i: u32, seq: u64) -> Option<&ReadNode> {
        let w = self.watchers[i as usize].as_ref()?;
        let ix = seq.checked_sub(w.dropped)?;
        w.reads.get(ix as usize)
    }

    fn read_mut(&mut self, i: u32, seq: u64) -> Option<&mut ReadNode> {
        let w = self.watchers[i as usize].as_mut()?;
        let ix = seq.checked_sub(w.dropped)?;
        w.reads.get_mut(ix as usize)
    }

    // ---- retirement ----------------------------------------------------

    /// Retires writes dominated by every chain's frontier *and* shadowed
    /// by a later dominated same-(var, chain) write.
    fn sweep(&mut self) {
        if !self.declared {
            return;
        }
        let np = self.chains.len();
        let n = self.stride;
        let mut min = std::mem::take(&mut self.scratch);
        min.clear();
        min.extend((0..np).map(|j| (0..np).map(|c| self.frontier[c * n + j]).min().unwrap_or(0)));
        for v in 0..self.vars.len() {
            for q in 0..np {
                loop {
                    let cv = &self.vars[v][q];
                    if cv.active.len() < 2 {
                        break;
                    }
                    let (_, _, s1, g1) = cv.active[1];
                    let (_, _, s0, g0) = cv.active[0];
                    let shadow_ok = self.write(s1, g1).is_some() && self.dominated(s1, &min);
                    let front_ok = self
                        .write(s0, g0)
                        .is_some_and(|w| w.pins == 0 && self.dominated(s0, &min));
                    if !(shadow_ok && front_ok) {
                        break;
                    }
                    self.retire(v as u32, q as u32);
                }
            }
        }
        self.scratch = min;
    }

    /// `true` if the causal clock of slot `s` is below `min` on every lane.
    fn dominated(&self, s: u32, min: &[u32]) -> bool {
        let n = self.stride;
        self.clock[s as usize * n..][..min.len()]
            .iter()
            .zip(min)
            .all(|(c, m)| c <= m)
    }

    fn retire(&mut self, v: u32, q: u32) {
        let (_, _, s, g) = self.vars[v as usize][q as usize].active.remove(0);
        let slot = &mut self.slots[s as usize];
        debug_assert_eq!(slot.gen, g);
        let st = slot.st.take().expect("retiring a live write");
        slot.gen += 1;
        self.free.push(s);
        self.active_writes -= 1;
        self.retired += 1;
        let (word, bit) = (s as usize / 64, 1u64 << (s % 64));
        for w in self.watchers.iter_mut().flatten() {
            if w.seeded[word] & bit != 0 {
                w.seeded[word] &= !bit;
                self.hvc_vecs -= 1;
            }
        }
        self.edges -= (st.succ_all.len() + st.succ_of.len()) as u64;
        if let Some(e) = self.ledger.get_mut(&st.update) {
            e.slot = None;
        }
        let n = self.stride;
        let rl = self.vars[v as usize][q as usize]
            .retired_last
            .get_or_insert_with(RetiredWrite::default);
        rl.cpos = st.cpos;
        rl.op = st.op;
        rl.clock.clear();
        rl.clock
            .extend_from_slice(&self.clock[s as usize * n..][..n]);
    }

    /// Updates the state-size metrics after each observed op.
    fn note_state(&mut self) {
        let np = self.chains.len() as u64;
        let bytes = self.active_writes * (8 * np + 64)
            + self.hvc_vecs * 4 * np
            + self.read_nodes * (4 * np + 48)
            + self.edges * 12
            + self.stalled_ops * 32
            + np * np * 8;
        self.peak_state_bytes = self.peak_state_bytes.max(bytes);
        self.metrics
            .set_gauge_id(self.ids.frontier_size, self.active_writes as f64);
        self.metrics
            .gauge_max_id(self.ids.peak_state_bytes, bytes as f64);
    }

    // AUDIT:HOT-END

    // ---- growth (cold path) --------------------------------------------

    /// A process seen for the first time: a new chain, a new lane in
    /// every clock (the tables re-stride when the rows are full).
    #[cold]
    fn new_chain(&mut self, p: ProcId) -> u32 {
        if self.declared && self.retired > 0 {
            // Retirement decisions assumed full membership; a process
            // outside it invalidates them. Degrade rather than guess.
            self.phase = Phase::Unknown;
        }
        let q = self.chains.len() as u32;
        if self.chains.len() == self.stride {
            self.restride((2 * self.stride).max(1));
        }
        self.chain_ix.insert(p, q);
        self.chains.push(ChainState {
            proc: p,
            len: 0,
            widx: 0,
            last_write: None,
            last_own: None,
            pending_shortcut: Vec::new(),
            stalled: VecDeque::new(),
        });
        let n = self.stride;
        self.frontier.resize(self.frontier.len() + n, 0);
        self.wfrontier.resize(self.wfrontier.len() + n, 0);
        self.watchers.push(None);
        for per_var in &mut self.vars {
            per_var.push(ChainVar::default());
        }
        q
    }

    /// Re-lays every clock table at `stride` lanes per row; the new
    /// lanes are zero, as a clock's missing lanes always were.
    #[cold]
    fn restride(&mut self, stride: usize) {
        let old = self.stride;
        let widen = |t: &mut Vec<u32>| {
            if old == 0 {
                debug_assert!(t.is_empty());
                return;
            }
            let mut wide = vec![0; t.len() / old * stride];
            for (row, lanes) in wide.chunks_exact_mut(stride).zip(t.chunks_exact(old)) {
                row[..old].copy_from_slice(lanes);
            }
            *t = wide;
        };
        for t in [
            &mut self.clock,
            &mut self.wclock,
            &mut self.frontier,
            &mut self.wfrontier,
        ] {
            widen(t);
        }
        for w in self.watchers.iter_mut().flatten() {
            widen(&mut w.hb);
            widen(&mut w.rhb);
        }
        self.stride = stride;
    }

    #[cold]
    fn new_var(&mut self, var: VarId) -> u32 {
        let v = self.vars.len() as u32;
        self.var_ix.insert(var, v);
        self.vars.push(
            (0..self.chains.len())
                .map(|_| ChainVar::default())
                .collect(),
        );
        v
    }

    /// First read of process `i`: allocate its view and seed hb clocks
    /// for every live write from the causal projections (exact — before
    /// a first read, hb_i has no saturation surplus).
    #[cold]
    fn create_watcher(&mut self, i: u32) {
        let rows = self.slots.len();
        self.watchers[i as usize] = Some(Watcher {
            reads: VecDeque::new(),
            dropped: 0,
            hb: vec![0; rows * self.stride],
            seeded: vec![0; rows.div_ceil(64)],
            rhb: Vec::new(),
        });
        for s in 0..rows {
            if self.slots[s].st.is_some() {
                self.seed_write(i, s as u32);
                self.hvc_vecs += 1;
            }
        }
    }

    // ---- violations (cold path) ----------------------------------------

    /// A read returned a retired write: the retirement shadow is the
    /// interposed witness of a guaranteed stale read.
    #[cold]
    fn fire_retired_read(&mut self, _q: u32, v: u32, op: u64, key: u64) {
        let e = &self.ledger[&key];
        let (q0, c0, w0op) = (e.q, e.cpos, e.op);
        let cv = &self.vars[v as usize][q0 as usize];
        let interposed = match &cv.retired_last {
            Some(rl) if rl.op != w0op && rl.cpos > c0 => rl.op,
            _ => cv
                .active
                .first()
                .and_then(|&(_, _, s, g)| self.write(s, g))
                .map(|w| w.op)
                .expect("retirement shadow exists"),
        };
        self.fire(
            BadPattern::WriteCoRead {
                write: OpId(w0op),
                interposed: OpId(interposed),
                read: OpId(op),
            },
            op,
        );
    }

    #[cold]
    fn fire_cyclic(&mut self, i: u32, at_op: u64) {
        let proc = self.chains[i as usize].proc;
        self.fire(BadPattern::CyclicHb { proc }, at_op);
    }

    #[cold]
    fn fire(&mut self, pattern: BadPattern, op_index: u64) {
        self.phase = Phase::Fired;
        self.metrics.inc_id(self.ids.violations);
        let broken_edge = self.describe_edge(&pattern);
        let updates = self.updates_of(&pattern);
        let narrative = self.narrative_for(&updates);
        self.violation = Some(MonitorViolation {
            op_index,
            pattern,
            broken_edge,
            narrative,
            updates,
        });
    }

    fn describe_edge(&self, pattern: &BadPattern) -> String {
        match pattern {
            BadPattern::ThinAirRead { read } => {
                format!("{read} has no writes-into source: value written nowhere")
            }
            BadPattern::CyclicCausalOrder => {
                "program order ∪ writes-into closes a cycle".to_string()
            }
            BadPattern::WriteCoInitRead { write, read } => {
                format!("{write} →→ {read}: initial value read after a causally earlier write")
            }
            BadPattern::WriteCoRead {
                write,
                interposed,
                read,
            } => format!("{write} →→ {interposed} →→ {read}: dictating write causally overwritten"),
            BadPattern::WriteHbRead {
                write,
                interposed,
                read,
            } => format!("{interposed} hb {write} forced by {read} closes a happens-before cycle"),
            BadPattern::WriteHbInitRead { write, read } => {
                format!("{write} hb {read}: initial value read after a write in hb")
            }
            BadPattern::CyclicHb { proc } => {
                format!("saturated happens-before of {proc} is cyclic")
            }
        }
    }

    /// Updates involved in a pattern, resolved from live state.
    fn updates_of(&self, pattern: &BadPattern) -> Vec<UpdateId> {
        let of_op = |op: &OpId| -> Option<UpdateId> {
            self.ledger
                .iter()
                .find(|(_, e)| e.op == op.0)
                .map(|(&k, _)| UpdateId(k))
        };
        let mut out = Vec::new();
        let ops: Vec<&OpId> = match pattern {
            BadPattern::WriteCoInitRead { write, .. }
            | BadPattern::WriteHbInitRead { write, .. } => {
                vec![write]
            }
            BadPattern::WriteCoRead {
                write, interposed, ..
            }
            | BadPattern::WriteHbRead {
                write, interposed, ..
            } => vec![write, interposed],
            _ => Vec::new(),
        };
        for op in ops {
            if let Some(u) = of_op(op) {
                out.push(u);
            }
        }
        out
    }

    fn narrative_for(&self, updates: &[UpdateId]) -> String {
        let Some(ring) = &self.evidence else {
            return String::new();
        };
        use std::fmt::Write as _;
        let mut out = String::new();
        if ring.dropped() > 0 {
            let _ = writeln!(out, "(evidence ring dropped {} events)", ring.dropped());
        }
        for ev in ring.iter() {
            if updates.contains(&ev.update) {
                let _ = writeln!(
                    out,
                    "t={:>12}ns  S{}.p{}  hop {}  {}",
                    ev.at_ns, ev.system, ev.proc, ev.hop, ev.stage
                );
            }
        }
        out
    }

    // ---- finalize ------------------------------------------------------

    /// Ends the stream: classifies leftover stalls, freezes metrics and
    /// returns the report. Further `observe` calls are ignored.
    pub fn finalize(&mut self) -> MonitorReport {
        if matches!(self.phase, Phase::Running) && self.stalled_ops > 0 {
            self.classify_stalls();
        }
        let verdict = match &self.phase {
            Phase::Unknown => CausalVerdict::Unknown,
            Phase::Fired => {
                let v = self.violation.as_ref().expect("fired");
                let proc = match &v.pattern {
                    BadPattern::WriteHbRead { .. } | BadPattern::WriteHbInitRead { .. } => None,
                    BadPattern::CyclicHb { proc } => Some(*proc),
                    _ => None,
                };
                CausalVerdict::NotCausal(CausalViolation {
                    proc,
                    detail: format!("online monitor: {}", v.pattern),
                })
            }
            Phase::Running => CausalVerdict::Causal,
        };
        let reads_evicted: u64 = self.watchers.iter().flatten().map(|w| w.dropped).sum();
        let evidence_dropped = self.evidence.as_ref().map(RingBuffer::dropped).unwrap_or(0);
        MonitorReport {
            verdict,
            violation: self.violation.clone(),
            ops_checked: self.ops_checked,
            ops_seen: self.arrival,
            peak_frontier: self.peak_frontier,
            peak_state_bytes: self.peak_state_bytes,
            retired: self.retired,
            reads_evicted,
            evidence_dropped,
            metrics: self.metrics.clone(),
        }
    }

    /// Stalls left at end of stream: a queued read of a value written
    /// nowhere (neither processed nor buffered) is a thin-air read; if
    /// every awaited value is buffered the wait-for loop is a causal
    /// cycle — the same order the offline checker reports.
    #[cold]
    fn classify_stalls(&mut self) {
        let mut buffered: Vec<u64> = Vec::new();
        for ch in &self.chains {
            for p in &ch.stalled {
                if let OpKind::Write { value } = p.kind {
                    buffered.push(update_key(value));
                }
            }
        }
        let mut thin_air: Option<u64> = None;
        for ch in &self.chains {
            for p in &ch.stalled {
                if let OpKind::Read { value: Some(v) } = p.kind {
                    let k = update_key(v);
                    if !self.ledger.contains_key(&k) && !buffered.contains(&k) {
                        thin_air = Some(thin_air.map_or(p.op, |t: u64| t.min(p.op)));
                    }
                }
            }
        }
        let at = self.arrival.saturating_sub(1);
        match thin_air {
            Some(read) => self.fire(BadPattern::ThinAirRead { read: OpId(read) }, at),
            None => self.fire(BadPattern::CyclicCausalOrder, at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmi_types::{SimTime, SystemId};

    fn p(i: u16) -> ProcId {
        ProcId::new(SystemId(0), i)
    }

    fn w(h: &mut History, proc: ProcId, var: u32, val: Value, at: u64) {
        h.record(OpRecord::write(
            proc,
            VarId(var),
            val,
            SimTime::from_nanos(at),
        ));
    }

    fn r(h: &mut History, proc: ProcId, var: u32, val: Option<Value>, at: u64) {
        h.record(OpRecord::read(
            proc,
            VarId(var),
            val,
            SimTime::from_nanos(at),
        ));
    }

    fn check(h: &History) -> MonitorReport {
        OnlineMonitor::check_history(h, MonitorConfig::default())
    }

    #[test]
    fn empty_stream_is_causal() {
        let rep = check(&History::new());
        assert!(rep.is_clean());
        assert_eq!(rep.ops_checked, 0);
    }

    #[test]
    fn simple_propagation_is_causal() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        w(&mut h, p(0), 0, v, 1);
        r(&mut h, p(1), 0, Some(v), 2);
        let rep = check(&h);
        assert!(rep.is_clean(), "{:?}", rep.violation);
        assert_eq!(rep.ops_checked, 2);
    }

    #[test]
    fn thin_air_read_is_named_at_finalize() {
        let mut h = History::new();
        r(&mut h, p(0), 0, Some(Value::new(p(9), 9)), 1);
        let rep = check(&h);
        assert_eq!(
            rep.violation.as_ref().map(|v| &v.pattern),
            Some(&BadPattern::ThinAirRead { read: OpId(0) })
        );
    }

    #[test]
    fn read_before_cross_chain_write_stays_causal() {
        // Arrival order is not causal order: the read arrives first,
        // stalls its chain, and drains when the write shows up.
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        r(&mut h, p(1), 0, Some(v), 1);
        w(&mut h, p(0), 0, v, 2);
        let rep = check(&h);
        assert!(rep.is_clean(), "{:?}", rep.violation);
        assert_eq!(rep.ops_checked, 2);
    }

    #[test]
    fn section3_counterexample_fires_at_the_exact_op() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        let u = Value::new(p(1), 1);
        w(&mut h, p(0), 0, v, 1);
        r(&mut h, p(1), 0, Some(v), 2);
        w(&mut h, p(1), 0, u, 3);
        r(&mut h, p(2), 0, Some(u), 4);
        r(&mut h, p(2), 0, Some(v), 5);
        let rep = check(&h);
        let viol = rep.violation.expect("violation");
        assert_eq!(viol.op_index, 4, "fires at the offending read");
        assert_eq!(
            viol.pattern,
            BadPattern::WriteCoRead {
                write: OpId(0),
                interposed: OpId(2),
                read: OpId(4),
            },
            "same instance the offline fast path reports"
        );
        assert!(!viol.broken_edge.is_empty());
    }

    #[test]
    fn init_read_after_seen_write_is_a_write_co_init_read() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        w(&mut h, p(0), 0, v, 1);
        r(&mut h, p(1), 0, Some(v), 2);
        r(&mut h, p(1), 0, None, 3);
        let rep = check(&h);
        assert_eq!(
            rep.violation.map(|v| v.pattern),
            Some(BadPattern::WriteCoInitRead {
                write: OpId(0),
                read: OpId(2),
            })
        );
    }

    #[test]
    fn cm_separator_needs_the_saturation_rule() {
        // Screen-clean, caught only by hb saturation (wio's separator).
        let mut h = History::new();
        let v1 = Value::new(p(0), 1);
        let v2 = Value::new(p(1), 1);
        w(&mut h, p(0), 0, v1, 1);
        w(&mut h, p(1), 0, v2, 1);
        r(&mut h, p(1), 0, Some(v1), 2);
        r(&mut h, p(1), 0, Some(v2), 3);
        assert!(crate::screen::screen(&h).is_clean());
        let rep = check(&h);
        assert!(!rep.verdict.is_causal());
        assert!(matches!(
            rep.violation.map(|v| v.pattern),
            Some(BadPattern::WriteHbRead { .. } | BadPattern::CyclicHb { .. })
        ));
    }

    #[test]
    fn concurrent_writes_read_in_different_orders_stay_causal() {
        let mut h = History::new();
        let a = Value::new(p(0), 1);
        let b = Value::new(p(1), 1);
        w(&mut h, p(0), 0, a, 1);
        w(&mut h, p(1), 0, b, 1);
        r(&mut h, p(2), 0, Some(a), 2);
        r(&mut h, p(2), 0, Some(b), 3);
        r(&mut h, p(3), 0, Some(b), 2);
        r(&mut h, p(3), 0, Some(a), 3);
        let rep = check(&h);
        assert!(rep.is_clean(), "{:?}", rep.violation);
    }

    #[test]
    fn alternating_reads_of_concurrent_writes_violate() {
        let mut h = History::new();
        let a = Value::new(p(0), 1);
        let b = Value::new(p(1), 1);
        w(&mut h, p(0), 0, a, 1);
        w(&mut h, p(1), 0, b, 1);
        r(&mut h, p(2), 0, Some(a), 2);
        r(&mut h, p(2), 0, Some(b), 3);
        r(&mut h, p(2), 0, Some(a), 4);
        let rep = check(&h);
        assert!(!rep.verdict.is_causal());
        assert_eq!(rep.violation.expect("violation").op_index, 4);
    }

    #[test]
    fn program_order_cycle_is_detected() {
        // p0 reads v before writing it: the chain stalls on itself.
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        r(&mut h, p(0), 0, Some(v), 1);
        w(&mut h, p(0), 0, v, 2);
        let rep = check(&h);
        assert_eq!(
            rep.violation.map(|v| v.pattern),
            Some(BadPattern::CyclicCausalOrder)
        );
    }

    #[test]
    fn duplicate_write_value_degrades_to_unknown() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        w(&mut h, p(0), 0, v, 1);
        w(&mut h, p(1), 0, v, 2);
        let rep = check(&h);
        assert_eq!(rep.verdict, CausalVerdict::Unknown);
        assert!(rep.violation.is_none());
    }

    /// A ping-pong workload where every write becomes causally dominated
    /// almost immediately: retirement must keep the live frontier small
    /// and the verdict causal.
    #[test]
    fn retirement_bounds_the_frontier_on_a_friendly_workload() {
        let procs = vec![p(0), p(1)];
        let mut h = History::new();
        for k in 1..=400u32 {
            let v = Value::new(p(0), k);
            w(&mut h, p(0), 0, v, u64::from(2 * k));
            r(&mut h, p(1), 0, Some(v), u64::from(2 * k) + 1);
        }
        let mut cfg = MonitorConfig::bounded(procs);
        cfg.sweep_every = 16;
        let rep = OnlineMonitor::check_history(&h, cfg);
        assert!(rep.is_clean(), "{:?}", rep.violation);
        assert!(rep.retired > 300, "retired {}", rep.retired);
        assert!(
            rep.peak_frontier < 64,
            "frontier should stay bounded, got {}",
            rep.peak_frontier
        );
        // The offline fast path agrees the history is causal.
        assert!(crate::wio::analyze(&h).verdict.is_causal());
    }

    #[test]
    fn reading_a_retired_write_is_a_stale_read() {
        let procs = vec![p(0), p(1)];
        let mut h = History::new();
        for k in 1..=200u32 {
            let v = Value::new(p(0), k);
            w(&mut h, p(0), 0, v, u64::from(2 * k));
            r(&mut h, p(1), 0, Some(v), u64::from(2 * k) + 1);
        }
        // A read of the long-retired first value.
        r(&mut h, p(1), 0, Some(Value::new(p(0), 1)), 1000);
        let mut cfg = MonitorConfig::bounded(procs);
        cfg.sweep_every = 16;
        let rep = OnlineMonitor::check_history(&h, cfg);
        let viol = rep.violation.expect("stale read");
        assert_eq!(viol.op_index, 400);
        assert!(matches!(viol.pattern, BadPattern::WriteCoRead { .. }));
        // Offline agrees on the verdict.
        assert!(!crate::wio::analyze(&h).verdict.is_causal());
    }

    #[test]
    fn report_json_has_verdict_metrics_and_violation() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        let u = Value::new(p(1), 1);
        w(&mut h, p(0), 0, v, 1);
        r(&mut h, p(1), 0, Some(v), 2);
        w(&mut h, p(1), 0, u, 3);
        r(&mut h, p(2), 0, Some(u), 4);
        r(&mut h, p(2), 0, Some(v), 5);
        let rep = check(&h);
        let json = rep.to_json();
        assert_eq!(
            json.get("verdict").and_then(Json::as_str),
            Some("not-causal")
        );
        let viol = json.get("violation").expect("violation block");
        assert_eq!(viol.get("op_index").and_then(Json::as_u64), Some(4));
        assert!(viol.get("broken_edge").and_then(Json::as_str).is_some());
        let counters = json.get("metrics").and_then(|m| m.get("counters")).unwrap();
        assert_eq!(
            counters.get("monitor.violations").and_then(Json::as_u64),
            Some(1)
        );
        assert!(
            counters
                .get("monitor.ops_checked")
                .and_then(Json::as_u64)
                .unwrap()
                >= 4
        );
        assert!(!rep.summary().is_empty());
    }

    #[test]
    fn lineage_evidence_lands_in_the_narrative() {
        use cmi_obs::lineage::LineageRecorder;
        let mut mon = OnlineMonitor::new(MonitorConfig::default());
        let v = Value::new(p(0), 1);
        let u = Value::new(p(1), 1);
        let mut lin = LineageRecorder::new();
        lin.issued(UpdateId(update_key(v)), 10);
        lin.issued(UpdateId(update_key(u)), 30);
        for ev in lin.events() {
            mon.observe_lineage(ev);
        }
        let t = SimTime::from_nanos;
        for rec in [
            OpRecord::write(p(0), VarId(0), v, t(1)),
            OpRecord::read(p(1), VarId(0), Some(v), t(2)),
            OpRecord::write(p(1), VarId(0), u, t(3)),
            OpRecord::read(p(2), VarId(0), Some(u), t(4)),
            OpRecord::read(p(2), VarId(0), Some(v), t(5)),
        ] {
            mon.observe(&rec);
        }
        let rep = mon.finalize();
        let viol = rep.violation.expect("violation");
        assert_eq!(viol.updates.len(), 2);
        assert!(viol.narrative.contains("issued"), "{}", viol.narrative);
    }

    #[test]
    fn monitor_is_inert_after_the_first_violation() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        w(&mut h, p(0), 0, v, 1);
        r(&mut h, p(1), 0, Some(v), 2);
        r(&mut h, p(1), 0, None, 3); // violation here
        w(&mut h, p(0), 0, Value::new(p(0), 2), 4);
        r(&mut h, p(1), 0, Some(Value::new(p(0), 2)), 5);
        let rep = check(&h);
        assert_eq!(rep.violation.as_ref().expect("fired").op_index, 2);
        assert_eq!(rep.ops_seen, 5);
        assert_eq!(rep.ops_checked, 3, "checking stops at the violation");
    }
}
