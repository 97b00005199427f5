//! The exhaustive causal-consistency checker — Definitions 1–5 verbatim.
//!
//! A computation `α` is **causal** iff for every process `i` the
//! projection `α_i` (all writes plus `i`'s reads) has a **causal view**:
//! a permutation of `α_i` that is *legal* (every read returns the value
//! of the latest preceding write to its variable, Definition 1) and that
//! preserves the causal order `→→^{α}` (Definition 3).
//!
//! The checker searches for such a view per process with a backtracking
//! scheduler. Three properties of differentiated histories (the paper's
//! unique-write-values assumption) keep the search practical:
//!
//! * **greedy reads are complete** — if an unscheduled read is enabled
//!   and currently legal it can be scheduled immediately without losing
//!   solutions (once a variable's value is overwritten it can never
//!   return, so postponing the read can only hurt);
//! * **dead-state pruning** — a pending read of value `v` whose write is
//!   already scheduled but no longer the variable's latest write can
//!   never be satisfied, so the branch is abandoned;
//! * **memoization** — future feasibility depends only on the set of
//!   scheduled ops plus the latest-write-per-variable map, so revisited
//!   states are cut off.
//!
//! On success the checker returns the found views as machine-checkable
//! witnesses; `debug_assert`-level re-validation of witnesses is part of
//! the test-suite.
//!
//! [`check`] only falls back to this search for histories that re-write
//! a value; write-distinct histories are decided by the polynomial fast
//! path in [`crate::wio`] (see [`CheckEngine`]).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use cmi_types::{History, OpId, OpKind, ProcId, Value, VarId};

use crate::order::CausalOrder;
use crate::screen;

/// Outcome of a causal-consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalVerdict {
    /// Every process has a causal view (witnesses in the report).
    Causal,
    /// Some process provably has no causal view.
    NotCausal(CausalViolation),
    /// The search budget was exhausted before a conclusion.
    Unknown,
}

impl CausalVerdict {
    /// `true` only for a proven-causal verdict.
    pub fn is_causal(&self) -> bool {
        matches!(self, CausalVerdict::Causal)
    }
}

/// Evidence that a computation is not causal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalViolation {
    /// The process whose projection has no causal view (`None` when the
    /// violation is structural, e.g. a cyclic causal order or a thin-air
    /// read found by the screen).
    pub proc: Option<ProcId>,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for CausalViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.proc {
            Some(p) => write!(f, "no causal view for {p}: {}", self.detail),
            None => write!(f, "{}", self.detail),
        }
    }
}

/// Which decision procedure produced a [`CausalReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckEngine {
    /// The polynomial necessary-condition screen ([`crate::screen`])
    /// rejected the history before any search ran.
    Screen,
    /// The polynomial fast path ([`crate::wio`]) — definitive (never
    /// [`CausalVerdict::Unknown`]) on write-distinct histories.
    FastPath,
    /// The exhaustive Definitions 1–5 backtracking search.
    Exhaustive,
}

impl fmt::Display for CheckEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckEngine::Screen => write!(f, "screen"),
            CheckEngine::FastPath => write!(f, "fast-path"),
            CheckEngine::Exhaustive => write!(f, "exhaustive"),
        }
    }
}

/// Full result of a causal check, with per-process view witnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalReport {
    /// The verdict.
    pub verdict: CausalVerdict,
    /// For each process, a causal view of its projection (operation ids
    /// of the checked history, in view order). Populated only when the
    /// verdict is [`CausalVerdict::Causal`] *and* the deciding engine is
    /// [`CheckEngine::Exhaustive`] — the fast path proves causality
    /// without materializing views (use [`check_exhaustive`] when a
    /// witness is wanted).
    pub views: BTreeMap<ProcId, Vec<OpId>>,
    /// Search steps spent (backtracking steps for the exhaustive
    /// engine, deterministic propagation work units for the fast path).
    pub steps: u64,
    /// Which engine decided.
    pub engine: CheckEngine,
}

impl CausalReport {
    /// `true` only for a proven-causal verdict.
    pub fn is_causal(&self) -> bool {
        self.verdict.is_causal()
    }
}

/// Default backtracking budget (steps across all processes).
pub const DEFAULT_BUDGET: u64 = 20_000_000;

/// The default causal checker — the one the experiments use.
///
/// Write-distinct (differentiated) histories — every history the
/// simulator produces — go to the polynomial fast path
/// ([`crate::wio`]), which is definitive: it never returns
/// [`CausalVerdict::Unknown`] and needs no backtracking. Histories
/// that re-write a value (hand-crafted ablations) fall back to the
/// necessary-condition screen followed by the exhaustive search with
/// the default budget. [`CausalReport::engine`] records which engine
/// decided.
///
/// # Example
///
/// ```
/// use cmi_checker::{causal, litmus};
///
/// // Concurrent writes read in opposite orders: causal…
/// assert!(causal::check(&litmus::opposite_orders()).is_causal());
/// // …a reaction observed without its cause: not causal.
/// assert!(!causal::check(&litmus::causality_violation()).is_causal());
/// ```
pub fn check(history: &History) -> CausalReport {
    if history.validate_differentiated().is_ok() {
        return crate::wio::check(history);
    }
    if let Some(bad) = screen::screen(history).first_violation() {
        return CausalReport {
            verdict: CausalVerdict::NotCausal(CausalViolation {
                proc: None,
                detail: format!("screen: {bad}"),
            }),
            views: BTreeMap::new(),
            steps: 0,
            engine: CheckEngine::Screen,
        };
    }
    check_exhaustive_with_budget(history, DEFAULT_BUDGET)
}

/// Pure Definitions 1–5 search with the default budget.
pub fn check_exhaustive(history: &History) -> CausalReport {
    check_exhaustive_with_budget(history, DEFAULT_BUDGET)
}

/// Pure Definitions 1–5 search with an explicit step budget.
///
/// **Budget semantics:** `budget` bounds the *total* backtracking steps
/// spent across all per-process view searches — one shared pool, spent
/// in process order — unlike [`crate::cache::check_with_budget`], which
/// grants the full budget to each per-variable sub-check. A shared pool
/// is the right shape here because the per-process searches all walk
/// the same projection size and a single pathological process should
/// starve the whole check rather than silently absorb `procs × budget`
/// steps.
pub fn check_exhaustive_with_budget(history: &History, budget: u64) -> CausalReport {
    let co = CausalOrder::build(history);
    if co.is_cyclic() {
        return CausalReport {
            verdict: CausalVerdict::NotCausal(CausalViolation {
                proc: None,
                detail: "causal order contains a cycle".into(),
            }),
            views: BTreeMap::new(),
            steps: 0,
            engine: CheckEngine::Exhaustive,
        };
    }
    let mut views = BTreeMap::new();
    let mut steps_total = 0u64;
    for proc in history.procs() {
        let mut search = ViewSearch::new(history, &co, proc, budget.saturating_sub(steps_total));
        let result = search.run();
        steps_total += search.steps;
        match result {
            SearchResult::Found(view) => {
                views.insert(proc, view);
            }
            SearchResult::Impossible => {
                return CausalReport {
                    verdict: CausalVerdict::NotCausal(CausalViolation {
                        proc: Some(proc),
                        detail: format!(
                            "exhausted all legal schedules of the {}-op projection",
                            search.m
                        ),
                    }),
                    views: BTreeMap::new(),
                    steps: steps_total,
                    engine: CheckEngine::Exhaustive,
                };
            }
            SearchResult::Budget => {
                return CausalReport {
                    verdict: CausalVerdict::Unknown,
                    views: BTreeMap::new(),
                    steps: steps_total,
                    engine: CheckEngine::Exhaustive,
                };
            }
        }
    }
    CausalReport {
        verdict: CausalVerdict::Causal,
        views,
        steps: steps_total,
        engine: CheckEngine::Exhaustive,
    }
}

/// Validates that `view` really is a causal view of `proc`'s projection
/// of `history` (test / witness-audit helper): a permutation of the
/// projection, legal, and preserving `→→`.
pub fn validate_view(history: &History, proc: ProcId, view: &[OpId]) -> Result<(), String> {
    let proj = history.project_for(proc);
    let expected: HashSet<OpId> = proj.ops.iter().copied().collect();
    let got: HashSet<OpId> = view.iter().copied().collect();
    if expected != got || view.len() != proj.ops.len() {
        return Err("view is not a permutation of the projection".into());
    }
    // Legality sweep.
    let mut last: HashMap<VarId, Value> = HashMap::new();
    for &id in view {
        let op = history.op(id);
        match op.kind {
            OpKind::Write { value } => {
                last.insert(op.var, value);
            }
            OpKind::Read { value } => {
                if last.get(&op.var).copied() != value {
                    return Err(format!(
                        "illegal read {op} (replica held {:?})",
                        last.get(&op.var)
                    ));
                }
            }
        }
    }
    // Order preservation.
    let co = CausalOrder::build(history);
    let pos: HashMap<OpId, usize> = view.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    for &a in view {
        for &b in view {
            if co.precedes(a, b) && pos[&a] > pos[&b] {
                return Err(format!("view inverts causal order: {a} →→ {b}"));
            }
        }
    }
    Ok(())
}

pub(crate) enum SearchResult {
    Found(Vec<OpId>),
    Impossible,
    Budget,
}

/// Searches for a legal view of `proc`'s projection that preserves the
/// given precedence `order` (the causal order for causal memory, the
/// program order for PRAM). Returns the result and the steps spent.
/// Shared between the causal and PRAM checkers.
pub(crate) fn find_view_with_order(
    history: &History,
    order: &CausalOrder,
    proc: ProcId,
    budget: u64,
) -> (SearchResult, u64) {
    let mut search = ViewSearch::new(history, order, proc, budget);
    let result = search.run();
    (result, search.steps)
}

/// Backtracking search for a causal view of one projection.
struct ViewSearch<'a> {
    history: &'a History,
    /// Projection ops (ids into the full history), observation order.
    ops: Vec<OpId>,
    /// Inverted precedence adjacency: ops whose `unmet` count this op
    /// gates (the predecessor lists are folded into `unmet`/`succs` at
    /// construction).
    succs: Vec<Vec<usize>>,
    /// Variable compression.
    var_ix: HashMap<VarId, usize>,
    m: usize,
    budget: u64,
    steps: u64,
    // Mutable search state.
    scheduled: Vec<bool>,
    unmet: Vec<usize>,
    last_write: Vec<Option<Value>>,
    /// Writes scheduled per variable (dead-read pruning).
    writes_done: Vec<HashSet<Value>>,
    view: Vec<usize>,
    memo: HashSet<(Vec<u64>, Vec<Option<Value>>)>,
}

impl<'a> ViewSearch<'a> {
    fn new(history: &'a History, co: &CausalOrder, proc: ProcId, budget: u64) -> Self {
        let proj = history.project_for(proc);
        let ops = proj.ops;
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
        for (i, &a) in ops.iter().enumerate() {
            for (j, &b) in ops.iter().enumerate() {
                if i != j && co.precedes(b, a) {
                    preds[i].push(j);
                }
            }
        }
        let mut var_ix = HashMap::new();
        for &id in &ops {
            let var = history.op(id).var;
            let next = var_ix.len();
            var_ix.entry(var).or_insert(next);
        }
        let m = ops.len();
        let n_vars = var_ix.len();
        let unmet = preds.iter().map(|p| p.len()).collect();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (i, ps) in preds.iter().enumerate() {
            for &j in ps {
                succs[j].push(i);
            }
        }
        ViewSearch {
            history,
            ops,
            succs,
            var_ix,
            m,
            budget,
            steps: 0,
            scheduled: vec![false; m],
            unmet,
            last_write: vec![None; n_vars],
            writes_done: vec![HashSet::new(); n_vars],
            view: Vec::with_capacity(m),
            memo: HashSet::new(),
        }
    }

    fn run(&mut self) -> SearchResult {
        match self.dfs() {
            Dfs::Done => SearchResult::Found(self.view.iter().map(|&i| self.ops[i]).collect()),
            Dfs::Fail => SearchResult::Impossible,
            Dfs::Budget => SearchResult::Budget,
        }
    }

    fn enabled(&self, i: usize) -> bool {
        !self.scheduled[i] && self.unmet[i] == 0
    }

    fn var_of(&self, i: usize) -> usize {
        self.var_ix[&self.history.op(self.ops[i]).var]
    }

    fn schedule(&mut self, i: usize) {
        debug_assert!(self.enabled(i));
        self.scheduled[i] = true;
        self.view.push(i);
        // Decrement dependents.
        for k in 0..self.succs[i].len() {
            let j = self.succs[i][k];
            self.unmet[j] -= 1;
        }
        if let OpKind::Write { value } = self.history.op(self.ops[i]).kind {
            let v = self.var_of(i);
            self.last_write[v] = Some(value);
            self.writes_done[v].insert(value);
        }
    }

    fn unschedule(&mut self, i: usize, saved_last: Option<Value>) {
        debug_assert_eq!(self.view.last(), Some(&i));
        self.view.pop();
        self.scheduled[i] = false;
        for k in 0..self.succs[i].len() {
            let j = self.succs[i][k];
            self.unmet[j] += 1;
        }
        if let OpKind::Write { value } = self.history.op(self.ops[i]).kind {
            let v = self.var_of(i);
            self.writes_done[v].remove(&value);
            self.last_write[v] = saved_last;
        }
    }

    /// A read is *legal now* if the replica (latest scheduled write, or
    /// `⊥`) holds its value.
    fn read_legal(&self, i: usize) -> bool {
        let op = self.history.op(self.ops[i]);
        let OpKind::Read { value } = op.kind else {
            return false;
        };
        self.last_write[self.var_of(i)] == value
    }

    /// A pending read is *dead* if it can never become legal: its value
    /// was already scheduled and overwritten (values are never written
    /// twice), or it reads `⊥` but the variable was already written.
    fn read_dead(&self, i: usize) -> bool {
        let op = self.history.op(self.ops[i]);
        let OpKind::Read { value } = op.kind else {
            return false;
        };
        let v = self.var_of(i);
        match value {
            None => !self.writes_done[v].is_empty(),
            Some(val) => self.writes_done[v].contains(&val) && self.last_write[v] != Some(val),
        }
    }

    fn dfs(&mut self) -> Dfs {
        self.steps += 1;
        if self.steps > self.budget {
            return Dfs::Budget;
        }
        // Greedy read closure: schedule every enabled, currently legal
        // read (complete under differentiated histories).
        let mut greedy: Vec<usize> = Vec::new();
        loop {
            let mut progressed = false;
            for i in 0..self.m {
                if self.enabled(i)
                    && self.history.op(self.ops[i]).kind.is_read()
                    && self.read_legal(i)
                {
                    self.schedule(i);
                    greedy.push(i);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }

        let result = self.dfs_inner();

        if !matches!(result, Dfs::Done) {
            for &i in greedy.iter().rev() {
                self.unschedule(i, None); // reads never touch last_write
            }
        }
        result
    }

    fn dfs_inner(&mut self) -> Dfs {
        if self.view.len() == self.m {
            return Dfs::Done;
        }
        // Dead-read pruning.
        for i in 0..self.m {
            if !self.scheduled[i] && self.read_dead(i) {
                return Dfs::Fail;
            }
        }
        // Memoization on (scheduled set, replica state).
        let key = (self.pack_scheduled(), self.last_write.clone());
        if !self.memo.insert(key) {
            return Dfs::Fail;
        }
        // Branch on enabled writes (observation order as heuristic).
        let candidates: Vec<usize> = (0..self.m)
            .filter(|&i| self.enabled(i) && self.history.op(self.ops[i]).kind.is_write())
            .collect();
        if candidates.is_empty() {
            // No writes schedulable and reads are stuck.
            return Dfs::Fail;
        }
        for i in candidates {
            let saved = self.last_write[self.var_of(i)];
            self.schedule(i);
            match self.dfs() {
                Dfs::Done => return Dfs::Done,
                Dfs::Budget => {
                    self.unschedule(i, saved);
                    return Dfs::Budget;
                }
                Dfs::Fail => self.unschedule(i, saved),
            }
        }
        Dfs::Fail
    }

    fn pack_scheduled(&self) -> Vec<u64> {
        let mut words = vec![0u64; self.m.div_ceil(64)];
        for (i, &s) in self.scheduled.iter().enumerate() {
            if s {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        words
    }
}

enum Dfs {
    Done,
    Fail,
    Budget,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmi_types::{OpRecord, SimTime, SystemId};

    fn p(i: u16) -> ProcId {
        ProcId::new(SystemId(0), i)
    }

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn w(h: &mut History, proc: ProcId, var: u32, val: Value, at: u64) {
        h.record(OpRecord::write(proc, VarId(var), val, t(at)));
    }

    fn r(h: &mut History, proc: ProcId, var: u32, val: Option<Value>, at: u64) {
        h.record(OpRecord::read(proc, VarId(var), val, t(at)));
    }

    #[test]
    fn empty_history_is_causal() {
        let report = check(&History::new());
        assert!(report.is_causal());
    }

    #[test]
    fn simple_propagation_is_causal_with_witnesses() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        w(&mut h, p(0), 0, v, 1);
        r(&mut h, p(1), 0, Some(v), 2);
        // The default checker takes the fast path (no witnesses) …
        let report = check(&h);
        assert!(report.is_causal());
        assert_eq!(report.engine, CheckEngine::FastPath);
        assert!(report.views.is_empty());
        // … the exhaustive oracle materializes validating views.
        let report = check_exhaustive(&h);
        assert!(report.is_causal());
        assert_eq!(report.engine, CheckEngine::Exhaustive);
        assert_eq!(report.views.len(), h.procs().len());
        for (proc, view) in &report.views {
            validate_view(&h, *proc, view).expect("witness must validate");
        }
    }

    #[test]
    fn non_write_distinct_histories_fall_back_to_the_exhaustive_engine() {
        // The same value written twice to the same variable: the fast
        // path's write-distinctness precondition fails, so check() must
        // route to screen + exhaustive search.
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        w(&mut h, p(0), 0, v, 1);
        w(&mut h, p(1), 0, v, 2);
        r(&mut h, p(2), 0, Some(v), 3);
        assert!(h.validate_differentiated().is_err());
        let report = check(&h);
        assert!(report.is_causal());
        assert_eq!(report.engine, CheckEngine::Exhaustive);
    }

    /// Pins the shared-pool budget semantics documented on
    /// [`check_exhaustive_with_budget`]: the exact step total of a
    /// multi-process causal history suffices as a budget, one step less
    /// flips the verdict to `Unknown` (a per-process pool would pass).
    #[test]
    fn exhaustive_budget_is_shared_across_processes() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        let u = Value::new(p(1), 1);
        w(&mut h, p(0), 0, v, 1);
        r(&mut h, p(1), 0, Some(v), 2);
        w(&mut h, p(1), 1, u, 3);
        r(&mut h, p(0), 1, Some(u), 4);
        let full = check_exhaustive(&h);
        assert!(full.is_causal());
        assert!(full.steps > 1, "two non-trivial per-process searches");
        assert!(check_exhaustive_with_budget(&h, full.steps).is_causal());
        assert_eq!(
            check_exhaustive_with_budget(&h, full.steps - 1).verdict,
            CausalVerdict::Unknown,
            "the pool is shared: the last process's search runs out"
        );
    }

    /// The classic causal-memory example: concurrent writes may be seen
    /// in different orders by different processes.
    #[test]
    fn concurrent_writes_read_in_different_orders_is_causal() {
        let mut h = History::new();
        let a = Value::new(p(0), 1);
        let b = Value::new(p(1), 1);
        w(&mut h, p(0), 0, a, 1);
        w(&mut h, p(1), 0, b, 1);
        // p2 sees a then b; p3 sees b then a.
        r(&mut h, p(2), 0, Some(a), 2);
        r(&mut h, p(2), 0, Some(b), 3);
        r(&mut h, p(3), 0, Some(b), 2);
        r(&mut h, p(3), 0, Some(a), 3);
        let report = check(&h);
        assert!(report.is_causal(), "causal but famously not sequential");
    }

    /// The paper's Section 3 counterexample: if w(x)v →→ w(x)u, no
    /// process may read u and then v.
    #[test]
    fn section3_counterexample_is_not_causal() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        let u = Value::new(p(1), 1);
        w(&mut h, p(0), 0, v, 1); // w(x)v
        r(&mut h, p(1), 0, Some(v), 2); // r(x)v
        w(&mut h, p(1), 0, u, 3); // w(x)u — causally after w(x)v
                                  // Process 2 reads u then v: violates causality.
        r(&mut h, p(2), 0, Some(u), 4);
        r(&mut h, p(2), 0, Some(v), 5);
        let report = check(&h);
        assert!(!report.is_causal());
        match report.verdict {
            CausalVerdict::NotCausal(violation) => {
                assert!(violation.to_string().contains("S0.p2") || violation.proc.is_none());
            }
            other => panic!("expected NotCausal, got {other:?}"),
        }
    }

    #[test]
    fn program_order_violation_is_detected() {
        // p0 writes v1 then v2 to x; p1 reads v2 then v1.
        let mut h = History::new();
        let v1 = Value::new(p(0), 1);
        let v2 = Value::new(p(0), 2);
        w(&mut h, p(0), 0, v1, 1);
        w(&mut h, p(0), 0, v2, 2);
        r(&mut h, p(1), 0, Some(v2), 3);
        r(&mut h, p(1), 0, Some(v1), 4);
        assert!(!check(&h).is_causal());
        assert!(!check_exhaustive(&h).is_causal());
    }

    #[test]
    fn initial_read_after_seen_write_is_not_causal() {
        // p1 reads v then ⊥ from the same variable.
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        w(&mut h, p(0), 0, v, 1);
        r(&mut h, p(1), 0, Some(v), 2);
        r(&mut h, p(1), 0, None, 3);
        assert!(!check(&h).is_causal());
    }

    #[test]
    fn thin_air_read_is_not_causal() {
        let mut h = History::new();
        r(&mut h, p(0), 0, Some(Value::new(p(9), 9)), 1);
        assert!(!check(&h).is_causal());
        // The exhaustive path also rejects it (the read can never be
        // scheduled legally).
        assert!(!check_exhaustive(&h).is_causal());
    }

    #[test]
    fn reads_of_initial_values_are_causal() {
        let mut h = History::new();
        r(&mut h, p(0), 0, None, 1);
        r(&mut h, p(1), 1, None, 1);
        assert!(check(&h).is_causal());
    }

    /// Writes that are concurrent can be ordered differently in the
    /// views of different processes, but each single process's view must
    /// be self-consistent.
    #[test]
    fn alternating_reads_of_concurrent_writes_by_one_process_is_not_causal() {
        let mut h = History::new();
        let a = Value::new(p(0), 1);
        let b = Value::new(p(1), 1);
        w(&mut h, p(0), 0, a, 1);
        w(&mut h, p(1), 0, b, 1);
        // p2 reads a, b, a: needs w(a) < w(b) < w(a) in one view.
        r(&mut h, p(2), 0, Some(a), 2);
        r(&mut h, p(2), 0, Some(b), 3);
        r(&mut h, p(2), 0, Some(a), 4);
        assert!(!check(&h).is_causal());
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // Many concurrent writes to distinct vars with no reads: the
        // search is trivial, so use budget 0 to force Unknown.
        let mut h = History::new();
        w(&mut h, p(0), 0, Value::new(p(0), 1), 1);
        let report = check_exhaustive_with_budget(&h, 0);
        assert_eq!(report.verdict, CausalVerdict::Unknown);
    }

    #[test]
    fn validate_view_rejects_bad_witnesses() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        w(&mut h, p(0), 0, v, 1);
        r(&mut h, p(1), 0, Some(v), 2);
        // Missing ops.
        assert!(validate_view(&h, p(1), &[OpId(0)]).is_err());
        // Read before write is illegal.
        assert!(validate_view(&h, p(1), &[OpId(1), OpId(0)]).is_err());
        // Correct view passes.
        assert!(validate_view(&h, p(1), &[OpId(0), OpId(1)]).is_ok());
    }
}
