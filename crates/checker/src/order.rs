//! The causal order `→→` of Definition 2.
//!
//! `op →^{α} op'` holds if (1) both are operations of the same process
//! and `op` precedes `op'` in program order, or (2) `op = w(x)v` and
//! `op' = r(x)v` (writes-into). The causal order `→→^{α}` is the
//! transitive closure. This module holds its two representations:
//!
//! * [`CausalOrder`] materializes the closure as per-node reachability
//!   bitsets, computed in one reverse-topological sweep. It answers any
//!   pair and enumerates direct successors, which is what the
//!   exhaustive, screen, PRAM and session engines search over — and it
//!   costs `n²/8` bytes and `O(|edges|·n/64)` time, so it is for
//!   **litmus-sized** input: a few hundred operations. At the 19 200
//!   operations of one benchmark run it is 46 MB and a third of a
//!   second before the first query.
//! * `CausalClocks` keeps, per operation, one counter per process (how
//!   many of that process's operations are causally at-or-before it),
//!   from one Kahn pass: `O(n·p)` memory and time, `O(1)` precedence.
//!   Everything **simulator-sized** runs on it — the fast-path checker
//!   ([`crate::wio`]) and the workload metrics ([`crate::metrics`]).
//!
//! Either is always computed on the **full** computation before being
//! consulted for a projection: causality may flow through read
//! operations of processes that the projection removes (the paper's
//! causal views must preserve the order of the full `α^q`).

use std::collections::HashMap;

use cmi_types::{History, OpId, ProcId, ReadSource};

/// Dense bitset over operation indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Bits {
    words: Vec<u64>,
}

impl Bits {
    pub(crate) fn new(n: usize) -> Self {
        Bits {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub(crate) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    pub(crate) fn union_with(&mut self, other: &Bits) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// The materialized causal order of one computation.
#[derive(Debug, Clone)]
pub struct CausalOrder {
    n: usize,
    /// `reach[i]` = set of ops strictly causally after op `i`.
    reach: Vec<Bits>,
    /// Direct edges (program order + writes-into), for diagnostics.
    edges: Vec<Vec<usize>>,
    cyclic: bool,
}

impl CausalOrder {
    /// Builds `→→` for `history`.
    ///
    /// A cyclic order (impossible for simulator-produced computations,
    /// possible for hand-built adversarial ones) is reported through
    /// [`is_cyclic`](Self::is_cyclic); reachability is then only the
    /// partial closure and callers should treat the history as
    /// non-causal immediately.
    pub fn build(history: &History) -> Self {
        Self::build_with(history, true)
    }

    /// Builds the **program order only** (no writes-into edges): the
    /// precedence the PRAM (FIFO/pipelined-RAM) model constrains views
    /// with. Always acyclic.
    pub fn build_program_order(history: &History) -> Self {
        Self::build_with(history, false)
    }

    /// Builds the program order of **one process only** — the precedence
    /// of the session-guarantee (read-your-writes + monotonic-reads)
    /// checker: process `proc`'s view must interleave its own operations
    /// in issue order but owes nothing to anyone else's order.
    pub fn build_single_process_order(history: &History, proc: cmi_types::ProcId) -> Self {
        let n = history.len();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last: Option<usize> = None;
        for (i, r) in history.iter().enumerate() {
            if r.proc == proc {
                if let Some(prev) = last {
                    edges[prev].push(i);
                }
                last = Some(i);
            }
        }
        Self::from_edge_lists(n, edges)
    }

    /// Builds the closure of an explicit edge list (must be acyclic for
    /// full reachability; cycles are reported like in [`build`](Self::build)).
    fn from_edge_lists(n: usize, edges: Vec<Vec<usize>>) -> Self {
        let mut indegree = vec![0usize; n];
        for targets in &edges {
            for &t in targets {
                indegree[t] += 1;
            }
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(v) = stack.pop() {
            topo.push(v);
            for &w in &edges[v] {
                indegree[w] -= 1;
                if indegree[w] == 0 {
                    stack.push(w);
                }
            }
        }
        let cyclic = topo.len() != n;
        let mut reach = vec![Bits::new(n); n];
        for &v in topo.iter().rev() {
            let mut acc = Bits::new(n);
            for &w in &edges[v] {
                acc.set(w);
                acc.union_with(&reach[w]);
            }
            reach[v] = acc;
        }
        CausalOrder {
            n,
            reach,
            edges,
            cyclic,
        }
    }

    fn build_with(history: &History, with_writes_into: bool) -> Self {
        let n = history.len();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];

        // (1) Program order: chain each process's consecutive ops.
        let mut last_of: HashMap<_, usize> = HashMap::new();
        for (i, r) in history.iter().enumerate() {
            if let Some(&prev) = last_of.get(&r.proc) {
                edges[prev].push(i);
            }
            last_of.insert(r.proc, i);
        }

        // (2) Writes-into: w(x)v → r(x)v.
        if with_writes_into {
            for (i, src) in history.reads_from().iter().enumerate() {
                if let Some(ReadSource::Write(w)) = src {
                    edges[w.index()].push(i);
                }
            }
        }

        Self::from_edge_lists(n, edges)
    }

    /// Number of operations covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the order covers no operations.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `true` if `a →→ b` (strictly).
    pub fn precedes(&self, a: OpId, b: OpId) -> bool {
        self.reach[a.index()].get(b.index())
    }

    /// `true` if neither precedes the other.
    pub fn concurrent(&self, a: OpId, b: OpId) -> bool {
        a != b && !self.precedes(a, b) && !self.precedes(b, a)
    }

    /// Direct (non-transitive) successors of `a`.
    pub fn direct_successors(&self, a: OpId) -> impl Iterator<Item = OpId> + '_ {
        self.edges[a.index()].iter().map(|&i| OpId(i as u64))
    }

    /// `true` if the "order" contained a cycle (malformed history).
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }
}

/// `table[dst] ← table[dst] ⊔ table[src]` on a row-major table of
/// `np`-lane clocks; `true` if some lane of `dst` rose. `src == dst` is
/// a no-op.
///
/// The two rows are taken as disjoint slices so the loop carries no
/// bounds check and no store-dependent branch: it compiles to vector
/// `max` + an OR-ed comparison.
pub(crate) fn join_rows(table: &mut [u32], np: usize, src: usize, dst: usize) -> bool {
    if src == dst {
        return false;
    }
    let (from, into) = if src < dst {
        let (lo, hi) = table.split_at_mut(dst * np);
        (&lo[src * np..][..np], &mut hi[..np])
    } else {
        let (lo, hi) = table.split_at_mut(src * np);
        (&hi[..np], &mut lo[dst * np..][..np])
    };
    join_lanes(into, from)
}

/// `dst ⊔= src` lane by lane over two disjoint clocks; `true` if some
/// lane of `dst` rose. The one join loop of the crate: [`join_rows`]
/// hands it two rows of one table.
#[inline]
pub(crate) fn join_lanes(dst: &mut [u32], src: &[u32]) -> bool {
    let mut grew = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        grew |= *d < s;
        *d = (*d).max(s);
    }
    grew
}

/// `→→` as per-operation vector clocks over a dense process table.
///
/// Built by one Kahn pass over program-order + writes-into edges. With
/// `a` at position `k` of process `q`'s chain, `a →→ b` (or `a = b`)
/// iff `clock(b)[q] > k`.
#[derive(Debug)]
pub(crate) struct CausalClocks {
    /// Dense process table (`ProcId` order: deterministic).
    pub(crate) procs: Vec<ProcId>,
    /// `procs.len()`: lanes per clock.
    pub(crate) np: usize,
    /// Dense process index per op.
    pub(crate) pix: Vec<u32>,
    /// Position within the issuing process's full chain, per op.
    pub(crate) cpos: Vec<u32>,
    /// Per process, its ops in program order.
    pub(crate) chains: Vec<Vec<OpId>>,
    /// `vc[op·np + q]` = number of `q`'s ops causally at-or-before `op`.
    /// Final only for the ops in `topo`.
    pub(crate) vc: Vec<u32>,
    /// The order the pass finished ops in: a linear extension of `→→`.
    /// Ops on or behind a cycle never finish and are missing from it.
    pub(crate) topo: Vec<u32>,
    /// Deterministic work units the pass spent: one per finished op
    /// plus `np` per edge pushed along.
    pub(crate) work: u64,
}

impl CausalClocks {
    /// Builds the clocks of `history`; `reads_from` is
    /// `history.reads_from()`, resolved by the caller (who needs it
    /// too).
    pub(crate) fn build(history: &History, reads_from: &[Option<ReadSource>]) -> Self {
        let n = history.len();
        let (procs, chains): (Vec<ProcId>, Vec<Vec<OpId>>) =
            history.by_process().into_iter().unzip();
        let np = procs.len();
        let mut pix = vec![0u32; n];
        let mut cpos = vec![0u32; n];
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indeg = vec![0u32; n];
        for (q, chain) in chains.iter().enumerate() {
            for (k, &op) in chain.iter().enumerate() {
                pix[op.index()] = q as u32;
                cpos[op.index()] = k as u32;
            }
            for pair in chain.windows(2) {
                succ[pair[0].index()].push(pair[1].index() as u32);
                indeg[pair[1].index()] += 1;
            }
        }
        for (i, src) in reads_from.iter().enumerate() {
            if let Some(ReadSource::Write(w)) = src {
                succ[w.index()].push(i as u32);
                indeg[i] += 1;
            }
        }
        let mut vc = vec![0u32; n * np];
        let mut stack: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        let mut work = 0u64;
        while let Some(u) = stack.pop() {
            topo.push(u);
            let u = u as usize;
            // All predecessors have been folded in; stamp our own
            // component, then push the finished clock to successors.
            vc[u * np + pix[u] as usize] = cpos[u] + 1;
            work += 1 + (np * succ[u].len()) as u64;
            for &s in &succ[u] {
                join_rows(&mut vc, np, u, s as usize);
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    stack.push(s);
                }
            }
        }
        CausalClocks {
            procs,
            np,
            pix,
            cpos,
            chains,
            vc,
            topo,
            work,
        }
    }

    /// `true` if `→→` contained a cycle (malformed history).
    pub(crate) fn is_cyclic(&self) -> bool {
        self.topo.len() != self.pix.len()
    }

    /// The clock of `op`: one lane per entry of `procs`.
    pub(crate) fn clock(&self, op: usize) -> &[u32] {
        &self.vc[op * self.np..][..self.np]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmi_types::{OpRecord, ProcId, SimTime, SystemId, Value, VarId};

    fn p(i: u16) -> ProcId {
        ProcId::new(SystemId(0), i)
    }

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// The paper's Section 3 scenario: w0(x)v; r1(x)v; w1(y)u.
    fn chain_history() -> History {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        let u = Value::new(p(1), 1);
        h.record(OpRecord::write(p(0), VarId(0), v, t(1))); // op0
        h.record(OpRecord::read(p(1), VarId(0), Some(v), t(2))); // op1
        h.record(OpRecord::write(p(1), VarId(1), u, t(3))); // op2
        h
    }

    #[test]
    fn program_order_and_writes_into_are_direct_edges() {
        let co = CausalOrder::build(&chain_history());
        assert!(co.precedes(OpId(0), OpId(1)), "writes-into");
        assert!(co.precedes(OpId(1), OpId(2)), "program order");
        assert!(!co.precedes(OpId(1), OpId(0)));
        assert!(!co.is_cyclic());
        assert_eq!(co.len(), 3);
    }

    #[test]
    fn transitivity_closes_the_chain() {
        let co = CausalOrder::build(&chain_history());
        assert!(co.precedes(OpId(0), OpId(2)), "w(x)v →→ w(y)u transitively");
    }

    #[test]
    fn unrelated_ops_are_concurrent() {
        let mut h = History::new();
        h.record(OpRecord::write(p(0), VarId(0), Value::new(p(0), 1), t(1)));
        h.record(OpRecord::write(p(1), VarId(1), Value::new(p(1), 1), t(1)));
        let co = CausalOrder::build(&h);
        assert!(co.concurrent(OpId(0), OpId(1)));
        assert!(!co.concurrent(OpId(0), OpId(0)));
    }

    #[test]
    fn causality_flows_through_other_processes_reads() {
        // w0(x)v → r2(x)v → w2(y)u → r1(y)u: op0 →→ op3 even though the
        // intermediate ops belong to process 2.
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        let u = Value::new(p(2), 1);
        h.record(OpRecord::write(p(0), VarId(0), v, t(1)));
        h.record(OpRecord::read(p(2), VarId(0), Some(v), t(2)));
        h.record(OpRecord::write(p(2), VarId(1), u, t(3)));
        h.record(OpRecord::read(p(1), VarId(1), Some(u), t(4)));
        let co = CausalOrder::build(&h);
        assert!(co.precedes(OpId(0), OpId(3)));
    }

    #[test]
    fn thin_air_reads_create_no_edge() {
        let mut h = History::new();
        h.record(OpRecord::read(
            p(0),
            VarId(0),
            Some(Value::new(p(9), 9)),
            t(1),
        ));
        let co = CausalOrder::build(&h);
        assert_eq!(co.len(), 1);
        assert!(!co.is_cyclic());
    }

    #[test]
    fn direct_successors_enumerate_edges() {
        let co = CausalOrder::build(&chain_history());
        let succ: Vec<OpId> = co.direct_successors(OpId(0)).collect();
        assert_eq!(succ, vec![OpId(1)]);
    }

    #[test]
    fn empty_history_is_fine() {
        let co = CausalOrder::build(&History::new());
        assert!(co.is_empty());
        assert!(!co.is_cyclic());
    }

    #[test]
    fn bits_basic_ops() {
        let mut b = Bits::new(130);
        b.set(0);
        b.set(129);
        assert!(b.get(0));
        assert!(b.get(129));
        assert!(!b.get(64));
        let mut c = Bits::new(130);
        c.set(64);
        b.union_with(&c);
        assert!(b.get(64));
    }

    #[test]
    fn join_rows_takes_the_lane_wise_max_and_reports_growth() {
        let np = 3;
        let table = vec![1, 5, 2, /* row 1 */ 4, 0, 2, /* row 2 */ 0, 9, 9];

        // src == dst: nothing to do, nothing grew.
        let mut t = table.clone();
        assert!(!join_rows(&mut t, np, 1, 1));
        assert_eq!(t, table);

        // src < dst: one lane of row 1 rises, the others stay.
        let mut t = table.clone();
        assert!(join_rows(&mut t, np, 0, 1));
        assert_eq!(t, [1, 5, 2, 4, 5, 2, 0, 9, 9]);
        // A second join finds nothing left to raise.
        assert!(!join_rows(&mut t, np, 0, 1));

        // src > dst, and only the last lane rises.
        let mut t = table.clone();
        assert!(join_rows(&mut t, np, 2, 1));
        assert_eq!(t, [1, 5, 2, 4, 9, 9, 0, 9, 9]);
        let mut t = vec![3, 3, 1, 3, 3, 2];
        assert!(join_rows(&mut t, np, 1, 0));
        assert_eq!(t, [3, 3, 2, 3, 3, 2]);

        // dst already dominates src: no lane rises, in either position.
        let mut t = vec![7, 7, 7, 1, 2, 7];
        assert!(!join_rows(&mut t, np, 1, 0));
        let mut t = vec![1, 2, 7, 7, 7, 7];
        assert!(!join_rows(&mut t, np, 0, 1));
        assert_eq!(t, [1, 2, 7, 7, 7, 7]);
    }

    /// `a →→ b` read off the clocks.
    fn clock_precedes(c: &CausalClocks, a: usize, b: usize) -> bool {
        a != b && c.clock(b)[c.pix[a] as usize] > c.cpos[a]
    }

    #[test]
    fn clocks_answer_every_pair_like_the_closure() {
        // The cross-process chain above plus an unrelated writer.
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        let u = Value::new(p(2), 1);
        h.record(OpRecord::write(p(0), VarId(0), v, t(1)));
        h.record(OpRecord::read(p(2), VarId(0), Some(v), t(2)));
        h.record(OpRecord::write(p(2), VarId(1), u, t(3)));
        h.record(OpRecord::read(p(1), VarId(1), Some(u), t(4)));
        h.record(OpRecord::write(p(3), VarId(2), Value::new(p(3), 1), t(5)));
        let co = CausalOrder::build(&h);
        let clocks = CausalClocks::build(&h, &h.reads_from());
        assert!(!clocks.is_cyclic());
        assert_eq!(clocks.np, 4);
        // 5 ops + 4 lanes × (1 program-order + 2 writes-into edges).
        assert_eq!(clocks.work, 5 + 4 * 3);
        for a in 0..h.len() {
            for b in 0..h.len() {
                assert_eq!(
                    clock_precedes(&clocks, a, b),
                    co.precedes(OpId(a as u64), OpId(b as u64)),
                    "{a} →→ {b}"
                );
            }
        }
        // The finishing order is a linear extension of `→→`.
        let at = |op: usize| clocks.topo.iter().position(|&x| x as usize == op);
        assert!(at(0) < at(1) && at(1) < at(2) && at(2) < at(3));
    }

    #[test]
    fn clocks_report_a_cycle_and_finish_only_what_is_clear_of_it() {
        // p0 reads v before writing it; p1's write is clear of the cycle.
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        h.record(OpRecord::read(p(0), VarId(0), Some(v), t(1)));
        h.record(OpRecord::write(p(0), VarId(0), v, t(2)));
        h.record(OpRecord::write(p(1), VarId(1), Value::new(p(1), 1), t(3)));
        let clocks = CausalClocks::build(&h, &h.reads_from());
        assert!(clocks.is_cyclic());
        assert_eq!(clocks.topo, [2]);
        assert_eq!(clocks.work, 1);
    }
}
