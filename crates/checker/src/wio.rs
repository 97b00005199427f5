//! Polynomial fast-path causal checker over the writes-into order.
//!
//! The exhaustive checker ([`crate::causal`]) decides causal memory by
//! backtracking over per-process schedules — complete, but worst-case
//! exponential and capped by a step budget. For **write-distinct**
//! histories (the paper's differentiated-history assumption, which the
//! simulator guarantees by construction since every [`Value`] carries a
//! globally unique update id) causal memory admits a polynomial
//! characterization by *bad patterns* (Bouajjani, Enea, Guerraoui &
//! Hamza, *"On verifying causal consistency"*, POPL 2017): a history is
//! causal iff none of the following occur
//!
//! * [`BadPattern::ThinAirRead`], [`BadPattern::CyclicCausalOrder`],
//!   [`BadPattern::WriteCoInitRead`], [`BadPattern::WriteCoRead`] — the
//!   causal-consistency patterns over the causal order `→→` (program
//!   order ∪ writes-into, transitively closed);
//! * [`BadPattern::WriteHbRead`], [`BadPattern::WriteHbInitRead`],
//!   [`BadPattern::CyclicHb`] — the causal-*memory* patterns over the
//!   per-process **saturated happens-before** `hb_i`: the smallest
//!   transitive relation on the projection `α_i` containing
//!   `→→ ∩ (α_i × α_i)` and closed under *if read `r` of process `i`
//!   returns the value of `w₁` and another write `w₂` to the same
//!   variable is `hb_i`-before `r`, then `w₂` is `hb_i`-before `w₁`*
//!   (the read pins its dictating write as the latest one).
//!
//! # Implementation
//!
//! Everything is vector clocks — the `O(n²)` reachability bitsets of
//! [`crate::order::CausalOrder`] are never materialized, which is what
//! lets the fast path scale to 100k-op histories (X19):
//!
//! 1. one Kahn topological pass over program-order + writes-into edges
//!    (the clock builder of [`crate::order`], shared with
//!    [`crate::metrics`]) builds, per operation, the clock `vc[op][q]` =
//!    number of process `q`'s operations causally at-or-before `op` —
//!    `O(n·p)` memory, `O(1)` precedence queries, and a cycle check for
//!    free;
//! 2. the `Co` patterns reduce to binary searches of per-(variable,
//!    process) write lists against each read's clock;
//! 3. per process `i`, `hb_i` is saturated by monotone clock
//!    propagation over explicit edges (projection chains, writes-into
//!    edges into `i`'s reads, and shortcut edges through the removed
//!    reads of other processes); each saturation round only ever
//!    *grows* clocks bounded by chain lengths, so the fixpoint — and
//!    termination — is guaranteed, no backtracking anywhere. The
//!    projection `α_i` is all the writes plus `i`'s own reads, so its
//!    write half — node numbering, clock rows, chain and writes-into
//!    edges — is built once (`WriteSide`) and each process only patches
//!    in its own chain and reads.
//!
//! The result is definitive: [`check`] never returns
//! [`CausalVerdict::Unknown`]. Callers needing a schedule witness or a
//! non-write-distinct history checked use the exhaustive engine.

use std::collections::{BTreeMap, HashMap};

use cmi_types::{History, OpId, ReadSource, VarId};

use crate::causal::{CausalReport, CausalVerdict, CausalViolation, CheckEngine};
use crate::order::{join_rows, CausalClocks};
use crate::screen::BadPattern;

/// Outcome of the fast path: the verdict, the named bad pattern (for
/// [`crate::forensics::explain`]) and the deterministic work counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastOutcome {
    /// [`CausalVerdict::Causal`] or [`CausalVerdict::NotCausal`] —
    /// never [`CausalVerdict::Unknown`].
    pub verdict: CausalVerdict,
    /// The first bad pattern found, when the verdict is `NotCausal`.
    pub pattern: Option<BadPattern>,
    /// Deterministic propagation work units spent.
    pub steps: u64,
}

/// Runs the fast path and wraps the outcome as a [`CausalReport`]
/// (engine [`CheckEngine::FastPath`], no view witnesses).
///
/// The caller is responsible for write-distinctness
/// ([`History::validate_differentiated`]); on histories that re-write a
/// value the verdict is not meaningful. [`crate::causal::check`] guards
/// this and falls back to the exhaustive engine.
pub fn check(history: &History) -> CausalReport {
    let outcome = analyze(history);
    CausalReport {
        verdict: outcome.verdict,
        views: BTreeMap::new(),
        steps: outcome.steps,
        engine: CheckEngine::FastPath,
    }
}

/// Decides causal memory for a write-distinct history, returning the
/// first bad pattern found (scanning reads in operation order, like the
/// screen) or a causal verdict.
pub fn analyze(history: &History) -> FastOutcome {
    let reads_from = history.reads_from();
    // Thin-air reads make further causal reasoning moot.
    let thin_air = |src: &Option<ReadSource>| matches!(src, Some(ReadSource::ThinAir));
    if let Some(i) = reads_from.iter().position(thin_air) {
        let read = OpId(i as u64);
        return outcome(history, 0, Some(BadPattern::ThinAirRead { read }));
    }
    let clocks = CausalClocks::build(history, &reads_from);
    if clocks.is_cyclic() {
        return outcome(history, clocks.work, Some(BadPattern::CyclicCausalOrder));
    }
    Analysis::new(history, clocks, reads_from).run()
}

fn outcome(history: &History, steps: u64, pattern: Option<BadPattern>) -> FastOutcome {
    FastOutcome {
        verdict: match &pattern {
            None => CausalVerdict::Causal,
            Some(p) => CausalVerdict::NotCausal(violation_of(history, p)),
        },
        pattern,
        steps,
    }
}

fn violation_of(history: &History, pattern: &BadPattern) -> CausalViolation {
    let proc = match pattern {
        BadPattern::WriteHbRead { read, .. } | BadPattern::WriteHbInitRead { read, .. } => {
            Some(history.op(*read).proc)
        }
        BadPattern::CyclicHb { proc } => Some(*proc),
        _ => None,
    };
    CausalViolation {
        proc,
        detail: format!("fast path: {pattern}"),
    }
}

/// One write in its chain's [`Analysis::wvp`] list.
#[derive(Debug, Clone, Copy)]
struct ChainWrite {
    /// Position in the issuing process's full chain.
    cpos: u32,
    /// Position among the chain's writes — its chain position in every
    /// projection `α_i` but the issuing process's own.
    wpos: u32,
    op: OpId,
}

/// Working state shared by the analysis phases, over an acyclic `→→`
/// with no thin-air read.
struct Analysis<'a> {
    history: &'a History,
    /// Causal-order clocks and the dense process/chain tables they are
    /// indexed by.
    clocks: CausalClocks,
    /// Resolved read sources (`None` for writes).
    reads_from: Vec<Option<ReadSource>>,
    /// Dense variable index.
    var_ix: HashMap<VarId, usize>,
    /// The writes, in operation order. A write's index here is its node
    /// in every projection `α_i`.
    writes: Vec<OpId>,
    /// Per operation, its index in `writes` (unused for reads).
    wnode: Vec<u32>,
    /// Per (variable, process): the process's writes to that variable,
    /// in chain order (so sorted by `cpos`, `wpos` and `op`).
    wvp: Vec<Vec<Vec<ChainWrite>>>,
    steps: u64,
}

/// Marks a missing successor in [`WriteSide`]'s edge tables.
const NONE: u32 = u32::MAX;

/// The write half of the projections `α_i` (all the writes plus `i`'s
/// own reads), which is the same for every process `i`: built once per
/// [`Analysis`], patched per process by [`Analysis::saturate`].
struct WriteSide {
    /// Per chain `q`, `wpref[q][k]` = writes among `q`'s first `k` ops:
    /// maps full-chain counts to `α_i`-chain counts for every `i ≠ q`
    /// (all of `i`'s own ops are in `α_i`, so lane `i` maps to itself).
    wpref: Vec<Vec<u32>>,
    /// The write rows of the seeded hb clock table,
    /// `rows[k·np + q] = wpref[q][vc[writes[k]][q]]`. Right for `α_i` in
    /// every lane but `i`.
    rows: Vec<u32>,
    /// Per write, its chain (dense process index).
    chain: Vec<u32>,
    /// Per write, its position among its chain's writes.
    wpos: Vec<u32>,
    /// Per write, the next write of its chain.
    next: Vec<u32>,
    /// Writes-into edges out of write `k`, by reader in operation order:
    /// `readers[reader_off[k]..reader_off[k + 1]]`, each `(reader, first
    /// write after the reader on the reader's chain)` — the second is
    /// where the edge lands in an `α_i` that dropped the reader.
    reader_off: Vec<u32>,
    readers: Vec<(u32, u32)>,
}

impl WriteSide {
    fn build(a: &Analysis) -> Self {
        let cl = &a.clocks;
        let np = cl.np;
        let nw = a.writes.len();
        let mut wpref = Vec::with_capacity(np);
        let mut chain_writes: Vec<Vec<u32>> = Vec::with_capacity(np);
        let mut chain = vec![0u32; nw];
        let mut wpos = vec![0u32; nw];
        let mut next = vec![NONE; nw];
        for (q, ops) in cl.chains.iter().enumerate() {
            let mut table = Vec::with_capacity(ops.len() + 1);
            let mut mine: Vec<u32> = Vec::new();
            table.push(0u32);
            for &op in ops {
                if a.history.op(op).kind.is_write() {
                    let k = a.wnode[op.index()];
                    chain[k as usize] = q as u32;
                    wpos[k as usize] = mine.len() as u32;
                    if let Some(&prev) = mine.last() {
                        next[prev as usize] = k;
                    }
                    mine.push(k);
                }
                table.push(mine.len() as u32);
            }
            wpref.push(table);
            chain_writes.push(mine);
        }
        let mut rows = Vec::with_capacity(nw * np);
        for w in &a.writes {
            let clock = cl.clock(w.index());
            rows.extend(clock.iter().zip(&wpref).map(|(&c, pref)| pref[c as usize]));
        }
        // Counting sort of the writes-into edges by source write, which
        // keeps each write's readers in operation order.
        let sources = || {
            a.reads_from
                .iter()
                .enumerate()
                .filter_map(|(r, src)| match src {
                    Some(ReadSource::Write(w)) => Some((r, a.wnode[w.index()] as usize)),
                    _ => None,
                })
        };
        let mut reader_off = vec![0u32; nw + 1];
        for (_, k) in sources() {
            reader_off[k + 1] += 1;
        }
        for k in 0..nw {
            reader_off[k + 1] += reader_off[k];
        }
        let mut cursor = reader_off.clone();
        let mut readers = vec![(0u32, NONE); reader_off[nw] as usize];
        for (r, k) in sources() {
            let q = cl.pix[r] as usize;
            let after = wpref[q][cl.cpos[r] as usize] as usize;
            let landing = chain_writes[q].get(after).copied().unwrap_or(NONE);
            readers[cursor[k] as usize] = (r as u32, landing);
            cursor[k] += 1;
        }
        WriteSide {
            wpref,
            rows,
            chain,
            wpos,
            next,
            reader_off,
            readers,
        }
    }
}

/// The per-process tables of [`Analysis::saturate`], reused from one
/// process to the next; each is refilled in full before it is read.
#[derive(Default)]
struct Scratch {
    /// The process's reads, in chain order: node `writes.len() + j`.
    reads: Vec<OpId>,
    /// hb clocks: `hvc[node·np + q]` = number of `q`'s `α_i`-chain ops
    /// `hb_i`-at-or-before `node`.
    hvc: Vec<u32>,
    /// Per node, its chain and its position in that chain of `α_i`.
    achain: Vec<u32>,
    acpos: Vec<u32>,
    /// The seeded propagation edges out of `node`:
    /// `succ[succ_off[node]..succ_off[node + 1]]`.
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    /// The edges the saturation rule added out of each node, in the
    /// order added: traversed after the seeded ones.
    added: Vec<Vec<u32>>,
    worklist: Vec<u32>,
}

impl<'a> Analysis<'a> {
    fn new(
        history: &'a History,
        clocks: CausalClocks,
        reads_from: Vec<Option<ReadSource>>,
    ) -> Self {
        let mut var_ix = HashMap::new();
        let mut writes = Vec::new();
        let mut wnode = vec![0u32; history.len()];
        for rec in history.iter() {
            let next = var_ix.len();
            var_ix.entry(rec.var).or_insert(next);
            if rec.kind.is_write() {
                wnode[rec.id.index()] = writes.len() as u32;
                writes.push(rec.id);
            }
        }
        let mut wvp = vec![vec![Vec::new(); clocks.np]; var_ix.len()];
        for (q, chain) in clocks.chains.iter().enumerate() {
            let mut wpos = 0u32;
            for (k, &op) in chain.iter().enumerate() {
                let rec = history.op(op);
                if rec.kind.is_write() {
                    wvp[var_ix[&rec.var]][q].push(ChainWrite {
                        cpos: k as u32,
                        wpos,
                        op,
                    });
                    wpos += 1;
                }
            }
        }
        // The clock pass's work units are part of the check's `steps`.
        let steps = clocks.work;
        Analysis {
            history,
            clocks,
            reads_from,
            var_ix,
            writes,
            wnode,
            wvp,
            steps,
        }
    }

    fn run(mut self) -> FastOutcome {
        let pattern = match self.co_patterns() {
            Some(pattern) => Some(pattern),
            None => {
                let shared = WriteSide::build(&self);
                let mut scratch = Scratch::default();
                (0..self.clocks.np).find_map(|i| self.saturate(i, &shared, &mut scratch))
            }
        };
        outcome(self.history, self.steps, pattern)
    }

    /// The causal-consistency patterns (`WriteCoInitRead`,
    /// `WriteCoRead`), scanning reads in operation order and picking the
    /// first qualifying write in observation order — the same instance
    /// [`crate::screen::screen`] reports.
    fn co_patterns(&mut self) -> Option<BadPattern> {
        let cl = &self.clocks;
        let np = cl.np;
        for (i, src) in self.reads_from.iter().enumerate() {
            let read = OpId(i as u64);
            let v = self.var_ix[&self.history.op(read).var];
            self.steps += np as u64;
            match src {
                Some(ReadSource::Initial) => {
                    // Any causally earlier write to the same variable
                    // forbids ⊥; the earliest candidate per process chain
                    // is its first write, so the overall first-in-
                    // observation-order one is the min op id over chains.
                    let mut best: Option<OpId> = None;
                    for q in 0..np {
                        if let Some(w) = self.wvp[v][q].first() {
                            if w.cpos < cl.vc[i * np + q] && best.is_none_or(|b| w.op < b) {
                                best = Some(w.op);
                            }
                        }
                    }
                    if let Some(write) = best {
                        return Some(BadPattern::WriteCoInitRead { write, read });
                    }
                }
                Some(ReadSource::Write(w0)) => {
                    // An intervening write w0 →→ w →→ r to the same
                    // variable makes the read stale in every causal view.
                    // Per chain the candidates form a contiguous run
                    // (→→ r bounds it above, w0 →→ · is monotone along
                    // the chain), so two binary searches find the
                    // earliest; min over chains matches the screen.
                    let mut best: Option<OpId> = None;
                    let (p0, c0) = (cl.pix[w0.index()] as usize, cl.cpos[w0.index()]);
                    for q in 0..np {
                        let list = &self.wvp[v][q];
                        let hi = list.partition_point(|w| w.cpos < cl.vc[i * np + q]);
                        let lo =
                            list[..hi].partition_point(|w| cl.vc[w.op.index() * np + p0] <= c0);
                        for w in &list[lo..hi] {
                            if w.op != *w0 {
                                if best.is_none_or(|b| w.op < b) {
                                    best = Some(w.op);
                                }
                                break;
                            }
                        }
                    }
                    if let Some(interposed) = best {
                        return Some(BadPattern::WriteCoRead {
                            write: *w0,
                            interposed,
                            read,
                        });
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Saturates `hb_i` for the process with dense index `i` and scans
    /// for the causal-memory patterns. Returns the first violation.
    fn saturate(&mut self, i: usize, shared: &WriteSide, sc: &mut Scratch) -> Option<BadPattern> {
        let cl = &self.clocks;
        let np = cl.np;
        let proc = cl.procs[i];
        let own = &cl.chains[i];
        let is_read = |op: OpId| self.history.op(op).kind.is_read();
        sc.reads.clear();
        sc.reads
            .extend(own.iter().copied().filter(|&op| is_read(op)));
        if sc.reads.is_empty() {
            // hb_i ⊆ a restriction of the (acyclic) causal order and the
            // saturation rule never fires: nothing to check.
            return None;
        }

        // ---- The projection α_i: all writes + i's reads. ----
        // Write k of `self.writes` is node k, i's j-th read node nw + j.
        let nw = self.writes.len();
        let m = nw + sc.reads.len();
        let own_pref = &shared.wpref[i];
        let node_of_own = |op: OpId| {
            if is_read(op) {
                let k = cl.cpos[op.index()];
                nw as u32 + (k - own_pref[k as usize])
            } else {
                self.wnode[op.index()]
            }
        };
        let next_of_own = |op: OpId| own.get(cl.cpos[op.index()] as usize + 1).copied();

        // Each node's chain and position in it: every op of chain i is
        // in α_i, so its own nodes keep their full-chain positions.
        sc.achain.clear();
        sc.achain.extend_from_slice(&shared.chain);
        sc.achain.resize(m, i as u32);
        sc.acpos.clear();
        sc.acpos.extend_from_slice(&shared.wpos);
        sc.acpos.resize(m, 0);
        for &op in own {
            sc.acpos[node_of_own(op) as usize] = cl.cpos[op.index()];
        }

        // hb clocks, seeded from the causal-order clocks (→→ ∩ (α_i ×
        // α_i), including paths through removed reads): the shared write
        // rows with lane i put back in full-chain units, then i's reads.
        sc.hvc.clear();
        sc.hvc.extend_from_slice(&shared.rows);
        for (k, w) in self.writes.iter().enumerate() {
            sc.hvc[k * np + i] = cl.vc[w.index() * np + i];
        }
        for r in &sc.reads {
            let clock = cl.clock(r.index());
            let lanes = clock.iter().zip(&shared.wpref).enumerate();
            sc.hvc
                .extend(lanes.map(|(q, (&c, pref))| if q == i { c } else { pref[c as usize] }));
        }
        self.steps += (m * np) as u64;

        // Explicit propagation edges: α_i chain edges, writes-into edges
        // to i's own reads, and shortcut edges through removed reads of
        // other processes (a removed read only has program-order
        // out-edges, so its causal successors are reachable through the
        // next α_i op of its chain). Together these generate exactly
        // →→ ∩ (α_i × α_i), so pushing a grown clock along them reaches
        // every node whose clock must grow. Out of each node: its chain
        // edge, then its readers in operation order.
        sc.succ_off.clear();
        sc.succ.clear();
        for k in 0..nw {
            sc.succ_off.push(sc.succ.len() as u32);
            let next = if shared.chain[k] as usize == i {
                next_of_own(self.writes[k]).map_or(NONE, node_of_own)
            } else {
                shared.next[k]
            };
            if next != NONE {
                sc.succ.push(next);
            }
            let edges = shared.reader_off[k] as usize..shared.reader_off[k + 1] as usize;
            for &(r, landing) in &shared.readers[edges] {
                if cl.pix[r as usize] as usize == i {
                    sc.succ.push(node_of_own(OpId(u64::from(r))));
                } else if landing != NONE {
                    sc.succ.push(landing);
                }
            }
        }
        for &r in &sc.reads {
            sc.succ_off.push(sc.succ.len() as u32);
            sc.succ.extend(next_of_own(r).map(node_of_own));
        }
        sc.succ_off.push(sc.succ.len() as u32);
        sc.added.iter_mut().for_each(Vec::clear);
        if sc.added.len() < m {
            sc.added.resize_with(m, Vec::new);
        }

        // ---- Saturation fixpoint. ----
        // Each round rescans i's reads; for each read and chain only the
        // hb-latest same-variable write matters (earlier writes of the
        // chain reach the dictating write transitively through it). A
        // round that adds no edge is the fixpoint; every added edge
        // grows a clock, and clocks are bounded by chain lengths, so
        // termination is guaranteed.
        let Scratch {
            reads,
            hvc,
            achain,
            acpos,
            succ_off,
            succ,
            added,
            worklist,
        } = sc;
        loop {
            let mut changed = false;
            for (j, &r) in reads.iter().enumerate() {
                let rn = nw + j;
                let v = self.var_ix[&self.history.op(r).var];
                let src = self.reads_from[r.index()];
                self.steps += np as u64;
                for q in 0..np {
                    // Chain q of α_i holds q's writes only, but all of
                    // chain i.
                    let pos = |w: &ChainWrite| if q == i { w.cpos } else { w.wpos };
                    let list = &self.wvp[v][q];
                    let hi = list.partition_point(|w| pos(w) < hvc[rn * np + q]);
                    let Some(latest) = list[..hi].last() else {
                        continue;
                    };
                    let (c2, w2) = (pos(latest), self.wnode[latest.op.index()]);
                    match src {
                        Some(ReadSource::Initial) => {
                            return Some(BadPattern::WriteHbInitRead {
                                write: latest.op,
                                read: r,
                            });
                        }
                        Some(ReadSource::Write(w1)) => {
                            let w1n = self.wnode[w1.index()];
                            if w2 == w1n || hvc[w1n as usize * np + q] > c2 {
                                continue; // already hb-ordered before w1
                            }
                            // The rule demands w2 hb_i w1; if w1 is
                            // already hb_i-before w2 the edge closes a
                            // cycle — the stale-read-in-hb pattern.
                            let cw1 = achain[w1n as usize] as usize;
                            if hvc[w2 as usize * np + cw1] > acpos[w1n as usize] {
                                return Some(BadPattern::WriteHbRead {
                                    write: w1,
                                    interposed: latest.op,
                                    read: r,
                                });
                            }
                            added[w2 as usize].push(w1n);
                            changed = true;
                            // Fold w2's clock into w1 and propagate the
                            // growth (monotone, push-based).
                            worklist.clear();
                            if join_rows(hvc, np, w2 as usize, w1n as usize) {
                                if hvc[w1n as usize * np + cw1] > acpos[w1n as usize] + 1 {
                                    return Some(BadPattern::CyclicHb { proc });
                                }
                                worklist.push(w1n);
                            }
                            while let Some(u) = worklist.pop() {
                                let u = u as usize;
                                let seeded = &succ[succ_off[u] as usize..succ_off[u + 1] as usize];
                                self.steps += (np * (seeded.len() + added[u].len())) as u64;
                                for &s in seeded.iter().chain(&added[u]) {
                                    if join_rows(hvc, np, u, s as usize) {
                                        let cs = achain[s as usize] as usize;
                                        if hvc[s as usize * np + cs] > acpos[s as usize] + 1 {
                                            return Some(BadPattern::CyclicHb { proc });
                                        }
                                        worklist.push(s);
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            if !changed {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{adversarial_history, broken_history, causal_history, Planted};
    use cmi_sim::SplitMix64;
    use cmi_types::{OpRecord, ProcId, SimTime, SystemId, Value};

    impl Analysis<'_> {
        /// [`Analysis::saturate`] as it was before the write half of `α_i`
        /// was shared: every table rebuilt from the whole history, one
        /// `Vec` of successors per node.
        #[allow(clippy::needless_range_loop)] // kept as it was
        fn saturate_reference(&mut self, i: usize) -> Option<BadPattern> {
            let cl = &self.clocks;
            let np = cl.np;
            let proc = cl.procs[i];
            let my_reads: Vec<OpId> = cl.chains[i]
                .iter()
                .copied()
                .filter(|&op| self.history.op(op).kind.is_read())
                .collect();
            if my_reads.is_empty() {
                // hb_i ⊆ a restriction of the (acyclic) causal order and the
                // saturation rule never fires: nothing to check.
                return None;
            }

            // ---- Build the projection α_i: all writes + i's reads. ----
            const NOT_A_NODE: u32 = u32::MAX;
            let mut node_of = vec![NOT_A_NODE; self.history.len()];
            let mut nodes: Vec<OpId> = Vec::new();
            for rec in self.history.iter() {
                if rec.kind.is_write() || rec.proc == proc {
                    node_of[rec.id.index()] = nodes.len() as u32;
                    nodes.push(rec.id);
                }
            }
            let m = nodes.len();

            // Per-process chains within α_i, each node's position in its
            // chain, and the prefix table mapping full-chain counts to
            // α_i-chain counts (to project the causal-order clocks).
            let mut anodes: Vec<Vec<u32>> = vec![Vec::new(); np];
            let mut acpos = vec![0u32; m];
            let mut pref: Vec<Vec<u32>> = Vec::with_capacity(np);
            for q in 0..np {
                let chain = &cl.chains[q];
                let mut table = Vec::with_capacity(chain.len() + 1);
                table.push(0u32);
                for &op in chain {
                    let mut c = *table.last().expect("seeded");
                    if node_of[op.index()] != NOT_A_NODE {
                        let node = node_of[op.index()];
                        acpos[node as usize] = anodes[q].len() as u32;
                        anodes[q].push(node);
                        c += 1;
                    }
                    table.push(c);
                }
                pref.push(table);
            }
            let achain: Vec<u32> = nodes.iter().map(|&op| cl.pix[op.index()]).collect();

            // hb clocks: hvc[node·np + q] = number of q's α_i-chain ops
            // hb_i-at-or-before node. Seeded from the causal-order clocks
            // (→→ ∩ (α_i × α_i), including paths through removed reads).
            let mut hvc = vec![0u32; m * np];
            for (node, &op) in nodes.iter().enumerate() {
                for q in 0..np {
                    hvc[node * np + q] = pref[q][cl.vc[op.index() * np + q] as usize];
                }
            }
            self.steps += (m * np) as u64;

            // Explicit propagation edges: α_i chain edges, writes-into edges
            // to i's own reads, and shortcut edges through removed reads of
            // other processes (a removed read only has program-order
            // out-edges, so its causal successors are reachable through the
            // next α_i op of its chain). Together these generate exactly
            // →→ ∩ (α_i × α_i), so pushing a grown clock along them reaches
            // every node whose clock must grow.
            let mut ssucc: Vec<Vec<u32>> = vec![Vec::new(); m];
            for q in 0..np {
                for pair in anodes[q].windows(2) {
                    ssucc[pair[0] as usize].push(pair[1]);
                }
            }
            for (r, src) in self.reads_from.iter().enumerate() {
                let Some(ReadSource::Write(w)) = src else {
                    continue;
                };
                let wnode = node_of[w.index()];
                if node_of[r] != NOT_A_NODE {
                    ssucc[wnode as usize].push(node_of[r]);
                } else {
                    let q = cl.pix[r] as usize;
                    let c = pref[q][cl.cpos[r] as usize] as usize;
                    if c < anodes[q].len() {
                        ssucc[wnode as usize].push(anodes[q][c]);
                    }
                }
            }

            // Per (variable, chain) write lists inside α_i, by chain
            // position (all writes are in α_i, so this is a re-index of
            // `wvp` onto α_i chain positions).
            let mut awvp = vec![vec![Vec::new(); np]; self.var_ix.len()];
            for q in 0..np {
                for &node in &anodes[q] {
                    let rec = self.history.op(nodes[node as usize]);
                    if rec.kind.is_write() {
                        awvp[self.var_ix[&rec.var]][q].push((acpos[node as usize], node));
                    }
                }
            }

            // ---- Saturation fixpoint. ----
            // Each round rescans i's reads; for each read and chain only the
            // hb-latest same-variable write matters (earlier writes of the
            // chain reach the dictating write transitively through it). A
            // round that adds no edge is the fixpoint; every added edge
            // grows a clock, and clocks are bounded by chain lengths, so
            // termination is guaranteed.
            let mut worklist: Vec<u32> = Vec::new();
            loop {
                let mut changed = false;
                for &r in &my_reads {
                    let rn = node_of[r.index()] as usize;
                    let v = self.var_ix[&self.history.op(r).var];
                    let src = self.reads_from[r.index()];
                    self.steps += np as u64;
                    for q in 0..np {
                        let list = &awvp[v][q];
                        let hi = list.partition_point(|&(c, _)| c < hvc[rn * np + q]);
                        let Some(&(c2, w2)) = list[..hi].last() else {
                            continue;
                        };
                        match src {
                            Some(ReadSource::Initial) => {
                                return Some(BadPattern::WriteHbInitRead {
                                    write: nodes[w2 as usize],
                                    read: r,
                                });
                            }
                            Some(ReadSource::Write(w1)) => {
                                let w1n = node_of[w1.index()];
                                if w2 == w1n || hvc[w1n as usize * np + q] > c2 {
                                    continue; // already hb-ordered before w1
                                }
                                // The rule demands w2 hb_i w1; if w1 is
                                // already hb_i-before w2 the edge closes a
                                // cycle — the stale-read-in-hb pattern.
                                let cw1 = achain[w1n as usize] as usize;
                                if hvc[w2 as usize * np + cw1] > acpos[w1n as usize] {
                                    return Some(BadPattern::WriteHbRead {
                                        write: w1,
                                        interposed: nodes[w2 as usize],
                                        read: r,
                                    });
                                }
                                ssucc[w2 as usize].push(w1n);
                                changed = true;
                                // Fold w2's clock into w1 and propagate the
                                // growth (monotone, push-based).
                                worklist.clear();
                                if join_rows(&mut hvc, np, w2 as usize, w1n as usize) {
                                    if hvc[w1n as usize * np + cw1] > acpos[w1n as usize] + 1 {
                                        return Some(BadPattern::CyclicHb { proc });
                                    }
                                    worklist.push(w1n);
                                }
                                while let Some(u) = worklist.pop() {
                                    self.steps += (np * ssucc[u as usize].len()) as u64;
                                    for k in 0..ssucc[u as usize].len() {
                                        let s = ssucc[u as usize][k];
                                        if join_rows(&mut hvc, np, u as usize, s as usize) {
                                            let cs = achain[s as usize] as usize;
                                            if hvc[s as usize * np + cs] > acpos[s as usize] + 1 {
                                                return Some(BadPattern::CyclicHb { proc });
                                            }
                                            worklist.push(s);
                                        }
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                }
                if !changed {
                    return None;
                }
            }
        }
    }

    /// [`analyze`] through [`Analysis::saturate_reference`]: the oracle
    /// the shared set-up must match in verdict, pattern and `steps`.
    fn analyze_reference(history: &History) -> FastOutcome {
        let reads_from = history.reads_from();
        let clocks = CausalClocks::build(history, &reads_from);
        let thin_air = |src: &Option<ReadSource>| matches!(src, Some(ReadSource::ThinAir));
        if reads_from.iter().any(thin_air) || clocks.is_cyclic() {
            return analyze(history); // decided before any saturation
        }
        let mut a = Analysis::new(history, clocks, reads_from);
        let pattern = a
            .co_patterns()
            .or_else(|| (0..a.clocks.np).find_map(|q| a.saturate_reference(q)));
        outcome(history, a.steps, pattern)
    }

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
        let out = analyze(&History::new());
        assert_eq!(out.verdict, CausalVerdict::Causal);
        assert_eq!(out.pattern, None);
    }

    #[test]
    fn simple_propagation_is_causal() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        w(&mut h, p(0), 0, v, 1);
        r(&mut h, p(1), 0, Some(v), 2);
        assert_eq!(analyze(&h).verdict, CausalVerdict::Causal);
    }

    #[test]
    fn thin_air_read_is_named() {
        let mut h = History::new();
        r(&mut h, p(0), 0, Some(Value::new(p(9), 9)), 1);
        let out = analyze(&h);
        assert_eq!(out.pattern, Some(BadPattern::ThinAirRead { read: OpId(0) }));
    }

    #[test]
    fn section3_counterexample_is_a_write_co_read() {
        // w(x)v →→ w(x)u, p2 reads u then v.
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        let u = Value::new(p(1), 1);
        w(&mut h, p(0), 0, v, 1);
        r(&mut h, p(1), 0, Some(v), 2);
        w(&mut h, p(1), 0, u, 3);
        r(&mut h, p(2), 0, Some(u), 4);
        r(&mut h, p(2), 0, Some(v), 5);
        let out = analyze(&h);
        assert_eq!(
            out.pattern,
            Some(BadPattern::WriteCoRead {
                write: OpId(0),
                interposed: OpId(2),
                read: OpId(4),
            }),
            "same instance the screen reports"
        );
    }

    #[test]
    fn init_read_after_seen_write_is_a_write_co_init_read() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        w(&mut h, p(0), 0, v, 1);
        r(&mut h, p(1), 0, Some(v), 2);
        r(&mut h, p(1), 0, None, 3);
        let out = analyze(&h);
        assert_eq!(
            out.pattern,
            Some(BadPattern::WriteCoInitRead {
                write: OpId(0),
                read: OpId(2),
            })
        );
    }

    /// The pattern that separates causal memory from mere causal
    /// consistency: p1 writes x, p2 overwrites x *concurrently* and then
    /// reads the other write followed by its own. No `Co` pattern fires
    /// (the writes are concurrent), yet p2's projection has no legal
    /// serialization — w(x)2 must come both before w(x)1 (to satisfy
    /// r(x)1) and after it (to satisfy r(x)2). Only the saturation rule
    /// catches it.
    #[test]
    fn cm_separator_needs_the_saturation_rule() {
        let mut h = History::new();
        let v1 = Value::new(p(0), 1);
        let v2 = Value::new(p(1), 1);
        w(&mut h, p(0), 0, v1, 1);
        w(&mut h, p(1), 0, v2, 1);
        r(&mut h, p(1), 0, Some(v1), 2);
        r(&mut h, p(1), 0, Some(v2), 3);
        assert!(
            crate::screen::screen(&h).is_clean(),
            "the Co patterns cannot see this violation"
        );
        let out = analyze(&h);
        assert!(!out.verdict.is_causal());
        assert!(matches!(
            out.pattern,
            Some(BadPattern::WriteHbRead { .. } | BadPattern::CyclicHb { .. })
        ));
        // The exhaustive oracle agrees.
        assert!(!crate::causal::check_exhaustive(&h).is_causal());
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
        assert_eq!(analyze(&h).verdict, CausalVerdict::Causal);
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
        assert!(!analyze(&h).verdict.is_causal());
    }

    #[test]
    fn program_order_cycle_is_detected() {
        // p0 writes v1 then v2; p1 reads v2 then v1 — not a →→ cycle,
        // but a WriteCoRead (v1 overwritten by v2 before the second
        // read). A genuine →→ cycle needs a read before its write in
        // program order, which the simulator cannot produce; build one
        // by hand to pin CyclicCausalOrder.
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        r(&mut h, p(0), 0, Some(v), 1); // reads v before any write
        w(&mut h, p(0), 0, v, 2); // …then writes it
        let out = analyze(&h);
        assert_eq!(out.pattern, Some(BadPattern::CyclicCausalOrder));
    }

    #[test]
    fn fast_path_never_reports_unknown() {
        let mut h = History::new();
        for k in 0..40u16 {
            let val = Value::new(p(k % 4), u32::from(k) + 1);
            w(&mut h, p(k % 4), u32::from(k % 3), val, u64::from(k) + 1);
        }
        let out = analyze(&h);
        assert_ne!(out.verdict, CausalVerdict::Unknown);
    }

    /// The shared set-up must report what the per-process one does:
    /// verdict, first bad pattern and `steps`.
    fn assert_matches_reference(h: &History, what: &str) -> FastOutcome {
        let out = analyze(h);
        assert_eq!(out, analyze_reference(h), "{what}\n{h}");
        out
    }

    fn seeded(salt: u64, case: u64) -> SplitMix64 {
        SplitMix64::seed_from_u64(salt ^ case.wrapping_mul(0x9E37_79B9))
    }

    #[test]
    fn shared_setup_matches_per_process_setup_on_seeded_histories() {
        // Causal by construction: the saturation rule fires and
        // propagates in most of them, and never finds a pattern.
        for case in 0..650u64 {
            let max_events = if case < 500 { 48 } else { 200 };
            let h = causal_history(&mut seeded(0x5A7A, case), max_events);
            let out = assert_matches_reference(&h, &format!("causal {case}"));
            assert_eq!(out.pattern, None, "causal {case}");
        }
        // Reads of any earlier value: mostly `Co` patterns and causal
        // histories, some saturation patterns.
        for case in 0..400u64 {
            let h = adversarial_history(&mut seeded(0xAD7E, case), 40);
            assert_matches_reference(&h, &format!("adversarial {case}"));
        }
        // Broken so that only hb saturation sees it. (`CyclicHb` has no
        // generator: the clocks are exact after every propagation, so a
        // cycle through a new edge is always caught first as
        // `WriteHbRead`; no history reaches it.)
        for case in 0..300u64 {
            let planted = [Planted::HbRead, Planted::HbInitRead][case as usize % 2];
            let h = broken_history(&mut seeded(0xB20C, case), 60, planted);
            let out = assert_matches_reference(&h, &format!("{planted:?} {case}"));
            match (planted, out.pattern) {
                (Planted::HbRead, Some(BadPattern::WriteHbRead { .. }))
                | (Planted::HbInitRead, Some(BadPattern::WriteHbInitRead { .. })) => {}
                (_, found) => panic!("{planted:?} {case}: found {found:?}\n{h}"),
            }
        }
    }

    #[test]
    fn shared_setup_matches_on_degenerate_process_shapes() {
        let writer = p(0);
        let reader = p(7);
        for case in 0..60u64 {
            let mut rng = seeded(0xDE6E, case);
            let base = causal_history(&mut rng, 120);
            // A process with no reads.
            let h = base.filtered(|op| op.proc != writer || op.kind.is_write());
            assert_matches_reference(&h, &format!("no reads {case}"));
            // A process with no writes, reading any written value.
            let mut h = base.clone();
            let written: Vec<_> = (base.iter())
                .filter_map(|op| Some((op.var, op.written_value()?)))
                .collect();
            for k in 0..8 {
                let Some(&(var, val)) = written.get(rng.gen_range(0..written.len().max(1))) else {
                    break;
                };
                h.record(OpRecord::read(reader, var, Some(val), t(1000 + k)));
            }
            assert_matches_reference(&h, &format!("no writes {case}"));
            // One process: every op on one chain.
            let mut h = History::new();
            for op in base.iter() {
                let mut op = *op;
                op.proc = writer;
                h.record(op);
            }
            assert_matches_reference(&h, &format!("one process {case}"));
            // The per-process tables are reused: a process with few
            // reads after ones with many, and a small history checked
            // right after a large one.
            let last = p(2);
            let mut kept = 0;
            let h = base.filtered(|op| {
                let keep = op.proc != last || op.kind.is_write() || kept < 2;
                kept += usize::from(op.proc == last && op.kind.is_read());
                keep
            });
            assert_matches_reference(&h, &format!("few reads last {case}"));
            let small = causal_history(&mut rng, 12);
            assert_matches_reference(&small, &format!("small after large {case}"));
        }
    }

    #[test]
    fn shared_setup_matches_on_every_shipped_scenario() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../cli/scenarios");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            seen += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let report = cmi_cli::Scenario::from_json(&text).unwrap().run().unwrap();
            assert_matches_reference(&report.global_history(), &format!("{path:?} α^T"));
            for (k, h) in report.system_histories().iter().enumerate() {
                assert_matches_reference(h, &format!("{path:?} α^{k}"));
            }
        }
        assert!(seen >= 7, "scenario directory found: {seen} files");
    }
}
