//! Workload-characterization metrics over computations.
//!
//! The experiments quote these to show the checked histories are not
//! trivially serial: a history where everything is causally ordered
//! would make Theorem 1 vacuous, so X6 and the property suites want
//! genuine concurrency in their inputs.

use cmi_types::{History, ReadSource};

use crate::order::CausalClocks;

/// Summary metrics of one computation.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryMetrics {
    /// Total operations.
    pub ops: usize,
    /// Write operations.
    pub writes: usize,
    /// Read operations.
    pub reads: usize,
    /// Participating processes.
    pub procs: usize,
    /// Variables touched.
    pub vars: usize,
    /// Fraction of distinct write pairs that are causally *concurrent*
    /// (`0.0` = totally ordered, higher = more parallelism).
    pub write_concurrency: f64,
    /// Length (in edges) of the longest causal chain among writes.
    pub longest_write_chain: usize,
    /// Reads that returned the initial value `⊥`.
    pub initial_reads: usize,
}

/// Computes the metrics for `history`.
///
/// The two causal-order numbers are only defined on an acyclic `→→`
/// (every computation the simulator records). On a cyclic one — a
/// hand-built history where some read precedes its own source write —
/// an operation on the cycle precedes itself, "concurrent" and "longest
/// chain" mean nothing, and both are reported as `0`.
///
/// # Example
///
/// ```
/// use cmi_checker::{litmus, metrics};
///
/// let m = metrics::measure(&litmus::iriw());
/// assert_eq!(m.writes, 2);
/// assert_eq!(m.write_concurrency, 1.0); // the two writes are concurrent
/// ```
pub fn measure(history: &History) -> HistoryMetrics {
    let reads_from = history.reads_from();
    let writes = history.writes().len();
    let pairs = writes * writes.saturating_sub(1) / 2;
    // Cyclic `→→`: no pair counts as concurrent, no chain is reported.
    let (ordered, longest_write_chain) = write_order(history, &reads_from).unwrap_or((pairs, 0));
    HistoryMetrics {
        ops: history.len(),
        writes,
        reads: history.reads().len(),
        procs: history.procs().len(),
        vars: history.vars().len(),
        write_concurrency: if pairs == 0 {
            0.0
        } else {
            (pairs - ordered) as f64 / pairs as f64
        },
        longest_write_chain,
        initial_reads: reads_from
            .iter()
            .filter(|s| matches!(s, Some(ReadSource::Initial)))
            .count(),
    }
}

/// `(causally ordered write pairs, longest write chain in edges)` from
/// the vector clocks of `→→`, in `O(writes × processes)`; `None` if
/// `→→` is cyclic.
///
/// For a write `b` with clock `vc`, the writes causally before it are,
/// per process `q`, exactly the writes among `q`'s first `vc[q]`
/// operations (minus `b` itself on its own chain) — a prefix count, and
/// summing it over `b` counts every ordered pair once. The longest
/// chain ending in `b` extends the longest chain ending in one of those
/// predecessors, and along one process's chain depth never falls, so
/// per process only the *last* write of the prefix can be the best: a
/// DP over the clock pass's own topological order.
fn write_order(history: &History, reads_from: &[Option<ReadSource>]) -> Option<(usize, usize)> {
    let clocks = CausalClocks::build(history, reads_from);
    if clocks.is_cyclic() {
        return None;
    }
    // Per process: `before[k]` = writes among its first `k` ops, and the
    // DP depth of each of its writes, in chain order.
    let mut before: Vec<Vec<u32>> = Vec::with_capacity(clocks.np);
    let mut depth: Vec<Vec<usize>> = Vec::with_capacity(clocks.np);
    for chain in &clocks.chains {
        let mut table = Vec::with_capacity(chain.len() + 1);
        let mut count = 0u32;
        table.push(count);
        for &op in chain {
            count += u32::from(history.op(op).kind.is_write());
            table.push(count);
        }
        before.push(table);
        depth.push(vec![0; count as usize]);
    }

    let (mut ordered, mut longest) = (0usize, 0usize);
    for &b in &clocks.topo {
        let b = b as usize;
        if reads_from[b].is_some() {
            continue; // a read
        }
        let own = clocks.pix[b] as usize;
        let mut best = 0;
        for (q, &seen) in clocks.clock(b).iter().enumerate() {
            // `b`'s own lane counts `b` itself.
            let preds = before[q][seen as usize] as usize - usize::from(q == own);
            ordered += preds;
            if preds > 0 {
                best = best.max(depth[q][preds - 1] + 1);
            }
        }
        depth[own][before[own][clocks.cpos[b] as usize] as usize] = best;
        longest = longest.max(best);
    }
    Some((ordered, longest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::CausalOrder;
    use cmi_types::{OpId, OpRecord, ProcId, SimTime, SystemId, Value, VarId};

    /// `(write_concurrency, longest_write_chain)` as `measure` computed
    /// them before the clocks: the bitset closure, every write pair
    /// asked both ways, and a DP that only looks back in record order.
    /// The oracle of the differential tests below; right only when the
    /// history is recorded in a linear extension of `→→`.
    fn by_closure(history: &History) -> (f64, usize) {
        let co = CausalOrder::build(history);
        let writes = history.writes();
        let mut concurrent = 0usize;
        let mut pairs = 0usize;
        for (i, &a) in writes.iter().enumerate() {
            for &b in &writes[i + 1..] {
                pairs += 1;
                if co.concurrent(a, b) {
                    concurrent += 1;
                }
            }
        }
        let concurrency = if pairs == 0 {
            0.0
        } else {
            concurrent as f64 / pairs as f64
        };
        (concurrency, longest_chain(&co, &writes))
    }

    /// Longest path (in edges) in the causal order restricted to `ops`,
    /// by one left-to-right DP pass over record order.
    fn longest_chain(co: &CausalOrder, ops: &[OpId]) -> usize {
        let mut depth = vec![0usize; ops.len()];
        let mut best = 0;
        for i in 0..ops.len() {
            for j in 0..i {
                if co.precedes(ops[j], ops[i]) {
                    depth[i] = depth[i].max(depth[j] + 1);
                }
            }
            best = best.max(depth[i]);
        }
        best
    }

    /// Every read's source write was recorded before it: with program
    /// order, that makes record order a linear extension of `→→`.
    fn recorded_in_causal_order(history: &History) -> bool {
        (history.reads_from().iter().enumerate())
            .all(|(i, src)| !matches!(src, Some(ReadSource::Write(w)) if w.index() >= i))
    }

    /// Checks `measure` against the oracle and returns what it measured.
    fn assert_agrees_with_closure(history: &History, what: &str) -> HistoryMetrics {
        assert!(recorded_in_causal_order(history), "{what}");
        let m = measure(history);
        let (concurrency, chain) = by_closure(history);
        assert_eq!(
            m.write_concurrency.to_bits(),
            concurrency.to_bits(),
            "{what}: {} vs {concurrency}",
            m.write_concurrency
        );
        assert_eq!(m.longest_write_chain, chain, "{what}");
        m
    }

    fn p(i: u16) -> ProcId {
        ProcId::new(SystemId(0), i)
    }

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn empty_history_measures_zero() {
        let m = measure(&History::new());
        assert_eq!(m.ops, 0);
        assert_eq!(m.write_concurrency, 0.0);
        assert_eq!(m.longest_write_chain, 0);
    }

    #[test]
    fn fully_concurrent_writes() {
        let mut h = History::new();
        for i in 0..4u16 {
            h.record(OpRecord::write(p(i), VarId(0), Value::new(p(i), 1), t(1)));
        }
        let m = measure(&h);
        assert_eq!(m.writes, 4);
        assert_eq!(m.write_concurrency, 1.0);
        assert_eq!(m.longest_write_chain, 0);
    }

    #[test]
    fn fully_serial_writes() {
        let mut h = History::new();
        for i in 0..4u32 {
            h.record(OpRecord::write(
                p(0),
                VarId(0),
                Value::new(p(0), i),
                t(i as u64),
            ));
        }
        let m = measure(&h);
        assert_eq!(m.write_concurrency, 0.0);
        assert_eq!(m.longest_write_chain, 3);
    }

    #[test]
    fn mixed_history_counts_everything() {
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        h.record(OpRecord::write(p(0), VarId(0), v, t(1)));
        h.record(OpRecord::read(p(1), VarId(0), Some(v), t(2)));
        h.record(OpRecord::write(p(1), VarId(1), Value::new(p(1), 1), t(3)));
        h.record(OpRecord::read(p(2), VarId(1), None, t(1)));
        let m = measure(&h);
        assert_eq!(m.ops, 4);
        assert_eq!(m.writes, 2);
        assert_eq!(m.reads, 2);
        assert_eq!(m.procs, 3);
        assert_eq!(m.vars, 2);
        assert_eq!(m.initial_reads, 1);
        // w0 →→ w1 through p1's read.
        assert_eq!(m.write_concurrency, 0.0);
        assert_eq!(m.longest_write_chain, 1);
    }

    #[test]
    fn chain_through_a_read_recorded_before_its_write() {
        // r(p1,x)v ; w(p1,y)u ; w(p0,x)v — the chain
        // w(x)v →→ r(x)v →→ w(y)u has one edge between writes, though
        // the later write of the chain is recorded first.
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        h.record(OpRecord::read(p(1), VarId(0), Some(v), t(1)));
        h.record(OpRecord::write(p(1), VarId(1), Value::new(p(1), 1), t(2)));
        h.record(OpRecord::write(p(0), VarId(0), v, t(3)));
        assert!(!recorded_in_causal_order(&h));
        let m = measure(&h);
        assert_eq!(m.longest_write_chain, 1);
        assert_eq!(m.write_concurrency, 0.0);
        // The record-order DP misses it.
        assert_eq!(by_closure(&h), (0.0, 0));
    }

    #[test]
    fn cyclic_causal_order_measures_zero() {
        // p0 reads v before writing it: r →→ w (program order) and
        // w →→ r (writes-into). p1's two writes are ordered, but no
        // causal-order number is reported for a history like this.
        let mut h = History::new();
        let v = Value::new(p(0), 1);
        h.record(OpRecord::read(p(0), VarId(0), Some(v), t(1)));
        h.record(OpRecord::write(p(0), VarId(0), v, t(2)));
        h.record(OpRecord::write(p(1), VarId(1), Value::new(p(1), 1), t(3)));
        h.record(OpRecord::write(p(1), VarId(1), Value::new(p(1), 2), t(4)));
        assert!(CausalOrder::build(&h).is_cyclic());
        let m = measure(&h);
        assert_eq!((m.ops, m.writes, m.reads), (4, 3, 1));
        assert_eq!(m.write_concurrency, 0.0);
        assert_eq!(m.longest_write_chain, 0);
    }

    #[test]
    fn clocks_agree_with_the_closure_on_seeded_causal_histories() {
        let mut with_chain = 0;
        let mut with_concurrency = 0;
        for case in 0..600u64 {
            let mut rng = cmi_sim::SplitMix64::seed_from_u64(0x3E7A ^ case);
            let h = crate::common::causal_history(&mut rng, 48);
            let m = assert_agrees_with_closure(&h, &format!("case {case}"));
            with_chain += usize::from(m.longest_write_chain >= 2);
            with_concurrency += usize::from(m.write_concurrency > 0.0);
        }
        // The generator exercises both numbers, not only their zeros.
        assert!(with_chain >= 300, "{with_chain} histories with a chain");
        assert!(
            with_concurrency >= 100,
            "{with_concurrency} with concurrency"
        );
    }

    #[test]
    fn clocks_agree_with_the_closure_on_every_shipped_scenario() {
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
            assert_agrees_with_closure(&report.global_history(), &format!("{path:?}"));
        }
        assert!(seen >= 7, "scenario directory found: {seen} files");
    }
}
