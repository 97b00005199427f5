//! The seeded causal-delivery history generator, shared by `props.rs`
//! and (through `#[path]`) the unit tests of `src/metrics.rs`.

use cmi_sim::SplitMix64;
use cmi_types::{History, OpRecord, ProcId, SimTime, SystemId, Value, VarId};

/// Histories from a tiny replicated-store simulation with causal
/// delivery: guaranteed causal by construction.
pub fn causal_history(rng: &mut SplitMix64, max_events: usize) -> History {
    // Events: (proc, var, is_write, deliver_lag) — writes apply locally
    // and enqueue for others; each process applies *all* pending remote
    // writes (in global issue order, which extends causal order) before
    // reading: a conservative causal-memory execution.
    const N: usize = 3;
    let n = rng.gen_range(0..max_events + 1);
    let mut h = History::new();
    let mut replicas = vec![std::collections::HashMap::new(); N];
    let mut applied = [0usize; N]; // prefix of `writes` applied
    let mut writes: Vec<(VarId, Value)> = Vec::new();
    let mut seq = 0u32;
    for i in 0..n {
        let proc = rng.gen_range(0u32..3) as u16;
        let var = rng.gen_range(0u32..2);
        let is_write = rng.gen_bool(0.5);
        let lag = rng.gen_range(0u32..3);
        let p = ProcId::new(SystemId(0), proc);
        let at = SimTime::from_nanos(i as u64);
        let slot = proc as usize % N;
        // Apply pending writes up to a lag-dependent prefix (always
        // in issue order — issue order extends causal order here).
        let target = writes.len().saturating_sub(lag as usize);
        while applied[slot] < target {
            let (v, val) = writes[applied[slot]];
            replicas[slot].insert(v, val);
            applied[slot] += 1;
        }
        if is_write {
            seq += 1;
            let val = Value::new(p, seq);
            // A writer has observed everything it applied; its write
            // is causally after those. Apply all outstanding writes
            // first so issue order extends causal order.
            while applied[slot] < writes.len() {
                let (v, val2) = writes[applied[slot]];
                replicas[slot].insert(v, val2);
                applied[slot] += 1;
            }
            replicas[slot].insert(VarId(var), val);
            writes.push((VarId(var), val));
            applied[slot] = writes.len();
            h.record(OpRecord::write(p, VarId(var), val, at));
        } else {
            let val = replicas[slot].get(&VarId(var)).copied();
            h.record(OpRecord::read(p, VarId(var), val, at));
        }
    }
    h
}
