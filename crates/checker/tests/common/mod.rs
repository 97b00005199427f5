//! The seeded history generators, shared by `props.rs`,
//! `fastpath_fuzz.rs` and (through `#[path]` in `src/lib.rs`) the unit
//! tests of `src/metrics.rs` and `src/wio.rs`. Each user takes a subset.
#![allow(dead_code)]

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

/// Write-distinct histories with adversarial reads: a read returns ⊥ or
/// any value ever written to its variable, chosen uniformly.
pub fn adversarial_history(rng: &mut SplitMix64, max_ops: usize) -> History {
    let n = rng.gen_range(0..max_ops as u32 + 1);
    let mut h = History::new();
    let mut written: Vec<Vec<Value>> = vec![Vec::new(); 3];
    let mut seq = 0u32;
    for i in 0..n {
        let proc = ProcId::new(SystemId(0), rng.gen_range(0u32..4) as u16);
        let var = rng.gen_range(0u32..3) as usize;
        let at = SimTime::from_nanos(u64::from(i));
        if rng.gen_bool(0.45) {
            seq += 1;
            let val = Value::new(proc, seq);
            written[var].push(val);
            h.record(OpRecord::write(proc, VarId(var as u32), val, at));
        } else {
            let pick = rng.gen_range(0..written[var].len() as u32 + 1) as usize;
            let val = written[var].get(pick).copied();
            h.record(OpRecord::read(proc, VarId(var as u32), val, at));
        }
    }
    h
}

/// The causal-memory pattern [`broken_history`] plants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planted {
    /// Two concurrent writes of `x`; the second writer reads the other
    /// value, then its own: `WriteHbRead` at the second writer.
    HbRead,
    /// `w(y)A ; w(x)2 ; w(u)D` at one process, `w(x)1 ; w(z)C` at
    /// another, `r(z)C ; r(y)⊥ ; r(u)D ; r(x)1` at a third: the last
    /// read orders `w(x)2` before `w(x)1`, which puts `w(y)A` before the
    /// `⊥` read — `WriteHbInitRead` at the third, in its second round.
    HbInitRead,
}

/// A [`causal_history`] with a gadget appended on fresh variables: no
/// `Co` pattern fires, and only the hb saturation of one process finds
/// the planted pattern. The gadget's roles go to distinct processes
/// drawn from the generator's three plus three new ones, so a role may
/// land on a process with no reads, or none of its own writes, before it.
pub fn broken_history(rng: &mut SplitMix64, max_events: usize, planted: Planted) -> History {
    let mut h = causal_history(rng, max_events);
    let mut procs: Vec<u16> = (0..6).collect();
    rng.shuffle(&mut procs);
    let (a, b, c) = (procs[0], procs[1], procs[2]);
    let p = |i: u16| ProcId::new(SystemId(0), i);
    let val = |i: u16, k: u32| Value::new(p(i), 1_000_000 + k);
    let (x, y, z, u) = (VarId(10), VarId(11), VarId(12), VarId(13));
    let mut push = |proc: u16, var: VarId, write: bool, v: Option<Value>| {
        let at = SimTime::from_nanos(h.len() as u64);
        h.record(match (write, v) {
            (true, Some(v)) => OpRecord::write(p(proc), var, v, at),
            _ => OpRecord::read(p(proc), var, v, at),
        });
    };
    match planted {
        Planted::HbRead => {
            push(a, x, true, Some(val(a, 1)));
            push(b, x, true, Some(val(b, 2)));
            push(b, x, false, Some(val(a, 1)));
            push(b, x, false, Some(val(b, 2)));
        }
        Planted::HbInitRead => {
            push(a, y, true, Some(val(a, 1)));
            push(a, x, true, Some(val(a, 2)));
            push(a, u, true, Some(val(a, 3)));
            push(b, x, true, Some(val(b, 4)));
            push(b, z, true, Some(val(b, 5)));
            push(c, z, false, Some(val(b, 5)));
            push(c, y, false, None);
            push(c, u, false, Some(val(a, 3)));
            push(c, x, false, Some(val(b, 4)));
        }
    }
    h
}
