//! Differential fuzz: the online monitor's final verdict must agree
//! with the offline fast path (`wio::analyze`) on every write-distinct
//! history.
//!
//! The monitor sees the history as a stream in record order and decides
//! incrementally; `wio` sees it whole. Verdicts must coincide — the
//! *instances* (which pattern, which ops) may legitimately differ, since
//! the monitor reports the first violation in arrival order while the
//! fast path scans in operation order. A second arm feeds the monitor a
//! cross-process shuffle of the same history (program order preserved),
//! under which the causal order — and hence the verdict — is invariant.
//! Cases are drawn from seeded in-tree [`SplitMix64`] streams, so any
//! failure reproduces from the case number in its message.
//!
//! A golden table pins the monitor's whole report — JSON block and
//! summary text, not only the verdict — over the same kind of seeded
//! histories, in every configuration and arrival order.

mod common;

use std::collections::{BTreeSet, HashSet};

use cmi_checker::{
    litmus, screen, wio, BadPattern, CausalVerdict, MonitorConfig, MonitorReport, OnlineMonitor,
};
use cmi_obs::Json;
use cmi_sim::SplitMix64;
use cmi_types::{History, OpKind, OpRecord, ProcId, SimTime, SystemId, Value, VarId};
use common::Planted;

/// Write-distinct histories with adversarial reads: a read returns ⊥,
/// any value ever written to its variable, or (rarely) a value no one
/// ever writes — thin air.
fn adversarial_history(rng: &mut SplitMix64, max_ops: usize) -> History {
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
        } else if rng.gen_bool(0.03) {
            // Thin air: an origin/seq pair no generator write produces.
            let ghost = Value::new(ProcId::new(SystemId(0), 9), 1_000_000 + i);
            h.record(OpRecord::read(proc, VarId(var as u32), Some(ghost), at));
        } else {
            let pick = rng.gen_range(0..written[var].len() as u32 + 1) as usize;
            let val = written[var].get(pick).copied();
            h.record(OpRecord::read(proc, VarId(var as u32), val, at));
        }
    }
    h
}

/// Reorders a history across processes while preserving each process's
/// program order: repeatedly pops the earliest-unblocked op of a random
/// process. The causal order — and so the verdict — is unchanged, but
/// the monitor now sees reads before their dictating writes and must
/// stall and drain instead of declaring thin air.
fn cross_process_shuffle(h: &History, rng: &mut SplitMix64) -> History {
    let mut per_proc: Vec<(ProcId, Vec<OpRecord>)> = Vec::new();
    for rec in h.iter() {
        match per_proc.iter_mut().find(|(p, _)| *p == rec.proc) {
            Some((_, v)) => v.push(*rec),
            None => per_proc.push((rec.proc, vec![*rec])),
        }
    }
    let mut cursors = vec![0usize; per_proc.len()];
    let mut out = History::new();
    let total = h.len();
    for _ in 0..total {
        loop {
            let k = rng.gen_range(0..per_proc.len() as u32) as usize;
            if cursors[k] < per_proc[k].1.len() {
                let mut rec = per_proc[k].1[cursors[k]];
                rec.id = OpRecord::UNRECORDED;
                out.record(rec);
                cursors[k] += 1;
                break;
            }
        }
    }
    out
}

fn online_verdict(h: &History) -> CausalVerdict {
    OnlineMonitor::check_history(h, MonitorConfig::default()).verdict
}

#[test]
fn online_agrees_with_fastpath_on_1500_random_histories() {
    let mut causal_count = 0u32;
    for case in 0..1500u64 {
        let mut rng = SplitMix64::seed_from_u64(0x0A11E ^ case.wrapping_mul(0x9E37_79B9));
        let h = adversarial_history(&mut rng, 14);
        assert!(h.validate_differentiated().is_ok(), "case {case}");
        let offline = wio::analyze(&h);
        let online = online_verdict(&h);
        assert_eq!(
            offline.verdict.is_causal(),
            online.is_causal(),
            "monitor disagrees with fast path (case {case}): offline {:?} vs online {online:?}\n{h}",
            offline.pattern,
        );
        assert_ne!(online, CausalVerdict::Unknown, "case {case}");
        if online.is_causal() {
            causal_count += 1;
        }
    }
    assert!(causal_count > 150, "too few causal cases: {causal_count}");
    assert!(
        causal_count < 1350,
        "too few violating cases: {}",
        1500 - causal_count
    );
}

#[test]
fn online_verdict_is_stable_under_cross_process_shuffles() {
    for case in 0..400u64 {
        let mut rng = SplitMix64::seed_from_u64(0x5FF1E ^ case.wrapping_mul(0x9E37_79B9));
        let h = adversarial_history(&mut rng, 14);
        let baseline = wio::analyze(&h).verdict.is_causal();
        for round in 0..3 {
            let shuffled = cross_process_shuffle(&h, &mut rng);
            assert_eq!(
                wio::analyze(&shuffled).verdict.is_causal(),
                baseline,
                "shuffle changed the offline verdict (case {case} round {round})"
            );
            assert_eq!(
                online_verdict(&shuffled).is_causal(),
                baseline,
                "monitor verdict not arrival-order invariant (case {case} round {round})\n{shuffled}"
            );
        }
    }
}

#[test]
fn online_matches_fastpath_on_the_litmus_suite() {
    for (name, h) in litmus::all() {
        let offline = wio::analyze(&h);
        let online = online_verdict(&h);
        assert_eq!(
            offline.verdict.is_causal(),
            online.is_causal(),
            "litmus {name}: offline {:?} vs online {online:?}",
            offline.verdict
        );
    }
}

#[test]
fn online_catches_the_saturation_only_separator() {
    // w(x)v1 by p0; w(x)v2 by p1; p1 reads v1 then v2. The screen is
    // clean — only the hb_i saturation rule exposes the violation, so
    // this pins that the monitor ported the full rule, not just the
    // writes-into patterns.
    let p0 = ProcId::new(SystemId(0), 0);
    let p1 = ProcId::new(SystemId(0), 1);
    let v1 = Value::new(p0, 1);
    let v2 = Value::new(p1, 1);
    let mut h = History::new();
    h.record(OpRecord::write(p0, VarId(0), v1, SimTime::from_nanos(1)));
    h.record(OpRecord::write(p1, VarId(0), v2, SimTime::from_nanos(1)));
    h.record(OpRecord::read(
        p1,
        VarId(0),
        Some(v1),
        SimTime::from_nanos(2),
    ));
    h.record(OpRecord::read(
        p1,
        VarId(0),
        Some(v2),
        SimTime::from_nanos(3),
    ));
    assert!(screen::screen(&h).is_clean(), "must be screen-invisible");
    assert!(!wio::analyze(&h).verdict.is_causal());
    assert!(!online_verdict(&h).is_causal());
}

#[test]
fn bounded_monitor_never_false_alarms_on_causal_histories() {
    // The bounded configuration may *miss* violations once state is
    // evicted, but any alarm it raises must be real: on causal histories
    // it must stay quiet even with tiny windows and aggressive sweeps.
    let mut quiet = 0u32;
    for case in 0..300u64 {
        let mut rng = SplitMix64::seed_from_u64(0xB0B ^ case.wrapping_mul(0x9E37_79B9));
        let h = adversarial_history(&mut rng, 14);
        if !wio::analyze(&h).verdict.is_causal() {
            continue;
        }
        let procs: Vec<ProcId> = (0..4).map(|i| ProcId::new(SystemId(0), i)).collect();
        let mut cfg = MonitorConfig::bounded(procs);
        cfg.read_window = 2;
        cfg.sweep_every = 4;
        let rep = OnlineMonitor::check_history(&h, cfg);
        assert!(
            rep.verdict.is_causal(),
            "bounded monitor false alarm (case {case}): {:?}\n{h}",
            rep.violation
        );
        quiet += 1;
    }
    assert!(quiet > 30, "too few causal cases exercised: {quiet}");
}

// ---- the golden report table --------------------------------------------

/// FNV-1a (64-bit) folded over `bytes` from state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The report's bytes: its JSON block with the body of the one wall-clock
/// member (`monitor.check_latency_ns`) nulled, then its summary text.
fn report_bytes(rep: &MonitorReport) -> String {
    let mut json = rep.to_json();
    if let Json::Obj(top) = &mut json {
        for (k, metrics) in top.iter_mut() {
            let Json::Obj(groups) = metrics else { continue };
            if k != "metrics" {
                continue;
            }
            for (_, group) in groups.iter_mut() {
                let Json::Obj(series) = group else { continue };
                for (name, body) in series.iter_mut() {
                    if name == "monitor.check_latency_ns" {
                        *body = Json::Null;
                    }
                }
            }
        }
    }
    json.to_compact() + "\n" + &rep.summary()
}

/// The distinct processes of `h`, sorted: the declared membership of the
/// bounded configurations (a declared process that never speaks would
/// pin the frontier minimum at zero and switch retirement off).
fn procs_of(h: &History) -> Vec<ProcId> {
    let set: BTreeSet<ProcId> = h.iter().map(|r| r.proc).collect();
    set.into_iter().collect()
}

/// The three configurations every history runs under: exact (chains
/// appear as they arrive), retirement every 16 ops, and four-read
/// windows (evictions and shortcut pins).
fn configs(h: &History) -> [(&'static str, MonitorConfig); 3] {
    let mut sweep = MonitorConfig::bounded(procs_of(h));
    sweep.sweep_every = 16;
    let mut window = MonitorConfig::bounded(procs_of(h));
    window.read_window = 4;
    [
        ("exact", MonitorConfig::default()),
        ("sweep16", sweep),
        ("window4", window),
    ]
}

/// `true` if some read arrives before the write it returns (the monitor
/// must stall that read's chain and drain it later).
fn reads_ahead_of_writes(h: &History) -> bool {
    let mut written = HashSet::new();
    h.iter().any(|r| match r.kind {
        OpKind::Write { value } => {
            written.insert(value);
            false
        }
        OpKind::Read { value: Some(v) } => !written.contains(&v),
        OpKind::Read { value: None } => false,
    })
}

fn pattern_name(p: &BadPattern) -> &'static str {
    match p {
        BadPattern::ThinAirRead { .. } => "ThinAirRead",
        BadPattern::CyclicCausalOrder => "CyclicCausalOrder",
        BadPattern::WriteCoInitRead { .. } => "WriteCoInitRead",
        BadPattern::WriteCoRead { .. } => "WriteCoRead",
        BadPattern::WriteHbRead { .. } => "WriteHbRead",
        BadPattern::WriteHbInitRead { .. } => "WriteHbInitRead",
        BadPattern::CyclicHb { .. } => "CyclicHb",
    }
}

/// Which arms of the monitor the golden histories reached.
#[derive(Default)]
struct Coverage {
    retired: bool,
    evicted: bool,
    drained: bool,
    unknown: bool,
    patterns: BTreeSet<&'static str>,
}

impl Coverage {
    fn note(&mut self, h: &History, rep: &MonitorReport) {
        self.retired |= rep.retired > 0;
        self.evicted |= rep.reads_evicted > 0;
        self.drained |= rep.verdict.is_causal() && reads_ahead_of_writes(h);
        self.unknown |= rep.verdict == CausalVerdict::Unknown;
        if let Some(v) = &rep.violation {
            self.patterns.insert(pattern_name(&v.pattern));
        }
    }
}

/// The seeded history families of the golden table: `(name, cases,
/// generator)`.
type Family = (&'static str, u64, fn(&mut SplitMix64) -> History);

const FAMILIES: [Family; 5] = [
    ("causal", 120, |rng| common::causal_history(rng, 120)),
    ("adversarial", 120, |rng| {
        common::adversarial_history(rng, 24)
    }),
    ("thin-air", 60, |rng| adversarial_history(rng, 30)),
    ("hb-read", 50, |rng| {
        common::broken_history(rng, 40, Planted::HbRead)
    }),
    ("hb-init-read", 50, |rng| {
        common::broken_history(rng, 40, Planted::HbInitRead)
    }),
];

/// Two declared processes ping-pong until writes retire, then a third,
/// undeclared one speaks: the retirement decisions are void and the
/// verdict degrades to `Unknown`.
fn late_undeclared_process() -> (History, MonitorConfig) {
    let p = |i: u16| ProcId::new(SystemId(0), i);
    let mut h = History::new();
    for k in 1..=100u32 {
        let v = Value::new(p(0), k);
        let at = u64::from(2 * k);
        h.record(OpRecord::write(p(0), VarId(0), v, SimTime::from_nanos(at)));
        h.record(OpRecord::read(
            p(1),
            VarId(0),
            Some(v),
            SimTime::from_nanos(at + 1),
        ));
    }
    h.record(OpRecord::read(
        p(2),
        VarId(0),
        None,
        SimTime::from_nanos(1000),
    ));
    let mut cfg = MonitorConfig::bounded(vec![p(0), p(1)]);
    cfg.sweep_every = 16;
    (h, cfg)
}

/// A process reads its own later write: program order ∪ writes-into
/// closes a cycle, named at finalize.
fn own_future_read() -> History {
    let p0 = ProcId::new(SystemId(0), 0);
    let v = Value::new(p0, 1);
    let mut h = History::new();
    h.record(OpRecord::read(
        p0,
        VarId(0),
        Some(v),
        SimTime::from_nanos(1),
    ));
    h.record(OpRecord::write(p0, VarId(0), v, SimTime::from_nanos(2)));
    h
}

/// Digests of the monitor's report bytes, one row per (family,
/// configuration, arrival order), each folded over the family's cases in
/// order. Generated once and never regenerated: a layout change of the
/// monitor must leave every byte of every report where it was.
const GOLDEN_MONITOR: &[(&str, u64)] = &[
    ("causal/exact/in-order", 0xf133c1e4fda92d55),
    ("causal/exact/shuffled", 0xe79ce37a3b80f4f2),
    ("causal/sweep16/in-order", 0xfcd699d5eccfb662),
    ("causal/sweep16/shuffled", 0x62c7c161b03dbff9),
    ("causal/window4/in-order", 0x21116ccd68f4d0a1),
    ("causal/window4/shuffled", 0x9c5e7c28202ba688),
    ("adversarial/exact/in-order", 0x4c1b4fb4594d1704),
    ("adversarial/exact/shuffled", 0x49849bd887d8da21),
    ("adversarial/sweep16/in-order", 0xa6c692712d6db369),
    ("adversarial/sweep16/shuffled", 0x7616b57fb4020fd5),
    ("adversarial/window4/in-order", 0xbf9dbc68d484c854),
    ("adversarial/window4/shuffled", 0xe13e85dbd3fa5262),
    ("thin-air/exact/in-order", 0x912c9beacbf9ad8b),
    ("thin-air/exact/shuffled", 0xf5061bba309215f7),
    ("thin-air/sweep16/in-order", 0xbc2b3821af72bbf2),
    ("thin-air/sweep16/shuffled", 0xe4b22666bc262fa8),
    ("thin-air/window4/in-order", 0x5eea175f0a4a4702),
    ("thin-air/window4/shuffled", 0x142d9b18631555b0),
    ("hb-read/exact/in-order", 0xbe4ed064d1218d26),
    ("hb-read/exact/shuffled", 0xe696e47dfb1f658c),
    ("hb-read/sweep16/in-order", 0xe05adce96cf484af),
    ("hb-read/sweep16/shuffled", 0xd578b8d216e6f4cb),
    ("hb-read/window4/in-order", 0x349e8e83af1dadf3),
    ("hb-read/window4/shuffled", 0xc07cba63cb4bb1ae),
    ("hb-init-read/exact/in-order", 0xc497c4e381df8031),
    ("hb-init-read/exact/shuffled", 0x3927f2a743d70295),
    ("hb-init-read/sweep16/in-order", 0x4f5765d72618918b),
    ("hb-init-read/sweep16/shuffled", 0x466fc830b7d4ae4a),
    ("hb-init-read/window4/in-order", 0xcdcaf70b912c7613),
    ("hb-init-read/window4/shuffled", 0x13f3a81608331bf9),
    ("handmade", 0xd3fedc01413511ab),
];

#[test]
fn monitor_reports_are_byte_identical_to_the_golden_table() {
    let mut measured: Vec<(String, u64)> = Vec::new();
    let mut cov = Coverage::default();
    for (family, cases, gen) in FAMILIES {
        let mut rows = [0xcbf2_9ce4_8422_2325u64; 6];
        for case in 0..cases {
            let mut rng = SplitMix64::seed_from_u64(0x601D ^ case.wrapping_mul(0x9E37_79B9));
            let h = gen(&mut rng);
            let shuffled = cross_process_shuffle(&h, &mut rng);
            for (k, (_, cfg)) in configs(&h).into_iter().enumerate() {
                for (o, stream) in [&h, &shuffled].into_iter().enumerate() {
                    let rep = OnlineMonitor::check_history(stream, cfg.clone());
                    cov.note(stream, &rep);
                    let row = &mut rows[2 * k + o];
                    *row = fnv1a(*row, report_bytes(&rep).as_bytes());
                }
            }
        }
        let names = configs(&History::new()).map(|(name, _)| name);
        for (k, name) in names.iter().enumerate() {
            for (o, order) in ["in-order", "shuffled"].iter().enumerate() {
                measured.push((format!("{family}/{name}/{order}"), rows[2 * k + o]));
            }
        }
    }
    let mut extra = 0xcbf2_9ce4_8422_2325u64;
    let (late, cfg) = late_undeclared_process();
    let own = own_future_read();
    for (h, cfg) in [(&late, cfg), (&own, MonitorConfig::default())] {
        let rep = OnlineMonitor::check_history(h, cfg);
        cov.note(h, &rep);
        extra = fnv1a(extra, report_bytes(&rep).as_bytes());
    }
    measured.push(("handmade".to_string(), extra));

    assert!(cov.retired, "no history retired a write");
    assert!(cov.evicted, "no history evicted a read");
    assert!(cov.drained, "no shuffled history drained a stall");
    assert!(cov.unknown, "no history degraded to Unknown");
    // Every pattern but `CyclicHb`, which has no generator here (as in
    // `wio`): a cycle through a new edge is caught first as
    // `WriteHbRead`. 200 000 random cases in every arm never reached it.
    let all: BTreeSet<&str> = [
        "ThinAirRead",
        "CyclicCausalOrder",
        "WriteCoInitRead",
        "WriteCoRead",
        "WriteHbRead",
        "WriteHbInitRead",
    ]
    .into_iter()
    .collect();
    assert_eq!(cov.patterns, all, "violation patterns reached");

    if measured
        .iter()
        .map(|(name, digest)| (name.as_str(), *digest))
        .eq(GOLDEN_MONITOR.iter().copied())
    {
        return;
    }
    let mut table = String::new();
    for (name, digest) in &measured {
        let note = match GOLDEN_MONITOR.iter().find(|(n, _)| n == name) {
            Some((_, d)) if d == digest => String::new(),
            Some((_, d)) => format!(" // was 0x{d:016x}"),
            None => " // new".to_string(),
        };
        table.push_str(&format!("    (\"{name}\", 0x{digest:016x}),{note}\n"));
    }
    panic!(
        "monitor report bytes moved. The table is pinned, not regenerated; \
         the measured rows are:\n{table}"
    );
}
