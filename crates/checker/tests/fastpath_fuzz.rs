//! Differential fuzz: the polynomial fast path must agree with the
//! exhaustive Definitions 1–5 oracle on every history.
//!
//! The generator here is deliberately nastier than the one in
//! `props.rs`: reads return *any* previously written value of the
//! variable (or ⊥), not just the latest, so stale-read, init-read and
//! saturation-only violations all occur at high rates. Histories are
//! write-distinct by construction (fresh `Value` per write), which is
//! exactly the precondition under which the fast path claims to be
//! definitive; a second generator duplicates writes to exercise the
//! exhaustive fallback. Cases are drawn from seeded in-tree
//! [`SplitMix64`] streams, so any failure reproduces from the case
//! number in its message.

use cmi_checker::{causal, litmus, screen, wio, CausalVerdict, CheckEngine};
use cmi_sim::SplitMix64;
use cmi_types::{History, OpRecord, ProcId, SimTime, SystemId, Value, VarId};

mod common;
use common::{adversarial_history, broken_history, Planted};

/// Same shape, but ~each fourth write re-writes an existing (variable,
/// value) pair: non-write-distinct, forcing the exhaustive fallback.
fn duplicating_history(rng: &mut SplitMix64, max_ops: usize) -> History {
    let mut h = adversarial_history(rng, max_ops);
    let rewrite: Vec<OpRecord> = h.iter().filter(|r| r.kind.is_write()).copied().collect();
    for rec in rewrite {
        if rng.gen_bool(0.25) {
            let proc = ProcId::new(SystemId(0), rng.gen_range(0u32..4) as u16);
            let at = SimTime::from_nanos(h.len() as u64);
            let val = rec.written_value().expect("write");
            h.record(OpRecord::write(proc, rec.var, val, at));
        }
    }
    h
}

#[test]
fn fastpath_agrees_with_exhaustive_on_1200_random_histories() {
    let mut causal_count = 0u32;
    for case in 0..1200u64 {
        let mut rng = SplitMix64::seed_from_u64(0xFA57 ^ case.wrapping_mul(0x9E37_79B9));
        let h = adversarial_history(&mut rng, 12);
        assert!(h.validate_differentiated().is_ok(), "case {case}");
        let fast = wio::analyze(&h);
        let slow = causal::check_exhaustive(&h);
        assert_ne!(
            fast.verdict,
            CausalVerdict::Unknown,
            "fast path must be definitive (case {case})"
        );
        assert_ne!(slow.verdict, CausalVerdict::Unknown, "case {case}");
        assert_eq!(
            fast.verdict.is_causal(),
            slow.is_causal(),
            "engines disagree (case {case}): fast {:?} vs exhaustive {:?}\n{}",
            fast.pattern,
            slow.verdict,
            h
        );
        if fast.verdict.is_causal() {
            causal_count += 1;
        }
    }
    // The generator must exercise both outcomes heavily.
    assert!(causal_count > 100, "too few causal cases: {causal_count}");
    assert!(
        causal_count < 1100,
        "too few violating cases: {}",
        1200 - causal_count
    );
}

#[test]
fn fastpath_violations_carry_an_explainable_pattern() {
    for case in 0..400u64 {
        let mut rng = SplitMix64::seed_from_u64(0xBAD0 ^ case.wrapping_mul(0x9E37_79B9));
        let h = adversarial_history(&mut rng, 12);
        let fast = wio::analyze(&h);
        if fast.verdict.is_causal() {
            assert_eq!(fast.pattern, None, "case {case}");
        } else {
            let pattern = fast.pattern.expect("NotCausal names a pattern");
            let explained = cmi_checker::forensics::explain(&h, &[pattern], None);
            assert_eq!(explained.findings().len(), 1, "case {case}");
            assert!(!explained.render().is_empty(), "case {case}");
        }
    }
}

#[test]
fn planted_saturation_patterns_are_named_and_the_oracle_agrees() {
    // The adversarial generator reaches the hb patterns in well under
    // 1 % of its histories; these carry one each, behind a causal prefix.
    use cmi_checker::BadPattern::{WriteHbInitRead, WriteHbRead};
    for case in 0..200u64 {
        let mut rng = SplitMix64::seed_from_u64(0x9A7C ^ case.wrapping_mul(0x9E37_79B9));
        let planted = [Planted::HbRead, Planted::HbInitRead][case as usize % 2];
        let h = broken_history(&mut rng, 6, planted);
        assert!(h.validate_differentiated().is_ok(), "case {case}");
        assert!(screen::screen(&h).is_clean(), "case {case}: no Co pattern");
        let fast = wio::analyze(&h);
        match (planted, &fast.pattern) {
            (Planted::HbRead, Some(WriteHbRead { .. }))
            | (Planted::HbInitRead, Some(WriteHbInitRead { .. })) => {}
            (_, found) => panic!("case {case}: planted {planted:?}, found {found:?}\n{h}"),
        }
        let slow = causal::check_exhaustive(&h);
        assert_ne!(slow.verdict, CausalVerdict::Unknown, "case {case}");
        assert!(!slow.is_causal(), "case {case}: oracle disagrees\n{h}");
    }
}

#[test]
fn non_write_distinct_histories_fall_back_and_still_agree() {
    let mut fell_back = 0u32;
    for case in 0..200u64 {
        let mut rng = SplitMix64::seed_from_u64(0xD0B1 ^ case.wrapping_mul(0x9E37_79B9));
        let h = duplicating_history(&mut rng, 10);
        let report = causal::check(&h);
        if h.validate_differentiated().is_err() {
            assert_ne!(report.engine, CheckEngine::FastPath, "case {case}");
            fell_back += 1;
        } else {
            assert_eq!(report.engine, CheckEngine::FastPath, "case {case}");
        }
        // Whatever the route, the verdict matches the oracle: a dirty
        // screen is sound, so agreement reduces to is_causal equality.
        assert_eq!(
            report.is_causal(),
            causal::check_exhaustive(&h).is_causal(),
            "case {case}\n{h}"
        );
    }
    assert!(fell_back > 20, "fallback under-exercised: {fell_back}");
}

#[test]
fn litmus_zoo_parity() {
    for (name, h) in litmus::all() {
        let via_check = causal::check(&h);
        let oracle = causal::check_exhaustive(&h);
        assert_eq!(
            via_check.is_causal(),
            oracle.is_causal(),
            "litmus {name}: check() disagrees with the exhaustive oracle"
        );
        if h.validate_differentiated().is_ok() {
            let fast = wio::analyze(&h);
            assert_eq!(via_check.engine, CheckEngine::FastPath, "litmus {name}");
            assert_eq!(
                fast.verdict.is_causal(),
                oracle.is_causal(),
                "litmus {name}: fast path disagrees"
            );
            assert_ne!(fast.verdict, CausalVerdict::Unknown, "litmus {name}");
        } else {
            assert_ne!(via_check.engine, CheckEngine::FastPath, "litmus {name}");
        }
        // The screen stays sound on every litmus history.
        if !screen::screen(&h).is_clean() {
            assert!(!oracle.is_causal(), "litmus {name}: dirty screen unsound");
        }
    }
}

#[test]
fn causal_delivery_histories_take_the_fast_path_without_unknown() {
    // Replicated-store histories (causal by construction, same model as
    // props.rs) at sizes the exhaustive checker could not touch in this
    // budget: the fast path must prove them causal, definitively.
    for case in 0..40u64 {
        let mut rng = SplitMix64::seed_from_u64(0xCAD0 ^ case.wrapping_mul(0x9E37_79B9));
        let mut h = History::new();
        let mut replicas = vec![std::collections::HashMap::new(); 4];
        let mut applied = [0usize; 4];
        let mut writes: Vec<(VarId, Value)> = Vec::new();
        let mut seq = 0u32;
        for i in 0..300 {
            let proc = rng.gen_range(0u32..4) as u16;
            let var = VarId(rng.gen_range(0u32..3));
            let p = ProcId::new(SystemId(0), proc);
            let at = SimTime::from_nanos(i as u64);
            let slot = proc as usize;
            let lag = rng.gen_range(0u32..3) as usize;
            let target = writes.len().saturating_sub(lag);
            while applied[slot] < target {
                let (v, val) = writes[applied[slot]];
                replicas[slot].insert(v, val);
                applied[slot] += 1;
            }
            if rng.gen_bool(0.5) {
                seq += 1;
                let val = Value::new(p, seq);
                while applied[slot] < writes.len() {
                    let (v, val2) = writes[applied[slot]];
                    replicas[slot].insert(v, val2);
                    applied[slot] += 1;
                }
                replicas[slot].insert(var, val);
                writes.push((var, val));
                applied[slot] = writes.len();
                h.record(OpRecord::write(p, var, val, at));
            } else {
                let val = replicas[slot].get(&var).copied();
                h.record(OpRecord::read(p, var, val, at));
            }
        }
        let report = causal::check(&h);
        assert_eq!(report.engine, CheckEngine::FastPath, "case {case}");
        assert!(
            report.is_causal(),
            "construction guarantees causality (case {case}): {:?}",
            report.verdict
        );
    }
}
