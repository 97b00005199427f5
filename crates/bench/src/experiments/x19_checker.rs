//! X19 (extension) — checker scaling: the polynomial fast path vs the
//! exhaustive Definitions 1–5 search.
//!
//! The exhaustive checker is the paper's definitions run verbatim; its
//! search is exponential in the worst case and budget-capped, so past a
//! few hundred operations it can return `Unknown`. The writes-into
//! fast path ([`cmi_checker::wio`]) is definitive on write-distinct
//! histories — every history the simulator produces — at polynomial
//! cost. This experiment sweeps history sizes from 100 to 100 000
//! operations and records, per size, each engine's verdict and step
//! count (deterministic, pinned in `experiments_output.txt`), plus
//! injected-violation and non-write-distinct arms. `exp x19 --json`
//! writes the sweep's facts as the `BENCH_CHECK.json` baseline; checker
//! wall time is measured by `benchmark/` (`checker.causal.check_s`).

use cmi_checker::{causal, litmus, CausalVerdict, CheckEngine};
use cmi_obs::{Json, ToJson};
use cmi_sim::SplitMix64;
use cmi_types::{History, OpRecord, ProcId, SimTime, SystemId, Value, VarId};

use crate::table::Table;

/// Processes of the generated replicated store.
pub const PROCS: u32 = 6;
/// Variables of the generated replicated store.
pub const VARS: u32 = 8;
/// The ops sweep.
pub const SIZES: [usize; 4] = [100, 1_000, 10_000, 100_000];
/// Largest size the exhaustive engine runs at.
pub const EXHAUSTIVE_CEILING: usize = 1_000;

/// Causal-by-construction replicated-store history: every process
/// applies the global write sequence in order with a small random lag,
/// so reads always return causally consistent values. Write-distinct by
/// construction (fresh `Value` per write).
pub fn causal_history(seed: u64, ops: usize) -> History {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut h = History::new();
    let mut replicas = vec![std::collections::HashMap::new(); PROCS as usize];
    let mut applied = vec![0usize; PROCS as usize];
    let mut writes: Vec<(VarId, Value)> = Vec::new();
    let mut seq = 0u32;
    for i in 0..ops {
        let proc = rng.gen_range(0u32..PROCS) as u16;
        let var = VarId(rng.gen_range(0u32..VARS));
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
            // A writer is up to date with its own store before writing.
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
    h
}

/// [`causal_history`] with a stale-read violation appended: a writer
/// overwrites its own value and a second process reads the two values
/// in the inverted order — the screen's `WriteCoRead` pattern.
pub fn stale_read_history(seed: u64, ops: usize) -> History {
    let mut h = causal_history(seed, ops);
    let w = ProcId::new(SystemId(0), 0);
    let r = ProcId::new(SystemId(0), 1);
    let x = VarId(0);
    let (v1, v2) = (Value::new(w, u32::MAX - 1), Value::new(w, u32::MAX));
    let at = |k: u64| SimTime::from_nanos(ops as u64 + k);
    h.record(OpRecord::write(w, x, v1, at(0)));
    h.record(OpRecord::write(w, x, v2, at(1)));
    h.record(OpRecord::read(r, x, Some(v2), at(2)));
    h.record(OpRecord::read(r, x, Some(v1), at(3)));
    h
}

/// [`causal_history`] with the CM-vs-CC separator appended: screen-clean
/// but not causal; only the fast path's happens-before **saturation**
/// (or the exhaustive search) catches it.
pub fn saturation_history(seed: u64, ops: usize) -> History {
    let mut h = causal_history(seed, ops);
    let pa = ProcId::new(SystemId(0), 0);
    let pb = ProcId::new(SystemId(0), 1);
    // A fresh variable keeps the appended scenario independent of the
    // random prefix.
    let x = VarId(VARS);
    let (v1, v2) = (Value::new(pa, u32::MAX), Value::new(pb, u32::MAX));
    let at = |k: u64| SimTime::from_nanos(ops as u64 + k);
    h.record(OpRecord::write(pa, x, v1, at(0)));
    h.record(OpRecord::write(pb, x, v2, at(1)));
    h.record(OpRecord::read(pb, x, Some(v1), at(2)));
    h.record(OpRecord::read(pb, x, Some(v2), at(3)));
    h
}

/// [`causal_history`] made non-write-distinct: the first write's
/// `(variable, value)` pair is written again by another process,
/// forcing `causal::check` off the fast path.
pub fn duplicated_history(seed: u64, ops: usize) -> History {
    let mut h = causal_history(seed, ops);
    let first_write = h.iter().find(|r| r.kind.is_write()).copied();
    if let Some(rec) = first_write {
        let p = ProcId::new(SystemId(0), (PROCS - 1) as u16);
        let at = SimTime::from_nanos(ops as u64);
        h.record(OpRecord::write(
            p,
            rec.var,
            rec.written_value().expect("write"),
            at,
        ));
    }
    h
}

const SWEEP_SEED: u64 = 0x5CA1E;

/// The deterministic sweep table shared by `run()` and the tests:
/// per size, both engines' verdicts and step counts (the exhaustive
/// engine only up to `exhaustive_ceiling`).
fn sweep_report(sizes: &[usize], exhaustive_ceiling: usize) -> String {
    let mut out = String::new();
    let mut t = Table::new(
        format!(
            "checker scaling on causal replicated-store histories \
             ({PROCS} procs, {VARS} vars, seed {SWEEP_SEED:#x})"
        ),
        &[
            "ops",
            "fast verdict",
            "fast steps",
            "exhaustive verdict",
            "exhaustive steps",
        ],
    );
    for &ops in sizes {
        let h = causal_history(SWEEP_SEED, ops);
        let fast = causal::check(&h);
        assert_eq!(fast.engine, CheckEngine::FastPath, "{ops} ops");
        let (ex_verdict, ex_steps) = if ops <= exhaustive_ceiling {
            let ex = causal::check_exhaustive(&h);
            (
                super::causal_cell(&ex.verdict).to_string(),
                ex.steps.to_string(),
            )
        } else {
            ("—".into(), "—".into())
        };
        t.row(&[
            ops.to_string(),
            super::causal_cell(&fast.verdict).to_string(),
            fast.steps.to_string(),
            ex_verdict,
            ex_steps,
        ]);
    }
    out.push_str(&t.to_string());
    out
}

/// The adversarial arms: injected violations (the fast path must name
/// the bad pattern) and the non-write-distinct fallback.
fn adversarial_report() -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "adversarial arms (10k-op prefix unless noted)",
        &["arm", "engine", "verdict", "evidence"],
    );
    for (label, h) in [
        (
            "stale read injected".to_string(),
            stale_read_history(SWEEP_SEED, 10_000),
        ),
        (
            "saturation-only violation (CM separator)".to_string(),
            saturation_history(SWEEP_SEED, 10_000),
        ),
    ] {
        let report = causal::check(&h);
        let evidence = match &report.verdict {
            CausalVerdict::NotCausal(v) => v.detail.clone(),
            other => format!("UNEXPECTED: {other:?}"),
        };
        t.row(&[
            label,
            report.engine.to_string(),
            super::causal_cell(&report.verdict).to_string(),
            evidence,
        ]);
    }
    let dup = duplicated_history(SWEEP_SEED, 200);
    let report = causal::check(&dup);
    t.row(&[
        "duplicated write (200 ops, non-write-distinct)".into(),
        report.engine.to_string(),
        super::causal_cell(&report.verdict).to_string(),
        "falls back off the fast path".into(),
    ]);
    out.push_str(&t.to_string());
    out
}

/// Deterministic registry report (no wall-clock numbers).
pub fn run() -> String {
    let mut out = String::new();
    out.push_str(&sweep_report(&SIZES, EXHAUSTIVE_CEILING));
    out.push_str(&adversarial_report());
    let parity = litmus_parity();
    out.push_str(&format!(
        "\nlitmus zoo parity (default engine vs exhaustive oracle): {}\n\
         these facts are pinned in BENCH_CHECK.json (`exp x19 --check`);\n\
         checker wall time is measured by benchmark/\n\
         (checker.causal.check_s).\n",
        if parity {
            "agree on all histories"
        } else {
            "DISAGREE"
        }
    ));
    out
}

/// Whether the default engine agrees with the exhaustive oracle on the
/// whole litmus zoo.
fn litmus_parity() -> bool {
    litmus::all()
        .iter()
        .all(|(_, h)| causal::check(h).is_causal() == causal::check_exhaustive(h).is_causal())
}

/// The `BENCH_CHECK.json` artifact: the sweep's structural facts.
pub fn measure() -> Json {
    let mut fast_all_causal = true;
    let mut fast_definitive = true;
    let mut exhaustive_agree_small = true;
    for &ops in &SIZES {
        let h = causal_history(SWEEP_SEED, ops);
        let report = causal::check(&h);
        fast_all_causal &= report.is_causal();
        fast_definitive &=
            report.verdict != CausalVerdict::Unknown && report.engine == CheckEngine::FastPath;
        if ops <= EXHAUSTIVE_CEILING {
            let ex = causal::check_exhaustive(&h);
            exhaustive_agree_small &= ex.is_causal() == report.is_causal();
        }
    }

    // Violation arms: both must be detected, by the fast path.
    let mut violations_detected = 0u64;
    for h in [
        stale_read_history(SWEEP_SEED, 10_000),
        saturation_history(SWEEP_SEED, 10_000),
    ] {
        let report = causal::check(&h);
        if report.engine == CheckEngine::FastPath
            && matches!(report.verdict, CausalVerdict::NotCausal(_))
        {
            violations_detected += 1;
        }
    }
    let fallback_off_fast_path =
        causal::check(&duplicated_history(SWEEP_SEED, 200)).engine != CheckEngine::FastPath;

    Json::obj([
        ("experiment", Json::Str("X19 checker scaling".into())),
        (
            "structural",
            Json::obj([
                (
                    "sizes",
                    Json::Arr(SIZES.iter().map(|&s| (s as u64).to_json()).collect()),
                ),
                ("procs", u64::from(PROCS).to_json()),
                ("vars", u64::from(VARS).to_json()),
                ("fast_all_causal", fast_all_causal.to_json()),
                ("fast_definitive", fast_definitive.to_json()),
                ("exhaustive_agree_small", exhaustive_agree_small.to_json()),
                ("violations_detected", violations_detected.to_json()),
                ("fallback_off_fast_path", fallback_off_fast_path.to_json()),
                ("litmus_parity", litmus_parity().to_json()),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x19_sweep_report_is_deterministic() {
        // Debug builds keep the determinism check small; the full-size
        // report is pinned by `experiments_output.txt` in release.
        let a = sweep_report(&[100, 400], 400);
        let b = sweep_report(&[100, 400], 400);
        assert_eq!(a, b);
    }

    #[test]
    fn x19_generators_have_the_advertised_shapes() {
        let h = causal_history(7, 500);
        assert!(h.validate_differentiated().is_ok());
        let report = causal::check(&h);
        assert_eq!(report.engine, CheckEngine::FastPath);
        assert!(report.is_causal());

        let stale = causal::check(&stale_read_history(7, 500));
        assert_eq!(stale.engine, CheckEngine::FastPath);
        assert!(matches!(stale.verdict, CausalVerdict::NotCausal(_)));

        let sat = saturation_history(7, 500);
        assert!(
            cmi_checker::screen::screen(&sat).is_clean(),
            "the separator must be invisible to the screen"
        );
        let sat_report = causal::check(&sat);
        assert_eq!(sat_report.engine, CheckEngine::FastPath);
        assert!(matches!(sat_report.verdict, CausalVerdict::NotCausal(_)));

        let dup = duplicated_history(7, 200);
        assert!(dup.validate_differentiated().is_err());
        assert_ne!(causal::check(&dup).engine, CheckEngine::FastPath);
    }

    #[test]
    fn x19_injected_violations_agree_with_the_exhaustive_oracle() {
        for h in [stale_read_history(11, 120), saturation_history(11, 120)] {
            assert!(!causal::check(&h).is_causal());
            assert!(!causal::check_exhaustive(&h).is_causal());
        }
    }
}
