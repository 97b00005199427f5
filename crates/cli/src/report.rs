//! Rendering of run results for the terminal.

use cmi_checker::{cache, causal, linearizable, pram, sequential, session};
use cmi_core::RunReport;

use crate::scenario::Scenario;

/// Renders the full report for a scenario run: outcome, traffic,
/// requested consistency checks on `α^T` and on every `α^k`.
pub fn render_report(scenario: &Scenario, report: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "outcome: {:?}\nmessages: {} total, {} crossed between systems\n",
        report.outcome(),
        report.stats().total_messages(),
        report.stats().crossings(),
    ));
    let global = report.global_history();
    let metrics = cmi_checker::metrics::measure(&global);
    out.push_str(&format!(
        "α^T: {} operations ({} writes / {} reads) by {} processes over {} variables\n\
         concurrency: {:.0}% of write pairs concurrent, longest causal write chain {}\n",
        metrics.ops,
        metrics.writes,
        metrics.reads,
        metrics.procs,
        metrics.vars,
        metrics.write_concurrency * 100.0,
        metrics.longest_write_chain,
    ));

    let system_names = scenario.system_names();
    let alphas = report.system_histories();
    for check in &scenario.checks {
        out.push_str(&format!("\n[{check}]\n"));
        // The union.
        out.push_str(&format!("  α^T: {}\n", verdict_line(check, &global)));
        // Each constituent system (generated `S{i}` names when the
        // scenario expands a topology_spec).
        for (k, (name, alpha_k)) in system_names.iter().zip(&alphas).enumerate() {
            out.push_str(&format!(
                "  α^{k} ({name}): {}\n",
                verdict_line(check, alpha_k)
            ));
        }
    }

    if scenario.trace {
        out.push_str(&format!(
            "\ntrace: {} events recorded\n",
            report.trace().len()
        ));
    }
    if let Some(lin) = report.lineage() {
        let max_hop = lin.updates().iter().map(|&u| lin.max_hop(u)).max();
        out.push_str(&format!(
            "\nlineage: {} updates traced across {} lifecycle events, max hop {}\n",
            lin.updates().len(),
            lin.len(),
            max_hop.unwrap_or(0),
        ));
    }
    if let Some(mon) = report.monitor() {
        out.push_str("\n[monitor]\n");
        for line in mon.summary().lines() {
            out.push_str(&format!("  {line}\n"));
        }
    }
    if let Some(t) = report.telemetry() {
        out.push_str("\n[telemetry]\n");
        for line in t.summary().lines() {
            out.push_str(&format!("  {line}\n"));
        }
    }
    out
}

fn verdict_line(check: &str, history: &cmi_types::History) -> String {
    match check {
        "causal" => {
            let r = causal::check(history);
            match &r.verdict {
                causal::CausalVerdict::Causal => format!("causal ✓ ({} steps)", r.steps),
                causal::CausalVerdict::NotCausal(v) => format!("NOT causal ✗ — {v}"),
                causal::CausalVerdict::Unknown => "unknown (budget exhausted)".into(),
            }
        }
        "sequential" => match sequential::check(history) {
            sequential::SequentialVerdict::Sequential(_) => "sequentially consistent ✓".into(),
            sequential::SequentialVerdict::NotSequential => "NOT sequentially consistent ✗".into(),
            sequential::SequentialVerdict::Unknown => "unknown (budget exhausted)".into(),
        },
        "pram" => {
            let r = pram::check(history);
            match r.verdict {
                pram::PramVerdict::Pram => "PRAM ✓".into(),
                pram::PramVerdict::NotPram { proc } => format!("NOT PRAM ✗ (process {proc})"),
                pram::PramVerdict::Unknown => "unknown (budget exhausted)".into(),
            }
        }
        "linearizable" => match linearizable::check(history) {
            linearizable::LinearizableVerdict::Linearizable(_) => "linearizable ✓".into(),
            linearizable::LinearizableVerdict::NotLinearizable => "NOT linearizable ✗".into(),
            linearizable::LinearizableVerdict::Unknown => "unknown (budget exhausted)".into(),
        },
        "session" => {
            let r = session::check(history);
            match r.verdict {
                session::SessionVerdict::Session => "session guarantees ✓".into(),
                session::SessionVerdict::NotSession { proc } => {
                    format!("session guarantees violated ✗ (process {proc})")
                }
                session::SessionVerdict::Unknown => "unknown (budget exhausted)".into(),
            }
        }
        "cache" => match cache::check(history) {
            cache::CacheVerdict::CacheConsistent => "cache consistent ✓".into(),
            cache::CacheVerdict::NotCacheConsistent { var } => {
                format!("NOT cache consistent ✗ (variable {var})")
            }
            cache::CacheVerdict::Unknown { var } => {
                format!("unknown (budget exhausted on {var})")
            }
        },
        other => format!("unknown check '{other}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmi_types::SystemId;

    #[test]
    fn report_renders_all_checks() {
        let scenario = Scenario::from_json(
            r#"{
                "systems": [
                    { "name": "A", "protocol": "ahamad", "processes": 2 },
                    { "name": "B", "protocol": "ahamad", "processes": 2 }
                ],
                "links": [ { "a": 0, "b": 1, "delay_ms": 5 } ],
                "workload": { "ops_per_proc": 4 },
                "checks": ["causal", "sequential", "pram", "cache"]
            }"#,
        )
        .unwrap();
        let report = scenario.run().unwrap();
        let text = render_report(&scenario, &report);
        assert!(text.contains("[causal]"));
        assert!(text.contains("causal ✓"));
        assert!(text.contains("[pram]"));
        assert!(text.contains("[cache]"));
        assert!(text.contains("α^0 (A)"));
        assert!(text.contains("α^1 (B)"));
    }

    /// The check section as it was rendered before `system_histories`
    /// existed: one `system_history(k)` filter per system and check.
    fn check_section_by_filtering(scenario: &Scenario, report: &RunReport) -> String {
        let global = report.global_history();
        let mut out = String::new();
        for check in &scenario.checks {
            out.push_str(&format!("\n[{check}]\n"));
            out.push_str(&format!("  α^T: {}\n", verdict_line(check, &global)));
            for (k, name) in scenario.system_names().iter().enumerate() {
                let alpha_k = report.system_history(SystemId(k as u16));
                out.push_str(&format!(
                    "  α^{k} ({name}): {}\n",
                    verdict_line(check, &alpha_k)
                ));
            }
        }
        out
    }

    #[test]
    fn one_pass_split_equals_per_system_filtering_on_every_shipped_scenario() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            seen += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let scenario = Scenario::from_json(&text).unwrap();
            let report = scenario.run().unwrap();
            let alphas = report.system_histories();
            assert_eq!(alphas.len(), scenario.system_count(), "{path:?}");
            for (k, alpha_k) in alphas.iter().enumerate() {
                assert_eq!(
                    alpha_k.as_slice(),
                    report.system_history(SystemId(k as u16)).as_slice(),
                    "{path:?}: α^{k}"
                );
            }
            let rendered = render_report(&scenario, &report);
            let expected = check_section_by_filtering(&scenario, &report);
            assert!(
                rendered.contains(&expected),
                "{path:?}: rendered\n{rendered}\nexpected to contain\n{expected}"
            );
        }
        assert!(seen >= 7, "scenario directory found: {seen} files");
    }
}
