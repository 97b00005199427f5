//! The four scenario workloads and their generator.
//!
//! Sizes are fixed; `--seed` only sets the scenario's world seed (and,
//! for `chaos_lossy`, the chaos seed derived from it), so every seed
//! runs the same amount of work over different random choices. The
//! program under test receives nothing but the generated JSON text.

use cmi_obs::{Json, ToJson};

/// Label of the chaos-seed stream: `chaos.seed = derive_seed(seed, CHAOS_LABEL) >> 11`
/// (JSON numbers are exact up to 2^53).
const CHAOS_LABEL: u64 = 0xC4A05;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hub256Wide,
    PairDeep,
    ChaosLossy,
    IslandsSharded,
}

/// Every workload, in the order the full run executes them.
pub const ALL: [Workload; 4] = [
    Workload::Hub256Wide,
    Workload::PairDeep,
    Workload::ChaosLossy,
    Workload::IslandsSharded,
];

/// Operations per process of `pair_deep` (the standalone-MCS cuts of the
/// traced run reuse it: they are `pair_deep`'s halves without the link).
pub const PAIR_DEEP_OPS: u64 = 1200;

/// Worker threads `islands_sharded` runs on (the only workload with
/// more than one).
pub const SHARDS: usize = 2;

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hub256Wide => "hub256_wide",
            Workload::PairDeep => "pair_deep",
            Workload::ChaosLossy => "chaos_lossy",
            Workload::IslandsSharded => "islands_sharded",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the workload that runs through `run_sharded`.
    pub fn sharded(self) -> bool {
        self == Workload::IslandsSharded
    }

    /// The scenario JSON text for `seed`; `quick` shrinks it to ~1/20.
    pub fn scenario_text(self, seed: u64, quick: bool) -> String {
        // Seeds travel as JSON numbers: keep them exactly representable.
        let seed = seed & ((1 << 53) - 1);
        let scenario = match self {
            Workload::Hub256Wide => hub256_wide(seed, quick),
            Workload::PairDeep => pair_deep(seed, quick),
            Workload::ChaosLossy => chaos_lossy(seed, quick),
            Workload::IslandsSharded => islands_sharded(seed, quick),
        };
        scenario.to_pretty() + "\n"
    }
}

fn num(n: u64) -> Json {
    n.to_json()
}

fn system(name: String, protocol: &str, processes: u64) -> Json {
    Json::obj([
        ("name", Json::Str(name)),
        ("protocol", Json::Str(protocol.into())),
        ("processes", num(processes)),
    ])
}

fn workload(ops_per_proc: u64, write_fraction: f64, mean_gap_ms: u64) -> Json {
    Json::obj([
        ("ops_per_proc", num(ops_per_proc)),
        ("write_fraction", Json::Num(write_fraction)),
        ("mean_gap_ms", num(mean_gap_ms)),
    ])
}

fn checks() -> Json {
    Json::Arr(vec![Json::Str("causal".into())])
}

/// Wide and shallow: 256 one-process systems under a shared-IS hub of
/// hubs, write-only, so IS-process + transport ack/timer traffic, 257
/// per-system checks, 65k metric series and report bytes dominate.
fn hub256_wide(seed: u64, quick: bool) -> Json {
    let (systems, ops) = if quick { (64, 3) } else { (256, 4) };
    Json::obj([
        ("seed", num(seed)),
        ("vars", num(2)),
        ("topology", Json::Str("shared".into())),
        (
            "topology_spec",
            Json::obj([
                ("shape", Json::Str("hub_of_hubs".into())),
                ("systems", num(systems)),
                ("fanout", num(8)),
                ("protocol", Json::Str("ahamad".into())),
                ("processes", num(1)),
                ("delay_ms", num(2)),
                ("reliable", Json::obj([("rto_ms", num(80))])),
            ]),
        ),
        ("workload", workload(ops, 1.0, 2)),
        ("checks", checks()),
    ])
}

/// An Ahamad and a Frontier system of `procs` processes each, joined by
/// one reliable 10 ms link.
fn reliable_pair(tag: &str, procs: u64, first_index: u64) -> (Vec<Json>, Json) {
    let systems = vec![
        system(format!("A{tag}"), "ahamad", procs),
        system(format!("F{tag}"), "frontier", procs),
    ];
    let link = Json::obj([
        ("a", num(first_index)),
        ("b", num(first_index + 1)),
        ("delay_ms", num(10)),
        ("reliable", Json::obj([("rto_ms", num(100))])),
    ]);
    (systems, link)
}

/// Narrow and deep: two 8-process systems, long histories, so MCS
/// broadcast, the checker and per-write report work dominate.
fn pair_deep(seed: u64, quick: bool) -> Json {
    let (systems, link) = reliable_pair("", 8, 0);
    Json::obj([
        ("seed", num(seed)),
        ("vars", num(8)),
        ("systems", Json::Arr(systems)),
        ("links", Json::Arr(vec![link])),
        (
            "workload",
            workload(PAIR_DEEP_OPS / if quick { 20 } else { 1 }, 0.5, 2),
        ),
        ("checks", checks()),
    ])
}

/// The transport and checker layers under loss: retransmit, backoff,
/// dedup and degraded coalescing over lossy links with partitions, the
/// online monitor live. No churn and no crashes: see
/// `known_bad/churn_loss.json`.
fn chaos_lossy(seed: u64, quick: bool) -> Json {
    let protocols = ["ahamad", "frontier", "ahamad", "frontier"];
    let systems = protocols
        .iter()
        .enumerate()
        .map(|(i, p)| system(format!("S{i}"), p, 4))
        .collect();
    let links = [(0, 1), (1, 2), (1, 3)]
        .iter()
        .map(|&(a, b)| {
            Json::obj([
                ("a", num(a)),
                ("b", num(b)),
                ("delay_ms", num(4)),
                (
                    "faults",
                    Json::obj([
                        ("drop", Json::Num(0.05)),
                        ("duplicate", Json::Num(0.02)),
                        ("corrupt", Json::Num(0.02)),
                    ]),
                ),
                ("reliable", Json::obj([("rto_ms", num(30))])),
            ])
        })
        .collect();
    let (ops, horizon_ms, partitions) = if quick {
        (60, 240, 2)
    } else {
        (1200, 4800, 13)
    };
    Json::obj([
        ("seed", num(seed)),
        ("vars", num(6)),
        ("systems", Json::Arr(systems)),
        ("links", Json::Arr(links)),
        ("workload", workload(ops, 0.5, 4)),
        ("checks", checks()),
        ("monitor", Json::Bool(true)),
        (
            "chaos",
            Json::obj([
                ("seed", num(cmi_sim::derive_seed(seed, CHAOS_LABEL) >> 11)),
                ("horizon_ms", num(horizon_ms)),
                (
                    "partitions",
                    Json::obj([
                        ("count", num(partitions)),
                        ("min_ms", num(20)),
                        ("max_ms", num(120)),
                    ]),
                ),
            ]),
        ),
    ])
}

/// Four disconnected pairs: the sharded engine's two worker threads
/// plus the deterministic merge through `assemble_report`.
fn islands_sharded(seed: u64, quick: bool) -> Json {
    let mut systems = Vec::new();
    let mut links = Vec::new();
    for island in 0..4 {
        let (pair, link) = reliable_pair(&island.to_string(), 6, 2 * island);
        systems.extend(pair);
        links.push(link);
    }
    Json::obj([
        ("seed", num(seed)),
        ("vars", num(8)),
        ("systems", Json::Arr(systems)),
        ("links", Json::Arr(links)),
        ("workload", workload(if quick { 16 } else { 320 }, 0.5, 2)),
        ("checks", checks()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DEFAULT_SEED;
    use cmi_cli::Scenario;

    #[test]
    fn committed_scenarios_are_the_generator_output_at_the_default_seed() {
        for w in ALL {
            let path = format!("{}/scenarios/{}.json", crate::BENCH_DIR, w.name());
            let committed = std::fs::read_to_string(&path).unwrap();
            assert_eq!(committed, w.scenario_text(DEFAULT_SEED, false), "{path}");
        }
    }

    #[test]
    fn every_generated_scenario_validates_at_both_sizes() {
        for w in ALL {
            for quick in [false, true] {
                let s = Scenario::from_json(&w.scenario_text(7, quick)).unwrap();
                assert_eq!(s.seed, 7);
                assert_eq!(s.checks, vec!["causal"]);
            }
        }
    }

    #[test]
    fn seed_changes_only_the_seeds() {
        let strip = |text: String| -> String {
            text.lines()
                .filter(|l| !l.trim_start().starts_with("\"seed\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for w in ALL {
            let (a, b) = (w.scenario_text(1, false), w.scenario_text(2, false));
            assert_ne!(a, b);
            assert_eq!(strip(a), strip(b));
        }
        // The chaos seed is derived, not copied.
        let s = Scenario::from_json(&Workload::ChaosLossy.scenario_text(42, false)).unwrap();
        assert_ne!(s.chaos.unwrap().seed, Some(42));
    }

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
