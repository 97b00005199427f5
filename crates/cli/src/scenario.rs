//! Scenario files: a JSON description of an interconnected world, its
//! workload and the consistency checks to run.
//!
//! ```json
//! {
//!   "seed": 42,
//!   "vars": 4,
//!   "topology": "pairwise",
//!   "systems": [
//!     { "name": "A", "protocol": "ahamad", "processes": 3 },
//!     { "name": "B", "protocol": "frontier", "processes": 2 }
//!   ],
//!   "links": [ { "a": 0, "b": 1, "delay_ms": 10 } ],
//!   "workload": { "ops_per_proc": 20, "write_fraction": 0.5, "mean_gap_ms": 5 },
//!   "checks": ["causal", "sequential"]
//! }
//! ```
//!
//! Large interconnections skip the hand-written arrays: a
//! `topology_spec` block names a generated shape instead (see
//! [`TopologyEntry`]):
//!
//! ```json
//! {
//!   "topology_spec": { "shape": "hub_of_hubs", "systems": 64, "fanout": 8 },
//!   "topology": "shared",
//!   "workload": { "ops_per_proc": 4 }
//! }
//! ```
//!
//! [`Scenario::validate`] rejects, one line naming the field, every
//! number the simulator cannot represent: a `*_ms` field above 2^32 ms
//! (and a workload whose `ops_per_proc × mean_gap_ms` exceeds that), a
//! zero dial-up period or up window, a probability outside [0, 1].

use std::fmt;
use std::time::Duration;

use cmi_core::{
    parse_topology, BuildError, InterconnectBuilder, IsTopology, LinkSpec, ReliableConfig,
    RunReport, SystemSpec, TopologySpec, World,
};
use cmi_memory::{ProtocolKind, WorkloadSpec};
use cmi_obs::{Json, TelemetryConfig, ToJson, WatchKind, WatchdogSpec};
use cmi_sim::{
    sort_schedule, Availability, ChannelSpec, ChaosEvent, ChaosEventKind, ChaosSpec, FaultSpec,
};
use cmi_types::SimTime;

/// Errors loading or validating a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// JSON syntax / shape error.
    Parse(String),
    /// Semantically invalid scenario.
    Invalid(String),
    /// Topology rejected by the builder.
    Build(BuildError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "scenario parse error: {e}"),
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::Build(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<BuildError> for ScenarioError {
    fn from(e: BuildError) -> Self {
        ScenarioError::Build(e)
    }
}

/// One system in a scenario file.
#[derive(Debug, Clone)]
pub struct SystemEntry {
    /// Display name.
    pub name: String,
    /// Protocol: `ahamad` | `frontier` | `sequencer` | `eager-fifo` |
    /// `var-seq`.
    pub protocol: String,
    /// Application process count.
    pub processes: usize,
    /// Intra-system mesh delay (default 1 ms).
    pub intra_delay_ms: u64,
}

/// Dial-up availability window of a link.
#[derive(Debug, Clone, Copy)]
pub struct DialupEntry {
    /// Full period.
    pub period_ms: u64,
    /// Up time at the start of each period.
    pub up_ms: u64,
}

/// Probabilistic fault rates of a link's channel (all default 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultsEntry {
    /// Per-message drop probability.
    pub drop: f64,
    /// Per-message duplication probability.
    pub duplicate: f64,
    /// Per-message reordering probability.
    pub reorder: f64,
    /// Extra delay bound for reordered messages.
    pub reorder_window_ms: u64,
    /// Per-message corruption probability.
    pub corrupt: f64,
}

/// Reliable-transport sublayer settings of a link.
#[derive(Debug, Clone, Copy)]
pub struct ReliableEntry {
    /// Base retransmission timeout (default 100 ms).
    pub rto_ms: u64,
    /// Retry cap before a frame is abandoned (default 10).
    pub max_retries: u32,
    /// Send-queue bound before degraded coalescing (default 1024).
    pub max_queue: usize,
    /// Head-of-queue age that triggers degraded mode (default 500 ms).
    pub degraded_after_ms: u64,
}

/// Scripted IS-process crash schedule of a link end.
#[derive(Debug, Clone)]
pub struct CrashEntry {
    /// Which end crashes: `"a"` or `"b"` (default `"b"`).
    pub side: String,
    /// `(down_ms, up_ms)` outage windows, ordered and disjoint.
    pub windows: Vec<(u64, u64)>,
}

/// One link in a scenario file (indices into `systems`).
#[derive(Debug, Clone)]
pub struct LinkEntry {
    /// First system index.
    pub a: usize,
    /// Second system index.
    pub b: usize,
    /// Base delay.
    pub delay_ms: u64,
    /// Uniform jitter bound (FIFO preserved).
    pub jitter_ms: u64,
    /// Optional dial-up schedule.
    pub dialup: Option<DialupEntry>,
    /// Optional X14 batching window (pairs per flush).
    pub batch_ms: Option<u64>,
    /// Optional fault injection on the channel.
    pub faults: Option<FaultsEntry>,
    /// Optional reliable-transport sublayer.
    pub reliable: Option<ReliableEntry>,
    /// Optional scripted IS-process crash schedule.
    pub crash: Option<CrashEntry>,
}

/// One rate block of a chaos schedule: `count` windows, each lasting
/// `min_ms..=max_ms` virtual milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct ChaosRateEntry {
    /// Windows to attempt (overlapping draws on one target are pruned).
    pub count: u32,
    /// Shortest window.
    pub min_ms: u64,
    /// Longest window.
    pub max_ms: u64,
}

/// Seeded chaos block: compiled into a deterministic schedule of
/// partition/heal, crash/recover and detach/attach events.
#[derive(Debug, Clone)]
pub struct ChaosEntry {
    /// Schedule seed (defaults to the scenario seed).
    pub seed: Option<u64>,
    /// Window starts are drawn from `[0, horizon_ms)`.
    pub horizon_ms: u64,
    /// Partition→heal windows over the inter-system links.
    pub partitions: Option<ChaosRateEntry>,
    /// Crash→recover windows over the IS-processes.
    pub crashes: Option<ChaosRateEntry>,
    /// Detach→attach churn cycles over the linked systems.
    pub churn: Option<ChaosRateEntry>,
}

/// One scripted membership event.
#[derive(Debug, Clone)]
pub struct MembershipEventEntry {
    /// Virtual instant of the event.
    pub at_ms: u64,
    /// `"attach"` or `"detach"`.
    pub op: String,
    /// Target system index.
    pub system: usize,
}

/// Membership block: systems that start outside the interconnection
/// plus scripted attach/detach events.
#[derive(Debug, Clone)]
pub struct MembershipEntry {
    /// Systems built detached (their links carry no traffic in epoch 0).
    pub start_detached: Vec<usize>,
    /// Scripted membership events, merged with any compiled chaos.
    pub events: Vec<MembershipEventEntry>,
}

/// One declarative health watchdog of a telemetry block.
#[derive(Debug, Clone)]
pub struct WatchdogEntry {
    /// Watched registry metric (counter or gauge) by name.
    pub metric: String,
    /// `"above"` | `"below"` | `"rate_above"`.
    pub kind: String,
    /// Threshold (for `rate_above`: per virtual second).
    pub limit: f64,
}

/// Telemetry block: flight-recorder sampling of the metric registry at
/// a virtual-time cadence, with optional health watchdogs.
#[derive(Debug, Clone)]
pub struct TelemetryEntry {
    /// Sampling cadence in virtual milliseconds (default 1).
    pub every_ms: u64,
    /// Ring capacity before downsampling (default 4096).
    pub capacity: Option<u64>,
    /// Health watchdogs evaluated at every sample.
    pub watchdogs: Vec<WatchdogEntry>,
}

impl TelemetryEntry {
    /// The builder-level config this block describes. Only valid after
    /// [`Scenario::validate`] accepted the watchdog kinds.
    fn to_config(&self) -> TelemetryConfig {
        let mut cfg = TelemetryConfig::default().with_every_ms(self.every_ms);
        if let Some(cap) = self.capacity {
            cfg = cfg.with_capacity(cap as usize);
        }
        for w in &self.watchdogs {
            let kind = WatchKind::parse(&w.kind).expect("kinds checked by validate()");
            cfg = cfg.with_watchdog(WatchdogSpec::new(&*w.metric, kind, w.limit));
        }
        cfg
    }
}

/// Generated-topology section: one named shape expanded into `systems`
/// uniform systems and the `systems − 1` tree links, replacing the
/// hand-written `systems`/`links` arrays (mutually exclusive with
/// both). Generated systems are named `S0`, `S1`, ….
///
/// ```json
/// { "topology_spec": { "shape": "hub_of_hubs", "systems": 64, "fanout": 8 } }
/// ```
#[derive(Debug, Clone)]
pub struct TopologyEntry {
    /// Shape: `chain` | `star` | `tree` | `hub_of_hubs`.
    pub shape: String,
    /// System count `m` (≥ 1).
    pub systems: usize,
    /// Children per node (`tree`) / leaves per mid-tier hub
    /// (`hub_of_hubs`); default 4, rejected for `chain`/`star`.
    pub fanout: Option<usize>,
    /// Protocol of every generated system (default `ahamad`).
    pub protocol: String,
    /// Application processes per system (default 1).
    pub processes: usize,
    /// Fixed inter-system link delay in ms (default 2).
    pub delay_ms: u64,
    /// Reliable framed transport on every generated link (default
    /// plain channels).
    pub reliable: Option<ReliableEntry>,
}

/// Workload section.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadEntry {
    /// Operations per application process.
    pub ops_per_proc: u32,
    /// Fraction of writes (default 0.5).
    pub write_fraction: f64,
    /// Mean think time (default 5 ms).
    pub mean_gap_ms: u64,
}

/// A full scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// World seed (determinism; default 0).
    pub seed: u64,
    /// Shared variable count (default 4).
    pub vars: usize,
    /// `pairwise` (default) or `shared` IS allocation.
    pub topology: Option<String>,
    /// Generated shape replacing `systems`/`links` (default none).
    pub topology_spec: Option<TopologyEntry>,
    /// Systems to interconnect (empty iff `topology_spec` is set).
    pub systems: Vec<SystemEntry>,
    /// Tree links between them.
    pub links: Vec<LinkEntry>,
    /// Workload to run.
    pub workload: WorkloadEntry,
    /// Checks: any of `causal`, `sequential`, `pram`, `cache`,
    /// `linearizable`, `session` (default: `causal`).
    pub checks: Vec<String>,
    /// Record the simulator trace (default off).
    pub trace: bool,
    /// Record causal lineage — the per-update lifecycle across the
    /// interconnection, exportable as a Chrome trace (default off).
    pub lineage: bool,
    /// Run the online causal monitor: incremental checking during the
    /// run, first-violation alerting, live health metrics (default off).
    pub monitor: bool,
    /// Seeded chaos schedule (default none).
    pub chaos: Option<ChaosEntry>,
    /// Membership: initial detachment and scripted attach/detach
    /// events (default none).
    pub membership: Option<MembershipEntry>,
    /// Flight-recorder telemetry: sampling cadence, ring capacity and
    /// health watchdogs (default none).
    pub telemetry: Option<TelemetryEntry>,
}

/// Largest value any `*_ms` field may take: 2^32 ms, about 50 days.
/// Virtual time is a `u64` of nanoseconds, about 4295 × 2^32 ms, so
/// every instant the engine forms from a bounded number of these fields
/// stays far from overflow: a link delay plus its jitter and reorder
/// window, a dial-up period, a retransmission timeout backed off 64×
/// plus 10 % jitter (about 70 limits), a chaos window's start plus its
/// length. The workload's own horizon, `ops_per_proc × mean_gap_ms`,
/// is held to the same limit.
const MAX_MS: u64 = 1 << 32;

// ---- decoding helpers over the in-tree JSON model ----------------------

fn parse_err(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Parse(msg.into())
}

/// A required member, with the owning object named in errors.
fn need<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, ScenarioError> {
    v.get(key)
        .ok_or_else(|| parse_err(format!("{ctx}: missing field {key:?}")))
}

fn get_u64(v: &Json, key: &str, ctx: &str, default: u64) -> Result<u64, ScenarioError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(m) => m
            .as_u64()
            .ok_or_else(|| parse_err(format!("{ctx}: {key} must be a non-negative integer"))),
    }
}

fn get_f64(v: &Json, key: &str, ctx: &str, default: f64) -> Result<f64, ScenarioError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(m) => m
            .as_f64()
            .ok_or_else(|| parse_err(format!("{ctx}: {key} must be a number"))),
    }
}

fn get_bool(v: &Json, key: &str, ctx: &str, default: bool) -> Result<bool, ScenarioError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(m) => m
            .as_bool()
            .ok_or_else(|| parse_err(format!("{ctx}: {key} must be a boolean"))),
    }
}

fn as_string(v: &Json, ctx: &str) -> Result<String, ScenarioError> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| parse_err(format!("{ctx} must be a string")))
}

/// Strict-schema guard for the chaos/membership blocks: any field not
/// in `allowed` is rejected by name, so a typo (`"horizonms"`) fails
/// loudly instead of silently falling back to a default.
fn reject_unknown_fields(v: &Json, ctx: &str, allowed: &[&str]) -> Result<(), ScenarioError> {
    let members = v
        .as_object()
        .ok_or_else(|| parse_err(format!("{ctx} must be an object")))?;
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(parse_err(format!(
                "{ctx}: unknown field {key:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

impl SystemEntry {
    fn decode(v: &Json, i: usize) -> Result<Self, ScenarioError> {
        let ctx = format!("systems[{i}]");
        Ok(SystemEntry {
            name: as_string(need(v, "name", &ctx)?, &format!("{ctx}.name"))?,
            protocol: as_string(need(v, "protocol", &ctx)?, &format!("{ctx}.protocol"))?,
            processes: need(v, "processes", &ctx)?
                .as_u64()
                .ok_or_else(|| parse_err(format!("{ctx}.processes must be an integer")))?
                as usize,
            intra_delay_ms: get_u64(v, "intra_delay_ms", &ctx, 1)?,
        })
    }
}

impl ReliableEntry {
    /// Decodes an optional `reliable` sub-object of `owner`.
    fn decode_opt(owner: &Json, ctx: &str) -> Result<Option<Self>, ScenarioError> {
        match owner.get("reliable") {
            None | Some(Json::Null) => Ok(None),
            Some(r) => {
                let rctx = format!("{ctx}.reliable");
                Ok(Some(ReliableEntry {
                    rto_ms: get_u64(r, "rto_ms", &rctx, 100)?,
                    max_retries: get_u64(r, "max_retries", &rctx, 10)? as u32,
                    max_queue: get_u64(r, "max_queue", &rctx, 1024)? as usize,
                    degraded_after_ms: get_u64(r, "degraded_after_ms", &rctx, 500)?,
                }))
            }
        }
    }

    /// The transport configuration this entry names.
    fn to_config(&self) -> ReliableConfig {
        ReliableConfig::default()
            .with_rto(Duration::from_millis(self.rto_ms))
            .with_max_retries(self.max_retries)
            .with_max_queue(self.max_queue)
            .with_degraded_after(Duration::from_millis(self.degraded_after_ms))
    }
}

impl TopologyEntry {
    fn decode(v: &Json) -> Result<Self, ScenarioError> {
        let ctx = "topology_spec";
        reject_unknown_fields(
            v,
            ctx,
            &[
                "shape",
                "systems",
                "fanout",
                "protocol",
                "processes",
                "delay_ms",
                "reliable",
            ],
        )?;
        let fanout = match v.get("fanout") {
            None | Some(Json::Null) => None,
            Some(f) => Some(
                f.as_u64()
                    .ok_or_else(|| parse_err(format!("{ctx}.fanout must be an integer")))?
                    as usize,
            ),
        };
        let protocol = match v.get("protocol") {
            None | Some(Json::Null) => "ahamad".to_string(),
            Some(p) => as_string(p, &format!("{ctx}.protocol"))?,
        };
        Ok(TopologyEntry {
            shape: as_string(need(v, "shape", ctx)?, &format!("{ctx}.shape"))?,
            systems: need(v, "systems", ctx)?
                .as_u64()
                .ok_or_else(|| parse_err(format!("{ctx}.systems must be an integer")))?
                as usize,
            fanout,
            protocol,
            processes: get_u64(v, "processes", ctx, 1)? as usize,
            delay_ms: get_u64(v, "delay_ms", ctx, 2)?,
            reliable: ReliableEntry::decode_opt(v, ctx)?,
        })
    }

    /// The cmi-core [`TopologySpec`] this entry names, re-parsed
    /// through the CLI's `shape:m[:fanout]` grammar so a scenario file
    /// and `--topology` reject exactly the same inputs (zero counts,
    /// fanout on chain/star, unknown shapes).
    fn to_spec(&self) -> Result<TopologySpec, ScenarioError> {
        if self.shape.contains(':') {
            // A ':' would silently re-segment the grammar below.
            return Err(ScenarioError::Invalid(format!(
                "topology_spec.shape {:?} must not contain ':'",
                self.shape
            )));
        }
        let text = match self.fanout {
            Some(f) => format!("{}:{}:{}", self.shape, self.systems, f),
            None => format!("{}:{}", self.shape, self.systems),
        };
        parse_topology(&text).map_err(ScenarioError::Invalid)
    }
}

impl LinkEntry {
    fn decode(v: &Json, i: usize) -> Result<Self, ScenarioError> {
        let ctx = format!("links[{i}]");
        let index = |key: &str| -> Result<usize, ScenarioError> {
            need(v, key, &ctx)?
                .as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| parse_err(format!("{ctx}.{key} must be a system index")))
        };
        let dialup = match v.get("dialup") {
            None | Some(Json::Null) => None,
            Some(d) => {
                let dctx = format!("{ctx}.dialup");
                Some(DialupEntry {
                    period_ms: get_u64(d, "period_ms", &dctx, 0)?,
                    up_ms: get_u64(d, "up_ms", &dctx, 0)?,
                })
            }
        };
        let batch_ms = match v.get("batch_ms") {
            None | Some(Json::Null) => None,
            Some(m) => Some(
                m.as_u64()
                    .ok_or_else(|| parse_err(format!("{ctx}.batch_ms must be an integer")))?,
            ),
        };
        let faults = match v.get("faults") {
            None | Some(Json::Null) => None,
            Some(f) => {
                let fctx = format!("{ctx}.faults");
                Some(FaultsEntry {
                    drop: get_f64(f, "drop", &fctx, 0.0)?,
                    duplicate: get_f64(f, "duplicate", &fctx, 0.0)?,
                    reorder: get_f64(f, "reorder", &fctx, 0.0)?,
                    reorder_window_ms: get_u64(f, "reorder_window_ms", &fctx, 20)?,
                    corrupt: get_f64(f, "corrupt", &fctx, 0.0)?,
                })
            }
        };
        let reliable = ReliableEntry::decode_opt(v, &ctx)?;
        let crash = match v.get("crash") {
            None | Some(Json::Null) => None,
            Some(c) => {
                let cctx = format!("{ctx}.crash");
                let side = match c.get("side") {
                    None | Some(Json::Null) => "b".to_string(),
                    Some(s) => as_string(s, &format!("{cctx}.side"))?,
                };
                let windows = need(c, "windows", &cctx)?
                    .as_array()
                    .ok_or_else(|| parse_err(format!("{cctx}.windows must be an array")))?
                    .iter()
                    .enumerate()
                    .map(|(w, win)| {
                        let wctx = format!("{cctx}.windows[{w}]");
                        Ok((
                            need(win, "down_ms", &wctx)?.as_u64().ok_or_else(|| {
                                parse_err(format!("{wctx}.down_ms must be an integer"))
                            })?,
                            need(win, "up_ms", &wctx)?.as_u64().ok_or_else(|| {
                                parse_err(format!("{wctx}.up_ms must be an integer"))
                            })?,
                        ))
                    })
                    .collect::<Result<Vec<_>, ScenarioError>>()?;
                Some(CrashEntry { side, windows })
            }
        };
        Ok(LinkEntry {
            a: index("a")?,
            b: index("b")?,
            delay_ms: get_u64(v, "delay_ms", &ctx, 0)?,
            jitter_ms: get_u64(v, "jitter_ms", &ctx, 0)?,
            dialup,
            batch_ms,
            faults,
            reliable,
            crash,
        })
    }
}

impl ChaosRateEntry {
    fn decode(v: &Json, ctx: &str) -> Result<Self, ScenarioError> {
        reject_unknown_fields(v, ctx, &["count", "min_ms", "max_ms"])?;
        Ok(ChaosRateEntry {
            count: need(v, "count", ctx)?
                .as_u64()
                .ok_or_else(|| parse_err(format!("{ctx}.count must be an integer")))?
                as u32,
            min_ms: get_u64(v, "min_ms", ctx, 0)?,
            max_ms: get_u64(v, "max_ms", ctx, 0)?,
        })
    }
}

impl ChaosEntry {
    fn decode(v: &Json) -> Result<Self, ScenarioError> {
        let ctx = "chaos";
        reject_unknown_fields(
            v,
            ctx,
            &["seed", "horizon_ms", "partitions", "crashes", "churn"],
        )?;
        let seed = match v.get("seed") {
            None | Some(Json::Null) => None,
            Some(s) => Some(
                s.as_u64()
                    .ok_or_else(|| parse_err("chaos.seed must be a non-negative integer"))?,
            ),
        };
        let rate = |key: &str| -> Result<Option<ChaosRateEntry>, ScenarioError> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(r) => Ok(Some(ChaosRateEntry::decode(r, &format!("{ctx}.{key}"))?)),
            }
        };
        Ok(ChaosEntry {
            seed,
            horizon_ms: need(v, "horizon_ms", ctx)?
                .as_u64()
                .ok_or_else(|| parse_err("chaos.horizon_ms must be an integer"))?,
            partitions: rate("partitions")?,
            crashes: rate("crashes")?,
            churn: rate("churn")?,
        })
    }
}

impl MembershipEntry {
    fn decode(v: &Json) -> Result<Self, ScenarioError> {
        let ctx = "membership";
        reject_unknown_fields(v, ctx, &["start_detached", "events"])?;
        let start_detached = match v.get("start_detached") {
            None | Some(Json::Null) => Vec::new(),
            Some(arr) => arr
                .as_array()
                .ok_or_else(|| parse_err("membership.start_detached must be an array"))?
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    s.as_u64().map(|n| n as usize).ok_or_else(|| {
                        parse_err(format!(
                            "membership.start_detached[{i}] must be a system index"
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let events = match v.get("events") {
            None | Some(Json::Null) => Vec::new(),
            Some(arr) => arr
                .as_array()
                .ok_or_else(|| parse_err("membership.events must be an array"))?
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    let ectx = format!("membership.events[{i}]");
                    reject_unknown_fields(e, &ectx, &["at_ms", "op", "system"])?;
                    Ok(MembershipEventEntry {
                        at_ms: need(e, "at_ms", &ectx)?
                            .as_u64()
                            .ok_or_else(|| parse_err(format!("{ectx}.at_ms must be an integer")))?,
                        op: as_string(need(e, "op", &ectx)?, &format!("{ectx}.op"))?,
                        system: need(e, "system", &ectx)?.as_u64().ok_or_else(|| {
                            parse_err(format!("{ectx}.system must be a system index"))
                        })? as usize,
                    })
                })
                .collect::<Result<Vec<_>, ScenarioError>>()?,
        };
        Ok(MembershipEntry {
            start_detached,
            events,
        })
    }
}

impl TelemetryEntry {
    fn decode(v: &Json) -> Result<Self, ScenarioError> {
        let ctx = "telemetry";
        reject_unknown_fields(v, ctx, &["every_ms", "capacity", "watchdogs"])?;
        let capacity = match v.get("capacity") {
            None | Some(Json::Null) => None,
            Some(c) => Some(
                c.as_u64()
                    .ok_or_else(|| parse_err("telemetry.capacity must be an integer"))?,
            ),
        };
        let watchdogs = match v.get("watchdogs") {
            None | Some(Json::Null) => Vec::new(),
            Some(arr) => arr
                .as_array()
                .ok_or_else(|| parse_err("telemetry.watchdogs must be an array"))?
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let wctx = format!("telemetry.watchdogs[{i}]");
                    reject_unknown_fields(w, &wctx, &["metric", "kind", "limit"])?;
                    Ok(WatchdogEntry {
                        metric: as_string(need(w, "metric", &wctx)?, &format!("{wctx}.metric"))?,
                        kind: as_string(need(w, "kind", &wctx)?, &format!("{wctx}.kind"))?,
                        limit: need(w, "limit", &wctx)?
                            .as_f64()
                            .ok_or_else(|| parse_err(format!("{wctx}.limit must be a number")))?,
                    })
                })
                .collect::<Result<Vec<_>, ScenarioError>>()?,
        };
        Ok(TelemetryEntry {
            every_ms: get_u64(v, "every_ms", ctx, 1)?,
            capacity,
            watchdogs,
        })
    }
}

impl WorkloadEntry {
    fn decode(v: &Json) -> Result<Self, ScenarioError> {
        let ctx = "workload";
        Ok(WorkloadEntry {
            ops_per_proc: need(v, "ops_per_proc", ctx)?
                .as_u64()
                .ok_or_else(|| parse_err("workload.ops_per_proc must be an integer"))?
                as u32,
            write_fraction: get_f64(v, "write_fraction", ctx, 0.5)?,
            mean_gap_ms: get_u64(v, "mean_gap_ms", ctx, 5)?,
        })
    }
}

impl ToJson for Scenario {
    fn to_json(&self) -> Json {
        let systems = Json::Arr(
            self.systems
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.clone())),
                        ("protocol", Json::Str(s.protocol.clone())),
                        ("processes", s.processes.to_json()),
                        ("intra_delay_ms", s.intra_delay_ms.to_json()),
                    ])
                })
                .collect(),
        );
        let links = Json::Arr(
            self.links
                .iter()
                .map(|l| {
                    Json::obj([
                        ("a", l.a.to_json()),
                        ("b", l.b.to_json()),
                        ("delay_ms", l.delay_ms.to_json()),
                        ("jitter_ms", l.jitter_ms.to_json()),
                        (
                            "dialup",
                            match l.dialup {
                                Some(d) => Json::obj([
                                    ("period_ms", d.period_ms.to_json()),
                                    ("up_ms", d.up_ms.to_json()),
                                ]),
                                None => Json::Null,
                            },
                        ),
                        ("batch_ms", l.batch_ms.to_json()),
                        (
                            "faults",
                            match l.faults {
                                Some(f) => Json::obj([
                                    ("drop", f.drop.to_json()),
                                    ("duplicate", f.duplicate.to_json()),
                                    ("reorder", f.reorder.to_json()),
                                    ("reorder_window_ms", f.reorder_window_ms.to_json()),
                                    ("corrupt", f.corrupt.to_json()),
                                ]),
                                None => Json::Null,
                            },
                        ),
                        (
                            "reliable",
                            match l.reliable {
                                Some(r) => Json::obj([
                                    ("rto_ms", r.rto_ms.to_json()),
                                    ("max_retries", u64::from(r.max_retries).to_json()),
                                    ("max_queue", r.max_queue.to_json()),
                                    ("degraded_after_ms", r.degraded_after_ms.to_json()),
                                ]),
                                None => Json::Null,
                            },
                        ),
                        (
                            "crash",
                            match &l.crash {
                                Some(c) => Json::obj([
                                    ("side", Json::Str(c.side.clone())),
                                    (
                                        "windows",
                                        Json::Arr(
                                            c.windows
                                                .iter()
                                                .map(|&(down, up)| {
                                                    Json::obj([
                                                        ("down_ms", down.to_json()),
                                                        ("up_ms", up.to_json()),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                ]),
                                None => Json::Null,
                            },
                        ),
                    ])
                })
                .collect(),
        );
        let mut root = Json::obj([
            ("seed", self.seed.to_json()),
            ("vars", self.vars.to_json()),
            (
                "topology",
                match &self.topology {
                    Some(t) => Json::Str(t.clone()),
                    None => Json::Null,
                },
            ),
            ("systems", systems),
            ("links", links),
            (
                "workload",
                Json::obj([
                    ("ops_per_proc", self.workload.ops_per_proc.to_json()),
                    ("write_fraction", self.workload.write_fraction.to_json()),
                    ("mean_gap_ms", self.workload.mean_gap_ms.to_json()),
                ]),
            ),
            ("checks", self.checks.to_json()),
            ("trace", self.trace.to_json()),
            ("lineage", self.lineage.to_json()),
            ("monitor", self.monitor.to_json()),
        ]);
        // The chaos/membership keys are appended only when present:
        // older scenarios must serialize to the exact bytes they did
        // before these blocks existed (the --json artifact embeds this).
        if let Json::Obj(members) = &mut root {
            if let Some(t) = &self.topology_spec {
                members.push((
                    "topology_spec".to_string(),
                    Json::obj([
                        ("shape", Json::Str(t.shape.clone())),
                        ("systems", t.systems.to_json()),
                        (
                            "fanout",
                            match t.fanout {
                                Some(f) => f.to_json(),
                                None => Json::Null,
                            },
                        ),
                        ("protocol", Json::Str(t.protocol.clone())),
                        ("processes", t.processes.to_json()),
                        ("delay_ms", t.delay_ms.to_json()),
                        (
                            "reliable",
                            match t.reliable {
                                Some(r) => Json::obj([
                                    ("rto_ms", r.rto_ms.to_json()),
                                    ("max_retries", u64::from(r.max_retries).to_json()),
                                    ("max_queue", r.max_queue.to_json()),
                                    ("degraded_after_ms", r.degraded_after_ms.to_json()),
                                ]),
                                None => Json::Null,
                            },
                        ),
                    ]),
                ));
            }
            if let Some(c) = &self.chaos {
                let rate = |r: &Option<ChaosRateEntry>| match r {
                    Some(r) => Json::obj([
                        ("count", u64::from(r.count).to_json()),
                        ("min_ms", r.min_ms.to_json()),
                        ("max_ms", r.max_ms.to_json()),
                    ]),
                    None => Json::Null,
                };
                members.push((
                    "chaos".to_string(),
                    Json::obj([
                        (
                            "seed",
                            match c.seed {
                                Some(s) => s.to_json(),
                                None => Json::Null,
                            },
                        ),
                        ("horizon_ms", c.horizon_ms.to_json()),
                        ("partitions", rate(&c.partitions)),
                        ("crashes", rate(&c.crashes)),
                        ("churn", rate(&c.churn)),
                    ]),
                ));
            }
            if let Some(m) = &self.membership {
                members.push((
                    "membership".to_string(),
                    Json::obj([
                        (
                            "start_detached",
                            Json::Arr(m.start_detached.iter().map(|s| s.to_json()).collect()),
                        ),
                        (
                            "events",
                            Json::Arr(
                                m.events
                                    .iter()
                                    .map(|e| {
                                        Json::obj([
                                            ("at_ms", e.at_ms.to_json()),
                                            ("op", Json::Str(e.op.clone())),
                                            ("system", e.system.to_json()),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                ));
            }
            if let Some(t) = &self.telemetry {
                members.push((
                    "telemetry".to_string(),
                    Json::obj([
                        ("every_ms", t.every_ms.to_json()),
                        (
                            "capacity",
                            match t.capacity {
                                Some(c) => c.to_json(),
                                None => Json::Null,
                            },
                        ),
                        (
                            "watchdogs",
                            Json::Arr(
                                t.watchdogs
                                    .iter()
                                    .map(|w| {
                                        Json::obj([
                                            ("metric", Json::Str(w.metric.clone())),
                                            ("kind", Json::Str(w.kind.clone())),
                                            ("limit", w.limit.to_json()),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                ));
            }
        }
        root
    }
}

fn parse_protocol(name: &str) -> Result<ProtocolKind, ScenarioError> {
    Ok(match name {
        "ahamad" => ProtocolKind::Ahamad,
        "frontier" => ProtocolKind::Frontier,
        "sequencer" => ProtocolKind::Sequencer,
        "atomic" => ProtocolKind::Atomic,
        "eager-fifo" => ProtocolKind::EagerFifo,
        "var-seq" => ProtocolKind::VarSeq,
        other => {
            return Err(ScenarioError::Invalid(format!(
                "unknown protocol '{other}' (expected ahamad | frontier | sequencer | atomic | eager-fifo | var-seq)"
            )))
        }
    })
}

impl Scenario {
    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] for malformed JSON and
    /// [`ScenarioError::Invalid`] for semantic problems.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let v = Json::parse(text).map_err(|e| parse_err(e.to_string()))?;
        if v.as_object().is_none() {
            return Err(parse_err("scenario must be a JSON object"));
        }
        let topology_spec = match v.get("topology_spec") {
            None | Some(Json::Null) => None,
            Some(t) => Some(TopologyEntry::decode(t)?),
        };
        let systems = match v.get("systems") {
            None | Some(Json::Null) => {
                if topology_spec.is_none() {
                    return Err(parse_err(
                        "scenario: missing field \"systems\" (or a \"topology_spec\" block)",
                    ));
                }
                Vec::new()
            }
            Some(s) => s
                .as_array()
                .ok_or_else(|| parse_err("systems must be an array"))?
                .iter()
                .enumerate()
                .map(|(i, s)| SystemEntry::decode(s, i))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let links = match v.get("links") {
            None | Some(Json::Null) => Vec::new(),
            Some(l) => l
                .as_array()
                .ok_or_else(|| parse_err("links must be an array"))?
                .iter()
                .enumerate()
                .map(|(i, l)| LinkEntry::decode(l, i))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let topology = match v.get("topology") {
            None | Some(Json::Null) => None,
            Some(t) => Some(as_string(t, "topology")?),
        };
        let checks = match v.get("checks") {
            None | Some(Json::Null) => vec!["causal".into()],
            Some(c) => c
                .as_array()
                .ok_or_else(|| parse_err("checks must be an array"))?
                .iter()
                .map(|c| as_string(c, "checks entry"))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let chaos = match v.get("chaos") {
            None | Some(Json::Null) => None,
            Some(c) => Some(ChaosEntry::decode(c)?),
        };
        let membership = match v.get("membership") {
            None | Some(Json::Null) => None,
            Some(m) => Some(MembershipEntry::decode(m)?),
        };
        let telemetry = match v.get("telemetry") {
            None | Some(Json::Null) => None,
            Some(t) => Some(TelemetryEntry::decode(t)?),
        };
        let scenario = Scenario {
            seed: get_u64(&v, "seed", "scenario", 0)?,
            vars: get_u64(&v, "vars", "scenario", 4)? as usize,
            topology,
            topology_spec,
            systems,
            links,
            workload: WorkloadEntry::decode(need(&v, "workload", "scenario")?)?,
            checks,
            trace: get_bool(&v, "trace", "scenario", false)?,
            lineage: get_bool(&v, "lineage", "scenario", false)?,
            monitor: get_bool(&v, "monitor", "scenario", false)?,
            chaos,
            membership,
            telemetry,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Semantic validation, run automatically by
    /// [`from_json`](Self::from_json). Call again after mutating a
    /// parsed scenario (e.g. a CLI `--topology` override changes the
    /// system count membership indices are checked against).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] describing the first
    /// offending field.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        // Variables are numbered by a `u32`.
        if self.vars == 0 || u32::try_from(self.vars).is_err() {
            return Err(ScenarioError::Invalid(format!(
                "vars must be in 1..={}, got {}",
                u32::MAX,
                self.vars
            )));
        }
        if let Some(t) = &self.topology_spec {
            if !self.systems.is_empty() || !self.links.is_empty() {
                return Err(ScenarioError::Invalid(
                    "topology_spec replaces the systems/links arrays; remove them".into(),
                ));
            }
            t.to_spec()?;
            parse_protocol(&t.protocol)?;
            if t.processes == 0 {
                return Err(ScenarioError::Invalid(
                    "topology_spec.processes must be positive, got 0".into(),
                ));
            }
            if let Some(r) = &t.reliable {
                if r.rto_ms == 0 {
                    return Err(ScenarioError::Invalid(
                        "topology_spec.reliable.rto_ms must be positive, got 0".into(),
                    ));
                }
                if r.max_queue == 0 {
                    return Err(ScenarioError::Invalid(
                        "topology_spec.reliable.max_queue must be positive, got 0".into(),
                    ));
                }
            }
        } else if self.systems.is_empty() {
            return Err(ScenarioError::Invalid("no systems".into()));
        }
        for s in &self.systems {
            parse_protocol(&s.protocol)?;
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.a >= self.systems.len() || l.b >= self.systems.len() {
                return Err(ScenarioError::Invalid(format!(
                    "link {}–{} references an unknown system",
                    l.a, l.b
                )));
            }
            if let Some(f) = &l.faults {
                for (field, p) in [
                    ("drop", f.drop),
                    ("duplicate", f.duplicate),
                    ("reorder", f.reorder),
                    ("corrupt", f.corrupt),
                ] {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(ScenarioError::Invalid(format!(
                            "links[{i}].faults.{field} must be a probability in [0, 1], got {p}"
                        )));
                    }
                }
                if f.drop >= 1.0 && l.reliable.is_some() {
                    return Err(ScenarioError::Invalid(format!(
                        "links[{i}].faults.drop = 1 starves the reliable transport: \
                         every frame and ack is lost, got {}",
                        f.drop
                    )));
                }
            }
            if let Some(r) = &l.reliable {
                if r.rto_ms == 0 {
                    return Err(ScenarioError::Invalid(format!(
                        "links[{i}].reliable.rto_ms must be positive, got 0"
                    )));
                }
                if r.max_queue == 0 {
                    return Err(ScenarioError::Invalid(format!(
                        "links[{i}].reliable.max_queue must be positive, got 0"
                    )));
                }
            }
            if let Some(d) = &l.dialup {
                for (field, ms) in [("period_ms", d.period_ms), ("up_ms", d.up_ms)] {
                    if ms == 0 {
                        return Err(ScenarioError::Invalid(format!(
                            "links[{i}].dialup.{field} must be positive, got 0"
                        )));
                    }
                }
            }
            if let Some(c) = &l.crash {
                if c.side != "a" && c.side != "b" {
                    return Err(ScenarioError::Invalid(format!(
                        "links[{i}].crash.side must be \"a\" or \"b\", got {:?}",
                        c.side
                    )));
                }
                for (w, &(down, up)) in c.windows.iter().enumerate() {
                    if down >= up {
                        return Err(ScenarioError::Invalid(format!(
                            "links[{i}].crash.windows[{w}] must satisfy down_ms < up_ms, \
                             got down_ms = {down}, up_ms = {up}"
                        )));
                    }
                }
                for (w, pair) in c.windows.windows(2).enumerate() {
                    if pair[0].1 > pair[1].0 {
                        return Err(ScenarioError::Invalid(format!(
                            "links[{i}].crash.windows[{}] overlaps the previous window \
                             (up_ms = {} > down_ms = {})",
                            w + 1,
                            pair[0].1,
                            pair[1].0
                        )));
                    }
                }
            }
        }
        if let Some(t) = &self.topology {
            if t != "pairwise" && t != "shared" {
                return Err(ScenarioError::Invalid(format!(
                    "unknown topology '{t}' (expected pairwise | shared)"
                )));
            }
        }
        for c in &self.checks {
            if !matches!(
                c.as_str(),
                "causal" | "sequential" | "pram" | "cache" | "linearizable" | "session"
            ) {
                return Err(ScenarioError::Invalid(format!("unknown check '{c}'")));
            }
        }
        if let Some(c) = &self.chaos {
            if c.horizon_ms == 0 {
                return Err(ScenarioError::Invalid(
                    "chaos.horizon_ms must be positive, got 0".into(),
                ));
            }
            for (name, rate) in [
                ("partitions", &c.partitions),
                ("crashes", &c.crashes),
                ("churn", &c.churn),
            ] {
                if let Some(r) = rate {
                    if r.min_ms > r.max_ms {
                        return Err(ScenarioError::Invalid(format!(
                            "chaos.{name} must satisfy min_ms <= max_ms, \
                             got min_ms = {}, max_ms = {}",
                            r.min_ms, r.max_ms
                        )));
                    }
                }
            }
        }
        if let Some(m) = &self.membership {
            let n_systems = self.system_count();
            for (i, &s) in m.start_detached.iter().enumerate() {
                if s >= n_systems {
                    return Err(ScenarioError::Invalid(format!(
                        "membership.start_detached[{i}] references unknown system {s} \
                         (have {n_systems} systems)"
                    )));
                }
            }
            for (i, e) in m.events.iter().enumerate() {
                if e.op != "attach" && e.op != "detach" {
                    return Err(ScenarioError::Invalid(format!(
                        "membership.events[{i}].op must be \"attach\" or \"detach\", got {:?}",
                        e.op
                    )));
                }
                if e.system >= n_systems {
                    return Err(ScenarioError::Invalid(format!(
                        "membership.events[{i}] references unknown system {} \
                         (have {n_systems} systems)",
                        e.system,
                    )));
                }
            }
            // Epoch-range walk: every attach must target a detached
            // system and vice versa, so each event advances the
            // target's link epochs by exactly one. A detach of an
            // already-detached system would be a no-op epoch-wise and
            // almost certainly a script bug.
            let mut attached = vec![true; self.system_count()];
            for &s in &m.start_detached {
                attached[s] = false;
            }
            let mut order: Vec<usize> = (0..m.events.len()).collect();
            order.sort_by_key(|&i| (m.events[i].at_ms, i));
            for i in order {
                let e = &m.events[i];
                let want_attached = e.op == "detach";
                if attached[e.system] != want_attached {
                    return Err(ScenarioError::Invalid(format!(
                        "membership.events[{i}]: {} of system {} at t={}ms is out of \
                         epoch range — the system is already {}",
                        e.op,
                        e.system,
                        e.at_ms,
                        if attached[e.system] {
                            "attached"
                        } else {
                            "detached"
                        }
                    )));
                }
                attached[e.system] = !want_attached;
            }
        }
        let p = self.workload.write_fraction;
        if !(0.0..=1.0).contains(&p) {
            return Err(ScenarioError::Invalid(format!(
                "workload.write_fraction must be a probability in [0, 1], got {p}"
            )));
        }
        if let Some((field, ms)) = self.ms_fields().into_iter().find(|&(_, ms)| ms > MAX_MS) {
            return Err(ScenarioError::Invalid(format!(
                "{field} must be at most {MAX_MS} ms, got {ms}"
            )));
        }
        let horizon =
            u64::from(self.workload.ops_per_proc).saturating_mul(self.workload.mean_gap_ms);
        if horizon > MAX_MS {
            return Err(ScenarioError::Invalid(format!(
                "workload.ops_per_proc × workload.mean_gap_ms must be at most {MAX_MS} ms, \
                 got {horizon}"
            )));
        }
        if let Some(t) = &self.telemetry {
            if t.every_ms == 0 {
                return Err(ScenarioError::Invalid(
                    "telemetry.every_ms must be positive, got 0".into(),
                ));
            }
            for (i, w) in t.watchdogs.iter().enumerate() {
                if WatchKind::parse(&w.kind).is_none() {
                    return Err(ScenarioError::Invalid(format!(
                        "telemetry.watchdogs[{i}].kind must be \"above\", \"below\" \
                         or \"rate_above\", got {:?}",
                        w.kind
                    )));
                }
                if !w.limit.is_finite() {
                    return Err(ScenarioError::Invalid(format!(
                        "telemetry.watchdogs[{i}].limit must be finite, got {}",
                        w.limit
                    )));
                }
            }
        }
        Ok(())
    }

    /// Every `*_ms` field of the scenario, named by its path.
    fn ms_fields(&self) -> Vec<(String, u64)> {
        let mut fields = vec![(
            "workload.mean_gap_ms".to_string(),
            self.workload.mean_gap_ms,
        )];
        fn reliable(ctx: &str, r: &ReliableEntry, fields: &mut Vec<(String, u64)>) {
            fields.push((format!("{ctx}.reliable.rto_ms"), r.rto_ms));
            fields.push((
                format!("{ctx}.reliable.degraded_after_ms"),
                r.degraded_after_ms,
            ));
        }
        if let Some(t) = &self.topology_spec {
            fields.push(("topology_spec.delay_ms".into(), t.delay_ms));
            if let Some(r) = &t.reliable {
                reliable("topology_spec", r, &mut fields);
            }
        }
        for (i, s) in self.systems.iter().enumerate() {
            fields.push((format!("systems[{i}].intra_delay_ms"), s.intra_delay_ms));
        }
        for (i, l) in self.links.iter().enumerate() {
            let ctx = format!("links[{i}]");
            fields.push((format!("{ctx}.delay_ms"), l.delay_ms));
            fields.push((format!("{ctx}.jitter_ms"), l.jitter_ms));
            if let Some(d) = &l.dialup {
                fields.push((format!("{ctx}.dialup.period_ms"), d.period_ms));
                fields.push((format!("{ctx}.dialup.up_ms"), d.up_ms));
            }
            if let Some(ms) = l.batch_ms {
                fields.push((format!("{ctx}.batch_ms"), ms));
            }
            if let Some(f) = &l.faults {
                fields.push((
                    format!("{ctx}.faults.reorder_window_ms"),
                    f.reorder_window_ms,
                ));
            }
            if let Some(r) = &l.reliable {
                reliable(&ctx, r, &mut fields);
            }
            for (w, &(down, up)) in l.crash.iter().flat_map(|c| c.windows.iter()).enumerate() {
                fields.push((format!("{ctx}.crash.windows[{w}].down_ms"), down));
                fields.push((format!("{ctx}.crash.windows[{w}].up_ms"), up));
            }
        }
        if let Some(c) = &self.chaos {
            fields.push(("chaos.horizon_ms".into(), c.horizon_ms));
            for (name, rate) in [
                ("partitions", &c.partitions),
                ("crashes", &c.crashes),
                ("churn", &c.churn),
            ] {
                if let Some(r) = rate {
                    fields.push((format!("chaos.{name}.min_ms"), r.min_ms));
                    fields.push((format!("chaos.{name}.max_ms"), r.max_ms));
                }
            }
        }
        if let Some(m) = &self.membership {
            for (i, e) in m.events.iter().enumerate() {
                fields.push((format!("membership.events[{i}].at_ms"), e.at_ms));
            }
        }
        if let Some(t) = &self.telemetry {
            fields.push(("telemetry.every_ms".into(), t.every_ms));
        }
        fields
    }

    /// Number of systems after expanding any `topology_spec`.
    pub fn system_count(&self) -> usize {
        self.topology_spec
            .as_ref()
            .map_or(self.systems.len(), |t| t.systems)
    }

    /// Display names of the scenario's systems — the explicit entries,
    /// or the generated `S{i}` names of an expanded `topology_spec`.
    pub fn system_names(&self) -> Vec<String> {
        match &self.topology_spec {
            Some(t) => (0..t.systems).map(|i| format!("S{i}")).collect(),
            None => self.systems.iter().map(|s| s.name.clone()).collect(),
        }
    }

    /// Builds the world this scenario describes.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Build`] if the topology is rejected
    /// (cycles, duplicate links, …).
    pub fn build(&self) -> Result<World, ScenarioError> {
        Ok(self.builder()?.build(self.seed)?)
    }

    /// Builds the sharded world this scenario describes: disjoint
    /// connected components run on up to `shards` worker threads and
    /// merge into a report byte-identical to [`build`](Self::build) +
    /// run. Scenarios with observability artifacts (trace, lineage,
    /// monitor, telemetry) coalesce into one group and still produce
    /// the identical report.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`build`](Self::build).
    pub fn build_sharded(&self, shards: usize) -> Result<cmi_core::ShardedWorld, ScenarioError> {
        Ok(self.builder()?.build_sharded(self.seed, shards)?)
    }

    /// The configured [`InterconnectBuilder`] shared by the serial and
    /// sharded build paths.
    fn builder(&self) -> Result<InterconnectBuilder, ScenarioError> {
        let topology = match self.topology.as_deref() {
            Some("shared") => IsTopology::Shared,
            _ => IsTopology::Pairwise,
        };
        let mut b = InterconnectBuilder::new()
            .with_vars(self.vars)
            .with_topology(topology);
        if self.trace {
            b.enable_trace();
        }
        if self.lineage {
            b.enable_lineage();
        }
        if self.monitor {
            b.enable_monitor();
        }
        if let Some(t) = &self.telemetry {
            b.enable_telemetry(t.to_config());
        }
        if let Some(t) = &self.topology_spec {
            // Generated shape: uniform systems, one link spec per tree
            // edge, handles in index order (membership indices line up).
            let spec = t.to_spec()?;
            let mut link = LinkSpec::new(Duration::ZERO)
                .with_channel(ChannelSpec::fixed(Duration::from_millis(t.delay_ms)));
            if let Some(r) = &t.reliable {
                link = link.with_reliability(r.to_config());
            }
            let handles =
                spec.expand_uniform(&mut b, parse_protocol(&t.protocol)?, t.processes, &link);
            if let Some(m) = &self.membership {
                for &s in &m.start_detached {
                    b.start_detached(handles[s]);
                }
            }
            return Ok(b);
        }
        let mut handles = Vec::new();
        for s in &self.systems {
            let spec = SystemSpec::new(&*s.name, parse_protocol(&s.protocol)?, s.processes)
                .with_intra(ChannelSpec::fixed(Duration::from_millis(s.intra_delay_ms)));
            handles.push(b.add_system(spec));
        }
        for l in &self.links {
            let mut channel = ChannelSpec::jittered(
                Duration::from_millis(l.delay_ms),
                Duration::from_millis(l.jitter_ms),
            );
            if let Some(d) = l.dialup {
                channel = channel.with_availability(Availability::DutyCycle {
                    period: Duration::from_millis(d.period_ms),
                    up: Duration::from_millis(d.up_ms),
                });
            }
            if let Some(f) = &l.faults {
                let mut spec = FaultSpec::none();
                if f.drop > 0.0 {
                    spec = spec.with_drop(f.drop);
                }
                if f.duplicate > 0.0 {
                    spec = spec.with_duplication(f.duplicate);
                }
                if f.reorder > 0.0 {
                    spec =
                        spec.with_reordering(f.reorder, Duration::from_millis(f.reorder_window_ms));
                }
                if f.corrupt > 0.0 {
                    spec = spec.with_corruption(f.corrupt);
                }
                channel = channel.with_faults(spec);
            }
            let mut link = LinkSpec::new(Duration::ZERO).with_channel(channel);
            if let Some(batch_ms) = l.batch_ms {
                link = link.with_batching(Duration::from_millis(batch_ms));
            }
            if let Some(r) = &l.reliable {
                link = link.with_reliability(r.to_config());
            }
            if let Some(c) = &l.crash {
                let windows: Vec<(Duration, Duration)> = c
                    .windows
                    .iter()
                    .map(|&(down, up)| (Duration::from_millis(down), Duration::from_millis(up)))
                    .collect();
                link = if c.side == "a" {
                    link.with_crash_at_a(&windows)
                } else {
                    link.with_crash(&windows)
                };
            }
            b.link(handles[l.a], handles[l.b], link);
        }
        if let Some(m) = &self.membership {
            for &s in &m.start_detached {
                b.start_detached(handles[s]);
            }
        }
        Ok(b)
    }

    /// The seeded [`ChaosSpec`] of the chaos block, if any.
    fn chaos_spec(&self) -> Option<(ChaosSpec, u64)> {
        let c = self.chaos.as_ref()?;
        let mut spec = ChaosSpec::new(Duration::from_millis(c.horizon_ms));
        if let Some(p) = &c.partitions {
            spec = spec.with_partitions(
                p.count,
                Duration::from_millis(p.min_ms),
                Duration::from_millis(p.max_ms),
            );
        }
        if let Some(p) = &c.crashes {
            spec = spec.with_crashes(
                p.count,
                Duration::from_millis(p.min_ms),
                Duration::from_millis(p.max_ms),
            );
        }
        if let Some(p) = &c.churn {
            spec = spec.with_churn(
                p.count,
                Duration::from_millis(p.min_ms),
                Duration::from_millis(p.max_ms),
            );
        }
        Some((spec, c.seed.unwrap_or(self.seed)))
    }

    /// The scripted membership events as chaos events (unsorted).
    fn membership_events(&self) -> Vec<ChaosEvent> {
        let Some(m) = &self.membership else {
            return Vec::new();
        };
        m.events
            .iter()
            .map(|e| ChaosEvent {
                at: SimTime::from_millis(e.at_ms),
                kind: if e.op == "detach" {
                    ChaosEventKind::Detach { system: e.system }
                } else {
                    ChaosEventKind::Attach { system: e.system }
                },
            })
            .collect()
    }

    /// Compiles the scenario's chaos block (if any) through `compile`
    /// and merges in the scripted membership events, time-sorted for
    /// [`World::run_with_chaos`]. Empty when neither block is present.
    fn chaos_events(
        &self,
        compile: impl FnOnce(&ChaosSpec, u64) -> Vec<ChaosEvent>,
    ) -> Vec<ChaosEvent> {
        let mut events = Vec::new();
        if let Some((spec, seed)) = self.chaos_spec() {
            events.extend(compile(&spec, seed));
        }
        events.extend(self.membership_events());
        sort_schedule(&mut events);
        events
    }

    /// The workload section as a [`WorkloadSpec`].
    fn workload_spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            ops_per_proc: self.workload.ops_per_proc,
            write_fraction: self.workload.write_fraction,
            n_vars: self.vars as u32,
            mean_gap: Duration::from_millis(self.workload.mean_gap_ms),
            pattern: cmi_memory::VarPattern::Uniform,
        }
    }

    /// Builds and runs the scenario.
    ///
    /// # Errors
    ///
    /// Propagates topology errors from [`Scenario::build`].
    pub fn run(&self) -> Result<RunReport, ScenarioError> {
        let mut world = self.build()?;
        let workload = self.workload_spec();
        let events = self.chaos_events(|spec, seed| world.compile_chaos(spec, seed));
        if events.is_empty() {
            Ok(world.run(&workload))
        } else {
            Ok(world.run_with_chaos(&workload, &events))
        }
    }

    /// Builds and runs the scenario on the sharded engine with up to
    /// `shards` worker threads. The report is byte-identical to
    /// [`run`](Self::run) for every shard count.
    ///
    /// # Errors
    ///
    /// Propagates topology errors from [`Scenario::build`].
    pub fn run_sharded(&self, shards: usize) -> Result<RunReport, ScenarioError> {
        let mut world = self.build_sharded(shards)?;
        let workload = self.workload_spec();
        let events = self.chaos_events(|spec, seed| world.compile_chaos(spec, seed));
        if events.is_empty() {
            Ok(world.run(&workload))
        } else {
            Ok(world.run_with_chaos(&workload, &events))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "systems": [
            { "name": "A", "protocol": "ahamad", "processes": 2 },
            { "name": "B", "protocol": "frontier", "processes": 2 }
        ],
        "links": [ { "a": 0, "b": 1, "delay_ms": 5 } ],
        "workload": { "ops_per_proc": 4 }
    }"#;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        assert_eq!(s.vars, 4);
        assert_eq!(s.checks, vec!["causal"]);
        assert_eq!(s.workload.write_fraction, 0.5);
        assert_eq!(s.systems[0].intra_delay_ms, 1);
    }

    #[test]
    fn minimal_scenario_builds_and_runs() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        let report = s.run().unwrap();
        assert!(report.outcome().is_quiescent());
        assert_eq!(report.global_history().len(), 16);
    }

    #[test]
    fn unknown_protocol_is_rejected() {
        let bad = MINIMAL.replace("ahamad", "paxos");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("paxos"));
    }

    #[test]
    fn unknown_check_is_rejected() {
        let bad = MINIMAL.replace(
            "\"workload\"",
            "\"checks\": [\"serializable\"], \"workload\"",
        );
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("serializable"));
    }

    #[test]
    fn link_to_unknown_system_is_rejected() {
        let bad = MINIMAL.replace("\"b\": 1", "\"b\": 7");
        assert!(Scenario::from_json(&bad).is_err());
    }

    #[test]
    fn cyclic_topology_fails_at_build() {
        let cyclic = r#"{
            "systems": [
                { "name": "A", "protocol": "ahamad", "processes": 2 },
                { "name": "B", "protocol": "ahamad", "processes": 2 },
                { "name": "C", "protocol": "ahamad", "processes": 2 }
            ],
            "links": [
                { "a": 0, "b": 1 }, { "a": 1, "b": 2 }, { "a": 2, "b": 0 }
            ],
            "workload": { "ops_per_proc": 2 }
        }"#;
        let s = Scenario::from_json(cyclic).unwrap();
        assert!(matches!(s.build(), Err(ScenarioError::Build(_))));
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        assert!(matches!(
            Scenario::from_json("{ nope"),
            Err(ScenarioError::Parse(_))
        ));
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        let json = s.to_json().to_pretty();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back.systems.len(), 2);
        assert_eq!(back.workload.ops_per_proc, s.workload.ops_per_proc);
        assert_eq!(back.checks, s.checks);
        assert_eq!(back.to_json(), s.to_json());
    }

    const FAULTY: &str = r#"{
        "seed": 11,
        "systems": [
            { "name": "A", "protocol": "ahamad", "processes": 2 },
            { "name": "B", "protocol": "ahamad", "processes": 2 }
        ],
        "links": [ {
            "a": 0, "b": 1, "delay_ms": 5,
            "faults": { "drop": 0.3, "duplicate": 0.05, "corrupt": 0.05 },
            "reliable": { "rto_ms": 40 },
            "crash": { "windows": [ { "down_ms": 150, "up_ms": 320 } ] }
        } ],
        "workload": { "ops_per_proc": 10 }
    }"#;

    #[test]
    fn faulty_scenario_parses_with_defaults() {
        let s = Scenario::from_json(FAULTY).unwrap();
        let l = &s.links[0];
        let f = l.faults.unwrap();
        assert_eq!(f.drop, 0.3);
        assert_eq!(f.reorder, 0.0);
        assert_eq!(f.reorder_window_ms, 20);
        let r = l.reliable.unwrap();
        assert_eq!(r.rto_ms, 40);
        assert_eq!(r.max_retries, 10);
        let c = l.crash.as_ref().unwrap();
        assert_eq!(c.side, "b");
        assert_eq!(c.windows, vec![(150, 320)]);
    }

    #[test]
    fn faulty_scenario_builds_runs_and_stays_causal() {
        let s = Scenario::from_json(FAULTY).unwrap();
        let report = s.run().unwrap();
        assert!(report.outcome().is_quiescent());
        assert!(report.metrics().counter("isp.crashes") >= 1);
    }

    #[test]
    fn faulty_scenario_round_trips_through_json() {
        let s = Scenario::from_json(FAULTY).unwrap();
        let back = Scenario::from_json(&s.to_json().to_pretty()).unwrap();
        assert_eq!(back.to_json(), s.to_json());
    }

    #[test]
    fn out_of_range_fault_probability_names_field_and_value() {
        let bad = FAULTY.replace("\"drop\": 0.3", "\"drop\": 1.5");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("links[0].faults.drop"), "{msg}");
        assert!(msg.contains("1.5"), "{msg}");
    }

    #[test]
    fn inverted_crash_window_names_field_and_values() {
        let bad = FAULTY.replace("\"up_ms\": 320", "\"up_ms\": 100");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("links[0].crash.windows[0]"), "{msg}");
        assert!(msg.contains("150"), "{msg}");
        assert!(msg.contains("100"), "{msg}");
    }

    #[test]
    fn bad_crash_side_is_rejected() {
        let bad = FAULTY.replace("\"windows\"", "\"side\": \"c\", \"windows\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("links[0].crash.side"));
    }

    #[test]
    fn zero_rto_is_rejected() {
        let bad = FAULTY.replace("\"rto_ms\": 40", "\"rto_ms\": 0");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("links[0].reliable.rto_ms"));
    }

    #[test]
    fn lineage_flag_parses_and_round_trips() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        assert!(!s.lineage, "lineage defaults to off");
        let on = MINIMAL.replace("\"workload\"", "\"lineage\": true, \"workload\"");
        let s = Scenario::from_json(&on).unwrap();
        assert!(s.lineage);
        let back = Scenario::from_json(&s.to_json().to_pretty()).unwrap();
        assert!(back.lineage);
        let report = s.run().unwrap();
        let lin = report.lineage().expect("lineage-enabled run records it");
        assert!(!lin.is_empty());
    }

    #[test]
    fn monitor_flag_parses_round_trips_and_runs_clean() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        assert!(!s.monitor, "monitor defaults to off");
        let on = MINIMAL.replace("\"workload\"", "\"monitor\": true, \"workload\"");
        let s = Scenario::from_json(&on).unwrap();
        assert!(s.monitor);
        let back = Scenario::from_json(&s.to_json().to_pretty()).unwrap();
        assert!(back.monitor);
        let report = s.run().unwrap();
        let mon = report.monitor().expect("monitored run reports it");
        assert!(mon.is_clean(), "{:?}", mon.violation);
        assert_eq!(mon.ops_seen, report.global_history().len() as u64);
    }

    #[test]
    fn wrong_field_types_are_parse_errors() {
        let bad = MINIMAL.replace("\"processes\": 2", "\"processes\": \"two\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(matches!(err, ScenarioError::Parse(_)), "{err}");
        assert!(err.to_string().contains("processes"));
    }

    const CHAOTIC: &str = r#"{
        "seed": 7,
        "systems": [
            { "name": "A", "protocol": "ahamad", "processes": 2 },
            { "name": "B", "protocol": "frontier", "processes": 2 },
            { "name": "C", "protocol": "ahamad", "processes": 2 }
        ],
        "links": [
            { "a": 0, "b": 1, "delay_ms": 4, "reliable": { "rto_ms": 30 } },
            { "a": 1, "b": 2, "delay_ms": 4, "reliable": { "rto_ms": 30 } }
        ],
        "workload": { "ops_per_proc": 12, "mean_gap_ms": 3 },
        "monitor": true,
        "chaos": {
            "horizon_ms": 120,
            "partitions": { "count": 1, "min_ms": 15, "max_ms": 40 }
        },
        "membership": {
            "start_detached": [2],
            "events": [
                { "at_ms": 60, "op": "attach", "system": 2 },
                { "at_ms": 140, "op": "detach", "system": 2 }
            ]
        }
    }"#;

    #[test]
    fn chaos_scenario_parses_with_defaults() {
        let s = Scenario::from_json(CHAOTIC).unwrap();
        let c = s.chaos.as_ref().unwrap();
        assert_eq!(c.seed, None);
        assert_eq!(c.horizon_ms, 120);
        assert_eq!(c.partitions.unwrap().count, 1);
        assert!(c.crashes.is_none());
        let m = s.membership.as_ref().unwrap();
        assert_eq!(m.start_detached, vec![2]);
        assert_eq!(m.events.len(), 2);
        assert_eq!(m.events[0].op, "attach");
    }

    #[test]
    fn chaos_scenario_round_trips_through_json() {
        let s = Scenario::from_json(CHAOTIC).unwrap();
        let back = Scenario::from_json(&s.to_json().to_pretty()).unwrap();
        assert_eq!(back.to_json(), s.to_json());
    }

    /// `monitor.check_latency_ns` records host wall-clock time per
    /// checked op, so it differs between ANY two runs of a monitored
    /// scenario — serial or sharded. Everything else must match.
    fn replay_bytes(report: &cmi_core::RunReport) -> String {
        fn strip(j: Json) -> Json {
            match j {
                Json::Obj(members) => Json::Obj(
                    members
                        .into_iter()
                        .filter(|(k, _)| k != "monitor.check_latency_ns")
                        .map(|(k, v)| (k, strip(v)))
                        .collect(),
                ),
                Json::Arr(items) => Json::Arr(items.into_iter().map(strip).collect()),
                other => other,
            }
        }
        strip(report.to_json()).to_compact()
    }

    #[test]
    fn sharded_run_matches_serial_bytes() {
        for text in [MINIMAL, FAULTY, CHAOTIC] {
            let s = Scenario::from_json(text).unwrap();
            let serial = replay_bytes(&s.run().unwrap());
            for shards in [1usize, 2, 4] {
                let sharded = replay_bytes(&s.run_sharded(shards).unwrap());
                assert_eq!(serial, sharded, "shards={shards} diverged from serial");
            }
        }
    }

    #[test]
    fn chaos_scenario_runs_clean_under_the_monitor() {
        let s = Scenario::from_json(CHAOTIC).unwrap();
        let report = s.run().unwrap();
        assert!(report.outcome().is_quiescent());
        let metrics = report.metrics();
        assert_eq!(metrics.counter("membership.attaches"), 1);
        assert_eq!(metrics.counter("membership.detaches"), 1);
        let mon = report.monitor().expect("monitored run reports it");
        assert!(mon.is_clean(), "{:?}", mon.violation);
    }

    #[test]
    fn chaos_and_membership_are_absent_from_plain_serializations() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        let json = s.to_json().to_pretty();
        assert!(!json.contains("chaos"), "{json}");
        assert!(!json.contains("membership"), "{json}");
    }

    #[test]
    fn unknown_chaos_field_is_rejected_by_name() {
        let bad = CHAOTIC.replace("\"horizon_ms\"", "\"horizonms\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown field"), "{msg}");
        assert!(msg.contains("horizonms"), "{msg}");
    }

    #[test]
    fn unknown_membership_event_field_is_rejected_by_name() {
        let bad = CHAOTIC.replace("\"at_ms\": 60, ", "\"at_ms\": 60, \"when\": 1, ");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("membership.events[0]"), "{msg}");
        assert!(msg.contains("unknown field"), "{msg}");
        assert!(msg.contains("when"), "{msg}");
    }

    #[test]
    fn out_of_epoch_range_membership_event_is_rejected() {
        // Detaching system 2 while it is still detached (before its
        // scripted attach) would not advance any epoch.
        let bad = CHAOTIC.replace(
            "\"at_ms\": 60, \"op\": \"attach\"",
            "\"at_ms\": 60, \"op\": \"detach\"",
        );
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("out of epoch range"), "{msg}");
        assert!(msg.contains("already detached"), "{msg}");
    }

    #[test]
    fn membership_event_for_unknown_system_is_rejected() {
        let bad = CHAOTIC.replace(
            "\"op\": \"attach\", \"system\": 2",
            "\"op\": \"attach\", \"system\": 9",
        );
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("membership.events"), "{msg}");
        assert!(msg.contains('9'), "{msg}");
    }

    #[test]
    fn inverted_chaos_window_is_rejected_with_values() {
        let bad = CHAOTIC.replace("\"min_ms\": 15", "\"min_ms\": 55");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("chaos.partitions"), "{msg}");
        assert!(msg.contains("55"), "{msg}");
        assert!(msg.contains("40"), "{msg}");
    }

    #[test]
    fn bad_membership_op_is_rejected() {
        let bad = CHAOTIC.replace("\"op\": \"detach\"", "\"op\": \"leave\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("membership.events[1].op"), "{msg}");
        assert!(msg.contains("leave"), "{msg}");
    }

    const TELEMETRIC: &str = r#"{
        "seed": 5,
        "systems": [
            { "name": "A", "protocol": "ahamad", "processes": 2 },
            { "name": "B", "protocol": "frontier", "processes": 2 }
        ],
        "links": [ { "a": 0, "b": 1, "delay_ms": 4 } ],
        "workload": { "ops_per_proc": 8, "mean_gap_ms": 3 },
        "telemetry": {
            "every_ms": 2,
            "capacity": 256,
            "watchdogs": [
                { "metric": "engine.events_dispatched", "kind": "above", "limit": 10 },
                { "metric": "isp.send_queue_depth_max", "kind": "rate_above", "limit": 5000 }
            ]
        }
    }"#;

    #[test]
    fn telemetry_scenario_parses_with_defaults() {
        let s = Scenario::from_json(TELEMETRIC).unwrap();
        let t = s.telemetry.as_ref().unwrap();
        assert_eq!(t.every_ms, 2);
        assert_eq!(t.capacity, Some(256));
        assert_eq!(t.watchdogs.len(), 2);
        assert_eq!(t.watchdogs[0].kind, "above");
        // every_ms and capacity default when omitted.
        let bare = TELEMETRIC.replace("\"every_ms\": 2,\n            \"capacity\": 256,", "");
        let s = Scenario::from_json(&bare).unwrap();
        let t = s.telemetry.as_ref().unwrap();
        assert_eq!(t.every_ms, 1);
        assert_eq!(t.capacity, None);
    }

    #[test]
    fn telemetry_scenario_round_trips_through_json() {
        let s = Scenario::from_json(TELEMETRIC).unwrap();
        let back = Scenario::from_json(&s.to_json().to_pretty()).unwrap();
        assert_eq!(back.to_json(), s.to_json());
    }

    #[test]
    fn telemetry_is_absent_from_plain_serializations() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        let json = s.to_json().to_pretty();
        assert!(!json.contains("telemetry"), "{json}");
    }

    #[test]
    fn telemetry_run_records_a_timeline_and_fires_watchdogs() {
        let s = Scenario::from_json(TELEMETRIC).unwrap();
        let report = s.run().unwrap();
        let t = report
            .telemetry()
            .expect("telemetry-enabled run records it");
        assert!(t.sample_count() >= 1);
        assert!(
            !t.alerts().is_empty(),
            "an 8-op run dispatches more than 10 events"
        );
        assert!(t
            .alerts()
            .iter()
            .all(|a| a.metric == "engine.events_dispatched"));
    }

    #[test]
    fn unknown_telemetry_field_is_rejected_by_name() {
        let bad = TELEMETRIC.replace("\"every_ms\"", "\"everyms\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown field"), "{msg}");
        assert!(msg.contains("everyms"), "{msg}");
    }

    #[test]
    fn unknown_watchdog_field_is_rejected_by_name() {
        let bad = TELEMETRIC.replace("\"limit\": 10", "\"limit\": 10, \"grace\": 1");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("telemetry.watchdogs[0]"), "{msg}");
        assert!(msg.contains("grace"), "{msg}");
    }

    #[test]
    fn unknown_watchdog_kind_is_rejected_with_alternatives() {
        let bad = TELEMETRIC.replace("\"kind\": \"above\"", "\"kind\": \"over\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("telemetry.watchdogs[0].kind"), "{msg}");
        assert!(msg.contains("over"), "{msg}");
        assert!(msg.contains("rate_above"), "{msg}");
    }

    #[test]
    fn zero_telemetry_cadence_is_rejected() {
        let bad = TELEMETRIC.replace("\"every_ms\": 2", "\"every_ms\": 0");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("telemetry.every_ms"));
    }

    const TOPOLOGIC: &str = r#"{
        "seed": 24,
        "vars": 2,
        "topology": "shared",
        "topology_spec": {
            "shape": "hub_of_hubs", "systems": 12, "fanout": 3,
            "delay_ms": 3, "reliable": { "rto_ms": 60 }
        },
        "workload": { "ops_per_proc": 2, "mean_gap_ms": 2 }
    }"#;

    #[test]
    fn topology_spec_parses_with_defaults() {
        let s = Scenario::from_json(TOPOLOGIC).unwrap();
        let t = s.topology_spec.as_ref().unwrap();
        assert_eq!(t.shape, "hub_of_hubs");
        assert_eq!(t.systems, 12);
        assert_eq!(t.fanout, Some(3));
        assert_eq!(t.protocol, "ahamad");
        assert_eq!(t.processes, 1);
        assert_eq!(t.reliable.unwrap().rto_ms, 60);
        assert!(s.systems.is_empty(), "no explicit systems array");
        assert_eq!(s.system_count(), 12);
        assert_eq!(s.system_names()[11], "S11");
    }

    #[test]
    fn topology_spec_builds_runs_and_stays_causal() {
        let s = Scenario::from_json(TOPOLOGIC).unwrap();
        let report = s.run().unwrap();
        assert!(report.outcome().is_quiescent());
        // 12 systems, 1 proc each, 2 ops → α^T holds every op.
        assert_eq!(report.global_history().len(), 24);
        // Reliable links ship frames; steady state is all-O(1).
        assert!(report.metrics().counter("isp.frames_o1") > 0);
    }

    #[test]
    fn topology_spec_round_trips_through_json() {
        let s = Scenario::from_json(TOPOLOGIC).unwrap();
        let back = Scenario::from_json(&s.to_json().to_pretty()).unwrap();
        assert_eq!(back.to_json(), s.to_json());
    }

    #[test]
    fn topology_spec_rejects_explicit_systems_and_links() {
        let both = MINIMAL.replace(
            "\"systems\"",
            "\"topology_spec\": { \"shape\": \"star\", \"systems\": 4 }, \"systems\"",
        );
        let err = Scenario::from_json(&both).unwrap_err();
        assert!(err.to_string().contains("replaces the systems/links"));
    }

    #[test]
    fn topology_spec_rejects_bad_shapes_by_name() {
        for (patch, needle) in [
            ("\"shape\": \"ring\"", "unknown shape 'ring'"),
            ("\"shape\": \"star\"", "star takes no fanout"),
            ("\"systems\": 0", "at least 1"),
            ("\"fanout\": 0", "fanout must be a positive number"),
        ] {
            let bad = match patch.split_once(':').unwrap().0 {
                "\"shape\"" => TOPOLOGIC.replace("\"shape\": \"hub_of_hubs\"", patch),
                "\"systems\"" => TOPOLOGIC.replace("\"systems\": 12", patch),
                _ => TOPOLOGIC.replace("\"fanout\": 3", patch),
            };
            let err = Scenario::from_json(&bad).unwrap_err();
            assert!(err.to_string().contains(needle), "{patch}: {err}");
        }
    }

    #[test]
    fn topology_spec_unknown_field_is_rejected_by_name() {
        let bad = TOPOLOGIC.replace("\"delay_ms\": 3", "\"delayms\": 3");
        let err = Scenario::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("topology_spec"), "{msg}");
        assert!(msg.contains("delayms"), "{msg}");
    }

    #[test]
    fn topology_spec_membership_indices_check_the_expanded_count() {
        let with_membership = |system: usize| {
            TOPOLOGIC.replace(
                "\"workload\"",
                &format!(
                    "\"membership\": {{ \"start_detached\": [{system}], \"events\": [ \
                     {{ \"at_ms\": 30, \"op\": \"attach\", \"system\": {system} }} ] }}, \
                     \"workload\""
                ),
            )
        };
        let s = Scenario::from_json(&with_membership(11)).unwrap();
        let report = s.run().unwrap();
        assert!(report.outcome().is_quiescent());
        let err = Scenario::from_json(&with_membership(12)).unwrap_err();
        assert!(err.to_string().contains("unknown system 12"));
    }

    #[test]
    fn missing_systems_without_topology_spec_is_rejected() {
        let err = Scenario::from_json(r#"{ "workload": { "ops_per_proc": 2 } }"#).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("systems"), "{msg}");
        assert!(msg.contains("topology_spec"), "{msg}");
    }
}
