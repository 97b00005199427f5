//! Library half of the `cmi` command-line tool: scenario files,
//! execution and report rendering. The binary in `main.rs` is a thin
//! argument-parsing wrapper so everything here is testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
pub mod schema;

pub mod report;
pub mod scenario;

pub use report::render_report;
pub use scenario::{
    ChaosEntry, ChaosRateEntry, Scenario, ScenarioError, TelemetryEntry, TopologyEntry,
    WatchdogEntry,
};
