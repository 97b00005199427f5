//! # cmi-obs — zero-dependency observability layer
//!
//! The measurement substrate of the workspace: every structured artifact a
//! run produces — metrics, traces, reports, baselines — flows through
//! this crate. It deliberately depends on nothing (not even other `cmi-*`
//! crates) so the whole workspace builds offline with an empty registry.
//!
//! Five pieces:
//!
//! - [`json`]: a small JSON value model ([`Json`]), the [`ToJson`] trait,
//!   compact and pretty writers with a correct escaper, and a
//!   recursive-descent parser ([`Json::parse`]) so artifacts can be read
//!   back and round-trip-tested without serde.
//! - [`metrics`]: a [`MetricsRegistry`] of named counters, gauges and
//!   fixed-bucket latency [`Histogram`]s with p50/p95/p99/max readout.
//! - [`lineage`]: causal lineage tracing — per-update lifecycle records
//!   ([`LineageRecorder`]) with hop counts, propagation-latency
//!   histograms per direction/hop, and Chrome-trace / Graphviz exports.
//! - [`ring`]: a bounded [`RingBuffer`] that counts what it drops —
//!   the backing store for in-memory trace sinks.
//! - [`timeseries`]: flight-recorder telemetry — in-run sampling of the
//!   metric registry at a virtual-time cadence into a delta-encoded
//!   bounded ring ([`TimeSeries`]), declarative health watchdogs, and
//!   wall-clock span profiling of engine phases ([`SpanStats`]).

pub mod json;
pub mod lineage;
pub mod metrics;
pub mod ring;
pub mod timeseries;

pub use json::{FromJson, Json, JsonError, ToJson};
pub use lineage::{LineageEvent, LineageRecorder, Stage, UpdateId};
pub use metrics::{Histogram, MetricId, MetricsRegistry};
pub use ring::RingBuffer;
pub use timeseries::{
    SpanId, SpanStats, TelemetryConfig, TimeSeries, WatchAlert, WatchKind, WatchdogSpec,
};
