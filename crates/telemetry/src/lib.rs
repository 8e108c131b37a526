//! Cycle-stamped structured telemetry for the Tartan simulator.
//!
//! The paper evaluates Tartan inside ZSim, whose value lies in detailed
//! per-structure statistics. This crate is the equivalent substrate for
//! our execution-driven model:
//!
//! * **Events** ([`Event`], [`Interest`]) — a cycle-stamped taxonomy
//!   covering cache hits/misses/evictions per level, prefetch issues,
//!   OVEC address generation, NPU invoke/verdict/rollback, and fault
//!   inject/detect/recover. Zero overhead when disabled: the machine
//!   caches the attached sink's [`Interest`] mask and never constructs
//!   events for masked categories; with no sink attached the cost is one
//!   `Option` check per site.
//! * **Sinks** ([`Sink`], [`CountingSink`], [`RingBufferSink`],
//!   [`JsonLinesSink`], [`TeeSink`]) — pluggable destinations shared as
//!   [`SharedSink`] handles via [`shared`].
//! * **Reports** ([`Report`], [`ReportBuilder`], [`Histogram`]) —
//!   hierarchical phase scopes (robot → iteration → kernel) with
//!   per-phase p50/p95/p99 latency, miss-rate, and prefetch-accuracy.
//! * **Exports** ([`chrome_trace_json`], [`StatsExport`]) — a
//!   Perfetto-loadable Chrome trace and the versioned `stats.json`
//!   schema ([`STATS_SCHEMA_VERSION`]) consumed by the bench harness
//!   and CI.
//! * **Campaign observability** ([`MetricsRegistry`],
//!   [`CampaignProfile`], [`Heartbeat`], [`BenchHistoryLine`],
//!   [`campaign_trace_json`]) — host-side visibility for multi-job
//!   campaigns: lock-free counters/gauges, per-phase host-time
//!   attribution, worker-track Chrome traces, progress heartbeats, and
//!   bench history lines (all under [`CAMPAIGN_SCHEMA_VERSION`]).
//! * **Coverage fingerprints** ([`CoverageFingerprint`]) — bucketed
//!   behavioral regimes extracted from [`RobotRunStats`], the novelty
//!   signal behind the coverage-guided scenario synthesizer.
//! * **JSON** ([`json`]) — the workspace's one JSON grammar: the writer
//!   every export uses, the [`json::JsonValue`] tree scenarios are read
//!   into, and the schema tables the `validate_*` functions check.
//! * **Shrinking** ([`greedy_min_subset`]) — the deterministic ddmin loop
//!   the oracle's fuzzer and the scenario synthesizer both minimize with.
//!
//! The crate is deliberately dependency-free so every other workspace
//! crate — including `tartan-sim` at the bottom of the stack — can link
//! it. Everything it produces is byte-deterministic for a fixed seed.

#![warn(missing_docs)]

mod campaign;
mod chrome;
mod coverage;
mod event;
mod hist;
pub mod json;
mod metrics;
mod report;
mod shrink;
mod sink;
mod stats;

pub use campaign::{
    campaign_trace_json, validate_bench_history_line, validate_campaign_profile_json,
    validate_heartbeat_json, BenchHistoryLine, CampaignPhase, CampaignProfile, Heartbeat,
    JobSpan, CAMPAIGN_SCHEMA_VERSION,
};
pub use chrome::chrome_trace_json;
pub use coverage::{CoverageFingerprint, MissRegime, PrefetchBand, SupervisionVerdict};
pub use metrics::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use event::{CacheOutcome, Event, FaultSite, Interest, Level};
pub use hist::{Histogram, SAMPLE_CAP};
pub use json::{push_f64, push_str};
pub use report::{PhaseNode, Report, ReportBuilder, ScopeCounters};
pub use shrink::greedy_min_subset;
pub use sink::{
    shared, CountingSink, FaultCounts, JsonLinesSink, LevelCounts, RingBufferSink, SharedSink,
    Sink, TeeSink,
};
pub use stats::{
    stats_export_json, validate_host_bench_json, validate_stats_json, CacheCounters,
    FaultCounters, HostBenchExport, HostRunStats, JobFailureStats, PhaseEntry, RobotRunStats,
    StatsExport, SupervisionCounters, WarmBenchStats, STATS_SCHEMA_VERSION,
};
