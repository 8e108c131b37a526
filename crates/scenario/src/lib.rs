//! Declarative scenario layer for Tartan experiments.
//!
//! A *scenario* is a checked-in JSON document describing one experiment
//! campaign: which machine configurations, which software configurations,
//! which robots, at what scale, and how the sweep axes expand into an
//! ordered job list. The figure harnesses in `tartan-core` and the
//! `tartan_run` CLI both consume scenarios, so "what did this experiment
//! run?" has exactly one answer — the manifest — instead of being encoded
//! ad hoc in each harness.
//!
//! The crate is dependency-free beyond the workspace's own `tartan-sim`,
//! `tartan-robots`, `tartan-telemetry` (coverage fingerprints and the
//! workspace's one JSON grammar), and `tartan-oracle` (the [`synth`]
//! corpus shrinker reuses its ddmin loop): the environment is offline, so
//! serialization is hand-rolled; [`json`] re-exports telemetry's value
//! tree, which keeps exact (raw-text) number round-trips.
//!
//! Pipeline:
//!
//! 1. [`ScenarioSpec::from_json`] parses + structurally validates (unknown
//!    fields, keyword spellings, schema version) with single-line,
//!    path-qualified [`ScenarioError`]s.
//! 2. [`ScenarioSpec::expand`] merges preset + override specs, takes the
//!    cartesian product of the sweep axes, resolves every variant into a
//!    validated `MachineConfig`/`SoftwareConfig`, and returns a [`Plan`]
//!    whose job order is deterministic.
//! 3. Callers run the [`Plan`]'s jobs (e.g. through `tartan-core`'s
//!    campaign engine) and label rows with the expansion's labels and the
//!    canonical [`ConfigId`].
//!
//! On top of the document pipeline sit the *synthesis* layers: a
//! compositional workload [`grammar`] (patterns with typed holes, plugged
//! and enumerated enumo-style) and the coverage-guided corpus curator in
//! [`synth`], which together drive the `tartan_gen` binary.

#![warn(missing_docs)]

pub mod error;
pub mod expand;
pub mod grammar;
pub mod id;
pub mod json;
pub mod key;
pub mod spec;
pub mod synth;

pub use error::ScenarioError;
pub use expand::{
    AxisSpec, ExperimentParams, GroupPlan, GroupSpec, Plan, PlannedJob, RobotsSpec, ScenarioSpec,
    SweepOrder, VariantSpec,
};
pub use grammar::{Edit, Filling, Hole, Pattern};
pub use id::ConfigId;
pub use synth::{
    curate, shrink_spec, CorpusEntry, CorpusManifest, CoverageVector, Curated, Keeper,
    CORPUS_MANIFEST_VERSION,
};
pub use json::JsonValue;
pub use key::CACHE_KEY_VERSION;
pub use spec::{
    AdjustOp, CacheSpec, FaultSpec, FcpSpec, MachineSpec, ParamsSpec, ScaleAdjust, SoftwareSpec,
    SCALE_FIELDS, SCENARIO_SCHEMA_VERSION,
};
