#![warn(missing_docs)]

//! Tartan's configuration matrix and experiment runner: build a machine +
//! robot, run the pipeline, and snapshot everything the figures need as a
//! [`RunOutcome`].
//!
//! The figure/table drivers that consume these runs live one layer up, in
//! `tartan-campaign` (`experiments`): they expand the checked-in scenario
//! manifests and execute them through the campaign engine, the only
//! executor the library has. This crate stays at the single-run level —
//! [`run_robot`] plus the [`overhead`] area/power model — and runs nothing
//! in parallel itself. [`ExperimentParams`] is the scenario layer's type,
//! re-exported here so a run's parameters are defined once.
//!
//! # Examples
//!
//! ```
//! use tartan_core::{run_robot, ExperimentParams, MachineConfig, RobotKind, SoftwareConfig};
//!
//! let out = run_robot(
//!     RobotKind::DeliBot,
//!     MachineConfig::tartan(),
//!     SoftwareConfig::approximable(),
//!     &ExperimentParams::quick(),
//! );
//! assert!(out.wall_cycles > 0);
//! ```

pub mod overhead;
pub mod runner;

pub use runner::{run_robot, RunOutcome};

pub use tartan_robots::{NeuralExec, NnsKind, RobotKind, Scale, SoftwareConfig};
pub use tartan_scenario::{
    ConfigId, ExperimentParams, Plan, PlannedJob, ScenarioError, ScenarioSpec,
};
pub use tartan_sim::{FcpConfig, FcpManipulation, MachineConfig, NpuMode, PrefetcherKind};
