#![warn(missing_docs)]

//! Execution-driven timing simulator for the Tartan robotic processor
//! (ISCA 2024).
//!
//! This crate plays the role ZSim plays in the paper: it models the
//! baseline Intel Core i7-10610U-class host of §III-A — four out-of-order
//! cores, a 32 KB/256 KB/8 MB cache hierarchy at 4/14/45-cycle latencies,
//! and DDR4-class memory — plus every architectural feature Tartan adds:
//!
//! * **OVEC** oriented vector loads with in-hardware address generation
//!   ([`Proc::oriented_load`], §IV),
//! * **FCP** fuzzy intra-application cache partitioning in the private L2
//!   ([`FcpConfig`], §VII),
//! * **robot-semantic prefetching** (ANL / next-line / Bingo attached to
//!   the L2, §VI-D),
//! * **engineering optimizations**: configurable line size, AVX-512,
//!   write-through producer/consumer regions (§III-A),
//! * an accelerator attachment point for the **NPU** ([`Accelerator`], §V),
//! * the optimistic **Intel ray-casting accelerator** model
//!   ([`MemPolicy::IntelLvs`], Fig. 7).
//!
//! Workloads are ordinary Rust code whose data accesses flow through
//! [`Buffer`] handles; the simulator accumulates cycles, instructions,
//! cache statistics, traffic, and per-phase breakdowns.
//!
//! # Examples
//!
//! ```
//! use tartan_sim::{Machine, MachineConfig, MemPolicy};
//!
//! let mut m = Machine::new(MachineConfig::tartan());
//! let grid = m.buffer_from_vec(vec![0.0f32; 256 * 256], MemPolicy::Normal);
//! m.run(|p| {
//!     // An oriented ray walk, one O_MOVE per 16 cells.
//!     let idx = p.oriented_load(0x42, grid.base_addr(), 100.0, 257.3, 16, 4, 256 * 256, MemPolicy::Normal);
//!     assert_eq!(idx.len(), 16);
//! });
//! assert!(m.wall_cycles() > 0);
//! ```

mod accel;
mod alloc;
mod cache;
mod config;
mod error;
mod fault;
mod machine;
mod memory;
mod stats;
mod vector;

pub use accel::{AccelId, Accelerator, InvokeCost};
pub use alloc::Buffer;
pub use cache::{AccessOutcome, Cache, EvictedLine, PrefetchOutcome};
pub use config::{
    CacheConfig, ConfigError, FcpConfig, FcpManipulation, MachineConfig, NpuMode, PrefetcherKind,
    VectorIsa,
};
pub use error::TartanError;
pub use fault::{FaultPlan, FaultStats};
pub use machine::{Machine, MemRun, Proc, PHASE_COMM, PHASE_OTHER};
pub use memory::{AccessKind, MemPolicy, MemorySystem};
pub use stats::{CacheStats, MachineStats, PhaseStats};
pub use vector::{oriented_lane_index, oriented_lane_indices};

// Telemetry surface, re-exported so workloads can attach sinks without a
// separate dependency on `tartan-telemetry`.
pub use tartan_telemetry as telemetry;
pub use tartan_telemetry::{Event, Interest, SharedSink, Sink};
