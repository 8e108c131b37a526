#![warn(missing_docs)]

//! Differential conformance oracle for the Tartan timing simulator.
//!
//! Every number the repository reports — OVEC speedups, ANL coverage, FCP
//! miss reductions — is only as trustworthy as `tartan-sim`. This crate
//! provides an *independent* check, in three layers:
//!
//! 1. **Golden models** ([`golden`]) — small, obviously-correct reference
//!    implementations of the four hardware mechanisms: the set-associative
//!    cache with true LRU, FCP XOR indexing, and `m(x)` recency
//!    manipulation; the ANL `PC+Region` degree table; OVEC oriented-load
//!    address generation; and the DRAM/L3 bandwidth accountant. They are
//!    written from the paper's description (and `DESIGN.md`), *not* from
//!    the simulator's code: shifts become divisions, intrusive updates
//!    become rebuilt state, so a shared bug is unlikely to hide in both.
//! 2. **Trace replay** ([`trace`]) — the simulator records a per-access
//!    decision trace (every [`tartan_telemetry::Event::MemRequest`] plus
//!    the hit/miss/eviction/prefetch decisions that follow it) through the
//!    ordinary telemetry [`Sink`](tartan_telemetry::Sink) machinery; the
//!    replay driver feeds the same request stream through the golden
//!    models and asserts decision-by-decision agreement, reporting the
//!    *first divergence* with full context (cycle, PC, address, both
//!    decisions).
//! 3. **Fuzzing** ([`fuzz`]) — a dependency-free, seeded fuzz driver
//!    generates adversarial machine configurations and access patterns,
//!    runs them through both sides, and greedily *shrinks* any divergence
//!    to a small reproducer that can be checked into `tests/corpus/` as a
//!    regression test (the in-tree proptest shim deliberately has no
//!    shrinking, so the oracle brings its own).
//!
//! The oracle also supports *mutation checks* ([`golden::Mutation`]): a
//! deliberate defect injected into a golden model must be caught by the
//! fuzz driver and shrunk to a tiny reproducer — the test that the oracle
//! itself has teeth.

pub mod corpus;
pub mod fuzz;
pub mod golden;
pub mod rng;
pub mod trace;

pub use fuzz::{generate, run_case, FuzzCase, Op};
pub use golden::{GoldenHierarchy, Mutation, Request};
pub use rng::XorShift;
pub use trace::{replay, CaptureSink, Decision, Divergence, DivergenceKind, GoldenTotals};
