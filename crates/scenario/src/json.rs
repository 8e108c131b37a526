//! The JSON value tree scenarios are read into and rendered from.
//!
//! The workspace has one JSON grammar, in `tartan-telemetry` (the same
//! code that writes `stats.json`); this module re-exports its tree so
//! scenario code and its dependents name it as `tartan_scenario::json`.
//! Numbers keep their raw source text and rendering is deterministic, so
//! `render ∘ parse` is lossless and identical trees render to identical
//! bytes.

pub use tartan_telemetry::json::{parse, JsonValue};
