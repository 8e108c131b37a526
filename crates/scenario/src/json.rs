//! The JSON value tree scenarios are read into and rendered from, and the
//! typed readers every scenario document type parses it with.
//!
//! The workspace has one JSON grammar, in `tartan-telemetry` (the same
//! code that writes `stats.json`); this module re-exports its tree so
//! scenario code and its dependents name it as `tartan_scenario::json`.
//! Numbers keep their raw source text and rendering is deterministic, so
//! `render ∘ parse` is lossless and identical trees render to identical
//! bytes.
//!
//! The readers take the value's dotted field path and fail with a
//! [`ScenarioError`] at that path, so every document type reports errors
//! the same way.

use crate::error::ScenarioError;
pub use tartan_telemetry::json::{parse, JsonValue};

pub(crate) fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

pub(crate) fn type_err(path: &str, expected: &str, got: &JsonValue) -> ScenarioError {
    ScenarioError::new(path, format!("expected {expected}, got {}", got.kind()))
}

pub(crate) fn obj<'a>(
    v: &'a JsonValue,
    path: &str,
) -> Result<&'a [(String, JsonValue)], ScenarioError> {
    match v {
        JsonValue::Obj(fields) => Ok(fields),
        other => Err(type_err(path, "an object", other)),
    }
}

pub(crate) fn arr<'a>(v: &'a JsonValue, path: &str) -> Result<&'a [JsonValue], ScenarioError> {
    match v {
        JsonValue::Arr(items) => Ok(items),
        other => Err(type_err(path, "an array", other)),
    }
}

pub(crate) fn str_of<'a>(v: &'a JsonValue, path: &str) -> Result<&'a str, ScenarioError> {
    match v {
        JsonValue::Str(s) => Ok(s),
        other => Err(type_err(path, "a string", other)),
    }
}

/// A JSON number read as `T`; `expected` names `T` in the error.
pub(crate) fn number<T: std::str::FromStr>(
    v: &JsonValue,
    path: &str,
    expected: &str,
) -> Result<T, ScenarioError> {
    match v {
        JsonValue::Num(raw) => raw
            .parse::<T>()
            .map_err(|_| ScenarioError::new(path, format!("expected {expected}, got {raw}"))),
        other => Err(type_err(path, expected, other)),
    }
}

pub(crate) fn u64_of(v: &JsonValue, path: &str) -> Result<u64, ScenarioError> {
    number(v, path, "an unsigned integer")
}

pub(crate) fn keyword<T: Copy>(
    v: &JsonValue,
    path: &str,
    table: &[(&str, T)],
) -> Result<T, ScenarioError> {
    let s = str_of(v, path)?;
    table
        .iter()
        .find(|(name, _)| *name == s)
        .map(|(_, value)| *value)
        .ok_or_else(|| {
            let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            ScenarioError::new(
                path,
                format!("unknown value {s:?} (expected one of {})", names.join(", ")),
            )
        })
}

pub(crate) fn unknown_field(path: &str, key: &str, known: &[&str]) -> ScenarioError {
    ScenarioError::new(
        join(path, key),
        format!("unknown field (known fields: {})", known.join(", ")),
    )
}
