//! A dependency-free metrics registry: named atomic counters and gauges
//! with a deterministic snapshot-to-JSON export.
//!
//! The campaign layer (workers in `tartan-par`, the result store, the
//! `tartan_run` CLI) needs cheap shared counters that many threads bump
//! concurrently and one reporter reads — without pulling a metrics
//! dependency into an offline workspace. A [`MetricsRegistry`] hands out
//! cloneable [`Counter`]/[`Gauge`] handles backed by `Arc<AtomicU64>`:
//! updating a handle is one atomic RMW with no lock; the registry lock is
//! taken only on registration and snapshot.
//!
//! Snapshots are deterministic: names are reported in sorted order, so two
//! registries holding the same values render byte-identical JSON — the
//! same property every other export in this crate maintains.
//!
//! ```
//! let reg = tartan_telemetry::MetricsRegistry::new();
//! let hits = reg.counter("store.hit");
//! hits.add(3);
//! reg.gauge("campaign.jobs").set(14);
//! assert_eq!(reg.snapshot().counter("store.hit"), Some(3));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::push_str;

/// A monotonically increasing metric handle. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A set-to-latest metric handle. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the gauge with `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (a running maximum).
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Cells {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
}

/// A registry of named [`Counter`]s and [`Gauge`]s.
///
/// Names are free-form; the convention in this workspace is dotted
/// lowercase paths (`"store.hit"`, `"job.failed"`). Registering the same
/// name twice returns a handle to the same cell, so call sites do not need
/// to coordinate.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    cells: Mutex<Cells>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, creating it at 0 if absent.
    pub fn counter(&self, name: &str) -> Counter {
        let mut cells = self.cells.lock().unwrap_or_else(|p| p.into_inner());
        cells.counters.entry(name.to_string()).or_default().clone()
    }

    /// Returns the gauge named `name`, creating it at 0 if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut cells = self.cells.lock().unwrap_or_else(|p| p.into_inner());
        cells.gauges.entry(name.to_string()).or_default().clone()
    }

    /// A point-in-time copy of every metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let cells = self.cells.lock().unwrap_or_else(|p| p.into_inner());
        MetricsSnapshot {
            counters: cells
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: cells
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`]: `(name, value)` pairs
/// sorted by name, so rendering is deterministic for fixed values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Renders `{"counters":{...},"gauges":{...}}` with sorted keys.
    pub fn to_json(&self) -> String {
        let mut buf = String::new();
        self.write_json(&mut buf);
        buf
    }

    pub(crate) fn write_json(&self, buf: &mut String) {
        use std::fmt::Write;
        let write_map = |buf: &mut String, pairs: &[(String, u64)]| {
            buf.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                push_str(buf, k);
                let _ = write!(buf, ":{v}");
            }
            buf.push('}');
        };
        buf.push_str("{\"counters\":");
        write_map(buf, &self.counters);
        buf.push_str(",\"gauges\":");
        write_map(buf, &self.gauges);
        buf.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_and_accumulate() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("x").get(), 5);
        assert_eq!(reg.snapshot().counter("x"), Some(5));
        assert_eq!(reg.snapshot().counter("absent"), None);
    }

    #[test]
    fn gauges_set_and_track_maximum() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(7);
        g.max(3); // lower: ignored
        g.max(11); // higher: taken
        assert_eq!(reg.snapshot().gauge("depth"), Some(11));
    }

    #[test]
    fn snapshot_is_sorted_and_json_is_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta").add(1);
        reg.counter("alpha").add(2);
        reg.gauge("mid").set(9);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("alpha".to_string(), 2), ("zeta".to_string(), 1)]
        );
        let json = snap.to_json();
        crate::json::parse(&json).unwrap();
        assert_eq!(
            json,
            "{\"counters\":{\"alpha\":2,\"zeta\":1},\"gauges\":{\"mid\":9}}"
        );
        assert_eq!(json, reg.snapshot().to_json());
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hot");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn empty_registry_renders_empty_maps() {
        let json = MetricsRegistry::new().snapshot().to_json();
        assert_eq!(json, "{\"counters\":{},\"gauges\":{}}");
    }
}
