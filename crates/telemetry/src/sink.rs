//! Event sinks: where cycle-stamped events go.
//!
//! A [`Sink`] receives every event the simulator emits (subject to its
//! [`Interest`] mask). Three implementations cover the common needs:
//!
//! * [`CountingSink`] — O(1) per event; tallies counts per kind plus the
//!   reconciliation sums tests use (fault counts, per-level cache tallies).
//! * [`RingBufferSink`] — keeps the last `cap` events in memory for
//!   post-mortem inspection or Chrome-trace export.
//! * [`JsonLinesSink`] — serializes each event as one JSON line into an
//!   in-memory buffer (byte-deterministic across same-seed runs).
//!
//! Sinks attach to the machine as `Arc<Mutex<dyn Sink>>` (see [`shared`]),
//! so the caller keeps a typed handle to read results after the run.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::event::{CacheOutcome, Event, Interest, Level};

/// A destination for telemetry events.
///
/// `Send` is required so a sink can ride along into the worker threads the
/// parallel machine spawns.
pub trait Sink: Send {
    /// Receives one event. Called only for categories in [`Sink::interest`].
    fn record(&mut self, event: &Event);

    /// Which event categories this sink wants. The machine caches this at
    /// attach time; masked categories are never even constructed.
    fn interest(&self) -> Interest {
        Interest::all()
    }
}

/// A sink shared between the simulator and the caller.
pub type SharedSink = Arc<Mutex<dyn Sink>>;

/// Wraps a concrete sink for attachment, returning both the typed handle
/// (for reading results after the run) and the erased handle (for
/// `Machine::set_telemetry`).
///
/// ```
/// use tartan_telemetry::{shared, CountingSink};
/// let (counts, sink) = shared(CountingSink::default());
/// // machine.set_telemetry(sink);
/// # let _ = sink;
/// let total = counts.lock().unwrap().total();
/// assert_eq!(total, 0);
/// ```
pub fn shared<S: Sink + 'static>(sink: S) -> (Arc<Mutex<S>>, SharedSink) {
    let typed = Arc::new(Mutex::new(sink));
    let erased: SharedSink = typed.clone();
    (typed, erased)
}

/// Per-level demand-access tallies kept by [`CountingSink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelCounts {
    /// Demand accesses observed at this level.
    pub accesses: u64,
    /// Plain hits.
    pub hits: u64,
    /// Plain misses.
    pub misses: u64,
    /// Misses covered by a timely prefetch.
    pub covered: u64,
    /// First touches of late (in-flight) prefetches.
    pub late: u64,
    /// Evictions observed at this level.
    pub evictions: u64,
    /// Evictions of dirty lines.
    pub dirty_evictions: u64,
    /// Evictions of prefetched lines that were never demanded (pollution).
    pub prefetched_unused_evictions: u64,
    /// Prefetches issued into this level.
    pub prefetches_issued: u64,
}

/// Fault-event sums kept by [`CountingSink`], for reconciling against
/// `MachineStats::faults`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Sum of `FaultInjected::count`.
    pub injected: u64,
    /// Sum of `FaultDetected::count`.
    pub detected: u64,
    /// Sum of `FaultRecovered::count`.
    pub recovered: u64,
    /// Sum of `FaultUnrecovered::count`.
    pub unrecovered: u64,
}

/// An O(1)-per-event sink that tallies counts instead of storing events.
///
/// This is the cheapest always-on observer: per-kind event counts, fault
/// count sums, per-level cache tallies, and NPU verdict/rollback splits.
#[derive(Debug, Default)]
pub struct CountingSink {
    kinds: BTreeMap<&'static str, u64>,
    l1: LevelCounts,
    l2: LevelCounts,
    l3: LevelCounts,
    faults: FaultCounts,
    /// NPU verdicts that accepted the iteration.
    pub verdicts_accepted: u64,
    /// NPU verdicts that rejected the iteration.
    pub verdicts_rejected: u64,
    /// Rollbacks that fell back to CPU-exact re-execution.
    pub cpu_fallbacks: u64,
    /// Restriction mask; defaults to everything.
    mask: Interest,
}

impl CountingSink {
    /// A counting sink listening to every category.
    pub fn new() -> CountingSink {
        CountingSink {
            mask: Interest::all(),
            ..CountingSink::default()
        }
    }

    /// A counting sink restricted to `mask`.
    pub fn with_interest(mask: Interest) -> CountingSink {
        CountingSink {
            mask,
            ..CountingSink::default()
        }
    }

    /// Events seen for `kind` (see [`Event::kind`]).
    pub fn count(&self, kind: &str) -> u64 {
        self.kinds.get(kind).copied().unwrap_or(0)
    }

    /// Total events seen.
    pub fn total(&self) -> u64 {
        self.kinds.values().sum()
    }

    /// Per-kind counts, ordered by kind label.
    pub fn kinds(&self) -> &BTreeMap<&'static str, u64> {
        &self.kinds
    }

    /// Tallies for one cache level.
    pub fn level(&self, level: Level) -> &LevelCounts {
        match level {
            Level::L1 => &self.l1,
            Level::L2 => &self.l2,
            Level::L3 => &self.l3,
        }
    }

    /// Fault count sums.
    pub fn faults(&self) -> &FaultCounts {
        &self.faults
    }

    fn level_mut(&mut self, level: Level) -> &mut LevelCounts {
        match level {
            Level::L1 => &mut self.l1,
            Level::L2 => &mut self.l2,
            Level::L3 => &mut self.l3,
        }
    }
}

impl Default for Interest {
    fn default() -> Interest {
        Interest::all()
    }
}

impl Sink for CountingSink {
    fn record(&mut self, event: &Event) {
        *self.kinds.entry(event.kind()).or_insert(0) += 1;
        match *event {
            Event::CacheAccess { level, outcome, .. } => {
                let lc = self.level_mut(level);
                lc.accesses += 1;
                match outcome {
                    CacheOutcome::Hit => lc.hits += 1,
                    CacheOutcome::Miss => lc.misses += 1,
                    CacheOutcome::Covered => lc.covered += 1,
                    CacheOutcome::Late => lc.late += 1,
                }
            }
            Event::CacheEviction {
                level,
                dirty,
                prefetched_unused,
                ..
            } => {
                let lc = self.level_mut(level);
                lc.evictions += 1;
                if dirty {
                    lc.dirty_evictions += 1;
                }
                if prefetched_unused {
                    lc.prefetched_unused_evictions += 1;
                }
            }
            Event::PrefetchIssue { level, .. } => {
                self.level_mut(level).prefetches_issued += 1;
            }
            Event::NpuVerdict { accepted, .. } => {
                if accepted {
                    self.verdicts_accepted += 1;
                } else {
                    self.verdicts_rejected += 1;
                }
            }
            Event::NpuRollback { cpu_fallback, .. } => {
                if cpu_fallback {
                    self.cpu_fallbacks += 1;
                }
            }
            Event::FaultInjected { count, .. } => self.faults.injected += count,
            Event::FaultDetected { count, .. } => self.faults.detected += count,
            Event::FaultRecovered { count, .. } => self.faults.recovered += count,
            Event::FaultUnrecovered { count, .. } => self.faults.unrecovered += count,
            Event::MemRequest { .. }
            | Event::OvecAddrGen { .. }
            | Event::NpuInvoke { .. }
            | Event::PhaseBegin { .. }
            | Event::PhaseEnd { .. } => {}
        }
    }

    fn interest(&self) -> Interest {
        self.mask
    }
}

/// Keeps the most recent `cap` events; older ones are dropped (counted).
#[derive(Debug)]
pub struct RingBufferSink {
    buf: Vec<Event>,
    head: usize,
    cap: usize,
    dropped: u64,
    mask: Interest,
}

impl RingBufferSink {
    /// A ring holding at most `cap` events (min 1), all categories.
    pub fn new(cap: usize) -> RingBufferSink {
        RingBufferSink {
            buf: Vec::new(),
            head: 0,
            cap: cap.max(1),
            dropped: 0,
            mask: Interest::all(),
        }
    }

    /// Restricts the ring to `mask` categories.
    pub fn with_interest(cap: usize, mask: Interest) -> RingBufferSink {
        RingBufferSink {
            mask,
            ..RingBufferSink::new(cap)
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<Event> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }

    /// Events displaced by newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Sink for RingBufferSink {
    fn record(&mut self, event: &Event) {
        if self.buf.len() < self.cap {
            self.buf.push(event.clone());
        } else {
            self.buf[self.head] = event.clone();
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn interest(&self) -> Interest {
        self.mask
    }
}

/// Serializes each event as one JSON line into an in-memory buffer.
///
/// Output is byte-deterministic: same seed, same workload → identical
/// bytes. A byte cap bounds memory; once hit, later events are counted in
/// [`JsonLinesSink::dropped`] instead of serialized (the flag makes
/// truncation visible instead of silent).
#[derive(Debug)]
pub struct JsonLinesSink {
    out: String,
    max_bytes: usize,
    dropped: u64,
    mask: Interest,
}

impl JsonLinesSink {
    /// Default byte cap (16 MiB) — ample for tier-1 runs.
    pub const DEFAULT_MAX_BYTES: usize = 16 << 20;

    /// A JSON-lines sink with the default byte cap, all categories.
    pub fn new() -> JsonLinesSink {
        JsonLinesSink::with_limit(JsonLinesSink::DEFAULT_MAX_BYTES)
    }

    /// A JSON-lines sink capped at `max_bytes` of output.
    pub fn with_limit(max_bytes: usize) -> JsonLinesSink {
        JsonLinesSink {
            out: String::new(),
            max_bytes,
            dropped: 0,
            mask: Interest::all(),
        }
    }

    /// Restricts the sink to `mask` categories.
    pub fn with_interest(mask: Interest) -> JsonLinesSink {
        JsonLinesSink {
            mask,
            ..JsonLinesSink::new()
        }
    }

    /// The JSON-lines text accumulated so far (one object per line).
    pub fn contents(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, returning the accumulated text.
    pub fn into_contents(self) -> String {
        self.out
    }

    /// Events not serialized because the byte cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serialized lines so far.
    pub fn lines(&self) -> usize {
        self.out.lines().count()
    }
}

impl Default for JsonLinesSink {
    fn default() -> JsonLinesSink {
        JsonLinesSink::new()
    }
}

impl Sink for JsonLinesSink {
    fn record(&mut self, event: &Event) {
        if self.out.len() >= self.max_bytes {
            self.dropped += 1;
            return;
        }
        event.write_json(&mut self.out);
        self.out.push('\n');
    }

    fn interest(&self) -> Interest {
        self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::sample_events;

    #[test]
    fn counting_sink_tallies_everything() {
        let mut sink = CountingSink::new();
        for e in sample_events() {
            sink.record(&e);
        }
        assert_eq!(sink.total(), 14);
        assert_eq!(sink.count("cache_access"), 1);
        assert_eq!(sink.count("nonexistent"), 0);
        assert_eq!(sink.level(Level::L2).accesses, 1);
        assert_eq!(sink.level(Level::L2).covered, 1);
        assert_eq!(sink.level(Level::L3).evictions, 1);
        assert_eq!(sink.level(Level::L3).dirty_evictions, 1);
        assert_eq!(sink.level(Level::L2).prefetches_issued, 1);
        assert_eq!(sink.faults().injected, 2);
        assert_eq!(sink.faults().detected, 2);
        assert_eq!(sink.faults().recovered, 2);
        assert_eq!(sink.faults().unrecovered, 1);
        assert_eq!(sink.verdicts_accepted, 1);
        assert_eq!(sink.cpu_fallbacks, 1);
    }

    #[test]
    fn ring_buffer_keeps_newest() {
        let mut sink = RingBufferSink::new(4);
        let all = sample_events();
        for e in &all {
            sink.record(e);
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), all.len() as u64 - 4);
        let kept = sink.events();
        let expect: Vec<_> = all[all.len() - 4..].to_vec();
        assert_eq!(kept, expect);
    }

    #[test]
    fn json_lines_sink_is_valid_and_capped() {
        let mut sink = JsonLinesSink::new();
        for e in sample_events() {
            sink.record(&e);
        }
        assert_eq!(sink.lines(), 14);
        assert_eq!(sink.dropped(), 0);
        for line in sink.contents().lines() {
            crate::json::parse(line).unwrap();
        }

        let mut tiny = JsonLinesSink::with_limit(10);
        for e in sample_events() {
            tiny.record(&e);
        }
        assert_eq!(tiny.lines(), 1);
        assert_eq!(tiny.dropped(), 13);
    }

    #[test]
    fn shared_handles_alias() {
        let (typed, erased) = shared(CountingSink::new());
        erased.lock().unwrap().record(&sample_events()[0]);
        assert_eq!(typed.lock().unwrap().total(), 1);
    }
}
