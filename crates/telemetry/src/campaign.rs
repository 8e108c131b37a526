//! Campaign-level observability documents.
//!
//! Where `stats.json` describes *simulated* results (byte-deterministic
//! for a fixed seed), the documents in this module describe the *host
//! execution* of a campaign: who ran which job on which worker thread,
//! when, how long it took, whether it failed, what the store served. Their
//! layout is fixed and validated, but the timing values are whatever the
//! host measured — like `BENCH_host.json`, they are intentionally not
//! byte-deterministic.
//!
//! Three document shapes share [`CAMPAIGN_SCHEMA_VERSION`]:
//!
//! * **Heartbeat lines** ([`Heartbeat`]) — one JSON object per line on
//!   stderr (`tartan_run --progress=jsonl`), cheap enough to tail.
//! * **Campaign profile** ([`CampaignProfile`]) — the post-campaign
//!   export (`<name>.campaign_profile.json`): host-time attribution per
//!   phase, one [`JobSpan`] per job, and a [`MetricsSnapshot`].
//! * **Bench history lines** ([`BenchHistoryLine`]) — one line appended
//!   to `results/BENCH_history.jsonl` per `bench_tier1` invocation, the
//!   input to `bench_compare`'s regression detection.
//!
//! [`campaign_trace_json`] additionally renders the job spans as a
//! Chrome-trace timeline with one track per worker thread, loadable in
//! Perfetto next to the per-run simulator traces.

use crate::json::Schema::{self, ArrOf, Bool, Num, Obj, Str, Tag, Version, U64};
use crate::json::{push_f64, push_str};
use crate::metrics::MetricsSnapshot;

/// Version stamped into every campaign-observability document
/// (`campaign_profile.json`, heartbeat lines, `BENCH_history.jsonl`).
///
/// Independent of `STATS_SCHEMA_VERSION`: these documents describe host
/// execution, not simulated results. CI's schema guard requires a
/// matching `SCHEMA.md` entry when this changes.
pub const CAMPAIGN_SCHEMA_VERSION: u32 = 2;

/// One phase of a campaign's host wall-clock, as a disjoint segment:
/// the per-phase `host_nanos` of a profile sum to (approximately) the
/// campaign's `total_host_nanos`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignPhase {
    /// Phase label (`parse`, `plan`, `simulate`, `store-io`, `export`).
    pub name: String,
    /// Host nanoseconds spent in the phase.
    pub host_nanos: u64,
}

/// The host-execution record of one campaign job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobSpan {
    /// Submission index of the job.
    pub index: usize,
    /// Robot name.
    pub robot: String,
    /// Canonical config label.
    pub config: String,
    /// Sweep label.
    pub label: String,
    /// Worker thread (0-based) that completed the job.
    pub worker: usize,
    /// Host nanoseconds from campaign start to the job's start.
    pub start_nanos: u64,
    /// Host nanoseconds from campaign start to the job's completion.
    pub end_nanos: u64,
    /// Whether the result was served from the result store.
    pub cached: bool,
    /// Whether the job produced a result (false = it panicked).
    pub ok: bool,
}

impl JobSpan {
    fn write_json(&self, buf: &mut String) {
        use std::fmt::Write;
        let _ = write!(buf, "{{\"index\":{},\"robot\":", self.index);
        push_str(buf, &self.robot);
        buf.push_str(",\"config\":");
        push_str(buf, &self.config);
        buf.push_str(",\"label\":");
        push_str(buf, &self.label);
        let _ = write!(
            buf,
            ",\"worker\":{},\"start_nanos\":{},\"end_nanos\":{},\"cached\":{},\"ok\":{}}}",
            self.worker, self.start_nanos, self.end_nanos, self.cached, self.ok
        );
    }
}

/// The `campaign_profile.json` document: host-time attribution for one
/// campaign. See the module docs for the determinism caveat.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignProfile {
    /// Tool that produced the document (e.g. `"tartan_run"`).
    pub generator: String,
    /// Scenario name the campaign ran.
    pub scenario: String,
    /// Host worker threads the campaign ran with.
    pub jobs: u64,
    /// Campaign wall-clock, start of parse to end of export.
    pub total_host_nanos: u64,
    /// Disjoint wall-clock phases; their `host_nanos` sum reconciles with
    /// `total_host_nanos` (±1%, the instrumentation gap).
    pub phases: Vec<CampaignPhase>,
    /// One span per job, submission order.
    pub spans: Vec<JobSpan>,
    /// Campaign metrics (worker lifecycle + store counters).
    pub metrics: MetricsSnapshot,
}

impl CampaignProfile {
    /// Sum of the per-phase host nanoseconds.
    pub fn phase_nanos_sum(&self) -> u64 {
        self.phases.iter().map(|p| p.host_nanos).sum()
    }

    /// Serializes the document; layout deterministic, values host-measured.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut buf = String::new();
        let _ = write!(
            buf,
            "{{\"campaign_schema_version\":{CAMPAIGN_SCHEMA_VERSION},\"generator\":"
        );
        push_str(&mut buf, &self.generator);
        buf.push_str(",\"scenario\":");
        push_str(&mut buf, &self.scenario);
        let _ = write!(
            buf,
            ",\"jobs\":{},\"total_host_nanos\":{},\"phases\":[",
            self.jobs, self.total_host_nanos
        );
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf.push_str("{\"name\":");
            push_str(&mut buf, &p.name);
            let _ = write!(buf, ",\"host_nanos\":{}}}", p.host_nanos);
        }
        buf.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            s.write_json(&mut buf);
        }
        buf.push_str("],\"metrics\":");
        self.metrics.write_json(&mut buf);
        buf.push_str("}\n");
        buf
    }
}

const SPAN: Schema = Obj(&[
    ("index", U64),
    ("robot", Str),
    ("config", Str),
    ("label", Str),
    ("worker", U64),
    ("start_nanos", U64),
    ("end_nanos", U64),
    ("cached", Bool),
    ("ok", Bool),
]);

/// Any object: the metrics maps hold whatever counters and gauges the
/// campaign registered.
const ANY_OBJ: Schema = Obj(&[]);

/// The `campaign_profile.json` schema table.
pub(crate) static PROFILE_DOC: Schema = Obj(&[
    ("campaign_schema_version", Version(CAMPAIGN_SCHEMA_VERSION)),
    ("generator", Str),
    ("scenario", Str),
    ("jobs", U64),
    ("total_host_nanos", U64),
    ("phases", ArrOf(&Obj(&[("name", Str), ("host_nanos", U64)]))),
    ("spans", ArrOf(&SPAN)),
    (
        "metrics",
        Obj(&[("counters", ANY_OBJ), ("gauges", ANY_OBJ)]),
    ),
]);

/// Validates a `campaign_profile.json` document against its schema table:
/// the current [`CAMPAIGN_SCHEMA_VERSION`], and every required key with
/// the right type, in the document, every phase and every span.
pub fn validate_campaign_profile_json(s: &str) -> Result<(), String> {
    PROFILE_DOC.validate(s)
}

/// Renders a campaign's job spans as a Chrome-trace JSON object with one
/// thread row per worker: each job is a complete (`"X"`) event, and jobs
/// served from the result store additionally carry a `store_hit` instant
/// at their start. Timestamps are microseconds from campaign start.
pub fn campaign_trace_json(scenario: &str, workers: usize, spans: &[JobSpan]) -> String {
    use std::fmt::Write;
    let mut buf = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |buf: &mut String| {
        if !std::mem::take(&mut first) {
            buf.push(',');
        }
    };
    sep(&mut buf);
    buf.push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"args\":{\"name\":");
    push_str(&mut buf, scenario);
    buf.push_str("}}");
    for w in 0..workers.max(1) {
        sep(&mut buf);
        let _ = write!(
            buf,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"worker-{w}\"}}}}",
            w + 1
        );
    }
    for s in spans {
        let tid = s.worker + 1;
        let ts = s.start_nanos / 1_000;
        let dur = (s.end_nanos.saturating_sub(s.start_nanos) / 1_000).max(1);
        sep(&mut buf);
        let _ = write!(
            buf,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"name\":"
        );
        push_str(&mut buf, &format!("{} {}", s.robot, s.config));
        buf.push_str(",\"cat\":\"job\",\"args\":{\"index\":");
        let _ = write!(buf, "{}", s.index);
        buf.push_str(",\"label\":");
        push_str(&mut buf, &s.label);
        let _ = write!(
            buf,
            ",\"cached\":{},\"ok\":{}}}}}",
            s.cached, s.ok
        );
        if s.cached {
            sep(&mut buf);
            let _ = write!(
                buf,
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":\"store_hit\",\"cat\":\"store\"}}"
            );
        }
    }
    buf.push_str("]}");
    buf
}

/// One mid-campaign progress heartbeat (the `--progress` unit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Heartbeat {
    /// Jobs completed so far (including failures).
    pub done: usize,
    /// Total jobs in the campaign.
    pub total: usize,
    /// Host nanoseconds since the campaign started.
    pub elapsed_nanos: u64,
    /// Results served from the store so far.
    pub cache_hits: u64,
    /// Jobs that panicked so far.
    pub failures: u64,
}

impl Heartbeat {
    /// Completed jobs per host second so far (0 while nothing finished).
    pub fn runs_per_sec(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            0.0
        } else {
            self.done as f64 * 1e9 / self.elapsed_nanos as f64
        }
    }

    /// Naive remaining-time estimate: elapsed × remaining / done.
    pub fn eta_nanos(&self) -> u64 {
        if self.done == 0 {
            return 0;
        }
        let remaining = self.total.saturating_sub(self.done) as u128;
        ((self.elapsed_nanos as u128 * remaining) / self.done as u128) as u64
    }

    /// Renders the heartbeat as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write;
        let mut buf = String::new();
        let _ = write!(
            buf,
            "{{\"campaign_schema_version\":{CAMPAIGN_SCHEMA_VERSION},\"type\":\"heartbeat\",\"done\":{},\"total\":{},\"elapsed_nanos\":{},\"runs_per_sec\":",
            self.done, self.total, self.elapsed_nanos
        );
        push_f64(&mut buf, self.runs_per_sec());
        let _ = write!(
            buf,
            ",\"eta_nanos\":{},\"cache_hits\":{},\"failures\":{}}}",
            self.eta_nanos(),
            self.cache_hits,
            self.failures
        );
        buf
    }

    /// Renders the heartbeat as the human `--progress` line.
    pub fn render_human(&self) -> String {
        let pct = (100 * self.done).checked_div(self.total).unwrap_or(100);
        let cache_pct = (100 * self.cache_hits as usize)
            .checked_div(self.done)
            .unwrap_or(0);
        format!(
            "progress: {}/{} ({pct}%)  {:.1} runs/s  eta {:.1}s  cache {cache_pct}%  failed {}",
            self.done,
            self.total,
            self.runs_per_sec(),
            self.eta_nanos() as f64 / 1e9,
            self.failures
        )
    }
}

/// The heartbeat-line schema table.
pub(crate) static HEARTBEAT_DOC: Schema = Obj(&[
    ("campaign_schema_version", Version(CAMPAIGN_SCHEMA_VERSION)),
    ("type", Tag("heartbeat")),
    ("done", U64),
    ("total", U64),
    ("elapsed_nanos", U64),
    ("runs_per_sec", Num),
    ("eta_nanos", U64),
    ("cache_hits", U64),
    ("failures", U64),
]);

/// Validates one heartbeat JSONL line against its schema table.
pub fn validate_heartbeat_json(line: &str) -> Result<(), String> {
    HEARTBEAT_DOC.validate(line)
}

/// One `results/BENCH_history.jsonl` line: a compact record of one
/// `bench_tier1` invocation, appended (never rewritten) so the file
/// accumulates a local throughput trajectory across commits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchHistoryLine {
    /// Tool that produced the line (e.g. `"bench_tier1"`).
    pub generator: String,
    /// Unix seconds when the bench finished.
    pub timestamp_secs: u64,
    /// Host worker threads.
    pub jobs: u64,
    /// Runs in the campaign.
    pub runs: u64,
    /// Campaign wall-clock in host nanoseconds (cold pass).
    pub total_host_nanos: u64,
    /// Cold throughput in runs per host second.
    pub runs_per_sec: f64,
    /// Warm (store-served) throughput, when the bench ran with `--store`.
    pub warm_runs_per_sec: Option<f64>,
}

impl BenchHistoryLine {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write;
        let mut buf = String::new();
        let _ = write!(
            buf,
            "{{\"campaign_schema_version\":{CAMPAIGN_SCHEMA_VERSION},\"type\":\"bench\",\"generator\":"
        );
        push_str(&mut buf, &self.generator);
        let _ = write!(
            buf,
            ",\"timestamp_secs\":{},\"jobs\":{},\"runs\":{},\"total_host_nanos\":{},\"runs_per_sec\":",
            self.timestamp_secs, self.jobs, self.runs, self.total_host_nanos
        );
        push_f64(&mut buf, self.runs_per_sec);
        buf.push_str(",\"warm_runs_per_sec\":");
        match self.warm_runs_per_sec {
            Some(v) => push_f64(&mut buf, v),
            None => buf.push_str("null"),
        }
        buf.push('}');
        buf
    }
}

/// The `BENCH_history.jsonl` line schema table; `warm_runs_per_sec` is a
/// number or `null`.
pub(crate) static BENCH_HISTORY_DOC: Schema = Obj(&[
    ("campaign_schema_version", Version(CAMPAIGN_SCHEMA_VERSION)),
    ("type", Tag("bench")),
    ("generator", Str),
    ("timestamp_secs", U64),
    ("jobs", U64),
    ("runs", U64),
    ("total_host_nanos", U64),
    ("runs_per_sec", Num),
    ("warm_runs_per_sec", Num),
]);

/// Validates one `BENCH_history.jsonl` line against its schema table.
pub fn validate_bench_history_line(line: &str) -> Result<(), String> {
    BENCH_HISTORY_DOC.validate(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span(index: usize, worker: usize) -> JobSpan {
        JobSpan {
            index,
            robot: "delibot".into(),
            config: "tartan".into(),
            label: format!("v{index}"),
            worker,
            start_nanos: 1_000_000 * index as u64,
            end_nanos: 1_000_000 * index as u64 + 500_000,
            cached: index == 1,
            ok: index != 2,
        }
    }

    fn sample_profile() -> CampaignProfile {
        let reg = crate::MetricsRegistry::new();
        reg.counter("job.done").add(4);
        reg.counter("store.hit").add(1);
        reg.gauge("campaign.total").set(4);
        CampaignProfile {
            generator: "tartan_run".into(),
            scenario: "smoke".into(),
            jobs: 2,
            total_host_nanos: 10_000_000,
            phases: vec![
                CampaignPhase {
                    name: "parse".into(),
                    host_nanos: 1_000_000,
                },
                CampaignPhase {
                    name: "simulate".into(),
                    host_nanos: 9_000_000,
                },
            ],
            spans: (0..4).map(|i| sample_span(i, i % 2)).collect(),
            metrics: reg.snapshot(),
        }
    }

    #[test]
    fn profile_round_trips_validation() {
        let json = sample_profile().to_json();
        validate_campaign_profile_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert!(json.contains("\"campaign_schema_version\":2"));
        assert!(json.contains("\"phases\":[{\"name\":\"parse\""));
        assert!(json.contains("\"metrics\":{\"counters\":{\"job.done\":4"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn profile_phase_sum_helper() {
        assert_eq!(sample_profile().phase_nanos_sum(), 10_000_000);
    }

    #[test]
    fn profile_validator_rejects_malformed() {
        // Not JSON at all.
        assert!(validate_campaign_profile_json("{nope").is_err());
        // Wrong version.
        let json = sample_profile()
            .to_json()
            .replace("\"campaign_schema_version\":2", "\"campaign_schema_version\":99");
        assert!(validate_campaign_profile_json(&json).is_err());
        // Missing top-level key.
        let json = sample_profile().to_json().replace("\"phases\":", "\"p\":");
        assert!(validate_campaign_profile_json(&json).is_err());
        // Missing span key.
        let json = sample_profile().to_json().replace("\"worker\":", "\"w\":");
        assert!(validate_campaign_profile_json(&json).is_err());
        // Only the last span lacks `worker`: each span is checked.
        let json = sample_profile().to_json();
        let last = json.rfind("\"worker\":").unwrap();
        let json = format!(
            "{}\"w\"{}",
            &json[..last],
            &json[last + "\"worker\"".len()..]
        );
        let err = validate_campaign_profile_json(&json).unwrap_err();
        assert_eq!(err, "spans[3]: missing \"worker\"");
        // A mistyped flag.
        let json = sample_profile().to_json().replacen(":false", ":0", 1);
        let err = validate_campaign_profile_json(&json).unwrap_err();
        assert!(err.starts_with("spans[0].cached: expected"), "{err}");
    }

    #[test]
    fn trace_has_one_track_per_worker_and_store_instants() {
        let spans: Vec<JobSpan> = (0..4).map(|i| sample_span(i, i % 2)).collect();
        let json = campaign_trace_json("smoke", 2, &spans);
        crate::json::parse(&json).unwrap_or_else(|e| panic!("{e}"));
        assert!(json.contains("\"name\":\"worker-0\""));
        assert!(json.contains("\"name\":\"worker-1\""));
        assert!(!json.contains("\"name\":\"worker-2\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        // Exactly one cached span → one store_hit instant.
        assert_eq!(json.matches("store_hit").count(), 1);
        // Zero-length spans still render a visible 1 µs slice.
        let mut z = sample_span(0, 0);
        z.end_nanos = z.start_nanos;
        assert!(campaign_trace_json("z", 1, &[z]).contains("\"dur\":1"));
    }

    #[test]
    fn heartbeat_line_round_trips_validation() {
        let hb = Heartbeat {
            done: 3,
            total: 14,
            elapsed_nanos: 1_500_000_000,
            cache_hits: 1,
            failures: 1,
        };
        let line = hb.to_json_line();
        validate_heartbeat_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(!line.contains('\n'));
        assert!((hb.runs_per_sec() - 2.0).abs() < 1e-12);
        // 3 done in 1.5 s → 11 left → 5.5 s eta.
        assert_eq!(hb.eta_nanos(), 5_500_000_000);
        let human = hb.render_human();
        assert!(human.contains("3/14"), "{human}");
        assert!(human.contains("failed 1"), "{human}");
        assert!(line.ends_with(",\"cache_hits\":1,\"failures\":1}"), "{line}");
    }

    #[test]
    fn heartbeat_validator_rejects_malformed() {
        assert!(validate_heartbeat_json("").is_err());
        assert!(validate_heartbeat_json("{}").is_err());
        let line = Heartbeat::default().to_json_line();
        validate_heartbeat_json(&line).unwrap();
        assert!(validate_heartbeat_json(&line.replace("\"eta_nanos\":", "\"e\":")).is_err());
        assert!(
            validate_heartbeat_json(&line.replace("\"type\":\"heartbeat\"", "\"type\":\"x\""))
                .is_err()
        );
        let one = line.replace("_version\":2", "_version\":1");
        let err = validate_heartbeat_json(&one).unwrap_err();
        assert!(err.contains("expected version 2, found 1"), "{err}");
    }

    #[test]
    fn heartbeat_degenerate_cases() {
        let hb = Heartbeat::default();
        assert_eq!(hb.runs_per_sec(), 0.0);
        assert_eq!(hb.eta_nanos(), 0);
        assert!(hb.render_human().contains("0/0 (100%)"));
    }

    #[test]
    fn bench_history_line_round_trips_validation() {
        let mut line = BenchHistoryLine {
            generator: "bench_tier1".into(),
            timestamp_secs: 1_765_000_000,
            jobs: 2,
            runs: 12,
            total_host_nanos: 2_000_000_000,
            runs_per_sec: 6.0,
            warm_runs_per_sec: None,
        };
        let text = line.to_json_line();
        validate_bench_history_line(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert!(text.contains("\"warm_runs_per_sec\":null"));
        line.warm_runs_per_sec = Some(40.0);
        let text = line.to_json_line();
        validate_bench_history_line(&text).unwrap();
        assert!(text.contains("\"warm_runs_per_sec\":40"));
        assert!(validate_bench_history_line(&text.replace("\"runs\":", "\"r\":")).is_err());
        assert!(validate_bench_history_line("not json").is_err());
    }
}
