//! The versioned `stats.json` export schema.
//!
//! This is the machine-readable contract between the simulator, the bench
//! harness (`results/BENCH_tier1.json`), and CI. The structs here mirror
//! the simulator's counters *by value* — telemetry sits below `tartan-sim`
//! in the dependency graph, so it cannot name those types; the sim/core
//! layers convert into these mirrors.
//!
//! Versioning policy (enforced by CI against `SCHEMA.md`):
//! * Adding a field or a new optional section → bump
//!   [`STATS_SCHEMA_VERSION`], append a `SCHEMA.md` entry.
//! * Removing or renaming a field → same, and call it out as breaking.
//! * Consumers must ignore unknown fields.

use crate::json::Schema::{self, ArrOf, Nullable, Num, Obj, Opt, Str, Version, U64};
use crate::json::{push_f64, push_str};

/// Version of the `stats.json` schema emitted by [`StatsExport::to_json`].
///
/// CI fails if this changes without a matching entry in `SCHEMA.md`.
///
/// v2: every document carries an always-present `"failures"` array of
/// structured per-job failure records (empty on a clean campaign).
///
/// v3: `BENCH_host.json` may carry an optional `"warm"` section (a second
/// store-served timing pass, written only when the bench ran with
/// `--store`); `stats.json` itself is unchanged beyond the version stamp.
pub const STATS_SCHEMA_VERSION: u32 = 3;

/// Mirror of one cache level's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Misses covered by a timely prefetch.
    pub prefetch_covered: u64,
    /// Prefetches issued into this level.
    pub prefetches_issued: u64,
    /// Prefetched lines later demanded.
    pub prefetches_useful: u64,
    /// Prefetches that arrived late.
    pub prefetches_late: u64,
    /// Evictions.
    pub evictions: u64,
    /// Dirty writebacks.
    pub writebacks: u64,
}

impl CacheCounters {
    /// Demand miss ratio, 0 when idle.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    fn write_json(&self, buf: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            buf,
            "{{\"accesses\":{},\"hits\":{},\"misses\":{},\"miss_ratio\":",
            self.accesses, self.hits, self.misses
        );
        push_f64(buf, self.miss_ratio());
        let _ = write!(
            buf,
            ",\"prefetch_covered\":{},\"prefetches_issued\":{},\"prefetches_useful\":{},\"prefetches_late\":{},\"evictions\":{},\"writebacks\":{}}}",
            self.prefetch_covered,
            self.prefetches_issued,
            self.prefetches_useful,
            self.prefetches_late,
            self.evictions,
            self.writebacks
        );
    }
}

/// Mirror of the fault-injection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults injected by the plan.
    pub injected: u64,
    /// Faults caught by a supervisor.
    pub detected: u64,
    /// Detected faults fully repaired.
    pub recovered: u64,
    /// Faults that corrupted a consumed result.
    pub unrecovered: u64,
}

impl FaultCounters {
    fn write_json(&self, buf: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            buf,
            "{{\"injected\":{},\"detected\":{},\"recovered\":{},\"unrecovered\":{}}}",
            self.injected, self.detected, self.recovered, self.unrecovered
        );
    }
}

/// NPU supervision counters, for robots that run a supervised NPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionCounters {
    /// Accelerator invocations issued.
    pub invocations: u64,
    /// Iterations rolled back by the supervisor.
    pub rollbacks: u64,
    /// Rollbacks that re-ran the function on the CPU.
    pub cpu_fallbacks: u64,
}

impl SupervisionCounters {
    fn write_json(&self, buf: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            buf,
            "{{\"invocations\":{},\"rollbacks\":{},\"cpu_fallbacks\":{}}}",
            self.invocations, self.rollbacks, self.cpu_fallbacks
        );
    }
}

/// One named phase's cycle/instruction attribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseEntry {
    /// Phase label.
    pub name: String,
    /// Cycles attributed.
    pub cycles: u64,
    /// Instructions attributed.
    pub instructions: u64,
}

/// Everything `stats.json` records about one robot run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RobotRunStats {
    /// Robot name (e.g. `"flybot"`).
    pub robot: String,
    /// Software configuration label (e.g. `"tartan"`, `"legacy"`).
    pub config: String,
    /// Wall cycles for the run.
    pub wall_cycles: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Output quality in [0, 1].
    pub quality: f64,
    /// L1 counters (per-core, merged).
    pub l1: CacheCounters,
    /// L2 counters (per-core, merged).
    pub l2: CacheCounters,
    /// Shared L3 counters.
    pub l3: CacheCounters,
    /// DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// L3↔L2 traffic in bytes.
    pub l3_traffic_bytes: u64,
    /// NPU invocations observed by the machine (0 for CPU-only robots).
    pub npu_invocations: u64,
    /// Supervision counters, when the robot runs a supervised NPU.
    pub supervision: Option<SupervisionCounters>,
    /// Fault counters (all zero without a fault plan).
    pub faults: FaultCounters,
    /// Per-phase breakdown, sorted by name.
    pub phases: Vec<PhaseEntry>,
}

impl RobotRunStats {
    /// Serializes this run as a standalone JSON object — exactly the bytes
    /// [`StatsExport::to_json`] would place in its `"runs"` array.
    ///
    /// This is the campaign store's payload unit: a cached record can be
    /// spliced verbatim into a later export with [`stats_export_json`] and
    /// the result is byte-identical to a fresh serialization, which is what
    /// makes resumed campaigns reproduce a clean run's output bit for bit.
    pub fn to_json_record(&self) -> String {
        let mut buf = String::new();
        self.write_json(&mut buf);
        buf
    }

    fn write_json(&self, buf: &mut String) {
        use std::fmt::Write;
        buf.push_str("{\"robot\":");
        push_str(buf, &self.robot);
        buf.push_str(",\"config\":");
        push_str(buf, &self.config);
        let _ = write!(
            buf,
            ",\"wall_cycles\":{},\"instructions\":{},\"quality\":",
            self.wall_cycles, self.instructions
        );
        push_f64(buf, self.quality);
        buf.push_str(",\"l1\":");
        self.l1.write_json(buf);
        buf.push_str(",\"l2\":");
        self.l2.write_json(buf);
        buf.push_str(",\"l3\":");
        self.l3.write_json(buf);
        let _ = write!(
            buf,
            ",\"dram_bytes\":{},\"l3_traffic_bytes\":{},\"npu_invocations\":{}",
            self.dram_bytes, self.l3_traffic_bytes, self.npu_invocations
        );
        buf.push_str(",\"supervision\":");
        match &self.supervision {
            Some(s) => s.write_json(buf),
            None => buf.push_str("null"),
        }
        buf.push_str(",\"faults\":");
        self.faults.write_json(buf);
        buf.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf.push_str("{\"name\":");
            push_str(buf, &p.name);
            let _ = write!(buf, ",\"cycles\":{},\"instructions\":{}}}", p.cycles, p.instructions);
        }
        buf.push_str("]}");
    }
}

/// One job that produced no result because it panicked (schema v2
/// `"failures"` entry).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobFailureStats {
    /// Robot name of the failed job.
    pub robot: String,
    /// Configuration label of the failed job.
    pub config: String,
    /// Scenario job label.
    pub label: String,
    /// Scenario group name.
    pub group: String,
    /// The panic message.
    pub message: String,
}

impl JobFailureStats {
    fn write_json(&self, buf: &mut String) {
        buf.push_str("{\"robot\":");
        push_str(buf, &self.robot);
        buf.push_str(",\"config\":");
        push_str(buf, &self.config);
        buf.push_str(",\"label\":");
        push_str(buf, &self.label);
        buf.push_str(",\"group\":");
        push_str(buf, &self.group);
        // Jobs run once: SCHEMA.md v3 keeps `attempts`, always 1.
        buf.push_str(",\"attempts\":1,\"message\":");
        push_str(buf, &self.message);
        buf.push('}');
    }
}

/// The top-level `stats.json` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsExport {
    /// Tool that produced the document (e.g. `"bench_tier1"`).
    pub generator: String,
    /// One entry per robot run.
    pub runs: Vec<RobotRunStats>,
    /// Jobs that failed to produce a run (empty on a clean campaign).
    pub failures: Vec<JobFailureStats>,
}

impl StatsExport {
    /// Serializes the document. The schema version is stamped
    /// automatically; the output is byte-deterministic.
    pub fn to_json(&self) -> String {
        let records: Vec<String> = self.runs.iter().map(RobotRunStats::to_json_record).collect();
        stats_export_json(&self.generator, &records, &self.failures)
    }
}

/// Assembles a `stats.json` document from pre-serialized run records
/// (each the output of [`RobotRunStats::to_json_record`], spliced in
/// verbatim) plus structured failures.
///
/// [`StatsExport::to_json`] is implemented on top of this, so an export
/// built from cached record bytes is byte-identical to one re-serialized
/// from live [`RobotRunStats`] values — the invariant the campaign store's
/// `--resume` path relies on.
pub fn stats_export_json(
    generator: &str,
    run_records: &[String],
    failures: &[JobFailureStats],
) -> String {
    let mut buf = String::new();
    use std::fmt::Write;
    let _ = write!(buf, "{{\"schema_version\":{STATS_SCHEMA_VERSION},\"generator\":");
    push_str(&mut buf, generator);
    buf.push_str(",\"runs\":[");
    for (i, r) in run_records.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(r);
    }
    buf.push_str("],\"failures\":[");
    for (i, f) in failures.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        f.write_json(&mut buf);
    }
    buf.push_str("]}\n");
    buf
}

/// Host wall-time measurement for one robot run, as recorded by the bench
/// harness into `results/BENCH_host.json`.
///
/// Unlike [`RobotRunStats`], these values depend on the machine running the
/// benchmark: `host_nanos` is real elapsed time, so the document is *not*
/// byte-deterministic across runs. Simulated results stay in
/// `BENCH_tier1.json`; this file exists to track simulator throughput.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostRunStats {
    /// Robot name (e.g. `"flybot"`).
    pub robot: String,
    /// Software configuration label (e.g. `"tartan"`, `"baseline"`).
    pub config: String,
    /// Simulated wall cycles for the run.
    pub wall_cycles: u64,
    /// Host nanoseconds this row's pass took. For a cold row that is the
    /// simulation time; for a warm row it is the store fetch + decode time.
    pub host_nanos: u64,
    /// For warm rows: host nanoseconds the *cold* pass spent actually
    /// simulating the `wall_cycles` this row repeats. Warm rows reuse the
    /// cold pass's cycle count, so dividing it by the warm `host_nanos`
    /// would fabricate an absurd throughput; this field keeps the
    /// numerator and denominator from the same pass. `None` on cold rows
    /// (and in pre-existing documents), where `host_nanos` already is the
    /// simulation time.
    pub cold_host_nanos: Option<u64>,
}

impl HostRunStats {
    /// Simulator throughput: simulated cycles per host second, always
    /// measured against the pass that produced the cycles (the cold
    /// simulation), never against a store fetch.
    pub fn sim_cycles_per_host_sec(&self) -> f64 {
        let nanos = self.cold_host_nanos.unwrap_or(self.host_nanos);
        if nanos == 0 {
            0.0
        } else {
            self.wall_cycles as f64 * 1e9 / nanos as f64
        }
    }

    fn write_json(&self, buf: &mut String) {
        use std::fmt::Write;
        buf.push_str("{\"robot\":");
        push_str(buf, &self.robot);
        buf.push_str(",\"config\":");
        push_str(buf, &self.config);
        let _ = write!(
            buf,
            ",\"wall_cycles\":{},\"host_nanos\":{}",
            self.wall_cycles, self.host_nanos
        );
        if let Some(cold) = self.cold_host_nanos {
            let _ = write!(buf, ",\"cold_host_nanos\":{cold}");
        }
        buf.push_str(",\"sim_cycles_per_host_sec\":");
        push_f64(buf, self.sim_cycles_per_host_sec());
        buf.push('}');
    }
}

/// The warm (store-served) half of a cold/warm bench split: the same run
/// matrix timed again with every result served from the result store, so
/// cache speedup is measurable instead of silently mixed into one number.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmBenchStats {
    /// Elapsed host nanoseconds for the warm pass.
    pub total_host_nanos: u64,
    /// One entry per run, submission order; `host_nanos` is the store
    /// fetch + decode time for that run's record.
    pub runs: Vec<HostRunStats>,
}

impl WarmBenchStats {
    /// Warm throughput in store-served runs per host second.
    pub fn runs_per_sec(&self) -> f64 {
        if self.total_host_nanos == 0 {
            0.0
        } else {
            self.runs.len() as f64 * 1e9 / self.total_host_nanos as f64
        }
    }

    fn write_json(&self, buf: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            buf,
            "{{\"total_host_nanos\":{},\"runs_per_sec\":",
            self.total_host_nanos
        );
        push_f64(buf, self.runs_per_sec());
        buf.push_str(",\"runs\":[");
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            r.write_json(buf);
        }
        buf.push_str("]}");
    }
}

/// The top-level `BENCH_host.json` document: host wall-time and throughput
/// for a bench campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostBenchExport {
    /// Tool that produced the document (e.g. `"bench_tier1"`).
    pub generator: String,
    /// Host worker threads the campaign ran with (`--jobs`).
    pub jobs: u64,
    /// Elapsed host nanoseconds for the whole campaign (wall clock, not the
    /// sum of per-run times — with `jobs > 1` runs overlap).
    pub total_host_nanos: u64,
    /// One entry per robot run, in campaign submission order.
    pub runs: Vec<HostRunStats>,
    /// Warm-pass timings, when the bench ran a cold/warm split (`--store`).
    pub warm: Option<WarmBenchStats>,
}

impl HostBenchExport {
    /// Campaign throughput in completed runs per host second.
    pub fn runs_per_sec(&self) -> f64 {
        if self.total_host_nanos == 0 {
            0.0
        } else {
            self.runs.len() as f64 * 1e9 / self.total_host_nanos as f64
        }
    }

    /// Serializes the document, stamping the schema version. The layout is
    /// deterministic; the timing *values* are whatever the host measured.
    pub fn to_json(&self) -> String {
        let mut buf = String::new();
        use std::fmt::Write;
        let _ = write!(buf, "{{\"schema_version\":{STATS_SCHEMA_VERSION},\"generator\":");
        push_str(&mut buf, &self.generator);
        let _ = write!(
            buf,
            ",\"jobs\":{},\"total_host_nanos\":{},\"runs_per_sec\":",
            self.jobs, self.total_host_nanos
        );
        push_f64(&mut buf, self.runs_per_sec());
        buf.push_str(",\"runs\":[");
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            r.write_json(&mut buf);
        }
        buf.push(']');
        if let Some(warm) = &self.warm {
            buf.push_str(",\"warm\":");
            warm.write_json(&mut buf);
        }
        buf.push_str("}\n");
        buf
    }
}

const CACHE: Schema = Obj(&[
    ("accesses", U64),
    ("hits", U64),
    ("misses", U64),
    ("miss_ratio", Num),
    ("prefetch_covered", U64),
    ("prefetches_issued", U64),
    ("prefetches_useful", U64),
    ("prefetches_late", U64),
    ("evictions", U64),
    ("writebacks", U64),
]);

const RUN: Schema = Obj(&[
    ("robot", Str),
    ("config", Str),
    ("wall_cycles", U64),
    ("instructions", U64),
    ("quality", Num),
    ("l1", CACHE),
    ("l2", CACHE),
    ("l3", CACHE),
    ("dram_bytes", U64),
    ("l3_traffic_bytes", U64),
    ("npu_invocations", U64),
    ("supervision", Nullable(&SUPERVISION)),
    ("faults", FAULTS),
    ("phases", ArrOf(&PHASE)),
]);

const SUPERVISION: Schema = Obj(&[
    ("invocations", U64),
    ("rollbacks", U64),
    ("cpu_fallbacks", U64),
]);

const FAULTS: Schema = Obj(&[
    ("injected", U64),
    ("detected", U64),
    ("recovered", U64),
    ("unrecovered", U64),
]);

const PHASE: Schema = Obj(&[("name", Str), ("cycles", U64), ("instructions", U64)]);

const FAILURE: Schema = Obj(&[
    ("robot", Str),
    ("config", Str),
    ("label", Str),
    ("group", Str),
    ("attempts", U64),
    ("message", Str),
]);

/// The `stats.json` schema table (SCHEMA.md "Version history").
pub(crate) static STATS_DOC: Schema = Obj(&[
    ("schema_version", Version(&[STATS_SCHEMA_VERSION])),
    ("generator", Str),
    ("runs", ArrOf(&RUN)),
    ("failures", ArrOf(&FAILURE)),
]);

/// A cold `BENCH_host.json` row: `cold_host_nanos` is absent, or present
/// under the ignore-unknown-fields rule.
const HOST_RUN: Schema = Obj(&[
    ("robot", Str),
    ("config", Str),
    ("wall_cycles", U64),
    ("host_nanos", U64),
    ("cold_host_nanos", Opt(&U64)),
    ("sim_cycles_per_host_sec", Num),
]);

/// A warm row: its throughput is computed against `cold_host_nanos`, so
/// the field is required.
const WARM_RUN: Schema = Obj(&[
    ("robot", Str),
    ("config", Str),
    ("wall_cycles", U64),
    ("host_nanos", U64),
    ("cold_host_nanos", U64),
    ("sim_cycles_per_host_sec", Num),
]);

/// The `BENCH_host.json` schema table; the `warm` section is optional (v3).
pub(crate) static HOST_BENCH_DOC: Schema = Obj(&[
    ("schema_version", Version(&[STATS_SCHEMA_VERSION])),
    ("generator", Str),
    ("jobs", U64),
    ("total_host_nanos", U64),
    ("runs_per_sec", Num),
    ("runs", ArrOf(&HOST_RUN)),
    (
        "warm",
        Opt(&Obj(&[
            ("total_host_nanos", U64),
            ("runs_per_sec", Num),
            ("runs", ArrOf(&WARM_RUN)),
        ])),
    ),
]);

/// Validates a `BENCH_host.json` document against its schema table: the
/// current [`STATS_SCHEMA_VERSION`], and every required key with the right
/// type, in the document and in every run row. Unknown keys are skipped.
pub fn validate_host_bench_json(s: &str) -> Result<(), String> {
    HOST_BENCH_DOC.validate(s)
}

/// Validates a `stats.json` document against its schema table: the current
/// [`STATS_SCHEMA_VERSION`], and every required key with the right type,
/// in the document, every run record and every failure record. Unknown
/// keys are skipped.
pub fn validate_stats_json(s: &str) -> Result<(), String> {
    STATS_DOC.validate(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_export() -> StatsExport {
        StatsExport {
            generator: "unit_test".into(),
            runs: vec![RobotRunStats {
                robot: "flybot".into(),
                config: "tartan".into(),
                wall_cycles: 123_456,
                instructions: 98_765,
                quality: 0.997,
                l1: CacheCounters {
                    accesses: 1000,
                    hits: 900,
                    misses: 100,
                    ..CacheCounters::default()
                },
                l2: CacheCounters {
                    accesses: 100,
                    hits: 40,
                    misses: 30,
                    prefetch_covered: 30,
                    prefetches_issued: 50,
                    prefetches_useful: 35,
                    prefetches_late: 5,
                    evictions: 10,
                    writebacks: 4,
                },
                l3: CacheCounters::default(),
                dram_bytes: 64_000,
                l3_traffic_bytes: 128_000,
                npu_invocations: 12,
                supervision: Some(SupervisionCounters {
                    invocations: 12,
                    rollbacks: 2,
                    cpu_fallbacks: 1,
                }),
                faults: FaultCounters {
                    injected: 3,
                    detected: 3,
                    recovered: 2,
                    unrecovered: 0,
                },
                phases: vec![
                    PhaseEntry {
                        name: "heuristic".into(),
                        cycles: 80_000,
                        instructions: 60_000,
                    },
                    PhaseEntry {
                        name: "communication".into(),
                        cycles: 20_000,
                        instructions: 1_000,
                    },
                ],
            }],
            failures: Vec::new(),
        }
    }

    #[test]
    fn export_round_trips_validation() {
        let json = sample_export().to_json();
        validate_stats_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert!(json.contains("\"schema_version\":3"));
        assert!(json.contains("\"robot\":\"flybot\""));
        assert!(json.contains("\"supervision\":{\"invocations\":12"));
        assert!(json.contains("\"failures\":[]"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn null_supervision_serializes() {
        let mut e = sample_export();
        e.runs[0].supervision = None;
        let json = e.to_json();
        validate_stats_json(&json).unwrap();
        assert!(json.contains("\"supervision\":null"));
    }

    #[test]
    fn validator_rejects_wrong_version() {
        for version in ["9999", "31", "3.0", "\"3\""] {
            let json = sample_export().to_json().replace(
                "\"schema_version\":3",
                &format!("\"schema_version\":{version}"),
            );
            let err = validate_stats_json(&json).unwrap_err();
            assert!(
                err.starts_with("schema_version: expected"),
                "{version}: {err}"
            );
        }
    }

    #[test]
    fn validator_rejects_mistyped_and_malformed_documents() {
        let json = sample_export().to_json();
        for (bad, want) in [
            (
                json.replace("\"generator\":\"unit_test\"", "\"generator\":7"),
                "generator: expected a string",
            ),
            (
                json.replace("\"wall_cycles\":123456", "\"wall_cycles\":-1"),
                "runs[0].wall_cycles: expected an unsigned integer",
            ),
            (
                json.replace("\"quality\":0.997", "\"quality\":\"high\""),
                "runs[0].quality: expected a number",
            ),
            (
                json.replace("\"generator\":", "\"generator\":\"a\",\"generator\":"),
                "duplicate key \"generator\"",
            ),
            (json.replace("\"unit_test\"", "\"\\q\""), "bad escape"),
            (
                json.replace("\"dram_bytes\":64000", "\"dram_bytes\":[1-2e+.]"),
                "expected a number",
            ),
        ] {
            let err = validate_stats_json(&bad).unwrap_err();
            assert!(err.contains(want), "{bad}: {err}");
        }
        // Unknown keys are skipped, at any depth, once they parse.
        let extended = json.replace(
            "\"dram_bytes\":",
            "\"future\":{\"x\":[null]},\"dram_bytes\":",
        );
        validate_stats_json(&extended).unwrap();
    }

    #[test]
    fn failures_section_serializes_and_validates() {
        let mut e = sample_export();
        e.failures.push(JobFailureStats {
            robot: "DeliBot".into(),
            config: "tartan".into(),
            label: "sweep \"a\"".into(),
            group: "main".into(),
            message: "index out of bounds: the len is 4".into(),
        });
        let json = e.to_json();
        validate_stats_json(&json).unwrap_or_else(|err| panic!("{json}: {err}"));
        assert!(json.contains("\"failures\":[{\"robot\":\"DeliBot\""));
        assert!(json.contains("\"attempts\":1,\"message\":"));
        assert!(json.contains("\"sweep \\\"a\\\"\""), "labels must be escaped");
    }

    #[test]
    fn validator_requires_failures_key() {
        let json = sample_export().to_json().replace("\"failures\":", "\"f\":");
        assert!(validate_stats_json(&json).is_err());
    }

    // The store splices cached record bytes into exports; this equality is
    // what makes a resumed campaign byte-identical to a clean one.
    #[test]
    fn spliced_records_equal_direct_serialization() {
        let e = sample_export();
        let records: Vec<String> =
            e.runs.iter().map(RobotRunStats::to_json_record).collect();
        assert_eq!(
            stats_export_json(&e.generator, &records, &e.failures),
            e.to_json()
        );
        // And with a failure present.
        let failures = vec![JobFailureStats {
            robot: "FlyBot".into(),
            config: "baseline".into(),
            label: "l".into(),
            group: "g".into(),
            message: "boom".into(),
        }];
        let mut e2 = e.clone();
        e2.failures = failures.clone();
        assert_eq!(
            stats_export_json(&e2.generator, &records, &failures),
            e2.to_json()
        );
    }

    #[test]
    fn validator_rejects_missing_run_keys() {
        let json = sample_export().to_json().replace("\"quality\":", "\"q\":");
        assert!(validate_stats_json(&json).is_err());
        // Only the second record lacks `quality`: each record is checked.
        let mut e = sample_export();
        e.runs.push(e.runs[0].clone());
        let mut records: Vec<String> = e.runs.iter().map(RobotRunStats::to_json_record).collect();
        records[1] = records[1].replace("\"quality\":", "\"q\":");
        let err = validate_stats_json(&stats_export_json("t", &records, &[])).unwrap_err();
        assert_eq!(err, "runs[1]: missing \"quality\"");
    }

    // A campaign whose every job failed still writes its failure report.
    #[test]
    fn all_failed_export_validates() {
        let failure = JobFailureStats {
            robot: "DeliBot".into(),
            config: "tartan".into(),
            label: "l".into(),
            group: "g".into(),
            message: "boom".into(),
        };
        let json = stats_export_json("t", &[], &[failure]);
        validate_stats_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(sample_export().to_json(), sample_export().to_json());
    }

    fn sample_host_export() -> HostBenchExport {
        HostBenchExport {
            generator: "bench_tier1".into(),
            jobs: 4,
            total_host_nanos: 2_000_000_000,
            runs: vec![
                HostRunStats {
                    robot: "flybot".into(),
                    config: "tartan".into(),
                    wall_cycles: 1_000_000,
                    host_nanos: 500_000_000,
                    cold_host_nanos: None,
                },
                HostRunStats {
                    robot: "delibot".into(),
                    config: "baseline".into(),
                    wall_cycles: 3_000_000,
                    host_nanos: 1_500_000_000,
                    cold_host_nanos: None,
                },
            ],
            warm: None,
        }
    }

    #[test]
    fn host_export_round_trips_validation() {
        let json = sample_host_export().to_json();
        validate_host_bench_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert!(json.contains("\"jobs\":4"));
        assert!(json.contains("\"runs_per_sec\":1"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn host_throughput_math_is_sane() {
        let e = sample_host_export();
        assert!((e.runs_per_sec() - 1.0).abs() < 1e-12);
        assert!((e.runs[0].sim_cycles_per_host_sec() - 2_000_000.0).abs() < 1e-6);
        let idle = HostRunStats::default();
        assert_eq!(idle.sim_cycles_per_host_sec(), 0.0);
        assert_eq!(HostBenchExport::default().runs_per_sec(), 0.0);
    }

    #[test]
    fn warm_rows_measure_throughput_against_the_cold_pass() {
        // A warm row repeats the cold pass's wall_cycles but its own
        // host_nanos is just a store fetch; the throughput figure must use
        // cold_host_nanos so warm and cold rows stay comparable.
        let mut row = sample_host_export().runs[0].clone();
        row.host_nanos = 1_000; // 1 µs store fetch
        row.cold_host_nanos = Some(500_000_000);
        assert!((row.sim_cycles_per_host_sec() - 2_000_000.0).abs() < 1e-6);
        let json = {
            let mut buf = String::new();
            row.write_json(&mut buf);
            buf
        };
        assert!(json.contains("\"host_nanos\":1000,\"cold_host_nanos\":500000000"));
        // Cold rows keep the key out of the document entirely.
        let mut buf = String::new();
        sample_host_export().runs[0].write_json(&mut buf);
        assert!(!buf.contains("cold_host_nanos"));
    }

    #[test]
    fn warm_section_is_optional_and_validates() {
        let mut e = sample_host_export();
        let json = e.to_json();
        assert!(!json.contains("\"warm\":"), "warm must be absent by default");
        // Warm rows carry the cold pass's simulation time, as bench_tier1
        // writes them.
        let warm_runs = e
            .runs
            .iter()
            .map(|r| HostRunStats {
                host_nanos: 1_000,
                cold_host_nanos: Some(r.host_nanos),
                ..r.clone()
            })
            .collect();
        e.warm = Some(WarmBenchStats {
            total_host_nanos: 100_000_000,
            runs: warm_runs,
        });
        let json = e.to_json();
        validate_host_bench_json(&json).unwrap_or_else(|err| panic!("{json}: {err}"));
        assert!(json.contains("\"warm\":{\"total_host_nanos\":100000000"));
        // 2 runs in 0.1 s → 20 runs/s.
        assert!((e.warm.as_ref().unwrap().runs_per_sec() - 20.0).abs() < 1e-9);
        assert_eq!(WarmBenchStats::default().runs_per_sec(), 0.0);
    }

    #[test]
    fn host_validator_rejects_missing_keys() {
        let json = sample_host_export().to_json().replace("\"jobs\":", "\"j\":");
        assert!(validate_host_bench_json(&json).is_err());
        let json = sample_host_export()
            .to_json()
            .replace("\"host_nanos\":", "\"hn\":");
        assert!(validate_host_bench_json(&json).is_err());
        // A warm row missing cold_host_nanos while the other warm row has it.
        let mut e = sample_host_export();
        let mut warm_runs = e.runs.clone();
        warm_runs[1].cold_host_nanos = Some(7);
        e.warm = Some(WarmBenchStats {
            total_host_nanos: 1,
            runs: warm_runs,
        });
        let err = validate_host_bench_json(&e.to_json()).unwrap_err();
        assert!(
            err.contains("warm.runs[0]: missing \"cold_host_nanos\""),
            "{err}"
        );
    }
}
