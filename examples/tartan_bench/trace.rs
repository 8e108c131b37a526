//! The traced run: spans recorded by the benchmark around calls into each
//! layer's public functions, and the per-layer metrics derived from them.
//!
//! No span sits inside the program, so the traced run replays each
//! campaign serially from the same public calls the engine makes: parse,
//! expand, `JobSet::build`, a store get per unit key, the `run_robot`
//! loop (`Machine::new`, `RobotKind::build`, each `Robot::step`,
//! `Machine::stats`), a store put, `render_exports`, and
//! `validate_stats_json`. Its exports must equal the engine's byte for
//! byte (the digest check), which is what keeps the replay honest.
//!
//! Two metrics need the engine itself: after the replay, the same clients
//! run the next campaigns through `Engine::run`, untraced, and
//! `campaign.engine_self_s` and `campaign.worker_idle_frac` come from
//! those reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use tartan::campaign::{render_exports, CampaignResult, JobOutput, JobSet};
use tartan::core::{ExperimentParams, RunOutcome};
use tartan::robots::RobotKind;
use tartan::scenario::json::{parse as parse_json, JsonValue};
use tartan::scenario::{PlannedJob, ScenarioSpec};
use tartan::sim::telemetry::{push_str, validate_stats_json, ReportBuilder, ScopeCounters};
use tartan::sim::{Machine, MachineStats, PHASE_COMM};
use tartan::store::ResultStore;

use crate::workload::{self, Kind, Prepared, Stop, Workload, GENERATOR};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`robots.step`, `store.get`, ...).
    pub name: &'static str,
    /// Robot, for `robots.build` and `robots.step`; empty otherwise.
    pub robot: &'static str,
    /// Campaign the call served.
    pub campaign: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    campaign: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            campaign: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, robot: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            robot,
            campaign: self.campaign,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` and any span still open inside it.
    fn end(&mut self, id: usize) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, "");
        let r = f();
        self.end(id);
        r
    }
}

/// Spans whose self time no layer metric claims: the replay's own
/// bookkeeping per campaign and per job.
const UNATTRIBUTED: [&str; 2] = ["campaign", "job"];

/// Every other span name; each is reported as `<name>_s`, its
/// self-seconds per campaign.
const SPAN_LAYERS: [&str; 11] = [
    "robots.build",
    "robots.step",
    "sim.machine_new",
    "sim.stats",
    "scenario.parse",
    "scenario.expand",
    "campaign.jobset",
    "campaign.render",
    "telemetry.validate",
    "store.get",
    "store.put",
];

/// Self nanoseconds per `(name, robot)`: each span's duration minus the
/// durations of its direct children.
pub fn self_nanos(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.nanos();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, ns) in spans.iter().zip(own) {
        *by_layer.entry((span.name, span.robot)).or_insert(0) += ns;
    }
    by_layer
}

/// Layer totals: attributed self nanoseconds per layer name, the
/// unattributed remainder, and the total of every root span. Layers plus
/// the remainder equal the total exactly.
#[derive(Debug, PartialEq, Eq)]
pub struct Layers {
    /// Self nanoseconds per layer name, summed over robots.
    pub by_name: BTreeMap<&'static str, u64>,
    /// Self nanoseconds per `(layer, robot)` for the robot layers.
    pub by_robot: BTreeMap<(&'static str, &'static str), u64>,
    /// Self nanoseconds of [`UNATTRIBUTED`] spans.
    pub other: u64,
    /// Σ root span durations.
    pub total: u64,
}

/// Folds spans into [`Layers`].
pub fn layers(spans: &[Span]) -> Layers {
    let mut out = Layers {
        by_name: BTreeMap::new(),
        by_robot: BTreeMap::new(),
        other: 0,
        total: spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::nanos)
            .sum(),
    };
    for ((name, robot), ns) in self_nanos(spans) {
        if UNATTRIBUTED.contains(&name) {
            out.other += ns;
            continue;
        }
        *out.by_name.entry(name).or_insert(0) += ns;
        if !robot.is_empty() {
            out.by_robot.insert((name, robot), ns);
        }
    }
    out
}

/// The store payload for a fresh job: a one-line summary header, then the
/// verbatim run record (SCHEMA.md, "Result store entries").
fn encode_payload(out: &JobOutput, config: &str) -> String {
    let mut header = String::from("{\"robot\":");
    push_str(&mut header, &out.robot);
    header.push_str(",\"config\":");
    push_str(&mut header, config);
    let _ = write!(
        header,
        ",\"wall_cycles\":{},\"instructions\":{},\"l2_demand_misses\":{},\"quality\":\"{}\"}}",
        out.wall_cycles, out.instructions, out.l2_demand_misses, out.quality
    );
    format!("{header}\n{}", out.record)
}

/// Decodes a store payload for `job`; `None` treats the entry as a miss,
/// as the engine does.
fn decode_payload(payload: &str, job: &PlannedJob) -> Option<JobOutput> {
    let (header, record) = payload.split_once('\n')?;
    let v = parse_json(header).ok()?;
    let text = |key: &str| match v.get(key) {
        Some(JsonValue::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let num = |key: &str| match v.get(key) {
        Some(JsonValue::Num(raw)) => raw.parse::<u64>().ok(),
        _ => None,
    };
    let robot = text("robot")?;
    if robot != job.robot.name() || text("config")? != job.config.as_str() {
        return None;
    }
    Some(JobOutput {
        record: record.to_string(),
        robot,
        wall_cycles: num("wall_cycles")?,
        instructions: num("instructions")?,
        l2_demand_misses: num("l2_demand_misses")?,
        quality: text("quality")?,
        l2_miss_pct: None,
        cached: true,
        host_nanos: 0,
        outcome: None,
    })
}

/// L2 counter delta between two snapshots, as `run_robot` attributes it.
fn scope_delta(before: &MachineStats, after: &MachineStats) -> ScopeCounters {
    ScopeCounters {
        accesses: after.l2.accesses.saturating_sub(before.l2.accesses),
        misses: after.l2.misses.saturating_sub(before.l2.misses),
        prefetches_issued: after
            .l2
            .prefetches_issued
            .saturating_sub(before.l2.prefetches_issued),
        prefetches_useful: after
            .l2
            .prefetches_useful
            .saturating_sub(before.l2.prefetches_useful),
        instructions: after.instructions.saturating_sub(before.instructions),
    }
}

/// Counts the replay accumulates, per traced run.
#[derive(Debug, Default)]
struct Tally {
    planned: u64,
    distinct: u64,
    hits: u64,
    puts: u64,
    fresh_cycles: u64,
    export_bytes: u64,
    /// Σ of each [`SIM_COUNTERS`] field over every exported run.
    sim: [u64; SIM_COUNTERS.len()],
    /// Counter sums per distinct export: campaigns that resubmit a
    /// document export the same bytes, which need parsing once.
    parsed: BTreeMap<String, [u64; SIM_COUNTERS.len()]>,
}

/// Record fields summed into the `sim.*` metrics, as `(metric, path)`.
const SIM_COUNTERS: [(&str, &[&str]); 10] = [
    ("sim.cycles", &["wall_cycles"]),
    ("sim.instructions", &["instructions"]),
    ("sim.l1.accesses", &["l1", "accesses"]),
    ("sim.l2.accesses", &["l2", "accesses"]),
    ("sim.l2.misses", &["l2", "misses"]),
    ("sim.l3.misses", &["l3", "misses"]),
    ("sim.dram_bytes", &["dram_bytes"]),
    ("sim.l2.prefetches_issued", &["l2", "prefetches_issued"]),
    ("sim.l2.prefetches_useful", &["l2", "prefetches_useful"]),
    ("sim.npu_invocations", &["npu_invocations"]),
];

impl Tally {
    /// Adds every run record of an export to the `sim.*` sums.
    fn count_export(&mut self, export: &str) -> Result<(), String> {
        if !self.parsed.contains_key(export) {
            let doc = parse_json(export)?;
            let Some(JsonValue::Arr(runs)) = doc.get("runs") else {
                return Err("export has no runs array".into());
            };
            let mut sums = [0u64; SIM_COUNTERS.len()];
            for run in runs {
                for (sum, (metric, path)) in sums.iter_mut().zip(SIM_COUNTERS) {
                    let value = path.iter().try_fold(run, |v, key| v.get(key));
                    let Some(JsonValue::Num(raw)) = value else {
                        return Err(format!("run record has no numeric {}", path.join(".")));
                    };
                    *sum += raw.parse::<u64>().map_err(|e| format!("{metric}: {e}"))?;
                }
            }
            self.parsed.insert(export.to_string(), sums);
        }
        for (total, n) in self.sim.iter_mut().zip(self.parsed[export]) {
            *total += n;
        }
        self.export_bytes += export.len() as u64;
        Ok(())
    }
}

/// The serial replay of one workload's campaigns.
struct Replay<'a> {
    w: &'a Workload,
    prep: &'a Prepared,
    store: Option<ResultStore>,
    tally: Tally,
}

impl Replay<'_> {
    /// Replays campaign `index` under one root span.
    fn campaign(&mut self, t: &mut Tracer, index: usize) -> Result<String, String> {
        t.campaign = index;
        let root = t.begin("campaign", "");
        let export = self.campaign_body(t, self.prep.request(index));
        t.end(root);
        export
    }

    fn campaign_body(&mut self, t: &mut Tracer, text: &str) -> Result<String, String> {
        let spec = t
            .span("scenario.parse", || ScenarioSpec::from_json(text))
            .map_err(|e| e.to_string())?;
        let probe = self.w.kind == Kind::ProbeSwarm;
        let campaign = t.span("scenario.expand", || workload::expand(spec, probe))?;
        let jobset = t.span("campaign.jobset", || {
            JobSet::build(std::slice::from_ref(&campaign))
        });
        self.tally.planned += jobset.total_jobs as u64;
        self.tally.distinct += jobset.distinct() as u64;
        let mut slots: Vec<Option<JobOutput>> = vec![None; campaign.plan.jobs.len()];
        for unit in &jobset.units {
            let job = &campaign.plan.jobs[unit.requesters[0].job];
            let cached = match self
                .store
                .as_ref()
                .filter(|_| self.w.kind == Kind::StoreResume)
            {
                Some(store) => t
                    .span("store.get", || store.get(&unit.key))
                    .ok()
                    .flatten()
                    .and_then(|payload| decode_payload(&payload, job)),
                None => None,
            };
            let output = match cached {
                Some(output) => {
                    self.tally.hits += 1;
                    output
                }
                None => {
                    let output = self.simulate(t, job, &campaign.params);
                    if let Some(store) = &self.store {
                        let payload = encode_payload(&output, job.config.as_str());
                        t.span("store.put", || store.put(&unit.key, &payload))
                            .map_err(|e| e.to_string())?;
                        self.tally.puts += 1;
                    }
                    output
                }
            };
            for r in &unit.requesters {
                slots[r.job] = Some(output.clone());
            }
        }
        let result = CampaignResult {
            results: slots,
            failures: Vec::new(),
        };
        let (export, _csv) = t.span("campaign.render", || {
            render_exports(GENERATOR, &campaign, &result)
        });
        t.span("telemetry.validate", || validate_stats_json(&export))?;
        Ok(export)
    }

    /// `tartan_core::run_robot` with a span around each layer call; the
    /// replayed record must equal the engine's. This copy (with
    /// `scope_delta` and the payload codec) goes once spans live inside
    /// `run_robot` and the engine.
    fn simulate(
        &mut self,
        t: &mut Tracer,
        job: &PlannedJob,
        params: &ExperimentParams,
    ) -> JobOutput {
        let span = t.begin("job", "");
        let kind = job.robot;
        let mut machine = t.span("sim.machine_new", || Machine::new(job.machine.clone()));
        let build = t.begin("robots.build", kind.name());
        let mut robot = kind.build(&mut machine, job.software, params.scale, params.seed);
        t.end(build);
        let start_wall = machine.wall_cycles();
        let start_stats = t.span("sim.stats", || machine.stats());
        let mut builder = ReportBuilder::new();
        builder.begin(robot.name(), start_wall);
        let mut prev = start_stats.clone();
        for _ in 0..params.steps {
            builder.begin("iteration", machine.wall_cycles());
            let step = t.begin("robots.step", kind.name());
            robot.step(&mut machine);
            t.end(step);
            let now = t.span("sim.stats", || machine.stats());
            for (name, phase) in now.phases.iter() {
                let before = prev.phases.get(name).copied().unwrap_or_default();
                let cycles = phase.cycles.saturating_sub(before.cycles);
                let instructions = phase.instructions.saturating_sub(before.instructions);
                if cycles > 0 || instructions > 0 {
                    builder.leaf(
                        name,
                        cycles,
                        ScopeCounters {
                            instructions,
                            ..ScopeCounters::default()
                        },
                    );
                }
            }
            builder.end(machine.wall_cycles(), scope_delta(&prev, &now));
            prev = now;
        }
        let mut stats = t.span("sim.stats", || machine.stats());
        builder.end(machine.wall_cycles(), scope_delta(&start_stats, &stats));
        let report = builder.build();
        for (name, phase) in stats.phases.iter_mut() {
            if let Some(before) = start_stats.phases.get(name) {
                phase.cycles = phase.cycles.saturating_sub(before.cycles);
                phase.instructions = phase.instructions.saturating_sub(before.instructions);
            }
        }
        let bottleneck_cycles = robot
            .bottleneck_phases()
            .iter()
            .map(|ph| stats.phase_cycles(ph))
            .sum();
        let outcome = RunOutcome {
            robot: robot.name(),
            wall_cycles: stats.wall_cycles.saturating_sub(start_wall),
            instructions: stats.instructions.saturating_sub(start_stats.instructions),
            bottleneck_cycles,
            comm_cycles: stats.phase_cycles(PHASE_COMM),
            faults: stats.faults,
            stats,
            quality: robot.quality(),
            report,
            supervision: robot.supervision(),
        };
        let output = JobOutput {
            record: outcome.to_run_stats(&job.config).to_json_record(),
            robot: outcome.robot.to_string(),
            wall_cycles: outcome.wall_cycles,
            instructions: outcome.instructions,
            l2_demand_misses: outcome.stats.l2.demand_misses(),
            quality: format!("{}", outcome.quality),
            l2_miss_pct: Some(100.0 * outcome.stats.l2.miss_ratio()),
            cached: false,
            host_nanos: 0,
            outcome: None,
        };
        self.tally.fresh_cycles += outcome.wall_cycles;
        t.end(span);
        output
    }
}

/// Process CPU time in seconds (user + system), from `/proc/self/stat`.
fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15, in USER_HZ (100) ticks.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("/proc/self/stat: no command name")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat: field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// What a traced run reports.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer metrics, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Planned jobs replayed plus those the engine pass ran.
    pub attempted: u64,
    /// Failed jobs in either pass.
    pub failed: u64,
    /// Digest of the replay's first exports.
    pub digest: Option<String>,
}

/// Replays with spans the campaigns that submit population members
/// `0..trace_campaigns`, in the seed's order (so every seed replays the
/// same work, digest members included), and writes
/// `<out>/trace-<workload>.json`. Then runs as many campaigns through the
/// engine for the engine-side metrics: the next members, or the same ones
/// when the population is smaller than twice that.
pub fn run(w: &Workload, seed: u64, out_dir: &Path) -> Result<Traced, String> {
    let (prep, _setup) = workload::prepare(w, seed, &out_dir.join("stores"))?;
    let result = run_prepared(w, seed, &prep, out_dir);
    prep.remove_store();
    result
}

fn run_prepared(
    w: &Workload,
    seed: u64,
    prep: &Prepared,
    out_dir: &Path,
) -> Result<Traced, String> {
    let n = w.trace_campaigns;
    let replayed = prep.positions(0..n, n);
    let store = prep
        .store
        .as_ref()
        .map(ResultStore::open)
        .transpose()
        .map_err(|e| e.to_string())?;
    let mut replay = Replay {
        w,
        prep,
        store,
        tally: Tally::default(),
    };
    let mut tracer = Tracer::new();
    let mut exports = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let cpu_start = cpu_seconds()?;
    let wall_start = Instant::now();
    for &index in &replayed {
        let planned_before = replay.tally.planned;
        let result = replay.campaign(&mut tracer, index);
        let runs = (replay.tally.planned - planned_before).max(1);
        attempted += runs;
        let export = match result {
            Ok(export) if prep.expected(index).is_some_and(|want| want != export) => {
                Err("export differs from the expected bytes".to_string())
            }
            other => other,
        };
        match export {
            Ok(export) => {
                replay.tally.count_export(&export)?;
                if prep.in_digest(index) {
                    exports.push((index, export));
                }
            }
            Err(e) => {
                eprintln!("tartan_bench: {} traced campaign {index}: {e}", w.name);
                failed += runs;
            }
        }
    }
    let cpu_util = (cpu_seconds()? - cpu_start) / wall_start.elapsed().as_secs_f64();
    write_trace(
        &out_dir.join(format!("trace-{}.json", w.name)),
        w,
        seed,
        &tracer.spans,
    )?;

    let next = if prep.order.len() >= 2 * n {
        n..2 * n
    } else {
        0..n
    };
    let engine_pass =
        workload::closed_loop(w, prep, Stop::Positions(&prep.positions(next, n)), true);
    let mut engine_serial_ns = 0u64;
    let mut job_ns = 0u64;
    let mut pool_ns = 0u64;
    for t in &engine_pass.engine {
        engine_serial_ns += t.run_ns.saturating_sub(t.exec_ns);
        job_ns += t.job_ns;
        pool_ns += t.workers as u64 * t.exec_ns;
    }

    let tally = &replay.tally;
    let l = layers(&tracer.spans);
    let per = |ns: u64| ns as f64 / 1e9 / n as f64;
    let layer = |name: &str| l.by_name.get(name).copied().unwrap_or(0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    for name in l.by_name.keys() {
        assert!(
            SPAN_LAYERS.contains(name),
            "span layer {name} has no metric"
        );
    }
    for name in SPAN_LAYERS {
        metrics.insert(format!("{name}_s"), per(layer(name)));
    }
    for name in ["robots.build", "robots.step"] {
        for kind in RobotKind::all() {
            let ns = l.by_robot.get(&(name, kind.name())).copied().unwrap_or(0);
            metrics.insert(format!("{name}.{}_s", kind.name()), per(ns));
        }
    }
    let mut put = |name: &str, value: f64| metrics.insert(name.to_string(), value);
    put(
        "robots.build_share",
        ratio(layer("robots.build") as f64, l.total as f64),
    );
    put(
        "sim.host_ns_per_kcycle",
        ratio(
            layer("robots.step") as f64,
            tally.fresh_cycles as f64 / 1000.0,
        ),
    );
    put(
        "campaign.worker_idle_frac",
        1.0 - ratio(job_ns as f64, pool_ns as f64),
    );
    put("campaign.engine_self_s", per(engine_serial_ns));
    put(
        "campaign.dedupe_ratio",
        ratio(tally.planned as f64, tally.distinct as f64),
    );
    put(
        "telemetry.export_bytes",
        tally.export_bytes as f64 / n as f64,
    );
    put("store.hits", tally.hits as f64 / n as f64);
    put("store.puts", tally.puts as f64 / n as f64);
    for ((metric, _), sum) in SIM_COUNTERS.iter().zip(tally.sim) {
        put(metric, sum as f64 / n as f64);
    }
    put("host.cpu_util", cpu_util);
    put("trace.total_s", per(l.total));
    put("trace.other_s", per(l.other));

    let digest = workload::digest(prep, exports.iter().map(|(i, e)| (*i, e.as_str())));
    Ok(Traced {
        metrics,
        attempted: attempted + engine_pass.runs,
        failed: failed + engine_pass.failed,
        digest,
    })
}

/// Writes the spans as `{"workload","seed","spans":[...]}`.
fn write_trace(path: &Path, w: &Workload, seed: u64, spans: &[Span]) -> Result<(), String> {
    let mut doc = String::from("{\"workload\":");
    push_str(&mut doc, w.name);
    let _ = write!(doc, ",\"seed\":{seed},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str("{\"name\":");
        push_str(&mut doc, s.name);
        doc.push_str(",\"robot\":");
        push_str(&mut doc, s.robot);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            doc,
            ",\"campaign\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.campaign, s.start_ns, s.end_ns
        );
    }
    doc.push_str("]}\n");
    std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Expect;
    use tartan::campaign::experiments::manifests;

    #[test]
    fn replayed_campaign_exports_the_engines_bytes() {
        let mut spec = ScenarioSpec::from_json(manifests::BENCH_TIER1).unwrap();
        spec.params.seed = Some(7);
        let text = spec.to_json();
        let tier1 = workload::find("tier1").unwrap();
        let engine = workload::engine_campaign(tier1, &text, None, false).unwrap();
        let prep = Prepared {
            population: vec![text],
            order: vec![0],
            store: None,
            expect: Expect::Nothing,
        };
        let mut replay = Replay {
            w: tier1,
            prep: &prep,
            store: None,
            tally: Tally::default(),
        };
        let mut tracer = Tracer::new();
        let export = replay.campaign(&mut tracer, 0).unwrap();
        assert_eq!(export, engine.export);
        let l = layers(&tracer.spans);
        assert_eq!(l.by_name.values().sum::<u64>() + l.other, l.total);
        assert_eq!(l.by_robot.len(), 12, "build and step spans for six robots");
    }
}
