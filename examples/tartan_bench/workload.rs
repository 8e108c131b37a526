//! The four workloads: request generation (set-up), the closed-loop
//! clients that submit campaigns, and the output-correctness gate.
//!
//! A *campaign* is the work `tartan_run` does for one scenario document:
//! parse it, expand it, run it through `Engine::run`, render the exports
//! with `render_exports`, and validate the stats export. Each client
//! submits its next campaign only when the previous one has returned.

use std::collections::BTreeMap;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tartan::campaign::experiments::manifests;
use tartan::campaign::{
    probe_spec, render_exports, Campaign, CampaignOptions, CampaignSpec, Engine, JobSet, PhaseClock,
};
use tartan::core::ExperimentParams;
use tartan::robots::{RobotKind, Scale};
use tartan::scenario::{Pattern, RobotsSpec, ScenarioSpec};
use tartan::sim::telemetry::{validate_stats_json, StatsExport};
use tartan::store::sha256_hex;

/// The `generator` stamped into every export the benchmark renders.
pub const GENERATOR: &str = "tartan_bench";

/// The default `--seed`; also the seed of the environments the
/// populations start from and of the probe specs.
pub const DEFAULT_SEED: u64 = 42;

/// Population members whose exports make up a workload's digest (all of a
/// smaller population). The seed only orders the population, so the
/// digest is the same at every seed; the untraced run and the traced
/// replay both export every one of them.
pub const DIGEST_CAMPAIGNS: usize = 8;

/// An untraced run completes at least this many campaigns, so the p75
/// latency has at least ten samples beyond it.
pub const MIN_CAMPAIGNS: usize = 40;

/// Environment seeds in the `tier1` and `paper_prefetch` populations
/// (`DEFAULT_SEED..DEFAULT_SEED + 40`): one full pass per run.
const SEEDED_POPULATION: u64 = 40;

/// `tartan_gen` probe specs in the `probe_swarm` population; a run
/// cycles through it about twice, and at least once.
const PROBE_POPULATION: usize = 2000;

/// Probe specs outside the population that `probe_swarm`'s set-up warms
/// up with: one ~2 ms probe is too little work to time steadily.
const PROBE_WARM_UP: usize = 64;

/// Documents in the `store_resume` population: `fig11_fcp` and sub-sweeps
/// of it. Campaigns of one size would put every latency in one narrow
/// peak per host speed, and the median would jump between the peaks from
/// run to run; sizes from 1 to 78 jobs spread the latencies out, so the
/// median moves smoothly with the host.
const SUBSWEEP_POPULATION: usize = 64;

/// The checked-in `paper_prefetch` scenario.
pub const PAPER_PREFETCH: &str = include_str!("workloads/paper_prefetch.json");

/// The tier-1 bench export at seed 42; the seed-42 `tier1` campaign must
/// reproduce its run records.
const BENCH_TIER1_JSON: &str = include_str!("../../results/BENCH_tier1.json");

/// What a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `scenarios/bench_tier1.json` at 40 environment seeds, committing
    /// every job to a cold result store.
    Tier1,
    /// `workloads/paper_prefetch.json` at 40 environment seeds.
    PaperPrefetch,
    /// `tartan_gen`'s probe specs, each through `probe_spec`.
    ProbeSwarm,
    /// `scenarios/fig11_fcp.json` and sub-sweeps of it at seed 42, resumed
    /// from a store seeded in set-up.
    StoreResume,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (the `BENCHMARK.json` `why`).
    pub why: &'static str,
    /// What it sends.
    pub kind: Kind,
    /// Closed-loop clients.
    pub clients: usize,
    /// Engine worker threads per campaign.
    pub jobs: usize,
    /// Set-ups per run; `setup_s` is the nearest-rank median of their
    /// times. The first, cold set-up is the slowest, so with four the
    /// median is in effect that of the three warm ones.
    pub setup_reps: usize,
    /// Campaigns the traced run replays.
    pub trace_campaigns: usize,
    /// SHA-256 of the exports of the digest members (see [`digest`]).
    pub digest: &'static str,
}

/// The workloads, in `BENCHMARK.json` order. Clients × jobs never
/// exceeds two threads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tier1",
        why: "CI's tier-1 matrix over 40 environment seeds, 2 workers, cold store: set-up bound (MLP fits in build); CarriBot is the step-loop straggler",
        kind: Kind::Tier1,
        clients: 1,
        jobs: 2,
        setup_reps: 4,
        trace_campaigns: 8,
        digest: "3a6293483b56e0691c65d434e9049838594c851dfefb203a73071ebe4337193e",
    },
    Workload {
        name: "paper_prefetch",
        why: "4 prefetchers x 4 robots at paper scale, working sets beyond the L2, no model training: step-loop bound; a set-up change must not move it",
        kind: Kind::PaperPrefetch,
        clients: 1,
        jobs: 1,
        setup_reps: 4,
        trace_campaigns: 40,
        digest:"bdcc0d676615bbd2d2d06bc7515e4c710202c39966ae0f86c2b8fe194796643a",
    },
    Workload {
        name: "probe_swarm",
        why: "2000 tartan_gen probe specs cycled by two clients: thousands of tiny varied jobs sharing fit keys, so Machine::new and per-job overhead show",
        kind: Kind::ProbeSwarm,
        clients: 2,
        jobs: 1,
        setup_reps: 4,
        trace_campaigns: 400,
        digest:"853da6201f79b821a5e77e78905319871a1f171ff1f87983c3dd56eebac91abe",
    },
    Workload {
        name: "store_resume",
        why: "fig11_fcp and 63 sub-sweeps of it (1-78 jobs) resumed from a seeded store, every job a store hit: only parse, keying, store reads, fan-out, render and validate remain",
        kind: Kind::StoreResume,
        clients: 1,
        jobs: 1,
        // Each set-up is a 2-4 s seeding pass; two (whose median is the
        // warm one) keep a run under 30 s.
        setup_reps: 2,
        // Sixteen passes over the population.
        trace_campaigns: 16 * SUBSWEEP_POPULATION,
        digest:"c70a649d3bd7bb820325f1c88e577df5651920ff7925644d8239a3e2bd49f066",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a campaign's export must equal, beyond passing validation.
#[derive(Debug)]
pub enum Expect {
    /// Validation only.
    Nothing,
    /// Every campaign reproduces its member's export from the store
    /// seeding pass, indexed by member.
    Each(Vec<String>),
    /// Every campaign submitting the population's first member reproduces
    /// this export.
    First(String),
}

/// A workload after set-up: its population in the seed's order, its
/// store, and its oracle.
#[derive(Debug)]
pub struct Prepared {
    /// The scenario documents the workload sends, in a fixed order.
    pub population: Vec<String>,
    /// The seed's permutation of the population: campaign `i` submits
    /// member `order[i % len]`.
    pub order: Vec<usize>,
    /// Result store every campaign commits to (and for `store_resume`
    /// resumes from).
    pub store: Option<PathBuf>,
    /// What the exports must equal.
    pub expect: Expect,
}

impl Prepared {
    /// Deletes the workload's store directory.
    pub fn remove_store(&self) {
        if let Some(dir) = &self.store {
            let _ = fs::remove_dir_all(dir);
        }
    }

    /// The population member campaign `index` submits.
    pub fn member(&self, index: usize) -> usize {
        self.order[index % self.order.len()]
    }

    /// The document campaign `index` submits.
    pub fn request(&self, index: usize) -> &str {
        &self.population[self.member(index)]
    }

    /// Whether campaign `index` is a digest member's first submission.
    pub fn in_digest(&self, index: usize) -> bool {
        index < self.order.len() && self.member(index) < DIGEST_CAMPAIGNS
    }

    /// The first `count` campaigns, in the seed's order, whose members
    /// lie in `members` (which must hold a member).
    pub fn positions(&self, members: Range<usize>, count: usize) -> Vec<usize> {
        (0..)
            .filter(|&i| members.contains(&self.member(i)))
            .take(count)
            .collect()
    }

    /// The bytes campaign `index` must export, if the oracle knows them.
    pub fn expected(&self, index: usize) -> Option<&str> {
        match &self.expect {
            Expect::Nothing => None,
            Expect::Each(exports) => Some(&exports[self.member(index)]),
            Expect::First(export) => (self.member(index) == 0).then_some(export.as_str()),
        }
    }
}

/// Host time the engine reported for one campaign.
#[derive(Debug, Clone, Copy)]
pub struct EngineTimes {
    /// The `Engine::run` call, measured around it.
    pub run_ns: u64,
    /// The report's execution phase (`exec_host_nanos`).
    pub exec_ns: u64,
    /// Σ of the report's per-job `host_nanos`.
    pub job_ns: u64,
    /// Worker threads the pool used.
    pub workers: usize,
}

/// One executed campaign, before the benchmark's own checks.
#[derive(Debug)]
pub struct Executed {
    /// Parse to validation, excluding the benchmark's bookkeeping.
    pub latency_ns: u64,
    /// The validated stats export.
    pub export: String,
    /// Planned jobs.
    pub runs: usize,
    /// Jobs the engine reported as failed.
    pub failed: usize,
    /// Σ wall cycles of the runs the campaign delivered.
    pub delivered_cycles: u64,
    /// The engine's timings, when asked for.
    pub engine: Option<EngineTimes>,
}

/// One completed campaign as the client saw it.
#[derive(Debug)]
pub struct CampaignOut {
    /// Campaign index (request order).
    pub index: usize,
    /// Failed jobs: engine failures, or every job of a campaign that
    /// errored or exported other bytes than expected.
    pub failed: usize,
    /// The campaign, `None` when it errored. Only the campaigns
    /// [`Prepared::in_digest`] names keep their export.
    pub executed: Option<Executed>,
}

impl CampaignOut {
    /// Planned jobs (one for a campaign that errored before planning).
    pub fn runs(&self) -> usize {
        self.executed.as_ref().map_or(1, |e| e.runs)
    }
}

/// Builds the campaign a scenario runs as: its own parameters, or for
/// probes the parameters `probe_spec` uses (probe scale with the spec's
/// adjusts, its steps defaulting to 1, its seed defaulting to 42).
pub fn expand(spec: ScenarioSpec, probe: bool) -> Result<Campaign, String> {
    if !probe {
        return Campaign::from_spec(spec).map_err(|e| e.to_string());
    }
    let plan = spec.expand().map_err(|e| e.to_string())?;
    let mut scale = Scale::probe();
    spec.params.apply_adjusts(&mut scale);
    let params = ExperimentParams {
        scale,
        steps: spec.params.steps.unwrap_or(1) as usize,
        seed: spec.params.seed.unwrap_or(42),
    };
    Ok(Campaign { spec, plan, params })
}

/// The engine for a batch of `w`'s campaigns, committing to (and for
/// `store_resume`, resuming from) `store`.
fn engine_for(w: &Workload, campaigns: Vec<Campaign>, store: Option<&Path>) -> Engine {
    Engine::new(CampaignSpec {
        campaigns,
        options: CampaignOptions {
            jobs: w.jobs,
            store: store.map(Path::to_path_buf),
            resume: w.kind == Kind::StoreResume,
            tool: GENERATOR,
            ..CampaignOptions::default()
        },
    })
}

/// Runs one campaign of `w` through `Engine::run`, committing to (and for
/// `store_resume`, resuming from) `store`. With `engine_times`, also
/// returns the engine's timings, counting each deduplicated unit's job
/// time once.
pub fn engine_campaign(
    w: &Workload,
    text: &str,
    store: Option<&Path>,
    engine_times: bool,
) -> Result<Executed, String> {
    let start = Instant::now();
    let spec = ScenarioSpec::from_json(text).map_err(|e| e.to_string())?;
    let campaign = expand(spec, w.kind == Kind::ProbeSwarm)?;
    let engine = engine_for(w, vec![campaign], store);
    let run_start = Instant::now();
    let report = engine
        .run(&mut PhaseClock::start(), None)
        .map_err(|e| e.to_string())?;
    let run_ns = run_start.elapsed().as_nanos() as u64;
    let result = &report.campaigns[0];
    let (export, _csv) = render_exports(GENERATOR, &engine.spec.campaigns[0], result);
    validate_stats_json(&export)?;
    let latency_ns = start.elapsed().as_nanos() as u64;
    let engine_times = engine_times.then(|| {
        let jobset = JobSet::build(&engine.spec.campaigns);
        let job_ns = jobset
            .units
            .iter()
            .filter_map(|u| result.results[u.requesters[0].job].as_ref())
            .map(|r| r.host_nanos)
            .sum();
        EngineTimes {
            run_ns,
            exec_ns: report.exec_host_nanos,
            job_ns,
            workers: report.workers,
        }
    });
    Ok(Executed {
        latency_ns,
        export,
        runs: result.results.len(),
        failed: result.failures.len(),
        delivered_cycles: result.results.iter().flatten().map(|r| r.wall_cycles).sum(),
        engine: engine_times,
    })
}

/// Runs one probe campaign the way `tartan_gen` does, through
/// `probe_spec`, and renders and validates its export.
fn probe_campaign(text: &str) -> Result<Executed, String> {
    let start = Instant::now();
    let spec = ScenarioSpec::from_json(text).map_err(|e| e.to_string())?;
    let runs = probe_spec(&spec).map_err(|e| e.to_string())?;
    let export = StatsExport {
        generator: GENERATOR.into(),
        runs,
        failures: Vec::new(),
    };
    let json = export.to_json();
    validate_stats_json(&json)?;
    Ok(Executed {
        latency_ns: start.elapsed().as_nanos() as u64,
        runs: export.runs.len(),
        failed: 0,
        delivered_cycles: export.runs.iter().map(|r| r.wall_cycles).sum(),
        export: json,
        engine: None,
    })
}

/// `text` with its run seed set to `seed`.
fn seeded(text: &str, seed: u64) -> Result<String, String> {
    let mut spec = ScenarioSpec::from_json(text).map_err(|e| e.to_string())?;
    spec.params.seed = Some(seed);
    Ok(spec.to_json())
}

/// The SplitMix64 generator seeded with `seed`.
fn splitmix64(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A permutation of `0..n`, shuffled by `seed` (Fisher-Yates over
/// SplitMix64).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut next = splitmix64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// `fig11_fcp` and `count - 1` distinct sub-sweeps of it, each keeping a
/// random non-empty subset of its robots and of every axis's variants,
/// with or without its prelude. A sub-sweep's jobs are jobs of
/// `fig11_fcp`, with the same configuration labels and cache keys.
pub fn subsweeps(count: usize) -> Result<Vec<String>, String> {
    let full = ScenarioSpec::from_json(manifests::FIG11_FCP).map_err(|e| e.to_string())?;
    let mut next = splitmix64(DEFAULT_SEED);
    let mut coin = move || next() & 1 == 1;
    let mut population = vec![full.to_json()];
    while population.len() < count {
        let mut spec = full.clone();
        for group in &mut spec.groups {
            let robots: Vec<RobotKind> = group
                .robots
                .resolve()
                .into_iter()
                .filter(|_| coin())
                .collect();
            group.robots = RobotsSpec::List(robots);
            if coin() {
                group.prelude.clear();
            }
            for axis in &mut group.axes {
                axis.variants.retain(|_| coin());
            }
        }
        let empty = spec
            .groups
            .iter()
            .any(|g| g.robots.resolve().is_empty() || g.axes.iter().any(|a| a.variants.is_empty()));
        let text = spec.to_json();
        if !empty && !population.contains(&text) {
            population.push(text);
        }
    }
    Ok(population)
}

/// Seeds `store` with one engine batch of every document in `population`,
/// in which each distinct job simulates once, and returns each document's
/// validated export.
fn seed_store(w: &Workload, population: &[String], store: &Path) -> Result<Vec<String>, String> {
    let campaigns = population
        .iter()
        .map(|text| {
            expand(
                ScenarioSpec::from_json(text).map_err(|e| e.to_string())?,
                false,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let engine = engine_for(w, campaigns, Some(store));
    let report = engine
        .run(&mut PhaseClock::start(), None)
        .map_err(|e| e.to_string())?;
    engine
        .spec
        .campaigns
        .iter()
        .zip(&report.campaigns)
        .map(|(campaign, result)| {
            if !result.failures.is_empty() {
                return Err(format!(
                    "seeding pass failed {} job(s)",
                    result.failures.len()
                ));
            }
            let (export, _csv) = render_exports(GENERATOR, campaign, result);
            validate_stats_json(&export)?;
            Ok(export)
        })
        .collect()
}

/// A fresh, empty directory for one set-up repetition's store.
fn fresh_store(scratch: &Path, name: &str, rep: usize) -> Result<PathBuf, String> {
    let dir = scratch.join(format!("{name}-{}-{rep}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One set-up: generates the requests, creates the store, and runs
/// warm-up campaigns outside the measured population (for `store_resume`,
/// the pass that seeds the store), so allocator and arena growth and
/// first-touch costs land here rather than in the first measured
/// campaigns.
///
/// Each workload sends a fixed population of documents and `seed` only
/// shuffles their order, so runs at different seeds measure the same
/// work: a tier-1 campaign's cost varies several-fold with its
/// environment seed, which would otherwise swamp the metrics.
fn setup(w: &Workload, seed: u64, scratch: &Path, rep: usize) -> Result<Prepared, String> {
    let (prepared, warm_up) = match w.kind {
        Kind::Tier1 | Kind::PaperPrefetch => {
            let text = if w.kind == Kind::Tier1 {
                manifests::BENCH_TIER1
            } else {
                PAPER_PREFETCH
            };
            let population = (0..SEEDED_POPULATION)
                .map(|k| seeded(text, DEFAULT_SEED + k))
                .collect::<Result<Vec<_>, _>>()?;
            let warm_up = vec![seeded(text, DEFAULT_SEED + SEEDED_POPULATION)?];
            let prepared = if w.kind == Kind::Tier1 {
                // The tier-1 bench ran the manifest at seed 42, the
                // population's first member.
                Prepared {
                    order: permutation(population.len(), seed),
                    population,
                    store: Some(fresh_store(scratch, w.name, rep)?),
                    expect: Expect::First(BENCH_TIER1_JSON.replacen(
                        "\"generator\":\"bench_tier1\"",
                        &format!("\"generator\":\"{GENERATOR}\""),
                        1,
                    )),
                }
            } else {
                Prepared {
                    order: permutation(population.len(), seed),
                    population,
                    store: None,
                    expect: Expect::Nothing,
                }
            };
            (prepared, warm_up)
        }
        Kind::ProbeSwarm => {
            let mut population: Vec<String> = Pattern::tartan_default()
                .select(DEFAULT_SEED, PROBE_POPULATION + PROBE_WARM_UP)
                .iter()
                .map(ScenarioSpec::to_json)
                .collect();
            let warm_up = population.split_off(PROBE_POPULATION);
            let prepared = Prepared {
                order: permutation(population.len(), seed),
                population,
                store: None,
                expect: Expect::Nothing,
            };
            (prepared, warm_up)
        }
        Kind::StoreResume => {
            let population = subsweeps(SUBSWEEP_POPULATION)?;
            let store = fresh_store(scratch, w.name, rep)?;
            let seeded = seed_store(w, &population, &store)?;
            return Ok(Prepared {
                order: permutation(population.len(), seed),
                population,
                store: Some(store),
                expect: Expect::Each(seeded),
            });
        }
    };
    for text in &warm_up {
        let warmed = execute(w, &prepared, text, false)?;
        if warmed.failed > 0 {
            return Err(format!("warm-up campaign failed {} job(s)", warmed.failed));
        }
    }
    Ok(prepared)
}

/// Sets the workload up [`Workload::setup_reps`] times, keeping the last,
/// and returns it with each repetition's seconds.
pub fn prepare(w: &Workload, seed: u64, scratch: &Path) -> Result<(Prepared, Vec<f64>), String> {
    let mut times = Vec::with_capacity(w.setup_reps);
    let mut kept: Option<Prepared> = None;
    for rep in 0..w.setup_reps {
        if let Some(previous) = kept.take() {
            previous.remove_store();
        }
        let start = Instant::now();
        let prepared = setup(w, seed, scratch, rep)?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(prepared);
    }
    Ok((kept.expect("setup_reps is at least 1"), times))
}

/// Runs one campaign as an untraced client does. `via_engine` sends probe
/// specs through `Engine::run` instead of `probe_spec` and asks for the
/// engine's timings (the traced run's engine pass).
fn execute(
    w: &Workload,
    prep: &Prepared,
    text: &str,
    via_engine: bool,
) -> Result<Executed, String> {
    if w.kind == Kind::ProbeSwarm && !via_engine {
        probe_campaign(text)
    } else {
        engine_campaign(w, text, prep.store.as_deref(), via_engine)
    }
}

/// Runs campaign `index` and checks its export.
fn submit(w: &Workload, prep: &Prepared, index: usize, via_engine: bool) -> CampaignOut {
    let mut executed = match execute(w, prep, prep.request(index), via_engine) {
        Ok(executed) => executed,
        Err(e) => {
            eprintln!("tartan_bench: {} campaign {index}: {e}", w.name);
            return CampaignOut {
                index,
                failed: 1,
                executed: None,
            };
        }
    };
    let mut failed = executed.failed;
    if prep
        .expected(index)
        .is_some_and(|want| executed.export != want)
    {
        eprintln!(
            "tartan_bench: {} campaign {index}: export differs from the expected bytes",
            w.name
        );
        failed = executed.runs;
    }
    if !prep.in_digest(index) {
        executed.export = String::new();
    }
    CampaignOut {
        index,
        failed,
        executed: Some(executed),
    }
}

/// Which campaigns a closed loop submits.
#[derive(Debug, Clone, Copy)]
pub enum Stop<'a> {
    /// Campaigns `0, 1, ...` until this long has passed and at least
    /// [`MIN_CAMPAIGNS`] and a full pass over the population have been
    /// submitted.
    After(Duration),
    /// These campaigns.
    Positions(&'a [usize]),
}

/// What one closed-loop run measured. It keeps one latency per campaign
/// and folds the rest into sums, so that the benchmark's own memory, which
/// `peak_rss_mb` includes, barely grows with the number of campaigns a
/// faster program completes.
#[derive(Debug, Default)]
pub struct LoopRun {
    /// Completed campaigns.
    pub campaigns: usize,
    /// Latency of each campaign that executed, in completion order.
    pub latencies_ns: Vec<u64>,
    /// Planned jobs (one for a campaign that errored before planning).
    pub runs: u64,
    /// Failed jobs, as [`CampaignOut::failed`] counts them.
    pub failed: u64,
    /// Σ wall cycles of the runs the campaigns delivered.
    pub delivered_cycles: u64,
    /// The engine's timings of each campaign that reported them.
    pub engine: Vec<EngineTimes>,
    /// `(campaign, export)` of the campaigns [`Prepared::in_digest`] names.
    pub digest_exports: Vec<(usize, String)>,
    /// First submission to last return.
    pub wall_ns: u64,
}

impl LoopRun {
    fn add(&mut self, out: CampaignOut) {
        self.campaigns += 1;
        self.runs += out.runs() as u64;
        self.failed += out.failed as u64;
        if let Some(e) = out.executed {
            self.latencies_ns.push(e.latency_ns);
            self.delivered_cycles += e.delivered_cycles;
            self.engine.extend(e.engine);
            if !e.export.is_empty() {
                self.digest_exports.push((out.index, e.export));
            }
        }
    }
}

/// Runs the workload's clients until `stop`.
pub fn closed_loop(w: &Workload, prep: &Prepared, stop: Stop, via_engine: bool) -> LoopRun {
    let next = AtomicUsize::new(0);
    let run = Mutex::new(LoopRun::default());
    let at_least = MIN_CAMPAIGNS.max(prep.order.len());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..w.clients {
            scope.spawn(|| loop {
                let n = next.fetch_add(1, Ordering::SeqCst);
                let index = match stop {
                    Stop::After(limit) if n >= at_least && start.elapsed() >= limit => break,
                    Stop::After(_) => n,
                    Stop::Positions(positions) => match positions.get(n) {
                        Some(&index) => index,
                        None => break,
                    },
                };
                let out = submit(w, prep, index, via_engine);
                run.lock().expect("a client panicked").add(out);
            });
        }
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    let mut run = run.into_inner().expect("a client panicked");
    run.wall_ns = wall_ns;
    run
}

/// SHA-256 of the exports of population members `0..DIGEST_CAMPAIGNS`
/// (every member of a smaller population), concatenated in member order,
/// from `(campaign, export)` pairs; `None` when one is missing. The seed
/// only orders the population, so the digest does not depend on it.
pub fn digest<'a>(
    prep: &Prepared,
    exports: impl IntoIterator<Item = (usize, &'a str)>,
) -> Option<String> {
    let mut by_member = BTreeMap::new();
    for (index, export) in exports {
        if prep.in_digest(index) {
            by_member.entry(prep.member(index)).or_insert(export);
        }
    }
    (by_member.len() == DIGEST_CAMPAIGNS.min(prep.order.len()))
        .then(|| sha256_hex(by_member.into_values().collect::<String>().as_bytes()))
}

/// The digest of an untraced run's exports.
pub fn run_digest(prep: &Prepared, run: &LoopRun) -> Option<String> {
    digest(
        prep,
        run.digest_exports.iter().map(|(i, e)| (*i, e.as_str())),
    )
}

/// Nearest-rank percentile (`p` in 0..=100) of sorted samples: the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}
