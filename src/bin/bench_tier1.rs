//! Tier-1 bench harness: runs all six robots on the baseline and Tartan
//! configurations at test scale and writes `results/BENCH_tier1.json` in
//! the versioned `stats.json` schema (see `SCHEMA.md`), plus
//! `results/BENCH_host.json` with host wall-time and throughput.
//!
//! The run matrix comes from the checked-in `scenarios/bench_tier1.json`
//! manifest and executes through the unified campaign engine
//! (DESIGN.md §18), fanning out across host cores (`--jobs N`, default:
//! all cores); results are collected in submission order, so
//! `BENCH_tier1.json` is byte-identical for any job count. CI runs this on
//! every push and uploads both exports as workflow artifacts, so per-robot
//! cycle counts, miss rates, NPU statistics, and simulator throughput are
//! comparable across commits without rerunning anything.
//!
//! `--store DIR` adds a cold/warm split: the cold pass seeds the result
//! store (records keyed exactly like `tartan_run`'s), then a warm pass
//! re-runs the same campaign with the engine's resume path so the matrix
//! is served entirely from the store, and `BENCH_host.json` gains a
//! `warm` section so cache speedup is a measured number instead of being
//! silently mixed into one figure. Every invocation also appends one
//! summary line to `results/BENCH_history.jsonl` (see `SCHEMA.md`), the
//! input to `bench_compare`'s regression check.
//!
//! Exits non-zero if an export fails schema validation;
//! the error names the offending record (`runs[3]: missing "quality"`).

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use tartan::campaign::{cli, Campaign, CampaignOptions, CampaignSpec, Engine, PhaseClock};
use tartan::core::experiments::manifests;
use tartan::core::{ExperimentParams, ScenarioSpec};
use tartan::sim::telemetry::{
    validate_bench_history_line, validate_host_bench_json, validate_stats_json, BenchHistoryLine,
    HostBenchExport, HostRunStats, StatsExport, WarmBenchStats,
};

const USAGE: &str = "usage: bench_tier1 [--jobs N] [--store DIR]";

/// Single-line I/O failure in the scenario layer's `path: reason` style.
fn die(path: &Path, reason: impl std::fmt::Display) -> ! {
    cli::die("bench_tier1", path, reason)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = cli::FlagSet {
        store: true,
        ..cli::FlagSet::jobs_only()
    };
    let parsed = cli::parse_args(&args, &flags)
        .unwrap_or_else(|e| cli::usage_error("bench_tier1", USAGE, &e));
    let jobs = parsed.jobs;

    let spec = ScenarioSpec::from_json(manifests::BENCH_TIER1)
        .expect("checked-in bench scenario must parse");
    let plan = spec.expand().expect("checked-in bench scenario must expand");
    // The bench matrix always runs at test scale, whatever the manifest's
    // base params say — the export must be comparable across commits.
    let campaign = Campaign {
        spec,
        plan,
        params: ExperimentParams::quick(),
    };

    // Cold pass: simulate every job fresh; with `--store` the engine also
    // seeds the store with records keyed exactly like tartan_run's.
    let engine = Engine::new(CampaignSpec {
        campaigns: vec![campaign.clone()],
        options: CampaignOptions {
            jobs,
            store: parsed.store.clone(),
            keep_outcomes: true,
            tool: "bench_tier1",
            ..CampaignOptions::default()
        },
    });
    let mut clock = PhaseClock::start();
    let report = engine
        .run(&mut clock, None)
        .unwrap_or_else(|e| die(&e.path, e.reason));
    let result = &report.campaigns[0];
    if !result.failures.is_empty() {
        std::process::exit(1);
    }
    let total_host_nanos = report.exec_host_nanos;

    let mut export = StatsExport {
        generator: "bench_tier1".into(),
        runs: Vec::new(),
        failures: Vec::new(),
    };
    let mut host = HostBenchExport {
        generator: "bench_tier1".into(),
        jobs: jobs as u64,
        total_host_nanos,
        runs: Vec::new(),
        warm: None,
    };
    for (job, slot) in campaign.plan.jobs.iter().zip(&result.results) {
        let out = slot.as_ref().expect("failures already handled");
        let outcome = out.outcome.as_ref().expect("cold pass keeps outcomes");
        let config = job.config.as_str();
        println!(
            "{:<10} {:<9} {:>12} cycles  L2 miss {:>5.1}%  NPU {:>4}  host {:>9.2} ms",
            out.robot,
            config,
            out.wall_cycles,
            100.0 * outcome.stats.l2.miss_ratio(),
            outcome.stats.npu_invocations,
            out.host_nanos as f64 / 1e6,
        );
        let run = outcome.to_run_stats(&job.config);
        host.runs.push(HostRunStats {
            robot: run.robot.clone(),
            config: run.config.clone(),
            wall_cycles: run.wall_cycles,
            host_nanos: out.host_nanos,
            cold_host_nanos: None,
        });
        export.runs.push(run);
    }

    // Cold/warm split: re-run the campaign through the engine's resume
    // path, timing the same matrix served entirely from the store.
    if parsed.store.is_some() {
        let warm_engine = Engine::new(CampaignSpec {
            campaigns: vec![campaign],
            options: CampaignOptions {
                jobs,
                store: parsed.store,
                resume: true,
                tool: "bench_tier1",
                ..CampaignOptions::default()
            },
        });
        let mut warm_clock = PhaseClock::start();
        let warm_report = warm_engine
            .run(&mut warm_clock, None)
            .unwrap_or_else(|e| die(&e.path, e.reason));
        let warm_result = &warm_report.campaigns[0];
        if !warm_result.failures.is_empty() {
            std::process::exit(1);
        }
        let mut warm = WarmBenchStats {
            total_host_nanos: warm_report.exec_host_nanos,
            runs: Vec::new(),
        };
        for (i, slot) in warm_result.results.iter().enumerate() {
            let out = slot.as_ref().expect("failures already handled");
            if !out.cached {
                eprintln!(
                    "bench_tier1: warm pass missed {} {} in the store it just seeded",
                    host.runs[i].robot, host.runs[i].config
                );
                std::process::exit(1);
            }
            warm.runs.push(HostRunStats {
                robot: host.runs[i].robot.clone(),
                config: host.runs[i].config.clone(),
                wall_cycles: host.runs[i].wall_cycles,
                host_nanos: out.host_nanos,
                // Warm rows reuse the cold pass's cycle count, so carry the
                // cold simulation time too — sim_cycles_per_host_sec divides
                // cycles by the pass that produced them, not the store fetch.
                cold_host_nanos: Some(host.runs[i].host_nanos),
            });
        }
        println!(
            "warm (store-served): {:.3} s wall, {:.2} runs/s",
            warm.total_host_nanos as f64 / 1e9,
            warm.runs_per_sec(),
        );
        host.warm = Some(warm);
    }

    let json = export.to_json();
    if let Err(e) = validate_stats_json(&json) {
        eprintln!("bench_tier1: bench export violates the stats.json schema: {e}");
        std::process::exit(1);
    }
    let host_json = host.to_json();
    if let Err(e) = validate_host_bench_json(&host_json) {
        eprintln!("bench_tier1: host export violates the BENCH_host.json schema: {e}");
        std::process::exit(1);
    }
    let results_dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(results_dir) {
        die(results_dir, e);
    }
    let tier1_path = results_dir.join("BENCH_tier1.json");
    if let Err(e) = fs::write(&tier1_path, &json) {
        die(&tier1_path, e);
    }
    let host_path = results_dir.join("BENCH_host.json");
    if let Err(e) = fs::write(&host_path, &host_json) {
        die(&host_path, e);
    }
    // Append (never rewrite) one history line per invocation, so the file
    // accumulates a local throughput trajectory for bench_compare.
    let line = BenchHistoryLine {
        generator: "bench_tier1".into(),
        timestamp_secs: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        jobs: jobs as u64,
        runs: export.runs.len() as u64,
        total_host_nanos,
        runs_per_sec: host.runs_per_sec(),
        warm_runs_per_sec: host.warm.as_ref().map(WarmBenchStats::runs_per_sec),
    }
    .to_json_line();
    if let Err(e) = validate_bench_history_line(&line) {
        eprintln!("bench_tier1: history line violates the schema: {e}");
        std::process::exit(1);
    }
    let history_path = results_dir.join("BENCH_history.jsonl");
    if let Err(e) = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .and_then(|mut f| writeln!(f, "{line}"))
    {
        die(&history_path, e);
    }
    println!(
        "wrote results/BENCH_tier1.json ({} runs) and results/BENCH_host.json \
         (jobs {jobs}, {:.2} s wall, {:.2} runs/s); appended results/BENCH_history.jsonl",
        export.runs.len(),
        total_host_nanos as f64 / 1e9,
        host.runs_per_sec(),
    );
}
