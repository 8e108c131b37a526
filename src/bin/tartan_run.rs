//! `tartan_run`: executes scenario files (see `SCHEMA.md` and the
//! checked-in examples under `scenarios/`) through the unified campaign
//! engine and writes each scenario's results as a validated `stats.json`
//! export plus a flat CSV.
//!
//! ```text
//! tartan_run FILE... [--jobs N] [--out DIR] [--scale small|paper]
//!                    [--store DIR [--resume] [--verify N]]
//!                    [--progress[=human|jsonl]] [--batch DIR]
//! tartan_run --check FILE...
//! ```
//!
//! Run mode expands each scenario into its ordered job list, fans the
//! jobs out across host cores (`--jobs N`, default: all cores; results
//! are collected in submission order, so the outputs are byte-identical
//! for any job count), and writes `<out>/<name>.stats.json` and
//! `<out>/<name>.csv` (default `results/`). `--scale` overrides the
//! scenarios' scale presets; each scenario's `params.adjust` list still
//! applies on top.
//!
//! **Batch campaigns** (DESIGN.md §18): more than one `FILE`, or
//! `--batch DIR` (runs every `*.json` in `DIR`, sorted), executes all
//! scenarios as one batch. Jobs with identical cache keys **across
//! scenarios are deduplicated**: each distinct key simulates exactly
//! once and the result fans back to every requesting campaign, so every
//! scenario's exports are byte-identical to running its file alone.
//! Batch mode streams one JSON line per job lifecycle event
//! (started/cached/done/failed, see `SCHEMA.md`) to stdout as units
//! land, in an order that depends only on the job set — never on
//! scheduling — followed by the per-scenario export summaries.
//!
//! Crash-safe campaigns (DESIGN.md §14): `--store DIR` records every
//! completed run in a content-addressed store keyed by the SHA-256 of the
//! job's canonical rendering, committed atomically as each job finishes.
//! `--resume` serves jobs from the store instead of re-simulating them —
//! because runs are byte-deterministic and exports splice the stored
//! record bytes verbatim, a resumed campaign's outputs are byte-identical
//! to an uninterrupted run. `--verify N` re-executes a seeded sample of N
//! cache-served jobs and diffs the records byte-for-byte; a mismatch
//! quarantines and repairs the entry and fails the run. Jobs that panic
//! are isolated per job: the remaining jobs complete, and the export
//! carries a structured `failures` section instead of the campaign
//! aborting. A failed job is not retried — jobs are deterministic, so it
//! would panic again.
//!
//! Campaign observability (DESIGN.md §15): `--progress[=human|jsonl]`
//! prints rate-limited heartbeats to stderr (done/total, runs/sec, ETA,
//! cache-hit rate, failures) and writes two additional
//! artifacts next to the stats export — `<name>.campaign_profile.json`
//! (schema-validated host-time attribution: disjoint parse/plan/simulate/
//! store-io/export phases whose nanos sum to the campaign total by
//! construction, one span per job, and the metrics snapshot) and
//! `<name>.campaign_trace.json` (a Perfetto-loadable timeline with one
//! track per worker). In batch mode the two artifacts cover the whole
//! batch as `batch.campaign_profile.json`/`batch.campaign_trace.json`.
//! All of this is strictly additive: the stats/CSV outputs are
//! byte-identical with the flag on or off.
//!
//! Check mode validates each file and prints one line per problem in the
//! scenario layer's `file: field.path: reason` form — the same errors CI
//! enforces for the checked-in manifests.
//!
//! Exit codes: 0 success, 1 invalid scenario, schema violation, I/O
//! error, job failure, or verification mismatch; 2 usage.
//!
//! Test hooks (used by the kill-resume suite and CI, not part of the UI):
//! `TARTAN_RUN_PANIC_AT=i,j,...` panics those job indices;
//! `TARTAN_RUN_EXIT_AFTER=N` hard-exits (code 3) after N completions,
//! simulating a mid-campaign kill.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use tartan::campaign::{
    cli, render_exports, Campaign, CampaignEvent, CampaignOptions, CampaignReport, CampaignSpec,
    Engine, PhaseClock,
};
use tartan::core::ScenarioSpec;
use tartan::sim::telemetry::{
    campaign_trace_json, push_str, validate_campaign_profile_json, validate_stats_json,
    CampaignProfile, CAMPAIGN_SCHEMA_VERSION,
};

const USAGE: &str = "usage: tartan_run FILE... [--jobs N] [--out DIR] [--scale small|paper]\n\
                     \x20                [--store DIR [--resume] [--verify N]]\n\
                     \x20                [--progress[=human|jsonl]] [--batch DIR]\n\
                     \x20      tartan_run --check FILE...";

fn usage_error(msg: &str) -> ! {
    cli::usage_error("tartan_run", USAGE, msg)
}

/// Single-line I/O failure in the scenario layer's `path: reason` style.
fn die(path: &Path, reason: impl std::fmt::Display) -> ! {
    cli::die("tartan_run", path, reason)
}

fn check(files: &[String]) -> ! {
    let mut ok = true;
    for file in files {
        let text = match fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: $: {e}");
                ok = false;
                continue;
            }
        };
        match ScenarioSpec::from_json(&text).and_then(|s| s.expand().map(|p| (s, p))) {
            Ok((spec, plan)) => println!(
                "{file}: OK ({} jobs, {} groups, name {})",
                plan.jobs.len(),
                plan.groups.len(),
                spec.name
            ),
            Err(e) => {
                eprintln!("{file}: {e}");
                ok = false;
            }
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}

/// One batch-mode stream line: a `campaign_schema_version` 2 `"job"`
/// document for a per-job lifecycle event (see `SCHEMA.md`).
fn event_json(spec: &CampaignSpec, ev: &CampaignEvent<'_>) -> String {
    let (event, campaign, job) = match ev {
        CampaignEvent::Started { campaign, job } => ("started", *campaign, *job),
        CampaignEvent::Cached { campaign, job, .. } => ("cached", *campaign, *job),
        CampaignEvent::Done { campaign, job, .. } => ("done", *campaign, *job),
        CampaignEvent::Failed { campaign, job, .. } => ("failed", *campaign, *job),
    };
    let c = &spec.campaigns[campaign];
    let j = &c.plan.jobs[job];
    let mut line = format!("{{\"campaign_schema_version\":{CAMPAIGN_SCHEMA_VERSION},\"type\":\"job\",\"event\":");
    push_str(&mut line, event);
    line.push_str(",\"scenario\":");
    push_str(&mut line, &c.spec.name);
    let _ = write!(line, ",\"campaign\":{campaign},\"job\":{job},\"robot\":");
    push_str(&mut line, j.robot.name());
    line.push_str(",\"config\":");
    push_str(&mut line, j.config.as_str());
    line.push_str(",\"label\":");
    push_str(&mut line, &j.label);
    match ev {
        CampaignEvent::Started { .. } => {}
        CampaignEvent::Cached {
            output, deduped, ..
        }
        | CampaignEvent::Done {
            output, deduped, ..
        } => {
            let _ = write!(
                line,
                ",\"wall_cycles\":{},\"quality\":\"{}\",\"cached\":{},\"deduped\":{deduped}",
                output.wall_cycles, output.quality, output.cached
            );
        }
        CampaignEvent::Failed {
            message, deduped, ..
        } => {
            line.push_str(",\"message\":");
            push_str(&mut line, message);
            let _ = write!(line, ",\"deduped\":{deduped}");
        }
    }
    line.push('}');
    line
}

/// Renders, validates, and writes one campaign's stats/CSV pair,
/// returning `(stats_path, csv_path, runs)`.
fn write_campaign_exports(
    out_dir: &Path,
    campaign: &Campaign,
    result: &tartan::campaign::CampaignResult,
) -> (std::path::PathBuf, std::path::PathBuf, usize) {
    let (json, csv) = render_exports("tartan_run", campaign, result);
    if let Err(e) = validate_stats_json(&json) {
        eprintln!("tartan_run: stats export violates the schema: {e}");
        std::process::exit(1);
    }
    if let Err(e) = fs::create_dir_all(out_dir) {
        die(out_dir, e);
    }
    let stats_path = out_dir.join(format!("{}.stats.json", campaign.spec.name));
    let csv_path = out_dir.join(format!("{}.csv", campaign.spec.name));
    if let Err(e) = fs::write(&stats_path, &json) {
        die(&stats_path, e);
    }
    if let Err(e) = fs::write(&csv_path, &csv) {
        die(&csv_path, e);
    }
    let runs = result.results.iter().filter(|r| r.is_some()).count();
    (stats_path, csv_path, runs)
}

/// Prints the store summary line shared by both modes (DESIGN.md §15):
/// campaign-lifetime op counts from this handle, folded into the metrics
/// snapshot.
fn print_store_summary(report: &CampaignReport) {
    if let Some(c) = &report.store_counts {
        println!(
            "store: {} hit(s), {} miss(es), {} put(s), {} quarantine(s)",
            c.hits, c.misses, c.puts, c.quarantines
        );
    }
}

/// Writes the profile + Perfetto trace pair for `--progress` runs.
fn write_profile(out_dir: &Path, scenario: &str, clock: &PhaseClock, report: &CampaignReport) {
    let profile = CampaignProfile {
        generator: "tartan_run".to_string(),
        scenario: scenario.to_string(),
        jobs: report.workers as u64,
        total_host_nanos: clock.total_nanos(),
        phases: clock.phases().to_vec(),
        spans: report.spans.clone(),
        metrics: report.registry.snapshot(),
    };
    let profile_json = profile.to_json();
    if let Err(e) = validate_campaign_profile_json(&profile_json) {
        eprintln!("tartan_run: campaign profile violates the schema: {e}");
        std::process::exit(1);
    }
    let profile_path = out_dir.join(format!("{scenario}.campaign_profile.json"));
    if let Err(e) = fs::write(&profile_path, &profile_json) {
        die(&profile_path, e);
    }
    let trace = campaign_trace_json(scenario, report.workers, &profile.spans);
    let trace_path = out_dir.join(format!("{scenario}.campaign_trace.json"));
    if let Err(e) = fs::write(&trace_path, &trace) {
        die(&trace_path, e);
    }
    println!(
        "wrote {} and {}",
        profile_path.display(),
        trace_path.display()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        if args.len() < 2 {
            usage_error("--check needs at least one file");
        }
        check(&args[1..]);
    }

    let flags = cli::FlagSet {
        out: true,
        default_out: "results",
        scale: true,
        store: true,
        resume_verify: true,
        progress: true,
        batch: true,
        help: false,
        max_files: usize::MAX,
        extras: &[],
    };
    let parsed = cli::parse_args(&args, &flags).unwrap_or_else(|e| usage_error(&e));
    let mut files = parsed.files.clone();
    let batch_flag = parsed.batch.is_some();
    if let Some(dir) = &parsed.batch {
        let entries = fs::read_dir(dir).unwrap_or_else(|e| die(dir, e));
        let mut found: Vec<String> = entries
            .flatten()
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| path.display().to_string())
            .collect();
        found.sort();
        files.extend(found);
    }
    if files.is_empty() {
        usage_error("a scenario file is required");
    }
    if (parsed.resume || parsed.verify > 0) && parsed.store.is_none() {
        usage_error("--resume and --verify require --store DIR");
    }

    // Phase attribution starts here: parse → plan → simulate → store-io
    // → export, as disjoint wall-clock segments (DESIGN.md §15).
    let mut clock = PhaseClock::start();
    let mut campaigns: Vec<Campaign> = Vec::with_capacity(files.len());
    for file in &files {
        let text = fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("tartan_run: {file}: {e}");
            std::process::exit(1);
        });
        let spec = match ScenarioSpec::from_json(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: {e}");
                std::process::exit(1);
            }
        };
        let mut campaign = match Campaign::from_spec(spec) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{file}: {e}");
                std::process::exit(1);
            }
        };
        if let Some(scale) = parsed.scale {
            campaign.override_scale(scale);
        }
        campaigns.push(campaign);
    }
    clock.mark("parse");

    let batch = batch_flag || campaigns.len() > 1;
    let options = CampaignOptions {
        jobs: parsed.jobs,
        store: parsed.store.clone(),
        resume: parsed.resume,
        verify: parsed.verify,
        progress: parsed.progress,
        keep_outcomes: false,
        tool: "tartan_run",
    };

    if !batch {
        // Classic single-scenario mode: human console lines, byte-identical
        // to the pre-engine binary.
        let campaign = &campaigns[0];
        if let Some(title) = &campaign.spec.title {
            println!("{title}");
        }
        println!(
            "{}: {} jobs in {} group(s), steps {}, seed {}",
            campaign.spec.name,
            campaign.plan.jobs.len(),
            campaign.plan.groups.len(),
            campaign.params.steps,
            campaign.params.seed
        );
        let engine = Engine::new(CampaignSpec { campaigns, options });
        let report = engine
            .run(&mut clock, None)
            .unwrap_or_else(|e| die(&e.path, e.reason));
        let campaign = &engine.spec.campaigns[0];
        let result = &report.campaigns[0];

        for (job, slot) in campaign.plan.jobs.iter().zip(&result.results) {
            let Some(out) = slot else { continue };
            match out.l2_miss_pct {
                Some(pct) => println!(
                    "{:<10} {:<16} {:<14} {:>12} cycles  L2 miss {:>5.1}%  quality {}",
                    out.robot,
                    job.config.as_str(),
                    job.label,
                    out.wall_cycles,
                    pct,
                    out.quality,
                ),
                None => println!(
                    "{:<10} {:<16} {:<14} {:>12} cycles  (cached)",
                    out.robot,
                    job.config.as_str(),
                    job.label,
                    out.wall_cycles,
                ),
            }
        }

        let (stats_path, csv_path, runs) =
            write_campaign_exports(&parsed.out_dir, campaign, result);
        clock.mark("export");
        println!(
            "wrote {} and {} ({} runs, {} cached, {} failed, jobs {}, {:.2} s host)",
            stats_path.display(),
            csv_path.display(),
            runs,
            result.cached_served(),
            result.failures.len(),
            parsed.jobs,
            report.host_secs(),
        );
        print_store_summary(&report);
        if parsed.progress.is_some() {
            write_profile(&parsed.out_dir, &campaign.spec.name, &clock, &report);
        }
        if !result.failures.is_empty() || report.verify_mismatches > 0 {
            std::process::exit(1);
        }
        return;
    }

    // Batch mode: all scenarios execute as one deduplicated job set, and
    // per-job lifecycle events stream to stdout as JSON lines in a
    // deterministic (scheduling-independent) order.
    let engine = Engine::new(CampaignSpec { campaigns, options });
    let sink = |ev: &CampaignEvent<'_>| println!("{}", event_json(&engine.spec, ev));
    let report = engine
        .run(&mut clock, Some(&sink))
        .unwrap_or_else(|e| die(&e.path, e.reason));

    for (campaign, result) in engine.spec.campaigns.iter().zip(&report.campaigns) {
        let (stats_path, csv_path, runs) =
            write_campaign_exports(&parsed.out_dir, campaign, result);
        println!(
            "wrote {} and {} ({} runs, {} cached, {} failed)",
            stats_path.display(),
            csv_path.display(),
            runs,
            result.cached_served(),
            result.failures.len(),
        );
    }
    clock.mark("export");
    println!(
        "batch: {} jobs across {} campaign(s), {} distinct key(s), {} simulated, {} cached, jobs {}, {:.2} s host",
        report.total_jobs,
        engine.spec.campaigns.len(),
        report.distinct_keys,
        report.simulated,
        report.cached_units,
        parsed.jobs,
        report.host_secs(),
    );
    print_store_summary(&report);
    if parsed.progress.is_some() {
        write_profile(&parsed.out_dir, "batch", &clock, &report);
    }
    if report.any_failures() || report.verify_mismatches > 0 {
        std::process::exit(1);
    }
}
