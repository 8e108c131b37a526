//! Campaign observability (DESIGN.md §15).
//!
//! The contract under test: `--progress` is strictly additive — the
//! stats/CSV exports of a campaign are byte-identical with the flag on or
//! off — while the artifacts it adds are schema-valid: every stderr
//! heartbeat line validates, `campaign_profile.json` validates and its
//! disjoint phase nanos reconcile with the campaign total (±1%), and the
//! Chrome trace parses as JSON. The profile's metrics snapshot must
//! reconcile with the campaign's observable outcome (completions and
//! failures), and `bench_compare` must split a synthetic 2×
//! host-time regression from an identical baseline by exit code.
//!
//! The tests drive the real binaries (`CARGO_BIN_EXE_tartan_run`,
//! `CARGO_BIN_EXE_bench_compare`) against a four-job scenario.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use tartan::scenario::json::{parse as parse_json, JsonValue};
use tartan::sim::telemetry::{
    validate_bench_history_line, validate_campaign_profile_json, validate_heartbeat_json,
};

/// Same four-job matrix as the store-resume suite: two fast robots on the
/// default baseline and on Tartan.
const SCENARIO: &str = r#"{
    "schema_version": 1,
    "name": "obs-mini",
    "params": {"steps": 1},
    "groups": [{
        "robots": ["DeliBot", "MoveBot"],
        "axes": [{"variants": [
            {"label": "base"},
            {"label": "tartan",
             "machine": {"preset": "tartan"},
             "software": {"preset": "approximable"}}
        ]}]
    }]
}"#;

/// Fresh per-test sandbox with the scenario file written into it.
fn sandbox(test: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "tartan-observability-{test}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let scenario = dir.join("obs-mini.json");
    fs::write(&scenario, SCENARIO).unwrap();
    (dir, scenario)
}

/// Runs the real `tartan_run` binary with a clean hook environment plus
/// the given `(var, value)` overrides.
fn run(scenario: &Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tartan_run"));
    cmd.arg(scenario)
        .args(["--jobs", "2"])
        .args(args)
        .env_remove("TARTAN_RUN_PANIC_AT")
        .env_remove("TARTAN_RUN_EXIT_AFTER");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn tartan_run")
}

fn read(path: PathBuf) -> String {
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn exports(dir: &Path, out: &str) -> (String, String) {
    (
        read(dir.join(out).join("obs-mini.stats.json")),
        read(dir.join(out).join("obs-mini.csv")),
    )
}

fn out_arg(dir: &Path, name: &str) -> Vec<String> {
    vec!["--out".into(), dir.join(name).to_string_lossy().into_owned()]
}

fn as_refs(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

/// Heartbeats are the only stderr traffic of a clean `--progress=jsonl`
/// run; this keeps the filter honest if that ever changes.
fn heartbeat_lines(stderr: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stderr)
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(str::to_string)
        .collect()
}

/// Counter lookup in a parsed `campaign_profile.json`.
fn counter(profile: &JsonValue, name: &str) -> u64 {
    match profile
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
    {
        Some(JsonValue::Num(raw)) => raw.parse().unwrap(),
        other => panic!("counter {name} missing or not a number: {other:?}"),
    }
}

#[test]
fn progress_is_additive_and_artifacts_are_schema_valid() {
    let (dir, scenario) = sandbox("additive");

    let plain = run(&scenario, &as_refs(&out_arg(&dir, "plain")), &[]);
    assert!(plain.status.success(), "{plain:?}");

    let mut args = out_arg(&dir, "prog");
    args.push("--progress=jsonl".into());
    let progressed = run(&scenario, &as_refs(&args), &[]);
    assert!(progressed.status.success(), "{progressed:?}");

    // The pre-existing exports are byte-identical with the flag on or off.
    assert_eq!(exports(&dir, "plain"), exports(&dir, "prog"));
    assert!(
        !dir.join("plain").join("obs-mini.campaign_profile.json").exists(),
        "no profile without --progress"
    );

    // Every heartbeat line validates, and the final one covers the campaign.
    let beats = heartbeat_lines(&progressed.stderr);
    assert!(!beats.is_empty(), "at least one heartbeat: {progressed:?}");
    for line in &beats {
        validate_heartbeat_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    assert!(
        beats.last().unwrap().contains("\"done\":4,\"total\":4"),
        "final heartbeat covers all jobs: {beats:?}"
    );

    // The profile validates and its phases reconcile with the total ±1%.
    let profile_text = read(dir.join("prog").join("obs-mini.campaign_profile.json"));
    validate_campaign_profile_json(&profile_text).unwrap();
    let profile = parse_json(&profile_text).unwrap();
    let total: u64 = match profile.get("total_host_nanos") {
        Some(JsonValue::Num(raw)) => raw.parse().unwrap(),
        other => panic!("total_host_nanos: {other:?}"),
    };
    let Some(JsonValue::Arr(phases)) = profile.get("phases") else {
        panic!("phases array missing");
    };
    let names: Vec<_> = phases
        .iter()
        .map(|p| match p.get("name") {
            Some(JsonValue::Str(s)) => s.clone(),
            other => panic!("phase name: {other:?}"),
        })
        .collect();
    assert_eq!(names, ["parse", "plan", "simulate", "store-io", "export"]);
    let sum: u64 = phases
        .iter()
        .map(|p| match p.get("host_nanos") {
            Some(JsonValue::Num(raw)) => raw.parse::<u64>().unwrap(),
            other => panic!("phase host_nanos: {other:?}"),
        })
        .sum();
    let drift = (sum as i128 - total as i128).unsigned_abs();
    assert!(
        drift * 100 <= total as u128,
        "phase sum {sum} must reconcile with total {total} within 1%"
    );

    // A clean observed campaign: every lifecycle counter reconciles.
    assert_eq!(counter(&profile, "job.done"), 4);
    assert_eq!(counter(&profile, "job.claimed"), 4);
    assert_eq!(counter(&profile, "job.failed"), 0);

    // The trace is well-formed JSON with one complete event per job.
    let trace_text = read(dir.join("prog").join("obs-mini.campaign_trace.json"));
    let trace = parse_json(&trace_text).unwrap();
    let Some(JsonValue::Arr(events)) = trace.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    let jobs = events
        .iter()
        .filter(|e| matches!(e.get("ph"), Some(JsonValue::Str(p)) if p == "X"))
        .count();
    assert_eq!(jobs, 4, "one span per job: {trace_text}");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn profile_metrics_reconcile_with_failures() {
    let (dir, scenario) = sandbox("reconcile");
    let mut args = out_arg(&dir, "out");
    args.push("--progress=jsonl".into());
    // Job 1 panics: 3 clean jobs, 1 failure.
    let out = run(&scenario, &as_refs(&args), &[("TARTAN_RUN_PANIC_AT", "1")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let profile_text = read(dir.join("out").join("obs-mini.campaign_profile.json"));
    let profile = parse_json(&profile_text).unwrap();
    assert_eq!(counter(&profile, "job.done"), 4);
    assert_eq!(counter(&profile, "job.claimed"), 4);
    assert_eq!(counter(&profile, "job.failed"), 1);

    // The final heartbeat carries the same failure count.
    let beats = heartbeat_lines(&out.stderr);
    let last = beats.last().expect("a final heartbeat");
    assert!(last.contains("\"failures\":1"), "{last}");

    // The failed job's span is marked not-ok.
    let Some(JsonValue::Arr(spans)) = profile.get("spans") else {
        panic!("spans missing");
    };
    assert!(matches!(spans[1].get("ok"), Some(JsonValue::Bool(false))));
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn store_summary_line_reports_campaign_counts() {
    let (dir, scenario) = sandbox("storesum");
    let store = dir.join("store").to_string_lossy().into_owned();

    let mut args = out_arg(&dir, "cold");
    args.extend(["--store".into(), store.clone(), "--resume".into()]);
    let cold = run(&scenario, &as_refs(&args), &[]);
    assert!(cold.status.success(), "{cold:?}");
    let stdout = String::from_utf8_lossy(&cold.stdout);
    assert!(
        stdout.contains("store: 0 hit(s), 4 miss(es), 4 put(s), 0 quarantine(s)"),
        "cold store summary: {stdout}"
    );

    let mut args = out_arg(&dir, "warm");
    args.extend(["--store".into(), store, "--resume".into()]);
    let warm = run(&scenario, &as_refs(&args), &[]);
    assert!(warm.status.success(), "{warm:?}");
    let stdout = String::from_utf8_lossy(&warm.stdout);
    assert!(
        stdout.contains("store: 4 hit(s), 0 miss(es), 0 put(s), 0 quarantine(s)"),
        "warm store summary: {stdout}"
    );
    let _ = fs::remove_dir_all(dir);
}

/// A minimal well-formed `BENCH_host.json` with the given per-run nanos
/// (scaled by `factor`) and throughput.
fn host_doc(factor: u64, runs_per_sec: f64) -> String {
    let runs: Vec<String> = [("DeliBot", 40u64), ("MoveBot", 60u64)]
        .iter()
        .map(|(robot, ms)| {
            format!(
                "{{\"robot\":\"{robot}\",\"config\":\"tartan\",\"wall_cycles\":1000,\
                 \"host_nanos\":{}}}",
                ms * factor * 1_000_000
            )
        })
        .collect();
    format!(
        "{{\"schema_version\":3,\"generator\":\"bench_tier1\",\"jobs\":1,\
         \"total_host_nanos\":{},\"runs_per_sec\":{runs_per_sec},\"runs\":[{}]}}\n",
        100 * factor * 1_000_000,
        runs.join(",")
    )
}

#[test]
fn bench_compare_splits_regression_from_baseline_by_exit_code() {
    let (dir, _) = sandbox("benchcmp");
    let base = dir.join("base.json");
    let same = dir.join("same.json");
    let slow = dir.join("slow.json");
    fs::write(&base, host_doc(1, 20.0)).unwrap();
    fs::write(&same, host_doc(1, 20.0)).unwrap();
    fs::write(&slow, host_doc(2, 10.0)).unwrap();

    let compare = |a: &Path, b: &Path, extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_bench_compare"))
            .arg(a)
            .arg(b)
            .args(extra)
            .output()
            .expect("spawn bench_compare")
    };

    let ok = compare(&base, &same, &[]);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");

    let regressed = compare(&base, &slow, &[]);
    assert_eq!(regressed.status.code(), Some(1), "2x must regress: {regressed:?}");
    let stdout = String::from_utf8_lossy(&regressed.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");

    let warned = compare(&base, &slow, &["--warn-only"]);
    assert_eq!(warned.status.code(), Some(0), "warn-only passes: {warned:?}");

    // A generous threshold tolerates the same 2x delta.
    let tolerant = compare(&base, &slow, &["--threshold", "150"]);
    assert_eq!(tolerant.status.code(), Some(0), "{tolerant:?}");

    // Speedups never trip the gate.
    let faster = compare(&slow, &base, &[]);
    assert_eq!(faster.status.code(), Some(0), "{faster:?}");

    // Malformed input is a usage error, not a regression verdict.
    let bogus = dir.join("bogus.json");
    fs::write(&bogus, "{\"runs_per_sec\":true}").unwrap();
    let malformed = compare(&base, &bogus, &[]);
    assert_eq!(malformed.status.code(), Some(2), "{malformed:?}");
    let _ = fs::remove_dir_all(dir);
}

/// `host_doc` plus a v3 `warm` section. `warm_factor` scales only the
/// warm timings, so a warm-only regression can be synthesized against an
/// identical cold matrix. `malformed` drops `cold_host_nanos` from the
/// first warm row.
fn warm_host_doc(factor: u64, warm_factor: u64, runs_per_sec: f64, malformed: bool) -> String {
    let warm_runs: Vec<String> = [("DeliBot", 1u64), ("MoveBot", 2u64)]
        .iter()
        .map(|(robot, ms)| {
            let cold = if malformed && *robot == "DeliBot" {
                String::new()
            } else {
                format!(",\"cold_host_nanos\":{}", ms * factor * 40_000_000)
            };
            format!(
                "{{\"robot\":\"{robot}\",\"config\":\"tartan\",\"wall_cycles\":1000,\
                 \"host_nanos\":{}{cold}}}",
                ms * warm_factor * 1_000
            )
        })
        .collect();
    let warm = format!(
        ",\"warm\":{{\"total_host_nanos\":{},\"runs\":[{}]}}",
        10 * warm_factor * 1_000,
        warm_runs.join(",")
    );
    let base = host_doc(factor, runs_per_sec);
    let spliced = base.trim_end().strip_suffix('}').unwrap().to_string();
    spliced + &warm + "}\n"
}

#[test]
fn bench_compare_validates_and_compares_warm_sections() {
    let (dir, _) = sandbox("benchwarm");
    let cold_only = dir.join("cold_only.json");
    let warm_a = dir.join("warm_a.json");
    let warm_b = dir.join("warm_b.json");
    let warm_slow = dir.join("warm_slow.json");
    let broken = dir.join("broken.json");
    fs::write(&cold_only, host_doc(1, 20.0)).unwrap();
    fs::write(&warm_a, warm_host_doc(1, 1, 20.0, false)).unwrap();
    fs::write(&warm_b, warm_host_doc(1, 1, 20.0, false)).unwrap();
    fs::write(&warm_slow, warm_host_doc(1, 3, 20.0, false)).unwrap();
    fs::write(&broken, warm_host_doc(1, 1, 20.0, true)).unwrap();

    let compare = |a: &Path, b: &Path| {
        Command::new(env!("CARGO_BIN_EXE_bench_compare"))
            .arg(a)
            .arg(b)
            .output()
            .expect("spawn bench_compare")
    };

    // Both sides warm and identical: compared and within threshold.
    let ok = compare(&warm_a, &warm_b);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(
        stdout.contains("bench_compare: warm: 2 matched run(s)"),
        "warm figures must be compared: {stdout}"
    );

    // A warm-only slowdown regresses even though the cold matrix is
    // byte-identical.
    let regressed = compare(&warm_a, &warm_slow);
    assert_eq!(regressed.status.code(), Some(1), "{regressed:?}");
    let stdout = String::from_utf8_lossy(&regressed.stdout);
    assert!(
        stdout.contains("REGRESSION: median warm (store-served) host time"),
        "{stdout}"
    );

    // One-sided warm: noted and skipped; the cold verdict stands.
    let one_sided = compare(&cold_only, &warm_a);
    assert_eq!(one_sided.status.code(), Some(0), "{one_sided:?}");
    let stdout = String::from_utf8_lossy(&one_sided.stdout);
    assert!(
        stdout.contains("warm section present in only one input; skipped"),
        "{stdout}"
    );

    // A warm row missing the v3 cold_host_nanos field is a single-line
    // usage error (exit 2), not a panic.
    let malformed = compare(&warm_a, &broken);
    assert_eq!(malformed.status.code(), Some(2), "{malformed:?}");
    let stderr = String::from_utf8_lossy(&malformed.stderr);
    assert!(
        stderr.contains(
            "missing or malformed warm runs[] entry (robot/config/host_nanos/cold_host_nanos)"
        ),
        "{stderr}"
    );
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "diagnosis must be a single line: {stderr}"
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn campaign_validators_reject_malformed_documents() {
    // Not JSON at all.
    assert!(validate_heartbeat_json("not json").is_err());
    assert!(validate_campaign_profile_json("{").is_err());
    assert!(validate_bench_history_line("[]trailing").is_err());

    // Well-formed JSON, wrong or missing schema version.
    let wrong_version = "{\"campaign_schema_version\":99,\"type\":\"heartbeat\"}";
    assert!(validate_heartbeat_json(wrong_version)
        .unwrap_err()
        .contains("campaign_schema_version"));
    assert!(validate_campaign_profile_json("{\"generator\":\"x\"}").is_err());

    // Right version, wrong type tag.
    let wrong_type = "{\"campaign_schema_version\":2,\"type\":\"bench\"}";
    assert!(validate_heartbeat_json(wrong_type).is_err());
    let wrong_type = "{\"campaign_schema_version\":2,\"type\":\"heartbeat\"}";
    assert!(validate_bench_history_line(wrong_type).is_err());

    // Right version and type, missing required keys.
    let missing_keys =
        "{\"campaign_schema_version\":2,\"type\":\"heartbeat\",\"done\":1,\"total\":2}";
    assert!(validate_heartbeat_json(missing_keys)
        .unwrap_err()
        .contains("elapsed_nanos"));
    let missing_keys = "{\"campaign_schema_version\":2,\"type\":\"bench\",\"generator\":\"b\"}";
    assert!(validate_bench_history_line(missing_keys)
        .unwrap_err()
        .contains("timestamp_secs"));
}
