//! Batch campaigns and cross-campaign job dedupe (DESIGN.md §18).
//!
//! The contract under test, at the binary level: `tartan_run A B` executes
//! both scenarios as one batch, simulating each **distinct cache key
//! exactly once** — jobs that appear in both sweeps run once and the
//! result fans back to every requesting campaign — while every campaign's
//! stats/CSV exports stay **byte-identical** to running its file alone.
//! The batch stdout is a stream of per-job JSONL lifecycle events (see
//! `SCHEMA.md`) in a deterministic, scheduling-independent order, and the
//! shared `--store` records exactly the distinct-key object count.
//!
//! The tests drive the real binaries (`CARGO_BIN_EXE_tartan_run`,
//! `CARGO_BIN_EXE_bench_tier1`) against two inline scenarios whose grids
//! overlap: every job of `batch-b` also appears in `batch-a`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use tartan::scenario::json::{parse as parse_json, JsonValue};

/// Four jobs: DeliBot and MoveBot on the default baseline and on Tartan.
const SCENARIO_A: &str = r#"{
    "schema_version": 1,
    "name": "batch-a",
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

/// Two jobs, both also present in `batch-a`: MoveBot on the same two
/// variants with identical params — identical cache keys by construction.
const SCENARIO_B: &str = r#"{
    "schema_version": 1,
    "name": "batch-b",
    "params": {"steps": 1},
    "groups": [{
        "robots": ["MoveBot"],
        "axes": [{"variants": [
            {"label": "base"},
            {"label": "tartan",
             "machine": {"preset": "tartan"},
             "software": {"preset": "approximable"}}
        ]}]
    }]
}"#;

/// Fresh per-test sandbox with both scenario files written into it.
fn sandbox(test: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "tartan-campaign-batch-{test}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let a = dir.join("batch-a.json");
    let b = dir.join("batch-b.json");
    fs::write(&a, SCENARIO_A).unwrap();
    fs::write(&b, SCENARIO_B).unwrap();
    (dir, a, b)
}

fn tartan_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tartan_run"))
        .args(args)
        .env_remove("TARTAN_RUN_PANIC_AT")
        .env_remove("TARTAN_RUN_EXIT_AFTER")
        .output()
        .expect("spawn tartan_run")
}

fn read(path: PathBuf) -> String {
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn exports(dir: &Path, out: &str, name: &str) -> (String, String) {
    (
        read(dir.join(out).join(format!("{name}.stats.json"))),
        read(dir.join(out).join(format!("{name}.csv"))),
    )
}

/// Metric lookup in a parsed `campaign_profile.json`.
fn metric(profile: &JsonValue, kind: &str, name: &str) -> u64 {
    match profile
        .get("metrics")
        .and_then(|m| m.get(kind))
        .and_then(|c| c.get(name))
    {
        Some(JsonValue::Num(raw)) => raw.parse().unwrap(),
        other => panic!("{kind} {name} missing or not a number: {other:?}"),
    }
}

/// The `(event, campaign, job, deduped)` tuples of a batch stdout stream,
/// in emission order.
fn events(stdout: &[u8]) -> Vec<(String, u64, u64, bool)> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|line| {
            let doc = parse_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let num = |key: &str| match doc.get(key) {
                Some(JsonValue::Num(raw)) => raw.parse::<u64>().unwrap(),
                other => panic!("{key} in {line}: {other:?}"),
            };
            let event = match doc.get("event") {
                Some(JsonValue::Str(s)) => s.clone(),
                other => panic!("event in {line}: {other:?}"),
            };
            let deduped = matches!(doc.get("deduped"), Some(JsonValue::Bool(true)));
            (event, num("campaign"), num("job"), deduped)
        })
        .collect()
}

#[test]
fn batch_exports_are_byte_identical_to_standalone_runs() {
    let (dir, a, b) = sandbox("equivalence");
    let out = |name: &str| dir.join(name).to_string_lossy().into_owned();

    let solo_a = tartan_run(&[a.to_str().unwrap(), "--jobs", "2", "--out", &out("solo")]);
    assert!(solo_a.status.success(), "{solo_a:?}");
    let solo_b = tartan_run(&[b.to_str().unwrap(), "--jobs", "2", "--out", &out("solo")]);
    assert!(solo_b.status.success(), "{solo_b:?}");

    let batch = tartan_run(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--jobs",
        "2",
        "--out",
        &out("batch"),
    ]);
    assert!(batch.status.success(), "{batch:?}");

    // Every campaign's exports are byte-identical to its standalone run,
    // even though the batch simulated batch-b's jobs zero times.
    assert_eq!(
        exports(&dir, "solo", "batch-a"),
        exports(&dir, "batch", "batch-a")
    );
    assert_eq!(
        exports(&dir, "solo", "batch-b"),
        exports(&dir, "batch", "batch-b")
    );

    // `--batch DIR` is the same batch, discovered from the directory.
    let from_dir = tartan_run(&[
        "--batch",
        dir.to_str().unwrap(),
        "--jobs",
        "2",
        "--out",
        &out("from-dir"),
    ]);
    assert!(from_dir.status.success(), "{from_dir:?}");
    assert_eq!(
        exports(&dir, "solo", "batch-a"),
        exports(&dir, "from-dir", "batch-a")
    );
    assert_eq!(
        exports(&dir, "solo", "batch-b"),
        exports(&dir, "from-dir", "batch-b")
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn overlapping_batch_simulates_each_distinct_key_exactly_once() {
    let (dir, a, b) = sandbox("dedupe");
    let out = dir.join("out").to_string_lossy().into_owned();
    let store = dir.join("store");

    let batch = tartan_run(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--jobs",
        "2",
        "--out",
        &out,
        "--store",
        store.to_str().unwrap(),
        "--progress=jsonl",
    ]);
    assert!(batch.status.success(), "{batch:?}");

    // The engine's own counters: 6 planned jobs, 4 distinct keys, 4
    // simulations, 2 results served by dedupe fan-out.
    let profile_text = read(dir.join("out").join("batch.campaign_profile.json"));
    let profile = parse_json(&profile_text).unwrap();
    assert_eq!(metric(&profile, "gauges", "campaign.total_jobs"), 6);
    assert_eq!(metric(&profile, "gauges", "campaign.distinct_jobs"), 4);
    assert_eq!(metric(&profile, "counters", "campaign.simulated"), 4);
    assert_eq!(metric(&profile, "counters", "campaign.deduped"), 2);
    assert_eq!(metric(&profile, "counters", "job.done"), 4);

    // The store is ground truth for "simulated once": exactly one object
    // per distinct key, none for the deduped requesters.
    let mut entries = 0usize;
    for shard in fs::read_dir(store.join("objects")).unwrap().flatten() {
        for object in fs::read_dir(shard.path()).unwrap().flatten() {
            if object.path().extension().is_some_and(|e| e == "entry") {
                entries += 1;
            }
        }
    }
    assert_eq!(entries, 4, "one store object per distinct cache key");

    // The event stream is complete and deterministic: units release in
    // discovery order, each fanning out to its requesters in campaign
    // order, with the dedupe-served requesters flagged.
    let got = events(&batch.stdout);
    let want: Vec<(String, u64, u64, bool)> = [
        ("started", 0, 0, false),
        ("done", 0, 0, false),
        ("started", 0, 1, false),
        ("done", 0, 1, false),
        ("started", 0, 2, false),
        ("done", 0, 2, false),
        ("started", 1, 0, false),
        ("done", 1, 0, true),
        ("started", 0, 3, false),
        ("done", 0, 3, false),
        ("started", 1, 1, false),
        ("done", 1, 1, true),
    ]
    .into_iter()
    .map(|(e, c, j, d)| (e.to_string(), c, j, d))
    .collect();
    assert_eq!(got, want, "stdout stream: {batch:?}");

    // A second batch over the seeded store serves everything cached and
    // still exports the same bytes.
    let warm = tartan_run(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--jobs",
        "2",
        "--out",
        &format!("{out}-warm"),
        "--store",
        store.to_str().unwrap(),
        "--resume",
    ]);
    assert!(warm.status.success(), "{warm:?}");
    let warm_events = events(&warm.stdout);
    assert_eq!(warm_events.len(), 12, "{warm:?}");
    assert!(
        warm_events
            .iter()
            .filter(|(e, ..)| e == "cached")
            .count()
            == 6,
        "all six jobs served from the store: {warm_events:?}"
    );
    assert_eq!(
        exports(&dir, "out", "batch-a"),
        exports(&dir, "out-warm", "batch-a")
    );
    assert_eq!(
        exports(&dir, "out", "batch-b"),
        exports(&dir, "out-warm", "batch-b")
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn bad_flags_exit_with_the_shared_usage_code() {
    let (dir, a, _) = sandbox("usage");
    for args in [
        vec!["--frobnicate"],
        vec![a.to_str().unwrap(), "--jobs"],
        vec![a.to_str().unwrap(), "--scale", "huge"],
        vec![a.to_str().unwrap(), "--batch"],
        vec!["--resume", a.to_str().unwrap()],
        vec![a.to_str().unwrap(), "--retries", "2"],
        vec![a.to_str().unwrap(), "--watchdog", "5"],
    ] {
        let out = tartan_run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
    for args in [vec!["--frobnicate"], vec!["stray.json"], vec!["--store"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_tier1"))
            .args(&args)
            .output()
            .expect("spawn bench_tier1");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
    let _ = fs::remove_dir_all(dir);
}
