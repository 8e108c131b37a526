//! `tartan_bench`: the repository's benchmark. Four closed-loop workloads
//! drive the public campaign API and report end-to-end host metrics; a
//! separate traced run splits host time by layer from outside the
//! program. See `README.md` beside this file.
//!
//! ```text
//! tartan_bench [--workload W | --all] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! ```
//!
//! Every metric prints as `workload metric value unit`. With `--workload`,
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; `<out>/results.json` holds the
//! same object for every workload run.
//! `--all` runs each workload in a fresh child process of its own, one
//! after another, because the trainer memo and the f32 arena are
//! process-global. Exit codes: 0 correct, 1 failed or incorrect output,
//! 2 usage.

mod trace;
mod workload;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use tartan::scenario::json::{parse as parse_json, JsonValue};
use tartan::sim::telemetry::push_str;

use workload::{Stop, Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage: tartan_bench [--workload W | --all] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--out DIR]";

/// Measured seconds per untraced run (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: u64 = 15;

/// An end-to-end metric: what a user of the simulator sees. The tables
/// here are checked against `BENCHMARK.json` by the tests, which are the
/// only readers of the direction and bound.
#[derive(Debug)]
#[cfg_attr(not(test), allow(dead_code))]
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    bound: f64,
}

const END_TO_END: [Metric; 6] = [
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    Metric {
        name: "runs_per_s",
        unit: "runs/s",
        better: "higher",
        bound: 0.25,
    },
    Metric {
        name: "campaign_p50_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    Metric {
        name: "campaign_p75_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    Metric {
        name: "sim_mcycles_per_s",
        unit: "Mcycles/s",
        better: "higher",
        bound: 0.25,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric from the traced run.
#[derive(Debug)]
#[cfg_attr(not(test), allow(dead_code))]
struct LayerMetric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> LayerMetric {
    LayerMetric { name, unit, better }
}

const PER_LAYER: [LayerMetric; 44] = [
    layer("robots.build_s", "s", "lower"),
    layer("robots.build.DeliBot_s", "s", "lower"),
    layer("robots.build.PatrolBot_s", "s", "lower"),
    layer("robots.build.MoveBot_s", "s", "lower"),
    layer("robots.build.HomeBot_s", "s", "lower"),
    layer("robots.build.FlyBot_s", "s", "lower"),
    layer("robots.build.CarriBot_s", "s", "lower"),
    layer("robots.build_share", "ratio", "lower"),
    layer("robots.step_s", "s", "lower"),
    layer("robots.step.DeliBot_s", "s", "lower"),
    layer("robots.step.PatrolBot_s", "s", "lower"),
    layer("robots.step.MoveBot_s", "s", "lower"),
    layer("robots.step.HomeBot_s", "s", "lower"),
    layer("robots.step.FlyBot_s", "s", "lower"),
    layer("robots.step.CarriBot_s", "s", "lower"),
    layer("sim.host_ns_per_kcycle", "ns/kcycle", "lower"),
    layer("sim.machine_new_s", "s", "lower"),
    layer("sim.stats_s", "s", "lower"),
    layer("campaign.worker_idle_frac", "ratio", "lower"),
    layer("campaign.engine_self_s", "s", "lower"),
    layer("scenario.parse_s", "s", "lower"),
    layer("scenario.expand_s", "s", "lower"),
    layer("campaign.jobset_s", "s", "lower"),
    layer("campaign.dedupe_ratio", "ratio", "higher"),
    layer("campaign.render_s", "s", "lower"),
    layer("telemetry.validate_s", "s", "lower"),
    layer("telemetry.export_bytes", "bytes", "lower"),
    layer("store.get_s", "s", "lower"),
    layer("store.put_s", "s", "lower"),
    layer("store.hits", "count", "higher"),
    layer("store.puts", "count", "lower"),
    layer("sim.cycles", "count", "lower"),
    layer("sim.instructions", "count", "lower"),
    layer("sim.l1.accesses", "count", "lower"),
    layer("sim.l2.accesses", "count", "lower"),
    layer("sim.l2.misses", "count", "lower"),
    layer("sim.l3.misses", "count", "lower"),
    layer("sim.dram_bytes", "bytes", "lower"),
    layer("sim.l2.prefetches_issued", "count", "lower"),
    layer("sim.l2.prefetches_useful", "count", "higher"),
    layer("sim.npu_invocations", "count", "higher"),
    layer("host.cpu_util", "ratio", "higher"),
    layer("trace.total_s", "s", "lower"),
    layer("trace.other_s", "s", "lower"),
];

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("target/tartan_bench"),
    };
    let mut all = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--all" => all = true,
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload = Some(workload::find(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload {name:?} (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if parsed.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--out" => parsed.out = PathBuf::from(value("a directory")?),
            "--trace" => {
                parsed.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if all && parsed.workload.is_some() {
        return Err("--all and --workload are exclusive".into());
    }
    Ok(parsed)
}

/// One workload's result.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value)`, in table order.
    metrics: Vec<(String, f64)>,
}

/// Renders an outcome as the result object (`correct`, `attempted`,
/// `failed`, `metrics`).
fn result_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, value)) in o.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str(&mut s, name);
        let _ = write!(s, ":{{\"value\":{value},\"unit\":");
        push_str(&mut s, unit_of(name));
        s.push('}');
    }
    s.push_str("}}");
    s
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .expect("every reported metric is in a table")
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status: no VmHWM")?;
    Ok(kb / 1024.0)
}

/// Applies the digest gate: a mismatch fails every run.
fn digest_gate(w: &Workload, digest: Option<&str>, o: &mut Outcome) {
    println!("{} digest {}", w.name, digest.unwrap_or("none"));
    if digest != Some(w.digest) {
        eprintln!(
            "tartan_bench: {}: digest {} differs from the recorded {}",
            w.name,
            digest.unwrap_or("none (a digest member was not exported)"),
            w.digest
        );
        o.correct = false;
        o.failed = o.attempted;
    }
}

/// The untraced run: set up, then measure the closed loop for `seconds`.
fn untraced(w: &Workload, seed: u64, seconds: u64, out: &Path) -> Result<Outcome, String> {
    let (prep, setup) = workload::prepare(w, seed, &out.join("stores"))?;
    let run = workload::closed_loop(w, &prep, Stop::After(Duration::from_secs(seconds)), false);
    prep.remove_store();
    let wall_s = run.wall_ns as f64 / 1e9;
    let (attempted, failed) = (run.runs, run.failed);
    let mut latencies: Vec<f64> = run.latencies_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    latencies.sort_by(f64::total_cmp);
    println!("{} campaigns {} count", w.name, run.campaigns);
    let mut o = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("setup_s".into(), workload::median(&setup)),
            ("runs_per_s".into(), (attempted - failed) as f64 / wall_s),
            (
                "campaign_p50_s".into(),
                workload::percentile(&latencies, 50.0),
            ),
            (
                "campaign_p75_s".into(),
                workload::percentile(&latencies, 75.0),
            ),
            (
                "sim_mcycles_per_s".into(),
                run.delivered_cycles as f64 / 1e6 / wall_s,
            ),
            ("peak_rss_mb".into(), peak_rss_mb()?),
        ],
    };
    digest_gate(w, workload::run_digest(&prep, &run).as_deref(), &mut o);
    Ok(o)
}

/// The traced run (per-layer metrics, in table order).
fn traced(w: &Workload, seed: u64, out: &Path) -> Result<Outcome, String> {
    let t = trace::run(w, seed, out)?;
    let mut o = Outcome {
        correct: t.failed == 0,
        attempted: t.attempted,
        failed: t.failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let value = t
                    .metrics
                    .get(m.name)
                    .copied()
                    .expect("traced run reports every layer");
                (m.name.to_string(), value)
            })
            .collect(),
    };
    assert_eq!(
        t.metrics.len(),
        PER_LAYER.len(),
        "traced run reports only table layers"
    );
    digest_gate(w, t.digest.as_deref(), &mut o);
    Ok(o)
}

/// Runs one workload in this process and prints its result.
fn run_one(w: &Workload, args: &Args) -> i32 {
    println!("{} why {}", w.name, w.why);
    let outcome = if args.trace {
        traced(w, args.seed, &args.out)
    } else {
        untraced(w, args.seed, args.seconds, &args.out)
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tartan_bench: {}: {e}", w.name);
            return 1;
        }
    };
    for (name, value) in &o.metrics {
        println!("{} {name} {value} {}", w.name, unit_of(name));
    }
    let json = result_json(&o);
    if let Err(e) = write_results(&args.out, args, &[(w.name, json.as_str())]) {
        eprintln!("tartan_bench: {e}");
        return 1;
    }
    println!("{json}");
    if o.correct {
        0
    } else {
        1
    }
}

/// Writes `<out>/results.json`: the run's seed and mode, and each
/// workload's result object.
fn write_results(out: &Path, args: &Args, results: &[(&str, &str)]) -> Result<(), String> {
    let mut doc = format!(
        "{{\"seed\":{},\"trace\":{},\"workloads\":{{",
        args.seed, args.trace
    );
    for (i, (name, json)) in results.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        push_str(&mut doc, name);
        doc.push(':');
        doc.push_str(json);
    }
    doc.push_str("}}\n");
    fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join("results.json");
    fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs every workload in a child process of its own, one after another.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("tartan_bench: cannot locate this executable: {e}");
            return 1;
        }
    };
    let mut results: Vec<(&str, String)> = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stderr(Stdio::inherit())
            .output();
        let output = match child {
            Ok(output) => output,
            Err(e) => {
                eprintln!("tartan_bench: {}: cannot start: {e}", w.name);
                all_correct = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        let correct = parse_json(last).ok().and_then(|v| match v.get("correct") {
            Some(JsonValue::Bool(b)) => Some(*b),
            _ => None,
        });
        match correct {
            Some(correct) => {
                all_correct &= correct && output.status.success();
                results.push((w.name, last.to_string()));
            }
            None => {
                eprintln!("tartan_bench: {}: no result ({})", w.name, output.status);
                all_correct = false;
            }
        }
    }
    let refs: Vec<(&str, &str)> = results.iter().map(|(n, j)| (*n, j.as_str())).collect();
    if let Err(e) = write_results(&args.out, args, &refs) {
        eprintln!("tartan_bench: {e}");
        return 1;
    }
    println!("wrote {}", args.out.join("results.json").display());
    if all_correct && results.len() == WORKLOADS.len() {
        0
    } else {
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tartan_bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan::scenario::ScenarioSpec;

    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }

    fn bench_dir() -> PathBuf {
        repo_root().join("examples/tartan_bench")
    }

    fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
        match v.get(key) {
            Some(JsonValue::Str(s)) => s,
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    fn number(v: &JsonValue, key: &str) -> f64 {
        match v.get(key) {
            Some(JsonValue::Num(raw)) => raw.parse().unwrap(),
            other => panic!("{key}: expected a number, got {other:?}"),
        }
    }

    fn array<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        match v.get(key) {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    #[test]
    fn nearest_rank_p75_leaves_ten_samples_beyond_it_at_forty() {
        let samples: Vec<f64> = (1..=workload::MIN_CAMPAIGNS).map(|i| i as f64).collect();
        let p75 = workload::percentile(&samples, 75.0);
        let beyond = samples.iter().filter(|&&s| s > p75).count();
        assert_eq!(p75, 30.0);
        assert!(beyond >= 10, "{beyond} samples beyond p75");
        assert_eq!(workload::percentile(&samples, 50.0), 20.0);
        assert_eq!(workload::median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(workload::percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn metric_and_workload_names_are_well_formed() {
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name:?} is not [A-Za-z0-9_.-]+"
            );
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why",
                w.name
            );
            assert!(w.trace_campaigns >= workload::DIGEST_CAMPAIGNS);
            assert!(w.setup_reps >= 1);
            assert!(w.clients * w.jobs <= 2, "{}: more than two threads", w.name);
            assert!(
                w.digest.len() == 64 && w.digest.chars().all(|c| c.is_ascii_hexdigit()),
                "{}: recorded digest",
                w.name
            );
        }
    }

    #[test]
    fn tables_equal_benchmark_json() {
        let path = repo_root().join("BENCHMARK.json");
        let doc = parse_json(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(number(&doc, "run_seconds"), DEFAULT_SECONDS as f64);
        let workloads = array(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!((text(j, "name"), text(j, "why")), (w.name, w.why));
        }
        let e2e = array(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                (text(j, "name"), text(j, "unit"), text(j, "better")),
                (m.name, m.unit, m.better)
            );
            assert_eq!(number(j, "bound"), m.bound, "{}", m.name);
            assert!(!m.unit.is_empty() && ["lower", "higher"].contains(&m.better));
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let max_bound = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            END_TO_END[0].bound, max_bound,
            "setup_s has the largest bound"
        );
        let layers = array(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (text(j, "name"), text(j, "unit"), text(j, "better")),
                (m.name, m.unit, m.better)
            );
        }
    }

    #[test]
    fn workload_files_parse_and_expand() {
        let mut files: Vec<PathBuf> = fs::read_dir(bench_dir().join("workloads"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        assert!(!files.is_empty());
        for file in &files {
            let spec = ScenarioSpec::from_json(&fs::read_to_string(file).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            let plan = spec
                .expand()
                .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            assert!(!plan.jobs.is_empty());
        }
        let embedded =
            fs::read_to_string(bench_dir().join("workloads/paper_prefetch.json")).unwrap();
        assert_eq!(embedded, workload::PAPER_PREFETCH);
    }

    #[test]
    fn store_resume_subsweeps_are_distinct_jobs_of_fig11_fcp() {
        let keys = |text: &str| {
            let campaign = workload::expand(ScenarioSpec::from_json(text).unwrap(), false).unwrap();
            tartan::campaign::JobSet::build(&[campaign])
                .units
                .into_iter()
                .map(|u| u.key)
                .collect::<std::collections::BTreeSet<_>>()
        };
        let population = workload::subsweeps(64).unwrap();
        let full = keys(&population[0]);
        assert_eq!(full.len(), 78, "member 0 is the whole fig11_fcp sweep");
        let distinct: std::collections::BTreeSet<&String> = population.iter().collect();
        assert_eq!(distinct.len(), 64);
        for text in &population[1..] {
            let sub = keys(text);
            assert!(!sub.is_empty() && sub.len() < full.len() && sub.is_subset(&full));
        }
    }

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> trace::Span {
        trace::Span {
            name,
            robot: "",
            campaign: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn span_self_times_sum_to_the_root_total() {
        // campaign [0,100) > parse [0,10), job [20,90) > build [25,50), step [50,80)
        // campaign [100,130) > render [105,120)
        let mut build = span("robots.build", Some(2), 25, 50);
        build.robot = "FlyBot";
        let spans = vec![
            span("campaign", None, 0, 100),
            span("scenario.parse", Some(0), 0, 10),
            span("job", Some(0), 20, 90),
            build,
            span("robots.step", Some(2), 50, 80),
            span("campaign", None, 100, 130),
            span("campaign.render", Some(5), 105, 120),
        ];
        let own = trace::self_nanos(&spans);
        assert_eq!(own[&("campaign", "")], 20 + 15);
        assert_eq!(own[&("job", "")], 15);
        assert_eq!(own[&("robots.build", "FlyBot")], 25);
        let l = trace::layers(&spans);
        assert_eq!(l.total, 130);
        assert_eq!(l.other, 35 + 15);
        assert_eq!(l.by_name["robots.step"], 30);
        assert_eq!(l.by_robot[&("robots.build", "FlyBot")], 25);
        assert_eq!(l.by_name.values().sum::<u64>() + l.other, l.total);
    }

    #[test]
    fn digest_covers_the_same_members_in_any_order() {
        let population: Vec<String> = (0..12).map(|k| format!("export {k}")).collect();
        let exports_in = |order: Vec<usize>| {
            let prep = workload::Prepared {
                population: population.clone(),
                order,
                store: None,
                expect: workload::Expect::Nothing,
            };
            let pairs: Vec<(usize, String)> = (0..2 * population.len())
                .map(|i| (i, prep.request(i).to_string()))
                .collect();
            let digest = workload::digest(&prep, pairs.iter().map(|(i, e)| (*i, e.as_str())));
            let first_eight = prep.positions(0..8, 8);
            assert_eq!(first_eight.len(), 8);
            assert!(first_eight.iter().all(|&i| prep.member(i) < 8 && i < 12));
            let missing = workload::digest(&prep, pairs[..1].iter().map(|(i, e)| (*i, e.as_str())));
            assert_eq!(missing, None);
            digest.unwrap()
        };
        let forward = exports_in((0..12).collect());
        assert_eq!(forward, exports_in((0..12).rev().collect()));
        let all: String = population[..8].concat();
        assert_eq!(forward, tartan::store::sha256_hex(all.as_bytes()));
    }

    #[test]
    fn probe_campaigns_through_the_engine_equal_probe_spec() {
        let probe_swarm = workload::find("probe_swarm").unwrap();
        for spec in tartan::scenario::Pattern::tartan_default().select(DEFAULT_SEED, 3) {
            let via_engine =
                workload::engine_campaign(probe_swarm, &spec.to_json(), None, false).unwrap();
            let direct = tartan::sim::telemetry::StatsExport {
                generator: workload::GENERATOR.into(),
                runs: tartan::core::probe_spec(&spec).unwrap(),
                failures: Vec::new(),
            };
            assert_eq!(via_engine.export, direct.to_json());
        }
    }
}
