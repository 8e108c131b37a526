//! Experiment drivers: one function per figure/table of the paper's
//! evaluation (§VIII), each returning typed rows plus a text formatter.
//!
//! Every driver is **data-driven**: the job matrix (robots, machine and
//! software configurations, sweep axes, bar labels, study-specific scale
//! adjustments) lives in a checked-in manifest under `scenarios/` (see
//! [`manifests`]), parsed and expanded by `tartan-scenario`. The driver
//! only keeps the row math — normalization baselines, geometric means,
//! derived error metrics — that turns outcomes into figure rows.
//!
//! | Paper result | Driver | Manifest |
//! |---|---|---|
//! | Fig. 1 execution-time breakdown        | [`fig1_breakdown`] | `fig1_breakdown.json` |
//! | Fig. 6 oriented vectorization          | [`fig6_ovec`] | `fig6_ovec.json` |
//! | Fig. 7 ray-casting w/ interpolation    | [`fig7_interpolation`] | `fig7_interpolation.json` |
//! | Table II neural workloads              | [`table2_networks`] | `table2_networks.json` |
//! | Fig. 8 neural acceleration             | [`fig8_npu`] | `fig8_npu.json` |
//! | Table III NPU configurations           | [`table3_npu_pes`] | `table3_npu_pes.json` |
//! | Fig. 9 NNS approaches                  | [`fig9_nns`] | `fig9_nns.json` |
//! | Fig. 10 prefetchers                    | [`fig10_prefetch`] | `fig10_prefetch.json` |
//! | Fig. 11 FCP parameters                 | [`fig11_fcp`] | `fig11_fcp.json` |
//! | Fig. 12 end-to-end speedup             | [`fig12_end_to_end`] | `fig12_end_to_end.json` |
//! | §III-A engineering upgrades            | [`baseline_upgrades`] | `baseline_upgrades.json` |
//! | Ablations (ANL region, OVEC latency)   | [`ablations`] | `ablations.json` |
//! | Table I application parameters         | [`format_table1`] | — |
//! | Table IV overheads                     | [`tartan_core::overhead::table4`] | — |

use std::fmt::Write as _;

use tartan_core::runner::gmean;
use tartan_core::{ExperimentParams, RunOutcome};
use tartan_robots::RobotKind;
use tartan_scenario::{Plan, ScenarioSpec};
use tartan_sim::NpuMode;

use crate::engine::{run_plan, Campaign};

/// The checked-in scenario manifests (embedded at compile time from
/// `scenarios/*.json`), one per data-driven harness. CI validates every
/// file in `scenarios/`, and `tartan_run` can execute any of them — or any
/// user-written scenario — stand-alone.
pub mod manifests {
    /// Fig. 1: execution-time breakdown.
    pub const FIG1_BREAKDOWN: &str = include_str!("../../../scenarios/fig1_breakdown.json");
    /// Fig. 6: oriented vectorization.
    pub const FIG6_OVEC: &str = include_str!("../../../scenarios/fig6_ovec.json");
    /// Fig. 7: ray-casting with interpolation.
    pub const FIG7_INTERPOLATION: &str =
        include_str!("../../../scenarios/fig7_interpolation.json");
    /// Table II: neural workloads.
    pub const TABLE2_NETWORKS: &str = include_str!("../../../scenarios/table2_networks.json");
    /// Fig. 8: neural acceleration arrangements.
    pub const FIG8_NPU: &str = include_str!("../../../scenarios/fig8_npu.json");
    /// Table III: NPU sizes.
    pub const TABLE3_NPU_PES: &str = include_str!("../../../scenarios/table3_npu_pes.json");
    /// Fig. 9: NNS approaches.
    pub const FIG9_NNS: &str = include_str!("../../../scenarios/fig9_nns.json");
    /// Fig. 10: prefetchers.
    pub const FIG10_PREFETCH: &str = include_str!("../../../scenarios/fig10_prefetch.json");
    /// Fig. 11: FCP parameter sweep.
    pub const FIG11_FCP: &str = include_str!("../../../scenarios/fig11_fcp.json");
    /// Fig. 12: end-to-end speedup.
    pub const FIG12_END_TO_END: &str =
        include_str!("../../../scenarios/fig12_end_to_end.json");
    /// §III-A engineering upgrades.
    pub const BASELINE_UPGRADES: &str =
        include_str!("../../../scenarios/baseline_upgrades.json");
    /// Design-choice ablations.
    pub const ABLATIONS: &str = include_str!("../../../scenarios/ablations.json");
    /// The tier-1 bench matrix (`bench_tier1` binary).
    pub const BENCH_TIER1: &str = include_str!("../../../scenarios/bench_tier1.json");
    /// A two-job smoke campaign (`tartan_run` CI exercise).
    pub const SMOKE: &str = include_str!("../../../scenarios/smoke.json");
    /// A fourteen-job campaign (the `--progress` observability exercise).
    pub const CAMPAIGN14: &str = include_str!("../../../scenarios/campaign14.json");

    /// Every embedded manifest, with its `scenarios/` file name.
    pub const ALL: [(&str, &str); 15] = [
        ("fig1_breakdown.json", FIG1_BREAKDOWN),
        ("fig6_ovec.json", FIG6_OVEC),
        ("fig7_interpolation.json", FIG7_INTERPOLATION),
        ("table2_networks.json", TABLE2_NETWORKS),
        ("fig8_npu.json", FIG8_NPU),
        ("table3_npu_pes.json", TABLE3_NPU_PES),
        ("fig9_nns.json", FIG9_NNS),
        ("fig10_prefetch.json", FIG10_PREFETCH),
        ("fig11_fcp.json", FIG11_FCP),
        ("fig12_end_to_end.json", FIG12_END_TO_END),
        ("baseline_upgrades.json", BASELINE_UPGRADES),
        ("ablations.json", ABLATIONS),
        ("bench_tier1.json", BENCH_TIER1),
        ("smoke.json", SMOKE),
        ("campaign14.json", CAMPAIGN14),
    ];
}

/// Parses, expands and runs a checked-in manifest at the caller's
/// `params`, with the manifest's own `params.adjust` list applied on top
/// of the caller's scale (the `tartan_run --scale` semantics). Returns the
/// plan and every job's outcome in plan order. Panics on an invalid
/// document: the embedded manifests are validated by unit tests, the
/// scenario regression suite, and CI, so a failure here means the build
/// itself is inconsistent.
fn run_manifest(manifest: &str, params: &ExperimentParams) -> (Plan, Vec<RunOutcome>) {
    let spec = ScenarioSpec::from_json(manifest)
        .unwrap_or_else(|e| panic!("checked-in scenario is invalid: {e}"));
    let plan = spec
        .expand()
        .unwrap_or_else(|e| panic!("checked-in scenario does not expand: {e}"));
    let mut campaign = Campaign {
        spec,
        plan,
        params: *params,
    };
    campaign.override_scale(params.scale);
    let outcomes = run_plan(&campaign);
    (campaign.plan, outcomes)
}

// ---------------------------------------------------------------- Fig. 1

/// One Fig. 1 bar: a robot on Baseline or Tartan, with the bottleneck
/// share of execution.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Robot name.
    pub robot: &'static str,
    /// `"B"` (upgraded baseline) or `"T"` (Tartan).
    pub config: String,
    /// Fraction of attributed cycles in the bottleneck operation.
    pub bottleneck_fraction: f64,
    /// Wall time normalized to the robot's baseline run.
    pub normalized_time: f64,
}

/// Fig. 1: execution-time breakdown and bottleneck analysis.
pub fn fig1_breakdown(params: &ExperimentParams) -> Vec<Fig1Row> {
    let (plan, outcomes) = run_manifest(manifests::FIG1_BREAKDOWN, params);
    let mut rows = Vec::new();
    for (pair, jobs) in outcomes.chunks_exact(2).zip(plan.jobs.chunks_exact(2)) {
        let (base, tartan) = (&pair[0], &pair[1]);
        rows.push(Fig1Row {
            robot: base.robot,
            config: jobs[0].label.clone(),
            bottleneck_fraction: base.bottleneck_fraction(),
            normalized_time: 1.0,
        });
        rows.push(Fig1Row {
            robot: tartan.robot,
            config: jobs[1].label.clone(),
            bottleneck_fraction: tartan.bottleneck_fraction(),
            normalized_time: tartan.wall_cycles as f64 / base.wall_cycles as f64,
        });
    }
    rows
}

/// Renders Fig. 1.
pub fn format_fig1(rows: &[Fig1Row]) -> String {
    let mut out = String::from("Fig. 1: Execution time breakdown (bottleneck share)\n");
    let _ = writeln!(
        out,
        "{:<10} {:>4} {:>12} {:>12}",
        "Robot", "Cfg", "Bottleneck%", "Norm. time"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>4} {:>11.1}% {:>12.3}",
            r.robot,
            r.config,
            100.0 * r.bottleneck_fraction,
            r.normalized_time
        );
    }
    out
}

// ---------------------------------------------------------------- Fig. 6

/// One Fig. 6 bar: a vectorization method on a ray-casting/collision robot.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Robot name (DeliBot: ray-casting; CarriBot: collision).
    pub robot: &'static str,
    /// `"B"`, `"O"`, `"G"`, or `"R"`.
    pub method: String,
    /// Wall time normalized to the scalar baseline.
    pub normalized_time: f64,
    /// Dynamic instructions normalized to the scalar baseline.
    pub normalized_instructions: f64,
    /// Bottleneck share of the attributed cycles.
    pub bottleneck_fraction: f64,
}

/// Fig. 6: OVEC vs Gather vs RACOD on the oriented-access robots. Tartan
/// hardware hosts all methods so OVEC is available; the bars differ only
/// in the software's fetch variant (see the manifest).
pub fn fig6_ovec(params: &ExperimentParams) -> Vec<Fig6Row> {
    let (plan, outcomes) = run_manifest(manifests::FIG6_OVEC, params);
    let width = plan.groups[0].variants_per_robot;
    let mut rows = Vec::new();
    for (per_robot, jobs) in outcomes
        .chunks_exact(width)
        .zip(plan.jobs.chunks_exact(width))
    {
        let base_time = per_robot[0].wall_cycles as f64;
        let base_instr = per_robot[0].instructions as f64;
        for (out, job) in per_robot.iter().zip(jobs) {
            rows.push(Fig6Row {
                robot: out.robot,
                method: job.label.clone(),
                normalized_time: out.wall_cycles as f64 / base_time,
                normalized_instructions: out.instructions as f64 / base_instr,
                bottleneck_fraction: out.bottleneck_fraction(),
            });
        }
    }
    rows
}

/// Renders Fig. 6.
pub fn format_fig6(rows: &[Fig6Row]) -> String {
    let mut out = String::from("Fig. 6: Oriented access patterns and vectorization methods\n");
    let _ = writeln!(
        out,
        "{:<10} {:>3} {:>11} {:>12} {:>12}",
        "Robot", "M", "Norm. time", "Norm. instr", "Bottleneck%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>3} {:>11.3} {:>12.3} {:>11.1}%",
            r.robot,
            r.method,
            r.normalized_time,
            r.normalized_instructions,
            100.0 * r.bottleneck_fraction
        );
    }
    out
}

// ---------------------------------------------------------------- Fig. 7

/// One Fig. 7 bar: ray-casting time with interpolation enabled.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// `"B"`, `"O"`, `"I"`, or `"O+I"`.
    pub config: String,
    /// Ray-casting phase time normalized to the baseline.
    pub normalized_raycast_time: f64,
}

/// Fig. 7: ray-casting with trilinear interpolation — OVEC vs Intel's
/// accelerator vs both.
pub fn fig7_interpolation(params: &ExperimentParams) -> Vec<Fig7Row> {
    let (plan, outcomes) = run_manifest(manifests::FIG7_INTERPOLATION, params);
    let base = outcomes[0].bottleneck_cycles as f64;
    plan.jobs
        .iter()
        .zip(&outcomes)
        .map(|(job, out)| Fig7Row {
            config: job.label.clone(),
            normalized_raycast_time: out.bottleneck_cycles as f64 / base,
        })
        .collect()
}

/// Renders Fig. 7.
pub fn format_fig7(rows: &[Fig7Row]) -> String {
    let mut out = String::from("Fig. 7: Ray-casting time with interpolation\n");
    for r in rows {
        let _ = writeln!(out, "{:<5} {:>8.3}", r.config, r.normalized_raycast_time);
    }
    out
}

// -------------------------------------------------------------- Table II

/// One Table II row: an approximated function and its observed error.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// `AXAR` / `TRAP` / `Native`.
    pub kind: &'static str,
    /// Robot.
    pub robot: &'static str,
    /// Approximated function.
    pub function: &'static str,
    /// MLP topology.
    pub topology: &'static str,
    /// Observed error (%, robot-specific metric; see the field docs of
    /// each robot's `quality`).
    pub error_percent: f64,
}

/// Table II: the three neural workloads and their quality loss. Job order
/// (from the manifest): FlyBot exact, FlyBot AXAR, HomeBot TRAP, PatrolBot
/// native.
pub fn table2_networks(params: &ExperimentParams) -> Vec<Table2Row> {
    let (_, outcomes) = run_manifest(manifests::TABLE2_NETWORKS, params);
    let (fly_exact, fly_axar, home_trap, patrol) =
        (&outcomes[0], &outcomes[1], &outcomes[2], &outcomes[3]);
    // FlyBot exact vs AXAR: path-cost inflation (paper: 0%). HomeBot:
    // geometric-mean transform error of TRAP (paper: 6.8%). PatrolBot:
    // classification error of the PCA+MLP port (paper: 1.3%).
    let fly_err = ((fly_axar.quality / fly_exact.quality.max(1e-9)) - 1.0).max(0.0) * 100.0;
    let home_err = home_trap.quality * 100.0;
    let patrol_err = patrol.quality * 100.0;

    vec![
        Table2Row {
            kind: "AXAR",
            robot: "FlyBot",
            function: "Heuristic Cost",
            topology: "6/16/16/1",
            error_percent: fly_err,
        },
        Table2Row {
            kind: "TRAP",
            robot: "HomeBot",
            function: "T Prediction",
            topology: "192/32/32/6",
            error_percent: home_err,
        },
        Table2Row {
            kind: "Native",
            robot: "PatrolBot",
            function: "Classification",
            topology: "50/1024/512/1",
            error_percent: patrol_err,
        },
    ]
}

/// Renders Table II.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::from("Table II: Neural network workloads\n");
    let _ = writeln!(
        out,
        "{:<7} {:<10} {:<16} {:<14} {:>7}",
        "Type", "Robot", "Function", "Topology", "Error"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<7} {:<10} {:<16} {:<14} {:>6.1}%",
            r.kind, r.robot, r.function, r.topology, r.error_percent
        );
    }
    out
}

// ---------------------------------------------------------------- Fig. 8

/// One Fig. 8 bar: a neural-execution arrangement on one robot.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Robot.
    pub robot: &'static str,
    /// `"B"` baseline, `"H"` hardware NPU, `"S"` software, `"C"`
    /// co-processor.
    pub config: String,
    /// Wall time normalized to B.
    pub normalized_time: f64,
    /// Instructions normalized to B.
    pub normalized_instructions: f64,
    /// Target-function share of attributed cycles.
    pub target_fraction: f64,
    /// Communication share of attributed cycles.
    pub comm_fraction: f64,
}

/// Fig. 8: neural acceleration of robotics — baseline vs integrated NPU vs
/// software execution vs co-processor.
pub fn fig8_npu(params: &ExperimentParams) -> Vec<Fig8Row> {
    let (plan, outcomes) = run_manifest(manifests::FIG8_NPU, params);
    let width = plan.groups[0].variants_per_robot;
    let mut rows = Vec::new();
    for (per_robot, jobs) in outcomes
        .chunks_exact(width)
        .zip(plan.jobs.chunks_exact(width))
    {
        let base_time = per_robot[0].wall_cycles as f64;
        let base_instr = per_robot[0].instructions as f64;
        for (out, job) in per_robot.iter().zip(jobs) {
            let total = out.phase_total().max(1) as f64;
            rows.push(Fig8Row {
                robot: out.robot,
                config: job.label.clone(),
                normalized_time: out.wall_cycles as f64 / base_time,
                normalized_instructions: out.instructions as f64 / base_instr,
                target_fraction: out.bottleneck_cycles as f64 / total,
                comm_fraction: out.comm_cycles as f64 / total,
            });
        }
    }
    rows
}

/// Renders Fig. 8.
pub fn format_fig8(rows: &[Fig8Row]) -> String {
    let mut out = String::from("Fig. 8: Neural acceleration arrangements\n");
    let _ = writeln!(
        out,
        "{:<10} {:>3} {:>11} {:>12} {:>9} {:>7}",
        "Robot", "C", "Norm. time", "Norm. instr", "Target%", "Comm%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>3} {:>11.3} {:>12.3} {:>8.1}% {:>6.1}%",
            r.robot,
            r.config,
            r.normalized_time,
            r.normalized_instructions,
            100.0 * r.target_fraction,
            100.0 * r.comm_fraction
        );
    }
    out
}

// -------------------------------------------------------------- Table III

/// One Table III row: an NPU size.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Processing elements.
    pub pes: u32,
    /// SRAM in KB.
    pub memory_kb: f64,
    /// Geometric-mean speedup over the no-NPU baseline across the three
    /// neural robots.
    pub gmean_speedup: f64,
    /// Area in µm².
    pub area_um2: f64,
}

/// Table III: NPU configurations (2/4/8 PEs). The manifest's first group
/// runs the three no-NPU baselines; the second sweeps the PE counts with
/// robots innermost, so each sweep chunk lines up with the baselines. The
/// PE count of each row is read back from the planned job's machine
/// config — the single source of truth.
pub fn table3_npu_pes(params: &ExperimentParams) -> Vec<Table3Row> {
    let (plan, outcomes) = run_manifest(manifests::TABLE3_NPU_PES, params);
    let robots = plan.groups[0].len;
    let (baselines, sweep) = outcomes.split_at(robots);
    let sweep_jobs = plan.group_jobs(1);
    let mut rows = Vec::new();
    for (jobs, per_pe) in sweep_jobs
        .chunks_exact(robots)
        .zip(sweep.chunks_exact(robots))
    {
        let pes = match jobs[0].machine.npu {
            NpuMode::Integrated { pes } => pes,
            _ => panic!("Table III sweep jobs must use an integrated NPU"),
        };
        let speedups = baselines
            .iter()
            .zip(per_pe)
            .map(|(base, out)| base.wall_cycles as f64 / out.wall_cycles as f64);
        let model = tartan_npu::NpuAreaModel::new(pes);
        rows.push(Table3Row {
            pes,
            memory_kb: model.sram_kilobytes(),
            gmean_speedup: gmean(speedups),
            area_um2: model.area_um2(),
        });
    }
    rows
}

/// Renders Table III.
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut out = String::from("Table III: NPU configurations\n");
    let _ = writeln!(
        out,
        "{:>4} {:>10} {:>14} {:>12}",
        "PEs", "Mem [KB]", "GMean speedup", "Area [um^2]"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>4} {:>10.1} {:>13.2}x {:>12.0}",
            r.pes, r.memory_kb, r.gmean_speedup, r.area_um2
        );
    }
    out
}

// ---------------------------------------------------------------- Fig. 9

/// One Fig. 9 bar: an NNS approach (with or without ANL).
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Robot (MoveBot or HomeBot).
    pub robot: &'static str,
    /// `"B"`, `"B+"`, `"V"`, `"V+"`, `"F"`, `"F+"`, `"K"`, `"K+"`.
    pub config: String,
    /// Wall time normalized to brute force without ANL.
    pub normalized_time: f64,
    /// L2 demand misses normalized to brute force without ANL.
    pub normalized_l2_misses: f64,
}

/// Fig. 9: NNS with different approaches; `+` adds the ANL prefetcher.
///
/// The NNS study stresses the memory system with a larger cloud than the
/// end-to-end runs (the paper tunes each study's inputs, §VIII-C); the
/// sizing lives in the manifest's `params.adjust` and is applied on top of
/// the caller's scale.
pub fn fig9_nns(params: &ExperimentParams) -> Vec<Fig9Row> {
    let (plan, outcomes) = run_manifest(manifests::FIG9_NNS, params);
    let per_robot = plan.groups[0].variants_per_robot;
    let mut rows = Vec::new();
    for (chunk, jobs) in outcomes
        .chunks_exact(per_robot)
        .zip(plan.jobs.chunks_exact(per_robot))
    {
        // The first job per robot is brute force without ANL — the bar
        // everything else is normalized to.
        let base_time = chunk[0].wall_cycles as f64;
        let base_misses = (chunk[0].stats.l2.demand_misses() as f64).max(1.0);
        for (out, job) in chunk.iter().zip(jobs) {
            rows.push(Fig9Row {
                robot: out.robot,
                config: job.label.clone(),
                normalized_time: out.wall_cycles as f64 / base_time,
                normalized_l2_misses: out.stats.l2.demand_misses() as f64 / base_misses,
            });
        }
    }
    rows
}

/// Renders Fig. 9.
pub fn format_fig9(rows: &[Fig9Row]) -> String {
    let mut out = String::from("Fig. 9: NNS with different approaches (+ = ANL)\n");
    let _ = writeln!(
        out,
        "{:<10} {:>4} {:>11} {:>14}",
        "Robot", "Cfg", "Norm. time", "Norm. L2 miss"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>4} {:>11.3} {:>14.3}",
            r.robot, r.config, r.normalized_time, r.normalized_l2_misses
        );
    }
    out
}

// ---------------------------------------------------------------- Fig. 10

/// One Fig. 10 bar: a prefetcher on one robot.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Robot name or `"GMean"`.
    pub robot: &'static str,
    /// `"No"`, `"ANL"`, `"NL"`, `"Bi"`.
    pub prefetcher: String,
    /// Wall time normalized to no prefetching.
    pub normalized_time: f64,
    /// L2 miss coverage.
    pub coverage: f64,
    /// Prefetch accuracy.
    pub accuracy: f64,
}

/// Fig. 10: prefetching approaches across all six robots.
///
/// ANL is a *bucket-revisit* prefetcher (§VI-D), so this study runs the
/// Tartan-tuned software (VLN's contiguous buckets) over clouds sized past
/// the private L2 — the regime whose sparse/dense heterogeneity ANL was
/// designed for. Both the software tier and the cloud sizing live in the
/// manifest.
pub fn fig10_prefetch(params: &ExperimentParams) -> Vec<Fig10Row> {
    let (plan, outcomes) = run_manifest(manifests::FIG10_PREFETCH, params);
    let width = plan.groups[0].variants_per_robot;
    let mut rows = Vec::new();
    let mut per_pf_ratios: Vec<Vec<f64>> = vec![Vec::new(); width];
    for (chunk, jobs) in outcomes
        .chunks_exact(width)
        .zip(plan.jobs.chunks_exact(width))
    {
        let base_time = chunk[0].wall_cycles as f64;
        for (i, (out, job)) in chunk.iter().zip(jobs).enumerate() {
            let ratio = out.wall_cycles as f64 / base_time;
            per_pf_ratios[i].push(ratio);
            rows.push(Fig10Row {
                robot: out.robot,
                prefetcher: job.label.clone(),
                normalized_time: ratio,
                coverage: out.stats.l2.coverage(),
                accuracy: out.stats.l2.accuracy(),
            });
        }
    }
    for (job, ratios) in plan.jobs[..width].iter().zip(&per_pf_ratios) {
        rows.push(Fig10Row {
            robot: "GMean",
            prefetcher: job.label.clone(),
            normalized_time: gmean(ratios.iter().copied()),
            coverage: 0.0,
            accuracy: 0.0,
        });
    }
    rows
}

/// Renders Fig. 10.
pub fn format_fig10(rows: &[Fig10Row]) -> String {
    let mut out = String::from("Fig. 10: Prefetching approaches\n");
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>11} {:>9} {:>9}",
        "Robot", "PF", "Norm. time", "Coverage", "Accuracy"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>11.3} {:>8.1}% {:>8.1}%",
            r.robot,
            r.prefetcher,
            r.normalized_time,
            100.0 * r.coverage,
            100.0 * r.accuracy
        );
    }
    out
}

// ---------------------------------------------------------------- Fig. 11

/// One Fig. 11 bar: an FCP parameterization on one robot.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Robot.
    pub robot: &'static str,
    /// Configuration label, e.g. `"1KB-2b x^2"`.
    pub config: String,
    /// Wall time normalized to no FCP.
    pub normalized_time: f64,
    /// L2 misses normalized to no FCP.
    pub normalized_l2_misses: f64,
}

/// Fig. 11: FCP with different region sizes, XOR widths, and manipulation
/// functions. Per robot: one no-FCP baseline (the manifest's prelude),
/// then the 3 × 2 × 2 parameter sweep.
pub fn fig11_fcp(params: &ExperimentParams) -> Vec<Fig11Row> {
    let (plan, outcomes) = run_manifest(manifests::FIG11_FCP, params);
    let per_robot = plan.groups[0].variants_per_robot;
    let mut rows = Vec::new();
    for (chunk, jobs) in outcomes
        .chunks_exact(per_robot)
        .zip(plan.jobs.chunks_exact(per_robot))
    {
        let base = &chunk[0];
        let base_time = base.wall_cycles as f64;
        let base_misses = base.stats.l2.demand_misses().max(1) as f64;
        for (out, job) in chunk.iter().zip(jobs).skip(1) {
            rows.push(Fig11Row {
                robot: out.robot,
                config: job.label.clone(),
                normalized_time: out.wall_cycles as f64 / base_time,
                normalized_l2_misses: out.stats.l2.demand_misses() as f64 / base_misses,
            });
        }
    }
    rows
}

/// Renders Fig. 11.
pub fn format_fig11(rows: &[Fig11Row]) -> String {
    let mut out = String::from("Fig. 11: FCP parameter sweep\n");
    let _ = writeln!(
        out,
        "{:<10} {:<12} {:>11} {:>14}",
        "Robot", "Config", "Norm. time", "Norm. L2 miss"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:<12} {:>11.3} {:>14.3}",
            r.robot, r.config, r.normalized_time, r.normalized_l2_misses
        );
    }
    out
}

// ---------------------------------------------------------------- Fig. 12

/// One Fig. 12 bar: a robot's end-to-end speedup on Tartan for one
/// software tier.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Robot name or `"GMean"`.
    pub robot: &'static str,
    /// `"legacy"`, `"optimized"`, or `"approximable"`.
    pub software: String,
    /// Speedup of Tartan over the upgraded baseline running legacy
    /// software.
    pub speedup: f64,
}

/// Fig. 12: end-to-end Tartan speedup for the three software tiers
/// (paper: 1.2× legacy, 1.61× optimized, 2.11× approximable). Per robot:
/// the upgraded-baseline reference (prelude), then Tartan per tier.
pub fn fig12_end_to_end(params: &ExperimentParams) -> Vec<Fig12Row> {
    let (plan, outcomes) = run_manifest(manifests::FIG12_END_TO_END, params);
    let per_robot = plan.groups[0].variants_per_robot;
    let tiers = per_robot - 1;
    let mut rows = Vec::new();
    let mut per_tier: Vec<Vec<f64>> = vec![Vec::new(); tiers];
    for (chunk, jobs) in outcomes
        .chunks_exact(per_robot)
        .zip(plan.jobs.chunks_exact(per_robot))
    {
        let base = &chunk[0];
        for (i, (out, job)) in chunk[1..].iter().zip(&jobs[1..]).enumerate() {
            let speedup = base.wall_cycles as f64 / out.wall_cycles as f64;
            per_tier[i].push(speedup);
            rows.push(Fig12Row {
                robot: out.robot,
                software: job.label.clone(),
                speedup,
            });
        }
    }
    for (job, speedups) in plan.jobs[1..per_robot].iter().zip(&per_tier) {
        rows.push(Fig12Row {
            robot: "GMean",
            software: job.label.clone(),
            speedup: gmean(speedups.iter().copied()),
        });
    }
    rows
}

/// Renders Fig. 12.
pub fn format_fig12(rows: &[Fig12Row]) -> String {
    let mut out = String::from("Fig. 12: End-to-end Tartan speedup\n");
    let _ = writeln!(out, "{:<10} {:<14} {:>8}", "Robot", "Software", "Speedup");
    for r in rows {
        let _ = writeln!(out, "{:<10} {:<14} {:>7.2}x", r.robot, r.software, r.speedup);
    }
    out
}

// ------------------------------------------------- §III-A upgrades

/// Results of the engineering-upgrade study (§III-A).
#[derive(Debug, Clone)]
pub struct UpgradeRow {
    /// Robot.
    pub robot: &'static str,
    /// DRAM traffic (UDM) with 64 B lines / with 32 B lines.
    pub udm_reduction: f64,
    /// L3 traffic without / with write-through regions.
    pub l3_traffic_reduction: f64,
    /// Wall-time ratio legacy-baseline / upgraded-baseline.
    pub speedup: f64,
}

/// §III-A: 32 B cachelines cut unnecessary data movement; write-through
/// producer/consumer regions cut L3 traffic.
pub fn baseline_upgrades(params: &ExperimentParams) -> Vec<UpgradeRow> {
    let (_, outcomes) = run_manifest(manifests::BASELINE_UPGRADES, params);
    let mut rows = Vec::new();
    for pair in outcomes.chunks_exact(2) {
        let (legacy, upgraded) = (&pair[0], &pair[1]);
        rows.push(UpgradeRow {
            robot: legacy.robot,
            udm_reduction: legacy.stats.dram_bytes as f64 / upgraded.stats.dram_bytes.max(1) as f64,
            l3_traffic_reduction: legacy.stats.l3_traffic_bytes as f64
                / upgraded.stats.l3_traffic_bytes.max(1) as f64,
            speedup: legacy.wall_cycles as f64 / upgraded.wall_cycles as f64,
        });
    }
    rows
}

/// Renders the upgrade study.
pub fn format_upgrades(rows: &[UpgradeRow]) -> String {
    let mut out = String::from("Engineering upgrades (Sec. III-A)\n");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>11} {:>8}",
        "Robot", "UDM red.", "L3-traffic", "Speedup"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>7.2}x {:>10.2}x {:>7.2}x",
            r.robot, r.udm_reduction, r.l3_traffic_reduction, r.speedup
        );
    }
    out
}

// ------------------------------------------------------------- Ablations

/// One ablation row: a single design knob swept around Tartan's default.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The knob and its value, e.g. `"ANL region 4096B"`.
    pub config: String,
    /// Wall time normalized to Tartan's default configuration.
    pub normalized_time: f64,
    /// Prefetch accuracy (for the ANL sweep; 0 otherwise).
    pub accuracy: f64,
}

/// Design-choice ablations the paper discusses but does not plot:
/// ANL's region size (§VI-D argues 1 KB minimizes overprediction) and
/// OVEC's address-generation latency (§VIII-A estimates 5 cycles). Both
/// sweeps run DeliBot on Tartan with the optimized software tier; the
/// second variant of each group is Tartan's default and the normalization
/// baseline.
pub fn ablations(params: &ExperimentParams) -> Vec<AblationRow> {
    let (plan, outcomes) = run_manifest(manifests::ABLATIONS, params);
    let mut rows = Vec::new();
    for (gi, group) in plan.groups.iter().enumerate() {
        let chunk = &outcomes[group.first..group.first + group.len];
        let jobs = plan.group_jobs(gi);
        let base_time = chunk[1].wall_cycles as f64; // the default setting
        let is_anl = gi == 0;
        for (out, job) in chunk.iter().zip(jobs) {
            rows.push(AblationRow {
                config: job.label.clone(),
                normalized_time: out.wall_cycles as f64 / base_time,
                accuracy: if is_anl { out.stats.l2.accuracy() } else { 0.0 },
            });
        }
    }
    rows
}

/// Renders the ablation study.
pub fn format_ablations(rows: &[AblationRow]) -> String {
    let mut out = String::from("Ablations (design-choice sensitivity)\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>8.3} (accuracy {:>5.1}%)",
            r.config,
            r.normalized_time,
            100.0 * r.accuracy
        );
    }
    out
}

// --------------------------------------------------------------- Table I

/// Renders Table I (application parameters).
pub fn format_table1() -> String {
    let mut out = String::from("Table I: Application parameters\n");
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:<26} {:<14}",
        "Robot", "Resembling", "Major Algorithms", "Pipeline"
    );
    for kind in RobotKind::all() {
        let _ = writeln!(
            out,
            "{:<10} {:<14} {:<26} {:<14}",
            kind.name(),
            kind.resembling(),
            kind.algorithms(),
            kind.pipeline_threads()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan_core::run_robot;
    use tartan_robots::SoftwareConfig;
    use tartan_sim::MachineConfig;

    #[test]
    fn every_checked_in_manifest_parses_and_expands() {
        for (file, manifest) in manifests::ALL {
            let spec = ScenarioSpec::from_json(manifest)
                .unwrap_or_else(|e| panic!("{file}: {e}"));
            let plan = spec.expand().unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!plan.jobs.is_empty(), "{file}: empty plan");
        }
    }

    #[test]
    fn fig6_shapes_hold_at_quick_scale() {
        let rows = fig6_ovec(&ExperimentParams::quick());
        assert_eq!(rows.len(), 8);
        let get = |robot: &str, m: &str| {
            rows.iter()
                .find(|r| r.robot == robot && r.method == m)
                .expect("present")
                .clone()
        };
        for robot in ["DeliBot", "CarriBot"] {
            let b = get(robot, "B");
            let o = get(robot, "O");
            let g = get(robot, "G");
            let r = get(robot, "R");
            assert!(o.normalized_time < b.normalized_time, "{robot}: OVEC wins");
            // RACOD always beats the scalar baseline; OVEC may exceed it
            // outright (see EXPERIMENTS.md, Fig. 6).
            assert!(r.normalized_time < b.normalized_time, "{robot}: RACOD wins");
            assert!(
                g.normalized_instructions > 1.0,
                "{robot}: gather raises instructions"
            );
            assert!(
                o.normalized_instructions < 0.75,
                "{robot}: OVEC cuts instructions, got {}",
                o.normalized_instructions
            );
        }
        assert!(!format_fig6(&rows).is_empty());
    }

    #[test]
    fn table1_lists_all_robots() {
        let t = format_table1();
        for name in ["DeliBot", "PatrolBot", "MoveBot", "HomeBot", "FlyBot", "CarriBot"] {
            assert!(t.contains(name));
        }
    }

    #[test]
    fn fig12_single_robot_sanity() {
        // Full Fig. 12 runs in the integration suite; here just check the
        // driver plumbing with one robot by calling run_robot directly.
        let params = ExperimentParams::quick();
        let base = run_robot(
            RobotKind::DeliBot,
            MachineConfig::upgraded_baseline(),
            SoftwareConfig::legacy(),
            &params,
        );
        let tartan = run_robot(
            RobotKind::DeliBot,
            MachineConfig::tartan(),
            SoftwareConfig::approximable(),
            &params,
        );
        assert!(
            tartan.wall_cycles < base.wall_cycles,
            "Tartan must beat the baseline: {} vs {}",
            tartan.wall_cycles,
            base.wall_cycles
        );
    }
}
