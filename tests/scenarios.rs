//! Migration guard for the declarative scenario layer: every checked-in
//! manifest must expand to exactly the job matrix its figure harness built
//! by hand before the refactor.
//!
//! Each `legacy_*` function below is the pre-refactor harness's job-list
//! construction, copied verbatim. The tests expand the corresponding
//! `scenarios/*.json` manifest and compare job for job: robot, the fully
//! resolved `MachineConfig`, the *effective* software configuration (the
//! runner applies [`SoftwareConfig::effective`] before building a robot,
//! so that is the observable contract), and the row label. With identical
//! job lists and untouched row math, the harness outputs are byte-identical
//! by construction — and one harness (Fig. 7) is additionally checked
//! end-to-end at quick scale.

use std::fs;

use tartan::campaign::{
    render_exports, Campaign, CampaignOptions, CampaignSpec, Engine, PhaseClock,
};
use tartan::core::experiments::{self, manifests};
use tartan::core::{
    run_robot, ExperimentParams, FcpConfig, FcpManipulation, MachineConfig, NeuralExec, NnsKind,
    NpuMode, PrefetcherKind, RobotKind, ScenarioSpec, SoftwareConfig,
};
use tartan::par;
use tartan::robots::VecMethod;

/// One hand-built legacy job: (robot, hardware, software).
type LegacyJob = (RobotKind, MachineConfig, SoftwareConfig);

fn plan_of(manifest: &str) -> tartan::core::Plan {
    ScenarioSpec::from_json(manifest)
        .expect("manifest parses")
        .expand()
        .expect("manifest expands")
}

/// Asserts a manifest's plan equals a hand-built legacy job list. Software
/// is compared after `effective()` because `RobotKind::build` applies it —
/// two specs that downgrade to the same effective config run identically.
fn assert_plan_matches(
    name: &str,
    manifest: &str,
    legacy: &[LegacyJob],
    labels: Option<&[String]>,
) {
    let plan = plan_of(manifest);
    assert_eq!(plan.jobs.len(), legacy.len(), "{name}: job count");
    for (i, (job, (kind, hw, sw))) in plan.jobs.iter().zip(legacy).enumerate() {
        assert_eq!(job.robot, *kind, "{name}[{i}]: robot");
        assert_eq!(&job.machine, hw, "{name}[{i}]: machine config");
        assert_eq!(
            job.software.effective(hw),
            sw.effective(hw),
            "{name}[{i}]: effective software config"
        );
        if let Some(labels) = labels {
            assert_eq!(job.label, labels[i], "{name}[{i}]: label");
        }
    }
}

fn per_robot<const N: usize>(robots: &[RobotKind], labels: [&str; N]) -> Vec<String> {
    robots
        .iter()
        .flat_map(|_| labels.map(String::from))
        .collect()
}

#[test]
fn every_scenario_file_on_disk_is_valid_and_embedded() {
    let mut files: Vec<String> = fs::read_dir("scenarios")
        .expect("scenarios/ exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "scenarios/ must contain manifests");
    for file in &files {
        let text = fs::read_to_string(format!("scenarios/{file}")).unwrap();
        let spec = ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        spec.expand().unwrap_or_else(|e| panic!("{file}: {e}"));
        // Every on-disk manifest must also be embedded in the library, so
        // the binary and the repository can't drift apart.
        let embedded = manifests::ALL
            .iter()
            .find(|(name, _)| name == file)
            .unwrap_or_else(|| panic!("{file} is not embedded in experiments::manifests::ALL"));
        assert_eq!(embedded.1, text, "{file}: embedded copy differs from disk");
    }
    assert_eq!(files.len(), manifests::ALL.len(), "embedded/disk count");
}

#[test]
fn fig1_manifest_matches_legacy_matrix() {
    let legacy: Vec<LegacyJob> = RobotKind::all()
        .into_iter()
        .flat_map(|kind| {
            [
                (
                    kind,
                    MachineConfig::upgraded_baseline(),
                    SoftwareConfig::legacy(),
                ),
                (kind, MachineConfig::tartan(), SoftwareConfig::approximable()),
            ]
        })
        .collect();
    let labels = per_robot(&RobotKind::all(), ["B", "T"]);
    assert_plan_matches("fig1", manifests::FIG1_BREAKDOWN, &legacy, Some(&labels));
}

#[test]
fn fig6_manifest_matches_legacy_matrix() {
    const METHODS: [(&str, VecMethod); 4] = [
        ("B", VecMethod::Scalar),
        ("O", VecMethod::Ovec),
        ("G", VecMethod::Gather),
        ("R", VecMethod::Racod),
    ];
    let robots = [RobotKind::DeliBot, RobotKind::CarriBot];
    let legacy: Vec<LegacyJob> = robots
        .into_iter()
        .flat_map(|kind| {
            METHODS.map(|(_, method)| {
                let sw = SoftwareConfig {
                    vec_method: method,
                    ..SoftwareConfig::legacy()
                };
                (kind, MachineConfig::tartan(), sw)
            })
        })
        .collect();
    let labels = per_robot(&robots, ["B", "O", "G", "R"]);
    assert_plan_matches("fig6", manifests::FIG6_OVEC, &legacy, Some(&labels));
}

#[test]
fn fig7_manifest_matches_legacy_matrix() {
    const CONFIGS: [(&str, bool, bool); 4] = [
        ("B", false, false),
        ("O", true, false),
        ("I", false, true),
        ("O+I", true, true),
    ];
    let legacy: Vec<LegacyJob> = CONFIGS
        .iter()
        .map(|&(_, ovec, intel)| {
            let mut hw = if ovec {
                MachineConfig::tartan()
            } else {
                MachineConfig::upgraded_baseline()
            };
            hw.intel_lvs = intel;
            let sw = SoftwareConfig {
                vec_method: if ovec { VecMethod::Ovec } else { VecMethod::Scalar },
                interpolate_raycast: true,
                ..SoftwareConfig::legacy()
            };
            (RobotKind::DeliBot, hw, sw)
        })
        .collect();
    let labels: Vec<String> = CONFIGS.iter().map(|&(l, ..)| l.to_string()).collect();
    assert_plan_matches("fig7", manifests::FIG7_INTERPOLATION, &legacy, Some(&labels));
}

/// The one end-to-end byte-identity check: the legacy Fig. 7 pipeline
/// (hand-built jobs, same row math) must format to exactly the same text
/// as the scenario-driven driver.
#[test]
fn fig7_scenario_driver_output_is_byte_identical_to_legacy() {
    let params = ExperimentParams::quick();
    const CONFIGS: [(&str, bool, bool); 4] = [
        ("B", false, false),
        ("O", true, false),
        ("I", false, true),
        ("O+I", true, true),
    ];
    let jobs: Vec<LegacyJob> = CONFIGS
        .iter()
        .map(|&(_, ovec, intel)| {
            let mut hw = if ovec {
                MachineConfig::tartan()
            } else {
                MachineConfig::upgraded_baseline()
            };
            hw.intel_lvs = intel;
            let sw = SoftwareConfig {
                vec_method: if ovec { VecMethod::Ovec } else { VecMethod::Scalar },
                interpolate_raycast: true,
                ..SoftwareConfig::legacy()
            };
            (RobotKind::DeliBot, hw, sw)
        })
        .collect();
    let outcomes = par::par_map(1, &jobs, |(k, hw, sw)| {
        run_robot(*k, hw.clone(), *sw, &params)
    });
    let base = outcomes[0].bottleneck_cycles as f64;
    let legacy_rows: Vec<experiments::Fig7Row> = CONFIGS
        .iter()
        .zip(&outcomes)
        .map(|(&(label, _, _), out)| experiments::Fig7Row {
            config: label.to_string(),
            normalized_raycast_time: out.bottleneck_cycles as f64 / base,
        })
        .collect();
    let legacy_text = experiments::format_fig7(&legacy_rows);
    let scenario_text = experiments::format_fig7(&experiments::fig7_interpolation(&params));
    assert_eq!(legacy_text, scenario_text);
}

#[test]
fn table2_manifest_matches_legacy_matrix() {
    let legacy: Vec<LegacyJob> = vec![
        (
            RobotKind::FlyBot,
            MachineConfig::tartan(),
            SoftwareConfig::optimized(),
        ),
        (
            RobotKind::FlyBot,
            MachineConfig::tartan(),
            SoftwareConfig::approximable(),
        ),
        (
            RobotKind::HomeBot,
            MachineConfig::tartan(),
            SoftwareConfig::approximable(),
        ),
        (
            RobotKind::PatrolBot,
            MachineConfig::tartan(),
            SoftwareConfig::approximable(),
        ),
    ];
    assert_plan_matches("table2", manifests::TABLE2_NETWORKS, &legacy, None);
}

#[test]
fn fig8_manifest_matches_legacy_matrix() {
    const ARRANGEMENTS: [(&str, NpuMode, NeuralExec); 4] = [
        ("B", NpuMode::None, NeuralExec::None),
        ("H", NpuMode::Integrated { pes: 4 }, NeuralExec::Npu),
        ("S", NpuMode::None, NeuralExec::Software),
        ("C", NpuMode::Coprocessor, NeuralExec::Npu),
    ];
    let robots = [RobotKind::PatrolBot, RobotKind::HomeBot, RobotKind::FlyBot];
    let legacy: Vec<LegacyJob> = robots
        .into_iter()
        .flat_map(|kind| {
            ARRANGEMENTS.map(|(_, npu, neural)| {
                let mut hw = MachineConfig::upgraded_baseline();
                hw.npu = npu;
                let sw = SoftwareConfig {
                    neural,
                    ..SoftwareConfig::legacy()
                };
                (kind, hw, sw)
            })
        })
        .collect();
    let labels = per_robot(&robots, ["B", "H", "S", "C"]);
    assert_plan_matches("fig8", manifests::FIG8_NPU, &legacy, Some(&labels));
}

#[test]
fn table3_manifest_matches_legacy_matrix() {
    const PE_COUNTS: [u32; 3] = [2, 4, 8];
    let robots = [RobotKind::PatrolBot, RobotKind::HomeBot, RobotKind::FlyBot];
    let mut legacy: Vec<LegacyJob> = robots
        .iter()
        .map(|&kind| {
            (
                kind,
                MachineConfig::upgraded_baseline(),
                SoftwareConfig::legacy(),
            )
        })
        .collect();
    for pes in PE_COUNTS {
        for &kind in &robots {
            let mut hw = MachineConfig::upgraded_baseline();
            hw.npu = NpuMode::Integrated { pes };
            let sw = SoftwareConfig {
                neural: NeuralExec::Npu,
                ..SoftwareConfig::legacy()
            };
            legacy.push((kind, hw, sw));
        }
    }
    assert_plan_matches("table3", manifests::TABLE3_NPU_PES, &legacy, None);
}

#[test]
fn fig9_manifest_matches_legacy_matrix() {
    let engines = [
        ("B", NnsKind::Brute),
        ("V", NnsKind::Vln),
        ("F", NnsKind::Flann),
        ("K", NnsKind::KdTree),
    ];
    let mut legacy: Vec<LegacyJob> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for kind in [RobotKind::MoveBot, RobotKind::HomeBot] {
        for (label, nns) in engines {
            for anl in [false, true] {
                let mut hw = MachineConfig::upgraded_baseline();
                hw.prefetcher = if anl {
                    PrefetcherKind::Anl
                } else {
                    PrefetcherKind::None
                };
                let sw = SoftwareConfig {
                    nns,
                    ..SoftwareConfig::legacy()
                };
                legacy.push((kind, hw, sw));
                labels.push(format!("{label}{}", if anl { "+" } else { "" }));
            }
        }
    }
    assert_plan_matches("fig9", manifests::FIG9_NNS, &legacy, Some(&labels));
    // The study-specific sizing moved into the manifest's params.adjust.
    let spec = ScenarioSpec::from_json(manifests::FIG9_NNS).unwrap();
    let mut scale = tartan::robots::Scale::small();
    spec.params.apply_adjusts(&mut scale);
    assert_eq!(scale.map_points, tartan::robots::Scale::small().map_points * 4);
}

#[test]
fn fig10_manifest_matches_legacy_matrix() {
    let kinds = [
        ("No", PrefetcherKind::None),
        ("ANL", PrefetcherKind::Anl),
        ("NL", PrefetcherKind::NextLine),
        ("Bi", PrefetcherKind::Bingo),
    ];
    let legacy: Vec<LegacyJob> = RobotKind::all()
        .iter()
        .flat_map(|&robot| {
            kinds.iter().map(move |(_, pf)| {
                let mut hw = MachineConfig::upgraded_baseline();
                hw.prefetcher = *pf;
                let mut sw = SoftwareConfig::optimized().effective(&hw);
                sw.nns = NnsKind::Vln;
                (robot, hw, sw)
            })
        })
        .collect();
    let labels = per_robot(&RobotKind::all(), ["No", "ANL", "NL", "Bi"]);
    assert_plan_matches("fig10", manifests::FIG10_PREFETCH, &legacy, Some(&labels));
    let spec = ScenarioSpec::from_json(manifests::FIG10_PREFETCH).unwrap();
    let mut scale = tartan::robots::Scale::small();
    spec.params.apply_adjusts(&mut scale);
    assert_eq!(
        scale.map_points,
        tartan::robots::Scale::small().map_points * 20
    );
}

#[test]
fn fig11_manifest_matches_legacy_matrix() {
    let manips = [
        ("x+1", FcpManipulation::Increment),
        ("2x", FcpManipulation::Double),
        ("x^2", FcpManipulation::Square),
    ];
    let geoms = [("512B", 512u64), ("1KB", 1024)];
    let bits = [2u32, 3];
    let mut legacy: Vec<LegacyJob> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for robot in RobotKind::all() {
        legacy.push((
            robot,
            MachineConfig::upgraded_baseline(),
            SoftwareConfig::legacy(),
        ));
        labels.push(String::new());
        for (mlabel, m) in manips {
            for (glabel, region) in geoms {
                for l in bits {
                    let mut hw = MachineConfig::upgraded_baseline();
                    hw.fcp = Some(FcpConfig {
                        region_bytes: region,
                        xor_bits: l,
                        manipulation: m,
                    });
                    legacy.push((robot, hw, SoftwareConfig::legacy()));
                    labels.push(format!("{glabel}-{l}b {mlabel}"));
                }
            }
        }
    }
    assert_plan_matches("fig11", manifests::FIG11_FCP, &legacy, Some(&labels));
}

#[test]
fn fig12_manifest_matches_legacy_matrix() {
    let tiers = [
        ("legacy", SoftwareConfig::legacy()),
        ("optimized", SoftwareConfig::optimized()),
        ("approximable", SoftwareConfig::approximable()),
    ];
    let mut legacy: Vec<LegacyJob> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for robot in RobotKind::all() {
        legacy.push((
            robot,
            MachineConfig::upgraded_baseline(),
            SoftwareConfig::legacy(),
        ));
        labels.push(String::new());
        for (label, sw) in tiers {
            legacy.push((robot, MachineConfig::tartan(), sw));
            labels.push(label.to_string());
        }
    }
    assert_plan_matches("fig12", manifests::FIG12_END_TO_END, &legacy, Some(&labels));
}

#[test]
fn baseline_upgrades_manifest_matches_legacy_matrix() {
    let robots = [RobotKind::DeliBot, RobotKind::HomeBot, RobotKind::CarriBot];
    let legacy: Vec<LegacyJob> = robots
        .iter()
        .flat_map(|&robot| {
            [
                (
                    robot,
                    MachineConfig::legacy_baseline(),
                    SoftwareConfig::legacy(),
                ),
                (
                    robot,
                    MachineConfig::upgraded_baseline(),
                    SoftwareConfig::legacy(),
                ),
            ]
        })
        .collect();
    let labels = per_robot(&robots, ["legacy", "upgraded"]);
    assert_plan_matches(
        "baseline_upgrades",
        manifests::BASELINE_UPGRADES,
        &legacy,
        Some(&labels),
    );
}

#[test]
fn ablations_manifest_matches_legacy_matrix() {
    const ANL_REGIONS: [u64; 4] = [512, 1024, 2048, 4096];
    const OVEC_LATENCIES: [u64; 4] = [1, 5, 10, 20];
    let mut sw = SoftwareConfig::optimized();
    sw.nns = NnsKind::Vln;
    let mut legacy: Vec<LegacyJob> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for region in ANL_REGIONS {
        let mut hw = MachineConfig::tartan();
        hw.anl_region_bytes = region;
        legacy.push((RobotKind::DeliBot, hw, sw));
        labels.push(format!("ANL region {region}B"));
    }
    for lat in OVEC_LATENCIES {
        let mut hw = MachineConfig::tartan();
        hw.ovec_addr_gen_latency = lat;
        legacy.push((RobotKind::DeliBot, hw, SoftwareConfig::optimized()));
        labels.push(format!("OVEC addr-gen {lat}cy"));
    }
    assert_plan_matches("ablations", manifests::ABLATIONS, &legacy, Some(&labels));
}

#[test]
fn bench_tier1_manifest_matches_legacy_matrix() {
    let mut legacy: Vec<LegacyJob> = Vec::new();
    let mut configs: Vec<&str> = Vec::new();
    for kind in RobotKind::all() {
        legacy.push((
            kind,
            MachineConfig::upgraded_baseline(),
            SoftwareConfig::legacy(),
        ));
        configs.push("baseline");
        legacy.push((kind, MachineConfig::tartan(), SoftwareConfig::approximable()));
        configs.push("tartan");
    }
    let plan = plan_of(manifests::BENCH_TIER1);
    assert_plan_matches("bench_tier1", manifests::BENCH_TIER1, &legacy, None);
    // bench_tier1's exported `config` labels come from the canonical
    // ConfigId — they must be exactly the strings the old harness wrote,
    // or results/BENCH_tier1.json drifts across commits.
    for (job, expect) in plan.jobs.iter().zip(&configs) {
        assert_eq!(&job.config.as_str(), expect);
    }
}

/// The scenario-driven stats export must be byte-identical for any worker
/// count — the `tartan_run --jobs N` contract.
#[test]
fn scenario_export_is_byte_identical_across_job_counts() {
    let campaign = Campaign::from_spec(ScenarioSpec::from_json(manifests::SMOKE).unwrap()).unwrap();
    let export_for = |jobs: usize| {
        let report = Engine::new(CampaignSpec {
            campaigns: vec![campaign.clone()],
            options: CampaignOptions {
                jobs,
                ..CampaignOptions::default()
            },
        })
        .run(&mut PhaseClock::start(), None)
        .unwrap();
        assert!(report.campaigns[0].failures.is_empty(), "jobs = {jobs}");
        render_exports("tartan_run", &campaign, &report.campaigns[0])
    };
    assert_eq!(export_for(1), export_for(2));
}

/// Invalid scenario documents must fail with a single-line error carrying
/// the exact field path — the "actionable error" contract of the layer.
#[test]
fn invalid_scenarios_fail_with_single_line_path_errors() {
    let cases = [
        (
            r#"{"schema_version": 1, "name": "x", "groups": [{"robots": "all",
                "machine": {"l2": {"ways": 0}}}]}"#,
            "groups[0].machine.l2.ways",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "groups": [{}]}"#,
            "groups[0].robots",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "groups": [{"robots": "all",
                "software": {"vec_method": "simd"}}]}"#,
            "groups[0].software.vec_method",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "groups": [{"robots": ["RoboCop"]}]}"#,
            "groups[0].robots[0]",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "params": {"adjust": [{"field": "map_points"}]},
                "groups": [{"robots": "all"}]}"#,
            "params.adjust[0]",
        ),
    ];
    for (doc, want_path) in cases {
        let err = ScenarioSpec::from_json(doc)
            .and_then(|s| s.expand().map(|_| ()))
            .expect_err("document must be rejected");
        let line = err.to_string();
        assert!(
            !line.contains('\n'),
            "error must be a single line, got: {line:?}"
        );
        assert!(
            line.starts_with(&format!("{want_path}: ")),
            "expected path {want_path:?} in error {line:?}"
        );
    }
}

/// The checked-in scenario documents, sorted: every manifest under
/// `scenarios/` followed by every generated corpus file.
fn checked_in_scenarios() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for dir in ["scenarios", "scenarios/corpus"] {
        let mut names: Vec<String> = fs::read_dir(dir)
            .expect("scenario directory exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".json") && n != "corpus_manifest.json")
            .collect();
        names.sort();
        for name in names {
            let path = format!("{dir}/{name}");
            let text = fs::read_to_string(&path).unwrap();
            out.push((path, text));
        }
    }
    out
}

/// `tartan_gen` writes each corpus file as `to_json` of its spec plus a
/// newline, so a parse/render pass must reproduce every file byte for byte.
#[test]
fn corpus_files_are_render_fixed_points() {
    let corpus: Vec<(String, String)> = checked_in_scenarios()
        .into_iter()
        .filter(|(path, _)| path.starts_with("scenarios/corpus/gen-"))
        .collect();
    assert_eq!(corpus.len(), 68, "checked-in corpus size");
    for (path, text) in &corpus {
        let spec = ScenarioSpec::from_json(text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(
            format!("{}\n", spec.to_json()),
            *text,
            "{path}: render differs"
        );
    }
}

/// Pins the store's content address: one SHA-256 over the cache-key text
/// of every planned job of every checked-in scenario, each at its own
/// stand-alone parameters. A change here silently turns every existing
/// store entry into a miss (or, worse, a wrong hit), so it must come with
/// a `CACHE_KEY_VERSION` bump.
#[test]
fn cache_key_texts_of_checked_in_scenarios_are_pinned() {
    let mut hasher = tartan::store::Sha256::new();
    let mut keys = 0;
    for (path, text) in checked_in_scenarios() {
        let spec = ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let params = spec.base_params();
        for job in spec.expand().unwrap_or_else(|e| panic!("{path}: {e}")).jobs {
            hasher.update(job.cache_key_text(&params).as_bytes());
            hasher.update(b"\n");
            keys += 1;
        }
    }
    let digest: String = hasher.finish().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(keys, 344, "planned jobs across the checked-in scenarios");
    assert_eq!(
        digest,
        "666eee8f452307849408d0ceab1fc44030a37dae3f040401e50f61df2a568681"
    );
}

/// `smoke.json` with a `params` block carrying `adjust`.
fn smoke_with_adjust(adjust: &str) -> String {
    manifests::SMOKE.replacen(
        "\"groups\":",
        &format!("\"params\": {{\"adjust\": {adjust}}},\n  \"groups\":"),
        1,
    )
}

/// A multiplier that overflows a scale field is rejected at parse time,
/// at the path of the offending `mul`, whichever scale it overflows: the
/// adjust list is applied in order to `small`, `paper` and the probe scale.
#[test]
fn overflowing_scale_multipliers_are_rejected() {
    let cases = [
        // 64 × 2^62 overflows on every scale.
        (
            r#"[{"field": "grid2", "mul": 4611686018427387904}]"#,
            "params.adjust[0].mul",
            "small",
        ),
        // Each step fits alone; the product (2^6 · 2^40 · 2^30) does not.
        (
            r#"[{"field": "grid2", "mul": 1099511627776}, {"field": "grid2", "mul": 1073741824}]"#,
            "params.adjust[1].mul",
            "small",
        ),
        // 2^6 · 2^57 fits on the small scale; 2^8 · 2^57 does not fit on the paper one.
        (
            r#"[{"field": "grid2", "mul": 144115188075855872}]"#,
            "params.adjust[0].mul",
            "paper",
        ),
    ];
    for (adjust, path, scale) in cases {
        let err = ScenarioSpec::from_json(&smoke_with_adjust(adjust)).unwrap_err();
        assert_eq!(err.path, path, "{adjust}: {err}");
        assert!(err.reason.contains("overflows grid2"), "{err}");
        assert!(err.reason.contains(&format!("the {scale} scale")), "{err}");
    }
    // A large multiplier that fits on every scale still parses.
    let spec = ScenarioSpec::from_json(&smoke_with_adjust(r#"[{"field": "grid2", "mul": 1024}]"#))
        .unwrap();
    assert_eq!(spec.base_params().scale.grid2, 64 * 1024);
}

/// A zero `set` or `mul` would leave a robot an empty workload (some
/// index out of bounds on it), so `--check` rejects it as an input error
/// instead of passing a document that then fails every job.
#[test]
fn check_rejects_zero_scale_operands() {
    let dir = std::env::temp_dir().join(format!("tartan-adjust-zero-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let cases = [
        (r#"[{"field": "particles", "set": 0}]"#, "params.adjust[0].set: set must be at least 1"),
        (r#"[{"field": "rays", "mul": 2}, {"field": "delibot_grid", "mul": 0}]"#, "params.adjust[1].mul: mul must be at least 1"),
    ];
    for (i, (adjust, expected)) in cases.iter().enumerate() {
        let file = dir.join(format!("smoke-zero-{i}.json"));
        fs::write(&file, smoke_with_adjust(adjust)).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tartan_run"))
            .arg("--check")
            .arg(&file)
            .output()
            .expect("spawn tartan_run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{adjust}: stderr: {stderr}");
        assert!(stderr.contains(expected), "{adjust}: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn check_rejects_overflowing_scale_multipliers() {
    let dir = std::env::temp_dir().join(format!("tartan-adjust-overflow-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let file = dir.join("smoke-overflow.json");
    fs::write(
        &file,
        smoke_with_adjust(r#"[{"field": "grid2", "mul": 4611686018427387904}]"#),
    )
    .unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tartan_run"))
        .arg("--check")
        .arg(&file)
        .output()
        .expect("spawn tartan_run");
    let _ = fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(": params.adjust[0].mul: mul 4611686018427387904 overflows grid2"),
        "{stderr}"
    );
}
