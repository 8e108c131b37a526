//! Determinism regression for the parallel campaign engine: fanning a
//! campaign across host workers must not change a single exported byte.
//!
//! The engine's whole claim (DESIGN.md §12) is that workers race only over
//! *which* job they pick up, never over where its result lands or what the
//! simulation computes — every `run_robot` is self-contained and seeded.
//! These tests pin that claim: a `jobs=4` campaign must render
//! byte-identical `stats.json`/CSV exports and identical per-run telemetry
//! counter totals to the same campaign at `jobs=1`.

use std::collections::BTreeMap;

use tartan::campaign::{
    render_exports, Campaign, CampaignOptions, CampaignSpec, Engine, PhaseClock,
};
use tartan::core::{ConfigId, MachineConfig, ScenarioSpec};
use tartan::par;
use tartan::sim::telemetry::{shared, CountingSink};
use tartan::sim::{Machine, MemPolicy};

/// A bench_tier1-style matrix over the quicker robots: baseline and Tartan
/// per robot (PatrolBot/CarriBot are left to the bench binary itself —
/// they dominate wall time without adding scheduling variety).
const MATRIX: &str = r#"{
    "schema_version": 1,
    "name": "parallel_determinism",
    "groups": [{
        "robots": ["DeliBot", "MoveBot", "HomeBot", "FlyBot"],
        "axes": [{"variants": [
            {"label": "baseline"},
            {"label": "tartan",
             "machine": {"preset": "tartan"},
             "software": {"preset": "approximable"}}
        ]}]
    }]
}"#;

/// Runs [`MATRIX`] through the campaign engine on `jobs` host workers and
/// renders its `(stats.json, csv)` exports.
fn exports_for(jobs: usize) -> (String, String) {
    let spec = ScenarioSpec::from_json(MATRIX).expect("matrix parses");
    let campaign = Campaign::from_spec(spec).expect("matrix expands");
    let configs: Vec<ConfigId> = campaign
        .plan
        .jobs
        .iter()
        .map(|j| j.config.clone())
        .collect();
    assert_eq!(configs.len(), 8);
    assert!(configs
        .chunks_exact(2)
        .all(|pair| pair == [ConfigId::Baseline, ConfigId::Tartan]));
    let report = Engine::new(CampaignSpec {
        campaigns: vec![campaign.clone()],
        options: CampaignOptions {
            jobs,
            ..CampaignOptions::default()
        },
    })
    .run(&mut PhaseClock::start(), None)
    .expect("no store, so no store errors");
    let result = &report.campaigns[0];
    assert!(
        result.failures.is_empty(),
        "jobs = {jobs}: {:?}",
        result.failures
    );
    render_exports("parallel_determinism", &campaign, result)
}

#[test]
fn four_worker_campaign_exports_identical_stats_json() {
    let (seq_stats, seq_csv) = exports_for(1);
    let (par_stats, par_csv) = exports_for(4);
    // The CSV first, for a readable per-row diff on failure...
    assert_eq!(seq_csv, par_csv, "a run drifted under jobs=4");
    // ...then the real contract: the serialized export is byte-identical.
    assert_eq!(seq_stats, par_stats);
}

/// A small synthetic workload with telemetry counting attached: each job
/// runs its own `Machine` and returns the sink's per-kind event totals.
fn counted_run(job_index: usize) -> (u64, BTreeMap<&'static str, u64>) {
    let cfg = if job_index.is_multiple_of(2) {
        MachineConfig::upgraded_baseline()
    } else {
        MachineConfig::tartan()
    };
    let mut m = Machine::new(cfg);
    let (counts, sink) = shared(CountingSink::new());
    m.set_telemetry(sink);
    let stride = 8 + 8 * job_index as u64;
    m.run(|p| {
        for i in 0..512u64 {
            p.read(0x40, i * stride, 4, MemPolicy::Normal);
            if i.is_multiple_of(3) {
                p.write(0x44, i * stride + 4, 4, MemPolicy::Normal);
            }
        }
    });
    drop(m);
    let c = counts.lock().expect("counting sink poisoned");
    (c.total(), c.kinds().clone())
}

#[test]
fn telemetry_counter_totals_match_across_job_counts() {
    let sequential: Vec<_> = (0..8).map(counted_run).collect();
    let indices: Vec<usize> = (0..8).collect();
    let parallel = par::par_map(4, &indices, |&i| counted_run(i));
    assert_eq!(sequential, parallel);
    // The workload must actually produce telemetry for this to mean much.
    assert!(sequential.iter().all(|(total, _)| *total > 0));
}
