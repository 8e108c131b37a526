//! Canonical cache-key rendering for campaign jobs.
//!
//! The content-addressed result store (`tartan-store`) memoizes runs by
//! the SHA-256 of a *canonical job rendering*: everything that determines
//! the run's output bytes, and nothing that doesn't. This module defines
//! that rendering.
//!
//! What goes in:
//! * the robot and canonical [`ConfigId`](crate::ConfigId) string,
//! * the machine and software configurations, rendered through
//!   [`MachineSpec::from_config`]/[`SoftwareSpec::from_config`] — the same
//!   canonicalization the scenario layer round-trips through, so two
//!   scenario documents that resolve to the same configuration produce the
//!   same key,
//! * every field of the workload [`Scale`](tartan_robots::Scale) (the
//!   scale table in `spec.rs`), the step count, and the seed,
//! * [`CACHE_KEY_VERSION`] and the stats schema version
//!   ([`tartan_telemetry::STATS_SCHEMA_VERSION`]), so a format change on
//!   either side invalidates old entries instead of mis-serving them.
//!
//! What stays out, deliberately: the sweep *label* and *group* — they are
//! presentation, chosen by the scenario author, and renaming a bar must
//! not force a re-simulation. CSV rows are rebuilt from the current plan's
//! labels plus the cached numbers.

use crate::expand::{ExperimentParams, PlannedJob};
use crate::json::JsonValue;
use crate::spec::{scale_value, MachineSpec, SoftwareSpec};

/// Version of the canonical rendering below. Bump whenever the rendering
/// (field set, order, or semantics) changes, so stale store entries become
/// misses rather than wrong hits.
pub const CACHE_KEY_VERSION: u32 = 1;

fn num(n: impl ToString) -> JsonValue {
    JsonValue::Num(n.to_string())
}

impl PlannedJob {
    /// The canonical text whose SHA-256 addresses this job's result in the
    /// store. Deterministic: equal (job, params) pairs render equal text,
    /// and any semantic difference — robot, resolved machine or software
    /// configuration, scale, steps, or seed — renders different text.
    pub fn cache_key_text(&self, params: &ExperimentParams) -> String {
        JsonValue::Obj(vec![
            ("cache_key_version".into(), num(CACHE_KEY_VERSION)),
            (
                "stats_schema".into(),
                num(tartan_telemetry::STATS_SCHEMA_VERSION),
            ),
            ("robot".into(), JsonValue::Str(self.robot.name().into())),
            ("config".into(), JsonValue::Str(self.config.as_str().into())),
            (
                "machine".into(),
                MachineSpec::from_config(&self.machine).to_value(),
            ),
            (
                "software".into(),
                SoftwareSpec::from_config(&self.software).to_value(),
            ),
            ("scale".into(), scale_value(&params.scale)),
            ("steps".into(), num(params.steps)),
            ("seed".into(), num(params.seed)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::ScenarioSpec;

    const DOC: &str = r#"{
        "schema_version": 1, "name": "key-test",
        "groups": [{
            "robots": ["DeliBot", "FlyBot"],
            "axes": [{"variants": [
                {"label": "base"},
                {"label": "tartan", "machine": {"preset": "tartan"},
                 "software": {"preset": "approximable"}}
            ]}]
        }]
    }"#;

    fn plan_and_params() -> (crate::Plan, ExperimentParams) {
        let spec = ScenarioSpec::from_json(DOC).unwrap();
        let plan = spec.expand().unwrap();
        let params = spec.base_params();
        (plan, params)
    }

    #[test]
    fn equal_jobs_render_equal_text() {
        let (plan, params) = plan_and_params();
        for job in &plan.jobs {
            assert_eq!(job.cache_key_text(&params), job.cache_key_text(&params));
        }
        // And the rendering is stable across independent expansions.
        let (plan2, params2) = plan_and_params();
        for (a, b) in plan.jobs.iter().zip(&plan2.jobs) {
            assert_eq!(a.cache_key_text(&params), b.cache_key_text(&params2));
        }
    }

    #[test]
    fn distinct_jobs_render_distinct_text() {
        let (plan, params) = plan_and_params();
        let mut keys: Vec<String> = plan
            .jobs
            .iter()
            .map(|j| j.cache_key_text(&params))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), plan.jobs.len(), "4 jobs must yield 4 keys");
    }

    #[test]
    fn params_perturbations_change_the_text() {
        let (plan, params) = plan_and_params();
        let job = &plan.jobs[0];
        let base = job.cache_key_text(&params);

        let mut p = params;
        p.seed += 1;
        assert_ne!(job.cache_key_text(&p), base, "seed must be keyed");

        let mut p = params;
        p.steps += 1;
        assert_ne!(job.cache_key_text(&p), base, "steps must be keyed");

        let mut p = params;
        p.scale.map_points *= 2;
        assert_ne!(job.cache_key_text(&p), base, "scale must be keyed");
    }

    #[test]
    fn label_and_group_are_not_keyed() {
        // Renaming a bar must not invalidate its cached result.
        let (plan, params) = plan_and_params();
        let mut relabeled = plan.jobs[0].clone();
        relabeled.label = "a completely different label".into();
        relabeled.group = 7;
        assert_eq!(
            relabeled.cache_key_text(&params),
            plan.jobs[0].cache_key_text(&params)
        );
    }

    #[test]
    fn text_is_valid_json_and_versioned() {
        let (plan, params) = plan_and_params();
        let text = plan.jobs[0].cache_key_text(&params);
        crate::json::parse(&text).unwrap();
        assert!(text.starts_with("{\"cache_key_version\":1,\"stats_schema\":"));
        assert!(text.contains("\"robot\":\"DeliBot\""));
        assert!(text.contains("\"seed\":42"));
    }
}
