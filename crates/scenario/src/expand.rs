//! The scenario document itself and its expansion into an ordered,
//! validated campaign job list.
//!
//! A scenario is a list of *groups*. Each group names its robots, a base
//! machine/software spec (merged over the scenario-wide base), an optional
//! *prelude* of explicitly-labeled variants (reference bars such as a
//! no-FCP baseline), and an optional list of sweep *axes*. The axes expand
//! as a cartesian product with the **first axis outermost**; labels come
//! from `label_format` (with `{i}` substituted by axis *i*'s variant
//! label) or, by default, the concatenation of the variant labels.
//!
//! Within a group, `order` picks the nesting:
//!
//! * `robots_outer` (default): every variant for robot 0, then robot 1, …
//! * `axes_outer`: every robot for variant 0, then variant 1, …
//!
//! Expansion resolves and validates every machine configuration, so a
//! [`Plan`]'s jobs are guaranteed constructible.

use crate::error::ScenarioError;
use crate::id::ConfigId;
use crate::json::{parse, JsonValue};
use crate::spec::{
    arr, join, keyword, obj, str_of, u64_of, unknown_field, MachineSpec, ParamsSpec, SoftwareSpec,
    SCENARIO_SCHEMA_VERSION,
};
use tartan_robots::{RobotKind, Scale, SoftwareConfig};
use tartan_sim::MachineConfig;

// ------------------------------------------------------------ VariantSpec

/// One point of a sweep: a label plus partial machine/software overrides.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VariantSpec {
    /// Bar label (may be empty, e.g. for an unlabeled reference run).
    pub label: String,
    /// Machine overrides.
    pub machine: MachineSpec,
    /// Software overrides.
    pub software: SoftwareSpec,
}

impl VariantSpec {
    fn parse(v: &JsonValue, path: &str) -> Result<VariantSpec, ScenarioError> {
        let mut spec = VariantSpec::default();
        for (key, value) in obj(v, path)? {
            let p = join(path, key);
            match key.as_str() {
                "label" => spec.label = str_of(value, &p)?.to_string(),
                "machine" => spec.machine = MachineSpec::parse(value, &p)?,
                "software" => spec.software = SoftwareSpec::parse(value, &p)?,
                _ => return Err(unknown_field(path, key, &["label", "machine", "software"])),
            }
        }
        Ok(spec)
    }

    fn to_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if !self.label.is_empty() {
            fields.push(("label".into(), JsonValue::Str(self.label.clone())));
        }
        if self.machine != MachineSpec::default() {
            fields.push(("machine".into(), self.machine.to_value()));
        }
        if self.software != SoftwareSpec::default() {
            fields.push(("software".into(), self.software.to_value()));
        }
        JsonValue::Obj(fields)
    }
}

// --------------------------------------------------------------- AxisSpec

/// One sweep dimension: an ordered list of variants.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSpec {
    /// Optional axis name, for documentation.
    pub name: Option<String>,
    /// The variants, in sweep order.
    pub variants: Vec<VariantSpec>,
}

impl AxisSpec {
    fn parse(v: &JsonValue, path: &str) -> Result<AxisSpec, ScenarioError> {
        let mut name = None;
        let mut variants = Vec::new();
        for (key, value) in obj(v, path)? {
            let p = join(path, key);
            match key.as_str() {
                "name" => name = Some(str_of(value, &p)?.to_string()),
                "variants" => {
                    for (i, item) in arr(value, &p)?.iter().enumerate() {
                        variants.push(VariantSpec::parse(item, &format!("{p}[{i}]"))?);
                    }
                }
                _ => return Err(unknown_field(path, key, &["name", "variants"])),
            }
        }
        if variants.is_empty() {
            return Err(ScenarioError::new(
                join(path, "variants"),
                "an axis needs at least one variant",
            ));
        }
        Ok(AxisSpec { name, variants })
    }

    fn to_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if let Some(n) = &self.name {
            fields.push(("name".into(), JsonValue::Str(n.clone())));
        }
        fields.push((
            "variants".into(),
            JsonValue::Arr(self.variants.iter().map(VariantSpec::to_value).collect()),
        ));
        JsonValue::Obj(fields)
    }
}

// -------------------------------------------------------------- GroupSpec

/// Which robots a group runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RobotsSpec {
    /// All six robots, in the paper's order.
    All,
    /// An explicit ordered list.
    List(Vec<RobotKind>),
}

impl RobotsSpec {
    /// The resolved robot list.
    pub fn resolve(&self) -> Vec<RobotKind> {
        match self {
            RobotsSpec::All => RobotKind::all().to_vec(),
            RobotsSpec::List(list) => list.clone(),
        }
    }
}

/// Robot/variant nesting order within a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepOrder {
    /// Every variant for one robot before moving to the next robot.
    #[default]
    RobotsOuter,
    /// Every robot for one variant before moving to the next variant.
    AxesOuter,
}

/// One job group: robots × (prelude + axes product).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// Optional group name, for documentation and plan reports.
    pub name: Option<String>,
    /// Robots to run.
    pub robots: RobotsSpec,
    /// Nesting order.
    pub order: SweepOrder,
    /// Machine overrides (merged over the scenario-wide machine spec).
    pub machine: MachineSpec,
    /// Software overrides (merged over the scenario-wide software spec).
    pub software: SoftwareSpec,
    /// Explicitly-labeled variants that run before the axes product.
    pub prelude: Vec<VariantSpec>,
    /// Sweep axes; first axis outermost.
    pub axes: Vec<AxisSpec>,
    /// Label template for axes combinations: `{i}` is replaced by axis
    /// *i*'s variant label. Default: concatenation of the labels.
    pub label_format: Option<String>,
}

impl Default for GroupSpec {
    fn default() -> Self {
        GroupSpec {
            name: None,
            robots: RobotsSpec::All,
            order: SweepOrder::default(),
            machine: MachineSpec::default(),
            software: SoftwareSpec::default(),
            prelude: Vec::new(),
            axes: Vec::new(),
            label_format: None,
        }
    }
}

impl GroupSpec {
    const FIELDS: [&'static str; 8] = [
        "name",
        "robots",
        "order",
        "machine",
        "software",
        "prelude",
        "axes",
        "label_format",
    ];

    fn parse(v: &JsonValue, path: &str) -> Result<GroupSpec, ScenarioError> {
        let mut spec = GroupSpec::default();
        let mut saw_robots = false;
        for (key, value) in obj(v, path)? {
            let p = join(path, key);
            match key.as_str() {
                "name" => spec.name = Some(str_of(value, &p)?.to_string()),
                "robots" => {
                    saw_robots = true;
                    spec.robots = parse_robots(value, &p)?;
                }
                "order" => {
                    let orders = [
                        ("robots_outer", SweepOrder::RobotsOuter),
                        ("axes_outer", SweepOrder::AxesOuter),
                    ];
                    spec.order = keyword(value, &p, &orders)?;
                }
                "machine" => spec.machine = MachineSpec::parse(value, &p)?,
                "software" => spec.software = SoftwareSpec::parse(value, &p)?,
                "prelude" => {
                    for (i, item) in arr(value, &p)?.iter().enumerate() {
                        spec.prelude
                            .push(VariantSpec::parse(item, &format!("{p}[{i}]"))?);
                    }
                }
                "axes" => {
                    for (i, item) in arr(value, &p)?.iter().enumerate() {
                        spec.axes.push(AxisSpec::parse(item, &format!("{p}[{i}]"))?);
                    }
                }
                "label_format" => spec.label_format = Some(str_of(value, &p)?.to_string()),
                _ => return Err(unknown_field(path, key, &Self::FIELDS)),
            }
        }
        if !saw_robots {
            return Err(ScenarioError::new(
                join(path, "robots"),
                "required field is missing (a robot list or \"all\")",
            ));
        }
        Ok(spec)
    }

    fn to_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if let Some(n) = &self.name {
            fields.push(("name".into(), JsonValue::Str(n.clone())));
        }
        fields.push((
            "robots".into(),
            match &self.robots {
                RobotsSpec::All => JsonValue::Str("all".into()),
                RobotsSpec::List(list) => JsonValue::Arr(
                    list.iter()
                        .map(|k| JsonValue::Str(k.name().into()))
                        .collect(),
                ),
            },
        ));
        if self.order == SweepOrder::AxesOuter {
            fields.push(("order".into(), JsonValue::Str("axes_outer".into())));
        }
        if self.machine != MachineSpec::default() {
            fields.push(("machine".into(), self.machine.to_value()));
        }
        if self.software != SoftwareSpec::default() {
            fields.push(("software".into(), self.software.to_value()));
        }
        if !self.prelude.is_empty() {
            fields.push((
                "prelude".into(),
                JsonValue::Arr(self.prelude.iter().map(VariantSpec::to_value).collect()),
            ));
        }
        if !self.axes.is_empty() {
            fields.push((
                "axes".into(),
                JsonValue::Arr(self.axes.iter().map(AxisSpec::to_value).collect()),
            ));
        }
        if let Some(f) = &self.label_format {
            fields.push(("label_format".into(), JsonValue::Str(f.clone())));
        }
        JsonValue::Obj(fields)
    }
}

fn parse_robots(v: &JsonValue, path: &str) -> Result<RobotsSpec, ScenarioError> {
    match v {
        JsonValue::Str(s) if s == "all" => Ok(RobotsSpec::All),
        JsonValue::Str(s) => Err(ScenarioError::new(
            path,
            format!("expected \"all\" or a list of robot names, got {s:?}"),
        )),
        JsonValue::Arr(items) => {
            if items.is_empty() {
                return Err(ScenarioError::new(path, "a group needs at least one robot"));
            }
            let mut list = Vec::new();
            for (i, item) in items.iter().enumerate() {
                let p = format!("{path}[{i}]");
                let name = str_of(item, &p)?;
                let kind = RobotKind::from_name(name).ok_or_else(|| {
                    let names: Vec<&str> = RobotKind::all().iter().map(|k| k.name()).collect();
                    ScenarioError::new(
                        p,
                        format!("unknown robot {name:?} (expected one of {})", names.join(", ")),
                    )
                })?;
                list.push(kind);
            }
            Ok(RobotsSpec::List(list))
        }
        other => Err(ScenarioError::new(
            path,
            format!("expected \"all\" or a list of robot names, got {}", other.kind()),
        )),
    }
}

// ----------------------------------------------------------- ScenarioSpec

/// A complete scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (`[A-Za-z0-9_-]+`; used for output file names).
    pub name: String,
    /// Optional human-readable title.
    pub title: Option<String>,
    /// Run parameters.
    pub params: ParamsSpec,
    /// Scenario-wide machine base spec.
    pub machine: MachineSpec,
    /// Scenario-wide software base spec.
    pub software: SoftwareSpec,
    /// The job groups, in campaign order.
    pub groups: Vec<GroupSpec>,
}

impl ScenarioSpec {
    const FIELDS: [&'static str; 7] = [
        "schema_version",
        "name",
        "title",
        "params",
        "machine",
        "software",
        "groups",
    ];

    /// Parses and structurally validates a scenario document.
    ///
    /// # Errors
    ///
    /// Single-line [`ScenarioError`]s with the offending field path:
    /// JSON syntax errors, unknown fields, wrong types, unknown keyword
    /// spellings, missing required fields, and unsupported schema
    /// versions.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let v = parse(text).map_err(ScenarioError::document)?;
        Self::parse_value(&v)
    }

    fn parse_value(v: &JsonValue) -> Result<ScenarioSpec, ScenarioError> {
        let fields = match v {
            JsonValue::Obj(fields) => fields,
            other => {
                return Err(ScenarioError::document(format!(
                    "a scenario must be a JSON object, got {}",
                    other.kind()
                )))
            }
        };
        let mut version: Option<u64> = None;
        let mut name: Option<String> = None;
        let mut title: Option<String> = None;
        let mut params = ParamsSpec::default();
        let mut machine = MachineSpec::default();
        let mut software = SoftwareSpec::default();
        let mut groups: Vec<GroupSpec> = Vec::new();
        for (key, value) in fields {
            match key.as_str() {
                "schema_version" => version = Some(u64_of(value, "schema_version")?),
                "name" => name = Some(str_of(value, "name")?.to_string()),
                "title" => title = Some(str_of(value, "title")?.to_string()),
                "params" => params = ParamsSpec::parse(value, "params")?,
                "machine" => machine = MachineSpec::parse(value, "machine")?,
                "software" => software = SoftwareSpec::parse(value, "software")?,
                "groups" => {
                    for (i, item) in arr(value, "groups")?.iter().enumerate() {
                        groups.push(GroupSpec::parse(item, &format!("groups[{i}]"))?);
                    }
                }
                _ => return Err(unknown_field("", key, &Self::FIELDS)),
            }
        }
        match version {
            None => {
                return Err(ScenarioError::new(
                    "schema_version",
                    "required field is missing",
                ))
            }
            Some(v) if v != SCENARIO_SCHEMA_VERSION => {
                return Err(ScenarioError::new(
                    "schema_version",
                    format!(
                        "unsupported version {v} (this build reads version {SCENARIO_SCHEMA_VERSION})"
                    ),
                ))
            }
            Some(_) => {}
        }
        let name = name
            .ok_or_else(|| ScenarioError::new("name", "required field is missing"))?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(ScenarioError::new(
                "name",
                format!("must be non-empty and use only [A-Za-z0-9_-] (got {name:?})"),
            ));
        }
        if groups.is_empty() {
            return Err(ScenarioError::new(
                "groups",
                "a scenario needs at least one group",
            ));
        }
        Ok(ScenarioSpec {
            name,
            title,
            params,
            machine,
            software,
            groups,
        })
    }

    /// Renders the scenario as compact JSON. `parse(render(spec))` yields
    /// an equal spec.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, JsonValue)> = vec![
            (
                "schema_version".into(),
                JsonValue::Num(SCENARIO_SCHEMA_VERSION.to_string()),
            ),
            ("name".into(), JsonValue::Str(self.name.clone())),
        ];
        if let Some(t) = &self.title {
            fields.push(("title".into(), JsonValue::Str(t.clone())));
        }
        if self.params != ParamsSpec::default() {
            fields.push(("params".into(), self.params.to_value()));
        }
        if self.machine != MachineSpec::default() {
            fields.push(("machine".into(), self.machine.to_value()));
        }
        if self.software != SoftwareSpec::default() {
            fields.push(("software".into(), self.software.to_value()));
        }
        fields.push((
            "groups".into(),
            JsonValue::Arr(self.groups.iter().map(GroupSpec::to_value).collect()),
        ));
        JsonValue::Obj(fields).render()
    }

    /// Expands the sweeps into the ordered, validated job list.
    pub fn expand(&self) -> Result<Plan, ScenarioError> {
        let mut jobs: Vec<PlannedJob> = Vec::new();
        let mut groups: Vec<GroupPlan> = Vec::new();
        for (gi, group) in self.groups.iter().enumerate() {
            let gpath = format!("groups[{gi}]");
            let first = jobs.len();
            let robots = group.robots.resolve();
            let base_machine = self.machine.merged(&group.machine);
            let base_software = self.software.merged(&group.software);

            // Compose the group's variant list: prelude first, then the
            // cartesian axes product (first axis outermost).
            let mut variants: Vec<(String, MachineSpec, SoftwareSpec)> = group
                .prelude
                .iter()
                .map(|v| {
                    (
                        v.label.clone(),
                        base_machine.merged(&v.machine),
                        base_software.merged(&v.software),
                    )
                })
                .collect();
            if !group.axes.is_empty() {
                let mut combos: Vec<Vec<usize>> = vec![Vec::new()];
                for axis in &group.axes {
                    let mut next = Vec::with_capacity(combos.len() * axis.variants.len());
                    for combo in &combos {
                        for i in 0..axis.variants.len() {
                            let mut c = combo.clone();
                            c.push(i);
                            next.push(c);
                        }
                    }
                    combos = next;
                }
                for combo in combos {
                    let mut machine = base_machine.clone();
                    let mut software = base_software.clone();
                    let mut labels: Vec<&str> = Vec::with_capacity(combo.len());
                    for (axis, &vi) in group.axes.iter().zip(&combo) {
                        let variant = &axis.variants[vi];
                        machine = machine.merged(&variant.machine);
                        software = software.merged(&variant.software);
                        labels.push(&variant.label);
                    }
                    let label = match &group.label_format {
                        Some(fmt) => {
                            let mut label = fmt.clone();
                            for (i, axis_label) in labels.iter().enumerate() {
                                label = label.replace(&format!("{{{i}}}"), axis_label);
                            }
                            label
                        }
                        None => labels.concat(),
                    };
                    variants.push((label, machine, software));
                }
            }
            if variants.is_empty() {
                variants.push((String::new(), base_machine, base_software));
            }

            // Resolve each variant once, then lay the jobs out in order.
            let resolved: Vec<(String, MachineConfig, SoftwareConfig)> = variants
                .into_iter()
                .map(|(label, m, s)| {
                    let machine = m.resolve(&join(&gpath, "machine"))?;
                    let software = s.resolve(&join(&gpath, "software"))?;
                    Ok((label, machine, software))
                })
                .collect::<Result<_, ScenarioError>>()?;
            let mut push = |robot: RobotKind, (label, machine, software): &(String, MachineConfig, SoftwareConfig)| {
                jobs.push(PlannedJob {
                    robot,
                    config: ConfigId::of(machine, software),
                    machine: machine.clone(),
                    software: *software,
                    label: label.clone(),
                    group: gi,
                });
            };
            match group.order {
                SweepOrder::RobotsOuter => {
                    for &robot in &robots {
                        for variant in &resolved {
                            push(robot, variant);
                        }
                    }
                }
                SweepOrder::AxesOuter => {
                    for variant in &resolved {
                        for &robot in &robots {
                            push(robot, variant);
                        }
                    }
                }
            }
            groups.push(GroupPlan {
                name: group
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("group{gi}")),
                first,
                len: jobs.len() - first,
                variants_per_robot: resolved.len(),
                robots: robots.len(),
            });
        }
        Ok(Plan {
            name: self.name.clone(),
            title: self.title.clone(),
            jobs,
            groups,
        })
    }

    /// The scenario's stand-alone run parameters (defaults: `small` scale,
    /// 2 steps, seed 42 — the same quick defaults the test harnesses use).
    pub fn base_params(&self) -> ExperimentParams {
        ExperimentParams {
            scale: self.params.base_scale(),
            steps: self.params.steps.unwrap_or(2) as usize,
            seed: self.params.seed.unwrap_or(42),
        }
    }
}

/// Sizing knobs shared by all experiments: what a scenario resolves to
/// and what every run executes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentParams {
    /// Workload scale (preset + adjustments).
    pub scale: Scale,
    /// Pipeline periods per job.
    pub steps: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExperimentParams {
    /// Fast parameters for tests.
    pub fn quick() -> Self {
        ExperimentParams {
            scale: Scale::small(),
            steps: 2,
            seed: 42,
        }
    }

    /// The scale the figure harnesses use.
    pub fn paper() -> Self {
        ExperimentParams {
            scale: Scale::paper(),
            steps: 3,
            seed: 42,
        }
    }

    /// Parameters for coverage probes: the tiny [`Scale::probe`]
    /// workloads and a single pipeline period, so the scenario
    /// synthesizer can afford hundreds of runs. Not meaningful for
    /// figures — regimes, not magnitudes.
    pub fn probe() -> Self {
        ExperimentParams {
            scale: Scale::probe(),
            steps: 1,
            seed: 42,
        }
    }
}

/// One expanded, validated campaign job.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJob {
    /// The robot.
    pub robot: RobotKind,
    /// The validated machine configuration.
    pub machine: MachineConfig,
    /// The software configuration as specified (hardware-unavailable
    /// features are downgraded later by `SoftwareConfig::effective`, as
    /// always).
    pub software: SoftwareConfig,
    /// The bar label from the sweep expansion (may be empty).
    pub label: String,
    /// Canonical configuration identity.
    pub config: ConfigId,
    /// Index of the group this job came from.
    pub group: usize,
}

/// Where one group's jobs sit in the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlan {
    /// Group name (or `group<i>`).
    pub name: String,
    /// Index of the group's first job in [`Plan::jobs`].
    pub first: usize,
    /// Number of jobs.
    pub len: usize,
    /// Variants per robot (the group's chunk width under `robots_outer`).
    pub variants_per_robot: usize,
    /// Number of robots.
    pub robots: usize,
}

/// An expanded scenario: the ordered job list plus group geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Scenario name.
    pub name: String,
    /// Scenario title, if any.
    pub title: Option<String>,
    /// All jobs, in campaign order.
    pub jobs: Vec<PlannedJob>,
    /// Group layout, in order.
    pub groups: Vec<GroupPlan>,
}

impl Plan {
    /// The jobs of one group.
    pub fn group_jobs(&self, group: usize) -> &[PlannedJob] {
        let g = &self.groups[group];
        &self.jobs[g.first..g.first + g.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan_robots::NnsKind;
    use tartan_sim::PrefetcherKind;

    const NNS_DOC: &str = r#"{
        "schema_version": 1,
        "name": "nns-mini",
        "params": {"adjust": [{"field": "map_points", "mul": 4}]},
        "groups": [{
            "robots": ["MoveBot", "HomeBot"],
            "axes": [
                {"name": "engine", "variants": [
                    {"label": "B", "software": {"nns": "brute"}},
                    {"label": "V", "software": {"nns": "vln"}}
                ]},
                {"name": "anl", "variants": [
                    {"label": ""},
                    {"label": "+", "machine": {"prefetcher": "anl"}}
                ]}
            ]
        }]
    }"#;

    #[test]
    fn expansion_orders_robots_outer_first_axis_outermost() {
        let spec = ScenarioSpec::from_json(NNS_DOC).unwrap();
        let plan = spec.expand().unwrap();
        assert_eq!(plan.jobs.len(), 2 * 2 * 2);
        let labels: Vec<&str> = plan.jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels, ["B", "B+", "V", "V+", "B", "B+", "V", "V+"]);
        let robots: Vec<&str> = plan.jobs.iter().map(|j| j.robot.name()).collect();
        assert_eq!(robots[..4], ["MoveBot"; 4]);
        assert_eq!(robots[4..], ["HomeBot"; 4]);
        assert_eq!(plan.jobs[0].software.nns, NnsKind::Brute);
        assert_eq!(plan.jobs[0].machine.prefetcher, PrefetcherKind::None);
        assert_eq!(plan.jobs[1].machine.prefetcher, PrefetcherKind::Anl);
        assert_eq!(plan.jobs[2].software.nns, NnsKind::Vln);
        assert_eq!(plan.groups[0].variants_per_robot, 4);
        // The scenario-level adjust scales map_points.
        let params = spec.base_params();
        assert_eq!(params.scale.map_points, Scale::small().map_points * 4);
        assert_eq!((params.steps, params.seed), (2, 42));
    }

    #[test]
    fn axes_outer_groups_robots_per_variant() {
        let doc = r#"{
            "schema_version": 1, "name": "t",
            "groups": [{
                "robots": ["DeliBot", "FlyBot"],
                "order": "axes_outer",
                "axes": [{"variants": [
                    {"label": "a"}, {"label": "b", "machine": {"preset": "tartan"}}
                ]}]
            }]
        }"#;
        let plan = ScenarioSpec::from_json(doc).unwrap().expand().unwrap();
        let seq: Vec<(String, String)> = plan
            .jobs
            .iter()
            .map(|j| (j.robot.name().to_string(), j.label.clone()))
            .collect();
        assert_eq!(
            seq,
            [
                ("DeliBot".to_string(), "a".to_string()),
                ("FlyBot".into(), "a".into()),
                ("DeliBot".into(), "b".into()),
                ("FlyBot".into(), "b".into()),
            ]
        );
    }

    #[test]
    fn prelude_runs_before_axes_and_label_format_applies() {
        let doc = r#"{
            "schema_version": 1, "name": "fcp-mini",
            "groups": [{
                "robots": ["DeliBot"],
                "prelude": [{}],
                "label_format": "{1}-{2} {0}",
                "axes": [
                    {"variants": [{"label": "x+1", "machine": {"fcp": {"manipulation": "x+1"}}}]},
                    {"variants": [{"label": "512B", "machine": {"fcp": {"region_bytes": 512}}}]},
                    {"variants": [{"label": "2b", "machine": {"fcp": {"xor_bits": 2}}}]}
                ]
            }]
        }"#;
        let plan = ScenarioSpec::from_json(doc).unwrap().expand().unwrap();
        assert_eq!(plan.jobs.len(), 2);
        assert_eq!(plan.jobs[0].label, "");
        assert_eq!(plan.jobs[0].machine.fcp, None);
        assert_eq!(plan.jobs[1].label, "512B-2b x+1");
        let fcp = plan.jobs[1].machine.fcp.unwrap();
        assert_eq!(
            (fcp.region_bytes, fcp.xor_bits),
            (512, 2)
        );
    }

    #[test]
    fn a_group_without_sweeps_is_one_job_per_robot() {
        let doc = r#"{
            "schema_version": 1, "name": "plain",
            "machine": {"preset": "tartan"}, "software": {"preset": "approximable"},
            "groups": [{"robots": "all"}]
        }"#;
        let plan = ScenarioSpec::from_json(doc).unwrap().expand().unwrap();
        assert_eq!(plan.jobs.len(), 6);
        assert!(plan.jobs.iter().all(|j| j.config == ConfigId::Tartan));
        assert_eq!(plan.jobs[0].robot, RobotKind::DeliBot);
    }

    #[test]
    fn invalid_configs_fail_with_scenario_paths() {
        let doc = r#"{
            "schema_version": 1, "name": "bad",
            "groups": [{"robots": "all", "machine": {"l2": {"ways": 0}}}]
        }"#;
        let err = ScenarioSpec::from_json(doc).unwrap().expand().unwrap_err();
        assert_eq!(err.to_string(), "groups[0].machine.l2.ways: must be at least 1");
    }

    #[test]
    fn document_level_errors_are_single_line() {
        for (doc, path_fragment) in [
            ("{", "$"),
            (r#"{"schema_version": 1, "groups": []}"#, "name"),
            (r#"{"schema_version": 2, "name": "x", "groups": [{"robots": "all"}]}"#, "schema_version"),
            (r#"{"schema_version": 1, "name": "x", "groups": []}"#, "groups"),
            (r#"{"schema_version": 1, "name": "x"}"#, "groups"),
            (r#"{"schema_version": 1, "name": "x/y", "groups": [{"robots": "all"}]}"#, "name"),
            (r#"{"schema_version": 1, "name": "x", "groups": [{}]}"#, "groups[0].robots"),
            (r#"{"schema_version": 1, "name": "x", "groups": [{"robots": ["RoboCop"]}]}"#, "groups[0].robots[0]"),
            (r#"{"schema_version": 1, "name": "x", "groups": [{"robots": []}]}"#, "groups[0].robots"),
            (r#"{"schema_version": 1, "name": "x", "groups": [{"robots": "all", "axes": [{"variants": []}]}]}"#, "groups[0].axes[0].variants"),
            (r#"{"schema_version": 1, "name": "x", "bogus": 1, "groups": [{"robots": "all"}]}"#, "bogus"),
        ] {
            let err = ScenarioSpec::from_json(doc).expect_err(doc);
            let line = err.to_string();
            assert!(!line.contains('\n'), "multi-line error for {doc}: {line:?}");
            assert!(
                err.path.starts_with(path_fragment),
                "wrong path for {doc}: got {line}"
            );
        }
    }

    #[test]
    fn render_parse_round_trip_on_a_rich_scenario() {
        let spec = ScenarioSpec::from_json(NNS_DOC).unwrap();
        let reparsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(reparsed, spec);
        // And rendering is a fixed point.
        assert_eq!(reparsed.to_json(), spec.to_json());
    }
}
