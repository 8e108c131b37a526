//! Typed scenario specs: partial machine/software/params descriptions that
//! parse from JSON with field-path errors, render back deterministically,
//! merge field-wise (later wins), and resolve into validated simulator
//! configurations.
//!
//! Every spec type is *partial*: each field is optional and `None` means
//! "inherit". Resolution starts from a named preset (machine default:
//! `upgraded_baseline`; software default: `legacy`) and applies the
//! overrides on top, then runs the target type's own validation
//! ([`MachineConfig::validate`]), so a scenario can never build a machine
//! the simulator would reject at runtime.
//!
//! Two fields are *double-optional*: `machine.fcp` and
//! `machine.fault_plan`. Omitting them inherits; an explicit JSON `null`
//! disables the feature even if an earlier layer enabled it.
//!
//! Each spec type is declared once, as an ordered field list (the render
//! order) handed to the `partial!` macro, which derives the struct, its
//! parser, renderer and merge, and the resolve/diff pair that maps it onto
//! its simulator config. What differs per *value* (number, keyword, nested
//! partial, switchable partial) lives in the `Value` trait. [`Scale`] gets
//! the same treatment from one table: `adjust` and the cache key share it.

use crate::error::ScenarioError;
use crate::json::{
    arr, join, keyword, number, obj, str_of, type_err, u64_of, unknown_field, JsonValue,
};
use tartan_robots::{NeuralExec, NnsKind, Scale, SoftwareConfig, VecMethod};
use tartan_sim::{
    CacheConfig, FaultPlan, FcpConfig, FcpManipulation, MachineConfig, NpuMode, PrefetcherKind,
    VectorIsa,
};

/// Version of the scenario file format this build reads and writes.
pub const SCENARIO_SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------- value helpers

fn narrow<T: TryFrom<u64>>(v: &JsonValue, path: &str, width: &str) -> Result<T, ScenarioError> {
    let n = u64_of(v, path)?;
    T::try_from(n).map_err(|_| ScenarioError::new(path, format!("{n} does not fit in {width}")))
}

fn bool_of(v: &JsonValue, path: &str) -> Result<bool, ScenarioError> {
    match v {
        JsonValue::Bool(b) => Ok(*b),
        other => Err(type_err(path, "a boolean", other)),
    }
}

fn keyword_value<T: PartialEq>(value: T, table: &[(&'static str, T)]) -> JsonValue {
    let name = table
        .iter()
        .find(|(_, v)| *v == value)
        .map(|(name, _)| *name)
        .expect("every enum variant has a table entry");
    JsonValue::Str(name.into())
}

fn num(n: u64) -> JsonValue {
    JsonValue::Num(n.to_string())
}

// Keyword tables: the single source of spelling for every enum the schema
// exposes.
const VECTOR_ISAS: [(&str, VectorIsa); 2] =
    [("avx2", VectorIsa::Avx2), ("avx512", VectorIsa::Avx512)];
const PREFETCHERS: [(&str, PrefetcherKind); 4] = [
    ("none", PrefetcherKind::None),
    ("nextline", PrefetcherKind::NextLine),
    ("anl", PrefetcherKind::Anl),
    ("bingo", PrefetcherKind::Bingo),
];
const MANIPULATIONS: [(&str, FcpManipulation); 3] = [
    ("x+1", FcpManipulation::Increment),
    ("2x", FcpManipulation::Double),
    ("x^2", FcpManipulation::Square),
];
const VEC_METHODS: [(&str, VecMethod); 4] = [
    ("scalar", VecMethod::Scalar),
    ("gather", VecMethod::Gather),
    ("ovec", VecMethod::Ovec),
    ("racod", VecMethod::Racod),
];
const NNS_KINDS: [(&str, NnsKind); 4] = [
    ("brute", NnsKind::Brute),
    ("kdtree", NnsKind::KdTree),
    ("flann", NnsKind::Flann),
    ("vln", NnsKind::Vln),
];
const NEURAL_EXECS: [(&str, NeuralExec); 3] = [
    ("none", NeuralExec::None),
    ("npu", NeuralExec::Npu),
    ("software", NeuralExec::Software),
];

// ----------------------------------------------------------- field values

/// One spec field's value: how it reads and renders, how a later layer
/// merges over an earlier one, how it overrides the simulator-side value
/// `Cfg`, and how the override that produces a given `Cfg` is recovered.
trait Value: Clone {
    type Cfg: PartialEq;
    fn parse(v: &JsonValue, path: &str) -> Result<Self, ScenarioError>;
    fn render(&self) -> JsonValue;
    /// `over` layered on `base` when both set the field: leaves take
    /// `over`, partials merge field-wise.
    fn merge(_base: &Self, over: &Self) -> Self {
        over.clone()
    }
    fn apply(&self, cfg: &mut Self::Cfg);
    /// The override that turns `base` (absent: nothing to inherit) into
    /// `cfg`, which differs from it.
    fn diff(base: Option<&Self::Cfg>, cfg: &Self::Cfg) -> Self;
}

fn merge_field<T: Value>(base: &Option<T>, over: &Option<T>) -> Option<T> {
    match (base, over) {
        (Some(b), Some(o)) => Some(T::merge(b, o)),
        _ => over.clone().or_else(|| base.clone()),
    }
}

fn diff_field<T: Value>(base: Option<&T::Cfg>, cfg: &T::Cfg) -> Option<T> {
    (base != Some(cfg)).then(|| T::diff(base, cfg))
}

/// Leaf values: numbers, flags and keywords override wholesale.
macro_rules! leaf {
    ($($t:ty: $parse:expr, $render:expr;)*) => {$(
        impl Value for $t {
            type Cfg = $t;
            fn parse(v: &JsonValue, path: &str) -> Result<$t, ScenarioError> {
                $parse(v, path)
            }
            fn render(&self) -> JsonValue {
                $render(*self)
            }
            fn apply(&self, cfg: &mut $t) {
                *cfg = *self;
            }
            fn diff(_: Option<&$t>, cfg: &$t) -> $t {
                *cfg
            }
        }
    )*};
}

leaf! {
    u64: u64_of, num;
    u32: |v, p| narrow(v, p, "32 bits"), |n: u32| num(u64::from(n));
    usize: |v, p| narrow(v, p, "a usize"), |n: usize| num(n as u64);
    f64: |v, p| number(v, p, "a number"), |x: f64| JsonValue::Num(format!("{x}"));
    bool: bool_of, JsonValue::Bool;
    VectorIsa: |v, p| keyword(v, p, &VECTOR_ISAS), |x| keyword_value(x, &VECTOR_ISAS);
    PrefetcherKind: |v, p| keyword(v, p, &PREFETCHERS), |x| keyword_value(x, &PREFETCHERS);
    FcpManipulation: |v, p| keyword(v, p, &MANIPULATIONS), |x| keyword_value(x, &MANIPULATIONS);
    VecMethod: |v, p| keyword(v, p, &VEC_METHODS), |x| keyword_value(x, &VEC_METHODS);
    NnsKind: |v, p| keyword(v, p, &NNS_KINDS), |x| keyword_value(x, &NNS_KINDS);
    NeuralExec: |v, p| keyword(v, p, &NEURAL_EXECS), |x| keyword_value(x, &NEURAL_EXECS);
    NpuMode: parse_npu, npu_to_value;
}

/// A partial that a field can switch off: `fcp` and `fault_plan`.
trait Toggle: Value {
    /// What enabling starts from when no earlier layer enabled it.
    fn base() -> Self::Cfg;
}

/// A switchable partial: the field omitted inherits, `null` disables, and
/// an object enables with field-wise overrides over the inherited (or
/// [`Toggle::base`]) parameters.
impl<P: Toggle> Value for Option<P> {
    type Cfg = Option<P::Cfg>;
    fn parse(v: &JsonValue, path: &str) -> Result<Self, ScenarioError> {
        match v {
            JsonValue::Null => Ok(None),
            other => P::parse(other, path).map(Some),
        }
    }
    fn render(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, P::render)
    }
    fn merge(base: &Self, over: &Self) -> Self {
        match (base, over) {
            (Some(b), Some(o)) => Some(P::merge(b, o)),
            _ => over.clone(),
        }
    }
    fn apply(&self, cfg: &mut Option<P::Cfg>) {
        let inherited = cfg.take();
        *cfg = self.as_ref().map(|spec| {
            let mut c = inherited.unwrap_or_else(P::base);
            spec.apply(&mut c);
            c
        });
    }
    fn diff(_: Option<&Option<P::Cfg>>, cfg: &Option<P::Cfg>) -> Self {
        cfg.as_ref().map(|c| P::diff(None, c))
    }
}

/// Declares a spec type from its ordered field list: the struct of
/// `Option`s (plus an optional preset name), its known-field list, its
/// parser, renderer and merge, and its [`Value`] implementation, which
/// resolves onto and diffs against the config type `$cfg`. The list order
/// is the render order. `diff` destructures `$cfg` exhaustively, so a
/// config field missing from the list is a compile error.
macro_rules! partial {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $cfg:ident $([$(#[$pdoc:meta])* $preset:ident])? {
            $($(#[$doc:meta])* $f:ident: $t:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$pdoc])* pub $preset: Option<String>,)?
            $($(#[$doc])* pub $f: Option<$t>,)*
        }

        impl $name {
            const FIELDS: &'static [&'static str] =
                &[$(stringify!($preset),)? $(stringify!($f)),*];

            /// Parses the spec from a JSON object; errors carry the field
            /// path under `path`.
            pub fn parse(v: &JsonValue, path: &str) -> Result<$name, ScenarioError> {
                let mut spec = $name::default();
                for (key, value) in obj(v, path)? {
                    let p = join(path, key);
                    match key.as_str() {
                        $(stringify!($preset) => {
                            spec.$preset = Some(str_of(value, &p)?.to_string());
                        })?
                        $(stringify!($f) => spec.$f = Some(<$t as Value>::parse(value, &p)?),)*
                        _ => return Err(unknown_field(path, key, Self::FIELDS)),
                    }
                }
                Ok(spec)
            }

            /// Renders the spec (omitted fields stay omitted; explicit
            /// disables render as `null`).
            pub fn to_value(&self) -> JsonValue {
                let mut fields: Vec<(String, JsonValue)> = Vec::new();
                $(if let Some(name) = &self.$preset {
                    fields.push((stringify!($preset).into(), JsonValue::Str(name.clone())));
                })?
                $(if let Some(x) = &self.$f {
                    fields.push((stringify!($f).into(), x.render()));
                })*
                JsonValue::Obj(fields)
            }

            /// Field-wise merge; `over`'s fields win. Nested partials
            /// (`l1`–`l3`, `fcp`, `fault_plan`) merge field-wise too,
            /// except that `over`'s explicit `null` on `fcp`/`fault_plan`
            /// discards the base entirely.
            pub fn merged(&self, over: &$name) -> $name {
                $name {
                    $($preset: over.$preset.clone().or_else(|| self.$preset.clone()),)?
                    $($f: merge_field(&self.$f, &over.$f),)*
                }
            }
        }

        impl Value for $name {
            type Cfg = $cfg;
            fn parse(v: &JsonValue, path: &str) -> Result<$name, ScenarioError> {
                $name::parse(v, path)
            }
            fn render(&self) -> JsonValue {
                self.to_value()
            }
            fn merge(base: &$name, over: &$name) -> $name {
                base.merged(over)
            }
            fn apply(&self, cfg: &mut $cfg) {
                $(if let Some(x) = &self.$f {
                    x.apply(&mut cfg.$f);
                })*
            }
            fn diff(base: Option<&$cfg>, cfg: &$cfg) -> $name {
                let $cfg { $($f),* } = cfg; // Every config field must be listed.
                $name {
                    $($preset: None,)?
                    $($f: diff_field(base.map(|b| &b.$f), $f),)*
                }
            }
        }
    };
}

partial! {
    /// Partial override of one cache level.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct CacheSpec: CacheConfig {
        /// Total capacity in bytes.
        size_bytes: u64,
        /// Associativity.
        ways: u32,
        /// Access latency in cycles.
        latency: u64,
    }
}

partial! {
    /// Partial override of the FCP parameters (base:
    /// [`FcpConfig::paper_default`] or whatever the preset already enables).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct FcpSpec: FcpConfig {
        /// Region size in bytes.
        region_bytes: u64,
        /// XOR width.
        xor_bits: u32,
        /// Recency manipulation: `"x+1"`, `"2x"`, or `"x^2"`.
        manipulation: FcpManipulation,
    }
}

impl Toggle for FcpSpec {
    fn base() -> FcpConfig {
        FcpConfig::paper_default()
    }
}

partial! {
    /// Partial override of the fault-injection plan (base: a quiet plan).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct FaultSpec: FaultPlan {
        /// Fault RNG seed.
        seed: u64,
        /// Per-invocation relative-error probability.
        accel_error_rate: f64,
        /// Maximum relative-error magnitude.
        accel_error_magnitude: f64,
        /// Per-invocation bit-flip probability.
        accel_bitflip_rate: f64,
        /// Per-invocation outright-failure probability.
        accel_fail_rate: f64,
        /// Per-access memory latency-spike probability.
        mem_spike_rate: f64,
        /// Extra cycles per latency spike.
        mem_spike_cycles: u64,
    }
}

impl Toggle for FaultSpec {
    fn base() -> FaultPlan {
        FaultPlan::quiet(0)
    }
}

partial! {
    /// Partial machine description: a preset name plus any number of field
    /// overrides.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct MachineSpec: MachineConfig [
        /// Starting preset: `legacy_baseline`, `upgraded_baseline` (default),
        /// or `tartan`. When specs are merged, the *last* preset mentioned
        /// wins and all merged field overrides apply on top of it.
        preset
    ] {
        /// Core count.
        cores: usize,
        /// Cache line size in bytes.
        line_bytes: u64,
        /// DRAM latency in cycles.
        dram_latency: u64,
        /// DRAM bandwidth in bytes per core cycle.
        dram_bytes_per_cycle: u64,
        /// Issue width.
        issue_width: u64,
        /// Memory-level parallelism.
        mlp: u64,
        /// L1 ports.
        l1_ports: u64,
        /// OVEC address-generation latency in cycles.
        ovec_addr_gen_latency: u64,
        /// ANL region size in bytes.
        anl_region_bytes: u64,
        /// NPU MAC latency.
        npu_mac_latency: u64,
        /// Integrated-NPU communication latency.
        npu_comm_latency: u64,
        /// Co-processor communication latency.
        npu_coproc_comm_latency: u64,
        /// L1-D overrides.
        l1: CacheSpec,
        /// Private-L2 overrides.
        l2: CacheSpec,
        /// Shared-L3 overrides.
        l3: CacheSpec,
        /// `"avx2"` or `"avx512"`.
        vector_isa: VectorIsa,
        /// OVEC extension present.
        ovec: bool,
        /// `"none"`, `"nextline"`, `"anl"`, or `"bingo"`.
        prefetcher: PrefetcherKind,
        /// FCP: omitted = inherit, JSON `null` = disable, object = enable with
        /// overrides over the inherited/paper parameters.
        fcp: Option<FcpSpec>,
        /// NPU attachment: `{"mode": "none"}`, `{"mode": "integrated",
        /// "pes": N}`, or `{"mode": "coprocessor"}`.
        npu: NpuMode,
        /// Write-through producer/consumer regions.
        write_through_regions: bool,
        /// Intel ray-casting accelerator model.
        intel_lvs: bool,
        /// Fault plan: omitted = inherit, JSON `null` = disable, object =
        /// enable with overrides over a quiet plan.
        fault_plan: Option<FaultSpec>,
    }
}

partial! {
    /// Partial software description: a preset name plus field overrides.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct SoftwareSpec: SoftwareConfig [
        /// Starting preset: `legacy` (default), `optimized`, or `approximable`.
        preset
    ] {
        /// `"scalar"`, `"gather"`, `"ovec"`, or `"racod"`.
        vec_method: VecMethod,
        /// `"brute"`, `"kdtree"`, `"flann"`, or `"vln"`.
        nns: NnsKind,
        /// `"none"`, `"npu"`, or `"software"`.
        neural: NeuralExec,
        /// Bilinear ray-casting refinement.
        interpolate_raycast: bool,
    }
}

/// Where a resolution starts: the named preset, or `default()` when the
/// spec names none.
fn preset<C>(
    name: &Option<String>,
    path: &str,
    default: fn() -> C,
    lookup: fn(&str) -> Option<C>,
    names: &[&str],
) -> Result<C, ScenarioError> {
    let Some(name) = name else {
        return Ok(default());
    };
    lookup(name).ok_or_else(|| {
        ScenarioError::new(
            join(path, "preset"),
            format!(
                "unknown preset {name:?} (expected one of {})",
                names.join(", ")
            ),
        )
    })
}

impl MachineSpec {
    /// Resolves into a validated [`MachineConfig`]: preset first, then
    /// overrides, then [`MachineConfig::validate`]. `path` prefixes error
    /// paths (e.g. `groups[0].machine`).
    pub fn resolve(&self, path: &str) -> Result<MachineConfig, ScenarioError> {
        let mut cfg = preset(
            &self.preset,
            path,
            MachineConfig::upgraded_baseline,
            MachineConfig::from_preset,
            &MachineConfig::PRESETS,
        )?;
        self.apply(&mut cfg);
        cfg.validate()
            .map_err(|e| ScenarioError::new(join(path, &e.path), e.reason))?;
        Ok(cfg)
    }

    /// Builds the spec that names an exact [`MachineConfig`]: the preset
    /// name when the config is a preset, otherwise `upgraded_baseline`
    /// plus every differing field spelled out.
    pub fn from_config(cfg: &MachineConfig) -> MachineSpec {
        match cfg.preset_name() {
            Some(name) => MachineSpec {
                preset: Some(name.to_string()),
                ..MachineSpec::default()
            },
            None => MachineSpec::diff(Some(&MachineConfig::upgraded_baseline()), cfg),
        }
    }
}

fn parse_npu(v: &JsonValue, path: &str) -> Result<NpuMode, ScenarioError> {
    let mut mode: Option<&str> = None;
    let mut pes: Option<u32> = None;
    for (key, value) in obj(v, path)? {
        let p = join(path, key);
        match key.as_str() {
            "mode" => mode = Some(str_of(value, &p)?),
            "pes" => pes = Some(narrow(value, &p, "32 bits")?),
            _ => return Err(unknown_field(path, key, &["mode", "pes"])),
        }
    }
    let mode =
        mode.ok_or_else(|| ScenarioError::new(join(path, "mode"), "required field is missing"))?;
    match (mode, pes) {
        ("none", None) => Ok(NpuMode::None),
        ("coprocessor", None) => Ok(NpuMode::Coprocessor),
        ("integrated", Some(pes)) => Ok(NpuMode::Integrated { pes }),
        ("integrated", None) => Err(ScenarioError::new(
            join(path, "pes"),
            "required for the integrated mode",
        )),
        ("none" | "coprocessor", Some(_)) => Err(ScenarioError::new(
            join(path, "pes"),
            format!("only valid for the integrated mode (mode is {mode:?})"),
        )),
        _ => Err(ScenarioError::new(
            join(path, "mode"),
            format!("unknown value {mode:?} (expected one of none, integrated, coprocessor)"),
        )),
    }
}

fn npu_to_value(npu: NpuMode) -> JsonValue {
    let mode = match npu {
        NpuMode::None => "none",
        NpuMode::Integrated { .. } => "integrated",
        NpuMode::Coprocessor => "coprocessor",
    };
    let mut fields = vec![("mode".to_string(), JsonValue::Str(mode.into()))];
    if let NpuMode::Integrated { pes } = npu {
        fields.push(("pes".into(), num(u64::from(pes))));
    }
    JsonValue::Obj(fields)
}

impl SoftwareSpec {
    /// Resolves into a [`SoftwareConfig`]: preset first (default
    /// `legacy`), then overrides.
    pub fn resolve(&self, path: &str) -> Result<SoftwareConfig, ScenarioError> {
        let mut sw = preset(
            &self.preset,
            path,
            SoftwareConfig::legacy,
            SoftwareConfig::from_preset,
            &SoftwareConfig::PRESETS,
        )?;
        self.apply(&mut sw);
        Ok(sw)
    }

    /// Builds the spec that names an exact [`SoftwareConfig`].
    pub fn from_config(sw: &SoftwareConfig) -> SoftwareSpec {
        match sw.preset_name() {
            Some(name) => SoftwareSpec {
                preset: Some(name.to_string()),
                ..SoftwareSpec::default()
            },
            None => SoftwareSpec::diff(Some(&SoftwareConfig::legacy()), sw),
        }
    }
}

// ------------------------------------------------------------------ Scale

/// One [`Scale`] field's shape: how it renders into the cache key, and
/// the slot an `adjust` entry writes (tuple-valued fields are key-only).
trait ScaleField {
    const ADJUSTABLE: bool = false;
    fn key(&self) -> JsonValue;
    fn slot(&mut self) -> Option<&mut usize> {
        None
    }
}

impl ScaleField for usize {
    const ADJUSTABLE: bool = true;
    fn key(&self) -> JsonValue {
        num(*self as u64)
    }
    fn slot(&mut self) -> Option<&mut usize> {
        Some(self)
    }
}

impl ScaleField for (usize, usize) {
    fn key(&self) -> JsonValue {
        JsonValue::Arr(vec![self.0.key(), self.1.key()])
    }
}

impl ScaleField for (usize, usize, usize) {
    fn key(&self) -> JsonValue {
        JsonValue::Arr(vec![self.0.key(), self.1.key(), self.2.key()])
    }
}

/// Declares the [`Scale`] table: every field in declaration order, which
/// is the cache-key order. The destructure in `scale_value` is exhaustive,
/// so a `Scale` field missing here fails to compile.
macro_rules! scale_table {
    ($($f:ident: $t:ty,)*) => {
        const SCALE_TABLE: &[(&str, bool)] =
            &[$((stringify!($f), <$t as ScaleField>::ADJUSTABLE)),*];

        fn scale_slot<'a>(scale: &'a mut Scale, name: &str) -> Option<&'a mut usize> {
            match name {
                $(stringify!($f) => <$t as ScaleField>::slot(&mut scale.$f),)*
                _ => None,
            }
        }

        /// Every [`Scale`] field, rendered for the cache key.
        pub(crate) fn scale_value(scale: &Scale) -> JsonValue {
            let Scale { $($f),* } = scale;
            JsonValue::Obj(vec![$((stringify!($f).into(), <$t as ScaleField>::key($f))),*])
        }
    };
}

scale_table! {
    grid2: usize,
    grid3: (usize, usize, usize),
    particles: usize,
    rays: usize,
    rrt_nodes: usize,
    map_points: usize,
    source_points: usize,
    image_side: usize,
    pca_k: usize,
    patrol_hidden: (usize, usize),
    train_epochs: usize,
    heuristic_samples: usize,
    theta_bins: usize,
    depth_side: usize,
    cnn_input: usize,
    delibot_grid: usize,
}

/// The adjustable [`Scale`] fields (tuple-valued fields are not exposed).
pub const SCALE_FIELDS: [&str; 14] = {
    let (mut out, mut n, mut i) = ([""; 14], 0, 0);
    while i < SCALE_TABLE.len() {
        if SCALE_TABLE[i].1 {
            out[n] = SCALE_TABLE[i].0;
            n += 1;
        }
        i += 1;
    }
    assert!(
        n == out.len(),
        "one SCALE_FIELDS entry per usize field of Scale"
    );
    out
};

// ------------------------------------------------------------- ParamsSpec

/// One workload-scale adjustment: set or multiply a named [`Scale`] field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleAdjust {
    /// Scale field name (e.g. `map_points`).
    pub field: String,
    /// The operation.
    pub op: AdjustOp,
}

/// How a [`ScaleAdjust`] changes the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjustOp {
    /// Replace the value.
    Set(u64),
    /// Multiply the value.
    Mul(u64),
}

impl ScaleAdjust {
    fn parse(v: &JsonValue, path: &str) -> Result<ScaleAdjust, ScenarioError> {
        let mut field: Option<String> = None;
        let mut op: Option<AdjustOp> = None;
        for (key, value) in obj(v, path)? {
            let p = join(path, key);
            match key.as_str() {
                "field" => field = Some(str_of(value, &p)?.to_string()),
                "set" | "mul" => {
                    if op.is_some() {
                        return Err(ScenarioError::new(
                            p,
                            "exactly one of `set` and `mul` is allowed",
                        ));
                    }
                    let n = u64_of(value, &p)?;
                    if n == 0 {
                        // Every scale field sizes a workload: a zero grid,
                        // particle count or epoch count runs nothing, and
                        // some robots index out of bounds on it.
                        return Err(ScenarioError::new(p, format!("{key} must be at least 1")));
                    }
                    op = Some(if key == "set" {
                        AdjustOp::Set(n)
                    } else {
                        AdjustOp::Mul(n)
                    });
                }
                _ => return Err(unknown_field(path, key, &["field", "set", "mul"])),
            }
        }
        let field = field
            .ok_or_else(|| ScenarioError::new(join(path, "field"), "required field is missing"))?;
        if !SCALE_FIELDS.contains(&field.as_str()) {
            return Err(ScenarioError::new(
                join(path, "field"),
                format!(
                    "unknown scale field {field:?} (known fields: {})",
                    SCALE_FIELDS.join(", ")
                ),
            ));
        }
        let op =
            op.ok_or_else(|| ScenarioError::new(path, "one of `set` and `mul` is required"))?;
        Ok(ScaleAdjust { field, op })
    }

    fn to_value(&self) -> JsonValue {
        let (key, n) = self.key_and_operand();
        JsonValue::Obj(vec![
            ("field".to_string(), JsonValue::Str(self.field.clone())),
            (key.into(), num(n)),
        ])
    }

    fn key_and_operand(&self) -> (&'static str, u64) {
        match self.op {
            AdjustOp::Set(n) => ("set", n),
            AdjustOp::Mul(n) => ("mul", n),
        }
    }

    /// The field's value after the adjustment, or `None` on overflow.
    fn applied(&self, value: usize) -> Option<usize> {
        match self.op {
            AdjustOp::Set(n) => usize::try_from(n).ok(),
            AdjustOp::Mul(n) => usize::try_from(n).ok()?.checked_mul(value),
        }
    }

    /// Applies the adjustment to a scale.
    pub fn apply(&self, scale: &mut Scale) {
        let slot = scale_slot(scale, &self.field).expect("field validity is checked at parse time");
        *slot = self
            .applied(*slot)
            .expect("overflow on every scale preset is rejected at parse time");
    }
}

/// Rejects an adjustment list that overflows a field of any scale it may
/// be applied to: the `small` and `paper` presets and the coverage-probe
/// scale. `path` is the list's path.
fn check_adjusts(adjust: &[ScaleAdjust], path: &str) -> Result<(), ScenarioError> {
    let scales = [
        ("small", Scale::small()),
        ("paper", Scale::paper()),
        ("probe", Scale::probe()),
    ];
    for (name, mut scale) in scales {
        for (i, adj) in adjust.iter().enumerate() {
            let slot = scale_slot(&mut scale, &adj.field)
                .expect("field validity is checked at parse time");
            let (key, n) = adj.key_and_operand();
            let value = *slot;
            *slot = adj.applied(value).ok_or_else(|| {
                ScenarioError::new(
                    format!("{path}[{i}].{key}"),
                    format!(
                        "{key} {n} overflows {} ({value} at this point on the {name} scale)",
                        adj.field
                    ),
                )
            })?;
        }
    }
    Ok(())
}

/// Run parameters: workload scale, pipeline steps, and seed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParamsSpec {
    /// Scale preset: `small` (default) or `paper`.
    pub scale: Option<String>,
    /// Pipeline periods per job.
    pub steps: Option<u64>,
    /// Environment seed.
    pub seed: Option<u64>,
    /// Scale adjustments, applied in order after the preset (and equally
    /// on top of a caller-supplied scale — see
    /// [`ParamsSpec::apply_adjusts`]).
    pub adjust: Vec<ScaleAdjust>,
}

impl ParamsSpec {
    const FIELDS: [&'static str; 4] = ["scale", "steps", "seed", "adjust"];

    /// Parses run parameters from a JSON object.
    pub fn parse(v: &JsonValue, path: &str) -> Result<ParamsSpec, ScenarioError> {
        let mut spec = ParamsSpec::default();
        for (key, value) in obj(v, path)? {
            let p = join(path, key);
            match key.as_str() {
                "scale" => {
                    let name = str_of(value, &p)?;
                    if Scale::from_preset(name).is_none() {
                        return Err(ScenarioError::new(
                            p,
                            format!(
                                "unknown scale preset {name:?} (expected one of {})",
                                Scale::PRESETS.join(", ")
                            ),
                        ));
                    }
                    spec.scale = Some(name.to_string());
                }
                "steps" => spec.steps = Some(u64_of(value, &p)?),
                "seed" => spec.seed = Some(u64_of(value, &p)?),
                "adjust" => {
                    for (i, item) in arr(value, &p)?.iter().enumerate() {
                        spec.adjust
                            .push(ScaleAdjust::parse(item, &format!("{p}[{i}]"))?);
                    }
                    check_adjusts(&spec.adjust, &p)?;
                }
                _ => return Err(unknown_field(path, key, &Self::FIELDS)),
            }
        }
        Ok(spec)
    }

    /// Renders the parameters.
    pub fn to_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if let Some(s) = &self.scale {
            fields.push(("scale".into(), JsonValue::Str(s.clone())));
        }
        if let Some(n) = self.steps {
            fields.push(("steps".into(), num(n)));
        }
        if let Some(n) = self.seed {
            fields.push(("seed".into(), num(n)));
        }
        if !self.adjust.is_empty() {
            fields.push((
                "adjust".into(),
                JsonValue::Arr(self.adjust.iter().map(ScaleAdjust::to_value).collect()),
            ));
        }
        JsonValue::Obj(fields)
    }

    /// Applies only the adjustment list to an existing scale — this is how
    /// figure harnesses honor a caller's quick/paper scale while still
    /// taking the study-specific sizing (e.g. Fig. 10's `map_points` × 20)
    /// from the manifest.
    pub fn apply_adjusts(&self, scale: &mut Scale) {
        for adj in &self.adjust {
            adj.apply(scale);
        }
    }

    /// Builds the full stand-alone scale: preset (default `small`) plus
    /// adjustments.
    pub fn base_scale(&self) -> Scale {
        let mut scale = self
            .scale
            .as_deref()
            .and_then(Scale::from_preset)
            .unwrap_or_else(Scale::small);
        self.apply_adjusts(&mut scale);
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn mspec(doc: &str) -> Result<MachineSpec, ScenarioError> {
        MachineSpec::parse(&parse(doc).unwrap(), "machine")
    }

    #[test]
    fn machine_spec_resolves_presets_with_overrides() {
        let spec = mspec(r#"{"preset": "tartan", "anl_region_bytes": 2048, "npu": {"mode": "integrated", "pes": 8}}"#)
            .unwrap();
        let cfg = spec.resolve("machine").unwrap();
        let mut want = MachineConfig::tartan();
        want.anl_region_bytes = 2048;
        want.npu = NpuMode::Integrated { pes: 8 };
        assert_eq!(cfg, want);
    }

    #[test]
    fn empty_machine_spec_is_the_upgraded_baseline() {
        let cfg = mspec("{}").unwrap().resolve("machine").unwrap();
        assert_eq!(cfg, MachineConfig::upgraded_baseline());
    }

    #[test]
    fn explicit_null_disables_fcp() {
        let spec = mspec(r#"{"preset": "tartan", "fcp": null}"#).unwrap();
        let cfg = spec.resolve("machine").unwrap();
        assert_eq!(cfg.fcp, None);
        // And omitting it inherits the preset's FCP.
        let spec = mspec(r#"{"preset": "tartan"}"#).unwrap();
        assert!(spec.resolve("machine").unwrap().fcp.is_some());
        // A partial FCP object merges over the paper default.
        let spec = mspec(r#"{"preset": "tartan", "fcp": {"xor_bits": 3}}"#).unwrap();
        let fcp = spec.resolve("machine").unwrap().fcp.unwrap();
        assert_eq!(fcp.xor_bits, 3);
        assert_eq!(fcp.region_bytes, FcpConfig::paper_default().region_bytes);
    }

    #[test]
    fn unknown_fields_are_rejected_with_paths() {
        let err = mspec(r#"{"linebytes": 32}"#).unwrap_err();
        assert_eq!(err.path, "machine.linebytes");
        assert!(err.reason.contains("unknown field"), "{err}");
        assert!(err.reason.contains("line_bytes"), "lists known fields: {err}");

        let err = mspec(r#"{"l2": {"sets": 4}}"#).unwrap_err();
        assert_eq!(err.path, "machine.l2.sets");

        let err = mspec(r#"{"prefetcher": "stride"}"#).unwrap_err();
        assert_eq!(err.path, "machine.prefetcher");
        assert!(err.reason.contains("anl"), "{err}");
    }

    #[test]
    fn validation_errors_carry_the_scenario_path() {
        let spec = mspec(r#"{"l2": {"ways": 0}}"#).unwrap();
        let err = spec.resolve("groups[3].machine").unwrap_err();
        assert_eq!(err.path, "groups[3].machine.l2.ways");
        assert_eq!(err.to_string(), "groups[3].machine.l2.ways: must be at least 1");
    }

    #[test]
    fn merge_is_field_wise_and_later_wins() {
        let base = mspec(r#"{"preset": "tartan", "mlp": 8, "l2": {"ways": 4}}"#).unwrap();
        let over = mspec(r#"{"mlp": 2, "l2": {"latency": 20}}"#).unwrap();
        let merged = base.merged(&over);
        assert_eq!(merged.preset.as_deref(), Some("tartan"));
        assert_eq!(merged.mlp, Some(2));
        let l2 = merged.l2.unwrap();
        assert_eq!((l2.ways, l2.latency), (Some(4), Some(20)));
        // An explicit null on the override side wins over a base enable.
        let base = mspec(r#"{"fcp": {"xor_bits": 3}}"#).unwrap();
        let over = mspec(r#"{"fcp": null}"#).unwrap();
        assert_eq!(base.merged(&over).fcp, Some(None));
    }

    #[test]
    fn npu_spellings_are_strict() {
        assert_eq!(
            mspec(r#"{"npu": {"mode": "none"}}"#).unwrap().npu,
            Some(NpuMode::None)
        );
        assert_eq!(
            mspec(r#"{"npu": {"mode": "coprocessor"}}"#).unwrap().npu,
            Some(NpuMode::Coprocessor)
        );
        let err = mspec(r#"{"npu": {"mode": "integrated"}}"#).unwrap_err();
        assert_eq!(err.path, "machine.npu.pes");
        let err = mspec(r#"{"npu": {"mode": "none", "pes": 4}}"#).unwrap_err();
        assert_eq!(err.path, "machine.npu.pes");
        let err = mspec(r#"{"npu": {"mode": "quantum"}}"#).unwrap_err();
        assert_eq!(err.path, "machine.npu.mode");
    }

    #[test]
    fn from_config_round_trips_presets_and_customs() {
        for name in MachineConfig::PRESETS {
            let cfg = MachineConfig::from_preset(name).unwrap();
            let spec = MachineSpec::from_config(&cfg);
            assert_eq!(spec.preset.as_deref(), Some(name));
            assert_eq!(spec.resolve("machine").unwrap(), cfg);
        }
        let mut custom = MachineConfig::tartan();
        custom.anl_region_bytes = 4096;
        custom.fault_plan = Some(FaultPlan::quiet(7).with_mem_spikes(0.5, 100));
        let spec = MachineSpec::from_config(&custom);
        assert_eq!(spec.resolve("machine").unwrap(), custom);
        // And the spec survives its own JSON rendering.
        let reparsed = MachineSpec::parse(&parse(&spec.to_value().render()).unwrap(), "machine")
            .unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn software_spec_resolves_and_round_trips() {
        let v = parse(r#"{"preset": "optimized", "nns": "kdtree"}"#).unwrap();
        let spec = SoftwareSpec::parse(&v, "software").unwrap();
        let sw = spec.resolve("software").unwrap();
        assert_eq!(sw.vec_method, VecMethod::Ovec);
        assert_eq!(sw.nns, NnsKind::KdTree);
        for name in SoftwareConfig::PRESETS {
            let sw = SoftwareConfig::from_preset(name).unwrap();
            assert_eq!(SoftwareSpec::from_config(&sw).resolve("s").unwrap(), sw);
        }
        let mut custom = SoftwareConfig::legacy();
        custom.interpolate_raycast = true;
        custom.nns = NnsKind::Flann;
        let spec = SoftwareSpec::from_config(&custom);
        assert_eq!(spec.resolve("s").unwrap(), custom);
        let err = SoftwareSpec::parse(&parse(r#"{"nns": "octree"}"#).unwrap(), "software")
            .unwrap_err();
        assert_eq!(err.path, "software.nns");
    }

    #[test]
    fn params_adjusts_apply_in_order() {
        let v = parse(
            r#"{"scale": "small", "steps": 3, "adjust": [
                {"field": "map_points", "mul": 20},
                {"field": "rays", "set": 4}
            ]}"#,
        )
        .unwrap();
        let spec = ParamsSpec::parse(&v, "params").unwrap();
        let scale = spec.base_scale();
        assert_eq!(scale.map_points, Scale::small().map_points * 20);
        assert_eq!(scale.rays, 4);
        // apply_adjusts honors a caller-supplied scale.
        let mut paper = Scale::paper();
        spec.apply_adjusts(&mut paper);
        assert_eq!(paper.map_points, Scale::paper().map_points * 20);

        let err = ParamsSpec::parse(
            &parse(r#"{"adjust": [{"field": "warp", "set": 1}]}"#).unwrap(),
            "params",
        )
        .unwrap_err();
        assert_eq!(err.path, "params.adjust[0].field");
        let err = ParamsSpec::parse(&parse(r#"{"scale": "huge"}"#).unwrap(), "params")
            .unwrap_err();
        assert_eq!(err.path, "params.scale");
        let err = ParamsSpec::parse(
            &parse(r#"{"adjust": [{"field": "rays", "set": 1, "mul": 2}]}"#).unwrap(),
            "params",
        )
        .unwrap_err();
        assert!(err.reason.contains("exactly one"), "{err}");
    }

    #[test]
    fn zero_adjust_operands_are_rejected() {
        for (adjust, path) in [
            (r#"{"field": "particles", "set": 0}"#, "params.adjust[0].set"),
            (r#"{"field": "delibot_grid", "mul": 0}"#, "params.adjust[0].mul"),
        ] {
            let text = format!(r#"{{"adjust": [{adjust}]}}"#);
            let err = ParamsSpec::parse(&parse(&text).unwrap(), "params").unwrap_err();
            assert_eq!(err.path, path, "{err}");
            assert!(err.reason.contains("must be at least 1"), "{err}");
        }
        // One is the smallest operand either way.
        let text = r#"{"adjust": [{"field": "rays", "set": 1}, {"field": "rays", "mul": 1}]}"#;
        let spec = ParamsSpec::parse(&parse(text).unwrap(), "params").unwrap();
        assert_eq!(spec.adjust.len(), 2);
    }
}
