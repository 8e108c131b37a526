//! Coverage-guided scenario synthesis: curate a grammar-enumerated
//! stream into a small corpus of behaviorally distinct scenarios, and
//! shrink every keeper to a minimal spec with the same coverage.
//!
//! The pipeline (driven by the `tartan_gen` binary):
//!
//! 1. **Enumerate** — [`crate::grammar::Pattern::select`] produces a
//!    seeded, duplicate-free stream of structurally valid specs.
//! 2. **Probe** — each spec is run at the tiny probe scale and reduced
//!    to a [`CoverageVector`]: one sorted entry per `(robot, regime)`
//!    pair, where the regime is
//!    [`tartan_telemetry::CoverageFingerprint`]'s bucketed summary of
//!    the run. Probing is the caller's job (it parallelizes it);
//!    everything in this module is pure and sequential.
//! 3. **Curate** — [`curate`] keeps a spec only when its vector
//!    contains an entry no earlier keeper produced (greedy set-cover
//!    order, AFL-style "new coverage or it didn't happen").
//! 4. **Shrink** — [`shrink_spec`] minimizes each keeper with the
//!    shared ddmin loop ([`tartan_telemetry::greedy_min_subset`]):
//!    fewer groups/axes/variants/robots/adjusts, then smaller scale
//!    multipliers and fewer steps — accepting a candidate only when it
//!    still parses from its own rendered JSON, still expands, and
//!    probes to the *identical* coverage vector.
//!
//! The result set plus generation statistics serialize as the
//! `corpus_manifest.json` schema ([`CORPUS_MANIFEST_VERSION`]).

use std::collections::BTreeSet;

use crate::error::ScenarioError;
use crate::expand::{RobotsSpec, ScenarioSpec};
use crate::json::{parse, JsonValue};
use crate::spec::{arr, join, obj, str_of, u64_of, unknown_field, AdjustOp};
use tartan_telemetry::{greedy_min_subset, CoverageFingerprint, RobotRunStats};

/// Version of the `corpus_manifest.json` schema.
///
/// CI fails if this changes without a matching entry in `SCHEMA.md`.
pub const CORPUS_MANIFEST_VERSION: u32 = 1;

// -------------------------------------------------------- CoverageVector

/// The behavioral summary of one scenario: a sorted, deduplicated set
/// of `"<robot>|<fingerprint key>"` entries, one per planned job.
///
/// Two scenarios with equal vectors landed every robot in the same
/// regimes — the curator treats the later one as redundant unless it
/// still contributes an unseen *entry*.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoverageVector(Vec<String>);

impl CoverageVector {
    /// Builds the vector from one run per planned job.
    pub fn from_runs(runs: &[RobotRunStats]) -> CoverageVector {
        let mut entries: Vec<String> = runs
            .iter()
            .map(|r| format!("{}|{}", r.robot, CoverageFingerprint::from_stats(r).key()))
            .collect();
        entries.sort();
        entries.dedup();
        CoverageVector(entries)
    }

    /// Builds a vector from pre-formatted entries (manifest reload).
    pub fn from_entries(mut entries: Vec<String>) -> CoverageVector {
        entries.sort();
        entries.dedup();
        CoverageVector(entries)
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[String] {
        &self.0
    }
}

// ---------------------------------------------------------------- curate

/// One curated scenario: the (not yet shrunk) spec, its coverage, and
/// how many of its entries were new when it was admitted.
#[derive(Debug, Clone, PartialEq)]
pub struct Keeper {
    /// The kept spec.
    pub spec: ScenarioSpec,
    /// Its full coverage vector (the shrink target).
    pub coverage: CoverageVector,
    /// Entries unseen by all earlier keepers at admission time.
    pub new_entries: usize,
}

/// The curator's output: keepers in admission order plus the counts the
/// manifest records.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Curated {
    /// Admitted scenarios, in probe order.
    pub keepers: Vec<Keeper>,
    /// Specs whose probe failed (did not expand or run).
    pub invalid: usize,
    /// Specs dropped because every coverage entry was already seen.
    pub duplicate_coverage: usize,
}

/// Greedy novelty filter over an ordered probe stream: a spec is kept
/// iff its vector contains at least one entry no earlier spec produced.
/// Deterministic given the input order (which the enumeration fixes).
pub fn curate(probed: Vec<(ScenarioSpec, Option<CoverageVector>)>) -> Curated {
    let mut out = Curated::default();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (spec, cov) in probed {
        let Some(coverage) = cov else {
            out.invalid += 1;
            continue;
        };
        let new_entries = coverage
            .entries()
            .iter()
            .filter(|e| !seen.contains(*e))
            .count();
        if new_entries == 0 {
            out.duplicate_coverage += 1;
            continue;
        }
        seen.extend(coverage.entries().iter().cloned());
        out.keepers.push(Keeper {
            spec,
            coverage,
            new_entries,
        });
    }
    out
}

// ---------------------------------------------------------------- shrink

/// Minimizes `spec` while its probe stays exactly `target`.
///
/// Structural passes use the oracle's ddmin subset minimizer (groups,
/// per-group robots/prelude/axes, per-axis variants, scale adjusts);
/// value passes halve `mul` scale adjustments toward 1 and reduce
/// `steps`. All passes repeat to a fixpoint, so the function is
/// **idempotent**: shrinking a shrunk spec changes nothing. Returns the
/// minimized spec and the number of probe invocations spent.
///
/// A candidate is accepted only when its rendered JSON re-parses (which
/// re-checks the whole schema — e.g. an axis needs a variant, a group
/// needs a robot), it expands, and `probe` returns `Some(target)`.
/// Callers pass the unshrunk keeper, whose probe already matched, so
/// the loop can only preserve validity.
pub fn shrink_spec<P>(
    spec: &ScenarioSpec,
    target: &CoverageVector,
    probe: &mut P,
) -> (ScenarioSpec, u64)
where
    P: FnMut(&ScenarioSpec) -> Option<CoverageVector>,
{
    let mut probes: u64 = 0;
    let mut keeps = |candidate: &ScenarioSpec| -> bool {
        let Ok(reparsed) = ScenarioSpec::from_json(&candidate.to_json()) else {
            return false;
        };
        if reparsed.expand().is_err() {
            return false;
        }
        probes += 1;
        probe(&reparsed).as_ref() == Some(target)
    };

    let mut best = spec.clone();
    loop {
        let before = best.clone();

        // Fewer groups.
        best.groups = greedy_min_subset(&best.groups, |groups| {
            let mut c = best.clone();
            c.groups = groups.to_vec();
            keeps(&c)
        });

        for gi in 0..best.groups.len() {
            // Fewer robots: minimize the resolved list, adopting the
            // explicit-list form only when it actually got smaller (so
            // `"all"` stays `"all"` when every robot matters).
            let resolved = best.groups[gi].robots.resolve();
            let min_robots = greedy_min_subset(&resolved, |robots| {
                if robots.is_empty() {
                    return false;
                }
                let mut c = best.clone();
                c.groups[gi].robots = RobotsSpec::List(robots.to_vec());
                keeps(&c)
            });
            if min_robots.len() < resolved.len() {
                best.groups[gi].robots = RobotsSpec::List(min_robots);
            }

            // Fewer prelude variants and fewer axes.
            let prelude = best.groups[gi].prelude.clone();
            best.groups[gi].prelude = greedy_min_subset(&prelude, |p| {
                let mut c = best.clone();
                c.groups[gi].prelude = p.to_vec();
                keeps(&c)
            });
            let axes = best.groups[gi].axes.clone();
            best.groups[gi].axes = greedy_min_subset(&axes, |a| {
                let mut c = best.clone();
                c.groups[gi].axes = a.to_vec();
                keeps(&c)
            });

            // Fewer variants per surviving axis (the parse check rejects
            // an emptied axis, so each keeps at least one variant).
            for ai in 0..best.groups[gi].axes.len() {
                let variants = best.groups[gi].axes[ai].variants.clone();
                best.groups[gi].axes[ai].variants = greedy_min_subset(&variants, |vs| {
                    let mut c = best.clone();
                    c.groups[gi].axes[ai].variants = vs.to_vec();
                    keeps(&c)
                });
            }
        }

        // Fewer scale adjustments.
        let adjust = best.params.adjust.clone();
        best.params.adjust = greedy_min_subset(&adjust, |a| {
            let mut c = best.clone();
            c.params.adjust = a.to_vec();
            keeps(&c)
        });

        // Smaller scales: halve surviving multipliers toward 1.
        for i in 0..best.params.adjust.len() {
            while let AdjustOp::Mul(n) = best.params.adjust[i].op {
                if n <= 1 {
                    break;
                }
                let mut c = best.clone();
                c.params.adjust[i].op = AdjustOp::Mul(n / 2);
                if keeps(&c) {
                    best = c;
                } else {
                    break;
                }
            }
        }

        // Fewer steps.
        while let Some(n) = best.params.steps {
            if n <= 1 {
                break;
            }
            let mut c = best.clone();
            c.params.steps = Some(n - 1);
            if keeps(&c) {
                best = c;
            } else {
                break;
            }
        }

        if best == before {
            break;
        }
    }
    (best, probes)
}

// -------------------------------------------------------------- manifest

/// One corpus scenario as the manifest records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Scenario name (equals the spec's `name`).
    pub name: String,
    /// File name inside the corpus directory (`<name>.json`).
    pub file: String,
    /// Number of jobs the spec expands to.
    pub jobs: u64,
    /// The coverage vector's entries, sorted.
    pub coverage: Vec<String>,
}

/// The generation record written next to the corpus files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusManifest {
    /// Selection seed.
    pub seed: u64,
    /// Requested enumeration budget.
    pub budget: u64,
    /// Size of the pattern's full cartesian space.
    pub space: u64,
    /// Specs actually enumerated (`min(budget, space)`).
    pub enumerated: u64,
    /// Specs whose probe failed.
    pub invalid: u64,
    /// Specs admitted to the corpus.
    pub kept: u64,
    /// Specs dropped for contributing no unseen coverage entry.
    pub duplicate_coverage: u64,
    /// Probe invocations spent by the shrinker, summed over keepers.
    pub shrink_probes: u64,
    /// The corpus scenarios, in admission order.
    pub entries: Vec<CorpusEntry>,
}

impl CorpusManifest {
    /// Renders the manifest (compact JSON, trailing newline).
    pub fn to_json(&self) -> String {
        let num = |n: u64| JsonValue::Num(n.to_string());
        let scenarios: Vec<JsonValue> = self
            .entries
            .iter()
            .map(|e| {
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(e.name.clone())),
                    ("file".into(), JsonValue::Str(e.file.clone())),
                    ("jobs".into(), num(e.jobs)),
                    (
                        "coverage".into(),
                        JsonValue::Arr(
                            e.coverage.iter().cloned().map(JsonValue::Str).collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let mut text = JsonValue::Obj(vec![
            (
                "corpus_schema_version".into(),
                num(CORPUS_MANIFEST_VERSION as u64),
            ),
            ("generator".into(), JsonValue::Str("tartan_gen".into())),
            ("seed".into(), num(self.seed)),
            ("budget".into(), num(self.budget)),
            ("space".into(), num(self.space)),
            ("enumerated".into(), num(self.enumerated)),
            ("invalid".into(), num(self.invalid)),
            ("kept".into(), num(self.kept)),
            ("duplicate_coverage".into(), num(self.duplicate_coverage)),
            ("shrink_probes".into(), num(self.shrink_probes)),
            ("scenarios".into(), JsonValue::Arr(scenarios)),
        ])
        .render();
        text.push('\n');
        text
    }

    /// Parses and validates a manifest document. Strict: unknown or
    /// missing fields, wrong types, and version mismatches all error
    /// with a single-line message naming the field.
    pub fn from_json(text: &str) -> Result<CorpusManifest, String> {
        Self::from_value(&parse(text)?).map_err(|e| e.to_string())
    }

    fn from_value(v: &JsonValue) -> Result<CorpusManifest, ScenarioError> {
        const FIELDS: [&str; 11] = [
            "corpus_schema_version",
            "generator",
            "seed",
            "budget",
            "space",
            "enumerated",
            "invalid",
            "kept",
            "duplicate_coverage",
            "shrink_probes",
            "scenarios",
        ];
        let mut m = CorpusManifest {
            seed: 0,
            budget: 0,
            space: 0,
            enumerated: 0,
            invalid: 0,
            kept: 0,
            duplicate_coverage: 0,
            shrink_probes: 0,
            entries: Vec::new(),
        };
        let mut version: Option<u64> = None;
        let mut saw_scenarios = false;
        for (key, value) in obj(v, "$")? {
            let uint = || u64_of(value, key);
            match key.as_str() {
                "corpus_schema_version" => version = Some(uint()?),
                "generator" => {
                    let g = str_of(value, key)?;
                    if g != "tartan_gen" {
                        let reason = format!("expected \"tartan_gen\", got {g:?}");
                        return Err(ScenarioError::new(key, reason));
                    }
                }
                "seed" => m.seed = uint()?,
                "budget" => m.budget = uint()?,
                "space" => m.space = uint()?,
                "enumerated" => m.enumerated = uint()?,
                "invalid" => m.invalid = uint()?,
                "kept" => m.kept = uint()?,
                "duplicate_coverage" => m.duplicate_coverage = uint()?,
                "shrink_probes" => m.shrink_probes = uint()?,
                "scenarios" => {
                    saw_scenarios = true;
                    for (i, item) in arr(value, key)?.iter().enumerate() {
                        m.entries
                            .push(parse_entry(item, &format!("scenarios[{i}]"))?);
                    }
                }
                _ => return Err(unknown_field("", key, &FIELDS)),
            }
        }
        match version {
            None => {
                return Err(ScenarioError::new(
                    "corpus_schema_version",
                    "required field is missing",
                ))
            }
            Some(v) if v != CORPUS_MANIFEST_VERSION as u64 => {
                return Err(ScenarioError::new(
                    "corpus_schema_version",
                    format!(
                        "unsupported version {v} (this build reads version {CORPUS_MANIFEST_VERSION})"
                    ),
                ))
            }
            Some(_) => {}
        }
        if !saw_scenarios {
            return Err(ScenarioError::new("scenarios", "required field is missing"));
        }
        if m.kept != m.entries.len() as u64 {
            return Err(ScenarioError::new(
                "kept",
                format!(
                    "{} does not match the {} scenarios listed",
                    m.kept,
                    m.entries.len()
                ),
            ));
        }
        Ok(m)
    }
}

fn parse_entry(v: &JsonValue, path: &str) -> Result<CorpusEntry, ScenarioError> {
    let (mut name, mut file, mut jobs, mut coverage) = (None, None, None, None);
    for (key, value) in obj(v, path)? {
        let p = join(path, key);
        match key.as_str() {
            "name" => name = Some(str_of(value, &p)?.to_string()),
            "file" => file = Some(str_of(value, &p)?.to_string()),
            "jobs" => jobs = Some(u64_of(value, &p)?),
            "coverage" => {
                let items = arr(value, &p)?.iter().enumerate();
                let entries =
                    items.map(|(j, item)| str_of(item, &format!("{p}[{j}]")).map(str::to_string));
                coverage = Some(entries.collect::<Result<Vec<_>, _>>()?);
            }
            _ => {
                return Err(unknown_field(
                    path,
                    key,
                    &["name", "file", "jobs", "coverage"],
                ))
            }
        }
    }
    let missing = |field| ScenarioError::new(join(path, field), "required field is missing");
    Ok(CorpusEntry {
        name: name.ok_or_else(|| missing("name"))?,
        file: file.ok_or_else(|| missing("file"))?,
        jobs: jobs.ok_or_else(|| missing("jobs"))?,
        coverage: coverage.ok_or_else(|| missing("coverage"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::Pattern;

    /// A cheap structural stand-in for the real probe: the coverage is
    /// derived from the expanded plan (robot names × config ids), which
    /// reacts to the same spec features the shrinker edits.
    fn fake_probe(spec: &ScenarioSpec) -> Option<CoverageVector> {
        let plan = spec.expand().ok()?;
        let steps = spec.params.steps.unwrap_or(1).min(2);
        let entries = plan
            .jobs
            .iter()
            .map(|j| format!("{}|{}|t{}", j.robot.name(), j.config, steps))
            .collect();
        Some(CoverageVector::from_entries(entries))
    }

    fn specs(n: usize) -> Vec<ScenarioSpec> {
        Pattern::tartan_default().select(11, n)
    }

    #[test]
    fn curate_keeps_novel_vectors_and_drops_covered_ones() {
        let probed: Vec<_> = specs(60)
            .into_iter()
            .map(|s| {
                let cov = fake_probe(&s);
                (s, cov)
            })
            .collect();
        let total = probed.len();
        let curated = curate(probed);
        assert!(curated.invalid == 0, "grammar specs must all probe");
        assert!(!curated.keepers.is_empty());
        assert!(
            curated.keepers.len() < total,
            "some specs must be redundant at this budget"
        );
        assert_eq!(
            curated.keepers.len() + curated.duplicate_coverage,
            total
        );
        // Every keeper contributed something new.
        assert!(curated.keepers.iter().all(|k| k.new_entries > 0));
        // Re-curating only the keepers' vectors keeps all of them (each
        // was admitted for an entry no earlier keeper had).
        let again = curate(
            curated
                .keepers
                .iter()
                .map(|k| (k.spec.clone(), Some(k.coverage.clone())))
                .collect(),
        );
        assert_eq!(again.keepers.len(), curated.keepers.len());
    }

    #[test]
    fn shrink_preserves_coverage_and_is_idempotent() {
        let mut total_probes = 0;
        for spec in specs(12) {
            let target = fake_probe(&spec).unwrap();
            let mut probe = fake_probe;
            let (small, probes) = shrink_spec(&spec, &target, &mut probe);
            total_probes += probes;
            assert_eq!(
                fake_probe(&small),
                Some(target.clone()),
                "{}: shrink changed the coverage vector",
                spec.name
            );
            // The shrunk spec is still a valid scenario document.
            let reparsed = ScenarioSpec::from_json(&small.to_json()).unwrap();
            assert_eq!(reparsed, small);
            // Idempotence: a second shrink is a no-op.
            let (again, _) = shrink_spec(&small, &target, &mut probe);
            assert_eq!(again, small, "{}: shrink is not idempotent", spec.name);
        }
        assert!(total_probes > 0, "no spec in the sample was shrinkable");
    }

    #[test]
    fn shrink_halves_multipliers_the_coverage_does_not_need() {
        // fake_probe ignores scale adjusts entirely, so every multiplier
        // must shrink to nothing (the adjust list empties).
        let spec = specs(40)
            .into_iter()
            .find(|s| !s.params.adjust.is_empty())
            .expect("the default pattern emits specs with scale adjusts");
        let target = fake_probe(&spec).unwrap();
        let (small, _) = shrink_spec(&spec, &target, &mut fake_probe);
        assert!(
            small.params.adjust.is_empty(),
            "coverage-irrelevant adjusts must be deleted, got {:?}",
            small.params.adjust
        );
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let m = CorpusManifest {
            seed: 7,
            budget: 512,
            space: 48384,
            enumerated: 512,
            invalid: 0,
            kept: 2,
            duplicate_coverage: 510,
            shrink_probes: 123,
            entries: vec![
                CorpusEntry {
                    name: "gen-delibot".into(),
                    file: "gen-delibot.json".into(),
                    jobs: 1,
                    coverage: vec!["DeliBot|phases=[] l2=idle pf=off unsup npu=0".into()],
                },
                CorpusEntry {
                    name: "gen-flybot".into(),
                    file: "gen-flybot.json".into(),
                    jobs: 2,
                    coverage: vec!["FlyBot|phases=[plan] l2=all pf=q1 sup:1 npu=3".into()],
                },
            ],
        };
        let text = m.to_json();
        assert!(text.ends_with('\n'));
        assert_eq!(CorpusManifest::from_json(&text).unwrap(), m);
    }

    #[test]
    fn manifest_validation_rejects_malformed_documents() {
        let good = CorpusManifest {
            seed: 1,
            budget: 2,
            space: 3,
            enumerated: 2,
            invalid: 0,
            kept: 0,
            duplicate_coverage: 2,
            shrink_probes: 0,
            entries: Vec::new(),
        }
        .to_json();
        for (mangle, fragment) in [
            (good.replace("\"corpus_schema_version\":1", "\"corpus_schema_version\":9"),
             "unsupported version"),
            (good.replace("\"seed\":1", "\"seed\":\"one\""), "seed"),
            (good.replace("\"generator\":\"tartan_gen\"", "\"generator\":\"elf\""), "generator"),
            (good.replace("\"kept\":0", "\"kept\":5"), "kept"),
            (good.replace("\"space\":3", "\"spaces\":3"), "unknown"),
        ] {
            let err = CorpusManifest::from_json(&mangle).expect_err(&mangle);
            assert!(
                err.contains(fragment),
                "error {err:?} should mention {fragment:?}"
            );
            assert!(!err.contains('\n'));
        }
    }
}
