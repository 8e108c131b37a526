//! Differential test of the simulator's cache level against the golden
//! model: random demand and prefetch streams through `tartan_sim::Cache`
//! and `GoldenCache` must agree on every decision, for every geometry from
//! direct-mapped to 16-way, with and without FCP.

use std::collections::HashMap;

use proptest::prelude::*;
use tartan_oracle::golden::{GoldenCache, GoldenEviction, GoldenOutcome};
use tartan_sim::{AccessOutcome, Cache, EvictedLine, FcpConfig, FcpManipulation, PrefetchOutcome};

const LINE_BYTES: u64 = 64;

fn arb_fcp() -> impl Strategy<Value = FcpConfig> {
    (
        prop_oneof![Just(256u64), Just(512u64), Just(1024u64)],
        1u32..=2,
        prop_oneof![
            Just(FcpManipulation::Increment),
            Just(FcpManipulation::Double),
            Just(FcpManipulation::Square)
        ],
    )
        .prop_map(|(region_bytes, xor_bits, manipulation)| FcpConfig {
            region_bytes,
            xor_bits,
            manipulation,
        })
}

/// One operation: `(kind, repeat_last, line, time_step, ready_offset)`.
/// Kind 0 reads, 1 writes, 2 inserts a prefetch whose data arrives at
/// `now - 20 + ready_offset`, so ready times fall both before and after
/// the demand touches that follow.
type Op = (u8, bool, u64, u64, u64);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..3, any::<bool>(), 0u64..4096, 0u64..8, 0u64..40),
        1..400,
    )
}

fn same_eviction(sim: Option<EvictedLine>, golden: Option<GoldenEviction>) -> bool {
    sim.map(|e| (e.line_number, e.dirty, e.prefetched))
        == golden.map(|e| (e.line, e.dirty, e.prefetched_unused))
}

/// Checks one demand outcome; `ready` is the arrival time of the line's
/// outstanding prefetch, if any.
fn check_access(
    sim: AccessOutcome,
    golden: (GoldenOutcome, Option<GoldenEviction>),
    now: u64,
    ready: Option<u64>,
) -> Result<(), String> {
    let (outcome, evicted) = golden;
    let expected_late = match outcome {
        GoldenOutcome::Late => ready.map(|r| r - now),
        _ => None,
    };
    let agree = sim.hit == (outcome != GoldenOutcome::Miss)
        && sim.covered_by_prefetch == (outcome == GoldenOutcome::Covered)
        && sim.late_by == expected_late
        && (outcome != GoldenOutcome::Late || expected_late.is_some())
        && same_eviction(sim.evicted, evicted);
    if agree {
        Ok(())
    } else {
        Err(format!(
            "sim {sim:?} vs golden {outcome:?}/{evicted:?} at now {now}, ready {ready:?}"
        ))
    }
}

fn run_stream(
    sets: u64,
    ways: u32,
    fcp: Option<FcpConfig>,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let size = sets * u64::from(ways) * LINE_BYTES;
    let mut sim = Cache::new(size, ways, 4, LINE_BYTES, fcp);
    let mut golden = GoldenCache::new(size, ways, LINE_BYTES, fcp, None);
    // Three capacities' worth of lines: hits, conflicts and evictions.
    let span = 3 * sets * u64::from(ways) + 5;
    // Arrival time of each line's outstanding (not yet demanded) prefetch.
    let mut ready_of: HashMap<u64, u64> = HashMap::new();
    let mut now = 100u64;
    let mut last = 0u64;
    for (step, &(kind, repeat, raw, dt, ready_offset)) in ops.iter().enumerate() {
        let line = if repeat { last } else { raw % span };
        last = line;
        now += dt;
        let ctx = || format!("step {step}, line {line}, {sets}x{ways}, fcp {fcp:?}");
        match kind {
            0 | 1 => {
                let write = kind == 1;
                let s = sim.access(line, write, now);
                let g = golden.access(line, write, now);
                if let Err(e) = check_access(s, g, now, ready_of.get(&line).copied()) {
                    return Err(TestCaseError::fail(format!("{}: {e}", ctx())));
                }
                ready_of.remove(&line);
            }
            _ => {
                let ready = now - 20 + ready_offset;
                let s = sim.insert_prefetch(line, ready);
                let g = golden.insert_prefetch(line, ready);
                let agree = match (s, g) {
                    (PrefetchOutcome::AlreadyPresent, None) => true,
                    (PrefetchOutcome::Inserted { evicted }, Some(gev)) => {
                        ready_of.insert(line, ready);
                        same_eviction(evicted, gev)
                    }
                    _ => false,
                };
                prop_assert!(agree, "{}: prefetch sim {:?} vs golden {:?}", ctx(), s, g);
            }
        }
        prop_assert_eq!(sim.valid_lines(), golden.valid_lines(), "{}", ctx());
        for probe in [line, line + 1, line ^ 4, raw % span] {
            prop_assert_eq!(
                sim.contains(probe),
                golden.contains(probe),
                "{}: contains({})",
                ctx(),
                probe
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Without FCP: every associativity from direct-mapped to 16-way.
    #[test]
    fn plain_cache_matches_golden(
        ways in prop_oneof![Just(1u32), Just(2u32), Just(4u32), Just(8u32), Just(16u32)],
        sets in prop_oneof![Just(1u64), Just(2u64), Just(8u64)],
        ops in arb_ops(),
    ) {
        run_stream(sets, ways, None, &ops)?;
    }

    /// With FCP region indexing and each of the three `m(x)` manipulations.
    #[test]
    fn fcp_cache_matches_golden(
        ways in prop_oneof![Just(1u32), Just(2u32), Just(4u32), Just(8u32), Just(16u32)],
        sets in prop_oneof![Just(4u64), Just(16u64)],
        fcp in arb_fcp(),
        ops in arb_ops(),
    ) {
        run_stream(sets, ways, Some(fcp), &ops)?;
    }
}

/// Every manipulation and associativity, deterministically, so no
/// combination depends on the random draw.
#[test]
fn every_manipulation_and_geometry_matches_golden() {
    let ops: Vec<Op> = (0..600u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            ((h % 3) as u8, h % 5 == 0, h % 997, h % 7, h % 41)
        })
        .collect();
    for ways in [1u32, 2, 4, 8, 16] {
        run_stream(4, ways, None, &ops).unwrap();
        for manipulation in [
            FcpManipulation::Increment,
            FcpManipulation::Double,
            FcpManipulation::Square,
        ] {
            let fcp = FcpConfig {
                region_bytes: 512,
                xor_bits: 2,
                manipulation,
            };
            run_stream(8, ways, Some(fcp), &ops).unwrap();
        }
    }
}
