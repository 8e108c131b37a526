//! The shrinking fuzz driver: generates adversarial machine configs and
//! access patterns, runs them through the real simulator with tracing on,
//! replays the trace through the golden models, and — on divergence —
//! greedily shrinks the case to a minimal reproducer.
//!
//! Everything is seeded and dependency-free ([`XorShift`]), so any failure
//! is reproducible from its printed seed or its serialized case
//! ([`crate::corpus`]).

use tartan_sim::{
    FcpConfig, FcpManipulation, Machine, MachineConfig, MemPolicy, PrefetcherKind, Proc,
};
use tartan_telemetry::shared;

use crate::golden::Mutation;
use crate::rng::XorShift;
use crate::trace::{replay, CaptureSink, Divergence, GoldenTotals};

/// One operation in a fuzzed access pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// An independent load.
    Read {
        /// Executing core (thread in parallel sections).
        core: usize,
        /// Program counter.
        pc: u64,
        /// Byte address (may be unaligned, may straddle lines).
        addr: u64,
        /// Access size in bytes.
        bytes: u64,
    },
    /// A store, optionally routed through the write-through policy.
    Write {
        /// Executing core.
        core: usize,
        /// Program counter.
        pc: u64,
        /// Byte address.
        addr: u64,
        /// Access size in bytes.
        bytes: u64,
        /// Use [`MemPolicy::WriteThrough`] instead of [`MemPolicy::Normal`].
        through: bool,
    },
    /// An OVEC oriented load (only generated for OVEC-enabled configs).
    Ovec {
        /// Executing core.
        core: usize,
        /// Program counter.
        pc: u64,
        /// Base byte address of the pattern.
        base: u64,
        /// Fractional element index of lane 0.
        origin: f64,
        /// Fractional per-lane displacement.
        orient: f64,
        /// Number of lanes.
        lanes: usize,
        /// Element size in bytes.
        elem_bytes: u64,
        /// Buffer length in elements (indices clamp to it).
        max_elems: u64,
    },
    /// Ends the current `run`/`parallel` section. Sections restart the
    /// thread-local clock while prefetch `ready` stamps persist — the
    /// timeliness edge the oracle most wants to probe.
    Barrier,
}

impl Op {
    /// Whether the op performs memory accesses (barriers do not).
    pub fn is_access(&self) -> bool {
        !matches!(self, Op::Barrier)
    }
}

/// A complete fuzz case: a machine configuration plus an access pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Cores (1 = sequential `run` sections, 2 = `parallel` sections).
    pub cores: usize,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// L1 (size_bytes, ways).
    pub l1: (u64, u32),
    /// L2 (size_bytes, ways).
    pub l2: (u64, u32),
    /// L3 (size_bytes, ways).
    pub l3: (u64, u32),
    /// DRAM latency in cycles (varies prefetch timeliness).
    pub dram_latency: u64,
    /// Attached L2 prefetcher.
    pub prefetcher: PrefetcherKind,
    /// ANL region size in bytes.
    pub anl_region_bytes: u64,
    /// FCP indexing/partitioning, if enabled.
    pub fcp: Option<FcpConfig>,
    /// Enable the write-through-regions policy.
    pub write_through: bool,
    /// Enable OVEC (required for [`Op::Ovec`]).
    pub ovec: bool,
    /// The access pattern.
    pub ops: Vec<Op>,
}

impl FuzzCase {
    /// The machine configuration this case runs under (caches deliberately
    /// tiny so short patterns still thrash them).
    pub fn config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::legacy_baseline();
        cfg.cores = self.cores;
        cfg.line_bytes = self.line_bytes;
        (cfg.l1.size_bytes, cfg.l1.ways) = self.l1;
        (cfg.l2.size_bytes, cfg.l2.ways) = self.l2;
        (cfg.l3.size_bytes, cfg.l3.ways) = self.l3;
        cfg.dram_latency = self.dram_latency;
        cfg.prefetcher = self.prefetcher;
        cfg.anl_region_bytes = self.anl_region_bytes;
        cfg.fcp = self.fcp;
        cfg.write_through_regions = self.write_through;
        cfg.ovec = self.ovec;
        cfg
    }

    /// Number of accessing ops (the reproducer-size metric).
    pub fn accesses(&self) -> usize {
        self.ops.iter().filter(|o| o.is_access()).count()
    }
}

/// PCs drawn by the generator. `0x10` and `0x10 + 4096` share a 12-bit
/// ANL tag — the aliasing case the golden table must reproduce.
const PC_POOL: [u64; 5] = [0x10, 0x24, 0x38, 0x10 + 4096, 0x4c];

/// Generates one random fuzz case.
///
/// Geometry is drawn from small power-of-two menus so that (a) the set
/// math stays valid and (b) a few dozen accesses are enough to force
/// evictions at every level. `force_fcp` guarantees an FCP config (used
/// by the mutation check, whose injected defect lives in FCP indexing).
pub fn generate(rng: &mut XorShift, force_fcp: bool) -> FuzzCase {
    let cores = if rng.chance(1, 3) { 2 } else { 1 };
    let line_bytes = *rng.pick(&[32u64, 64]);
    let l1 = *rng.pick(&[(512u64, 2u32), (1024, 2), (1024, 4)]);
    let l2 = *rng.pick(&[(2048u64, 4u32), (4096, 4), (4096, 8)]);
    let l3 = *rng.pick(&[(8192u64, 4u32), (16384, 8)]);
    let dram_latency = *rng.pick(&[50u64, 200]);
    let prefetcher = *rng.pick(&[
        PrefetcherKind::None,
        PrefetcherKind::NextLine,
        PrefetcherKind::Anl,
        PrefetcherKind::Anl,
    ]);
    let anl_region_bytes = *rng.pick(&[256u64, 512, 1024]);
    let fcp = if force_fcp || rng.chance(1, 2) {
        let region_bytes = *rng.pick(&[256u64, 512, 1024]);
        let lines_per_region = region_bytes / line_bytes;
        // xor_bits must leave at least one offset line per XORed bucket.
        let max_bits = lines_per_region.ilog2();
        let xor_bits = 1 + rng.below(u64::from(max_bits)) as u32;
        let manipulation = *rng.pick(&[
            FcpManipulation::Increment,
            FcpManipulation::Double,
            FcpManipulation::Square,
        ]);
        Some(FcpConfig {
            region_bytes,
            xor_bits,
            manipulation,
        })
    } else {
        None
    };
    let write_through = rng.chance(1, 2);
    let ovec = rng.chance(1, 2);

    let n_ops = 30 + rng.below(90) as usize;
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let core = rng.below(cores as u64) as usize;
        let pc = *rng.pick(&PC_POOL);
        if rng.chance(1, 12) {
            ops.push(Op::Barrier);
        } else if ovec && rng.chance(1, 6) {
            ops.push(Op::Ovec {
                core,
                pc,
                base: rng.below(32) * line_bytes,
                // Eighths: exact in f64, still exercises the floor path.
                origin: rng.below(64) as f64 / 8.0 - 2.0,
                orient: rng.below(48) as f64 / 8.0 - 3.0,
                lanes: 1 + rng.below(16) as usize,
                elem_bytes: *rng.pick(&[2u64, 4, 8]),
                max_elems: 16 + rng.below(240),
            });
        } else {
            // A tight address space (a few L3s) forces conflict misses.
            let addr = rng.below(4 * l3.0);
            let bytes = 1 + rng.below(16);
            if rng.chance(2, 5) {
                ops.push(Op::Write {
                    core,
                    pc,
                    addr,
                    bytes,
                    through: rng.chance(1, 2),
                });
            } else {
                ops.push(Op::Read {
                    core,
                    pc,
                    addr,
                    bytes,
                });
            }
        }
    }
    FuzzCase {
        cores,
        line_bytes,
        l1,
        l2,
        l3,
        dram_latency,
        prefetcher,
        anl_region_bytes,
        fcp,
        write_through,
        ovec,
        ops,
    }
}

fn exec_op(p: &mut Proc<'_>, op: &Op) {
    match *op {
        Op::Read { pc, addr, bytes, .. } => p.read(pc, addr, bytes, MemPolicy::Normal),
        Op::Write {
            pc,
            addr,
            bytes,
            through,
            ..
        } => {
            let policy = if through {
                MemPolicy::WriteThrough
            } else {
                MemPolicy::Normal
            };
            p.write(pc, addr, bytes, policy);
        }
        Op::Ovec {
            pc,
            base,
            origin,
            orient,
            lanes,
            elem_bytes,
            max_elems,
            ..
        } => {
            p.oriented_load(pc, base, origin, orient, lanes, elem_bytes, max_elems, MemPolicy::Normal);
        }
        Op::Barrier => {}
    }
}

/// Runs a case through the real simulator (trace capture on) and replays
/// the capture through the golden models.
///
/// Returns the golden totals on agreement, or the first [`Divergence`].
/// A `mutation` bends the golden models, *not* the simulator — any
/// returned divergence then demonstrates the oracle's detection power.
pub fn run_case(case: &FuzzCase, mutation: Option<Mutation>) -> Result<GoldenTotals, Divergence> {
    let cfg = case.config();
    let mut m = Machine::new(cfg.clone());
    let (typed, erased) = shared(CaptureSink::new());
    m.set_telemetry(erased);

    for section in case.ops.split(|op| matches!(op, Op::Barrier)) {
        if section.is_empty() {
            continue;
        }
        if case.cores == 1 {
            m.run(|p| {
                for op in section {
                    exec_op(p, op);
                }
            });
        } else {
            m.parallel(case.cores, |tid, p| {
                for op in section {
                    let owner = match *op {
                        Op::Read { core, .. }
                        | Op::Write { core, .. }
                        | Op::Ovec { core, .. } => core,
                        Op::Barrier => unreachable!("sections are barrier-free"),
                    };
                    if owner == tid {
                        exec_op(p, op);
                    }
                }
            });
        }
    }

    let stats = m.stats();
    drop(m); // release the erased Arc so the capture is solely ours
    let events = std::mem::take(&mut typed.lock().expect("capture sink poisoned").events);
    let totals = replay(&cfg, &events, mutation)?;
    totals.check_against(&stats, events.len())?;
    Ok(totals)
}

/// Greedily shrinks a diverging case while preserving divergence.
///
/// First pass: delete op chunks (halving chunk sizes down to single ops).
/// Second pass: simplify the configuration (drop the prefetcher, FCP,
/// write-through) when divergence survives without them. The result is a
/// locally minimal reproducer, typically a handful of accesses.
pub fn shrink(case: &FuzzCase, mutation: Option<Mutation>) -> FuzzCase {
    let diverges = |c: &FuzzCase| run_case(c, mutation).is_err();
    assert!(diverges(case), "shrink starts from a diverging case");
    let mut best = case.clone();

    // Pass 1: chunked op deletion down to a 1-minimal op list, via the
    // shared greedy loop (`tartan_telemetry::greedy_min_subset`). The
    // config stays fixed while ops shrink; an empty op list is never
    // interesting.
    let template = best.clone();
    best.ops = tartan_telemetry::greedy_min_subset(&best.ops, |ops| {
        if ops.is_empty() {
            return false;
        }
        let mut candidate = template.clone();
        candidate.ops = ops.to_vec();
        diverges(&candidate)
    });

    // Pass 2: config simplifications, each kept only if still diverging.
    let mut candidate = best.clone();
    candidate.prefetcher = PrefetcherKind::None;
    if diverges(&candidate) {
        best = candidate;
    }
    let mut candidate = best.clone();
    candidate.fcp = None;
    if diverges(&candidate) {
        best = candidate;
    }
    let mut candidate = best.clone();
    candidate.write_through = false;
    if diverges(&candidate) {
        best = candidate;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_agree_with_the_simulator() {
        let mut rng = XorShift::new(0x7a57a2);
        for _ in 0..40 {
            let case = generate(&mut rng, false);
            if let Err(div) = run_case(&case, None) {
                panic!("golden/simulator divergence on {case:?}: {div}");
            }
        }
    }

    #[test]
    fn mutated_golden_model_is_caught_and_shrinks_small() {
        let mut rng = XorShift::new(11);
        let mut caught = 0;
        for _ in 0..40 {
            let case = generate(&mut rng, true);
            if run_case(&case, Some(Mutation::FcpIndexOffByOne)).is_err() {
                caught += 1;
                let small = shrink(&case, Some(Mutation::FcpIndexOffByOne));
                assert!(
                    small.accesses() <= 20,
                    "reproducer still has {} accesses",
                    small.accesses()
                );
                assert!(run_case(&small, Some(Mutation::FcpIndexOffByOne)).is_err());
                break;
            }
        }
        assert!(caught > 0, "off-by-one FCP index never diverged in 40 cases");
    }
}
