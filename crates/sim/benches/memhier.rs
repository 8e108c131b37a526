//! Microbenchmarks for the memory-hierarchy hot path: the per-line access
//! loop every simulated load/store takes through `MemorySystem::access`.
//!
//! Four regimes bracket the cases that dominate real runs:
//!
//! * `l1_hit` — the pure fast path: a working set resident in the L1.
//! * `l2_hit_fcp` — L1 misses that land in the private, FCP-indexed L2
//!   of the Tartan config; its set-up asserts an L2 hit ratio of at
//!   least 0.9.
//! * `l2_fcp_thrash` — a dense working set half the L2's size that FCP's
//!   rule (one region over only `2^l` sets) squeezes into a quarter of the
//!   sets, so nearly every L2 access misses: FCP working as designed.
//! * `dram_miss` — the full-hierarchy miss: streaming accesses that walk
//!   L1 → L2 → L3 → DRAM and exercise fills, evictions, and writebacks.
//! * `prefetch_covered` — a sequential stream under the next-line
//!   prefetcher, so most demand accesses find a timely in-flight line.
//! * `l3_random` — random lines over a working set four times the L3, so
//!   nearly every access misses everywhere and the host's own cache misses
//!   on the simulator's tag store dominate (the other cases are resident
//!   or sequential).
//! * `bingo_random` — random lines over 4096 2 KiB regions under the
//!   Bingo prefetcher, so its in-flight generation bound and both of its
//!   4096-entry history tables stay full and evict on nearly every new
//!   region.
//!
//! `machine_new` times building a whole machine with the paper's
//! 32K/256K/8M hierarchy: the fixed set-up cost of every simulated job.
//!
//! Host wall time per iteration is the figure of merit; simulated cycles
//! are irrelevant here. `cargo bench -p tartan-sim` runs these through the
//! in-tree criterion shim.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tartan_sim::{AccessKind, Machine, MachineConfig, MemPolicy, MemRun, MemorySystem};

/// Accesses per benchmark iteration, so per-line costs are measured over a
/// loop long enough to hide harness overhead.
const ACCESSES: u64 = 4096;

fn l1_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("memhier");
    group.sample_size(200);
    let cfg = MachineConfig::upgraded_baseline();
    let mut mem = MemorySystem::new(&cfg);
    // A tiny working set: 8 lines, touched once to warm the L1.
    for i in 0..8u64 {
        mem.access(0, 1, i * 64, 4, AccessKind::Read, MemPolicy::Normal, 0);
    }
    let mut now = 0u64;
    group.bench_function("l1_hit", |b| {
        b.iter(|| {
            let mut worst = 0;
            for i in 0..ACCESSES {
                let addr = (i % 8) * 64;
                now += 1;
                worst |= mem.access(0, 1, addr, 4, AccessKind::Read, MemPolicy::Normal, now);
            }
            black_box(worst)
        })
    });
    group.finish();
}

/// Demand L2 hits over L2 accesses across `accesses` calls of `next`.
fn l2_hit_ratio(
    mem: &mut MemorySystem,
    now: &mut u64,
    accesses: u64,
    next: impl Fn(u64) -> u64,
) -> f64 {
    let before = mem.l2_stats();
    for i in 0..accesses {
        *now += 1;
        mem.access(0, 1, next(i), 4, AccessKind::Read, MemPolicy::Normal, *now);
    }
    let after = mem.l2_stats();
    (after.hits - before.hits) as f64 / (after.accesses - before.accesses).max(1) as f64
}

fn l2_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("memhier");
    group.sample_size(100);
    // Tartan config: the L2 runs FCP indexing, so this measures the
    // region/XOR index computation on every access. FCP spreads a region
    // over only `2^l` sets, and the `2^l` regions next to each other share
    // those sets, so the working set takes one region in every `2^l` (each
    // with its own sets) and every other line of it (half the ways of
    // each set, leaving room for the prefetcher's neighbour lines): 4096
    // lines, half the L2 and four times the L1.
    let cfg = MachineConfig::tartan();
    let fcp = cfg.fcp.expect("the Tartan config runs FCP");
    let region = fcp.region_bytes;
    let spacing = region << fcp.xor_bits;
    let per_region = region / cfg.line_bytes / 2;
    let lines = 4096u64;
    let addr = move |i: u64| {
        let line = (i * 97) % lines;
        (line / per_region) * spacing + (line % per_region) * 2 * cfg.line_bytes
    };
    let mut mem = MemorySystem::new(&cfg);
    let mut now = 0u64;
    l2_hit_ratio(&mut mem, &mut now, 4 * lines, addr);
    let ratio = l2_hit_ratio(&mut mem, &mut now, ACCESSES, addr);
    assert!(
        ratio >= 0.9,
        "l2_hit_fcp must hit the L2: hit ratio {ratio:.3}"
    );
    group.bench_function("l2_hit_fcp", |b| {
        b.iter(|| {
            let mut worst = 0;
            for i in 0..ACCESSES {
                now += 1;
                worst |= mem.access(0, 1, addr(i), 4, AccessKind::Read, MemPolicy::Normal, now);
            }
            black_box(worst)
        })
    });
    group.finish();
}

fn l2_fcp_thrash(c: &mut Criterion) {
    let mut group = c.benchmark_group("memhier");
    group.sample_size(100);
    // The same Tartan L2, but a dense working set: 2048 lines at a 64 B
    // stride. Regions next to each other share their `2^l` sets, so these
    // lines compete for a quarter of the sets and nearly every L2 access
    // misses.
    let cfg = MachineConfig::tartan();
    let mut mem = MemorySystem::new(&cfg);
    let lines = 2048u64;
    let mut now = 0u64;
    for i in 0..lines {
        now += mem.access(0, 1, i * 64, 4, AccessKind::Read, MemPolicy::Normal, now);
    }
    group.bench_function("l2_fcp_thrash", |b| {
        b.iter(|| {
            let mut worst = 0;
            for i in 0..ACCESSES {
                let addr = ((i * 97) % lines) * 64;
                now += 1;
                worst |= mem.access(0, 1, addr, 4, AccessKind::Read, MemPolicy::Normal, now);
            }
            black_box(worst)
        })
    });
    group.finish();
}

fn dram_miss(c: &mut Criterion) {
    let mut group = c.benchmark_group("memhier");
    group.sample_size(50);
    let cfg = MachineConfig::upgraded_baseline();
    let mut mem = MemorySystem::new(&cfg);
    let mut now = 0u64;
    let mut next_line = 0u64;
    group.bench_function("dram_miss_stream", |b| {
        b.iter(|| {
            let mut worst = 0;
            for _ in 0..ACCESSES {
                // Every access touches a never-seen line: full miss path,
                // with steady-state evictions once the hierarchy is warm.
                let addr = next_line * 64;
                next_line += 1;
                now += 1;
                worst |= mem.access(
                    0,
                    7,
                    addr,
                    4,
                    if next_line.is_multiple_of(5) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    MemPolicy::Normal,
                    now,
                );
            }
            black_box(worst)
        })
    });
    group.finish();
}

fn prefetch_covered(c: &mut Criterion) {
    let mut group = c.benchmark_group("memhier");
    group.sample_size(50);
    let mut cfg = MachineConfig::upgraded_baseline();
    cfg.prefetcher = tartan_sim::PrefetcherKind::NextLine;
    let mut mem = MemorySystem::new(&cfg);
    let mut now = 0u64;
    let mut next_line = 0u64;
    group.bench_function("prefetch_covered_stream", |b| {
        b.iter(|| {
            let mut worst = 0;
            for _ in 0..ACCESSES {
                let addr = next_line * 64;
                next_line += 1;
                // A compute gap gives prefetches time to land, so demand
                // accesses take the covered fast path.
                now += 400;
                worst |= mem.access(0, 7, addr, 4, AccessKind::Read, MemPolicy::Normal, now);
            }
            black_box(worst)
        })
    });
    group.finish();
}

fn l3_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("memhier");
    group.sample_size(20);
    let cfg = MachineConfig::tartan();
    let l3_lines = cfg.l3.size_bytes / cfg.line_bytes;
    let mut mem = MemorySystem::new(&cfg);
    let mut now = 0u64;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    group.bench_function("l3_random", |b| {
        b.iter(|| {
            let mut worst = 0;
            for _ in 0..ACCESSES {
                // xorshift64: a fixed pseudo-random line sequence.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let addr = (state % (4 * l3_lines)) * cfg.line_bytes;
                now += 1;
                let kind = if state & 7 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                worst |= mem.access(0, 7, addr, 4, kind, MemPolicy::Normal, now);
            }
            black_box(worst)
        })
    });
    group.finish();
}

fn bingo_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("memhier");
    group.sample_size(20);
    let mut cfg = MachineConfig::upgraded_baseline();
    cfg.prefetcher = tartan_sim::PrefetcherKind::Bingo;
    let lines = 4096 * 2048 / cfg.line_bytes;
    let mut mem = MemorySystem::new(&cfg);
    let mut now = 0u64;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    group.bench_function("bingo_random", |b| {
        b.iter(|| {
            let mut worst = 0;
            for _ in 0..ACCESSES {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let addr = (state % lines) * cfg.line_bytes;
                now += 1;
                // Two PCs per region, 8192 in all: more trigger events
                // than either history table holds.
                let pc = addr >> 10;
                worst |= mem.access(0, pc, addr, 4, AccessKind::Read, MemPolicy::Normal, now);
            }
            black_box(worst)
        })
    });
    group.finish();
}

fn machine_new(c: &mut Criterion) {
    let mut group = c.benchmark_group("memhier");
    group.sample_size(50);
    group.bench_function("machine_new", |b| {
        b.iter(|| black_box(Machine::new(MachineConfig::tartan())))
    });
    group.finish();
}

fn batch_unit_stride(c: &mut Criterion) {
    let mut group = c.benchmark_group("memhier");
    group.sample_size(100);
    // The batched interface's best case: one unit-stride run over a small
    // working set, where nearly every element collapses onto the previous
    // line (bulk L1-hit accounting instead of one `access` call each).
    let mut m = Machine::new(MachineConfig::upgraded_baseline());
    let buf = m.buffer_from_vec(vec![0.0f32; 4096], MemPolicy::Normal);
    let run = MemRun {
        base: buf.base_addr(),
        stride: 4,
        count: ACCESSES,
        bytes: 4,
        kind: AccessKind::Read,
        policy: MemPolicy::Normal,
        lead_instr: 3,
        dependent: false,
    };
    group.bench_function("batch_unit_stride_run", |b| {
        b.iter(|| {
            m.run(|p| p.run_mem(7, &run));
            black_box(m.wall_cycles())
        })
    });
    group.finish();
}

fn batch_ovec_strided(c: &mut Criterion) {
    let mut group = c.benchmark_group("memhier");
    group.sample_size(100);
    // OVEC oriented loads with a fractional stride — the ray-walk access
    // shape — through the fused zero-materialization lane fetch.
    let mut m = Machine::new(MachineConfig::tartan());
    let buf = m.buffer_from_vec(vec![0.0f32; 256 * 256], MemPolicy::Normal);
    group.bench_function("batch_ovec_strided_run", |b| {
        b.iter(|| {
            m.run(|p| {
                let lanes = p.lanes();
                for block in 0..(ACCESSES as usize / lanes) {
                    p.oriented_load_discard(
                        7,
                        buf.base_addr(),
                        100.0 + block as f64 * lanes as f64 * 257.3,
                        257.3,
                        lanes,
                        4,
                        256 * 256,
                        MemPolicy::Normal,
                    );
                }
            });
            black_box(m.wall_cycles())
        })
    });
    group.finish();
}

fn batch_mixed_interleave(c: &mut Criterion) {
    let mut group = c.benchmark_group("memhier");
    group.sample_size(100);
    // Realistic kernel shape: short scalar bursts (pose bookkeeping)
    // interleaved with medium address runs (a ray segment), exercising the
    // batch entry/exit overhead rather than the steady state.
    let mut m = Machine::new(MachineConfig::upgraded_baseline());
    let buf = m.buffer_from_vec(vec![0.0f32; 4096], MemPolicy::Normal);
    group.bench_function("batch_mixed_interleave", |b| {
        b.iter(|| {
            m.run(|p| {
                for i in 0..(ACCESSES / 32) {
                    let base = buf.base_addr() + (i % 64) * 64;
                    p.read(7, base, 4, MemPolicy::Normal);
                    p.flop(6);
                    p.run_mem(
                        7,
                        &MemRun {
                            base,
                            stride: 4,
                            count: 30,
                            bytes: 4,
                            kind: AccessKind::Read,
                            policy: MemPolicy::Normal,
                            lead_instr: 8,
                            dependent: false,
                        },
                    );
                    p.write(7, base, 4, MemPolicy::Normal);
                }
            });
            black_box(m.wall_cycles())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    l1_hit,
    l2_hit,
    l2_fcp_thrash,
    dram_miss,
    prefetch_covered,
    l3_random,
    bingo_random,
    machine_new,
    batch_unit_stride,
    batch_ovec_strided,
    batch_mixed_interleave
);
criterion_main!(benches);
