//! Ray-casting (§IV, Fig. 2): walking an occupancy grid along a ray's
//! orientation until the first obstacle, in the paper's three software
//! variants plus the trilinear-interpolation mode of Fig. 7.

use tartan_sim::{AccessKind, Proc};

use crate::grid::{Grid2, OCCUPIED, PC_GRID_LOAD};

/// How the oriented cell walk fetches memory (§VIII-A, Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecMethod {
    /// Scalar loop: one dependent load and the address arithmetic per cell.
    Scalar,
    /// `VGATHERDPS`-style: per-lane indices computed in software, then one
    /// hardware gather.
    Gather,
    /// Tartan's `O_MOVE`: one oriented vector load with in-hardware address
    /// generation.
    Ovec,
    /// A RACOD-like ASIC: address generation *and* occupancy checking in
    /// hardware; the CPU only receives the final hit distance.
    Racod,
}

/// Ray-casting configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayCastConfig {
    /// Fetch variant.
    pub method: VecMethod,
    /// Step length along the ray, in cells.
    pub step: f32,
    /// Maximum range, in cells.
    pub max_range: f32,
    /// Whether each sample is refined by bilinear interpolation of its four
    /// neighboring cells (the high-accuracy mode Intel's accelerator
    /// targets, Fig. 7).
    pub interpolate: bool,
    /// Whether interpolation arithmetic is free (Intel accelerator).
    pub intel_accel: bool,
}

impl RayCastConfig {
    /// A plain configuration with the given method.
    pub fn new(method: VecMethod) -> Self {
        RayCastConfig {
            method,
            step: 1.0,
            max_range: 100.0,
            interpolate: false,
            intel_accel: false,
        }
    }
}

/// Functional reference walk: the distance (in cells) to the first
/// occupied sample, untimed. All timed variants must agree with this.
pub fn cast_untimed(grid: &Grid2, ox: f32, oy: f32, theta: f32, cfg: &RayCastConfig) -> f32 {
    let (dx, dy) = (cfg.step * theta.cos(), cfg.step * theta.sin());
    let steps = (cfg.max_range / cfg.step) as usize;
    for i in 1..=steps {
        let x = ox + i as f32 * dx;
        let y = oy + i as f32 * dy;
        if sample_occupied(grid, x, y, cfg.interpolate) {
            return i as f32 * cfg.step;
        }
    }
    cfg.max_range
}

fn sample_occupied(grid: &Grid2, x: f32, y: f32, interpolate: bool) -> bool {
    if interpolate {
        let (x0, y0) = (x.floor(), y.floor());
        let (fx, fy) = (x - x0, y - y0);
        let at = |xx: i64, yy: i64| grid.peek(grid.idx(xx, yy));
        let v = at(x0 as i64, y0 as i64) * (1.0 - fx) * (1.0 - fy)
            + at(x0 as i64 + 1, y0 as i64) * fx * (1.0 - fy)
            + at(x0 as i64, y0 as i64 + 1) * (1.0 - fx) * fy
            + at(x0 as i64 + 1, y0 as i64 + 1) * fx * fy;
        v > OCCUPIED
    } else {
        grid.occupied(x.floor() as i64, y.floor() as i64)
    }
}

/// Casts one ray with full timing, returning the hit distance in cells.
///
/// The origin is `(ox, oy)` in cell coordinates; `theta` is the ray
/// orientation. The functional result always matches [`cast_untimed`].
///
/// # Panics
///
/// Panics if `cfg.method` is [`VecMethod::Ovec`] on a machine without OVEC.
pub fn cast(p: &mut Proc<'_>, grid: &Grid2, ox: f32, oy: f32, theta: f32, cfg: &RayCastConfig) -> f32 {
    // Ray setup: trig + step decomposition.
    p.flop(12);
    match cfg.method {
        VecMethod::Scalar => cast_scalar(p, grid, ox, oy, theta, cfg),
        VecMethod::Gather => cast_vector(p, grid, ox, oy, theta, cfg, false),
        VecMethod::Ovec => cast_vector(p, grid, ox, oy, theta, cfg, true),
        VecMethod::Racod => cast_racod(p, grid, ox, oy, theta, cfg),
    }
}

fn cast_scalar(
    p: &mut Proc<'_>,
    grid: &Grid2,
    ox: f32,
    oy: f32,
    theta: f32,
    cfg: &RayCastConfig,
) -> f32 {
    let (dx, dy) = (cfg.step * theta.cos(), cfg.step * theta.sin());
    let steps = (cfg.max_range / cfg.step) as usize;
    if !cfg.interpolate {
        // Batched address-stream walk. Per cell the scalar loop charges
        // flop(4) + instr(4) (position update, flatten, floor, compare,
        // branch — §IV-A) plus the load's own instr(1), then issues one
        // independent read; flop is an instruction-count alias, so the
        // whole lead folds into `lead_instr = 8` (+1 inside the run) and
        // the run is charge-for-charge identical to the original loop.
        // The walk's addresses never depend on loaded values, so the cell
        // sequence can be precomputed functionally and replayed as one run.
        let mut addrs = Vec::with_capacity(steps);
        let mut hit = None;
        for i in 1..=steps {
            let x = (ox + i as f32 * dx).floor() as i64;
            let y = (oy + i as f32 * dy).floor() as i64;
            addrs.push(grid.cell_addr(x, y));
            if grid.occupied(x, y) {
                hit = Some(i);
                break;
            }
        }
        p.run_mem_addrs(PC_GRID_LOAD, &addrs, 4, AccessKind::Read, grid.policy(), 8, false);
        return if let Some(i) = hit {
            // The speculated "continue" path was wrong: branch mispredict.
            p.stall(12);
            i as f32 * cfg.step
        } else {
            cfg.max_range
        };
    }
    for i in 1..=steps {
        let x = ox + i as f32 * dx;
        let y = oy + i as f32 * dy;
        // Position update, flatten, floor, compare, branch. The walk's
        // addresses do not depend on loaded values — the OoO core
        // speculates past the predicted-not-taken "hit" branch — so loads
        // overlap; the cost is the per-cell instruction stream (§IV-A).
        p.flop(4);
        p.instr(4);
        let idx = grid.idx(x.floor() as i64, y.floor() as i64);
        grid.load(p, idx);
        grid.load(p, idx + 1);
        grid.load(p, idx + grid.width());
        grid.load(p, idx + grid.width() + 1);
        if !cfg.intel_accel {
            p.flop(12); // bilinear weights and blend
        }
        if sample_occupied(grid, x, y, cfg.interpolate) {
            // The speculated "continue" path was wrong: branch mispredict.
            p.stall(12);
            return i as f32 * cfg.step;
        }
    }
    cfg.max_range
}

/// Vectorized walk shared by Gather and OVEC; `ovec` selects in-hardware
/// address generation.
fn cast_vector(
    p: &mut Proc<'_>,
    grid: &Grid2,
    ox: f32,
    oy: f32,
    theta: f32,
    cfg: &RayCastConfig,
    ovec: bool,
) -> f32 {
    let lanes = p.lanes();
    let (dx, dy) = (cfg.step * theta.cos(), cfg.step * theta.sin());
    let orient = dy as f64 * grid.width() as f64 + dx as f64;
    let steps = (cfg.max_range / cfg.step) as usize;
    let policy = grid.policy();
    let mut i = 1usize;
    while i <= steps {
        let n = lanes.min(steps - i + 1);
        let origin = (oy + i as f32 * dy) as f64 * grid.width() as f64 + (ox + i as f32 * dx) as f64;
        let corner_shifts: &[f64] = if cfg.interpolate {
            &[0.0, 1.0, grid.width() as f64, grid.width() as f64 + 1.0]
        } else {
            &[0.0]
        };
        for &shift in corner_shifts {
            if ovec {
                // One O_MOVE: 5-cycle hardware address generation. The walk
                // checks occupancy functionally below, so the lane indices
                // need not be materialized.
                p.oriented_load_discard(
                    PC_GRID_LOAD,
                    grid.base_addr(),
                    origin + shift,
                    orient,
                    n,
                    4,
                    grid.len() as u64,
                    policy,
                );
            } else {
                // Gather: the lane indices are produced by *software*
                // (§VIII-A): the same multiply/add/floor the scalar loop
                // does, plus converting and inserting each index into the
                // index vector register.
                p.instr(6 * n as u64);
                p.flop(3 * n as u64);
                let addrs: Vec<u64> = (0..n)
                    .map(|l| {
                        let idx = (origin + shift + l as f64 * orient).floor().max(0.0) as u64;
                        grid.base_addr() + 4 * idx.min(grid.len() as u64 - 1)
                    })
                    .collect();
                p.vgather(PC_GRID_LOAD, &addrs, 4, policy);
            }
        }
        // Vector compare (+ interpolation blend when enabled) and the
        // find-first-set on the mask.
        if cfg.interpolate && !cfg.intel_accel {
            p.vec_compute(12 * n as u64);
        }
        p.vec_compute(n as u64);
        p.instr(3);
        // Functional check of this block of samples.
        for l in 0..n {
            let step_idx = i + l;
            let x = ox + step_idx as f32 * dx;
            let y = oy + step_idx as f32 * dy;
            if sample_occupied(grid, x, y, cfg.interpolate) {
                return step_idx as f32 * cfg.step;
            }
        }
        i += n;
    }
    cfg.max_range
}

/// A RACOD-like accelerator: the CPU sends the ray and receives the final
/// distance; address generation *and* checking happen in the ASIC, which
/// still pays memory latency for the cells it scans (pipelined two per
/// cycle) but executes no CPU instructions per cell.
fn cast_racod(
    p: &mut Proc<'_>,
    grid: &Grid2,
    ox: f32,
    oy: f32,
    theta: f32,
    cfg: &RayCastConfig,
) -> f32 {
    p.instr(6); // configure + launch + collect
    let (dx, dy) = (cfg.step * theta.cos(), cfg.step * theta.sin());
    let steps = (cfg.max_range / cfg.step) as usize;
    if !cfg.interpolate {
        // Same batched replay as the scalar walk, but the ASIC executes no
        // CPU instructions per cell (`lead_instr + 1` must equal the
        // original per-cell instr(1) charged by `grid.load`, so lead 0).
        let mut addrs = Vec::with_capacity(steps);
        let mut hit = cfg.max_range;
        for i in 1..=steps {
            let x = (ox + i as f32 * dx).floor() as i64;
            let y = (oy + i as f32 * dy).floor() as i64;
            addrs.push(grid.cell_addr(x, y));
            if grid.occupied(x, y) {
                hit = i as f32 * cfg.step;
                break;
            }
        }
        p.run_mem_addrs(PC_GRID_LOAD, &addrs, 4, AccessKind::Read, grid.policy(), 0, false);
        // ASIC pipeline: two cells per cycle beyond what the loads stalled.
        p.stall(addrs.len() as u64 / 2);
        return hit;
    }
    let mut hit = cfg.max_range;
    let mut scanned = 0u64;
    for i in 1..=steps {
        let x = ox + i as f32 * dx;
        let y = oy + i as f32 * dy;
        grid.load(p, grid.idx(x.floor() as i64, y.floor() as i64));
        if cfg.interpolate {
            let idx = grid.idx(x.floor() as i64, y.floor() as i64);
            grid.load(p, idx + 1);
            grid.load(p, idx + grid.width());
            grid.load(p, idx + grid.width() + 1);
        }
        scanned += 1;
        if sample_occupied(grid, x, y, cfg.interpolate) {
            hit = i as f32 * cfg.step;
            break;
        }
    }
    // ASIC pipeline: two cells per cycle beyond what the loads stalled.
    p.stall(scanned / 2);
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan_sim::{Machine, MachineConfig, MemPolicy};

    fn grid_with_wall(m: &mut Machine) -> Grid2 {
        // 64×64, empty except borders; a vertical wall at x = 40.
        let mut g = Grid2::generate(m, 64, 64, 0, false, 1, MemPolicy::Normal);
        for y in 1..63 {
            g.poke(y * 64 + 40, 1.0);
        }
        g
    }

    #[test]
    fn all_methods_agree_with_reference() {
        let mut m = Machine::new(MachineConfig::tartan());
        let g = grid_with_wall(&mut m);
        for theta in [0.0f32, 0.3, 1.2, 2.5, 4.0, 5.5] {
            let cfg0 = RayCastConfig::new(VecMethod::Scalar);
            let reference = cast_untimed(&g, 10.0, 32.0, theta, &cfg0);
            m.run(|p| {
                for method in [
                    VecMethod::Scalar,
                    VecMethod::Gather,
                    VecMethod::Ovec,
                    VecMethod::Racod,
                ] {
                    let cfg = RayCastConfig::new(method);
                    let d = cast(p, &g, 10.0, 32.0, theta, &cfg);
                    assert_eq!(d, reference, "method {method:?}, theta {theta}");
                }
            });
        }
    }

    #[test]
    fn ray_hits_the_wall_heading_east() {
        let mut m = Machine::new(MachineConfig::tartan());
        let g = grid_with_wall(&mut m);
        let d = m.run(|p| cast(p, &g, 10.0, 32.0, 0.0, &RayCastConfig::new(VecMethod::Ovec)));
        assert_eq!(d, 30.0); // from x=10 to the wall at x=40
    }

    #[test]
    fn ovec_beats_scalar_beats_gather_in_time() {
        let g_cfg = |method| RayCastConfig {
            max_range: 60.0,
            ..RayCastConfig::new(method)
        };
        let time = |method: VecMethod| {
            let mut m = Machine::new(MachineConfig::tartan());
            let g = grid_with_wall(&mut m);
            // Warm the caches: MCL re-casts over the same map every scan,
            // so steady-state behavior is what matters.
            m.run(|p| {
                for ray in 0..64 {
                    let theta = ray as f32 * 0.098;
                    cast(p, &g, 12.0, 32.0, theta, &g_cfg(VecMethod::Scalar));
                }
            });
            let warm_start = m.wall_cycles();
            let instr_start = m.stats().instructions;
            m.run(|p| {
                for _pass in 0..3 {
                    for ray in 0..64 {
                        let theta = ray as f32 * 0.098;
                        cast(p, &g, 12.0, 32.0, theta, &g_cfg(method));
                    }
                }
            });
            (
                m.wall_cycles() - warm_start,
                m.stats().instructions - instr_start,
            )
        };
        let (scalar_t, scalar_i) = time(VecMethod::Scalar);
        let (gather_t, gather_i) = time(VecMethod::Gather);
        let (ovec_t, ovec_i) = time(VecMethod::Ovec);
        let (racod_t, _racod_i) = time(VecMethod::Racod);
        // Fig. 6's ordering: RACOD ≤ OVEC < Scalar ≈ Gather.
        assert!(ovec_t < scalar_t, "OVEC {ovec_t} vs scalar {scalar_t}");
        assert!(racod_t <= ovec_t, "RACOD {racod_t} vs OVEC {ovec_t}");
        assert!(
            gather_i > scalar_i,
            "gather must *increase* instructions ({gather_i} vs {scalar_i})"
        );
        assert!(
            ovec_i * 15 < scalar_i * 10,
            "OVEC must cut instructions ≥1.5× ({ovec_i} vs {scalar_i})"
        );
        assert!(
            gather_t as f64 > 0.85 * scalar_t as f64,
            "gather gains little: {gather_t} vs {scalar_t}"
        );
    }

    #[test]
    fn interpolation_slows_the_walk_and_intel_recovers() {
        let cfg = |interpolate, intel| RayCastConfig {
            interpolate,
            intel_accel: intel,
            max_range: 60.0,
            ..RayCastConfig::new(VecMethod::Scalar)
        };
        let time = |interpolate: bool, intel: bool| {
            let mut m = MachineConfig::upgraded_baseline();
            m.intel_lvs = intel;
            let mut m = Machine::new(m);
            let g = if intel {
                // Intel accelerator serves the grid from its LVS.
                let mut g = Grid2::generate(&mut m, 64, 64, 0, false, 1, MemPolicy::IntelLvs);
                for y in 1..63 {
                    g.poke(y * 64 + 40, 1.0);
                }
                g
            } else {
                grid_with_wall(&mut m)
            };
            // Warm pass (compulsory misses), then the measured passes.
            m.run(|p| {
                for ray in 0..32 {
                    let theta = ray as f32 * 0.19;
                    cast(p, &g, 12.0, 32.0, theta, &cfg(interpolate, intel));
                }
            });
            let warm = m.wall_cycles();
            m.run(|p| {
                for _pass in 0..3 {
                    for ray in 0..32 {
                        let theta = ray as f32 * 0.19;
                        cast(p, &g, 12.0, 32.0, theta, &cfg(interpolate, intel));
                    }
                }
            });
            m.wall_cycles() - warm
        };
        let plain = time(false, false);
        let interp = time(true, false);
        let interp_intel = time(true, true);
        assert!(interp > plain, "interpolation adds work: {interp} vs {plain}");
        assert!(
            interp_intel < interp,
            "Intel accel must recoup interpolation cost: {interp_intel} vs {interp}"
        );
    }

    #[test]
    fn max_range_when_no_obstacle() {
        let mut m = Machine::new(MachineConfig::tartan());
        let mut g = Grid2::generate(&mut m, 64, 64, 0, false, 1, MemPolicy::Normal);
        // Clear borders along the ray to force a max-range miss.
        for x in 0..64 {
            for y in 0..64 {
                g.poke(y * 64 + x, 0.0);
            }
        }
        let cfg = RayCastConfig {
            max_range: 20.0,
            ..RayCastConfig::new(VecMethod::Ovec)
        };
        let d = m.run(|p| cast(p, &g, 5.0, 5.0, 0.7, &cfg));
        assert_eq!(d, 20.0);
    }
}
