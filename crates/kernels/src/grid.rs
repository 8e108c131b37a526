//! Occupancy grids (2-D and 3-D) in simulated memory, with seeded
//! environment generators that control obstacle density — the
//! sparse/dense heterogeneity ANL exploits (§VI-D).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use tartan_sim::{Buffer, Machine, MemPolicy, Proc};

/// Program counter for scalar grid occupancy loads.
pub const PC_GRID_LOAD: u64 = 0x7_1000;

/// Occupancy threshold: cells with probability above this are obstacles.
pub const OCCUPIED: f32 = 0.5;

/// A 2-D occupancy grid, row-major (`idx = y * width + x`), each cell an
/// occupation probability in `[0, 1]`.
#[derive(Debug)]
pub struct Grid2 {
    width: usize,
    height: usize,
    data: Buffer<f32>,
}

impl Grid2 {
    /// Wraps explicit cell data.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len() != width * height` or a dimension is zero.
    pub fn from_cells(
        machine: &mut Machine,
        width: usize,
        height: usize,
        cells: Vec<f32>,
        policy: MemPolicy,
    ) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        assert_eq!(cells.len(), width * height, "cell count mismatch");
        Grid2 {
            width,
            height,
            data: machine.buffer_from_vec(cells, policy),
        }
    }

    /// Generates a seeded indoor-style environment: walls around the
    /// border plus `obstacles` random axis-aligned boxes. `dense_left`
    /// additionally clutters the left half with small obstacles, creating
    /// the sparse/dense split that differentiates region densities.
    pub fn generate(
        machine: &mut Machine,
        width: usize,
        height: usize,
        obstacles: usize,
        dense_left: bool,
        seed: u64,
        policy: MemPolicy,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cells = vec![0.0; width * height];
        for x in 0..width {
            cells[x] = 1.0;
            cells[(height - 1) * width + x] = 1.0;
        }
        for y in 0..height {
            cells[y * width] = 1.0;
            cells[y * width + width - 1] = 1.0;
        }
        let place = |rng: &mut StdRng, x_lo: usize, x_hi: usize, max_side: usize, cells: &mut Vec<f32>| {
            let w = rng.random_range(1..=max_side);
            let h = rng.random_range(1..=max_side);
            let x = rng.random_range(x_lo..x_hi.saturating_sub(w).max(x_lo + 1));
            let y = rng.random_range(1..height.saturating_sub(h).max(2));
            for yy in y..(y + h).min(height - 1) {
                for xx in x..(x + w).min(width - 1) {
                    cells[yy * width + xx] = 1.0;
                }
            }
        };
        for _ in 0..obstacles {
            place(&mut rng, 1, width - 1, (width / 12).max(2), &mut cells);
        }
        if dense_left {
            for _ in 0..obstacles * 3 {
                place(&mut rng, 1, width / 2, 2, &mut cells);
            }
        }
        Self::from_cells(machine, width, height, cells, policy)
    }

    /// Grid width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Whether the grid has no cells (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Simulated base address of cell 0.
    pub fn base_addr(&self) -> u64 {
        self.data.base_addr()
    }

    /// The caching policy of the backing buffer.
    pub fn policy(&self) -> MemPolicy {
        self.data.policy()
    }

    /// Flattened index of `(x, y)`; out-of-bounds coordinates clamp to the
    /// border (which is always occupied).
    pub fn idx(&self, x: i64, y: i64) -> usize {
        let x = x.clamp(0, self.width as i64 - 1) as usize;
        let y = y.clamp(0, self.height as i64 - 1) as usize;
        y * self.width + x
    }

    /// Untimed occupancy probability of a flattened index.
    pub fn peek(&self, idx: usize) -> f32 {
        self.data.peek(idx.min(self.len() - 1))
    }

    /// Untimed occupancy test.
    pub fn occupied(&self, x: i64, y: i64) -> bool {
        self.peek(self.idx(x, y)) > OCCUPIED
    }

    /// Timed scalar, *dependent* occupancy load (the walk cannot continue
    /// before knowing the cell).
    pub fn load_dep(&self, p: &mut Proc<'_>, idx: usize) -> f32 {
        self.data.get_dep(p, PC_GRID_LOAD, idx.min(self.len() - 1))
    }

    /// Timed independent occupancy load.
    pub fn load(&self, p: &mut Proc<'_>, idx: usize) -> f32 {
        self.data.get(p, PC_GRID_LOAD, idx.min(self.len() - 1))
    }

    /// Simulated address of the cell [`Grid2::load`] would touch for
    /// `(x, y)` — the building block for batched address-stream walks
    /// (`Proc::run_mem_addrs`). `idx` clamps to the border, so the address
    /// is always in bounds and matches `load`'s `idx.min(len - 1)` exactly.
    pub fn cell_addr(&self, x: i64, y: i64) -> u64 {
        self.data.addr_of(self.idx(x, y))
    }

    /// Timed store (map updates, POM fusion).
    pub fn store(&mut self, p: &mut Proc<'_>, idx: usize, value: f32) {
        let i = idx.min(self.len() - 1);
        self.data.set(p, PC_GRID_LOAD, i, value);
    }

    /// Untimed store (environment setup).
    pub fn poke(&mut self, idx: usize, value: f32) {
        let i = idx.min(self.len() - 1);
        self.data.poke(i, value);
    }

    /// Fraction of occupied cells (diagnostics).
    pub fn occupancy_ratio(&self) -> f64 {
        let occ = self.data.as_slice().iter().filter(|&&c| c > OCCUPIED).count();
        occ as f64 / self.len() as f64
    }
}

/// A 3-D occupancy grid for aerial planning (FlyBot), row-major
/// (`idx = (z * height + y) * width + x`).
#[derive(Debug)]
pub struct Grid3 {
    width: usize,
    height: usize,
    depth: usize,
    data: Buffer<f32>,
}

impl Grid3 {
    /// Generates a seeded outdoor-style 3-D environment with `pillars`
    /// vertical obstacles of random height (buildings/trees).
    pub fn generate(
        machine: &mut Machine,
        width: usize,
        height: usize,
        depth: usize,
        pillars: usize,
        seed: u64,
    ) -> Self {
        assert!(
            width > 0 && height > 0 && depth > 0,
            "grid dimensions must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cells = vec![0.0; width * height * depth];
        // Ground plane.
        for y in 0..height {
            for x in 0..width {
                cells[y * width + x] = 1.0;
            }
        }
        for _ in 0..pillars {
            let x = rng.random_range(1..width - 1);
            let y = rng.random_range(1..height - 1);
            let top = rng.random_range(1..depth);
            let r = rng.random_range(1usize..3);
            for z in 0..top {
                for yy in y.saturating_sub(r)..(y + r).min(height) {
                    for xx in x.saturating_sub(r)..(x + r).min(width) {
                        cells[(z * height + yy) * width + xx] = 1.0;
                    }
                }
            }
        }
        Grid3 {
            width,
            height,
            depth,
            data: machine.buffer_from_vec(cells, MemPolicy::Normal),
        }
    }

    /// Grid width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Grid depth (z) in cells.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.width * self.height * self.depth
    }

    /// Whether the grid has no cells (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattened index with border clamping.
    pub fn idx(&self, x: i64, y: i64, z: i64) -> usize {
        let x = x.clamp(0, self.width as i64 - 1) as usize;
        let y = y.clamp(0, self.height as i64 - 1) as usize;
        let z = z.clamp(0, self.depth as i64 - 1) as usize;
        (z * self.height + y) * self.width + x
    }

    /// Untimed occupancy test.
    pub fn occupied(&self, x: i64, y: i64, z: i64) -> bool {
        self.data.peek(self.idx(x, y, z)) > OCCUPIED
    }

    /// Timed independent load.
    pub fn load(&self, p: &mut Proc<'_>, idx: usize) -> f32 {
        self.data.get(p, PC_GRID_LOAD, idx.min(self.len() - 1))
    }

    /// Timed dependent load.
    pub fn load_dep(&self, p: &mut Proc<'_>, idx: usize) -> f32 {
        self.data.get_dep(p, PC_GRID_LOAD, idx.min(self.len() - 1))
    }

    /// Simulated address of the cell behind `(x, y, z)`, clamped like
    /// [`Grid3::idx`] (see [`Grid2::cell_addr`]).
    pub fn cell_addr(&self, x: i64, y: i64, z: i64) -> u64 {
        self.data.addr_of(self.idx(x, y, z))
    }

    /// Simulated base address.
    pub fn base_addr(&self) -> u64 {
        self.data.base_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan_sim::MachineConfig;

    #[test]
    fn generated_grid_has_walls() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let g = Grid2::generate(&mut m, 64, 64, 10, false, 1, MemPolicy::Normal);
        assert!(g.occupied(0, 0));
        assert!(g.occupied(63, 63));
        assert!(g.occupied(0, 30));
        let ratio = g.occupancy_ratio();
        assert!(ratio > 0.05 && ratio < 0.7, "ratio {ratio}");
    }

    #[test]
    fn dense_left_is_denser() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let g = Grid2::generate(&mut m, 128, 128, 20, true, 2, MemPolicy::Normal);
        let count = |x_lo: i64, x_hi: i64| {
            let mut c = 0;
            for y in 1..127 {
                for x in x_lo..x_hi {
                    if g.occupied(x, y) {
                        c += 1;
                    }
                }
            }
            c
        };
        assert!(count(1, 64) > count(64, 127));
    }

    #[test]
    fn out_of_bounds_clamps_to_border() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let g = Grid2::generate(&mut m, 32, 32, 0, false, 3, MemPolicy::Normal);
        assert!(g.occupied(-5, 10));
        assert!(g.occupied(100, 10));
    }

    #[test]
    fn generation_is_deterministic() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let a = Grid2::generate(&mut m, 64, 64, 15, true, 7, MemPolicy::Normal);
        let b = Grid2::generate(&mut m, 64, 64, 15, true, 7, MemPolicy::Normal);
        for i in 0..a.len() {
            assert_eq!(a.peek(i), b.peek(i));
        }
    }

    #[test]
    fn grid3_pillars_rise_from_ground() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let g = Grid3::generate(&mut m, 32, 32, 16, 10, 4);
        // Ground occupied everywhere.
        for x in 0..32 {
            assert!(g.occupied(x, 5, 0));
        }
        // Sky mostly free at top layer.
        let mut free = 0;
        for y in 0..32 {
            for x in 0..32 {
                if !g.occupied(x, y, 15) {
                    free += 1;
                }
            }
        }
        assert!(free > 800);
    }

    #[test]
    fn timed_loads_advance_the_clock() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let g = Grid2::generate(&mut m, 32, 32, 5, false, 5, MemPolicy::Normal);
        m.run(|p| {
            g.load_dep(p, 100);
        });
        assert!(m.wall_cycles() > 100, "cold dependent miss expected");
    }
}
