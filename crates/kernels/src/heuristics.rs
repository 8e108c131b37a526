//! FlyBot's expensive planning heuristic (§V-F): estimated cost-to-goal
//! combining aerodynamic drag, altitude change, and wind influence, the
//! latter two integrated along the line of flight — plus its NPU-offloaded
//! AXAR replacement.

use tartan_npu::SupervisedNpu;
use tartan_sim::{AccelId, Buffer, Machine, MemPolicy, Proc};

use crate::grid::Grid3;

const PC_WIND: u64 = 0x7_5000;

/// The 3-D wind/energy field FlyBot plans through: one `(wx, wy, wz)`
/// triple per coarse cell.
#[derive(Debug)]
pub struct WindField {
    width: usize,
    height: usize,
    depth: usize,
    data: Buffer<f32>,
}

impl WindField {
    /// Generates a smooth, seeded wind field over the grid's dimensions.
    pub fn generate(machine: &mut Machine, grid: &Grid3, seed: u64) -> Self {
        let (w, h, d) = (grid.width(), grid.height(), grid.depth());
        let mut data = Vec::with_capacity(w * h * d * 3);
        let s = seed as f32 * 0.1;
        for z in 0..d {
            for y in 0..h {
                for x in 0..w {
                    let (xf, yf, zf) = (x as f32, y as f32, z as f32);
                    data.push(0.4 * ((xf * 0.21 + s).sin() + (yf * 0.13).cos()));
                    data.push(0.4 * ((yf * 0.17 - s).sin() + (zf * 0.23).cos()));
                    data.push(0.2 * ((zf * 0.11 + xf * 0.07).sin()));
                }
            }
        }
        WindField {
            width: w,
            height: h,
            depth: d,
            data: machine.buffer_from_vec(data, MemPolicy::Normal),
        }
    }

    fn idx(&self, x: f32, y: f32, z: f32) -> usize {
        let xi = (x as usize).min(self.width - 1);
        let yi = (y as usize).min(self.height - 1);
        let zi = (z as usize).min(self.depth - 1);
        ((zi * self.height + yi) * self.width + xi) * 3
    }

    /// Untimed wind vector at a position.
    pub fn wind_at(&self, x: f32, y: f32, z: f32) -> [f32; 3] {
        let i = self.idx(x, y, z);
        let s = self.data.as_slice();
        [s[i], s[i + 1], s[i + 2]]
    }

    /// Timed wind sample (one 3-element address run; charge-identical to
    /// three scalar gets).
    pub fn load_wind(&self, p: &mut Proc<'_>, x: f32, y: f32, z: f32) -> [f32; 3] {
        let i = self.idx(x, y, z);
        let s = self.data.get_run(p, PC_WIND, i, 3, 0);
        [s[0], s[1], s[2]]
    }
}

/// FlyBot's heuristic over a [`Grid3`] state space.
///
/// The cost-to-goal estimate is the Euclidean distance inflated by
/// (i) a drag term quadratic in the implied airspeed, (ii) an altitude
/// penalty for climbs, and (iii) the headwind component integrated over
/// `samples` points along the straight line to the goal. Terms (i) and
/// (iii) are the expensive part (§V-F).
#[derive(Debug)]
pub struct FlyHeuristic {
    width: usize,
    height: usize,
    goal: [f32; 3],
    /// Integration sample count along the line (the knob that makes the
    /// exact heuristic expensive).
    pub samples: usize,
    /// Deflation factor keeping the estimate (near-)admissible.
    pub deflate: f32,
}

impl FlyHeuristic {
    /// Creates the heuristic toward `goal` (a flattened grid index).
    pub fn new(grid: &Grid3, goal: usize, samples: usize) -> Self {
        let w = grid.width();
        let h = grid.height();
        let gx = (goal % w) as f32;
        let gy = ((goal / w) % h) as f32;
        let gz = (goal / (w * h)) as f32;
        FlyHeuristic {
            width: w,
            height: h,
            goal: [gx, gy, gz],
            samples,
            deflate: 0.8,
        }
    }

    fn coords(&self, state: usize) -> [f32; 3] {
        let x = (state % self.width) as f32;
        let y = ((state / self.width) % self.height) as f32;
        let z = (state / (self.width * self.height)) as f32;
        [x, y, z]
    }

    /// The cheap closed-form pieces: Euclidean distance and climb (§V-F:
    /// "calculating (ii) is simple").
    fn cheap_parts(&self, s: &[f32; 3]) -> (f32, f32) {
        let d = [self.goal[0] - s[0], self.goal[1] - s[1], self.goal[2] - s[2]];
        let dist = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        let climb = (self.goal[2] - s[2]).max(0.0);
        (dist, climb)
    }

    /// Combines the cheap parts with the (exact or predicted) drag/wind
    /// integral into the heuristic value.
    pub fn compose(&self, dist: f32, climb: f32, integral: f32) -> f32 {
        (self.deflate * (dist * (1.0 + 0.3 * integral.max(0.0)) + 0.5 * climb)).max(0.0)
    }

    /// The expensive drag/wind integral along the straight line to the
    /// goal; `sample` provides the wind (timed or untimed).
    fn integral_shape(
        &self,
        s: &[f32; 3],
        mut sample: impl FnMut(f32, f32, f32) -> [f32; 3],
    ) -> f32 {
        let d = [self.goal[0] - s[0], self.goal[1] - s[1], self.goal[2] - s[2]];
        let dist = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        if dist < 1e-6 {
            return 0.0;
        }
        let dir = [d[0] / dist, d[1] / dist, d[2] / dist];
        let mut integral = 0.0f32;
        for k in 0..self.samples {
            let t = (k as f32 + 0.5) / self.samples as f32;
            let (x, y, z) = (s[0] + d[0] * t, s[1] + d[1] * t, s[2] + d[2] * t);
            let w = sample(x, y, z);
            let headwind = -(w[0] * dir[0] + w[1] * dir[1] + w[2] * dir[2]);
            let drag = 0.05 * (1.0 + headwind).max(0.0).powi(2);
            integral += (headwind.max(-0.5) + drag) / self.samples as f32;
        }
        integral
    }

    /// The untimed exact integral (training targets, verification).
    pub fn integral_untimed(&self, wind: &WindField, state: usize) -> f32 {
        let s = self.coords(state);
        self.integral_shape(&s, |x, y, z| wind.wind_at(x, y, z))
    }

    /// Exact evaluation (timed): the expensive CPU version. Each sample
    /// pays three wind loads, the headwind/drag arithmetic, and the
    /// drag-equilibrium Newton refinement (\[83\]-style per-step
    /// optimization) that makes this heuristic dominate FlyBot's time.
    pub fn eval_exact(&self, p: &mut Proc<'_>, wind: &WindField, state: usize) -> f32 {
        let s = self.coords(state);
        p.flop(14); // distance + direction setup
        let integral = self.integral_shape(&s, |x, y, z| {
            let w = wind.load_wind(p, x, y, z);
            p.flop(14); // headwind projection + drag
            p.flop(110); // drag-equilibrium Newton iterations
            w
        });
        p.flop(8);
        let (dist, climb) = self.cheap_parts(&s);
        self.compose(dist, climb, integral)
    }

    /// Untimed evaluation (training-data generation, verification).
    pub fn eval_untimed(&self, wind: &WindField, state: usize) -> f32 {
        let s = self.coords(state);
        let (dist, climb) = self.cheap_parts(&s);
        let integral = self.integral_shape(&s, |x, y, z| wind.wind_at(x, y, z));
        self.compose(dist, climb, integral)
    }

    /// NPU evaluation (AXAR): the CPU computes the cheap distance/climb
    /// terms; the accelerator predicts the expensive integral from
    /// `(x, y, z, gx, gy, gz)`; `scale` de-normalizes the model output.
    pub fn eval_npu(
        &self,
        p: &mut Proc<'_>,
        accel: AccelId,
        state: usize,
        scale: f32,
    ) -> f32 {
        let s = self.coords(state);
        p.flop(14); // the cheap parts stay on the CPU
        let inputs = self.npu_inputs_for(&s);
        let mut out = Vec::with_capacity(1);
        p.invoke_accel(accel, &inputs, &mut out);
        let (dist, climb) = self.cheap_parts(&s);
        self.compose(dist, climb, out[0] * scale)
    }

    /// [`eval_npu`](Self::eval_npu) through a [`SupervisedNpu`]: identical
    /// math, but injected accelerator faults are detected and repaired
    /// before the prediction reaches the search, so a fault campaign
    /// cannot perturb the heuristic stream (only its timing).
    pub fn eval_supervised(
        &self,
        p: &mut Proc<'_>,
        npu: &mut SupervisedNpu,
        state: usize,
        scale: f32,
    ) -> f32 {
        let s = self.coords(state);
        p.flop(14); // the cheap parts stay on the CPU
        let inputs = self.npu_inputs_for(&s);
        let out = npu.invoke(p, &inputs);
        let (dist, climb) = self.cheap_parts(&s);
        self.compose(dist, climb, out[0] * scale)
    }

    /// The normalized NPU input vector for a state (also used to build the
    /// training set).
    pub fn npu_inputs(&self, state: usize) -> [f32; 6] {
        let s = self.coords(state);
        self.npu_inputs_for(&s)
    }

    fn npu_inputs_for(&self, s: &[f32; 3]) -> [f32; 6] {
        let n = self.width.max(self.height) as f32;
        [
            s[0] / n,
            s[1] / n,
            s[2] / n,
            self.goal[0] / n,
            self.goal[1] / n,
            self.goal[2] / n,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan_sim::MachineConfig;

    fn setup(m: &mut Machine) -> (Grid3, WindField) {
        let g = Grid3::generate(m, 32, 32, 12, 8, 3);
        let w = WindField::generate(m, &g, 7);
        (g, w)
    }

    #[test]
    fn zero_at_the_goal_and_positive_elsewhere() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let (g, w) = setup(&mut m);
        let goal = g.idx(20, 20, 8);
        let h = FlyHeuristic::new(&g, goal, 16);
        assert_eq!(h.eval_untimed(&w, goal), 0.0);
        assert!(h.eval_untimed(&w, g.idx(2, 2, 2)) > 0.0);
    }

    #[test]
    fn timed_and_untimed_agree() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let (g, w) = setup(&mut m);
        let goal = g.idx(25, 10, 9);
        let h = FlyHeuristic::new(&g, goal, 16);
        m.run(|p| {
            for state in [g.idx(1, 1, 1), g.idx(12, 20, 4), g.idx(30, 30, 11)] {
                assert_eq!(h.eval_exact(p, &w, state), h.eval_untimed(&w, state));
            }
        });
    }

    #[test]
    fn exact_evaluation_is_expensive() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let (g, w) = setup(&mut m);
        let h = FlyHeuristic::new(&g, g.idx(30, 30, 10), 16);
        let before = m.stats().instructions;
        m.run(|p| {
            h.eval_exact(p, &w, g.idx(1, 1, 1));
        });
        let instr = m.stats().instructions - before;
        assert!(instr > 200, "expensive heuristic, got {instr} instructions");
    }

    #[test]
    fn roughly_tracks_distance() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let (g, w) = setup(&mut m);
        let goal = g.idx(30, 30, 10);
        let h = FlyHeuristic::new(&g, goal, 16);
        let near = h.eval_untimed(&w, g.idx(28, 28, 10));
        let far = h.eval_untimed(&w, g.idx(2, 2, 2));
        assert!(far > near);
    }
}
