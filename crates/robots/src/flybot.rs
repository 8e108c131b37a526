//! FlyBot — an aerial drone (Pelican-like): LT multimodal perception,
//! Anytime A* planning whose expensive heuristic takes >74% of baseline
//! time (§III-B), and MPC control. Pipeline threads: 1 → 4 → 4 (Table I).
//! AXAR: the heuristic is offloaded to the NPU's 6/16/16/1 MLP with
//! software supervision (§V-F).

use tartan_kernels::control::Mpc;
use tartan_kernels::grid::Grid3;
use tartan_kernels::heuristics::{FlyHeuristic, WindField};
use tartan_kernels::perception::LtFilter;
use tartan_kernels::search::{anytime_astar, grid3_neighbors, GraphSearch};
use tartan_nn::{Loss, Mlp, Topology, Trainer};
use tartan_npu::SupervisedNpu;
use tartan_sim::telemetry::SupervisionCounters;
use tartan_sim::Machine;

use crate::{NeuralExec, Robot, Scale, SoftwareConfig};

/// The aerial robot.
pub struct FlyBot {
    software: SoftwareConfig,
    grid: Grid3,
    wind: WindField,
    search: GraphSearch,
    lt: LtFilter,
    mpc: Mpc,
    goals: Vec<usize>,
    goal_idx: usize,
    position: usize,
    npu: Option<SupervisedNpu>,
    axar_mlp: Option<Mlp>,
    heuristic_samples: usize,
    npu_scale: f32,
    total_rollbacks: u64,
    total_iterations: u64,
    cost_ratio_sum: f64,
    plans: u64,
}

impl FlyBot {
    /// Builds the robot, training the AXAR heuristic model at setup
    /// (asymmetric loss, L2 = 0.01, clip = 2.5; §V-F).
    pub fn new(machine: &mut Machine, software: SoftwareConfig, scale: Scale, seed: u64) -> Self {
        let (w, h, d) = scale.grid3;
        let grid = Grid3::generate(machine, w, h, d, (w * h) / 64, seed);
        let wind = WindField::generate(machine, &grid, seed ^ 0x5);
        let search = GraphSearch::new(machine, grid.len());

        // Goals: a photography circuit over free airspace.
        let goals: Vec<usize> = (0..4)
            .map(|i| {
                let gx = (w / 4 + (i % 2) * w / 2) as i64;
                let gy = (h / 4 + (i / 2) * h / 2) as i64;
                Self::free_above(&grid, gx, gy)
            })
            .collect();
        let position = Self::free_above(&grid, 2, 2);

        // --- offline AXAR training: states *and* goals are sampled so the
        // model generalizes across FlyBot's whole circuit (§V-F trains on a
        // map region distinct from the operational area) ---
        let (npu, axar_mlp, npu_scale) = if software.neural != NeuralExec::None {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            let mut max_h = 1.0f32;
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed ^ 0x33);
            let mut training_goals: Vec<usize> = goals.clone();
            for _ in 0..12 {
                training_goals.push(grid.idx(
                    rng.random_range(1..w as i64 - 1),
                    rng.random_range(1..h as i64 - 1),
                    rng.random_range(1..d as i64),
                ));
            }
            for round in 0..2000 {
                let goal = training_goals[round % training_goals.len()];
                let heur = FlyHeuristic::new(&grid, goal, scale.heuristic_samples);
                let s = grid.idx(
                    rng.random_range(0..w as i64),
                    rng.random_range(0..h as i64),
                    rng.random_range(1..d as i64),
                );
                // The model learns the *expensive integral term* only; the
                // trivial distance/climb terms stay on the CPU (§V-F).
                let target = heur.integral_untimed(&wind, s);
                max_h = max_h.max(target.abs());
                xs.push(heur.npu_inputs(s).to_vec());
                ys.push(vec![target]);
            }
            // Normalize targets to the unit range for training.
            for y in ys.iter_mut() {
                y[0] /= max_h;
            }
            let topo = Topology::new(&[6, 16, 16, 1]); // Table II
            let mut mlp = Mlp::new(&topo, seed ^ 0x44);
            Trainer::new(Loss::Asymmetric { alpha: 8.0 })
                .learning_rate(0.05)
                .l2(0.01)
                .clip_norm(2.5)
                .epochs(scale.train_epochs * 4)
                .fit(&mut mlp, &xs, &ys);
            if software.neural == NeuralExec::Npu {
                // Supervised attachment: detection + retry + CPU-exact
                // fallback make the heuristic stream fault-free.
                let npu = SupervisedNpu::attach(machine, mlp.clone())
                    .expect("NPU mode implies an NPU configuration");
                (Some(npu), Some(mlp), max_h)
            } else {
                (None, Some(mlp), max_h)
            }
        } else {
            (None, None, 1.0)
        };

        FlyBot {
            software,
            grid,
            wind,
            search,
            lt: LtFilter::new(),
            mpc: Mpc::default(),
            goals,
            goal_idx: 0,
            position,
            npu,
            axar_mlp,
            heuristic_samples: scale.heuristic_samples,
            npu_scale,
            total_rollbacks: 0,
            total_iterations: 0,
            cost_ratio_sum: 0.0,
            plans: 0,
        }
    }

    fn free_above(grid: &Grid3, x: i64, y: i64) -> usize {
        for z in 1..grid.depth() as i64 {
            if !grid.occupied(x, y, z) {
                return grid.idx(x, y, z);
            }
        }
        grid.idx(x, y, grid.depth() as i64 - 1)
    }

    /// AXAR rollback rate observed so far.
    pub fn rollback_rate(&self) -> f64 {
        if self.total_iterations == 0 {
            0.0
        } else {
            self.total_rollbacks as f64 / self.total_iterations as f64
        }
    }

    /// Mean final path cost across the plans so far. Comparing this value
    /// between the exact and AXAR configurations on the same seed yields
    /// Table II's "increased size of the final path" (0% in the paper).
    pub fn mean_final_cost(&self) -> f64 {
        if self.plans == 0 {
            0.0
        } else {
            self.cost_ratio_sum / self.plans as f64
        }
    }
}

impl Robot for FlyBot {
    fn name(&self) -> &'static str {
        "FlyBot"
    }

    fn bottleneck_phases(&self) -> &'static [&'static str] {
        &["heuristic", "communication"]
    }

    fn step(&mut self, machine: &mut Machine) {
        // Perception (1 thread): LT fusion of camera + lidar fixes.
        let lt = &mut self.lt;
        let wind = &self.wind;
        machine.run(|p| {
            let w = wind.load_wind(p, 4.0, 4.0, 2.0);
            lt.fuse(
                p,
                [10.0 + w[0], 10.0, 5.0],
                0.8,
                [10.0, 10.0 + w[1], 5.0],
                0.9,
            );
        });

        // Planning: Anytime A* with the expensive heuristic (ε = 8 … 1).
        let goal = self.goals[self.goal_idx];
        self.goal_idx = (self.goal_idx + 1) % self.goals.len();
        let heur = FlyHeuristic::new(&self.grid, goal, self.heuristic_samples);
        let grid = &self.grid;
        let search = &mut self.search;
        let start = self.position;
        let npu = self.npu.as_mut();
        let npu_scale = self.npu_scale;
        let neural = self.software.neural;
        let mlp = self.axar_mlp.as_ref();

        let result = machine.run(|p| {
            let wind = &self.wind;
            let mut h_exact =
                |p: &mut tartan_sim::Proc<'_>, s: usize| p.with_phase("heuristic", |p| heur.eval_exact(p, wind, s));
            match neural {
                NeuralExec::None => anytime_astar(
                    p,
                    search,
                    start,
                    goal,
                    8,
                    grid3_neighbors(grid),
                    &mut h_exact,
                    None,
                ),
                NeuralExec::Npu => {
                    let npu = npu.expect("NPU mode implies a device");
                    let heur = &heur;
                    let mut fast = move |p: &mut tartan_sim::Proc<'_>, s: usize| {
                        p.with_phase("heuristic", |p| heur.eval_supervised(p, npu, s, npu_scale))
                    };
                    anytime_astar(
                        p,
                        search,
                        start,
                        goal,
                        8,
                        grid3_neighbors(grid),
                        &mut h_exact,
                        Some(&mut fast),
                    )
                }
                NeuralExec::Software => {
                    let mlp = mlp.expect("trained at setup");
                    let heur = &heur;
                    let mut fast = move |p: &mut tartan_sim::Proc<'_>, s: usize| {
                        p.with_phase("heuristic", |p| {
                            let macs = mlp.topology().mac_count() as u64;
                            p.flop(2 * macs);
                            p.instr(2 * macs);
                            (mlp.forward(&heur.npu_inputs(s))[0] * npu_scale).max(0.0)
                        })
                    };
                    anytime_astar(
                        p,
                        search,
                        start,
                        goal,
                        8,
                        grid3_neighbors(grid),
                        &mut h_exact,
                        Some(&mut fast),
                    )
                }
            }
        });
        if let Some(r) = result {
            self.total_rollbacks += r.rollbacks;
            self.total_iterations += r.costs.len() as u64;
            let final_cost = *r.costs.last().expect("non-empty");
            self.cost_ratio_sum += final_cost;
            self.plans += 1;
            if let Some(&next) = r.path.get(1) {
                self.position = next;
            }
        }

        // Control (4 threads): one MPC per rotor group.
        let mpc = &self.mpc;
        machine.parallel(4, |tid, p| {
            let reference: Vec<f32> = (0..8).map(|k| (tid + k) as f32 * 0.05).collect();
            mpc.solve(p, 0.0, &reference);
        });
    }

    fn quality(&self) -> f64 {
        self.mean_final_cost()
    }

    fn supervision(&self) -> Option<SupervisionCounters> {
        self.npu.as_ref().map(|npu| npu.counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan_sim::MachineConfig;

    #[test]
    fn heuristic_dominates_baseline() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let mut bot = FlyBot::new(&mut m, SoftwareConfig::legacy(), Scale::small(), 11);
        bot.run(&mut m, 2);
        let frac = m.stats().phase_fraction("heuristic");
        assert!(frac > 0.5, "heuristic fraction {frac}"); // paper: >74%
    }

    #[test]
    fn axar_accelerates_with_rare_rollbacks() {
        let run = |sw: SoftwareConfig| {
            let mut m = Machine::new(MachineConfig::tartan());
            let sw = sw.effective(m.config());
            let mut bot = FlyBot::new(&mut m, sw, Scale::small(), 11);
            bot.run(&mut m, 3);
            (m.wall_cycles(), bot.rollback_rate())
        };
        let (t_exact, _) = run(SoftwareConfig::optimized());
        let (t_axar, rollbacks) = run(SoftwareConfig::approximable());
        assert!(t_axar < t_exact, "AXAR {t_axar} vs exact {t_exact}");
        // §VIII-B: the asymmetric loss makes overestimation rollbacks rare.
        assert!(rollbacks < 0.35, "rollback rate {rollbacks}");
    }

    #[test]
    fn flybot_reaches_toward_goals() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let mut bot = FlyBot::new(&mut m, SoftwareConfig::legacy(), Scale::small(), 11);
        let before = bot.position;
        bot.run(&mut m, 2);
        assert_ne!(bot.position, before, "the drone must move");
    }

    /// Golden bit-identity: the small-scale, seed-42 AXAR fit (6/16/16/1,
    /// asymmetric loss, L2 and clipping) must keep these exact bits.
    #[test]
    fn golden_axar_bits() {
        let mut m = Machine::new(MachineConfig::tartan());
        let sw = SoftwareConfig::approximable().effective(m.config());
        let bot = FlyBot::new(&mut m, sw, Scale::small(), 42);
        let mlp = bot
            .axar_mlp
            .as_ref()
            .expect("approximable software trains AXAR")
            .fingerprint();
        assert_eq!(
            mlp, 0x34f9_639d_862a_3b5b,
            "trained AXAR model changed: {mlp:#018x}"
        );
    }
}
