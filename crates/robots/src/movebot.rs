//! MoveBot — a manipulator arm (LoCoBot-like): RRT planning whose NNS is
//! the bottleneck once CCCD is parallelized over 8 threads (§III-B), plus
//! PID joint control. Pipeline threads: 1 → 8 → 1 (Table I).

use std::cell::{Cell, RefCell};

use tartan_kernels::collision::{Cuboid, ObstacleSet};
use tartan_kernels::control::Pid;
use tartan_kernels::rrt::{Rrt, RrtConfig};
use tartan_nns::{dist_sq, DynBrute, DynKdTree, DynLsh, DynNns, DynPointStore, LshConfig};
use tartan_npu::{IterationVerdict, NnsSupervisor, Supervisor};
use tartan_sim::telemetry::SupervisionCounters;
use tartan_sim::{Event, Interest, Machine, Proc};

use crate::{NnsKind, Robot, Scale, SoftwareConfig};

/// A [`DynNns`] adapter implementing the candidate-set verification
/// supervisor ([`NnsSupervisor`]): every candidate an approximate engine
/// returns is compared against a cheap exactly-scanned witness subset of
/// the store. A witness closer than the candidate proves the candidate set
/// missed a nearer point, and the query rolls back to an exact scan — so
/// an approximate (or fault-perturbed) engine can cost cycles but cannot
/// silently degrade neighbor quality below the witness bound.
struct VerifiedNns {
    inner: Box<dyn DynNns>,
    /// Verification off = transparent pass-through (exact engines verify
    /// themselves; wrapping them would only add witness loads).
    verify: bool,
    sup: RefCell<NnsSupervisor>,
}

impl VerifiedNns {
    const WITNESSES: usize = 8;

    fn new(inner: Box<dyn DynNns>, verify: bool) -> Self {
        VerifiedNns {
            inner,
            verify,
            // Witness distances are computed with the same dist_sq the
            // candidate uses, so a valid candidate's margin is exactly ≤ 0.
            sup: RefCell::new(NnsSupervisor::new(1e-6)),
        }
    }

    fn counters(&self) -> (u64, u64) {
        let s = self.sup.borrow();
        (s.checks(), s.rollbacks())
    }

    /// Best distance over an exactly-scanned strided witness subset.
    fn witness_best(p: &mut Proc<'_>, store: &DynPointStore, query: &[f32]) -> f32 {
        let stride = (store.len() / Self::WITNESSES).max(1);
        let mut best = f32::INFINITY;
        for i in (0..store.len()).step_by(stride).take(Self::WITNESSES) {
            let pt = store.load_point(p, i);
            let d = dist_sq(pt, query);
            p.flop(3 * store.dim() as u64);
            p.instr(2);
            if d < best {
                best = d;
            }
        }
        best
    }
}

impl DynNns for VerifiedNns {
    fn insert(&mut self, p: &mut Proc<'_>, store: &DynPointStore, idx: usize) {
        self.inner.insert(p, store, idx);
    }

    fn nearest(&self, p: &mut Proc<'_>, store: &DynPointStore, query: &[f32]) -> Option<usize> {
        let candidate = self.inner.nearest(p, store, query)?;
        if !self.verify {
            return Some(candidate);
        }
        let cand_d = dist_sq(store.load_point(p, candidate), query);
        let margin = f64::from(cand_d - Self::witness_best(p, store, query));
        // Bind the verdict first: a match scrutinee's borrow_mut guard
        // would live across the rollback arm's second borrow.
        let verdict = self.sup.borrow_mut().check(margin);
        if p.wants_telemetry(Interest::NPU) {
            p.emit_telemetry(&Event::NpuVerdict {
                cycle: p.telemetry_cycle(),
                accepted: matches!(verdict, IterationVerdict::Accept),
            });
        }
        match verdict {
            IterationVerdict::Accept => Some(candidate),
            IterationVerdict::Rollback => {
                let exact = DynBrute::new().nearest(p, store, query);
                let _ = self.sup.borrow_mut().record_recovery(0.0);
                exact
            }
        }
    }

    fn name(&self) -> &'static str {
        "Verified"
    }
}

/// The manipulator robot.
pub struct MoveBot {
    software: SoftwareConfig,
    obstacles: ObstacleSet,
    obstacle_spheres: Vec<([f32; 3], f32)>,
    rrt_nodes: usize,
    seed: u64,
    step_count: u64,
    pids: Vec<Pid>,
    planned: u64,
    solved: u64,
    last_path_len: usize,
    cccd_threads: usize,
    nns_checks: u64,
    nns_rollbacks: u64,
}

impl MoveBot {
    /// Builds the robot: a cluttered 3-DoF workspace.
    pub fn new(machine: &mut Machine, software: SoftwareConfig, scale: Scale, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // Obstacles: cuboids in the unit workspace (kept away from the
        // start/goal corners so problems stay solvable).
        let mut cubes = Vec::new();
        let mut spheres = Vec::new();
        for _ in 0..96 {
            let c: Vec<f32> = (0..3).map(|_| rng.random_range(0.25f32..0.75)).collect();
            let r = rng.random_range(0.02f32..0.06);
            cubes.push(Cuboid::new(
                [c[0] - r, c[1] - r, c[2] - r],
                [c[0] + r, c[1] + r, c[2] + r],
            ));
            spheres.push(([c[0], c[1], c[2]], r * 1.2));
        }
        let obstacles = ObstacleSet::new(machine, &cubes);
        MoveBot {
            software,
            obstacles,
            obstacle_spheres: spheres,
            rrt_nodes: scale.rrt_nodes,
            seed,
            step_count: 0,
            pids: (0..3).map(|_| Pid::new(0.9, 0.02, 0.1)).collect(),
            planned: 0,
            solved: 0,
            last_path_len: 0,
            cccd_threads: 8,
            nns_checks: 0,
            nns_rollbacks: 0,
        }
    }

    /// Fraction of planning queries solved.
    pub fn success_rate(&self) -> f64 {
        if self.planned == 0 {
            1.0
        } else {
            self.solved as f64 / self.planned as f64
        }
    }

    fn make_engine(&self, machine: &mut Machine) -> Box<dyn DynNns> {
        match self.software.nns {
            NnsKind::Brute => Box::new(DynBrute::new()),
            NnsKind::KdTree => Box::new(DynKdTree::new(machine, self.rrt_nodes + 8)),
            NnsKind::Flann => Box::new(DynLsh::new(
                machine,
                3,
                self.rrt_nodes + 8,
                LshConfig::flann(0.5),
            )),
            NnsKind::Vln => Box::new(DynLsh::new(
                machine,
                3,
                self.rrt_nodes + 8,
                LshConfig::vln(0.5),
            )),
        }
    }

    /// Untimed functional collision verdict for an arm configuration.
    fn config_collides(&self, cfg: &[f32]) -> bool {
        self.obstacle_spheres.iter().any(|(c, r)| {
            let d: f32 = cfg.iter().zip(c.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
            d.sqrt() < *r
        })
    }
}

impl Robot for MoveBot {
    fn name(&self) -> &'static str {
        "MoveBot"
    }

    fn bottleneck_phases(&self) -> &'static [&'static str] {
        &["nns"]
    }

    fn step(&mut self, machine: &mut Machine) {
        self.step_count += 1;
        // Perception (1 thread): sense/update the obstacle bounds.
        let obstacles = &self.obstacles;
        machine.run(|p| {
            let n = obstacles.len();
            let link = Cuboid::new([0.0; 3], [0.02; 3]);
            obstacles.cccd(p, &link, 0, n, true);
        });

        // Planning (8 threads): RRT on thread 0; CCCD fans out so each
        // thread scans 1/8 of the obstacles per collision query (§III-B).
        // Approximate engines run under candidate-set verification; exact
        // ones pass through untouched.
        let verify = matches!(self.software.nns, NnsKind::Flann | NnsKind::Vln);
        let mut engine = VerifiedNns::new(self.make_engine(machine), verify);
        let mut rrt = Rrt::new(
            machine,
            &[0.0; 3],
            &[1.0; 3],
            RrtConfig {
                max_nodes: self.rrt_nodes,
                step: 0.06,
                goal_bias: 0.1,
                goal_tolerance: 0.08,
                seed: self.seed ^ self.step_count,
            },
        );
        let start = [0.1f32, 0.1, 0.1];
        let goal = [0.9f32, 0.85, 0.9];
        let checks = Cell::new(0u64);
        let n_obs = self.obstacles.len();
        let slice = n_obs / self.cccd_threads;
        let threads = self.cccd_threads;
        let this = &*self;
        let mut found = false;
        let mut path_len = 0usize;
        machine.parallel(threads, |tid, p| {
            if tid == 0 {
                let result = rrt.plan(p, &start, &goal, &mut engine, |pp, probe| {
                    checks.set(checks.get() + 1);
                    // Timed: this thread's obstacle slice; the functional
                    // verdict covers the full set.
                    let link = Cuboid::new(
                        [probe[0] - 0.02, probe[1] - 0.02, probe[2] - 0.02],
                        [probe[0] + 0.02, probe[1] + 0.02, probe[2] + 0.02],
                    );
                    this.obstacles.cccd(pp, &link, 0, slice, true);
                    this.config_collides(probe)
                });
                if let Some(path) = result {
                    found = true;
                    path_len = path.len();
                }
            } else {
                // Worker threads replay their slice of every CCCD query.
                let n = checks.get();
                let link = Cuboid::new([0.0; 3], [0.04; 3]);
                p.with_phase("collision", |p| {
                    for _ in 0..n {
                        this.obstacles.cccd(p, &link, tid * slice, (tid + 1) * slice, true);
                    }
                });
            }
        });
        let (checks, rollbacks) = engine.counters();
        self.nns_checks += checks;
        self.nns_rollbacks += rollbacks;
        self.planned += 1;
        if found {
            self.solved += 1;
            self.last_path_len = path_len;
        }

        // Control (1 thread): PID tracking of the first path segment.
        let pids = &mut self.pids;
        machine.run(|p| {
            for pid in pids.iter_mut() {
                for _ in 0..10 {
                    let _ = pid.step(p, 0.05, 0.02);
                }
            }
        });
    }

    fn quality(&self) -> f64 {
        1.0 - self.success_rate()
    }

    fn supervision(&self) -> Option<SupervisionCounters> {
        // Candidate-set verification: every check is one supervised query;
        // every rollback re-runs the query exactly on the CPU.
        (self.nns_checks > 0).then_some(SupervisionCounters {
            invocations: self.nns_checks,
            rollbacks: self.nns_rollbacks,
            cpu_fallbacks: self.nns_rollbacks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan_sim::MachineConfig;

    #[test]
    fn movebot_plans_successfully() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let mut bot = MoveBot::new(&mut m, SoftwareConfig::legacy(), Scale::small(), 5);
        bot.run(&mut m, 2);
        assert!(bot.success_rate() > 0.0, "no plans solved");
    }

    #[test]
    fn nns_is_the_parallelized_bottleneck() {
        // §III-B: with CCCD parallelized, NNS consumes ~45% of time.
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let mut bot = MoveBot::new(&mut m, SoftwareConfig::legacy(), Scale::small(), 5);
        bot.run(&mut m, 2);
        let stats = m.stats();
        let nns = stats.phase_fraction("nns");
        assert!(nns > 0.25, "nns fraction {nns}");
    }

    #[test]
    fn vln_software_cuts_nns_time() {
        // At the small test scale the trees are short, so compare the NNS
        // phase itself (the robot-scale end-to-end win is exercised by the
        // Fig. 9 harness at paper scale).
        let run = |nns: NnsKind| {
            let mut m = Machine::new(MachineConfig::upgraded_baseline());
            let sw = SoftwareConfig {
                nns,
                ..SoftwareConfig::legacy()
            };
            let mut bot = MoveBot::new(&mut m, sw, Scale::small(), 5);
            bot.run(&mut m, 2);
            (m.stats().phase_cycles("nns"), bot.success_rate())
        };
        let (brute_nns, brute_ok) = run(NnsKind::Brute);
        let (vln_nns, vln_ok) = run(NnsKind::Vln);
        assert!(
            vln_nns < brute_nns,
            "VLN nns {vln_nns} vs brute nns {brute_nns}"
        );
        assert!(vln_ok > 0.0 && brute_ok > 0.0);
    }
}
