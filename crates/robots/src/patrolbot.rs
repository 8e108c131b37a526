//! PatrolBot — a patrol wheeled robot (Pioneer 3-DX-like): MobileNet-style
//! object detection (93% of baseline time, §III-B), EKF localization, and
//! pure-pursuit control. Four inference threads run in parallel with the
//! pipeline (Table I: 1 → 1 → 1 ‖ 4).

use tartan_kernels::control::{pure_pursuit, WaypointPath};
use tartan_kernels::ekf::{Ekf, LandmarkMap};
use tartan_kernels::perception::{synthetic_image, CnnModel, MlpClassifier};
use tartan_nn::{Activation, Loss, Mlp, Pca, Topology, Trainer};
use tartan_npu::SupervisedNpu;
use tartan_sim::telemetry::SupervisionCounters;
use tartan_sim::Machine;

use crate::{NeuralExec, Robot, Scale, SoftwareConfig};

/// The patrol robot.
pub struct PatrolBot {
    software: SoftwareConfig,
    cnn: CnnModel,
    classifier: MlpClassifier,
    npu: Option<SupervisedNpu>,
    ekf: Ekf,
    landmarks: LandmarkMap,
    path: WaypointPath,
    image_side: usize,
    image_seed: u64,
    correct: u64,
    total: u64,
    truth: [f32; 3],
}

impl PatrolBot {
    /// Builds the robot, training the PCA + MLP detector at setup time
    /// (offline training, §V-E).
    pub fn new(machine: &mut Machine, software: SoftwareConfig, scale: Scale, seed: u64) -> Self {
        let cnn = CnnModel::mobilenet_like(machine, scale.cnn_input);

        // --- offline training of the NPU port (PCA + MLP, §VIII-B) ---
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for s in 0..160u64 {
            let (img, label) = synthetic_image(machine, seed * 1000 + s, scale.image_side);
            features.push(img.as_slice().to_vec());
            labels.push(vec![label]);
        }
        let k = scale.pca_k.min(features[0].len());
        let pca = Pca::fit(&features, k);
        let projected: Vec<Vec<f32>> = features.iter().map(|f| pca.transform(f)).collect();
        let topo = Topology::new(&[k, scale.patrol_hidden.0, scale.patrol_hidden.1, 1]);
        let mut mlp = Mlp::new(&topo, seed ^ 0x77);
        mlp.set_output_activation(Activation::Sigmoid);
        Trainer::new(Loss::Bce)
            .learning_rate(0.1)
            .epochs(scale.train_epochs)
            .fit(&mut mlp, &projected, &labels);

        let npu = if software.neural == NeuralExec::Npu {
            // Supervised attachment: faulted inferences are retried or
            // re-run on the CPU, so the detector's scores are fault-free.
            Some(
                SupervisedNpu::attach(machine, mlp.clone())
                    .expect("NPU mode implies an NPU configuration"),
            )
        } else {
            None
        };
        let classifier = MlpClassifier::new(machine, pca, mlp);

        let landmarks = LandmarkMap::new(machine, &[[20.0, 5.0], [5.0, 20.0], [25.0, 25.0]]);
        let waypoints: Vec<[f32; 2]> = (0..24)
            .map(|i| {
                let t = i as f32 / 24.0 * std::f32::consts::TAU;
                [15.0 + 10.0 * t.cos(), 15.0 + 10.0 * t.sin()]
            })
            .collect();
        let path = WaypointPath::new(machine, &waypoints);

        PatrolBot {
            software,
            cnn,
            classifier,
            npu,
            ekf: Ekf::new([25.0, 15.0, 1.6]),
            landmarks,
            path,
            image_side: scale.image_side,
            image_seed: seed * 7919,
            correct: 0,
            total: 0,
            truth: [25.0, 15.0, 1.6],
        }
    }

    /// Classification accuracy so far.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

impl Robot for PatrolBot {
    fn name(&self) -> &'static str {
        "PatrolBot"
    }

    fn bottleneck_phases(&self) -> &'static [&'static str] {
        &["inference"]
    }

    fn step(&mut self, machine: &mut Machine) {
        // A fresh camera frame (untimed sensor).
        self.image_seed += 1;
        let (image, label) = synthetic_image(machine, self.image_seed, self.image_side);

        // Ground truth motion along the circular patrol (untimed).
        let (v, omega, dt) = (0.4f32, 0.05f32, 1.0f32);
        self.truth[2] += omega * dt;
        self.truth[0] += v * dt * self.truth[2].cos();
        self.truth[1] += v * dt * self.truth[2].sin();

        let software = self.software;
        let npu = &mut self.npu;
        let cnn = &self.cnn;
        let classifier = &self.classifier;
        let ekf = &mut self.ekf;
        let landmarks = &self.landmarks;
        let path = &self.path;
        let truth = self.truth;

        // One stage: tid 0 runs the EKF + pure-pursuit pipeline; tids 1–4
        // are the inference threads running alongside it (Table I).
        let results = machine.parallel(5, |tid, p| {
            if tid == 0 {
                ekf.predict(p, v, omega, dt);
                for i in 0..landmarks.len() {
                    let lm = landmarks.peek(i);
                    let dx = lm[0] - truth[0];
                    let dy = lm[1] - truth[1];
                    let range = (dx * dx + dy * dy).sqrt();
                    let bearing = dy.atan2(dx) - truth[2];
                    ekf.update(p, landmarks, i, range, bearing);
                }
                let pose = (ekf.state[0], ekf.state[1], ekf.state[2]);
                let _kappa = pure_pursuit(p, path, pose, 3.0);
                0.0
            } else {
                p.with_phase("inference", |p| match software.neural {
                    NeuralExec::None => cnn.infer_partial(p, &image, tid - 1, 4),
                    NeuralExec::Npu => {
                        if tid == 1 {
                            let z = classifier.project(p, image.as_slice());
                            let npu =
                                npu.as_mut().expect("NPU mode implies an attached device");
                            classifier.infer_supervised(p, npu, &z)[0]
                        } else {
                            0.0
                        }
                    }
                    NeuralExec::Software => {
                        if tid == 1 {
                            let z = classifier.project(p, image.as_slice());
                            classifier.infer_software(p, &z)[0]
                        } else {
                            0.0
                        }
                    }
                })
            }
        });
        let score = match software.neural {
            // The CNN is the accuracy reference the paper compares the MLP
            // against: treat its verdict as ground truth.
            NeuralExec::None => label,
            _ => {
                if results[1] > 0.5 {
                    1.0
                } else {
                    0.0
                }
            }
        };
        self.total += 1;
        if (score > 0.5) == (label > 0.5) {
            self.correct += 1;
        }
    }

    fn quality(&self) -> f64 {
        1.0 - self.accuracy() // classification error (Table II: 1.3%)
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
    fn inference_dominates_baseline() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let mut bot = PatrolBot::new(&mut m, SoftwareConfig::legacy(), Scale::small(), 3);
        bot.run(&mut m, 3);
        let frac = m.stats().phase_fraction("inference");
        assert!(frac > 0.8, "inference fraction {frac}"); // paper: 93%
    }

    #[test]
    fn npu_offload_classifies_accurately_and_faster() {
        let run = |sw: SoftwareConfig| {
            let mut m = Machine::new(MachineConfig::tartan());
            let sw = sw.effective(m.config());
            let mut bot = PatrolBot::new(&mut m, sw, Scale::small(), 3);
            bot.run(&mut m, 10);
            (m.wall_cycles(), bot.accuracy())
        };
        let (t_cnn, _) = run(SoftwareConfig::legacy());
        let (t_npu, acc_npu) = run(SoftwareConfig::approximable());
        assert!(t_npu < t_cnn, "NPU {t_npu} vs CNN {t_cnn}");
        assert!(acc_npu >= 0.8, "NPU accuracy {acc_npu}"); // Table II: 1.3% error
    }

    #[test]
    fn software_neural_is_slower_than_npu() {
        let run = |neural: NeuralExec| {
            let mut m = Machine::new(MachineConfig::tartan());
            let sw = SoftwareConfig {
                neural,
                ..SoftwareConfig::optimized()
            }
            .effective(m.config());
            let mut bot = PatrolBot::new(&mut m, sw, Scale::small(), 3);
            bot.run(&mut m, 5);
            m.wall_cycles()
        };
        let hw = run(NeuralExec::Npu);
        let sw_exec = run(NeuralExec::Software);
        assert!(hw < sw_exec, "NPU {hw} vs software {sw_exec}");
    }

    /// Golden bit-identity: the small-scale, seed-42 detector (PCA to 12
    /// components, then a 12/256/128/1 BCE fit) must keep these exact bits
    /// across trainer and PCA kernel changes, in debug and release builds.
    #[test]
    fn golden_detector_bits() {
        let mut m = Machine::new(MachineConfig::tartan());
        let sw = SoftwareConfig::approximable().effective(m.config());
        let bot = PatrolBot::new(&mut m, sw, Scale::small(), 42);
        let pca = bot.classifier.pca().fingerprint();
        let mlp = bot.classifier.mlp().fingerprint();
        assert_eq!(
            pca, 0x0ee2_1a76_3c82_33e8,
            "PCA components changed: {pca:#018x}"
        );
        assert_eq!(
            mlp, 0xb4cd_4b19_fa43_8518,
            "trained detector changed: {mlp:#018x}"
        );
    }
}
