//! Perception kernels: PatrolBot's object-detection network (the CNN cost
//! model and its PCA+MLP NPU port, §VIII-B), software MLP execution, POM
//! occupancy fusion (CarriBot), and LT multimodal position stabilization
//! (FlyBot).

use tartan_nn::{Mlp, Pca};
use tartan_npu::SupervisedNpu;
use tartan_sim::{AccelId, Buffer, Machine, MemPolicy, Proc};

use crate::grid::Grid2;

const PC_CNN_WEIGHTS: u64 = 0x7_9000;
const PC_MLP_WEIGHTS: u64 = 0x7_9100;
const PC_IMAGE: u64 = 0x7_9200;

/// One convolution layer's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvLayer {
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Kernel side.
    pub kernel: usize,
    /// Output feature-map side.
    pub out_side: usize,
}

impl ConvLayer {
    /// Multiply-accumulates for this layer.
    pub fn macs(&self) -> u64 {
        (self.in_ch * self.out_ch * self.kernel * self.kernel * self.out_side * self.out_side)
            as u64
    }

    /// Weight parameter count.
    pub fn weights(&self) -> usize {
        self.in_ch * self.out_ch * self.kernel * self.kernel
    }
}

/// A MobileNet-style CNN executed on the CPU (PatrolBot's baseline
/// perception). Weights stream from simulated memory; the MACs run on the
/// vector unit.
#[derive(Debug)]
pub struct CnnModel {
    layers: Vec<ConvLayer>,
    weights: Buffer<f32>,
}

impl CnnModel {
    /// A MobileNet-SSD-class topology. `input_side` 64 yields ~64M MACs
    /// (roughly 100× the 50/1024/512/1 MLP, mirroring the real CNN/MLP
    /// cost ratio the paper's NPU port exploits); 32 yields a ~4M-MAC
    /// variant with the same ratio against the small-scale MLP.
    pub fn mobilenet_like(machine: &mut Machine, input_side: usize) -> Self {
        let layers = if input_side >= 64 {
            vec![
                ConvLayer { in_ch: 3, out_ch: 32, kernel: 3, out_side: 64 },
                ConvLayer { in_ch: 32, out_ch: 64, kernel: 3, out_side: 32 },
                ConvLayer { in_ch: 64, out_ch: 128, kernel: 3, out_side: 16 },
                ConvLayer { in_ch: 128, out_ch: 256, kernel: 3, out_side: 8 },
                ConvLayer { in_ch: 256, out_ch: 256, kernel: 1, out_side: 8 },
            ]
        } else {
            vec![
                ConvLayer { in_ch: 3, out_ch: 16, kernel: 3, out_side: 32 },
                ConvLayer { in_ch: 16, out_ch: 32, kernel: 3, out_side: 16 },
                ConvLayer { in_ch: 32, out_ch: 64, kernel: 3, out_side: 8 },
                ConvLayer { in_ch: 64, out_ch: 128, kernel: 3, out_side: 4 },
                ConvLayer { in_ch: 128, out_ch: 128, kernel: 1, out_side: 4 },
            ]
        };
        let n_weights: usize = layers.iter().map(ConvLayer::weights).sum();
        CnnModel {
            layers,
            weights: machine.buffer_from_vec(vec![0.01; n_weights], MemPolicy::Normal),
        }
    }

    /// Total MACs per inference.
    pub fn macs(&self) -> u64 {
        self.layers.iter().map(ConvLayer::macs).sum()
    }

    /// Runs one (cost-model) inference: streams each layer's weights and
    /// charges the vectorized MAC work. Returns a pseudo-score.
    pub fn infer(&self, p: &mut Proc<'_>, image: &Buffer<f32>) -> f32 {
        self.infer_partial(p, image, 0, 1)
    }

    /// Runs the `part`-th of `parts` slices of one inference — PatrolBot's
    /// four inference threads each take one output-channel slice of every
    /// layer (Table I: `‖ 4`). Returns the pseudo-score (identical on
    /// every slice; functionally the caller uses slice 0's).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero or `part >= parts`.
    pub fn infer_partial(&self, p: &mut Proc<'_>, image: &Buffer<f32>, part: usize, parts: usize) -> f32 {
        assert!(parts > 0 && part < parts, "invalid slice {part}/{parts}");
        // Every thread reads the input feature maps.
        let _ = image.vget(p, PC_IMAGE, 0, image.len());
        let mut w_off = 0usize;
        for layer in &self.layers {
            let n = layer.weights();
            let slice = n / parts;
            let start = w_off + part * slice;
            if slice > 0 {
                // This thread's output-channel slice of the weights.
                let _ = self.weights.vget(p, PC_CNN_WEIGHTS, start, slice);
            }
            w_off += n;
            // 2 vector ops per MAC lane (multiply + accumulate).
            p.vec_compute(2 * layer.macs() / parts as u64);
            p.instr(64); // per-layer loop overhead
        }
        // Pseudo classification score from the image content.
        image.as_slice().iter().take(64).sum::<f32>().tanh()
    }
}

/// PatrolBot's NPU port (§VIII-B): PCA to `k = 50` features, then the
/// 50/1024/512/1 MLP — on the NPU, or in software, or skipped entirely
/// when the caller runs the CNN baseline.
#[derive(Debug)]
pub struct MlpClassifier {
    pca: Pca,
    mlp: Mlp,
    /// The MLP weights resident in simulated memory for *software*
    /// execution (per-MAC weight loads).
    weights: Buffer<f32>,
}

impl MlpClassifier {
    /// Wraps a trained PCA + MLP.
    pub fn new(machine: &mut Machine, pca: Pca, mlp: Mlp) -> Self {
        let weights = machine.buffer_from_vec(vec![0.0; mlp.parameter_count()], MemPolicy::Normal);
        MlpClassifier { pca, mlp, weights }
    }

    /// The wrapped network.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// The wrapped PCA projection.
    pub fn pca(&self) -> &Pca {
        &self.pca
    }

    /// PCA projection (timed: dot products against `k` components).
    pub fn project(&self, p: &mut Proc<'_>, features: &[f32]) -> Vec<f32> {
        let k = self.pca.components() as u64;
        let d = self.pca.input_dim() as u64;
        p.vec_compute(2 * k * d);
        p.instr(2 * k);
        self.pca.transform(features)
    }

    /// Software MLP execution (§VIII-B "S" bars): every MAC loads its
    /// weight from memory and runs scalar multiply-add plus addressing.
    pub fn infer_software(&self, p: &mut Proc<'_>, projected: &[f32]) -> Vec<f32> {
        let mut w_idx = 0usize;
        for pair in self.mlp.topology().sizes().windows(2) {
            let macs = pair[0] * pair[1];
            // Weight loads in vector-width chunks would be possible, but
            // library MLP code is scalar: one load + 3 instructions per MAC.
            for chunk_start in (0..macs).step_by(64) {
                let n = 64.min(macs - chunk_start);
                // The chunk's weight loads are consecutive modulo the buffer
                // length: stream them as address runs, split at the wrap —
                // charge-identical to n scalar gets.
                let len = self.weights.len();
                let mut i = 0usize;
                while i < n {
                    let start = (w_idx + chunk_start + i) % len;
                    let seg = (n - i).min(len - start);
                    let _ = self.weights.get_run(p, PC_MLP_WEIGHTS, start, seg, 0);
                    i += seg;
                }
                p.flop(2 * n as u64);
                p.instr(2 * n as u64);
            }
            w_idx += macs;
            p.instr(pair[1] as u64 * 4); // activation + bias
        }
        self.mlp.forward(projected)
    }

    /// NPU execution: one accelerator invocation.
    pub fn infer_npu(&self, p: &mut Proc<'_>, accel: AccelId, projected: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.mlp.topology().output());
        p.invoke_accel(accel, projected, &mut out);
        out
    }

    /// [`infer_npu`](Self::infer_npu) through a [`SupervisedNpu`]: the
    /// score is guaranteed fault-free (detected faults are retried or the
    /// inference re-runs on the CPU), so the classification a fault
    /// campaign produces matches the healthy device bit for bit.
    pub fn infer_supervised(
        &self,
        p: &mut Proc<'_>,
        npu: &mut SupervisedNpu,
        projected: &[f32],
    ) -> Vec<f32> {
        npu.invoke(p, projected)
    }
}

/// Generates a seeded synthetic "image" (feature map) whose label is a
/// simple function of its statistics — enough to train and evaluate the
/// classification pipeline end to end.
pub fn synthetic_image(machine: &mut Machine, seed: u64, side: usize) -> (Buffer<f32>, f32) {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let suspicious = seed.is_multiple_of(2);
    let n = side * side * 3;
    let data: Vec<f32> = (0..n)
        .map(|i| {
            let base: f32 = rng.random_range(0.0..0.4);
            if suspicious && i % 17 < 4 {
                base + 0.5
            } else {
                base
            }
        })
        .collect();
    (
        machine.buffer_from_vec(data, MemPolicy::Normal),
        if suspicious { 1.0 } else { 0.0 },
    )
}

/// POM: probabilistic occupancy-map fusion (CarriBot's perception).
/// Bayesian log-odds update of grid cells from a synthetic depth scan.
pub fn pom_update(
    p: &mut Proc<'_>,
    grid: &mut Grid2,
    pose: (f32, f32),
    hits: &[(i64, i64)],
) {
    for &(hx, hy) in hits {
        let idx = grid.idx(hx, hy);
        let prior = grid.load(p, idx);
        p.flop(8); // log-odds update
        let updated = (prior * 0.7 + 0.3).min(1.0);
        grid.store(p, idx, updated);
        // Cells along the beam toward the hit decay (free space).
        let steps = 4;
        for k in 1..steps {
            let t = k as f32 / steps as f32;
            let fx = pose.0 + (hx as f32 - pose.0) * t;
            let fy = pose.1 + (hy as f32 - pose.1) * t;
            let fi = grid.idx(fx as i64, fy as i64);
            let prior = grid.load(p, fi);
            p.flop(6);
            grid.store(p, fi, prior * 0.8);
        }
    }
}

/// LT: multimodal 3-D position stabilization (FlyBot's perception):
/// fuses camera and lidar position estimates with confidence weighting
/// and temporal smoothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LtFilter {
    state: [f32; 3],
    initialized: bool,
}

impl LtFilter {
    /// Creates an empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fuses one camera and one lidar measurement.
    pub fn fuse(
        &mut self,
        p: &mut Proc<'_>,
        camera: [f32; 3],
        camera_conf: f32,
        lidar: [f32; 3],
        lidar_conf: f32,
    ) -> [f32; 3] {
        p.flop(24);
        let total = (camera_conf + lidar_conf).max(1e-6);
        let fused = [
            (camera[0] * camera_conf + lidar[0] * lidar_conf) / total,
            (camera[1] * camera_conf + lidar[1] * lidar_conf) / total,
            (camera[2] * camera_conf + lidar[2] * lidar_conf) / total,
        ];
        if self.initialized {
            for (s, f) in self.state.iter_mut().zip(fused.iter()) {
                *s = 0.7 * *s + 0.3 * f;
            }
        } else {
            self.state = fused;
            self.initialized = true;
        }
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan_nn::{Loss, Topology, Trainer};
    use tartan_sim::MachineConfig;

    #[test]
    fn cnn_macs_are_substantial() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let cnn = CnnModel::mobilenet_like(&mut m, 64);
        assert!(cnn.macs() > 50_000_000, "macs {}", cnn.macs());
        let small = CnnModel::mobilenet_like(&mut m, 32);
        assert!(small.macs() > 2_000_000, "macs {}", small.macs());
    }

    #[test]
    fn cnn_inference_dominates_patrolbot_style_work() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let cnn = CnnModel::mobilenet_like(&mut m, 32);
        let (image, _) = synthetic_image(&mut m, 2, 32);
        m.run(|p| {
            p.with_phase("inference", |p| {
                cnn.infer(p, &image);
            });
            p.flop(500); // the rest of the pipeline step
        });
        assert!(m.stats().phase_fraction("inference") > 0.8);
    }

    #[test]
    fn pca_mlp_pipeline_classifies_synthetic_images() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        // Training data (untimed).
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for seed in 0..120u64 {
            let (img, label) = synthetic_image(&mut m, seed, 8);
            features.push(img.as_slice().to_vec());
            labels.push(vec![label]);
        }
        let pca = Pca::fit(&features, 20);
        let projected: Vec<Vec<f32>> = features.iter().map(|f| pca.transform(f)).collect();
        let topo = Topology::new(&[20, 32, 1]);
        let mut mlp = Mlp::new(&topo, 4);
        mlp.set_output_activation(tartan_nn::Activation::Sigmoid);
        Trainer::new(Loss::Bce)
            .learning_rate(0.1)
            .epochs(120)
            .fit(&mut mlp, &projected, &labels);
        let clf = MlpClassifier::new(&mut m, pca, mlp);
        // Evaluate on fresh seeds.
        let mut correct = 0;
        let total = 40;
        m.run(|p| {
            for seed in 200..200 + total {
                let (img, label) = synthetic_image(&mut m_dummy(), seed, 8);
                let z = clf.project(p, img.as_slice());
                let out = clf.infer_software(p, &z);
                if (out[0] > 0.5) == (label > 0.5) {
                    correct += 1;
                }
            }
        });
        assert!(correct * 100 >= total * 85, "accuracy {correct}/{total}");
    }

    fn m_dummy() -> Machine {
        Machine::new(MachineConfig::upgraded_baseline())
    }

    #[test]
    fn pom_update_raises_hit_cells() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let mut g = Grid2::generate(&mut m, 32, 32, 0, false, 1, MemPolicy::Normal);
        let idx = g.idx(10, 10);
        let before = g.peek(idx);
        m.run(|p| pom_update(p, &mut g, (5.0, 5.0), &[(10, 10)]));
        assert!(g.peek(idx) > before);
    }

    #[test]
    fn lt_filter_blends_and_smooths() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let mut lt = LtFilter::new();
        let out = m.run(|p| {
            lt.fuse(p, [1.0, 0.0, 0.0], 1.0, [0.0, 1.0, 0.0], 1.0);
            lt.fuse(p, [1.0, 0.0, 0.0], 1.0, [0.0, 1.0, 0.0], 1.0)
        });
        assert!((out[0] - 0.5).abs() < 0.01);
        assert!((out[1] - 0.5).abs() < 0.01);
    }
}
