#![warn(missing_docs)]

//! From-scratch neural-network support for the Tartan robotic processor.
//!
//! The Tartan paper (§V) replaces expensive robotic functions with small
//! multilayer perceptrons executed on an in-pipeline NPU. This crate provides
//! everything that workflow needs, with no external ML dependencies:
//!
//! * [`Mlp`] — multilayer perceptrons with sigmoid hidden layers (matching
//!   the NPU's sigmoid lookup table) and configurable output activation,
//! * [`Trainer`] — minibatch SGD with momentum, L2 regularization, and
//!   gradient-norm clipping; losses include MSE, BCE, and the paper's
//!   **asymmetric AXAR loss** that penalizes overestimation by a factor
//!   `alpha` (§V-F),
//! * [`Pca`] — principal component analysis via power iteration, used to
//!   reduce PatrolBot's image features to `k = 50` components (§VIII-B),
//! * [`SigmoidLut`] — the NPU's 512-entry sigmoid lookup table, so hardware
//!   inference fidelity can be modeled exactly.
//!
//! PCA and MLP fits are pure functions of their input bits, so identical
//! fits in one process are computed once and replayed bit-for-bit;
//! [`FitMemoStats`] counts both.
//!
//! # Examples
//!
//! Train a tiny regressor with the AXAR loss:
//!
//! ```
//! use tartan_nn::{Mlp, Topology, Loss, Trainer};
//!
//! let topo: Topology = "1/8/1".parse().unwrap();
//! let mut mlp = Mlp::new(&topo, 42);
//! let xs: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32 / 64.0]).collect();
//! let ys: Vec<Vec<f32>> = xs.iter().map(|x| vec![x[0] * 0.5]).collect();
//! let mut trainer = Trainer::new(Loss::Asymmetric { alpha: 8.0 })
//!     .learning_rate(0.05)
//!     .l2(0.01)
//!     .clip_norm(2.5)
//!     .epochs(50);
//! trainer.fit(&mut mlp, &xs, &ys);
//! let pred = mlp.forward(&xs[32]);
//! assert!((pred[0] - ys[32][0]).abs() < 0.2);
//! ```

mod loss;
mod lut;
mod matrix;
mod memo;
mod mlp;
mod pca;
mod train;

pub use loss::Loss;
pub use lut::SigmoidLut;
pub use matrix::Matrix;
pub use memo::FitMemoStats;
pub use mlp::{Activation, Mlp, Topology, TopologyParseError};
pub use pca::Pca;
pub use train::{TrainReport, Trainer};

/// 64-bit FNV-1a over little-endian words, for parameter fingerprints.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
