//! Multilayer perceptrons with sigmoid hidden layers, matching the Tartan
//! NPU's processing-element capabilities (MAC + sigmoid LUT, §V-C).

use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::matrix::Matrix;

/// Per-layer activation function.
///
/// The NPU's processing elements implement sigmoid via a lookup table, so
/// hidden layers are always [`Activation::Sigmoid`]; the output layer may be
/// linear (regression) or sigmoid (classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Logistic sigmoid, `1 / (1 + e^-x)`.
    #[default]
    Sigmoid,
    /// Identity (linear output, used for regression heads).
    Identity,
}

impl Activation {
    /// Stable discriminant for the trainer's fit-memo key.
    pub(crate) fn memo_tag(self) -> u32 {
        match self {
            Activation::Sigmoid => 0,
            Activation::Identity => 1,
        }
    }

    /// Applies the activation.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative with respect to the pre-activation, given the *activated*
    /// output `y`.
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }
}

/// An MLP topology in the paper's `in/h1/.../out` notation, e.g. `6/16/16/1`.
///
/// # Examples
///
/// ```
/// use tartan_nn::Topology;
///
/// let t: Topology = "6/16/16/1".parse().unwrap();
/// assert_eq!(t.input(), 6);
/// assert_eq!(t.output(), 1);
/// assert_eq!(t.to_string(), "6/16/16/1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Topology {
    sizes: Vec<usize>,
}

impl Topology {
    /// Creates a topology from explicit layer sizes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize]) -> Self {
        assert!(sizes.len() >= 2, "topology needs at least input and output");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        Topology {
            sizes: sizes.to_vec(),
        }
    }

    /// Input dimensionality.
    pub fn input(&self) -> usize {
        self.sizes[0]
    }

    /// Output dimensionality.
    pub fn output(&self) -> usize {
        *self.sizes.last().expect("topology is non-empty")
    }

    /// All layer sizes, input first.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Total number of weights and biases.
    pub fn parameter_count(&self) -> usize {
        self.sizes
            .windows(2)
            .map(|w| w[0] * w[1] + w[1])
            .sum()
    }

    /// Total multiply-accumulate operations for one inference.
    pub fn mac_count(&self) -> usize {
        self.sizes.windows(2).map(|w| w[0] * w[1]).sum()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.sizes.iter().map(|s| s.to_string()).collect();
        write!(f, "{}", parts.join("/"))
    }
}

/// Error returned when parsing a [`Topology`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyParseError {
    input: String,
}

impl fmt::Display for TopologyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid topology {:?}: expected slash-separated positive sizes like \"6/16/16/1\"",
            self.input
        )
    }
}

impl std::error::Error for TopologyParseError {}

impl FromStr for Topology {
    type Err = TopologyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let sizes: Result<Vec<usize>, _> = s.split('/').map(|p| p.trim().parse()).collect();
        match sizes {
            Ok(sizes) if sizes.len() >= 2 && sizes.iter().all(|&v| v > 0) => {
                Ok(Topology { sizes })
            }
            _ => Err(TopologyParseError {
                input: s.to_string(),
            }),
        }
    }
}

/// One fully-connected layer.
#[derive(Debug, Clone)]
pub(crate) struct Layer {
    pub(crate) weights: Matrix,
    pub(crate) biases: Vec<f32>,
    pub(crate) activation: Activation,
}

/// A multilayer perceptron.
///
/// Hidden layers use sigmoid activation (the NPU's native nonlinearity);
/// the output layer defaults to [`Activation::Identity`] for regression and
/// can be switched with [`Mlp::set_output_activation`].
#[derive(Debug, Clone)]
pub struct Mlp {
    topology: Topology,
    pub(crate) layers: Vec<Layer>,
}

impl Mlp {
    /// Creates an MLP with Xavier-style random initialization from `seed`.
    pub fn new(topology: &Topology, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let sizes = topology.sizes();
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for (i, w) in sizes.windows(2).enumerate() {
            let (fan_in, fan_out) = (w[0], w[1]);
            let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
            let mut data = Vec::with_capacity(fan_in * fan_out);
            for _ in 0..fan_in * fan_out {
                data.push(rng.random_range(-bound..bound));
            }
            let activation = if i == sizes.len() - 2 {
                Activation::Identity
            } else {
                Activation::Sigmoid
            };
            layers.push(Layer {
                weights: Matrix::from_vec(fan_out, fan_in, data),
                biases: vec![0.0; fan_out],
                activation,
            });
        }
        Mlp {
            topology: topology.clone(),
            layers,
        }
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Sets the activation of the output layer.
    pub fn set_output_activation(&mut self, activation: Activation) {
        self.layers
            .last_mut()
            .expect("MLP has at least one layer")
            .activation = activation;
    }

    /// Runs one inference and returns the output vector.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.topology().input()`.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(
            input.len(),
            self.topology.input(),
            "input length must match topology"
        );
        let mut activ = input.to_vec();
        for layer in &self.layers {
            let mut z = layer.weights.mul_vec(&activ);
            for (zi, b) in z.iter_mut().zip(layer.biases.iter()) {
                *zi = layer.activation.apply(*zi + b);
            }
            activ = z;
        }
        activ
    }

    /// Runs one inference using a quantized sigmoid LUT instead of the exact
    /// sigmoid, modeling NPU hardware fidelity (§VIII-B).
    pub fn forward_with_lut(&self, input: &[f32], lut: &crate::SigmoidLut) -> Vec<f32> {
        assert_eq!(
            input.len(),
            self.topology.input(),
            "input length must match topology"
        );
        let mut activ = input.to_vec();
        for layer in &self.layers {
            let mut z = layer.weights.mul_vec(&activ);
            for (zi, b) in z.iter_mut().zip(layer.biases.iter()) {
                let pre = *zi + b;
                *zi = match layer.activation {
                    Activation::Sigmoid => lut.eval(pre),
                    Activation::Identity => pre,
                };
            }
            activ = z;
        }
        activ
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.topology.parameter_count()
    }

    /// A 64-bit FNV-1a digest of the exact parameter bits: every layer's
    /// shape, activation, weights and biases. The trainer's golden
    /// bit-identity tests pin fitted networks by this digest.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::Fnv1a::new();
        for layer in &self.layers {
            h.word(layer.weights.rows() as u64);
            h.word(layer.weights.cols() as u64);
            h.word(u64::from(layer.activation.memo_tag()));
            h.f32s(layer.weights.as_slice());
            h.f32s(&layer.biases);
        }
        h.finish()
    }

    /// Bytes of weight storage at 32-bit precision (NPU weight buffers).
    pub fn weight_bytes(&self) -> usize {
        self.parameter_count() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_parses_paper_strings() {
        for s in ["6/16/16/1", "192/32/32/6", "50/1024/512/1"] {
            let t: Topology = s.parse().unwrap();
            assert_eq!(t.to_string(), s);
        }
    }

    #[test]
    fn topology_rejects_garbage() {
        assert!("".parse::<Topology>().is_err());
        assert!("6".parse::<Topology>().is_err());
        assert!("6/0/1".parse::<Topology>().is_err());
        assert!("a/b".parse::<Topology>().is_err());
        let err = "x".parse::<Topology>().unwrap_err();
        assert!(err.to_string().contains("invalid topology"));
    }

    #[test]
    fn mac_and_parameter_counts() {
        let t = Topology::new(&[6, 16, 16, 1]);
        assert_eq!(t.mac_count(), 6 * 16 + 16 * 16 + 16);
        assert_eq!(t.parameter_count(), 6 * 16 + 16 + 16 * 16 + 16 + 16 + 1);
    }

    #[test]
    fn forward_shapes_match_topology() {
        let t = Topology::new(&[3, 5, 2]);
        let mlp = Mlp::new(&t, 1);
        let out = mlp.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn deterministic_initialization() {
        let t = Topology::new(&[4, 8, 2]);
        let a = Mlp::new(&t, 7);
        let b = Mlp::new(&t, 7);
        assert_eq!(a.forward(&[1.0; 4]), b.forward(&[1.0; 4]));
        let c = Mlp::new(&t, 8);
        assert_ne!(a.forward(&[1.0; 4]), c.forward(&[1.0; 4]));
    }

    #[test]
    fn sigmoid_output_bounded() {
        let t = Topology::new(&[2, 4, 1]);
        let mut mlp = Mlp::new(&t, 3);
        mlp.set_output_activation(Activation::Sigmoid);
        for x in [-100.0f32, 0.0, 100.0] {
            let y = mlp.forward(&[x, -x])[0];
            assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn activation_derivative_from_output() {
        let y = Activation::Sigmoid.apply(0.3);
        let d = Activation::Sigmoid.derivative_from_output(y);
        // d/dx sigmoid(x) = s(x)(1-s(x)); finite difference check.
        let h = 1e-3;
        let fd = (Activation::Sigmoid.apply(0.3 + h) - Activation::Sigmoid.apply(0.3 - h))
            / (2.0 * h);
        assert!((d - fd).abs() < 1e-4);
        assert_eq!(Activation::Identity.derivative_from_output(123.0), 1.0);
    }
}
