//! Minibatch SGD training with the paper's regularization recipe:
//! L2 weight decay (λ = 0.01) and gradient clipping (c = 2.5), §V-F.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::memo::{self, Fitted, Key, Kind, Lookup};
use crate::mlp::{Activation, Layer, Mlp};

/// Samples per lane tile: the default minibatch. Larger batches run as
/// several tiles in chunk order; a partial tile pads lanes never read.
const LANES: usize = 16;

/// One value per sample of a lane tile.
type Lanes = [f32; LANES];

/// Summary statistics returned by [`Trainer::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Mean training loss after the final epoch.
    pub final_loss: f32,
    /// Number of epochs executed.
    pub epochs: usize,
    /// Fraction of training samples the final model *overestimates*
    /// (prediction > target on output 0) — the quantity the AXAR loss
    /// minimizes so that CPU rollbacks become rare (§V-F).
    pub overestimation_rate: f32,
}

/// Gradient and activation buffers for [`Trainer::step`], allocated once
/// per fit and reused by every step; gradients are zero-filled before each
/// step.
///
/// Activations and deltas are feature-major: one [`Lanes`] per neuron,
/// lane `l` holding sample `l` of the current tile. Within a minibatch the
/// weights are fixed, so the samples' dot-product chains are independent
/// and advance side by side in SIMD lanes, each one still running the
/// exact f32 operation sequence of a one-sample-at-a-time pass.
struct StepScratch {
    grad_w: Vec<Matrix>,
    grad_b: Vec<Vec<f32>>,
    /// `acts[0]` is the input tile, `acts[i]` layer `i`'s activated outputs.
    acts: Vec<Vec<Lanes>>,
    /// Sample-major copies of each layer's input (`samples[i]` holds
    /// sample `l`'s `acts[i]` at `l * stride..`, zero-padded to a stride
    /// that is a multiple of 4), the contiguous rows the weight-gradient
    /// kernel reads.
    samples: Vec<Vec<f32>>,
    delta: Vec<Lanes>,
    next_delta: Vec<Lanes>,
}

impl StepScratch {
    fn for_mlp(mlp: &Mlp) -> Self {
        let n = mlp.layers.len();
        StepScratch {
            grad_w: mlp
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
                .collect(),
            grad_b: mlp
                .layers
                .iter()
                .map(|l| vec![0.0; l.biases.len()])
                .collect(),
            acts: vec![Vec::new(); n + 1],
            samples: vec![Vec::new(); n],
            delta: Vec::new(),
            next_delta: Vec::new(),
        }
    }

    /// Loads the tile's inputs feature-major (unused lanes are zero) and
    /// runs the forward pass, leaving every layer's outputs in `acts`.
    ///
    /// # Panics
    ///
    /// Panics if an input's width does not match the network.
    fn forward(&mut self, mlp: &Mlp, inputs: &[Vec<f32>], tile: &[usize]) {
        let width = mlp.layers[0].weights.cols();
        let x = &mut self.acts[0];
        x.clear();
        x.resize(width, [0.0; LANES]);
        for (l, &idx) in tile.iter().enumerate() {
            let input = &inputs[idx];
            assert_eq!(input.len(), width, "input length must match topology");
            for (xc, &v) in x.iter_mut().zip(input) {
                xc[l] = v;
            }
        }
        for (i, layer) in mlp.layers.iter().enumerate() {
            let (done, rest) = self.acts.split_at_mut(i + 1);
            forward_layer(layer, &done[i], &mut rest[0]);
        }
    }
}

/// A minibatch SGD trainer with momentum, L2 regularization, and global
/// gradient-norm clipping.
///
/// # Examples
///
/// ```
/// use tartan_nn::{Mlp, Topology, Loss, Trainer};
///
/// let topo = Topology::new(&[2, 8, 1]);
/// let mut mlp = Mlp::new(&topo, 0);
/// let xs = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
/// let ys = vec![vec![0.0], vec![1.0]];
/// let report = Trainer::new(Loss::Mse).epochs(200).fit(&mut mlp, &xs, &ys);
/// assert!(report.final_loss < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    loss: Loss,
    learning_rate: f32,
    momentum: f32,
    l2: f32,
    clip_norm: Option<f32>,
    epochs: usize,
    batch_size: usize,
    seed: u64,
}

impl Trainer {
    /// Creates a trainer with sensible defaults (lr 0.05, momentum 0.9,
    /// no regularization, no clipping, 100 epochs, batch 16).
    pub fn new(loss: Loss) -> Self {
        Trainer {
            loss,
            learning_rate: 0.05,
            momentum: 0.9,
            l2: 0.0,
            clip_norm: None,
            epochs: 100,
            batch_size: 16,
            seed: 0xC0FFEE,
        }
    }

    /// Sets the learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the momentum coefficient.
    pub fn momentum(mut self, m: f32) -> Self {
        self.momentum = m;
        self
    }

    /// Sets the L2 regularization strength λ (the paper uses 0.01).
    pub fn l2(mut self, lambda: f32) -> Self {
        self.l2 = lambda;
        self
    }

    /// Enables global gradient-norm clipping at `c` (the paper uses 2.5).
    pub fn clip_norm(mut self, c: f32) -> Self {
        self.clip_norm = Some(c);
        self
    }

    /// Sets the number of epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the minibatch size.
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Sets the shuffling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The exact-match memo key: every bit of state the deterministic fit
    /// depends on, in a fixed order — hyperparameters, topology,
    /// activations, initial parameters, then the dataset.
    pub(crate) fn memo_key(&self, mlp: &Mlp, inputs: &[Vec<f32>], targets: &[Vec<f32>]) -> Key {
        // The memo keeps this allocation, so reserve the words it will
        // hold (a header of at most 19) instead of growing by doubling.
        let layers: usize = mlp
            .layers
            .iter()
            .map(|l| 9 + l.weights.as_slice().len() + l.biases.len())
            .sum();
        let data: usize = inputs.iter().chain(targets).map(|x| 2 + x.len()).sum();
        let mut key = Key::new(Kind::Mlp, 19 + layers + data);
        match self.loss {
            Loss::Mse => key.word(0),
            Loss::Bce => key.word(1),
            Loss::Asymmetric { alpha } => {
                key.word(2);
                key.word(alpha.to_bits());
            }
        }
        key.f32s(&[self.learning_rate, self.momentum, self.l2]);
        match self.clip_norm {
            None => key.word(0),
            Some(c) => {
                key.word(1);
                key.word(c.to_bits());
            }
        }
        key.u64(self.epochs as u64);
        key.u64(self.batch_size as u64);
        key.u64(self.seed);
        key.u64(mlp.layers.len() as u64);
        for layer in &mlp.layers {
            key.u64(layer.weights.rows() as u64);
            key.u64(layer.weights.cols() as u64);
            key.word(layer.activation.memo_tag());
            key.f32s(layer.weights.as_slice());
            key.f32s(&layer.biases);
        }
        key.u64(inputs.len() as u64);
        for (x, t) in inputs.iter().zip(targets.iter()) {
            key.f32s(x);
            key.f32s(t);
        }
        key
    }

    /// Trains `mlp` on `(inputs, targets)` pairs and reports final loss and
    /// overestimation rate.
    ///
    /// Training is a pure function of the hyperparameters, the network's
    /// initial state and the dataset, so an identical fit earlier in the
    /// process (or in flight on another thread) is replayed bit-for-bit
    /// from the fit memo and counted in [`crate::FitMemoStats`].
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or input/target shapes do not match
    /// the network topology.
    pub fn fit(&self, mlp: &mut Mlp, inputs: &[Vec<f32>], targets: &[Vec<f32>]) -> TrainReport {
        assert_eq!(inputs.len(), targets.len(), "inputs/targets must pair up");
        assert!(!inputs.is_empty(), "dataset must be non-empty");
        let claim = match memo::claim(self.memo_key(mlp, inputs, targets)) {
            Lookup::Replay(done) => {
                let Fitted::Mlp(layers, report) = &*done else {
                    unreachable!("the kind tag keeps MLP keys apart")
                };
                mlp.layers = layers.clone();
                return *report;
            }
            Lookup::Fit(claim) => claim,
        };
        let report = self.train(mlp, inputs, targets);
        claim.complete(Fitted::Mlp(mlp.layers.clone(), report));
        report
    }

    /// Runs the SGD epochs, then measures loss and overestimation.
    fn train(&self, mlp: &mut Mlp, inputs: &[Vec<f32>], targets: &[Vec<f32>]) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..inputs.len()).collect();

        // Momentum buffers mirroring the layer parameter shapes.
        let mut vel_w: Vec<Matrix> = mlp
            .layers
            .iter()
            .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
            .collect();
        let mut vel_b: Vec<Vec<f32>> = mlp
            .layers
            .iter()
            .map(|l| vec![0.0; l.biases.len()])
            .collect();
        let mut scratch = StepScratch::for_mlp(mlp);

        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.batch_size) {
                self.step(
                    mlp,
                    inputs,
                    targets,
                    chunk,
                    &mut vel_w,
                    &mut vel_b,
                    &mut scratch,
                );
            }
        }

        // The lane forward is bit-identical to `Mlp::forward` per sample.
        let mut preds = Vec::with_capacity(inputs.len());
        let all: Vec<usize> = (0..inputs.len()).collect();
        for tile in all.chunks(LANES) {
            scratch.forward(mlp, inputs, tile);
            let out = &scratch.acts[mlp.layers.len()];
            preds.extend((0..tile.len()).map(|l| out.iter().map(|o| o[l]).collect::<Vec<f32>>()));
        }
        let final_loss = self.loss.mean(targets, &preds);
        let over = preds
            .iter()
            .zip(targets.iter())
            .filter(|(p, t)| p[0] > t[0])
            .count();
        TrainReport {
            final_loss,
            epochs: self.epochs,
            overestimation_rate: over as f32 / inputs.len() as f32,
        }
    }

    /// One SGD step over the index batch `chunk`, in tiles of [`LANES`]
    /// samples. Every gradient element still accumulates over the samples
    /// in `chunk` order.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        mlp: &mut Mlp,
        inputs: &[Vec<f32>],
        targets: &[Vec<f32>],
        chunk: &[usize],
        vel_w: &mut [Matrix],
        vel_b: &mut [Vec<f32>],
        scratch: &mut StepScratch,
    ) {
        let n_layers = mlp.layers.len();
        for gw in scratch.grad_w.iter_mut() {
            gw.as_mut_slice().fill(0.0);
        }
        for gb in scratch.grad_b.iter_mut() {
            gb.fill(0.0);
        }

        for tile in chunk.chunks(LANES) {
            scratch.forward(mlp, inputs, tile);
            let StepScratch {
                grad_w,
                grad_b,
                acts,
                samples,
                delta,
                next_delta,
            } = &mut *scratch;
            // Delta at the output layer; unused lanes stay zero.
            let out_act = mlp.layers[n_layers - 1].activation;
            for &idx in tile {
                assert_eq!(
                    targets[idx].len(),
                    acts[n_layers].len(),
                    "target length must match topology"
                );
            }
            delta.clear();
            delta.extend(acts[n_layers].iter().enumerate().map(|(o, y)| {
                let mut d = [0.0; LANES];
                for ((dl, &yl), &idx) in d.iter_mut().zip(y).zip(tile) {
                    *dl = self.loss.gradient(targets[idx][o], yl)
                        * out_act.derivative_from_output(yl);
                }
                d
            }));
            for (sm, x) in samples.iter_mut().zip(acts.iter()) {
                to_sample_major(x, sm);
            }
            for layer_idx in (0..n_layers).rev() {
                let mut rows: [&[f32]; LANES] = [&[]; LANES];
                let stride = padded(acts[layer_idx].len());
                for (row, s) in rows.iter_mut().zip(samples[layer_idx].chunks_exact(stride)) {
                    *row = s;
                }
                accumulate_grads(
                    &mut grad_w[layer_idx],
                    &mut grad_b[layer_idx],
                    delta,
                    &rows[..tile.len()],
                );
                if layer_idx > 0 {
                    backprop_layer(
                        &mlp.layers[layer_idx].weights,
                        delta,
                        &acts[layer_idx],
                        mlp.layers[layer_idx - 1].activation,
                        next_delta,
                    );
                    std::mem::swap(delta, next_delta);
                }
            }
        }
        self.update(mlp, chunk.len(), vel_w, vel_b, scratch);
    }

    /// The step's tail: scale the summed gradients to a mean, add L2 on the
    /// weights, clip the global norm, then apply momentum SGD.
    fn update(
        &self,
        mlp: &mut Mlp,
        batch: usize,
        vel_w: &mut [Matrix],
        vel_b: &mut [Vec<f32>],
        scratch: &mut StepScratch,
    ) {
        let StepScratch { grad_w, grad_b, .. } = scratch;
        let scale = 1.0 / batch as f32;
        // L2 regularization on the weights (not biases), then clipping.
        for (gw, layer) in grad_w.iter_mut().zip(mlp.layers.iter()) {
            for (g, w) in gw
                .as_mut_slice()
                .iter_mut()
                .zip(layer.weights.as_slice().iter())
            {
                *g = *g * scale + 2.0 * self.l2 * w;
            }
        }
        for gb in grad_b.iter_mut() {
            for g in gb.iter_mut() {
                *g *= scale;
            }
        }
        if let Some(c) = self.clip_norm {
            let mut norm_sq = 0.0f32;
            for gw in grad_w.iter() {
                norm_sq += gw.norm_sq();
            }
            for gb in grad_b.iter() {
                norm_sq += gb.iter().map(|g| g * g).sum::<f32>();
            }
            let norm = norm_sq.sqrt();
            if norm > c {
                let s = c / norm;
                for gw in grad_w.iter_mut() {
                    for g in gw.as_mut_slice() {
                        *g *= s;
                    }
                }
                for gb in grad_b.iter_mut() {
                    for g in gb.iter_mut() {
                        *g *= s;
                    }
                }
            }
        }

        // Momentum update.
        for (((layer, vw), vb), (gw, gb)) in mlp
            .layers
            .iter_mut()
            .zip(vel_w.iter_mut())
            .zip(vel_b.iter_mut())
            .zip(grad_w.iter().zip(grad_b.iter()))
        {
            for ((v, g), w) in vw
                .as_mut_slice()
                .iter_mut()
                .zip(gw.as_slice().iter())
                .zip(layer.weights.as_mut_slice().iter_mut())
            {
                *v = self.momentum * *v - self.learning_rate * g;
                *w += *v;
            }
            for ((v, g), b) in vb.iter_mut().zip(gb.iter()).zip(layer.biases.iter_mut()) {
                *v = self.momentum * *v - self.learning_rate * g;
                *b += *v;
            }
        }
    }
}

/// `out[r][l] = act(Σ_c w[r][c] · x[c][l] + b[r])`: each (neuron, sample)
/// sum starts at `0.0` and adds in column order, exactly as
/// [`Matrix::mul_vec`] does for one sample. Row pairs share each input
/// load.
fn forward_layer(layer: &Layer, x: &[Lanes], out: &mut Vec<Lanes>) {
    let cols = layer.weights.cols();
    let act = layer.activation;
    let finish = |acc: Lanes, b: f32| acc.map(|z| act.apply(z + b));
    out.clear();
    let w = layer.weights.as_slice();
    let pairs = w.chunks_exact(2 * cols);
    let odd = pairs.remainder();
    for (pair, b) in pairs.zip(layer.biases.chunks_exact(2)) {
        let (w0, w1) = pair.split_at(cols);
        let mut a0 = [0.0f32; LANES];
        let mut a1 = [0.0f32; LANES];
        for ((xc, &u0), &u1) in x.iter().zip(w0).zip(w1) {
            for l in 0..LANES {
                a0[l] += u0 * xc[l];
                a1[l] += u1 * xc[l];
            }
        }
        out.push(finish(a0, b[0]));
        out.push(finish(a1, b[1]));
    }
    if !odd.is_empty() {
        let mut a0 = [0.0f32; LANES];
        for (xc, &u0) in x.iter().zip(odd) {
            for l in 0..LANES {
                a0[l] += u0 * xc[l];
            }
        }
        out.push(finish(a0, layer.biases[layer.biases.len() - 1]));
    }
}

/// `out[c][l] = (Σ_r δ[r][l] · w[r][c]) · act'(y[c][l])`: each (column,
/// sample) sum starts at `0.0` and adds over rows in order, exactly as
/// [`Matrix::mul_vec_transposed`] does for one sample. Column pairs share
/// each delta load.
fn backprop_layer(w: &Matrix, delta: &[Lanes], y: &[Lanes], act: Activation, out: &mut Vec<Lanes>) {
    let cols = w.cols();
    let finish = |acc: Lanes, y: &Lanes| {
        let mut d = acc;
        for (dl, &yl) in d.iter_mut().zip(y) {
            *dl *= act.derivative_from_output(yl);
        }
        d
    };
    out.clear();
    let rows = w.as_slice().chunks_exact(cols);
    let mut c = 0;
    while c + 2 <= cols {
        let mut a0 = [0.0f32; LANES];
        let mut a1 = [0.0f32; LANES];
        for (row, d) in rows.clone().zip(delta) {
            let (u0, u1) = (row[c], row[c + 1]);
            for l in 0..LANES {
                a0[l] += d[l] * u0;
                a1[l] += d[l] * u1;
            }
        }
        out.push(finish(a0, &y[c]));
        out.push(finish(a1, &y[c + 1]));
        c += 2;
    }
    if c < cols {
        let mut a0 = [0.0f32; LANES];
        for (row, d) in rows.zip(delta) {
            let u0 = row[c];
            for l in 0..LANES {
                a0[l] += d[l] * u0;
            }
        }
        out.push(finish(a0, &y[c]));
    }
}

/// A sample-major row stride: `width` rounded up to a multiple of 4, so
/// the weight-gradient kernel's last column tile never reads past a row.
fn padded(width: usize) -> usize {
    width.div_ceil(4) * 4
}

/// Copies a feature-major tile into sample-major rows of stride
/// [`padded`]`(x.len())`, four features at a time. A layer's buffer keeps
/// its size from tile to tile, so the padding columns, never written,
/// stay zero.
fn to_sample_major(x: &[Lanes], out: &mut Vec<f32>) {
    let stride = padded(x.len());
    out.resize(LANES * stride, 0.0);
    for (q, quad) in x.chunks(4).enumerate() {
        for (row, l) in out.chunks_exact_mut(stride).zip(0..LANES) {
            for (o, xc) in row[4 * q..4 * q + 4].iter_mut().zip(quad) {
                *o = xc[l];
            }
        }
    }
}

/// `gb[r] += δ[r][l]` and `gw[r][c] += δ[r][l] · rows[l][c]` for each
/// sample `l` in order, so every element sees the same addition sequence
/// as a one-sample-at-a-time pass. Columns go in tiles of 16, 8 and 4,
/// each paired with enough rows that a tile holds eight SIMD
/// accumulators; a tile stays in registers across the whole tile of
/// samples.
fn accumulate_grads(gw: &mut Matrix, gb: &mut [f32], delta: &[Lanes], rows: &[&[f32]]) {
    for (b, d) in gb.iter_mut().zip(delta) {
        for &dl in &d[..rows.len()] {
            *b += dl;
        }
    }
    let cols = gw.cols();
    let mut c = 0;
    while cols - c >= 16 {
        accumulate_column::<2, 16>(gw, delta, rows, c);
        c += 16;
    }
    if cols - c >= 8 {
        accumulate_column::<4, 8>(gw, delta, rows, c);
        c += 8;
    }
    while c < cols {
        accumulate_column::<8, 4>(gw, delta, rows, c);
        c += 4;
    }
}

/// Columns `c..c + W` of every row, `R` rows per tile, then any leftover
/// rows one at a time. A tile at the right edge may be partial: it reads
/// the rows' zero padding and stores back only the real columns.
fn accumulate_column<const R: usize, const W: usize>(
    gw: &mut Matrix,
    delta: &[Lanes],
    rows: &[&[f32]],
    c: usize,
) {
    let cols = gw.cols();
    let mut groups = gw.as_mut_slice().chunks_exact_mut(R * cols);
    let mut deltas = delta.chunks_exact(R);
    for (g, d) in groups.by_ref().zip(deltas.by_ref()) {
        accumulate_tile::<R, W>(g, d.try_into().expect("row group"), rows, c);
    }
    for (g, d) in groups
        .into_remainder()
        .chunks_exact_mut(cols)
        .zip(deltas.remainder())
    {
        accumulate_tile::<1, W>(g, std::array::from_ref(d), rows, c);
    }
}

/// One `R × W` tile: `g[k][c + j] += d[k][l] · rows[l][c + j]` for each
/// sample `l` in order, where `g` holds `R` consecutive gradient rows.
fn accumulate_tile<const R: usize, const W: usize>(
    g: &mut [f32],
    d: &[Lanes; R],
    rows: &[&[f32]],
    c: usize,
) {
    let cols = g.len() / R;
    let width = W.min(cols - c);
    // `acc` is only ever assigned or read whole, through an `edge` copy at
    // a partial tile: a variable-length copy into or out of `acc` itself
    // keeps it on the stack and the kernel stops vectorizing.
    let mut acc = [[0.0f32; W]; R];
    for (k, a) in acc.iter_mut().enumerate() {
        let src = &g[k * cols + c..];
        *a = if width == W {
            src[..W].try_into().expect("full tile")
        } else {
            let mut edge = [0.0f32; W];
            edge[..width].copy_from_slice(&src[..width]);
            edge
        };
    }
    for (row, l) in rows.iter().zip(0..LANES) {
        let x: &[f32; W] = row[c..c + W].try_into().expect("padded row");
        for (a, dk) in acc.iter_mut().zip(d) {
            let dl = dk[l];
            for (aj, &xj) in a.iter_mut().zip(x) {
                *aj += dl * xj;
            }
        }
    }
    for (k, &a) in acc.iter().enumerate() {
        let dst = &mut g[k * cols + c..];
        if width == W {
            dst[..W].copy_from_slice(&a);
        } else {
            let edge = a;
            dst[..width].copy_from_slice(&edge[..width]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{Activation, Topology};

    /// The original one-sample-at-a-time step: forward trace, output delta,
    /// then row-by-row backprop, accumulating into zeroed gradients before
    /// the shared L2/clipping/momentum tail. The lane kernels must match it
    /// bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn reference_step(
        trainer: &Trainer,
        mlp: &mut Mlp,
        inputs: &[Vec<f32>],
        targets: &[Vec<f32>],
        chunk: &[usize],
        vel_w: &mut [Matrix],
        vel_b: &mut [Vec<f32>],
        scratch: &mut StepScratch,
    ) {
        let n_layers = mlp.layers.len();
        for gw in scratch.grad_w.iter_mut() {
            gw.as_mut_slice().fill(0.0);
        }
        for gb in scratch.grad_b.iter_mut() {
            gb.fill(0.0);
        }
        for &idx in chunk {
            let mut trace = vec![inputs[idx].clone()];
            for layer in &mlp.layers {
                let mut z = layer.weights.mul_vec(&trace[trace.len() - 1]);
                for (zi, b) in z.iter_mut().zip(layer.biases.iter()) {
                    *zi = layer.activation.apply(*zi + b);
                }
                trace.push(z);
            }
            let output = &trace[n_layers];
            let mut delta: Vec<f32> = output
                .iter()
                .zip(targets[idx].iter())
                .map(|(p, t)| trainer.loss.gradient(*t, *p))
                .collect();
            for (d, y) in delta.iter_mut().zip(output.iter()) {
                *d *= mlp.layers[n_layers - 1]
                    .activation
                    .derivative_from_output(*y);
            }
            for layer_idx in (0..n_layers).rev() {
                for (r, &d) in delta.iter().enumerate() {
                    scratch.grad_b[layer_idx][r] += d;
                    let row = scratch.grad_w[layer_idx].row_mut(r);
                    for (g, &a) in row.iter_mut().zip(trace[layer_idx].iter()) {
                        *g += d * a;
                    }
                }
                if layer_idx > 0 {
                    let mut next = mlp.layers[layer_idx].weights.mul_vec_transposed(&delta);
                    for (d, y) in next.iter_mut().zip(trace[layer_idx].iter()) {
                        *d *= mlp.layers[layer_idx - 1]
                            .activation
                            .derivative_from_output(*y);
                    }
                    delta = next;
                }
            }
        }
        trainer.update(mlp, chunk.len(), vel_w, vel_b, scratch);
    }

    /// [`Trainer::train`] driven by [`reference_step`] and `Mlp::forward`.
    fn reference_train(
        trainer: &Trainer,
        mlp: &mut Mlp,
        inputs: &[Vec<f32>],
        targets: &[Vec<f32>],
    ) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(trainer.seed);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        let mut vel_w: Vec<Matrix> = mlp
            .layers
            .iter()
            .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
            .collect();
        let mut vel_b: Vec<Vec<f32>> = mlp
            .layers
            .iter()
            .map(|l| vec![0.0; l.biases.len()])
            .collect();
        let mut scratch = StepScratch::for_mlp(mlp);
        for _ in 0..trainer.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(trainer.batch_size) {
                reference_step(
                    trainer,
                    mlp,
                    inputs,
                    targets,
                    chunk,
                    &mut vel_w,
                    &mut vel_b,
                    &mut scratch,
                );
            }
        }
        let preds: Vec<Vec<f32>> = inputs.iter().map(|x| mlp.forward(x)).collect();
        let over = preds
            .iter()
            .zip(targets.iter())
            .filter(|(p, t)| p[0] > t[0])
            .count();
        TrainReport {
            final_loss: trainer.loss.mean(targets, &preds),
            epochs: trainer.epochs,
            overestimation_rate: over as f32 / inputs.len() as f32,
        }
    }

    #[test]
    fn lane_kernels_match_the_per_sample_reference_bit_for_bit() {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(17);
        let n = 45;
        // Widths straddle the lane count and the 16/8/4 column tiles.
        let shapes: [&[usize]; 4] = [&[5, 7, 3, 2], &[3, 19, 1], &[13, 33, 17, 4], &[1, 1]];
        let losses = [
            (Loss::Mse, Activation::Identity, 0.0, None),
            (Loss::Bce, Activation::Sigmoid, 0.0, None),
            (
                Loss::Asymmetric { alpha: 8.0 },
                Activation::Identity,
                0.01,
                Some(0.5),
            ),
        ];
        for (s, sizes) in shapes.iter().enumerate() {
            let d_in = sizes[0];
            let d_out = sizes[sizes.len() - 1];
            let xs: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..d_in).map(|_| rng.random_range(-1.0f32..1.0)).collect())
                .collect();
            let ys: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    (0..d_out)
                        .map(|_| rng.random_range(0.05f32..0.95))
                        .collect()
                })
                .collect();
            for &(loss, head, l2, clip) in &losses {
                for batch in [1, 3, 16, 17, 40] {
                    let mut trainer = Trainer::new(loss)
                        .l2(l2)
                        .epochs(3)
                        .batch_size(batch)
                        .seed(s as u64);
                    trainer.clip_norm = clip;
                    let mut lane = Mlp::new(&Topology::new(sizes), s as u64);
                    lane.set_output_activation(head);
                    let mut reference = lane.clone();
                    let lane_report = trainer.train(&mut lane, &xs, &ys);
                    let ref_report = reference_train(&trainer, &mut reference, &xs, &ys);
                    let case = format!("{sizes:?} {loss:?} batch {batch}");
                    assert_eq!(
                        lane.fingerprint(),
                        reference.fingerprint(),
                        "{case}: parameters differ"
                    );
                    assert_eq!(
                        lane_report.final_loss.to_bits(),
                        ref_report.final_loss.to_bits(),
                        "{case}: loss"
                    );
                    assert_eq!(
                        lane_report.overestimation_rate.to_bits(),
                        ref_report.overestimation_rate.to_bits(),
                        "{case}: overestimation"
                    );
                }
            }
        }
    }

    /// Numerical gradient check: analytic backprop gradients must match
    /// finite differences of the loss.
    #[test]
    fn backprop_matches_finite_differences() {
        let topo = Topology::new(&[2, 3, 1]);
        let mlp = Mlp::new(&topo, 11);
        let x = vec![0.4f32, -0.7];
        let t = vec![0.3f32];
        let loss = Loss::Mse;

        // Analytic gradient of one sample: reuse a single trainer step with
        // lr so small that parameters barely move, then compare parameter
        // deltas against finite-difference gradients.
        let eval = |m: &Mlp| loss.value(t[0], m.forward(&x)[0]);
        let base = eval(&mlp);
        let h = 1e-3f32;

        // Finite-difference gradient for the first weight of layer 0.
        let mut plus = mlp.clone();
        plus.layers[0].weights[(0, 0)] += h;
        let fd = (eval(&plus) - base) / h;

        // Analytic: run one plain-SGD step (no momentum/clip/L2) with lr=1,
        // and read off the applied delta = -gradient.
        let trainer = Trainer::new(loss)
            .learning_rate(1.0)
            .momentum(0.0)
            .epochs(1)
            .batch_size(1);
        let mut trained = mlp.clone();
        trainer.fit(
            &mut trained,
            std::slice::from_ref(&x),
            std::slice::from_ref(&t),
        );
        let analytic = mlp.layers[0].weights[(0, 0)] - trained.layers[0].weights[(0, 0)];
        assert!(
            (analytic - fd).abs() < 5e-2 * (1.0 + fd.abs()),
            "analytic {analytic} vs finite-difference {fd}"
        );
    }

    #[test]
    fn learns_xor_with_sigmoid_output() {
        let topo = Topology::new(&[2, 8, 1]);
        let mut mlp = Mlp::new(&topo, 5);
        mlp.set_output_activation(Activation::Sigmoid);
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        Trainer::new(Loss::Bce)
            .learning_rate(0.5)
            .epochs(2000)
            .batch_size(4)
            .fit(&mut mlp, &xs, &ys);
        for (x, y) in xs.iter().zip(ys.iter()) {
            let p = mlp.forward(x)[0];
            assert_eq!((p > 0.5) as i32 as f32, y[0], "xor({x:?}) predicted {p}");
        }
    }

    #[test]
    fn asymmetric_loss_reduces_overestimation() {
        // Regression task with noise: the AXAR loss should leave far fewer
        // overestimated samples than plain MSE.
        let topo = Topology::new(&[1, 8, 1]);
        let xs: Vec<Vec<f32>> = (0..128).map(|i| vec![i as f32 / 128.0]).collect();
        let ys: Vec<Vec<f32>> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| vec![x[0] + 0.05 * ((i % 7) as f32 / 7.0 - 0.5)])
            .collect();

        let mut mse_mlp = Mlp::new(&topo, 2);
        let mse_report = Trainer::new(Loss::Mse)
            .epochs(300)
            .fit(&mut mse_mlp, &xs, &ys);

        let mut ax_mlp = Mlp::new(&topo, 2);
        let ax_report = Trainer::new(Loss::Asymmetric { alpha: 8.0 })
            .l2(0.01)
            .clip_norm(2.5)
            .epochs(300)
            .fit(&mut ax_mlp, &xs, &ys);

        assert!(
            ax_report.overestimation_rate < mse_report.overestimation_rate,
            "AXAR {} vs MSE {}",
            ax_report.overestimation_rate,
            mse_report.overestimation_rate
        );
    }

    #[test]
    fn clipping_keeps_training_stable_at_high_lr() {
        let topo = Topology::new(&[1, 4, 1]);
        let xs: Vec<Vec<f32>> = (0..32).map(|i| vec![i as f32]).collect();
        let ys: Vec<Vec<f32>> = xs.iter().map(|x| vec![x[0] * 2.0]).collect();
        let mut mlp = Mlp::new(&topo, 9);
        let report = Trainer::new(Loss::Mse)
            .learning_rate(0.5)
            .clip_norm(2.5)
            .epochs(50)
            .fit(&mut mlp, &xs, &ys);
        assert!(
            report.final_loss.is_finite(),
            "clipped training must not diverge to NaN/inf"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let topo = Topology::new(&[2, 4, 1]);
        let xs = vec![vec![0.1, 0.9], vec![0.8, 0.2]];
        let ys = vec![vec![1.0], vec![0.0]];
        let run = || {
            let mut mlp = Mlp::new(&topo, 1);
            Trainer::new(Loss::Mse).epochs(20).fit(&mut mlp, &xs, &ys);
            mlp.forward(&[0.5, 0.5])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fit_memo_never_conflates_distinct_fits() {
        // Same topology and dataset, different seed / epochs / lr: each
        // variation must produce its own result, not a stale memo hit.
        let topo = Topology::new(&[2, 4, 1]);
        let xs = vec![vec![0.2, 0.6], vec![0.9, 0.1]];
        let ys = vec![vec![0.0], vec![1.0]];
        let run = |seed: u64, epochs: usize, lr: f32| {
            let mut mlp = Mlp::new(&topo, seed);
            Trainer::new(Loss::Mse)
                .learning_rate(lr)
                .epochs(epochs)
                .fit(&mut mlp, &xs, &ys);
            mlp.forward(&[0.4, 0.4])
        };
        let base = run(1, 30, 0.05);
        assert_eq!(
            base,
            run(1, 30, 0.05),
            "identical fit must replay identically"
        );
        assert_ne!(base, run(2, 30, 0.05), "seed must be part of the memo key");
        assert_ne!(
            base,
            run(1, 31, 0.05),
            "epochs must be part of the memo key"
        );
        assert_ne!(base, run(1, 30, 0.06), "lr must be part of the memo key");
    }

    #[test]
    #[should_panic(expected = "dataset must be non-empty")]
    fn empty_dataset_rejected() {
        let topo = Topology::new(&[1, 1]);
        let mut mlp = Mlp::new(&topo, 0);
        let _ = Trainer::new(Loss::Mse).fit(&mut mlp, &[], &[]);
    }
}
