//! Principal component analysis via power iteration with deflation.
//!
//! PatrolBot's NPU port (§VIII-B) reduces image features to `k = 50`
//! principal components before feeding the 50/1024/512/1 MLP.

use crate::matrix::Matrix;
use crate::memo::{self, Fitted, Key, Kind, Lookup};

/// A fitted PCA transform.
///
/// # Examples
///
/// ```
/// use tartan_nn::Pca;
///
/// // Points on a line in 2-D: one component explains everything.
/// let data: Vec<Vec<f32>> = (0..50).map(|i| {
///     let t = i as f32 / 50.0;
///     vec![t, 2.0 * t]
/// }).collect();
/// let pca = Pca::fit(&data, 1);
/// let z = pca.transform(&data[10]);
/// assert_eq!(z.len(), 1);
/// let back = pca.inverse_transform(&z);
/// assert!((back[0] - data[10][0]).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f32>,
    /// `k × d` matrix of principal directions (rows are unit vectors).
    components: Matrix,
}

impl Pca {
    /// Fits `k` principal components to the dataset.
    ///
    /// The fit is a pure function of `data`'s bits and `k`, so an
    /// identical fit earlier in the process (or in flight on another
    /// thread) is replayed bit-for-bit from the memo that
    /// [`crate::Trainer::fit`] also uses, and counted in
    /// [`crate::FitMemoStats`].
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, rows have inconsistent widths, or
    /// `k` is zero or exceeds the dimensionality.
    pub fn fit(data: &[Vec<f32>], k: usize) -> Self {
        match memo::claim(memo_key(data, k)) {
            Lookup::Replay(done) => {
                let Fitted::Pca(pca) = &*done else {
                    unreachable!("the kind tag keeps PCA keys apart")
                };
                pca.clone()
            }
            Lookup::Fit(claim) => {
                let pca = Self::compute(data, k);
                claim.complete(Fitted::Pca(pca.clone()));
                pca
            }
        }
    }

    /// Runs the fit: the mean, the covariance, then power iteration with
    /// deflation, one component at a time.
    fn compute(data: &[Vec<f32>], k: usize) -> Self {
        assert!(!data.is_empty(), "dataset must be non-empty");
        let d = data[0].len();
        assert!(data.iter().all(|r| r.len() == d), "rows must share a width");
        assert!(k >= 1 && k <= d, "component count must be in 1..=dim");

        let n = data.len() as f32;
        let mut mean = vec![0.0f32; d];
        for row in data {
            for (m, x) in mean.iter_mut().zip(row.iter()) {
                *m += x;
            }
        }
        for m in mean.iter_mut() {
            *m /= n;
        }

        let mut cov = covariance(data, &mean);

        // Power iteration with deflation.
        let mut components = Matrix::zeros(k, d);
        let mut w = vec![0.0f32; d];
        for comp in 0..k {
            let mut v: Vec<f32> = (0..d)
                .map(|i| if i % (comp + 1) == 0 { 1.0 } else { 0.5 })
                .collect();
            normalize(&mut v);
            let mut eigenvalue = 0.0f32;
            for _ in 0..200 {
                mul_vec_col_major(&cov, &v, &mut w);
                let norm = vec_norm(&w);
                if norm < 1e-12 {
                    break;
                }
                for x in w.iter_mut() {
                    *x /= norm;
                }
                let delta: f32 = w.iter().zip(v.iter()).map(|(a, b)| (a - b).abs()).sum();
                std::mem::swap(&mut v, &mut w);
                eigenvalue = norm;
                if delta < 1e-7 {
                    break;
                }
            }
            components.row_mut(comp).copy_from_slice(&v);
            // Deflate: cov -= λ v vᵀ, element (i, j) as (λ·v[i])·v[j].
            let lv: Vec<f32> = v.iter().map(|x| eigenvalue * x).collect();
            for (j, &vj) in v.iter().enumerate() {
                for (c, &lvi) in cov.row_mut(j).iter_mut().zip(lv.iter()) {
                    *c -= lvi * vj;
                }
            }
        }

        Pca { mean, components }
    }

    /// A 64-bit FNV-1a digest of the exact bits of the fitted mean and
    /// components (see [`crate::Mlp::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::Fnv1a::new();
        h.word(self.components.rows() as u64);
        h.word(self.components.cols() as u64);
        h.f32s(&self.mean);
        h.f32s(self.components.as_slice());
        h.finish()
    }

    /// Number of components `k`.
    pub fn components(&self) -> usize {
        self.components.rows()
    }

    /// Original dimensionality `d`.
    pub fn input_dim(&self) -> usize {
        self.components.cols()
    }

    /// Projects a point into the `k`-dimensional principal subspace.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub fn transform(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.input_dim(), "input width must match fit");
        let centered: Vec<f32> = x.iter().zip(self.mean.iter()).map(|(a, m)| a - m).collect();
        self.components.mul_vec(&centered)
    }

    /// Reconstructs an approximate original-space point from a projection.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.components()`.
    pub fn inverse_transform(&self, z: &[f32]) -> Vec<f32> {
        assert_eq!(z.len(), self.components(), "width must match components");
        let mut out = self.components.mul_vec_transposed(z);
        for (o, m) in out.iter_mut().zip(self.mean.iter()) {
            *o += m;
        }
        out
    }
}

/// The exact-match memo key of a fit: `k`, then every row's length and
/// bits.
pub(crate) fn memo_key(data: &[Vec<f32>], k: usize) -> Key {
    let words: usize = data.iter().map(|r| 2 + r.len()).sum();
    let mut key = Key::new(Kind::Pca, 4 + words);
    key.u64(k as u64);
    key.u64(data.len() as u64);
    for row in data {
        key.f32s(row);
    }
    key
}

/// The covariance matrix (d × d), accumulated one centered row at a time
/// as `ci * cj / n`. [`Pca::fit`] treats it as column-major (`cov.row(j)`
/// is column `j`), so the power iteration reads contiguous columns. The
/// matrix is bitwise symmetric (`ci * cj` equals `cj * ci`, summed over
/// the same rows in the same order), so only the upper triangle is
/// accumulated and then mirrored, and either layout is the same matrix.
fn covariance(data: &[Vec<f32>], mean: &[f32]) -> Matrix {
    let d = mean.len();
    let n = data.len() as f32;
    let mut cov = Matrix::zeros(d, d);
    let mut centered = vec![0.0f32; d];
    for row in data {
        for ((c, x), m) in centered.iter_mut().zip(row.iter()).zip(mean.iter()) {
            *c = x - m;
        }
        for (i, &ci) in centered.iter().enumerate() {
            for (c, &cj) in cov.row_mut(i)[i..].iter_mut().zip(centered[i..].iter()) {
                *c += ci * cj / n;
            }
        }
    }
    for i in 0..d {
        for j in i + 1..d {
            cov[(j, i)] = cov[(i, j)];
        }
    }
    cov
}

/// Rows of `cov · v` that advance together in [`mul_vec_col_major`].
const ROW_BLOCK: usize = 32;

/// `w = cov · v` for a column-major `cov_t` (`cov_t.row(j)` is column `j`).
/// Each output row still sums `cov[i][j] · v[j]` from `0.0` in column
/// order, exactly as [`Matrix::mul_vec`] does, but a block of rows
/// advances per instruction.
fn mul_vec_col_major(cov_t: &Matrix, v: &[f32], w: &mut [f32]) {
    let d = cov_t.cols();
    let cols = cov_t.as_slice().chunks_exact(d);
    let mut start = 0;
    while start + ROW_BLOCK <= d {
        let mut acc = [0.0f32; ROW_BLOCK];
        for (col, &vj) in cols.clone().zip(v) {
            let col: &[f32; ROW_BLOCK] = col[start..start + ROW_BLOCK].try_into().expect("block");
            for (a, &c) in acc.iter_mut().zip(col) {
                *a += c * vj;
            }
        }
        w[start..start + ROW_BLOCK].copy_from_slice(&acc);
        start += ROW_BLOCK;
    }
    let rest = &mut w[start..];
    rest.fill(0.0);
    for (col, &vj) in cols.zip(v) {
        for (a, &c) in rest.iter_mut().zip(&col[start..]) {
            *a += c * vj;
        }
    }
}

fn vec_norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

fn normalize(v: &mut [f32]) {
    let n = vec_norm(v);
    if n > 1e-12 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn recovers_dominant_direction() {
        let mut rng = StdRng::seed_from_u64(3);
        // Strongly anisotropic cloud along (3, 4)/5.
        let data: Vec<Vec<f32>> = (0..500)
            .map(|_| {
                let t: f32 = rng.random_range(-1.0..1.0);
                let noise: f32 = rng.random_range(-0.01..0.01);
                vec![3.0 * t + noise, 4.0 * t - noise]
            })
            .collect();
        let pca = Pca::fit(&data, 1);
        let dir = [pca.components.row(0)[0].abs(), pca.components.row(0)[1].abs()];
        assert!((dir[0] / dir[1] - 0.75).abs() < 0.05, "direction {dir:?}");
    }

    #[test]
    fn components_are_orthonormal() {
        let mut rng = StdRng::seed_from_u64(4);
        let data: Vec<Vec<f32>> = (0..200)
            .map(|_| (0..6).map(|_| rng.random_range(-1.0f32..1.0)).collect())
            .collect();
        let pca = Pca::fit(&data, 3);
        for i in 0..3 {
            let ri = pca.components.row(i);
            let norm: f32 = ri.iter().map(|x| x * x).sum();
            assert!((norm - 1.0).abs() < 1e-3, "component {i} norm {norm}");
            for j in 0..i {
                let dot: f32 = ri
                    .iter()
                    .zip(pca.components.row(j).iter())
                    .map(|(a, b)| a * b)
                    .sum();
                assert!(dot.abs() < 2e-2, "components {i},{j} dot {dot}");
            }
        }
    }

    #[test]
    fn reconstruction_error_shrinks_with_k() {
        let mut rng = StdRng::seed_from_u64(5);
        // Rank-2 data embedded in 8 dims plus small noise.
        let data: Vec<Vec<f32>> = (0..300)
            .map(|_| {
                let a: f32 = rng.random_range(-1.0..1.0);
                let b: f32 = rng.random_range(-1.0..1.0);
                (0..8)
                    .map(|i| a * (i as f32).sin() + b * (i as f32).cos())
                    .collect()
            })
            .collect();
        let err = |k: usize| {
            let pca = Pca::fit(&data, k);
            data.iter()
                .map(|x| {
                    let back = pca.inverse_transform(&pca.transform(x));
                    x.iter()
                        .zip(back.iter())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f32>()
                })
                .sum::<f32>()
        };
        let e1 = err(1);
        let e2 = err(2);
        assert!(e2 < e1);
        assert!(e2 < 1e-3 * data.len() as f32, "rank-2 data: e2 = {e2}");
    }

    #[test]
    #[should_panic(expected = "component count")]
    fn k_larger_than_dim_rejected() {
        let _ = Pca::fit(&[vec![1.0, 2.0]], 3);
    }
}
