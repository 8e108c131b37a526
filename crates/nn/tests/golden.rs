//! Golden bit-identity: fits and PCA runs shaped like the three robots'
//! setup-time models must reproduce these exact parameter bits. The
//! trainer and PCA kernels may be restructured for speed, but never in a
//! way that changes one f32 operation per output element; these digests
//! were recorded with the original one-sample-at-a-time trainer.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tartan_nn::{Activation, Loss, Mlp, Pca, Topology, Trainer};

fn dataset(seed: u64, n: usize, d_in: usize, d_out: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..d_in).map(|_| rng.random_range(-1.0f32..1.0)).collect())
        .collect();
    let ys = xs
        .iter()
        .map(|x| {
            (0..d_out)
                .map(|o| {
                    let s: f32 = x.iter().skip(o).step_by(d_out).sum();
                    0.5 + 0.4 * (s / d_in as f32).tanh()
                })
                .collect()
        })
        .collect();
    (xs, ys)
}

#[test]
fn patrolbot_shaped_bce_fit_bits() {
    // 12/256/128/1 with a sigmoid head, 160 samples: ten full minibatches.
    let (xs, ys) = dataset(42, 160, 12, 1);
    let ys: Vec<Vec<f32>> = ys.iter().map(|y| vec![(y[0] > 0.5) as u8 as f32]).collect();
    let mut mlp = Mlp::new(&Topology::new(&[12, 256, 128, 1]), 42 ^ 0x77);
    mlp.set_output_activation(Activation::Sigmoid);
    let report = Trainer::new(Loss::Bce)
        .learning_rate(0.1)
        .epochs(3)
        .fit(&mut mlp, &xs, &ys);
    assert_eq!(
        report.final_loss.to_bits(),
        0x3f37_70a5,
        "loss {}",
        report.final_loss
    );
    assert_eq!(
        mlp.fingerprint(),
        0xe6f7_42d0_1e6b_7aff,
        "{:#018x}",
        mlp.fingerprint()
    );
}

#[test]
fn flybot_shaped_axar_fit_bits() {
    // 6/16/16/1 with the asymmetric loss, L2 and clipping.
    let (xs, ys) = dataset(43, 200, 6, 1);
    let mut mlp = Mlp::new(&Topology::new(&[6, 16, 16, 1]), 42 ^ 0x44);
    let report = Trainer::new(Loss::Asymmetric { alpha: 8.0 })
        .learning_rate(0.05)
        .l2(0.01)
        .clip_norm(2.5)
        .epochs(12)
        .fit(&mut mlp, &xs, &ys);
    assert_eq!(
        report.final_loss.to_bits(),
        0x3c9d_88e6,
        "loss {}",
        report.final_loss
    );
    assert_eq!(
        report.overestimation_rate.to_bits(),
        0x3ea1_47ae,
        "overestimation {}",
        report.overestimation_rate
    );
    assert_eq!(
        mlp.fingerprint(),
        0xdadf_7e16_d9d5_2ccc,
        "{:#018x}",
        mlp.fingerprint()
    );
}

#[test]
fn homebot_shaped_mse_fit_bits() {
    // 192/32/32/6, 200 samples: the last minibatch of every epoch holds 8.
    let (xs, ys) = dataset(44, 200, 192, 6);
    let mut mlp = Mlp::new(&Topology::new(&[192, 32, 32, 6]), 42 ^ 0x99);
    let report = Trainer::new(Loss::Mse)
        .learning_rate(0.02)
        .epochs(4)
        .fit(&mut mlp, &xs, &ys);
    assert_eq!(
        report.final_loss.to_bits(),
        0x3b1e_3db1,
        "loss {}",
        report.final_loss
    );
    assert_eq!(
        mlp.fingerprint(),
        0x0da7_2141_7286_6b3a,
        "{:#018x}",
        mlp.fingerprint()
    );
}

#[test]
fn patrolbot_shaped_pca_bits() {
    // 160 64-dimensional feature rows reduced to 12 components.
    let (xs, _) = dataset(45, 160, 64, 1);
    let correlated: Vec<Vec<f32>> = xs
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(i, v)| v + 0.5 * x[i / 8])
                .collect()
        })
        .collect();
    let pca = Pca::fit(&correlated, 12);
    assert_eq!(
        pca.fingerprint(),
        0x3f38_7751_635e_ef99,
        "{:#018x}",
        pca.fingerprint()
    );
}
