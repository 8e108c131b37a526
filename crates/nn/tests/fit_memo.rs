//! The trainer's fit memo is single-flight: concurrent identical fits train
//! once, and a fit that panics leaves its key retryable. This file is its
//! own test binary, so no other test's fits move the process-wide
//! counters it reads.

use std::panic;
use std::sync::{mpsc, Barrier};
use std::thread;
use std::time::Duration;

use tartan_nn::{FitMemoStats, Loss, Mlp, Topology, Trainer};

#[test]
fn concurrent_identical_fits_train_once() {
    let topo = Topology::new(&[8, 64, 32, 1]);
    let xs: Vec<Vec<f32>> = (0..256)
        .map(|i| {
            (0..8)
                .map(|j| ((i * 7 + j * 3) % 11) as f32 / 11.0)
                .collect()
        })
        .collect();
    let ys: Vec<Vec<f32>> = xs.iter().map(|x| vec![x[0] * 0.5 + x[7] * 0.25]).collect();
    let start = Barrier::new(2);
    let before = FitMemoStats::snapshot();
    let results: Vec<(u64, u32)> = thread::scope(|s| {
        let fits: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut mlp = Mlp::new(&topo, 3);
                    start.wait();
                    let report = Trainer::new(Loss::Mse).epochs(40).fit(&mut mlp, &xs, &ys);
                    (mlp.fingerprint(), report.final_loss.to_bits())
                })
            })
            .collect();
        fits.into_iter()
            .map(|f| f.join().expect("fit thread"))
            .collect()
    });
    let after = FitMemoStats::snapshot();
    assert_eq!(
        results[0], results[1],
        "both callers must get bit-equal fits"
    );
    assert_eq!(
        after.trained - before.trained,
        1,
        "the key must train exactly once"
    );
    assert_eq!(
        after.replayed - before.replayed,
        1,
        "the other caller replays it"
    );
    // The second caller normally waits for the first; it may also arrive
    // after the first finished and replay without waiting.
    assert!(after.waited - before.waited <= 1);
}

/// Fits inputs narrower than the topology: the fit claims its memo slot,
/// then panics inside training. Returns whether it panicked.
fn narrow_input_fit_panics() -> bool {
    let topo = Topology::new(&[4, 8, 1]);
    let xs = vec![vec![0.5f32; 3]; 8];
    let ys = vec![vec![1.0f32]; 8];
    panic::catch_unwind(|| {
        let mut mlp = Mlp::new(&topo, 1);
        Trainer::new(Loss::Mse).epochs(2).fit(&mut mlp, &xs, &ys)
    })
    .is_err()
}

#[test]
fn a_panicking_fit_leaves_its_key_retryable() {
    assert!(narrow_input_fit_panics());
    // Had the first attempt left its slot in flight, this identical fit
    // would wait for it forever instead of panicking in turn.
    let (done, retried) = mpsc::channel();
    let retry = thread::spawn(move || done.send(narrow_input_fit_panics()));
    assert_eq!(
        retried.recv_timeout(Duration::from_secs(60)),
        Ok(true),
        "a retry of a panicked fit must run, not wait on a wedged slot"
    );
    retry
        .join()
        .expect("retry thread")
        .expect("the receiver outlives the retry");
}
