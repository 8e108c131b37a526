//! PCA fits share the trainer's single-flight fit memo: concurrent
//! identical fits compute once, and a fit that panics leaves its key
//! retryable. This file is its own test binary because `fit_memo.rs`
//! asserts exact counter deltas, and tests in one binary run
//! concurrently.

use std::panic;
use std::sync::{mpsc, Barrier};
use std::thread;
use std::time::Duration;

use tartan_nn::{FitMemoStats, Pca};

#[test]
fn concurrent_identical_pca_fits_compute_once() {
    // PatrolBot's shape: 160 rows of 192 features, 4 components.
    let data: Vec<Vec<f32>> = (0..160)
        .map(|i| {
            (0..192)
                .map(|j| ((i * 7 + j * 3) % 13) as f32 / 13.0 + (j % 5) as f32 * 0.1)
                .collect()
        })
        .collect();
    let start = Barrier::new(2);
    let before = FitMemoStats::snapshot();
    let prints: Vec<u64> = thread::scope(|s| {
        let fits: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    Pca::fit(&data, 4).fingerprint()
                })
            })
            .collect();
        fits.into_iter()
            .map(|f| f.join().expect("fit thread"))
            .collect()
    });
    let after = FitMemoStats::snapshot();
    assert_eq!(prints[0], prints[1], "both callers must get bit-equal fits");
    assert_eq!(after.trained - before.trained, 1, "the key must fit once");
    assert_eq!(
        after.replayed - before.replayed,
        1,
        "the other caller replays it"
    );
    // The second caller normally waits for the first; it may also arrive
    // after the first finished and replay without waiting.
    assert!(after.waited - before.waited <= 1);
}

/// Asks for more components than the rows have dimensions: the fit claims
/// its memo slot, then panics. Returns whether it panicked.
fn oversized_k_fit_panics() -> bool {
    panic::catch_unwind(|| Pca::fit(&[vec![1.0, 2.0], vec![3.0, 5.0]], 3)).is_err()
}

#[test]
fn a_panicking_pca_fit_leaves_its_key_retryable() {
    assert!(oversized_k_fit_panics());
    // Had the first attempt left its slot in flight, this identical fit
    // would wait for it forever instead of panicking in turn.
    let (done, retried) = mpsc::channel();
    let retry = thread::spawn(move || done.send(oversized_k_fit_panics()));
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
