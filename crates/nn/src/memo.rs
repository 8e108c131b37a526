//! Process-global, single-flight memo of setup-time fits.
//!
//! [`Trainer::fit`] and [`Pca::fit`] are pure functions of their input
//! bits, so when the same fit is requested twice in one process (the
//! tier-1 bench trains the identical PatrolBot detector for the baseline
//! and Tartan configurations, `tartan_gen`'s probes fit one detector per
//! seed and scale across thousands of specs), the second call replays
//! the fitted artifact bit-for-bit instead of repeating the fit. The key
//! is a kind tag plus every bit that feeds the computation, so a hit is
//! exact by construction, not by hashing.
//!
//! A key being fitted holds an in-flight slot: concurrent identical fits
//! wait on [`FIT_DONE`] for its result instead of fitting it again. The
//! fit itself runs outside the lock, and a fit that panics frees its
//! slot: a concurrent job with the same fit key is waiting on it and
//! would otherwise block forever.
//!
//! [`Trainer::fit`]: crate::Trainer::fit
//! [`Pca::fit`]: crate::Pca::fit

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::mlp::Layer;
use crate::pca::Pca;
use crate::train::TrainReport;

/// A fitted artifact: what a memo entry replays.
pub(crate) enum Fitted {
    /// [`crate::Trainer::fit`]'s trained layers and its report.
    Mlp(Vec<Layer>, TrainReport),
    /// A fitted [`Pca`].
    Pca(Pca),
}

/// The first word of every key, so fits of different kinds over the same
/// floats never share a key.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    Mlp = 0,
    Pca = 1,
}

/// An exact-match memo key: one `u32` per `f32` bit pattern, a 64-bit
/// field as two words (low, then high), and every slice prefixed by its
/// length, so distinct inputs never pack to the same words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Key(Vec<u32>);

impl Key {
    /// A key of `kind` with room for `words` words after the tag.
    pub(crate) fn new(kind: Kind, words: usize) -> Self {
        let mut key = Vec::with_capacity(words + 1);
        key.push(kind as u32);
        Key(key)
    }

    /// Appends one word.
    pub(crate) fn word(&mut self, w: u32) {
        self.0.push(w);
    }

    /// Appends a 64-bit field as two words.
    pub(crate) fn u64(&mut self, w: u64) {
        self.0.extend([w as u32, (w >> 32) as u32]);
    }

    /// Appends a slice's length, then each element's bit pattern.
    pub(crate) fn f32s(&mut self, xs: &[f32]) {
        self.u64(xs.len() as u64);
        self.0.extend(xs.iter().map(|x| x.to_bits()));
    }

    #[cfg(test)]
    pub(crate) fn words(&self) -> &[u32] {
        &self.0
    }
}

/// One memo slot; `result` is `None` while a thread is still fitting it.
struct MemoEntry {
    key: Key,
    result: Option<Arc<Fitted>>,
}

/// The memo: in-flight slots and completed entries, the completed ones
/// in completion order. Keys dominate an entry's size: a `bench_tier1`
/// campaign's four fits have keys of 22,448 to 47,875 words (88 to
/// 187 KiB), PatrolBot's PCA fit 31,045 of them.
static FIT_MEMO: Mutex<Vec<MemoEntry>> = Mutex::new(Vec::new());
static FIT_DONE: Condvar = Condvar::new();

static FITS_TRAINED: AtomicU64 = AtomicU64::new(0);
static FITS_REPLAYED: AtomicU64 = AtomicU64::new(0);
static FITS_WAITED: AtomicU64 = AtomicU64::new(0);

/// Completed entries kept, of both kinds together: a small cap bounds
/// worst-case memo growth in long test processes.
const FIT_MEMO_MAX: usize = 32;

/// Process-wide counts of [`Trainer::fit`] and [`Pca::fit`] outcomes
/// since start-up.
///
/// [`Trainer::fit`]: crate::Trainer::fit
/// [`Pca::fit`]: crate::Pca::fit
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitMemoStats {
    /// Fits that were computed.
    pub trained: u64,
    /// Fits served from the memo without computing them.
    pub replayed: u64,
    /// Of the replayed fits, those that first waited for an identical fit
    /// still in flight on another thread.
    pub waited: u64,
}

impl FitMemoStats {
    /// A snapshot of the counters.
    pub fn snapshot() -> Self {
        FitMemoStats {
            trained: FITS_TRAINED.load(Ordering::Relaxed),
            replayed: FITS_REPLAYED.load(Ordering::Relaxed),
            waited: FITS_WAITED.load(Ordering::Relaxed),
        }
    }
}

/// Locks the memo. Every update under the lock is one `Vec` operation
/// that leaves the memo valid, so a lock poisoned by a panic elsewhere is
/// safe to recover.
fn lock_memo() -> MutexGuard<'static, Vec<MemoEntry>> {
    FIT_MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What [`claim`] found for a key.
pub(crate) enum Lookup {
    /// A completed fit to replay.
    Replay(Arc<Fitted>),
    /// No fit yet: the caller fits the key and completes the claim.
    Fit(InFlight),
}

/// Looks `key` up, waiting while an identical fit is in flight on another
/// thread. A miss claims an in-flight slot for the caller.
pub(crate) fn claim(key: Key) -> Lookup {
    let mut memo = lock_memo();
    let mut waited = false;
    loop {
        match memo.iter().find(|e| e.key == key).map(|e| e.result.clone()) {
            Some(Some(done)) => {
                FITS_REPLAYED.fetch_add(1, Ordering::Relaxed);
                if waited {
                    FITS_WAITED.fetch_add(1, Ordering::Relaxed);
                }
                return Lookup::Replay(done);
            }
            Some(None) => {
                waited = true;
                memo = FIT_DONE.wait(memo).unwrap_or_else(PoisonError::into_inner);
            }
            None => {
                memo.push(MemoEntry {
                    key: key.clone(),
                    result: None,
                });
                return Lookup::Fit(InFlight { key: Some(key) });
            }
        }
    }
}

/// The claim on an in-flight memo slot. [`InFlight::complete`] publishes
/// the result; dropping the claim unpublished (a panicking fit) frees the
/// slot, so waiters retry instead of blocking forever.
pub(crate) struct InFlight {
    key: Option<Key>,
}

impl InFlight {
    /// Publishes the caller's fit and wakes the threads waiting for it.
    pub(crate) fn complete(mut self, result: Fitted) {
        let key = self.key.take().expect("claim completes once");
        FITS_TRAINED.fetch_add(1, Ordering::Relaxed);
        let mut memo = lock_memo();
        memo.retain(|e| e.key != key);
        // Completed entries stay in completion order, oldest evicted first.
        if memo.iter().filter(|e| e.result.is_some()).count() >= FIT_MEMO_MAX {
            let oldest = memo.iter().position(|e| e.result.is_some());
            memo.remove(oldest.expect("memo holds completed entries"));
        }
        memo.push(MemoEntry {
            key,
            result: Some(Arc::new(result)),
        });
        FIT_DONE.notify_all();
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            lock_memo().retain(|e| e.key != key);
            FIT_DONE.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Loss, Mlp, Topology, Trainer};

    fn pca_key(rows: &[Vec<f32>], k: usize) -> Vec<u32> {
        crate::pca::memo_key(rows, k).words().to_vec()
    }

    #[test]
    fn packed_keys_are_injective() {
        let (a, b, c) = (1.5f32, -2.25f32, 7.0f32);
        // Odd lengths: a trailing value is its own word, never padding.
        assert_ne!(pca_key(&[vec![a]], 1), pca_key(&[vec![a, 0.0]], 1));
        assert_ne!(pca_key(&[vec![a, b, c]], 1), pca_key(&[vec![a, b]], 1));
        // Row boundaries are part of the key.
        assert_ne!(
            pca_key(&[vec![a], vec![b, c]], 1),
            pca_key(&[vec![a, b], vec![c]], 1)
        );
        // Bit patterns, not values: signed zeros and NaN payloads differ.
        assert_ne!(pca_key(&[vec![-0.0]], 1), pca_key(&[vec![0.0]], 1));
        let nan = f32::from_bits(0x7fc0_0001);
        let other_nan = f32::from_bits(0x7fc0_0002);
        assert_ne!(pca_key(&[vec![nan]], 1), pca_key(&[vec![other_nan]], 1));
        // Same inputs, same key.
        assert_eq!(
            pca_key(&[vec![a], vec![b, c]], 1),
            pca_key(&[vec![a], vec![b, c]], 1)
        );
    }

    #[test]
    fn split_words_keep_both_halves() {
        let mut key = Key::new(Kind::Pca, 2);
        key.u64(0x0123_4567_89ab_cdef);
        assert_eq!(key.words(), &[Kind::Pca as u32, 0x89ab_cdef, 0x0123_4567]);
    }

    #[test]
    fn mlp_and_pca_keys_over_the_same_floats_differ() {
        // Both keys carry the same rows; the kind tag at word 0 keeps
        // them apart whatever the rest of the words hold.
        let rows = vec![vec![0.0f32], vec![1.0]];
        let mlp = Mlp::new(&Topology::new(&[1, 1]), 0);
        let mlp_key = Trainer::new(Loss::Mse).memo_key(&mlp, &rows, &rows);
        let pca_key = crate::pca::memo_key(&rows, 1);
        assert_eq!(mlp_key.words()[0], Kind::Mlp as u32);
        assert_eq!(pca_key.words()[0], Kind::Pca as u32);
        assert_ne!(mlp_key, pca_key);
    }
}
