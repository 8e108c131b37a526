#![warn(missing_docs)]

//! Deterministic host-level parallelism for simulation campaigns.
//!
//! Every figure harness, campaign, fuzz run, and the tier-1 bench executes
//! a (robot × config × seed) matrix of *independent, deterministic*
//! simulations. This crate fans those jobs out across host cores with
//! nothing but `std`, through one pool, [`try_par_map_indexed_observed`]:
//!
//! * **Scoped worker pool** — at most `jobs` workers run inside
//!   [`std::thread::scope`], so borrowed job data needs no `'static` bound
//!   and no reference counting.
//! * **Deterministic job list** — workers pull indices from one atomic
//!   counter (work-conserving: a slow simulation never idles the other
//!   cores), but every result lands in the slot of its *submission index*.
//!   The returned `Vec` is therefore identical — element for element — to
//!   what the sequential loop would have produced, which is what keeps all
//!   CSV/JSON exports byte-identical between `jobs = 1` and `jobs = N`.
//! * **Sequential fast path** — `jobs <= 1` (or a single job) runs inline
//!   on the caller's thread: no spawn, no locks, bit-identical by
//!   construction.
//! * **Fault isolation** — each job runs under [`std::panic::catch_unwind`],
//!   so one panicking job yields a structured [`JobFailure`] in its slot
//!   while every other job still completes and returns its result. Jobs
//!   are deterministic, so a failed job is reported, never retried: it
//!   would panic again.
//! * **Lifecycle observability** — a [`JobObserver`] taps every
//!   claimed/failed/done transition (with worker ids), feeding the
//!   campaign progress/metrics layer without changing any result.
//!
//! [`par_map`] is the one infallible wrapper over that pool, for callers
//! that map a slice and treat any failure as fatal: it re-raises the first
//! failed job on the caller's thread as `job {i} panicked: {message}`,
//! whatever the job count. There is no process-wide job count: every
//! caller passes `jobs` explicitly.
//!
//! # Examples
//!
//! ```
//! let items: Vec<usize> = (0..8).collect();
//! let squares = tartan_par::par_map(4, &items, |&i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of host cores available to this process (≥ 1).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a `--jobs N` / `--jobs=N` flag out of an argument list,
/// returning `(jobs, remaining_args)`. `--jobs 0` and an absent flag both
/// mean "auto": [`available_jobs`].
///
/// # Errors
///
/// Returns a message when the flag has a missing or non-numeric value.
pub fn parse_jobs_flag(args: &[String]) -> Result<(usize, Vec<String>), String> {
    let mut jobs = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--jobs" {
            let v = it
                .next()
                .ok_or_else(|| "flag --jobs needs a value".to_string())?;
            jobs = Some(v.parse::<usize>().map_err(|e| format!("bad --jobs: {e}"))?);
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            jobs = Some(v.parse::<usize>().map_err(|e| format!("bad --jobs: {e}"))?);
        } else {
            rest.push(arg.clone());
        }
    }
    let jobs = match jobs {
        None | Some(0) => available_jobs(),
        Some(n) => n,
    };
    Ok((jobs, rest))
}

/// Maps `f` over `items` on up to `jobs` worker threads and returns the
/// results **in item order**, through [`try_par_map_indexed_observed`]
/// with no observer.
///
/// `f` must be a pure function of its item (plus captured shared state)
/// for the parallel result to equal the sequential one; every caller in
/// this workspace passes a deterministic simulation.
///
/// # Panics
///
/// If any job panicked: once every job has finished, the first failure
/// in item order is re-raised on the caller's thread as
/// `job {i} panicked: {message}`.
pub fn par_map<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    try_par_map_indexed_observed(jobs, items.len(), &NoopObserver, |i| f(&items[i]))
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("job {} panicked: {}", e.index, e.message)))
        .collect()
}

/// Observer for per-job lifecycle events inside a fault-isolated campaign
/// ([`try_par_map_indexed_observed`]).
///
/// Every method has a no-op default, so an observer implements only what
/// it needs. Methods are called from worker threads — implementations
/// must be cheap and `Sync`-safe; the campaign observability layer backs
/// them with atomic counters. Events never affect results: an observed
/// campaign returns exactly what an unobserved one would.
///
/// Event order per job: `on_claimed` → optionally `on_failed` → `on_done`,
/// all on the worker that claimed the job.
pub trait JobObserver: Sync {
    /// Worker `worker` (0-based) pulled job `index` off the queue.
    fn on_claimed(&self, index: usize, worker: usize) {
        let _ = (index, worker);
    }

    /// Job `index` panicked with `message`. `on_done` still follows with
    /// `ok = false`.
    fn on_failed(&self, index: usize, message: &str) {
        let _ = (index, message);
    }

    /// Job `index` finished; `ok` is false when it panicked.
    fn on_done(&self, index: usize, ok: bool) {
        let _ = (index, ok);
    }
}

/// A [`JobObserver`] that ignores every event — what [`par_map`] passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl JobObserver for NoopObserver {}

/// A job that did not produce a result because it panicked. Jobs are
/// deterministic, so running it again would panic again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Submission index of the failed job.
    pub index: usize,
    /// The panic message.
    pub message: String,
}

/// Best-effort human-readable panic payload (`&str` / `String` payloads,
/// which is what `panic!` produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs `count` jobs `f(0) .. f(count - 1)` on up to `jobs` workers,
/// isolating each job with [`catch_unwind`]. A panicking job records a
/// [`JobFailure`] in its submission-order slot — it never aborts the pool,
/// and every other job still completes.
///
/// Results (and failures) land in submission order, so successful entries
/// are byte-identical to what a sequential run would produce. Per-job
/// lifecycle events go to `observer` (see [`JobObserver`] for the event
/// order); the observer is purely a tap and never changes a result.
pub fn try_par_map_indexed_observed<T, F, O>(
    jobs: usize,
    count: usize,
    observer: &O,
    f: F,
) -> Vec<Result<T, JobFailure>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    O: JobObserver + ?Sized,
{
    let jobs = jobs.max(1).min(count.max(1));
    let run_job = |i: usize, worker: usize| {
        observer.on_claimed(i, worker);
        let result = catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| {
            let message = panic_message(payload.as_ref());
            observer.on_failed(i, &message);
            JobFailure { index: i, message }
        });
        observer.on_done(i, result.is_ok());
        result
    };

    if jobs <= 1 {
        return (0..count).map(|i| run_job(i, 0)).collect();
    }
    let slots: Vec<Mutex<Option<Result<T, JobFailure>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(jobs);
        for w in 0..jobs {
            let (run_job, slots, next) = (&run_job, &slots, &next);
            workers.push(scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = run_job(i, w);
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
            }));
        }
        // Join each worker rather than drop its handle: a dropped handle
        // detaches the thread, and detached workers still exiting while the
        // next campaign spawns its pool raised tier-1 peak RSS from ≤35 MiB
        // to up to 43 MiB in 8 of 19 `tartan_bench` runs.
        for w in workers {
            let _ = w.join();
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .expect("every job index was claimed by exactly one worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order() {
        // Make early jobs slow so completion order inverts submission order.
        let items: Vec<usize> = (0..16).collect();
        let out = par_map(4, &items, |&i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20 - 4 * i as u64));
            }
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let work = |&i: &usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
        let items: Vec<usize> = (0..100).collect();
        let seq = par_map(1, &items, work);
        for jobs in [2, 3, 4, 8, 100, 1000] {
            assert_eq!(par_map(jobs, &items, work), seq, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_single_job_lists() {
        assert_eq!(par_map(4, &[] as &[usize], |&i| i), Vec::<usize>::new());
        assert_eq!(par_map(4, &[0usize], |&i| i + 7), vec![7]);
    }

    #[test]
    fn par_map_borrows_items() {
        let items: Vec<String> = (0..10).map(|i| format!("job{i}")).collect();
        let out = par_map(3, &items, |s| s.len());
        assert_eq!(out, vec![4; 10]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let runs: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        par_map(8, &items, |&i| runs[i].fetch_add(1, Ordering::SeqCst));
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::SeqCst), 1, "job {i}");
        }
    }

    #[test]
    fn par_map_reraises_a_failed_job_with_its_index_and_message() {
        let items: Vec<usize> = (0..8).collect();
        for jobs in [1, 4] {
            let payload = catch_unwind(|| {
                par_map(jobs, &items, |&i| {
                    if i == 3 {
                        panic!("boom {i}");
                    }
                    i
                })
            })
            .unwrap_err();
            assert_eq!(
                panic_message(payload.as_ref()),
                "job 3 panicked: boom 3",
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn jobs_flag_parses_and_strips() {
        let args: Vec<String> = ["--iters", "5", "--jobs", "3", "--out", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (jobs, rest) = parse_jobs_flag(&args).unwrap();
        assert_eq!(jobs, 3);
        assert_eq!(rest, vec!["--iters", "5", "--out", "x"]);
        let (jobs, _) = parse_jobs_flag(&["--jobs=2".to_string()]).unwrap();
        assert_eq!(jobs, 2);
        // Absent or zero → auto.
        let (auto, _) = parse_jobs_flag(&[]).unwrap();
        assert!(auto >= 1);
        let (auto0, _) = parse_jobs_flag(&["--jobs=0".to_string()]).unwrap();
        assert_eq!(auto0, auto);
        assert!(parse_jobs_flag(&["--jobs".to_string()]).is_err());
        assert!(parse_jobs_flag(&["--jobs".to_string(), "x".to_string()]).is_err());
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn duplicate_jobs_flag_last_wins() {
        let args: Vec<String> = ["--jobs", "2", "--jobs", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (jobs, rest) = parse_jobs_flag(&args).unwrap();
        assert_eq!(jobs, 5);
        assert!(rest.is_empty());
        // Mixed spellings: the later `--jobs=N` still wins.
        let args: Vec<String> = ["--jobs", "7", "--jobs=3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (jobs, _) = parse_jobs_flag(&args).unwrap();
        assert_eq!(jobs, 3);
    }

    #[test]
    fn empty_jobs_value_rejected() {
        let err = parse_jobs_flag(&["--jobs=".to_string()]).unwrap_err();
        assert!(err.contains("bad --jobs"), "got: {err}");
        let err =
            parse_jobs_flag(&["--jobs".to_string(), String::new()]).unwrap_err();
        assert!(err.contains("bad --jobs"), "got: {err}");
    }

    // One panicking job must still yield every other job's result — no
    // pool-wide abort, no poisoned-slot panic.
    #[test]
    fn one_panicking_job_spares_the_rest() {
        let results = try_par_map_indexed_observed(4, 32, &NoopObserver, |i| {
            if i == 13 {
                panic!("injected failure in job {i}");
            }
            i * 2
        });
        assert_eq!(results.len(), 32);
        for (i, r) in results.iter().enumerate() {
            if i == 13 {
                let f = r.as_ref().unwrap_err();
                assert_eq!(f.index, 13);
                assert!(f.message.contains("injected failure"), "{}", f.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2, "job {i}");
            }
        }
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
    }

    #[test]
    fn k_failures_leave_n_minus_k_results() {
        let bad = [3usize, 7, 8, 20];
        for jobs in [1, 4] {
            let results = try_par_map_indexed_observed(jobs, 24, &NoopObserver, |i| {
                if bad.contains(&i) {
                    panic!("boom {i}");
                }
                i
            });
            let failed: Vec<usize> = results
                .iter()
                .filter_map(|r| r.as_ref().err())
                .map(|f| f.index)
                .collect();
            assert_eq!(failed, bad, "jobs = {jobs}");
            assert_eq!(
                results.iter().filter(|r| r.is_ok()).count(),
                24 - bad.len(),
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn try_results_preserve_submission_order() {
        let results = try_par_map_indexed_observed(4, 16, &NoopObserver, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20 - 4 * i as u64));
            }
            i * 10
        });
        let values: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn try_empty_job_list() {
        let results = try_par_map_indexed_observed(4, 0, &NoopObserver, |i| i);
        assert!(results.is_empty());
    }

    /// Counting observer used by the lifecycle tests.
    #[derive(Default)]
    struct CountingObserver {
        claimed: AtomicUsize,
        failed: AtomicUsize,
        done: AtomicUsize,
        done_ok: AtomicUsize,
        max_worker: AtomicUsize,
    }

    impl JobObserver for CountingObserver {
        fn on_claimed(&self, _i: usize, worker: usize) {
            self.claimed.fetch_add(1, Ordering::SeqCst);
            self.max_worker.fetch_max(worker, Ordering::SeqCst);
        }
        fn on_failed(&self, _i: usize, _message: &str) {
            self.failed.fetch_add(1, Ordering::SeqCst);
        }
        fn on_done(&self, _i: usize, ok: bool) {
            self.done.fetch_add(1, Ordering::SeqCst);
            if ok {
                self.done_ok.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    // Satellite reconciliation: the observer's event counts must agree
    // with the results the same campaign returns.
    #[test]
    fn observer_events_reconcile_with_report() {
        for jobs in [1, 3] {
            let obs = CountingObserver::default();
            let results = try_par_map_indexed_observed(jobs, 12, &obs, |i| {
                if i == 7 || i == 9 {
                    panic!("boom {i}");
                }
                i
            });
            assert_eq!(obs.claimed.load(Ordering::SeqCst), 12, "jobs = {jobs}");
            assert_eq!(obs.done.load(Ordering::SeqCst), 12, "jobs = {jobs}");
            assert_eq!(
                obs.done_ok.load(Ordering::SeqCst),
                results.iter().filter(|r| r.is_ok()).count(),
                "jobs = {jobs}"
            );
            assert_eq!(
                obs.failed.load(Ordering::SeqCst),
                results.iter().filter(|r| r.is_err()).count(),
                "jobs = {jobs}"
            );
            assert!(
                obs.max_worker.load(Ordering::SeqCst) < jobs.max(1),
                "jobs = {jobs}: worker ids stay in range"
            );
        }
    }

    #[test]
    fn observed_results_equal_unobserved() {
        let work = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(9);
        let plain = try_par_map_indexed_observed(3, 40, &NoopObserver, work);
        let obs = CountingObserver::default();
        let observed = try_par_map_indexed_observed(3, 40, &obs, work);
        let a: Vec<u64> = plain.into_iter().map(|r| r.unwrap()).collect();
        let b: Vec<u64> = observed.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(a, b);
    }
}
