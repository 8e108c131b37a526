//! Offline stand-in for the `criterion` crate.
//!
//! Provides the minimal harness surface the Tartan bench suite uses —
//! `Criterion::benchmark_group`, `BenchmarkGroup::{sample_size,
//! bench_function, finish}`, `Bencher::iter`, and the `criterion_group!` /
//! `criterion_main!` macros — timing with `std::time::Instant` and printing
//! a one-line mean per benchmark. No statistics, plots, or CLI parsing;
//! the figures these benches regenerate come from *simulated* cycles that
//! the benches print themselves, so a simple wall-clock mean suffices.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Times one benchmark body over a fixed number of iterations.
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `body` repeatedly, accumulating elapsed wall time.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut body: F) {
        let start = Instant::now();
        for _ in 0..self.iterations {
            black_box(body());
        }
        self.elapsed = start.elapsed();
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup {
    name: String,
    sample_size: u64,
}

impl BenchmarkGroup {
    /// Sets how many iterations each benchmark body runs.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n as u64;
        self
    }

    /// Runs one benchmark and prints its mean iteration time.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut body: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            iterations: self.sample_size.max(1),
            elapsed: Duration::ZERO,
        };
        body(&mut b);
        let mean_ns = b.elapsed.as_nanos() as f64 / b.iterations as f64;
        println!(
            "{}/{}: {:.3} us/iter ({} iters)",
            self.name,
            id,
            mean_ns / 1000.0,
            b.iterations
        );
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a benchmark group named `name`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
        }
    }
}

/// Bundles benchmark functions into one group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_the_body_sample_size_times() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(7);
        let mut count = 0u64;
        group.bench_function("count", |b| b.iter(|| count += 1));
        group.finish();
        assert_eq!(count, 7);
    }
}
