//! The AXAR software supervisor (§V-F).
//!
//! Anytime A* (ATA*) guarantees that each iteration's path cost does not
//! exceed the previous iteration's. When heuristic evaluation is offloaded
//! to the NPU, an *overestimating* neural heuristic can break admissibility
//! and yield a worse path. The supervisor checks the exact path cost after
//! each iteration: an increase means the NPU overestimated somewhere, and
//! the iteration must be rerun on the CPU with the exact heuristic.

use tartan_sim::TartanError;

use crate::supervision::Supervisor;

/// Verdict for one completed ATA* iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationVerdict {
    /// The iteration's cost respects the monotonicity guarantee: accept it.
    Accept,
    /// The cost regressed — the NPU overestimated; rerun this iteration on
    /// the CPU with the exact heuristic.
    Rollback,
}

/// Tracks per-iteration path costs and flags NPU overestimation.
///
/// # Examples
///
/// ```
/// use tartan_npu::{AxarSupervisor, IterationVerdict};
///
/// let mut sup = AxarSupervisor::new();
/// assert_eq!(sup.check(100.0), IterationVerdict::Accept); // ε = 8 on CPU
/// assert_eq!(sup.check(90.0), IterationVerdict::Accept);  // improved
/// assert_eq!(sup.check(95.0), IterationVerdict::Rollback); // regressed!
/// // After the CPU rerun produces a valid cost, record it:
/// sup.record_cpu_rerun(88.0).unwrap();
/// assert_eq!(sup.rollbacks(), 1);
/// assert_eq!(sup.best_cost(), Some(88.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AxarSupervisor {
    best_cost: Option<f64>,
    iterations: u64,
    rollbacks: u64,
}

impl AxarSupervisor {
    /// Creates a fresh supervisor (first iteration always accepted — the
    /// paper runs it on the CPU anyway).
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks the exact cost of the path an iteration produced.
    ///
    /// Returns [`IterationVerdict::Rollback`] when the cost exceeds the best
    /// cost seen so far (NPU overestimation) or is not finite (a corrupted
    /// invocation produced NaN/∞ — never stored, so the supervisor cannot be
    /// poisoned); the caller must rerun the iteration on the CPU and then
    /// call [`record_cpu_rerun`](Self::record_cpu_rerun).
    pub fn check(&mut self, exact_cost: f64) -> IterationVerdict {
        self.iterations += 1;
        let acceptable =
            exact_cost.is_finite() && self.best_cost.is_none_or(|best| exact_cost <= best);
        if acceptable {
            self.best_cost = Some(exact_cost);
            IterationVerdict::Accept
        } else {
            self.rollbacks += 1;
            IterationVerdict::Rollback
        }
    }

    /// Records the cost produced by a CPU rerun after a rollback.
    ///
    /// # Errors
    ///
    /// Returns [`TartanError::Supervision`] if the CPU rerun *still*
    /// regressed or produced a non-finite cost — the exact heuristic is
    /// admissible, so this indicates a bug in the caller's algorithm, not
    /// an injected fault. Debug builds also assert, so the bug is loud in
    /// tests while release runs degrade gracefully.
    pub fn record_cpu_rerun(&mut self, exact_cost: f64) -> Result<(), TartanError> {
        let regressed = !exact_cost.is_finite()
            || self
                .best_cost
                .is_some_and(|best| exact_cost > best + 1e-9);
        if regressed {
            let best = self.best_cost.unwrap_or(f64::INFINITY);
            debug_assert!(
                false,
                "CPU rerun with an admissible heuristic must not regress \
                 ({exact_cost} > {best})"
            );
            return Err(TartanError::Supervision(format!(
                "CPU rerun with an admissible heuristic must not regress \
                 ({exact_cost} > {best})"
            )));
        }
        self.best_cost = Some(exact_cost);
        Ok(())
    }

    /// Best (most recent valid) path cost.
    pub fn best_cost(&self) -> Option<f64> {
        self.best_cost
    }

    /// Iterations checked.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Iterations that had to be rerun on the CPU.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Fraction of iterations rolled back.
    pub fn rollback_rate(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.rollbacks as f64 / self.iterations as f64
        }
    }
}

impl Supervisor for AxarSupervisor {
    fn name(&self) -> &'static str {
        "ata*-cost-monotonicity"
    }

    fn check(&mut self, metric: f64) -> IterationVerdict {
        AxarSupervisor::check(self, metric)
    }

    fn record_recovery(&mut self, metric: f64) -> Result<(), TartanError> {
        self.record_cpu_rerun(metric)
    }

    fn checks(&self) -> u64 {
        self.iterations
    }

    fn rollbacks(&self) -> u64 {
        self.rollbacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_costs_are_accepted() {
        let mut sup = AxarSupervisor::new();
        for cost in [80.0, 70.0, 70.0, 65.0, 60.0] {
            assert_eq!(sup.check(cost), IterationVerdict::Accept);
        }
        assert_eq!(sup.rollbacks(), 0);
        assert_eq!(sup.best_cost(), Some(60.0));
        assert_eq!(sup.iterations(), 5);
    }

    #[test]
    fn regression_triggers_rollback() {
        let mut sup = AxarSupervisor::new();
        sup.check(50.0);
        assert_eq!(sup.check(55.0), IterationVerdict::Rollback);
        assert_eq!(sup.rollback_rate(), 0.5);
        // Best cost is unchanged until the rerun reports.
        assert_eq!(sup.best_cost(), Some(50.0));
        sup.record_cpu_rerun(48.0).unwrap();
        assert_eq!(sup.best_cost(), Some(48.0));
    }

    #[test]
    fn equal_cost_is_not_a_regression() {
        let mut sup = AxarSupervisor::new();
        sup.check(50.0);
        assert_eq!(sup.check(50.0), IterationVerdict::Accept);
    }

    /// Debug builds treat a regressing CPU rerun as a bug and assert.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must not regress")]
    fn cpu_rerun_regression_is_a_bug() {
        let mut sup = AxarSupervisor::new();
        sup.check(50.0);
        sup.check(60.0);
        let _ = sup.record_cpu_rerun(61.0);
    }

    /// Release builds report a regressing CPU rerun as a supervision error
    /// and keep the best cost they had.
    #[test]
    #[cfg(not(debug_assertions))]
    fn cpu_rerun_regression_is_a_supervision_error() {
        let mut sup = AxarSupervisor::new();
        sup.check(50.0);
        sup.check(60.0);
        let err = sup.record_cpu_rerun(61.0).unwrap_err();
        assert!(
            matches!(&err, TartanError::Supervision(m) if m.contains("must not regress")),
            "{err:?}"
        );
        assert_eq!(sup.best_cost(), Some(50.0));
    }

    #[test]
    fn empty_supervisor_reports_zero_rate() {
        let sup = AxarSupervisor::new();
        assert_eq!(sup.rollback_rate(), 0.0);
        assert_eq!(sup.best_cost(), None);
    }

    #[test]
    fn non_finite_costs_roll_back_without_poisoning() {
        let mut sup = AxarSupervisor::new();
        // Even as the first observation, NaN/∞ must not become best_cost.
        assert_eq!(sup.check(f64::NAN), IterationVerdict::Rollback);
        assert_eq!(sup.best_cost(), None);
        sup.record_cpu_rerun(50.0).unwrap();
        assert_eq!(sup.check(f64::NAN), IterationVerdict::Rollback);
        assert_eq!(sup.check(f64::INFINITY), IterationVerdict::Rollback);
        assert_eq!(sup.check(f64::NEG_INFINITY), IterationVerdict::Rollback);
        assert_eq!(sup.best_cost(), Some(50.0));
        // The supervisor still judges ordinary costs correctly afterwards.
        assert_eq!(sup.check(49.0), IterationVerdict::Accept);
        assert_eq!(sup.rollbacks(), 4);
    }

    #[test]
    fn supervisor_trait_delegates_to_inherent_methods() {
        let mut sup = AxarSupervisor::new();
        let s: &mut dyn Supervisor = &mut sup;
        assert_eq!(s.name(), "ata*-cost-monotonicity");
        assert_eq!(s.check(10.0), IterationVerdict::Accept);
        assert_eq!(s.check(12.0), IterationVerdict::Rollback);
        s.record_recovery(9.0).unwrap();
        assert_eq!(s.checks(), 2);
        assert_eq!(s.rollbacks(), 1);
        assert!((s.rollback_rate() - 0.5).abs() < 1e-12);
        assert_eq!(sup.best_cost(), Some(9.0));
    }
}
