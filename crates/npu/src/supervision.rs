//! Generalized AXAR supervision (§V-F, extended).
//!
//! The paper's AXAR contract — *Approximate eXecution, Accurate Results* —
//! says the NPU may misbehave but the software must still deliver exact
//! final outputs. This module generalizes the original ATA*-only
//! supervisor into a family:
//!
//! * [`Supervisor`] — the common verdict/rollback-accounting trait, with
//!   three implementations: [`AxarSupervisor`](crate::AxarSupervisor)
//!   (ATA* cost monotonicity), [`IcpSupervisor`] (transform-prediction
//!   residual check), and [`NnsSupervisor`] (candidate-set verification).
//! * [`SupervisedNpu`] — an invocation-level wrapper around the NPU that
//!   detects faulted invocations (modeled hardware ECC/parity plus output
//!   plausibility), retries with exponential backoff
//!   ([`RetryPolicy`]), falls back to CPU-exact re-execution, and
//!   permanently demotes a flaky device after N consecutive faults
//!   ([`NpuHealth`]) — the run continues at CPU speed instead of dying.
//!
//! Recovery is *functionally exact*: the CPU fallback recomputes the same
//! function the fault-free device would have computed (through the
//! hardware sigmoid LUT for the integrated mode), so a supervised run
//! under any accelerator fault plan produces bit-identical results to a
//! fault-free run — the property `tests/fault_campaigns.rs` asserts.

use tartan_nn::{Mlp, SigmoidLut};
use tartan_sim::telemetry::SupervisionCounters;
use tartan_sim::{AccelId, Event, Interest, Machine, NpuMode, Proc, TartanError};

use crate::axar::IterationVerdict;
use crate::device::NpuDevice;

/// Common interface of the AXAR supervisor family: feed each iteration's
/// verification metric to [`check`](Supervisor::check), roll back to exact
/// CPU execution on [`IterationVerdict::Rollback`], and report the exact
/// result via [`record_recovery`](Supervisor::record_recovery).
pub trait Supervisor {
    /// Supervisor name for reports.
    fn name(&self) -> &'static str;

    /// Judges one iteration by its verification metric. What the metric
    /// means is implementation-specific (path cost, residual, distance
    /// margin); non-finite metrics always roll back.
    fn check(&mut self, metric: f64) -> IterationVerdict;

    /// Records the metric the exact CPU re-execution produced after a
    /// rollback.
    ///
    /// # Errors
    ///
    /// Returns [`TartanError::Supervision`] if the exact re-run itself
    /// violates the supervisor's invariant — a caller bug, not a fault.
    fn record_recovery(&mut self, metric: f64) -> Result<(), TartanError>;

    /// Iterations checked so far.
    fn checks(&self) -> u64;

    /// Iterations rolled back so far.
    fn rollbacks(&self) -> u64;

    /// Fraction of iterations rolled back.
    fn rollback_rate(&self) -> f64 {
        if self.checks() == 0 {
            0.0
        } else {
            self.rollbacks() as f64 / self.checks() as f64
        }
    }
}

/// Supervises NPU transform predictions in the ICP pipeline (HomeBot's
/// TRAP port): after applying the predicted transform, the caller computes
/// the alignment residual; a residual above the tolerance (or non-finite)
/// means the prediction was unusable and exact CPU ICP must run instead.
#[derive(Debug, Clone)]
pub struct IcpSupervisor {
    tolerance: f64,
    checks: u64,
    rollbacks: u64,
}

impl IcpSupervisor {
    /// Creates a supervisor accepting residuals up to `tolerance`.
    pub fn new(tolerance: f64) -> Self {
        IcpSupervisor {
            tolerance,
            checks: 0,
            rollbacks: 0,
        }
    }

    /// The residual tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }
}

impl Supervisor for IcpSupervisor {
    fn name(&self) -> &'static str {
        "icp-residual"
    }

    fn check(&mut self, residual: f64) -> IterationVerdict {
        self.checks += 1;
        if residual.is_finite() && residual <= self.tolerance {
            IterationVerdict::Accept
        } else {
            self.rollbacks += 1;
            IterationVerdict::Rollback
        }
    }

    fn record_recovery(&mut self, residual: f64) -> Result<(), TartanError> {
        if !residual.is_finite() {
            debug_assert!(false, "exact ICP produced a non-finite residual ({residual})");
            return Err(TartanError::Supervision(format!(
                "exact ICP produced a non-finite residual ({residual})"
            )));
        }
        Ok(())
    }

    fn checks(&self) -> u64 {
        self.checks
    }

    fn rollbacks(&self) -> u64 {
        self.rollbacks
    }
}

/// Verifies approximate nearest-neighbor candidates (MoveBot's RRT): the
/// caller compares the candidate's distance against the best distance in a
/// cheap exactly-scanned witness subset and feeds the margin
/// `candidate_dist − witness_dist`. A positive margin proves the candidate
/// set missed a closer point, so the query rolls back to an exact scan.
#[derive(Debug, Clone)]
pub struct NnsSupervisor {
    tolerance: f64,
    checks: u64,
    rollbacks: u64,
}

impl NnsSupervisor {
    /// Creates a verifier accepting margins up to `tolerance` (usually a
    /// small epsilon: any truly closer witness disproves the candidate).
    pub fn new(tolerance: f64) -> Self {
        NnsSupervisor {
            tolerance,
            checks: 0,
            rollbacks: 0,
        }
    }
}

impl Supervisor for NnsSupervisor {
    fn name(&self) -> &'static str {
        "nns-candidate-set"
    }

    fn check(&mut self, margin: f64) -> IterationVerdict {
        self.checks += 1;
        if margin.is_finite() && margin <= self.tolerance {
            IterationVerdict::Accept
        } else {
            self.rollbacks += 1;
            IterationVerdict::Rollback
        }
    }

    fn record_recovery(&mut self, margin: f64) -> Result<(), TartanError> {
        // An exact scan is its own witness: any finite margin is valid.
        if !margin.is_finite() {
            debug_assert!(false, "exact NNS scan produced a non-finite margin ({margin})");
            return Err(TartanError::Supervision(format!(
                "exact NNS scan produced a non-finite margin ({margin})"
            )));
        }
        Ok(())
    }

    fn checks(&self) -> u64 {
        self.checks
    }

    fn rollbacks(&self) -> u64 {
        self.rollbacks
    }
}

/// Retry-with-backoff policy for failed accelerator invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 = no retries).
    pub max_retries: u32,
    /// Stall cycles before the first retry; doubles per further retry.
    pub backoff_base_cycles: u64,
}

impl RetryPolicy {
    /// Backoff stall before retry number `retry` (0-based).
    pub fn backoff_cycles(&self, retry: u32) -> u64 {
        self.backoff_base_cycles << retry.min(16)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_base_cycles: 16,
        }
    }
}

/// Tracks consecutive faulted invocations and demotes a flaky device.
#[derive(Debug, Clone)]
pub struct NpuHealth {
    consecutive_faults: u32,
    demote_after: u32,
    demoted: bool,
}

impl NpuHealth {
    /// Demotes the device permanently after `demote_after` consecutive
    /// faulted invocations.
    pub fn new(demote_after: u32) -> Self {
        NpuHealth {
            consecutive_faults: 0,
            demote_after: demote_after.max(1),
            demoted: false,
        }
    }

    /// Whether the device has been demoted to CPU-exact execution.
    pub fn is_demoted(&self) -> bool {
        self.demoted
    }

    fn note_clean(&mut self) {
        self.consecutive_faults = 0;
    }

    fn note_faulted(&mut self) {
        self.consecutive_faults += 1;
        if self.consecutive_faults >= self.demote_after {
            self.demoted = true;
        }
    }
}

impl Default for NpuHealth {
    fn default() -> Self {
        Self::new(8)
    }
}

/// An NPU attachment whose every invocation is supervised.
///
/// Detection models a hardware-level integrity check (ECC/parity on the
/// result path): the machine's injected-fault counter is snapshotted
/// around each invocation, and any delta — plus any non-finite output —
/// marks the invocation faulted. Recovery first retries the device (with
/// [`RetryPolicy`] backoff), then re-executes the *same* function on the
/// CPU (through the hardware sigmoid LUT in integrated mode), so the
/// returned vector is bit-identical to what a fault-free device would
/// have produced. After enough consecutive faults the device is demoted
/// permanently ([`NpuHealth`]) and the run continues at CPU cost.
#[derive(Debug, Clone)]
pub struct SupervisedNpu {
    accel: AccelId,
    mlp: Mlp,
    lut: SigmoidLut,
    mode: NpuMode,
    retry: RetryPolicy,
    health: NpuHealth,
    invocations: u64,
    recoveries: u64,
    cpu_fallbacks: u64,
}

impl SupervisedNpu {
    /// Builds an [`NpuDevice`] holding `mlp` from the machine's NPU
    /// configuration, attaches it, charges its configuration cost, and
    /// wraps it for supervision.
    ///
    /// # Errors
    ///
    /// Returns [`TartanError::InvalidConfig`] when the machine has no NPU.
    pub fn attach(machine: &mut Machine, mlp: Mlp) -> Result<Self, TartanError> {
        let cfg = machine.config();
        let mode = cfg.npu;
        let device = NpuDevice::new(
            mlp.clone(),
            mode,
            cfg.npu_mac_latency,
            cfg.npu_comm_latency,
            cfg.npu_coproc_comm_latency,
        )?;
        let accel = machine.attach_accelerator(Box::new(device));
        machine.run(|p| p.configure_accel(accel));
        Ok(SupervisedNpu {
            accel,
            mlp,
            lut: SigmoidLut::new(),
            mode,
            retry: RetryPolicy::default(),
            health: NpuHealth::default(),
            invocations: 0,
            recoveries: 0,
            cpu_fallbacks: 0,
        })
    }

    /// Supervised invocations so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Invocations that needed any recovery (retry or CPU fallback).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Invocations ultimately served by CPU-exact re-execution.
    pub fn cpu_fallbacks(&self) -> u64 {
        self.cpu_fallbacks
    }

    /// Whether the device has been demoted to CPU-exact execution.
    pub fn is_demoted(&self) -> bool {
        self.health.is_demoted()
    }

    /// Snapshot of the supervision counters in the telemetry schema's
    /// mirror type (for `stats.json` export).
    pub fn counters(&self) -> SupervisionCounters {
        SupervisionCounters {
            invocations: self.invocations,
            rollbacks: self.recoveries,
            cpu_fallbacks: self.cpu_fallbacks,
        }
    }

    /// Invokes the NPU under supervision, returning the exact (fault-free)
    /// result vector. Never fails: injected faults cost cycles, not
    /// correctness.
    pub fn invoke(&mut self, p: &mut Proc, inputs: &[f32]) -> Vec<f32> {
        self.invocations += 1;
        if self.health.is_demoted() {
            return self.cpu_exact(p, inputs);
        }

        let mut outputs = Vec::new();
        let mut detected = 0u64;
        for attempt in 0..=self.retry.max_retries {
            if attempt > 0 {
                p.stall(self.retry.backoff_cycles(attempt - 1));
            }
            outputs.clear();
            let before = p.faults_injected();
            let result = p.try_invoke_accel(self.accel, inputs, &mut outputs);
            let injected = p.faults_injected() - before;
            let clean =
                result.is_ok() && injected == 0 && outputs.iter().all(|v| v.is_finite());
            if clean {
                if detected > 0 {
                    // Repaired by retrying: the device produced the exact
                    // fault-free result on a later attempt.
                    p.note_faults_recovered(detected);
                    self.recoveries += 1;
                    if p.wants_telemetry(Interest::NPU) {
                        p.emit_telemetry(&Event::NpuRollback {
                            cycle: p.telemetry_cycle(),
                            cpu_fallback: false,
                        });
                    }
                }
                self.health.note_clean();
                return outputs;
            }
            detected += injected;
            p.note_faults_detected(injected);
            self.health.note_faulted();
            if self.health.is_demoted() {
                break;
            }
        }

        // The device would not produce a clean result: re-execute exactly
        // on the CPU. This repairs every detected fault of the invocation.
        if detected > 0 {
            p.note_faults_recovered(detected);
        }
        self.recoveries += 1;
        self.cpu_fallbacks += 1;
        if p.wants_telemetry(Interest::NPU) {
            p.emit_telemetry(&Event::NpuRollback {
                cycle: p.telemetry_cycle(),
                cpu_fallback: true,
            });
        }
        self.cpu_exact(p, inputs)
    }

    /// Re-executes the device's function on the CPU, charging a software
    /// inference cost, and returns a result bit-identical to a fault-free
    /// device invocation.
    fn cpu_exact(&self, p: &mut Proc, inputs: &[f32]) -> Vec<f32> {
        // Software inference: 2 instructions per MAC (mul + add) plus
        // activation work per neuron — no PE array to hide them behind.
        let sizes = self.mlp.topology().sizes().to_vec();
        for w in sizes.windows(2) {
            let macs = (w[0] * w[1]) as u64;
            let neurons = w[1] as u64;
            p.flop(2 * macs);
            p.instr(4 * neurons);
        }
        match self.mode {
            // The integrated device computes through the hardware sigmoid
            // LUT; the exact recovery must reproduce that bit pattern.
            NpuMode::Integrated { .. } => self.mlp.forward_with_lut(inputs, &self.lut),
            _ => self.mlp.forward(inputs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan_nn::Topology;
    use tartan_sim::{FaultPlan, MachineConfig};

    fn mlp() -> Mlp {
        Mlp::new(&Topology::new(&[6, 16, 16, 1]), 3)
    }

    fn machine_with(plan: Option<FaultPlan>) -> Machine {
        let mut cfg = MachineConfig::tartan();
        cfg.fault_plan = plan;
        Machine::new(cfg)
    }

    fn fault_free_reference(inputs: &[f32]) -> Vec<f32> {
        let mut m = machine_with(None);
        let mut npu = SupervisedNpu::attach(&mut m, mlp()).unwrap();
        m.run(|p| npu.invoke(p, inputs))
    }

    #[test]
    fn clean_invocations_pass_through() {
        let mut m = machine_with(None);
        let mut npu = SupervisedNpu::attach(&mut m, mlp()).unwrap();
        let out = m.run(|p| npu.invoke(p, &[0.1; 6]));
        assert_eq!(out.len(), 1);
        assert_eq!(npu.recoveries(), 0);
        assert_eq!(m.fault_stats().detected, 0);
    }

    #[test]
    fn attach_requires_an_npu() {
        let mut m = Machine::new(MachineConfig::legacy_baseline());
        assert!(matches!(
            SupervisedNpu::attach(&mut m, mlp()),
            Err(TartanError::InvalidConfig(_))
        ));
    }

    #[test]
    fn every_fault_mode_recovers_the_exact_result() {
        let reference = fault_free_reference(&[0.3, -0.2, 0.9, 0.0, 0.5, -0.7]);
        let plans = [
            FaultPlan::quiet(7).with_accel_errors(0.5, 0.3),
            FaultPlan::quiet(7).with_accel_bitflips(0.5),
            FaultPlan::quiet(7).with_accel_failures(0.5),
            FaultPlan::quiet(7)
                .with_accel_errors(0.4, 1.0)
                .with_accel_bitflips(0.4)
                .with_accel_failures(0.4),
        ];
        for plan in plans {
            let mut m = machine_with(Some(plan));
            let mut npu = SupervisedNpu::attach(&mut m, mlp()).unwrap();
            for _ in 0..50 {
                let out = m.run(|p| npu.invoke(p, &[0.3, -0.2, 0.9, 0.0, 0.5, -0.7]));
                assert_eq!(out, reference, "supervision must return the exact result");
            }
            let f = m.fault_stats();
            assert!(f.injected >= f.detected, "{f:?}");
            assert_eq!(f.detected, f.recovered, "{f:?}");
            assert_eq!(f.unrecovered, 0, "{f:?}");
            assert!(f.detected > 0, "this plan must actually inject: {f:?}");
        }
    }

    #[test]
    fn permanent_faults_demote_to_cpu() {
        let plan = FaultPlan::quiet(3).with_accel_failures(1.0);
        let mut m = machine_with(Some(plan));
        let mut npu = SupervisedNpu::attach(&mut m, mlp()).unwrap();
        let reference = fault_free_reference(&[0.1; 6]);
        for _ in 0..10 {
            let out = m.run(|p| npu.invoke(p, &[0.1; 6]));
            assert_eq!(out, reference);
        }
        assert!(npu.is_demoted(), "an always-failing device must be demoted");
        let invocations_at_demotion = m.fault_stats().injected;
        // Demoted: no further device invocations, so no further faults.
        m.run(|p| npu.invoke(p, &[0.1; 6]));
        assert_eq!(m.fault_stats().injected, invocations_at_demotion);
        assert_eq!(m.fault_stats().unrecovered, 0);
    }

    #[test]
    fn retries_cost_backoff_cycles() {
        let policy = RetryPolicy {
            max_retries: 3,
            backoff_base_cycles: 32,
        };
        assert_eq!(policy.backoff_cycles(0), 32);
        assert_eq!(policy.backoff_cycles(1), 64);
        assert_eq!(policy.backoff_cycles(2), 128);
    }

    #[test]
    fn threshold_supervisors_judge_and_count() {
        let mut icp = IcpSupervisor::new(0.5);
        assert_eq!(icp.check(0.3), IterationVerdict::Accept);
        assert_eq!(icp.check(0.7), IterationVerdict::Rollback);
        assert_eq!(icp.check(f64::NAN), IterationVerdict::Rollback);
        assert_eq!(icp.check(f64::INFINITY), IterationVerdict::Rollback);
        assert_eq!(icp.checks(), 4);
        assert_eq!(icp.rollbacks(), 3);
        assert!(icp.record_recovery(0.1).is_ok());
        assert_eq!(icp.name(), "icp-residual");

        let mut nns = NnsSupervisor::new(1e-6);
        assert_eq!(nns.check(0.0), IterationVerdict::Accept);
        assert_eq!(nns.check(-2.0), IterationVerdict::Accept);
        assert_eq!(nns.check(0.5), IterationVerdict::Rollback);
        assert!((nns.rollback_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!(nns.record_recovery(0.0).is_ok());
        assert_eq!(nns.name(), "nns-candidate-set");
    }

    #[test]
    fn health_demotes_only_on_consecutive_faults() {
        let mut h = NpuHealth::new(3);
        h.note_faulted();
        h.note_faulted();
        h.note_clean();
        h.note_faulted();
        h.note_faulted();
        assert!(!h.is_demoted());
        h.note_faulted();
        assert!(h.is_demoted());
    }
}
