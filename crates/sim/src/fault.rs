//! Deterministic, seedable fault injection.
//!
//! A [`FaultPlan`] describes *where* and *how often* the simulated hardware
//! misbehaves; the machine draws from a private splitmix64 stream seeded by
//! the plan, so a given `(plan, workload)` pair always injects the same
//! faults — a failing campaign reproduces bit-identically.
//!
//! Three fault sites are modeled:
//!
//! * **Accelerator output perturbation** — after an `invoke_accel`, all
//!   outputs are scaled by a bounded relative error (`accel_error_*`)
//!   and/or one output gets a single mantissa/sign bit flipped
//!   (`accel_bitflip_rate`). This is the misbehavior AXAR supervision
//!   (§V) is specified against.
//! * **Accelerator invocation failure** — the invocation is charged but
//!   returns no usable result (`accel_fail_rate`), exercising
//!   retry/degradation paths.
//! * **Memory latency spikes** — scalar loads/stores take
//!   `mem_spike_cycles` extra cycles (`mem_spike_rate`). Timing-only:
//!   functional state is untouched, so these are *injected* but never
//!   *detected* by output supervision.
//!
//! A plan whose rates are all zero is guaranteed to leave execution —
//! stats, cycles, and functional outputs — bit-identical to having no plan
//! at all.

/// Cumulative fault counters, reported in
/// [`MachineStats::faults`](crate::MachineStats).
///
/// Under correct supervision the counters satisfy
/// `injected >= detected >= recovered` and `unrecovered == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults the plan injected (all sites).
    pub injected: u64,
    /// Faults a supervisor noticed (accelerator-output faults are
    /// detectable; latency spikes are not).
    pub detected: u64,
    /// Detected faults whose effect was fully repaired (retry or
    /// CPU-exact re-execution).
    pub recovered: u64,
    /// Faults known to have corrupted a consumed result (e.g., a failed
    /// invocation on an unsupervised path).
    pub unrecovered: u64,
}

impl FaultStats {
    /// Injected faults no supervisor noticed (timing-only spikes, or
    /// perturbations below the detector's threshold):
    /// `injected − detected`.
    pub fn undetected(&self) -> u64 {
        self.injected.saturating_sub(self.detected)
    }
}

/// A deterministic fault-injection schedule.
///
/// Rates are per-event probabilities in `[0, 1]`: accelerator rates apply
/// per invocation, the memory rate per scalar load/store. All zero rates
/// (see [`FaultPlan::quiet`]) make the plan a guaranteed no-op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the private fault RNG stream.
    pub seed: u64,
    /// Probability that an invocation's outputs get a bounded relative
    /// error applied.
    pub accel_error_rate: f64,
    /// Maximum relative error magnitude (outputs scale by `1 ± e`,
    /// `|e| <= accel_error_magnitude`).
    pub accel_error_magnitude: f64,
    /// Probability that one output of an invocation gets a single
    /// mantissa-or-sign bit flip.
    pub accel_bitflip_rate: f64,
    /// Probability that an invocation fails outright (charged, no result).
    pub accel_fail_rate: f64,
    /// Probability that a scalar memory access takes a latency spike.
    pub mem_spike_rate: f64,
    /// Extra cycles added by one latency spike.
    pub mem_spike_cycles: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (all rates zero).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            accel_error_rate: 0.0,
            accel_error_magnitude: 0.0,
            accel_bitflip_rate: 0.0,
            accel_fail_rate: 0.0,
            mem_spike_rate: 0.0,
            mem_spike_cycles: 0,
        }
    }

    /// Adds bounded-relative-error perturbation of accelerator outputs.
    pub fn with_accel_errors(mut self, rate: f64, magnitude: f64) -> Self {
        self.accel_error_rate = rate;
        self.accel_error_magnitude = magnitude;
        self
    }

    /// Adds single-bit flips on accelerator outputs.
    pub fn with_accel_bitflips(mut self, rate: f64) -> Self {
        self.accel_bitflip_rate = rate;
        self
    }

    /// Adds outright accelerator invocation failures.
    pub fn with_accel_failures(mut self, rate: f64) -> Self {
        self.accel_fail_rate = rate;
        self
    }

    /// Adds memory latency spikes.
    pub fn with_mem_spikes(mut self, rate: f64, cycles: u64) -> Self {
        self.mem_spike_rate = rate;
        self.mem_spike_cycles = cycles;
        self
    }
}

/// splitmix64 — small, fast, and good enough for Bernoulli draws; kept
/// private to the sim so the fault stream never couples to workload RNG.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Live injection state: the plan plus its RNG stream.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed);
        FaultState { plan, rng }
    }

    /// Bernoulli draw. Zero rates never touch the RNG, so a quiet plan is
    /// a strict no-op.
    fn roll(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.unit() < rate
    }

    /// Latency spike for one scalar memory access (0 = none). The caller
    /// counts a returned spike as one injected fault.
    pub(crate) fn mem_spike(&mut self) -> u64 {
        if self.roll(self.plan.mem_spike_rate) {
            self.plan.mem_spike_cycles
        } else {
            0
        }
    }

    /// Applies accelerator faults to one invocation's outputs.
    ///
    /// Returns `(injected, failed)`: the number of faults injected and
    /// whether the invocation failed outright (outputs must be discarded).
    pub(crate) fn accel_faults(&mut self, outputs: &mut [f32]) -> (u64, bool) {
        if self.roll(self.plan.accel_fail_rate) {
            return (1, true);
        }
        let mut injected = 0;
        if self.roll(self.plan.accel_error_rate) {
            // One bounded relative error over the whole result vector —
            // the NPU's systematic approximation drifting out of spec.
            let e = (self.rng.unit() * 2.0 - 1.0) * self.plan.accel_error_magnitude;
            for o in outputs.iter_mut() {
                *o *= 1.0 + e as f32;
            }
            injected += 1;
        }
        if !outputs.is_empty() && self.roll(self.plan.accel_bitflip_rate) {
            // A single-event upset in the output buffer: flip one mantissa
            // or sign bit (never the exponent, which keeps the value
            // finite — non-finite corruption is covered by large relative
            // errors upstream of the plausibility checks).
            let idx = (self.rng.next_u64() % outputs.len() as u64) as usize;
            let bit = {
                let b = self.rng.next_u64() % 24;
                if b == 23 {
                    31 // sign
                } else {
                    b as u32
                }
            };
            outputs[idx] = f32::from_bits(outputs[idx].to_bits() ^ (1 << bit));
            injected += 1;
        }
        (injected, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing_and_never_draws() {
        let mut s = FaultState::new(FaultPlan::quiet(1));
        let before = s.rng.state;
        let mut out = vec![1.0f32, 2.0];
        for _ in 0..100 {
            assert_eq!(s.mem_spike(), 0);
            assert_eq!(s.accel_faults(&mut out), (0, false));
        }
        assert_eq!(out, vec![1.0, 2.0]);
        assert_eq!(s.rng.state, before, "quiet plans must not advance the RNG");
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let plan = FaultPlan::quiet(7)
            .with_accel_errors(0.5, 0.25)
            .with_accel_bitflips(0.25)
            .with_accel_failures(0.1);
        let run = || {
            let mut s = FaultState::new(plan);
            let mut log = Vec::new();
            for _ in 0..200 {
                let mut out = vec![1.0f32, -3.5, 0.25];
                let (n, failed) = s.accel_faults(&mut out);
                log.push((n, failed, out));
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn relative_errors_are_bounded() {
        let plan = FaultPlan::quiet(3).with_accel_errors(1.0, 0.1);
        let mut s = FaultState::new(plan);
        for _ in 0..500 {
            let mut out = vec![2.0f32];
            let (n, failed) = s.accel_faults(&mut out);
            assert_eq!((n, failed), (1, false));
            assert!((out[0] - 2.0).abs() <= 0.2 + 1e-6, "out of bounds: {}", out[0]);
        }
    }

    #[test]
    fn bitflips_keep_values_finite() {
        let plan = FaultPlan::quiet(11).with_accel_bitflips(1.0);
        let mut s = FaultState::new(plan);
        for _ in 0..500 {
            let mut out = vec![1.5f32, -2.5, 1e-3];
            s.accel_faults(&mut out);
            assert!(out.iter().all(|v| v.is_finite()), "{out:?}");
        }
    }

    #[test]
    fn fail_rate_one_always_fails() {
        let plan = FaultPlan::quiet(5).with_accel_failures(1.0);
        let mut s = FaultState::new(plan);
        let mut out = vec![1.0f32];
        assert_eq!(s.accel_faults(&mut out), (1, true));
    }

    #[test]
    fn spikes_add_the_configured_cycles() {
        let plan = FaultPlan::quiet(9).with_mem_spikes(1.0, 77);
        let mut s = FaultState::new(plan);
        assert_eq!(s.mem_spike(), 77);
    }
}
