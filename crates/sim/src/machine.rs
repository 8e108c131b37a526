//! The simulated machine and the per-thread execution handle [`Proc`].
//!
//! The simulator is *execution-driven*: workloads are ordinary Rust code
//! whose data accesses flow through [`Proc`] (usually via
//! [`Buffer`](crate::Buffer)), driving the cache hierarchy and accumulating
//! a cycle/instruction timing model.
//!
//! # Timing model
//!
//! * Instructions retire at `issue_width` per cycle when not stalled.
//! * Independent loads overlap in the out-of-order window: only
//!   `(latency − L1)/mlp` cycles stall the core. L1 hits are fully hidden.
//! * Dependent loads (pointer chases, loop-carried addresses) stall for
//!   their full latency — this is what makes k-d-tree traversal expensive
//!   (§VIII-C) and scalar ray-casting slow (§IV).
//! * Vector loads/gathers/OVEC loads issue their lane addresses limited by
//!   the number of L1 ports and complete at the slowest lane.

use std::collections::BTreeMap;

use tartan_telemetry::{Event, FaultSite, Interest, SharedSink};

use crate::accel::{AccelId, Accelerator, InvokeCost};
use crate::config::MachineConfig;
use crate::error::TartanError;
use crate::fault::{FaultState, FaultStats};
use crate::memory::{AccessKind, MemPolicy, MemorySystem};
use crate::stats::{MachineStats, PhaseStats};
use crate::vector::oriented_lane_index;

/// Phase name used for cycles not attributed to any named phase.
pub const PHASE_OTHER: &str = "other";

/// Phase name that accumulates CPU↔accelerator communication time (Fig. 8).
pub const PHASE_COMM: &str = "communication";

/// The simulated machine: cores, memory system, attached accelerators, and
/// an address-space allocator.
pub struct Machine {
    cfg: MachineConfig,
    mem: MemorySystem,
    accels: Vec<Box<dyn Accelerator + Send>>,
    pub(crate) next_addr: u64,
    wall_cycles: u64,
    instructions: u64,
    phases: BTreeMap<&'static str, PhaseStats>,
    fault_state: Option<FaultState>,
    faults: FaultStats,
}

impl Machine {
    /// Creates a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let mem = MemorySystem::new(&cfg);
        let fault_state = cfg.fault_plan.map(FaultState::new);
        Machine {
            cfg,
            mem,
            accels: Vec::new(),
            next_addr: 0x1_0000,
            wall_cycles: 0,
            instructions: 0,
            phases: BTreeMap::new(),
            fault_state,
            faults: FaultStats::default(),
        }
    }

    /// Cumulative fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// Attaches a telemetry sink; cycle-stamped events flow to it from the
    /// memory hierarchy, the accelerator path, the fault injector, and
    /// phase switches. The sink's [`Interest`] mask is cached here — a sink
    /// interested only in faults pays nothing for the cache firehose, and
    /// with no sink attached every instrumentation site is one bit test.
    ///
    /// Telemetry never alters timing: cycle and instruction counts are
    /// bit-identical with and without a sink attached.
    pub fn set_telemetry(&mut self, sink: SharedSink) {
        self.mem.set_telemetry(Some(sink));
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Attaches an accelerator (e.g., the Tartan NPU) and returns its id.
    pub fn attach_accelerator(&mut self, accel: Box<dyn Accelerator + Send>) -> AccelId {
        self.accels.push(accel);
        AccelId(self.accels.len() - 1)
    }

    /// Runs a single-threaded section on core 0, advancing wall time by the
    /// cycles it consumes.
    pub fn run<R>(&mut self, f: impl FnOnce(&mut Proc) -> R) -> R {
        self.mem.time_base = self.wall_cycles;
        let mut proc = Proc::new(self, 0);
        let r = f(&mut proc);
        let cycles = proc.finish();
        self.wall_cycles += cycles;
        r
    }

    /// Runs a parallel stage of `threads` threads (Table I pipeline stages).
    ///
    /// Threads execute functionally in sequence but each on its own timing
    /// context; threads are assigned round-robin to the machine's cores and
    /// the stage advances wall time by the most loaded core's total.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn parallel<R>(&mut self, threads: usize, mut f: impl FnMut(usize, &mut Proc) -> R) -> Vec<R> {
        assert!(threads > 0, "a stage needs at least one thread");
        let cores = self.cfg.cores;
        let mut core_load = vec![0u64; cores];
        let mut results = Vec::with_capacity(threads);
        for tid in 0..threads {
            let core = tid % cores;
            // All threads of a stage stamp events from the stage's start.
            self.mem.time_base = self.wall_cycles;
            let mut proc = Proc::new(self, core);
            let r = f(tid, &mut proc);
            let cycles = proc.finish();
            core_load[core] += cycles;
            results.push(r);
        }
        self.wall_cycles += core_load.iter().copied().max().unwrap_or(0);
        results
    }

    /// Total wall-clock cycles so far.
    pub fn wall_cycles(&self) -> u64 {
        self.wall_cycles
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            l1: self.mem.l1_stats(),
            l2: self.mem.l2_stats(),
            l3: self.mem.l3_stats(),
            dram_bytes: self.mem.dram_bytes,
            l3_traffic_bytes: self.mem.l3_traffic_bytes,
            instructions: self.instructions,
            wall_cycles: self.wall_cycles,
            npu_invocations: self.accels.iter().map(|a| a.invocations()).sum(),
            phases: self.phases.clone(),
            faults: self.faults,
        }
    }

    /// Direct access to the memory system (diagnostics/tests).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    fn charge_phase(&mut self, phase: &'static str, cycles: u64, instructions: u64) {
        let entry = self.phases.entry(phase).or_default();
        entry.cycles += cycles;
        entry.instructions += instructions;
        self.instructions += instructions;
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("wall_cycles", &self.wall_cycles)
            .field("instructions", &self.instructions)
            .field("accelerators", &self.accels.len())
            .finish_non_exhaustive()
    }
}

/// A batched run of memory references sharing one kind, policy, and
/// per-element leading arithmetic: `count` elements of `bytes` bytes each,
/// element `i` at byte address `base + i * stride`.
///
/// Executing a run via [`Proc::run_mem`] is *defined* as equivalent to the
/// scalar loop
///
/// ```text
/// for i in 0..count {
///     proc.instr(lead_instr + 1);              // address math + the access
///     <access element i, stalling like read/read_dep/write>
/// }
/// ```
///
/// so timing, statistics, telemetry, and fault-injection draws are
/// bit-identical to issuing the elements one at a time. The batch form only
/// lets the simulator *recognize* runs of guaranteed same-line L1 hits and
/// charge them in bulk instead of re-walking the hierarchy per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRun {
    /// Byte address of element 0.
    pub base: u64,
    /// Byte distance between consecutive elements (may be negative or zero).
    pub stride: i64,
    /// Number of elements.
    pub count: u64,
    /// Bytes accessed per element.
    pub bytes: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Caching policy of the region.
    pub policy: MemPolicy,
    /// Non-memory instructions (index/address arithmetic, compares,
    /// branches) charged alongside each element's access instruction.
    pub lead_instr: u64,
    /// Whether each element's value feeds the next instruction (dependent
    /// loads stall for their full latency, like [`Proc::read_dep`]).
    pub dependent: bool,
}

/// A thread's execution handle: charges instructions, memory accesses,
/// vector operations, and accelerator invocations against one core.
#[derive(Debug)]
pub struct Proc<'m> {
    machine: &'m mut Machine,
    core: usize,
    cycles: u64,
    instr_carry: u64,
    phase: &'static str,
    /// Cycles charged to the active phase but not yet written through to the
    /// machine's phase table (flushed on phase switch and at finish, so the
    /// hot instr/stall path never touches the `BTreeMap`).
    phase_cycles: u64,
    /// Instructions charged to the active phase but not yet written through.
    phase_instr: u64,
    /// Whether the active phase received any charge at all — zero-valued
    /// charges still create the phase's entry in the stats table, so the
    /// flush must preserve them.
    phase_touched: bool,
}

impl<'m> Proc<'m> {
    fn new(machine: &'m mut Machine, core: usize) -> Self {
        Proc {
            machine,
            core,
            cycles: 0,
            instr_carry: 0,
            phase: PHASE_OTHER,
            phase_cycles: 0,
            phase_instr: 0,
            phase_touched: false,
        }
    }

    fn finish(mut self) -> u64 {
        self.fold_issue();
        self.flush_phase();
        self.cycles
    }

    /// The core this thread runs on.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.machine.cfg
    }

    /// Vector lanes (f32) of the configured vector ISA.
    pub fn lanes(&self) -> usize {
        self.machine.cfg.vector_isa.lanes()
    }

    /// Cycles elapsed on this thread so far.
    pub fn elapsed(&self) -> u64 {
        self.cycles + self.instr_carry / self.machine.cfg.issue_width
    }

    /// Currently active phase label.
    pub fn phase(&self) -> &'static str {
        self.phase
    }

    /// Switches the active phase, returning the previous one.
    ///
    /// Emits kernel-level `PhaseEnd`/`PhaseBegin` events for named phases
    /// (the catch-all [`PHASE_OTHER`] is not traced — it would bracket all
    /// the glue between kernels with noise scopes).
    pub fn set_phase(&mut self, phase: &'static str) -> &'static str {
        self.fold_issue();
        self.flush_phase();
        let prev = std::mem::replace(&mut self.phase, phase);
        if prev != phase && self.wants_telemetry(Interest::PHASE) {
            let cycle = self.telemetry_cycle();
            if prev != PHASE_OTHER {
                self.emit_telemetry(&Event::PhaseEnd { cycle, name: prev });
            }
            if phase != PHASE_OTHER {
                self.emit_telemetry(&Event::PhaseBegin { cycle, name: phase });
            }
        }
        prev
    }

    /// Global cycle stamp for telemetry events: the machine wall clock at
    /// the start of this execution section plus this thread's local time.
    /// Deterministic for a fixed seed and workload.
    pub fn telemetry_cycle(&self) -> u64 {
        self.machine.mem.time_base + self.cycles
    }

    /// Whether the attached telemetry sink (if any) wants `i`-category
    /// events. Check this before constructing an event.
    pub fn wants_telemetry(&self, i: Interest) -> bool {
        self.machine.mem.wants(i)
    }

    /// Delivers one event to the attached telemetry sink. Higher layers
    /// (e.g. NPU supervision) use this to emit their own events.
    pub fn emit_telemetry(&mut self, event: &Event) {
        self.machine.mem.emit(event);
    }

    /// Runs `f` with the given phase label active.
    pub fn with_phase<R>(&mut self, phase: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.set_phase(phase);
        let r = f(self);
        self.set_phase(prev);
        r
    }

    /// Converts accumulated instructions into issue cycles.
    fn fold_issue(&mut self) {
        let width = self.machine.cfg.issue_width;
        let cycles = self.instr_carry / width;
        if cycles > 0 {
            self.instr_carry %= width;
            self.cycles += cycles;
            self.phase_cycles += cycles;
            self.phase_touched = true;
        }
    }

    /// Writes the locally accumulated phase charges through to the machine.
    fn flush_phase(&mut self) {
        if self.phase_touched {
            self.machine
                .charge_phase(self.phase, self.phase_cycles, self.phase_instr);
            self.phase_cycles = 0;
            self.phase_instr = 0;
            self.phase_touched = false;
        }
    }

    /// Charges `n` dynamic instructions (ALU/FP/branch/address arithmetic).
    pub fn instr(&mut self, n: u64) {
        self.instr_carry += n;
        self.phase_instr += n;
        self.phase_touched = true;
        if self.instr_carry >= self.machine.cfg.issue_width {
            self.fold_issue();
        }
    }

    /// Charges `n` floating-point operations (alias of [`Proc::instr`]).
    pub fn flop(&mut self, n: u64) {
        self.instr(n);
    }

    /// Charges raw stall cycles.
    pub fn stall(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.phase_cycles += cycles;
        self.phase_touched = true;
    }

    fn stall_to(&mut self, phase: &'static str, cycles: u64) {
        self.cycles += cycles;
        self.machine.charge_phase(phase, cycles, 0);
    }

    /// Converts a raw memory latency into the core-visible stall, modeling
    /// out-of-order overlap for independent accesses.
    fn overlap(&self, raw: u64, dependent: bool) -> u64 {
        let l1 = self.machine.mem.l1_latency();
        if dependent {
            raw
        } else if raw <= l1 {
            0
        } else {
            (raw - l1).div_ceil(self.machine.cfg.mlp)
        }
    }

    /// Draws a memory latency spike from the fault plan (0 when no plan or
    /// no spike), counting any spike as one injected fault.
    fn fault_spike(&mut self) -> u64 {
        let spike = match self.machine.fault_state.as_mut() {
            Some(fs) => fs.mem_spike(),
            None => return 0,
        };
        if spike > 0 {
            self.machine.faults.injected += 1;
            if self.wants_telemetry(Interest::FAULT) {
                self.emit_telemetry(&Event::FaultInjected {
                    cycle: self.telemetry_cycle(),
                    site: FaultSite::Memory,
                    count: 1,
                });
            }
        }
        spike
    }

    /// An independent (OoO-overlappable) load.
    pub fn read(&mut self, pc: u64, addr: u64, bytes: u64, policy: MemPolicy) {
        self.instr(1);
        let raw = self
            .machine
            .mem
            .access(self.core, pc, addr, bytes, AccessKind::Read, policy, self.cycles);
        let raw = raw + self.fault_spike();
        let stall = self.overlap(raw, false);
        self.stall(stall);
    }

    /// A dependent load: the next instruction needs its value (pointer
    /// chase / loop-carried address). Stalls for the full latency.
    pub fn read_dep(&mut self, pc: u64, addr: u64, bytes: u64, policy: MemPolicy) {
        self.instr(1);
        let raw = self
            .machine
            .mem
            .access(self.core, pc, addr, bytes, AccessKind::Read, policy, self.cycles);
        let raw = raw + self.fault_spike();
        self.stall(raw);
    }

    /// A store (buffered; stalls only on deep misses, amortized).
    pub fn write(&mut self, pc: u64, addr: u64, bytes: u64, policy: MemPolicy) {
        self.instr(1);
        let raw = self
            .machine
            .mem
            .access(self.core, pc, addr, bytes, AccessKind::Write, policy, self.cycles);
        let raw = raw + self.fault_spike();
        let stall = self.overlap(raw, false);
        self.stall(stall);
    }

    /// Executes a batched address run (see [`MemRun`] for the equivalence
    /// contract). Timing, stats, telemetry, and fault draws are identical to
    /// the element-at-a-time scalar loop; the batch form exists so runs of
    /// same-line references can be charged in bulk.
    pub fn run_mem(&mut self, pc: u64, run: &MemRun) {
        let MemRun {
            base,
            stride,
            count,
            bytes,
            kind,
            policy,
            lead_instr,
            dependent,
        } = *run;
        self.run_elements(
            pc,
            (0..count).map(|i| base.wrapping_add_signed(i as i64 * stride)),
            bytes,
            kind,
            policy,
            lead_instr,
            dependent,
        );
    }

    /// Executes a batched run over an explicit address list — the irregular
    /// (non-constant-stride) form of [`Proc::run_mem`], with the same
    /// scalar-loop equivalence contract.
    #[allow(clippy::too_many_arguments)]
    pub fn run_mem_addrs(
        &mut self,
        pc: u64,
        addrs: &[u64],
        bytes: u64,
        kind: AccessKind,
        policy: MemPolicy,
        lead_instr: u64,
        dependent: bool,
    ) {
        self.run_elements(pc, addrs.iter().copied(), bytes, kind, policy, lead_instr, dependent);
    }

    /// Shared run executor. The fast path collapses consecutive elements
    /// that land in the line the previous element just touched: such an
    /// element is a *guaranteed* plain L1 hit (the line is MRU, so the LRU
    /// touch is a no-op; its PREFETCHED bit was cleared and DIRTY marking is
    /// idempotent for a same-kind repeat), costs exactly the L1 latency, and
    /// — with telemetry's CACHE/TRACE categories masked and no fault plan —
    /// has no observable effect beyond `accesses`/`hits` counters and the
    /// issue/stall charges. Those are all additive, so a run of `n` repeats
    /// collapses into one bulk charge. Everything else (new lines,
    /// line-crossing elements, special policies, fault plans, traced runs)
    /// takes the exact scalar sequence.
    #[allow(clippy::too_many_arguments)]
    fn run_elements<I: Iterator<Item = u64>>(
        &mut self,
        pc: u64,
        addrs: I,
        bytes: u64,
        kind: AccessKind,
        policy: MemPolicy,
        lead_instr: u64,
        dependent: bool,
    ) {
        let fast = policy == MemPolicy::Normal
            && self.machine.fault_state.is_none()
            // `wants` is all-bits containment, so query each category on its
            // own: either CACHE or TRACE interest alone must disable the
            // collapse (both categories emit one event per access).
            && !self.machine.mem.wants(Interest::CACHE)
            && !self.machine.mem.wants(Interest::TRACE);
        let line = self.machine.mem.line_bytes();
        let l1_latency = self.machine.mem.l1_latency();
        let per_elem = lead_instr + 1;
        let mut last_line = u64::MAX;
        let mut repeats: u64 = 0;
        for addr in addrs {
            let first = addr / line;
            let last = (addr + bytes - 1) / line;
            if fast && first == last && first == last_line {
                repeats += 1;
                continue;
            }
            if repeats > 0 {
                self.charge_l1_repeats(repeats, per_elem, dependent, l1_latency);
                repeats = 0;
            }
            self.instr(per_elem);
            let raw = self
                .machine
                .mem
                .access(self.core, pc, addr, bytes, kind, policy, self.cycles);
            let raw = raw + self.fault_spike();
            let stall = if dependent { raw } else { self.overlap(raw, false) };
            self.stall(stall);
            last_line = last;
        }
        if repeats > 0 {
            self.charge_l1_repeats(repeats, per_elem, dependent, l1_latency);
        }
    }

    /// Bulk charge for `n` collapsed same-line L1 hits: the issue charges
    /// fold associatively (`instr(a); instr(b)` ≡ `instr(a + b)`), dependent
    /// hits stall the full L1 latency each, and independent hits stall zero
    /// cycles (`overlap(l1_latency, false) == 0`).
    fn charge_l1_repeats(&mut self, n: u64, per_elem: u64, dependent: bool, l1_latency: u64) {
        self.instr(per_elem * n);
        self.machine.mem.note_l1_hits(self.core, n);
        if dependent {
            self.stall(l1_latency * n);
        }
    }

    /// A contiguous vector load of `bytes` starting at `addr`: one vector
    /// instruction per register width, lanes overlap like independent loads.
    pub fn vload(&mut self, pc: u64, addr: u64, bytes: u64, policy: MemPolicy) {
        let reg_bytes = (self.lanes() * 4) as u64;
        self.instr(bytes.div_ceil(reg_bytes));
        let line = self.machine.mem.line_bytes();
        let first = addr / line;
        let last = (addr + bytes - 1) / line;
        let mut worst = 0;
        for l in first..=last {
            let raw =
                self.machine
                    .mem
                    .access(self.core, pc, l * line, 1, AccessKind::Read, policy, self.cycles);
            worst = worst.max(raw);
        }
        let serial = (last - first).div_ceil(self.machine.cfg.l1_ports.max(1));
        let stall = self.overlap(worst, false) + serial;
        self.stall(stall);
    }

    /// A hardware gather (`VGATHERDPS`-style): one vector instruction whose
    /// lane addresses were computed in *software* (the caller must charge
    /// those index-arithmetic instructions itself, as the paper's Gather
    /// baseline does, §VIII-A). Like any load instruction it overlaps in
    /// the OoO window; the L1 ports bound lane issue throughput.
    pub fn vgather(&mut self, pc: u64, addrs: &[u64], elem_bytes: u64, policy: MemPolicy) {
        self.instr(1);
        let worst = self.lane_fetch(pc, addrs, elem_bytes, policy);
        let serial = (addrs.len() as u64).div_ceil(self.machine.cfg.l1_ports.max(1));
        let stall = self.overlap(worst, false) + serial;
        self.stall(stall);
    }

    /// An OVEC oriented vector load (§IV): in-hardware parallel address
    /// generation (5 cycles, pipelined into the load path) followed by
    /// lane fetches. Returns the lane element indices so the caller can
    /// read its functional data.
    ///
    /// `base` is the byte address of element 0, `origin`/`orient` are in
    /// (possibly fractional) element units; lane indices clamp to
    /// `[0, max_elems)` — the grid's edge, which the walk treats as
    /// occupied anyway.
    ///
    /// # Panics
    ///
    /// Panics if the machine was configured without OVEC support, or if
    /// `max_elems` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn oriented_load(
        &mut self,
        pc: u64,
        base: u64,
        origin: f64,
        orient: f64,
        lanes: usize,
        elem_bytes: u64,
        max_elems: u64,
        policy: MemPolicy,
    ) -> Vec<i64> {
        let mut indices = Vec::with_capacity(lanes);
        self.oriented_fetch(pc, base, origin, orient, lanes, elem_bytes, max_elems, policy, Some(&mut indices));
        indices
    }

    /// [`Proc::oriented_load`] without materializing the lane indices —
    /// for callers that track the walk's functional state themselves (the
    /// vectorized ray cast discards the returned vector). Timing, stats,
    /// and telemetry are identical to `oriented_load`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Proc::oriented_load`].
    #[allow(clippy::too_many_arguments)]
    pub fn oriented_load_discard(
        &mut self,
        pc: u64,
        base: u64,
        origin: f64,
        orient: f64,
        lanes: usize,
        elem_bytes: u64,
        max_elems: u64,
        policy: MemPolicy,
    ) {
        self.oriented_fetch(pc, base, origin, orient, lanes, elem_bytes, max_elems, policy, None);
    }

    /// Shared O_MOVE engine: lane index generation, telemetry, and the
    /// line-deduplicated lane fetch fused into one pass (addresses are
    /// computed on the fly instead of materialized, mirroring the
    /// in-hardware address generator).
    #[allow(clippy::too_many_arguments)]
    fn oriented_fetch(
        &mut self,
        pc: u64,
        base: u64,
        origin: f64,
        orient: f64,
        lanes: usize,
        elem_bytes: u64,
        max_elems: u64,
        policy: MemPolicy,
        mut sink: Option<&mut Vec<i64>>,
    ) {
        assert!(
            self.machine.cfg.ovec,
            "O_MOVE executed on a machine without OVEC support"
        );
        assert!(max_elems > 0, "oriented load needs a nonempty buffer");
        self.instr(1);
        if self.wants_telemetry(Interest::OVEC) {
            self.emit_telemetry(&Event::OvecAddrGen {
                cycle: self.telemetry_cycle(),
                lanes: lanes as u32,
                base,
                origin,
                orient,
                elem_bytes,
                max_elems,
            });
        }
        // Same per-line dedup as `lane_fetch`: consecutive lanes landing in
        // one cache line cost a single probe.
        let line = self.machine.mem.line_bytes();
        let mut worst = 0;
        let mut last_line = u64::MAX;
        for lane in 0..lanes {
            let i = oriented_lane_index(origin, orient, lane).clamp(0, max_elems as i64 - 1);
            if let Some(sink) = sink.as_deref_mut() {
                sink.push(i);
            }
            let a = base + i as u64 * elem_bytes;
            let l = a / line;
            if l != last_line {
                let raw = self
                    .machine
                    .mem
                    .access(self.core, pc, a, elem_bytes, AccessKind::Read, policy, self.cycles);
                worst = worst.max(raw);
                last_line = l;
            }
        }
        let serial = (lanes as u64).div_ceil(self.machine.cfg.l1_ports.max(1));
        // The address generator adds its latency in front of the load's;
        // the whole O_MOVE overlaps in the OoO window like other loads.
        let stall = self
            .overlap(self.machine.cfg.ovec_addr_gen_latency + worst, false)
            + serial;
        self.stall(stall);
    }

    /// Issues a set of lane addresses, returning the slowest lane's raw
    /// latency. Consecutive lanes falling in one line cost a single probe.
    fn lane_fetch(&mut self, pc: u64, addrs: &[u64], elem_bytes: u64, policy: MemPolicy) -> u64 {
        let mut worst = 0;
        let line = self.machine.mem.line_bytes();
        let mut last_line = u64::MAX;
        for &a in addrs {
            let l = a / line;
            if l != last_line {
                let raw = self
                    .machine
                    .mem
                    .access(self.core, pc, a, elem_bytes, AccessKind::Read, policy, self.cycles);
                worst = worst.max(raw);
                last_line = l;
            }
        }
        worst
    }

    /// Charges `lane_ops` element-wise vector ALU operations.
    pub fn vec_compute(&mut self, lane_ops: u64) {
        let lanes = self.lanes() as u64;
        self.instr(lane_ops.div_ceil(lanes));
    }

    /// Invokes an attached accelerator. Communication cycles are attributed
    /// to the [`PHASE_COMM`] phase, compute cycles to the current phase
    /// (matching Fig. 8's breakdown).
    ///
    /// Under a fault plan, injected faults silently corrupt (or, on a hard
    /// failure, zero) the outputs — this models an *unsupervised* consumer.
    /// Supervised paths should use [`Proc::try_invoke_accel`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not identify an attached accelerator.
    pub fn invoke_accel(&mut self, id: AccelId, inputs: &[f32], outputs: &mut Vec<f32>) -> InvokeCost {
        let (cost, fault) = self.invoke_accel_inner(id, inputs, outputs);
        if fault.is_err() {
            // The caller has no way to notice: the run consumes a
            // known-bad (zeroed) result.
            self.machine.faults.unrecovered += 1;
            if self.wants_telemetry(Interest::FAULT) {
                self.emit_telemetry(&Event::FaultUnrecovered {
                    cycle: self.telemetry_cycle(),
                    count: 1,
                });
            }
        }
        cost
    }

    /// Invokes an attached accelerator, reporting injected hard failures
    /// to the caller instead of silently zeroing the outputs. Timing is
    /// charged either way (the failed round-trip still took its cycles).
    ///
    /// # Errors
    ///
    /// Returns [`TartanError::AccelInvocationFailed`] when the fault plan
    /// fails this invocation; `outputs` must then be discarded.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not identify an attached accelerator.
    pub fn try_invoke_accel(
        &mut self,
        id: AccelId,
        inputs: &[f32],
        outputs: &mut Vec<f32>,
    ) -> Result<InvokeCost, TartanError> {
        let (cost, fault) = self.invoke_accel_inner(id, inputs, outputs);
        fault.map(|()| cost)
    }

    fn invoke_accel_inner(
        &mut self,
        id: AccelId,
        inputs: &[f32],
        outputs: &mut Vec<f32>,
    ) -> (InvokeCost, Result<(), TartanError>) {
        self.instr(4); // send/launch/poll/collect on the CPU side
        let issue_cycle = self.telemetry_cycle();
        let cost = self.machine.accels[id.0].invoke(inputs, outputs);
        self.stall_to(PHASE_COMM, cost.comm_cycles);
        self.stall(cost.compute_cycles);
        if self.wants_telemetry(Interest::NPU) {
            self.emit_telemetry(&Event::NpuInvoke {
                cycle: issue_cycle,
                inputs: inputs.len() as u32,
                outputs: outputs.len() as u32,
                comm_cycles: cost.comm_cycles,
                compute_cycles: cost.compute_cycles,
            });
        }
        let (injected, failed) = match self.machine.fault_state.as_mut() {
            Some(fs) => fs.accel_faults(outputs),
            None => (0, false),
        };
        self.machine.faults.injected += injected;
        if injected > 0 && self.wants_telemetry(Interest::FAULT) {
            self.emit_telemetry(&Event::FaultInjected {
                cycle: self.telemetry_cycle(),
                site: FaultSite::Accel,
                count: injected,
            });
        }
        if failed {
            // Keep the output shape (callers may index it) but no data
            // survives a failed invocation.
            for o in outputs.iter_mut() {
                *o = 0.0;
            }
            (cost, Err(TartanError::AccelInvocationFailed { accel: id }))
        } else {
            (cost, Ok(()))
        }
    }

    /// Total faults the machine's plan has injected so far. Supervised
    /// wrappers snapshot this around an invocation to attribute faults —
    /// the software model of a hardware-level ECC/parity detector.
    pub fn faults_injected(&self) -> u64 {
        self.machine.faults.injected
    }

    /// Records `n` faults noticed by a supervisor.
    pub fn note_faults_detected(&mut self, n: u64) {
        self.machine.faults.detected += n;
        if n > 0 && self.wants_telemetry(Interest::FAULT) {
            self.emit_telemetry(&Event::FaultDetected {
                cycle: self.telemetry_cycle(),
                count: n,
            });
        }
    }

    /// Records `n` detected faults whose effects were fully repaired.
    pub fn note_faults_recovered(&mut self, n: u64) {
        self.machine.faults.recovered += n;
        if n > 0 && self.wants_telemetry(Interest::FAULT) {
            self.emit_telemetry(&Event::FaultRecovered {
                cycle: self.telemetry_cycle(),
                count: n,
            });
        }
    }

    /// Charges an accelerator's one-time configuration cost.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not identify an attached accelerator.
    pub fn configure_accel(&mut self, id: AccelId) {
        let cost = self.machine.accels[id.0].configure_cost();
        self.stall_to(PHASE_COMM, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn instructions_issue_at_width() {
        let mut m = Machine::new(MachineConfig::legacy_baseline());
        m.run(|p| p.instr(400));
        assert_eq!(m.wall_cycles(), 100);
        assert_eq!(m.stats().instructions, 400);
    }

    #[test]
    fn dependent_loads_stall_fully() {
        let mut m = Machine::new(MachineConfig::legacy_baseline());
        let (dep, indep) = m.run(|p| {
            p.read_dep(1, 0, 4, MemPolicy::Normal);
            let dep = p.elapsed();
            p.read(1, 1 << 20, 4, MemPolicy::Normal);
            (dep, p.elapsed() - dep)
        });
        assert!(dep > 250, "cold dependent miss stalls fully: {dep}");
        assert!(
            indep < dep / 2,
            "independent miss overlaps: {indep} vs {dep}"
        );
    }

    #[test]
    fn parallel_wall_time_is_max_core_load() {
        let mut m = Machine::new(MachineConfig::legacy_baseline());
        // 4 cores, 4 threads with unequal work: wall = slowest thread.
        m.parallel(4, |tid, p| p.instr(400 * (tid as u64 + 1)));
        assert_eq!(m.wall_cycles(), 400);
    }

    #[test]
    fn oversubscribed_threads_serialize_on_cores() {
        let mut m = Machine::new(MachineConfig::legacy_baseline());
        // 8 equal threads on 4 cores: 2 per core.
        m.parallel(8, |_tid, p| p.instr(400));
        assert_eq!(m.wall_cycles(), 200);
    }

    #[test]
    fn phases_attribute_cycles() {
        let mut m = Machine::new(MachineConfig::legacy_baseline());
        m.run(|p| {
            p.with_phase("raycast", |p| p.instr(400));
            p.instr(40);
        });
        let stats = m.stats();
        assert_eq!(stats.phase_cycles("raycast"), 100);
        assert_eq!(stats.phases.get("raycast").map(|s| s.instructions), Some(400));
        assert_eq!(stats.phase_cycles(PHASE_OTHER), 10);
    }

    #[test]
    fn ovec_requires_configuration() {
        let mut m = Machine::new(MachineConfig::tartan());
        let idx = m.run(|p| p.oriented_load(1, 0x1_0000, 2.5, 1.5, 4, 4, 1 << 20, MemPolicy::Normal));
        assert_eq!(idx, vec![2, 4, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "without OVEC")]
    fn ovec_panics_on_baseline() {
        let mut m = Machine::new(MachineConfig::legacy_baseline());
        m.run(|p| {
            let _ = p.oriented_load(1, 0, 0.0, 1.0, 4, 4, 1 << 20, MemPolicy::Normal);
        });
    }

    #[test]
    fn ovec_costs_less_than_scalar_dependent_walk() {
        // The core claim of §IV: an oriented pattern fetched by O_MOVE beats
        // the same cells fetched by a scalar dependent loop.
        let cells = 160usize;
        let stride = 3.2f64; // fractional, non-contiguous

        let mut scalar_m = Machine::new(MachineConfig::upgraded_baseline());
        scalar_m.run(|p| {
            for i in 0..cells {
                let idx = (i as f64 * stride).floor() as u64;
                p.instr(6); // address arithmetic + compare + branch
                p.read_dep(1, 0x1_0000 + idx * 4, 4, MemPolicy::Normal);
            }
        });

        let mut ovec_m = Machine::new(MachineConfig::tartan());
        ovec_m.run(|p| {
            let lanes = p.lanes();
            let mut i = 0usize;
            while i < cells {
                let n = lanes.min(cells - i);
                let _ = p.oriented_load(1, 0x1_0000, i as f64 * stride, stride, n, 4, 1 << 20, MemPolicy::Normal);
                p.vec_compute(n as u64); // the occupancy compare
                p.instr(2);
                i += n;
            }
        });

        let s = scalar_m.wall_cycles();
        let o = ovec_m.wall_cycles();
        assert!(o * 2 < s, "OVEC {o} should be well under half of scalar {s}");
        let si = scalar_m.stats().instructions;
        let oi = ovec_m.stats().instructions;
        assert!(
            oi * 2 < si,
            "OVEC must also shrink dynamic instructions: {oi} vs {si}"
        );
    }

    #[test]
    fn debug_formats_are_nonempty() {
        let m = Machine::new(MachineConfig::legacy_baseline());
        assert!(!format!("{m:?}").is_empty());
    }
}
