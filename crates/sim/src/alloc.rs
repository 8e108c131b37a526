//! Simulated-address-space allocation and the instrumented [`Buffer`].
//!
//! A `Buffer<T>` couples a real `Vec<T>` (the functional data) with a
//! simulated base address, so that every element access drives the timing
//! model with a realistic address stream.

use crate::machine::{Machine, MemRun, Proc};
use crate::memory::{AccessKind, MemPolicy};

/// An instrumented array living in the simulated address space.
///
/// # Examples
///
/// ```
/// use tartan_sim::{Machine, MachineConfig, MemPolicy};
///
/// let mut m = Machine::new(MachineConfig::upgraded_baseline());
/// let mut buf = m.buffer_from_vec(vec![0.0f32; 1024], MemPolicy::Normal);
/// m.run(|p| {
///     let x = buf.get(p, 0x10, 5);
///     buf.set(p, 0x11, 5, x + 1.0);
/// });
/// assert_eq!(buf.peek(5), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Buffer<T> {
    base: u64,
    policy: MemPolicy,
    data: Vec<T>,
}

impl Machine {
    /// Allocates a raw simulated address range (line-aligned).
    pub fn alloc_raw(&mut self, bytes: u64) -> u64 {
        let align = 64;
        let base = (self.next_addr + align - 1) & !(align - 1);
        self.next_addr = base + bytes.max(1);
        base
    }

    /// Wraps an existing vector in a simulated buffer.
    pub fn buffer_from_vec<T>(&mut self, data: Vec<T>, policy: MemPolicy) -> Buffer<T> {
        let bytes = (data.len().max(1) * std::mem::size_of::<T>()) as u64;
        let base = self.alloc_raw(bytes);
        Buffer { base, policy, data }
    }
}

impl<T> Buffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Simulated base address.
    pub fn base_addr(&self) -> u64 {
        self.base
    }

    /// Element size in bytes.
    pub fn elem_bytes(&self) -> u64 {
        std::mem::size_of::<T>() as u64
    }

    /// Simulated byte address of element `i`.
    pub fn addr_of(&self, i: usize) -> u64 {
        self.base + (i as u64) * self.elem_bytes()
    }

    /// The caching policy this buffer was allocated with.
    pub fn policy(&self) -> MemPolicy {
        self.policy
    }

    /// Untimed view of the functional data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Untimed mutable view of the functional data (for initialization).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Copy> Buffer<T> {
    /// Timed, independent (OoO-overlappable) read of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, p: &mut Proc<'_>, pc: u64, i: usize) -> T {
        p.read(pc, self.addr_of(i), self.elem_bytes(), self.policy);
        self.data[i]
    }

    /// Timed, *dependent* read: the workload cannot proceed without the
    /// value (pointer chase). Stalls for the full memory latency.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get_dep(&self, p: &mut Proc<'_>, pc: u64, i: usize) -> T {
        p.read_dep(pc, self.addr_of(i), self.elem_bytes(), self.policy);
        self.data[i]
    }

    /// Timed write of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, p: &mut Proc<'_>, pc: u64, i: usize, value: T) {
        p.write(pc, self.addr_of(i), self.elem_bytes(), self.policy);
        self.data[i] = value;
    }

    /// Untimed read (use when timing was already charged, e.g. after an
    /// OVEC load returned this element's index).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn peek(&self, i: usize) -> T {
        self.data[i]
    }

    /// Untimed write (initialization).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn poke(&mut self, i: usize, value: T) {
        self.data[i] = value;
    }

    /// Timed batched *scalar* read of elements `[start, start + n)` as one
    /// address run (see [`MemRun`]): charge-for-charge identical to a loop
    /// of `p.instr(lead_instr)` followed by [`Buffer::get`] per element,
    /// but executed as a single run the memory system can stream. Returns
    /// the functional slice.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn get_run(&self, p: &mut Proc<'_>, pc: u64, start: usize, n: usize, lead_instr: u64) -> &[T] {
        assert!(start + n <= self.data.len(), "run read out of bounds");
        p.run_mem(
            pc,
            &MemRun {
                base: self.addr_of(start),
                stride: self.elem_bytes() as i64,
                count: n as u64,
                bytes: self.elem_bytes(),
                kind: AccessKind::Read,
                policy: self.policy,
                lead_instr,
                dependent: false,
            },
        );
        &self.data[start..start + n]
    }

    /// Timed batched scalar write of `values` into elements starting at
    /// `start` — one address run, identical to `p.instr(lead_instr)` +
    /// [`Buffer::set`] per element.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn set_run(&mut self, p: &mut Proc<'_>, pc: u64, start: usize, values: &[T], lead_instr: u64) {
        assert!(start + values.len() <= self.data.len(), "run write out of bounds");
        p.run_mem(
            pc,
            &MemRun {
                base: self.addr_of(start),
                stride: self.elem_bytes() as i64,
                count: values.len() as u64,
                bytes: self.elem_bytes(),
                kind: AccessKind::Write,
                policy: self.policy,
                lead_instr,
                dependent: false,
            },
        );
        self.data[start..start + values.len()].copy_from_slice(values);
    }

    /// Timed contiguous vector load of elements `[start, start + n)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn vget(&self, p: &mut Proc<'_>, pc: u64, start: usize, n: usize) -> &[T] {
        assert!(start + n <= self.data.len(), "vector load out of bounds");
        if n > 0 {
            p.vload(pc, self.addr_of(start), (n as u64) * self.elem_bytes(), self.policy);
        }
        &self.data[start..start + n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn allocations_do_not_overlap() {
        let mut m = Machine::new(MachineConfig::legacy_baseline());
        let a = m.buffer_from_vec(vec![0u8; 100], MemPolicy::Normal);
        let b = m.buffer_from_vec(vec![0u8; 100], MemPolicy::Normal);
        assert!(a.base_addr() + 100 <= b.base_addr());
        assert_eq!(a.base_addr() % 64, 0);
        assert_eq!(b.base_addr() % 64, 0);
    }

    #[test]
    fn get_and_set_round_trip_with_timing() {
        let mut m = Machine::new(MachineConfig::legacy_baseline());
        let mut buf = m.buffer_from_vec(vec![1.5f32, 2.5], MemPolicy::Normal);
        let v = m.run(|p| {
            let v = buf.get(p, 1, 0);
            buf.set(p, 2, 1, v * 2.0);
            buf.get_dep(p, 3, 1)
        });
        assert_eq!(v, 3.0);
        assert!(m.wall_cycles() > 0);
        assert_eq!(m.stats().l1.accesses, 3);
    }

    #[test]
    fn element_addresses_are_contiguous() {
        let mut m = Machine::new(MachineConfig::legacy_baseline());
        let buf = m.buffer_from_vec(vec![0.0f64; 4], MemPolicy::Normal);
        assert_eq!(buf.addr_of(1) - buf.addr_of(0), 8);
        assert_eq!(buf.elem_bytes(), 8);
    }

    #[test]
    fn vget_returns_the_range() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let buf = m.buffer_from_vec((0..32).map(|i| i as f32).collect::<Vec<_>>(), MemPolicy::Normal);
        let sum: f32 = m.run(|p| buf.vget(p, 1, 8, 16).iter().sum());
        assert_eq!(sum, (8..24).sum::<i32>() as f32);
    }

    #[test]
    fn peek_and_poke_are_untimed() {
        let mut m = Machine::new(MachineConfig::legacy_baseline());
        let mut buf = m.buffer_from_vec(vec![0u32; 8], MemPolicy::Normal);
        buf.poke(3, 7);
        assert_eq!(buf.peek(3), 7);
        assert_eq!(m.wall_cycles(), 0);
        assert_eq!(m.stats().l1.accesses, 0);
    }
}
