//! The shared memory subsystem: a componentized model of bandwidth
//! contention between co-running tasks.
//!
//! The base machine model treats a task's memory time (`mem_ps` in its
//! [`ExecProfile`](crate::progress::ExecProfile)) as free, uncontended
//! uncore time — co-runners never slow each other down. This module makes
//! the shared resource explicit: a [`MemorySubsystem`] with a configurable
//! number of *bandwidth slots*, which an engine that models contention
//! keeps beside its [`Machine`](crate::machine::Machine) together with the
//! [`ArbitrationPolicy`] that grants the slots. A task with memory demand
//! must hold a slot for its demand's duration while its body runs; when
//! more tasks demand memory than slots exist, the surplus queue as
//! [`MemRequest`]s and their wall time stretches — co-runner interference
//! becomes real and measurable.
//!
//! Which waiter is served when a slot frees is an [`ArbitrationPolicy`]
//! decision — the pluggable policy family the criticality-aware
//! multiprocessor literature motivates: FIFO is the oblivious baseline,
//! criticality-first is the CAM idea (critical requests overtake), and
//! round-robin is the fairness reference. Policies are deterministic
//! functions of the waiter queue, so simulations stay bit-identical per
//! seed regardless of arbitration key.

use crate::machine::CoreId;

/// One queued memory request: the core whose task is waiting for a
/// bandwidth slot, with everything a policy may arbitrate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// The core whose task is parked waiting for a slot.
    pub core: CoreId,
    /// Criticality level of the waiting task (0 = non-critical).
    pub crit_level: u8,
    /// The task's memory demand in picoseconds (how long it will hold the
    /// slot once granted).
    pub mem_ps: u64,
    /// Arrival sequence number — the global FIFO order and the
    /// deterministic tie-break every policy shares.
    pub seq: u64,
}

/// Picks which waiter a freed slot goes to.
///
/// `pick` receives the queue in arrival order (ascending `seq`) and
/// returns the index of the request to grant. It is only called on a
/// non-empty queue. Implementations may keep state (round-robin does) but
/// must be deterministic: same queue + same internal state ⇒ same pick.
pub trait ArbitrationPolicy: Send {
    /// Index into `waiters` of the request to grant next.
    fn pick(&mut self, waiters: &[MemRequest]) -> usize;
}

/// FIFO arbitration: requests are served strictly in arrival order — the
/// criticality-oblivious baseline.
#[derive(Debug, Default)]
pub struct FifoArbitration;

impl ArbitrationPolicy for FifoArbitration {
    fn pick(&mut self, _waiters: &[MemRequest]) -> usize {
        // Waiters are kept in arrival order; the head is the oldest.
        0
    }
}

/// Criticality-first arbitration: the highest criticality level wins,
/// FIFO among equals — critical memory requests overtake non-critical
/// ones through the shared resource (the CAM idea).
#[derive(Debug, Default)]
pub struct CritFirstArbitration;

impl ArbitrationPolicy for CritFirstArbitration {
    fn pick(&mut self, waiters: &[MemRequest]) -> usize {
        let mut best = 0;
        for (i, w) in waiters.iter().enumerate().skip(1) {
            // Strictly-greater keeps the earliest-seq winner among equal
            // levels (waiters are in ascending seq order).
            if w.crit_level > waiters[best].crit_level {
                best = i;
            }
        }
        best
    }
}

/// Round-robin arbitration: cyclic over core ids, resuming after the last
/// granted core — the fairness reference point.
#[derive(Debug)]
pub struct RoundRobinArbitration {
    /// Core id granted most recently; the cycle resumes after it.
    last: u32,
}

impl Default for RoundRobinArbitration {
    fn default() -> Self {
        // First grant favors the lowest core id: distance from u32::MAX
        // wraps to `core + 0`.
        RoundRobinArbitration { last: u32::MAX }
    }
}

impl ArbitrationPolicy for RoundRobinArbitration {
    fn pick(&mut self, waiters: &[MemRequest]) -> usize {
        let start = self.last.wrapping_add(1);
        let mut best = 0;
        let mut best_dist = waiters[0].core.0.wrapping_sub(start);
        for (i, w) in waiters.iter().enumerate().skip(1) {
            let dist = w.core.0.wrapping_sub(start);
            // Strictly-less keeps the earliest seq among duplicate core
            // ids (possible transiently in open-system reuse).
            if dist < best_dist {
                best = i;
                best_dist = dist;
            }
        }
        self.last = waiters[best].core.0;
        best
    }
}

/// The shared memory subsystem: `slots` units of bandwidth, a usage
/// count, and the queue of waiting requests in arrival order.
///
/// The subsystem is mechanism only — *who* waits and *who* is granted is
/// the engine's (and its [`ArbitrationPolicy`]'s) decision. All methods
/// are O(waiters) or better and allocation-free in steady state.
#[derive(Debug, Clone)]
pub struct MemorySubsystem {
    slots: usize,
    in_use: usize,
    waiters: Vec<MemRequest>,
    next_seq: u64,
}

impl MemorySubsystem {
    /// A subsystem with `slots` bandwidth slots (must be ≥ 1: the
    /// uncontended model is "no subsystem at all", not "many slots").
    pub fn new(slots: usize) -> Self {
        assert!(slots >= 1, "a memory subsystem needs at least one slot");
        MemorySubsystem {
            slots,
            in_use: 0,
            waiters: Vec::new(),
            next_seq: 0,
        }
    }

    /// Total bandwidth slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Slots currently held.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// True if a slot is free right now.
    pub fn has_free_slot(&self) -> bool {
        self.in_use < self.slots
    }

    /// The queue of waiting requests, in arrival order.
    pub fn waiters(&self) -> &[MemRequest] {
        &self.waiters
    }

    /// Acquires a slot if one is free. Returns whether it was granted.
    #[inline]
    pub fn try_acquire(&mut self) -> bool {
        if self.in_use < self.slots {
            self.in_use += 1;
            true
        } else {
            false
        }
    }

    /// Releases a held slot.
    #[inline]
    pub fn release(&mut self) {
        debug_assert!(self.in_use > 0, "releasing a slot that was never held");
        self.in_use = self.in_use.saturating_sub(1);
    }

    /// Appends a request to the waiter queue, stamping its arrival
    /// sequence number. Returns the stamped request.
    #[inline]
    pub fn enqueue(&mut self, core: CoreId, crit_level: u8, mem_ps: u64) -> MemRequest {
        let req = MemRequest {
            core,
            crit_level,
            mem_ps,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.waiters.push(req);
        req
    }

    /// Grants a freed slot to the policy's pick, removing it from the
    /// queue (arrival order of the rest is preserved). Returns `None`
    /// when nothing waits or nothing is free.
    #[inline]
    pub fn grant(&mut self, policy: &mut dyn ArbitrationPolicy) -> Option<MemRequest> {
        if self.waiters.is_empty() || self.in_use >= self.slots {
            return None;
        }
        let idx = policy.pick(&self.waiters);
        debug_assert!(idx < self.waiters.len(), "policy picked out of range");
        let req = self.waiters.remove(idx.min(self.waiters.len() - 1));
        self.in_use += 1;
        Some(req)
    }

    /// Removes `core`'s queued request (fault injection: a failing core
    /// abandons its wait). Returns the cancelled request, if any was
    /// queued.
    pub fn cancel_core(&mut self, core: CoreId) -> Option<MemRequest> {
        let idx = self.waiters.iter().position(|w| w.core == core)?;
        Some(self.waiters.remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(core: u32, level: u8) -> (CoreId, u8, u64) {
        (CoreId(core), level, 1000)
    }

    #[test]
    fn slots_are_counted() {
        let mut m = MemorySubsystem::new(2);
        assert!(m.try_acquire());
        assert!(m.try_acquire());
        assert!(!m.try_acquire());
        assert_eq!(m.in_use(), 2);
        m.release();
        assert!(m.has_free_slot());
        assert!(m.try_acquire());
    }

    #[test]
    fn fifo_grants_in_arrival_order() {
        let mut m = MemorySubsystem::new(1);
        assert!(m.try_acquire());
        for (c, l, d) in [req(3, 1), req(1, 0), req(2, 1)] {
            m.enqueue(c, l, d);
        }
        let mut p = FifoArbitration;
        m.release();
        assert_eq!(m.grant(&mut p).unwrap().core, CoreId(3));
        m.release();
        assert_eq!(m.grant(&mut p).unwrap().core, CoreId(1));
        m.release();
        assert_eq!(m.grant(&mut p).unwrap().core, CoreId(2));
        assert!(m.grant(&mut p).is_none());
    }

    #[test]
    fn crit_first_overtakes_fifo_among_levels() {
        let mut m = MemorySubsystem::new(1);
        assert!(m.try_acquire());
        for (c, l, d) in [req(0, 0), req(1, 2), req(2, 2), req(3, 1)] {
            m.enqueue(c, l, d);
        }
        let mut p = CritFirstArbitration;
        m.release();
        // Highest level wins; FIFO among the two level-2 waiters.
        assert_eq!(m.grant(&mut p).unwrap().core, CoreId(1));
        m.release();
        assert_eq!(m.grant(&mut p).unwrap().core, CoreId(2));
        m.release();
        assert_eq!(m.grant(&mut p).unwrap().core, CoreId(3));
        m.release();
        assert_eq!(m.grant(&mut p).unwrap().core, CoreId(0));
    }

    #[test]
    fn round_robin_cycles_core_ids() {
        let mut m = MemorySubsystem::new(1);
        assert!(m.try_acquire());
        for (c, l, d) in [req(2, 0), req(0, 0), req(3, 0)] {
            m.enqueue(c, l, d);
        }
        let mut p = RoundRobinArbitration::default();
        m.release();
        // Fresh policy: the cycle starts at core 0.
        assert_eq!(m.grant(&mut p).unwrap().core, CoreId(0));
        m.release();
        // After 0, the next core id in cyclic order is 2.
        assert_eq!(m.grant(&mut p).unwrap().core, CoreId(2));
        m.release();
        assert_eq!(m.grant(&mut p).unwrap().core, CoreId(3));
    }

    #[test]
    fn cancel_removes_the_queued_request() {
        let mut m = MemorySubsystem::new(1);
        assert!(m.try_acquire());
        m.enqueue(CoreId(0), 0, 10);
        m.enqueue(CoreId(1), 0, 10);
        assert_eq!(m.cancel_core(CoreId(0)).unwrap().core, CoreId(0));
        assert!(m.cancel_core(CoreId(0)).is_none());
        assert_eq!(m.waiters().len(), 1);
    }

    #[test]
    fn grant_requires_a_free_slot() {
        let mut m = MemorySubsystem::new(1);
        assert!(m.try_acquire());
        m.enqueue(CoreId(0), 0, 10);
        let mut p = FifoArbitration;
        assert!(m.grant(&mut p).is_none(), "no free slot yet");
        m.release();
        assert!(m.grant(&mut p).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_is_rejected() {
        MemorySubsystem::new(0);
    }
}
