//! The simulated software reconfiguration path.
//!
//! One CATA software reconfiguration (Figure 2 of the paper) walks through:
//!
//! 1. the runtime's RSM critical section (decide who to accelerate —
//!    serialized by the RSM lock);
//! 2. the sysfs write and user→kernel switch;
//! 3. the cpufreq driver, which programs the DVFS controller and starts the
//!    hardware transition (the 25 µs rail ramp proceeds in hardware; see
//!    [`SoftwarePathParams::driver_waits_transition`] for the synchronous
//!    variant that holds the lock through it);
//! 4. kernel clock bookkeeping and return to user space.
//!
//! Steps 1–4 run on the *requesting* core (the task-start hook), and the
//! whole sequence is serialized across cores: concurrent updates could
//! transiently exceed the power budget. [`SoftwareDvfsPath`] models this as
//! a single FIFO resource with a deterministic service time, producing the
//! queueing delays that §V-C measures (ms-scale lock waits when barrier
//! bursts pile 32 requests onto the lock).

use cata_sim::stats::LatencyRecorder;
use cata_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Latency parameters of the software reconfiguration path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SoftwarePathParams {
    /// Runtime-side work under the RSM lock: scan core states, pick a
    /// victim, update the bookkeeping (user space).
    pub rsm_section: SimDuration,
    /// Formatting and writing the sysfs file + user→kernel transition.
    pub sysfs_write: SimDuration,
    /// cpufreq framework + driver execution before the hardware transition
    /// starts (kernel space, policy lock held).
    pub driver: SimDuration,
    /// Whether the driver synchronously waits for the hardware transition to
    /// finish before releasing the lock (true for acpi-cpufreq-style
    /// drivers; what the paper's measurements imply).
    pub driver_waits_transition: bool,
    /// Kernel bookkeeping after the transition (timekeeping, loops_per_jiffy)
    /// and return to user space.
    pub kernel_post: SimDuration,
}

impl SoftwarePathParams {
    /// Defaults calibrated against §V-C: the gem5 driver the paper built
    /// *starts* the DVFS transition and returns after the kernel updates its
    /// clock bookkeeping (Figure 2's sequence), so the serialized section is
    /// the user/kernel software work (≈6 µs per write), not the 25 µs rail
    /// ramp. An uncontended reconfiguration then costs ≈3 µs; queueing under
    /// bursty barriers produces the 11–65 µs *averages* and the
    /// multi-hundred-µs-to-ms maxima the paper measures. The RSM check that
    /// guards every task start/end holds the lock for 300 ns.
    pub fn paper_calibrated() -> Self {
        SoftwarePathParams {
            rsm_section: SimDuration::from_ns(300),
            sysfs_write: SimDuration::from_ns(1_500),
            driver: SimDuration::from_ns(1_000),
            driver_waits_transition: false,
            kernel_post: SimDuration::from_ns(500),
        }
    }

    /// A synchronous-driver variant (acpi-cpufreq style: the kernel waits
    /// for the rails inside the locked section). Used by the ablations to
    /// show how CATA degrades when the driver serializes transitions.
    pub fn synchronous_driver() -> Self {
        SoftwarePathParams {
            driver_waits_transition: true,
            ..Self::paper_calibrated()
        }
    }

    /// The service time one request holds the serialized path for, given the
    /// hardware transition latency.
    pub fn service_time(&self, hw_transition: SimDuration) -> SimDuration {
        let hw = if self.driver_waits_transition {
            hw_transition
        } else {
            SimDuration::ZERO
        };
        self.rsm_section + self.sysfs_write + self.driver + hw + self.kernel_post
    }
}

impl Default for SoftwarePathParams {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

/// The outcome of one software reconfiguration request.
///
/// The writes of one request follow each other under the lock at a fixed
/// stride, so the grant carries the first transition start, the stride and
/// the write count, and [`op_transition_start`](Self::op_transition_start)
/// derives the others — a grant is plain `Copy` data and never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftwareGrant {
    /// When the requester acquired the serialized path (lock acquisition).
    pub acquired_at: SimTime,
    /// Number of cpufreq writes; zero for a pure decision (lock + check,
    /// no reconfiguration).
    pub writes: usize,
    /// When the requesting core gets control back (syscall returns).
    pub returns_at: SimTime,
    /// When write 0 may begin its hardware transition; read only through
    /// [`op_transition_start`](Self::op_transition_start), which checks
    /// that the write exists.
    first_transition_start: SimTime,
    /// The lock hold of one write: the gap between the transition starts
    /// of consecutive writes.
    write_stride: SimDuration,
}

impl SoftwareGrant {
    /// When write `op` may begin its hardware transition (the driver has
    /// programmed the DVFS controller for that write).
    ///
    /// # Panics
    /// Panics unless `op < writes`.
    #[inline]
    pub fn op_transition_start(&self, op: usize) -> SimTime {
        assert!(op < self.writes, "write {op} of {}", self.writes);
        self.first_transition_start + self.write_stride.saturating_mul(op as u64)
    }

    /// Time spent waiting for the serialized path.
    #[inline]
    pub fn lock_wait(&self, requested_at: SimTime) -> SimDuration {
        self.acquired_at.since(requested_at)
    }

    /// Total latency observed by the requesting core.
    #[inline]
    pub fn total_latency(&self, requested_at: SimTime) -> SimDuration {
        self.returns_at.since(requested_at)
    }
}

/// The serialized software DVFS path shared by all cores.
#[derive(Debug, Clone)]
pub struct SoftwareDvfsPath {
    params: SoftwarePathParams,
    hw_transition: SimDuration,
    busy_until: SimTime,
    /// Lock-wait distribution (paper §V-C: maxima of 4.8–15 ms), one
    /// sample per request.
    pub lock_waits: LatencyRecorder,
    /// End-to-end reconfiguration latency distribution (paper §V-C:
    /// averages of 11–65 µs), one sample per request that writes.
    pub latencies: LatencyRecorder,
}

impl SoftwareDvfsPath {
    /// Creates the path model. `hw_transition` is the machine's DVFS
    /// transition latency (Table I: 25 µs).
    pub fn new(params: SoftwarePathParams, hw_transition: SimDuration) -> Self {
        SoftwareDvfsPath {
            params,
            hw_transition,
            busy_until: SimTime::ZERO,
            lock_waits: LatencyRecorder::new(),
            latencies: LatencyRecorder::new(),
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &SoftwarePathParams {
        &self.params
    }

    /// Issues a single-write reconfiguration request at `now` from one core.
    /// Requests are served FIFO; the caller blocks (stays busy in the
    /// runtime) until [`SoftwareGrant::returns_at`].
    pub fn request(&mut self, now: SimTime) -> SoftwareGrant {
        self.request_ops(now, 1)
    }

    /// Issues a request covering `n_ops` cpufreq writes under one RSM lock
    /// hold (a CATA displacement is two writes: decelerate the victim, then
    /// accelerate the requester). `n_ops == 0` models a pure decision — the
    /// RSM lock is still taken and still serializes, but no syscall happens.
    #[inline]
    pub fn request_ops(&mut self, now: SimTime, n_ops: usize) -> SoftwareGrant {
        let acquired_at = now.max(self.busy_until);
        let per_op = self.params.sysfs_write
            + self.params.driver
            + if self.params.driver_waits_transition {
                self.hw_transition
            } else {
                SimDuration::ZERO
            }
            + self.params.kernel_post;

        let section_start = acquired_at + self.params.rsm_section;
        let returns_at = section_start + per_op.saturating_mul(n_ops as u64);
        self.busy_until = returns_at;

        let grant = SoftwareGrant {
            acquired_at,
            writes: n_ops,
            returns_at,
            first_transition_start: section_start + self.params.sysfs_write + self.params.driver,
            write_stride: per_op,
        };
        self.lock_waits.record(grant.lock_wait(now));
        if n_ops > 0 {
            self.latencies.record(grant.total_latency(now));
        }
        grant
    }

    /// The instant the path becomes free (diagnostics).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> SoftwareDvfsPath {
        SoftwareDvfsPath::new(
            SoftwarePathParams::paper_calibrated(),
            SimDuration::from_us(25),
        )
    }

    #[test]
    fn uncontended_request_costs_service_time() {
        let mut p = path();
        let g = p.request(SimTime::from_us(100));
        assert_eq!(g.acquired_at, SimTime::from_us(100));
        assert_eq!(g.lock_wait(SimTime::from_us(100)), SimDuration::ZERO);
        // 0.3 + 1.5 + 1 + 0.5 = 3.3 µs (transition ramps outside the lock).
        assert_eq!(
            g.total_latency(SimTime::from_us(100)),
            SimDuration::from_ns(3_300)
        );
        // Transition starts after the user+kernel prefix (0.3+1.5+1 = 2.8 µs).
        assert_eq!(g.op_transition_start(0), SimTime::from_ns(102_800));
    }

    #[test]
    fn two_op_request_serializes_writes_under_one_lock_hold() {
        let mut p = path();
        let g = p.request_ops(SimTime::ZERO, 2);
        assert_eq!(g.writes, 2);
        // Op 0 transition: 0.3 (rsm) + 1.5 + 1 = 2.8 µs; op 1: 2.8 + 3 = 5.8 µs.
        assert_eq!(g.op_transition_start(0), SimTime::from_ns(2_800));
        assert_eq!(g.op_transition_start(1), SimTime::from_ns(5_800));
        // Return: 0.3 + 2×3 = 6.3 µs.
        assert_eq!(g.returns_at, SimTime::from_ns(6_300));
    }

    #[test]
    fn zero_op_request_takes_only_the_lock() {
        let mut p = path();
        let g = p.request_ops(SimTime::ZERO, 0);
        assert_eq!(g.returns_at, SimTime::from_ns(300)); // rsm section only
        assert_eq!(g.writes, 0);
        // Pure decisions do not count as reconfiguration latencies…
        assert_eq!(p.latencies.histogram().count(), 0);
        // …but they do contend on the lock.
        assert_eq!(p.lock_waits.histogram().count(), 1);
    }

    #[test]
    #[should_panic(expected = "write 0 of 0")]
    fn pure_decision_has_no_transition_start() {
        let g = path().request_ops(SimTime::ZERO, 0);
        let _ = g.op_transition_start(0);
    }

    #[test]
    fn concurrent_requests_serialize_fifo() {
        let mut p = path();
        let t = SimTime::from_ms(1);
        let g1 = p.request(t);
        let g2 = p.request(t);
        let g3 = p.request(t);
        assert_eq!(g2.acquired_at, g1.returns_at);
        assert_eq!(g3.acquired_at, g2.returns_at);
        // Third request waited two service times: 6.6 µs.
        assert_eq!(g3.lock_wait(t), SimDuration::from_ns(6_600));
    }

    #[test]
    fn burst_of_32_reaches_millisecond_waits() {
        // The paper's barrier bursts: all cores reconfigure at once.
        let mut p = path();
        let t = SimTime::ZERO;
        let mut worst = SimDuration::ZERO;
        for _ in 0..32 {
            let g = p.request(t);
            worst = worst.max(g.lock_wait(t));
        }
        // 31 × 3.3 µs = 102.3 µs of queueing for the last request; repeated
        // overlapping bursts are what drive the paper's ms-scale maxima.
        assert_eq!(worst, SimDuration::from_ns(102_300));
        assert!(p.lock_waits.histogram().max().as_us() >= 100);
    }

    #[test]
    fn path_drains_between_bursts() {
        let mut p = path();
        let g1 = p.request(SimTime::ZERO);
        let later = g1.returns_at + SimDuration::from_us(10);
        let g2 = p.request(later);
        assert_eq!(g2.lock_wait(later), SimDuration::ZERO);
    }

    #[test]
    fn synchronous_driver_serializes_the_transition() {
        let mut p = SoftwareDvfsPath::new(
            SoftwarePathParams::synchronous_driver(),
            SimDuration::from_us(25),
        );
        let g = p.request(SimTime::ZERO);
        // 0.3 + 1.5 + 1 + 25 + 0.5 = 28.3 µs with the rail ramp in the lock.
        assert_eq!(g.total_latency(SimTime::ZERO), SimDuration::from_ns(28_300));
    }

    #[test]
    fn statistics_accumulate() {
        let mut p = path();
        for i in 0..10 {
            p.request(SimTime::from_us(i));
        }
        assert_eq!(p.latencies.histogram().count(), 10);
        assert_eq!(p.lock_waits.histogram().count(), 10);
        assert!(p.latencies.histogram().mean() >= SimDuration::from_ns(3_300));
    }
}
