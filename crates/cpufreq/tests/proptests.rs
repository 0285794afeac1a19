//! Property tests for the software DVFS path model and the backends.

use cata_cpufreq::backend::{DvfsBackend, MockDvfs};
use cata_cpufreq::software_path::{SoftwareDvfsPath, SoftwarePathParams};
use cata_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// FIFO service: grants never overlap, are ordered, and each request's
    /// latency decomposes into wait + service exactly.
    #[test]
    fn path_grants_are_fifo_and_non_overlapping(
        arrivals in prop::collection::vec(0u64..2_000, 1..100),
        ops in prop::collection::vec(0usize..3, 1..100),
    ) {
        let params = SoftwarePathParams::paper_calibrated();
        let hw = SimDuration::from_us(25);
        let mut path = SoftwareDvfsPath::new(params, hw);
        let mut t = 0u64;
        let mut prev_return = SimTime::ZERO;
        for (a, n) in arrivals.iter().zip(ops.iter().cycle()) {
            t += a;
            let now = SimTime::from_us(t);
            let g = path.request_ops(now, *n);
            // Service begins no earlier than both the request and the
            // previous grant's completion.
            prop_assert!(g.acquired_at >= now);
            prop_assert!(g.acquired_at >= prev_return);
            prop_assert!(g.returns_at >= g.acquired_at);
            // Latency decomposition.
            let wait = g.lock_wait(now);
            let total = g.total_latency(now);
            let service = g.returns_at.since(g.acquired_at);
            prop_assert_eq!(wait + service, total);
            // Per-op transition starts are ordered and inside the hold.
            for op in 1..g.writes {
                prop_assert!(g.op_transition_start(op - 1) < g.op_transition_start(op));
            }
            if g.writes > 0 {
                let first = g.op_transition_start(0);
                prop_assert!(first >= g.acquired_at && first <= g.returns_at);
            }
            prev_return = g.returns_at;
        }
    }

    /// The synchronous-driver variant is never faster than the asynchronous
    /// one, and the difference is exactly n_ops × hw latency.
    #[test]
    fn synchronous_driver_costs_the_transition(n in 0usize..5, at in 0u64..1000) {
        let hw = SimDuration::from_us(25);
        let now = SimTime::from_us(at);
        let mut a = SoftwareDvfsPath::new(SoftwarePathParams::paper_calibrated(), hw);
        let mut s = SoftwareDvfsPath::new(SoftwarePathParams::synchronous_driver(), hw);
        let ga = a.request_ops(now, n);
        let gs = s.request_ops(now, n);
        let diff = gs.total_latency(now).saturating_sub(ga.total_latency(now));
        prop_assert_eq!(diff, hw.saturating_mul(n as u64));
    }

    /// The mock backend stores the last write per cpu, in order, like a real
    /// sysfs file.
    #[test]
    fn mock_backend_is_a_register_file(
        writes in prop::collection::vec((0usize..8, 1u32..4_000_000), 0..200),
    ) {
        let m = MockDvfs::new(8, 1_000_000);
        let mut expect = [1_000_000u32; 8];
        for (cpu, khz) in &writes {
            m.set_speed(*cpu, *khz).unwrap();
            expect[*cpu] = *khz;
        }
        for (cpu, &khz) in expect.iter().enumerate() {
            prop_assert_eq!(m.get_speed(cpu).unwrap(), khz);
        }
        prop_assert_eq!(m.call_count(), writes.len());
    }

    /// Failure injection cuts off exactly at the configured call count.
    #[test]
    fn mock_failure_boundary(ok_calls in 0usize..20, attempts in 0usize..40) {
        let m = MockDvfs::new(1, 1);
        m.fail_after(ok_calls);
        let mut succeeded = 0;
        for _ in 0..attempts {
            if m.set_speed(0, 2).is_ok() {
                succeeded += 1;
            }
        }
        prop_assert_eq!(succeeded, ok_calls.min(attempts));
    }
}
