//! Property tests for the power model: the CMOS relations and the energy
//! integrator's accounting identities.

use cata_power::{integrate_machine, EnergyBreakdown, PowerParams};
use cata_sim::activity::{Activity, Segment};
use cata_sim::machine::{CoreId, Machine, MachineConfig, PowerLevel};
use cata_sim::time::{Frequency, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dynamic power is monotone in frequency and voltage, and linear in
    /// frequency at fixed voltage (P = α·C·V²·f).
    #[test]
    fn dynamic_power_relations(f in 100u32..4000, v in 500u32..1300) {
        let p = PowerParams::mcpat_22nm();
        let lvl = |f, v| PowerLevel { frequency: Frequency::from_mhz(f), voltage_mv: v };
        let base = p.dynamic_w(lvl(f, v), Activity::Busy);
        prop_assert!(base > 0.0);
        // Monotone in f and in V.
        prop_assert!(p.dynamic_w(lvl(f * 2, v), Activity::Busy) > base);
        prop_assert!(p.dynamic_w(lvl(f, v + 100), Activity::Busy) > base);
        // Linear in f: doubling f doubles dynamic power exactly.
        let double = p.dynamic_w(lvl(f * 2, v), Activity::Busy);
        prop_assert!((double / base - 2.0).abs() < 1e-9);
        // Quadratic in V: P(2V)/P(V) == 4.
        let quad = p.dynamic_w(lvl(f, v * 2), Activity::Busy);
        prop_assert!((quad / base - 4.0).abs() < 1e-9);
    }

    /// Energy accounting identity: total == sum of the breakdown, and the
    /// report's average power times time equals the energy.
    #[test]
    fn energy_identities(
        busy_ms in 1u64..50,
        idle_ms in 1u64..50,
    ) {
        let p = PowerParams::mcpat_22nm();
        let mut m = Machine::new(MachineConfig::small_test(2));
        m.set_activity(CoreId(0), SimTime::ZERO, Activity::Busy);
        m.set_activity(CoreId(0), SimTime::from_ms(busy_ms), Activity::Idle);
        let end = SimTime::from_ms(busy_ms + idle_ms);
        m.finish(end);
        let r = integrate_machine(&m, end.since(SimTime::ZERO), &p);
        let b = r.breakdown;
        let sum = b.core_busy_j + b.core_idle_j + b.core_halt_j + b.core_static_j + b.uncore_j;
        prop_assert!((r.energy_j - sum).abs() < 1e-12);
        prop_assert!((r.avg_power_w * r.time_s - r.energy_j).abs() < 1e-9);
        prop_assert!((r.edp - r.energy_j * r.time_s).abs() < 1e-12);
    }

    /// Splitting a busy interval across many activity records does not
    /// change the integrated energy (the integral is additive).
    #[test]
    fn integration_is_additive_over_splits(splits in 1usize..20) {
        let p = PowerParams::mcpat_22nm();
        let total = SimDuration::from_ms(10);

        let energy_with_splits = |k: usize| {
            let mut m = Machine::new(MachineConfig::small_test(1));
            m.set_activity(CoreId(0), SimTime::ZERO, Activity::Busy);
            // Re-record the same state k times mid-interval.
            for i in 1..k {
                let t = SimTime::from_ps(total.as_ps() * i as u64 / k as u64);
                m.set_activity(CoreId(0), t, Activity::Busy);
            }
            let end = SimTime::ZERO + total;
            m.finish(end);
            integrate_machine(&m, total, &p).energy_j
        };

        let once = energy_with_splits(1);
        let many = energy_with_splits(splits);
        prop_assert!((once - many).abs() < 1e-12);
    }

    /// Running the same work at the slow level uses strictly less *dynamic*
    /// energy per unit time but takes longer: the DVFS race-to-idle
    /// trade-off the paper's EDP metric captures.
    #[test]
    fn slow_level_trades_power_for_time(ms in 1u64..100) {
        let p = PowerParams::mcpat_22nm();
        let dur = SimDuration::from_ms(ms);
        let run_at = |fast: bool| {
            let cfg = MachineConfig::small_test(1);
            let mut m = if fast {
                Machine::new_static_hetero(cfg, 1)
            } else {
                Machine::new(cfg)
            };
            m.set_activity(CoreId(0), SimTime::ZERO, Activity::Busy);
            m.finish(SimTime::ZERO + dur);
            integrate_machine(&m, dur, &p)
        };
        let fast = run_at(true);
        let slow = run_at(false);
        prop_assert!(slow.breakdown.core_busy_j < fast.breakdown.core_busy_j);
        prop_assert!(slow.breakdown.core_static_j < fast.breakdown.core_static_j);
    }

    /// The compact timelines integrate bit-identically to plain segment
    /// lists: random activity and level changes on two cores, integrated
    /// by `integrate_machine` and by a reference over `Vec<Segment>`s
    /// recorded alongside, give the same energy bits, segments and
    /// utilization. Core 0 takes three changes in four, so most runs
    /// fill its first 512-segment block and go on into the next, and one
    /// step in 256 is a gap of about 2³² ps, on either side of the
    /// `u32::MAX` ps a duration column holds.
    #[test]
    fn compact_timelines_integrate_like_segment_lists(
        ops in prop::collection::vec((0u8..4, 0u64..500, 0u8..5, 0u16..256), 0..3000),
        tail in 0u64..500,
    ) {
        let p = PowerParams::mcpat_22nm();
        let cfg = MachineConfig::small_test(2);
        let levels = [cfg.slow_level, cfg.fast_level];
        let mut m = Machine::new(cfg);
        let mut reference = [SegmentList::new(levels[0]), SegmentList::new(levels[0])];
        let mut now = SimTime::ZERO;
        for (pick, dt_ns, op, gap) in ops {
            let core = usize::from(pick == 0);
            now += SimDuration::from_ns(if gap == 0 {
                // 4 294 967 000 ps, then up to 0.5 ms more.
                4_294_967 + 1_000 * dt_ns
            } else {
                dt_ns
            });
            let id = CoreId(core as u32);
            match op {
                0..=2 => {
                    let activity = [Activity::Busy, Activity::Idle, Activity::Halted][op as usize];
                    m.set_activity(id, now, activity);
                    let level = reference[core].level;
                    reference[core].record(now, level, activity);
                }
                _ => {
                    let target = levels[op as usize - 3];
                    if let Some(done) = m.begin_transition(id, target, now) {
                        now = done;
                        prop_assert_eq!(m.settle(id, now), Some(target));
                        let activity = reference[core].activity;
                        reference[core].record(now, target, activity);
                    }
                }
            }
        }
        let end = now + SimDuration::from_ns(tail);
        m.finish(end);
        let run_time = end.since(SimTime::ZERO);

        let mut want = EnergyBreakdown::default();
        for (core, list) in reference.iter_mut().enumerate() {
            list.flush(end);
            let got: Vec<Segment> = m.core(CoreId(core as u32)).timeline().segments().collect();
            prop_assert_eq!(&got, &list.segments);
            for seg in &list.segments {
                let dt = seg.duration.as_secs_f64();
                let dyn_j = p.dynamic_w(seg.level, seg.activity) * dt;
                match seg.activity {
                    Activity::Busy => want.core_busy_j += dyn_j,
                    Activity::Idle => want.core_idle_j += dyn_j,
                    Activity::Halted => want.core_halt_j += dyn_j,
                }
                want.core_static_j += p.static_w(seg.level) * dt;
            }
            let time_in = |busy: bool| -> SimDuration {
                list.segments
                    .iter()
                    .filter(|s| !busy || s.activity == Activity::Busy)
                    .map(|s| s.duration)
                    .sum()
            };
            prop_assert_eq!(time_in(false), run_time);
            let utilization = m.core(CoreId(core as u32)).timeline().utilization();
            prop_assert_eq!(utilization.to_bits(), time_in(true).ratio(run_time).to_bits());
        }
        want.uncore_j = p.uncore_w * run_time.as_secs_f64();
        let got = integrate_machine(&m, run_time, &p).breakdown;
        let bits = |b: &EnergyBreakdown| {
            [b.core_busy_j, b.core_idle_j, b.core_halt_j, b.core_static_j, b.uncore_j].map(f64::to_bits)
        };
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

/// A reference timeline: every segment as a plain [`Segment`], with the
/// same coalescing rules (an unchanged state extends the open segment; a
/// zero-length segment is dropped).
struct SegmentList {
    segments: Vec<Segment>,
    since: SimTime,
    level: PowerLevel,
    activity: Activity,
}

impl SegmentList {
    fn new(level: PowerLevel) -> Self {
        SegmentList {
            segments: Vec::new(),
            since: SimTime::ZERO,
            level,
            activity: Activity::Idle,
        }
    }

    fn record(&mut self, now: SimTime, level: PowerLevel, activity: Activity) {
        if level == self.level && activity == self.activity {
            return;
        }
        self.flush(now);
        self.level = level;
        self.activity = activity;
    }

    /// Ends the open segment at `now`.
    fn flush(&mut self, now: SimTime) {
        let duration = now.since(self.since);
        if !duration.is_zero() {
            self.segments.push(Segment {
                start: self.since,
                duration,
                level: self.level,
                activity: self.activity,
            });
        }
        self.since = now;
    }
}
