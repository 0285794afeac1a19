//! Property tests for the DES substrate: clock arithmetic, event ordering,
//! timeline coverage, the progress model and latency histograms.

use cata_sim::activity::{Activity, ActivityTimeline};
use cata_sim::event::EventQueue;
use cata_sim::machine::{CoreId, Machine, MachineConfig, PowerLevel};
use cata_sim::progress::{ExecProfile, RunningTask};
use cata_sim::stats::LatencyHistogram;
use cata_sim::time::{Frequency, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The event queue is a stable priority queue: pops are sorted by time,
    /// and equal-time events preserve push order.
    #[test]
    fn event_queue_is_stable_and_sorted(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// The queue against a reference model — the pending `(time, push
    /// index)` pairs, popped by minimum — over one interleaved stream of
    /// pushes at `now`, dense near-future pushes (plenty of exact ties),
    /// far-future jumps and pops. Every peek, pop and length must agree,
    /// and so must the final drain, element for element.
    #[test]
    fn queue_matches_model_under_interleaving(
        ops in prop::collection::vec((0u64..1u64 << 34, 0u32..6), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(SimTime, usize)> = Vec::new();
        let pop_min = |model: &mut Vec<(SimTime, usize)>| {
            let i = (0..model.len()).min_by_key(|&i| model[i])?;
            Some(model.remove(i))
        };
        for (i, &(advance, kind)) in ops.iter().enumerate() {
            let at = match kind {
                0 => Some(q.now()),
                1 | 2 => Some(q.now() + SimDuration::from_ps(advance % 64)),
                3 => Some(q.now() + SimDuration::from_ps(advance)),
                _ => None,
            };
            match at {
                Some(at) => {
                    q.push(at, i);
                    model.push((at, i));
                }
                None => {
                    prop_assert_eq!(q.peek_time(), model.iter().map(|&(t, _)| t).min());
                    prop_assert_eq!(q.pop(), pop_min(&mut model), "pop diverged");
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        loop {
            let (got, want) = (q.pop(), pop_min(&mut model));
            prop_assert_eq!(got, want, "drain diverged");
            if got.is_none() {
                break;
            }
        }
    }

    /// Duration addition is associative and commutative under saturation
    /// (all realistic magnitudes).
    #[test]
    fn duration_algebra(a in 0u64..1u64<<40, b in 0u64..1u64<<40, c in 0u64..1u64<<40) {
        let (da, db, dc) = (
            SimDuration::from_ps(a),
            SimDuration::from_ps(b),
            SimDuration::from_ps(c),
        );
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db) + dc, da + (db + dc));
        prop_assert_eq!((SimTime::ZERO + da + db).since(SimTime::ZERO), da + db);
    }

    /// A task's duration at a higher frequency is never longer, and the
    /// memory component is invariant.
    #[test]
    fn duration_monotone_in_frequency(
        cycles in 0u64..1u64<<40,
        mem in 0u64..1u64<<40,
        f1 in 1u32..4000,
        f2 in 1u32..4000,
    ) {
        let p = ExecProfile::new(cycles, mem);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let slow = p.duration_at(Frequency::from_mhz(lo));
        let fast = p.duration_at(Frequency::from_mhz(hi));
        prop_assert!(fast <= slow);
        prop_assert!(fast >= SimDuration::from_ps(mem));
    }

    /// A run with any single mid-task frequency change finishes at exactly
    /// the analytic time: t_switch + (1 - p) * duration(f2).
    #[test]
    fn single_switch_finish_time_is_analytic(
        cycles in 1_000u64..100_000_000,
        switch_fraction in 0.01f64..0.99,
    ) {
        let f1 = Frequency::from_ghz(1);
        let f2 = Frequency::from_ghz(2);
        let p = ExecProfile::new(cycles, 0);
        let d1 = p.duration_at(f1);
        let switch_at = SimTime::ZERO + d1.mul_f64(switch_fraction);

        let mut rt = RunningTask::start(&p, SimTime::ZERO, f1);
        rt.advance_to(switch_at);
        rt.set_frequency(switch_at, f2);
        let finish = rt.next_milestone().unwrap().time();

        let progress = switch_at.since(SimTime::ZERO).ratio(d1);
        let expect = switch_at + p.duration_at(f2).mul_f64(1.0 - progress);
        let err = finish.as_ps().abs_diff(expect.as_ps());
        prop_assert!(err <= 2, "finish {} vs analytic {} (err {err} ps)", finish, expect);
    }

    /// Activity timelines cover the whole run with no gaps and no overlap,
    /// whatever the record sequence.
    #[test]
    fn timeline_partitions_time(
        events in prop::collection::vec((1u64..1000, 0u8..3), 0..50),
        tail in 1u64..1000,
    ) {
        let mut tl = ActivityTimeline::new(PowerLevel::paper_slow(), Activity::Idle);
        let mut t = 0u64;
        for (dt, act) in &events {
            t += dt;
            let act = match act { 0 => Activity::Busy, 1 => Activity::Idle, _ => Activity::Halted };
            tl.record(SimTime::from_ns(t), PowerLevel::paper_slow(), act);
        }
        t += tail;
        tl.close(SimTime::from_ns(t));
        let mut cursor = SimTime::ZERO;
        for seg in tl.segments() {
            prop_assert_eq!(seg.start, cursor, "gap/overlap at {}", cursor);
            cursor += seg.duration;
        }
        prop_assert_eq!(cursor, SimTime::from_ns(t));
        prop_assert_eq!(tl.total(), SimDuration::from_ns(t));
    }

    /// Machine transitions: after settling, the core is at the target; a
    /// superseded transition's stale settle is ignored.
    #[test]
    fn machine_transitions_converge(targets in prop::collection::vec(any::<bool>(), 1..20)) {
        let cfg = MachineConfig::small_test(1);
        let latency = cfg.reconfig_latency;
        let mut m = Machine::new(cfg);
        let core = CoreId(0);
        let mut now = SimTime::ZERO;
        let mut settles: Vec<SimTime> = Vec::new();
        for fast in &targets {
            let level = if *fast { PowerLevel::paper_fast() } else { PowerLevel::paper_slow() };
            if let Some(s) = m.begin_transition(core, level, now) {
                settles.push(s);
            }
            now += SimDuration::from_ns(100);
        }
        // Deliver all settle events in order.
        settles.sort();
        for s in settles {
            m.settle(core, s.max(now));
        }
        let last = if *targets.last().unwrap() { PowerLevel::paper_fast() } else { PowerLevel::paper_slow() };
        // After enough time every transition has settled at the last target.
        m.settle(core, now + latency);
        prop_assert_eq!(m.core(core).level(), last);
        prop_assert!(m.core(core).pending_transition().is_none());
    }

    /// Histogram quantiles against exact nearest-rank quantiles of the
    /// sorted samples: interior quantiles read at most 1/128 below the
    /// exact value and never above it, and the extremes and
    /// count/sum/min/max are exact. Inputs mix heavy runs of 0 ps (like
    /// the mostly-zero lock waits), values below 128 ps, typical
    /// latencies, and values near `u64::MAX`.
    #[test]
    fn histogram_quantiles_match_exact_nearest_rank(
        a in prop::collection::vec((0u8..10, any::<u64>()), 1..400),
    ) {
        let latency = |&(kind, raw): &(u8, u64)| match kind {
            0..=4 => 0,
            5 => raw % 128,
            6 | 7 => raw % (1 << 40),
            8 => u64::MAX - raw % 1024,
            _ => raw,
        };
        let a: Vec<u64> = a.iter().map(latency).collect();
        let mut h = LatencyHistogram::new();
        for &x in &a {
            h.record(SimDuration::from_ps(x));
        }
        let mut exact = a.clone();
        exact.sort_unstable();

        let n = exact.len();
        prop_assert_eq!(h.count(), n as u64);
        prop_assert_eq!(h.sum_ps(), exact.iter().map(|&x| u128::from(x)).sum::<u128>());
        prop_assert_eq!(h.min().as_ps(), exact[0]);
        prop_assert_eq!(h.max().as_ps(), exact[n - 1]);
        for q in [0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let want = exact[((n - 1) as f64 * q).round() as usize];
            let got = h.quantile(q).as_ps();
            if q == 0.0 || q == 1.0 {
                prop_assert_eq!(got, want, "q={}", q);
            } else {
                // exact·(1 − 1/128) ≤ approx ≤ exact, in integers.
                prop_assert!(
                    want - want / 128 <= got && got <= want,
                    "q={}: approx {} vs exact {}", q, got, want
                );
            }
        }
    }
}

/// The largest cycle count whose picoseconds numerator, `cycles · 10⁶`,
/// fits in a `u64`.
const U64_CYCLES: u64 = u64::MAX / 1_000_000;

/// `mul_f64` as it was computed with libm: round half away from zero,
/// then a saturating cast.
fn mul_f64_libm(d: u64, f: f64) -> u64 {
    (d as f64 * f).round() as u64
}

/// `cycles_to_duration` as it was computed in `u128`: the rounded-up
/// quotient, saturated to `u64`.
fn cycles_to_ps_u128(f: Frequency, cycles: u64) -> u64 {
    let ps = (u128::from(cycles) * 1_000_000).div_ceil(u128::from(f.as_mhz()));
    ps.min(u128::from(u64::MAX)) as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `mul_f64`'s integer rounding equals libm's `round` and the cast for
    /// random durations (any `u64`, and below 2⁴⁰ where products keep
    /// their fractions) and factors in [0, 1], for ties `k + 0.5`, at and
    /// around 2⁵³ and `u64::MAX` with a factor of 1, and for a factor of 0.
    #[test]
    fn mul_f64_rounds_like_libm(
        d in any::<u64>(),
        small in 0u64..1u64 << 40,
        f in 0.0f64..=1.0,
        k in 0u64..1u64 << 52,
        near in 0u64..64,
    ) {
        for d in [d, small] {
            prop_assert_eq!(SimDuration::from_ps(d).mul_f64(f).as_ps(), mul_f64_libm(d, f), "d={} f={}", d, f);
            prop_assert_eq!(SimDuration::from_ps(d).mul_f64(0.0).as_ps(), 0);
        }
        // (2k + 1) · 0.5 = k + 0.5 exactly, a tie that rounds up.
        let odd = 2 * k + 1;
        prop_assert_eq!(SimDuration::from_ps(odd).mul_f64(0.5).as_ps(), k + 1);
        prop_assert_eq!(mul_f64_libm(odd, 0.5), k + 1);
        for d in [(1u64 << 53) - 32 + near, u64::MAX - near] {
            prop_assert_eq!(SimDuration::from_ps(d).mul_f64(1.0).as_ps(), mul_f64_libm(d, 1.0), "d={}", d);
        }
    }

    /// `cycles_to_duration` equals the `u128` rounded-up quotient on both
    /// sides of [`U64_CYCLES`] (up to 1 000× past it, where results still
    /// fit, and anywhere in `u64`, where they may saturate), at both
    /// levels of the paper's machine and at random frequencies.
    #[test]
    fn cycles_to_duration_matches_the_u128_quotient(
        below in 0u64..=U64_CYCLES,
        above in U64_CYCLES + 1..=U64_CYCLES * 1_000,
        cycles in any::<u64>(),
        mhz in 1u32..20_000,
    ) {
        let paper = MachineConfig::paper_table1();
        let levels = [paper.fast_level.frequency, paper.slow_level.frequency];
        for f in levels.into_iter().chain([Frequency::from_mhz(mhz)]) {
            for c in [below, above, cycles, U64_CYCLES, U64_CYCLES + 1] {
                prop_assert_eq!(f.cycles_to_duration(c).as_ps(), cycles_to_ps_u128(f, c), "{} cycles at {}", c, f);
            }
        }
    }
}
