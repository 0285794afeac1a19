//! Calibrated per-core power model for native runs.
//!
//! A native run has no activity timelines to integrate — but the runtime
//! does observe, around every task start/end and every DVFS write, how long
//! each worker was busy and at which frequency class. This module turns
//! those observations into an [`EnergyReport`]:
//!
//! - [`BusyTracker`] is the observation side: worker threads mark task
//!   begin/end and the DVFS path marks frequency-class changes; the tracker
//!   accumulates per-core busy nanoseconds at each class, and each core's
//!   time at the fast class whether busy or idle.
//! - [`model_native_energy`] is the calibrated model `P(freq_class)`: it
//!   prices busy time at the fast/slow [`PowerLevel`]s through the same
//!   [`PowerParams`] the simulator uses, fills the remaining core-seconds
//!   with the idle operating point of the class each core idled at, and
//!   adds the constant uncore term — so a native cell's joules are
//!   directly comparable to a simulated cell's under the same calibration.
//!
//! The model is a pure function of the recorded intervals: identical
//! intervals produce a bit-identical report (pinned by test), even though
//! the intervals themselves vary run to run on real hardware.

use crate::energy::{EnergyBreakdown, EnergyReport, Measurement};
use crate::params::PowerParams;
use cata_sim::activity::Activity;
use cata_sim::machine::PowerLevel;
use std::sync::Mutex;
use std::time::Instant;

/// The two operating points the CATA runtime switches between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreqClass {
    /// The accelerated level (fast frequency/voltage).
    Fast,
    /// The baseline level.
    Slow,
}

/// Seconds one core accumulated at each frequency class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BusyIntervals {
    /// Seconds executing task bodies while accelerated.
    pub busy_fast_s: f64,
    /// Seconds executing task bodies at the slow level.
    pub busy_slow_s: f64,
    /// Seconds idle while accelerated: the core's time at the fast class
    /// less `busy_fast_s` (a statically fast worker, or a CATA worker not
    /// yet decelerated).
    pub idle_fast_s: f64,
}

impl BusyIntervals {
    /// Total busy seconds.
    pub fn total_s(&self) -> f64 {
        self.busy_fast_s + self.busy_slow_s
    }
}

#[derive(Debug, Default)]
struct CoreTrack {
    /// Since when the core has been at the fast operating point, if it is.
    fast_since: Option<Instant>,
    /// Start of the in-flight busy segment, if a task body is running.
    busy_since: Option<Instant>,
    busy_fast_ns: u64,
    busy_slow_ns: u64,
    /// Closed stretches at the fast operating point, busy or idle.
    fast_ns: u64,
}

fn ns_between(since: Instant, now: Instant) -> u64 {
    now.duration_since(since).as_nanos().min(u64::MAX as u128) as u64
}

impl CoreTrack {
    /// Closes the in-flight segment at `now` into the current class and,
    /// when `reopen`, starts a new one (for mid-task class changes).
    fn settle(&mut self, now: Instant, reopen: bool) {
        if let Some(since) = self.busy_since.take() {
            let ns = ns_between(since, now);
            if self.fast_since.is_some() {
                self.busy_fast_ns += ns;
            } else {
                self.busy_slow_ns += ns;
            }
            if reopen {
                self.busy_since = Some(now);
            }
        }
    }

    /// Closes the in-flight fast stretch at `now`; `fast` says whether the
    /// core stays at the fast class from `now` on.
    fn settle_fast(&mut self, now: Instant, fast: bool) {
        if let Some(since) = self.fast_since.take() {
            self.fast_ns += ns_between(since, now);
        }
        self.fast_since = fast.then_some(now);
    }
}

/// Per-core busy-time-at-frequency accumulator shared by the native
/// runtime's worker threads and its DVFS path. All methods take `&self`;
/// each core has its own lock, so marking is cheap and uncontended (a
/// worker only ever touches its own core; the DVFS path touches the target
/// core of a reconfiguration).
#[derive(Debug)]
pub struct BusyTracker {
    cores: Vec<Mutex<CoreTrack>>,
}

impl BusyTracker {
    /// A tracker for `num_cores` cores, all starting at the slow class.
    pub fn new(num_cores: usize) -> Self {
        BusyTracker {
            cores: (0..num_cores)
                .map(|_| Mutex::new(CoreTrack::default()))
                .collect(),
        }
    }

    fn with_core(&self, core: usize, f: impl FnOnce(&mut CoreTrack)) {
        if let Some(m) = self.cores.get(core) {
            f(&mut m.lock().unwrap_or_else(|e| e.into_inner()));
        }
    }

    /// A task body starts executing on `core`.
    pub fn task_begin(&self, core: usize) {
        let now = Instant::now();
        self.with_core(core, |c| {
            c.busy_since = Some(now);
        });
    }

    /// The task body on `core` finished; its busy time is banked at the
    /// class(es) the core ran at.
    pub fn task_end(&self, core: usize) {
        let now = Instant::now();
        self.with_core(core, |c| c.settle(now, false));
    }

    /// `core`'s frequency class changed (a successful DVFS write). An
    /// in-flight busy segment is split at the transition.
    pub fn set_class(&self, core: usize, class: FreqClass) {
        let now = Instant::now();
        self.with_core(core, |c| {
            let fast = class == FreqClass::Fast;
            if c.fast_since.is_some() != fast {
                c.settle(now, true);
                c.settle_fast(now, fast);
            }
        });
    }

    /// The accumulated per-core intervals (open segments and fast
    /// stretches are settled at call time).
    pub fn intervals(&self) -> Vec<BusyIntervals> {
        let now = Instant::now();
        self.cores
            .iter()
            .map(|m| {
                let mut c = m.lock().unwrap_or_else(|e| e.into_inner());
                c.settle(now, true);
                let fast = c.fast_since.is_some();
                c.settle_fast(now, fast);
                BusyIntervals {
                    busy_fast_s: c.busy_fast_ns as f64 * 1e-9,
                    busy_slow_s: c.busy_slow_ns as f64 * 1e-9,
                    idle_fast_s: c.fast_ns.saturating_sub(c.busy_fast_ns) as f64 * 1e-9,
                }
            })
            .collect()
    }
}

/// Integrates the calibrated model over a native run's observations.
///
/// Busy time is priced at the busy activity factor of its frequency class.
/// Idle time is priced at the idle operating point of its class — the
/// native workers spin in the runtime idle loop, they do not halt: a
/// core's `idle_fast_s`, capped at what the window leaves it besides its
/// busy time, at the fast level, and every remaining core-second of the
/// run (`num_cores × wall_s` minus the busy and fast-idle totals) at the
/// slow level, which covers the spec cores beyond the workers that ran.
/// The chip uncore term runs for the whole wall time. Leakage follows the
/// same split (fast voltage while at the fast class, busy or idle; slow
/// voltage otherwise).
///
/// Deterministic: a pure function of its arguments.
pub fn model_native_energy(
    params: &PowerParams,
    fast: PowerLevel,
    slow: PowerLevel,
    num_cores: usize,
    wall_s: f64,
    per_core: &[BusyIntervals],
) -> EnergyReport {
    let mut b = EnergyBreakdown::default();
    let mut busy_total_s = 0.0;
    let mut idle_fast_total_s = 0.0;
    let mut fast_s = 0.0;
    for iv in per_core {
        b.core_busy_j += iv.busy_fast_s * params.dynamic_w(fast, Activity::Busy)
            + iv.busy_slow_s * params.dynamic_w(slow, Activity::Busy);
        let idle_fast_s = iv.idle_fast_s.min((wall_s - iv.total_s()).max(0.0));
        b.core_idle_j += idle_fast_s * params.dynamic_w(fast, Activity::Idle);
        busy_total_s += iv.total_s();
        idle_fast_total_s += idle_fast_s;
        fast_s += iv.busy_fast_s + idle_fast_s;
    }
    let core_seconds = num_cores as f64 * wall_s;
    let idle_slow_s = (core_seconds - busy_total_s - idle_fast_total_s).max(0.0);
    b.core_idle_j += idle_slow_s * params.dynamic_w(slow, Activity::Idle);
    b.core_static_j =
        fast_s * params.static_w(fast) + (core_seconds - fast_s).max(0.0) * params.static_w(slow);
    b.uncore_j = params.uncore_w * wall_s;
    EnergyReport::from_parts(wall_s, b).with_measurement(Measurement::Modeled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> PowerParams {
        PowerParams::mcpat_22nm()
    }

    #[test]
    fn model_is_deterministic_given_recorded_intervals() {
        let iv = vec![
            BusyIntervals {
                busy_fast_s: 0.25,
                busy_slow_s: 0.10,
                idle_fast_s: 0.05,
            },
            BusyIntervals {
                busy_fast_s: 0.0,
                busy_slow_s: 0.40,
                idle_fast_s: 0.0,
            },
        ];
        let a = model_native_energy(
            &p(),
            PowerLevel::paper_fast(),
            PowerLevel::paper_slow(),
            2,
            0.5,
            &iv,
        );
        let b = model_native_energy(
            &p(),
            PowerLevel::paper_fast(),
            PowerLevel::paper_slow(),
            2,
            0.5,
            &iv,
        );
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(a.edp.to_bits(), b.edp.to_bits());
        assert_eq!(a.measurement, Measurement::Modeled);
        assert!(a.has_energy());
    }

    #[test]
    fn fast_busy_time_costs_more_than_slow() {
        let fast_run = model_native_energy(
            &p(),
            PowerLevel::paper_fast(),
            PowerLevel::paper_slow(),
            1,
            1.0,
            &[BusyIntervals {
                busy_fast_s: 1.0,
                ..BusyIntervals::default()
            }],
        );
        let slow_run = model_native_energy(
            &p(),
            PowerLevel::paper_fast(),
            PowerLevel::paper_slow(),
            1,
            1.0,
            &[BusyIntervals {
                busy_slow_s: 1.0,
                ..BusyIntervals::default()
            }],
        );
        assert!(fast_run.energy_j > slow_run.energy_j);
    }

    #[test]
    fn idle_machine_still_draws_idle_and_uncore_power() {
        let r = model_native_energy(
            &p(),
            PowerLevel::paper_fast(),
            PowerLevel::paper_slow(),
            4,
            0.1,
            &[BusyIntervals::default(); 4],
        );
        assert!(r.breakdown.core_idle_j > 0.0);
        assert!(r.breakdown.uncore_j > 0.0);
        assert_eq!(r.breakdown.core_busy_j, 0.0);
    }

    /// A worker held at the fast class for the whole window without a
    /// task (a `static-hetero` worker below the budget) is priced at the
    /// fast idle point and fast leakage; the core beside it idles slow.
    #[test]
    fn a_core_held_fast_and_idle_is_priced_fast() {
        let t = BusyTracker::new(2);
        t.set_class(0, FreqClass::Fast);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let iv = t.intervals();
        assert!(iv[0].idle_fast_s >= 0.005, "{:?}", iv[0]);
        assert_eq!((iv[0].busy_fast_s, iv[0].busy_slow_s), (0.0, 0.0));
        assert_eq!(iv[1], BusyIntervals::default());

        let (fast, slow) = (PowerLevel::paper_fast(), PowerLevel::paper_slow());
        let wall = iv[0].idle_fast_s;
        let r = model_native_energy(&p(), fast, slow, 2, wall, &iv);
        let idle =
            wall * (p().dynamic_w(fast, Activity::Idle) + p().dynamic_w(slow, Activity::Idle));
        let leak = wall * (p().static_w(fast) + p().static_w(slow));
        assert!((r.breakdown.core_idle_j - idle).abs() <= 1e-12 * idle);
        assert!((r.breakdown.core_static_j - leak).abs() <= 1e-12 * leak);
        assert_eq!(r.breakdown.core_busy_j, 0.0);
        // Fast time past the window is not charged.
        let late = model_native_energy(&p(), fast, slow, 2, wall / 2.0, &iv);
        let half = model_native_energy(
            &p(),
            fast,
            slow,
            2,
            wall / 2.0,
            &[
                BusyIntervals {
                    idle_fast_s: wall / 2.0,
                    ..BusyIntervals::default()
                },
                BusyIntervals::default(),
            ],
        );
        assert_eq!(late.energy_j.to_bits(), half.energy_j.to_bits());
    }

    #[test]
    fn tracker_accumulates_and_splits_on_class_change() {
        let t = BusyTracker::new(2);
        t.task_begin(0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.set_class(0, FreqClass::Fast);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.task_end(0);
        let iv = t.intervals();
        assert!(iv[0].busy_slow_s > 0.0, "pre-transition time at slow");
        assert!(iv[0].busy_fast_s > 0.0, "post-transition time at fast");
        assert_eq!(iv[1], BusyIntervals::default());
        // Out-of-range cores are ignored, not a panic.
        t.task_begin(9);
        t.task_end(9);
    }
}
