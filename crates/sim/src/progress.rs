//! The task execution-time model.
//!
//! A task's cost has two parts:
//!
//! - `cpu_cycles`: core-clocked work, whose wall time scales inversely with
//!   the core frequency (doubling frequency halves it);
//! - `mem_ps`: memory-bound time (cache misses, NoC, DRAM), which is
//!   frequency-invariant — the uncore is on its own clock.
//!
//! So a task's duration at frequency `f` is `cpu_cycles/f + mem_ps`, making
//! the fast/slow speedup of a task strictly less than the 2× frequency ratio
//! unless the task is purely compute bound. This is what makes acceleration
//! decisions non-trivial, exactly as on the paper's simulated machine.
//!
//! Because CATA changes core frequencies *while tasks run*, the model
//! supports mid-task frequency changes through a progress integral: at any
//! instant a task has completed a fraction `p ∈ [0, 1]` of its work, and
//! progress accrues at rate `1/duration(f_current)` per unit time. On a
//! frequency change the remaining wall time is re-projected as
//! `(1 − p) · duration(f_new)`.
//!
//! Tasks may also carry **blocking points** (§V-D of the paper: I/O, page
//! faults, kernel locks): at a given progress fraction the task stops and the
//! core halts (C1) for a fixed wall-clock interval. TurboMode exploits these
//! halts; CATA does not see them — reproducing the paper's observation that
//! TurboMode can reclaim the budget of blocked-but-accelerated tasks.

use crate::time::{Frequency, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A point during a task's execution where it blocks in the kernel and the
/// core halts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockPoint {
    /// Progress fraction in `(0, 1)` at which the task blocks.
    pub at_progress: f64,
    /// Wall-clock time the task stays blocked (frequency-invariant).
    pub duration: SimDuration,
}

/// The static cost description of one task instance.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ExecProfile {
    /// Core-clocked work in cycles.
    pub cpu_cycles: u64,
    /// Frequency-invariant memory/uncore time, in picoseconds.
    pub mem_ps: u64,
    /// Kernel-blocking points, sorted by `at_progress` ascending.
    pub blocks: Vec<BlockPoint>,
}

impl ExecProfile {
    /// A profile with no blocking points.
    pub fn new(cpu_cycles: u64, mem_ps: u64) -> Self {
        ExecProfile {
            cpu_cycles,
            mem_ps,
            blocks: Vec::new(),
        }
    }

    /// Adds a blocking point, keeping the list sorted. The list holds
    /// exactly its points: a task has one or two, and a graph keeps a list
    /// per blocking task.
    ///
    /// # Panics
    /// Panics if `at_progress` is outside `(0, 1)`.
    pub fn with_block(mut self, at_progress: f64, duration: SimDuration) -> Self {
        assert!(
            at_progress > 0.0 && at_progress < 1.0,
            "block point must fall strictly inside the task, got {at_progress}"
        );
        self.blocks.reserve_exact(1);
        self.blocks.push(BlockPoint {
            at_progress,
            duration,
        });
        self.blocks
            .sort_by(|a, b| a.at_progress.partial_cmp(&b.at_progress).unwrap());
        self
    }

    /// The run time (excluding blocks) of this profile at frequency `f`.
    #[inline]
    pub fn duration_at(&self, f: Frequency) -> SimDuration {
        f.cycles_to_duration(self.cpu_cycles) + SimDuration::from_ps(self.mem_ps)
    }

    /// Total blocked wall time.
    pub fn total_block_time(&self) -> SimDuration {
        self.blocks.iter().map(|b| b.duration).sum()
    }

    /// The fraction of the task's slow-frequency duration that is
    /// frequency-invariant — its "memory-boundness". 0 = pure compute.
    pub fn memory_boundness(&self, slow: Frequency) -> f64 {
        SimDuration::from_ps(self.mem_ps).ratio(self.duration_at(slow))
    }
}

/// What the executor should schedule next for a running task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Milestone {
    /// The task will finish (all work and blocks done) at this time.
    Completion(SimTime),
    /// The task will hit a blocking point and halt at this time.
    BlockStart(SimTime),
    /// The task is currently blocked and resumes at this time.
    BlockEnd(SimTime),
}

impl Milestone {
    /// The instant this milestone fires.
    #[inline]
    pub fn time(self) -> SimTime {
        match self {
            Milestone::Completion(t) | Milestone::BlockStart(t) | Milestone::BlockEnd(t) => t,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RunState {
    Running,
    Blocked { until: SimTime },
    Finished,
}

/// The dynamic execution state of one task on one core.
///
/// The owning executor drives it with three operations:
/// [`next_milestone`](Self::next_milestone) to learn what event to schedule,
/// [`advance_to`](Self::advance_to) when that event fires, and
/// [`set_frequency`](Self::set_frequency) when a DVFS change settles under it.
/// Every mutation bumps [`generation`](Self::generation) so the executor can
/// discard stale scheduled events.
///
/// The profile is *borrowed* from its owner (normally the `TaskGraph`):
/// starting a task is a hot-path operation in the executor, and cloning a
/// profile — block-point `Vec` included — per assignment is exactly the
/// kind of steady-state allocation the engine refuses to pay. All other
/// state is plain `Copy` data, so cloning a `RunningTask` is free. The
/// profile's run time at the current frequency is cached at
/// [`start`](Self::start) and [`set_frequency`](Self::set_frequency), the
/// only places the frequency changes.
#[derive(Debug, Clone, Copy)]
pub struct RunningTask<'p> {
    profile: &'p ExecProfile,
    freq: Frequency,
    /// `profile.duration_at(freq)`.
    duration: SimDuration,
    progress: f64,
    last_update: SimTime,
    next_block: usize,
    state: RunState,
    generation: u64,
    started_at: SimTime,
}

impl<'p> RunningTask<'p> {
    /// Begins executing `profile` at `now` on a core running at `freq`.
    #[inline]
    pub fn start(profile: &'p ExecProfile, now: SimTime, freq: Frequency) -> Self {
        RunningTask {
            profile,
            freq,
            duration: profile.duration_at(freq),
            progress: 0.0,
            last_update: now,
            next_block: 0,
            state: RunState::Running,
            generation: 0,
            started_at: now,
        }
    }

    /// The profile being executed.
    pub fn profile(&self) -> &'p ExecProfile {
        self.profile
    }

    /// Monotonic counter bumped on every state change; events scheduled
    /// against an older generation are stale and must be ignored.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// When the task started.
    pub fn started_at(&self) -> SimTime {
        self.started_at
    }

    /// Current progress fraction in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        self.progress
    }

    /// True once the task has completed all work and blocks.
    pub fn is_finished(&self) -> bool {
        self.state == RunState::Finished
    }

    /// True while the task is halted at a blocking point.
    pub fn is_blocked(&self) -> bool {
        matches!(self.state, RunState::Blocked { .. })
    }

    /// The frequency the task is currently being executed at.
    pub fn frequency(&self) -> Frequency {
        self.freq
    }

    /// The progress fraction at which the task next stops running: the next
    /// block point, or 1.0 (completion).
    #[inline]
    fn next_stop_progress(&self) -> f64 {
        self.profile
            .blocks
            .get(self.next_block)
            .map(|b| b.at_progress)
            .unwrap_or(1.0)
    }

    /// The next event the executor should schedule for this task, given the
    /// current frequency. Returns `None` once finished.
    #[inline]
    pub fn next_milestone(&self) -> Option<Milestone> {
        match self.state {
            RunState::Finished => None,
            RunState::Blocked { until } => Some(Milestone::BlockEnd(until)),
            RunState::Running => {
                let target = self.next_stop_progress();
                let remaining = self.duration.mul_f64((target - self.progress).max(0.0));
                let at = self.last_update + remaining;
                if target >= 1.0 {
                    Some(Milestone::Completion(at))
                } else {
                    Some(Milestone::BlockStart(at))
                }
            }
        }
    }

    /// Advances internal progress to `now` and applies any milestone that has
    /// been reached. Returns the milestone that fired at `now`, if any.
    ///
    /// The executor calls this when a scheduled milestone event (matching the
    /// current generation) fires.
    #[inline]
    pub fn advance_to(&mut self, now: SimTime) -> Option<Milestone> {
        match self.state {
            RunState::Finished => None,
            RunState::Blocked { until } => {
                if now >= until {
                    // Resume running; progress was frozen while blocked.
                    self.state = RunState::Running;
                    self.last_update = now;
                    self.generation += 1;
                    Some(Milestone::BlockEnd(now))
                } else {
                    None
                }
            }
            RunState::Running => {
                self.accrue(now);
                let target = self.next_stop_progress();
                // "Reached" is decided in the *time* domain: if the wall time
                // still needed to hit the target is under one picosecond, the
                // milestone has arrived — comparing progress fractions alone
                // livelocks when the remaining time rounds to zero but the
                // fraction gap exceeds any fixed epsilon (long vs. short
                // tasks need different fraction tolerances).
                let dur_ps = self.duration.as_ps() as f64;
                let remaining_ps = (target - self.progress).max(0.0) * dur_ps;
                if remaining_ps < 1.0 || self.progress + PROGRESS_EPS >= target {
                    self.progress = target;
                    self.generation += 1;
                    if target >= 1.0 {
                        self.state = RunState::Finished;
                        Some(Milestone::Completion(now))
                    } else {
                        let block = self.profile.blocks[self.next_block];
                        self.next_block += 1;
                        let until = now + block.duration;
                        self.state = RunState::Blocked { until };
                        Some(Milestone::BlockStart(now))
                    }
                } else {
                    None
                }
            }
        }
    }

    /// Applies a frequency change at `now`: accrues progress at the old
    /// frequency up to `now`, then switches rates. Safe to call in any state.
    #[inline]
    pub fn set_frequency(&mut self, now: SimTime, freq: Frequency) {
        if freq == self.freq {
            return;
        }
        if self.state == RunState::Running {
            self.accrue(now);
            self.last_update = now;
        }
        self.freq = freq;
        self.duration = self.profile.duration_at(freq);
        self.generation += 1;
    }

    #[inline]
    fn accrue(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_update);
        if self.duration.is_zero() {
            // Zero-cost task: complete immediately.
            self.progress = 1.0;
        } else {
            self.progress = (self.progress + elapsed.ratio(self.duration)).min(1.0);
        }
        self.last_update = now;
    }
}

/// Tolerance for floating-point progress comparisons. A task within this
/// fraction of a milestone when its event fires is considered to have reached
/// it (the error corresponds to sub-picosecond time).
const PROGRESS_EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    const GHZ1: Frequency = Frequency::from_ghz(1);
    const GHZ2: Frequency = Frequency::from_ghz(2);

    #[test]
    fn duration_scales_only_cpu_part() {
        // 2 M cycles + 100 µs memory.
        let p = ExecProfile::new(2_000_000, 100_000_000);
        assert_eq!(p.duration_at(GHZ1), SimDuration::from_us(2100));
        assert_eq!(p.duration_at(GHZ2), SimDuration::from_us(1100));
        let mb = p.memory_boundness(GHZ1);
        assert!((mb - 100.0 / 2100.0).abs() < 1e-12);
    }

    #[test]
    fn simple_run_to_completion() {
        let p = ExecProfile::new(1_000_000, 0); // 1 ms at 1 GHz
        let mut t = RunningTask::start(&p, SimTime::ZERO, GHZ1);
        let m = t.next_milestone().unwrap();
        assert_eq!(m, Milestone::Completion(SimTime::from_ms(1)));
        let fired = t.advance_to(m.time()).unwrap();
        assert_eq!(fired, Milestone::Completion(SimTime::from_ms(1)));
        assert!(t.is_finished());
        assert!(t.next_milestone().is_none());
    }

    #[test]
    fn mid_task_acceleration_shortens_remaining_time() {
        // 2 M cycles at 1 GHz = 2 ms. Accelerate at 1 ms (progress 0.5):
        // remaining 1 M cycles at 2 GHz = 0.5 ms → finishes at 1.5 ms.
        let p = ExecProfile::new(2_000_000, 0);
        let mut t = RunningTask::start(&p, SimTime::ZERO, GHZ1);
        let g0 = t.generation();
        t.set_frequency(SimTime::from_ms(1), GHZ2);
        assert!(
            t.generation() > g0,
            "freq change must invalidate old events"
        );
        assert!((t.progress() - 0.5).abs() < 1e-9);
        let m = t.next_milestone().unwrap();
        assert_eq!(m.time(), SimTime::from_us(1500));
        t.advance_to(m.time());
        assert!(t.is_finished());
    }

    #[test]
    fn mid_task_deceleration_stretches_remaining_time() {
        // 2 M cycles at 2 GHz = 1 ms. Decelerate at 0.5 ms (progress 0.5):
        // remaining 1 M cycles at 1 GHz = 1 ms → finishes at 1.5 ms.
        let p = ExecProfile::new(2_000_000, 0);
        let mut t = RunningTask::start(&p, SimTime::ZERO, GHZ2);
        t.set_frequency(SimTime::from_us(500), GHZ1);
        let m = t.next_milestone().unwrap();
        assert_eq!(m.time(), SimTime::from_us(1500));
    }

    #[test]
    fn memory_time_is_not_scaled_by_frequency_change() {
        // Pure-memory task: 1 ms regardless of frequency.
        let p = ExecProfile::new(0, SimDuration::from_ms(1).as_ps());
        let mut t = RunningTask::start(&p, SimTime::ZERO, GHZ1);
        t.set_frequency(SimTime::from_us(300), GHZ2);
        let m = t.next_milestone().unwrap();
        assert_eq!(m.time(), SimTime::from_ms(1));
    }

    #[test]
    fn blocking_point_halts_then_resumes() {
        // 1 M cycles at 1 GHz = 1 ms, blocks at p=0.5 for 2 ms.
        let p = ExecProfile::new(1_000_000, 0).with_block(0.5, SimDuration::from_ms(2));
        let mut t = RunningTask::start(&p, SimTime::ZERO, GHZ1);

        let m1 = t.next_milestone().unwrap();
        assert_eq!(m1, Milestone::BlockStart(SimTime::from_us(500)));
        assert_eq!(t.advance_to(m1.time()), Some(m1));
        assert!(t.is_blocked());

        let m2 = t.next_milestone().unwrap();
        assert_eq!(m2, Milestone::BlockEnd(SimTime::from_us(2500)));
        assert_eq!(t.advance_to(m2.time()), Some(m2));
        assert!(!t.is_blocked());

        let m3 = t.next_milestone().unwrap();
        assert_eq!(m3, Milestone::Completion(SimTime::from_us(3000)));
        t.advance_to(m3.time());
        assert!(t.is_finished());
    }

    #[test]
    fn frequency_change_while_blocked_applies_after_resume() {
        let p = ExecProfile::new(1_000_000, 0).with_block(0.5, SimDuration::from_ms(1));
        let mut t = RunningTask::start(&p, SimTime::ZERO, GHZ1);
        let m1 = t.next_milestone().unwrap();
        t.advance_to(m1.time()); // blocked at 500 µs until 1500 µs
        t.set_frequency(SimTime::from_us(700), GHZ2);
        // Block end unchanged by frequency.
        let m2 = t.next_milestone().unwrap();
        assert_eq!(m2.time(), SimTime::from_us(1500));
        t.advance_to(m2.time());
        // Remaining 0.5 M cycles at 2 GHz = 250 µs.
        let m3 = t.next_milestone().unwrap();
        assert_eq!(m3.time(), SimTime::from_us(1750));
    }

    #[test]
    fn zero_cost_task_completes_immediately() {
        let p = ExecProfile::new(0, 0);
        let mut t = RunningTask::start(&p, SimTime::from_us(3), GHZ1);
        let m = t.next_milestone().unwrap();
        assert_eq!(m, Milestone::Completion(SimTime::from_us(3)));
        t.advance_to(m.time());
        assert!(t.is_finished());
    }

    #[test]
    fn early_advance_does_not_fire_milestone() {
        let p = ExecProfile::new(1_000_000, 0);
        let mut t = RunningTask::start(&p, SimTime::ZERO, GHZ1);
        assert_eq!(t.advance_to(SimTime::from_us(400)), None);
        assert!((t.progress() - 0.4).abs() < 1e-9);
        // Milestone from the partial state still lands at 1 ms total.
        let m = t.next_milestone().unwrap();
        assert_eq!(m.time(), SimTime::from_ms(1));
    }

    #[test]
    fn multiple_blocks_fire_in_order() {
        let p = ExecProfile::new(1_000_000, 0)
            .with_block(0.75, SimDuration::from_us(10))
            .with_block(0.25, SimDuration::from_us(20));
        assert!(p.blocks[0].at_progress < p.blocks[1].at_progress);
        let mut t = RunningTask::start(&p, SimTime::ZERO, GHZ1);
        let mut kinds = Vec::new();
        while let Some(m) = t.next_milestone() {
            t.advance_to(m.time());
            kinds.push(std::mem::discriminant(&m));
        }
        assert_eq!(kinds.len(), 5); // 2×(start+end) + completion
        assert_eq!(p_total(&t), 1.0);
        fn p_total(t: &RunningTask<'_>) -> f64 {
            t.progress()
        }
    }

    #[test]
    #[should_panic(expected = "strictly inside")]
    fn block_at_zero_progress_rejected() {
        let _ = ExecProfile::new(1, 0).with_block(0.0, SimDuration::from_us(1));
    }
}
