//! The TurboMode controller (§V-D; dynamic TurboMode \[18\]).
//!
//! Criticality-blind, C-state-driven budget reallocation: every core in C0
//! is presumed to be doing useful (critical) work. When a core executes
//! `hlt` (C0 → C1) the hardware microcontroller lowers its frequency and
//! hands the freed budget to a *randomly chosen* active core; when the OS
//! wakes a sleeping core, it is accelerated only if budget remains. Task
//! boundaries are invisible to the controller — which is exactly why it can
//! keep accelerating runtime idle loops and lose to CATA on pipeline
//! applications, while beating CATA at reclaiming the budget of
//! blocked-but-accelerated tasks (the paper's §V-D discussion).

use super::{apply_transition, AccelEffects, AccelManager, ReconfigStats};
use cata_sim::machine::{CoreId, Machine, PowerLevel};
use cata_sim::stats::Counters;
use cata_sim::time::SimTime;

/// The TurboMode hardware controller.
///
/// The per-core state is two bitsets of one word per 64 cores, so the
/// halt hook counts and finds its candidates a word at a time instead of
/// walking the cores.
#[derive(Debug)]
pub struct TurboModeCtl {
    /// Accelerated cores: core `c` is bit `c % 64` of word `c / 64`.
    accel: Vec<u64>,
    /// Halted (C1) cores, laid out like `accel`.
    halted: Vec<u64>,
    num_cores: usize,
    budget: usize,
    accel_count: usize,
    fast: PowerLevel,
    slow: PowerLevel,
    rng: u64,
}

/// Word index and bit mask of `core`.
fn slot(core: usize) -> (usize, u64) {
    (core / 64, 1 << (core % 64))
}

/// Sets or clears `core`'s bit.
fn assign(bits: &mut [u64], core: usize, on: bool) {
    let (w, bit) = slot(core);
    bits[w] = (bits[w] & !bit) | if on { bit } else { 0 };
}

impl TurboModeCtl {
    /// Creates the controller for `machine` with the given power budget and
    /// a deterministic seed for the random active-core selection.
    pub fn new(machine: &Machine, budget: usize, seed: u64) -> Self {
        let cfg = machine.config();
        assert!(budget <= cfg.num_cores);
        let words = cfg.num_cores.div_ceil(64);
        TurboModeCtl {
            accel: vec![0; words],
            halted: vec![0; words],
            num_cores: cfg.num_cores,
            budget,
            accel_count: 0,
            fast: cfg.fast_level,
            slow: cfg.slow_level,
            rng: seed | 1,
        }
    }

    /// Cores currently accelerated.
    pub fn accelerated_count(&self) -> usize {
        self.accel_count
    }

    /// True if `core` is accelerated.
    fn is_accel(&self, core: usize) -> bool {
        let (w, bit) = slot(core);
        self.accel[w] & bit != 0
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64: deterministic, no external dependency.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Picks a random active (C0), non-accelerated core: the `r`-th of the
    /// candidates in core order, with `r` drawn below their popcount. No
    /// draw is made when there is no candidate.
    fn pick_random_active(&mut self) -> Option<usize> {
        let count: u32 = (0..self.accel.len())
            .map(|w| self.candidates(w).count_ones())
            .sum();
        if count == 0 {
            return None;
        }
        let mut r = (self.next_rand() % u64::from(count)) as u32;
        for w in 0..self.accel.len() {
            let mut set = self.candidates(w);
            let here = set.count_ones();
            if r < here {
                for _ in 0..r {
                    set &= set - 1; // drop the lowest candidate
                }
                return Some(64 * w + set.trailing_zeros() as usize);
            }
            r -= here;
        }
        unreachable!("the draw is below the candidate count")
    }

    /// Active (C0), non-accelerated cores of word `w`.
    fn candidates(&self, w: usize) -> u64 {
        // Mask off the bits past the last core (word `w` holds at least one).
        let cores = (self.num_cores - 64 * w).min(64);
        !(self.accel[w] | self.halted[w]) & (u64::MAX >> (64 - cores))
    }
}

impl AccelManager for TurboModeCtl {
    fn on_init(&mut self, machine: &mut Machine, now: SimTime) -> AccelEffects {
        // All cores boot active (the runtime's idle loops are C0): the
        // controller hands the budget to the first `budget` cores.
        let mut effects = AccelEffects::none();
        let mut counters = Counters::default();
        for core in 0..self.budget {
            assign(&mut self.accel, core, true);
            self.accel_count += 1;
            apply_transition(
                machine,
                CoreId(core as u32),
                self.fast,
                now,
                &mut effects,
                &mut counters,
            );
        }
        effects
    }

    fn on_task_start(
        &mut self,
        _core: CoreId,
        _critical: bool,
        _now: SimTime,
        _machine: &mut Machine,
        _counters: &mut Counters,
    ) -> AccelEffects {
        // Task boundaries are invisible to TurboMode.
        AccelEffects::none()
    }

    fn on_task_end(
        &mut self,
        _core: CoreId,
        _now: SimTime,
        _machine: &mut Machine,
        _counters: &mut Counters,
    ) -> AccelEffects {
        AccelEffects::none()
    }

    fn on_core_halt(
        &mut self,
        core: CoreId,
        now: SimTime,
        machine: &mut Machine,
        counters: &mut Counters,
    ) -> AccelEffects {
        let c = core.index();
        assign(&mut self.halted, c, true);
        let mut effects = AccelEffects::none();
        if self.is_accel(c) {
            assign(&mut self.accel, c, false);
            apply_transition(machine, core, self.slow, now, &mut effects, counters);
            if let Some(lucky) = self.pick_random_active() {
                assign(&mut self.accel, lucky, true);
                apply_transition(
                    machine,
                    CoreId(lucky as u32),
                    self.fast,
                    now,
                    &mut effects,
                    counters,
                );
            } else {
                self.accel_count -= 1;
            }
        }
        effects
    }

    fn on_core_wake(
        &mut self,
        core: CoreId,
        now: SimTime,
        machine: &mut Machine,
        counters: &mut Counters,
    ) -> AccelEffects {
        let c = core.index();
        assign(&mut self.halted, c, false);
        let mut effects = AccelEffects::none();
        if !self.is_accel(c) && self.accel_count < self.budget {
            assign(&mut self.accel, c, true);
            self.accel_count += 1;
            apply_transition(machine, core, self.fast, now, &mut effects, counters);
        }
        effects
    }

    fn stats(&self) -> ReconfigStats {
        ReconfigStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_sim::machine::MachineConfig;

    fn setup(budget: usize) -> (Machine, TurboModeCtl) {
        let mut m = Machine::new(MachineConfig::small_test(4));
        let mut t = TurboModeCtl::new(&m, budget, 42);
        t.on_init(&mut m, SimTime::ZERO);
        (m, t)
    }

    #[test]
    fn init_accelerates_budget_cores() {
        let (m, t) = setup(2);
        assert_eq!(t.accelerated_count(), 2);
        assert_eq!(m.accelerated_count(), 2);
    }

    #[test]
    fn halt_reallocates_to_an_active_core() {
        let (mut m, mut t) = setup(2);
        let mut c = Counters::default();
        let e = t.on_core_halt(CoreId(0), SimTime::from_us(50), &mut m, &mut c);
        // Core 0 decelerates, some active core (2 or 3; 1 is already fast)
        // accelerates.
        assert_eq!(e.settles.len(), 2);
        assert_eq!(t.accelerated_count(), 2);
        assert!(!t.is_accel(0));
        assert!(t.is_accel(2) || t.is_accel(3));
    }

    #[test]
    fn halt_with_no_candidate_frees_budget() {
        let (mut m, mut t) = setup(4); // everyone accelerated
        let mut c = Counters::default();
        t.on_core_halt(CoreId(0), SimTime::from_us(1), &mut m, &mut c);
        assert_eq!(t.accelerated_count(), 3);
        // Waking re-claims the free slot.
        t.on_core_wake(CoreId(0), SimTime::from_us(2), &mut m, &mut c);
        assert_eq!(t.accelerated_count(), 4);
    }

    #[test]
    fn wake_without_budget_stays_slow() {
        let (mut m, mut t) = setup(2);
        let mut c = Counters::default();
        t.on_core_halt(CoreId(0), SimTime::from_us(1), &mut m, &mut c); // budget moves on
        let e = t.on_core_wake(CoreId(0), SimTime::from_us(2), &mut m, &mut c);
        assert!(e.settles.is_empty(), "no budget left for the waking core");
        assert!(!t.is_accel(0));
    }

    #[test]
    fn task_events_are_ignored() {
        let (mut m, mut t) = setup(1);
        let mut c = Counters::default();
        let e = t.on_task_start(CoreId(3), true, SimTime::ZERO, &mut m, &mut c);
        assert!(e.settles.is_empty());
        let e = t.on_task_end(CoreId(3), SimTime::from_us(9), &mut m, &mut c);
        assert!(e.settles.is_empty());
    }

    /// The pick as it was: one walk over per-core flags to count the
    /// candidates, a draw, and a second walk to the `r`-th.
    fn two_pass_pick(accel: &[bool], halted: &[bool], rng: &mut u64) -> Option<usize> {
        let candidates = || (0..accel.len()).filter(|&c| !halted[c] && !accel[c]);
        let count = candidates().count();
        if count == 0 {
            return None;
        }
        let mut x = *rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *rng = x;
        candidates().nth(x as usize % count)
    }

    #[test]
    fn pick_matches_the_two_pass_walk() {
        let mut states = cata_sim::seeded::SplitMix64::new(11);
        for cores in [1, 3, 63, 64, 65, 128, 130, 200] {
            let m = Machine::new(MachineConfig::small_test(cores));
            for round in 0..40 {
                let mut t = TurboModeCtl::new(&m, 0, states.next_u64());
                // Densities from every core a candidate to none.
                let p_accel = f64::from(round % 5) / 4.0;
                let p_halted = f64::from(round % 3) / 2.0;
                let mut accel = vec![false; cores];
                let mut halted = vec![false; cores];
                for c in 0..cores {
                    accel[c] = states.next_unit() < p_accel;
                    halted[c] = states.next_unit() < p_halted;
                    assign(&mut t.accel, c, accel[c]);
                    assign(&mut t.halted, c, halted[c]);
                }
                for _ in 0..4 {
                    let mut rng = t.rng;
                    let old = two_pass_pick(&accel, &halted, &mut rng);
                    assert_eq!(t.pick_random_active(), old, "{cores} cores, round {round}");
                    assert_eq!(t.rng, rng, "{cores} cores, round {round}: draws differ");
                }
            }
        }
    }

    #[test]
    fn reallocation_is_deterministic_per_seed() {
        let picks_with = |seed| {
            let mut m = Machine::new(MachineConfig::small_test(4));
            let mut t = TurboModeCtl::new(&m, 1, seed);
            t.on_init(&mut m, SimTime::ZERO);
            let mut c = Counters::default();
            t.on_core_halt(CoreId(0), SimTime::from_us(1), &mut m, &mut c);
            (0..4).find(|&i| t.is_accel(i)).unwrap()
        };
        assert_eq!(picks_with(7), picks_with(7));
    }
}
