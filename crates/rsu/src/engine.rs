//! The CATA reconfiguration decision algorithm (§III-A), as a pure state
//! machine.
//!
//! The algorithm, quoted from the paper:
//!
//! > When a core requests a new task [...] If there is enough power budget
//! > the core is set to the fastest power state, even for non-critical
//! > tasks. If there is no available power budget and the task is critical,
//! > the runtime system looks for an accelerated core executing a
//! > non-critical task, decreases its frequency, and accelerates the core of
//! > the new task. In the case that all fast cores are running critical
//! > tasks, the incoming task cannot be accelerated [...] Every time an
//! > accelerated task finishes, the runtime system decelerates the core
//! > and, if there is any non-accelerated critical task, one of them is
//! > accelerated.
//!
//! Keeping this in one place — shared by the software RSM and the hardware
//! RSU — guarantees both paths take identical decisions and differ only in
//! cost, which is what the paper's CATA vs. CATA+RSU comparison isolates.

use serde::{Deserialize, Serialize};
use std::ops::Deref;

/// Criticality of the task on a core, as tracked by the RSM/RSU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskCrit {
    /// The core is not executing any task.
    NoTask,
    /// The core executes a non-critical task.
    NonCritical,
    /// The core executes a critical task.
    Critical,
}

/// A reconfiguration command the engine emits towards the DVFS controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cmd {
    /// Raise the core to the accelerated level.
    Accelerate(usize),
    /// Lower the core to the non-accelerated level.
    Decelerate(usize),
}

impl Cmd {
    /// The core this command targets.
    #[inline]
    pub fn core(self) -> usize {
        match self {
            Cmd::Accelerate(c) | Cmd::Decelerate(c) => c,
        }
    }
}

/// The commands of one decision: at most two (a deceleration and the
/// acceleration it funds), held inline and read as a `[Cmd]` slice.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Cmds {
    /// Unused slots hold `Cmd::Accelerate(0)`, so equal lists compare equal.
    buf: [Cmd; 2],
    len: u8,
}

impl Cmds {
    /// No command.
    pub const NONE: Cmds = Cmds {
        buf: [Cmd::Accelerate(0); 2],
        len: 0,
    };

    #[inline]
    fn one(cmd: Cmd) -> Self {
        Cmds {
            buf: [cmd, Cmd::Accelerate(0)],
            len: 1,
        }
    }

    #[inline]
    fn two(first: Cmd, second: Cmd) -> Self {
        Cmds {
            buf: [first, second],
            len: 2,
        }
    }
}

impl Deref for Cmds {
    type Target = [Cmd];

    #[inline]
    fn deref(&self) -> &[Cmd] {
        &self.buf[..self.len as usize]
    }
}

impl std::fmt::Debug for Cmds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The engine's state of 64 consecutive cores, one bit per core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CoreBits {
    accelerated: u64,
    /// The core runs a critical task.
    critical: u64,
    /// The core runs a non-critical task. A core in neither set runs no
    /// task.
    non_critical: u64,
}

/// Sets `bit` of `word` when `on`, else clears it.
#[inline]
fn assign(word: &mut u64, bit: u64, on: bool) {
    *word = (*word & !bit) | if on { bit } else { 0 };
}

/// The shared decision state machine.
///
/// Invariant: the number of accelerated cores never exceeds the budget, at
/// any point, including *between* the commands of a single decision — every
/// emitted command list orders decelerations before the accelerations they
/// fund.
///
/// The per-core state is three bitsets of one word per 64 cores, so each
/// decision finds its victim or beneficiary from the lowest set bit of a
/// word-wise combination of them instead of scanning the cores, and
/// returns its commands inline ([`Cmds`]) — no decision allocates.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigEngine {
    /// Cores `64 * w..64 * (w + 1)` are `bits[w]`. No bit is set at or
    /// past `num_cores`.
    bits: Vec<CoreBits>,
    num_cores: usize,
    budget: usize,
    accel_count: usize,
}

impl ReconfigEngine {
    /// Creates the engine for `num_cores` cores with a power budget of at
    /// most `budget` simultaneously accelerated cores.
    ///
    /// # Panics
    /// Panics if `budget > num_cores`.
    pub fn new(num_cores: usize, budget: usize) -> Self {
        assert!(
            budget <= num_cores,
            "budget {budget} exceeds core count {num_cores}"
        );
        ReconfigEngine {
            bits: vec![CoreBits::default(); num_cores.div_ceil(64)],
            num_cores,
            budget,
            accel_count: 0,
        }
    }

    /// Number of cores tracked.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// The power budget (max accelerated cores).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Cores currently accelerated.
    pub fn accelerated_count(&self) -> usize {
        self.accel_count
    }

    /// The tracked criticality of `core`'s task.
    #[inline]
    pub fn crit(&self, core: usize) -> TaskCrit {
        let (w, bit) = self.slot(core);
        if self.bits[w].critical & bit != 0 {
            TaskCrit::Critical
        } else if self.bits[w].non_critical & bit != 0 {
            TaskCrit::NonCritical
        } else {
            TaskCrit::NoTask
        }
    }

    /// Whether `core` is accelerated.
    #[inline]
    pub fn is_accelerated(&self, core: usize) -> bool {
        let (w, bit) = self.slot(core);
        self.bits[w].accelerated & bit != 0
    }

    /// A task of the given criticality starts on `core`. Returns the
    /// commands to apply, decelerations first.
    #[inline]
    pub fn on_task_start(&mut self, core: usize, critical: bool) -> Cmds {
        let crit = if critical {
            TaskCrit::Critical
        } else {
            TaskCrit::NonCritical
        };
        self.set_crit(core, crit);

        if self.is_accelerated(core) {
            // Already fast (e.g. restored context, or back-to-back schedule
            // before the deceleration settled its bookkeeping): keep it.
            return Cmds::NONE;
        }
        if self.accel_count < self.budget {
            self.set_accelerated(core, true);
            self.accel_count += 1;
            return Cmds::one(Cmd::Accelerate(core));
        }
        if critical {
            // No budget: displace an accelerated non-critical task, if any.
            if let Some(victim) = self.find_victim() {
                self.set_accelerated(victim, false);
                self.set_accelerated(core, true);
                return Cmds::two(Cmd::Decelerate(victim), Cmd::Accelerate(core));
            }
        }
        Cmds::NONE
    }

    /// The task on `core` finishes. Returns the commands to apply,
    /// decelerations first.
    ///
    /// If a critical task is running non-accelerated, the freed budget moves
    /// to it immediately (§III-A). Otherwise the core *keeps* its
    /// accelerated state: §V-B specifies that CATA decelerates a core at
    /// task end only "when a task finishes and there are no other tasks
    /// ready to execute" — the runtime reports that case through
    /// [`on_core_idle`](Self::on_core_idle), avoiding a useless
    /// decelerate/accelerate pair between back-to-back tasks.
    #[inline]
    pub fn on_task_end(&mut self, core: usize) -> Cmds {
        self.set_crit(core, TaskCrit::NoTask);
        if !self.is_accelerated(core) {
            return Cmds::NONE;
        }
        if let Some(next) = self.find_waiting_critical() {
            self.set_accelerated(core, false);
            self.set_accelerated(next, true);
            return Cmds::two(Cmd::Decelerate(core), Cmd::Accelerate(next));
        }
        Cmds::NONE
    }

    /// The worker on `core` found no ready task and is entering the idle
    /// loop: an accelerated idle core is decelerated (reducing idle power
    /// and freeing budget). The freed slot goes to a running non-accelerated
    /// task — critical first, else any (§V-B: "CATA reassigns the available
    /// power budget to the remaining executing tasks, reducing the load
    /// imbalance"; the fork-join benchmarks have no critical annotations at
    /// all, so the reassignment cannot be criticality-gated).
    #[inline]
    pub fn on_core_idle(&mut self, core: usize) -> Cmds {
        if !self.is_accelerated(core) {
            return Cmds::NONE;
        }
        self.set_accelerated(core, false);
        let decelerate = Cmd::Decelerate(core);
        if let Some(next) = self
            .find_waiting_critical()
            .or_else(|| self.find_waiting_running())
        {
            self.set_accelerated(next, true);
            Cmds::two(decelerate, Cmd::Accelerate(next))
        } else {
            self.accel_count -= 1;
            Cmds::one(decelerate)
        }
    }

    /// Directly sets a core's tracked criticality (used by the OS
    /// virtualization path; does not reconfigure anything).
    #[inline]
    pub fn set_crit(&mut self, core: usize, crit: TaskCrit) {
        let (w, bit) = self.slot(core);
        let bits = &mut self.bits[w];
        assign(&mut bits.critical, bit, crit == TaskCrit::Critical);
        assign(&mut bits.non_critical, bit, crit == TaskCrit::NonCritical);
    }

    /// Resets all tracked state (cores keep whatever frequency they have;
    /// the caller is responsible for physically decelerating if needed).
    pub fn reset(&mut self) {
        self.bits.fill(CoreBits::default());
        self.accel_count = 0;
    }

    /// Word index and bit mask of `core`, which must be in range.
    #[inline]
    fn slot(&self, core: usize) -> (usize, u64) {
        assert!(core < self.num_cores, "core {core} out of range");
        (core / 64, 1 << (core % 64))
    }

    #[inline]
    fn set_accelerated(&mut self, core: usize, accelerated: bool) {
        let (w, bit) = self.slot(core);
        assign(&mut self.bits[w].accelerated, bit, accelerated);
    }

    /// Lowest-numbered core whose bit `class` sets in its word.
    fn lowest(&self, class: impl Fn(&CoreBits) -> u64) -> Option<usize> {
        self.bits.iter().enumerate().find_map(|(w, bits)| {
            let set = class(bits);
            (set != 0).then(|| 64 * w + set.trailing_zeros() as usize)
        })
    }

    /// Lowest-numbered accelerated core running a non-critical task (victim
    /// for displacement). A core with *no* task that is still accelerated is
    /// preferred over one doing non-critical work. The requesting core is
    /// not accelerated, so it is never its own victim.
    #[inline]
    fn find_victim(&self) -> Option<usize> {
        self.lowest(|b| b.accelerated & !b.critical & !b.non_critical)
            .or_else(|| self.lowest(|b| b.accelerated & b.non_critical))
    }

    /// Lowest-numbered non-accelerated core running a critical task.
    #[inline]
    fn find_waiting_critical(&self) -> Option<usize> {
        self.lowest(|b| !b.accelerated & b.critical)
    }

    /// Lowest-numbered non-accelerated core running any task.
    #[inline]
    fn find_waiting_running(&self) -> Option<usize> {
        self.lowest(|b| !b.accelerated & b.non_critical)
    }

    /// Debug invariant check: the acceleration count matches the
    /// accelerated cores and never exceeds the budget, and no core is
    /// both critical and non-critical.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n: usize = self
            .bits
            .iter()
            .map(|b| b.accelerated.count_ones() as usize)
            .sum();
        if n != self.accel_count {
            return Err(format!("accel_count {} != flags {n}", self.accel_count));
        }
        if n > self.budget {
            return Err(format!("budget exceeded: {n} > {}", self.budget));
        }
        if self.bits.iter().any(|b| b.critical & b.non_critical != 0) {
            return Err("a core is both critical and non-critical".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accelerates_while_budget_lasts_even_non_critical() {
        let mut e = ReconfigEngine::new(4, 2);
        assert_eq!(*e.on_task_start(0, false), [Cmd::Accelerate(0)]);
        assert_eq!(*e.on_task_start(1, false), [Cmd::Accelerate(1)]);
        // Budget exhausted; non-critical task runs slow.
        assert_eq!(*e.on_task_start(2, false), []);
        assert_eq!(e.accelerated_count(), 2);
        e.check_invariants().unwrap();
    }

    #[test]
    fn critical_task_displaces_non_critical() {
        let mut e = ReconfigEngine::new(4, 1);
        e.on_task_start(0, false); // accelerated non-critical
        let cmds = e.on_task_start(1, true);
        assert_eq!(*cmds, [Cmd::Decelerate(0), Cmd::Accelerate(1)]);
        assert!(e.is_accelerated(1));
        assert!(!e.is_accelerated(0));
        assert_eq!(e.accelerated_count(), 1);
        e.check_invariants().unwrap();
    }

    #[test]
    fn critical_task_cannot_displace_critical() {
        let mut e = ReconfigEngine::new(4, 1);
        e.on_task_start(0, true);
        let cmds = e.on_task_start(1, true);
        assert!(cmds.is_empty(), "all fast cores critical: run slow");
        assert!(!e.is_accelerated(1));
    }

    #[test]
    fn task_end_hands_budget_to_waiting_critical() {
        let mut e = ReconfigEngine::new(4, 1);
        e.on_task_start(0, true); // accelerated
        e.on_task_start(1, true); // denied, critical waits at slow speed
        let cmds = e.on_task_end(0);
        assert_eq!(*cmds, [Cmd::Decelerate(0), Cmd::Accelerate(1)]);
        assert_eq!(e.accelerated_count(), 1);
        e.check_invariants().unwrap();
    }

    #[test]
    fn task_end_without_waiter_keeps_acceleration() {
        // §V-B: deceleration happens when the core has nothing to run, not
        // at every task boundary.
        let mut e = ReconfigEngine::new(4, 1);
        e.on_task_start(0, false);
        assert!(e.on_task_end(0).is_empty());
        assert_eq!(e.accelerated_count(), 1);
        // A back-to-back task on the same core needs no reconfiguration.
        assert!(e.on_task_start(0, false).is_empty());
        assert!(e.is_accelerated(0));
    }

    #[test]
    fn idle_core_decelerates_and_frees_budget() {
        let mut e = ReconfigEngine::new(4, 1);
        e.on_task_start(0, false);
        e.on_task_end(0);
        let cmds = e.on_core_idle(0);
        assert_eq!(*cmds, [Cmd::Decelerate(0)]);
        assert_eq!(e.accelerated_count(), 0);
        // Budget available again.
        assert_eq!(*e.on_task_start(2, false), [Cmd::Accelerate(2)]);
    }

    #[test]
    fn idle_core_hands_budget_to_waiting_critical() {
        let mut e = ReconfigEngine::new(4, 1);
        e.on_task_start(0, false); // takes budget
        e.on_task_start(1, true); // critical, denied
        e.on_task_end(0); // keeps acceleration? no — critical is waiting
                          // on_task_end already moved the budget in this case:
        assert!(e.is_accelerated(1));
        assert!(!e.is_accelerated(0));
        // Now let a non-critical hold budget while another critical waits,
        // and release via idle.
        let mut e = ReconfigEngine::new(4, 1);
        e.on_task_start(0, false);
        e.on_task_end(0); // no waiter: stays accelerated with NoTask
        e.on_task_start(1, true); // critical: displaces the idle-ish core 0
        assert!(e.is_accelerated(1));
        e.check_invariants().unwrap();
    }

    #[test]
    fn idle_on_slow_core_is_silent() {
        let mut e = ReconfigEngine::new(2, 1);
        assert!(e.on_core_idle(1).is_empty());
    }

    #[test]
    fn end_on_slow_core_is_silent() {
        let mut e = ReconfigEngine::new(2, 1);
        e.on_task_start(0, true); // takes the budget
        e.on_task_start(1, false); // runs slow
        assert!(e.on_task_end(1).is_empty());
        assert_eq!(e.crit(1), TaskCrit::NoTask);
    }

    #[test]
    fn decelerations_precede_accelerations_in_every_decision() {
        // The ordering is what keeps the instantaneous accelerated count
        // within budget during a swap.
        let mut e = ReconfigEngine::new(8, 1);
        e.on_task_start(0, false);
        let cmds = e.on_task_start(1, true);
        let dec_pos = cmds.iter().position(|c| matches!(c, Cmd::Decelerate(_)));
        let acc_pos = cmds.iter().position(|c| matches!(c, Cmd::Accelerate(_)));
        assert!(dec_pos.unwrap() < acc_pos.unwrap());
    }

    #[test]
    fn zero_budget_never_accelerates() {
        let mut e = ReconfigEngine::new(4, 0);
        assert!(e.on_task_start(0, true).is_empty());
        assert!(e.on_task_start(1, false).is_empty());
        assert!(e.on_task_end(0).is_empty());
        assert_eq!(e.accelerated_count(), 0);
    }

    #[test]
    fn full_budget_accelerates_everyone() {
        let mut e = ReconfigEngine::new(3, 3);
        for c in 0..3 {
            assert_eq!(*e.on_task_start(c, false), [Cmd::Accelerate(c)]);
        }
        e.check_invariants().unwrap();
    }

    #[test]
    fn reset_clears_state() {
        let mut e = ReconfigEngine::new(2, 2);
        e.on_task_start(0, true);
        e.reset();
        assert_eq!(e.accelerated_count(), 0);
        assert_eq!(e.crit(0), TaskCrit::NoTask);
        e.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn budget_above_core_count_rejected() {
        let _ = ReconfigEngine::new(2, 3);
    }

    #[test]
    #[should_panic(expected = "core 4 out of range")]
    fn core_past_the_last_is_rejected_inside_a_word() {
        // Core 4 of 4 still falls inside the first 64-bit word.
        let _ = ReconfigEngine::new(4, 1).on_task_start(4, true);
    }

    #[test]
    fn random_event_stream_preserves_budget_invariant() {
        // Deterministic pseudo-random walk over start/end events.
        let mut e = ReconfigEngine::new(8, 3);
        let mut running = [false; 8];
        let mut rng = cata_sim::seeded::SplitMix64::new(0);
        for _ in 0..10_000 {
            let x = rng.next_u64();
            let core = (x % 8) as usize;
            if running[core] {
                e.on_task_end(core);
                running[core] = false;
            } else {
                e.on_task_start(core, x & 0x100 != 0);
                running[core] = true;
            }
            e.check_invariants().unwrap();
        }
    }
}
