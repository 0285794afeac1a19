//! The simulated chip: cores, power levels, and DVFS transitions.
//!
//! This module carries the Table I processor configuration of the paper and
//! the per-core DVFS state machine. Each core is either settled at a
//! [`PowerLevel`] or transitioning towards one; transitions take
//! [`MachineConfig::reconfig_latency`] (25 µs in the paper, matching an
//! efficient dual-rail Vdd implementation) during which the core keeps
//! running at its old frequency.

use crate::activity::{Activity, ActivityTimeline};
use crate::time::{Frequency, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a core on the simulated chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CoreId(pub u32);

impl CoreId {
    /// The core id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for CoreId {
    fn from(v: u32) -> Self {
        CoreId(v)
    }
}

impl From<usize> for CoreId {
    fn from(v: usize) -> Self {
        CoreId(v as u32)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A voltage/frequency operating point.
///
/// The paper's dual-rail Vdd design exposes exactly two: 2 GHz at 1.0 V
/// (fast/accelerated) and 1 GHz at 0.8 V (slow). The multi-level extension
/// (EXPERIMENTS.md, ablation A4) adds intermediate points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PowerLevel {
    /// Core clock frequency at this level.
    pub frequency: Frequency,
    /// Supply voltage in millivolts.
    pub voltage_mv: u32,
}

impl PowerLevel {
    /// The paper's fast level: 2 GHz at 1.0 V.
    pub const fn paper_fast() -> Self {
        PowerLevel {
            frequency: Frequency::from_ghz(2),
            voltage_mv: 1000,
        }
    }

    /// The paper's slow level: 1 GHz at 0.8 V.
    pub const fn paper_slow() -> Self {
        PowerLevel {
            frequency: Frequency::from_ghz(1),
            voltage_mv: 800,
        }
    }

    /// Supply voltage in volts.
    #[inline]
    pub fn voltage_v(self) -> f64 {
        self.voltage_mv as f64 / 1000.0
    }
}

impl fmt::Display for PowerLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{:.2}V", self.frequency, self.voltage_v())
    }
}

/// Static configuration of the simulated processor (Table I of the paper).
///
/// Fields that only matter at instruction grain (issue width, branch
/// predictor, cache geometry) are carried for documentation and for the power
/// model's per-structure constants; the DES consumes the core count, the
/// power levels and the reconfiguration latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of cores on the chip (Table I: 32).
    pub num_cores: usize,
    /// Accelerated operating point (Table I: 2 GHz, 1.0 V).
    pub fast_level: PowerLevel,
    /// Non-accelerated operating point (Table I: 1 GHz, 0.8 V).
    pub slow_level: PowerLevel,
    /// DVFS transition latency (Table I: 25 µs).
    pub reconfig_latency: SimDuration,
    /// Fetch/issue/commit bandwidth in instructions per cycle (Table I: 4).
    pub issue_width: u32,
    /// Reorder buffer entries (Table I: 128).
    pub rob_entries: u32,
    /// L1 data cache size in KiB (Table I: 64).
    pub l1d_kib: u32,
    /// L1 instruction cache size in KiB (Table I: 32).
    pub l1i_kib: u32,
    /// Shared L2 NUCA size per core in MiB (Table I: 2).
    pub l2_mib_per_core: u32,
    /// NoC mesh dimensions (Table I: 4x8).
    pub noc_mesh: (u32, u32),
    /// Process technology in nanometres (paper: 22 nm for McPAT).
    pub tech_nm: u32,
}

impl MachineConfig {
    /// The exact configuration of Table I.
    pub fn paper_table1() -> Self {
        MachineConfig {
            num_cores: 32,
            fast_level: PowerLevel::paper_fast(),
            slow_level: PowerLevel::paper_slow(),
            reconfig_latency: SimDuration::from_us(25),
            issue_width: 4,
            rob_entries: 128,
            l1d_kib: 64,
            l1i_kib: 32,
            l2_mib_per_core: 2,
            noc_mesh: (4, 8),
            tech_nm: 22,
        }
    }

    /// A small configuration for unit tests (4 cores, 1 µs reconfiguration).
    pub fn small_test(num_cores: usize) -> Self {
        MachineConfig {
            num_cores,
            reconfig_latency: SimDuration::from_us(1),
            ..Self::paper_table1()
        }
    }

    /// Renders the configuration as the rows of Table I.
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        vec![
            ("Core count".into(), self.num_cores.to_string()),
            ("Core type".into(), "Out-of-order single threaded".into()),
            (
                "DVFS fast".into(),
                format!("{} (accelerated)", self.fast_level),
            ),
            ("DVFS slow".into(), format!("{} (slow)", self.slow_level)),
            (
                "Reconfiguration latency".into(),
                format!("{}", self.reconfig_latency),
            ),
            (
                "Fetch/issue/commit width".into(),
                format!("{} instr/cycle", self.issue_width),
            ),
            (
                "Reorder buffer".into(),
                format!("{} entries", self.rob_entries),
            ),
            ("L1I".into(), format!("{}KB", self.l1i_kib)),
            ("L1D".into(), format!("{}KB", self.l1d_kib)),
            (
                "L2".into(),
                format!("shared NUCA, {}MB/core", self.l2_mib_per_core),
            ),
            (
                "NoC".into(),
                format!("{}x{} mesh", self.noc_mesh.0, self.noc_mesh.1),
            ),
            ("Technology".into(), format!("{}nm", self.tech_nm)),
        ]
    }
}

/// A DVFS transition in flight on one core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// The level the core is moving to.
    pub target: PowerLevel,
    /// When the transition completes and `target` takes effect.
    pub done_at: SimTime,
}

/// Per-core dynamic state.
#[derive(Debug, Clone)]
pub struct Core {
    id: CoreId,
    /// The level currently applied to the clock/voltage rails.
    level: PowerLevel,
    /// An in-flight transition, if any. While pending, the core runs at
    /// `level`; when the simulation clock passes `done_at` the target is
    /// applied via [`Machine::settle`].
    pending: Option<Transition>,
    /// What the core is doing, for the power model.
    timeline: ActivityTimeline,
    /// Count of completed DVFS transitions (diagnostics).
    transitions_done: u64,
}

impl Core {
    /// This core's id.
    #[inline]
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The operating point currently applied to the rails.
    #[inline]
    pub fn level(&self) -> PowerLevel {
        self.level
    }

    /// The frequency the core is running at *right now* (old level during a
    /// pending transition).
    #[inline]
    pub fn frequency(&self) -> Frequency {
        self.level.frequency
    }

    /// The in-flight transition, if any.
    #[inline]
    pub fn pending_transition(&self) -> Option<Transition> {
        self.pending
    }

    /// The level the core will be at once any pending transition settles.
    #[inline]
    pub fn target_level(&self) -> PowerLevel {
        self.pending.map(|t| t.target).unwrap_or(self.level)
    }

    /// Activity timeline for power integration.
    #[inline]
    pub fn timeline(&self) -> &ActivityTimeline {
        &self.timeline
    }

    /// Number of completed DVFS transitions on this core.
    #[inline]
    pub fn transitions_done(&self) -> u64 {
        self.transitions_done
    }
}

/// The simulated chip: an indexed collection of [`Core`]s plus the static
/// [`MachineConfig`]. The shared memory the cores may contend on is not
/// part of it: an engine that models contention keeps its own
/// [`MemorySubsystem`](crate::memory::MemorySubsystem).
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    cores: Vec<Core>,
}

impl Machine {
    /// Builds a machine with every core settled at the slow level and idle.
    pub fn new(config: MachineConfig) -> Self {
        let cores = (0..config.num_cores)
            .map(|i| Core {
                id: CoreId(i as u32),
                level: config.slow_level,
                pending: None,
                timeline: ActivityTimeline::new(config.slow_level, Activity::Idle),
                transitions_done: 0,
            })
            .collect();
        Machine { config, cores }
    }

    /// Builds a machine with the first `num_fast` cores settled at the fast
    /// level — the static heterogeneous configurations (8/16/24 fast cores)
    /// used for the FIFO and CATS experiments, where frequencies never change.
    pub fn new_static_hetero(config: MachineConfig, num_fast: usize) -> Self {
        assert!(
            num_fast <= config.num_cores,
            "num_fast {num_fast} exceeds core count {}",
            config.num_cores
        );
        let mut m = Machine::new(config);
        for i in 0..num_fast {
            let fast = m.config.fast_level;
            let core = &mut m.cores[i];
            core.level = fast;
            core.timeline = ActivityTimeline::new(fast, Activity::Idle);
        }
        m
    }

    /// The static configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Immutable access to one core.
    #[inline]
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.index()]
    }

    /// Iterates over all cores.
    pub fn cores(&self) -> impl Iterator<Item = &Core> {
        self.cores.iter()
    }

    /// Records that `core` changed activity (Busy/Idle/Halted) at `now`.
    #[inline]
    pub fn set_activity(&mut self, core: CoreId, now: SimTime, activity: Activity) {
        let c = &mut self.cores[core.index()];
        c.timeline.record(now, c.level, activity);
    }

    /// Begins a DVFS transition on `core` towards `target`, completing after
    /// the machine's reconfiguration latency. Returns the completion time.
    ///
    /// If the core is already at (or already transitioning to) `target`, the
    /// call is a no-op and returns `None`. If a different transition is in
    /// flight, the new target supersedes it but the clock restarts — matching
    /// a DVFS controller that must re-ramp the rails.
    #[inline]
    pub fn begin_transition(
        &mut self,
        core: CoreId,
        target: PowerLevel,
        now: SimTime,
    ) -> Option<SimTime> {
        let latency = self.config.reconfig_latency;
        let c = &mut self.cores[core.index()];
        if c.target_level() == target {
            return None;
        }
        let done_at = now + latency;
        c.pending = Some(Transition { target, done_at });
        Some(done_at)
    }

    /// Applies the pending transition on `core` if its completion time has
    /// arrived. Returns the newly applied level, or `None` if there was
    /// nothing to settle (e.g. the transition was superseded and the old
    /// completion event is stale).
    #[inline]
    pub fn settle(&mut self, core: CoreId, now: SimTime) -> Option<PowerLevel> {
        let c = &mut self.cores[core.index()];
        match c.pending {
            Some(t) if t.done_at <= now => {
                c.pending = None;
                c.level = t.target;
                c.transitions_done += 1;
                c.timeline.record_level_change(now, t.target);
                Some(t.target)
            }
            _ => None,
        }
    }

    /// Closes all activity timelines at `end` (simulation finish) so the
    /// power model can integrate them.
    pub fn finish(&mut self, end: SimTime) {
        for c in &mut self.cores {
            c.timeline.close(end);
        }
    }

    /// Number of cores whose *target* level is the fast level — the quantity
    /// the power budget constrains. Counting targets rather than settled
    /// levels is what keeps concurrent reconfigurations from transiently
    /// exceeding the budget.
    #[inline]
    pub fn accelerated_count(&self) -> usize {
        self.cores
            .iter()
            .filter(|c| c.target_level() == self.config.fast_level)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::small_test(4)
    }

    #[test]
    fn paper_table1_matches_paper() {
        let c = MachineConfig::paper_table1();
        assert_eq!(c.num_cores, 32);
        assert_eq!(c.fast_level.frequency.as_mhz(), 2000);
        assert_eq!(c.fast_level.voltage_mv, 1000);
        assert_eq!(c.slow_level.frequency.as_mhz(), 1000);
        assert_eq!(c.slow_level.voltage_mv, 800);
        assert_eq!(c.reconfig_latency, SimDuration::from_us(25));
        assert_eq!(c.noc_mesh, (4, 8));
        assert_eq!(c.tech_nm, 22);
        assert_eq!(c.table1_rows().len(), 12);
    }

    #[test]
    fn new_machine_starts_slow_and_idle() {
        let m = Machine::new(cfg());
        for c in m.cores() {
            assert_eq!(c.level(), PowerLevel::paper_slow());
            assert!(c.pending_transition().is_none());
        }
        assert_eq!(m.accelerated_count(), 0);
    }

    #[test]
    fn static_hetero_sets_first_n_fast() {
        let m = Machine::new_static_hetero(cfg(), 2);
        assert_eq!(m.core(CoreId(0)).level(), PowerLevel::paper_fast());
        assert_eq!(m.core(CoreId(1)).level(), PowerLevel::paper_fast());
        assert_eq!(m.core(CoreId(2)).level(), PowerLevel::paper_slow());
        assert_eq!(m.accelerated_count(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds core count")]
    fn static_hetero_rejects_too_many_fast() {
        Machine::new_static_hetero(cfg(), 5);
    }

    #[test]
    fn transition_takes_latency_and_settles() {
        let mut m = Machine::new(cfg());
        let t0 = SimTime::from_us(10);
        let done = m
            .begin_transition(CoreId(0), PowerLevel::paper_fast(), t0)
            .unwrap();
        assert_eq!(done, t0 + cfg().reconfig_latency);
        // Old frequency until settle.
        assert_eq!(m.core(CoreId(0)).frequency(), Frequency::from_ghz(1));
        // Target already counts as accelerated (budget accounting).
        assert_eq!(m.accelerated_count(), 1);
        // Settling before time does nothing.
        assert!(m.settle(CoreId(0), t0).is_none());
        let lvl = m.settle(CoreId(0), done).unwrap();
        assert_eq!(lvl, PowerLevel::paper_fast());
        assert_eq!(m.core(CoreId(0)).frequency(), Frequency::from_ghz(2));
        assert_eq!(m.core(CoreId(0)).transitions_done(), 1);
    }

    #[test]
    fn transition_to_current_level_is_noop() {
        let mut m = Machine::new(cfg());
        assert!(m
            .begin_transition(CoreId(0), PowerLevel::paper_slow(), SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn superseding_transition_restarts_clock() {
        let mut m = Machine::new(cfg());
        let t0 = SimTime::ZERO;
        let first = m
            .begin_transition(CoreId(0), PowerLevel::paper_fast(), t0)
            .unwrap();
        // Supersede with a return to slow before the first completes.
        let t1 = SimTime::from_ps(first.as_ps() / 2);
        let second = m
            .begin_transition(CoreId(0), PowerLevel::paper_slow(), t1)
            .unwrap();
        assert!(second > first);
        // The stale completion event must not settle anything.
        assert!(m.settle(CoreId(0), first).is_none());
        assert_eq!(m.settle(CoreId(0), second), Some(PowerLevel::paper_slow()));
        // Net effect: still slow, one (real) transition done.
        assert_eq!(m.core(CoreId(0)).level(), PowerLevel::paper_slow());
    }

    #[test]
    fn duplicate_target_while_pending_is_noop() {
        let mut m = Machine::new(cfg());
        m.begin_transition(CoreId(0), PowerLevel::paper_fast(), SimTime::ZERO)
            .unwrap();
        assert!(m
            .begin_transition(CoreId(0), PowerLevel::paper_fast(), SimTime::from_us(1))
            .is_none());
    }
}
