//! The register-level Runtime Support Unit.
//!
//! §III-B: the RSU stores, per core, the running task's criticality and the
//! acceleration status, plus the global power budget and the two power
//! levels to program into the DVFS controller. The ISA is extended with six
//! instructions to manage it; each costs a handful of cycles (the unit is a
//! tiny centralized table, §III-B-4) and — crucially — no locks and no
//! user/kernel transitions.

use crate::engine::{Cmd, Cmds, ReconfigEngine, TaskCrit};
use cata_sim::machine::PowerLevel;
use cata_sim::time::{Frequency, SimDuration};
use serde::{Deserialize, Serialize};

/// Static configuration programmed at `rsu_init` (by the OS at boot,
/// §III-B-4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RsuConfig {
    /// Number of cores the unit tracks.
    pub num_cores: usize,
    /// Power budget: max simultaneously accelerated cores.
    pub budget: usize,
    /// The level used for accelerated cores.
    pub accel_level: PowerLevel,
    /// The level used for non-accelerated cores.
    pub non_accel_level: PowerLevel,
    /// Cycles one RSU operation takes (table lookup + scan); charged to the
    /// core executing the `rsu_*` instruction.
    pub op_cycles: u32,
}

impl RsuConfig {
    /// The paper's configuration: 32 cores, dual-rail levels, and a
    /// conservative 32-cycle operation cost (a full-table scan at one
    /// comparator per cycle).
    pub fn paper_default(budget: usize) -> Self {
        RsuConfig {
            num_cores: 32,
            budget,
            accel_level: PowerLevel::paper_fast(),
            non_accel_level: PowerLevel::paper_slow(),
            op_cycles: 32,
        }
    }
}

/// Errors an RSU operation can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsuError {
    /// Operation on a disabled unit (`rsu_disable` was executed).
    Disabled,
    /// Core index out of range.
    BadCore(usize),
}

impl std::fmt::Display for RsuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsuError::Disabled => write!(f, "RSU is disabled"),
            RsuError::BadCore(c) => write!(f, "core {c} out of range"),
        }
    }
}

impl std::error::Error for RsuError {}

/// The result of an RSU operation: DVFS commands to issue plus the
/// instruction's cost on the issuing core.
#[derive(Debug, Clone, PartialEq)]
pub struct RsuOutcome {
    /// Reconfiguration commands for the DVFS controller, decelerations
    /// first. The RSU issues these autonomously; the issuing core does NOT
    /// wait for the transitions.
    pub cmds: Cmds,
    /// Time the `rsu_*` instruction occupies the issuing core.
    pub cost: SimDuration,
}

/// The Runtime Support Unit.
#[derive(Debug, Clone)]
pub struct Rsu {
    config: RsuConfig,
    engine: ReconfigEngine,
    enabled: bool,
}

impl Rsu {
    /// `rsu_init`: configures and enables the unit.
    ///
    /// # Panics
    /// Panics if `budget > num_cores` (an OS programming bug).
    pub fn init(config: RsuConfig) -> Self {
        Rsu {
            engine: ReconfigEngine::new(config.num_cores, config.budget),
            config,
            enabled: true,
        }
    }

    /// The programmed configuration.
    pub fn config(&self) -> &RsuConfig {
        &self.config
    }

    /// Whether the unit is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The decision engine state (diagnostics/tests).
    pub fn engine(&self) -> &ReconfigEngine {
        &self.engine
    }

    /// The instruction cost at the issuing core's current frequency.
    fn op_cost(&self, core_freq: Frequency) -> SimDuration {
        core_freq.cycles_to_duration(self.config.op_cycles as u64)
    }

    /// `rsu_reset`: clears all per-core state; the unit stays enabled.
    pub fn reset(&mut self) {
        self.engine.reset();
    }

    /// `rsu_disable`: stops the unit; subsequent task operations fail and
    /// the runtime must fall back to the software path.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Re-enables a disabled unit (modelled as re-running `rsu_init` with
    /// the stored configuration).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// `rsu_start_task(cpu, critic)`: notifies the unit that a task of the
    /// given criticality starts on `cpu`. `core_freq` is the issuing core's
    /// current frequency (determines the instruction cost).
    pub fn start_task(
        &mut self,
        cpu: usize,
        critical: bool,
        core_freq: Frequency,
    ) -> Result<RsuOutcome, RsuError> {
        self.check(cpu)?;
        let cmds = self.engine.on_task_start(cpu, critical);
        Ok(RsuOutcome {
            cmds,
            cost: self.op_cost(core_freq),
        })
    }

    /// `rsu_end_task(cpu)`: notifies the unit that the task on `cpu`
    /// finished.
    pub fn end_task(&mut self, cpu: usize, core_freq: Frequency) -> Result<RsuOutcome, RsuError> {
        self.check(cpu)?;
        let cmds = self.engine.on_task_end(cpu);
        Ok(RsuOutcome {
            cmds,
            cost: self.op_cost(core_freq),
        })
    }

    /// The runtime idle loop on `cpu` found no work (issued as a second
    /// `rsu_end_task` from the idle path): an accelerated idle core
    /// decelerates, releasing its budget (§V-B).
    pub fn core_idle(&mut self, cpu: usize, core_freq: Frequency) -> Result<RsuOutcome, RsuError> {
        self.check(cpu)?;
        let cmds = self.engine.on_core_idle(cpu);
        Ok(RsuOutcome {
            cmds,
            cost: self.op_cost(core_freq),
        })
    }

    /// `rsu_read_critic(cpu)`: reads the tracked criticality (used by the OS
    /// at context-switch time, §III-B-3).
    pub fn read_critic(&self, cpu: usize) -> Result<TaskCrit, RsuError> {
        self.check(cpu)?;
        Ok(self.engine.crit(cpu))
    }

    /// OS write of a saved criticality value at context restore. `NoTask`
    /// re-schedules the core's acceleration as if its task ended; a concrete
    /// criticality behaves like a task start (see [`crate::virt`]).
    pub fn write_critic(
        &mut self,
        cpu: usize,
        crit: TaskCrit,
        core_freq: Frequency,
    ) -> Result<RsuOutcome, RsuError> {
        self.check(cpu)?;
        let cmds = match crit {
            TaskCrit::NoTask => self.engine.on_task_end(cpu),
            TaskCrit::Critical => self.engine.on_task_start(cpu, true),
            TaskCrit::NonCritical => self.engine.on_task_start(cpu, false),
        };
        Ok(RsuOutcome {
            cmds,
            cost: self.op_cost(core_freq),
        })
    }

    /// The level a command maps to.
    pub fn level_for(&self, cmd: Cmd) -> PowerLevel {
        match cmd {
            Cmd::Accelerate(_) => self.config.accel_level,
            Cmd::Decelerate(_) => self.config.non_accel_level,
        }
    }

    fn check(&self, cpu: usize) -> Result<(), RsuError> {
        if !self.enabled {
            return Err(RsuError::Disabled);
        }
        if cpu >= self.config.num_cores {
            return Err(RsuError::BadCore(cpu));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rsu(budget: usize) -> Rsu {
        Rsu::init(RsuConfig {
            num_cores: 4,
            budget,
            ..RsuConfig::paper_default(budget)
        })
    }

    const F: Frequency = Frequency::from_ghz(1);

    #[test]
    fn start_task_accelerates_within_budget() {
        let mut r = rsu(2);
        let o = r.start_task(0, false, F).unwrap();
        assert_eq!(*o.cmds, [Cmd::Accelerate(0)]);
        // 32 cycles at 1 GHz = 32 ns.
        assert_eq!(o.cost, SimDuration::from_ns(32));
        assert_eq!(r.level_for(o.cmds[0]), PowerLevel::paper_fast());
    }

    #[test]
    fn disabled_unit_rejects_operations() {
        let mut r = rsu(1);
        r.disable();
        assert_eq!(r.start_task(0, true, F).unwrap_err(), RsuError::Disabled);
        assert_eq!(r.read_critic(0).unwrap_err(), RsuError::Disabled);
        r.enable();
        assert!(r.start_task(0, true, F).is_ok());
    }

    #[test]
    fn bad_core_rejected() {
        let mut r = rsu(1);
        assert_eq!(r.start_task(9, true, F).unwrap_err(), RsuError::BadCore(9));
        assert_eq!(r.end_task(9, F).unwrap_err(), RsuError::BadCore(9));
    }

    #[test]
    fn read_critic_tracks_task_state() {
        let mut r = rsu(2);
        assert_eq!(r.read_critic(0).unwrap(), TaskCrit::NoTask);
        r.start_task(0, true, F).unwrap();
        assert_eq!(r.read_critic(0).unwrap(), TaskCrit::Critical);
        r.end_task(0, F).unwrap();
        assert_eq!(r.read_critic(0).unwrap(), TaskCrit::NoTask);
    }

    #[test]
    fn reset_clears_but_keeps_enabled() {
        let mut r = rsu(1);
        r.start_task(0, true, F).unwrap();
        r.reset();
        assert!(r.is_enabled());
        assert_eq!(r.engine().accelerated_count(), 0);
    }

    #[test]
    fn write_critic_no_task_frees_budget() {
        let mut r = rsu(1);
        r.start_task(0, true, F).unwrap();
        r.start_task(1, true, F).unwrap(); // denied
        let o = r.write_critic(0, TaskCrit::NoTask, F).unwrap();
        // Preempting core 0's thread hands the budget to core 1.
        assert_eq!(*o.cmds, [Cmd::Decelerate(0), Cmd::Accelerate(1)]);
    }

    #[test]
    fn op_cost_scales_with_core_frequency() {
        let mut r = rsu(1);
        let slow = r.start_task(0, false, Frequency::from_ghz(1)).unwrap();
        r.reset();
        let fast = r.start_task(0, false, Frequency::from_ghz(2)).unwrap();
        assert_eq!(slow.cost.as_ps(), 2 * fast.cost.as_ps());
    }
}
