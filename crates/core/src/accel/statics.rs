//! The no-op manager for static heterogeneous configurations (FIFO, CATS).
//!
//! In these experiments "the frequency of each core does not change during
//! the execution, simulating a heterogeneous multicore" (§IV). The machine
//! is built with [`Machine::new_static_hetero`]; nothing ever reconfigures.
//!
//! [`Machine::new_static_hetero`]: cata_sim::machine::Machine::new_static_hetero

use super::{AccelEffects, AccelManager};
use cata_sim::machine::{CoreId, Machine};
use cata_sim::stats::Counters;
use cata_sim::time::SimTime;

/// Static fast/slow cores; no dynamic reconfiguration.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticAccel;

impl AccelManager for StaticAccel {
    fn on_task_start(
        &mut self,
        _core: CoreId,
        _critical: bool,
        _now: SimTime,
        _machine: &mut Machine,
        _counters: &mut Counters,
    ) -> AccelEffects {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_sim::machine::MachineConfig;

    #[test]
    fn static_manager_never_touches_the_machine() {
        let mut m = Machine::new_static_hetero(MachineConfig::small_test(4), 2);
        let mut c = Counters::default();
        let mut s = StaticAccel;
        let e = s.on_task_start(CoreId(0), true, SimTime::ZERO, &mut m, &mut c);
        assert!(e.settles.is_empty());
        assert!(e.resume_at.is_none());
        let e = s.on_task_end(CoreId(0), SimTime::from_us(5), &mut m, &mut c);
        assert!(e.settles.is_empty());
        assert_eq!(c.reconfigs_requested, 0);
        assert_eq!(m.accelerated_count(), 2);
    }
}
