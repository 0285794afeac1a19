//! CATA with the hardware Runtime Support Unit (§III-B).
//!
//! Same decision algorithm as [`super::SoftwareCata`], but executed by the
//! RSU: the core issues a single `rsu_start_task`/`rsu_end_task` instruction
//! (tens of cycles), and the unit drives the DVFS controller autonomously —
//! no locks, no kernel, transitions on different cores proceed in parallel.

use super::{apply_transition, AccelEffects, AccelManager, ReconfigStats};
use cata_rsu::engine::Cmd;
use cata_rsu::unit::{Rsu, RsuConfig};
use cata_sim::machine::{CoreId, Machine};
use cata_sim::stats::{Counters, LatencyHistogram, LatencyRecorder};
use cata_sim::time::{SimDuration, SimTime};

/// The RSU-backed CATA manager.
#[derive(Debug)]
pub struct RsuCata {
    rsu: Rsu,
    op_costs: LatencyRecorder,
    overhead: SimDuration,
}

impl RsuCata {
    /// Creates the manager for `machine` with the given power budget. The
    /// RSU's two level registers are programmed from the machine config
    /// (what the OS does at boot, §III-B-4).
    pub fn new(machine: &Machine, budget: usize) -> Self {
        let cfg = machine.config();
        RsuCata {
            rsu: Rsu::init(RsuConfig {
                num_cores: cfg.num_cores,
                budget,
                accel_level: cfg.fast_level,
                non_accel_level: cfg.slow_level,
                op_cycles: 32,
            }),
            op_costs: LatencyRecorder::new(),
            overhead: SimDuration::ZERO,
        }
    }

    /// The hardware unit (tests/diagnostics).
    pub fn rsu(&self) -> &Rsu {
        &self.rsu
    }

    fn apply(
        &mut self,
        cmds: &[Cmd],
        cost: SimDuration,
        now: SimTime,
        machine: &mut Machine,
        counters: &mut Counters,
    ) -> AccelEffects {
        let mut effects = AccelEffects::none();
        for &cmd in cmds {
            let target = self.rsu.level_for(cmd);
            // The RSU commands the DVFS controller the same cycle; the
            // transitions of distinct cores overlap.
            apply_transition(
                machine,
                CoreId(cmd.core() as u32),
                target,
                now,
                &mut effects,
                counters,
            );
        }
        self.op_costs.record(cost);
        self.overhead += cost;
        effects.resume_at = Some(now + cost);
        effects
    }
}

impl AccelManager for RsuCata {
    fn on_task_start(
        &mut self,
        core: CoreId,
        critical: bool,
        now: SimTime,
        machine: &mut Machine,
        counters: &mut Counters,
    ) -> AccelEffects {
        let freq = machine.core(core).frequency();
        let out = self
            .rsu
            .start_task(core.index(), critical, freq)
            .expect("RSU enabled and core in range");
        if out.cmds.len() == 2 {
            counters.accel_swaps += 1;
        }
        if out.cmds.is_empty() && critical && !self.rsu.engine().is_accelerated(core.index()) {
            counters.accel_denied += 1;
        }
        self.apply(&out.cmds, out.cost, now, machine, counters)
    }

    fn on_task_end(
        &mut self,
        core: CoreId,
        now: SimTime,
        machine: &mut Machine,
        counters: &mut Counters,
    ) -> AccelEffects {
        let freq = machine.core(core).frequency();
        let out = self
            .rsu
            .end_task(core.index(), freq)
            .expect("RSU enabled and core in range");
        self.apply(&out.cmds, out.cost, now, machine, counters)
    }

    fn on_core_idle(
        &mut self,
        core: CoreId,
        now: SimTime,
        machine: &mut Machine,
        counters: &mut Counters,
    ) -> AccelEffects {
        let freq = machine.core(core).frequency();
        let out = self
            .rsu
            .core_idle(core.index(), freq)
            .expect("RSU enabled and core in range");
        if out.cmds.is_empty() {
            return AccelEffects::none();
        }
        self.apply(&out.cmds, out.cost, now, machine, counters)
    }

    fn stats(&self) -> ReconfigStats {
        ReconfigStats {
            lock_waits: LatencyHistogram::new(), // lock-free by construction
            latencies: self.op_costs.histogram(),
            overhead_total: self.overhead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_sim::machine::MachineConfig;

    fn setup(budget: usize) -> (Machine, RsuCata) {
        let m = Machine::new(MachineConfig::small_test(4));
        let mgr = RsuCata::new(&m, budget);
        (m, mgr)
    }

    #[test]
    fn rsu_start_costs_cycles_not_microseconds() {
        let (mut m, mut mgr) = setup(2);
        let mut c = Counters::default();
        let e = mgr.on_task_start(CoreId(0), true, SimTime::ZERO, &mut m, &mut c);
        // 32 cycles at the slow 1 GHz start level = 32 ns.
        assert_eq!(e.resume_or(SimTime::ZERO), SimTime::from_ns(32));
        assert_eq!(e.settles.len(), 1);
    }

    #[test]
    fn concurrent_rsu_events_do_not_serialize() {
        let (mut m, mut mgr) = setup(4);
        let mut c = Counters::default();
        let t = SimTime::ZERO;
        let e0 = mgr.on_task_start(CoreId(0), false, t, &mut m, &mut c);
        let e1 = mgr.on_task_start(CoreId(1), false, t, &mut m, &mut c);
        // Both cores resume after their own instruction; no queueing.
        assert_eq!(e0.resume_or(t), e1.resume_or(t));
        assert!(mgr.stats().lock_waits.is_empty());
    }

    #[test]
    fn swap_transitions_overlap_in_time() {
        let (mut m, mut mgr) = setup(1);
        let mut c = Counters::default();
        mgr.on_task_start(CoreId(0), false, SimTime::ZERO, &mut m, &mut c);
        let t = SimTime::from_ms(1);
        let e = mgr.on_task_start(CoreId(1), true, t, &mut m, &mut c);
        assert_eq!(e.settles.len(), 2);
        // Both settle at the same instant: transitions run in parallel.
        assert_eq!(e.settles[0].0, e.settles[1].0);
        assert_eq!(c.accel_swaps, 1);
    }

    #[test]
    fn budget_respected_under_rsu() {
        let (mut m, mut mgr) = setup(2);
        let mut c = Counters::default();
        for core in 0..4u32 {
            mgr.on_task_start(
                CoreId(core),
                false,
                SimTime::from_us(core as u64),
                &mut m,
                &mut c,
            );
        }
        assert_eq!(m.accelerated_count(), 2);
        assert_eq!(mgr.rsu().engine().accelerated_count(), 2);
    }
}
