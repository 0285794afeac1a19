//! CATA with software-driven reconfiguration (§III-A): the Reconfiguration
//! Support Module (RSM) plus the serialized cpufreq path.
//!
//! Every task-start/end event takes the RSM lock, runs the shared decision
//! algorithm, and — if reconfigurations are needed — performs one cpufreq
//! write per affected core while still holding the lock. The acting core is
//! busy in the runtime for the whole sequence (`resume_at`), and concurrent
//! events on other cores queue up behind the lock: this is the
//! *reconfiguration serialization* overhead the RSU removes.

use super::{apply_transition, AccelEffects, AccelManager, ReconfigStats};
use cata_cpufreq::software_path::{SoftwareDvfsPath, SoftwarePathParams};
use cata_rsu::engine::{Cmd, ReconfigEngine};
use cata_sim::machine::{CoreId, Machine, PowerLevel};
use cata_sim::stats::Counters;
use cata_sim::time::{SimDuration, SimTime};

/// The software CATA manager: RSM state + decision engine + cpufreq path.
#[derive(Debug)]
pub struct SoftwareCata {
    engine: ReconfigEngine,
    path: SoftwareDvfsPath,
    fast: PowerLevel,
    slow: PowerLevel,
    overhead: SimDuration,
}

impl SoftwareCata {
    /// Creates the manager for `machine` with the given power budget
    /// (max simultaneously accelerated cores) and software path parameters.
    pub fn new(machine: &Machine, budget: usize, params: SoftwarePathParams) -> Self {
        let cfg = machine.config();
        SoftwareCata {
            engine: ReconfigEngine::new(cfg.num_cores, budget),
            path: SoftwareDvfsPath::new(params, cfg.reconfig_latency),
            fast: cfg.fast_level,
            slow: cfg.slow_level,
            overhead: SimDuration::ZERO,
        }
    }

    /// The decision engine (tests/diagnostics).
    pub fn engine(&self) -> &ReconfigEngine {
        &self.engine
    }

    fn level_for(&self, cmd: Cmd) -> PowerLevel {
        match cmd {
            Cmd::Accelerate(_) => self.fast,
            Cmd::Decelerate(_) => self.slow,
        }
    }

    /// Runs the serialized software path for a decision that produced
    /// `cmds`, scheduling one transition per command.
    fn run_path(
        &mut self,
        cmds: &[Cmd],
        now: SimTime,
        machine: &mut Machine,
        counters: &mut Counters,
    ) -> AccelEffects {
        let mut effects = AccelEffects::none();
        let grant = self.path.request_ops(now, cmds.len());
        for (op, cmd) in cmds.iter().enumerate() {
            let target = self.level_for(*cmd);
            apply_transition(
                machine,
                CoreId(cmd.core() as u32),
                target,
                grant.op_transition_start(op),
                &mut effects,
                counters,
            );
        }
        self.overhead += grant.returns_at.since(now);
        effects.resume_at = Some(grant.returns_at);
        effects
    }
}

impl AccelManager for SoftwareCata {
    fn on_task_start(
        &mut self,
        core: CoreId,
        critical: bool,
        now: SimTime,
        machine: &mut Machine,
        counters: &mut Counters,
    ) -> AccelEffects {
        let cmds = self.engine.on_task_start(core.index(), critical);
        if cmds.len() == 2 {
            counters.accel_swaps += 1;
        }
        if cmds.is_empty() && critical && !self.engine.is_accelerated(core.index()) {
            counters.accel_denied += 1;
        }
        self.run_path(&cmds, now, machine, counters)
    }

    fn on_task_end(
        &mut self,
        core: CoreId,
        now: SimTime,
        machine: &mut Machine,
        counters: &mut Counters,
    ) -> AccelEffects {
        let cmds = self.engine.on_task_end(core.index());
        self.run_path(&cmds, now, machine, counters)
    }

    fn on_core_idle(
        &mut self,
        core: CoreId,
        now: SimTime,
        machine: &mut Machine,
        counters: &mut Counters,
    ) -> AccelEffects {
        let cmds = self.engine.on_core_idle(core.index());
        if cmds.is_empty() {
            // Slow idle core: nothing to do, and the idle loop does not
            // bother the RSM lock.
            return AccelEffects::none();
        }
        self.run_path(&cmds, now, machine, counters)
    }

    fn stats(&self) -> ReconfigStats {
        ReconfigStats {
            lock_waits: self.path.lock_waits.histogram(),
            latencies: self.path.latencies.histogram(),
            overhead_total: self.overhead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_sim::machine::MachineConfig;

    fn setup(budget: usize) -> (Machine, SoftwareCata) {
        let m = Machine::new(MachineConfig::small_test(4));
        let mgr = SoftwareCata::new(&m, budget, SoftwarePathParams::paper_calibrated());
        (m, mgr)
    }

    #[test]
    fn task_start_accelerates_and_charges_path_latency() {
        let (mut m, mut mgr) = setup(2);
        let mut c = Counters::default();
        let e = mgr.on_task_start(CoreId(0), false, SimTime::ZERO, &mut m, &mut c);
        // One write: rsm(0.3) + sysfs(1.5) + driver(1) + post(0.5) = 3.3 µs;
        // the rail ramp itself proceeds outside the locked section.
        assert_eq!(e.resume_or(SimTime::ZERO), SimTime::from_ns(3_300));
        assert_eq!(e.settles.len(), 1);
        assert_eq!(c.reconfigs_applied, 1);
        // The machine sees the pending acceleration (budget accounting).
        assert_eq!(m.accelerated_count(), 1);
    }

    #[test]
    fn empty_decision_still_takes_the_lock() {
        let (mut m, mut mgr) = setup(0);
        let mut c = Counters::default();
        let e = mgr.on_task_start(CoreId(0), false, SimTime::ZERO, &mut m, &mut c);
        assert!(e.settles.is_empty());
        // RSM section only: 300 ns of overhead, still serialized.
        assert_eq!(e.resume_or(SimTime::ZERO), SimTime::from_ns(300));
        assert_eq!(mgr.stats().lock_waits.count(), 1);
        assert_eq!(mgr.stats().latencies.count(), 0);
    }

    #[test]
    fn swap_is_two_writes_under_one_hold() {
        let (mut m, mut mgr) = setup(1);
        let mut c = Counters::default();
        mgr.on_task_start(CoreId(0), false, SimTime::ZERO, &mut m, &mut c);
        let e = mgr.on_task_start(CoreId(1), true, SimTime::from_ms(1), &mut m, &mut c);
        assert_eq!(e.settles.len(), 2);
        assert_eq!(c.accel_swaps, 1);
        // Two ops after the first decision's residue: still exactly one
        // accelerated core from the machine's point of view.
        assert_eq!(m.accelerated_count(), 1);
    }

    #[test]
    fn concurrent_events_serialize_on_the_path() {
        let (mut m, mut mgr) = setup(4);
        let mut c = Counters::default();
        let t = SimTime::from_ms(1);
        let e0 = mgr.on_task_start(CoreId(0), false, t, &mut m, &mut c);
        let e1 = mgr.on_task_start(CoreId(1), false, t, &mut m, &mut c);
        assert!(e1.resume_or(t) > e0.resume_or(t));
        let s = mgr.stats();
        assert!(s.lock_waits.max() > SimDuration::ZERO);
        assert!(s.overhead_total > SimDuration::ZERO);
    }

    #[test]
    fn denied_critical_task_is_counted() {
        let (mut m, mut mgr) = setup(1);
        let mut c = Counters::default();
        mgr.on_task_start(CoreId(0), true, SimTime::ZERO, &mut m, &mut c);
        mgr.on_task_start(CoreId(1), true, SimTime::from_ms(1), &mut m, &mut c);
        assert_eq!(c.accel_denied, 1);
    }
}
