//! Property tests for the reconfiguration engine and the RSU, including the
//! OS virtualization path interleaved with task events.

use cata_rsu::engine::{Cmd, Cmds, ReconfigEngine, TaskCrit};
use cata_rsu::overhead::{estimate, storage_bits, TechParams};
use cata_rsu::unit::{Rsu, RsuConfig};
use cata_rsu::virt::{preempt, resume, ThreadStruct};
use cata_sim::time::Frequency;
use proptest::prelude::*;

const F: Frequency = Frequency::from_ghz(1);

fn apply_cmds(fast: &mut [bool], cmds: &[Cmd]) {
    for c in cmds {
        match *c {
            Cmd::Accelerate(i) => fast[i] = true,
            Cmd::Decelerate(i) => fast[i] = false,
        }
    }
}

/// The decision engine as it was before its core bitsets: the same
/// algorithm over per-core flags, finding every victim and beneficiary by
/// a scan over all cores. [`ReconfigEngine`] must match it command for
/// command.
struct ScanEngine {
    crit: Vec<TaskCrit>,
    accelerated: Vec<bool>,
    budget: usize,
    accel_count: usize,
}

impl ScanEngine {
    fn new(num_cores: usize, budget: usize) -> Self {
        ScanEngine {
            crit: vec![TaskCrit::NoTask; num_cores],
            accelerated: vec![false; num_cores],
            budget,
            accel_count: 0,
        }
    }

    fn on_task_start(&mut self, core: usize, critical: bool) -> Vec<Cmd> {
        self.crit[core] = if critical {
            TaskCrit::Critical
        } else {
            TaskCrit::NonCritical
        };
        if self.accelerated[core] {
            return Vec::new();
        }
        if self.accel_count < self.budget {
            self.accelerated[core] = true;
            self.accel_count += 1;
            return vec![Cmd::Accelerate(core)];
        }
        if critical {
            if let Some(victim) = self.find_victim(core) {
                self.accelerated[victim] = false;
                self.accelerated[core] = true;
                return vec![Cmd::Decelerate(victim), Cmd::Accelerate(core)];
            }
        }
        Vec::new()
    }

    fn on_task_end(&mut self, core: usize) -> Vec<Cmd> {
        self.crit[core] = TaskCrit::NoTask;
        if !self.accelerated[core] {
            return Vec::new();
        }
        if let Some(next) = self.find_waiting_critical() {
            self.accelerated[core] = false;
            self.accelerated[next] = true;
            return vec![Cmd::Decelerate(core), Cmd::Accelerate(next)];
        }
        Vec::new()
    }

    fn on_core_idle(&mut self, core: usize) -> Vec<Cmd> {
        if !self.accelerated[core] {
            return Vec::new();
        }
        self.accelerated[core] = false;
        let mut cmds = vec![Cmd::Decelerate(core)];
        if let Some(next) = self
            .find_waiting_critical()
            .or_else(|| self.find_waiting_running())
        {
            self.accelerated[next] = true;
            cmds.push(Cmd::Accelerate(next));
        } else {
            self.accel_count -= 1;
        }
        cmds
    }

    fn reset(&mut self) {
        self.crit.fill(TaskCrit::NoTask);
        self.accelerated.fill(false);
        self.accel_count = 0;
    }

    fn find_victim(&self, exclude: usize) -> Option<usize> {
        let mut non_critical = None;
        for c in 0..self.crit.len() {
            if c == exclude || !self.accelerated[c] {
                continue;
            }
            match self.crit[c] {
                TaskCrit::NoTask => return Some(c),
                TaskCrit::NonCritical => {
                    if non_critical.is_none() {
                        non_critical = Some(c);
                    }
                }
                TaskCrit::Critical => {}
            }
        }
        non_critical
    }

    fn find_waiting_critical(&self) -> Option<usize> {
        (0..self.crit.len()).find(|&c| !self.accelerated[c] && self.crit[c] == TaskCrit::Critical)
    }

    fn find_waiting_running(&self) -> Option<usize> {
        (0..self.crit.len())
            .find(|&c| !self.accelerated[c] && self.crit[c] == TaskCrit::NonCritical)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The indexed engine takes exactly the linear-scan reference's
    /// decisions under random start/end/idle/set-crit/reset streams on
    /// 1–130 cores, so victims and beneficiaries come from every one of up
    /// to three bitset words.
    #[test]
    fn engine_matches_the_linear_scan_reference(
        cores in 1usize..=130,
        budget_seed in any::<usize>(),
        events in prop::collection::vec((any::<usize>(), 0u8..100, 0u8..3), 0..600),
    ) {
        let budget = budget_seed % (cores + 1);
        let mut e = ReconfigEngine::new(cores, budget);
        let mut r = ScanEngine::new(cores, budget);
        for (step, (core_seed, op, kind)) in events.into_iter().enumerate() {
            let core = core_seed % cores;
            let crit = [TaskCrit::NoTask, TaskCrit::NonCritical, TaskCrit::Critical];
            let critical = crit[kind as usize] == TaskCrit::Critical;
            let (got, want) = match op {
                0..=39 => (e.on_task_start(core, critical), r.on_task_start(core, critical)),
                40..=64 => (e.on_task_end(core), r.on_task_end(core)),
                65..=84 => (e.on_core_idle(core), r.on_core_idle(core)),
                85..=98 => {
                    e.set_crit(core, crit[kind as usize]);
                    r.crit[core] = crit[kind as usize];
                    (Cmds::NONE, Vec::new())
                }
                _ => {
                    e.reset();
                    r.reset();
                    (Cmds::NONE, Vec::new())
                }
            };
            prop_assert_eq!(*got, *want, "step {} op {} on core {} of {}", step, op, core, cores);
            for c in 0..cores {
                prop_assert_eq!(e.crit(c), r.crit[c], "crit of core {} at step {}", c, step);
                let fast = e.is_accelerated(c);
                prop_assert_eq!(fast, r.accelerated[c], "core {} at step {}", c, step);
            }
            prop_assert_eq!(e.accelerated_count(), r.accel_count);
            prop_assert_eq!(e.check_invariants(), Ok(()));
        }
    }

    /// Under arbitrary start/end/idle streams the engine's commands, replayed
    /// onto a fast-flag array, always agree with the engine's own view and
    /// never exceed the budget.
    #[test]
    fn engine_commands_replay_consistently(
        events in prop::collection::vec((0usize..6, 0u8..3, any::<bool>()), 0..300),
        budget in 0usize..=6,
    ) {
        let mut e = ReconfigEngine::new(6, budget);
        let mut fast = [false; 6];
        let mut running = [false; 6];
        for (core, op, critical) in events {
            let cmds = match op {
                0 if !running[core] => {
                    running[core] = true;
                    e.on_task_start(core, critical)
                }
                1 if running[core] => {
                    running[core] = false;
                    e.on_task_end(core)
                }
                2 if !running[core] => e.on_core_idle(core),
                _ => continue,
            };
            apply_cmds(&mut fast, &cmds);
            // Replayed state matches the engine's bookkeeping exactly.
            for (i, &f) in fast.iter().enumerate() {
                prop_assert_eq!(f, e.is_accelerated(i), "core {} diverged", i);
            }
            prop_assert!(fast.iter().filter(|&&f| f).count() <= budget);
            // Within a decision, decelerations come first.
            let first_accel = cmds.iter().position(|c| matches!(c, Cmd::Accelerate(_)));
            let last_decel = cmds.iter().rposition(|c| matches!(c, Cmd::Decelerate(_)));
            if let (Some(a), Some(d)) = (first_accel, last_decel) {
                prop_assert!(d < a, "acceleration before deceleration in {:?}", cmds);
            }
        }
    }

    /// A critical task start is never left unaccelerated while a
    /// non-critical task holds budget (the anti-priority-inversion property).
    #[test]
    fn critical_start_displaces_when_possible(
        setup in prop::collection::vec(any::<bool>(), 4),
        budget in 1usize..=4,
    ) {
        let mut e = ReconfigEngine::new(5, budget);
        for (core, crit) in setup.iter().enumerate() {
            e.on_task_start(core, *crit);
        }
        e.on_task_start(4, true);
        if !e.is_accelerated(4) {
            // Then every accelerated core must be running a critical task.
            for core in 0..4 {
                if e.is_accelerated(core) {
                    prop_assert_eq!(e.crit(core), TaskCrit::Critical);
                }
            }
        }
        prop_assert!(e.check_invariants().is_ok());
    }

    /// Preempt/resume round trips preserve the engine's budget invariant and
    /// restore criticality faithfully.
    #[test]
    fn virtualization_round_trips(
        ops in prop::collection::vec((0usize..4, 0u8..4, any::<bool>()), 0..120),
    ) {
        let mut rsu = Rsu::init(RsuConfig {
            num_cores: 4,
            budget: 2,
            ..RsuConfig::paper_default(2)
        });
        let mut threads: [ThreadStruct; 4] = Default::default();
        let mut on_core: [bool; 4] = [true; 4]; // thread i resident on core i
        let mut running: [bool; 4] = [false; 4];
        for (core, op, crit) in ops {
            match op {
                0 if on_core[core] && !running[core] => {
                    rsu.start_task(core, crit, F).unwrap();
                    running[core] = true;
                }
                1 if on_core[core] && running[core] => {
                    rsu.end_task(core, F).unwrap();
                    running[core] = false;
                }
                2 if on_core[core] => {
                    let before = rsu.read_critic(core).unwrap();
                    preempt(&mut rsu, core, &mut threads[core], F).unwrap();
                    on_core[core] = false;
                    // Saved value faithfully encodes what was running.
                    let saved_some = threads[core].saved_crit.is_some();
                    prop_assert_eq!(saved_some, before != TaskCrit::NoTask);
                    prop_assert_eq!(rsu.read_critic(core).unwrap(), TaskCrit::NoTask);
                }
                3 if !on_core[core] => {
                    resume(&mut rsu, core, &threads[core], F).unwrap();
                    on_core[core] = true;
                }
                _ => {}
            }
            prop_assert!(rsu.engine().check_invariants().is_ok());
            prop_assert!(rsu.engine().accelerated_count() <= 2);
        }
    }

    /// The storage formula is exact and monotone; the overhead estimate
    /// stays "negligible" over four orders of magnitude of core counts.
    #[test]
    fn overhead_monotone_and_negligible(cores in 2usize..2048, states in 2usize..16) {
        let bits = storage_bits(cores, states);
        prop_assert!(bits >= 3 * cores as u64);
        prop_assert!(storage_bits(cores + 1, states) > bits);
        let o = estimate(cores, states, &TechParams::nm22());
        prop_assert!(o.area_fraction < 0.001);
        prop_assert!(o.power_uw < 100.0);
    }

    /// Disabled units reject all task operations but re-enable cleanly.
    #[test]
    fn disable_enable_cycle(ops in prop::collection::vec(0usize..4, 0..20)) {
        let mut rsu = Rsu::init(RsuConfig {
            num_cores: 4,
            budget: 2,
            ..RsuConfig::paper_default(2)
        });
        rsu.disable();
        for core in ops {
            prop_assert!(rsu.start_task(core, true, F).is_err());
        }
        rsu.enable();
        rsu.reset();
        prop_assert!(rsu.start_task(0, true, F).is_ok());
    }
}
