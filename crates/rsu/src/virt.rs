//! RSU virtualization across OS context switches (§III-B-3).
//!
//! The RSU tracks *cores*, but the OS multiplexes *threads* onto cores. At a
//! preemption the OS reads the outgoing thread's criticality from the RSU
//! (`rsu_read_critic`), saves it in the kernel's per-thread
//! `thread_struct`, and writes `NoTask` so the unit can hand the core's
//! budget to other work while the thread is off-core. When the thread is
//! rescheduled its saved criticality is written back, which behaves like a
//! task start. This lets several independent applications share one RSU.

use crate::engine::{Cmds, TaskCrit};
use crate::unit::{Rsu, RsuError};
use cata_sim::time::Frequency;
use serde::{Deserialize, Serialize};

/// The slice of the kernel `thread_struct` the paper adds: the saved task
/// criticality of a descheduled thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ThreadStruct {
    /// Criticality saved at the last preemption, if the thread was running a
    /// task.
    pub saved_crit: Option<SavedCrit>,
}

/// A saved criticality value (only real task states are saved; `NoTask`
/// saves as `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SavedCrit {
    /// Thread was running a critical task.
    Critical,
    /// Thread was running a non-critical task.
    NonCritical,
}

/// Preempts the thread on `cpu`: saves its criticality into `thread` and
/// clears the RSU slot (possibly re-distributing the budget). Returns the
/// DVFS commands to apply.
pub fn preempt(
    rsu: &mut Rsu,
    cpu: usize,
    thread: &mut ThreadStruct,
    core_freq: Frequency,
) -> Result<Cmds, RsuError> {
    let crit = rsu.read_critic(cpu)?;
    thread.saved_crit = match crit {
        TaskCrit::Critical => Some(SavedCrit::Critical),
        TaskCrit::NonCritical => Some(SavedCrit::NonCritical),
        TaskCrit::NoTask => None,
    };
    if thread.saved_crit.is_some() {
        Ok(rsu.write_critic(cpu, TaskCrit::NoTask, core_freq)?.cmds)
    } else {
        Ok(Cmds::NONE)
    }
}

/// Resumes `thread` on `cpu`: restores its saved criticality into the RSU
/// (behaving like a task start). Returns the DVFS commands to apply.
pub fn resume(
    rsu: &mut Rsu,
    cpu: usize,
    thread: &ThreadStruct,
    core_freq: Frequency,
) -> Result<Cmds, RsuError> {
    match thread.saved_crit {
        Some(SavedCrit::Critical) => Ok(rsu.write_critic(cpu, TaskCrit::Critical, core_freq)?.cmds),
        Some(SavedCrit::NonCritical) => Ok(rsu
            .write_critic(cpu, TaskCrit::NonCritical, core_freq)?
            .cmds),
        None => Ok(Cmds::NONE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Cmd;
    use crate::unit::RsuConfig;

    const F: Frequency = Frequency::from_ghz(1);

    fn rsu(budget: usize) -> Rsu {
        Rsu::init(RsuConfig {
            num_cores: 4,
            budget,
            ..RsuConfig::paper_default(budget)
        })
    }

    #[test]
    fn preempt_saves_and_clears() {
        let mut r = rsu(2);
        r.start_task(0, true, F).unwrap();
        let mut th = ThreadStruct::default();
        let cmds = preempt(&mut r, 0, &mut th, F).unwrap();
        assert_eq!(th.saved_crit, Some(SavedCrit::Critical));
        assert_eq!(r.read_critic(0).unwrap(), TaskCrit::NoTask);
        // Nobody is waiting for the budget: the core keeps its accelerated
        // state (it is about to run another thread) and no command is
        // issued.
        assert!(cmds.is_empty());
        assert!(r.engine().is_accelerated(0));
    }

    #[test]
    fn preempt_hands_budget_to_waiting_critical() {
        let mut r = rsu(1);
        r.start_task(0, true, F).unwrap(); // holds the single budget slot
        r.start_task(1, true, F).unwrap(); // critical, denied
        let mut th = ThreadStruct::default();
        let cmds = preempt(&mut r, 0, &mut th, F).unwrap();
        assert_eq!(*cmds, [Cmd::Decelerate(0), Cmd::Accelerate(1)]);
    }

    #[test]
    fn resume_restores_criticality_and_competes_for_budget() {
        let mut r = rsu(1);
        r.start_task(0, true, F).unwrap();
        let mut th = ThreadStruct::default();
        preempt(&mut r, 0, &mut th, F).unwrap();
        // Core 0 still holds the budget with no task on it; the returning
        // critical thread on core 2 displaces exactly that idle-ish holder.
        let cmds = resume(&mut r, 2, &th, F).unwrap();
        assert_eq!(*cmds, [Cmd::Decelerate(0), Cmd::Accelerate(2)]);
    }

    #[test]
    fn idle_thread_round_trip_is_silent() {
        let mut r = rsu(1);
        let mut th = ThreadStruct::default();
        let cmds = preempt(&mut r, 3, &mut th, F).unwrap();
        assert!(cmds.is_empty());
        assert_eq!(th.saved_crit, None);
        let cmds = resume(&mut r, 3, &th, F).unwrap();
        assert!(cmds.is_empty());
    }

    #[test]
    fn two_applications_share_the_rsu() {
        // App A (critical tasks) and app B (non-critical) alternate on the
        // same core via context switches; the RSU keeps the budget with the
        // critical app whenever it is on-core.
        let mut r = rsu(1);
        let mut th_a = ThreadStruct::default();
        let th_b = ThreadStruct {
            saved_crit: Some(SavedCrit::NonCritical),
        };

        r.start_task(0, true, F).unwrap(); // A runs critical on core 0
        preempt(&mut r, 0, &mut th_a, F).unwrap();
        // B resumes on the same core, which kept the accelerated state:
        // nothing to reconfigure, B simply inherits the fast core.
        let cmds = resume(&mut r, 0, &th_b, F).unwrap();
        assert!(cmds.is_empty());
        assert!(r.engine().is_accelerated(0));
        // A comes back on core 1 and displaces B.
        let cmds = resume(&mut r, 1, &th_a, F).unwrap();
        assert_eq!(*cmds, [Cmd::Decelerate(0), Cmd::Accelerate(1)]);
    }
}
