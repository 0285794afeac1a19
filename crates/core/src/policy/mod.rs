//! Ready-queue scheduling policies.
//!
//! A policy owns the ready queue(s) and decides which task a requesting core
//! receives. It sees tasks only after the executor has classified their
//! criticality, and it learns the static speed class of each core (for the
//! heterogeneous CATS configurations) at construction.

use cata_sim::machine::CoreId;
use cata_sim::stats::Counters;
use cata_tdg::TaskId;

mod cats;
mod fifo;

pub use cats::CatsPolicy;
pub use fifo::FifoPolicy;

/// Context a policy may consult while serving a dequeue.
#[derive(Debug, Clone, Copy)]
pub struct DispatchCtx {
    /// True if at least one *fast* core is currently idle — CATS forbids
    /// slow cores from stealing HPRQ work while a fast core could take it.
    pub fast_core_idle: bool,
}

/// A ready-queue policy. Its registry key names it.
pub trait SchedulerPolicy: Send {
    /// Adds a ready task with its criticality *level* (0 = non-critical;
    /// higher values rank more-critical work — the `c` of `criticality(c)`).
    fn enqueue(&mut self, task: TaskId, level: u8);

    /// Serves a work request from `core`. `ctx` carries the idle-state
    /// information the CATS stealing rule needs. Returns the task to run,
    /// or `None` when nothing queued may go to `core` now (always when
    /// the queues are empty).
    fn dequeue(
        &mut self,
        core: CoreId,
        ctx: DispatchCtx,
        counters: &mut Counters,
    ) -> Option<TaskId>;

    /// Total ready tasks queued.
    fn len(&self) -> usize;

    /// True if no tasks are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::AccelEffects;
    use crate::exp::spec::PolicyParams;
    use crate::exp::{FactoryCtx, PolicyRegistries};
    use cata_sim::machine::{Machine, MachineConfig};
    use cata_sim::time::{SimDuration, SimTime};

    /// The executor's dispatch loop contract, exercised against both
    /// policies: repeatedly offering idle cores must drain every queued task
    /// exactly once.
    fn drain(policy: &mut dyn SchedulerPolicy, cores: &[CoreId]) -> Vec<(CoreId, TaskId)> {
        let mut out = Vec::new();
        let mut counters = Counters::default();
        let ctx = DispatchCtx {
            fast_core_idle: false,
        };
        loop {
            let mut progressed = false;
            for &c in cores {
                if let Some(t) = policy.dequeue(c, ctx, &mut counters) {
                    out.push((c, t));
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        out
    }

    /// Asserts the shared drain contract on an already-boxed policy:
    /// `is_empty` must agree with observed emptiness through the
    /// trait-object vtable before the fill, after each enqueue (the first
    /// one lands in the HPRQ of a CATS policy) and after the drain.
    fn assert_drain_contract(policy: &mut Box<dyn SchedulerPolicy>, label: &str) {
        let cores: Vec<CoreId> = (0..4u32).map(CoreId).collect();
        assert!(policy.is_empty(), "{label} starts non-empty");
        for i in 0..20u32 {
            policy.enqueue(TaskId(i), u8::from(i % 3 == 0));
            assert!(!policy.is_empty(), "{label} empty after enqueue");
        }
        assert_eq!(policy.len(), 20);
        let drained = drain(policy.as_mut(), &cores);
        assert_eq!(drained.len(), 20, "{label} lost tasks");
        let mut seen: Vec<u32> = drained.iter().map(|(_, t)| t.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        assert!(policy.is_empty(), "{label} not empty after drain");
        assert_eq!(policy.len(), 0);
    }

    #[test]
    fn policies_conserve_tasks() {
        let mut fifo: Box<dyn SchedulerPolicy> = Box::new(FifoPolicy::new());
        let mut cats: Box<dyn SchedulerPolicy> =
            Box::new(CatsPolicy::new(&[true, true, false, false]));
        assert_drain_contract(&mut fifo, "FIFO");
        assert_drain_contract(&mut cats, "CATS");
    }

    /// The same drain contract through the *registry* path: policies built
    /// as trait objects from their string keys — the construction every
    /// facade run uses — must satisfy the identical conservation and
    /// `is_empty` contract. Also pins the `AccelEffects::resume_or`
    /// contract the dispatch loop depends on after each accel callback.
    #[test]
    fn registry_built_policies_satisfy_the_drain_contract() {
        let regs = PolicyRegistries::with_builtins();
        let machine = Machine::new_static_hetero(MachineConfig::small_test(4), 2);
        let is_fast = [true, true, false, false];
        let params = PolicyParams::default();
        let ctx = FactoryCtx {
            machine: &machine,
            is_fast_static: &is_fast,
            fast_cores: 2,
            seed: 7,
            params: &params,
        };
        for key in regs.scheduler_keys() {
            let mut policy = regs
                .build_scheduler(&key, &ctx)
                .unwrap_or_else(|e| panic!("{key}: {e}"));
            assert_drain_contract(&mut policy, &key);
        }

        // The accel side of the dispatch contract: an effect-free outcome
        // resumes at the event time, an explicit resume_at wins otherwise.
        let now = SimTime::ZERO + SimDuration::from_us(5);
        assert_eq!(AccelEffects::none().resume_or(now), now);
        let later = now + SimDuration::from_us(3);
        let charged = AccelEffects {
            resume_at: Some(later),
            settles: crate::accel::SettleList::new(),
        };
        assert_eq!(charged.resume_or(now), later);
    }
}
