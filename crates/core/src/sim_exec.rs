//! The discrete-event execution engine: the one simulation of the paper's
//! runtime, whether it runs one task graph to completion (a closed run,
//! the paper's §V setup) or hosts graph instances arriving off a traffic
//! tape (an open run, [`crate::service`]).
//!
//! The engine models the runtime the way the paper's Nanos++ setup works:
//!
//! - a **task source** releases tasks into the policy's ready queues. In
//!   a closed run it is the **master thread**, which submits tasks in
//!   program order; each submission costs creation time plus (for
//!   `CATS+BL`) the bottom-level ancestor walk, so criticality estimation
//!   overhead delays task availability exactly as §V-A describes. In an
//!   open run it is the tape: each admitted arrival releases a whole
//!   graph instance;
//! - **worker cores** pull tasks from the policy's ready queues, paying a
//!   dispatch cost, then the acceleration manager's prologue (for software
//!   CATA this is the serialized RSM + cpufreq path), then execute the task
//!   body under the progress model (mid-task DVFS changes re-project
//!   completion), then run the manager's epilogue before going idle;
//! - blocked tasks halt their core (C1), which TurboMode exploits and CATA
//!   deliberately does not (§V-D);
//! - optionally, seeded faults fail-stop cores, void completions and
//!   fail DVFS writes, and a slot-gated shared memory makes tasks wait
//!   for bandwidth.
//!
//! `Engine` owns the machine, the core lifecycle and the event loop; a
//! `Source` decides which tasks exist and when they are released. The
//! engine is generic over its source and compiled once per source, so a
//! closed run pays nothing for what only open runs need.
//!
//! The engine keeps one record per core and one per task id. A core's
//! `CoreCtl` holds its `CoreRun` (idle, halted, in its prologue, running,
//! waiting at the memory gate since some time, in its epilogue, or failed
//! since some time), the epoch that voids its stale events, whether it
//! holds a memory slot, and its DVFS-settle retries. A task's `TaskCtl`
//! holds its criticality and its fault re-executions. `FaultState` and
//! `MemState` hold only run-wide state. The idle index orders the idle
//! and halted cores for dispatch; debug builds check after every dispatch
//! that it lists exactly those cores.
//!
//! Determinism: all state transitions are driven by a deterministic event
//! queue; the only randomness (TurboMode's victim pick, fault draws) is
//! seeded from the run configuration. Same config + same graph ⇒
//! bit-identical report.

use crate::accel::{AccelEffects, AccelManager};
use crate::exp::error::ExpError;
use crate::exp::registry::{PolicyRegistries, ResolvedPolicies};
use crate::exp::spec::{RuntimeCosts, ScenarioSpec};
use crate::fault::{
    default_recovery_registry, fault_rng, FaultReport, FaultSpec, RecoveryAction, RecoveryCtx,
    RecoveryPolicy, SplitMix64,
};
use crate::mem::{default_arbitration_registry, MemoryReport, MemorySpec};
use crate::policy::{DispatchCtx, SchedulerPolicy};
use crate::report::RunReport;
use crate::service::ServiceReport;
use cata_power::integrate_machine;
use cata_sim::activity::Activity;
use cata_sim::event::EventQueue;
use cata_sim::machine::{CoreId, Machine};
use cata_sim::memory::{ArbitrationPolicy, MemorySubsystem};
use cata_sim::progress::{ExecProfile, Milestone, RunningTask};
use cata_sim::stats::Counters;
use cata_sim::time::{SimDuration, SimTime};
use cata_sim::trace::{Trace, TraceEvent, TraceMode};
use cata_tdg::criticality::CriticalityEstimator;
use cata_tdg::{GraphView, TaskGraph, TaskId};

/// Simulation events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// The source's next submission is due: the master thread finished
    /// creating a task, or the next tape record arrives.
    Submit,
    /// A core's runtime prologue finished; the task body begins.
    TaskBegin { core: u32, epoch: u64 },
    /// A running task reached its next milestone (complete/block/unblock).
    Milestone { core: u32, epoch: u64, gen: u64 },
    /// A core's runtime epilogue finished; it requests new work.
    CoreFree { core: u32, epoch: u64 },
    /// A DVFS transition may have settled on a core.
    DvfsSettle { core: u32 },
    /// An idle core's OS timeout expired; it halts (C1).
    IdleHalt { core: u32, epoch: u64 },
    /// A core stayed idle past the deceleration debounce; CATA may now
    /// release its budget.
    IdleDecel { core: u32, epoch: u64 },
    /// A scheduled fault fail-stops a core (fault injection only).
    CoreFail { core: u32, permanent: bool },
    /// A failed core's recovery window closed; it rejoins the machine.
    CoreRecover { core: u32 },
    /// A granted task's memory-bandwidth hold expired; the slot frees and
    /// arbitration picks the next waiter (contended memory only).
    MemRelease { core: u32, epoch: u64 },
}

/// Where a run's tasks come from: the part of the runtime that differs
/// between a closed run and an open one. The [`Engine`] calls these hooks
/// from its event loop and core lifecycle; everything else (dispatch,
/// acceleration, progress, faults, the memory gate) is shared.
///
/// Task ids are the source's own: a closed run uses the graph's ids, an
/// open run global `slot · stride + local` ids over pooled instances.
pub(crate) trait Source<'g> {
    /// When the first [`Ev::Submit`] fires, if there is anything to
    /// submit. Sizes the per-task tables for the ids known up front.
    fn first_submit(&mut self, ready: &mut Ready<'_>) -> Option<SimTime>;
    /// Handles the [`Ev::Submit`] due at `now`, releasing whatever became
    /// ready into `ready`; returns when the next one fires.
    fn submit(&mut self, now: SimTime, ready: &mut Ready<'_>) -> Option<SimTime>;
    /// The execution profile `task` runs; its `mem_ps` is the memory time
    /// the task demands from a contended gate.
    fn profile(&self, task: TaskId) -> &'g ExecProfile;
    /// The criticality level a displaced `task` is requeued at.
    fn level(&mut self, task: TaskId) -> u8;
    /// `task` was just assigned to a core.
    fn on_dispatch(&mut self, _task: TaskId, _now: SimTime) {}
    /// `task` completed for good: release its successors into `ready`.
    fn complete(&mut self, task: TaskId, now: SimTime, ready: &mut Ready<'_>);
    /// True if `task` belongs to shed work: it is discarded at dispatch
    /// and its completion is void.
    fn is_shed(&self, _task: TaskId) -> bool {
        false
    }
    /// A recovery policy asked to shed the work `task` belongs to.
    /// Returns false if the source cannot shed; the task is then
    /// requeued instead.
    fn shed(&mut self, _task: TaskId) -> bool {
        false
    }
    /// True while the run still has work outstanding.
    fn pending(&self) -> bool;
    /// How far the source got, for stall and deadlock messages.
    fn progress(&self) -> String;
    /// Closes the source at `end`; open runs return their service report.
    fn finish(&mut self, end: SimTime) -> Option<ServiceReport>;
}

/// The engine state a [`Source`] may touch while it releases tasks: the
/// scheduler's ready queues, the engine's count of them, and the per-task
/// records.
pub(crate) struct Ready<'a> {
    policy: &'a mut dyn SchedulerPolicy,
    queued: &'a mut usize,
    tasks: &'a mut Vec<TaskCtl>,
}

impl Ready<'_> {
    /// Makes `task` ready at criticality `level`.
    #[inline]
    pub(crate) fn push(&mut self, task: TaskId, level: u8) {
        self.tasks[task.index()].crit = level > 0;
        self.policy.enqueue(task, level);
        *self.queued += 1;
    }

    /// Tasks waiting in the ready queues.
    pub(crate) fn queued(&self) -> usize {
        *self.queued
    }

    /// Gives the ids in `ids` fresh records, growing the table to cover
    /// them: a closed run sizes it for its graph, an open run stamps each
    /// new instance into a slot's ids, recycled or not.
    pub(crate) fn reuse(&mut self, ids: std::ops::Range<usize>) {
        if ids.end > self.tasks.len() {
            self.tasks.resize(ids.end, TaskCtl::default());
        }
        self.tasks[ids].fill(TaskCtl::default());
    }
}

/// What a core is doing, from the executor's point of view. The lifetime
/// is the task graph's: a running task borrows its profile from the graph
/// instead of cloning it per assignment. A core is in the [`IdleIndex`]
/// exactly when it is `Idle` or `Halted`.
#[derive(Debug, Default)]
enum CoreRun<'g> {
    /// Spinning in the runtime idle loop.
    #[default]
    Idle,
    /// Halted in C1 (idle timeout, only with `idle_to_halt`).
    Halted,
    /// Running the runtime prologue (dispatch + acceleration path).
    Prologue { task: TaskId },
    /// Executing a task body.
    Running { task: TaskId, rt: RunningTask<'g> },
    /// Parked at the memory gate since `since`: the prologue finished but
    /// every bandwidth slot is taken. The core stays *busy* (spinning on
    /// the access), burning energy without progress — interference
    /// stretches wall time.
    MemWait { task: TaskId, since: SimTime },
    /// Running the runtime epilogue (task-end acceleration path).
    Epilogue,
    /// Fail-stopped at `since` by the fault schedule: it takes no work
    /// until its recovery window closes, if it has one.
    Failed { since: SimTime },
}

/// Everything the engine keeps about one core.
#[derive(Debug, Default)]
struct CoreCtl<'g> {
    run: CoreRun<'g>,
    /// Bumped on every assignment, failure and recovery; stale scheduled
    /// events are discarded by comparing epochs.
    epoch: u64,
    /// Holds a memory-bandwidth slot (contended memory only). Guards stale
    /// release events after faults and re-executions.
    mem_slot: bool,
    /// Consecutive transient failures of the core's pending DVFS settle
    /// (fault injection only).
    settle_retries: u32,
}

/// Everything the engine keeps about one task id.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TaskCtl {
    /// Critical as classified when it last became ready, or as requeued
    /// after a core failure displaced it.
    crit: bool,
    /// Transient-fault re-executions used, bounded by `max_retries` so a
    /// p=1 schedule still terminates.
    retries: u32,
}

/// Sentinel for "not linked" in [`IdleIndex`].
const NIL: u32 = u32::MAX;

/// A persistent index of *available* (idle or halted) cores, kept in
/// dispatch order — the structure that replaces the per-event candidate
/// `Vec` + sort the dispatch loop used to allocate.
///
/// Dispatch order is `(preferred class, idle arrival)`: when the scheduler
/// prefers fast cores (CATS), static-fast cores form class 0 and everyone
/// else class 1; otherwise all cores share class 1 and the order is pure
/// idle-arrival FIFO — exactly the sort key of the old code, so scheduling
/// decisions are bit-identical. Each class is an intrusive doubly linked
/// list over fixed per-core link arrays: cores always *become* available
/// later than every core already listed (idle stamps are monotonic), so
/// insertion is an O(1) tail append, and assignment unlinks in O(1) from
/// anywhere. Zero allocations after [`reset`](Self::reset).
#[derive(Debug, Default)]
pub(crate) struct IdleIndex {
    next: Vec<u32>,
    prev: Vec<u32>,
    /// 0 = preferred (static-fast under a fast-preferring policy), 1 = rest.
    class: Vec<u8>,
    /// Static speed class, for the `fast_core_idle` dispatch context.
    is_fast: Vec<bool>,
    head: [u32; 2],
    tail: [u32; 2],
    /// Available cores that are static-fast.
    avail_fast: usize,
}

impl IdleIndex {
    /// Re-initializes for a run: all `n` cores available in core order
    /// (their initial idle stamps are their indices), classed by
    /// `prefer_fast`/`is_fast_static`. Reuses every buffer.
    fn reset(&mut self, n: usize, prefer_fast: bool, is_fast_static: &[bool]) {
        self.next.clear();
        self.next.resize(n, NIL);
        self.prev.clear();
        self.prev.resize(n, NIL);
        self.class.clear();
        self.class.extend(
            is_fast_static
                .iter()
                .map(|&fast| u8::from(!(prefer_fast && fast))),
        );
        self.is_fast.clear();
        self.is_fast.extend_from_slice(is_fast_static);
        self.head = [NIL; 2];
        self.tail = [NIL; 2];
        self.avail_fast = 0;
        for i in 0..n {
            self.push(CoreId(i as u32));
        }
    }

    /// Appends a newly available core at the tail of its class list.
    fn push(&mut self, core: CoreId) {
        let i = core.index();
        let c = self.class[i] as usize;
        debug_assert!(
            self.prev[i] == NIL && self.head[c] != core.0,
            "{core} already available"
        );
        let t = self.tail[c];
        self.prev[i] = t;
        self.next[i] = NIL;
        if t == NIL {
            self.head[c] = core.0;
        } else {
            self.next[t as usize] = core.0;
        }
        self.tail[c] = core.0;
        if self.is_fast[i] {
            self.avail_fast += 1;
        }
    }

    /// Unlinks a core that got work assigned.
    fn remove(&mut self, core: CoreId) {
        let i = core.index();
        let c = self.class[i] as usize;
        let (p, n) = (self.prev[i], self.next[i]);
        debug_assert!(p != NIL || self.head[c] == core.0, "{core} not available");
        if p == NIL {
            self.head[c] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail[c] = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[i] = NIL;
        self.next[i] = NIL;
        if self.is_fast[i] {
            self.avail_fast -= 1;
        }
    }

    /// First core in dispatch order.
    fn first(&self) -> Option<CoreId> {
        let h = if self.head[0] != NIL {
            self.head[0]
        } else {
            self.head[1]
        };
        (h != NIL).then_some(CoreId(h))
    }

    /// The core visited after `core`. Capture this *before* removing
    /// `core`: the successor stays valid because dispatch only ever
    /// removes the core it is currently visiting.
    fn next_after(&self, core: CoreId) -> Option<CoreId> {
        let i = core.index();
        let n = self.next[i];
        if n != NIL {
            return Some(CoreId(n));
        }
        if self.class[i] == 0 && self.head[1] != NIL {
            return Some(CoreId(self.head[1]));
        }
        None
    }

    /// What the scheduler learns when it serves `core`: a slow core is told
    /// whether a static-fast core is available (idle or halted).
    fn dispatch_ctx(&self, core: CoreId) -> DispatchCtx {
        DispatchCtx {
            fast_core_idle: self.avail_fast > 0 && !self.is_fast[core.index()],
        }
    }

    /// Debug shadow check: both class lists, walked link by link, hold
    /// exactly the `Idle` and `Halted` cores, and `avail_fast` counts the
    /// static-fast ones among them.
    fn check(&self, cores: &[CoreCtl<'_>]) {
        let idle = |i: usize| matches!(cores[i].run, CoreRun::Idle | CoreRun::Halted);
        let (next, prev, class) = (&self.next[..], &self.prev[..], &self.class[..]);
        let (mut listed, mut fast) = (0, 0);
        for c in 0..2 {
            let (mut back, mut cur) = (NIL, self.head[c]);
            while cur != NIL {
                let i = cur as usize;
                assert!(listed < cores.len(), "idle list {c} loops");
                assert!(idle(i), "core {i} is listed idle but is not");
                assert!(
                    usize::from(class[i]) == c && prev[i] == back,
                    "core {i} is misplaced in idle list {c}"
                );
                listed += 1;
                fast += usize::from(self.is_fast[i]);
                (back, cur) = (cur, next[i]);
            }
            assert!(self.tail[c] == back, "idle list {c}'s tail");
        }
        let mut want = 0;
        for core in cores {
            want += usize::from(matches!(core.run, CoreRun::Idle | CoreRun::Halted));
        }
        assert!(listed == want, "idle lists miss an idle core");
        assert!(fast == self.avail_fast, "idle fast-core count");
    }
}

/// Run-wide fault-injection state: the schedule, the recovery policy,
/// the seeded RNG, and the accumulating [`FaultReport`]. Present only
/// when the scenario carries a [`FaultSpec`]; fault-free runs never touch
/// it.
struct FaultState {
    spec: FaultSpec,
    policy: Box<dyn RecoveryPolicy>,
    rng: SplitMix64,
    /// Requeued displaced tasks not yet re-dispatched, with when each was
    /// displaced (recovery-latency samples). Only a core failure
    /// displaces a task, so the list stays short.
    displaced: Vec<(TaskId, SimTime)>,
    report: FaultReport,
}

impl FaultState {
    /// Fresh state with the recovery policy `spec` names (an unknown key
    /// fails).
    fn new(spec: &FaultSpec, seed: u64) -> Result<Self, ExpError> {
        Ok(FaultState {
            spec: spec.clone(),
            policy: default_recovery_registry().build(&spec.recovery, spec)?,
            rng: fault_rng(seed),
            displaced: Vec::new(),
            report: FaultReport::default(),
        })
    }

    /// Takes `task`'s pending displacement, if it has one.
    fn take_displaced(&mut self, task: TaskId) -> Option<SimTime> {
        let i = self.displaced.iter().position(|&(t, _)| t == task)?;
        Some(self.displaced.swap_remove(i).1)
    }
}

/// Run-wide memory-gate state: the shared [`MemorySubsystem`], the
/// arbitration policy that grants its slots, and the accumulating
/// [`MemoryReport`]. Present only when the scenario carries a *contended*
/// [`MemorySpec`]; uncontended runs never touch it, so the legacy model
/// stays bit-identical.
struct MemState {
    /// The bandwidth slots and their queue of waiters.
    sub: MemorySubsystem,
    policy: Box<dyn ArbitrationPolicy>,
    /// Demand of queued requests that a core failure cancelled: requested,
    /// never serviced. Closes the memory ledger checked at the end of a
    /// debug run; kept out of the report so serialized reports do not
    /// change.
    cancelled: SimDuration,
    report: MemoryReport,
}

impl MemState {
    /// Fresh gate state with the arbitration policy `spec` names (an
    /// unknown key fails). `spec` contends: at least one slot.
    fn new(spec: &MemorySpec) -> Result<Self, ExpError> {
        Ok(MemState {
            policy: default_arbitration_registry().build(&spec.arbitration, spec)?,
            sub: MemorySubsystem::new(spec.slots as usize),
            cancelled: SimDuration::ZERO,
            report: MemoryReport {
                slots: spec.slots,
                arbitration: spec.arbitration.clone(),
                ..MemoryReport::default()
            },
        })
    }
}

/// Retry penalty charged when a simulated DVFS settle write fails
/// transiently: the settle re-fires this much later. Deterministic and
/// deliberately small — the interesting effect is the *classification*
/// (recovered vs exhausted), not the delay model.
const RECONFIG_RETRY_DELAY: SimDuration = SimDuration::from_us(1);

/// The reusable buffers an [`Engine`] runs on. The caller resets
/// `events`; the engine clears the rest.
#[derive(Debug, Default)]
pub(crate) struct EngineBufs {
    pub(crate) events: EventQueue<Ev>,
    pub(crate) tasks: Vec<TaskCtl>,
    pub(crate) idle: IdleIndex,
}

/// Per-thread closed-run buffers reused across runs: suite workers batch
/// many small scenarios, and re-growing the event heap, dependence
/// counters and idle index for every one of them is measurable waste.
/// Taken from a thread-local by [`run_with_scratch`] and handed back after
/// the run; the per-run warm-up allocation therefore happens once per
/// worker thread, not once per scenario.
#[derive(Debug, Default)]
struct EngineScratch {
    bufs: EngineBufs,
    indegree: Vec<u32>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<EngineScratch> =
        std::cell::RefCell::new(EngineScratch::default());
}

/// Runs `graph` as a closed run of `spec` on the thread's scratch buffers.
///
/// A run without faults or memory contention cannot fail; otherwise it
/// fails cleanly when the recovery or arbitration key is unknown or the
/// injected schedule stalls the machine.
fn run_with_scratch(
    spec: &ScenarioSpec,
    resolved: ResolvedPolicies,
    graph: &TaskGraph,
    workload: &str,
) -> Result<(RunReport, Trace), ExpError> {
    SCRATCH.with(|cell| {
        let EngineScratch {
            mut bufs,
            mut indegree,
        } = cell.take();
        // Reused buffers keep their allocation from the previous run on
        // this thread; the queue grows to the pending depth, not the graph.
        bufs.events.reset();
        let view = GraphView::from_graph(graph);
        indegree.clear();
        indegree.extend(view.pred_counts());
        let source = |estimator: Box<dyn CriticalityEstimator>| Closed {
            graph,
            est_static: estimator.is_annotation_static(),
            estimator,
            view,
            indegree,
            costs: spec.costs,
            submitted: 0,
            done: 0,
        };
        let mut engine = Engine::new(spec, resolved, source, bufs)?;
        let result = engine.run(workload);
        let Engine {
            events,
            tasks,
            idle,
            src: Closed { indegree, .. },
            trace,
            ..
        } = engine;
        cell.replace(EngineScratch {
            bufs: EngineBufs {
                events,
                tasks,
                idle,
            },
            indegree,
        });
        result.map(|report| (report, trace))
    })
}

/// The discrete-event executor: a [`ScenarioSpec`] fully describes the
/// run (machine, workload, policies, seed), and
/// [`run_spec`](Self::run_spec) resolves its keys through a
/// [`PolicyRegistries`] and simulates it. As an
/// [`Executor`](crate::exp::Executor) it runs a
/// [`Scenario`](crate::exp::Scenario), the spec bound to its registries.
#[derive(Debug, Default)]
pub struct SimExecutor;

impl SimExecutor {
    /// Executes a scenario spec end to end: resolves its policy keys
    /// through `registries`, generates its workload, simulates, reports.
    pub fn run_spec(
        &self,
        spec: &ScenarioSpec,
        registries: &PolicyRegistries,
    ) -> Result<(RunReport, Trace), ExpError> {
        spec.validate()?;
        // Graph and report label come from one workload load, so a store
        // cell can never name a different revision of an unpinned TDG
        // file than the graph that actually ran.
        let (graph, label) = spec.workload.build_labeled_graph()?;
        let (mut report, trace) =
            run_with_scratch(spec, registries.resolve(spec)?, &graph, &label)?;
        // Faulted cells also run their fault-free twin (same spec, no
        // schedule) so the report carries makespan degradation — the
        // number the robustness tables plot.
        if report.fault.is_some() {
            let twin = ScenarioSpec {
                faults: None,
                trace: TraceMode::Off,
                ..spec.clone()
            };
            let (twin, _) = run_with_scratch(&twin, registries.resolve(&twin)?, &graph, &label)?;
            let faulted_ps = report.exec_time.as_ps();
            if let Some(fault) = report.fault.as_mut() {
                if twin.exec_time.as_ps() > 0 {
                    fault.makespan_degradation = faulted_ps as f64 / twin.exec_time.as_ps() as f64;
                }
            }
        }
        Ok((report, trace))
    }
}

/// The closed system's source: one graph, submitted task by task by the
/// master thread in program order. A task becomes ready once it is
/// submitted and its predecessors completed; the estimator classifies it
/// at that moment, over the graph submitted so far.
struct Closed<'g> {
    graph: &'g TaskGraph,
    estimator: Box<dyn CriticalityEstimator>,
    /// The estimator's `classify_level` is the task type's static
    /// annotation (cached once — `classify` then reads the graph's level
    /// column instead of making a virtual call per ready task).
    est_static: bool,
    /// The columns of `graph` the dispatch path reads.
    view: GraphView<'g>,
    /// Remaining unfinished predecessors per task.
    indegree: Vec<u32>,
    costs: RuntimeCosts,
    /// Tasks `0..submitted` are visible to the runtime.
    submitted: usize,
    done: usize,
}

impl Closed<'_> {
    /// Cost of submitting `task` on the master thread.
    fn submission_cost(&mut self, task: TaskId) -> SimDuration {
        let visits = self.estimator.on_submit(self.graph, task);
        self.costs.task_creation + self.costs.per_bl_visit.saturating_mul(visits)
    }

    /// Criticality level of a task becoming ready. Annotation-static
    /// estimators (the `+SA` configurations) equal the graph's level
    /// column by definition; dynamic ones (bottom-level) and the
    /// always-zero baseline keep the virtual call.
    fn classify(&mut self, task: TaskId) -> u8 {
        if self.est_static {
            self.view.crit_level(task)
        } else {
            self.estimator.classify_level(self.graph, task)
        }
    }
}

impl<'g> Source<'g> for Closed<'g> {
    fn first_submit(&mut self, ready: &mut Ready<'_>) -> Option<SimTime> {
        let n = self.graph.num_tasks();
        ready.reuse(0..n);
        (n > 0).then(|| SimTime::ZERO + self.submission_cost(TaskId(0)))
    }

    fn submit(&mut self, now: SimTime, ready: &mut Ready<'_>) -> Option<SimTime> {
        let i = self.submitted;
        self.submitted += 1;
        if self.indegree[i] == 0 {
            let task = TaskId(i as u32);
            let level = self.classify(task);
            ready.push(task, level);
        }
        (self.submitted < self.graph.num_tasks())
            .then(|| now + self.submission_cost(TaskId(self.submitted as u32)))
    }

    #[inline]
    fn profile(&self, task: TaskId) -> &'g ExecProfile {
        self.view.profile(task)
    }

    fn level(&mut self, task: TaskId) -> u8 {
        self.classify(task)
    }

    fn complete(&mut self, task: TaskId, _now: SimTime, ready: &mut Ready<'_>) {
        self.done += 1;
        self.estimator.on_complete(self.graph, task);
        // The successor slice borrows the graph, not `self`, so
        // `classify` can borrow `self` mutably inside the walk.
        for &s in self.view.succs(task) {
            let d = &mut self.indegree[s.index()];
            debug_assert!(*d > 0, "indegree underflow at {s}");
            *d -= 1;
            if *d == 0 && s.index() < self.submitted {
                let level = self.classify(s);
                ready.push(s, level);
            }
        }
    }

    #[inline]
    fn pending(&self) -> bool {
        self.done < self.graph.num_tasks()
    }

    fn progress(&self) -> String {
        format!(
            "{}/{} tasks done, {} submitted",
            self.done,
            self.graph.num_tasks(),
            self.submitted
        )
    }

    fn finish(&mut self, _end: SimTime) -> Option<ServiceReport> {
        None
    }
}

/// The engine: one simulated machine running the paper's runtime over the
/// tasks a [`Source`] releases.
pub(crate) struct Engine<'g, S> {
    spec: &'g ScenarioSpec,
    src: S,
    machine: Machine,
    policy: Box<dyn SchedulerPolicy>,
    /// Tasks in the policy's ready queues: up on every enqueue, down on
    /// every dequeue (shed discards included), so dispatch skips its walk
    /// without asking the policy. Debug builds check it against
    /// `policy.len()` after every dispatch.
    queued: usize,
    accel: Box<dyn AccelManager>,
    events: EventQueue<Ev>,
    cores: Vec<CoreCtl<'g>>,
    /// Available (idle/halted) cores in dispatch order; maintained
    /// incrementally so dispatch never builds or sorts a candidate list.
    idle: IdleIndex,
    /// Cores that entered the idle loop since the last dispatch: their
    /// decel debounce / halt timers still need arming.
    new_idle: Vec<u32>,
    /// One record per task id, indexed by id.
    tasks: Vec<TaskCtl>,
    counters: Counters,
    trace: Trace,
    /// Time of the last processed event, where the run ends: a closed
    /// run's last completion, or later in an open run whose trailing
    /// arrivals were dropped.
    horizon: SimTime,
    /// Fault-injection bookkeeping; `None` on a perfect machine.
    fault: Option<FaultState>,
    /// Memory-gate bookkeeping; `None` on the uncontended machine.
    mem: Option<MemState>,
}

impl<'g, S: Source<'g>> Engine<'g, S> {
    /// The engine for `spec`, on the machine and policies of `resolved`;
    /// `source` builds the task source from the resolved criticality
    /// estimator. Fails when the spec's recovery or arbitration key is
    /// unknown.
    pub(crate) fn new(
        spec: &'g ScenarioSpec,
        resolved: ResolvedPolicies,
        source: impl FnOnce(Box<dyn CriticalityEstimator>) -> S,
        bufs: EngineBufs,
    ) -> Result<Self, ExpError> {
        let n_cores = spec.machine.num_cores;
        assert!(
            spec.fast_cores <= n_cores,
            "fast_cores {} exceeds machine size {n_cores}",
            spec.fast_cores
        );
        let fault = match &spec.faults {
            Some(f) => Some(FaultState::new(f, spec.seed)?),
            None => None,
        };
        // An unlimited-slot spec is the uncontended model: no gate.
        let mem = match spec.memory.as_ref().filter(|m| !m.is_noop()) {
            Some(m) => Some(MemState::new(m)?),
            None => None,
        };

        let ResolvedPolicies {
            policy,
            estimator,
            accel,
            machine,
            is_fast_static,
            prefer_fast,
        } = resolved;

        let EngineBufs {
            events,
            mut tasks,
            mut idle,
        } = bufs;
        tasks.clear();
        idle.reset(n_cores, prefer_fast, &is_fast_static);

        Ok(Engine {
            spec,
            src: source(estimator),
            machine,
            policy,
            queued: 0,
            accel,
            events,
            cores: (0..n_cores).map(|_| CoreCtl::default()).collect(),
            idle,
            new_idle: (0..n_cores as u32).collect(),
            tasks,
            counters: Counters::default(),
            trace: Trace::with_mode(spec.trace),
            horizon: SimTime::ZERO,
            fault,
            mem,
        })
    }

    /// Lends the source the ready queues and per-task tables for one hook.
    #[inline]
    fn with_ready<R>(&mut self, hook: impl FnOnce(&mut S, &mut Ready<'_>) -> R) -> R {
        let mut ready = Ready {
            policy: self.policy.as_mut(),
            queued: &mut self.queued,
            tasks: &mut self.tasks,
        };
        hook(&mut self.src, &mut ready)
    }

    /// Runs until the source has nothing outstanding and reports.
    /// `workload` is the report's label.
    pub(crate) fn run(&mut self, workload: &str) -> Result<RunReport, ExpError> {
        // Controller initialization (TurboMode boots with budget assigned).
        let init = self.accel.on_init(&mut self.machine, SimTime::ZERO);
        self.push_settles(&init);

        if let Some(at) = self.with_ready(|src, ready| src.first_submit(ready)) {
            self.events.push(at, Ev::Submit);
        }

        // The injected fault schedule rides the ordinary event queue.
        if let Some(fs) = &self.fault {
            for f in &fs.spec.core_failures {
                let at = SimTime::ZERO + f.at;
                let core = f.core as u32;
                let permanent = f.recover_after.is_none();
                self.events.push(at, Ev::CoreFail { core, permanent });
                if let Some(r) = f.recover_after {
                    self.events.push(at + r, Ev::CoreRecover { core });
                }
            }
        }

        while self.src.pending() {
            let Some((now, ev)) = self.events.pop() else {
                let ready = self.queued;
                if self.fault.is_some() {
                    // An exhausted queue with work remaining is a *clean*
                    // outcome under fault injection: the schedule removed
                    // the capacity the rest of the run needed.
                    let dead = self
                        .cores
                        .iter()
                        .filter(|c| matches!(c.run, CoreRun::Failed { .. }))
                        .count();
                    return Err(ExpError::Stalled(format!(
                        "fault schedule removed the capacity the run needed: \
                         {}, {ready} ready, {dead} core(s) failed",
                        self.src.progress()
                    )));
                }
                panic!(
                    "simulation deadlock: {}, queue len {ready}",
                    self.src.progress()
                );
            };
            self.horizon = now;
            self.counters.sim_events += 1;
            self.handle(now, ev);
            self.dispatch(now);
        }

        let end = self.horizon;
        let service = self.src.finish(end);
        // Close the capacity ledger: cores still failed at run end lost
        // the remainder of the window.
        let fault = self.fault.take().map(|mut fs| {
            for c in &self.cores {
                if let CoreRun::Failed { since } = c.run {
                    fs.report.capacity_lost += end.saturating_since(since);
                }
            }
            fs.report
        });
        let memory = self.mem.take().map(|ms| {
            if cfg!(debug_assertions) {
                // Every request is serviced (its wait included), cancelled
                // by a core failure, or still queued behind shed work.
                let waiting: u64 = ms.sub.waiters().iter().map(|r| r.mem_ps).sum();
                let r = &ms.report;
                assert_eq!(
                    r.serviced + ms.cancelled + SimDuration::from_ps(waiting),
                    r.demand + r.total_wait,
                    "memory ledger: serviced + cancelled + queued != demand + wait"
                );
            }
            ms.report
        });
        self.machine.finish(end);
        if cfg!(debug_assertions) {
            // Every core's timeline covers exactly [0, end], so no core is
            // busy for longer than the run.
            for c in self.machine.cores() {
                assert_eq!(
                    c.timeline().total(),
                    end.since(SimTime::ZERO),
                    "{}: activity timeline does not cover [0, end]",
                    c.id()
                );
            }
        }
        let energy = integrate_machine(&self.machine, end.since(SimTime::ZERO), &self.spec.power);
        let stats = self.accel.stats();
        let agg_core_time = end.as_ps().saturating_mul(self.machine.num_cores() as u64);
        Ok(RunReport {
            label: self.spec.name.clone(),
            workload: workload.to_string(),
            fast_cores: self.spec.fast_cores,
            exec_time: end.since(SimTime::ZERO),
            energy,
            counters: self.counters.clone(),
            lock_waits: stats.lock_waits,
            reconfig_latencies: stats.latencies,
            reconfig_overhead: stats.overhead_total,
            reconfig_time_share: if agg_core_time == 0 {
                0.0
            } else {
                stats.overhead_total.as_ps() as f64 / agg_core_time as f64
            },
            core_utilization: self
                .machine
                .cores()
                .map(|c| c.timeline().utilization())
                .collect(),
            tasks: self.counters.tasks_completed as usize,
            // Counters/Full runs tally every event kind; surface the
            // tallies so stored sweep cells carry them for dashboards.
            trace_counts: self.trace.is_enabled().then(|| *self.trace.counts()),
            // The simulator always runs the spec's machine verbatim.
            effective_cores: None,
            service,
            fault,
            memory,
        })
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Submit => {
                if let Some(at) = self.with_ready(|src, ready| src.submit(now, ready)) {
                    self.events.push(at, Ev::Submit);
                }
            }
            Ev::TaskBegin { core, epoch } => self.task_begin(CoreId(core), epoch, now),
            Ev::Milestone { core, epoch, gen } => self.milestone(CoreId(core), epoch, gen, now),
            Ev::CoreFree { core, epoch } => self.core_free(CoreId(core), epoch, now),
            Ev::DvfsSettle { core } => self.dvfs_settle(CoreId(core), now),
            Ev::IdleHalt { core, epoch } => self.idle_halt(CoreId(core), epoch, now),
            Ev::IdleDecel { core, epoch } => self.idle_decel(CoreId(core), epoch, now),
            Ev::CoreFail { core, permanent } => self.core_fail(CoreId(core), permanent, now),
            Ev::CoreRecover { core } => self.core_recover(CoreId(core), now),
            Ev::MemRelease { core, epoch } => self.mem_release(CoreId(core), epoch, now),
        }
    }

    /// Fail-stops a core: evict it from the idle index, cancel its
    /// pending events (epoch bump), and hand any in-flight task to the
    /// recovery policy. The acceleration manager is *not* notified — a
    /// dead accelerated core keeps its budget allocated, which is part of
    /// the capacity the failure costs.
    fn core_fail(&mut self, core: CoreId, permanent: bool, now: SimTime) {
        let i = core.index();
        let ctl = &mut self.cores[i];
        if matches!(ctl.run, CoreRun::Failed { .. }) {
            return; // overlapping windows: already down
        }
        let fs = self.fault.as_mut().expect("fault state present");
        fs.report.injected += 1;
        ctl.epoch += 1;
        let was = std::mem::replace(&mut ctl.run, CoreRun::Failed { since: now });
        let held_slot = std::mem::take(&mut ctl.mem_slot);
        self.machine.set_activity(core, now, Activity::Halted);

        // An in-flight task (prologue, body, a blocked body, or parked at
        // the memory gate) dies with the core; a task in epilogue already
        // completed.
        let displaced = match was {
            CoreRun::Idle | CoreRun::Halted => {
                self.idle.remove(core);
                None
            }
            CoreRun::Prologue { task }
            | CoreRun::Running { task, .. }
            | CoreRun::MemWait { task, .. } => Some(task),
            CoreRun::Epilogue | CoreRun::Failed { .. } => None,
        };

        // A failed core frees its memory-gate state before displacement
        // handling, so a freed slot flows to waiters even when the
        // displaced work was already shed: a held bandwidth slot is
        // released (a waiter may be granted right now), a queued request
        // is cancelled.
        if let Some(ms) = self.mem.as_mut() {
            if held_slot {
                ms.sub.release();
                self.mem_grant(now);
            } else if matches!(was, CoreRun::MemWait { .. }) {
                if let Some(req) = ms.sub.cancel_core(core) {
                    ms.cancelled += SimDuration::from_ps(req.mem_ps);
                }
            }
        }

        let Some(task) = displaced else {
            return;
        };
        if self.src.is_shed(task) {
            // Its work was already shed (a sibling's failure): the
            // displaced task just evaporates with it.
            return;
        }
        let critical = self.tasks[task.index()].crit;
        let fs = self.fault.as_mut().expect("fault state present");
        fs.report.displaced += 1;
        let action = fs.policy.on_displaced(&RecoveryCtx {
            now,
            failed_core: i,
            critical,
            permanent,
            degraded: true,
        });
        let prefer_fast = match action {
            RecoveryAction::Requeue { prefer_fast } => prefer_fast,
            // A source that cannot shed (a closed DAG would deadlock
            // without the node) requeues the task plainly instead.
            RecoveryAction::Shed => {
                if self.src.shed(task) {
                    fs.report.shed += 1;
                    return;
                }
                false
            }
        };
        fs.displaced.push((task, now));
        let mut level = self.src.level(task);
        if prefer_fast && level == 0 {
            level = 1;
            self.tasks[task.index()].crit = true;
        }
        self.policy.enqueue(task, level);
        self.queued += 1;
    }

    /// A failed core's recovery window closed: it rejoins the idle index
    /// and can take work again. Time spent down is charged to the
    /// capacity ledger.
    fn core_recover(&mut self, core: CoreId, now: SimTime) {
        let ctl = &mut self.cores[core.index()];
        let CoreRun::Failed { since } = ctl.run else {
            return;
        };
        let fs = self.fault.as_mut().expect("fault state present");
        fs.report.recovered_cores += 1;
        fs.report.capacity_lost += now.saturating_since(since);
        ctl.epoch += 1;
        ctl.run = CoreRun::Idle;
        self.idle.push(core);
        self.new_idle.push(core.0);
        self.machine.set_activity(core, now, Activity::Idle);
    }

    fn push_settles(&mut self, effects: &AccelEffects) {
        // The paper's safety property (§III-A): the *committed* fast-core
        // count — cores whose target level is fast — never exceeds the
        // power budget. Transient settled-level excursions bounded by the
        // transition latency can still occur during swaps (exactly as in
        // gem5's DVFS model, where a superseded down-ramp never dips); the
        // commitment invariant is the one reconfiguration serialization
        // protects.
        debug_assert!(
            self.machine.accelerated_count() <= self.spec.fast_cores,
            "committed budget exceeded: {} > {}",
            self.machine.accelerated_count(),
            self.spec.fast_cores
        );
        for &(at, core) in &effects.settles {
            self.events.push(at, Ev::DvfsSettle { core: core.0 });
        }
    }

    /// Assign ready tasks to idle cores. CATS configurations offer idle
    /// *fast* cores first (so critical tasks land on them); FIFO serves
    /// cores in the order they went idle — the blind assignment the paper's
    /// baseline suffers from. The walk follows the persistent [`IdleIndex`]
    /// (same order the old candidate sort produced); assigning a core
    /// unlinks it, and the outer loop re-walks until a full pass assigns
    /// nothing — a slow core may only steal critical work once the pass
    /// that drained the last idle fast core is over, exactly as before.
    fn dispatch(&mut self, now: SimTime) {
        // An empty ready queue cannot serve anyone: skip the walk entirely
        // (the common case right after a milestone event), and end it as
        // soon as the queue drains.
        while self.queued > 0 {
            let mut assigned = false;
            let mut cur = self.idle.first();
            while let Some(core) = cur.filter(|_| self.queued > 0) {
                // Capture the successor first: `assign` unlinks `core`.
                let nxt = self.idle.next_after(core);
                let ctx = self.idle.dispatch_ctx(core);
                if let Some(task) = self.policy.dequeue(core, ctx, &mut self.counters) {
                    self.queued -= 1;
                    assigned = true;
                    if self.src.is_shed(task) {
                        // Shed work still queued: discard it, with any
                        // displacement it was requeued after, and let the
                        // same core draw again.
                        if let Some(fs) = self.fault.as_mut() {
                            fs.take_displaced(task);
                        }
                        continue;
                    }
                    self.assign(core, task, now);
                }
                cur = nxt;
            }
            if !assigned {
                break;
            }
        }
        debug_assert_eq!(
            self.queued,
            self.policy.len(),
            "ready count drifted from the policy's queues"
        );
        if cfg!(debug_assertions) {
            self.idle.check(&self.cores);
        }
        // Cores that entered the idle loop since the last dispatch and are
        // still idle: arm the CATA deceleration debounce (§V-B deceleration
        // fires only if the core is *still* idle after the delay) and the
        // OS halt timer if configured. Timers are pushed in core order,
        // which fixes the order of their equal-time ties.
        if self.new_idle.is_empty() {
            return;
        }
        let mut new_idle = std::mem::take(&mut self.new_idle);
        new_idle.sort_unstable();
        for &core in &new_idle {
            let c = &self.cores[core as usize];
            if !matches!(c.run, CoreRun::Idle) {
                continue;
            }
            let epoch = c.epoch;
            self.events.push(
                now + self.spec.idle_decel_delay,
                Ev::IdleDecel { core, epoch },
            );
            if let Some(delay) = self.spec.idle_to_halt {
                self.events.push(now + delay, Ev::IdleHalt { core, epoch });
            }
        }
        new_idle.clear();
        self.new_idle = new_idle;
    }

    fn assign(&mut self, core: CoreId, task: TaskId, now: SimTime) {
        // A displaced task landing on a survivor is a re-execution; the
        // displacement→re-dispatch gap is its recovery latency.
        if let Some(fs) = self.fault.as_mut() {
            if let Some(at) = fs.take_displaced(task) {
                fs.report.reexecuted += 1;
                fs.report.recovery_latency.record(now.saturating_since(at));
            }
        }
        self.idle.remove(core);
        self.src.on_dispatch(task, now);
        let was_halted = matches!(self.cores[core.index()].run, CoreRun::Halted);
        let ctl = &mut self.cores[core.index()];
        ctl.epoch += 1;
        let epoch = ctl.epoch;
        ctl.run = CoreRun::Prologue { task };
        self.machine.set_activity(core, now, Activity::Busy);

        let mut t = now;
        if was_halted {
            self.trace.record(now, TraceEvent::Wake { core });
            let e = self
                .accel
                .on_core_wake(core, now, &mut self.machine, &mut self.counters);
            self.push_settles(&e);
            t += self.spec.wake_latency;
        }
        t += self.spec.costs.dispatch;

        let critical = self.tasks[task.index()].crit;
        let e = self
            .accel
            .on_task_start(core, critical, t, &mut self.machine, &mut self.counters);
        self.push_settles(&e);
        let begin = e.resume_or(t);
        self.events.push(
            begin,
            Ev::TaskBegin {
                core: core.0,
                epoch,
            },
        );
    }

    fn task_begin(&mut self, core: CoreId, epoch: u64, now: SimTime) {
        let ctl = &mut self.cores[core.index()];
        if ctl.epoch != epoch {
            return; // stale
        }
        let CoreRun::Prologue { task } = ctl.run else {
            return;
        };
        self.trace.record(
            now,
            TraceEvent::TaskStart {
                core,
                task: task.0,
                critical: self.tasks[task.index()].crit,
            },
        );
        self.gate_or_begin(core, task, now);
    }

    /// Routes a task about to execute through the shared-memory gate:
    /// with no contended subsystem (or no memory demand) the body begins
    /// immediately; otherwise the task acquires a bandwidth slot or parks
    /// in [`CoreRun::MemWait`] until arbitration grants one. The slot is
    /// held for the task's `mem_ps` of *wall* time (memory time is
    /// frequency-invariant) while the body runs concurrently.
    fn gate_or_begin(&mut self, core: CoreId, task: TaskId, now: SimTime) {
        let mem_ps = match self.mem {
            Some(_) => self.src.profile(task).mem_ps,
            None => 0,
        };
        if mem_ps == 0 {
            self.begin_body(core, task, now);
            return;
        }
        let crit = self.tasks[task.index()].crit;
        let ms = self.mem.as_mut().expect("gate only runs contended");
        ms.report.requests += 1;
        ms.report.demand += SimDuration::from_ps(mem_ps);
        if crit {
            ms.report.crit_requests += 1;
        }
        let ctl = &mut self.cores[core.index()];
        if ms.sub.try_acquire() {
            ctl.mem_slot = true;
            ms.report.serviced += SimDuration::from_ps(mem_ps);
            let epoch = ctl.epoch;
            self.events.push(
                now + SimDuration::from_ps(mem_ps),
                Ev::MemRelease {
                    core: core.0,
                    epoch,
                },
            );
            self.begin_body(core, task, now);
        } else {
            ms.sub.enqueue(core, u8::from(crit), mem_ps);
            ms.report.waited += 1;
            ctl.run = CoreRun::MemWait { task, since: now };
        }
    }

    /// Starts the task body on `core` (prologue finished and, when
    /// contended, the memory gate passed).
    fn begin_body(&mut self, core: CoreId, task: TaskId, now: SimTime) {
        let epoch = self.cores[core.index()].epoch;
        let rt = RunningTask::start(
            self.src.profile(task),
            now,
            self.machine.core(core).frequency(),
        );
        self.schedule_milestone(core, epoch, &rt);
        self.cores[core.index()].run = CoreRun::Running { task, rt };
    }

    /// A granted task's memory hold expired: free the slot and let the
    /// arbitration policy hand it to a waiter. Stale releases (the core
    /// failed, bumping its epoch, or no longer holds) are ignored.
    fn mem_release(&mut self, core: CoreId, epoch: u64, now: SimTime) {
        let ctl = &mut self.cores[core.index()];
        if ctl.epoch != epoch || !ctl.mem_slot {
            return;
        }
        ctl.mem_slot = false;
        let ms = self.mem.as_mut().expect("gate only runs contended");
        ms.sub.release();
        self.mem_grant(now);
    }

    /// Drains freed bandwidth slots into waiting cores — one arbitration
    /// pick per free slot — recording each granted waiter's queueing
    /// delay and starting its parked body.
    fn mem_grant(&mut self, now: SimTime) {
        loop {
            let Some(ms) = self.mem.as_mut() else {
                return;
            };
            let Some(req) = ms.sub.grant(ms.policy.as_mut()) else {
                return;
            };
            let core = req.core;
            let ctl = &mut self.cores[core.index()];
            let CoreRun::MemWait { task, since } = ctl.run else {
                debug_assert!(false, "granted {core} is not waiting on memory");
                continue;
            };
            let wait = now.saturating_since(since);
            ms.report.total_wait += wait;
            ms.report.max_wait = ms.report.max_wait.max(wait);
            if req.crit_level > 0 {
                ms.report.crit_wait += wait;
            }
            ms.report.serviced += wait + SimDuration::from_ps(req.mem_ps);
            ctl.mem_slot = true;
            let epoch = ctl.epoch;
            self.events.push(
                now + SimDuration::from_ps(req.mem_ps),
                Ev::MemRelease {
                    core: core.0,
                    epoch,
                },
            );
            self.begin_body(core, task, now);
        }
    }

    fn schedule_milestone(&mut self, core: CoreId, epoch: u64, rt: &RunningTask<'_>) {
        if let Some(m) = rt.next_milestone() {
            self.events.push(
                m.time(),
                Ev::Milestone {
                    core: core.0,
                    epoch,
                    gen: rt.generation(),
                },
            );
        }
    }

    fn milestone(&mut self, core: CoreId, epoch: u64, gen: u64, now: SimTime) {
        let ctl = &mut self.cores[core.index()];
        if ctl.epoch != epoch {
            return;
        }
        let CoreRun::Running { task, ref mut rt } = ctl.run else {
            return;
        };
        if rt.generation() != gen {
            return; // superseded by a frequency change
        }
        match rt.advance_to(now) {
            None => {
                // Rounding left the milestone infinitesimally ahead;
                // re-schedule from the refreshed projection. The progress
                // model guarantees the new time is strictly later (a
                // sub-picosecond residue counts as reached), so this cannot
                // livelock.
                let rt2 = *rt;
                if let Some(m) = rt2.next_milestone() {
                    debug_assert!(m.time() > now, "milestone did not advance");
                }
                self.schedule_milestone(core, epoch, &rt2);
            }
            Some(Milestone::Completion(_)) => self.complete(core, task, now),
            Some(Milestone::BlockStart(_)) => {
                let rt2 = *rt;
                self.machine.set_activity(core, now, Activity::Halted);
                self.counters.halts += 1;
                self.trace.record(now, TraceEvent::Halt { core });
                let e = self
                    .accel
                    .on_core_halt(core, now, &mut self.machine, &mut self.counters);
                self.push_settles(&e);
                self.schedule_milestone(core, epoch, &rt2);
            }
            Some(Milestone::BlockEnd(_)) => {
                let rt2 = *rt;
                self.machine.set_activity(core, now, Activity::Busy);
                self.trace.record(now, TraceEvent::Wake { core });
                let e = self
                    .accel
                    .on_core_wake(core, now, &mut self.machine, &mut self.counters);
                self.push_settles(&e);
                self.schedule_milestone(core, epoch, &rt2);
            }
        }
    }

    /// Draws a transient fault for a completing `task`: the completion is
    /// discarded and the body re-executes in place, at most `max_retries`
    /// times per task (a p=1 schedule still terminates). One RNG draw per
    /// eligible completion, in event order — bit-identical per seed.
    fn transient_fault(&mut self, task: TaskId) -> bool {
        let Some(fs) = self.fault.as_mut() else {
            return false;
        };
        let retries = &mut self.tasks[task.index()].retries;
        if fs.spec.task_fault_p > 0.0
            && *retries < fs.spec.max_retries
            && fs.rng.next_unit() < fs.spec.task_fault_p
        {
            *retries += 1;
            fs.report.task_faults += 1;
            fs.report.reexecuted += 1;
            return true;
        }
        false
    }

    fn complete(&mut self, core: CoreId, task: TaskId, now: SimTime) {
        // Shed work still ends on its core, but its completion is void:
        // no re-execution, no successors.
        let shed = self.src.is_shed(task);
        if !shed && self.transient_fault(task) {
            // The re-execution re-demands memory, so it routes back
            // through the gate like any fresh body (its earlier slot
            // hold expired at `begin + mem_ps`, before completion).
            self.gate_or_begin(core, task, now);
            return;
        }
        self.trace
            .record(now, TraceEvent::TaskEnd { core, task: task.0 });
        self.counters.tasks_completed += 1;
        if !shed {
            self.with_ready(|src, ready| src.complete(task, now, ready));
        }

        let epoch = self.cores[core.index()].epoch;
        self.cores[core.index()].run = CoreRun::Epilogue;
        let e = self
            .accel
            .on_task_end(core, now, &mut self.machine, &mut self.counters);
        self.push_settles(&e);
        self.events.push(
            e.resume_or(now),
            Ev::CoreFree {
                core: core.0,
                epoch,
            },
        );
    }

    fn core_free(&mut self, core: CoreId, epoch: u64, now: SimTime) {
        let ctl = &mut self.cores[core.index()];
        if ctl.epoch != epoch {
            return;
        }
        debug_assert!(matches!(ctl.run, CoreRun::Epilogue));
        ctl.run = CoreRun::Idle;
        // Cores re-enter the idle index in completion order — the same
        // FIFO "longest-idle pops first" order the old idle stamps encoded.
        self.idle.push(core);
        self.new_idle.push(core.0);
        self.machine.set_activity(core, now, Activity::Idle);
        // The dispatch loop after this event hands out new work (or arms the
        // idle-halt timer).
    }

    fn dvfs_settle(&mut self, core: CoreId, now: SimTime) {
        // Transient reconfiguration-write failure: the settle re-fires
        // after a retry penalty, at most `max_retries` times; exhausted
        // writes are dropped and the core degrades to its current class.
        if let Some(fs) = self.fault.as_mut() {
            if fs.spec.reconfig_fail_p > 0.0 {
                let retries = &mut self.cores[core.index()].settle_retries;
                if fs.rng.next_unit() < fs.spec.reconfig_fail_p {
                    fs.report.reconfig_faults += 1;
                    if *retries < fs.spec.max_retries {
                        *retries += 1;
                        self.events
                            .push(now + RECONFIG_RETRY_DELAY, Ev::DvfsSettle { core: core.0 });
                    } else {
                        *retries = 0;
                        fs.report.reconfig_exhausted += 1;
                    }
                    return;
                }
                if *retries > 0 {
                    *retries = 0;
                    fs.report.reconfig_recovered += 1;
                }
            }
        }
        if let Some(level) = self.machine.settle(core, now) {
            self.trace
                .record(now, TraceEvent::ReconfigApplied { core, level });
            let epoch = self.cores[core.index()].epoch;
            if let CoreRun::Running { ref mut rt, .. } = self.cores[core.index()].run {
                rt.set_frequency(now, level.frequency);
                let rt2 = *rt;
                self.schedule_milestone(core, epoch, &rt2);
            }
        }
    }

    fn idle_decel(&mut self, core: CoreId, epoch: u64, now: SimTime) {
        let ctl = &self.cores[core.index()];
        if ctl.epoch != epoch || !matches!(ctl.run, CoreRun::Idle | CoreRun::Halted) {
            return; // got work (or a new idle period) in the meantime
        }
        let e = self
            .accel
            .on_core_idle(core, now, &mut self.machine, &mut self.counters);
        self.push_settles(&e);
    }

    fn idle_halt(&mut self, core: CoreId, epoch: u64, now: SimTime) {
        let ctl = &mut self.cores[core.index()];
        if ctl.epoch != epoch || !matches!(ctl.run, CoreRun::Idle) {
            return;
        }
        ctl.run = CoreRun::Halted;
        self.machine.set_activity(core, now, Activity::Halted);
        self.counters.halts += 1;
        self.trace.record(now, TraceEvent::Halt { core });
        let e = self
            .accel
            .on_core_halt(core, now, &mut self.machine, &mut self.counters);
        self.push_settles(&e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::registry::default_registries;
    use crate::exp::spec::{WorkloadSpec, PAPER_PRESETS};
    use cata_sim::progress::ExecProfile;

    /// A small fork-join graph: src → 8 × work (4 critical) → sink.
    fn fork_join(work_cycles: u64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let src_ty = g.add_type("src", 0);
        let crit_ty = g.add_type("crit", 1);
        let norm_ty = g.add_type("norm", 0);
        let src = g.add_task(src_ty, ExecProfile::new(1000, 0), &[]);
        let mut mids = Vec::new();
        for i in 0..8 {
            let ty = if i % 2 == 0 { crit_ty } else { norm_ty };
            // Critical tasks are 3× longer.
            let cycles = if i % 2 == 0 {
                work_cycles * 3
            } else {
                work_cycles
            };
            mids.push(g.add_task(ty, ExecProfile::new(cycles, 0), &[src]));
        }
        g.add_task(src_ty, ExecProfile::new(1000, 0), &mids);
        g
    }

    /// `preset` on a small test machine of `cores` cores, `fast` of them
    /// fast (or the power budget). The tests run hand-built graphs, so the
    /// spec's own workload is a placeholder.
    fn small(preset: &str, cores: usize, fast: usize) -> ScenarioSpec {
        ScenarioSpec::preset(preset, fast, WorkloadSpec::Chain { n: 0, cycles: 0 })
            .expect("paper preset")
            .with_small_machine(cores, fast)
    }

    /// Runs a hand-built graph under `spec` on the closed engine.
    fn run_graph(spec: &ScenarioSpec, g: &TaskGraph) -> (RunReport, Trace) {
        let resolved = default_registries()
            .resolve(spec)
            .expect("builtin keys resolve");
        run_with_scratch(spec, resolved, g, "test").expect("fault-free runs cannot fail")
    }

    fn run_cfg(spec: &ScenarioSpec, g: &TaskGraph) -> RunReport {
        run_graph(spec, g).0
    }

    /// Spec validation rejects schedules that kill every core up front;
    /// this drives the engine *below* that guard to pin the dying-machine
    /// contract: the run terminates with a clean `Stalled` error — it
    /// never hangs, never panics.
    #[test]
    fn all_cores_dead_terminates_with_stalled_error() {
        use crate::fault::{CoreFailure, FaultSpec};
        let g = fork_join(2_000_000);
        let spec = ScenarioSpec {
            faults: Some(FaultSpec {
                core_failures: (0..4)
                    .map(|core| CoreFailure {
                        core,
                        at: SimDuration::from_us(1),
                        recover_after: None,
                    })
                    .collect(),
                ..FaultSpec::default()
            }),
            ..small("FIFO", 4, 2)
        };
        let resolved = default_registries().resolve(&spec).unwrap();
        let err = run_with_scratch(&spec, resolved, &g, "dead").unwrap_err();
        assert!(
            matches!(err, ExpError::Stalled(_)),
            "want Stalled, got: {err}"
        );
        assert!(err.to_string().contains("core(s) failed"), "{err}");
    }

    #[test]
    fn fifo_executes_all_tasks() {
        let g = fork_join(2_000_000);
        let r = run_cfg(&small("FIFO", 4, 2), &g);
        assert_eq!(r.tasks, 10);
        assert_eq!(r.counters.tasks_completed, 10);
        assert!(r.exec_time > SimDuration::ZERO);
        assert!(r.energy.energy_j > 0.0);
    }

    #[test]
    fn all_six_configs_complete_identical_task_sets() {
        let g = fork_join(1_000_000);
        for preset in PAPER_PRESETS {
            let r = run_cfg(&small(preset, 4, 2), &g);
            assert_eq!(r.counters.tasks_completed, 10, "{preset} lost tasks");
        }
    }

    #[test]
    fn determinism_same_config_same_result() {
        let g = fork_join(500_000);
        let a = run_cfg(&small("CATA", 4, 2), &g);
        let b = run_cfg(&small("CATA", 4, 2), &g);
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.energy.energy_j, b.energy.energy_j);
        assert_eq!(a.counters.reconfigs_applied, b.counters.reconfigs_applied);
    }

    #[test]
    fn cata_reconfigures_and_respects_budget() {
        let g = fork_join(4_000_000);
        let (r, trace) = run_graph(&small("CATA", 4, 2).with_trace(), &g);
        assert!(r.counters.reconfigs_applied > 0, "CATA must reconfigure");
        // Replay the trace: the number of cores whose *settled* level is
        // fast never exceeds the budget at any event. (A pending
        // deceleration superseded by a re-acceleration never settles slow;
        // tracking per-core levels handles that correctly.)
        let mut fast = [false; 4];
        for rec in trace.records() {
            if let TraceEvent::ReconfigApplied { core, level } = rec.event {
                fast[core.index()] = level.frequency.as_mhz() == 2000;
                let n = fast.iter().filter(|&&f| f).count();
                assert!(n <= 2, "budget exceeded in trace at {}", rec.time);
            }
        }
    }

    #[test]
    fn rsu_is_no_slower_than_software_cata() {
        let g = fork_join(2_000_000);
        let sw = run_cfg(&small("CATA", 4, 2), &g);
        let hw = run_cfg(&small("CATA+RSU", 4, 2), &g);
        assert!(
            hw.exec_time <= sw.exec_time,
            "RSU {} slower than software {}",
            hw.exec_time,
            sw.exec_time
        );
        assert!(hw.lock_waits.is_empty(), "RSU path must not lock");
        assert!(!sw.lock_waits.is_empty(), "software path must lock");
    }

    #[test]
    fn software_cata_charges_reconfig_overhead() {
        let g = fork_join(1_000_000);
        let r = run_cfg(&small("CATA", 4, 2), &g);
        assert!(r.reconfig_overhead > SimDuration::ZERO);
        assert!(r.reconfig_time_share > 0.0);
        assert!(r.reconfig_latencies.count() > 0);
    }

    #[test]
    fn turbo_mode_halts_idle_cores() {
        let g = fork_join(2_000_000);
        let r = run_cfg(&small("TurboMode", 4, 2), &g);
        assert_eq!(r.counters.tasks_completed, 10);
        assert!(r.counters.halts > 0, "idle cores must halt under TurboMode");
    }

    #[test]
    fn blocked_tasks_halt_the_core() {
        let mut g = TaskGraph::new();
        let ty = g.add_type("io", 0);
        let p = ExecProfile::new(1_000_000, 0).with_block(0.5, SimDuration::from_us(200));
        g.add_task(ty, p, &[]);
        let r = run_cfg(&small("FIFO", 2, 1), &g);
        assert!(r.counters.halts >= 1);
        assert_eq!(r.counters.tasks_completed, 1);
    }

    #[test]
    fn more_fast_cores_is_not_slower_under_fifo() {
        let g = fork_join(4_000_000);
        let few = run_cfg(&small("FIFO", 4, 1), &g);
        let many = run_cfg(&small("FIFO", 4, 4), &g);
        assert!(many.exec_time <= few.exec_time);
    }

    #[test]
    fn empty_graph_completes_instantly() {
        let g = TaskGraph::new();
        let r = run_cfg(&small("FIFO", 4, 2), &g);
        assert_eq!(r.tasks, 0);
        assert_eq!(r.exec_time, SimDuration::ZERO);
    }

    #[test]
    fn serial_chain_runs_fast_under_cata() {
        // A pure chain: CATA should keep the single running task accelerated
        // (budget 1), beating the static 1-fast-core FIFO only when the
        // chain would otherwise land on slow cores.
        let mut g = TaskGraph::new();
        let ty = g.add_type("step", 1);
        let mut prev: Option<TaskId> = None;
        for _ in 0..6 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(g.add_task(ty, ExecProfile::new(10_000_000, 0), &deps));
        }
        let fifo = run_cfg(&small("FIFO", 4, 1), &g);
        let cata = run_cfg(&small("CATA+RSU", 4, 1), &g);
        // FIFO dispatch prefers core 0 (fast) so both are similar here, but
        // CATA must never lose by more than the reconfiguration overhead.
        let ratio = cata.exec_time.as_ps() as f64 / fifo.exec_time.as_ps() as f64;
        assert!(ratio < 1.05, "CATA chain ratio {ratio}");
    }

    #[test]
    fn utilization_is_sane() {
        let g = fork_join(2_000_000);
        let r = run_cfg(&small("FIFO", 4, 2), &g);
        for &u in &r.core_utilization {
            assert!((0.0..=1.0).contains(&u));
        }
        assert!(r.avg_utilization() > 0.0);
    }
}
