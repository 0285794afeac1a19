//! A real thread-pool CATA runtime.
//!
//! Everything else in this crate *simulates* the paper's system; this module
//! *is* one: a task runtime executing actual closures on actual threads,
//! with
//!
//! - OmpSs-style dependence tracking (explicit handles or declared
//!   `in`/`out` region accesses),
//! - a ready queue that is any [`SchedulerPolicy`] — the registry's
//!   `fifo`, `cats` or `cats-homogeneous`, or a third-party one — served
//!   to worker `i` as core `i`,
//! - the CATA acceleration algorithm (shared [`ReconfigEngine`]) applied at
//!   task start/end, driving a pluggable [`DvfsBackend`] — the real sysfs
//!   cpufreq interface on a Linux host with the `userspace` governor, or a
//!   mock elsewhere,
//! - the paper's three ways to set core speeds: [`RsmMode::Static`] runs
//!   the workers below the budget fast and never reconfigures,
//!   [`RsmMode::Software`] holds the RSM lock across the backend writes
//!   (serialized, like the cpufreq path), and [`RsmMode::RsuEmulated`]
//!   holds it only for the decision and issues writes outside (the RSU's
//!   behaviour).
//!
//! This is the "rayon tasks plus sysfs DVFS control" configuration the
//! reproduction brief calls for; on hosts without cpufreq permissions the
//! mock backend records the decisions instead.

use crate::policy::{CatsPolicy, DispatchCtx, SchedulerPolicy};
use cata_cpufreq::backend::DvfsBackend;
use cata_power::{BusyIntervals, BusyTracker, FreqClass};
use cata_rsu::engine::{Cmd, Cmds, ReconfigEngine};
use cata_sim::machine::CoreId;
use cata_sim::stats::Counters;
use cata_tdg::deps::{AccessMode, DepTracker, RegionId};
use cata_tdg::TaskId;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// How the native runtime sets core speeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsmMode {
    /// Statically heterogeneous: the workers below the budget run fast for
    /// the whole run, and neither the RSM nor the DVFS backend is touched.
    Static,
    /// Software CATA: backend writes happen *inside* the RSM critical
    /// section, serializing all reconfigurations (the paper's §III-A path).
    Software,
    /// RSU-emulated: the critical section covers only the decision; backend
    /// writes are issued after unlocking and may overlap (§III-B).
    RsuEmulated,
}

/// A handle to a spawned task, usable as a dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskHandle(usize);

/// Runtime counters (all monotonic).
#[derive(Debug, Default)]
pub struct NativeMetrics {
    /// Tasks executed to completion.
    pub tasks_run: AtomicU64,
    /// Backend frequency writes issued.
    pub reconfigs: AtomicU64,
    /// Individual write attempts that failed or timed out (every retry
    /// counts; `reconfig_exhausted` counts only writes that stayed failed
    /// after the retry budget).
    pub reconfig_faults: AtomicU64,
    /// Writes that landed after at least one failed attempt.
    pub reconfig_recovered: AtomicU64,
    /// Writes abandoned with the retry budget exhausted (e.g. no cpufreq
    /// permission): the core stays at its current frequency class
    /// (degraded, not wedged), and the runtime degrades to
    /// scheduling-only.
    pub reconfig_exhausted: AtomicU64,
    /// Critical tasks that could not be accelerated (no budget).
    pub accel_denied: AtomicU64,
    /// Nanoseconds spent holding the RSM lock.
    pub rsm_lock_ns: AtomicU64,
}

impl NativeMetrics {
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_run: self.tasks_run.load(Ordering::Relaxed),
            reconfigs: self.reconfigs.load(Ordering::Relaxed),
            reconfig_faults: self.reconfig_faults.load(Ordering::Relaxed),
            reconfig_recovered: self.reconfig_recovered.load(Ordering::Relaxed),
            reconfig_exhausted: self.reconfig_exhausted.load(Ordering::Relaxed),
            accel_denied: self.accel_denied.load(Ordering::Relaxed),
            rsm_lock_ns: self.rsm_lock_ns.load(Ordering::Relaxed),
            cross_queue_steals: 0,
        }
    }
}

/// A point-in-time copy of the runtime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Tasks executed to completion.
    pub tasks_run: u64,
    /// Backend frequency writes issued.
    pub reconfigs: u64,
    /// Failed or timed-out write *attempts* (retries included).
    pub reconfig_faults: u64,
    /// Writes that landed after at least one failed attempt.
    pub reconfig_recovered: u64,
    /// Writes abandoned after the retry budget.
    pub reconfig_exhausted: u64,
    /// Denied accelerations of critical tasks.
    pub accel_denied: u64,
    /// Nanoseconds spent holding the RSM lock.
    pub rsm_lock_ns: u64,
    /// Tasks the ready-queue policy served across its queues
    /// ([`Counters::cross_queue_steals`]).
    pub cross_queue_steals: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Waiting,
    Ready,
    Running,
    Done,
}

struct TaskEntry {
    func: Option<Box<dyn FnOnce() + Send + 'static>>,
    unfinished_preds: usize,
    succs: Vec<usize>,
    level: u8,
    state: TaskState,
}

struct SchedState {
    tasks: Vec<TaskEntry>,
    policy: Box<dyn SchedulerPolicy>,
    /// What the policy counts while serving (its cross-queue steals).
    counters: Counters,
    /// Fast workers asleep for lack of work: the CATS rule keeps a slow
    /// worker off critical work while one of them could take it.
    idle_fast: usize,
    outstanding: usize,
    shutdown: bool,
}

impl SchedState {
    /// Marks a task ready and queues it with the policy.
    fn enqueue_ready(&mut self, id: usize) {
        self.tasks[id].state = TaskState::Ready;
        let level = self.tasks[id].level;
        self.policy.enqueue(TaskId(id as u32), level);
    }
}

/// Retry discipline for DVFS backend writes. The default (`max_retries
/// == 0`) is the historical single-try behaviour: one failed write
/// degrades the core to scheduling-only immediately.
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Extra attempts after the first failed write.
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub backoff_base: std::time::Duration,
    /// Budget per individual write attempt: a write that lands but takes
    /// longer than this is classified as a fault that recovered (slow
    /// silicon is a symptom, not a success).
    pub attempt_timeout: Option<std::time::Duration>,
    /// Seed for the backoff jitter (pass the run seed so two runs of the
    /// same spec jitter identically).
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 0,
            backoff_base: std::time::Duration::from_micros(50),
            attempt_timeout: None,
            seed: 0,
        }
    }
}

struct Inner {
    sched: Mutex<SchedState>,
    work: Condvar,
    drained: Condvar,
    /// Some worker is slow, so the policy may refuse it work while a fast
    /// worker idles: a new ready task wakes every worker, not just one.
    wake_all: bool,
    rsm: Mutex<ReconfigEngine>,
    rsm_mode: RsmMode,
    backend: Arc<dyn DvfsBackend>,
    fast_khz: u32,
    slow_khz: u32,
    retry: RetryConfig,
    /// Monotonic draw counter for backoff jitter: mixed with the seed it
    /// gives each retry a distinct, reproducible-per-sequence jitter.
    retry_draws: AtomicU64,
    metrics: NativeMetrics,
    regions: Mutex<DepTracker>,
    /// Per-core busy-time-at-frequency observations feeding the calibrated
    /// energy model (`cata_power::modeled`).
    busy: BusyTracker,
}

impl Inner {
    /// Wakes workers for `ready` newly queued tasks.
    fn wake(&self, ready: usize) {
        if self.wake_all && ready > 0 {
            self.work.notify_all();
        } else {
            for _ in 0..ready {
                self.work.notify_one();
            }
        }
    }

    /// Jitter in `[0, cap)` nanoseconds from the seeded draw sequence
    /// (SplitMix64 finalizer over seed ⊕ draw index).
    fn jitter_ns(&self, cap: u64) -> u64 {
        if cap == 0 {
            return 0;
        }
        let i = self.retry_draws.fetch_add(1, Ordering::Relaxed);
        let z = cata_sim::seeded::mix64(
            self.retry
                .seed
                .wrapping_add(i.wrapping_mul(cata_sim::seeded::GOLDEN_GAMMA)),
        );
        z % cap
    }

    fn apply_cmds(&self, cmds: &[Cmd]) {
        for cmd in cmds {
            let (cpu, khz, class) = match *cmd {
                Cmd::Accelerate(c) => (c, self.fast_khz, FreqClass::Fast),
                Cmd::Decelerate(c) => (c, self.slow_khz, FreqClass::Slow),
            };
            self.metrics.reconfigs.fetch_add(1, Ordering::Relaxed);
            // Bounded retry with exponential backoff + seeded jitter.
            // Outcomes are classified, never silently discarded:
            // recovered (landed after a failed/slow attempt), exhausted
            // (degraded to the current class), or clean first-try success.
            let mut attempt = 0u32;
            let mut faulted = false;
            let landed = loop {
                let t0 = Instant::now();
                let ok = self.backend.set_speed(cpu, khz).is_ok();
                let timed_out = self
                    .retry
                    .attempt_timeout
                    .is_some_and(|budget| t0.elapsed() > budget);
                if ok && !timed_out {
                    break true;
                }
                faulted = true;
                self.metrics.reconfig_faults.fetch_add(1, Ordering::Relaxed);
                if ok {
                    // The write landed, merely late: the operating point
                    // changed, so this is a recovered fault, not a retry.
                    break true;
                }
                if attempt >= self.retry.max_retries {
                    break false;
                }
                let backoff = self
                    .retry
                    .backoff_base
                    .saturating_mul(1u32 << attempt.min(16));
                let jitter = self.jitter_ns(backoff.as_nanos().min(u64::MAX as u128) as u64 / 2);
                std::thread::sleep(backoff + std::time::Duration::from_nanos(jitter));
                attempt += 1;
            };
            if landed {
                if faulted {
                    self.metrics
                        .reconfig_recovered
                        .fetch_add(1, Ordering::Relaxed);
                }
                // Only a write that landed changes the core's operating
                // point; failed writes leave the energy model at the old
                // class, matching what the silicon actually did.
                self.busy.set_class(cpu, class);
            } else {
                self.metrics
                    .reconfig_exhausted
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Runs the RSM transaction for a task event. `decide` produces the
    /// commands under the engine lock. A static run has no RSM.
    fn rsm_event(&self, decide: impl FnOnce(&mut ReconfigEngine) -> Cmds) {
        let serialized = match self.rsm_mode {
            RsmMode::Static => return,
            RsmMode::Software => true,
            RsmMode::RsuEmulated => false,
        };
        let t0 = Instant::now();
        let mut engine = self.rsm.lock();
        let cmds = decide(&mut engine);
        if serialized {
            // Paper §III-A: the whole reconfiguration is serialized.
            self.apply_cmds(&cmds);
        }
        let held = t0.elapsed().as_nanos() as u64;
        drop(engine);
        self.metrics.rsm_lock_ns.fetch_add(held, Ordering::Relaxed);
        if !serialized {
            // §III-B: the unit drives the controller; writes overlap.
            self.apply_cmds(&cmds);
        }
    }
}

/// Builder for [`NativeRuntime`].
pub struct NativeRuntimeBuilder {
    workers: usize,
    budget: usize,
    fast_khz: u32,
    slow_khz: u32,
    rsm_mode: RsmMode,
    policy: Option<Box<dyn SchedulerPolicy>>,
    backend: Option<Arc<dyn DvfsBackend>>,
    retry: RetryConfig,
}

impl NativeRuntimeBuilder {
    /// Starts a builder for `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        NativeRuntimeBuilder {
            workers,
            budget: workers / 2,
            fast_khz: 2_000_000,
            slow_khz: 1_000_000,
            rsm_mode: RsmMode::RsuEmulated,
            policy: None,
            backend: None,
            retry: RetryConfig::default(),
        }
    }

    /// Sets the power budget (max simultaneously accelerated workers).
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the fast/slow frequencies in kHz (cpufreq units).
    pub fn frequencies_khz(mut self, fast: u32, slow: u32) -> Self {
        self.fast_khz = fast;
        self.slow_khz = slow;
        self
    }

    /// Selects the reconfiguration discipline.
    pub fn rsm_mode(mut self, mode: RsmMode) -> Self {
        self.rsm_mode = mode;
        self
    }

    /// Sets the ready-queue policy, which serves worker `i` as core `i`
    /// (default: [`CatsPolicy::homogeneous`], critical work first on any
    /// worker). Under [`RsmMode::Static`] the workers below the budget
    /// are the fast ones, the rule by which the registry builds the
    /// policy's static speed classes. A refused worker sleeps until more
    /// work is queued or the last idle fast worker wakes, so the policy
    /// may refuse only slow workers, as CATS does.
    pub fn policy(mut self, policy: Box<dyn SchedulerPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the DVFS backend (sysfs, mock, null).
    pub fn backend(mut self, backend: Arc<dyn DvfsBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the DVFS-write retry discipline (default: single try).
    pub fn retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }

    /// Builds and starts the runtime.
    ///
    /// # Panics
    /// Panics if `workers == 0` or `budget > workers`.
    pub fn build(self) -> NativeRuntime {
        assert!(self.workers > 0, "need at least one worker");
        assert!(
            self.budget <= self.workers,
            "budget {} exceeds workers {}",
            self.budget,
            self.workers
        );
        let backend = self
            .backend
            .unwrap_or_else(|| Arc::new(cata_cpufreq::backend::NullDvfs::new(self.workers)));
        let policy = self
            .policy
            .unwrap_or_else(|| Box::new(CatsPolicy::homogeneous(self.workers)));
        let is_static = self.rsm_mode == RsmMode::Static;
        let is_fast = |wid: usize| !is_static || wid < self.budget;
        let inner = Arc::new(Inner {
            sched: Mutex::new(SchedState {
                tasks: Vec::new(),
                policy,
                counters: Counters::default(),
                idle_fast: 0,
                outstanding: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            drained: Condvar::new(),
            wake_all: !(0..self.workers).all(is_fast),
            rsm: Mutex::new(ReconfigEngine::new(self.workers, self.budget)),
            rsm_mode: self.rsm_mode,
            backend,
            fast_khz: self.fast_khz,
            slow_khz: self.slow_khz,
            retry: self.retry,
            retry_draws: AtomicU64::new(0),
            metrics: NativeMetrics::default(),
            regions: Mutex::new(DepTracker::new()),
            busy: BusyTracker::new(self.workers),
        });
        if is_static {
            for wid in 0..self.budget {
                inner.busy.set_class(wid, FreqClass::Fast);
            }
        }

        let handles = (0..self.workers)
            .map(|wid| {
                let inner = Arc::clone(&inner);
                let fast = is_fast(wid);
                std::thread::Builder::new()
                    .name(format!("cata-worker-{wid}"))
                    .spawn(move || worker_loop(wid, fast, inner))
                    .expect("spawn worker")
            })
            .collect();

        NativeRuntime {
            inner,
            workers: handles,
        }
    }
}

fn worker_loop(wid: usize, fast: bool, inner: Arc<Inner>) {
    let core = CoreId(wid as u32);
    loop {
        // Acquire work in the order the policy serves this core.
        let (id, critical, func) = {
            let mut s = inner.sched.lock();
            let mut idle_reported = false;
            let id = loop {
                // As in the simulator, only a slow core learns whether a
                // fast one idles.
                let ctx = DispatchCtx {
                    fast_core_idle: !fast && s.idle_fast > 0,
                };
                let SchedState {
                    policy, counters, ..
                } = &mut *s;
                if let Some(task) = policy.dequeue(core, ctx, counters) {
                    break task.index();
                }
                if s.shutdown {
                    return;
                }
                if !idle_reported {
                    // §V-B: an accelerated worker with nothing to run
                    // releases its budget before sleeping.
                    idle_reported = true;
                    parking_lot::MutexGuard::unlocked(&mut s, || {
                        inner.rsm_event(|e| e.on_core_idle(wid));
                    });
                    continue; // re-check the queue after dropping the lock
                }
                s.idle_fast += usize::from(fast);
                inner.work.wait(&mut s);
                s.idle_fast -= usize::from(fast);
                if inner.wake_all && fast && s.idle_fast == 0 && !s.policy.is_empty() {
                    // The last idle fast worker is leaving: a slow worker
                    // the CATS rule refused may steal now.
                    inner.work.notify_all();
                }
            };
            let entry = &mut s.tasks[id];
            debug_assert_eq!(entry.state, TaskState::Ready);
            entry.state = TaskState::Running;
            let func = entry.func.take().expect("task body taken twice");
            (id, entry.level > 0, func)
        };

        // CATA prologue: accelerate if possible.
        inner.rsm_event(|e| {
            let cmds = e.on_task_start(wid, critical);
            if critical && cmds.is_empty() && !e.is_accelerated(wid) {
                inner.metrics.accel_denied.fetch_add(1, Ordering::Relaxed);
            }
            cmds
        });

        inner.busy.task_begin(wid);
        func();
        inner.busy.task_end(wid);

        // CATA epilogue: decelerate, hand budget on.
        inner.rsm_event(|e| e.on_task_end(wid));
        inner.metrics.tasks_run.fetch_add(1, Ordering::Relaxed);

        // Retire: release successors.
        let mut s = inner.sched.lock();
        s.tasks[id].state = TaskState::Done;
        let succs = std::mem::take(&mut s.tasks[id].succs);
        let mut woke = 0usize;
        for succ in succs {
            let e = &mut s.tasks[succ];
            e.unfinished_preds -= 1;
            if e.unfinished_preds == 0 && e.state == TaskState::Waiting {
                s.enqueue_ready(succ);
                woke += 1;
            }
        }
        s.outstanding -= 1;
        if s.outstanding == 0 {
            inner.drained.notify_all();
        }
        inner.wake(woke);
    }
}

/// The native CATA runtime. Spawn tasks with [`spawn`](Self::spawn) or
/// [`spawn_with_accesses`](Self::spawn_with_accesses); wait with
/// [`wait_all`](Self::wait_all). Dropping the runtime waits for queued work
/// and joins the workers.
pub struct NativeRuntime {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl NativeRuntime {
    /// Shorthand for [`NativeRuntimeBuilder::new`].
    pub fn builder(workers: usize) -> NativeRuntimeBuilder {
        NativeRuntimeBuilder::new(workers)
    }

    /// Spawns a task depending on explicit `deps`. `level` is its
    /// criticality level (0 = non-critical), by which the policy queues
    /// it; a level above 0 makes it eligible for acceleration under
    /// contention.
    pub fn spawn(
        &self,
        level: u8,
        deps: &[TaskHandle],
        f: impl FnOnce() + Send + 'static,
    ) -> TaskHandle {
        let mut s = self.inner.sched.lock();
        let id = s.tasks.len();
        let mut unfinished = 0usize;

        // Collect the dependencies that are still live first, then register
        // this task with each of them.
        let live: Vec<usize> = deps
            .iter()
            .filter(|h| s.tasks[h.0].state != TaskState::Done)
            .map(|h| h.0)
            .collect();
        for &d in &live {
            s.tasks[d].succs.push(id);
            unfinished += 1;
        }

        s.tasks.push(TaskEntry {
            func: Some(Box::new(f)),
            unfinished_preds: unfinished,
            succs: Vec::new(),
            level,
            state: TaskState::Waiting,
        });
        s.outstanding += 1;
        if unfinished == 0 {
            s.enqueue_ready(id);
            drop(s);
            self.inner.wake(1);
        }
        TaskHandle(id)
    }

    /// Spawns a task whose dependences are derived from declared data-region
    /// accesses, OmpSs style (`in`/`out`/`inout`).
    pub fn spawn_with_accesses(
        &self,
        level: u8,
        accesses: &[(RegionId, AccessMode)],
        f: impl FnOnce() + Send + 'static,
    ) -> TaskHandle {
        // Reserve the id under the scheduler lock via a two-phase protocol:
        // region tracking keys tasks by their future id.
        let deps: Vec<TaskHandle> = {
            let s = self.inner.sched.lock();
            let next_id = s.tasks.len() as u32;
            drop(s);
            let mut regions = self.inner.regions.lock();
            regions
                .deps_for(TaskId(next_id), accesses)
                .into_iter()
                .map(|t| TaskHandle(t.index()))
                .collect()
        };
        self.spawn(level, &deps, f)
    }

    /// Blocks until every spawned task has completed.
    pub fn wait_all(&self) {
        let mut s = self.inner.sched.lock();
        while s.outstanding > 0 {
            self.inner.drained.wait(&mut s);
        }
    }

    /// Current counter values.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cross_queue_steals: self.inner.sched.lock().counters.cross_queue_steals,
            ..self.inner.metrics.snapshot()
        }
    }

    /// Per-worker busy seconds at each frequency class, as observed around
    /// task start/end and DVFS writes — the input to the calibrated energy
    /// model.
    pub fn busy_intervals(&self) -> Vec<BusyIntervals> {
        self.inner.busy.intervals()
    }

    /// The configured power budget.
    pub fn budget(&self) -> usize {
        self.inner.rsm.lock().budget()
    }

    /// Waits for every spawned task, stops the workers, and returns the
    /// final counters and busy intervals. Unlike [`metrics`](Self::metrics)
    /// read after [`wait_all`](Self::wait_all), the counters include the
    /// writes a worker issues as it goes idle after the last task.
    pub(crate) fn finish(mut self) -> (MetricsSnapshot, Vec<BusyIntervals>) {
        self.stop();
        (self.metrics(), self.busy_intervals())
    }

    /// Waits for every spawned task, then stops and joins the workers.
    fn stop(&mut self) {
        self.wait_all();
        self.inner.sched.lock().shutdown = true;
        self.inner.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NativeRuntime {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_cpufreq::backend::MockDvfs;
    use std::sync::atomic::AtomicUsize;

    fn runtime(workers: usize, budget: usize, mode: RsmMode) -> (NativeRuntime, Arc<MockDvfs>) {
        let mock = Arc::new(MockDvfs::new(workers, 1_000_000));
        let rt = NativeRuntime::builder(workers)
            .budget(budget)
            .rsm_mode(mode)
            .backend(mock.clone() as Arc<dyn DvfsBackend>)
            .build();
        (rt, mock)
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let (rt, _) = runtime(4, 2, RsmMode::RsuEmulated);
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..100 {
            let c = Arc::clone(&counter);
            rt.spawn(u8::from(i % 4 == 0), &[], move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_all();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(rt.metrics().tasks_run, 100);
    }

    #[test]
    fn dependences_order_execution() {
        let (rt, _) = runtime(4, 2, RsmMode::Software);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        let a = rt.spawn(0, &[], move || l1.lock().push("a"));
        let l2 = Arc::clone(&log);
        let b = rt.spawn(0, &[a], move || l2.lock().push("b"));
        let l3 = Arc::clone(&log);
        rt.spawn(1, &[a, b], move || l3.lock().push("c"));
        rt.wait_all();
        assert_eq!(*log.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn diamond_joins_both_branches() {
        let (rt, _) = runtime(4, 4, RsmMode::RsuEmulated);
        let sum = Arc::new(AtomicUsize::new(0));
        let s1 = Arc::clone(&sum);
        let root = rt.spawn(0, &[], move || {
            s1.fetch_add(1, Ordering::Relaxed);
        });
        let mut branches = Vec::new();
        for _ in 0..2 {
            let s = Arc::clone(&sum);
            branches.push(rt.spawn(0, &[root], move || {
                s.fetch_add(10, Ordering::Relaxed);
            }));
        }
        let s2 = Arc::clone(&sum);
        rt.spawn(1, &branches, move || {
            // Both branches must have run.
            assert_eq!(s2.load(Ordering::Relaxed), 21);
            s2.fetch_add(100, Ordering::Relaxed);
        });
        rt.wait_all();
        assert_eq!(sum.load(Ordering::Relaxed), 121);
    }

    #[test]
    fn region_accesses_derive_dependences() {
        let (rt, _) = runtime(2, 1, RsmMode::RsuEmulated);
        let log = Arc::new(Mutex::new(Vec::new()));
        let r = RegionId(7);
        let l1 = Arc::clone(&log);
        rt.spawn_with_accesses(0, &[(r, AccessMode::Out)], move || {
            l1.lock().push("writer");
        });
        let l2 = Arc::clone(&log);
        rt.spawn_with_accesses(0, &[(r, AccessMode::In)], move || {
            l2.lock().push("reader");
        });
        rt.wait_all();
        assert_eq!(*log.lock(), vec!["writer", "reader"]);
    }

    #[test]
    fn backend_receives_reconfigurations() {
        let (rt, mock) = runtime(2, 1, RsmMode::Software);
        for _ in 0..10 {
            rt.spawn(1, &[], || {});
        }
        rt.wait_all();
        assert!(mock.call_count() > 0, "no DVFS writes recorded");
        // Every write targets a valid worker at a known frequency.
        for (cpu, khz) in mock.calls() {
            assert!(cpu < 2);
            assert!(khz == 2_000_000 || khz == 1_000_000);
        }
    }

    #[test]
    fn backend_failures_degrade_gracefully() {
        let mock = Arc::new(MockDvfs::new(2, 1_000_000));
        mock.fail_after(0);
        let rt = NativeRuntime::builder(2)
            .budget(1)
            .backend(mock.clone() as Arc<dyn DvfsBackend>)
            .build();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let c = Arc::clone(&counter);
            rt.spawn(1, &[], move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_all();
        assert_eq!(counter.load(Ordering::Relaxed), 20);
        assert!(rt.metrics().reconfig_exhausted > 0);
    }

    #[test]
    fn transient_backend_failures_recover_with_retry() {
        let mock = Arc::new(MockDvfs::new(2, 1_000_000));
        mock.fail_next(2); // first two write attempts fail, then heal
        let rt = NativeRuntime::builder(2)
            .budget(1)
            .backend(mock.clone() as Arc<dyn DvfsBackend>)
            .retry(RetryConfig {
                max_retries: 3,
                backoff_base: std::time::Duration::from_micros(10),
                attempt_timeout: None,
                seed: 42,
            })
            .build();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        rt.spawn(1, &[], move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        rt.wait_all();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        let m = rt.metrics();
        assert!(m.reconfig_faults >= 2, "faults: {}", m.reconfig_faults);
        assert!(m.reconfig_recovered >= 1, "nothing recovered");
        assert_eq!(m.reconfig_exhausted, 0, "retry should have healed all");
    }

    #[test]
    fn exhausted_retries_classify_as_degraded() {
        let mock = Arc::new(MockDvfs::new(2, 1_000_000));
        mock.fail_after(0); // permanent failure: retries cannot heal it
        let rt = NativeRuntime::builder(2)
            .budget(1)
            .backend(mock.clone() as Arc<dyn DvfsBackend>)
            .retry(RetryConfig {
                max_retries: 2,
                backoff_base: std::time::Duration::from_micros(10),
                attempt_timeout: None,
                seed: 7,
            })
            .build();
        for _ in 0..5 {
            rt.spawn(1, &[], || {});
        }
        rt.wait_all();
        let m = rt.metrics();
        assert!(m.reconfig_exhausted > 0, "no write exhausted its budget");
        assert_eq!(m.reconfig_recovered, 0);
        // Every exhausted write burned its full attempt budget.
        assert!(m.reconfig_faults >= m.reconfig_exhausted * 3);
    }

    #[test]
    fn completed_dependences_do_not_block() {
        let (rt, _) = runtime(2, 1, RsmMode::RsuEmulated);
        let a = rt.spawn(0, &[], || {});
        rt.wait_all(); // `a` is done
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        rt.spawn(0, &[a], move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        rt.wait_all();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn both_rsm_modes_account_lock_time() {
        for mode in [RsmMode::Software, RsmMode::RsuEmulated] {
            let (rt, _) = runtime(4, 2, mode);
            for _ in 0..50 {
                rt.spawn(1, &[], || {});
            }
            rt.wait_all();
            let m = rt.metrics();
            assert!(m.reconfigs > 0, "{mode:?} never reconfigured");
        }
    }

    /// A backend that counts the writes in flight, holding each for 1 ms.
    #[derive(Default)]
    struct SlowWrites {
        in_flight: AtomicUsize,
        max_in_flight: AtomicUsize,
        writes: AtomicUsize,
    }

    impl DvfsBackend for SlowWrites {
        fn set_speed(&self, _cpu: usize, _khz: u32) -> std::io::Result<()> {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_in_flight.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.writes.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }

        fn get_speed(&self, _cpu: usize) -> std::io::Result<u32> {
            Ok(1_000_000)
        }

        fn num_cpus(&self) -> usize {
            4
        }
    }

    /// §III-A: software CATA holds the RSM lock across every write, so no
    /// two writes are ever in flight together.
    #[test]
    fn software_discipline_serializes_writes() {
        let backend = Arc::new(SlowWrites::default());
        let rt = NativeRuntime::builder(4)
            .budget(2)
            .rsm_mode(RsmMode::Software)
            .backend(backend.clone() as Arc<dyn DvfsBackend>)
            .build();
        for _ in 0..64 {
            rt.spawn(1, &[], || {
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
        }
        rt.wait_all();
        drop(rt);
        assert!(backend.writes.load(Ordering::SeqCst) > 0, "no writes");
        assert_eq!(backend.max_in_flight.load(Ordering::SeqCst), 1);
    }

    /// One worker held by a gate task: every task spawned meanwhile is
    /// queued before the worker serves any, so it runs them in exactly
    /// the order the registry's policy gives when drained directly, and
    /// counts the same cross-queue steals.
    #[test]
    fn a_gated_worker_drains_in_the_policy_order() {
        use crate::exp::{native_rsm_mode, PolicyRegistries, ScenarioSpec, WorkloadSpec};
        let levels: Vec<u8> = (0..24u8).map(|i| (i * 7) % 3).collect();
        let regs = PolicyRegistries::with_builtins();
        for (scheduler, accel, fast) in [
            ("fifo", "static-hetero", 1),
            ("cats", "static-hetero", 1),
            ("cats", "static-hetero", 0),
            ("cats-homogeneous", "rsu", 1),
        ] {
            let spec = ScenarioSpec {
                scheduler: scheduler.into(),
                accel: accel.into(),
                ..ScenarioSpec::new("gate", WorkloadSpec::Chain { n: 0, cycles: 0 })
            }
            .with_small_machine(1, fast);
            let policy = || regs.resolve(&spec).expect("builtin keys").policy;
            let rt = NativeRuntime::builder(1)
                .budget(fast)
                .rsm_mode(native_rsm_mode(accel).expect("native accel key"))
                .policy(policy())
                .build();
            let (started, gate_up) = std::sync::mpsc::channel();
            let (release, gate_down) = std::sync::mpsc::channel::<()>();
            rt.spawn(0, &[], move || {
                started.send(()).expect("test waits");
                gate_down.recv().expect("test releases");
            });
            gate_up.recv().expect("gate runs");
            let log = Arc::new(Mutex::new(Vec::new()));
            for (i, &level) in levels.iter().enumerate() {
                let log = Arc::clone(&log);
                rt.spawn(level, &[], move || log.lock().push(i as u32 + 1));
            }
            release.send(()).expect("gate waits");
            rt.wait_all();

            let mut direct = policy();
            let (core, mut counters) = (CoreId(0), Counters::default());
            let ctx = DispatchCtx {
                fast_core_idle: false,
            };
            direct.enqueue(TaskId(0), 0);
            assert_eq!(direct.dequeue(core, ctx, &mut counters), Some(TaskId(0)));
            for (i, &level) in levels.iter().enumerate() {
                direct.enqueue(TaskId(i as u32 + 1), level);
            }
            let want: Vec<u32> = std::iter::from_fn(|| direct.dequeue(core, ctx, &mut counters))
                .map(|t| t.0)
                .collect();
            let label = format!("{scheduler}/{accel}/fast={fast}");
            assert_eq!(want.len(), levels.len(), "{label}");
            assert_eq!(*log.lock(), want, "{label}");
            assert_eq!(
                rt.metrics().cross_queue_steals,
                counters.cross_queue_steals,
                "{label}"
            );
        }
    }

    /// `Static` books the workers below the budget fast and never touches
    /// the RSM or the backend; the slow workers still get the work the
    /// CATS rule lets them take, so a mixed graph finishes.
    #[test]
    fn static_discipline_never_reconfigures() {
        let mock = Arc::new(MockDvfs::new(4, 1_000_000));
        let rt = NativeRuntime::builder(4)
            .budget(1)
            .rsm_mode(RsmMode::Static)
            .policy(Box::new(CatsPolicy::new(&[true, false, false, false])))
            .backend(mock.clone() as Arc<dyn DvfsBackend>)
            .build();
        let counter = Arc::new(AtomicUsize::new(0));
        let mut last = None;
        for i in 0..300u32 {
            let c = Arc::clone(&counter);
            let deps: Vec<TaskHandle> = last.into_iter().collect();
            let h = rt.spawn((i % 3) as u8, &deps, move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
            if i % 5 == 0 {
                last = Some(h);
            }
        }
        rt.wait_all();
        assert_eq!(counter.load(Ordering::Relaxed), 300);
        let m = rt.metrics();
        assert_eq!((m.reconfigs, m.rsm_lock_ns, m.accel_denied), (0, 0, 0));
        assert_eq!(mock.call_count(), 0);
        let iv = rt.busy_intervals();
        assert_eq!(iv[0].busy_slow_s, 0.0, "the fast worker ran slow");
        for w in &iv[1..] {
            assert_eq!(w.busy_fast_s, 0.0, "a slow worker ran fast");
        }
    }

    #[test]
    fn busy_intervals_are_observed_around_task_bodies() {
        let (rt, _) = runtime(2, 1, RsmMode::RsuEmulated);
        for _ in 0..4 {
            rt.spawn(1, &[], || {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        }
        rt.wait_all();
        let iv = rt.busy_intervals();
        assert_eq!(iv.len(), 2);
        let total: f64 = iv.iter().map(|i| i.total_s()).sum();
        // 4 tasks × ≥2 ms of body each, wherever they landed.
        assert!(total >= 0.008, "observed only {total}s busy");
        // Critical tasks got accelerated (budget 1), so some of that busy
        // time was banked at the fast class.
        let fast: f64 = iv.iter().map(|i| i.busy_fast_s).sum();
        assert!(fast > 0.0, "no fast-class busy time recorded");
    }

    #[test]
    fn stress_many_tasks_many_workers() {
        let (rt, _) = runtime(8, 4, RsmMode::RsuEmulated);
        let counter = Arc::new(AtomicUsize::new(0));
        let mut last: Option<TaskHandle> = None;
        for i in 0..500 {
            let c = Arc::clone(&counter);
            let deps: Vec<TaskHandle> = last.into_iter().collect();
            let h = rt.spawn(u8::from(i % 7 == 0), &deps, move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
            if i % 3 == 0 {
                last = Some(h);
            }
        }
        rt.wait_all();
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }
}
