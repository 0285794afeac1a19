//! The open system: graph instances arriving off a traffic tape into one
//! simulation, run by the same engine as a closed run
//! ([`crate::sim_exec`]), with an `Open` task source in place of the
//! master thread.
//!
//! What the open source adds:
//!
//! - **Arrivals, not a master thread.** Tape records become submissions
//!   interleaved into the ordinary event queue; an admitted instance's
//!   tasks are all released at its arrival instant (the graph came off a
//!   tape, so the runtime knows it upfront), with per-task criticality
//!   levels precomputed once per *distinct workload*, not per instance.
//! - **Pooled per-instance state.** Each live instance owns a slot
//!   (indegree vector, remaining count, timestamps) recycled through a
//!   free list — thousands of concurrent instances reuse a few dozen
//!   slots' allocations. Global task ids are `slot · stride + local`,
//!   so scheduler queues can mix tasks of many instances.
//! - **Shedding.** A recovery policy may shed a displaced task's whole
//!   instance; its queued tasks are then discarded and its running ones
//!   complete void.
//! - **Streaming metrics.** Completions fold into log-bucketed
//!   [`LatencyHistogram`]s, which hold their occupied buckets and
//!   allocate only when a sample reaches a new one, because an
//!   open-system run can complete millions of instances.

use super::admission::{AdmissionCtx, AdmissionPolicy, AdmissionRegistry};
use super::report::ServiceReport;
use super::spec::{ArrivalSpec, ServiceSpec};
use super::tape::{TapeRecord, TrafficTape};
use crate::exp::error::ExpError;
use crate::exp::progress::{ProgressEvent, ProgressWriter};
use crate::exp::registry::{FactoryCtx, PolicyRegistries};
use crate::exp::suite::derive_seed;
use crate::report::RunReport;
use crate::sim_exec::{Engine, EngineBufs, Ready, Source};
use cata_sim::progress::ExecProfile;
use cata_sim::stats::LatencyHistogram;
use cata_sim::time::{SimDuration, SimTime};
use cata_tdg::{GraphView, TaskGraph, TaskId};
use std::sync::Arc;

/// Seed-stream tag for arrival generation, so the traffic draw is
/// decorrelated from the run seed the policies see.
const ARRIVAL_STREAM: u64 = 0x7A9E_0001;

/// Heartbeat cadence of an observed run: one
/// [`ServiceSnapshot`](ProgressEvent::ServiceSnapshot) per this many
/// arrivals (plus one final snapshot at drain). Arrival-indexed rather
/// than wall-clocked so the emitted stream is a deterministic function of
/// the tape (only the `unix_ms` stamps differ between runs).
const SNAPSHOT_EVERY_ARRIVALS: u64 = 64;

/// Runs a service spec end to end: generates the traffic tape its
/// arrival process describes, replays it, and returns both the report
/// and the tape (so callers can store/record the traffic they measured).
///
/// Record → replay bit-identity holds by construction: this function
/// *only* generates the tape and delegates to [`replay_tape`], so a
/// recorded tape replays through exactly the code path that produced the
/// original report.
pub fn run_service(
    spec: &ServiceSpec,
    registries: &PolicyRegistries,
    admissions: &AdmissionRegistry,
) -> Result<(RunReport, TrafficTape), ExpError> {
    run_service_observed(spec, registries, admissions, None)
}

/// Like [`run_service`], with heartbeat telemetry: the engine streams a
/// [`ServiceSnapshot`](ProgressEvent::ServiceSnapshot) of its accounting
/// (arrivals, drops, in-flight, p99-so-far) into `progress` every
/// `SNAPSHOT_EVERY_ARRIVALS` arrivals plus once at drain. Heartbeats
/// are best-effort and purely observational — the report is bit-identical
/// with `None`.
pub fn run_service_observed(
    spec: &ServiceSpec,
    registries: &PolicyRegistries,
    admissions: &AdmissionRegistry,
    progress: Option<&ProgressWriter>,
) -> Result<(RunReport, TrafficTape), ExpError> {
    spec.validate()?;
    if matches!(spec.arrival, ArrivalSpec::Tape { .. }) {
        return Err(ExpError::InvalidSpec(
            "spec pins a traffic tape; load the tape file and call replay_tape".to_string(),
        ));
    }
    let tape = TrafficTape::generate(
        format!("{}-traffic", spec.base.name),
        &spec.arrival,
        spec.duration,
        spec.base.workload.clone(),
        derive_seed(spec.base.seed, ARRIVAL_STREAM),
    )?;
    let report = replay_tape_observed(spec, &tape, registries, admissions, progress)?;
    Ok((report, tape))
}

/// Replays a traffic tape under `spec`'s machine, policies, and
/// admission gate. Verifies the tape (and, for tape-pinned specs, the
/// digest pin) first. Same spec + same tape ⇒ bit-identical report.
pub fn replay_tape(
    spec: &ServiceSpec,
    tape: &TrafficTape,
    registries: &PolicyRegistries,
    admissions: &AdmissionRegistry,
) -> Result<RunReport, ExpError> {
    replay_tape_observed(spec, tape, registries, admissions, None)
}

/// Like [`replay_tape`], with heartbeat telemetry (see
/// [`run_service_observed`]).
pub fn replay_tape_observed(
    spec: &ServiceSpec,
    tape: &TrafficTape,
    registries: &PolicyRegistries,
    admissions: &AdmissionRegistry,
    progress: Option<&ProgressWriter>,
) -> Result<RunReport, ExpError> {
    spec.base.validate()?;
    let digest = tape.verify()?;
    if let ArrivalSpec::Tape { digest: pinned } = &spec.arrival {
        if !pinned.is_empty() && *pinned != digest {
            return Err(ExpError::InvalidSpec(format!(
                "spec pins traffic tape {pinned}, but the loaded tape digests to {digest}"
            )));
        }
    }
    let params = spec.base.params_or_default();
    let resolved = registries.resolve(&spec.base)?;
    let admission = admissions.build(
        &spec.admission,
        &spec.admission_params.clone().unwrap_or_default(),
    )?;

    // Build each distinct workload once and precompute its per-task
    // criticality levels: a fresh estimator sees the whole graph
    // submitted in order (the steady-state view — every instance of a
    // workload classifies identically, which is also what makes the
    // per-arrival work O(tasks) instead of O(estimator)).
    let mut graphs = Vec::with_capacity(tape.workloads.len());
    for w in &tape.workloads {
        let (graph, label) = w.build_labeled_graph()?;
        let fctx = FactoryCtx {
            machine: &resolved.machine,
            is_fast_static: &resolved.is_fast_static,
            fast_cores: spec.base.fast_cores,
            seed: spec.base.seed,
            params: &params,
        };
        let mut est = registries.build_estimator(&spec.base.estimator, &fctx)?;
        for t in graph.task_ids() {
            est.on_submit(&graph, t);
        }
        let levels: Vec<u8> = graph
            .task_ids()
            .map(|t| est.classify_level(&graph, t))
            .collect();
        let critical = levels.iter().any(|&l| l > 0);
        graphs.push(GraphEntry {
            graph,
            label,
            levels,
            critical,
        });
    }

    let stride = graphs
        .iter()
        .map(|g| g.graph.num_tasks())
        .max()
        .unwrap_or(0)
        .max(1) as u32;
    // Global ids are u32; slots ≤ arrivals, so this conservative bound
    // guarantees `slot · stride + local` never wraps.
    if (tape.records.len() as u64 + 1).saturating_mul(u64::from(stride)) > u64::from(u32::MAX) {
        return Err(ExpError::InvalidSpec(format!(
            "tape of {} arrivals × stride {stride} exceeds the 2³² task-id space",
            tape.records.len()
        )));
    }

    let workload_label = if graphs.len() == 1 {
        graphs[0].label.clone()
    } else {
        tape.name.clone()
    };
    // Open runs take fresh buffers, not the closed runs' thread-local
    // scratch: they are few and long, so there is no per-run warm-up
    // worth saving.
    let bufs = EngineBufs::default();
    let source = Open {
        graphs: &graphs,
        views: graphs
            .iter()
            .map(|g| GraphView::from_graph(&g.graph))
            .collect(),
        records: &tape.records,
        stride,
        admission,
        progress,
        slots: Vec::new(),
        free: Vec::new(),
        live: 0,
        next_rec: 0,
        any_shed: false,
        arrivals: 0,
        admitted: 0,
        dropped: 0,
        completed: 0,
        shed: 0,
        latency: LatencyHistogram::new(),
        queue_wait: LatencyHistogram::new(),
        service_time: LatencyHistogram::new(),
    };
    // The engine's own estimator goes unused: levels were precomputed
    // per workload above. Faults and memory contention compose with the
    // service load as in a closed run: admission gates arrivals, the
    // recovery policy handles displaced tasks, and the memory gate slows
    // execution, which backs up the ready queues admission then sees.
    Engine::new(&spec.base, resolved, |_| source, bufs)?.run(&workload_label)
}

/// One distinct workload: its graph plus the precomputed classification.
struct GraphEntry {
    graph: Arc<TaskGraph>,
    label: String,
    /// Per-task criticality level (estimator's steady-state view).
    levels: Vec<u8>,
    /// Any task classifies critical — the instance-level flag admission
    /// policies see.
    critical: bool,
}

/// Pooled per-instance state, recycled through a free list.
#[derive(Debug, Default)]
struct Slot {
    /// Index into the workload table.
    graph: u32,
    /// Remaining unfinished predecessors per local task (buffer reused
    /// across instances).
    indegree: Vec<u32>,
    /// Tasks not yet completed.
    remaining: u32,
    /// Arrival instant.
    arrival: SimTime,
    /// First task assignment (end of queue wait), once dispatched.
    started: Option<SimTime>,
    /// Instance dropped by a shedding recovery policy mid-flight: its
    /// queued tasks are discarded at dispatch, completions of its
    /// already-running tasks are void, and the slot is retired (never
    /// recycled — a reused slot would alias stale queued global ids).
    shed: bool,
}

/// The open system's task source: tape arrivals through the admission
/// gate into pooled instance slots, with streaming service metrics.
struct Open<'g> {
    graphs: &'g [GraphEntry],
    /// The columns of each workload's graph, shared by every instance:
    /// arrivals seed indegrees from its predecessor counts and
    /// completions walk its successor lists.
    views: Vec<GraphView<'g>>,
    records: &'g [TapeRecord],
    stride: u32,
    admission: Box<dyn AdmissionPolicy>,
    /// Heartbeat sink of an observed run; `None` runs silently.
    progress: Option<&'g ProgressWriter>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Admitted instances neither completed nor shed.
    live: usize,
    /// Next unconsumed tape record.
    next_rec: usize,
    /// Some instance was shed (lets runs that shed nothing skip the slot
    /// lookup).
    any_shed: bool,
    arrivals: u64,
    admitted: u64,
    dropped: u64,
    completed: u64,
    shed: u64,
    latency: LatencyHistogram,
    queue_wait: LatencyHistogram,
    service_time: LatencyHistogram,
}

impl<'g> Open<'g> {
    /// Streams one heartbeat snapshot of the service accounting.
    /// Best-effort: a telemetry write error never fails the run.
    fn snapshot(&self, now: SimTime) {
        if let Some(w) = self.progress {
            let _ = w.emit(ProgressEvent::ServiceSnapshot {
                arrivals: self.arrivals,
                admitted: self.admitted,
                completed: self.completed,
                dropped: self.dropped,
                in_flight: self.live as u64,
                p99_ps: self.latency.quantile(0.99).as_ps(),
                sim_time_ps: now.as_ps(),
            });
        }
    }

    /// Splits a global task id into (slot index, local task id).
    #[inline]
    fn split(&self, task: TaskId) -> (usize, TaskId) {
        (
            (task.0 / self.stride) as usize,
            TaskId(task.0 % self.stride),
        )
    }

    /// The workload entry a slot's instance was stamped from. Returned at
    /// the graph-table lifetime (not `&self`), so callers can keep it
    /// across mutations of source state.
    #[inline]
    fn entry(&self, slot: usize) -> &'g GraphEntry {
        let graphs = self.graphs;
        &graphs[self.slots[slot].graph as usize]
    }

    /// The graph columns of a slot's instance.
    #[inline]
    fn view(&self, slot: usize) -> GraphView<'g> {
        self.views[self.slots[slot].graph as usize]
    }

    /// Takes a slot off the free list (or grows the pool) and stamps it
    /// for one instance of `graph`, with fresh records for its ids.
    fn alloc_slot(&mut self, graph: u32, now: SimTime, ready: &mut Ready<'_>) -> u32 {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            self.slots.len() as u32 - 1
        });
        let entry = &self.graphs[graph as usize];
        let s = &mut self.slots[idx as usize];
        s.graph = graph;
        s.remaining = entry.graph.num_tasks() as u32;
        s.arrival = now;
        s.started = None;
        s.shed = false;
        s.indegree.clear();
        s.indegree.extend(self.views[graph as usize].pred_counts());
        let base = idx as usize * self.stride as usize;
        ready.reuse(base..base + self.stride as usize);
        idx
    }

    /// The instance's last task finished: fold its times into the
    /// streaming histograms and recycle the slot.
    fn finish_instance(&mut self, slot: usize, now: SimTime) {
        self.completed += 1;
        let s = &self.slots[slot];
        let started = s.started.unwrap_or(now);
        self.latency.record(now.since(s.arrival));
        self.queue_wait.record(started.since(s.arrival));
        self.service_time.record(now.since(started));
        self.live -= 1;
        self.free.push(slot as u32);
    }
}

impl<'g> Source<'g> for Open<'g> {
    fn first_submit(&mut self, _ready: &mut Ready<'_>) -> Option<SimTime> {
        self.records.first().map(|r| SimTime::from_ps(r.at_ps))
    }

    /// One tape record: gate it, and (if admitted) release the whole
    /// instance.
    fn submit(&mut self, now: SimTime, ready: &mut Ready<'_>) -> Option<SimTime> {
        let rec = self.records[self.next_rec];
        self.next_rec += 1;
        let next = self
            .records
            .get(self.next_rec)
            .map(|r| SimTime::from_ps(r.at_ps));
        self.arrivals += 1;
        if self.arrivals.is_multiple_of(SNAPSHOT_EVERY_ARRIVALS) {
            self.snapshot(now);
        }

        let graphs = self.graphs;
        let entry = &graphs[rec.workload as usize];
        let ctx = AdmissionCtx {
            now,
            in_flight: self.live,
            ready_tasks: ready.queued(),
            critical: entry.critical,
            tenant: rec.tenant,
        };
        if !self.admission.admit(&ctx) {
            self.dropped += 1;
            return next;
        }
        self.admitted += 1;

        if entry.graph.num_tasks() == 0 {
            // An empty instance completes the moment it is admitted.
            self.completed += 1;
            self.latency.record(SimDuration::ZERO);
            self.queue_wait.record(SimDuration::ZERO);
            self.service_time.record(SimDuration::ZERO);
            return next;
        }

        let slot = self.alloc_slot(rec.workload, now, ready);
        self.live += 1;
        let base = slot * self.stride;
        for t in entry.graph.task_ids() {
            if self.slots[slot as usize].indegree[t.index()] == 0 {
                ready.push(TaskId(base + t.0), entry.levels[t.index()]);
            }
        }
        next
    }

    #[inline]
    fn profile(&self, task: TaskId) -> &'g ExecProfile {
        let (slot, local) = self.split(task);
        self.view(slot).profile(local)
    }

    fn level(&mut self, task: TaskId) -> u8 {
        let (slot, local) = self.split(task);
        self.entry(slot).levels[local.index()]
    }

    /// First dispatch of the instance ends its queue wait.
    fn on_dispatch(&mut self, task: TaskId, now: SimTime) {
        let (slot, _) = self.split(task);
        self.slots[slot].started.get_or_insert(now);
    }

    fn complete(&mut self, task: TaskId, now: SimTime, ready: &mut Ready<'_>) {
        let (slot, local) = self.split(task);
        let entry = self.entry(slot);
        let base = slot as u32 * self.stride;
        // The successor slice borrows the `'g` graph, not `self`, so the
        // walk can mutate slots.
        for &s in self.view(slot).succs(local) {
            let d = &mut self.slots[slot].indegree[s.index()];
            debug_assert!(*d > 0, "indegree underflow at {s}");
            *d -= 1;
            if *d == 0 {
                ready.push(TaskId(base + s.0), entry.levels[s.index()]);
            }
        }
        self.slots[slot].remaining -= 1;
        if self.slots[slot].remaining == 0 {
            self.finish_instance(slot, now);
        }
    }

    #[inline]
    fn is_shed(&self, task: TaskId) -> bool {
        self.any_shed && self.slots[(task.0 / self.stride) as usize].shed
    }

    /// Retires the instance: the displaced task is dropped, queued
    /// siblings are discarded at dispatch, running siblings' completions
    /// are void. The slot is *not* recycled (stale global ids may still
    /// sit in scheduler queues and would alias a reused slot).
    fn shed(&mut self, task: TaskId) -> bool {
        let (slot, _) = self.split(task);
        self.slots[slot].shed = true;
        self.any_shed = true;
        self.shed += 1;
        self.live -= 1;
        true
    }

    /// Drain: every admitted instance runs to completion, however far
    /// past the arrival window its tail stretches.
    #[inline]
    fn pending(&self) -> bool {
        self.live > 0 || self.next_rec < self.records.len()
    }

    fn progress(&self) -> String {
        format!(
            "{} live instance(s), record {}/{}",
            self.live,
            self.next_rec,
            self.records.len()
        )
    }

    fn finish(&mut self, end: SimTime) -> Option<ServiceReport> {
        // Final heartbeat: the drained totals a tailing dashboard settles
        // on.
        self.snapshot(end);
        debug_assert_eq!(
            self.arrivals,
            self.admitted + self.dropped,
            "arrival ledger"
        );
        debug_assert_eq!(
            self.admitted,
            self.completed + self.shed + self.live as u64,
            "admission ledger"
        );
        let secs = end.since(SimTime::ZERO).as_secs_f64();
        Some(ServiceReport {
            arrivals: self.arrivals,
            admitted: self.admitted,
            dropped: self.dropped,
            completed: self.completed,
            in_flight: self.live as u64,
            duration: end.since(SimTime::ZERO),
            graphs_per_sec: if secs > 0.0 {
                self.completed as f64 / secs
            } else {
                0.0
            },
            latency: std::mem::take(&mut self.latency),
            queue_wait: std::mem::take(&mut self.queue_wait),
            service_time: std::mem::take(&mut self.service_time),
        })
    }
}
