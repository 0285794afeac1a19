//! Probes of the inner layers — the ones that only run inside another
//! layer (event queue, policies, acceleration managers and the RSU, the
//! progress model, the memory gate, histograms, energy integration, TDG
//! and tape serde, store appends, progress emits, dashboard ingest and
//! rendering). Each probe calls the layer's public API on inputs shaped
//! like the workload and returns nanoseconds per operation; multiplied by
//! the workload's operation counts, these estimate each layer's share of
//! the measured simulation phase.
//!
//! A workload that never reaches a layer (paper-sweep and the memory gate,
//! say) still gets that layer's cost measured, on the workload's own
//! graphs and machine where it has them; its operation count for the layer
//! is then zero, and so is the layer's share.

use crate::bench::{timed, Batch, SetupProfile};
use cata_core::exp::{
    default_registries, CellRecord, FactoryCtx, PolicyParams, ProgressEvent, ProgressWriter,
    ResultsStore, ScenarioSpec, WorkloadSpec,
};
use cata_core::service::{
    default_admission_registry, replay_tape, ArrivalSpec, ServiceSpec, TrafficTape,
};
use cata_core::MemorySpec;
use cata_cpufreq::software_path::{SoftwareDvfsPath, SoftwarePathParams};
use cata_obs::DashState;
use cata_power::{integrate_machine, PowerParams};
use cata_rsu::engine::ReconfigEngine;
use cata_rsu::unit::{Rsu, RsuConfig};
use cata_sim::activity::Activity;
use cata_sim::event::{EventBackend, EventQueue};
use cata_sim::machine::{CoreId, Machine, MachineConfig};
use cata_sim::memory::MemorySubsystem;
use cata_sim::progress::{ExecProfile, RunningTask};
use cata_sim::seeded::SplitMix64;
use cata_sim::stats::{Counters, LatencyHistogram};
use cata_sim::time::{Frequency, SimDuration, SimTime};
use cata_tdg::bottom_level::BottomLevels;
use cata_tdg::{GraphView, TaskGraph, TaskId, TdgFile};
use cata_workloads::{micro, Benchmark, Scale};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Operations per timed probe loop. Enough for microsecond-scale totals,
/// small enough that all probes together take well under a second.
const OPS: usize = 20_000;

/// The workload properties the probes copy.
pub struct Shape {
    pub machine: MachineConfig,
    pub fast: usize,
    /// Distinct graphs the workload runs, with the label of each.
    pub graphs: Vec<(String, Arc<TaskGraph>)>,
    /// TDG files the workload loads (empty: export its first graph).
    pub tdg_files: Vec<PathBuf>,
    /// Ready tasks queued when a core asks for work.
    pub ready_depth: usize,
    /// Share of tasks that are critical.
    pub crit_share: f64,
    pub mem_slots: usize,
    /// Memory requests parked when a slot frees.
    pub mem_waiters: usize,
    /// The traffic the service layer replays (default: dedup-tiny).
    pub service: Option<(ServiceSpec, TrafficTape)>,
}

fn graphs_of(workloads: impl Iterator<Item = WorkloadSpec>) -> Vec<(String, Arc<TaskGraph>)> {
    let mut seen = BTreeMap::new();
    for w in workloads {
        let key = serde_json::to_string(&w).expect("workload serializes");
        seen.entry(key).or_insert_with(|| {
            let (g, label) = w.build_labeled_graph().expect("workload graph builds");
            (label, g)
        });
    }
    seen.into_values().collect()
}

/// Average parallelism (work / span at the fast level), the ready-queue
/// depth a closed run of the graph sees.
fn parallelism(g: &TaskGraph, f: Frequency) -> f64 {
    let span = g.critical_path_at(f).as_ps().max(1) as f64;
    g.total_work_at(f).as_ps() as f64 / span
}

fn crit_share(graphs: &[(String, Arc<TaskGraph>)]) -> f64 {
    let (mut crit, mut all) = (0usize, 0usize);
    for (_, g) in graphs {
        let v = GraphView::from_graph(g);
        crit += v.crit_levels().iter().filter(|&&c| c > 0).count();
        all += v.num_tasks();
    }
    crit as f64 / all.max(1) as f64
}

impl Shape {
    /// A closed-system sweep over `specs`.
    pub fn closed(specs: &[ScenarioSpec]) -> Shape {
        let graphs = graphs_of(specs.iter().map(|s| s.workload.clone()));
        let machine = specs[0].machine.clone();
        let fast = machine.fast_level.frequency;
        let mean_par = graphs
            .iter()
            .map(|(_, g)| parallelism(g, fast))
            .sum::<f64>()
            / graphs.len().max(1) as f64;
        let contended = specs.iter().find_map(|s| s.memory.as_ref());
        let cores = machine.num_cores;
        Shape {
            fast: specs[0].fast_cores,
            crit_share: crit_share(&graphs),
            ready_depth: (mean_par as usize).saturating_sub(cores).max(1),
            mem_slots: contended.map_or(cores / 4, |m| m.slots as usize),
            mem_waiters: contended.map_or(1, |m| cores.saturating_sub(m.slots as usize)),
            machine,
            graphs,
            tdg_files: Vec::new(),
            service: None,
        }
    }

    /// An open-system replay of `tape` under `spec`.
    pub fn service(spec: &ServiceSpec, tape: &TrafficTape) -> Shape {
        let graphs = graphs_of(tape.workloads.iter().cloned());
        let machine = spec.base.machine.clone();
        let cores = machine.num_cores;
        let slots = spec
            .base
            .memory
            .as_ref()
            .map_or(cores, |m| m.slots as usize);
        // Every live instance's ready tasks share one queue.
        let tasks: usize = graphs.iter().map(|(_, g)| g.num_tasks()).sum::<usize>() / graphs.len();
        Shape {
            fast: spec.base.fast_cores,
            crit_share: crit_share(&graphs),
            ready_depth: tasks.max(cores),
            mem_slots: slots,
            mem_waiters: cores.saturating_sub(slots),
            machine,
            graphs,
            tdg_files: Vec::new(),
            service: Some((spec.clone(), tape.clone())),
        }
    }

    pub fn with_tdg_files(mut self, files: Vec<PathBuf>) -> Shape {
        self.tdg_files = files;
        self
    }
}

/// Nanoseconds per operation of `ops` operations run by `f`.
fn per_op(ops: usize, f: impl FnOnce()) -> f64 {
    let ((), ns) = timed(f);
    ns as f64 / ops.max(1) as f64
}

/// Event queue in steady state at the engine's pending depth (about one
/// event per core): pop the earliest, push its successor. ns per pop+push.
fn event_hold(backend: EventBackend, depth: usize) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
    let mut rng = SplitMix64::new(7);
    for i in 0..depth as u64 {
        q.push(SimTime::from_ns(rng.next_u64() % 10_000), i);
    }
    per_op(OPS, || {
        for _ in 0..OPS {
            let (t, e) = q.pop().expect("queue holds `depth` events");
            q.push(
                t + SimDuration::from_ns(1 + rng.next_u64() % 10_000),
                black_box(e),
            );
        }
    })
}

/// The substrate bench's input: 1024 pushes then a full drain, in µs.
fn event_push_pop_1k() -> f64 {
    let ((), ns) = timed(|| {
        let mut q = EventQueue::with_capacity(1024);
        for i in 0..1024u64 {
            q.push(SimTime::from_ns((i * 7919) % 100_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, e)) = q.pop() {
            sum = sum.wrapping_add(e);
        }
        black_box(sum);
    });
    ns as f64 / 1e3
}

fn factory<'a>(
    machine: &'a Machine,
    fast_static: &'a [bool],
    fast: usize,
    params: &'a PolicyParams,
) -> FactoryCtx<'a> {
    FactoryCtx {
        machine,
        is_fast_static: fast_static,
        fast_cores: fast,
        seed: 7,
        params,
    }
}

/// Scheduler `key` in steady state at the workload's ready depth and
/// criticality mix: one enqueue plus one dequeue per operation.
fn policy(key: &str, shape: &Shape) -> f64 {
    let machine = Machine::new_static_hetero(shape.machine.clone(), shape.fast);
    let cores = shape.machine.num_cores;
    let fast_static: Vec<bool> = (0..cores).map(|i| i < shape.fast).collect();
    let params = PolicyParams::default();
    let mut p = default_registries()
        .build_scheduler(key, &factory(&machine, &fast_static, shape.fast, &params))
        .expect("builtin scheduler builds");
    let mut rng = SplitMix64::new(11);
    let level = |rng: &mut SplitMix64| u8::from(rng.next_unit() < shape.crit_share);
    let mut next = 0u32;
    for _ in 0..shape.ready_depth {
        p.enqueue(TaskId(next), level(&mut rng));
        next += 1;
    }
    let mut counters = Counters::default();
    let ctx = cata_core::policy::DispatchCtx {
        fast_core_idle: false,
    };
    per_op(OPS, || {
        for i in 0..OPS {
            p.enqueue(TaskId(next), level(&mut rng));
            next = next.wrapping_add(1);
            black_box(p.dequeue(CoreId((i % cores) as u32), ctx, &mut counters));
        }
    })
}

/// Acceleration manager `key`: a task start and end per operation on
/// cores in turn, with the workload's criticality mix; every started DVFS
/// transition settles before the core's next task, as the engine's settle
/// events do.
fn accel(key: &str, shape: &Shape) -> f64 {
    let mut machine = Machine::new(shape.machine.clone());
    let cores = shape.machine.num_cores;
    let fast_static = vec![true; cores];
    let params = PolicyParams::default();
    let mut m = default_registries()
        .build_accel(key, &factory(&machine, &fast_static, shape.fast, &params))
        .expect("builtin accel manager builds");
    let mut rng = SplitMix64::new(13);
    let mut counters = Counters::default();
    let mut now = SimTime::ZERO;
    let gap = SimDuration::from_ps(shape.machine.reconfig_latency.as_ps() * 2);
    let init = m.on_init(&mut machine, now);
    for &(t, c) in &init.settles {
        machine.settle(c, t);
    }
    per_op(OPS, || {
        for i in 0..OPS {
            let core = CoreId((i % cores) as u32);
            let critical = rng.next_unit() < shape.crit_share;
            let start = m.on_task_start(core, critical, now, &mut machine, &mut counters);
            let end = m.on_task_end(
                core,
                start.resume_or(now) + gap,
                &mut machine,
                &mut counters,
            );
            for &(t, c) in start.settles.iter().chain(end.settles.iter()) {
                machine.settle(c, t);
            }
            if i % 2 == 0 {
                let h = m.on_core_halt(core, now, &mut machine, &mut counters);
                let w = m.on_core_wake(core, now + gap, &mut machine, &mut counters);
                for &(t, c) in h.settles.iter().chain(w.settles.iter()) {
                    machine.settle(c, t);
                }
            }
            now = end.resume_or(now + gap) + gap;
        }
    })
}

/// The RSU's decision engine alone: ns per decision (start or end).
fn rsu_engine(shape: &Shape) -> f64 {
    let cores = shape.machine.num_cores;
    let mut e = ReconfigEngine::new(cores, shape.fast);
    let mut rng = SplitMix64::new(17);
    per_op(2 * OPS, || {
        for i in 0..OPS {
            let core = i % cores;
            black_box(e.on_task_start(core, rng.next_unit() < shape.crit_share));
            black_box(e.on_task_end(core));
        }
    })
}

/// The reconfig-latency bench's input: one `rsu_start_task` +
/// `rsu_end_task` pair on cores in turn, ns per pair.
fn rsu_start_end_pair() -> f64 {
    let mut rsu = Rsu::init(RsuConfig::paper_default(16));
    let f = Frequency::from_ghz(2);
    per_op(OPS, || {
        for i in 0..OPS {
            let core = i % 32;
            black_box(
                rsu.start_task(core, core % 3 == 0, f)
                    .expect("core in range"),
            );
            black_box(rsu.end_task(core, f).expect("core in range"));
        }
    })
}

/// The serialized software cpufreq path: ns per request, requests 100 µs
/// apart as in the reconfig-latency bench.
fn software_path() -> f64 {
    let mut path = SoftwareDvfsPath::new(
        SoftwarePathParams::paper_calibrated(),
        SimDuration::from_us(25),
    );
    per_op(OPS, || {
        for i in 0..OPS {
            black_box(path.request(SimTime::from_us(100 * (i as u64 + 1))));
        }
    })
}

/// The progress model on the workload's mean task: start, a frequency
/// flip, and advancing to the next milestone. ns per call.
fn progress(shape: &Shape) -> f64 {
    let (mut cycles, mut mem, mut n) = (0u64, 0u64, 0u64);
    for (_, g) in &shape.graphs {
        let v = GraphView::from_graph(g);
        cycles += v.total_cpu_cycles();
        mem += (0..v.num_tasks())
            .map(|i| v.mem_ps(TaskId(i as u32)))
            .sum::<u64>();
        n += v.num_tasks() as u64;
    }
    let profile = ExecProfile::new(cycles / n.max(1), mem / n.max(1));
    let (slow, fast) = (
        shape.machine.slow_level.frequency,
        shape.machine.fast_level.frequency,
    );
    per_op(3 * OPS, || {
        for i in 0..OPS as u64 {
            let t0 = SimTime::from_ns(i);
            let mut rt = RunningTask::start(&profile, t0, slow);
            rt.set_frequency(t0 + SimDuration::from_ns(100), fast);
            black_box(rt.advance_to(t0 + SimDuration::from_ns(200)));
        }
    })
}

/// The substrate bench's input: 100 frequency flips on one task, in µs.
fn progress_freq_changes() -> f64 {
    let ((), ns) = timed(|| {
        let p = ExecProfile::new(1_000_000, 50_000);
        let mut rt = RunningTask::start(&p, SimTime::ZERO, Frequency::from_ghz(1));
        for i in 0..100u64 {
            let f = Frequency::from_ghz(if i % 2 == 0 { 2 } else { 1 });
            rt.set_frequency(SimTime::from_ns(i * 1000), f);
        }
        black_box(rt.progress());
    });
    ns as f64 / 1e3
}

/// The memory gate under arbitration `key`: all slots held, the
/// workload's waiter depth parked; per operation one slot frees, the
/// policy grants it, and a new request parks. ns per release+grant+enqueue.
fn memory(key: &str, shape: &Shape) -> f64 {
    let spec = MemorySpec {
        slots: shape.mem_slots as u64,
        arbitration: key.into(),
    };
    let mut policy = cata_core::default_arbitration_registry()
        .build(key, &spec)
        .expect("builtin arbitration builds");
    let mut gate = MemorySubsystem::new(shape.mem_slots);
    while gate.try_acquire() {}
    let cores = shape.machine.num_cores as u32;
    let mut rng = SplitMix64::new(19);
    for i in 0..shape.mem_waiters.max(1) as u32 {
        gate.enqueue(
            CoreId(i % cores),
            u8::from(rng.next_unit() < shape.crit_share),
            1000,
        );
    }
    per_op(OPS, || {
        for i in 0..OPS as u32 {
            gate.release();
            let granted = gate.grant(policy.as_mut()).expect("a waiter is parked");
            black_box(granted);
            gate.enqueue(
                CoreId(i % cores),
                u8::from(rng.next_unit() < shape.crit_share),
                1000,
            );
        }
    })
}

/// Histogram records of latencies spread like the workload's task
/// durations (log-uniform between the shortest and longest). ns/record.
fn histogram(shape: &Shape) -> f64 {
    let slow = shape.machine.slow_level.frequency;
    let durations: Vec<u64> = shape
        .graphs
        .iter()
        .flat_map(|(_, g)| {
            g.tasks()
                .map(move |t| t.profile.duration_at(slow).as_ps().max(1))
        })
        .take(OPS)
        .collect();
    let mut h = LatencyHistogram::new();
    let ns = per_op(OPS, || {
        for i in 0..OPS {
            h.record(SimDuration::from_ps(black_box(
                durations[i % durations.len()],
            )));
        }
    });
    black_box(h.count());
    ns
}

/// Energy integration over a machine whose cores each recorded `OPS /
/// cores` activity changes. ns per segment.
fn power(shape: &Shape) -> f64 {
    let mut machine = Machine::new(shape.machine.clone());
    let cores = shape.machine.num_cores;
    let per_core = OPS / cores;
    let acts = [Activity::Busy, Activity::Idle, Activity::Halted];
    for c in 0..cores {
        for i in 0..per_core {
            machine.set_activity(
                CoreId(c as u32),
                SimTime::from_ns(i as u64 * 100 + 1),
                acts[i % 3],
            );
        }
    }
    let end = SimTime::from_ns(per_core as u64 * 100 + 10);
    machine.finish(end);
    let segments: usize = machine.cores().map(|c| c.timeline().segments().len()).sum();
    let params = PowerParams::default();
    per_op(segments, || {
        black_box(integrate_machine(
            &machine,
            end.since(SimTime::ZERO),
            &params,
        ));
    })
}

/// What the TDG file layer costs on the workload's files.
pub struct TdgCost {
    pub mb_per_s: f64,
    pub verify_ms: f64,
    pub to_graph_ns_per_task: f64,
}

fn tdg(shape: &Shape, scratch: &Path) -> TdgCost {
    let files: Vec<PathBuf> = if shape.tdg_files.is_empty() {
        // No files of its own: export the workload's first graph.
        let (label, g) = &shape.graphs[0];
        let path = scratch.join("layer.tdg.json");
        std::fs::write(
            &path,
            TdgFile::from_graph(label.clone(), g).to_json_pretty(),
        )
        .expect("TDG export writes");
        vec![path]
    } else {
        shape.tdg_files.clone()
    };
    let (mut bytes, mut parse_ns, mut verify_ns, mut graph_ns, mut tasks) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for path in files {
        let text = std::fs::read_to_string(&path).expect("TDG file reads");
        bytes += text.len() as u64;
        let (file, ns) = timed(|| TdgFile::from_json(&text).expect("TDG file parses"));
        parse_ns += ns;
        let (_, ns) = timed(|| file.verify().expect("TDG file verifies"));
        verify_ns += ns;
        let (g, ns) = timed(|| file.to_graph().expect("TDG file converts"));
        graph_ns += ns;
        tasks += g.num_tasks() as u64;
    }
    TdgCost {
        mb_per_s: bytes as f64 / 1e6 / (parse_ns.max(1) as f64 / 1e9),
        verify_ms: verify_ns as f64 / 1e6,
        to_graph_ns_per_task: graph_ns as f64 / tasks.max(1) as f64,
    }
}

/// The default traffic for workloads without a service phase: dedup-tiny
/// at 150 arrivals/s for one simulated second under CATA.
fn default_service(seed: u64) -> (ServiceSpec, TrafficTape) {
    let w = WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, seed);
    let arrival = ArrivalSpec::Poisson { rate_hz: 150.0 };
    let duration = SimDuration::from_ms(1000);
    let tape = TrafficTape::generate("layer", &arrival, duration, w.clone(), seed)
        .expect("tape generates");
    let base = ScenarioSpec::preset("CATA", 16, w).expect("CATA preset resolves");
    let spec = ServiceSpec::new(
        base,
        ArrivalSpec::Tape {
            digest: String::new(),
        },
        duration,
    );
    (spec, tape)
}

/// Every inner-layer cost, measured once per traced run.
pub struct Costs {
    pub event_heap_ns: f64,
    pub event_wheel_ns: f64,
    pub event_push_pop_1k_us: f64,
    pub policy_ns: BTreeMap<String, f64>,
    pub accel_ns: BTreeMap<String, f64>,
    pub rsu_engine_ns: f64,
    pub rsu_pair_ns: f64,
    pub software_path_ns: f64,
    pub progress_ns: f64,
    pub progress_flips_us: f64,
    pub memory_ns: BTreeMap<String, f64>,
    pub histogram_ns: f64,
    pub power_ns: f64,
    pub tdg: TdgCost,
    pub view_ns_per_task: f64,
    /// `(label, visits, ns)` of one bottom-level pass per graph.
    pub bottom_level: Vec<(String, u64, u64)>,
    pub bottom_level_fork_join_us: f64,
    pub tape_generate_ms: f64,
    pub tape_parse_mb_per_s: f64,
    pub replay_ns_per_task: f64,
    pub store: StoreCost,
}

pub fn measure(
    shape: &Shape,
    setup: &SetupProfile,
    last: &Batch,
    scratch: &Path,
    seed: u64,
) -> Costs {
    let mut policy_ns = BTreeMap::new();
    for key in ["fifo", "cats", "cats-homogeneous"] {
        policy_ns.insert(key.to_string(), policy(key, shape));
    }
    let mut accel_ns = BTreeMap::new();
    for key in ["software-cata", "rsu", "turbo"] {
        accel_ns.insert(key.to_string(), accel(key, shape));
    }
    accel_ns.insert("static-hetero".to_string(), 0.0);
    let mut memory_ns = BTreeMap::new();
    for key in ["fifo", "crit-first", "round-robin"] {
        memory_ns.insert(key.to_string(), memory(key, shape));
    }

    let (mut view_ns, mut view_tasks) = (0u64, 0u64);
    let mut bottom_level = Vec::new();
    for (label, g) in &shape.graphs {
        let (_, ns) = timed(|| black_box(GraphView::from_graph(g)));
        view_ns += ns;
        view_tasks += g.num_tasks() as u64;
        let mut bl = BottomLevels::new();
        let ((), ns) = timed(|| {
            for id in g.task_ids() {
                bl.on_submit(g, id);
            }
        });
        bottom_level.push((label.clone(), bl.total_visits(), ns));
    }
    let ((), fj_ns) = timed(|| {
        let g = micro::fork_join(4, 64, 1000);
        let mut bl = BottomLevels::new();
        let mut graph = TaskGraph::new();
        let ty = graph.add_type("t", 0);
        for t in g.tasks() {
            let deps: Vec<_> = t.preds().to_vec();
            let id = graph.add_task(ty, t.profile.clone(), &deps);
            bl.on_submit(&graph, id);
        }
        black_box(bl.total_visits());
    });

    // Tape generate/parse: the workload's own set-up numbers when it has a
    // service phase, else the default traffic's.
    let (service, tape) = shape
        .service
        .clone()
        .unwrap_or_else(|| default_service(seed));
    let (tape_generate_ms, tape_parse_mb_per_s) = if setup.tape_bytes > 0 {
        (
            setup.tape_generate_ns as f64 / 1e6,
            setup.tape_bytes as f64 / 1e6 / (setup.tape_parse_ns.max(1) as f64 / 1e9),
        )
    } else {
        let arrival = ArrivalSpec::Poisson { rate_hz: 150.0 };
        let (t, gen_ns) = timed(|| {
            TrafficTape::generate(
                "layer",
                &arrival,
                SimDuration::from_ms(1000),
                tape.workloads[0].clone(),
                seed,
            )
            .expect("tape generates")
        });
        let text = t.to_jsonl();
        let (_, parse_ns) = timed(|| TrafficTape::from_jsonl(&text).expect("tape parses"));
        (
            gen_ns as f64 / 1e6,
            text.len() as f64 / 1e6 / (parse_ns.max(1) as f64 / 1e9),
        )
    };
    let replay_ns_per_task = match last.cells.first() {
        // Replay time per simulated task, over the batch's own replays.
        Some((_, r)) if r.service.is_some() => {
            last.cell_ms.iter().sum::<f64>() * 1e6 / last.tasks.max(1) as f64
        }
        _ => {
            let (r, ns) = timed(|| {
                replay_tape(
                    &service,
                    &tape,
                    default_registries(),
                    default_admission_registry(),
                )
                .expect("default traffic replays")
            });
            ns as f64 / r.counters.tasks_completed.max(1) as f64
        }
    };

    Costs {
        event_heap_ns: event_hold(EventBackend::Heap, shape.machine.num_cores),
        event_wheel_ns: event_hold(EventBackend::CalendarWheel, shape.machine.num_cores),
        event_push_pop_1k_us: event_push_pop_1k(),
        policy_ns,
        accel_ns,
        rsu_engine_ns: rsu_engine(shape),
        rsu_pair_ns: rsu_start_end_pair(),
        software_path_ns: software_path(),
        progress_ns: progress(shape),
        progress_flips_us: progress_freq_changes(),
        memory_ns,
        histogram_ns: histogram(shape),
        power_ns: power(shape),
        tdg: tdg(shape, scratch),
        view_ns_per_task: view_ns as f64 / view_tasks.max(1) as f64,
        bottom_level,
        bottom_level_fork_join_us: fj_ns as f64 / 1e3,
        tape_generate_ms,
        tape_parse_mb_per_s,
        replay_ns_per_task,
        store: store(last, scratch),
    }
}

/// Store, progress and dashboard costs on the workload's own cells.
pub struct StoreCost {
    pub append_us: f64,
    pub record_bytes: f64,
    pub load_mb_per_s: f64,
    pub merge_records_per_s: f64,
    pub emit_us: f64,
    pub ingest_store_us: f64,
    pub ingest_progress_us: f64,
    pub render_ms: f64,
    pub to_text_ms: f64,
}

fn store(last: &Batch, scratch: &Path) -> StoreCost {
    let dir = scratch.join("layer-store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("layer store dir creates");
    let records: Vec<CellRecord> = last
        .cells
        .iter()
        .enumerate()
        .map(|(i, (spec, r))| {
            CellRecord::new(i as u64, spec, "layer".into(), 0.001, r.clone())
                .with_host(cata_core::exp::host_fingerprint())
                .with_spec(spec.clone())
        })
        .collect();
    let n = records.len().max(1);
    let halves = [dir.join("a.jsonl"), dir.join("b.jsonl")];
    let stores: Vec<ResultsStore> = halves
        .iter()
        .map(|p| ResultsStore::open(p).expect("layer store opens"))
        .collect();
    let ((), append_ns) = timed(|| {
        for (i, rec) in records.iter().enumerate() {
            stores[i % 2].append(rec).expect("record appends");
        }
    });
    let bytes: u64 = halves
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    let (_, load_ns) = timed(|| {
        for p in &halves {
            black_box(ResultsStore::load(p).expect("layer store loads"));
        }
    });
    let (merged, merge_ns) =
        timed(|| ResultsStore::merge_files(&halves).expect("layer stores merge"));

    let progress_path = dir.join("p.progress.jsonl");
    let writer = ProgressWriter::open(&progress_path, 1).expect("progress opens");
    let ((), emit_ns) = timed(|| {
        for (i, rec) in records.iter().enumerate() {
            let index = i as u64;
            let _ = writer.emit(ProgressEvent::CellStart {
                index,
                name: rec.cell.clone(),
                spec_digest: rec.spec_digest.clone(),
            });
            let _ = writer.emit(ProgressEvent::CellFinish {
                index,
                cell: rec.cell.clone(),
                ok: true,
                wall_s: rec.wall_s,
            });
        }
    });
    let store_lines: Vec<String> = halves
        .iter()
        .flat_map(|p| {
            std::fs::read_to_string(p)
                .unwrap_or_default()
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect();
    let progress_lines: Vec<String> = std::fs::read_to_string(&progress_path)
        .unwrap_or_default()
        .lines()
        .map(str::to_string)
        .collect();
    let mut state = DashState::new();
    let ((), store_ns) = timed(|| store_lines.iter().for_each(|l| state.ingest_store_line(l)));
    let ((), progress_ns) = timed(|| {
        progress_lines
            .iter()
            .for_each(|l| state.ingest_progress_line(l))
    });
    let h = cata_obs::required_height(&state, 160);
    let (frame, render_ns) = timed(|| cata_obs::render(&state, 160, h));
    let (_, text_ns) = timed(|| black_box(frame.to_text()));
    let _ = std::fs::remove_dir_all(&dir);
    StoreCost {
        append_us: append_ns as f64 / 1e3 / n as f64,
        record_bytes: bytes as f64 / n as f64,
        load_mb_per_s: bytes as f64 / 1e6 / (load_ns.max(1) as f64 / 1e9),
        merge_records_per_s: merged.records.len() as f64 / (merge_ns.max(1) as f64 / 1e9),
        emit_us: emit_ns as f64 / 1e3 / (2 * n) as f64,
        ingest_store_us: store_ns as f64 / 1e3 / store_lines.len().max(1) as f64,
        ingest_progress_us: progress_ns as f64 / 1e3 / progress_lines.len().max(1) as f64,
        render_ms: render_ns as f64 / 1e6,
        to_text_ms: text_ns as f64 / 1e6,
    }
}
