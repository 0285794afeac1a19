//! Allocation budgets of the simulation engine's per-task hooks and of
//! reading a task graph.
//!
//! Every hook the engine calls per task — criticality estimation, the
//! acceleration decision and its cost model, the progress model — must
//! run without touching the heap once the thread's scratch buffers are
//! warm. A counting global allocator, with one counter per thread, counts
//! the heap calls of a second paper-scale Dedup run of each of the six
//! presets on this test's thread. What remains is the fixed cost of
//! building a run (machine, policies, report) and the cores' activity
//! timelines, one block per 512 segments, so each preset must stay under
//! 0.04 allocations per task (179–225 allocations for 8 256 tasks;
//! 579–633 when each timeline grew two doubling vectors).
//!
//! An activity timeline holds 5 bytes per segment, a `u32` duration and
//! a state byte in fixed blocks: a 100 000-segment timeline holds at most
//! 5.1 bytes of heap per segment (11.8 in doubling vectors of `u64`
//! durations and state bytes).
//!
//! Reading a `.tdg.json` allocates what the file holds: the task list,
//! each task's dependence list and the type names, and nothing per key or
//! per number. The six Small-scale exports must read under 2 allocations
//! per task. Building a graph from such a file allocates the graph's
//! columns, the type names and the block list of each task that blocks,
//! and nothing per task or per edge: besides the block lists, under 0.1
//! allocations per task (2.4 per task when each task owned its edge
//! lists).
//!
//! A graph holds its tasks as columns, so the six paper-scale graphs a
//! sweep keeps hold at most 84 bytes of heap per task, successor lists
//! built; per-task edge vectors held 189.
//!
//! A store line read back holds its report's latency histograms as their
//! occupied buckets, so a parsed record leaves at most twice the line's
//! length live on the heap: a closed Dedup-tiny cell and a 1 s service
//! cell at 150 arrivals/s, both made here. A dense bucket array per
//! histogram left 15.4 and 7.0 times the line.

use cata_bench::matrix::DEFAULT_SEED;
use cata_core::exp::{default_registries, CellRecord, ScenarioSpec, WorkloadSpec};
use cata_core::service::{default_admission_registry, run_service, ArrivalSpec, ServiceSpec};
use cata_core::SimExecutor;
use cata_sim::activity::{Activity, ActivityTimeline};
use cata_sim::machine::PowerLevel;
use cata_sim::time::{SimDuration, SimTime};
use cata_tdg::file::TdgFile;
use cata_tdg::GraphView;
use cata_workloads::{generate, Benchmark, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calling thread's `alloc`,
/// `alloc_zeroed` and `realloc` calls, and the bytes it holds: what it
/// allocated less what it freed.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one heap call that takes `grow` bytes (negative: gives back).
fn count(calls: u64, grow: i64) {
    // `try_with`: a thread's last frees can run after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + calls));
    let _ = LIVE.try_with(|n| n.set(n.get() + grow));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized thread locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PRESETS: [&str; 6] = [
    "FIFO",
    "CATS+BL",
    "CATS+SA",
    "CATA",
    "CATA+RSU",
    "TurboMode",
];

/// Allocations per completed task of the second of two runs on this
/// thread.
fn warm_allocs_per_task(preset: &str) -> (u64, u64) {
    let workload = WorkloadSpec::parsec(Benchmark::Dedup, Scale::Paper, 42);
    let spec = ScenarioSpec::preset(preset, 16, workload).expect("preset");
    let run = || {
        SimExecutor
            .run_spec(&spec, default_registries())
            .expect("run")
            .0
    };
    run();
    let before = ALLOCS.with(Cell::get);
    let report = run();
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, report.counters.tasks_completed)
}

#[test]
fn warm_runs_allocate_under_a_25th_per_task() {
    let measured: Vec<_> = PRESETS
        .iter()
        .map(|&p| (p, warm_allocs_per_task(p)))
        .collect();
    let table: String = measured
        .iter()
        .map(|(p, (a, t))| format!("\n  {p}: {a} allocations, {t} tasks"))
        .collect();
    for (preset, (allocs, tasks)) in &measured {
        assert!(*tasks > 8_000, "{preset} ran {tasks} tasks{table}");
        assert!(
            *allocs * 25 < *tasks,
            "{preset}: {:.3} allocations per task{table}",
            *allocs as f64 / *tasks as f64
        );
    }
}

#[test]
fn timelines_hold_under_5_1_bytes_per_segment() {
    const SEGMENTS: u64 = 100_000;
    let before = LIVE.with(Cell::get);
    let mut timeline = ActivityTimeline::new(PowerLevel::paper_slow(), Activity::Idle);
    let mut now = SimTime::ZERO;
    for i in 0..SEGMENTS {
        // 1 ns to about 4.1 ms: every duration fits the column.
        now += SimDuration::from_ns(1 + i * 41);
        let activity = [Activity::Busy, Activity::Idle][i as usize % 2];
        timeline.record(now, PowerLevel::paper_slow(), activity);
    }
    timeline.close(now);
    let held = LIVE.with(Cell::get) - before;
    assert_eq!(timeline.segments().len() as u64, SEGMENTS);
    assert!(
        held as f64 <= 5.1 * SEGMENTS as f64,
        "{:.2} bytes per segment",
        held as f64 / SEGMENTS as f64
    );
}

#[test]
fn tdg_reads_allocate_under_two_per_task() {
    let exports: Vec<(Benchmark, String, usize)> = Benchmark::all()
        .into_iter()
        .map(|bench| {
            let (graph, tdg) = WorkloadSpec::parsec(bench, Scale::Small, 1)
                .capture()
                .expect("generator captures");
            (bench, tdg.to_json_pretty(), graph.num_tasks())
        })
        .collect();
    let mut table = String::new();
    let (mut allocs, mut tasks) = (0, 0);
    for (bench, text, n) in &exports {
        let before = ALLOCS.with(Cell::get);
        let file = TdgFile::from_json(text).expect("export reads back");
        let made = ALLOCS.with(Cell::get) - before;
        assert_eq!(file.num_tasks(), *n);
        table += &format!("\n  {bench:?}: {made} allocations, {n} tasks");
        allocs += made;
        tasks += *n as u64;
    }
    assert!(tasks > 5_000, "{tasks} tasks{table}");
    assert!(
        allocs < 2 * tasks,
        "{:.2} allocations per task{table}",
        allocs as f64 / tasks as f64
    );
}

#[test]
fn tdg_graphs_build_under_a_tenth_allocation_per_task() {
    let files: Vec<(Benchmark, TdgFile)> = Benchmark::all()
        .into_iter()
        .map(|bench| {
            let (_, tdg) = WorkloadSpec::parsec(bench, Scale::Small, 1)
                .capture()
                .expect("generator captures");
            (bench, tdg)
        })
        .collect();
    let mut table = String::new();
    let (mut allocs, mut blocking, mut tasks) = (0, 0, 0);
    for (bench, file) in &files {
        let before = ALLOCS.with(Cell::get);
        let graph = file.to_graph().expect("export builds");
        let made = ALLOCS.with(Cell::get) - before;
        let n = graph.num_tasks();
        let blocks = graph
            .tasks()
            .filter(|t| !t.profile.blocks.is_empty())
            .count();
        table += &format!("\n  {bench:?}: {made} allocations, {n} tasks, {blocks} blocking");
        allocs += made;
        blocking += blocks as u64;
        tasks += n as u64;
    }
    assert!(tasks > 5_000, "{tasks} tasks{table}");
    assert!(
        (allocs - blocking) * 10 < tasks,
        "{:.3} allocations per task besides block lists{table}",
        (allocs - blocking) as f64 / tasks as f64
    );
}

/// The six paper-scale graphs, as a sweep's graph cache holds them (their
/// successor lists built), hold at most 84 bytes of heap per task: 79.4
/// now, so about 6% headroom. Block lists that reserve room for four
/// points, where a generator adds one, read 84.6.
#[test]
fn paper_graphs_hold_under_84_bytes_per_task() {
    let mut table = String::new();
    let (mut live, mut tasks) = (0, 0);
    let mut graphs = Vec::new();
    for bench in Benchmark::all() {
        let before = LIVE.with(Cell::get);
        let graph = generate(bench, Scale::Paper, 1);
        // The first view transposes the predecessors into successor lists.
        GraphView::from_graph(&graph);
        let held = LIVE.with(Cell::get) - before;
        let n = graph.num_tasks();
        table += &format!(
            "\n  {bench:?}: {held} bytes, {n} tasks, {} edges",
            graph.num_edges()
        );
        live += held;
        tasks += n as i64;
        graphs.push(graph);
    }
    assert!(tasks > 20_000, "{tasks} tasks{table}");
    assert!(
        live <= 84 * tasks,
        "{:.1} bytes per task{table}",
        live as f64 / tasks as f64
    );
}

/// Heap bytes a record read from `line` holds, over the line's length.
fn parsed_heap_per_byte(line: &str) -> f64 {
    let before = LIVE.with(Cell::get);
    let record: CellRecord = serde_json::from_str(line).expect("the line reads back");
    let live = LIVE.with(Cell::get) - before;
    drop(record);
    live as f64 / line.len() as f64
}

#[test]
fn parsed_store_lines_hold_under_twice_their_length() {
    let workload = WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, DEFAULT_SEED);
    let spec = ScenarioSpec::preset("CATA", 8, workload).expect("preset");
    let (report, _) = SimExecutor
        .run_spec(&spec, default_registries())
        .expect("run");
    let closed = CellRecord::new(0, &spec, "grid".into(), 0.01, report)
        .with_host("0123456789abcdef".into())
        .with_times(1, 2)
        .with_spec(spec.clone());

    let mut base = ScenarioSpec::preset(
        "CATA",
        16,
        WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, 42),
    )
    .expect("preset");
    base.seed = 42;
    let service = ServiceSpec::new(
        base,
        ArrivalSpec::Poisson { rate_hz: 150.0 },
        SimDuration::from_ms(1_000),
    );
    let (report, _) = run_service(&service, default_registries(), default_admission_registry())
        .expect("service run");
    let served = CellRecord::new(1, &service.base, "grid".into(), 0.01, report);

    let measured: Vec<_> = [("CATA Dedup-tiny", closed), ("serve 1 s", served)]
        .into_iter()
        .map(|(name, record)| {
            let line = serde_json::to_string(&record).expect("the record writes");
            (name, line.len(), parsed_heap_per_byte(&line))
        })
        .collect();
    let table: String = measured
        .iter()
        .map(|(name, len, ratio)| format!("\n  {name}: {len}-byte line, {ratio:.2} bytes per byte"))
        .collect();
    for (name, _, ratio) in &measured {
        assert!(*ratio <= 2.0, "{name}{table}");
    }
}
