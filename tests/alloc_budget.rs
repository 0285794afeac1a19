//! Allocation budgets of the simulation engine's per-task hooks and of
//! reading a task graph.
//!
//! Every hook the engine calls per task — criticality estimation, the
//! acceleration decision and its cost model, the progress model — must
//! run without touching the heap once the thread's scratch buffers are
//! warm. A counting global allocator, with one counter per thread, counts
//! the heap calls of a second paper-scale Dedup run of each of the six
//! presets on this test's thread. What remains is the fixed cost of
//! building a run (machine, policies, report), so each preset must stay
//! under 0.1 allocations per task.
//!
//! Reading a `.tdg.json` allocates what the file holds: the task list,
//! each task's dependence list and the type names, and nothing per key or
//! per number. The six Small-scale exports must read under 2 allocations
//! per task.

use cata_core::exp::{default_registries, ScenarioSpec, WorkloadSpec};
use cata_core::SimExecutor;
use cata_tdg::file::TdgFile;
use cata_workloads::{Benchmark, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls of the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's last frees can run after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
fn warm_runs_allocate_under_a_tenth_per_task() {
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
            *allocs * 10 < *tasks,
            "{preset}: {:.3} allocations per task{table}",
            *allocs as f64 / *tasks as f64
        );
    }
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
