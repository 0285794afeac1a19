//! The native executor: real threads, real closures, real (or mock) DVFS.
//!
//! Act 1 — the facade: the *same* `Scenario` runs on the simulator and on
//! the native thread-pool runtime through the one `Executor` call shape;
//! only the backend changes.
//!
//! Act 2 — the lower-level library API a downstream user adopts directly:
//! spawn dependent tasks with criticality annotations and OmpSs-style
//! region accesses, and let the runtime apply the CATA algorithm through a
//! cpufreq backend. On a Linux host whose cores expose a writable
//! `scaling_setspeed` (userspace governor), the runtime drives the real
//! sysfs files; everywhere else a recording mock keeps the example running.
//!
//! ```text
//! cargo run --release --example native_runtime
//! ```

use cata_core::exp::{Executor, NativeExecutor, Scenario, WorkloadSpec};
use cata_core::native::{NativeRuntime, RsmMode};
use cata_core::SimExecutor;
use cata_cpufreq::backend::{DvfsBackend, MockDvfs, SysfsDvfs};
use cata_tdg::deps::{AccessMode, RegionId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn busy_work(iters: u64) -> u64 {
    // Real CPU work so acceleration would matter on real hardware.
    let mut x = 0x9E3779B97F4A7C15u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

fn main() {
    // Act 1: one scenario, two executors.
    let scenario = Scenario::preset(
        "CATA+RSU",
        2,
        WorkloadSpec::ForkJoin {
            waves: 3,
            width: 12,
            cycles: 2_000_000,
        },
    )
    .expect("paper preset");
    let mut scenario = scenario;
    scenario.spec_mut().machine = cata_sim::machine::MachineConfig::small_test(4);

    let sim_report = SimExecutor.execute(&scenario).expect("sim run");
    let native_report = NativeExecutor::new()
        .max_workers(4)
        .execute(&scenario)
        .expect("native run");
    println!("one scenario, two backends:");
    println!("  sim:    {}", sim_report.summary());
    println!("  native: {}", native_report.summary());

    // Act 2: the runtime as a library, with region-derived dependences.
    let workers = 4;
    let (backend, kind): (Arc<dyn DvfsBackend>, &str) = match SysfsDvfs::detect(workers) {
        Some(real) => (Arc::new(real), "sysfs (real cpufreq!)"),
        None => (
            Arc::new(MockDvfs::new(workers, 1_000_000)),
            "mock (no cpufreq permission)",
        ),
    };
    println!("\nDVFS backend: {kind}");

    let rt = NativeRuntime::builder(workers)
        .budget(2)
        .rsm_mode(RsmMode::RsuEmulated)
        .backend(backend)
        .build();

    // A small pipeline: produce → (critical) transform chain + side work →
    // reduce, with dependences derived from data regions, OmpSs style.
    let data = RegionId(1);
    let accum = Arc::new(AtomicU64::new(0));

    let a = Arc::clone(&accum);
    rt.spawn_with_accesses(false, &[(data, AccessMode::Out)], move || {
        a.fetch_add(busy_work(200_000) & 0xFF, Ordering::Relaxed);
    });

    for _ in 0..3 {
        let a = Arc::clone(&accum);
        // Critical chain: each step rewrites the shared region.
        rt.spawn_with_accesses(true, &[(data, AccessMode::InOut)], move || {
            a.fetch_add(busy_work(800_000) & 0xFF, Ordering::Relaxed);
        });
    }

    for i in 0..8 {
        let a = Arc::clone(&accum);
        let region = RegionId(100 + i);
        rt.spawn_with_accesses(false, &[(region, AccessMode::Out)], move || {
            a.fetch_add(busy_work(300_000) & 0xFF, Ordering::Relaxed);
        });
    }

    let a = Arc::clone(&accum);
    rt.spawn_with_accesses(false, &[(data, AccessMode::In)], move || {
        a.fetch_add(busy_work(100_000) & 0xFF, Ordering::Relaxed);
    });

    rt.wait_all();
    let m = rt.metrics();
    println!(
        "ran {} tasks; {} DVFS writes ({} failed), {} denied accelerations, {} ns under the RSM lock",
        m.tasks_run, m.reconfigs, m.reconfig_failures, m.accel_denied, m.rsm_lock_ns
    );
    println!(
        "accumulator (keeps the optimizer honest): {}",
        accum.load(Ordering::Relaxed)
    );
}
