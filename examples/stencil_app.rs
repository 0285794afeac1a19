//! A fluidanimate-style stencil: the worst case for dynamic bottom-level
//! estimation and for the software reconfiguration path.
//!
//! The stencil TDG gives every interior task nine parents. That makes the
//! CATS+BL ancestor walk expensive (the paper measures up to a 9.8 %
//! *slowdown*), and the per-phase dependence fronts make reconfigurations
//! bursty, which the serialized software path turns into millisecond lock
//! waits (§V-C) — the RSU's reason to exist. This example measures both
//! effects directly, with every run described by a preset scenario.
//!
//! ```text
//! cargo run --release --example stencil_app
//! ```

use cata_core::exp::{Scenario, WorkloadSpec};
use cata_core::SimExecutor;
use cata_workloads::{Benchmark, Scale};

fn main() {
    let workload = WorkloadSpec::parsec(Benchmark::Fluidanimate, Scale::Small, 7);
    let stats = workload.build_graph().stats();
    println!(
        "stencil: {} tasks, {} edges, depth {}, max parents {} (paper: up to 9)",
        stats.tasks, stats.edges, stats.depth, stats.max_preds
    );

    let fast = 16;
    let exec = SimExecutor;
    let run = |label: &str| {
        Scenario::preset(label, fast, workload.clone())
            .expect("paper preset")
            .run(&exec)
            .expect("scenario run")
    };
    let fifo = run("FIFO");

    // 1. The BL-vs-SA estimation cost.
    let bl = run("CATS+BL");
    let sa = run("CATS+SA");
    println!("\ncriticality estimation on a dense TDG:");
    println!(
        "  CATS+BL: speedup {:.3} (ancestor walks delay task submission)",
        bl.speedup_over(&fifo)
    );
    println!(
        "  CATS+SA: speedup {:.3} (annotations are free)",
        sa.speedup_over(&fifo)
    );

    // 2. The software-path contention, and what the RSU buys.
    let sw = run("CATA");
    let hw = run("CATA+RSU");
    println!("\nreconfiguration path under bursty stencil fronts:");
    println!(
        "  CATA (software): speedup {:.3}, {} reconfigs, max lock wait {}, overhead {:.2}%",
        sw.speedup_over(&fifo),
        sw.counters.reconfigs_applied,
        sw.lock_waits.max(),
        sw.reconfig_time_share * 100.0
    );
    println!(
        "  CATA+RSU:        speedup {:.3}, {} reconfigs, no locks",
        hw.speedup_over(&fifo),
        hw.counters.reconfigs_applied
    );
    println!(
        "  RSU gain over software CATA: {:.1}%",
        (hw.speedup_over(&sw) - 1.0) * 100.0
    );
}
