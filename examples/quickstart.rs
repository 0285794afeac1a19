//! Quickstart: describe a run as a `ScenarioSpec`, execute it under the
//! baseline FIFO scheduler and under CATA+RSU, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cata_core::exp::{Scenario, ScenarioSpec, WorkloadSpec};
use cata_core::SimExecutor;
use cata_workloads::{Benchmark, Scale};

fn main() {
    // The dedup pipeline: a serial I/O chain sits on the critical path, so
    // criticality-aware scheduling pays. The workload spec is serializable,
    // so this exact run can be saved and replayed (`spec.to_json()` /
    // `repro run`).
    let workload = WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, 42);

    // The paper's Table I machine with 8 fast cores (FIFO) / an 8-core
    // power budget (CATA+RSU). `ScenarioSpec::new` is the FIFO baseline;
    // policies are referenced by registry key. The six paper
    // configurations are pre-registered, and `Scenario::preset` is the
    // shorthand for them.
    let exec = SimExecutor;
    let fifo_spec = ScenarioSpec {
        fast_cores: 8,
        ..ScenarioSpec::new("FIFO", workload.clone())
    };
    let cata_spec = ScenarioSpec {
        fast_cores: 8,
        scheduler: "cats-homogeneous".into(),
        estimator: "static-annotations".into(),
        accel: "rsu".into(),
        ..ScenarioSpec::new("CATA+RSU", workload)
    };
    let fifo = Scenario::from_spec(fifo_spec).run(&exec).expect("fifo run");
    let cata = Scenario::from_spec(cata_spec).run(&exec).expect("cata run");

    println!("{}", fifo.summary());
    println!("{}", cata.summary());
    println!(
        "\nCATA+RSU speedup over FIFO: {:.3}x   normalized EDP: {:.3}",
        cata.speedup_over(&fifo),
        cata.edp_normalized_to(&fifo).unwrap_or(f64::NAN)
    );
    println!(
        "reconfigurations applied: {}   accelerate-swaps: {}",
        cata.counters.reconfigs_applied, cata.counters.accel_swaps
    );
}
