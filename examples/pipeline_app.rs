//! A dedup-style pipeline under all six paper configurations, run as one
//! parallel `Suite` through the experiment facade.
//!
//! Pipelines are where criticality pays: the serial write chain sits on the
//! critical path, and schedulers that know it (CATS/CATA) keep it on fast
//! silicon. This example fans the six-config comparison across worker
//! threads, prints the comparison the paper's figures make, then replays a
//! traced CATA+RSU scenario to show a criticality-driven displacement.
//!
//! ```text
//! cargo run --release --example pipeline_app
//! ```

use cata_core::exp::{Scenario, ScenarioSpec, Suite, WorkloadSpec};
use cata_core::SimExecutor;
use cata_sim::trace::TraceEvent;
use cata_workloads::{Benchmark, Scale};

fn main() {
    let workload = WorkloadSpec::parsec(Benchmark::Dedup, Scale::Small, 42);
    let graph = workload.build_graph();
    println!(
        "dedup-like pipeline: {} tasks, depth {}, max parents {}",
        graph.num_tasks(),
        graph.stats().depth,
        graph.stats().max_preds
    );

    let fast = 8; // 8 fast cores / budget 8, the paper's tightest setting
    let exec = SimExecutor;

    // The whole comparison as one suite, fanned across 4 worker threads.
    // Deterministic per-run seeding makes this bit-identical to a serial
    // run.
    let suite = Suite::from_specs(ScenarioSpec::paper_matrix(fast, workload.clone())).jobs(4);
    let reports = suite.run_all(&exec);

    let baseline = &reports[0];
    println!(
        "\n{:<10} {:>12} {:>9} {:>9} {:>11}",
        "config", "time", "speedup", "EDP", "reconfigs"
    );
    for report in &reports {
        println!(
            "{:<10} {:>12} {:>9.3} {:>9.3} {:>11}",
            report.label,
            report.exec_time.to_string(),
            report.speedup_over(baseline),
            report.edp_normalized_to(baseline).unwrap_or(f64::NAN),
            report.counters.reconfigs_applied
        );
    }

    // Show the first criticality-driven displacement in a traced CATA run.
    let traced = Scenario::from_spec(
        ScenarioSpec::preset("CATA+RSU", fast, workload)
            .expect("paper preset")
            .with_trace(),
    );
    let (report, trace) = exec.run_scenario_traced(&traced).expect("traced run");
    println!(
        "\nCATA+RSU performed {} swaps (critical task displacing a non-critical one).",
        report.counters.accel_swaps
    );
    let mut shown = 0;
    for rec in trace.records() {
        if let TraceEvent::ReconfigApplied { core, level } = rec.event {
            println!("  {:>12}  {core} settles at {level}", rec.time.to_string());
            shown += 1;
            if shown >= 8 {
                break;
            }
        }
    }

    // And the schedule itself, Paraver style (first 8 cores).
    println!(
        "\nschedule (first 8 cores):\n{}",
        cata_core::gantt::render(
            &trace,
            8,
            cata_sim::time::SimTime::ZERO + report.exec_time,
            100
        )
    );
}
