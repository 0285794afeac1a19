//! Cross-crate integration tests: workload generation → scheduling →
//! acceleration → power, end to end, driven through the `exp` facade
//! (scenarios + executors + suites), plus the native executor running
//! graph-shaped work on real threads.

use cata_core::exp::{Scenario, Suite};
use cata_core::native::NativeRuntime;
use cata_core::{RunReport, ScenarioSpec, SimExecutor, WorkloadSpec};
use cata_cpufreq::software_path::SoftwarePathParams;
use cata_sim::time::SimDuration;
use cata_sim::trace::{Trace, TraceEvent};
use cata_workloads::{micro, Benchmark, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SEED: u64 = 0x5EED_CA7A;

fn workload(bench: Benchmark) -> WorkloadSpec {
    WorkloadSpec::parsec(bench, Scale::Tiny, SEED)
}

fn run_spec(spec: ScenarioSpec) -> RunReport {
    Scenario::from_spec(spec)
        .run(&SimExecutor)
        .expect("scenario run")
}

fn run_preset(label: &str, fast: usize, w: WorkloadSpec) -> RunReport {
    run_spec(ScenarioSpec::preset(label, fast, w).expect("paper preset"))
}

fn run_traced(spec: ScenarioSpec) -> (RunReport, Trace) {
    SimExecutor
        .run_scenario_traced(&Scenario::from_spec(spec.with_trace()))
        .expect("traced scenario run")
}

/// The three trace modes through the facade: `Counters` tallies every kind
/// a `Full` trace stores — without storing anything — and `Off` (the suite
/// default) collects nothing at all. All three produce the identical
/// report: collection must never perturb the simulation.
#[test]
fn trace_modes_agree_and_only_full_stores() {
    use cata_core::exp::TraceMode;
    let spec = ScenarioSpec::preset("CATA", 2, workload(Benchmark::Dedup))
        .expect("preset")
        .with_small_machine(4, 2);
    let exec = SimExecutor;
    let run = |mode: TraceMode| {
        exec.run_scenario_traced(&Scenario::from_spec(spec.clone().with_trace_mode(mode)))
            .expect("traced run")
    };
    let (r_off, t_off) = run(TraceMode::Off);
    let (r_cnt, t_cnt) = run(TraceMode::Counters);
    let (r_full, t_full) = run(TraceMode::Full);

    assert!(t_off.records().is_empty() && t_off.counts().total() == 0);
    assert!(t_cnt.records().is_empty(), "counters mode must not store");
    assert_eq!(t_cnt.counts(), t_full.counts(), "tallies must agree");
    assert_eq!(
        t_full.records().len() as u64,
        t_full.counts().total(),
        "full mode stores every tallied record"
    );
    assert_eq!(t_full.counts().task_ends, r_full.counters.tasks_completed);
    for r in [&r_cnt, &r_full] {
        assert_eq!(r_off.exec_time, r.exec_time, "trace mode changed timing");
        assert_eq!(r_off.energy.energy_j, r.energy.energy_j);
        assert_eq!(r_off.counters.sim_events, r.counters.sim_events);
    }
}

/// Every configuration completes every benchmark and reports the identical
/// task count — no configuration may lose or duplicate work. The whole
/// matrix runs as one parallel suite.
#[test]
fn all_configs_complete_all_benchmarks() {
    for bench in Benchmark::all() {
        let w = workload(bench);
        let expect = w.build_graph().num_tasks() as u64;
        let specs = ScenarioSpec::paper_matrix(8, w);
        let reports = Suite::from_specs(specs).jobs(3).run_all(&SimExecutor);
        for r in reports {
            assert_eq!(
                r.counters.tasks_completed,
                expect,
                "{} on {} lost tasks",
                r.label,
                bench.name()
            );
            assert!(r.exec_time > SimDuration::ZERO);
            assert!(r.energy.energy_j > 0.0);
        }
    }
}

/// The whole pipeline is deterministic: identical spec + identical seed
/// produce bit-identical reports.
#[test]
fn end_to_end_determinism() {
    let w = workload(Benchmark::Bodytrack);
    for label in ["FIFO", "CATS+BL", "CATA", "CATA+RSU", "TurboMode"] {
        let a = run_preset(label, 8, w.clone());
        let b = run_preset(label, 8, w.clone());
        assert_eq!(a.exec_time, b.exec_time, "{} not deterministic", a.label);
        assert_eq!(a.energy.energy_j, b.energy.energy_j);
        assert_eq!(a.counters.reconfigs_applied, b.counters.reconfigs_applied);
        assert_eq!(a.lock_waits.count(), b.lock_waits.count());
    }
}

/// Replaying the trace of every dynamic configuration: the settled fast-core
/// count exceeds the power budget only in transient excursions bounded by
/// the DVFS transition latency (a superseded down-ramp overlapping an
/// up-ramp — gem5's DVFS model shows the same), and never by more than one
/// core. The *committed* budget invariant is asserted live inside the
/// executor (debug builds) on every reconfiguration.
#[test]
fn budget_excursions_are_transient_and_bounded() {
    let budget = 3;
    let w = workload(Benchmark::Fluidanimate);
    for label in ["CATA", "CATA+RSU", "TurboMode"] {
        let mut spec = ScenarioSpec::preset(label, budget, w.clone()).expect("paper preset");
        spec.machine.num_cores = 8;
        let (report, trace) = run_traced(spec);
        let mut fast = [false; 8];
        let mut over_time = SimDuration::ZERO;
        let mut prev = cata_sim::time::SimTime::ZERO;
        let mut over = false;
        for rec in trace.records() {
            if let TraceEvent::ReconfigApplied { core, level } = rec.event {
                if over {
                    over_time += rec.time.saturating_since(prev);
                }
                prev = rec.time;
                fast[core.index()] = level.frequency.as_mhz() == 2000;
                let n = fast.iter().filter(|&&f| f).count();
                assert!(
                    n <= budget + 1,
                    "{label}: {n} fast cores at {} — more than a one-core excursion",
                    rec.time
                );
                over = n > budget;
            }
        }
        // Rail-overlap excursions (a superseded down-ramp overlapping an
        // up-ramp) must stay a negligible share of the run.
        let share = over_time.ratio(report.exec_time);
        assert!(
            share < 0.02,
            "{label}: over-budget for {:.2}% of the run",
            share * 100.0
        );
    }
}

/// With a free software path (all latencies zero), software CATA and
/// CATA+RSU take identical decisions and produce identical schedules — the
/// two paths share one decision engine and differ only in cost.
#[test]
fn zero_cost_software_path_equals_rsu_modulo_op_cost() {
    let w = workload(Benchmark::Swaptions);
    let mut sw_spec = ScenarioSpec::preset("CATA", 8, w.clone()).expect("paper preset");
    sw_spec
        .params
        .get_or_insert_with(Default::default)
        .software_path = Some(SoftwarePathParams {
        rsm_section: SimDuration::ZERO,
        sysfs_write: SimDuration::ZERO,
        driver: SimDuration::ZERO,
        driver_waits_transition: false,
        kernel_post: SimDuration::ZERO,
    });
    let sw = run_spec(sw_spec);

    // The RSU charges a 32-cycle op cost; compare against software with zero
    // cost: the RSU run can be at most marginally slower per task.
    let hw = run_preset("CATA+RSU", 8, w);
    let ratio = hw.exec_time.as_ps() as f64 / sw.exec_time.as_ps() as f64;
    assert!(
        (0.999..1.01).contains(&ratio),
        "free software path should match RSU: ratio {ratio}"
    );
    assert_eq!(
        sw.counters.reconfigs_applied, hw.counters.reconfigs_applied,
        "shared engine must issue identical reconfigurations"
    );
}

/// Under CATS+SA, critical tasks land on fast cores far more often than
/// under FIFO — the scheduler is actually using the criticality signal.
#[test]
fn cats_places_critical_tasks_on_fast_cores() {
    let w = workload(Benchmark::Dedup);
    let graph = w.build_graph();
    let frac_fast = |label: &str| -> f64 {
        let spec = ScenarioSpec::preset(label, 8, w.clone()).expect("paper preset");
        let (_, trace) = run_traced(spec);
        let (mut crit_fast, mut crit_all) = (0u32, 0u32);
        for rec in trace.records() {
            if let TraceEvent::TaskStart { core, task, .. } = rec.event {
                // Under FIFO nothing is classified critical, so use the
                // type annotation instead of the runtime's classification.
                if graph.type_of(cata_tdg::TaskId(task)).criticality > 0 {
                    crit_all += 1;
                    if core.index() < 8 {
                        crit_fast += 1;
                    }
                }
            }
        }
        crit_fast as f64 / crit_all.max(1) as f64
    };
    let fifo = frac_fast("FIFO");
    let cats = frac_fast("CATS+SA");
    assert!(
        cats > fifo + 0.2,
        "CATS fast-core placement {cats:.2} not clearly above FIFO {fifo:.2}"
    );
}

/// The reported exec time respects fundamental bounds: at least the critical
/// path at the fast frequency; at most the serial execution at the slow
/// frequency plus runtime overheads.
#[test]
fn exec_time_respects_physical_bounds() {
    use cata_sim::time::Frequency;
    for bench in Benchmark::all() {
        let w = workload(bench);
        let graph = w.build_graph();
        let lower = graph.critical_path_at(Frequency::from_ghz(2));
        let serial = graph.total_work_at(Frequency::from_ghz(1));
        for label in ["FIFO", "CATA+RSU"] {
            let r = run_preset(label, 8, w.clone());
            assert!(
                r.exec_time >= lower,
                "{} on {}: {} below the critical-path bound {}",
                r.label,
                bench.name(),
                r.exec_time,
                lower
            );
            // Generous upper bound: serial time plus 100% overhead slack.
            assert!(
                r.exec_time.as_ps() < serial.as_ps() * 2,
                "{} on {} implausibly slow",
                r.label,
                bench.name()
            );
        }
    }
}

/// EDP is exactly energy × delay, and normalizations are self-consistent.
#[test]
fn energy_reports_are_consistent() {
    let r = run_preset("CATA", 8, workload(Benchmark::Ferret));
    let expect_edp = r.energy.energy_j * r.exec_time.as_secs_f64();
    assert!((r.energy.edp - expect_edp).abs() / expect_edp < 1e-12);
    assert!((r.speedup_over(&r) - 1.0).abs() < 1e-12);
    assert!((r.edp_normalized_to(&r).unwrap() - 1.0).abs() < 1e-12);
    // Average power must be between the all-idle floor and the all-busy
    // fast ceiling of a 32-core chip.
    assert!(r.energy.avg_power_w > 1.0);
    assert!(r.energy.avg_power_w < 32.0 * 3.0 + 20.0);
}

/// A generated task graph executes on the *native* runtime with dependences
/// enforced: every task runs exactly once and no task runs before its
/// predecessors.
#[test]
fn native_runtime_executes_a_generated_graph() {
    let graph = micro::fork_join(3, 16, 1000);
    let rt = NativeRuntime::builder(4).budget(2).build();
    let done: Arc<Vec<AtomicUsize>> = Arc::new(
        (0..graph.num_tasks())
            .map(|_| AtomicUsize::new(0))
            .collect(),
    );

    let mut handles = Vec::with_capacity(graph.num_tasks());
    for task in graph.tasks() {
        let deps: Vec<_> = task.preds().iter().map(|p| handles[p.index()]).collect();
        let done = Arc::clone(&done);
        let id = task.id.index();
        let pred_ids: Vec<usize> = task.preds().iter().map(|p| p.index()).collect();
        let critical = graph.type_of(task.id).criticality > 0;
        let h = rt.spawn(critical, &deps, move || {
            for &p in &pred_ids {
                assert_eq!(done[p].load(Ordering::SeqCst), 1, "dependence violated");
            }
            done[id].fetch_add(1, Ordering::SeqCst);
        });
        handles.push(h);
    }
    rt.wait_all();
    for (i, d) in done.iter().enumerate() {
        assert_eq!(
            d.load(Ordering::SeqCst),
            1,
            "task {i} ran wrong number of times"
        );
    }
    assert_eq!(rt.metrics().tasks_run as usize, graph.num_tasks());
}

/// The software path's §V-C statistics are present for CATA and absent for
/// the lock-free RSU.
#[test]
fn reconfiguration_statistics_shape() {
    let w = workload(Benchmark::Blackscholes);
    let sw = run_preset("CATA", 8, w.clone());
    let hw = run_preset("CATA+RSU", 8, w);

    assert!(sw.counters.reconfigs_applied > 0);
    assert!(
        sw.lock_waits.count() > 0,
        "CATA must contend on the RSM lock"
    );
    assert!(sw.reconfig_time_share > 0.0);
    assert!(hw.lock_waits.is_empty(), "the RSU takes no locks");
    assert!(hw.counters.reconfigs_applied > 0);
    // The RSU's per-op overhead is cycles, not microseconds.
    assert!(hw.reconfig_overhead < sw.reconfig_overhead);
}

/// Static heterogeneous configurations never reconfigure; dynamic ones do.
#[test]
fn static_configs_never_reconfigure() {
    let w = workload(Benchmark::Swaptions);
    for label in ["FIFO", "CATS+BL", "CATS+SA"] {
        let r = run_preset(label, 8, w.clone());
        assert_eq!(
            r.counters.reconfigs_requested, 0,
            "{} reconfigured",
            r.label
        );
    }
}

/// Work-stealing counters: CATS fast cores fall back to the LPRQ when the
/// HPRQ is empty (the fork-join apps have no critical tasks at all).
#[test]
fn cats_steals_across_queues_on_unannotated_apps() {
    let r = run_preset("CATS+SA", 8, workload(Benchmark::Blackscholes));
    assert!(r.counters.cross_queue_steals > 0);
}

/// Halt accounting: TurboMode halts idle cores; CATA never does (only
/// blocked tasks halt, and blackscholes has none).
#[test]
fn halts_only_under_turbo_for_nonblocking_apps() {
    let w = workload(Benchmark::Blackscholes);
    let cata = run_preset("CATA+RSU", 8, w.clone());
    let turbo = run_preset("TurboMode", 8, w);
    assert_eq!(cata.counters.halts, 0, "CATA must not halt on blackscholes");
    assert!(turbo.counters.halts > 0, "TurboMode must halt idle cores");
}

/// Per-core utilization: the machine is meaningfully used and no core
/// reports an out-of-range utilization.
#[test]
fn utilization_sanity_across_benchmarks() {
    for bench in [Benchmark::Dedup, Benchmark::Swaptions] {
        let r = run_preset("FIFO", 16, workload(bench));
        assert_eq!(r.core_utilization.len(), 32);
        for &u in &r.core_utilization {
            assert!((0.0..=1.0).contains(&u));
        }
        assert!(
            r.avg_utilization() > 0.05,
            "{}: machine unused",
            bench.name()
        );
    }
}
