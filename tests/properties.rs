//! Property-based tests (proptest) over the core invariants, driven through
//! randomly generated task graphs and event sequences.

use cata_core::exp::default_registries;
use cata_core::exp::spec::PAPER_PRESETS;
use cata_core::{RunReport, ScenarioSpec, SimExecutor, WorkloadSpec};
use cata_rsu::engine::ReconfigEngine;
use cata_sim::progress::{ExecProfile, RunningTask};
use cata_sim::time::{Frequency, SimDuration, SimTime};
use cata_sim::trace::{Trace, TraceEvent};
use cata_tdg::bottom_level::BottomLevels;
use cata_tdg::deps::{AccessMode, DepTracker, RegionId};
use cata_tdg::{TaskGraph, TaskId};
use cata_workloads::micro;
use proptest::prelude::*;

/// Strategy: a random DAG description (size, edge probability, seed).
fn dag_params() -> impl Strategy<Value = (usize, f64, u64)> {
    (2usize..40, 0.02f64..0.4, any::<u64>())
}

/// A random DAG of `n` tasks of 10 000 to `max_cycles` cycles each.
fn random_dag(n: usize, edge_p: f64, max_cycles: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::RandomDag {
        n,
        edge_p,
        min_cycles: 10_000,
        max_cycles,
        seed,
    }
}

/// `preset` on `workload` on a 4-core test machine with `fast` fast cores
/// (or that power budget).
fn small(preset: &str, fast: usize, workload: &WorkloadSpec) -> ScenarioSpec {
    ScenarioSpec::preset(preset, fast, workload.clone())
        .expect("paper preset")
        .with_small_machine(4, fast)
}

fn run(spec: &ScenarioSpec) -> (RunReport, Trace) {
    SimExecutor
        .run_spec(spec, default_registries())
        .expect("fault-free runs cannot fail")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Work conservation: every scheduler runs every task of a random DAG
    /// exactly once, whatever the graph shape.
    #[test]
    fn schedulers_conserve_tasks((n, p, seed) in dag_params()) {
        let w = random_dag(n, p, 2_000_000, seed);
        for preset in PAPER_PRESETS {
            let r = run(&small(preset, 2, &w)).0;
            prop_assert_eq!(r.counters.tasks_completed, n as u64, "{} lost tasks", preset);
        }
    }

    /// Budget safety: replaying the trace of a CATA+RSU run over a random
    /// DAG, settled fast cores never exceed the budget by more than a
    /// transition-latency-bounded one-core excursion (the committed-target
    /// invariant is debug-asserted inside the executor on every event).
    #[test]
    fn budget_invariant_on_random_dags((n, p, seed) in dag_params()) {
        let (_, trace) = run(&small("CATA+RSU", 2, &random_dag(n, p, 2_000_000, seed)).with_trace());
        let mut fast = [false; 4];
        for rec in trace.records() {
            if let TraceEvent::ReconfigApplied { core, level } = rec.event {
                fast[core.index()] = level.frequency.as_mhz() == 2000;
                prop_assert!(fast.iter().filter(|&&f| f).count() <= 3);
            }
        }
    }

    /// Execution time lower bound: no schedule beats the critical path at
    /// the fast frequency.
    #[test]
    fn exec_time_lower_bound((n, p, seed) in dag_params()) {
        let w = random_dag(n, p, 2_000_000, seed);
        let bound = w.build_graph().critical_path_at(Frequency::from_ghz(2));
        for preset in ["FIFO", "CATA+RSU"] {
            let r = run(&small(preset, 4, &w)).0;
            prop_assert!(r.exec_time >= bound);
        }
    }

    /// Determinism over arbitrary graphs: two identical runs agree exactly.
    #[test]
    fn determinism_on_random_dags((n, p, seed) in dag_params()) {
        let w = random_dag(n, p, 500_000, seed);
        let a = run(&small("CATA", 2, &w)).0;
        let b = run(&small("CATA", 2, &w)).0;
        prop_assert_eq!(a.exec_time, b.exec_time);
        prop_assert_eq!(a.energy.energy_j, b.energy.energy_j);
    }

    /// Incremental bottom levels equal the batch recomputation on arbitrary
    /// DAGs (uncapped walk).
    #[test]
    fn incremental_bl_equals_batch((n, p, seed) in dag_params()) {
        let graph = micro::random_dag(n, p, 1, 2, seed);
        let mut bl = BottomLevels::exact();
        for t in graph.task_ids() {
            bl.on_submit(&graph, t);
        }
        let batch = BottomLevels::recompute_batch(&graph);
        for t in graph.task_ids() {
            prop_assert_eq!(bl.bl(t), batch[t.index()]);
        }
    }

    /// A capped walk never reports a *higher* BL than the exact one, and
    /// the new task's own BL is always exact (it is a leaf at submission).
    #[test]
    fn capped_bl_underestimates((n, p, seed) in dag_params(), cap in 2u64..64) {
        let graph = micro::random_dag(n, p, 1, 2, seed);
        let mut capped = BottomLevels::with_visit_cap(cap);
        let mut exact = BottomLevels::exact();
        for t in graph.task_ids() {
            capped.on_submit(&graph, t);
            exact.on_submit(&graph, t);
        }
        for t in graph.task_ids() {
            prop_assert!(capped.bl(t) <= exact.bl(t));
        }
        prop_assert!(capped.total_visits() <= exact.total_visits());
    }

    /// The progress model terminates and never regresses under arbitrary
    /// frequency-change sequences.
    #[test]
    fn progress_model_terminates_under_freq_churn(
        cycles in 1u64..10_000_000,
        mem in 0u64..1_000_000_000,
        switch_points in prop::collection::vec(1u64..500_000, 0..24),
    ) {
        let profile = ExecProfile::new(cycles, mem);
        let mut rt = RunningTask::start(&profile, SimTime::ZERO, Frequency::from_ghz(1));
        let mut now = SimTime::ZERO;
        let mut fast = false;
        let mut last_progress = 0.0f64;
        let mut points = switch_points.clone();
        points.sort_unstable();
        for (i, ns) in points.iter().enumerate() {
            now = SimTime::from_ns(*ns + i as u64);
            rt.advance_to(now);
            prop_assert!(rt.progress() >= last_progress - 1e-12, "progress regressed");
            last_progress = rt.progress();
            fast = !fast;
            rt.set_frequency(now, if fast { Frequency::from_ghz(2) } else { Frequency::from_ghz(1) });
            if rt.is_finished() {
                break;
            }
        }
        // Drive to completion: bounded number of milestones.
        let mut steps = 0;
        while let Some(m) = rt.next_milestone() {
            prop_assert!(m.time() >= now, "milestone in the past");
            now = m.time();
            rt.advance_to(now);
            steps += 1;
            prop_assert!(steps < 64, "milestone loop failed to terminate");
        }
        prop_assert!(rt.is_finished());
        prop_assert!((rt.progress() - 1.0).abs() < 1e-9);
    }

    /// Duration arithmetic: cycles→duration→cycles round-trips within one
    /// cycle for arbitrary frequencies.
    #[test]
    fn frequency_round_trip(cycles in 0u64..u64::MAX / 2_000_000, mhz in 1u32..8000) {
        let f = Frequency::from_mhz(mhz);
        let d = f.cycles_to_duration(cycles);
        let back = f.duration_to_cycles(d);
        prop_assert!(back >= cycles, "work under-charged: {back} < {cycles}");
        prop_assert!(back - cycles <= 1, "round trip drifted: {back} vs {cycles}");
    }

    /// The reconfiguration engine keeps its budget invariant under arbitrary
    /// start/end/idle event streams.
    #[test]
    fn engine_invariants_under_random_events(
        events in prop::collection::vec((0usize..8, 0u8..3, any::<bool>()), 0..400),
        budget in 0usize..=8,
    ) {
        let mut e = ReconfigEngine::new(8, budget);
        let mut running = [false; 8];
        for (core, op, critical) in events {
            match op {
                0 => {
                    if !running[core] {
                        e.on_task_start(core, critical);
                        running[core] = true;
                    }
                }
                1 => {
                    if running[core] {
                        e.on_task_end(core);
                        running[core] = false;
                    }
                }
                _ => {
                    if !running[core] {
                        e.on_core_idle(core);
                    }
                }
            }
            prop_assert!(e.check_invariants().is_ok(), "{:?}", e.check_invariants());
            prop_assert!(e.accelerated_count() <= budget);
        }
    }

    /// Data-dependence derivation: writers to one region are totally
    /// ordered (each new writer depends — directly or transitively — on the
    /// previous one), for arbitrary access sequences.
    #[test]
    fn writers_are_totally_ordered(
        accesses in prop::collection::vec((0u64..4, 0u8..3), 1..60),
    ) {
        let mut tracker = DepTracker::new();
        let mut graph = TaskGraph::new();
        let ty = graph.add_type("t", 0);
        let mut last_writer: std::collections::HashMap<u64, TaskId> = Default::default();
        for (i, (region, mode)) in accesses.iter().enumerate() {
            let mode = match mode {
                0 => AccessMode::In,
                1 => AccessMode::Out,
                _ => AccessMode::InOut,
            };
            let id = TaskId(i as u32);
            let deps = tracker.deps_for(id, &[(RegionId(*region), mode)]);
            let id2 = graph.add_task(ty, ExecProfile::new(1, 0), &deps);
            prop_assert_eq!(id, id2);
            if mode.writes() {
                if let Some(&prev) = last_writer.get(region) {
                    // prev must be reachable from id through preds.
                    let mut stack = vec![id];
                    let mut seen = std::collections::HashSet::new();
                    let mut found = false;
                    while let Some(t) = stack.pop() {
                        if t == prev {
                            found = true;
                            break;
                        }
                        for &p in graph.preds(t) {
                            if seen.insert(p) {
                                stack.push(p);
                            }
                        }
                    }
                    prop_assert!(found, "writer {} not ordered after {}", id, prev);
                }
                last_writer.insert(*region, id);
            }
        }
    }

    /// Workload generators always produce valid graphs for arbitrary seeds.
    #[test]
    fn generators_always_valid(seed in any::<u64>()) {
        use cata_workloads::{generate, Benchmark, Scale};
        for b in Benchmark::all() {
            let g = generate(b, Scale::Tiny, seed);
            prop_assert!(g.validate().is_ok(), "{}: {:?}", b.name(), g.validate());
            prop_assert!(g.num_tasks() > 0);
        }
    }

    /// Energy is monotone in time for an idle machine: longer runs cost
    /// more energy (the integrator never loses segments).
    #[test]
    fn idle_energy_monotone(ms_a in 1u64..50, ms_b in 51u64..200) {
        use cata_power::{integrate_machine, PowerParams};
        use cata_sim::machine::{Machine, MachineConfig};
        let p = PowerParams::mcpat_22nm();
        let energy_of = |ms: u64| {
            let mut m = Machine::new(MachineConfig::small_test(4));
            m.finish(SimTime::from_ms(ms));
            integrate_machine(&m, SimDuration::from_ms(ms), &p).energy_j
        };
        prop_assert!(energy_of(ms_b) > energy_of(ms_a));
    }
}
