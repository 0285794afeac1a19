//! Fault injection & recovery integration tests: golden-absence (the
//! fault subsystem changes *nothing* when no `FaultSpec` is present),
//! displacement/recovery behavior, graceful degradation in service mode,
//! same-seed determinism of the `FaultReport`, and a conservation
//! proptest over random DAGs under random fault schedules.

use cata_core::exp::{default_registries, spec_digest, ExpError, ScenarioSpec, WorkloadSpec};
use cata_core::fault::{CoreFailure, FaultSpec};
use cata_core::service::{default_admission_registry, run_service, ArrivalSpec, ServiceSpec};
use cata_core::{RunReport, SimExecutor};
use cata_sim::machine::CoreId;
use cata_sim::time::{SimDuration, SimTime};
use cata_sim::trace::{Trace, TraceEvent, TraceRecord};
use proptest::prelude::*;

const SEED: u64 = 42;

/// A small closed-system scenario: 8-core machine, 4 fast, a seeded
/// fork-join workload big enough to still be mid-flight at the injected
/// failure times.
fn base(preset: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::preset(
        preset,
        4,
        WorkloadSpec::ForkJoin {
            waves: 8,
            width: 6,
            cycles: 400_000,
        },
    )
    .expect("preset")
    .with_small_machine(8, 4);
    spec.seed = SEED;
    spec
}

fn run(spec: &ScenarioSpec) -> Result<RunReport, ExpError> {
    SimExecutor
        .run_spec(spec, default_registries())
        .map(|(r, _)| r)
}

fn fail_at(core: usize, at: SimDuration, recover_after: Option<SimDuration>) -> CoreFailure {
    CoreFailure {
        core,
        at,
        recover_after,
    }
}

/// Fault-free specs and reports serialize without any fault key at all —
/// the byte-identity guarantee behind every pre-fault store digest and
/// golden preset (the behavioral half is pinned by `golden_digest.rs`).
#[test]
fn fault_free_serialization_has_no_fault_keys() {
    let spec = base("CATA");
    assert!(spec.faults.is_none());
    let json = spec.to_json();
    assert!(
        !json.contains("fault"),
        "spec JSON grew a fault key: {json}"
    );

    let report = run(&spec).expect("fault-free run");
    assert!(report.fault.is_none());
    let json = serde_json::to_string(&report).expect("report serializes");
    assert!(
        !json.contains("\"fault\""),
        "report JSON grew a fault key: {json}"
    );

    // And a spec that explicitly carries a schedule round-trips it.
    let mut faulted = base("CATA");
    faulted.faults = Some(FaultSpec {
        core_failures: vec![fail_at(0, SimDuration::from_ms(1), None)],
        ..FaultSpec::default()
    });
    let back = ScenarioSpec::from_json(&faulted.to_json()).expect("parse");
    assert_eq!(back.faults, faulted.faults);
    assert_ne!(
        spec_digest(&faulted),
        spec_digest(&base("CATA")),
        "a faulted cell must be a different cell"
    );
}

/// A permanent mid-run core loss displaces the in-flight task, re-runs it
/// on a survivor, and the run still completes every task.
#[test]
fn permanent_core_loss_displaces_and_completes() {
    let mut spec = base("CATA");
    let total = spec.workload.try_build_graph().unwrap().num_tasks() as u64;
    spec.faults = Some(FaultSpec {
        core_failures: vec![
            fail_at(0, SimDuration::from_us(200), None),
            fail_at(5, SimDuration::from_us(400), None),
        ],
        ..FaultSpec::default()
    });
    let report = run(&spec).expect("degraded run completes");
    assert_eq!(report.counters.tasks_completed, total, "lost tasks");
    let f = report.fault.as_ref().expect("fault report present");
    assert_eq!(f.injected, 2);
    assert_eq!(f.recovered_cores, 0);
    assert!(f.displaced >= 1, "mid-run failures displace work: {f:?}");
    assert!(f.reexecuted >= f.displaced);
    assert_eq!(f.recovery_latency.count(), f.displaced);
    assert!(f.capacity_lost > SimDuration::ZERO);
    assert!(
        f.makespan_degradation >= 1.0,
        "losing 2 of 8 cores cannot speed the run up: {}",
        f.makespan_degradation
    );
}

/// A fail-recover window gives the capacity back: the core rejoins
/// dispatch and the capacity ledger charges only the window.
#[test]
fn fail_recover_window_restores_capacity() {
    let window = SimDuration::from_us(300);
    let mut spec = base("CATA");
    spec.faults = Some(FaultSpec {
        core_failures: vec![fail_at(2, SimDuration::from_us(100), Some(window))],
        ..FaultSpec::default()
    });
    let report = run(&spec).expect("run completes");
    let f = report.fault.as_ref().unwrap();
    assert_eq!(f.injected, 1);
    assert_eq!(f.recovered_cores, 1);
    assert_eq!(
        f.capacity_lost, window,
        "a closed recovery window charges exactly its length"
    );
}

fn run_traced(spec: &ScenarioSpec) -> (RunReport, Trace) {
    SimExecutor
        .run_spec(&spec.clone().with_trace(), default_registries())
        .expect("run completes")
}

/// The events that change what `core` is doing (task start and end, halt
/// and wake), in trace order.
fn lifecycle(trace: &Trace, core: CoreId) -> Vec<TraceRecord> {
    let on = |r: &&TraceRecord| match r.event {
        TraceEvent::TaskStart { core: c, .. }
        | TraceEvent::TaskEnd { core: c, .. }
        | TraceEvent::Halt { core: c }
        | TraceEvent::Wake { core: c } => c == core,
        TraceEvent::ReconfigApplied { .. } => false,
    };
    trace.records().iter().filter(on).copied().collect()
}

/// Fails `core` at `at` for `window` in `spec` and checks what every
/// closed window must show: the core starts no task inside it, the
/// ledger counts one failure, one recovery and exactly the window lost,
/// and the same seed gives the same report twice. Returns the core's
/// lifecycle up to `at`, which the run shares with its fault-free twin.
fn fail_for_a_window(
    mut spec: ScenarioSpec,
    core: CoreId,
    at: SimDuration,
    window: SimDuration,
) -> Vec<TraceRecord> {
    spec.faults = Some(FaultSpec {
        core_failures: vec![fail_at(core.index(), at, Some(window))],
        ..FaultSpec::default()
    });
    let (report, trace) = run_traced(&spec);
    let f = report.fault.as_ref().expect("fault report");
    assert_eq!((f.injected, f.recovered_cores), (1, 1), "{f:?}");
    assert_eq!(f.capacity_lost, window, "{f:?}");
    let (down, up) = (SimTime::ZERO + at, SimTime::ZERO + at + window);
    let events = lifecycle(&trace, core);
    for r in &events {
        if let TraceEvent::TaskStart { task, .. } = r.event {
            assert!(
                r.time < down || r.time > up,
                "failed {core} started task {task} at {} inside [{down}, {up}]",
                r.time
            );
        }
    }
    let (again, _) = run_traced(&spec);
    assert_eq!(
        serde_json::to_string(&again).unwrap(),
        serde_json::to_string(&report).unwrap(),
        "same seed, same report"
    );
    events.into_iter().filter(|r| r.time <= down).collect()
}

/// A core that fails while halted in C1 (TurboMode halts a core idle for
/// 40 µs) leaves the idle cores for its whole window and rejoins them
/// when it recovers.
#[test]
fn failure_of_a_halted_core_recovers() {
    let spec = base("TurboMode");
    let (_, trace) = run_traced(&spec);
    // The first halt with a wake (if any) more than 1 µs later.
    let (core, halted) = trace
        .records()
        .iter()
        .find_map(|r| {
            let TraceEvent::Halt { core } = r.event else {
                return None;
            };
            let later = lifecycle(&trace, core)
                .into_iter()
                .find(|e| e.time > r.time);
            later
                .is_none_or(|e| e.time > r.time + SimDuration::from_us(1))
                .then_some((core, r.time))
        })
        .expect("TurboMode halts an idle core");
    let at = halted.since(SimTime::ZERO) + SimDuration::from_us(1);
    let before = fail_for_a_window(spec, core, at, SimDuration::from_us(150));
    // Halted while idle, not blocked inside a task body.
    let kinds: Vec<_> = before.iter().rev().take(2).map(|r| r.event).collect();
    assert!(
        matches!(
            kinds[..],
            [TraceEvent::Halt { .. }, TraceEvent::TaskEnd { .. }] | [TraceEvent::Halt { .. }]
        ),
        "{core} was not idle-halted at {at}: {kinds:?}"
    );
}

/// A core that fails in a software-CATA epilogue, after its task ended
/// and before it asks for work, stays out of dispatch for its window.
#[test]
fn failure_during_an_epilogue_recovers() {
    let spec = base("CATA");
    // Every software-CATA epilogue holds the RSM lock for at least one
    // critical section, so half a section after a task end its core is
    // still in the epilogue.
    let params = spec.params.as_ref().expect("CATA params");
    let half = SimDuration::from_ps(params.software_path_or_default().rsm_section.as_ps() / 2);
    let (_, trace) = run_traced(&spec);
    let (core, ended) = trace
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::TaskEnd { core, .. } => Some((core, r.time)),
            _ => None,
        })
        .nth(10)
        .expect("the run ends tasks");
    let at = ended.since(SimTime::ZERO) + half;
    let before = fail_for_a_window(spec, core, at, SimDuration::from_us(150));
    let last = before.last().expect("the core ran a task");
    assert_eq!(
        (last.time, matches!(last.event, TraceEvent::TaskEnd { .. })),
        (ended, true),
        "{core} was not in its epilogue at {at}"
    );
}

/// Same spec + seed ⇒ bit-identical fault trace and report digest; a
/// different seed moves the transient-fault draws.
#[test]
fn fault_reports_are_deterministic_per_seed() {
    let mut spec = base("CATA+RSU");
    spec.faults = Some(FaultSpec {
        core_failures: vec![fail_at(1, SimDuration::from_us(250), None)],
        task_fault_p: 0.05,
        reconfig_fail_p: 0.1,
        ..FaultSpec::default()
    });
    let a = run(&spec).expect("run a");
    let b = run(&spec).expect("run b");
    let (fa, fb) = (a.fault.as_ref().unwrap(), b.fault.as_ref().unwrap());
    assert_eq!(fa, fb, "same seed must replay the same fault trace");
    assert_eq!(fa.digest(), fb.digest());
    assert!(
        fa.task_faults > 0,
        "5% over hundreds of completions: {fa:?}"
    );

    spec.seed = SEED + 1;
    let c = run(&spec).expect("run c");
    let fc = c.fault.as_ref().unwrap();
    assert_eq!(fc.injected, 1, "the schedule is seed-independent");
    assert_ne!(
        fa.digest(),
        fc.digest(),
        "a different seed must move the transient draws"
    );
}

/// An unknown recovery key fails up front, naming the known keys.
#[test]
fn unknown_recovery_key_lists_known_policies() {
    let mut spec = base("CATA");
    spec.faults = Some(FaultSpec {
        core_failures: vec![fail_at(0, SimDuration::from_ms(1), None)],
        recovery: "bogus-policy".into(),
        ..FaultSpec::default()
    });
    let err = run(&spec).unwrap_err().to_string();
    assert!(err.contains("unknown recovery policy"), "{err}");
    assert!(err.contains("retry-same-core"), "{err}");
    assert!(err.contains("shed-noncritical-on-degraded"), "{err}");
}

/// A fault schedule that permanently kills every core is rejected by
/// validation — the engine's clean `Stalled` error is for schedules that
/// strand a run mid-flight, not a way to author one on purpose.
#[test]
fn all_dead_schedule_is_rejected_up_front() {
    let mut spec = base("FIFO");
    spec.faults = Some(FaultSpec {
        core_failures: (0..8)
            .map(|c| fail_at(c, SimDuration::from_us(10), None))
            .collect(),
        ..FaultSpec::default()
    });
    let err = run(&spec).unwrap_err().to_string();
    assert!(err.contains("permanently fails every core"), "{err}");
}

/// Service mode degrades gracefully: core losses under overload shed
/// whole instances (policy `shed-noncritical-on-degraded`) instead of
/// deadlocking, and the instance ledger still balances.
#[test]
fn service_mode_sheds_instances_and_balances() {
    let mut b = base("CATA");
    b.faults = Some(FaultSpec {
        core_failures: vec![
            fail_at(0, SimDuration::from_ms(2), None),
            fail_at(1, SimDuration::from_ms(3), None),
        ],
        recovery: "shed-noncritical-on-degraded".into(),
        ..FaultSpec::default()
    });
    let spec = ServiceSpec::new(
        b,
        ArrivalSpec::Poisson { rate_hz: 4000.0 },
        SimDuration::from_ms(30),
    );
    let (report, _tape) =
        run_service(&spec, default_registries(), default_admission_registry()).expect("service");
    let s = report.service.as_ref().expect("service metrics");
    let f = report.fault.as_ref().expect("fault report");
    assert_eq!(f.injected, 2);
    assert!(
        f.shed > 0,
        "overload on a degraded machine must shed: {f:?}"
    );
    assert_eq!(
        s.admitted,
        s.completed + f.shed,
        "admitted instances either complete or are shed"
    );
    assert!(s.p99() > SimDuration::ZERO);
    // Same seed, same spec: the service-mode fault trace replays too.
    let (again, _) =
        run_service(&spec, default_registries(), default_admission_registry()).expect("service");
    assert_eq!(again.fault.as_ref().unwrap().digest(), f.digest());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation under arbitrary faults: whatever the schedule (cores
    /// failing mid-run, transient task faults) every task of a random DAG
    /// still completes exactly once, the fault ledger is internally
    /// consistent, and displaced work is accounted re-executed.
    #[test]
    fn faulted_runs_conserve_tasks(
        n in 8usize..40,
        p in 0.02f64..0.4,
        seed in any::<u64>(),
        fail_core in 0usize..7,
        fail_at_us in 1u64..500,
        recover_us in 0u64..500,
        task_fault_p in 0.0f64..0.3,
    ) {
        let mut spec = ScenarioSpec::preset(
            "CATA",
            4,
            WorkloadSpec::RandomDag {
                n,
                edge_p: p,
                min_cycles: 10_000,
                max_cycles: 2_000_000,
                seed,
            },
        )
        .expect("preset")
        .with_small_machine(8, 4);
        spec.seed = seed;
        // 0 µs means a permanent failure; anything else a recovery window.
        let recover = (recover_us > 0).then(|| SimDuration::from_us(recover_us));
        spec.faults = Some(FaultSpec {
            core_failures: vec![fail_at(
                fail_core,
                SimDuration::from_us(fail_at_us),
                recover,
            )],
            task_fault_p,
            ..FaultSpec::default()
        });
        let report = run(&spec).expect("faulted run completes");
        prop_assert_eq!(report.counters.tasks_completed, n as u64, "lost tasks");
        let f = report.fault.as_ref().expect("fault report");
        prop_assert_eq!(f.injected, 1);
        prop_assert_eq!(f.recovered_cores, u64::from(recover.is_some()));
        prop_assert!(f.reexecuted >= f.displaced + f.task_faults,
            "every displacement and transient fault re-executes: {:?}", f);
        prop_assert_eq!(f.recovery_latency.count(), f.displaced);
        prop_assert_eq!(f.shed, 0, "closed mode never sheds");
        prop_assert!(f.makespan_degradation > 0.0);
    }
}
