//! Tests of the `exp` facade from *outside* `cata-core`: spec
//! serialization, registry resolution, error paths, suite determinism, and
//! — the point of the redesign — a third-party policy registered without
//! touching any core enum.

use cata_core::exp::{
    ExpError, NativeExecutor, PolicyRegistries, Scenario, ScenarioSpec, Suite, WorkloadSpec,
};
use cata_core::policy::{DispatchCtx, SchedulerPolicy};
use cata_core::{Executor, SimExecutor};
use cata_sim::machine::CoreId;
use cata_sim::stats::Counters;
use cata_tdg::criticality::CriticalityEstimator;
use cata_tdg::{TaskGraph, TaskId};
use cata_workloads::{Benchmark, Scale};
use std::sync::Arc;

const SEED: u64 = 0x5EED_CA7A;

fn tiny_workload() -> WorkloadSpec {
    WorkloadSpec::parsec(Benchmark::Swaptions, Scale::Tiny, SEED)
}

/// Serde round-trip: JSON and TOML both reconstruct the exact spec,
/// including optional fields in both states.
#[test]
fn scenario_spec_round_trips_json_and_toml() {
    for label in [
        "FIFO",
        "CATS+BL",
        "CATS+SA",
        "CATA",
        "CATA+RSU",
        "TurboMode",
    ] {
        let spec = ScenarioSpec::preset(label, 16, tiny_workload()).unwrap();
        let json = spec.to_json_pretty();
        let from_json = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(from_json, spec, "{label} JSON round-trip");
        let toml_text = spec.to_toml();
        let from_toml = ScenarioSpec::from_toml(&toml_text).unwrap();
        assert_eq!(from_toml, spec, "{label} TOML round-trip");
    }
}

/// A spec that has been through serialization still runs to the
/// bit-identical report — serialization is sufficient for reproduction.
#[test]
fn deserialized_spec_reproduces_the_run() {
    let exec = SimExecutor;
    let spec = ScenarioSpec::preset("CATA", 8, tiny_workload()).unwrap();
    let direct = Scenario::from_spec(spec.clone()).run(&exec).unwrap();
    let via_json = Scenario::from_spec(ScenarioSpec::from_json(&spec.to_json()).unwrap())
        .run(&exec)
        .unwrap();
    assert_eq!(direct.exec_time, via_json.exec_time);
    assert_eq!(direct.energy.energy_j, via_json.energy.energy_j);
    assert_eq!(
        direct.counters.reconfigs_applied,
        via_json.counters.reconfigs_applied
    );
}

/// All six paper configurations resolve through the registry and run end
/// to end through `Scenario`/`Executor`.
#[test]
fn all_six_presets_run_through_the_facade() {
    let exec = SimExecutor;
    for label in [
        "FIFO",
        "CATS+BL",
        "CATS+SA",
        "CATA",
        "CATA+RSU",
        "TurboMode",
    ] {
        let scenario = Scenario::preset(label, 8, tiny_workload()).unwrap();
        let report = scenario
            .run(&exec)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(report.label, label);
        assert!(report.counters.tasks_completed > 0, "{label} ran nothing");
    }
}

/// Unknown registry keys fail with errors naming the key and the known
/// alternatives — for each of the three dimensions.
#[test]
fn unknown_keys_error_cleanly() {
    let exec = SimExecutor;
    let base = ScenarioSpec::preset("FIFO", 8, tiny_workload()).unwrap();

    let mut s = base.clone();
    s.scheduler = "round-robin".into();
    match Scenario::from_spec(s).run(&exec) {
        Err(ExpError::UnknownKey { kind, key, known }) => {
            assert_eq!(kind, "scheduler");
            assert_eq!(key, "round-robin");
            assert!(known.contains(&"fifo".to_string()));
        }
        other => panic!("wrong result: {other:?}"),
    }

    let mut s = base.clone();
    s.estimator = "oracle".into();
    assert!(matches!(
        Scenario::from_spec(s).run(&exec),
        Err(ExpError::UnknownKey {
            kind: "estimator",
            ..
        })
    ));

    let mut s = base.clone();
    s.accel = "overclock".into();
    assert!(matches!(
        Scenario::from_spec(s).run(&exec),
        Err(ExpError::UnknownKey {
            kind: "acceleration manager",
            ..
        })
    ));

    // Malformed spec text surfaces as a parse error, not a panic.
    assert!(matches!(
        ScenarioSpec::from_json("{not json"),
        Err(ExpError::Parse(_))
    ));
}

/// Every unknown-key error, in full: the family's noun, the key, and every
/// known key in the family's order (sorted for registries, `EventBackend::ALL`
/// order for event queues, figure order for presets).
#[test]
fn unknown_key_messages_name_every_known_key() {
    fn text<T>(r: Result<T, ExpError>) -> String {
        match r {
            Ok(_) => panic!("`bogus` must not resolve"),
            Err(e) => e.to_string(),
        }
    }
    let base = ScenarioSpec::preset("FIFO", 8, tiny_workload()).unwrap();
    let run = |edit: fn(&mut ScenarioSpec)| {
        let mut s = base.clone();
        edit(&mut s);
        text(Scenario::from_spec(s).run(&SimExecutor))
    };
    let cases = [
        (
            run(|s| s.scheduler = "bogus".into()),
            "unknown scheduler `bogus` (known: cats, cats-homogeneous, fifo)",
        ),
        (
            run(|s| s.estimator = "bogus".into()),
            "unknown estimator `bogus` (known: bottom-level, none, static-annotations)",
        ),
        (
            run(|s| s.accel = "bogus".into()),
            "unknown acceleration manager `bogus` (known: rsu, software-cata, static-hetero, turbo)",
        ),
        (
            text(cata_core::service::default_admission_registry().build(
                "bogus",
                &cata_core::service::AdmissionParams::default(),
            )),
            "unknown admission policy `bogus` (known: admit-all, queue-cap, shed-noncritical)",
        ),
        (
            text(
                cata_core::fault::default_recovery_registry()
                    .build("bogus", &cata_core::FaultSpec::default()),
            ),
            "unknown recovery policy `bogus` (known: reroute-prefer-fast, retry-same-core, \
             shed-noncritical-on-degraded)",
        ),
        (
            text(
                cata_core::mem::default_arbitration_registry()
                    .build("bogus", &cata_core::MemorySpec::default()),
            ),
            "unknown arbitration policy `bogus` (known: crit-first, fifo, round-robin)",
        ),
        (
            text(
                ScenarioSpec {
                    event_queue: Some("bogus".into()),
                    ..base.clone()
                }
                .validate(),
            ),
            "unknown event-queue backend `bogus` (known: heap, calendar-wheel)",
        ),
        (
            text(ScenarioSpec::preset("bogus", 8, tiny_workload())),
            "unknown preset `bogus` (known: FIFO, CATS+BL, CATS+SA, CATA, CATA+RSU, TurboMode)",
        ),
    ];
    for (got, want) in cases {
        assert_eq!(got, want);
    }
}

/// Same spec + same seed ⇒ bit-identical `RunReport`, whether the suite
/// runs serially or fanned across a thread pool.
#[test]
fn suite_is_deterministic_serial_vs_parallel() {
    let exec = SimExecutor;
    let specs = || ScenarioSpec::paper_matrix(8, tiny_workload());
    let serial = Suite::from_specs(specs()).jobs(1).run_all(&exec);
    let parallel = Suite::from_specs(specs()).jobs(6).run_all(&exec);
    assert_eq!(serial.len(), 6);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.exec_time, b.exec_time, "{}: time diverged", a.label);
        assert_eq!(
            a.energy.energy_j, b.energy.energy_j,
            "{}: energy diverged",
            a.label
        );
        assert_eq!(a.counters.reconfigs_applied, b.counters.reconfigs_applied);
        assert_eq!(a.lock_waits.count(), b.lock_waits.count());
    }
}

/// A scheduler policy defined *here* — outside `cata-core`, unknown to any
/// enum — registered under a new key and driven through the standard
/// facade: the acceptance test of the registry redesign.
#[derive(Default)]
struct LifoPolicy {
    stack: Vec<TaskId>,
}

impl SchedulerPolicy for LifoPolicy {
    fn enqueue(&mut self, task: TaskId, _level: u8) {
        self.stack.push(task);
    }
    fn dequeue(
        &mut self,
        _core: CoreId,
        _ctx: DispatchCtx,
        _counters: &mut Counters,
    ) -> Option<TaskId> {
        self.stack.pop()
    }
    fn len(&self) -> usize {
        self.stack.len()
    }
}

#[test]
fn custom_policy_registers_and_runs_without_core_enums() {
    let mut registries = PolicyRegistries::with_builtins();
    registries.register_scheduler("lifo", false, |_ctx| Ok(Box::new(LifoPolicy::default())));
    let registries = Arc::new(registries);

    let scenario = Scenario::from_spec(ScenarioSpec {
        fast_cores: 8,
        scheduler: "lifo".into(),
        ..ScenarioSpec::new("LIFO-run", tiny_workload())
    })
    .with_registries(Arc::clone(&registries));

    let report = scenario.run(&SimExecutor).expect("custom policy runs");
    let expect = tiny_workload().build_graph().num_tasks() as u64;
    assert_eq!(report.counters.tasks_completed, expect, "LIFO lost tasks");

    // The custom key also works across a whole parallel suite.
    let mut spec = scenario.spec().clone();
    spec.name = "LIFO-suite".into();
    let reports = Suite::from_specs_with(vec![spec.clone(), spec], Some(registries))
        .jobs(2)
        .run_all(&SimExecutor);
    assert_eq!(reports[0].exec_time, reports[1].exec_time);
}

/// An estimator defined here that implements only the required
/// `classify_level`: the task type's annotation, without claiming
/// `is_annotation_static`, so the engine asks it for every ready task.
struct AnnotationLevels;

impl CriticalityEstimator for AnnotationLevels {
    fn classify_level(&mut self, graph: &TaskGraph, task: TaskId) -> u8 {
        graph.type_of(task).criticality
    }
}

/// The engine serves `static-annotations` levels from the graph's level
/// column instead of calling the estimator. An estimator that returns the
/// same levels through the call must give byte-identical reports.
#[test]
fn level_column_matches_an_estimator_that_only_classifies() {
    let mut registries = PolicyRegistries::with_builtins();
    registries.register_estimator("annotation-levels", |_ctx| Ok(Box::new(AnnotationLevels)));
    let registries = Arc::new(registries);
    for bench in [Benchmark::Dedup, Benchmark::Fluidanimate] {
        for preset in ["CATS+SA", "CATA+RSU"] {
            let workload = WorkloadSpec::parsec(bench, Scale::Tiny, SEED);
            let spec = ScenarioSpec::preset(preset, 8, workload).unwrap();
            assert_eq!(spec.estimator, "static-annotations");
            let column = Scenario::from_spec(spec.clone()).run(&SimExecutor).unwrap();
            let called = Scenario::from_spec(ScenarioSpec {
                estimator: "annotation-levels".into(),
                ..spec
            })
            .with_registries(Arc::clone(&registries))
            .run(&SimExecutor)
            .unwrap();
            assert_eq!(
                serde_json::to_string(&called).unwrap(),
                serde_json::to_string(&column).unwrap(),
                "{preset} on {}",
                bench.name()
            );
        }
    }
}

/// The native executor accepts the same scenarios (one call shape across
/// backends).
#[test]
fn native_executor_shares_the_call_shape() {
    let mut scenario = Scenario::preset(
        "CATA+RSU",
        2,
        WorkloadSpec::ForkJoin {
            waves: 2,
            width: 6,
            cycles: 100_000,
        },
    )
    .unwrap();
    scenario.spec_mut().machine = cata_sim::machine::MachineConfig::small_test(4);
    let report = NativeExecutor::new()
        .max_workers(2)
        .execute(&scenario)
        .expect("native run");
    assert_eq!(report.counters.tasks_completed, 14);
    assert_eq!(report.label, "CATA+RSU");
}

/// A scheduler registered in custom registries runs on the native backend
/// too: the native executor builds its ready queue from the scenario's
/// registries, so the key resolves there and nowhere else.
#[test]
fn custom_scheduler_runs_on_the_native_backend() {
    let built = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let mut registries = PolicyRegistries::with_builtins();
    let counter = Arc::clone(&built);
    registries.register_scheduler("lifo", false, move |_ctx| {
        counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(Box::new(LifoPolicy::default()))
    });
    let spec = ScenarioSpec {
        scheduler: "lifo".into(),
        ..ScenarioSpec::new("LIFO-native", tiny_workload())
    }
    .with_small_machine(4, 2);
    let native = NativeExecutor::new().max_workers(2);

    let report = Scenario::from_spec(spec.clone())
        .with_registries(Arc::new(registries))
        .run(&native)
        .expect("custom policy runs natively");
    let expect = tiny_workload().build_graph().num_tasks() as u64;
    assert_eq!(report.counters.tasks_completed, expect, "LIFO lost tasks");
    assert_eq!(built.load(std::sync::atomic::Ordering::SeqCst), 1);
    assert!(matches!(
        Scenario::from_spec(spec).run(&native),
        Err(ExpError::UnknownKey {
            kind: "scheduler",
            ..
        })
    ));
}
