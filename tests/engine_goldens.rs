//! Whole-report golden digests for the fault, memory and service paths.
//!
//! `golden_digest.rs` pins the twelve fault-free closed presets and
//! `service_mode.rs` one fault-free, memory-free Poisson run. The cases
//! here pin everything else the engine does: fault-injected closed runs
//! under each built-in recovery policy, contended memory under each
//! built-in arbitration, the two combined, fault-injected and contended
//! service runs (with shedding and admission drops), and a mixed tape
//! with an empty-graph workload. Each digest is FNV-1a over the whole
//! serialized `RunReport`, so any change to any reported bit shows.
//!
//! Each case also asserts that the path it pins actually ran (work was
//! displaced, shed, dropped, or waited at the memory gate), so a digest
//! can never silently pin a run that skipped its feature.
//!
//! `closed_run_equals_one_record_tape` pins the other half of the
//! contract: a closed run and an open run over a one-record tape go
//! through the same engine and differ only in how tasks are submitted.
//!
//! To regenerate after an *intentional* semantic change:
//! `cargo test --test engine_goldens -- --ignored --nocapture print_engine_goldens`
//! and paste the printed table over `GOLDEN`.

use cata_core::exp::{default_registries, ScenarioSpec, WorkloadSpec};
use cata_core::fault::{CoreFailure, FaultSpec};
use cata_core::mem::MemorySpec;
use cata_core::service::{
    default_admission_registry, replay_tape, run_service, ArrivalSpec, ServiceSpec, TapeRecord,
    TrafficTape,
};
use cata_core::{RunReport, SimExecutor};
use cata_sim::time::SimDuration;
use cata_sim::trace::TraceMode;
use cata_workloads::{Benchmark, Scale};

const SEED: u64 = 42;

const RECOVERIES: [&str; 3] = [
    "retry-same-core",
    "reroute-prefer-fast",
    "shed-noncritical-on-degraded",
];

const ARBITRATIONS: [&str; 3] = ["fifo", "crit-first", "round-robin"];

fn dedup_tiny() -> WorkloadSpec {
    WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, SEED)
}

/// Closed dedup-tiny under CATA on an 8-core machine with 4 fast cores:
/// small enough to stay fast in debug builds, busy enough that failures
/// land mid-flight and two memory slots contend.
fn closed_base() -> ScenarioSpec {
    let mut spec = ScenarioSpec::preset("CATA", 4, dedup_tiny())
        .expect("preset")
        .with_small_machine(8, 4);
    spec.seed = SEED;
    spec
}

/// One permanent fail-stop plus one fail-recover window.
fn fail_stop() -> Vec<CoreFailure> {
    vec![
        CoreFailure {
            core: 0,
            at: SimDuration::from_us(200),
            recover_after: None,
        },
        CoreFailure {
            core: 5,
            at: SimDuration::from_us(400),
            recover_after: Some(SimDuration::from_us(300)),
        },
    ]
}

/// `failures` plus transient task and reconfiguration faults.
fn with_transients(core_failures: Vec<CoreFailure>, recovery: &str) -> FaultSpec {
    FaultSpec {
        core_failures,
        task_fault_p: 0.05,
        reconfig_fail_p: 0.1,
        recovery: recovery.into(),
        ..FaultSpec::default()
    }
}

/// The fail-stop schedule plus transient task and reconfiguration faults.
fn full_schedule(recovery: &str) -> FaultSpec {
    with_transients(fail_stop(), recovery)
}

/// The service runs' schedule: the same three fault kinds, with the
/// fail-stops spread over the first milliseconds of the arrival window
/// so that they catch instances in flight on a loaded machine.
fn service_schedule(recovery: &str) -> FaultSpec {
    let at = |core, ms, recover_ms: Option<u64>| CoreFailure {
        core,
        at: SimDuration::from_ms(ms),
        recover_after: recover_ms.map(SimDuration::from_ms),
    };
    with_transients(
        vec![
            at(0, 2, None),
            at(1, 3, Some(2)),
            at(2, 4, Some(2)),
            at(3, 5, Some(2)),
            at(5, 6, Some(3)),
            at(6, 7, Some(3)),
        ],
        recovery,
    )
}

fn memory(slots: u64, arbitration: &str) -> Option<MemorySpec> {
    Some(MemorySpec {
        slots,
        arbitration: arbitration.into(),
    })
}

/// The `service_mode.rs` golden base: 8 cores, 4 fast, a 14-task
/// fork-join template under CATA, Poisson arrivals at 4 kHz for 50 ms.
fn service_golden_spec() -> ServiceSpec {
    let mut base = ScenarioSpec::preset(
        "CATA",
        4,
        WorkloadSpec::ForkJoin {
            waves: 2,
            width: 6,
            cycles: 50_000,
        },
    )
    .expect("preset")
    .with_small_machine(8, 4);
    base.seed = SEED;
    ServiceSpec::new(
        base,
        ArrivalSpec::Poisson { rate_hz: 4000.0 },
        SimDuration::from_ms(50),
    )
}

fn closed(spec: &ScenarioSpec) -> RunReport {
    SimExecutor::default()
        .run_spec(spec, default_registries())
        .expect("closed run")
        .0
}

fn serve(spec: &ServiceSpec) -> RunReport {
    run_service(spec, default_registries(), default_admission_registry())
        .expect("service run")
        .0
}

fn digest(report: &RunReport) -> String {
    cata_tdg::fnv1a_hex(
        serde_json::to_string(report)
            .expect("report serializes")
            .bytes(),
    )
}

fn displaced(r: &RunReport) -> u64 {
    r.fault.as_ref().expect("fault report").displaced
}

fn waited(r: &RunReport) -> u64 {
    r.memory.as_ref().expect("memory report").waited
}

/// A tape mixing a memory-demanding pipeline, a memory-free fork-join
/// and an empty graph, with arrivals that overlap so instances of
/// different workloads share the machine and the memory gate.
fn mixed_tape() -> TrafficTape {
    let workloads = vec![
        dedup_tiny(),
        WorkloadSpec::ForkJoin {
            waves: 2,
            width: 6,
            cycles: 50_000,
        },
        WorkloadSpec::Chain { n: 0, cycles: 1000 },
    ];
    let records = (0..24u32)
        .map(|i| TapeRecord {
            at_ps: u64::from(i) * SimDuration::from_us(150).as_ps(),
            workload: i % 3,
            tenant: i % 2,
        })
        .collect();
    let mut tape = TrafficTape {
        name: "mixed-with-empty".into(),
        workloads,
        records,
        digest: String::new(),
    };
    tape.refresh_digest();
    tape
}

/// Every pinned case: `(name, report)`, each after asserting that the
/// path it pins ran.
fn cases() -> Vec<(String, RunReport)> {
    let mut out = Vec::new();

    for recovery in RECOVERIES {
        let mut spec = closed_base();
        spec.faults = Some(full_schedule(recovery));
        let r = closed(&spec);
        assert!(displaced(&r) > 0, "closed/{recovery}: nothing displaced");
        out.push((format!("closed-faults/{recovery}"), r));
    }

    // The same faulted run traced: trace tallies ride the report.
    let mut spec = closed_base();
    spec.faults = Some(full_schedule("retry-same-core"));
    spec.trace = TraceMode::Full;
    let r = closed(&spec);
    assert!(r.trace_counts.is_some(), "traced run carries tallies");
    assert!(displaced(&r) > 0);
    out.push(("closed-faults-traced/retry-same-core".into(), r));

    for arbitration in ARBITRATIONS {
        let mut spec = closed_base();
        spec.faults = Some(full_schedule("retry-same-core"));
        spec.memory = memory(2, arbitration);
        let r = closed(&spec);
        assert!(waited(&r) > 0, "closed+mem2/{arbitration}: no waits");
        assert!(displaced(&r) > 0);
        out.push((format!("closed-faults-mem2/{arbitration}"), r));
    }

    let mut spec = closed_base();
    spec.faults = Some(FaultSpec {
        core_failures: fail_stop(),
        ..FaultSpec::default()
    });
    spec.memory = memory(1, "crit-first");
    let r = closed(&spec);
    assert!(waited(&r) > 0 && displaced(&r) > 0);
    out.push(("closed-failstop-mem1/crit-first".into(), r));

    let mut spec = service_golden_spec();
    spec.base.faults = Some(service_schedule("shed-noncritical-on-degraded"));
    let r = serve(&spec);
    assert!(
        r.fault.as_ref().expect("fault report").shed > 0,
        "service faults: nothing shed"
    );
    out.push(("service-faults/shed-noncritical-on-degraded".into(), r));

    // The fork-join template demands no memory, so the contended service
    // cases stamp dedup-tiny instances instead, at a load the 8-core
    // machine can still drain.
    spec.base.workload = dedup_tiny();
    spec.arrival = ArrivalSpec::Poisson { rate_hz: 2000.0 };
    spec.duration = SimDuration::from_ms(5);
    spec.base.memory = memory(2, "crit-first");
    let r = serve(&spec);
    assert!(waited(&r) > 0, "service mem2: no waits");
    assert!(displaced(&r) > 0, "service mem2: nothing displaced");
    out.push(("service-faults-mem2/crit-first".into(), r));

    let spec = spec.with_admission("queue-cap").with_queue_cap(4);
    let r = serve(&spec);
    let s = r.service.as_ref().expect("service report");
    assert!(s.dropped > 0, "queue-cap 4: nothing dropped");
    out.push(("service-faults-mem2-cap4/crit-first".into(), r));

    let tape = mixed_tape();
    let mut base = closed_base();
    base.memory = memory(2, "crit-first");
    let spec = ServiceSpec::new(
        base,
        ArrivalSpec::Tape {
            digest: tape.digest.clone(),
        },
        SimDuration::from_ms(5),
    );
    let r = replay_tape(
        &spec,
        &tape,
        default_registries(),
        default_admission_registry(),
    )
    .expect("mixed replay");
    let s = r.service.as_ref().expect("service report");
    assert_eq!(s.arrivals, 24);
    assert_eq!(s.completed, s.admitted, "every instance drains");
    assert!(waited(&r) > 0, "mixed tape: no waits");
    out.push(("service-mixed-tape-mem2/crit-first".into(), r));

    out
}

/// Recorded digests, `(case, fnv1a of the serialized RunReport)`.
const GOLDEN: &[(&str, &str)] = &[
    ("closed-faults/retry-same-core", "8522c1c40f3b38dc"),
    ("closed-faults/reroute-prefer-fast", "31d3c4a308b4ee2d"),
    (
        "closed-faults/shed-noncritical-on-degraded",
        "8522c1c40f3b38dc",
    ),
    ("closed-faults-traced/retry-same-core", "60fc92b475ea8102"),
    ("closed-faults-mem2/fifo", "b45fa79b187a82d4"),
    ("closed-faults-mem2/crit-first", "c96fd8a203313ce5"),
    ("closed-faults-mem2/round-robin", "7e92549670d1d22d"),
    ("closed-failstop-mem1/crit-first", "dac596129770cbf9"),
    (
        "service-faults/shed-noncritical-on-degraded",
        "e08d92771b12b218",
    ),
    ("service-faults-mem2/crit-first", "0cdf19ff9f6bdbb0"),
    ("service-faults-mem2-cap4/crit-first", "2bb63604d04f932c"),
    ("service-mixed-tape-mem2/crit-first", "24549ec38c93b439"),
];

#[test]
#[ignore = "prints the current digests for regenerating GOLDEN"]
fn print_engine_goldens() {
    for (name, r) in cases() {
        println!("    (\"{name}\", \"{}\"),", digest(&r));
    }
}

#[test]
fn engine_paths_match_recorded_digests() {
    let got = cases();
    assert_eq!(got.len(), GOLDEN.len(), "case list and GOLDEN disagree");
    for ((name, r), &(want_name, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name, "case order changed");
        assert_eq!(
            digest(r),
            want,
            "{name} diverged from its golden digest: {}",
            serde_json::to_string(r).unwrap()
        );
    }
}

/// A closed run with free task creation equals an open run over a
/// one-record tape that submits the same graph at t = 0, in every report
/// field except `workload` (the tape run names its traffic), `service`
/// (open runs only) and `counters.sim_events` (the closed run spends one
/// submission event per task, the tape one arrival in all).
///
/// CATS+BL is left out on purpose: its bottom-level estimator classifies
/// each task when it becomes ready, over the partly submitted graph,
/// while an open run classifies with the steady-state levels of the
/// whole graph, so the two legitimately schedule differently.
#[test]
fn closed_run_equals_one_record_tape() {
    let workloads = [
        dedup_tiny(),
        WorkloadSpec::parsec(Benchmark::Fluidanimate, Scale::Tiny, SEED),
        WorkloadSpec::parsec(Benchmark::Ferret, Scale::Small, SEED),
    ];
    let memories = [None, memory(2, "fifo"), memory(2, "crit-first")];
    for preset in ["FIFO", "CATS+SA", "CATA", "CATA+RSU", "TurboMode"] {
        for workload in &workloads {
            for mem in &memories {
                let mut spec = ScenarioSpec::preset(preset, 16, workload.clone()).expect("preset");
                spec.seed = SEED;
                spec.costs.task_creation = SimDuration::ZERO;
                spec.costs.per_bl_visit = SimDuration::ZERO;
                spec.memory = mem.clone();
                let closed_report = closed(&spec);

                let mut tape = TrafficTape {
                    name: "one-record".into(),
                    workloads: vec![workload.clone()],
                    records: vec![TapeRecord {
                        at_ps: 0,
                        workload: 0,
                        tenant: 0,
                    }],
                    digest: String::new(),
                };
                tape.refresh_digest();
                let service = ServiceSpec::new(
                    spec.clone(),
                    ArrivalSpec::Tape {
                        digest: tape.digest.clone(),
                    },
                    SimDuration::from_ms(1),
                );
                let mut open = replay_tape(
                    &service,
                    &tape,
                    default_registries(),
                    default_admission_registry(),
                )
                .expect("one-record replay");
                let s = open.service.take().expect("service report");
                assert_eq!((s.arrivals, s.completed), (1, 1));
                open.workload = closed_report.workload.clone();
                open.counters.sim_events = closed_report.counters.sim_events;
                assert_eq!(
                    serde_json::to_string(&open).unwrap(),
                    serde_json::to_string(&closed_report).unwrap(),
                    "{preset} on {} with memory {mem:?}: open run diverged from closed run",
                    closed_report.workload
                );
            }
        }
    }
}
