//! Service-mode (open-system) integration tests: golden determinism for
//! a fixed-seed Poisson run, record→replay bit-identity, arrival
//! conservation, admission-policy behavior under overload, and
//! transient-fault retries counted per instance.

use cata_core::exp::{default_registries, ScenarioSpec, WorkloadSpec};
use cata_core::fault::FaultSpec;
use cata_core::service::{
    default_admission_registry, replay_tape, run_service, ArrivalSpec, ServiceSpec, TrafficTape,
};
use cata_core::RunReport;
use cata_sim::time::SimDuration;
use proptest::prelude::*;

mod common;

const SEED: u64 = 42;

/// A small, fast-to-simulate base scenario: 8-core machine, 4 fast, a
/// 14-task fork-join instance template.
fn base(preset: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::preset(
        preset,
        4,
        WorkloadSpec::ForkJoin {
            waves: 2,
            width: 6,
            cycles: 50_000,
        },
    )
    .expect("preset")
    .with_small_machine(8, 4);
    spec.seed = SEED;
    spec
}

fn serve(spec: &ServiceSpec) -> (RunReport, TrafficTape) {
    run_service(spec, default_registries(), default_admission_registry()).expect("service run")
}

/// Compact bit-exact digest of a service run, mirroring the closed-system
/// golden table: window, energy bits, counts, and raw-ps percentiles.
fn service_digest(r: &RunReport) -> String {
    let s = r.service.as_ref().expect("service report");
    format!(
        "t={} e={:016x} arr={} adm={} drop={} done={} p50={} p99={} p999={} q99={} s99={}",
        r.exec_time.as_ps(),
        r.energy.energy_j.to_bits(),
        s.arrivals,
        s.admitted,
        s.dropped,
        s.completed,
        s.p50().as_ps(),
        s.p99().as_ps(),
        s.p999().as_ps(),
        s.queue_wait.quantile(0.99).as_ps(),
        s.service_time.quantile(0.99).as_ps(),
    )
}

/// The pinned digest of one fixed-seed Poisson service run. Any engine,
/// sampler, histogram, or admission change that moves a bit here is a
/// behavioral change and must be called out. Regenerate with
/// `cargo test --test service_mode -- --ignored --nocapture print_service_digest`.
const GOLDEN_POISSON: &str = "t=49857058406 e=3fe8c2af8472b882 arr=203 adm=203 drop=0 done=203 \
     p50=133693440 p99=171966464 p999=246415360 q99=33816576 s99=167772160";

/// `common::invariant_digest` of the same run: the whole report with each
/// latency distribution reduced to its exact count, mean, min and max.
/// Unlike `GOLDEN_POISSON` it does not move when only the histogram
/// resolution changes.
const GOLDEN_POISSON_INVARIANT: &str = "7da67aa5e0caf92a";

fn golden_spec() -> ServiceSpec {
    ServiceSpec::new(
        base("CATA"),
        ArrivalSpec::Poisson { rate_hz: 4000.0 },
        SimDuration::from_ms(50),
    )
}

#[test]
fn fixed_seed_poisson_run_matches_golden_digest() {
    let (report, _tape) = serve(&golden_spec());
    let s = report.service.as_ref().unwrap();
    assert!(s.arrivals > 100, "want a busy run, got {}", s.arrivals);
    assert_eq!(
        service_digest(&report),
        GOLDEN_POISSON,
        "service-mode behavior changed; if intentional, regenerate the golden digest"
    );
    assert_eq!(
        common::invariant_digest(&report),
        GOLDEN_POISSON_INVARIANT,
        "a report field outside the latency storage changed"
    );
    // Re-running is bit-identical, including the serialized form.
    let (again, _) = serve(&golden_spec());
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&again).unwrap()
    );
}

#[test]
#[ignore = "prints the current digest for regenerating GOLDEN_POISSON"]
fn print_service_digest() {
    let (report, _) = serve(&golden_spec());
    println!("GOLDEN_POISSON: {}", service_digest(&report));
    println!(
        "GOLDEN_POISSON_INVARIANT: {}",
        common::invariant_digest(&report)
    );
}

/// Record → replay: the tape a generated run records replays to a
/// bit-identical `ServiceReport`, through the JSONL file form and with
/// the digest pin engaged.
#[test]
fn recorded_tape_replays_bit_identically() {
    let spec = ServiceSpec::new(
        base("CATA+RSU"),
        ArrivalSpec::Poisson { rate_hz: 3000.0 },
        SimDuration::from_ms(20),
    );
    let (original, tape) = serve(&spec);

    // Through the file form: serialize, parse, verify, replay.
    let text = tape.to_jsonl();
    let loaded = TrafficTape::from_jsonl(&text).expect("tape parses");
    let digest = loaded.verify().expect("tape verifies");

    let mut replay_spec = spec.clone();
    replay_spec.arrival = ArrivalSpec::Tape { digest };
    let replayed = replay_tape(
        &replay_spec,
        &loaded,
        default_registries(),
        default_admission_registry(),
    )
    .expect("replay");

    assert_eq!(
        original.service, replayed.service,
        "replayed service metrics must be identical"
    );
    assert_eq!(original.exec_time, replayed.exec_time);
    assert_eq!(
        original.energy.energy_j.to_bits(),
        replayed.energy.energy_j.to_bits()
    );

    // A wrong pin is rejected loudly.
    let mut wrong = replay_spec;
    wrong.arrival = ArrivalSpec::Tape {
        digest: "0000000000000000".into(),
    };
    let err = replay_tape(
        &wrong,
        &loaded,
        default_registries(),
        default_admission_registry(),
    )
    .unwrap_err()
    .to_string();
    assert!(err.contains("pins traffic tape"), "{err}");
}

/// Overload behavior: a queue cap sheds load where admit-all absorbs it,
/// and criticality-aware shedding sits between (critical instances always
/// get in).
#[test]
fn admission_policies_shed_under_overload() {
    // Arrivals far faster than the machine drains them.
    let overload = |admission: &str| {
        let spec = ServiceSpec::new(
            base("FIFO"),
            ArrivalSpec::Fixed { rate_hz: 50_000.0 },
            SimDuration::from_ms(10),
        )
        .with_admission(admission)
        .with_queue_cap(8);
        let (report, _) = serve(&spec);
        report.service.unwrap()
    };

    let open = overload("admit-all");
    assert_eq!(open.dropped, 0);
    assert_eq!(open.admitted, open.arrivals);

    let capped = overload("queue-cap");
    assert!(capped.dropped > 0, "cap 8 under 50 kHz must shed");
    assert_eq!(capped.admitted + capped.dropped, capped.arrivals);
    assert!(
        capped.p99() < open.p99(),
        "shedding must shorten the tail: capped {} vs open {}",
        capped.p99().as_ps(),
        open.p99().as_ps()
    );

    // The fork-join template carries critical tasks under CATA presets
    // but the FIFO preset's static estimator still annotates them; a
    // critical instance bypasses the shed gate entirely.
    let shed = overload("shed-noncritical");
    assert_eq!(shed.admitted + shed.dropped, shed.arrivals);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation: for any rate, window, and cap, every arrival is
    /// accounted for — admitted + dropped == arrivals, and after the
    /// drain admitted == completed with nothing left in flight. The
    /// percentile table is monotone and finite.
    #[test]
    fn arrivals_are_conserved(
        rate in 500.0f64..20_000.0,
        dur_us in 500u64..5_000,
        cap in 1usize..32,
        poisson in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let mut b = base("CATA");
        b.seed = seed;
        let arrival = if poisson {
            ArrivalSpec::Poisson { rate_hz: rate }
        } else {
            ArrivalSpec::Fixed { rate_hz: rate }
        };
        let spec = ServiceSpec::new(b, arrival, SimDuration::from_us(dur_us))
            .with_admission("queue-cap")
            .with_queue_cap(cap);
        let (report, tape) = serve(&spec);
        let s = report.service.unwrap();

        prop_assert_eq!(s.arrivals, tape.records.len() as u64);
        prop_assert_eq!(s.admitted + s.dropped, s.arrivals);
        prop_assert_eq!(s.in_flight, 0);
        prop_assert_eq!(s.completed, s.admitted);
        prop_assert_eq!(s.latency.count(), s.completed);

        prop_assert!(s.p50() <= s.p99() && s.p99() <= s.p999());
        prop_assert!(s.p999() <= s.latency.max());
        prop_assert!(s.graphs_per_sec.is_finite() && s.graphs_per_sec >= 0.0);
        // Queue + service decompose the response time at the instance
        // level; at the histogram level the maxima still bound it.
        prop_assert!(s.latency.max() <= s.queue_wait.max() + s.service_time.max());
    }
}

/// Service runs go through the same engine as closed runs, trace
/// included: a traced run records trace events and carries the tallies,
/// and tracing changes nothing else in the report.
#[test]
fn traced_service_runs_carry_trace_counts() {
    let plain = golden_spec();
    let mut traced = plain.clone();
    traced.base.trace = cata_sim::trace::TraceMode::Counters;
    let (quiet, _) = serve(&plain);
    let (mut loud, _) = serve(&traced);
    assert!(quiet.trace_counts.is_none());
    let counts = loud
        .trace_counts
        .take()
        .expect("traced run carries tallies");
    assert_eq!(counts.task_ends, loud.counters.tasks_completed);
    assert!(counts.task_starts >= counts.task_ends);
    assert!(counts.reconfigs_applied > 0, "CATA reconfigures under load");
    assert_eq!(
        serde_json::to_string(&loud).unwrap(),
        serde_json::to_string(&quiet).unwrap(),
        "tracing must not change the run"
    );
}

/// Transient-fault retries belong to one instance: with every completion
/// faulting and two retries allowed, each task of every instance runs
/// three times, including instances stamped into a recycled slot, whose
/// global task ids an earlier instance used.
#[test]
fn reused_slots_start_with_fresh_retry_counts() {
    let mut spec = ServiceSpec::new(
        base("CATA"),
        ArrivalSpec::Poisson { rate_hz: 4000.0 },
        SimDuration::from_ms(2),
    );
    spec.base.faults = Some(FaultSpec {
        task_fault_p: 1.0,
        max_retries: 2,
        ..FaultSpec::default()
    });
    let (report, _) = serve(&spec);
    let s = report.service.as_ref().expect("service report");
    let f = report.fault.as_ref().expect("fault report");
    let completed = report.counters.tasks_completed;
    assert_eq!(s.completed, s.arrivals, "every instance drains");
    assert!(
        completed > 100,
        "want several instances, got {completed} tasks"
    );
    assert_eq!(f.task_faults, 2 * completed);
}
