//! Memory-interference integration tests: golden-absence (the memory
//! subsystem changes *nothing* when no `MemorySpec` is present, and
//! `slots = inf` is bit-identical to no spec at all), unknown-key
//! arbitration errors, same-seed determinism of the `MemoryReport`,
//! criticality-aware arbitration beating FIFO on critical wait, and
//! conservation / monotonicity properties over slot counts.

use cata_core::exp::{default_registries, spec_digest, ExpError, ScenarioSpec, WorkloadSpec};
use cata_core::mem::MemorySpec;
use cata_core::service::{default_admission_registry, run_service, ArrivalSpec, ServiceSpec};
use cata_core::{RunReport, SimExecutor};
use cata_sim::time::SimDuration;
use cata_workloads::{Benchmark, Scale};
use proptest::prelude::*;

const SEED: u64 = 42;

/// A small closed-system scenario over a Parsec-style workload: those
/// tasks carry a memory fraction (`mem_ps > 0`), so a slot-bounded
/// subsystem actually contends. 8 cores keep slots=1 heavily oversubscribed.
fn base(preset: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::preset(
        preset,
        4,
        WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, SEED),
    )
    .expect("preset")
    .with_small_machine(8, 4);
    spec.seed = SEED;
    spec
}

fn with_memory(mut spec: ScenarioSpec, slots: u64, arbitration: &str) -> ScenarioSpec {
    spec.memory = Some(MemorySpec {
        slots,
        arbitration: arbitration.into(),
    });
    spec
}

fn run(spec: &ScenarioSpec) -> Result<RunReport, ExpError> {
    SimExecutor
        .run_spec(spec, default_registries())
        .map(|(r, _)| r)
}

/// Memory-free specs and reports serialize without any memory key at all
/// — the byte-identity guarantee behind every pre-memory store digest
/// and golden preset (the behavioral half is pinned by `golden_digest.rs`).
#[test]
fn memory_free_serialization_has_no_memory_keys() {
    let spec = base("CATA");
    assert!(spec.memory.is_none());
    let json = spec.to_json();
    assert!(
        !json.contains("memory"),
        "spec JSON grew a memory key: {json}"
    );
    let report = run(&spec).expect("run");
    assert!(report.memory.is_none());
    let rejson = serde_json::to_string(&report).expect("serialize");
    assert!(
        !rejson.contains("\"memory\""),
        "report JSON grew a memory key"
    );
}

/// A spec that *does* pin memory round-trips exactly — and digests
/// differently from its memory-free twin (it is a different experiment).
#[test]
fn memory_spec_round_trips_and_changes_the_digest() {
    let plain = base("CATA");
    let pinned = with_memory(base("CATA"), 2, "crit-first");
    let json = pinned.to_json();
    assert!(json.contains("\"slots\""), "memory spec not serialized");
    let back = ScenarioSpec::from_json(&json).expect("round-trip");
    assert_eq!(back.to_json(), json);
    assert_eq!(back.memory, pinned.memory);
    assert_ne!(spec_digest(&plain), spec_digest(&pinned));
}

/// `slots = 0` spells "unlimited": the spec serializes the field (it was
/// asked for) but the engine bypasses the gate entirely, so the *report*
/// is bit-identical to the memory-free run — no memory section at all.
#[test]
fn unlimited_slots_report_is_bit_identical_to_no_spec() {
    let plain = run(&base("CATA")).expect("run");
    let unlimited = run(&with_memory(base("CATA"), 0, "fifo")).expect("run");
    assert!(unlimited.memory.is_none());
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&unlimited).unwrap(),
        "slots=inf diverged from the memory-free engine"
    );
}

/// An unknown arbitration key dies with an error naming every known key,
/// so a typo is a one-round-trip fix.
#[test]
fn unknown_arbitration_key_lists_the_known_set() {
    let err = run(&with_memory(base("CATA"), 1, "bogus")).expect_err("must fail");
    let msg = err.to_string();
    assert!(msg.contains("bogus"), "{msg}");
    for key in ["fifo", "crit-first", "round-robin"] {
        assert!(msg.contains(key), "error does not name `{key}`: {msg}");
    }
}

/// Same spec, same seed, twice: the memory accounting digests equal.
#[test]
fn memory_report_is_deterministic() {
    let spec = with_memory(base("CATA"), 1, "crit-first");
    let a = run(&spec).expect("run").memory.expect("memory report");
    let b = run(&spec).expect("run").memory.expect("memory report");
    assert_eq!(a.digest(), b.digest());
    assert!(a.waited > 0, "slots=1 on 8 cores must contend");
}

/// The CAM idea: arbitration that prefers critical tasks must cut the
/// critical-task wait relative to FIFO on a contended machine (total
/// demand is identical — only who waits changes).
#[test]
fn crit_first_beats_fifo_on_critical_wait() {
    let fifo = run(&with_memory(base("CATA"), 1, "fifo"))
        .expect("run")
        .memory
        .expect("memory report");
    let cam = run(&with_memory(base("CATA"), 1, "crit-first"))
        .expect("run")
        .memory
        .expect("memory report");
    assert_eq!(fifo.demand, cam.demand, "same workload, same demand");
    assert!(
        fifo.crit_requests > 0,
        "dedup must schedule critical memory requests"
    );
    assert!(
        cam.crit_wait < fifo.crit_wait,
        "crit-first {} must beat fifo {} on critical wait",
        cam.crit_wait,
        fifo.crit_wait
    );
}

/// Fewer slots can only slow things down: walking slots from unlimited
/// down to 1, the makespan never decreases and the queued wait never
/// shrinks. (The gate delays task starts without re-ranking the ready
/// queue, so the classic Graham speed-up anomaly has no lever here.)
#[test]
fn fewer_slots_never_speed_up_the_run() {
    let unlimited = run(&base("CATA")).expect("run");
    let mut prev_time = unlimited.exec_time;
    let mut prev_wait = SimDuration::ZERO;
    for slots in [8, 4, 2, 1] {
        let report = run(&with_memory(base("CATA"), slots, "fifo")).expect("run");
        let mem = report.memory.expect("memory report");
        assert!(
            report.exec_time >= prev_time,
            "slots={slots} ran faster ({} < {prev_time})",
            report.exec_time
        );
        assert!(
            mem.total_wait >= prev_wait,
            "slots={slots} waited less ({} < {prev_wait})",
            mem.total_wait
        );
        prev_time = report.exec_time;
        prev_wait = mem.total_wait;
    }
}

/// Service mode composes with the gate: a contended open-system run
/// carries the same accounting and still clears its arrival load.
#[test]
fn service_mode_reports_memory_interference() {
    let spec = ServiceSpec::new(
        with_memory(base("CATA"), 1, "crit-first"),
        ArrivalSpec::Fixed { rate_hz: 2000.0 },
        SimDuration::from_ms(5),
    );
    let (report, _tape) = run_service(&spec, default_registries(), default_admission_registry())
        .expect("service run");
    let mem = report.memory.expect("memory report");
    assert!(mem.requests > 0);
    assert!(mem.waited > 0, "slots=1 under load must contend");
    assert!(mem.serviced >= mem.demand);
    let service = report.service.expect("service metrics");
    assert!(service.completed > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation over random seeds and slot counts, fault-free: every
    /// request is eventually serviced, so serviced time ≥ demanded time
    /// (the surplus is exactly the queued waiting) — with equality, and
    /// zero waits, whenever slots cover every core.
    #[test]
    fn serviced_time_conserves_demand(seed in 0u64..200, slots in 1u64..12) {
        let mut spec = with_memory(base("CATA"), slots, "fifo");
        spec.workload = WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, seed);
        spec.seed = seed;
        let mem = run(&spec).unwrap().memory.expect("memory report");
        prop_assert!(mem.requests > 0, "dedup tasks demand memory");
        prop_assert!(mem.serviced >= mem.demand,
            "serviced {} < demand {}", mem.serviced, mem.demand);
        prop_assert_eq!(mem.serviced - mem.demand, mem.total_wait,
            "surplus must be exactly the queued wait");
        if slots >= 8 {
            // Eight cores can never oversubscribe eight slots.
            prop_assert_eq!(mem.waited, 0u64);
            prop_assert_eq!(mem.serviced, mem.demand);
        }
    }
}
