//! Integration tests for the calibrated native energy model and the
//! backend suite axis: native cells carry nonzero, provenance-tagged,
//! sim-comparable energy; stores round-trip the new `backend` and
//! `measurement` fields while legacy records still parse; and a
//! two-backend grid runs through the store path end to end.

use cata_core::exp::{
    Backend, BackendDispatch, CellRecord, EnergySource, Executor, NativeExecutor, ResultsStore,
    Scenario, ScenarioSpec, Suite, WorkloadSpec,
};
use cata_core::SimExecutor;
use cata_cpufreq::backend::{DvfsBackend, MockDvfs};
use cata_power::{model_native_energy, BusyIntervals, Measurement, PowerParams};
use cata_sim::machine::{MachineConfig, PowerLevel};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cata-energy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn small_spec(name: &str, backend: Backend) -> ScenarioSpec {
    ScenarioSpec::preset(
        name,
        2,
        WorkloadSpec::ForkJoin {
            waves: 2,
            width: 6,
            cycles: 400_000,
        },
    )
    .unwrap()
    .with_small_machine(4, 2)
    .with_backend(backend)
}

fn mock_dispatch() -> BackendDispatch {
    BackendDispatch::new().with_native(
        NativeExecutor::new()
            .max_workers(4)
            .energy_source(EnergySource::Model)
            .backend(Arc::new(MockDvfs::new(4, 1_000_000)) as Arc<dyn DvfsBackend>),
    )
}

/// The acceptance path: a sim + native grid through `run_with_store`, both
/// cells with nonzero energy and the right provenance, loadable and
/// mergeable, EDP defined everywhere.
#[test]
fn two_backend_suite_stores_comparable_energy() {
    let path = tmp("two-backend.jsonl");
    let _ = std::fs::remove_file(&path);
    let specs = vec![
        small_spec("CATA+RSU", Backend::Sim),
        small_spec("CATA+RSU", Backend::Native),
    ];
    let store = ResultsStore::open(&path).unwrap();
    let outcome = Suite::from_specs(specs).run_with_store(&mock_dispatch(), &store);
    assert_eq!(outcome.executed, 2);
    let reports: Vec<_> = outcome.results.into_iter().map(|r| r.unwrap()).collect();

    assert_eq!(reports[0].energy.measurement, Measurement::Simulated);
    assert_eq!(reports[1].energy.measurement, Measurement::Modeled);
    for r in &reports {
        assert!(r.energy.has_energy(), "{} reports 0 J", r.label);
        assert!(r.energy.edp > 0.0 && r.energy.edp.is_finite());
    }
    // The paper's metric exists in both directions — no division by zero.
    let norm = reports[1].edp_normalized_to(&reports[0]).unwrap();
    assert!(norm.is_finite() && norm > 0.0);

    // The merged store renders both cells; neither prints 0/inf/NaN EDP.
    let merged = ResultsStore::merge_files(&[&path]).unwrap();
    assert_eq!(merged.records.len(), 2);
    let cells: Vec<&str> = merged.records.iter().map(|r| r.cell.as_str()).collect();
    assert!(cells.iter().any(|c| c.ends_with("/sim")), "{cells:?}");
    assert!(cells.iter().any(|c| c.ends_with("/native")), "{cells:?}");
    for rec in &merged.records {
        let s = rec.report.summary();
        assert!(!s.contains("edp=0.000000"), "{s}");
        assert!(!s.contains("inf") && !s.contains("NaN"), "{s}");
    }
}

/// Store round-trip preserves the new fields bit-exactly, and records
/// written before they existed (no `backend` in the spec digest input, no
/// `measurement` in the energy map) still parse.
#[test]
fn store_round_trips_backend_and_measurement_with_legacy_compat() {
    let path = tmp("round-trip.jsonl");
    let _ = std::fs::remove_file(&path);
    let spec = small_spec("CATA", Backend::Native);
    let report = mock_dispatch()
        .execute(&Scenario::from_spec(spec.clone()))
        .unwrap();
    let rec = CellRecord::new(0, &spec, "grid".into(), 0.1, report);
    let store = ResultsStore::open(&path).unwrap();
    store.append(&rec).unwrap();
    let (loaded, _) = ResultsStore::load(&path).unwrap();
    assert_eq!(loaded[0].cell, rec.cell);
    assert_eq!(loaded[0].report.energy.measurement, Measurement::Modeled);
    assert_eq!(
        serde_json::to_string(&loaded[0].report).unwrap(),
        serde_json::to_string(&rec.report).unwrap(),
        "stored native report must round-trip bit-identically"
    );

    // A legacy line: strip the new fields from the serialized record the
    // way a pre-backend writer would have produced it.
    let line = serde_json::to_string(&rec).unwrap();
    let legacy = line
        .replace(",\"measurement\":\"modeled\"", "")
        .replace(",\"backend\":\"native\"", "");
    assert_ne!(line, legacy, "the fixture must actually strip something");
    let legacy_path = tmp("legacy.jsonl");
    std::fs::write(&legacy_path, format!("{legacy}\n")).unwrap();
    let (parsed, truncated) = ResultsStore::load(&legacy_path).unwrap();
    assert!(!truncated);
    assert_eq!(parsed.len(), 1, "legacy records must still parse");
    assert_eq!(parsed[0].report.energy.measurement, Measurement::None);
    assert!(
        parsed[0].report.summary().contains("edp="),
        "legacy reports still summarize"
    );
}

/// A sim spec's serialized form — and therefore its store digest — is
/// byte-identical to the pre-backend layout, so existing stores resume.
#[test]
fn sim_spec_digests_are_stable_across_the_backend_field() {
    let spec = small_spec("FIFO", Backend::Sim);
    assert!(!spec.to_json().contains("backend"));
    let named = spec.clone().with_backend(Backend::Native);
    assert_ne!(
        cata_core::exp::spec_digest(&spec),
        cata_core::exp::spec_digest(&named),
        "the backend must be part of the cell identity"
    );
}

/// The calibrated model is deterministic given the recorded intervals —
/// the property that makes modeled energy auditable even though the
/// intervals themselves vary run to run.
#[test]
fn modeled_energy_is_a_pure_function_of_observations() {
    let params = PowerParams::mcpat_22nm();
    let iv = [
        BusyIntervals {
            busy_fast_s: 0.031,
            busy_slow_s: 0.007,
        },
        BusyIntervals {
            busy_fast_s: 0.0,
            busy_slow_s: 0.044,
        },
    ];
    let runs: Vec<u64> = (0..3)
        .map(|_| {
            model_native_energy(
                &params,
                PowerLevel::paper_fast(),
                PowerLevel::paper_slow(),
                2,
                0.05,
                &iv,
            )
            .energy_j
            .to_bits()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

/// The zero-energy guard end to end: a legacy-style 0 J report cannot be a
/// normalization baseline, and both table layers render `n/a` rather than
/// `0.000000` or `inf`.
#[test]
fn zero_energy_baselines_render_na_everywhere() {
    let spec = small_spec("FIFO", Backend::Sim);
    let real = SimExecutor.execute(&Scenario::from_spec(spec)).unwrap();
    let mut zero = real.clone();
    zero.energy = cata_power::EnergyReport::from_parts(
        real.energy.time_s,
        cata_power::EnergyBreakdown::default(),
    );
    assert_eq!(real.edp_normalized_to(&zero), None);
    assert_eq!(
        zero.edp_normalized_to(&real),
        None,
        "an energy-less numerator must not render 0.000"
    );
    let s = zero.summary();
    assert!(s.contains("energy=n/a") && s.contains("edp=n/a"), "{s}");
    assert!(s.contains("src=none"), "{s}");
}

/// A clamped native run (spec machine wider than the worker pool) models
/// energy over the *spec* machine — the unmapped cores are priced idle at
/// the slow level so the joules stay comparable with full-width sim cells
/// — and the provenance tag says so.
#[test]
fn clamped_native_run_scales_energy_to_the_spec_machine() {
    let mut spec = small_spec("CATA", Backend::Native);
    spec.machine = MachineConfig::small_test(8);
    spec.fast_cores = 2;
    let exec = NativeExecutor::new()
        .max_workers(2)
        .energy_source(EnergySource::Model)
        .backend(Arc::new(MockDvfs::new(2, 1_000_000)) as Arc<dyn DvfsBackend>);
    let report = exec.execute(&Scenario::from_spec(spec)).unwrap();
    assert_eq!(report.effective_cores, Some(2), "the clamp must surface");
    assert_eq!(report.energy.measurement, Measurement::ModeledScaled);
    assert!(
        report.summary().contains("src=modeled-scaled"),
        "{}",
        report.summary()
    );
    // Six idle spec cores are priced in: the energy must exceed what the
    // two mapped workers alone could account for at the idle floor.
    let p = PowerParams::mcpat_22nm();
    let wall = report.energy.time_s;
    let idle_floor_8 = 8.0
        * wall
        * (p.dynamic_w(PowerLevel::paper_slow(), cata_sim::activity::Activity::Idle)
            + p.static_w(PowerLevel::paper_slow()));
    assert!(
        report.energy.energy_j >= idle_floor_8,
        "scaled model must price all 8 spec cores: {} J < floor {} J",
        report.energy.energy_j,
        idle_floor_8
    );
    // And the scaled report round-trips through serde.
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("\"measurement\":\"modeled-scaled\""));
    let back: cata_core::RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.energy.measurement, Measurement::ModeledScaled);
}

/// The machine's worker count shrinks to the host, but the energy model
/// scales with the workers that actually ran — wall time × workers bounds
/// the modeled core-seconds.
#[test]
fn modeled_energy_tracks_the_run_not_the_paper_machine() {
    let mut spec = small_spec("CATA", Backend::Native);
    spec.machine = MachineConfig::small_test(2);
    spec.fast_cores = 1;
    let report = mock_dispatch().execute(&Scenario::from_spec(spec)).unwrap();
    let wall = report.energy.time_s;
    assert!(wall > 0.0);
    // Upper bound: every worker busy-fast the whole time plus uncore.
    let p = PowerParams::mcpat_22nm();
    let ceiling = 2.0
        * wall
        * (p.dynamic_w(PowerLevel::paper_fast(), cata_sim::activity::Activity::Busy)
            + p.static_w(PowerLevel::paper_fast()))
        + p.uncore_w * wall
        + 1e-9;
    assert!(
        report.energy.energy_j <= ceiling,
        "modeled {} J exceeds physical ceiling {} J",
        report.energy.energy_j,
        ceiling
    );
}
