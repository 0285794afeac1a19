//! TDG capture & replay: the round-trip and bit-identity contracts.
//!
//! The subsystem's promise is that a task graph is a first-class,
//! storable workload: `TaskGraph → TdgFile → TaskGraph` is the identity
//! (topology, profiles, criticalities), an exported generator workload
//! replayed from its `.tdg.json` produces a *bit-identical* sim
//! `RunReport`, and a natively `record`ed graph replays on the simulator
//! with the host's observed durations. These tests pin all three, plus
//! the spec-digest/store semantics that make replayed graphs behave like
//! any generated workload in suites, shards and JSONL stores.

use cata_core::exp::{
    spec_digest, CapturedGraph, Executor, ExpError, NativeExecutor, ResultsStore, Scenario,
    ScenarioSpec, Suite, WorkloadSpec,
};
use cata_core::SimExecutor;
use cata_sim::progress::ExecProfile;
use cata_sim::time::SimDuration;
use cata_tdg::{TaskGraph, TaskId, TdgFile};
use cata_workloads::{Benchmark, Scale};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cata-tdg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A random graph with the full profile surface: several types (varying
/// criticality), memory time, and blocking points.
fn random_graph(n: usize, p: f64, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TaskGraph::new();
    let types = [
        g.add_type("plain", 0),
        g.add_type("hot", 1),
        g.add_type("hotter", 3),
    ];
    for i in 0..n {
        let mut deps = Vec::new();
        for j in 0..i {
            if rng.gen_bool(p) {
                deps.push(TaskId(j as u32));
            }
        }
        let ty = types[rng.gen_range(0..3)];
        let mut profile = ExecProfile::new(rng.gen_range(1..1_000_000u64), rng.gen_range(0..5_000));
        if rng.gen_bool(0.3) {
            profile = profile.with_block(
                rng.gen_range(0.05..0.95),
                SimDuration::from_ns(rng.gen_range(1..10_000)),
            );
        }
        g.add_task(ty, profile, &deps);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `TaskGraph → TdgFile → TaskGraph` is the identity — topology,
    /// profiles (memory time and blocks included) and criticalities all
    /// survive, through the in-memory form and through JSON.
    #[test]
    fn tdg_file_round_trip_is_identity(n in 0usize..50, p in 0.0f64..0.4, seed in any::<u64>()) {
        let g = random_graph(n, p, seed);
        let file = TdgFile::from_graph("prop", &g);
        let back = file.to_graph().unwrap();
        prop_assert_eq!(&back, &g);
        back.validate().unwrap();
        // Through the serialized form too (the `.tdg.json` artifact).
        let reparsed = TdgFile::from_json(&file.to_json_pretty()).unwrap();
        prop_assert_eq!(&reparsed, &file);
        prop_assert_eq!(&reparsed.to_graph().unwrap(), &g);
    }
}

const SEED: u64 = 42;

fn generator_spec() -> ScenarioSpec {
    ScenarioSpec::preset(
        "CATA",
        8,
        WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, SEED),
    )
    .unwrap()
}

fn run_sim(spec: &ScenarioSpec) -> cata_core::RunReport {
    SimExecutor
        .run_spec(spec, cata_core::exp::default_registries())
        .unwrap()
        .0
}

/// The golden replay contract: a generator workload exported to a
/// `TdgFile` and replayed — inline or from disk — produces a RunReport
/// whose serialized form is byte-for-byte the generator run's.
#[test]
fn exported_generator_replays_bit_identically() {
    let spec = generator_spec();
    let original = run_sim(&spec);
    let original_json = serde_json::to_string(&original).unwrap();

    let graph = spec.workload.try_build_graph().unwrap();
    let tdg = TdgFile::from_graph(spec.workload.label(), &graph);

    // Inline replay.
    let mut inline_spec = spec.clone();
    inline_spec.workload = WorkloadSpec::Inline(tdg.clone().into());
    let inline_report = run_sim(&inline_spec);
    assert_eq!(
        serde_json::to_string(&inline_report).unwrap(),
        original_json,
        "inline replay diverged from the generator run"
    );

    // File replay, digest-pinned.
    let path = tmp("golden.tdg.json");
    std::fs::write(&path, tdg.to_json_pretty()).unwrap();
    let mut file_spec = spec.clone();
    file_spec.workload = WorkloadSpec::File {
        path: path.to_string_lossy().into_owned(),
        digest: Some(tdg.content_digest()),
    };
    let file_report = run_sim(&file_spec);
    assert_eq!(
        serde_json::to_string(&file_report).unwrap(),
        original_json,
        "file replay diverged from the generator run"
    );

    // The replayed cells are *distinct grid cells* nonetheless: the TDG
    // content participates in the spec digest.
    assert_ne!(spec_digest(&spec), spec_digest(&inline_spec));
    assert_ne!(spec_digest(&inline_spec), spec_digest(&file_spec));
}

/// The capture hook on the simulator returns the spec's exact graph.
#[test]
fn sim_capture_round_trips_through_the_executor() {
    let scenario = Scenario::from_spec(generator_spec());
    let (report, captured): (_, CapturedGraph) = SimExecutor.execute_captured(&scenario).unwrap();
    assert_eq!(captured.backend, "sim");
    assert!(!captured.calibrated);
    assert_eq!(captured.tdg.num_tasks(), report.tasks);
    let original = scenario.spec().workload.try_build_graph().unwrap();
    assert_eq!(captured.tdg.to_graph().unwrap(), original);
    // The capture replays to the same report as the original workload.
    let mut replay = scenario.spec().clone();
    replay.workload = WorkloadSpec::Inline(captured.tdg.into());
    assert_eq!(
        serde_json::to_string(&run_sim(&replay)).unwrap(),
        serde_json::to_string(&report).unwrap()
    );
}

/// A native `record` substitutes observed durations: the captured file
/// preserves topology and criticalities but carries measured profiles,
/// and it replays on the simulator.
#[test]
fn native_record_is_host_calibrated_and_replays_on_sim() {
    let mut spec = ScenarioSpec::preset(
        "CATA+RSU",
        2,
        WorkloadSpec::ForkJoin {
            waves: 2,
            width: 6,
            cycles: 400_000,
        },
    )
    .unwrap();
    spec.machine = cata_sim::machine::MachineConfig::small_test(4);
    spec.fast_cores = 2;
    let scenario = Scenario::from_spec(spec.clone());

    let exec = NativeExecutor::new()
        .max_workers(4)
        .energy_source(cata_core::exp::EnergySource::Model);
    let (report, captured) = exec.execute_captured(&scenario).unwrap();
    assert_eq!(captured.backend, "native");
    assert!(captured.calibrated);
    assert_eq!(
        report.counters.tasks_completed as usize,
        captured.tdg.num_tasks()
    );

    let original = spec.workload.try_build_graph().unwrap();
    let replayed = captured.tdg.to_graph().unwrap();
    // Same topology and criticalities…
    assert_eq!(replayed.num_tasks(), original.num_tasks());
    for id in original.task_ids() {
        assert_eq!(replayed.preds(id), original.preds(id));
        assert_eq!(
            replayed.type_of(id).criticality,
            original.type_of(id).criticality
        );
    }
    // …but observed profiles: every task really executed, so every
    // profile carries a measured (nonzero) duration, and the memory/block
    // model is folded into it.
    for t in replayed.tasks() {
        assert!(
            t.profile.cpu_cycles > 0,
            "task {} lost its measurement",
            t.id
        );
        assert_eq!(t.profile.mem_ps, 0);
        assert!(t.profile.blocks.is_empty());
    }

    // The calibrated capture replays on the simulator.
    let mut replay = spec;
    replay.workload = WorkloadSpec::Inline(captured.tdg.into());
    let sim_report = run_sim(&replay);
    assert_eq!(sim_report.tasks, report.tasks);
    assert!(sim_report.exec_time > SimDuration::ZERO);
}

/// `File` workloads are pinned by content digest: editing the file under
/// the spec is an error, not a silent different-graph run — and a stale
/// embedded digest is caught even when the spec does not pin one.
#[test]
fn file_digest_pins_are_enforced() {
    let g = random_graph(12, 0.3, 7);
    let tdg = TdgFile::from_graph("pinned", &g);
    let path = tmp("pinned.tdg.json");
    std::fs::write(&path, tdg.to_json_pretty()).unwrap();
    let path_str = path.to_string_lossy().into_owned();

    let pinned = WorkloadSpec::File {
        path: path_str.clone(),
        digest: Some(tdg.content_digest()),
    };
    assert_eq!(pinned.try_build_graph().unwrap(), g);
    assert_eq!(pinned.label(), "pinned");

    // Edit the file (refreshing its own digest so only the pin differs).
    let mut edited = tdg.clone();
    edited.tasks[0].profile.cpu_cycles += 1;
    edited.refresh_digest();
    let edited_path = tmp("pinned-edited.tdg.json");
    std::fs::write(&edited_path, edited.to_json_pretty()).unwrap();
    let stale_pin = WorkloadSpec::File {
        path: edited_path.to_string_lossy().into_owned(),
        digest: Some(tdg.content_digest()),
    };
    match stale_pin.try_build_graph() {
        Err(ExpError::Workload(msg)) => assert!(msg.contains("digest"), "{msg}"),
        other => panic!("stale pin must fail: {other:?}"),
    }

    // A missing file errors cleanly too.
    let gone = WorkloadSpec::File {
        path: tmp("not-there.tdg.json").to_string_lossy().into_owned(),
        digest: None,
    };
    assert!(matches!(gone.try_build_graph(), Err(ExpError::Workload(_))));
}

/// Caches never mask edits. An inline TDG whose embedded digest went
/// stale errors even when the *original* graph is already in the shared
/// cache (the cache keys on computed content, not the trusted field), and
/// an unpinned `File` workload re-reads the file on every use — edits are
/// picked up mid-process, and a later pin captures the file as it is now.
#[test]
fn caches_never_serve_stale_graphs() {
    // Inline: build (and cache) the original, then probe with edited
    // content carrying the original's digest — must be a digest error,
    // not a silent replay of the cached original.
    let g = random_graph(14, 0.3, 11);
    let tdg = TdgFile::from_graph("stale-inline", &g);
    let original = WorkloadSpec::Inline(tdg.clone().into());
    assert_eq!(*original.try_build_graph_shared().unwrap(), g);
    let mut edited = tdg.clone();
    edited.tasks[0].profile.cpu_cycles += 7; // no refresh_digest()
    let stale = WorkloadSpec::Inline(edited.into());
    match stale.try_build_graph_shared() {
        Err(ExpError::Workload(msg)) => assert!(msg.contains("digest"), "{msg}"),
        Ok(graph) => panic!(
            "stale inline digest served a cached graph ({} tasks) instead of erroring",
            graph.num_tasks()
        ),
        Err(other) => panic!("wrong error: {other}"),
    }

    // Identical payload but a corrupted header must error too, even
    // though the valid original's graph sits in the cache under the same
    // content digest — validation must not depend on cache warmth.
    let mut bad_schema = tdg.clone();
    bad_schema.schema = "cata-tdg/v999".into();
    assert!(matches!(
        WorkloadSpec::Inline(bad_schema.into()).try_build_graph_shared(),
        Err(ExpError::Workload(_))
    ));

    // Unpinned file: the second read sees the rewrite.
    let path = tmp("iterating.tdg.json");
    std::fs::write(&path, tdg.to_json_pretty()).unwrap();
    let unpinned = WorkloadSpec::File {
        path: path.to_string_lossy().into_owned(),
        digest: None,
    };
    assert_eq!(unpinned.try_build_graph_shared().unwrap().num_tasks(), 14);
    let bigger = TdgFile::from_graph("stale-inline", &random_graph(20, 0.3, 12));
    std::fs::write(&path, bigger.to_json_pretty()).unwrap();
    assert_eq!(
        unpinned.try_build_graph_shared().unwrap().num_tasks(),
        20,
        "unpinned File must pick up the rewritten file"
    );
    // And pinning now pins the *current* content, not a cached revision.
    match WorkloadSpec::tdg_file_pinned(path.to_string_lossy().into_owned()).unwrap() {
        WorkloadSpec::File { digest, .. } => {
            assert_eq!(digest.as_deref(), Some(bigger.content_digest().as_str()));
        }
        other => panic!("expected a File workload, got {other:?}"),
    }
}

/// Sharding deals by grid index and never reads a workload, so a grid
/// holding a missing `File` or an unpinned one shards like any other:
/// the missing file fails only when its cell runs.
#[test]
fn shard_never_reads_a_workload() {
    let g = random_graph(6, 0.2, 21);
    let path = tmp("shard-unpinned.tdg.json");
    std::fs::write(&path, TdgFile::from_graph("unpinned", &g).to_json_pretty()).unwrap();
    let unpinned = WorkloadSpec::File {
        path: path.to_string_lossy().into_owned(),
        digest: None,
    };
    let gone = WorkloadSpec::File {
        path: tmp("never-written.tdg.json").to_string_lossy().into_owned(),
        digest: None,
    };
    let cell = |name: &str, w: WorkloadSpec| ScenarioSpec::new(name, w).with_small_machine(2, 1);
    let suite = Suite::from_specs(vec![
        cell("ok", WorkloadSpec::Chain { n: 2, cycles: 10 }),
        cell("gone", gone),
        cell("unpinned", unpinned),
    ]);
    let a = suite.clone().shard(1, 2).unwrap();
    let b = suite.shard(2, 2).unwrap();
    assert_eq!(a.cell_indices(), &[0]);
    assert_eq!(b.cell_indices(), &[1, 2]);
    let results = b.run(&SimExecutor);
    assert!(matches!(results[0], Err(ExpError::Workload(_))));
    assert!(results[1].is_ok());
}

/// Replayed workloads flow through suites, stores and resume exactly like
/// generated ones: cells keyed by `(index, spec_digest)`, loaded instead
/// of re-run, and bit-identical to the generator's cells.
#[test]
fn inline_workloads_are_first_class_suite_cells() {
    let spec = generator_spec().with_small_machine(4, 2);
    let graph = spec.workload.try_build_graph().unwrap();
    let tdg = TdgFile::from_graph(spec.workload.label(), &graph);
    let mut inline = spec.clone();
    inline.workload = WorkloadSpec::Inline(tdg.into());

    let path = tmp("inline-suite.jsonl");
    let _ = std::fs::remove_file(&path);
    let exec = SimExecutor;

    let suite = Suite::from_specs(vec![spec.clone(), inline.clone()]);
    let store = ResultsStore::open(&path).unwrap();
    let out = suite.run_with_store(&exec, &store).results;
    let gen_report = out[0].as_ref().unwrap();
    let replay_report = out[1].as_ref().unwrap();
    assert_eq!(
        serde_json::to_string(gen_report).unwrap(),
        serde_json::to_string(replay_report).unwrap(),
        "the replay cell must be bit-identical to the generator cell"
    );

    // Resume: both cells load from the store, nothing re-executes.
    let store = ResultsStore::open(&path).unwrap();
    let outcome = Suite::from_specs(vec![spec, inline]).run_with_store(&exec, &store);
    assert_eq!(outcome.resumed, 2);
    assert_eq!(outcome.executed, 0);
}

/// Editing an inline TDG changes the spec digest — the replayed graph's
/// content is its identity, so a store never serves a stale graph.
#[test]
fn inline_content_is_part_of_the_cell_identity() {
    let g = random_graph(10, 0.25, 3);
    let tdg = TdgFile::from_graph("ident", &g);
    let base = ScenarioSpec::preset("FIFO", 2, WorkloadSpec::Inline(tdg.clone().into()))
        .unwrap()
        .with_small_machine(4, 2);
    let mut edited_tdg = tdg;
    edited_tdg.tasks[1].profile.cpu_cycles *= 3;
    edited_tdg.refresh_digest();
    let mut edited = base.clone();
    edited.workload = WorkloadSpec::Inline(edited_tdg.into());
    assert_ne!(spec_digest(&base), spec_digest(&edited));

    // And the spec round-trips through JSON and TOML with the TDG aboard.
    let json = base.to_json();
    assert_eq!(ScenarioSpec::from_json(&json).unwrap(), base);
    let toml_text = base.to_toml();
    assert_eq!(ScenarioSpec::from_toml(&toml_text).unwrap(), base);
}
