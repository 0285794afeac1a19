//! Integration tests of the results store + sharded suite subsystem: the
//! acceptance contract is that sharding a grid across processes/files and
//! resuming interrupted sweeps are *invisible* — the merged reports are
//! bit-identical to one uninterrupted in-process `Suite::run`.

use cata_core::exp::{spec_digest, ResultsStore, ScenarioSpec, ShardOrder, Suite, WorkloadSpec};
use cata_core::{RunReport, SimExecutor};
use proptest::prelude::*;
use std::io::Write as _;
use std::path::PathBuf;

/// The six-preset grid on a small deterministic workload.
fn grid() -> Vec<ScenarioSpec> {
    ScenarioSpec::paper_matrix(
        2,
        WorkloadSpec::ForkJoin {
            waves: 3,
            width: 8,
            cycles: 400_000,
        },
    )
    .into_iter()
    .map(|s| s.with_small_machine(4, 2))
    .collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cata-store-suite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn bits(r: &RunReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

/// Two disjoint shards into two stores, merged, against one unsharded
/// in-process run: same cells, same order, bit-identical reports — the
/// acceptance criterion of the sharded-suite subsystem.
#[test]
fn sharded_stores_merge_bit_identical_to_single_process_run() {
    let exec = SimExecutor;
    let reference = Suite::from_specs(grid()).jobs(2).run_all(&exec);

    let a_path = tmp("shard-a.jsonl");
    let b_path = tmp("shard-b.jsonl");
    for (k, path) in [(1, &a_path), (2, &b_path)] {
        let suite = Suite::from_specs(grid()).jobs(2).shard(k, 2).unwrap();
        let store = ResultsStore::open(path).unwrap();
        let outcome = suite.run_with_store(&exec, &store);
        assert_eq!(outcome.executed, 3, "shard {k}/2 runs half the grid");
        assert_eq!(outcome.resumed, 0);
    }

    let merged = ResultsStore::merge_files(&[&a_path, &b_path]).unwrap();
    assert_eq!(merged.records.len(), reference.len());
    assert_eq!(merged.truncated_shards, 0);
    for (rec, want) in merged.records.iter().zip(&reference) {
        assert_eq!(rec.report.label, want.label);
        assert_eq!(
            bits(&rec.report),
            bits(want),
            "{}: merged shard cell diverged from the in-process run",
            want.label
        );
    }
    // Record identity carries the grid index and the spec digest, and
    // both shards stamped the same full-grid provenance tag.
    assert_eq!(merged.distinct_grids, 1, "shards of one grid share a tag");
    let specs = grid();
    for (i, rec) in merged.records.iter().enumerate() {
        assert_eq!(rec.index, i as u64);
        assert_eq!(rec.spec_digest, spec_digest(&specs[i]));
        assert_eq!(rec.seed, specs[i].seed);
        assert!(rec.wall_s >= 0.0);
    }
}

/// Kill-and-resume: run half the suite into a store, tear the writer
/// mid-line (half a record, no newline — what a killed process leaves
/// behind), then resume with the full grid. The resume must execute
/// exactly the missing cells, and the final results must be bit-identical
/// to an uninterrupted single-process run.
#[test]
fn resume_after_torn_write_completes_exactly_the_missing_cells() {
    let exec = SimExecutor;
    let reference = Suite::from_specs(grid()).jobs(1).run_all(&exec);
    let path = tmp("resume.jsonl");

    // First half: shard 1/2 (global cells 0, 2, 4) into the store.
    {
        let suite = Suite::from_specs(grid()).shard(1, 2).unwrap();
        let store = ResultsStore::open(&path).unwrap();
        let outcome = suite.run_with_store(&exec, &store);
        assert_eq!(outcome.executed, 3);
    }
    // The writer dies mid-append: a torn, newline-less record fragment.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(br#"{"schema":"cata-results/v1","index":5,"cell":"Turbo"#)
            .unwrap();
    }

    // Resume with the *full* grid: the torn tail is discarded, the three
    // stored cells load, and only the three missing cells execute.
    let store = ResultsStore::open(&path).unwrap();
    assert!(store.recovered_torn_tail());
    assert_eq!(store.records().len(), 3);
    let outcome = Suite::from_specs(grid())
        .jobs(2)
        .run_with_store(&exec, &store);
    assert_eq!(outcome.resumed, 3, "stored cells must not re-run");
    assert_eq!(outcome.executed, 3, "only the missing cells execute");
    assert_eq!(outcome.results.len(), reference.len());
    for (got, want) in outcome.results.iter().zip(&reference) {
        let got = got.as_ref().expect("cell runs");
        assert_eq!(
            bits(got),
            bits(want),
            "{}: resumed suite diverged from the uninterrupted run",
            want.label
        );
    }

    // A third invocation finds everything stored: nothing executes.
    let store = ResultsStore::open(&path).unwrap();
    assert!(!store.recovered_torn_tail(), "tail was truncated away");
    let outcome = Suite::from_specs(grid())
        .jobs(2)
        .run_with_store(&exec, &store);
    assert_eq!(outcome.resumed, 6);
    assert_eq!(outcome.executed, 0);
}

/// Editing a spec invalidates only that cell: resume keys on
/// `(index, spec_digest)`, so a changed cell re-runs while the rest load.
#[test]
fn changed_spec_reruns_only_that_cell() {
    let exec = SimExecutor;
    let path = tmp("respec.jsonl");
    {
        let store = ResultsStore::open(&path).unwrap();
        let outcome = Suite::from_specs(grid()).run_with_store(&exec, &store);
        assert_eq!(outcome.executed, 6);
    }
    let mut specs = grid();
    specs[3].seed ^= 0xFFFF;
    let store = ResultsStore::open(&path).unwrap();
    let outcome = Suite::from_specs(specs.clone()).run_with_store(&exec, &store);
    assert_eq!(outcome.resumed, 5);
    assert_eq!(outcome.executed, 1, "only the reseeded cell re-runs");

    // The store now holds a stale and a fresh record at index 3; merging
    // must still work, with the chronologically later record winning.
    let merged = ResultsStore::merge_files(&[&path]).unwrap();
    assert_eq!(merged.records.len(), 6);
    assert_eq!(merged.duplicates, 1, "the stale record is superseded");
    assert_eq!(merged.records[3].spec_digest, spec_digest(&specs[3]));
    assert_eq!(merged.records[3].seed, specs[3].seed);
}

/// Pushing into a sharded suite must stay inside the shard's residue
/// class — otherwise two shards could claim the same grid index.
#[test]
fn push_after_shard_stays_disjoint() {
    use cata_core::exp::Scenario;
    let extra = || {
        Scenario::from_spec(ScenarioSpec::new(
            "extra",
            WorkloadSpec::Chain {
                n: 2,
                cycles: 1_000,
            },
        ))
    };
    let mut a = Suite::from_specs(grid()).shard(1, 2).unwrap();
    let mut b = Suite::from_specs(grid()).shard(2, 2).unwrap();
    a.push(extra());
    b.push(extra());
    assert_eq!(a.cell_indices(), &[0, 2, 4, 6]);
    assert_eq!(b.cell_indices(), &[1, 3, 5, 7]);

    // Even from empty sharded suites, indices start in the residue class.
    let mut ea = Suite::from_specs(Vec::new()).shard(1, 3).unwrap();
    let mut eb = Suite::from_specs(Vec::new()).shard(2, 3).unwrap();
    ea.push(extra());
    eb.push(extra());
    assert_eq!(ea.cell_indices(), &[0]);
    assert_eq!(eb.cell_indices(), &[1]);
}

/// Suite workers stream records concurrently through one append handle;
/// every line must stay parseable (the atomic-append contract).
#[test]
fn parallel_store_writes_never_tear_lines() {
    let exec = SimExecutor;
    let path = tmp("parallel.jsonl");
    let store = ResultsStore::open(&path).unwrap();
    let outcome = Suite::from_specs(grid())
        .jobs(6)
        .run_with_store(&exec, &store);
    assert_eq!(outcome.executed, 6);
    let (records, truncated) = ResultsStore::load(&path).unwrap();
    assert!(!truncated);
    assert_eq!(records.len(), 6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `K/N` shard partitioner is a true partition: shards are
    /// pairwise disjoint and their union covers the grid exactly, for any
    /// grid size and shard count.
    #[test]
    fn shards_partition_the_grid(cells in 1usize..40, shards in 1usize..9) {
        let specs: Vec<ScenarioSpec> = (0..cells)
            .map(|i| {
                ScenarioSpec::new(
                    format!("cell-{i}"),
                    WorkloadSpec::Chain { n: 2, cycles: 1_000 },
                )
            })
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        for k in 1..=shards {
            let slice = Suite::from_specs(specs.clone()).shard(k, shards).unwrap();
            for &i in slice.cell_indices() {
                prop_assert!(seen.insert(i), "cell {i} appears in two shards");
            }
        }
        prop_assert_eq!(seen.len(), cells, "shards must cover the grid");
        prop_assert_eq!(seen.iter().copied().collect::<Vec<u64>>(),
                        (0..cells as u64).collect::<Vec<u64>>());
    }

    /// The cost-aware snake partitioner is also a true partition — for any
    /// grid size, shard count, and cost skew — and never puts the two most
    /// expensive cells on one shard (when there are at least two shards).
    #[test]
    fn snake_shards_partition_the_grid(
        costs in prop::collection::vec(1u64..1_000_000, 1..40),
        shards in 1usize..9,
    ) {
        let specs: Vec<ScenarioSpec> = costs
            .iter()
            .map(|&c| {
                ScenarioSpec::new(
                    format!("cell-{c}"),
                    WorkloadSpec::Chain { n: 1, cycles: c },
                )
            })
            .collect();
        let cells = specs.len();
        let mut seen = std::collections::BTreeSet::new();
        let mut heavy_shard = None;
        let heaviest_two: Vec<u64> = {
            let mut ranked: Vec<(u64, u64)> = specs
                .iter()
                .enumerate()
                .map(|(i, s)| (s.workload.cost_estimate(), i as u64))
                .collect();
            // Highest cost first, grid index as the deterministic tie-break
            // (mirrors the partitioner's own ranking).
            ranked.sort_by_key(|&(c, i)| (std::cmp::Reverse(c), i));
            ranked.iter().take(2).map(|&(_, i)| i).collect()
        };
        for k in 1..=shards {
            let slice = Suite::from_specs(specs.clone())
                .shard_ordered(k, shards, ShardOrder::Snake)
                .unwrap();
            for &i in slice.cell_indices() {
                prop_assert!(seen.insert(i), "cell {i} appears in two shards");
            }
            if slice.cell_indices().contains(&heaviest_two[0]) {
                heavy_shard = Some(k);
            }
        }
        prop_assert_eq!(seen.len(), cells, "snake shards must cover the grid");
        if shards > 1 && cells > 1 {
            let heavy = heavy_shard.expect("some shard holds the heaviest cell");
            let second = Suite::from_specs(specs.clone())
                .shard_ordered(heavy, shards, ShardOrder::Snake)
                .unwrap();
            prop_assert!(
                !second.cell_indices().contains(&heaviest_two[1]),
                "shard {heavy} holds both of the two heaviest cells"
            );
        }
    }
}
