//! Integration tests of the results store + sharded suite subsystem: the
//! acceptance contract is that sharding a grid across processes/files and
//! resuming interrupted sweeps are *invisible* — the merged reports are
//! bit-identical to one uninterrupted in-process `Suite::run`.

use cata_core::exp::{spec_digest, ResultsStore, ScenarioSpec, Suite, WorkloadSpec};
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

    // First half: shard 1/2 (global cells 0, 3, 4) into the store.
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
    /// grid size and shard count. It is balanced too: shard sizes differ
    /// by at most one, and every aligned block of `2N` cells (a forward
    /// row and the backward row after it) gives each shard exactly two.
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
        let mut sizes = Vec::new();
        for k in 1..=shards {
            let slice = Suite::from_specs(specs.clone()).shard(k, shards).unwrap();
            for &i in slice.cell_indices() {
                prop_assert!(seen.insert(i), "cell {i} appears in two shards");
            }
            let block = 2 * shards as u64;
            for b in 0..cells as u64 / block {
                let held = slice
                    .cell_indices()
                    .iter()
                    .filter(|&&i| i / block == b)
                    .count();
                prop_assert_eq!(held, 2, "shard {} holds {} cells of block {}", k, held, b);
            }
            sizes.push(slice.len());
        }
        prop_assert_eq!(seen.len(), cells, "shards must cover the grid");
        prop_assert_eq!(seen.iter().copied().collect::<Vec<u64>>(),
                        (0..cells as u64).collect::<Vec<u64>>());
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "shard sizes {:?} differ by more than one", sizes);
    }
}
