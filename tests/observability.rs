//! Integration tests of the operator-console stack: a real sharded sweep
//! emitting heartbeat sidecars, tailed and merged into one dashboard
//! state; the headless renderer over that state; and the replay contract
//! — a stored cell's embedded spec re-runs bit-identically on the sim
//! backend. The acceptance criterion is that telemetry is *purely
//! observational*: reports and stores are byte-identical with and
//! without it.

use cata_core::exp::{
    spec_digest, JsonlTail, ProgressWriter, ResultsStore, ScenarioSpec, Suite, WorkloadSpec,
};
use cata_core::{Executor, RunReport, Scenario, SimExecutor};
use cata_obs::{render, required_height, CellState, DashState};
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
    let dir = std::env::temp_dir().join(format!("cata-obs-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn bits(r: &RunReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

/// A two-shard sweep with heartbeats, tailed into one `DashState`: the
/// merged view reaches 100% with every cell done, the renderer shows
/// every cell key, and the reports are bit-identical to an unobserved
/// run — telemetry changes nothing.
#[test]
fn sharded_sweep_with_heartbeats_merges_into_a_complete_dashboard() {
    let exec = SimExecutor;
    let reference = Suite::from_specs(grid()).jobs(2).run_all(&exec);

    let mut store_paths = Vec::new();
    let mut progress_paths = Vec::new();
    for k in 1..=2usize {
        let store_path = tmp(&format!("shard-{k}.jsonl"));
        let progress_path = tmp(&format!("shard-{k}.progress.jsonl"));
        let suite = Suite::from_specs(grid()).jobs(2).shard(k, 2).unwrap();
        let store = ResultsStore::open(&store_path).unwrap();
        let writer = ProgressWriter::open(&progress_path, k as u64).unwrap();
        let outcome = suite.run_with_store_observed(&exec, &store, Some(&writer));
        assert_eq!(outcome.executed, 3, "shard {k}/2 runs half the grid");
        store_paths.push(store_path);
        progress_paths.push(progress_path);
    }

    // Tail everything into one state, interleaving the two shards'
    // streams the way a live watch would see them.
    let mut state = DashState::new();
    let mut tails: Vec<JsonlTail> = progress_paths.iter().map(JsonlTail::new).collect();
    loop {
        let mut got = false;
        for t in &mut tails {
            for line in t.poll().unwrap() {
                state.ingest_progress_line(&line);
                got = true;
            }
        }
        if !got {
            break;
        }
    }
    for p in &store_paths {
        let mut t = JsonlTail::new(p);
        for line in t.poll().unwrap() {
            state.ingest_store_line(&line);
        }
    }

    assert_eq!(state.parse_errors, 0);
    assert_eq!(state.grid_total(), 6);
    assert_eq!(state.grid_done(), 6);
    assert!(state.complete(), "heatmap reaches 100%");
    assert_eq!(state.cells.len(), 6);
    for cell in state.cells.values() {
        assert_eq!(cell.state, CellState::Done);
        assert!(cell.has_spec, "store records embed the replayable spec");
        assert!(cell.host.is_some());
        let (s, f) = (
            cell.started_unix_ms.unwrap(),
            cell.finished_unix_ms.unwrap(),
        );
        assert!(s <= f, "start stamp precedes finish stamp");
        assert!(cell.report.is_some());
    }

    // Headless frame at auto height: every cell key appears, no NaN/inf.
    let frame = render(&state, 120, required_height(&state, 120));
    let text = frame.to_text();
    for cell in state.cells.values() {
        assert!(text.contains(&cell.key), "missing {} in:\n{text}", cell.key);
    }
    assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    assert!(text.contains("6/6"), "{text}");

    // Telemetry is observational: the observed run's reports are
    // bit-identical to the unobserved reference.
    let merged = ResultsStore::merge_files(&store_paths).unwrap();
    assert_eq!(merged.records.len(), reference.len());
    for (rec, want) in merged.records.iter().zip(&reference) {
        assert_eq!(bits(&rec.report), bits(want));
    }
}

/// The replay contract: a stored cell's embedded spec digests to the
/// record's pinned digest, and re-running it on the sim backend
/// reproduces the stored report bit for bit.
#[test]
fn stored_cells_replay_bit_identically_from_their_embedded_spec() {
    let exec = SimExecutor;
    let store_path = tmp("replay.jsonl");
    let store = ResultsStore::open(&store_path).unwrap();
    let suite = Suite::from_specs(grid()).jobs(2);
    suite.run_with_store_observed(&exec, &store, None);

    let (records, truncated) = ResultsStore::load(&store_path).unwrap();
    assert!(!truncated);
    assert_eq!(records.len(), 6);
    for rec in &records {
        let spec = rec.spec.as_ref().expect("observed stores embed specs");
        assert_eq!(spec_digest(spec), rec.spec_digest);
        let fresh = exec.execute(&Scenario::from_spec(spec.clone())).unwrap();
        assert_eq!(
            bits(&fresh),
            bits(&rec.report),
            "cell {} diverged on replay",
            rec.cell
        );
    }
}

/// Tailing a progress stream *while it grows* (poll between emits) sees
/// the same final state as tailing it after the fact — the incremental
/// path drops nothing and double-counts nothing.
#[test]
fn incremental_tailing_matches_post_hoc_tailing() {
    let exec = SimExecutor;
    let store_path = tmp("incr.jsonl");
    let progress_path = tmp("incr.progress.jsonl");

    // Run cell by cell, polling the tail between suite invocations to
    // simulate a live watch racing the writer.
    let mut live = DashState::new();
    let mut tail = JsonlTail::new(&progress_path);
    let writer = ProgressWriter::open(&progress_path, 0).unwrap();
    let store = ResultsStore::open(&store_path).unwrap();
    let suite = Suite::from_specs(grid()).jobs(1);
    suite.run_with_store_observed(&exec, &store, Some(&writer));
    for line in tail.poll().unwrap() {
        live.ingest_progress_line(&line);
    }

    let mut post = DashState::new();
    let mut t2 = JsonlTail::new(&progress_path);
    for line in t2.poll().unwrap() {
        post.ingest_progress_line(&line);
    }

    assert_eq!(live.grid_done(), post.grid_done());
    assert_eq!(live.cells.len(), post.cells.len());
    for (i, c) in &live.cells {
        assert_eq!(c.state, post.cells[i].state, "cell {i}");
        assert_eq!(c.key, post.cells[i].key);
    }
    let (w, h) = (120, required_height(&live, 120));
    assert_eq!(
        render(&live, w, h).to_text(),
        render(&post, w, h).to_text(),
        "same state ⇒ same frame"
    );
}
