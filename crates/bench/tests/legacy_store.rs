//! A results store written before latency distributions were stored as
//! 128-sub-bucket histograms still loads, merges, renders and replays.
//!
//! `tests/fixtures/legacy-store.jsonl` holds two cells in the older form:
//! a closed CATA dedup-tiny cell with its embedded spec, whose
//! `lock_waits` and `reconfig_latencies` list every sample
//! (`samples_ps`), and a faulted `serve` cell that also carries service
//! and recovery latencies as 16-sub-bucket histograms indexed by bucket.
//! The constants below were read from those stored reports when the
//! fixture was written.

use cata_core::exp::{CellRecord, ResultsStore};
use cata_core::RunReport;
use cata_obs::{render, required_height, DashState};
use cata_sim::time::SimDuration;
use std::process::Command;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/legacy-store.jsonl"
);

const CLOSED: &str = "CATA@Dedup/f8/sim";
const SERVE: &str = "CATA@Dedup/f16/serve";

/// `(count, mean_ps, min_ps, max_ps)`.
type Summary = (u64, u64, u64, u64);

fn summary(count: u64, mean: SimDuration, min: SimDuration, max: SimDuration) -> Summary {
    (count, mean.as_ps(), min.as_ps(), max.as_ps())
}

macro_rules! summary_of {
    ($d:expr) => {
        summary($d.count() as u64, $d.mean(), $d.min(), $d.max())
    };
}

/// The exact summaries of the closed cell's two distributions.
const CLOSED_LOCK_WAITS: Summary = (1068, 907_965, 0, 30_000_000);
const CLOSED_RECONFIG: Summary = (51, 6_747_564, 3_300_000, 23_100_000);
/// The exact nearest-rank p99 of the closed cell's reconfiguration
/// latencies.
const CLOSED_RECONFIG_P99: u64 = 23_100_000;

const SERVE_LOCK_WAITS: Summary = (13_445, 125_036, 0, 50_700_000);
const SERVE_RECONFIG: Summary = (102, 8_767_153, 3_300_000, 46_200_000);
const SERVE_LATENCY: Summary = (13, 62_328_401_930, 58_675_977_657, 65_254_767_226);
const SERVE_QUEUE_WAIT: Summary = (13, 9_834_663, 0, 23_778_199);
const SERVE_SERVICE_TIME: Summary = (13, 62_318_567_267, 58_675_977_657, 65_253_828_789);
const SERVE_RECOVERY: Summary = (2, 183_541_895, 22_612_361, 344_471_429);

/// `(p50, p99)` of the serve cell's 16-sub-bucket histograms as they read
/// when stored: bucket floors, or the exact minimum where a floor lies
/// below it.
const SERVE_LATENCY_Q: (u64, u64) = (60_129_542_144, 64_424_509_440);
const SERVE_QUEUE_WAIT_Q: (u64, u64) = (9_961_472, 23_068_672);
const SERVE_SERVICE_TIME_Q: (u64, u64) = (60_129_542_144, 64_424_509_440);
const SERVE_RECOVERY_Q: (u64, u64) = (335_544_320, 335_544_320);

fn cell<'a>(records: &'a [CellRecord], key: &str) -> &'a RunReport {
    &records
        .iter()
        .find(|r| r.cell == key)
        .unwrap_or_else(|| panic!("fixture has no cell {key}"))
        .report
}

fn check_summaries(records: &[CellRecord]) {
    let closed = cell(records, CLOSED);
    assert_eq!(summary_of!(closed.lock_waits), CLOSED_LOCK_WAITS);
    assert_eq!(summary_of!(closed.reconfig_latencies), CLOSED_RECONFIG);

    let serve = cell(records, SERVE);
    assert_eq!(summary_of!(serve.lock_waits), SERVE_LOCK_WAITS);
    assert_eq!(summary_of!(serve.reconfig_latencies), SERVE_RECONFIG);
    let s = serve
        .service
        .as_ref()
        .expect("serve cell has service metrics");
    assert_eq!(summary_of!(s.latency), SERVE_LATENCY);
    assert_eq!(summary_of!(s.queue_wait), SERVE_QUEUE_WAIT);
    assert_eq!(summary_of!(s.service_time), SERVE_SERVICE_TIME);
    let f = serve.fault.as_ref().expect("serve cell has fault metrics");
    assert_eq!(summary_of!(f.recovery_latency), SERVE_RECOVERY);
}

#[test]
fn legacy_store_loads_and_merges_with_exact_summaries() {
    let (records, truncated) = ResultsStore::load(FIXTURE).expect("legacy store loads");
    assert!(!truncated);
    assert_eq!(records.len(), 2);
    check_summaries(&records);

    let merged = ResultsStore::merge_files(&[FIXTURE, FIXTURE]).expect("legacy store merges");
    assert_eq!(merged.records.len(), 2);
    assert_eq!(merged.truncated_shards, 0);
    check_summaries(&merged.records);
}

/// Legacy histograms are folded by bucket floor: every quantile reads the
/// floor it read when stored. Reading the old bucket indices as new ones
/// would keep the counts summing to the total but misplace every bucket.
#[test]
fn legacy_histograms_keep_their_quantiles() {
    let (records, _) = ResultsStore::load(FIXTURE).expect("legacy store loads");
    let serve = cell(&records, SERVE);
    let s = serve.service.as_ref().expect("service metrics");
    let f = serve.fault.as_ref().expect("fault metrics");
    for (name, h, want) in [
        ("latency", &s.latency, SERVE_LATENCY_Q),
        ("queue_wait", &s.queue_wait, SERVE_QUEUE_WAIT_Q),
        ("service_time", &s.service_time, SERVE_SERVICE_TIME_Q),
        ("recovery_latency", &f.recovery_latency, SERVE_RECOVERY_Q),
    ] {
        let got = (h.quantile(0.5).as_ps(), h.quantile(0.99).as_ps());
        assert_eq!(got, want, "{name}: (p50, p99)");
    }
}

#[test]
fn dashboard_ingests_and_renders_legacy_cells() {
    let text = std::fs::read_to_string(FIXTURE).expect("fixture reads");
    let mut state = DashState::new();
    for line in text.lines() {
        state.ingest_store_line(line);
    }
    assert_eq!(state.parse_errors, 0);
    assert_eq!(state.cells.len(), 2);
    let p99 = |key: &str| {
        state
            .cells
            .values()
            .find(|c| c.key == key)
            .and_then(|c| c.p99_ps)
            .unwrap_or_else(|| panic!("{key}: no p99"))
    };
    assert_eq!(p99(SERVE), SERVE_LATENCY_Q.1);
    // A closed cell's p99 is its reconfiguration latency: within the
    // stated histogram error below the exact value, never above.
    let closed = p99(CLOSED);
    assert!(
        (CLOSED_RECONFIG_P99 - CLOSED_RECONFIG_P99 / 128..=CLOSED_RECONFIG_P99).contains(&closed),
        "closed p99 {closed} vs exact {CLOSED_RECONFIG_P99}"
    );

    for selected in 0..2 {
        state.selected = selected;
        for detail in [false, true] {
            state.show_detail = detail;
            let frame = render(&state, 140, required_height(&state, 140).max(40)).to_text();
            assert!(!frame.contains("NaN") && !frame.contains("inf"), "{frame}");
            // The detail pane states the error bound next to quantiles.
            assert_eq!(frame.contains("(≤0.8% low)"), detail, "{frame}");
        }
    }
}

#[test]
fn legacy_closed_cell_replays_bit_identically() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["replay", CLOSED, "--store", FIXTURE])
        .output()
        .expect("repro starts");
    assert!(
        out.status.success(),
        "replay failed: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
