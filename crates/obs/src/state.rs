//! Dashboard state: the merged view of stores, progress streams, and the
//! perf trajectory that the renderer projects into a frame.
//!
//! Ingestion is line-oriented and incremental — each `ingest_*` method
//! takes one JSONL line straight from a [`JsonlTail`] poll and folds it
//! into the state. Lines may arrive from several shards in any
//! interleaving; cells are keyed by their grid index, so replays and
//! cross-shard duplicates are idempotent. A line that fails to parse (or
//! carries the wrong schema tag) bumps [`DashState::parse_errors`]
//! instead of aborting: a dashboard must survive whatever a half-written
//! sidecar file throws at it.
//!
//! [`JsonlTail`]: cata_core::exp::JsonlTail

use std::collections::{BTreeMap, BTreeSet};

use cata_core::exp::{CellRecord, ProgressEvent, ProgressRecord, PROGRESS_SCHEMA, STORE_SCHEMA};
use cata_core::RunReport;
use serde::Value;

/// Schema tag of `repro perf --trajectory` lines; `cata-bench`, which
/// writes them, re-exports it as `perf::TRAJECTORY_SCHEMA`.
pub const TRAJECTORY_SCHEMA: &str = "cata-perf-point/v1";

/// Lifecycle of one grid cell as observed from the outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// Declared by the grid but not yet started.
    Pending,
    /// A `cell-start` heartbeat arrived, no finish yet.
    Running,
    /// Finished successfully (store record or `ok:true` heartbeat).
    Done,
    /// The attempt errored (`ok:false` heartbeat).
    Failed,
}

/// Everything the dashboard knows about one grid cell.
#[derive(Debug, Clone)]
pub struct CellView {
    /// Grid index (row-major position in the scenario grid).
    pub index: u64,
    /// Cell key (`name@scale/fN/...`), or the scenario name until the
    /// finished record supplies the full key.
    pub key: String,
    /// Observed lifecycle state.
    pub state: CellState,
    /// Wall-clock seconds of the finished attempt.
    pub wall_s: Option<f64>,
    /// Energy-delay product, when the run measured energy.
    pub edp: Option<f64>,
    /// p99 latency in picoseconds: response time for service cells,
    /// reconfiguration latency for closed-system cells.
    pub p99_ps: Option<u64>,
    /// Fault-injection events, when the run injected faults.
    pub faults_injected: Option<u64>,
    /// Memory-slot requests that had to wait, when memory was contended.
    pub mem_waited: Option<u64>,
    /// Host fingerprint the cell ran on.
    pub host: Option<String>,
    /// Wall-clock start stamp (ms since epoch).
    pub started_unix_ms: Option<u64>,
    /// Wall-clock finish stamp (ms since epoch).
    pub finished_unix_ms: Option<u64>,
    /// Whether the store record embeds a replayable [`ScenarioSpec`]
    /// (`repro replay` needs it).
    ///
    /// [`ScenarioSpec`]: cata_core::exp::ScenarioSpec
    pub has_spec: bool,
    /// The full report, for the detail pane.
    pub report: Option<RunReport>,
}

impl CellView {
    pub(crate) fn placeholder(index: u64) -> Self {
        CellView {
            index,
            key: format!("#{index}"),
            state: CellState::Pending,
            wall_s: None,
            edp: None,
            p99_ps: None,
            faults_injected: None,
            mem_waited: None,
            host: None,
            started_unix_ms: None,
            finished_unix_ms: None,
            has_spec: false,
            report: None,
        }
    }
}

/// Latest grid-completion heartbeat from one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardProgress {
    /// Cells no longer pending in this shard's slice.
    pub done: u64,
    /// Cells in this shard's slice.
    pub total: u64,
}

/// Latest service-mode snapshot (open-system runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceView {
    /// Arrivals consumed so far.
    pub arrivals: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Graphs completed.
    pub completed: u64,
    /// Arrivals dropped at the door.
    pub dropped: u64,
    /// Graphs admitted but not yet complete.
    pub in_flight: u64,
    /// Running p99 response time, picoseconds.
    pub p99_ps: u64,
    /// Simulated time of the snapshot, picoseconds.
    pub sim_time_ps: u64,
}

/// One accepted perf-trajectory sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajPoint {
    /// Host fingerprint the point was measured on (absent on legacy
    /// lines predating provenance stamping).
    pub host: Option<String>,
    /// Wall-clock stamp of the measurement.
    pub unix_ms: Option<u64>,
    /// Mean events/sec across the point's workload summaries.
    pub events_per_sec: f64,
}

/// The merged, renderable view of a run in flight.
#[derive(Debug, Clone, Default)]
pub struct DashState {
    /// Cells by grid index (BTreeMap: the heatmap walks them in order).
    pub cells: BTreeMap<u64, CellView>,
    /// Latest completion heartbeat per shard.
    pub shards: BTreeMap<u64, ShardProgress>,
    /// Latest service snapshot, when an open-system run is streaming.
    pub service: Option<ServiceView>,
    /// Accepted trajectory samples, in file order.
    pub traj: Vec<TrajPoint>,
    /// Distinct host fingerprints seen across trajectory samples.
    pub traj_hosts: BTreeSet<String>,
    /// Lines that failed to parse or carried a foreign schema tag.
    pub parse_errors: u64,
    /// Cursor row in the cell table (index into `cells` iteration order).
    pub selected: usize,
    /// Whether the detail pane replaces the cell table.
    pub show_detail: bool,
}

impl DashState {
    /// A fresh, empty state.
    pub fn new() -> Self {
        DashState::default()
    }

    /// Folds one line of a results store (`cata-results/v1`) into the
    /// state. Store records are authoritative: they always mark the cell
    /// `Done` and supply the full report.
    pub fn ingest_store_line(&mut self, line: &str) {
        let rec: CellRecord = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(_) => {
                self.parse_errors += 1;
                return;
            }
        };
        if rec.schema != STORE_SCHEMA {
            self.parse_errors += 1;
            return;
        }
        let view = self
            .cells
            .entry(rec.index)
            .or_insert_with(|| CellView::placeholder(rec.index));
        view.key = rec.cell;
        view.state = CellState::Done;
        view.wall_s = Some(rec.wall_s);
        view.edp = rec
            .report
            .energy
            .has_energy()
            .then_some(rec.report.energy.edp);
        view.p99_ps = Some(match &rec.report.service {
            Some(s) => s.latency.quantile(0.99).as_ps(),
            None => rec.report.reconfig_latencies.quantile(0.99).as_ps(),
        });
        view.faults_injected = rec.report.fault.as_ref().map(|f| f.injected);
        view.mem_waited = rec.report.memory.as_ref().map(|m| m.waited);
        view.host = rec.host;
        view.started_unix_ms = rec.started_unix_ms;
        view.finished_unix_ms = rec.finished_unix_ms;
        view.has_spec = rec.spec.is_some();
        view.report = Some(rec.report);
    }

    /// Folds one heartbeat line (`cata-progress/v1`) into the state.
    /// Heartbeats never downgrade a cell a store record already finished.
    pub fn ingest_progress_line(&mut self, line: &str) {
        let rec: ProgressRecord = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(_) => {
                self.parse_errors += 1;
                return;
            }
        };
        if rec.schema != PROGRESS_SCHEMA {
            self.parse_errors += 1;
            return;
        }
        match rec.event {
            ProgressEvent::CellStart { index, name, .. } => {
                let view = self
                    .cells
                    .entry(index)
                    .or_insert_with(|| CellView::placeholder(index));
                if view.state == CellState::Pending {
                    view.state = CellState::Running;
                    view.key = name;
                    view.started_unix_ms = Some(rec.unix_ms);
                }
            }
            ProgressEvent::CellFinish {
                index,
                cell,
                ok,
                wall_s,
            } => {
                let view = self
                    .cells
                    .entry(index)
                    .or_insert_with(|| CellView::placeholder(index));
                if view.state != CellState::Done {
                    view.state = if ok {
                        CellState::Done
                    } else {
                        CellState::Failed
                    };
                    view.key = cell;
                    view.wall_s = Some(wall_s);
                    view.finished_unix_ms = Some(rec.unix_ms);
                }
            }
            ProgressEvent::GridProgress { done, total } => {
                self.shards.insert(rec.shard, ShardProgress { done, total });
            }
            ProgressEvent::ServiceSnapshot {
                arrivals,
                admitted,
                completed,
                dropped,
                in_flight,
                p99_ps,
                sim_time_ps,
            } => {
                let snap = ServiceView {
                    arrivals,
                    admitted,
                    completed,
                    dropped,
                    in_flight,
                    p99_ps,
                    sim_time_ps,
                };
                // Keep the furthest-along snapshot: streams may replay
                // from offset 0 after truncation.
                if self
                    .service
                    .is_none_or(|s| snap.sim_time_ps >= s.sim_time_ps)
                {
                    self.service = Some(snap);
                }
            }
        }
    }

    /// Folds one `repro perf --trajectory` line into the sparkline
    /// series. The events/sec value is the mean across the point's
    /// workload summaries.
    pub fn ingest_trajectory_line(&mut self, line: &str) {
        let v: Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(_) => {
                self.parse_errors += 1;
                return;
            }
        };
        if v.get("schema").and_then(value_str) != Some(TRAJECTORY_SCHEMA.to_string()) {
            self.parse_errors += 1;
            return;
        }
        let rates: Vec<f64> = match v.get("summaries") {
            Some(Value::Seq(s)) => s
                .iter()
                .filter_map(|s| s.get("events_per_sec").and_then(value_f64))
                .collect(),
            _ => Vec::new(),
        };
        if rates.is_empty() {
            self.parse_errors += 1;
            return;
        }
        let host = v.get("host").and_then(value_str);
        if let Some(h) = &host {
            self.traj_hosts.insert(h.clone());
        }
        self.traj.push(TrajPoint {
            host,
            unix_ms: v.get("unix_ms").and_then(value_u64),
            events_per_sec: rates.iter().sum::<f64>() / rates.len() as f64,
        });
    }

    /// Whether the trajectory mixes measurements from ≥ 2 distinct
    /// hosts — the sparkline refuses to draw such a series (cross-host
    /// events/sec comparisons are meaningless).
    pub fn traj_host_mixed(&self) -> bool {
        self.traj_hosts.len() >= 2
    }

    /// Indices below this are dense grid positions (suite grids are
    /// small); records with larger indices — `serve` cells, whose index
    /// is the spec digest reinterpreted — are *appended* after the dense
    /// region instead of inflating the heatmap to digest size.
    pub const DENSE_INDEX_LIMIT: u64 = 1 << 20;

    /// Total cells: the larger of the shard-declared sum and the highest
    /// dense index + 1 (heartbeats may outrun grid declarations), plus
    /// any sparse (digest-indexed) cells.
    pub fn grid_total(&self) -> u64 {
        let declared: u64 = self.shards.values().map(|s| s.total).sum();
        let dense = self
            .cells
            .keys()
            .take_while(|&&i| i < Self::DENSE_INDEX_LIMIT)
            .last()
            .map_or(0, |i| i + 1);
        let sparse = self.sparse_cells().count() as u64;
        declared.max(dense) + sparse
    }

    /// The cells beyond the dense region, in index order.
    fn sparse_cells(&self) -> impl Iterator<Item = &CellView> {
        self.cells.range(Self::DENSE_INDEX_LIMIT..).map(|(_, c)| c)
    }

    /// The lifecycle state of each heatmap slot, in display order: the
    /// dense grid first (`None` = not yet observed), then the sparse
    /// cells. Length equals [`grid_total`](Self::grid_total) — bounded
    /// by declared totals and record counts, never by raw index values.
    pub fn heat_slots(&self) -> Vec<Option<CellState>> {
        let declared: u64 = self.shards.values().map(|s| s.total).sum();
        let dense_len = self
            .cells
            .keys()
            .take_while(|&&i| i < Self::DENSE_INDEX_LIMIT)
            .last()
            .map_or(0, |i| i + 1)
            .max(declared);
        let mut slots: Vec<Option<CellState>> = (0..dense_len)
            .map(|i| self.cells.get(&i).map(|c| c.state))
            .collect();
        slots.extend(self.sparse_cells().map(|c| Some(c.state)));
        slots
    }

    /// Cells no longer pending, per the latest shard heartbeats; falls
    /// back to counting finished cells when no heartbeats exist (store
    /// only).
    pub fn grid_done(&self) -> u64 {
        if self.shards.is_empty() {
            self.cells
                .values()
                .filter(|c| matches!(c.state, CellState::Done | CellState::Failed))
                .count() as u64
        } else {
            self.shards.values().map(|s| s.done).sum()
        }
    }

    /// Whether every declared cell has finished.
    pub fn complete(&self) -> bool {
        let total = self.grid_total();
        total > 0 && self.grid_done() >= total
    }

    /// The currently selected cell, if any.
    pub fn selected_cell(&self) -> Option<&CellView> {
        self.cells.values().nth(self.selected)
    }

    /// Moves the table cursor by `delta` rows, clamped to the table.
    pub fn move_selection(&mut self, delta: isize) {
        let n = self.cells.len();
        if n == 0 {
            self.selected = 0;
            return;
        }
        let cur = self.selected.min(n - 1) as isize;
        self.selected = (cur + delta).clamp(0, n as isize - 1) as usize;
    }
}

fn value_str(v: &Value) -> Option<String> {
    match v {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn value_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

fn value_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_core::exp::{now_unix_ms, ProgressWriter};

    fn progress_lines(shard: u64, events: Vec<ProgressEvent>) -> Vec<String> {
        // Round-trip through a real writer so tests exercise the exact
        // on-disk shape. Tests run in parallel threads of one process, so
        // every call gets its own file.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("cata-obs-state-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{call}.progress.jsonl"));
        let _ = std::fs::remove_file(&path);
        let w = ProgressWriter::open(&path, shard).unwrap();
        for e in events {
            w.emit(e).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        text.lines().map(|l| l.to_string()).collect()
    }

    #[test]
    fn interleaved_multi_shard_heartbeats_merge_into_one_grid() {
        let shard0 = progress_lines(
            0,
            vec![
                ProgressEvent::GridProgress { done: 0, total: 2 },
                ProgressEvent::CellStart {
                    index: 0,
                    name: "a".into(),
                    spec_digest: "d0".into(),
                },
                ProgressEvent::CellFinish {
                    index: 0,
                    cell: "a@1/f1".into(),
                    ok: true,
                    wall_s: 0.5,
                },
                ProgressEvent::GridProgress { done: 1, total: 2 },
            ],
        );
        let shard1 = progress_lines(
            1,
            vec![
                ProgressEvent::GridProgress { done: 0, total: 2 },
                ProgressEvent::CellStart {
                    index: 1,
                    name: "b".into(),
                    spec_digest: "d1".into(),
                },
                ProgressEvent::CellFinish {
                    index: 1,
                    cell: "b@1/f1".into(),
                    ok: false,
                    wall_s: 0.1,
                },
                ProgressEvent::GridProgress { done: 1, total: 2 },
            ],
        );

        // Interleave the shards line by line — arrival order must not
        // matter for the merged result.
        let mut st = DashState::new();
        for (a, b) in shard0.iter().zip(shard1.iter()) {
            st.ingest_progress_line(a);
            st.ingest_progress_line(b);
        }

        assert_eq!(st.grid_total(), 4, "2 shards × total 2");
        assert_eq!(st.grid_done(), 2);
        assert!(!st.complete());
        assert_eq!(st.cells[&0].state, CellState::Done);
        assert_eq!(st.cells[&0].key, "a@1/f1");
        assert_eq!(st.cells[&1].state, CellState::Failed);
        assert_eq!(st.parse_errors, 0);

        // Reversed interleaving lands in the identical cell states.
        let mut rev = DashState::new();
        for (a, b) in shard0.iter().zip(shard1.iter()) {
            rev.ingest_progress_line(b);
            rev.ingest_progress_line(a);
        }
        assert_eq!(rev.grid_done(), st.grid_done());
        assert_eq!(rev.cells[&0].state, st.cells[&0].state);
        assert_eq!(rev.cells[&1].state, st.cells[&1].state);
    }

    #[test]
    fn start_marks_running_and_finish_is_idempotent() {
        let lines = progress_lines(
            0,
            vec![ProgressEvent::CellStart {
                index: 3,
                name: "c".into(),
                spec_digest: "d".into(),
            }],
        );
        let mut st = DashState::new();
        st.ingest_progress_line(&lines[0]);
        assert_eq!(st.cells[&3].state, CellState::Running);
        assert_eq!(st.cells[&3].key, "c");
        // A duplicate start (resumed writer re-tailed from 0) is a no-op.
        st.ingest_progress_line(&lines[0]);
        assert_eq!(st.cells[&3].state, CellState::Running);
        assert_eq!(st.grid_total(), 4, "highest index + 1");
    }

    #[test]
    fn garbage_and_foreign_schema_lines_count_as_parse_errors() {
        let mut st = DashState::new();
        st.ingest_progress_line("{not json");
        st.ingest_progress_line(
            r#"{"schema":"other/v9","shard":0,"unix_ms":1,"kind":"grid","done":1,"total":1}"#,
        );
        st.ingest_store_line("also not json");
        st.ingest_trajectory_line(r#"{"schema":"wrong"}"#);
        // Past the reader's nesting limit: counted, never a stack overflow.
        st.ingest_store_line(&"[".repeat(100_000));
        assert_eq!(st.parse_errors, 5);
        assert!(st.cells.is_empty());
    }

    #[test]
    fn service_snapshots_keep_the_furthest_along() {
        let lines = progress_lines(
            0,
            vec![
                ProgressEvent::ServiceSnapshot {
                    arrivals: 64,
                    admitted: 60,
                    completed: 50,
                    dropped: 4,
                    in_flight: 10,
                    p99_ps: 1000,
                    sim_time_ps: 5000,
                },
                ProgressEvent::ServiceSnapshot {
                    arrivals: 128,
                    admitted: 120,
                    completed: 118,
                    dropped: 8,
                    in_flight: 2,
                    p99_ps: 1200,
                    sim_time_ps: 9000,
                },
            ],
        );
        let mut st = DashState::new();
        // Out of order: the later snapshot must win regardless.
        st.ingest_progress_line(&lines[1]);
        st.ingest_progress_line(&lines[0]);
        let s = st.service.unwrap();
        assert_eq!(s.arrivals, 128);
        assert_eq!(s.sim_time_ps, 9000);
    }

    #[test]
    fn trajectory_lines_accept_legacy_and_detect_host_mixes() {
        let mut st = DashState::new();
        // Legacy line: no host/unix_ms.
        st.ingest_trajectory_line(
            r#"{"schema":"cata-perf-point/v1","mode":"events","reps":3,"summaries":[{"workload":"w","events":10,"wall_s":1.0,"events_per_sec":100.0}],"speedup_vs_baseline":null}"#,
        );
        assert_eq!(st.traj.len(), 1);
        assert!(!st.traj_host_mixed());
        // Two stamped lines from different hosts.
        st.ingest_trajectory_line(
            r#"{"schema":"cata-perf-point/v1","mode":"events","reps":3,"summaries":[{"workload":"w","events":10,"wall_s":1.0,"events_per_sec":110.0}],"speedup_vs_baseline":null,"host":"aaaa","unix_ms":1}"#,
        );
        assert!(!st.traj_host_mixed(), "one known host is fine");
        st.ingest_trajectory_line(
            r#"{"schema":"cata-perf-point/v1","mode":"events","reps":3,"summaries":[{"workload":"w","events":10,"wall_s":1.0,"events_per_sec":120.0}],"speedup_vs_baseline":null,"host":"bbbb","unix_ms":2}"#,
        );
        assert!(st.traj_host_mixed());
        assert_eq!(st.traj.len(), 3);
        assert_eq!(st.parse_errors, 0);
        assert_eq!(st.traj[0].events_per_sec, 100.0);
    }

    #[test]
    fn digest_sized_indices_append_instead_of_inflating_the_grid() {
        // `serve` cells carry their spec digest reinterpreted as the
        // index — astronomically larger than any dense grid. The heatmap
        // must stay record-sized, not digest-sized.
        let mut st = DashState::new();
        let mut serve = CellView::placeholder(u64::MAX - 3);
        serve.key = "CATA@Dedup/f16/serve".into();
        serve.state = CellState::Done;
        st.cells.insert(serve.index, serve);
        let mut dense = CellView::placeholder(1);
        dense.state = CellState::Running;
        st.cells.insert(1, dense);

        assert_eq!(st.grid_total(), 3, "dense 0..=1 plus one sparse cell");
        let slots = st.heat_slots();
        assert_eq!(slots.len(), 3);
        assert_eq!(slots[0], None, "index 0 unobserved");
        assert_eq!(slots[1], Some(CellState::Running));
        assert_eq!(slots[2], Some(CellState::Done), "sparse cell appended");
        assert!(!st.complete());
    }

    #[test]
    fn selection_clamps_to_table() {
        let mut st = DashState::new();
        st.move_selection(5);
        assert_eq!(st.selected, 0);
        let lines = progress_lines(
            0,
            vec![
                ProgressEvent::CellStart {
                    index: 0,
                    name: "a".into(),
                    spec_digest: "d".into(),
                },
                ProgressEvent::CellStart {
                    index: 1,
                    name: "b".into(),
                    spec_digest: "d".into(),
                },
            ],
        );
        for l in &lines {
            st.ingest_progress_line(l);
        }
        st.move_selection(10);
        assert_eq!(st.selected, 1);
        st.move_selection(-10);
        assert_eq!(st.selected, 0);
        let _ = now_unix_ms();
    }
}
