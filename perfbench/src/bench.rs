//! What every workload shares: run options, the operation ledger behind
//! `attempted`/`failed`, one batch's measurements, and the set-up profile.

use cata_core::exp::ScenarioSpec;
use cata_core::RunReport;
use std::path::PathBuf;
use std::time::Instant;

/// How big one batch is. `Smoke` is the self-test's minimal size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Options every workload is built from.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub size: Size,
    /// Worker threads for suites (at most 2, never more than `nproc`).
    pub jobs: usize,
    /// Scratch directory unique to this process, removed at exit.
    pub dir: PathBuf,
    /// Corrupt one expected golden digest (self-test of the ledger).
    pub break_golden: bool,
}

/// Counts operations (cells, service runs, merges, frames, checks) and
/// those that errored or failed their output check.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human-readable report.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records one operation; `Err` carries why it failed.
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("{what}: {why}"));
            }
        }
    }
}

/// Checks a closed-system cell: it ran, completed every task, and has
/// finite, positive energy.
pub fn check_cell(result: &Result<RunReport, cata_core::ExpError>) -> Result<(), String> {
    let r = result.as_ref().map_err(|e| e.to_string())?;
    if r.counters.tasks_completed < r.tasks as u64 {
        return Err(format!(
            "{}: {} of {} tasks completed",
            r.label, r.counters.tasks_completed, r.tasks
        ));
    }
    if !(r.energy.energy_j.is_finite() && r.energy.energy_j > 0.0) {
        return Err(format!("{}: energy {} J", r.label, r.energy.energy_j));
    }
    Ok(())
}

/// Digest of the serialized report, for byte-identity checks without
/// holding the (large) serialized form.
pub fn report_digest(r: &RunReport) -> String {
    cata_tdg::fnv1a_hex(
        serde_json::to_string(r)
            .expect("run report serializes")
            .bytes(),
    )
}

/// One batch: the workload's fixed work, measured.
#[derive(Debug, Default)]
pub struct Batch {
    /// Host seconds of the whole batch.
    pub wall_s: f64,
    /// Host seconds of the sweep or serve phase.
    pub sim_s: f64,
    /// Simulated task completions.
    pub tasks: u64,
    /// Host milliseconds per cell.
    pub cell_ms: Vec<f64>,
    pub merge_s: Option<f64>,
    pub first_frame_s: Option<f64>,
    pub frame_ms: Vec<f64>,
    /// Progress lines the batch wrote.
    pub progress_lines: u64,
    /// Every cell's spec and report, for per-layer accounting.
    pub cells: Vec<(ScenarioSpec, RunReport)>,
}

/// What set-up did, timed: generation, TDG loading and tape handling.
#[derive(Debug, Default, Clone)]
pub struct SetupProfile {
    pub seconds: f64,
    pub gen_tasks: u64,
    pub gen_ns: u64,
    pub tdg_bytes: u64,
    pub tape_generate_ns: u64,
    pub tape_bytes: u64,
    pub tape_parse_ns: u64,
}

/// Times `f` in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// The interface the measuring loop runs every workload through.
pub trait Workload {
    /// What set-up measured.
    fn setup_profile(&self) -> &SetupProfile;
    /// Output checks that run once, before the first batch.
    fn preflight(&mut self, _ledger: &mut Ledger) {}
    /// One batch of the fixed work. `traced` batches record spans and run
    /// every spec with `TraceMode::Counters`.
    fn batch(&mut self, traced: bool, ledger: &mut Ledger) -> Batch;
    /// Output checks that run once, after the last batch (determinism
    /// re-runs).
    fn final_checks(&mut self, ledger: &mut Ledger);
    /// The shapes the inner-layer probes copy.
    fn shape(&self) -> crate::layers::Shape;
}
