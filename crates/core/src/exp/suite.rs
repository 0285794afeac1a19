//! `Suite`: fan a list of scenarios across a thread pool — and, with a
//! [`ResultsStore`], across processes and machines.
//!
//! Each scenario is an independent deterministic run (its spec pins the
//! seed), so a suite's results are bit-identical whether executed serially
//! or in parallel — only wall-clock time changes. Result order always
//! matches input order.
//!
//! Every cell carries a stable *global index* in the full grid.
//! [`shard`](Suite::shard) keeps a deterministic `1/N`th of the grid by
//! that index, so independent processes (CI jobs, cluster nodes) each
//! compute a disjoint slice into their own JSONL store, and
//! [`ResultsStore::merge_files`] recombines them.
//! [`run_with_store`](Suite::run_with_store) streams each completed cell
//! to the store and, on a re-run, loads completed cells instead of
//! recomputing them — the resume path for interrupted sweeps.

use super::calibrate::CostCalibration;
use super::error::ExpError;
use super::executor::Executor;
use super::progress::{host_fingerprint, now_unix_ms, ProgressEvent, ProgressWriter};
use super::registry::PolicyRegistries;
use super::scenario::Scenario;
use super::spec::ScenarioSpec;
use super::store::{grid_digest, spec_digest, CellRecord, ResultsStore};
use crate::report::RunReport;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Derives the `index`-th run seed from a suite base seed (splitmix64).
/// Deterministic and stable across platforms — the workspace-shared
/// construction, re-exported on the historical path.
pub use cata_sim::seeded::derive_seed;

/// Debug-build sanity gate on every simulated cell: the reported makespan
/// must respect the fault-aware work/span lower bound.
///
/// Over a makespan `T` on `m` cores, the machine offers `m·T` core-time;
/// executed work (each task at the *fast* frequency, its cheapest form)
/// and fault-destroyed capacity both consume it, so
/// `T ≥ (work + capacity_lost) / m` — and the weighted critical path at
/// the fast frequency bounds `T` from below regardless of core count.
/// Skipped where a term loses meaning: native cells (wall clock, not a
/// modeled makespan), open-system runs (work arrives over time), and
/// shed instances (their work left the run).
#[cfg(debug_assertions)]
fn assert_analytic_bound(spec: &ScenarioSpec, report: &RunReport) {
    use super::spec::Backend;
    if spec.backend != Backend::Sim || report.service.is_some() {
        return;
    }
    if report.fault.as_ref().is_some_and(|f| f.shed > 0) {
        return;
    }
    let Ok(graph) = spec.workload.try_build_graph_shared() else {
        return; // the executor surfaced (or survived) the build error
    };
    let fast = spec.machine.fast_level.frequency;
    let span = graph.critical_path_at(fast);
    let work = graph.total_work_at(fast);
    let lost = report
        .fault
        .as_ref()
        .map(|f| f.capacity_lost)
        .unwrap_or(cata_sim::time::SimDuration::ZERO);
    let m = spec.machine.num_cores.max(1) as u64;
    let work_bound =
        cata_sim::time::SimDuration::from_ps((work.as_ps().saturating_add(lost.as_ps())) / m);
    let bound = span.max(work_bound);
    assert!(
        report.exec_time >= bound,
        "{}: makespan {} beats the analytic lower bound {} (span {}, work {}, capacity lost {}, {m} cores)",
        report.label,
        report.exec_time,
        bound,
        span,
        work,
        lost,
    );
}

/// Runs one scenario and, in debug builds, checks the result against the
/// fault-aware analytic bound before handing it back.
fn execute_checked<E: Executor + ?Sized>(
    executor: &E,
    scenario: &Scenario,
) -> Result<RunReport, ExpError> {
    let result = executor.execute(scenario);
    #[cfg(debug_assertions)]
    if let Ok(report) = &result {
        assert_analytic_bound(scenario.spec(), report);
    }
    result
}

/// How [`Suite::shard_ordered`] assigns cells to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardOrder {
    /// `i % n` striping by cell index — the default, bit-identical to the
    /// historical behaviour.
    #[default]
    Striped,
    /// Cost-aware snake order: cells are ranked by estimated workload cost
    /// (descending, index-ascending tie-break) and dealt to shards
    /// serpentine-style (1..n, then n..1, …), so a grid whose cell costs
    /// are very skewed — one paper-scale workload among tiny ones — still
    /// balances. Deterministic: every process ranks identically.
    Snake,
}

impl std::str::FromStr for ShardOrder {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "striped" => Ok(ShardOrder::Striped),
            "snake" => Ok(ShardOrder::Snake),
            other => Err(format!(
                "unknown shard order `{other}` (want striped|snake)"
            )),
        }
    }
}

/// Sharding bookkeeping a filtered suite carries so later [`Suite::push`]es
/// stay disjoint across shards.
#[derive(Debug, Clone, Copy)]
struct ShardInfo {
    /// 0-based shard id.
    rem: u64,
    /// Total shard count.
    of: u64,
    /// Assignment discipline the grid was split with.
    order: ShardOrder,
    /// One past the largest index of the full grid at shard time: pushed
    /// cells on a snake shard start here (snake shards own arbitrary index
    /// sets inside the grid, so only indices past it are provably free).
    grid_len: u64,
}

/// What a store-backed suite run did: the full in-order results plus how
/// many cells were served from the store versus freshly executed.
#[derive(Debug)]
pub struct StoreRunOutcome {
    /// Per-cell results, in input order (loaded and fresh interleaved).
    pub results: Vec<Result<RunReport, ExpError>>,
    /// Cells skipped because the store already held their record.
    pub resumed: usize,
    /// Cells executed (and appended to the store) by this run.
    pub executed: usize,
}

/// A batch of scenarios plus a parallelism setting.
#[derive(Debug, Clone, Default)]
pub struct Suite {
    scenarios: Vec<Scenario>,
    /// Global cell index of each scenario within the full (unsharded)
    /// grid. Stable under [`shard`](Self::shard); the store keys on it.
    indices: Vec<u64>,
    /// Set once [`shard`](Self::shard) filtered this suite;
    /// [`push`](Self::push) then picks indices no other shard can own.
    shard_of: Option<ShardInfo>,
    /// The *full* grid's digest, captured by [`shard`](Self::shard)
    /// before filtering, so every shard stamps its records with the same
    /// provenance tag (unsharded suites compute it from their own cells).
    grid: Option<String>,
    /// Wall-time-fitted cost multipliers applied by snake sharding's cost
    /// ranking (see [`calibrate_costs`](Self::calibrate_costs)).
    calibration: Option<CostCalibration>,
    jobs: usize,
}

impl Suite {
    /// An empty suite (serial by default).
    pub fn new() -> Self {
        Suite {
            scenarios: Vec::new(),
            indices: Vec::new(),
            shard_of: None,
            grid: None,
            calibration: None,
            jobs: 1,
        }
    }

    /// A suite over specs, resolved through the default registries.
    pub fn from_specs(specs: Vec<ScenarioSpec>) -> Self {
        Self::from_specs_with(specs, None)
    }

    /// A suite over specs resolved through explicit registries.
    pub fn from_specs_with(
        specs: Vec<ScenarioSpec>,
        registries: Option<Arc<PolicyRegistries>>,
    ) -> Self {
        let scenarios: Vec<Scenario> = specs
            .into_iter()
            .map(|spec| {
                let s = Scenario::from_spec(spec);
                match &registries {
                    Some(r) => s.with_registries(Arc::clone(r)),
                    None => s,
                }
            })
            .collect();
        let indices = (0..scenarios.len() as u64).collect();
        Suite {
            scenarios,
            indices,
            shard_of: None,
            grid: None,
            calibration: None,
            jobs: 1,
        }
    }

    /// Installs wall-time-fitted cost multipliers
    /// ([`CostCalibration::fit`]) for snake sharding's cost ranking.
    /// Every shard process of one grid must install the *same*
    /// calibration (fit from the same records, or one shipped fit) —
    /// shards ranking cells by different costs would deal overlapping,
    /// non-covering hands. Striped sharding and execution ignore it.
    pub fn calibrate_costs(mut self, calibration: CostCalibration) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// Adds one scenario at the next free grid index. On a striped shard
    /// the index advances *within the shard's residue class* (by `of`
    /// instead of 1); on a snake shard — whose cells are arbitrary grid
    /// indices — pushes land past the grid, in the shard's residue class.
    /// Either way, pushed cells can never collide with an index another
    /// shard owns.
    pub fn push(&mut self, scenario: Scenario) {
        let next = match (self.indices.iter().max(), self.shard_of) {
            (max, Some(info)) if info.order == ShardOrder::Snake => {
                // First index in this shard's residue class at or past both
                // the grid and everything already queued.
                let min = info.grid_len.max(max.map_or(0, |&m| m + 1));
                let r = min % info.of;
                if r <= info.rem {
                    min - r + info.rem
                } else {
                    min - r + info.of + info.rem
                }
            }
            (Some(&m), Some(info)) => m + info.of,
            (Some(&m), None) => m + 1,
            (None, Some(info)) => info.rem,
            (None, None) => 0,
        };
        self.scenarios.push(scenario);
        self.indices.push(next);
    }

    /// Sets the worker-thread count (`0` ⇒ the host's parallelism).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        self
    }

    /// Number of scenarios queued.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when no scenarios are queued.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The global grid index of each queued cell (parallel to the
    /// scenario list; `0..n` until [`shard`](Self::shard) filters it).
    pub fn cell_indices(&self) -> &[u64] {
        &self.indices
    }

    /// The `(index, spec_digest)` identity of every queued cell — the grid
    /// a store can be garbage-collected against
    /// ([`ResultsStore::gc`]).
    pub fn grid_pairs(&self) -> Vec<(u64, String)> {
        self.indices
            .iter()
            .copied()
            .zip(self.scenarios.iter().map(|s| spec_digest(s.spec())))
            .collect()
    }

    /// Keeps the deterministic `shard`-th of `of` slices of the cell grid
    /// (1-based): cell `i` belongs to shard `(i % of) + 1`. Shards of the
    /// same grid are disjoint and together cover it exactly, so `N`
    /// processes each running one shard into their own store compute the
    /// whole suite with no coordination.
    pub fn shard(self, shard: usize, of: usize) -> Result<Self, ExpError> {
        self.shard_ordered(shard, of, ShardOrder::Striped)
    }

    /// [`shard`](Self::shard) with an explicit assignment discipline.
    /// `Striped` is the historical `i % of` split; `Snake` deals cells to
    /// shards in cost-ranked serpentine order, fixing the load skew
    /// striping suffers when cell costs vary wildly. Both are
    /// deterministic, disjoint, and covering; every shard of one grid must
    /// use the same order.
    pub fn shard_ordered(
        self,
        shard: usize,
        of: usize,
        order: ShardOrder,
    ) -> Result<Self, ExpError> {
        if of == 0 || shard == 0 || shard > of {
            return Err(ExpError::InvalidSpec(format!(
                "shard {shard}/{of}: want 1 <= shard <= of"
            )));
        }
        let rem = shard as u64 - 1;
        // Capture the *full* grid's provenance digest before filtering,
        // so every shard stamps its store records identically.
        let grid = Some(self.grid.clone().unwrap_or_else(|| self.own_grid_digest()));
        let grid_len = self.indices.iter().max().map_or(0, |&m| m + 1);
        let keep: Vec<bool> = match order {
            ShardOrder::Striped => self.indices.iter().map(|&i| i % of as u64 == rem).collect(),
            ShardOrder::Snake => {
                // Rank positions by estimated cost (heaviest first; grid
                // index breaks ties so the ranking is total and identical
                // in every process), then deal serpentine: row r of `of`
                // cells runs forward on even rows, backward on odd ones,
                // so no shard collects all the heavy heads.
                //
                // Cost lookup is the *fallible* form, and unpinned TDG
                // files are refused outright: every shard of one grid
                // must rank cells identically, so a `File` the host
                // cannot read must abort the deal (a silent 0 would rank
                // differently than where the file resolves), and an
                // unpinned file has no cross-host content identity at
                // all — peer shards reading different revisions would
                // deal from different rankings, breaking the
                // disjoint/covering guarantee with no error anywhere.
                let costs: Vec<u64> = self
                    .scenarios
                    .iter()
                    .map(|s| match &s.spec().workload {
                        crate::exp::spec::WorkloadSpec::File { path, digest: None } => {
                            Err(ExpError::Workload(format!(
                                "snake sharding requires digest-pinned TDG files: {path} is \
                             unpinned, so peer shards could rank different revisions \
                             (pin it, or use --shard-order striped)"
                            )))
                        }
                        // Calibrated when a fit is installed — same
                        // failure surface either way (`calibrated_cost`
                        // delegates to `try_cost_estimate`).
                        w => match &self.calibration {
                            Some(cal) => cal.calibrated_cost(w),
                            None => w.try_cost_estimate(),
                        }
                        .map_err(|e| {
                            ExpError::Workload(format!(
                                "snake sharding needs every cell's cost: {e}"
                            ))
                        }),
                    })
                    .collect::<Result<_, _>>()?;
                let mut rank: Vec<usize> = (0..self.scenarios.len()).collect();
                rank.sort_by_key(|&p| (std::cmp::Reverse(costs[p]), self.indices[p]));
                let mut keep = vec![false; self.scenarios.len()];
                for (pos, &p) in rank.iter().enumerate() {
                    let (row, col) = (pos / of, pos % of);
                    let assigned = if row % 2 == 0 { col } else { of - 1 - col };
                    keep[p] = assigned as u64 == rem;
                }
                keep
            }
        };
        let (scenarios, indices) = self
            .scenarios
            .into_iter()
            .zip(self.indices)
            .zip(keep)
            .filter_map(|(cell, keep)| keep.then_some(cell))
            .unzip();
        Ok(Suite {
            scenarios,
            indices,
            shard_of: Some(ShardInfo {
                rem,
                of: of as u64,
                order,
                grid_len,
            }),
            grid,
            calibration: self.calibration,
            jobs: self.jobs,
        })
    }

    /// The grid digest over this suite's own cells.
    fn own_grid_digest(&self) -> String {
        let digests: Vec<String> = self
            .scenarios
            .iter()
            .map(|s| spec_digest(s.spec()))
            .collect();
        grid_digest(
            self.indices
                .iter()
                .copied()
                .zip(digests.iter().map(String::as_str)),
        )
    }

    /// Reseeds each cell with `derive_seed(base, index)` over its *global*
    /// grid index — one knob for a deterministic sweep over
    /// otherwise-identical specs that stays consistent across shards.
    pub fn reseed(mut self, base: u64) -> Self {
        for (i, s) in self.scenarios.iter_mut().enumerate() {
            s.spec_mut().seed = derive_seed(base, self.indices[i]);
        }
        self
    }

    /// Runs every scenario on `executor`, fanning across the configured
    /// worker threads. Results come back in input order; each entry is the
    /// run's report or its error.
    pub fn run<E: Executor + ?Sized>(&self, executor: &E) -> Vec<Result<RunReport, ExpError>> {
        let n = self.scenarios.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.jobs.clamp(1, n);
        if workers == 1 {
            return self
                .scenarios
                .iter()
                .map(|s| execute_checked(executor, s))
                .collect();
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<RunReport, ExpError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = execute_checked(executor, &self.scenarios[i]);
                    *slots[i].lock().expect("result slot") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every scenario executed")
            })
            .collect()
    }

    /// Like [`run`](Self::run), but every completed cell is streamed into
    /// `store` as one JSONL record, and cells whose `(index, spec_digest)`
    /// the store already holds are *loaded instead of executed* — the
    /// resume path. Results come back in input order either way; loaded
    /// reports are bit-identical to freshly computed ones (deterministic
    /// engine + exact serialization).
    pub fn run_with_store<E: Executor + ?Sized>(
        &self,
        executor: &E,
        store: &ResultsStore,
    ) -> StoreRunOutcome {
        self.run_with_store_observed(executor, store, None)
    }

    /// Like [`run_with_store`](Self::run_with_store), with heartbeat
    /// telemetry: every cell pickup/finish and the running done/total
    /// count are streamed into `progress` (cell start, cell finish,
    /// grid progress), so a live dashboard can follow the sweep across
    /// processes with no IPC. Heartbeats are best-effort — a telemetry
    /// write error never fails the sweep — and purely observational:
    /// results, records, and digests are bit-identical with `None`.
    /// Executed cells are additionally stamped with the host fingerprint,
    /// their wall-clock window, and the embedded spec (the replay
    /// precondition).
    pub fn run_with_store_observed<E: Executor + ?Sized>(
        &self,
        executor: &E,
        store: &ResultsStore,
        progress: Option<&ProgressWriter>,
    ) -> StoreRunOutcome {
        let n = self.scenarios.len();
        let digests: Vec<String> = self
            .scenarios
            .iter()
            .map(|s| spec_digest(s.spec()))
            .collect();
        // Provenance tag for the records: the full grid's digest when
        // this suite is a shard, else the digest of its own cells.
        let grid = self.grid.clone().unwrap_or_else(|| {
            grid_digest(
                self.indices
                    .iter()
                    .copied()
                    .zip(digests.iter().map(String::as_str)),
            )
        });
        let completed: HashMap<(u64, &str), &CellRecord> = store
            .records()
            .iter()
            .map(|r| ((r.index, r.spec_digest.as_str()), r))
            .collect();

        // Positions still to execute, in input order.
        let pending: Vec<usize> = (0..n)
            .filter(|&i| !completed.contains_key(&(self.indices[i], digests[i].as_str())))
            .collect();

        // `done` counts cells no longer pending (resumed + finished
        // attempts, including failures — a failed cell is over, not
        // outstanding). Emitted after every finish so a tailing dashboard
        // sees the shard's completion fraction move. The count is bumped
        // and emitted under one lock: a dashboard keeps the latest
        // heartbeat, so lines written out of count order could leave a
        // finished shard showing one cell short.
        let done = Mutex::new(n - pending.len());
        let beat = |event: ProgressEvent| {
            if let Some(w) = progress {
                // Telemetry is best-effort: a full disk or yanked sidecar
                // file must not kill a multi-hour sweep.
                let _ = w.emit(event);
            }
        };
        beat(ProgressEvent::GridProgress {
            done: (n - pending.len()) as u64,
            total: n as u64,
        });

        let execute_one = |pos: usize| -> Result<RunReport, ExpError> {
            // Warm the shared graph cache outside the timed window, so
            // `wall_s` measures execution rather than workload generation
            // — the same methodology as the perf harness, keeping stored
            // timings comparable to `BENCH_engine.json` summaries. A
            // failing workload (e.g. a missing TDG file) is not an error
            // here: the execute below surfaces it per cell. Unpinned
            // `File` workloads cannot be warmed (nothing is cached for
            // them, by design), so skip the wasted build — their
            // `wall_s` includes the file read + graph construction.
            let workload = &self.scenarios[pos].spec().workload;
            if workload.graph_cache_eligible() {
                let _ = workload.try_build_graph_shared();
            }
            beat(ProgressEvent::CellStart {
                index: self.indices[pos],
                name: self.scenarios[pos].spec().name.clone(),
                spec_digest: digests[pos].clone(),
            });
            let started_ms = now_unix_ms();
            let t0 = Instant::now();
            let result = execute_checked(executor, &self.scenarios[pos]);
            let wall_s = t0.elapsed().as_secs_f64();
            let finished_ms = now_unix_ms();
            let outcome = match result {
                Ok(report) => {
                    let rec = CellRecord::new(
                        self.indices[pos],
                        self.scenarios[pos].spec(),
                        grid.clone(),
                        wall_s,
                        report,
                    )
                    .with_host(host_fingerprint())
                    .with_times(started_ms, finished_ms)
                    .with_spec(self.scenarios[pos].spec().clone());
                    beat(ProgressEvent::CellFinish {
                        index: self.indices[pos],
                        cell: rec.cell.clone(),
                        ok: true,
                        wall_s,
                    });
                    store.append(&rec)?;
                    Ok(rec.report)
                }
                Err(e) => {
                    beat(ProgressEvent::CellFinish {
                        index: self.indices[pos],
                        cell: self.scenarios[pos].spec().name.clone(),
                        ok: false,
                        wall_s,
                    });
                    Err(e)
                }
            };
            let mut done = done.lock().unwrap_or_else(|e| e.into_inner());
            *done += 1;
            beat(ProgressEvent::GridProgress {
                done: *done as u64,
                total: n as u64,
            });
            drop(done);
            outcome
        };

        let workers = self.jobs.clamp(1, pending.len().max(1));
        let mut fresh: Vec<Option<Result<RunReport, ExpError>>> = Vec::new();
        if workers <= 1 {
            fresh.extend(pending.iter().map(|&pos| Some(execute_one(pos))));
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<Result<RunReport, ExpError>>>> =
                (0..pending.len()).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= pending.len() {
                            break;
                        }
                        let result = execute_one(pending[k]);
                        *slots[k].lock().expect("result slot") = Some(result);
                    });
                }
            });
            fresh.extend(
                slots
                    .into_iter()
                    .map(|slot| slot.into_inner().expect("result slot")),
            );
        }

        let mut by_pos: HashMap<usize, Result<RunReport, ExpError>> = pending
            .iter()
            .zip(fresh)
            .map(|(&pos, r)| (pos, r.expect("every pending cell executed")))
            .collect();
        let mut results = Vec::with_capacity(n);
        let mut resumed = 0;
        for i in 0..n {
            match by_pos.remove(&i) {
                Some(r) => results.push(r),
                None => {
                    let rec = completed[&(self.indices[i], digests[i].as_str())];
                    results.push(Ok(rec.report.clone()));
                    resumed += 1;
                }
            }
        }
        StoreRunOutcome {
            results,
            resumed,
            executed: pending.len(),
        }
    }

    /// Like [`run`](Self::run), but panics on the first error — the
    /// convenient shape for benches where every key is builtin.
    pub fn run_all<E: Executor + ?Sized>(&self, executor: &E) -> Vec<RunReport> {
        self.run(executor)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("suite run failed: {e}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::spec::WorkloadSpec;
    use crate::sim_exec::SimExecutor;

    fn small_matrix() -> Vec<ScenarioSpec> {
        ScenarioSpec::paper_matrix(
            2,
            WorkloadSpec::ForkJoin {
                waves: 2,
                width: 6,
                cycles: 500_000,
            },
        )
        .into_iter()
        .map(|s| s.with_small_machine(4, 2))
        .collect()
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        let exec = SimExecutor::default();
        let serial = Suite::from_specs(small_matrix()).jobs(1).run_all(&exec);
        let parallel = Suite::from_specs(small_matrix()).jobs(4).run_all(&exec);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.exec_time, b.exec_time, "{} diverged", a.label);
            assert_eq!(a.energy.energy_j, b.energy.energy_j);
            assert_eq!(a.counters.reconfigs_applied, b.counters.reconfigs_applied);
        }
    }

    #[test]
    fn reports_respect_the_analytic_bound() {
        // `run` routes through `execute_checked`, so in debug builds
        // these cells already panic on violation; the explicit check
        // below keeps the property visible in release test runs too.
        let reports = Suite::from_specs(small_matrix())
            .jobs(1)
            .run_all(&SimExecutor::default());
        for (spec, report) in small_matrix().iter().zip(&reports) {
            let graph = spec.workload.try_build_graph_shared().unwrap();
            let fast = spec.machine.fast_level.frequency;
            let m = spec.machine.num_cores as u64;
            let work_bound =
                cata_sim::time::SimDuration::from_ps(graph.total_work_at(fast).as_ps() / m);
            let bound = graph.critical_path_at(fast).max(work_bound);
            assert!(
                report.exec_time >= bound,
                "{}: {} < {bound}",
                report.label,
                report.exec_time
            );
        }
    }

    #[test]
    fn faulted_and_contended_cells_respect_the_bound() {
        // One cell loses a core mid-run (capacity-lost term), one funnels
        // every memory access through a single slot (the gate only ever
        // stretches the makespan) — both must clear the debug assert in
        // `execute_checked` and still beat the fault-free analytic bound.
        // Parsec-style tasks carry a memory fraction; the pure-compute
        // ForkJoin generator would sail through the gate untouched.
        let base = ScenarioSpec::new(
            "bound",
            WorkloadSpec::Parsec {
                bench: cata_workloads::Benchmark::Dedup,
                scale: cata_workloads::Scale::Tiny,
                seed: 42,
            },
        )
        .with_small_machine(4, 2);
        let mut faulted = base.clone();
        faulted.faults = Some(crate::fault::FaultSpec {
            core_failures: vec![crate::fault::CoreFailure {
                core: 0,
                at: cata_sim::time::SimDuration::from_ps(1_000_000),
                recover_after: None,
            }],
            ..Default::default()
        });
        let mut contended = base.clone();
        contended.memory = Some(crate::mem::MemorySpec {
            slots: 1,
            arbitration: "crit-first".into(),
        });
        let reports = Suite::from_specs(vec![faulted, contended])
            .jobs(1)
            .run_all(&SimExecutor::default());
        let graph = base.workload.try_build_graph_shared().unwrap();
        let fast = base.machine.fast_level.frequency;
        let m = base.machine.num_cores as u64;
        let work_bound =
            cata_sim::time::SimDuration::from_ps(graph.total_work_at(fast).as_ps() / m);
        let bound = graph.critical_path_at(fast).max(work_bound);
        for report in &reports {
            assert!(
                report.exec_time >= bound,
                "{}: {} < {bound}",
                report.label,
                report.exec_time
            );
        }
        let f = reports[0].fault.as_ref().expect("fault report");
        assert!(f.capacity_lost > cata_sim::time::SimDuration::ZERO);
        let mem = reports[1].memory.as_ref().expect("memory report");
        assert!(mem.waited > 0, "slots=1 on a 4-core machine must contend");
    }

    #[test]
    fn errors_surface_per_scenario() {
        let mut specs = small_matrix();
        specs[2].accel = "does-not-exist".into();
        let results = Suite::from_specs(specs)
            .jobs(2)
            .run(&SimExecutor::default());
        assert!(results[0].is_ok());
        assert!(results[2].is_err());
        assert!(results[5].is_ok());
    }

    #[test]
    fn reseed_is_deterministic_and_distinct() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        assert_ne!(a, b);
        assert_eq!(a, derive_seed(1, 0));
    }

    #[test]
    fn shard_keeps_a_deterministic_disjoint_slice() {
        let all = Suite::from_specs(small_matrix());
        assert_eq!(all.cell_indices(), &[0, 1, 2, 3, 4, 5]);
        let a = all.clone().shard(1, 2).unwrap();
        let b = all.clone().shard(2, 2).unwrap();
        assert_eq!(a.cell_indices(), &[0, 2, 4]);
        assert_eq!(b.cell_indices(), &[1, 3, 5]);
        assert_eq!(a.len() + b.len(), all.len());
        assert!(all.clone().shard(0, 2).is_err());
        assert!(all.clone().shard(3, 2).is_err());
        assert!(all.shard(1, 0).is_err());
    }

    #[test]
    fn snake_shards_are_disjoint_covering_and_cost_balanced() {
        // Six cells with wildly skewed costs, heaviest first: striping by
        // `i % 2` would give shard 1 all of {6000, 400, 20} = 6420 and
        // shard 2 {5000, 30, 10} = 5040; snake deals 6000+30+20=6050 vs
        // 5000+400+10=5410 — and, crucially, never both giants to one.
        let costs = [6000u64, 5000, 400, 30, 20, 10];
        let specs: Vec<ScenarioSpec> = costs
            .iter()
            .map(|&c| {
                ScenarioSpec::new(format!("w{c}"), WorkloadSpec::Chain { n: 1, cycles: c })
                    .with_small_machine(2, 1)
            })
            .collect();
        let all = Suite::from_specs(specs);
        let a = all.clone().shard_ordered(1, 2, ShardOrder::Snake).unwrap();
        let b = all.clone().shard_ordered(2, 2, ShardOrder::Snake).unwrap();
        let mut union: Vec<u64> = a
            .cell_indices()
            .iter()
            .chain(b.cell_indices())
            .copied()
            .collect();
        union.sort_unstable();
        assert_eq!(union, vec![0, 1, 2, 3, 4, 5], "disjoint + covering");
        // Serpentine deal: ranked [0,1,2,3,4,5] → rows (0,1),(3,2),(4,5).
        assert_eq!(a.cell_indices(), &[0, 3, 4]);
        assert_eq!(b.cell_indices(), &[1, 2, 5]);
        // Cells stay in input order within each shard.
        assert!(a.cell_indices().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn calibration_reorders_the_snake_deal() {
        // Chain and diamond cells with equal built-in estimates (1000
        // cycles each): uncalibrated, ranking falls back to grid-index
        // tie-breaks. A calibration that weighs diamonds 8x must pull
        // both diamonds apart onto different shards.
        let mk = |w: WorkloadSpec, name: &str| ScenarioSpec::new(name, w).with_small_machine(2, 1);
        let specs = vec![
            mk(WorkloadSpec::Chain { n: 1, cycles: 1000 }, "c0"),
            mk(
                WorkloadSpec::SkewedDiamond {
                    width: 99,
                    cycles: 10,
                    skew: 1,
                },
                "d1",
            ),
            mk(WorkloadSpec::Chain { n: 2, cycles: 500 }, "c2"),
            mk(
                WorkloadSpec::SkewedDiamond {
                    width: 49,
                    cycles: 20,
                    skew: 1,
                },
                "d3",
            ),
        ];
        let mut cal = super::super::calibrate::CostCalibration::identity();
        cal.scale
            .insert("diamond".into(), 8 * super::super::calibrate::SCALE_ONE);
        let all = Suite::from_specs(specs);
        let deal = |shard| {
            Suite::clone(&all)
                .calibrate_costs(cal.clone())
                .shard_ordered(shard, 2, ShardOrder::Snake)
                .unwrap()
                .cell_indices()
                .to_vec()
        };
        // Ranked by calibrated cost: d1 (8000), d3 (8000, later index),
        // c0/c2 (1000 each) → rows (d1,d3),(c2,c0): one diamond per shard.
        assert_eq!(deal(1), vec![1, 2]);
        assert_eq!(deal(2), vec![0, 3]);
    }

    #[test]
    fn striped_shard_is_bit_identical_to_the_default() {
        let all = Suite::from_specs(small_matrix());
        let explicit = all
            .clone()
            .shard_ordered(1, 2, ShardOrder::Striped)
            .unwrap();
        let default = all.shard(1, 2).unwrap();
        assert_eq!(explicit.cell_indices(), default.cell_indices());
    }

    #[test]
    fn pushes_after_snake_shard_stay_disjoint() {
        let all = Suite::from_specs(small_matrix());
        let mut a = all.clone().shard_ordered(1, 2, ShardOrder::Snake).unwrap();
        let mut b = all.shard_ordered(2, 2, ShardOrder::Snake).unwrap();
        let extra = || {
            Scenario::from_spec(
                ScenarioSpec::new("extra", WorkloadSpec::Chain { n: 1, cycles: 1 })
                    .with_small_machine(2, 1),
            )
        };
        for _ in 0..3 {
            a.push(extra());
            b.push(extra());
        }
        let pushed_a: Vec<u64> = a
            .cell_indices()
            .iter()
            .copied()
            .filter(|&i| i >= 6)
            .collect();
        let pushed_b: Vec<u64> = b
            .cell_indices()
            .iter()
            .copied()
            .filter(|&i| i >= 6)
            .collect();
        assert_eq!(pushed_a.len(), 3);
        assert_eq!(pushed_b.len(), 3);
        assert!(
            pushed_a.iter().all(|i| !pushed_b.contains(i)),
            "pushed cells collide: {pushed_a:?} vs {pushed_b:?}"
        );
    }

    #[test]
    fn reseed_matches_across_sharding() {
        let full = Suite::from_specs(small_matrix()).reseed(7);
        let sharded = Suite::from_specs(small_matrix())
            .shard(2, 2)
            .unwrap()
            .reseed(7);
        // Shard 2/2 holds global cells 1, 3, 5; seeds must match the
        // unsharded suite's cells at those indices.
        let full_seeds: Vec<u64> = full.scenarios.iter().map(|s| s.spec().seed).collect();
        let shard_seeds: Vec<u64> = sharded.scenarios.iter().map(|s| s.spec().seed).collect();
        assert_eq!(
            shard_seeds,
            vec![full_seeds[1], full_seeds[3], full_seeds[5]]
        );
    }
}
