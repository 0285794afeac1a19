//! `Suite`: fan a list of scenarios across a thread pool — and, with a
//! [`ResultsStore`], across processes and machines.
//!
//! Each scenario is an independent deterministic run (its spec pins the
//! seed), so a suite's results are bit-identical whether executed serially
//! or in parallel — only wall-clock time changes. Result order always
//! matches input order.
//!
//! Every cell carries a stable *global index* in the full grid.
//! [`shard`](Suite::shard) keeps a deterministic `1/N`th of the grid,
//! dealt serpentine by that index, so independent processes (CI jobs,
//! cluster nodes) each compute a disjoint slice into their own JSONL
//! store, and [`ResultsStore::merge_files`] recombines them.
//! [`run_with_store`](Suite::run_with_store) streams each completed cell
//! to the store and, on a re-run, loads completed cells instead of
//! recomputing them — the resume path for interrupted sweeps.

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

/// Derives the `index`-th seed from a base seed (splitmix64).
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

/// Runs one scenario and checks the result before handing it back. Its
/// energy must be finite: finite power parameters can still multiply out
/// to an infinity, which a store would write as `null` and then fail to
/// read back. In debug builds, the makespan must also respect the
/// fault-aware analytic bound.
fn execute_checked<E: Executor + ?Sized>(
    executor: &E,
    scenario: &Scenario,
) -> Result<RunReport, ExpError> {
    let report = executor.execute(scenario)?;
    if let Some((field, v)) = report.energy.non_finite() {
        let params: Vec<String> = scenario
            .spec()
            .power
            .named()
            .iter()
            .map(|(name, v)| format!("{name}={v:?}"))
            .collect();
        return Err(ExpError::InvalidSpec(format!(
            "{}: the power parameters ({}) make {field} {v}, which a results store cannot hold",
            report.label,
            params.join(", ")
        )));
    }
    #[cfg(debug_assertions)]
    assert_analytic_bound(scenario.spec(), &report);
    Ok(report)
}

/// What a store-backed suite run did: the full in-order results plus how
/// many cells were served from the store versus freshly executed.
#[derive(Debug)]
pub struct StoreRunOutcome {
    /// Per-cell results, in input order (loaded and fresh interleaved).
    pub results: Vec<Result<RunReport, ExpError>>,
    /// Cells skipped because the store already held their record.
    pub resumed: usize,
    /// Cells executed by this run, failed ones included; only the cells
    /// that succeeded were appended to the store.
    pub executed: usize,
}

/// A batch of scenarios plus a parallelism setting.
#[derive(Debug, Clone, Default)]
pub struct Suite {
    scenarios: Vec<Scenario>,
    /// Global cell index of each scenario within the full (unsharded)
    /// grid. Stable under [`shard`](Self::shard); the store keys on it.
    indices: Vec<u64>,
    /// The *full* grid's digest, captured by [`shard`](Self::shard)
    /// before filtering, so every shard stamps its records with the same
    /// provenance tag (unsharded suites compute it from their own cells).
    grid: Option<String>,
    jobs: usize,
}

impl Suite {
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
            grid: None,
            jobs: 1,
        }
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
    /// (1-based), dealt serpentine by grid index: cell `i` sits in row
    /// `i / of` and column `i % of`, and goes to shard `column + 1` on
    /// even rows and `of - column` on odd rows. Every two rows give each
    /// shard two cells whose places in their rows sum to `of - 1`, so a
    /// cost that drifts along the grid evens out instead of piling onto
    /// the last shard. The deal reads nothing but the indices: shards of
    /// the same grid are disjoint and together cover it exactly in every
    /// process, so `N` processes each running one shard into their own
    /// store compute the whole suite with no coordination.
    pub fn shard(self, shard: usize, of: usize) -> Result<Self, ExpError> {
        if of == 0 || shard == 0 || shard > of {
            return Err(ExpError::InvalidSpec(format!(
                "shard {shard}/{of}: want 1 <= shard <= of"
            )));
        }
        let (of, column) = (of as u64, shard as u64 - 1);
        let owner = |i: u64| match (i / of % 2, i % of) {
            (0, col) => col,
            (_, col) => of - 1 - col,
        };
        // Capture the *full* grid's provenance digest before filtering,
        // so every shard stamps its store records identically.
        let grid = Some(self.grid.clone().unwrap_or_else(|| self.own_grid_digest()));
        let (scenarios, indices) = self
            .scenarios
            .into_iter()
            .zip(self.indices)
            .filter(|&(_, i)| owner(i) == column)
            .unzip();
        Ok(Suite {
            scenarios,
            indices,
            grid,
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

    /// Runs every scenario on `executor`, fanning across the configured
    /// worker threads. Results come back in input order; each entry is the
    /// run's report or its error.
    pub fn run<E: Executor + ?Sized>(&self, executor: &E) -> Vec<Result<RunReport, ExpError>> {
        run_pool(self.scenarios.len(), self.jobs, |i| {
            execute_checked(executor, &self.scenarios[i])
        })
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

        let fresh = run_pool(pending.len(), self.jobs, |k| execute_one(pending[k]));
        // `pending` is ascending, so its results interleave with the
        // resumed cells in one pass.
        let mut fresh = pending.iter().copied().zip(fresh).peekable();
        let mut results = Vec::with_capacity(n);
        let mut resumed = 0;
        for i in 0..n {
            match fresh.next_if(|&(pos, _)| pos == i) {
                Some((_, r)) => results.push(r),
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

/// Runs `job(k)` for every `k` in `0..n` on up to `jobs` scoped worker
/// threads, each taking the next unclaimed `k`, and returns the results
/// in `k` order. With one worker (or at most one job) it runs serially
/// on the calling thread.
fn run_pool<T: Send>(n: usize, jobs: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = jobs.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let result = job(k);
                *slots[k].lock().expect("result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every job ran")
        })
        .collect()
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
        let exec = SimExecutor;
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
            .run_all(&SimExecutor);
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
            .run_all(&SimExecutor);
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
        let results = Suite::from_specs(specs).jobs(2).run(&SimExecutor);
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
        // Rows (0, 1), (2, 3), (4, 5): forward, backward, forward.
        assert_eq!(a.cell_indices(), &[0, 3, 4]);
        assert_eq!(b.cell_indices(), &[1, 2, 5]);
        assert_eq!(a.len() + b.len(), all.len());
        assert!(all.clone().shard(0, 2).is_err());
        assert!(all.clone().shard(3, 2).is_err());
        assert!(all.shard(1, 0).is_err());
    }
}
