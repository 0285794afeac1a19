//! Running experiment matrices through the `exp` facade.
//!
//! Every cell is a [`ScenarioSpec`] executed on the shared
//! [`SimExecutor`] backend via the parallel [`Suite`] runner — no direct
//! engine construction here; custom policies registered in
//! [`PolicyRegistries`](cata_core::PolicyRegistries) work matrix-wide for
//! free.

use cata_core::exp::{CellRecord, Executor, Scenario, Suite};
use cata_core::{RunReport, ScenarioSpec, SimExecutor, WorkloadSpec};
use cata_workloads::{Benchmark, Scale};
use std::collections::HashMap;

/// Default workload seed: figures are generated from one fixed input per
/// benchmark, like the paper's simlarge runs.
pub const DEFAULT_SEED: u64 = 0x5EED_CA7A;

/// Results of a benchmark × fast-cores × configuration matrix, keyed for
/// figure assembly.
#[derive(Debug, Default)]
pub struct MatrixResult {
    /// (benchmark, fast_cores, config label) → report.
    pub reports: HashMap<(Benchmark, usize, String), RunReport>,
}

impl MatrixResult {
    /// The report of one cell.
    pub fn get(&self, b: Benchmark, fast: usize, label: &str) -> &RunReport {
        self.reports
            .get(&(b, fast, label.to_string()))
            .unwrap_or_else(|| panic!("missing cell {b:?}/{fast}/{label}"))
    }

    /// Speedup of `label` over FIFO for one cell (the Figure 4/5 y-axis).
    pub fn speedup(&self, b: Benchmark, fast: usize, label: &str) -> f64 {
        self.get(b, fast, label)
            .speedup_over(self.get(b, fast, "FIFO"))
    }

    /// Normalized EDP of `label` over FIFO for one cell. `None` when the
    /// FIFO baseline carries no energy (it used to render as `0.000` or
    /// `inf`; figures now print `n/a`).
    pub fn edp(&self, b: Benchmark, fast: usize, label: &str) -> Option<f64> {
        self.get(b, fast, label)
            .edp_normalized_to(self.get(b, fast, "FIFO"))
    }

    /// Geometric-mean speedup over all benchmarks (the figures' "Average"
    /// group).
    pub fn avg_speedup(&self, benches: &[Benchmark], fast: usize, label: &str) -> f64 {
        let product: f64 = benches
            .iter()
            .map(|&b| self.speedup(b, fast, label))
            .product();
        product.powf(1.0 / benches.len() as f64)
    }

    /// Geometric-mean normalized EDP; `None` as soon as any cell's EDP is
    /// undefined (one energy-less baseline would otherwise poison the mean
    /// invisibly).
    pub fn avg_edp(&self, benches: &[Benchmark], fast: usize, label: &str) -> Option<f64> {
        let mut product = 1.0f64;
        for &b in benches {
            product *= self.edp(b, fast, label)?;
        }
        Some(product.powf(1.0 / benches.len() as f64))
    }

    /// The fast-core counts present, ascending — the row axis when a
    /// matrix is assembled from a store rather than a fixed plan.
    pub fn fast_core_counts(&self) -> Vec<usize> {
        let mut fasts: Vec<usize> = self.reports.keys().map(|&(_, f, _)| f).collect();
        fasts.sort_unstable();
        fasts.dedup();
        fasts
    }

    /// The benchmarks present, in `Benchmark::all` order.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        Benchmark::all()
            .into_iter()
            .filter(|&b| self.reports.keys().any(|&(rb, _, _)| rb == b))
            .collect()
    }

    /// The configuration labels present, for one figure's plot order pick
    /// the intersection with the figure's label list.
    pub fn labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.reports.keys().map(|(_, _, l)| l.clone()).collect();
        labels.sort();
        labels.dedup();
        labels
    }

    /// Assembles a matrix from merged store records — the path that lets
    /// `fig4`/`fig5` panels be rendered from sharded CI runs instead of
    /// re-simulating the grid. Cells whose workload is not one of the six
    /// paper benchmarks (micro workloads) are skipped; sim and native cells
    /// of the same `(benchmark, fast, label)` would collide, so mixed
    /// backends are an error — filter the records first.
    pub fn from_records<'a>(
        records: impl IntoIterator<Item = &'a CellRecord>,
    ) -> Result<MatrixResult, String> {
        let by_name: HashMap<&str, Benchmark> = Benchmark::all()
            .into_iter()
            .map(|b| (b.name(), b))
            .collect();
        let mut result = MatrixResult::default();
        for rec in records {
            let Some(&bench) = by_name.get(rec.report.workload.as_str()) else {
                continue; // micro workload: not a figure cell
            };
            let key = (bench, rec.report.fast_cores, rec.report.label.clone());
            if let Some(prev) = result.reports.insert(key, rec.report.clone()) {
                return Err(format!(
                    "duplicate matrix cell {}/{}/{} (cell {}) — merge shards first, \
                     and keep sim and native grids in separate figures",
                    prev.workload, prev.fast_cores, prev.label, rec.cell
                ));
            }
        }
        Ok(result)
    }
}

/// Runs one spec on the simulator backend.
pub fn run_spec(spec: ScenarioSpec) -> RunReport {
    Scenario::from_spec(spec)
        .run(&SimExecutor)
        .unwrap_or_else(|e| panic!("scenario failed: {e}"))
}

/// Runs `configs` on every benchmark at every fast-core count, fanning the
/// whole matrix across `jobs` worker threads (`0` ⇒ host parallelism,
/// `1` ⇒ serial). Each cell's spec pins its workload seed, so results are
/// identical at any parallelism.
pub fn run_matrix_on<E: Executor + ?Sized>(
    executor: &E,
    benches: &[Benchmark],
    fast_core_counts: &[usize],
    configs: impl Fn(usize, WorkloadSpec) -> Vec<ScenarioSpec>,
    scale: Scale,
    seed: u64,
    jobs: usize,
) -> MatrixResult {
    let mut keys = Vec::new();
    let mut specs = Vec::new();
    for &bench in benches {
        for &fast in fast_core_counts {
            for spec in configs(fast, WorkloadSpec::parsec(bench, scale, seed)) {
                keys.push((bench, fast, spec.name.clone()));
                specs.push(spec);
            }
        }
    }
    let reports = Suite::from_specs(specs).jobs(jobs).run_all(executor);
    let mut result = MatrixResult::default();
    for (key, report) in keys.into_iter().zip(reports) {
        result.reports.insert(key, report);
    }
    result
}

/// [`run_matrix_on`] with the simulator backend.
pub fn run_matrix(
    benches: &[Benchmark],
    fast_core_counts: &[usize],
    configs: impl Fn(usize, WorkloadSpec) -> Vec<ScenarioSpec>,
    scale: Scale,
    seed: u64,
    jobs: usize,
) -> MatrixResult {
    run_matrix_on(
        &SimExecutor,
        benches,
        fast_core_counts,
        configs,
        scale,
        seed,
        jobs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_configs(fast: usize, w: WorkloadSpec) -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::preset("FIFO", fast, w.clone()).unwrap(),
            ScenarioSpec::preset("CATA+RSU", fast, w).unwrap(),
        ]
    }

    #[test]
    fn matrix_runs_and_normalizes() {
        let benches = [Benchmark::Blackscholes];
        let m = run_matrix(&benches, &[8], two_configs, Scale::Tiny, 1, 1);
        let fifo_speedup = m.speedup(Benchmark::Blackscholes, 8, "FIFO");
        assert!(
            (fifo_speedup - 1.0).abs() < 1e-12,
            "FIFO self-normalizes to 1"
        );
        let edp = m.edp(Benchmark::Blackscholes, 8, "CATA+RSU").unwrap();
        assert!(edp > 0.0);
        assert!(m.avg_edp(&benches, 8, "CATA+RSU").is_some());
    }

    #[test]
    fn matrix_assembles_from_store_records() {
        // Run a tiny 2-config grid through the store path, then rebuild
        // the MatrixResult purely from the records.
        let w = WorkloadSpec::parsec(Benchmark::Blackscholes, Scale::Tiny, 1);
        let specs = two_configs(8, w);
        let suite = Suite::from_specs(specs);
        let records: Vec<CellRecord> = suite
            .grid_pairs()
            .iter()
            .zip(suite.run_all(&SimExecutor))
            .map(|((i, _), report)| {
                let spec = ScenarioSpec::preset(
                    &report.label,
                    8,
                    WorkloadSpec::parsec(Benchmark::Blackscholes, Scale::Tiny, 1),
                )
                .unwrap();
                CellRecord::new(*i, &spec, "g".into(), 0.0, report)
            })
            .collect();
        let m = MatrixResult::from_records(&records).unwrap();
        assert_eq!(m.benchmarks(), vec![Benchmark::Blackscholes]);
        assert_eq!(m.fast_core_counts(), vec![8]);
        let speedup = m.speedup(Benchmark::Blackscholes, 8, "CATA+RSU");
        assert!(speedup > 0.0);
        assert!(m.edp(Benchmark::Blackscholes, 8, "CATA+RSU").is_some());

        // A duplicated cell is an assembly error, not a silent overwrite.
        let doubled: Vec<CellRecord> = records.iter().chain(records.iter()).cloned().collect();
        assert!(MatrixResult::from_records(&doubled).is_err());
    }

    #[test]
    fn parallel_matrix_matches_serial() {
        let benches = [Benchmark::Blackscholes];
        let serial = run_matrix(&benches, &[8], two_configs, Scale::Tiny, 1, 1);
        let parallel = run_matrix(&benches, &[8], two_configs, Scale::Tiny, 1, 4);
        for (key, a) in &serial.reports {
            let b = &parallel.reports[key];
            assert_eq!(a.exec_time, b.exec_time, "{key:?} diverged");
            assert_eq!(a.energy.energy_j, b.energy.energy_j);
        }
    }
}
