//! Figure and table assembly (paper artifacts F4a/F4b/F5a/F5b, Table I,
//! §V-C latency analysis, §III-B-4 RSU overhead).

use crate::matrix::MatrixResult;
use crate::tables::{r3, r3_opt, Table};
use cata_core::{ScenarioSpec, WorkloadSpec};
use cata_rsu::overhead::{estimate, TechParams};
use cata_sim::machine::MachineConfig;
use cata_workloads::Benchmark;

/// The fast-core counts of the paper's heterogeneous configurations.
pub const FAST_CORE_COUNTS: [usize; 3] = [8, 16, 24];

/// Figure 4's configurations in plot order (FIFO is the baseline) — the
/// one list behind both [`fig4_configs`] and `merge --fig fig4`.
pub const FIG4_LABELS: [&str; 4] = ["FIFO", "CATS+BL", "CATS+SA", "CATA"];

/// Figure 5's configurations in plot order.
pub const FIG5_LABELS: [&str; 4] = ["FIFO", "CATA", "CATA+RSU", "TurboMode"];

fn presets(labels: &[&str], fast: usize, workload: WorkloadSpec) -> Vec<ScenarioSpec> {
    labels
        .iter()
        .map(|label| {
            ScenarioSpec::preset(label, fast, workload.clone()).expect("paper preset exists")
        })
        .collect()
}

/// The configurations of Figure 4 on `workload`, in plot order.
pub fn fig4_configs(fast: usize, workload: WorkloadSpec) -> Vec<ScenarioSpec> {
    presets(&FIG4_LABELS, fast, workload)
}

/// The configurations of Figure 5 on `workload`, in plot order (FIFO is
/// included as the normalization baseline).
pub fn fig5_configs(fast: usize, workload: WorkloadSpec) -> Vec<ScenarioSpec> {
    presets(&FIG5_LABELS, fast, workload)
}

/// Renders one speedup or EDP panel: rows = benchmark × fast-cores, columns
/// = configurations (normalized to FIFO). Uses the paper's fast-core axis;
/// [`render_panel_at`] takes an explicit axis (e.g. whatever a merged
/// store actually contains).
pub fn render_panel(
    m: &MatrixResult,
    benches: &[Benchmark],
    labels: &[&str],
    metric: Metric,
) -> Table {
    render_panel_at(m, benches, &FAST_CORE_COUNTS, labels, metric)
}

/// [`render_panel`] over an explicit fast-core axis. Undefined EDP cells
/// (energy-less baseline) render `n/a`, never `0`, `inf` or `NaN`.
pub fn render_panel_at(
    m: &MatrixResult,
    benches: &[Benchmark],
    fasts: &[usize],
    labels: &[&str],
    metric: Metric,
) -> Table {
    let mut header = vec!["benchmark".to_string(), "fast".to_string()];
    header.extend(labels.iter().map(|s| s.to_string()));
    let mut t = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for &b in benches {
        for &fast in fasts {
            let mut row = vec![b.name().to_string(), fast.to_string()];
            for &l in labels {
                row.push(match metric {
                    Metric::Speedup => r3(m.speedup(b, fast, l)),
                    Metric::Edp => r3_opt(m.edp(b, fast, l)),
                });
            }
            t.row(row);
        }
    }
    // The figures' "Average" group (geometric mean across benchmarks).
    for &fast in fasts {
        let mut row = vec!["Average".to_string(), fast.to_string()];
        for &l in labels {
            row.push(match metric {
                Metric::Speedup => r3(m.avg_speedup(benches, fast, l)),
                Metric::Edp => r3_opt(m.avg_edp(benches, fast, l)),
            });
        }
        t.row(row);
    }
    t
}

/// The figure label sets, in plot order (FIFO is the baseline column) —
/// the same lists [`fig4_configs`]/[`fig5_configs`] run, so `repro fig4`
/// and `repro merge --fig fig4` can never drift apart.
pub fn figure_labels(fig: &str) -> Option<&'static [&'static str]> {
    match fig {
        "fig4" => Some(&FIG4_LABELS),
        "fig5" => Some(&FIG5_LABELS),
        _ => None,
    }
}

/// Which panel of a figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Execution-time speedup over FIFO (top panels).
    Speedup,
    /// Energy-Delay Product normalized to FIFO (bottom panels).
    Edp,
}

/// Renders Table I.
pub fn render_table1() -> String {
    let cfg = MachineConfig::paper_table1();
    let mut t = Table::new(&["parameter", "value"]);
    for (k, v) in cfg.table1_rows() {
        t.row(vec![k, v]);
    }
    t.render()
}

/// Renders the §III-B-4 RSU overhead analysis.
pub fn render_rsu_overhead() -> String {
    let mut t = Table::new(&[
        "cores",
        "power states",
        "storage bits",
        "area mm^2",
        "area frac",
        "power uW",
    ]);
    for (cores, states) in [(32usize, 2usize), (32, 4), (64, 2), (128, 2), (1024, 2)] {
        let o = estimate(cores, states, &TechParams::nm22());
        t.row(vec![
            cores.to_string(),
            states.to_string(),
            o.storage_bits.to_string(),
            format!("{:.6}", o.area_mm2),
            format!("{:.2e}", o.area_fraction),
            format!("{:.2}", o.power_uw),
        ]);
    }
    let o32 = estimate(32, 2, &TechParams::nm22());
    format!(
        "{}\npaper claims at 32 cores / 2 states: 103 bits (got {}), area < 0.0001% (got {:.2e}%), power < 50uW (got {:.2}uW)\n",
        t.render(),
        o32.storage_bits,
        o32.area_fraction * 100.0,
        o32.power_uw
    )
}

/// Renders the §V-C reconfiguration-latency analysis for the CATA software
/// path across all benchmarks.
pub fn render_latency_analysis(m: &MatrixResult, benches: &[Benchmark], fast: usize) -> Table {
    let mut t = Table::new(&[
        "benchmark",
        "reconfigs",
        "avg latency",
        "p99 latency",
        "max latency",
        "max lock wait",
        "overhead share",
    ]);
    for &b in benches {
        let r = m.get(b, fast, "CATA");
        t.row(vec![
            b.name().to_string(),
            r.reconfig_latencies.count().to_string(),
            r.reconfig_latencies.mean().to_string(),
            r.reconfig_latencies.quantile_with_bound(0.99),
            r.reconfig_latencies.max().to_string(),
            r.lock_waits.max().to_string(),
            format!("{:.3}%", r.reconfig_time_share * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::run_matrix;
    use cata_workloads::Scale;

    #[test]
    fn panels_render_for_a_small_matrix() {
        let benches = [Benchmark::Dedup];
        let m = run_matrix(&benches, &[8, 16, 24], fig4_configs, Scale::Tiny, 1, 2);
        let t = render_panel(&m, &benches, &["CATS+SA", "CATA"], Metric::Speedup);
        let s = t.render();
        assert!(s.contains("Dedup"));
        assert!(s.contains("Average"));
        let e = render_panel(&m, &benches, &["CATA"], Metric::Edp);
        assert!(e.render().contains("CATA"));
    }

    #[test]
    fn table1_contains_the_paper_values() {
        let s = render_table1();
        assert!(s.contains("32"));
        assert!(s.contains("2GHz"));
        assert!(s.contains("25.000us"));
    }

    #[test]
    fn rsu_overhead_matches_formula() {
        let s = render_rsu_overhead();
        assert!(s.contains("103"));
    }
}
