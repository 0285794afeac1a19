//! Ablation studies A1–A4 (power budget, reconfiguration latency, BL
//! threshold, multi-level DVFS; `repro` runs them, see the README's
//! "Reproducing the paper"), driven through the `exp` facade: every run
//! is a [`ScenarioSpec`] executed by the shared suite machinery.

use crate::matrix::{run_spec, DEFAULT_SEED};
use crate::tables::{r3, r3_opt, Table};
use cata_core::{ScenarioSpec, WorkloadSpec};
use cata_sim::machine::PowerLevel;
use cata_sim::time::{Frequency, SimDuration};
use cata_workloads::{Benchmark, Scale};

fn preset(label: &str, fast: usize, bench: Benchmark, scale: Scale) -> ScenarioSpec {
    ScenarioSpec::preset(
        label,
        fast,
        WorkloadSpec::parsec(bench, scale, DEFAULT_SEED),
    )
    .expect("paper preset exists")
}

/// A1: sensitivity of CATA+RSU to the power budget, on one benchmark.
/// Reports speedup over the FIFO baseline with the *same* static fast-core
/// count as the budget.
pub fn budget_sweep(bench: Benchmark, scale: Scale, budgets: &[usize]) -> Table {
    let mut t = Table::new(&["budget", "exec time", "speedup vs FIFO(b)", "norm EDP"]);
    for &b in budgets {
        let fifo = run_spec(preset("FIFO", b, bench, scale));
        let cata = run_spec(preset("CATA+RSU", b, bench, scale));
        t.row(vec![
            b.to_string(),
            cata.exec_time.to_string(),
            r3(cata.speedup_over(&fifo)),
            r3_opt(cata.edp_normalized_to(&fifo)),
        ]);
    }
    t
}

/// A2: sensitivity of software CATA vs CATA+RSU to the DVFS transition
/// latency — the gap between them should widen as reconfigurations slow
/// down, because the software path serializes transitions.
pub fn latency_sweep(bench: Benchmark, scale: Scale, latencies_us: &[u64]) -> Table {
    let mut t = Table::new(&[
        "reconfig latency",
        "CATA speedup",
        "CATA+RSU speedup",
        "RSU gain",
    ]);
    for &us in latencies_us {
        let with_latency = |label: &str| {
            let mut spec = preset(label, 16, bench, scale);
            spec.machine.reconfig_latency = SimDuration::from_us(us);
            spec
        };
        let fifo = run_spec(with_latency("FIFO"));
        let sw = run_spec(with_latency("CATA"));
        let hw = run_spec(with_latency("CATA+RSU"));
        t.row(vec![
            format!("{}us", us),
            r3(sw.speedup_over(&fifo)),
            r3(hw.speedup_over(&fifo)),
            r3(hw.speedup_over(&sw)),
        ]);
    }
    t
}

/// A3: sensitivity of CATS+BL to the bottom-level criticality threshold
/// fraction `alpha`.
pub fn threshold_sweep(bench: Benchmark, scale: Scale, alphas: &[f64]) -> Table {
    let fifo = run_spec(preset("FIFO", 16, bench, scale));
    let mut t = Table::new(&["alpha", "CATS+BL speedup", "norm EDP"]);
    for &a in alphas {
        let mut spec = preset("CATS+BL", 16, bench, scale);
        spec.params.get_or_insert_with(Default::default).alpha = Some(a);
        let r = run_spec(spec);
        t.row(vec![
            format!("{a:.2}"),
            r3(r.speedup_over(&fifo)),
            r3_opt(r.edp_normalized_to(&fifo)),
        ]);
    }
    t
}

/// A4 (paper future work): more than two DVFS levels. The machine's fast
/// level is raised and the slow level lowered around the paper's pair,
/// approximating a 3/4-level ladder by its extremes; CATA's budget then
/// constrains the *top* level.
pub fn multilevel_sweep(bench: Benchmark, scale: Scale) -> Table {
    let ladders: [(&str, u32, u32, u32, u32); 3] = [
        ("2 levels (paper)", 2000, 1000, 1000, 800),
        ("3-level extremes", 2400, 1000, 900, 750),
        ("4-level extremes", 2600, 1050, 800, 700),
    ];
    let mut t = Table::new(&["ladder", "CATA+RSU speedup", "norm EDP"]);
    for (name, fast_mhz, fast_mv, slow_mhz, slow_mv) in ladders {
        let with_ladder = |label: &str| {
            let mut spec = preset(label, 16, bench, scale);
            spec.machine.fast_level = PowerLevel {
                frequency: Frequency::from_mhz(fast_mhz),
                voltage_mv: fast_mv,
            };
            spec.machine.slow_level = PowerLevel {
                frequency: Frequency::from_mhz(slow_mhz),
                voltage_mv: slow_mv,
            };
            spec
        };
        let fifo = run_spec(with_ladder("FIFO"));
        let r = run_spec(with_ladder("CATA+RSU"));
        t.row(vec![
            name.to_string(),
            r3(r.speedup_over(&fifo)),
            r3_opt(r.edp_normalized_to(&fifo)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_sweep_runs() {
        let t = budget_sweep(Benchmark::Swaptions, Scale::Tiny, &[8, 16]);
        let s = t.render();
        assert!(s.contains("8"));
        assert!(s.contains("16"));
    }

    #[test]
    fn latency_sweep_runs() {
        let t = latency_sweep(Benchmark::Blackscholes, Scale::Tiny, &[5, 100]);
        assert!(t.render().contains("100us"));
    }

    #[test]
    fn threshold_sweep_runs() {
        let t = threshold_sweep(Benchmark::Bodytrack, Scale::Tiny, &[0.5, 1.0]);
        assert!(t.render().contains("0.50"));
    }

    #[test]
    fn multilevel_sweep_runs() {
        let t = multilevel_sweep(Benchmark::Dedup, Scale::Tiny);
        assert!(t.render().contains("paper"));
    }
}
