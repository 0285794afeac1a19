//! Qualitative reproduction tests: the *shapes* of the paper's results (who
//! wins, in which direction, on which workload class) asserted at Small
//! scale. These are the executable form of EXPERIMENTS.md.
//!
//! The simulations are deterministic, so these are stable regression tests
//! for the calibration; tolerances are loose enough that they test the
//! qualitative claim, not a specific decimal.

use cata_bench::figures::{fig4_configs, fig5_configs};
use cata_bench::matrix::{run_matrix, DEFAULT_SEED};
use cata_core::exp::Scenario;
use cata_core::{ScenarioSpec, SimExecutor, WorkloadSpec};
use cata_workloads::{Benchmark, Scale};

fn fig4_matrix() -> cata_bench::MatrixResult {
    run_matrix(
        &Benchmark::all(),
        &[8, 16, 24],
        fig4_configs,
        Scale::Small,
        DEFAULT_SEED,
        0,
    )
}

fn fig5_matrix() -> cata_bench::MatrixResult {
    run_matrix(
        &Benchmark::all(),
        &[8, 16, 24],
        fig5_configs,
        Scale::Small,
        DEFAULT_SEED,
        0,
    )
}

/// Paper §V-B: CATA clearly outperforms FIFO on average (paper: +15.9 % to
/// +18.4 %).
#[test]
fn cata_beats_fifo_on_average() {
    let m = fig4_matrix();
    for fast in [8, 16] {
        let avg = m.avg_speedup(&Benchmark::all(), fast, "CATA");
        assert!(
            avg > 1.08,
            "CATA average at {fast} fast cores only {avg:.3}"
        );
    }
}

/// Paper §V-A: criticality-aware scheduling helps (CATS ≥ FIFO on average),
/// and static annotations do at least as well as bottom-level at 16+ fast
/// cores (paper: SA "provides slightly better performance").
#[test]
fn cats_helps_and_sa_is_at_least_bl() {
    let m = fig4_matrix();
    for fast in [8, 16, 24] {
        let sa = m.avg_speedup(&Benchmark::all(), fast, "CATS+SA");
        assert!(sa > 1.0, "CATS+SA average at {fast}: {sa:.3}");
    }
    for fast in [16, 24] {
        let sa = m.avg_speedup(&Benchmark::all(), fast, "CATS+SA");
        let bl = m.avg_speedup(&Benchmark::all(), fast, "CATS+BL");
        assert!(sa >= bl - 0.005, "SA {sa:.3} < BL {bl:.3} at {fast} fast");
    }
}

/// Paper §V-A: pipeline applications benefit most from CATS — Dedup is the
/// showcase (paper: up to +20.2 %).
#[test]
fn dedup_is_the_cats_showcase() {
    let m = fig4_matrix();
    let dd = m.speedup(Benchmark::Dedup, 8, "CATS+SA");
    assert!(dd > 1.15, "Dedup CATS+SA speedup only {dd:.3}");
    // Fork-join apps gain almost nothing from CATS (no criticality spread).
    let bs = m.speedup(Benchmark::Blackscholes, 8, "CATS+SA");
    assert!(
        (0.97..1.06).contains(&bs),
        "Blackscholes CATS+SA {bs:.3} should be ≈1"
    );
}

/// Paper §V-A: bottom-level misclassifies Bodytrack (durations vary 10×,
/// BL sees only hop counts) — CATS+SA beats CATS+BL there.
#[test]
fn bodytrack_sa_beats_bl() {
    let m = fig4_matrix();
    for fast in [8, 16] {
        let sa = m.speedup(Benchmark::Bodytrack, fast, "CATS+SA");
        let bl = m.speedup(Benchmark::Bodytrack, fast, "CATS+BL");
        assert!(sa > bl, "Bodytrack at {fast}: SA {sa:.3} ≤ BL {bl:.3}");
    }
}

/// Paper §V-B: CATA's wins concentrate on the imbalanced fork-join /
/// stencil applications (Swaptions, Fluidanimate), where it re-assigns the
/// freed budget to stragglers.
#[test]
fn cata_wins_on_imbalanced_apps() {
    let m = fig4_matrix();
    for (b, min) in [
        (Benchmark::Swaptions, 1.15),
        (Benchmark::Fluidanimate, 1.03),
    ] {
        let s = m.speedup(b, 8, "CATA");
        assert!(s > min, "{} CATA speedup {s:.3} < {min}", b.name());
    }
}

/// Paper §V-B: Blackscholes barely benefits and can slightly *lose* at 24
/// fast cores (reconfiguration overhead on tiny uniform tasks).
#[test]
fn blackscholes_cata_is_flat_or_slightly_negative() {
    let m = fig4_matrix();
    for fast in [8, 16, 24] {
        let s = m.speedup(Benchmark::Blackscholes, fast, "CATA");
        assert!(
            (0.90..1.10).contains(&s),
            "Blackscholes CATA at {fast} out of band: {s:.3}"
        );
    }
}

/// Paper §V-C: the RSU improves on software CATA everywhere on average, and
/// most on the reconfiguration-heavy applications.
#[test]
fn rsu_improves_on_software_cata() {
    let m = fig5_matrix();
    for fast in [8, 16, 24] {
        let sw = m.avg_speedup(&Benchmark::all(), fast, "CATA");
        let hw = m.avg_speedup(&Benchmark::all(), fast, "CATA+RSU");
        assert!(hw >= sw, "at {fast} fast: RSU {hw:.3} < CATA {sw:.3}");
    }
    // Per-benchmark: RSU never loses by more than noise.
    for b in Benchmark::all() {
        for fast in [8, 16, 24] {
            let sw = m.speedup(b, fast, "CATA");
            let hw = m.speedup(b, fast, "CATA+RSU");
            assert!(
                hw > sw - 0.02,
                "{} at {fast}: RSU {hw:.3} well below CATA {sw:.3}",
                b.name()
            );
        }
    }
}

/// Paper §V-D: TurboMode trails CATA+RSU on average and degrades on the
/// pipeline applications (it accelerates blindly), while staying
/// competitive on fork-join.
#[test]
fn turbomode_loses_to_rsu_especially_on_pipelines() {
    let m = fig5_matrix();
    for fast in [8, 16, 24] {
        let hw = m.avg_speedup(&Benchmark::all(), fast, "CATA+RSU");
        let tb = m.avg_speedup(&Benchmark::all(), fast, "TurboMode");
        assert!(tb < hw, "at {fast}: TurboMode {tb:.3} ≥ RSU {hw:.3}");
    }
    for b in [Benchmark::Dedup, Benchmark::Ferret] {
        let hw = m.speedup(b, 16, "CATA+RSU");
        let tb = m.speedup(b, 16, "TurboMode");
        assert!(
            hw > tb + 0.05,
            "{}: pipeline gap missing (RSU {hw:.3}, Turbo {tb:.3})",
            b.name()
        );
    }
}

/// Paper §V-B: EDP improvements exceed the execution-time improvements
/// (idle cores are decelerated, so energy falls faster than time).
#[test]
fn edp_gains_exceed_time_gains_for_cata() {
    let m = fig4_matrix();
    for fast in [8, 16] {
        let speedup = m.avg_speedup(&Benchmark::all(), fast, "CATA");
        let edp = m
            .avg_edp(&Benchmark::all(), fast, "CATA")
            .expect("simulated baselines carry energy");
        // EDP gain (1/edp) should exceed the speedup.
        assert!(
            1.0 / edp > speedup,
            "at {fast}: EDP gain {:.3} ≤ speedup {speedup:.3}",
            1.0 / edp
        );
        assert!(edp < 0.95, "CATA EDP not clearly better: {edp:.3}");
    }
}

/// Paper §V-D: TurboMode's fork-join speedups come at higher energy — its
/// normalized EDP is worse than CATA+RSU's on average.
#[test]
fn turbomode_pays_energy_for_its_speed() {
    let m = fig5_matrix();
    for fast in [16, 24] {
        let hw = m
            .avg_edp(&Benchmark::all(), fast, "CATA+RSU")
            .expect("simulated baselines carry energy");
        let tb = m
            .avg_edp(&Benchmark::all(), fast, "TurboMode")
            .expect("simulated baselines carry energy");
        assert!(
            tb > hw - 0.005,
            "at {fast}: Turbo EDP {tb:.3} ≪ RSU {hw:.3}"
        );
    }
}

/// Paper §V-C (text): CATA's average reconfiguration overhead sits in the
/// fractions-of-a-percent to few-percent band, with µs-scale average
/// latencies and far larger worst-case lock waits.
#[test]
fn reconfiguration_overhead_in_paper_band() {
    for bench in Benchmark::all() {
        let spec = ScenarioSpec::preset(
            "CATA",
            16,
            WorkloadSpec::parsec(bench, Scale::Small, DEFAULT_SEED),
        )
        .expect("paper preset");
        let r = Scenario::from_spec(spec)
            .run(&SimExecutor)
            .expect("scenario run");
        assert!(
            r.reconfig_time_share < 0.12,
            "{}: overhead share {:.3} implausibly high",
            bench.name(),
            r.reconfig_time_share
        );
        if r.reconfig_latencies.count() > 10 {
            let mean = r.reconfig_latencies.mean();
            assert!(
                mean.as_us() < 100,
                "{}: mean latency {} out of band",
                bench.name(),
                mean
            );
            assert!(r.lock_waits.max() >= mean, "worst lock wait below the mean");
        }
    }
}

/// The RSU hardware-overhead claims of §III-B-4 hold: 103 bits at 32 cores /
/// 2 power states, negligible area, well under 50 µW.
#[test]
fn rsu_overhead_claims() {
    use cata_rsu::overhead::{estimate, storage_bits, TechParams};
    assert_eq!(storage_bits(32, 2), 103);
    let o = estimate(32, 2, &TechParams::nm22());
    assert!(o.area_fraction < 1e-6);
    assert!(o.power_uw < 50.0);
}
