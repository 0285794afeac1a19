//! Golden determinism digests for the six paper presets.
//!
//! The engine promises bit-identical `RunReport`s for identical specs, and
//! PR 2's hot-path refactor (persistent idle-core index, bucket-array
//! HPRQ, borrowed profiles, scratch reuse) promises to preserve every
//! scheduling decision. These digests — recorded from the pre-refactor
//! engine on fixed seeded workloads — pin that contract: any change to
//! makespan, energy, or a counter on any preset is a behavioural change,
//! not an optimization, and must be called out loudly.
//!
//! A second table pins the bytes of the preset *specs* themselves: store
//! cell keys, resume and `repro replay` all key on the serialized spec, so
//! a preset that serializes differently is a new cell everywhere.
//!
//! To regenerate after an *intentional* semantic change:
//! `cargo test --test golden_digest -- --nocapture print_current_digests`
//! and paste the printed tables over `GOLDEN` and `SPEC_GOLDEN`.

use cata_core::exp::{spec_digest, PolicyParams, ScenarioSpec, WorkloadSpec};
use cata_core::SimExecutor;
use cata_cpufreq::software_path::SoftwarePathParams;
use cata_tdg::fnv1a_hex;
use cata_workloads::{Benchmark, Scale};

const SEED: u64 = 42;

/// Two fixed workloads: the Dedup pipeline (deep, criticality-annotated)
/// and Fluidanimate (the max-fan-in TDG that stresses CATS+BL walks).
fn workloads() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        (
            "dedup-tiny",
            WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, SEED),
        ),
        (
            "fluid-tiny",
            WorkloadSpec::parsec(Benchmark::Fluidanimate, Scale::Tiny, SEED),
        ),
    ]
}

const PRESETS: [&str; 6] = [
    "FIFO",
    "CATS+BL",
    "CATS+SA",
    "CATA",
    "CATA+RSU",
    "TurboMode",
];

/// A compact, bit-exact digest of one run: makespan (ps), energy (f64
/// bits), and the counters that witness every scheduling decision.
fn digest(preset: &str, workload: &WorkloadSpec) -> String {
    let spec = ScenarioSpec::preset(preset, 16, workload.clone()).expect("preset");
    let (r, _) = SimExecutor
        .run_spec(&spec, cata_core::exp::default_registries())
        .expect("run");
    let c = &r.counters;
    format!(
        "t={} e={:016x} edp={:016x} done={} req={} app={} noop={} denied={} swaps={} steals={} halts={} ovh={}",
        r.exec_time.as_ps(),
        r.energy.energy_j.to_bits(),
        r.energy.edp.to_bits(),
        c.tasks_completed,
        c.reconfigs_requested,
        c.reconfigs_applied,
        c.reconfigs_noop,
        c.accel_denied,
        c.accel_swaps,
        c.cross_queue_steals,
        c.halts,
        r.reconfig_overhead.as_ps(),
    )
}

/// The recorded pre-refactor digests, `(workload, preset) -> digest`.
const GOLDEN: &[(&str, &str, &str)] = &[
    ("dedup-tiny", "FIFO", "t=10324572707 e=3fdc9a2ef0b74556 edp=3f72e64c6c3f0f3c done=516 req=0 app=0 noop=0 denied=0 swaps=0 steals=0 halts=157 ovh=0"),
    ("dedup-tiny", "CATS+BL", "t=8943981717 e=3fda0e239c749d63 edp=3f6dd42c4f32a475 done=516 req=0 app=0 noop=0 denied=0 swaps=0 steals=296 halts=157 ovh=0"),
    ("dedup-tiny", "CATS+SA", "t=8605258874 e=3fd977f0222951f8 edp=3f6c0d895d2c81d0 done=516 req=0 app=0 noop=0 denied=0 swaps=0 steals=298 halts=157 ovh=0"),
    ("dedup-tiny", "CATA", "t=8717360226 e=3fd8107e4d2d5dfa edp=3f6ada03c34b8de6 done=516 req=107 app=107 noop=0 denied=0 swaps=0 steals=492 halts=157 ovh=2193302300"),
    ("dedup-tiny", "CATA+RSU", "t=8645288086 e=3fd7e23abaf68118 edp=3f6a6dfcb6c90e4f done=516 req=107 app=107 noop=0 denied=0 swaps=0 steals=492 halts=157 ovh=23744000"),
    ("dedup-tiny", "TurboMode", "t=9911825754 e=3fd898d43e31173e edp=3f6f34df8ffb687f done=516 req=677 app=677 noop=0 denied=0 swaps=0 steals=0 halts=430 ovh=0"),
    ("fluid-tiny", "FIFO", "t=3370990850 e=3fc189ab21b86612 edp=3f3e44ee675fa8ba done=200 req=0 app=0 noop=0 denied=0 swaps=0 steals=0 halts=0 ovh=0"),
    ("fluid-tiny", "CATS+BL", "t=2814048457 e=3fc05d1611a2922e edp=3f37939af4145832 done=200 req=0 app=0 noop=0 denied=0 swaps=0 steals=143 halts=0 ovh=0"),
    ("fluid-tiny", "CATS+SA", "t=2808798457 e=3fc0580bde0f5f2d edp=3f378118e1888cdd done=200 req=0 app=0 noop=0 denied=0 swaps=0 steals=106 halts=0 ovh=0"),
    ("fluid-tiny", "CATA", "t=2831224255 e=3fc01f757be2e240 edp=3f375f1c2c08b484 done=200 req=391 app=391 noop=0 denied=32 swaps=26 steals=100 halts=0 ovh=4945571215"),
    ("fluid-tiny", "CATA+RSU", "t=2668613612 e=3fbe89d95736954a edp=3f34dce1a7b389da done=200 req=393 app=393 noop=0 denied=23 swaps=34 steals=100 halts=0 ovh=11984000"),
    ("fluid-tiny", "TurboMode", "t=2764280898 e=3fbce2e61da5fc24 edp=3f34710b3d311145 done=200 req=381 app=381 noop=0 denied=0 swaps=0 steals=0 halts=206 ovh=0"),
];

/// Every preset at the paper's three fast-core counts, plus the
/// `ScenarioSpec::new` defaults (keyed `new`), on the dedup workload.
fn pinned_specs() -> Vec<(String, usize, ScenarioSpec)> {
    let w = WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, SEED);
    let mut specs = Vec::new();
    for preset in PRESETS {
        for fast in [8, 16, 24] {
            let spec = ScenarioSpec::preset(preset, fast, w.clone()).expect("preset");
            specs.push((preset.to_string(), fast, spec));
        }
    }
    specs.push(("new".to_string(), 16, ScenarioSpec::new("new", w)));
    specs
}

/// FNV-1a of a spec's `to_json()` and `to_toml()`.
fn spec_digests(spec: &ScenarioSpec) -> (String, String) {
    (
        fnv1a_hex(spec.to_json().bytes()),
        fnv1a_hex(spec.to_toml().bytes()),
    )
}

/// The recorded spec digests, `(key, fast_cores, json, toml)`.
const SPEC_GOLDEN: &[(&str, usize, &str, &str)] = &[
    ("FIFO", 8, "6a5e8d017f603462", "a84d29afd0875712"),
    ("FIFO", 16, "946d3a2f4324a90d", "49fc9219b626b9b1"),
    ("FIFO", 24, "ae6a479f18cd5b96", "4a08f9af8e998976"),
    ("CATS+BL", 8, "aeba42fe2bb92209", "0f3028567d22c48f"),
    ("CATS+BL", 16, "2acc1eeb7da71b3e", "00ff4a08f899d714"),
    ("CATS+BL", 24, "c075987248151ebd", "4b615945c307c793"),
    ("CATS+SA", 8, "7200ea99d74a8e9e", "b42dc542f4534fae"),
    ("CATS+SA", 16, "cafd83929088b1b5", "e9a43b1ee17e0a49"),
    ("CATS+SA", 24, "37d17bb9a146549a", "bad39d892696719a"),
    ("CATA", 8, "77668ebb0a85b40e", "a647253d9d57534d"),
    ("CATA", 16, "72202b21a8e225f9", "56b20e2a89820106"),
    ("CATA", 24, "f49a48d25e9b727c", "a719f2fc46fd8c2b"),
    ("CATA+RSU", 8, "a41f883c5b0a7a44", "1351f483c9052970"),
    ("CATA+RSU", 16, "4be3aafad1d9ff97", "b71626ac6a05354f"),
    ("CATA+RSU", 24, "5283950548027f68", "b7a01ea76496d2c4"),
    ("TurboMode", 8, "ea7f5e12ca01aae2", "9a99dfabe36f9e00"),
    ("TurboMode", 16, "f1ed0edcd90ba9eb", "c07cc1ada32b7865"),
    ("TurboMode", 24, "d9133f10d873a790", "14c47c5fd98394be"),
    ("new", 16, "21f0e23c4955e6f7", "6f199c44523710b3"),
];

#[test]
fn print_current_digests() {
    // Not an assertion: prints the digest tables for regeneration (see the
    // module docs). Kept as a test so it builds against the same engine.
    for (wname, w) in workloads() {
        for preset in PRESETS {
            println!(
                "    (\"{wname}\", \"{preset}\", \"{}\"),",
                digest(preset, &w)
            );
        }
    }
    for (key, fast, spec) in pinned_specs() {
        let (json, toml) = spec_digests(&spec);
        println!("    (\"{key}\", {fast}, \"{json}\", \"{toml}\"),");
    }
}

/// The preset specs serialize to the recorded bytes, and carry the
/// paper's settings: Table I's 32 cores, the fast-core count as given,
/// only CATS+BL and CATA set policy parameters (one each), and only
/// TurboMode halts idle cores (Nanos++ workers busy-wait).
#[test]
fn preset_specs_match_recorded_digests() {
    let specs = pinned_specs();
    assert_eq!(specs.len(), SPEC_GOLDEN.len(), "6 presets x 3 + new");
    for ((key, fast, spec), &(want_key, want_fast, json, toml)) in specs.iter().zip(SPEC_GOLDEN) {
        assert_eq!((key.as_str(), *fast), (want_key, want_fast));
        let got = spec_digests(spec);
        assert_eq!(
            (got.0.as_str(), got.1.as_str()),
            (json, toml),
            "{key} at {fast} serializes differently"
        );
        // The store's cell key is the JSON digest.
        assert_eq!(spec_digest(spec), json, "{key} at {fast}");

        assert_eq!(spec.machine.num_cores, 32, "{key}");
        assert_eq!(spec.fast_cores, *fast, "{key}");
        assert_eq!(spec.idle_to_halt.is_some(), key == "TurboMode", "{key}");
        let params = match key.as_str() {
            "CATS+BL" => Some(PolicyParams {
                alpha: Some(1.0),
                software_path: None,
            }),
            "CATA" => Some(PolicyParams {
                alpha: None,
                software_path: Some(SoftwarePathParams::paper_calibrated()),
            }),
            _ => None,
        };
        assert_eq!(spec.params, params, "{key}");
    }
}

#[test]
fn six_presets_match_recorded_digests() {
    assert_eq!(GOLDEN.len(), 12, "6 presets x 2 workloads");
    let all = workloads();
    for &(wname, preset, want) in GOLDEN {
        let (_, w) = all
            .iter()
            .find(|(n, _)| *n == wname)
            .expect("known workload");
        let got = digest(preset, w);
        assert_eq!(
            got, want,
            "{preset} on {wname} diverged from the golden digest"
        );
    }
}
