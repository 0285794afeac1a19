//! The 12 golden preset digests, as a preflight output check: the same
//! formula and recorded values as the workspace's golden-digest test, so a
//! benchmark run on a behaviour-changing build fails its checks instead of
//! timing different work.

use crate::bench::{Ledger, Opts};
use cata_core::exp::{ScenarioSpec, WorkloadSpec};
use cata_core::SimExecutor;
use cata_workloads::{Benchmark, Scale};

const SEED: u64 = 42;

/// `(workload, preset, digest)` as recorded by the golden-digest test.
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

fn digest(preset: &str, workload: &WorkloadSpec) -> Result<String, String> {
    let spec = ScenarioSpec::preset(preset, 16, workload.clone()).map_err(|e| e.to_string())?;
    let (r, _) = SimExecutor::default()
        .run_spec(&spec, cata_core::exp::default_registries())
        .map_err(|e| e.to_string())?;
    let c = &r.counters;
    Ok(format!(
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
    ))
}

/// Runs the 12 golden cells, one ledger operation each. `--break-golden`
/// corrupts one expected digest to prove a failed check counts.
pub fn check(opts: &Opts, ledger: &mut Ledger) {
    for (i, &(wname, preset, want)) in GOLDEN.iter().enumerate() {
        let bench = match wname {
            "dedup-tiny" => Benchmark::Dedup,
            _ => Benchmark::Fluidanimate,
        };
        let workload = WorkloadSpec::parsec(bench, Scale::Tiny, SEED);
        let want = if i == 0 && opts.break_golden {
            "broken on purpose".to_string()
        } else {
            want.to_string()
        };
        ledger.op(
            "golden",
            match digest(preset, &workload) {
                Ok(got) if got == want => Ok(()),
                Ok(got) => Err(format!("{preset} on {wname}: {got}")),
                Err(e) => Err(e),
            },
        );
    }
}
