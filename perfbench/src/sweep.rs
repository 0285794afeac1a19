//! `paper-sweep`: the Fig. 4/5 grid — six presets × six generators ×
//! {8, 16, 24} fast cores at paper scale — through `Suite::run`, the path
//! `repro fig4`/`fig5` take. No memory spec, faults or stores: the
//! engine-heavy control workload.

use crate::bench::{
    check_cell, report_digest, timed, Batch, Ledger, Opts, SetupProfile, Size, Workload,
};
use crate::layers::Shape;
use crate::spans::{span, TimedExecutor};
use cata_core::exp::spec::PAPER_PRESETS;
use cata_core::exp::{ScenarioSpec, Suite, TraceMode, WorkloadSpec};
use cata_core::SimExecutor;
use cata_workloads::{Benchmark, Scale};
use std::time::Instant;

/// The paper's heterogeneous fast-core axis.
const FAST_CORES: [usize; 3] = [8, 16, 24];

pub struct PaperSweep {
    opts: Opts,
    specs: Vec<ScenarioSpec>,
    exec: TimedExecutor,
    profile: SetupProfile,
    /// One report digest per generator (its CATS+BL cell at 16 fast
    /// cores) from the first plain batch, for the determinism re-run.
    witnesses: Vec<(ScenarioSpec, String)>,
}

impl PaperSweep {
    pub fn setup(opts: &Opts) -> Self {
        let t0 = Instant::now();
        let scale = match opts.size {
            Size::Full => Scale::Paper,
            Size::Smoke => Scale::Tiny,
        };
        let fast: &[usize] = match opts.size {
            Size::Full => &FAST_CORES,
            Size::Smoke => &FAST_CORES[1..2],
        };
        let mut profile = SetupProfile::default();
        let mut specs = Vec::new();
        for bench in Benchmark::all() {
            let workload = WorkloadSpec::parsec(bench, scale, opts.seed);
            // Generation fills the per-process graph cache every cell reads.
            let (graph, ns) = timed(|| workload.build_graph_shared());
            profile.gen_tasks += graph.num_tasks() as u64;
            profile.gen_ns += ns;
            for &f in fast {
                for preset in PAPER_PRESETS {
                    let mut spec = ScenarioSpec::preset(preset, f, workload.clone())
                        .expect("paper preset resolves");
                    spec.seed = opts.seed;
                    specs.push(spec);
                }
            }
        }
        profile.seconds = t0.elapsed().as_secs_f64();
        PaperSweep {
            opts: opts.clone(),
            specs,
            exec: TimedExecutor::new(),
            profile,
            witnesses: Vec::new(),
        }
    }
}

impl Workload for PaperSweep {
    fn setup_profile(&self) -> &SetupProfile {
        &self.profile
    }

    fn preflight(&mut self, ledger: &mut Ledger) {
        crate::golden::check(&self.opts, ledger);
    }

    fn batch(&mut self, traced: bool, ledger: &mut Ledger) -> Batch {
        let specs: Vec<ScenarioSpec> = if traced {
            self.specs
                .iter()
                .map(|s| s.clone().with_trace_mode(TraceMode::Counters))
                .collect()
        } else {
            self.specs.clone()
        };
        let suite = Suite::from_specs(specs.clone()).jobs(self.opts.jobs);
        let t0 = Instant::now();
        let results = span("exp.suite.run", || {
            self.exec.adopt_parent();
            suite.run(&self.exec)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let mut batch = Batch {
            wall_s,
            sim_s: wall_s,
            cell_ms: self.exec.drain_cell_ms(),
            ..Batch::default()
        };
        for (spec, result) in specs.into_iter().zip(results) {
            ledger.op("cell", check_cell(&result));
            if let Ok(report) = result {
                batch.tasks += report.counters.tasks_completed;
                if !traced
                    && self.witnesses.len() < 6
                    && spec.name == "CATS+BL"
                    && spec.fast_cores == 16
                {
                    self.witnesses.push((spec.clone(), report_digest(&report)));
                }
                batch.cells.push((spec, report));
            }
        }
        batch
    }

    fn final_checks(&mut self, ledger: &mut Ledger) {
        // One re-run per generator must reproduce its report byte for byte.
        for (spec, want) in &self.witnesses {
            let got = SimExecutor::default()
                .run_spec(spec, cata_core::exp::default_registries())
                .map(|(r, _)| report_digest(&r));
            ledger.op(
                "rerun",
                match got {
                    Ok(digest) if digest == *want => Ok(()),
                    Ok(_) => Err(format!("{} re-run diverged", spec.workload.label())),
                    Err(e) => Err(e.to_string()),
                },
            );
        }
    }

    fn shape(&self) -> Shape {
        Shape::closed(&self.specs)
    }
}
