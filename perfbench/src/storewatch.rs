//! `replay-store-watch`: export the six generators as `.tdg.json` files
//! (as `repro export` does), sweep those file workloads × six presets ×
//! {uncontended, 2-slot memory under fifo/crit-first/round-robin, faulted}
//! in two shards through `Suite::run_with_store_observed` with progress
//! sidecars, merge the shards with `ResultsStore::merge_files`, and run a
//! headless watch that feeds the store and progress lines to a `DashState`
//! in chunks, rendering one frame per chunk. Serde-heavy and engine-light.

use crate::bench::{
    check_cell, report_digest, timed, Batch, Ledger, Opts, SetupProfile, Size, Workload,
};
use crate::layers::Shape;
use crate::spans::{span, TimedExecutor};
use cata_core::exp::spec::PAPER_PRESETS;
use cata_core::exp::{ProgressWriter, ResultsStore, ScenarioSpec, Suite, TraceMode, WorkloadSpec};
use cata_core::{FaultSpec, MemorySpec, SimExecutor};
use cata_obs::DashState;
use cata_workloads::{Benchmark, Scale};
use std::path::PathBuf;
use std::time::Instant;

/// Memory slots of the contended variants: 2 slots for 32 cores.
pub const SLOTS: u64 = 2;
pub const ARBITRATIONS: [&str; 3] = ["fifo", "crit-first", "round-robin"];
/// Grid cells per workload: each preset uncontended, under every
/// arbitration, and faulted.
const CELLS_PER_WORKLOAD: usize = PAPER_PRESETS.len() * (ARBITRATIONS.len() + 2);
/// Lines the headless watch ingests per refresh.
const CHUNK_LINES: usize = 24;
/// Frame width of the headless watch.
const FRAME_W: usize = 160;

pub struct ReplayStoreWatch {
    opts: Opts,
    /// `(generator, file workload)` per benchmark.
    workloads: Vec<(WorkloadSpec, WorkloadSpec)>,
    specs: Vec<ScenarioSpec>,
    exec: TimedExecutor,
    profile: SetupProfile,
    /// Report digest of each generator's uncontended FIFO cell, from the
    /// first plain batch.
    witnesses: Vec<(usize, String)>,
    batch_no: u64,
}

/// The grid over `workloads`: every preset uncontended, under each
/// arbitration with 2 memory slots, and with faults.
fn grid(workloads: &[WorkloadSpec], seed: u64) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for w in workloads {
        for preset in PAPER_PRESETS {
            let mut base =
                ScenarioSpec::preset(preset, 16, w.clone()).expect("paper preset resolves");
            base.seed = seed;
            specs.push(base.clone());
            for arb in ARBITRATIONS {
                let mut s = base.clone().with_memory(MemorySpec {
                    slots: SLOTS,
                    arbitration: arb.into(),
                });
                s.name = format!("{preset}+mem{SLOTS}/{arb}");
                specs.push(s);
            }
            let mut s = base.with_faults(FaultSpec {
                task_fault_p: 0.05,
                reconfig_fail_p: 0.05,
                ..FaultSpec::default()
            });
            s.name = format!("{preset}+faults");
            specs.push(s);
        }
    }
    specs
}

impl ReplayStoreWatch {
    pub fn setup(opts: &Opts) -> Self {
        let t0 = Instant::now();
        let scale = match opts.size {
            Size::Full => Scale::Small,
            Size::Smoke => Scale::Tiny,
        };
        let benches: Vec<Benchmark> = match opts.size {
            Size::Full => Benchmark::all().to_vec(),
            Size::Smoke => vec![Benchmark::Dedup],
        };
        let mut profile = SetupProfile::default();
        let exports = opts.dir.join("exports");
        std::fs::create_dir_all(&exports).expect("export dir creates");
        let mut workloads = Vec::new();
        for bench in benches {
            let generator = WorkloadSpec::parsec(bench, scale, opts.seed);
            let ((graph, tdg), ns) = timed(|| generator.capture().expect("generator captures"));
            profile.gen_tasks += graph.num_tasks() as u64;
            profile.gen_ns += ns;
            let path = exports.join(format!("{}.tdg.json", tdg.name));
            let text = tdg.to_json_pretty();
            profile.tdg_bytes += text.len() as u64;
            std::fs::write(&path, text).expect("TDG export writes");
            let path = path.to_str().expect("utf-8 path").to_string();
            // Load: parse + pin, then the graph the cells will share.
            let file = WorkloadSpec::tdg_file_pinned(path).expect("TDG file loads");
            file.build_graph_shared();
            workloads.push((generator, file));
        }
        let files: Vec<WorkloadSpec> = workloads.iter().map(|(_, f)| f.clone()).collect();
        let specs = grid(&files, opts.seed);
        profile.seconds = t0.elapsed().as_secs_f64();
        ReplayStoreWatch {
            opts: opts.clone(),
            workloads,
            specs,
            exec: TimedExecutor::new(),
            profile,
            witnesses: Vec::new(),
            batch_no: 0,
        }
    }

    /// The exported `.tdg.json` files (inputs of the TDG layer probe).
    fn exports(&self) -> Vec<PathBuf> {
        self.workloads
            .iter()
            .filter_map(|(_, f)| match f {
                WorkloadSpec::File { path, .. } => Some(PathBuf::from(path)),
                _ => None,
            })
            .collect()
    }
}

/// Lines of `path`, or none if it is missing.
fn lines(path: &PathBuf) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .map(str::to_string)
        .collect()
}

/// Feeds `(is_store, line)` pairs to a state.
fn ingest(state: &mut DashState, lines: &[(bool, String)]) {
    for (is_store, line) in lines {
        if *is_store {
            state.ingest_store_line(line);
        } else {
            state.ingest_progress_line(line);
        }
    }
}

/// Renders a frame tall enough for every cell and converts it to text.
fn frame_text(state: &DashState) -> String {
    let h = cata_obs::required_height(state, FRAME_W);
    let frame = span("obs.dash.render", || cata_obs::render(state, FRAME_W, h));
    span("obs.frame.to_text", || frame.to_text())
}

impl Workload for ReplayStoreWatch {
    fn setup_profile(&self) -> &SetupProfile {
        &self.profile
    }

    fn batch(&mut self, traced: bool, ledger: &mut Ledger) -> Batch {
        let t_batch = Instant::now();
        self.batch_no += 1;
        let dir = self.opts.dir.join(format!("batch-{}", self.batch_no));
        std::fs::create_dir_all(&dir).expect("batch dir creates");
        let specs: Vec<ScenarioSpec> = if traced {
            self.specs
                .iter()
                .map(|s| s.clone().with_trace_mode(TraceMode::Counters))
                .collect()
        } else {
            self.specs.clone()
        };
        let suite = Suite::from_specs(specs.clone()).jobs(self.opts.jobs);
        let mut batch = Batch::default();
        let mut stores = Vec::new();
        let mut feeds = Vec::new();

        // Sweep, one shard after the other, each into its own store and
        // progress sidecar.
        for shard in 1..=2u64 {
            let store_path = dir.join(format!("shard{shard}.jsonl"));
            let progress_path = dir.join(format!("shard{shard}.progress.jsonl"));
            let store = ResultsStore::open(&store_path).expect("store opens");
            let progress = ProgressWriter::open(&progress_path, shard).expect("progress opens");
            let part = suite
                .clone()
                .shard(shard as usize, 2)
                .expect("shard is valid");
            let positions: Vec<usize> = part.cell_indices().iter().map(|&i| i as usize).collect();
            let t0 = Instant::now();
            let outcome = span("exp.suite.run_with_store_observed", || {
                self.exec.adopt_parent();
                part.run_with_store_observed(&self.exec, &store, Some(&progress))
            });
            batch.sim_s += t0.elapsed().as_secs_f64();
            for (pos, result) in positions.into_iter().zip(outcome.results) {
                ledger.op("cell", check_cell(&result));
                if let Ok(report) = result {
                    batch.tasks += report.counters.tasks_completed;
                    batch.cells.push((specs[pos].clone(), report));
                }
            }
            stores.push(store_path);
            feeds.push(progress_path);
        }
        batch.cell_ms = self.exec.drain_cell_ms();

        // Merge.
        let t0 = Instant::now();
        let merged = span("exp.store.merge_files", || {
            ResultsStore::merge_files(&stores)
        });
        batch.merge_s = Some(t0.elapsed().as_secs_f64());
        let want = self.specs.len();
        ledger.op(
            "merge",
            match merged {
                Ok(m) if m.records.len() == want && m.distinct_grids == 1 => Ok(()),
                Ok(m) => Err(format!(
                    "{} records over {} grids, want {want} over 1",
                    m.records.len(),
                    m.distinct_grids
                )),
                Err(e) => Err(e.to_string()),
            },
        );

        // Headless watch: every line as a live tail sees them — shard
        // stores and sidecars interleaved chunk by chunk.
        let files: Vec<(bool, Vec<String>)> = stores
            .iter()
            .map(|p| (true, lines(p)))
            .chain(feeds.iter().map(|p| (false, lines(p))))
            .collect();
        batch.progress_lines = files
            .iter()
            .filter(|(s, _)| !s)
            .map(|(_, l)| l.len() as u64)
            .sum();
        let mut chunks: Vec<Vec<(bool, String)>> = Vec::new();
        let longest = files.iter().map(|(_, l)| l.len()).max().unwrap_or(0);
        let per_file = CHUNK_LINES / files.len().max(1);
        for start in (0..longest).step_by(per_file.max(1)) {
            let chunk: Vec<(bool, String)> = files
                .iter()
                .flat_map(|(is_store, l)| {
                    l.iter()
                        .skip(start)
                        .take(per_file.max(1))
                        .map(move |line| (*is_store, line.clone()))
                })
                .collect();
            chunks.push(chunk);
        }
        let all: Vec<(bool, String)> = chunks.iter().flatten().cloned().collect();

        let t0 = Instant::now();
        let mut state = DashState::new();
        span("obs.state.ingest", || ingest(&mut state, &all));
        let text = frame_text(&state);
        batch.first_frame_s = Some(t0.elapsed().as_secs_f64());
        std::hint::black_box(&text);

        let mut state = DashState::new();
        let mut last = String::new();
        for chunk in &chunks {
            let t0 = Instant::now();
            span("obs.state.ingest", || ingest(&mut state, chunk));
            last = frame_text(&state);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            batch.frame_ms.push(ms);
            ledger.op(
                "frame",
                if last.is_empty() {
                    Err("empty frame".into())
                } else {
                    Ok(())
                },
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        batch.wall_s = t_batch.elapsed().as_secs_f64();

        let missing = batch
            .cells
            .iter()
            .filter(|(spec, r)| {
                !last.contains(&format!(
                    "{}@{}/f{}/",
                    spec.name, r.workload, spec.fast_cores
                ))
            })
            .count();
        ledger.op(
            "final-frame",
            if !state.complete() {
                Err(format!(
                    "grid at {}/{}",
                    state.grid_done(),
                    state.grid_total()
                ))
            } else if missing > 0 {
                Err(format!("{missing} cell keys missing from the frame"))
            } else if last.contains("NaN") || last.contains("inf") {
                Err("frame shows NaN or inf".into())
            } else {
                Ok(())
            },
        );
        if !traced && self.witnesses.is_empty() {
            // The uncontended FIFO cell of each generator (the grid holds
            // `CELLS_PER_WORKLOAD` cells per workload, that one first).
            for i in 0..self.workloads.len() {
                let first = &specs[i * CELLS_PER_WORKLOAD];
                if let Some((_, r)) = batch.cells.iter().find(|(s, _)| s == first) {
                    self.witnesses.push((i, report_digest(r)));
                }
            }
        }
        batch
    }

    fn final_checks(&mut self, ledger: &mut Ledger) {
        // A TDG replay is byte-identical to the generator run at the same
        // seed.
        for (i, want) in &self.witnesses {
            let (generator, _) = &self.workloads[*i];
            let mut spec = self.specs[i * CELLS_PER_WORKLOAD].clone();
            spec.workload = generator.clone();
            let got = SimExecutor::default()
                .run_spec(&spec, cata_core::exp::default_registries())
                .map(|(r, _)| report_digest(&r));
            ledger.op(
                "tdg-replay-identity",
                match got {
                    Ok(digest) if digest == *want => Ok(()),
                    Ok(_) => Err(format!(
                        "{} replay differs from its generator",
                        generator.label()
                    )),
                    Err(e) => Err(e.to_string()),
                },
            );
        }
    }

    fn shape(&self) -> Shape {
        Shape::closed(&self.specs).with_tdg_files(self.exports())
    }
}
