//! The six PARSECSs-shaped benchmark generators.
//!
//! Parameters (task counts, durations, type mixes, dependence shapes,
//! criticality annotations, blocking) are set from the paper's qualitative
//! description of each application (§IV–V) and from the published structure
//! of PARSECSs \[33\]; the mapping is documented per generator. All
//! durations are quoted at the 1 GHz slow level.

use crate::distrib::{lognormal_us, profile_us};
use crate::scale::Scale;
use cata_sim::time::SimDuration;
use cata_tdg::{TaskGraph, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The six applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// Fork-join; very many uniform small tasks.
    Blackscholes,
    /// Fork-join; coarse tasks with high duration variance.
    Swaptions,
    /// Per-frame 3×3 stencil; 8 task types; up to 9 parents per task.
    Fluidanimate,
    /// Pipeline; per-type durations spread roughly 10×.
    Bodytrack,
    /// Pipeline; serial I/O chain on the critical path.
    Dedup,
    /// Six-stage pipeline with an I/O output stage.
    Ferret,
}

impl Benchmark {
    /// All six, in the paper's figure order.
    pub fn all() -> [Benchmark; 6] {
        [
            Benchmark::Blackscholes,
            Benchmark::Swaptions,
            Benchmark::Fluidanimate,
            Benchmark::Bodytrack,
            Benchmark::Dedup,
            Benchmark::Ferret,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Blackscholes => "Blackscholes",
            Benchmark::Swaptions => "Swaptions",
            Benchmark::Fluidanimate => "Fluidanimate",
            Benchmark::Bodytrack => "Bodytrack",
            Benchmark::Dedup => "Dedup",
            Benchmark::Ferret => "Ferret",
        }
    }

    /// Parallelization family (paper §IV).
    pub fn family(self) -> &'static str {
        match self {
            Benchmark::Blackscholes | Benchmark::Swaptions => "fork-join",
            Benchmark::Fluidanimate => "stencil",
            Benchmark::Bodytrack | Benchmark::Dedup | Benchmark::Ferret => "pipeline",
        }
    }
}

/// Generates the TDG for `bench` at `scale` with a deterministic `seed`.
/// Generated graphs are kept (sweeps cache them), so they come back
/// shrunk to fit.
pub fn generate(bench: Benchmark, scale: Scale, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed ^ ((bench as u64) << 32));
    let mut g = match bench {
        Benchmark::Blackscholes => blackscholes(scale, &mut rng),
        Benchmark::Swaptions => swaptions(scale, &mut rng),
        Benchmark::Fluidanimate => fluidanimate(scale, &mut rng),
        Benchmark::Bodytrack => bodytrack(scale, &mut rng),
        Benchmark::Dedup => dedup(scale, &mut rng),
        Benchmark::Ferret => ferret(scale, &mut rng),
    };
    g.shrink_to_fit();
    g
}

/// Blackscholes: `NUM_RUNS` iterations over a big option array, each split
/// into many equal chunks — fork-join waves of numerous, uniform, fairly
/// short tasks separated by barriers. All tasks are one type with similar
/// criticality (paper: "fork-join applications present tasks with very
/// similar criticality levels"), so nothing is annotated critical and CATS
/// degenerates to FIFO. The sheer reconfiguration *rate* at wave boundaries
/// is what exposes the software path's serialization at 24 fast cores.
pub fn blackscholes(scale: Scale, rng: &mut StdRng) -> TaskGraph {
    let mut g = TaskGraph::new();
    let work = g.add_type("bs_chunk", 0);
    let barrier = g.add_type("bs_barrier", 0);

    let waves = 2 * scale.factor();
    let width = 96;
    let mean_us = 700.0;
    let cv = 0.06;
    let mem_frac = 0.05;

    let mut prev: Option<TaskId> = None;
    for _ in 0..waves {
        let deps: Vec<TaskId> = prev.into_iter().collect();
        let wave: Vec<TaskId> = (0..width)
            .map(|_| {
                let d = lognormal_us(rng, mean_us, cv);
                g.add_task(work, profile_us(d, mem_frac), &deps)
            })
            .collect();
        prev = Some(g.add_task(barrier, profile_us(5.0, 0.0), &wave));
    }
    g
}

/// Swaptions: each simulation prices a batch of swaptions with Monte-Carlo
/// trials; tasks are coarse and their durations vary a lot (different
/// maturities/trials), producing load imbalance at every barrier — the
/// showcase for CATA's budget re-assignment to stragglers. A small fraction
/// of tasks briefly blocks in the kernel (page faults / allocation locks,
/// the §V-D observation).
pub fn swaptions(scale: Scale, rng: &mut StdRng) -> TaskGraph {
    let mut g = TaskGraph::new();
    let work = g.add_type("swaption", 0);
    let barrier = g.add_type("sw_barrier", 0);

    let waves = scale.factor();
    let width = 44;
    let mean_us = 2_200.0;
    let cv = 0.55;
    let mem_frac = 0.10;

    let mut prev: Option<TaskId> = None;
    for _ in 0..waves {
        let deps: Vec<TaskId> = prev.into_iter().collect();
        let wave: Vec<TaskId> = (0..width)
            .map(|_| {
                let d = lognormal_us(rng, mean_us, cv);
                let mut p = profile_us(d, mem_frac);
                if rng.gen_bool(0.12) {
                    p = p.with_block(rng.gen_range(0.2..0.8), SimDuration::from_us(60));
                }
                g.add_task(work, p, &deps)
            })
            .collect();
        prev = Some(g.add_task(barrier, profile_us(5.0, 0.0), &wave));
    }
    g
}

/// Fluidanimate: frames of a particle-fluid simulation over a spatial block
/// grid; each frame runs phases (the paper counts 8 task types) where a
/// block's task reads its 3×3 neighbourhood from the previous phase — up to
/// 9 parents per task, the densest TDG of the suite. The density makes the
/// bottom-level ancestor walk expensive (the CATS+BL pathology) and the
/// per-phase dependence fronts make reconfigurations bursty (the
/// software-CATA lock pathology). Four of the eight phase types are
/// annotated critical (the paper reports an average of four annotations).
pub fn fluidanimate(scale: Scale, rng: &mut StdRng) -> TaskGraph {
    let mut g = TaskGraph::new();
    let phase_types: Vec<_> = (0..8)
        .map(|p| {
            let crit = u8::from(p % 2 == 0);
            g.add_type(format!("fa_phase{p}"), crit)
        })
        .collect();

    let frames = scale.factor();
    let grid = 5usize; // 5×5 = 25 blocks per phase front
                       // The eight phases have similar mean costs (paper §V-A: stencil tasks
                       // "present tasks with very similar criticality levels", so criticality
                       // scheduling alone cannot win); the per-task variance is what CATA's
                       // straggler acceleration exploits.
    let mean_us = [260.0, 230.0, 300.0, 210.0, 280.0, 240.0, 290.0, 220.0];
    let cv = 0.45;
    let mem_frac = 0.30;

    let idx = |x: usize, y: usize| y * grid + x;
    // Task of each block in the most recent completed phase front.
    let mut prev: Vec<Option<TaskId>> = vec![None; grid * grid];
    for _ in 0..frames {
        for (p, &ty) in phase_types.iter().enumerate() {
            let mut front: Vec<Option<TaskId>> = vec![None; grid * grid];
            for y in 0..grid {
                for x in 0..grid {
                    let mut deps = Vec::with_capacity(9);
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            let nx = x as i64 + dx;
                            let ny = y as i64 + dy;
                            if nx < 0 || ny < 0 || nx >= grid as i64 || ny >= grid as i64 {
                                continue;
                            }
                            if let Some(t) = prev[idx(nx as usize, ny as usize)] {
                                deps.push(t);
                            }
                        }
                    }
                    let d = lognormal_us(rng, mean_us[p], cv);
                    front[idx(x, y)] = Some(g.add_task(ty, profile_us(d, mem_frac), &deps));
                }
            }
            prev = front;
        }
    }
    g
}

/// A generic per-frame pipeline builder shared by the three pipeline
/// applications. Stage `s` of frame `f` depends on stage `s−1` of frame `f`
/// and on stage `s` of frame `f−1` (stage capacity one — classic pipeline
/// overlap). Parallel stages fan out into `width` tasks joined by a
/// zero-cost stage barrier; serial stages are a single task.
struct StageSpec {
    name: &'static str,
    critical: bool,
    width: usize,
    mean_us: f64,
    cv: f64,
    mem_frac: f64,
    /// Kernel-blocking time appended mid-task (I/O stages), in µs.
    block_us: Option<f64>,
    /// For serial stages: number of chained sub-tasks per frame (deepens the
    /// hop-count path without adding work — the structure that fools
    /// bottom-level estimation, §V-A).
    chain_len: usize,
}

fn pipeline(g: &mut TaskGraph, stages: &[StageSpec], frames: usize, rng: &mut StdRng) {
    let types: Vec<_> = stages
        .iter()
        .map(|s| g.add_type(s.name, u8::from(s.critical)))
        .collect();
    let join_ty = g.add_type("stage_join", 0);

    // history[s] holds the completion tasks of recent frames of stage s.
    // Serial stages (width 1) have capacity one — their tasks chain strictly
    // (ordered file writes); parallel stages have capacity two, the standard
    // double-buffered pipeline overlap that keeps the queues full while a
    // straggler of the previous frame drains.
    let mut history: Vec<std::collections::VecDeque<TaskId>> =
        vec![std::collections::VecDeque::new(); stages.len()];
    for _ in 0..frames {
        let mut prev_stage_done: Option<TaskId> = None;
        for (s, spec) in stages.iter().enumerate() {
            let capacity = if spec.width == 1 { 1 } else { 2 };
            let mut deps: Vec<TaskId> = Vec::new();
            if let Some(p) = prev_stage_done {
                deps.push(p);
            }
            if history[s].len() >= capacity {
                deps.push(history[s][history[s].len() - capacity]);
            }
            let done = if spec.width == 1 {
                // A serial stage is a chain of `chain_len` sub-tasks; the
                // whole chain must finish before the next stage of this
                // frame (and before this stage of the next frame).
                let mut last = None;
                for _ in 0..spec.chain_len.max(1) {
                    let d = lognormal_us(rng, spec.mean_us, spec.cv);
                    let mut prof = profile_us(d, spec.mem_frac);
                    if let Some(b) = spec.block_us {
                        prof = prof.with_block(0.5, SimDuration::from_us(b as u64));
                    }
                    let mut link_deps = deps.clone();
                    if let Some(l) = last {
                        link_deps.push(l);
                    }
                    last = Some(g.add_task(types[s], prof, &link_deps));
                }
                last.expect("chain_len >= 1")
            } else {
                let tasks: Vec<TaskId> = (0..spec.width)
                    .map(|_| {
                        let d = lognormal_us(rng, spec.mean_us, spec.cv);
                        let mut prof = profile_us(d, spec.mem_frac);
                        if let Some(b) = spec.block_us {
                            if rng.gen_bool(0.3) {
                                prof = prof.with_block(
                                    rng.gen_range(0.3..0.7),
                                    SimDuration::from_us(b as u64),
                                );
                            }
                        }
                        g.add_task(types[s], prof, &deps)
                    })
                    .collect();
                g.add_task(join_ty, profile_us(2.0, 0.0), &tasks)
            };
            history[s].push_back(done);
            if history[s].len() > 2 {
                history[s].pop_front();
            }
            prev_stage_done = Some(done);
        }
    }
}

/// Bodytrack: a per-frame pipeline whose stages differ in duration by about
/// an order of magnitude (paper: "task duration can change up to an order of
/// magnitude among task types"). The heavy stages are annotated critical;
/// bottom-level cannot see durations and ranks all stages by path position,
/// which is why CATS+SA beats CATS+BL here. Frame boundaries synchronize
/// many cores at once — the lock-contention pathology for software CATA.
pub fn bodytrack(scale: Scale, rng: &mut StdRng) -> TaskGraph {
    let mut g = TaskGraph::new();
    let stages = [
        StageSpec {
            // Edge maps are memory-bound: running them on a fast core buys
            // little — exactly the tasks CATS+BL wrongly prioritizes (they
            // sit early on the hop-count-longest path).
            name: "bt_edge",
            critical: false,
            width: 24,
            mean_us: 180.0,
            cv: 0.2,
            mem_frac: 0.7,
            block_us: None,
            chain_len: 1,
        },
        StageSpec {
            // Particle-weight evaluation dominates the frame's *volume* but
            // is wide; the paper's profiling-based annotations target the
            // serializing chain instead.
            name: "bt_weights",
            critical: false,
            width: 40,
            mean_us: 950.0,
            cv: 0.3,
            mem_frac: 0.05,
            block_us: None,
            chain_len: 1,
        },
        StageSpec {
            name: "bt_resample",
            critical: false,
            width: 16,
            mean_us: 110.0,
            cv: 0.2,
            mem_frac: 0.25,
            block_us: None,
            chain_len: 1,
        },
        StageSpec {
            // The serializing per-frame aggregation: long, compute bound,
            // and what profiling identifies as the critical path — the SA
            // annotation target (`criticality(1)`).
            name: "bt_aggregate",
            critical: true,
            width: 1,
            mean_us: 1_500.0,
            cv: 0.15,
            mem_frac: 0.15,
            block_us: None,
            chain_len: 1,
        },
        StageSpec {
            // Output: a chain of four cheap I/O writes per frame. Hop-wise
            // this is the deepest path, so bottom-level chases it; duration-
            // wise it is irrelevant — the §V-A reason CATS+BL trails CATS+SA
            // on Bodytrack.
            name: "bt_output",
            critical: false,
            width: 1,
            mean_us: 90.0,
            cv: 0.1,
            mem_frac: 0.3,
            block_us: Some(40.0),
            chain_len: 4,
        },
    ];
    pipeline(&mut g, &stages, 4 * scale.factor(), rng);
    g
}

/// Dedup: fragment → compress → write pipeline. The writes form a serial,
/// partially I/O-blocked chain on the application's critical path (paper:
/// "compute-intensive tasks followed by I/O-intensive tasks to write results
/// that are in the critical path"), annotated critical; scheduling them on
/// fast cores is where CATS's biggest win (≈20 %) comes from.
pub fn dedup(scale: Scale, rng: &mut StdRng) -> TaskGraph {
    let mut g = TaskGraph::new();
    let stages = [
        StageSpec {
            name: "dd_fragment",
            critical: true,
            width: 1,
            mean_us: 260.0,
            cv: 0.2,
            mem_frac: 0.4,
            block_us: None,
            chain_len: 1,
        },
        StageSpec {
            name: "dd_compress",
            critical: false,
            width: 40,
            mean_us: 400.0,
            cv: 0.20,
            mem_frac: 0.15,
            block_us: Some(40.0),
            chain_len: 1,
        },
        StageSpec {
            name: "dd_write",
            critical: true,
            width: 1,
            mean_us: 650.0,
            cv: 0.15,
            mem_frac: 0.25,
            block_us: Some(200.0),
            chain_len: 1,
        },
    ];
    pipeline(&mut g, &stages, 12 * scale.factor(), rng);
    g
}

/// Ferret: the six-stage similarity-search pipeline (segment, extract,
/// vector, rank, out), with a heavy `rank` stage and a serial I/O output
/// stage — between Dedup and Bodytrack in behaviour.
pub fn ferret(scale: Scale, rng: &mut StdRng) -> TaskGraph {
    let mut g = TaskGraph::new();
    let stages = [
        StageSpec {
            name: "fr_segment",
            critical: false,
            width: 1,
            mean_us: 140.0,
            cv: 0.15,
            mem_frac: 0.3,
            block_us: None,
            chain_len: 1,
        },
        StageSpec {
            name: "fr_extract",
            critical: false,
            width: 12,
            mean_us: 380.0,
            cv: 0.3,
            mem_frac: 0.25,
            block_us: None,
            chain_len: 1,
        },
        StageSpec {
            name: "fr_vector",
            critical: false,
            width: 12,
            mean_us: 460.0,
            cv: 0.3,
            mem_frac: 0.2,
            block_us: None,
            chain_len: 1,
        },
        StageSpec {
            name: "fr_rank",
            critical: true,
            width: 16,
            mean_us: 880.0,
            cv: 0.35,
            mem_frac: 0.2,
            block_us: None,
            chain_len: 1,
        },
        StageSpec {
            name: "fr_out",
            critical: true,
            width: 1,
            mean_us: 420.0,
            cv: 0.15,
            mem_frac: 0.3,
            block_us: Some(180.0),
            chain_len: 1,
        },
    ];
    pipeline(&mut g, &stages, 10 * scale.factor(), rng);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_sim::time::Frequency;

    #[test]
    fn all_benchmarks_generate_valid_graphs() {
        for b in Benchmark::all() {
            let g = generate(b, Scale::Tiny, 1);
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert!(g.num_tasks() > 10, "{} too small", b.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for b in Benchmark::all() {
            let a = generate(b, Scale::Tiny, 7);
            let c = generate(b, Scale::Tiny, 7);
            assert_eq!(a, c, "{} not deterministic", b.name());
        }
    }

    #[test]
    fn scale_grows_task_counts() {
        for b in Benchmark::all() {
            let t = generate(b, Scale::Tiny, 1).num_tasks();
            let s = generate(b, Scale::Small, 1).num_tasks();
            assert!(s > 2 * t, "{}: {t} -> {s}", b.name());
        }
    }

    #[test]
    fn fluidanimate_has_dense_parents_and_eight_types() {
        let g = generate(Benchmark::Fluidanimate, Scale::Tiny, 1);
        let stats = g.stats();
        assert_eq!(stats.max_preds, 9, "stencil must reach 9 parents");
        assert_eq!(g.num_types(), 8);
        // Four of eight types annotated critical (paper: four annotations).
        let crit_types = (0..8)
            .filter(|&i| g.task_type(cata_tdg::TypeId(i)).criticality > 0)
            .count();
        assert_eq!(crit_types, 4);
    }

    #[test]
    fn fork_join_apps_have_no_critical_annotations() {
        for b in [Benchmark::Blackscholes, Benchmark::Swaptions] {
            let g = generate(b, Scale::Tiny, 1);
            let any_critical = g.tasks().any(|t| g.type_of(t.id).criticality > 0);
            assert!(!any_critical, "{} should be unannotated", b.name());
        }
    }

    #[test]
    fn pipelines_have_critical_types_and_blocking() {
        for b in [Benchmark::Bodytrack, Benchmark::Dedup, Benchmark::Ferret] {
            let g = generate(b, Scale::Tiny, 1);
            let any_critical = g.tasks().any(|t| g.type_of(t.id).criticality > 0);
            assert!(any_critical, "{} needs critical types", b.name());
            let any_block = g.tasks().any(|t| !t.profile.blocks.is_empty());
            assert!(any_block, "{} needs I/O blocking", b.name());
        }
    }

    #[test]
    fn bodytrack_type_durations_spread_an_order_of_magnitude() {
        let g = generate(Benchmark::Bodytrack, Scale::Tiny, 1);
        let f = Frequency::from_ghz(1);
        // Mean duration per type (ignoring joins/barriers with <20 µs).
        let mut by_type: std::collections::HashMap<u32, (u64, u64)> = Default::default();
        for t in g.tasks() {
            let d = t.profile.duration_at(f).as_us();
            let e = by_type.entry(t.ty.0).or_insert((0, 0));
            e.0 += d;
            e.1 += 1;
        }
        let means: Vec<u64> = by_type
            .values()
            .map(|&(sum, n)| sum / n.max(1))
            .filter(|&m| m > 20)
            .collect();
        let lo = *means.iter().min().unwrap();
        let hi = *means.iter().max().unwrap();
        assert!(hi >= 8 * lo, "spread {lo}..{hi} too narrow");
    }

    #[test]
    fn dedup_write_chain_is_serial_and_blocking() {
        let g = generate(Benchmark::Dedup, Scale::Tiny, 1);
        let writes: Vec<_> = g
            .tasks()
            .filter(|t| g.task_type(t.ty).name == "dd_write")
            .collect();
        assert!(writes.len() >= 12);
        for w in &writes {
            assert!(!w.profile.blocks.is_empty(), "write must block on I/O");
        }
        // Consecutive writes are chained (each depends on the previous).
        for pair in writes.windows(2) {
            assert!(
                pair[1].preds().contains(&pair[0].id),
                "write chain broken between {} and {}",
                pair[0].id,
                pair[1].id
            );
        }
    }

    #[test]
    fn swaptions_has_high_variance_blackscholes_low() {
        let f = Frequency::from_ghz(1);
        let cv = |b: Benchmark| {
            let g = generate(b, Scale::Small, 3);
            let ds: Vec<f64> = g
                .tasks()
                .filter(|t| {
                    g.type_of(t.id).name != "bs_barrier" && g.type_of(t.id).name != "sw_barrier"
                })
                .map(|t| t.profile.duration_at(f).as_us() as f64)
                .collect();
            let m = ds.iter().sum::<f64>() / ds.len() as f64;
            let v = ds.iter().map(|d| (d - m) * (d - m)).sum::<f64>() / ds.len() as f64;
            v.sqrt() / m
        };
        assert!(cv(Benchmark::Blackscholes) < 0.15);
        assert!(cv(Benchmark::Swaptions) > 0.4);
    }
}
