//! Property tests for the task-graph substrate.

use cata_sim::progress::ExecProfile;
use cata_sim::time::Frequency;
use cata_tdg::criticality::{BottomLevelEstimator, CriticalityEstimator};
use cata_tdg::deps::{AccessMode, DepTracker, RegionId};
use cata_tdg::{TaskGraph, TaskId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_graph(n: usize, p: f64, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TaskGraph::new();
    let types = [g.add_type("a", 0), g.add_type("b", 1), g.add_type("c", 2)];
    for i in 0..n {
        let mut deps = Vec::new();
        for j in 0..i {
            if rng.gen_bool(p) {
                deps.push(TaskId(j as u32));
            }
        }
        let ty = types[rng.gen_range(0..3)];
        let cycles = rng.gen_range(1..1_000_000u64);
        g.add_task(ty, ExecProfile::new(cycles, 0), &deps);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants hold for arbitrary construction sequences.
    #[test]
    fn graphs_validate(n in 0usize..60, p in 0.0f64..0.5, seed in any::<u64>()) {
        let g = random_graph(n, p, seed);
        prop_assert!(g.validate().is_ok(), "{:?}", g.validate());
        // Edge symmetry implies the edge count matches from both sides.
        let via_succs: usize = g.task_ids().map(|t| g.succs(t).len()).sum();
        prop_assert_eq!(g.num_edges(), via_succs);
    }

    /// The critical path is between the longest single task and the total
    /// work, and never lengthens at a higher frequency.
    #[test]
    fn critical_path_bounds(n in 1usize..60, p in 0.0f64..0.5, seed in any::<u64>()) {
        let g = random_graph(n, p, seed);
        let f1 = Frequency::from_ghz(1);
        let f2 = Frequency::from_ghz(2);
        let cp1 = g.critical_path_at(f1);
        let cp2 = g.critical_path_at(f2);
        prop_assert!(cp2 <= cp1);
        prop_assert!(cp1 <= g.total_work_at(f1));
        let longest_task = g
            .tasks()
            .map(|t| t.profile.duration_at(f1))
            .max()
            .unwrap();
        prop_assert!(cp1 >= longest_task);
    }

    /// Graph depth (hops) is consistent with the unweighted critical path:
    /// a graph of depth d has a dependency chain of exactly d tasks.
    #[test]
    fn stats_depth_matches_chain(n in 1usize..50, p in 0.0f64..0.5, seed in any::<u64>()) {
        let g = random_graph(n, p, seed);
        let depth = g.stats().depth as usize;
        // Recompute by longest-path DP over preds.
        let mut d = vec![1u32; g.num_tasks()];
        let mut best = 0;
        for t in g.task_ids() {
            for &pd in g.preds(t) {
                d[t.index()] = d[t.index()].max(d[pd.index()] + 1);
            }
            best = best.max(d[t.index()]);
        }
        prop_assert_eq!(depth, best as usize);
    }

    /// Region-derived graphs are valid and reads between two writes never
    /// depend on each other.
    #[test]
    fn dep_tracker_builds_valid_graphs(
        accesses in prop::collection::vec((0u64..3, 0u8..3), 0..80),
    ) {
        let mut tracker = DepTracker::new();
        let mut g = TaskGraph::new();
        let ty = g.add_type("t", 0);
        let mut readers_since_write: std::collections::HashMap<u64, Vec<TaskId>> =
            Default::default();
        for (i, (region, mode)) in accesses.iter().enumerate() {
            let mode = match mode {
                0 => AccessMode::In,
                1 => AccessMode::Out,
                _ => AccessMode::InOut,
            };
            let id = TaskId(i as u32);
            let deps = tracker.deps_for(id, &[(RegionId(*region), mode)]);
            // Concurrent readers of one region must not be ordered.
            if mode == AccessMode::In {
                for r in readers_since_write.entry(*region).or_default().iter() {
                    prop_assert!(!deps.contains(r), "readers {r} and {id} ordered");
                }
                readers_since_write.get_mut(region).unwrap().push(id);
            } else {
                readers_since_write.insert(*region, Vec::new());
            }
            g.add_task(ty, ExecProfile::new(1, 0), &deps);
        }
        prop_assert!(g.validate().is_ok());
    }

    /// The BL estimator classifies at least one pending task as critical
    /// whenever anything is pending (the longest path always exists), and
    /// its levels are binary.
    #[test]
    fn bl_always_has_a_critical_task(n in 1usize..40, p in 0.0f64..0.5, seed in any::<u64>()) {
        let g = random_graph(n, p, seed);
        let mut bl = BottomLevelEstimator::new();
        for t in g.task_ids() {
            bl.on_submit(&g, t);
        }
        let levels: Vec<u8> = g.task_ids().map(|t| bl.classify_level(&g, t)).collect();
        prop_assert!(levels.contains(&1), "no critical task among {} pending", n);
        prop_assert!(levels.iter().all(|&l| l <= 1), "non-binary level in {:?}", levels);
    }
}
