//! The column `TaskGraph` against the per-task graph it replaced
//! (`reference`): random submission scripts, duplicate and empty
//! dependence lists included, and every generator of the paper's six
//! benchmarks at Tiny and Small scale. Both must give the same
//! predecessor and successor lists in order, the same edge count, shape
//! statistics, total work, critical path and validation, the same
//! `.tdg.json` bytes, and graphs that read back from those bytes equal.

mod reference;

use cata_sim::progress::ExecProfile;
use cata_sim::time::{Frequency, SimDuration};
use cata_tdg::{TaskGraph, TaskId, TdgFile};
use cata_workloads::{generate, Benchmark, Scale};
use proptest::prelude::*;

fn agree(graph: &TaskGraph, old: &reference::TaskGraph) {
    assert_eq!(graph.num_tasks(), old.num_tasks());
    for t in graph.task_ids() {
        assert_eq!(graph.preds(t), old.preds(t), "preds of {t}");
        assert_eq!(graph.succs(t), old.succs(t), "succs of {t}");
        let task = graph.task(t);
        assert_eq!((task.preds(), task.succs()), (old.preds(t), old.succs(t)));
    }
    assert_eq!(graph.num_edges(), old.num_edges());
    assert_eq!(graph.stats(), old.stats());
    for ghz in [1, 2] {
        let f = Frequency::from_ghz(ghz);
        assert_eq!(graph.total_work_at(f), old.total_work_at(f));
        assert_eq!(graph.critical_path_at(f), old.critical_path_at(f));
    }
    assert_eq!(graph.validate(), old.validate());
    assert_eq!(graph.validate(), Ok(()));

    let file = TdgFile::from_graph("g", graph);
    assert_eq!(file.to_json_pretty(), old.to_file("g").to_json_pretty());
    let back = file.to_graph().expect("the export reads back");
    assert_eq!(&back, graph);
    assert_eq!(reference::TaskGraph::from_file(&file), *old);
    for t in back.task_ids() {
        assert_eq!(back.succs(t), old.succs(t), "succs of {t} read back");
    }
}

/// The dependence list of task `i` from raw draws: even draws pick any
/// earlier task, odd ones one of the last three, so lists repeat ids.
fn deps(i: u32, draws: &[u32]) -> Vec<TaskId> {
    if i == 0 {
        return Vec::new();
    }
    draws
        .iter()
        .map(|&r| match r % 2 {
            0 => TaskId(r / 2 % i),
            _ => TaskId(i - 1 - r / 2 % i.min(3)),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_graphs_match_the_per_task_graph(
        levels in prop::collection::vec(0u8..3, 1..4),
        script in prop::collection::vec(
            (any::<u32>(), 1u64..1_000_000, 0u64..5_000, 0u8..4, prop::collection::vec(any::<u32>(), 0..6)),
            0..80,
        ),
    ) {
        let mut graph = TaskGraph::new();
        let mut old = reference::TaskGraph::new();
        for (k, &level) in levels.iter().enumerate() {
            let name = format!("type{k}");
            prop_assert_eq!(graph.add_type(name.clone(), level), old.add_type(name, level));
        }
        for (i, (ty, cycles, mem, block, draws)) in script.iter().enumerate() {
            let ty = cata_tdg::TypeId(ty % levels.len() as u32);
            let mut profile = ExecProfile::new(*cycles, *mem);
            if *block == 0 {
                profile = profile.with_block(0.5, SimDuration::from_ns(*mem));
            }
            let deps = deps(i as u32, draws);
            let id = graph.add_task(ty, profile.clone(), &deps);
            prop_assert_eq!(id, old.add_task(ty, profile, &deps));
            if i % 7 == 3 {
                // A read between submissions must not freeze the successors.
                prop_assert_eq!(graph.succs(TaskId(0)), old.succs(TaskId(0)));
            }
        }
        agree(&graph, &old);
    }
}

#[test]
fn generated_graphs_match_the_per_task_graph() {
    for scale in [Scale::Tiny, Scale::Small] {
        for bench in Benchmark::all() {
            let graph = generate(bench, scale, 1);
            let old = reference::TaskGraph::from_file(&TdgFile::from_graph("g", &graph));
            agree(&graph, &old);
        }
    }
}
