//! The task dependence graph.
//!
//! A graph is one set of columns indexed by task id: each task's type, the
//! static criticality level of that type, its execution profile, and its
//! predecessors and successors as compressed sparse rows (one offsets
//! array plus one concatenated id list each). The engines read these
//! columns directly through a [`GraphView`](crate::view::GraphView), so
//! there is one layout of a graph, not a build-time one and a run-time
//! copy.

use crate::task::{Task, TaskId, TaskType, TypeId};
use cata_sim::progress::ExecProfile;
use cata_sim::time::{Frequency, SimDuration};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Adjacency lists in compressed sparse row form: row `t` is
/// `ids[off[t] .. off[t + 1]]`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Csr {
    /// Row offsets into `ids`, one per row plus a leading 0.
    pub(crate) off: Vec<u32>,
    /// All rows, concatenated in row order.
    pub(crate) ids: Vec<TaskId>,
}

impl Default for Csr {
    fn default() -> Self {
        Csr {
            off: vec![0],
            ids: Vec::new(),
        }
    }
}

impl Csr {
    fn row(&self, t: TaskId) -> &[TaskId] {
        &self.ids[self.off[t.index()] as usize..self.off[t.index() + 1] as usize]
    }

    /// Each row's length, in row order.
    fn lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.off.windows(2).map(|w| (w[1] - w[0]) as usize)
    }
}

/// A task dependence graph built incrementally in submission order.
///
/// Dependences may only reference already-submitted tasks, which guarantees
/// acyclicity by construction and makes `0..n` a valid topological order —
/// the same invariant a real task runtime enjoys (a task cannot depend on a
/// task that has not been created yet).
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    types: Vec<TaskType>,
    /// Each task's type.
    ty: Vec<TypeId>,
    /// The `criticality(c)` level of each task's type.
    pub(crate) level: Vec<u8>,
    /// Each task's execution profile.
    pub(crate) profile: Vec<ExecProfile>,
    /// Each task's predecessors, in the order `add_task` first saw them.
    pub(crate) preds: Csr,
    /// The transpose of `preds`, built on first read and reset by
    /// `add_task`. Walking the predecessors in task order lists each
    /// task's successors in ascending id, the order they were submitted in.
    succs: OnceLock<Csr>,
}

/// Graphs are equal when their submissions are: the successor lists are
/// derived from the predecessors, whether built yet or not.
impl PartialEq for TaskGraph {
    fn eq(&self, other: &Self) -> bool {
        self.types == other.types
            && self.ty == other.ty
            && self.profile == other.profile
            && self.preds == other.preds
    }
}

/// Shape statistics of a TDG, used by workload validation and reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of task instances.
    pub tasks: usize,
    /// Number of dependence edges.
    pub edges: usize,
    /// Longest dependency chain, in tasks.
    pub depth: u32,
    /// Largest number of direct predecessors of any task (Fluidanimate
    /// reaches 9 in the paper — the source of the CATS+BL overhead).
    pub max_preds: usize,
    /// Mean number of direct predecessors.
    pub avg_preds: f64,
    /// Number of source tasks (no predecessors).
    pub sources: usize,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with room for `tasks` tasks and `edges` dependences.
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        let mut off = Vec::with_capacity(tasks + 1);
        off.push(0);
        TaskGraph {
            types: Vec::new(),
            ty: Vec::with_capacity(tasks),
            level: Vec::with_capacity(tasks),
            profile: Vec::with_capacity(tasks),
            preds: Csr {
                off,
                ids: Vec::with_capacity(edges),
            },
            succs: OnceLock::new(),
        }
    }

    /// Registers a task type with a static criticality annotation
    /// (`#pragma omp task criticality(c)`).
    pub fn add_type(&mut self, name: impl Into<String>, criticality: u8) -> TypeId {
        let id = TypeId(self.types.len() as u32);
        self.types.push(TaskType {
            name: name.into(),
            criticality,
        });
        id
    }

    /// Submits a task instance of type `ty` depending on `deps`.
    ///
    /// # Panics
    /// Panics if `ty` is unregistered or any dependence is not an
    /// already-submitted task — both are runtime-usage bugs, matching the
    /// aborts a real runtime would raise.
    pub fn add_task(&mut self, ty: TypeId, profile: ExecProfile, deps: &[TaskId]) -> TaskId {
        assert!(
            ty.index() < self.types.len(),
            "unregistered task type {ty:?}"
        );
        let id = TaskId(self.ty.len() as u32);
        let start = self.preds.ids.len();
        for &d in deps {
            assert!(
                d.index() < self.ty.len(),
                "dependence {d} of {id} not yet submitted"
            );
            if !self.preds.ids[start..].contains(&d) {
                self.preds.ids.push(d);
            }
        }
        let end = u32::try_from(self.preds.ids.len()).expect("under 2³² dependences");
        self.preds.off.push(end);
        self.ty.push(ty);
        self.level.push(self.types[ty.index()].criticality);
        self.profile.push(profile);
        self.succs = OnceLock::new();
        id
    }

    /// Gives back the spare capacity that submitting task by task leaves
    /// in each column, for a graph that is complete and will be kept.
    pub fn shrink_to_fit(&mut self) {
        self.types.shrink_to_fit();
        self.ty.shrink_to_fit();
        self.level.shrink_to_fit();
        self.profile.shrink_to_fit();
        self.preds.off.shrink_to_fit();
        self.preds.ids.shrink_to_fit();
    }

    /// Number of task instances.
    pub fn num_tasks(&self) -> usize {
        self.ty.len()
    }

    /// Number of task types.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// True if no tasks have been submitted.
    pub fn is_empty(&self) -> bool {
        self.ty.is_empty()
    }

    /// One task instance.
    pub fn task(&self, id: TaskId) -> Task<'_> {
        Task {
            id,
            ty: self.ty[id.index()],
            profile: &self.profile[id.index()],
            graph: self,
        }
    }

    /// One task type.
    pub fn task_type(&self, id: TypeId) -> &TaskType {
        &self.types[id.index()]
    }

    /// The type record of a task instance.
    pub fn type_of(&self, id: TaskId) -> &TaskType {
        self.task_type(self.ty[id.index()])
    }

    /// Iterates all tasks in submission (= topological) order.
    pub fn tasks(&self) -> impl Iterator<Item = Task<'_>> {
        self.task_ids().map(|id| self.task(id))
    }

    /// Iterates all task ids in submission (= topological) order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.ty.len() as u32).map(TaskId)
    }

    /// Direct predecessors of `id`.
    pub fn preds(&self, id: TaskId) -> &[TaskId] {
        self.preds.row(id)
    }

    /// Direct successors of `id`.
    pub fn succs(&self, id: TaskId) -> &[TaskId] {
        self.succ_csr().row(id)
    }

    /// The successor lists, transposed from the predecessors on first
    /// call: a counting sort of the edges by source, filled in task order.
    pub(crate) fn succ_csr(&self) -> &Csr {
        self.succs.get_or_init(|| {
            let mut off = vec![0u32; self.num_tasks() + 1];
            for &p in &self.preds.ids {
                off[p.index() + 1] += 1;
            }
            for i in 1..off.len() {
                off[i] += off[i - 1];
            }
            let mut next = off.clone();
            let mut ids = vec![TaskId(0); self.preds.ids.len()];
            for t in self.task_ids() {
                for &p in self.preds(t) {
                    ids[next[p.index()] as usize] = t;
                    next[p.index()] += 1;
                }
            }
            Csr { off, ids }
        })
    }

    /// Total number of dependence edges.
    pub fn num_edges(&self) -> usize {
        self.preds.ids.len()
    }

    /// Shape statistics.
    pub fn stats(&self) -> GraphStats {
        let tasks = self.num_tasks();
        let edges = self.num_edges();
        let max_preds = self.preds.lens().max().unwrap_or(0);
        let sources = self.preds.lens().filter(|&n| n == 0).count();
        // Depth via the topological construction order.
        let mut depth_of = vec![0u32; tasks];
        let mut depth = 0;
        for t in self.task_ids() {
            let d = self
                .preds(t)
                .iter()
                .map(|p| depth_of[p.index()] + 1)
                .max()
                .unwrap_or(1)
                .max(1);
            depth_of[t.index()] = d;
            depth = depth.max(d);
        }
        GraphStats {
            tasks,
            edges,
            depth,
            max_preds,
            avg_preds: if tasks == 0 {
                0.0
            } else {
                edges as f64 / tasks as f64
            },
            sources,
        }
    }

    /// Sum of all task durations at `freq` — the serial execution time, and
    /// the numerator of the ideal-speedup bound.
    pub fn total_work_at(&self, freq: Frequency) -> SimDuration {
        self.profile
            .iter()
            .map(|p| p.duration_at(freq) + p.total_block_time())
            .sum()
    }

    /// Length of the weighted critical path at `freq`: the minimum possible
    /// execution time with unlimited cores at that frequency.
    pub fn critical_path_at(&self, freq: Frequency) -> SimDuration {
        let mut finish = vec![SimDuration::ZERO; self.num_tasks()];
        let mut best = SimDuration::ZERO;
        for (t, p) in self.task_ids().zip(&self.profile) {
            let ready: SimDuration = self
                .preds(t)
                .iter()
                .map(|p| finish[p.index()])
                .max()
                .unwrap_or(SimDuration::ZERO);
            let dur = p.duration_at(freq) + p.total_block_time();
            finish[t.index()] = ready + dur;
            best = best.max(finish[t.index()]);
        }
        best
    }

    /// Checks structural invariants (edge symmetry, topological
    /// dependences, registered types). Cheap enough for tests; not called
    /// on hot paths.
    pub fn validate(&self) -> Result<(), String> {
        for t in self.task_ids() {
            for &p in self.preds(t) {
                if p >= t {
                    return Err(format!("{t} depends on non-earlier {p}"));
                }
                if !self.succs(p).contains(&t) {
                    return Err(format!("missing reverse edge {p} -> {t}"));
                }
            }
            for &s in self.succs(t) {
                if s <= t {
                    return Err(format!("{t} has non-later successor {s}"));
                }
                if !self.preds(s).contains(&t) {
                    return Err(format!("missing forward edge {t} -> {s}"));
                }
            }
            if self.ty[t.index()].index() >= self.types.len() {
                return Err(format!("{t} has unregistered type"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(cycles: u64) -> ExecProfile {
        ExecProfile::new(cycles, 0)
    }

    fn diamond() -> TaskGraph {
        // a -> {b, c} -> d
        let mut g = TaskGraph::new();
        let ty = g.add_type("t", 0);
        let a = g.add_task(ty, profile(100), &[]);
        let b = g.add_task(ty, profile(200), &[a]);
        let c = g.add_task(ty, profile(300), &[a]);
        let _d = g.add_task(ty, profile(100), &[b, c]);
        g
    }

    #[test]
    fn construction_and_edges() {
        let g = diamond();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.preds(TaskId(3)), &[TaskId(1), TaskId(2)]);
        assert_eq!(g.succs(TaskId(0)), &[TaskId(1), TaskId(2)]);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_deps_are_coalesced() {
        let mut g = TaskGraph::new();
        let ty = g.add_type("t", 0);
        let a = g.add_task(ty, profile(1), &[]);
        let b = g.add_task(ty, profile(1), &[a, a, a]);
        assert_eq!(g.preds(b).len(), 1);
        assert_eq!(g.succs(a).len(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn adding_a_task_after_a_read_rebuilds_the_successors() {
        let mut g = diamond();
        assert_eq!(g.succs(TaskId(3)), &[]);
        let ty = g.add_type("late", 1);
        let e = g.add_task(ty, profile(1), &[TaskId(3), TaskId(0)]);
        assert_eq!(g.succs(TaskId(3)), &[e]);
        assert_eq!(g.succs(TaskId(0)), &[TaskId(1), TaskId(2), e]);
        assert_eq!(g.task(e).preds(), &[TaskId(3), TaskId(0)]);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "not yet submitted")]
    fn forward_dependence_rejected() {
        let mut g = TaskGraph::new();
        let ty = g.add_type("t", 0);
        let _ = g.add_task(ty, profile(1), &[TaskId(5)]);
    }

    #[test]
    #[should_panic(expected = "unregistered task type")]
    fn unknown_type_rejected() {
        let mut g = TaskGraph::new();
        let _ = g.add_task(TypeId(0), profile(1), &[]);
    }

    #[test]
    fn stats_of_diamond() {
        let s = diamond().stats();
        assert_eq!(s.tasks, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.depth, 3);
        assert_eq!(s.max_preds, 2);
        assert_eq!(s.sources, 1);
        assert!((s.avg_preds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_takes_heavier_branch() {
        let g = diamond();
        let f = Frequency::from_ghz(1);
        // a(100) -> c(300) -> d(100) = 500 cycles = 500 ns at 1 GHz.
        assert_eq!(g.critical_path_at(f), SimDuration::from_ns(500));
        assert_eq!(g.total_work_at(f), SimDuration::from_ns(700));
    }

    #[test]
    fn critical_path_counts_block_time() {
        let mut g = TaskGraph::new();
        let ty = g.add_type("io", 0);
        let p = ExecProfile::new(1000, 0).with_block(0.5, SimDuration::from_ns(400));
        g.add_task(ty, p, &[]);
        let f = Frequency::from_ghz(1);
        assert_eq!(g.critical_path_at(f), SimDuration::from_ns(1400));
    }

    #[test]
    fn type_lookup() {
        let mut g = TaskGraph::new();
        let hi = g.add_type("critical-kernel", 2);
        let t = g.add_task(hi, profile(1), &[]);
        assert_eq!(g.type_of(t).criticality, 2);
        assert_eq!(g.type_of(t).name, "critical-kernel");
        assert_eq!(g.num_types(), 1);
    }

    #[test]
    fn empty_graph_stats() {
        let g = TaskGraph::new();
        let s = g.stats();
        assert_eq!(s.tasks, 0);
        assert_eq!(s.depth, 0);
        assert!(g.is_empty());
        g.validate().unwrap();
    }
}
