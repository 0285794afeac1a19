//! Incremental bottom-level computation (the CATS \[24\] dynamic criticality
//! metric).
//!
//! The **bottom level** (BL) of a task is the length, in tasks, of the
//! longest dependency path from it to a leaf of the TDG. CATS recomputes BLs
//! as the graph grows: a newly submitted task is a leaf (BL = 0) and its
//! insertion can raise the BL of its ancestors, which are updated by walking
//! predecessor chains.
//!
//! The walk is not free — the paper's §V-A attributes the `CATS+BL`
//! slowdowns (up to 9.8 % on Fluidanimate, whose tasks have up to nine
//! parents) to exactly this TDG exploration. [`BottomLevels::on_submit`]
//! therefore returns the number of node visits performed, which the
//! simulation charges as runtime overhead on the submitting core.

use crate::graph::TaskGraph;
use crate::task::TaskId;

/// Incrementally maintained bottom levels over a growing TDG.
#[derive(Debug, Clone)]
pub struct BottomLevels {
    bl: Vec<u32>,
    max_bl: u32,
    total_visits: u64,
    /// The relaxation walk's stack, kept between submissions so a
    /// submission never allocates once the stack has grown to the
    /// deepest walk seen.
    stack: Vec<TaskId>,
    /// Per-submission cap on the relaxation walk. CATS \[24\] explores only
    /// a sub-graph of the TDG (the paper's §II-B third limitation); the cap
    /// is both that window and the safeguard against the O(n²) worst case
    /// on dense graphs — truncated walks leave *approximate* (under-
    /// estimated) ancestor BLs, which is part of why BL misclassifies.
    visit_cap: u64,
}

impl Default for BottomLevels {
    fn default() -> Self {
        Self::new()
    }
}

impl BottomLevels {
    /// Default per-submission exploration window.
    pub const DEFAULT_VISIT_CAP: u64 = 256;

    /// Empty state with the default exploration window.
    pub fn new() -> Self {
        Self::with_visit_cap(Self::DEFAULT_VISIT_CAP)
    }

    /// Empty state with an explicit per-submission walk cap
    /// (`u64::MAX` = exact bottom levels).
    pub fn with_visit_cap(visit_cap: u64) -> Self {
        BottomLevels {
            bl: Vec::new(),
            max_bl: 0,
            total_visits: 0,
            stack: Vec::new(),
            visit_cap: visit_cap.max(1),
        }
    }

    /// Exact (uncapped) incremental bottom levels.
    pub fn exact() -> Self {
        Self::with_visit_cap(u64::MAX)
    }

    /// Integrates the just-submitted `task` (which must be the most recent
    /// task in `graph`) and updates ancestor BLs. Returns the number of node
    /// visits performed, the unit of runtime overhead charged to `CATS+BL`.
    pub fn on_submit(&mut self, graph: &TaskGraph, task: TaskId) -> u64 {
        self.on_submit_with(graph, task, |_, _, _| {})
    }

    /// Like [`on_submit`](Self::on_submit), additionally invoking
    /// `on_change(task, old_bl, new_bl)` for every task whose BL is set or
    /// raised (including the new task's initial `BL = 0`, reported as
    /// `old_bl == new_bl == 0`). Callers that mirror BLs in their own
    /// structures (e.g. the pending-max multiset of
    /// [`BottomLevelEstimator`](crate::criticality::BottomLevelEstimator))
    /// use this to stay coherent as ancestor BLs rise.
    pub fn on_submit_with(
        &mut self,
        graph: &TaskGraph,
        task: TaskId,
        mut on_change: impl FnMut(TaskId, u32, u32),
    ) -> u64 {
        // Tasks must be integrated in submission order, but the graph object
        // itself may already contain later tasks (the simulator pre-builds
        // the full TDG and replays submissions over it) — only the
        // estimator's own horizon matters, and the ancestor walk below never
        // touches tasks after `task`.
        debug_assert_eq!(self.bl.len(), task.index(), "on_submit out of order");
        debug_assert!(task.index() < graph.num_tasks());
        self.bl.push(0);
        on_change(task, 0, 0);

        // Relaxation walk: raising a node's BL may raise its predecessors'.
        // The walk is truncated at `visit_cap` visits (the CATS sub-graph
        // window); beyond it, ancestor BLs stay stale.
        let mut visits = 1u64; // the new task itself
        self.stack.clear(); // a truncated walk leaves entries behind
        self.stack.push(task);
        'walk: while let Some(t) = self.stack.pop() {
            let next = self.bl[t.index()] + 1;
            for &p in graph.preds(t) {
                visits += 1;
                let old = self.bl[p.index()];
                if old < next {
                    self.bl[p.index()] = next;
                    self.max_bl = self.max_bl.max(next);
                    on_change(p, old, next);
                    self.stack.push(p);
                }
                if visits >= self.visit_cap {
                    break 'walk;
                }
            }
        }
        self.total_visits += visits;
        visits
    }

    /// The bottom level of a submitted task.
    pub fn bl(&self, task: TaskId) -> u32 {
        self.bl[task.index()]
    }

    /// The largest BL over all submitted tasks.
    pub fn max_bl(&self) -> u32 {
        self.max_bl
    }

    /// Number of tasks integrated.
    pub fn len(&self) -> usize {
        self.bl.len()
    }

    /// True if no tasks have been integrated.
    pub fn is_empty(&self) -> bool {
        self.bl.is_empty()
    }

    /// Total node visits across all submissions (aggregate overhead).
    pub fn total_visits(&self) -> u64 {
        self.total_visits
    }

    /// Reference batch computation over a complete graph: `BL(t) = 0` for
    /// leaves, else `1 + max(BL(succ))`. Used by tests to validate the
    /// incremental algorithm.
    pub fn recompute_batch(graph: &TaskGraph) -> Vec<u32> {
        let n = graph.num_tasks();
        let mut bl = vec![0u32; n];
        // Reverse topological order = reverse submission order.
        for i in (0..n).rev() {
            let id = TaskId(i as u32);
            bl[i] = graph
                .succs(id)
                .iter()
                .map(|s| bl[s.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        bl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_sim::progress::ExecProfile;

    fn p() -> ExecProfile {
        ExecProfile::new(1, 0)
    }

    /// Builds a graph and BLs together, asserting incremental == batch after
    /// every submission.
    fn build_checked(edges: &[&[u32]]) -> (TaskGraph, BottomLevels) {
        let mut g = TaskGraph::new();
        let ty = g.add_type("t", 0);
        let mut bls = BottomLevels::exact();
        for deps in edges {
            let deps: Vec<TaskId> = deps.iter().map(|&d| TaskId(d)).collect();
            let id = g.add_task(ty, p(), &deps);
            bls.on_submit(&g, id);
            let batch = BottomLevels::recompute_batch(&g);
            for t in g.task_ids() {
                assert_eq!(bls.bl(t), batch[t.index()], "mismatch at {t} after {id}");
            }
        }
        (g, bls)
    }

    #[test]
    fn chain_bottom_levels() {
        // 0 <- 1 <- 2 <- 3: BL(0)=3 ... BL(3)=0.
        let (_, bls) = build_checked(&[&[], &[0], &[1], &[2]]);
        assert_eq!(bls.bl(TaskId(0)), 3);
        assert_eq!(bls.bl(TaskId(3)), 0);
        assert_eq!(bls.max_bl(), 3);
    }

    #[test]
    fn diamond_bottom_levels() {
        // 0 -> {1, 2} -> 3.
        let (_, bls) = build_checked(&[&[], &[0], &[0], &[1, 2]]);
        assert_eq!(bls.bl(TaskId(0)), 2);
        assert_eq!(bls.bl(TaskId(1)), 1);
        assert_eq!(bls.bl(TaskId(2)), 1);
        assert_eq!(bls.bl(TaskId(3)), 0);
    }

    #[test]
    fn independent_tasks_have_zero_bl() {
        let (_, bls) = build_checked(&[&[], &[], &[]]);
        for i in 0..3 {
            assert_eq!(bls.bl(TaskId(i)), 0);
        }
        assert_eq!(bls.max_bl(), 0);
    }

    #[test]
    fn visit_cost_grows_with_parent_density() {
        // A dense graph (every task depends on all previous) must cost more
        // visits than a chain of the same size — the Fluidanimate effect.
        let mut dense_g = TaskGraph::new();
        let ty = dense_g.add_type("t", 0);
        let mut dense = BottomLevels::exact();
        let mut all: Vec<TaskId> = Vec::new();
        for _ in 0..10 {
            let id = dense_g.add_task(ty, p(), &all);
            dense.on_submit(&dense_g, id);
            all.push(id);
        }

        let mut chain_g = TaskGraph::new();
        let ty2 = chain_g.add_type("t", 0);
        let mut chain = BottomLevels::exact();
        let mut prev: Option<TaskId> = None;
        for _ in 0..10 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            let id = chain_g.add_task(ty2, p(), &deps);
            chain.on_submit(&chain_g, id);
            prev = Some(id);
        }

        assert!(
            dense.total_visits() > chain.total_visits(),
            "dense {} <= chain {}",
            dense.total_visits(),
            chain.total_visits()
        );
    }

    #[test]
    fn incremental_matches_batch_on_random_dags() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xCA7A);
        for _ in 0..20 {
            let n = rng.gen_range(1..60);
            let mut g = TaskGraph::new();
            let ty = g.add_type("t", 0);
            let mut bls = BottomLevels::exact();
            for i in 0..n {
                let mut deps = Vec::new();
                for j in 0..i {
                    if rng.gen_bool(0.15) {
                        deps.push(TaskId(j));
                    }
                }
                let id = g.add_task(ty, p(), &deps);
                bls.on_submit(&g, id);
            }
            let batch = BottomLevels::recompute_batch(&g);
            for t in g.task_ids() {
                assert_eq!(bls.bl(t), batch[t.index()]);
            }
        }
    }
}
