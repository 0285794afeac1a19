//! [`GraphView`]: the dispatch-hot columns of a [`TaskGraph`], borrowed
//! as one `Copy` bundle of slices.
//!
//! The graph already stores its tasks as columns — successor lists as one
//! CSR pair, predecessor offsets, criticality levels and profiles, each
//! indexed by task id — so an engine's inner loop touches contiguous
//! memory without copying anything:
//!
//! - a completion's successor walk is one contiguous slice;
//! - the indegree seed is the difference of adjacent predecessor offsets;
//! - the static `criticality(c)` level of each task's type is an array
//!   read, so annotation-static estimators classify without a call;
//! - the profile, and its work scalars, are one index away.
//!
//! Building a view costs five slice borrows (and, the first time anyone
//! reads a graph's successors, the transpose of its predecessors), so the
//! engines take one per run and the open system one per workload.

use crate::graph::TaskGraph;
use crate::task::TaskId;
use cata_sim::progress::ExecProfile;

/// The dispatch-hot columns of a [`TaskGraph`], borrowed.
///
/// See the [module docs](self) for what belongs here and why. Every
/// accessor returns data at the graph's lifetime `'g`, not the view's, so
/// a caller can hold a successor slice while it mutates its own state.
#[derive(Debug, Clone, Copy)]
pub struct GraphView<'g> {
    /// Predecessor offsets: task `t` has `pred_off[t + 1] - pred_off[t]`
    /// predecessors. Length `n + 1`.
    pred_off: &'g [u32],
    /// CSR offsets into `succ`. Length `n + 1`.
    succ_off: &'g [u32],
    /// All successor lists, concatenated in task order, each in ascending
    /// id — the order ready-queue insertion, and every digest, rests on.
    succ: &'g [TaskId],
    /// Static `criticality(c)` annotation of each task's type.
    levels: &'g [u8],
    /// Each task's execution profile.
    profiles: &'g [ExecProfile],
}

impl<'g> GraphView<'g> {
    /// The columns of `graph`.
    pub fn from_graph(graph: &'g TaskGraph) -> Self {
        let succs = graph.succ_csr();
        GraphView {
            pred_off: &graph.preds.off,
            succ_off: &succs.off,
            succ: &succs.ids,
            levels: &graph.level,
            profiles: &graph.profile,
        }
    }

    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.levels.len()
    }

    /// `task`'s successors, in ascending id.
    #[inline]
    pub fn succs(&self, task: TaskId) -> &'g [TaskId] {
        let t = task.index();
        &self.succ[self.succ_off[t] as usize..self.succ_off[t + 1] as usize]
    }

    /// Predecessor counts for all tasks, in task order — extend an
    /// indegree vector with them.
    #[inline]
    pub fn pred_counts(&self) -> impl Iterator<Item = u32> + 'g {
        self.pred_off.windows(2).map(|w| w[1] - w[0])
    }

    /// The static `criticality(c)` level of `task`'s type. Equals
    /// `StaticAnnotations::classify_level` by construction, which is what
    /// lets engines skip the virtual estimator call for annotation-static
    /// estimators.
    #[inline]
    pub fn crit_level(&self, task: TaskId) -> u8 {
        self.levels[task.index()]
    }

    /// Static criticality levels for all tasks, in task order.
    #[inline]
    pub fn crit_levels(&self) -> &'g [u8] {
        self.levels
    }

    /// `task`'s execution profile.
    #[inline]
    pub fn profile(&self, task: TaskId) -> &'g ExecProfile {
        &self.profiles[task.index()]
    }

    /// `task`'s memory time in picoseconds.
    #[inline]
    pub fn mem_ps(&self, task: TaskId) -> u64 {
        self.profiles[task.index()].mem_ps
    }

    /// Total CPU work over all tasks, saturating.
    pub fn total_cpu_cycles(&self) -> u64 {
        self.profiles
            .iter()
            .fold(0u64, |acc, p| acc.saturating_add(p.cpu_cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        let normal = g.add_type("normal", 0);
        let hot = g.add_type("hot", 2);
        let a = g.add_task(normal, ExecProfile::new(100, 10), &[]);
        let b = g.add_task(hot, ExecProfile::new(200, 0), &[a]);
        let c = g.add_task(normal, ExecProfile::new(300, 30), &[a]);
        let _d = g.add_task(normal, ExecProfile::new(400, 0), &[b, c]);
        g
    }

    #[test]
    fn view_mirrors_graph() {
        let g = diamond();
        let v = GraphView::from_graph(&g);
        assert_eq!(v.num_tasks(), g.num_tasks());
        let counts: Vec<u32> = v.pred_counts().collect();
        for t in g.task_ids() {
            assert_eq!(v.succs(t), g.succs(t), "succs of {t}");
            assert_eq!(counts[t.index()], g.preds(t).len() as u32, "preds of {t}");
            assert_eq!(v.crit_level(t), g.type_of(t).criticality);
            assert_eq!(v.profile(t), g.task(t).profile);
            assert_eq!(v.mem_ps(t), g.task(t).profile.mem_ps);
        }
        assert_eq!(v.crit_levels(), &[0, 2, 0, 0]);
        assert_eq!(v.total_cpu_cycles(), 1000);
    }
}
