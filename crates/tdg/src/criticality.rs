//! Criticality estimators: static annotations vs. dynamic bottom-level.
//!
//! The paper compares two ways of deciding which tasks are critical (§II-B):
//!
//! - **Static annotations** ([`StaticAnnotations`], the `+SA` configurations):
//!   the programmer annotates each task *type* with `criticality(c)`; a task
//!   is critical iff its type has `c > 0`. Zero runtime overhead.
//! - **Bottom-level** ([`BottomLevelEstimator`], the `+BL` configurations):
//!   the runtime maintains bottom levels over the partial TDG and marks a
//!   task critical when its BL is (close to) the maximum BL among tasks that
//!   are still pending. This adapts dynamically but (i) costs an ancestor
//!   walk per submission, (ii) ignores task durations, and (iii) sees only
//!   the submitted sub-graph — the three limitations §II-B lists.

use crate::bottom_level::BottomLevels;
use crate::graph::TaskGraph;
use crate::task::TaskId;

/// A pluggable criticality estimation policy. Its registry key names it.
///
/// Lifecycle: the runtime calls [`on_submit`](Self::on_submit) once per task
/// at creation (in submission order),
/// [`classify_level`](Self::classify_level) when the task is enqueued in a
/// ready queue, and [`on_complete`](Self::on_complete) when it finishes.
pub trait CriticalityEstimator: Send {
    /// Integrates a newly submitted task. Returns the number of TDG node
    /// visits performed; the simulation charges these as runtime overhead on
    /// the submitting thread.
    fn on_submit(&mut self, _graph: &TaskGraph, _task: TaskId) -> u64 {
        0
    }

    /// The task's criticality *level* (the `c` of `criticality(c)`) at
    /// ready-queue insertion time: 0 for non-critical, higher values rank
    /// more-critical work.
    fn classify_level(&mut self, graph: &TaskGraph, task: TaskId) -> u8;

    /// Retires a completed task (pending-set maintenance).
    fn on_complete(&mut self, _graph: &TaskGraph, _task: TaskId) {}

    /// True when [`classify_level`](Self::classify_level) equals the task
    /// type's static `criticality(c)` annotation for every task,
    /// independent of submission/completion history. Engines use this to
    /// serve levels from the graph's per-task level column
    /// ([`GraphView::crit_level`](crate::view::GraphView::crit_level))
    /// instead of making a virtual call per ready task. Dynamic
    /// estimators (bottom-level) and estimators that *ignore* the
    /// annotation (the FIFO baseline's always-zero classifier) must
    /// return `false` — the default.
    fn is_annotation_static(&self) -> bool {
        false
    }
}

/// Criticality from the `criticality(c)` clause on the task type.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticAnnotations;

impl CriticalityEstimator for StaticAnnotations {
    fn classify_level(&mut self, graph: &TaskGraph, task: TaskId) -> u8 {
        graph.type_of(task).criticality
    }

    fn is_annotation_static(&self) -> bool {
        true
    }
}

/// Criticality from dynamically maintained bottom levels over the partial
/// TDG (the CATS \[24\] estimator).
///
/// A task is classified critical when `BL(task) ≥ alpha · max_pending_BL`,
/// where `max_pending_BL` is the largest BL among submitted-but-incomplete
/// tasks. `alpha = 1.0` reproduces CATS's "longest path only" rule; smaller
/// values widen the critical set (ablation A3 sweeps this).
///
/// The pending BLs are a multiset kept as one count per level, indexed by
/// BL, plus the live maximum, so no hook allocates once the counts have
/// grown to the graph's depth. A submission only raises BLs and adds each
/// new level before removing the old one, so the maximum never has to be
/// searched for then; only a completion that empties the top level scans
/// down to the next occupied one.
#[derive(Debug, Clone)]
pub struct BottomLevelEstimator {
    levels: BottomLevels,
    /// Live BLs of pending tasks. Kept coherent with `levels` through the
    /// change callback of [`BottomLevels::on_submit_with`].
    pending: PendingLevels,
    /// `pending_flag[t]` is true between `on_submit(t)` and `on_complete(t)`.
    pending_flag: Vec<bool>,
    alpha: f64,
}

/// A multiset of bottom levels: a count per level and the largest
/// occupied level.
#[derive(Debug, Clone, Default)]
struct PendingLevels {
    /// `counts[bl]` is the number of members at level `bl`.
    counts: Vec<u32>,
    /// The largest `bl` with `counts[bl] > 0`, `None` when empty.
    max: Option<u32>,
}

impl PendingLevels {
    fn add(&mut self, bl: u32) {
        let i = bl as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        if self.max.is_none_or(|m| bl > m) {
            self.max = Some(bl);
        }
    }

    /// Removes one member at `bl`; emptying the top level scans down to
    /// the next occupied one.
    fn remove(&mut self, bl: u32) {
        let count = &mut self.counts[bl as usize];
        debug_assert!(*count > 0, "no pending task at BL {bl}");
        *count -= 1;
        if *count == 0 && self.max == Some(bl) {
            self.max = self.counts[..bl as usize]
                .iter()
                .rposition(|&c| c > 0)
                .map(|l| l as u32);
        }
    }
}

impl BottomLevelEstimator {
    /// Creates the estimator with the CATS rule (`alpha = 1.0`).
    pub fn new() -> Self {
        Self::with_alpha(1.0)
    }

    /// Creates the estimator with a custom criticality threshold fraction.
    ///
    /// # Panics
    /// Panics unless `0.0 < alpha <= 1.0`.
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        BottomLevelEstimator {
            levels: BottomLevels::new(),
            pending: PendingLevels::default(),
            pending_flag: Vec::new(),
            alpha,
        }
    }

    /// The underlying bottom levels (for reports/tests).
    pub fn levels(&self) -> &BottomLevels {
        &self.levels
    }

    /// The largest BL among pending tasks, or `None` when drained.
    pub fn max_pending_bl(&self) -> Option<u32> {
        self.pending.max
    }
}

impl Default for BottomLevelEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl CriticalityEstimator for BottomLevelEstimator {
    fn on_submit(&mut self, graph: &TaskGraph, task: TaskId) -> u64 {
        debug_assert_eq!(self.pending_flag.len(), task.index());
        self.pending_flag.push(true);
        // A submission may raise ancestor BLs; mirror every change into the
        // pending multiset so the max is always live. Completed ancestors
        // are skipped — their BL is irrelevant to scheduling.
        let (pending, flags) = (&mut self.pending, &self.pending_flag);
        self.levels.on_submit_with(graph, task, |t, old, new| {
            if !flags[t.index()] {
                return;
            }
            // New before old: the new level is at least the old one, so the
            // removal below never empties the top level.
            pending.add(new);
            if old != new {
                pending.remove(old);
            }
        })
    }

    /// 1 when the task's BL reaches `alpha` of the pending maximum, else 0.
    fn classify_level(&mut self, graph: &TaskGraph, task: TaskId) -> u8 {
        debug_assert!(task.index() < graph.num_tasks());
        let bl = self.levels.bl(task);
        let max_pending = self.max_pending_bl().unwrap_or(0);
        let threshold = (self.alpha * max_pending as f64).ceil() as u32;
        u8::from(bl >= threshold)
    }

    fn on_complete(&mut self, _graph: &TaskGraph, task: TaskId) {
        if std::mem::replace(&mut self.pending_flag[task.index()], false) {
            self.pending.remove(self.levels.bl(task));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_sim::progress::ExecProfile;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn p() -> ExecProfile {
        ExecProfile::new(1, 0)
    }

    /// The estimator as it was before the dense level counts and the
    /// reused walk stack: a fresh stack per submission and a `BTreeMap`
    /// from BL to pending count.
    struct MapEstimator {
        bl: Vec<u32>,
        visit_cap: u64,
        pending: BTreeMap<u32, u32>,
        pending_flag: Vec<bool>,
        alpha: f64,
    }

    impl MapEstimator {
        fn new(alpha: f64, visit_cap: u64) -> Self {
            MapEstimator {
                bl: Vec::new(),
                visit_cap,
                pending: BTreeMap::new(),
                pending_flag: Vec::new(),
                alpha,
            }
        }

        fn on_submit(&mut self, graph: &TaskGraph, task: TaskId) -> u64 {
            self.pending_flag.push(true);
            self.bl.push(0);
            *self.pending.entry(0).or_insert(0) += 1;
            let mut visits = 1u64;
            let mut stack = vec![task];
            'walk: while let Some(t) = stack.pop() {
                let next = self.bl[t.index()] + 1;
                for &p in graph.preds(t) {
                    visits += 1;
                    let old = self.bl[p.index()];
                    if old < next {
                        self.bl[p.index()] = next;
                        if self.pending_flag[p.index()] {
                            self.remove(old);
                            *self.pending.entry(next).or_insert(0) += 1;
                        }
                        stack.push(p);
                    }
                    if visits >= self.visit_cap {
                        break 'walk;
                    }
                }
            }
            visits
        }

        fn on_complete(&mut self, task: TaskId) {
            if std::mem::replace(&mut self.pending_flag[task.index()], false) {
                self.remove(self.bl[task.index()]);
            }
        }

        fn remove(&mut self, bl: u32) {
            if let Some(c) = self.pending.get_mut(&bl) {
                *c -= 1;
                if *c == 0 {
                    self.pending.remove(&bl);
                }
            }
        }

        fn max_pending_bl(&self) -> Option<u32> {
            self.pending.keys().next_back().copied()
        }

        fn classify_level(&self, task: TaskId) -> u8 {
            let max = self.max_pending_bl().unwrap_or(0);
            u8::from(self.bl[task.index()] >= (self.alpha * max as f64).ceil() as u32)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The dense-count estimator equals the `BTreeMap` reference on
        /// random DAGs of up to 200 tasks under random interleavings of
        /// submissions and completions, at the default walk cap and
        /// uncapped: the same visits per submission, the same pending
        /// maximum, and the same BL and level for every pending task after
        /// every step.
        #[test]
        fn bl_estimator_matches_the_map_reference(
            n in 1usize..=200,
            edge_p in 0.0f64..0.15,
            seed in any::<u64>(),
            alpha_pick in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = TaskGraph::new();
            let ty = g.add_type("t", 0);
            for i in 0..n as u32 {
                let deps: Vec<TaskId> = (0..i)
                    .filter(|_| rng.gen_bool(edge_p))
                    .map(TaskId)
                    .collect();
                g.add_task(ty, p(), &deps);
            }
            let alpha = [1.0, 0.75, 0.5, 0.2][alpha_pick];
            for cap in [BottomLevels::DEFAULT_VISIT_CAP, u64::MAX] {
                let mut est = BottomLevelEstimator {
                    levels: BottomLevels::with_visit_cap(cap),
                    ..BottomLevelEstimator::with_alpha(alpha)
                };
                let mut reference = MapEstimator::new(alpha, cap);
                let mut pending: Vec<TaskId> = Vec::new();
                let mut submitted = 0;
                while submitted < n || !pending.is_empty() {
                    if submitted < n && (pending.is_empty() || rng.gen_bool(0.6)) {
                        let t = TaskId(submitted as u32);
                        submitted += 1;
                        let visits = est.on_submit(&g, t);
                        prop_assert_eq!(visits, reference.on_submit(&g, t), "visits of {}", t);
                        pending.push(t);
                    } else {
                        let t = pending.swap_remove(rng.gen_range(0..pending.len()));
                        est.on_complete(&g, t);
                        reference.on_complete(t);
                    }
                    prop_assert_eq!(est.max_pending_bl(), reference.max_pending_bl());
                    for &t in &pending {
                        prop_assert_eq!(est.levels().bl(t), reference.bl[t.index()], "BL of {}", t);
                        prop_assert_eq!(
                            est.classify_level(&g, t),
                            reference.classify_level(t),
                            "level of {}", t
                        );
                    }
                }
                prop_assert_eq!(est.max_pending_bl(), None);
            }
        }
    }

    #[test]
    fn static_annotations_follow_type() {
        let mut g = TaskGraph::new();
        let hot = g.add_type("hot", 1);
        let cold = g.add_type("cold", 0);
        let a = g.add_task(hot, p(), &[]);
        let b = g.add_task(cold, p(), &[]);
        let mut sa = StaticAnnotations;
        assert_eq!(sa.classify_level(&g, a), 1);
        assert_eq!(sa.classify_level(&g, b), 0);
        assert_eq!(sa.on_submit(&g, a), 0, "SA must be overhead-free");
    }

    #[test]
    fn bl_marks_longest_path_critical() {
        // Chain 0<-1<-2 plus isolated 3: chain head has max BL.
        let mut g = TaskGraph::new();
        let ty = g.add_type("t", 0);
        let mut bl = BottomLevelEstimator::new();
        let t0 = g.add_task(ty, p(), &[]);
        bl.on_submit(&g, t0);
        let t1 = g.add_task(ty, p(), &[t0]);
        bl.on_submit(&g, t1);
        let t2 = g.add_task(ty, p(), &[t1]);
        bl.on_submit(&g, t2);
        let t3 = g.add_task(ty, p(), &[]);
        bl.on_submit(&g, t3);

        assert_eq!(
            bl.classify_level(&g, t0),
            1,
            "chain head is on the longest path"
        );
        assert_eq!(
            bl.classify_level(&g, t3),
            0,
            "isolated leaf is not critical"
        );
        assert_eq!(bl.max_pending_bl(), Some(2));
    }

    #[test]
    fn completion_lowers_the_pending_max() {
        let mut g = TaskGraph::new();
        let ty = g.add_type("t", 0);
        let mut bl = BottomLevelEstimator::new();
        let t0 = g.add_task(ty, p(), &[]);
        bl.on_submit(&g, t0);
        let t1 = g.add_task(ty, p(), &[t0]);
        bl.on_submit(&g, t1);
        let t2 = g.add_task(ty, p(), &[]);
        bl.on_submit(&g, t2);

        // BLs: t0=1, t1=0, t2=0; max pending = 1, so only t0 is critical.
        assert_eq!(bl.classify_level(&g, t0), 1);
        assert_eq!(bl.classify_level(&g, t2), 0);
        bl.on_complete(&g, t0);
        // Now everything pending has BL 0 — all tasks tie on the "longest"
        // path and classify as critical.
        assert_eq!(bl.max_pending_bl(), Some(0));
        assert_eq!(bl.classify_level(&g, t2), 1);
    }

    #[test]
    fn alpha_widens_the_critical_set() {
        // Chain of 4 + isolated task: with alpha=0.5 the mid-chain tasks
        // also classify as critical.
        let mut g = TaskGraph::new();
        let ty = g.add_type("t", 0);
        let mut strict = BottomLevelEstimator::new();
        let mut loose = BottomLevelEstimator::with_alpha(0.5);
        let mut prev: Option<TaskId> = None;
        let mut ids = Vec::new();
        for _ in 0..4 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            let id = g.add_task(ty, p(), &deps);
            strict.on_submit(&g, id);
            loose.on_submit(&g, id);
            prev = Some(id);
            ids.push(id);
        }
        // BLs: 3,2,1,0. Strict: only BL 3. Loose (ceil(0.5*3)=2): BL >= 2.
        assert_eq!(strict.classify_level(&g, ids[0]), 1);
        assert_eq!(strict.classify_level(&g, ids[1]), 0);
        assert_eq!(loose.classify_level(&g, ids[1]), 1);
        assert_eq!(loose.classify_level(&g, ids[2]), 0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn zero_alpha_rejected() {
        let _ = BottomLevelEstimator::with_alpha(0.0);
    }

    #[test]
    fn bl_reports_submission_overhead() {
        let mut g = TaskGraph::new();
        let ty = g.add_type("t", 0);
        let mut bl = BottomLevelEstimator::new();
        let t0 = g.add_task(ty, p(), &[]);
        let v0 = bl.on_submit(&g, t0);
        let t1 = g.add_task(ty, p(), &[t0]);
        let v1 = bl.on_submit(&g, t1);
        assert!(v0 >= 1);
        assert!(v1 > v0, "a dependent submission must walk ancestors");
        assert_eq!(bl.levels().total_visits(), v0 + v1);
    }
}
