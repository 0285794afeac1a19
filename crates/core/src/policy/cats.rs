//! The Criticality-Aware Task Scheduler (CATS \[24\], §II-C), also the queue
//! structure underneath CATA.
//!
//! Two ready queues: critical tasks enter the **HPRQ**, non-critical the
//! **LPRQ**. Fast cores serve the HPRQ first and may fall back to the LPRQ;
//! slow cores serve the LPRQ and may *steal* from the HPRQ **only when no
//! fast core is idling** (otherwise the critical task should wait the
//! instant it takes the idle fast core to grab it).
//!
//! Under CATA every core is "fast-capable" (acceleration is dynamic), so the
//! same policy is constructed with all cores marked fast, which reduces the
//! rules to: any core, HPRQ first, then LPRQ.

use super::{DispatchCtx, SchedulerPolicy};
use cata_sim::machine::CoreId;
use cata_sim::stats::Counters;
use cata_tdg::TaskId;
use std::collections::VecDeque;

/// The high-priority ready queue: FIFO *within* a criticality level, served
/// highest level first — `criticality(2)` tasks bypass `criticality(1)`
/// tasks, as the ordered `c` parameter of the paper's clause implies.
///
/// Criticality levels are small dense integers (the `c` of
/// `criticality(c)`, a `u8`), so instead of a `BTreeMap<u8, VecDeque>` —
/// which allocates a node per live level and walks the tree on every
/// enqueue/dequeue of the engine's hottest loop — the levels index a flat
/// bucket array directly, with `top` tracking the highest non-empty
/// bucket. Buckets persist once grown, so the steady state allocates
/// nothing.
#[derive(Debug, Default)]
struct Hprq {
    /// `buckets[level]` holds that level's FIFO; index 0 exists but stays
    /// unused (level-0 tasks live in the LPRQ).
    buckets: Vec<VecDeque<TaskId>>,
    /// Highest level with a non-empty bucket; meaningless while `len == 0`.
    /// Maintained on push (raise) and pop (walk down past drained
    /// buckets), so a pop never scans: the bucket at `top` is non-empty by
    /// invariant whenever `len > 0`.
    top: usize,
    len: usize,
}

impl Hprq {
    fn push(&mut self, task: TaskId, level: u8) {
        debug_assert!(level > 0, "level-0 tasks belong in the LPRQ");
        let level = level as usize;
        if self.buckets.len() <= level {
            self.buckets.resize_with(level + 1, VecDeque::new);
        }
        self.buckets[level].push_back(task);
        if self.len == 0 || level > self.top {
            self.top = level;
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<TaskId> {
        if self.len == 0 {
            return None;
        }
        let t = self.buckets[self.top].pop_front();
        debug_assert!(t.is_some(), "top bucket empty despite len > 0");
        self.len -= 1;
        if self.len > 0 {
            while self.buckets[self.top].is_empty() {
                self.top -= 1;
            }
        }
        t
    }
}

/// The dual-queue CATS policy.
#[derive(Debug)]
pub struct CatsPolicy {
    hprq: Hprq,
    lprq: VecDeque<TaskId>,
    is_fast: Vec<bool>,
}

impl CatsPolicy {
    /// Creates the policy; `is_fast[i]` tells whether core *i* is a fast
    /// core in the static heterogeneous configuration.
    pub fn new(is_fast: &[bool]) -> Self {
        CatsPolicy {
            hprq: Hprq::default(),
            lprq: VecDeque::new(),
            is_fast: is_fast.to_vec(),
        }
    }

    /// Creates the CATA variant: every core may serve either queue (the
    /// hardware is reconfigured around the task instead).
    pub fn homogeneous(num_cores: usize) -> Self {
        Self::new(&vec![true; num_cores])
    }

    /// Queued critical tasks.
    pub fn hprq_len(&self) -> usize {
        self.hprq.len
    }

    /// Queued non-critical tasks.
    pub fn lprq_len(&self) -> usize {
        self.lprq.len()
    }

    fn core_is_fast(&self, core: CoreId) -> bool {
        self.is_fast.get(core.index()).copied().unwrap_or(false)
    }
}

impl SchedulerPolicy for CatsPolicy {
    fn enqueue(&mut self, task: TaskId, level: u8) {
        if level > 0 {
            self.hprq.push(task, level);
        } else {
            self.lprq.push_back(task);
        }
    }

    fn dequeue(
        &mut self,
        core: CoreId,
        ctx: DispatchCtx,
        counters: &mut Counters,
    ) -> Option<TaskId> {
        if self.core_is_fast(core) {
            // Fast core: critical work first, else help with the LPRQ.
            if let Some(t) = self.hprq.pop() {
                return Some(t);
            }
            let t = self.lprq.pop_front();
            if t.is_some() {
                counters.cross_queue_steals += 1;
            }
            t
        } else {
            // Slow core: LPRQ; steal critical work only if no fast core is
            // available to take it.
            if let Some(t) = self.lprq.pop_front() {
                return Some(t);
            }
            if !ctx.fast_core_idle {
                let t = self.hprq.pop();
                if t.is_some() {
                    counters.cross_queue_steals += 1;
                }
                t
            } else {
                None
            }
        }
    }

    fn len(&self) -> usize {
        self.hprq.len + self.lprq.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: CoreId = CoreId(0);
    const SLOW: CoreId = CoreId(1);

    fn policy() -> CatsPolicy {
        CatsPolicy::new(&[true, false])
    }

    fn ctx(fast_idle: bool) -> DispatchCtx {
        DispatchCtx {
            fast_core_idle: fast_idle,
        }
    }

    #[test]
    fn fast_core_prefers_hprq() {
        let mut p = policy();
        let mut c = Counters::default();
        p.enqueue(TaskId(0), 0);
        p.enqueue(TaskId(1), 1);
        assert_eq!(p.dequeue(FAST, ctx(false), &mut c), Some(TaskId(1)));
        assert_eq!(p.dequeue(FAST, ctx(false), &mut c), Some(TaskId(0)));
    }

    #[test]
    fn fast_core_falls_back_to_lprq() {
        let mut p = policy();
        let mut c = Counters::default();
        p.enqueue(TaskId(0), 0);
        assert_eq!(p.dequeue(FAST, ctx(false), &mut c), Some(TaskId(0)));
        assert_eq!(c.cross_queue_steals, 1);
    }

    #[test]
    fn slow_core_prefers_lprq() {
        let mut p = policy();
        let mut c = Counters::default();
        p.enqueue(TaskId(0), 1);
        p.enqueue(TaskId(1), 0);
        assert_eq!(p.dequeue(SLOW, ctx(false), &mut c), Some(TaskId(1)));
    }

    #[test]
    fn slow_core_steals_critical_only_without_idle_fast_core() {
        let mut p = policy();
        let mut c = Counters::default();
        p.enqueue(TaskId(0), 1);
        // A fast core is idle: the slow core must leave the critical task.
        assert_eq!(p.dequeue(SLOW, ctx(true), &mut c), None);
        assert_eq!(c.cross_queue_steals, 0);
        // No fast core idle: stealing allowed.
        assert_eq!(p.dequeue(SLOW, ctx(false), &mut c), Some(TaskId(0)));
        assert_eq!(c.cross_queue_steals, 1);
    }

    #[test]
    fn homogeneous_variant_serves_any_core() {
        let mut p = CatsPolicy::homogeneous(2);
        let mut c = Counters::default();
        p.enqueue(TaskId(0), 1);
        p.enqueue(TaskId(1), 0);
        assert_eq!(p.dequeue(CoreId(1), ctx(false), &mut c), Some(TaskId(0)));
        assert_eq!(p.dequeue(CoreId(0), ctx(false), &mut c), Some(TaskId(1)));
    }

    #[test]
    fn queue_lengths_track_criticality() {
        let mut p = policy();
        p.enqueue(TaskId(0), 1);
        p.enqueue(TaskId(1), 1);
        p.enqueue(TaskId(2), 0);
        assert_eq!(p.hprq_len(), 2);
        assert_eq!(p.lprq_len(), 1);
        assert_eq!(p.len(), 3);
    }

    /// The reference model the bucket-array HPRQ must match: the original
    /// `BTreeMap<u8, VecDeque>` formulation, highest level first, FIFO
    /// within a level.
    #[derive(Default)]
    struct ModelHprq {
        by_level: std::collections::BTreeMap<u8, std::collections::VecDeque<TaskId>>,
    }

    impl ModelHprq {
        fn push(&mut self, task: TaskId, level: u8) {
            self.by_level.entry(level).or_default().push_back(task);
        }

        fn pop(&mut self) -> Option<TaskId> {
            let (&level, _) = self.by_level.iter().next_back()?;
            let q = self.by_level.get_mut(&level).expect("level exists");
            let t = q.pop_front();
            if q.is_empty() {
                self.by_level.remove(&level);
            }
            t
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Under any interleaving of pushes (arbitrary levels 1..=5) and
        /// pops, the bucket-array HPRQ emits exactly the sequence of the
        /// BTreeMap reference model, and its length bookkeeping agrees.
        #[test]
        fn bucket_hprq_matches_btreemap_model(
            ops in proptest::prelude::prop::collection::vec((0u8..3, 1u8..6), 1..300)
        ) {
            let mut real = Hprq::default();
            let mut model = ModelHprq::default();
            let mut next_id = 0u32;
            for &(op, level) in &ops {
                if op == 0 {
                    // One pop per two pushes on average keeps both states
                    // exercised (non-empty tops, drained levels).
                    proptest::prop_assert_eq!(real.pop(), model.pop());
                } else {
                    let t = TaskId(next_id);
                    next_id += 1;
                    real.push(t, level);
                    model.push(t, level);
                }
                let model_len: usize = model.by_level.values().map(|q| q.len()).sum();
                proptest::prop_assert_eq!(real.len, model_len);
            }
            // Drain: the tails must agree too.
            loop {
                let (a, b) = (real.pop(), model.pop());
                proptest::prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn higher_criticality_levels_bypass_lower() {
        // criticality(2) beats criticality(1) in the HPRQ; FIFO within a
        // level.
        let mut p = policy();
        let mut c = Counters::default();
        p.enqueue(TaskId(0), 1);
        p.enqueue(TaskId(1), 2);
        p.enqueue(TaskId(2), 1);
        p.enqueue(TaskId(3), 2);
        let order: Vec<u32> = std::iter::from_fn(|| p.dequeue(FAST, ctx(false), &mut c))
            .map(|t| t.0)
            .collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }
}
