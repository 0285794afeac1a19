//! The baseline FIFO scheduler (§II-C).
//!
//! One ready queue, first in first out, blind to both task criticality and
//! core speed — "tasks are assigned blindly to fast or slow cores,
//! regardless of their criticality". This is the normalization baseline of
//! every figure in the paper.

use super::{DispatchCtx, SchedulerPolicy};
use cata_sim::machine::CoreId;
use cata_sim::stats::Counters;
use cata_tdg::TaskId;
use std::collections::VecDeque;

/// The FIFO ready queue.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    queue: VecDeque<TaskId>,
}

impl FifoPolicy {
    /// An empty FIFO queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SchedulerPolicy for FifoPolicy {
    fn enqueue(&mut self, task: TaskId, _level: u8) {
        self.queue.push_back(task);
    }

    fn dequeue(
        &mut self,
        _core: CoreId,
        _ctx: DispatchCtx,
        _counters: &mut Counters,
    ) -> Option<TaskId> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_regardless_of_criticality_and_core() {
        let mut p = FifoPolicy::new();
        p.enqueue(TaskId(0), 0);
        p.enqueue(TaskId(1), 1);
        p.enqueue(TaskId(2), 0);
        let ctx = DispatchCtx {
            fast_core_idle: true,
        };
        let mut c = Counters::default();
        assert_eq!(p.dequeue(CoreId(3), ctx, &mut c), Some(TaskId(0)));
        assert_eq!(p.dequeue(CoreId(0), ctx, &mut c), Some(TaskId(1)));
        assert_eq!(p.dequeue(CoreId(1), ctx, &mut c), Some(TaskId(2)));
        assert_eq!(p.dequeue(CoreId(1), ctx, &mut c), None);
    }
}
