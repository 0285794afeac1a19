//! Task instances and task types.

use crate::graph::TaskGraph;
use cata_sim::progress::ExecProfile;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a task instance, dense from 0 in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a task *type* — one per source-level task annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TypeId(pub u32);

impl TypeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A task type: the static annotation site.
///
/// The paper extends the OpenMP 4.0 `task` directive with
/// `criticality(c)`; `c > 0` marks the type critical, `c == 0` non-critical
/// (§II-B). The level is kept (not just a flag) so the multi-level extension
/// can rank types.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskType {
    /// Human-readable name (e.g. the function the pragma wraps).
    pub name: String,
    /// Static criticality annotation; 0 = non-critical.
    pub criticality: u8,
}

/// One task instance in the TDG: a by-value view of the graph's columns
/// at one task id, as [`TaskGraph::task`] and [`TaskGraph::tasks`] return
/// it.
#[derive(Clone, Copy)]
pub struct Task<'g> {
    /// This task's id.
    pub id: TaskId,
    /// Its type (annotation site).
    pub ty: TypeId,
    /// Its execution cost model.
    pub profile: &'g ExecProfile,
    pub(crate) graph: &'g TaskGraph,
}

impl<'g> Task<'g> {
    /// Tasks this one depends on (must complete first).
    pub fn preds(&self) -> &'g [TaskId] {
        self.graph.preds(self.id)
    }

    /// Tasks that depend on this one.
    pub fn succs(&self) -> &'g [TaskId] {
        self.graph.succs(self.id)
    }
}

impl fmt::Debug for Task<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("id", &self.id)
            .field("ty", &self.ty)
            .field("profile", self.profile)
            .field("preds", &self.preds())
            .field("succs", &self.succs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_compactly() {
        assert_eq!(TaskId(42).to_string(), "t42");
        assert_eq!(TaskId(7).index(), 7);
        assert_eq!(TypeId(3).index(), 3);
    }
}
