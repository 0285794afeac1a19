//! The per-task graph that the column layout of `TaskGraph` replaced,
//! kept as a test reference: each task owns its `preds` and `succs`
//! vectors, and `add_task` appends the new task to the successor list of
//! each of its predecessors. The column graph must agree with it on every
//! list, in order, on every derived number and on the bytes of its
//! `.tdg.json` export.

use cata_sim::progress::ExecProfile;
use cata_sim::time::{Frequency, SimDuration};
use cata_tdg::graph::GraphStats;
use cata_tdg::task::TaskType;
use cata_tdg::{TaskId, TdgFile, TdgTask, TypeId, TDG_SCHEMA};

/// One task instance, with its own edge lists.
#[derive(Debug, Clone, PartialEq)]
struct Task {
    id: TaskId,
    ty: TypeId,
    profile: ExecProfile,
    preds: Vec<TaskId>,
    succs: Vec<TaskId>,
}

/// The graph, as it was.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    types: Vec<TaskType>,
    tasks: Vec<Task>,
}

impl TaskGraph {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_type(&mut self, name: impl Into<String>, criticality: u8) -> TypeId {
        let id = TypeId(self.types.len() as u32);
        self.types.push(TaskType {
            name: name.into(),
            criticality,
        });
        id
    }

    pub fn add_task(&mut self, ty: TypeId, profile: ExecProfile, deps: &[TaskId]) -> TaskId {
        assert!(
            ty.index() < self.types.len(),
            "unregistered task type {ty:?}"
        );
        let id = TaskId(self.tasks.len() as u32);
        let mut preds = Vec::with_capacity(deps.len());
        for &d in deps {
            assert!(
                d.index() < self.tasks.len(),
                "dependence {d} of {id} not yet submitted"
            );
            if !preds.contains(&d) {
                preds.push(d);
                self.tasks[d.index()].succs.push(id);
            }
        }
        self.tasks.push(Task {
            id,
            ty,
            profile,
            preds,
            succs: Vec::new(),
        });
        id
    }

    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    pub fn preds(&self, id: TaskId) -> &[TaskId] {
        &self.tasks[id.index()].preds
    }

    pub fn succs(&self, id: TaskId) -> &[TaskId] {
        &self.tasks[id.index()].succs
    }

    pub fn num_edges(&self) -> usize {
        self.tasks.iter().map(|t| t.preds.len()).sum()
    }

    pub fn stats(&self) -> GraphStats {
        let tasks = self.tasks.len();
        let edges = self.num_edges();
        let max_preds = self.tasks.iter().map(|t| t.preds.len()).max().unwrap_or(0);
        let sources = self.tasks.iter().filter(|t| t.preds.is_empty()).count();
        let mut depth_of = vec![0u32; tasks];
        let mut depth = 0;
        for t in &self.tasks {
            let d = t
                .preds
                .iter()
                .map(|p| depth_of[p.index()] + 1)
                .max()
                .unwrap_or(1)
                .max(1);
            depth_of[t.id.index()] = d;
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

    pub fn total_work_at(&self, freq: Frequency) -> SimDuration {
        self.tasks
            .iter()
            .map(|t| t.profile.duration_at(freq) + t.profile.total_block_time())
            .sum()
    }

    pub fn critical_path_at(&self, freq: Frequency) -> SimDuration {
        let mut finish = vec![SimDuration::ZERO; self.tasks.len()];
        let mut best = SimDuration::ZERO;
        for t in &self.tasks {
            let ready: SimDuration = t
                .preds
                .iter()
                .map(|p| finish[p.index()])
                .max()
                .unwrap_or(SimDuration::ZERO);
            let dur = t.profile.duration_at(freq) + t.profile.total_block_time();
            finish[t.id.index()] = ready + dur;
            best = best.max(finish[t.id.index()]);
        }
        best
    }

    pub fn validate(&self) -> Result<(), String> {
        for (i, t) in self.tasks.iter().enumerate() {
            if t.id.index() != i {
                return Err(format!("task {i} has id {}", t.id));
            }
            for &p in &t.preds {
                if p.index() >= i {
                    return Err(format!("{} depends on non-earlier {p}", t.id));
                }
                if !self.tasks[p.index()].succs.contains(&t.id) {
                    return Err(format!("missing reverse edge {p} -> {}", t.id));
                }
            }
            for &s in &t.succs {
                if s.index() <= i {
                    return Err(format!("{} has non-later successor {s}", t.id));
                }
                if !self.tasks[s.index()].preds.contains(&t.id) {
                    return Err(format!("missing forward edge {} -> {s}", t.id));
                }
            }
            if t.ty.index() >= self.types.len() {
                return Err(format!("{} has unregistered type", t.id));
            }
        }
        Ok(())
    }

    /// `TdgFile::from_graph` over the per-task lists.
    pub fn to_file(&self, name: &str) -> TdgFile {
        let mut file = TdgFile {
            schema: TDG_SCHEMA.to_string(),
            name: name.to_string(),
            types: self.types.clone(),
            tasks: self
                .tasks
                .iter()
                .map(|t| TdgTask {
                    ty: t.ty.0,
                    profile: t.profile.clone(),
                    deps: t.preds.iter().map(|p| p.0).collect(),
                })
                .collect(),
            digest: String::new(),
        };
        file.digest = file.content_digest();
        file
    }

    /// `TdgFile::to_graph`'s replay of a verified file, onto this layout.
    pub fn from_file(file: &TdgFile) -> Self {
        let mut graph = TaskGraph::new();
        for ty in &file.types {
            graph.add_type(ty.name.clone(), ty.criticality);
        }
        for task in &file.tasks {
            let deps: Vec<TaskId> = task.deps.iter().map(|&d| TaskId(d)).collect();
            graph.add_task(TypeId(task.ty), task.profile.clone(), &deps);
        }
        graph
    }
}
