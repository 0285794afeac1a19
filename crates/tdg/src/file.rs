//! `TdgFile`: the portable, versioned on-disk form of a [`TaskGraph`].
//!
//! A [`TaskGraph`] is a runtime data structure; a `TdgFile` is the same
//! graph as a *storable workload*: a schema-tagged, serde-serializable
//! (JSON/TOML) document carrying the task types with their criticality
//! annotations, one entry per task instance (execution profile plus the
//! dependence list), and an FNV-1a content digest that pins the payload.
//! Conversion is lossless both ways — [`TdgFile::from_graph`] and
//! [`TdgFile::to_graph`] round-trip topology, profiles and criticalities
//! bit-exactly — so a graph captured from a generator, a custom
//! application, or an observed native run can be exported, shared, edited
//! and replayed as a first-class workload.
//!
//! Task ids are implicit: entry `i` of [`tasks`](TdgFile::tasks) is task
//! `i`, and dependences may only reference earlier entries — the same
//! submission-order invariant the in-memory graph enforces, checked by
//! [`to_graph`](TdgFile::to_graph).

use crate::graph::TaskGraph;
use crate::task::{TaskId, TaskType, TypeId};
use cata_sim::progress::ExecProfile;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Format tag carried by every TDG file; bumped on breaking layout changes.
pub const TDG_SCHEMA: &str = "cata-tdg/v1";

/// FNV-1a over a byte stream, rendered as 16 hex digits. The one digest
/// function of the whole workspace — now implemented in
/// [`cata_sim::seeded`] and re-exported here so every historical call
/// path (`cata_tdg::fnv1a_hex`) keeps compiling unchanged.
pub use cata_sim::seeded::fnv1a_hex;

/// One task entry of a [`TdgFile`]: its type (by index into
/// [`types`](TdgFile::types)), its execution profile, and the indices of
/// the earlier tasks it depends on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdgTask {
    /// Index into the file's type table.
    pub ty: u32,
    /// Execution cost model (cycles, memory time, blocking points).
    pub profile: ExecProfile,
    /// Indices of this task's dependences; each must be smaller than the
    /// task's own position.
    pub deps: Vec<u32>,
}

/// A serializable task dependence graph: the unit of capture and replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdgFile {
    /// Format tag ([`TDG_SCHEMA`]).
    pub schema: String,
    /// Workload name; replayed runs report it as their workload label, so
    /// a replay of an exported generator is indistinguishable from the
    /// generator run itself.
    pub name: String,
    /// The task types with their static criticality annotations.
    pub types: Vec<TaskType>,
    /// The task instances in submission (= topological) order.
    pub tasks: Vec<TdgTask>,
    /// FNV-1a digest of the payload (see
    /// [`content_digest`](Self::content_digest)). The empty string opts out
    /// of verification — the hand-authoring escape hatch;
    /// [`refresh_digest`](Self::refresh_digest) re-pins an edited file.
    pub digest: String,
}

/// Anything that can make a [`TdgFile`] unusable.
#[derive(Debug, Clone, PartialEq)]
pub enum TdgFileError {
    /// The schema tag is not [`TDG_SCHEMA`].
    Schema(String),
    /// The embedded (or externally pinned) digest does not match the
    /// content.
    Digest {
        /// The digest the content hashes to.
        actual: String,
        /// The digest that was expected.
        expected: String,
    },
    /// A task references an unknown type or a non-earlier dependence.
    Structure(String),
    /// The file could not be parsed.
    Parse(String),
}

impl fmt::Display for TdgFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdgFileError::Schema(got) => {
                write!(f, "unsupported TDG schema `{got}` (want {TDG_SCHEMA})")
            }
            TdgFileError::Digest { actual, expected } => write!(
                f,
                "TDG digest mismatch: content hashes to {actual}, expected {expected} \
                 (edited without refreshing the digest, or the wrong file?)"
            ),
            TdgFileError::Structure(msg) => write!(f, "malformed TDG: {msg}"),
            TdgFileError::Parse(msg) => write!(f, "TDG parse error: {msg}"),
        }
    }
}

impl std::error::Error for TdgFileError {}

impl TdgFile {
    /// Captures a graph as a named, digest-pinned file.
    pub fn from_graph(name: impl Into<String>, graph: &TaskGraph) -> Self {
        let types = (0..graph.num_types())
            .map(|i| graph.task_type(TypeId(i as u32)).clone())
            .collect();
        let tasks = graph
            .tasks()
            .map(|t| TdgTask {
                ty: t.ty.0,
                profile: t.profile.clone(),
                deps: t.preds().iter().map(|p| p.0).collect(),
            })
            .collect();
        let mut file = TdgFile {
            schema: TDG_SCHEMA.to_string(),
            name: name.into(),
            types,
            tasks,
            digest: String::new(),
        };
        file.digest = file.content_digest();
        file
    }

    /// Reconstructs the in-memory graph. Verifies the schema tag, the
    /// embedded digest (unless empty), and the structural invariants —
    /// known types, earlier-only dependences — then rebuilds through the
    /// same submission path a runtime would use, so the result satisfies
    /// every [`TaskGraph`] invariant by construction.
    pub fn to_graph(&self) -> Result<TaskGraph, TdgFileError> {
        self.verify()?;
        let mut graph = TaskGraph::with_capacity(self.tasks.len());
        for ty in &self.types {
            graph.add_type(ty.name.clone(), ty.criticality);
        }
        let mut deps: Vec<TaskId> = Vec::new();
        for (i, task) in self.tasks.iter().enumerate() {
            if task.ty as usize >= self.types.len() {
                return Err(TdgFileError::Structure(format!(
                    "task {i} names unknown type {} ({} types declared)",
                    task.ty,
                    self.types.len()
                )));
            }
            deps.clear();
            for &d in &task.deps {
                if d as usize >= i {
                    return Err(TdgFileError::Structure(format!(
                        "task {i} depends on non-earlier task {d}"
                    )));
                }
                deps.push(TaskId(d));
            }
            graph.add_task(TypeId(task.ty), task.profile.clone(), &deps);
        }
        Ok(graph)
    }

    /// The FNV-1a digest of the payload: the compact JSON of the name,
    /// types and tasks (everything but the schema tag and the digest field
    /// itself). Deterministic across processes — the vendored serde
    /// serializes fields in declaration order.
    pub fn content_digest(&self) -> String {
        let payload = Value::Seq(vec![
            serde::Serialize::to_value(&self.name),
            serde::Serialize::to_value(&self.types),
            serde::Serialize::to_value(&self.tasks),
        ]);
        let text = serde_json::to_string(&payload).expect("TDG payload serializes");
        fnv1a_hex(text.bytes())
    }

    /// Checks the schema tag and — unless the file opted out with an
    /// empty digest — that the embedded digest matches the content, and
    /// returns the *computed* content digest. This is the whole
    /// header-integrity check in one place: [`to_graph`](Self::to_graph)
    /// runs it before rebuilding, and graph caches run it before trusting
    /// a digest as a cache identity (a cache probe that skipped it would
    /// accept or reject an invalid file depending on cache warmth).
    pub fn verify(&self) -> Result<String, TdgFileError> {
        if self.schema != TDG_SCHEMA {
            return Err(TdgFileError::Schema(self.schema.clone()));
        }
        let actual = self.content_digest();
        if !self.digest.is_empty() && actual != self.digest {
            return Err(TdgFileError::Digest {
                actual,
                expected: self.digest.clone(),
            });
        }
        Ok(actual)
    }

    /// Re-pins the digest after an edit.
    pub fn refresh_digest(&mut self) {
        self.digest = self.content_digest();
    }

    /// Number of task instances.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Exact total work in cycles — Σ `cpu_cycles` over every task. The
    /// basis of cost-aware shard ordering for replayed workloads (memory
    /// and block time are excluded: ordering only needs a consistent
    /// rank, and cycles dominate every shipped workload).
    pub fn total_work_cycles(&self) -> u64 {
        self.tasks
            .iter()
            .fold(0u64, |acc, t| acc.saturating_add(t.profile.cpu_cycles))
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("TDG file serializes")
    }

    /// Serializes to pretty JSON — the `.tdg.json` artifact format.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("TDG file serializes")
    }

    /// Parses a JSON TDG file.
    pub fn from_json(text: &str) -> Result<Self, TdgFileError> {
        serde_json::from_str(text).map_err(|e| TdgFileError::Parse(e.to_string()))
    }

    /// Serializes to TOML.
    pub fn to_toml(&self) -> String {
        toml::to_string(self).expect("TDG file serializes")
    }

    /// Parses a TOML TDG file.
    pub fn from_toml(text: &str) -> Result<Self, TdgFileError> {
        toml::from_str(text).map_err(|e| TdgFileError::Parse(e.to_string()))
    }
}

/// A hash-consed, immutable handle to a [`TdgFile`] that memoizes
/// [`verify`](TdgFile::verify).
///
/// `verify` serializes the whole payload to compute the content digest —
/// O(file size) — which is fine once per load but not once per *cache
/// probe*: the scenario graph cache digests its inline workload on every
/// build, and service mode replays the same TDG thousands of times per
/// run. The handle shares one `Arc`'d file and computes the verification
/// result exactly once; clones are pointer copies and every subsequent
/// probe is a `OnceLock` read.
///
/// The handle is deliberately immutable (no `DerefMut`): a memoized
/// verdict over a mutable file would go stale. To edit, clone the inner
/// file ([`Deref`] exposes it), edit, and re-wrap.
///
/// Serde delegates to the inner [`TdgFile`], so handles are byte-identical
/// to plain files on disk and in digests.
#[derive(Debug, Clone)]
pub struct TdgHandle {
    file: Arc<TdgFile>,
    verified: Arc<OnceLock<Result<String, TdgFileError>>>,
}

impl TdgHandle {
    /// Wraps a file. No verification happens until the first
    /// [`verify_cached`](Self::verify_cached).
    pub fn new(file: TdgFile) -> Self {
        TdgHandle {
            file: Arc::new(file),
            verified: Arc::new(OnceLock::new()),
        }
    }

    /// [`TdgFile::verify`], computed once per handle and shared by every
    /// clone.
    pub fn verify_cached(&self) -> Result<String, TdgFileError> {
        self.verified.get_or_init(|| self.file.verify()).clone()
    }
}

impl From<TdgFile> for TdgHandle {
    fn from(file: TdgFile) -> Self {
        TdgHandle::new(file)
    }
}

impl Deref for TdgHandle {
    type Target = TdgFile;

    fn deref(&self) -> &TdgFile {
        &self.file
    }
}

impl PartialEq for TdgHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.file, &other.file) || *self.file == *other.file
    }
}

impl Serialize for TdgHandle {
    fn to_value(&self) -> Value {
        self.file.to_value()
    }
}

impl Deserialize for TdgHandle {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        TdgFile::from_value(v).map(TdgHandle::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_sim::time::SimDuration;

    fn sample_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let norm = g.add_type("prepare", 0);
        let crit = g.add_type("solve", 2);
        let a = g.add_task(norm, ExecProfile::new(1_000, 50), &[]);
        let b = g.add_task(
            crit,
            ExecProfile::new(9_000, 0).with_block(0.5, SimDuration::from_ns(400)),
            &[a],
        );
        let c = g.add_task(norm, ExecProfile::new(2_000, 10), &[a]);
        g.add_task(crit, ExecProfile::new(500, 0), &[b, c]);
        g
    }

    #[test]
    fn round_trip_is_lossless() {
        let g = sample_graph();
        let file = TdgFile::from_graph("sample", &g);
        assert_eq!(file.schema, TDG_SCHEMA);
        assert_eq!(file.digest, file.content_digest());
        let back = file.to_graph().unwrap();
        assert_eq!(
            back, g,
            "TaskGraph -> TdgFile -> TaskGraph must be identity"
        );
        back.validate().unwrap();
    }

    #[test]
    fn json_and_toml_round_trip() {
        let file = TdgFile::from_graph("sample", &sample_graph());
        let json = file.to_json_pretty();
        assert_eq!(TdgFile::from_json(&json).unwrap(), file);
        let toml_text = file.to_toml();
        assert_eq!(TdgFile::from_toml(&toml_text).unwrap(), file);
    }

    #[test]
    fn digest_sees_every_payload_field() {
        let base = TdgFile::from_graph("sample", &sample_graph());
        let mut renamed = base.clone();
        renamed.name = "other".into();
        assert_ne!(base.content_digest(), renamed.content_digest());
        let mut edited = base.clone();
        edited.tasks[0].profile.cpu_cycles += 1;
        assert_ne!(base.content_digest(), edited.content_digest());
        // The digest field itself is not part of the digest.
        let mut cleared = base.clone();
        cleared.digest = String::new();
        assert_eq!(base.content_digest(), cleared.content_digest());
    }

    #[test]
    fn stale_digest_is_rejected_and_refresh_fixes_it() {
        let mut file = TdgFile::from_graph("sample", &sample_graph());
        file.tasks[1].profile.cpu_cycles *= 2; // edit without refreshing
        assert!(matches!(file.to_graph(), Err(TdgFileError::Digest { .. })));
        file.refresh_digest();
        file.to_graph().unwrap();
        // The empty digest opts out (hand-authored files).
        file.tasks[1].profile.cpu_cycles *= 2;
        file.digest = String::new();
        file.to_graph().unwrap();
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut file = TdgFile::from_graph("sample", &sample_graph());
        file.schema = "cata-tdg/v999".into();
        file.refresh_digest();
        assert!(matches!(file.to_graph(), Err(TdgFileError::Schema(_))));
    }

    #[test]
    fn forward_and_unknown_references_are_rejected() {
        let mut file = TdgFile::from_graph("sample", &sample_graph());
        file.tasks[0].deps = vec![3];
        file.refresh_digest();
        assert!(matches!(file.to_graph(), Err(TdgFileError::Structure(_))));

        let mut file = TdgFile::from_graph("sample", &sample_graph());
        file.tasks[2].ty = 9;
        file.refresh_digest();
        assert!(matches!(file.to_graph(), Err(TdgFileError::Structure(_))));
    }

    #[test]
    fn total_work_sums_profiles_exactly() {
        let file = TdgFile::from_graph("sample", &sample_graph());
        assert_eq!(file.total_work_cycles(), 1_000 + 9_000 + 2_000 + 500);
        assert_eq!(file.num_tasks(), 4);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = TaskGraph::new();
        let file = TdgFile::from_graph("empty", &g);
        assert_eq!(file.to_graph().unwrap(), g);
    }

    #[test]
    fn handle_memoizes_verification_and_shares_it_with_clones() {
        let file = TdgFile::from_graph("sample", &sample_graph());
        let want = file.digest.clone();
        let handle = TdgHandle::new(file);
        assert_eq!(handle.verify_cached().unwrap(), want);
        // A clone sees the memoized verdict without recomputing.
        let clone = handle.clone();
        assert!(Arc::ptr_eq(&handle.verified, &clone.verified));
        assert_eq!(clone.verify_cached().unwrap(), want);
        // Failures are memoized too.
        let mut bad = TdgFile::from_graph("sample", &sample_graph());
        bad.tasks[0].profile.cpu_cycles += 1; // stale digest
        let bad = TdgHandle::new(bad);
        assert!(matches!(
            bad.verify_cached(),
            Err(TdgFileError::Digest { .. })
        ));
        assert!(matches!(
            bad.verify_cached(),
            Err(TdgFileError::Digest { .. })
        ));
    }

    #[test]
    fn handle_serde_matches_the_plain_file() {
        let file = TdgFile::from_graph("sample", &sample_graph());
        let handle = TdgHandle::new(file.clone());
        assert_eq!(
            serde_json::to_string(&handle).unwrap(),
            serde_json::to_string(&file).unwrap(),
            "handles must be byte-identical to files on the wire"
        );
        let back: TdgHandle = serde_json::from_str(&serde_json::to_string(&file).unwrap()).unwrap();
        assert_eq!(*back, file);
    }
}
