//! # cata-tdg — task dependence graph substrate
//!
//! Task-based programming models (OpenMP 4.0, OmpSs/Nanos++ — the runtime the
//! paper extends) manage execution through a **task dependence graph (TDG)**:
//! a DAG whose nodes are task instances and whose edges are data dependences.
//! This crate is the from-scratch stand-in for that runtime layer:
//!
//! - [`task`]: task instances, task *types* (one per `#pragma omp task`
//!   annotation site, carrying the paper's `criticality(c)` clause), and
//!   execution profiles;
//! - [`graph`]: the TDG itself, built incrementally in submission order —
//!   dependences may only point at already-submitted tasks, so the graph is
//!   acyclic by construction, exactly like a real task runtime. It stores
//!   its tasks as columns (types, criticality levels, profiles, and CSR
//!   predecessor and successor lists);
//! - [`view`]: the dispatch-hot columns borrowed as one `Copy` bundle of
//!   slices, which the engines' inner loops read directly;
//! - [`deps`]: OmpSs-style derivation of edges from `in`/`out`/`inout` data
//!   accesses (RAW, WAR and WAW dependences over named regions);
//! - [`bottom_level`]: the incremental bottom-level computation of
//!   CATS \[24\], including the ancestor-walk **cost accounting** that the
//!   paper charges against the `CATS+BL` configuration;
//! - [`criticality`]: the two criticality estimators compared in the paper —
//!   static annotations (`CATS+SA`/CATA) and dynamic bottom-level
//!   (`CATS+BL`);
//! - [`file`](mod@file): the portable `.tdg.json` form of a graph — a schema-tagged,
//!   digest-pinned [`TdgFile`] convertible losslessly to and from
//!   [`TaskGraph`], so captured graphs are storable, shareable, replayable
//!   workloads.
//!
//! ```
//! use cata_tdg::graph::TaskGraph;
//! use cata_tdg::criticality::{CriticalityEstimator, StaticAnnotations};
//! use cata_sim::progress::ExecProfile;
//!
//! let mut g = TaskGraph::new();
//! let critical_ty = g.add_type("solve", 1);     // #pragma omp task criticality(1)
//! let normal_ty = g.add_type("prepare", 0);     // #pragma omp task criticality(0)
//!
//! let a = g.add_task(normal_ty, ExecProfile::new(1000, 0), &[]);
//! let b = g.add_task(critical_ty, ExecProfile::new(9000, 0), &[a]);
//!
//! let mut sa = StaticAnnotations;
//! assert_eq!(sa.classify_level(&g, a), 0);
//! assert_eq!(sa.classify_level(&g, b), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod bottom_level;
pub mod criticality;
pub mod deps;
pub mod file;
pub mod graph;
pub mod task;
pub mod view;

pub use criticality::{BottomLevelEstimator, CriticalityEstimator, StaticAnnotations};
pub use file::{fnv1a_hex, TdgFile, TdgFileError, TdgHandle, TdgTask, TDG_SCHEMA};
pub use graph::TaskGraph;
pub use task::{TaskId, TypeId};
pub use view::GraphView;
