//! # cata-bench — experiment driver
//!
//! Shared machinery for regenerating every table and figure of the paper
//! (see DESIGN.md §4 for the experiment index):
//!
//! - [`matrix`]: runs a benchmark × fast-core-count × configuration matrix
//!   and returns the reports;
//! - [`figures`]: formats Figure 4 / Figure 5 tables (speedup and
//!   normalized EDP, FIFO-normalized) plus the §V-C latency analysis and
//!   the Table I / RSU-overhead printouts;
//! - [`sweeps`]: the ablation studies (budget, reconfiguration latency,
//!   BL threshold, multi-level DVFS);
//! - [`perf`]: the engine performance harness behind `repro perf` and
//!   `BENCH_engine.json` (events/sec per preset and workload size).
//!
//! The `repro` binary exposes all of it on the command line.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod matrix;
pub mod perf;
pub mod sweeps;
pub mod tables;

pub use matrix::{run_matrix, run_matrix_on, run_spec, MatrixResult};
