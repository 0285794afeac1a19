//! # The experiment facade: scenarios, executors, registries, suites.
//!
//! The paper's contribution is a *matrix* of runtime configurations; this
//! module is the API that matrix is expressed in. Four pieces:
//!
//! - [`ScenarioSpec`] — a serde-serializable (JSON/TOML) description of one
//!   run: machine, workload, policy keys, parameters, costs, seed. A spec
//!   is the unit of reproducibility: same spec ⇒ bit-identical
//!   [`RunReport`](crate::RunReport) on the simulator.
//! - [`PolicyRegistries`] — string-keyed factories for
//!   [`SchedulerPolicy`](crate::policy::SchedulerPolicy),
//!   [`CriticalityEstimator`](cata_tdg::criticality::CriticalityEstimator)
//!   and [`AccelManager`](crate::accel::AccelManager). The six paper
//!   configurations are pre-registered; third-party policies register a
//!   closure under a new key and run everywhere, without touching core
//!   enums.
//! - [`Executor`] — one call shape over every backend:
//!   [`SimExecutor`](crate::SimExecutor) (deterministic discrete-event
//!   simulation) and [`NativeExecutor`] (real threads + DVFS backend).
//! - [`Suite`] — fans `Vec<ScenarioSpec>` across a thread pool with
//!   deterministic per-run seeding; parallel and serial runs are
//!   bit-identical. [`Suite::shard`] partitions the cell grid across
//!   processes/machines, and [`Suite::run_with_store`] streams completed
//!   cells into a [`ResultsStore`] and resumes interrupted sweeps.
//! - [`ResultsStore`] — a JSONL store of [`CellRecord`]s (one completed
//!   cell per line, atomic append) with a validating reader and a shard
//!   merger, so long sweeps survive crashes and fan out across CI jobs.
//!
//! ```
//! use cata_core::exp::{Scenario, Suite, WorkloadSpec, ScenarioSpec};
//! use cata_core::SimExecutor;
//! use cata_workloads::{Benchmark, Scale};
//!
//! // One run, explicitly assembled…
//! let scenario = Scenario::from_spec(ScenarioSpec {
//!     fast_cores: 8,
//!     scheduler: "cats-homogeneous".into(),
//!     estimator: "static-annotations".into(),
//!     accel: "software-cata".into(),
//!     ..ScenarioSpec::new(
//!         "CATA",
//!         WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, 42),
//!     )
//! });
//! let report = scenario.run(&SimExecutor).unwrap();
//! assert_eq!(report.label, "CATA");
//!
//! // …or the whole paper matrix, in parallel.
//! let suite = Suite::from_specs(ScenarioSpec::paper_matrix(
//!     8,
//!     WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, 42),
//! ))
//! .jobs(4);
//! let reports = suite.run_all(&SimExecutor);
//! assert_eq!(reports.len(), 6);
//! ```

pub mod calibrate;
pub mod error;
pub mod executor;
pub mod progress;
pub mod registry;
pub mod scenario;
pub mod spec;
pub mod store;
pub mod suite;

pub use calibrate::CostCalibration;
pub use error::ExpError;
pub use executor::{BackendDispatch, CapturedGraph, EnergySource, Executor, NativeExecutor};
pub use progress::{
    host_fingerprint, now_unix_ms, JsonlTail, ProgressEvent, ProgressRecord, ProgressWriter,
    PROGRESS_SCHEMA,
};
pub use registry::{
    default_registries, AccelEntry, AllNonCritical, EstimatorEntry, FactoryCtx, PolicyCaps,
    PolicyRegistries, SchedulerEntry,
};
pub use scenario::Scenario;
pub use spec::{Backend, PolicyParams, RuntimeCosts, ScenarioSpec, WorkloadSpec};
pub use store::{spec_digest, CellRecord, MergedRecords, ResultsStore, STORE_SCHEMA};
pub use suite::{derive_seed, ShardOrder, StoreRunOutcome, Suite};

// Trace collection is selected per spec (`ScenarioSpec::trace`); re-export
// the mode enum so facade users don't need a `cata_sim` import for it.
pub use cata_sim::trace::TraceMode;
