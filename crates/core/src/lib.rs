//! # cata-core — Criticality Aware Task Acceleration
//!
//! The primary contribution of Castillo et al., *"CATA: Criticality Aware
//! Task Acceleration for Multicore Processors"* (IPDPS 2016): a task-based
//! runtime that not only **schedules** tasks by criticality (CATS) but
//! **reconfigures the hardware underneath them** — accelerating the cores
//! that run critical tasks via DVFS while keeping the chip inside a power
//! budget, thereby fixing the *priority inversion* and *static binding*
//! pathologies of criticality-aware scheduling on heterogeneous machines.
//!
//! This crate implements the whole comparison matrix of the paper's
//! evaluation. Each configuration is one [`ScenarioSpec`]: a scheduler, a
//! criticality estimator and an acceleration manager, named by registry
//! key, plus the machine, workload, costs and seed.
//! [`ScenarioSpec::preset`] builds the six of them:
//!
//! | Configuration | Scheduler | Criticality | Acceleration |
//! |---|---|---|---|
//! | `FIFO`       | single ready queue     | —            | static fast/slow cores |
//! | `CATS+BL`    | HPRQ/LPRQ \[24\]       | bottom-level | static fast/slow cores |
//! | `CATS+SA`    | HPRQ/LPRQ              | annotations  | static fast/slow cores |
//! | `CATA`       | HPRQ/LPRQ              | annotations  | runtime-driven DVFS through the software cpufreq path (RSM + locks) |
//! | `CATA+RSU`   | HPRQ/LPRQ              | annotations  | hardware Runtime Support Unit |
//! | `TurboMode`  | single ready queue     | —            | halt-driven budget reallocation \[18\] |
//!
//! Two executors run a spec:
//!
//! - [`sim_exec::SimExecutor`]: a deterministic discrete-event execution on
//!   the `cata-sim` machine model — the configuration used to reproduce the
//!   paper's figures;
//! - [`native`]: a real thread-pool runtime executing actual closures with
//!   dependence tracking, criticality queues and a pluggable DVFS backend
//!   (`cata-cpufreq`), usable on real Linux hosts with the userspace
//!   cpufreq governor.
//!
//! See the crate-level `examples/` for end-to-end usage, and `cata-bench`
//! for the figure-regeneration harness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accel;
pub mod exp;
pub mod fault;
pub mod gantt;
pub mod mem;
pub mod native;
pub mod policy;
pub mod report;
pub mod service;
pub mod sim_exec;

pub use exp::{
    CellRecord, Executor, ExpError, NativeExecutor, PolicyRegistries, ResultsStore, Scenario,
    ScenarioSpec, Suite, WorkloadSpec,
};
pub use fault::{
    default_recovery_registry, CoreFailure, FaultReport, FaultSpec, RecoveryAction, RecoveryCtx,
    RecoveryPolicy, RecoveryRegistry,
};
pub use mem::{default_arbitration_registry, ArbitrationRegistry, MemoryReport, MemorySpec};
pub use report::RunReport;
pub use sim_exec::SimExecutor;
