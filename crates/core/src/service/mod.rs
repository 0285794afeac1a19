//! Open-system service mode: streaming task-graph arrivals into one
//! simulation.
//!
//! The closed-system executor ([`SimExecutor`](crate::SimExecutor)) runs
//! *one* graph to completion and reports makespan — the paper's §V setup.
//! Real task runtimes are services: graph instances arrive continuously,
//! queue behind each other, and the interesting metrics are *tail
//! latency* (p50/p99/p999 per-graph response time), sustained throughput
//! (graphs/sec), time-in-queue vs time-in-service, and how many requests
//! an overloaded system sheds.
//!
//! The pieces:
//!
//! - [`ServiceSpec`] — a [`ScenarioSpec`](crate::exp::ScenarioSpec) base
//!   (machine, policies, workload template) plus an [`ArrivalSpec`]
//!   (Poisson, fixed-rate, or a pinned tape), an observation window, and
//!   an admission-policy key. Serde + digest-participating, like every
//!   other spec in the facade.
//! - [`TrafficTape`] — a replayable record of arrivals
//!   (`.tape.jsonl`: header + one `(at_ps, workload, tenant)` record per
//!   line, content-digested). Generated runs record the tape they drew;
//!   replaying a tape reproduces the run bit-identically.
//! - [`AdmissionPolicy`] — the pluggable gate at the door: admit-all,
//!   queue-cap, criticality-aware shedding, keyed by name in an
//!   [`AdmissionRegistry`] (a [`Registry`](crate::exp::Registry), like
//!   every other policy family).
//! - [`run_service`] / [`replay_tape`] — run a tape through the same
//!   engine as a closed run ([`crate::sim_exec`]), with the tape as its
//!   task source in place of the master thread: thousands of concurrent
//!   graph instances in pooled per-instance slots, arrivals interleaved
//!   into the ordinary event queue, completions folded into streaming
//!   log-bucketed [`LatencyHistogram`](cata_sim::stats::LatencyHistogram)s
//!   (memory per occupied bucket, not per sample).
//! - [`ServiceReport`] — the per-run service metrics, carried on
//!   [`RunReport::service`](crate::RunReport) so service cells flow
//!   through the same stores and tables as closed-system cells.

pub mod admission;
pub mod engine;
pub mod report;
pub mod spec;
pub mod tape;

pub use admission::{
    default_admission_registry, AdmissionCtx, AdmissionPolicy, AdmissionRegistry, DEFAULT_QUEUE_CAP,
};
pub use engine::{replay_tape, replay_tape_observed, run_service, run_service_observed};
pub use report::ServiceReport;
pub use spec::{AdmissionParams, ArrivalSpec, ServiceSpec};
pub use tape::{TapeRecord, TrafficTape, TAPE_SCHEMA};
