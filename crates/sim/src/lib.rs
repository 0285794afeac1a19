//! # cata-sim — discrete-event multicore simulator substrate
//!
//! The CATA paper (Castillo et al., IPDPS 2016) evaluates its proposals on a
//! gem5 full-system simulation of a 32-core x86 processor. This crate is the
//! from-scratch stand-in for that substrate: a deterministic discrete-event
//! simulation (DES) kernel plus a task-granularity machine model with per-core
//! DVFS.
//!
//! The model is intentionally at *task* granularity, not instruction
//! granularity: every effect the paper's evaluation attributes to the
//! architecture — task durations as a function of core frequency, the 25 µs
//! DVFS transition latency, reconfiguration serialization, idle/halted core
//! states — is represented here, while micro-architectural detail (branch
//! predictors, cache hit latencies from Table I) only informs the power-model
//! constants in `cata-power`.
//!
//! ## Components
//!
//! - [`time`]: picosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]) and exact frequency/cycle arithmetic ([`Frequency`]).
//! - [`event`]: the deterministic event queue ([`event::EventQueue`]), a
//!   `Vec` kept sorted with the earliest event last — at the engines'
//!   pending depth of about one event per core it is cheaper than a heap
//!   or a calendar queue. Ties pop in push order, so pop order is a *total*
//!   order and simulations are bit-identical run to run.
//! - [`machine`]: the simulated chip ([`machine::Machine`]): per-core
//!   frequency/voltage state, DVFS transitions in flight, and the Table I
//!   configuration ([`machine::MachineConfig`]).
//! - [`memory`]: the shared memory subsystem ([`memory::MemorySubsystem`])
//!   the machine optionally carries — bandwidth slots that co-running
//!   tasks contend for, arbitrated by a pluggable
//!   [`memory::ArbitrationPolicy`] (FIFO / criticality-first /
//!   round-robin).
//! - [`seeded`]: the one SplitMix64 / FNV-1a implementation every seeded
//!   stream and content digest in the workspace shares.
//! - [`progress`]: the task execution-time model ([`progress::ExecProfile`],
//!   [`progress::RunningTask`]): frequency-scaled CPU work plus
//!   frequency-invariant memory time, with support for mid-task frequency
//!   changes and blocking (halt) intervals.
//! - [`activity`]: per-core activity timelines consumed by the power model.
//! - [`stats`]: counters and latency histograms used by the evaluation.
//! - [`trace`]: optional structured event traces for tests and debugging.
//!
//! ## Quick example
//!
//! ```
//! use cata_sim::machine::{Machine, MachineConfig};
//! use cata_sim::progress::{ExecProfile, RunningTask};
//! use cata_sim::time::SimTime;
//!
//! let cfg = MachineConfig::paper_table1();
//! let machine = Machine::new(cfg);
//! assert_eq!(machine.num_cores(), 32);
//!
//! // A task with 2 M cycles of CPU work and 100 µs of memory time takes
//! // 2.1 ms at the slow level (1 GHz) every core starts at.
//! let prof = ExecProfile::new(2_000_000, 100_000_000);
//! let task = RunningTask::start(&prof, SimTime::ZERO, machine.core(0usize.into()).frequency());
//! let finish = task.next_milestone().unwrap().time();
//! assert_eq!(finish.as_ns(), 2_100_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activity;
pub mod event;
pub mod machine;
pub mod memory;
pub mod progress;
pub mod seeded;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::{EventBackend, EventQueue};
pub use machine::{CoreId, Machine, MachineConfig, PowerLevel};
pub use memory::{ArbitrationPolicy, MemRequest, MemorySubsystem};
pub use seeded::SplitMix64;
pub use time::{Frequency, SimDuration, SimTime};
