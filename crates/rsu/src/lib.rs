//! # cata-rsu — the Runtime Support Unit
//!
//! The paper's second contribution (§III-B): a small hardware unit that
//! executes the CATA reconfiguration algorithm, relieving the runtime of the
//! serialized software path (RSM lock + cpufreq syscalls). The RSU tracks,
//! per core, the criticality of the running task and the acceleration
//! status, plus the power budget and the two DVFS levels, and drives the
//! DVFS controller directly on task start/end events.
//!
//! Modules:
//!
//! - [`engine`]: the *pure* reconfiguration decision algorithm (§III-A).
//!   Both the software RSM (in `cata-core`) and the hardware RSU here wrap
//!   this one implementation, so the two paths cannot diverge — they differ
//!   only in latency and serialization, exactly as in the paper.
//! - [`unit`](mod@unit): the register-level RSU with its six ISA operations
//!   (`rsu_init`, `rsu_reset`, `rsu_disable`, `rsu_start_task`,
//!   `rsu_end_task`, `rsu_read_critic`) and their cycle costs.
//! - [`virt`]: OS context-switch virtualization (§III-B-3): saving and
//!   restoring task criticality in the kernel `thread_struct` so independent
//!   applications can share the RSU.
//! - [`overhead`]: the §III-B-4 storage/area/power overhead model (CACTI
//!   stand-in) reproducing the "3·N + log₂N + 2·log₂P bits, <0.0001 % area,
//!   <50 µW" claims.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod overhead;
pub mod unit;
pub mod virt;

pub use engine::{Cmd, Cmds, ReconfigEngine, TaskCrit};
pub use unit::{Rsu, RsuConfig, RsuError, RsuOutcome};
