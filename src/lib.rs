//! Workspace facade: re-exports every `cata-*` crate under one roof so the
//! top-level examples and integration tests (and downstream users wanting a
//! single dependency) can reach the whole system.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cata_bench as bench;
pub use cata_core as core;
pub use cata_cpufreq as cpufreq;
pub use cata_power as power;
pub use cata_rsu as rsu;
pub use cata_sim as sim;
pub use cata_tdg as tdg;
pub use cata_workloads as workloads;
