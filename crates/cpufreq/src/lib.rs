//! # cata-cpufreq — the software DVFS stack
//!
//! CATA's pure-software variant drives frequency changes through the Linux
//! `cpufreq` framework: the runtime writes the requested speed to a per-core
//! sysfs file, the kernel runs the cpufreq driver, the driver programs the
//! DVFS controller and waits for the rails, and the kernel updates its clock
//! bookkeeping before returning to user space (§III-A, Figure 2). All of
//! that is serialized — concurrent updates could transiently exceed the
//! power budget — and §V-C measures the consequences: average
//! reconfiguration latencies of 11–65 µs and lock-acquisition maxima of
//! several *milliseconds* under bursty contention.
//!
//! This crate provides both sides of that stack:
//!
//! - [`backend`]: the real interface — [`backend::DvfsBackend`] abstracts
//!   "set core *i* to *k* kHz", with [`backend::SysfsDvfs`] writing actual
//!   `scaling_setspeed` files on a Linux host with the userspace governor
//!   (for the native executor), and [`backend::MockDvfs`] recording calls
//!   for tests and non-privileged environments.
//! - [`software_path`]: the *model* of that stack for the simulator — a
//!   serialized resource with user/kernel service phases, producing exactly
//!   the lock-wait and latency distributions §V-C reports.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod software_path;

pub use backend::{DvfsBackend, MockDvfs, NullDvfs, SysfsDvfs};
pub use software_path::{SoftwareDvfsPath, SoftwarePathParams};
