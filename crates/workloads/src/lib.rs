//! # cata-workloads — PARSECSs-shaped synthetic workloads
//!
//! The paper evaluates on six benchmarks from PARSECSs \[33\] (the
//! task-based OpenMP 4.0 port of PARSEC) with `simlarge` inputs. We cannot
//! ship PARSEC's inputs or code, and at task granularity we do not need to:
//! every effect the paper's evaluation discusses is a function of the TDG
//! *shape* — task counts, duration distributions per task type, dependence
//! topology (fork-join / stencil / pipeline), parent density, criticality
//! spread across types, and where I/O blocking sits. This crate generates
//! graphs with exactly those shapes (parameters documented per generator;
//! `tests/paper_shapes.rs` pins the observations below, see the README's
//! "Reproducing the paper"):
//!
//! | Generator | Structure | The paper's observations it must reproduce |
//! |---|---|---|
//! | [`parsec::blackscholes`] | fork-join, many uniform small tasks | CATS ≈ FIFO; CATA small benefit, slight *slowdown* at 24 fast cores from reconfiguration overhead |
//! | [`parsec::swaptions`] | fork-join, coarse high-variance tasks | big CATA wins from re-assigning budget to barrier stragglers |
//! | [`parsec::fluidanimate`] | per-frame 3×3 stencil, 8 task types, ≤9 parents | CATS+BL *loses* (ancestor-walk overhead); software CATA hurt by bursty lock contention; best case +40 % with RSU at 24 fast |
//! | [`parsec::bodytrack`] | pipeline, type durations spread ~10× | CATS+SA > CATS+BL (BL ignores durations); high lock contention; TurboMode degrades badly |
//! | [`parsec::dedup`] | pipeline; serial I/O chain on the critical path | biggest CATS win (criticality scheduling); low lock contention |
//! | [`parsec::ferret`] | 6-stage pipeline, moderate variance | between dedup and bodytrack |
//!
//! [`micro`] additionally provides minimal graphs (chains, fork-join,
//! diamonds, random DAGs) for unit tests and examples.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod distrib;
pub mod micro;
pub mod parsec;
pub mod scale;

pub use parsec::{generate, Benchmark};
pub use scale::Scale;
