//! # cata-power — analytic power and energy model
//!
//! The paper evaluates power with McPAT at 22 nm, using the default clock
//! gating scheme. This crate is the stand-in: a per-core analytic model of
//! dynamic and static power as a function of the operating point
//! (voltage/frequency) and activity, plus an uncore (L2 NUCA, directory,
//! NoC) term, integrated over the activity timelines that `cata-sim`
//! produces.
//!
//! The model follows the standard CMOS relations McPAT itself is built on:
//!
//! - dynamic power: `P_dyn = α · C_eff · V² · f` — scaled by an activity
//!   factor per core state (busy / runtime idle loop / halted-clock-gated);
//! - static power: `P_leak = V · I_leak(V)` with a linear voltage
//!   sensitivity, which is adequate over the paper's narrow 0.8–1.0 V range;
//! - uncore power: a constant term (the L2, directory and mesh stay on one
//!   clock domain regardless of per-core DVFS).
//!
//! Absolute watt values are calibration constants
//! ([`PowerParams::mcpat_22nm`] carries defaults in the range McPAT reports
//! for similar OoO cores at 22 nm); the experiments only consume *relative*
//! energy and EDP, normalized to the FIFO baseline, which is insensitive to
//! the absolute calibration (see EXPERIMENTS.md).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod energy;
pub mod modeled;
pub mod params;
pub mod rapl;

pub use energy::{fmt_metric, integrate_machine, EnergyBreakdown, EnergyReport, Measurement};
pub use modeled::{model_native_energy, BusyIntervals, BusyTracker, FreqClass};
pub use params::PowerParams;
pub use rapl::{RaplReader, RaplSample};
