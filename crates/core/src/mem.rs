//! Shared-memory interference as a scenario axis.
//!
//! The baseline machine model lets a task's memory demand (`mem_ps`)
//! elapse for free: memory time is folded into the blended task duration
//! and never competes for anything. This module makes the memory
//! subsystem an explicit, *contended* component, a scenario axis like
//! fault injection:
//!
//! - [`MemorySpec`] — a serde description of the shared memory
//!   subsystem: how many concurrent bandwidth slots exist and which
//!   arbitration policy picks the next waiter when a slot frees. It
//!   rides [`ScenarioSpec::memory`](crate::exp::ScenarioSpec) and is
//!   *omitted* when absent, so every pre-interference spec, store digest
//!   and golden preset stays byte-identical. `slots == 0` means
//!   unlimited (the uncontended legacy model) and engines bypass the
//!   gate entirely.
//! - [`ArbitrationRegistry`] — the decision of *which* waiter is granted
//!   a freed slot: a [`Registry`] of factories, the one type every policy
//!   family resolves its keys through, so an unknown key fails with
//!   [`ExpError::UnknownKey`]. A run resolves its key through
//!   [`default_arbitration_registry`] only, which holds the builtins:
//!   `fifo` (arrival order), `crit-first` (criticality-aware — the CAM
//!   idea from the paper, critical tasks jump the queue), `round-robin`
//!   (core-indexed fairness). No executor takes another registry, so a
//!   policy [`insert`](Registry::insert)ed elsewhere never runs.
//! - [`MemoryReport`] — what the run observed at the memory gate:
//!   request/wait counts, total and worst-case wait, the critical-task
//!   slice of the waiting (the quantity `crit-first` exists to shrink),
//!   and demand vs serviced time. Carried on
//!   [`RunReport::memory`](crate::RunReport) (omitted when `None`).
//!
//! The mechanism itself ([`MemorySubsystem`](cata_sim::MemorySubsystem),
//! [`ArbitrationPolicy`]) lives in
//! `cata_sim`; this module is the spec/registry/report layer on top.

use crate::exp::error::ExpError;
use crate::exp::registry::Registry;
use cata_sim::memory::{CritFirstArbitration, FifoArbitration, RoundRobinArbitration};
use cata_sim::time::SimDuration;
use cata_sim::ArbitrationPolicy;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// The default arbitration-policy key.
pub const DEFAULT_ARBITRATION: &str = "fifo";

/// A shared-memory interference description for one run. Participates in
/// spec digests and cell keys through
/// [`ScenarioSpec::memory`](crate::exp::ScenarioSpec) — a contended cell
/// is a *different* cell.
///
/// Every field is serialized; a missing or `null` one reads as its
/// [`Default`] value, so a spec file names only what it changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct MemorySpec {
    /// Concurrent bandwidth slots in the shared memory subsystem.
    /// `0` means unlimited — the uncontended legacy model, with no gate
    /// and no [`MemoryReport`].
    pub slots: u64,
    /// Arbitration-policy registry key deciding which waiter is granted
    /// a freed slot (see [`ArbitrationRegistry`]).
    pub arbitration: String,
}

impl Default for MemorySpec {
    fn default() -> Self {
        MemorySpec {
            slots: 0,
            arbitration: DEFAULT_ARBITRATION.to_string(),
        }
    }
}

impl MemorySpec {
    /// True when this spec contends nothing (unlimited slots) — engines
    /// skip the memory gate entirely.
    pub fn is_noop(&self) -> bool {
        self.slots == 0
    }

    /// Structural validation. The arbitration key itself resolves
    /// fallibly at engine build time (registries are pluggable), so only
    /// shape is checked here.
    pub fn validate(&self) -> Result<(), ExpError> {
        if self.arbitration.is_empty() {
            return Err(ExpError::InvalidSpec("empty arbitration key".to_string()));
        }
        Ok(())
    }
}

/// What a run observed at the memory gate. Rides
/// [`RunReport::memory`](crate::RunReport), omitted when the run had no
/// contended [`MemorySpec`], so uncontended reports stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Memory-slot requests issued (task executions with `mem_ps > 0`).
    pub requests: u64,
    /// Requests that found no free slot and had to wait.
    pub waited: u64,
    /// Total time requests spent waiting for a slot.
    pub total_wait: SimDuration,
    /// Worst single wait.
    pub max_wait: SimDuration,
    /// Requests issued by tasks the estimator marked critical.
    pub crit_requests: u64,
    /// Total wait incurred by critical tasks — the quantity
    /// criticality-aware arbitration exists to shrink.
    pub crit_wait: SimDuration,
    /// Total memory demand (Σ `mem_ps` over requests).
    pub demand: SimDuration,
    /// Total time from request to slot release (Σ wait + `mem_ps`).
    /// Always ≥ `demand`; equal when nothing ever waits.
    pub serviced: SimDuration,
    /// Slots the subsystem was configured with.
    pub slots: u64,
    /// The arbitration policy that ran.
    pub arbitration: String,
}

impl MemoryReport {
    /// Compact-JSON digest of the whole report — the CI
    /// interference-smoke determinism pin.
    pub fn digest(&self) -> String {
        cata_tdg::fnv1a_hex(
            serde_json::to_string(self)
                .expect("memory report serializes")
                .bytes(),
        )
    }

    /// One-line human summary appended to `RunReport::summary()`. Times
    /// are raw picosecond integers so scripts can compare policies
    /// without parsing unit suffixes.
    pub fn summary(&self) -> String {
        format!(
            "slots={} arbitration={} requests={} waited={} wait_ps={} max_wait_ps={} crit_requests={} crit_wait_ps={} demand_ps={} serviced_ps={}",
            self.slots,
            self.arbitration,
            self.requests,
            self.waited,
            self.total_wait.as_ps(),
            self.max_wait.as_ps(),
            self.crit_requests,
            self.crit_wait.as_ps(),
            self.demand.as_ps(),
            self.serviced.as_ps(),
        )
    }
}

/// Factory signature: the memory spec in, a boxed policy out.
pub type ArbitrationFactory =
    dyn Fn(&MemorySpec) -> Result<Box<dyn ArbitrationPolicy>, ExpError> + Send + Sync;

/// The arbitration-policy [`Registry`].
pub type ArbitrationRegistry = Registry<Arc<ArbitrationFactory>>;

impl ArbitrationRegistry {
    /// A registry with the built-in family: `fifo`, `crit-first`,
    /// `round-robin`.
    pub fn with_builtins() -> Self {
        let mut r = Self::new("arbitration policy");
        r.insert("fifo", Arc::new(|_| Ok(Box::new(FifoArbitration))));
        r.insert(
            "crit-first",
            Arc::new(|_| Ok(Box::new(CritFirstArbitration))),
        );
        r.insert(
            "round-robin",
            Arc::new(|_| Ok(Box::<RoundRobinArbitration>::default())),
        );
        r
    }

    /// Builds the policy registered under `key`.
    pub fn build(
        &self,
        key: &str,
        spec: &MemorySpec,
    ) -> Result<Box<dyn ArbitrationPolicy>, ExpError> {
        self.get(key)?(spec)
    }
}

/// The process-wide default registry (builtins only), built once.
pub fn default_arbitration_registry() -> &'static ArbitrationRegistry {
    static REG: OnceLock<ArbitrationRegistry> = OnceLock::new();
    REG.get_or_init(ArbitrationRegistry::with_builtins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn builtins_resolve() {
        let reg = default_arbitration_registry();
        assert_eq!(reg.keys(), vec!["crit-first", "fifo", "round-robin"]);
        let s = MemorySpec::default();
        for key in ["fifo", "crit-first", "round-robin"] {
            assert!(reg.build(key, &s).is_ok(), "{key}");
        }
    }

    #[test]
    fn unknown_key_reports_the_known_set() {
        let Err(err) = default_arbitration_registry().build("nope", &MemorySpec::default()) else {
            panic!("unknown key must not resolve");
        };
        let msg = err.to_string();
        assert!(msg.contains("nope") && msg.contains("crit-first"), "{msg}");
    }

    #[test]
    fn spec_serde_defaults_missing_fields_and_round_trips() {
        let v = serde_json::from_str::<Value>(r#"{"slots":2}"#).unwrap();
        let s = MemorySpec::from_value(&v).unwrap();
        assert_eq!(s.slots, 2);
        assert_eq!(s.arbitration, DEFAULT_ARBITRATION);

        let full = MemorySpec {
            slots: 4,
            arbitration: "crit-first".to_string(),
        };
        let json = serde_json::to_string(&full).unwrap();
        let back: MemorySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn noop_and_validation() {
        assert!(MemorySpec::default().is_noop(), "0 slots = unlimited");
        let s = MemorySpec {
            slots: 1,
            arbitration: "fifo".to_string(),
        };
        assert!(!s.is_noop());
        assert!(s.validate().is_ok());
        let bad = MemorySpec {
            slots: 1,
            arbitration: String::new(),
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn report_digest_is_stable_and_round_trips() {
        let mut a = MemoryReport {
            requests: 4,
            waited: 2,
            total_wait: SimDuration::from_us(10),
            max_wait: SimDuration::from_us(7),
            crit_requests: 1,
            crit_wait: SimDuration::from_us(3),
            demand: SimDuration::from_us(40),
            serviced: SimDuration::from_us(50),
            slots: 2,
            arbitration: "fifo".to_string(),
        };
        assert_eq!(a.digest(), a.clone().digest());
        let d_before = a.digest();
        a.max_wait = SimDuration::from_us(9);
        assert_ne!(a.digest(), d_before);
        let json = serde_json::to_string(&a).unwrap();
        let back: MemoryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        // The summary prints raw picoseconds for script-side comparison.
        assert!(a.summary().contains("wait_ps=10000000"), "{}", a.summary());
    }
}
