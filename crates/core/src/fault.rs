//! Deterministic fault injection & recovery.
//!
//! Every other run in this repository assumes a perfect machine: cores
//! never die, DVFS/RSU writes never fail, tasks never need re-execution.
//! This module makes imperfection a **scenario axis**, mirroring the
//! policy-registry idiom:
//!
//! - [`FaultSpec`] — a serde description of a seeded fault schedule:
//!   core fail-stop at time *t* (permanent) or fail-recover windows,
//!   transient reconfiguration failures with probability *p* per write,
//!   and task-level transient faults forcing re-execution. It rides
//!   [`ScenarioSpec::faults`](crate::exp::ScenarioSpec) and is *omitted*
//!   when absent, so every pre-fault spec, store digest and golden
//!   preset stays byte-identical.
//! - [`RecoveryPolicy`] / [`RecoveryRegistry`] — the pluggable decision
//!   of what happens to displaced work (retry on the same core family,
//!   reroute preferring fast cores, shed non-critical instances while
//!   degraded), string-keyed like the scheduler/estimator/accel and
//!   admission registries so external crates can register their own.
//! - [`FaultReport`] — what the run observed: injected/recovered/
//!   displaced/re-executed counts, capacity-seconds lost, a
//!   recovery-latency histogram, and makespan degradation vs the
//!   fault-free twin. Carried on
//!   [`RunReport::fault`](crate::RunReport) (omitted when `None`).
//!
//! All randomness is drawn from the run seed through the same SplitMix64
//! construction the traffic-tape generator uses, on a dedicated stream
//! ([`FAULT_STREAM`]): the same seed replays the same fault trace
//! bit-identically, and fault draws never perturb arrival draws.

use crate::exp::error::ExpError;
use crate::exp::suite::derive_seed;
use cata_sim::stats::LatencyHistogram;
use cata_sim::time::{SimDuration, SimTime};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Stream tag separating fault-injection draws from every other consumer
/// of the run seed (the arrival generator uses its own tag), fed through
/// [`derive_seed`].
pub const FAULT_STREAM: u64 = 0xFA17_0001;

/// Default bound on per-task re-executions (transient task faults) and
/// per-write retries (native DVFS) when the spec does not say otherwise.
pub const DEFAULT_MAX_RETRIES: u32 = 3;

/// The default recovery-policy key.
pub const DEFAULT_RECOVERY: &str = "retry-same-core";

/// SplitMix64 — the workspace-shared generator ([`cata_sim::seeded`]),
/// re-exported on the historical path. Stream separation (fault draws
/// never entangle with arrival draws) comes from the [`FAULT_STREAM`]
/// seed diversion, not from a private copy of the generator.
pub(crate) use cata_sim::seeded::SplitMix64;

/// The fault-injection RNG for a run: the run seed, diverted onto the
/// fault stream. Same seed ⇒ bit-identical fault trace.
pub(crate) fn fault_rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(derive_seed(seed, FAULT_STREAM))
}

/// One scheduled core failure: the core fail-stops at `at` (simulated
/// time from run start) and, when `recover_after` is set, comes back that
/// long after failing; otherwise the loss is permanent.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreFailure {
    /// The core to fail (index into the machine).
    pub core: usize,
    /// When (from run start) the core fail-stops.
    pub at: SimDuration,
    /// Recovery delay after the failure, or `None` for a permanent loss.
    pub recover_after: Option<SimDuration>,
}

// Hand-written serde so `recover_after` is *omitted* for permanent
// failures — keeping serialized fault schedules minimal and their
// digests independent of how a permanent failure was spelled.
impl Serialize for CoreFailure {
    fn to_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = vec![
            ("core".into(), self.core.to_value()),
            ("at".into(), self.at.to_value()),
        ];
        if let Some(r) = self.recover_after {
            m.push(("recover_after".into(), r.to_value()));
        }
        Value::Map(m)
    }
}

impl Deserialize for CoreFailure {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map_for("CoreFailure")?;
        Ok(CoreFailure {
            core: serde::field(m, "core", "CoreFailure")?,
            at: serde::field(m, "at", "CoreFailure")?,
            recover_after: serde::field(m, "recover_after", "CoreFailure")?,
        })
    }
}

/// A complete, seeded fault schedule for one run. Participates in spec
/// digests and cell keys through [`ScenarioSpec::faults`]
/// (crate::exp::ScenarioSpec) — a faulted cell is a *different* cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Scheduled core fail-stop / fail-recover events.
    pub core_failures: Vec<CoreFailure>,
    /// Probability in [0, 1] that any single DVFS/RSU reconfiguration
    /// write fails transiently.
    pub reconfig_fail_p: f64,
    /// Probability in [0, 1] that a completing task suffers a transient
    /// fault and must re-execute (bounded by `max_retries` per task).
    pub task_fault_p: f64,
    /// Bound on per-task re-executions and per-write native retries.
    pub max_retries: u32,
    /// Recovery-policy registry key deciding what happens to displaced
    /// work (see [`RecoveryRegistry`]).
    pub recovery: String,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            core_failures: Vec::new(),
            reconfig_fail_p: 0.0,
            task_fault_p: 0.0,
            max_retries: DEFAULT_MAX_RETRIES,
            recovery: DEFAULT_RECOVERY.to_string(),
        }
    }
}

// Hand-written serde: serialization emits every field (deterministic,
// digest-stable), deserialization defaults missing fields so hand-written
// fault specs only mention what they change.
impl Serialize for FaultSpec {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("core_failures".into(), self.core_failures.to_value()),
            ("reconfig_fail_p".into(), self.reconfig_fail_p.to_value()),
            ("task_fault_p".into(), self.task_fault_p.to_value()),
            ("max_retries".into(), self.max_retries.to_value()),
            ("recovery".into(), self.recovery.to_value()),
        ])
    }
}

impl Deserialize for FaultSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map_for("FaultSpec")?;
        let d = FaultSpec::default();
        let core_failures: Option<Vec<CoreFailure>> =
            serde::field(m, "core_failures", "FaultSpec")?;
        let reconfig_fail_p: Option<f64> = serde::field(m, "reconfig_fail_p", "FaultSpec")?;
        let task_fault_p: Option<f64> = serde::field(m, "task_fault_p", "FaultSpec")?;
        let max_retries: Option<u32> = serde::field(m, "max_retries", "FaultSpec")?;
        let recovery: Option<String> = serde::field(m, "recovery", "FaultSpec")?;
        Ok(FaultSpec {
            core_failures: core_failures.unwrap_or(d.core_failures),
            reconfig_fail_p: reconfig_fail_p.unwrap_or(d.reconfig_fail_p),
            task_fault_p: task_fault_p.unwrap_or(d.task_fault_p),
            max_retries: max_retries.unwrap_or(d.max_retries),
            recovery: recovery.unwrap_or(d.recovery),
        })
    }
}

impl FaultSpec {
    /// True when this spec injects nothing (no failures, zero
    /// probabilities) — engines skip the fault machinery entirely.
    pub fn is_noop(&self) -> bool {
        self.core_failures.is_empty() && self.reconfig_fail_p == 0.0 && self.task_fault_p == 0.0
    }

    /// Structural validation against the machine the spec will run on.
    pub fn validate(&self, num_cores: usize) -> Result<(), ExpError> {
        for f in &self.core_failures {
            if f.core >= num_cores {
                return Err(ExpError::InvalidSpec(format!(
                    "fault schedule fails core {} but the machine has {} cores",
                    f.core, num_cores
                )));
            }
        }
        if self
            .core_failures
            .iter()
            .filter(|f| f.recover_after.is_none())
            .map(|f| f.core)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            >= num_cores
        {
            return Err(ExpError::InvalidSpec(
                "fault schedule permanently fails every core".to_string(),
            ));
        }
        for (what, p) in [
            ("reconfig_fail_p", self.reconfig_fail_p),
            ("task_fault_p", self.task_fault_p),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(ExpError::InvalidSpec(format!(
                    "{what} must be a probability in [0, 1], got {p}"
                )));
            }
        }
        if self.recovery.is_empty() {
            return Err(ExpError::InvalidSpec("empty recovery key".to_string()));
        }
        Ok(())
    }

    /// Serializes to JSON — the standalone `--faults FILE` form.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fault spec serializes")
    }

    /// Parses a standalone fault-spec JSON file. Missing fields default,
    /// so a file may mention only what it changes.
    pub fn from_json(text: &str) -> Result<Self, ExpError> {
        serde_json::from_str(text).map_err(|e| ExpError::Parse(e.to_string()))
    }

    /// Parses the `--fault-cores` CLI shorthand: a comma-separated list
    /// of `CORE@AT` (permanent) or `CORE@AT+RECOVER` (fail-recover)
    /// entries, with durations in the usual suffix form (`5ms`, `200us`,
    /// bare numbers = ms). Example: `0@1ms,3@2ms+5ms`.
    pub fn parse_cores(text: &str) -> Result<Vec<CoreFailure>, String> {
        fn duration(text: &str) -> Result<SimDuration, String> {
            let (num, mul) = if let Some(t) = text.strip_suffix("ms") {
                (t, 1_000_000_000)
            } else if let Some(t) = text.strip_suffix("us") {
                (t, 1_000_000)
            } else if let Some(t) = text.strip_suffix("ns") {
                (t, 1_000)
            } else if let Some(t) = text.strip_suffix("ps") {
                (t, 1)
            } else if let Some(t) = text.strip_suffix('s') {
                (t, 1_000_000_000_000)
            } else {
                (text, 1_000_000_000)
            };
            num.trim()
                .parse::<u64>()
                .map(|n| SimDuration::from_ps(n * mul))
                .map_err(|_| format!("bad duration `{text}`"))
        }
        let mut out = Vec::new();
        for entry in text.split(',').filter(|e| !e.is_empty()) {
            let (core, when) = entry
                .split_once('@')
                .ok_or_else(|| format!("bad fault entry `{entry}` (want CORE@AT[+RECOVER])"))?;
            let core = core
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("bad core index `{core}`"))?;
            let (at, recover_after) = match when.split_once('+') {
                Some((at, rec)) => (duration(at.trim())?, Some(duration(rec.trim())?)),
                None => (duration(when.trim())?, None),
            };
            out.push(CoreFailure {
                core,
                at,
                recover_after,
            });
        }
        Ok(out)
    }
}

/// What a run observed under fault injection. Rides
/// [`RunReport::fault`](crate::RunReport), omitted when the run had no
/// [`FaultSpec`], so fault-free reports stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Core fail-stop events injected.
    pub injected: u64,
    /// Cores that recovered (fail-recover windows that closed).
    pub recovered_cores: u64,
    /// In-flight tasks displaced by a core failure.
    pub displaced: u64,
    /// Task executions repeated — displaced tasks re-dispatched plus
    /// transient-fault re-executions.
    pub reexecuted: u64,
    /// Graph instances shed by the recovery policy (service mode only).
    pub shed: u64,
    /// Transient task faults injected at completion boundaries.
    pub task_faults: u64,
    /// Reconfiguration writes that failed (simulated or native).
    pub reconfig_faults: u64,
    /// Failed reconfiguration writes that succeeded on a bounded retry
    /// (native runtime).
    pub reconfig_recovered: u64,
    /// Reconfiguration writes whose retries were exhausted — the core
    /// degraded to its current frequency class.
    pub reconfig_exhausted: u64,
    /// Capacity-time lost to failed cores (sum over cores of time spent
    /// failed within the run window).
    pub capacity_lost: SimDuration,
    /// Latency from displacement to re-dispatch of each displaced task.
    pub recovery_latency: LatencyHistogram,
    /// Makespan ratio vs the fault-free twin of the same spec (1.0 = no
    /// degradation; 0.0 when no twin was run, e.g. service mode).
    pub makespan_degradation: f64,
}

impl FaultReport {
    /// Compact-JSON digest of the whole report — the CI chaos-smoke
    /// determinism pin (same spec + seed ⇒ same digest).
    pub fn digest(&self) -> String {
        cata_tdg::fnv1a_hex(
            serde_json::to_string(self)
                .expect("fault report serializes")
                .bytes(),
        )
    }

    /// Merges another report into this one (shard/store merging).
    pub fn merge(&mut self, o: &FaultReport) {
        self.injected += o.injected;
        self.recovered_cores += o.recovered_cores;
        self.displaced += o.displaced;
        self.reexecuted += o.reexecuted;
        self.shed += o.shed;
        self.task_faults += o.task_faults;
        self.reconfig_faults += o.reconfig_faults;
        self.reconfig_recovered += o.reconfig_recovered;
        self.reconfig_exhausted += o.reconfig_exhausted;
        self.capacity_lost += o.capacity_lost;
        self.recovery_latency.merge(&o.recovery_latency);
        self.makespan_degradation = self.makespan_degradation.max(o.makespan_degradation);
    }

    /// One-line human summary appended to `RunReport::summary()`.
    pub fn summary(&self) -> String {
        format!(
            "faults: injected={} recovered={} displaced={} reexec={} shed={} capacity_lost={} degradation={:.3}x",
            self.injected,
            self.recovered_cores,
            self.displaced,
            self.reexecuted,
            self.shed,
            self.capacity_lost,
            self.makespan_degradation,
        )
    }
}

/// What the recovery policy sees when a core failure displaces a task
/// (or, in service mode, threatens an instance).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryCtx {
    /// The failure instant.
    pub now: SimTime,
    /// The core that failed.
    pub failed_core: usize,
    /// The displaced task carries a criticality annotation.
    pub critical: bool,
    /// The failure is permanent (no recovery window scheduled).
    pub permanent: bool,
    /// The machine is currently degraded (at least one core failed).
    pub degraded: bool,
}

/// What to do with a displaced task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Re-enqueue the task for re-execution on a survivor.
    Requeue {
        /// Prefer a fast core for the retry (jump the displaced task to
        /// the accelerated family even if it was not critical).
        prefer_fast: bool,
    },
    /// Drop the work: an open service run sheds the displaced task's
    /// whole graph instance. A source that cannot shed requeues the task
    /// instead; a closed run is one (dropping a DAG node would deadlock
    /// its successors).
    Shed,
}

/// A recovery policy: called once per displaced task, in displacement
/// order, so stateful policies replay deterministically.
pub trait RecoveryPolicy: Send {
    /// Registry key / display name.
    fn name(&self) -> &'static str;
    /// Decides the fate of one displaced task.
    fn on_displaced(&mut self, ctx: &RecoveryCtx) -> RecoveryAction;
}

/// Re-execute displaced work with its original placement preference.
#[derive(Debug, Default)]
struct RetrySameCore;

impl RecoveryPolicy for RetrySameCore {
    fn name(&self) -> &'static str {
        "retry-same-core"
    }
    fn on_displaced(&mut self, _ctx: &RecoveryCtx) -> RecoveryAction {
        RecoveryAction::Requeue { prefer_fast: false }
    }
}

/// Re-execute displaced work preferring the fast-core family — displaced
/// work is late by definition, so treat it like critical work.
#[derive(Debug, Default)]
struct ReroutePreferFast;

impl RecoveryPolicy for ReroutePreferFast {
    fn name(&self) -> &'static str {
        "reroute-prefer-fast"
    }
    fn on_displaced(&mut self, _ctx: &RecoveryCtx) -> RecoveryAction {
        RecoveryAction::Requeue { prefer_fast: true }
    }
}

/// While the machine is degraded, shed displaced *non-critical* work and
/// reroute critical work to fast cores — the fault-side analogue of the
/// `shed-noncritical` admission policy.
#[derive(Debug, Default)]
struct ShedNoncriticalOnDegraded;

impl RecoveryPolicy for ShedNoncriticalOnDegraded {
    fn name(&self) -> &'static str {
        "shed-noncritical-on-degraded"
    }
    fn on_displaced(&mut self, ctx: &RecoveryCtx) -> RecoveryAction {
        if ctx.degraded && !ctx.critical {
            RecoveryAction::Shed
        } else {
            RecoveryAction::Requeue { prefer_fast: true }
        }
    }
}

/// Factory signature: the fault spec in, a boxed policy out.
pub type RecoveryFactory =
    dyn Fn(&FaultSpec) -> Result<Box<dyn RecoveryPolicy>, ExpError> + Send + Sync;

/// String-keyed recovery-policy registry, mirroring
/// [`AdmissionRegistry`](crate::service::AdmissionRegistry).
#[derive(Clone, Default)]
pub struct RecoveryRegistry {
    entries: BTreeMap<String, Arc<RecoveryFactory>>,
}

impl RecoveryRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A registry with the built-in family: `retry-same-core`,
    /// `reroute-prefer-fast`, `shed-noncritical-on-degraded`.
    pub fn with_builtins() -> Self {
        let mut r = Self::empty();
        r.register("retry-same-core", |_s| {
            Ok(Box::new(RetrySameCore) as Box<dyn RecoveryPolicy>)
        });
        r.register("reroute-prefer-fast", |_s| {
            Ok(Box::new(ReroutePreferFast) as Box<dyn RecoveryPolicy>)
        });
        r.register("shed-noncritical-on-degraded", |_s| {
            Ok(Box::new(ShedNoncriticalOnDegraded) as Box<dyn RecoveryPolicy>)
        });
        r
    }

    /// Registers (or replaces) a policy under `key`.
    pub fn register<F>(&mut self, key: impl Into<String>, factory: F)
    where
        F: Fn(&FaultSpec) -> Result<Box<dyn RecoveryPolicy>, ExpError> + Send + Sync + 'static,
    {
        self.entries.insert(key.into(), Arc::new(factory));
    }

    /// Registered keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Builds the policy registered under `key`.
    pub fn build(&self, key: &str, spec: &FaultSpec) -> Result<Box<dyn RecoveryPolicy>, ExpError> {
        let f = self
            .entries
            .get(key)
            .ok_or_else(|| ExpError::UnknownRecovery {
                key: key.to_string(),
                known: self.keys(),
            })?;
        f(spec)
    }
}

impl std::fmt::Debug for RecoveryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryRegistry")
            .field("keys", &self.keys())
            .finish()
    }
}

/// The process-wide default registry (builtins only), built once.
pub fn default_recovery_registry() -> &'static RecoveryRegistry {
    static REG: OnceLock<RecoveryRegistry> = OnceLock::new();
    REG.get_or_init(RecoveryRegistry::with_builtins)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(critical: bool, degraded: bool) -> RecoveryCtx {
        RecoveryCtx {
            now: SimTime::ZERO,
            failed_core: 0,
            critical,
            permanent: true,
            degraded,
        }
    }

    #[test]
    fn builtins_resolve_and_behave() {
        let reg = default_recovery_registry();
        assert_eq!(
            reg.keys(),
            vec![
                "reroute-prefer-fast",
                "retry-same-core",
                "shed-noncritical-on-degraded"
            ]
        );
        let s = FaultSpec::default();
        let mut same = reg.build("retry-same-core", &s).unwrap();
        assert_eq!(
            same.on_displaced(&ctx(false, true)),
            RecoveryAction::Requeue { prefer_fast: false }
        );
        let mut fast = reg.build("reroute-prefer-fast", &s).unwrap();
        assert_eq!(
            fast.on_displaced(&ctx(false, true)),
            RecoveryAction::Requeue { prefer_fast: true }
        );
        let mut shed = reg.build("shed-noncritical-on-degraded", &s).unwrap();
        assert_eq!(shed.on_displaced(&ctx(false, true)), RecoveryAction::Shed);
        assert_eq!(
            shed.on_displaced(&ctx(true, true)),
            RecoveryAction::Requeue { prefer_fast: true },
            "critical work is never shed"
        );
        assert_eq!(
            shed.on_displaced(&ctx(false, false)),
            RecoveryAction::Requeue { prefer_fast: true },
            "nothing is shed while at full capacity"
        );
    }

    #[test]
    fn unknown_key_reports_the_known_set() {
        let Err(err) = default_recovery_registry().build("nope", &FaultSpec::default()) else {
            panic!("unknown key must not resolve");
        };
        let msg = err.to_string();
        assert!(
            msg.contains("nope") && msg.contains("retry-same-core"),
            "{msg}"
        );
    }

    #[test]
    fn spec_serde_defaults_missing_fields_and_round_trips() {
        // A minimal hand-written spec parses with defaults filled in.
        let v = serde_json::from_str::<Value>(r#"{"task_fault_p":0.25}"#).unwrap();
        let s = FaultSpec::from_value(&v).unwrap();
        assert_eq!(s.task_fault_p, 0.25);
        assert_eq!(s.max_retries, DEFAULT_MAX_RETRIES);
        assert_eq!(s.recovery, DEFAULT_RECOVERY);
        assert!(s.core_failures.is_empty());

        // Full round trip, including permanent + recovering failures.
        let full = FaultSpec {
            core_failures: vec![
                CoreFailure {
                    core: 0,
                    at: SimDuration::from_ms(1),
                    recover_after: None,
                },
                CoreFailure {
                    core: 3,
                    at: SimDuration::from_ms(2),
                    recover_after: Some(SimDuration::from_ms(5)),
                },
            ],
            reconfig_fail_p: 0.1,
            task_fault_p: 0.01,
            max_retries: 2,
            recovery: "reroute-prefer-fast".to_string(),
        };
        let json = serde_json::to_string(&full).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, full);
        // Permanent failures omit `recover_after` entirely.
        assert_eq!(json.matches("recover_after").count(), 1, "{json}");
    }

    #[test]
    fn validation_rejects_bad_schedules() {
        let mut s = FaultSpec {
            core_failures: vec![CoreFailure {
                core: 9,
                at: SimDuration::ZERO,
                recover_after: None,
            }],
            ..FaultSpec::default()
        };
        assert!(s.validate(4).is_err(), "core out of range");
        s.core_failures[0].core = 0;
        assert!(s.validate(4).is_ok());
        s.reconfig_fail_p = 1.5;
        assert!(s.validate(4).is_err(), "probability out of range");
        s.reconfig_fail_p = 0.0;
        s.core_failures = (0..4)
            .map(|c| CoreFailure {
                core: c,
                at: SimDuration::ZERO,
                recover_after: None,
            })
            .collect();
        assert!(s.validate(4).is_err(), "whole machine permanently dead");
    }

    #[test]
    fn parse_cores_shorthand() {
        let fs = FaultSpec::parse_cores("0@1ms,3@2ms+5ms").unwrap();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].core, 0);
        assert_eq!(fs[0].at, SimDuration::from_ms(1));
        assert_eq!(fs[0].recover_after, None);
        assert_eq!(fs[1].core, 3);
        assert_eq!(fs[1].recover_after, Some(SimDuration::from_ms(5)));
        // Bare numbers are milliseconds; explicit suffixes work.
        let fs = FaultSpec::parse_cores("1@2+200us").unwrap();
        assert_eq!(fs[0].at, SimDuration::from_ms(2));
        assert_eq!(fs[0].recover_after, Some(SimDuration::from_us(200)));
        assert!(FaultSpec::parse_cores("nope").is_err());
        assert!(FaultSpec::parse_cores("0@x").is_err());
    }

    #[test]
    fn fault_rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = fault_rng(42);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = fault_rng(42);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = fault_rng(43);
                move |_| r.next_u64()
            })
            .collect();
        assert_ne!(a, c);
        let mut r = fault_rng(7);
        for _ in 0..1000 {
            let u = r.next_unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn report_digest_is_stable_and_merge_accumulates() {
        let mut a = FaultReport {
            injected: 2,
            displaced: 3,
            reexecuted: 3,
            capacity_lost: SimDuration::from_ms(1),
            makespan_degradation: 1.2,
            ..FaultReport::default()
        };
        a.recovery_latency.record(SimDuration::from_us(10));
        assert_eq!(a.digest(), a.clone().digest());
        let b = FaultReport {
            injected: 1,
            shed: 4,
            makespan_degradation: 1.5,
            ..FaultReport::default()
        };
        let d_before = a.digest();
        a.merge(&b);
        assert_eq!(a.injected, 3);
        assert_eq!(a.shed, 4);
        assert_eq!(a.capacity_lost, SimDuration::from_ms(1));
        assert_eq!(a.makespan_degradation, 1.5);
        assert_ne!(a.digest(), d_before);
        // Round trip.
        let json = serde_json::to_string(&a).unwrap();
        let back: FaultReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}
