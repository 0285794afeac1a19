//! Admission control: the pluggable gate arriving graph instances pass
//! (or don't) before entering the system.
//!
//! An overloaded open system must either queue without bound or shed
//! load. The policies are small `dyn` objects built by the factories of
//! a [`Registry`], the one type every policy family resolves its keys
//! through: experiments name their admission policy in the
//! [`ServiceSpec`](super::ServiceSpec), external crates can
//! [`insert`](Registry::insert) their own, and an unknown key fails with
//! [`ExpError::UnknownKey`].

use super::spec::AdmissionParams;
use crate::exp::error::ExpError;
use crate::exp::registry::Registry;
use cata_sim::time::SimTime;
use std::sync::{Arc, OnceLock};

/// What the gate sees when an instance arrives.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionCtx {
    /// Arrival instant.
    pub now: SimTime,
    /// Graph instances admitted but not yet completed.
    pub in_flight: usize,
    /// Tasks currently sitting in the scheduler's ready queues.
    pub ready_tasks: usize,
    /// The arriving instance contains criticality-annotated tasks.
    pub critical: bool,
    /// Tenant tag from the traffic tape (0 for generated traffic).
    pub tenant: u32,
}

/// An admission decision per arriving graph instance.
///
/// Policies may keep state (token buckets, per-tenant counters); the
/// engine calls [`admit`](Self::admit) exactly once per arrival, in
/// arrival order, so stateful policies replay deterministically.
pub trait AdmissionPolicy: Send {
    /// `true` admits the instance; `false` drops it at the door.
    fn admit(&mut self, ctx: &AdmissionCtx) -> bool;
}

/// Default in-flight cap for the bounded policies when the spec does not
/// say otherwise.
pub const DEFAULT_QUEUE_CAP: usize = 64;

/// Admits everything — the unbounded baseline. Under sustained overload
/// the queue (and the tail) grows without limit; that growth is the
/// measurement.
#[derive(Debug, Default)]
struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn admit(&mut self, _ctx: &AdmissionCtx) -> bool {
        true
    }
}

/// Drops arrivals while more than `cap` instances are in flight — the
/// classic bounded-queue front door.
#[derive(Debug)]
struct QueueCap {
    cap: usize,
}

impl AdmissionPolicy for QueueCap {
    fn admit(&mut self, ctx: &AdmissionCtx) -> bool {
        ctx.in_flight < self.cap
    }
}

/// Criticality-aware shedding: over the cap, only instances that carry
/// critical (annotated) tasks get in — the service-mode analogue of the
/// paper's "critical tasks deserve the fast cores" priority.
#[derive(Debug)]
struct CriticalityShed {
    cap: usize,
}

impl AdmissionPolicy for CriticalityShed {
    fn admit(&mut self, ctx: &AdmissionCtx) -> bool {
        ctx.in_flight < self.cap || ctx.critical
    }
}

/// Factory signature: parameters in, boxed policy out.
pub type AdmissionFactory =
    dyn Fn(&AdmissionParams) -> Result<Box<dyn AdmissionPolicy>, ExpError> + Send + Sync;

/// The admission-policy [`Registry`].
pub type AdmissionRegistry = Registry<Arc<AdmissionFactory>>;

impl AdmissionRegistry {
    /// A registry with the built-in family: `admit-all`, `queue-cap`,
    /// `shed-noncritical`.
    pub fn with_builtins() -> Self {
        let cap = |p: &AdmissionParams| p.queue_cap.unwrap_or(DEFAULT_QUEUE_CAP);
        let mut r = Self::new("admission policy");
        r.insert("admit-all", Arc::new(|_| Ok(Box::new(AdmitAll))));
        r.insert(
            "queue-cap",
            Arc::new(move |p| Ok(Box::new(QueueCap { cap: cap(p) }))),
        );
        r.insert(
            "shed-noncritical",
            Arc::new(move |p| Ok(Box::new(CriticalityShed { cap: cap(p) }))),
        );
        r
    }

    /// Builds the policy registered under `key`.
    pub fn build(
        &self,
        key: &str,
        params: &AdmissionParams,
    ) -> Result<Box<dyn AdmissionPolicy>, ExpError> {
        self.get(key)?(params)
    }
}

/// The process-wide default registry (builtins only), built once.
pub fn default_admission_registry() -> &'static AdmissionRegistry {
    static REG: OnceLock<AdmissionRegistry> = OnceLock::new();
    REG.get_or_init(AdmissionRegistry::with_builtins)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(in_flight: usize, critical: bool) -> AdmissionCtx {
        AdmissionCtx {
            now: SimTime::ZERO,
            in_flight,
            ready_tasks: 0,
            critical,
            tenant: 0,
        }
    }

    #[test]
    fn builtins_resolve_and_behave() {
        let reg = default_admission_registry();
        assert_eq!(
            reg.keys(),
            vec!["admit-all", "queue-cap", "shed-noncritical"]
        );
        let p = AdmissionParams { queue_cap: Some(2) };
        let mut all = reg.build("admit-all", &p).unwrap();
        assert!(all.admit(&ctx(1_000_000, false)));

        let mut cap = reg.build("queue-cap", &p).unwrap();
        assert!(cap.admit(&ctx(1, true)));
        assert!(!cap.admit(&ctx(2, true)), "cap binds even for critical");

        let mut shed = reg.build("shed-noncritical", &p).unwrap();
        assert!(shed.admit(&ctx(1, false)));
        assert!(!shed.admit(&ctx(2, false)));
        assert!(
            shed.admit(&ctx(2, true)),
            "critical instances bypass the cap"
        );
    }

    #[test]
    fn unknown_key_reports_the_known_set() {
        let Err(err) = default_admission_registry().build("nope", &AdmissionParams::default())
        else {
            panic!("unknown key must not resolve");
        };
        let msg = err.to_string();
        assert!(msg.contains("nope") && msg.contains("queue-cap"), "{msg}");
    }
}
