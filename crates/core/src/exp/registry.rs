//! String-keyed registries of policy factories.
//!
//! Every pluggable family of the workspace resolves a spec's string key
//! through one type, [`Registry`]: a sorted map from key to entry whose
//! lookup fails with [`ExpError::UnknownKey`], naming the family, the key
//! and every registered key. The families are the three policy
//! dimensions of a [`ScenarioSpec`] held in [`PolicyRegistries`] —
//! scheduler, criticality estimator, acceleration manager — plus memory
//! arbitration ([`ArbitrationRegistry`](crate::mem::ArbitrationRegistry)),
//! fault recovery ([`RecoveryRegistry`](crate::fault::RecoveryRegistry))
//! and service admission
//! ([`AdmissionRegistry`](crate::service::AdmissionRegistry)).
//!
//! The six paper configurations are pre-registered under
//! [`PolicyRegistries::with_builtins`]; third-party policies register a
//! factory closure under a new key and work with the suite runner and
//! the bench harness without touching `cata-core`. A registered scheduler
//! or estimator works with every executor. An acceleration manager drives
//! the simulator only: the native runtime accepts the accel keys
//! `static-hetero`, `software-cata` and `rsu`
//! ([`native_rsm_mode`](super::executor::native_rsm_mode)).

use super::error::ExpError;
use super::spec::{PolicyParams, ScenarioSpec};
use crate::accel::{AccelManager, RsuCata, SoftwareCata, StaticAccel, TurboModeCtl};
use crate::policy::{CatsPolicy, FifoPolicy, SchedulerPolicy};
use cata_sim::machine::Machine;
use cata_tdg::criticality::{BottomLevelEstimator, CriticalityEstimator, StaticAnnotations};
use cata_tdg::{TaskGraph, TaskId};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A family of entries under string keys, sorted by key. A family's
/// entry is its factory, as an `Arc<dyn Fn…>`, paired with any flag the
/// engine reads before building.
#[derive(Clone)]
pub struct Registry<T> {
    kind: &'static str,
    entries: BTreeMap<String, T>,
}

impl<T> Registry<T> {
    /// An empty registry; `kind` is the family's noun in its unknown-key
    /// error (`"scheduler"`, `"arbitration policy"`, …).
    pub fn new(kind: &'static str) -> Self {
        Registry {
            kind,
            entries: BTreeMap::new(),
        }
    }

    /// Registers (or replaces) `entry` under `key`.
    pub fn insert(&mut self, key: impl Into<String>, entry: T) {
        self.entries.insert(key.into(), entry);
    }

    /// The registered keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// The entry under `key`, or [`ExpError::UnknownKey`] naming the known
    /// keys.
    pub fn get(&self, key: &str) -> Result<&T, ExpError> {
        self.entries.get(key).ok_or_else(|| ExpError::UnknownKey {
            kind: self.kind,
            key: key.to_string(),
            known: self.keys(),
        })
    }
}

/// Prints the registered keys.
impl<T> std::fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.entries.keys()).finish()
    }
}

/// Estimator for configurations that ignore criticality: every task is
/// non-critical (FIFO's single queue; TurboMode).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllNonCritical;

impl CriticalityEstimator for AllNonCritical {
    fn classify_level(&mut self, _graph: &TaskGraph, _task: TaskId) -> u8 {
        0
    }
}

/// Everything a policy factory may consult while constructing its policy.
pub struct FactoryCtx<'a> {
    /// The already-constructed machine of the run.
    pub machine: &'a Machine,
    /// Per-core static speed class (all-true on homogeneous machines).
    pub is_fast_static: &'a [bool],
    /// Fast-core count / power budget.
    pub fast_cores: usize,
    /// The run seed (e.g. TurboMode's victim picks).
    pub seed: u64,
    /// Policy parameters from the spec.
    pub params: &'a PolicyParams,
}

type SchedFactory =
    dyn Fn(&FactoryCtx<'_>) -> Result<Box<dyn SchedulerPolicy>, ExpError> + Send + Sync;
type EstFactory =
    dyn Fn(&FactoryCtx<'_>) -> Result<Box<dyn CriticalityEstimator>, ExpError> + Send + Sync;
type AccelFactory =
    dyn Fn(&FactoryCtx<'_>) -> Result<Box<dyn AccelManager>, ExpError> + Send + Sync;

/// The three policy registries of the experiment facade. A scheduler is
/// registered with its `prefer_fast` flag, an acceleration manager with
/// its `static_hetero` flag.
#[derive(Clone, Debug)]
pub struct PolicyRegistries {
    schedulers: Registry<(bool, Arc<SchedFactory>)>,
    estimators: Registry<Arc<EstFactory>>,
    accels: Registry<(bool, Arc<AccelFactory>)>,
}

impl PolicyRegistries {
    /// Empty registries (useful for fully custom matrices).
    pub fn empty() -> Self {
        PolicyRegistries {
            schedulers: Registry::new("scheduler"),
            estimators: Registry::new("estimator"),
            accels: Registry::new("acceleration manager"),
        }
    }

    /// Registries pre-loaded with every policy of the paper's comparison
    /// matrix:
    ///
    /// | kind | keys |
    /// |---|---|
    /// | scheduler | `fifo`, `cats`, `cats-homogeneous` |
    /// | estimator | `none`, `static-annotations`, `bottom-level` |
    /// | accel | `static-hetero`, `software-cata`, `rsu`, `turbo` |
    pub fn with_builtins() -> Self {
        let mut r = Self::empty();
        r.register_scheduler("fifo", false, |_ctx| Ok(Box::new(FifoPolicy::new())));
        r.register_scheduler("cats", true, |ctx| {
            Ok(Box::new(CatsPolicy::new(ctx.is_fast_static)))
        });
        r.register_scheduler("cats-homogeneous", true, |ctx| {
            Ok(Box::new(CatsPolicy::homogeneous(ctx.machine.num_cores())))
        });

        r.register_estimator("none", |_ctx| Ok(Box::new(AllNonCritical)));
        r.register_estimator("static-annotations", |_ctx| Ok(Box::new(StaticAnnotations)));
        r.register_estimator("bottom-level", |ctx| {
            let alpha = ctx.params.alpha_or_default();
            if !(alpha > 0.0 && alpha <= 1.0) {
                return Err(ExpError::InvalidSpec(format!(
                    "bottom-level alpha must be in (0, 1], got {alpha}"
                )));
            }
            Ok(Box::new(BottomLevelEstimator::with_alpha(alpha)))
        });

        r.register_accel("static-hetero", true, |_ctx| Ok(Box::new(StaticAccel)));
        r.register_accel("software-cata", false, |ctx| {
            Ok(Box::new(SoftwareCata::new(
                ctx.machine,
                ctx.fast_cores,
                ctx.params.software_path_or_default(),
            )))
        });
        r.register_accel("rsu", false, |ctx| {
            Ok(Box::new(RsuCata::new(ctx.machine, ctx.fast_cores)))
        });
        r.register_accel("turbo", false, |ctx| {
            Ok(Box::new(TurboModeCtl::new(
                ctx.machine,
                ctx.fast_cores,
                ctx.seed,
            )))
        });
        r
    }

    /// Registers (or replaces) a scheduler factory under `key`.
    /// `prefer_fast` tells the dispatch loop to offer idle fast cores
    /// first.
    pub fn register_scheduler(
        &mut self,
        key: impl Into<String>,
        prefer_fast: bool,
        factory: impl Fn(&FactoryCtx<'_>) -> Result<Box<dyn SchedulerPolicy>, ExpError>
            + Send
            + Sync
            + 'static,
    ) {
        self.schedulers
            .insert(key, (prefer_fast, Arc::new(factory)));
    }

    /// Registers (or replaces) an estimator factory under `key`.
    pub fn register_estimator(
        &mut self,
        key: impl Into<String>,
        factory: impl Fn(&FactoryCtx<'_>) -> Result<Box<dyn CriticalityEstimator>, ExpError>
            + Send
            + Sync
            + 'static,
    ) {
        self.estimators.insert(key, Arc::new(factory));
    }

    /// Registers (or replaces) an acceleration-manager factory under `key`.
    /// `static_hetero` selects the statically heterogeneous machine build.
    pub fn register_accel(
        &mut self,
        key: impl Into<String>,
        static_hetero: bool,
        factory: impl Fn(&FactoryCtx<'_>) -> Result<Box<dyn AccelManager>, ExpError>
            + Send
            + Sync
            + 'static,
    ) {
        self.accels.insert(key, (static_hetero, Arc::new(factory)));
    }

    /// The registered scheduler keys, sorted.
    pub fn scheduler_keys(&self) -> Vec<String> {
        self.schedulers.keys()
    }

    /// Constructs a scheduler policy by key (trait-object path).
    pub fn build_scheduler(
        &self,
        key: &str,
        ctx: &FactoryCtx<'_>,
    ) -> Result<Box<dyn SchedulerPolicy>, ExpError> {
        (self.schedulers.get(key)?.1)(ctx)
    }

    /// Constructs a criticality estimator by key (trait-object path).
    pub fn build_estimator(
        &self,
        key: &str,
        ctx: &FactoryCtx<'_>,
    ) -> Result<Box<dyn CriticalityEstimator>, ExpError> {
        self.estimators.get(key)?(ctx)
    }

    /// Constructs an acceleration manager by key (trait-object path).
    pub fn build_accel(
        &self,
        key: &str,
        ctx: &FactoryCtx<'_>,
    ) -> Result<Box<dyn AccelManager>, ExpError> {
        (self.accels.get(key)?.1)(ctx)
    }

    /// Resolves a spec's policy triple into engine-ready parts: builds the
    /// machine (honoring the accel entry's `static_hetero`), then each
    /// policy through its factory.
    pub fn resolve(&self, spec: &ScenarioSpec) -> Result<ResolvedPolicies, ExpError> {
        let fast_cores = spec.fast_cores;
        let n_cores = spec.machine.num_cores;
        if fast_cores > n_cores {
            return Err(ExpError::InvalidSpec(format!(
                "fast_cores {fast_cores} exceeds machine size {n_cores}"
            )));
        }
        let &(static_hetero, ref accel) = self.accels.get(&spec.accel)?;
        let &(prefer_fast, ref scheduler) = self.schedulers.get(&spec.scheduler)?;
        let machine = if static_hetero {
            Machine::new_static_hetero(spec.machine.clone(), fast_cores)
        } else {
            Machine::new(spec.machine.clone())
        };
        let is_fast_static: Vec<bool> = (0..n_cores)
            .map(|i| !static_hetero || i < fast_cores)
            .collect();
        let params = spec.params_or_default();
        let ctx = FactoryCtx {
            machine: &machine,
            is_fast_static: &is_fast_static,
            fast_cores,
            seed: spec.seed,
            params: &params,
        };
        let policy = scheduler(&ctx)?;
        let estimator = self.build_estimator(&spec.estimator, &ctx)?;
        let accel = accel(&ctx)?;
        Ok(ResolvedPolicies {
            policy,
            estimator,
            accel,
            machine,
            is_fast_static,
            prefer_fast,
        })
    }
}

impl Default for PolicyRegistries {
    fn default() -> Self {
        Self::with_builtins()
    }
}

/// Engine-ready resolution output: the constructed machine and the three
/// boxed policies.
pub struct ResolvedPolicies {
    /// The ready-queue policy.
    pub policy: Box<dyn SchedulerPolicy>,
    /// The criticality estimator.
    pub estimator: Box<dyn CriticalityEstimator>,
    /// The acceleration manager.
    pub accel: Box<dyn AccelManager>,
    /// The constructed machine.
    pub machine: Machine,
    /// Per-core static speed class.
    pub is_fast_static: Vec<bool>,
    /// The dispatch loop offers idle fast cores first (the scheduler's
    /// flag: CATS exploits core speeds, FIFO is blind).
    pub prefer_fast: bool,
}

/// Prints the flags only: the boxed policies are named by the spec's keys.
impl std::fmt::Debug for ResolvedPolicies {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedPolicies")
            .field("prefer_fast", &self.prefer_fast)
            .finish_non_exhaustive()
    }
}

/// The process-wide default registries (builtins only). Scenarios without
/// explicit registries resolve through these.
pub fn default_registries() -> &'static Arc<PolicyRegistries> {
    static DEFAULT: OnceLock<Arc<PolicyRegistries>> = OnceLock::new();
    DEFAULT.get_or_init(|| Arc::new(PolicyRegistries::with_builtins()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::spec::WorkloadSpec;

    /// A spec with the given policy keys on a 4-core machine, 2 fast.
    fn keyed(scheduler: &str, estimator: &str, accel: &str) -> ScenarioSpec {
        ScenarioSpec {
            scheduler: scheduler.into(),
            estimator: estimator.into(),
            accel: accel.into(),
            seed: 7,
            ..ScenarioSpec::new("keys", WorkloadSpec::Chain { n: 0, cycles: 0 })
        }
        .with_small_machine(4, 2)
    }

    #[test]
    fn builtin_keys_resolve() {
        for (s, e, a) in [
            ("fifo", "none", "static-hetero"),
            ("cats", "bottom-level", "static-hetero"),
            ("cats", "static-annotations", "static-hetero"),
            ("cats-homogeneous", "static-annotations", "software-cata"),
            ("cats-homogeneous", "static-annotations", "rsu"),
            ("fifo", "none", "turbo"),
        ] {
            let r = PolicyRegistries::with_builtins()
                .resolve(&keyed(s, e, a))
                .unwrap_or_else(|err| panic!("{s}/{e}/{a}: {err}"));
            assert_eq!(r.is_fast_static.len(), 4);
        }
    }

    #[test]
    fn unknown_keys_name_the_alternatives() {
        let err = PolicyRegistries::with_builtins()
            .resolve(&keyed("fifo", "none", "warp-drive"))
            .unwrap_err();
        match err {
            ExpError::UnknownKey { kind, key, known } => {
                assert_eq!(kind, "acceleration manager");
                assert_eq!(key, "warp-drive");
                assert!(known.contains(&"software-cata".to_string()));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn bad_alpha_is_rejected_at_resolution() {
        let spec = ScenarioSpec {
            params: Some(PolicyParams {
                alpha: Some(0.0),
                software_path: None,
            }),
            ..keyed("cats", "bottom-level", "static-hetero")
        };
        let err = PolicyRegistries::with_builtins()
            .resolve(&spec)
            .unwrap_err();
        assert!(matches!(err, ExpError::InvalidSpec(_)));
    }
}
