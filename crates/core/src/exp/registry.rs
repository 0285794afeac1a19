//! String-keyed registries of policy factories.
//!
//! The experiment facade resolves the three policy dimensions of a
//! [`ScenarioSpec`] — scheduler, criticality estimator, acceleration
//! manager — through these registries instead of matching on closed
//! enums. The six paper configurations are pre-registered under
//! [`PolicyRegistries::with_builtins`]; third-party policies register a
//! factory closure under a new key and immediately work with every
//! executor, the suite runner, and the bench harness, without touching
//! `cata-core`.

use super::error::ExpError;
use super::spec::{PolicyParams, ScenarioSpec};
use crate::accel::{AccelManager, RsuCata, SoftwareCata, StaticAccel, TurboModeCtl};
use crate::policy::{CatsPolicy, FifoPolicy, SchedulerPolicy};
use cata_sim::machine::Machine;
use cata_tdg::criticality::{BottomLevelEstimator, CriticalityEstimator, StaticAnnotations};
use cata_tdg::{TaskGraph, TaskId};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Estimator for configurations that ignore criticality: every task is
/// non-critical (FIFO's single queue; TurboMode).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllNonCritical;

impl CriticalityEstimator for AllNonCritical {
    fn name(&self) -> &'static str {
        "none"
    }
    fn classify(&mut self, _graph: &TaskGraph, _task: TaskId) -> bool {
        false
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

/// Capabilities and dispatch metadata of a registered policy — the struct
/// the registry's former loose `prefer_fast`/`static_hetero` bools grew
/// into once replayed-graph dispatch became a second consumer. A scheduler
/// entry contributes `prefer_fast`, an accel entry `static_hetero`;
/// [`PolicyRegistries::resolve`] merges both into the single
/// [`ResolvedPolicies::caps`] every executor reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicyCaps {
    /// The executor's dispatch loop should offer idle *fast* cores first
    /// (CATS exploits core speeds; FIFO is blind).
    pub prefer_fast: bool,
    /// The machine is built with statically heterogeneous cores (the
    /// first `fast_cores` run fast permanently; no reconfiguration).
    pub static_hetero: bool,
}

impl PolicyCaps {
    /// Scheduler-side caps: only the dispatch preference is meaningful.
    pub fn scheduler(prefer_fast: bool) -> Self {
        PolicyCaps {
            prefer_fast,
            ..Default::default()
        }
    }

    /// Accel-side caps: only the machine build is meaningful.
    pub fn accel(static_hetero: bool) -> Self {
        PolicyCaps {
            static_hetero,
            ..Default::default()
        }
    }
}

/// A registered scheduler: factory plus dispatch metadata.
#[derive(Clone)]
pub struct SchedulerEntry {
    factory: Arc<SchedFactory>,
    /// Dispatch capabilities (only `prefer_fast` is scheduler-owned).
    pub caps: PolicyCaps,
}

/// A registered estimator.
#[derive(Clone)]
pub struct EstimatorEntry {
    factory: Arc<EstFactory>,
}

/// A registered acceleration manager: factory plus machine metadata.
#[derive(Clone)]
pub struct AccelEntry {
    factory: Arc<AccelFactory>,
    /// Machine-build capabilities (only `static_hetero` is accel-owned).
    pub caps: PolicyCaps,
}

/// The three policy registries of the experiment facade.
#[derive(Clone)]
pub struct PolicyRegistries {
    schedulers: BTreeMap<String, SchedulerEntry>,
    estimators: BTreeMap<String, EstimatorEntry>,
    accels: BTreeMap<String, AccelEntry>,
}

impl PolicyRegistries {
    /// Empty registries (useful for fully custom matrices).
    pub fn empty() -> Self {
        PolicyRegistries {
            schedulers: BTreeMap::new(),
            estimators: BTreeMap::new(),
            accels: BTreeMap::new(),
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
        self.schedulers.insert(
            key.into(),
            SchedulerEntry {
                factory: Arc::new(factory),
                caps: PolicyCaps::scheduler(prefer_fast),
            },
        );
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
        self.estimators.insert(
            key.into(),
            EstimatorEntry {
                factory: Arc::new(factory),
            },
        );
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
        self.accels.insert(
            key.into(),
            AccelEntry {
                factory: Arc::new(factory),
                caps: PolicyCaps::accel(static_hetero),
            },
        );
    }

    /// The registered scheduler keys, sorted.
    pub fn scheduler_keys(&self) -> Vec<String> {
        self.schedulers.keys().cloned().collect()
    }

    /// The registered estimator keys, sorted.
    pub fn estimator_keys(&self) -> Vec<String> {
        self.estimators.keys().cloned().collect()
    }

    /// The registered acceleration-manager keys, sorted.
    pub fn accel_keys(&self) -> Vec<String> {
        self.accels.keys().cloned().collect()
    }

    /// Constructs a scheduler policy by key (trait-object path).
    pub fn build_scheduler(
        &self,
        key: &str,
        ctx: &FactoryCtx<'_>,
    ) -> Result<Box<dyn SchedulerPolicy>, ExpError> {
        let entry = self
            .schedulers
            .get(key)
            .ok_or_else(|| ExpError::UnknownScheduler {
                key: key.to_string(),
                known: self.scheduler_keys(),
            })?;
        (entry.factory)(ctx)
    }

    /// Constructs a criticality estimator by key (trait-object path).
    pub fn build_estimator(
        &self,
        key: &str,
        ctx: &FactoryCtx<'_>,
    ) -> Result<Box<dyn CriticalityEstimator>, ExpError> {
        let entry = self
            .estimators
            .get(key)
            .ok_or_else(|| ExpError::UnknownEstimator {
                key: key.to_string(),
                known: self.estimator_keys(),
            })?;
        (entry.factory)(ctx)
    }

    /// Constructs an acceleration manager by key (trait-object path).
    pub fn build_accel(
        &self,
        key: &str,
        ctx: &FactoryCtx<'_>,
    ) -> Result<Box<dyn AccelManager>, ExpError> {
        let entry = self.accels.get(key).ok_or_else(|| ExpError::UnknownAccel {
            key: key.to_string(),
            known: self.accel_keys(),
        })?;
        (entry.factory)(ctx)
    }

    /// The dispatch metadata of a scheduler key.
    pub fn scheduler_entry(&self, key: &str) -> Result<&SchedulerEntry, ExpError> {
        self.schedulers
            .get(key)
            .ok_or_else(|| ExpError::UnknownScheduler {
                key: key.to_string(),
                known: self.scheduler_keys(),
            })
    }

    /// The machine metadata of an acceleration-manager key.
    pub fn accel_entry(&self, key: &str) -> Result<&AccelEntry, ExpError> {
        self.accels.get(key).ok_or_else(|| ExpError::UnknownAccel {
            key: key.to_string(),
            known: self.accel_keys(),
        })
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
        let accel_entry = self.accel_entry(&spec.accel)?;
        let sched_entry = self.scheduler_entry(&spec.scheduler)?;
        // The merged capability view: scheduler dispatch preference plus
        // accel machine build, in one struct.
        let caps = PolicyCaps {
            prefer_fast: sched_entry.caps.prefer_fast,
            static_hetero: accel_entry.caps.static_hetero,
        };
        let static_hetero = caps.static_hetero;
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
        let policy = self.build_scheduler(&spec.scheduler, &ctx)?;
        let estimator = self.build_estimator(&spec.estimator, &ctx)?;
        let accel = self.build_accel(&spec.accel, &ctx)?;
        Ok(ResolvedPolicies {
            policy,
            estimator,
            accel,
            machine,
            is_fast_static,
            caps,
        })
    }
}

impl Default for PolicyRegistries {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl std::fmt::Debug for PolicyRegistries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyRegistries")
            .field("schedulers", &self.scheduler_keys())
            .field("estimators", &self.estimator_keys())
            .field("accels", &self.accel_keys())
            .finish()
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
    /// Merged policy capabilities (dispatch preference + machine build).
    pub caps: PolicyCaps,
}

impl std::fmt::Debug for ResolvedPolicies {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedPolicies")
            .field("policy", &self.policy.name())
            .field("estimator", &self.estimator.name())
            .field("accel", &self.accel.name())
            .field("caps", &self.caps)
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
            ExpError::UnknownAccel { key, known } => {
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
