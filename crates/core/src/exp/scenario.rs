//! `Scenario`: a spec bound to the registries that can resolve it.

use super::error::ExpError;
use super::registry::{default_registries, PolicyRegistries};
use super::spec::{ScenarioSpec, WorkloadSpec};
use crate::report::RunReport;
use std::sync::Arc;

/// A runnable experiment: a [`ScenarioSpec`] plus the
/// [`PolicyRegistries`] its keys resolve through. Execute it on any
/// [`Executor`](super::executor::Executor) — the simulator or the native
/// thread-pool runtime — with one call shape.
#[derive(Debug, Clone)]
pub struct Scenario {
    spec: ScenarioSpec,
    registries: Arc<PolicyRegistries>,
}

impl Scenario {
    /// Wraps an existing spec with the default (builtin) registries.
    pub fn from_spec(spec: ScenarioSpec) -> Self {
        Scenario {
            spec,
            registries: Arc::clone(default_registries()),
        }
    }

    /// One of the six paper configurations by label, on `workload`.
    pub fn preset(name: &str, fast_cores: usize, workload: WorkloadSpec) -> Result<Self, ExpError> {
        ScenarioSpec::preset(name, fast_cores, workload).map(Self::from_spec)
    }

    /// Replaces the registries (e.g. to add third-party policies).
    pub fn with_registries(mut self, registries: Arc<PolicyRegistries>) -> Self {
        self.registries = registries;
        self
    }

    /// The underlying spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Mutable access to the spec (sweeps tweak machines and costs).
    pub fn spec_mut(&mut self) -> &mut ScenarioSpec {
        &mut self.spec
    }

    /// The registries this scenario resolves through.
    pub fn registries(&self) -> &Arc<PolicyRegistries> {
        &self.registries
    }

    /// Runs on the given executor — sugar for `executor.execute(self)`.
    pub fn run(&self, executor: &dyn super::executor::Executor) -> Result<RunReport, ExpError> {
        executor.execute(self)
    }
}
