//! The `Executor` trait: one call shape over every backend.
//!
//! Both the deterministic discrete-event simulator ([`SimExecutor`]) and
//! the real thread-pool runtime ([`NativeExecutor`]) take a
//! [`Scenario`] and produce a [`RunReport`], so benches, sweeps and suites
//! are backend-agnostic.

use super::error::ExpError;
use super::scenario::Scenario;
use super::spec::Backend;
use crate::fault::FaultReport;
use crate::native::{MetricsSnapshot, NativeRuntime, RetryConfig, RsmMode};
use crate::report::RunReport;
use crate::sim_exec::SimExecutor;
use cata_cpufreq::backend::DvfsBackend;
use cata_power::{model_native_energy, EnergyReport, Measurement, RaplReader};
use cata_sim::progress::ExecProfile;
use cata_sim::stats::{Counters, LatencyHistogram};
use cata_sim::time::SimDuration;
use cata_sim::trace::Trace;
use cata_tdg::TdgFile;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A run's task graph, captured alongside its report as a replayable
/// [`TdgFile`] — the `RunReport`-adjacent artifact `repro record` writes.
///
/// Sim captures are the spec's graph verbatim (the simulator executes the
/// profiles exactly as written). Native captures substitute each task's
/// *observed* wall duration into its profile, so a replay on the simulator
/// is calibrated to what the host actually did.
#[derive(Debug, Clone)]
pub struct CapturedGraph {
    /// The executor that captured it ("sim", "native").
    pub backend: String,
    /// True when the profiles carry observed (host-measured) durations
    /// rather than the spec's modeled ones.
    pub calibrated: bool,
    /// The replayable graph; feed it back through
    /// [`WorkloadSpec::Inline`](super::spec::WorkloadSpec::Inline) or
    /// write it to a `.tdg.json` and reference it with
    /// [`WorkloadSpec::File`](super::spec::WorkloadSpec::File).
    pub tdg: TdgFile,
}

/// A backend that can execute scenarios.
pub trait Executor: Send + Sync {
    /// Short backend name for reports ("sim", "native").
    fn name(&self) -> &'static str;

    /// Executes the scenario to completion and reports.
    fn execute(&self, scenario: &Scenario) -> Result<RunReport, ExpError>;

    /// Executes the scenario and also captures its task graph as a
    /// replayable [`CapturedGraph`]. The default implementation captures
    /// the spec's graph as-is — exact for the simulator, whose replays are
    /// bit-identical; backends that observe real durations (the native
    /// executor) override it to substitute what they measured.
    ///
    /// The capture is taken *first*, and for the one workload kind with
    /// no stable content identity — an unpinned `File`, which re-reads
    /// its file on every build — the run executes the captured graph
    /// itself (substituted
    /// [`WorkloadSpec::Inline`](super::spec::WorkloadSpec::Inline)), so the
    /// artifact and the report can never describe different graphs even if
    /// the file is edited mid-run. Every other workload builds
    /// deterministically through the shared graph cache, so executing the
    /// original scenario reuses the exact graph just captured (same cache
    /// key, same `Arc`) instead of paying a rebuild for a substitution that
    /// could not change anything.
    fn execute_captured(
        &self,
        scenario: &Scenario,
    ) -> Result<(RunReport, CapturedGraph), ExpError> {
        scenario.spec().validate()?;
        let workload = &scenario.spec().workload;
        let (_graph, tdg) = workload.capture()?;
        let report = if matches!(
            workload,
            super::spec::WorkloadSpec::File { digest: None, .. }
        ) {
            let mut pinned = scenario.clone();
            pinned.spec_mut().workload = super::spec::WorkloadSpec::Inline(tdg.clone().into());
            self.execute(&pinned)?
        } else {
            self.execute(scenario)?
        };
        Ok((
            report,
            CapturedGraph {
                backend: self.name().to_string(),
                calibrated: false,
                tdg,
            },
        ))
    }
}

impl Executor for SimExecutor {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn execute(&self, scenario: &Scenario) -> Result<RunReport, ExpError> {
        // This entry point cannot return the trace, so don't pay for
        // *recording* one — a `Full` spec drops to `Counters`, which keeps
        // the per-kind tallies (they surface as `RunReport::trace_counts`)
        // without storing records; use `run_scenario_traced` to keep the
        // ring buffer.
        if scenario.spec().trace == cata_sim::trace::TraceMode::Full {
            let mut spec = scenario.spec().clone();
            spec.trace = cata_sim::trace::TraceMode::Counters;
            return self
                .run_spec(&spec, scenario.registries())
                .map(|(report, _trace)| report);
        }
        self.run_spec(scenario.spec(), scenario.registries())
            .map(|(report, _trace)| report)
    }
}

impl SimExecutor {
    /// Facade execution that also returns the event trace (enable
    /// `spec.trace` to record one).
    pub fn run_scenario_traced(&self, scenario: &Scenario) -> Result<(RunReport, Trace), ExpError> {
        self.run_spec(scenario.spec(), scenario.registries())
    }

    /// Facade execution returning only the report.
    pub fn run_scenario(&self, scenario: &Scenario) -> Result<RunReport, ExpError> {
        self.execute(scenario)
    }
}

/// Where a native run's joules come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnergySource {
    /// RAPL counters when `/sys/class/powercap` is readable, else the
    /// calibrated model — the right choice on real hardware.
    #[default]
    Auto,
    /// Always the calibrated model, even when RAPL is available —
    /// deterministic provenance for tests and CI.
    Model,
}

/// The host RAPL reader, probed once per process (the sysfs scan is not
/// free, and readability does not change mid-run).
fn host_rapl() -> Option<&'static RaplReader> {
    static RAPL: OnceLock<Option<RaplReader>> = OnceLock::new();
    RAPL.get_or_init(RaplReader::detect).as_ref()
}

/// RAPL counters are package-wide: two native cells sampling the same
/// counters around overlapping windows would each book the *whole*
/// package's joules — including the other cell's work — as their own.
/// These process-wide counters detect any overlap so the affected runs
/// fall back to the calibrated model instead of reporting contaminated
/// measurements. `NATIVE_IN_FLIGHT` counts concurrently executing native
/// cells; `OVERLAP_EPOCH` bumps whenever a run starts while another is in
/// flight, so the *earlier* run (which started alone) also notices.
static NATIVE_IN_FLIGHT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
static OVERLAP_EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The native thread-pool backend: really runs the scenario's task graph as
/// busy-work closures on worker threads, with the CATA algorithm driving a
/// DVFS backend (mock by default; sysfs where permitted).
///
/// The scenario's machine chooses the worker count (capped at the host's
/// parallelism) and `fast_cores` sets the acceleration budget. Simulated
/// task durations are scaled down by `work_divisor` so paper-scale
/// workloads finish in test time.
///
/// Energy: the runtime observes per-worker busy time at each frequency
/// class and the executor prices it through the spec's
/// [`PowerParams`](cata_power::PowerParams) calibration
/// ([`Measurement::Modeled`]); when the host exposes readable RAPL
/// counters the measured package joules are reported instead
/// ([`Measurement::Rapl`]). Native runs therefore carry nonzero,
/// sim-comparable energy — they used to hard-code 0 J, which made every
/// normalized-EDP table divide by zero.
pub struct NativeExecutor {
    /// Reconfiguration discipline (software lock vs RSU-emulated).
    pub rsm_mode: RsmMode,
    /// Divides each task's cycle count to size its busy-work loop.
    pub work_divisor: u64,
    /// Cap on worker threads (the scenario machine may name 32 cores).
    pub max_workers: usize,
    /// RAPL-vs-model policy.
    pub energy_source: EnergySource,
    backend: Option<Arc<dyn DvfsBackend>>,
}

impl Default for NativeExecutor {
    fn default() -> Self {
        NativeExecutor {
            rsm_mode: RsmMode::RsuEmulated,
            work_divisor: 1_000,
            max_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            energy_source: EnergySource::Auto,
            backend: None,
        }
    }
}

impl NativeExecutor {
    /// A native executor with defaults (RSU-emulated RSM, mock DVFS).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the reconfiguration discipline.
    pub fn rsm_mode(mut self, mode: RsmMode) -> Self {
        self.rsm_mode = mode;
        self
    }

    /// Sets the busy-work scale divisor.
    pub fn work_divisor(mut self, divisor: u64) -> Self {
        self.work_divisor = divisor.max(1);
        self
    }

    /// Sets the DVFS backend explicitly (sysfs, mock, null).
    pub fn backend(mut self, backend: Arc<dyn DvfsBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Caps the worker count.
    pub fn max_workers(mut self, n: usize) -> Self {
        self.max_workers = n.max(1);
        self
    }

    /// Selects the energy source (RAPL-auto vs model-only).
    pub fn energy_source(mut self, source: EnergySource) -> Self {
        self.energy_source = source;
        self
    }
}

fn busy_work(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// A DVFS backend wrapper failing writes with seeded probability `p` —
/// the native counterpart of the simulator's `reconfig_fail_p` fault
/// axis. Each write draws from a SplitMix64 sequence; the *sequence* is
/// reproducible per seed (the interleaving across worker threads is not,
/// native runs being inherently racy).
struct FlakyDvfs {
    inner: Arc<dyn DvfsBackend>,
    p: f64,
    state: std::sync::Mutex<cata_sim::seeded::SplitMix64>,
}

impl FlakyDvfs {
    fn new(inner: Arc<dyn DvfsBackend>, p: f64, seed: u64) -> Self {
        FlakyDvfs {
            inner,
            p,
            // Same stream-tagged seed as ever; the shared generator draws
            // the identical sequence the inlined copy did.
            state: std::sync::Mutex::new(cata_sim::seeded::SplitMix64::new(seed ^ 0xFA17_0001)),
        }
    }

    fn next_unit(&self) -> f64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .next_unit()
    }
}

impl DvfsBackend for FlakyDvfs {
    fn name(&self) -> &'static str {
        "flaky"
    }

    fn set_speed(&self, cpu: usize, khz: u32) -> std::io::Result<()> {
        if self.next_unit() < self.p {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected transient DVFS-write fault",
            ));
        }
        self.inner.set_speed(cpu, khz)
    }

    fn get_speed(&self, cpu: usize) -> std::io::Result<u32> {
        self.inner.get_speed(cpu)
    }

    fn num_cpus(&self) -> usize {
        self.inner.num_cpus()
    }
}

/// The native run's [`FaultReport`]: present exactly when the spec
/// carries a [`FaultSpec`](crate::fault::FaultSpec) (mirroring the sim
/// engines), populated from the runtime's classified reconfiguration
/// outcomes. Core fail-stop schedules don't apply to a real host, so
/// those counts stay zero.
fn native_fault_report(
    spec: &super::spec::ScenarioSpec,
    metrics: &MetricsSnapshot,
) -> Option<FaultReport> {
    spec.faults.as_ref()?;
    Some(FaultReport {
        reconfig_faults: metrics.reconfig_faults,
        reconfig_recovered: metrics.reconfig_recovered,
        reconfig_exhausted: metrics.reconfig_exhausted,
        ..FaultReport::default()
    })
}

impl NativeExecutor {
    /// The execution core shared by [`execute`](Executor::execute) and
    /// [`execute_captured`](Executor::execute_captured): runs `graph` —
    /// built *once* by the caller, so the capture path's observed-slot
    /// array and the spawned tasks can never disagree about the graph
    /// (an unpinned `File` workload re-reads its file per build) — on
    /// the thread pool, optionally storing each task's observed wall
    /// nanoseconds into `observed` (indexed by task id) for calibrated
    /// graph capture. `workload_label` comes from the same load as
    /// `graph` for the same reason: a fresh `label()` lookup on an
    /// unpinned file could name a newer revision than what ran.
    fn execute_inner(
        &self,
        scenario: &Scenario,
        graph: &cata_tdg::TaskGraph,
        workload_label: &str,
        observed: Option<&Arc<Vec<AtomicU64>>>,
    ) -> Result<RunReport, ExpError> {
        // Both callers validate the spec before building the graph they
        // hand in, so the spec is known-good here.
        let spec = scenario.spec();

        let workers = spec.machine.num_cores.clamp(1, self.max_workers);
        let budget = spec.fast_cores.min(workers);
        let fast_khz = spec
            .machine
            .fast_level
            .frequency
            .as_mhz()
            .saturating_mul(1000);
        let slow_khz = spec
            .machine
            .slow_level
            .frequency
            .as_mhz()
            .saturating_mul(1000);

        let mut builder = NativeRuntime::builder(workers)
            .budget(budget)
            .rsm_mode(self.rsm_mode)
            .frequencies_khz(fast_khz, slow_khz);
        // Fault injection on the native backend: flaky DVFS writes wrap
        // whichever backend the run would have used, and the runtime gets
        // a bounded-retry discipline (backoff jitter seeded by the run
        // seed) instead of the default single try.
        let backend: Option<Arc<dyn DvfsBackend>> = match &spec.faults {
            Some(f) if f.reconfig_fail_p > 0.0 => {
                let inner: Arc<dyn DvfsBackend> = self
                    .backend
                    .clone()
                    .unwrap_or_else(|| Arc::new(cata_cpufreq::backend::NullDvfs::new(workers)));
                Some(Arc::new(FlakyDvfs::new(
                    inner,
                    f.reconfig_fail_p,
                    spec.seed,
                )))
            }
            _ => self.backend.clone(),
        };
        if let Some(backend) = backend {
            builder = builder.backend(backend);
        }
        if let Some(f) = &spec.faults {
            builder = builder.retry(RetryConfig {
                max_retries: f.max_retries,
                backoff_base: std::time::Duration::from_micros(50),
                attempt_timeout: Some(std::time::Duration::from_millis(50)),
                seed: spec.seed,
            });
        }
        let rt = builder.build();

        use std::sync::atomic::Ordering;
        // Snapshot the epoch *before* announcing ourselves: a concurrent
        // run that starts between our announce and a later snapshot would
        // bump the epoch into our baseline and slip past the end check.
        let epoch_at_start = OVERLAP_EPOCH.load(Ordering::SeqCst);
        let already_running = NATIVE_IN_FLIGHT.fetch_add(1, Ordering::SeqCst) > 0;
        // Decrement even if the run panics (a leaked increment would
        // disable RAPL for the rest of the process).
        struct InFlight;
        impl Drop for InFlight {
            fn drop(&mut self) {
                NATIVE_IN_FLIGHT.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let _in_flight = InFlight;
        if already_running {
            // A later run contaminates the earlier one's window too; the
            // epoch bump tells it so at sampling time.
            OVERLAP_EPOCH.fetch_add(1, Ordering::SeqCst);
        }

        let rapl = match self.energy_source {
            EnergySource::Auto if !already_running => host_rapl(),
            _ => None,
        };
        let rapl_start = rapl.and_then(|r| r.sample());

        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(graph.num_tasks());
        for task in graph.tasks() {
            let deps: Vec<_> = task.preds().iter().map(|p| handles[p.index()]).collect();
            let critical = graph.type_of(task.id).criticality > 0;
            let iters = task.profile.cpu_cycles / self.work_divisor;
            let h = match observed {
                Some(slots) => {
                    let slots = Arc::clone(slots);
                    let idx = task.id.index();
                    rt.spawn(critical, &deps, move || {
                        let t0 = Instant::now();
                        std::hint::black_box(busy_work(iters));
                        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                        slots[idx].store(ns, std::sync::atomic::Ordering::Relaxed);
                    })
                }
                None => rt.spawn(critical, &deps, move || {
                    std::hint::black_box(busy_work(iters));
                }),
            };
            handles.push(h);
        }
        rt.wait_all();
        let wall = t0.elapsed();
        let rapl_end = rapl.and_then(|r| r.sample());
        // The window is only clean if no other native run overlapped it:
        // nobody was in flight when we started, and nobody arrived since.
        let exclusive = !already_running && OVERLAP_EPOCH.load(Ordering::SeqCst) == epoch_at_start;
        let metrics = rt.metrics();
        let busy = rt.busy_intervals();
        drop(rt);

        let exec_time = SimDuration::from_ns(wall.as_nanos().min(u64::MAX as u128) as u64);
        let wall_s = exec_time.as_secs_f64();

        // Measured joules when the host allows it *and* this run had the
        // package to itself (RAPL is package-wide — an overlapping native
        // cell would be double-counted); the calibrated model — the spec's
        // own PowerParams priced over the observed busy-time-at-frequency
        // intervals — otherwise.
        let measured = match (rapl, &rapl_start, &rapl_end) {
            (Some(r), Some(a), Some(b)) if exclusive => {
                let j = r.joules_between(a, b);
                (j > 0.0).then(|| {
                    // RAPL gives a trustworthy package *total* but no
                    // attribution; the calibrated model gives attribution
                    // at modeled magnitude. Blend them: scale the model's
                    // per-component split to the measured total, tagged
                    // "rapl-split" so tables can tell a blended breakdown
                    // from a purely modeled one. Falls back to the plain
                    // breakdown-less RAPL report when the model prices
                    // the window at zero (nothing to apportion by).
                    let model = model_native_energy(
                        &spec.power,
                        spec.machine.fast_level,
                        spec.machine.slow_level,
                        spec.machine.num_cores,
                        wall_s,
                        &busy,
                    );
                    let total = model.breakdown.total_j();
                    if total > 0.0 && total.is_finite() {
                        let k = j / total;
                        let mut bd = model.breakdown;
                        bd.core_busy_j *= k;
                        bd.core_idle_j *= k;
                        bd.core_halt_j *= k;
                        bd.core_static_j *= k;
                        bd.uncore_j *= k;
                        EnergyReport::from_parts(wall_s, bd)
                            .with_measurement(Measurement::RaplSplit)
                    } else {
                        EnergyReport::measured(wall_s, j, Measurement::Rapl)
                    }
                })
            }
            _ => None,
        };
        let energy = measured.unwrap_or_else(|| {
            // Model over the *spec* machine, not the clamped worker pool:
            // `busy` only covers the mapped workers, so the spec's extra
            // cores are priced idle at the slow level, keeping the joules
            // comparable with full-width sim cells. A clamped run's
            // provenance tag says so ("modeled-scaled").
            let report = model_native_energy(
                &spec.power,
                spec.machine.fast_level,
                spec.machine.slow_level,
                spec.machine.num_cores,
                wall_s,
                &busy,
            );
            if workers != spec.machine.num_cores {
                report.with_measurement(Measurement::ModeledScaled)
            } else {
                report
            }
        });

        let mut lock_waits = LatencyHistogram::new();
        if metrics.rsm_lock_ns > 0 {
            lock_waits.record(SimDuration::from_ns(metrics.rsm_lock_ns));
        }
        let overhead = SimDuration::from_ns(metrics.rsm_lock_ns);
        let agg_core_ps = exec_time.as_ps().saturating_mul(workers as u64);

        Ok(RunReport {
            label: spec.name.clone(),
            workload: workload_label.to_string(),
            fast_cores: budget,
            exec_time,
            energy,
            counters: Counters {
                tasks_completed: metrics.tasks_run,
                reconfigs_requested: metrics.reconfigs,
                reconfigs_applied: metrics.reconfigs.saturating_sub(metrics.reconfig_failures),
                accel_denied: metrics.accel_denied,
                ..Counters::default()
            },
            lock_waits,
            reconfig_latencies: LatencyHistogram::new(),
            reconfig_overhead: overhead,
            reconfig_time_share: if agg_core_ps == 0 {
                0.0
            } else {
                overhead.as_ps() as f64 / agg_core_ps as f64
            },
            core_utilization: Vec::new(),
            tasks: graph.num_tasks(),
            // The native backend has no event-trace plumbing.
            trace_counts: None,
            // A clamped machine is part of the result's identity: a
            // 32-core spec executed with 8 workers is an 8-core run.
            effective_cores: (workers != spec.machine.num_cores).then_some(workers),
            // Native runs are closed-system: one graph, no arrivals.
            service: None,
            fault: native_fault_report(scenario.spec(), &metrics),
            // The native backend runs on real shared memory; the modeled
            // interference gate is a simulator-only component.
            memory: None,
        })
    }
}

impl Executor for NativeExecutor {
    fn name(&self) -> &'static str {
        "native"
    }

    fn execute(&self, scenario: &Scenario) -> Result<RunReport, ExpError> {
        // Validate before building: an invalid spec must not pay for (or
        // cache) a paper-scale graph generation just to be rejected.
        scenario.spec().validate()?;
        let (graph, label) = scenario.spec().workload.build_labeled_graph()?;
        self.execute_inner(scenario, &graph, &label, None)
    }

    /// Native capture substitutes *observed* wall durations into the
    /// profiles: each task's measured nanoseconds are scaled back up by
    /// `work_divisor` (undoing the busy-work scale-down) and expressed as
    /// cycles at the spec machine's slow level, so a replay on the
    /// simulator reproduces the host's relative task durations at
    /// sim-comparable magnitudes.
    fn execute_captured(
        &self,
        scenario: &Scenario,
    ) -> Result<(RunReport, CapturedGraph), ExpError> {
        let spec = scenario.spec();
        spec.validate()?;
        // One workload load serves the execution graph, the observed-slot
        // sizing *and* the artifact (name included): a separate build or
        // label lookup could see a different revision of an unpinned
        // `File` workload than what actually runs.
        let (graph, mut tdg) = spec.workload.capture()?;
        let observed: Arc<Vec<AtomicU64>> =
            Arc::new((0..graph.num_tasks()).map(|_| AtomicU64::new(0)).collect());
        let report = self.execute_inner(scenario, &graph, &tdg.name, Some(&observed))?;

        let slow_mhz = spec.machine.slow_level.frequency.as_mhz() as u64;
        for (i, task) in tdg.tasks.iter_mut().enumerate() {
            // A task that executed took *some* time, even when it beat
            // the clock's resolution — floor at 1 ns so no captured
            // profile degenerates to zero-cost.
            let ns = observed[i]
                .load(std::sync::atomic::Ordering::Relaxed)
                .max(1);
            // duration_at(slow) == observed_ns * work_divisor: cycles =
            // wall time × cycles-per-ns at the slow clock.
            let cycles = (ns
                .saturating_mul(self.work_divisor)
                .saturating_mul(slow_mhz)
                / 1000)
                .max(1);
            // An observed duration replaces the whole cost model; memory
            // time and blocking points are folded into what was measured.
            task.profile = ExecProfile::new(cycles, 0);
        }
        tdg.refresh_digest();
        Ok((
            report,
            CapturedGraph {
                backend: self.name().to_string(),
                calibrated: true,
                tdg,
            },
        ))
    }
}

/// An executor that routes each scenario to the backend its spec names —
/// the way a suite runs sim and native cells side by side in one grid.
pub struct BackendDispatch {
    sim: SimExecutor,
    native: NativeExecutor,
}

impl Default for BackendDispatch {
    fn default() -> Self {
        Self::new()
    }
}

impl BackendDispatch {
    /// A dispatcher over default sim and native executors.
    pub fn new() -> Self {
        BackendDispatch {
            sim: SimExecutor,
            native: NativeExecutor::new(),
        }
    }

    /// Replaces the native executor (e.g. to pin a mock DVFS backend or a
    /// deterministic energy source).
    pub fn with_native(mut self, native: NativeExecutor) -> Self {
        self.native = native;
        self
    }
}

impl Executor for BackendDispatch {
    fn name(&self) -> &'static str {
        "dispatch"
    }

    fn execute(&self, scenario: &Scenario) -> Result<RunReport, ExpError> {
        match scenario.spec().backend {
            Backend::Sim => self.sim.execute(scenario),
            Backend::Native => self.native.execute(scenario),
        }
    }

    fn execute_captured(
        &self,
        scenario: &Scenario,
    ) -> Result<(RunReport, CapturedGraph), ExpError> {
        match scenario.spec().backend {
            Backend::Sim => self.sim.execute_captured(scenario),
            Backend::Native => self.native.execute_captured(scenario),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::spec::WorkloadSpec;

    #[test]
    fn both_executors_share_one_call_shape() {
        let scenario = Scenario::preset(
            "CATA+RSU",
            2,
            WorkloadSpec::ForkJoin {
                waves: 2,
                width: 8,
                cycles: 200_000,
            },
        )
        .unwrap();
        let mut small = scenario.clone();
        small.spec_mut().machine = cata_sim::machine::MachineConfig::small_test(4);
        small.spec_mut().fast_cores = 2;

        let executors: Vec<Box<dyn Executor>> = vec![
            Box::new(SimExecutor),
            Box::new(NativeExecutor::new().max_workers(4)),
        ];
        for exec in &executors {
            let report = exec.execute(&small).unwrap_or_else(|e| {
                panic!("{} failed: {e}", exec.name());
            });
            assert_eq!(report.tasks, 18, "{} task count", exec.name());
            assert_eq!(
                report.counters.tasks_completed,
                18,
                "{} completion count",
                exec.name()
            );
            assert_eq!(report.label, "CATA+RSU");
        }
    }

    #[test]
    fn native_runs_report_nonzero_modeled_energy() {
        let mut scenario = Scenario::preset(
            "CATA+RSU",
            2,
            WorkloadSpec::ForkJoin {
                waves: 2,
                width: 8,
                cycles: 500_000,
            },
        )
        .unwrap();
        scenario.spec_mut().machine = cata_sim::machine::MachineConfig::small_test(4);
        scenario.spec_mut().fast_cores = 2;

        let exec = NativeExecutor::new()
            .max_workers(4)
            .energy_source(EnergySource::Model);
        let report = exec.execute(&scenario).unwrap();
        assert!(
            report.energy.has_energy(),
            "native run still reports {} J",
            report.energy.energy_j
        );
        assert_eq!(report.energy.measurement, Measurement::Modeled);
        assert!(report.energy.edp > 0.0);
        // Sim and native cells are now comparable: a normalized EDP exists.
        let sim = SimExecutor.execute(&scenario).unwrap();
        assert_eq!(sim.energy.measurement, Measurement::Simulated);
        assert!(report.edp_normalized_to(&sim).is_some());
    }

    #[test]
    fn dispatch_routes_by_spec_backend() {
        use crate::exp::spec::Backend;
        let mut scenario = Scenario::preset(
            "CATA",
            2,
            WorkloadSpec::ForkJoin {
                waves: 1,
                width: 4,
                cycles: 100_000,
            },
        )
        .unwrap();
        scenario.spec_mut().machine = cata_sim::machine::MachineConfig::small_test(4);
        scenario.spec_mut().fast_cores = 2;

        // Pin the worker pool to the spec machine so the provenance tag
        // is host-independent (a narrower host would clamp and report
        // `modeled-scaled` instead).
        let dispatch = BackendDispatch::new().with_native(
            NativeExecutor::new()
                .max_workers(4)
                .energy_source(EnergySource::Model),
        );
        let sim = dispatch.execute(&scenario).unwrap();
        assert_eq!(sim.energy.measurement, Measurement::Simulated);

        scenario.spec_mut().backend = Backend::Native;
        let native = dispatch.execute(&scenario).unwrap();
        assert_eq!(native.energy.measurement, Measurement::Modeled);
        assert!(native.energy.has_energy());
    }
}
