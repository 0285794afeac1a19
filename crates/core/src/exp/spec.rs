//! `ScenarioSpec`: the complete, serializable description of one run.
//!
//! A spec names *everything* a run depends on — machine, workload,
//! scheduler/estimator/accel registry keys, policy parameters, runtime
//! costs, and the seed — so a run is reproducible from its serialized form
//! alone. JSON and TOML render the same structure.

use super::error::ExpError;
use cata_cpufreq::software_path::SoftwarePathParams;
use cata_power::PowerParams;
use cata_sim::machine::MachineConfig;
use cata_sim::time::SimDuration;
use cata_sim::trace::TraceMode;
use cata_tdg::{TaskGraph, TdgFile, TdgHandle};
use cata_workloads::{generate, micro, Benchmark, Scale};
use serde::{DeError, Deserialize, Deserializer, Kind, Serialize, Serializer};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Which executor a scenario runs on. A suite axis: the same spec grid can
/// carry sim and native cells side by side, and the backend is part of the
/// cell's identity (it participates in the spec digest for native cells).
///
/// Serialized as `"sim"` / `"native"`; the field is *omitted* for `Sim`,
/// so pre-backend specs — and their store digests — are byte-identical to
/// what this repo produced before the field existed, and legacy spec files
/// parse unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The deterministic discrete-event simulator.
    #[default]
    Sim,
    /// The real thread-pool runtime with a DVFS backend.
    Native,
}

impl Backend {
    /// The serialized / table form ("sim", "native").
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Native => "native",
        }
    }

    /// True for the default [`Backend::Sim`].
    pub fn is_sim(&self) -> bool {
        *self == Backend::Sim
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(Backend::Sim),
            "native" => Ok(Backend::Native),
            other => Err(format!("unknown backend `{other}` (want sim|native)")),
        }
    }
}

// Serde is hand-written so the strings are `name()`'s, shared with tables.
impl Serialize for Backend {
    fn serialize(&self, s: &mut dyn Serializer) {
        s.str(self.name());
    }
}

impl Deserialize for Backend {
    fn deserialize(d: &mut dyn Deserializer) -> Result<Self, DeError> {
        match d.kind()? {
            Kind::Str => d.str()?.parse().map_err(DeError::new),
            other => Err(DeError::new(format!(
                "Backend: expected a string, found {}",
                other.name()
            ))),
        }
    }
}

/// The workload a scenario runs: a PARSECSs-shaped generator or one of the
/// micro-graphs with every generation parameter pinned — or, since the TDG
/// capture & replay subsystem, a concrete task graph itself:
/// [`Inline`](WorkloadSpec::Inline) embeds a [`TdgFile`] in the spec, and
/// [`File`](WorkloadSpec::File) references a `.tdg.json` on disk pinned by
/// its content digest. Both replay through every executor, suite, shard and
/// store path exactly like a generated workload (the TDG participates in
/// the spec digest, so a cell's identity sees the graph's content).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// One of the paper's six benchmarks at a given scale and seed.
    Parsec {
        /// The benchmark.
        bench: Benchmark,
        /// Generation scale.
        scale: Scale,
        /// Workload-generation seed.
        seed: u64,
    },
    /// A serial chain of `n` tasks of `cycles` each.
    Chain {
        /// Task count.
        n: usize,
        /// Cycles per task.
        cycles: u64,
    },
    /// `waves` fork-join waves of `width` tasks of `cycles` each.
    ForkJoin {
        /// Wave count.
        waves: usize,
        /// Tasks per wave.
        width: usize,
        /// Cycles per task.
        cycles: u64,
    },
    /// A diamond whose first branch is `skew`× longer (paper Figure 1).
    SkewedDiamond {
        /// Branch count.
        width: usize,
        /// Cycles per normal branch.
        cycles: u64,
        /// Length multiplier of the critical branch.
        skew: u64,
    },
    /// A random DAG (see `cata_workloads::micro::random_dag`).
    RandomDag {
        /// Task count.
        n: usize,
        /// Edge probability.
        edge_p: f64,
        /// Minimum task cycles.
        min_cycles: u64,
        /// Maximum task cycles.
        max_cycles: u64,
        /// Generation seed.
        seed: u64,
    },
    /// A concrete task graph embedded in the spec — a captured/exported
    /// [`TdgFile`] carried inline (behind a hash-consed [`TdgHandle`]
    /// whose content digest is memoized), so the spec is a self-contained,
    /// shippable experiment artifact.
    Inline(TdgHandle),
    /// A task graph stored in a `.tdg.json` (or `.toml`) file. `digest`
    /// pins the file's *content* digest: the spec digest (and therefore
    /// the cell identity in stores) sees it, so an edited TDG is a new
    /// cell, never a silent cache hit. `None` accepts whatever content the
    /// path holds — convenient while iterating, but unpinned: stores
    /// cannot tell two revisions apart.
    File {
        /// Path to the TDG file.
        path: String,
        /// Expected content digest ([`TdgFile::content_digest`]), or
        /// `None` to accept any content.
        digest: Option<String>,
    },
}

/// A tiny process-wide FIFO memo: string keys, linear scan (these caches
/// stay small), FIFO eviction at `cap`, duplicate puts are no-ops. Both
/// the TDG-file cache and the graph cache are instances, so their lock
/// handling and eviction behavior cannot drift apart.
struct FifoCache<V> {
    cap: usize,
    entries: Mutex<Vec<(String, V)>>,
}

impl<V: Clone> FifoCache<V> {
    const fn new(cap: usize) -> Self {
        FifoCache {
            cap,
            entries: Mutex::new(Vec::new()),
        }
    }

    fn get(&self, key: &str) -> Option<V> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    fn put(&self, key: String, value: &V) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if !entries.iter().any(|(k, _)| *k == key) {
            if entries.len() >= self.cap {
                entries.remove(0);
            }
            entries.push((key, value.clone()));
        }
    }
}

/// The process-wide cache behind [`load_tdg_cached`], keyed by
/// `path\0digest`. Only digest-*pinned* loads live here — a pinned
/// digest names immutable content, so entries can never go stale. Each
/// handle keeps the content digest its pin check computed, so building
/// its graph verifies against it instead of digesting the file again.
static TDG_CACHE: FifoCache<TdgHandle> = FifoCache::new(16);

fn tdg_cache_key(path: &str, digest: Option<&str>) -> String {
    format!("{path}\u{0}{}", digest.unwrap_or(""))
}

/// The memoized TDG file loader behind [`WorkloadSpec::File`]: a
/// `File`-workload's graph, label and cost estimate all consult the file,
/// and a suite may hold thousands of cells over one TDG — so each
/// *pinned* `(path, digest)` is read and parsed once per process (content
/// behind a verified pin is immutable by identity, so a cached copy can
/// never go stale). Unpinned loads (`digest: None`) bypass the cache in
/// both directions: the variant's contract is "accept whatever the path
/// holds *right now*", and a process-wide cache would silently keep
/// serving the first revision it saw while the user iterates on the
/// file. Failures are never cached (a fixed file is picked up on retry).
fn load_tdg_cached(path: &str, digest: Option<&str>) -> Result<TdgHandle, ExpError> {
    if let Some(want) = digest {
        if let Some(file) = TDG_CACHE.get(&tdg_cache_key(path, Some(want))) {
            return Ok(file);
        }
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| ExpError::Workload(format!("{path}: {e}")))?;
    let file = if path.ends_with(".toml") {
        TdgFile::from_toml(&text)
    } else {
        TdgFile::from_json(&text)
    }
    .map_err(|e| ExpError::Workload(format!("{path}: {e}")))?;
    let file = TdgHandle::new(file);
    if let Some(want) = digest {
        let actual = file.content_digest();
        if actual != want {
            return Err(ExpError::Workload(format!(
                "{path}: content digest {actual} does not match the spec's pin {want} \
                 (the file changed since the spec was written)"
            )));
        }
        TDG_CACHE.put(tdg_cache_key(path, Some(want)), &file);
    }
    Ok(file)
}

/// A copy of `tdg`'s file carrying its fresh content digest.
fn refreshed(tdg: &TdgHandle) -> TdgFile {
    TdgFile {
        digest: tdg.content_digest().to_string(),
        ..TdgFile::clone(tdg)
    }
}

/// `app.tdg.json` → `app`: the label fallback when a `File` workload
/// cannot be read (reports still need *some* name).
fn tdg_file_stem(path: &str) -> String {
    let stem = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path);
    stem.strip_suffix(".tdg").unwrap_or(stem).to_string()
}

impl WorkloadSpec {
    /// The default paper workload: one benchmark at one scale with the
    /// bench harness's fixed seed.
    pub fn parsec(bench: Benchmark, scale: Scale, seed: u64) -> Self {
        WorkloadSpec::Parsec { bench, scale, seed }
    }

    /// A digest-pinned [`File`](WorkloadSpec::File) workload: reads the
    /// TDG at `path` once to compute its content digest, so the resulting
    /// spec — and every store cell derived from it — names this exact
    /// revision of the graph.
    pub fn tdg_file_pinned(path: impl Into<String>) -> Result<Self, ExpError> {
        let path = path.into();
        let file = load_tdg_cached(&path, None)?;
        let digest = file.content_digest().to_string();
        // Seed the digest-qualified cache entry: the loads the pinned
        // spec makes next (graph build, label, cost) hit it instead of
        // re-reading the file, and its graph build reuses the digest.
        TDG_CACHE.put(tdg_cache_key(&path, Some(&digest)), &file);
        Ok(WorkloadSpec::File {
            path,
            digest: Some(digest),
        })
    }

    /// Builds the task graph this spec describes (deterministic). Unlike
    /// the generators, `Inline`/`File` workloads can carry a malformed or
    /// missing TDG; this is the fallible path every executor uses.
    pub fn try_build_graph(&self) -> Result<TaskGraph, ExpError> {
        Ok(match *self {
            WorkloadSpec::Parsec { bench, scale, seed } => generate(bench, scale, seed),
            WorkloadSpec::Chain { n, cycles } => micro::chain(n, cycles),
            WorkloadSpec::ForkJoin {
                waves,
                width,
                cycles,
            } => micro::fork_join(waves, width, cycles),
            WorkloadSpec::SkewedDiamond {
                width,
                cycles,
                skew,
            } => micro::skewed_diamond(width, cycles, skew),
            WorkloadSpec::RandomDag {
                n,
                edge_p,
                min_cycles,
                max_cycles,
                seed,
            } => micro::random_dag(n, edge_p, min_cycles, max_cycles, seed),
            WorkloadSpec::Inline(ref tdg) => tdg
                .to_graph()
                .map_err(|e| ExpError::Workload(format!("inline TDG: {e}")))?,
            WorkloadSpec::File {
                ref path,
                ref digest,
            } => load_tdg_cached(path, digest.as_deref())?
                .to_graph()
                .map_err(|e| ExpError::Workload(format!("{path}: {e}")))?,
        })
    }

    /// Generates the task graph this spec describes (deterministic).
    ///
    /// # Panics
    /// Panics when an `Inline`/`File` TDG cannot be loaded or validated;
    /// use [`try_build_graph`](Self::try_build_graph) where errors must
    /// surface as values (every executor does).
    pub fn build_graph(&self) -> TaskGraph {
        self.try_build_graph()
            .unwrap_or_else(|e| panic!("workload graph unavailable: {e}"))
    }

    /// Like [`try_build_graph`](Self::try_build_graph), but memoized
    /// process-wide behind an `Arc`: matrices and sweeps run the same
    /// workload under many configurations, and generation is
    /// deterministic, so identical specs share one graph. The cache is
    /// small and FIFO-evicted; misses just regenerate.
    pub fn try_build_graph_shared(&self) -> Result<Arc<TaskGraph>, ExpError> {
        static CACHE: FifoCache<Arc<TaskGraph>> = FifoCache::new(32);
        // Unpinned file workloads have no stable content identity to key
        // a cache on ("accept whatever the path holds right now"), so
        // they build fresh every time — a cached graph would silently
        // survive edits to the file.
        let Some(key) = self.try_graph_cache_key()? else {
            return Ok(Arc::new(self.try_build_graph()?));
        };
        if let Some(graph) = CACHE.get(&key) {
            return Ok(graph);
        }
        // Generate outside the lock so distinct workloads build in
        // parallel; a racing duplicate is deterministic and harmless
        // (`put` keeps the first copy).
        let graph = Arc::new(self.try_build_graph()?);
        CACHE.put(key, &graph);
        Ok(graph)
    }

    /// The graph cache's key for this workload, or `None` for workloads
    /// with no stable content identity (unpinned `File`s), which must
    /// not be cached. Generators serialize their (small) parameter
    /// struct. `Inline` runs the file's full header check
    /// ([`TdgFile::verify`], run by [`TdgHandle::verify_cached`] against
    /// the handle's memoized digest, so repeat probes are O(1)) and keys
    /// on the *computed* content digest —
    /// 16 hex chars, so probes compare tiny keys instead of a fully
    /// serialized spec, and crucially *never* the unchecked embedded
    /// digest field: trusting an embedded digest that an edit left stale
    /// would alias the edited graph to the original's cache entry, and
    /// skipping verification at probe time would make an invalid file
    /// (wrong schema, corrupt digest) succeed or fail depending on cache
    /// warmth. Pinned `File`s key on `path + pin`: the pin is verified
    /// against content on every fresh load, so it faithfully names what
    /// the cache holds.
    fn try_graph_cache_key(&self) -> Result<Option<String>, ExpError> {
        Ok(match self {
            WorkloadSpec::Inline(tdg) => {
                let digest = tdg
                    .verify_cached()
                    .map_err(|e| ExpError::Workload(format!("inline TDG: {e}")))?;
                Some(format!("inline\u{0}{digest}"))
            }
            WorkloadSpec::File {
                path,
                digest: Some(pin),
            } => Some(format!("tdg-file\u{0}{path}\u{0}{pin}")),
            WorkloadSpec::File { digest: None, .. } => None,
            other => Some(serde_json::to_string(other).expect("workload spec serializes")),
        })
    }

    /// True when [`try_build_graph_shared`](Self::try_build_graph_shared)
    /// can serve this workload from the process-wide cache — i.e. it has
    /// a stable content identity. Unpinned `File`s do not: warming the
    /// cache for them is pure waste (the build is discarded and the run
    /// re-reads the file).
    pub fn graph_cache_eligible(&self) -> bool {
        !matches!(self, WorkloadSpec::File { digest: None, .. })
    }

    /// Builds the graph *and* its replayable [`TdgFile`] form from one
    /// workload load — the capture primitive behind
    /// [`Executor::execute_captured`](super::executor::Executor::execute_captured).
    /// For file workloads the artifact's name and its tasks come from the
    /// same read: a separate `label()` lookup could see a *different
    /// revision* of an unpinned file than the graph build did (the
    /// mid-edit race), producing a misnamed artifact. The returned file
    /// always carries a fresh content digest.
    pub fn capture(&self) -> Result<(Arc<TaskGraph>, TdgFile), ExpError> {
        match self {
            WorkloadSpec::File { path, digest } => {
                let (graph, file) = self.load_file_graph(path, digest)?;
                Ok((graph, refreshed(&file)))
            }
            WorkloadSpec::Inline(tdg) => {
                let graph = self.try_build_graph_shared()?;
                Ok((graph, refreshed(tdg)))
            }
            generator => {
                let graph = generator.try_build_graph_shared()?;
                let tdg = TdgFile::from_graph(generator.label(), &graph);
                Ok((graph, tdg))
            }
        }
    }

    /// Builds the graph *and* the report label from one workload load —
    /// what every executor's plain-run path uses so a `RunReport` (and
    /// any store cell keyed from it) can never carry the name of a
    /// *different revision* of an unpinned `File` than the graph that
    /// actually ran.
    pub fn build_labeled_graph(&self) -> Result<(Arc<TaskGraph>, String), ExpError> {
        match self {
            WorkloadSpec::File { path, digest } => {
                let (graph, file) = self.load_file_graph(path, digest)?;
                Ok((graph, file.name.clone()))
            }
            other => Ok((other.try_build_graph_shared()?, other.label())),
        }
    }

    /// One-load graph + file pair for a `File` workload: pinned loads hit
    /// the caches (the pin names immutable content), unpinned ones build
    /// the graph from the very read that produced the file — a second
    /// read could see a newer revision.
    fn load_file_graph(
        &self,
        path: &str,
        digest: &Option<String>,
    ) -> Result<(Arc<TaskGraph>, TdgHandle), ExpError> {
        let file = load_tdg_cached(path, digest.as_deref())?;
        let graph = match digest {
            // Pinned: the load above verified the pin, so the shared
            // cache (keyed on path + pin) is coherent with it by
            // construction.
            Some(_) => self.try_build_graph_shared()?,
            None => Arc::new(
                file.to_graph()
                    .map_err(|e| ExpError::Workload(format!("{path}: {e}")))?,
            ),
        };
        Ok((graph, file))
    }

    /// Panicking form of
    /// [`try_build_graph_shared`](Self::try_build_graph_shared), for
    /// callers whose workloads are generators by construction.
    pub fn build_graph_shared(&self) -> Arc<TaskGraph> {
        self.try_build_graph_shared()
            .unwrap_or_else(|e| panic!("workload graph unavailable: {e}"))
    }

    /// The workload label used in reports. Replayed TDGs report the name
    /// recorded in the file — an exported generator replays under the
    /// generator's own label, so its `RunReport` is bit-identical to the
    /// original run's.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Parsec { bench, .. } => bench.name().to_string(),
            WorkloadSpec::Chain { n, .. } => format!("chain-{n}"),
            WorkloadSpec::ForkJoin { waves, width, .. } => format!("forkjoin-{waves}x{width}"),
            WorkloadSpec::SkewedDiamond { width, .. } => format!("diamond-{width}"),
            WorkloadSpec::RandomDag { n, .. } => format!("randdag-{n}"),
            WorkloadSpec::Inline(tdg) => tdg.name.clone(),
            WorkloadSpec::File { path, digest } => {
                match load_tdg_cached(path, digest.as_deref()) {
                    Ok(tdg) => tdg.name.clone(),
                    // An unloadable file still needs a report label; the
                    // run itself will surface the error.
                    Err(_) => tdg_file_stem(path),
                }
            }
        }
    }
}

/// Runtime cost constants (Nanos++-scale).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeCosts {
    /// Master-thread cost of creating/submitting one task (dependence
    /// registration, allocation).
    pub task_creation: SimDuration,
    /// Extra creation cost per TDG node visited by the bottom-level
    /// estimator's ancestor walk (the CATS+BL overhead, §V-A).
    pub per_bl_visit: SimDuration,
    /// Worker-side cost of dequeuing a task (scheduler critical section).
    pub dispatch: SimDuration,
}

impl Default for RuntimeCosts {
    fn default() -> Self {
        RuntimeCosts {
            task_creation: SimDuration::from_ns(800),
            per_bl_visit: SimDuration::from_ns(250),
            dispatch: SimDuration::from_ns(300),
        }
    }
}

/// Parameters consumed by policy factories. Every field is optional; a
/// factory falls back to the paper's defaults for missing values, so specs
/// only mention what they change.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PolicyParams {
    /// Bottom-level criticality threshold fraction (default 1.0 = CATS).
    pub alpha: Option<f64>,
    /// Latency parameters of the software reconfiguration path (default:
    /// the paper calibration).
    pub software_path: Option<SoftwarePathParams>,
}

impl PolicyParams {
    /// The BL threshold, defaulted.
    pub fn alpha_or_default(&self) -> f64 {
        self.alpha.unwrap_or(1.0)
    }

    /// The software-path latencies, defaulted.
    pub fn software_path_or_default(&self) -> SoftwarePathParams {
        self.software_path
            .unwrap_or_else(SoftwarePathParams::paper_calibrated)
    }
}

/// A complete description of one experimental run.
///
/// `scheduler`, `estimator` and `accel` are string keys resolved through
/// [`PolicyRegistries`](super::registry::PolicyRegistries); the six paper
/// configurations are pre-registered, and third-party policies resolve the
/// same way without touching any core enum.
///
/// `backend` when `sim`, and `faults`, `event_queue` and `memory` when
/// `None`, are omitted from the serialized form: a fault-free,
/// default-queue sim spec keeps the bytes it had before those fields
/// existed, so [`spec_digest`](super::store::spec_digest) stays stable,
/// existing JSONL stores still resume, and legacy spec files parse
/// unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Configuration label for reports ("FIFO", "CATA+RSU", …).
    pub name: String,
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// The machine (Table I by default).
    pub machine: MachineConfig,
    /// Static fast-core count *and* dynamic power budget.
    pub fast_cores: usize,
    /// Scheduler registry key (e.g. "fifo", "cats", "cats-homogeneous").
    pub scheduler: String,
    /// Estimator registry key (e.g. "none", "static-annotations",
    /// "bottom-level").
    pub estimator: String,
    /// Acceleration-manager registry key (e.g. "static-hetero",
    /// "software-cata", "rsu", "turbo").
    pub accel: String,
    /// Policy parameters; omitted values fall back to paper defaults.
    pub params: Option<PolicyParams>,
    /// Runtime cost constants.
    pub costs: RuntimeCosts,
    /// Idle→halt OS timeout (TurboMode only in the paper matrix).
    pub idle_to_halt: Option<SimDuration>,
    /// Idle deceleration debounce (§V-B).
    pub idle_decel_delay: SimDuration,
    /// C1-exit latency.
    pub wake_latency: SimDuration,
    /// Power model calibration.
    pub power: PowerParams,
    /// Trace collection mode (off by default, and the right setting for
    /// suites: nobody reads a per-run trace in a million-run sweep).
    pub trace: TraceMode,
    /// Seed of the run's deterministic RNG.
    pub seed: u64,
    /// Which executor runs this cell (`sim` default / `native`).
    #[serde(default, skip_serializing_if = "Backend::is_sim")]
    pub backend: Backend,
    /// Deterministic fault-injection schedule, or `None` for a perfect
    /// machine. Omitted from the serialized form when absent, so
    /// fault-free specs — and their store digests — stay byte-identical
    /// to the pre-fault layout.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub faults: Option<crate::fault::FaultSpec>,
    /// Legacy event-queue backend key (`"heap"` or `"calendar-wheel"`).
    /// Both keys build the same [`EventQueue`](cata_sim::EventQueue), so
    /// the key changes nothing but the spec's bytes; `validate` rejects
    /// any other value. It is omitted from the serialized form when
    /// absent, keeping spec digests, golden preset digests, store records
    /// and tapes byte-identical to the layout from before the key existed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub event_queue: Option<String>,
    /// Shared-memory interference model, or `None` for the uncontended
    /// legacy machine (memory demand elapses for free inside the blended
    /// task duration). Omitted from the serialized form when absent, so
    /// uncontended specs — and their store digests — stay byte-identical
    /// to the pre-interference layout.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub memory: Option<crate::mem::MemorySpec>,
}

/// The six paper configuration labels, in figure order — the canonical
/// list behind [`ScenarioSpec::preset`], `repro preset`, and the
/// unknown-preset error message.
pub const PAPER_PRESETS: [&str; 6] = [
    "FIFO",
    "CATS+BL",
    "CATS+SA",
    "CATA",
    "CATA+RSU",
    "TurboMode",
];

impl ScenarioSpec {
    /// A spec running `workload` as the paper's `FIFO` baseline: Table I's
    /// machine with 16 fast cores, the blind FIFO queue, no criticality
    /// estimation and no reconfiguration. The presets start from it.
    pub fn new(name: impl Into<String>, workload: WorkloadSpec) -> Self {
        ScenarioSpec {
            name: name.into(),
            workload,
            machine: MachineConfig::paper_table1(),
            fast_cores: 16,
            scheduler: "fifo".to_string(),
            estimator: "none".to_string(),
            accel: "static-hetero".to_string(),
            params: None,
            costs: RuntimeCosts::default(),
            // Nanos++ workers busy-wait, so only TurboMode halts idle cores.
            idle_to_halt: None,
            // §V-B decelerates a core once "there are no other tasks
            // ready", which a real runtime only concludes after spinning a
            // while: transient queue emptiness between dependent tasks must
            // not trigger a reconfiguration pair.
            idle_decel_delay: SimDuration::from_us(25),
            wake_latency: SimDuration::from_us(1),
            power: PowerParams::mcpat_22nm(),
            trace: TraceMode::Off,
            seed: 0xCA7A_2016,
            backend: Backend::Sim,
            faults: None,
            event_queue: None,
            memory: None,
        }
    }

    /// One of the six paper configurations by figure label (`"FIFO"`,
    /// `"CATS+BL"`, `"CATS+SA"`, `"CATA"`, `"CATA+RSU"`, `"TurboMode"`):
    /// its (scheduler, estimator, accel) keys over [`new`](Self::new)'s
    /// defaults.
    pub fn preset(name: &str, fast_cores: usize, workload: WorkloadSpec) -> Result<Self, ExpError> {
        let (scheduler, estimator, accel) = match name {
            "FIFO" => ("fifo", "none", "static-hetero"),
            "CATS+BL" => ("cats", "bottom-level", "static-hetero"),
            "CATS+SA" => ("cats", "static-annotations", "static-hetero"),
            "CATA" => ("cats-homogeneous", "static-annotations", "software-cata"),
            "CATA+RSU" => ("cats-homogeneous", "static-annotations", "rsu"),
            "TurboMode" => ("fifo", "none", "turbo"),
            other => {
                return Err(ExpError::UnknownKey {
                    kind: "preset",
                    key: other.to_string(),
                    known: PAPER_PRESETS.map(String::from).to_vec(),
                })
            }
        };
        let mut spec = ScenarioSpec {
            fast_cores,
            scheduler: scheduler.to_string(),
            estimator: estimator.to_string(),
            accel: accel.to_string(),
            ..ScenarioSpec::new(name, workload)
        };
        match name {
            // CATS's threshold: only tasks on the longest pending path.
            "CATS+BL" => {
                spec.params = Some(PolicyParams {
                    alpha: Some(1.0),
                    software_path: None,
                })
            }
            "CATA" => {
                spec.params = Some(PolicyParams {
                    alpha: None,
                    software_path: Some(SoftwarePathParams::paper_calibrated()),
                })
            }
            // Nanos++ workers busy-wait in user space; only after the spin
            // phase do they block on a futex, letting the OS idle task run
            // `hlt` (C0 → C1). Until then the core spins — possibly at the
            // accelerated level, which is the energy waste §V-D attributes
            // to TurboMode ("it may accelerate … runtime idle-loops").
            "TurboMode" => spec.idle_to_halt = Some(SimDuration::from_us(40)),
            _ => {}
        }
        Ok(spec)
    }

    /// All six paper configurations at one fast-core count, in figure
    /// order.
    pub fn paper_matrix(fast_cores: usize, workload: WorkloadSpec) -> Vec<Self> {
        PAPER_PRESETS
            .iter()
            .map(|name| {
                Self::preset(name, fast_cores, workload.clone()).expect("paper presets resolve")
            })
            .collect()
    }

    /// The resolved policy parameters (missing → defaults).
    pub fn params_or_default(&self) -> PolicyParams {
        self.params.clone().unwrap_or_default()
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("spec serializes")
    }

    /// Serializes to pretty JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Parses a JSON spec.
    pub fn from_json(text: &str) -> Result<Self, ExpError> {
        serde_json::from_str(text).map_err(|e| ExpError::Parse(e.to_string()))
    }

    /// Serializes to TOML.
    pub fn to_toml(&self) -> String {
        toml::to_string(self).expect("spec serializes")
    }

    /// Parses a TOML spec.
    pub fn from_toml(text: &str) -> Result<Self, ExpError> {
        toml::from_str(text).map_err(|e| ExpError::Parse(e.to_string()))
    }

    /// Basic structural validation (a usable machine, budget ≤ cores,
    /// non-empty keys, and on the native backend an accel key it can run).
    pub fn validate(&self) -> Result<(), ExpError> {
        if self.machine.num_cores == 0 {
            return Err(ExpError::InvalidSpec(
                "machine.num_cores must be at least 1".to_string(),
            ));
        }
        if self.fast_cores > self.machine.num_cores {
            return Err(ExpError::InvalidSpec(format!(
                "fast_cores {} exceeds machine size {}",
                self.fast_cores, self.machine.num_cores
            )));
        }
        for (what, key) in [
            ("scheduler", &self.scheduler),
            ("estimator", &self.estimator),
            ("accel", &self.accel),
        ] {
            if key.is_empty() {
                return Err(ExpError::InvalidSpec(format!("empty {what} key")));
            }
        }
        if let Some(ref faults) = self.faults {
            faults.validate(self.machine.num_cores)?;
        }
        if let Some(ref key) = self.event_queue {
            key.parse::<cata_sim::EventBackend>()
                .map_err(|_| ExpError::UnknownKey {
                    kind: "event-queue backend",
                    key: key.clone(),
                    known: cata_sim::EventBackend::ALL
                        .map(|b| b.name().to_string())
                        .to_vec(),
                })?;
        }
        if let Some(ref memory) = self.memory {
            memory.validate()?;
        }
        if self.backend == Backend::Native {
            super::executor::native_rsm_mode(&self.accel)?;
        }
        if let Some((name, v)) = self
            .power
            .named()
            .into_iter()
            .find(|(_, v)| !(v.is_finite() && *v >= 0.0))
        {
            return Err(ExpError::InvalidSpec(format!(
                "power parameter {name} must be finite and non-negative, got {v}"
            )));
        }
        Ok(())
    }

    /// Shrinks the machine for unit tests (`n` cores, `fast` fast/budget).
    pub fn with_small_machine(mut self, n: usize, fast: usize) -> Self {
        self.machine = MachineConfig::small_test(n);
        self.fast_cores = fast;
        self
    }

    /// Enables full event tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = TraceMode::Full;
        self
    }

    /// Selects an explicit trace collection mode.
    pub fn with_trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace = mode;
        self
    }

    /// Selects the execution backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a deterministic fault-injection schedule.
    pub fn with_faults(mut self, faults: crate::fault::FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches a shared-memory interference model (bandwidth slots +
    /// arbitration policy). `slots == 0` keeps the uncontended model.
    pub fn with_memory(mut self, memory: crate::mem::MemorySpec) -> Self {
        self.memory = Some(memory);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_carry_registry_keys() {
        let w = WorkloadSpec::ForkJoin {
            waves: 2,
            width: 4,
            cycles: 1000,
        };
        let specs = ScenarioSpec::paper_matrix(8, w);
        let keys: Vec<(&str, &str, &str)> = specs
            .iter()
            .map(|s| (s.scheduler.as_str(), s.estimator.as_str(), s.accel.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("fifo", "none", "static-hetero"),
                ("cats", "bottom-level", "static-hetero"),
                ("cats", "static-annotations", "static-hetero"),
                ("cats-homogeneous", "static-annotations", "software-cata"),
                ("cats-homogeneous", "static-annotations", "rsu"),
                ("fifo", "none", "turbo"),
            ]
        );
    }

    #[test]
    fn unknown_preset_is_an_error() {
        let w = WorkloadSpec::Chain { n: 2, cycles: 10 };
        let err = ScenarioSpec::preset("CATS+XL", 8, w).unwrap_err();
        assert!(matches!(err, ExpError::UnknownKey { kind: "preset", .. }));
    }

    #[test]
    fn json_and_toml_round_trip() {
        let w = WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, 42);
        let spec = ScenarioSpec::preset("CATA", 16, w).unwrap().with_trace();
        let json = spec.to_json_pretty();
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);
        let toml_text = spec.to_toml();
        assert_eq!(ScenarioSpec::from_toml(&toml_text).unwrap(), spec);
    }

    #[test]
    fn sim_specs_omit_backend_and_legacy_specs_parse() {
        let w = WorkloadSpec::Chain { n: 2, cycles: 10 };
        let sim = ScenarioSpec::preset("CATA", 8, w.clone()).unwrap();
        assert_eq!(sim.backend, Backend::Sim);
        let json = sim.to_json();
        assert!(
            !json.contains("backend"),
            "sim specs must keep the pre-backend layout (digest stability): {json}"
        );
        // A legacy spec (no backend key) parses as sim.
        let parsed = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(parsed.backend, Backend::Sim);
        assert_eq!(parsed, sim);

        let native = sim.clone().with_backend(Backend::Native);
        let njson = native.to_json();
        assert!(njson.contains("\"backend\":\"native\""), "{njson}");
        assert_eq!(ScenarioSpec::from_json(&njson).unwrap(), native);
        let ntoml = native.to_toml();
        assert_eq!(ScenarioSpec::from_toml(&ntoml).unwrap(), native);
        // The backend is part of the cell identity.
        assert_ne!(json, njson);
    }

    #[test]
    fn event_queue_key_is_omitted_when_default() {
        let w = WorkloadSpec::Chain { n: 2, cycles: 10 };
        let spec = ScenarioSpec::preset("CATA", 8, w).unwrap();
        assert_eq!(spec.event_queue, None);
        let json = spec.to_json();
        assert!(
            !json.contains("event_queue"),
            "default specs must keep the pre-knob layout (digest stability): {json}"
        );
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);

        // Both legacy keys still serialize, parse and validate.
        for key in ["heap", "calendar-wheel"] {
            let pinned = ScenarioSpec {
                event_queue: Some(key.to_string()),
                ..spec.clone()
            };
            let pjson = pinned.to_json();
            assert!(
                pjson.contains(&format!("\"event_queue\":\"{key}\"")),
                "{pjson}"
            );
            assert_eq!(ScenarioSpec::from_json(&pjson).unwrap(), pinned);
            assert_eq!(ScenarioSpec::from_toml(&pinned.to_toml()).unwrap(), pinned);
            assert!(pinned.validate().is_ok());
        }

        // Unknown keys are caught at validation, naming the alternatives.
        let bad = ScenarioSpec {
            event_queue: Some("splay-tree".to_string()),
            ..spec
        };
        match bad.validate() {
            Err(ExpError::UnknownKey { kind, key, known }) => {
                assert_eq!(kind, "event-queue backend");
                assert_eq!(key, "splay-tree");
                assert_eq!(known, ["heap", "calendar-wheel"]);
            }
            other => panic!("wrong result: {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_oversized_budget() {
        let w = WorkloadSpec::Chain { n: 2, cycles: 10 };
        let mut spec = ScenarioSpec::new("bad", w);
        spec.fast_cores = spec.machine.num_cores + 1;
        assert!(matches!(spec.validate(), Err(ExpError::InvalidSpec(_))));
    }
}
