//! `repro` — regenerates every table and figure of the paper, and runs
//! arbitrary `ScenarioSpec` files, through the `exp` facade.
//!
//! ```text
//! repro table1          Table I (processor configuration)
//! repro fig4            Figure 4 (FIFO/CATS+BL/CATS+SA/CATA, speedup + EDP)
//! repro fig5            Figure 5 (CATA/CATA+RSU/TurboMode, speedup + EDP)
//! repro latency         §V-C reconfiguration latency / lock contention
//! repro rsu-overhead    §III-B-4 RSU storage/area/power
//! repro sweep-budget    A1: power-budget sensitivity
//! repro sweep-latency   A2: DVFS-latency sensitivity
//! repro sweep-threshold A3: BL threshold sensitivity
//! repro multilevel      A4: multi-level DVFS extension
//! repro all             everything above
//! repro run SPEC...     run scenario spec files (.json/.toml) as a suite
//! repro serve TARGET    open-system service run (streaming arrivals)
//! repro preset NAME...  run paper presets by label (FIFO, CATA, ...)
//! repro spec NAME       print a preset's spec as JSON (edit → `repro run`)
//! repro export [SPEC]   write a workload's task graph as a .tdg.json
//! repro record TARGET   run + capture the graph as a calibrated .tdg.json
//! repro merge STORE...  merge JSONL result shards, render, gate vs baseline
//! repro gc STORE SPEC.. drop stored cells whose grid no longer names them
//! repro perf            engine perf harness: events/sec -> BENCH_engine.json
//! repro watch STORE...  operator console: live-tail stores + progress streams
//! repro replay KEY      re-run a stored cell bit-identically, diff the reports
//! ```
//!
//! Options: `--scale tiny|small|paper` (default `paper`), `--seed N`,
//! `--csv DIR` (also writes CSV files), `--jobs N` (parallel suite
//! workers; 0 = all host cores, default 0), `--bench NAME` (workload for
//! `preset`/`spec`), `--fast N` (fast cores for `preset`/`spec`),
//! `--toml` (emit TOML from `spec`).
//!
//! TDG capture & replay: `export` serializes a workload's task graph —
//! the `--bench`/`--scale`/`--seed` generator, or the workload of a given
//! spec file — to a digest-pinned `.tdg.json` ([`cata_tdg::TdgFile`]).
//! `record TARGET` (a preset label or a spec file) *executes* the scenario
//! and captures the graph it ran — on the native backend each task's
//! profile carries the *observed* wall duration, so the artifact replays
//! host-calibrated on the simulator. Replay goes through the existing
//! paths: `--tdg FILE` makes `preset`/`spec` use the file (content-digest
//! pinned) as their workload, and `run` accepts spec files whose workload
//! is `Inline`/`File`. An exported generator replayed from its `.tdg.json`
//! produces a bit-identical sim report.
//!
//! Service mode (`serve`): `repro serve TARGET` — a preset label or a
//! `ServiceSpec` JSON file — runs the open-system engine, where graph
//! instances *arrive continuously* instead of one graph running to
//! completion. Traffic comes from exactly one source: `--rate R`
//! arrivals/sec (`--arrival poisson|fixed`, default poisson, over
//! `--duration T`, e.g. `50ms`), or `--tape FILE` replaying a recorded
//! traffic tape (digest-pinned, bit-identical). `--record-tape FILE`
//! saves a generated run's traffic for later replay; `--admission P`
//! (`admit-all`/`queue-cap`/`shed-noncritical`) and `--queue-cap N`
//! pick the front-door policy; `--store FILE` appends the run as a
//! JSONL cell. The report adds p50/p99/p999 response time, queue-wait
//! vs service-time split, sustained graphs/sec, and drop accounting.
//!
//! Fault injection (`run`/`preset`/`serve`): `--faults FILE.json` loads a
//! `FaultSpec`, `--fault-cores 0@1ms,3@2ms+5ms` schedules core fail-stop /
//! fail-recover events, `--fault-rate P` injects transient task faults,
//! `--recovery KEY` picks the displaced-work policy (`retry-same-core`,
//! `reroute-prefer-fast`, `shed-noncritical-on-degraded`). Faulted runs
//! print a `fault:` accounting line ending in the deterministic
//! `FaultReport` digest; `--fault-axis` (run/preset) pairs every cell
//! with its fault-free twin in the grid.
//!
//! Memory interference (`run`/`preset`/`serve`): `--mem-slots N` bounds
//! the shared memory subsystem's concurrent accesses (comma list expands
//! the grid; `inf` = uncontended), `--arbitration KEY` picks who waits
//! (`fifo`, `crit-first`, `round-robin`). Contended runs print a
//! `memory:` accounting line ending in the deterministic `MemoryReport`
//! digest; `--mem-axis` (run/preset) keeps every cell's memory-free twin
//! first in the grid.
//!
//! Backends (`run`/`preset`/`gc`): `--backend sim|native|both` selects the
//! executor per cell (`both` duplicates every spec into a sim + native
//! pair, side by side in the grid); native cells run the thread-pool
//! runtime on a mock DVFS backend and report calibrated modeled energy —
//! or RAPL-measured joules with `--native-energy auto` on a host whose
//! powercap counters are readable.
//!
//! Sharded/stored suites (`run`/`preset`): `--shard K/N` keeps the
//! deterministic `K`-th of `N` slices of the cell grid (`--shard-order
//! snake` deals cells cost-aware serpentine instead of `i % N` striping;
//! `--calibrate-costs PRIOR.jsonl` fits the ranking's generator cost
//! weights from a prior sweep's recorded wall times — pass the same store
//! to every shard), `--store FILE` streams each completed cell into a
//! JSONL results store
//! and *resumes* from it (already-completed cells are loaded, not
//! re-run). `merge` combines shard stores, prints the suite table from
//! the store, writes `--out FILE` if given, renders paper-figure panels
//! from the records with `--fig fig4|fig5`, and — with `--baseline
//! BENCH_engine.json` — fails (exit 1) when merged events/sec drops below
//! `--min-ratio` (default 0.75) of the baseline's medium summary: the CI
//! perf gate. `gc STORE SPEC... [--spec FILE]` rewrites a store keeping
//! only records whose `(index, spec_digest)` the given grid still names.
//!
//! `perf` options: `--smoke` (CI-sized), `--reps N` (timing repetitions,
//! default 5), `--out FILE` (default `BENCH_engine.json`), `--baseline
//! FILE` (embed a previous report's medium summary + speedup),
//! `--trajectory FILE` (append this run as one JSONL point to the
//! append-only perf trajectory).
//!
//! Operator console (`watch`): `repro watch [STORE.jsonl...]` live-tails
//! one or more shard stores — plus `--progress FILE` heartbeat sidecars
//! and a `--trajectory FILE` perf series — into a terminal dashboard:
//! grid-completion heatmap, events/sec sparkline, per-cell accounting,
//! `Enter` for a finished cell's detail pane. `--once` renders a single
//! headless frame to stdout (CI-friendly, auto-sized so every cell gets a
//! table row); `--until-done [--timeout S]` polls headlessly until the
//! grid completes, then prints the final frame; `--interval-ms N`,
//! `--width N`, `--height N` tune the loop. Runs *emit* the heartbeats:
//! `run`/`preset` (with `--store`) and `serve` accept `--progress FILE`
//! and stream `cata-progress/v1` records — cell-start / cell-finish /
//! grid / service snapshots — with the store's atomic-append discipline.
//! Telemetry is best-effort and purely observational: results, digests,
//! and stores are byte-identical with or without it.
//!
//! Replay (`replay`): `repro replay CELL_KEY --store FILE.jsonl` finds
//! the stored cell (by exact key or grid index), re-runs its embedded
//! spec on the deterministic sim backend, and diffs the fresh report
//! against the stored one — exit 0 on a bit-identical match, 1 on
//! divergence. Records predating spec embedding (or `serve` cells, whose
//! service spec is not a scenario spec) are refused with a clear error.

use cata_bench::figures::{
    fig4_configs, fig5_configs, figure_labels, render_latency_analysis, render_panel,
    render_panel_at, render_rsu_overhead, render_table1, Metric, FAST_CORE_COUNTS,
};
use cata_bench::matrix::{run_matrix, MatrixResult, DEFAULT_SEED};
use cata_bench::sweeps;
use cata_bench::tables::{fmt_energy, Table};
use cata_core::exp::{
    spec_digest, Backend, BackendDispatch, CellRecord, CostCalibration, EnergySource, Executor,
    NativeExecutor, ProgressWriter, ResultsStore, Scenario, ScenarioSpec, ShardOrder, Suite,
    WorkloadSpec, STORE_SCHEMA,
};
use cata_core::fault::FaultSpec;
use cata_core::mem::{default_arbitration_registry, MemorySpec};
use cata_core::service::{
    default_admission_registry, replay_tape_observed, run_service_observed, AdmissionParams,
    ArrivalSpec, ServiceSpec, TrafficTape,
};
use cata_core::{
    exp::{default_registries, host_fingerprint, now_unix_ms},
    RunReport, SimExecutor,
};
use cata_cpufreq::backend::{DvfsBackend, MockDvfs};
use cata_obs::{run_watch, WatchConfig};
use cata_sim::time::SimDuration;
use cata_tdg::TdgFile;
use cata_workloads::{Benchmark, Scale};
use std::sync::Arc;
use std::time::Instant;

struct Opts {
    cmd: String,
    /// Spec files (`run`/`gc`), preset labels (`preset`/`spec`), or shard
    /// stores (`merge`).
    args: Vec<String>,
    scale: Scale,
    seed: u64,
    csv_dir: Option<String>,
    jobs: usize,
    bench: Benchmark,
    fast: usize,
    emit_toml: bool,
    smoke: bool,
    reps: usize,
    out: Option<String>,
    baseline: Option<String>,
    shard: Option<(usize, usize)>,
    shard_order: ShardOrder,
    store: Option<String>,
    /// `--calibrate-costs FILE.jsonl`: fit snake-shard cost multipliers
    /// from a prior sweep's recorded wall times (every shard of one grid
    /// must pass the same store).
    calibrate_costs: Option<String>,
    min_ratio: f64,
    trajectory: Option<String>,
    /// `--progress FILE`: heartbeat sidecars. Emitters (`run`/`preset`
    /// with `--store`, `serve`) accept exactly one; `watch` tails many
    /// (repeat the flag, one per shard).
    progress: Vec<String>,
    /// `watch --once`: render one headless frame and exit.
    watch_once: bool,
    /// `watch --until-done`: poll headlessly until the grid completes.
    watch_until_done: bool,
    /// `watch --timeout S`: give up on `--until-done` after S seconds.
    watch_timeout_s: Option<u64>,
    /// `watch --interval-ms N`: tail-poll cadence (default 250).
    watch_interval_ms: Option<u64>,
    /// `watch --width N` / `--height N`: frame-size overrides.
    watch_width: Option<usize>,
    watch_height: Option<usize>,
    /// Which backend(s) `run`/`preset`/`gc` grids use. `None` (no
    /// `--backend` flag) keeps each spec's own backend field — a spec
    /// file that says `"backend": "native"` runs native; `both`
    /// duplicates every spec into a sim + native pair.
    backend: Option<BackendSel>,
    /// Native energy policy (`auto` = RAPL when readable, else model).
    native_energy: EnergySource,
    /// `--spec FILE` grid files for `gc`.
    spec_files: Vec<String>,
    /// `merge --fig fig4|fig5`: render figure panels from the merged store.
    fig: Option<String>,
    /// `--tdg FILE`: replay this TDG file as the workload of
    /// `preset`/`spec`/`serve` (content-digest pinned at parse time).
    tdg: Option<String>,
    /// `serve --rate R`: generated arrival rate, graph instances/sec.
    rate: Option<f64>,
    /// `serve --arrival poisson|fixed`: shape of generated traffic.
    arrival: Option<ArrivalKind>,
    /// `serve --tape FILE`: replay this traffic tape instead of
    /// generating arrivals (mutually exclusive with `--rate`).
    tape: Option<String>,
    /// `serve --duration T`: arrival window (`50ms`, `2s`, `500us`;
    /// a bare number is milliseconds).
    duration: Option<SimDuration>,
    /// `serve --admission P`: admission-policy registry key.
    admission: Option<String>,
    /// `serve --queue-cap N`: in-flight cap for the bounded policies.
    queue_cap: Option<usize>,
    /// `serve --record-tape FILE`: save the generated traffic tape.
    record_tape: Option<String>,
    /// `--faults FILE.json`: load a [`FaultSpec`] file (run/preset/serve).
    faults: Option<String>,
    /// `--fault-cores LIST`: core fail-stop shorthand (`0@1ms,3@2ms+5ms`).
    fault_cores: Option<String>,
    /// `--fault-rate P`: transient task-fault probability per completion.
    fault_rate: Option<f64>,
    /// `--recovery KEY`: recovery-policy registry key for displaced work.
    recovery: Option<String>,
    /// `--fault-axis`: run each cell twice — fault-free twin, then the
    /// faulted cell — side by side in the suite grid.
    fault_axis: bool,
    /// `--mem-slots LIST`: shared-memory bandwidth slots (`1`, `2,4`,
    /// `inf`; `inf`/`0` = uncontended). A comma list expands the grid.
    mem_slots: Option<Vec<u64>>,
    /// `--arbitration LIST`: memory arbitration keys (comma list expands
    /// the grid; default `fifo`).
    arbitration: Option<Vec<String>>,
    /// `--mem-axis`: keep each cell's memory-free twin first, then the
    /// contended variants — side by side in the suite grid.
    mem_axis: bool,
    /// Generator flags the user passed *explicitly* (`--bench`,
    /// `--scale`, `--seed`), so commands that take a SPEC file can
    /// reject them instead of silently ignoring a conflicting source.
    generator_flags: Vec<&'static str>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArrivalKind {
    Poisson,
    Fixed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendSel {
    Sim,
    Native,
    Both,
}

impl BackendSel {
    /// Expands one spec into the selected backend cells (`both` keeps the
    /// sim cell first, then its native twin — side by side in the grid).
    fn expand(self, spec: ScenarioSpec) -> Vec<ScenarioSpec> {
        match self {
            BackendSel::Sim => vec![spec.with_backend(Backend::Sim)],
            BackendSel::Native => vec![spec.with_backend(Backend::Native)],
            BackendSel::Both => vec![
                spec.clone().with_backend(Backend::Sim),
                spec.with_backend(Backend::Native),
            ],
        }
    }
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1);
    let mut cmd = None;
    let mut rest = Vec::new();
    let mut scale = Scale::Paper;
    let mut seed = DEFAULT_SEED;
    let mut csv_dir = None;
    let mut jobs = 0usize;
    let mut bench = Benchmark::Dedup;
    let mut fast = 16usize;
    let mut emit_toml = false;
    let mut smoke = false;
    let mut reps = 5usize;
    let mut out = None;
    let mut baseline = None;
    let mut shard = None;
    let mut shard_order = ShardOrder::Striped;
    let mut store = None;
    let mut calibrate_costs = None;
    let mut min_ratio = 0.75f64;
    let mut trajectory = None;
    let mut progress = Vec::new();
    let mut watch_once = false;
    let mut watch_until_done = false;
    let mut watch_timeout_s = None;
    let mut watch_interval_ms = None;
    let mut watch_width = None;
    let mut watch_height = None;
    let mut backend = None;
    let mut native_energy = EnergySource::Auto;
    let mut spec_files = Vec::new();
    let mut fig = None;
    let mut tdg = None;
    let mut rate = None;
    let mut arrival = None;
    let mut tape = None;
    let mut duration = None;
    let mut admission = None;
    let mut queue_cap = None;
    let mut record_tape = None;
    let mut faults = None;
    let mut fault_cores = None;
    let mut fault_rate = None;
    let mut recovery = None;
    let mut fault_axis = false;
    let mut mem_slots = None;
    let mut arbitration = None;
    let mut mem_axis = false;
    let mut generator_flags = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                generator_flags.push("--scale");
                scale = match args.next().as_deref() {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    other => die(&format!("bad --scale {other:?}")),
                }
            }
            "--seed" => {
                generator_flags.push("--seed");
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("bad --seed"));
            }
            "--csv" => {
                csv_dir = Some(args.next().unwrap_or_else(|| die("missing --csv dir")));
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("bad --jobs"));
            }
            "--fast" => {
                fast = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("bad --fast"));
            }
            "--bench" => {
                generator_flags.push("--bench");
                let name = args.next().unwrap_or_else(|| die("missing --bench name"));
                bench = Benchmark::all()
                    .into_iter()
                    .find(|b| b.name().eq_ignore_ascii_case(&name))
                    .unwrap_or_else(|| die(&format!("unknown benchmark {name}")));
            }
            "--toml" => emit_toml = true,
            "--smoke" => smoke = true,
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("bad --reps"));
            }
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| die("missing --out path")));
            }
            "--baseline" => {
                baseline = Some(
                    args.next()
                        .unwrap_or_else(|| die("missing --baseline path")),
                );
            }
            "--shard" => {
                let text = args.next().unwrap_or_else(|| die("missing --shard K/N"));
                let parsed = text
                    .split_once('/')
                    .and_then(|(k, n)| Some((k.parse::<usize>().ok()?, n.parse::<usize>().ok()?)));
                shard = Some(parsed.unwrap_or_else(|| die(&format!("bad --shard {text}"))));
            }
            "--store" => {
                store = Some(args.next().unwrap_or_else(|| die("missing --store path")));
            }
            "--calibrate-costs" => {
                calibrate_costs = Some(
                    args.next()
                        .unwrap_or_else(|| die("missing --calibrate-costs store")),
                );
            }
            "--shard-order" => {
                let text = args
                    .next()
                    .unwrap_or_else(|| die("missing --shard-order striped|snake"));
                shard_order = text.parse().unwrap_or_else(|e: String| die(&e));
            }
            "--backend" => {
                backend = Some(match args.next().as_deref() {
                    Some("sim") => BackendSel::Sim,
                    Some("native") => BackendSel::Native,
                    Some("both") => BackendSel::Both,
                    other => die(&format!("bad --backend {other:?} (want sim|native|both)")),
                });
            }
            "--native-energy" => {
                native_energy = match args.next().as_deref() {
                    Some("auto") => EnergySource::Auto,
                    Some("model") => EnergySource::Model,
                    other => die(&format!("bad --native-energy {other:?} (want auto|model)")),
                };
            }
            "--spec" => {
                spec_files.push(args.next().unwrap_or_else(|| die("missing --spec file")));
            }
            "--tdg" => {
                tdg = Some(args.next().unwrap_or_else(|| die("missing --tdg file")));
            }
            "--rate" => {
                let r: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("bad --rate (want arrivals/sec)"));
                if !r.is_finite() || r <= 0.0 {
                    die(&format!("bad --rate {r} (want a positive arrivals/sec)"));
                }
                rate = Some(r);
            }
            "--arrival" => {
                arrival = Some(match args.next().as_deref() {
                    Some("poisson") => ArrivalKind::Poisson,
                    Some("fixed") => ArrivalKind::Fixed,
                    other => die(&format!("bad --arrival {other:?} (want poisson|fixed)")),
                });
            }
            "--tape" => {
                tape = Some(args.next().unwrap_or_else(|| die("missing --tape file")));
            }
            "--duration" => {
                let text = args
                    .next()
                    .unwrap_or_else(|| die("missing --duration (e.g. 50ms, 2s, 500us)"));
                duration = Some(
                    parse_duration(&text).unwrap_or_else(|| die(&format!("bad --duration {text}"))),
                );
            }
            "--admission" => {
                admission = Some(
                    args.next()
                        .unwrap_or_else(|| die("missing --admission key")),
                );
            }
            "--queue-cap" => {
                queue_cap = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("bad --queue-cap")),
                );
            }
            "--record-tape" => {
                record_tape = Some(
                    args.next()
                        .unwrap_or_else(|| die("missing --record-tape path")),
                );
            }
            "--faults" => {
                faults = Some(args.next().unwrap_or_else(|| die("missing --faults file")));
            }
            "--fault-cores" => {
                fault_cores =
                    Some(args.next().unwrap_or_else(|| {
                        die("missing --fault-cores list (e.g. 0@1ms,3@2ms+5ms)")
                    }));
            }
            "--fault-rate" => {
                let p: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("bad --fault-rate (want a probability)"));
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    die(&format!(
                        "bad --fault-rate {p} (want a probability in [0, 1])"
                    ));
                }
                fault_rate = Some(p);
            }
            "--recovery" => {
                recovery = Some(args.next().unwrap_or_else(|| die("missing --recovery key")));
            }
            "--fault-axis" => fault_axis = true,
            "--mem-slots" => {
                let text = args
                    .next()
                    .unwrap_or_else(|| die("missing --mem-slots list (e.g. 1 or 2,4,inf)"));
                let parsed: Vec<u64> = text
                    .split(',')
                    .map(|s| match s.trim() {
                        "inf" | "unlimited" => 0,
                        n => n
                            .parse()
                            .unwrap_or_else(|_| die(&format!("bad --mem-slots entry {n:?}"))),
                    })
                    .collect();
                if parsed.is_empty() {
                    die("empty --mem-slots list");
                }
                mem_slots = Some(parsed);
            }
            "--arbitration" => {
                let text = args
                    .next()
                    .unwrap_or_else(|| die("missing --arbitration key(s)"));
                let keys: Vec<String> = text.split(',').map(|s| s.trim().to_string()).collect();
                // Validate up front so a typo dies naming the known
                // policies instead of failing mid-suite.
                for key in &keys {
                    default_arbitration_registry()
                        .build(key, &MemorySpec::default())
                        .unwrap_or_else(|e| die(&e.to_string()));
                }
                arbitration = Some(keys);
            }
            "--mem-axis" => mem_axis = true,
            "--fig" => {
                let name = args.next().unwrap_or_else(|| die("missing --fig name"));
                if figure_labels(&name).is_none() {
                    die(&format!("bad --fig {name} (want fig4|fig5)"));
                }
                fig = Some(name);
            }
            "--min-ratio" => {
                min_ratio = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("bad --min-ratio"));
            }
            "--trajectory" => {
                trajectory = Some(
                    args.next()
                        .unwrap_or_else(|| die("missing --trajectory path")),
                );
            }
            "--progress" => {
                progress.push(
                    args.next()
                        .unwrap_or_else(|| die("missing --progress path")),
                );
            }
            "--once" => watch_once = true,
            "--until-done" => watch_until_done = true,
            "--timeout" => {
                watch_timeout_s = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("bad --timeout (want seconds)")),
                );
            }
            "--interval-ms" => {
                watch_interval_ms = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("bad --interval-ms")),
                );
            }
            "--width" => {
                watch_width = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("bad --width")),
                );
            }
            "--height" => {
                watch_height = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("bad --height")),
                );
            }
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other if cmd.is_none() && !other.starts_with('-') => cmd = Some(other.to_string()),
            other
                if matches!(
                    cmd.as_deref(),
                    Some(
                        "run"
                            | "preset"
                            | "spec"
                            | "merge"
                            | "gc"
                            | "export"
                            | "record"
                            | "serve"
                            | "watch"
                            | "replay"
                    )
                ) && !other.starts_with('-') =>
            {
                rest.push(other.to_string())
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    Opts {
        cmd: cmd.unwrap_or_else(|| "all".into()),
        args: rest,
        scale,
        seed,
        csv_dir,
        jobs,
        bench,
        fast,
        emit_toml,
        smoke,
        reps,
        out,
        baseline,
        shard,
        shard_order,
        store,
        calibrate_costs,
        min_ratio,
        trajectory,
        progress,
        watch_once,
        watch_until_done,
        watch_timeout_s,
        watch_interval_ms,
        watch_width,
        watch_height,
        backend,
        native_energy,
        spec_files,
        fig,
        tdg,
        rate,
        arrival,
        tape,
        duration,
        admission,
        queue_cap,
        record_tape,
        faults,
        fault_cores,
        fault_rate,
        recovery,
        fault_axis,
        mem_slots,
        arbitration,
        mem_axis,
        generator_flags,
    }
}

/// Parses a human duration (`50ms`, `2s`, `500us`, `1000ns`, `250ps`);
/// a bare number is milliseconds.
fn parse_duration(text: &str) -> Option<SimDuration> {
    let (num, ps_per_unit) = if let Some(t) = text.strip_suffix("ms") {
        (t, 1e9)
    } else if let Some(t) = text.strip_suffix("us") {
        (t, 1e6)
    } else if let Some(t) = text.strip_suffix("ns") {
        (t, 1e3)
    } else if let Some(t) = text.strip_suffix("ps") {
        (t, 1.0)
    } else if let Some(t) = text.strip_suffix('s') {
        (t, 1e12)
    } else {
        (text, 1e9)
    };
    let v: f64 = num.trim().parse().ok()?;
    if !v.is_finite() || v <= 0.0 {
        return None;
    }
    Some(SimDuration::from_ps((v * ps_per_unit).round() as u64))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    print_help();
    std::process::exit(2);
}

fn print_help() {
    eprintln!(
        "usage: repro [COMMAND] [ARGS] [--scale tiny|small|paper] [--seed N] [--csv DIR]\n\
         \x20             [--jobs N] [--bench NAME] [--fast N] [--toml]\n\
         commands: table1 fig4 fig5 latency rsu-overhead sweep-budget sweep-latency\n\
         \x20         sweep-threshold multilevel all\n\
         \x20         run SPEC.json|SPEC.toml...   preset LABEL...   spec LABEL\n\
         \x20             [--backend sim|native|both] [--native-energy auto|model]\n\
         \x20             [--shard K/N] [--shard-order striped|snake] [--store FILE.jsonl]\n\
         \x20             [--calibrate-costs PRIOR.jsonl]  (fit snake costs from wall times)\n\
         \x20             [--tdg FILE.tdg.json]  (preset/spec: replay this TDG as the workload)\n\
         \x20         serve LABEL|SPEC.json [--rate R | --tape FILE.tape.jsonl]\n\
         \x20             [--arrival poisson|fixed] [--duration T] [--admission P]\n\
         \x20             [--queue-cap N] [--record-tape FILE] [--store FILE.jsonl]\n\
         \x20         run/preset/serve fault injection: [--faults FILE.json]\n\
         \x20             [--fault-cores 0@1ms,3@2ms+5ms] [--fault-rate P] [--recovery KEY]\n\
         \x20             [--fault-axis]  (run/preset: add the fault-free twin cells)\n\
         \x20         run/preset/serve memory interference: [--mem-slots 1|2,4,inf]\n\
         \x20             [--arbitration fifo|crit-first|round-robin]\n\
         \x20             [--mem-axis]  (run/preset: add the memory-free twin cells)\n\
         \x20         export [SPEC.json] [--out FILE.tdg.json]   (workload -> TDG file)\n\
         \x20         record LABEL|SPEC.json [--backend sim|native] [--out FILE.tdg.json]\n\
         \x20         merge STORE.jsonl... [--out FILE] [--baseline FILE] [--min-ratio R]\n\
         \x20             [--fig fig4|fig5]\n\
         \x20         gc STORE.jsonl SPEC... [--spec FILE] [--backend sim|native|both]\n\
         \x20         perf [--smoke] [--reps N] [--out FILE] [--baseline FILE]\n\
         \x20             [--trajectory FILE]\n\
         \x20         watch [STORE.jsonl...] [--progress FILE]... [--trajectory FILE]\n\
         \x20             [--once | --until-done [--timeout S]] [--interval-ms N]\n\
         \x20             [--width N] [--height N]   (operator console; q/j/k/Enter)\n\
         \x20         replay CELL_KEY|INDEX --store FILE.jsonl   (re-run a stored cell\n\
         \x20             bit-identically on the sim backend; exit 1 on divergence)\n\
         \x20         run/preset (with --store) and serve emit heartbeats with\n\
         \x20             [--progress FILE.progress.jsonl]  (cata-progress/v1 sidecar)"
    );
}

/// Writes `text` to `path`, or exits with an error naming the path.
fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
}

/// Writes `table` as `DIR/NAME.csv`, creating `DIR` if needed.
fn write_csv(dir: &str, name: &str, table: &Table) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("cannot write {dir}: {e}")));
    let path = format!("{dir}/{name}.csv");
    write_file(&path, &table.to_csv());
    println!("[wrote {path}]");
}

fn emit(opts: &Opts, name: &str, table: &Table, title: &str) {
    println!("== {title} ==\n{}", table.render());
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, name, table);
    }
}

/// Reads, parses and validates a spec file, or exits naming the path.
fn load_spec(path: &str) -> ScenarioSpec {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let parsed = if path.ends_with(".toml") {
        ScenarioSpec::from_toml(&text)
    } else {
        ScenarioSpec::from_json(&text)
    };
    parsed
        .and_then(|spec| spec.validate().map(|()| spec))
        .unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// The run-summary table every suite/merge rendering shares. Energy-less
/// runs (legacy 0 J native records) render `n/a` in the energy/EDP columns
/// instead of `0.000000`, the `src` column names each cell's energy
/// provenance (simulated / modeled / rapl / none), and `cores` shows the
/// *effective* worker count where the executor clamped the spec's machine
/// to the host (`-` when the spec machine ran verbatim) — so a 32-core
/// spec run on an 8-core box is visibly an 8-core result.
fn report_table<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> Table {
    let mut table = Table::new(&[
        "config",
        "workload",
        "fast",
        "cores",
        "time",
        "energy J",
        "EDP",
        "src",
        "tasks",
        "reconfigs",
    ]);
    for report in reports {
        let has = report.energy.has_energy();
        table.row(vec![
            report.label.clone(),
            report.workload.clone(),
            report.fast_cores.to_string(),
            report
                .effective_cores
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".to_string()),
            report.exec_time.to_string(),
            fmt_energy(report.energy.energy_j, has),
            fmt_energy(report.energy.edp, has),
            report.energy.measurement.name().to_string(),
            report.tasks.to_string(),
            report.counters.reconfigs_applied.to_string(),
        ]);
    }
    table
}

/// Expands a spec list across the selected backends. Without `--backend`
/// each spec keeps its own backend field (a spec file that names
/// `"backend": "native"` runs native — and `gc` keeps its records);
/// `--backend both` interleaves each spec's sim and native cells so they
/// sit side by side in the grid and in every rendered table.
fn expand_backends(opts: &Opts, specs: Vec<ScenarioSpec>) -> Vec<ScenarioSpec> {
    match opts.backend {
        None => specs,
        Some(sel) => specs.into_iter().flat_map(|s| sel.expand(s)).collect(),
    }
}

/// The backend-aware executor `run`/`preset` fan suites across: sim cells
/// hit the simulator, native cells the thread-pool runtime driving a mock
/// DVFS backend (a real sysfs backend needs root; the mock records the
/// same decisions) with the configured energy source.
fn dispatch_executor(opts: &Opts) -> BackendDispatch {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    BackendDispatch::new().with_native(
        NativeExecutor::new()
            .energy_source(opts.native_energy)
            .backend(Arc::new(MockDvfs::new(workers, 1_000_000)) as Arc<dyn DvfsBackend>),
    )
}

/// The fault schedule the CLI flags describe, if any: `--faults FILE`
/// loads a [`FaultSpec`] JSON file, then `--fault-cores`, `--fault-rate`
/// and `--recovery` overlay individual fields (flags-only works too —
/// the rest of the spec defaults).
fn fault_overlay(opts: &Opts) -> Option<FaultSpec> {
    if opts.faults.is_none()
        && opts.fault_cores.is_none()
        && opts.fault_rate.is_none()
        && opts.recovery.is_none()
    {
        return None;
    }
    let mut spec = match &opts.faults {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            FaultSpec::from_json(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
        }
        None => FaultSpec::default(),
    };
    if let Some(text) = &opts.fault_cores {
        spec.core_failures = FaultSpec::parse_cores(text)
            .unwrap_or_else(|e| die(&format!("bad --fault-cores: {e}")));
    }
    if let Some(p) = opts.fault_rate {
        spec.task_fault_p = p;
    }
    if let Some(key) = &opts.recovery {
        spec.recovery = key.clone();
    }
    Some(spec)
}

/// Prints a run's fault accounting — the summary line plus the report
/// digest CI greps to assert same-seed determinism.
fn print_fault(report: &RunReport) {
    if let Some(f) = &report.fault {
        println!("fault: {} digest {}", f.summary(), f.digest());
    }
}

/// Applies the CLI fault schedule to a spec grid. With `--fault-axis`
/// each cell expands into its fault-free twin followed by the faulted
/// cell (named `LABEL+faults`), side by side in the grid — the
/// degradation comparison as one suite.
fn apply_faults(opts: &Opts, specs: Vec<ScenarioSpec>) -> Vec<ScenarioSpec> {
    let Some(f) = fault_overlay(opts) else {
        if opts.fault_axis {
            die("--fault-axis needs a fault schedule (--faults/--fault-cores/--fault-rate)");
        }
        return specs;
    };
    specs
        .into_iter()
        .flat_map(|spec| {
            let mut faulted = spec.clone();
            faulted.faults = Some(f.clone());
            if opts.fault_axis {
                faulted.name = format!("{}+faults", faulted.name);
                vec![spec, faulted]
            } else {
                vec![faulted]
            }
        })
        .collect()
}

/// The shared-memory configurations the CLI flags describe: the cross
/// product of `--mem-slots` and `--arbitration` (default `fifo`).
/// `--arbitration` alone is rejected — a policy needs contention to
/// arbitrate.
fn memory_overlay(opts: &Opts) -> Option<Vec<MemorySpec>> {
    let Some(slots) = &opts.mem_slots else {
        if opts.arbitration.is_some() {
            die("--arbitration needs --mem-slots N (a policy needs contention to arbitrate)");
        }
        return None;
    };
    let keys = opts
        .arbitration
        .clone()
        .unwrap_or_else(|| vec![cata_core::mem::DEFAULT_ARBITRATION.to_string()]);
    let mut specs = Vec::new();
    for &n in slots {
        for key in &keys {
            specs.push(MemorySpec {
                slots: n,
                arbitration: key.clone(),
            });
        }
    }
    Some(specs)
}

/// `inf` for the unlimited sentinel, the count otherwise — the cell-name
/// suffix and the summary tables read the same way.
fn fmt_slots(slots: u64) -> String {
    if slots == 0 {
        "inf".to_string()
    } else {
        slots.to_string()
    }
}

/// Applies the CLI memory configurations to a spec grid. One
/// configuration replaces each cell in place (same name — the
/// uncontended digest check in CI relies on `slots=inf` serializing yet
/// reporting identically); several, or `--mem-axis`, expand each cell
/// into named `LABEL+memN/KEY` variants — with the memory-free twin kept
/// first under `--mem-axis` — side by side in the grid.
fn apply_memory(opts: &Opts, specs: Vec<ScenarioSpec>) -> Vec<ScenarioSpec> {
    let Some(mems) = memory_overlay(opts) else {
        if opts.mem_axis {
            die("--mem-axis needs --mem-slots N (and optionally --arbitration)");
        }
        return specs;
    };
    let rename = opts.mem_axis || mems.len() > 1;
    specs
        .into_iter()
        .flat_map(|spec| {
            let mut cells = Vec::new();
            if opts.mem_axis {
                cells.push(spec.clone());
            }
            for m in &mems {
                let mut contended = spec.clone();
                if rename {
                    contended.name = format!(
                        "{}+mem{}/{}",
                        contended.name,
                        fmt_slots(m.slots),
                        m.arbitration
                    );
                }
                contended.memory = Some(m.clone());
                cells.push(contended);
            }
            cells
        })
        .collect()
}

/// Prints a run's memory-interference accounting — the summary line plus
/// the report digest CI greps to compare arbitration policies.
fn print_memory(report: &RunReport) {
    if let Some(m) = &report.memory {
        println!("memory: {} digest {}", m.summary(), m.digest());
    }
}

/// `repro run a.json b.toml …`: parse specs, fan them across the suite —
/// optionally a `--shard K/N` slice streamed into/resumed from a
/// `--store` JSONL file — and print one summary line per run.
fn run_specs(opts: &Opts, specs: Vec<ScenarioSpec>) {
    if specs.is_empty() {
        die("no specs given");
    }
    let specs = apply_faults(opts, specs);
    let specs = apply_memory(opts, specs);
    let specs = expand_backends(opts, specs);
    let calibration = opts.calibrate_costs.as_ref().map(|path| {
        let (records, _) = ResultsStore::load(path).unwrap_or_else(|e| die(&e.to_string()));
        let cal = CostCalibration::fit(&records, &specs);
        println!(
            "[calibrated {} cost families from {} of {} records in {path}]",
            cal.scale.len(),
            cal.observations,
            records.len()
        );
        cal
    });
    let mut suite = Suite::from_specs(specs).jobs(opts.jobs);
    if let Some(cal) = calibration {
        suite = suite.calibrate_costs(cal);
    }
    if let Some((k, n)) = opts.shard {
        suite = suite
            .shard_ordered(k, n, opts.shard_order)
            .unwrap_or_else(|e| die(&e.to_string()));
        println!("[shard {k}/{n}: {} of the grid's cells]", suite.len());
    }
    let exec = dispatch_executor(opts);
    let results = match &opts.store {
        Some(path) => {
            let store = ResultsStore::open(path).unwrap_or_else(|e| die(&e.to_string()));
            if store.recovered_torn_tail() {
                eprintln!("[store {path}: discarded a torn trailing line]");
            }
            let progress = progress_writer(opts);
            let outcome = suite.run_with_store_observed(&exec, &store, progress.as_ref());
            println!(
                "[store {path}: {} resumed, {} executed]",
                outcome.resumed, outcome.executed
            );
            outcome.results
        }
        None => suite.run(&exec),
    };
    let mut ok = Vec::new();
    let mut failed = 0;
    for result in results {
        match result {
            Ok(report) => {
                println!("{}", report.summary());
                print_fault(&report);
                print_memory(&report);
                ok.push(report);
            }
            Err(e) => {
                failed += 1;
                eprintln!("error: {e}");
            }
        }
    }
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "runs", &report_table(&ok));
    }
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Opens the `--progress` heartbeat sidecar, if one was requested. The
/// writer's shard id matches `--shard K/N` so a multi-shard watch can
/// tell the streams apart; emission itself is best-effort downstream.
fn progress_writer(opts: &Opts) -> Option<ProgressWriter> {
    let path = opts.progress.first()?;
    let shard = opts.shard.map(|(k, _)| k as u64).unwrap_or(0);
    Some(ProgressWriter::open(path, shard).unwrap_or_else(|e| die(&e.to_string())))
}

/// `repro serve TARGET`: run the open-system service engine — graph
/// instances arriving continuously into one simulation — from a preset
/// label or a `ServiceSpec` JSON file. Traffic comes from exactly one
/// source: `--rate` (generated, optionally `--record-tape`d) or
/// `--tape` (replayed, digest-pinned); mixing them is rejected up
/// front rather than silently preferring one.
fn serve_service(opts: &Opts) {
    let Some(target) = opts.args.first() else {
        die("serve needs a preset label or a ServiceSpec JSON file");
    };
    // The two traffic sources are mutually exclusive — and the flags
    // that shape *generated* traffic make no sense next to a tape,
    // whose records already are the window and the arrival pattern.
    if opts.tape.is_some() {
        if opts.rate.is_some() {
            die(
                "serve: --rate conflicts with --tape — generate traffic at a rate, \
                 or replay a recorded tape, but not both (pick one source)",
            );
        }
        if opts.arrival.is_some() {
            die("serve: --arrival shapes generated traffic and conflicts with --tape");
        }
        if opts.duration.is_some() {
            die("serve: --duration conflicts with --tape — the tape is the observation window");
        }
        if opts.record_tape.is_some() {
            die("serve: --record-tape conflicts with --tape — the run would re-record its input");
        }
    }
    if opts.arrival.is_some() && opts.rate.is_none() {
        die("serve: --arrival needs --rate R to generate traffic");
    }

    let is_spec_file = target.ends_with(".json") || target.ends_with(".toml");
    let mut spec = if is_spec_file {
        if target.ends_with(".toml") {
            die("serve specs are JSON (`ServiceSpec` has no TOML form)");
        }
        reject_conflicting_sources(opts, "serve");
        let text = std::fs::read_to_string(target)
            .unwrap_or_else(|e| die(&format!("cannot read {target}: {e}")));
        ServiceSpec::from_json(&text).unwrap_or_else(|e| die(&format!("{target}: {e}")))
    } else {
        if opts.rate.is_none() && opts.tape.is_none() {
            die(&format!(
                "serve {target}: pass --rate R (generated traffic) or --tape FILE \
                 (replayed traffic)"
            ));
        }
        let mut base = ScenarioSpec::preset(target, opts.fast, base_workload(opts))
            .unwrap_or_else(|e| die(&e.to_string()));
        base.seed = opts.seed;
        // The arrival fields below are overwritten by the flag block;
        // the placeholder only exists so tape-only runs validate.
        ServiceSpec::new(
            base,
            ArrivalSpec::Tape {
                digest: String::new(),
            },
            SimDuration::from_ms(100),
        )
    };

    if let Some(rate_hz) = opts.rate {
        spec.arrival = match opts.arrival.unwrap_or(ArrivalKind::Poisson) {
            ArrivalKind::Poisson => ArrivalSpec::Poisson { rate_hz },
            ArrivalKind::Fixed => ArrivalSpec::Fixed { rate_hz },
        };
        if opts.duration.is_none() && !is_spec_file {
            println!("[no --duration given: defaulting to 100ms of arrivals]");
        }
    }
    if let Some(d) = opts.duration {
        spec.duration = d;
    }
    if let Some(key) = &opts.admission {
        spec.admission = key.clone();
    }
    if let Some(cap) = opts.queue_cap {
        spec.admission_params = Some(AdmissionParams {
            queue_cap: Some(cap),
        });
    }
    if let Some(f) = fault_overlay(opts) {
        spec.base.faults = Some(f);
    }
    if let Some(mems) = memory_overlay(opts) {
        if mems.len() > 1 {
            die("serve is a single run — pass one --mem-slots value and one --arbitration key");
        }
        spec.base.memory = mems.into_iter().next();
    }

    let progress = progress_writer(opts);
    let started_ms = now_unix_ms();
    let t0 = Instant::now();
    let report = match &opts.tape {
        Some(path) => {
            let (tape, truncated) = TrafficTape::load(path).unwrap_or_else(|e| die(&e.to_string()));
            if truncated {
                eprintln!("[tape {path}: discarded a torn trailing record]");
            }
            // A spec whose arrival already pins a tape digest keeps its
            // pin (replay enforces it); any other arrival is replaced by
            // an unpinned tape arrival — the authoring flow.
            if !matches!(spec.arrival, ArrivalSpec::Tape { .. }) {
                spec.arrival = ArrivalSpec::Tape {
                    digest: String::new(),
                };
            }
            println!(
                "[replaying {path}: {} arrivals, digest {}]",
                tape.records.len(),
                tape.digest
            );
            replay_tape_observed(
                &spec,
                &tape,
                default_registries(),
                default_admission_registry(),
                progress.as_ref(),
            )
            .unwrap_or_else(|e| die(&e.to_string()))
        }
        None => {
            if matches!(spec.arrival, ArrivalSpec::Tape { .. }) {
                die(&format!(
                    "serve {target}: the spec's arrival is a tape; pass --tape FILE with \
                     the recorded traffic (or --rate R to generate instead)"
                ));
            }
            let (report, tape) = run_service_observed(
                &spec,
                default_registries(),
                default_admission_registry(),
                progress.as_ref(),
            )
            .unwrap_or_else(|e| die(&e.to_string()));
            if let Some(out) = &opts.record_tape {
                write_file(out, &tape.to_jsonl());
                println!(
                    "[recorded tape: {} arrivals, digest {} -> {out}]",
                    tape.records.len(),
                    tape.digest
                );
            }
            report
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();

    println!("{}", report.summary());
    print_fault(&report);
    print_memory(&report);
    let service = report
        .service
        .as_ref()
        .expect("service runs always carry service metrics");
    println!("service: {}", service.summary());
    let mut table = Table::new(&["metric", "count", "p50", "p99", "p999", "mean", "max"]);
    for (name, h) in [
        ("response", &service.latency),
        ("queue wait", &service.queue_wait),
        ("service time", &service.service_time),
    ] {
        table.row(vec![
            name.to_string(),
            h.count().to_string(),
            h.quantile_with_bound(0.5),
            h.quantile_with_bound(0.99),
            h.quantile_with_bound(0.999),
            h.mean().to_string(),
            h.max().to_string(),
        ]);
    }
    println!("{}", table.render());

    if let Some(path) = &opts.store {
        let store = ResultsStore::open(path).unwrap_or_else(|e| die(&e.to_string()));
        let digest = spec.digest();
        // Service runs are single cells, not suite-grid members: the
        // spec digest is both the cell's identity and its "grid", and
        // the index is the digest reinterpreted — collision-free per
        // distinct spec, stable across re-runs (resume-friendly).
        // `spec: None` deliberately: a `ServiceSpec` is not a
        // `ScenarioSpec`, so serve cells are not `repro replay`able —
        // replay refuses them with a clear error instead.
        let record = CellRecord {
            schema: STORE_SCHEMA.to_string(),
            index: u64::from_str_radix(&digest, 16).unwrap_or(0),
            cell: format!(
                "{}@{}/f{}/serve",
                spec.base.name, report.workload, spec.base.fast_cores
            ),
            grid: digest.clone(),
            spec_digest: digest,
            seed: spec.base.seed,
            wall_s,
            report: report.clone(),
            host: Some(host_fingerprint()),
            started_unix_ms: Some(started_ms),
            finished_unix_ms: Some(now_unix_ms()),
            spec: None,
        };
        store
            .append(&record)
            .unwrap_or_else(|e| die(&e.to_string()));
        println!("[stored service cell {} in {path}]", record.cell);
    }
}

/// `repro merge a.jsonl b.jsonl …`: combine shard stores, render the
/// suite table from the store, optionally write the merged store and gate
/// merged events/sec against a perf baseline.
fn merge_stores(opts: &Opts) {
    if opts.args.is_empty() {
        die("merge needs at least one store file");
    }
    let merged = ResultsStore::merge_files(&opts.args).unwrap_or_else(|e| die(&e.to_string()));
    if merged.truncated_shards > 0 {
        eprintln!(
            "[warning: {} shard(s) ended in a torn line — those cells are missing]",
            merged.truncated_shards
        );
    }
    if merged.distinct_grids > 1 {
        eprintln!(
            "[warning: records from {} distinct grids — shards of different \
             experiments may have been mixed, or a store was resumed after a \
             spec edit]",
            merged.distinct_grids
        );
    }
    println!(
        "[merged {} cells from {} shard(s), {} duplicate(s) collapsed]",
        merged.records.len(),
        opts.args.len(),
        merged.duplicates
    );
    let table = report_table(merged.records.iter().map(|r: &CellRecord| &r.report));
    println!("{}", table.render());
    // Contended cells carry memory-interference accounting: render the
    // policy comparison (critical wait under fifo vs crit-first sits
    // side by side when the store came from a `--mem-axis` sweep).
    if merged.records.iter().any(|r| r.report.memory.is_some()) {
        let mut mem_table = Table::new(&[
            "config",
            "slots",
            "arbitration",
            "requests",
            "waited",
            "total wait",
            "max wait",
            "crit req",
            "crit wait",
        ]);
        for rec in &merged.records {
            let Some(m) = &rec.report.memory else {
                continue;
            };
            mem_table.row(vec![
                rec.report.label.clone(),
                fmt_slots(m.slots),
                m.arbitration.clone(),
                m.requests.to_string(),
                m.waited.to_string(),
                m.total_wait.to_string(),
                m.max_wait.to_string(),
                m.crit_requests.to_string(),
                m.crit_wait.to_string(),
            ]);
        }
        println!("== memory interference ==\n{}", mem_table.render());
    }
    if let Some(fig) = &opts.fig {
        render_figure_from_records(opts, fig, &merged.records);
    }
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "merged", &table);
    }
    if let Some(out) = &opts.out {
        ResultsStore::write_all(out, &merged.records).unwrap_or_else(|e| die(&e.to_string()));
        println!("[wrote {out}]");
    }
    if let Some(bpath) = &opts.baseline {
        let text = std::fs::read_to_string(bpath)
            .unwrap_or_else(|e| die(&format!("cannot read {bpath}: {e}")));
        let base = cata_bench::perf::PerfReport::from_json(&text)
            .unwrap_or_else(|e| die(&format!("{bpath}: {e}")));
        let Some(base_medium) = base.medium() else {
            eprintln!("[gate skipped: {bpath} has no medium summary]");
            return;
        };
        let events: u64 = merged
            .records
            .iter()
            .map(|r| r.report.counters.sim_events)
            .sum();
        let wall: f64 = merged.records.iter().map(|r| r.wall_s).sum();
        let eps = events as f64 / wall.max(1e-12);
        let ratio = eps / base_medium.events_per_sec.max(1e-12);
        println!(
            "[gate: merged {eps:.0} events/sec vs baseline {:.0} = {ratio:.2}x (min {:.2})]",
            base_medium.events_per_sec, opts.min_ratio
        );
        if ratio < opts.min_ratio {
            eprintln!(
                "error: merged throughput regressed below {:.0}% of the baseline",
                opts.min_ratio * 100.0
            );
            std::process::exit(1);
        }
    }
}

/// The backend a stored cell ran on, recovered from its cell key
/// (`label@workload/fN/backend`; legacy records lack the suffix = sim).
fn record_backend(rec: &CellRecord) -> &str {
    match rec.cell.rsplit('/').next() {
        Some("native") => "native",
        _ => "sim",
    }
}

/// `repro merge … --fig fig4|fig5`: assemble a `MatrixResult` from the
/// merged records and render the figure's speedup + EDP panels — paper
/// figures straight from sharded CI stores, no re-simulation. A
/// two-backend store renders one figure per backend (sim and native cells
/// share `(benchmark, fast, label)` and must not be mixed in one panel).
fn render_figure_from_records(opts: &Opts, fig: &str, records: &[CellRecord]) {
    let labels = figure_labels(fig).expect("validated at parse time");
    for backend in ["sim", "native"] {
        let subset: Vec<&CellRecord> = records
            .iter()
            .filter(|r| record_backend(r) == backend)
            .collect();
        if subset.is_empty() {
            continue;
        }
        let m = MatrixResult::from_records(subset.iter().copied())
            .unwrap_or_else(|e| die(&format!("--fig {fig} [{backend}]: {e}")));
        let benches = m.benchmarks();
        let fasts = m.fast_core_counts();
        if benches.is_empty() || fasts.is_empty() {
            die(&format!(
                "--fig {fig} [{backend}]: the merged store has no paper-benchmark cells"
            ));
        }
        let present: Vec<&str> = labels
            .iter()
            .copied()
            .filter(|l| m.labels().iter().any(|have| have == l))
            .collect();
        if !present.contains(&"FIFO") {
            die(&format!(
                "--fig {fig} [{backend}]: the store has no FIFO cells to normalize against"
            ));
        }
        // Figures iterate the full benchmark × fast × label cross product;
        // a partial store (one shard, or an interrupted sweep) must be a
        // clear error, not a "missing cell" panic mid-render.
        let mut missing = Vec::new();
        for &b in &benches {
            for &f in &fasts {
                for &l in &present {
                    if !m.reports.contains_key(&(b, f, l.to_string())) {
                        missing.push(format!("{}/{f}/{l}", b.name()));
                    }
                }
            }
        }
        if !missing.is_empty() {
            die(&format!(
                "--fig {fig} [{backend}]: store is not a complete grid — merge all \
                 shards first ({} missing cell(s), e.g. {})",
                missing.len(),
                missing[..missing.len().min(4)].join(", ")
            ));
        }
        for (metric, title) in [
            (Metric::Speedup, "speedup over FIFO"),
            (Metric::Edp, "normalized EDP"),
        ] {
            let panel = render_panel_at(&m, &benches, &fasts, &present, metric);
            let suffix = if metric == Metric::Speedup {
                "speedup"
            } else {
                "edp"
            };
            emit(
                opts,
                &format!("{fig}_{suffix}_{backend}_merged"),
                &panel,
                &format!("{fig} ({title}) from merged store [{backend}]"),
            );
        }
    }
}

/// The workload `preset`/`spec`/`export`/`record` operate on: the
/// `--bench/--scale/--seed` generator, or — with `--tdg FILE` — the
/// digest-pinned replay of a TDG file.
fn base_workload(opts: &Opts) -> WorkloadSpec {
    match &opts.tdg {
        Some(path) => {
            // Same rule as the SPEC-file guard: an explicit generator
            // flag next to --tdg would be silently ignored — the TDG
            // file already pins the whole graph.
            if !opts.generator_flags.is_empty() {
                die(&format!(
                    "{} conflict(s) with --tdg — the TDG file already pins the \
                     workload (pick one source)",
                    opts.generator_flags.join("/")
                ));
            }
            WorkloadSpec::tdg_file_pinned(path).unwrap_or_else(|e| die(&e.to_string()))
        }
        None => WorkloadSpec::parsec(opts.bench, opts.scale, opts.seed),
    }
}

/// A SPEC-file argument fully determines the workload; any *explicit*
/// alternative-source flag alongside it (`--tdg`, `--bench`, `--scale`,
/// `--seed`) would be silently ignored — reject the combination instead
/// so the user never exports/records a different graph than they named.
fn reject_conflicting_sources(opts: &Opts, cmd: &str) {
    if opts.tdg.is_some() {
        die(&format!(
            "{cmd}: --tdg conflicts with a SPEC argument (pick one workload source)"
        ));
    }
    if !opts.generator_flags.is_empty() {
        die(&format!(
            "{cmd}: {} conflict(s) with a SPEC argument — the spec file already \
             pins the workload (pick one source)",
            opts.generator_flags.join("/")
        ));
    }
}

/// True when `a` and `b` name the same file (the destination may not
/// exist yet, so its parent is canonicalized instead).
fn same_file(a: &str, b: &str) -> bool {
    fn canon(p: &str) -> Option<std::path::PathBuf> {
        let path = std::path::Path::new(p);
        path.canonicalize().ok().or_else(|| {
            let parent = match path.parent() {
                Some(d) if !d.as_os_str().is_empty() => d,
                _ => std::path::Path::new("."),
            };
            Some(parent.canonicalize().ok()?.join(path.file_name()?))
        })
    }
    match (canon(a), canon(b)) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

/// Writes a TDG artifact in the format its extension names — the same
/// dispatch every loader uses, so an exported file always loads back.
fn write_tdg(out: &str, tdg: &TdgFile) {
    let text = if out.ends_with(".toml") {
        tdg.to_toml()
    } else {
        tdg.to_json_pretty()
    };
    write_file(out, &text);
}

/// `repro export [SPEC.json] [--out FILE]`: serialize a workload's task
/// graph — the flag-selected generator, or the workload of a given spec
/// file — as a digest-pinned `.tdg.json`, ready to edit and replay.
fn export_tdg(opts: &Opts) {
    let workload = match opts.args.first() {
        Some(path) => {
            reject_conflicting_sources(opts, "export");
            load_spec(path).workload
        }
        None => base_workload(opts),
    };
    // `capture()` produces the artifact from one workload load — a
    // separate graph build + label lookup would read an unpinned file
    // twice and could mix revisions.
    let (_graph, tdg) = workload.capture().unwrap_or_else(|e| die(&e.to_string()));
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("{}.tdg.json", tdg.name));
    // The default name can collide with the very file the workload came
    // from (`export --tdg app.tdg.json` for a TDG named "app") — refuse
    // to clobber the source unless --out names it explicitly.
    if opts.out.is_none() {
        let source = opts.tdg.as_deref().or(match &workload {
            WorkloadSpec::File { path, .. } => Some(path.as_str()),
            _ => None,
        });
        if let Some(src) = source {
            if same_file(src, &out) {
                die(&format!(
                    "export would overwrite its own input {src}; pass --out to choose \
                     a destination"
                ));
            }
        }
    }
    write_tdg(&out, &tdg);
    println!(
        "[exported {}: {} tasks, {} types, digest {} -> {out}]",
        tdg.name,
        tdg.num_tasks(),
        tdg.types.len(),
        tdg.digest
    );
}

/// `repro record LABEL|SPEC.json [--backend sim|native] [--out FILE]`:
/// execute the scenario *and capture the graph it ran* as a replayable
/// `.tdg.json`. On the native backend each task's profile carries its
/// observed wall duration (host-calibrated replay); on the simulator the
/// capture equals the spec's graph and replays bit-identically.
fn record_tdg(opts: &Opts) {
    let Some(target) = opts.args.first() else {
        die("record needs a preset label or a spec file");
    };
    let mut spec = if target.ends_with(".json") || target.ends_with(".toml") {
        reject_conflicting_sources(opts, "record");
        load_spec(target)
    } else {
        ScenarioSpec::preset(target, opts.fast, base_workload(opts))
            .unwrap_or_else(|e| die(&e.to_string()))
    };
    match opts.backend {
        None => {}
        Some(BackendSel::Sim) => spec.backend = Backend::Sim,
        Some(BackendSel::Native) => spec.backend = Backend::Native,
        Some(BackendSel::Both) => die("record captures one run; use --backend sim|native"),
    }
    // The path the workload replays from, if any — `--tdg FILE`, or a
    // SPEC file whose workload is `File { path }` — so the output guard
    // below can refuse to clobber it.
    let replay_source: Option<String> = opts.tdg.clone().or(match &spec.workload {
        WorkloadSpec::File { path, .. } => Some(path.clone()),
        _ => None,
    });
    let scenario = Scenario::from_spec(spec);
    let exec = dispatch_executor(opts);
    let (report, captured) = exec
        .execute_captured(&scenario)
        .unwrap_or_else(|e| die(&e.to_string()));
    println!("{}", report.summary());
    // The default name is distinct from `export`'s `{name}.tdg.json`, so
    // `record CATA --tdg Dedup.tdg.json` cannot clobber the replay
    // source — but re-recording a *previously recorded* artifact (via
    // `--tdg` or a spec whose `File` workload names one) would default
    // to its own input path, so the collision is checked explicitly like
    // `export` does.
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("{}.recorded.tdg.json", captured.tdg.name));
    if opts.out.is_none() {
        if let Some(src) = replay_source.as_deref() {
            if same_file(src, &out) {
                die(&format!(
                    "record would overwrite its own input {src}; pass --out to choose \
                     a destination"
                ));
            }
        }
    }
    write_tdg(&out, &captured.tdg);
    println!(
        "[recorded {} on {}{}: {} tasks, digest {} -> {out}]",
        captured.tdg.name,
        captured.backend,
        if captured.calibrated {
            ", observed durations"
        } else {
            ", spec profiles"
        },
        captured.tdg.num_tasks(),
        captured.tdg.digest
    );
}

/// `repro gc STORE SPEC…`: drop records whose `(index, spec_digest)` no
/// longer appears in the grid the spec files (expanded across `--backend`)
/// describe — store hygiene after spec edits or grid reshapes.
fn gc_store(opts: &Opts) {
    let Some((store_path, rest)) = opts.args.split_first() else {
        die("gc needs a store file (repro gc STORE.jsonl SPEC... [--spec FILE])");
    };
    let spec_paths: Vec<&String> = rest.iter().chain(&opts.spec_files).collect();
    if spec_paths.is_empty() {
        die("gc needs at least one spec file describing the current grid");
    }
    let specs: Vec<ScenarioSpec> = spec_paths.iter().map(|p| load_spec(p)).collect();
    let suite = Suite::from_specs(expand_backends(opts, specs));
    let (kept, dropped) =
        ResultsStore::gc(store_path, &suite.grid_pairs()).unwrap_or_else(|e| die(&e.to_string()));
    println!("[gc {store_path}: kept {kept}, dropped {dropped} stale record(s)]");
}

/// `repro watch [STORE...]`: the operator console. Tails the given
/// stores (positional or `--store`), `--progress` sidecars, and the
/// `--trajectory` perf series into the live dashboard — or a headless
/// frame with `--once`/`--until-done`.
fn watch_dashboard(opts: &Opts) {
    let mut stores: Vec<std::path::PathBuf> =
        opts.args.iter().map(std::path::PathBuf::from).collect();
    if let Some(s) = &opts.store {
        stores.push(std::path::PathBuf::from(s));
    }
    let progress: Vec<std::path::PathBuf> =
        opts.progress.iter().map(std::path::PathBuf::from).collect();
    let trajectory = opts.trajectory.as_ref().map(std::path::PathBuf::from);
    if stores.is_empty() && progress.is_empty() && trajectory.is_none() {
        die(
            "watch needs something to tail: store files (positional or --store), \
             --progress FILE sidecars, or a --trajectory FILE",
        );
    }
    if opts.watch_once && opts.watch_until_done {
        die("watch: --once renders immediately and conflicts with --until-done");
    }
    if opts.watch_timeout_s.is_some() && !opts.watch_until_done {
        die("watch: --timeout only bounds --until-done");
    }
    let cfg = WatchConfig {
        stores,
        progress,
        trajectory,
        interval_ms: opts.watch_interval_ms.unwrap_or(250),
        once: opts.watch_once,
        until_done: opts.watch_until_done,
        timeout_s: opts.watch_timeout_s,
        width: opts.watch_width,
        height: opts.watch_height,
    };
    if let Err(e) = run_watch(&cfg) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// `repro replay CELL_KEY --store FILE`: re-run a stored cell from its
/// embedded spec on the deterministic sim backend and diff the fresh
/// report against the stored one. Exit 0 when bit-identical, 1 on
/// divergence — the store's own determinism check.
fn replay_stored_cell(opts: &Opts) {
    let Some(key) = opts.args.first() else {
        die("replay needs a cell key (or grid index) from the store");
    };
    let Some(store_path) = &opts.store else {
        die("replay needs --store FILE.jsonl naming the results store");
    };
    let (records, truncated) =
        ResultsStore::load(store_path).unwrap_or_else(|e| die(&e.to_string()));
    if truncated {
        eprintln!("[store {store_path}: discarded a torn trailing line]");
    }
    let index: Option<u64> = key.parse().ok();
    // Last match wins: a resumed store may hold several attempts of one
    // cell, and the newest is the one the suite would have kept.
    let record = records
        .iter()
        .rev()
        .find(|r| r.cell == **key || Some(r.index) == index)
        .unwrap_or_else(|| {
            let known: Vec<&str> = records.iter().map(|r| r.cell.as_str()).take(8).collect();
            die(&format!(
                "no cell {key:?} in {store_path} (first cells: {})",
                known.join(", ")
            ))
        });
    let Some(spec) = &record.spec else {
        die(&format!(
            "cell {} carries no embedded spec — records from pre-observability \
             sweeps and `serve` cells cannot be replayed (re-run the sweep to \
             stamp specs into the store)",
            record.cell
        ));
    };
    if spec_digest(spec) != record.spec_digest {
        die(&format!(
            "cell {}: embedded spec digests to {} but the record pins {} — \
             the store is corrupt",
            record.cell,
            spec_digest(spec),
            record.spec_digest
        ));
    }
    if spec.backend == Backend::Native {
        die(&format!(
            "cell {} ran on the native backend, which is host-timed and not \
             bit-replayable; only sim cells replay deterministically",
            record.cell
        ));
    }
    println!(
        "[replaying cell {} (index {}, seed {}, spec {})]",
        record.cell, record.index, record.seed, record.spec_digest
    );
    let fresh = SimExecutor
        .execute(&Scenario::from_spec(spec.clone()))
        .unwrap_or_else(|e| die(&e.to_string()));
    let fresh_json = serde_json::to_string(&fresh).expect("report serializes");
    let stored_json = serde_json::to_string(&record.report).expect("report serializes");
    if fresh_json == stored_json {
        println!(
            "[replay OK: report bit-identical to the stored cell ({} bytes)]",
            stored_json.len()
        );
    } else {
        eprintln!(
            "error: replay diverged from the stored report\n  stored: {} bytes, digest {}\n  fresh:  {} bytes, digest {}",
            stored_json.len(),
            cata_tdg::fnv1a_hex(stored_json.bytes()),
            fresh_json.len(),
            cata_tdg::fnv1a_hex(fresh_json.bytes()),
        );
        std::process::exit(1);
    }
}

fn main() {
    let opts = parse_args();
    // `--tdg` replaces the generator workload of the commands that build
    // one; accepting it anywhere else would silently run something other
    // than what the user asked to replay (`run`/`gc` take spec files —
    // put the TDG in the spec's workload there).
    if opts.tdg.is_some()
        && !matches!(
            opts.cmd.as_str(),
            "preset" | "spec" | "export" | "record" | "serve"
        )
    {
        die(&format!(
            "--tdg is not used by `{}` (only preset/spec/export/record/serve replay a TDG file)",
            opts.cmd
        ));
    }
    // Fault flags only shape run/preset/serve cells; anywhere else they
    // would be silently ignored.
    let has_fault_flags = opts.faults.is_some()
        || opts.fault_cores.is_some()
        || opts.fault_rate.is_some()
        || opts.recovery.is_some()
        || opts.fault_axis;
    if has_fault_flags && !matches!(opts.cmd.as_str(), "run" | "preset" | "serve") {
        die(&format!(
            "fault flags are not used by `{}` (only run/preset/serve inject faults)",
            opts.cmd
        ));
    }
    if opts.fault_axis && opts.cmd == "serve" {
        die("--fault-axis expands suite grids; `serve` is a single run (drop the flag)");
    }
    // Memory flags gate the same way: only run/preset/serve build the
    // cells they shape.
    let has_mem_flags = opts.mem_slots.is_some() || opts.arbitration.is_some() || opts.mem_axis;
    if has_mem_flags && !matches!(opts.cmd.as_str(), "run" | "preset" | "serve") {
        die(&format!(
            "memory flags are not used by `{}` (only run/preset/serve model interference)",
            opts.cmd
        ));
    }
    if opts.mem_axis && opts.cmd == "serve" {
        die("--mem-axis expands suite grids; `serve` is a single run (drop the flag)");
    }
    // Same silent-ignore class: `run`/`gc` operate on spec files whose
    // workloads are fully pinned, so an explicit generator flag next to
    // them would change nothing — reject it rather than run a workload
    // other than the one the flags described.
    if matches!(opts.cmd.as_str(), "run" | "gc") && !opts.generator_flags.is_empty() {
        die(&format!(
            "{} have no effect on `{}` — its spec files already pin the workload",
            opts.generator_flags.join("/"),
            opts.cmd
        ));
    }
    // Heartbeat sidecars: only run/preset/serve emit them and only watch
    // tails them; anywhere else the flag would be silently ignored.
    if !opts.progress.is_empty()
        && !matches!(opts.cmd.as_str(), "run" | "preset" | "serve" | "watch")
    {
        die(&format!(
            "--progress is not used by `{}` (run/preset/serve emit heartbeats, watch tails them)",
            opts.cmd
        ));
    }
    if matches!(opts.cmd.as_str(), "run" | "preset" | "serve") {
        if opts.progress.len() > 1 {
            die(&format!(
                "`{}` emits one heartbeat stream — pass --progress once (watch tails many)",
                opts.cmd
            ));
        }
        if !opts.progress.is_empty() && opts.cmd != "serve" && opts.store.is_none() {
            die(&format!(
                "`{}` --progress rides the store path — add --store FILE.jsonl",
                opts.cmd
            ));
        }
    }
    // Watch presentation flags shape only the dashboard loop.
    let has_watch_flags = opts.watch_once
        || opts.watch_until_done
        || opts.watch_timeout_s.is_some()
        || opts.watch_interval_ms.is_some()
        || opts.watch_width.is_some()
        || opts.watch_height.is_some();
    if has_watch_flags && opts.cmd != "watch" {
        die(&format!(
            "--once/--until-done/--timeout/--interval-ms/--width/--height only shape \
             `watch`, not `{}`",
            opts.cmd
        ));
    }
    let benches = Benchmark::all();
    let t0 = Instant::now();
    let all = opts.cmd == "all";

    match opts.cmd.as_str() {
        "run" => {
            let specs = opts.args.iter().map(|p| load_spec(p)).collect();
            run_specs(&opts, specs);
            eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
            return;
        }
        "preset" => {
            let workload = base_workload(&opts);
            let labels: Vec<String> = if opts.args.is_empty() {
                [
                    "FIFO",
                    "CATS+BL",
                    "CATS+SA",
                    "CATA",
                    "CATA+RSU",
                    "TurboMode",
                ]
                .map(String::from)
                .to_vec()
            } else {
                opts.args.clone()
            };
            let specs = labels
                .iter()
                .map(|label| {
                    ScenarioSpec::preset(label, opts.fast, workload.clone())
                        .unwrap_or_else(|e| die(&e.to_string()))
                })
                .collect();
            run_specs(&opts, specs);
            eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
            return;
        }
        "spec" => {
            let label = opts.args.first().map(String::as_str).unwrap_or("CATA");
            let workload = base_workload(&opts);
            let spec = ScenarioSpec::preset(label, opts.fast, workload)
                .unwrap_or_else(|e| die(&e.to_string()));
            if opts.emit_toml {
                println!("{}", spec.to_toml());
            } else {
                println!("{}", spec.to_json_pretty());
            }
            return;
        }
        "serve" => {
            serve_service(&opts);
            eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
            return;
        }
        "watch" => {
            watch_dashboard(&opts);
            return;
        }
        "replay" => {
            replay_stored_cell(&opts);
            eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
            return;
        }
        "export" => {
            export_tdg(&opts);
            eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
            return;
        }
        "record" => {
            record_tdg(&opts);
            eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
            return;
        }
        "merge" => {
            merge_stores(&opts);
            eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
            return;
        }
        "gc" => {
            gc_store(&opts);
            eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
            return;
        }
        "perf" => {
            println!(
                "[perf: {} mode, {} reps per cell, trace off]",
                if opts.smoke { "smoke" } else { "full" },
                opts.reps
            );
            let mut report = cata_bench::perf::run_perf(opts.smoke, opts.reps);
            if let Some(path) = &opts.baseline {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
                let base = cata_bench::perf::PerfReport::from_json(&text)
                    .unwrap_or_else(|e| die(&format!("{path}: {e}")));
                report = report.with_baseline(&base);
                // Regression gate, per size: every workload size present
                // in both reports must hold `--min-ratio` of the
                // baseline's events/sec. Full mode therefore gates
                // `large` directly instead of via the medium proxy.
                let mut worst: Option<(&str, f64)> = None;
                for cur in &report.summaries {
                    let Some(b) = base.summaries.iter().find(|s| s.workload == cur.workload) else {
                        continue;
                    };
                    let ratio = cur.events_per_sec / b.events_per_sec.max(1e-12);
                    println!(
                        "[gate {}: {:.0} vs baseline {:.0} events/sec = {ratio:.2}x (min {:.2})]",
                        cur.workload, cur.events_per_sec, b.events_per_sec, opts.min_ratio
                    );
                    if ratio < opts.min_ratio && worst.is_none_or(|(_, w)| ratio < w) {
                        worst = Some((&cur.workload, ratio));
                    }
                }
                if let Some((size, ratio)) = worst {
                    eprintln!(
                        "error: {size} throughput regressed to {:.0}% of the baseline \
                         (min {:.0}%)",
                        ratio * 100.0,
                        opts.min_ratio * 100.0
                    );
                    std::process::exit(1);
                }
            }
            print!("{}", report.render());
            let out = opts.out.as_deref().unwrap_or("BENCH_engine.json");
            write_file(out, &report.to_json_pretty());
            println!("[wrote {out}]");
            if let Some(path) = &opts.trajectory {
                cata_bench::perf::append_trajectory(path, &report)
                    .unwrap_or_else(|e| die(&format!("{path}: {e}")));
                println!("[appended trajectory point to {path}]");
            }
            eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
            return;
        }
        _ => {}
    }

    if all || opts.cmd == "table1" {
        println!(
            "== Table I: processor configuration ==\n{}",
            render_table1()
        );
    }

    if all || opts.cmd == "fig4" {
        println!(
            "[fig4: running 4 configs x 6 benchmarks x {:?} fast cores at {} scale, jobs={}]",
            FAST_CORE_COUNTS,
            opts.scale.name(),
            opts.jobs
        );
        let m = run_matrix(
            &benches,
            &FAST_CORE_COUNTS,
            fig4_configs,
            opts.scale,
            opts.seed,
            opts.jobs,
        );
        let labels = ["FIFO", "CATS+BL", "CATS+SA", "CATA"];
        emit(
            &opts,
            "fig4_speedup",
            &render_panel(&m, &benches, &labels, Metric::Speedup),
            "Figure 4 (top): speedup over FIFO",
        );
        emit(
            &opts,
            "fig4_edp",
            &render_panel(&m, &benches, &labels, Metric::Edp),
            "Figure 4 (bottom): normalized EDP",
        );
    }

    if all || opts.cmd == "fig5" || opts.cmd == "latency" {
        println!(
            "[fig5: running 4 configs x 6 benchmarks x {:?} fast cores at {} scale, jobs={}]",
            FAST_CORE_COUNTS,
            opts.scale.name(),
            opts.jobs
        );
        let m = run_matrix(
            &benches,
            &FAST_CORE_COUNTS,
            fig5_configs,
            opts.scale,
            opts.seed,
            opts.jobs,
        );
        if all || opts.cmd == "fig5" {
            let labels = ["CATA", "CATA+RSU", "TurboMode"];
            emit(
                &opts,
                "fig5_speedup",
                &render_panel(&m, &benches, &labels, Metric::Speedup),
                "Figure 5 (top): speedup over FIFO",
            );
            emit(
                &opts,
                "fig5_edp",
                &render_panel(&m, &benches, &labels, Metric::Edp),
                "Figure 5 (bottom): normalized EDP",
            );
        }
        if all || opts.cmd == "latency" {
            emit(
                &opts,
                "latency",
                &render_latency_analysis(&m, &benches, 16),
                "Section V-C: software reconfiguration path analysis (16 fast cores)",
            );
        }
    }

    if all || opts.cmd == "rsu-overhead" {
        println!(
            "== Section III-B-4: RSU overhead ==\n{}",
            render_rsu_overhead()
        );
    }

    if all || opts.cmd == "sweep-budget" {
        emit(
            &opts,
            "sweep_budget",
            &sweeps::budget_sweep(
                Benchmark::Swaptions,
                opts.scale,
                &[4, 8, 12, 16, 20, 24, 28, 32],
            ),
            "Ablation A1: power-budget sweep (Swaptions, CATA+RSU)",
        );
    }

    if all || opts.cmd == "sweep-latency" {
        emit(
            &opts,
            "sweep_latency",
            &sweeps::latency_sweep(
                Benchmark::Fluidanimate,
                opts.scale,
                &[1, 5, 25, 100, 400, 1000],
            ),
            "Ablation A2: DVFS transition latency sweep (Fluidanimate, 16 fast)",
        );
    }

    if all || opts.cmd == "sweep-threshold" {
        emit(
            &opts,
            "sweep_threshold",
            &sweeps::threshold_sweep(
                Benchmark::Bodytrack,
                opts.scale,
                &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            ),
            "Ablation A3: bottom-level criticality threshold sweep (Bodytrack)",
        );
    }

    if all || opts.cmd == "multilevel" {
        emit(
            &opts,
            "multilevel",
            &sweeps::multilevel_sweep(Benchmark::Swaptions, opts.scale),
            "Ablation A4: multi-level DVFS extension (Swaptions)",
        );
    }

    if !all
        && ![
            "table1",
            "fig4",
            "fig5",
            "latency",
            "rsu-overhead",
            "sweep-budget",
            "sweep-latency",
            "sweep-threshold",
            "multilevel",
        ]
        .contains(&opts.cmd.as_str())
    {
        die(&format!("unknown command {}", opts.cmd));
    }

    eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
}
