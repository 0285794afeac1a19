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
//! `--toml` (emit TOML from `spec`). Each flag is one row of the flag
//! table, which names the commands that read it; a flag given to any
//! other command is a usage error.
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
//! Fault injection (`run`/`preset`/`serve`/`gc`): `--faults FILE.json`
//! loads a `FaultSpec`, `--fault-cores 0@1ms,3@2ms+5ms` schedules core
//! fail-stop / fail-recover events, `--fault-rate P` injects transient
//! task faults, `--recovery KEY` picks the displaced-work policy
//! (`retry-same-core`, `reroute-prefer-fast`,
//! `shed-noncritical-on-degraded`). Faulted runs print a `fault:`
//! accounting line ending in the deterministic `FaultReport` digest;
//! `--fault-axis` (run/preset/gc) pairs every cell with its fault-free
//! twin in the grid.
//!
//! Memory interference (`run`/`preset`/`serve`/`gc`): `--mem-slots N`
//! bounds the shared memory subsystem's concurrent accesses (comma list
//! expands the grid; `inf` = uncontended), `--arbitration KEY` picks who
//! waits (`fifo`, `crit-first`, `round-robin`). Contended runs print a
//! `memory:` accounting line ending in the deterministic `MemoryReport`
//! digest; `--mem-axis` (run/preset/gc) keeps every cell's memory-free
//! twin first in the grid. The fault, memory and backend overlays build
//! every grid, in that order, through one step that `run`, `preset` and
//! `gc` share; `serve` and `record` take the one cell it makes.
//!
//! Backends (`run`/`preset`/`gc`): `--backend sim|native|both` selects the
//! executor per cell (`both` duplicates every spec into a sim + native
//! pair, side by side in the grid); native cells run the thread-pool
//! runtime on a mock DVFS backend and report calibrated modeled energy —
//! or RAPL-measured joules with `--native-energy auto` on a host whose
//! powercap counters are readable.
//!
//! Sharded/stored suites (`run`/`preset`): `--shard K/N` keeps the
//! deterministic `K`-th of `N` slices of the cell grid, dealt serpentine
//! by grid index (`Suite::shard`), `--store FILE` streams each completed
//! cell into a JSONL results store and *resumes* from it
//! (already-completed cells are loaded, not re-run; the store line
//! counts resumed, executed and failed cells). `merge` combines shard
//! stores, prints the suite table from the store, writes `--out FILE` if
//! given, renders paper-figure panels from the records with `--fig
//! fig4|fig5`, and — with `--baseline
//! BENCH_engine.json` — fails (exit 1) when merged events/sec drops below
//! `--min-ratio` (default 0.75) of the baseline's medium summary: the CI
//! perf gate. `gc STORE SPEC... [--spec FILE]` rewrites a store keeping
//! only records whose `(index, spec_digest)` the given grid still names,
//! the grid built from the spec files under the same overlay flags as
//! `run`.
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
    spec_digest, Backend, BackendDispatch, CellRecord, EnergySource, Executor, NativeExecutor,
    ProgressWriter, ResultsStore, Scenario, ScenarioSpec, Suite, WorkloadSpec, STORE_SCHEMA,
};
use cata_core::fault::{CoreFailure, FaultSpec};
use cata_core::mem::{default_arbitration_registry, MemorySpec, DEFAULT_ARBITRATION};
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
use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

/// A flag's value, checked and converted as the command line is read;
/// [`Opts::get`] reads it back as the type its row's parser made.
type Value = Box<dyn Any>;

/// Reads and checks a flag's value. The error is the text that follows
/// `bad --flag` in the message.
type Parse = fn(&str) -> Result<Value, String>;

/// One command-line flag: its name, how its value is read (`None` for a
/// switch), and the space-separated commands that read it.
struct Flag {
    name: &'static str,
    parse: Option<Parse>,
    cmds: &'static str,
}

const fn value(name: &'static str, parse: Parse, cmds: &'static str) -> Flag {
    Flag {
        name,
        parse: Some(parse),
        cmds,
    }
}

const fn switch(name: &'static str, cmds: &'static str) -> Flag {
    Flag {
        name,
        parse: None,
        cmds,
    }
}

/// Every flag, once. A flag given to a command its row does not name is a
/// usage error, so no command silently ignores a flag. (`serve` reads
/// `--shard` only to number its heartbeat stream.)
const FLAGS: &[Flag] = &[
    value(
        "--scale",
        scale,
        "preset spec export record serve all fig4 fig5 latency sweep-budget sweep-latency sweep-threshold multilevel",
    ),
    value("--seed", num::<u64>, "preset spec export record serve all fig4 fig5 latency"),
    value("--bench", bench, "preset spec export record serve"),
    value("--tdg", text, "preset spec export record serve"),
    value("--fast", num::<usize>, "preset spec record serve"),
    value("--jobs", num::<usize>, "run preset all fig4 fig5 latency"),
    value(
        "--csv",
        text,
        "run preset merge all fig4 fig5 latency sweep-budget sweep-latency sweep-threshold multilevel",
    ),
    switch("--toml", "spec"),
    value("--backend", backends, "run preset gc record"),
    value("--native-energy", energy, "run preset record"),
    value("--shard", shard, "run preset serve"),
    value("--store", text, "run preset serve watch replay"),
    value("--progress", text, "run preset serve watch"),
    value("--spec", text, "gc"),
    value("--faults", text, "run preset serve gc"),
    value("--fault-cores", fault_cores, "run preset serve gc"),
    value("--fault-rate", probability, "run preset serve gc"),
    value("--recovery", text, "run preset serve gc"),
    switch("--fault-axis", "run preset gc"),
    value("--mem-slots", mem_slots, "run preset serve gc"),
    value("--arbitration", arbitration, "run preset serve gc"),
    switch("--mem-axis", "run preset gc"),
    value("--rate", positive, "serve"),
    value("--arrival", arrival, "serve"),
    value("--tape", text, "serve"),
    value("--duration", duration, "serve"),
    value("--admission", text, "serve"),
    value("--queue-cap", num::<usize>, "serve"),
    value("--record-tape", text, "serve"),
    value("--out", text, "export record merge perf"),
    value("--baseline", text, "merge perf"),
    value("--min-ratio", positive, "merge perf"),
    value("--fig", fig, "merge"),
    switch("--smoke", "perf"),
    value("--reps", num::<usize>, "perf"),
    value("--trajectory", text, "perf watch"),
    switch("--once", "watch"),
    switch("--until-done", "watch"),
    value("--timeout", num::<u64>, "watch"),
    value("--interval-ms", num::<u64>, "watch"),
    value("--width", num::<usize>, "watch"),
    value("--height", num::<usize>, "watch"),
];

/// Commands that take positional arguments; the others take flags only.
const WITH_ARGS: &str = "run preset spec serve export record merge gc watch replay";
const WITHOUT_ARGS: &str =
    "all table1 fig4 fig5 latency rsu-overhead sweep-budget sweep-latency sweep-threshold multilevel perf";

fn boxed<T: Any>(v: T) -> Value {
    Box::new(v)
}

fn text(s: &str) -> Result<Value, String> {
    Ok(boxed(s.to_string()))
}

fn num<T: std::str::FromStr + Any>(s: &str) -> Result<Value, String> {
    s.parse::<T>().map(boxed).map_err(|_| String::new())
}

/// A finite number above zero (`--rate`, `--min-ratio`).
fn positive(s: &str) -> Result<Value, String> {
    match s.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(boxed(x)),
        _ => Err(format!(" {s} (want a number above 0)")),
    }
}

fn probability(s: &str) -> Result<Value, String> {
    match s.parse::<f64>() {
        Ok(p) if (0.0..=1.0).contains(&p) => Ok(boxed(p)),
        _ => Err(format!(" {s} (want a probability in [0, 1])")),
    }
}

/// One of `words`, as the value paired with it.
fn choice<T: Any + Copy>(s: &str, words: &[(&str, T)]) -> Result<Value, String> {
    match words.iter().find(|(w, _)| *w == s) {
        Some(&(_, v)) => Ok(boxed(v)),
        None => {
            let want: Vec<&str> = words.iter().map(|(w, _)| *w).collect();
            Err(format!(" {s} (want {})", want.join("|")))
        }
    }
}

fn scale(s: &str) -> Result<Value, String> {
    choice(
        s,
        &[
            ("tiny", Scale::Tiny),
            ("small", Scale::Small),
            ("paper", Scale::Paper),
        ],
    )
}

fn bench(s: &str) -> Result<Value, String> {
    let all = Benchmark::all();
    match all.iter().find(|b| b.name().eq_ignore_ascii_case(s)) {
        Some(&b) => Ok(boxed(b)),
        None => {
            let want: Vec<String> = all.iter().map(|b| b.name().to_lowercase()).collect();
            Err(format!(" {s} (want {})", want.join("|")))
        }
    }
}

/// The backends each spec runs on, in grid order.
fn backends(s: &str) -> Result<Value, String> {
    const SIM: &[Backend] = &[Backend::Sim];
    const NATIVE: &[Backend] = &[Backend::Native];
    const BOTH: &[Backend] = &[Backend::Sim, Backend::Native];
    choice(s, &[("sim", SIM), ("native", NATIVE), ("both", BOTH)])
}

fn energy(s: &str) -> Result<Value, String> {
    choice(
        s,
        &[("auto", EnergySource::Auto), ("model", EnergySource::Model)],
    )
}

fn arrival(s: &str) -> Result<Value, String> {
    choice(
        s,
        &[
            ("poisson", ArrivalKind::Poisson),
            ("fixed", ArrivalKind::Fixed),
        ],
    )
}

/// `K/N`: the `K`-th of `N` slices of the grid.
fn shard(s: &str) -> Result<Value, String> {
    let (k, n) = s.split_once('/').ok_or_else(|| format!(" {s}"))?;
    match (k.parse::<usize>(), n.parse::<usize>()) {
        (Ok(k), Ok(n)) => Ok(boxed((k, n))),
        _ => Err(format!(" {s}")),
    }
}

fn duration(s: &str) -> Result<Value, String> {
    parse_duration(s)
        .map(boxed)
        .ok_or_else(|| format!(" {s} (e.g. 50ms, 2s, 500us)"))
}

fn fault_cores(s: &str) -> Result<Value, String> {
    FaultSpec::parse_cores(s)
        .map(boxed)
        .map_err(|e| format!(": {e}"))
}

/// Bandwidth slot counts (`1`, `2,4`, `inf`); `inf` is stored as 0, the
/// uncontended model.
fn mem_slots(s: &str) -> Result<Value, String> {
    let slots = s
        .split(',')
        .map(|n| match n.trim() {
            "inf" | "unlimited" => Ok(0),
            n => n.parse::<u64>().map_err(|_| format!(" entry {n:?}")),
        })
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(boxed(slots))
}

/// Arbitration keys, each checked against the registry here so a typo
/// fails before a suite starts.
fn arbitration(s: &str) -> Result<Value, String> {
    let keys: Vec<String> = s.split(',').map(|k| k.trim().to_string()).collect();
    for key in &keys {
        default_arbitration_registry()
            .build(key, &MemorySpec::default())
            .map_err(|e| format!(": {e}"))?;
    }
    Ok(boxed(keys))
}

fn fig(s: &str) -> Result<Value, String> {
    match figure_labels(s) {
        Some(_) => Ok(boxed(s.to_string())),
        None => Err(format!(" {s} (want fig4|fig5)")),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArrivalKind {
    Poisson,
    Fixed,
}

/// A command line: the command, its positional arguments (spec files,
/// preset labels, stores, …), and the flags given, in order, with their
/// checked values.
struct Opts {
    cmd: String,
    args: Vec<String>,
    given: Vec<(&'static Flag, Value)>,
}

impl Opts {
    /// The value last given for `flag`.
    fn get<T: Any>(&self, flag: &str) -> Option<&T> {
        self.all(flag).last()
    }

    /// Every value given for `flag`, in order (`--progress`, `--spec`).
    fn all<'a, T: Any>(&'a self, flag: &str) -> impl Iterator<Item = &'a T> {
        let name = row(flag).name;
        self.given
            .iter()
            .filter(move |(f, _)| f.name == name)
            .map(|(_, v)| {
                v.downcast_ref()
                    .expect("a flag is read as its parser's type")
            })
    }

    fn has(&self, flag: &str) -> bool {
        let name = row(flag).name;
        self.given.iter().any(|(f, _)| f.name == name)
    }

    fn scale(&self) -> Scale {
        self.get("--scale").copied().unwrap_or(Scale::Paper)
    }

    fn seed(&self) -> u64 {
        self.get("--seed").copied().unwrap_or(DEFAULT_SEED)
    }

    fn fast(&self) -> usize {
        self.get("--fast").copied().unwrap_or(16)
    }

    fn jobs(&self) -> usize {
        self.get("--jobs").copied().unwrap_or(0)
    }

    fn min_ratio(&self) -> f64 {
        self.get("--min-ratio").copied().unwrap_or(0.75)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        self.get::<String>(flag).map(String::as_str)
    }
}

/// Reads the command line against [`FLAGS`]: each value is checked as it
/// is read, and a flag the command does not read is an error.
fn parse_args() -> Opts {
    let mut argv = std::env::args().skip(1);
    let mut cmd: Option<String> = None;
    let mut args = Vec::new();
    let mut given = Vec::new();
    while let Some(a) = argv.next() {
        if a == "--help" || a == "-h" {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        if let Some(flag) = FLAGS.iter().find(|f| f.name == a) {
            let value = match flag.parse {
                None => boxed(()),
                Some(parse) => {
                    let text = argv
                        .next()
                        .unwrap_or_else(|| die(&format!("missing {a} value")));
                    parse(&text).unwrap_or_else(|e| die(&format!("bad {a}{e}")))
                }
            };
            given.push((flag, value));
        } else if a.starts_with('-') {
            die(&format!("unknown argument {a}"));
        } else if let Some(c) = &cmd {
            if !WITH_ARGS.split(' ').any(|w| w == c) {
                die(&format!("unknown argument {a}"));
            }
            args.push(a);
        } else {
            cmd = Some(a);
        }
    }
    let cmd = cmd.unwrap_or_else(|| "all".into());
    if !WITH_ARGS
        .split(' ')
        .chain(WITHOUT_ARGS.split(' '))
        .any(|c| c == cmd)
    {
        die(&format!("unknown command {cmd}"));
    }
    for (flag, _) in &given {
        if !flag.cmds.split(' ').any(|c| c == cmd) {
            die(&format!(
                "{} is not used by `{cmd}` (used by {})",
                flag.name,
                flag.cmds.replace(' ', "/")
            ));
        }
    }
    Opts { cmd, args, given }
}

/// The row of `name` in [`FLAGS`]; the program reads no other flag.
fn row(name: &str) -> &'static Flag {
    FLAGS
        .iter()
        .find(|f| f.name == name)
        .expect("a flag of the table")
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

/// Exits 2 with `error: {msg}` and the usage text: for a bad command line.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Exits 2 with `error: {msg}` alone: for a file, a store or a run that
/// failed, where the usage text would bury the one line that matters.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The usage text: every flag of [`FLAGS`] appears in it.
const USAGE: &str =
    "usage: repro [COMMAND] [ARGS] [FLAGS]   (a flag the command does not read is an error)\n\
         commands: table1 fig4 fig5 latency rsu-overhead sweep-budget sweep-latency\n\
         \x20         sweep-threshold multilevel all   [--scale tiny|small|paper] [--csv DIR]\n\
         \x20             [--seed N] [--jobs N]  (fig4/fig5/latency/all)\n\
         \x20         run SPEC.json|SPEC.toml...   preset LABEL...   spec LABEL [--toml]\n\
         \x20             [--jobs N] [--csv DIR] [--backend sim|native|both]\n\
         \x20             [--native-energy auto|model] [--shard K/N] [--store FILE.jsonl]\n\
         \x20         preset/spec/export/record/serve workload: [--bench NAME] [--fast N]\n\
         \x20             [--scale tiny|small|paper] [--seed N], or [--tdg FILE.tdg.json]\n\
         \x20         serve LABEL|SPEC.json [--rate R | --tape FILE.tape.jsonl]\n\
         \x20             [--arrival poisson|fixed] [--duration T] [--admission P]\n\
         \x20             [--queue-cap N] [--record-tape FILE] [--store FILE.jsonl]\n\
         \x20         run/preset/serve/gc fault injection: [--faults FILE.json]\n\
         \x20             [--fault-cores 0@1ms,3@2ms+5ms] [--fault-rate P] [--recovery KEY]\n\
         \x20             [--fault-axis]  (run/preset/gc: add the fault-free twin cells)\n\
         \x20         run/preset/serve/gc memory interference: [--mem-slots 1|2,4,inf]\n\
         \x20             [--arbitration fifo|crit-first|round-robin]\n\
         \x20             [--mem-axis]  (run/preset/gc: add the memory-free twin cells)\n\
         \x20         export [SPEC.json] [--out FILE.tdg.json]   (workload -> TDG file)\n\
         \x20         record LABEL|SPEC.json [--backend sim|native] [--out FILE.tdg.json]\n\
         \x20         merge STORE.jsonl... [--out FILE] [--baseline FILE] [--min-ratio R]\n\
         \x20             [--fig fig4|fig5]\n\
         \x20         gc STORE.jsonl SPEC... [--spec FILE] [--backend sim|native|both]\n\
         \x20             [fault and memory flags]  (the grid the store should hold)\n\
         \x20         perf [--smoke] [--reps N] [--out FILE] [--baseline FILE]\n\
         \x20             [--trajectory FILE]\n\
         \x20         watch [STORE.jsonl...] [--progress FILE]... [--trajectory FILE]\n\
         \x20             [--once | --until-done [--timeout S]] [--interval-ms N]\n\
         \x20             [--width N] [--height N]   (operator console; q/j/k/Enter)\n\
         \x20         replay CELL_KEY|INDEX --store FILE.jsonl   (re-run a stored cell\n\
         \x20             bit-identically on the sim backend; exit 1 on divergence)\n\
         \x20         run/preset (with --store) and serve emit heartbeats with\n\
         \x20             [--progress FILE.progress.jsonl]  (cata-progress/v1 sidecar)";

/// Writes `text` to `path`, or exits with an error naming the path.
fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
}

/// Writes `table` as `DIR/NAME.csv`, creating `DIR` if needed.
fn write_csv(dir: &str, name: &str, table: &Table) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("cannot write {dir}: {e}")));
    let path = format!("{dir}/{name}.csv");
    write_file(&path, &table.to_csv());
    println!("[wrote {path}]");
}

fn emit(opts: &Opts, name: &str, table: &Table, title: &str) {
    println!("== {title} ==\n{}", table.render());
    if let Some(dir) = opts.text("--csv") {
        write_csv(dir, name, table);
    }
}

/// Reads, parses and validates a spec file, or exits naming the path.
fn load_spec(path: &str) -> ScenarioSpec {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let parsed = if path.ends_with(".toml") {
        ScenarioSpec::from_toml(&text)
    } else {
        ScenarioSpec::from_json(&text)
    };
    parsed
        .and_then(|spec| spec.validate().map(|()| spec))
        .unwrap_or_else(|e| fail(&format!("{path}: {e}")))
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
            .energy_source(opts.get("--native-energy").copied().unwrap_or_default())
            .backend(Arc::new(MockDvfs::new(workers, 1_000_000)) as Arc<dyn DvfsBackend>),
    )
}

/// Prints a run's fault accounting — the summary line plus the report
/// digest CI greps to assert same-seed determinism.
fn print_fault(report: &RunReport) {
    if let Some(f) = &report.fault {
        println!("fault: {} digest {}", f.summary(), f.digest());
    }
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

/// Prints a run's memory-interference accounting — the summary line plus
/// the report digest CI greps to compare arbitration policies.
fn print_memory(report: &RunReport) {
    if let Some(m) = &report.memory {
        println!("memory: {} digest {}", m.summary(), m.digest());
    }
}

/// The spec component an overlay variant sets.
enum Component {
    Faults(FaultSpec),
    Memory(MemorySpec),
    Backend(Backend),
}

/// One grid axis laid over every cell: the variants it makes of each (a
/// name suffix and the component it sets), after the component-free twin
/// when `twin_first`.
struct Overlay {
    twin_first: bool,
    variants: Vec<(String, Component)>,
}

/// The overlays the flags describe, in grid order: faults, then memory,
/// then backend. `--faults FILE` loads a [`FaultSpec`], and
/// `--fault-cores`, `--fault-rate` and `--recovery` set single fields of
/// it (or of the default). `--mem-slots` × `--arbitration` (default
/// `fifo`) are the memory variants; one variant keeps the cell's name (the
/// uncontended digest check in CI relies on `slots=inf` serializing yet
/// reporting identically), several or `--mem-axis` name each
/// `LABEL+memN/KEY`. `--backend` keeps names: the cell key carries the
/// backend.
fn overlays(opts: &Opts) -> Vec<Overlay> {
    let mut out = Vec::new();
    let fault_axis = opts.has("--fault-axis");
    let fault_flags = ["--faults", "--fault-cores", "--fault-rate", "--recovery"];
    if fault_flags.iter().any(|f| opts.has(f)) {
        let mut f = match opts.text("--faults") {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
                FaultSpec::from_json(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
            }
            None => FaultSpec::default(),
        };
        if let Some(cores) = opts.get::<Vec<CoreFailure>>("--fault-cores") {
            f.core_failures = cores.clone();
        }
        if let Some(&p) = opts.get::<f64>("--fault-rate") {
            f.task_fault_p = p;
        }
        if let Some(key) = opts.text("--recovery") {
            f.recovery = key.to_string();
        }
        let suffix = if fault_axis { "+faults" } else { "" };
        out.push(Overlay {
            twin_first: fault_axis,
            variants: vec![(suffix.to_string(), Component::Faults(f))],
        });
    } else if fault_axis {
        die("--fault-axis needs a fault schedule (--faults/--fault-cores/--fault-rate)");
    }

    let mem_axis = opts.has("--mem-axis");
    if let Some(slots) = opts.get::<Vec<u64>>("--mem-slots") {
        let default = [DEFAULT_ARBITRATION.to_string()];
        let keys = opts
            .get::<Vec<String>>("--arbitration")
            .map_or(&default[..], Vec::as_slice);
        let named = mem_axis || slots.len() * keys.len() > 1;
        let mut variants = Vec::new();
        for &n in slots {
            for key in keys {
                let suffix = if named {
                    format!("+mem{}/{key}", fmt_slots(n))
                } else {
                    String::new()
                };
                let memory = MemorySpec {
                    slots: n,
                    arbitration: key.clone(),
                };
                variants.push((suffix, Component::Memory(memory)));
            }
        }
        out.push(Overlay {
            twin_first: mem_axis,
            variants,
        });
    } else if opts.has("--arbitration") {
        die("--arbitration needs --mem-slots N (a policy needs contention to arbitrate)");
    } else if mem_axis {
        die("--mem-axis needs --mem-slots N (and optionally --arbitration)");
    }

    if let Some(backends) = opts.get::<&[Backend]>("--backend") {
        out.push(Overlay {
            twin_first: false,
            variants: backends
                .iter()
                .map(|&b| (String::new(), Component::Backend(b)))
                .collect(),
        });
    }
    out
}

/// The cell grid of `specs` under the flags' overlays, each laid over
/// every cell the one before it made: how `run`, `preset` and `gc` build
/// their grids.
fn grid(opts: &Opts, specs: Vec<ScenarioSpec>) -> Vec<ScenarioSpec> {
    overlays(opts).iter().fold(specs, |cells, overlay| {
        let mut out = Vec::new();
        for spec in cells {
            if overlay.twin_first {
                out.push(spec.clone());
            }
            for (suffix, component) in &overlay.variants {
                let mut cell = spec.clone();
                cell.name.push_str(suffix);
                match component {
                    Component::Faults(f) => cell.faults = Some(f.clone()),
                    Component::Memory(m) => cell.memory = Some(m.clone()),
                    Component::Backend(b) => cell.backend = *b,
                }
                out.push(cell);
            }
        }
        out
    })
}

/// The one cell a single-run command (`serve`, `record`) builds from
/// `spec`; a flag that makes more is an error, `why`.
fn one_cell(opts: &Opts, spec: ScenarioSpec, why: &str) -> ScenarioSpec {
    let mut cells = grid(opts, vec![spec]);
    if cells.len() != 1 {
        die(why);
    }
    cells.pop().expect("one cell")
}

/// `repro run a.json b.toml …`: parse specs, fan them across the suite —
/// optionally a `--shard K/N` slice streamed into/resumed from a
/// `--store` JSONL file — and print one summary line per run.
fn run_specs(opts: &Opts, specs: Vec<ScenarioSpec>) {
    if specs.is_empty() {
        die("no specs given");
    }
    let mut suite = Suite::from_specs(grid(opts, specs)).jobs(opts.jobs());
    if let Some(&(k, n)) = opts.get::<(usize, usize)>("--shard") {
        suite = suite.shard(k, n).unwrap_or_else(|e| die(&e.to_string()));
        println!("[shard {k}/{n}: {} of the grid's cells]", suite.len());
    }
    let exec = dispatch_executor(opts);
    let results = match opts.text("--store") {
        Some(path) => {
            let store = ResultsStore::open(path).unwrap_or_else(|e| fail(&e.to_string()));
            if store.recovered_torn_tail() {
                eprintln!("[store {path}: discarded a torn trailing line]");
            }
            let progress = progress_writer(opts);
            let outcome = suite.run_with_store_observed(&exec, &store, progress.as_ref());
            // Resumed cells always load; every failure is an executed
            // cell that left no record.
            let failed = outcome.results.iter().filter(|r| r.is_err()).count();
            println!(
                "[store {path}: {} resumed, {} executed, {failed} failed]",
                outcome.resumed,
                outcome.executed - failed
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
    if let Some(dir) = opts.text("--csv") {
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
    let path = opts.text("--progress")?;
    let shard = opts
        .get::<(usize, usize)>("--shard")
        .map_or(0, |&(k, _)| k as u64);
    Some(ProgressWriter::open(path, shard).unwrap_or_else(|e| fail(&e.to_string())))
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
    if opts.has("--tape") {
        if opts.has("--rate") {
            die(
                "serve: --rate conflicts with --tape — generate traffic at a rate, \
                 or replay a recorded tape, but not both (pick one source)",
            );
        }
        if opts.has("--arrival") {
            die("serve: --arrival shapes generated traffic and conflicts with --tape");
        }
        if opts.has("--duration") {
            die("serve: --duration conflicts with --tape — the tape is the observation window");
        }
        if opts.has("--record-tape") {
            die("serve: --record-tape conflicts with --tape — the run would re-record its input");
        }
    }
    if opts.has("--arrival") && !opts.has("--rate") {
        die("serve: --arrival needs --rate R to generate traffic");
    }

    let is_spec_file = target.ends_with(".json") || target.ends_with(".toml");
    let mut spec = if is_spec_file {
        if target.ends_with(".toml") {
            die("serve specs are JSON (`ServiceSpec` has no TOML form)");
        }
        reject_conflicting_sources(opts, "serve");
        let text = std::fs::read_to_string(target)
            .unwrap_or_else(|e| fail(&format!("cannot read {target}: {e}")));
        ServiceSpec::from_json(&text).unwrap_or_else(|e| fail(&format!("{target}: {e}")))
    } else {
        if !opts.has("--rate") && !opts.has("--tape") {
            die(&format!(
                "serve {target}: pass --rate R (generated traffic) or --tape FILE \
                 (replayed traffic)"
            ));
        }
        let mut base = ScenarioSpec::preset(target, opts.fast(), base_workload(opts))
            .unwrap_or_else(|e| die(&e.to_string()));
        base.seed = opts.seed();
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

    if let Some(&rate_hz) = opts.get("--rate") {
        spec.arrival = match opts.get("--arrival").unwrap_or(&ArrivalKind::Poisson) {
            ArrivalKind::Poisson => ArrivalSpec::Poisson { rate_hz },
            ArrivalKind::Fixed => ArrivalSpec::Fixed { rate_hz },
        };
        if !opts.has("--duration") && !is_spec_file {
            println!("[no --duration given: defaulting to 100ms of arrivals]");
        }
    }
    if let Some(&d) = opts.get("--duration") {
        spec.duration = d;
    }
    if let Some(key) = opts.text("--admission") {
        spec.admission = key.to_string();
    }
    if let Some(&cap) = opts.get("--queue-cap") {
        spec.admission_params = Some(AdmissionParams {
            queue_cap: Some(cap),
        });
    }
    spec.base = one_cell(
        opts,
        spec.base.clone(),
        "serve is a single run — pass one --mem-slots value and one --arbitration key",
    );

    let progress = progress_writer(opts);
    let started_ms = now_unix_ms();
    let t0 = Instant::now();
    let report = match opts.text("--tape") {
        Some(path) => {
            let (tape, truncated) =
                TrafficTape::load(path).unwrap_or_else(|e| fail(&e.to_string()));
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
            .unwrap_or_else(|e| fail(&e.to_string()))
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
            .unwrap_or_else(|e| fail(&e.to_string()));
            if let Some(out) = opts.text("--record-tape") {
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

    if let Some(path) = opts.text("--store") {
        let store = ResultsStore::open(path).unwrap_or_else(|e| fail(&e.to_string()));
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
            .unwrap_or_else(|e| fail(&e.to_string()));
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
    let merged = ResultsStore::merge_files(&opts.args).unwrap_or_else(|e| fail(&e.to_string()));
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
    if let Some(fig) = opts.text("--fig") {
        render_figure_from_records(opts, fig, &merged.records);
    }
    if let Some(dir) = opts.text("--csv") {
        write_csv(dir, "merged", &table);
    }
    if let Some(out) = opts.text("--out") {
        ResultsStore::write_all(out, &merged.records).unwrap_or_else(|e| fail(&e.to_string()));
        println!("[wrote {out}]");
    }
    if let Some(bpath) = opts.text("--baseline") {
        let text = std::fs::read_to_string(bpath)
            .unwrap_or_else(|e| fail(&format!("cannot read {bpath}: {e}")));
        let base = cata_bench::perf::PerfReport::from_json(&text)
            .unwrap_or_else(|e| fail(&format!("{bpath}: {e}")));
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
        let min_ratio = opts.min_ratio();
        println!(
            "[gate: merged {eps:.0} events/sec vs baseline {:.0} = {ratio:.2}x (min {min_ratio:.2})]",
            base_medium.events_per_sec
        );
        if ratio < min_ratio {
            eprintln!(
                "error: merged throughput regressed below {:.0}% of the baseline",
                min_ratio * 100.0
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
            .unwrap_or_else(|e| fail(&format!("--fig {fig} [{backend}]: {e}")));
        let benches = m.benchmarks();
        let fasts = m.fast_core_counts();
        if benches.is_empty() || fasts.is_empty() {
            fail(&format!(
                "--fig {fig} [{backend}]: the merged store has no paper-benchmark cells"
            ));
        }
        let present: Vec<&str> = labels
            .iter()
            .copied()
            .filter(|l| m.labels().iter().any(|have| have == l))
            .collect();
        if !present.contains(&"FIFO") {
            fail(&format!(
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
            fail(&format!(
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
    match opts.text("--tdg") {
        Some(path) => {
            // Same rule as the SPEC-file guard: an explicit generator
            // flag next to --tdg would be silently ignored — the TDG
            // file already pins the whole graph.
            let flags = workload_flags(opts);
            if !flags.is_empty() {
                die(&format!(
                    "{flags} conflict(s) with --tdg — the TDG file already pins the \
                     workload (pick one source)"
                ));
            }
            WorkloadSpec::tdg_file_pinned(path).unwrap_or_else(|e| fail(&e.to_string()))
        }
        None => {
            let bench = opts.get("--bench").copied().unwrap_or(Benchmark::Dedup);
            WorkloadSpec::parsec(bench, opts.scale(), opts.seed())
        }
    }
}

/// The generator flags given (`--bench`, `--scale`, `--seed`), in order,
/// joined by `/`; empty when there are none.
fn workload_flags(opts: &Opts) -> String {
    let flags: Vec<&str> = opts
        .given
        .iter()
        .map(|(flag, _)| flag.name)
        .filter(|name| matches!(*name, "--bench" | "--scale" | "--seed"))
        .collect();
    flags.join("/")
}

/// A SPEC-file argument fully determines the workload; any *explicit*
/// alternative-source flag alongside it (`--tdg`, `--bench`, `--scale`,
/// `--seed`) would be silently ignored — reject the combination instead
/// so the user never exports/records a different graph than they named.
fn reject_conflicting_sources(opts: &Opts, cmd: &str) {
    if opts.has("--tdg") {
        die(&format!(
            "{cmd}: --tdg conflicts with a SPEC argument (pick one workload source)"
        ));
    }
    let flags = workload_flags(opts);
    if !flags.is_empty() {
        die(&format!(
            "{cmd}: {flags} conflict(s) with a SPEC argument — the spec file already \
             pins the workload (pick one source)"
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
    let (_graph, tdg) = workload.capture().unwrap_or_else(|e| fail(&e.to_string()));
    let out = opts
        .text("--out")
        .map_or_else(|| format!("{}.tdg.json", tdg.name), String::from);
    // The default name can collide with the very file the workload came
    // from (`export --tdg app.tdg.json` for a TDG named "app") — refuse
    // to clobber the source unless --out names it explicitly.
    if !opts.has("--out") {
        let source = opts.text("--tdg").or(match &workload {
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
    let spec = if target.ends_with(".json") || target.ends_with(".toml") {
        reject_conflicting_sources(opts, "record");
        load_spec(target)
    } else {
        ScenarioSpec::preset(target, opts.fast(), base_workload(opts))
            .unwrap_or_else(|e| die(&e.to_string()))
    };
    let spec = one_cell(
        opts,
        spec,
        "record captures one run; use --backend sim|native",
    );
    // The path the workload replays from, if any — `--tdg FILE`, or a
    // SPEC file whose workload is `File { path }` — so the output guard
    // below can refuse to clobber it.
    let replay_source: Option<String> =
        opts.text("--tdg")
            .map(String::from)
            .or(match &spec.workload {
                WorkloadSpec::File { path, .. } => Some(path.clone()),
                _ => None,
            });
    let scenario = Scenario::from_spec(spec);
    let exec = dispatch_executor(opts);
    let (report, captured) = exec
        .execute_captured(&scenario)
        .unwrap_or_else(|e| fail(&e.to_string()));
    println!("{}", report.summary());
    // The default name is distinct from `export`'s `{name}.tdg.json`, so
    // `record CATA --tdg Dedup.tdg.json` cannot clobber the replay
    // source — but re-recording a *previously recorded* artifact (via
    // `--tdg` or a spec whose `File` workload names one) would default
    // to its own input path, so the collision is checked explicitly like
    // `export` does.
    let out = opts.text("--out").map_or_else(
        || format!("{}.recorded.tdg.json", captured.tdg.name),
        String::from,
    );
    if !opts.has("--out") {
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
/// longer appears in the grid the spec files describe under the overlay
/// flags, as `run` would build it — store hygiene after spec edits or
/// grid reshapes.
fn gc_store(opts: &Opts) {
    let Some((store_path, rest)) = opts.args.split_first() else {
        die("gc needs a store file (repro gc STORE.jsonl SPEC... [--spec FILE])");
    };
    let spec_paths: Vec<&String> = rest.iter().chain(opts.all("--spec")).collect();
    if spec_paths.is_empty() {
        die("gc needs at least one spec file describing the current grid");
    }
    let specs: Vec<ScenarioSpec> = spec_paths.iter().map(|p| load_spec(p)).collect();
    let suite = Suite::from_specs(grid(opts, specs));
    let (kept, dropped) =
        ResultsStore::gc(store_path, &suite.grid_pairs()).unwrap_or_else(|e| fail(&e.to_string()));
    println!("[gc {store_path}: kept {kept}, dropped {dropped} stale record(s)]");
}

/// `repro watch [STORE...]`: the operator console. Tails the given
/// stores (positional or `--store`), `--progress` sidecars, and the
/// `--trajectory` perf series into the live dashboard — or a headless
/// frame with `--once`/`--until-done`.
fn watch_dashboard(opts: &Opts) {
    let mut stores: Vec<std::path::PathBuf> =
        opts.args.iter().map(std::path::PathBuf::from).collect();
    if let Some(s) = opts.text("--store") {
        stores.push(std::path::PathBuf::from(s));
    }
    let progress: Vec<std::path::PathBuf> = opts
        .all::<String>("--progress")
        .map(std::path::PathBuf::from)
        .collect();
    let trajectory = opts.text("--trajectory").map(std::path::PathBuf::from);
    if stores.is_empty() && progress.is_empty() && trajectory.is_none() {
        die(
            "watch needs something to tail: store files (positional or --store), \
             --progress FILE sidecars, or a --trajectory FILE",
        );
    }
    let (once, until_done) = (opts.has("--once"), opts.has("--until-done"));
    if once && until_done {
        die("watch: --once renders immediately and conflicts with --until-done");
    }
    if opts.has("--timeout") && !until_done {
        die("watch: --timeout only bounds --until-done");
    }
    let cfg = WatchConfig {
        stores,
        progress,
        trajectory,
        interval_ms: opts.get("--interval-ms").copied().unwrap_or(250),
        once,
        until_done,
        timeout_s: opts.get("--timeout").copied(),
        width: opts.get("--width").copied(),
        height: opts.get("--height").copied(),
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
    let Some(store_path) = opts.text("--store") else {
        die("replay needs --store FILE.jsonl naming the results store");
    };
    let (records, truncated) =
        ResultsStore::load(store_path).unwrap_or_else(|e| fail(&e.to_string()));
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
            fail(&format!(
                "no cell {key:?} in {store_path} (first cells: {})",
                known.join(", ")
            ))
        });
    let Some(spec) = &record.spec else {
        fail(&format!(
            "cell {} carries no embedded spec — records from pre-observability \
             sweeps and `serve` cells cannot be replayed (re-run the sweep to \
             stamp specs into the store)",
            record.cell
        ));
    };
    if spec_digest(spec) != record.spec_digest {
        fail(&format!(
            "cell {}: embedded spec digests to {} but the record pins {} — \
             the store is corrupt",
            record.cell,
            spec_digest(spec),
            record.spec_digest
        ));
    }
    if spec.backend == Backend::Native {
        fail(&format!(
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
        .unwrap_or_else(|e| fail(&e.to_string()));
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
    // Emitters write one heartbeat stream, and `run`/`preset` write it
    // beside a store.
    if matches!(opts.cmd.as_str(), "run" | "preset" | "serve") {
        if opts.all::<String>("--progress").count() > 1 {
            die(&format!(
                "`{}` emits one heartbeat stream — pass --progress once (watch tails many)",
                opts.cmd
            ));
        }
        if opts.has("--progress") && opts.cmd != "serve" && !opts.has("--store") {
            die(&format!(
                "`{}` --progress rides the store path — add --store FILE.jsonl",
                opts.cmd
            ));
        }
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
                    ScenarioSpec::preset(label, opts.fast(), workload.clone())
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
            let spec = ScenarioSpec::preset(label, opts.fast(), workload)
                .unwrap_or_else(|e| die(&e.to_string()));
            if opts.has("--toml") {
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
            let smoke = opts.has("--smoke");
            let reps = opts.get("--reps").copied().unwrap_or(5);
            let min_ratio = opts.min_ratio();
            println!(
                "[perf: {} mode, {reps} reps per cell, trace off]",
                if smoke { "smoke" } else { "full" },
            );
            let mut report = cata_bench::perf::run_perf(smoke, reps);
            if let Some(path) = opts.text("--baseline") {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
                let base = cata_bench::perf::PerfReport::from_json(&text)
                    .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
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
                        "[gate {}: {:.0} vs baseline {:.0} events/sec = {ratio:.2}x (min {min_ratio:.2})]",
                        cur.workload, cur.events_per_sec, b.events_per_sec
                    );
                    if ratio < min_ratio && worst.is_none_or(|(_, w)| ratio < w) {
                        worst = Some((&cur.workload, ratio));
                    }
                }
                if let Some((size, ratio)) = worst {
                    eprintln!(
                        "error: {size} throughput regressed to {:.0}% of the baseline \
                         (min {:.0}%)",
                        ratio * 100.0,
                        min_ratio * 100.0
                    );
                    std::process::exit(1);
                }
            }
            print!("{}", report.render());
            let out = opts.text("--out").unwrap_or("BENCH_engine.json");
            write_file(out, &report.to_json_pretty());
            println!("[wrote {out}]");
            if let Some(path) = opts.text("--trajectory") {
                cata_bench::perf::append_trajectory(path, &report)
                    .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
                println!("[appended trajectory point to {path}]");
            }
            eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
            return;
        }
        _ => {}
    }

    let (scale, seed, jobs) = (opts.scale(), opts.seed(), opts.jobs());
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
            scale.name(),
            jobs
        );
        let m = run_matrix(&benches, &FAST_CORE_COUNTS, fig4_configs, scale, seed, jobs);
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
            scale.name(),
            jobs
        );
        let m = run_matrix(&benches, &FAST_CORE_COUNTS, fig5_configs, scale, seed, jobs);
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
            &sweeps::budget_sweep(Benchmark::Swaptions, scale, &[4, 8, 12, 16, 20, 24, 28, 32]),
            "Ablation A1: power-budget sweep (Swaptions, CATA+RSU)",
        );
    }

    if all || opts.cmd == "sweep-latency" {
        emit(
            &opts,
            "sweep_latency",
            &sweeps::latency_sweep(Benchmark::Fluidanimate, scale, &[1, 5, 25, 100, 400, 1000]),
            "Ablation A2: DVFS transition latency sweep (Fluidanimate, 16 fast)",
        );
    }

    if all || opts.cmd == "sweep-threshold" {
        emit(
            &opts,
            "sweep_threshold",
            &sweeps::threshold_sweep(Benchmark::Bodytrack, scale, &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
            "Ablation A3: bottom-level criticality threshold sweep (Bodytrack)",
        );
    }

    if all || opts.cmd == "multilevel" {
        emit(
            &opts,
            "multilevel",
            &sweeps::multilevel_sweep(Benchmark::Swaptions, scale),
            "Ablation A4: multi-level DVFS extension (Swaptions)",
        );
    }

    eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The usage text names every flag of the table as a whole word, the
    /// table holds each flag once, and its rows name only commands.
    #[test]
    fn usage_and_table_agree() {
        let mut seen = std::collections::HashSet::new();
        for flag in FLAGS {
            assert!(
                seen.insert(flag.name),
                "{} is in the table twice",
                flag.name
            );
            let named = USAGE.match_indices(flag.name).any(|(i, _)| {
                let rest = &USAGE[i + flag.name.len()..];
                !rest.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
            });
            assert!(named, "the usage text does not name {}", flag.name);
            for cmd in flag.cmds.split(' ') {
                let mut known = WITH_ARGS.split(' ').chain(WITHOUT_ARGS.split(' '));
                assert!(known.any(|c| c == cmd), "{}: {cmd}", flag.name);
            }
        }
    }
}
