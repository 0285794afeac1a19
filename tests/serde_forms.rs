//! Pins the serialized forms of the eight types whose serde omits an
//! absent field or fills in a missing one: `PerfPoint`, `CoreFailure`,
//! `FaultSpec`, `MemorySpec`, `CellRecord`, `ScenarioSpec`, `RunReport`
//! and `EnergyReport`.
//!
//! Each type is pinned as exact JSON twice, once with every skippable
//! field absent and once with every one present; the three spec types are
//! pinned as TOML too. Spec digests, store cell keys and golden fixtures
//! all hash these bytes, so a change here is a format change. The read
//! side is pinned alongside: partial and explicit-`null` fault and memory
//! maps fill in defaults, a spec without `backend` reads as sim, a report
//! without `measurement` reads as `Measurement::None`, and a present
//! field of the wrong type is an error prefixed `Type.field:`.
//!
//! The pretty layout is pinned too, on a small `TdgFile` and a
//! `ScenarioSpec`: `.tdg.json` exports and `repro spec` output are pretty.
//!
//! Every pinned value is also cross-checked: the streaming JSON writer
//! must produce the bytes the reference tree writer produces from the
//! value's `to_value()` tree, compact and pretty, and that tree must be the
//! one its JSON reads back as.

use cata_bench::perf::{PerfPoint, PerfSummary, TRAJECTORY_SCHEMA};
use cata_core::exp::{Backend, CellRecord, PolicyParams, ScenarioSpec, WorkloadSpec, STORE_SCHEMA};
use cata_core::fault::{CoreFailure, FaultReport, FaultSpec};
use cata_core::mem::{MemoryReport, MemorySpec};
use cata_core::service::ServiceReport;
use cata_core::RunReport;
use cata_power::{EnergyBreakdown, EnergyReport, Measurement};
use cata_sim::progress::ExecProfile;
use cata_sim::stats::{Counters, LatencyHistogram};
use cata_sim::time::SimDuration;
use cata_sim::trace::TraceCounts;
use cata_tdg::{TaskGraph, TdgFile};
use serde::{Deserialize, Serialize};

#[path = "../vendor/serde_json/src/reference.rs"]
mod reference;

fn json<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

/// The streaming writer agrees with the reference writer on `value`'s
/// tree, and that tree is what its JSON parses back as.
fn cross_check<T: Serialize>(value: &T) {
    let tree = value.to_value();
    assert_eq!(json(value), reference::to_string(&tree));
    assert_eq!(
        serde_json::to_string_pretty(value).unwrap(),
        reference::to_string_pretty(&tree)
    );
    assert_eq!(serde_json::parse_value(&json(value)).unwrap(), tree);
}

/// `value` serializes to exactly `expected`, and `expected` reads back to
/// a value that serializes to the same bytes.
fn pin<T: Serialize + Deserialize>(value: &T, expected: &str) {
    assert_eq!(json(value), expected);
    cross_check(value);
    let back: T = serde_json::from_str(expected).unwrap();
    assert_eq!(json(&back), expected);
}

/// Reading `text` as `T` fails with an error naming `Type.field:`.
fn assert_field_error<T: Deserialize>(text: &str, prefix: &str) {
    let err = match serde_json::from_str::<T>(text) {
        Ok(_) => panic!("{text} must not parse"),
        Err(e) => e.to_string(),
    };
    assert!(err.starts_with(prefix), "{err} should start with {prefix}");
}

// ---- PerfPoint ----

fn perf_point(full: bool) -> PerfPoint {
    PerfPoint {
        schema: TRAJECTORY_SCHEMA.to_string(),
        mode: "smoke".to_string(),
        reps: 1,
        summaries: vec![PerfSummary {
            workload: "small".to_string(),
            events: 10,
            wall_s: 0.5,
            events_per_sec: 20.0,
        }],
        speedup_vs_baseline: full.then_some(1.5),
        host: full.then(|| "h".to_string()),
        unix_ms: full.then_some(5),
    }
}

const PERF_SUMMARIES: &str =
    r#""summaries":[{"workload":"small","events":10,"wall_s":0.5,"events_per_sec":20.0}]"#;

#[test]
fn perf_point_forms() {
    pin(
        &perf_point(false),
        &format!(
            r#"{{"schema":"cata-perf-point/v1","mode":"smoke","reps":1,{PERF_SUMMARIES},"speedup_vs_baseline":null}}"#
        ),
    );
    pin(
        &perf_point(true),
        &format!(
            r#"{{"schema":"cata-perf-point/v1","mode":"smoke","reps":1,{PERF_SUMMARIES},"speedup_vs_baseline":1.5,"host":"h","unix_ms":5}}"#
        ),
    );
    assert_field_error::<PerfPoint>(
        &format!(
            r#"{{"schema":"s","mode":"m","reps":1,{PERF_SUMMARIES},"speedup_vs_baseline":null,"unix_ms":"x"}}"#
        ),
        "PerfPoint.unix_ms: ",
    );
}

// ---- CoreFailure, FaultSpec, MemorySpec ----

fn faults() -> FaultSpec {
    FaultSpec {
        core_failures: vec![
            CoreFailure {
                core: 1,
                at: SimDuration::from_ps(2000),
                recover_after: None,
            },
            CoreFailure {
                core: 0,
                at: SimDuration::from_ps(5),
                recover_after: Some(SimDuration::from_ps(7)),
            },
        ],
        task_fault_p: 0.25,
        ..FaultSpec::default()
    }
}

const FAULTS_JSON: &str = r#"{"core_failures":[{"core":1,"at":2000},{"core":0,"at":5,"recover_after":7}],"reconfig_fail_p":0.0,"task_fault_p":0.25,"max_retries":3,"recovery":"retry-same-core"}"#;

#[test]
fn core_failure_forms() {
    let [permanent, recovering] = &faults().core_failures[..] else {
        unreachable!()
    };
    pin(permanent, r#"{"core":1,"at":2000}"#);
    pin(recovering, r#"{"core":0,"at":5,"recover_after":7}"#);
    let read: CoreFailure =
        serde_json::from_str(r#"{"core":1,"at":2000,"recover_after":null}"#).unwrap();
    assert_eq!(&read, permanent);
    assert_field_error::<CoreFailure>(
        r#"{"core":1,"at":2000,"recover_after":"x"}"#,
        "CoreFailure.recover_after: ",
    );
}

#[test]
fn fault_spec_forms() {
    pin(
        &FaultSpec::default(),
        r#"{"core_failures":[],"reconfig_fail_p":0.0,"task_fault_p":0.0,"max_retries":3,"recovery":"retry-same-core"}"#,
    );
    pin(&faults(), FAULTS_JSON);
    assert_eq!(
        toml::to_string(&faults()).unwrap(),
        "reconfig_fail_p = 0.0\n\
         task_fault_p = 0.25\n\
         max_retries = 3\n\
         recovery = \"retry-same-core\"\n\
         \n\
         [[core_failures]]\n\
         core = 1\n\
         at = 2000\n\
         \n\
         [[core_failures]]\n\
         core = 0\n\
         at = 5\n\
         recover_after = 7\n"
    );
    assert_eq!(
        toml::to_string(&FaultSpec::default()).unwrap(),
        "core_failures = []\n\
         reconfig_fail_p = 0.0\n\
         task_fault_p = 0.0\n\
         max_retries = 3\n\
         recovery = \"retry-same-core\"\n"
    );
}

#[test]
fn fault_spec_reads_fill_in_defaults() {
    let partial = FaultSpec {
        task_fault_p: 0.5,
        ..FaultSpec::default()
    };
    let read = |text: &str| serde_json::from_str::<FaultSpec>(text).unwrap();
    assert_eq!(read("{}"), FaultSpec::default());
    assert_eq!(read(r#"{"task_fault_p":0.5}"#), partial);
    assert_eq!(
        read(
            r#"{"core_failures":null,"reconfig_fail_p":null,"task_fault_p":0.5,"max_retries":null,"recovery":null}"#
        ),
        partial
    );
    assert_eq!(
        toml::from_str::<FaultSpec>("task_fault_p = 0.5").unwrap(),
        partial
    );
    assert_field_error::<FaultSpec>(r#"{"task_fault_p":"x"}"#, "FaultSpec.task_fault_p: ");
    assert_field_error::<FaultSpec>(r#"{"max_retries":-1}"#, "FaultSpec.max_retries: ");
}

#[test]
fn memory_spec_forms_and_defaults() {
    let contended = MemorySpec {
        slots: 2,
        arbitration: "crit-first".to_string(),
    };
    pin(
        &MemorySpec::default(),
        r#"{"slots":0,"arbitration":"fifo"}"#,
    );
    pin(&contended, r#"{"slots":2,"arbitration":"crit-first"}"#);
    assert_eq!(
        toml::to_string(&contended).unwrap(),
        "slots = 2\narbitration = \"crit-first\"\n"
    );

    let read = |text: &str| serde_json::from_str::<MemorySpec>(text).unwrap();
    let two_fifo = MemorySpec {
        slots: 2,
        ..MemorySpec::default()
    };
    assert_eq!(read("{}"), MemorySpec::default());
    assert_eq!(
        read(r#"{"slots":null,"arbitration":null}"#),
        MemorySpec::default()
    );
    assert_eq!(read(r#"{"slots":2}"#), two_fifo);
    assert_eq!(read(r#"{"slots":2,"arbitration":null}"#), two_fifo);
    assert_eq!(toml::from_str::<MemorySpec>("slots = 2").unwrap(), two_fifo);
    assert_field_error::<MemorySpec>(r#"{"slots":"x"}"#, "MemorySpec.slots: ");
    assert_field_error::<MemorySpec>(r#"{"arbitration":1}"#, "MemorySpec.arbitration: ");
}

// ---- ScenarioSpec ----

fn spec(full: bool) -> ScenarioSpec {
    let base =
        ScenarioSpec::new("x", WorkloadSpec::Chain { n: 2, cycles: 10 }).with_small_machine(2, 1);
    if !full {
        return base;
    }
    ScenarioSpec {
        params: Some(PolicyParams {
            alpha: Some(0.5),
            software_path: None,
        }),
        idle_to_halt: Some(SimDuration::from_us(40)),
        backend: Backend::Native,
        faults: Some(faults()),
        event_queue: Some("heap".to_string()),
        memory: Some(MemorySpec {
            slots: 2,
            arbitration: "crit-first".to_string(),
        }),
        ..base
    }
}

const SPEC_MACHINE: &str = r#""machine":{"num_cores":2,"fast_level":{"frequency":2000,"voltage_mv":1000},"slow_level":{"frequency":1000,"voltage_mv":800},"reconfig_latency":1000000,"issue_width":4,"rob_entries":128,"l1d_kib":64,"l1i_kib":32,"l2_mib_per_core":2,"noc_mesh":[4,8],"tech_nm":22}"#;
const SPEC_COSTS: &str =
    r#""costs":{"task_creation":800000,"per_bl_visit":250000,"dispatch":300000}"#;
const SPEC_POWER: &str = r#""power":{"c_eff_nf":1.0,"i_leak_a":0.35,"leak_v_sensitivity":1.5,"busy_activity":1.0,"idle_activity":0.25,"halt_activity":0.02,"uncore_w":10.0}"#;

fn spec_json(full: bool) -> String {
    let (params, idle_to_halt, tail) = if full {
        (
            r#"{"alpha":0.5,"software_path":null}"#,
            "40000000",
            format!(
                r#","backend":"native","faults":{FAULTS_JSON},"event_queue":"heap","memory":{{"slots":2,"arbitration":"crit-first"}}"#
            ),
        )
    } else {
        ("null", "null", String::new())
    };
    format!(
        r#"{{"name":"x","workload":{{"Chain":{{"n":2,"cycles":10}}}},{SPEC_MACHINE},"fast_cores":1,"scheduler":"fifo","estimator":"none","accel":"static-hetero","params":{params},{SPEC_COSTS},"idle_to_halt":{idle_to_halt},"idle_decel_delay":25000000,"wake_latency":1000000,{SPEC_POWER},"trace":"off","seed":3397001238{tail}}}"#
    )
}

const SPEC_TOML_SCALARS: &str = "\
name = \"x\"
fast_cores = 1
scheduler = \"fifo\"
estimator = \"none\"
accel = \"static-hetero\"
";

const SPEC_TOML_MACHINE: &str = "\
[workload]

[workload.Chain]
n = 2
cycles = 10

[machine]
num_cores = 2
reconfig_latency = 1000000
issue_width = 4
rob_entries = 128
l1d_kib = 64
l1i_kib = 32
l2_mib_per_core = 2
noc_mesh = [4, 8]
tech_nm = 22

[machine.fast_level]
frequency = 2000
voltage_mv = 1000

[machine.slow_level]
frequency = 1000
voltage_mv = 800
";

const SPEC_TOML_COSTS_POWER: &str = "\
[costs]
task_creation = 800000
per_bl_visit = 250000
dispatch = 300000

[power]
c_eff_nf = 1.0
i_leak_a = 0.35
leak_v_sensitivity = 1.5
busy_activity = 1.0
idle_activity = 0.25
halt_activity = 0.02
uncore_w = 10.0
";

fn spec_toml(full: bool) -> String {
    if !full {
        return format!(
            "{SPEC_TOML_SCALARS}\
             idle_decel_delay = 25000000\n\
             wake_latency = 1000000\n\
             trace = \"off\"\n\
             seed = 3397001238\n\
             \n\
             {SPEC_TOML_MACHINE}\n\
             {SPEC_TOML_COSTS_POWER}"
        );
    }
    format!(
        "{SPEC_TOML_SCALARS}\
         idle_to_halt = 40000000\n\
         idle_decel_delay = 25000000\n\
         wake_latency = 1000000\n\
         trace = \"off\"\n\
         seed = 3397001238\n\
         backend = \"native\"\n\
         event_queue = \"heap\"\n\
         \n\
         {SPEC_TOML_MACHINE}\n\
         [params]\n\
         alpha = 0.5\n\
         \n\
         {SPEC_TOML_COSTS_POWER}\n\
         [faults]\n\
         reconfig_fail_p = 0.0\n\
         task_fault_p = 0.25\n\
         max_retries = 3\n\
         recovery = \"retry-same-core\"\n\
         \n\
         [[faults.core_failures]]\n\
         core = 1\n\
         at = 2000\n\
         \n\
         [[faults.core_failures]]\n\
         core = 0\n\
         at = 5\n\
         recover_after = 7\n\
         \n\
         [memory]\n\
         slots = 2\n\
         arbitration = \"crit-first\"\n"
    )
}

#[test]
fn scenario_spec_forms() {
    for full in [false, true] {
        let s = spec(full);
        assert_eq!(s.to_json(), spec_json(full), "full = {full}");
        cross_check(&s);
        assert_eq!(ScenarioSpec::from_json(&spec_json(full)).unwrap(), s);
        assert_eq!(s.to_toml(), spec_toml(full), "full = {full}");
        assert_eq!(ScenarioSpec::from_toml(&spec_toml(full)).unwrap(), s);
    }
}

#[test]
fn spec_without_backend_reads_as_sim() {
    let absent = spec_json(false);
    assert!(!absent.contains("backend"));
    assert_eq!(
        ScenarioSpec::from_json(&absent).unwrap().backend,
        Backend::Sim
    );
    assert_eq!(
        ScenarioSpec::from_toml(&spec_toml(false)).unwrap().backend,
        Backend::Sim
    );
    let null = absent.replace(
        r#""seed":3397001238"#,
        r#""seed":3397001238,"backend":null"#,
    );
    assert_eq!(ScenarioSpec::from_json(&null).unwrap(), spec(false));

    let wrong = absent.replace(r#""seed":3397001238"#, r#""seed":3397001238,"backend":3"#);
    assert_field_error::<ScenarioSpec>(&wrong, "ScenarioSpec.backend: ");
    let wrong = absent.replace(
        r#""seed":3397001238"#,
        r#""seed":3397001238,"memory":{"slots":"x"}"#,
    );
    assert_field_error::<ScenarioSpec>(&wrong, "ScenarioSpec.memory: MemorySpec.slots: ");
}

// ---- EnergyReport, RunReport, CellRecord ----

fn energy(full: bool) -> EnergyReport {
    EnergyReport {
        time_s: 0.5,
        energy_j: 2.0,
        edp: 1.0,
        avg_power_w: 4.0,
        breakdown: EnergyBreakdown {
            core_busy_j: 1.0,
            core_idle_j: 0.5,
            core_halt_j: 0.0,
            core_static_j: 0.25,
            uncore_j: 0.25,
        },
        measurement: if full {
            Measurement::Simulated
        } else {
            Measurement::None
        },
    }
}

fn energy_json(full: bool) -> String {
    let tail = if full {
        r#","measurement":"simulated""#
    } else {
        ""
    };
    format!(
        r#"{{"time_s":0.5,"energy_j":2.0,"edp":1.0,"avg_power_w":4.0,"breakdown":{{"core_busy_j":1.0,"core_idle_j":0.5,"core_halt_j":0.0,"core_static_j":0.25,"uncore_j":0.25}}{tail}}}"#
    )
}

#[test]
fn energy_report_forms() {
    for full in [false, true] {
        pin(&energy(full), &energy_json(full));
    }
    let read = |text: &str| serde_json::from_str::<EnergyReport>(text).unwrap();
    assert_eq!(read(&energy_json(false)).measurement, Measurement::None);
    let null = energy_json(false).replace("0.25}}", r#"0.25},"measurement":null}"#);
    assert_eq!(read(&null), energy(false));
    let wrong = energy_json(false).replace("0.25}}", r#"0.25},"measurement":3}"#);
    assert_field_error::<EnergyReport>(&wrong, "EnergyReport.measurement: ");
}

fn report(full: bool) -> RunReport {
    RunReport {
        label: "CATA".to_string(),
        workload: "chain-2".to_string(),
        fast_cores: 1,
        exec_time: SimDuration::from_ps(1_910_000),
        energy: energy(full),
        counters: Counters::default(),
        lock_waits: LatencyHistogram::new(),
        reconfig_latencies: LatencyHistogram::new(),
        reconfig_overhead: SimDuration::from_ps(3000),
        reconfig_time_share: 0.25,
        core_utilization: vec![0.5, 0.75],
        tasks: 2,
        trace_counts: full.then(TraceCounts::default),
        effective_cores: full.then_some(1),
        service: full.then(ServiceReport::default),
        fault: full.then(FaultReport::default),
        memory: full.then(MemoryReport::default),
    }
}

const EMPTY_HIST: &str = r#"{"total":0,"sum_ps":0,"min_ps":0,"max_ps":0,"buckets":[]}"#;

fn report_json(full: bool) -> String {
    let h = EMPTY_HIST;
    let tail = if full {
        format!(
            concat!(
                r#","trace_counts":{{"task_starts":0,"task_ends":0,"reconfig_requests":0,"reconfigs_applied":0,"halts":0,"wakes":0}}"#,
                r#","effective_cores":1"#,
                r#","service":{{"arrivals":0,"admitted":0,"dropped":0,"completed":0,"in_flight":0,"duration":0,"graphs_per_sec":0.0,"latency":{h},"queue_wait":{h},"service_time":{h}}}"#,
                r#","fault":{{"injected":0,"recovered_cores":0,"displaced":0,"reexecuted":0,"shed":0,"task_faults":0,"reconfig_faults":0,"reconfig_recovered":0,"reconfig_exhausted":0,"capacity_lost":0,"recovery_latency":{h},"makespan_degradation":0.0}}"#,
                r#","memory":{{"requests":0,"waited":0,"total_wait":0,"max_wait":0,"crit_requests":0,"crit_wait":0,"demand":0,"serviced":0,"slots":0,"arbitration":""}}"#,
            ),
            h = h
        )
    } else {
        String::new()
    };
    format!(
        concat!(
            r#"{{"label":"CATA","workload":"chain-2","fast_cores":1,"exec_time":1910000,"energy":{energy},"#,
            r#""counters":{{"tasks_completed":0,"reconfigs_requested":0,"reconfigs_applied":0,"reconfigs_noop":0,"accel_denied":0,"accel_swaps":0,"cross_queue_steals":0,"halts":0,"sim_events":0}},"#,
            r#""lock_waits":{h},"reconfig_latencies":{h},"reconfig_overhead":3000,"reconfig_time_share":0.25,"core_utilization":[0.5,0.75],"tasks":2{tail}}}"#,
        ),
        energy = energy_json(full),
        h = h,
        tail = tail
    )
}

#[test]
fn run_report_forms() {
    for full in [false, true] {
        pin(&report(full), &report_json(full));
    }
    let read: RunReport = serde_json::from_str(&report_json(false)).unwrap();
    assert!(read.trace_counts.is_none() && read.effective_cores.is_none());
    assert!(read.service.is_none() && read.fault.is_none() && read.memory.is_none());
    assert_eq!(read.energy.measurement, Measurement::None);
    let wrong = report_json(false).replace(r#""tasks":2}"#, r#""tasks":2,"effective_cores":"x"}"#);
    assert_field_error::<RunReport>(&wrong, "RunReport.effective_cores: ");
}

fn cell(full: bool) -> CellRecord {
    CellRecord {
        schema: STORE_SCHEMA.to_string(),
        index: 7,
        cell: "x@chain-2/f1/sim".to_string(),
        grid: "g".to_string(),
        spec_digest: "d".to_string(),
        seed: 42,
        wall_s: 0.5,
        report: report(full),
        host: full.then(|| "h".to_string()),
        started_unix_ms: full.then_some(1),
        finished_unix_ms: full.then_some(2),
        spec: full.then(|| spec(false)),
    }
}

fn cell_json(full: bool) -> String {
    let tail = if full {
        format!(
            r#","host":"h","started_unix_ms":1,"finished_unix_ms":2,"spec":{}"#,
            spec_json(false)
        )
    } else {
        String::new()
    };
    format!(
        r#"{{"schema":"cata-results/v1","index":7,"cell":"x@chain-2/f1/sim","grid":"g","spec_digest":"d","seed":42,"wall_s":0.5,"report":{}{tail}}}"#,
        report_json(full)
    )
}

#[test]
fn cell_record_forms() {
    for full in [false, true] {
        pin(&cell(full), &cell_json(full));
    }
    let read: CellRecord = serde_json::from_str(&cell_json(false)).unwrap();
    assert!(read.host.is_none() && read.spec.is_none());
    assert!(read.started_unix_ms.is_none() && read.finished_unix_ms.is_none());
    let wrong = cell_json(false).replace(r#""seed":42"#, r#""seed":42,"host":5"#);
    assert_field_error::<CellRecord>(&wrong, "CellRecord.host: ");
}

// ---- Pretty layout ----
//
// `.tdg.json` exports, `repro spec` output and `BENCH_engine.json` are
// pretty-printed: two spaces per level, `"key": value`, and `[]`/`{}`
// for empty containers.

const TDG_PRETTY: &str = r#"{
  "schema": "cata-tdg/v1",
  "name": "tiny",
  "types": [
    {
      "name": "prepare",
      "criticality": 0
    },
    {
      "name": "solve",
      "criticality": 2
    }
  ],
  "tasks": [
    {
      "ty": 0,
      "profile": {
        "cpu_cycles": 1000,
        "mem_ps": 50,
        "blocks": []
      },
      "deps": []
    },
    {
      "ty": 1,
      "profile": {
        "cpu_cycles": 9000,
        "mem_ps": 0,
        "blocks": [
          {
            "at_progress": 0.5,
            "duration": 400000
          }
        ]
      },
      "deps": [
        0
      ]
    },
    {
      "ty": 0,
      "profile": {
        "cpu_cycles": 2000,
        "mem_ps": 10,
        "blocks": []
      },
      "deps": [
        0,
        1
      ]
    }
  ],
  "digest": "cec47d605ac4d922"
}"#;

#[test]
fn tdg_file_pretty_form() {
    let mut g = TaskGraph::new();
    let prepare = g.add_type("prepare", 0);
    let solve = g.add_type("solve", 2);
    let a = g.add_task(prepare, ExecProfile::new(1_000, 50), &[]);
    let b = g.add_task(
        solve,
        ExecProfile::new(9_000, 0).with_block(0.5, SimDuration::from_ns(400)),
        &[a],
    );
    g.add_task(prepare, ExecProfile::new(2_000, 10), &[a, b]);
    let file = TdgFile::from_graph("tiny", &g);
    assert_eq!(file.to_json_pretty(), TDG_PRETTY);
    cross_check(&file);
    assert_eq!(TdgFile::from_json(TDG_PRETTY).unwrap(), file);
}

const SPEC_PRETTY: &str = r#"{
  "name": "x",
  "workload": {
    "Chain": {
      "n": 2,
      "cycles": 10
    }
  },
  "machine": {
    "num_cores": 2,
    "fast_level": {
      "frequency": 2000,
      "voltage_mv": 1000
    },
    "slow_level": {
      "frequency": 1000,
      "voltage_mv": 800
    },
    "reconfig_latency": 1000000,
    "issue_width": 4,
    "rob_entries": 128,
    "l1d_kib": 64,
    "l1i_kib": 32,
    "l2_mib_per_core": 2,
    "noc_mesh": [
      4,
      8
    ],
    "tech_nm": 22
  },
  "fast_cores": 1,
  "scheduler": "fifo",
  "estimator": "none",
  "accel": "static-hetero",
  "params": {
    "alpha": 0.5,
    "software_path": null
  },
  "costs": {
    "task_creation": 800000,
    "per_bl_visit": 250000,
    "dispatch": 300000
  },
  "idle_to_halt": 40000000,
  "idle_decel_delay": 25000000,
  "wake_latency": 1000000,
  "power": {
    "c_eff_nf": 1.0,
    "i_leak_a": 0.35,
    "leak_v_sensitivity": 1.5,
    "busy_activity": 1.0,
    "idle_activity": 0.25,
    "halt_activity": 0.02,
    "uncore_w": 10.0
  },
  "trace": "off",
  "seed": 3397001238,
  "backend": "native",
  "faults": {
    "core_failures": [
      {
        "core": 1,
        "at": 2000
      },
      {
        "core": 0,
        "at": 5,
        "recover_after": 7
      }
    ],
    "reconfig_fail_p": 0.0,
    "task_fault_p": 0.25,
    "max_retries": 3,
    "recovery": "retry-same-core"
  },
  "event_queue": "heap",
  "memory": {
    "slots": 2,
    "arbitration": "crit-first"
  }
}"#;

#[test]
fn scenario_spec_pretty_form() {
    let s = spec(true);
    assert_eq!(s.to_json_pretty(), SPEC_PRETTY);
    assert_eq!(ScenarioSpec::from_json(SPEC_PRETTY).unwrap(), s);
}
