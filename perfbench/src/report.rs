//! Turning batches into metrics, printing them, and comparing result files.

use crate::bench::{Batch, Ledger, SetupProfile};
use crate::layers::Costs;
use crate::spans::Span;
use serde::Value;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Where and when a result was measured. Absolute numbers from two hosts
/// are not comparable, so `compare` refuses to mix them.
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub host: String,
    pub nproc: usize,
    pub loadavg_1m: f64,
    pub started_unix_ms: u64,
}

impl Provenance {
    pub fn now(workload: &str, seed: u64, nproc: usize) -> Provenance {
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(0.0);
        Provenance {
            workload: workload.to_string(),
            seed,
            host: cata_core::exp::host_fingerprint(),
            nproc,
            loadavg_1m,
            started_unix_ms: cata_core::exp::now_unix_ms(),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "# perfbench workload={} seed={} host={} nproc={} loadavg_1m={} started_unix_ms={}",
            self.workload, self.seed, self.host, self.nproc, self.loadavg_1m, self.started_unix_ms
        )
    }
}

/// Peak resident memory of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile of `v` with linear interpolation between ranks.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The end-to-end metrics `BENCHMARK.json` bounds, from the plain batches.
/// Also prints every end-to-end metric the workloads report, including
/// the ones that apply to one workload only.
pub fn end_to_end(
    setups: &[f64],
    plain: &[Batch],
    peak_rss_mib: f64,
    ledger: &Ledger,
) -> Vec<Metric> {
    let walls: Vec<f64> = plain.iter().map(|b| b.wall_s).collect();
    let rates: Vec<f64> = plain.iter().map(|b| b.tasks as f64 / b.sim_s).collect();
    let cells: Vec<f64> = plain
        .iter()
        .flat_map(|b| b.cell_ms.iter().copied())
        .collect();
    let frames: Vec<f64> = plain
        .iter()
        .flat_map(|b| b.frame_ms.iter().copied())
        .collect();
    let merges: Vec<f64> = plain.iter().filter_map(|b| b.merge_s).collect();
    let firsts: Vec<f64> = plain.iter().filter_map(|b| b.first_frame_s).collect();
    println!(
        "# {} batches, {} cells, {} frames, {} set-ups; batch wall_s quartiles {:.4} {:.4} {:.4}",
        plain.len(),
        cells.len(),
        frames.len(),
        setups.len(),
        quantile(&walls, 0.25),
        quantile(&walls, 0.5),
        quantile(&walls, 0.75),
    );
    let applies = |v: &[f64], f: &dyn Fn(&[f64]) -> f64| (!v.is_empty()).then(|| f(v));
    let only_here: [(&str, Option<f64>, &str); 5] = [
        ("merge_s", applies(&merges, &median), "s"),
        ("watch_first_frame_s", applies(&firsts, &median), "s"),
        ("frame_ms_p50", applies(&frames, &median), "ms"),
        (
            "frame_ms_p90",
            applies(&frames, &|v| quantile(v, 0.9)),
            "ms",
        ),
        (
            "failed_frac",
            Some(ledger.failed as f64 / ledger.attempted.max(1) as f64),
            "1",
        ),
    ];
    for (name, value, unit) in only_here {
        match value {
            Some(v) => println!("{name:<24} {v:>14.6} {unit}"),
            None => println!("{name:<24} {:>14} {unit}", "n/a"),
        }
    }
    vec![
        ("setup_s", median(setups), "s"),
        ("wall_s", median(&walls), "s"),
        ("sim_tasks_per_s", median(&rates), "1/s"),
        ("cell_ms_p50", median(&cells), "ms"),
        ("cell_ms_p90", quantile(&cells, 0.9), "ms"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run: counts from the last traced
/// batch's reports and set-up, per-operation costs from the layer probes.
pub fn per_layer(
    setup: &SetupProfile,
    plain: &[Batch],
    traced: &[Batch],
    costs: &Costs,
    jobs: usize,
) -> Vec<Metric> {
    let last = traced.last().expect("a traced batch");
    let (mut events, mut starts, mut progress_ops, mut steals) = (0u64, 0u64, 0u64, 0u64);
    let (mut requested, mut applied, mut denied) = (0u64, 0u64, 0u64);
    let (mut mem_requests, mut mem_waited, mut hist_records, mut segments) =
        (0u64, 0u64, 0u64, 0u64);
    let (mut injected, mut reexecuted, mut fault_cells) = (0u64, 0u64, 0u64);
    let (mut arrivals, mut admitted, mut completed, mut tasks) = (0u64, 0u64, 0u64, 0u64);
    let mut attributed_ns = 0.0;
    let mut bl_visits = 0u64;
    let event_ns = match cata_sim::event::default_backend() {
        cata_sim::event::EventBackend::Heap => costs.event_heap_ns,
        cata_sim::event::EventBackend::CalendarWheel => costs.event_wheel_ns,
    };
    for (spec, r) in &last.cells {
        let c = &r.counters;
        // The open-system engine keeps no per-kind tallies; its counters
        // give the same counts (every completion had a start, every halt
        // a wake).
        let t = r.trace_counts.unwrap_or(cata_sim::trace::TraceCounts {
            task_starts: c.tasks_completed,
            task_ends: c.tasks_completed,
            reconfig_requests: c.reconfigs_requested,
            reconfigs_applied: c.reconfigs_applied,
            halts: c.halts,
            wakes: c.halts,
        });
        events += c.sim_events;
        starts += t.task_starts;
        tasks += c.tasks_completed;
        let p_ops = t.task_starts + t.reconfigs_applied;
        progress_ops += p_ops;
        steals += c.cross_queue_steals;
        requested += c.reconfigs_requested;
        applied += c.reconfigs_applied;
        denied += c.accel_denied;
        let segs = t.task_starts + t.task_ends + t.halts + t.wakes + t.reconfigs_applied;
        segments += segs;
        let mut hist = 0;
        if let Some(s) = &r.service {
            arrivals += s.arrivals;
            admitted += s.admitted;
            completed += s.completed;
            hist += s.latency.count() + s.queue_wait.count() + s.service_time.count();
        }
        if let Some(f) = &r.fault {
            injected += f.injected + f.task_faults + f.reconfig_faults;
            reexecuted += f.reexecuted;
            hist += f.recovery_latency.count();
        }
        fault_cells += u64::from(spec.faults.is_some());
        hist_records += hist;
        let mut mem_ns = 0.0;
        if let Some(m) = &r.memory {
            mem_requests += m.requests;
            mem_waited += m.waited;
            mem_ns =
                m.requests as f64 * costs.memory_ns.get(&m.arbitration).copied().unwrap_or(0.0);
        }
        if spec.estimator == "bottom-level" {
            bl_visits += costs
                .bottom_level
                .iter()
                .find(|(label, _, _)| *label == r.workload)
                .map_or(0, |(_, v, _)| *v);
        }
        attributed_ns += c.sim_events as f64 * event_ns
            + t.task_starts as f64
                * (costs.policy_ns.get(&spec.scheduler).copied().unwrap_or(0.0)
                    + costs.accel_ns.get(&spec.accel).copied().unwrap_or(0.0))
            + p_ops as f64 * costs.progress_ns
            + mem_ns
            + hist as f64 * costs.histogram_ns
            + segs as f64 * costs.power_ns;
    }
    let cell_ns: f64 = last.cell_ms.iter().sum::<f64>() * 1e6;
    let (bl_total_visits, bl_ns) = costs
        .bottom_level
        .iter()
        .fold((0u64, 0u64), |(v, n), (_, bv, bn)| (v + bv, n + bn));

    let efficiency: Vec<f64> = plain
        .iter()
        .map(|b| b.cell_ms.iter().sum::<f64>() / 1e3 / (b.sim_s * jobs as f64))
        .collect();
    let plain_wall = median(&plain.iter().map(|b| b.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|b| b.wall_s).collect::<Vec<_>>());
    let s = &costs.store;
    vec![
        ("workloads.generate.tasks", setup.gen_tasks as f64, "count"),
        (
            "workloads.generate.ns_per_task",
            ratio(setup.gen_ns as f64, setup.gen_tasks as f64),
            "ns",
        ),
        ("tdg.file.parse.bytes", setup.tdg_bytes as f64, "bytes"),
        ("tdg.file.parse.mb_per_s", costs.tdg.mb_per_s, "MB/s"),
        ("tdg.file.verify_ms", costs.tdg.verify_ms, "ms"),
        (
            "tdg.file.to_graph.ns_per_task",
            costs.tdg.to_graph_ns_per_task,
            "ns",
        ),
        ("tdg.view.ns_per_task", costs.view_ns_per_task, "ns"),
        ("tdg.bottom_level.visits", bl_visits as f64, "count"),
        (
            "tdg.bottom_level.ns_per_visit",
            ratio(bl_ns as f64, bl_total_visits as f64),
            "ns",
        ),
        (
            "tdg.bottom_level.fork_join_us",
            costs.bottom_level_fork_join_us,
            "us",
        ),
        ("sim.event.ops", events as f64, "count"),
        ("sim.event.heap.ns_per_op", costs.event_heap_ns, "ns"),
        ("sim.event.wheel.ns_per_op", costs.event_wheel_ns, "ns"),
        ("sim.event.push_pop_1k_us", costs.event_push_pop_1k_us, "us"),
        (
            "sim.event.share",
            ratio(events as f64 * event_ns, cell_ns),
            "1",
        ),
        ("sim.progress.ops", progress_ops as f64, "count"),
        ("sim.progress.ns_per_op", costs.progress_ns, "ns"),
        ("sim.progress.freq_flips_us", costs.progress_flips_us, "us"),
        ("core.policy.dispatches", starts as f64, "count"),
        ("core.policy.steals", steals as f64, "count"),
        ("core.policy.fifo.ns_per_op", costs.policy_ns["fifo"], "ns"),
        ("core.policy.cats.ns_per_op", costs.policy_ns["cats"], "ns"),
        (
            "core.policy.cats-homogeneous.ns_per_op",
            costs.policy_ns["cats-homogeneous"],
            "ns",
        ),
        ("core.accel.reconfigs_requested", requested as f64, "count"),
        (
            "core.accel.applied_ratio",
            ratio(applied as f64, requested as f64),
            "1",
        ),
        ("core.accel.denied", denied as f64, "count"),
        (
            "core.accel.software-cata.ns_per_op",
            costs.accel_ns["software-cata"],
            "ns",
        ),
        ("core.accel.rsu.ns_per_op", costs.accel_ns["rsu"], "ns"),
        ("core.accel.turbo.ns_per_op", costs.accel_ns["turbo"], "ns"),
        ("rsu.engine.ns_per_decision", costs.rsu_engine_ns, "ns"),
        ("rsu.unit.ns_per_start_end_pair", costs.rsu_pair_ns, "ns"),
        (
            "cpufreq.software_path.ns_per_request",
            costs.software_path_ns,
            "ns",
        ),
        ("sim.memory.requests", mem_requests as f64, "count"),
        (
            "sim.memory.wait_ratio",
            ratio(mem_waited as f64, mem_requests as f64),
            "1",
        ),
        ("sim.memory.fifo.ns_per_op", costs.memory_ns["fifo"], "ns"),
        (
            "sim.memory.crit-first.ns_per_op",
            costs.memory_ns["crit-first"],
            "ns",
        ),
        (
            "sim.memory.round-robin.ns_per_op",
            costs.memory_ns["round-robin"],
            "ns",
        ),
        ("sim.stats.histogram.records", hist_records as f64, "count"),
        (
            "sim.stats.histogram.ns_per_record",
            costs.histogram_ns,
            "ns",
        ),
        ("power.segments", segments as f64, "count"),
        ("power.integrate.ns_per_segment", costs.power_ns, "ns"),
        ("fault.injected", injected as f64, "count"),
        ("fault.reexecuted", reexecuted as f64, "count"),
        ("fault.cells", fault_cells as f64, "count"),
        ("service.arrivals", arrivals as f64, "count"),
        (
            "service.completed_ratio",
            ratio(completed as f64, admitted as f64),
            "1",
        ),
        ("service.tape.generate_ms", costs.tape_generate_ms, "ms"),
        (
            "service.tape.parse.mb_per_s",
            costs.tape_parse_mb_per_s,
            "MB/s",
        ),
        ("service.replay.ns_per_task", costs.replay_ns_per_task, "ns"),
        ("sim_exec.cells", last.cells.len() as f64, "count"),
        ("sim_exec.ns_per_event", ratio(cell_ns, events as f64), "ns"),
        (
            "sim_exec.events_per_task",
            ratio(events as f64, tasks as f64),
            "1",
        ),
        (
            "sim_exec.unattributed_share",
            1.0 - ratio(attributed_ns, cell_ns),
            "1",
        ),
        ("exp.suite.parallel_efficiency", median(&efficiency), "1"),
        ("exp.store.append.us_per_record", s.append_us, "us"),
        ("exp.store.record_bytes", s.record_bytes, "bytes"),
        ("exp.store.load.mb_per_s", s.load_mb_per_s, "MB/s"),
        (
            "exp.store.merge.records_per_s",
            s.merge_records_per_s,
            "1/s",
        ),
        ("exp.progress.records", last.progress_lines as f64, "count"),
        ("exp.progress.emit_us", s.emit_us, "us"),
        (
            "obs.state.ingest.us_per_store_line",
            s.ingest_store_us,
            "us",
        ),
        (
            "obs.state.ingest.us_per_progress_line",
            s.ingest_progress_us,
            "us",
        ),
        ("obs.dash.render_ms", s.render_ms, "ms"),
        ("obs.frame.to_text_ms", s.to_text_ms, "ms"),
        (
            "trace.overhead_share",
            ratio(traced_wall, plain_wall) - 1.0,
            "1",
        ),
    ]
}

/// Digests of a batch's outputs, printed for diffing between builds but
/// not checked: the whole reports, and their service, memory and fault
/// sections alone (those that are present).
pub fn output_digests(batch: &Batch) -> Vec<(&'static str, String)> {
    let digest = |parts: Vec<String>| cata_tdg::fnv1a_hex(parts.concat().bytes());
    let reports = &batch.cells;
    let mut out = vec![(
        "reports",
        digest(
            reports
                .iter()
                .map(|(_, r)| crate::bench::report_digest(r))
                .collect(),
        ),
    )];
    let service: Vec<String> = reports
        .iter()
        .filter_map(|(_, r)| r.service.as_ref())
        .map(|s| {
            cata_tdg::fnv1a_hex(
                serde_json::to_string(s)
                    .expect("service report serializes")
                    .bytes(),
            )
        })
        .collect();
    let memory: Vec<String> = reports
        .iter()
        .filter_map(|(_, r)| r.memory.as_ref().map(|m| m.digest()))
        .collect();
    let fault: Vec<String> = reports
        .iter()
        .filter_map(|(_, r)| r.fault.as_ref().map(|f| f.digest()))
        .collect();
    for (name, parts) in [("service", service), ("memory", memory), ("fault", fault)] {
        if !parts.is_empty() {
            out.push((name, digest(parts)));
        }
    }
    out
}

/// Prints total and self time per span name.
pub fn print_spans(spans: &[Span]) {
    println!("# span                                 count     total_ms      self_ms");
    for (name, count, total, own) in crate::spans::self_times(spans) {
        println!(
            "# {name:<36} {count:>5} {:>12.3} {:>12.3}",
            total / 1e6,
            own / 1e6
        );
    }
}

/// Formats a number with every digit it has (JSON has no NaN or inf;
/// those become 0 and were already reported as failures upstream).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn result_json(ledger: &Ledger, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        ledger.failed == 0 && ledger.attempted > 0,
        ledger.attempted.max(1),
        ledger.failed
    )
}

/// Prints the metrics table, optionally writes a result file with its
/// provenance, and prints the result object as the last line.
pub fn emit(
    workload: &str,
    prov: &Provenance,
    ledger: &Ledger,
    metrics: &[Metric],
    out: Option<&Path>,
) -> ExitCode {
    for f in &ledger.failures {
        println!("# FAILED {f}");
    }
    println!(
        "# {workload}: {} of {} operations failed",
        ledger.failed, ledger.attempted
    );
    for (name, value, unit) in metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    let result = result_json(ledger, metrics);
    if let Some(path) = out {
        let file = format!(
            "{{\"schema\": \"perfbench-result/v1\", \"workload\": \"{}\", \"seed\": {}, \"host\": \"{}\", \"nproc\": {}, \"loadavg_1m\": {}, \"started_unix_ms\": {}, \"result\": {result}}}\n",
            prov.workload, prov.seed, prov.host, prov.nproc, num(prov.loadavg_1m), prov.started_unix_ms
        );
        if let Err(e) = std::fs::write(path, file) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn as_f64(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn as_str(v: Option<&Value>) -> Option<&str> {
    match v? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// `compare A.json B.json`: per-metric B/A for two result files of the
/// same workload. Results from different hosts (fingerprint or core
/// count) are refused rather than compared.
pub fn compare(files: &[String]) -> ExitCode {
    let [a, b] = files else {
        eprintln!("error: compare takes two result files (written with --out)");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for key in ["host", "workload"] {
        if as_str(a.get(key)) != as_str(b.get(key)) {
            eprintln!(
                "error: refusing to compare results with different {key}: {:?} vs {:?}",
                as_str(a.get(key)),
                as_str(b.get(key))
            );
            return ExitCode::FAILURE;
        }
    }
    if as_f64(a.get("nproc")) != as_f64(b.get("nproc")) {
        eprintln!("error: refusing to compare results measured with different core counts");
        return ExitCode::FAILURE;
    }
    let metrics = |v: &Value| match v.get("result").and_then(|r| r.get("metrics")) {
        Some(Value::Map(m)) => m.clone(),
        _ => Vec::new(),
    };
    let mb = metrics(&b);
    println!("{:<40} {:>16} {:>16} {:>8}", "metric", "A", "B", "B/A");
    for (name, va) in metrics(&a) {
        let x = as_f64(va.get("value"));
        let y = mb
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| as_f64(v.get("value")));
        if let (Some(x), Some(y)) = (x, y) {
            println!("{name:<40} {x:>16.6} {y:>16.6} {:>8.3}", ratio(y, x));
        }
    }
    ExitCode::SUCCESS
}
