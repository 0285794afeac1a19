//! Engine performance harness: events/sec and wall time per paper preset.
//!
//! The north star demands an engine that runs "as fast as the hardware
//! allows"; this module measures it. Each of the six paper presets runs a
//! generated workload at three sizes (`small`/`medium`/`large`) with
//! tracing off, the wall clock is taken around the simulation only (graphs
//! are pre-generated and cached), and the throughput metric is
//! `Counters::sim_events / wall` — discrete events processed per second.
//!
//! The resulting [`PerfReport`] serializes to `BENCH_engine.json` so every
//! PR appends a point to the engine's performance trajectory. A previous
//! report can be passed in as the *baseline*: its medium-workload summary
//! is embedded into the new report together with the speedup ratio, which
//! is how the repo tracks "no perf regressions, only trajectories".

use cata_core::exp::{ScenarioSpec, WorkloadSpec};
use cata_core::SimExecutor;
use cata_sim::trace::TraceMode;
use cata_workloads::{Benchmark, Scale};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The fixed workload-generation seed of the harness (same as the figure
/// matrix default, so graphs are shared with other tooling).
pub const PERF_SEED: u64 = 42;

/// One measured (workload, preset) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfRun {
    /// Workload size label (`small`/`medium`/`large`).
    pub workload: String,
    /// Paper preset label (`FIFO`, `CATA`, …).
    pub preset: String,
    /// Tasks in the generated graph.
    pub tasks: u64,
    /// Discrete events processed by one run.
    pub events: u64,
    /// Best wall time over the measured repetitions, in seconds.
    pub wall_s: f64,
    /// `events / wall_s`.
    pub events_per_sec: f64,
}

/// Aggregate over every preset of one workload size: total events divided
/// by total (best-rep) wall time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfSummary {
    /// Workload size label.
    pub workload: String,
    /// Sum of per-preset event counts.
    pub events: u64,
    /// Sum of per-preset best wall times, in seconds.
    pub wall_s: f64,
    /// `events / wall_s`.
    pub events_per_sec: f64,
}

/// One point of the append-only perf trajectory: a harness run boiled
/// down to its per-size aggregates, stored as a single JSONL line so
/// every PR/CI run *appends* to the history instead of overwriting it.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// Format tag.
    pub schema: String,
    /// `full` or `smoke`.
    pub mode: String,
    /// Timing repetitions per cell.
    pub reps: u64,
    /// Per-size aggregates of the run.
    pub summaries: Vec<PerfSummary>,
    /// Medium-workload speedup over the baseline the run was gated
    /// against, if one was given.
    pub speedup_vs_baseline: Option<f64>,
    /// Fingerprint of the measuring host
    /// ([`cata_core::exp::host_fingerprint`]) — events/sec on two
    /// different machines is not one trajectory, and the `repro watch`
    /// sparkline refuses to plot a cross-host mix. `None` on points
    /// appended before this field existed.
    pub host: Option<String>,
    /// Wall-clock append time, milliseconds since the Unix epoch (gives
    /// the trajectory an x-axis). `None` on legacy points.
    pub unix_ms: Option<u64>,
}

// Serde is hand-written so the provenance fields are *omitted* — not
// `null` — when absent, and legacy trajectory lines (which predate them)
// keep parsing.
impl Serialize for PerfPoint {
    fn to_value(&self) -> serde::Value {
        let mut m: Vec<(String, serde::Value)> = vec![
            ("schema".into(), self.schema.to_value()),
            ("mode".into(), self.mode.to_value()),
            ("reps".into(), self.reps.to_value()),
            ("summaries".into(), self.summaries.to_value()),
            (
                "speedup_vs_baseline".into(),
                self.speedup_vs_baseline.to_value(),
            ),
        ];
        if let Some(h) = &self.host {
            m.push(("host".into(), h.to_value()));
        }
        if let Some(ms) = self.unix_ms {
            m.push(("unix_ms".into(), ms.to_value()));
        }
        serde::Value::Map(m)
    }
}

impl Deserialize for PerfPoint {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let m = v.as_map_for("PerfPoint")?;
        Ok(PerfPoint {
            schema: serde::field(m, "schema", "PerfPoint")?,
            mode: serde::field(m, "mode", "PerfPoint")?,
            reps: serde::field(m, "reps", "PerfPoint")?,
            summaries: serde::field(m, "summaries", "PerfPoint")?,
            speedup_vs_baseline: serde::field(m, "speedup_vs_baseline", "PerfPoint")?,
            host: serde::field(m, "host", "PerfPoint")?,
            unix_ms: serde::field(m, "unix_ms", "PerfPoint")?,
        })
    }
}

/// Schema tag of [`PerfPoint`] trajectory records.
pub const TRAJECTORY_SCHEMA: &str = "cata-perf-point/v1";

/// Appends `report` to the JSONL trajectory at `path` (one atomic line:
/// serialize + `\n`, a single `write_all` on an append handle).
pub fn append_trajectory(path: &str, report: &PerfReport) -> Result<(), String> {
    use std::io::Write as _;
    let mut line = serde_json::to_string(&report.trajectory_point()).map_err(|e| e.to_string())?;
    line.push('\n');
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| e.to_string())?;
    f.write_all(line.as_bytes()).map_err(|e| e.to_string())
}

/// The full harness output (`BENCH_engine.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Format tag.
    pub schema: String,
    /// `full` or `smoke` (CI runs smoke).
    pub mode: String,
    /// Timing repetitions per cell (best is kept).
    pub reps: u64,
    /// Trace mode of the measured runs (always `off`).
    pub trace: String,
    /// Every measured cell.
    pub runs: Vec<PerfRun>,
    /// Per-size aggregates.
    pub summaries: Vec<PerfSummary>,
    /// The previous report's medium-workload summary, if one was given.
    pub baseline_medium: Option<PerfSummary>,
    /// `medium events/sec ÷ baseline medium events/sec`.
    pub speedup_vs_baseline: Option<f64>,
}

/// The harness workloads: the paper's Dedup pipeline at the three
/// generator scales. Smoke mode drops `large` to stay CI-fast.
pub fn perf_workloads(smoke: bool) -> Vec<(&'static str, WorkloadSpec)> {
    let mut w = vec![
        (
            "small",
            WorkloadSpec::parsec(Benchmark::Dedup, Scale::Tiny, PERF_SEED),
        ),
        (
            "medium",
            WorkloadSpec::parsec(Benchmark::Dedup, Scale::Small, PERF_SEED),
        ),
    ];
    if !smoke {
        w.push((
            "large",
            WorkloadSpec::parsec(Benchmark::Dedup, Scale::Paper, PERF_SEED),
        ));
    }
    w
}

/// Runs the full measurement matrix: every paper preset on every harness
/// workload, `reps` timed repetitions each (plus one untimed warm-up that
/// also populates the shared graph cache), tracing off.
pub fn run_perf(smoke: bool, reps: usize) -> PerfReport {
    let reps = reps.max(1);
    let exec = SimExecutor;
    let registries = cata_core::exp::default_registries();
    let mut runs = Vec::new();
    let mut summaries = Vec::new();

    for (size, workload) in perf_workloads(smoke) {
        let mut size_events = 0u64;
        let mut size_wall = 0.0f64;
        for preset in cata_core::exp::spec::PAPER_PRESETS {
            let mut spec =
                ScenarioSpec::preset(preset, 16, workload.clone()).expect("paper preset resolves");
            spec.trace = TraceMode::Off;

            // Warm up: generates + caches the graph and faults in code.
            let warm = exec
                .run_spec(&spec, registries)
                .unwrap_or_else(|e| panic!("{preset}/{size}: {e}"))
                .0;
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let _ = std::hint::black_box(
                    exec.run_spec(&spec, registries)
                        .unwrap_or_else(|e| panic!("{preset}/{size}: {e}")),
                );
                best = best.min(t0.elapsed().as_secs_f64());
            }
            let events = warm.counters.sim_events;
            size_events += events;
            size_wall += best;
            runs.push(PerfRun {
                workload: size.to_string(),
                preset: preset.to_string(),
                tasks: warm.tasks as u64,
                events,
                wall_s: best,
                events_per_sec: events as f64 / best.max(1e-12),
            });
        }
        summaries.push(PerfSummary {
            workload: size.to_string(),
            events: size_events,
            wall_s: size_wall,
            events_per_sec: size_events as f64 / size_wall.max(1e-12),
        });
    }

    PerfReport {
        schema: "cata-bench-engine/v1".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        reps: reps as u64,
        trace: "off".to_string(),
        runs,
        summaries,
        baseline_medium: None,
        speedup_vs_baseline: None,
    }
}

impl PerfReport {
    /// The medium-workload aggregate. Reports produced by [`run_perf`]
    /// always have one (smoke keeps medium), but a hand-edited or foreign
    /// baseline file may not.
    pub fn medium(&self) -> Option<&PerfSummary> {
        self.summaries.iter().find(|s| s.workload == "medium")
    }

    /// Embeds `baseline`'s medium summary and the speedup ratio. A
    /// baseline without a medium summary is ignored (fields stay `None`).
    pub fn with_baseline(mut self, baseline: &PerfReport) -> Self {
        let (Some(cur), Some(base)) = (self.medium(), baseline.medium()) else {
            return self;
        };
        let ratio = cur.events_per_sec / base.events_per_sec.max(1e-12);
        self.baseline_medium = Some(base.clone());
        self.speedup_vs_baseline = Some(ratio);
        self
    }

    /// Boils the report down to its trajectory point (see [`PerfPoint`]),
    /// stamped with the measuring host's fingerprint and the wall clock.
    pub fn trajectory_point(&self) -> PerfPoint {
        PerfPoint {
            schema: TRAJECTORY_SCHEMA.to_string(),
            mode: self.mode.clone(),
            reps: self.reps,
            summaries: self.summaries.clone(),
            speedup_vs_baseline: self.speedup_vs_baseline,
            host: Some(cata_core::exp::host_fingerprint()),
            unix_ms: Some(cata_core::exp::now_unix_ms()),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("perf report serializes")
    }

    /// Parses a report (e.g. a previous `BENCH_engine.json`).
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Human-readable table for the console.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:<10} {:>7} {:>10} {:>9} {:>13}",
            "size", "preset", "tasks", "events", "wall ms", "events/sec"
        );
        for r in &self.runs {
            let _ = writeln!(
                out,
                "{:<8} {:<10} {:>7} {:>10} {:>9.2} {:>13.0}",
                r.workload,
                r.preset,
                r.tasks,
                r.events,
                r.wall_s * 1e3,
                r.events_per_sec
            );
        }
        for s in &self.summaries {
            let _ = writeln!(
                out,
                "{:<8} {:<10} {:>7} {:>10} {:>9.2} {:>13.0}",
                s.workload,
                "TOTAL",
                "",
                s.events,
                s.wall_s * 1e3,
                s.events_per_sec
            );
        }
        if let (Some(base), Some(speedup), Some(cur)) = (
            &self.baseline_medium,
            self.speedup_vs_baseline,
            self.medium(),
        ) {
            let _ = writeln!(
                out,
                "medium vs baseline: {:.0} -> {:.0} events/sec ({speedup:.2}x)",
                base.events_per_sec, cur.events_per_sec
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_point_carries_provenance_and_legacy_lines_parse() {
        let point = PerfPoint {
            schema: TRAJECTORY_SCHEMA.into(),
            mode: "smoke".into(),
            reps: 1,
            summaries: vec![PerfSummary {
                workload: "medium".into(),
                events: 10,
                wall_s: 0.5,
                events_per_sec: 20.0,
            }],
            speedup_vs_baseline: None,
            host: Some("deadbeefdeadbeef".into()),
            unix_ms: Some(1_700_000_000_000),
        };
        let json = serde_json::to_string(&point).unwrap();
        assert!(json.contains("\"host\""), "{json}");
        let back: PerfPoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.host.as_deref(), Some("deadbeefdeadbeef"));
        assert_eq!(back.unix_ms, Some(1_700_000_000_000));

        // A pre-provenance trajectory line (no host/unix_ms, null speedup)
        // must keep parsing.
        let legacy = r#"{"schema":"cata-perf-point/v1","mode":"smoke","reps":1,
            "summaries":[],"speedup_vs_baseline":null}"#;
        let old: PerfPoint = serde_json::from_str(legacy).unwrap();
        assert!(old.host.is_none() && old.unix_ms.is_none());

        // Fresh reports stamp both fields.
        let stamped = run_perf(true, 1).trajectory_point();
        assert_eq!(stamped.host, Some(cata_core::exp::host_fingerprint()));
        assert!(stamped.unix_ms.is_some());
    }

    #[test]
    fn smoke_report_round_trips() {
        let report = run_perf(true, 1);
        assert_eq!(report.runs.len(), 12, "6 presets x 2 smoke workloads");
        let medium = report.medium().expect("smoke keeps the medium workload");
        assert!(medium.events > 0);
        assert!(medium.events_per_sec > 0.0);
        let json = report.to_json_pretty();
        let parsed = PerfReport::from_json(&json).expect("report parses");
        assert_eq!(parsed.runs.len(), report.runs.len());
        assert_eq!(
            parsed.medium().map(|m| m.events),
            report.medium().map(|m| m.events)
        );

        let chained = run_perf(true, 1).with_baseline(&report);
        assert!(chained.speedup_vs_baseline.unwrap() > 0.0);
        assert!(chained.baseline_medium.is_some());

        // A baseline without a medium summary is ignored, not a panic.
        let mut no_medium = report.clone();
        no_medium.summaries.retain(|s| s.workload != "medium");
        let unchained = run_perf(true, 1).with_baseline(&no_medium);
        assert!(unchained.baseline_medium.is_none());
        assert!(unchained.speedup_vs_baseline.is_none());
    }
}
