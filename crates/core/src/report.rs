//! Run reports: the measurements every figure/table is built from.

use cata_power::EnergyReport;
use cata_sim::stats::{Counters, LatencyHistogram};
use cata_sim::time::SimDuration;
use cata_sim::trace::TraceCounts;
use serde::{Deserialize, Serialize};

/// The result of one simulated execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Configuration label ("FIFO", "CATA+RSU", …).
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Fast-core count / power budget of the run.
    pub fast_cores: usize,
    /// Parallel-section execution time.
    pub exec_time: SimDuration,
    /// Energy/EDP from the power model.
    pub energy: EnergyReport,
    /// Event counters.
    pub counters: Counters,
    /// Lock-wait distribution of the software reconfiguration path.
    pub lock_waits: LatencyHistogram,
    /// Reconfiguration latency distribution.
    pub reconfig_latencies: LatencyHistogram,
    /// Total runtime overhead charged by the acceleration manager.
    pub reconfig_overhead: SimDuration,
    /// Share of aggregate core time spent in the reconfiguration path
    /// (paper §V-C: 0.03 %–3.49 % for CATA).
    pub reconfig_time_share: f64,
    /// Per-core busy fraction.
    pub core_utilization: Vec<f64>,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Per-kind event tallies, present when the run collected them
    /// (`TraceMode::Counters` or `Full`); `None` — and skipped in the
    /// serialized form — when tracing was off, so stored JSONL cells only
    /// pay for counts that exist.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace_counts: Option<TraceCounts>,
    /// The worker count the run *actually* used, when it differs from the
    /// spec's machine: the native executor clamps the machine to the host,
    /// so a 32-core spec executed on an 8-core laptop is an 8-core result
    /// and must say so. `None` — and skipped in the serialized form, so
    /// sim reports and legacy stores stay byte-identical — when the run
    /// honored the spec machine exactly (every sim run does).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub effective_cores: Option<usize>,
    /// Open-system service metrics (arrival/latency/drop accounting),
    /// present only for `repro serve` runs. `None` — and skipped in the
    /// serialized form, so closed-system reports and legacy stores stay
    /// byte-identical — for ordinary single-graph runs.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub service: Option<crate::service::ServiceReport>,
    /// Fault-injection accounting, present only when the run carried a
    /// [`FaultSpec`](crate::fault::FaultSpec). `None` — and skipped in
    /// the serialized form, so fault-free reports and legacy stores stay
    /// byte-identical — for runs on a perfect machine.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fault: Option<crate::fault::FaultReport>,
    /// Memory-gate accounting, present only when the run carried a
    /// contended [`MemorySpec`](crate::mem::MemorySpec). `None` — and
    /// skipped in the serialized form, so uncontended reports and legacy
    /// stores stay byte-identical — for runs on the uncontended machine.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub memory: Option<crate::mem::MemoryReport>,
}

impl RunReport {
    /// Speedup over a baseline run (paper figures: normalized to FIFO).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        if self.exec_time.is_zero() {
            return 0.0;
        }
        baseline.exec_time.as_ps() as f64 / self.exec_time.as_ps() as f64
    }

    /// EDP normalized to a baseline run (lower is better). `None` when the
    /// baseline carries no energy — a 0 J baseline used to divide to 0/inf
    /// and render native runs as infinitely better than sim.
    pub fn edp_normalized_to(&self, baseline: &RunReport) -> Option<f64> {
        self.energy.edp_normalized_to(&baseline.energy)
    }

    /// Mean core utilization.
    pub fn avg_utilization(&self) -> f64 {
        if self.core_utilization.is_empty() {
            return 0.0;
        }
        self.core_utilization.iter().sum::<f64>() / self.core_utilization.len() as f64
    }

    /// One-line human-readable summary. Energy-less runs (legacy native
    /// reports) render `energy=n/a edp=n/a` rather than a misleading
    /// `0.0000J edp=0.000000`.
    pub fn summary(&self) -> String {
        let has = self.energy.has_energy();
        let energy = if has {
            format!("{}J", cata_power::fmt_metric(self.energy.energy_j, true, 4))
        } else {
            "n/a".to_string()
        };
        let edp = cata_power::fmt_metric(self.energy.edp, has, 6);
        // A clamped native run is an N-core result, whatever the spec's
        // machine said — make the effective machine visible inline.
        let cores = match self.effective_cores {
            Some(n) => format!(" cores={n}"),
            None => String::new(),
        };
        format!(
            "{:<10} {:<14} fast={:<2}{cores} time={:<12} energy={energy} edp={edp} src={} tasks={} reconfigs={} (overhead {:.2}%)",
            self.label,
            self.workload,
            self.fast_cores,
            self.exec_time.to_string(),
            self.energy.measurement.name(),
            self.tasks,
            self.counters.reconfigs_applied,
            self.reconfig_time_share * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_power::EnergyBreakdown;

    fn report(time_us: u64, energy_j: f64) -> RunReport {
        let t = SimDuration::from_us(time_us);
        RunReport {
            label: "X".into(),
            workload: "w".into(),
            fast_cores: 8,
            exec_time: t,
            energy: EnergyReport::from_parts(
                t.as_secs_f64(),
                EnergyBreakdown {
                    core_busy_j: energy_j,
                    ..Default::default()
                },
            ),
            counters: Counters::default(),
            lock_waits: LatencyHistogram::new(),
            reconfig_latencies: LatencyHistogram::new(),
            reconfig_overhead: SimDuration::ZERO,
            reconfig_time_share: 0.0,
            core_utilization: vec![0.5, 1.0],
            tasks: 10,
            trace_counts: None,
            effective_cores: None,
            service: None,
            fault: None,
            memory: None,
        }
    }

    #[test]
    fn normalization_math() {
        let base = report(200, 10.0);
        let fast = report(100, 8.0);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
        // EDP: (8 × 100µs) / (10 × 200µs) = 0.4.
        assert!((fast.edp_normalized_to(&base).unwrap() - 0.4).abs() < 1e-12);
        assert!((fast.avg_utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_energy_baseline_normalizes_to_none() {
        let base = report(200, 0.0);
        let fast = report(100, 8.0);
        assert_eq!(fast.edp_normalized_to(&base), None);
    }

    #[test]
    fn summary_contains_key_fields() {
        let r = report(100, 1.0);
        let s = r.summary();
        assert!(s.contains("X"));
        assert!(s.contains("fast=8"));
        assert!(s.contains("tasks=10"));
    }

    #[test]
    fn summary_renders_na_for_energyless_runs() {
        let r = report(100, 0.0);
        let s = r.summary();
        assert!(s.contains("energy=n/a"), "{s}");
        assert!(s.contains("edp=n/a"), "{s}");
        assert!(!s.contains("edp=0.000000"), "{s}");
    }

    #[test]
    fn trace_counts_are_skipped_when_absent_and_round_trip_when_present() {
        let r = report(100, 1.0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            !json.contains("trace_counts"),
            "absent counts must be omitted, not null: {json}"
        );
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert!(back.trace_counts.is_none());
        assert_eq!(back.exec_time, r.exec_time);
        assert_eq!(back.core_utilization, r.core_utilization);

        let mut with = report(100, 1.0);
        with.trace_counts = Some(TraceCounts {
            task_starts: 10,
            task_ends: 10,
            reconfig_requests: 3,
            reconfigs_applied: 3,
            halts: 1,
            wakes: 1,
        });
        let json = serde_json::to_string(&with).unwrap();
        assert!(json.contains("trace_counts"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trace_counts, with.trace_counts);
    }

    #[test]
    fn service_metrics_are_skipped_when_absent_and_round_trip_when_present() {
        let r = report(100, 1.0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            !json.contains("\"service\""),
            "closed-system reports must keep the legacy layout: {json}"
        );

        let mut served = report(100, 1.0);
        let mut sr = crate::service::ServiceReport {
            arrivals: 7,
            admitted: 6,
            dropped: 1,
            completed: 6,
            duration: SimDuration::from_us(100),
            graphs_per_sec: 60_000.0,
            ..Default::default()
        };
        for i in 1..=6u64 {
            sr.latency.record(SimDuration::from_us(i));
        }
        served.service = Some(sr.clone());
        let json = serde_json::to_string(&served).unwrap();
        assert!(json.contains("\"service\""), "{json}");
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.service, Some(sr));
    }

    #[test]
    fn fault_report_is_skipped_when_absent_and_round_trips_when_present() {
        let r = report(100, 1.0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            !json.contains("\"fault\""),
            "fault-free reports must keep the legacy layout: {json}"
        );

        let mut faulted = report(100, 1.0);
        let mut fr = crate::fault::FaultReport {
            injected: 2,
            displaced: 3,
            reexecuted: 3,
            capacity_lost: SimDuration::from_us(50),
            makespan_degradation: 1.25,
            ..Default::default()
        };
        fr.recovery_latency.record(SimDuration::from_us(7));
        faulted.fault = Some(fr.clone());
        let json = serde_json::to_string(&faulted).unwrap();
        assert!(json.contains("\"fault\""), "{json}");
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fault, Some(fr));
    }

    #[test]
    fn memory_report_is_skipped_when_absent_and_round_trips_when_present() {
        let r = report(100, 1.0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            !json.contains("\"memory\""),
            "uncontended reports must keep the legacy layout: {json}"
        );

        let mut contended = report(100, 1.0);
        let mr = crate::mem::MemoryReport {
            requests: 5,
            waited: 2,
            total_wait: SimDuration::from_us(12),
            max_wait: SimDuration::from_us(9),
            crit_requests: 1,
            crit_wait: SimDuration::from_us(4),
            demand: SimDuration::from_us(40),
            serviced: SimDuration::from_us(52),
            slots: 2,
            arbitration: "crit-first".to_string(),
        };
        contended.memory = Some(mr.clone());
        let json = serde_json::to_string(&contended).unwrap();
        assert!(json.contains("\"memory\""), "{json}");
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.memory, Some(mr));
    }

    #[test]
    fn effective_cores_are_skipped_when_absent_and_surface_when_clamped() {
        let r = report(100, 1.0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            !json.contains("effective_cores"),
            "sim reports must keep the legacy layout: {json}"
        );
        assert!(!r.summary().contains("cores="), "{}", r.summary());

        let mut clamped = report(100, 1.0);
        clamped.effective_cores = Some(4);
        let json = serde_json::to_string(&clamped).unwrap();
        assert!(json.contains("\"effective_cores\":4"), "{json}");
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.effective_cores, Some(4));
        assert!(
            clamped.summary().contains("cores=4"),
            "{}",
            clamped.summary()
        );
    }
}
