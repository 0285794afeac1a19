//! Energy integration over activity timelines.

use crate::params::PowerParams;
use cata_sim::activity::Activity;
use cata_sim::machine::Machine;
use cata_sim::time::SimDuration;
use serde::{DeError, Deserialize, Deserializer, Kind, Serialize, Serializer};

/// How an [`EnergyReport`]'s joules were obtained — the provenance tag that
/// makes sim and native cells comparable in one table. Serialized as a
/// lowercase string; reports written before the tag existed deserialize as
/// [`Measurement::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Measurement {
    /// Integrated from simulated activity timelines ([`integrate_machine`]).
    Simulated,
    /// Computed by the calibrated per-core model from busy-time-at-frequency
    /// intervals a native run observed (`cata_power::modeled`).
    Modeled,
    /// [`Modeled`](Self::Modeled), but scaled to the *spec* machine: the
    /// native run was clamped to fewer workers than the spec's cores
    /// (`effective_cores` surfaces the clamp), and the model priced the
    /// unmapped cores as idle at the slow level so the joules remain
    /// comparable with full-width sim cells.
    ModeledScaled,
    /// Read from the RAPL energy counters under `/sys/class/powercap`.
    Rapl,
    /// RAPL package total apportioned across components by the calibrated
    /// model's per-component ratios: measured magnitude, modeled split.
    RaplSplit,
    /// No energy was measured (legacy native runs, untagged stored reports).
    #[default]
    None,
}

impl Measurement {
    /// The serialized / table form ("simulated", "modeled",
    /// "modeled-scaled", "rapl", "none").
    pub fn name(self) -> &'static str {
        match self {
            Measurement::Simulated => "simulated",
            Measurement::Modeled => "modeled",
            Measurement::ModeledScaled => "modeled-scaled",
            Measurement::Rapl => "rapl",
            Measurement::RaplSplit => "rapl-split",
            Measurement::None => "none",
        }
    }

    /// True for [`Measurement::None`] (no energy was measured).
    pub fn is_none(&self) -> bool {
        *self == Measurement::None
    }
}

// Serde is hand-written so the strings are `name()`'s, shared with tables.
impl Serialize for Measurement {
    fn serialize(&self, s: &mut dyn Serializer) {
        s.str(self.name());
    }
}

impl Deserialize for Measurement {
    fn deserialize(d: &mut dyn Deserializer) -> Result<Self, DeError> {
        match d.kind()? {
            Kind::Str => match d.str()? {
                "simulated" => Ok(Measurement::Simulated),
                "modeled" => Ok(Measurement::Modeled),
                "modeled-scaled" => Ok(Measurement::ModeledScaled),
                "rapl" => Ok(Measurement::Rapl),
                "rapl-split" => Ok(Measurement::RaplSplit),
                "none" => Ok(Measurement::None),
                other => Err(DeError::new(format!("unknown measurement `{other}`"))),
            },
            other => Err(DeError::new(format!(
                "Measurement: expected a string, found {}",
                other.name()
            ))),
        }
    }
}

/// Energy attributed to each component, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Core dynamic energy while busy.
    pub core_busy_j: f64,
    /// Core dynamic energy in the runtime idle loop.
    pub core_idle_j: f64,
    /// Core dynamic energy while halted (clock-gating residue).
    pub core_halt_j: f64,
    /// Core leakage energy.
    pub core_static_j: f64,
    /// Uncore (L2/directory/NoC) energy.
    pub uncore_j: f64,
}

impl EnergyBreakdown {
    /// Total energy across all components.
    pub fn total_j(&self) -> f64 {
        self.core_busy_j + self.core_idle_j + self.core_halt_j + self.core_static_j + self.uncore_j
    }
}

/// The energy/EDP result of one run (simulated or native).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Wall-clock execution time of the run, in seconds.
    pub time_s: f64,
    /// Total energy, in joules.
    pub energy_j: f64,
    /// Energy-Delay Product, in joule-seconds.
    pub edp: f64,
    /// Average power over the run, in watts.
    pub avg_power_w: f64,
    /// Per-component energy attribution (all-zero for RAPL measurements,
    /// which only give package totals).
    pub breakdown: EnergyBreakdown,
    /// Where the joules came from. Omitted when [`Measurement::None`], so
    /// an untagged report serializes as it did before the field existed,
    /// and a missing field reads back as `None`.
    #[serde(default, skip_serializing_if = "Measurement::is_none")]
    pub measurement: Measurement,
}

impl EnergyReport {
    /// Builds a report from a total energy and run time (provenance
    /// untagged; see [`with_measurement`](Self::with_measurement)).
    pub fn from_parts(time_s: f64, breakdown: EnergyBreakdown) -> Self {
        let energy_j = breakdown.total_j();
        EnergyReport {
            time_s,
            energy_j,
            edp: energy_j * time_s,
            avg_power_w: if time_s > 0.0 { energy_j / time_s } else { 0.0 },
            breakdown,
            measurement: Measurement::None,
        }
    }

    /// A report from a directly measured total (no component attribution) —
    /// the RAPL path.
    pub fn measured(time_s: f64, energy_j: f64, measurement: Measurement) -> Self {
        EnergyReport {
            time_s,
            energy_j,
            edp: energy_j * time_s,
            avg_power_w: if time_s > 0.0 { energy_j / time_s } else { 0.0 },
            breakdown: EnergyBreakdown::default(),
            measurement,
        }
    }

    /// Tags the report's provenance.
    pub fn with_measurement(mut self, measurement: Measurement) -> Self {
        self.measurement = measurement;
        self
    }

    /// The first of the report's numbers that is not finite, by name. A
    /// writer writes such a number as `null`, which no reader reads back
    /// as a number.
    pub fn non_finite(&self) -> Option<(&'static str, f64)> {
        let b = &self.breakdown;
        [
            ("time_s", self.time_s),
            ("energy_j", self.energy_j),
            ("edp", self.edp),
            ("avg_power_w", self.avg_power_w),
            ("core_busy_j", b.core_busy_j),
            ("core_idle_j", b.core_idle_j),
            ("core_halt_j", b.core_halt_j),
            ("core_static_j", b.core_static_j),
            ("uncore_j", b.uncore_j),
        ]
        .into_iter()
        .find(|(_, v)| !v.is_finite())
    }

    /// True when the report actually carries energy (nonzero, finite).
    pub fn has_energy(&self) -> bool {
        self.energy_j.is_finite() && self.energy_j > 0.0
    }

    /// This report's EDP normalized to a baseline report (paper Figures 4–5
    /// plot exactly this quantity). `None` when *either* side carries no
    /// energy (e.g. a legacy native run that measured 0 J) — the old
    /// behaviour divided by zero and rendered native runs as infinitely
    /// better than sim, and an energy-less numerator would render a
    /// just-as-misleading `0.000`.
    pub fn edp_normalized_to(&self, baseline: &EnergyReport) -> Option<f64> {
        if !self.has_energy() || !baseline.has_energy() {
            return None;
        }
        if !baseline.edp.is_finite() || baseline.edp <= 0.0 {
            return None;
        }
        let ratio = self.edp / baseline.edp;
        ratio.is_finite().then_some(ratio)
    }

    /// Speedup of this run relative to a baseline (baseline time / our time).
    pub fn speedup_over(&self, baseline: &EnergyReport) -> f64 {
        if self.time_s == 0.0 {
            0.0
        } else {
            baseline.time_s / self.time_s
        }
    }
}

/// Formats an energy or EDP value for summaries and tables: `n/a` when the
/// run carries no energy (so a legacy 0 J report is never mistaken for a
/// measurement), scientific notation for tiny-but-real values that fixed
/// precision would render as `0.000000`. The one place this policy lives —
/// `RunReport::summary` and the repro tables both call it.
pub fn fmt_metric(value: f64, has_energy: bool, prec: usize) -> String {
    if !has_energy || !value.is_finite() {
        "n/a".to_string()
    } else if value >= 1e-3 {
        format!("{value:.prec$}")
    } else {
        format!("{value:.3e}")
    }
}

/// Integrates the activity timelines of a finished machine into an energy
/// report.
///
/// The machine must have been closed with [`Machine::finish`] so every
/// timeline covers `[0, end]`; `run_time` is that same end instant.
pub fn integrate_machine(
    machine: &Machine,
    run_time: SimDuration,
    params: &PowerParams,
) -> EnergyReport {
    let mut b = EnergyBreakdown::default();
    for core in machine.cores() {
        for seg in core.timeline().segments() {
            let dt = seg.duration.as_secs_f64();
            let dyn_j = params.dynamic_w(seg.level, seg.activity) * dt;
            match seg.activity {
                Activity::Busy => b.core_busy_j += dyn_j,
                Activity::Idle => b.core_idle_j += dyn_j,
                Activity::Halted => b.core_halt_j += dyn_j,
            }
            b.core_static_j += params.static_w(seg.level) * dt;
        }
    }
    b.uncore_j = params.uncore_w * run_time.as_secs_f64();
    EnergyReport::from_parts(run_time.as_secs_f64(), b).with_measurement(Measurement::Simulated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_sim::machine::{CoreId, MachineConfig, PowerLevel};
    use cata_sim::time::SimTime;

    #[test]
    fn idle_machine_consumes_static_idle_and_uncore() {
        let cfg = MachineConfig::small_test(2);
        let mut m = Machine::new(cfg);
        let end = SimTime::from_ms(1);
        m.finish(end);
        let p = PowerParams::mcpat_22nm();
        let r = integrate_machine(&m, SimDuration::from_ms(1), &p);

        let dt = 1e-3;
        let expect_static = 2.0 * p.static_w(PowerLevel::paper_slow()) * dt;
        let expect_idle = 2.0 * p.dynamic_w(PowerLevel::paper_slow(), Activity::Idle) * dt;
        let expect_uncore = p.uncore_w * dt;
        assert!((r.breakdown.core_static_j - expect_static).abs() < 1e-12);
        assert!((r.breakdown.core_idle_j - expect_idle).abs() < 1e-12);
        assert!((r.breakdown.uncore_j - expect_uncore).abs() < 1e-12);
        assert_eq!(r.breakdown.core_busy_j, 0.0);
        assert!((r.energy_j - r.breakdown.total_j()).abs() < 1e-15);
        assert!((r.edp - r.energy_j * dt).abs() < 1e-18);
    }

    #[test]
    fn busy_fast_core_dominates_energy() {
        let cfg = MachineConfig::small_test(1);
        let mut m = Machine::new_static_hetero(cfg, 1);
        m.set_activity(CoreId(0), SimTime::ZERO, Activity::Busy);
        m.finish(SimTime::from_ms(10));
        let p = PowerParams::mcpat_22nm();
        let r = integrate_machine(&m, SimDuration::from_ms(10), &p);
        // 2 W dynamic × 10 ms = 20 mJ busy energy.
        assert!((r.breakdown.core_busy_j - 0.02).abs() < 1e-9);
        assert!(r.breakdown.core_busy_j > r.breakdown.core_static_j);
    }

    #[test]
    fn normalization_helpers() {
        let base = EnergyReport::from_parts(
            2.0,
            EnergyBreakdown {
                core_busy_j: 10.0,
                ..Default::default()
            },
        );
        let faster = EnergyReport::from_parts(
            1.0,
            EnergyBreakdown {
                core_busy_j: 8.0,
                ..Default::default()
            },
        );
        assert!((faster.speedup_over(&base) - 2.0).abs() < 1e-12);
        // EDP: 8 J·1 s vs 10 J·2 s → 0.4.
        assert!((faster.edp_normalized_to(&base).unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_energy_baseline_yields_no_edp_not_zero_or_inf() {
        // The old behaviour returned 0.0 for a 0 J baseline, rendering a
        // native run as infinitely better than sim in every table.
        let zero = EnergyReport::from_parts(1.0, EnergyBreakdown::default());
        let real = EnergyReport::from_parts(
            1.0,
            EnergyBreakdown {
                core_busy_j: 5.0,
                ..Default::default()
            },
        );
        assert!(!zero.has_energy());
        assert_eq!(real.edp_normalized_to(&zero), None);
        // An energy-less numerator is just as undefined: Some(0.0) would
        // render a misleading `0.000` cell and zero out geomeans.
        assert_eq!(zero.edp_normalized_to(&real), None);
        assert!(real.edp_normalized_to(&real).is_some());
    }

    #[test]
    fn measurement_round_trips_and_legacy_reports_parse() {
        let tagged = EnergyReport::from_parts(
            0.5,
            EnergyBreakdown {
                core_busy_j: 1.0,
                ..Default::default()
            },
        )
        .with_measurement(Measurement::Modeled);
        let back = EnergyReport::from_value(&tagged.to_value()).unwrap();
        assert_eq!(back.measurement, Measurement::Modeled);
        assert_eq!(back.energy_j, tagged.energy_j);

        // Untagged reports serialize without the field (legacy layout)…
        let untagged = EnergyReport::from_parts(0.5, EnergyBreakdown::default());
        assert!(untagged.to_value().get("measurement").is_none());
        // …and a legacy map (no `measurement` key) parses as `None`.
        let legacy = untagged.to_value();
        let parsed = EnergyReport::from_value(&legacy).unwrap();
        assert_eq!(parsed.measurement, Measurement::None);
    }

    #[test]
    fn integration_tags_simulated_provenance() {
        let cfg = MachineConfig::small_test(1);
        let mut m = Machine::new(cfg);
        m.finish(SimTime::from_ms(1));
        let r = integrate_machine(&m, SimDuration::from_ms(1), &PowerParams::mcpat_22nm());
        assert_eq!(r.measurement, Measurement::Simulated);
    }

    #[test]
    fn halted_core_saves_energy_vs_idle() {
        let cfg = MachineConfig::small_test(1);
        let p = PowerParams::mcpat_22nm();
        let run = SimDuration::from_ms(5);

        let mut idle = Machine::new(cfg.clone());
        idle.finish(SimTime::ZERO + run);
        let r_idle = integrate_machine(&idle, run, &p);

        let mut halted = Machine::new(cfg);
        halted.set_activity(CoreId(0), SimTime::ZERO, Activity::Halted);
        halted.finish(SimTime::ZERO + run);
        let r_halt = integrate_machine(&halted, run, &p);

        assert!(r_halt.energy_j < r_idle.energy_j);
    }
}
