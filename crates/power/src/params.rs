//! Power model calibration constants.

use cata_sim::activity::Activity;
use cata_sim::machine::PowerLevel;
use serde::{Deserialize, Serialize};

/// Calibration constants of the analytic power model.
///
/// Reference point: one out-of-order 4-wide core (Table I) at the paper's
/// fast level (2 GHz, 1.0 V) on a 22 nm process, following the magnitudes
/// McPAT reports for such cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerParams {
    /// Effective switched capacitance per core in nanofarads; defines the
    /// dynamic power scale: `P_dyn = α · c_eff_nf · V² · f`.
    /// With 1.0 nF: 1.0 × 1.0² V² × 2 GHz = 2.0 W at the fast level.
    pub c_eff_nf: f64,
    /// Leakage current per core at the nominal voltage (1.0 V), in amperes.
    /// `P_static = v · i_leak · (1 + leak_v_sensitivity · (v − 1.0))`.
    pub i_leak_a: f64,
    /// Linear sensitivity of leakage current to voltage around 1.0 V.
    pub leak_v_sensitivity: f64,
    /// Activity factor while executing instructions.
    pub busy_activity: f64,
    /// Activity factor in the runtime idle loop (spinning for work).
    pub idle_activity: f64,
    /// Activity factor while halted in C1 (clock gated; McPAT's default
    /// clock gating leaves a small residue).
    pub halt_activity: f64,
    /// Constant uncore power for the whole chip (L2 NUCA banks, directory,
    /// 4×8 mesh), in watts.
    pub uncore_w: f64,
}

impl PowerParams {
    /// Calibration for the paper's 22 nm, 32-core machine.
    pub fn mcpat_22nm() -> Self {
        PowerParams {
            c_eff_nf: 1.0,
            i_leak_a: 0.35,
            leak_v_sensitivity: 1.5,
            busy_activity: 1.0,
            idle_activity: 0.25,
            halt_activity: 0.02,
            uncore_w: 10.0,
        }
    }

    /// Every constant, by name, in declaration order.
    pub fn named(&self) -> [(&'static str, f64); 7] {
        [
            ("c_eff_nf", self.c_eff_nf),
            ("i_leak_a", self.i_leak_a),
            ("leak_v_sensitivity", self.leak_v_sensitivity),
            ("busy_activity", self.busy_activity),
            ("idle_activity", self.idle_activity),
            ("halt_activity", self.halt_activity),
            ("uncore_w", self.uncore_w),
        ]
    }

    /// Dynamic power of one core at `level` with the given activity, in watts.
    pub fn dynamic_w(&self, level: PowerLevel, activity: Activity) -> f64 {
        let alpha = match activity {
            Activity::Busy => self.busy_activity,
            Activity::Idle => self.idle_activity,
            Activity::Halted => self.halt_activity,
        };
        let v = level.voltage_v();
        let f_ghz = level.frequency.as_mhz() as f64 / 1000.0;
        alpha * self.c_eff_nf * v * v * f_ghz
    }

    /// Static (leakage) power of one core at `level`, in watts.
    ///
    /// Leakage does not depend on activity: C1 gates the clock, not the
    /// power rails (per-core power gating is out of the paper's scope).
    pub fn static_w(&self, level: PowerLevel) -> f64 {
        let v = level.voltage_v();
        let i = self.i_leak_a * (1.0 + self.leak_v_sensitivity * (v - 1.0));
        (v * i).max(0.0)
    }

    /// Total power of one core at `level`/`activity`, in watts.
    pub fn core_w(&self, level: PowerLevel, activity: Activity) -> f64 {
        self.dynamic_w(level, activity) + self.static_w(level)
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        Self::mcpat_22nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> PowerParams {
        PowerParams::mcpat_22nm()
    }

    #[test]
    fn fast_busy_core_is_two_watts_dynamic() {
        let w = p().dynamic_w(PowerLevel::paper_fast(), Activity::Busy);
        assert!((w - 2.0).abs() < 1e-12, "got {w}");
    }

    #[test]
    fn slow_level_cuts_dynamic_power_superlinearly() {
        // P ∝ V²·f: (0.8/1.0)² × (1/2) = 0.32× — the DVFS energy win.
        let fast = p().dynamic_w(PowerLevel::paper_fast(), Activity::Busy);
        let slow = p().dynamic_w(PowerLevel::paper_slow(), Activity::Busy);
        assert!((slow / fast - 0.32).abs() < 1e-12);
    }

    #[test]
    fn activity_ordering() {
        let lvl = PowerLevel::paper_fast();
        let busy = p().dynamic_w(lvl, Activity::Busy);
        let idle = p().dynamic_w(lvl, Activity::Idle);
        let halt = p().dynamic_w(lvl, Activity::Halted);
        assert!(busy > idle && idle > halt && halt > 0.0);
    }

    #[test]
    fn leakage_drops_with_voltage() {
        let fast = p().static_w(PowerLevel::paper_fast());
        let slow = p().static_w(PowerLevel::paper_slow());
        assert!(slow < fast);
        assert!(slow > 0.0);
        // At 1.0 V the model gives exactly v · i_leak.
        assert!((fast - 0.35).abs() < 1e-12);
    }

    #[test]
    fn leakage_is_activity_independent() {
        let lvl = PowerLevel::paper_slow();
        let a = p().core_w(lvl, Activity::Busy) - p().dynamic_w(lvl, Activity::Busy);
        let b = p().core_w(lvl, Activity::Halted) - p().dynamic_w(lvl, Activity::Halted);
        assert!((a - b).abs() < 1e-15);
    }
}
