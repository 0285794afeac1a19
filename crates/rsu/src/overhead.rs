//! RSU area and power overhead (§III-B-4; CACTI stand-in).
//!
//! The paper's accounting:
//!
//! > The RSU requires a storage of 3 bits per core for the criticality and
//! > status fields, and log₂ num_cores bits for the power budget. In
//! > addition, two registers are required to configure the critical and
//! > non-critical power states \[...\] log₂ num_power_states bits \[each\].
//! > This results in a total storage cost of
//! > 3 × num_cores + log₂ num_cores + 2 × log₂ num_power_states bits.
//!
//! evaluated with CACTI to "less than 0.0001 % \[area\] in a 32-core
//! processor" and "less than 50 µW". We reproduce the formula exactly and
//! replace CACTI with a flip-flop-based area/leakage model at 22 nm; the
//! conclusions (sub-0.0001 % area, sub-50 µW power) hold with wide margin.

use serde::{Deserialize, Serialize};

/// Ceiling log2 (bits needed to encode `n` distinct values), with
/// `ceil_log2(0|1) = 0`.
pub fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// The RSU storage/area/power overhead report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RsuOverhead {
    /// Cores tracked.
    pub num_cores: usize,
    /// DVFS power states available.
    pub num_power_states: usize,
    /// Total storage in bits (the paper's formula).
    pub storage_bits: u64,
    /// Estimated RSU area in mm².
    pub area_mm2: f64,
    /// RSU area as a fraction of the chip.
    pub area_fraction: f64,
    /// Estimated RSU power in microwatts.
    pub power_uw: f64,
}

/// Technology constants for the area/power estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TechParams {
    /// Area of one storage bit implemented as a standard-cell flip-flop with
    /// muxing, in µm² (22 nm: ≈ 2 µm², deliberately pessimistic vs. SRAM).
    pub um2_per_bit: f64,
    /// Leakage per bit in nanowatts (22 nm standard cell: ≈ 5 nW).
    pub leak_nw_per_bit: f64,
    /// Dynamic energy per RSU operation in picojoules (table scan + update).
    pub pj_per_op: f64,
    /// RSU operations per second under full load (2 per task; paper-scale
    /// fine-grained tasking ≈ 1 M tasks/s across the chip).
    pub ops_per_sec: f64,
    /// Die area of the host chip in mm² (32-core at 22 nm ≈ 400 mm²).
    pub die_mm2: f64,
}

impl TechParams {
    /// 22 nm constants matching the paper's McPAT/CACTI setting.
    pub fn nm22() -> Self {
        TechParams {
            um2_per_bit: 2.0,
            leak_nw_per_bit: 5.0,
            pj_per_op: 1.0,
            ops_per_sec: 2_000_000.0,
            die_mm2: 400.0,
        }
    }
}

/// The paper's storage formula:
/// `3·num_cores + ceil_log2(num_cores) + 2·ceil_log2(num_power_states)`.
pub fn storage_bits(num_cores: usize, num_power_states: usize) -> u64 {
    3 * num_cores as u64 + ceil_log2(num_cores) as u64 + 2 * ceil_log2(num_power_states) as u64
}

/// Computes the full overhead report.
pub fn estimate(num_cores: usize, num_power_states: usize, tech: &TechParams) -> RsuOverhead {
    let bits = storage_bits(num_cores, num_power_states);
    let area_um2 = bits as f64 * tech.um2_per_bit;
    let area_mm2 = area_um2 * 1e-6;
    let leak_uw = bits as f64 * tech.leak_nw_per_bit / 1000.0;
    let dyn_uw = tech.pj_per_op * tech.ops_per_sec / 1e6; // pJ/op · op/s = µW·(1e-6)
    RsuOverhead {
        num_cores,
        num_power_states,
        storage_bits: bits,
        area_mm2,
        area_fraction: area_mm2 / tech.die_mm2,
        power_uw: leak_uw + dyn_uw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(32), 5);
        assert_eq!(ceil_log2(33), 6);
    }

    #[test]
    fn paper_storage_formula_32_cores_2_states() {
        // 3×32 + log2(32) + 2×log2(2) = 96 + 5 + 2 = 103 bits.
        assert_eq!(storage_bits(32, 2), 103);
    }

    #[test]
    fn paper_claims_hold_with_margin() {
        let o = estimate(32, 2, &TechParams::nm22());
        assert_eq!(o.storage_bits, 103);
        // < 0.0001 % of the die.
        assert!(
            o.area_fraction < 0.000_001,
            "area fraction {} not negligible",
            o.area_fraction
        );
        // < 50 µW.
        assert!(o.power_uw < 50.0, "power {} µW too high", o.power_uw);
        assert!(o.power_uw > 0.0);
    }

    #[test]
    fn storage_scales_linearly_with_cores() {
        let small = storage_bits(32, 2);
        let big = storage_bits(1024, 2);
        assert_eq!(big, 3 * 1024 + 10 + 2);
        assert!(big > small);
        // Even a 1024-core RSU stays tiny.
        let o = estimate(1024, 2, &TechParams::nm22());
        assert!(o.area_fraction < 0.0001);
    }

    #[test]
    fn more_power_states_cost_two_registers_worth() {
        // 4 states: 2 bits per register → +2 bits over the 2-state unit.
        assert_eq!(storage_bits(32, 4) - storage_bits(32, 2), 2);
    }
}
