//! Cost-model calibration: fitting generator cost weights to measured
//! wall-clock time.
//!
//! [`WorkloadSpec::try_cost_estimate`] drives cost-aware snake sharding.
//! `Inline`/`File` workloads carry their profiles, so their estimates are
//! exact; generator estimates (`Parsec`, `Chain`, …) are shape guesses
//! whose *relative* weights were picked by eye. Every completed sweep,
//! however, records the ground truth: a [`CellRecord`] carries `wall_s`
//! and the spec digest of the cell that produced it. [`CostCalibration`]
//! closes the loop — it pairs stored records back to their specs by
//! digest, measures each generator family's wall-seconds-per-estimated-
//! cycle rate, and turns the rates into fixed-point multipliers that
//! [`CostCalibration::calibrated_cost`] applies on top of the built-in
//! estimate.
//!
//! Determinism is the design constraint, not a nicety: snake sharding
//! requires every shard process of one grid to rank cells identically, so
//! the fit must produce bit-identical multipliers on every host given the
//! same records. Hence:
//!
//! - per-family rates are the *lower median* of per-record rates sorted by
//!   [`f64::total_cmp`] — no accumulation-order dependence, robust to the
//!   odd preempted cell;
//! - multipliers are integer fixed-point ([`SCALE_ONE`] = 1.0×), rounded
//!   once at fit time, so application is pure `u64`/`u128` arithmetic;
//! - the anchor is the global median rate over *all* usable records, so
//!   exact (`Inline`/`File`) estimates — which are not rescaled — stay
//!   comparable to calibrated generator estimates, and a family with no
//!   observations keeps the identity multiplier.
//!
//! Shards must therefore fit from the same store contents (or ship one
//! serialized `CostCalibration`); fitting from *different* stores on
//! different hosts is exactly the cross-process divergence snake sharding
//! forbids.

use super::error::ExpError;
use super::spec::{ScenarioSpec, WorkloadSpec};
use super::store::{spec_digest, CellRecord};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Fixed-point one: a multiplier of `SCALE_ONE` leaves the built-in
/// estimate unchanged.
pub const SCALE_ONE: u64 = 1024;

/// The generator family a workload's cost estimate belongs to, or `None`
/// for `Inline`/`File` workloads whose estimates are exact (summed task
/// profiles) and must not be rescaled.
fn family(w: &WorkloadSpec) -> Option<&'static str> {
    match w {
        WorkloadSpec::Parsec { .. } => Some("parsec"),
        WorkloadSpec::Chain { .. } => Some("chain"),
        WorkloadSpec::ForkJoin { .. } => Some("forkjoin"),
        WorkloadSpec::SkewedDiamond { .. } => Some("diamond"),
        WorkloadSpec::RandomDag { .. } => Some("randdag"),
        WorkloadSpec::Inline(_) | WorkloadSpec::File { .. } => None,
    }
}

/// Lower median of an unsorted sample (deterministic for any input
/// order; ties in `total_cmp` are still a total order).
fn lower_median(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    Some(xs[(xs.len() - 1) / 2])
}

/// Per-family fixed-point multipliers fitted from recorded wall times.
///
/// Serializable so a sweep driver can fit once and ship the same
/// calibration to every shard host. See the module docs for the fit and
/// the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CostCalibration {
    /// Family name → multiplier in units of `1/SCALE_ONE`. Families
    /// absent from the map apply the identity multiplier.
    pub scale: BTreeMap<String, u64>,
    /// Records that contributed a rate observation (diagnostics only).
    pub observations: u64,
}

impl CostCalibration {
    /// The identity calibration: every estimate passes through unchanged.
    pub fn identity() -> Self {
        CostCalibration::default()
    }

    /// Fits multipliers from completed-cell records, pairing each record
    /// to its spec by digest. `specs` is the caller's grid (order and
    /// duplicates don't matter); records with no matching spec, a zero or
    /// unreadable estimate, or a non-finite/non-positive `wall_s` are
    /// skipped — calibration is best-effort over whatever evidence exists,
    /// and no evidence at all yields the identity calibration.
    pub fn fit(records: &[CellRecord], specs: &[ScenarioSpec]) -> Self {
        let by_digest: HashMap<String, &ScenarioSpec> =
            specs.iter().map(|s| (spec_digest(s), s)).collect();
        // Per-record rate: wall seconds per estimated cycle. Grouped per
        // family, plus the pooled sample that anchors the unit.
        let mut per_family: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut pooled: Vec<f64> = Vec::new();
        let mut observations = 0u64;
        for rec in records {
            let Some(spec) = by_digest.get(&rec.spec_digest) else {
                continue;
            };
            let Ok(est) = spec.workload.try_cost_estimate() else {
                continue;
            };
            if est == 0 || !rec.wall_s.is_finite() || rec.wall_s <= 0.0 {
                continue;
            }
            let rate = rec.wall_s / est as f64;
            observations += 1;
            pooled.push(rate);
            if let Some(f) = family(&spec.workload) {
                per_family.entry(f).or_default().push(rate);
            }
        }
        let Some(anchor) = lower_median(pooled).filter(|a| *a > 0.0) else {
            return CostCalibration::identity();
        };
        let mut scale = BTreeMap::new();
        for (f, rates) in per_family {
            let m = lower_median(rates).expect("non-empty by construction") / anchor;
            // Clamp to at least 1/SCALE_ONE so a calibrated family can
            // never rank every one of its cells at zero cost.
            scale.insert(
                f.to_string(),
                ((m * SCALE_ONE as f64).round() as u64).max(1),
            );
        }
        CostCalibration {
            scale,
            observations,
        }
    }

    /// The built-in estimate with this calibration applied: generator
    /// estimates are rescaled by their family multiplier; `Inline`/`File`
    /// estimates are exact and pass through. Fails exactly where
    /// [`WorkloadSpec::try_cost_estimate`] fails (unreadable `File`).
    pub fn calibrated_cost(&self, w: &WorkloadSpec) -> Result<u64, ExpError> {
        let base = w.try_cost_estimate()?;
        let Some(f) = family(w) else {
            return Ok(base);
        };
        let m = self.scale.get(f).copied().unwrap_or(SCALE_ONE);
        let scaled = (base as u128 * m as u128) / SCALE_ONE as u128;
        Ok(u64::try_from(scaled).unwrap_or(u64::MAX))
    }

    /// Whether the fit found any usable evidence.
    pub fn is_identity(&self) -> bool {
        self.scale.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::store::{CellRecord, STORE_SCHEMA};
    use crate::report::RunReport;
    use cata_power::EnergyReport;
    use cata_sim::stats::{Counters, LatencyHistogram};
    use cata_sim::time::SimDuration;

    fn record(spec: &ScenarioSpec, wall_s: f64) -> CellRecord {
        // A minimal report: calibration only reads `wall_s`/`spec_digest`.
        let report = RunReport {
            label: spec.name.clone(),
            workload: "w".into(),
            fast_cores: spec.fast_cores,
            exec_time: SimDuration::from_us(1),
            energy: EnergyReport::from_parts(1e-6, Default::default()),
            counters: Counters::default(),
            lock_waits: LatencyHistogram::new(),
            reconfig_latencies: LatencyHistogram::new(),
            reconfig_overhead: SimDuration::ZERO,
            reconfig_time_share: 0.0,
            core_utilization: vec![],
            tasks: 0,
            trace_counts: None,
            effective_cores: None,
            service: None,
            fault: None,
            memory: None,
        };
        CellRecord {
            schema: STORE_SCHEMA.to_string(),
            index: 0,
            cell: "test".into(),
            grid: "g".into(),
            spec_digest: spec_digest(spec),
            seed: spec.seed,
            wall_s,
            report,
            host: None,
            started_unix_ms: None,
            finished_unix_ms: None,
            spec: None,
        }
    }

    fn chain_spec(n: usize, cycles: u64) -> ScenarioSpec {
        ScenarioSpec::new("cal", WorkloadSpec::Chain { n, cycles })
    }

    fn forkjoin_spec(waves: usize, cycles: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            "cal",
            WorkloadSpec::ForkJoin {
                waves,
                width: 4,
                cycles,
            },
        )
    }

    #[test]
    fn no_evidence_is_identity() {
        let cal = CostCalibration::fit(&[], &[]);
        assert!(cal.is_identity());
        let w = WorkloadSpec::Chain { n: 10, cycles: 7 };
        assert_eq!(cal.calibrated_cost(&w).unwrap(), w.cost_estimate());
    }

    #[test]
    fn fit_rescales_a_slow_family() {
        // Two families with identical built-in estimates (1000 cycles),
        // but forkjoin cells measure 4x the wall time of chain cells:
        // the fit must rank forkjoin 4x heavier.
        let chain = chain_spec(10, 100); // estimate 1000
        let fj = forkjoin_spec(10, 25); // 10*4*25 = 1000
        let records = vec![
            record(&chain, 1.0),
            record(&chain, 1.0),
            record(&fj, 4.0),
            record(&fj, 4.0),
        ];
        let specs = vec![chain.clone(), fj.clone()];
        let cal = CostCalibration::fit(&records, &specs);
        assert_eq!(cal.observations, 4);
        // Anchor = pooled lower median (1.0/1000); chain at 1.0x, fj 4x.
        assert_eq!(cal.scale["chain"], SCALE_ONE);
        assert_eq!(cal.scale["forkjoin"], 4 * SCALE_ONE);
        let c = cal.calibrated_cost(&chain.workload).unwrap();
        let f = cal.calibrated_cost(&fj.workload).unwrap();
        assert_eq!(c, 1000);
        assert_eq!(f, 4000);
    }

    #[test]
    fn fit_is_order_independent_and_skips_junk() {
        let chain = chain_spec(10, 100);
        let fj = forkjoin_spec(10, 25);
        let mut records = vec![
            record(&chain, 2.0),
            record(&fj, 1.0),
            record(&chain, 1.0),
            record(&fj, 3.0),
            record(&chain, 3.0),
        ];
        // Junk that must not perturb the fit: unmatched digest, broken
        // wall clocks.
        let mut stray = record(&chain, 1.0);
        stray.spec_digest = "cafebabe".into();
        records.push(stray);
        records.push(record(&fj, f64::NAN));
        records.push(record(&chain, 0.0));
        records.push(record(&chain, -1.0));

        let specs = vec![chain.clone(), fj.clone()];
        let forward = CostCalibration::fit(&records, &specs);
        records.reverse();
        let backward = CostCalibration::fit(&records, &specs);
        assert_eq!(forward, backward);
        assert_eq!(forward.observations, 5);
    }

    #[test]
    fn exact_workloads_pass_through() {
        let chain = chain_spec(10, 100);
        let cal = CostCalibration::fit(&[record(&chain, 5.0)], std::slice::from_ref(&chain));
        let tdg = cata_workloads::micro::chain(3, 500);
        let inline = WorkloadSpec::Inline(cata_tdg::TdgHandle::new(cata_tdg::TdgFile::from_graph(
            "cal-inline",
            &tdg,
        )));
        assert_eq!(
            cal.calibrated_cost(&inline).unwrap(),
            inline.try_cost_estimate().unwrap(),
            "exact inline estimates must not be rescaled"
        );
    }
}
