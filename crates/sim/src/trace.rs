//! Structured simulation traces.
//!
//! Traces are the simulator's equivalent of the paper's Paraver timelines:
//! an ordered record of scheduling and reconfiguration events used by tests
//! (to assert causality and budget invariants at every instant) and by the
//! examples (to visualize schedules). Collection is governed by
//! [`TraceMode`]:
//!
//! - [`Off`](TraceMode::Off) (the default, and what `Suite` runs use):
//!   every record is dropped; the hot path costs one branch and never
//!   allocates.
//! - [`Counters`](TraceMode::Counters): events are tallied per kind
//!   ([`TraceCounts`]) without storing records — constant memory, enough
//!   for sanity dashboards over million-run sweeps.
//! - [`Full`](TraceMode::Full): records are kept in a bounded ring buffer
//!   (default [`Trace::DEFAULT_RING_CAPACITY`]); once full, the oldest
//!   half is discarded and counted in [`Trace::dropped`], so a runaway
//!   workload bounds memory instead of exhausting it.

use crate::machine::{CoreId, PowerLevel};
use crate::time::SimTime;
use serde::{DeError, Deserialize, Deserializer, Kind, Serialize, Serializer};

/// One traced simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A task started executing on a core. The `bool` is its criticality.
    TaskStart {
        /// Executing core.
        core: CoreId,
        /// Task identifier (runtime-assigned).
        task: u32,
        /// Whether the runtime considers the task critical.
        critical: bool,
    },
    /// A task finished.
    TaskEnd {
        /// Executing core.
        core: CoreId,
        /// Task identifier.
        task: u32,
    },
    /// A DVFS transition settled and the new level took effect.
    ReconfigApplied {
        /// Target core.
        core: CoreId,
        /// Applied level.
        level: PowerLevel,
    },
    /// A core entered the halted (C1) state.
    Halt {
        /// Halting core.
        core: CoreId,
    },
    /// A core left the halted state.
    Wake {
        /// Waking core.
        core: CoreId,
    },
}

/// A time-stamped trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// When the event occurred.
    pub time: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

/// How much of the event stream a run collects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Drop everything (the default; zero steady-state cost).
    #[default]
    Off,
    /// Tally events per kind without storing records.
    Counters,
    /// Keep records in a bounded ring buffer.
    Full,
}

impl TraceMode {
    /// True when no per-event work happens at all.
    pub fn is_off(self) -> bool {
        self == TraceMode::Off
    }

    /// Lowercase label for reports/serialization.
    pub fn name(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Counters => "counters",
            TraceMode::Full => "full",
        }
    }
}

// Serde is hand-written: the strings are `name()`'s, and legacy bools read.
impl Serialize for TraceMode {
    fn serialize(&self, s: &mut dyn Serializer) {
        s.str(self.name());
    }
}

impl Deserialize for TraceMode {
    fn deserialize(d: &mut dyn Deserializer) -> Result<Self, DeError> {
        match d.kind()? {
            // Back-compat: specs used to carry `trace: bool`, and an
            // omitted field (Null) means the default.
            Kind::Null => d.null().map(|()| TraceMode::Off),
            Kind::Bool => Ok(match d.bool()? {
                true => TraceMode::Full,
                false => TraceMode::Off,
            }),
            Kind::Str => match d.str()? {
                "off" | "Off" => Ok(TraceMode::Off),
                "counters" | "Counters" => Ok(TraceMode::Counters),
                "full" | "Full" => Ok(TraceMode::Full),
                other => Err(DeError::new(format!("unknown trace mode `{other}`"))),
            },
            other => Err(DeError::new(format!(
                "trace mode: expected a string or bool, found {}",
                other.name()
            ))),
        }
    }
}

/// Per-kind event tallies, maintained in `Counters` and `Full` modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCounts {
    /// Task body starts.
    pub task_starts: u64,
    /// Task completions.
    pub task_ends: u64,
    /// DVFS transitions requested. No event kind feeds it, so the engine
    /// leaves it at 0; the field stays because stored reports carry it.
    pub reconfig_requests: u64,
    /// DVFS transitions settled.
    pub reconfigs_applied: u64,
    /// C1 entries.
    pub halts: u64,
    /// C1 exits.
    pub wakes: u64,
}

impl TraceCounts {
    fn bump(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::TaskStart { .. } => self.task_starts += 1,
            TraceEvent::TaskEnd { .. } => self.task_ends += 1,
            TraceEvent::ReconfigApplied { .. } => self.reconfigs_applied += 1,
            TraceEvent::Halt { .. } => self.halts += 1,
            TraceEvent::Wake { .. } => self.wakes += 1,
        }
    }

    /// Sum over all kinds.
    pub fn total(&self) -> u64 {
        self.task_starts
            + self.task_ends
            + self.reconfig_requests
            + self.reconfigs_applied
            + self.halts
            + self.wakes
    }
}

/// An event trace. Construct with [`Trace::with_mode`] (or the
/// [`enabled`](Trace::enabled)/[`disabled`](Trace::disabled) shorthands);
/// an `Off` trace drops all records.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    counts: TraceCounts,
    mode: TraceMode,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Ring-buffer bound of `Full` traces: enough for every test and
    /// example while capping memory at tens of MB for runaway workloads.
    pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

    /// A trace collecting in the given mode.
    pub fn with_mode(mode: TraceMode) -> Self {
        Trace {
            records: Vec::new(),
            counts: TraceCounts::default(),
            mode,
            capacity: Trace::DEFAULT_RING_CAPACITY,
            dropped: 0,
        }
    }

    /// A `Full` trace with a custom ring-buffer capacity (≥ 2).
    pub fn with_ring_capacity(capacity: usize) -> Self {
        let mut t = Trace::with_mode(TraceMode::Full);
        t.capacity = capacity.max(2);
        t
    }

    /// A trace that records events (`Full` mode).
    pub fn enabled() -> Self {
        Trace::with_mode(TraceMode::Full)
    }

    /// A trace that drops events (zero cost).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Whether any per-event collection is active.
    pub fn is_enabled(&self) -> bool {
        !self.mode.is_off()
    }

    /// The collection mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Records `event` at `time` according to the mode. Only the mode
    /// check inlines into the engine; collection stays out of line.
    #[inline]
    pub fn record(&mut self, time: SimTime, event: TraceEvent) {
        if self.mode != TraceMode::Off {
            self.collect(time, event);
        }
    }

    /// The `Counters` and `Full` body of [`record`](Self::record).
    fn collect(&mut self, time: SimTime, event: TraceEvent) {
        self.counts.bump(&event);
        if self.mode == TraceMode::Full {
            if self.records.len() >= self.capacity {
                // Ring behaviour: discard the oldest half in one move
                // (amortized O(1) per record) and keep counting.
                let drop = self.capacity / 2;
                self.records.drain(..drop);
                self.dropped += drop as u64;
            }
            self.records.push(TraceRecord { time, event });
        }
    }

    /// Per-kind tallies (`Counters` and `Full` modes; zeros when off).
    pub fn counts(&self) -> &TraceCounts {
        &self.counts
    }

    /// Records discarded by the ring bound (0 unless a `Full` trace
    /// overflowed its capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All retained entries, in emission order (non-decreasing time). When
    /// the ring bound was hit this is the most recent window; check
    /// [`dropped`](Self::dropped).
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, TraceEvent::Halt { core: CoreId(0) });
        assert!(t.records().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_preserves_order() {
        let mut t = Trace::enabled();
        t.record(
            SimTime::from_us(1),
            TraceEvent::TaskStart {
                core: CoreId(0),
                task: 7,
                critical: true,
            },
        );
        t.record(
            SimTime::from_us(2),
            TraceEvent::TaskEnd {
                core: CoreId(0),
                task: 7,
            },
        );
        assert_eq!(t.records().len(), 2);
        assert!(t.records()[0].time < t.records()[1].time);
    }

    #[test]
    fn counters_mode_tallies_without_storing() {
        let mut t = Trace::with_mode(TraceMode::Counters);
        t.record(SimTime::ZERO, TraceEvent::Halt { core: CoreId(0) });
        t.record(SimTime::from_us(1), TraceEvent::Wake { core: CoreId(0) });
        t.record(
            SimTime::from_us(2),
            TraceEvent::TaskStart {
                core: CoreId(0),
                task: 1,
                critical: false,
            },
        );
        assert!(t.records().is_empty(), "counters mode must not store");
        assert_eq!(t.counts().halts, 1);
        assert_eq!(t.counts().wakes, 1);
        assert_eq!(t.counts().task_starts, 1);
        assert_eq!(t.counts().total(), 3);
        assert!(t.is_enabled());
    }

    #[test]
    fn full_ring_discards_oldest_half() {
        let mut t = Trace::with_ring_capacity(4);
        for i in 0..6u32 {
            t.record(
                SimTime::from_ns(i as u64),
                TraceEvent::Halt { core: CoreId(i) },
            );
        }
        // Capacity 4: the 5th record triggers a half-drain (2 dropped).
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.counts().halts, 6, "counts see every event");
        let cores: Vec<u32> = t
            .records()
            .iter()
            .map(|r| match r.event {
                TraceEvent::Halt { core } => core.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(cores, vec![2, 3, 4, 5], "most recent window retained");
    }

    #[test]
    fn trace_mode_serde_accepts_legacy_bools() {
        use serde::{Deserialize as _, Serialize as _, Value};
        assert_eq!(
            TraceMode::Counters.to_value(),
            Value::Str("counters".into())
        );
        for (v, want) in [
            (Value::Null, TraceMode::Off),
            (Value::Bool(false), TraceMode::Off),
            (Value::Bool(true), TraceMode::Full),
            (Value::Str("full".into()), TraceMode::Full),
            (Value::Str("counters".into()), TraceMode::Counters),
            (Value::Str("off".into()), TraceMode::Off),
        ] {
            assert_eq!(TraceMode::from_value(&v).unwrap(), want);
        }
        assert!(TraceMode::from_value(&Value::Str("paraver".into())).is_err());
    }
}
