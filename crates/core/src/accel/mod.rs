//! Acceleration managers: who reconfigures the cores, and at what cost.
//!
//! All four variants of the paper's comparison share the [`AccelManager`]
//! interface; the executor invokes it at the four events that can trigger a
//! reconfiguration — task start, task end, core halt (C1 entry) and core
//! wake. Each call may charge runtime overhead on the acting core (the
//! returned `resume_at`) and may begin DVFS transitions on any core (the
//! returned settle times, which the executor turns into events).
//!
//! | Manager | Decision | Cost model |
//! |---|---|---|
//! | [`StaticAccel`] | never reconfigures | zero |
//! | [`SoftwareCata`] | CATA algorithm | RSM lock + cpufreq syscalls, serialized ([`cata_cpufreq::SoftwareDvfsPath`]) |
//! | [`RsuCata`] | CATA algorithm | one `rsu_*` instruction (tens of cycles), no locks |
//! | [`TurboModeCtl`] | halt/wake reallocation \[18\] | hardware microcontroller, free |

use cata_sim::machine::{CoreId, Machine};
use cata_sim::stats::{Counters, LatencyHistogram};
use cata_sim::time::{SimDuration, SimTime};

mod rsu;
mod software;
mod statics;
mod turbo;

pub use rsu::RsuCata;
pub use software::SoftwareCata;
pub use statics::StaticAccel;
pub use turbo::TurboModeCtl;

/// Settle times of the DVFS transitions one decision started, as
/// `(settle_time, core)` entries in insertion order.
///
/// Almost every decision starts at most two transitions (an acceleration
/// plus the matching deceleration of a CATA swap), so the first two
/// entries live inline and the common path never touches the heap. Wider
/// bursts (e.g. TurboMode's boot-time acceleration of every initially
/// active core) spill into a `Vec` transparently.
#[derive(Debug, Clone)]
pub struct SettleList {
    inline: [(SimTime, CoreId); Self::INLINE],
    /// Entries stored inline (≤ `INLINE`); the rest are in `spill`.
    inline_len: u8,
    spill: Vec<(SimTime, CoreId)>,
}

impl SettleList {
    /// Entries held without allocating.
    pub const INLINE: usize = 2;

    /// An empty list (no allocation).
    pub fn new() -> Self {
        SettleList {
            inline: [(SimTime::ZERO, CoreId(0)); Self::INLINE],
            inline_len: 0,
            spill: Vec::new(),
        }
    }

    /// Appends one settle entry, spilling to the heap only past
    /// [`INLINE`](Self::INLINE) entries.
    pub fn push(&mut self, entry: (SimTime, CoreId)) {
        let n = self.inline_len as usize;
        if n < Self::INLINE {
            self.inline[n] = entry;
            self.inline_len += 1;
        } else {
            self.spill.push(entry);
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inline_len as usize + self.spill.len()
    }

    /// True when no transitions were started.
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0
    }

    /// Entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, CoreId)> {
        self.inline[..self.inline_len as usize]
            .iter()
            .chain(self.spill.iter())
    }
}

impl Default for SettleList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Index<usize> for SettleList {
    type Output = (SimTime, CoreId);

    fn index(&self, i: usize) -> &Self::Output {
        let n = self.inline_len as usize;
        if i < n {
            &self.inline[i]
        } else {
            &self.spill[i - n]
        }
    }
}

impl<'a> IntoIterator for &'a SettleList {
    type Item = &'a (SimTime, CoreId);
    type IntoIter = std::iter::Chain<
        std::slice::Iter<'a, (SimTime, CoreId)>,
        std::slice::Iter<'a, (SimTime, CoreId)>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline[..self.inline_len as usize]
            .iter()
            .chain(self.spill.iter())
    }
}

/// What an acceleration event produced.
#[derive(Debug, Clone, Default)]
pub struct AccelEffects {
    /// When the acting core regains control (≥ the event time). The interval
    /// in between is runtime overhead charged on that core.
    pub resume_at: Option<SimTime>,
    /// Completion times of the DVFS transitions this decision started —
    /// the executor schedules a settle event for each.
    pub settles: SettleList,
}

impl AccelEffects {
    /// An effect-free outcome (no overhead, no transitions).
    pub fn none() -> Self {
        Self::default()
    }

    /// The acting core's resume time, defaulting to the event time.
    pub fn resume_or(&self, now: SimTime) -> SimTime {
        self.resume_at.unwrap_or(now)
    }
}

/// Statistics a manager exposes for the §V-C analysis.
#[derive(Debug, Clone, Default)]
pub struct ReconfigStats {
    /// Lock-wait distribution (software path only).
    pub lock_waits: LatencyHistogram,
    /// End-to-end reconfiguration latency distribution.
    pub latencies: LatencyHistogram,
    /// Total runtime overhead charged on cores by the manager.
    pub overhead_total: SimDuration,
}

/// A hardware/runtime reconfiguration policy. Its registry key names it.
pub trait AccelManager: Send {
    /// Called once before the simulation starts (e.g. TurboMode accelerates
    /// the initially active cores).
    fn on_init(&mut self, _machine: &mut Machine, _now: SimTime) -> AccelEffects {
        AccelEffects::none()
    }

    /// A task of the given criticality is about to start on `core`. The task
    /// body begins at the returned `resume_at`.
    fn on_task_start(
        &mut self,
        core: CoreId,
        critical: bool,
        now: SimTime,
        machine: &mut Machine,
        counters: &mut Counters,
    ) -> AccelEffects;

    /// The task on `core` finished; the core requests its next task at the
    /// returned `resume_at`.
    fn on_task_end(
        &mut self,
        core: CoreId,
        now: SimTime,
        machine: &mut Machine,
        counters: &mut Counters,
    ) -> AccelEffects;

    /// `core` found no ready task and entered the runtime idle loop. CATA
    /// decelerates accelerated idle cores here (§V-B), releasing budget.
    fn on_core_idle(
        &mut self,
        _core: CoreId,
        _now: SimTime,
        _machine: &mut Machine,
        _counters: &mut Counters,
    ) -> AccelEffects {
        AccelEffects::none()
    }

    /// `core` entered the halted (C1) state — a blocked task or a halted
    /// idle loop. CATA variants deliberately ignore this (§V-D).
    fn on_core_halt(
        &mut self,
        _core: CoreId,
        _now: SimTime,
        _machine: &mut Machine,
        _counters: &mut Counters,
    ) -> AccelEffects {
        AccelEffects::none()
    }

    /// `core` left the halted state.
    fn on_core_wake(
        &mut self,
        _core: CoreId,
        _now: SimTime,
        _machine: &mut Machine,
        _counters: &mut Counters,
    ) -> AccelEffects {
        AccelEffects::none()
    }

    /// §V-C statistics collected so far.
    fn stats(&self) -> ReconfigStats {
        ReconfigStats::default()
    }
}

/// Applies a transition on `machine` and records it into `effects`/`counters`.
pub(crate) fn apply_transition(
    machine: &mut Machine,
    core: CoreId,
    target: cata_sim::machine::PowerLevel,
    at: SimTime,
    effects: &mut AccelEffects,
    counters: &mut Counters,
) {
    counters.reconfigs_requested += 1;
    match machine.begin_transition(core, target, at) {
        Some(settle) => {
            counters.reconfigs_applied += 1;
            effects.settles.push((settle, core));
        }
        None => counters.reconfigs_noop += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(us: u64, core: u32) -> (SimTime, CoreId) {
        (SimTime::from_us(us), CoreId(core))
    }

    /// The inline-2 + spill contract at every boundary: 0, 1, 2 (inline
    /// full) and 3 (first spilled) entries, with insertion order preserved
    /// across the boundary for iteration and indexing alike.
    #[test]
    fn settle_list_inlines_two_and_spills_beyond() {
        // 0 settles: empty, nothing iterated.
        let list = SettleList::new();
        assert!(list.is_empty());
        assert_eq!(list.len(), 0);
        assert_eq!(list.iter().count(), 0);

        // 1 and 2 settles stay inline.
        for n in 1..=2usize {
            let mut list = SettleList::new();
            for i in 0..n {
                list.push(entry(i as u64 + 1, i as u32));
            }
            assert!(!list.is_empty());
            assert_eq!(list.len(), n);
            let got: Vec<_> = list.iter().copied().collect();
            let want: Vec<_> = (0..n).map(|i| entry(i as u64 + 1, i as u32)).collect();
            assert_eq!(got, want, "{n}-settle order");
        }

        // 3 settles: the third spills; order and indexing stay seamless.
        let mut list = SettleList::new();
        for i in 0..3 {
            list.push(entry(10 + i, i as u32));
        }
        assert_eq!(list.len(), 3);
        for i in 0..3usize {
            assert_eq!(list[i], entry(10 + i as u64, i as u32), "index {i}");
        }
        let via_ref: Vec<_> = (&list).into_iter().copied().collect();
        assert_eq!(via_ref, vec![entry(10, 0), entry(11, 1), entry(12, 2)]);
    }

    #[test]
    fn effects_default_is_effect_free() {
        let e = AccelEffects::default();
        assert!(e.resume_at.is_none());
        assert!(e.settles.is_empty());
        let now = SimTime::from_us(7);
        assert_eq!(e.resume_or(now), now);
    }
}
