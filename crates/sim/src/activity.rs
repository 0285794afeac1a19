//! Per-core activity timelines.
//!
//! Every core records a sequence of homogeneous segments — (duration, power
//! level, activity) — that the `cata-power` crate integrates into energy.
//! Segments are appended whenever the core's activity or settled power level
//! changes, so the timeline is an exact piece-wise-constant description of
//! the core's power-relevant state over the whole simulation.
//!
//! A timeline grows by one segment per recorded change, for the whole run:
//! the energy integral sums segment by segment, core by core, in recorded
//! order, and the reported energy bits depend on that order. So each
//! segment is stored in 5 bytes — a `u32` picosecond duration and one
//! state byte (an index into a small per-timeline table of visited
//! [`PowerLevel`]s, plus the [`Activity`]) — rather than as a 32-byte
//! [`Segment`]. The two columns live in fixed blocks of 512 segments,
//! each allocated when the previous one fills and never moved, so a long
//! run holds no doubling slack and copies nothing as it grows. A segment
//! of `u32::MAX` ps (about 4.29 ms) or more is rare (a core idle or
//! halted that long); its column entry is `u32::MAX`, and its duration
//! goes to a side list read back in order. Segment start times are
//! implied by the running sum of durations, and per-activity totals are
//! kept as they grow, so [`ActivityTimeline::total`] and
//! [`ActivityTimeline::utilization`] are O(1).

use crate::machine::PowerLevel;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What a core is doing, from the power model's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activity {
    /// Executing task (or runtime) instructions: full dynamic power.
    Busy,
    /// Spinning in the runtime's idle loop waiting for work: reduced dynamic
    /// power (the idle loop keeps the pipeline lightly active).
    Idle,
    /// Halted in the ACPI C1 state (after executing `hlt`): clock gated,
    /// near-zero dynamic power. Entered by blocked tasks and by TurboMode's
    /// idle detection.
    Halted,
}

impl Activity {
    /// Every activity, indexed by discriminant (a state byte's low bits).
    const ALL: [Activity; 3] = [Activity::Busy, Activity::Idle, Activity::Halted];
}

/// One homogeneous stretch of a core's existence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// When the segment started.
    pub start: SimTime,
    /// How long it lasted.
    pub duration: SimDuration,
    /// Operating point during the segment.
    pub level: PowerLevel,
    /// Activity during the segment.
    pub activity: Activity,
}

/// Bits of a state byte that hold the [`Activity`]; the rest index the
/// level table.
const ACTIVITY_BITS: u32 = 2;
/// Distinct power levels one timeline can hold.
const MAX_LEVELS: usize = 1 << (8 - ACTIVITY_BITS);
/// Segments per block.
const BLOCK: usize = 512;
/// The duration entry of a segment whose duration is the next one of the
/// timeline's long list: `u32::MAX` ps or more.
const LONG: u32 = u32::MAX;

/// [`BLOCK`] closed segments: their durations in picoseconds (or
/// [`LONG`]) and their states (`level index << ACTIVITY_BITS | activity`).
#[derive(Debug, Clone)]
struct Block {
    durations: [u32; BLOCK],
    states: [u8; BLOCK],
}

/// An append-only piece-wise-constant activity record for one core.
#[derive(Debug, Clone)]
pub struct ActivityTimeline {
    /// Closed segments in recorded order, [`BLOCK`] to a block; only the
    /// last block is partly filled. Boxed, so growing the list moves
    /// pointers, never blocks.
    #[allow(clippy::vec_box)]
    blocks: Vec<Box<Block>>,
    /// Closed segments recorded.
    len: usize,
    /// Durations of the segments marked [`LONG`], in recorded order.
    long: Vec<u64>,
    /// The distinct levels the timeline has been in, by state index.
    levels: Vec<PowerLevel>,
    /// Closed time per activity, in picoseconds.
    time_ps: [u64; 3],
    // Open segment state.
    open_since: SimTime,
    level_index: u8,
    activity: Activity,
    closed: bool,
}

impl ActivityTimeline {
    /// Starts a timeline at t = 0 in the given state.
    pub fn new(level: PowerLevel, activity: Activity) -> Self {
        ActivityTimeline {
            blocks: Vec::new(),
            len: 0,
            long: Vec::new(),
            levels: vec![level],
            time_ps: [0; 3],
            open_since: SimTime::ZERO,
            level_index: 0,
            activity,
            closed: false,
        }
    }

    /// Records an activity change at `now` (level unchanged).
    #[inline]
    pub fn record(&mut self, now: SimTime, level: PowerLevel, activity: Activity) {
        debug_assert!(!self.closed, "timeline already closed");
        let same_level = level == self.levels[usize::from(self.level_index)];
        if same_level && activity == self.activity {
            return; // No state change; keep the open segment running.
        }
        self.flush(now);
        if !same_level {
            self.level_index = self.intern(level);
        }
        self.activity = activity;
    }

    /// The level table index of `level`, adding it on first use.
    #[inline]
    fn intern(&mut self, level: PowerLevel) -> u8 {
        let i = match self.levels.iter().position(|&l| l == level) {
            Some(i) => i,
            None => {
                assert!(
                    self.levels.len() < MAX_LEVELS,
                    "a timeline holds at most {MAX_LEVELS} distinct power levels"
                );
                self.levels.push(level);
                self.levels.len() - 1
            }
        };
        i as u8
    }

    /// Records a settled DVFS level change at `now` (activity unchanged).
    #[inline]
    pub fn record_level_change(&mut self, now: SimTime, level: PowerLevel) {
        let activity = self.activity;
        self.record(now, level, activity);
    }

    /// Closes the timeline at simulation end, flushing the open segment.
    pub fn close(&mut self, end: SimTime) {
        if self.closed {
            return;
        }
        self.flush(end);
        self.closed = true;
    }

    #[inline]
    fn flush(&mut self, now: SimTime) {
        let duration = now.saturating_since(self.open_since).as_ps();
        if duration != 0 {
            let entry = match u32::try_from(duration) {
                Ok(d) if d != LONG => d,
                _ => {
                    self.long.push(duration);
                    LONG
                }
            };
            let slot = self.len % BLOCK;
            if slot == 0 {
                self.blocks.push(Box::new(Block {
                    durations: [0; BLOCK],
                    states: [0; BLOCK],
                }));
            }
            let block = self.blocks.last_mut().expect("a block with room");
            block.durations[slot] = entry;
            block.states[slot] = self.level_index << ACTIVITY_BITS | self.activity as u8;
            self.len += 1;
            self.time_ps[self.activity as usize] += duration;
        }
        self.open_since = now;
    }

    /// The recorded segments, in order. Only complete after
    /// [`close`](Self::close).
    pub fn segments(&self) -> Segments<'_> {
        Segments {
            block: [].iter().zip(&[]),
            blocks: self.blocks.iter(),
            rest: self.len,
            long: self.long.iter(),
            levels: &self.levels,
            start: SimTime::ZERO,
        }
    }

    /// Total time spent in a given activity (over closed segments).
    pub fn time_in(&self, activity: Activity) -> SimDuration {
        SimDuration::from_ps(self.time_ps[activity as usize])
    }

    /// Total time covered by closed segments.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_ps(self.time_ps.iter().sum())
    }

    /// Fraction of closed time spent busy (utilization).
    pub fn utilization(&self) -> f64 {
        self.time_in(Activity::Busy).ratio(self.total())
    }
}

/// The segments of an [`ActivityTimeline`], decoded in recorded order.
#[derive(Debug, Clone)]
pub struct Segments<'a> {
    /// The undecoded columns of the current block.
    block: std::iter::Zip<std::slice::Iter<'a, u32>, std::slice::Iter<'a, u8>>,
    /// The blocks after the current one.
    blocks: std::slice::Iter<'a, Box<Block>>,
    /// Segments in `blocks`.
    rest: usize,
    long: std::slice::Iter<'a, u64>,
    levels: &'a [PowerLevel],
    start: SimTime,
}

impl Iterator for Segments<'_> {
    type Item = Segment;

    #[inline]
    fn next(&mut self) -> Option<Segment> {
        let (&entry, &state) = match self.block.next() {
            Some(columns) => columns,
            None => {
                let block = self.blocks.next()?;
                let n = self.rest.min(BLOCK);
                self.rest -= n;
                self.block = block.durations[..n].iter().zip(&block.states[..n]);
                self.block.next()?
            }
        };
        let duration = SimDuration::from_ps(match entry {
            LONG => *self
                .long
                .next()
                .expect("one long duration per marked segment"),
            d => u64::from(d),
        });
        let start = self.start;
        self.start += duration;
        Some(Segment {
            start,
            duration,
            level: self.levels[usize::from(state >> ACTIVITY_BITS)],
            activity: Activity::ALL[usize::from(state & ((1 << ACTIVITY_BITS) - 1))],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.block.len() + self.rest;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Segments<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow() -> PowerLevel {
        PowerLevel::paper_slow()
    }
    fn fast() -> PowerLevel {
        PowerLevel::paper_fast()
    }

    #[test]
    fn segments_cover_timeline_without_gaps() {
        let mut tl = ActivityTimeline::new(slow(), Activity::Idle);
        tl.record(SimTime::from_us(10), slow(), Activity::Busy);
        tl.record_level_change(SimTime::from_us(30), fast());
        tl.record(SimTime::from_us(50), fast(), Activity::Idle);
        tl.close(SimTime::from_us(60));

        let segs: Vec<Segment> = tl.segments().collect();
        assert_eq!(segs.len(), 4);
        // Contiguity.
        let mut t = SimTime::ZERO;
        for s in segs {
            assert_eq!(s.start, t);
            t += s.duration;
        }
        assert_eq!(t, SimTime::from_us(60));
        assert_eq!(tl.total(), SimDuration::from_us(60));
    }

    #[test]
    fn redundant_records_are_coalesced() {
        let mut tl = ActivityTimeline::new(slow(), Activity::Idle);
        tl.record(SimTime::from_us(5), slow(), Activity::Idle);
        tl.record(SimTime::from_us(9), slow(), Activity::Idle);
        tl.close(SimTime::from_us(10));
        let segs: Vec<Segment> = tl.segments().collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].duration, SimDuration::from_us(10));
    }

    #[test]
    fn zero_length_segments_are_dropped() {
        let mut tl = ActivityTimeline::new(slow(), Activity::Idle);
        tl.record(SimTime::ZERO, slow(), Activity::Busy);
        tl.record(SimTime::ZERO, fast(), Activity::Busy);
        tl.close(SimTime::from_us(1));
        let segs: Vec<Segment> = tl.segments().collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].level, fast());
    }

    #[test]
    fn time_accounting_per_activity() {
        let mut tl = ActivityTimeline::new(slow(), Activity::Idle);
        tl.record(SimTime::from_us(2), slow(), Activity::Busy);
        tl.record(SimTime::from_us(7), slow(), Activity::Halted);
        tl.close(SimTime::from_us(10));
        assert_eq!(tl.time_in(Activity::Idle), SimDuration::from_us(2));
        assert_eq!(tl.time_in(Activity::Busy), SimDuration::from_us(5));
        assert_eq!(tl.time_in(Activity::Halted), SimDuration::from_us(3));
        assert!((tl.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn long_durations_and_block_ends_read_back_in_order() {
        let long = u64::from(LONG);
        let durations: Vec<u64> = (1..=2 * BLOCK as u64 + 3)
            .map(|i| match i % 200 {
                0 => long - 1,
                1 => long,
                2 => long + 1,
                3 => 1 << 40,
                _ => i,
            })
            .collect();
        let mut tl = ActivityTimeline::new(slow(), Activity::Idle);
        let mut now = SimTime::ZERO;
        for (i, d) in durations.iter().enumerate() {
            now += SimDuration::from_ps(*d);
            let activity = [Activity::Busy, Activity::Idle][i % 2];
            tl.record(now, [fast(), slow()][i % 2], activity);
        }
        tl.close(now);
        assert_eq!(tl.blocks.len(), 3);
        assert_eq!(
            tl.long.len(),
            durations.iter().filter(|&&d| d >= long).count()
        );
        let segs = tl.segments();
        assert_eq!(segs.len(), durations.len());
        for (k, seg) in segs.enumerate() {
            assert_eq!(seg.duration.as_ps(), durations[k], "segment {k}");
            let state = [(slow(), Activity::Idle), (fast(), Activity::Busy)][k % 2];
            assert_eq!((seg.level, seg.activity), state, "segment {k}");
        }
        assert_eq!(tl.total(), SimDuration::from_ps(durations.iter().sum()));
    }

    #[test]
    fn close_is_idempotent() {
        let mut tl = ActivityTimeline::new(slow(), Activity::Busy);
        tl.close(SimTime::from_us(4));
        tl.close(SimTime::from_us(9));
        assert_eq!(tl.total(), SimDuration::from_us(4));
    }
}
