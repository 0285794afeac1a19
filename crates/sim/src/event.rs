//! Deterministic discrete-event queue.
//!
//! The simulation advances by popping the earliest pending event. Two events
//! scheduled for the same instant are delivered in the order they were
//! pushed, so the pop order is the total order on `(time, push order)` and
//! every simulation is bit-for-bit reproducible — a property the test suite
//! relies on.
//!
//! # Why a sorted array
//!
//! [`EventQueue`] is one `Vec` kept sorted with the earliest event last.
//! The engines keep few events pending — about one per core plus a few
//! timers: on the paper's 32-core grid, 79% of pops see 32–63 pending
//! events and none sees more than 119. At that depth a back-to-front scan
//! over a few cache lines costs less than the bookkeeping of structures
//! built for deep queues, such as a binary heap or a calendar queue; the
//! README's "Event queue" section has the measurements.
//!
//! [`EventBackend`] and [`default_backend`] keep the names of the two
//! retired backends (a binary heap and a calendar wheel) for callers that
//! still pass them; every name builds the same queue.

use crate::time::SimTime;
use std::str::FromStr;

/// The names of the retired event-queue backends. Legacy specs may still
/// carry one (`"heap"`, `"calendar-wheel"`); every name builds the same
/// [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EventBackend {
    /// The retired binary heap.
    Heap,
    /// The retired calendar wheel, formerly the default.
    #[default]
    CalendarWheel,
}

impl EventBackend {
    /// Every legacy name.
    pub const ALL: [EventBackend; 2] = [EventBackend::Heap, EventBackend::CalendarWheel];

    /// The string key naming this backend in specs.
    pub fn name(self) -> &'static str {
        match self {
            EventBackend::Heap => "heap",
            EventBackend::CalendarWheel => "calendar-wheel",
        }
    }
}

impl FromStr for EventBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EventBackend::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| {
                format!("unknown event queue backend `{s}` (known: heap, calendar-wheel)")
            })
    }
}

/// The legacy default backend name, [`EventBackend::default`].
pub fn default_backend() -> EventBackend {
    EventBackend::default()
}

/// An event queue over user-defined payloads `E`.
///
/// Pending events sit in a `Vec` sorted by descending `(time, push
/// order)`: the earliest is last, so [`pop`](Self::pop) is `Vec::pop` and
/// [`peek_time`](Self::peek_time) reads the last entry. A push scans from
/// the back past the pending events that come earlier and inserts there,
/// so it costs time linear in the number of pending events earlier than
/// the new one. That is cheap at the engines' depth of about one event per
/// core: even on 128- and 512-core machines, where pushes scan further,
/// the engine ran the paper presets in about 0.82× of a calendar queue's
/// time.
///
/// ```
/// use cata_sim::event::EventQueue;
/// use cata_sim::time::SimTime;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.push(SimTime::from_ns(20), "late");
/// q.push(SimTime::from_ns(10), "early");
/// q.push(SimTime::from_ns(10), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_ns(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending events, latest first.
    pending: Vec<(SimTime, E)>,
    /// Time of the last popped event; used to detect causality violations.
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue; the backend name is ignored.
    pub fn with_backend(_backend: EventBackend) -> Self {
        Self::new()
    }

    /// Creates an empty queue with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            pending: Vec::with_capacity(cap),
            now: SimTime::ZERO,
        }
    }

    /// Schedules `payload` for delivery at `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the time of the last popped event:
    /// scheduling into the past is always a simulator bug.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time} < now {now}",
            now = self.now
        );
        // Pending events at the same time were pushed earlier and pop
        // first, so the new one goes in front of them.
        let at = self
            .pending
            .iter()
            .rposition(|&(t, _)| t > time)
            .map_or(0, |i| i + 1);
        self.pending.insert(at, (time, payload));
    }

    /// Removes and returns the earliest pending event, advancing the clock.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, payload) = self.pending.pop()?;
        self.now = time;
        Some((time, payload))
    }

    /// The delivery time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.pending.last().map(|&(t, _)| t)
    }

    /// The time of the last popped event (the current simulation instant).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Rewinds the queue to its initial state — empty, clock at
    /// `SimTime::ZERO` — while keeping its allocation, so one queue can be
    /// reused across many runs (suite workers batch thousands of small
    /// scenarios; reallocating per run is pure waste).
    pub fn reset(&mut self) {
        self.pending.clear();
        self.now = SimTime::ZERO;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Pops every pending event, returning the payloads in pop order.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3u32);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100u32 {
            q.push(t, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 0);
        q.push(SimTime::from_ns(10), 0);
        q.push(SimTime::from_ns(40), 0);
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), SimTime::from_ns(40));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.pop();
        q.push(SimTime::from_ns(5), ());
    }

    #[test]
    fn push_at_now_is_allowed() {
        // An event handler may schedule follow-up work at the current instant
        // (zero-latency causality); it must be delivered after already-queued
        // same-instant events.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1u32);
        q.push(SimTime::from_ns(10), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        q.push(t + SimDuration::ZERO, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn reset_allows_reuse_from_time_zero() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1u32);
        q.push(SimTime::from_ns(20), 9);
        q.pop();
        // The clock advanced; a fresh run must start at zero again.
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_ns(1), 2u32);
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), 2)));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(7), 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
    }

    #[test]
    fn backend_names_round_trip() {
        for b in EventBackend::ALL {
            assert_eq!(b.name().parse::<EventBackend>().unwrap(), b);
        }
        assert!("quantum".parse::<EventBackend>().is_err());
        assert_eq!(default_backend(), EventBackend::CalendarWheel);
    }

    /// Events seconds apart and nanoseconds apart pop in order, the clock
    /// following them.
    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::with_backend(EventBackend::CalendarWheel);
        q.push(SimTime::from_ms(5_000), 3u32);
        q.push(SimTime::from_ns(1), 1);
        q.push(SimTime::from_ms(90_000), 4);
        q.push(SimTime::from_us(2), 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3, 4]);
        assert_eq!(q.now(), SimTime::from_ms(90_000));
    }

    /// 10 000 scrambled times, with many ties and a wide range, pop exactly
    /// as the reference model does: the `(time, push index)` pairs popped
    /// by minimum.
    #[test]
    fn scrambled_events_match_the_model() {
        let mut q = EventQueue::new();
        let mut model = Vec::new();
        let mut rng = crate::seeded::SplitMix64::new(0);
        for i in 0..10_000u64 {
            let x = rng.next_u64();
            let t = SimTime::from_ps((x % (1 << 30)) * (i % 7));
            q.push(t, i);
            model.push((t, i));
        }
        // Sorted latest first, the model pops its minimum off the end.
        model.sort_unstable_by(|a, b| b.cmp(a));
        while let Some(want) = model.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }
}
