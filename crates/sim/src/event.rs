//! Deterministic discrete-event queue.
//!
//! The simulation advances by popping the earliest pending event. Two events
//! scheduled for the same instant are delivered in the order they were pushed
//! (FIFO tie-break via a monotonically increasing sequence number), which
//! makes every simulation bit-for-bit reproducible — a property the test
//! suite relies on.
//!
//! # Backends
//!
//! The pop order is the total order on `(time, seq)`, so *any* correct
//! priority queue yields the identical event sequence. That freedom is
//! exposed as pluggable backends behind the [`EventSource`] trait:
//!
//! - [`HeapQueue`]: a binary heap — O(log n) push/pop, no tuning, the
//!   reference implementation.
//! - [`CalendarWheel`]: a calendar queue (Brown 1988) — O(1) amortized
//!   push/pop for the near-monotone event streams discrete-event
//!   simulation produces, self-tuning bucket width and count.
//!
//! [`EventQueue`] is the facade the engines hold: an enum over the two
//! backends with inlined dispatch (no `dyn` indirection on the hot path),
//! selected by [`EventBackend`]. Both backends are bit-identical by
//! construction; the golden-digest tests and the cross-backend property
//! tests pin that.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::str::FromStr;

/// The common surface of an event-queue backend.
///
/// All implementations deliver events in ascending `(time, push-order)`,
/// panic on pushes into the past, and advance an internal clock on pop.
pub trait EventSource<E> {
    /// Schedules `payload` for delivery at `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the time of the last popped event:
    /// scheduling into the past is always a simulator bug.
    fn push(&mut self, time: SimTime, payload: E);

    /// Removes and returns the earliest pending event, advancing the clock.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// The delivery time of the earliest pending event, if any.
    fn peek_time(&self) -> Option<SimTime>;

    /// The time of the last popped event (the current simulation instant).
    fn now(&self) -> SimTime;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (diagnostic).
    fn pushed_total(&self) -> u64;

    /// Rewinds the queue to its initial state — empty, sequence 0, clock at
    /// `SimTime::ZERO` — while keeping allocations, so one queue can be
    /// reused across many runs.
    fn reset(&mut self);

    /// Ensures capacity for at least `cap` pending events total.
    fn reserve(&mut self, cap: usize);
}

/// Which event-queue backend an engine should run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EventBackend {
    /// Binary-heap reference backend (`O(log n)` per op).
    Heap,
    /// Calendar-queue backend (`O(1)` amortized per op). The default.
    #[default]
    CalendarWheel,
}

impl EventBackend {
    /// All known backends, in registry order.
    pub const ALL: [EventBackend; 2] = [EventBackend::Heap, EventBackend::CalendarWheel];

    /// The stable string key naming this backend in specs and registries.
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
        match s {
            "heap" => Ok(EventBackend::Heap),
            "calendar-wheel" => Ok(EventBackend::CalendarWheel),
            other => Err(format!(
                "unknown event queue backend `{other}` (known: heap, calendar-wheel)"
            )),
        }
    }
}

impl std::fmt::Display for EventBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest
// (time, seq) first.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

/// The binary-heap backend: the original `EventQueue` implementation,
/// kept as the zero-tuning reference the wheel is checked against.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    /// Time of the last popped event; used to detect causality violations.
    now: SimTime,
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
            now: SimTime::ZERO,
        }
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventSource<E> for HeapQueue<E> {
    fn push(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time} < now {now}",
            now = self.now
        );
        let entry = Entry {
            time,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.heap.push(entry);
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "heap returned a past event");
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn pushed_total(&self) -> u64 {
        self.seq
    }

    fn reset(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.now = SimTime::ZERO;
    }

    fn reserve(&mut self, cap: usize) {
        if self.heap.capacity() < cap {
            // `BinaryHeap::reserve` takes an *additional* count on top of
            // the current length.
            self.heap.reserve(cap - self.heap.len());
        }
    }
}

/// Smallest bucket-array size (as a power of two) the wheel shrinks to.
const WHEEL_MIN_BITS: u32 = 6;
/// Largest bucket-array size (as a power of two) the wheel grows to. The
/// pop-side min-scan walks the whole front array, so the ring is kept
/// small enough that the scan stays a few cache lines.
const WHEEL_MAX_BITS: u32 = 12;
/// Initial bucket width as a power of two of picoseconds (2^20 ps ≈ 1 µs —
/// the scale of task milestones in the paper's scenarios). The width
/// heuristics re-tune it within one adaptation window either way.
const WHEEL_INIT_SHIFT: u32 = 20;
/// Widest bucket the tuner will pick (2^40 ps ≈ 1 s).
const WHEEL_MAX_SHIFT: u32 = 40;
/// Pops per width-adaptation window.
const WHEEL_TUNE_WINDOW: u32 = 128;
/// Bucket fronts per group-min entry (as a power of two): the pop-side
/// rescan reduces 2^GROUP_BITS fronts, then the group-min array.
const WHEEL_GROUP_BITS: u32 = 4;

/// The calendar-queue backend (after Brown 1988): a ring of `2^nbits`
/// buckets, each `2^wshift` picoseconds wide, holding sorted pending
/// events, popped through a two-level min index over the bucket fronts.
///
/// An event at time `t` lives in bucket `(t >> wshift) & (nbuckets - 1)`.
/// Equal times always hash to the same bucket and buckets are kept sorted
/// by `(time, seq)`, so each bucket's front is its minimum and distinct
/// buckets never hold the same time — the smallest front is therefore the
/// exact global minimum *even when far-future events wrap around the
/// ring*, and the FIFO tie-break at equal times is the bucket's internal
/// order. Unlike the classic formulation there is no day cursor walking
/// the ring: pop reads a cached next-event time, pops that bucket's
/// front, and repairs the cache by reducing one 16-front group plus the
/// group-min array — a handful of contiguous cache lines regardless of
/// how the multi-modal event stream spreads over the ring. Same-time
/// bursts (a DES staple) skip the repair entirely: the next tie is
/// already at the same bucket's front.
///
/// Push appends to a bucket tail in the common case: a deterministic
/// feedback rule re-tunes the bucket width every `WHEEL_TUNE_WINDOW`
/// pops to one octave below the lower-quartile clock advance (see
/// `retune`), and the ring is sized to the pending
/// population (~2 buckets per event, capped so the pop-side scans stay
/// small). All triggers are functions of the event sequence alone —
/// never of wall-clock — so runs stay reproducible.
#[derive(Debug)]
pub struct CalendarWheel<E> {
    buckets: Vec<VecDeque<Entry<E>>>,
    /// `front_time[i]` mirrors `buckets[i].front().time` (`u64::MAX` when
    /// empty): pop scans walk this flat array — eight buckets per cache
    /// line — instead of dereferencing a `VecDeque` per probe.
    front_time: Vec<u64>,
    /// `group_min[g]` is the minimum of `front_time` over group `g`
    /// (`2^WHEEL_GROUP_BITS` consecutive buckets): the upper level of the
    /// min index pop uses to repair [`next_time`](Self::next_time).
    group_min: Vec<u64>,
    /// Reusable drain buffer for [`rebuild`](Self::rebuild).
    scratch: Vec<Entry<E>>,
    /// `buckets.len() == 1 << nbits`.
    nbits: u32,
    /// Bucket width is `1 << wshift` picoseconds.
    wshift: u32,
    /// Pending events across all buckets.
    len: usize,
    seq: u64,
    now: SimTime,
    /// Cached global minimum pending time (`u64::MAX` when empty). Kept
    /// exact by an O(1) `min` on push and a two-level repair on pop, so
    /// `peek_time` is a field read — engines peek far more often than
    /// they pop.
    next_time: u64,
    // Width-tuning window: pops since the window started, how many of
    // them advanced the clock, and a log2 histogram of those advances.
    win_pops: u32,
    win_adv: u32,
    win_hist: [u32; 44],
}

impl<E> CalendarWheel<E> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        CalendarWheel {
            buckets: Vec::new(),
            front_time: Vec::new(),
            group_min: Vec::new(),
            scratch: Vec::new(),
            nbits: WHEEL_MIN_BITS,
            wshift: WHEEL_INIT_SHIFT,
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
            next_time: u64::MAX,
            win_pops: 0,
            win_adv: 0,
            win_hist: [0; 44],
        }
    }

    /// Creates an empty wheel (capacity hint is satisfied lazily; buckets
    /// grow to fit and are kept across [`reset`](EventSource::reset)).
    pub fn with_capacity(_cap: usize) -> Self {
        Self::new()
    }

    fn ensure_buckets(&mut self) {
        let nb = 1usize << self.nbits;
        if self.buckets.len() != nb {
            self.buckets.resize_with(nb, VecDeque::new);
            self.front_time.resize(nb, u64::MAX);
            self.group_min.resize(nb >> WHEEL_GROUP_BITS, u64::MAX);
        }
    }

    /// Repairs the min index after bucket `idx`'s front changed: reduces
    /// that bucket's 16-front group, then the group-min array, into
    /// [`next_time`](Self::next_time). Each front is its bucket's minimum
    /// (buckets are sorted) and distinct buckets never share a time, so
    /// the smallest front is the exact global minimum — even when
    /// far-future events have wrapped around the ring. Both reductions
    /// are over small contiguous `u64` runs (eight fronts per cache
    /// line); pushes maintain the index with plain `min`s instead.
    fn repair_min(&mut self, idx: usize) {
        let g = idx >> WHEEL_GROUP_BITS;
        let start = g << WHEEL_GROUP_BITS;
        let mut gm = u64::MAX;
        for &ft in &self.front_time[start..start + (1 << WHEEL_GROUP_BITS)] {
            gm = gm.min(ft);
        }
        self.group_min[g] = gm;
        let mut best = u64::MAX;
        for &m in &self.group_min {
            best = best.min(m);
        }
        self.next_time = best;
    }

    /// Rebuilds the bucket array after a parameter change, redistributing
    /// every pending entry under the new `(nbits, wshift)`.
    fn rebuild(&mut self, nbits: u32, wshift: u32) {
        let mut pending = std::mem::take(&mut self.scratch);
        pending.clear();
        for b in &mut self.buckets {
            pending.extend(b.drain(..));
        }
        self.nbits = nbits;
        self.wshift = wshift;
        self.ensure_buckets();
        self.front_time.fill(u64::MAX);
        self.group_min.fill(u64::MAX);
        self.next_time = u64::MAX;
        let mask = self.buckets.len() - 1;
        for e in pending.drain(..) {
            let t = e.time.as_ps();
            let idx = (t >> wshift) as usize & mask;
            if t < self.front_time[idx] {
                self.front_time[idx] = t;
                self.group_min[idx >> WHEEL_GROUP_BITS] =
                    self.group_min[idx >> WHEEL_GROUP_BITS].min(t);
                self.next_time = self.next_time.min(t);
            }
            Self::bucket_insert(&mut self.buckets[idx], e);
        }
        self.scratch = pending;
        self.win_pops = 0;
        self.win_adv = 0;
        self.win_hist = [0; 44];
    }

    /// Re-evaluates the wheel geometry at the end of a tuning window.
    ///
    /// DES streams are multi-modal: the engines here push at-now follow-ups,
    /// ~µs-scale control latencies, and task milestones tens of µs to ms
    /// out, all interleaved. A width derived from the *mean* inter-event
    /// gap lands between the modes and serves none of them — fat buckets
    /// swallow many near-term events and every push degenerates into a
    /// sorted mid-bucket insert (a `VecDeque` memmove). The right width
    /// sits *below the near mode*: one octave under the lower-quartile
    /// clock advance (read off the window's log2 histogram), so almost
    /// every push lands past its bucket's tail and appends. The resulting
    /// longer pop scans are cheap — they walk the flat `front_time` array.
    /// The bucket count is sized so one revolution covers the pending
    /// horizon (`max_time − now`) — otherwise far-future events wrap into
    /// buckets near the cursor, which is the other mid-insert factory.
    /// Width changes under one octave are ignored: streams breathe
    /// phase-to-phase, and chasing every wobble with a full rebuild costs
    /// more than the geometry error.
    fn retune(&mut self) {
        if self.win_adv == 0 {
            // A window of pure ties carries no rate signal; keep geometry.
            self.win_pops = 0;
            return;
        }
        let mut below = 0;
        let mut quartile = WHEEL_MAX_SHIFT;
        for (k, &c) in self.win_hist.iter().enumerate() {
            below += c;
            if below * 4 >= self.win_adv {
                quartile = (k as u32).min(WHEEL_MAX_SHIFT);
                break;
            }
        }
        let ideal_w = quartile.saturating_sub(1);
        let wshift = if ideal_w.abs_diff(self.wshift) >= 2 {
            ideal_w
        } else {
            self.wshift
        };
        // Size the ring to the pending population: ~2 buckets per event
        // keeps sorted inserts short, while the per-pop min-scan cost grows
        // with the ring, so there is no benefit in over-provisioning.
        let ideal_n = (2 * self.len as u64 + 1)
            .next_power_of_two()
            .trailing_zeros()
            .clamp(WHEEL_MIN_BITS, WHEEL_MAX_BITS);
        // Grow eagerly (wrapping is expensive), shrink reluctantly.
        let nbits = if ideal_n > self.nbits || ideal_n + 2 <= self.nbits {
            ideal_n
        } else {
            self.nbits
        };
        if wshift != self.wshift || nbits != self.nbits {
            self.rebuild(nbits, wshift);
        } else {
            self.win_pops = 0;
            self.win_adv = 0;
            self.win_hist = [0; 44];
        }
    }

    /// Inserts `e` into `b` keeping ascending `(time, seq)` order. Pushes
    /// are near-monotone, so the back-scan is O(1) in the common case.
    #[inline]
    fn bucket_insert(b: &mut VecDeque<Entry<E>>, e: Entry<E>) {
        let mut i = b.len();
        while i > 0 {
            // seq is globally increasing, so a time tie means the new
            // entry was pushed later and stays behind `prev`.
            if b[i - 1].time <= e.time {
                break;
            }
            i -= 1;
        }
        if i == b.len() {
            b.push_back(e);
        } else {
            b.insert(i, e);
        }
    }
}

impl<E> Default for CalendarWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventSource<E> for CalendarWheel<E> {
    fn push(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time} < now {now}",
            now = self.now
        );
        if self.buckets.is_empty() {
            self.ensure_buckets();
        }
        // Grow the ring when the population reaches it: one revolution must
        // stay ahead of the pending span, and at ~1 distinct time per width
        // that span is about `len` buckets.
        if self.len >= (1usize << self.nbits) && self.nbits < WHEEL_MAX_BITS {
            let (nbits, wshift) = (self.nbits + 1, self.wshift);
            self.rebuild(nbits, wshift);
        }
        let entry = Entry {
            time,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.len += 1;
        let mask = self.buckets.len() - 1;
        let idx = (time.as_ps() >> self.wshift) as usize & mask;
        Self::bucket_insert(&mut self.buckets[idx], entry);
        // Sorted insert can only lower the bucket front (empty = MAX), and
        // a lower front can only lower its group min and the global min.
        let t = time.as_ps();
        if t < self.front_time[idx] {
            self.front_time[idx] = t;
            let g = idx >> WHEEL_GROUP_BITS;
            self.group_min[g] = self.group_min[g].min(t);
            self.next_time = self.next_time.min(t);
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        // All entries at the minimum time hash to the same bucket (same
        // time ⇒ same day ⇒ same index), so the cached `next_time` pins
        // the bucket directly and its front is the global `(time, seq)`
        // minimum.
        let idx = (self.next_time >> self.wshift) as usize & (self.buckets.len() - 1);
        let entry = self.buckets[idx]
            .pop_front()
            .expect("cached-min bucket is non-empty");
        debug_assert_eq!(entry.time.as_ps(), self.next_time);
        let nf = self.buckets[idx]
            .front()
            .map_or(u64::MAX, |e| e.time.as_ps());
        self.front_time[idx] = nf;
        debug_assert!(entry.time >= self.now, "wheel returned a past event");
        self.len -= 1;
        // Same-time burst fast path: if the bucket's new front ties the
        // popped time, the min index is still exact — skip the repair.
        if nf != self.next_time {
            self.repair_min(idx);
        }
        if entry.time > self.now {
            self.win_adv += 1;
            let d = entry.time.as_ps() - self.now.as_ps();
            let b = (64 - (d | 1).leading_zeros()).min(43) as usize;
            self.win_hist[b] += 1;
        }
        self.now = entry.time;
        self.win_pops += 1;
        if self.win_pops >= WHEEL_TUNE_WINDOW {
            self.retune();
        }
        Some((entry.time, entry.payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        (self.len > 0).then(|| SimTime::from_ps(self.next_time))
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn len(&self) -> usize {
        self.len
    }

    fn pushed_total(&self) -> u64 {
        self.seq
    }

    fn reset(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.front_time.fill(u64::MAX);
        self.group_min.fill(u64::MAX);
        self.len = 0;
        self.seq = 0;
        self.now = SimTime::ZERO;
        self.next_time = u64::MAX;
        self.win_hist = [0; 44];
        self.win_pops = 0;
        // nbits/wshift deliberately survive: the tuned geometry is the
        // right starting point for the next run of a batch, and the pop
        // order is backend-invariant so reuse cannot change results.
    }

    fn reserve(&mut self, _cap: usize) {
        // Buckets grow organically and persist across resets; there is no
        // single allocation to pre-size.
        self.ensure_buckets();
    }
}

/// An event queue over user-defined payloads `E`.
///
/// This is the facade the engines hold: one of the [`EventSource`]
/// backends selected by [`EventBackend`], dispatched by an inlined match
/// (the payload type is generic, so no boxing and no vtable).
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
// The wheel's inline retuning state dwarfs the heap variant, but a queue
// lives one-per-engine (never in arrays), and boxing would put a pointer
// chase on the hottest loop in the simulator.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum EventQueue<E> {
    /// Binary-heap backend.
    Heap(HeapQueue<E>),
    /// Calendar-queue backend.
    Wheel(CalendarWheel<E>),
}

macro_rules! delegate {
    ($self:expr, $q:ident => $body:expr) => {
        match $self {
            EventQueue::Heap($q) => $body,
            EventQueue::Wheel($q) => $body,
        }
    };
}

/// The process-wide default backend: [`EventBackend::default`], overridable
/// once via the `CATA_EVENT_QUEUE` environment variable (`heap` /
/// `calendar-wheel`) — a diagnostic escape hatch for A/B timing runs
/// without editing specs. Invalid values fall back to the default.
pub fn default_backend() -> EventBackend {
    static DEFAULT: std::sync::OnceLock<EventBackend> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("CATA_EVENT_QUEUE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or_default()
    })
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the [`default_backend`].
    pub fn new() -> Self {
        Self::with_backend(default_backend())
    }

    /// Creates an empty queue on the given backend.
    pub fn with_backend(backend: EventBackend) -> Self {
        match backend {
            EventBackend::Heap => EventQueue::Heap(HeapQueue::new()),
            EventBackend::CalendarWheel => EventQueue::Wheel(CalendarWheel::new()),
        }
    }

    /// Creates an empty queue with pre-allocated capacity (default backend).
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.reserve(cap);
        q
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> EventBackend {
        match self {
            EventQueue::Heap(_) => EventBackend::Heap,
            EventQueue::Wheel(_) => EventBackend::CalendarWheel,
        }
    }

    /// Switches to `backend` if not already on it, discarding pending
    /// events (callers switch between runs, right before a reset).
    pub fn ensure_backend(&mut self, backend: EventBackend) {
        if self.backend() != backend {
            *self = Self::with_backend(backend);
        }
    }

    /// Schedules `payload` for delivery at `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the time of the last popped event:
    /// scheduling into the past is always a simulator bug.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        delegate!(self, q => q.push(time, payload))
    }

    /// Removes and returns the earliest pending event, advancing the clock.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        delegate!(self, q => q.pop())
    }

    /// The delivery time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        delegate!(self, q => q.peek_time())
    }

    /// The time of the last popped event (the current simulation instant).
    #[inline]
    pub fn now(&self) -> SimTime {
        delegate!(self, q => q.now())
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        delegate!(self, q => q.len())
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (diagnostic).
    #[inline]
    pub fn pushed_total(&self) -> u64 {
        delegate!(self, q => q.pushed_total())
    }

    /// Rewinds the queue to its initial state — empty, sequence 0, clock at
    /// `SimTime::ZERO` — while keeping allocations, so one queue can be
    /// reused across many runs (suite workers batch thousands of small
    /// scenarios; reallocating per run is pure waste).
    pub fn reset(&mut self) {
        delegate!(self, q => q.reset())
    }

    /// Ensures capacity for at least `cap` pending events total.
    pub fn reserve(&mut self, cap: usize) {
        delegate!(self, q => q.reserve(cap))
    }
}

impl<E> EventSource<E> for EventQueue<E> {
    fn push(&mut self, time: SimTime, payload: E) {
        EventQueue::push(self, time, payload)
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }
    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn pushed_total(&self) -> u64 {
        EventQueue::pushed_total(self)
    }
    fn reset(&mut self) {
        EventQueue::reset(self)
    }
    fn reserve(&mut self, cap: usize) {
        EventQueue::reserve(self, cap)
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

    /// Runs `f` once per backend so every invariant is pinned on both.
    fn each_backend(f: impl Fn(EventQueue<u32>)) {
        for b in EventBackend::ALL {
            f(EventQueue::with_backend(b));
        }
    }

    #[test]
    fn pops_in_time_order() {
        each_backend(|mut q| {
            q.push(SimTime::from_ns(30), 3u32);
            q.push(SimTime::from_ns(10), 1);
            q.push(SimTime::from_ns(20), 2);
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![1, 2, 3]);
        });
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        each_backend(|mut q| {
            let t = SimTime::from_ns(5);
            for i in 0..100u32 {
                q.push(t, i);
            }
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn clock_advances_monotonically() {
        each_backend(|mut q| {
            q.push(SimTime::from_ns(10), 0);
            q.push(SimTime::from_ns(10), 0);
            q.push(SimTime::from_ns(40), 0);
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
            }
            assert_eq!(q.now(), SimTime::from_ns(40));
        });
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
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics_on_heap() {
        let mut q = EventQueue::with_backend(EventBackend::Heap);
        q.push(SimTime::from_ns(10), ());
        q.pop();
        q.push(SimTime::from_ns(5), ());
    }

    #[test]
    fn push_at_now_is_allowed() {
        // An event handler may schedule follow-up work at the current instant
        // (zero-latency causality); it must be delivered after already-queued
        // same-instant events.
        each_backend(|mut q| {
            q.push(SimTime::from_ns(10), 1u32);
            q.push(SimTime::from_ns(10), 2);
            let (t, e) = q.pop().unwrap();
            assert_eq!(e, 1);
            q.push(t + SimDuration::ZERO, 3);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 3);
        });
    }

    #[test]
    fn reset_allows_reuse_from_time_zero() {
        each_backend(|mut q| {
            q.push(SimTime::from_ns(10), 1u32);
            q.pop();
            // The clock advanced; a fresh run must start at zero again.
            q.reset();
            assert!(q.is_empty());
            assert_eq!(q.now(), SimTime::ZERO);
            assert_eq!(q.pushed_total(), 0);
            q.reserve(64);
            q.push(SimTime::from_ns(1), 2u32);
            assert_eq!(q.pop(), Some((SimTime::from_ns(1), 2)));
        });
    }

    #[test]
    fn peek_and_len() {
        each_backend(|mut q| {
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_ns(7), 0);
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
            assert_eq!(q.pushed_total(), 1);
        });
    }

    #[test]
    fn backend_names_round_trip() {
        for b in EventBackend::ALL {
            assert_eq!(b.name().parse::<EventBackend>().unwrap(), b);
        }
        assert!("quantum".parse::<EventBackend>().is_err());
        assert_eq!(EventBackend::default(), EventBackend::CalendarWheel);
    }

    #[test]
    fn ensure_backend_switches_and_is_idempotent() {
        let mut q: EventQueue<u32> = EventQueue::with_backend(EventBackend::Heap);
        assert_eq!(q.backend(), EventBackend::Heap);
        q.ensure_backend(EventBackend::CalendarWheel);
        assert_eq!(q.backend(), EventBackend::CalendarWheel);
        q.push(SimTime::from_ns(1), 1);
        q.ensure_backend(EventBackend::CalendarWheel);
        assert_eq!(q.len(), 1, "no-op switch must not discard events");
    }

    /// Far-future events (beyond one wheel revolution) still pop in order —
    /// exercises the min-scan fallback and the cursor jump.
    #[test]
    fn wheel_handles_far_future_events() {
        let mut q: EventQueue<u32> = EventQueue::with_backend(EventBackend::CalendarWheel);
        q.push(SimTime::from_ms(5_000), 3);
        q.push(SimTime::from_ns(1), 1);
        q.push(SimTime::from_ms(90_000), 4);
        q.push(SimTime::from_us(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
        assert_eq!(q.now(), SimTime::from_ms(90_000));
    }

    /// Enough load to force ring growth, width re-tunes, and shrink back.
    #[test]
    fn wheel_resizes_under_load_without_reordering() {
        let mut q: EventQueue<u64> = EventQueue::with_backend(EventBackend::CalendarWheel);
        let mut r: EventQueue<u64> = EventQueue::with_backend(EventBackend::Heap);
        // Deterministic scramble of times, many ties, wide range.
        let mut rng = crate::seeded::SplitMix64::new(0);
        for i in 0..10_000u64 {
            let x = rng.next_u64();
            let t = SimTime::from_ps((x % (1 << 30)) * (i % 7));
            q.push(t, i);
            r.push(t, i);
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
