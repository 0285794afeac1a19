//! Counters and latency histograms for the evaluation.
//!
//! Section V-C of the paper reports reconfiguration-latency distributions
//! (averages of 11–65 µs, maxima of several milliseconds under lock
//! contention) and the share of execution time spent reconfiguring
//! (0.03 %–3.49 %). [`LatencyHistogram`] collects those distributions, and
//! every other latency the system reports, in memory that does not grow
//! with the number of samples: a long service run records millions of
//! lock waits, and its report stays the same size. Count, sum, min and max
//! are exact; interior quantiles read at most
//! [`LatencyHistogram::QUANTILE_ERROR`] (1/128) below the exact value.
//!
//! A [`LatencyHistogram`] holds only its occupied buckets, so its memory
//! is proportional to the number of distinct buckets its samples reach
//! (about 50 in all per Small-scale report), not to the span of values.
//! Recording is a binary search. A site that records once or more per
//! task — the software DVFS path's lock waits, the RSU's decision costs —
//! uses a [`LatencyRecorder`] instead: the same buckets as a dense array,
//! O(1) per sample, turned into a histogram once, when the run reports.

use crate::time::SimDuration;
use serde::{DeError, Deserialize, Deserializer, Field, Kind, Serialize, Serializer};
use std::fmt;

#[cfg(test)]
mod reference;

/// Sub-bucket resolution of [`LatencyHistogram`]: each power-of-two octave
/// is split into `2^7 = 128` linear sub-buckets.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// The resolution of histograms stored before [`SUB_BITS`]: 16
/// sub-buckets per octave, with buckets serialized by index.
const LEGACY_SUB_BITS: u32 = 4;

/// The bucket index of a picosecond value. Values below 128 get exact
/// unit buckets; larger values go to `(octave, top 7 mantissa bits)`.
#[inline]
fn bucket_of(ps: u64) -> usize {
    if ps < SUB {
        return ps as usize;
    }
    let exp = 63 - ps.leading_zeros();
    let sub = (ps >> (exp - SUB_BITS)) & (SUB - 1);
    ((u64::from(exp - SUB_BITS + 1) * SUB) + sub) as usize
}

/// The smallest picosecond value in bucket `b` at `sub_bits` sub-bucket
/// bits (the value quantiles report for samples landing in `b`), or
/// `None` past the last bucket.
fn bucket_floor(sub_bits: u32, b: u64) -> Option<u64> {
    let sub = 1u64 << sub_bits;
    if b < sub {
        return Some(b);
    }
    let exp = b / sub + u64::from(sub_bits) - 1;
    (exp < 64).then(|| (sub + b % sub) << (exp - u64::from(sub_bits)))
}

/// The lower bound of occupied bucket `b`.
fn floor(b: u64) -> u64 {
    bucket_floor(SUB_BITS, b).expect("occupied buckets are in range")
}

/// A streaming log-bucketed duration histogram.
///
/// Buckets are log-linear (HdrHistogram-style): 128 linear sub-buckets
/// per power-of-two octave, and one bucket per value below 128 ps. Only
/// occupied buckets are stored, as `(bucket, count)` pairs sorted by
/// bucket, so memory is proportional to the occupied buckets (at most
/// 7424). `record` is a binary search over them; for a site that records
/// once or more per task, use a [`LatencyRecorder`]. Quantiles are
/// deterministic bucket lower bounds, so an interior quantile reads at
/// most [`QUANTILE_ERROR`](Self::QUANTILE_ERROR) below the exact
/// nearest-rank value and never above it. Count, sum, min and max are
/// tracked exactly on the side, so the extremes and the mean are exact.
///
/// The serialized form is the stored one: buckets are `[floor_ps, count]`
/// pairs under a `sub_buckets` resolution tag, and a reader re-buckets
/// each floor by value. Two older forms fold in on read: a per-sample
/// list (`samples_ps`), and 16-sub-bucket histograms whose buckets are
/// stored by index (no `sub_buckets` tag).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    /// `(bucket, count)` for each occupied bucket, sorted by bucket, with
    /// no zero counts.
    buckets: Vec<(u64, u64)>,
    total: u64,
    sum_ps: u128,
    min_ps: u64,
    max_ps: u64,
}

impl LatencyHistogram {
    /// The most an interior quantile can read below the exact
    /// nearest-rank value, relative to that value: one sub-bucket, 1/128.
    pub const QUANTILE_ERROR: f64 = 1.0 / SUB as f64;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one sample of `ps` in the exact side statistics only.
    #[inline]
    fn note(&mut self, ps: u64) {
        self.total += 1;
        self.sum_ps += u128::from(ps);
        self.max_ps = self.max_ps.max(ps);
        self.min_ps = if self.total == 1 {
            ps
        } else {
            self.min_ps.min(ps)
        };
    }

    /// Records one sample: a binary search over the occupied buckets, and
    /// an insertion the first time a bucket is reached.
    pub fn record(&mut self, d: SimDuration) {
        let ps = d.as_ps();
        let b = bucket_of(ps) as u64;
        match self.buckets.binary_search_by_key(&b, |&(k, _)| k) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (b, 1)),
        }
        self.note(ps);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact sum of all samples, in picoseconds.
    pub fn sum_ps(&self) -> u128 {
        self.sum_ps
    }

    /// Exact arithmetic mean (rounded down to a picosecond), or zero if
    /// empty.
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_ps((self.sum_ps / u128::from(self.total)) as u64)
    }

    /// Exact largest sample, or zero if empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_ps(self.max_ps)
    }

    /// Exact smallest sample, or zero if empty.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_ps(self.min_ps)
    }

    /// The `q`-quantile (q in [0, 1]) by nearest rank over the buckets, or
    /// zero if empty. Interior quantiles report the lower bound of the
    /// bucket holding the ranked sample, at most
    /// [`QUANTILE_ERROR`](Self::QUANTILE_ERROR) below the true value;
    /// `q = 0` and `q = 1` report the exact extremes.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min();
        }
        if q == 1.0 {
            return self.max();
        }
        let rank = ((self.total - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for &(b, c) in &self.buckets {
            seen += c;
            if seen > rank {
                return SimDuration::from_ps(floor(b).max(self.min_ps));
            }
        }
        self.max()
    }

    /// The `q`-quantile as printed, followed by its error bound:
    /// `171.966us (≤0.8% low)`.
    pub fn quantile_with_bound(&self, q: f64) -> String {
        format!(
            "{} (≤{:.1}% low)",
            self.quantile(q),
            Self::QUANTILE_ERROR * 100.0
        )
    }

    /// The occupied buckets as `(lower_bound_ps, count)` pairs in
    /// ascending value order — the shape a renderer needs to draw the
    /// latency distribution without reaching into the bucket encoding.
    pub fn occupied_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|&(b, c)| (floor(b), c))
    }

    /// Folds a legacy per-sample list (`{"samples_ps": [...]}`) in.
    fn read_samples(d: &mut dyn Deserializer) -> Result<Self, DeError> {
        let mut h = LatencyHistogram::new();
        d.seq_begin("LatencyHistogram.samples_ps")?;
        while d.seq_next()? {
            h.record(SimDuration::from_ps(u64::deserialize(d)?));
        }
        Ok(h)
    }
}

/// Puts `(bucket, count)` pairs in their stored form: sorted by bucket,
/// one pair per bucket holding the sum of its counts, and no zero counts.
fn fold(pairs: &mut Vec<(u64, u64)>) {
    pairs.sort_unstable_by_key(|&(b, _)| b);
    pairs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    pairs.retain(|&(_, c)| c != 0);
}

/// A [`LatencyHistogram`] being recorded at a site that records once or
/// more per task: the same buckets as a dense array of counts, grown once
/// to the highest occupied bucket (at most 7424 entries), so `record` is
/// O(1) and allocates nothing once the array covers the value range.
/// [`histogram`](Self::histogram) builds the compact value a report
/// keeps. Sites that record less often (once per service instance or per
/// re-executed task) record straight into a [`LatencyHistogram`].
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    /// `counts[b]` = samples in bucket `b`.
    counts: Vec<u64>,
    /// The exact side statistics; its buckets stay empty.
    exact: LatencyHistogram,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        let ps = d.as_ps();
        let b = bucket_of(ps);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.exact.note(ps);
    }

    /// The samples so far as a histogram, equal to recording them
    /// straight into one.
    pub fn histogram(&self) -> LatencyHistogram {
        let occupied = self.counts.iter().filter(|&&c| c != 0).count();
        let mut buckets = Vec::with_capacity(occupied);
        for (b, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                buckets.push((b as u64, c));
            }
        }
        LatencyHistogram {
            buckets,
            ..self.exact.clone()
        }
    }
}

// Hand-written serde: buckets are written sparsely as `[floor_ps, count]`
// pairs. An empty histogram has no buckets to interpret and omits the
// `sub_buckets` tag, so it serializes exactly as it did before the tag
// existed. A sum beyond `u64` is written as a decimal string. Round-trips
// bit-exactly.
impl Serialize for LatencyHistogram {
    fn serialize(&self, s: &mut dyn Serializer) {
        s.map_begin();
        s.entry("total", &self.total);
        s.map_key("sum_ps");
        match u64::try_from(self.sum_ps) {
            Ok(sum) => s.u64(sum),
            Err(_) => s.str(&self.sum_ps.to_string()),
        }
        s.entry("min_ps", &self.min_ps);
        s.entry("max_ps", &self.max_ps);
        if self.total != 0 {
            s.entry("sub_buckets", &SUB);
        }
        s.map_key("buckets");
        s.seq_begin();
        for pair in self.occupied_buckets() {
            pair.serialize(s);
        }
        s.seq_end();
        s.map_end();
    }
}

impl Deserialize for LatencyHistogram {
    fn deserialize(d: &mut dyn Deserializer) -> Result<Self, DeError> {
        const TY: &str = "LatencyHistogram";
        const FIELDS: &[&str] = &[
            "samples_ps",
            "sum_ps",
            "total",
            "min_ps",
            "max_ps",
            "sub_buckets",
            "buckets",
        ];
        // A legacy sample list wins over every other key, wherever it
        // stands in the map. So each other value is read into a slot with
        // its error kept, and the slots are checked in a fixed order once
        // the map is closed: `sum_ps`, the three counters, then the
        // buckets pair by pair.
        let mut samples = None;
        let mut sum_ps = None;
        let mut counters: [Option<Result<u64, DeError>>; 3] = [None, None, None];
        let mut tagged = false;
        let mut buckets = None;
        let mut seen = [false; 7];
        d.map_begin(TY)?;
        while let Some(field) = d.field(FIELDS, &mut seen)? {
            let Field::Present(i) = field else { continue };
            match i {
                // A bad sample is the error, whatever else the map holds.
                0 => samples = Some(Self::read_samples(d)?),
                1 => sum_ps = Some(serde::attempt(d, read_sum)?),
                2..=4 => {
                    let key = FIELDS[i];
                    counters[i - 2] = Some(serde::attempt(d, |d| serde::field(d, TY, key))?);
                }
                5 => {
                    tagged = true;
                    d.skip()?;
                }
                _ => {
                    let mut pairs = Vec::new();
                    let read = serde::attempt(d, |d| read_pairs(d, &mut pairs))?;
                    buckets = Some((pairs, read));
                }
            }
        }
        if let Some(samples) = samples {
            return Ok(samples);
        }
        let sum_ps =
            sum_ps.ok_or_else(|| DeError::new(format!("{TY}: missing field `sum_ps`")))??;
        let [total, min_ps, max_ps] = [2, 3, 4].map(|i| {
            counters[i - 2]
                .take()
                .unwrap_or_else(|| serde::missing(TY, FIELDS[i]))
        });
        let (total, min_ps, max_ps) = (total?, min_ps?, max_ps?);
        // The pairs read become the buckets, decoded in place now that the
        // tag is known: tagged keys are floors, untagged ones legacy
        // 16-sub-bucket indices decoded to their floor, and either floor is
        // re-bucketed by value, never by index.
        let (mut pairs, read) =
            buckets.ok_or_else(|| DeError::new(format!("{TY}: missing field `buckets`")))?;
        let mut restored = 0u64;
        for (key, count) in &mut pairs {
            restored = restored
                .checked_add(*count)
                .ok_or_else(|| DeError::new(format!("{TY}: bucket counts overflow")))?;
            let floor = if tagged {
                *key
            } else {
                bucket_floor(LEGACY_SUB_BITS, *key).ok_or_else(|| {
                    DeError::new(format!("{TY}: legacy bucket index {key} out of range"))
                })?
            };
            *key = bucket_of(floor) as u64;
        }
        // The pairs before a bad one come first, as a pair-by-pair read
        // meets them.
        read?;
        if restored != total {
            return Err(DeError::new(format!(
                "{TY}: bucket counts sum to {restored}, total says {total}"
            )));
        }
        // Floors may come in any order and repeat, and counts may be zero.
        fold(&mut pairs);
        pairs.shrink_to_fit();
        Ok(LatencyHistogram {
            buckets: pairs,
            total,
            sum_ps,
            min_ps,
            max_ps,
        })
    }
}

/// A histogram's `sum_ps`: an integer, or a decimal string past `u64`.
fn read_sum(d: &mut dyn Deserializer) -> Result<u128, DeError> {
    if d.kind()? == Kind::Str {
        let s = d.str()?;
        return s
            .parse()
            .map_err(|e| DeError::new(format!("LatencyHistogram.sum_ps {s:?}: {e}")));
    }
    u64::deserialize(d).map(u128::from)
}

/// A histogram's `[key, count]` bucket pairs, into `pairs` until the
/// first bad one.
fn read_pairs(d: &mut dyn Deserializer, pairs: &mut Vec<(u64, u64)>) -> Result<(), DeError> {
    d.seq_begin("LatencyHistogram.buckets")?;
    while d.seq_next()? {
        let len = d.seq_begin("LatencyHistogram bucket pair")?;
        if len.is_some_and(|n| n != 2) {
            return Err(DeError::new("LatencyHistogram bucket pair must be [b, n]"));
        }
        let pair = (serde::element(d)?, serde::element(d)?);
        serde::tuple_end(d)?;
        pairs.push(pair);
    }
    Ok(())
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.count(),
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }
}

/// A named set of monotonically increasing event counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Counters {
    /// Tasks that completed execution.
    pub tasks_completed: u64,
    /// DVFS reconfigurations requested.
    pub reconfigs_requested: u64,
    /// DVFS reconfigurations that actually changed a core's level.
    pub reconfigs_applied: u64,
    /// Reconfigurations skipped because the target level was already set.
    pub reconfigs_noop: u64,
    /// Times a critical task could not be accelerated (no budget, all
    /// accelerated cores running critical tasks) — the residual priority
    /// inversion CATA cannot fix.
    pub accel_denied: u64,
    /// Times an accelerated non-critical task was decelerated to make room
    /// for a critical one (the CATA "swap").
    pub accel_swaps: u64,
    /// Tasks that were stolen across the HPRQ/LPRQ boundary.
    pub cross_queue_steals: u64,
    /// Core halt (C1 entry) events.
    pub halts: u64,
    /// Discrete events processed by the simulation engine (the denominator
    /// of the events/sec perf metric; zero for native runs).
    pub sim_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyHistogram::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.max(), SimDuration::ZERO);
        assert_eq!(s.quantile(0.5), SimDuration::ZERO);
    }

    #[test]
    fn summary_statistics() {
        let mut s = LatencyHistogram::new();
        for us in [10u64, 20, 30, 40, 100] {
            s.record(SimDuration::from_us(us));
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), SimDuration::from_us(40));
        assert_eq!(s.min(), SimDuration::from_us(10));
        assert_eq!(s.max(), SimDuration::from_us(100));
        assert_eq!(s.sum_ps(), 200_000_000);
        assert_eq!(s.quantile(0.0), SimDuration::from_us(10));
        assert_eq!(s.quantile(1.0), SimDuration::from_us(100));
        // The median is the floor of 30 µs's bucket: 128 + 100 steps of
        // 2^17 ps, within 1/128 below the exact value.
        assert_eq!(s.quantile(0.5), SimDuration::from_ps(228 << 17));
        let exact = SimDuration::from_us(30).as_ps();
        assert!(exact - s.quantile(0.5).as_ps() <= exact / 128);
    }

    #[test]
    fn quantile_after_record_resorts() {
        let mut s = LatencyHistogram::new();
        s.record(SimDuration::from_us(10));
        assert_eq!(s.quantile(1.0), SimDuration::from_us(10));
        s.record(SimDuration::from_us(5));
        assert_eq!(s.quantile(0.0), SimDuration::from_us(5));
    }

    #[test]
    fn occupied_buckets_cover_every_sample_in_order() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 5, 5, 900, 12_000] {
            h.record(SimDuration::from_us(us));
        }
        let buckets: Vec<(u64, u64)> = h.occupied_buckets().collect();
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "{buckets:?}");
        assert!(buckets.iter().all(|&(floor, _)| floor <= h.max().as_ps()));
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_monotone() {
        // Every value maps into a bucket whose floor is <= it and maps
        // back to it, and bucket indices never decrease as values grow.
        let mut prev = 0usize;
        for ps in (0u64..40_000).chain([1 << 20, 1 << 40, u64::MAX - 1, u64::MAX]) {
            let b = bucket_of(ps);
            assert!(b >= prev, "monotone at {ps}");
            let floor = bucket_floor(SUB_BITS, b as u64).expect("in range");
            assert!(floor <= ps, "floor at {ps}");
            assert_eq!(bucket_of(floor), b, "floor of {ps} maps back");
            prev = b;
        }
        assert_eq!(bucket_floor(SUB_BITS, prev as u64 + 1), None, "last bucket");
        // Small values are exact.
        for ps in 0u64..SUB {
            assert_eq!(bucket_floor(SUB_BITS, bucket_of(ps) as u64), Some(ps));
        }
        // Every legacy 16-sub-bucket floor is itself a bucket floor, so a
        // folded legacy histogram reads the quantiles it read before.
        let mut b = 0;
        while let Some(floor) = bucket_floor(LEGACY_SUB_BITS, b) {
            assert_eq!(bucket_floor(SUB_BITS, bucket_of(floor) as u64), Some(floor));
            b += 1;
        }
        assert_eq!(b, 976, "legacy bucket count");
    }

    #[test]
    fn histogram_serde_round_trips() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 5, 5, 900, 12_000] {
            h.record(SimDuration::from_us(us));
        }
        let v = h.to_value();
        let back = LatencyHistogram::from_value(&v).expect("round trip");
        assert_eq!(h, back);
        // Empty histograms round-trip too, in the untagged form.
        let e = LatencyHistogram::new();
        assert_eq!(e.to_value().get("sub_buckets"), None);
        assert_eq!(LatencyHistogram::from_value(&e.to_value()).unwrap(), e);
        // A sum past u64 survives as a decimal string.
        let mut big = LatencyHistogram::new();
        big.record(SimDuration::MAX);
        big.record(SimDuration::MAX);
        assert_eq!(big.sum_ps(), 2 * u128::from(u64::MAX));
        assert_eq!(LatencyHistogram::from_value(&big.to_value()).unwrap(), big);
    }

    fn map(fields: &[(&str, Value)]) -> Value {
        Value::Map(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    fn pair(a: u64, b: u64) -> Value {
        Value::Seq(vec![Value::U64(a), Value::U64(b)])
    }

    #[test]
    fn legacy_sample_lists_fold_in_exactly() {
        let samples = [0u64, 0, 7, 3_300_000, 23_100_000];
        let legacy = map(&[
            (
                "samples_ps",
                Value::Seq(samples.iter().map(|&s| Value::U64(s)).collect()),
            ),
            ("sorted", Value::Bool(false)),
        ]);
        let mut want = LatencyHistogram::new();
        for s in samples {
            want.record(SimDuration::from_ps(s));
        }
        assert_eq!(LatencyHistogram::from_value(&legacy).unwrap(), want);
        // A bad sample is the error, whatever else the map holds.
        let bad = map(&[
            ("total", Value::Str("x".into())),
            (
                "samples_ps",
                Value::Seq(vec![Value::U64(1), Value::Str("2".into())]),
            ),
        ]);
        let err = LatencyHistogram::from_value(&bad).unwrap_err();
        assert_eq!(err.to_string(), "expected an integer, found string");
    }

    #[test]
    fn legacy_16_sub_bucket_indices_fold_in_by_floor() {
        // Legacy index 355 is octave 25, sub-bucket 3: floor 19 << 21.
        // Read as a 128-sub-bucket index it would be a few hundred ps.
        let legacy = map(&[
            ("total", Value::U64(3)),
            ("sum_ps", Value::U64(120_000_000)),
            ("min_ps", Value::U64(0)),
            ("max_ps", Value::U64(41_000_000)),
            ("buckets", Value::Seq(vec![pair(0, 1), pair(355, 2)])),
        ]);
        let h = LatencyHistogram::from_value(&legacy).unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), SimDuration::from_ps(40_000_000));
        assert_eq!(h.quantile(0.99), SimDuration::from_ps(19 << 21));
        assert_eq!(
            h.occupied_buckets().collect::<Vec<_>>(),
            vec![(0, 1), (19 << 21, 2)]
        );
        // An index past the last legacy bucket is an error, not a panic.
        let bad = map(&[
            ("total", Value::U64(1)),
            ("sum_ps", Value::U64(1)),
            ("min_ps", Value::U64(1)),
            ("max_ps", Value::U64(1)),
            ("buckets", Value::Seq(vec![pair(976, 1)])),
        ]);
        assert!(LatencyHistogram::from_value(&bad).is_err());
    }

    #[test]
    fn printed_quantiles_state_the_bound() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_ps(171_966_464));
        assert_eq!(LatencyHistogram::QUANTILE_ERROR, 1.0 / 128.0);
        assert_eq!(h.quantile_with_bound(0.99), "171.966us (≤0.8% low)");
    }
}
