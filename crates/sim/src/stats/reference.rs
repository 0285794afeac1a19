//! The dense latency histogram the sparse [`super::LatencyHistogram`]
//! replaced, kept as a test reference: one `u64` count per bucket up to
//! the highest occupied one. The sparse histogram must agree with it on
//! every statistic, every serialized byte and every read outcome, and a
//! [`super::LatencyRecorder`] must build the histogram that recording the
//! same samples straight into one builds.

use crate::time::SimDuration;
use serde::{DeError, Deserialize, Deserializer, Field, Kind, Serialize, Serializer};

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const LEGACY_SUB_BITS: u32 = 4;

fn bucket_of(ps: u64) -> usize {
    if ps < SUB {
        return ps as usize;
    }
    let exp = 63 - ps.leading_zeros();
    let sub = (ps >> (exp - SUB_BITS)) & (SUB - 1);
    ((u64::from(exp - SUB_BITS + 1) * SUB) + sub) as usize
}

fn bucket_floor(sub_bits: u32, b: u64) -> Option<u64> {
    let sub = 1u64 << sub_bits;
    if b < sub {
        return Some(b);
    }
    let exp = b / sub + u64::from(sub_bits) - 1;
    (exp < 64).then(|| (sub + b % sub) << (exp - u64::from(sub_bits)))
}

/// The dense histogram, as it was.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ps: u128,
    min_ps: u64,
    max_ps: u64,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    fn add_to_bucket(&mut self, ps: u64, count: u64) {
        let b = bucket_of(ps);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += count;
    }

    pub fn record(&mut self, d: SimDuration) {
        let ps = d.as_ps();
        self.add_to_bucket(ps, 1);
        self.total += 1;
        self.sum_ps += u128::from(ps);
        self.max_ps = self.max_ps.max(ps);
        self.min_ps = if self.total == 1 {
            ps
        } else {
            self.min_ps.min(ps)
        };
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn sum_ps(&self) -> u128 {
        self.sum_ps
    }

    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_ps((self.sum_ps / u128::from(self.total)) as u64)
    }

    pub fn max(&self) -> SimDuration {
        SimDuration::from_ps(self.max_ps)
    }

    pub fn min(&self) -> SimDuration {
        SimDuration::from_ps(self.min_ps)
    }

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
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return SimDuration::from_ps(self.floor(b).max(self.min_ps));
            }
        }
        self.max()
    }

    fn floor(&self, b: usize) -> u64 {
        bucket_floor(SUB_BITS, b as u64).expect("occupied buckets are in range")
    }

    pub fn occupied_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(b, &c)| (self.floor(b), c))
    }

    fn read_samples(d: &mut dyn Deserializer) -> Result<Self, DeError> {
        let mut h = LatencyHistogram::new();
        d.seq_begin("LatencyHistogram.samples_ps")?;
        while d.seq_next()? {
            h.record(SimDuration::from_ps(u64::deserialize(d)?));
        }
        Ok(h)
    }
}

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
        let mut h = LatencyHistogram {
            counts: Vec::new(),
            total: total?,
            sum_ps,
            min_ps: min_ps?,
            max_ps: max_ps?,
        };
        let (pairs, read) =
            buckets.ok_or_else(|| DeError::new(format!("{TY}: missing field `buckets`")))?;
        let mut restored = 0u64;
        for (key, count) in pairs {
            restored = restored
                .checked_add(count)
                .ok_or_else(|| DeError::new(format!("{TY}: bucket counts overflow")))?;
            let floor = if tagged {
                key
            } else {
                bucket_floor(LEGACY_SUB_BITS, key).ok_or_else(|| {
                    DeError::new(format!("{TY}: legacy bucket index {key} out of range"))
                })?
            };
            h.add_to_bucket(floor, count);
        }
        read?;
        if restored != h.total {
            return Err(DeError::new(format!(
                "{TY}: bucket counts sum to {restored}, total says {}",
                h.total
            )));
        }
        Ok(h)
    }
}

fn read_sum(d: &mut dyn Deserializer) -> Result<u128, DeError> {
    if d.kind()? == Kind::Str {
        let s = d.str()?;
        return s
            .parse()
            .map_err(|e| DeError::new(format!("LatencyHistogram.sum_ps {s:?}: {e}")));
    }
    u64::deserialize(d).map(u128::from)
}

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

/// The histogram in use against the dense one, over random sample
/// multisets and serialized forms both well-formed and not; and
/// the recorder against the histogram.
mod differential {
    use super::{bucket_floor, LatencyHistogram as Dense, SUB, SUB_BITS};
    use crate::stats::{LatencyHistogram, LatencyRecorder};
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use serde::Deserialize;

    const QS: [f64; 16] = [
        -0.5,
        0.0,
        1e-9,
        0.001,
        0.01,
        0.1,
        0.25,
        0.5,
        0.75,
        0.9,
        0.99,
        0.999,
        1.0 - 1e-12,
        1.0,
        1.5,
        f64::NAN,
    ];

    /// A picosecond value of kind `kind`: 0 ps, an exact bucket below
    /// 128 ps, an octave edge or a bucket floor (±1), a value near
    /// `u64::MAX`, a spread value, or a repeat of an earlier one.
    fn latency(kind: u8, raw: u64, earlier: &[u64]) -> u64 {
        match kind % 8 {
            0 => 0,
            1 => raw % SUB,
            2 => {
                let edge = 1u64 << (SUB_BITS as u64 + raw % 57);
                [edge - 1, edge, edge + 1][(raw >> 8) as usize % 3]
            }
            3 => {
                let floor = bucket_floor(SUB_BITS, raw % 7424).expect("a bucket");
                floor.saturating_add((raw >> 16) % 3).saturating_sub(1)
            }
            4 => u64::MAX - raw % 4,
            5 => raw % (1 << 40),
            6 if !earlier.is_empty() => earlier[raw as usize % earlier.len()],
            _ => raw,
        }
    }

    fn samples(draws: &[(u8, u64)]) -> Vec<u64> {
        let mut out = Vec::with_capacity(draws.len());
        for &(kind, raw) in draws {
            let ps = latency(kind, raw, &out);
            out.push(ps);
        }
        out
    }

    /// Asserts that `h` and `r` agree on every statistic and every
    /// serialized byte.
    fn agree(h: &LatencyHistogram, r: &Dense) {
        assert_eq!(h.count(), r.count());
        assert_eq!(h.sum_ps(), r.sum_ps());
        assert_eq!(h.min(), r.min());
        assert_eq!(h.max(), r.max());
        assert_eq!(h.mean(), r.mean());
        for q in QS {
            assert_eq!(h.quantile(q), r.quantile(q), "q={q}");
        }
        assert_eq!(
            h.occupied_buckets().collect::<Vec<_>>(),
            r.occupied_buckets().collect::<Vec<_>>()
        );
        assert_eq!(
            serde_json::to_string(h).expect("writes"),
            serde_json::to_string(r).expect("writes")
        );
    }

    /// Both reads of `text` — straight over the text, and over its value
    /// tree — give the same value, by its bytes, or the same error text.
    fn same_read(text: &str) {
        fn outcome<T: Deserialize + serde::Serialize>(read: Result<T, String>) -> String {
            match read {
                Ok(h) => format!("ok {}", serde_json::to_string(&h).expect("writes")),
                Err(e) => format!("error {e}"),
            }
        }
        let (new, old) = (
            serde_json::from_str::<LatencyHistogram>(text),
            serde_json::from_str::<Dense>(text),
        );
        if let (Ok(n), Ok(o)) = (&new, &old) {
            agree(n, o);
        }
        assert_eq!(
            outcome(new.map_err(|e| e.to_string())),
            outcome(old.map_err(|e| e.to_string())),
            "{text}"
        );
        if let Ok(tree) = serde_json::parse_value(text) {
            assert_eq!(
                outcome(LatencyHistogram::from_value(&tree).map_err(|e| e.to_string())),
                outcome(Dense::from_value(&tree).map_err(|e| e.to_string())),
                "tree of {text}"
            );
        }
    }

    /// A small deterministic stream for shuffles and picks.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) % n.max(1) as u64) as usize
        }

        fn shuffle<T>(&mut self, v: &mut [T]) {
            for i in (1..v.len()).rev() {
                v.swap(i, self.next(i + 1));
            }
        }
    }

    fn pairs(pairs: &[(u64, u64)]) -> String {
        let items: Vec<String> = pairs.iter().map(|(k, c)| format!("[{k},{c}]")).collect();
        format!("[{}]", items.join(","))
    }

    fn doc(fields: &[(&str, String)]) -> String {
        let items: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", items.join(","))
    }

    /// A `sub_buckets` tag's value, and whether it trails the buckets.
    fn tag(s: &mut Stream) -> (&'static str, bool) {
        (["128", "16", "\"x\""][s.next(3)], s.next(2) == 0)
    }

    /// The stored forms of the histogram of `xs`, well-formed and not.
    fn forms(xs: &[u64], s: &mut Stream) -> Vec<String> {
        let mut r = Dense::new();
        for &x in xs {
            r.record(SimDuration::from_ps(x));
        }
        let canonical = serde_json::to_string(&r).expect("writes");
        let buckets: Vec<(u64, u64)> = r.occupied_buckets().collect();
        let sum = match u64::try_from(r.sum_ps()) {
            Ok(sum) => sum.to_string(),
            Err(_) => format!("\"{}\"", r.sum_ps()),
        };
        let head = |total: u64| {
            vec![
                ("total", total.to_string()),
                ("sum_ps", sum.clone()),
                ("min_ps", r.min().as_ps().to_string()),
                ("max_ps", r.max().as_ps().to_string()),
            ]
        };
        // The tag leads or trails the buckets; a reader never looks at
        // its value.
        let tagged = |total: u64, body: String, tag: (&str, bool)| {
            let mut fields = head(total);
            let (value, last) = tag;
            if last {
                fields.push(("buckets", body));
                fields.push(("sub_buckets", value.to_string()));
            } else {
                fields.push(("sub_buckets", value.to_string()));
                fields.push(("buckets", body));
            }
            doc(&fields)
        };
        let total = r.count();
        let mut out = vec![canonical.clone()];

        // The tag after the buckets.
        out.push(tagged(total, pairs(&buckets), ("128", true)));

        // One pair per sample, in any order: repeated floors, and keys
        // that are not floors, are re-bucketed by value.
        let mut each: Vec<(u64, u64)> = xs.iter().map(|&x| (x, 1)).collect();
        s.shuffle(&mut each);
        out.push(tagged(total, pairs(&each), tag(s)));

        // Zero counts, anywhere, under any key.
        let mut zeros = buckets.clone();
        for _ in 0..1 + s.next(3) {
            let key = [0, 5, 1 << 20, u64::MAX][s.next(4)];
            zeros.insert(s.next(zeros.len() + 1), (key, 0));
        }
        out.push(tagged(total, pairs(&zeros), tag(s)));

        // Counts that overflow a u64 before they sum to the total.
        let mut overflow = buckets.clone();
        overflow.insert(s.next(overflow.len() + 1), (7, u64::MAX));
        out.push(tagged(total, pairs(&overflow), tag(s)));

        // A total the buckets do not sum to.
        out.push(tagged(total.wrapping_add(1), pairs(&buckets), tag(s)));

        // A malformed pair between well-formed ones.
        let mut text: Vec<String> = buckets.iter().map(|(k, c)| format!("[{k},{c}]")).collect();
        let bad = ["[1,2,3]", "[\"x\",1]", "[5]", "7", "[1,-1]"][s.next(5)];
        text.insert(s.next(text.len() + 1), bad.to_string());
        out.push(tagged(total, format!("[{}]", text.join(",")), tag(s)));

        // A malformed pair after a fault in the pairs before it: counts
        // that overflow, or a legacy index past the last bucket.
        let mut fields = head(total);
        if s.next(2) == 0 {
            fields.push(("sub_buckets", "128".into()));
            fields.push(("buckets", format!("[[1,1],[7,{}],{bad}]", u64::MAX)));
        } else {
            fields.push(("buckets", format!("[[977,1],{bad}]")));
        }
        out.push(doc(&fields));

        // Legacy 16-sub-bucket indices, a few past the last one.
        let legacy: Vec<(u64, u64)> = (0..s.next(6))
            .map(|_| (s.next(980) as u64, 1 + s.next(3) as u64))
            .collect();
        let legacy_total: u64 = legacy.iter().map(|&(_, c)| c).sum();
        let mut fields = head(legacy_total);
        fields.push(("buckets", pairs(&legacy)));
        out.push(doc(&fields));

        // A legacy sample list, with and without other keys beside it.
        let list: Vec<String> = xs.iter().map(u64::to_string).collect();
        let list = format!("[{}]", list.join(","));
        out.push(doc(&[
            ("samples_ps", list.clone()),
            ("sorted", "true".into()),
        ]));
        out.push(doc(&[("total", "\"x\"".into()), ("samples_ps", list)]));

        // A field missing.
        let mut fields = head(total);
        fields.push(("buckets", pairs(&buckets)));
        fields.remove(s.next(fields.len()));
        out.push(doc(&fields));

        // Truncations of the stored form.
        for _ in 0..3 {
            out.push(canonical[..s.next(canonical.len())].to_string());
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn records_match_the_dense_histogram(
            draws in prop::collection::vec((0u8..8, any::<u64>(), 0u8..4), 0..300),
        ) {
            let xs = samples(&draws.iter().map(|&(k, raw, _)| (k, raw)).collect::<Vec<_>>());
            let mut new: Vec<LatencyHistogram> = vec![LatencyHistogram::new(); 4];
            let mut old: Vec<Dense> = vec![Dense::new(); 4];
            let mut recorders: Vec<LatencyRecorder> = vec![LatencyRecorder::new(); 4];
            for (&x, &(_, _, into)) in xs.iter().zip(&draws) {
                let d = SimDuration::from_ps(x);
                new[usize::from(into)].record(d);
                old[usize::from(into)].record(d);
                recorders[usize::from(into)].record(d);
            }
            for ((h, r), rec) in new.iter().zip(&old).zip(&recorders) {
                agree(h, r);
                prop_assert_eq!(&rec.histogram(), h);
            }
        }

        #[test]
        fn reads_match_the_dense_histogram(
            draws in prop::collection::vec((0u8..8, any::<u64>()), 0..40),
            seed in any::<u64>(),
        ) {
            let xs = samples(&draws);
            let mut s = Stream(seed);
            for text in forms(&xs, &mut s) {
                same_read(&text);
            }
        }
    }
}
