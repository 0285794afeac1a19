//! Traffic tapes: replayable arrival streams.
//!
//! A tape is the service-mode analogue of a captured TDG — the *traffic*
//! as a first-class, storable artifact. Generated runs (Poisson / fixed
//! rate) record the tape they drew; `repro serve --tape` replays one, and
//! replaying reproduces the original run bit-identically because the
//! engine consumes tapes, never raw RNG draws.
//!
//! File form (`.tape.jsonl`): a header line
//! `{"schema":"cata-tape/v1","name":…,"workloads":[…],"digest":…}`
//! followed by one `{"at_ps":…,"workload":…,"tenant":…}` record per
//! line. The digest covers name + workloads + records, so a tape file
//! cannot silently drift from the traffic it claims to carry.

use super::spec::ArrivalSpec;
use crate::exp::error::ExpError;
use crate::exp::spec::WorkloadSpec;
use crate::exp::store::JsonlLines;
use cata_sim::time::SimDuration;
use cata_tdg::fnv1a_hex;
use serde::{Deserialize, Serialize};

/// Schema tag of the tape JSONL header.
pub const TAPE_SCHEMA: &str = "cata-tape/v1";

/// One arrival: a graph instance of `workloads[workload]` entering the
/// system at `at_ps`, tagged with a tenant id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TapeRecord {
    /// Arrival instant, picoseconds since simulation start.
    pub at_ps: u64,
    /// Index into the tape's workload table.
    pub workload: u32,
    /// Tenant tag (0 for generated traffic); admission policies may use
    /// it.
    pub tenant: u32,
}

/// The header line of a tape file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TapeHeader {
    schema: String,
    name: String,
    workloads: Vec<WorkloadSpec>,
    digest: String,
}

/// A replayable arrival stream: the workload table plus the time-ordered
/// arrival records, content-digested.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficTape {
    /// Human-readable tape name.
    pub name: String,
    /// The distinct workload templates instances are stamped from;
    /// records index into this table.
    pub workloads: Vec<WorkloadSpec>,
    /// Arrivals in nondecreasing time order.
    pub records: Vec<TapeRecord>,
    /// Content digest over name + workloads + records; `""` means "not
    /// yet stamped".
    pub digest: String,
}

impl TrafficTape {
    /// Computes the content digest (FNV-1a over the compact JSON of
    /// `[name, workloads, records]`).
    pub fn content_digest(&self) -> String {
        let payload = (&self.name, &self.workloads, &self.records);
        let text = serde_json::to_string(&payload).expect("tape digests");
        fnv1a_hex(text.bytes())
    }

    /// Stamps `digest` from the current content.
    pub fn refresh_digest(&mut self) {
        self.digest = self.content_digest();
    }

    /// Structural + integrity check; returns the verified content
    /// digest. An empty stored digest opts out of the integrity pin
    /// (hand-authored tapes) but still gets the structural checks.
    pub fn verify(&self) -> Result<String, ExpError> {
        let actual = self.content_digest();
        if !self.digest.is_empty() && self.digest != actual {
            return Err(ExpError::Parse(format!(
                "tape `{}` digest mismatch: stored {}, content {}",
                self.name, self.digest, actual
            )));
        }
        let mut last = 0u64;
        for (i, r) in self.records.iter().enumerate() {
            if r.at_ps < last {
                return Err(ExpError::Parse(format!(
                    "tape `{}` record {i} goes back in time ({} < {last})",
                    self.name, r.at_ps
                )));
            }
            last = r.at_ps;
            if r.workload as usize >= self.workloads.len() {
                return Err(ExpError::Parse(format!(
                    "tape `{}` record {i} names workload {} but the table has {}",
                    self.name,
                    r.workload,
                    self.workloads.len()
                )));
            }
        }
        Ok(actual)
    }

    /// Serializes to the JSONL file form (header + one record per line).
    pub fn to_jsonl(&self) -> String {
        let header = TapeHeader {
            schema: TAPE_SCHEMA.to_string(),
            name: self.name.clone(),
            workloads: self.workloads.clone(),
            digest: self.digest.clone(),
        };
        let mut out = serde_json::to_string(&header).expect("tape header serializes");
        out.push('\n');
        for r in &self.records {
            out.push_str(&serde_json::to_string(r).expect("tape record serializes"));
            out.push('\n');
        }
        out
    }

    /// Parses the JSONL file form. Sugar for
    /// [`parse_jsonl`](Self::parse_jsonl) that drops the torn-tail flag.
    pub fn from_jsonl(text: &str) -> Result<Self, ExpError> {
        Self::parse_jsonl(text).map(|(tape, _)| tape)
    }

    /// Parses the JSONL file form, tolerating a torn trailing line.
    ///
    /// Returns the tape plus whether a torn tail was discarded. Same
    /// policy as the results store: [`to_jsonl`](Self::to_jsonl) writes
    /// every line with its newline, so a killed writer can only leave a
    /// *final line missing its `\n`* — that fragment is discarded (the
    /// returned flag lets callers warn). Any unparseable line that kept
    /// its newline completed its write and is therefore real corruption —
    /// a hard error naming the line, never silently truncated.
    pub fn parse_jsonl(text: &str) -> Result<(Self, bool), ExpError> {
        Self::parse_bytes(text.as_bytes())
    }

    /// [`parse_jsonl`](Self::parse_jsonl) over raw file bytes, where the
    /// torn fragment may end inside a multi-byte character.
    fn parse_bytes(bytes: &[u8]) -> Result<(Self, bool), ExpError> {
        let lines = JsonlLines::new(bytes);
        let mut header: Option<TapeHeader> = None;
        let mut records = Vec::new();
        for line in lines.numbered(1) {
            let (no, line) = line.map_err(ExpError::Parse)?;
            if line.trim().is_empty() {
                continue;
            }
            if header.is_none() {
                let h: TapeHeader = serde_json::from_str(line)
                    .map_err(|e| ExpError::Parse(format!("line {no}: tape header: {e}")))?;
                if h.schema != TAPE_SCHEMA {
                    return Err(ExpError::Parse(format!(
                        "line {no}: tape schema `{}` is not `{TAPE_SCHEMA}`",
                        h.schema
                    )));
                }
                header = Some(h);
            } else {
                let r: TapeRecord = serde_json::from_str(line).map_err(|e| {
                    ExpError::Parse(format!("line {no}: tape record {}: {e}", records.len()))
                })?;
                records.push(r);
            }
        }
        let header = header.ok_or_else(|| ExpError::Parse("empty tape file".to_string()))?;
        Ok((
            TrafficTape {
                name: header.name,
                workloads: header.workloads,
                records,
                digest: header.digest,
            },
            lines.torn,
        ))
    }

    /// Loads a tape file from disk. Errors carry the offending path —
    /// "no such file" without a name helps nobody. Returns the tape plus
    /// the torn-tail flag from [`parse_jsonl`](Self::parse_jsonl).
    ///
    /// A truncated tape no longer matches its stored digest (the digest
    /// covers the records), so callers replaying a torn tape through
    /// [`verify`](Self::verify) still get the integrity error; the flag
    /// exists to *explain* it and to let explicit-recovery flows proceed.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<(Self, bool), ExpError> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| ExpError::Parse(format!("{}: {e}", path.display())))?;
        Self::parse_bytes(&bytes).map_err(|e| match e {
            ExpError::Parse(msg) => ExpError::Parse(format!("{}: {msg}", path.display())),
            other => other,
        })
    }

    /// Generates a tape from a rate-based arrival process: one workload
    /// template, arrivals in `(0, duration]`, tenant 0, digest stamped.
    ///
    /// Deterministic for a given `(arrival, duration, seed)` — including
    /// across platforms: the exponential sampler below never calls libm.
    pub fn generate(
        name: impl Into<String>,
        arrival: &ArrivalSpec,
        duration: SimDuration,
        workload: WorkloadSpec,
        seed: u64,
    ) -> Result<Self, ExpError> {
        let horizon = duration.as_ps();
        let mut records = Vec::new();
        match *arrival {
            ArrivalSpec::Fixed { rate_hz } => {
                check_rate(rate_hz)?;
                let step = ((1e12 / rate_hz).round() as u64).max(1);
                let mut t = step;
                while t <= horizon {
                    records.push(TapeRecord {
                        at_ps: t,
                        workload: 0,
                        tenant: 0,
                    });
                    t = t.saturating_add(step);
                }
            }
            ArrivalSpec::Poisson { rate_hz } => {
                check_rate(rate_hz)?;
                let mut rng = SplitMix64::new(seed);
                let mut t = 0u64;
                loop {
                    // Exponential interarrival with mean 1/rate, floored
                    // to 1 ps so arrivals strictly advance.
                    let u = rng.next_unit();
                    let dt_s = det_neg_ln_1p(u) / rate_hz;
                    let dt = ((dt_s * 1e12).round() as u64).max(1);
                    t = t.saturating_add(dt);
                    if t > horizon {
                        break;
                    }
                    records.push(TapeRecord {
                        at_ps: t,
                        workload: 0,
                        tenant: 0,
                    });
                }
            }
            ArrivalSpec::Tape { .. } => {
                return Err(ExpError::InvalidSpec(
                    "cannot generate traffic from a tape-pinned arrival spec; \
                     load the tape file and replay it"
                        .to_string(),
                ));
            }
        }
        let mut tape = TrafficTape {
            name: name.into(),
            workloads: vec![workload],
            records,
            digest: String::new(),
        };
        tape.refresh_digest();
        Ok(tape)
    }
}

fn check_rate(rate_hz: f64) -> Result<(), ExpError> {
    if !rate_hz.is_finite() || rate_hz <= 0.0 {
        return Err(ExpError::InvalidSpec(format!(
            "arrival rate must be finite and positive, got {rate_hz}"
        )));
    }
    Ok(())
}

use cata_sim::seeded::SplitMix64;

/// `-ln(1 - u)` for `u ∈ [0, 1)`, computed without libm.
///
/// Platform libms differ in the last ulp of `ln`, which would make tape
/// generation machine-dependent. This uses only IEEE-exact operations
/// (multiply by 2, add, divide) plus a truncated atanh series, so the
/// result is bit-identical everywhere: write `x = m·2ᵉ` with
/// `m ∈ [0.5, 1)`, then `ln x = e·ln2 + 2·atanh((m−1)/(m+1))`.
fn det_neg_ln_1p(u: f64) -> f64 {
    let x = 1.0 - u; // ∈ (0, 1]
    debug_assert!(x > 0.0 && x <= 1.0);
    if x == 1.0 {
        return 0.0;
    }
    // Normalize: multiplying by 2 is exact for finite normals, and
    // x ≥ 2⁻⁵³ here (u has 53 fractional bits), so this terminates fast.
    let mut m = x;
    let mut e = 0i64;
    while m < 0.5 {
        m *= 2.0;
        e -= 1;
    }
    let z = (m - 1.0) / (m + 1.0);
    let z2 = z * z;
    let mut term = z;
    let mut sum = z;
    // |z| ≤ 1/3 ⇒ the series gains ≥ 3 bits per term; 24 terms far
    // exceed double precision, and the fixed count keeps rounding
    // identical regardless of early-exit heuristics.
    for k in 1..24i64 {
        term *= z2;
        sum += term / (2 * k + 1) as f64;
    }
    let ln_x = e as f64 * std::f64::consts::LN_2 + 2.0 * sum;
    -ln_x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fork_join() -> WorkloadSpec {
        WorkloadSpec::ForkJoin {
            waves: 1,
            width: 2,
            cycles: 10_000,
        }
    }

    #[test]
    fn deterministic_ln_matches_libm_closely() {
        // Compare on the exact survivor x = 1 - u the sampler computes
        // (evaluating at a decimal x directly would smuggle in the
        // rounding of `1 - x` and swamp the series' own error).
        for &u in &[
            0.015625,
            0.25,
            0.5,
            0.75,
            0.9,
            0.99,
            0.9999,
            0.999999999,
            0.999999999999999,
        ] {
            let x = 1.0 - u;
            let ours = det_neg_ln_1p(u);
            let libm = -x.ln();
            let err = (ours - libm).abs() / libm.abs().max(1e-300);
            assert!(err < 1e-14, "u={u}: ours={ours} libm={libm}");
        }
        assert_eq!(det_neg_ln_1p(0.0), 0.0);
    }

    #[test]
    fn fixed_rate_tapes_are_evenly_spaced() {
        let tape = TrafficTape::generate(
            "t",
            &ArrivalSpec::Fixed { rate_hz: 1000.0 },
            SimDuration::from_ms(10),
            fork_join(),
            1,
        )
        .unwrap();
        assert_eq!(tape.records.len(), 10, "1 kHz over 10 ms");
        assert_eq!(tape.records[0].at_ps, 1_000_000_000);
        assert_eq!(tape.records[9].at_ps - tape.records[8].at_ps, 1_000_000_000);
        tape.verify().unwrap();
    }

    #[test]
    fn poisson_tapes_are_seeded_and_plausible() {
        let arrival = ArrivalSpec::Poisson { rate_hz: 10_000.0 };
        let dur = SimDuration::from_ms(100);
        let a = TrafficTape::generate("t", &arrival, dur, fork_join(), 7).unwrap();
        let b = TrafficTape::generate("t", &arrival, dur, fork_join(), 7).unwrap();
        let c = TrafficTape::generate("t", &arrival, dur, fork_join(), 8).unwrap();
        assert_eq!(a, b, "same seed ⇒ same tape");
        assert_ne!(a.records, c.records, "different seed ⇒ different draw");
        // Mean of Poisson(10 kHz × 0.1 s) is 1000; 5σ ≈ 160.
        let n = a.records.len() as f64;
        assert!((n - 1000.0).abs() < 200.0, "got {n} arrivals");
        a.verify().unwrap();
    }

    #[test]
    fn jsonl_round_trips_bit_identically() {
        let tape = TrafficTape::generate(
            "rt",
            &ArrivalSpec::Poisson { rate_hz: 5000.0 },
            SimDuration::from_ms(5),
            fork_join(),
            42,
        )
        .unwrap();
        let text = tape.to_jsonl();
        let back = TrafficTape::from_jsonl(&text).unwrap();
        assert_eq!(back, tape);
        assert_eq!(back.to_jsonl(), text);
        back.verify().unwrap();
    }

    #[test]
    fn verify_catches_tampering() {
        let mut tape = TrafficTape::generate(
            "v",
            &ArrivalSpec::Fixed { rate_hz: 100.0 },
            SimDuration::from_ms(50),
            fork_join(),
            1,
        )
        .unwrap();
        tape.records[0].at_ps += 1;
        let err = tape.verify().unwrap_err().to_string();
        assert!(err.contains("digest mismatch"), "{err}");

        tape.refresh_digest();
        tape.verify().unwrap();

        tape.records[2].workload = 9;
        tape.refresh_digest();
        let err = tape.verify().unwrap_err().to_string();
        assert!(err.contains("workload"), "{err}");

        let mut back_in_time = TrafficTape {
            name: "bt".into(),
            workloads: vec![fork_join()],
            records: vec![
                TapeRecord {
                    at_ps: 10,
                    workload: 0,
                    tenant: 0,
                },
                TapeRecord {
                    at_ps: 5,
                    workload: 0,
                    tenant: 0,
                },
            ],
            digest: String::new(),
        };
        back_in_time.refresh_digest();
        let err = back_in_time.verify().unwrap_err().to_string();
        assert!(err.contains("back in time"), "{err}");
    }

    #[test]
    fn kill_mid_record_tolerates_torn_tail() {
        let tape = TrafficTape::generate(
            "torn",
            &ArrivalSpec::Fixed { rate_hz: 1000.0 },
            SimDuration::from_ms(8),
            fork_join(),
            3,
        )
        .unwrap();
        let text = tape.to_jsonl();

        // Simulate a kill mid-append: chop the file partway through the
        // final record, leaving no trailing newline.
        let last_line_start = text.trim_end().rfind('\n').unwrap() + 1;
        let torn = &text[..last_line_start + (text.len() - last_line_start) / 2];
        assert!(!torn.ends_with('\n'), "fixture must end mid-record");

        let (back, truncated) = TrafficTape::parse_jsonl(torn).unwrap();
        assert!(truncated, "torn tail must be flagged");
        assert_eq!(back.records.len(), tape.records.len() - 1);

        // A *complete* (newline-terminated) torn record is corruption,
        // not a torn tail: it stays a hard error.
        let mut corrupt = text[..last_line_start + (text.len() - last_line_start) / 2].to_string();
        corrupt.push('\n');
        let err = TrafficTape::parse_jsonl(&corrupt).unwrap_err().to_string();
        assert!(err.contains("tape record"), "{err}");

        // An intact file parses un-truncated via the same path.
        let (full, truncated) = TrafficTape::parse_jsonl(&text).unwrap();
        assert!(!truncated);
        assert_eq!(full, tape);
    }

    #[test]
    fn load_discards_a_torn_tail_whatever_its_bytes() {
        let dir = std::env::temp_dir().join(format!("cata-tape-utf8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.tape.jsonl");
        let tape = TrafficTape::generate(
            "café",
            &ArrivalSpec::Fixed { rate_hz: 1000.0 },
            SimDuration::from_ms(3),
            fork_join(),
            3,
        )
        .unwrap();
        // A fragment cut inside a multi-byte character.
        let mut bytes = tape.to_jsonl().into_bytes();
        let fragment = "{\"at_ps\":\"é".as_bytes();
        bytes.extend_from_slice(&fragment[..fragment.len() - 1]);
        std::fs::write(&path, &bytes).unwrap();
        let (back, truncated) = TrafficTape::load(&path).unwrap();
        assert!(truncated);
        assert_eq!(back, tape);

        // Completing that line makes it an interior line that is not UTF-8.
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).unwrap();
        let err = TrafficTape::load(&path).unwrap_err().to_string();
        let line = tape.records.len() + 2;
        let want = format!(
            "{}: line {line}: corrupt record: invalid UTF-8",
            path.display()
        );
        assert!(err.contains(&want), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_includes_path_in_errors() {
        let dir = std::env::temp_dir().join(format!("cata-tape-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.tape.jsonl");
        let err = TrafficTape::load(&missing).unwrap_err().to_string();
        assert!(err.contains("nope.tape.jsonl"), "{err}");

        let bad = dir.join("bad.tape.jsonl");
        std::fs::write(&bad, "{\"not\": \"a tape header\"}\n").unwrap();
        let err = TrafficTape::load(&bad).unwrap_err().to_string();
        assert!(err.contains("bad.tape.jsonl"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
