//! Streaming progress telemetry: heartbeat records for live observability.
//!
//! A sweep or service run is opaque while it executes — the store only
//! shows *finished* cells. This module adds a sidecar `.progress.jsonl`
//! stream the runners append heartbeat records to (cell started, grid N%
//! complete, cell finished, periodic service-mode snapshots), written with
//! the exact discipline [`ResultsStore`](super::store::ResultsStore)
//! established: one self-contained JSON line per record, serialized into a
//! single buffer ending in `\n` and appended with one `write_all` on an
//! `O_APPEND` handle. A reader therefore needs no IPC and tolerates a
//! killed writer the same way the store reader does — only a newline-less
//! trailing fragment is ever in doubt.
//!
//! [`JsonlTail`] is the matching reader: an incremental follower that
//! polls a growing JSONL file and yields only the *complete* lines that
//! arrived since the last poll, holding a torn tail back until its newline
//! lands (the writer may still be mid-append, or may have been killed and
//! later resumed by a fresh process). The `repro watch` dashboard tails
//! progress files, shard stores, and the perf trajectory through this one
//! follower.

use super::error::ExpError;
use super::store::JsonlLines;
use serde::{DeError, Deserialize, Deserializer, Field, Serialize, Serializer};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Format tag carried by every progress record; bumped on breaking layout
/// changes.
pub const PROGRESS_SCHEMA: &str = "cata-progress/v1";

/// Milliseconds since the Unix epoch, for heartbeat timestamps. Wall-clock
/// time is *observability metadata only* — nothing deterministic (digests,
/// reports, resume keys) may depend on it.
pub fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A stable fingerprint of the executing host: FNV-1a over the kernel
/// hostname and the CPU model line. Stamped onto store cells and perf
/// trajectory points so readers can refuse to mix measurements from
/// different machines (events/sec on two hosts is not one trajectory).
pub fn host_fingerprint() -> String {
    use std::sync::OnceLock;
    static FP: OnceLock<String> = OnceLock::new();
    FP.get_or_init(|| {
        let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .ok()
            .or_else(|| std::env::var("HOSTNAME").ok())
            .unwrap_or_else(|| "unknown-host".to_string());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown-cpu".to_string());
        cata_tdg::fnv1a_hex(format!("{}\n{cpu}", hostname.trim()).bytes())
    })
    .clone()
}

/// One heartbeat. Suite runners emit the cell/grid variants; the service
/// engine emits periodic snapshots of its open-system accounting.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// A suite worker picked up cell `index` and is executing it.
    CellStart {
        /// Global grid index of the cell.
        index: u64,
        /// The spec's configuration name (`CATA`, `FIFO`, …) — the full
        /// cell key is only known once the report names the workload that
        /// actually ran, so the start beat carries the cheap spec name.
        name: String,
        /// Digest of the cell's spec (joins the beat to store records).
        spec_digest: String,
    },
    /// A suite worker finished cell `index` (successfully or not).
    CellFinish {
        /// Global grid index of the cell.
        index: u64,
        /// Full cell key (`label@workload/fN/backend`) on success, the
        /// spec name on failure (a failed run has no report to name the
        /// workload).
        cell: String,
        /// Whether the cell produced a report (false ⇒ the error text is
        /// in `cell`-adjacent logs, and the store holds no record).
        ok: bool,
        /// Wall-clock seconds the execution took.
        wall_s: f64,
    },
    /// Shard-level completion: `done` of `total` cells finished. Emitted
    /// once at startup (counting resumed cells) and after every finish.
    GridProgress {
        /// Cells completed so far (including cells resumed from the store).
        done: u64,
        /// Cells this shard owns.
        total: u64,
    },
    /// Open-system service heartbeat: the engine's accounting at a fixed
    /// arrival cadence.
    ServiceSnapshot {
        /// Graph instances that arrived so far.
        arrivals: u64,
        /// Instances past admission control.
        admitted: u64,
        /// Instances that ran to completion.
        completed: u64,
        /// Instances shed by admission or recovery.
        dropped: u64,
        /// Admitted instances still in flight.
        in_flight: u64,
        /// p99 response time so far, picoseconds (0 until completions).
        p99_ps: u64,
        /// Simulated time of the snapshot, picoseconds.
        sim_time_ps: u64,
    },
}

impl ProgressEvent {
    /// The `kind` discriminator this event serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            ProgressEvent::CellStart { .. } => "cell-start",
            ProgressEvent::CellFinish { .. } => "cell-finish",
            ProgressEvent::GridProgress { .. } => "grid",
            ProgressEvent::ServiceSnapshot { .. } => "service",
        }
    }
}

/// One line of a `.progress.jsonl` stream: schema + shard + wall-clock
/// stamp + the event, flattened into a single JSON map keyed by `kind`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressRecord {
    /// Format tag ([`PROGRESS_SCHEMA`]).
    pub schema: String,
    /// 0-based shard id of the emitting runner (0 when unsharded).
    pub shard: u64,
    /// Wall-clock milliseconds since the Unix epoch at emit time.
    pub unix_ms: u64,
    /// The heartbeat payload.
    pub event: ProgressEvent,
}

// Serde is hand-written: the event fields are flattened into the record's
// own map under a `kind` discriminator (the vendored derive has no enum
// tagging attributes), keeping each heartbeat one flat, greppable line.
impl Serialize for ProgressRecord {
    fn serialize(&self, s: &mut dyn Serializer) {
        s.map_begin();
        s.entry("schema", &self.schema);
        s.entry("shard", &self.shard);
        s.entry("unix_ms", &self.unix_ms);
        s.entry("kind", self.event.kind());
        match &self.event {
            ProgressEvent::CellStart {
                index,
                name,
                spec_digest,
            } => {
                s.entry("index", index);
                s.entry("name", name);
                s.entry("spec_digest", spec_digest);
            }
            ProgressEvent::CellFinish {
                index,
                cell,
                ok,
                wall_s,
            } => {
                s.entry("index", index);
                s.entry("cell", cell);
                s.entry("ok", ok);
                s.entry("wall_s", wall_s);
            }
            ProgressEvent::GridProgress { done, total } => {
                s.entry("done", done);
                s.entry("total", total);
            }
            ProgressEvent::ServiceSnapshot {
                arrivals,
                admitted,
                completed,
                dropped,
                in_flight,
                p99_ps,
                sim_time_ps,
            } => {
                s.entry("arrivals", arrivals);
                s.entry("admitted", admitted);
                s.entry("completed", completed);
                s.entry("dropped", dropped);
                s.entry("in_flight", in_flight);
                s.entry("p99_ps", p99_ps);
                s.entry("sim_time_ps", sim_time_ps);
            }
        }
        s.map_end();
    }
}

impl Deserialize for ProgressRecord {
    fn deserialize(d: &mut dyn Deserializer) -> Result<Self, DeError> {
        const TY: &str = "ProgressRecord";
        // Which event fields count depends on `kind`, wherever it stands
        // in the line. So every value is read into a slot with its error
        // kept, and the slots are checked once the map is closed: `kind`,
        // then its event's fields, then the header.
        const STRS: [&str; 5] = ["kind", "schema", "name", "spec_digest", "cell"];
        const U64S: [&str; 12] = [
            "shard",
            "unix_ms",
            "index",
            "done",
            "total",
            "arrivals",
            "admitted",
            "completed",
            "dropped",
            "in_flight",
            "p99_ps",
            "sim_time_ps",
        ];
        // `STRS`, then `U64S`, then `ok` and `wall_s`: a field's index
        // picks its slot.
        const FIELDS: [&str; 19] = [
            "kind",
            "schema",
            "name",
            "spec_digest",
            "cell",
            "shard",
            "unix_ms",
            "index",
            "done",
            "total",
            "arrivals",
            "admitted",
            "completed",
            "dropped",
            "in_flight",
            "p99_ps",
            "sim_time_ps",
            "ok",
            "wall_s",
        ];
        type Slot<T> = Option<Result<T, DeError>>;
        let mut strs: [Slot<String>; 5] = Default::default();
        let mut u64s: [Slot<u64>; 12] = Default::default();
        let (mut ok, mut wall_s): (Slot<bool>, Slot<f64>) = (None, None);
        let mut seen = [false; 19];
        d.map_begin(TY)?;
        while let Some(field) = d.field(&FIELDS, &mut seen)? {
            let Field::Present(i) = field else { continue };
            let key = FIELDS[i];
            match i {
                0..=4 => strs[i] = Some(serde::attempt(d, |d| serde::field(d, TY, key))?),
                5..=16 => u64s[i - 5] = Some(serde::attempt(d, |d| serde::field(d, TY, key))?),
                17 => ok = Some(serde::attempt(d, |d| serde::field(d, TY, key))?),
                _ => wall_s = Some(serde::attempt(d, |d| serde::field(d, TY, key))?),
            }
        }
        fn take<T: Deserialize>(slot: &mut Slot<T>, key: &str) -> Result<T, DeError> {
            slot.take()
                .unwrap_or_else(|| serde::missing("ProgressRecord", key))
        }
        let mut str_of = |key: &str| {
            let i = STRS.iter().position(|k| *k == key).expect("a string field");
            take(&mut strs[i], key)
        };
        let kind = str_of("kind")?;
        let mut u64_of = |key: &str| {
            let i = U64S
                .iter()
                .position(|k| *k == key)
                .expect("an integer field");
            take(&mut u64s[i], key)
        };
        let event = match kind.as_str() {
            "cell-start" => ProgressEvent::CellStart {
                index: u64_of("index")?,
                name: str_of("name")?,
                spec_digest: str_of("spec_digest")?,
            },
            "cell-finish" => ProgressEvent::CellFinish {
                index: u64_of("index")?,
                cell: str_of("cell")?,
                ok: take(&mut ok, "ok")?,
                wall_s: take(&mut wall_s, "wall_s")?,
            },
            "grid" => ProgressEvent::GridProgress {
                done: u64_of("done")?,
                total: u64_of("total")?,
            },
            "service" => ProgressEvent::ServiceSnapshot {
                arrivals: u64_of("arrivals")?,
                admitted: u64_of("admitted")?,
                completed: u64_of("completed")?,
                dropped: u64_of("dropped")?,
                in_flight: u64_of("in_flight")?,
                p99_ps: u64_of("p99_ps")?,
                sim_time_ps: u64_of("sim_time_ps")?,
            },
            other => {
                return Err(DeError::new(format!(
                    "ProgressRecord: unknown kind `{other}`"
                )))
            }
        };
        Ok(ProgressRecord {
            schema: str_of("schema")?,
            shard: u64_of("shard")?,
            unix_ms: u64_of("unix_ms")?,
            event,
        })
    }
}

fn progress_err(path: &Path, what: impl std::fmt::Display) -> ExpError {
    ExpError::Store(format!("{}: {what}", path.display()))
}

/// An append-only heartbeat writer bound to one `.progress.jsonl` file.
/// Safe to share across suite workers: each emit is one serialized line
/// written with a single `write_all` under a lock, then flushed — the
/// identical atomic-append discipline as the results store, so a reader
/// can never observe an interleaved or half-flushed record (only a
/// killed writer's newline-less fragment).
#[derive(Debug)]
pub struct ProgressWriter {
    path: PathBuf,
    shard: u64,
    writer: Mutex<File>,
}

impl ProgressWriter {
    /// Opens (creating if missing) the heartbeat stream at `path`,
    /// stamping every record with `shard`. Appends to an existing file —
    /// a resumed sweep continues the same stream.
    pub fn open(path: impl AsRef<Path>, shard: u64) -> Result<Self, ExpError> {
        let path = path.as_ref().to_path_buf();
        let writer = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| progress_err(&path, e))?;
        Ok(ProgressWriter {
            path,
            shard,
            writer: Mutex::new(writer),
        })
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one heartbeat stamped with the current wall clock.
    pub fn emit(&self, event: ProgressEvent) -> Result<(), ExpError> {
        self.emit_at(now_unix_ms(), event)
    }

    /// Appends one heartbeat with an explicit timestamp (tests pin these
    /// for deterministic streams).
    pub fn emit_at(&self, unix_ms: u64, event: ProgressEvent) -> Result<(), ExpError> {
        let record = ProgressRecord {
            schema: PROGRESS_SCHEMA.to_string(),
            shard: self.shard,
            unix_ms,
            event,
        };
        let mut line = serde_json::to_string(&record)
            .map_err(|e| progress_err(&self.path, format!("serialize: {e}")))?;
        line.push('\n');
        let mut f = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        f.write_all(line.as_bytes())
            .and_then(|()| f.flush())
            .map_err(|e| progress_err(&self.path, e))
    }
}

/// An incremental follower over a growing JSONL file.
///
/// Each [`poll`](Self::poll) reads everything appended since the last
/// poll and returns only the *complete* lines (newline-terminated). A
/// trailing newline-less fragment — a writer mid-append, or killed
/// mid-`write_all` — is left unconsumed: the follower's offset stays at
/// the last line boundary, so when the writer (or a successor process)
/// finishes the line, the next poll yields it whole. A missing file is
/// "no lines yet", not an error — the follower may be started before the
/// writer. If the file *shrinks* below the consumed offset (a resuming
/// `ResultsStore::open` truncating a torn tail), the follower restarts
/// from the beginning and re-yields the surviving lines; consumers keyed
/// by record identity (cell index, shard) dedupe naturally.
#[derive(Debug)]
pub struct JsonlTail {
    path: PathBuf,
    /// Bytes consumed into complete lines so far.
    offset: u64,
    /// Complete lines consumed so far (numbers the lines in errors).
    lines: usize,
}

impl JsonlTail {
    /// A follower positioned at the start of `path` (which need not exist
    /// yet).
    pub fn new(path: impl AsRef<Path>) -> Self {
        JsonlTail {
            path: path.as_ref().to_path_buf(),
            offset: 0,
            lines: 0,
        }
    }

    /// The file being followed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Returns the complete lines appended since the last poll (empty
    /// strings filtered out; the trailing torn fragment, if any, is held
    /// back for a future poll, whatever its bytes). A complete line that
    /// is not UTF-8 is an error naming the file and line.
    pub fn poll(&mut self) -> Result<Vec<String>, ExpError> {
        let mut f = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(progress_err(&self.path, e)),
        };
        let len = f.metadata().map_err(|e| progress_err(&self.path, e))?.len();
        if len < self.offset {
            // Truncated under us (torn-tail recovery by a fresh writer):
            // restart; dedupe is the consumer's job.
            self.offset = 0;
            self.lines = 0;
        }
        if len == self.offset {
            return Ok(Vec::new());
        }
        f.seek(SeekFrom::Start(self.offset))
            .map_err(|e| progress_err(&self.path, e))?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)
            .map_err(|e| progress_err(&self.path, e))?;
        // Consume only the complete lines; the fragment past them is a
        // line still being written.
        let lines = JsonlLines::new(&buf);
        let mut fresh = Vec::new();
        let mut consumed = 0;
        for line in lines.numbered(self.lines + 1) {
            let (_, line) = line.map_err(|e| progress_err(&self.path, e))?;
            consumed += 1;
            if !line.trim().is_empty() {
                fresh.push(line.to_string());
            }
        }
        self.offset += lines.complete.len() as u64;
        self.lines += consumed;
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cata-progress-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn records_round_trip_through_every_kind() {
        let events = [
            ProgressEvent::CellStart {
                index: 3,
                name: "CATA".into(),
                spec_digest: "abcd".into(),
            },
            ProgressEvent::CellFinish {
                index: 3,
                cell: "CATA@dedup-tiny/f8/sim".into(),
                ok: true,
                wall_s: 0.25,
            },
            ProgressEvent::GridProgress { done: 4, total: 12 },
            ProgressEvent::ServiceSnapshot {
                arrivals: 100,
                admitted: 90,
                completed: 80,
                dropped: 10,
                in_flight: 10,
                p99_ps: 12_345,
                sim_time_ps: 999,
            },
        ];
        for event in events {
            let rec = ProgressRecord {
                schema: PROGRESS_SCHEMA.into(),
                shard: 1,
                unix_ms: 1_700_000_000_000,
                event,
            };
            let line = serde_json::to_string(&rec).unwrap();
            let back: ProgressRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(back, rec, "{line}");
        }
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let line = r#"{"schema":"cata-progress/v1","shard":0,"unix_ms":1,"kind":"mystery"}"#;
        assert!(serde_json::from_str::<ProgressRecord>(line).is_err());
    }

    #[test]
    fn tail_holds_back_torn_fragment_until_newline_arrives() {
        let path = tmp("torn.progress.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut tail = JsonlTail::new(&path);
        assert!(tail.poll().unwrap().is_empty(), "missing file = no lines");

        let writer = ProgressWriter::open(&path, 0).unwrap();
        writer
            .emit_at(1, ProgressEvent::GridProgress { done: 0, total: 2 })
            .unwrap();
        assert_eq!(tail.poll().unwrap().len(), 1);

        // A writer killed mid-append leaves a newline-less fragment; the
        // follower must not yield it.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"schema\":\"cata-progress/v1\",\"shard\":0")
            .unwrap();
        f.flush().unwrap();
        assert!(tail.poll().unwrap().is_empty(), "fragment must be held");

        // The resumed writer finishes the line; the whole record arrives.
        f.write_all(b",\"unix_ms\":2,\"kind\":\"grid\",\"done\":1,\"total\":2}\n")
            .unwrap();
        drop(f);
        let lines = tail.poll().unwrap();
        assert_eq!(lines.len(), 1);
        let rec: ProgressRecord = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(rec.event, ProgressEvent::GridProgress { done: 1, total: 2 });
        assert!(tail.poll().unwrap().is_empty());
    }

    #[test]
    fn tail_holds_back_a_fragment_cut_inside_a_multibyte_character() {
        let path = tmp("torn-utf8.progress.jsonl");
        let _ = std::fs::remove_file(&path);
        let writer = ProgressWriter::open(&path, 0).unwrap();
        writer
            .emit_at(1, ProgressEvent::GridProgress { done: 0, total: 2 })
            .unwrap();
        let start = ProgressRecord {
            schema: PROGRESS_SCHEMA.to_string(),
            shard: 0,
            unix_ms: 2,
            event: ProgressEvent::CellStart {
                index: 0,
                name: "café".to_string(),
                spec_digest: "d".to_string(),
            },
        };
        let line = format!("{}\n", serde_json::to_string(&start).unwrap());
        let (head, rest) = line.as_bytes().split_at(line.find('é').unwrap() + 1);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(head).unwrap();
        let mut tail = JsonlTail::new(&path);
        assert_eq!(tail.poll().unwrap().len(), 1, "only the complete line");

        f.write_all(rest).unwrap();
        let lines = tail.poll().unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            serde_json::from_str::<ProgressRecord>(&lines[0]).unwrap(),
            start
        );

        // A complete line that is not UTF-8 is corruption, named by line.
        f.write_all(head).unwrap();
        f.write_all(b"\n").unwrap();
        let err = tail.poll().unwrap_err().to_string();
        let want = format!("{}: line 3: corrupt record: invalid UTF-8", path.display());
        assert!(err.contains(&want), "{err}");
    }

    #[test]
    fn tail_restarts_after_truncation() {
        let path = tmp("trunc.progress.jsonl");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n").unwrap();
        let mut tail = JsonlTail::new(&path);
        assert_eq!(tail.poll().unwrap().len(), 2);
        // A fresh writer truncated the file (torn-tail recovery) and
        // appended anew: the follower re-reads from the start.
        std::fs::write(&path, "{\"a\":1}\n").unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["{\"a\":1}".to_string()]);
    }

    #[test]
    fn host_fingerprint_is_stable_hex() {
        let a = host_fingerprint();
        assert_eq!(a, host_fingerprint());
        assert_eq!(a.len(), 16, "{a}");
        assert!(a.bytes().all(|b| b.is_ascii_hexdigit()), "{a}");
    }
}
