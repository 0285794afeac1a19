//! `ResultsStore`: a JSONL store of completed suite cells.
//!
//! The paper's evaluation is a large configuration matrix, and a suite of
//! thousands of cells should not live or die inside one process. The store
//! streams every completed cell to disk as one self-contained JSON line (a
//! [`CellRecord`]) the moment it finishes:
//!
//! - **Atomic append**: each record is serialized into one buffer ending in
//!   `\n` and written with a single `write_all` on an `O_APPEND` handle, so
//!   concurrent workers (and even concurrent processes sharding one grid
//!   into separate files) never interleave partial lines.
//! - **Resume**: [`Suite::run_with_store`](super::suite::Suite::run_with_store)
//!   loads an existing store, skips every cell whose `(index, spec_digest)`
//!   is already present, and executes only the remainder. A torn trailing
//!   line — the signature of a killed writer — is detected on open and
//!   truncated away, so a crashed sweep resumes cleanly.
//! - **Sharding**: [`Suite::shard`](super::suite::Suite::shard) partitions
//!   the cell grid deterministically; each shard appends to its own file,
//!   and [`merge_files`](ResultsStore::merge_files) recombines them,
//!   validating schema and digests and rejecting conflicting duplicates.
//!
//! Because the engine is deterministic and `RunReport` serialization is
//! bit-exact (floats render in shortest round-trip form), a report loaded
//! from the store is indistinguishable from a freshly computed one — the
//! golden-digest and kill-and-resume tests pin exactly that.

use super::error::ExpError;
use super::spec::ScenarioSpec;
use crate::report::RunReport;
// The workspace-wide digest function: sharing TDG content digests' FNV-1a
// keeps every identity — spec, grid, graph — in one namespace by
// construction.
use cata_tdg::fnv1a_hex as fnv1a;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Format tag carried by every record; bumped on breaking layout changes.
pub const STORE_SCHEMA: &str = "cata-results/v1";

/// Stable 64-bit digest (FNV-1a) of a spec's compact JSON form — the cell
/// identity the store keys on. Field order in the vendored serde is
/// declaration order, so the digest is deterministic across processes.
pub fn spec_digest(spec: &ScenarioSpec) -> String {
    fnv1a(spec.to_json().bytes())
}

/// Digest of a whole cell grid: the ordered `(index, spec_digest)` pairs.
/// Every shard of one grid records the *full* grid's digest (captured
/// before sharding), so the merger can tell shards of one experiment from
/// unrelated stores even when their cell indices never collide.
pub fn grid_digest<'a>(pairs: impl Iterator<Item = (u64, &'a str)>) -> String {
    let mut text = String::new();
    for (i, d) in pairs {
        text.push_str(&format!("{i}:{d};"));
    }
    fnv1a(text.bytes())
}

/// One completed suite cell, as stored on one JSONL line.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Format tag ([`STORE_SCHEMA`]).
    pub schema: String,
    /// Global index of the cell in the full (unsharded) grid.
    pub index: u64,
    /// Human-readable cell key (`label@workload/fN/backend`), for
    /// dashboards and error messages; identity is `(index, spec_digest)`
    /// (the digest also sees the backend: native specs serialize it).
    pub cell: String,
    /// Digest of the full (unsharded) grid this cell belongs to (see
    /// [`grid_digest`]) — the provenance tag the merger uses to flag
    /// accidental mixing of unrelated experiments.
    pub grid: String,
    /// Digest of the cell's [`ScenarioSpec`] (see [`spec_digest`]).
    pub spec_digest: String,
    /// The run seed the spec pinned.
    pub seed: u64,
    /// Wall-clock seconds the cell took to execute (workload generation
    /// is warmed outside the timed window, so this approximates engine
    /// time and stays comparable to the perf-harness summaries).
    pub wall_s: f64,
    /// The measured result.
    pub report: RunReport,
    /// Fingerprint of the executing host (see
    /// [`host_fingerprint`](super::progress::host_fingerprint)), so
    /// readers can refuse to treat cross-host wall times as one series.
    /// `None` — and skipped in the serialized form, so legacy stores stay
    /// byte-identical — on records written before this field existed.
    pub host: Option<String>,
    /// Wall-clock start of the execution, milliseconds since the Unix
    /// epoch. Observability metadata only (dashboard throughput/ETA
    /// columns); `None` and skipped on legacy records.
    pub started_unix_ms: Option<u64>,
    /// Wall-clock end of the execution, same convention as
    /// `started_unix_ms`.
    pub finished_unix_ms: Option<u64>,
    /// The full spec the cell executed, embedded so the record is
    /// replayable on the spot (`repro replay`) without the generating
    /// grid. `None` and skipped on legacy records — those replay only via
    /// an externally supplied spec matching `spec_digest`.
    pub spec: Option<ScenarioSpec>,
}

// Serde is hand-written (the vendored derive would emit `None` fields as
// `null`) so every optional field is *omitted* when absent: a legacy
// record loaded and re-serialized (merge --out, gc rewrite) stays
// byte-identical, and golden store fixtures never see the new fields.
impl Serialize for CellRecord {
    fn to_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = vec![
            ("schema".into(), self.schema.to_value()),
            ("index".into(), self.index.to_value()),
            ("cell".into(), self.cell.to_value()),
            ("grid".into(), self.grid.to_value()),
            ("spec_digest".into(), self.spec_digest.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("wall_s".into(), self.wall_s.to_value()),
            ("report".into(), self.report.to_value()),
        ];
        if let Some(h) = &self.host {
            m.push(("host".into(), h.to_value()));
        }
        if let Some(ms) = self.started_unix_ms {
            m.push(("started_unix_ms".into(), ms.to_value()));
        }
        if let Some(ms) = self.finished_unix_ms {
            m.push(("finished_unix_ms".into(), ms.to_value()));
        }
        if let Some(spec) = &self.spec {
            m.push(("spec".into(), spec.to_value()));
        }
        Value::Map(m)
    }
}

impl Deserialize for CellRecord {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map_for("CellRecord")?;
        Ok(CellRecord {
            schema: serde::field(m, "schema", "CellRecord")?,
            index: serde::field(m, "index", "CellRecord")?,
            cell: serde::field(m, "cell", "CellRecord")?,
            grid: serde::field(m, "grid", "CellRecord")?,
            spec_digest: serde::field(m, "spec_digest", "CellRecord")?,
            seed: serde::field(m, "seed", "CellRecord")?,
            wall_s: serde::field(m, "wall_s", "CellRecord")?,
            report: serde::field(m, "report", "CellRecord")?,
            host: serde::field(m, "host", "CellRecord")?,
            started_unix_ms: serde::field(m, "started_unix_ms", "CellRecord")?,
            finished_unix_ms: serde::field(m, "finished_unix_ms", "CellRecord")?,
            spec: serde::field(m, "spec", "CellRecord")?,
        })
    }
}

impl CellRecord {
    /// Builds the record for one completed cell of the grid tagged
    /// `grid` (see [`grid_digest`]).
    pub fn new(
        index: u64,
        spec: &ScenarioSpec,
        grid: String,
        wall_s: f64,
        report: RunReport,
    ) -> Self {
        CellRecord {
            schema: STORE_SCHEMA.to_string(),
            index,
            // The workload name comes from the report, which carries the
            // label of the load that actually ran — `spec.workload.label()`
            // would re-read an unpinned TDG file here and could name a
            // *different revision* than the executed graph (and costs a
            // disk read per stored cell even when pinned).
            cell: format!(
                "{}@{}/f{}/{}",
                spec.name,
                report.workload,
                spec.fast_cores,
                spec.backend.name()
            ),
            grid,
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

    /// Stamps the executing host's fingerprint onto the record.
    pub fn with_host(mut self, host: String) -> Self {
        self.host = Some(host);
        self
    }

    /// Stamps the wall-clock execution window onto the record
    /// (observability metadata: dashboard throughput/ETA columns).
    pub fn with_times(mut self, started_unix_ms: u64, finished_unix_ms: u64) -> Self {
        self.started_unix_ms = Some(started_unix_ms);
        self.finished_unix_ms = Some(finished_unix_ms);
        self
    }

    /// Embeds the executed spec so the record replays standalone
    /// (`repro replay CELL --store FILE`).
    pub fn with_spec(mut self, spec: ScenarioSpec) -> Self {
        self.spec = Some(spec);
        self
    }
}

/// The result of merging shard files: the deduplicated, index-ordered
/// records plus bookkeeping about what the reader had to tolerate.
#[derive(Debug)]
pub struct MergedRecords {
    /// Records ordered by grid index (duplicates collapsed).
    pub records: Vec<CellRecord>,
    /// Shard files that ended in a torn (discarded) trailing line.
    pub truncated_shards: usize,
    /// Records collapsed away: bit-identical cross-shard copies, plus
    /// stale within-file records superseded by a later append (the
    /// resume-after-spec-edit flow).
    pub duplicates: usize,
    /// Distinct full-grid digests among the merged records. `1` for
    /// shards of one experiment; more means either a resumed-after-edit
    /// store (benign) or unrelated stores merged by mistake — callers
    /// should surface it (cell indices of different grids rarely collide,
    /// so the per-cell conflict check alone cannot catch the mix-up).
    pub distinct_grids: usize,
}

/// An append-only JSONL store of [`CellRecord`]s bound to one file.
#[derive(Debug)]
pub struct ResultsStore {
    path: PathBuf,
    records: Vec<CellRecord>,
    truncated: bool,
    writer: Mutex<File>,
}

fn store_err(path: &Path, what: impl std::fmt::Display) -> ExpError {
    ExpError::Store(format!("{}: {what}", path.display()))
}

/// Parses the complete lines of a store file. Returns the records, the
/// byte length of the valid prefix, and whether a torn tail was
/// discarded. Only a *final line missing its newline* is tolerated as a
/// torn tail: [`ResultsStore::append`] writes payload + `\n` in one
/// `write_all`, and a partial write truncates the end of that buffer, so
/// a killed writer can only ever leave a newline-less fragment. Any
/// unparseable line that kept its newline completed its append and is
/// therefore real corruption — a hard error naming the file and line,
/// never silently truncated.
fn parse_lines(path: &Path, text: &str) -> Result<(Vec<CellRecord>, u64, bool), ExpError> {
    let mut records = Vec::new();
    let mut valid_len = 0u64;
    let mut offset = 0usize;
    let mut truncated = false;
    let mut lineno = 0usize;
    while offset < text.len() {
        lineno += 1;
        let rest = &text[offset..];
        let (line, consumed, complete) = match rest.find('\n') {
            Some(i) => (&rest[..i], i + 1, true),
            None => (rest, rest.len(), false),
        };
        let end = offset + consumed;
        if !complete {
            // The killed-writer signature; the fragment may even parse as
            // JSON (only the newline was cut) — still discarded.
            truncated = true;
        } else if !line.trim().is_empty() {
            match serde_json::from_str::<CellRecord>(line) {
                Ok(rec) if rec.schema == STORE_SCHEMA => {
                    records.push(rec);
                    valid_len = end as u64;
                }
                Ok(rec) => {
                    return Err(store_err(
                        path,
                        format!(
                            "line {lineno}: unsupported schema `{}` (want {STORE_SCHEMA})",
                            rec.schema
                        ),
                    ));
                }
                Err(e) => {
                    return Err(store_err(
                        path,
                        format!("line {lineno}: corrupt record: {e}"),
                    ));
                }
            }
        } else {
            valid_len = end as u64;
        }
        offset = end;
    }
    Ok((records, valid_len, truncated))
}

impl ResultsStore {
    /// Opens (creating if missing) the store at `path`, loading every
    /// already-completed record. A torn trailing line is discarded and the
    /// file truncated back to its valid prefix so subsequent appends start
    /// on a line boundary.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ExpError> {
        let path = path.as_ref().to_path_buf();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(store_err(&path, e)),
        };
        let (records, valid_len, truncated) = parse_lines(&path, &text)?;
        if truncated {
            let f = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| store_err(&path, e))?;
            f.set_len(valid_len).map_err(|e| store_err(&path, e))?;
        }
        let writer = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| store_err(&path, e))?;
        Ok(ResultsStore {
            path,
            records,
            truncated,
            writer: Mutex::new(writer),
        })
    }

    /// The file this store appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The records that were already in the store when it was opened.
    pub fn records(&self) -> &[CellRecord] {
        &self.records
    }

    /// True when opening discarded a torn trailing line.
    pub fn recovered_torn_tail(&self) -> bool {
        self.truncated
    }

    /// Appends one record as a single atomic line (serialize + `\n`, one
    /// `write_all`, then flush). Safe to call from many suite workers.
    pub fn append(&self, record: &CellRecord) -> Result<(), ExpError> {
        let mut line = serde_json::to_string(record)
            .map_err(|e| store_err(&self.path, format!("serialize: {e}")))?;
        line.push('\n');
        let mut f = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        f.write_all(line.as_bytes())
            .and_then(|()| f.flush())
            .map_err(|e| store_err(&self.path, e))
    }

    /// Loads a store file read-only (same tolerant reader as
    /// [`open`](Self::open), without mutating the file). Returns the
    /// records and whether a torn tail was discarded.
    pub fn load(path: impl AsRef<Path>) -> Result<(Vec<CellRecord>, bool), ExpError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| store_err(path, e))?;
        let (records, _, truncated) = parse_lines(path, &text)?;
        Ok((records, truncated))
    }

    /// Merges shard files into one index-ordered record list.
    ///
    /// *Within* one file, a later record at the same index supersedes an
    /// earlier one — a single store's appends are chronological, and the
    /// resume-after-spec-edit flow legitimately leaves a stale record
    /// behind the fresh one. *Across* files, duplicate
    /// `(index, spec_digest)` entries are verified bit-identical (the
    /// determinism contract) and collapsed, while the same index carrying
    /// two *different* digests means the shards came from different grids
    /// and is an error. Linear in the total record count.
    pub fn merge_files<P: AsRef<Path>>(paths: &[P]) -> Result<MergedRecords, ExpError> {
        let mut all: HashMap<u64, CellRecord> = HashMap::new();
        let mut truncated_shards = 0usize;
        let mut duplicates = 0usize;
        for p in paths {
            let (records, truncated) = Self::load(p)?;
            if truncated {
                truncated_shards += 1;
            }
            // Chronological last-wins within this file.
            let mut file_latest: HashMap<u64, CellRecord> = HashMap::new();
            for rec in records {
                if file_latest.insert(rec.index, rec).is_some() {
                    duplicates += 1;
                }
            }
            for (index, rec) in file_latest {
                match all.entry(index) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(rec);
                    }
                    std::collections::hash_map::Entry::Occupied(o) => {
                        let prev = o.get();
                        if prev.spec_digest != rec.spec_digest {
                            return Err(ExpError::Store(format!(
                                "cell {} has conflicting spec digests {} vs {} — \
                                 shards are from different grids",
                                rec.index, prev.spec_digest, rec.spec_digest
                            )));
                        }
                        let a = serde_json::to_string(&prev.report);
                        let b = serde_json::to_string(&rec.report);
                        if a != b {
                            return Err(ExpError::Store(format!(
                                "cell {} ({}) appears twice with diverging reports — \
                                 determinism violation",
                                rec.index, rec.cell
                            )));
                        }
                        duplicates += 1;
                    }
                }
            }
        }
        let mut records: Vec<CellRecord> = all.into_values().collect();
        records.sort_by_key(|r| r.index);
        let distinct_grids = records
            .iter()
            .map(|r| r.grid.as_str())
            .collect::<std::collections::HashSet<_>>()
            .len();
        Ok(MergedRecords {
            records,
            truncated_shards,
            duplicates,
            distinct_grids,
        })
    }

    /// Garbage-collects a store against a spec grid: records whose
    /// `(index, spec_digest)` no longer appears in `grid` — stale cells
    /// left behind by spec edits, reshapes, or removed presets — are
    /// dropped and the file is rewritten in place. Returns
    /// `(kept, dropped)`. A torn trailing line is discarded like any other
    /// reader would.
    pub fn gc(path: impl AsRef<Path>, grid: &[(u64, String)]) -> Result<(usize, usize), ExpError> {
        let path = path.as_ref();
        let valid: std::collections::HashSet<(u64, &str)> =
            grid.iter().map(|(i, d)| (*i, d.as_str())).collect();
        let (records, _) = Self::load(path)?;
        let total = records.len();
        let kept: Vec<CellRecord> = records
            .into_iter()
            .filter(|r| valid.contains(&(r.index, r.spec_digest.as_str())))
            .collect();
        let dropped = total - kept.len();
        if dropped > 0 {
            // Rewrite via temp-file + rename: a truncate-in-place write
            // interrupted midway would silently destroy valid records (and
            // the torn-tail-tolerant reader would mask the loss as an
            // ordinary interrupted append).
            let tmp = path.with_extension("gc-tmp");
            Self::write_all(&tmp, &kept)?;
            std::fs::rename(&tmp, path).map_err(|e| store_err(path, e))?;
        }
        Ok((kept.len(), dropped))
    }

    /// Writes records to `path` as a fresh JSONL store (e.g. the merged
    /// output of several shards).
    pub fn write_all(path: impl AsRef<Path>, records: &[CellRecord]) -> Result<(), ExpError> {
        let path = path.as_ref();
        let mut out = String::new();
        for rec in records {
            out.push_str(
                &serde_json::to_string(rec)
                    .map_err(|e| store_err(path, format!("serialize: {e}")))?,
            );
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| store_err(path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::spec::WorkloadSpec;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::preset(
            "CATA",
            2,
            WorkloadSpec::Chain {
                n: 3,
                cycles: 10_000,
            },
        )
        .unwrap()
        .with_small_machine(4, 2)
    }

    fn record(index: u64) -> CellRecord {
        let s = spec();
        let report = crate::SimExecutor
            .run_spec(&s, crate::exp::default_registries())
            .unwrap()
            .0;
        CellRecord::new(index, &s, "test-grid".into(), 0.001, report)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cata-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn digest_is_stable_and_spec_sensitive() {
        let a = spec_digest(&spec());
        assert_eq!(a, spec_digest(&spec()), "digest must be deterministic");
        let mut other = spec();
        other.seed ^= 1;
        assert_ne!(a, spec_digest(&other), "digest must see the seed");
    }

    #[test]
    fn append_load_round_trips_bit_identically() {
        let path = tmp("round-trip.jsonl");
        let _ = std::fs::remove_file(&path);
        let rec = record(3);
        let store = ResultsStore::open(&path).unwrap();
        store.append(&rec).unwrap();
        let (loaded, truncated) = ResultsStore::load(&path).unwrap();
        assert!(!truncated);
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].index, 3);
        assert_eq!(loaded[0].spec_digest, rec.spec_digest);
        assert_eq!(
            serde_json::to_string(&loaded[0].report).unwrap(),
            serde_json::to_string(&rec.report).unwrap(),
            "stored report must be bit-identical"
        );
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated_on_open() {
        let path = tmp("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let store = ResultsStore::open(&path).unwrap();
            store.append(&record(0)).unwrap();
        }
        // Simulate a writer killed mid-line: half a record, no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"schema\":\"cata-results/v1\",\"index\":9")
                .unwrap();
        }
        let store = ResultsStore::open(&path).unwrap();
        assert!(store.recovered_torn_tail());
        assert_eq!(store.records().len(), 1);
        // The file was truncated back to a line boundary: appending again
        // yields two clean records.
        store.append(&record(1)).unwrap();
        let (loaded, truncated) = ResultsStore::load(&path).unwrap();
        assert!(!truncated);
        assert_eq!(
            loaded.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn corrupt_middle_line_is_a_hard_error() {
        let path = tmp("corrupt.jsonl");
        let _ = std::fs::remove_file(&path);
        let rec = serde_json::to_string(&record(0)).unwrap();
        std::fs::write(&path, format!("not json\n{rec}\n")).unwrap();
        assert!(matches!(ResultsStore::open(&path), Err(ExpError::Store(_))));
    }

    #[test]
    fn deeply_nested_line_is_an_error_naming_the_path_and_line() {
        // Recursing into this line would overflow the stack and abort the
        // process; the reader's nesting limit makes it a corrupt record.
        let path = tmp("deep.jsonl");
        let rec = serde_json::to_string(&record(0)).unwrap();
        std::fs::write(&path, format!("{rec}\n{}\n", "[".repeat(100_000))).unwrap();
        let err = ResultsStore::load(&path).unwrap_err().to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("line 2: corrupt record"), "{err}");
    }

    #[test]
    fn corrupt_final_line_with_newline_is_corruption_not_a_torn_tail() {
        // A surviving newline means the append completed — an unparseable
        // line that kept it is real corruption and must never be silently
        // truncated away as if it were a killed writer's fragment.
        let path = tmp("corrupt-final.jsonl");
        let _ = std::fs::remove_file(&path);
        let rec = serde_json::to_string(&record(0)).unwrap();
        std::fs::write(
            &path,
            format!("{rec}\n{{\"schema\":\"cata-results/v1\",GARBAGE\n"),
        )
        .unwrap();
        let err = ResultsStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        // The evidence is preserved: the file was not truncated.
        assert!(std::fs::read_to_string(&path).unwrap().contains("GARBAGE"));
    }

    #[test]
    fn foreign_schema_is_rejected() {
        let path = tmp("schema.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut rec = record(0);
        rec.schema = "cata-results/v999".into();
        std::fs::write(&path, format!("{}\n", serde_json::to_string(&rec).unwrap())).unwrap();
        let err = ResultsStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn merge_dedupes_and_orders_by_index() {
        let a_path = tmp("merge-a.jsonl");
        let b_path = tmp("merge-b.jsonl");
        let _ = std::fs::remove_file(&a_path);
        let _ = std::fs::remove_file(&b_path);
        let r0 = record(0);
        let r1 = record(1);
        ResultsStore::write_all(&a_path, &[r1.clone(), r0.clone()]).unwrap();
        ResultsStore::write_all(&b_path, std::slice::from_ref(&r0)).unwrap();
        let merged = ResultsStore::merge_files(&[&a_path, &b_path]).unwrap();
        assert_eq!(merged.duplicates, 1);
        assert_eq!(
            merged.records.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1]
        );

        // Same index, different digest: different grids, hard error.
        let mut foreign = r1.clone();
        foreign.index = 0;
        foreign.spec_digest = "0000000000000000".into();
        ResultsStore::write_all(&b_path, &[foreign]).unwrap();
        assert!(ResultsStore::merge_files(&[&a_path, &b_path]).is_err());
    }

    #[test]
    fn gc_drops_records_outside_the_grid_and_keeps_the_rest() {
        let path = tmp("gc.jsonl");
        let _ = std::fs::remove_file(&path);
        let r0 = record(0);
        let r1 = record(1);
        let mut stale = record(2);
        stale.spec_digest = "feedfeedfeedfeed".into(); // spec since edited
        ResultsStore::write_all(&path, &[r0.clone(), r1.clone(), stale]).unwrap();

        // The current grid only has cells 0 and 1 (and cell 2 under a new
        // digest that no stored record matches).
        let grid = vec![
            (0, r0.spec_digest.clone()),
            (1, r1.spec_digest.clone()),
            (2, spec_digest(&spec())),
        ];
        let (kept, dropped) = ResultsStore::gc(&path, &grid).unwrap();
        assert_eq!((kept, dropped), (2, 1));
        let (loaded, _) = ResultsStore::load(&path).unwrap();
        assert_eq!(
            loaded.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1]
        );

        // Idempotent: a second pass drops nothing (and rewrites nothing).
        let (kept, dropped) = ResultsStore::gc(&path, &grid).unwrap();
        assert_eq!((kept, dropped), (2, 0));
    }

    #[test]
    fn cell_key_names_the_backend() {
        let rec = record(0);
        assert!(rec.cell.ends_with("/sim"), "{}", rec.cell);
        let native_spec = spec().with_backend(crate::exp::spec::Backend::Native);
        let rec = CellRecord::new(1, &native_spec, "g".into(), 0.0, rec.report);
        assert!(rec.cell.ends_with("/native"), "{}", rec.cell);
    }

    #[test]
    fn observability_fields_are_omitted_when_absent_and_round_trip_when_present() {
        // Legacy layout: a bare record serializes without any of the new
        // optional fields, so existing stores rewritten by merge/gc stay
        // byte-identical.
        let bare = record(0);
        let json = serde_json::to_string(&bare).unwrap();
        for field in [
            "\"host\"",
            "started_unix_ms",
            "finished_unix_ms",
            "\"spec\"",
        ] {
            assert!(!json.contains(field), "{field} must be omitted: {json}");
        }
        let back: CellRecord = serde_json::from_str(&json).unwrap();
        assert!(back.host.is_none() && back.spec.is_none());
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            json,
            "byte-identical"
        );

        // Stamped records round-trip, and the embedded spec re-digests to
        // the record's own digest (the replay precondition).
        let s = spec();
        let full = record(1)
            .with_host("deadbeefdeadbeef".into())
            .with_times(1_000, 2_500)
            .with_spec(s.clone());
        let json = serde_json::to_string(&full).unwrap();
        let back: CellRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.host.as_deref(), Some("deadbeefdeadbeef"));
        assert_eq!(back.started_unix_ms, Some(1_000));
        assert_eq!(back.finished_unix_ms, Some(2_500));
        assert_eq!(spec_digest(back.spec.as_ref().unwrap()), spec_digest(&s));
    }

    #[test]
    fn merge_counts_distinct_grids_even_when_indices_never_collide() {
        // Shards of *different* grids typically have disjoint indices, so
        // the per-cell conflict check cannot fire; the grid tag is what
        // surfaces the mix-up.
        let a_path = tmp("grids-a.jsonl");
        let b_path = tmp("grids-b.jsonl");
        let _ = std::fs::remove_file(&a_path);
        let _ = std::fs::remove_file(&b_path);
        let r0 = record(0);
        let mut r1 = record(1);
        r1.grid = "another-grid".into();
        ResultsStore::write_all(&a_path, std::slice::from_ref(&r0)).unwrap();
        ResultsStore::write_all(&b_path, std::slice::from_ref(&r1)).unwrap();
        let merged = ResultsStore::merge_files(&[&a_path, &b_path]).unwrap();
        assert_eq!(merged.records.len(), 2);
        assert_eq!(merged.distinct_grids, 2, "the mix must be visible");

        let same = ResultsStore::merge_files(&[&a_path]).unwrap();
        assert_eq!(same.distinct_grids, 1);
    }
}
