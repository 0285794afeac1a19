//! Mutation tests of the results-store, traffic-tape, progress-sidecar
//! and TDG readers.
//!
//! Each property starts from a valid file and damages it the way a crash
//! or a bad disk would: truncate it at any byte, flip any byte, or splice
//! the head of one line onto the tail of another (two writers
//! interleaving). The readers must never panic.
//!
//! - Store and tape: a truncation loads the intact prefix, with the torn
//!   flag set unless the cut fell on a line boundary; any other damage
//!   either still parses or is an error that names the path and the
//!   damaged line.
//! - Progress sidecar: `JsonlTail::poll` yields exactly the complete
//!   lines and holds a torn tail back until its newline lands, and
//!   `DashState::ingest_progress_line` counts each damaged line as one
//!   parse error; a line that is not UTF-8 is a poll error naming the path
//!   and line.
//! - TDG file: a damaged `.tdg.json` behind `WorkloadSpec::File` either
//!   loads the original graph unchanged (the damage hit only whitespace,
//!   or the digest key) or is an `ExpError::Workload` naming the path;
//!   a truncated one never loads.
//!
//! One cell, the tape, a heartbeat and the TDG are named `café`, so cuts
//! and flips also land inside multi-byte characters.

use cata_core::exp::{
    default_registries, CellRecord, ExpError, JsonlTail, ProgressEvent, ProgressRecord,
    ResultsStore, ScenarioSpec, WorkloadSpec, PROGRESS_SCHEMA,
};
use cata_core::service::{ArrivalSpec, TrafficTape};
use cata_core::SimExecutor;
use cata_obs::DashState;
use cata_sim::progress::ExecProfile;
use cata_sim::time::SimDuration;
use cata_tdg::file::TdgFile;
use cata_tdg::TaskGraph;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// A three-record results store, one JSON line per cell.
fn store_fixture() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut out = Vec::new();
        for (index, name) in ["CATA", "café", "FIFO"].into_iter().enumerate() {
            let workload = WorkloadSpec::Chain {
                n: 3,
                cycles: 10_000,
            };
            let spec = ScenarioSpec::new(name, workload).with_small_machine(4, 2);
            let report = SimExecutor.run_spec(&spec, default_registries()).unwrap().0;
            let record =
                CellRecord::new(index as u64, &spec, "grid".into(), 0.001, report).with_spec(spec);
            out.extend(serde_json::to_string(&record).unwrap().bytes());
            out.push(b'\n');
        }
        out
    })
}

/// A tape file: its header line and four arrival records.
fn tape_fixture() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        TrafficTape::generate(
            "café",
            &ArrivalSpec::Fixed { rate_hz: 1000.0 },
            SimDuration::from_ms(4),
            WorkloadSpec::Chain { n: 2, cycles: 10 },
            7,
        )
        .unwrap()
        .to_jsonl()
        .into_bytes()
    })
}

/// A progress sidecar: one heartbeat of every kind, as a sharded suite
/// and a service run append them.
fn progress_fixture() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let events = [
            ProgressEvent::GridProgress { done: 0, total: 2 },
            ProgressEvent::CellStart {
                index: 0,
                name: "café".into(),
                spec_digest: "0123456789abcdef".into(),
            },
            ProgressEvent::CellFinish {
                index: 0,
                cell: "café@chain/f2/sim".into(),
                ok: true,
                wall_s: 0.25,
            },
            ProgressEvent::GridProgress { done: 1, total: 2 },
            ProgressEvent::ServiceSnapshot {
                arrivals: 9,
                admitted: 8,
                completed: 7,
                dropped: 1,
                in_flight: 1,
                p99_ps: 123_456,
                sim_time_ps: 4_000_000,
            },
        ];
        let mut out = Vec::new();
        for (i, event) in events.into_iter().enumerate() {
            let record = ProgressRecord {
                schema: PROGRESS_SCHEMA.to_string(),
                shard: 1,
                unix_ms: 1_700_000_000_000 + i as u64,
                event,
            };
            out.extend(serde_json::to_string(&record).unwrap().bytes());
            out.push(b'\n');
        }
        out
    })
}

/// The graph behind the TDG fixtures: two task types, one critical, a
/// diamond of dependences and a task that blocks halfway.
fn tdg_graph() -> &'static TaskGraph {
    static GRAPH: OnceLock<TaskGraph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        let mut g = TaskGraph::new();
        let plain = g.add_type("café", 0);
        let crit = g.add_type("hot", 1);
        let a = g.add_task(plain, ExecProfile::new(1_000, 10), &[]);
        let blocking = ExecProfile::new(2_000, 0).with_block(0.5, SimDuration::from_ns(3));
        let b = g.add_task(crit, blocking, &[a]);
        let c = g.add_task(plain, ExecProfile::new(3_000, 20), &[a]);
        g.add_task(crit, ExecProfile::new(4_000, 0), &[b, c]);
        g
    })
}

/// The pretty `.tdg.json` of [`tdg_graph`], with its content digest
/// (`pinned`) or with the digest opted out, so damage reaches the
/// structural checks.
fn tdg_fixture(pinned: bool) -> Vec<u8> {
    let mut file = TdgFile::from_graph("café", tdg_graph());
    if !pinned {
        file.digest.clear();
    }
    let mut text = file.to_json_pretty();
    text.push('\n');
    text.into_bytes()
}

/// A file of this test's own in a per-process directory (tests run on
/// parallel threads, so no two may share a file).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cata-reader-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The 1-based number of the line holding byte `at`.
fn line_of(bytes: &[u8], at: usize) -> usize {
    bytes[..at].iter().filter(|&&b| b == b'\n').count() + 1
}

/// The number of complete (newline-terminated) lines in `bytes`.
fn complete_lines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// True when a cut after `bytes` leaves a newline-less fragment.
fn ends_torn(bytes: &[u8]) -> bool {
    bytes.last().is_some_and(|&b| b != b'\n')
}

/// The line number an error names as `PATH: line N:`.
fn named_line(err: &str, path: &Path) -> usize {
    let prefix = format!("{}: line ", path.display());
    let at = err
        .find(&prefix)
        .unwrap_or_else(|| panic!("`{err}` does not name `{prefix}N:`"));
    let rest = &err[at + prefix.len()..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    assert!(rest[digits..].starts_with(':'), "`{err}` names no line");
    rest[..digits].parse().unwrap()
}

/// `full` with byte `at` (reduced mod the length) XOR-ed by `mask`, and
/// the line the flipped byte was on.
fn flip(full: &[u8], at: u64, mask: u8) -> (Vec<u8>, usize) {
    let at = (at % full.len() as u64) as usize;
    let mut bytes = full.to_vec();
    bytes[at] ^= mask;
    (bytes, line_of(full, at))
}

/// `full` with line `i` replaced by its head up to `a` joined to the tail
/// of line `j` from `b` (all reduced into range), and the 1-based number
/// of the spliced line. The head keeps at least one byte and the tail
/// keeps line `j`'s newline, so the spliced line is complete and never
/// blank.
fn splice(full: &[u8], i: u64, j: u64, a: u64, b: u64) -> (Vec<u8>, usize) {
    let lines: Vec<&[u8]> = full.split_inclusive(|&c| c == b'\n').collect();
    let (i, j) = (i as usize % lines.len(), j as usize % lines.len());
    let a = 1 + a as usize % (lines[i].len() - 1);
    let b = b as usize % lines[j].len();
    let mut bytes = Vec::with_capacity(full.len());
    for (k, line) in lines.iter().enumerate() {
        if k == i {
            bytes.extend_from_slice(&line[..a]);
            bytes.extend_from_slice(&lines[j][b..]);
        } else {
            bytes.extend_from_slice(line);
        }
    }
    (bytes, i + 1)
}

/// The complete, non-blank lines of `bytes`, as `JsonlTail::poll` must
/// yield them, or `None` when one of them is not UTF-8.
fn polled_lines(bytes: &[u8]) -> Option<Vec<String>> {
    let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let mut lines = Vec::new();
    for line in bytes[..end].split_inclusive(|&b| b == b'\n') {
        let line = std::str::from_utf8(&line[..line.len() - 1]).ok()?;
        if !line.trim().is_empty() {
            lines.push(line.to_string());
        }
    }
    Some(lines)
}

/// Polls a progress sidecar holding `bytes` through a fresh
/// `JsonlTail`. On success the lines must be exactly the complete ones,
/// and they are folded into a `DashState`, whose parse-error count is
/// returned; on failure the error must name the path and one of the
/// `lines`, since a complete line that is not UTF-8 fails the poll.
fn poll_progress(name: &str, bytes: &[u8], lines: &[usize]) -> u64 {
    let path = scratch(name);
    std::fs::write(&path, bytes).unwrap();
    match JsonlTail::new(&path).poll() {
        Ok(polled) => {
            assert_eq!(Some(polled.clone()), polled_lines(bytes));
            let mut state = DashState::new();
            for line in &polled {
                state.ingest_progress_line(line);
            }
            state.parse_errors
        }
        Err(e) => {
            assert!(polled_lines(bytes).is_none(), "{e}");
            let named = named_line(&e.to_string(), &path);
            assert!(lines.contains(&named), "{e} (damaged lines {lines:?})");
            0
        }
    }
}

/// Loads `bytes` as the `.tdg.json` behind a `WorkloadSpec::File`. The
/// load either succeeds — and then, for a `pinned` fixture, yields the
/// original graph and name unchanged — or fails with an
/// `ExpError::Workload` naming the path. Returns whether it loaded.
fn load_tdg(name: &str, bytes: &[u8], pinned: bool) -> bool {
    let path = scratch(name).to_string_lossy().into_owned();
    std::fs::write(&path, bytes).unwrap();
    let workload = WorkloadSpec::File {
        path: path.clone(),
        digest: None,
    };
    match workload.build_labeled_graph() {
        Ok((graph, label)) => {
            if pinned {
                assert_eq!(*graph, *tdg_graph());
                assert_eq!(label, "café");
            }
            true
        }
        Err(ExpError::Workload(msg)) => {
            assert!(msg.starts_with(&format!("{path}: ")), "{msg}");
            false
        }
        Err(other) => panic!("not a workload error: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn store_truncated_anywhere_loads_its_intact_prefix(cut in any::<u64>()) {
        let full = store_fixture();
        let kept = &full[..(cut % (full.len() as u64 + 1)) as usize];
        let path = scratch("truncated.jsonl");
        std::fs::write(&path, kept).unwrap();

        let (records, torn) = ResultsStore::load(&path).unwrap();
        prop_assert_eq!(torn, ends_torn(kept));
        prop_assert_eq!(records.len(), complete_lines(kept));
        for (record, line) in records.iter().zip(full.split(|&c| c == b'\n')) {
            prop_assert_eq!(serde_json::to_string(record).unwrap().as_bytes(), line);
        }

        // Opening for append also cuts the file back to the prefix.
        let store = ResultsStore::open(&path).unwrap();
        prop_assert_eq!(store.recovered_torn_tail(), torn);
        prop_assert_eq!(store.records().len(), records.len());
        let boundary = kept.iter().rposition(|&c| c == b'\n').map_or(0, |i| i + 1);
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), boundary as u64);
    }

    #[test]
    fn store_with_a_flipped_byte_loads_or_names_its_line(at in any::<u64>(), mask in 1u8..=255) {
        let (bytes, line) = flip(store_fixture(), at, mask);
        let path = scratch("flipped.jsonl");
        std::fs::write(&path, &bytes).unwrap();
        if let Err(e) = ResultsStore::load(&path) {
            // A byte flipped to `\n` splits its line, so the error may
            // name the second half.
            let named = named_line(&e.to_string(), &path);
            prop_assert!(named == line || named == line + 1, "{} (flipped line {})", e, line);
        }
    }

    #[test]
    fn store_with_spliced_lines_loads_or_names_the_line(
        i in any::<u64>(),
        j in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let (bytes, line) = splice(store_fixture(), i, j, a, b);
        let path = scratch("spliced.jsonl");
        std::fs::write(&path, &bytes).unwrap();
        if let Err(e) = ResultsStore::load(&path) {
            prop_assert_eq!(named_line(&e.to_string(), &path), line, "{}", e);
        }
    }

    #[test]
    fn tape_truncated_anywhere_loads_its_intact_prefix(cut in any::<u64>()) {
        let full = tape_fixture();
        let whole = TrafficTape::from_jsonl(std::str::from_utf8(full).unwrap()).unwrap();
        let kept = &full[..(cut % (full.len() as u64 + 1)) as usize];
        let path = scratch("truncated.tape.jsonl");
        std::fs::write(&path, kept).unwrap();

        let complete = complete_lines(kept);
        match TrafficTape::load(&path) {
            Ok((tape, torn)) => {
                prop_assert_eq!(torn, ends_torn(kept));
                prop_assert_eq!(&tape.name, &whole.name);
                prop_assert_eq!(&tape.records[..], &whole.records[..complete - 1]);
            }
            // No complete header line: nothing intact to load.
            Err(e) => {
                prop_assert_eq!(complete, 0, "{}", e);
                prop_assert!(e.to_string().contains("empty tape file"), "{}", e);
            }
        }
    }

    #[test]
    fn tape_with_a_flipped_byte_loads_or_names_its_line(at in any::<u64>(), mask in 1u8..=255) {
        let (bytes, line) = flip(tape_fixture(), at, mask);
        let path = scratch("flipped.tape.jsonl");
        std::fs::write(&path, &bytes).unwrap();
        if let Err(e) = TrafficTape::load(&path) {
            let named = named_line(&e.to_string(), &path);
            prop_assert!(named == line || named == line + 1, "{} (flipped line {})", e, line);
        }
    }

    #[test]
    fn tape_with_spliced_lines_loads_or_names_the_line(
        i in any::<u64>(),
        j in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let (bytes, line) = splice(tape_fixture(), i, j, a, b);
        let path = scratch("spliced.tape.jsonl");
        std::fs::write(&path, &bytes).unwrap();
        if let Err(e) = TrafficTape::load(&path) {
            prop_assert_eq!(named_line(&e.to_string(), &path), line, "{}", e);
        }
    }

    #[test]
    fn progress_truncated_anywhere_polls_its_complete_lines(cut in any::<u64>()) {
        let full = progress_fixture();
        let cut = (cut % (full.len() as u64 + 1)) as usize;
        let path = scratch("truncated.progress.jsonl");
        std::fs::write(&path, &full[..cut]).unwrap();

        let mut tail = JsonlTail::new(&path);
        let head = tail.poll().unwrap();
        prop_assert_eq!(Some(head.clone()), polled_lines(&full[..cut]));

        // The torn tail was held back: once the writer finishes the line,
        // the next poll yields it whole, and the two polls together fold
        // into the same state as the whole file, with no parse error.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        std::io::Write::write_all(&mut f, &full[cut..]).unwrap();
        let rest = tail.poll().unwrap();
        let (mut state, mut whole) = (DashState::new(), DashState::new());
        for line in head.iter().chain(&rest) {
            state.ingest_progress_line(line);
        }
        for line in polled_lines(full).unwrap() {
            whole.ingest_progress_line(&line);
        }
        prop_assert_eq!(head.len() + rest.len(), complete_lines(full));
        prop_assert_eq!(state.parse_errors, 0);
        prop_assert_eq!(format!("{state:?}"), format!("{whole:?}"));
    }

    #[test]
    fn progress_with_a_flipped_byte_is_one_parse_error_or_names_its_line(
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let full = progress_fixture();
        let (bytes, line) = flip(full, at, mask);
        let at = (at % full.len() as u64) as usize;
        // A flip to or from `\n` splits its line in two or merges it
        // with the next one.
        let newline = full[at] == b'\n' || bytes[at] == b'\n';
        let errors = poll_progress("flipped.progress.jsonl", &bytes, &[line, line + 1]);
        prop_assert!(errors <= if newline { 2 } else { 1 }, "{} parse errors", errors);
    }

    #[test]
    fn progress_with_spliced_lines_is_one_parse_error_or_names_the_line(
        i in any::<u64>(),
        j in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let (bytes, line) = splice(progress_fixture(), i, j, a, b);
        let errors = poll_progress("spliced.progress.jsonl", &bytes, &[line]);
        prop_assert!(errors <= 1, "{} parse errors", errors);
    }

    #[test]
    fn tdg_truncated_anywhere_never_loads(cut in any::<u64>()) {
        for pinned in [true, false] {
            let full = tdg_fixture(pinned);
            let cut = (cut % (full.len() as u64 + 1)) as usize;
            // Only the trailing newline may go.
            let loaded = load_tdg("truncated.tdg.json", &full[..cut], pinned);
            prop_assert_eq!(loaded, cut + 1 >= full.len(), "cut at {} of {}", cut, full.len());
        }
    }

    #[test]
    fn tdg_with_a_flipped_byte_loads_unchanged_or_names_the_path(
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        for pinned in [true, false] {
            let (bytes, _) = flip(&tdg_fixture(pinned), at, mask);
            load_tdg("flipped.tdg.json", &bytes, pinned);
        }
    }

    #[test]
    fn tdg_with_spliced_lines_loads_unchanged_or_names_the_path(
        i in any::<u64>(),
        j in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        for pinned in [true, false] {
            let (bytes, _) = splice(&tdg_fixture(pinned), i, j, a, b);
            load_tdg("spliced.tdg.json", &bytes, pinned);
        }
    }
}
