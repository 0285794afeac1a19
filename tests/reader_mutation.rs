//! Mutation tests of the results-store and traffic-tape readers.
//!
//! Each property starts from a valid store or tape file and damages it
//! the way a crash or a bad disk would: truncate it at any byte, flip any
//! byte, or splice the head of one line onto the tail of another (two
//! writers interleaving). The readers must never panic. A truncation
//! loads the intact prefix, with the torn flag set unless the cut fell on
//! a line boundary; any other damage either still parses or is an error
//! that names the path and the damaged line.
//!
//! One cell and the tape are named `café`, so cuts and flips also land
//! inside multi-byte characters.

use cata_core::exp::{default_registries, CellRecord, ResultsStore, ScenarioSpec, WorkloadSpec};
use cata_core::service::{ArrivalSpec, TrafficTape};
use cata_core::SimExecutor;
use cata_sim::time::SimDuration;
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
}
