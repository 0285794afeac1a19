//! Bad `repro` input ends in one `error: …` line and exit status 2, never
//! a panic: an output path that cannot be written, a spec file that does
//! not parse or validate (a number out of `f64`'s range included), and a
//! removed flag.

use cata_core::exp::{ScenarioSpec, WorkloadSpec};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A path under a regular file, which no user can create or write.
fn unwritable(name: &str) -> String {
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-errors-not-a-dir");
    std::fs::write(&file, "").expect("create the blocking file");
    file.join(name).to_string_lossy().into_owned()
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// Asserts a clean failure and returns its `error:` line.
fn error_line(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    stderr
        .lines()
        .find(|l| l.starts_with("error: "))
        .unwrap_or_else(|| panic!("no `error:` line in:\n{stderr}"))
        .to_string()
}

#[test]
fn unwritable_csv_dir_is_an_error() {
    let dir = unwritable("csv");
    let out = repro(&[
        "preset", "FIFO", "--bench", "dedup", "--scale", "tiny", "--fast", "8", "--csv", &dir,
    ]);
    let line = error_line(&out);
    assert!(
        line.starts_with(&format!("error: cannot write {dir}: ")),
        "{line}"
    );
}

#[test]
fn unwritable_perf_report_is_an_error() {
    let path = unwritable("perf.json");
    let line = error_line(&repro(&["perf", "--smoke", "--reps", "1", "--out", &path]));
    assert!(
        line.starts_with(&format!("error: cannot write {path}: ")),
        "{line}"
    );
}

#[test]
fn spec_parse_error_names_the_character() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-errors-bad-spec.json");
    std::fs::write(&path, r#"{"name": x}"#).expect("write the spec");
    let path = path.to_string_lossy().into_owned();
    let line = error_line(&repro(&["run", &path]));
    assert!(line.starts_with(&format!("error: {path}: ")), "{line}");
    assert!(line.contains("found 'x' at byte 9"), "{line}");
}

/// A number too large for an `f64` is an error naming the file, in JSON
/// and in TOML, not an infinity that runs and then stores a record no
/// reader can load back.
#[test]
fn out_of_range_spec_number_is_an_error() {
    let spec =
        ScenarioSpec::preset("CATA", 8, WorkloadSpec::Chain { n: 4, cycles: 10 }).expect("preset");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for (name, text, from) in [
        ("cli-errors-huge.json", spec.to_json(), r#""uncore_w":10.0"#),
        ("cli-errors-huge.toml", spec.to_toml(), "uncore_w = 10.0"),
    ] {
        let path = dir.join(name);
        let to = from.replace("10.0", "1e999");
        assert!(text.contains(from), "{text}");
        std::fs::write(&path, text.replace(from, &to)).expect("write the spec");
        let path = path.to_string_lossy().into_owned();
        let line = error_line(&repro(&["run", &path]));
        assert!(line.starts_with(&format!("error: {path}: ")), "{line}");
        assert!(line.contains("number `1e999` out of range"), "{line}");
    }
}

/// Specs naming either retired event-queue backend still run, and print
/// the same summary lines as a spec without the key; any other value is
/// a validation error naming the key.
#[test]
fn legacy_event_queue_keys_change_nothing() {
    let workload = WorkloadSpec::Chain {
        n: 4,
        cycles: 10_000,
    };
    let base = ScenarioSpec::preset("CATA", 8, workload).expect("preset");
    let run = |key: Option<&str>| {
        let spec = ScenarioSpec {
            event_queue: key.map(String::from),
            ..base.clone()
        };
        let name = format!("cli-errors-event-queue-{}.json", key.unwrap_or("absent"));
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, spec.to_json()).expect("write the spec");
        repro(&["run", &path.to_string_lossy()])
    };
    let plain = run(None);
    assert!(plain.status.success(), "{plain:?}");
    let summary = String::from_utf8_lossy(&plain.stdout).into_owned();
    assert!(summary.starts_with("CATA "), "{summary}");
    for key in ["heap", "calendar-wheel"] {
        let out = run(Some(key));
        assert!(out.status.success(), "{key}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), summary, "{key}");
    }
    let line = error_line(&run(Some("quantum")));
    assert!(
        line.contains("unknown event-queue backend `quantum`"),
        "{line}"
    );
}

#[test]
fn event_queue_flag_is_gone() {
    let line = error_line(&repro(&[
        "preset",
        "CATA",
        "--bench",
        "dedup",
        "--scale",
        "tiny",
        "--fast",
        "8",
        "--event-queue",
        "heap",
    ]));
    assert_eq!(line, "error: unknown argument --event-queue");
}
