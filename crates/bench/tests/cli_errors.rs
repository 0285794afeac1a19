//! Bad `repro` input ends in one `error: …` line and exit status 2, never
//! a panic: an output path that cannot be written, a spec file that does
//! not parse or validate (a number out of `f64`'s range included), and
//! removed flags. Only a bad command line also prints the usage text.
//! The live console off a terminal fails on the terminal, not the store,
//! and a watch that times out says so. `perf` will not write its report
//! over its baseline by default. Power parameters whose energy overflows
//! fail the run and leave the store readable. The fault and memory
//! overlays order the grid, `gc` builds the same grid as `run`, and
//! `--backend both` leaves out the native twins no native run can honour.

use cata_core::exp::{ScenarioSpec, WorkloadSpec};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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

/// The usage text follows an argument error, not an error about a file.
#[test]
fn only_argument_errors_print_the_usage() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-errors-torn-spec.json");
    std::fs::write(&path, r#"{"name": "#).expect("write the spec");
    let out = repro(&["run", &path.to_string_lossy()]);
    error_line(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    let out = repro(&["run", "--jobs", "many"]);
    assert_eq!(error_line(&out), "error: bad --jobs");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

/// A flag the command does not read, a flag that breaks a rule relating
/// flags to each other, or a bad value is a bad command line: exit 2, one
/// `error:` line containing the given text, then the usage. A registry key
/// is checked against its registry as the line is read. A `--min-ratio`
/// that is not a finite number above 0 would disable the throughput gates
/// of `merge` and `perf`, since no ratio compares below NaN. A flag that
/// acts only with another names the one it needs.
#[test]
fn flag_rules_print_one_error_and_the_usage() {
    let preset = [
        "preset", "CATA", "--bench", "dedup", "--scale", "tiny", "--fast", "8",
    ];
    let cases: &[(&[&str], &str)] = &[
        (
            &["merge", "s.jsonl", "--fault-rate", "0.05"],
            "--fault-rate",
        ),
        (&["export", "--mem-slots", "1"], "--mem-slots"),
        (
            &["fig4", "--bench", "dedup", "--fast", "8", "--toml"],
            "--bench",
        ),
        (&["spec", "CATA", "--jobs", "3", "--csv", "x"], "--jobs"),
        (
            &[
                "serve",
                "CATA",
                "--rate",
                "100",
                "--fault-rate",
                "0.05",
                "--fault-axis",
            ],
            "--fault-axis",
        ),
        (
            &[
                "serve",
                "CATA",
                "--rate",
                "100",
                "--mem-slots",
                "1",
                "--mem-axis",
            ],
            "--mem-axis",
        ),
        (&[&preset[..], &["--fault-axis"]].concat(), "--fault-axis"),
        (
            &[&preset[..], &["--arbitration", "crit-first"]].concat(),
            "--arbitration",
        ),
        (
            &[
                &preset[..],
                &["--fault-rate", "0.05", "--recovery", "bogus"],
            ]
            .concat(),
            "bad --recovery: unknown recovery policy `bogus`",
        ),
        (
            &[
                "serve",
                "CATA",
                "--rate",
                "100",
                "--duration",
                "10ms",
                "--admission",
                "bogus",
            ],
            "bad --admission: unknown admission policy `bogus`",
        ),
        (&["run", "a.json", "--tdg", "g.tdg.json"], "--tdg"),
        (&["gc", "s.jsonl", "a.json", "--bench", "dedup"], "--bench"),
        (&["merge", "s.jsonl", "--progress", "p.jsonl"], "--progress"),
        (&[&preset[..], &["--once"]].concat(), "--once"),
        (
            &["serve", "CATA", "--rate", "100", "--tape", "t.jsonl"],
            "--rate",
        ),
        (
            &[
                "merge",
                "s.jsonl",
                "--baseline",
                "b.json",
                "--min-ratio",
                "NaN",
            ],
            "bad --min-ratio",
        ),
        (
            &["perf", "--smoke", "--min-ratio", "inf"],
            "bad --min-ratio",
        ),
        (
            &["merge", "s.jsonl", "--min-ratio", "-1"],
            "bad --min-ratio",
        ),
        (&["merge", "s.jsonl", "--min-ratio", "0.5"], "--baseline"),
        (&["perf", "--smoke", "--min-ratio", "0.5"], "--baseline"),
        (&["perf", "--smoke", "--reps", "0"], "--reps"),
        (
            &["serve", "CATA", "--rate", "100", "--shard", "1/2"],
            "--progress",
        ),
        (
            &[&preset[..], &["--native-energy", "model"]].concat(),
            "--backend",
        ),
    ];
    for (args, flag) in cases {
        let out = repro(args);
        let line = error_line(&out);
        assert!(line.contains(flag), "{args:?}: {line}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "{args:?}: {stderr}");
        let usage = stderr.find("usage: repro").expect("usage follows");
        assert!(usage > stderr.find(&line).expect("error line"), "{stderr}");
    }
}

/// `watch` with no controlling terminal fails opening `/dev/tty`: exit 1
/// and a `terminal:` error, though the store it was given reads fine.
#[test]
fn watch_off_a_terminal_blames_the_terminal() {
    let store = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-errors-watch.jsonl");
    std::fs::write(&store, "").expect("write the store");
    let out = Command::new("setsid")
        .args(["-w", env!("CARGO_BIN_EXE_repro"), "watch"])
        .arg(&store)
        .stdin(Stdio::null())
        .output()
        .expect("setsid (util-linux) runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: terminal: /dev/tty: "),
        "{stderr}"
    );
}

/// `watch --until-done` over a grid that stays unfinished fails on its
/// timeout, exit 1, and blames no store (none was given).
#[test]
fn watch_timeout_names_the_timeout() {
    let sidecar = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-errors-watch-p.jsonl");
    std::fs::write(
        &sidecar,
        "{\"schema\":\"cata-progress/v1\",\"shard\":0,\"unix_ms\":1,\"kind\":\"grid\",\
         \"done\":0,\"total\":1}\n",
    )
    .expect("write the sidecar");
    let sidecar = sidecar.to_string_lossy().into_owned();
    let out = repro(&[
        "watch",
        "--progress",
        &sidecar,
        "--until-done",
        "--timeout",
        "1",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        "error: stalled: watch --until-done: grid still at 0/1 after 1s"
    );
}

/// `perf --baseline F` without `--out` would write its report to the
/// default `BENCH_engine.json`; when that is `F`, however it is spelled,
/// it is a bad command line and the baseline keeps its bytes.
#[test]
fn perf_keeps_its_baseline() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-errors-perf-baseline");
    std::fs::create_dir_all(&dir).expect("make the dir");
    let baseline = dir.join("BENCH_engine.json");
    let bytes = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine.json"
    ))
    .expect("read the recorded baseline");
    std::fs::write(&baseline, &bytes).expect("copy the baseline");
    for path in ["BENCH_engine.json", "./BENCH_engine.json"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["perf", "--smoke", "--reps", "1", "--baseline", path])
            .current_dir(&dir)
            .output()
            .expect("repro runs");
        let line = error_line(&out);
        assert!(line.contains("--out"), "{path}: {line}");
        assert_eq!(std::fs::read(&baseline).expect("baseline"), bytes, "{path}");
    }
}

/// `--backend both` pairs every preset with a native twin except
/// TurboMode's, whose `turbo` accel the native runtime cannot run: 11
/// cells and one line naming the twin left out. `--backend native` keeps
/// that cell, and it fails naming the key.
#[test]
fn backend_both_leaves_out_native_twins_it_cannot_run() {
    let preset = [
        "preset", "--bench", "dedup", "--scale", "tiny", "--fast", "8", "--jobs", "2",
    ];
    let out = repro(&[&preset[..], &["--backend", "both"]].concat());
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let skips: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("native twin"))
        .collect();
    assert_eq!(skips.len(), 1, "{stdout}");
    assert!(skips[0].contains("TurboMode (accel turbo)"), "{stdout}");
    let cells = stdout.lines().filter(|l| l.contains(" tasks=")).count();
    assert_eq!(cells, 11, "{stdout}");

    let out = repro(&[&preset[..], &["TurboMode", "--backend", "native"]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("accel `turbo` has no native twin"),
        "{stderr}"
    );
}

/// Faults, then memory, make the grid: each preset's fault-free cells
/// come first, and under each, the memory-free twin, then one cell per
/// arbitration key.
#[test]
fn fault_and_memory_axes_order_the_grid() {
    let out = repro(&[
        "preset",
        "CATA",
        "FIFO",
        "--bench",
        "dedup",
        "--scale",
        "tiny",
        "--fast",
        "8",
        "--jobs",
        "1",
        "--fault-rate",
        "0.05",
        "--fault-axis",
        "--mem-slots",
        "1",
        "--arbitration",
        "fifo,crit-first",
        "--mem-axis",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let labels: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.starts_with("fault:") && !l.starts_with("memory:"))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut want = Vec::new();
    for preset in ["CATA", "FIFO"] {
        for faults in ["", "+faults"] {
            for mem in ["", "+mem1/fifo", "+mem1/crit-first"] {
                want.push(format!("{preset}{faults}{mem}"));
            }
        }
    }
    assert_eq!(labels, want, "{stdout}");
}

/// `gc` builds its grid through the same overlays as `run`, so a store
/// written under fault or memory flags keeps every cell when `gc` is given
/// the same flags.
#[test]
fn gc_keeps_the_cells_of_overlaid_grids() {
    let spec =
        ScenarioSpec::preset("CATA", 8, WorkloadSpec::Chain { n: 4, cycles: 10 }).expect("preset");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("cli-errors-gc-spec.json");
    std::fs::write(&path, spec.to_json()).expect("write the spec");
    let path = path.to_string_lossy().into_owned();
    for (name, flags) in [
        ("mem", &["--mem-slots", "1,2"][..]),
        ("faults", &["--fault-rate", "0.05", "--fault-axis"]),
    ] {
        let store = dir.join(format!("cli-errors-gc-{name}.jsonl"));
        let _ = std::fs::remove_file(&store);
        let store = store.to_string_lossy().into_owned();
        let out = repro(&[&["run", &path, "--store", &store][..], flags].concat());
        assert!(out.status.success(), "{out:?}");
        let out = repro(&[&["gc", &store, &path][..], flags].concat());
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("[gc {store}: kept 2, dropped 0 stale record(s)]")),
            "{name}: {stdout}"
        );
    }
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

/// Sharding has one deal, so its order and cost-calibration flags are
/// gone.
#[test]
fn shard_order_and_calibration_flags_are_gone() {
    for (flag, value) in [("--shard-order", "snake"), ("--calibrate-costs", "x.jsonl")] {
        let line = error_line(&repro(&[
            "preset", "CATA", "--bench", "dedup", "--scale", "tiny", "--fast", "8", "--shard",
            "1/2", flag, value,
        ]));
        assert_eq!(line, format!("error: unknown argument {flag}"));
    }
}

/// A power parameter must be finite and non-negative, and one whose
/// energy overflows fails its run without writing a record: the store
/// line counts it as failed, not executed, and the store still takes a
/// valid run afterwards, and still merges.
#[test]
fn power_parameters_that_overflow_leave_the_store_readable() {
    let spec =
        ScenarioSpec::preset("CATA", 8, WorkloadSpec::Chain { n: 4, cycles: 10 }).expect("preset");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write the spec");
        path.to_string_lossy().into_owned()
    };
    let text = spec.to_json();
    assert!(text.contains(r#""c_eff_nf":1.0"#), "{text}");
    let negative = write(
        "cli-errors-negative-power.json",
        text.replace(r#""c_eff_nf":1.0"#, r#""c_eff_nf":-1.0"#),
    );
    let line = error_line(&repro(&["run", &negative]));
    assert!(line.contains("power parameter c_eff_nf"), "{line}");

    let store = dir.join("cli-errors-power.jsonl");
    let _ = std::fs::remove_file(&store);
    let store = store.to_string_lossy().into_owned();
    let huge = write(
        "cli-errors-huge-power.json",
        text.replace(r#""c_eff_nf":1.0"#, r#""c_eff_nf":1.7e308"#),
    );
    let out = repro(&["run", &huge, "--store", &store]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("the power parameters (c_eff_nf=1.7e308"),
        "{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("[store {store}: 0 resumed, 0 executed, 1 failed]")),
        "{stdout}"
    );
    let valid = write("cli-errors-valid-power.json", text);
    let out = repro(&["run", &valid, "--store", &store]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("[store {store}: 0 resumed, 1 executed, 0 failed]")),
        "{stdout}"
    );
    let out = repro(&["merge", &store]);
    assert!(out.status.success(), "{out:?}");
    let merged = String::from_utf8_lossy(&out.stdout);
    assert_eq!(merged.matches("CATA ").count(), 1, "{merged}");
}
