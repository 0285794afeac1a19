//! The repository benchmark: end-to-end and per-layer timings of the CATA
//! workspace on three workloads, each run in a fresh process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep|serve-contended|replay-store-watch \
//!     [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke] \
//!     [--out RESULT.json] [--spans SPANS.jsonl] [--break-golden]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare A.json B.json
//! ```
//!
//! One seed drives graphs, tapes, TDG exports and fault draws. The default
//! seed is 1; seed 2 is held out: use it only to confirm a claimed gain,
//! never while tuning the change that claims it.
//!
//! A run sets the workload up in this process and repeats the workload's
//! fixed batch of work until `--seconds` have passed; between batches it
//! sets the workload up again in a few fresh child processes, and the
//! median of all set-ups is `setup_s`. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` (output checks, counted per operation) and
//! `metrics` — the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics of a traced run. All numbers are host time; simulated results
//! are only checked, never scored.

mod bench;
mod golden;
mod layers;
mod report;
mod serve;
mod spans;
mod storewatch;
mod sweep;

use bench::{Batch, Ledger, Opts, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["paper-sweep", "serve-contended", "replay-store-watch"];

/// Fresh-process set-ups per run (plus the one in the measuring process):
/// at least `MIN`, then more until `MAX` or until they have taken
/// `BUDGET_S` seconds, so cheap set-ups get enough samples for a steady
/// median and expensive ones do not dominate the run. They are spread
/// over the run, so one slow stretch of a shared host does not decide
/// their median.
const SETUP_CHILDREN_MIN: usize = 2;
const SETUP_CHILDREN_MAX: usize = 10;
const SETUP_BUDGET_S: f64 = 8.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    break_golden: bool,
    setup_only: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out: None,
        spans: None,
        break_golden: false,
        setup_only: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--size" => {
                a.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    v => return Err(format!("--size takes full or smoke, not {v}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            "--break-golden" => a.break_golden = true,
            "--setup-only" => a.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn build(name: &str, opts: &Opts) -> Box<dyn Workload> {
    match name {
        "paper-sweep" => Box::new(sweep::PaperSweep::setup(opts)),
        "serve-contended" => Box::new(serve::ServeContended::setup(opts)),
        _ => Box::new(storewatch::ReplayStoreWatch::setup(opts)),
    }
}

/// A scratch directory unique to this process inside the checkout's build
/// directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = PathBuf::from(".bench_build")
            .join("perfbench-tmp")
            .join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one set-up in a fresh child process and returns its seconds.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let size = if args.size == Size::Smoke {
        "smoke"
    } else {
        "full"
    };
    let out = std::process::Command::new(exe)
        .args(["--setup-only", "--workload", &args.workload, "--size", size])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "set-up child printed no time".to_string())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = argv.skip(1).collect();
        return report::compare(&files);
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot create a scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = Opts {
        seed: args.seed,
        size: args.size,
        jobs: nproc.min(2),
        dir: scratch.0.clone(),
        break_golden: args.break_golden,
    };
    if args.setup_only {
        let w = build(&args.workload, &opts);
        println!("setup_s={}", w.setup_profile().seconds);
        return ExitCode::SUCCESS;
    }
    let provenance = report::Provenance::now(&args.workload, args.seed, nproc);
    println!("{}", provenance.line());

    let mut w = build(&args.workload, &opts);
    let mut setups = vec![w.setup_profile().seconds];
    let mut child_setup_s = 0.0;

    let mut ledger = Ledger::default();
    w.preflight(&mut ledger);
    let mut plain: Vec<Batch> = Vec::new();
    let mut traced: Vec<Batch> = Vec::new();
    let t0 = Instant::now();
    loop {
        let mut batch = w.batch(false, &mut ledger);
        if plain.is_empty() {
            for (name, digest) in report::output_digests(&batch) {
                println!("# digest {name} {digest}");
            }
        }
        // Only the last traced batch's reports are needed; holding every
        // batch's would make peak memory grow with the run's length.
        batch.cells = Vec::new();
        plain.push(batch);
        if args.trace {
            if let Some(prev) = traced.last_mut() {
                prev.cells = Vec::new();
            }
            spans::set_enabled(true);
            traced.push(spans::span("batch", || w.batch(true, &mut ledger)));
            spans::set_enabled(false);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let children = setups.len() - 1;
        let spread_due = children < SETUP_CHILDREN_MAX
            && child_setup_s < SETUP_BUDGET_S
            && elapsed >= args.seconds * children as f64 / SETUP_CHILDREN_MAX as f64;
        let owed = elapsed >= args.seconds && children < SETUP_CHILDREN_MIN;
        if !args.trace && (spread_due || owed) {
            match child_setup(&args) {
                Ok(s) => {
                    setups.push(s);
                    child_setup_s += s;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if elapsed >= args.seconds && (args.trace || setups.len() > SETUP_CHILDREN_MIN) {
            break;
        }
    }
    let peak_rss_mib = report::peak_rss_mib();
    w.final_checks(&mut ledger);

    let metrics = if args.trace {
        let last = traced.last().expect("at least one traced batch");
        let costs = layers::measure(&w.shape(), w.setup_profile(), last, &opts.dir, opts.seed);
        let all_spans = spans::take();
        report::print_spans(&all_spans);
        let path = args.spans.clone().unwrap_or_else(|| {
            PathBuf::from(".bench_build")
                .join("perfbench-spans")
                .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed))
        });
        if let Err(e) = spans::write_jsonl(&path, &all_spans) {
            eprintln!("warning: cannot write spans to {}: {e}", path.display());
        }
        report::per_layer(w.setup_profile(), &plain, &traced, &costs, opts.jobs)
    } else {
        report::end_to_end(&setups, &plain, peak_rss_mib, &ledger)
    };
    report::emit(
        &args.workload,
        &provenance,
        &ledger,
        &metrics,
        args.out.as_deref(),
    )
}
