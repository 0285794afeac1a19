//! The live-tail loop: wires [`JsonlTail`] followers into a
//! [`DashState`] and paints frames — interactively on a real terminal,
//! or headlessly for CI.
//!
//! Three modes share one ingestion path:
//!
//! * **once** — poll every tail once, render at the auto-fitted height
//!   (every cell gets a table row), print the plain-text frame, exit.
//!   This is how CI asserts on a finished run's store.
//! * **until-done** — poll in a loop until the grid reports complete,
//!   then print the final plain-text frame. This is how CI live-tails a
//!   sweep running in a background process without a TTY.
//! * **live** (default) — raw-mode alternate-screen TUI with `q`/`j`/
//!   `k`/`Enter` keys, double-buffered diff repaints, exits when the
//!   user quits.
//!
//! Raw mode is borrowed from `stty(1)` rather than a C binding: `stty
//! -icanon -echo min 0 time 0` makes `read(2)` on the TTY non-blocking
//! (it returns 0 bytes when no key is pending), and the original
//! settings — saved with `stty -g` — are restored on drop, even on
//! panic.

use std::fs::File;
use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use cata_core::exp::{ExpError, JsonlTail};

use crate::dash::{render, required_height};
use crate::state::DashState;

/// What to tail and how to present it.
#[derive(Debug, Clone, Default)]
pub struct WatchConfig {
    /// Results-store files (`cata-results/v1`) to follow.
    pub stores: Vec<PathBuf>,
    /// Progress sidecars (`cata-progress/v1`) to follow.
    pub progress: Vec<PathBuf>,
    /// Perf trajectory (`cata-perf-point/v1`) to follow.
    pub trajectory: Option<PathBuf>,
    /// Poll interval between tail sweeps.
    pub interval_ms: u64,
    /// Headless: render one frame and exit.
    pub once: bool,
    /// Headless: poll until the grid completes, print the final frame.
    pub until_done: bool,
    /// Give up on `until_done` after this many seconds.
    pub timeout_s: Option<u64>,
    /// Frame width override (defaults to the terminal, or 100 headless).
    pub width: Option<usize>,
    /// Frame height override (defaults to the terminal, or auto-fit
    /// headless).
    pub height: Option<usize>,
}

/// All tails plus the state they fold into.
struct Follower {
    stores: Vec<JsonlTail>,
    progress: Vec<JsonlTail>,
    trajectory: Option<JsonlTail>,
    state: DashState,
}

impl Follower {
    fn new(cfg: &WatchConfig) -> Self {
        Follower {
            stores: cfg.stores.iter().map(JsonlTail::new).collect(),
            progress: cfg.progress.iter().map(JsonlTail::new).collect(),
            trajectory: cfg.trajectory.as_ref().map(JsonlTail::new),
            state: DashState::new(),
        }
    }

    /// One sweep over every tail; returns whether anything new arrived.
    fn poll(&mut self) -> Result<bool, ExpError> {
        let mut fresh = false;
        for t in &mut self.stores {
            for line in t.poll()? {
                self.state.ingest_store_line(&line);
                fresh = true;
            }
        }
        for t in &mut self.progress {
            for line in t.poll()? {
                self.state.ingest_progress_line(&line);
                fresh = true;
            }
        }
        if let Some(t) = &mut self.trajectory {
            for line in t.poll()? {
                self.state.ingest_trajectory_line(&line);
                fresh = true;
            }
        }
        Ok(fresh)
    }
}

/// Runs the watch in the mode the config selects. Returns the final
/// state (tests and callers inspect it); errors are I/O problems on the
/// tailed files or the TTY, or an `--until-done` grid that outlasted its
/// timeout ([`ExpError::Stalled`]).
pub fn run_watch(cfg: &WatchConfig) -> Result<DashState, ExpError> {
    if cfg.once || cfg.until_done {
        headless(cfg)
    } else {
        live(cfg)
    }
}

fn headless(cfg: &WatchConfig) -> Result<DashState, ExpError> {
    let mut fo = Follower::new(cfg);
    let deadline = cfg
        .timeout_s
        .map(|s| Instant::now() + Duration::from_secs(s));
    loop {
        fo.poll()?;
        if cfg.once || fo.state.complete() {
            break;
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Err(ExpError::Stalled(format!(
                    "watch --until-done: grid still at {}/{} after {}s",
                    fo.state.grid_done(),
                    fo.state.grid_total(),
                    cfg.timeout_s.unwrap_or(0),
                )));
            }
        }
        std::thread::sleep(Duration::from_millis(cfg.interval_ms.max(10)));
    }
    let w = cfg.width.unwrap_or(100);
    let h = cfg.height.unwrap_or_else(|| required_height(&fo.state, w));
    let frame = render(&fo.state, w, h);
    let mut out = std::io::stdout().lock();
    out.write_all(frame.to_text().as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| ExpError::Terminal(format!("stdout: {e}")))?;
    Ok(fo.state)
}

/// Restores the terminal on drop: cooked mode, main screen, cursor.
struct TermGuard {
    saved: String,
}

impl TermGuard {
    fn enter() -> Result<TermGuard, ExpError> {
        let saved = stty(&["-g"])?.trim().to_string();
        stty(&["-icanon", "-echo", "min", "0", "time", "0"])?;
        print!("\x1b[?1049h\x1b[?25l\x1b[2J");
        let _ = std::io::stdout().flush();
        Ok(TermGuard { saved })
    }
}

impl Drop for TermGuard {
    fn drop(&mut self) {
        print!("\x1b[?25h\x1b[?1049l");
        let _ = std::io::stdout().flush();
        let _ = stty(&[&self.saved]);
    }
}

/// Runs `stty` against the controlling terminal and returns its stdout.
fn stty(args: &[&str]) -> Result<String, ExpError> {
    let tty = File::open("/dev/tty")
        .map_err(|e| ExpError::Terminal(format!("/dev/tty: {e} (use --once off-terminal)")))?;
    let out = Command::new("stty")
        .args(args)
        .stdin(tty)
        .output()
        .map_err(|e| ExpError::Terminal(format!("stty: {e}")))?;
    if !out.status.success() {
        return Err(ExpError::Terminal(format!(
            "stty {args:?}: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The terminal's `(width, height)` per `stty size`.
fn term_size() -> (usize, usize) {
    if let Ok(s) = stty(&["size"]) {
        let mut it = s.split_whitespace();
        if let (Some(r), Some(c)) = (it.next(), it.next()) {
            if let (Ok(r), Ok(c)) = (r.parse(), c.parse()) {
                return (c, r);
            }
        }
    }
    (100, 30)
}

fn live(cfg: &WatchConfig) -> Result<DashState, ExpError> {
    let mut fo = Follower::new(cfg);
    let guard = TermGuard::enter()?;
    let mut tty =
        File::open("/dev/tty").map_err(|e| ExpError::Terminal(format!("/dev/tty: {e}")))?;
    let mut prev: Option<crate::frame::Frame> = None;
    let mut out = std::io::stdout();
    loop {
        fo.poll()?;
        let (tw, th) = term_size();
        let w = cfg.width.unwrap_or(tw);
        let h = cfg.height.unwrap_or(th);
        let frame = render(&fo.state, w, h);
        let paint = match &prev {
            Some(p) => frame.diff_ansi(p),
            None => frame.to_ansi(),
        };
        if !paint.is_empty() {
            out.write_all(paint.as_bytes())
                .and_then(|()| out.flush())
                .map_err(|e| ExpError::Terminal(format!("stdout: {e}")))?;
        }
        prev = Some(frame);

        // Drain pending keys; min 0 time 0 makes this non-blocking.
        let mut buf = [0u8; 64];
        let n = tty.read(&mut buf).unwrap_or(0);
        for &b in &buf[..n] {
            match b {
                b'q' | 0x03 => {
                    drop(guard);
                    return Ok(fo.state);
                }
                b'j' => fo.state.move_selection(1),
                b'k' => fo.state.move_selection(-1),
                b'\r' | b'\n' => fo.state.show_detail = !fo.state.show_detail,
                _ => {}
            }
        }
        std::thread::sleep(Duration::from_millis(cfg.interval_ms.max(16)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cata_core::exp::{ProgressEvent, ProgressWriter};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cata-obs-watch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn once_mode_renders_headlessly_from_files() {
        let dir = tmpdir("once");
        let progress = dir.join("s.progress.jsonl");
        let w = ProgressWriter::open(&progress, 0).unwrap();
        w.emit(ProgressEvent::GridProgress { done: 0, total: 1 })
            .unwrap();
        w.emit(ProgressEvent::CellStart {
            index: 0,
            name: "solo".into(),
            spec_digest: "d".into(),
        })
        .unwrap();
        w.emit(ProgressEvent::CellFinish {
            index: 0,
            cell: "solo@1/f1".into(),
            ok: true,
            wall_s: 0.25,
        })
        .unwrap();
        w.emit(ProgressEvent::GridProgress { done: 1, total: 1 })
            .unwrap();

        let cfg = WatchConfig {
            progress: vec![progress],
            once: true,
            interval_ms: 10,
            ..WatchConfig::default()
        };
        let state = run_watch(&cfg).unwrap();
        assert!(state.complete());
        assert_eq!(state.cells[&0].key, "solo@1/f1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn until_done_waits_for_a_writer_that_finishes_later() {
        let dir = tmpdir("until");
        let progress = dir.join("s.progress.jsonl");
        let w = ProgressWriter::open(&progress, 0).unwrap();
        w.emit(ProgressEvent::GridProgress { done: 0, total: 1 })
            .unwrap();

        let p2 = progress.clone();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            let w = ProgressWriter::open(&p2, 0).unwrap();
            w.emit(ProgressEvent::CellFinish {
                index: 0,
                cell: "late@1/f1".into(),
                ok: true,
                wall_s: 0.1,
            })
            .unwrap();
            w.emit(ProgressEvent::GridProgress { done: 1, total: 1 })
                .unwrap();
        });

        let cfg = WatchConfig {
            progress: vec![progress],
            until_done: true,
            timeout_s: Some(30),
            interval_ms: 10,
            ..WatchConfig::default()
        };
        let state = run_watch(&cfg).unwrap();
        writer.join().unwrap();
        assert!(state.complete());
        assert_eq!(state.cells[&0].key, "late@1/f1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn until_done_times_out_when_the_grid_never_completes() {
        let dir = tmpdir("timeout");
        let progress = dir.join("s.progress.jsonl");
        let w = ProgressWriter::open(&progress, 0).unwrap();
        w.emit(ProgressEvent::GridProgress { done: 0, total: 5 })
            .unwrap();
        let cfg = WatchConfig {
            progress: vec![progress],
            until_done: true,
            timeout_s: Some(0),
            interval_ms: 10,
            ..WatchConfig::default()
        };
        let err = run_watch(&cfg).unwrap_err();
        assert!(format!("{err}").contains("0/5"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_lines_are_held_back_until_completed() {
        let dir = tmpdir("torn");
        let progress = dir.join("s.progress.jsonl");
        // A full line plus a torn fragment (writer killed mid-record).
        let full = r#"{"schema":"cata-progress/v1","shard":0,"unix_ms":1,"kind":"grid","done":1,"total":2}"#;
        let mut f = std::fs::File::create(&progress).unwrap();
        write!(f, "{full}\n{{\"schema\":\"cata-prog").unwrap();
        f.flush().unwrap();

        let cfg = WatchConfig {
            progress: vec![progress.clone()],
            once: true,
            interval_ms: 10,
            ..WatchConfig::default()
        };
        let state = run_watch(&cfg).unwrap();
        assert_eq!(state.parse_errors, 0, "fragment must not be parsed");
        assert_eq!(state.grid_done(), 1);

        // The resumed writer completes the record; a fresh watch sees it.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&progress)
            .unwrap();
        writeln!(
            f,
            "ress/v1\",\"shard\":0,\"unix_ms\":2,\"kind\":\"grid\",\"done\":2,\"total\":2}}"
        )
        .unwrap();
        let state = run_watch(&cfg).unwrap();
        assert_eq!(state.parse_errors, 0);
        assert!(state.complete());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
