//! In-memory spans around the benchmark's calls into each layer, and the
//! per-cell timing wrapper the sweeps run through.
//!
//! A span records name, start, end and parent. Recording is off unless a
//! traced run switches it on, so plain runs pay one relaxed atomic load per
//! call site. Spans stay in memory and are written out once, at exit.

use cata_core::exp::{Executor, ExpError, Scenario};
use cata_core::{RunReport, SimExecutor};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// The innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// The id of the innermost open span on this thread, to hand to worker
/// threads as their parent.
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// Runs `f` inside a span named `name` whose parent is this thread's
/// innermost open span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_under(current(), name, f)
}

/// Runs `f` inside a span with an explicit parent (used on worker threads,
/// whose own stack does not know the span that spawned them).
pub fn span_under<T>(parent: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let outer = CURRENT.with(|c| c.replace(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    CURRENT.with(|c| c.set(outer));
    SPANS.lock().expect("span list poisoned").push(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Every span recorded so far, in end order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span list poisoned"))
}

/// Total and self time per span name, sorted by self time (descending).
/// Self time is a span's duration minus the part its children cover;
/// children on other threads can overlap each other, so the covered part
/// is the union of the children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, f64, f64)> {
    use std::collections::{BTreeMap, HashMap};
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let total = (s.end_ns - s.start_ns) as f64;
        let mut kids = children.get(&s.id).cloned().unwrap_or_default();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in kids {
            let a = a.max(reach);
            let b = b.min(s.end_ns);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total - covered as f64;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

/// Writes spans as JSON lines (`id`, `parent`, `name`, `start_ns`,
/// `end_ns`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// An [`Executor`] around [`SimExecutor`] that times every `execute` call,
/// so per-cell host time is measured without changing `Suite`.
pub struct TimedExecutor {
    inner: SimExecutor,
    /// Parent span for cells (the suite span on the calling thread).
    parent: AtomicU64,
    cell_ms: Mutex<Vec<f64>>,
}

impl TimedExecutor {
    pub fn new() -> Self {
        TimedExecutor {
            inner: SimExecutor::default(),
            parent: AtomicU64::new(0),
            cell_ms: Mutex::new(Vec::new()),
        }
    }

    /// Makes the calling thread's open span the parent of the cells that
    /// follow.
    pub fn adopt_parent(&self) {
        self.parent.store(current(), Ordering::Relaxed);
    }

    /// Per-cell host milliseconds since the last call.
    pub fn drain_cell_ms(&self) -> Vec<f64> {
        std::mem::take(&mut *self.cell_ms.lock().expect("cell times poisoned"))
    }
}

impl Executor for TimedExecutor {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn execute(&self, scenario: &Scenario) -> Result<RunReport, ExpError> {
        let parent = self.parent.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let out = span_under(parent, "sim_exec.execute", || self.inner.execute(scenario));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.cell_ms.lock().expect("cell times poisoned").push(ms);
        out
    }
}
