//! # cata-obs — the operator console
//!
//! A dependency-free terminal dashboard that live-tails the artifacts a
//! CATA run writes as it goes — shard [`ResultsStore`] files, the
//! `.progress.jsonl` heartbeat sidecars, and the `repro perf
//! --trajectory` series — and folds them into one merged view: a
//! grid-completion heatmap, an events/sec sparkline, per-cell wall/EDP/
//! p99/fault/memory accounting, and a detail pane for finished cells.
//!
//! The crate is layered so CI never needs a TTY:
//!
//! * [`frame`] — styled character grids; plain-text and ANSI
//!   projections, double-buffered diffing.
//! * [`widgets`] — borders, gauges, heatmap glyphs, sparklines, and the
//!   `-`-for-missing formatters that keep `NaN`/`inf` out of frames.
//! * [`state`] — incremental, interleaving-tolerant ingestion of the
//!   three JSONL dialects into a [`DashState`].
//! * [`dash`] — the **pure** renderer `&DashState → Frame`.
//! * [`watch`] — the live loop: tail-poll, render, diff-paint, keys;
//!   plus the headless `--once` / `--until-done` modes CI drives.
//!
//! Everything terminal-shaped is confined to [`watch`]; the rest is
//! deterministic and unit-tested headlessly.
//!
//! [`ResultsStore`]: cata_core::exp::ResultsStore

#![forbid(unsafe_code)]

pub mod dash;
pub mod frame;
pub mod state;
pub mod watch;
pub mod widgets;

pub use dash::{render, required_height};
pub use frame::{Frame, Rect, Style};
pub use state::{CellState, CellView, DashState, ServiceView, ShardProgress, TrajPoint};
pub use watch::{run_watch, WatchConfig};
