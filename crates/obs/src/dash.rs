//! The dashboard renderer: a pure function from [`DashState`] to
//! [`Frame`].
//!
//! Nothing here touches the terminal, the clock, or the filesystem —
//! given the same state and dimensions the same frame comes back, so CI
//! renders headlessly and asserts on [`Frame::to_text`] while the live
//! loop feeds the identical frames through [`Frame::diff_ansi`].

use crate::frame::{Frame, Rect, Style};
use crate::state::{CellState, CellView, DashState};
use crate::widgets::{
    border, fmt_f64, fmt_ps, gauge, sparkline, GLYPH_DONE, GLYPH_FAILED, GLYPH_PENDING,
    GLYPH_RUNNING,
};

/// Heatmap cells drawn per frame row (inside the panel border).
fn heatmap_rows(total: u64, inner_w: usize) -> usize {
    if total == 0 || inner_w == 0 {
        1
    } else {
        (total as usize).div_ceil(inner_w)
    }
}

/// The frame height at which every panel — including one table row per
/// cell — fits without scrolling. Headless mode renders at this height
/// so the CI grep sees every cell key.
pub fn required_height(state: &DashState, w: usize) -> usize {
    let inner_w = w.saturating_sub(2).max(1);
    let mut h = 2; // title + gauge
    h += 2 + heatmap_rows(state.grid_total(), inner_w); // heatmap panel
    h += 3; // sparkline panel
    if state.service.is_some() {
        h += 3;
    }
    h += 3 + state.cells.len(); // table border + header + rows
    h + 1 // footer
}

/// Renders the dashboard into a `w × h` frame. Pure: no clock, no I/O.
pub fn render(state: &DashState, w: usize, h: usize) -> Frame {
    let mut f = Frame::new(w, h);
    let mut y = 0;

    // Title bar.
    f.hfill(0, y, w, ' ', Style::Inverse);
    let title = format!(
        " cata watch   cells {}   shards {}   parse errors {} ",
        state.cells.len(),
        state.shards.len().max(1),
        state.parse_errors,
    );
    f.text(0, y, &title, Style::Inverse);
    y += 1;

    // Completion gauge.
    let done = state.grid_done();
    let total = state.grid_total();
    f.text(1, y, "progress", Style::Dim);
    gauge(&mut f, 10, y, w.saturating_sub(11), done, total);
    y += 1;

    // Grid heatmap.
    let rows = heatmap_rows(total, w.saturating_sub(2).max(1));
    let hm = border(
        &mut f,
        Rect {
            x: 0,
            y,
            w,
            h: rows + 2,
        },
        "grid",
    );
    for (i, slot) in state.heat_slots().into_iter().enumerate() {
        let (gx, gy) = (i % hm.w.max(1), i / hm.w.max(1));
        let (ch, style) = match slot {
            None | Some(CellState::Pending) => GLYPH_PENDING,
            Some(CellState::Running) => GLYPH_RUNNING,
            Some(CellState::Done) => GLYPH_DONE,
            Some(CellState::Failed) => GLYPH_FAILED,
        };
        f.put(hm.x + gx, hm.y + gy, ch, style);
    }
    y += rows + 2;

    // Perf-trajectory sparkline.
    let sp = border(&mut f, Rect { x: 0, y, w, h: 3 }, "events/sec");
    if state.traj_host_mixed() {
        let hosts: Vec<&str> = state.traj_hosts.iter().map(|h| h.as_str()).collect();
        f.text(
            sp.x,
            sp.y,
            &format!("refusing cross-host mix: {}", hosts.join(", ")),
            Style::Red,
        );
    } else if state.traj.is_empty() {
        f.text(sp.x, sp.y, "no trajectory", Style::Dim);
    } else {
        let series: Vec<f64> = state.traj.iter().map(|p| p.events_per_sec).collect();
        let latest = format!(" {} ev/s", fmt_f64(series.last().copied()));
        let spark_w = sp.w.saturating_sub(latest.chars().count());
        sparkline(&mut f, sp.x, sp.y, spark_w, &series);
        f.text(sp.x + spark_w, sp.y, &latest, Style::Bold);
    }
    y += 3;

    // Service snapshot.
    if let Some(s) = &state.service {
        let sv = border(&mut f, Rect { x: 0, y, w, h: 3 }, "service");
        let line = format!(
            "arrivals {}  admitted {}  completed {}  dropped {}  in-flight {}  p99 {}  t {}",
            s.arrivals,
            s.admitted,
            s.completed,
            s.dropped,
            s.in_flight,
            fmt_ps(Some(s.p99_ps)),
            fmt_ps(Some(s.sim_time_ps)),
        );
        f.text(sv.x, sv.y, &line, Style::Plain);
        y += 3;
    }

    // Cell table or detail pane in the remaining space above the footer.
    let body_h = h.saturating_sub(y + 1);
    if body_h >= 3 {
        let area = Rect {
            x: 0,
            y,
            w,
            h: body_h,
        };
        match state.show_detail.then(|| state.selected_cell()).flatten() {
            Some(cell) => detail_pane(&mut f, area, cell),
            None => cell_table(&mut f, area, state),
        }
    }

    // Footer.
    f.text(
        1,
        h.saturating_sub(1),
        "q quit   j/k select   enter detail",
        Style::Dim,
    );
    f
}

fn cell_table(f: &mut Frame, area: Rect, state: &DashState) {
    let inner = border(f, area, "cells");
    if inner.h < 2 {
        return;
    }
    // Size the key column to the longest key so full cell names survive
    // into headless frames, but never let it squeeze out the metrics.
    let longest = state
        .cells
        .values()
        .map(|c| c.key.chars().count())
        .max()
        .unwrap_or(0);
    let key_w = longest.clamp(16, inner.w.saturating_sub(57).max(16));
    f.text(
        inner.x,
        inner.y,
        &format!(
            "{:>4} {:<key_w$} {:<7} {:>9} {:>10} {:>10} {:>5} {:>5}",
            "idx", "cell", "state", "wall_s", "edp", "p99", "flt", "memw"
        ),
        Style::Bold,
    );
    let visible = inner.h - 1;
    let first = state.selected.saturating_sub(visible.saturating_sub(1));
    for (row, cell) in state.cells.values().skip(first).take(visible).enumerate() {
        let (word, style) = match cell.state {
            CellState::Pending => ("pend", Style::Dim),
            CellState::Running => ("run", Style::Yellow),
            CellState::Done => ("done", Style::Green),
            CellState::Failed => ("FAIL", Style::Red),
        };
        // Digest-sized indices (serve cells) are identities, not grid
        // positions — a 20-digit number would wreck the columns.
        let idx = if cell.index < DashState::DENSE_INDEX_LIMIT {
            cell.index.to_string()
        } else {
            "-".into()
        };
        let line = format!(
            "{:>4} {:<key_w$} {:<7} {:>9} {:>10} {:>10} {:>5} {:>5}",
            idx,
            truncate(&cell.key, key_w),
            word,
            fmt_f64(cell.wall_s),
            fmt_f64(cell.edp),
            fmt_ps(cell.p99_ps),
            cell.faults_injected.map_or("-".into(), |v| v.to_string()),
            cell.mem_waited.map_or("-".into(), |v| v.to_string()),
        );
        let row_style = if first + row == state.selected {
            Style::Inverse
        } else {
            style
        };
        f.text(inner.x, inner.y + 1 + row, &line, row_style);
    }
}

fn detail_pane(f: &mut Frame, area: Rect, cell: &CellView) {
    let inner = border(f, area, &format!("cell {}", cell.index));
    let mut y = inner.y;
    let mut line = |f: &mut Frame, text: &str, style: Style| {
        if y < inner.y + inner.h {
            f.text(inner.x, y, text, style);
            y += 1;
        }
    };
    line(f, &format!("key      {}", cell.key), Style::Cyan);
    line(
        f,
        &format!(
            "host {}   started {}   finished {}   replayable {}",
            cell.host.as_deref().unwrap_or("-"),
            cell.started_unix_ms.map_or("-".into(), |v| v.to_string()),
            cell.finished_unix_ms.map_or("-".into(), |v| v.to_string()),
            if cell.has_spec { "yes" } else { "no" },
        ),
        Style::Plain,
    );
    let Some(r) = &cell.report else {
        line(f, "no report yet", Style::Dim);
        return;
    };
    line(
        f,
        &format!(
            "wall {}s   exec {}   energy {}J   edp {}",
            fmt_f64(cell.wall_s),
            fmt_ps(Some(r.exec_time.as_ps())),
            fmt_f64(r.energy.has_energy().then_some(r.energy.energy_j)),
            fmt_f64(cell.edp),
        ),
        Style::Plain,
    );
    line(
        f,
        &format!(
            "reconfig p50 {}  p90 {}  p99 {}   overhead {}  share {}",
            r.reconfig_latencies.quantile_with_bound(0.50),
            r.reconfig_latencies.quantile_with_bound(0.90),
            r.reconfig_latencies.quantile_with_bound(0.99),
            fmt_ps(Some(r.reconfig_overhead.as_ps())),
            fmt_f64(Some(r.reconfig_time_share)),
        ),
        Style::Plain,
    );
    if let Some(s) = &r.service {
        line(
            f,
            &format!(
                "service  arrivals {}  completed {}  dropped {}  p50 {}  p99 {}",
                s.arrivals,
                s.completed,
                s.dropped,
                s.latency.quantile_with_bound(0.50),
                s.latency.quantile_with_bound(0.99),
            ),
            Style::Plain,
        );
    }
    if let Some(ft) = &r.fault {
        line(
            f,
            &format!(
                "faults   injected {}  displaced {}  reexecuted {}  capacity lost {}",
                ft.injected,
                ft.displaced,
                ft.reexecuted,
                fmt_ps(Some(ft.capacity_lost.as_ps())),
            ),
            Style::Plain,
        );
    }
    if let Some(m) = &r.memory {
        line(
            f,
            &format!(
                "memory   requests {}  waited {}  crit wait {}  arbitration {}",
                m.requests,
                m.waited,
                fmt_ps(Some(m.crit_wait.as_ps())),
                m.arbitration,
            ),
            Style::Plain,
        );
    }
    // Per-core utilization bars (the closure stops at the pane bottom).
    let max_bar = inner.w.saturating_sub(16).min(40);
    for (core, u) in r.core_utilization.iter().enumerate() {
        let u = u.clamp(0.0, 1.0);
        let filled = (u * max_bar as f64).round() as usize;
        let bar: String = "█".repeat(filled) + &"░".repeat(max_bar - filled);
        line(
            f,
            &format!("core {core:>2} {bar} {:>5.1}%", u * 100.0),
            Style::Plain,
        );
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let head: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{head}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ShardProgress, TrajPoint};

    fn seeded_state() -> DashState {
        let mut st = DashState::new();
        st.shards.insert(0, ShardProgress { done: 1, total: 2 });
        st.shards.insert(1, ShardProgress { done: 1, total: 2 });
        for (i, (key, state)) in [
            ("alpha@1/f1", CellState::Done),
            ("beta@1/f1", CellState::Running),
            ("gamma@1/f2", CellState::Pending),
            ("delta@1/f2", CellState::Failed),
        ]
        .into_iter()
        .enumerate()
        {
            let mut c = CellView::placeholder(i as u64);
            c.key = key.to_string();
            c.state = state;
            if state == CellState::Done {
                c.wall_s = Some(1.25);
                c.edp = Some(0.5);
                c.p99_ps = Some(123_456);
            }
            st.cells.insert(i as u64, c);
        }
        st.traj = vec![
            TrajPoint {
                host: None,
                unix_ms: None,
                events_per_sec: 100.0,
            },
            TrajPoint {
                host: None,
                unix_ms: None,
                events_per_sec: 140.0,
            },
        ];
        st
    }

    #[test]
    fn render_is_deterministic_and_contains_every_cell_key() {
        let st = seeded_state();
        let h = required_height(&st, 100);
        let a = render(&st, 100, h);
        let b = render(&st, 100, h);
        assert_eq!(a, b, "same state ⇒ identical frame");
        let text = a.to_text();
        for key in ["alpha@1/f1", "beta@1/f1", "gamma@1/f2", "delta@1/f2"] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
        assert!(text.contains("2/4"), "gauge shows done/total:\n{text}");
        assert!(!text.contains("NaN") && !text.contains("inf"));
        assert!(text.contains('▶') && text.contains('█') && text.contains('✗'));
    }

    #[test]
    fn host_mix_refuses_the_sparkline() {
        let mut st = seeded_state();
        st.traj_hosts.insert("aaaa".into());
        st.traj_hosts.insert("bbbb".into());
        let text = render(&st, 100, required_height(&st, 100)).to_text();
        assert!(text.contains("refusing cross-host mix"), "{text}");
        assert!(text.contains("aaaa") && text.contains("bbbb"));
    }

    #[test]
    fn tiny_frames_render_without_panicking() {
        let st = seeded_state();
        for (w, h) in [(0, 0), (1, 1), (5, 3), (20, 5), (80, 10)] {
            let _ = render(&st, w, h);
        }
    }

    #[test]
    fn detail_pane_replaces_the_table() {
        let mut st = seeded_state();
        st.cells.get_mut(&0).unwrap().host = Some("cafe".into());
        st.selected = 0;
        st.show_detail = true;
        let text = render(&st, 100, 24).to_text();
        assert!(text.contains("cell 0"), "{text}");
        assert!(text.contains("host cafe"), "{text}");
        assert!(!text.contains("beta@1/f1"), "table hidden:\n{text}");
    }
}
