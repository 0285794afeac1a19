//! ASCII schedule rendering from simulation traces.
//!
//! The paper's methodology identifies critical paths by "visualiz\[ing\] the
//! parallel execution of the application" with profiling tools (Paraver).
//! This module is the equivalent for our traces: a per-core time-bucketed
//! Gantt chart showing what each core ran, its criticality, and its
//! frequency — used by the examples and invaluable when calibrating
//! workloads.
//!
//! ```text
//! core0 |CCCCCCCC....ffffFFFF|
//! core1 |nnnnnnnnnnnn........|
//!        0µs              2ms
//! ```
//!
//! Legend: `C` critical task on a fast core, `c` critical on slow, `N`/`n`
//! non-critical fast/slow, `.` idle, `z` halted. One column = one bucket.

use cata_sim::machine::CoreId;
use cata_sim::time::{SimDuration, SimTime};
use cata_sim::trace::{Trace, TraceEvent};

/// One core's state during a bucket (precedence: running > halted > idle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Idle,
    Halted,
    Task { critical: bool, fast: bool },
}

impl Cell {
    fn glyph(self) -> char {
        match self {
            Cell::Idle => '.',
            Cell::Halted => 'z',
            Cell::Task {
                critical: true,
                fast: true,
            } => 'C',
            Cell::Task {
                critical: true,
                fast: false,
            } => 'c',
            Cell::Task {
                critical: false,
                fast: true,
            } => 'N',
            Cell::Task {
                critical: false,
                fast: false,
            } => 'n',
        }
    }
}

/// Renders a Gantt chart of `trace` over `num_cores` cores and `[0, end]`,
/// with `width` character columns. `num_cores` may be smaller than the
/// traced machine: records for higher-numbered cores are ignored, so a
/// 32-core run can be summarized by its first rows.
///
/// The chart samples each core's state at bucket boundaries, so very short
/// tasks inside one bucket may not be visible; it is a visualization aid,
/// not an accounting tool (use [`RunReport`](crate::report::RunReport) for
/// numbers).
pub fn render(trace: &Trace, num_cores: usize, end: SimTime, width: usize) -> String {
    let width = width.max(2);
    let end_ps = end.as_ps().max(1);
    let bucket = SimDuration::from_ps(end_ps.div_ceil(width as u64));

    // Build per-core state timelines from the trace.
    #[derive(Clone)]
    struct CoreState {
        cells: Vec<Cell>,
        current: Cell,
        fast: bool,
        cursor: usize,
    }
    let mut cores = vec![
        CoreState {
            cells: Vec::with_capacity(width),
            current: Cell::Idle,
            fast: false,
            cursor: 0,
        };
        num_cores
    ];

    let bucket_of = |t: SimTime| ((t.as_ps() / bucket.as_ps()) as usize).min(width - 1);
    let fill = |c: &mut CoreState, upto: usize| {
        while c.cursor < upto.min(width) {
            c.cells.push(c.current);
            c.cursor += 1;
        }
    };

    let mut apply = |core: CoreId, t: SimTime, f: &mut dyn FnMut(&mut CoreState)| {
        // Cores beyond the rendered subset simply don't get a row.
        let Some(c) = cores.get_mut(core.index()) else {
            return;
        };
        let b = bucket_of(t);
        // Fill buckets up to (not including) the event's bucket with the
        // previous state.
        let target = b;
        while c.cursor < target.min(width) {
            c.cells.push(c.current);
            c.cursor += 1;
        }
        f(c);
    };

    for rec in trace.records() {
        match rec.event {
            TraceEvent::TaskStart { core, critical, .. } => {
                apply(core, rec.time, &mut |c| {
                    c.current = Cell::Task {
                        critical,
                        fast: c.fast,
                    };
                });
            }
            TraceEvent::TaskEnd { core, .. } => {
                apply(core, rec.time, &mut |c| c.current = Cell::Idle);
            }
            TraceEvent::Halt { core } => {
                apply(core, rec.time, &mut |c| {
                    if c.current == Cell::Idle {
                        c.current = Cell::Halted;
                    }
                });
            }
            TraceEvent::Wake { core } => {
                apply(core, rec.time, &mut |c| {
                    if c.current == Cell::Halted {
                        c.current = Cell::Idle;
                    }
                });
            }
            TraceEvent::ReconfigApplied { core, level } => {
                let fast = level.frequency.as_mhz() >= 2000;
                apply(core, rec.time, &mut |c| {
                    c.fast = fast;
                    if let Cell::Task { critical, .. } = c.current {
                        c.current = Cell::Task { critical, fast };
                    }
                });
            }
        }
    }

    let mut out = String::new();
    for (i, c) in cores.iter_mut().enumerate() {
        fill(c, width);
        out.push_str(&format!("core{i:<3}|"));
        out.extend(c.cells.iter().map(|cell| cell.glyph()));
        out.push_str("|\n");
    }
    out.push_str(&format!("{:>7}0{:>width$}\n", "", end, width = width + 1));
    out.push_str("legend: C/c critical (fast/slow)  N/n non-critical  . idle  z halted\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{default_registries, ScenarioSpec, WorkloadSpec};
    use crate::{RunReport, SimExecutor};

    fn cata_rsu(fast: usize, workload: WorkloadSpec) -> ScenarioSpec {
        ScenarioSpec::preset("CATA+RSU", fast, workload).expect("paper preset")
    }

    /// Runs `spec` with full tracing.
    fn traced(spec: ScenarioSpec) -> (RunReport, Trace) {
        SimExecutor
            .run_spec(&spec.with_trace(), default_registries())
            .expect("fault-free runs cannot fail")
    }

    #[test]
    fn renders_one_row_per_core_and_legend() {
        let w = WorkloadSpec::ForkJoin {
            waves: 2,
            width: 6,
            cycles: 1_000_000,
        };
        let (r, trace) = traced(cata_rsu(2, w).with_small_machine(4, 2));
        let s = render(&trace, 4, cata_sim::time::SimTime::ZERO + r.exec_time, 60);
        assert_eq!(s.lines().count(), 4 + 2, "4 core rows + axis + legend");
        for i in 0..4 {
            assert!(s.contains(&format!("core{i}")));
        }
        assert!(s.contains("legend"));
        // Work happened: some task glyph must appear.
        assert!(s.contains('N') || s.contains('n') || s.contains('C') || s.contains('c'));
    }

    #[test]
    fn critical_tasks_show_as_critical_glyphs() {
        let w = WorkloadSpec::SkewedDiamond {
            width: 4,
            cycles: 4_000_000,
            skew: 8,
        };
        let (r, trace) = traced(cata_rsu(1, w).with_small_machine(4, 1));
        let s = render(&trace, 4, cata_sim::time::SimTime::ZERO + r.exec_time, 80);
        assert!(
            s.contains('C') || s.contains('c'),
            "the critical branch must be visible:\n{s}"
        );
    }

    #[test]
    fn renders_subset_of_a_larger_machine() {
        // A 32-core paper-machine trace rendered at 8 rows: records for
        // cores 8..32 must be skipped, not panic (regression: the
        // pipeline_app example shows "first 8 cores").
        let w = WorkloadSpec::ForkJoin {
            waves: 3,
            width: 24,
            cycles: 1_000_000,
        };
        let (r, trace) = traced(cata_rsu(8, w));
        let s = render(&trace, 8, cata_sim::time::SimTime::ZERO + r.exec_time, 60);
        assert_eq!(s.lines().count(), 8 + 2, "8 core rows + axis + legend");
        assert!(!s.contains("core8 "), "no rows beyond the subset");
    }

    #[test]
    fn empty_trace_renders_idle_machine() {
        let trace = Trace::enabled();
        let s = render(&trace, 2, SimTime::from_us(10), 10);
        assert!(s.contains(&".".repeat(10)));
    }
}
