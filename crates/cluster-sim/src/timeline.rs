//! Execution timelines: per-rank activity intervals for pipeline
//! diagnostics.
//!
//! The wavefront's fill/drain behaviour is easiest to *see*: this module
//! renders per-rank `(start, end, kind)` intervals as a text Gantt chart —
//! the picture behind Figure 1 of the paper, but with real simulated time
//! on the x-axis.
//!
//! Intervals are consumed directly from the engine's recorded span stream
//! (one [`obs`] span per activity interval, exact virtual-time bounds):
//! [`record`] runs a program set once under a recorder and folds the spans
//! into a [`Timeline`]. The pre-telemetry implementation re-ran the
//! programs and *approximated* interval boundaries by spreading per-rank
//! aggregates across the op sequence; that duplicate path is gone — the
//! chart now shows the exact intervals the engine executed.

use obs::{Cat, Recorder, SpanRecord};

use crate::engine::Engine;
use crate::error::SimResult;
use crate::machine::MachineSpec;
use crate::progset::ProgramSet;
use crate::stats::RunReport;
use crate::time::SimTime;

/// What a rank was doing during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Computing a block.
    Compute,
    /// Waiting for or processing a message.
    Communicate,
    /// Blocked in a collective.
    Collective,
    /// Idle (waiting on a receive).
    Idle,
}

impl Activity {
    /// Single-character glyph for the chart.
    pub fn glyph(&self) -> char {
        match self {
            Activity::Compute => '#',
            Activity::Communicate => '+',
            Activity::Collective => '=',
            Activity::Idle => '.',
        }
    }

    /// Map a telemetry category onto a chart activity. Orchestration
    /// categories (scenario/task/phase) have no lane in a rank chart.
    pub fn from_cat(cat: Cat) -> Option<Activity> {
        match cat {
            Cat::Compute => Some(Activity::Compute),
            Cat::Comm => Some(Activity::Communicate),
            Cat::Collective => Some(Activity::Collective),
            Cat::Idle => Some(Activity::Idle),
            Cat::Scenario | Cat::Task | Cat::Phase => None,
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
    /// Activity during the interval.
    pub activity: Activity,
}

/// A per-rank timeline, built from an instrumented run's span stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Intervals per rank, in time order.
    pub ranks: Vec<Vec<Interval>>,
    /// The run's report (for the makespan).
    pub report: RunReport,
}

/// Run a program set once under a recorder and build per-rank timelines
/// from the engine's exact span stream.
pub fn record(machine: &MachineSpec, set: ProgramSet) -> SimResult<Timeline> {
    let rec = Recorder::enabled();
    let report = Engine::from_set(machine, set).with_recorder(&rec, 0).run()?;
    Ok(Timeline::from_spans(&rec.sim_spans(), report))
}

impl Timeline {
    /// Fold a recorded span stream (one engine run; rank index as track
    /// id) into per-rank interval lists. Zero-length spans are dropped;
    /// the spans of one rank are non-overlapping and, once sorted (which
    /// [`Recorder::sim_spans`] guarantees), in time order.
    pub fn from_spans(spans: &[SpanRecord], report: RunReport) -> Timeline {
        let mut ranks: Vec<Vec<Interval>> = vec![Vec::new(); report.ranks.len()];
        for s in spans {
            let Some(activity) = Activity::from_cat(s.cat) else { continue };
            if s.dur == 0 || (s.tid as usize) >= ranks.len() {
                continue;
            }
            ranks[s.tid as usize].push(Interval {
                start: SimTime::from_picos(s.start),
                end: SimTime::from_picos(s.end()),
                activity,
            });
        }
        Timeline { ranks, report }
    }

    /// Render as a text Gantt chart with `width` columns.
    pub fn render(&self, width: usize) -> String {
        let makespan = self.report.makespan().max(1e-30);
        let mut out = String::new();
        out.push_str(&format!(
            "timeline ({} ranks, makespan {:.4}s; # compute, + comm, = collective, . idle)\n",
            self.ranks.len(),
            makespan
        ));
        for (rank, intervals) in self.ranks.iter().enumerate() {
            let mut row = vec![' '; width];
            for iv in intervals {
                let a = ((iv.start.as_secs() / makespan) * width as f64) as usize;
                let b = ((iv.end.as_secs() / makespan) * width as f64).ceil() as usize;
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = iv.activity.glyph();
                }
            }
            out.push_str(&format!("r{rank:>3} |{}|\n", row.iter().collect::<String>()));
        }
        out
    }

    /// Fraction of total rank-time spent computing.
    pub fn compute_fraction(&self) -> f64 {
        self.report.mean_compute_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Op, Program};

    fn pipeline_programs(ranks: usize, blocks: usize) -> ProgramSet {
        let mut programs = Vec::new();
        for r in 0..ranks {
            let mut p = Program::new();
            for b in 0..blocks {
                if r > 0 {
                    p.push(Op::Recv { from: r - 1, tag: b as u32 });
                }
                p.push(Op::Compute { flops: 1e6, working_set: 0 });
                if r + 1 < ranks {
                    p.push(Op::Send { to: r + 1, bytes: 1024, tag: b as u32 });
                }
            }
            p.push(Op::Barrier);
            programs.push(p);
        }
        ProgramSet::from_programs(&programs)
    }

    #[test]
    fn timeline_covers_every_rank() {
        let machine = MachineSpec::ideal(100.0);
        let tl = record(&machine, pipeline_programs(4, 6)).unwrap();
        assert_eq!(tl.ranks.len(), 4);
        for rank in &tl.ranks {
            assert!(!rank.is_empty());
            // Intervals are ordered and non-overlapping.
            for w in rank.windows(2) {
                assert!(w[0].end <= w[1].start);
            }
        }
    }

    #[test]
    fn downstream_ranks_idle_during_fill() {
        let machine = MachineSpec::ideal(100.0);
        let tl = record(&machine, pipeline_programs(5, 4)).unwrap();
        // The last rank's first interval is idle (waiting for the front).
        let last = tl.ranks.last().unwrap();
        assert_eq!(last[0].activity, Activity::Idle);
        // Rank 0 starts computing immediately.
        assert_eq!(tl.ranks[0][0].activity, Activity::Compute);
    }

    #[test]
    fn render_shape() {
        let machine = MachineSpec::ideal(100.0);
        let tl = record(&machine, pipeline_programs(3, 3)).unwrap();
        let chart = tl.render(40);
        assert_eq!(chart.lines().count(), 4); // header + 3 ranks
        assert!(chart.contains('#'));
        assert!(chart.contains("r  0"));
    }

    #[test]
    fn category_totals_are_exact() {
        // The span stream carries exact interval bounds, so per-category
        // interval sums equal the engine's statistics to the picosecond.
        let machine = MachineSpec::ideal(100.0);
        let programs = pipeline_programs(3, 5);
        let tl = record(&machine, programs).unwrap();
        for (rank, intervals) in tl.ranks.iter().enumerate() {
            let total = |activity: Activity| -> u64 {
                intervals
                    .iter()
                    .filter(|iv| iv.activity == activity)
                    .map(|iv| (iv.end - iv.start).picos())
                    .sum()
            };
            let stats = &tl.report.ranks[rank];
            assert_eq!(total(Activity::Compute), stats.compute.picos(), "rank {rank} compute");
            assert_eq!(total(Activity::Idle), stats.recv_wait.picos(), "rank {rank} idle");
            assert_eq!(
                total(Activity::Communicate),
                (stats.send_overhead + stats.send_wait + stats.recv_overhead).picos(),
                "rank {rank} comm"
            );
            assert_eq!(
                total(Activity::Collective),
                stats.collective.picos(),
                "rank {rank} collective"
            );
        }
    }

    #[test]
    fn intervals_start_at_exact_span_bounds() {
        // Rank 1's first interval must start at 0 (waiting from t=0), and
        // its compute must start exactly when the message lands + recv
        // overhead is paid — positions the old proportional reconstruction
        // could only approximate.
        let machine = MachineSpec::ideal(100.0);
        let tl = record(&machine, pipeline_programs(2, 1)).unwrap();
        let r1 = &tl.ranks[1];
        assert_eq!(r1[0].activity, Activity::Idle);
        assert_eq!(r1[0].start, SimTime::ZERO);
        let compute = r1.iter().find(|iv| iv.activity == Activity::Compute).unwrap();
        let comm_before: u64 = r1
            .iter()
            .filter(|iv| iv.activity == Activity::Communicate && iv.end <= compute.start)
            .map(|iv| (iv.end - iv.start).picos())
            .sum();
        assert_eq!(
            compute.start.picos(),
            r1[0].end.picos() + comm_before,
            "compute starts right after the receive completes"
        );
    }
}
