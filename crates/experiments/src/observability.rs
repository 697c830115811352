//! The `obs` subcommand: one representative validation scenario run end
//! to end under full telemetry, with a phase-by-phase breakdown.
//!
//! The scenario is a Table 2 row (200×200 on a 4×4 Opteron/GigE array):
//! small enough to run in CI, rich enough to exercise every span source —
//! kernel calibration, hardware benchmarking, the simulated measurement
//! (per-rank sim spans) and the PACE prediction. Each phase is recorded
//! as a wall span; the measurement's per-rank activity lands as sim spans
//! whose per-category totals must reproduce the run's [`RankStats`]
//! exactly (that cross-check is printed, not just asserted in tests).

use std::time::{Duration, Instant};

use cluster_sim::Engine;
use obs::{Cat, Obs};
use registry::sim as sim_machines;
use sweep3d::trace::{generate_program_set, FlopModel};

use crate::validation::{self, RowSpec};

/// Track group of the phase wall spans (see [`obs::pids`]).
pub const PHASE_PID: u32 = obs::pids::PHASE;
/// Track group of the representative measurement's sim spans.
pub const MEASURE_PID: u32 = obs::pids::ENGINE;

/// One recorded phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Wall-clock duration.
    pub wall: Duration,
}

/// Per-rank cross-check row: recorded span totals vs engine statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankCheck {
    /// Rank index.
    pub rank: usize,
    /// Recorded compute picoseconds (== `RankStats::compute`).
    pub compute_ps: u64,
    /// Recorded communication picoseconds (send/recv overhead + stalls).
    pub comm_ps: u64,
    /// Recorded collective picoseconds.
    pub collective_ps: u64,
    /// Recorded idle picoseconds.
    pub idle_ps: u64,
    /// The engine's finish time for this rank.
    pub finish_ps: u64,
    /// Whether the four totals sum exactly to `finish_ps`.
    pub exact: bool,
}

/// The representative run's results.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// The row that was run.
    pub spec: RowSpec,
    /// Phase wall times, in execution order.
    pub phases: Vec<Phase>,
    /// Simulated measurement, seconds.
    pub measured_secs: f64,
    /// PACE prediction, seconds.
    pub predicted_secs: f64,
    /// Per-rank span-vs-stats cross-check.
    pub ranks: Vec<RankCheck>,
}

impl ObsReport {
    /// True iff every rank's span totals reproduce its statistics exactly.
    pub fn all_exact(&self) -> bool {
        self.ranks.iter().all(|r| r.exact)
    }
}

/// Run the representative scenario under `obs`, recording phase wall
/// spans, the measurement's sim spans and summary metrics.
pub fn run_representative(obs: &Obs) -> ObsReport {
    let spec = validation::TABLE2_ROWS[4]; // 200x200 on 4x4, 16 PEs
    let machine = sim_machines::opteron_gige_sim();
    let rec = &*obs.recorder;
    rec.set_process_name(PHASE_PID, "experiments obs");
    rec.set_thread_name(PHASE_PID, 0, "phases");
    rec.set_process_name(MEASURE_PID, format!("measure {}x{}", spec.it, spec.jt));
    let mut phases = Vec::new();
    let mut phase = |name: &'static str, t0: Instant| {
        rec.wall_span(PHASE_PID, 0, name, Cat::Phase, t0, vec![]);
        let wall = t0.elapsed();
        phases.push(Phase { name, wall });
        obs.metrics.gauge_set(&format!("wall.obs.phase.{name}_us"), wall.as_micros() as f64);
    };

    let t0 = Instant::now();
    let config = validation::row_config(&spec);
    let flop_model = FlopModel::calibrate(&config, 10);
    phase("calibrate", t0);

    let t0 = Instant::now();
    let hw = hwbench::benchmark_machine(&machine, &[50], 1);
    phase("benchmark", t0);

    // The recorder may be shared with earlier subcommands (`experiments
    // all`) that traced runs on the same pid; only this run's spans count.
    let before = rec.sim_totals();
    let t0 = Instant::now();
    let set = generate_program_set(&config, &flop_model);
    let seeded = machine.clone().with_seed(machine.seed ^ 1);
    let report = Engine::from_set(&seeded, set)
        .with_recorder(rec, MEASURE_PID)
        .run()
        .expect("trace executes without deadlock");
    phase("measure", t0);

    let t0 = Instant::now();
    let predicted_secs = validation::predict_row(&spec, &hw);
    phase("predict", t0);

    let totals = rec.sim_totals();
    let total = |rank: usize, cat: Cat| -> u64 {
        let key = (MEASURE_PID, rank as u32, cat);
        let sum = |t: &std::collections::BTreeMap<_, u64>| t.get(&key).copied().unwrap_or(0);
        sum(&totals) - sum(&before)
    };
    let ranks: Vec<RankCheck> = report
        .ranks
        .iter()
        .enumerate()
        .map(|(rank, stats)| {
            let compute_ps = total(rank, Cat::Compute);
            let comm_ps = total(rank, Cat::Comm);
            let collective_ps = total(rank, Cat::Collective);
            let idle_ps = total(rank, Cat::Idle);
            let finish_ps = stats.finish.picos();
            RankCheck {
                rank,
                compute_ps,
                comm_ps,
                collective_ps,
                idle_ps,
                finish_ps,
                exact: compute_ps + comm_ps + collective_ps + idle_ps == finish_ps,
            }
        })
        .collect();
    obs.metrics.counter_add("obs.ranks", ranks.len() as u64);
    obs.metrics.counter_add("obs.sim_spans", rec.sim_spans().len() as u64);
    ObsReport { spec, phases, measured_secs: report.makespan(), predicted_secs, ranks }
}

/// Render the report as the subcommand's console output.
pub fn render(report: &ObsReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let spec = &report.spec;
    let _ = writeln!(
        out,
        "### Observability run: {}x{} on {}x{} ({} PEs), Opteron/GigE\n",
        spec.it,
        spec.jt,
        spec.px,
        spec.py,
        spec.pes()
    );
    let _ = writeln!(out, "| phase | wall (ms) |");
    let _ = writeln!(out, "|---|---|");
    for p in &report.phases {
        let _ = writeln!(out, "| {} | {:.3} |", p.name, p.wall.as_secs_f64() * 1e3);
    }
    let _ = writeln!(
        out,
        "\nmeasured {:.4} s, predicted {:.4} s\n",
        report.measured_secs, report.predicted_secs
    );
    let _ = writeln!(out, "per-rank recorded span totals vs engine statistics (ms):");
    let _ = writeln!(out, "| rank | compute | comm | collective | idle | finish | exact |");
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    let ms = |ps: u64| ps as f64 / 1e9;
    for r in &report.ranks {
        let _ = writeln!(
            out,
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {} |",
            r.rank,
            ms(r.compute_ps),
            ms(r.comm_ps),
            ms(r.collective_ps),
            ms(r.idle_ps),
            ms(r.finish_ps),
            if r.exact { "yes" } else { "NO" }
        );
    }
    let _ = writeln!(
        out,
        "\nspan accounting: {}",
        if report.all_exact() {
            "every rank's spans sum to its finish time exactly"
        } else {
            "MISMATCH - spans do not cover the run"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_run_is_exact_and_phased() {
        let obs = Obs::enabled();
        let report = run_representative(&obs);
        assert!(report.all_exact(), "{:?}", report.ranks);
        assert_eq!(report.ranks.len(), 16);
        let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["calibrate", "benchmark", "measure", "predict"]);
        assert!(report.measured_secs > 0.0 && report.predicted_secs > 0.0);
        // Phase wall spans landed on the phase track.
        let phase_spans: Vec<_> =
            obs.recorder.wall_spans().into_iter().filter(|s| s.pid == PHASE_PID).collect();
        assert_eq!(phase_spans.len(), 4);
        // And the rendering mentions the cross-check result.
        let text = render(&report);
        assert!(text.contains("exactly"), "{text}");
    }

    #[test]
    fn earlier_spans_on_a_shared_recorder_do_not_break_the_cross_check() {
        // `experiments all` traces other runs into the same recorder first.
        let obs = Obs::enabled();
        let rec = &*obs.recorder;
        rec.sim_span(MEASURE_PID, 0, "compute", Cat::Compute, 0, 12_345, vec![]);
        rec.sim_span(MEASURE_PID, 3, "recv", Cat::Idle, 0, 678, vec![]);
        let first = run_representative(&obs);
        let second = run_representative(&obs);
        assert!(first.all_exact(), "{:?}", first.ranks);
        assert_eq!(first.ranks, second.ranks);
    }
}
