//! Figures 8–9: speculative scaling of a hypothetical system.
//!
//! The paper's §6 study: an Opteron-based machine with the Myrinet 2000
//! communication model substituted for Gigabit Ethernet (model reuse),
//! achieved rate 340 MFLOPS, scaled to 8000 processors for the 20-million-
//! cell problem (5×5×100 cells/PE, Fig. 8) and the one-billion-cell
//! problem (25×25×200 cells/PE, Fig. 9) — each also evaluated with the
//! achieved rate increased by 25% and 50%.

use std::time::{Duration, Instant};

use cluster_sim::{MachineSpec, ProgramSet};
use pace_core::workload::sweep3d_problem_config;
use pace_core::{
    AllreduceParams, HardwareModel, StencilParams, Sweep3dParams, Workload, WorkloadKind,
};
use registry::quoted as machines;
use sweep3d::trace::generate_program_set;
use sweep3d::ProblemConfig;
use sweepsvc::{ReplicationSummary, SweepEngine, SweepSpec, SweepStats};

/// The flop-rate what-ifs of the study: as-benchmarked, +25%, +50%.
pub const RATE_MULTIPLIERS: [f64; 3] = [1.0, 1.25, 1.50];

/// Which speculative problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// Fig. 8: 20 million cells, 5×5×100 per PE.
    TwentyMillion,
    /// Fig. 9: one billion cells, 25×25×200 per PE.
    OneBillion,
}

impl Problem {
    /// The paper figure this problem belongs to.
    pub fn figure(&self) -> &'static str {
        match self {
            Problem::TwentyMillion => "Figure 8",
            Problem::OneBillion => "Figure 9",
        }
    }

    /// Model parameters for a processor array.
    pub fn params(&self, px: usize, py: usize) -> Sweep3dParams {
        match self {
            Problem::TwentyMillion => Sweep3dParams::speculative_20m(px, py),
            Problem::OneBillion => Sweep3dParams::speculative_1b(px, py),
        }
    }

    /// Full DES problem configuration on a `px × py` array, derived from
    /// [`Problem::params`].
    pub fn config(&self, px: usize, py: usize) -> ProblemConfig {
        crate::validation::problem_config(&self.params(px, py))
    }
}

/// One point of a speculation curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Total processors.
    pub pes: usize,
    /// Array extents used.
    pub px: usize,
    /// Processors in `j`.
    pub py: usize,
    /// Predicted time at the actual rate, seconds.
    pub actual: f64,
    /// Predicted time at +25% rate.
    pub plus25: f64,
    /// Predicted time at +50% rate.
    pub plus50: f64,
}

/// A full speculation figure.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationCurve {
    /// Which problem.
    pub problem: Problem,
    /// Machine name.
    pub machine: String,
    /// Curve points, ascending in processor count.
    pub points: Vec<CurvePoint>,
}

/// The processor counts of the study: log-spaced from 1 to 8000, ending at
/// the paper's 8000-PE target (80×100 array).
pub fn processor_ladder() -> Vec<(usize, usize)> {
    vec![
        (1, 1),
        (1, 2),
        (2, 2),
        (2, 4),
        (4, 4),
        (4, 8),
        (8, 8),
        (8, 16),
        (16, 16),
        (16, 32),
        (32, 32),
        (32, 64),
        (50, 80),
        (80, 100),
    ]
}

/// Run one speculation figure on the hypothetical machine, fanned out over
/// all available worker threads.
pub fn run(problem: Problem) -> SpeculationCurve {
    let hw = machines::opteron_myrinet_hypothetical();
    run_on_with(problem, &hw, sweepsvc::available_workers()).0
}

/// The declarative sweep behind one speculation figure: the processor
/// ladder × the three rate what-ifs on one machine.
pub fn sweep_spec(problem: Problem, hw: &HardwareModel) -> SweepSpec {
    let mut spec =
        SweepSpec::new().machine_hw(hw.clone()).rate_multipliers(RATE_MULTIPLIERS.to_vec());
    for (px, py) in processor_ladder() {
        spec = spec.problem(format!("{px}x{py}"), problem.params(px, py));
    }
    spec
}

/// Run one speculation figure through the sweep engine with an explicit
/// worker count, returning the curve plus the engine's counters. The
/// curve is bit-identical to a serial, one-evaluation-at-a-time run for
/// any worker count (unit-tested).
pub fn run_on_with(
    problem: Problem,
    hw: &HardwareModel,
    workers: usize,
) -> (SpeculationCurve, SweepStats) {
    let outcome = SweepEngine::with_workers(workers).run(&sweep_spec(problem, hw));
    let points = processor_ladder()
        .into_iter()
        .enumerate()
        .map(|(p, (px, py))| {
            // Scenario ids are problem-major: point `p` owns the
            // contiguous multiplier block starting at `p * 3`.
            let base = p * RATE_MULTIPLIERS.len();
            CurvePoint {
                pes: px * py,
                px,
                py,
                actual: outcome.results[base].total_secs,
                plus25: outcome.results[base + 1].total_secs,
                plus50: outcome.results[base + 2].total_secs,
            }
        })
        .collect();
    (SpeculationCurve { problem, machine: hw.name.clone(), points }, outcome.stats)
}

/// The hypothetical machine of §6 as a DES `MachineSpec`: Opteron rate
/// curve with the Myrinet communication model, plus commodity noise and
/// the Myrinet-typical rendezvous threshold so replications differ by
/// seed.
pub fn speculation_machine() -> MachineSpec {
    let mut m = registry::sim::opteron_myrinet_sim();
    m.noise = cluster_sim::NoiseModel::commodity();
    m.rendezvous_bytes = Some(4096);
    m
}

/// Pick the processor-ladder array closest to a requested rank count
/// (exact match preferred; 8000 → 80×100, the paper's target).
pub fn array_for_ranks(ranks: usize) -> (usize, usize) {
    processor_ladder()
        .into_iter()
        .min_by_key(|&(px, py)| (px * py).abs_diff(ranks))
        .expect("ladder is non-empty")
}

/// One `experiments speculation` scenario: which workload to lower, at
/// what size, and how many noise seeds to replicate it under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSpec {
    /// The workload template.
    pub workload: WorkloadKind,
    /// The figure problem (read by the wavefront only).
    pub problem: Problem,
    /// Requested ranks. The wavefront and the stencil run on the ladder
    /// array nearest this count; the allreduce runs on exactly this many.
    pub ranks: usize,
    /// Outer iterations to simulate.
    pub iterations: usize,
    /// Noise seeds to replicate over.
    pub repeat: usize,
}

/// What a campaign simulated, as its report names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// A figure's SWEEP3D problem on a `px × py` array.
    Figure {
        /// Which problem.
        problem: Problem,
        /// Processors in `i`.
        px: usize,
        /// Processors in `j`.
        py: usize,
    },
    /// Another template of the workload library.
    Template {
        /// Stable workload kind (`"stencil"`, `"allreduce"`, …).
        kind: &'static str,
        /// Ranks simulated.
        ranks: usize,
    },
}

impl Subject {
    /// Ranks simulated.
    pub fn ranks(&self) -> usize {
        match *self {
            Subject::Figure { px, py, .. } => px * py,
            Subject::Template { ranks, .. } => ranks,
        }
    }
}

impl CampaignSpec {
    /// Lower the scenario to the program set every replication replays:
    /// the figure's SWEEP3D trace, or the template's DES lowering on the
    /// [`speculation_machine`].
    pub fn lower(&self) -> Result<(Subject, ProgramSet), String> {
        let template = |w: &dyn Workload| {
            let set = w.program_set(&speculation_machine())?;
            Ok((Subject::Template { kind: w.kind(), ranks: w.pes() }, set))
        };
        match self.workload {
            WorkloadKind::Wavefront => {
                let (px, py) = array_for_ranks(self.ranks);
                let params =
                    Sweep3dParams { iterations: self.iterations, ..self.problem.params(px, py) };
                let config = sweep3d_problem_config(&params)?;
                let subject = Subject::Figure { problem: self.problem, px, py };
                // The golden fixtures' fixed flop weights keep the campaign
                // reproducible without a profiling run.
                Ok((subject, generate_program_set(&config, &crate::attribute::FIXTURE_FLOPS)))
            }
            WorkloadKind::Stencil => {
                let (px, py) = array_for_ranks(self.ranks);
                template(&StencilParams {
                    iterations: self.iterations,
                    ..StencilParams::weak_scaling(px, py)
                })
            }
            WorkloadKind::Allreduce => template(&AllreduceParams {
                iterations: self.iterations,
                ..AllreduceParams::cg_like(self.ranks)
            }),
        }
    }
}

/// A seed-replicated discrete-event campaign: one lowered program set run
/// rank for rank by `cluster-sim` under each noise seed, fanned over the
/// sweep worker pool.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// What was simulated.
    pub subject: Subject,
    /// Outer iterations simulated.
    pub iterations: usize,
    /// Pool workers the seeds were fanned over.
    pub workers: usize,
    /// Distinct interned op streams (roles) in the program set.
    pub streams: usize,
    /// Ops stored once (sum over streams).
    pub stored_ops: usize,
    /// Ops executed per run (sum over ranks).
    pub ops_per_run: usize,
    /// The per-seed replication results, in seed order.
    pub summary: ReplicationSummary,
    /// Wall-clock time of the whole campaign (lowering + runs).
    pub wall: Duration,
}

/// Lower `spec` and replicate it under `spec.repeat` fixed noise seeds on
/// the [`speculation_machine`], fanned over `workers` pool threads. Fully
/// deterministic: two invocations produce bit-identical reports, for any
/// worker count.
pub fn simulate(spec: &CampaignSpec, workers: usize) -> Result<Campaign, String> {
    let t0 = Instant::now();
    let (subject, set) = spec.lower()?;
    let seeds: Vec<u64> = (1..=spec.repeat as u64).map(|i| 0x5EED_0000 + i).collect();
    let summary = sweepsvc::replicate_set_threaded(
        &speculation_machine(),
        &set,
        &seeds,
        workers,
        None,
        &obs::Obs::disabled(),
    )
    .map_err(|e| format!("speculation campaign: {e}"))?;
    Ok(Campaign {
        subject,
        iterations: spec.iterations,
        workers,
        streams: set.num_streams(),
        stored_ops: set.stored_ops(),
        ops_per_run: set.total_ops(),
        summary,
        wall: t0.elapsed(),
    })
}

impl Campaign {
    /// Total simulated events (executed ops) across all replications.
    pub fn total_events(&self) -> u64 {
        self.ops_per_run as u64 * self.summary.replications.len() as u64
    }

    /// Simulated events per wall-clock second — the throughput number the
    /// engine optimisations are measured by.
    pub fn events_per_sec(&self) -> f64 {
        self.total_events() as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// The campaign report: a JSON document, or markdown-style text.
    pub fn render(&self, json: bool) -> String {
        use std::fmt::Write as _;
        let s = &self.summary;
        let ranks = self.subject.ranks();
        let mut out = String::new();
        if json {
            out.push_str("{\n");
            match self.subject {
                Subject::Figure { problem, px, py } => {
                    let _ = writeln!(out, "  \"figure\": \"{}\",", problem.figure());
                    let _ = writeln!(out, "  \"array\": [{px}, {py}],");
                }
                Subject::Template { kind, .. } => {
                    let _ = writeln!(out, "  \"workload\": \"{kind}\",");
                }
            }
            let per_seed: Vec<String> = s
                .replications
                .iter()
                .map(|r| {
                    format!("{{\"seed\": {}, \"makespan_secs\": {:.6}}}", r.seed, r.makespan_secs)
                })
                .collect();
            let _ = write!(
                out,
                concat!(
                    "  \"ranks\": {},\n  \"iterations\": {},\n  \"repeat\": {},\n",
                    "  \"workers\": {},\n  \"streams\": {},\n",
                    "  \"stored_ops\": {},\n  \"ops_per_run\": {},\n  \"total_events\": {},\n",
                    "  \"wall_ms\": {:.3},\n  \"events_per_sec\": {:.0},\n",
                    "  \"makespan_secs\": {{\"mean\": {:.6}, \"min\": {:.6}, \"max\": {:.6}, \"std\": {:.6}}},\n",
                    "  \"replications\": [{}]\n}}\n"
                ),
                ranks,
                self.iterations,
                s.replications.len(),
                self.workers,
                self.streams,
                self.stored_ops,
                self.ops_per_run,
                self.total_events(),
                self.wall.as_secs_f64() * 1e3,
                self.events_per_sec(),
                s.mean_makespan(),
                s.min_makespan(),
                s.max_makespan(),
                s.std_dev_makespan(),
                per_seed.join(", ")
            );
            return out;
        }
        let _ = match self.subject {
            Subject::Figure { problem, px, py } => writeln!(
                out,
                "### DES speculation: {} on a {px}x{py} array ({ranks} ranks, {} iterations)\n",
                problem.figure(),
                self.iterations
            ),
            Subject::Template { kind, .. } => writeln!(
                out,
                "### DES speculation: {kind} workload on {ranks} ranks ({} iterations)\n",
                self.iterations
            ),
        };
        let _ = write!(
            out,
            concat!(
                "program encoding   : {} roles / {} ranks, {} ops stored for {} executed per run\n",
                "replications       : {} seeds over {} worker(s)\n",
                "makespan           : mean {:.4} s  (min {:.4}, max {:.4}, std {:.5})\n",
                "campaign wall      : {:.2} ms\n",
                "throughput         : {:.2} M simulated events/s\n\n"
            ),
            self.streams,
            ranks,
            self.stored_ops,
            self.ops_per_run,
            s.replications.len(),
            self.workers,
            s.mean_makespan(),
            s.min_makespan(),
            s.max_makespan(),
            s.std_dev_makespan(),
            self.wall.as_secs_f64() * 1e3,
            self.events_per_sec() / 1e6
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_core::Sweep3dModel;

    /// The pre-engine serial reference path: one model evaluation at a
    /// time, no pool, the ground truth the sweep path is tested against.
    fn run_on_serial(problem: Problem, hw: &HardwareModel) -> SpeculationCurve {
        let hw125 = hw.with_rate_scaled(1.25);
        let hw150 = hw.with_rate_scaled(1.50);
        let points = processor_ladder()
            .into_iter()
            .map(|(px, py)| {
                let params = problem.params(px, py);
                let model = Sweep3dModel::new(params);
                CurvePoint {
                    pes: px * py,
                    px,
                    py,
                    actual: model.predict(hw).total_secs,
                    plus25: model.predict(&hw125).total_secs,
                    plus50: model.predict(&hw150).total_secs,
                }
            })
            .collect();
        SpeculationCurve { problem, machine: hw.name.clone(), points }
    }

    #[test]
    fn ladder_reaches_8000() {
        let ladder = processor_ladder();
        assert_eq!(ladder.last().unwrap().0 * ladder.last().unwrap().1, 8000);
        // Monotone in total PEs.
        let totals: Vec<usize> = ladder.iter().map(|(a, b)| a * b).collect();
        assert!(totals.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn fig8_shape() {
        let curve = run(Problem::TwentyMillion);
        // Small per-PE problem: sub-second at small scale, still modest at
        // 8000 PEs (paper Fig. 8 tops out ~1.5 s).
        let first = &curve.points[0];
        let last = curve.points.last().unwrap();
        assert!(first.actual < 0.6, "1 PE: {}", first.actual);
        assert!(last.actual < 4.0, "8000 PEs: {}", last.actual);
        assert!(last.actual > first.actual, "pipeline fill dominates at scale");
    }

    #[test]
    fn fig9_shape() {
        let curve = run(Problem::OneBillion);
        let first = &curve.points[0];
        let last = curve.points.last().unwrap();
        // Large per-PE problem: seconds at 1 PE, growing with fill.
        assert!(first.actual > 1.0);
        assert!(last.actual > 2.0 * first.actual);
        assert!(last.actual < 60.0, "8000 PEs: {}", last.actual);
    }

    #[test]
    fn faster_rates_strictly_help_everywhere() {
        for problem in [Problem::TwentyMillion, Problem::OneBillion] {
            let curve = run(problem);
            for p in &curve.points {
                assert!(p.plus25 < p.actual, "{problem:?} at {} PEs", p.pes);
                assert!(p.plus50 < p.plus25);
                // But less than proportionally: communication does not
                // speed up with the CPU.
                assert!(p.plus50 > p.actual / 1.5 - 1e-12);
            }
        }
    }

    #[test]
    fn sweep_engine_is_bit_identical_to_serial() {
        let hw = machines::opteron_myrinet_hypothetical();
        for problem in [Problem::TwentyMillion, Problem::OneBillion] {
            let serial = run_on_serial(problem, &hw);
            let (one_worker, _) = run_on_with(problem, &hw, 1);
            let (many_workers, stats) = run_on_with(problem, &hw, 4);
            assert_eq!(serial, one_worker, "{problem:?}: 1-worker sweep diverged");
            assert_eq!(serial, many_workers, "{problem:?}: 4-worker sweep diverged");
            assert_eq!(stats.scenarios, 3 * serial.points.len(), "{problem:?}: one per rate");
        }
    }

    fn spec(workload: WorkloadKind, ranks: usize, iterations: usize) -> CampaignSpec {
        CampaignSpec { workload, problem: Problem::TwentyMillion, ranks, iterations, repeat: 2 }
    }

    #[test]
    fn des_campaign_is_reproducible_and_counts_events() {
        let a = simulate(&spec(WorkloadKind::Wavefront, 4, 1), 2).unwrap();
        let b = simulate(&spec(WorkloadKind::Wavefront, 4, 1), 4).unwrap();
        // Worker count must not change the results, only the wall clock.
        assert_eq!(a.summary.replications, b.summary.replications);
        assert_eq!(a.subject, Subject::Figure { problem: Problem::TwentyMillion, px: 2, py: 2 });
        assert_eq!(a.summary.replications.len(), 2);
        assert!(a.streams <= 4, "2x2 array has at most 4 roles, got {}", a.streams);
        assert!(a.stored_ops <= a.ops_per_run);
        assert_eq!(a.total_events(), 2 * a.ops_per_run as u64);
        assert!(a.events_per_sec() > 0.0);
        // Distinct seeds perturb the noisy machine.
        let makespans = a.summary.makespans();
        assert!(makespans[0] != makespans[1], "seeds had no effect: {makespans:?}");
    }

    #[test]
    fn every_workload_campaign_is_worker_count_invariant() {
        // The pool width must not change a single simulated number, for
        // any workload.
        for (workload, ranks) in
            [(WorkloadKind::Wavefront, 6), (WorkloadKind::Stencil, 4), (WorkloadKind::Allreduce, 5)]
        {
            let serial = simulate(&spec(workload, ranks, 1), 1).unwrap();
            let pooled = simulate(&spec(workload, ranks, 1), 3).unwrap();
            assert_eq!(serial.summary.replications, pooled.summary.replications, "{workload:?}");
        }
    }

    #[test]
    fn workload_campaigns_replicate_across_seeds() {
        let c = simulate(&spec(WorkloadKind::Stencil, 4, 3), 2).unwrap();
        assert_eq!(c.subject, Subject::Template { kind: "stencil", ranks: 4 });
        assert_eq!(c.iterations, 3);
        assert_eq!(c.summary.replications.len(), 2);
        let makespans = c.summary.makespans();
        assert!(makespans[0] != makespans[1], "seeds had no effect: {makespans:?}");
        assert!(c.total_events() > 0 && c.events_per_sec() > 0.0);
    }

    #[test]
    fn figure_problems_have_the_papers_sizes() {
        // 20M cells: 5x5x100 per PE on ~89x90 needs 8010 PEs; the paper
        // quotes 8000 for both problems.
        let c = Problem::TwentyMillion.config(80, 100);
        assert_eq!(c.total_cells(), 5 * 80 * 5 * 100 * 100);
        assert_eq!(c.num_pes(), 8000);
        assert_eq!(Problem::OneBillion.config(80, 100).total_cells(), 1_000_000_000);
    }

    #[test]
    fn array_selection_prefers_exact_ladder_points() {
        assert_eq!(array_for_ranks(8000), (80, 100));
        assert_eq!(array_for_ranks(64), (8, 8));
        assert_eq!(array_for_ranks(1), (1, 1));
    }

    #[test]
    fn good_scaling_behaviour() {
        // The paper: "In both cases the model predicts good scaling
        // behaviour" — time grows far slower than the PE count.
        let curve = run(Problem::OneBillion);
        let t1 = curve.points[0].actual;
        let t8000 = curve.points.last().unwrap().actual;
        assert!(t8000 / t1 < 10.0, "weak-scaling blow-up {}x", t8000 / t1);
    }
}
