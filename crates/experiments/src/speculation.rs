//! Figures 8–9: speculative scaling of a hypothetical system.
//!
//! The paper's §6 study: an Opteron-based machine with the Myrinet 2000
//! communication model substituted for Gigabit Ethernet (model reuse),
//! achieved rate 340 MFLOPS, scaled to 8000 processors for the 20-million-
//! cell problem (5×5×100 cells/PE, Fig. 8) and the one-billion-cell
//! problem (25×25×200 cells/PE, Fig. 9) — each also evaluated with the
//! achieved rate increased by 25% and 50%.

use std::time::{Duration, Instant};

use cluster_sim::MachineSpec;
use pace_core::{HardwareModel, Sweep3dModel, Sweep3dParams, Workload};
use registry::quoted as machines;
use sweep3d::trace::{generate_program_set, FlopModel};
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

    /// Full DES problem configuration on a `px × py` array (the per-PE
    /// subgrid of the figure: 5×5×100 or 25×25×200).
    pub fn config(&self, px: usize, py: usize) -> ProblemConfig {
        match self {
            Problem::TwentyMillion => ProblemConfig::speculative(5, 5, 100, px, py),
            Problem::OneBillion => ProblemConfig::speculative(25, 25, 200, px, py),
        }
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

/// Run one speculation figure on the hypothetical machine.
pub fn run(problem: Problem) -> SpeculationCurve {
    run_on(problem, &machines::opteron_myrinet_hypothetical())
}

/// Run one speculation figure on an arbitrary hardware model, fanned out
/// over all available worker threads.
pub fn run_on(problem: Problem, hw: &HardwareModel) -> SpeculationCurve {
    run_on_with(problem, hw, sweepsvc::available_workers()).0
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
/// curve is bit-identical to [`run_on_serial`] for any worker count.
pub fn run_on_with(
    problem: Problem,
    hw: &HardwareModel,
    workers: usize,
) -> (SpeculationCurve, SweepStats) {
    run_on_observed(problem, hw, workers, &obs::Obs::disabled())
}

/// [`run_on_with`] with telemetry: the sweep engine records per-scenario
/// wall spans and publishes pool/cache counters into `obs`.
pub fn run_on_observed(
    problem: Problem,
    hw: &HardwareModel,
    workers: usize,
    obs: &obs::Obs,
) -> (SpeculationCurve, SweepStats) {
    let outcome =
        SweepEngine::with_workers(workers).with_obs(obs.clone()).run(&sweep_spec(problem, hw));
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

/// One simulated (discrete-event) speculation campaign: the full SWEEP3D
/// trace of a figure's scenario executed rank-for-rank by `cluster-sim`,
/// replicated under noise seeds over the sweep worker pool.
#[derive(Debug, Clone)]
pub struct DesCampaign {
    /// Which problem was simulated.
    pub problem: Problem,
    /// Array extents used.
    pub px: usize,
    /// Processors in `j`.
    pub py: usize,
    /// Source-iteration count simulated.
    pub iterations: usize,
    /// Distinct interned op streams (roles) in the program set.
    pub streams: usize,
    /// Ops stored once (sum over streams).
    pub stored_ops: usize,
    /// Ops executed per run (sum over ranks).
    pub ops_per_run: usize,
    /// The per-seed replication results, in seed order.
    pub summary: ReplicationSummary,
    /// Wall-clock time of the whole campaign (setup + runs).
    pub wall: Duration,
}

impl DesCampaign {
    /// Total simulated events (executed ops) across all replications.
    pub fn total_events(&self) -> u64 {
        self.ops_per_run as u64 * self.summary.replications.len() as u64
    }

    /// Simulated events per wall-clock second — the throughput number the
    /// engine optimisations are measured by.
    pub fn events_per_sec(&self) -> f64 {
        self.total_events() as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// The hypothetical machine of §6 as a DES `MachineSpec`: Opteron rate
/// curve with the Myrinet communication model, plus commodity noise and
/// the Myrinet-typical rendezvous threshold so replications differ by
/// seed.
pub fn speculation_machine() -> MachineSpec {
    let mut m = hwbench::machines::opteron_myrinet_sim();
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

/// Run one figure's scenario through the discrete-event engine, `repeat`
/// noise seeds fanned over `workers` pool threads. Fully deterministic:
/// seeds are fixed, so two invocations produce bit-identical reports.
/// Intra-run engine threads follow the sweepsvc nested-parallelism policy
/// (spare pool slots are donated to `Engine::run_parallel`).
pub fn simulate(
    problem: Problem,
    ranks: usize,
    repeat: usize,
    iterations: usize,
    workers: usize,
) -> DesCampaign {
    simulate_threaded(problem, ranks, repeat, iterations, workers, None)
}

/// [`simulate`] with an explicit per-run engine thread count (the CLI's
/// `--threads N`); `None` lets the nested-parallelism policy decide.
/// Results are bit-identical for every thread count.
pub fn simulate_threaded(
    problem: Problem,
    ranks: usize,
    repeat: usize,
    iterations: usize,
    workers: usize,
    sim_threads: Option<usize>,
) -> DesCampaign {
    let t0 = Instant::now();
    let (px, py) = array_for_ranks(ranks);
    let mut config = problem.config(px, py);
    config.iterations = iterations;
    // Fixed calibration constants (same family as the golden fixtures)
    // keep the campaign reproducible without a profiling run.
    let fm = FlopModel {
        flops_per_cell_angle: 21.5,
        source_flops_per_cell: 2.0,
        flux_err_flops_per_cell: 3.0,
    };
    let set = generate_program_set(&config, &fm);
    let machine = speculation_machine();
    let seeds: Vec<u64> = (1..=repeat as u64).map(|i| 0x5EED_0000 + i).collect();
    let summary = sweepsvc::replicate_set_threaded(
        &machine,
        &set,
        &seeds,
        workers,
        sim_threads,
        &obs::Obs::disabled(),
    )
    .expect("trace is deadlock-free");
    DesCampaign {
        problem,
        px,
        py,
        iterations,
        streams: set.num_streams(),
        stored_ops: set.stored_ops(),
        ops_per_run: set.total_ops(),
        summary,
        wall: t0.elapsed(),
    }
}

/// A seed-replicated DES campaign of an arbitrary [`Workload`] lowering —
/// the generic sibling of [`simulate`] behind
/// `experiments speculation --workload stencil|allreduce`.
#[derive(Debug, Clone)]
pub struct WorkloadCampaign {
    /// Stable workload kind (`"stencil"`, `"allreduce"`, …).
    pub kind: &'static str,
    /// Ranks simulated.
    pub pes: usize,
    /// Outer iterations simulated.
    pub iterations: usize,
    /// Distinct interned op streams (roles) in the program set.
    pub streams: usize,
    /// Ops stored once (sum over streams).
    pub stored_ops: usize,
    /// Ops executed per run (sum over ranks).
    pub ops_per_run: usize,
    /// The per-seed replication results, in seed order.
    pub summary: ReplicationSummary,
    /// Wall-clock time of the whole campaign (setup + runs).
    pub wall: Duration,
}

impl WorkloadCampaign {
    /// Total simulated events (executed ops) across all replications.
    pub fn total_events(&self) -> u64 {
        self.ops_per_run as u64 * self.summary.replications.len() as u64
    }

    /// Simulated events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.total_events() as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// Replicate any workload's DES lowering under noise seeds on the
/// [`speculation_machine`], fanned over `workers` pool threads. Same fixed
/// seed family as [`simulate`], so campaigns are reproducible.
pub fn simulate_workload(
    workload: &dyn Workload,
    repeat: usize,
    workers: usize,
    sim_threads: Option<usize>,
) -> WorkloadCampaign {
    let t0 = Instant::now();
    let machine = speculation_machine();
    let set = workload.program_set(&machine).expect("workload lowers on the speculation machine");
    let seeds: Vec<u64> = (1..=repeat as u64).map(|i| 0x5EED_0000 + i).collect();
    let summary = sweepsvc::replicate_set_threaded(
        &machine,
        &set,
        &seeds,
        workers,
        sim_threads,
        &obs::Obs::disabled(),
    )
    .expect("trace is deadlock-free");
    WorkloadCampaign {
        kind: workload.kind(),
        pes: workload.pes(),
        iterations: workload.iterations(),
        streams: set.num_streams(),
        stored_ops: set.stored_ops(),
        ops_per_run: set.total_ops(),
        summary,
        wall: t0.elapsed(),
    }
}

/// The pre-engine serial reference path: one model evaluation at a time,
/// no pool, no cache. Kept as the ground truth the parallel path is
/// tested against.
pub fn run_on_serial(problem: Problem, hw: &HardwareModel) -> SpeculationCurve {
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

#[cfg(test)]
mod tests {
    use super::*;

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
            assert!(stats.cache.hits > 0, "{problem:?}: sweep must reuse cached evaluations");
        }
    }

    #[test]
    fn des_campaign_is_reproducible_and_counts_events() {
        let a = simulate(Problem::TwentyMillion, 4, 2, 1, 2);
        let b = simulate(Problem::TwentyMillion, 4, 2, 1, 4);
        // Worker count must not change the results, only the wall clock.
        assert_eq!(a.summary.replications, b.summary.replications);
        assert_eq!((a.px, a.py), (2, 2));
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
    fn threaded_campaign_is_bit_identical() {
        // `--threads N` must not change a single simulated number.
        let plain = simulate(Problem::TwentyMillion, 6, 2, 1, 1);
        let threaded = simulate_threaded(Problem::TwentyMillion, 6, 2, 1, 2, Some(3));
        assert_eq!(plain.summary.replications, threaded.summary.replications);
    }

    #[test]
    fn workload_campaigns_replicate_across_seeds() {
        let mut p = pace_core::StencilParams::weak_scaling(2, 2);
        p.iterations = 3;
        let c = simulate_workload(&p, 2, 2, None);
        assert_eq!((c.kind, c.pes, c.iterations), ("stencil", 4, 3));
        assert_eq!(c.summary.replications.len(), 2);
        let makespans = c.summary.makespans();
        assert!(makespans[0] != makespans[1], "seeds had no effect: {makespans:?}");
        assert!(c.total_events() > 0 && c.events_per_sec() > 0.0);
        // Engine threads must not change a single simulated number.
        let threaded = simulate_workload(&p, 2, 1, Some(2));
        assert_eq!(c.summary.replications, threaded.summary.replications);
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
