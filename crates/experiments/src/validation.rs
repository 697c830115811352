//! Tables 1–3: model validation against simulated measurement.
//!
//! For every row of the paper's validation tables the harness
//!
//! 1. builds the problem as [`Sweep3dParams`] (weak scaling, 50³ cells/PE,
//!    mk=10, mmi=3, 12 iterations) and derives the DES configuration,
//! 2. *measures* the runtime by executing the application's op trace on
//!    the simulated machine (`cluster-sim`),
//! 3. *predicts* the runtime with the PACE model, using a hardware model
//!    obtained by the paper's own benchmarking workflow (`hwbench`:
//!    virtual profiling at small scale + fitted Eq. 3 curves),
//! 4. reports the error in the paper's convention.
//!
//! Steps 2–3 go through [`Calibration`], shared by every study that both
//! measures and predicts. The paper's values are in EXPERIMENTS.md.

use std::time::{Duration, Instant};

use cluster_sim::{Engine, MachineSpec, RunReport};
use obs::{Cat, Recorder};
use pace_core::workload::sweep3d_problem_config;
use pace_core::{HardwareModel, Sweep3dModel, Sweep3dParams};
use registry::sim as sim_machines;
use sweep3d::trace::{generate_program_set, FlopModel};
use sweep3d::ProblemConfig;
use sweepsvc::{available_workers, run_ordered_with_worker};

use crate::error_pct;

/// One validation-table row specification: global grid and processor array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowSpec {
    /// Global `i` cells.
    pub it: usize,
    /// Global `j` cells.
    pub jt: usize,
    /// Processors in `i`.
    pub px: usize,
    /// Processors in `j`.
    pub py: usize,
    /// The paper's measured seconds for this row (for reference output).
    pub paper_measured: f64,
    /// The paper's predicted seconds.
    pub paper_predicted: f64,
}

impl RowSpec {
    const fn new(
        it: usize,
        jt: usize,
        px: usize,
        py: usize,
        paper_measured: f64,
        paper_predicted: f64,
    ) -> Self {
        RowSpec { it, jt, px, py, paper_measured, paper_predicted }
    }

    /// Total PEs.
    pub fn pes(&self) -> usize {
        self.px * self.py
    }

    /// The row's problem: 50³ cells per PE on the row's array (the rows'
    /// `it × jt` grids are exactly that, see the unit tests).
    pub fn params(&self) -> Sweep3dParams {
        Sweep3dParams::weak_scaling_50cubed(self.px, self.py)
    }
}

/// Table 1: Pentium 3 / Myrinet, 24 configurations.
pub const TABLE1_ROWS: [RowSpec; 24] = [
    RowSpec::new(100, 100, 2, 2, 26.54, 28.59),
    RowSpec::new(100, 150, 2, 3, 30.25, 30.03),
    RowSpec::new(150, 200, 3, 4, 31.18, 32.12),
    RowSpec::new(200, 200, 4, 4, 32.28, 32.78),
    RowSpec::new(150, 300, 3, 6, 33.72, 34.77),
    RowSpec::new(200, 250, 4, 5, 32.72, 34.11),
    RowSpec::new(200, 300, 4, 6, 33.94, 35.44),
    RowSpec::new(250, 300, 5, 6, 34.73, 36.10),
    RowSpec::new(200, 400, 4, 8, 35.89, 38.09),
    RowSpec::new(200, 450, 4, 9, 37.33, 39.42),
    RowSpec::new(250, 400, 5, 8, 36.80, 38.75),
    RowSpec::new(300, 400, 6, 8, 37.53, 39.42),
    RowSpec::new(250, 500, 5, 10, 39.35, 41.41),
    RowSpec::new(300, 500, 6, 10, 40.24, 42.08),
    RowSpec::new(400, 400, 8, 8, 40.03, 40.75),
    RowSpec::new(300, 550, 6, 11, 41.67, 43.40),
    RowSpec::new(350, 500, 7, 10, 41.19, 42.74),
    RowSpec::new(400, 450, 8, 9, 41.22, 42.08),
    RowSpec::new(400, 500, 8, 10, 43.09, 43.40),
    RowSpec::new(400, 550, 8, 11, 44.22, 44.75),
    RowSpec::new(450, 500, 9, 10, 43.70, 44.07),
    RowSpec::new(500, 500, 10, 10, 44.37, 44.73),
    RowSpec::new(500, 550, 10, 11, 45.09, 46.06),
    RowSpec::new(400, 700, 8, 14, 46.32, 48.71),
];

/// Table 2: Opteron / Gigabit Ethernet, 9 configurations.
pub const TABLE2_ROWS: [RowSpec; 9] = [
    RowSpec::new(100, 100, 2, 2, 8.98, 9.69),
    RowSpec::new(100, 150, 2, 3, 9.59, 10.25),
    RowSpec::new(150, 150, 3, 3, 9.94, 10.54),
    RowSpec::new(150, 200, 3, 4, 10.57, 11.07),
    RowSpec::new(200, 200, 4, 4, 10.77, 11.33),
    RowSpec::new(200, 250, 4, 5, 11.18, 11.85),
    RowSpec::new(200, 300, 4, 6, 11.95, 12.38),
    RowSpec::new(250, 250, 5, 5, 11.73, 12.11),
    RowSpec::new(250, 300, 5, 6, 12.07, 12.64),
];

/// Table 3: SGI Altix Itanium 2, 16 configurations.
pub const TABLE3_ROWS: [RowSpec; 16] = [
    RowSpec::new(100, 100, 2, 2, 14.66, 13.95),
    RowSpec::new(100, 150, 2, 3, 15.38, 14.60),
    RowSpec::new(150, 200, 3, 4, 16.46, 15.58),
    RowSpec::new(200, 200, 4, 4, 17.31, 15.91),
    RowSpec::new(150, 300, 3, 6, 18.08, 16.87),
    RowSpec::new(200, 250, 4, 5, 17.57, 16.55),
    RowSpec::new(200, 300, 4, 6, 18.29, 17.20),
    RowSpec::new(250, 300, 5, 6, 18.71, 17.52),
    RowSpec::new(200, 400, 4, 8, 19.83, 18.48),
    RowSpec::new(200, 450, 4, 9, 20.22, 19.13),
    RowSpec::new(250, 400, 5, 8, 20.02, 18.81),
    RowSpec::new(300, 400, 6, 8, 20.54, 19.19),
    RowSpec::new(350, 350, 7, 7, 19.95, 18.81),
    RowSpec::new(250, 500, 5, 10, 21.56, 20.10),
    RowSpec::new(450, 300, 9, 6, 21.21, 19.78),
    RowSpec::new(350, 400, 7, 8, 21.04, 19.46),
];

/// One evaluated row.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRow {
    /// The row spec.
    pub spec: RowSpec,
    /// Simulated measurement, seconds.
    pub measured_secs: f64,
    /// PACE prediction, seconds.
    pub predicted_secs: f64,
    /// Error in the paper's convention.
    pub error_pct: f64,
}

/// A complete validation table.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationTable {
    /// Which paper table ("Table 1" …).
    pub label: String,
    /// Machine name.
    pub machine: String,
    /// The calibrated achieved rate the model used (MFLOPS, at 50³/PE).
    pub calibrated_mflops: f64,
    /// Evaluated rows.
    pub rows: Vec<ValidationRow>,
}

impl ValidationTable {
    /// Maximum |error| across rows, percent.
    pub fn max_abs_error(&self) -> f64 {
        self.rows.iter().map(|r| r.error_pct.abs()).fold(0.0, f64::max)
    }

    /// Mean |error|, percent (the paper's "average error").
    pub fn avg_abs_error(&self) -> f64 {
        hwbench::stats::mean(&self.rows.iter().map(|r| r.error_pct.abs()).collect::<Vec<_>>())
    }

    /// Mean signed error, percent (shows the over/under-prediction bias).
    pub fn mean_signed_error(&self) -> f64 {
        hwbench::stats::mean(&self.rows.iter().map(|r| r.error_pct).collect::<Vec<_>>())
    }

    /// Variance of the signed errors (the paper quotes this per table).
    pub fn error_variance(&self) -> f64 {
        hwbench::stats::variance(&self.rows.iter().map(|r| r.error_pct).collect::<Vec<_>>())
    }
}

/// The DES configuration of a study problem (all of them are valid).
pub(crate) fn problem_config(params: &Sweep3dParams) -> ProblemConfig {
    sweep3d_problem_config(params).expect("study problems are valid")
}

/// The problem configuration of a row (50³ per PE, mk=10, mmi=3, S6, 12
/// iterations — constant across all tables).
pub fn row_config(spec: &RowSpec) -> ProblemConfig {
    problem_config(&spec.params())
}

/// Run `config`'s trace on `machine` reseeded with `machine.seed ^ seed`,
/// recording every rank activity on track group `pid` (the report is the
/// same with recording on or off).
fn simulate(
    config: &ProblemConfig,
    machine: &MachineSpec,
    flop_model: &FlopModel,
    seed: u64,
    recorder: &Recorder,
    pid: u32,
) -> RunReport {
    let set = generate_program_set(config, flop_model);
    let machine = machine.clone().with_seed(machine.seed ^ seed);
    Engine::from_set(&machine, set)
        .with_recorder(recorder, pid)
        .run()
        .expect("trace executes without deadlock")
}

/// The paper's §4 method on one machine: the kernel's flop model,
/// profiled on a small serial proxy, and the machine's hardware model,
/// benchmarked and fitted to Eq. 3.
#[derive(Debug)]
pub struct Calibration {
    /// Per-cell flop weights the measured traces charge.
    pub flop_model: FlopModel,
    /// The benchmarked hardware model the predictions price against.
    pub hw: HardwareModel,
}

impl Calibration {
    /// Calibrate the kernel on a `proxy_cells`³ serial proxy of
    /// `reference` and, side by side, benchmark `machine` at the per-PE
    /// cube edges `per_pe_sizes`.
    pub fn new(
        machine: &MachineSpec,
        reference: &Sweep3dParams,
        proxy_cells: usize,
        per_pe_sizes: &[usize],
    ) -> Self {
        let disabled = Recorder::disabled();
        Self::observed(machine, reference, proxy_cells, per_pe_sizes, &disabled, 0).0
    }

    /// [`Calibration::new`] with each step recorded as a wall span on
    /// track group `pid` (`calibrate` on thread 0, `benchmark` on thread
    /// 1), also returning the two steps' wall times in that order.
    pub fn observed(
        machine: &MachineSpec,
        reference: &Sweep3dParams,
        proxy_cells: usize,
        per_pe_sizes: &[usize],
        recorder: &Recorder,
        pid: u32,
    ) -> (Self, [Duration; 2]) {
        let timed = |tid: u32, name: &'static str, t0: Instant| {
            recorder.wall_span(pid, tid, name, Cat::Phase, t0, vec![]);
            t0.elapsed()
        };
        let reference = problem_config(reference);
        let ((flop_model, calibrate), (hw, benchmark)) = std::thread::scope(|s| {
            let calibration = s.spawn(|| {
                let t0 = Instant::now();
                let flop_model = FlopModel::calibrate(&reference, proxy_cells);
                (flop_model, timed(0, "calibrate", t0))
            });
            let t0 = Instant::now();
            let hw = hwbench::benchmark_machine(machine, per_pe_sizes, 1);
            let benchmarked = (hw, timed(1, "benchmark", t0));
            (calibration.join().expect("kernel calibration panicked"), benchmarked)
        });
        (Calibration { flop_model, hw }, [calibrate, benchmark])
    }

    /// Measure `params` on `machine` reseeded with `machine.seed ^ seed`
    /// (seed 0 keeps the machine's own), recording the run's rank
    /// activity on track group `pid`.
    pub fn measure(
        &self,
        params: &Sweep3dParams,
        machine: &MachineSpec,
        seed: u64,
        recorder: &Recorder,
        pid: u32,
    ) -> RunReport {
        simulate(&problem_config(params), machine, &self.flop_model, seed, recorder, pid)
    }

    /// The PACE prediction of `params`, seconds.
    pub fn predict(&self, params: &Sweep3dParams) -> f64 {
        Sweep3dModel::new(*params).predict(&self.hw).total_secs
    }
}

/// Spacing between the pid blocks of consecutive validation tables, so
/// `validate`'s three tables never share a track group in one trace
/// (see [`obs::pids`] for the workspace-wide allocation table).
pub const TABLE_PID_STRIDE: u32 = obs::pids::TABLE_STRIDE;

/// Run a full validation table. Rows are independent — each carries its
/// own derived seed — so they are fanned out over the worker pool, largest
/// processor array first; the returned table is in row order and
/// identical for any worker count or dispatch order.
pub fn run_table(label: &str, rows: &[RowSpec], machine: &MachineSpec) -> ValidationTable {
    run_table_observed(label, rows, machine, &obs::Obs::disabled(), 0)
}

/// [`run_table`] with telemetry. Every row's simulated measurement is
/// recorded as a sim-span track group (pid = `pid_base` + row index),
/// named after the row, so one `--trace` of a whole table opens in
/// Perfetto as one process per row with one thread per rank; multi-table
/// traces give each table its own block of [`TABLE_PID_STRIDE`]. The
/// table itself is unchanged by recording.
pub fn run_table_observed(
    label: &str,
    rows: &[RowSpec],
    machine: &MachineSpec,
    obs: &obs::Obs,
    pid_base: u32,
) -> ValidationTable {
    // Kernel calibration (one instrumented serial proxy run, the paper's
    // PAPI profiling step) and hardware benchmarking (profile at 1×1 /
    // 1×2, fit the Eq. 3 curves).
    let cal = Calibration::new(machine, &rows[0].params(), 10, &[50]);
    let calibrated_mflops = cal.hw.achieved_mflops(125_000);

    let recorder = &*obs.recorder;
    // Longest row first: the largest arrays dominate the pool's tail, so
    // starting them first keeps every worker busy to the end. Each row
    // keeps its own index (pid, noise seed) and results return in row
    // order, so the table is identical to an in-order run.
    let mut indexed: Vec<(usize, RowSpec)> = rows.iter().copied().enumerate().collect();
    indexed.sort_by_key(|&(idx, spec)| (std::cmp::Reverse(spec.pes()), idx));
    let mut rows = run_ordered_with_worker(indexed, available_workers(), |_, &(idx, spec)| {
        let pid = pid_base + idx as u32;
        if recorder.is_enabled() {
            recorder.set_process_name(
                pid,
                format!("{label} {}x{} on {}x{}", spec.it, spec.jt, spec.px, spec.py),
            );
        }
        let params = spec.params();
        let measured = cal.measure(&params, machine, idx as u64 + 1, recorder, pid).makespan();
        let predicted = cal.predict(&params);
        (
            idx,
            ValidationRow {
                spec,
                measured_secs: measured,
                predicted_secs: predicted,
                error_pct: error_pct(measured, predicted),
            },
        )
    })
    .results;
    rows.sort_unstable_by_key(|&(idx, _)| idx);
    let rows: Vec<ValidationRow> = rows.into_iter().map(|(_, row)| row).collect();
    obs.metrics.counter_add("validation.rows", rows.len() as u64);
    ValidationTable {
        label: label.to_string(),
        machine: machine.name.clone(),
        calibrated_mflops,
        rows,
    }
}

/// Run Table 1 (Pentium 3 / Myrinet).
pub fn table1() -> ValidationTable {
    run_table("Table 1", &TABLE1_ROWS, &sim_machines::pentium3_myrinet_sim())
}

/// Run Table 2 (Opteron / GigE).
pub fn table2() -> ValidationTable {
    run_table("Table 2", &TABLE2_ROWS, &sim_machines::opteron_gige_sim())
}

/// Run Table 3 (Altix).
pub fn table3() -> ValidationTable {
    run_table("Table 3", &TABLE3_ROWS, &sim_machines::altix_numalink_sim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_specs_match_paper_pe_counts() {
        // Spot-check PE counts printed in the paper.
        assert_eq!(TABLE1_ROWS[0].pes(), 4);
        assert_eq!(TABLE1_ROWS[23].pes(), 112);
        assert_eq!(TABLE2_ROWS[8].pes(), 30);
        assert_eq!(TABLE3_ROWS[15].pes(), 56);
        // All rows decompose to exactly 50×50 per PE.
        for rows in [&TABLE1_ROWS[..], &TABLE2_ROWS[..], &TABLE3_ROWS[..]] {
            for r in rows {
                assert_eq!(r.it / r.px, 50, "{r:?}");
                assert_eq!(r.it % r.px, 0);
                assert_eq!(r.jt / r.py, 50);
                assert_eq!(r.jt % r.py, 0);
            }
        }
    }

    #[test]
    fn table2_errors_within_paper_bound() {
        // The headline claim: < 10% error on every row. Table 2 is the
        // smallest (9 rows, ≤ 30 PEs) so it runs quickly in tests.
        let t = table2();
        for row in &t.rows {
            assert!(
                row.error_pct.abs() < 10.0,
                "{}x{} on {} PEs: measured {:.2}s predicted {:.2}s error {:.2}%",
                row.spec.it,
                row.spec.jt,
                row.spec.pes(),
                row.measured_secs,
                row.predicted_secs,
                row.error_pct
            );
        }
        // Sign structure: the distributed-memory clusters are
        // over-predicted on average (negative mean error), as in the paper.
        assert!(
            t.mean_signed_error() < 0.0,
            "mean signed error {:+.2}% should be negative",
            t.mean_signed_error()
        );
    }

    #[test]
    fn observed_table_is_identical_and_spans_cover_every_row() {
        let machine = sim_machines::opteron_gige_sim();
        let obs = obs::Obs::enabled();
        let plain = run_table("Table 2", &TABLE2_ROWS, &machine);
        let traced = run_table_observed("Table 2", &TABLE2_ROWS, &machine, &obs, 0);
        assert_eq!(plain, traced, "recording must not perturb the table");
        // One track group (pid) per row, each with spans.
        let spans = obs.recorder.sim_spans();
        let pids: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.pid).collect();
        assert_eq!(pids.len(), TABLE2_ROWS.len());
        assert_eq!(
            obs.metrics.snapshot().get("validation.rows").and_then(obs::MetricValue::as_counter),
            Some(TABLE2_ROWS.len() as u64)
        );
    }

    #[test]
    fn measurements_increase_with_array_size() {
        // Weak scaling: more PEs ⇒ deeper pipeline ⇒ longer runtime.
        let machine = sim_machines::opteron_gige_sim();
        let cal = Calibration::new(&machine, &TABLE2_ROWS[0].params(), 10, &[50]);
        let measure = |spec: &RowSpec, seed| {
            cal.measure(&spec.params(), &machine, seed, &Recorder::disabled(), 0).makespan()
        };
        let small = measure(&TABLE2_ROWS[0], 1);
        let large = measure(&TABLE2_ROWS[8], 2);
        assert!(large > small, "{large} vs {small}");
    }
}
