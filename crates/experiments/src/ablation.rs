//! §4's motivating ablation: old opcode costing vs coarse benchmarking.
//!
//! The paper's reason for extending PACE: the original per-opcode
//! benchmarks, combined with `capp` tallies, "under estimate run-time
//! hardware/compiler performance optimisations … Predictions based on this
//! approach in some cases (such as on the AMD Opteron 2-way SMP cluster)
//! gave a prediction error as large as 50%." This experiment prices the
//! same model both ways against the same simulated measurement:
//!
//! * **opcode costing** — the sweep's clc vector priced with dependent-
//!   chain per-opcode latencies ([`pace_core::OpcodeCosts::naive_microbenchmark`]);
//! * **coarse costing** — the achieved-rate method of the paper.

use cluster_sim::MachineSpec;
use pace_core::templates::pipeline;
use pace_core::{HardwareModel, OpcodeCosts, Sweep3dModel, Sweep3dParams, TemplateBinding};
use registry::sim as sim_machines;
use sweepsvc::{available_workers, run_ordered_with_worker};

use crate::error_pct;
use crate::validation::{Calibration, RowSpec, TABLE1_ROWS, TABLE2_ROWS};

/// The two costing regimes compared against one measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Machine name.
    pub machine: String,
    /// Core clock assumed for the opcode table, GHz.
    pub clock_ghz: f64,
    /// Simulated measurement, seconds.
    pub measured_secs: f64,
    /// Coarse (achieved-rate) prediction, seconds.
    pub coarse_secs: f64,
    /// Old opcode-costing prediction, seconds.
    pub opcode_secs: f64,
    /// Coarse error, paper convention.
    pub coarse_error_pct: f64,
    /// Opcode-costing error.
    pub opcode_error_pct: f64,
}

/// Price a full prediction with the old per-opcode method: every subtask's
/// clc vector × the naive opcode table, the pipeline template reused with
/// the externally-priced unit time. Communication uses the benchmarked
/// machine's *fitted* comm model, as the old PACE did — only computation
/// costing differs between the regimes.
pub fn opcode_predict(params: &Sweep3dParams, clock_ghz: f64, hw: &HardwareModel) -> f64 {
    let costs = OpcodeCosts::naive_microbenchmark(clock_ghz);
    let model = Sweep3dModel::new(*params);
    let app = model.application_object();
    let mut total_per_iter = 0.0;
    for sub in &app.subtasks {
        let t = match &sub.template {
            TemplateBinding::Pipeline(p) => {
                let unit_us =
                    sub.per_unit.cost_us(&costs) * (sub.units / (4 * p.units_per_corner) as f64);
                pipeline::evaluate_with_compute(p, unit_us * 1e-6, &hw.comm).total_secs
            }
            TemplateBinding::Halo(p) => {
                // Opcode-priced local update + the template's exchange
                // phases on the fitted comm model.
                use pace_core::templates::halo::exchange_phases;
                sub.per_unit.cost_us(&costs) * sub.units * 1e-6
                    + exchange_phases(p.px) as f64 * hw.comm.hop_secs(p.x_msg_bytes)
                    + exchange_phases(p.py) as f64 * hw.comm.hop_secs(p.y_msg_bytes)
            }
            TemplateBinding::Collective(p) => {
                pace_core::templates::collective::evaluate(p, &hw.comm)
            }
            TemplateBinding::Async => sub.per_unit.cost_us(&costs) * sub.units * 1e-6,
        };
        total_per_iter += t;
    }
    total_per_iter * app.iterations as f64
}

/// Run the ablation on one machine for one validation row.
pub fn run_on(machine: &MachineSpec, clock_ghz: f64, spec: &RowSpec) -> AblationResult {
    let params = spec.params();
    let cal = Calibration::new(machine, &params, 10, &[50]);
    let measured = cal.measure(&params, machine, 0xAB1A, &obs::Recorder::disabled(), 0).makespan();
    let coarse = cal.predict(&params);
    let opcode = opcode_predict(&params, clock_ghz, &cal.hw);
    AblationResult {
        machine: machine.name.clone(),
        clock_ghz,
        measured_secs: measured,
        coarse_secs: coarse,
        opcode_secs: opcode,
        coarse_error_pct: error_pct(measured, coarse),
        opcode_error_pct: error_pct(measured, opcode),
    }
}

/// The paper's headline case: the Opteron cluster, Table 2's 2×2 row.
pub fn opteron_case() -> AblationResult {
    run_on(&sim_machines::opteron_gige_sim(), 2.0, &TABLE2_ROWS[0])
}

/// The Pentium 3 case, Table 1's 2×2 row.
pub fn pentium3_case() -> AblationResult {
    run_on(&sim_machines::pentium3_myrinet_sim(), 1.4, &TABLE1_ROWS[0])
}

/// Both paper cases (Pentium 3, then Opteron), fanned out over the
/// worker pool — each case runs its own simulation and two predictions.
pub fn paper_cases() -> Vec<AblationResult> {
    let cases: Vec<fn() -> AblationResult> = vec![pentium3_case, opteron_case];
    run_ordered_with_worker(cases, available_workers(), |_, case| case()).results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_beats_opcode_costing() {
        let r = opteron_case();
        assert!(
            r.coarse_error_pct.abs() < 10.0,
            "coarse method must stay within the paper bound: {r:?}"
        );
        assert!(r.opcode_error_pct.abs() > 15.0, "opcode costing should mis-predict badly: {r:?}");
        assert!(r.coarse_error_pct.abs() < r.opcode_error_pct.abs());
        // And the Pentium 3 case shows the worst of it (the paper's "as
        // large as 50%" class of error).
        let p3 = pentium3_case();
        assert!(p3.opcode_error_pct.abs() > 40.0, "P3 opcode costing should be wildly off: {p3:?}");
    }
}
