//! The semi-automated model-construction workflow of the paper:
//!
//! 1. `capp` statically analyses the (mini-)C kernel into clc tallies,
//! 2. the PSL script wires the application/subtask/template layers,
//! 3. the evaluation engine combines the compiled model with a hardware
//!    model into a prediction,
//! 4. instrumented profiling of the real kernel verifies the static counts
//!    (paper §4.3).
//!
//! ```text
//! cargo run --release --example psl_workflow
//! ```

use pace_capp::assets::sweep_per_cell_angle;
use pace_core::EvaluationEngine;
use pace_psl::{compile, parse, Overrides};
use registry::quoted as machines;
use sweep3d::trace::FlopModel;
use sweep3d::ProblemConfig;

fn main() {
    println!("== PACE model-construction workflow ==\n");

    // Step 1: static source analysis (capp).
    let capp_vector = sweep_per_cell_angle(3, 10, 50, 50).expect("kernel analyses");
    println!("capp static analysis of sweep_kernel.c (per cell-angle):");
    println!(
        "  MFDG {:.2}  AFDG {:.2}  DFDG {:.2}  IFBR {:.2}  CMLD {:.2}  -> {:.2} flops",
        capp_vector.mfdg,
        capp_vector.afdg,
        capp_vector.dfdg,
        capp_vector.ifbr,
        capp_vector.cmld,
        capp_vector.flops()
    );

    // Step 4 (the verification loop, shown early): instrumented execution
    // of the real Rust kernel — the PAPI step of the paper.
    let reference = ProblemConfig::weak_scaling(50, 1, 1);
    let measured = FlopModel::calibrate(&reference, 10);
    let gap = (capp_vector.flops() - measured.flops_per_cell_angle) / measured.flops_per_cell_angle
        * 100.0;
    println!(
        "instrumented kernel      : {:.2} flops/cell-angle  (static counts {gap:+.1}% vs executed)\n",
        measured.flops_per_cell_angle
    );

    // Step 2: the PSL script (Figs. 4-6), with evaluation-time overrides.
    println!("compiling assets/sweep3d.psl for an 8x8 array…");
    let objects = parse(pace_psl::assets::SWEEP3D_PSL).expect("script parses");
    let app = compile(&objects, &Overrides::sweep3d(8, 8, 50, 50, 50)).expect("compiles");
    println!(
        "  application '{}': {} iterations, subtasks: {}",
        app.name,
        app.iterations,
        app.subtasks.iter().map(|s| &*s.name).collect::<Vec<_>>().join(", ")
    );

    // Step 3: evaluate against each of the paper's quoted machines.
    println!("\npredictions for 400x400x50 on 8x8 PEs:");
    for hw in machines::all_quoted() {
        let report = EvaluationEngine::new().evaluate(&app, &hw);
        println!("  {:<48} {:>8.2} s", hw.name, report.total_secs);
    }

    // The analyst-facing PACE report, one machine in full.
    let report = EvaluationEngine::new().evaluate(&app, &machines::pentium3_myrinet());
    println!("\n{}", report.to_text());
}
