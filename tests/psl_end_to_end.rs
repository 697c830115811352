//! PSL → model → prediction, validated against a simulated measurement:
//! the complete semi-automated PACE workflow of Fig. 2.

use cluster_sim::Engine;
use pace_core::EvaluationEngine;
use pace_psl::{compile, parse, Overrides};
use registry::sim::pentium3_myrinet_sim;
use sweep3d::trace::{generate_programs, FlopModel};
use sweep3d::ProblemConfig;

#[test]
fn psl_model_predicts_within_paper_bound() {
    let (px, py) = (3usize, 4usize);
    let machine = pentium3_myrinet_sim();

    // Measurement: simulate the application's schedule.
    let config = ProblemConfig::weak_scaling(50, px, py);
    let fm = FlopModel::calibrate(&config, 10);
    let programs = generate_programs(&config, &fm);
    let measured = Engine::new(&machine, programs).run().unwrap().makespan();

    // Prediction: PSL script → compiled model → evaluation engine, with
    // the hardware model from the benchmarking workflow.
    let hw = hwbench::benchmark_machine(&machine, &[50], 1);
    let objects = parse(pace_psl::assets::SWEEP3D_PSL).unwrap();
    let app = compile(&objects, &Overrides::sweep3d(px, py, 50, 50, 50)).unwrap();
    let predicted = EvaluationEngine::new().evaluate(&app, &hw).total_secs;

    let error = (measured - predicted) / measured * 100.0;
    assert!(
        error.abs() < 10.0,
        "PSL-driven prediction {predicted:.2}s vs measured {measured:.2}s ({error:+.2}%)"
    );
}

#[test]
fn psl_overrides_mirror_programmatic_params_across_scales() {
    use pace_core::{Sweep3dModel, Sweep3dParams};
    use registry::quoted as machines;
    let objects = parse(pace_psl::assets::SWEEP3D_PSL).unwrap();
    // 1 to 8000 PEs: the validation cube, the Fig. 8 (5×5×100) and
    // Fig. 9 (25×25×200) per-PE problems and a few shapes between.
    let shapes = [
        (1, 1, 50, 50, 50),
        (2, 2, 50, 50, 50),
        (2, 3, 50, 50, 50),
        (8, 14, 50, 50, 50),
        (16, 16, 5, 5, 100),
        (20, 25, 10, 20, 40),
        (40, 50, 25, 25, 200),
        (80, 100, 5, 5, 100),
    ];
    for hw in machines::all_quoted() {
        for (px, py, nx, ny, nz) in shapes {
            let app = compile(&objects, &Overrides::sweep3d(px, py, nx, ny, nz)).unwrap();
            let psl_pred = EvaluationEngine::new().evaluate(&app, &hw).total_secs;
            let params =
                Sweep3dParams { nx, ny, nz, ..Sweep3dParams::weak_scaling_50cubed(px, py) };
            let prog_pred = Sweep3dModel::new(params).predict(&hw).total_secs;
            assert_eq!(
                psl_pred.to_bits(),
                prog_pred.to_bits(),
                "{} {px}x{py}/{nx}x{ny}x{nz}: PSL {psl_pred:e} vs programmatic {prog_pred:e}",
                hw.name
            );
        }
    }
}

#[test]
fn psl_model_reuse_across_machines() {
    // The §6 selling point: one application model, many hardware models.
    use registry::quoted as machines;
    let objects = parse(pace_psl::assets::SWEEP3D_PSL).unwrap();
    let app = compile(&objects, &Overrides::sweep3d(8, 8, 50, 50, 50)).unwrap();
    let engine = EvaluationEngine::new();
    let times: Vec<f64> =
        machines::all_quoted().iter().map(|hw| engine.evaluate(&app, hw).total_secs).collect();
    // P3 slowest; the two Opteron variants fastest and nearly equal.
    assert!(times[0] > times[1] && times[0] > times[2] && times[0] > times[3]);
    assert!((times[1] - times[3]).abs() / times[1] < 0.1);
}
