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
    let hw = machines::opteron_myrinet_hypothetical();
    for (px, py, nx, ny, nz) in [(2, 2, 50, 50, 50), (16, 16, 5, 5, 100), (40, 50, 25, 25, 200)] {
        let app = compile(&objects, &Overrides::sweep3d(px, py, nx, ny, nz)).unwrap();
        let psl_pred = EvaluationEngine::new().evaluate(&app, &hw).total_secs;
        let mut params = Sweep3dParams::weak_scaling_50cubed(px, py);
        params.nx = nx;
        params.ny = ny;
        params.nz = nz;
        let prog_pred = Sweep3dModel::new(params).predict(&hw).total_secs;
        let rel = (psl_pred - prog_pred).abs() / prog_pred;
        assert!(
            rel < 0.01,
            "{px}x{py}/{nx}x{ny}x{nz}: PSL {psl_pred:.4} vs programmatic {prog_pred:.4}"
        );
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
