//! Quickstart: predict SWEEP3D's runtime with the PACE model and check the
//! prediction against a simulated measurement — the paper's core loop in
//! ~60 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cluster_sim::Engine;
use hwbench::machines::opteron_gige_sim;
use pace_core::{Sweep3dModel, Sweep3dParams};
use sweep3d::trace::{generate_program_set, FlopModel};
use sweep3d::ProblemConfig;

fn main() {
    // The workload: 100x100x50 cells on a 2x2 processor array — the first
    // row of the paper's Table 2 (50^3 cells per processor, weak scaling).
    let config = ProblemConfig::table_row(100, 100, 2, 2);
    let machine = opteron_gige_sim();

    println!("== PACE quickstart ==");
    println!(
        "workload : SWEEP3D {}x{}x{} on {}x{} PEs",
        config.it, config.jt, config.kt, config.npe_i, config.npe_j
    );
    println!("machine  : {}\n", machine.name);

    // Step 1 — coarse benchmarking (paper §4.3): profile the kernel to get
    // the achieved flop rate for this per-PE size, and fit the Eq. 3
    // communication curves from microbenchmarks.
    let hw = hwbench::benchmark_machine(&machine, &[50], 1);
    println!(
        "calibrated achieved rate : {:.1} MFLOPS at 50^3 cells/PE",
        hw.achieved_mflops(125_000)
    );
    println!("fitted ping-pong curve   : {}\n", hw.comm.pingpong);

    // Step 2 — prediction: evaluate the layered PACE model.
    let params = Sweep3dParams::weak_scaling_50cubed(config.npe_i, config.npe_j);
    let prediction = Sweep3dModel::new(params).predict(&hw);
    println!("PACE prediction          : {:.2} s", prediction.total_secs);
    for sub in &prediction.report.subtasks {
        println!("    {:<12} {:>10.4} s/iteration", sub.name, sub.secs_per_iteration);
    }

    // Step 3 — "measurement": execute the application's communication/
    // computation schedule on the simulated machine.
    let flop_model = FlopModel::calibrate(&config, 10);
    let set = generate_program_set(&config, &flop_model);
    let report = Engine::from_set(&machine, set).run().expect("simulation runs");
    let measured = report.makespan();
    println!("\nsimulated measurement    : {measured:.2} s");

    let error = (measured - prediction.total_secs) / measured * 100.0;
    println!("prediction error         : {error:+.2}%  (paper bound: |error| < 10%)");
    assert!(error.abs() < 10.0, "prediction should be within the paper's bound");
}
