//! Characterise a machine of your own design — the "procuring systems"
//! use case: the candidate cluster (fast commodity CPUs, InfiniBand-class
//! fabric) is defined in a JSON spec file, not in code. The example loads
//! it through the machine registry, runs the PACE benchmarking workflow
//! against its simulated half, prints the fitted HMCL hardware model
//! (paper Fig. 7), and predicts how SWEEP3D would scale on it before
//! buying.
//!
//! ```text
//! cargo run --release --example custom_cluster
//! ```

use cluster_sim::Engine;
use experiments::hmcl;
use pace_core::{Sweep3dModel, Sweep3dParams};
use sweep3d::trace::{generate_program_set, FlopModel};
use sweep3d::ProblemConfig;

fn main() {
    // A candidate machine, loaded from its spec document. Edit the JSON to
    // study a different design — no Rust changes required.
    let machine =
        registry::load_file("assets/machines/candidate-ib.json").expect("spec file loads");
    let candidate = machine.sim_or_err().expect("candidate has a sim half").clone();
    println!("== Characterising: {} ==\n", candidate.name);

    // The full benchmarking workflow: virtual profiling + Eq. 3 fitting,
    // straight from the registry spec.
    let fitted = hwbench::characterise(&machine, &[20, 50], 1).expect("characterises");
    let hw = fitted.analytic.clone();
    // The spec file ships the same fit — the asset is self-consistent.
    assert_eq!(hw, machine.analytic);
    println!("{}", hmcl::render(&hw, 125_000));

    // The fitted model is a first-class HMCL script: save it, edit it,
    // reload it (the §6 model-reuse workflow at the file level).
    let script = pace_core::hmcl_script::write(&hw);
    let reloaded = pace_core::hmcl_script::parse(&script).expect("round trip");
    assert_eq!(reloaded.comm, hw.comm);
    println!("HMCL script round-trips ({} bytes)\n", script.len());

    // Scaling forecast for the validation problem size.
    println!("predicted SWEEP3D weak scaling (50^3 cells/PE, mk=10, mmi=3):");
    println!("{:>8} {:>10} {:>12}", "PEs", "array", "predicted(s)");
    for (px, py) in [(2, 2), (4, 4), (8, 8), (16, 16), (32, 32)] {
        let pred =
            Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(px, py)).predict(&hw).total_secs;
        println!("{:>8} {:>10} {:>12.2}", px * py, format!("{px}x{py}"), pred);
    }

    // Spot-check the forecast against a full simulation at 8x8.
    let config = ProblemConfig::weak_scaling(50, 8, 8);
    let fm = FlopModel::calibrate(&config, 10);
    let set = generate_program_set(&config, &fm);
    let measured = Engine::from_set(&candidate, set).run().expect("runs").makespan();
    let predicted =
        Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(8, 8)).predict(&hw).total_secs;
    let err = (measured - predicted) / measured * 100.0;
    println!(
        "\nspot check at 8x8: measured {measured:.2} s, predicted {predicted:.2} s ({err:+.2}%)"
    );
    assert!(err.abs() < 10.0);
}
