//! The paper's §6 scenario: speculative performance analysis supporting a
//! system procurement decision.
//!
//! The hypothetical machine — Opteron nodes with the Myrinet 2000
//! communication model swapped in for Gigabit Ethernet (model reuse) — is
//! defined entirely in a JSON spec file, loaded through the machine
//! registry, and the SWEEP3D model is scaled to 8000 processors for the
//! two ASCI target problems, with +25%/+50% processor what-ifs.
//!
//! ```text
//! cargo run --release --example procurement_study
//! ```

use experiments::asci_goals;
use experiments::speculation::{run_on_with, Problem};
use wavefront_models::Backend;

fn main() {
    // The machine is a document, not code: edit the spec file to study a
    // different candidate — no recompilation needed.
    let machine =
        registry::load_file("assets/machines/opteron-myrinet.json").expect("spec file loads");
    let hw = machine.analytic.clone();
    let workers = sweepsvc::available_workers();
    println!("== Speculative study on: {} ({} sweep worker(s)) ==\n", hw.name, workers);

    for problem in [Problem::TwentyMillion, Problem::OneBillion] {
        let (curve, stats) = run_on_with(problem, &hw, workers);
        println!("--- {} ---", curve.problem.figure());
        println!(
            "{:>6} {:>9} {:>12} {:>12} {:>12}",
            "PEs", "array", "actual(s)", "+25%(s)", "+50%(s)"
        );
        for p in &curve.points {
            println!(
                "{:>6} {:>9} {:>12.4} {:>12.4} {:>12.4}",
                p.pes,
                format!("{}x{}", p.px, p.py),
                p.actual,
                p.plus25,
                p.plus50
            );
        }
        print!("\n  sweep engine: {}", stats.summary());

        // The §6 conclusion: the benchmark scales well, but the realistic
        // multi-group, time-dependent problem grossly overruns ASCI goals.
        let asci = asci_goals::paper_setting(problem);
        println!(
            "\n  at {} PEs: benchmark {:.2} s; {} groups x {} steps = {:.1} h ({:.0}x the {:.0} h goal)\n",
            asci.pes,
            asci.benchmark_secs,
            asci.groups,
            asci.time_steps,
            asci.full_problem_hours(),
            asci.overrun(),
            asci.goal_secs / 3600.0
        );
    }

    // Concurrence with related analytic models (the paper's sanity check
    // against LogGP and the LANL model), through the predictor backends.
    println!("--- concurrence at 8000 PEs, 1-billion-cell problem ---");
    let workload = Problem::OneBillion.params(80, 100).into();
    for backend in Backend::ANALYTIC {
        let report = backend.predict(&workload, &machine).expect("analytic backends run");
        println!("{:<36} {:>8.3} s", backend.display_name(), report.total_secs);
    }
}
