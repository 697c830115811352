//! Coarse kernel profiling — the paper's PAPI workflow.
//!
//! "The benchmarking process then entailed profiling the application to
//! obtain the achieved floating-point operation rate for a particular
//! problem size on a small number of processors (single processor 1×1
//! decomposition and 2 processors 1×2 decomposition)" (§4.3).
//!
//! Two profilers are provided:
//!
//! * [`virtual_profile`] — runs the application's op trace on a simulated
//!   [`MachineSpec`] and reports modelled-flops / simulated-time, which is
//!   how the repository characterises machines it does not own;
//! * [`host_profile`] — runs the *real instrumented kernel* on this host
//!   with wall-clock timing (counted flops / elapsed), demonstrating the
//!   workflow end-to-end on physical hardware.

use std::time::Instant;

use cluster_sim::{Engine, MachineSpec, SharedOp};
use sweep3d::serial::SerialSolver;
use sweep3d::trace::{generate_program_set, FlopModel};
use sweep3d::ProblemConfig;

/// One achieved-rate observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilePoint {
    /// Per-processor subgrid size in cells.
    pub cells_per_pe: usize,
    /// Achieved rate in MFLOPS.
    pub mflops: f64,
    /// Elapsed (simulated or wall) seconds of the profiled run.
    pub elapsed_secs: f64,
    /// Floating-point operations executed per processor.
    pub flops: f64,
}

/// Default proxy-grid edge for kernel flop calibration.
pub const CALIBRATION_PROXY_CELLS: usize = 10;

/// Profile the application on a simulated machine with a `1 × profile_pes`
/// decomposition of the given per-PE problem (weak scaling in `j`).
pub fn virtual_profile(
    spec: &MachineSpec,
    per_pe_config: &ProblemConfig,
    profile_pes: usize,
) -> ProfilePoint {
    assert!(profile_pes >= 1);
    let mut config = *per_pe_config;
    config.npe_i = 1;
    config.npe_j = profile_pes;
    config.jt = per_pe_config.jt * profile_pes;
    config.validate().expect("profiling config");
    let flop_model = FlopModel::calibrate(&config, CALIBRATION_PROXY_CELLS);
    let set = generate_program_set(&config, &flop_model);
    // Rank 0's flops in execution order (body after body), so the sum is
    // the one its materialized program would give, bit for bit.
    let body = set.ops(0);
    let rank_flops: f64 = (0..set.laps(0))
        .flat_map(|_| body)
        .map(|op| if let SharedOp::Compute { flops, .. } = *op { flops } else { 0.0 })
        .sum();
    let report = Engine::from_set(spec, set).run().expect("profiling run");
    let elapsed = report.makespan();
    let cells = config.it * (config.jt / profile_pes) * config.kt;
    ProfilePoint {
        cells_per_pe: cells,
        mflops: rank_flops / elapsed / 1e6,
        elapsed_secs: elapsed,
        flops: rank_flops,
    }
}

/// Profile the real instrumented kernel on this host (wall-clock).
pub fn host_profile(config: &ProblemConfig) -> ProfilePoint {
    let solver = SerialSolver::new(config).expect("valid config");
    let start = Instant::now();
    let out = solver.run();
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let flops = out.flops.total() as f64;
    ProfilePoint {
        cells_per_pe: config.total_cells(),
        mflops: flops / elapsed / 1e6,
        elapsed_secs: elapsed,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::cpu::{CpuModel, RatePoint};

    fn small_cfg(cells: usize) -> ProblemConfig {
        let mut c = ProblemConfig::weak_scaling(cells, 1, 1);
        c.mk = 5.min(cells);
        c.iterations = 2;
        c
    }

    #[test]
    fn virtual_profile_flat_machine_recovers_rate() {
        let spec = MachineSpec::ideal(150.0);
        let p = virtual_profile(&spec, &small_cfg(8), 1);
        // Flat CPU, free network, no noise: achieved == machine rate.
        assert!((p.mflops - 150.0).abs() < 0.5, "got {}", p.mflops);
        assert_eq!(p.cells_per_pe, 512);
    }

    #[test]
    fn virtual_profile_two_pes_close_to_one() {
        let spec = MachineSpec::ideal(150.0);
        let p1 = virtual_profile(&spec, &small_cfg(8), 1);
        let p2 = virtual_profile(&spec, &small_cfg(8), 2);
        // A 1×2 run adds pipeline fill but no contention on the ideal
        // machine; rates should agree within a few percent.
        let rel = (p1.mflops - p2.mflops).abs() / p1.mflops;
        assert!(rel < 0.15, "p1 {} vs p2 {}", p1.mflops, p2.mflops);
        assert!(p2.mflops <= p1.mflops, "fill can only lower the achieved rate");
    }

    #[test]
    fn smp_contention_lowers_profiled_rate() {
        let mut spec = MachineSpec::ideal(200.0);
        spec.cpu = CpuModel::with_curve("numa", vec![RatePoint { bytes: 1.0, mflops: 200.0 }], 0.2);
        spec.smp_width = 56;
        let p1 = virtual_profile(&spec, &small_cfg(8), 1);
        let p2 = virtual_profile(&spec, &small_cfg(8), 2);
        assert!(p2.mflops < p1.mflops, "sharing must cost: {} vs {}", p1.mflops, p2.mflops);
    }

    #[test]
    fn host_profile_counts_real_flops() {
        let p = host_profile(&small_cfg(6));
        assert!(p.flops > 0.0);
        assert!(p.mflops > 0.0);
        assert!(p.elapsed_secs > 0.0);
        assert_eq!(p.cells_per_pe, 216);
    }
}
