//! # hwbench — the benchmarking layer of the PACE workflow
//!
//! The paper's hardware characterisation has two inputs (§4.3–4.4):
//!
//! 1. **Coarse serial-kernel benchmarking** — profile the application
//!    (PAPI) on one/two processors and record the *achieved* floating-point
//!    rate for the per-processor problem size. [`profiler`] does this both
//!    on the host (wall-clock + instrumented flop counts) and *virtually*
//!    on a [`cluster_sim::MachineSpec`], which is how we characterise the
//!    paper's machines without owning them.
//! 2. **MPI microbenchmarks** — timed sends, receives and ping-pongs over
//!    increasing message sizes ([`netbench`]), fitted to the piecewise-
//!    linear Eq. 3 by segmented least squares ([`fit`], [`stats`]).
//!
//! The canonical simulated machine specifications (Pentium 3/Myrinet,
//! Opteron/GigE, Altix/NUMAlink) live in `registry::sim`;
//! [`benchmark_machine`] runs the full characterisation workflow (simulated machine in, fitted [`pace_core::HardwareModel`]
//! out), and [`characterise`] does the same at the registry level: a
//! registry machine in, the same machine with a freshly fitted analytic
//! half out.

pub mod bootstrap;
pub mod fit;
pub mod host_netbench;
pub mod netbench;
pub mod profiler;
pub mod stats;

use cluster_sim::MachineSpec;
use pace_core::HardwareModel;
use sweep3d::ProblemConfig;

/// Run the complete PACE benchmarking workflow against a simulated machine:
/// virtual kernel profiling at each requested per-PE subgrid size plus MPI
/// microbenchmark fitting.
///
/// `profile_pes` is the decomposition used for the profiling runs (the
/// paper uses 1×1 and 1×2; pass `2` to match, which also exposes SMP
/// memory contention to the calibration on shared-memory machines).
pub fn benchmark_machine(
    spec: &MachineSpec,
    per_pe_sizes: &[usize],
    profile_pes: usize,
) -> HardwareModel {
    let mut rates = Vec::with_capacity(per_pe_sizes.len());
    for &cells_1d in per_pe_sizes {
        let config = ProblemConfig::weak_scaling(cells_1d, 1, 1);
        let point = profiler::virtual_profile(spec, &config, profile_pes);
        rates.push(pace_core::hardware::AchievedRate {
            cells_per_pe: point.cells_per_pe as f64,
            mflops: point.mflops,
        });
    }
    rates.sort_by(|a, b| a.cells_per_pe.total_cmp(&b.cells_per_pe));
    let data = netbench::run_microbenchmarks(spec, &netbench::default_sizes(), 4);
    let comm = fit::fit_comm_model(&data);
    HardwareModel { name: spec.name.clone(), rates, comm }
}

/// Characterise a registry machine: run [`benchmark_machine`] against its
/// simulated half and return the same machine with the fitted analytic
/// model in place of the quoted one. Errors when the machine carries no
/// simulated characterisation to benchmark.
pub fn characterise(
    machine: &registry::MachineSpec,
    per_pe_sizes: &[usize],
    profile_pes: usize,
) -> Result<registry::MachineSpec, String> {
    let sim = machine.sim_or_err()?;
    let analytic = benchmark_machine(sim, per_pe_sizes, profile_pes);
    Ok(registry::MachineSpec { id: machine.id.clone(), analytic, sim: Some(sim.clone()) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_workflow_produces_model() {
        let spec = registry::sim::pentium3_myrinet_sim();
        let hw = benchmark_machine(&spec, &[10, 20], 1);
        assert_eq!(hw.rates.len(), 2);
        assert!(hw.achieved_mflops(1000) > 1.0);
        // The fitted ping-pong curve must be increasing in size.
        assert!(hw.comm.pingpong.eval_us(1 << 20) > hw.comm.pingpong.eval_us(64));
    }

    #[test]
    fn characterise_refits_a_registry_machine() {
        let machine = registry::builtin("pentium3-myrinet").unwrap();
        let fitted = characterise(&machine, &[10, 20], 1).unwrap();
        assert_eq!(fitted.id, machine.id);
        assert_eq!(fitted.sim, machine.sim, "the sim half passes through untouched");
        assert_ne!(fitted.analytic, machine.analytic, "the analytic half is re-fitted");
        assert!(fitted.analytic.achieved_mflops(1000) > 1.0);
        // The fitted machine is a first-class registry citizen: it
        // round-trips through the spec-file format.
        let back = registry::MachineSpec::from_json(&fitted.to_json()).unwrap();
        assert_eq!(back, fitted);
    }

    #[test]
    fn characterise_needs_a_sim_half() {
        let analytic_only = registry::MachineSpec::from_analytic(
            "flat",
            registry::quoted::opteron_myrinet_hypothetical(),
        );
        assert!(characterise(&analytic_only, &[10], 1).is_err());
    }
}
