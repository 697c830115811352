//! Strong-scaling extension study (beyond the paper's weak-scaling
//! validation).
//!
//! The paper validates under weak scaling only (50³ cells *per processor*).
//! A natural question for the model is strong scaling: a **fixed global
//! grid** divided over growing processor arrays, where per-rank work
//! shrinks while the pipeline deepens — so runtime first falls with P and
//! then flattens (and eventually rises) as fill dominates. This study runs
//! both the simulator and the analytic model across a strong-scaling ladder
//! and reports speedups and model error.

use cluster_sim::{Engine, MachineSpec};
use pace_core::{Sweep3dModel, Sweep3dParams};
use sweep3d::trace::{generate_program_set, FlopModel};
use sweep3d::ProblemConfig;

/// One strong-scaling observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrongPoint {
    /// Total PEs.
    pub pes: usize,
    /// Array extents.
    pub px: usize,
    /// Processors in `j`.
    pub py: usize,
    /// Simulated runtime, seconds.
    pub measured_secs: f64,
    /// Model prediction, seconds.
    pub predicted_secs: f64,
    /// Measured speedup vs the smallest array in the ladder.
    pub speedup: f64,
}

/// Run the study for a fixed `it × jt × kt` global grid.
pub fn run(
    machine: &MachineSpec,
    it: usize,
    jt: usize,
    kt: usize,
    arrays: &[(usize, usize)],
) -> Vec<StrongPoint> {
    assert!(!arrays.is_empty());
    let base_cfg = config_for(it, jt, kt, arrays[0].0, arrays[0].1);
    let fm = FlopModel::calibrate(&base_cfg, 10);
    // "This rate changes according to the problem size per processor and
    // requires updating according to the problem size that will be
    // modelled" (§4.3): profile the achieved rate at a cube-edge proxy for
    // every per-PE size the ladder visits, and let the hardware layer
    // interpolate.
    let mut edges: Vec<usize> = arrays
        .iter()
        .map(|&(px, py)| {
            let cells = (it / px) * (jt / py) * kt;
            ((cells as f64).cbrt().round() as usize).max(4)
        })
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let hw = hwbench::benchmark_machine(machine, &edges, 1);
    // Ladder points are independent simulations: fan them out over the
    // pool, then derive speedups from the in-order results.
    let run = sweepsvc::run_ordered(arrays.to_vec(), sweepsvc::available_workers(), |&(px, py)| {
        let config = config_for(it, jt, kt, px, py);
        config.validate().expect("strong-scaling config");
        let set = generate_program_set(&config, &fm);
        let measured = Engine::from_set(machine, set).run().expect("runs").makespan();
        let mut params = Sweep3dParams::weak_scaling_50cubed(px, py);
        params.nx = it / px;
        params.ny = jt / py;
        params.nz = kt;
        let predicted = Sweep3dModel::new(params).predict(&hw).total_secs;
        (px, py, measured, predicted)
    });
    let base_time = run.results[0].2;
    run.results
        .into_iter()
        .map(|(px, py, measured, predicted)| StrongPoint {
            pes: px * py,
            px,
            py,
            measured_secs: measured,
            predicted_secs: predicted,
            speedup: base_time / measured,
        })
        .collect()
}

fn config_for(it: usize, jt: usize, kt: usize, px: usize, py: usize) -> ProblemConfig {
    let mut c = ProblemConfig::weak_scaling(1, px, py);
    c.it = it;
    c.jt = jt;
    c.kt = kt;
    c.mk = 10.min(kt);
    c
}

/// The default ladder: a 120×120×40 grid on 1…64 PEs on the Opteron
/// machine.
pub fn default_study() -> Vec<StrongPoint> {
    run(&registry::sim::opteron_gige_sim(), 120, 120, 40, &[(1, 1), (2, 2), (4, 4), (4, 8), (8, 8)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_rises_then_saturates() {
        let pts = default_study();
        assert!(pts[0].speedup == 1.0);
        // Early scaling is strong: 4 PEs at least 2.5x.
        assert!(pts[1].speedup > 2.5, "4-PE speedup {}", pts[1].speedup);
        // Efficiency decays monotonically with P.
        let eff: Vec<f64> = pts.iter().map(|p| p.speedup / p.pes as f64).collect();
        for w in eff.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "efficiency must not rise: {eff:?}");
        }
    }

    #[test]
    fn model_tracks_strong_scaling_within_bound() {
        for p in default_study() {
            let err = (p.measured_secs - p.predicted_secs).abs() / p.measured_secs;
            assert!(
                err < 0.12,
                "{}x{}: measured {:.3} vs predicted {:.3}",
                p.px,
                p.py,
                p.measured_secs,
                p.predicted_secs
            );
        }
    }
}
