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

use cluster_sim::MachineSpec;
use pace_core::Sweep3dParams;
use sweepsvc::{available_workers, run_ordered_with_worker};

use crate::validation::Calibration;

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

/// The `it × jt × kt` global grid on a `px × py` array. The model and
/// the DES both see `(it / px) × (jt / py)` cells per PE, so a grid that
/// does not divide evenly is cut down to one that does.
pub fn params(it: usize, jt: usize, kt: usize, px: usize, py: usize) -> Sweep3dParams {
    Sweep3dParams {
        nx: it / px,
        ny: jt / py,
        nz: kt,
        ..Sweep3dParams::weak_scaling_50cubed(px, py)
    }
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
    let cal = Calibration::new(machine, &params(it, jt, kt, arrays[0].0, arrays[0].1), 10, &edges);
    let recorder = obs::Recorder::disabled();
    // Ladder points are independent simulations: fan them out over the
    // pool, then derive speedups from the in-order results.
    let run = run_ordered_with_worker(arrays.to_vec(), available_workers(), |_, &(px, py)| {
        let params = params(it, jt, kt, px, py);
        let measured = cal.measure(&params, machine, 0, &recorder, 0).makespan();
        (px, py, measured, cal.predict(&params))
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
