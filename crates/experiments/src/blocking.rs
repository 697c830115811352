//! The mk/mmi blocking-parameter study (§2's pipelining rationale).
//!
//! "To improve the parallel efficiency, blocks of work are pipelined
//! through the processor array." Small blocks fill the pipeline quickly
//! but pay per-message costs often; large blocks amortise messages but
//! leave downstream processors idle. This study sweeps the two blocking
//! factors on the simulated machine *and* through the analytic model,
//! showing the model captures the trade-off.

use cluster_sim::MachineSpec;
use pace_core::workload::sweep3d_problem_config;
use pace_core::Sweep3dParams;

use crate::validation::Calibration;

/// One blocking observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingPoint {
    /// k-plane blocking factor.
    pub mk: usize,
    /// Angle blocking factor.
    pub mmi: usize,
    /// Simulated runtime, seconds.
    pub measured_secs: f64,
    /// Model-predicted runtime, seconds.
    pub predicted_secs: f64,
}

/// Sweep mk × mmi for a weak-scaled problem on a machine, skipping
/// blockings that do not describe a valid problem.
pub fn sweep(
    machine: &MachineSpec,
    cells_per_pe: usize,
    px: usize,
    py: usize,
    mks: &[usize],
    mmis: &[usize],
) -> Vec<BlockingPoint> {
    let n = cells_per_pe;
    let base = Sweep3dParams { nx: n, ny: n, nz: n, ..Sweep3dParams::weak_scaling_50cubed(px, py) };
    let cal = Calibration::new(machine, &base, 10.min(n), &[n]);
    let recorder = obs::Recorder::disabled();
    let mut out = Vec::new();
    for &mk in mks {
        for &mmi in mmis {
            let params = Sweep3dParams { mk, mmi, ..base };
            if sweep3d_problem_config(&params).is_err() {
                continue;
            }
            let measured = cal.measure(&params, machine, 0, &recorder, 0).makespan();
            let predicted = cal.predict(&params);
            out.push(BlockingPoint { mk, mmi, measured_secs: measured, predicted_secs: predicted });
        }
    }
    out
}

/// The `(mk, mmi)` with the lowest measured runtime.
pub fn best(points: &[BlockingPoint]) -> Option<BlockingPoint> {
    points.iter().copied().min_by(|a, b| a.measured_secs.total_cmp(&b.measured_secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::sim::pentium3_myrinet_sim;

    #[test]
    fn model_tracks_blocking_trend() {
        // Small problem so the test is quick: 10³/PE on 1×4 (pure pipeline).
        let pts = sweep(&pentium3_myrinet_sim(), 10, 1, 4, &[1, 5, 10], &[1, 6]);
        assert!(pts.len() >= 4);
        for p in &pts {
            assert!(p.measured_secs > 0.0 && p.predicted_secs > 0.0);
            // The model need not be exact here (tiny blocks stress the
            // per-message terms), but must stay within a factor.
            let ratio = p.predicted_secs / p.measured_secs;
            assert!((0.5..2.0).contains(&ratio), "mk={} mmi={}: ratio {ratio}", p.mk, p.mmi);
        }
        // Single-block sweeps (mk=10 covers all 10 planes, mmi=6 all
        // angles) serialise the pipeline; finer blocking must beat the
        // coarsest setting on a 1×4 array.
        let coarsest =
            pts.iter().find(|p| p.mk == 10 && p.mmi == 6).expect("coarsest point present");
        let b = best(&pts).unwrap();
        assert!(b.measured_secs <= coarsest.measured_secs);
        assert!(!(b.mk == 10 && b.mmi == 6), "some pipelining should help: best {b:?}");
    }
}
