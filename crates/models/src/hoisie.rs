//! The Los Alamos pipelined-wavefront model (Hoisie, Lubeck & Wasserman).
//!
//! Following "Performance and Scalability Analysis of Teraflop-Scale
//! Parallel Architectures using Multidimensional Wavefront Applications"
//! (IJHPCA 2000) and the ICPP'00 SMP-cluster variant, the execution time is
//! decomposed as
//!
//! ```text
//! T_total = T_computation + T_communication − T_overlap
//! ```
//!
//! with the wavefront pipeline on a 2-D array captured per iteration as
//!
//! ```text
//! T_iter ≈ (N_sweep·B + 2·(Px + Py − 2)) · (W + C)
//! ```
//!
//! where `B` is the number of pipelined blocks per sweep direction group
//! (`2·A·K` for an octant pair), `N_sweep = 4` direction groups, `W` the
//! per-block CPU time, `C` the per-block message cost not overlapped with
//! computation, and the `2·(Px+Py−2)` term the pipeline fill and drain paid
//! twice per iteration by the octant-pair reversals.

use pace_core::comm::CommModel;
use pace_core::{HardwareModel, Sweep3dParams};

/// The Hoisie et al. wavefront model.
#[derive(Debug, Clone, Copy, Default)]
pub struct HoisieModel;

/// The decomposed prediction, mirroring Eq. 2 of the CLUSTER'06 paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoisieBreakdown {
    /// Pure computation time, seconds.
    pub computation_secs: f64,
    /// Pure communication time, seconds.
    pub communication_secs: f64,
    /// Computation/communication overlap credited back, seconds.
    pub overlap_secs: f64,
    /// `computation + communication − overlap`.
    pub total_secs: f64,
}

impl HoisieModel {
    /// Evaluate with the full breakdown.
    pub fn breakdown(&self, params: &Sweep3dParams, hw: &HardwareModel) -> HoisieBreakdown {
        let cells = params.cells_per_pe() as f64;
        let angles = params.angles_per_octant as f64;
        let fpca = params.kernel.sweep_per_cell_angle.flops();
        let a_blocks = params.angle_blocks();
        let k_blocks = params.k_blocks();
        let units_per_pair = (2 * a_blocks * k_blocks) as f64;
        let unit_flops = cells * 8.0 * angles * fpca / (4.0 * units_per_pair);
        let w = hw.compute_secs(unit_flops, params.cells_per_pe());

        let comm = &hw.comm;
        let i_bytes = avg_face_bytes(params.ny, params, a_blocks, k_blocks);
        let j_bytes = avg_face_bytes(params.nx, params, a_blocks, k_blocks);
        let c_block = per_block_comm(comm, i_bytes, j_bytes);

        let fill_stages = 2.0 * (params.px + params.py) as f64 - 4.0;
        let blocks_per_iter = 4.0 * units_per_pair;

        let comp_per_iter = (blocks_per_iter + fill_stages) * w;
        let comm_per_iter = (blocks_per_iter + fill_stages) * c_block
            + comm.allreduce_secs(8, params.px * params.py);
        // Blocking sends/receives in SWEEP3D leave essentially no overlap;
        // the LANL model credits only the wire time of the last hop chain.
        let overlap_per_iter = fill_stages * comm.oneway_secs(i_bytes) * 0.5;

        let iters = params.iterations as f64;
        let computation_secs = comp_per_iter * iters
            + hw.compute_secs(
                (params.kernel.source_per_cell.flops() + params.kernel.flux_err_per_cell.flops())
                    * cells,
                params.cells_per_pe(),
            ) * iters;
        let communication_secs = comm_per_iter * iters;
        let overlap_secs = overlap_per_iter * iters;
        HoisieBreakdown {
            computation_secs,
            communication_secs,
            overlap_secs,
            total_secs: computation_secs + communication_secs - overlap_secs,
        }
    }
}

fn avg_face_bytes(edge: usize, params: &Sweep3dParams, a_blocks: usize, k_blocks: usize) -> usize {
    let avg_mmi = params.angles_per_octant as f64 / a_blocks as f64;
    let avg_mk = params.nz as f64 / k_blocks as f64;
    (avg_mmi * avg_mk * edge as f64 * 8.0).round() as usize
}

fn per_block_comm(comm: &CommModel, i_bytes: usize, j_bytes: usize) -> f64 {
    comm.send_secs(i_bytes)
        + comm.send_secs(j_bytes)
        + comm.recv_secs(i_bytes)
        + comm.recv_secs(j_bytes)
        + 0.5 * (comm.oneway_secs(i_bytes) + comm.oneway_secs(j_bytes))
}

impl HoisieModel {
    /// The closed-form prediction against an analytic hardware model.
    pub fn predict_secs(&self, params: &Sweep3dParams, hw: &HardwareModel) -> f64 {
        self.breakdown(params, hw).total_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::quoted as machines;

    #[test]
    fn breakdown_identity() {
        let hw = machines::pentium3_myrinet();
        let b = HoisieModel.breakdown(&Sweep3dParams::weak_scaling_50cubed(4, 4), &hw);
        let total = b.computation_secs + b.communication_secs - b.overlap_secs;
        assert!((b.total_secs - total).abs() < 1e-12);
        assert!(b.computation_secs > 0.0);
        assert!(b.communication_secs > 0.0);
        assert!(b.overlap_secs >= 0.0);
        assert!(b.overlap_secs < b.communication_secs);
    }

    #[test]
    fn compute_dominates_on_validation_configs() {
        let hw = machines::pentium3_myrinet();
        let b = HoisieModel.breakdown(&Sweep3dParams::weak_scaling_50cubed(8, 8), &hw);
        assert!(b.computation_secs / b.total_secs > 0.9);
    }

    #[test]
    fn fill_grows_with_array() {
        let hw = machines::pentium3_myrinet();
        let t =
            |px, py| HoisieModel.predict_secs(&Sweep3dParams::weak_scaling_50cubed(px, py), &hw);
        assert!(t(4, 4) < t(8, 8));
        assert!(t(8, 8) < t(10, 14));
    }
}
