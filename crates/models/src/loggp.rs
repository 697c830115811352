//! A LogGP wavefront model (after Sundaram-Stukel & Vernon, PPoPP'99).
//!
//! LogGP abstracts a message-passing machine with five parameters:
//!
//! * `L` — network latency,
//! * `o` — per-message CPU overhead (send or receive),
//! * `g` — minimum gap between consecutive messages,
//! * `G` — gap per byte (inverse bandwidth),
//! * `P` — processors.
//!
//! The PPoPP'99 SWEEP3D analysis interleaves computation and communication
//! step by step; the closed form below keeps its structure: per pipeline
//! step a rank computes one block and exchanges two faces, the wavefront
//! reaches the far corner after `Px + Py − 2` steps, and the four corner
//! sweeps of an iteration chain as in the application's octant schedule.
//!
//! The LogGP parameters are *derived from* the same Eq. 3 curves the PACE
//! model uses ([`LogGpParams::from_comm`]), so the concurrence study
//! compares modelling structure, not calibration inputs.

use pace_core::comm::CommModel;
use pace_core::{HardwareModel, Sweep3dParams};

/// The LogGP machine abstraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogGpParams {
    /// Latency, seconds.
    pub l: f64,
    /// Per-message CPU overhead, seconds.
    pub o: f64,
    /// Inter-message gap, seconds.
    pub g: f64,
    /// Per-byte gap, seconds/byte.
    pub big_g: f64,
    /// Processors.
    pub p: usize,
}

impl LogGpParams {
    /// Derive LogGP parameters from a fitted Eq. 3 model at a reference
    /// message size: `o` from the send/recv intercept average, `L` from
    /// the zero-byte one-way time minus overheads, `G` from the ping-pong
    /// slope, `g` from the send curve's cost at the reference size.
    pub fn from_comm(comm: &CommModel, ref_bytes: usize, procs: usize) -> Self {
        let o = 0.5 * (comm.send_secs(0) + comm.recv_secs(0));
        let l = (comm.oneway_secs(0) - 2.0 * o).max(0.0);
        let big_g = (comm.oneway_secs(ref_bytes) - comm.oneway_secs(0)) / ref_bytes.max(1) as f64;
        let g = comm.send_secs(ref_bytes);
        LogGpParams { l, o, g, big_g, p: procs }
    }

    /// End-to-end time of one `k`-byte message: `o + L + k·G + o`.
    pub fn message_secs(&self, bytes: usize) -> f64 {
        2.0 * self.o + self.l + bytes as f64 * self.big_g
    }
}

/// The LogGP wavefront model.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogGpModel;

impl LogGpModel {
    /// The closed-form prediction against an analytic hardware model.
    pub fn predict_secs(&self, params: &Sweep3dParams, hw: &HardwareModel) -> f64 {
        let cells = params.cells_per_pe() as f64;
        let angles = params.angles_per_octant as f64;
        let a_blocks = params.angle_blocks();
        let k_blocks = params.k_blocks();
        let units_per_corner = (2 * a_blocks * k_blocks) as f64;
        let fpca = params.kernel.sweep_per_cell_angle.flops();
        let unit_flops = cells * 8.0 * angles * fpca / (4.0 * units_per_corner);
        let w = hw.compute_secs(unit_flops, params.cells_per_pe());

        let avg_mmi = angles / a_blocks as f64;
        let avg_mk = params.nz as f64 / k_blocks as f64;
        let i_bytes = (avg_mmi * avg_mk * params.ny as f64 * 8.0).round() as usize;
        let j_bytes = (avg_mmi * avg_mk * params.nx as f64 * 8.0).round() as usize;

        let lg = LogGpParams::from_comm(&hw.comm, i_bytes.max(j_bytes), params.px * params.py);
        // Per step: compute one block + two sends and two receives of
        // overhead `o` each (the wire pipelines behind computation).
        let step = w + 4.0 * lg.o;
        // Hop delay along the wavefront: one full message each dimension.
        let hop_i = lg.message_secs(i_bytes);
        let hop_j = lg.message_secs(j_bytes);
        // Corner chain as in the application's octant schedule: three
        // i-dimension crossings, two j-dimension crossings (see the PACE
        // pipeline template derivation), each stage costing step + hop.
        let fill = 3.0 * (params.px - 1) as f64 * (step + hop_i)
            + 2.0 * (params.py - 1) as f64 * (step + hop_j);
        let steady = 4.0 * units_per_corner * step;

        let subtask_flops = (params.kernel.source_per_cell.flops()
            + params.kernel.flux_err_per_cell.flops())
            * cells;
        let serial = hw.compute_secs(subtask_flops, params.cells_per_pe());
        let reduce = hw.comm.allreduce_secs(8, lg.p);

        (fill + steady + serial + reduce) * params.iterations as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::quoted as machines;

    #[test]
    fn derived_params_are_physical() {
        let comm = machines::myrinet2000_comm();
        let lg = LogGpParams::from_comm(&comm, 12_000, 64);
        assert!(lg.l > 0.0, "latency {}", lg.l);
        assert!(lg.o > 0.0);
        assert!(lg.big_g > 0.0);
        assert!(lg.message_secs(12_000) > lg.message_secs(0));
    }

    #[test]
    fn message_time_linear_in_size() {
        let comm = machines::gige_comm();
        let lg = LogGpParams::from_comm(&comm, 12_000, 4);
        let t0 = lg.message_secs(0);
        let t1 = lg.message_secs(10_000);
        let t2 = lg.message_secs(20_000);
        assert!(((t2 - t1) - (t1 - t0)).abs() < 1e-15);
    }

    #[test]
    fn prediction_positive_and_scaling() {
        let hw = machines::opteron_myrinet_hypothetical();
        let small = LogGpModel.predict_secs(&Sweep3dParams::speculative_20m(2, 2), &hw);
        let large = LogGpModel.predict_secs(&Sweep3dParams::speculative_20m(40, 50), &hw);
        assert!(small > 0.0);
        assert!(large > small);
    }
}
