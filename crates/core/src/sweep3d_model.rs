//! The complete PACE model of SWEEP3D (paper §4, Figs. 3–6).
//!
//! The application object `sweep3d` calls four subtask objects per
//! iteration:
//!
//! * `sweep` — the transport sweeper, ~97% of the computation, evaluated
//!   with the [`pipeline`](crate::templates::pipeline) parallel template;
//! * `source` — the scattering-source update, `async` template;
//! * `flux_err` — the convergence-error evaluation, `async` template;
//! * `global_err` — the convergence reduction, `globalmax` template.
//!
//! The serial resource usage of `sweep` is a per-cell-angle clc vector
//! obtained from `capp` static analysis and verified by instrumented
//! profiling (the paper's hybrid method, §4.3); the evaluation engine
//! prices it with the machine's *achieved* rate for the configured
//! per-processor subgrid size.

use serde::{Deserialize, Serialize};

use crate::clc::ResourceVector;
use crate::engine::{EvaluationEngine, EvaluationReport};
use crate::hardware::HardwareModel;
use crate::model::{ApplicationObject, SubtaskObject, TemplateBinding};
use crate::templates::collective::{CollectiveParams, ReduceKind};
use crate::templates::pipeline::PipelineParams;

/// The serial-kernel characterisation: per-unit clc vectors for the model's
/// compute subtasks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelCharacterisation {
    /// clc vector of one (cell, angle) visit of the sweep kernel, fixup
    /// branch probability folded in (the paper's averaged `goto` work).
    pub sweep_per_cell_angle: ResourceVector,
    /// clc vector of one cell of the source-update subtask.
    pub source_per_cell: ResourceVector,
    /// clc vector of one cell of the error-evaluation subtask.
    pub flux_err_per_cell: ResourceVector,
}

impl KernelCharacterisation {
    /// The characterisation of this repository's sweep kernel, as extracted
    /// by `capp` from the mini-C source and cross-checked against the
    /// instrumented Rust kernel (integration tests hold them within a few
    /// per cent). The fractional parts are the averaged fixup work.
    pub fn sweep3d_default() -> Self {
        KernelCharacterisation {
            sweep_per_cell_angle: ResourceVector {
                // 7 multiplies + 3 fixup-average, 10 adds + 4 fixup-average,
                // 1 divide + small fixup re-solve share, per-angle setup
                // amortised over the block's cells.
                mfdg: 7.0 + 1.8,
                afdg: 10.0 + 2.7,
                dfdg: 1.0 + 0.36,
                ifbr: 3.0,
                lfor: 0.05,
                cmld: 12.0,
            },
            source_per_cell: ResourceVector {
                mfdg: 1.0,
                afdg: 1.0,
                dfdg: 0.0,
                ifbr: 0.0,
                lfor: 0.01,
                cmld: 3.0,
            },
            flux_err_per_cell: ResourceVector {
                mfdg: 0.0,
                afdg: 2.0,
                dfdg: 1.0,
                ifbr: 1.0,
                lfor: 0.01,
                cmld: 2.0,
            },
        }
    }

    /// Override the sweep vector so its flop total equals a profiled
    /// flops-per-cell-angle value (scales the floating-point classes
    /// proportionally), the calibration step of the coarse method.
    pub fn with_sweep_flops(mut self, flops_per_cell_angle: f64) -> Self {
        let current = self.sweep_per_cell_angle.flops();
        assert!(current > 0.0);
        let s = flops_per_cell_angle / current;
        self.sweep_per_cell_angle.mfdg *= s;
        self.sweep_per_cell_angle.afdg *= s;
        self.sweep_per_cell_angle.dfdg *= s;
        self
    }
}

/// Structural parameters of one SWEEP3D run, the model's externally
/// modifiable `var` declarations (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sweep3dParams {
    /// Processor array extents.
    pub px: usize,
    /// Processors in `j`.
    pub py: usize,
    /// Per-processor cells in `i`.
    pub nx: usize,
    /// Per-processor cells in `j`.
    pub ny: usize,
    /// Per-processor cells in `k` (= global `kt`).
    pub nz: usize,
    /// k-plane blocking factor.
    pub mk: usize,
    /// Angle blocking factor.
    pub mmi: usize,
    /// Angles per octant.
    pub angles_per_octant: usize,
    /// Source iterations (12 in the standard setup).
    pub iterations: usize,
    /// Kernel characterisation.
    pub kernel: KernelCharacterisation,
}

impl Sweep3dParams {
    /// The validation-table configuration: 50³ cells per PE, `mk = 10`,
    /// `mmi = 3`, S6, 12 iterations.
    pub fn weak_scaling_50cubed(px: usize, py: usize) -> Self {
        Sweep3dParams {
            px,
            py,
            nx: 50,
            ny: 50,
            nz: 50,
            mk: 10,
            mmi: 3,
            angles_per_octant: 6,
            iterations: 12,
            kernel: KernelCharacterisation::sweep3d_default(),
        }
    }

    /// The §6 twenty-million-cell speculation: 5×5×100 cells per PE.
    pub fn speculative_20m(px: usize, py: usize) -> Self {
        Sweep3dParams { nx: 5, ny: 5, nz: 100, ..Self::weak_scaling_50cubed(px, py) }
    }

    /// The §6 one-billion-cell speculation: 25×25×200 cells per PE.
    pub fn speculative_1b(px: usize, py: usize) -> Self {
        Sweep3dParams { nx: 25, ny: 25, nz: 200, ..Self::weak_scaling_50cubed(px, py) }
    }

    /// Per-processor cell count.
    pub fn cells_per_pe(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Angle blocks per octant.
    pub fn angle_blocks(&self) -> usize {
        self.angles_per_octant.div_ceil(self.mmi)
    }

    /// k blocks.
    pub fn k_blocks(&self) -> usize {
        self.nz.div_ceil(self.mk)
    }

    /// Number of processor-array diagonals (`ndiag` of the paper's
    /// application object, computed from run-time values).
    pub fn ndiag(&self) -> usize {
        self.px + self.py - 1
    }
}

/// A prediction with its engine report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sweep3dPrediction {
    /// Predicted total execution time, seconds.
    pub total_secs: f64,
    /// The full per-subtask report.
    pub report: EvaluationReport,
}

/// The SWEEP3D PACE model: build once, predict against any hardware model
/// (the reuse the paper demonstrates in §6).
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep3dModel {
    params: Sweep3dParams,
}

impl Sweep3dModel {
    /// Create the model for a parameter set.
    pub fn new(params: Sweep3dParams) -> Self {
        Sweep3dModel { params }
    }

    /// The model's parameters.
    pub fn params(&self) -> &Sweep3dParams {
        &self.params
    }

    /// Build the application-layer object hierarchy (Fig. 3).
    pub fn application_object(&self) -> ApplicationObject {
        let p = &self.params;
        let cells = p.cells_per_pe() as f64;
        let angles = p.angles_per_octant as f64;
        let a_blocks = p.angle_blocks();
        let k_blocks = p.k_blocks();
        let units_per_corner = 2 * a_blocks * k_blocks;
        // Total sweep flops per rank per iteration: all 8 octants.
        let sweep_flops_per_iter = cells * 8.0 * angles * p.kernel.sweep_per_cell_angle.flops();
        // One pipeline unit's flops: per-corner total / units per corner.
        let unit_flops = sweep_flops_per_iter / (4 * units_per_corner) as f64;
        // Average face message sizes (uneven tail blocks averaged out).
        let avg_mmi = angles / a_blocks as f64;
        let avg_mk = p.nz as f64 / k_blocks as f64;
        let i_msg_bytes = (avg_mmi * avg_mk * p.ny as f64 * 8.0).round() as usize;
        let j_msg_bytes = (avg_mmi * avg_mk * p.nx as f64 * 8.0).round() as usize;

        let sweep = SubtaskObject {
            name: "sweep".into(),
            flops: sweep_flops_per_iter,
            per_unit: p.kernel.sweep_per_cell_angle,
            units: cells * 8.0 * angles,
            cells_per_pe: p.cells_per_pe(),
            template: TemplateBinding::Pipeline(PipelineParams {
                px: p.px,
                py: p.py,
                units_per_corner,
                corners: 4,
                unit_flops,
                cells_per_pe: p.cells_per_pe(),
                i_msg_bytes,
                j_msg_bytes,
            }),
        };
        let source =
            SubtaskObject::serial("source", p.kernel.source_per_cell, cells, p.cells_per_pe());
        let flux_err =
            SubtaskObject::serial("flux_err", p.kernel.flux_err_per_cell, cells, p.cells_per_pe());
        let global_err = SubtaskObject {
            name: "global_err".into(),
            flops: 0.0,
            per_unit: ResourceVector::zero(),
            units: 0.0,
            cells_per_pe: p.cells_per_pe(),
            template: TemplateBinding::Collective(CollectiveParams {
                kind: ReduceKind::Max,
                bytes: 8,
                procs: p.px * p.py,
            }),
        };

        ApplicationObject {
            name: "sweep3d".into(),
            iterations: p.iterations,
            subtasks: vec![sweep, source, flux_err, global_err],
        }
    }

    /// Predict the execution time on a hardware model.
    pub fn predict(&self, hw: &HardwareModel) -> Sweep3dPrediction {
        let app = self.application_object();
        let report = EvaluationEngine::new().evaluate(&app, hw);
        Sweep3dPrediction { total_secs: report.total_secs, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommModel;

    fn hw(mflops: f64) -> HardwareModel {
        HardwareModel::flat_rate("test", mflops, CommModel::free())
    }

    #[test]
    fn params_derived_quantities() {
        let p = Sweep3dParams::weak_scaling_50cubed(4, 6);
        assert_eq!(p.cells_per_pe(), 125_000);
        assert_eq!(p.angle_blocks(), 2);
        assert_eq!(p.k_blocks(), 5);
        assert_eq!(p.ndiag(), 9);
    }

    #[test]
    fn sweep_dominates_prediction() {
        let model = Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(4, 4));
        let pred = model.predict(&hw(110.0));
        assert!(pred.report.subtask_fraction("sweep") > 0.95);
    }

    #[test]
    fn weak_scaling_grows_linearly_in_stages() {
        // Fill cost grows with 3(px−1) + 2(py−1); steady state constant.
        let t = |px, py| {
            Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(px, py))
                .predict(&hw(110.0))
                .total_secs
        };
        let t22 = t(2, 2);
        let t44 = t(4, 4);
        let t88 = t(8, 8);
        assert!(t44 > t22 && t88 > t44);
        let (d1, d2) = (t44 - t22, t88 - t44);
        assert!((d2 / d1 - 2.0).abs() < 0.05, "fill growth should double: {}", d2 / d1);
    }

    #[test]
    fn prediction_in_papers_ballpark() {
        // Table 1 scale check: 2x2 Pentium 3 @ ~110 MFLOPS ⇒ tens of
        // seconds for 50³/PE × 12 iterations.
        let model = Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(2, 2));
        let pred = model.predict(&hw(110.0));
        assert!(pred.total_secs > 10.0 && pred.total_secs < 45.0, "got {}", pred.total_secs);
    }

    #[test]
    fn unit_flops_conserve_total() {
        let model = Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(3, 5));
        let app = model.application_object();
        let sweep = app.subtask("sweep").unwrap();
        if let TemplateBinding::Pipeline(p) = sweep.template {
            let reconstructed = p.unit_flops * (4 * p.units_per_corner) as f64;
            assert!((reconstructed - sweep.flops).abs() / sweep.flops < 1e-12);
        } else {
            panic!("sweep must bind the pipeline template");
        }
    }

    #[test]
    fn message_sizes_match_block_faces() {
        let model = Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(2, 2));
        let app = model.application_object();
        if let TemplateBinding::Pipeline(p) = app.subtask("sweep").unwrap().template {
            // mmi=3 angles × mk=10 planes × 50 cells × 8 bytes = 12 kB.
            assert_eq!(p.i_msg_bytes, 12_000);
            assert_eq!(p.j_msg_bytes, 12_000);
        } else {
            panic!("sweep must bind the pipeline template");
        }
    }

    #[test]
    fn calibration_rescales_flops() {
        let k = KernelCharacterisation::sweep3d_default().with_sweep_flops(30.0);
        assert!((k.sweep_per_cell_angle.flops() - 30.0).abs() < 1e-9);
        // Branch counts untouched.
        assert_eq!(k.sweep_per_cell_angle.ifbr, 3.0);
    }

    #[test]
    fn speculative_configs() {
        let p20 = Sweep3dParams::speculative_20m(80, 100);
        assert_eq!(p20.cells_per_pe(), 2500);
        let p1b = Sweep3dParams::speculative_1b(80, 100);
        assert_eq!(p1b.cells_per_pe(), 125_000);
        assert_eq!(p1b.cells_per_pe() * 8000, 1_000_000_000);
    }
}
