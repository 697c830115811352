//! # pace-core — the PACE layered performance-characterisation framework
//!
//! This crate is the paper's primary contribution: a layered predictive
//! performance model in the style of PACE (Performance Analysis and
//! Characterisation Environment, Nudd et al.), extended for commodity
//! superscalar processors as described in Mudalige et al., CLUSTER 2006.
//!
//! The layers (paper Fig. 2/3):
//!
//! * **Application layer** ([`model`]) — application and subtask objects
//!   carrying control flow and *clc* (C-language characterisation) resource
//!   vectors ([`clc`]);
//! * **Parallel-template layer** ([`templates`]) — reusable descriptions of
//!   computation/communication structure; the centrepiece is the
//!   [`templates::pipeline`] template characterising SWEEP3D's pipelined
//!   synchronous wavefront, plus `globalsum`/`globalmax` collectives and an
//!   `async` (serial) template;
//! * **Hardware layer (HMCL)** ([`hardware`], [`comm`]) — per-machine
//!   resource characterisation: the *achieved* floating-point rate for a
//!   given per-processor problem size (the paper's coarse benchmarking
//!   extension) and the piecewise-linear MPI transfer-time model of Eq. 3;
//! * **Evaluation engine** ([`engine`]) — combines an application model
//!   with a hardware model into a predicted execution time with a
//!   per-subtask breakdown.
//!
//! The complete SWEEP3D model of the paper is provided in
//! [`sweep3d_model`]; the quoted machine characterisations from the
//! paper's validation section live in the `registry` crate
//! (`registry::quoted`), which layers name- and file-based machine
//! resolution on top of this crate's hardware types.
//!
//! ```
//! use pace_core::sweep3d_model::{Sweep3dModel, Sweep3dParams};
//! use pace_core::{CommModel, HardwareModel};
//!
//! // Predict a 100x100x50 weak-scaling run on a 132 Mflop/s machine.
//! let hw = HardwareModel::flat_rate("demo", 132.0, CommModel::free());
//! let params = Sweep3dParams::weak_scaling_50cubed(2, 2);
//! let prediction = Sweep3dModel::new(params).predict(&hw);
//! assert!(prediction.total_secs > 10.0 && prediction.total_secs < 60.0);
//! ```

pub mod clc;
pub mod comm;
pub mod engine;
pub mod hardware;
pub mod model;
pub mod sweep3d_model;
pub mod templates;
pub mod workload;

pub use clc::{Opcode, OpcodeCosts, ResourceVector};
pub use comm::{CommCurve, CommModel};
pub use engine::{EvaluationEngine, EvaluationReport};
pub use hardware::HardwareModel;
pub use model::{ApplicationObject, SubtaskObject, TemplateBinding};
pub use sweep3d_model::{Sweep3dModel, Sweep3dParams};
pub use workload::{AllreduceParams, StencilParams, Workload, WorkloadKind};
