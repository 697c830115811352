//! The application layer: application and subtask objects.
//!
//! A PACE application object (paper Fig. 4) initialises model variables and
//! calls its subtask objects in sequence for the configured number of
//! iterations; each subtask object (Fig. 5) carries serial resource usage
//! (a clc vector) and names the parallel template that evaluates it. This
//! module is the in-memory form those objects compile to — both the
//! programmatic API and the PSL front-end (`pace-psl`) build these.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::clc::ResourceVector;
use crate::templates::collective::CollectiveParams;
use crate::templates::halo::HaloParams;
use crate::templates::pipeline::PipelineParams;

/// The parallel template a subtask is evaluated with, plus its structural
/// parameters (the `link`-supplied values of the PSL scripts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TemplateBinding {
    /// The pipelined wavefront template. `unit_flops` inside the params is
    /// derived from the subtask's resource vector by the model builder.
    Pipeline(PipelineParams),
    /// The bulk-synchronous 2D halo-exchange stencil template.
    Halo(HaloParams),
    /// A reduction collective.
    Collective(CollectiveParams),
    /// The `async` template: serial evaluation, no communication.
    Async,
}

/// A subtask object: serial resource usage + template binding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubtaskObject {
    /// Name (e.g. `"sweep"`). Built-in models name their subtasks with
    /// literals, so copying the name into a report allocates nothing.
    pub name: Cow<'static, str>,
    /// Total serial floating-point work of one evaluation of this subtask
    /// on one rank (already multiplied out over its control flow).
    pub flops: f64,
    /// The underlying per-unit clc vector (kept for opcode costing and
    /// HMCL listings; `flops` is its flop total times the unit count).
    pub per_unit: ResourceVector,
    /// Units (e.g. cell-angle visits) per evaluation, such that
    /// `flops ≈ per_unit.flops() × units`.
    pub units: f64,
    /// Per-processor cell count, selecting the achieved rate.
    pub cells_per_pe: usize,
    /// The template evaluating this subtask.
    pub template: TemplateBinding,
}

impl SubtaskObject {
    /// A communication-free subtask from a per-unit vector and unit count.
    pub fn serial(
        name: impl Into<Cow<'static, str>>,
        per_unit: ResourceVector,
        units: f64,
        cells_per_pe: usize,
    ) -> Self {
        SubtaskObject {
            name: name.into(),
            flops: per_unit.flops() * units,
            per_unit,
            units,
            cells_per_pe,
            template: TemplateBinding::Async,
        }
    }
}

/// An application object: ordered subtasks × iterations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplicationObject {
    /// Application name (a literal for the built-in models, like the
    /// subtask names).
    pub name: Cow<'static, str>,
    /// Outer iteration count (12 for SWEEP3D's fixed setup).
    pub iterations: usize,
    /// Subtasks called once per iteration, in order.
    pub subtasks: Vec<SubtaskObject>,
}

impl ApplicationObject {
    /// Find a subtask by name.
    pub fn subtask(&self, name: &str) -> Option<&SubtaskObject> {
        self.subtasks.iter().find(|s| s.name == name)
    }

    /// Total serial flops per iteration across subtasks (one rank).
    pub fn flops_per_iteration(&self) -> f64 {
        self.subtasks.iter().map(|s| s.flops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_cell() -> ResourceVector {
        ResourceVector { mfdg: 7.0, afdg: 10.0, dfdg: 1.0, ifbr: 3.0, lfor: 0.5, cmld: 12.0 }
    }

    #[test]
    fn serial_subtask_flops() {
        let s = SubtaskObject::serial("source", vec_cell(), 1000.0, 125_000);
        assert!((s.flops - 18.0 * 1000.0).abs() < 1e-9);
        assert!(matches!(s.template, TemplateBinding::Async));
    }

    #[test]
    fn application_lookup_and_totals() {
        let app = ApplicationObject {
            name: "sweep3d".into(),
            iterations: 12,
            subtasks: vec![
                SubtaskObject::serial("a", vec_cell(), 10.0, 100),
                SubtaskObject::serial("b", vec_cell(), 20.0, 100),
            ],
        };
        assert!(app.subtask("a").is_some());
        assert!(app.subtask("zz").is_none());
        assert!((app.flops_per_iteration() - 18.0 * 30.0).abs() < 1e-9);
    }
}
