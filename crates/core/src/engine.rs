//! The PACE evaluation engine.
//!
//! Combines an application-layer model with a hardware model and produces a
//! predicted execution time "within seconds" (paper §4) — here within
//! microseconds, since the model is closed-form. The report carries the
//! per-subtask breakdown PACE presents to the analyst.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::hardware::HardwareModel;
use crate::model::{ApplicationObject, SubtaskObject, TemplateBinding};
use crate::templates;
use crate::templates::pipeline::PipelineEstimate;

/// One subtask's evaluated time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubtaskTime {
    /// Subtask name (its subtask object's, shared when that is a
    /// literal).
    pub name: Cow<'static, str>,
    /// Time per iteration, seconds.
    pub secs_per_iteration: f64,
    /// Pipeline breakdown when the subtask used the pipeline template.
    pub pipeline: Option<PipelineEstimate>,
}

/// The engine's output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationReport {
    /// Application name (its application object's, shared when that is
    /// a literal).
    pub application: Cow<'static, str>,
    /// Hardware model name.
    pub hardware: String,
    /// Predicted total execution time, seconds.
    pub total_secs: f64,
    /// Iterations evaluated.
    pub iterations: usize,
    /// Per-subtask times.
    pub subtasks: Vec<SubtaskTime>,
}

impl EvaluationReport {
    /// Time of one named subtask per iteration, if present.
    pub fn subtask_secs(&self, name: &str) -> Option<f64> {
        self.subtasks.iter().find(|s| s.name == name).map(|s| s.secs_per_iteration)
    }

    /// Fraction of the total attributable to a named subtask.
    pub fn subtask_fraction(&self, name: &str) -> f64 {
        match (self.subtask_secs(name), self.total_secs) {
            (Some(s), t) if t > 0.0 => s * self.iterations as f64 / t,
            _ => 0.0,
        }
    }

    /// Render the analyst-facing report PACE presents after evaluation:
    /// per-subtask times, shares, and the pipeline breakdown where present.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "PACE evaluation: {} on {}", self.application, self.hardware);
        let _ = writeln!(
            out,
            "predicted total: {:.4} s  ({} iterations)",
            self.total_secs, self.iterations
        );
        for sub in &self.subtasks {
            let _ = writeln!(
                out,
                "  {:<12} {:>12.6} s/iter  {:>6.2}%",
                sub.name,
                sub.secs_per_iteration,
                self.subtask_fraction(&sub.name) * 100.0
            );
            if let Some(p) = &sub.pipeline {
                let _ = writeln!(
                    out,
                    "               pipeline: fill {:.4} s + steady {:.4} s over {} stages; comm {:.4} s",
                    p.fill_secs, p.steady_secs, p.stages, p.comm_secs
                );
            }
        }
        out
    }
}

/// One subtask's evaluation: seconds per iteration, plus the pipeline
/// breakdown when the pipeline template produced it.
pub type SubtaskEval = (f64, Option<PipelineEstimate>);

/// Evaluate one subtask on a hardware model: the template dispatch every
/// evaluator shares, cached or not.
pub fn evaluate_subtask(sub: &SubtaskObject, hw: &HardwareModel) -> SubtaskEval {
    match &sub.template {
        TemplateBinding::Pipeline(params) => {
            let est = templates::pipeline::evaluate(params, hw);
            (est.total_secs, Some(est))
        }
        TemplateBinding::Halo(params) => (templates::halo::evaluate(params, hw), None),
        TemplateBinding::Collective(params) => {
            (templates::collective::evaluate(params, &hw.comm), None)
        }
        TemplateBinding::Async => (templates::serial_secs(hw, sub.flops, sub.cells_per_pe), None),
    }
}

/// The evaluation engine. Stateless; method-style API mirrors the PACE
/// toolchain's `evaluate` step.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvaluationEngine;

impl EvaluationEngine {
    /// Create an engine.
    pub fn new() -> Self {
        EvaluationEngine
    }

    /// Evaluate an application model on a hardware model.
    pub fn evaluate(&self, app: &ApplicationObject, hw: &HardwareModel) -> EvaluationReport {
        self.evaluate_with(app, hw, |sub| evaluate_subtask(sub, hw))
    }

    /// Evaluate an application model with `subtask` answering each
    /// subtask in order; the report's summation is the same as
    /// [`EvaluationEngine::evaluate`]'s, so a hook that returns
    /// [`evaluate_subtask`]'s value (a memo of it, say) yields the same
    /// bits.
    pub fn evaluate_with(
        &self,
        app: &ApplicationObject,
        hw: &HardwareModel,
        mut subtask: impl FnMut(&SubtaskObject) -> SubtaskEval,
    ) -> EvaluationReport {
        let mut subtasks = Vec::with_capacity(app.subtasks.len());
        let mut per_iteration = 0.0;
        for sub in &app.subtasks {
            let (secs, pipeline) = subtask(sub);
            per_iteration += secs;
            subtasks.push(SubtaskTime {
                name: sub.name.clone(),
                secs_per_iteration: secs,
                pipeline,
            });
        }
        EvaluationReport {
            application: app.name.clone(),
            hardware: hw.name.clone(),
            total_secs: per_iteration * app.iterations as f64,
            iterations: app.iterations,
            subtasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clc::ResourceVector;
    use crate::comm::CommModel;

    fn app() -> ApplicationObject {
        let v = ResourceVector { mfdg: 1.0, afdg: 1.0, ..Default::default() };
        ApplicationObject {
            name: "toy".into(),
            iterations: 10,
            subtasks: vec![
                SubtaskObject::serial("alpha", v, 50e6, 1000), // 1e8 flops
                SubtaskObject::serial("beta", v, 25e6, 1000),  // 5e7 flops
            ],
        }
    }

    #[test]
    fn totals_multiply_iterations() {
        let hw = HardwareModel::flat_rate("hw", 100.0, CommModel::free());
        let report = EvaluationEngine::new().evaluate(&app(), &hw);
        // alpha 1 s + beta 0.5 s per iteration, × 10.
        assert!((report.total_secs - 15.0).abs() < 1e-9);
        assert!((report.subtask_secs("alpha").unwrap() - 1.0).abs() < 1e-9);
        assert!((report.subtask_fraction("beta") - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn faster_hardware_scales_prediction() {
        let hw1 = HardwareModel::flat_rate("hw", 100.0, CommModel::free());
        let hw2 = hw1.with_rate_scaled(2.0);
        let e = EvaluationEngine::new();
        let a = e.evaluate(&app(), &hw1).total_secs;
        let b = e.evaluate(&app(), &hw2).total_secs;
        assert!((a / b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn text_report_renders() {
        use crate::sweep3d_model::{Sweep3dModel, Sweep3dParams};
        let hw = HardwareModel::flat_rate("fixture", 132.0, CommModel::free());
        let pred = Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(4, 4)).predict(&hw);
        let text = pred.report.to_text();
        assert!(text.contains("sweep"));
        assert!(text.contains("pipeline: fill"));
        assert!(text.contains("predicted total"));
        assert!(text.contains("global_err"));
    }

    #[test]
    fn missing_subtask_queries() {
        let hw = HardwareModel::flat_rate("hw", 100.0, CommModel::free());
        let report = EvaluationEngine::new().evaluate(&app(), &hw);
        assert_eq!(report.subtask_secs("nope"), None);
        assert_eq!(report.subtask_fraction("nope"), 0.0);
    }
}
