//! Bridge: evaluated PSL scripts → `pace-core` model objects.
//!
//! A subtask's first `include` names its parallel template; the template's
//! structural parameters are taken from the subtask's (link-bound)
//! variables, matching how the paper's PSL scripts wire the layers
//! together.

use pace_core::model::{ApplicationObject, SubtaskObject, TemplateBinding};
use pace_core::templates::collective::{CollectiveParams, ReduceKind};
use pace_core::templates::pipeline::PipelineParams;

use crate::ast::Object;
use crate::eval::{evaluate, EvaluatedSubtask, Overrides};
use crate::{PslError, Span};

/// Evaluate and compile a parsed script into a PACE application object.
pub fn compile(objects: &[Object], overrides: &Overrides) -> Result<ApplicationObject, PslError> {
    let model = evaluate(objects, overrides)?;
    if model.subtasks.is_empty() {
        return Err(PslError {
            span: Span::start(),
            message: "application calls no subtasks".into(),
        });
    }
    let iterations = model.subtasks[0].calls;
    for s in &model.subtasks {
        if s.calls != iterations {
            return Err(PslError {
                span: Span::start(),
                message: format!(
                    "subtask '{}' called {} times but '{}' {} times; \
                     per-iteration structure required",
                    s.name, s.calls, model.subtasks[0].name, iterations
                ),
            });
        }
    }

    let mut subtasks = Vec::with_capacity(model.subtasks.len());
    for sub in &model.subtasks {
        subtasks.push(compile_subtask(sub)?);
    }
    Ok(ApplicationObject {
        name: model.application.into(),
        iterations: iterations as usize,
        subtasks,
    })
}

fn binding(sub: &EvaluatedSubtask, name: &str) -> Result<f64, PslError> {
    sub.bindings.get(name).copied().ok_or_else(|| PslError {
        span: Span::start(),
        message: format!(
            "subtask '{}' uses template '{}' but variable '{name}' is unbound",
            sub.name,
            sub.template.as_deref().unwrap_or("async")
        ),
    })
}

fn compile_subtask(sub: &EvaluatedSubtask) -> Result<SubtaskObject, PslError> {
    let template_name = sub.template.as_deref().unwrap_or("async");
    let flops = sub.vector.flops();
    let template = match template_name {
        "pipeline" => {
            let px = binding(sub, "px")? as usize;
            let py = binding(sub, "py")? as usize;
            let nx = binding(sub, "nx")? as usize;
            let ny = binding(sub, "ny")? as usize;
            let nz = binding(sub, "nz")? as usize;
            let mk = binding(sub, "mk")? as usize;
            let mmi = binding(sub, "mmi")? as usize;
            let angles = binding(sub, "angles")? as usize;
            if px == 0 || py == 0 || mk == 0 || mmi == 0 || angles == 0 {
                return Err(PslError {
                    span: Span::start(),
                    message: format!("subtask '{}': zero-valued pipeline parameter", sub.name),
                });
            }
            let a_blocks = angles.div_ceil(mmi);
            let k_blocks = nz.div_ceil(mk);
            let units_per_corner = 2 * a_blocks * k_blocks;
            let avg_mmi = angles as f64 / a_blocks as f64;
            let avg_mk = nz as f64 / k_blocks as f64;
            TemplateBinding::Pipeline(PipelineParams {
                px,
                py,
                units_per_corner,
                corners: 4,
                unit_flops: flops / (4 * units_per_corner) as f64,
                cells_per_pe: nx * ny * nz,
                i_msg_bytes: (avg_mmi * avg_mk * ny as f64 * 8.0).round() as usize,
                j_msg_bytes: (avg_mmi * avg_mk * nx as f64 * 8.0).round() as usize,
            })
        }
        "globalsum" | "globalmax" => {
            let procs = binding(sub, "procs")? as usize;
            TemplateBinding::Collective(CollectiveParams {
                kind: if template_name == "globalsum" { ReduceKind::Sum } else { ReduceKind::Max },
                bytes: sub.bindings.get("bytes").copied().unwrap_or(8.0) as usize,
                procs,
            })
        }
        "async" => TemplateBinding::Async,
        other => {
            return Err(PslError {
                span: Span::start(),
                message: format!("subtask '{}': unknown template '{other}'", sub.name),
            })
        }
    };
    // Per-unit bookkeeping: PSL scripts accumulate totals directly, so the
    // subtask is its own unit.
    let cells_per_pe = ["nx", "ny", "nz"]
        .iter()
        .map(|n| sub.bindings.get(*n).copied().unwrap_or(1.0))
        .product::<f64>()
        .max(sub.bindings.get("cells").copied().unwrap_or(1.0)) as usize;
    Ok(SubtaskObject {
        name: sub.name.clone().into(),
        flops,
        per_unit: sub.vector,
        units: 1.0,
        cells_per_pe: cells_per_pe.max(1),
        template,
    })
}

/// Convenience: parse + compile in one call.
pub fn compile_source(src: &str, overrides: &Overrides) -> Result<ApplicationObject, PslError> {
    let objects = crate::parser::parse(src)?;
    compile(&objects, overrides)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_core::model::TemplateBinding as TB;

    const SCRIPT: &str = "
        application demo {
            var numeric: Px = 2, Py = 3, itmax = 5;
            link {
                work: px = Px, py = Py, nx = 10, ny = 10, nz = 10,
                      mk = 5, mmi = 2, angles = 6;
                reduce: procs = Px * Py;
            }
            proc exec init {
                for (i = 1; i <= itmax; i = i + 1) { call work; call reduce; }
            }
        }
        subtask work {
            include pipeline;
            var numeric: px, py, nx, ny, nz, mk, mmi, angles;
            proc cflow work {
                loop (<is clc, LFOR, 0>, 8 * angles * nx * ny * nz) {
                    compute <is clc, MFDG, 10, AFDG, 10>;
                }
            }
        }
        subtask reduce {
            include globalmax;
            var numeric: procs;
        }
    ";

    #[test]
    fn compiles_templates_and_iterations() {
        let app = compile_source(SCRIPT, &Overrides::none()).unwrap();
        assert_eq!(app.iterations, 5);
        assert_eq!(app.subtasks.len(), 2);
        match &app.subtasks[0].template {
            TB::Pipeline(p) => {
                assert_eq!((p.px, p.py), (2, 3));
                // 6 angles / mmi 2 = 3 angle blocks; 10 planes / mk 5 = 2
                // k blocks; octant pair = 2 × 3 × 2 = 12 units.
                assert_eq!(p.units_per_corner, 12);
                // flops: 8*6*1000 cells-angles × 20 = 960000; /48 units.
                assert!((p.unit_flops - 960_000.0 / 48.0).abs() < 1e-9);
            }
            other => panic!("expected pipeline, got {other:?}"),
        }
        match &app.subtasks[1].template {
            TB::Collective(c) => assert_eq!(c.procs, 6),
            other => panic!("expected collective, got {other:?}"),
        }
    }

    #[test]
    fn overrides_flow_into_templates() {
        let app = compile_source(SCRIPT, &Overrides::none().set("Px", 8.0).set("Py", 9.0)).unwrap();
        match &app.subtasks[0].template {
            TB::Pipeline(p) => assert_eq!((p.px, p.py), (8, 9)),
            _ => panic!(),
        }
    }

    #[test]
    fn uneven_call_counts_rejected() {
        let src = "
            application a {
                proc exec init { call s; call s; call t; }
            }
            subtask s { proc cflow w { compute <is clc, AFDG, 1>; } }
            subtask t { proc cflow w { compute <is clc, AFDG, 1>; } }
        ";
        let err = compile_source(src, &Overrides::none()).unwrap_err();
        assert!(err.message.contains("per-iteration"), "{err}");
    }

    #[test]
    fn missing_template_binding_reported() {
        let src = "
            application a { proc exec init { call s; } }
            subtask s {
                include pipeline;
                proc cflow w { compute <is clc, MFDG, 1>; }
            }
        ";
        let err = compile_source(src, &Overrides::none()).unwrap_err();
        assert!(err.message.contains("unbound"), "{err}");
    }
}
