//! # wavefront-models — pluggable predictor backends
//!
//! The paper validates its speculative predictions by noting they "concur
//! with those gained through other related analytical models" (§6), citing
//! the LogGP model of Sundaram-Stukel & Vernon (PPoPP'99) and the Los
//! Alamos wavefront models of Hoisie, Lubeck & Wasserman. This crate makes
//! that concurrence check executable — and generalises it into the
//! [`Backend`] enumeration every layer of the workspace now speaks, whose
//! [`Backend::predict`] dispatches by `match`:
//!
//! * [`Backend::Pace`] — this repository's PACE layered model (the paper);
//! * [`Backend::LogGp`] — the LogGP closed form ([`loggp`]);
//! * [`Backend::Hoisie`] — the LANL wavefront closed form ([`hoisie`]);
//! * [`Backend::DesSim`] — the discrete-event `cluster-sim` engine
//!   ([`dessim`]), which needs the machine's simulated half.
//!
//! All four evaluate the same [`Workload`] against the same
//! [`registry::MachineSpec`], so a sweep can cross machines × problems ×
//! backends without hand-wiring (see `sweepsvc`). The PACE and DES
//! backends are workload-generic — they price whatever application object
//! / program set the workload supplies. The LogGP and Hoisie closed forms
//! are derivations *for the wavefront specifically*; they declare that via
//! [`Backend::supports`] and fail with a structured error on anything
//! else ([`unsupported_workload`]).
//!
//! Neither closed-form baseline is a re-derivation of the full published
//! models (those target one machine's MPI implementation in detail); they
//! are the standard closed-form wavefront analyses those papers build on,
//! which is what the concurrence claim rests on.

pub mod dessim;
pub mod hoisie;
pub mod loggp;

pub use hoisie::{HoisieBreakdown, HoisieModel};
pub use loggp::{LogGpModel, LogGpParams};

use pace_core::engine::{EvaluationReport, SubtaskTime};
use pace_core::workload::{Workload, WorkloadKind};
use pace_core::EvaluationEngine;

/// The structured refusal of a backend asked to price a workload outside
/// its derivation. Shared so the CLI, the sweep validator and the backends
/// themselves produce byte-identical messages.
pub fn unsupported_workload(backend: Backend, kind: &str) -> String {
    format!("backend '{}' does not model workload '{kind}'", backend.name())
}

/// Wrap a closed-form scalar prediction into a report shaped like the PACE
/// engine's output (single aggregate subtask). The report's `application`
/// is the workload's kind string.
fn scalar_report(
    machine: &registry::MachineSpec,
    workload: &Workload,
    total_secs: f64,
) -> EvaluationReport {
    EvaluationReport {
        application: workload.kind().into(),
        hardware: machine.analytic.name.clone(),
        total_secs,
        iterations: workload.iterations(),
        subtasks: vec![SubtaskTime {
            name: "total".into(),
            secs_per_iteration: total_secs / workload.iterations().max(1) as f64,
            pipeline: None,
        }],
    }
}

/// The four predictor backends, as a closed CLI-facing enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The PACE layered model (this paper).
    Pace,
    /// LogGP closed form (Sundaram-Stukel & Vernon).
    LogGp,
    /// LANL wavefront closed form (Hoisie et al.).
    Hoisie,
    /// Discrete-event simulation (`cluster-sim`).
    DesSim,
}

impl Backend {
    /// All backends, in CLI listing order.
    pub const ALL: [Backend; 4] = [Backend::Pace, Backend::LogGp, Backend::Hoisie, Backend::DesSim];

    /// The analytic backends (no sim half required) — the §6 concurrence
    /// trio.
    pub const ANALYTIC: [Backend; 3] = [Backend::Pace, Backend::LogGp, Backend::Hoisie];

    /// Parse a CLI identifier. The error lists every valid identifier.
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s {
            "pace" => Ok(Backend::Pace),
            "loggp" => Ok(Backend::LogGp),
            "hoisie" => Ok(Backend::Hoisie),
            "dessim" => Ok(Backend::DesSim),
            other => Err(format!(
                "unknown backend '{other}' (expected one of: pace, loggp, hoisie, dessim)"
            )),
        }
    }

    /// The stable CLI identifier.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Pace => "pace",
            Backend::LogGp => "loggp",
            Backend::Hoisie => "hoisie",
            Backend::DesSim => "dessim",
        }
    }

    /// Whether this backend models a workload template. The PACE engine
    /// and the DES engine are template-generic; the LogGP and Hoisie
    /// closed forms are wavefront derivations only.
    pub fn supports(self, template: WorkloadKind) -> bool {
        match template {
            WorkloadKind::Wavefront => true,
            WorkloadKind::Stencil | WorkloadKind::Allreduce => {
                matches!(self, Backend::Pace | Backend::DesSim)
            }
        }
    }

    /// A human-readable display name with attribution.
    pub fn display_name(self) -> &'static str {
        match self {
            Backend::Pace => "PACE (this paper)",
            Backend::LogGp => "LogGP (Sundaram-Stukel & Vernon)",
            Backend::Hoisie => "Hoisie et al. (LANL)",
            Backend::DesSim => "cluster-sim (discrete event)",
        }
    }

    /// Whether [`predict`](Backend::predict) requires the machine's
    /// simulated (DES) half.
    pub fn needs_sim(self) -> bool {
        self == Backend::DesSim
    }

    /// Predict a workload's run on a registry machine. Errors when the
    /// machine lacks a characterisation the backend needs, or when the
    /// backend does not model the workload's structure.
    ///
    /// PACE prices whatever application object the workload supplies, so
    /// going through the registry is bit-identical to evaluating the model
    /// directly; the closed forms wrap their scalar into a one-subtask
    /// report whose `application` is the workload's kind string.
    pub fn predict(
        self,
        workload: &Workload,
        machine: &registry::MachineSpec,
    ) -> Result<EvaluationReport, String> {
        let hw = &machine.analytic;
        match (self, workload) {
            (Backend::Pace, w) => Ok(EvaluationEngine::new().evaluate(&w.application(), hw)),
            (Backend::LogGp, Workload::Wavefront(p)) => {
                Ok(scalar_report(machine, workload, LogGpModel.predict_secs(p, hw)))
            }
            (Backend::Hoisie, Workload::Wavefront(p)) => {
                Ok(scalar_report(machine, workload, HoisieModel.predict_secs(p, hw)))
            }
            // The closed forms are wavefront derivations; refuse anything else.
            (Backend::LogGp | Backend::Hoisie, w) => Err(unsupported_workload(self, w.kind())),
            (Backend::DesSim, w) => dessim::predict(w, machine),
        }
    }

    /// The backend itself: it predicts through [`Backend::predict`].
    #[doc(hidden)]
    pub fn predictor(self) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_core::{AllreduceParams, StencilParams, Sweep3dModel, Sweep3dParams};

    fn secs(b: Backend, w: impl Into<Workload>, machine: &registry::MachineSpec) -> f64 {
        b.predict(&w.into(), machine).unwrap().total_secs
    }

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Ok(b));
        }
        let err = Backend::parse("petri-net").unwrap_err();
        assert!(err.contains("petri-net") && err.contains("dessim"), "{err}");
        assert!(
            err.contains("pace") && err.contains("loggp") && err.contains("hoisie"),
            "error must list every identifier: {err}"
        );
    }

    #[test]
    fn models_concur_on_weak_scaling() {
        // The §6 concurrence claim: on the hypothetical machine, the three
        // analytic models agree on the scaling shape (within a modest
        // factor at every size, and all increasing with the array).
        let machine = registry::builtin("opteron-myrinet").unwrap();
        for (px, py) in [(2usize, 2usize), (10, 10), (40, 50)] {
            let params = Sweep3dParams::speculative_1b(px, py);
            let preds: Vec<f64> = Backend::ANALYTIC.map(|b| secs(b, params, &machine)).into();
            let max = preds.iter().cloned().fold(f64::MIN, f64::max);
            let min = preds.iter().cloned().fold(f64::MAX, f64::min);
            assert!(min > 0.0);
            assert!(max / min < 1.6, "models disagree at {px}x{py}: {preds:?}");
        }
    }

    #[test]
    fn all_models_scale_up_with_processors() {
        let machine = registry::builtin("opteron-myrinet").unwrap();
        for b in Backend::ANALYTIC {
            let small = secs(b, Sweep3dParams::speculative_1b(2, 2), &machine);
            let large = secs(b, Sweep3dParams::speculative_1b(80, 100), &machine);
            assert!(large > small, "{}: weak-scaling time must grow with the array", b.name());
        }
    }

    #[test]
    fn pace_backend_is_bit_identical_to_direct_model() {
        let machine = registry::builtin("pentium3-myrinet").unwrap();
        let params = Sweep3dParams::weak_scaling_50cubed(4, 4);
        let direct = Sweep3dModel::new(params).predict(&machine.analytic).report;
        let via_backend = Backend::Pace.predict(&params.into(), &machine).unwrap();
        assert_eq!(via_backend, direct);
    }

    #[test]
    fn scalar_backends_report_consistent_totals() {
        let machine = registry::builtin("opteron-gige").unwrap();
        let params = Sweep3dParams::weak_scaling_50cubed(4, 4);
        for b in [Backend::LogGp, Backend::Hoisie] {
            let report = b.predict(&params.into(), &machine).unwrap();
            assert_eq!(report.iterations, params.iterations);
            assert_eq!(report.application, "sweep3d");
            let per_iter = report.subtasks[0].secs_per_iteration;
            assert!((per_iter * params.iterations as f64 - report.total_secs).abs() < 1e-12);
            assert_eq!(report.hardware, machine.analytic.name);
        }
    }

    #[test]
    fn dessim_requires_a_sim_half() {
        let analytic_only = registry::MachineSpec::from_analytic(
            "flat",
            registry::quoted::opteron_myrinet_hypothetical(),
        );
        let err = Backend::DesSim
            .predict(&Sweep3dParams::weak_scaling_50cubed(2, 2).into(), &analytic_only)
            .unwrap_err();
        assert!(err.contains("flat"), "error should name the machine: {err}");
        assert!(Backend::DesSim.needs_sim());
        assert!(!Backend::Pace.needs_sim());
    }

    #[test]
    fn wavefront_only_backends_refuse_other_workloads() {
        let machine = registry::builtin("opteron-myrinet").unwrap();
        let stencil = StencilParams::weak_scaling(2, 2);
        let solver = AllreduceParams::cg_like(4);
        for b in [Backend::LogGp, Backend::Hoisie] {
            for w in [Workload::from(stencil), Workload::from(solver)] {
                assert!(!b.supports(w.template()));
                let err = b.predict(&w, &machine).unwrap_err();
                assert_eq!(err, unsupported_workload(b, w.kind()));
            }
            assert!(b.supports(WorkloadKind::Wavefront));
        }
        for b in [Backend::Pace, Backend::DesSim] {
            assert!(WorkloadKind::ALL.into_iter().all(|t| b.supports(t)));
        }
    }

    #[test]
    fn generic_backends_price_the_new_workloads() {
        let machine = registry::builtin("opteron-myrinet").unwrap();
        let stencil = StencilParams::weak_scaling(2, 2);
        let solver = AllreduceParams::cg_like(4);
        for w in [Workload::from(stencil), Workload::from(solver)] {
            let pace = Backend::Pace.predict(&w, &machine).unwrap();
            assert_eq!(pace.application, w.kind());
            assert!(pace.total_secs > 0.0);
            let des = Backend::DesSim.predict(&w, &machine).unwrap();
            assert_eq!(des.application, w.kind());
            assert!(des.total_secs > 0.0);
        }
    }
}
