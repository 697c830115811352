//! §6 concurrence study: PACE vs LogGP vs the LANL model (and, on small
//! arrays, the discrete-event simulator).
//!
//! "These results concur with those gained through other related analytical
//! models such as \[2, 3\] and \[16\]." Here the backends are evaluated on
//! the same speculative scenarios — through the sweep engine's backend
//! axis, not hand-wired loops — and their spread is reported.

use sweepsvc::{SweepEngine, SweepSpec};
use wavefront_models::Backend;

use crate::speculation::{processor_ladder, Problem};

/// One concurrence observation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencePoint {
    /// Total processors.
    pub pes: usize,
    /// `(model name, predicted seconds)` per model.
    pub predictions: Vec<(String, f64)>,
    /// max/min ratio across models.
    pub spread: f64,
}

/// Evaluate a problem on a machine across `backends` at the given arrays,
/// one sweep with the backend axis innermost.
pub fn run_backends(
    problem: Problem,
    machine: &registry::MachineSpec,
    backends: &[Backend],
    arrays: &[(usize, usize)],
) -> Vec<ConcurrencePoint> {
    let mut spec = SweepSpec::new().machine(machine.clone()).backends(backends.to_vec());
    for &(px, py) in arrays {
        spec = spec.problem(format!("{px}x{py}"), problem.params(px, py));
    }
    let outcome = SweepEngine::new().run(&spec);
    arrays
        .iter()
        .enumerate()
        .map(|(p, &(px, py))| {
            // Ids are problem-major with the backend axis innermost, so
            // point `p` owns the contiguous block starting at `p * B`.
            let base = p * backends.len();
            let predictions: Vec<(String, f64)> = backends
                .iter()
                .enumerate()
                .map(|(bi, b)| {
                    (b.display_name().to_string(), outcome.results[base + bi].total_secs)
                })
                .collect();
            let max = predictions.iter().map(|p| p.1).fold(f64::MIN, f64::max);
            let min = predictions.iter().map(|p| p.1).fold(f64::MAX, f64::min);
            ConcurrencePoint { pes: px * py, predictions, spread: max / min }
        })
        .collect()
}

/// Run the analytic concurrence study (the §6 trio) for one speculative
/// problem over the full processor ladder.
pub fn run(problem: Problem) -> Vec<ConcurrencePoint> {
    let machine = registry::builtin("opteron-myrinet").expect("builtin machine");
    run_backends(problem, &machine, &Backend::ANALYTIC, &processor_ladder())
}

/// The worst max/min spread across the ladder.
pub fn worst_spread(points: &[ConcurrencePoint]) -> f64 {
    points.iter().map(|p| p.spread).fold(1.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_models_evaluated() {
        let pts = run(Problem::OneBillion);
        assert_eq!(pts[0].predictions.len(), 3);
        assert!(pts.iter().all(|p| p.predictions.iter().all(|(_, t)| *t > 0.0)));
    }

    #[test]
    fn models_concur_within_modest_spread() {
        for problem in [Problem::TwentyMillion, Problem::OneBillion] {
            let pts = run(problem);
            let worst = worst_spread(&pts);
            assert!(worst < 2.0, "{problem:?}: models disagree by {worst:.2}x somewhere");
        }
    }

    #[test]
    fn all_four_backends_concur_on_small_fig8_scenarios() {
        // The full cross-backend check, discrete-event simulator included,
        // on Fig. 8 arrays small enough to simulate quickly. The paper's
        // validation band is ~15% model-vs-measurement error per system;
        // across four independent formulations a 2x max/min spread is the
        // corresponding concurrence band.
        let machine = registry::builtin("opteron-myrinet").expect("builtin machine");
        let pts = run_backends(
            Problem::TwentyMillion,
            &machine,
            &Backend::ALL,
            &[(1, 2), (2, 2), (2, 4)],
        );
        for p in &pts {
            assert_eq!(p.predictions.len(), 4);
            assert!(
                p.spread < 2.0,
                "{} PEs: backends spread {:.2}x: {:?}",
                p.pes,
                p.spread,
                p.predictions
            );
        }
    }
}
