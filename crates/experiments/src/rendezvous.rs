//! Protocol ablation: eager vs rendezvous point-to-point sends.
//!
//! The PACE communication model (Eq. 3) is protocol-agnostic — it knows
//! only fitted transfer times. Real MPI stacks switch to a rendezvous
//! protocol above an eager threshold, and the resulting sender-side
//! back-pressure serialises extra handshakes into the wavefront's fill
//! path. This study quantifies that effect on the simulated Pentium 3 /
//! Myrinet machine: the same traces run under both protocols, and the fill
//! slope (seconds per added pipeline stage) is extracted by regression.
//!
//! This is the leading explanation for the residual slope difference
//! between this repository's Table 1 and the paper's (EXPERIMENTS.md): the
//! 12 kB face messages of the 50³/PE configuration sit above Myrinet GM's
//! eager threshold, so the original measurements carried rendezvous
//! back-pressure that an eager-only simulation (and the analytic model)
//! does not see.

use cluster_sim::{Engine, MachineSpec};
use hwbench::stats::ols;
use sweep3d::trace::{generate_program_set, FlopModel};
use sweep3d::ProblemConfig;

/// Result of the protocol comparison on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolStudy {
    /// Machine name.
    pub machine: String,
    /// Rendezvous threshold applied in the rendezvous runs, bytes.
    pub threshold_bytes: usize,
    /// `(pipeline stages, eager seconds, rendezvous seconds)` per array.
    pub points: Vec<(f64, f64, f64)>,
    /// Fill slope under the eager protocol (s/stage).
    pub eager_slope: f64,
    /// Fill slope under the rendezvous protocol (s/stage).
    pub rendezvous_slope: f64,
}

impl ProtocolStudy {
    /// How much steeper rendezvous fill is.
    pub fn slope_ratio(&self) -> f64 {
        self.rendezvous_slope / self.eager_slope
    }
}

/// Run the study: weak scaling over several arrays under both protocols.
pub fn run(
    machine: &MachineSpec,
    threshold_bytes: usize,
    cells_per_pe: usize,
    arrays: &[(usize, usize)],
) -> ProtocolStudy {
    let reference = ProblemConfig::weak_scaling(cells_per_pe, arrays[0].0, arrays[0].1);
    let fm = FlopModel::calibrate(&reference, 10.min(cells_per_pe));
    let rendezvous_machine = machine.clone().with_rendezvous(threshold_bytes);
    let mut points = Vec::with_capacity(arrays.len());
    for &(px, py) in arrays {
        let config = ProblemConfig::weak_scaling(cells_per_pe, px, py);
        let set = generate_program_set(&config, &fm);
        let stages = (3 * (px - 1) + 2 * (py - 1)) as f64;
        let eager = Engine::from_set(machine, set.clone()).run().expect("eager run").makespan();
        let rendezvous =
            Engine::from_set(&rendezvous_machine, set).run().expect("rendezvous run").makespan();
        points.push((stages, eager, rendezvous));
    }
    let eager_fit = ols(&points.iter().map(|p| (p.0, p.1)).collect::<Vec<_>>());
    let rendez_fit = ols(&points.iter().map(|p| (p.0, p.2)).collect::<Vec<_>>());
    ProtocolStudy {
        machine: machine.name.clone(),
        threshold_bytes,
        points,
        eager_slope: eager_fit.slope,
        rendezvous_slope: rendez_fit.slope,
    }
}

/// The default study: Pentium 3 / Myrinet, 4 kB threshold (below the 12 kB
/// face messages), four arrays.
pub fn pentium3_study() -> ProtocolStudy {
    run(&registry::sim::pentium3_myrinet_sim(), 4096, 20, &[(1, 2), (2, 2), (2, 4), (4, 4), (4, 6)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_fill_is_steeper() {
        let study = pentium3_study();
        assert!(study.eager_slope > 0.0, "fill must cost under both protocols");
        assert!(
            study.slope_ratio() > 1.02,
            "rendezvous should steepen the fill: ratio {:.3}",
            study.slope_ratio()
        );
        // Every array is at least as slow under rendezvous.
        for (stages, eager, rendezvous) in &study.points {
            assert!(
                rendezvous >= eager,
                "{stages} stages: rendezvous {rendezvous} < eager {eager}"
            );
        }
    }

    #[test]
    fn high_threshold_restores_eager_behaviour() {
        // With the threshold above every message size, both runs coincide.
        let machine = registry::sim::pentium3_myrinet_sim();
        let study = run(&machine, usize::MAX, 8, &[(1, 2), (2, 2), (2, 3)]);
        for (_, eager, rendezvous) in &study.points {
            assert_eq!(eager, rendezvous);
        }
    }
}
