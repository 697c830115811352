//! Canonical simulated machines (the paper's validation systems) — the
//! single source of truth for the discrete-event `cluster-sim` halves that
//! used to be hard-coded in `hwbench`.
//!
//! These [`MachineSpec`]s are this repository's stand-ins for the physical
//! clusters of §5 (see DESIGN.md §2). The CPU rate curves are calibrated so
//! the *simulated* SWEEP3D runtimes land near the paper's measured values
//! for this repository's kernel (whose per-cell-angle operation count is
//! lower than the original Fortran-derived code, so the absolute MFLOPS
//! values differ from the paper's quoted 110/350/225 — the product
//! `rate × flops-per-cell` is the physically meaningful quantity).
//!
//! Machine-specific behaviours the models must predict *through*:
//!
//! * all three machines: working-set-dependent achieved rate + OS noise;
//! * the Altix: NUMA fabric contention growing with active processors
//!   (`smp_contention`), invisible to a 1–2 processor calibration — the
//!   source of the paper's systematic *under*-prediction on that system.

use cluster_sim::cpu::{CpuModel, RatePoint};
use cluster_sim::{MachineSpec, NetworkModel, NoiseModel};

const KB: f64 = 1024.0;
const MB: f64 = 1024.0 * 1024.0;

/// Table 1's machine: 64 dual-Pentium-3 nodes, Myrinet 2000.
pub fn pentium3_myrinet_sim() -> MachineSpec {
    MachineSpec {
        name: "sim: Pentium3 1.4GHz 2-way SMP / Myrinet 2000".into(),
        cpu: CpuModel::with_curve(
            "Pentium 3 1.4GHz (x87)",
            vec![
                RatePoint { bytes: 64.0 * KB, mflops: 74.0 },
                RatePoint { bytes: 1.0 * MB, mflops: 64.0 },
                RatePoint { bytes: 8.0 * MB, mflops: 59.0 },
                RatePoint { bytes: 64.0 * MB, mflops: 56.0 },
            ],
            0.02,
        ),
        network: NetworkModel::from_link(11.0, 250.0, 3.0, 8192.0),
        noise: NoiseModel {
            compute_mean: 0.008,
            compute_spread: 0.005,
            message_jitter_us: 2.0,
            run_bias: 0.045,
        },
        smp_width: 2,
        seed: 0x5EE9_3D01,
        rendezvous_bytes: None,
    }
}

/// Table 2's machine: 16 dual-Opteron nodes, Gigabit Ethernet.
pub fn opteron_gige_sim() -> MachineSpec {
    MachineSpec {
        name: "sim: Opteron 2GHz 2-way SMP / Gigabit Ethernet".into(),
        cpu: CpuModel::with_curve(
            "AMD Opteron 2GHz (x87)",
            vec![
                RatePoint { bytes: 64.0 * KB, mflops: 222.0 },
                RatePoint { bytes: 1.0 * MB, mflops: 192.0 },
                RatePoint { bytes: 8.0 * MB, mflops: 177.0 },
                RatePoint { bytes: 64.0 * MB, mflops: 169.0 },
            ],
            0.02,
        ),
        network: NetworkModel::from_link(30.0, 100.0, 8.0, 16384.0),
        noise: NoiseModel {
            compute_mean: 0.012,
            compute_spread: 0.006,
            message_jitter_us: 4.0,
            run_bias: 0.028,
        },
        smp_width: 2,
        seed: 0x5EE9_3D02,
        rendezvous_bytes: None,
    }
}

/// Table 3's machine: one 56-way SGI Altix, Itanium 2, NUMAlink 4.
pub fn altix_numalink_sim() -> MachineSpec {
    MachineSpec {
        name: "sim: SGI Altix Itanium2 1.6GHz 56-way / NUMAlink 4".into(),
        cpu: CpuModel::with_curve(
            "Itanium 2 1.6GHz (x87 mode)",
            vec![
                RatePoint { bytes: 64.0 * KB, mflops: 140.0 },
                RatePoint { bytes: 1.0 * MB, mflops: 126.0 },
                RatePoint { bytes: 8.0 * MB, mflops: 116.0 },
                RatePoint { bytes: 64.0 * MB, mflops: 110.0 },
            ],
            0.11,
        ),
        network: NetworkModel::from_link(1.3, 1600.0, 1.0, 32768.0),
        noise: NoiseModel {
            compute_mean: 0.004,
            compute_spread: 0.004,
            message_jitter_us: 0.5,
            run_bias: 0.012,
        },
        smp_width: 56,
        seed: 0x5EE9_3D03,
        rendezvous_bytes: None,
    }
}

/// The §6 hypothetical machine substrate: Opteron nodes on Myrinet (used by
/// the interconnect-swap ablation; the paper's Figs. 8–9 speculation itself
/// is evaluated analytically).
pub fn opteron_myrinet_sim() -> MachineSpec {
    let mut spec = opteron_gige_sim();
    spec.name = "sim: Opteron 2GHz 2-way SMP / Myrinet 2000 (hypothetical)".into();
    spec.network = NetworkModel::from_link(11.0, 250.0, 3.0, 8192.0);
    spec.seed = 0x5EE9_3D04;
    spec
}

/// The three validation machines, with the paper table each reproduces.
pub fn validation_machines() -> Vec<(&'static str, MachineSpec)> {
    vec![
        ("Table 1", pentium3_myrinet_sim()),
        ("Table 2", opteron_gige_sim()),
        ("Table 3", altix_numalink_sim()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_ranking_matches_paper() {
        // At the validation working set (~1 MB sweep blocks), Opteron is
        // fastest, then Itanium 2, then Pentium 3 — the paper's ordering.
        let ws = 1 << 20;
        let p3 = pentium3_myrinet_sim().cpu.rate_mflops(ws);
        let op = opteron_gige_sim().cpu.rate_mflops(ws);
        let it = altix_numalink_sim().cpu.rate_mflops(ws);
        assert!(op > it && it > p3, "opteron {op} > itanium {it} > p3 {p3}");
    }

    #[test]
    fn only_altix_has_heavy_smp_contention() {
        assert!(altix_numalink_sim().cpu.smp_contention > 0.1);
        assert!(pentium3_myrinet_sim().cpu.smp_contention < 0.05);
        assert!(opteron_gige_sim().cpu.smp_contention < 0.05);
        assert_eq!(altix_numalink_sim().smp_width, 56);
    }

    #[test]
    fn interconnect_latency_ordering() {
        let b = 12_000;
        let numa = altix_numalink_sim().network.wire_time(b);
        let myri = pentium3_myrinet_sim().network.wire_time(b);
        let gige = opteron_gige_sim().network.wire_time(b);
        assert!(numa < myri && myri < gige);
    }

    #[test]
    fn hypothetical_machine_swaps_network_only() {
        let gige = opteron_gige_sim();
        let myri = opteron_myrinet_sim();
        assert_eq!(gige.cpu, myri.cpu);
        assert!(myri.network.wire_time(12_000) < gige.network.wire_time(12_000));
    }

    #[test]
    fn machines_are_deterministic_specs() {
        assert_eq!(pentium3_myrinet_sim(), pentium3_myrinet_sim());
        assert_eq!(validation_machines().len(), 3);
    }

    #[test]
    fn builtins_carry_these_machines() {
        // The name-resolved builtins hold these very specs, so code on
        // either path sees identical machines.
        let builtin = crate::builtin("pentium3-myrinet").unwrap();
        assert_eq!(builtin.sim.as_ref(), Some(&pentium3_myrinet_sim()));
        let hypothetical = crate::builtin("opteron-myrinet").unwrap();
        assert_eq!(hypothetical.sim.as_ref(), Some(&opteron_myrinet_sim()));
    }
}
