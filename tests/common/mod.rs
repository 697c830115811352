//! Test inputs and digests shared by several integration-test files.
// Each test file compiles this module on its own and uses part of it.
#![allow(dead_code)]

use cluster_sim::Fnv1a;
use pace_core::{AllreduceParams, StencilParams, Sweep3dParams};
use sweepsvc::{ScenarioResult, SweepSpec};
use wavefront_models::Backend;

/// A procurement-style analytic design space: four machines (one from a
/// spec file) × six rates including the identity; wavefront problems on
/// every analytic backend (2,160 scenarios, several claims per worker at
/// 8 workers), stencil and allreduce problems on PACE, the analytic
/// backend that models them.
pub fn design_space_specs() -> [SweepSpec; 2] {
    let spec_file = concat!(env!("CARGO_MANIFEST_DIR"), "/assets/machines/candidate-ib.json");
    let mut machines: Vec<registry::MachineSpec> =
        ["pentium3-myrinet", "opteron-gige", "altix-numalink"]
            .iter()
            .map(|n| registry::builtin(n).unwrap())
            .collect();
    machines.push(registry::load_file(spec_file).unwrap());
    let rates = vec![1.0, 1.05, 1.25, 1.5, 2.0, 3.0];
    let arrays =
        [(1, 1), (2, 2), (2, 4), (4, 4), (4, 8), (8, 8), (8, 16), (16, 16), (16, 32), (32, 32)];
    let mut wavefront = SweepSpec::new().backends(Backend::ANALYTIC.to_vec());
    let mut others = SweepSpec::new();
    for m in &machines {
        wavefront = wavefront.machine(m.clone());
        others = others.machine(m.clone());
    }
    wavefront = wavefront.rate_multipliers(rates.clone());
    others = others.rate_multipliers(rates);
    for &(px, py) in &arrays {
        wavefront = wavefront
            .problem(format!("50c-{px}x{py}"), Sweep3dParams::weak_scaling_50cubed(px, py))
            .problem(format!("20m-{px}x{py}"), Sweep3dParams::speculative_20m(px, py))
            .problem(format!("1b-{px}x{py}"), Sweep3dParams::speculative_1b(px, py));
        others = others
            .problem(format!("stencil-{px}x{py}"), StencilParams::weak_scaling(px, py))
            .problem(format!("allreduce-{}", px * py), AllreduceParams::cg_like(px * py));
    }
    [wavefront, others]
}

/// FNV-1a over every result field the campaign golden digests pin: ids,
/// PE counts, rate multipliers and every subtask time, bit for bit.
pub fn campaign_digest(results: &[ScenarioResult]) -> u64 {
    let mut h = Fnv1a::new().u64(results.len() as u64);
    for r in results {
        h = h
            .u64(r.id as u64)
            .u64(r.pes as u64)
            .u64(r.rate_multiplier.to_bits())
            .u64(r.total_secs.to_bits())
            .u64(r.report.iterations as u64)
            .u64(r.report.subtasks.len() as u64);
        for s in &r.report.subtasks {
            h = h.u64(s.secs_per_iteration.to_bits());
        }
    }
    h.finish()
}
