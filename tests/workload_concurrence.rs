//! Analytic-vs-DES concurrence for the new workload templates.
//!
//! The registry's analytic rate tables and the simulator's CPU curves are
//! calibrated *independently* (quoted SWEEP3D kernel rates vs curves tuned
//! so the simulated application lands near measurement), so comparing
//! those two halves directly tests calibration, not modelling. Here we
//! instead *derive* an analytic [`HardwareModel`] from each builtin
//! machine's simulated half — same rate curve (re-keyed from working-set
//! bytes to cells, which leaves the log-space interpolation invariant),
//! same three Eq. 3 curves — and require the closed forms and the
//! discrete-event runs of the stencil and allreduce templates to agree on
//! all four paper machines.
//!
//! The analytic side ignores SMP memory-bus contention (the simulator
//! degrades shared-memory ranks by up to `smp_contention`, 11% on the
//! Altix) and message-progress interleaving, so the gate is a relative
//! error of 25% — tight enough to catch a broken lowering or a wrong
//! closed form (which show up as integer-factor divergences), loose
//! enough to absorb the modelled contention.

use cluster_sim::{Engine, NoiseModel};
use pace_core::hardware::AchievedRate;
use pace_core::workload::{Workload, BYTES_PER_CELL};
use pace_core::{
    AllreduceParams, CommCurve, CommModel, EvaluationEngine, HardwareModel, StencilParams,
};

/// The four machines of the paper's study.
const MACHINES: [&str; 4] =
    ["pentium3-myrinet", "opteron-gige", "altix-numalink", "opteron-myrinet"];

/// Map one simulator Eq. 3 curve onto the analytic representation (the
/// five coefficients are the same quantities in both layers).
fn curve(s: &cluster_sim::PiecewiseSegments) -> CommCurve {
    CommCurve {
        a_bytes: s.switch_bytes,
        b_us: s.small_intercept_us,
        c_us_per_byte: s.small_slope_us,
        d_us: s.large_intercept_us,
        e_us_per_byte: s.large_slope_us,
    }
}

/// Derive the analytic half from a simulated machine: the CPU rate curve
/// re-keyed from working-set bytes to cells (`BYTES_PER_CELL` per cell,
/// the same conversion the workload lowerings use), and the network's
/// three curves verbatim.
fn derived_analytic(sim: &cluster_sim::MachineSpec) -> HardwareModel {
    let rates = sim
        .cpu
        .rate_curve
        .iter()
        .map(|p| AchievedRate { cells_per_pe: p.bytes / BYTES_PER_CELL as f64, mflops: p.mflops })
        .collect();
    HardwareModel {
        name: format!("{} (derived)", sim.name),
        rates,
        comm: CommModel {
            send: curve(&sim.network.send),
            recv: curve(&sim.network.recv),
            pingpong: curve(&sim.network.pingpong),
        },
    }
}

/// Run a workload's DES lowering to completion on a noise-free machine
/// and return the makespan in seconds.
fn simulate(workload: &Workload, sim: &cluster_sim::MachineSpec) -> f64 {
    let quiet = sim.clone().with_noise(NoiseModel::none());
    let set = workload.program_set(&quiet).expect("lowering");
    Engine::from_set(&quiet, set).run().expect("clean run").makespan()
}

/// Closed-form prediction of the same workload on the derived analytic
/// twin of the same machine.
fn predict(workload: &Workload, sim: &cluster_sim::MachineSpec) -> f64 {
    EvaluationEngine::new().evaluate(&workload.application(), &derived_analytic(sim)).total_secs
}

fn assert_concurrent(workload: &Workload, label: &str) {
    for name in MACHINES {
        let machine = registry::builtin(name).unwrap();
        let sim = machine.sim.as_ref().unwrap_or_else(|| panic!("{name} has a sim half"));
        let analytic = predict(workload, sim);
        let des = simulate(workload, sim);
        let rel = (analytic - des).abs() / des;
        assert!(
            rel < 0.25,
            "{label} on {name}: analytic {analytic:.4}s vs DES {des:.4}s (rel {rel:.3})"
        );
    }
}

#[test]
fn stencil_analytic_concurs_with_des_on_all_paper_machines() {
    let mut p = StencilParams::weak_scaling(2, 2);
    p.iterations = 10;
    assert_concurrent(&p.into(), "stencil 2x2");
    let mut p = StencilParams::weak_scaling(4, 2);
    p.iterations = 10;
    assert_concurrent(&p.into(), "stencil 4x2");
}

#[test]
fn allreduce_analytic_concurs_with_des_on_all_paper_machines() {
    let mut p = AllreduceParams::cg_like(4);
    p.iterations = 20;
    assert_concurrent(&p.into(), "allreduce 4pe");
    let mut p = AllreduceParams::cg_like(8);
    p.iterations = 20;
    assert_concurrent(&p.into(), "allreduce 8pe");
}

/// Mixed-workload campaigns through the planner stay byte-identical to
/// the naive reference — the workload-digest dedup and per-(machine,
/// workload) fork groups change wall time, never bits.
#[test]
fn planned_mixed_workload_campaign_matches_naive() {
    use sweepsvc::{SweepEngine, SweepSpec};
    use wavefront_models::Backend;
    let mut stencil = StencilParams::weak_scaling(2, 2);
    stencil.iterations = 5;
    let mut cg = AllreduceParams::cg_like(4);
    cg.iterations = 10;
    let m = registry::builtin("opteron-myrinet").unwrap();
    let spec = SweepSpec::new()
        .machine(m.clone())
        .machine(m)
        .rate_multipliers(vec![1.0, 1.25, 1.5])
        .problem("stencil-2x2", stencil)
        .problem("cg-4", cg)
        .backends(vec![Backend::Pace, Backend::DesSim])
        .des_fork(10);
    for workers in [1, 3] {
        let naive = SweepEngine::with_workers(workers).run(&spec);
        let planned = SweepEngine::with_workers(workers).run_planned(&spec);
        assert_eq!(naive.results, planned.results, "workers={workers}");
        let p = planned.stats.plan.expect("planned runs carry plan stats");
        assert_eq!(p.scenarios, 24);
        assert_eq!(p.deduped, 12, "the duplicated machine folds onto one job set");
        assert_eq!(p.groups, 2, "one shared DES prefix per workload cell");
        assert_eq!(p.fork_resumes, 6);
    }
}
