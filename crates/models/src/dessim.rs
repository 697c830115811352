//! The discrete-event backend: predict by *running* the workload's traced
//! program set through the `cluster-sim` engine on the machine's simulated
//! half.
//!
//! Where the analytic backends price a closed form, this backend replays
//! the workload's communication structure rank by rank, so it sees
//! pipeline stalls, rendezvous hand-shakes and OS noise the closed forms
//! average away. It is the most expensive backend (wall time grows with
//! ranks × blocks) and the only one that needs the registry machine's
//! `sim` half. It is workload-generic: every [`Workload`] lowers to a
//! [`cluster_sim::ProgramSet`] that can be simulated.

use cluster_sim::{Engine, Paused};
use pace_core::engine::{EvaluationReport, SubtaskTime};
use pace_core::workload::Workload;

/// Wrap a simulated makespan into the report shape every DES prediction
/// uses. Shared by the cold, forked and planned paths so they are
/// byte-identical by construction.
pub fn report_from_makespan(
    workload: &Workload,
    sim_name: &str,
    total_secs: f64,
) -> EvaluationReport {
    EvaluationReport {
        application: workload.kind().into(),
        hardware: sim_name.to_string(),
        total_secs,
        iterations: workload.iterations(),
        subtasks: vec![SubtaskTime {
            name: "simulated".into(),
            secs_per_iteration: total_secs / workload.iterations().max(1) as f64,
            pipeline: None,
        }],
    }
}

/// Forked DES prediction: run `base`'s simulation twin to `fork_after`
/// activations, swap in `machine`'s twin, resume to completion. This is
/// the per-scenario meaning of `SweepSpec::des_fork`; the campaign
/// planner produces byte-identical results by sharing one paused prefix
/// per (base, workload) cell through [`predict_fork_group`]. When
/// `machine` and `base` are equal the result is bit-identical to a cold
/// run.
pub fn predict_forked(
    workload: &Workload,
    base: &registry::MachineSpec,
    machine: &registry::MachineSpec,
    fork_after: u64,
) -> Result<EvaluationReport, String> {
    let mut reports = predict_fork_group(workload, base, &[machine], fork_after)?;
    Ok(reports.pop().expect("one report per machine"))
}

/// Forked DES predictions sharing one prefix: pause `base`'s twin once
/// after `fork_after` activations, then resume on each of `machines` in
/// order, reporting one prediction per machine. Every machine but the
/// last resumes a snapshot of the paused run; the last resumes the run
/// itself, so a single machine takes no snapshot. Each report is
/// bit-identical to [`predict_forked`] on its machine.
pub fn predict_fork_group(
    workload: &Workload,
    base: &registry::MachineSpec,
    machines: &[&registry::MachineSpec],
    fork_after: u64,
) -> Result<Vec<EvaluationReport>, String> {
    let Some((last, rest)) = machines.split_last() else {
        return Ok(Vec::new());
    };
    let base_sim = base.sim_or_err()?;
    let set = workload.program_set(base_sim)?;
    let paused = Engine::from_set(base_sim, set)
        .run_paused(fork_after)
        .map_err(|e| format!("dessim fork prefix on '{}': {e}", base.id))?;
    let resume = |run: Paused<'_>, machine: &registry::MachineSpec| -> Result<_, String> {
        let sim = machine.sim_or_err()?;
        let report = run
            .resume_with(sim)
            .map_err(|e| format!("dessim fork resume on '{}': {e}", machine.id))?;
        Ok(report_from_makespan(workload, &sim.name, report.makespan()))
    };
    let mut reports =
        rest.iter().map(|m| resume(paused.snapshot(), m)).collect::<Result<Vec<_>, _>>()?;
    reports.push(resume(paused, last)?);
    Ok(reports)
}

/// Cold DES prediction ([`Backend::DesSim`](crate::Backend::DesSim)):
/// run the workload's program set to completion on `machine`'s twin.
pub(crate) fn predict(
    workload: &Workload,
    machine: &registry::MachineSpec,
) -> Result<EvaluationReport, String> {
    let sim = machine.sim_or_err()?;
    let set = workload.program_set(sim)?;
    let report =
        Engine::from_set(sim, set).run().map_err(|e| format!("dessim on '{}': {e}", machine.id))?;
    Ok(report_from_makespan(workload, &sim.name, report.makespan()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_core::Sweep3dParams;

    fn wavefront(px: usize, py: usize) -> Workload {
        Sweep3dParams::speculative_20m(px, py).into()
    }

    #[test]
    fn identity_fork_matches_a_cold_run_bit_for_bit() {
        let machine = registry::builtin("opteron-myrinet").unwrap();
        let p = wavefront(2, 2);
        let cold = predict(&p, &machine).unwrap();
        for fork in [0, 7, u64::MAX] {
            let forked = predict_forked(&p, &machine, &machine, fork).unwrap();
            assert_eq!(
                cold.total_secs.to_bits(),
                forked.total_secs.to_bits(),
                "fork at {fork} must not perturb the identity run"
            );
            assert_eq!(cold, forked);
        }
    }

    #[test]
    fn a_fork_group_matches_one_forked_prediction_per_machine() {
        let machine = registry::builtin("opteron-myrinet").unwrap();
        let twins: Vec<_> = [1.0, 1.25, 1.5].map(|r| machine.with_rate_scaled(r)).into();
        let p = wavefront(2, 2);
        let group = predict_fork_group(&p, &machine, &twins.iter().collect::<Vec<_>>(), 30);
        let one_by_one: Vec<_> =
            twins.iter().map(|m| predict_forked(&p, &machine, m, 30).unwrap()).collect();
        assert_eq!(group.unwrap(), one_by_one);
        assert_eq!(predict_fork_group(&p, &machine, &[], 30).unwrap(), vec![]);
    }

    #[test]
    fn forked_rate_what_if_speeds_up_the_suffix_only() {
        let machine = registry::builtin("opteron-myrinet").unwrap();
        let faster = machine.with_rate_scaled(2.0);
        let p = wavefront(2, 2);
        let cold = predict(&p, &machine).unwrap().total_secs;
        let cold_fast = predict(&p, &faster).unwrap().total_secs;
        let forked = predict_forked(&p, &machine, &faster, 40).unwrap().total_secs;
        assert!(forked < cold, "faster suffix must beat the all-slow run");
        assert!(forked > cold_fast, "slow prefix must cost against the all-fast run");
    }

    #[test]
    fn prediction_is_deterministic_and_scales() {
        let machine = registry::builtin("opteron-myrinet").unwrap();
        let p = wavefront(2, 2);
        let a = predict(&p, &machine).unwrap().total_secs;
        let b = predict(&p, &machine).unwrap().total_secs;
        assert_eq!(a.to_bits(), b.to_bits(), "same seed, same machine ⇒ same bits");
        let larger = predict(&wavefront(6, 6), &machine).unwrap().total_secs;
        assert!(larger > a, "weak scaling grows the makespan: {larger} vs {a}");
    }

    #[test]
    fn identity_fork_is_bit_identical_for_the_new_workloads() {
        let machine = registry::builtin("opteron-myrinet").unwrap();
        let stencil = {
            let mut s = pace_core::StencilParams::weak_scaling(2, 2);
            s.iterations = 3;
            s
        };
        let solver = {
            let mut a = pace_core::AllreduceParams::cg_like(4);
            a.iterations = 5;
            a
        };
        for w in [Workload::from(stencil), Workload::from(solver)] {
            let cold = predict(&w, &machine).unwrap();
            let forked = predict_forked(&w, &machine, &machine, 9).unwrap();
            assert_eq!(cold, forked, "identity fork must be free for '{}'", w.kind());
        }
    }
}
