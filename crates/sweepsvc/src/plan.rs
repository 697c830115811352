//! The campaign execution planner.
//!
//! A naive sweep treats every scenario of the grid as an independent cold
//! evaluation, even though campaign grids repeat work by construction:
//! rate what-ifs revisit identical `(machine, problem)` cells on analytic
//! backends, and DES what-ifs that only change compute-event durations
//! share the *entire* simulation prefix up to the hardware-swap point.
//! [`ExecPlan::build`] turns a [`SweepSpec`] expansion into an execution
//! plan that pays each distinct piece of work once:
//!
//! 1. **Grid dedup** — scenarios are folded onto *jobs*, one per distinct
//!    evaluation input closure `(backend, workload, machine spec[, fork
//!    base])` — workload identity is its `(kind, param digest)` pair.
//!    The first scenario (lowest id) of each equivalence class
//!    is the job's prototype; the others receive a clone of its report.
//!    Evaluation is pure, so the clone is byte-identical to what the
//!    duplicate scenario would have computed itself.
//! 2. **Snapshot-prefix sharing** — when [`SweepSpec::des_fork`] is set,
//!    DES jobs with the same problem parameters and the same *base*
//!    machine twin share one paused prefix: the planner groups them into
//!    a [`ForkGroup`], runs `Engine::run_paused` once per group, and
//!    replays only the divergent suffixes via
//!    `Paused::snapshot().resume_with(...)`. Per-scenario fork semantics
//!    are defined by `des_fork` itself (pause base, swap, resume), so the
//!    naive path performs the identical pause-and-swap independently per
//!    scenario — sharing the prefix changes wall time, never bytes.
//! 3. **Fallbacks** — a job whose twin fails the static noise-class
//!    probe ([`cluster_sim::snapshot_compatible`]) cannot resume from
//!    the base prefix at all, so the fork semantics degrade to a plain
//!    cold run for that scenario — in the naive path and the planned
//!    path alike, keeping them byte-identical. The count is surfaced
//!    (`sweep.plan.fallbacks`) and the probe's error names the
//!    offending noise-class pair, so a silent plan degradation is
//!    debuggable.
//!
//! The plan's shape (jobs, groups, fallbacks) is a deterministic function
//! of the spec — it never depends on worker count or timing — so its
//! counters publish as deterministic metrics.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use cluster_sim::Fnv1a;
use wavefront_models::Backend;

use crate::spec::{Scenario, ScenarioRef, SweepSpec};

/// A job's bucket key: backend, workload `(kind, param digest)`, twin
/// machine digest and, for forked DES jobs, the base machine digest.
type JobKey<'a> = (Backend, (&'a str, u64), u64, Option<u64>);

/// Digest of a machine spec's full field-by-field rendering. Equal specs
/// render equally (short of `0.0` against `-0.0`, which would only cost a
/// missed dedup), so equal inputs always share a bucket.
fn spec_digest(machine: &registry::MachineSpec) -> u64 {
    let mut h = Fnv1a::new();
    write!(h, "{machine:?}").expect("hashing cannot fail");
    h.finish()
}

/// Shape counters of an execution plan (all deterministic functions of
/// the spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Scenarios in the expanded grid.
    pub scenarios: usize,
    /// Distinct evaluations after grid dedup.
    pub jobs: usize,
    /// Scenarios answered by another scenario's evaluation.
    pub deduped: usize,
    /// Snapshot-fork groups (shared prefixes paid once each).
    pub groups: usize,
    /// Suffix resumes replayed from forked snapshots.
    pub fork_resumes: u64,
    /// DES jobs evaluated standalone because their twin failed the
    /// noise-class probe against the group's base machine.
    pub fallbacks: u64,
}

/// One distinct evaluation of the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanJob {
    /// Index (into the scenario expansion) of the prototype scenario —
    /// the lowest-id scenario of the equivalence class; its evaluation
    /// inputs define the job.
    pub proto: usize,
    /// All scenario indices sharing this job's report, ascending
    /// (prototype first).
    pub scenarios: Vec<usize>,
}

/// Jobs sharing one paused simulation prefix: same problem parameters
/// and same base machine twin, all noise-class compatible with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkGroup {
    /// Machine-axis index whose *unscaled* twin runs the prefix.
    pub machine: usize,
    /// Problem-axis index of the shared program set.
    pub problem: usize,
    /// Member job indices, ascending; suffixes resume in this order.
    pub members: Vec<usize>,
}

/// The planned execution of one campaign grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecPlan {
    /// Distinct evaluations, in prototype scenario-id order.
    pub jobs: Vec<PlanJob>,
    /// scenario index → job index answering it.
    pub assignment: Vec<usize>,
    /// Snapshot-fork groups over `jobs`.
    pub groups: Vec<ForkGroup>,
    /// Job indices evaluated standalone (analytic, unforked DES,
    /// fallbacks), ascending.
    pub singles: Vec<usize>,
    /// DES jobs demoted to `singles` by the noise-class probe.
    pub fallbacks: u64,
    /// The spec's fork point (groups are only formed when set).
    pub fork: Option<u64>,
}

impl ExecPlan {
    /// Plan the execution of `scenarios` (the expansion of `spec`).
    ///
    /// Jobs are found through hash buckets keyed on the evaluation
    /// inputs' identity, so dedup is linear in the grid; equality is
    /// confirmed only within a bucket, and buckets hold candidates in
    /// ascending index order, so every scenario still folds onto the
    /// *first* equal job. Fork groups (one per DES problem × base machine
    /// cell, so few) are still found by a scan.
    pub fn build(spec: &SweepSpec, scenarios: &[Scenario]) -> ExecPlan {
        let fork = spec.des_fork;
        // Workload identity per problem-axis entry, computed once up
        // front: `param_digest` folds the full parameter struct on every
        // call.
        let problem_identity: Vec<(&str, u64)> =
            spec.problems.iter().map(|p| (p.workload.kind(), p.workload.param_digest())).collect();
        // Base-machine digests, read only by forked DES jobs.
        let base_digest: Vec<u64> = match fork {
            Some(_) => spec.machines.iter().map(spec_digest).collect(),
            None => Vec::new(),
        };
        // Scenarios of one (machine, multiplier) cell share one scaled
        // spec, so each distinct spec is digested once.
        let mut twin_digest: HashMap<*const registry::MachineSpec, u64> = HashMap::new();
        let forked = |sc: &Scenario| sc.backend == Backend::DesSim && fork.is_some();

        // 1. Grid dedup: fold each scenario onto the first earlier
        // scenario with the same evaluation input closure. Every
        // backend is a pure function of (params, machine spec); a
        // forked DES evaluation additionally reads the *base* machine
        // that runs the prefix.
        let mut jobs: Vec<PlanJob> = Vec::new();
        let mut assignment: Vec<usize> = Vec::with_capacity(scenarios.len());
        let mut buckets: HashMap<JobKey, Vec<usize>> = HashMap::new();
        for (i, sc) in scenarios.iter().enumerate() {
            let twin = *twin_digest
                .entry(Arc::as_ptr(&sc.machine_spec))
                .or_insert_with(|| spec_digest(&sc.machine_spec));
            let base = forked(sc).then(|| base_digest[sc.machine]);
            let key = (sc.backend, problem_identity[sc.problem], twin, base);
            let bucket = buckets.entry(key).or_default();
            let existing = bucket.iter().copied().find(|&j| {
                let p = &scenarios[jobs[j].proto];
                p.machine_spec == sc.machine_spec
                    && (!forked(sc) || spec.machines[p.machine] == spec.machines[sc.machine])
            });
            match existing {
                Some(j) => {
                    jobs[j].scenarios.push(i);
                    assignment.push(j);
                }
                None => {
                    bucket.push(jobs.len());
                    assignment.push(jobs.len());
                    jobs.push(PlanJob { proto: i, scenarios: vec![i] });
                }
            }
        }

        // 2. Fork groups over the deduped jobs (DES backend only, and
        // only when the spec defines fork semantics).
        let mut groups: Vec<ForkGroup> = Vec::new();
        let mut singles: Vec<usize> = Vec::new();
        let mut fallbacks = 0u64;
        for (j, job) in jobs.iter().enumerate() {
            let sc = &scenarios[job.proto];
            if !forked(sc) {
                singles.push(j);
                continue;
            }
            // 3. Static noise-class probe: an incompatible twin cannot
            // resume from the base prefix; evaluate it standalone.
            if !forks_from_base(spec, sc.view()) {
                fallbacks += 1;
                singles.push(j);
                continue;
            }
            let slot = groups.iter_mut().find(|g| {
                let gsc = &scenarios[jobs[g.members[0]].proto];
                problem_identity[gsc.problem] == problem_identity[sc.problem]
                    && spec.machines[gsc.machine] == spec.machines[sc.machine]
            });
            match slot {
                Some(g) => g.members.push(j),
                None => groups.push(ForkGroup {
                    machine: sc.machine,
                    problem: sc.problem,
                    members: vec![j],
                }),
            }
        }

        ExecPlan { jobs, assignment, groups, singles, fallbacks, fork }
    }

    /// The plan's shape counters.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            scenarios: self.assignment.len(),
            jobs: self.jobs.len(),
            deduped: self.assignment.len() - self.jobs.len(),
            groups: self.groups.len(),
            fork_resumes: self.groups.iter().map(|g| g.members.len() as u64).sum(),
            fallbacks: self.fallbacks,
        }
    }
}

/// Whether `sc`'s twin can resume a prefix paused on its base machine's
/// twin: the static noise-class probe behind both the planner's
/// fallbacks and the naive path's cold-run degradation.
pub(crate) fn forks_from_base(spec: &SweepSpec, sc: ScenarioRef<'_>) -> bool {
    match (spec.machines[sc.machine].sim_or_err(), sc.machine_spec.sim_or_err()) {
        (Ok(base), Ok(twin)) => cluster_sim::snapshot_compatible(base, twin).is_ok(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_core::Sweep3dParams;
    use registry::quoted as machines;
    use std::sync::Arc;

    fn des_machine() -> registry::MachineSpec {
        registry::builtin("opteron-myrinet").unwrap()
    }

    #[test]
    fn duplicate_grid_cells_fold_onto_one_job() {
        let m = machines::pentium3_myrinet();
        // The same machine listed twice: every cell is evaluated once.
        let spec = SweepSpec::new()
            .machine_hw(m.clone())
            .machine_hw(m)
            .rate_multipliers(vec![1.0, 1.25])
            .problem("2x2", Sweep3dParams::weak_scaling_50cubed(2, 2));
        let scenarios = spec.scenarios();
        let plan = ExecPlan::build(&spec, &scenarios);
        let stats = plan.stats();
        assert_eq!(stats.scenarios, 4);
        assert_eq!(stats.jobs, 2, "one job per distinct (machine, multiplier)");
        assert_eq!(stats.deduped, 2);
        assert_eq!(plan.groups.len(), 0, "analytic jobs never fork");
        assert_eq!(plan.singles.len(), 2);
        // Every scenario maps to a job whose prototype shares its inputs.
        for (i, &j) in plan.assignment.iter().enumerate() {
            let p = &scenarios[plan.jobs[j].proto];
            assert_eq!(p.machine_spec, scenarios[i].machine_spec);
            assert!(plan.jobs[j].scenarios.contains(&i));
        }
    }

    #[test]
    fn rate_what_ifs_share_one_fork_group_per_cell() {
        let spec = SweepSpec::new()
            .machine(des_machine())
            .rate_multipliers(vec![1.0, 1.25, 1.5])
            .problem("2x2", Sweep3dParams::speculative_20m(2, 2))
            .problem("2x4", Sweep3dParams::speculative_20m(2, 4))
            .backends(vec![Backend::DesSim])
            .des_fork(50);
        let scenarios = spec.scenarios();
        let plan = ExecPlan::build(&spec, &scenarios);
        let stats = plan.stats();
        assert_eq!(stats.jobs, 6, "no duplicates in this grid");
        assert_eq!(stats.groups, 2, "one shared prefix per (machine, problem) cell");
        assert_eq!(stats.fork_resumes, 6);
        assert_eq!(stats.fallbacks, 0);
        assert!(plan.singles.is_empty());
        for g in &plan.groups {
            assert_eq!(g.members.len(), 3, "all three multipliers share the prefix");
        }
    }

    #[test]
    fn unforked_des_jobs_stay_standalone() {
        let spec = SweepSpec::new()
            .machine(des_machine())
            .rate_multipliers(vec![1.0, 1.5])
            .problem("2x2", Sweep3dParams::speculative_20m(2, 2))
            .backends(vec![Backend::DesSim]);
        let scenarios = spec.scenarios();
        let plan = ExecPlan::build(&spec, &scenarios);
        assert!(plan.fork.is_none());
        assert_eq!(plan.groups.len(), 0);
        assert_eq!(plan.singles.len(), 2);
    }

    #[test]
    fn noise_incompatible_twins_fall_back_to_standalone_jobs() {
        let spec = SweepSpec::new()
            .machine(des_machine())
            .rate_multipliers(vec![1.0, 1.5])
            .problem("2x2", Sweep3dParams::speculative_20m(2, 2))
            .backends(vec![Backend::DesSim])
            .des_fork(25);
        let mut scenarios = spec.scenarios();
        // Hand the ×1.5 scenario a noise-toggled twin: the rate axis can
        // never produce this, but the planner must not assume so.
        let sim = Arc::make_mut(&mut scenarios[1].machine_spec).sim.as_mut().unwrap();
        sim.noise = if sim.noise.is_none() {
            cluster_sim::NoiseModel::commodity()
        } else {
            cluster_sim::NoiseModel::none()
        };
        let plan = ExecPlan::build(&spec, &scenarios);
        let stats = plan.stats();
        assert_eq!(stats.fallbacks, 1, "the toggled twin cannot share the prefix");
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.fork_resumes, 1, "only the untoggled twin resumes");
        assert_eq!(plan.singles, vec![1]);
    }

    /// The pairwise dedup scan the hash buckets replaced: each scenario
    /// against every earlier job. Returns `(jobs, assignment)`.
    fn scan_dedup(spec: &SweepSpec, scenarios: &[Scenario]) -> (Vec<PlanJob>, Vec<usize>) {
        let identity = |p: usize| {
            let w = &spec.problems[p].workload;
            (w.kind(), w.param_digest())
        };
        let mut jobs: Vec<PlanJob> = Vec::new();
        let mut assignment = Vec::new();
        for (i, sc) in scenarios.iter().enumerate() {
            let existing = jobs.iter().position(|job| {
                let p = &scenarios[job.proto];
                p.backend == sc.backend
                    && identity(p.problem) == identity(sc.problem)
                    && p.machine_spec == sc.machine_spec
                    && (sc.backend != Backend::DesSim
                        || spec.des_fork.is_none()
                        || spec.machines[p.machine] == spec.machines[sc.machine])
            });
            match existing {
                Some(j) => {
                    jobs[j].scenarios.push(i);
                    assignment.push(j);
                }
                None => {
                    assignment.push(jobs.len());
                    jobs.push(PlanJob { proto: i, scenarios: vec![i] });
                }
            }
        }
        (jobs, assignment)
    }

    #[test]
    fn hashed_plan_equals_the_pairwise_scan_on_duplicate_machines() {
        let a = des_machine();
        let b = registry::builtin("pentium3-myrinet").unwrap();
        // `a` again under another id: a distinct base machine whose twins
        // equal none of `a`'s, since the id is part of the spec.
        let renamed = registry::MachineSpec { id: "a-again".into(), ..a.clone() };
        for fork in [None, Some(30)] {
            let mut spec = SweepSpec::new()
                .machine(a.clone())
                .machine(b.clone())
                .machine(a.clone())
                .machine(renamed.clone())
                .machine(b.clone())
                .machine_hw(machines::pentium3_myrinet())
                .machine_hw(machines::pentium3_myrinet())
                .rate_multipliers(vec![1.0, 1.25, 1.0, 1.5])
                .problem("2x2", Sweep3dParams::speculative_20m(2, 2))
                .problem("2x2-again", Sweep3dParams::speculative_20m(2, 2))
                .problem("1x2", Sweep3dParams::speculative_20m(1, 2))
                .backends(vec![Backend::Pace, Backend::DesSim]);
            spec.des_fork = fork;
            let mut scenarios = spec.scenarios();
            // One noise-toggled twin: a spec outside the shared table of
            // scaled machines, digested on its own.
            let sim = Arc::make_mut(&mut scenarios[1].machine_spec).sim.as_mut().unwrap();
            sim.noise = cluster_sim::NoiseModel::none();
            let plan = ExecPlan::build(&spec, &scenarios);
            assert_eq!((plan.jobs.clone(), plan.assignment.clone()), scan_dedup(&spec, &scenarios));
            assert!(plan.stats().deduped > scenarios.len() / 2, "fork {fork:?}");
        }
    }

    #[test]
    fn plan_shape_is_independent_of_anything_but_the_spec() {
        let spec = SweepSpec::new()
            .machine(des_machine())
            .rate_multipliers(vec![1.0, 1.25, 1.5])
            .problem("2x2", Sweep3dParams::speculative_20m(2, 2))
            .backends(vec![Backend::Pace, Backend::DesSim])
            .des_fork(10);
        let scenarios = spec.scenarios();
        assert_eq!(ExecPlan::build(&spec, &scenarios), ExecPlan::build(&spec, &scenarios));
    }
}
