//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] is the grid the engine evaluates: a list of registry
//! machines × a grid of flop-rate multipliers × a list of labelled
//! workload configurations × a list of predictor backends. Scenarios are
//! addressed by a stable id in a fixed order (machine-major, then
//! problem, then multiplier, then backend); results are always reported
//! in id order, so a sweep's output is a deterministic function of its
//! spec.
//!
//! [`SweepSpec::index`] scales each `(machine, multiplier)` pair once
//! into a shared table and builds each problem's PACE
//! [`ApplicationObject`] once next to it, and [`ScenarioIndex::scenario`]
//! decodes any id into its [`Scenario`] against that table, so the
//! engine's workers decode the ids they claim and borrow their problem's
//! application object. Naive and stored sweeps never build a scenario
//! list; the planner decodes every id of its index into one, and
//! [`SweepSpec::scenarios`] is that same decode.
//!
//! The problem axis holds [`Workload`] trait objects, so one sweep can mix
//! wavefront, stencil and allreduce configurations; scenario identity and
//! planner deduplication key on the workload's `(kind, param_digest)`.
//!
//! The backend axis defaults to `[Backend::Pace]`, so specs that never
//! mention backends expand to exactly the ids they did before the axis
//! existed.

use std::sync::Arc;

use pace_core::workload::Workload;
use pace_core::{ApplicationObject, EvaluationReport, HardwareModel};
use wavefront_models::{unsupported_workload, Backend};

/// One labelled workload configuration of a sweep.
#[derive(Debug, Clone)]
pub struct ProblemPoint {
    /// Display label (e.g. `"4x8"`).
    pub label: String,
    /// The workload under prediction.
    pub workload: Arc<dyn Workload>,
}

impl PartialEq for ProblemPoint {
    fn eq(&self, other: &Self) -> bool {
        // Workload equality is `(kind, param_digest)` — the same identity
        // the planner dedups on.
        self.label == other.label && *self.workload == *other.workload
    }
}

/// The declarative sweep description.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Machine axis: registry machine specs.
    pub machines: Vec<registry::MachineSpec>,
    /// Flop-rate what-if axis: the achieved-rate table of each machine is
    /// scaled by each multiplier (`1.0` means the machine as given).
    pub rate_multipliers: Vec<f64>,
    /// Problem axis.
    pub problems: Vec<ProblemPoint>,
    /// Predictor-backend axis (innermost; defaults to PACE only).
    pub backends: Vec<Backend>,
    /// DES fork point, in rank activations. When set, every
    /// [`Backend::DesSim`] scenario means "pause the machine's *unscaled*
    /// simulation twin after this many activations, swap in the
    /// scenario's (possibly rate-scaled) twin, resume to completion" —
    /// the hardware what-if takes effect mid-run. This gives every
    /// scenario of one (machine, workload) cell an identical simulation
    /// prefix by construction, which the campaign planner shares through
    /// one snapshot fork per cell; the naive path pays the prefix per
    /// scenario. With the identity multiplier the pause-and-swap is
    /// bit-identical to an uninterrupted run (golden-protected in
    /// cluster-sim). `None` (the default) keeps plain cold runs.
    pub des_fork: Option<u64>,
}

impl SweepSpec {
    /// An empty spec with the identity rate multiplier and the PACE
    /// backend.
    pub fn new() -> Self {
        SweepSpec {
            machines: Vec::new(),
            rate_multipliers: vec![1.0],
            problems: Vec::new(),
            backends: vec![Backend::Pace],
            des_fork: None,
        }
    }

    /// Set the DES fork point (activations before the hardware swap) for
    /// `dessim` scenarios; see [`SweepSpec::des_fork`].
    pub fn des_fork(mut self, activations: u64) -> Self {
        self.des_fork = Some(activations);
        self
    }

    /// Add a registry machine to the machine axis.
    pub fn machine(mut self, machine: registry::MachineSpec) -> Self {
        self.machines.push(machine);
        self
    }

    /// Add an analytic-only machine (no DES half) to the machine axis.
    pub fn machine_hw(self, hw: HardwareModel) -> Self {
        let id = hw.name.clone();
        self.machine(registry::MachineSpec { id, analytic: hw, sim: None })
    }

    /// Add a machine by registry name or spec-file path.
    pub fn machine_named(self, name_or_path: &str) -> Result<Self, String> {
        Ok(self.machine(registry::resolve(name_or_path)?))
    }

    /// Replace the rate-multiplier grid.
    pub fn rate_multipliers(mut self, multipliers: Vec<f64>) -> Self {
        assert!(!multipliers.is_empty(), "at least one rate multiplier");
        self.rate_multipliers = multipliers;
        self
    }

    /// Replace the backend axis.
    pub fn backends(mut self, backends: Vec<Backend>) -> Self {
        assert!(!backends.is_empty(), "at least one backend");
        self.backends = backends;
        self
    }

    /// Add a labelled workload configuration.
    pub fn problem(self, label: impl Into<String>, workload: impl Workload + 'static) -> Self {
        self.problem_arc(label, Arc::new(workload))
    }

    /// Add a labelled workload already behind an `Arc` (e.g. parsed from a
    /// spec file).
    pub fn problem_arc(mut self, label: impl Into<String>, workload: Arc<dyn Workload>) -> Self {
        self.problems.push(ProblemPoint { label: label.into(), workload });
        self
    }

    /// Number of scenarios the spec expands to.
    pub fn len(&self) -> usize {
        self.machines.len()
            * self.rate_multipliers.len()
            * self.problems.len()
            * self.backends.len()
    }

    /// Whether the spec expands to no scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check the spec is evaluable: every backend that needs a simulated
    /// machine half must find one on every machine of the spec, and every
    /// backend must model every workload on the problem axis.
    pub fn validate(&self) -> Result<(), String> {
        for &b in &self.backends {
            for p in &self.problems {
                if !b.supports(p.workload.kind()) {
                    return Err(unsupported_workload(b, p.workload.kind()));
                }
            }
            if !b.predictor().needs_sim() {
                continue;
            }
            for m in &self.machines {
                m.sim_or_err().map_err(|e| format!("backend '{}': {e}", b.name()))?;
            }
        }
        Ok(())
    }

    /// The spec's scenarios addressed by id: every `(machine, multiplier)`
    /// pair scaled once into a shared table, and every problem's
    /// [`Workload::application`] built once. The identity multiplier takes
    /// the machine verbatim (bit-for-bit) rather than scaling it by 1.0.
    pub fn index(&self) -> ScenarioIndex<'_> {
        let mut machines = Vec::with_capacity(self.machines.len() * self.rate_multipliers.len());
        for machine in &self.machines {
            for &mult in &self.rate_multipliers {
                let scaled =
                    if mult == 1.0 { machine.clone() } else { machine.with_rate_scaled(mult) };
                machines.push(Arc::new(scaled));
            }
        }
        let applications = self.problems.iter().map(|p| p.workload.application()).collect();
        ScenarioIndex { spec: self, machines, applications }
    }

    /// Every scenario of the spec, in id order ([`ScenarioIndex::scenario`]
    /// over `0..len()`).
    pub fn scenarios(&self) -> Vec<Scenario> {
        let index = self.index();
        (0..self.len()).map(|id| index.scenario(id)).collect()
    }
}

/// A [`SweepSpec`]'s scenarios addressed by id, over one table of scaled
/// machines and one of problem applications (see [`SweepSpec::index`]).
#[derive(Debug, Clone)]
pub struct ScenarioIndex<'s> {
    spec: &'s SweepSpec,
    /// `machines × rate_multipliers`, machine-major: entry
    /// `machine_idx * multipliers + multiplier_idx`.
    machines: Vec<Arc<registry::MachineSpec>>,
    /// One PACE application object per problem, in problem order.
    applications: Vec<ApplicationObject>,
}

impl ScenarioIndex<'_> {
    /// The PACE application object of problem `problem`: exactly
    /// `spec.problems[problem].workload.application()`, built once per
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `problem` is not an index into [`SweepSpec::problems`].
    pub fn application(&self, problem: usize) -> &ApplicationObject {
        &self.applications[problem]
    }

    /// Number of scenarios ([`SweepSpec::len`]).
    pub fn len(&self) -> usize {
        self.spec.len()
    }

    /// Whether the spec has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.spec.is_empty()
    }

    /// The scenario with stable id
    /// `id = ((machine_idx * problems + problem_idx) * multipliers + multiplier_idx) * backends + backend_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= len()` (its machine index is past the table).
    pub fn scenario(&self, id: usize) -> Scenario {
        let spec = self.spec;
        let rates = spec.rate_multipliers.len();
        let backend_idx = id % spec.backends.len();
        let rest = id / spec.backends.len();
        let multiplier = rest % rates;
        let rest = rest / rates;
        let problem = rest % spec.problems.len();
        let machine = rest / spec.problems.len();
        let prob = &spec.problems[problem];
        Scenario {
            id,
            machine,
            problem,
            multiplier,
            backend_idx,
            backend: spec.backends[backend_idx],
            rate_multiplier: spec.rate_multipliers[multiplier],
            label: prob.label.clone(),
            machine_spec: Arc::clone(&self.machines[machine * rates + multiplier]),
            workload: Arc::clone(&prob.workload),
        }
    }
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// One concrete point of the expanded sweep grid.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable scenario id (position in the expansion order).
    pub id: usize,
    /// Index into [`SweepSpec::machines`].
    pub machine: usize,
    /// Index into [`SweepSpec::problems`].
    pub problem: usize,
    /// Index into [`SweepSpec::rate_multipliers`].
    pub multiplier: usize,
    /// Index into [`SweepSpec::backends`].
    pub backend_idx: usize,
    /// The predictor backend evaluating this scenario.
    pub backend: Backend,
    /// The multiplier value.
    pub rate_multiplier: f64,
    /// Problem label.
    pub label: String,
    /// The (already rate-scaled) registry machine to evaluate against,
    /// shared by every scenario of its `(machine, multiplier)` pair.
    pub machine_spec: Arc<registry::MachineSpec>,
    /// The workload under prediction.
    pub workload: Arc<dyn Workload>,
}

impl PartialEq for Scenario {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.machine == other.machine
            && self.problem == other.problem
            && self.multiplier == other.multiplier
            && self.backend_idx == other.backend_idx
            && self.backend == other.backend
            && self.rate_multiplier == other.rate_multiplier
            && self.label == other.label
            && self.machine_spec == other.machine_spec
            && *self.workload == *other.workload
    }
}

impl Scenario {
    /// The scaled analytic hardware model of this scenario.
    pub fn hw(&self) -> &HardwareModel {
        &self.machine_spec.analytic
    }
}

/// One evaluated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario id; results are returned sorted by this.
    pub id: usize,
    /// Machine-axis index.
    pub machine: usize,
    /// Problem-axis index.
    pub problem: usize,
    /// Multiplier-axis index.
    pub multiplier: usize,
    /// The predictor backend that produced this result.
    pub backend: Backend,
    /// The multiplier value.
    pub rate_multiplier: f64,
    /// Problem label.
    pub label: String,
    /// Total processors of the configuration.
    pub pes: usize,
    /// Predicted total runtime, seconds.
    pub total_secs: f64,
    /// Full per-subtask evaluation report.
    pub report: EvaluationReport,
}

impl ScenarioResult {
    /// The result row of `sc` carrying `report`.
    pub(crate) fn new(sc: &Scenario, report: EvaluationReport) -> Self {
        ScenarioResult {
            id: sc.id,
            machine: sc.machine,
            problem: sc.problem,
            multiplier: sc.multiplier,
            backend: sc.backend,
            rate_multiplier: sc.rate_multiplier,
            label: sc.label.clone(),
            pes: sc.workload.pes(),
            total_secs: report.total_secs,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_core::{AllreduceParams, StencilParams, Sweep3dParams};

    fn spec() -> SweepSpec {
        SweepSpec::new()
            .machine(registry::builtin("pentium3-myrinet").unwrap())
            .rate_multipliers(vec![1.0, 1.5])
            .problem("2x2", Sweep3dParams::weak_scaling_50cubed(2, 2))
            .problem("4x4", Sweep3dParams::weak_scaling_50cubed(4, 4))
    }

    #[test]
    fn expansion_order_and_ids_are_stable() {
        let s = spec();
        assert_eq!(s.len(), 4);
        let scenarios = s.scenarios();
        assert_eq!(scenarios.len(), 4);
        for (i, sc) in scenarios.iter().enumerate() {
            assert_eq!(sc.id, i);
            assert_eq!(sc.backend, Backend::Pace);
        }
        // Problem-major, multiplier-minor.
        assert_eq!((scenarios[0].problem, scenarios[0].multiplier), (0, 0));
        assert_eq!((scenarios[1].problem, scenarios[1].multiplier), (0, 1));
        assert_eq!((scenarios[2].problem, scenarios[2].multiplier), (1, 0));
        assert_eq!(scenarios[1].label, "2x2");
        assert_eq!(scenarios[2].label, "4x4");
    }

    #[test]
    fn backend_axis_is_innermost() {
        let s = spec().backends(vec![Backend::Pace, Backend::LogGp]);
        assert_eq!(s.len(), 8);
        let scenarios = s.scenarios();
        assert_eq!(scenarios[0].backend, Backend::Pace);
        assert_eq!(scenarios[1].backend, Backend::LogGp);
        // Same (machine, problem, multiplier) point for both backends.
        assert_eq!(scenarios[0].multiplier, scenarios[1].multiplier);
        assert_eq!(scenarios[0].problem, scenarios[1].problem);
        assert_eq!((scenarios[2].problem, scenarios[2].multiplier), (0, 1));
    }

    #[test]
    fn identity_multiplier_keeps_hardware_verbatim() {
        let s = spec();
        let scenarios = s.scenarios();
        assert_eq!(*scenarios[0].machine_spec, s.machines[0]);
        assert_ne!(scenarios[1].hw().rates, s.machines[0].analytic.rates);
        // The sim half scales too.
        let scaled_sim = scenarios[1].machine_spec.sim.as_ref().unwrap();
        let base_sim = s.machines[0].sim.as_ref().unwrap();
        assert!(scaled_sim.cpu.rate_curve[0].mflops > base_sim.cpu.rate_curve[0].mflops);
    }

    #[test]
    fn one_scaled_machine_per_machine_and_rate() {
        let s = spec()
            .machine(registry::builtin("opteron-gige").unwrap())
            .backends(vec![Backend::Pace, Backend::LogGp]);
        let scenarios = s.scenarios();
        assert_eq!(scenarios.len(), 16);
        for a in &scenarios {
            for b in &scenarios {
                let same_pair = (a.machine, a.multiplier) == (b.machine, b.multiplier);
                assert_eq!(
                    Arc::ptr_eq(&a.machine_spec, &b.machine_spec),
                    same_pair,
                    "scenarios {} and {}",
                    a.id,
                    b.id
                );
            }
        }
    }

    #[test]
    fn machine_named_resolves_and_rejects() {
        let s = SweepSpec::new().machine_named("opteron-gige").unwrap();
        assert_eq!(s.machines[0].analytic.name, "AMD Opteron 2GHz / Gigabit Ethernet");
        assert!(SweepSpec::new().machine_named("not-a-machine").is_err());
    }

    #[test]
    fn validate_checks_sim_availability() {
        let ok = spec().backends(vec![Backend::DesSim]);
        assert!(ok.validate().is_ok());
        let bad = SweepSpec::new()
            .machine_hw(registry::quoted::opteron_myrinet_hypothetical())
            .problem("2x2", Sweep3dParams::weak_scaling_50cubed(2, 2))
            .backends(vec![Backend::DesSim]);
        let err = bad.validate().unwrap_err();
        assert!(err.contains("dessim"), "{err}");
    }

    #[test]
    fn validate_rejects_unsupported_backend_workload_pairs() {
        let bad = SweepSpec::new()
            .machine(registry::builtin("pentium3-myrinet").unwrap())
            .problem("8pe", StencilParams::weak_scaling(4, 2))
            .backends(vec![Backend::Pace, Backend::LogGp]);
        let err = bad.validate().unwrap_err();
        assert_eq!(err, "backend 'loggp' does not model workload 'stencil'");
        // The generic backends accept mixed-workload specs.
        let ok = SweepSpec::new()
            .machine(registry::builtin("pentium3-myrinet").unwrap())
            .problem("8pe", StencilParams::weak_scaling(4, 2))
            .problem("cg16", AllreduceParams::cg_like(16))
            .problem("2x2", Sweep3dParams::weak_scaling_50cubed(2, 2))
            .backends(vec![Backend::Pace, Backend::DesSim]);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn workload_axis_carries_identity() {
        let s = SweepSpec::new()
            .machine(registry::builtin("opteron-gige").unwrap())
            .problem("stencil", StencilParams::weak_scaling(2, 2))
            .problem("cg", AllreduceParams::cg_like(4));
        let scenarios = s.scenarios();
        assert_eq!(scenarios[0].workload.kind(), "stencil");
        assert_eq!(scenarios[1].workload.kind(), "allreduce");
        assert_eq!(scenarios[0].workload.pes(), 4);
        assert_ne!(scenarios[0].workload.param_digest(), scenarios[1].workload.param_digest());
    }

    #[test]
    fn empty_spec() {
        assert!(SweepSpec::new().is_empty());
        assert!(SweepSpec::new().scenarios().is_empty());
    }
}
