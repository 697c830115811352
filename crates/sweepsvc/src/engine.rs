//! The sweep engine.
//!
//! [`SweepEngine`] hands a [`SweepSpec`]'s scenario ids to the worker
//! pool, whose workers decode each id they claim against the spec's
//! [`ScenarioIndex`], and returns results in scenario-id order plus the
//! run's per-worker throughput counters. Scenarios on the PACE backend
//! evaluate directly through pace-core's [`EvaluationEngine`], on the
//! application object the index built once for their problem; other
//! backends go through [`Backend::predict`](wavefront_models::Backend::predict).
//!
//! [`CachedEngine`] (a memo of [`pace_core::engine::evaluate_subtask`]
//! over the [`EvalCache`]) has no caller in the library: it stays only
//! for the benchmark package's traced rebuilds, and goes with them.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::{Args, Cat, Obs};
use pace_core::engine::evaluate_subtask;
use pace_core::sweep3d_model::Sweep3dPrediction;
use pace_core::{
    ApplicationObject, EvaluationEngine, EvaluationReport, HardwareModel, Sweep3dModel,
    Sweep3dParams,
};

use wavefront_models::Backend;

use crate::cache::{CacheKey, EvalCache};
use crate::plan::{self, ExecPlan, ForkGroup, PlanStats};
use crate::pool::{self, WorkerStats};
use crate::spec::{Scenario, ScenarioIndex, ScenarioRef, ScenarioResult, SweepSpec};

/// A drop-in evaluator with a shared, thread-safe memo of subtask
/// evaluations.
///
/// No library path uses it: a memo hit costs more than the
/// [`evaluate_subtask`] call it saves, so every sweep evaluates PACE
/// directly. It is kept, hidden, only because the benchmark package's
/// traced rebuilds still name it; the benchmark revision that retires
/// those rebuilds deletes it together with [`EvalCache`].
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct CachedEngine {
    cache: Arc<EvalCache>,
}

impl CachedEngine {
    /// An engine with a fresh cache.
    pub fn new() -> Self {
        CachedEngine { cache: Arc::new(EvalCache::new()) }
    }

    /// The underlying cache (for counters).
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Evaluate an application model on a hardware model; equivalent to
    /// [`pace_core::EvaluationEngine::evaluate`] bit-for-bit.
    pub fn evaluate(&self, app: &ApplicationObject, hw: &HardwareModel) -> EvaluationReport {
        EvaluationEngine.evaluate_with(app, hw, |sub| {
            self.cache
                .get_or_insert_with(CacheKey::for_subtask(sub, hw), || evaluate_subtask(sub, hw))
        })
    }

    /// Predict a SWEEP3D configuration, like [`Sweep3dModel::predict`].
    pub fn predict(&self, params: Sweep3dParams, hw: &HardwareModel) -> Sweep3dPrediction {
        let app = Sweep3dModel::new(params).application_object();
        let report = self.evaluate(&app, hw);
        Sweep3dPrediction { total_secs: report.total_secs, report }
    }
}

/// Evaluate one scenario. This is *the* definition of scenario semantics,
/// shared verbatim by the naive path (one call per scenario) and by the
/// planner's standalone jobs, so the two paths are byte-identical by
/// construction. PACE evaluates `app` (the scenario's problem's
/// application object) through pace-core's own loop; DES scenarios under
/// [`SweepSpec::des_fork`] pause the base twin, swap in the scenario's
/// twin and resume (degrading to a cold run when the twin fails the
/// noise-class probe); every other backend prices the scenario through
/// [`Backend::predict`].
pub(crate) fn evaluate_scenario(
    spec: &SweepSpec,
    app: &ApplicationObject,
    sc: ScenarioRef<'_>,
) -> EvaluationReport {
    let report = match (sc.backend, spec.des_fork) {
        (Backend::Pace, _) => return EvaluationEngine.evaluate(app, sc.hw()),
        (Backend::DesSim, Some(fork)) if plan::forks_from_base(spec, sc) => {
            wavefront_models::dessim::predict_forked(
                sc.workload,
                &spec.machines[sc.machine],
                sc.machine_spec,
                fork,
            )
        }
        (other, _) => other.predict(sc.workload, sc.machine_spec),
    };
    report.unwrap_or_else(|e| panic!("backend '{}': {e}", sc.backend.name()))
}

/// Evaluate one scenario into its full [`ScenarioResult`] row, through
/// the same scenario evaluation as [`SweepEngine::run`], on an
/// application object built from the scenario's workload.
///
/// `_engine` is unused: PACE is evaluated directly, never through the
/// memo. The parameter stays only so the benchmark package's callers
/// keep compiling, and goes with [`CachedEngine`].
#[doc(hidden)]
pub fn scenario_result(_engine: &CachedEngine, spec: &SweepSpec, sc: &Scenario) -> ScenarioResult {
    ScenarioResult::new(sc.view(), evaluate_scenario(spec, &sc.workload.application(), sc.view()))
}

/// Evaluate one fork group of a plan: the group's shared prefix runs
/// once, and each member job resumes from it. Returns `(job, report)`
/// pairs in member order.
fn evaluate_fork_group(
    spec: &SweepSpec,
    scenarios: &[Scenario],
    plan: &ExecPlan,
    group: &ForkGroup,
    fork: u64,
) -> Vec<(usize, EvaluationReport)> {
    let proto = |j: usize| &scenarios[plan.jobs[j].proto];
    let machines: Vec<_> = group.members.iter().map(|&j| &*proto(j).machine_spec).collect();
    let reports = wavefront_models::dessim::predict_fork_group(
        &proto(group.members[0]).workload,
        &spec.machines[group.machine],
        &machines,
        fork,
    )
    .unwrap_or_else(|e| panic!("backend 'dessim': {e}"));
    group.members.iter().copied().zip(reports).collect()
}

/// Per-workload scenario tallies of the ids `ids` of `spec`, for the
/// interned `sweep.workload.*` counters (kinds without an interned name
/// are skipped, keeping metric publication allocation-free at sweep
/// time). Counted per problem: problem `p` owns every id whose
/// `id / (multipliers * backends) % problems` is `p`.
fn workload_counts(spec: &SweepSpec, ids: Range<usize>) -> Vec<(&'static str, u64)> {
    let run = spec.rate_multipliers.len() * spec.backends.len();
    let period = run * spec.problems.len();
    if period == 0 {
        return Vec::new();
    }
    // Ids of problem `p` in `0..x`.
    let below = |x: usize, p: usize| {
        let rem = (x % period).saturating_sub(p * run).min(run);
        x / period * run + rem
    };
    let mut counts: Vec<(&'static str, u64)> = Vec::new();
    for (p, prob) in spec.problems.iter().enumerate() {
        let Some(name) = obs::names::workload_scenarios(prob.workload.kind()) else { continue };
        let n = (below(ids.end, p) - below(ids.start, p)) as u64;
        match counts.iter_mut().find(|(c, _)| *c == name) {
            Some((_, c)) => *c += n,
            None if n > 0 => counts.push((name, n)),
            None => {}
        }
    }
    counts
}

/// Counters of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepStats {
    /// Scenarios evaluated.
    pub scenarios: usize,
    /// Worker threads used.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock time of the sweep.
    pub wall: Duration,
    /// Planner shape counters (`None` on the naive path).
    pub plan: Option<PlanStats>,
}

impl SweepStats {
    /// Human-readable one-block summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} scenarios in {:.3} ms on {} worker(s)",
            self.scenarios,
            self.wall.as_secs_f64() * 1e3,
            self.workers.len(),
        );
        if let Some(p) = &self.plan {
            let _ = writeln!(
                out,
                "  plan: {} job(s) ({} deduped), {} fork group(s) sharing {} resume(s), {} fallback(s)",
                p.jobs, p.deduped, p.groups, p.fork_resumes, p.fallbacks,
            );
        }
        for w in &self.workers {
            let _ = writeln!(
                out,
                "  worker {}: {} scenario(s), {:.3} ms busy, {:.0} scenarios/s",
                w.worker,
                w.items,
                w.busy.as_secs_f64() * 1e3,
                w.items_per_sec(),
            );
        }
        out
    }
}

/// Results of one sweep: scenario results in id order + counters.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One result per scenario, sorted by scenario id.
    pub results: Vec<ScenarioResult>,
    /// Run counters.
    pub stats: SweepStats,
}

/// The parallel sweep engine.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    workers: usize,
    obs: Obs,
}

/// Track group used for the sweep engine's wall spans (see [`obs::pids`]).
pub const SWEEP_PID: u32 = obs::pids::SWEEP;

impl SweepEngine {
    /// An engine using all available parallelism.
    pub fn new() -> Self {
        Self::with_workers(pool::available_workers())
    }

    /// An engine with an explicit worker count (1 = serial).
    pub fn with_workers(workers: usize) -> Self {
        SweepEngine { workers: workers.max(1), obs: Obs::disabled() }
    }

    /// Attach a telemetry bundle: scenario wall spans go to its recorder,
    /// scenario, plan and pool counters to its metrics registry.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluate every scenario of the spec. Results come back in
    /// scenario-id order and are bit-identical for any worker count;
    /// telemetry only observes the run, it never alters evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`SweepSpec::validate`] (e.g. the `dessim`
    /// backend against a machine without a simulated half) — call
    /// `validate` first for a recoverable error.
    pub fn run(&self, spec: &SweepSpec) -> SweepOutcome {
        if let Err(e) = spec.validate() {
            panic!("invalid sweep spec: {e}");
        }
        self.run_ids(spec, &spec.index(), 0..spec.len())
    }

    /// Evaluate the scenarios `ids` of the validated `spec` on the pool,
    /// each worker decoding the ids it claims through `index` and
    /// borrowing its problem's application object from it; results come
    /// back in id order. This is the body of [`SweepEngine::run`], and
    /// [`crate::store::run_stored`] hands it the id ranges its store
    /// could not serve.
    pub(crate) fn run_ids(
        &self,
        spec: &SweepSpec,
        index: &ScenarioIndex<'_>,
        ids: Range<usize>,
    ) -> SweepOutcome {
        let first = ids.start;
        let (results, stats) = self.execute(
            ids.len(),
            workload_counts(spec, ids),
            None,
            |i| {
                let sc = index.decode(first + i);
                ScenarioResult::new(sc, evaluate_scenario(spec, index.application(sc.problem), sc))
            },
            |_, r| {
                let args = vec![
                    ("id", r.id.into()),
                    ("pes", r.pes.into()),
                    ("total_secs", r.total_secs.into()),
                ];
                (format!("scenario:{}", r.label), args)
            },
        );
        SweepOutcome { results, stats }
    }

    /// Evaluate every scenario of the spec through the campaign planner
    /// ([`ExecPlan`]): grid-duplicate scenarios fold onto one evaluation,
    /// and DES rate what-ifs under [`SweepSpec::des_fork`] share one
    /// paused simulation prefix per `(machine, problem)` cell, replaying
    /// only the divergent suffixes. Results are byte-identical to
    /// [`SweepEngine::run`] on the same spec — same scenario-id order,
    /// same bits — only wall time and plan counters differ
    /// (digest-gated in `tests/sweep_plan.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`SweepSpec::validate`], like `run`.
    pub fn run_planned(&self, spec: &SweepSpec) -> SweepOutcome {
        if let Err(e) = spec.validate() {
            panic!("invalid sweep spec: {e}");
        }
        let index = spec.index();
        let scenarios: Vec<Scenario> = (0..spec.len()).map(|id| index.scenario(id)).collect();
        let plan = ExecPlan::build(spec, &scenarios);
        let proto = |j: usize| &scenarios[plan.jobs[j].proto];

        // Execution units: one per fork group (the shared prefix runs
        // once inside the unit), one per standalone job. Each unit
        // returns the (job, report) pairs it evaluated.
        enum Unit<'p> {
            Group(&'p ForkGroup, u64),
            Single(usize),
        }
        let units: Vec<Unit<'_>> = plan
            .groups
            .iter()
            .map(|g| Unit::Group(g, plan.fork.expect("fork groups only form under des_fork")))
            .chain(plan.singles.iter().map(|&j| Unit::Single(j)))
            .collect();
        let (evaluated, stats) = self.execute(
            units.len(),
            workload_counts(spec, 0..spec.len()),
            Some(plan.stats()),
            |u| match units[u] {
                Unit::Single(j) => {
                    let sc = proto(j);
                    vec![(j, evaluate_scenario(spec, index.application(sc.problem), sc.view()))]
                }
                Unit::Group(g, fork) => evaluate_fork_group(spec, &scenarios, &plan, g, fork),
            },
            |u, out| match units[u] {
                Unit::Single(j) => {
                    let sc = proto(j);
                    let args =
                        vec![("id", sc.id.into()), ("total_secs", out[0].1.total_secs.into())];
                    (format!("plan:job:{}", sc.label), args)
                }
                Unit::Group(g, fork) => {
                    let args = vec![("members", out.len().into()), ("fork", fork.into())];
                    (format!("plan:fork:{}", proto(g.members[0]).label), args)
                }
            },
        );

        // Scatter: job reports back to scenario-id order. Duplicated
        // grid cells receive a clone of their prototype's report —
        // byte-identical to what they would have computed (evaluation is
        // pure and equal machine specs imply equal report labels).
        let mut job_reports: Vec<Option<EvaluationReport>> = vec![None; plan.jobs.len()];
        for (j, report) in evaluated.into_iter().flatten() {
            job_reports[j] = Some(report);
        }
        let results = scenarios
            .iter()
            .map(|sc| {
                let report = job_reports[plan.assignment[sc.id]].clone();
                ScenarioResult::new(sc.view(), report.expect("every job evaluated"))
            })
            .collect();
        SweepOutcome { results, stats }
    }

    /// The executor body of [`SweepEngine::run`] and
    /// [`SweepEngine::run_planned`]: evaluate units `0..units` on the pool,
    /// record one wall span per unit (`span` names it and picks its args,
    /// only when a recorder is attached), name the worker tracks and
    /// publish the run's counters, `kinds` among them. A unit is one scenario unless `plan` says how
    /// many scenarios the run covers. Outputs keep the units' order.
    fn execute<R: Send>(
        &self,
        units: usize,
        kinds: Vec<(&'static str, u64)>,
        plan: Option<PlanStats>,
        work: impl Fn(usize) -> R + Sync,
        span: impl Fn(usize, &R) -> (String, Args) + Sync,
    ) -> (Vec<R>, SweepStats) {
        let scenarios = plan.map_or(units, |p| p.scenarios);
        let rec = &*self.obs.recorder;
        if rec.is_enabled() {
            rec.set_process_name(SWEEP_PID, "sweepsvc");
        }
        let run = pool::run_indexed(units, self.workers, |worker, unit| {
            if !rec.is_enabled() {
                return work(unit);
            }
            let t0 = Instant::now();
            let out = work(unit);
            let (name, args) = span(unit, &out);
            rec.wall_span(SWEEP_PID, worker as u32, name, Cat::Scenario, t0, args);
            out
        });
        if rec.is_enabled() {
            for w in &run.workers {
                rec.set_thread_name(SWEEP_PID, w.worker as u32, format!("worker {}", w.worker));
            }
        }
        let stats = SweepStats { scenarios, workers: run.workers, wall: run.wall, plan };
        self.publish_metrics(&stats, &kinds);
        (run.results, stats)
    }

    /// Publish the run's counters to the metrics registry. Scenario and
    /// plan-shape values are scheduling-independent; everything timing-
    /// or interleaving-dependent (wall time, worker attribution) carries
    /// the `wall.` prefix so deterministic snapshots exclude it.
    fn publish_metrics(&self, stats: &SweepStats, kinds: &[(&'static str, u64)]) {
        use obs::names as n;
        let m = &self.obs.metrics;
        m.counter_add(n::SWEEP_SCENARIOS, stats.scenarios as u64);
        for &(name, count) in kinds {
            m.counter_add(name, count);
        }
        m.gauge_set(n::SWEEP_WALL_US, stats.wall.as_micros() as f64);
        m.gauge_set(n::SWEEP_POOL_WORKERS, stats.workers.len() as f64);
        if let Some(p) = &stats.plan {
            m.counter_add(n::SWEEP_PLAN_JOBS, p.jobs as u64);
            m.counter_add(n::SWEEP_PLAN_DEDUPED, p.deduped as u64);
            m.counter_add(n::SWEEP_PLAN_GROUPS, p.groups as u64);
            m.counter_add(n::SWEEP_PLAN_FORK_RESUMES, p.fork_resumes);
            m.counter_add(n::SWEEP_PLAN_FALLBACKS, p.fallbacks);
        }
        for w in &stats.workers {
            let base = format!("wall.sweep.pool.worker.{:02}", w.worker);
            m.counter_add(&format!("{base}.items"), w.items);
            m.counter_add(&format!("{base}.steals"), w.steals);
            m.gauge_set(&format!("{base}.busy_us"), w.busy.as_micros() as f64);
        }
    }
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::quoted as machines;

    #[test]
    fn cached_engine_matches_uncached_bit_for_bit() {
        let hw = machines::pentium3_myrinet();
        let engine = CachedEngine::new();
        for (px, py) in [(1, 1), (2, 2), (4, 6), (8, 14)] {
            let app =
                Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(px, py)).application_object();
            let cached = engine.evaluate(&app, &hw);
            let plain = EvaluationEngine::new().evaluate(&app, &hw);
            assert_eq!(cached, plain, "{px}x{py}");
            // Twice through the cache is still identical.
            assert_eq!(engine.evaluate(&app, &hw), plain);
        }
        assert!(engine.cache().hits() > 0, "repeat evaluations must hit");
    }

    #[test]
    fn predict_matches_model_predict() {
        let hw = machines::opteron_myrinet_hypothetical();
        let params = Sweep3dParams::speculative_20m(8, 16);
        let engine = CachedEngine::new();
        let a = engine.predict(params, &hw);
        let b = Sweep3dModel::new(params).predict(&hw);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_results_are_in_id_order_with_counters() {
        let spec = SweepSpec::new()
            .machine_hw(machines::pentium3_myrinet())
            .rate_multipliers(vec![1.0, 1.25])
            .problem("2x2", Sweep3dParams::weak_scaling_50cubed(2, 2))
            .problem("4x4", Sweep3dParams::weak_scaling_50cubed(4, 4))
            .problem("8x8", Sweep3dParams::weak_scaling_50cubed(8, 8));
        let engine = SweepEngine::with_workers(3);
        let out = engine.run(&spec);
        assert_eq!(out.results.len(), 6);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.id, i);
            assert!(r.total_secs > 0.0);
        }
        let processed: u64 = out.stats.workers.iter().map(|w| w.items).sum();
        assert_eq!(processed, 6);
        assert!(out.stats.summary().starts_with("6 scenarios in "), "{}", out.stats.summary());
    }

    #[test]
    fn observed_run_records_scenario_spans_and_metrics() {
        let spec = SweepSpec::new()
            .machine_hw(machines::pentium3_myrinet())
            .rate_multipliers(vec![1.0, 1.25])
            .problem("2x2", Sweep3dParams::weak_scaling_50cubed(2, 2))
            .problem("4x4", Sweep3dParams::weak_scaling_50cubed(4, 4));
        let obs = obs::Obs::enabled();
        let engine = SweepEngine::with_workers(2).with_obs(obs.clone());
        let out = engine.run(&spec);
        // One wall span per scenario, on a worker track of the sweep pid.
        let spans = obs.recorder.wall_spans();
        assert_eq!(spans.len(), out.results.len());
        for s in &spans {
            assert_eq!(s.pid, SWEEP_PID);
            assert_eq!(s.cat, Cat::Scenario);
            assert!(s.name.starts_with("scenario:"), "{}", s.name);
        }
        // Counters match the run's own stats.
        let snap = obs.metrics.snapshot();
        let counter = |name: &str| snap.get(name).and_then(obs::MetricValue::as_counter);
        assert_eq!(counter("sweep.scenarios"), Some(out.results.len() as u64));
        assert_eq!(counter("sweep.workload.sweep3d.scenarios"), Some(out.results.len() as u64));
        assert_eq!(counter("sweep.workload.stencil.scenarios"), None, "no stencil axis here");
        assert!(snap.entries.iter().all(|(name, _)| !name.contains("cache")), "no cache metrics");
        let items: u64 = out.stats.workers.iter().map(|w| w.items).sum();
        let metric_items: u64 = (0..out.stats.workers.len())
            .map(|w| counter(&format!("wall.sweep.pool.worker.{w:02}.items")).unwrap_or(0))
            .sum();
        assert_eq!(metric_items, items);
    }

    #[test]
    fn workload_counts_match_a_walk_over_any_id_range() {
        use pace_core::{AllreduceParams, StencilParams};
        let spec = SweepSpec::new()
            .machine_hw(machines::pentium3_myrinet())
            .machine_hw(machines::opteron_myrinet_hypothetical())
            .rate_multipliers(vec![1.0, 1.5])
            .problem("2x2", Sweep3dParams::weak_scaling_50cubed(2, 2))
            .problem("stencil", StencilParams::weak_scaling(2, 2))
            .problem("4x4", Sweep3dParams::weak_scaling_50cubed(4, 4))
            .problem("cg", AllreduceParams::cg_like(4))
            .backends(vec![Backend::Pace, Backend::DesSim]);
        let scenarios = spec.scenarios();
        for start in 0..=spec.len() {
            for end in start..=spec.len() {
                let mut walked: Vec<(&str, u64)> = Vec::new();
                for sc in &scenarios[start..end] {
                    let name = obs::names::workload_scenarios(sc.workload.kind()).unwrap();
                    match walked.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, c)) => *c += 1,
                        None => walked.push((name, 1)),
                    }
                }
                let mut counted = workload_counts(&spec, start..end);
                counted.sort_unstable();
                walked.sort_unstable();
                assert_eq!(counted, walked, "ids {start}..{end}");
            }
        }
    }

    #[test]
    fn telemetry_does_not_change_results() {
        let spec = SweepSpec::new()
            .machine_hw(machines::pentium3_myrinet())
            .rate_multipliers(vec![1.0, 1.5])
            .problem("4x6", Sweep3dParams::weak_scaling_50cubed(4, 6));
        let plain = SweepEngine::with_workers(2).run(&spec);
        let observed = SweepEngine::with_workers(2).with_obs(obs::Obs::enabled()).run(&spec);
        assert_eq!(plain.results, observed.results);
    }

    #[test]
    fn backend_axis_dispatches_per_scenario() {
        use pace_core::Sweep3dModel;
        use wavefront_models::LogGpModel;
        let machine = registry::builtin("opteron-gige").unwrap();
        let params = Sweep3dParams::weak_scaling_50cubed(2, 3);
        let spec = SweepSpec::new()
            .machine(machine.clone())
            .problem("2x3", params)
            .backends(vec![Backend::Pace, Backend::LogGp]);
        let out = SweepEngine::with_workers(2).run(&spec);
        assert_eq!(out.results.len(), 2);
        assert_eq!(out.results[0].backend, Backend::Pace);
        assert_eq!(out.results[1].backend, Backend::LogGp);
        // Each backend's result matches calling it directly, bit for bit.
        let pace = Sweep3dModel::new(params).predict(&machine.analytic).total_secs;
        let loggp = LogGpModel.predict_secs(&params, &machine.analytic);
        assert_eq!(out.results[0].total_secs.to_bits(), pace.to_bits());
        assert_eq!(out.results[1].total_secs.to_bits(), loggp.to_bits());
    }

    #[test]
    fn planned_run_is_byte_identical_to_naive() {
        // A grid exercising all three planner mechanisms: a duplicated
        // machine (grid dedup), DES rate what-ifs under a fork point
        // (snapshot-prefix sharing) and an analytic backend axis.
        let m = registry::builtin("opteron-myrinet").unwrap();
        let spec = SweepSpec::new()
            .machine(m.clone())
            .machine(m)
            .rate_multipliers(vec![1.0, 1.25, 1.5])
            .problem("2x2", Sweep3dParams::speculative_20m(2, 2))
            .backends(vec![Backend::Pace, Backend::DesSim])
            .des_fork(30);
        for workers in [1, 3] {
            let naive = SweepEngine::with_workers(workers).run(&spec);
            let planned = SweepEngine::with_workers(workers).run_planned(&spec);
            assert_eq!(naive.results, planned.results, "workers={workers}");
            let p = planned.stats.plan.expect("planned runs carry plan stats");
            assert_eq!(p.scenarios, 12);
            assert_eq!(p.deduped, 6, "the duplicated machine halves the jobs");
            assert_eq!(p.groups, 1, "equal bases share one prefix across machine entries");
            assert_eq!(p.fork_resumes, 3);
            assert!(naive.stats.plan.is_none());
        }
    }

    #[test]
    fn one_member_fork_groups_match_naive() {
        // One rate per cell: each group resumes the paused run itself.
        let spec = SweepSpec::new()
            .machine(registry::builtin("opteron-myrinet").unwrap())
            .problem("2x2", Sweep3dParams::speculative_20m(2, 2))
            .problem("2x4", Sweep3dParams::speculative_20m(2, 4))
            .backends(vec![Backend::DesSim])
            .des_fork(30);
        let naive = SweepEngine::with_workers(1).run(&spec);
        let planned = SweepEngine::with_workers(2).run_planned(&spec);
        assert_eq!(naive.results, planned.results);
        let p = planned.stats.plan.unwrap();
        assert_eq!((p.groups, p.fork_resumes), (2, 2));
    }

    #[test]
    fn planned_run_without_fork_still_dedupes() {
        let spec = SweepSpec::new()
            .machine_hw(machines::pentium3_myrinet())
            .machine_hw(machines::pentium3_myrinet())
            .rate_multipliers(vec![1.0, 1.25])
            .problem("4x4", Sweep3dParams::weak_scaling_50cubed(4, 4));
        let naive = SweepEngine::with_workers(2).run(&spec);
        let planned = SweepEngine::with_workers(2).run_planned(&spec);
        assert_eq!(naive.results, planned.results);
        assert_eq!(planned.stats.plan.unwrap().deduped, 2);
    }

    #[test]
    fn planned_metrics_expose_plan_and_pool_counters() {
        let spec = SweepSpec::new()
            .machine_hw(machines::pentium3_myrinet())
            .machine_hw(machines::pentium3_myrinet())
            .rate_multipliers(vec![1.0, 1.25])
            .problem("2x2", Sweep3dParams::weak_scaling_50cubed(2, 2));
        let obs = obs::Obs::enabled();
        let out = SweepEngine::with_workers(2).with_obs(obs.clone()).run_planned(&spec);
        let snap = obs.metrics.snapshot();
        let counter = |name: &str| snap.get(name).and_then(obs::MetricValue::as_counter);
        let gauge = |name: &str| snap.get(name).and_then(obs::MetricValue::as_gauge);
        let p = out.stats.plan.unwrap();
        assert_eq!(counter(obs::names::SWEEP_PLAN_JOBS), Some(p.jobs as u64));
        assert_eq!(counter(obs::names::SWEEP_PLAN_DEDUPED), Some(p.deduped as u64));
        assert_eq!(counter(obs::names::SWEEP_PLAN_GROUPS), Some(0));
        assert_eq!(counter(obs::names::SWEEP_PLAN_FALLBACKS), Some(0));
        assert_eq!(gauge(obs::names::SWEEP_POOL_WORKERS), Some(2.0));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let spec = SweepSpec::new()
            .machine_hw(machines::opteron_myrinet_hypothetical())
            .rate_multipliers(vec![1.0, 1.25, 1.5])
            .problem("a", Sweep3dParams::speculative_20m(4, 4))
            .problem("b", Sweep3dParams::speculative_20m(16, 32));
        let serial = SweepEngine::with_workers(1).run(&spec);
        let parallel = SweepEngine::with_workers(4).run(&spec);
        assert_eq!(serial.results, parallel.results);
    }
}
