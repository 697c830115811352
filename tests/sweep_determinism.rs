//! Determinism guarantees of the sweep engine and of the evaluation cache
//! the benchmark package still uses.
//!
//! The engine's contract: a sweep's output is a pure function of its spec —
//! worker count and claim order must never show up in the results, and
//! every PACE row, on every execution path, is pace-core's own evaluation
//! of its workload. The addressing contract: the scenario a worker decodes
//! from an id is exactly the one the declarative nested expansion puts at
//! that id. The cache's contract: a hit can only ever be answered for
//! bit-identical inputs. All are exercised here, the last with property
//! tests that perturb single hardware fields by one ULP.

use std::sync::Arc;

use cluster_sim::Fnv1a;
use experiments::speculation::{self, Problem};
use pace_core::{
    AllreduceParams, EvaluationEngine, EvaluationReport, HardwareModel, StencilParams,
    Sweep3dModel, Sweep3dParams,
};
use proptest::prelude::*;
use registry::quoted as machines;
use sweepsvc::{
    run_stored, scenario_result, CacheKey, CachedEngine, ChunkStore, EvalCache, Scenario,
    ScenarioResult, SweepEngine, SweepSpec,
};
use wavefront_models::Backend;

mod common;
use common::design_space_specs;

#[test]
fn sweep_is_bit_identical_for_any_worker_count() {
    let hw = machines::opteron_myrinet_hypothetical();
    for problem in [Problem::TwentyMillion, Problem::OneBillion] {
        let spec = speculation::sweep_spec(problem, &hw);
        let reference = SweepEngine::with_workers(1).run(&spec);
        for workers in [2, 3, 4, 8] {
            let outcome = SweepEngine::with_workers(workers).run(&spec);
            assert_eq!(
                outcome.results, reference.results,
                "{problem:?}: {workers}-worker sweep diverged from the 1-worker run"
            );
        }
    }
}

/// Every PACE row of every execution path (`run`, `run_planned`, a cold
/// `run_stored` and its warm resume) is pace-core's own evaluation of the
/// scenario's workload on its scaled machine, bit for bit, for 1-3
/// workers over wavefront, stencil and allreduce problems and several rate
/// multipliers. The index's per-problem application table is exactly each
/// workload's `application()`.
#[test]
fn pace_rows_are_pace_core_evaluations_on_every_path() {
    let spec = SweepSpec::new()
        .machine(registry::builtin("opteron-gige").unwrap())
        .machine(registry::builtin("pentium3-myrinet").unwrap())
        // A repeated machine gives the planner grid duplicates to fold.
        .machine(registry::builtin("opteron-gige").unwrap())
        .rate_multipliers(vec![1.0, 1.25, 1.5])
        .problem("50c-2x2", Sweep3dParams::weak_scaling_50cubed(2, 2))
        .problem("20m-4x4", Sweep3dParams::speculative_20m(4, 4))
        .problem("stencil-2x3", StencilParams::weak_scaling(2, 3))
        .problem("allreduce-8", AllreduceParams::cg_like(8));
    let index = spec.index();
    for (p, prob) in spec.problems.iter().enumerate() {
        assert_eq!(*index.application(p), prob.workload.application(), "problem {p}");
    }
    let expected: Vec<EvaluationReport> = spec
        .scenarios()
        .iter()
        .map(|sc| EvaluationEngine::new().evaluate(&sc.workload.application(), sc.hw()))
        .collect();
    let kinds: Vec<&str> = spec.problems.iter().map(|p| p.workload.kind()).collect();
    assert_eq!(kinds, ["sweep3d", "sweep3d", "stencil", "allreduce"]);

    let dir = std::env::temp_dir().join(format!("pace-direct-rows-{}", std::process::id()));
    for workers in [1, 2, 3] {
        let _ = std::fs::remove_dir_all(&dir);
        let store = ChunkStore::open(&dir).unwrap();
        let engine = SweepEngine::with_workers(workers);
        let paths = [
            ("run", engine.run(&spec).results),
            ("run_planned", engine.run_planned(&spec).results),
            ("run_stored", run_stored(&engine, &spec, &store, false).unwrap().results),
            ("run_stored --resume", run_stored(&engine, &spec, &store, true).unwrap().results),
        ];
        for (path, results) in &paths {
            assert_eq!(results.len(), expected.len(), "{path}");
            for (r, want) in results.iter().zip(&expected) {
                let at = format!("{path}, {workers} worker(s), scenario {}", r.id);
                assert_eq!(&r.report, want, "{at}");
                assert_eq!(r.total_secs.to_bits(), want.total_secs.to_bits(), "{at}");
                for (got, want) in r.report.subtasks.iter().zip(&want.subtasks) {
                    let (g, w) = (got.secs_per_iteration, want.secs_per_iteration);
                    assert_eq!(g.to_bits(), w.to_bits(), "{at}: subtask {}", got.name);
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_ids_are_stable_and_in_order() {
    let hw = machines::opteron_myrinet_hypothetical();
    let spec = speculation::sweep_spec(Problem::TwentyMillion, &hw);
    // Ids enumerate the spec's declarative expansion order...
    let from_spec: Vec<usize> = spec.scenarios().iter().map(|s| s.id).collect();
    assert_eq!(from_spec, (0..spec.len()).collect::<Vec<_>>());
    // ...and the engine returns results in exactly that order, regardless
    // of which worker finished which scenario first.
    let outcome = SweepEngine::with_workers(4).run(&spec);
    let from_results: Vec<usize> = outcome.results.iter().map(|r| r.id).collect();
    assert_eq!(from_results, from_spec);
}

/// The scenarios of `spec` built the declarative way: one nested loop in
/// id order, each `(machine, multiplier)` pair scaled where it is met
/// (the identity multiplier takes the machine verbatim).
fn oracle_scenarios(spec: &SweepSpec) -> Vec<Scenario> {
    let mut out = Vec::new();
    for (mi, machine) in spec.machines.iter().enumerate() {
        for (pi, prob) in spec.problems.iter().enumerate() {
            for (ri, &mult) in spec.rate_multipliers.iter().enumerate() {
                let scaled = Arc::new(if mult == 1.0 {
                    machine.clone()
                } else {
                    machine.with_rate_scaled(mult)
                });
                for (bi, &backend) in spec.backends.iter().enumerate() {
                    out.push(Scenario {
                        id: out.len(),
                        machine: mi,
                        problem: pi,
                        multiplier: ri,
                        backend_idx: bi,
                        backend,
                        rate_multiplier: mult,
                        label: prob.label.clone(),
                        machine_spec: Arc::clone(&scaled),
                        workload: Arc::clone(&prob.workload),
                    });
                }
            }
        }
    }
    out
}

/// FNV-1a over every field of every result.
fn results_digest(results: &[ScenarioResult]) -> u64 {
    let mut h = Fnv1a::new();
    for r in results {
        for v in [r.id, r.machine, r.problem, r.multiplier, r.pes, r.report.iterations] {
            h = h.u64(v as u64);
        }
        h = h
            .bytes(r.backend.name().as_bytes())
            .bytes(r.label.as_bytes())
            .bytes(r.report.application.as_bytes())
            .bytes(r.report.hardware.as_bytes());
        for x in [r.rate_multiplier, r.total_secs, r.report.total_secs] {
            h = h.u64(x.to_bits());
        }
        for s in &r.report.subtasks {
            h = h.bytes(s.name.as_bytes()).u64(s.secs_per_iteration.to_bits());
            if let Some(p) = &s.pipeline {
                for x in [p.total_secs, p.fill_secs, p.steady_secs, p.comm_secs, p.unit_secs] {
                    h = h.u64(x.to_bits());
                }
                h = h.u64(p.stages as u64);
            }
        }
    }
    h.finish()
}

/// Pinned digest of the design space's 2,640 results, as the nested
/// expansion with one scenario list per spec produced them. Index
/// addressing, chunked claims and the shared scaled-machine table must
/// leave every bit of every result where that expansion put it.
const DESIGN_SPACE_DIGEST: u64 = 0x0ca5_64b1_e39b_bf97;

#[test]
fn index_addressed_design_space_matches_the_nested_oracle() {
    let specs = design_space_specs();
    assert!(specs[0].len() >= 2_000, "{} scenarios", specs[0].len());
    assert!(specs[0].len() > 8 * sweepsvc::CLAIMS_PER_WORKER, "several claims per worker");
    assert_eq!(specs.iter().map(SweepSpec::len).sum::<usize>(), 2_640);
    let oracle: Vec<ScenarioResult> = specs
        .iter()
        .flat_map(|spec| {
            let engine = CachedEngine::new();
            let rows: Vec<_> = oracle_scenarios(spec)
                .iter()
                .map(|sc| scenario_result(&engine, spec, sc))
                .collect();
            rows
        })
        .collect();
    let digest = results_digest(&oracle);
    for workers in [1, 2, 3, 8] {
        let engine = SweepEngine::with_workers(workers);
        let results: Vec<ScenarioResult> =
            specs.iter().flat_map(|spec| engine.run(spec).results).collect();
        assert!(results == oracle, "workers={workers}: results diverged from the nested oracle");
    }
    assert_eq!(digest, DESIGN_SPACE_DIGEST, "design space digest drifted (0x{digest:016x})");
}

#[test]
fn a_shared_cache_does_not_leak_between_machines() {
    // Evaluating problem A on machine M must never contaminate problem A
    // on machine N: run the same params on two machines through one
    // engine, and check both against fresh-engine references.
    let params = Sweep3dParams::weak_scaling_50cubed(4, 4);
    let m = machines::pentium3_myrinet();
    let n = machines::opteron_myrinet_hypothetical();
    let shared = CachedEngine::new();
    let on_m = shared.predict(params, &m).total_secs;
    let on_n = shared.predict(params, &n).total_secs;
    assert_eq!(on_m, CachedEngine::new().predict(params, &m).total_secs);
    assert_eq!(on_n, CachedEngine::new().predict(params, &n).total_secs);
    assert_ne!(on_m, on_n);
}

/// Advance a float to the next representable value — the smallest possible
/// perturbation a hardware field can suffer.
fn one_ulp_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::MIN_POSITIVE
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Perturb one numeric field of the model, selected by `field % 12`.
/// Returns whether the perturbed field belongs to the rate table (`true`)
/// or the communication model (`false`).
fn perturb(hw: &mut HardwareModel, field: usize, rate_idx: usize) -> bool {
    match field % 12 {
        0 => {
            let r = rate_idx % hw.rates.len();
            hw.rates[r].mflops = one_ulp_up(hw.rates[r].mflops);
            true
        }
        1 => {
            let r = rate_idx % hw.rates.len();
            hw.rates[r].cells_per_pe = one_ulp_up(hw.rates[r].cells_per_pe);
            true
        }
        f => {
            // Fields 2..11: one coefficient of one of the three curves.
            let curve = match (f - 2) % 3 {
                0 => &mut hw.comm.send,
                1 => &mut hw.comm.recv,
                _ => &mut hw.comm.pingpong,
            };
            match (f - 2) / 3 {
                0 => curve.a_bytes = one_ulp_up(curve.a_bytes),
                1 => curve.b_us = one_ulp_up(curve.b_us),
                2 => curve.c_us_per_byte = one_ulp_up(curve.c_us_per_byte),
                _ => curve.e_us_per_byte = one_ulp_up(curve.e_us_per_byte),
            }
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over random axis lengths, every id decodes to exactly the scenario
    /// the nested expansion puts there.
    #[test]
    fn decoded_ids_equal_the_nested_oracle(
        machines in 1usize..5,
        problems in 1usize..5,
        rates in 1usize..6,
        backends in 1usize..4,
    ) {
        let mut spec = SweepSpec::new()
            .rate_multipliers((0..rates).map(|r| 1.0 + 0.25 * r as f64).collect())
            .backends(Backend::ANALYTIC[..backends].to_vec());
        for m in 0..machines {
            let name = registry::BUILTIN_NAMES[m % registry::BUILTIN_NAMES.len()];
            spec = spec.machine(registry::builtin(name).unwrap());
        }
        for p in 0..problems {
            spec = spec.problem(format!("p{p}"), Sweep3dParams::weak_scaling_50cubed(p + 1, 2));
        }
        let index = spec.index();
        let oracle = oracle_scenarios(&spec);
        prop_assert_eq!(index.len(), oracle.len());
        for sc in &oracle {
            prop_assert_eq!(&index.scenario(sc.id), sc);
        }
    }

    /// Identical inputs always hit: a second evaluation of the same
    /// application on the same hardware is answered fully from cache and
    /// is bit-identical.
    #[test]
    fn identical_inputs_always_hit(px in 1usize..6, py in 1usize..6, scale in 0.5f64..2.0) {
        let hw = machines::pentium3_myrinet().with_rate_scaled(scale);
        let app = Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(px, py)).application_object();
        let engine = CachedEngine::new();
        let first = engine.evaluate(&app, &hw);
        let hits_before = engine.cache().hits();
        let second = engine.evaluate(&app, &hw);
        prop_assert_eq!(first, second);
        prop_assert_eq!(
            engine.cache().hits() - hits_before,
            app.subtasks.len() as u64,
            "warm pass must answer every subtask from cache"
        );
    }

    /// A one-ULP perturbation of any hardware field the template reads
    /// changes the key, so a populated cache can never serve a false hit;
    /// fields the template does not read leave its key untouched.
    #[test]
    fn perturbed_hardware_never_false_hits(
        px in 1usize..6,
        py in 1usize..6,
        field in 0usize..12,
        rate_idx in 0usize..4,
    ) {
        let hw = machines::pentium3_myrinet();
        let mut poked = hw.clone();
        let is_rate_field = perturb(&mut poked, field, rate_idx);
        let app = Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(px, py)).application_object();
        let cache = EvalCache::new();
        for sub in &app.subtasks {
            let key = CacheKey::for_subtask(sub, &hw);
            cache.get_or_insert_with(key.clone(), || (1.0, None));
            let poked_key = CacheKey::for_subtask(sub, &poked);
            let reads_field = match &sub.template {
                pace_core::TemplateBinding::Pipeline(_) => true,
                // Halo reads the rate table and the comm model alike.
                pace_core::TemplateBinding::Halo(_) => true,
                pace_core::TemplateBinding::Collective(_) => !is_rate_field,
                pace_core::TemplateBinding::Async => is_rate_field,
            };
            if reads_field {
                prop_assert_ne!(&poked_key, &key, "{}: key must see the perturbation", sub.name);
                prop_assert_eq!(cache.peek(&poked_key), None, "{}: false hit", sub.name);
            } else {
                prop_assert_eq!(&poked_key, &key, "{}: unread field changed the key", sub.name);
            }
        }
    }
}
