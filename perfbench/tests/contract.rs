//! The benchmark's own tests: the metric lists match `BENCHMARK.json`,
//! `rationale.json` covers every name, reduced-size variants of every
//! workload emit each metric with its unit, and the traced rebuild
//! reproduces the untraced output bit for bit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use obs::json::Json;
use pace_perfbench::tracer::Tracer;
use pace_perfbench::workloads::{
    Config, DesignSpace, Scale, Speculation8000, ValidateTables, WhatIf8000, Workload,
};
use pace_perfbench::{measure_named, RunOpts, END_TO_END, PER_LAYER, WORKLOADS};

fn doc(file: &str) -> Json {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
}

fn reduced(seed: u64) -> Config {
    Config { seed, workers: 2, scale: Scale::Reduced }
}

fn opts(trace: bool) -> RunOpts {
    RunOpts { seconds: 0.0, trace, exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")) }
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics_and_workloads() {
    let bench = doc("../BENCHMARK.json");
    assert_eq!(names(bench.get("end_to_end").unwrap()), owned(&END_TO_END));
    assert_eq!(names(bench.get("per_layer").unwrap()), owned(&PER_LAYER));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn rationale_covers_every_workload_and_metric() {
    let rationale = doc("rationale.json");
    for w in WORKLOADS {
        let entry = rationale.get("workloads").and_then(|ws| ws.get(w)).expect(w);
        for key in ["why", "loads", "bypasses", "prediction_on_bypassed", "invariant"] {
            assert!(entry.get(key).is_some(), "{w}: missing {key}");
        }
    }
    for (name, _) in END_TO_END {
        assert!(rationale.get("end_to_end").and_then(|m| m.get(name)).is_some(), "{name}");
    }
    for (name, _) in PER_LAYER {
        let entry = rationale.get("per_layer").and_then(|m| m.get(name)).expect(name);
        assert!(entry.get("should_move").and_then(Json::as_str).is_some(), "{name}");
        assert!(entry.get("exact").and_then(Json::as_bool).is_some(), "{name}");
        for w in entry.get("on").and_then(Json::as_arr).expect(name) {
            assert!(WORKLOADS.contains(&w.as_str().unwrap()), "{name}: unknown workload");
        }
    }
}

fn emitted(metrics: &[(&str, f64, &str)]) -> Vec<(String, String)> {
    metrics.iter().map(|&(n, _, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in WORKLOADS {
        let out = measure_named(w, &reduced(3), &opts(false)).expect(w);
        assert!(out.correct(), "{w}: {:?}", out.failures);
        assert_eq!(emitted(&out.metrics), owned(&END_TO_END), "{w}");
        assert!(out.metrics.iter().all(|&(_, v, _)| v > 0.0), "{w}: {:?}", out.metrics);
        assert!(out.attempted > 0 && out.failed == 0);
        Json::parse(&out.result_json()).expect("result line is JSON");
        Json::parse(&out.report).expect("report line is JSON");

        let traced = measure_named(w, &reduced(3), &opts(true)).unwrap();
        assert!(traced.correct(), "{w}: {:?}", traced.failures);
        assert_eq!(emitted(&traced.metrics), owned(&PER_LAYER), "{w}");
    }
}

/// The traced rebuild's output equals an untraced repetition's, unit for
/// unit, and its exact counters repeat from pass to pass.
fn traced_matches_untraced<W: Workload>(w: &W, seed: u64) -> BTreeMap<&'static str, f64> {
    let cfg = reduced(seed);
    let off = Tracer::disabled();
    let prep = w.prepare(&cfg, &off.lane(0));
    let (out, _) = w.run(&cfg, &prep);
    let mut counters = Vec::new();
    for _ in 0..2 {
        let tr = Tracer::enabled();
        let traced = w.traced(&cfg, &tr);
        assert_eq!(w.units(&traced), w.units(&out), "{}: traced rebuild diverged", W::NAME);
        counters.push(tr.finish(std::time::Duration::ZERO).counters);
    }
    let racy = ["sweepsvc.cache.hits", "sweepsvc.cache.misses"];
    for c in &mut counters {
        c.retain(|k, _| !racy.contains(k));
    }
    assert_eq!(counters[0], counters[1], "{}: exact counters must repeat", W::NAME);
    counters.pop().unwrap()
}

#[test]
fn traced_rebuilds_reproduce_the_untraced_outputs_bit_for_bit() {
    for seed in [1, 2] {
        let c = traced_matches_untraced(&ValidateTables, seed);
        assert!(c["cluster_sim.events"] > 0.0 && c["sweep3d.kernel.flops"] > 0.0);
        let c = traced_matches_untraced(&Speculation8000, seed);
        assert_eq!(c["cluster_sim.par.fell_back"], 0.0, "two threads, nonzero lookahead");
        assert!(c["cluster_sim.par.windows"] > 0.0);
        let c = traced_matches_untraced(&WhatIf8000, seed);
        assert_eq!(c["sweepsvc.plan.groups"], 2.0);
        assert_eq!(c["sweepsvc.plan.fork_resumes"], 6.0);
        assert_eq!(c["sweepsvc.plan.fallbacks"], 0.0);
        let c = traced_matches_untraced(&DesignSpace, seed);
        assert!(c["sweepsvc.cache.entries"] > 0.0);
    }
}
