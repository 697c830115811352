//! Campaign-planner acceptance: the planned execution path must
//! reproduce the naive path byte-for-byte.
//!
//! * Golden digest pins for a DES rate-sweep campaign at 512 and 8000
//!   ranks — naive and planned runs must both hit the pinned digest.
//!   Bless new values after an intentional engine change with
//!   `BLESS_GOLDEN=1 cargo test --test sweep_plan -- --nocapture`.
//! * A differential proptest over plan on/off × worker count × cache
//!   capacity × fork point: every combination must produce the same
//!   campaign digest as the serial naive unbounded reference.
//! * LRU determinism: any interleaving of hits/inserts/evictions over
//!   the same key sequence replays to identical counters and values,
//!   and campaigns under eviction pressure (`capacity < grid`) change
//!   no bits while `evictions > 0`.
//! * The chunk-store resume matrix: the 512-rank golden campaign run
//!   through `run_stored` cold, warm and with one chunk deleted hits the
//!   pinned digest every time and recomputes only the missing ranges.

use pace_core::Sweep3dParams;
use proptest::prelude::*;
use sweepsvc::{run_stored, ChunkStore, ScenarioResult, StoreStats, SweepEngine, SweepSpec};
use wavefront_models::Backend;

/// FNV-1a over every result field that matters, same mixing idiom as
/// `RunReport::digest`.
fn campaign_digest(results: &[ScenarioResult]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(results.len() as u64);
    for r in results {
        mix(r.id as u64);
        mix(r.pes as u64);
        mix(r.rate_multiplier.to_bits());
        mix(r.total_secs.to_bits());
        mix(r.report.iterations as u64);
        mix(r.report.subtasks.len() as u64);
        for s in &r.report.subtasks {
            mix(s.secs_per_iteration.to_bits());
        }
    }
    h
}

/// A fig9-style rate what-if campaign on the DES backend: one machine,
/// one problem cell, the rate axis diverging only in compute-event
/// durations — exactly the shape whose prefix the planner shares.
/// `nz` is cut to 20 planes and `iterations` to 1 so the 8000-rank
/// golden stays affordable in debug tier-1 runs.
fn rate_campaign(px: usize, py: usize, fork: u64) -> SweepSpec {
    let mut params = Sweep3dParams::speculative_20m(px, py);
    params.iterations = 1;
    params.nz = 20;
    SweepSpec::new()
        .machine(registry::builtin("opteron-myrinet").unwrap())
        .rate_multipliers(vec![1.0, 1.25, 1.5])
        .problem(format!("{px}x{py}"), params)
        .backends(vec![Backend::DesSim])
        .des_fork(fork)
}

/// `(px, py, fork activations, pinned digest)`. The fork points are half
/// of each fixture's total activation count (2480 and 39720), so the
/// shared prefix covers half the run.
const GOLDEN: [(usize, usize, u64, u64); 2] =
    [(16, 32, 1240, 0x94772907dcdd12f2), (80, 100, 19860, 0xffbd712b17035c6d)];

#[test]
fn golden_rate_sweep_campaigns_pin_naive_and_planned() {
    let bless = std::env::var("BLESS_GOLDEN").is_ok();
    for &(px, py, fork, want) in &GOLDEN {
        let spec = rate_campaign(px, py, fork);
        let naive = SweepEngine::with_workers(1).run(&spec);
        let planned = SweepEngine::with_workers(2).run_planned(&spec);
        assert_eq!(naive.results, planned.results, "{px}x{py}: planned diverged from naive");
        let got = campaign_digest(&naive.results);
        assert_eq!(got, campaign_digest(&planned.results));
        if bless {
            println!("    ({px}, {py}, {fork}, 0x{got:016x}),");
        } else {
            assert_eq!(got, want, "{px}x{py}: campaign digest drifted (0x{got:016x})");
        }
        let p = planned.stats.plan.expect("planned run carries plan stats");
        assert_eq!(p.groups, 1, "{px}x{py}: one shared prefix");
        assert_eq!(p.fork_resumes, 3, "{px}x{py}: every multiplier resumes from it");
        assert_eq!(p.fallbacks, 0);
    }
}

/// Small mixed-backend grid for the differential proptest: cheap enough
/// to evaluate dozens of times, rich enough to exercise dedup (duplicate
/// machine entry), fork groups (DES rate axis) and the analytic cache.
fn mixed_spec(fork: Option<u64>) -> SweepSpec {
    let machine = registry::builtin("opteron-myrinet").unwrap();
    let mut params = Sweep3dParams::speculative_20m(2, 2);
    params.iterations = 2;
    let spec = SweepSpec::new()
        .machine(machine.clone())
        .machine(machine)
        .rate_multipliers(vec![1.0, 1.25, 1.5])
        .problem("2x2", params)
        .backends(vec![Backend::Pace, Backend::DesSim]);
    match fork {
        Some(f) => spec.des_fork(f),
        None => spec,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Plan on/off × workers × cache capacity × fork point: bit-identical
    /// campaigns, always.
    #[test]
    fn planner_workers_and_capacity_never_change_bits(
        workers in 1usize..4,
        capacity_sel in 0usize..4,
        planned in 0usize..2,
        fork_sel in 0usize..3,
    ) {
        let fork = [None, Some(20u64), Some(45)][fork_sel];
        let spec = mixed_spec(fork);
        let reference = SweepEngine::with_workers(1).run(&spec);
        let engine = SweepEngine::with_workers(workers);
        let engine = match capacity_sel {
            0 => engine,
            cap => engine.with_cache_capacity(cap),
        };
        let out = if planned == 1 { engine.run_planned(&spec) } else { engine.run(&spec) };
        prop_assert_eq!(&out.results, &reference.results);
        prop_assert_eq!(campaign_digest(&out.results), campaign_digest(&reference.results));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Replaying one access sequence against the LRU twice — and at a
    /// different capacity — yields the same values every time, and the
    /// same counters for the same capacity.
    #[test]
    fn lru_interleavings_replay_deterministically(
        seq in prop::collection::vec(0usize..10, 1..48),
        cap in 1usize..4,
    ) {
        use pace_core::Sweep3dModel;
        use sweepsvc::{CacheKey, EvalCache};
        let machine = registry::builtin("opteron-myrinet").unwrap();
        // Ten *distinct* keys, so the stand-in value below stays a pure
        // function of its key (the cache's core invariant).
        let mut keys: Vec<CacheKey> = Vec::new();
        'fill: for px in 1usize..20 {
            let app =
                Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(px, px)).application_object();
            for sub in &app.subtasks {
                let key = CacheKey::for_subtask(sub, &machine.analytic);
                if !keys.contains(&key) {
                    keys.push(key);
                }
                if keys.len() == 10 {
                    break 'fill;
                }
            }
        }
        let value = |i: usize| (i as f64 + 0.25, None);
        let replay = |cache: &EvalCache| {
            seq.iter()
                .map(|&i| cache.get_or_insert_with(keys[i].clone(), || value(i)))
                .collect::<Vec<_>>()
        };
        let a = EvalCache::bounded(cap);
        let b = EvalCache::bounded(cap);
        let unbounded = EvalCache::new();
        let va = replay(&a);
        let vb = replay(&b);
        let vu = replay(&unbounded);
        // Same capacity: identical values AND identical hit/miss/eviction
        // interleaving.
        prop_assert_eq!(&va, &vb);
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.shard_stats(), b.shard_stats());
        // Any capacity: identical values (evaluation is pure).
        prop_assert_eq!(&va, &vu);
        prop_assert_eq!(unbounded.stats().evictions, 0);
    }
}

/// Eviction pressure on a full campaign: capacity far below the grid's
/// working set must evict, and must not change a single bit.
#[test]
fn eviction_pressure_changes_no_bits() {
    let spec = SweepSpec::new()
        .machine(registry::builtin("opteron-myrinet").unwrap())
        .rate_multipliers(vec![1.0, 1.1, 1.2, 1.3, 1.4, 1.5])
        .problem("2x2", Sweep3dParams::weak_scaling_50cubed(2, 2))
        .problem("4x4", Sweep3dParams::weak_scaling_50cubed(4, 4))
        .problem("6x6", Sweep3dParams::weak_scaling_50cubed(6, 6));
    let unbounded = SweepEngine::with_workers(2).run(&spec);
    for per_shard in [1, 2] {
        for planned in [false, true] {
            let engine = SweepEngine::with_workers(2).with_cache_capacity(per_shard);
            let out = if planned { engine.run_planned(&spec) } else { engine.run(&spec) };
            assert_eq!(out.results, unbounded.results, "cap={per_shard} planned={planned}");
            assert_eq!(campaign_digest(&out.results), campaign_digest(&unbounded.results),);
            assert!(
                out.stats.cache.evictions > 0,
                "cap={per_shard} planned={planned}: expected eviction pressure, stats {:?}",
                out.stats.cache
            );
        }
    }
    assert_eq!(unbounded.stats.cache.evictions, 0);
}

/// The 512-rank golden campaign through the chunk store: a cold run
/// misses every range, a warm resume evaluates nothing, and deleting or
/// corrupting one chunk recomputes exactly that range; without resume
/// every range runs. Each run is bit-identical to `SweepEngine::run` and
/// hits the pinned digest.
#[test]
fn stored_resume_recomputes_only_missing_ranges() {
    let (px, py, fork, want) = GOLDEN[0];
    let spec = rate_campaign(px, py, fork);
    let reference = SweepEngine::with_workers(1).run(&spec).results;
    assert_eq!(campaign_digest(&reference), want);
    let dir = std::env::temp_dir().join(format!("pace-resume-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ChunkStore::open(&dir).unwrap();
    let engine = SweepEngine::with_workers(2);
    let run = |resume: bool, store_hits: usize| {
        let out = run_stored(&engine, &spec, &store, resume).unwrap();
        let ranges = spec.len().min(sweepsvc::store::STORE_RANGES);
        let store_misses = ranges - store_hits;
        assert_eq!(out.stats, StoreStats { ranges, store_hits, store_misses });
        assert_eq!(out.results, reference, "the store changed bits");
        assert_eq!(campaign_digest(&out.results), want);
        ranges
    };

    let ranges = run(true, 0);
    run(true, ranges);
    let mut chunks: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    assert_eq!(chunks.len(), ranges);
    chunks.sort();
    std::fs::remove_file(&chunks[0]).unwrap();
    run(true, ranges - 1);
    // A chunk that no longer validates is a miss too, and is rewritten.
    std::fs::write(&chunks[1], "{}").unwrap();
    run(true, ranges - 1);
    run(true, ranges);
    // Without resume the store is only written.
    run(false, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
