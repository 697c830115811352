//! Campaign-planner acceptance: the planned execution path must
//! reproduce the naive path byte-for-byte.
//!
//! * Golden digest pins for a DES rate-sweep campaign at 512 and 8000
//!   ranks — naive and planned runs must both hit the pinned digest.
//!   Bless new values after an intentional engine change with
//!   `BLESS_GOLDEN=1 cargo test --test sweep_plan -- --nocapture`.
//! * A differential proptest over plan on/off × worker count × fork
//!   point: every combination must produce the same campaign digest as
//!   the serial naive reference.
//! * The chunk-store resume matrix: the 512-rank golden campaign run
//!   through `run_stored` cold, warm and with one chunk deleted hits the
//!   pinned digest every time and recomputes only the missing ranges.

use pace_core::Sweep3dParams;
use proptest::prelude::*;
use sweepsvc::{run_stored, ChunkStore, StoreStats, SweepEngine, SweepSpec};
use wavefront_models::Backend;

mod common;
use common::campaign_digest;

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
    /// Plan on/off × workers × fork point: bit-identical campaigns,
    /// always.
    #[test]
    fn planner_and_workers_never_change_bits(
        workers in 1usize..4,
        planned in 0usize..2,
        fork_sel in 0usize..3,
    ) {
        let fork = [None, Some(20u64), Some(45)][fork_sel];
        let spec = mixed_spec(fork);
        let reference = SweepEngine::with_workers(1).run(&spec);
        let engine = SweepEngine::with_workers(workers);
        let out = if planned == 1 { engine.run_planned(&spec) } else { engine.run(&spec) };
        prop_assert_eq!(&out.results, &reference.results);
        prop_assert_eq!(campaign_digest(&out.results), campaign_digest(&reference.results));
    }
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
