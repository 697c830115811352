//! Property tests for the chunk store's range partitioner, chunk keys
//! and result codec (the resume matrix lives in `tests/sweep_plan.rs`).

use cluster_sim::Fnv1a;
use proptest::prelude::*;
use sweepsvc::store::{
    partition, result_from_json, result_to_json, results_to_json, spec_digest, ChunkStore, IdRange,
    STORE_RANGES,
};
use sweepsvc::{SweepEngine, SweepSpec};
use wavefront_models::Backend;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For arbitrary scenario counts × range counts: ranges are
    /// contiguous, non-overlapping, cover every id exactly once, and
    /// concatenating them in order *is* the scenario-id order.
    #[test]
    fn partition_is_contiguous_nonoverlapping_and_covering(
        n in 0usize..10_000,
        parts in 0usize..64,
    ) {
        let ranges = partition(n, parts);
        if n == 0 {
            prop_assert!(ranges.is_empty());
            return Ok(());
        }
        prop_assert!(!ranges.is_empty());
        prop_assert!(ranges.len() <= parts.max(1));
        prop_assert!(ranges.len() <= n, "never more ranges than ids");
        // Contiguity + coverage: each range starts where the previous
        // ended, the first at 0, the last at n — so the merged id stream
        // 0..n falls out of walking the ranges in order.
        let mut next = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, next, "ranges must be contiguous");
            prop_assert!(r.start < r.end, "ranges must be non-empty");
            next = r.end;
        }
        prop_assert_eq!(next, n, "ranges must cover every id");
        // Balance: sizes differ by at most one (queue fairness).
        let min = ranges.iter().map(IdRange::len).min().unwrap();
        let max = ranges.iter().map(IdRange::len).max().unwrap();
        prop_assert!(max - min <= 1, "range sizes must differ by at most one");
    }

    /// The same `(n, parts)` always yields the same split — chunk-store
    /// keys depend on it.
    #[test]
    fn partition_is_deterministic(n in 0usize..10_000, parts in 0usize..64) {
        prop_assert_eq!(partition(n, parts), partition(n, parts));
    }

    /// Chunk keys separate campaigns and ranges.
    #[test]
    fn chunk_keys_separate_ranges(
        digest in any::<u64>(),
        start in 0usize..1000,
        len in 1usize..1000,
    ) {
        let range = IdRange { start, end: start + len };
        let key = ChunkStore::chunk_key(digest, range);
        prop_assert_eq!(key, ChunkStore::chunk_key(digest, range));
        let shifted = IdRange { start: start + 1, end: start + len + 1 };
        prop_assert_ne!(key, ChunkStore::chunk_key(digest, shifted));
        prop_assert_ne!(key, ChunkStore::chunk_key(digest ^ 1, range));
    }
}

/// A small mixed-backend grid covering every shipped workload kind and a
/// DES fork point — the result codec must round-trip all of it exactly.
fn mixed_spec() -> SweepSpec {
    use pace_core::{AllreduceParams, StencilParams, Sweep3dParams};
    let mut params = Sweep3dParams::speculative_20m(2, 2);
    params.iterations = 1;
    params.nz = 20;
    SweepSpec::new()
        .machine(registry::builtin("opteron-myrinet").unwrap())
        .rate_multipliers(vec![1.0, 1.25, 1.5])
        .problem("2x2", params)
        .problem("st2x2", StencilParams::weak_scaling(2, 2))
        .problem("cg4", AllreduceParams::cg_like(4))
        .backends(vec![Backend::Pace, Backend::DesSim])
        .des_fork(20)
}

#[test]
fn result_codec_round_trips_bit_for_bit() {
    let results = SweepEngine::with_workers(1).run(&mixed_spec()).results;
    for r in &results {
        let text = result_to_json(r);
        let parsed = obs::Json::parse(&text).unwrap();
        assert_eq!(&result_from_json(&parsed).unwrap(), r);
    }
    // The canonical list serialization is byte-stable (store validation
    // digests depend on it).
    let list = results_to_json(&results);
    assert_eq!(results_to_json(&results), list);
}

/// Store keys are pinned to the values the multi-process shard tier
/// wrote (its `--shard 2` split is `partition(n, 8)`), so stores written
/// before it was retired stay warm. If the spec canonicalisation or the
/// key derivation drifts, every existing store goes cold — this test
/// fails first. `mixed_spec` covers all three workload kinds. The spec
/// document the keys hash is pinned too: its problem line exactly (the
/// workload spec-file forms), the whole text by length and FNV-1a.
#[test]
fn store_keys_stay_byte_identical() {
    let spec = mixed_spec();
    let text = sweepsvc::store::spec_to_json(&spec);
    let problems = text.lines().find(|l| l.starts_with("  \"problems\"")).unwrap();
    assert_eq!(problems, MIXED_PROBLEMS_LINE);
    assert_eq!((text.len(), Fnv1a::of(text.as_bytes())), (3054, 0x964a_f32c_4a8f_455c));
    let digest = spec_digest(&spec);
    assert_eq!(digest, 0xd71a_0767_49b6_6351);
    let ranges = partition(spec.scenarios().len(), STORE_RANGES);
    assert_eq!(ranges.len(), 8);
    assert_eq!(ranges[0], IdRange { start: 0, end: 3 });
    assert_eq!(ChunkStore::chunk_key(digest, ranges[0]), 0x58fa_1b8e_07eb_8822);
    assert_eq!(ChunkStore::chunk_key(digest, ranges[7]), 0x7829_ce87_9537_b443);
}

/// The chunk payload `run_stored` writes and validates: the canonical
/// result list of a `run` of `mixed_spec`, pinned by length and FNV-1a,
/// so stores written before a change to the result rows still load and
/// resume warm.
#[test]
fn chunk_payload_bytes_stay_identical() {
    let results = SweepEngine::with_workers(2).run(&mixed_spec()).results;
    let text = results_to_json(&results);
    assert_eq!((text.len(), Fnv1a::of(text.as_bytes())), (9158, 0x3e38_a426_b5f4_12be));
}

/// The problem line of `mixed_spec`'s spec document.
const MIXED_PROBLEMS_LINE: &str = r#"  "problems": [{"label": "2x2", "workload": "{\n  \"workload\": \"wavefront\",\n  \"params\": {\n    \"px\": 2, \"py\": 2, \"nx\": 5, \"ny\": 5, \"nz\": 20,\n    \"mk\": 10, \"mmi\": 3, \"angles_per_octant\": 6, \"iterations\": 1,\n    \"kernel\": {\n      \"sweep_per_cell_angle\": { \"mfdg\": 8.8, \"afdg\": 12.7, \"dfdg\": 1.3599999999999999, \"ifbr\": 3, \"lfor\": 0.05, \"cmld\": 12 },\n      \"source_per_cell\": { \"mfdg\": 1, \"afdg\": 1, \"dfdg\": 0, \"ifbr\": 0, \"lfor\": 0.01, \"cmld\": 3 },\n      \"flux_err_per_cell\": { \"mfdg\": 0, \"afdg\": 2, \"dfdg\": 1, \"ifbr\": 1, \"lfor\": 0.01, \"cmld\": 2 }\n    }\n  }\n}\n"}, {"label": "st2x2", "workload": "{\n  \"workload\": \"stencil\",\n  \"params\": { \"px\": 2, \"py\": 2, \"nx\": 1000, \"ny\": 1000, \"iterations\": 100, \"flops_per_cell\": 6 }\n}\n"}, {"label": "cg4", "workload": "{\n  \"workload\": \"allreduce\",\n  \"params\": { \"procs\": 4, \"cells_per_pe\": 250000, \"flops_per_cell\": 10, \"reduce_bytes\": 8, \"reductions_per_iteration\": 2, \"iterations\": 200 }\n}\n"}],"#;
