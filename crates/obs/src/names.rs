//! Interned metric names for the sweep engine.
//!
//! The sweep engine publishes per-shard cache counters on every campaign;
//! building those names with `format!` allocated 16+ fresh strings per
//! sweep. The names are static by construction (the shard count is a
//! compile-time constant), so they are interned here once and shared by
//! the publisher and by tests/tools that read the registry back.
//!
//! Naming convention (see [`crate::metrics`]): names under the `wall.`
//! prefix are wall-clock/schedule-dependent and are excluded from
//! deterministic snapshots. Cache hit/miss/eviction splits depend on
//! worker interleaving and cache capacity, so every per-shard and total
//! cache counter lives under `wall.`. Planner shape counters
//! (`sweep.plan.*`) are pure functions of the spec and stay
//! deterministic.

/// Shard count of the sweep evaluation cache; the per-shard name arrays
/// below are indexed by shard id.
pub const SWEEP_CACHE_SHARDS: usize = 16;

/// Deterministic: scenarios evaluated by the campaign.
pub const SWEEP_SCENARIOS: &str = "sweep.scenarios";
/// Deterministic: scenarios of the wavefront (SWEEP3D) workload.
pub const SWEEP_WORKLOAD_SWEEP3D_SCENARIOS: &str = "sweep.workload.sweep3d.scenarios";
/// Deterministic: scenarios of the halo-exchange stencil workload.
pub const SWEEP_WORKLOAD_STENCIL_SCENARIOS: &str = "sweep.workload.stencil.scenarios";
/// Deterministic: scenarios of the allreduce solver workload.
pub const SWEEP_WORKLOAD_ALLREDUCE_SCENARIOS: &str = "sweep.workload.allreduce.scenarios";

/// The interned per-workload scenario counter for a workload kind string,
/// or `None` for kinds the library does not ship (callers skip publishing
/// rather than allocating a name at sweep time).
pub fn workload_scenarios(kind: &str) -> Option<&'static str> {
    match kind {
        "sweep3d" => Some(SWEEP_WORKLOAD_SWEEP3D_SCENARIOS),
        "stencil" => Some(SWEEP_WORKLOAD_STENCIL_SCENARIOS),
        "allreduce" => Some(SWEEP_WORKLOAD_ALLREDUCE_SCENARIOS),
        _ => None,
    }
}
/// Deterministic: live cache entries after an *unbounded* campaign (a
/// pure function of the key set). Bounded caches publish
/// [`SWEEP_CACHE_ENTRIES_WALL`] instead — under eviction the surviving
/// set depends on worker interleaving.
pub const SWEEP_CACHE_ENTRIES: &str = "sweep.cache.entries";
/// Schedule-dependent twin of [`SWEEP_CACHE_ENTRIES`] for bounded caches.
pub const SWEEP_CACHE_ENTRIES_WALL: &str = "wall.sweep.cache.entries";
/// Per-shard capacity of a bounded cache (0 when unbounded).
pub const SWEEP_CACHE_CAPACITY: &str = "sweep.cache.shard_capacity";

/// Campaign-total cache hits (schedule-dependent under parallelism).
pub const SWEEP_CACHE_HITS: &str = "wall.sweep.cache.hits";
/// Campaign-total cache misses.
pub const SWEEP_CACHE_MISSES: &str = "wall.sweep.cache.misses";
/// Campaign-total LRU evictions.
pub const SWEEP_CACHE_EVICTIONS: &str = "wall.sweep.cache.evictions";

/// Worker count the pool actually used for the campaign.
pub const SWEEP_POOL_WORKERS: &str = "wall.sweep.pool.workers";
/// Campaign wall time in microseconds.
pub const SWEEP_WALL_US: &str = "wall.sweep.wall_us";

/// Planner shape counters — deterministic functions of the `SweepSpec`.
pub const SWEEP_PLAN_JOBS: &str = "sweep.plan.jobs";
/// Scenarios answered by another scenario's evaluation (grid dedup).
pub const SWEEP_PLAN_DEDUPED: &str = "sweep.plan.deduped";
/// Snapshot-fork groups executed (shared prefixes paid once).
pub const SWEEP_PLAN_GROUPS: &str = "sweep.plan.groups";
/// Suffix resumes replayed from forked snapshots.
pub const SWEEP_PLAN_FORK_RESUMES: &str = "sweep.plan.fork_resumes";
/// DES jobs that fell back to standalone evaluation (noise-class
/// incompatible with their group's snapshot).
pub const SWEEP_PLAN_FALLBACKS: &str = "sweep.plan.fallbacks";

/// Per-shard hit counters, indexed by shard id.
pub const SWEEP_CACHE_SHARD_HITS: [&str; SWEEP_CACHE_SHARDS] = [
    "wall.sweep.cache.shard.00.hits",
    "wall.sweep.cache.shard.01.hits",
    "wall.sweep.cache.shard.02.hits",
    "wall.sweep.cache.shard.03.hits",
    "wall.sweep.cache.shard.04.hits",
    "wall.sweep.cache.shard.05.hits",
    "wall.sweep.cache.shard.06.hits",
    "wall.sweep.cache.shard.07.hits",
    "wall.sweep.cache.shard.08.hits",
    "wall.sweep.cache.shard.09.hits",
    "wall.sweep.cache.shard.10.hits",
    "wall.sweep.cache.shard.11.hits",
    "wall.sweep.cache.shard.12.hits",
    "wall.sweep.cache.shard.13.hits",
    "wall.sweep.cache.shard.14.hits",
    "wall.sweep.cache.shard.15.hits",
];

/// Per-shard miss counters, indexed by shard id.
pub const SWEEP_CACHE_SHARD_MISSES: [&str; SWEEP_CACHE_SHARDS] = [
    "wall.sweep.cache.shard.00.misses",
    "wall.sweep.cache.shard.01.misses",
    "wall.sweep.cache.shard.02.misses",
    "wall.sweep.cache.shard.03.misses",
    "wall.sweep.cache.shard.04.misses",
    "wall.sweep.cache.shard.05.misses",
    "wall.sweep.cache.shard.06.misses",
    "wall.sweep.cache.shard.07.misses",
    "wall.sweep.cache.shard.08.misses",
    "wall.sweep.cache.shard.09.misses",
    "wall.sweep.cache.shard.10.misses",
    "wall.sweep.cache.shard.11.misses",
    "wall.sweep.cache.shard.12.misses",
    "wall.sweep.cache.shard.13.misses",
    "wall.sweep.cache.shard.14.misses",
    "wall.sweep.cache.shard.15.misses",
];

/// Per-shard eviction counters, indexed by shard id.
pub const SWEEP_CACHE_SHARD_EVICTIONS: [&str; SWEEP_CACHE_SHARDS] = [
    "wall.sweep.cache.shard.00.evictions",
    "wall.sweep.cache.shard.01.evictions",
    "wall.sweep.cache.shard.02.evictions",
    "wall.sweep.cache.shard.03.evictions",
    "wall.sweep.cache.shard.04.evictions",
    "wall.sweep.cache.shard.05.evictions",
    "wall.sweep.cache.shard.06.evictions",
    "wall.sweep.cache.shard.07.evictions",
    "wall.sweep.cache.shard.08.evictions",
    "wall.sweep.cache.shard.09.evictions",
    "wall.sweep.cache.shard.10.evictions",
    "wall.sweep.cache.shard.11.evictions",
    "wall.sweep.cache.shard.12.evictions",
    "wall.sweep.cache.shard.13.evictions",
    "wall.sweep.cache.shard.14.evictions",
    "wall.sweep.cache.shard.15.evictions",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The interned arrays must match the historical `format!` pattern
    /// exactly — external dashboards key on these strings.
    #[test]
    fn shard_names_match_the_format_pattern() {
        for i in 0..SWEEP_CACHE_SHARDS {
            assert_eq!(SWEEP_CACHE_SHARD_HITS[i], format!("wall.sweep.cache.shard.{i:02}.hits"));
            assert_eq!(
                SWEEP_CACHE_SHARD_MISSES[i],
                format!("wall.sweep.cache.shard.{i:02}.misses")
            );
            assert_eq!(
                SWEEP_CACHE_SHARD_EVICTIONS[i],
                format!("wall.sweep.cache.shard.{i:02}.evictions")
            );
        }
    }

    #[test]
    fn deterministic_names_avoid_the_wall_prefix() {
        for name in [
            SWEEP_SCENARIOS,
            SWEEP_WORKLOAD_SWEEP3D_SCENARIOS,
            SWEEP_WORKLOAD_STENCIL_SCENARIOS,
            SWEEP_WORKLOAD_ALLREDUCE_SCENARIOS,
            SWEEP_CACHE_ENTRIES,
            SWEEP_CACHE_CAPACITY,
            SWEEP_PLAN_JOBS,
            SWEEP_PLAN_DEDUPED,
            SWEEP_PLAN_GROUPS,
            SWEEP_PLAN_FORK_RESUMES,
            SWEEP_PLAN_FALLBACKS,
        ] {
            assert!(!name.starts_with("wall."), "{name} must stay deterministic");
        }
        for name in [
            SWEEP_CACHE_ENTRIES_WALL,
            SWEEP_CACHE_HITS,
            SWEEP_CACHE_MISSES,
            SWEEP_CACHE_EVICTIONS,
            SWEEP_POOL_WORKERS,
            SWEEP_WALL_US,
        ] {
            assert!(name.starts_with("wall."), "{name} must be wall-prefixed");
        }
    }

    #[test]
    fn workload_scenarios_interns_the_shipped_kinds() {
        assert_eq!(workload_scenarios("sweep3d"), Some("sweep.workload.sweep3d.scenarios"));
        assert_eq!(workload_scenarios("stencil"), Some("sweep.workload.stencil.scenarios"));
        assert_eq!(workload_scenarios("allreduce"), Some("sweep.workload.allreduce.scenarios"));
        assert_eq!(workload_scenarios("mystery"), None);
    }
}
