//! Interned metric names for the sweep engine.
//!
//! The names are static, so they are interned here once and shared by
//! the publisher and by tests/tools that read the registry back; a
//! campaign publishes without formatting a name per sweep.
//!
//! Naming convention (see [`crate::metrics`]): names under the `wall.`
//! prefix are wall-clock/schedule-dependent and are excluded from
//! deterministic snapshots. Scenario counters and planner shape counters
//! (`sweep.plan.*`) are pure functions of the spec and stay
//! deterministic.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_names_avoid_the_wall_prefix() {
        for name in [
            SWEEP_SCENARIOS,
            SWEEP_WORKLOAD_SWEEP3D_SCENARIOS,
            SWEEP_WORKLOAD_STENCIL_SCENARIOS,
            SWEEP_WORKLOAD_ALLREDUCE_SCENARIOS,
            SWEEP_PLAN_JOBS,
            SWEEP_PLAN_DEDUPED,
            SWEEP_PLAN_GROUPS,
            SWEEP_PLAN_FORK_RESUMES,
            SWEEP_PLAN_FALLBACKS,
        ] {
            assert!(!name.starts_with("wall."), "{name} must stay deterministic");
        }
        for name in [SWEEP_POOL_WORKERS, SWEEP_WALL_US] {
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
