//! # sweepsvc — the parallel scenario-sweep engine
//!
//! The paper's workflow is *many evaluations of one cheap model*: every
//! validation table row, every point of the Fig. 8/9 speculation curves,
//! every procurement what-if is an independent `(hardware model,
//! problem configuration)` evaluation. This crate turns that embarrassing
//! parallelism into a first-class batch layer:
//!
//! * [`SweepSpec`] — a declarative sweep: registry machines × flop-rate
//!   multipliers × problem configurations × predictor backends, whose
//!   scenarios are addressed by stable ids and decoded on demand through
//!   a [`ScenarioIndex`] that scales each (machine, multiplier) pair once
//!   ([`spec`]);
//! * [`SweepEngine`] — hands scenario ids to a pool of scoped threads
//!   that claim them in chunks from one shared cursor, decode and
//!   evaluate them, and collects results **in scenario-id order**,
//!   bit-identical for any worker count ([`engine`], [`pool`]);
//! * [`EvalCache`] — a sharded, `parking_lot`-guarded memo of subtask
//!   evaluations keyed on canonicalised model/hardware inputs, shared by
//!   all workers, with hit/miss counters; [`CachedEngine`] runs
//!   pace-core's evaluation loop through it ([`cache`]);
//! * [`ExecPlan`] — the campaign execution planner: grid-level dedup of
//!   bit-identical evaluations plus snapshot-prefix sharing for DES rate
//!   what-ifs, executed by [`SweepEngine::run_planned`] with
//!   byte-identical results to the naive path ([`plan`]);
//! * [`replicate_set_threaded`] / [`replicate_set_attributed`] — the
//!   parallel-replication runner for `cluster-sim` measurement campaigns:
//!   N seeds of one machine, merged into one statistics summary, the
//!   second also carrying each run's critical-path rollup ([`replicate`]);
//! * [`run_stored`] — resumable campaigns: the scenario ids split into
//!   contiguous ranges, each persisted as a content-addressed chunk, so a
//!   rerun evaluates only missing or corrupt ranges, bit-identical to
//!   [`SweepEngine::run`] ([`store`]).
//!
//! ```
//! use pace_core::Sweep3dParams;
//! use sweepsvc::{SweepEngine, SweepSpec};
//!
//! let spec = SweepSpec::new()
//!     .machine_named("opteron-myrinet")
//!     .unwrap()
//!     .rate_multipliers(vec![1.0, 1.25, 1.5])
//!     .problem("2x2", Sweep3dParams::speculative_20m(2, 2))
//!     .problem("8x8", Sweep3dParams::speculative_20m(8, 8));
//! let outcome = SweepEngine::new().run(&spec);
//! assert_eq!(outcome.results.len(), 6);
//! assert!(outcome.stats.cache.hits > 0); // the collective is shared
//! ```

pub mod cache;
pub mod engine;
pub mod plan;
pub mod pool;
pub mod replicate;
pub mod spec;
pub mod store;

pub use cache::{CacheKey, CacheStats, EvalCache};
pub use engine::{scenario_result, CachedEngine, SweepEngine, SweepOutcome, SweepStats, SWEEP_PID};
pub use plan::{ExecPlan, ForkGroup, PlanJob, PlanStats};
pub use pool::{
    available_workers, nested_plan, run_ordered, run_ordered_with_worker, sim_threads_override,
    PoolRun, WorkerStats, CLAIMS_PER_WORKER,
};
pub use replicate::{
    replicate_set_attributed, replicate_set_threaded, Replication, ReplicationSummary,
    REPLICATE_PID,
};
pub use spec::{ProblemPoint, Scenario, ScenarioIndex, ScenarioResult, SweepSpec};
pub use store::{partition, run_stored, ChunkStore, IdRange, StoreStats, StoredOutcome};
