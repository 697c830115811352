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
//! * [`SweepEngine`] — hands scenario ids to a pool (the calling thread
//!   plus threads kept between runs) whose workers claim them in chunks
//!   from one shared cursor, decode and evaluate them, and collects
//!   results **in scenario-id order**, bit-identical for any worker count
//!   ([`engine`], [`pool`]). A worker's decode borrows the scenario's
//!   label, scaled machine and workload from the index, and each result
//!   row allocates three times (its label, its report's hardware name and
//!   subtask list); subtask and application names are shared literals;
//! * PACE scenarios evaluate directly through pace-core's
//!   `EvaluationEngine`, on one application object per problem that the
//!   index builds next to its machine table: a model evaluation costs
//!   tens of nanoseconds per subtask, less than any memo lookup would;
//! * [`ExecPlan`] — the campaign execution planner: grid-level dedup of
//!   bit-identical evaluations plus snapshot-prefix sharing for DES rate
//!   what-ifs, executed by [`SweepEngine::run_planned`] with
//!   byte-identical results to the naive path ([`plan`]);
//! * [`replicate_set_threaded`] — the parallel-replication runner for
//!   `cluster-sim` measurement campaigns: N seeds of one machine, each on
//!   the sequential engine, merged into one statistics summary
//!   ([`replicate`]);
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
//! // Scenario-id order: problem-major, then rate multiplier.
//! assert_eq!(outcome.results[3].label, "8x8");
//! // A faster flop rate helps, but less than proportionally.
//! let (base, fast) = (outcome.results[0].total_secs, outcome.results[2].total_secs);
//! assert!(fast < base && fast > base / 1.5);
//! ```

#[doc(hidden)]
pub mod cache;
pub mod engine;
pub mod plan;
pub mod pool;
pub mod replicate;
pub mod spec;
pub mod store;

// The memo types and `scenario_result` have no library caller; they stay,
// hidden, for the benchmark package's traced rebuilds only.
#[doc(hidden)]
pub use cache::{CacheKey, CacheStats, EvalCache};
#[doc(hidden)]
pub use engine::{scenario_result, CachedEngine};
pub use engine::{SweepEngine, SweepOutcome, SweepStats, SWEEP_PID};
pub use plan::{ExecPlan, ForkGroup, PlanJob, PlanStats};
pub use pool::{
    available_workers, run_ordered_with_worker, PoolRun, WorkerStats, CLAIMS_PER_WORKER,
};
// The engine-thread split and its environment override have no library
// caller; they stay, hidden, for the benchmark package's traced rebuild.
#[doc(hidden)]
pub use pool::{nested_plan, sim_threads_override};
pub use replicate::{replicate_set_threaded, Replication, ReplicationSummary, REPLICATE_PID};
pub use spec::{ProblemPoint, Scenario, ScenarioIndex, ScenarioResult, SweepSpec};
pub use store::{partition, run_stored, ChunkStore, IdRange, StoreStats, StoredOutcome};
