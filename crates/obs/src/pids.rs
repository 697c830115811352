//! The workspace-wide trace track-group (pid) conventions.
//!
//! Every subsystem that records into a shared [`Recorder`](crate::Recorder)
//! claims a pid block here so exported traces never collide. Tids within a
//! group are subsystem-local (a rank, a worker, a partition).
//!
//! | pid                  | owner                  | tracks (tids)                 |
//! |----------------------|------------------------|-------------------------------|
//! | [`ENGINE`] (0)       | `cluster-sim` engines  | one per rank (`rank r`)       |
//! | 0–999                | per-run track groups   | `Engine::with_recorder(_, pid)`|
//! | [`SWEEP`] (1000)     | `sweepsvc` scenarios   | one per pool worker           |
//! | [`REPLICATE`] (1001) | `sweepsvc` replication | one per replication slot      |
//! | [`PARTITION`] (1002) | windowed parallel engine (`sim.partition`) | one per partition + coordinator |
//! | [`PHASE`] (2000)     | `experiments obs` phases | single `phases` track       |
//! | base + row·[`TABLE_STRIDE`] | `experiments` validation tables | one block per table row |
//!
//! Engine runs default to pid [`ENGINE`]; callers tracing several runs into
//! one recorder pick distinct pids below [`SWEEP`] (the validation tables
//! do this with [`TABLE_STRIDE`]-sized blocks).

/// Default track group for a simulated run; one tid per rank.
pub const ENGINE: u32 = 0;

/// `sweepsvc` scenario evaluations; one tid per pool worker.
pub const SWEEP: u32 = 1000;

/// `sweepsvc` replication campaigns; one tid per replication slot.
pub const REPLICATE: u32 = 1001;

/// The time-windowed parallel engine's own telemetry (`sim.partition`):
/// window/drain wall spans, one tid per partition plus a coordinator tid.
pub const PARTITION: u32 = 1002;

/// Coarse program phases recorded by `experiments obs`.
pub const PHASE: u32 = 2000;

/// Pid stride between validation-table track-group blocks: table `N`
/// records rows at `(N - 1) * TABLE_STRIDE + row`.
pub const TABLE_STRIDE: u32 = 100;

// Per-run pids live below SWEEP; validation-table blocks live below
// SWEEP too (3 tables x 100), orchestration pids above.
const _: () = assert!(ENGINE < SWEEP);
const _: () = assert!(3 * TABLE_STRIDE < SWEEP);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_blocks_do_not_collide() {
        let orchestration = [SWEEP, REPLICATE, PARTITION, PHASE];
        for (i, a) in orchestration.iter().enumerate() {
            for b in orchestration.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
