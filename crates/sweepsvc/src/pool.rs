//! The worker pool: one shared cursor, chunked claims.
//!
//! [`run_indexed`] fans item indices `0..n` out over `crossbeam` scoped
//! threads. Workers claim contiguous blocks of indices from one atomic
//! cursor — [`CLAIMS_PER_WORKER`] claims per worker on an even split, one
//! item per claim for batches too small to split that finely — and the
//! results come back **in index order** regardless of which worker
//! computed what or in what interleaving: each worker keeps its blocks in
//! claim order and the blocks are stitched together by start index at the
//! end. With a pure work function the output is therefore bit-identical
//! for any worker count. [`run_ordered`] and [`run_ordered_with_worker`]
//! are the same pool over a `Vec` of items.
//!
//! A panicking item stops the pool: the other workers finish the block
//! they hold, claim nothing further, and the pool re-raises the item's own
//! panic payload.
//!
//! Per-worker throughput counters (items processed, claims, busy time)
//! come back alongside the results.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Claims each worker makes on an even split of a batch: a batch of `n`
/// items on `w` workers is claimed in blocks of
/// `ceil(n / (w * CLAIMS_PER_WORKER))` items. Enough claims that the last
/// blocks even out the workers' finishing times, few enough that the
/// shared cursor is touched once per many cheap items. Batches of at most
/// `w * CLAIMS_PER_WORKER` items (validation rows, fork groups,
/// replication seeds) are claimed one item at a time, in input order.
pub const CLAIMS_PER_WORKER: usize = 32;

/// Block size of a claim on a batch of `n` items over `workers` workers.
fn claim_block(n: usize, workers: usize) -> usize {
    n.div_ceil(pool_width(n, workers) * CLAIMS_PER_WORKER).max(1)
}

/// Workers a batch of `n` items actually runs on: never more than items,
/// never fewer than one.
fn pool_width(n: usize, workers: usize) -> usize {
    workers.clamp(1, n.max(1))
}

/// One worker's throughput counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Items this worker processed.
    pub items: u64,
    /// Time spent inside the work function.
    pub busy: Duration,
    /// Claims this worker took from the shared cursor (one block of
    /// items each; see [`CLAIMS_PER_WORKER`]).
    pub steals: u64,
}

impl WorkerStats {
    /// A zeroed counter block for `worker`.
    pub fn new(worker: usize) -> Self {
        WorkerStats { worker, items: 0, busy: Duration::ZERO, steals: 0 }
    }
}

impl WorkerStats {
    /// Items per busy second (0 when the worker never ran).
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs > 0.0 {
            self.items as f64 / secs
        } else {
            0.0
        }
    }
}

/// Results of one pool run.
#[derive(Debug, Clone)]
pub struct PoolRun<R> {
    /// One result per input item, in input order.
    pub results: Vec<R>,
    /// Per-worker counters, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

/// Worker count to use by default: the machine's available parallelism.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Split `slots` pool slots between batch-level parallelism and per-run
/// engine threads: `(outer, inner)` with `outer` concurrent jobs, each
/// allowed `inner` intra-run threads (`cluster_sim::Engine::run_parallel`).
///
/// Campaign-level scenarios come first — they parallelise perfectly — and
/// only *spare* slots are donated to intra-run threading, so a wide batch
/// (`jobs >= slots`) gets sequential runs and a narrow batch (few
/// scenarios, many ranks) gets multi-threaded ones. Never oversubscribes:
/// `outer * inner <= slots` (with the usual minimum of one each).
///
/// Hidden: replications run on the sequential engine, so only the
/// benchmark's traced speculation rebuild calls this; ROADMAP item 2
/// deletes it.
#[doc(hidden)]
pub fn nested_plan(slots: usize, jobs: usize) -> (usize, usize) {
    let slots = slots.max(1);
    if jobs == 0 {
        return (1, slots);
    }
    let outer = slots.min(jobs);
    let inner = (slots / outer).max(1);
    (outer, inner)
}

/// Per-run engine thread count from the `PACE_SIM_THREADS` environment
/// variable.
///
/// Hidden: replications run on the sequential engine, so only the
/// benchmark's traced speculation rebuild calls this; ROADMAP item 2
/// deletes it.
#[doc(hidden)]
pub fn sim_threads_override() -> Option<usize> {
    let raw = std::env::var("PACE_SIM_THREADS").ok()?;
    raw.trim().parse().ok().filter(|&t| t > 0)
}

/// Apply `work` to every item on a pool of `workers` threads, returning
/// results in item order. `workers <= 1` runs inline on the caller's
/// thread (no spawn), which is also the serial reference for determinism
/// tests.
pub fn run_ordered<T, R, F>(items: Vec<T>, workers: usize, work: F) -> PoolRun<R>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_ordered_with_worker(items, workers, |_, item| work(item))
}

/// Like [`run_ordered`], but the work function also receives the index of
/// the worker executing the item — the hook the telemetry layer uses to
/// attribute per-scenario wall spans to pool threads.
pub fn run_ordered_with_worker<T, R, F>(items: Vec<T>, workers: usize, work: F) -> PoolRun<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let started = Instant::now();
    // The items, split into the pool's claim blocks. Each block is claimed
    // exactly once, so its cell is only ever locked uncontended, by the
    // worker that takes the block out.
    let n = items.len();
    let block = claim_block(n, workers);
    let mut items = items.into_iter();
    let blocks: Vec<Mutex<Vec<T>>> =
        (0..n.div_ceil(block)).map(|_| Mutex::new(items.by_ref().take(block).collect())).collect();
    run_blocks(started, n, workers, |w, claim, out| {
        let mut cell = blocks[claim.start / block].lock().unwrap_or_else(PoisonError::into_inner);
        let items = std::mem::take(&mut *cell);
        out.extend(items.iter().map(|item| work(w, item)));
        items
    })
}

/// Apply `work` to every index `0..n` on a pool of `workers` threads,
/// returning results in index order; `work` also receives the executing
/// worker's index. `workers <= 1` runs inline on the caller's thread.
///
/// # Panics
///
/// Re-raises the payload of the first worker (by index) whose item
/// panicked, once every worker has stopped.
pub fn run_indexed<R, F>(n: usize, workers: usize, work: F) -> PoolRun<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    run_blocks(Instant::now(), n, workers, |w, claim, out| out.extend(claim.map(|i| work(w, i))))
}

/// The pool itself: workers claim blocks of `0..n` from the shared cursor
/// and `eval(worker, block, out)` appends the block's results, in order,
/// to the empty buffer `out`. A worker is busy only inside `eval`: moving
/// `out` into its results and dropping whatever `eval` returns (the
/// block's consumed items) happen outside that window. The run's wall
/// clock counts from `started`.
fn run_blocks<R, D, F>(started: Instant, n: usize, workers: usize, eval: F) -> PoolRun<R>
where
    R: Send,
    F: Fn(usize, Range<usize>, &mut Vec<R>) -> D + Sync,
{
    let workers = pool_width(n, workers);
    let block = claim_block(n, workers);
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // One worker's loop: claim a block, evaluate it, until the cursor
    // passes `n` or another worker's panic raises `stop`. Returns the
    // worker's counters, its `(start, len)` blocks in claim order and
    // their results, concatenated.
    let worker = |w: usize| {
        let _stop_on_panic = StopOnPanic(&stop);
        let mut stats = WorkerStats::new(w);
        let mut blocks: Vec<(usize, usize)> = Vec::new();
        let mut local: Vec<R> = Vec::new();
        let mut scratch: Vec<R> = Vec::with_capacity(block);
        while !stop.load(Ordering::Relaxed) {
            let start = cursor.fetch_add(block, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + block).min(n);
            stats.steals += 1;
            let t0 = Instant::now();
            let spent = eval(w, start..end, &mut scratch);
            stats.busy += t0.elapsed();
            drop(spent);
            local.append(&mut scratch);
            stats.items += (end - start) as u64;
            blocks.push((start, end - start));
        }
        (stats, blocks, local)
    };

    if workers <= 1 {
        let (stats, _, results) = worker(0);
        return PoolRun { results, workers: vec![stats], wall: started.elapsed() };
    }

    let joined = crossbeam::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = (0..workers).map(|w| s.spawn(move |_| worker(w))).collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));

    // Stitch the blocks together by start index. Each worker's blocks sit
    // in its buffer in claim order, which is ascending start order.
    let mut segments: Vec<(usize, usize, usize)> = Vec::new();
    let mut buffers = Vec::with_capacity(workers);
    let mut worker_stats = Vec::with_capacity(workers);
    for (w, outcome) in joined.into_iter().enumerate() {
        let (stats, blocks, local) =
            outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        segments.extend(blocks.into_iter().map(|(start, len)| (start, len, w)));
        buffers.push(local.into_iter());
        worker_stats.push(stats);
    }
    segments.sort_unstable();
    let mut results = Vec::with_capacity(n);
    for (start, len, w) in segments {
        debug_assert_eq!(start, results.len(), "blocks tile 0..n");
        results.extend(buffers[w].by_ref().take(len));
    }
    assert_eq!(results.len(), n, "every item evaluated once");
    PoolRun { results, workers: worker_stats, wall: started.elapsed() }
}

/// Raises the pool's stop flag when its worker unwinds, so the other
/// workers claim nothing further.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch() {
        let run = run_ordered(Vec::<u32>::new(), 4, |x| x * 2);
        assert!(run.results.is_empty());
        assert_eq!(run.workers.len(), 1);
    }

    #[test]
    fn order_is_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..200).collect();
        for workers in [1, 2, 3, 8] {
            let run = run_ordered(items.clone(), workers, |&x| x * x);
            assert_eq!(
                run.results,
                items.iter().map(|x| x * x).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn every_item_counted_exactly_once() {
        let run = run_ordered((0..57u64).collect(), 4, |&x| x);
        let total: u64 = run.workers.iter().map(|w| w.items).sum();
        assert_eq!(total, 57);
        assert_eq!(
            run.workers.iter().map(|w| w.worker).collect::<Vec<_>>(),
            (0..run.workers.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn more_workers_than_items_is_clamped() {
        let run = run_ordered(vec![1, 2, 3], 64, |&x: &i32| x + 1);
        assert_eq!(run.results, vec![2, 3, 4]);
        assert!(run.workers.len() <= 3);
    }

    #[test]
    fn nested_plan_spends_slots_on_jobs_first() {
        assert_eq!(nested_plan(8, 3), (3, 2)); // spare slots donated inward
        assert_eq!(nested_plan(8, 8), (8, 1)); // saturated: sequential runs
        assert_eq!(nested_plan(8, 16), (8, 1)); // oversubscribed batch
        assert_eq!(nested_plan(8, 1), (1, 8)); // one big run gets everything
        assert_eq!(nested_plan(1, 5), (1, 1)); // single slot
        assert_eq!(nested_plan(4, 0), (1, 4)); // degenerate empty batch
        assert_eq!(nested_plan(0, 3), (1, 1)); // degenerate zero slots
        for slots in 1..=16 {
            for jobs in 0..=20 {
                let (outer, inner) = nested_plan(slots, jobs);
                assert!(outer >= 1 && inner >= 1);
                assert!(outer * inner <= slots.max(1), "oversubscribed at {slots}/{jobs}");
            }
        }
    }

    #[test]
    fn throughput_counter_is_sane() {
        let stats =
            WorkerStats { items: 10, busy: Duration::from_millis(100), ..WorkerStats::new(0) };
        assert!((stats.items_per_sec() - 100.0).abs() < 1.0);
        let idle = WorkerStats::new(1);
        assert_eq!(idle.items_per_sec(), 0.0);
    }

    #[test]
    fn chunk_boundaries_evaluate_each_item_once_in_order() {
        use std::sync::atomic::AtomicU32;
        for workers in [1, 2, 3, 8] {
            let threshold = workers * CLAIMS_PER_WORKER;
            for n in [0, 1, threshold - 1, threshold, threshold + 1, 10_000] {
                let seen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                let run = run_indexed(n, workers, |_, i| {
                    seen[i].fetch_add(1, Ordering::Relaxed);
                    i
                });
                let ctx = format!("n={n} workers={workers}");
                assert_eq!(run.results, (0..n).collect::<Vec<_>>(), "{ctx}");
                assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1), "{ctx}");
                let items: u64 = run.workers.iter().map(|w| w.items).sum();
                let claims: u64 = run.workers.iter().map(|w| w.steals).sum();
                assert_eq!(items, n as u64, "{ctx}");
                assert_eq!(claims, n.div_ceil(claim_block(n, workers)) as u64, "{ctx}");
                if n <= threshold {
                    assert_eq!(claims, items, "{ctx}: small batches claim one item at a time");
                } else {
                    assert!(claims < items, "{ctx}: large batches claim blocks");
                }
            }
        }
    }

    #[test]
    fn a_panicking_item_stops_the_pool_and_keeps_its_payload() {
        use std::sync::atomic::AtomicU64;
        /// Raises its flag once item 0's panic unwinds (after the panic
        /// hook has run), the earliest point the pool can react.
        struct Unwinding<'a>(&'a AtomicBool);
        impl Drop for Unwinding<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let (n, workers) = (10_000, 2);
        let unwinding = AtomicBool::new(false);
        let evaluated = AtomicU64::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed(n, workers, |_, i| {
                if i == 0 {
                    let _flag = Unwinding(&unwinding);
                    panic!("item 0 failed");
                }
                // Every other item starts once item 0 is unwinding and
                // takes long enough that the stop lands between claims.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !unwinding.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_micros(20));
                evaluated.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        let payload = caught.expect_err("the item's panic must reach the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("item 0 failed"));
        // Each other worker finishes at most the block it holds, then
        // claims nothing further.
        let bound = ((workers - 1) * claim_block(n, workers)) as u64;
        let evaluated = evaluated.into_inner();
        assert!(evaluated <= bound, "{evaluated} items evaluated after the panic (bound {bound})");
    }

    #[test]
    fn single_worker_fast_path_spawns_no_threads() {
        let caller = std::thread::current().id();
        let run = run_ordered_with_worker((0..16u64).collect(), 1, |w, &x| {
            assert_eq!(w, 0, "inline path is always worker 0");
            (std::thread::current().id(), x)
        });
        assert_eq!(run.workers.len(), 1);
        for &(tid, _) in &run.results {
            assert_eq!(tid, caller, "workers==1 must run inline on the caller thread");
        }
        // Two or more workers do spawn: every item runs off the caller.
        let spawned = run_ordered_with_worker((0..16u64).collect(), 2, |_, &x| {
            (std::thread::current().id(), x)
        });
        assert!(
            spawned.results.iter().all(|&(tid, _)| tid != caller),
            "workers>=2 must run on pool threads"
        );
    }

    #[test]
    fn worker_index_is_within_pool_bounds() {
        let run = run_ordered_with_worker((0..100u64).collect(), 4, |w, &x| (w, x * 2));
        let pool_size = run.workers.len();
        for (i, &(w, doubled)) in run.results.iter().enumerate() {
            assert!(w < pool_size);
            assert_eq!(doubled, (i as u64) * 2);
        }
    }
}
