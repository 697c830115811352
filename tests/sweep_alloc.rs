//! Allocation budget of an analytic sweep.
//!
//! A counting global allocator tallies every heap allocation (`alloc`,
//! `alloc_zeroed` and `realloc`) made while `SweepEngine::run` evaluates
//! the 2,640-scenario design space on one and on two workers. The count
//! covers the whole run: the scenario index, the pool's threads and
//! buffers and every result row. This file holds one test only, so no
//! concurrently running test adds to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sweepsvc::{SweepEngine, SweepSpec};

mod common;
use common::design_space_specs;

/// The system allocator, counting the allocations it hands out.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches
// only an atomic, never the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per scenario a `run` of the design space may make. A row
/// allocates three times: its label, its report's hardware name and its
/// report's subtask list (subtask and application names are literals,
/// shared rather than copied). The rest is the scenario index (one scaled
/// machine per machine and rate, one application object per problem) and
/// the pool; the count came to 3.23 per scenario on one worker and 3.24
/// on two, against 7.31 and 7.34 when each row copied every name and its
/// label twice.
const BUDGET_PER_SCENARIO: f64 = 3.3;

#[test]
fn analytic_sweep_stays_within_its_allocation_budget() {
    let specs = design_space_specs();
    let scenarios: usize = specs.iter().map(SweepSpec::len).sum();
    assert_eq!(scenarios, 2_640);
    for workers in [1, 2] {
        let engine = SweepEngine::with_workers(workers);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let outcomes: Vec<_> = specs.iter().map(|spec| engine.run(spec)).collect();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        drop(outcomes);
        let per_scenario = allocations as f64 / scenarios as f64;
        println!("{workers} worker(s): {allocations} allocations, {per_scenario:.3} per scenario");
        assert!(
            per_scenario <= BUDGET_PER_SCENARIO,
            "{workers} worker(s): {per_scenario:.3} allocations per scenario, budget \
             {BUDGET_PER_SCENARIO}"
        );
    }
}
