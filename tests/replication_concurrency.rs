//! Concurrency smoke test for the parallel replication runner.
//!
//! K seeded cluster-sim replications of a real SWEEP3D workload must
//! produce exactly the same per-seed reports whether they run one at a
//! time, fanned out over the pool, or hand-rolled with a sequential
//! `Engine` loop — the pool may only change wall-clock time, never a
//! simulated number.

use cluster_sim::{Engine, MachineSpec, Program, ProgramSet};
use sweep3d::trace::{generate_programs, FlopModel};
use sweep3d::ProblemConfig;
use sweepsvc::{replicate_set_threaded, ReplicationSummary};

const SEEDS: [u64; 6] = [0xA11CE, 3, 1414, 7, 99, 2];

fn workload() -> (MachineSpec, Vec<Program>) {
    // A small weak-scaling sweep on the noisy Pentium 3 cluster model:
    // big enough to exercise pipeline communication, small enough to
    // simulate six times in a test.
    let mut config = ProblemConfig::weak_scaling(10, 2, 3);
    config.iterations = 2;
    let fm = FlopModel::calibrate(&config, 8);
    let programs = generate_programs(&config, &fm);
    (registry::sim::pentium3_myrinet_sim(), programs)
}

/// A campaign on `workers` pool threads.
fn replicate(machine: &MachineSpec, programs: &[Program], workers: usize) -> ReplicationSummary {
    let set = ProgramSet::from_programs(programs);
    replicate_set_threaded(machine, &set, &SEEDS, workers, None, &obs::Obs::disabled())
        .expect("campaign")
}

#[test]
fn concurrent_replications_match_sequential_engine_loop() {
    let (machine, programs) = workload();

    // Ground truth: a plain sequential loop over seeded engines.
    let by_hand: Vec<f64> = SEEDS
        .iter()
        .map(|&seed| {
            let seeded = machine.clone().with_seed(seed);
            Engine::new(&seeded, programs.clone()).run().expect("sim runs").makespan()
        })
        .collect();

    let serial = replicate(&machine, &programs, 1);
    let pooled = replicate(&machine, &programs, 4);

    assert_eq!(serial.makespans(), by_hand, "1-worker campaign diverged from the plain loop");
    assert_eq!(pooled.makespans(), by_hand, "4-worker campaign diverged from the plain loop");
    // Beyond makespans: the full per-rank reports must agree bit for bit.
    assert_eq!(serial.replications, pooled.replications);
    let seeds_seen: Vec<u64> = pooled.replications.iter().map(|r| r.seed).collect();
    assert_eq!(seeds_seen, SEEDS, "replications must come back in input-seed order");
}

#[test]
fn campaign_statistics_are_worker_count_invariant() {
    let (machine, programs) = workload();
    let a = replicate(&machine, &programs, 1);
    let b = replicate(&machine, &programs, 3);
    assert_eq!(a.mean_makespan(), b.mean_makespan());
    assert_eq!(a.std_dev_makespan(), b.std_dev_makespan());
    assert_eq!(a.min_makespan(), b.min_makespan());
    assert_eq!(a.max_makespan(), b.max_makespan());
    assert_eq!(a.mean_compute_fraction(), b.mean_compute_fraction());
    // Different seeds genuinely perturb the noisy machine — the campaign
    // is measuring something.
    assert!(a.std_dev_makespan() > 0.0, "noise seeds had no effect");
}

#[test]
fn seed_order_is_input_order_for_every_worker_count() {
    // Deterministic-ordering smoke: with any pool width, up to one worker
    // per seed and beyond, the campaign must return the same reports in
    // the same input-seed order — never completion order — because each
    // run is deterministic and the pool reorders by item index.
    let (machine, programs) = workload();
    let serial = replicate(&machine, &programs, 1);
    for workers in [2, 3, SEEDS.len(), 16] {
        let pooled = replicate(&machine, &programs, workers);
        assert_eq!(pooled.replications, serial.replications, "{workers} workers");
        let order: Vec<u64> = pooled.replications.iter().map(|r| r.seed).collect();
        assert_eq!(order, SEEDS, "replications must come back in input-seed order");
        assert!(pooled.replications.iter().all(|r| r.rollup.is_none()));
    }
}
