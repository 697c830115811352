//! Parallel replication of `cluster-sim` runs.
//!
//! A measurement campaign replays the same machine under N noise seeds.
//! [`replicate_set_threaded`] fans the seeds out over the worker pool —
//! each replication is an independent deterministic simulation of
//! `machine.with_seed(seed)` on the sequential engine
//! ([`cluster_sim::Engine::run`]) — and merges the runs into one
//! [`ReplicationSummary`].
//!
//! Replications are reported in seed order, so the summary is identical
//! whether the runs happened concurrently or sequentially. Fork campaigns
//! (one simulated prefix, many hardware variants) go through the planner
//! instead: [`SweepSpec::des_fork`](crate::SweepSpec::des_fork) with
//! [`SweepEngine::run_planned`](crate::SweepEngine::run_planned).

use std::time::{Duration, Instant};

use cluster_sim::{Engine, MachineSpec, ProgramSet, RunReport, SimResult};
use obs::{Cat, Obs};

use crate::pool::{self, WorkerStats};

/// Track group used for replication wall spans (see [`obs::pids`]).
pub const REPLICATE_PID: u32 = obs::pids::REPLICATE;

/// One seeded simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Replication {
    /// The noise seed of this run.
    pub seed: u64,
    /// Simulated makespan, seconds.
    pub makespan_secs: f64,
    /// Full per-rank statistics.
    pub report: RunReport,
    /// Always `None`: replications are not traced. The field stays
    /// because the benchmark package builds this struct literally.
    pub rollup: Option<obs::Rollup>,
}

/// Merged statistics of a replication campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationSummary {
    /// Machine name.
    pub machine: String,
    /// One entry per seed, in input-seed order.
    pub replications: Vec<Replication>,
    /// Per-worker pool counters.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock time of the campaign.
    pub wall: Duration,
}

impl ReplicationSummary {
    /// The makespans, in seed order.
    pub fn makespans(&self) -> Vec<f64> {
        self.replications.iter().map(|r| r.makespan_secs).collect()
    }

    /// Mean makespan, seconds.
    pub fn mean_makespan(&self) -> f64 {
        let n = self.replications.len();
        if n == 0 {
            return 0.0;
        }
        self.replications.iter().map(|r| r.makespan_secs).sum::<f64>() / n as f64
    }

    /// Smallest makespan.
    pub fn min_makespan(&self) -> f64 {
        self.replications.iter().map(|r| r.makespan_secs).fold(f64::INFINITY, f64::min)
    }

    /// Largest makespan.
    pub fn max_makespan(&self) -> f64 {
        self.replications.iter().map(|r| r.makespan_secs).fold(0.0, f64::max)
    }

    /// Population standard deviation of the makespans.
    pub fn std_dev_makespan(&self) -> f64 {
        let n = self.replications.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.mean_makespan();
        let var = self.replications.iter().map(|r| (r.makespan_secs - mean).powi(2)).sum::<f64>()
            / n as f64;
        var.sqrt()
    }

    /// Mean of the per-run mean compute fractions.
    pub fn mean_compute_fraction(&self) -> f64 {
        let n = self.replications.len();
        if n == 0 {
            return 0.0;
        }
        self.replications.iter().map(|r| r.report.mean_compute_fraction()).sum::<f64>() / n as f64
    }
}

/// Run the shared program `set` on `machine` once per seed, fanned out
/// over `min(workers, seeds)` pool threads, each run on the sequential
/// engine. Fails with the first simulation error, if any. Each seeded run
/// clones the set (an `Arc` bump per distinct op stream), not the op
/// vectors. Results are bit-identical for every worker count.
///
/// `_sim_threads` is ignored. It stays only because the benchmark package
/// passes `None` in that position.
///
/// With telemetry on, each seeded run becomes a wall span on its worker's
/// track, and the summary merge publishes its duration to the metrics
/// registry (`wall.replicate.merge_us`).
pub fn replicate_set_threaded(
    machine: &MachineSpec,
    set: &ProgramSet,
    seeds: &[u64],
    workers: usize,
    _sim_threads: Option<usize>,
    obs: &Obs,
) -> SimResult<ReplicationSummary> {
    let rec = &*obs.recorder;
    if rec.is_enabled() {
        rec.set_process_name(REPLICATE_PID, format!("replicate {}", machine.name));
    }
    let run = pool::run_ordered_with_worker(seeds.to_vec(), workers, |worker, &seed| {
        let t0 = Instant::now();
        let seeded = machine.clone().with_seed(seed);
        let result = Engine::from_set(&seeded, set.clone()).run().map(|report| Replication {
            seed,
            makespan_secs: report.makespan(),
            report,
            rollup: None,
        });
        if rec.is_enabled() {
            rec.wall_span(
                REPLICATE_PID,
                worker as u32,
                format!("seed:{seed}"),
                Cat::Task,
                t0,
                vec![("seed", seed.into())],
            );
        }
        result
    });
    let merge_started = Instant::now();
    let replications = run.results.into_iter().collect::<SimResult<Vec<_>>>()?;
    obs.metrics.counter_add("replicate.seeds", seeds.len() as u64);
    obs.metrics.gauge_set("wall.replicate.merge_us", merge_started.elapsed().as_micros() as f64);
    Ok(ReplicationSummary {
        machine: machine.name.clone(),
        replications,
        workers: run.workers,
        wall: run.wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::{Op, Program};

    fn ring_programs(ranks: usize) -> ProgramSet {
        let mut programs = vec![Program::new(); ranks];
        for (r, prog) in programs.iter_mut().enumerate() {
            prog.push(Op::Compute { flops: 2e6, working_set: 1000 });
            prog.push(Op::Send { to: (r + 1) % ranks, bytes: 512, tag: 7 });
            prog.push(Op::Recv { from: (r + ranks - 1) % ranks, tag: 7 });
        }
        ProgramSet::from_programs(&programs)
    }

    fn noisy_machine() -> MachineSpec {
        MachineSpec::ideal(100.0).with_noise(cluster_sim::NoiseModel::commodity())
    }

    /// A plain campaign on `workers` pool threads.
    fn replicate(set: &ProgramSet, seeds: &[u64], workers: usize) -> ReplicationSummary {
        replicate_set_threaded(&noisy_machine(), set, seeds, workers, None, &Obs::disabled())
            .unwrap()
    }

    #[test]
    fn seed_order_is_preserved_and_concurrency_free() {
        let set = ring_programs(4);
        let seeds = [11u64, 22, 33, 44, 55];
        let serial = replicate(&set, &seeds, 1);
        let parallel = replicate(&set, &seeds, 4);
        assert_eq!(serial.makespans(), parallel.makespans());
        assert_eq!(serial.replications, parallel.replications);
        for (rep, &seed) in serial.replications.iter().zip(&seeds) {
            assert_eq!(rep.seed, seed);
        }
    }

    #[test]
    fn summary_statistics_are_consistent() {
        let summary = replicate(&ring_programs(3), &[1, 2, 3, 4, 5, 6], 2);
        let mean = summary.mean_makespan();
        assert!(summary.min_makespan() <= mean && mean <= summary.max_makespan());
        assert!(summary.std_dev_makespan() >= 0.0);
        assert!(summary.mean_compute_fraction() > 0.0);
        // Distinct seeds should actually perturb a noisy machine.
        let makespans = summary.makespans();
        assert!(
            makespans.windows(2).any(|w| w[0] != w[1]),
            "noise seeds had no effect: {makespans:?}"
        );
    }

    #[test]
    fn observed_replication_records_spans_and_merge_metric() {
        let machine = noisy_machine();
        let set = ring_programs(3);
        let obs = obs::Obs::enabled();
        let summary = replicate_set_threaded(&machine, &set, &[1, 2, 3, 4], 2, None, &obs).unwrap();
        assert_eq!(summary.replications.len(), 4);
        let spans = obs.recorder.wall_spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.pid == REPLICATE_PID && s.cat == Cat::Task));
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.get("replicate.seeds").and_then(obs::MetricValue::as_counter), Some(4));
        assert!(snap.get("wall.replicate.merge_us").is_some());
        // Telemetry must not perturb the simulated results.
        let plain = replicate(&set, &[1, 2, 3, 4], 2);
        assert_eq!(plain.replications, summary.replications);
    }

    #[test]
    fn empty_seed_list() {
        let summary = replicate(&ring_programs(2), &[], 4);
        assert!(summary.replications.is_empty());
        assert_eq!(summary.mean_makespan(), 0.0);
    }

    #[test]
    fn unsorted_seeds_keep_input_order_for_every_worker_count() {
        // Ordering is pinned by input position, never by completion
        // order: with seeds out of numeric order and any worker count (up
        // to one worker per seed), every simulated number and the seed
        // order must match the serial run.
        let set = ring_programs(6);
        let seeds = [42u64, 5, 17, 99, 3];
        let serial = replicate(&set, &seeds, 1);
        for workers in [2, 3, 5, 8] {
            let pooled = replicate(&set, &seeds, workers);
            assert_eq!(pooled.replications, serial.replications, "workers={workers}");
            let order: Vec<u64> = pooled.replications.iter().map(|r| r.seed).collect();
            assert_eq!(order, seeds, "seed order must be input order, not completion order");
        }
    }
}
