//! Parallel replication of `cluster-sim` runs.
//!
//! A measurement campaign replays the same machine under N noise seeds.
//! Two entry points fan the seeds out over the worker pool — each
//! replication is an independent deterministic simulation of
//! `machine.with_seed(seed)` — and merge the runs into one
//! [`ReplicationSummary`]:
//!
//! * [`replicate_set_threaded`] — the plain campaign;
//! * [`replicate_set_attributed`] — the same runs, each traced and
//!   carrying its critical-path [`obs::Rollup`].
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
    /// Whole-run mechanism attribution ([`obs::Rollup`]), present when
    /// the run was traced through [`replicate_set_attributed`].
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

    /// Per-seed attribution columns as a markdown table — the campaign
    /// output for runs traced through [`replicate_set_attributed`].
    /// `None` unless every replication carries a rollup.
    pub fn attribution_markdown(&self) -> Option<String> {
        use std::fmt::Write as _;
        let rollups: Vec<&obs::Rollup> =
            self.replications.iter().map(|r| r.rollup.as_ref()).collect::<Option<_>>()?;
        let ms = |ps: u64| ps as f64 / 1e9;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| seed | makespan (ms) | compute | send ovh | recv ovh | blocked | fill | blk idle | drain | collective | wire | msgs | rdv |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|---|---|");
        for (rep, ro) in self.replications.iter().zip(&rollups) {
            let _ = writeln!(
                out,
                "| {:#x} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {} | {} |",
                rep.seed,
                ms(ro.makespan_ps),
                ms(ro.compute_ps),
                ms(ro.send_overhead_ps),
                ms(ro.recv_overhead_ps),
                ms(ro.blocked_send_ps),
                ms(ro.fill_ps),
                ms(ro.blocking_idle_ps),
                ms(ro.drain_ps),
                ms(ro.collective_ps),
                ms(ro.wire_ps),
                ro.messages,
                ro.rendezvous,
            );
        }
        Some(out)
    }
}

/// Run the shared program `set` on `machine` once per seed, fanned out
/// over `workers` pool threads. Fails with the first simulation error, if
/// any. Each seeded run clones the set (an `Arc` bump per distinct op
/// stream), not the op vectors.
///
/// Worker slots follow the nested-parallelism policy
/// ([`pool::nested_plan`]): campaign-level seeds first, spare slots
/// donated to intra-run engine threads
/// ([`cluster_sim::Engine::run_parallel`]), never oversubscribing.
/// `sim_threads` pins the intra-run thread count (`--threads N` in the
/// CLI); `None` lets the plan decide, subject to the `PACE_SIM_THREADS`
/// override. Results are bit-identical for every split.
///
/// With telemetry on, each seeded run becomes a wall span on its worker's
/// track, and the summary merge publishes its duration to the metrics
/// registry (`wall.replicate.merge_us`).
pub fn replicate_set_threaded(
    machine: &MachineSpec,
    set: &ProgramSet,
    seeds: &[u64],
    workers: usize,
    sim_threads: Option<usize>,
    obs: &Obs,
) -> SimResult<ReplicationSummary> {
    replicate_seeds(machine, set, seeds, workers, sim_threads, false, obs)
}

/// [`replicate_set_threaded`] with per-seed critical-path attribution:
/// each seeded run is traced into a private recorder and attributed with
/// [`obs::attr::attribute`] — the extractor's path-equals-makespan gate
/// runs for every seed — and the whole-run mechanism [`obs::Rollup`]
/// rides along on each [`Replication`]. Render the columns with
/// [`ReplicationSummary::attribution_markdown`]. The simulated numbers
/// are bit-identical to [`replicate_set_threaded`]; only `rollup` differs.
pub fn replicate_set_attributed(
    machine: &MachineSpec,
    set: &ProgramSet,
    seeds: &[u64],
    workers: usize,
    obs: &Obs,
) -> SimResult<ReplicationSummary> {
    replicate_seeds(machine, set, seeds, workers, None, true, obs)
}

/// The per-seed loop behind both entry points.
fn replicate_seeds(
    machine: &MachineSpec,
    set: &ProgramSet,
    seeds: &[u64],
    workers: usize,
    sim_threads: Option<usize>,
    attributed: bool,
    obs: &Obs,
) -> SimResult<ReplicationSummary> {
    let rec = &*obs.recorder;
    if rec.is_enabled() {
        rec.set_process_name(REPLICATE_PID, format!("replicate {}", machine.name));
    }
    let (outer, planned) = pool::nested_plan(workers, seeds.len());
    let inner = sim_threads.or_else(pool::sim_threads_override).unwrap_or(planned).max(1);
    let run = pool::run_ordered_with_worker(seeds.to_vec(), outer, |worker, &seed| {
        let t0 = Instant::now();
        let seeded = machine.clone().with_seed(seed);
        let trace = attributed.then(obs::Recorder::enabled);
        let mut engine = Engine::from_set(&seeded, set.clone());
        if let Some(trace) = &trace {
            engine = engine.with_recorder(trace, obs::pids::ENGINE);
        }
        let result = engine.run_parallel(inner).map(|report| {
            let rollup = trace.as_ref().map(|trace| {
                obs::attr::attribute(trace, obs::pids::ENGINE)
                    .expect("traced replication attributes cleanly")
                    .rollup
            });
            Replication { seed, makespan_secs: report.makespan(), report, rollup }
        });
        if rec.is_enabled() {
            let mut args = vec![("seed", seed.into()), ("sim_threads", inner.into())];
            if attributed {
                args.push(("attributed", 1u64.into()));
            }
            rec.wall_span(
                REPLICATE_PID,
                worker as u32,
                format!("seed:{seed}"),
                Cat::Task,
                t0,
                args,
            );
        }
        result
    });
    let merge_started = Instant::now();
    let replications = run.results.into_iter().collect::<SimResult<Vec<_>>>()?;
    obs.metrics.counter_add("replicate.seeds", seeds.len() as u64);
    if attributed {
        obs.metrics.counter_add("replicate.attributed", seeds.len() as u64);
    }
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

    /// A plain campaign with the engine-thread split left to the plan.
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
    fn threaded_replications_keep_seed_order_and_results() {
        // The deterministic-ordering smoke test: with pool workers *and*
        // intra-run engine threads both > 1, result ordering and every
        // simulated number must still match the serial run — ordering is
        // pinned by input position, never by completion order.
        let machine = noisy_machine();
        let set = ring_programs(6);
        let seeds = [42u64, 5, 17, 99, 3];
        let serial =
            replicate_set_threaded(&machine, &set, &seeds, 1, Some(1), &Obs::disabled()).unwrap();
        for (workers, threads) in [(3, 2), (2, 3), (5, 4)] {
            let threaded = replicate_set_threaded(
                &machine,
                &set,
                &seeds,
                workers,
                Some(threads),
                &Obs::disabled(),
            )
            .unwrap();
            assert_eq!(
                threaded.replications, serial.replications,
                "workers={workers} sim_threads={threads} perturbed the campaign"
            );
            let order: Vec<u64> = threaded.replications.iter().map(|r| r.seed).collect();
            assert_eq!(order, seeds, "seed order must be input order, not completion order");
        }
    }

    #[test]
    fn attributed_replication_matches_plain_and_renders_columns() {
        let machine = noisy_machine();
        let set = ring_programs(4);
        let seeds = [11u64, 22, 33];
        let plain = replicate(&set, &seeds, 1);
        let obs = obs::Obs::enabled();
        let attributed = replicate_set_attributed(&machine, &set, &seeds, 2, &obs).unwrap();
        // Attribution must not perturb the simulated numbers.
        for (a, b) in plain.replications.iter().zip(&attributed.replications) {
            assert_eq!(a.report, b.report);
            let ro = b.rollup.expect("attributed run carries a rollup");
            // The extractor's gate: rollup makespan is the report's, exactly.
            let makespan_ps = b.report.ranks.iter().map(|r| r.finish.picos()).max().unwrap();
            assert_eq!(ro.makespan_ps, makespan_ps);
            assert!(ro.messages > 0);
        }
        let snap = obs.metrics.snapshot();
        assert_eq!(
            snap.get("replicate.attributed").and_then(obs::MetricValue::as_counter),
            Some(3)
        );
        // Worker-count invariance extends to the rollup columns.
        let serial = replicate_set_attributed(&machine, &set, &seeds, 1, &Obs::disabled()).unwrap();
        assert_eq!(serial.replications, attributed.replications);
        let table = attributed.attribution_markdown().expect("all rollups present");
        assert!(table.contains("| seed | makespan (ms) |"), "{table}");
        assert_eq!(table.lines().count(), 2 + seeds.len());
        // Plain campaigns have no attribution columns to render.
        assert!(plain.attribution_markdown().is_none());
    }
}
