//! pace-bench: benchmark harness for the repository's hot paths.
//!
//! Two kinds of targets live here:
//!
//! * `benches/` — Criterion micro-benchmarks (one per paper table/figure
//!   plus ablations), for interactive profiling;
//! * the `engine-bench` binary — a **tracked** engine benchmark that
//!   writes `BENCH_engine.json` at the repository root: wall-clock
//!   percentiles, simulated events/sec and memory proxies for the
//!   Fig. 8/9 speculative campaigns and Table 1–3-shaped validation
//!   fixtures, measured through both the retained pre-optimization
//!   scheduler ([`cluster_sim::ReferenceEngine`], "before") and the
//!   dense-channel engine ([`cluster_sim::Engine`], "after").
//!
//! The binary is what CI runs (`engine-bench --smoke --check <baseline>`):
//! reduced sizes, artifact upload, and a hard failure when the optimized
//! engine's median wall time regresses more than 2× against the committed
//! baseline. See EXPERIMENTS.md ("Tracked engine benchmarks") for the
//! schema and the blessing procedure.

pub mod shard;
pub mod sweep;

use std::time::Instant;

use cluster_sim::{Engine, MachineSpec, NoiseModel, ReferenceEngine, RunReport};
use sweep3d::trace::{generate_program_set, FlopModel};
use sweep3d::ProblemConfig;

/// Fixed calibration constants (the golden-fixture family) so benchmark
/// inputs never depend on a profiling run.
pub fn bench_flop_model() -> FlopModel {
    FlopModel {
        flops_per_cell_angle: 21.5,
        source_flops_per_cell: 2.0,
        flux_err_flops_per_cell: 3.0,
    }
}

/// One benchmark scenario: a machine and a problem configuration.
pub struct BenchScenario {
    /// Stable scenario name (the key the regression check joins on).
    pub name: &'static str,
    /// Machine simulated.
    pub machine: MachineSpec,
    /// Problem configuration (array extents, blocking, iterations).
    pub config: ProblemConfig,
    /// Timed repetitions per engine.
    pub reps: usize,
    /// Thread counts to additionally measure through the conservative
    /// parallel engine (`Engine::run_parallel`); empty = sequential only.
    pub par_threads: &'static [usize],
    /// Whether to measure the snapshot-forked rate campaign (shared
    /// simulation prefix + per-variant resumes vs from-scratch runs).
    pub snapshot: bool,
}

fn speculation_machine() -> MachineSpec {
    let mut m = hwbench::machines::opteron_myrinet_sim();
    m.noise = NoiseModel::commodity();
    m.rendezvous_bytes = Some(4096);
    m
}

fn validation_machine(mut m: MachineSpec) -> MachineSpec {
    m.noise = NoiseModel::commodity();
    m.rendezvous_bytes = Some(4096);
    m.seed = 0xF1B5_EED0;
    m
}

fn table_config(px: usize, py: usize) -> ProblemConfig {
    let mut c = ProblemConfig::weak_scaling(4, px, py);
    c.mk = 2;
    c.iterations = 2;
    c
}

fn speculative_config(problem_20m: bool, px: usize, py: usize, iterations: usize) -> ProblemConfig {
    let mut c = if problem_20m {
        ProblemConfig::speculative(5, 5, 100, px, py)
    } else {
        ProblemConfig::speculative(25, 25, 200, px, py)
    };
    c.iterations = iterations;
    c
}

/// The scenario set. `smoke` keeps CI runs short: smaller arrays, fewer
/// repetitions, distinct scenario names (so a smoke baseline and a full
/// baseline never get compared to each other).
pub fn scenarios(smoke: bool) -> Vec<BenchScenario> {
    if smoke {
        vec![
            BenchScenario {
                name: "fig8_512pe_smoke",
                machine: speculation_machine(),
                config: speculative_config(true, 16, 32, 1),
                reps: 3,
                par_threads: &[4],
                snapshot: false,
            },
            BenchScenario {
                name: "fig9_64pe_smoke",
                machine: speculation_machine(),
                config: speculative_config(false, 8, 8, 1),
                reps: 3,
                par_threads: &[4],
                snapshot: true,
            },
            BenchScenario {
                name: "table2_64pe_smoke",
                machine: validation_machine(hwbench::machines::opteron_gige_sim()),
                config: table_config(8, 8),
                reps: 3,
                par_threads: &[],
                snapshot: false,
            },
        ]
    } else {
        vec![
            BenchScenario {
                name: "fig8_8000pe",
                machine: speculation_machine(),
                config: speculative_config(true, 80, 100, 1),
                reps: 3,
                par_threads: &[2, 4, 8],
                snapshot: false,
            },
            BenchScenario {
                name: "fig9_8000pe",
                machine: speculation_machine(),
                config: speculative_config(false, 80, 100, 1),
                reps: 3,
                par_threads: &[8],
                snapshot: true,
            },
            BenchScenario {
                name: "table1_pentium3_64pe",
                machine: validation_machine(hwbench::machines::pentium3_myrinet_sim()),
                config: table_config(8, 8),
                reps: 5,
                par_threads: &[],
                snapshot: false,
            },
            BenchScenario {
                name: "table2_opteron_512pe",
                machine: validation_machine(hwbench::machines::opteron_gige_sim()),
                config: table_config(16, 32),
                reps: 5,
                par_threads: &[],
                snapshot: false,
            },
            BenchScenario {
                name: "table3_altix_512pe",
                machine: validation_machine(hwbench::machines::altix_numalink_sim()),
                config: table_config(16, 32),
                reps: 5,
                par_threads: &[],
                snapshot: false,
            },
        ]
    }
}

/// Wall-clock sample percentiles over a scenario's repetitions.
#[derive(Debug, Clone, Copy)]
pub struct WallStats {
    /// Fastest repetition, milliseconds.
    pub min_ms: f64,
    /// Median repetition.
    pub p50_ms: f64,
    /// 90th percentile (== max for small rep counts).
    pub p90_ms: f64,
}

impl WallStats {
    fn from_samples(mut ms: Vec<f64>) -> Self {
        ms.sort_by(f64::total_cmp);
        let pick = |q: f64| ms[((ms.len() - 1) as f64 * q).round() as usize];
        WallStats { min_ms: ms[0], p50_ms: pick(0.5), p90_ms: pick(0.9) }
    }
}

/// Measured numbers for one engine on one scenario.
#[derive(Debug, Clone)]
pub struct EngineSide {
    /// Wall-clock percentiles; each repetition includes program setup
    /// (clone of the per-rank vectors for "before", an `Arc`-bump clone
    /// of the shared set for "after") plus the run itself.
    pub wall: WallStats,
    /// Simulated events (executed ops) per second at the median wall.
    pub events_per_sec: f64,
    /// Bytes of program representation the engine executes from.
    pub program_bytes: usize,
    /// Peak-RSS growth (kB) attributable to this side's repetitions,
    /// from a reset-aware `VmHWM` window (see [`hwm_window_begin`]).
    /// Unlike the raw process-lifetime high-water mark, this does not
    /// inherit earlier scenarios' peaks.
    pub vm_hwm_delta_kb: Option<u64>,
}

/// One parallel-engine measurement of a scenario
/// (`Engine::run_parallel(threads)` on the shared program set).
#[derive(Debug, Clone)]
pub struct ParallelSide {
    /// Worker threads requested.
    pub threads: usize,
    /// Wall-clock percentiles (setup + run, like the sequential sides).
    pub wall: WallStats,
    /// Simulated events per second at the median wall.
    pub events_per_sec: f64,
    /// Whether the report was bit-identical to the sequential optimized
    /// engine's — the hard correctness gate.
    pub digest_match: bool,
    /// Lock-step windows the run executed.
    pub windows: u64,
    /// Conservative lookahead (minimum cross-partition wire latency), µs.
    pub lookahead_us: Option<f64>,
    /// Whether the run fell back to sequential execution.
    pub fell_back: bool,
}

/// One snapshot-forked rate-campaign measurement: the three flop-rate
/// what-ifs of the paper (×1.0, ×1.25, ×1.5) evaluated by pausing one
/// base run mid-flight and resuming a snapshot per variant, timed
/// against running every variant from scratch.
#[derive(Debug, Clone)]
pub struct SnapshotSide {
    /// Rate variants evaluated (the campaign width).
    pub variants: usize,
    /// Activations executed before the fork point (half the run).
    pub fork_activations: u64,
    /// Wall-clock percentiles of the forked campaign (one shared prefix
    /// plus one resumed snapshot per variant).
    pub wall: WallStats,
    /// Wall-clock percentiles of the naive campaign (every variant
    /// simulated from activation zero).
    pub naive_wall: WallStats,
    /// Whether the ×1.0 (identity) variant's resumed report was
    /// bit-identical to the uninterrupted sequential engine's — the
    /// hard correctness gate.
    pub digest_match: bool,
}

impl SnapshotSide {
    /// Median-wall campaign-level speedup from sharing the prefix.
    pub fn campaign_speedup_p50(&self) -> f64 {
        self.naive_wall.p50_ms / self.wall.p50_ms.max(1e-9)
    }
}

/// The result of one scenario: both engines plus cross-checks.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// Total ranks simulated.
    pub ranks: usize,
    /// Ops executed per run (sum over ranks).
    pub ops_per_run: usize,
    /// Distinct interned op streams in the shared encoding.
    pub streams: usize,
    /// Ops stored once under the shared encoding.
    pub stored_ops: usize,
    /// Dense channels the optimized engine allocated.
    pub channels: usize,
    /// Peak queued entries across all channels.
    pub peak_queued: usize,
    /// Pre-optimization scheduler ("before").
    pub reference: EngineSide,
    /// Dense-channel engine ("after").
    pub optimized: EngineSide,
    /// Conservative parallel engine at each requested thread count.
    pub parallel: Vec<ParallelSide>,
    /// Snapshot-forked rate campaign, when the scenario requested it.
    pub snapshot: Option<SnapshotSide>,
    /// Whether both engines produced bit-identical `RunReport`s.
    pub digest_match: bool,
    /// Whole-run mechanism attribution of one traced sequential run
    /// ([`obs::attr`]) — the per-phase columns `bench_report` diffs
    /// between documents.
    pub attribution: obs::Rollup,
}

impl ScenarioResult {
    /// Median-wall speedup of the optimized engine over the reference.
    pub fn speedup_p50(&self) -> f64 {
        self.reference.wall.p50_ms / self.optimized.wall.p50_ms.max(1e-9)
    }

    /// Median-wall speedup of a parallel side over the sequential
    /// optimized engine, if that thread count was measured.
    pub fn par_speedup_p50(&self, threads: usize) -> Option<f64> {
        let side = self.parallel.iter().find(|p| p.threads == threads)?;
        Some(self.optimized.wall.p50_ms / side.wall.p50_ms.max(1e-9))
    }
}

/// `VmHWM` (peak resident set, kB) of this process, when the platform
/// exposes it.
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Open a per-measurement peak-RSS window: reset the kernel's `VmHWM` to
/// the current RSS (writing `5` to `/proc/self/clear_refs`, best-effort)
/// and return the watermark at window start. Pair with
/// [`hwm_window_delta`].
pub fn hwm_window_begin() -> Option<u64> {
    // Ignored when the kernel forbids it; the delta then only reports
    // growth *beyond* the previous process-lifetime peak, which is still
    // attributable (and zero, rather than a repeat of the largest
    // scenario's peak, when nothing grew).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    vm_hwm_kb()
}

/// Peak-RSS growth (kB) since the matching [`hwm_window_begin`].
pub fn hwm_window_delta(begin: Option<u64>) -> Option<u64> {
    Some(vm_hwm_kb()?.saturating_sub(begin?))
}

/// Host logical-core count recorded alongside parallel measurements —
/// parallel speedups are only meaningful when `threads <= host_cores`.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn time_reps<F: FnMut() -> RunReport>(reps: usize, mut run: F) -> (WallStats, RunReport) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let report = run();
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(report);
    }
    (WallStats::from_samples(samples), last.expect("reps >= 1"))
}

/// Run one scenario through both engines (plus the parallel engine at
/// each requested thread count). Every side gets its own reset-aware
/// peak-RSS window, so memory numbers are per-measurement, not a
/// process-lifetime high-water mark.
pub fn run_scenario(s: &BenchScenario) -> ScenarioResult {
    let fm = bench_flop_model();
    let set = generate_program_set(&s.config, &fm);
    let ops_per_run = set.total_ops();
    let stored_ops = set.stored_ops();
    let streams = set.num_streams();
    let ranks = set.num_ranks();

    // "After": shared encoding, cloned per repetition (Arc bumps).
    let mut probe = cluster_sim::MemProbe::default();
    let hwm = hwm_window_begin();
    let (opt_wall, opt_report) = time_reps(s.reps, || {
        let (report, p) =
            Engine::from_set(&s.machine, set.clone()).run_probed().expect("scenario runs");
        probe = p;
        report
    });
    let optimized = EngineSide {
        wall: opt_wall,
        events_per_sec: ops_per_run as f64 / (opt_wall.p50_ms / 1e3).max(1e-12),
        program_bytes: stored_ops * std::mem::size_of::<cluster_sim::SharedOp>(),
        vm_hwm_delta_kb: hwm_window_delta(hwm),
    };

    // Attribution: one traced sequential run per scenario feeds the
    // per-mechanism rollup columns, and runs the extractor's
    // path-equals-makespan gate on every benchmark fixture. Outside the
    // timed repetitions, so it never skews the wall percentiles.
    let trace = obs::Recorder::enabled();
    let traced_report = Engine::from_set(&s.machine, set.clone())
        .with_recorder(&trace, obs::pids::ENGINE)
        .run()
        .expect("scenario runs");
    assert!(traced_report == opt_report, "{}: tracing perturbed the engine", s.name);
    let attribution = obs::attr::attribute(&trace, obs::pids::ENGINE)
        .expect("benchmark trace attributes cleanly")
        .rollup;
    drop(trace);

    // Conservative parallel engine, same shared encoding.
    let parallel = s
        .par_threads
        .iter()
        .map(|&threads| {
            let mut stats = None;
            let mut matched = true;
            let (wall, report) = time_reps(s.reps, || {
                let (report, st) = Engine::from_set(&s.machine, set.clone())
                    .run_parallel_stats(threads)
                    .expect("scenario runs");
                stats = Some(st);
                report
            });
            matched &= report == opt_report;
            let st = stats.expect("reps >= 1");
            ParallelSide {
                threads,
                wall,
                events_per_sec: ops_per_run as f64 / (wall.p50_ms / 1e3).max(1e-12),
                digest_match: matched,
                windows: st.windows,
                lookahead_us: st.lookahead.map(|l| l.as_secs() * 1e6),
                fell_back: st.fell_back,
            }
        })
        .collect();

    // Snapshot-forked rate campaign: paper's ×1.0/×1.25/×1.5 what-ifs,
    // forked from a shared half-run prefix vs simulated from scratch.
    let snapshot = s.snapshot.then(|| {
        const MULTIPLIERS: [f64; 3] = [1.0, 1.25, 1.50];
        let variants: Vec<MachineSpec> =
            MULTIPLIERS.iter().map(|&m| s.machine.clone().with_cpu_scaled(m)).collect();
        let total = Engine::from_set(&s.machine, set.clone())
            .run_paused(u64::MAX)
            .expect("scenario runs")
            .activations();
        let fork = total / 2;
        let (wall, report) = time_reps(s.reps, || {
            let paused =
                Engine::from_set(&s.machine, set.clone()).run_paused(fork).expect("scenario runs");
            let mut identity = None;
            for v in &variants {
                let r = paused.snapshot().resume_with(v).expect("scenario runs");
                identity.get_or_insert(r);
            }
            identity.expect("at least one variant")
        });
        let (naive_wall, _) = time_reps(s.reps, || {
            let mut identity = None;
            for v in &variants {
                let r = Engine::from_set(v, set.clone()).run().expect("scenario runs");
                identity.get_or_insert(r);
            }
            identity.expect("at least one variant")
        });
        SnapshotSide {
            variants: variants.len(),
            fork_activations: fork,
            wall,
            naive_wall,
            digest_match: report == opt_report,
        }
    });

    // "Before": per-rank op vectors, cloned per repetition (deep copies —
    // exactly what every seed of a pre-optimization campaign paid). The
    // decoded set is element-wise identical to the per-rank trace.
    let programs = set.materialize_all();
    let hwm = hwm_window_begin();
    let (ref_wall, ref_report) = time_reps(s.reps, || {
        ReferenceEngine::new(&s.machine, programs.clone()).run().expect("scenario runs")
    });
    let reference = EngineSide {
        wall: ref_wall,
        events_per_sec: ops_per_run as f64 / (ref_wall.p50_ms / 1e3).max(1e-12),
        program_bytes: ops_per_run * std::mem::size_of::<cluster_sim::Op>(),
        vm_hwm_delta_kb: hwm_window_delta(hwm),
    };

    ScenarioResult {
        name: s.name,
        ranks,
        ops_per_run,
        streams,
        stored_ops,
        channels: probe.channels,
        peak_queued: probe.peak_queued,
        reference,
        optimized,
        parallel,
        snapshot,
        digest_match: ref_report == opt_report,
        attribution,
    }
}

fn side_json(side: &EngineSide, extra: &str) -> String {
    format!(
        concat!(
            "{{\"wall_ms\": {{\"min\": {:.3}, \"p50\": {:.3}, \"p90\": {:.3}}}, ",
            "\"events_per_sec\": {:.0}, \"program_bytes\": {}{}, \"vm_hwm_delta_kb\": {}}}"
        ),
        side.wall.min_ms,
        side.wall.p50_ms,
        side.wall.p90_ms,
        side.events_per_sec,
        side.program_bytes,
        extra,
        side.vm_hwm_delta_kb.map_or("null".to_string(), |v| v.to_string()),
    )
}

fn par_json(p: &ParallelSide) -> String {
    format!(
        concat!(
            "{{\"threads\": {}, \"wall_ms\": {{\"min\": {:.3}, \"p50\": {:.3}, \"p90\": {:.3}}}, ",
            "\"events_per_sec\": {:.0}, \"digest_match\": {}, \"windows\": {}, ",
            "\"lookahead_us\": {}, \"fell_back\": {}}}"
        ),
        p.threads,
        p.wall.min_ms,
        p.wall.p50_ms,
        p.wall.p90_ms,
        p.events_per_sec,
        p.digest_match,
        p.windows,
        p.lookahead_us.map_or("null".to_string(), |v| format!("{v:.3}")),
        p.fell_back,
    )
}

fn snap_json(sn: &SnapshotSide) -> String {
    format!(
        concat!(
            "{{\"variants\": {}, \"fork_activations\": {}, ",
            "\"wall_ms\": {{\"min\": {:.3}, \"p50\": {:.3}, \"p90\": {:.3}}}, ",
            "\"naive_wall_ms\": {{\"min\": {:.3}, \"p50\": {:.3}, \"p90\": {:.3}}}, ",
            "\"campaign_speedup_p50\": {:.2}, \"digest_match\": {}}}"
        ),
        sn.variants,
        sn.fork_activations,
        sn.wall.min_ms,
        sn.wall.p50_ms,
        sn.wall.p90_ms,
        sn.naive_wall.min_ms,
        sn.naive_wall.p50_ms,
        sn.naive_wall.p90_ms,
        sn.campaign_speedup_p50(),
        sn.digest_match,
    )
}

/// Encode results as the `BENCH_engine.json` document (schema
/// `pace-bench/engine-v4`, hand-rolled JSON — no serializer dependency).
/// v2 added per-side `vm_hwm_delta_kb` (reset-aware, replacing the
/// process-lifetime `vm_hwm_kb` of v1), a `parallel` side array with
/// `<name>_par<threads>_p50_ms` check keys, and the measuring host's
/// logical-core count (parallel wall times only mean something relative
/// to it). v3 adds the optional `snapshot` side (forked rate campaign with
/// its campaign-level prefix-sharing speedup, `<name>_snap_after_p50_ms`);
/// Older v3/v4 documents may also carry a side for a since-removed
/// speculative scheduler, with its own `_opt_` check key; readers ignore
/// both.
/// v4 adds the per-scenario `attribution` object (the deterministic
/// [`obs::Rollup`] of one traced run, in feature-schema key order) —
/// `bench_report` renders per-phase deltas from it across documents.
/// The `check` map is unchanged since v2, so older baselines still
/// compare (the substring extractor ignores unknown fields).
pub fn to_json(mode: &str, results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"pace-bench/engine-v4\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"host_cores\": {},\n", host_cores()));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"ranks\": {},\n", r.ranks));
        out.push_str(&format!("      \"ops_per_run\": {},\n", r.ops_per_run));
        out.push_str(&format!("      \"streams\": {},\n", r.streams));
        out.push_str(&format!("      \"stored_ops\": {},\n", r.stored_ops));
        out.push_str(&format!("      \"before\": {},\n", side_json(&r.reference, "")));
        let extra = format!(", \"channels\": {}, \"peak_queued\": {}", r.channels, r.peak_queued);
        out.push_str(&format!("      \"after\": {},\n", side_json(&r.optimized, &extra)));
        if !r.parallel.is_empty() {
            out.push_str("      \"parallel\": [\n");
            for (j, p) in r.parallel.iter().enumerate() {
                out.push_str(&format!(
                    "        {}{}\n",
                    par_json(p),
                    if j + 1 == r.parallel.len() { "" } else { "," }
                ));
            }
            out.push_str("      ],\n");
        }
        if let Some(sn) = &r.snapshot {
            out.push_str(&format!("      \"snapshot\": {},\n", snap_json(sn)));
        }
        let features: Vec<String> =
            r.attribution.features().iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        out.push_str(&format!("      \"attribution\": {{{}}},\n", features.join(", ")));
        out.push_str(&format!("      \"speedup_p50\": {:.2},\n", r.speedup_p50()));
        out.push_str(&format!("      \"digest_match\": {}\n", r.digest_match));
        out.push_str(if i + 1 == results.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ],\n");
    // Flat map the regression checker reads without a JSON parser.
    out.push_str("  \"check\": {\n");
    let mut keys: Vec<String> = Vec::new();
    for r in results {
        keys.push(format!("\"{}_after_p50_ms\": {:.3}", r.name, r.optimized.wall.p50_ms));
        for p in &r.parallel {
            keys.push(format!(
                "\"{}_par{}_after_p50_ms\": {:.3}",
                r.name, p.threads, p.wall.p50_ms
            ));
        }
        if let Some(sn) = &r.snapshot {
            keys.push(format!("\"{}_snap_after_p50_ms\": {:.3}", r.name, sn.wall.p50_ms));
        }
    }
    for (i, key) in keys.iter().enumerate() {
        out.push_str(&format!("    {key}{}\n", if i + 1 == keys.len() { "" } else { "," }));
    }
    out.push_str("  }\n}\n");
    out
}

/// Extract `"<name>_after_p50_ms": <value>` from a baseline document.
pub fn baseline_p50_ms(baseline: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}_after_p50_ms\":");
    let at = baseline.find(&key)? + key.len();
    let rest = baseline[at..].trim_start();
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compare current results against a committed baseline: any scenario
/// present in both whose optimized median wall time regressed by more
/// than `factor`× fails, as does any parallel side whose
/// `<name>_par<threads>` key regressed. A parallel side whose digest
/// diverged from the sequential engine fails unconditionally — that is
/// a correctness bug, not a performance regression. Scenarios missing
/// from the baseline are skipped (new scenarios don't break CI until
/// blessed).
pub fn check_regressions(
    results: &[ScenarioResult],
    baseline: &str,
    factor: f64,
) -> Result<(), String> {
    let mut failures = Vec::new();
    let mut compared = 0;
    for r in results {
        for p in &r.parallel {
            if !p.digest_match {
                failures.push(format!(
                    "{}: parallel engine ({} threads) diverged from sequential digest",
                    r.name, p.threads
                ));
            }
            let par_name = format!("{}_par{}", r.name, p.threads);
            if let Some(base) = baseline_p50_ms(baseline, &par_name) {
                compared += 1;
                let now = p.wall.p50_ms;
                if now > base * factor {
                    failures.push(format!(
                        "{par_name}: p50 {now:.3} ms vs baseline {base:.3} ms (> {factor}x)"
                    ));
                }
            }
        }
        if let Some(sn) = &r.snapshot {
            if !sn.digest_match {
                failures.push(format!(
                    "{}: snapshot-forked identity variant diverged from sequential digest",
                    r.name
                ));
            }
            if let Some(base) = baseline_p50_ms(baseline, &format!("{}_snap", r.name)) {
                compared += 1;
                let now = sn.wall.p50_ms;
                if now > base * factor {
                    failures.push(format!(
                        "{}_snap: p50 {now:.3} ms vs baseline {base:.3} ms (> {factor}x)",
                        r.name
                    ));
                }
            }
        }
        let Some(base) = baseline_p50_ms(baseline, r.name) else { continue };
        compared += 1;
        let now = r.optimized.wall.p50_ms;
        if now > base * factor {
            failures.push(format!(
                "{}: optimized p50 {now:.3} ms vs baseline {base:.3} ms (> {factor}x)",
                r.name
            ));
        }
    }
    if compared == 0 {
        return Err("baseline contains none of the measured scenarios".into());
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenarios_run_and_agree() {
        let all = scenarios(true);
        assert_eq!(all.len(), 3);
        // One tiny scenario end-to-end: both engines bit-identical and
        // sharing strictly smaller than materialized storage.
        let s = BenchScenario {
            name: "unit",
            machine: validation_machine(hwbench::machines::opteron_gige_sim()),
            config: table_config(4, 4),
            reps: 1,
            par_threads: &[2],
            snapshot: true,
        };
        let r = run_scenario(&s);
        assert!(r.digest_match, "engines diverged");
        assert_eq!(r.ranks, 16);
        // Snapshot-forked campaign: identity variant bit-identical, fork
        // point strictly inside the run.
        let sn = r.snapshot.as_ref().expect("snapshot side requested");
        assert!(sn.digest_match, "forked identity variant diverged");
        assert_eq!(sn.variants, 3);
        assert!(sn.fork_activations > 0);
        assert!(sn.campaign_speedup_p50() > 0.0);
        // The parallel side reproduces the sequential digest bit-for-bit.
        assert_eq!(r.parallel.len(), 1);
        assert_eq!(r.parallel[0].threads, 2);
        assert!(r.parallel[0].digest_match, "parallel engine diverged");
        assert!(r.parallel[0].windows > 0 && !r.parallel[0].fell_back);
        assert!(r.stored_ops < r.ops_per_run);
        assert!(r.channels > 0 && r.peak_queued > 0);
        assert!(r.optimized.wall.p50_ms > 0.0 && r.reference.wall.p50_ms > 0.0);
        // The attributed trace covered the run: non-trivial rollup whose
        // makespan is the extractor-gated span makespan.
        assert!(r.attribution.makespan_ps > 0 && r.attribution.messages > 0);
        assert!(r.attribution.compute_ps > 0);
    }

    #[test]
    fn json_roundtrips_through_the_checker() {
        let s = BenchScenario {
            name: "unit",
            machine: validation_machine(hwbench::machines::opteron_gige_sim()),
            config: table_config(2, 2),
            reps: 1,
            par_threads: &[2],
            snapshot: true,
        };
        let r = run_scenario(&s);
        let doc = to_json("smoke", std::slice::from_ref(&r));
        assert!(doc.contains("\"schema\": \"pace-bench/engine-v4\""));
        assert!(doc.contains("\"host_cores\":"));
        assert!(doc.contains("\"vm_hwm_delta_kb\":"));
        assert!(doc.contains("\"attribution\": {\"rollup.makespan_ps\":"));
        let parsed = baseline_p50_ms(&doc, "unit").expect("check key present");
        assert!((parsed - (r.optimized.wall.p50_ms * 1e3).round() / 1e3).abs() < 1e-9);
        let par = baseline_p50_ms(&doc, "unit_par2").expect("parallel check key present");
        assert!((par - (r.parallel[0].wall.p50_ms * 1e3).round() / 1e3).abs() < 1e-9);
        let snap = baseline_p50_ms(&doc, "unit_snap").expect("snapshot check key present");
        let sn = r.snapshot.as_ref().unwrap();
        assert!((snap - (sn.wall.p50_ms * 1e3).round() / 1e3).abs() < 1e-9);
        // Self-comparison passes; an absurdly fast baseline fails.
        check_regressions(std::slice::from_ref(&r), &doc, 2.0).expect("self-check passes");
        let tight = doc.replace(&format!("{:.3}", r.optimized.wall.p50_ms), "0.000001");
        assert!(check_regressions(std::slice::from_ref(&r), &tight, 2.0).is_err());
        // A digest mismatch fails regardless of timing — on any side.
        let mut broken = r;
        broken.parallel[0].digest_match = false;
        broken.snapshot.as_mut().unwrap().digest_match = false;
        let err = check_regressions(std::slice::from_ref(&broken), &doc, 2.0).unwrap_err();
        assert!(err.contains("diverged from sequential digest"));
        assert!(err.contains("snapshot-forked identity variant"));
    }

    #[test]
    fn missing_baseline_scenarios_are_skipped_not_failed() {
        let s = BenchScenario {
            name: "unit",
            machine: validation_machine(hwbench::machines::opteron_gige_sim()),
            config: table_config(2, 2),
            reps: 1,
            par_threads: &[],
            snapshot: false,
        };
        let r = run_scenario(&s);
        let err = check_regressions(&[r], "{\"check\": {}}", 2.0).unwrap_err();
        assert!(err.contains("none of the measured scenarios"));
    }
}
