//! # pace-perfbench — the layered end-to-end benchmark
//!
//! One program for four user-level workloads (`BENCHMARK.json` lists them):
//! it times each end to end through the entry points the `experiments`
//! CLI uses, checks the outputs, and — with tracing on — rebuilds the
//! workload from the layers' public functions under spans, so every
//! crate's share of the wall time shows (see [`tracer`] and
//! [`workloads`]).
//!
//! A run ([`measure`]) goes: cold set-up in several child processes
//! (median = `setup_s`), set-up in this process, one warm-up
//! repetition, timed repetitions for the requested seconds (median =
//! `wall_s`), each after one pass of a fixed [`Reference`] loop whose
//! median time scales `wall_s` and `setup_s` to a fixed host speed, the
//! peak resident set, then the verification repetition
//! outside timing, and — when traced — three traced passes, of which the
//! median-wall one supplies the per-layer metrics.

pub mod tracer;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use tracer::{Trace, Tracer};
use workloads::{Check, Config, Scale, Workload, DEFAULT_SEED};

/// End-to-end metrics, emitted by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("setup_s", "s"), ("scenarios_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, emitted by traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("registry.load_s", "s"),
    ("registry.specs", "count"),
    ("sweep3d.kernel.calibrate_s", "s"),
    ("sweep3d.kernel.flops", "count"),
    ("hwbench.benchmark_s", "s"),
    ("sweep3d.trace.generate_s", "s"),
    ("sweep3d.trace.ops", "count"),
    ("sweep3d.trace.stored_ops", "count"),
    ("sweep3d.trace.streams", "count"),
    ("cluster_sim.run_s", "s"),
    ("cluster_sim.events", "count"),
    ("cluster_sim.events_per_busy_s", "1/s"),
    ("cluster_sim.par.run_s", "s"),
    ("cluster_sim.par.seq_s", "s"),
    ("cluster_sim.par.windows", "count"),
    ("cluster_sim.par.lookahead_us", "us"),
    ("cluster_sim.par.fell_back", "count"),
    ("cluster_sim.par.speedup", "ratio"),
    ("cluster_sim.prefix_s", "s"),
    ("cluster_sim.snapshot_s", "s"),
    ("cluster_sim.resume_s", "s"),
    ("cluster_sim.channels", "count"),
    ("cluster_sim.peak_queued", "count"),
    ("core.evaluate_s", "s"),
    ("core.evaluations", "count"),
    ("models.pace_s", "s"),
    ("models.loggp_s", "s"),
    ("models.hoisie_s", "s"),
    ("sweepsvc.spec.expand_s", "s"),
    ("sweepsvc.plan.build_s", "s"),
    ("sweepsvc.plan.jobs", "count"),
    ("sweepsvc.plan.deduped", "count"),
    ("sweepsvc.plan.groups", "count"),
    ("sweepsvc.plan.fork_resumes", "count"),
    ("sweepsvc.plan.fallbacks", "count"),
    ("sweepsvc.plan.naive_s", "s"),
    ("sweepsvc.plan.speedup", "ratio"),
    ("sweepsvc.cache.hits", "count"),
    ("sweepsvc.cache.misses", "count"),
    ("sweepsvc.cache.entries", "count"),
    ("sweepsvc.cache.hit_ratio", "ratio"),
    ("sweepsvc.cache.useful_ratio", "ratio"),
    ("sweepsvc.pool.workers", "count"),
    ("sweepsvc.pool.busy_s", "s"),
    ("sweepsvc.pool.idle_s", "s"),
    ("sweepsvc.pool.imbalance", "ratio"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
    ("sweep3d.trace.ops_per_stored", "ratio"),
    ("cluster_sim.par.partitions", "count"),
    ("sweepsvc.pool.serial_s", "s"),
    ("sweepsvc.pool.speedup", "ratio"),
];

/// Per-layer time metrics read from span self time: `(metric, span)`.
const SPAN_METRICS: [(&str, &str); 15] = [
    ("registry.load_s", "registry.load"),
    ("sweep3d.kernel.calibrate_s", "sweep3d.kernel.calibrate"),
    ("hwbench.benchmark_s", "hwbench.benchmark"),
    ("sweep3d.trace.generate_s", "sweep3d.trace.generate"),
    ("cluster_sim.run_s", "cluster_sim.run"),
    ("cluster_sim.par.run_s", "cluster_sim.par"),
    ("cluster_sim.prefix_s", "cluster_sim.prefix"),
    ("cluster_sim.snapshot_s", "cluster_sim.snapshot"),
    ("cluster_sim.resume_s", "cluster_sim.resume"),
    ("core.evaluate_s", "core.evaluate"),
    ("models.pace_s", "models.pace"),
    ("models.loggp_s", "models.loggp"),
    ("models.hoisie_s", "models.hoisie"),
    ("sweepsvc.spec.expand_s", "sweepsvc.spec.expand"),
    ("sweepsvc.plan.build_s", "sweepsvc.plan.build"),
];

/// Fewest child processes that each time one cold set-up.
const SETUP_PROCESSES: usize = 7;

/// Seconds of cold set-ups a run makes at least: a microsecond set-up
/// gets hundreds of processes, a half-second one gets [`SETUP_PROCESSES`].
const SETUP_SECONDS: f64 = 0.5;

/// Timed repetitions made even when `--seconds` has passed.
const MIN_REPS: usize = 5;

/// Traced passes per traced run (the median-wall one is reported).
const TRACED_PASSES: usize = 3;

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seconds of timed repetitions.
    pub seconds: f64,
    /// Run the traced pass and emit per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// The `perfbench` executable, started with `--setup-once` to time
    /// cold set-ups.
    pub exe: PathBuf,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Units (rows, runs, scenarios) checked.
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// `(name, value, unit)`: every end-to-end metric, or with tracing
    /// every per-layer metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host record and the figures no bound applies to, as one JSON
    /// object.
    pub report: String,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit the measurement has (non-finite
/// values, which only a zero base produces, print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `a / b`, or 0 when the base is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Start `exe --setup-once` for this workload and configuration, wait
/// for it, and return the seconds its one cold set-up took.
fn setup_in_child(name: &str, cfg: &Config, exe: &Path) -> f64 {
    let scale = if cfg.scale == Scale::Full { "full" } else { "reduced" };
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &cfg.seed.to_string(), "--setup-once", scale])
        .output()
        .unwrap_or_else(|e| panic!("cannot start {}: {e}", exe.display()));
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse()) {
        (true, Ok(secs)) => secs,
        _ => panic!("set-up child failed ({}): {text}", out.status),
    }
}

/// Time one set-up of the workload called `name` in this process;
/// `None` for an unknown name.
pub fn setup_once(name: &str, cfg: &Config) -> Option<f64> {
    use workloads::{DesignSpace, Speculation8000, ValidateTables, WhatIf8000};
    fn time<W: Workload>(w: &W, cfg: &Config) -> f64 {
        let off = Tracer::disabled();
        let t0 = Instant::now();
        let prep = w.prepare(cfg, &off.lane(0));
        let secs = t0.elapsed().as_secs_f64();
        drop(prep);
        secs
    }
    Some(match name {
        ValidateTables::NAME => time(&ValidateTables, cfg),
        Speculation8000::NAME => time(&Speculation8000, cfg),
        WhatIf8000::NAME => time(&WhatIf8000, cfg),
        DesignSpace::NAME => time(&DesignSpace, cfg),
        _ => return None,
    })
}

fn mismatches(a: &[u64], b: &[u64]) -> u64 {
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (differing + a.len().abs_diff(b.len())) as u64
}

/// Seconds the reference loop takes at the host speed the end-to-end
/// times are scaled to.
const REFERENCE_SECS: f64 = 0.025;

/// Dependent loads per reference pass.
const REFERENCE_LOADS: usize = 150_000;

/// Dependent floating-point steps per reference pass.
const REFERENCE_FLOPS: u64 = 1_000_000;

/// The host-speed reference: a fixed loop, in this crate and in no
/// workspace crate, so no change to the program moves it. It is timed
/// before every repetition; the ratio of `REFERENCE_SECS` to its median
/// is the host's speed during the run.
pub struct Reference {
    next: Vec<u32>,
}

impl Reference {
    /// One random cycle over 16 MiB, past the L2 cache as the
    /// simulations' working sets are.
    pub fn new() -> Self {
        let n = 1usize << 22;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        // Sattolo's shuffle leaves one cycle through every slot.
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Reference { next }
    }

    /// Resident size of the buffer, MiB.
    pub fn mb(&self) -> f64 {
        (self.next.len() * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }

    /// Seconds one pass takes now: loads along the cycle, each waiting
    /// for the last, then a dependent floating-point chain.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        let mut p = 0u32;
        for _ in 0..REFERENCE_LOADS {
            p = self.next[p as usize];
        }
        let mut f = 1.0f64;
        for i in 0..REFERENCE_FLOPS {
            f = f * 1.000_000_1 + (i & 7) as f64 * 1e-9;
        }
        std::hint::black_box((p, f));
        t0.elapsed().as_secs_f64()
    }
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

/// Run one workload: set-up, warm-up, timed repetitions, verification
/// and (with `opts.trace`) the traced passes.
pub fn measure<W: Workload>(w: &W, cfg: &Config, opts: &RunOpts) -> Outcome {
    // Allocated before anything else, so the peak resident set less its
    // buffer is the workload's own peak.
    let reference = Reference::new();
    // Set-up as a user pays it: cold, in a fresh process. Several child
    // processes each set up once; the median absorbs the per-process
    // state (heap layout, first-touch faults) that moves a single
    // process's figure by up to 2x.
    let mut setups = Vec::new();
    let started = Instant::now();
    while setups.len() < SETUP_PROCESSES || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        setups.push(setup_in_child(W::NAME, cfg, &opts.exe));
    }
    let prep = w.prepare(cfg, &Tracer::disabled().lane(0));

    let (warm, _) = w.run(cfg, &prep);
    let warm_units = w.units(&warm);
    let mut walls = Vec::new();
    let mut refs = Vec::new();
    let mut drift = Vec::new();
    let timed = Instant::now();
    while walls.len() < MIN_REPS || timed.elapsed().as_secs_f64() < opts.seconds {
        refs.push(reference.time());
        let (out, d) = w.run(cfg, &prep);
        walls.push(d.as_secs_f64());
        drift.push(mismatches(&w.units(&out), &warm_units));
    }
    let peak = peak_rss_mb() - reference.mb();
    let mut sorted_walls = walls.clone();
    sorted_walls.sort_by(f64::total_cmp);

    let check = w.verify(cfg, &prep, &warm);
    let n = warm_units.len().max(1) as u64;
    let off_ref = mismatches(&warm_units, &check.reference);
    let mut failures = check.failures.clone();
    let mut failed = off_ref + check.failures.len().min(n as usize) as u64;
    failed += drift.iter().map(|&d| d.max(off_ref)).sum::<u64>();
    let mut attempted = n * (walls.len() as u64 + 2);
    if off_ref > 0 {
        failures.push(format!("{off_ref} of {n} units differ from the verification reference"));
    }
    let drifted = drift.iter().filter(|&&d| d > 0).count();
    if drifted > 0 {
        failures.push(format!("{drifted} timed repetitions disagree with the warm-up"));
    }
    let digest = workloads::fnv(check.reference.iter().copied());
    let golden_checked = cfg.seed == DEFAULT_SEED && cfg.scale == Scale::Full;
    if golden_checked && digest != W::GOLDEN {
        failed += n;
        failures.push(format!("digest {digest:#018x} differs from recorded {:#018x}", W::GOLDEN));
    }

    // The median repetition. On a shared host the fastest one depends on
    // whether a quiet spell fell inside the run: across runs it spread
    // twice as wide as the median did.
    let wall = median(&walls);
    let setup = median(&setups);
    // The host's speed drifts over minutes; the end-to-end times are
    // scaled to the speed at which the reference loop takes
    // `REFERENCE_SECS`. Per-layer figures stay in host seconds.
    let host_speed = REFERENCE_SECS / median(&refs);
    let (scaled_wall, scaled_setup) = (wall * host_speed, setup * host_speed);
    let mut recon = None;
    let metrics = if opts.trace {
        // Several traced passes; the one with the median traced wall
        // supplies the per-layer figures. Every pass must reproduce the
        // reference bit for bit.
        let mut passes = Vec::with_capacity(TRACED_PASSES);
        for _ in 0..TRACED_PASSES {
            let tr = Tracer::enabled();
            let t0 = Instant::now();
            let out = w.traced(cfg, &tr);
            let trace = tr.finish(t0.elapsed());
            let diverged = mismatches(&w.units(&out), &check.reference);
            attempted += n;
            if diverged > 0 {
                failed += diverged;
                failures.push(format!(
                    "traced rebuild differs from the untraced output in {diverged} units"
                ));
            }
            passes.push(trace);
        }
        passes.sort_by(|a, b| a.wall.total_cmp(&b.wall));
        let trace = &passes[passes.len() / 2];
        recon = Some(trace.reconcile());
        per_layer(trace, &check, wall, setup)
    } else {
        vec![
            ("wall_s", scaled_wall, "s"),
            ("setup_s", scaled_setup, "s"),
            ("scenarios_per_s", ratio(check.scenarios as f64, scaled_wall), "1/s"),
            ("peak_rss_mb", peak, "MB"),
        ]
    };

    let sorted = &sorted_walls;
    let nproc = sweepsvc::available_workers();
    let mut fields = vec![
        ("workload", format!("\"{}\"", W::NAME)),
        ("seed", cfg.seed.to_string()),
        ("scale", format!("\"{}\"", if cfg.scale == Scale::Full { "full" } else { "reduced" })),
        ("nproc", nproc.to_string()),
        ("single_core_host", (nproc == 1).to_string()),
        ("pool_workers", cfg.workers.to_string()),
        ("engine_threads", check.engine_threads.to_string()),
        ("profile", format!("\"{}\"", if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("reps", walls.len().to_string()),
        ("setup_processes", setups.len().to_string()),
        ("host_speed", num(host_speed)),
        ("reference_s_median", num(median(&refs))),
        ("host_setup_s", num(setup)),
        ("host_wall_s", num(wall)),
        ("wall_s_min", num(sorted[0])),
        ("wall_s_q1", num(sorted[sorted.len() / 4])),
        ("wall_s_q3", num(sorted[sorted.len() * 3 / 4])),
        ("wall_s_max", num(sorted[sorted.len() - 1])),
        ("scenarios_per_rep", check.scenarios.to_string()),
        ("sim_events_per_rep", check.sim_events.to_string()),
        ("sim_events_per_s", num(ratio(check.sim_events as f64, scaled_wall))),
        ("failed_frac", num(ratio(failed as f64, attempted as f64))),
        ("digest", format!("\"{digest:#018x}\"")),
        ("golden_checked", golden_checked.to_string()),
    ];
    if walls.len() >= 100 {
        // The highest percentile with at least ten samples beyond it.
        fields.push(("wall_s_p90", num(sorted[sorted.len() * 9 / 10])));
    }
    if let Some(e) = check.max_abs_error_pct {
        fields.push(("max_abs_error_pct", num(e)));
    }
    if let Some(r) = recon {
        let share = ratio(r.unattributed, r.capacity);
        fields.push(("unattributed_share", num(share)));
        fields.push(("reconciled", (share <= 0.05).to_string()));
    }
    let failure_list: Vec<String> =
        failures.iter().map(|f| format!("\"{}\"", obs::json::escape(f))).collect();
    fields.push(("failures", format!("[{}]", failure_list.join(", "))));
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    Outcome {
        workload: W::NAME,
        attempted,
        failed: failed.min(attempted),
        failures,
        metrics,
        report: format!("{{\"perfbench\": {{{}}}}}", body.join(", ")),
    }
}

/// Per-layer metrics of a traced pass, with the verification counters
/// and the reference-path speedups over `wall_s`.
fn per_layer(
    trace: &Trace,
    check: &Check,
    wall: f64,
    setup: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let st = trace.self_times();
    let spans = trace.counts();
    let mut v: BTreeMap<&str, f64> = trace.counters.clone();
    for &(name, value) in &check.counters {
        v.insert(name, value);
    }
    for (metric, span) in SPAN_METRICS {
        v.insert(metric, st.get(span).copied().unwrap_or(0.0));
    }
    let count = |name: &str| spans.get(name).copied().unwrap_or(0) as f64;
    v.insert("registry.specs", count("registry.load"));
    v.insert("core.evaluations", count("core.evaluate"));
    let get = |v: &BTreeMap<&str, f64>, name: &str| v.get(name).copied().unwrap_or(0.0);
    let sim_busy: f64 =
        st.iter().filter(|(n, _)| n.starts_with("cluster_sim.")).map(|(_, s)| s).sum();
    v.insert("cluster_sim.events_per_busy_s", ratio(get(&v, "cluster_sim.events"), sim_busy));
    if let Some(b) = check.baseline {
        v.insert(b.time_name, b.secs);
        v.insert(b.speedup_name, ratio(b.secs, wall));
    }
    let (hits, misses) = (get(&v, "sweepsvc.cache.hits"), get(&v, "sweepsvc.cache.misses"));
    v.insert("sweepsvc.cache.hit_ratio", ratio(hits, hits + misses));
    v.insert("sweepsvc.cache.useful_ratio", ratio(get(&v, "sweepsvc.cache.entries"), misses));
    v.insert(
        "sweep3d.trace.ops_per_stored",
        ratio(get(&v, "sweep3d.trace.ops"), get(&v, "sweep3d.trace.stored_ops")),
    );
    let busy = trace.worker_busy();
    let total: f64 = busy.iter().sum();
    let most = busy.iter().copied().fold(0.0, f64::max);
    v.insert("sweepsvc.pool.workers", busy.len() as f64);
    v.insert("sweepsvc.pool.busy_s", total);
    v.insert("sweepsvc.pool.imbalance", ratio(most, ratio(total, busy.len() as f64)));
    let r = trace.reconcile();
    v.insert("sweepsvc.pool.idle_s", r.idle);
    v.insert("unattributed_s", r.unattributed);
    v.insert("traced_wall_s", trace.wall);
    v.insert("trace_overhead_s", trace.wall - (setup + wall));
    PER_LAYER.iter().map(|&(name, unit)| (name, get(&v, name), unit)).collect()
}

/// Run the workload called `name`; `None` for an unknown name.
pub fn measure_named(name: &str, cfg: &Config, opts: &RunOpts) -> Option<Outcome> {
    use workloads::{DesignSpace, Speculation8000, ValidateTables, WhatIf8000};
    Some(match name {
        ValidateTables::NAME => measure(&ValidateTables, cfg, opts),
        Speculation8000::NAME => measure(&Speculation8000, cfg, opts),
        WhatIf8000::NAME => measure(&WhatIf8000, cfg, opts),
        DesignSpace::NAME => measure(&DesignSpace, cfg, opts),
        _ => return None,
    })
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] =
    ["validate_tables", "speculation_8000pe", "whatif_8000pe", "design_space"];
