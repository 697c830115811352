//! The `experiments` binary: regenerate any table or figure of the paper.
//!
//! ```text
//! experiments table1|table2|table3      validation tables (measurement vs prediction)
//! experiments fig1                      wavefront illustration
//! experiments fig8|fig9                 speculative scaling curves
//! experiments hmcl [--machine <name|path>]
//!                                        Fig. 7-style HMCL listing (fitted via the registry)
//! experiments concurrence               §6 related-model agreement
//! experiments ablation                  opcode vs coarse benchmarking
//! experiments blocking                  mk/mmi blocking study
//! experiments asci-goals                §6 ASCI-target extrapolation
//! experiments rendezvous                eager-vs-rendezvous ablation
//! experiments strong-scaling            strong-scaling extension study
//! experiments robustness                Table 2 error structure under 8 re-seeded campaigns
//! experiments host-validate             the whole method on this host (threaded ranks, wall clock)
//! experiments sweep [--machine <name|path>] [--backend <pace|loggp|hoisie|dessim>[,...]]
//!                   [--workload <wavefront|stencil|allreduce|path>] [--plan] [--json]
//!                                        registry sweep: resolve a machine by registry name or
//!                                        spec-file path (default opteron-myrinet) and evaluate
//!                                        a workload ladder (default wavefront) across backends
//!                                        (default: every backend that models it on the machine);
//!                                        --workload swaps the problem axis for another template
//!                                        of the workload library or a spec file (an explicit
//!                                        unsupported backend pair is a structured error);
//!                                        --plan routes the grid through the campaign execution
//!                                        planner (grid dedup + snapshot-prefix sharing on a rate
//!                                        what-if axis), digest-checked against the naive path
//! experiments sweep --store DIR [--resume] [--machine ...] [--json]
//!                                        resumable registry sweep: persist completed scenario-id
//!                                        ranges in a content-addressed chunk store; --resume
//!                                        serves valid stored ranges without recomputation; the
//!                                        merge is bit-identity-checked against a serial
//!                                        in-process reference run
//! experiments speculation [--problem 20m|1b] [--workload <wavefront|stencil|allreduce>]
//!                         [--ranks N] [--repeat K] [--iterations I] [--json]
//!                                        discrete-event run of a speculative scenario (default
//!                                        8000 ranks), seed-replicated over the worker pool;
//!                                        --workload replays another template's DES lowering on
//!                                        the same hypothetical machine
//! experiments timeline                  pipeline Gantt chart (simulated)
//! experiments obs                       telemetry demo: phase spans + span/stats cross-check
//! experiments attribute [--px N] [--py N] [--workload <wavefront|stencil|allreduce>] [--json]
//!                                        critical-path attribution of a traced run: per-mechanism
//!                                        makespan breakdown, per-rank slack, top critical edges
//!                                        (the global --trace writes the same run's spans)
//! experiments csv [dir]                 write tables/figures as CSV files
//! experiments validate                  all three tables + summary stats
//! experiments all                       everything above
//!
//! Global flags (any subcommand):
//!   --trace <path>     write a Chrome trace_event JSON of the run (Perfetto-loadable)
//!   --metrics <path>   write the metrics registry as JSON
//!   --json             machine-readable output where supported (sweep, speculation,
//!                      attribute)
//! ```

use experiments::speculation::Problem;
use experiments::{
    ablation, asci_goals, attribute, blocking, hmcl, observability, related, rendezvous, report,
    speculation, strong_scaling, usage_error, validation, wavefront_fig, FlagReader,
};
use obs::Obs;

/// Global flags extracted from the command line.
struct Flags {
    trace: Option<String>,
    metrics: Option<String>,
    json: bool,
}

impl Flags {
    /// Pull `--trace <p>`, `--metrics <p>` and `--json` out of `args`,
    /// leaving the subcommand and its operands.
    fn extract(args: &mut Vec<String>) -> Flags {
        let mut take_value = |flag: &str| -> Option<String> {
            let i = args.iter().position(|a| a == flag)?;
            if i + 1 >= args.len() {
                usage_error(format!("{flag} requires a path argument"));
            }
            args.remove(i);
            Some(args.remove(i))
        };
        let trace = take_value("--trace");
        let metrics = take_value("--metrics");
        let json = args.iter().position(|a| a == "--json").map(|i| args.remove(i)).is_some();
        Flags { trace, metrics, json }
    }

    /// Write the requested telemetry files after the subcommand ran. The
    /// trace streams to its file; a file that cannot be written exits 1
    /// naming its path.
    fn export(&self, obs: &Obs) {
        let fail = |path: &str, e: std::io::Error| -> ! {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1)
        };
        if let Some(path) = &self.trace {
            let write = || -> std::io::Result<()> {
                let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
                obs::chrome::export_to(&obs.recorder, true, &mut out)?;
                std::io::Write::flush(&mut out)
            };
            write().unwrap_or_else(|e| fail(path, e));
            eprintln!("wrote trace to {path}");
        }
        if let Some(path) = &self.metrics {
            std::fs::write(path, obs.metrics.snapshot().to_json())
                .unwrap_or_else(|e| fail(path, e));
            eprintln!("wrote metrics to {path}");
        }
    }
}

/// Resolve a builtin machine's simulated half from the registry (all four
/// builtins carry one).
fn sim_machine(name: &str) -> cluster_sim::MachineSpec {
    registry::builtin(name)
        .and_then(|m| m.sim)
        .unwrap_or_else(|| panic!("builtin machine '{name}' with a sim half"))
}

fn run_validation_table(which: u8, obs: &Obs) {
    let (label, rows, machine): (_, &[validation::RowSpec], _) = match which {
        1 => ("Table 1", &validation::TABLE1_ROWS[..], sim_machine("pentium3-myrinet")),
        2 => ("Table 2", &validation::TABLE2_ROWS[..], sim_machine("opteron-gige")),
        3 => ("Table 3", &validation::TABLE3_ROWS[..], sim_machine("altix-numalink")),
        _ => unreachable!(),
    };
    let pid_base = (which as u32 - 1) * validation::TABLE_PID_STRIDE;
    let table = validation::run_table_observed(label, rows, &machine, obs, pid_base);
    println!("{}", report::validation_markdown(&table));
}

fn run_fig(problem: Problem) {
    let curve = speculation::run(problem);
    println!("{}", report::speculation_markdown(&curve));
}

fn run_concurrence() {
    for problem in [Problem::TwentyMillion, Problem::OneBillion] {
        println!("### Concurrence on {}\n", problem.figure());
        let pts = related::run(problem);
        println!("{}", report::concurrence_markdown(&pts));
        println!("worst spread: {:.3}x\n", related::worst_spread(&pts));
    }
}

fn run_ablation() {
    for result in ablation::paper_cases() {
        println!("### {} ({} GHz opcode table)", result.machine, result.clock_ghz);
        println!("measured            : {:>8.2} s", result.measured_secs);
        println!(
            "coarse prediction   : {:>8.2} s  (error {:+.2}%)",
            result.coarse_secs, result.coarse_error_pct
        );
        println!(
            "opcode prediction   : {:>8.2} s  (error {:+.2}%)",
            result.opcode_secs, result.opcode_error_pct
        );
        println!();
    }
}

fn run_blocking() {
    let machine = sim_machine("pentium3-myrinet");
    let pts = blocking::sweep(&machine, 20, 2, 4, &[1, 2, 5, 10, 20], &[1, 2, 3, 6]);
    println!("### Blocking study: 20^3/PE on 2x4, {}\n", machine.name);
    println!("| mk | mmi | measured(s) | predicted(s) |");
    println!("|---|---|---|---|");
    for p in &pts {
        println!("| {} | {} | {:.4} | {:.4} |", p.mk, p.mmi, p.measured_secs, p.predicted_secs);
    }
    if let Some(b) = blocking::best(&pts) {
        println!("\nbest blocking: mk={} mmi={} ({:.4}s)\n", b.mk, b.mmi, b.measured_secs);
    }
}

fn run_asci() {
    for problem in [Problem::TwentyMillion, Problem::OneBillion] {
        let e = asci_goals::paper_setting(problem);
        println!("### {:?} problem at {} PEs", e.problem, e.pes);
        println!("benchmark (1 group, 12 iter): {:.2} s", e.benchmark_secs);
        println!(
            "{} groups x {} steps        : {:.1} h  ({:.0}x the {:.1} h goal)\n",
            e.groups,
            e.time_steps,
            e.full_problem_hours(),
            e.overrun(),
            e.goal_secs / 3600.0
        );
    }
}

/// `experiments hmcl [--machine <name|path>]`: characterise a registry
/// machine's simulated half and render the fitted model as an HMCL
/// listing.
fn run_hmcl(args: &[String]) {
    let name = match args {
        [] => "pentium3-myrinet",
        [flag, value] if flag == "--machine" => value.as_str(),
        _ => usage_error("usage: experiments hmcl [--machine <name|path>]"),
    };
    let machine = registry::resolve(name).unwrap_or_else(|e| usage_error(e));
    let fitted = hwbench::characterise(&machine, &[50], 2).unwrap_or_else(|e| usage_error(e));
    println!("{}", hmcl::render(&fitted.analytic, 125_000));
}

fn run_rendezvous() {
    let study = rendezvous::pentium3_study();
    println!(
        "### Protocol ablation on {} (threshold {} B)\n",
        study.machine, study.threshold_bytes
    );
    println!("| stages | eager(s) | rendezvous(s) |");
    println!("|---|---|---|");
    for (stages, eager, rdv) in &study.points {
        println!("| {stages:.0} | {eager:.4} | {rdv:.4} |");
    }
    println!(
        "\nfill slope: eager {:.5} s/stage, rendezvous {:.5} s/stage ({:.2}x steeper)\n",
        study.eager_slope,
        study.rendezvous_slope,
        study.slope_ratio()
    );
}

fn run_strong_scaling() {
    let pts = strong_scaling::default_study();
    println!("### Strong scaling: 120x120x40 on {}\n", sim_machine("opteron-gige").name);
    println!("| PEs | array | measured(s) | predicted(s) | speedup | efficiency |");
    println!("|---|---|---|---|---|---|");
    for p in &pts {
        println!(
            "| {} | {}x{} | {:.3} | {:.3} | {:.2} | {:.2} |",
            p.pes,
            p.px,
            p.py,
            p.measured_secs,
            p.predicted_secs,
            p.speedup,
            p.speedup / p.pes as f64
        );
    }
    println!();
}

fn run_validate(obs: &Obs) {
    for which in 1..=3u8 {
        run_validation_table(which, obs);
    }
}

/// The sweep's default problem ladder for a template: five array sizes
/// up to 16 ranks, labelled by shape.
fn sweep_ladder(kind: pace_core::WorkloadKind) -> Vec<(String, pace_core::Workload)> {
    use pace_core::{AllreduceParams, StencilParams, Sweep3dParams, WorkloadKind};
    let arrays = [(1, 1), (1, 2), (2, 2), (2, 4), (4, 4)];
    match kind {
        WorkloadKind::Wavefront => arrays
            .map(|(px, py)| (format!("{px}x{py}"), Sweep3dParams::speculative_20m(px, py).into()))
            .into(),
        WorkloadKind::Stencil => arrays
            .map(|(px, py)| (format!("{px}x{py}"), StencilParams::weak_scaling(px, py).into()))
            .into(),
        WorkloadKind::Allreduce => [1, 2, 4, 8, 16]
            .map(|procs| (format!("p{procs}"), AllreduceParams::cg_like(procs).into()))
            .into(),
    }
}

/// `experiments sweep [flags]`: resolve a machine through the registry
/// (default `opteron-myrinet`) and evaluate a workload ladder (default the
/// small Fig. 8 ladder) across predictor backends via the sweep engine's
/// backend axis. With `--plan` the grid gains a flop-rate what-if axis and
/// a mid-run DES fork, and runs through the campaign execution planner;
/// with `--store` completed id ranges persist in a chunk store and
/// `--resume` serves them on a rerun. Planned and stored runs are
/// digest-checked against a serial in-process reference (any divergence is
/// a hard failure).
fn run_sweep(args: &[String], obs: &Obs, json: bool) {
    use pace_core::WorkloadKind;
    use wavefront_models::Backend;
    let mut machine_arg = None;
    let mut backend_arg = None;
    let mut workload_arg = None;
    let mut plan = false;
    let mut store_arg = None;
    let mut resume = false;
    let mut flags = FlagReader::new("sweep", args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--machine" => machine_arg = Some(flags.value()),
            "--backend" => backend_arg = Some(flags.value()),
            "--workload" => workload_arg = Some(flags.value()),
            "--plan" => plan = true,
            "--store" => store_arg = Some(flags.value()),
            "--resume" => resume = true,
            other => flags.unknown(other),
        }
    }
    if plan && store_arg.is_some() {
        usage_error("--plan and --store are separate execution paths; pick one");
    }
    if resume && store_arg.is_none() {
        usage_error("--resume needs a chunk store (--store DIR)");
    }
    // A bare identifier selects a template's default ladder; anything
    // else is tried as a workload spec-file path holding one problem.
    let problems = match workload_arg.map(|s| (s, WorkloadKind::parse(s))) {
        None => sweep_ladder(WorkloadKind::Wavefront),
        Some((_, Ok(kind))) => sweep_ladder(kind),
        Some((path, Err(_))) => {
            let w = registry::resolve_workload(path).unwrap_or_else(|e| usage_error(e));
            vec![(format!("{}-{}pe", w.template().name(), w.pes()), w)]
        }
    };
    let template = problems[0].1.template();
    let machine_arg = machine_arg.unwrap_or("opteron-myrinet");
    let machine = registry::resolve(machine_arg).unwrap_or_else(|e| usage_error(e));
    let backends: Vec<Backend> = match backend_arg {
        Some(list) => list
            .split(',')
            .map(|s| Backend::parse(s.trim()).unwrap_or_else(|e| usage_error(e)))
            .collect(),
        // Default: every backend the machine can serve for this workload
        // (the wavefront-only closed forms drop off the stencil and
        // allreduce grids; an explicit --backend list is still validated
        // below and fails with a structured error).
        None => {
            let all =
                if machine.sim.is_some() { &Backend::ALL[..] } else { &Backend::ANALYTIC[..] };
            all.iter().copied().filter(|b| b.supports(template)).collect()
        }
    };
    let mut spec = sweepsvc::SweepSpec::new().machine(machine.clone()).backends(backends.clone());
    if plan && machine.sim.is_some() {
        // A rate what-if axis plus a fork point inside every ladder cell
        // except 1x1 (13..640 total activations) gives the planner shared
        // prefixes to exploit; analytic-only machines keep the plain grid
        // (the planner still dedupes).
        spec = spec.rate_multipliers(vec![1.0, 1.25, 1.5]).des_fork(30);
    }
    for (label, w) in problems {
        spec = spec.problem(label, w);
    }
    spec.validate().unwrap_or_else(|e| usage_error(e));
    let engine = sweepsvc::SweepEngine::new().with_obs(obs.clone());
    let (results, plan_stats, store_stats) = if plan {
        let out = engine.run_planned(&spec);
        (out.results, out.stats.plan, None)
    } else if let Some(dir) = store_arg {
        let chunks = sweepsvc::ChunkStore::open(dir).unwrap_or_else(|e| usage_error(e));
        let out = sweepsvc::run_stored(&engine, &spec, &chunks, resume)
            .unwrap_or_else(|e| usage_error(e));
        (out.results, None, Some(out.stats))
    } else {
        (engine.run(&spec).results, None, None)
    };
    let parity = plan_stats.is_some() || store_stats.is_some();
    if parity && sweepsvc::SweepEngine::with_workers(1).run(&spec).results != results {
        let path = if plan { "planned" } else { "stored" };
        eprintln!("FATAL: {path} sweep diverged from the serial in-process reference");
        std::process::exit(1);
    }
    if json {
        let rows: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    "    {{\"label\": \"{}\", \"pes\": {}, \"backend\": \"{}\", \"total_secs\": {:.9}}}",
                    r.label,
                    r.pes,
                    r.backend.name(),
                    r.total_secs
                )
            })
            .collect();
        println!("{{");
        println!("  \"machine\": \"{}\",", machine.id);
        println!("  \"workload\": \"{}\",", template.kind());
        let names: Vec<String> = backends.iter().map(|b| format!("\"{}\"", b.name())).collect();
        println!("  \"backends\": [{}],", names.join(", "));
        if parity {
            println!("  \"parity\": true,");
        }
        if let Some(p) = plan_stats {
            println!(
                "  \"plan\": {{\"scenarios\": {}, \"jobs\": {}, \"deduped\": {}, \"groups\": {}, \"fork_resumes\": {}, \"fallbacks\": {}}},",
                p.scenarios, p.jobs, p.deduped, p.groups, p.fork_resumes, p.fallbacks
            );
        }
        if let Some(s) = store_stats {
            // Every miss is evaluated and saved, so misses are the ranges
            // completed by this run.
            println!(
                "  \"store\": {{\"ranges\": {}, \"completed\": {}, \"store_hits\": {}, \"store_misses\": {}}},",
                s.ranges, s.store_misses, s.store_hits, s.store_misses
            );
        }
        println!("  \"results\": [\n{}\n  ]", rows.join(",\n"));
        println!("}}");
        return;
    }
    println!(
        "### Registry sweep: {} workload on {} across {} backend(s)\n",
        template.kind(),
        machine.id,
        backends.len()
    );
    if let Some(p) = plan_stats {
        println!(
            "planned == naive : yes (bit-identical); {} scenarios -> {} jobs ({} deduped), {} fork group(s) / {} resume(s) / {} fallback(s)\n",
            p.scenarios, p.jobs, p.deduped, p.groups, p.fork_resumes, p.fallbacks
        );
    }
    if let Some(s) = store_stats {
        println!("stored == in-process : yes (bit-identical); {}", s.summary());
    }
    println!("| array | PEs | backend | predicted(s) |");
    println!("|---|---|---|---|");
    for r in &results {
        println!("| {} | {} | {} | {:.4} |", r.label, r.pes, r.backend.name(), r.total_secs);
    }
    println!();
}

/// `experiments speculation`: execute a speculative scenario through the
/// discrete-event engine itself (not the analytic model) — the full
/// SWEEP3D trace at up to 8000 ranks, or another template's DES lowering
/// on the same hypothetical machine, replicated under noise seeds over the
/// worker pool.
fn run_speculation(args: &[String], json: bool) {
    let mut spec = speculation::CampaignSpec {
        workload: pace_core::WorkloadKind::Wavefront,
        problem: Problem::TwentyMillion,
        ranks: 8000,
        iterations: 2,
        repeat: 3,
    };
    let mut flags = FlagReader::new("speculation", args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--problem" => {
                spec.problem = match flags.value() {
                    "20m" => Problem::TwentyMillion,
                    "1b" => Problem::OneBillion,
                    other => usage_error(format!("unknown problem {other:?} (expected 20m or 1b)")),
                }
            }
            "--workload" => {
                spec.workload =
                    pace_core::WorkloadKind::parse(flags.value()).unwrap_or_else(|e| usage_error(e))
            }
            "--ranks" => spec.ranks = flags.positive(),
            "--repeat" => spec.repeat = flags.positive(),
            "--iterations" => spec.iterations = flags.positive(),
            other => flags.unknown(other),
        }
    }
    let campaign = speculation::simulate(&spec, sweepsvc::available_workers())
        .unwrap_or_else(|e| usage_error(e));
    print!("{}", campaign.render(json));
}

fn run_timeline() {
    use cluster_sim::timeline;
    use sweep3d::trace::{generate_program_set, FlopModel};
    use sweep3d::ProblemConfig;
    let machine = sim_machine("pentium3-myrinet");
    let mut config = ProblemConfig::weak_scaling(12, 1, 6);
    config.iterations = 1;
    config.mk = 4;
    let fm = FlopModel::calibrate(&config, 8);
    let set = generate_program_set(&config, &fm);
    let tl = timeline::record(&machine, set).expect("timeline run");
    println!("### Pipeline timeline: 12^3/PE on a 1x6 array, one iteration\n");
    println!("{}", tl.render(100));
    println!(
        "mean compute fraction: {:.1}% (pipeline fill/drain is the idle wedge)",
        tl.compute_fraction() * 100.0
    );
}

fn run_csv(dir: &str) {
    use std::fs;
    let fail = |path: &str, e: std::io::Error| -> ! {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1)
    };
    fs::create_dir_all(dir).unwrap_or_else(|e| fail(dir, e));
    let write = |name: &str, data: String| {
        let path = format!("{dir}/{name}");
        fs::write(&path, data).unwrap_or_else(|e| fail(&path, e));
        println!("wrote {path}");
    };
    write("table1.csv", report::validation_csv(&validation::table1()));
    write("table2.csv", report::validation_csv(&validation::table2()));
    write("table3.csv", report::validation_csv(&validation::table3()));
    write("fig8.csv", report::speculation_csv(&speculation::run(Problem::TwentyMillion)));
    write("fig9.csv", report::speculation_csv(&speculation::run(Problem::OneBillion)));
}

/// `obs` itself when it records spans (under `--trace`), else a bundle
/// with a recorder of its own that shares `obs`'s metrics registry: for
/// the steps that read their spans back.
fn recording(obs: &Obs) -> Obs {
    if obs.is_enabled() {
        return obs.clone();
    }
    Obs { recorder: std::sync::Arc::new(obs::Recorder::enabled()), ..obs.clone() }
}

fn run_obs(obs: &Obs) {
    let report = observability::run_representative(obs);
    print!("{}", observability::render(&report));
    if !report.all_exact() {
        std::process::exit(1);
    }
}

fn usage() -> ! {
    usage_error(
        "usage: experiments [--trace <path>] [--metrics <path>] [--json] <table1|table2|table3|fig1|fig8|fig9|hmcl [--machine <name|path>]|concurrence|ablation|blocking|asci-goals|rendezvous|strong-scaling|sweep [--machine <name|path>] [--backend <list>] [--workload <kind|path>] [--plan] [--store DIR [--resume]]|speculation [--problem 20m|1b] [--workload <kind>] [--ranks N] [--repeat K] [--iterations I]|timeline|obs|attribute [--px N] [--py N] [--workload <kind>]|robustness|host-validate|csv [dir]|validate|all>",
    )
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::extract(&mut args);
    let arg = args.first().cloned().unwrap_or_else(|| usage());
    // The run-wide recorder is only paid for when a `--trace` export
    // consumes its spans; `obs` and `attribute` read their own spans back
    // and record into a recorder of their own otherwise.
    let obs = &if flags.trace.is_some() { Obs::enabled() } else { Obs::disabled() };
    match arg.as_str() {
        "table1" => run_validation_table(1, obs),
        "table2" => run_validation_table(2, obs),
        "table3" => run_validation_table(3, obs),
        "fig1" => println!("{}", wavefront_fig::figure1_text()),
        "fig8" => run_fig(Problem::TwentyMillion),
        "fig9" => run_fig(Problem::OneBillion),
        "hmcl" => run_hmcl(&args[1..]),
        "concurrence" => run_concurrence(),
        "ablation" => run_ablation(),
        "blocking" => run_blocking(),
        "asci-goals" => run_asci(),
        "rendezvous" => run_rendezvous(),
        "strong-scaling" => run_strong_scaling(),
        "sweep" => run_sweep(&args[1..], obs, flags.json),
        "speculation" => run_speculation(&args[1..], flags.json),
        "timeline" => run_timeline(),
        "obs" => run_obs(&recording(obs)),
        "attribute" => attribute::run(&args[1..], &recording(obs), flags.json),
        "robustness" => {
            let r = experiments::robustness::run(
                &sim_machine("opteron-gige"),
                &experiments::validation::TABLE2_ROWS,
                8,
            );
            println!("### Measurement-campaign robustness (Table 2 machine, 8 reseeds)\n");
            println!("| campaign seed | mean signed error | max |error| |");
            println!("|---|---|---|");
            for c in &r.campaigns {
                println!("| {:#x} | {:+.2}% | {:.2}% |", c.seed, c.mean_signed, c.max_abs);
            }
            println!(
                "\ngrand mean {:+.2}%, campaign spread (std) {:.2}%\n",
                r.grand_mean, r.mean_spread
            );
        }
        "host-validate" => {
            let v = experiments::host_validation::run(20, 2, 2, 5);
            println!("### Host validation (threaded ranks, wall clock)\n");
            println!("achieved rate (serial profiling): {:.1} MFLOPS", v.achieved_mflops);
            println!("rank oversubscription          : {:.1}x", v.oversubscription);
            println!("measured (median of {} runs)   : {:.4} s", v.reps, v.measured_secs);
            println!("PACE prediction                : {:.4} s", v.predicted_secs);
            println!("error                          : {:+.2}%", v.error_pct);
        }
        "csv" => run_csv(args.get(1).map(String::as_str).unwrap_or("results")),
        "validate" => run_validate(obs),
        "all" => {
            println!("{}", wavefront_fig::figure1_text());
            run_hmcl(&[]);
            run_validate(obs);
            run_fig(Problem::TwentyMillion);
            run_fig(Problem::OneBillion);
            run_concurrence();
            run_ablation();
            run_blocking();
            run_asci();
            run_rendezvous();
            run_strong_scaling();
            run_sweep(&[], obs, flags.json);
            run_timeline();
            run_obs(&recording(obs));
        }
        _ => usage(),
    }
    flags.export(obs);
}
