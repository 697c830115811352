//! The `attribute` subcommand: critical-path attribution of a traced
//! discrete-event run.
//!
//! Runs the golden-fixture SWEEP3D scenario (the same Pentium3/Myrinet
//! machine, commodity noise and rendezvous threshold the engine digests
//! are pinned on) under full tracing, extracts the exact critical path
//! with [`obs::attr::attribute`] and reports where every picosecond of
//! the makespan went. The extractor's hard gate — path length equals the
//! `RunReport` makespan to the picosecond — runs on every invocation.
//!
//! `--check-modes` replays the identical scenario through both engines
//! (sequential and windowed parallel) and fails unless
//! the attribution reports are byte-identical, turning the engine
//! equivalence guarantee into a one-command audit.

use cluster_sim::{Engine, MachineSpec, NoiseModel, ProgramSet, RunReport};
use obs::{attr, Attribution, Obs, Recorder};
use pace_core::{AllreduceParams, StencilParams, Workload, WorkloadKind};
use sweep3d::trace::{generate_program_set, FlopModel};
use sweep3d::ProblemConfig;

/// Track group the traced measurement lands on.
pub const MEASURE_PID: u32 = obs::pids::ENGINE;

/// Which engine executes the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Sequential event loop (the golden reference).
    Sequential,
    /// Conservative windowed-parallel engine on N threads.
    Parallel(usize),
}

impl Mode {
    /// Stable name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Sequential => "sequential",
            Mode::Parallel(_) => "parallel",
        }
    }
}

/// The golden-fixture machine (see `tests/engine_golden.rs`): Pentium3
/// sim spec + commodity noise + 4 KiB rendezvous threshold, pinned seed.
pub fn fixture_machine() -> MachineSpec {
    let mut m = registry::sim::pentium3_myrinet_sim();
    m.noise = NoiseModel::commodity();
    m.rendezvous_bytes = Some(4096);
    m.seed = 0xF1B5_EED0;
    m
}

fn fixture_config(px: usize, py: usize) -> ProblemConfig {
    let mut c = ProblemConfig::weak_scaling(4, px, py);
    c.mk = 2;
    c.iterations = 2;
    c
}

fn fixture_flops() -> FlopModel {
    FlopModel {
        flops_per_cell_angle: 21.5,
        source_flops_per_cell: 2.0,
        flux_err_flops_per_cell: 3.0,
    }
}

/// The fixture's program set on a `px × py` array: the golden-fixture
/// SWEEP3D scenario, or another template's DES lowering on the fixture
/// machine (the allreduce solver only sees the total rank count), with
/// iteration counts cut so the traced run stays tier-1 cheap.
pub fn fixture_set(workload: WorkloadKind, px: usize, py: usize) -> Result<ProgramSet, String> {
    let template = |w: &dyn Workload| w.program_set(&fixture_machine());
    match workload {
        WorkloadKind::Wavefront => {
            Ok(generate_program_set(&fixture_config(px, py), &fixture_flops()))
        }
        WorkloadKind::Stencil => {
            template(&StencilParams { iterations: 5, ..StencilParams::weak_scaling(px, py) })
        }
        WorkloadKind::Allreduce => {
            template(&AllreduceParams { iterations: 10, ..AllreduceParams::cg_like(px * py) })
        }
    }
}

/// Run `set` on the fixture machine through `mode` with tracing into
/// `rec`, then attribute the trace. The extractor's internal gate
/// guarantees the returned path length equals the report makespan
/// exactly.
pub fn run_traced(set: ProgramSet, mode: Mode, rec: &Recorder) -> (RunReport, Attribution) {
    let machine = fixture_machine();
    let eng = Engine::from_set(&machine, set).with_recorder(rec, MEASURE_PID);
    let report = match mode {
        Mode::Sequential => eng.run(),
        Mode::Parallel(threads) => eng.run_parallel(threads),
    }
    .expect("fixture scenario executes without deadlock");
    let attribution = attr::attribute(rec, MEASURE_PID).expect("trace attributes cleanly");
    let makespan_ps = report.ranks.iter().map(|r| r.finish.picos()).max().expect("run has ranks");
    assert_eq!(
        attribution.makespan_ps, makespan_ps,
        "critical-path gate: path length must equal the report makespan"
    );
    (report, attribution)
}

/// `experiments attribute [--px N] [--py N] [--workload <kind>]
/// [--mode seq|par] [--threads N] [--speedscope <path>]
/// [--check-modes] [--json]`.
pub fn run(args: &[String], obs: &Obs, json: bool) {
    let mut px = 2usize;
    let mut py = 3usize;
    let mut workload = WorkloadKind::Wavefront;
    let mut mode_arg = "seq".to_string();
    let mut threads = 2usize;
    let mut speedscope: Option<String> = None;
    let mut check_modes = false;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> &str {
            *i += 1;
            args.get(*i).map(String::as_str).unwrap_or_else(|| {
                eprintln!("{} requires a value", args[*i - 1]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--px" => px = crate::positive_flag("--px", value(&mut i)),
            "--py" => py = crate::positive_flag("--py", value(&mut i)),
            "--workload" => {
                workload = WorkloadKind::parse(value(&mut i)).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            }
            "--mode" => mode_arg = value(&mut i).to_string(),
            "--threads" => threads = crate::int_flag("--threads", value(&mut i)),
            "--speedscope" => speedscope = Some(value(&mut i).to_string()),
            "--check-modes" => check_modes = true,
            other => {
                eprintln!("unknown attribute flag {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let mode = match mode_arg.as_str() {
        "seq" | "sequential" => Mode::Sequential,
        "par" | "parallel" => Mode::Parallel(threads.max(2)),
        other => {
            eprintln!("unknown mode {other:?} (expected seq or par)");
            std::process::exit(2);
        }
    };

    let set = fixture_set(workload, px, py).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    // Record into the shared bundle so --trace exports the same run.
    let rec = &*obs.recorder;
    let label = format!("attribute {} {px}x{py} ({})", workload.kind(), mode.name());
    rec.set_process_name(MEASURE_PID, label.clone());
    let (_report, attribution) = run_traced(set.clone(), mode, rec);

    if let Some(path) = &speedscope {
        std::fs::write(path, obs::speedscope::export(rec, &label)).expect("write speedscope file");
        eprintln!("wrote speedscope profile to {path}");
    }

    if check_modes {
        let modes = [Mode::Sequential, Mode::Parallel(threads.max(2))];
        let runs: Vec<(Mode, String)> = modes
            .iter()
            .map(|&m| {
                let fresh = Recorder::enabled();
                let (_, a) = run_traced(set.clone(), m, &fresh);
                (m, a.to_json())
            })
            .collect();
        let baseline = &runs[0].1;
        let all_equal = runs.iter().all(|(_, j)| j == baseline);
        if !json {
            println!("### Attribution cross-mode check: {px}x{py}, {} ranks\n", px * py);
            println!("| mode | attribution bytes | identical to sequential |");
            println!("|---|---|---|");
            for (m, j) in &runs {
                println!(
                    "| {} | {} | {} |",
                    m.name(),
                    j.len(),
                    if j == baseline { "yes" } else { "NO" }
                );
            }
            println!();
        }
        if !all_equal {
            eprintln!("attribution reports differ between engine modes");
            std::process::exit(1);
        }
    }

    if json {
        println!("{}", attribution.to_json());
    } else {
        let title = format!(
            "{} {px}x{py} on {} ({} engine)",
            workload.kind(),
            fixture_machine().name,
            mode.name()
        );
        print!("{}", attribution.render(&title));
    }
    obs.metrics.counter_add("attr.runs", 1);
    obs.metrics.gauge_set("attr.makespan_ps", attribution.makespan_ps as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_gate_and_agree_across_modes() {
        for (workload, px, py) in [
            (WorkloadKind::Wavefront, 2, 3),
            (WorkloadKind::Stencil, 2, 2),
            (WorkloadKind::Allreduce, 2, 3),
        ] {
            let set = fixture_set(workload, px, py).unwrap();
            let rec_seq = Recorder::enabled();
            let (report, a_seq) = run_traced(set.clone(), Mode::Sequential, &rec_seq);
            assert_eq!(a_seq.ranks.len(), px * py);
            let makespan_ps = report.ranks.iter().map(|r| r.finish.picos()).max().unwrap();
            assert_eq!(a_seq.makespan_ps, makespan_ps);
            let rec_par = Recorder::enabled();
            let (_, a_par) = run_traced(set, Mode::Parallel(2), &rec_par);
            assert_eq!(a_seq.to_json(), a_par.to_json(), "{workload:?} parallel diverged");
        }
    }
}
