//! The `attribute` subcommand: critical-path attribution of a traced
//! discrete-event run.
//!
//! Runs the golden-fixture SWEEP3D scenario (the same Pentium3/Myrinet
//! machine, commodity noise and rendezvous threshold the engine digests
//! are pinned on) under full tracing, extracts the exact critical path
//! with [`obs::attr::attribute`] and reports where every picosecond of
//! the makespan went. The extractor's hard gate — path length equals the
//! `RunReport` makespan to the picosecond — runs on every invocation.
//! The global `--trace` writes the same run's spans as a Chrome trace,
//! which Perfetto and speedscope both open.

use cluster_sim::{Engine, MachineSpec, NoiseModel, ProgramSet, RunReport};
use obs::{attr, Attribution, Obs, Recorder};
use pace_core::{AllreduceParams, StencilParams, Workload, WorkloadKind};
use sweep3d::trace::{generate_program_set, FlopModel};
use sweep3d::ProblemConfig;

use crate::usage_error;

/// Track group the traced measurement lands on.
pub const MEASURE_PID: u32 = obs::pids::ENGINE;

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

/// The golden fixtures' fixed flop weights: traced and speculative DES
/// runs charge them instead of profiling the kernel, so their results do
/// not depend on a calibration run.
pub const FIXTURE_FLOPS: FlopModel = FlopModel {
    flops_per_cell_angle: 21.5,
    source_flops_per_cell: 2.0,
    flux_err_flops_per_cell: 3.0,
};

/// The fixture's program set on a `px × py` array: the golden-fixture
/// SWEEP3D scenario, or another template's DES lowering on the fixture
/// machine (the allreduce solver only sees the total rank count), with
/// iteration counts cut so the traced run stays tier-1 cheap.
pub fn fixture_set(workload: WorkloadKind, px: usize, py: usize) -> Result<ProgramSet, String> {
    let template = |w: Workload| w.program_set(&fixture_machine());
    match workload {
        WorkloadKind::Wavefront => {
            Ok(generate_program_set(&fixture_config(px, py), &FIXTURE_FLOPS))
        }
        WorkloadKind::Stencil => {
            template(StencilParams { iterations: 5, ..StencilParams::weak_scaling(px, py) }.into())
        }
        WorkloadKind::Allreduce => {
            template(AllreduceParams { iterations: 10, ..AllreduceParams::cg_like(px * py) }.into())
        }
    }
}

/// Run `set` on the fixture machine with tracing into `rec`, then
/// attribute the trace. The extractor's internal gate guarantees the
/// returned path length equals the report makespan exactly.
pub fn run_traced(set: ProgramSet, rec: &Recorder) -> (RunReport, Attribution) {
    let report = Engine::from_set(&fixture_machine(), set)
        .with_recorder(rec, MEASURE_PID)
        .run()
        .expect("fixture scenario executes without deadlock");
    let attribution = attr::attribute(rec, MEASURE_PID).expect("trace attributes cleanly");
    let makespan_ps = report.ranks.iter().map(|r| r.finish.picos()).max().expect("run has ranks");
    assert_eq!(
        attribution.makespan_ps, makespan_ps,
        "critical-path gate: path length must equal the report makespan"
    );
    (report, attribution)
}

/// `experiments attribute [--px N] [--py N] [--workload <kind>] [--json]`.
pub fn run(args: &[String], obs: &Obs, json: bool) {
    let mut px = 2usize;
    let mut py = 3usize;
    let mut workload = WorkloadKind::Wavefront;
    let mut flags = crate::FlagReader::new("attribute", args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--px" => px = flags.positive(),
            "--py" => py = flags.positive(),
            "--workload" => {
                workload = WorkloadKind::parse(flags.value()).unwrap_or_else(|e| usage_error(e))
            }
            other => flags.unknown(other),
        }
    }

    let set = fixture_set(workload, px, py).unwrap_or_else(|e| usage_error(e));

    // Record into the shared bundle so --trace exports the same run.
    let rec = &*obs.recorder;
    rec.set_process_name(MEASURE_PID, format!("attribute {} {px}x{py}", workload.kind()));
    let (_report, attribution) = run_traced(set, rec);

    if json {
        println!("{}", attribution.to_json());
    } else {
        let title = format!("{} {px}x{py} on {}", workload.kind(), fixture_machine().name);
        print!("{}", attribution.render(&title));
    }
    obs.metrics.counter_add("attr.runs", 1);
    obs.metrics.gauge_set("attr.makespan_ps", attribution.makespan_ps as f64);
}
