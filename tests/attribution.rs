//! Attribution invariants, spanning crates (see `obs::attr`):
//!
//! * the extracted critical-path length equals the `RunReport` makespan
//!   to the picosecond — the hard internal gate — across random seeds,
//!   noise classes, partition counts and both engine modes;
//! * the attribution report is byte-identical between the sequential and
//!   windowed-parallel engines on digest-matched runs;
//! * both hold on every golden fixture (6 / 64 / 512 / 8000 ranks).

use cluster_sim::{Engine, MachineSpec, NoiseModel};
use obs::{attr, Recorder};
use proptest::prelude::*;
use sweep3d::trace::{generate_programs, FlopModel};
use sweep3d::ProblemConfig;

/// The golden-fixture machine of `tests/engine_golden.rs`.
fn fixture_machine(seed: u64) -> MachineSpec {
    let mut m = registry::sim::pentium3_myrinet_sim();
    m.noise = NoiseModel::commodity();
    m.rendezvous_bytes = Some(4096);
    m.seed = seed;
    m
}

fn fixture_config(px: usize, py: usize) -> ProblemConfig {
    let mut c = ProblemConfig::weak_scaling(4, px, py);
    c.mk = 2;
    c.iterations = 2;
    c
}

fn flop_model() -> FlopModel {
    FlopModel {
        flops_per_cell_angle: 21.5,
        source_flops_per_cell: 2.0,
        flux_err_flops_per_cell: 3.0,
    }
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Seq,
    Par(usize),
}

/// Run the fixture through one engine mode with tracing, return the
/// report makespan (ps) and the attribution.
fn attribute_mode(
    machine: &MachineSpec,
    px: usize,
    py: usize,
    mode: Mode,
) -> (u64, attr::Attribution) {
    let programs = generate_programs(&fixture_config(px, py), &flop_model());
    let rec = Recorder::enabled();
    let eng = Engine::new(machine, programs).with_recorder(&rec, 0);
    let report = match mode {
        Mode::Seq => eng.run(),
        Mode::Par(threads) => eng.run_parallel(threads),
    }
    .expect("fixture runs");
    let makespan_ps = report.ranks.iter().map(|r| r.finish.picos()).max().unwrap();
    let a = attr::attribute(&rec, 0).expect("trace attributes cleanly");
    (makespan_ps, a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Path length == report makespan, integer-ps exact, for random
    /// seeds × noise classes × array shapes × engine modes — and the
    /// attribution JSON is byte-identical across both modes.
    #[test]
    fn critical_path_equals_makespan_across_modes(
        seed in any::<u64>(),
        noisy in any::<bool>(),
        px in 1usize..4,
        py in 2usize..5,
        threads in 2usize..5,
    ) {
        let mut machine = fixture_machine(seed);
        if !noisy {
            machine.noise = NoiseModel::none();
        }
        let (makespan, a_seq) = attribute_mode(&machine, px, py, Mode::Seq);
        prop_assert_eq!(a_seq.makespan_ps, makespan, "sequential path != makespan");
        prop_assert_eq!(a_seq.path.total_ps, makespan, "path breakdown != makespan");

        let (mk_par, a_par) = attribute_mode(&machine, px, py, Mode::Par(threads));
        prop_assert_eq!(mk_par, makespan, "parallel engine diverged");
        prop_assert_eq!(a_seq.to_json(), a_par.to_json(), "parallel attribution differs");
    }
}

/// The golden scenarios: the gate holds at every pinned size, the
/// rollup covers the run, and attribution is deterministic (two traced
/// runs yield identical bytes). 6/64/512 also cross-check the parallel
/// engine's attribution bytes; 8000 ranks runs sequential-only to keep
/// the suite's wall time in budget (the mode identity is already proved
/// at the smaller sizes and by the property test above).
#[test]
fn golden_scenarios_attribute_exactly() {
    let machine = fixture_machine(0xF1B5_EED0);
    for &(px, py, cross_modes) in
        &[(2usize, 3usize, true), (8, 8, true), (16, 32, true), (80, 100, false)]
    {
        let (makespan, a) = attribute_mode(&machine, px, py, Mode::Seq);
        assert_eq!(
            a.makespan_ps, makespan,
            "{px}x{py}: critical path must equal the report makespan exactly"
        );
        assert_eq!(a.path.total_ps, makespan, "{px}x{py}: breakdown total drifted");
        assert_eq!(a.ranks.len(), px * py, "{px}x{py}: per-rank attribution incomplete");
        assert_eq!(a.rollup.makespan_ps, makespan, "{px}x{py}: rollup makespan drifted");
        assert!(a.rollup.messages > 0 && a.rollup.compute_ps > 0);
        // Every rank's slack is consistent with its finish time.
        for r in &a.ranks {
            assert_eq!(r.finish_ps + r.slack_ps, makespan, "{px}x{py}: rank {} slack", r.rank);
        }
        if cross_modes {
            // Byte-determinism: a second identical traced run attributes
            // to the same bytes.
            let (_, again) = attribute_mode(&machine, px, py, Mode::Seq);
            assert_eq!(a.to_json(), again.to_json(), "{px}x{py}: attribution not deterministic");
            let (_, a_par) = attribute_mode(&machine, px, py, Mode::Par(4));
            assert_eq!(a.to_json(), a_par.to_json(), "{px}x{py}: parallel attribution differs");
        }
    }
}

/// What-if diffability: slowing the CPU moves compute picoseconds in the
/// rollup delta, and the delta against itself is all-zero.
#[test]
fn rollup_deltas_attribute_what_ifs() {
    let machine = fixture_machine(0xF1B5_EED0);
    let (_, base) = attribute_mode(&machine, 2, 3, Mode::Seq);
    assert!(base.rollup.delta(&base.rollup).iter().all(|&(_, d)| d == 0));
    let slower = machine.with_cpu_scaled(0.5);
    let (_, slow) = attribute_mode(&slower, 2, 3, Mode::Seq);
    let delta = slow.rollup.delta(&base.rollup);
    let get = |name: &str| delta.iter().find(|(n, _)| *n == name).unwrap().1;
    assert!(get("rollup.compute_ps") > 0, "slower CPU must add compute time: {delta:?}");
    assert!(get("rollup.makespan_ps") > 0, "slower CPU must lengthen the run: {delta:?}");
}
