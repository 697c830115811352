//! Attribution invariants, spanning crates (see `obs::attr`):
//!
//! * the extracted critical-path length equals the `RunReport` makespan
//!   to the picosecond — the hard internal gate — across random seeds,
//!   noise classes, partition counts and both engine modes;
//! * the attribution report is byte-identical between the sequential and
//!   windowed-parallel engines on digest-matched runs;
//! * both hold on every golden fixture (6 / 64 / 512 / 8000 ranks) and on
//!   the `experiments attribute` fixture of every workload template.

use cluster_sim::{Engine, MachineSpec, NoiseModel, ProgramSet};
use experiments::attribute::{fixture_machine, fixture_set};
use obs::{attr, Recorder};
use pace_core::WorkloadKind;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Mode {
    Seq,
    Par(usize),
}

/// The golden-fixture SWEEP3D scenario on a `px × py` array.
fn wavefront(px: usize, py: usize) -> ProgramSet {
    fixture_set(WorkloadKind::Wavefront, px, py).expect("wavefront fixture lowers")
}

/// Run `set` on `machine` through one engine mode with tracing, return
/// the report makespan (ps) and the attribution.
fn attribute_mode(machine: &MachineSpec, set: ProgramSet, mode: Mode) -> (u64, attr::Attribution) {
    let rec = Recorder::enabled();
    let eng = Engine::from_set(machine, set).with_recorder(&rec, 0);
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
        let mut machine = fixture_machine();
        machine.seed = seed;
        if !noisy {
            machine.noise = NoiseModel::none();
        }
        let (makespan, a_seq) = attribute_mode(&machine, wavefront(px, py), Mode::Seq);
        prop_assert_eq!(a_seq.makespan_ps, makespan, "sequential path != makespan");
        prop_assert_eq!(a_seq.path.total_ps, makespan, "path breakdown != makespan");

        let (mk_par, a_par) = attribute_mode(&machine, wavefront(px, py), Mode::Par(threads));
        prop_assert_eq!(mk_par, makespan, "parallel engine diverged");
        prop_assert_eq!(a_seq.to_json(), a_par.to_json(), "parallel attribution differs");
    }
}

/// The golden scenarios and each template's `experiments attribute`
/// fixture: the gate holds at every size, the rollup covers the run, and
/// attribution is deterministic (two traced runs yield identical bytes).
/// All but the 8000-rank run also cross-check the parallel engine's
/// attribution bytes; 8000 ranks runs sequential-only to keep the suite's
/// wall time in budget (the mode identity is already proved at the
/// smaller sizes and by the property test above).
#[test]
fn golden_scenarios_attribute_exactly() {
    use WorkloadKind::{Allreduce, Stencil, Wavefront};
    let machine = fixture_machine();
    for &(kind, px, py, cross_modes) in &[
        (Wavefront, 2usize, 3usize, true),
        (Wavefront, 8, 8, true),
        (Wavefront, 16, 32, true),
        (Wavefront, 80, 100, false),
        (Stencil, 2, 2, true),
        (Allreduce, 2, 3, true),
    ] {
        let set = fixture_set(kind, px, py).unwrap();
        let (makespan, a) = attribute_mode(&machine, set.clone(), Mode::Seq);
        let name = format!("{kind:?} {px}x{py}");
        assert_eq!(a.makespan_ps, makespan, "{name}: critical path must equal the makespan");
        assert_eq!(a.path.total_ps, makespan, "{name}: breakdown total drifted");
        assert_eq!(a.ranks.len(), px * py, "{name}: per-rank attribution incomplete");
        assert_eq!(a.rollup.makespan_ps, makespan, "{name}: rollup makespan drifted");
        assert!(a.rollup.compute_ps > 0, "{name}: no compute attributed");
        // The allreduce template communicates through collectives only.
        assert_eq!(a.rollup.messages == 0, kind == Allreduce, "{name}: message edges");
        // Every rank's slack is consistent with its finish time.
        for r in &a.ranks {
            assert_eq!(r.finish_ps + r.slack_ps, makespan, "{name}: rank {} slack", r.rank);
        }
        if cross_modes {
            // Byte-determinism: a second identical traced run attributes
            // to the same bytes.
            let (_, again) = attribute_mode(&machine, set.clone(), Mode::Seq);
            assert_eq!(a.to_json(), again.to_json(), "{name}: attribution not deterministic");
            let (_, a_par) = attribute_mode(&machine, set, Mode::Par(4));
            assert_eq!(a.to_json(), a_par.to_json(), "{name}: parallel attribution differs");
        }
    }
}

/// What-if diffability: slowing the CPU adds compute picoseconds to the
/// rollup and lengthens the run.
#[test]
fn rollup_deltas_attribute_what_ifs() {
    let machine = fixture_machine();
    let (_, base) = attribute_mode(&machine, wavefront(2, 3), Mode::Seq);
    let (_, slow) = attribute_mode(&machine.with_cpu_scaled(0.5), wavefront(2, 3), Mode::Seq);
    let (base, slow) = (base.rollup, slow.rollup);
    assert!(slow.compute_ps > base.compute_ps, "slower CPU must add compute time");
    assert!(slow.makespan_ps > base.makespan_ps, "slower CPU must lengthen the run");
}
