//! Bit-identity regression guard for the discrete-event engine.
//!
//! The digests below were produced by the pre-optimization (HashMap-based)
//! engine on three SWEEP3D fixtures and pinned. Any engine rewrite must
//! reproduce every `RunReport` **bit-for-bit** — integer picoseconds, all
//! fields, all ranks — with tracing on and off, through both the retained
//! reference scheduler and the optimized scheduler.
//!
//! If a digest ever changes on purpose (a deliberate semantic change to the
//! simulation), re-bless by running with `BLESS_GOLDEN=1` and copying the
//! printed values — and say so loudly in the PR.

use cluster_sim::{Engine, MachineSpec, NoiseModel, ReferenceEngine};
use obs::Recorder;
use proptest::prelude::*;
use sweep3d::trace::{generate_program_set, generate_programs, FlopModel};
use sweep3d::ProblemConfig;

/// A fully-featured machine: rate curve via the Pentium3 sim spec, plus
/// commodity noise and a rendezvous threshold so every engine path
/// (eager, rendezvous, collectives, jitter) is exercised.
fn fixture_machine() -> MachineSpec {
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

fn flop_model() -> FlopModel {
    FlopModel {
        flops_per_cell_angle: 21.5,
        source_flops_per_cell: 2.0,
        flux_err_flops_per_cell: 3.0,
    }
}

const GOLDEN: [(usize, usize, u64); 3] = [
    (2, 3, 0xd1be023637d245b6),   // 6 ranks
    (8, 8, 0x88f251d1d3bf566a),   // 64 ranks
    (16, 32, 0xbbb560b6cfb2758e), // 512 ranks
];

#[test]
fn golden_digests_are_bit_identical_to_seed_engine() {
    let machine = fixture_machine();
    let fm = flop_model();
    for &(px, py, want) in &GOLDEN {
        let cfg = fixture_config(px, py);
        let programs = generate_programs(&cfg, &fm);
        let set = generate_program_set(&cfg, &fm);

        // Optimized engine, tracing off (legacy Vec<Program> entry point).
        let opt = Engine::new(&machine, programs.clone()).run().expect("fixture runs");
        let got = opt.digest();
        if std::env::var_os("BLESS_GOLDEN").is_some() {
            println!("({px}, {py}, 0x{got:016x}), // {} ranks", px * py);
            continue;
        }
        assert_eq!(got, want, "{px}x{py}: optimized engine digest drifted from golden");

        // Optimized engine over the shared program set.
        let opt_set = Engine::from_set(&machine, set).run().expect("fixture runs");
        assert_eq!(opt_set.digest(), want, "{px}x{py}: shared-set digest drifted");

        // Optimized engine, tracing on: results must be invisible to the
        // recorder.
        let rec = Recorder::enabled();
        let traced =
            Engine::new(&machine, programs.clone()).with_recorder(&rec, 0).run().expect("runs");
        assert_eq!(traced.digest(), want, "{px}x{py}: tracing changed the optimized engine");

        // Retained pre-optimization scheduler, tracing off and on.
        let reference = ReferenceEngine::new(&machine, programs.clone()).run().expect("runs");
        assert_eq!(reference.digest(), want, "{px}x{py}: reference engine digest drifted");
        let rec2 = Recorder::enabled();
        let ref_traced =
            ReferenceEngine::new(&machine, programs).with_recorder(&rec2, 0).run().expect("runs");
        assert_eq!(ref_traced.digest(), want, "{px}x{py}: tracing changed the reference engine");
    }
}

#[test]
fn registry_sim_machine_reproduces_golden_digests() {
    // The registry's sim half must be byte-for-byte the machine the
    // golden digests were pinned on — same rate curve, same network, same
    // seed handling — so a registry-resolved fixture reproduces them.
    let mut machine =
        registry::builtin("pentium3-myrinet").expect("builtin resolves").sim.expect("has sim half");
    machine.noise = NoiseModel::commodity();
    machine.rendezvous_bytes = Some(4096);
    machine.seed = 0xF1B5_EED0;
    assert_eq!(machine, fixture_machine());
    let fm = flop_model();
    for &(px, py, want) in &GOLDEN {
        let programs = generate_programs(&fixture_config(px, py), &fm);
        let report = Engine::new(&machine, programs).run().expect("fixture runs");
        assert_eq!(report.digest(), want, "{px}x{py}: registry machine digest drifted");
    }
}

/// Build a random, statically-valid, deadlock-free program set: messages
/// are emitted in one global total order (each rank's sends and receives
/// appear in that shared order, so a matching receive is always reachable),
/// interleaved with compute blocks, with a global collective between
/// rounds.
fn random_programs(
    n: usize,
    msgs: &[(usize, usize, u32, usize)],
    computes: &[(usize, u32, u32)],
    collectives: usize,
) -> Vec<cluster_sim::Program> {
    use cluster_sim::{Op, Program};
    let mut programs = vec![Program::new(); n];
    let rounds = collectives.max(1);
    let per_round = msgs.len().div_ceil(rounds);
    for (round, chunk) in msgs.chunks(per_round.max(1)).enumerate() {
        for (i, &(from, to, tag, bytes)) in chunk.iter().enumerate() {
            // Interleave compute noise around the traffic.
            for &(rank, flops_x, ws) in computes {
                if (flops_x as usize + i + round).is_multiple_of(7) {
                    programs[rank % n].push(Op::Compute {
                        flops: (flops_x % 1000) as f64 * 1e4,
                        working_set: ws as usize,
                    });
                }
            }
            if from == to {
                continue; // self-messaging is not part of the trace model
            }
            programs[from].push(Op::Send { to, bytes, tag });
            programs[to].push(Op::Recv { from, tag });
        }
        for p in programs.iter_mut() {
            p.push(Op::AllReduce { bytes: 8 });
        }
    }
    programs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential equivalence: on random valid programs the optimized
    /// scheduler must produce the same `RunReport` as the retained
    /// reference scheduler, bit for bit, tracing on or off.
    #[test]
    fn optimized_engine_matches_reference_on_random_programs(
        n in 2usize..6,
        msgs in prop::collection::vec((0usize..6, 0usize..6, 0u32..5, 1usize..20_000), 1..40),
        computes in prop::collection::vec((0usize..6, 0u32..1000, 0u32..100_000), 0..6),
        collectives in 1usize..3,
        rendezvous_raw in 0usize..8192,
        noisy in any::<bool>(),
    ) {
        let msgs: Vec<_> =
            msgs.into_iter().map(|(f, t, tag, b)| (f % n, t % n, tag, b)).collect();
        let programs = random_programs(n, &msgs, &computes, collectives);
        let mut machine = fixture_machine();
        // Low values mean "everything eager"; otherwise a real threshold
        // that puts some of the random messages on the rendezvous path.
        machine.rendezvous_bytes = (rendezvous_raw >= 512).then_some(rendezvous_raw);
        if !noisy {
            machine.noise = NoiseModel::none();
        }
        let want = ReferenceEngine::new(&machine, programs.clone()).run().unwrap();
        let got = Engine::new(&machine, programs.clone()).run().unwrap();
        prop_assert_eq!(&got, &want, "optimized != reference (tracing off)");
        let rec = Recorder::enabled();
        let traced = Engine::new(&machine, programs).with_recorder(&rec, 0).run().unwrap();
        prop_assert_eq!(&traced, &want, "optimized != reference (tracing on)");
    }
}
