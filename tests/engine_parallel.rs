//! Bit-identity guard for the conservative parallel engine.
//!
//! `Engine::run_parallel(threads)` must reproduce the sequential engine's
//! `RunReport` — and therefore the pinned golden digests of
//! `engine_golden.rs` — **bit for bit**, for every partition count, with
//! tracing on and off. Both drivers run the same op interpreter, so the
//! differential proptest checks them against the independently written
//! `ReferenceEngine`, exactly like the sequential suite does.
//!
//! If a digest changes on purpose, re-bless with `BLESS_GOLDEN=1` (see
//! `engine_golden.rs`) and say so loudly in the PR.

use cluster_sim::{Engine, MachineSpec, NoiseModel, ReferenceEngine, SimTime};
use obs::Recorder;
use proptest::prelude::*;
use sweep3d::trace::{generate_program_set, FlopModel};
use sweep3d::ProblemConfig;

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

/// The same pinned digests as `engine_golden.rs` (6/64/512 ranks), plus
/// the 8000-rank speculative-campaign mesh the parallel engine exists
/// for. All were produced by the sequential engine.
const GOLDEN: [(usize, usize, u64); 4] = [
    (2, 3, 0xd1be023637d245b6),    // 6 ranks
    (8, 8, 0x88f251d1d3bf566a),    // 64 ranks
    (16, 32, 0xbbb560b6cfb2758e),  // 512 ranks
    (80, 100, 0x30aee2ab03494c51), // 8000 ranks
];

#[test]
fn parallel_engine_reproduces_golden_digests() {
    let machine = fixture_machine();
    let fm = flop_model();
    for &(px, py, want) in &GOLDEN {
        let set = generate_program_set(&fixture_config(px, py), &fm);
        if std::env::var_os("BLESS_GOLDEN").is_some() {
            let got = Engine::from_set(&machine, set).run().expect("fixture runs").digest();
            println!("({px}, {py}, 0x{got:016x}), // {} ranks", px * py);
            continue;
        }
        // The big mesh once at the bench thread count; the small meshes
        // across several partition counts (including more partitions than
        // a CI runner has cores — correctness must not depend on p).
        let threads: &[usize] = if px * py >= 8000 { &[8] } else { &[2, 3, 8] };
        for &t in threads {
            let (report, stats) = Engine::from_set(&machine, set.clone())
                .run_parallel_stats(t)
                .expect("fixture runs");
            assert_eq!(
                report.digest(),
                want,
                "{px}x{py} at {t} threads: parallel digest diverged from sequential golden"
            );
            assert!(!stats.fell_back, "{px}x{py}: unexpected sequential fallback");
            assert_eq!(stats.partitions, t.min(px * py));
            assert!(stats.lookahead.unwrap_or(SimTime::ZERO) > SimTime::ZERO);
            assert!(stats.boundary_messages > 0, "{px}x{py}: no boundary traffic at {t} threads");
        }
    }
}

#[test]
fn parallel_engine_with_tracing_matches_sequential_spans() {
    // Tracing must neither perturb results nor lose spans: the parallel
    // run's sim-domain span stream equals the sequential one after the
    // recorder's deterministic sort.
    let machine = fixture_machine();
    let set = generate_program_set(&fixture_config(8, 8), &flop_model());
    let rec_seq = Recorder::enabled();
    let seq = Engine::from_set(&machine, set.clone())
        .with_recorder(&rec_seq, 0)
        .run()
        .expect("fixture runs");
    let rec_par = Recorder::enabled();
    let par = Engine::from_set(&machine, set)
        .with_recorder(&rec_par, 0)
        .run_parallel(4)
        .expect("fixture runs");
    assert_eq!(par, seq, "tracing changed the parallel engine");
    assert_eq!(rec_seq.sim_spans(), rec_par.sim_spans(), "span streams diverged");
    // The parallel run additionally documents its window structure.
    assert!(rec_par
        .wall_spans()
        .iter()
        .any(|s| s.pid == cluster_sim::PARTITION_PID && s.name.starts_with("window")));
}

#[test]
fn zero_lookahead_fallback_warns_once_per_run_across_topologies() {
    // An ideal machine's free network has zero wire latency, so no
    // conservative window exists and `run_parallel` must fall back to
    // sequential execution — warning exactly once per run (the counter
    // moves by one), at every topology shape: 1xN chains (the pipeline
    // limit) and a 2x2 mesh (the smallest true wavefront). Results must
    // still match the sequential engine bit for bit.
    //
    // All topologies live in one test fn: the fallback counter is
    // process-wide, and serializing the runs here keeps each delta
    // attributable to exactly one of them.
    let machine = MachineSpec::ideal(150.0);
    let fm = flop_model();
    let topologies: &[(usize, usize)] = &[(1, 2), (1, 5), (1, 9), (2, 2)];
    for &(px, py) in topologies {
        let set = generate_program_set(&fixture_config(px, py), &fm);
        let want = Engine::from_set(&machine, set.clone()).run().expect("fixture runs");
        let before = cluster_sim::zero_lookahead_fallbacks();
        let (got, stats) = Engine::from_set(&machine, set)
            .run_parallel_stats(2.min(px * py))
            .expect("fixture runs");
        let after = cluster_sim::zero_lookahead_fallbacks();
        assert_eq!(got, want, "{px}x{py}: fallback run diverged from sequential");
        assert!(stats.fell_back, "{px}x{py}: zero lookahead must fall back");
        assert_eq!(stats.lookahead, Some(SimTime::ZERO));
        assert_eq!(stats.partitions, 1, "{px}x{py}: fallback reports one partition");
        assert_eq!(after - before, 1, "{px}x{py}: expected exactly one fallback warning");
    }
}

/// Random, statically-valid, deadlock-free program sets (same generator
/// as `engine_golden.rs`): messages in one global total order interleaved
/// with compute, a collective between rounds.
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
            for &(rank, flops_x, ws) in computes {
                if (flops_x as usize + i + round).is_multiple_of(7) {
                    programs[rank % n].push(Op::Compute {
                        flops: (flops_x % 1000) as f64 * 1e4,
                        working_set: ws as usize,
                    });
                }
            }
            if from == to {
                continue;
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential equivalence across partition counts: on random valid
    /// programs, `run_parallel(p)` for p in {1, 2, 3, 7, 8} must match the
    /// retained reference scheduler bit for bit, and for p in {2, 3, 7} a
    /// traced run must record the sequential engine's spans and edges.
    #[test]
    fn parallel_engine_matches_reference_on_random_programs(
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
        machine.rendezvous_bytes = (rendezvous_raw >= 512).then_some(rendezvous_raw);
        if !noisy {
            machine.noise = NoiseModel::none();
        }
        let want = ReferenceEngine::new(&machine, programs.clone()).run().unwrap();
        for partitions in [1usize, 2, 3, 7, 8] {
            let got = Engine::new(&machine, programs.clone())
                .run_parallel(partitions)
                .unwrap();
            prop_assert_eq!(&got, &want, "parallel({}) != reference", partitions);
        }
        // Traced, the parallel span and causality-edge streams equal the
        // sequential ones after the recorder's deterministic sort.
        let rec_seq = Recorder::enabled();
        let seq = Engine::new(&machine, programs.clone()).with_recorder(&rec_seq, 0).run().unwrap();
        prop_assert_eq!(&seq, &want);
        for partitions in [2usize, 3, 7] {
            let rec_par = Recorder::enabled();
            let got = Engine::new(&machine, programs.clone())
                .with_recorder(&rec_par, 0)
                .run_parallel(partitions)
                .unwrap();
            prop_assert_eq!(&got, &want, "traced parallel({}) != reference", partitions);
            prop_assert_eq!(rec_seq.sim_spans(), rec_par.sim_spans(), "spans at p = {}", partitions);
            prop_assert_eq!(rec_seq.sim_edges(), rec_par.sim_edges(), "edges at p = {}", partitions);
        }
    }
}
