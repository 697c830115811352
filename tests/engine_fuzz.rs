//! Differential fuzzing harness for snapshot/delta campaigns.
//!
//! `Engine::run_paused` stops a run after a number of rank activations;
//! `Paused::snapshot` forks the paused state, and every fork resumes
//! independently. Forking is allowed to share work, never to change a
//! result: every resumed run must reproduce the uninterrupted sequential
//! `RunReport` **bit for bit**, including the pinned golden digests
//! shared with `engine_golden.rs` / `engine_parallel.rs`. This suite
//! attacks that claim from two sides:
//!
//! * golden meshes (6/64/512/8000 ranks) paused mid-run, forked and
//!   resumed, with and without tracing;
//! * random valid program sets paused at a random activation cut, forked
//!   N ways, each fork resumed and compared to a from-scratch run;
//! * forks that resume on a different machine (network, rendezvous
//!   threshold and CPU curve swapped): pinned digests at 64 and 8000
//!   ranks, and a random-machine oracle at both ends of the cut range;
//! * lapped sets (one random body per rank, run 1 to 4 times): the engine
//!   on the lapped set must equal it on the spelled-out programs and the
//!   reference engine, traces included, at every pause cut, and static
//!   validation must give the verdict it gives on the spelled-out set.
//!
//! Failures reproduce deterministically (the proptest shim derives each
//! case's RNG from the test name and case index) and, when
//! `PROPTEST_FAILURE_DIR` is set — as in the nightly deep-fuzz CI job —
//! leave a repro artifact per failing case.
//!
//! If a golden digest changes on purpose, re-bless with `BLESS_GOLDEN=1`
//! (see `engine_golden.rs`) and say so loudly in the PR.

use cluster_sim::cpu::RatePoint;
use cluster_sim::program::validate_programs;
use cluster_sim::{
    CpuModel, Engine, MachineSpec, NetworkModel, NoiseModel, Op, Program, ProgramSet,
    ProgramSetBuilder, ReferenceEngine, SimError,
};
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

/// The same pinned digests as `engine_parallel.rs` (6/64/512/8000
/// ranks), all produced by the sequential engine.
const GOLDEN: [(usize, usize, u64); 4] = [
    (2, 3, 0xd1be023637d245b6),    // 6 ranks
    (8, 8, 0x88f251d1d3bf566a),    // 64 ranks
    (16, 32, 0xbbb560b6cfb2758e),  // 512 ranks
    (80, 100, 0x30aee2ab03494c51), // 8000 ranks
];

#[test]
fn snapshot_forked_campaigns_reproduce_golden_digests() {
    // Pause mid-run, fork the paused state, resume every fork: each must
    // reproduce the pinned sequential digest — the identity gate of
    // snapshot/delta campaigns. Tracing on for the small meshes, off for
    // the big ones (span volume, not semantics, is the only difference —
    // obs_export.rs checks the traced streams in detail).
    let machine = fixture_machine();
    let fm = flop_model();
    for &(px, py, want) in &GOLDEN {
        let set = generate_program_set(&fixture_config(px, py), &fm);
        let paused = Engine::from_set(&machine, set.clone())
            .run_paused(500 * (px * py) as u64)
            .expect("fixture pauses");
        assert!(paused.activations() > 0);
        let forked = paused.snapshot();
        assert_eq!(
            forked.resume().expect("fork resumes").digest(),
            want,
            "{px}x{py}: snapshot-forked resume diverged from sequential golden"
        );
        assert_eq!(
            paused.resume().expect("original resumes").digest(),
            want,
            "{px}x{py}: original resume diverged from sequential golden"
        );
        if px * py <= 64 {
            let rec = Recorder::enabled();
            let traced = Engine::from_set(&machine, set)
                .with_recorder(&rec, 0)
                .run_paused(500 * (px * py) as u64)
                .expect("fixture pauses")
                .resume()
                .expect("traced resume");
            assert_eq!(traced.digest(), want, "{px}x{py}: tracing changed the paused resume");
        }
    }
}

/// The fixture machine with its interconnect, rendezvous threshold and
/// CPU rate curve all replaced; noise model and seed are kept, so a run
/// paused on the fixture may resume here. The threshold sits below the
/// fixture's 192-byte messages: every send after the cut is a rendezvous
/// handshake priced by this machine's network.
fn replacement_machine() -> MachineSpec {
    let mut m = fixture_machine();
    m.network = NetworkModel::from_link(30.0, 100.0, 8.0, 16384.0);
    m.rendezvous_bytes = Some(128);
    const KB: f64 = 1024.0;
    m.cpu = CpuModel::with_curve(
        "replacement",
        vec![
            RatePoint { bytes: 32.0 * KB, mflops: 95.0 },
            RatePoint { bytes: 512.0 * KB, mflops: 71.0 },
            RatePoint { bytes: 16.0 * 1024.0 * KB, mflops: 52.0 },
        ],
        0.05,
    );
    m
}

/// Cross-machine fork digests: paused on the fixture machine after about
/// half the run's activations, resumed on [`replacement_machine`].
const CROSS_MACHINE_GOLDEN: [(usize, usize, u64); 2] = [
    (8, 8, 0x6ed1ddda955772d3),    // 64 ranks
    (80, 100, 0xc7814205b18fb883), // 8000 ranks
];

#[test]
fn cross_machine_forks_reproduce_golden_digests() {
    // A fork that swaps network, rendezvous threshold and CPU curve at the
    // cut must price every op after the cut on the replacement machine —
    // sends parked by the new threshold included — and keep every message
    // already in flight as the original machine sent it.
    let a = fixture_machine();
    let b = replacement_machine();
    let fm = flop_model();
    for &(px, py, want) in &CROSS_MACHINE_GOLDEN {
        let set = generate_program_set(&fixture_config(px, py), &fm);
        let total = Engine::from_set(&a, set.clone()).run_paused(u64::MAX).unwrap().activations();
        let paused = Engine::from_set(&a, set.clone()).run_paused(total / 2).unwrap();
        assert!(!paused.is_complete(), "{px}x{py}: the cut must fall mid-run");
        // Traffic is in flight at the cut: the noise-class probe names a
        // busy channel.
        let silent = a.clone().with_noise(NoiseModel::none());
        match paused.compatible_with(&silent) {
            Err(SimError::SnapshotIncompatible { channel: Some(_), .. }) => {}
            other => panic!("{px}x{py}: expected a busy channel at the cut, got {other:?}"),
        }
        let got = paused.snapshot().resume_with(&b).unwrap().digest();
        assert_eq!(got, want, "{px}x{py}: cross-machine fork digest {got:#018x}");
        // The cut matters: neither machine alone gives this report.
        let only_a = Engine::from_set(&a, set.clone()).run().unwrap().digest();
        let only_b = Engine::from_set(&b, set).run().unwrap().digest();
        assert_ne!(got, only_a, "{px}x{py}: replacement machine had no effect");
        assert_ne!(got, only_b, "{px}x{py}: prefix on the fixture machine had no effect");
        // Resuming on the original machine still reproduces the golden.
        let golden = GOLDEN.iter().find(|g| (g.0, g.1) == (px, py)).unwrap().2;
        assert_eq!(paused.resume().unwrap().digest(), golden, "{px}x{py}: same-machine resume");
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
) -> Vec<Program> {
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

/// Rank `r` runs `bodies[r]` `laps[r]` times.
fn lapped_set(bodies: &[Program], laps: &[u32]) -> ProgramSet {
    let mut b = ProgramSetBuilder::new();
    for (body, &laps) in bodies.iter().zip(laps) {
        let (stream, partners) = b.intern_program(body, laps);
        b.push_rank(stream, partners).expect("interned rank is well-formed");
    }
    b.build()
}

/// The set's programs with every lap spelled out.
fn materialize(set: &ProgramSet) -> Vec<Program> {
    (0..set.num_ranks()).map(|r| set.materialize(r)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot fuzz: pausing at a random activation cut, forking the
    /// paused state and resuming every fork must equal a from-scratch
    /// run — for any cut, including 0 (nothing ran yet) and cuts past
    /// the end of the run (pause target overshoots, run completes).
    #[test]
    fn snapshot_at_random_cut_matches_from_scratch(
        n in 2usize..6,
        msgs in prop::collection::vec((0usize..6, 0usize..6, 0u32..5, 1usize..20_000), 1..30),
        computes in prop::collection::vec((0usize..6, 0u32..1000, 0u32..100_000), 0..6),
        collectives in 1usize..3,
        noisy in any::<bool>(),
        pause_after in 0u64..400,
        forks in 1usize..4,
    ) {
        let msgs: Vec<_> =
            msgs.into_iter().map(|(f, t, tag, b)| (f % n, t % n, tag, b)).collect();
        let programs = random_programs(n, &msgs, &computes, collectives);
        let mut machine = fixture_machine();
        if !noisy {
            machine.noise = NoiseModel::none();
        }
        let want = Engine::new(&machine, programs.clone()).run().unwrap();
        let paused = Engine::new(&machine, programs).run_paused(pause_after).unwrap();
        for fork in 0..forks {
            let got = paused.snapshot().resume().unwrap();
            prop_assert_eq!(
                &got, &want,
                "fork {} of pause @{} diverged from a from-scratch run", fork, pause_after
            );
        }
        let got = paused.resume().unwrap();
        prop_assert_eq!(&got, &want, "original resume @{} diverged", pause_after);
    }

    /// Cross-machine resume oracle: machine B differs from the fixture
    /// only in network, CPU rate curve and rendezvous threshold (same
    /// noise model and seed). At both ends of the cut range the answer is
    /// a whole run: a cut before the first activation resumes as a run on
    /// B, and a cut past the end leaves the run on the fixture untouched.
    /// So whatever a fork prices after the cut comes from the machine in
    /// force, never from the one it was paused on.
    #[test]
    fn cross_machine_resume_matches_whole_runs_at_both_ends(
        n in 2usize..6,
        msgs in prop::collection::vec((0usize..6, 0usize..6, 0u32..5, 1usize..20_000), 1..30),
        computes in prop::collection::vec((0usize..6, 0u32..1000, 0u32..100_000), 0..6),
        collectives in 1usize..3,
        noisy in any::<bool>(),
        link in (1.0f64..50.0, 20.0f64..1000.0, 0.5f64..10.0, 256.0f64..32_768.0),
        rates in (20.0f64..400.0, 20.0f64..400.0),
        rendezvous in (any::<bool>(), 64usize..20_000),
    ) {
        let msgs: Vec<_> =
            msgs.into_iter().map(|(f, t, tag, b)| (f % n, t % n, tag, b)).collect();
        let programs = random_programs(n, &msgs, &computes, collectives);
        let mut a = fixture_machine();
        if !noisy {
            a.noise = NoiseModel::none();
        }
        let mut b = a.clone();
        b.network = NetworkModel::from_link(link.0, link.1, link.2, link.3);
        b.cpu = CpuModel::with_curve(
            "random replacement",
            vec![
                RatePoint { bytes: 16.0 * 1024.0, mflops: rates.0 },
                RatePoint { bytes: 4.0 * 1024.0 * 1024.0, mflops: rates.1 },
            ],
            a.cpu.smp_contention,
        );
        b.rendezvous_bytes = rendezvous.0.then_some(rendezvous.1);

        let on_b = Engine::new(&b, programs.clone()).run().unwrap();
        let fork = Engine::new(&a, programs.clone()).run_paused(0).unwrap();
        prop_assert_eq!(fork.activations(), 0);
        let got = fork.resume_with(&b).unwrap();
        prop_assert_eq!(&got, &on_b, "cut before the first activation, resumed on B");

        let on_a = Engine::new(&a, programs.clone()).run().unwrap();
        let done = Engine::new(&a, programs).run_paused(u64::MAX).unwrap();
        prop_assert!(done.is_complete());
        let got = done.resume_with(&b).unwrap();
        prop_assert_eq!(&got, &on_a, "cut past the end, resumed on B");
    }

    /// Lapped differential: a set whose every rank runs a random balanced
    /// body `laps` times must run exactly like the spelled-out programs —
    /// through `Engine::new` (report, traced spans and edges) and through
    /// the reference engine — and a pause at any activation cut, forked
    /// and resumed, must equal the uninterrupted run. Every cut from 0 to
    /// the end is tried, so the lap boundaries (a rank parked with its pc
    /// at the end of its body) are among them.
    #[test]
    fn lapped_set_runs_like_its_materialized_programs(
        n in 2usize..6,
        msgs in prop::collection::vec((0usize..6, 0usize..6, 0u32..5, 1usize..20_000), 1..20),
        computes in prop::collection::vec((0usize..6, 0u32..1000, 0u32..100_000), 0..6),
        collectives in 1usize..3,
        laps in 1u32..5,
        rendezvous_raw in 0usize..8192,
        noisy in any::<bool>(),
    ) {
        let msgs: Vec<_> =
            msgs.into_iter().map(|(f, t, tag, b)| (f % n, t % n, tag, b)).collect();
        let bodies = random_programs(n, &msgs, &computes, collectives);
        let set = lapped_set(&bodies, &vec![laps; n]);
        let programs = materialize(&set);
        prop_assert_eq!(set.total_ops(), programs.iter().map(Program::len).sum::<usize>());
        let mut machine = fixture_machine();
        machine.rendezvous_bytes = (rendezvous_raw >= 512).then_some(rendezvous_raw);
        if !noisy {
            machine.noise = NoiseModel::none();
        }

        let rec_lapped = Recorder::enabled();
        let want = Engine::from_set(&machine, set.clone())
            .with_recorder(&rec_lapped, 0)
            .run()
            .unwrap();
        let rec_flat = Recorder::enabled();
        let flat =
            Engine::new(&machine, programs.clone()).with_recorder(&rec_flat, 0).run().unwrap();
        prop_assert_eq!(&flat, &want, "lapped set != materialized programs");
        prop_assert_eq!(rec_lapped.sim_spans(), rec_flat.sim_spans(), "span streams diverged");
        prop_assert_eq!(rec_lapped.sim_edges(), rec_flat.sim_edges(), "edge streams diverged");
        let reference = ReferenceEngine::new(&machine, programs).run().unwrap();
        prop_assert_eq!(&reference, &want, "lapped set != reference engine");

        let total = Engine::from_set(&machine, set.clone()).run_paused(u64::MAX).unwrap();
        prop_assert!(total.is_complete());
        for cut in 0..=total.activations() {
            let paused = Engine::from_set(&machine, set.clone()).run_paused(cut).unwrap();
            let fork = paused.snapshot().resume().unwrap();
            prop_assert_eq!(&fork, &want, "fork of pause @{} diverged", cut);
            let got = paused.resume().unwrap();
            prop_assert_eq!(&got, &want, "resume of pause @{} diverged", cut);
        }
    }

    /// Static validation on a lapped set gives the verdict
    /// `validate_programs` gives on the spelled-out programs: per-rank
    /// laps may differ (which unbalances most sets), and one op may be
    /// dropped from one body.
    #[test]
    fn lapped_validate_agrees_with_materialized(
        n in 2usize..6,
        msgs in prop::collection::vec((0usize..6, 0usize..6, 0u32..5, 1usize..20_000), 1..20),
        collectives in 1usize..3,
        laps in prop::collection::vec(1u32..5, 6..7),
        same_laps in any::<bool>(),
        drop in (any::<bool>(), 0usize..6, 0usize..64),
    ) {
        let msgs: Vec<_> =
            msgs.into_iter().map(|(f, t, tag, b)| (f % n, t % n, tag, b)).collect();
        let mut bodies = random_programs(n, &msgs, &[], collectives);
        if drop.0 {
            let body = &bodies[drop.1 % n];
            let skip = drop.2 % body.len();
            let mut kept = Program::new();
            for (i, &op) in body.ops().iter().enumerate() {
                if i != skip {
                    kept.push(op);
                }
            }
            bodies[drop.1 % n] = kept;
        }
        let laps = if same_laps { vec![laps[0]; n] } else { laps[..n].to_vec() };
        let set = lapped_set(&bodies, &laps);
        let lapped = set.validate();
        let flat = validate_programs(&materialize(&set));
        prop_assert_eq!(
            lapped.is_ok(),
            flat.is_ok(),
            "verdicts differ: lapped {:?} vs materialized {:?}", lapped, flat
        );
    }
}
