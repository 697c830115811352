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
//!   N ways, each fork resumed and compared to a from-scratch run.
//!
//! Failures reproduce deterministically (the proptest shim derives each
//! case's RNG from the test name and case index) and, when
//! `PROPTEST_FAILURE_DIR` is set — as in the nightly deep-fuzz CI job —
//! leave a repro artifact per failing case.
//!
//! If a golden digest changes on purpose, re-bless with `BLESS_GOLDEN=1`
//! (see `engine_golden.rs`) and say so loudly in the PR.

use cluster_sim::{Engine, MachineSpec, NoiseModel, Op, Program};
use obs::Recorder;
use proptest::prelude::*;
use sweep3d::trace::{generate_program_set, FlopModel};
use sweep3d::ProblemConfig;

fn fixture_machine() -> MachineSpec {
    let mut m = hwbench::machines::pentium3_myrinet_sim();
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
}
