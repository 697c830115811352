//! Conservative parallel execution of the discrete-event engine.
//!
//! [`Engine::run_parallel`] partitions the rank mesh into contiguous
//! blocks — one per worker thread — and advances the partitions in
//! lock-step *windows* separated by barriers (a null-message-free,
//! barrier-synchronous variant of conservative parallel DES). Each
//! partition is a `SeqState` over its rank block and the channels those
//! ranks receive on, and a window runs the sequential engine's own op
//! interpreter, `SeqState::advance`, until every local rank is blocked on
//! remote input, parked at a collective, or done. Traffic on a channel
//! another partition owns lands in the partition's outbox, which the
//! coordinator drains into the receiving partition between windows. This
//! module is only that driver: partitioning, the lookahead census, the
//! zero-lookahead fallback and the barrier/drain loop.
//!
//! # Why the result is bit-identical to the sequential engine
//!
//! The sequential engine is a Kahn network in disguise: progress is gated
//! on *message availability*, never on wall-ordering of events, and every
//! quantity a rank computes derives from rank-local state plus the
//! timestamps carried by its input messages.
//!
//! * **Timestamps are sender-local.** An eager message's arrival time is
//!   `max(sender clock, sender NIC busy) + wire + jitter` — nothing of
//!   the receiver. The receiver folds it in with `max(own clock,
//!   arrival)`, so a message delivered "late" (in a later window, with an
//!   arrival timestamp in the receiver's past) produces exactly the wait
//!   and clock the sequential engine computes.
//! * **Noise stays in program order.** Compute factors and message jitter
//!   are drawn from per-rank streams as each rank executes its own ops in
//!   program order — identical under any interleaving.
//! * **Channels are single-writer FIFOs.** A channel has one sending rank,
//!   so per-channel order (and therefore tag matching) is independent of
//!   how windows interleave partitions.
//! * **Rendezvous crosses the boundary as a handshake.** A cross-partition
//!   synchronous send always parks. The parked send carries the sender's
//!   NIC-busy time, which is frozen while the sender is blocked; the
//!   receiver completes the handshake and mails back the resume time.
//!   Both rendezvous paths of the interpreter — receiver-already-waiting
//!   and sender-parks — compute the *same* `wire_start = max(sender
//!   ready, sender NIC busy, receiver post clock)`, so forcing the parked
//!   path at the boundary changes nothing.
//! * **Collectives are order-free.** A collective completes from the
//!   parked ranks' entry clocks (`max`) and payload (`max`) only, which
//!   the coordinator evaluates at the window barrier with the same
//!   completion function the sequential driver calls.
//! * **Costs come from the same table.** The run builds one `RunCtx` — the
//!   cost table, noise level, rendezvous threshold and recorder — and
//!   every partition reads it. A message or parked send crosses the
//!   boundary with its sending op's price class, and channels keep their
//!   flat ids: a partition owns the contiguous id range of its rank
//!   block.
//!
//! The *lookahead* — the minimum wire latency over all messages that
//! cross a partition boundary — is what makes the window conservative in
//! the classical sense: a message sent in window `k` cannot influence a
//! neighbour partition earlier than `lookahead` after its send clock, so
//! draining boundary mailboxes at the barrier never delivers anything a
//! partition should already have seen *within* its window frontier. It
//! is read from the cost table's wire times. With a zero-latency link the
//! safe window collapses to zero width, so the engine falls back to
//! sequential execution (with a warning) rather than claim a conservative
//! schedule it cannot honour.
//!
//! Telemetry: the run emits the *same* per-rank sim spans as the
//! sequential engine (the recorder sorts spans deterministically on
//! export), plus wall-clock spans under the [`PARTITION_PID`]
//! (`sim.partition`) track group — one track per worker showing each
//! window's busy interval, and a coordinator track showing the
//! drain/barrier phases — so Chrome traces make the window structure and
//! barrier waits visible.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use obs::Cat;

use crate::engine::{
    build_channels, complete_collective, finalize, run_sequential, Engine, RunCtx, SeqState,
};
use crate::error::SimResult;
use crate::progset::SharedOp;
use crate::stats::RunReport;
use crate::time::SimTime;

/// Track group for the parallel engine's wall-clock telemetry (the
/// `sim.partition` pid convention): one track per partition worker plus a
/// coordinator track for the inter-window drains. Sim-domain spans keep
/// the caller's pid, exactly as in a sequential run.
pub const PARTITION_PID: u32 = obs::pids::PARTITION;

/// Process-wide count of zero-lookahead sequential fallbacks (each one
/// also prints a single warning line to stderr). Tests assert the
/// warn-exactly-once contract by differencing this counter around a run.
static FALLBACK_WARNINGS: AtomicU64 = AtomicU64::new(0);

/// Number of zero-lookahead sequential fallbacks this process has taken.
///
/// Hidden: only the benchmark's traced speculation rebuild and the
/// engine-equivalence tests call this; ROADMAP item 2 deletes it.
#[doc(hidden)]
pub fn zero_lookahead_fallbacks() -> u64 {
    FALLBACK_WARNINGS.load(Ordering::Relaxed)
}

/// Counters describing how a parallel run executed. The *results* never
/// depend on any of this — only wall-clock behaviour does.
///
/// Hidden: only the benchmark's traced speculation rebuild and the
/// engine-equivalence tests call this; ROADMAP item 2 deletes it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParStats {
    /// Contiguous rank partitions (worker threads) actually used.
    pub partitions: usize,
    /// Lock-step windows executed (barrier rounds).
    pub windows: u64,
    /// Minimum wire latency over cross-partition messages — the
    /// conservative lookahead. `None` when no traffic crosses a boundary.
    pub lookahead: Option<SimTime>,
    /// Whether the run fell back to the sequential engine (requested
    /// thread count ≤ 1, tiny rank count, or zero lookahead).
    pub fell_back: bool,
    /// Directed `(src, dst)` channels that cross a partition boundary.
    pub boundary_channels: usize,
    /// Boundary mailbox entries drained over the whole run.
    pub boundary_messages: u64,
}

impl<'m> Engine<'m> {
    /// Execute the programs on `threads` worker threads, returning the
    /// same [`RunReport`] — bit for bit — as [`Engine::run`].
    ///
    /// Falls back to the sequential scheduler when `threads <= 1`, when
    /// there are fewer ranks than two, or when the cross-partition
    /// lookahead is zero (a zero-latency interconnect admits no
    /// conservative window; a warning is printed to stderr).
    ///
    /// Hidden: only the benchmark's traced speculation rebuild and the
    /// engine-equivalence tests call this; ROADMAP item 2 deletes it.
    #[doc(hidden)]
    pub fn run_parallel(self, threads: usize) -> SimResult<RunReport> {
        self.run_parallel_stats(threads).map(|(report, _)| report)
    }

    /// [`Engine::run_parallel`] plus the window/lookahead counters, for
    /// tests and the bench harness.
    ///
    /// Hidden: only the benchmark's traced speculation rebuild and the
    /// engine-equivalence tests call this; ROADMAP item 2 deletes it.
    #[doc(hidden)]
    pub fn run_parallel_stats(self, threads: usize) -> SimResult<(RunReport, ParStats)> {
        self.validate()?;
        let Engine { machine, set, recorder, trace_pid, .. } = self;
        let n = set.num_ranks();
        let p = threads.min(n);
        let channels = build_channels(&set);
        let ctx = RunCtx::new(machine, &set, recorder, trace_pid);
        // One partition: a sequential run, or (with a zero lookahead) the
        // fallback from a parallel one.
        let sequential = |lookahead: Option<SimTime>, boundary_channels| -> SimResult<_> {
            let (report, _) = run_sequential(&set, &channels, &ctx)?;
            let stats = ParStats {
                partitions: 1,
                windows: 0,
                lookahead,
                fell_back: lookahead.is_some(),
                boundary_channels,
                boundary_messages: 0,
            };
            Ok((report, stats))
        };
        if p <= 1 {
            return sequential(None, 0);
        }

        // Contiguous rank partitions, sizes within one of each other.
        let bounds: Vec<usize> = (0..=p).map(|i| i * n / p).collect();
        let mut part_of = vec![0u32; n];
        for i in 0..p {
            part_of[bounds[i]..bounds[i + 1]].fill(i as u32);
        }

        // Conservative lookahead: the minimum wire latency over every
        // send that crosses a partition boundary, and the boundary
        // channel census.
        let mut boundary_channels = 0usize;
        let mut lookahead: Option<SimTime> = None;
        for r in 0..n {
            let pr = part_of[r];
            let partners = set.partners(r);
            let mut crosses = false;
            for &q in partners {
                if (q as usize) < n && part_of[q as usize] != pr {
                    boundary_channels += 1;
                    crosses = true;
                }
            }
            if !crosses {
                continue;
            }
            let classes = ctx.costs.classes(&set, r);
            for (at, op) in set.ops(r).iter().enumerate() {
                if let SharedOp::Send { slot, .. } = *op {
                    let to = partners[slot as usize] as usize;
                    if to < n && part_of[to] != pr {
                        let w = ctx.costs.prices[classes[at] as usize].wire;
                        lookahead = Some(lookahead.map_or(w, |l| l.min(w)));
                    }
                }
            }
        }
        if lookahead == Some(SimTime::ZERO) {
            FALLBACK_WARNINGS.fetch_add(1, Ordering::Relaxed);
            // Warn exactly once per run.
            eprintln!(
                "cluster-sim: run_parallel({threads}) fell back to sequential execution: \
                 zero cross-partition wire latency leaves no conservative window"
            );
            return sequential(lookahead, boundary_channels);
        }

        let rec = ctx.rec;
        if let Some(rec) = rec {
            rec.set_process_name(PARTITION_PID, "sim.partition");
            for i in 0..p {
                rec.set_thread_name(PARTITION_PID, i as u32, format!("partition {i}"));
            }
            rec.set_thread_name(PARTITION_PID, p as u32, "coordinator");
        }

        let chan_base = &channels.chan_base;
        let parts: Vec<Mutex<SeqState>> = (0..p)
            .map(|i| {
                let (lo, hi) = (bounds[i], bounds[i + 1]);
                let chans = chan_base[lo] as usize..chan_base[hi] as usize;
                Mutex::new(SeqState::new(machine, lo..hi, chans))
            })
            .collect();

        let barrier = Barrier::new(p + 1);
        let stop = AtomicBool::new(false);
        let panic_box: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        let (windows, boundary_messages) = std::thread::scope(|scope| {
            for i in 0..p {
                let (barrier, stop, parts, panic_box) = (&barrier, &stop, &parts, &panic_box);
                let (set, channels, ctx) = (&set, &channels, &ctx);
                scope.spawn(move || {
                    let mut window = 0u64;
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        window += 1;
                        let t0 = Instant::now();
                        let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            let mut part = parts[i]
                                .lock()
                                .expect("no worker holds a partition across a panic");
                            let before = part.activations();
                            part.advance(set, channels, ctx, None);
                            part.activations() - before
                        }));
                        match ran {
                            Ok(activations) => {
                                if let Some(rec) = rec.filter(|_| activations > 0) {
                                    rec.wall_span(
                                        PARTITION_PID,
                                        i as u32,
                                        format!("window {window}"),
                                        Cat::Phase,
                                        t0,
                                        vec![("activations", activations.into())],
                                    );
                                }
                            }
                            Err(payload) => {
                                *panic_box.lock().unwrap() = Some(payload);
                            }
                        }
                        barrier.wait();
                    }
                });
            }

            let mut windows = 0u64;
            let mut boundary_messages = 0u64;
            loop {
                barrier.wait(); // workers enter the window
                barrier.wait(); // workers reached the frontier
                windows += 1;
                if let Some(payload) = panic_box.lock().unwrap().take() {
                    stop.store(true, Ordering::Release);
                    barrier.wait();
                    std::panic::resume_unwind(payload);
                }
                let t0 = Instant::now();
                // Exclusive access: every worker is parked at the barrier.
                let mut locked: Vec<_> = parts.iter().map(|m| m.lock().unwrap()).collect();
                let mut states: Vec<&mut SeqState> = locked.iter_mut().map(|g| &mut **g).collect();
                // Drain outboxes in deterministic source order. Per-channel
                // order is preserved because a channel has a single sending
                // rank (one source partition, FIFO outbox).
                let mut delivered = 0u64;
                for src in 0..p {
                    let mut mail = std::mem::take(&mut states[src].outbox);
                    for bound in mail.drain(..) {
                        if let Some(owner) = bound.owner(&channels) {
                            states[part_of[owner] as usize].deliver(bound, &ctx);
                            delivered += 1;
                        }
                    }
                    states[src].outbox = mail;
                }
                boundary_messages += delivered;
                complete_collective(&mut states, &set, &ctx);
                if let Some(rec) = rec {
                    rec.wall_span(
                        PARTITION_PID,
                        p as u32,
                        format!("drain {windows}"),
                        Cat::Task,
                        t0,
                        vec![("delivered", delivered.into())],
                    );
                }
                // Nothing runnable anywhere: the run is done, or it reached
                // the same least-fixpoint deadlock the sequential engine
                // does.
                if states.iter().all(|s| s.is_idle()) {
                    break;
                }
            }
            stop.store(true, Ordering::Release);
            barrier.wait();
            (windows, boundary_messages)
        });

        let states = parts
            .into_iter()
            .map(|m| {
                m.into_inner().expect("a worker panic is re-raised before the states are read")
            })
            .collect();
        let report = finalize(states, &ctx, true)?;
        let stats = ParStats {
            partitions: p,
            windows,
            lookahead,
            fell_back: false,
            boundary_channels,
            boundary_messages,
        };
        Ok((report, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::machine::MachineSpec;
    use crate::network::NetworkModel;
    use crate::noise::NoiseModel;
    use crate::program::{Op, Program};
    use obs::Recorder;

    fn prog(ops: &[Op]) -> Program {
        let mut p = Program::new();
        for &op in ops {
            p.push(op);
        }
        p
    }

    fn linked(mflops: f64) -> MachineSpec {
        let mut m = MachineSpec::ideal(mflops);
        m.network = NetworkModel::from_link(10.0, 250.0, 2.0, 16384.0);
        m
    }

    /// A pipeline that crosses every partition boundary, with noise and a
    /// rendezvous threshold so eager, rendezvous and collective paths all
    /// cross partitions.
    fn pipeline(ranks: usize, blocks: usize, bytes: usize) -> Vec<Program> {
        let mut programs = Vec::new();
        for r in 0..ranks {
            let mut p = Program::new();
            for b in 0..blocks {
                if r > 0 {
                    p.push(Op::Recv { from: r - 1, tag: b as u32 });
                }
                p.push(Op::Compute { flops: 1e6, working_set: 2048 });
                if r + 1 < ranks {
                    p.push(Op::Send { to: r + 1, bytes, tag: b as u32 });
                }
            }
            p.push(Op::AllReduce { bytes: 8 });
            programs.push(p);
        }
        programs
    }

    #[test]
    fn parallel_matches_sequential_on_eager_pipeline() {
        let mut m = linked(100.0);
        m.noise = NoiseModel::commodity();
        let programs = pipeline(13, 5, 512);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        for threads in [2, 3, 5, 8] {
            let got = Engine::new(&m, programs.clone()).run_parallel(threads).unwrap();
            assert_eq!(got, want, "{threads} threads diverged");
        }
    }

    #[test]
    fn parallel_matches_sequential_on_rendezvous_pipeline() {
        let mut m = linked(100.0);
        m.noise = NoiseModel::commodity();
        m.rendezvous_bytes = Some(1024);
        // 50 kB blocks: every hop is a rendezvous handshake, and every
        // partition boundary exercises the Pend/Done mailbox path.
        let programs = pipeline(9, 4, 50_000);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        for threads in [2, 3, 4, 9] {
            let (got, stats) =
                Engine::new(&m, programs.clone()).run_parallel_stats(threads).unwrap();
            assert_eq!(got, want, "{threads} threads diverged");
            assert!(stats.boundary_messages > 0, "boundary mailboxes unused");
            assert!(!stats.fell_back);
            assert_eq!(stats.partitions, threads);
        }
    }

    #[test]
    fn remote_receiver_already_waiting_matches_fast_path() {
        // Sequential takes the receiver-already-blocked rendezvous fast
        // path here; the parallel engine must reproduce it through the
        // parked handshake (the two are value-identical).
        let mut m = linked(100.0);
        m.rendezvous_bytes = Some(1024);
        let p0 = prog(&[
            Op::Compute { flops: 1e8, working_set: 0 },
            Op::Send { to: 1, bytes: 100_000, tag: 1 },
        ]);
        let p1 = prog(&[Op::Recv { from: 0, tag: 1 }]);
        let want = Engine::new(&m, vec![p0.clone(), p1.clone()]).run().unwrap();
        let got = Engine::new(&m, vec![p0, p1]).run_parallel(2).unwrap();
        assert_eq!(got, want);
        assert!(want.ranks[1].recv_wait > SimTime::ZERO);
    }

    #[test]
    fn parked_sender_carries_its_busy_nic_across_the_boundary() {
        // Rank 0's eager send keeps its NIC busy for 0.9 s, then its
        // rendezvous send parks at once (the receiver has not posted).
        // Rank 1 posts after 0.5 s, so the wire waits for the NIC the
        // parked send carries. run_parallel(2) puts the two ranks in
        // different partitions, so the handshake reads that carried value
        // instead of the sender's live state.
        let mut m = MachineSpec::ideal(100.0);
        m.network = NetworkModel {
            send: crate::network::PiecewiseSegments::linear(1.0, 0.0),
            recv: crate::network::PiecewiseSegments::linear(1.0, 0.0),
            pingpong: crate::network::PiecewiseSegments::linear(20.0, 0.02),
            serialization_bw: 1e6, // 1 µs per byte on the NIC
        };
        m.rendezvous_bytes = Some(1_000_000);
        let p0 = prog(&[
            Op::Send { to: 1, bytes: 900_000, tag: 1 },
            Op::Send { to: 1, bytes: 2_000_000, tag: 2 },
        ]);
        let p1 = prog(&[
            Op::Compute { flops: 5e7, working_set: 0 },
            Op::Recv { from: 0, tag: 2 },
            Op::Recv { from: 0, tag: 1 },
        ]);
        let programs = vec![p0, p1];
        let want = crate::ReferenceEngine::new(&m, programs.clone()).run().unwrap();
        let rec = Recorder::enabled();
        let seq = Engine::new(&m, programs.clone()).with_recorder(&rec, 0).run().unwrap();
        let (par, stats) = Engine::new(&m, programs).run_parallel_stats(2).unwrap();
        assert_eq!(seq, want);
        assert_eq!(par, want);
        assert_eq!((stats.partitions, stats.fell_back), (2, false));
        // The rendezvous wire started when the NIC freed, after both the
        // sender's ready time and the receiver's post.
        let edge = rec.sim_edges().into_iter().find(|e| e.tag == 2).unwrap();
        assert!(edge.wire_start > edge.send_post.max(edge.recv_post), "{edge:?}");
        assert_eq!(edge.wire_start, SimTime::from_secs(0.9 + 1e-6).picos());
    }

    #[test]
    fn tracing_parallel_matches_tracing_sequential() {
        let mut m = linked(100.0);
        m.noise = NoiseModel::commodity();
        m.rendezvous_bytes = Some(4096);
        let programs = pipeline(8, 3, 8_000);
        let rec_seq = Recorder::enabled();
        let want = Engine::new(&m, programs.clone()).with_recorder(&rec_seq, 3).run().unwrap();
        let rec_par = Recorder::enabled();
        let got = Engine::new(&m, programs).with_recorder(&rec_par, 3).run_parallel(3).unwrap();
        assert_eq!(got, want, "tracing changed the parallel engine");
        // The sim-domain span and causality-edge streams are
        // byte-identical after the recorder's deterministic sort.
        assert_eq!(rec_seq.sim_spans(), rec_par.sim_spans());
        assert!(!rec_seq.sim_edges().is_empty());
        assert_eq!(rec_seq.sim_edges(), rec_par.sim_edges());
        // Wall spans document the window structure under sim.partition.
        assert!(rec_par
            .wall_spans()
            .iter()
            .any(|s| s.pid == PARTITION_PID && s.name.starts_with("window")));
        assert!(rec_par
            .wall_spans()
            .iter()
            .any(|s| s.pid == PARTITION_PID && s.name.starts_with("drain")));
    }

    #[test]
    fn deadlock_reported_identically() {
        let m = linked(100.0);
        let p0 = prog(&[Op::Recv { from: 1, tag: 0 }, Op::Send { to: 1, bytes: 8, tag: 0 }]);
        let p1 = prog(&[Op::Recv { from: 0, tag: 0 }, Op::Send { to: 0, bytes: 8, tag: 0 }]);
        let want = Engine::new(&m, vec![p0.clone(), p1.clone()]).run().unwrap_err();
        let got = Engine::new(&m, vec![p0, p1]).run_parallel(2).unwrap_err();
        assert_eq!(format!("{want:?}"), format!("{got:?}"));
    }

    #[test]
    fn zero_lookahead_falls_back_to_sequential() {
        // A free (zero-latency) network admits no conservative window:
        // the run must fall back, not deadlock or panic, and still match.
        let m = MachineSpec::ideal(100.0); // NetworkModel::free()
        let programs = pipeline(6, 3, 512);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        let (got, stats) = Engine::new(&m, programs).run_parallel_stats(4).unwrap();
        assert_eq!(got, want);
        assert!(stats.fell_back, "zero lookahead must fall back");
        assert_eq!(stats.lookahead, Some(SimTime::ZERO));
        assert_eq!(stats.partitions, 1);
    }

    #[test]
    fn one_thread_and_tiny_meshes_run_sequentially() {
        let m = linked(100.0);
        let programs = pipeline(3, 2, 64);
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        let (got, stats) = Engine::new(&m, programs.clone()).run_parallel_stats(1).unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.partitions, 1);
        assert!(!stats.fell_back);
        // More threads than ranks: partitions clamp to the rank count.
        let (got, stats) = Engine::new(&m, programs).run_parallel_stats(64).unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.partitions, 3);
    }

    #[test]
    fn independent_partitions_have_no_lookahead() {
        // Two ranks that never talk: no boundary channels, lookahead None.
        let m = linked(100.0);
        let p0 = prog(&[Op::Compute { flops: 1e7, working_set: 0 }]);
        let p1 = prog(&[Op::Compute { flops: 2e7, working_set: 0 }]);
        let want = Engine::new(&m, vec![p0.clone(), p1.clone()]).run().unwrap();
        let (got, stats) = Engine::new(&m, vec![p0, p1]).run_parallel_stats(2).unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.boundary_channels, 0);
        assert_eq!(stats.lookahead, None);
        assert!(!stats.fell_back);
    }

    #[test]
    fn validation_still_applies() {
        let m = linked(100.0);
        let p0 = prog(&[Op::Send { to: 1, bytes: 8, tag: 0 }]);
        let p1 = prog(&[]);
        let err = Engine::new(&m, vec![p0, p1]).run_parallel(2).unwrap_err();
        assert!(matches!(err, SimError::InvalidPrograms { .. }));
    }

    #[test]
    fn collectives_synchronise_across_partitions() {
        let m = linked(100.0);
        let mut programs = Vec::new();
        for r in 0..6 {
            programs.push(prog(&[
                Op::Compute { flops: 1e6 * (r + 1) as f64, working_set: 0 },
                Op::Barrier,
                Op::Compute { flops: 1e6, working_set: 0 },
                Op::AllReduce { bytes: 64 },
            ]));
        }
        let want = Engine::new(&m, programs.clone()).run().unwrap();
        for threads in [2, 3, 6] {
            let got = Engine::new(&m, programs.clone()).run_parallel(threads).unwrap();
            assert_eq!(got, want, "{threads} threads diverged");
        }
    }
}
