//! The retained reference scheduler.
//!
//! This is the original (pre-optimization) execution core, kept verbatim:
//! per-rank `RankState` structs, `HashMap<(to, from, tag), VecDeque<_>>`
//! channel maps for in-flight messages and parked rendezvous senders, and
//! cloned `Vec<Program>` inputs. It is **the ground truth** the optimized
//! [`crate::engine::Engine`] is differential-tested against: the golden
//! digests in `tests/engine_golden.rs` and the random-program property
//! tests require the two schedulers to produce bit-identical
//! [`RunReport`]s, with tracing on and off, and `tests/engine_parallel.rs`
//! holds the windowed-parallel scheduler to the same oracle.
//!
//! Keep this implementation simple and obviously correct; do not optimize
//! it. New engine features must be mirrored here first so the differential
//! guard keeps meaning something.

use std::collections::{HashMap, VecDeque};

use obs::{Cat, Recorder};

use crate::engine::{debug_check_span_totals, debug_span_baseline};
use crate::error::{SimError, SimResult};
use crate::machine::MachineSpec;
use crate::noise::NoiseStream;
use crate::program::{validate_programs, Op, Program};
use crate::stats::{RankStats, RunReport};
use crate::time::SimTime;

/// Rank scheduling status.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Ready,
    BlockedRecv {
        from: usize,
        tag: u32,
    },
    /// Rendezvous sender waiting for the receiver to post its receive.
    BlockedSend {
        to: usize,
        tag: u32,
    },
    Parked,
    Done,
}

/// A rendezvous send parked until its receive is posted.
#[derive(Debug, Clone, Copy)]
struct PendingSend {
    /// Time the sender became ready to transfer (after the send-call
    /// overhead).
    ready: SimTime,
    /// Message size.
    bytes: usize,
    /// Pre-drawn wire jitter (drawn at send execution so noise stays in
    /// program order).
    jitter: SimTime,
}

/// Per-rank execution state.
struct RankState {
    clock: SimTime,
    pc: usize,
    status: Status,
    noise: NoiseStream,
    stats: RankStats,
    /// Arrival clock at the collective the rank is parked on.
    park_clock: SimTime,
}

/// The retained pre-optimization simulation engine, kept as the oracle the
/// differential tests compare both schedulers against. Same contract as
/// [`crate::engine::Engine`], array-of-structs state and hash-map channel
/// tables. Construct with [`ReferenceEngine::new`], run with
/// [`ReferenceEngine::run`].
pub struct ReferenceEngine<'m> {
    machine: &'m MachineSpec,
    programs: Vec<Program>,
    /// Skip static validation (for intentionally-broken deadlock tests).
    skip_validation: bool,
    /// Telemetry sink for per-activity spans (virtual-time domain).
    recorder: Option<&'m Recorder>,
    /// Track group the spans are recorded under.
    trace_pid: u32,
}

impl<'m> ReferenceEngine<'m> {
    /// Create an engine for one program per rank.
    pub fn new(machine: &'m MachineSpec, programs: Vec<Program>) -> Self {
        ReferenceEngine { machine, programs, skip_validation: false, recorder: None, trace_pid: 0 }
    }

    /// Disable the static message-balance pre-check (dynamic deadlock
    /// detection still applies).
    pub fn without_validation(mut self) -> Self {
        self.skip_validation = true;
        self
    }

    /// Attach a telemetry recorder (see [`crate::engine::Engine::with_recorder`]).
    pub fn with_recorder(mut self, recorder: &'m Recorder, pid: u32) -> Self {
        self.recorder = Some(recorder);
        self.trace_pid = pid;
        self
    }

    /// Execute the programs to completion, returning per-rank statistics.
    pub fn run(self) -> SimResult<RunReport> {
        if !self.skip_validation {
            validate_programs(&self.programs)
                .map_err(|detail| SimError::InvalidPrograms { detail })?;
        }
        let n = self.programs.len();
        if n == 0 {
            return Ok(RunReport { ranks: vec![] });
        }
        let machine = self.machine;
        let sharers = machine.sharers(n);
        // Per-run background-load level (same for every rank in this run).
        let run_factor = machine.noise.run_factor(machine.seed);
        // Telemetry sink (None when absent or disabled: zero-cost path).
        let rec: Option<&Recorder> = self.recorder.filter(|r| r.is_enabled());
        let pid = self.trace_pid;
        let span_baseline = debug_span_baseline(rec);
        if let Some(rec) = rec {
            for r in 0..n {
                rec.set_thread_name(pid, r as u32, format!("rank {r}"));
            }
        }

        let mut ranks: Vec<RankState> = (0..n)
            .map(|r| RankState {
                clock: SimTime::ZERO,
                pc: 0,
                status: Status::Ready,
                noise: NoiseStream::new(machine.noise, machine.seed, r),
                stats: RankStats::default(),
                park_clock: SimTime::ZERO,
            })
            .collect();

        // In-flight (arrival time, bytes) per (to, from, tag) channel, FIFO
        // in sender program order (MPI non-overtaking).
        let mut inflight: HashMap<(usize, usize, u32), VecDeque<(SimTime, usize)>> = HashMap::new();
        // Sender NIC busy-until times (back-to-back serialisation).
        let mut nic_busy: Vec<SimTime> = vec![SimTime::ZERO; n];
        // Rendezvous senders parked per (to, from, tag) channel, FIFO.
        let mut pending_sends: HashMap<(usize, usize, u32), VecDeque<(usize, PendingSend)>> =
            HashMap::new();
        let eager_limit = machine.rendezvous_bytes.unwrap_or(usize::MAX);
        // Ranks currently parked at the pending collective.
        let mut parked: Vec<usize> = Vec::with_capacity(n);
        let mut finished = 0usize;

        let mut ready: VecDeque<usize> = (0..n).collect();

        while let Some(r) = ready.pop_front() {
            debug_assert_eq!(ranks[r].status, Status::Ready);
            loop {
                let pc = ranks[r].pc;
                if pc >= self.programs[r].len() {
                    ranks[r].status = Status::Done;
                    ranks[r].stats.finish = ranks[r].clock;
                    // Every clock advance is mirrored by exactly one stats
                    // increment, so the breakdown closes *exactly* in
                    // integer picoseconds — not just approximately.
                    debug_assert_eq!(
                        ranks[r].stats.accounted(),
                        ranks[r].stats.finish,
                        "rank {r}: accounted time must equal finish exactly"
                    );
                    finished += 1;
                    break;
                }
                match self.programs[r].ops()[pc] {
                    Op::Compute { flops, working_set } => {
                        let base = machine.cpu.compute_time(flops, working_set, sharers);
                        let factor = ranks[r].noise.compute_factor() * run_factor;
                        let dur = SimTime::from_secs(base.as_secs() * factor);
                        if let Some(rec) = rec {
                            rec.sim_span(
                                pid,
                                r as u32,
                                "compute",
                                Cat::Compute,
                                ranks[r].clock.picos(),
                                dur.picos(),
                                vec![],
                            );
                        }
                        ranks[r].clock += dur;
                        ranks[r].stats.compute += dur;
                        ranks[r].pc += 1;
                    }
                    Op::Send { to, bytes, tag } => {
                        let overhead = machine.network.sender_overhead(bytes);
                        if let Some(rec) = rec {
                            rec.sim_span(
                                pid,
                                r as u32,
                                "send",
                                Cat::Comm,
                                ranks[r].clock.picos(),
                                overhead.picos(),
                                vec![
                                    ("to", to.into()),
                                    ("bytes", bytes.into()),
                                    ("tag", (tag as u64).into()),
                                ],
                            );
                        }
                        ranks[r].clock += overhead;
                        ranks[r].stats.send_overhead += overhead;
                        let jitter = SimTime::from_secs(ranks[r].noise.message_jitter_secs());
                        if bytes >= eager_limit
                            && ranks[to].status != (Status::BlockedRecv { from: r, tag })
                        {
                            // Rendezvous: the receiver has not posted yet;
                            // park until it reaches the matching receive.
                            let pending = PendingSend { ready: ranks[r].clock, bytes, jitter };
                            pending_sends.entry((to, r, tag)).or_default().push_back((r, pending));
                            ranks[r].status = Status::BlockedSend { to, tag };
                            break;
                        }
                        // Eager transfer (or the receiver is already
                        // waiting, which completes the handshake at once).
                        let posted = if bytes >= eager_limit {
                            ranks[to].clock // receiver's clock at its post
                        } else {
                            SimTime::ZERO
                        };
                        let wire_start = ranks[r].clock.max(nic_busy[r]).max(posted);
                        nic_busy[r] = wire_start + machine.network.serialization_time(bytes);
                        let arrival = wire_start + machine.network.wire_time(bytes) + jitter;
                        inflight.entry((to, r, tag)).or_default().push_back((arrival, bytes));
                        ranks[r].stats.messages_sent += 1;
                        ranks[r].stats.bytes_sent += bytes as u64;
                        // A blocking rendezvous send returns once the
                        // buffer is reusable (after serialisation).
                        if bytes >= eager_limit {
                            let done = nic_busy[r];
                            let before = ranks[r].clock;
                            let wait = done.saturating_sub(before);
                            if let Some(rec) = rec {
                                if wait > SimTime::ZERO {
                                    rec.sim_span(
                                        pid,
                                        r as u32,
                                        "send_wait",
                                        Cat::Comm,
                                        before.picos(),
                                        wait.picos(),
                                        vec![("to", to.into()), ("bytes", bytes.into())],
                                    );
                                }
                            }
                            ranks[r].stats.send_wait += wait;
                            ranks[r].clock = before.max(done);
                        }
                        ranks[r].pc += 1;
                        // Wake the receiver if it is blocked on this channel.
                        if ranks[to].status == (Status::BlockedRecv { from: r, tag }) {
                            ranks[to].status = Status::Ready;
                            ready.push_back(to);
                        }
                    }
                    Op::Recv { from, tag } => {
                        let channel = (r, from, tag);
                        let arrival = inflight.get_mut(&channel).and_then(|q| q.pop_front());
                        match arrival {
                            Some((arrival, msg_bytes)) => {
                                let wait = arrival.saturating_sub(ranks[r].clock);
                                let overhead = machine.network.receiver_overhead(msg_bytes);
                                if let Some(rec) = rec {
                                    if wait > SimTime::ZERO {
                                        rec.sim_span(
                                            pid,
                                            r as u32,
                                            "recv_wait",
                                            Cat::Idle,
                                            ranks[r].clock.picos(),
                                            wait.picos(),
                                            vec![("from", from.into())],
                                        );
                                    }
                                    rec.sim_span(
                                        pid,
                                        r as u32,
                                        "recv",
                                        Cat::Comm,
                                        ranks[r].clock.max(arrival).picos(),
                                        overhead.picos(),
                                        vec![
                                            ("from", from.into()),
                                            ("bytes", msg_bytes.into()),
                                            ("tag", (tag as u64).into()),
                                        ],
                                    );
                                }
                                ranks[r].stats.recv_wait += wait;
                                ranks[r].clock = ranks[r].clock.max(arrival) + overhead;
                                ranks[r].stats.recv_overhead += overhead;
                                ranks[r].pc += 1;
                            }
                            None => {
                                // A rendezvous sender may be parked on
                                // this channel: complete the handshake.
                                if let Some((s_rank, pend)) =
                                    pending_sends.get_mut(&channel).and_then(|q| q.pop_front())
                                {
                                    let wire_start =
                                        pend.ready.max(nic_busy[s_rank]).max(ranks[r].clock);
                                    nic_busy[s_rank] =
                                        wire_start + machine.network.serialization_time(pend.bytes);
                                    let arrival = wire_start
                                        + machine.network.wire_time(pend.bytes)
                                        + pend.jitter;
                                    // Sender resumes once the buffer is
                                    // reusable; its wait is accounted.
                                    let resume = nic_busy[s_rank];
                                    let send_wait = resume.saturating_sub(pend.ready);
                                    if let Some(rec) = rec {
                                        if send_wait > SimTime::ZERO {
                                            rec.sim_span(
                                                pid,
                                                s_rank as u32,
                                                "send_wait",
                                                Cat::Comm,
                                                pend.ready.picos(),
                                                send_wait.picos(),
                                                vec![
                                                    ("to", r.into()),
                                                    ("bytes", pend.bytes.into()),
                                                ],
                                            );
                                        }
                                    }
                                    ranks[s_rank].stats.send_wait += send_wait;
                                    ranks[s_rank].clock = resume;
                                    ranks[s_rank].stats.messages_sent += 1;
                                    ranks[s_rank].stats.bytes_sent += pend.bytes as u64;
                                    ranks[s_rank].pc += 1;
                                    ranks[s_rank].status = Status::Ready;
                                    ready.push_back(s_rank);
                                    // Receiver waits for the wire.
                                    let wait = arrival.saturating_sub(ranks[r].clock);
                                    let overhead = machine.network.receiver_overhead(pend.bytes);
                                    if let Some(rec) = rec {
                                        if wait > SimTime::ZERO {
                                            rec.sim_span(
                                                pid,
                                                r as u32,
                                                "recv_wait",
                                                Cat::Idle,
                                                ranks[r].clock.picos(),
                                                wait.picos(),
                                                vec![("from", from.into())],
                                            );
                                        }
                                        rec.sim_span(
                                            pid,
                                            r as u32,
                                            "recv",
                                            Cat::Comm,
                                            ranks[r].clock.max(arrival).picos(),
                                            overhead.picos(),
                                            vec![
                                                ("from", from.into()),
                                                ("bytes", pend.bytes.into()),
                                                ("tag", (tag as u64).into()),
                                            ],
                                        );
                                    }
                                    ranks[r].stats.recv_wait += wait;
                                    ranks[r].clock = ranks[r].clock.max(arrival) + overhead;
                                    ranks[r].stats.recv_overhead += overhead;
                                    ranks[r].pc += 1;
                                    continue;
                                }
                                ranks[r].status = Status::BlockedRecv { from, tag };
                                break;
                            }
                        }
                    }
                    Op::AllReduce { .. } | Op::Barrier => {
                        ranks[r].status = Status::Parked;
                        ranks[r].park_clock = ranks[r].clock;
                        parked.push(r);
                        if parked.len() == n {
                            self.release_collective(&mut ranks, &mut parked, sharers);
                            // Everyone (including r) is Ready again; requeue all.
                            for rank in 0..n {
                                ready.push_back(rank);
                            }
                        }
                        break;
                    }
                }
            }
            if finished == n {
                break;
            }
        }

        if finished != n {
            let mut blocked = Vec::new();
            let mut parked_out = Vec::new();
            for (idx, st) in ranks.iter().enumerate() {
                match st.status {
                    Status::BlockedRecv { from, tag } => blocked.push((idx, from, tag)),
                    Status::BlockedSend { to, tag } => blocked.push((idx, to, tag)),
                    Status::Parked => parked_out.push(idx),
                    _ => {}
                }
            }
            return Err(SimError::Deadlock { blocked, parked: parked_out });
        }

        let report = RunReport { ranks: ranks.into_iter().map(|s| s.stats).collect() };
        if let Some(rec) = rec {
            debug_check_span_totals(rec, pid, &report, &span_baseline);
        }
        Ok(report)
    }

    /// Complete a collective: all ranks resume at `max(arrival) + tree cost`.
    fn release_collective(
        &self,
        ranks: &mut [RankState],
        parked: &mut Vec<usize>,
        _sharers: usize,
    ) {
        let n = ranks.len();
        // All parked ranks sit at the same collective op index sequence; the
        // payload is taken from the op each rank is parked on (max across
        // ranks, which are equal in well-formed traces).
        let mut bytes = 0usize;
        for &r in parked.iter() {
            if let Op::AllReduce { bytes: b } = self.programs[r].ops()[ranks[r].pc] {
                bytes = bytes.max(b);
            }
        }
        let entry = parked.iter().map(|&r| ranks[r].park_clock).max().unwrap_or(SimTime::ZERO);
        let completion = entry + crate::engine::collective_cost(self.machine, bytes, n);
        let rec = self.recorder.filter(|r| r.is_enabled());
        for &r in parked.iter() {
            let waited = completion.saturating_sub(ranks[r].park_clock);
            if let Some(rec) = rec {
                let name = match self.programs[r].ops()[ranks[r].pc] {
                    Op::AllReduce { .. } => "allreduce",
                    _ => "barrier",
                };
                if waited > SimTime::ZERO {
                    rec.sim_span(
                        self.trace_pid,
                        r as u32,
                        name,
                        Cat::Collective,
                        ranks[r].park_clock.picos(),
                        waited.picos(),
                        vec![("bytes", bytes.into())],
                    );
                }
            }
            ranks[r].stats.collective += waited;
            ranks[r].clock = completion;
            ranks[r].status = Status::Ready;
            ranks[r].pc += 1;
        }
        parked.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;
    use crate::noise::NoiseModel;

    fn prog(ops: &[Op]) -> Program {
        let mut p = Program::new();
        for &op in ops {
            p.push(op);
        }
        p
    }

    #[test]
    fn reference_matches_closed_form_pipeline() {
        let m = MachineSpec::ideal(100.0);
        let p_ranks = 5usize;
        let blocks = 8usize;
        let mut programs: Vec<Program> = Vec::new();
        for r in 0..p_ranks {
            let mut p = Program::new();
            for b in 0..blocks {
                if r > 0 {
                    p.push(Op::Recv { from: r - 1, tag: b as u32 });
                }
                p.push(Op::Compute { flops: 1e7, working_set: 0 });
                if r + 1 < p_ranks {
                    p.push(Op::Send { to: r + 1, bytes: 8, tag: b as u32 });
                }
            }
            programs.push(p);
        }
        let report = ReferenceEngine::new(&m, programs).run().unwrap();
        let t_block = 1e7 / (100.0 * 1e6);
        let expect = (p_ranks - 1 + blocks) as f64 * t_block;
        assert!((report.makespan() - expect).abs() < 1e-9);
    }

    #[test]
    fn reference_detects_deadlock() {
        let m = MachineSpec::ideal(100.0);
        let p0 = prog(&[Op::Recv { from: 1, tag: 0 }, Op::Send { to: 1, bytes: 8, tag: 0 }]);
        let p1 = prog(&[Op::Recv { from: 0, tag: 0 }, Op::Send { to: 0, bytes: 8, tag: 0 }]);
        let err = ReferenceEngine::new(&m, vec![p0, p1]).run().unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn reference_runs_noisy_rendezvous_workload() {
        let mut m = MachineSpec::ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 250.0, 2.0, 16384.0);
        m.noise = NoiseModel::commodity();
        m.rendezvous_bytes = Some(4096);
        let p0 = prog(&[
            Op::Compute { flops: 2e7, working_set: 1024 },
            Op::Send { to: 1, bytes: 50_000, tag: 1 },
            Op::Barrier,
        ]);
        let p1 = prog(&[Op::Recv { from: 0, tag: 1 }, Op::Barrier]);
        let report = ReferenceEngine::new(&m, vec![p0, p1]).run().unwrap();
        for r in &report.ranks {
            assert_eq!(r.accounted(), r.finish);
        }
    }
}
