//! Conservative parallel execution of the discrete-event engine.
//!
//! [`Engine::run_parallel`] partitions the rank mesh into contiguous
//! blocks — one per worker thread — and advances the partitions in
//! lock-step *windows* separated by barriers (a null-message-free,
//! barrier-synchronous variant of conservative parallel DES). Within a
//! window each partition runs the existing dense per-channel scheduler
//! over its own ranks until every local rank is blocked on remote input,
//! parked at a collective, or done; cross-partition `(src, dst)` channels
//! become *boundary mailboxes* that the coordinator drains between
//! windows.
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
//!   synchronous send always parks (the mailbox carries the parked send
//!   plus the sender's NIC-busy time, which is frozen while the sender is
//!   blocked); the receiver completes the handshake and mails back the
//!   resume time. Both rendezvous paths of the sequential engine —
//!   receiver-already-waiting and sender-parks — compute the *same*
//!   `wire_start = max(sender ready, sender NIC busy, receiver post
//!   clock)`, so forcing the parked path at the boundary changes nothing.
//! * **Collectives are order-free.** A collective completes from the
//!   parked ranks' entry clocks (`max`) and payload (`max`) only, which
//!   the coordinator evaluates at the window barrier.
//! * **Costs come from the same table.** The run lowers the machine to
//!   one `CostTable` before the first window and every partition reads
//!   it; a message or parked send crosses the boundary with its sending
//!   op's price class, so the receiving partition prices the transfer
//!   from the entry the sequential engine would read. Channels use the same flat
//!   index too: rank `r`'s receive channels start at `chan_base[r]`, and
//!   a partition owns the contiguous id range of its rank block.
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

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use obs::{Cat, EdgeKind, EdgeRecord, Recorder};

use crate::engine::{
    build_channels, collective_cost, debug_check_span_totals, debug_span_baseline, Channels,
    CostTable, Engine, Msg, NoiseBank, Pend, St,
};
use crate::error::{SimError, SimResult};
use crate::progset::{ProgramSet, SharedOp};
use crate::stats::{RankStats, RunReport};
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
pub fn zero_lookahead_fallbacks() -> u64 {
    FALLBACK_WARNINGS.load(Ordering::Relaxed)
}

/// Counters describing how a parallel run executed. The *results* never
/// depend on any of this — only wall-clock behaviour does.
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

/// A boundary-mailbox entry, drained by the coordinator between windows.
#[derive(Debug, Clone, Copy)]
enum Bound {
    /// An eager message for a channel owned by the destination partition.
    Eager { chan: u32, msg: Msg },
    /// A parked rendezvous send announced to the receiving partition.
    /// Carries the sender's NIC-busy time, which is frozen while the
    /// sender is blocked (a rank has at most one outstanding send).
    Pend { chan: u32, pend: Pend, src_nic_busy: SimTime },
    /// A completed rendezvous handshake travelling back to the sender's
    /// partition: the sender resumes (and its NIC is busy) until `resume`.
    Done { src: u32, dst: u32, bytes: usize, ready: SimTime, resume: SimTime },
}

/// A parked rendezvous send in a partition's pending queue. Local sends
/// read the sender's live NIC state; boundary sends carry the frozen
/// snapshot shipped in [`Bound::Pend`].
#[derive(Debug, Clone, Copy)]
struct PendEntry {
    pend: Pend,
    src_nic_busy: Option<SimTime>,
}

/// Read-only context shared by every partition worker.
struct Ctx<'a> {
    set: &'a ProgramSet,
    channels: &'a Channels,
    /// The run's op-cost table, shared by every partition.
    costs: &'a CostTable,
    /// Partition owning each rank.
    part_of: &'a [u32],
    /// `(receiver, sender)` ranks of each owned channel id.
    chan_owner: &'a [(u32, u32)],
    eager_limit: usize,
    run_factor: f64,
    rec: Option<&'a Recorder>,
    pid: u32,
}

/// One partition's share of the engine state: the per-rank SoA arrays and
/// per-channel queues for ranks `lo..hi`, indexed locally (`rank - lo`),
/// plus outboxes toward every other partition.
struct Part {
    id: usize,
    lo: usize,
    hi: usize,
    chan_lo: usize,
    clock: Vec<SimTime>,
    pc: Vec<u32>,
    status: Vec<St>,
    park_clock: Vec<SimTime>,
    stats: Vec<RankStats>,
    nic_busy: Vec<SimTime>,
    noise: NoiseBank,
    inflight: Vec<VecDeque<Msg>>,
    pending: Vec<VecDeque<PendEntry>>,
    /// Runnable ranks (global ids), all within `lo..hi`.
    ready: VecDeque<usize>,
    /// Ranks parked at the pending collective (global ids).
    parked: Vec<usize>,
    finished: usize,
    /// Boundary mail per destination partition, drained at the barrier.
    outbox: Vec<Vec<Bound>>,
}

impl Part {
    /// Advance every runnable rank of this partition to its dependency
    /// frontier: each rank runs until it blocks on remote input, parks at
    /// a collective, or completes. Returns the number of rank
    /// activations processed (for telemetry only).
    fn run_window(&mut self, ctx: &Ctx<'_>) -> usize {
        let set = ctx.set;
        let prices = &ctx.costs.prices;
        let rec = ctx.rec;
        let pid = ctx.pid;
        let mut activations = 0usize;
        while let Some(r) = self.ready.pop_front() {
            activations += 1;
            let li = r - self.lo;
            debug_assert_eq!(self.status[li], St::Ready);
            let ops = set.ops(r);
            let partners = set.partners(r);
            let classes = ctx.costs.classes(set, r);
            let chan0 = ctx.channels.chan_base[r] as usize;
            loop {
                let at = self.pc[li] as usize;
                if at >= ops.len() {
                    self.status[li] = St::Done;
                    self.stats[li].finish = self.clock[li];
                    debug_assert_eq!(
                        self.stats[li].accounted(),
                        self.stats[li].finish,
                        "rank {r}: accounted time must equal finish exactly"
                    );
                    self.finished += 1;
                    break;
                }
                match ops[at] {
                    SharedOp::Compute { .. } => {
                        let base = prices[classes[at] as usize].cpu;
                        let factor = self.noise.compute_factor(li) * ctx.run_factor;
                        let dur = SimTime::from_secs(base.as_secs() * factor);
                        if let Some(rec) = rec {
                            rec.sim_span(
                                pid,
                                r as u32,
                                "compute",
                                Cat::Compute,
                                self.clock[li].picos(),
                                dur.picos(),
                                vec![],
                            );
                        }
                        self.clock[li] += dur;
                        self.stats[li].compute += dur;
                        self.pc[li] += 1;
                    }
                    SharedOp::Send { slot, bytes, tag } => {
                        let to = partners[slot as usize] as usize;
                        let class = classes[at];
                        let cost = prices[class as usize];
                        let overhead = cost.cpu;
                        if let Some(rec) = rec {
                            rec.sim_span(
                                pid,
                                r as u32,
                                "send",
                                Cat::Comm,
                                self.clock[li].picos(),
                                overhead.picos(),
                                vec![
                                    ("to", to.into()),
                                    ("bytes", bytes.into()),
                                    ("tag", (tag as u64).into()),
                                ],
                            );
                        }
                        self.clock[li] += overhead;
                        self.stats[li].send_overhead += overhead;
                        let jitter = SimTime::from_secs(self.noise.message_jitter_secs(li));
                        let chan = ctx.channels.send_chan[chan0 + slot as usize];
                        if chan >= ctx.channels.dangling_base() {
                            // Statically-invalid send (validation off): the
                            // destination never reads this channel. Mirror
                            // the sequential engine's observable behaviour
                            // without storing the message.
                            if bytes >= ctx.eager_limit {
                                // A rendezvous nobody can complete.
                                self.status[li] = St::BlockedSend { to: to as u32, tag };
                                break;
                            }
                            let wire_start = self.clock[li].max(self.nic_busy[li]);
                            self.nic_busy[li] = wire_start + cost.serialization;
                            self.stats[li].messages_sent += 1;
                            self.stats[li].bytes_sent += bytes as u64;
                            self.pc[li] += 1;
                            continue;
                        }
                        if ctx.part_of[to] as usize == self.id {
                            // Local destination: exactly the sequential path.
                            let lto = to - self.lo;
                            if bytes >= ctx.eager_limit
                                && self.status[lto] != (St::BlockedRecv { from: r as u32, tag })
                            {
                                self.pending[chan as usize - self.chan_lo].push_back(PendEntry {
                                    pend: Pend {
                                        tag,
                                        cost: class,
                                        bytes,
                                        ready: self.clock[li],
                                        jitter,
                                    },
                                    src_nic_busy: None,
                                });
                                self.status[li] = St::BlockedSend { to: to as u32, tag };
                                break;
                            }
                            let posted = if bytes >= ctx.eager_limit {
                                self.clock[lto]
                            } else {
                                SimTime::ZERO
                            };
                            let wire_start = self.clock[li].max(self.nic_busy[li]).max(posted);
                            self.nic_busy[li] = wire_start + cost.serialization;
                            let arrival = wire_start + cost.wire + jitter;
                            if let Some(rec) = rec {
                                rec.sim_edge(EdgeRecord {
                                    pid,
                                    kind: EdgeKind::Message,
                                    chan,
                                    src: r as u32,
                                    dst: to as u32,
                                    tag,
                                    bytes: bytes as u64,
                                    send_post: self.clock[li].picos(),
                                    recv_post: posted.picos(),
                                    wire_start: wire_start.picos(),
                                    recv: arrival.picos(),
                                    resume: if bytes >= ctx.eager_limit {
                                        self.nic_busy[li].picos()
                                    } else {
                                        self.clock[li].picos()
                                    },
                                });
                            }
                            self.inflight[chan as usize - self.chan_lo].push_back(Msg {
                                tag,
                                cost: class,
                                bytes,
                                arrival,
                            });
                            self.stats[li].messages_sent += 1;
                            self.stats[li].bytes_sent += bytes as u64;
                            if bytes >= ctx.eager_limit {
                                let done = self.nic_busy[li];
                                let before = self.clock[li];
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
                                self.stats[li].send_wait += wait;
                                self.clock[li] = before.max(done);
                            }
                            self.pc[li] += 1;
                            if self.status[lto] == (St::BlockedRecv { from: r as u32, tag }) {
                                self.status[lto] = St::Ready;
                                self.ready.push_back(to);
                            }
                        } else {
                            // Boundary destination: mailbox path. A
                            // synchronous send always parks (see module
                            // docs: both sequential rendezvous paths are
                            // value-identical, so the parked path is safe
                            // even when the remote receiver already waits).
                            let dst_part = ctx.part_of[to] as usize;
                            if bytes >= ctx.eager_limit {
                                self.outbox[dst_part].push(Bound::Pend {
                                    chan,
                                    pend: Pend {
                                        tag,
                                        cost: class,
                                        bytes,
                                        ready: self.clock[li],
                                        jitter,
                                    },
                                    src_nic_busy: self.nic_busy[li],
                                });
                                self.status[li] = St::BlockedSend { to: to as u32, tag };
                                break;
                            }
                            let wire_start = self.clock[li].max(self.nic_busy[li]);
                            self.nic_busy[li] = wire_start + cost.serialization;
                            let arrival = wire_start + cost.wire + jitter;
                            if let Some(rec) = rec {
                                // Below the eager limit the receiver never
                                // gates, so the edge is fully determined
                                // sender-side — identical to the sequential
                                // engine's.
                                rec.sim_edge(EdgeRecord {
                                    pid,
                                    kind: EdgeKind::Message,
                                    chan,
                                    src: r as u32,
                                    dst: to as u32,
                                    tag,
                                    bytes: bytes as u64,
                                    send_post: self.clock[li].picos(),
                                    recv_post: 0,
                                    wire_start: wire_start.picos(),
                                    recv: arrival.picos(),
                                    resume: self.clock[li].picos(),
                                });
                            }
                            self.outbox[dst_part].push(Bound::Eager {
                                chan,
                                msg: Msg { tag, cost: class, bytes, arrival },
                            });
                            self.stats[li].messages_sent += 1;
                            self.stats[li].bytes_sent += bytes as u64;
                            self.pc[li] += 1;
                        }
                    }
                    SharedOp::Recv { slot, tag } => {
                        let from = partners[slot as usize] as usize;
                        let chan = chan0 + slot as usize - self.chan_lo;
                        let q = &mut self.inflight[chan];
                        match q.iter().position(|m| m.tag == tag) {
                            Some(i) => {
                                let msg = q.remove(i).expect("position is in range");
                                let wait = msg.arrival.saturating_sub(self.clock[li]);
                                let overhead = prices[msg.cost as usize].recv_overhead;
                                if let Some(rec) = rec {
                                    if wait > SimTime::ZERO {
                                        rec.sim_span(
                                            pid,
                                            r as u32,
                                            "recv_wait",
                                            Cat::Idle,
                                            self.clock[li].picos(),
                                            wait.picos(),
                                            vec![("from", from.into())],
                                        );
                                    }
                                    rec.sim_span(
                                        pid,
                                        r as u32,
                                        "recv",
                                        Cat::Comm,
                                        self.clock[li].max(msg.arrival).picos(),
                                        overhead.picos(),
                                        vec![
                                            ("from", from.into()),
                                            ("bytes", msg.bytes.into()),
                                            ("tag", (tag as u64).into()),
                                        ],
                                    );
                                }
                                self.stats[li].recv_wait += wait;
                                self.clock[li] = self.clock[li].max(msg.arrival) + overhead;
                                self.stats[li].recv_overhead += overhead;
                                self.pc[li] += 1;
                            }
                            None => {
                                let pq = &mut self.pending[chan];
                                if let Some(i) = pq.iter().position(|p| p.pend.tag == tag) {
                                    let entry = pq.remove(i).expect("position is in range");
                                    let pend = entry.pend;
                                    let sent = prices[pend.cost as usize];
                                    let arrival = match entry.src_nic_busy {
                                        None => {
                                            // Local sender: complete the
                                            // handshake in place, exactly as
                                            // the sequential engine does.
                                            let ls = from - self.lo;
                                            let wire_start = pend
                                                .ready
                                                .max(self.nic_busy[ls])
                                                .max(self.clock[li]);
                                            self.nic_busy[ls] = wire_start + sent.serialization;
                                            let arrival = wire_start + sent.wire + pend.jitter;
                                            let resume = self.nic_busy[ls];
                                            let send_wait = resume.saturating_sub(pend.ready);
                                            if let Some(rec) = rec {
                                                rec.sim_edge(EdgeRecord {
                                                    pid,
                                                    kind: EdgeKind::Message,
                                                    chan: (chan + self.chan_lo) as u32,
                                                    src: from as u32,
                                                    dst: r as u32,
                                                    tag,
                                                    bytes: pend.bytes as u64,
                                                    send_post: pend.ready.picos(),
                                                    recv_post: self.clock[li].picos(),
                                                    wire_start: wire_start.picos(),
                                                    recv: arrival.picos(),
                                                    resume: resume.picos(),
                                                });
                                            }
                                            if let Some(rec) = rec {
                                                if send_wait > SimTime::ZERO {
                                                    rec.sim_span(
                                                        pid,
                                                        from as u32,
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
                                            self.stats[ls].send_wait += send_wait;
                                            self.clock[ls] = resume;
                                            self.stats[ls].messages_sent += 1;
                                            self.stats[ls].bytes_sent += pend.bytes as u64;
                                            self.pc[ls] += 1;
                                            self.status[ls] = St::Ready;
                                            self.ready.push_back(from);
                                            arrival
                                        }
                                        Some(snap) => {
                                            // Boundary sender: its NIC state
                                            // is the frozen snapshot; mail
                                            // the resume time back.
                                            let wire_start =
                                                pend.ready.max(snap).max(self.clock[li]);
                                            let resume = wire_start + sent.serialization;
                                            let arrival = wire_start + sent.wire + pend.jitter;
                                            if let Some(rec) = rec {
                                                // The receiver-side handshake
                                                // computes values identical to
                                                // the sequential engine's, so
                                                // the edge is emitted here (the
                                                // sender partition only replays
                                                // the resume).
                                                rec.sim_edge(EdgeRecord {
                                                    pid,
                                                    kind: EdgeKind::Message,
                                                    chan: (chan + self.chan_lo) as u32,
                                                    src: from as u32,
                                                    dst: r as u32,
                                                    tag,
                                                    bytes: pend.bytes as u64,
                                                    send_post: pend.ready.picos(),
                                                    recv_post: self.clock[li].picos(),
                                                    wire_start: wire_start.picos(),
                                                    recv: arrival.picos(),
                                                    resume: resume.picos(),
                                                });
                                            }
                                            self.outbox[ctx.part_of[from] as usize].push(
                                                Bound::Done {
                                                    src: from as u32,
                                                    dst: r as u32,
                                                    bytes: pend.bytes,
                                                    ready: pend.ready,
                                                    resume,
                                                },
                                            );
                                            arrival
                                        }
                                    };
                                    let wait = arrival.saturating_sub(self.clock[li]);
                                    let overhead = sent.recv_overhead;
                                    if let Some(rec) = rec {
                                        if wait > SimTime::ZERO {
                                            rec.sim_span(
                                                pid,
                                                r as u32,
                                                "recv_wait",
                                                Cat::Idle,
                                                self.clock[li].picos(),
                                                wait.picos(),
                                                vec![("from", from.into())],
                                            );
                                        }
                                        rec.sim_span(
                                            pid,
                                            r as u32,
                                            "recv",
                                            Cat::Comm,
                                            self.clock[li].max(arrival).picos(),
                                            overhead.picos(),
                                            vec![
                                                ("from", from.into()),
                                                ("bytes", pend.bytes.into()),
                                                ("tag", (tag as u64).into()),
                                            ],
                                        );
                                    }
                                    self.stats[li].recv_wait += wait;
                                    self.clock[li] = self.clock[li].max(arrival) + overhead;
                                    self.stats[li].recv_overhead += overhead;
                                    self.pc[li] += 1;
                                    continue;
                                }
                                self.status[li] = St::BlockedRecv { from: from as u32, tag };
                                break;
                            }
                        }
                    }
                    SharedOp::AllReduce { .. } | SharedOp::Barrier => {
                        // Collectives are global: park here and let the
                        // coordinator complete them at the barrier once
                        // every rank of every partition has arrived.
                        self.status[li] = St::Parked;
                        self.park_clock[li] = self.clock[li];
                        self.parked.push(r);
                        break;
                    }
                }
            }
        }
        activations
    }

    /// Apply one drained boundary-mailbox entry (coordinator, between
    /// windows). Wake-ups mirror the sequential engine's: a delivery only
    /// readies a rank blocked on exactly that `(src, tag)`.
    fn deliver(&mut self, bound: Bound, ctx: &Ctx<'_>) {
        match bound {
            Bound::Eager { chan, msg } => {
                let (dst, src) = ctx.chan_owner[chan as usize];
                self.inflight[chan as usize - self.chan_lo].push_back(msg);
                let ld = dst as usize - self.lo;
                if self.status[ld] == (St::BlockedRecv { from: src, tag: msg.tag }) {
                    self.status[ld] = St::Ready;
                    self.ready.push_back(dst as usize);
                }
            }
            Bound::Pend { chan, pend, src_nic_busy } => {
                let (dst, src) = ctx.chan_owner[chan as usize];
                self.pending[chan as usize - self.chan_lo]
                    .push_back(PendEntry { pend, src_nic_busy: Some(src_nic_busy) });
                // Unlike an eager delivery this wake has no sequential
                // counterpart post-send — it *is* the remote half of the
                // receiver-already-waiting rendezvous: the re-executed
                // receive completes the handshake with identical values.
                let ld = dst as usize - self.lo;
                if self.status[ld] == (St::BlockedRecv { from: src, tag: pend.tag }) {
                    self.status[ld] = St::Ready;
                    self.ready.push_back(dst as usize);
                }
            }
            Bound::Done { src, dst, bytes, ready, resume } => {
                let ls = src as usize - self.lo;
                debug_assert!(matches!(self.status[ls], St::BlockedSend { .. }));
                let wait = resume.saturating_sub(ready);
                if let Some(rec) = ctx.rec {
                    if wait > SimTime::ZERO {
                        rec.sim_span(
                            ctx.pid,
                            src,
                            "send_wait",
                            Cat::Comm,
                            ready.picos(),
                            wait.picos(),
                            vec![("to", (dst as u64).into()), ("bytes", bytes.into())],
                        );
                    }
                }
                self.stats[ls].send_wait += wait;
                self.nic_busy[ls] = resume;
                self.clock[ls] = resume;
                self.stats[ls].messages_sent += 1;
                self.stats[ls].bytes_sent += bytes as u64;
                self.pc[ls] += 1;
                self.status[ls] = St::Ready;
                self.ready.push_back(src as usize);
            }
        }
    }
}

impl<'m> Engine<'m> {
    /// Execute the programs on `threads` worker threads, returning the
    /// same [`RunReport`] — bit for bit — as [`Engine::run`].
    ///
    /// Falls back to the sequential scheduler when `threads <= 1`, when
    /// there are fewer ranks than two, or when the cross-partition
    /// lookahead is zero (a zero-latency interconnect admits no
    /// conservative window; a warning is printed to stderr).
    pub fn run_parallel(self, threads: usize) -> SimResult<RunReport> {
        self.run_parallel_stats(threads).map(|(report, _)| report)
    }

    /// [`Engine::run_parallel`] plus the window/lookahead counters, for
    /// tests and the bench harness.
    pub fn run_parallel_stats(self, threads: usize) -> SimResult<(RunReport, ParStats)> {
        if !self.skip_validation {
            self.set.validate().map_err(|detail| SimError::InvalidPrograms { detail })?;
        }
        let mut eng = self;
        eng.skip_validation = true; // validated above (or deliberately skipped)
        let n = eng.set.num_ranks();
        let p = threads.min(n);
        if p <= 1 {
            let report = eng.run_impl()?.0;
            return Ok((
                report,
                ParStats {
                    partitions: 1,
                    windows: 0,
                    lookahead: None,
                    fell_back: false,
                    boundary_channels: 0,
                    boundary_messages: 0,
                },
            ));
        }

        // Contiguous rank partitions, sizes within one of each other.
        let bounds: Vec<usize> = (0..=p).map(|i| i * n / p).collect();
        let mut part_of = vec![0u32; n];
        for i in 0..p {
            part_of[bounds[i]..bounds[i + 1]].fill(i as u32);
        }

        let set = eng.set.clone();
        let machine = eng.machine;
        let channels = build_channels(&set);
        let costs = CostTable::new(machine, &set);
        // Receiver-allocated channel ids are contiguous per rank, so each
        // partition owns the contiguous id range of its rank block.
        let chan_base = &channels.chan_base;
        let mut chan_owner = vec![(0u32, 0u32); channels.dangling_base() as usize];
        for r in 0..n {
            for (s, &q) in set.partners(r).iter().enumerate() {
                chan_owner[chan_base[r] as usize + s] = (r as u32, q);
            }
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
            let classes = costs.classes(&set, r);
            for (at, op) in set.ops(r).iter().enumerate() {
                if let SharedOp::Send { slot, .. } = *op {
                    let to = partners[slot as usize] as usize;
                    if to < n && part_of[to] != pr {
                        let w = costs.prices[classes[at] as usize].wire;
                        lookahead = Some(lookahead.map_or(w, |l| l.min(w)));
                    }
                }
            }
        }
        if lookahead == Some(SimTime::ZERO) {
            FALLBACK_WARNINGS.fetch_add(1, Ordering::Relaxed);
            // Warn exactly once per run: as a structured event on the
            // engine's own telemetry track when one is attached, on
            // stderr otherwise.
            match eng.recorder.filter(|r| r.is_enabled()) {
                Some(rec) => rec.sim_event(
                    PARTITION_PID,
                    0,
                    "warn.zero_lookahead_fallback",
                    0,
                    vec![
                        ("threads", threads.into()),
                        ("boundary_channels", boundary_channels.into()),
                        (
                            "detail",
                            "zero cross-partition wire latency leaves no conservative window"
                                .into(),
                        ),
                    ],
                ),
                None => eprintln!(
                    "cluster-sim: run_parallel({threads}) fell back to sequential execution: \
                     zero cross-partition wire latency leaves no conservative window"
                ),
            }
            let report = eng.run_impl()?.0;
            return Ok((
                report,
                ParStats {
                    partitions: 1,
                    windows: 0,
                    lookahead: Some(SimTime::ZERO),
                    fell_back: true,
                    boundary_channels,
                    boundary_messages: 0,
                },
            ));
        }

        let rec: Option<&Recorder> = eng.recorder.filter(|r| r.is_enabled());
        let pid = eng.trace_pid;
        let span_baseline = debug_span_baseline(rec);
        if let Some(rec) = rec {
            for r in 0..n {
                rec.set_thread_name(pid, r as u32, format!("rank {r}"));
            }
            rec.set_process_name(PARTITION_PID, "sim.partition");
            for i in 0..p {
                rec.set_thread_name(PARTITION_PID, i as u32, format!("partition {i}"));
            }
            rec.set_thread_name(PARTITION_PID, p as u32, "coordinator");
        }

        let ctx = Ctx {
            set: &set,
            channels: &channels,
            costs: &costs,
            part_of: &part_of,
            chan_owner: &chan_owner,
            eager_limit: machine.rendezvous_bytes.unwrap_or(usize::MAX),
            run_factor: machine.noise.run_factor(machine.seed),
            rec,
            pid,
        };

        let parts: Vec<Mutex<Part>> = (0..p)
            .map(|i| {
                let (lo, hi) = (bounds[i], bounds[i + 1]);
                let (chan_lo, chan_hi) = (chan_base[lo] as usize, chan_base[hi] as usize);
                Mutex::new(Part {
                    id: i,
                    lo,
                    hi,
                    chan_lo,
                    clock: vec![SimTime::ZERO; hi - lo],
                    pc: vec![0u32; hi - lo],
                    status: vec![St::Ready; hi - lo],
                    park_clock: vec![SimTime::ZERO; hi - lo],
                    stats: vec![RankStats::default(); hi - lo],
                    nic_busy: vec![SimTime::ZERO; hi - lo],
                    noise: NoiseBank::for_range(machine, lo, hi),
                    inflight: (chan_lo..chan_hi).map(|_| VecDeque::new()).collect(),
                    pending: (chan_lo..chan_hi).map(|_| VecDeque::new()).collect(),
                    ready: (lo..hi).collect(),
                    parked: Vec::new(),
                    finished: 0,
                    outbox: (0..p).map(|_| Vec::new()).collect(),
                })
            })
            .collect();

        let barrier = Barrier::new(p + 1);
        let stop = AtomicBool::new(false);
        let panic_box: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        let (report, stats) = std::thread::scope(|scope| {
            for i in 0..p {
                let barrier = &barrier;
                let stop = &stop;
                let parts = &parts;
                let ctx = &ctx;
                let panic_box = &panic_box;
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
                            parts[i].lock().unwrap().run_window(ctx)
                        }));
                        match ran {
                            Ok(activations) => {
                                if let Some(rec) = ctx.rec {
                                    if activations > 0 {
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
            let result = loop {
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
                // Drain boundary mailboxes in deterministic source order.
                // Per-channel order is preserved because a channel has a
                // single sending rank (one source partition, FIFO outbox).
                let mut delivered = 0u64;
                for src in 0..p {
                    for dst in 0..p {
                        if src == dst {
                            continue;
                        }
                        let mail = std::mem::take(&mut locked[src].outbox[dst]);
                        for bound in mail {
                            locked[dst].deliver(bound, &ctx);
                            delivered += 1;
                        }
                    }
                }
                boundary_messages += delivered;
                // A collective completes once every rank everywhere has
                // parked: payload and entry time are maxima over parked
                // state, independent of arrival order.
                let total_parked: usize = locked.iter().map(|pt| pt.parked.len()).sum();
                if total_parked == n {
                    let mut bytes = 0usize;
                    let mut entry = SimTime::ZERO;
                    for pt in locked.iter() {
                        for &x in &pt.parked {
                            let lx = x - pt.lo;
                            if let SharedOp::AllReduce { bytes: b } = set.ops(x)[pt.pc[lx] as usize]
                            {
                                bytes = bytes.max(b);
                            }
                            entry = entry.max(pt.park_clock[lx]);
                        }
                    }
                    let completion = entry + collective_cost(machine, bytes, n);
                    if let Some(rec) = rec {
                        // Same tie rule as the sequential engine: the
                        // smallest global rank that arrived last.
                        let entry_rank = locked
                            .iter()
                            .flat_map(|pt| {
                                (pt.lo..pt.hi).map(move |x| (x, pt.park_clock[x - pt.lo]))
                            })
                            .find(|&(_, pc)| pc == entry)
                            .map(|(x, _)| x as u32)
                            .unwrap_or(0);
                        rec.sim_edge(EdgeRecord {
                            pid,
                            kind: EdgeKind::Collective,
                            chan: u32::MAX,
                            src: entry_rank,
                            dst: entry_rank,
                            tag: 0,
                            bytes: bytes as u64,
                            send_post: entry.picos(),
                            recv_post: entry.picos(),
                            wire_start: entry.picos(),
                            recv: completion.picos(),
                            resume: entry.picos(),
                        });
                    }
                    for pt in locked.iter_mut() {
                        let parked = std::mem::take(&mut pt.parked);
                        for x in parked {
                            let lx = x - pt.lo;
                            let waited = completion.saturating_sub(pt.park_clock[lx]);
                            if let Some(rec) = rec {
                                let name = match set.ops(x)[pt.pc[lx] as usize] {
                                    SharedOp::AllReduce { .. } => "allreduce",
                                    _ => "barrier",
                                };
                                if waited > SimTime::ZERO {
                                    rec.sim_span(
                                        pid,
                                        x as u32,
                                        name,
                                        Cat::Collective,
                                        pt.park_clock[lx].picos(),
                                        waited.picos(),
                                        vec![("bytes", bytes.into())],
                                    );
                                }
                            }
                            pt.stats[lx].collective += waited;
                            pt.clock[lx] = completion;
                            pt.status[lx] = St::Ready;
                            pt.pc[lx] += 1;
                        }
                        for rank in pt.lo..pt.hi {
                            pt.ready.push_back(rank);
                        }
                    }
                }
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
                let total_finished: usize = locked.iter().map(|pt| pt.finished).sum();
                if total_finished == n {
                    let mut ranks = Vec::with_capacity(n);
                    for pt in locked.iter_mut() {
                        ranks.append(&mut pt.stats);
                    }
                    break Ok(RunReport { ranks });
                }
                if locked.iter().all(|pt| pt.ready.is_empty()) {
                    // Global quiescence with no deliverable progress: the
                    // same least-fixpoint state the sequential engine
                    // reaches, reported in the same rank order.
                    let mut blocked = Vec::new();
                    let mut parked_out = Vec::new();
                    for pt in locked.iter() {
                        for li in 0..(pt.hi - pt.lo) {
                            let idx = pt.lo + li;
                            match pt.status[li] {
                                St::BlockedRecv { from, tag } => {
                                    blocked.push((idx, from as usize, tag))
                                }
                                St::BlockedSend { to, tag } => {
                                    blocked.push((idx, to as usize, tag))
                                }
                                St::Parked => parked_out.push(idx),
                                _ => {}
                            }
                        }
                    }
                    break Err(SimError::Deadlock { blocked, parked: parked_out });
                }
            };
            stop.store(true, Ordering::Release);
            barrier.wait();
            result.map(|report| {
                (
                    report,
                    ParStats {
                        partitions: p,
                        windows,
                        lookahead,
                        fell_back: false,
                        boundary_channels,
                        boundary_messages,
                    },
                )
            })
        })?;

        if let Some(rec) = rec {
            debug_check_span_totals(rec, pid, &report, &span_baseline);
        }
        Ok((report, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;
    use crate::network::NetworkModel;
    use crate::noise::NoiseModel;
    use crate::program::{Op, Program};

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
