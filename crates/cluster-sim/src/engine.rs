//! The discrete-event execution engine.
//!
//! Ranks are advanced as cooperatively-scheduled virtual processes: a rank
//! runs until it blocks on a receive whose message has not yet been sent, or
//! parks at a collective. Sends are buffered (eager): the sender pays its
//! MPI overhead and continues; the message's *arrival time* at the receiver
//! is computed from the wire model plus NIC serialisation contention.
//!
//! The result is a pure function of `(machine, programs)` — noise streams
//! are consumed in per-rank program order, so scheduling interleavings
//! cannot change the outcome.
//!
//! `SeqState::advance` is the engine's only op interpreter. A `SeqState`
//! owns a contiguous rank range and the channels those ranks receive on:
//! the sequential driver here runs one over the whole mesh (and pauses
//! and forks it), and the windowed-parallel driver in [`crate::par`] runs
//! one per rank partition, routing each partition's outbox between
//! windows.
//!
//! # Execution-core layout
//!
//! The engine is built for large rank counts (the paper's speculative
//! 8000-PE campaigns):
//!
//! * Programs are held as a shared [`ProgramSet`]: each distinct op stream
//!   is stored once and sends/receives name a *slot* into the rank's
//!   partner table (≤4 partners for a SWEEP3D rank). A stream is one body
//!   run `laps` times: at the end of the body a rank wraps its pc to 0
//!   until its laps are done, and only that branch reads the lap count.
//! * Message queues are dense per-channel tables: one channel per directed
//!   `(src, dst)` partner edge, resolved from the slot tables before the
//!   run starts. The hot path never hashes and never allocates map
//!   entries; the channel count is fixed by the topology, independent of
//!   run length (the old `HashMap<(rank, rank, tag), VecDeque>` design
//!   retained one empty queue per tag forever). Matching scans the edge
//!   queue for the first tag match, which preserves the per-`(src, dst,
//!   tag)` FIFO order bit-exactly.
//! * Queue storage is sized by what is in flight. Each channel holds two
//!   intrusive FIFO lists — in-flight messages and parked rendezvous
//!   sends — as head/tail indices into one `NodePool` with a free list
//!   per scheduler state: one for a sequential run, one per partition of
//!   a windowed-parallel run. The pool's length is its state's peak
//!   queued-entry count, and its capacity stays within twice that,
//!   whereas one deque per channel retained the sum of every channel's
//!   own peak (2.0 M slots against a 10.3 k peak at 8000 ranks). A
//!   snapshot copies one pool and two index arrays.
//! * The channel index is flat: receiver-allocated ids are contiguous per
//!   rank, so a receive reads `chan_base[r] + slot` and a send reads
//!   `send_chan[chan_base[r] + slot]` — two arrays for the whole run
//!   instead of two small heap tables per rank.
//! * Each distinct op is priced once per run. Before the first activation
//!   the machine is lowered to a `CostTable`: ops with equal model inputs
//!   (a compute block's flops and working set, a send's size) share a
//!   price class holding the compute block's noise-free time or the
//!   send's sender overhead, serialisation, wire and receiver-overhead
//!   times, and every stored op of every distinct stream names its class.
//!   The table prices each stream's body once, however many laps it runs.
//!   A two-iteration 8000-rank speculation run executes 12.7 M ops over
//!   about 5.3 k stored ones, so the hot loop reads a price where it used
//!   to call the CPU and network models. Messages and parked rendezvous
//!   sends carry the sending op's class, so the receiver side prices the
//!   transfer from the same entry. At 4 bytes per stored op the table stays well
//!   below the size of the streams it prices.
//! * The table changes no bit. Its prices are the very `SimTime`s the
//!   model calls return, and the noise is still drawn per executed op in
//!   program order and applied on top with the same f64 expression
//!   (`SimTime::from_secs(base.as_secs() * factor)`). The table is built
//!   from the machine in force: [`Paused::resume_with`] rebuilds it from
//!   the replacement machine, so a fork prices every op after the cut —
//!   a parked rendezvous send included — on the new hardware. The
//!   collective tree cost is still computed per collective.
//! * Hot per-rank state (clock, pc, status) lives in parallel arrays so
//!   the scheduler loop stays cache-resident at 8000+ ranks.
//!
//! The retained pre-optimization scheduler lives in [`crate::reference`];
//! golden-digest and property tests pin this engine's `RunReport`s to it
//! bit-for-bit.
//!
//! With [`Engine::with_recorder`] the engine additionally emits one
//! telemetry span per activity interval — compute blocks, send/receive
//! overheads, rendezvous stalls, receive waits and collectives — keyed on
//! virtual time, so the stream is byte-deterministic and sums back to
//! [`RankStats`] exactly. Recording never touches the noise streams or
//! clocks: results are bit-identical with tracing on or off.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;

use obs::{Cat, EdgeKind, EdgeRecord, Recorder};

use crate::error::{SimError, SimResult};
use crate::machine::MachineSpec;
use crate::noise::NoiseStream;
use crate::program::Program;
use crate::progset::{ProgramSet, SharedOp};
use crate::stats::{RankStats, RunReport};
use crate::time::SimTime;

/// Rank scheduling status (compact: fits SoA status array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Ready,
    BlockedRecv {
        from: u32,
        tag: u32,
    },
    /// Rendezvous sender waiting for the receiver to post its receive.
    BlockedSend {
        to: u32,
        tag: u32,
    },
    Parked,
    Done,
}

/// An in-flight message on a channel queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Msg {
    pub(crate) tag: u32,
    /// The sending op's [`CostTable`] price class (prices the receive
    /// overhead).
    pub(crate) cost: u32,
    pub(crate) bytes: usize,
    pub(crate) arrival: SimTime,
}

/// A rendezvous send parked on its channel until the receive is posted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pend {
    pub(crate) tag: u32,
    /// The sending op's [`CostTable`] price class (prices the transfer
    /// once the handshake completes).
    pub(crate) cost: u32,
    pub(crate) bytes: usize,
    /// Time the sender became ready to transfer (after the send-call
    /// overhead).
    pub(crate) ready: SimTime,
    /// Pre-drawn wire jitter (drawn at send execution so noise stays in
    /// program order).
    pub(crate) jitter: SimTime,
    /// The sender's NIC-busy time at park time. A parked sender executes
    /// nothing, so the value is frozen until the handshake, and the
    /// receiver reads it here whether or not its state runs the sender.
    pub(crate) nic_busy: SimTime,
}

/// Traffic a [`SeqState`] cannot apply itself: a message or parked send
/// on a channel another state owns, or a handshake reply to a sender
/// another state runs. Only windowed-parallel partitions produce it; the
/// driver in [`crate::par`] routes it between windows.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Bound {
    /// An eager message from `src` to `dst` on channel `chan`.
    Msg { chan: u32, src: u32, dst: u32, msg: Msg },
    /// A rendezvous send from `src` to `dst`, parked on channel `chan`.
    Pend { chan: u32, src: u32, dst: u32, pend: Pend },
    /// A completed handshake: sender `src` resumes at `resume`.
    Done { src: u32, dst: u32, bytes: usize, ready: SimTime, resume: SimTime },
}

impl Bound {
    /// The rank whose state takes this entry, or `None` for traffic on a
    /// dangling channel, which nothing reads.
    pub(crate) fn owner(&self, channels: &Channels) -> Option<usize> {
        match *self {
            Bound::Msg { chan, dst, .. } | Bound::Pend { chan, dst, .. } => {
                (chan < channels.dangling_base()).then_some(dst as usize)
            }
            Bound::Done { src, .. } => Some(src as usize),
        }
    }
}

/// Null link of a [`NodePool`] list.
const NIL: u32 = u32::MAX;

/// An intrusive FIFO list threaded through a [`NodePool`]: the indices of
/// its first and last nodes, [`NIL`] when empty. Eight bytes per list, so
/// an idle channel costs no heap at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fifo {
    head: u32,
    tail: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo { head: NIL, tail: NIL };

    fn is_empty(self) -> bool {
        self.head == NIL
    }
}

#[derive(Debug, Clone, Copy)]
struct Node<T> {
    item: T,
    /// Next node of the same list, or of the free list once released.
    next: u32,
}

/// One run's queue nodes: every [`Fifo`] of the run keeps its entries in
/// this single vector, and released nodes are recycled through a free list
/// threaded through their `next` links.
///
/// The vector only grows when every node is live, so its length never
/// exceeds the peak number of live entries, and it grows by exact
/// doubling, so its capacity stays within twice that peak. Cloning it (a
/// snapshot) copies one dense vector.
#[derive(Debug, Clone)]
struct NodePool<T> {
    nodes: Vec<Node<T>>,
    free: u32,
    live: usize,
    peak: usize,
}

impl<T: Copy> NodePool<T> {
    fn new() -> Self {
        NodePool { nodes: Vec::new(), free: NIL, live: 0, peak: 0 }
    }

    /// Append `item` to the back of `list`.
    fn push_back(&mut self, list: &mut Fifo, item: T) {
        let node = Node { item, next: NIL };
        let i = if self.free != NIL {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        } else {
            assert!(self.nodes.len() < NIL as usize, "queue pool exhausted its u32 node ids");
            if self.nodes.len() == self.nodes.capacity() {
                self.nodes.reserve_exact(self.nodes.len().max(1));
            }
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        match list.tail {
            NIL => list.head = i,
            tail => self.nodes[tail as usize].next = i,
        }
        list.tail = i;
        self.live += 1;
        self.peak = self.peak.max(self.live);
    }

    /// Unlink and return the first item of `list` that satisfies `hit`,
    /// leaving the others in order.
    fn take_first(&mut self, list: &mut Fifo, hit: impl Fn(&T) -> bool) -> Option<T> {
        let mut prev = NIL;
        let mut cur = list.head;
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            let next = node.next;
            if hit(&node.item) {
                let item = node.item;
                match prev {
                    NIL => list.head = next,
                    prev => self.nodes[prev as usize].next = next,
                }
                if list.tail == cur {
                    list.tail = prev;
                }
                self.nodes[cur as usize].next = self.free;
                self.free = cur;
                self.live -= 1;
                return Some(item);
            }
            prev = cur;
            cur = next;
        }
        None
    }

    /// Peak number of simultaneously live entries so far, counted
    /// independently of the node vector.
    fn peak_live(&self) -> usize {
        self.peak
    }

    /// Nodes the pool can hold without reallocating.
    fn capacity(&self) -> usize {
        self.nodes.capacity()
    }
}

/// A channel queue entry. In-flight messages and parked rendezvous sends
/// live on separate lists but share one [`NodePool`].
#[derive(Debug, Clone, Copy)]
enum Queued {
    Msg(Msg),
    Pend(Pend),
}

impl Queued {
    fn tag(&self) -> u32 {
        match self {
            Queued::Msg(m) => m.tag,
            Queued::Pend(p) => p.tag,
        }
    }
}

/// The dense channel queues of one sequential run: per channel, a FIFO of
/// in-flight messages and a FIFO of parked rendezvous sends, both in
/// sender program order (MPI non-overtaking) and matched by taking the
/// first tag hit. All lists draw on one node pool, so the queues retain
/// memory for the peak traffic in flight, not for each channel's history.
#[derive(Clone)]
struct ChannelQueues {
    pool: NodePool<Queued>,
    inflight: Vec<Fifo>,
    pending: Vec<Fifo>,
    /// Rendezvous sends parked so far.
    parked_sends: u64,
}

impl ChannelQueues {
    fn new(channel_count: usize) -> Self {
        ChannelQueues {
            pool: NodePool::new(),
            inflight: vec![Fifo::EMPTY; channel_count],
            pending: vec![Fifo::EMPTY; channel_count],
            parked_sends: 0,
        }
    }

    fn push_msg(&mut self, chan: usize, msg: Msg) {
        self.pool.push_back(&mut self.inflight[chan], Queued::Msg(msg));
    }

    fn push_pend(&mut self, chan: usize, pend: Pend) {
        self.pool.push_back(&mut self.pending[chan], Queued::Pend(pend));
        self.parked_sends += 1;
    }

    fn take_msg(&mut self, chan: usize, tag: u32) -> Option<Msg> {
        match self.pool.take_first(&mut self.inflight[chan], |e| e.tag() == tag)? {
            Queued::Msg(msg) => Some(msg),
            Queued::Pend(_) => unreachable!("in-flight lists hold messages only"),
        }
    }

    fn take_pend(&mut self, chan: usize, tag: u32) -> Option<Pend> {
        match self.pool.take_first(&mut self.pending[chan], |e| e.tag() == tag)? {
            Queued::Pend(pend) => Some(pend),
            Queued::Msg(_) => unreachable!("pending lists hold parked sends only"),
        }
    }

    /// Lowest channel id with a message in flight or a parked send.
    fn first_busy(&self) -> Option<usize> {
        (0..self.inflight.len())
            .find(|&ch| !self.inflight[ch].is_empty() || !self.pending[ch].is_empty())
    }
}

/// Per-rank noise streams, elided entirely for silent machines so an
/// 8000-PE noiseless run seeds no RNGs. The silent fast path is
/// bit-identical: a silent [`NoiseStream`] returns its constants without
/// drawing. `Clone` captures the streams' positions, which is what makes
/// snapshot forks bit-exact: a cloned bank replays the same draws the
/// original would have drawn.
#[derive(Clone)]
enum NoiseBank {
    Silent,
    PerRank(Vec<NoiseStream>),
}

impl NoiseBank {
    /// A bank covering global ranks `ranks`, indexed locally. Streams are
    /// salted with the *global* rank, so a partition draws exactly the
    /// sequence the whole-mesh bank would.
    fn for_range(machine: &MachineSpec, ranks: Range<usize>) -> Self {
        if machine.noise.is_none() {
            NoiseBank::Silent
        } else {
            NoiseBank::PerRank(
                ranks.map(|r| NoiseStream::new(machine.noise, machine.seed, r)).collect(),
            )
        }
    }

    #[inline]
    fn compute_factor(&mut self, r: usize) -> f64 {
        match self {
            NoiseBank::Silent => 1.0,
            NoiseBank::PerRank(v) => v[r].compute_factor(),
        }
    }

    #[inline]
    fn message_jitter_secs(&mut self, r: usize) -> f64 {
        match self {
            NoiseBank::Silent => 0.0,
            NoiseBank::PerRank(v) => v[r].message_jitter_secs(),
        }
    }
}

/// Memory-footprint counters of one run's channel tables (see
/// [`Engine::run_probed`]). The channel count is a pure function of the
/// topology and the queue peaks are bounded by in-flight traffic, so a
/// longer run of the same program shape must not grow the first three —
/// which the long-run regression test asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemProbe {
    /// Dense channels allocated (one per directed partner edge).
    pub channels: usize,
    /// Peak entries queued across all channels (in-flight + pending) at
    /// any point of the run.
    pub peak_queued: usize,
    /// Retained capacity, in nodes, of the run's queue-node pool at run
    /// end. Every channel's in-flight and pending lists share the pool,
    /// which grows by doubling only when all its nodes are live, so this
    /// is at most `2 × peak_queued`.
    pub queue_capacity: usize,
    /// Rendezvous sends that parked on their channel because the
    /// receiver had not posted the matching receive yet.
    pub parked_sends: u64,
}

/// Dense channel index: a channel id per directed partner edge, in two
/// flat arrays.
///
/// Channel ids are allocated receiver-side and are contiguous per rank:
/// `chan_base[r] + s` is the queue for messages from `partners(r)[s]` to
/// `r`. The sender side is indexed the same way: `r`'s sends to
/// `partners(r)[s]` land on `send_chan[chan_base[r] + s]`. A send whose
/// destination does not list the sender as a partner (only possible for
/// statically-invalid programs run with validation off) gets a dangling
/// channel nothing reads.
pub(crate) struct Channels {
    /// First receive channel of each rank, plus the receiver-allocated
    /// total as a final entry (`n + 1` entries).
    pub(crate) chan_base: Vec<u32>,
    pub(crate) send_chan: Vec<u32>,
    pub(crate) count: usize,
}

impl Channels {
    /// First dangling channel id (== the receiver-allocated count). Ids
    /// at or above this are write-only; causality edges are never
    /// recorded for them.
    pub(crate) fn dangling_base(&self) -> u32 {
        self.chan_base[self.chan_base.len() - 1]
    }
}

pub(crate) fn build_channels(set: &ProgramSet) -> Channels {
    let n = set.num_ranks();
    let mut chan_base = Vec::with_capacity(n + 1);
    let mut next = 0u32;
    for r in 0..n {
        chan_base.push(next);
        next += set.partners(r).len() as u32;
    }
    chan_base.push(next);
    let mut send_chan = Vec::with_capacity(next as usize);
    for r in 0..n {
        for &p in set.partners(r) {
            let to = p as usize;
            let resolved = (to < n)
                .then(|| set.partners(to).iter().position(|&x| x as usize == r))
                .flatten()
                .map(|t| chan_base[to] + t as u32);
            send_chan.push(resolved.unwrap_or_else(|| {
                let c = next;
                next += 1;
                c
            }));
        }
    }
    Channels { chan_base, send_chan, count: next as usize }
}

/// The machine's price of an op, computed once per run. Only the fields
/// an op kind reads are set; the rest stay zero.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpCost {
    /// CPU time of the executing rank: a compute block's noise-free
    /// duration, or a send call's overhead.
    pub(crate) cpu: SimTime,
    /// Send: span the sender's NIC is busy.
    pub(crate) serialization: SimTime,
    /// Send: one-way wire time.
    pub(crate) wire: SimTime,
    /// Send: the receiver's call overhead once the message is available.
    pub(crate) recv_overhead: SimTime,
}

/// Per-run op-cost table of a [`ProgramSet`] on one machine. Ops with
/// equal model inputs — a compute block's `(flops, working_set)`, a
/// send's `bytes` — share one *price class*; each stored op of every
/// distinct stream names its class. So the table costs 4 bytes per
/// stored op plus one [`OpCost`] per class, which keeps it far smaller
/// than the streams it prices. The prices hold exactly the `SimTime`s the
/// models return, so reading one instead of calling the model changes no
/// bit; noise is applied per executed op, on top.
pub(crate) struct CostTable {
    /// Start of each stream's run in `class_of`, plus the total as a
    /// final entry.
    stream_base: Vec<u32>,
    /// Price class of every stored op, stream after stream.
    class_of: Vec<u32>,
    /// Price of each class. Receives and collectives share one empty
    /// class: their costs depend on the sender's op or on every rank.
    pub(crate) prices: Vec<OpCost>,
}

impl CostTable {
    pub(crate) fn new(machine: &MachineSpec, set: &ProgramSet) -> Self {
        let sharers = machine.sharers(set.num_ranks());
        let net = &machine.network;
        let price = |op: &SharedOp| match *op {
            SharedOp::Compute { flops, working_set } => OpCost {
                cpu: machine.cpu.compute_time(flops, working_set, sharers),
                ..OpCost::default()
            },
            SharedOp::Send { bytes, .. } => OpCost {
                cpu: net.sender_overhead(bytes),
                serialization: net.serialization_time(bytes),
                wire: net.wire_time(bytes),
                recv_overhead: net.receiver_overhead(bytes),
            },
            SharedOp::Recv { .. } | SharedOp::AllReduce { .. } | SharedOp::Barrier => {
                OpCost::default()
            }
        };
        let mut classes: HashMap<(u8, u64, u64), u32> = HashMap::new();
        let mut prices = Vec::new();
        let mut stream_base = Vec::with_capacity(set.num_streams() + 1);
        let mut class_of = Vec::with_capacity(set.stored_ops());
        for ops in set.streams() {
            stream_base.push(class_of.len() as u32);
            for op in ops {
                let key = match *op {
                    SharedOp::Compute { flops, working_set } => {
                        (0u8, flops.to_bits(), working_set as u64)
                    }
                    SharedOp::Send { bytes, .. } => (1, bytes as u64, 0),
                    SharedOp::Recv { .. } | SharedOp::AllReduce { .. } | SharedOp::Barrier => {
                        (2, 0, 0)
                    }
                };
                let class = *classes.entry(key).or_insert_with(|| {
                    prices.push(price(op));
                    u32::try_from(prices.len() - 1).expect("price classes fit in u32")
                });
                class_of.push(class);
            }
        }
        stream_base.push(u32::try_from(class_of.len()).expect("stored ops fit in u32"));
        CostTable { stream_base, class_of, prices }
    }

    /// Price class of each op of rank `r`'s stream body, indexed by pc.
    #[inline]
    pub(crate) fn classes(&self, set: &ProgramSet, r: usize) -> &[u32] {
        let s = set.stream_index(r);
        &self.class_of[self.stream_base[s] as usize..self.stream_base[s + 1] as usize]
    }
}

/// The simulation engine. Construct with [`Engine::new`] (legacy per-rank
/// program vectors, interned on entry) or [`Engine::from_set`] (shared
/// sets, the cheap path for replication campaigns); run with
/// [`Engine::run`].
pub struct Engine<'m> {
    pub(crate) machine: &'m MachineSpec,
    pub(crate) set: ProgramSet,
    /// Telemetry sink for per-activity spans (virtual-time domain).
    pub(crate) recorder: Option<&'m Recorder>,
    /// Track group the spans are recorded under (one pid per run when a
    /// recorder is shared across runs).
    pub(crate) trace_pid: u32,
}

impl<'m> Engine<'m> {
    /// Create an engine for one program per rank.
    pub fn new(machine: &'m MachineSpec, programs: Vec<Program>) -> Self {
        Self::from_set(machine, ProgramSet::from_programs(&programs))
    }

    /// Create an engine over an already-shared program set. Replication
    /// campaigns clone the set per run — an `Arc` bump per distinct
    /// stream, not a copy of every op.
    pub fn from_set(machine: &'m MachineSpec, set: ProgramSet) -> Self {
        Engine { machine, set, recorder: None, trace_pid: 0 }
    }

    /// Attach a telemetry recorder. Every activity interval of the run is
    /// emitted as a sim-domain span under track group `pid` (rank index as
    /// track id). When one recorder serves several runs, give each run a
    /// distinct `pid`.
    pub fn with_recorder(mut self, recorder: &'m Recorder, pid: u32) -> Self {
        self.recorder = Some(recorder);
        self.trace_pid = pid;
        self
    }

    /// Execute the programs to completion, returning per-rank statistics.
    pub fn run(self) -> SimResult<RunReport> {
        self.run_probed().map(|(report, _)| report)
    }

    /// [`Engine::run`] plus the channel-table memory counters, for
    /// footprint regression tests and the bench harness.
    pub fn run_probed(self) -> SimResult<(RunReport, MemProbe)> {
        self.validate()?;
        let ctx = RunCtx::new(self.machine, &self.set, self.recorder, self.trace_pid);
        run_sequential(&self.set, &build_channels(&self.set), &ctx)
    }

    /// The static message-balance pre-check.
    pub(crate) fn validate(&self) -> SimResult<()> {
        self.set.validate().map_err(|detail| SimError::InvalidPrograms { detail })
    }

    /// Run until at least `pause_after` rank activations have been
    /// processed, stopping at the next activation boundary (a consistent
    /// global cut of the single-threaded scheduler), and return the
    /// paused state. Resuming on the same machine is bit-identical to an
    /// uninterrupted [`Engine::run`]; [`Paused::snapshot`] forks the state
    /// so what-if campaigns re-simulate only the suffix past a shared
    /// prefix. A pause target beyond the end of the run simply completes
    /// it (see [`Paused::is_complete`]).
    pub fn run_paused(self, pause_after: u64) -> SimResult<Paused<'m>> {
        self.validate()?;
        let ctx = RunCtx::new(self.machine, &self.set, self.recorder, self.trace_pid);
        let channels = build_channels(&self.set);
        let mut state = SeqState::new(self.machine, 0..self.set.num_ranks(), 0..channels.count);
        state.run(&self.set, &channels, &ctx, Some(pause_after));
        Ok(Paused {
            machine: self.machine,
            set: self.set,
            recorder: self.recorder,
            trace_pid: self.trace_pid,
            state,
        })
    }
}

/// Machine-derived per-run parameters, the op-cost table among them. One
/// per run, shared by every partition of a parallel one. Recomputed from
/// the replacement machine when a paused run resumes, so a fork models
/// "the hardware changes at the pause point".
pub(crate) struct RunCtx<'a> {
    machine: &'a MachineSpec,
    pub(crate) costs: CostTable,
    /// Per-run background-load level (same for every rank in this run).
    run_factor: f64,
    eager_limit: usize,
    /// Telemetry sink (None when absent or disabled: zero-cost path).
    pub(crate) rec: Option<&'a Recorder>,
    pid: u32,
    /// Span totals the recorder held before this run (debug builds).
    span_baseline: SpanTotals,
}

impl<'a> RunCtx<'a> {
    pub(crate) fn new(
        machine: &'a MachineSpec,
        set: &ProgramSet,
        recorder: Option<&'a Recorder>,
        pid: u32,
    ) -> Self {
        let rec = recorder.filter(|r| r.is_enabled());
        if let Some(rec) = rec {
            for r in 0..set.num_ranks() {
                rec.set_thread_name(pid, r as u32, format!("rank {r}"));
            }
        }
        RunCtx {
            machine,
            costs: CostTable::new(machine, set),
            run_factor: machine.noise.run_factor(machine.seed),
            eager_limit: machine.rendezvous_bytes.unwrap_or(usize::MAX),
            rec,
            pid,
            span_baseline: debug_span_baseline(rec),
        }
    }
}

/// The scheduler state of a contiguous rank range `lo..hi` and of the
/// channels those ranks receive on. A sequential run owns the whole mesh
/// in one state; a windowed-parallel run gives each partition one.
///
/// Cloneable so a paused run can be snapshotted and forked: every field a
/// later event can read — clocks, queues, noise-stream positions, the
/// ready queue — is owned here, which is what makes a restored copy
/// bit-identical. Per-rank arrays are indexed locally (`rank - lo`),
/// queues by `channel - chan_lo`.
#[derive(Clone)]
pub(crate) struct SeqState {
    /// First global rank of the range.
    lo: usize,
    /// First channel id the state owns.
    chan_lo: usize,
    // Hot per-rank state, struct-of-arrays.
    clock: Vec<SimTime>,
    /// Position in the rank's stream body.
    pc: Vec<u32>,
    /// Laps of the body the rank has finished.
    lap: Vec<u32>,
    status: Vec<St>,
    /// Arrival clock at the collective a rank is parked on.
    park_clock: Vec<SimTime>,
    stats: Vec<RankStats>,
    noise: NoiseBank,
    queues: ChannelQueues,
    /// Sender NIC busy-until times (back-to-back serialisation).
    nic_busy: Vec<SimTime>,
    /// Ranks (global ids) currently parked at the pending collective.
    parked: Vec<usize>,
    finished: usize,
    /// Runnable ranks (global ids).
    ready: VecDeque<usize>,
    /// Rank activations processed so far (the pause-point unit).
    activations: u64,
    /// Traffic for other states, drained by the parallel driver. Always
    /// empty when the state owns the whole mesh.
    pub(crate) outbox: Vec<Bound>,
}

impl SeqState {
    pub(crate) fn new(machine: &MachineSpec, ranks: Range<usize>, chans: Range<usize>) -> Self {
        let n = ranks.len();
        SeqState {
            lo: ranks.start,
            chan_lo: chans.start,
            clock: vec![SimTime::ZERO; n],
            pc: vec![0u32; n],
            lap: vec![0u32; n],
            status: vec![St::Ready; n],
            park_clock: vec![SimTime::ZERO; n],
            stats: vec![RankStats::default(); n],
            noise: NoiseBank::for_range(machine, ranks.clone()),
            queues: ChannelQueues::new(chans.len()),
            nic_busy: vec![SimTime::ZERO; n],
            parked: Vec::with_capacity(n),
            finished: 0,
            ready: ranks.collect(),
            activations: 0,
            outbox: Vec::new(),
        }
    }

    pub(crate) fn activations(&self) -> u64 {
        self.activations
    }

    /// No rank of the range is runnable.
    pub(crate) fn is_idle(&self) -> bool {
        self.ready.is_empty()
    }

    fn owns_rank(&self, r: usize) -> bool {
        r.wrapping_sub(self.lo) < self.clock.len()
    }

    /// Sequential driver: [`SeqState::advance`] over the whole mesh,
    /// completing each collective once the last rank has parked, until the
    /// run ends, deadlocks or has processed `pause_after` activations.
    fn run(
        &mut self,
        set: &ProgramSet,
        channels: &Channels,
        ctx: &RunCtx<'_>,
        pause_after: Option<u64>,
    ) {
        loop {
            self.advance(set, channels, ctx, pause_after);
            if !complete_collective(&mut [&mut *self], set, ctx) {
                return;
            }
        }
    }

    /// The engine's op interpreter: run the range's ready ranks until none
    /// is runnable or, when `pause_after` is set, until at least that many
    /// activations have been processed. The pause check sits at the
    /// activation boundary only, so a paused state never holds a
    /// half-executed op. When the last rank of the range parks at a
    /// collective nothing is runnable, so it returns and leaves the
    /// collective to its driver ([`complete_collective`]). Traffic on a
    /// channel the state does not own goes to the outbox.
    pub(crate) fn advance(
        &mut self,
        set: &ProgramSet,
        channels: &Channels,
        ctx: &RunCtx<'_>,
        pause_after: Option<u64>,
    ) {
        let prices = &ctx.costs.prices;
        let eager_limit = ctx.eager_limit;
        let (rec, pid) = (ctx.rec, ctx.pid);
        let (lo, chan_lo) = (self.lo, self.chan_lo);
        let owned_chans = chan_lo..chan_lo + self.queues.inflight.len();
        loop {
            if pause_after.is_some_and(|limit| self.activations >= limit) {
                return;
            }
            let Some(r) = self.ready.pop_front() else { return };
            self.activations += 1;
            let li = r - lo;
            debug_assert_eq!(self.status[li], St::Ready);
            let ops = set.ops(r);
            let partners = set.partners(r);
            let classes = ctx.costs.classes(set, r);
            let chan0 = channels.chan_base[r] as usize;
            loop {
                let at = self.pc[li] as usize;
                if at >= ops.len() {
                    // End of the body: run it again until every lap is done.
                    if self.lap[li] + 1 < set.laps(r) {
                        self.lap[li] += 1;
                        self.pc[li] = 0;
                        continue;
                    }
                    self.status[li] = St::Done;
                    self.stats[li].finish = self.clock[li];
                    // Every clock advance is mirrored by exactly one stats
                    // increment, so the breakdown closes *exactly* in
                    // integer picoseconds — not just approximately.
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
                        if let Some(rec) = rec {
                            rec.sim_span(
                                pid,
                                r as u32,
                                "send",
                                Cat::Comm,
                                self.clock[li].picos(),
                                cost.cpu.picos(),
                                vec![
                                    ("to", to.into()),
                                    ("bytes", bytes.into()),
                                    ("tag", (tag as u64).into()),
                                ],
                            );
                        }
                        self.clock[li] += cost.cpu;
                        self.stats[li].send_overhead += cost.cpu;
                        let jitter = SimTime::from_secs(self.noise.message_jitter_secs(li));
                        let chan = channels.send_chan[chan0 + slot as usize] as usize;
                        // A channel the state does not own has its receiver
                        // in another partition (or, dangling, none at all).
                        let local = owned_chans.contains(&chan);
                        let rendezvous = bytes >= eager_limit;
                        let waiting = rendezvous
                            && local
                            && self.status[to - lo] == (St::BlockedRecv { from: r as u32, tag });
                        let sent_at = self.clock[li];
                        if rendezvous && !waiting {
                            // Rendezvous: the receiver has not posted yet
                            // (or runs elsewhere); park until it reaches
                            // the matching receive.
                            let pend = Pend {
                                tag,
                                cost: class,
                                bytes,
                                ready: sent_at,
                                jitter,
                                nic_busy: self.nic_busy[li],
                            };
                            if local {
                                self.queues.push_pend(chan - chan_lo, pend);
                            } else {
                                let (chan, src, dst) = (chan as u32, r as u32, to as u32);
                                self.outbox.push(Bound::Pend { chan, src, dst, pend });
                            }
                            self.status[li] = St::BlockedSend { to: to as u32, tag };
                            break;
                        }
                        // Eager transfer (or the receiver is already
                        // waiting, which completes the handshake at once).
                        let posted = if rendezvous {
                            self.clock[to - lo] // receiver's clock at its post
                        } else {
                            SimTime::ZERO
                        };
                        let wire_start = sent_at.max(self.nic_busy[li]).max(posted);
                        self.nic_busy[li] = wire_start + cost.serialization;
                        let arrival = wire_start + cost.wire + jitter;
                        if let Some(rec) = rec {
                            // Dangling channels (validation off) have no
                            // receiver: no causal edge exists.
                            if (chan as u32) < channels.dangling_base() {
                                rec.sim_edge(EdgeRecord {
                                    pid,
                                    kind: EdgeKind::Message,
                                    chan: chan as u32,
                                    src: r as u32,
                                    dst: to as u32,
                                    tag,
                                    bytes: bytes as u64,
                                    send_post: sent_at.picos(),
                                    recv_post: posted.picos(),
                                    wire_start: wire_start.picos(),
                                    recv: arrival.picos(),
                                    resume: if rendezvous {
                                        self.nic_busy[li].picos()
                                    } else {
                                        sent_at.picos()
                                    },
                                });
                            }
                        }
                        let msg = Msg { tag, cost: class, bytes, arrival };
                        if local {
                            self.queues.push_msg(chan - chan_lo, msg);
                        } else {
                            let (chan, src, dst) = (chan as u32, r as u32, to as u32);
                            self.outbox.push(Bound::Msg { chan, src, dst, msg });
                        }
                        self.stats[li].messages_sent += 1;
                        self.stats[li].bytes_sent += bytes as u64;
                        // A blocking rendezvous send returns once the
                        // buffer is reusable (after serialisation).
                        if rendezvous {
                            let done = self.nic_busy[li];
                            let wait = done.saturating_sub(sent_at);
                            if let Some(rec) = rec {
                                if wait > SimTime::ZERO {
                                    rec.sim_span(
                                        pid,
                                        r as u32,
                                        "send_wait",
                                        Cat::Comm,
                                        sent_at.picos(),
                                        wait.picos(),
                                        vec![("to", to.into()), ("bytes", bytes.into())],
                                    );
                                }
                            }
                            self.stats[li].send_wait += wait;
                            self.clock[li] = sent_at.max(done);
                        }
                        self.pc[li] += 1;
                        if local {
                            self.wake(to, r, tag);
                        }
                    }
                    SharedOp::Recv { slot, tag } => {
                        let from = partners[slot as usize] as usize;
                        let chan = chan0 + slot as usize;
                        let (arrival, cost, bytes) =
                            if let Some(msg) = self.queues.take_msg(chan - chan_lo, tag) {
                                (msg.arrival, msg.cost, msg.bytes)
                            } else if let Some(pend) = self.queues.take_pend(chan - chan_lo, tag) {
                                // A rendezvous sender is parked on this
                                // channel: complete the handshake.
                                (self.handshake(r, from, chan, pend, ctx), pend.cost, pend.bytes)
                            } else {
                                self.status[li] = St::BlockedRecv { from: from as u32, tag };
                                break;
                            };
                        let overhead = prices[cost as usize].recv_overhead;
                        let wait = arrival.saturating_sub(self.clock[li]);
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
                                    ("bytes", bytes.into()),
                                    ("tag", (tag as u64).into()),
                                ],
                            );
                        }
                        self.stats[li].recv_wait += wait;
                        self.clock[li] = self.clock[li].max(arrival) + overhead;
                        self.stats[li].recv_overhead += overhead;
                        self.pc[li] += 1;
                    }
                    SharedOp::AllReduce { .. } | SharedOp::Barrier => {
                        // Collectives span every rank: park, and let the
                        // driver complete it once every rank has parked.
                        self.status[li] = St::Parked;
                        self.park_clock[li] = self.clock[li];
                        self.parked.push(r);
                        break;
                    }
                }
            }
        }
    }

    /// Ready `dst` if it is blocked on a receive from `src` with `tag`.
    fn wake(&mut self, dst: usize, src: usize, tag: u32) {
        let ld = dst - self.lo;
        if self.status[ld] == (St::BlockedRecv { from: src as u32, tag }) {
            self.status[ld] = St::Ready;
            self.ready.push_back(dst);
        }
    }

    /// The receiver's half of a rendezvous: `dst` posted the receive that
    /// matches `src`'s send `pend`, parked on channel `chan`. The wire
    /// starts once the sender is ready, its NIC is free and the receive is
    /// posted. A sender this state runs resumes in place; any other gets
    /// its resume time by mail. Returns the message's arrival time.
    fn handshake(
        &mut self,
        dst: usize,
        src: usize,
        chan: usize,
        pend: Pend,
        ctx: &RunCtx<'_>,
    ) -> SimTime {
        let sent = ctx.costs.prices[pend.cost as usize];
        let posted = self.clock[dst - self.lo];
        let wire_start = pend.ready.max(pend.nic_busy).max(posted);
        let resume = wire_start + sent.serialization;
        let arrival = wire_start + sent.wire + pend.jitter;
        if let Some(rec) = ctx.rec {
            rec.sim_edge(EdgeRecord {
                pid: ctx.pid,
                kind: EdgeKind::Message,
                chan: chan as u32,
                src: src as u32,
                dst: dst as u32,
                tag: pend.tag,
                bytes: pend.bytes as u64,
                send_post: pend.ready.picos(),
                recv_post: posted.picos(),
                wire_start: wire_start.picos(),
                recv: arrival.picos(),
                resume: resume.picos(),
            });
        }
        if self.owns_rank(src) {
            debug_assert_eq!(pend.nic_busy, self.nic_busy[src - self.lo], "parked NIC moved");
            self.resume_sender(src, dst, pend.bytes, pend.ready, resume, ctx);
        } else {
            let (src, dst, bytes, ready) = (src as u32, dst as u32, pend.bytes, pend.ready);
            self.outbox.push(Bound::Done { src, dst, bytes, ready, resume });
        }
        arrival
    }

    /// The sender's half of a completed rendezvous: `src`, parked since
    /// `ready`, resumes at `resume` with its send to `dst` done.
    fn resume_sender(
        &mut self,
        src: usize,
        dst: usize,
        bytes: usize,
        ready: SimTime,
        resume: SimTime,
        ctx: &RunCtx<'_>,
    ) {
        let ls = src - self.lo;
        debug_assert!(matches!(self.status[ls], St::BlockedSend { .. }));
        let wait = resume.saturating_sub(ready);
        if let Some(rec) = ctx.rec {
            if wait > SimTime::ZERO {
                rec.sim_span(
                    ctx.pid,
                    src as u32,
                    "send_wait",
                    Cat::Comm,
                    ready.picos(),
                    wait.picos(),
                    vec![("to", dst.into()), ("bytes", bytes.into())],
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
        self.ready.push_back(src);
    }

    /// Apply traffic another state produced for this one. A delivery only
    /// readies a rank blocked on exactly that `(src, tag)`. A delivered
    /// parked send that wakes its receiver is the remote form of the
    /// receiver-already-waiting rendezvous: the re-executed receive
    /// completes the handshake with the same values.
    pub(crate) fn deliver(&mut self, bound: Bound, ctx: &RunCtx<'_>) {
        match bound {
            Bound::Msg { chan, src, dst, msg } => {
                self.queues.push_msg(chan as usize - self.chan_lo, msg);
                self.wake(dst as usize, src as usize, msg.tag);
            }
            Bound::Pend { chan, src, dst, pend } => {
                self.queues.push_pend(chan as usize - self.chan_lo, pend);
                self.wake(dst as usize, src as usize, pend.tag);
            }
            Bound::Done { src, dst, bytes, ready, resume } => {
                self.resume_sender(src as usize, dst as usize, bytes, ready, resume, ctx);
            }
        }
    }

    fn probe(&self, channels: &Channels) -> MemProbe {
        MemProbe {
            channels: channels.count,
            peak_queued: self.queues.pool.peak_live(),
            queue_capacity: self.queues.pool.capacity(),
            parked_sends: self.queues.parked_sends,
        }
    }
}

/// Complete the pending collective once every rank of `parts` — states
/// covering ranks `0..n` in order — has parked at it: all ranks resume at
/// `max(arrival) + tree cost`. The payload is the max across ranks (equal
/// in well-formed traces). Returns whether it completed one.
pub(crate) fn complete_collective(
    parts: &mut [&mut SeqState],
    set: &ProgramSet,
    ctx: &RunCtx<'_>,
) -> bool {
    let n = set.num_ranks();
    if n == 0 || parts.iter().map(|s| s.parked.len()).sum::<usize>() != n {
        return false;
    }
    let mut bytes = 0usize;
    let mut entry = SimTime::ZERO;
    for s in parts.iter() {
        for &x in &s.parked {
            let lx = x - s.lo;
            if let SharedOp::AllReduce { bytes: b } = set.ops(x)[s.pc[lx] as usize] {
                bytes = bytes.max(b);
            }
            entry = entry.max(s.park_clock[lx]);
        }
    }
    let completion = entry + collective_cost(ctx.machine, bytes, n);
    if let Some(rec) = ctx.rec {
        // One edge per collective: the smallest rank that arrived last set
        // the entry time (iterate ranks, not `parked`, so every engine
        // resolves ties alike).
        let entry_rank = parts
            .iter()
            .flat_map(|s| (s.lo..).zip(&s.park_clock))
            .find(|&(_, &c)| c == entry)
            .map_or(0, |(x, _)| x as u32);
        rec.sim_edge(EdgeRecord {
            pid: ctx.pid,
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
    for s in parts.iter_mut() {
        let s = &mut **s;
        for &x in &s.parked {
            let lx = x - s.lo;
            let waited = completion.saturating_sub(s.park_clock[lx]);
            if let Some(rec) = ctx.rec {
                let name = match set.ops(x)[s.pc[lx] as usize] {
                    SharedOp::AllReduce { .. } => "allreduce",
                    _ => "barrier",
                };
                if waited > SimTime::ZERO {
                    rec.sim_span(
                        ctx.pid,
                        x as u32,
                        name,
                        Cat::Collective,
                        s.park_clock[lx].picos(),
                        waited.picos(),
                        vec![("bytes", bytes.into())],
                    );
                }
            }
            s.stats[lx].collective += waited;
            s.clock[lx] = completion;
            s.status[lx] = St::Ready;
            s.pc[lx] += 1;
        }
        s.parked.clear();
        // Everyone is Ready again; requeue all.
        s.ready.extend(s.lo..s.lo + s.clock.len());
    }
    true
}

/// A whole-mesh sequential run to completion.
pub(crate) fn run_sequential(
    set: &ProgramSet,
    channels: &Channels,
    ctx: &RunCtx<'_>,
) -> SimResult<(RunReport, MemProbe)> {
    let mut state = SeqState::new(ctx.machine, 0..set.num_ranks(), 0..channels.count);
    state.run(set, channels, ctx, None);
    let probe = state.probe(channels);
    finalize(vec![state], ctx, true).map(|report| (report, probe))
}

/// Deadlock detection and report assembly over the states that cover
/// ranks `0..n` in order — one for a sequential run, one per partition
/// for a parallel one.
pub(crate) fn finalize(
    parts: Vec<SeqState>,
    ctx: &RunCtx<'_>,
    check_spans: bool,
) -> SimResult<RunReport> {
    if parts.iter().any(|s| s.finished != s.clock.len()) {
        let mut blocked = Vec::new();
        let mut parked = Vec::new();
        for s in &parts {
            for (idx, status) in (s.lo..).zip(&s.status) {
                match *status {
                    St::BlockedRecv { from, tag } => blocked.push((idx, from as usize, tag)),
                    St::BlockedSend { to, tag } => blocked.push((idx, to as usize, tag)),
                    St::Parked => parked.push(idx),
                    _ => {}
                }
            }
        }
        return Err(SimError::Deadlock { blocked, parked });
    }
    let report = RunReport { ranks: parts.into_iter().flat_map(|s| s.stats).collect() };
    if check_spans {
        if let Some(rec) = ctx.rec {
            debug_check_span_totals(rec, ctx.pid, &report, &ctx.span_baseline);
        }
    }
    Ok(report)
}

/// A sequential run paused at an activation boundary: the complete
/// scheduler state plus everything needed to resume it. Obtained from
/// [`Engine::run_paused`].
///
/// * [`Paused::resume`] continues on the original machine and is
///   bit-identical to an uninterrupted [`Engine::run`] (golden-protected).
/// * [`Paused::snapshot`] clones the state, so one shared prefix can be
///   forked into many what-if suffixes.
/// * [`Paused::resume_with`] swaps the machine at the pause point —
///   compute rates, network parameters, rendezvous threshold and SMP
///   width take effect from here on, while clocks, queues and
///   noise-stream positions carry over.
#[derive(Clone)]
pub struct Paused<'m> {
    machine: &'m MachineSpec,
    set: ProgramSet,
    recorder: Option<&'m Recorder>,
    trace_pid: u32,
    state: SeqState,
}

/// Human-readable noise class of a machine (`"silent"` / `"noisy"`),
/// used by [`SimError::SnapshotIncompatible`].
fn noise_class(machine: &MachineSpec) -> &'static str {
    if machine.noise.is_none() {
        "silent"
    } else {
        "noisy"
    }
}

/// Static snapshot-compatibility probe: would a run paused on `base` be
/// resumable on `resume`? The only class constraint is the noise class —
/// a snapshot carries per-rank noise-stream positions (or none), and the
/// replacement machine must keep that class. Campaign planners use this
/// to decide prefix sharing *before* paying for a paused run; the
/// returned error carries `channel: None` because no paused traffic
/// exists to inspect yet.
pub fn snapshot_compatible(base: &MachineSpec, resume: &MachineSpec) -> SimResult<()> {
    if base.noise.is_none() != resume.noise.is_none() {
        return Err(SimError::SnapshotIncompatible {
            snapshot_noise: noise_class(base),
            resume_noise: noise_class(resume),
            channel: None,
        });
    }
    Ok(())
}

impl<'m> Paused<'m> {
    /// Fork the paused state. Each fork resumes independently.
    pub fn snapshot(&self) -> Self {
        self.clone()
    }

    /// Non-consuming compatibility probe for [`Paused::resume_with`]:
    /// checks that `machine` keeps the snapshot's noise class. On
    /// mismatch the error names the offending noise-class pair and the
    /// lowest channel id with traffic caught mid-flight at the pause
    /// point, so a planner's fallback decision is debuggable.
    pub fn compatible_with(&self, machine: &MachineSpec) -> SimResult<()> {
        let was_silent = matches!(self.state.noise, NoiseBank::Silent);
        if was_silent != machine.noise.is_none() {
            return Err(SimError::SnapshotIncompatible {
                snapshot_noise: if was_silent { "silent" } else { "noisy" },
                resume_noise: noise_class(machine),
                channel: self.state.queues.first_busy(),
            });
        }
        Ok(())
    }

    /// Rank activations processed before the pause (the pause-point
    /// unit; also the run total when the pause target overshot the end).
    pub fn activations(&self) -> u64 {
        self.state.activations
    }

    /// Whether the run already finished before reaching the pause target.
    pub fn is_complete(&self) -> bool {
        self.state.finished == self.state.clock.len()
    }

    /// Resume to completion on the original machine.
    pub fn resume(self) -> SimResult<RunReport> {
        let machine = self.machine;
        self.resume_with(machine)
    }

    /// Resume to completion with `machine` replacing the original from
    /// the pause point onward ("the hardware changes at T"). The
    /// replacement must keep the same noise class — silent stays silent,
    /// noisy stays noisy — because the carried noise-stream positions are
    /// part of the snapshot; violating that returns
    /// [`SimError::SnapshotIncompatible`]. Resuming with a machine equal
    /// to the original is bit-identical to an uninterrupted run.
    pub fn resume_with(self, machine: &MachineSpec) -> SimResult<RunReport> {
        self.compatible_with(machine)?;
        let ctx = RunCtx::new(machine, &self.set, self.recorder, self.trace_pid);
        let channels = build_channels(&self.set);
        let mut state = self.state;
        state.run(&self.set, &channels, &ctx, None);
        // Span totals are only checked on uninterrupted runs: several
        // forks may share one recorder, so per-run totals need not close.
        finalize(vec![state], &ctx, false)
    }
}

/// Cost of a binomial-tree all-reduce: reduce + broadcast, each
/// `ceil(log2 n)` rounds of one message.
pub(crate) fn collective_cost(machine: &MachineSpec, bytes: usize, n: usize) -> SimTime {
    if n <= 1 {
        return SimTime::ZERO;
    }
    let rounds = usize::BITS - (n - 1).leading_zeros(); // ceil(log2 n)
    let net = &machine.network;
    let per_msg = net.sender_overhead(bytes) + net.wire_time(bytes) + net.receiver_overhead(bytes);
    let mut total = SimTime::ZERO;
    for _ in 0..2 * rounds {
        total += per_msg;
    }
    total
}

/// Per-track sim-span totals, as [`Recorder::sim_totals`] returns them.
pub(crate) type SpanTotals = BTreeMap<(u32, u32, Cat), u64>;

/// The recorder's span totals before a run starts, so
/// [`debug_check_span_totals`] counts only that run's spans: a shared
/// recorder may already hold earlier runs on the same pid. Empty, and
/// free, in release builds.
pub(crate) fn debug_span_baseline(rec: Option<&Recorder>) -> SpanTotals {
    match rec {
        Some(rec) if cfg!(debug_assertions) => rec.sim_totals(),
        _ => SpanTotals::new(),
    }
}

/// Debug cross-check fed by the recorder: the span stream a run added on
/// top of `baseline` must sum back to the per-rank statistics *exactly* —
/// compute spans to `stats.compute`, comm spans to `send_overhead +
/// send_wait + recv_overhead`, idle spans to `recv_wait`, collective
/// spans to `collective`. A drift here means an activity interval was
/// dropped or double-charged.
pub(crate) fn debug_check_span_totals(
    rec: &Recorder,
    pid: u32,
    report: &RunReport,
    baseline: &SpanTotals,
) {
    if !cfg!(debug_assertions) {
        return;
    }
    let totals = rec.sim_totals();
    let sum = |t: &SpanTotals, key| t.get(&key).copied().unwrap_or(0);
    let get = |tid: u32, cat: Cat| sum(&totals, (pid, tid, cat)) - sum(baseline, (pid, tid, cat));
    for (r, stats) in report.ranks.iter().enumerate() {
        let tid = r as u32;
        debug_assert_eq!(get(tid, Cat::Compute), stats.compute.picos(), "rank {r}: compute spans");
        debug_assert_eq!(
            get(tid, Cat::Comm),
            (stats.send_overhead + stats.send_wait + stats.recv_overhead).picos(),
            "rank {r}: comm spans"
        );
        debug_assert_eq!(get(tid, Cat::Idle), stats.recv_wait.picos(), "rank {r}: idle spans");
        debug_assert_eq!(
            get(tid, Cat::Collective),
            stats.collective.picos(),
            "rank {r}: collective spans"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;
    use crate::noise::NoiseModel;
    use crate::program::Op;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn ideal(mflops: f64) -> MachineSpec {
        MachineSpec::ideal(mflops)
    }

    fn prog(ops: &[Op]) -> Program {
        let mut p = Program::new();
        for &op in ops {
            p.push(op);
        }
        p
    }

    #[test]
    fn empty_run() {
        let m = ideal(100.0);
        let report = Engine::new(&m, vec![]).run().unwrap();
        assert_eq!(report.makespan(), 0.0);
    }

    #[test]
    fn pure_compute_time() {
        let m = ideal(200.0);
        let p = prog(&[Op::Compute { flops: 4e8, working_set: 0 }]);
        let report = Engine::new(&m, vec![p]).run().unwrap();
        assert!((report.makespan() - 2.0).abs() < 1e-9);
        assert!((report.ranks[0].compute.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn message_arrival_gates_receiver() {
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 100.0, 2.0, 16384.0);
        // Rank 0 computes 1s then sends; rank 1 receives immediately.
        let p0 = prog(&[
            Op::Compute { flops: 1e8, working_set: 0 },
            Op::Send { to: 1, bytes: 1000, tag: 1 },
        ]);
        let p1 = prog(&[Op::Recv { from: 0, tag: 1 }]);
        let report = Engine::new(&m, vec![p0, p1]).run().unwrap();
        // Receiver finish = 1s + send overhead + wire time + recv overhead.
        let wire = m.network.wire_time(1000).as_secs();
        let so = m.network.sender_overhead(1000).as_secs();
        let ro = m.network.receiver_overhead(1000).as_secs();
        let expect = 1.0 + so + wire + ro;
        assert!(
            (report.ranks[1].finish.as_secs() - expect).abs() < 1e-9,
            "got {} want {expect}",
            report.ranks[1].finish.as_secs()
        );
        // The receiver's wait time is the span up to arrival.
        assert!((report.ranks[1].recv_wait.as_secs() - (1.0 + so + wire)).abs() < 1e-9);
    }

    #[test]
    fn receive_after_arrival_costs_no_wait() {
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(5.0, 100.0, 1.0, 16384.0);
        // Rank 0 sends immediately; rank 1 computes 1s first, then receives.
        let p0 = prog(&[Op::Send { to: 1, bytes: 100, tag: 1 }]);
        let p1 = prog(&[Op::Compute { flops: 1e8, working_set: 0 }, Op::Recv { from: 0, tag: 1 }]);
        let report = Engine::new(&m, vec![p0, p1]).run().unwrap();
        assert_eq!(report.ranks[1].recv_wait, SimTime::ZERO);
        let ro = m.network.receiver_overhead(100).as_secs();
        assert!((report.ranks[1].finish.as_secs() - (1.0 + ro)).abs() < 1e-9);
    }

    #[test]
    fn fifo_matching_non_overtaking() {
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 250.0, 1.0, 16384.0);
        let p0 =
            prog(&[Op::Send { to: 1, bytes: 100, tag: 1 }, Op::Send { to: 1, bytes: 200, tag: 1 }]);
        let p1 = prog(&[Op::Recv { from: 0, tag: 1 }, Op::Recv { from: 0, tag: 1 }]);
        let report = Engine::new(&m, vec![p0, p1]).run().unwrap();
        assert_eq!(report.ranks[0].messages_sent, 2);
        assert_eq!(report.ranks[0].bytes_sent, 300);
    }

    #[test]
    fn tag_scan_matches_out_of_order_receives() {
        // Two tags interleaved on one edge: the receiver posts them in the
        // opposite order. The per-edge queue must match by tag, preserving
        // within-tag FIFO.
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 250.0, 1.0, 16384.0);
        let p0 = prog(&[
            Op::Send { to: 1, bytes: 100, tag: 1 },
            Op::Send { to: 1, bytes: 200, tag: 2 },
            Op::Send { to: 1, bytes: 300, tag: 1 },
        ]);
        let p1 = prog(&[
            Op::Recv { from: 0, tag: 2 },
            Op::Recv { from: 0, tag: 1 },
            Op::Recv { from: 0, tag: 1 },
        ]);
        let report = Engine::new(&m, vec![p0, p1]).run().unwrap();
        assert_eq!(report.ranks[1].messages_sent, 0);
        assert_eq!(report.ranks[0].bytes_sent, 600);
        for r in &report.ranks {
            assert_eq!(r.accounted(), r.finish);
        }
    }

    #[test]
    fn pipeline_fill_matches_closed_form() {
        // A P-stage linear pipeline of B blocks: makespan should be
        // (P - 1 + B) * t_block with a free network and no noise.
        let m = ideal(100.0);
        let p_ranks = 5usize;
        let blocks = 8usize;
        let flops_per_block = 1e7; // 0.1 s each
        let mut programs: Vec<Program> = Vec::new();
        for r in 0..p_ranks {
            let mut p = Program::new();
            for b in 0..blocks {
                if r > 0 {
                    p.push(Op::Recv { from: r - 1, tag: b as u32 });
                }
                p.push(Op::Compute { flops: flops_per_block, working_set: 0 });
                if r + 1 < p_ranks {
                    p.push(Op::Send { to: r + 1, bytes: 8, tag: b as u32 });
                }
            }
            programs.push(p);
        }
        let report = Engine::new(&m, programs).run().unwrap();
        let t_block = flops_per_block / (100.0 * 1e6);
        let expect = (p_ranks - 1 + blocks) as f64 * t_block;
        assert!(
            (report.makespan() - expect).abs() < 1e-9,
            "makespan {} vs closed form {expect}",
            report.makespan()
        );
    }

    #[test]
    fn nic_serialization_delays_back_to_back_sends() {
        let mut m = ideal(100.0);
        // 1 MB/s serialisation, zero overheads/latency.
        m.network = NetworkModel {
            send: crate::network::PiecewiseSegments::linear(0.0, 0.0),
            recv: crate::network::PiecewiseSegments::linear(0.0, 0.0),
            pingpong: crate::network::PiecewiseSegments::linear(0.0, 2.0), // 1 µs/byte one way
            serialization_bw: 1e6,
        };
        let p0 = prog(&[
            Op::Send { to: 1, bytes: 1_000_000, tag: 1 }, // occupies NIC 1 s
            Op::Send { to: 1, bytes: 1_000_000, tag: 2 },
        ]);
        let p1 = prog(&[Op::Recv { from: 0, tag: 2 }, Op::Recv { from: 0, tag: 1 }]);
        let report = Engine::new(&m, vec![p0, p1]).run().unwrap();
        // Second message cannot start its wire phase before t=1s; its wire
        // time is 1s, so arrival at 2s.
        assert!((report.ranks[1].finish.as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn barrier_synchronises_clocks() {
        let m = ideal(100.0);
        let p_fast = prog(&[Op::Barrier, Op::Compute { flops: 1e7, working_set: 0 }]);
        let p_slow = prog(&[Op::Compute { flops: 1e8, working_set: 0 }, Op::Barrier]);
        let report = Engine::new(&m, vec![p_fast, p_slow]).run().unwrap();
        // Fast rank waits 1s at the barrier, then computes 0.1s.
        assert!((report.ranks[0].finish.as_secs() - 1.1).abs() < 1e-9);
        assert!((report.ranks[0].collective.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn allreduce_cost_scales_logarithmically() {
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 250.0, 1.0, 16384.0);
        let run = |n: usize| {
            let programs: Vec<Program> =
                (0..n).map(|_| prog(&[Op::AllReduce { bytes: 8 }])).collect();
            Engine::new(&m, programs).run().unwrap().makespan()
        };
        let t4 = run(4);
        let t16 = run(16);
        let t64 = run(64);
        assert!(t16 > t4 && t64 > t16);
        // log2: equal increments per 4x size.
        assert!(((t16 - t4) - (t64 - t16)).abs() < 1e-9);
    }

    #[test]
    fn deadlock_detected_cyclic_recv() {
        let m = ideal(100.0);
        let p0 = prog(&[Op::Recv { from: 1, tag: 0 }, Op::Send { to: 1, bytes: 8, tag: 0 }]);
        let p1 = prog(&[Op::Recv { from: 0, tag: 0 }, Op::Send { to: 0, bytes: 8, tag: 0 }]);
        let err = Engine::new(&m, vec![p0, p1]).run().unwrap_err();
        match err {
            SimError::Deadlock { blocked, .. } => {
                assert_eq!(blocked.len(), 2);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn static_validation_rejects_imbalance() {
        let m = ideal(100.0);
        let p0 = prog(&[Op::Send { to: 1, bytes: 8, tag: 0 }]);
        let p1 = prog(&[]);
        let err = Engine::new(&m, vec![p0, p1]).run().unwrap_err();
        assert!(matches!(err, SimError::InvalidPrograms { .. }));
    }

    #[test]
    fn noise_changes_with_seed_but_is_reproducible() {
        let mut m = ideal(100.0);
        m.noise = NoiseModel::commodity();
        let mk = || {
            vec![
                prog(&[Op::Compute { flops: 1e8, working_set: 0 }]),
                prog(&[Op::Compute { flops: 1e8, working_set: 0 }]),
            ]
        };
        let a = Engine::new(&m, mk()).run().unwrap().makespan();
        let b = Engine::new(&m, mk()).run().unwrap().makespan();
        assert_eq!(a, b, "same seed must reproduce exactly");
        let m2 = m.clone().with_seed(99);
        let c = Engine::new(&m2, mk()).run().unwrap().makespan();
        assert_ne!(a, c, "different seed should perturb");
        // Noise is small: within 5% (per-block + per-run bias).
        assert!((a - 1.0).abs() < 0.05 && (c - 1.0).abs() < 0.05);
    }

    #[test]
    fn rendezvous_sender_blocks_until_receive_posted() {
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 100.0, 2.0, 1e9);
        m.rendezvous_bytes = Some(1024);
        // Rank 0 sends a large message immediately; rank 1 computes 1 s
        // before posting its receive. The sender must stall ~1 s.
        let p0 = prog(&[Op::Send { to: 1, bytes: 100_000, tag: 1 }]);
        let p1 = prog(&[Op::Compute { flops: 1e8, working_set: 0 }, Op::Recv { from: 0, tag: 1 }]);
        let report = Engine::new(&m, vec![p0, p1]).run().unwrap();
        let ser = m.network.serialization_time(100_000).as_secs();
        let so = m.network.sender_overhead(100_000).as_secs();
        // Sender: overhead, then blocked until t=1s, then serialisation.
        let sender_finish = report.ranks[0].finish.as_secs();
        assert!(
            (sender_finish - (1.0 + ser)).abs() < 1e-9,
            "sender finish {sender_finish} vs {}",
            1.0 + ser
        );
        assert!(report.ranks[0].send_wait.as_secs() > 0.9);
        // Receiver: wire + receive overhead after the handshake.
        let wire = m.network.wire_time(100_000).as_secs();
        let ro = m.network.receiver_overhead(100_000).as_secs();
        let recv_finish = report.ranks[1].finish.as_secs();
        assert!(
            (recv_finish - (1.0 + wire + ro)).abs() < 1e-9,
            "receiver finish {recv_finish} vs {}",
            1.0 + wire + ro
        );
        let _ = so;
    }

    #[test]
    fn rendezvous_with_waiting_receiver_is_prompt() {
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 100.0, 2.0, 1e9);
        m.rendezvous_bytes = Some(1024);
        // Receiver posts first; the sender's handshake completes at once.
        let p0 = prog(&[
            Op::Compute { flops: 1e8, working_set: 0 },
            Op::Send { to: 1, bytes: 100_000, tag: 1 },
        ]);
        let p1 = prog(&[Op::Recv { from: 0, tag: 1 }]);
        let report = Engine::new(&m, vec![p0, p1]).run().unwrap();
        let so = m.network.sender_overhead(100_000).as_secs();
        let wire = m.network.wire_time(100_000).as_secs();
        let ro = m.network.receiver_overhead(100_000).as_secs();
        let expect = 1.0 + so + wire + ro;
        assert!(
            (report.ranks[1].finish.as_secs() - expect).abs() < 1e-9,
            "{} vs {expect}",
            report.ranks[1].finish.as_secs()
        );
    }

    #[test]
    fn small_messages_stay_eager_under_rendezvous() {
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 100.0, 2.0, 1e9);
        m.rendezvous_bytes = Some(1 << 20);
        // Below the threshold the sender never blocks.
        let p0 = prog(&[Op::Send { to: 1, bytes: 128, tag: 1 }]);
        let p1 = prog(&[Op::Compute { flops: 1e8, working_set: 0 }, Op::Recv { from: 0, tag: 1 }]);
        let report = Engine::new(&m, vec![p0, p1]).run().unwrap();
        assert_eq!(report.ranks[0].send_wait, SimTime::ZERO);
        let so = m.network.sender_overhead(128).as_secs();
        assert!((report.ranks[0].finish.as_secs() - so).abs() < 1e-12);
    }

    #[test]
    fn rendezvous_steepens_pipeline_fill() {
        // The back-pressure of synchronous sends lengthens a pipeline's
        // fill: each hop serialises the handshake into the critical path.
        let mk_programs = || {
            let p_ranks = 6usize;
            let blocks = 4usize;
            let mut programs = Vec::new();
            for r in 0..p_ranks {
                let mut p = Program::new();
                for b in 0..blocks {
                    if r > 0 {
                        p.push(Op::Recv { from: r - 1, tag: b as u32 });
                    }
                    p.push(Op::Compute { flops: 1e6, working_set: 0 });
                    if r + 1 < p_ranks {
                        p.push(Op::Send { to: r + 1, bytes: 64_000, tag: b as u32 });
                    }
                }
                programs.push(p);
            }
            programs
        };
        let mut eager = ideal(100.0);
        eager.network = NetworkModel::from_link(10.0, 100.0, 2.0, 1e9);
        let rendezvous = eager.clone().with_rendezvous(16_384);
        let t_eager = Engine::new(&eager, mk_programs()).run().unwrap().makespan();
        let t_rendezvous = Engine::new(&rendezvous, mk_programs()).run().unwrap().makespan();
        assert!(t_rendezvous > t_eager, "rendezvous {t_rendezvous} should exceed eager {t_eager}");
    }

    #[test]
    fn rendezvous_accounting_closes() {
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 250.0, 2.0, 1e9);
        m.rendezvous_bytes = Some(1024);
        let p0 = prog(&[
            Op::Compute { flops: 2e7, working_set: 0 },
            Op::Send { to: 1, bytes: 50_000, tag: 1 },
            Op::Recv { from: 1, tag: 2 },
        ]);
        let p1 = prog(&[
            Op::Recv { from: 0, tag: 1 },
            Op::Compute { flops: 1e7, working_set: 0 },
            Op::Send { to: 0, bytes: 50_000, tag: 2 },
        ]);
        let report = Engine::new(&m, vec![p0, p1]).run().unwrap();
        for (i, r) in report.ranks.iter().enumerate() {
            let diff = (r.accounted().as_secs() - r.finish.as_secs()).abs();
            assert!(diff < 1e-9, "rank {i}: accounted {} vs finish {}", r.accounted(), r.finish);
        }
    }

    #[test]
    fn rendezvous_cycle_deadlocks_detected() {
        // Two synchronous sends facing each other: classic MPI deadlock.
        let mut m = ideal(100.0);
        m.rendezvous_bytes = Some(8);
        let p0 = prog(&[Op::Send { to: 1, bytes: 100, tag: 0 }, Op::Recv { from: 1, tag: 0 }]);
        let p1 = prog(&[Op::Send { to: 0, bytes: 100, tag: 0 }, Op::Recv { from: 0, tag: 0 }]);
        let err = Engine::new(&m, vec![p0, p1]).run().unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err:?}");
    }

    #[test]
    fn recorded_spans_sum_to_stats_exactly() {
        // Pipeline with noise, rendezvous and a collective: every stats
        // category is exercised and must be reproduced by the span stream.
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 250.0, 2.0, 16384.0);
        m.noise = NoiseModel::commodity();
        m.rendezvous_bytes = Some(4096);
        let ranks_n = 4usize;
        let mut programs = Vec::new();
        for r in 0..ranks_n {
            let mut p = Program::new();
            for b in 0..3u32 {
                if r > 0 {
                    p.push(Op::Recv { from: r - 1, tag: b });
                }
                p.push(Op::Compute { flops: 1e7, working_set: 4096 });
                if r + 1 < ranks_n {
                    p.push(Op::Send { to: r + 1, bytes: 16_000, tag: b });
                }
            }
            p.push(Op::AllReduce { bytes: 8 });
            programs.push(p);
        }
        let rec = Recorder::enabled();
        let report = Engine::new(&m, programs).with_recorder(&rec, 7).run().unwrap();
        let totals = rec.sim_totals();
        for (r, stats) in report.ranks.iter().enumerate() {
            let get = |cat: Cat| totals.get(&(7, r as u32, cat)).copied().unwrap_or(0);
            assert_eq!(get(Cat::Compute), stats.compute.picos(), "rank {r} compute");
            assert_eq!(
                get(Cat::Comm),
                (stats.send_overhead + stats.send_wait + stats.recv_overhead).picos(),
                "rank {r} comm"
            );
            assert_eq!(get(Cat::Idle), stats.recv_wait.picos(), "rank {r} idle");
            assert_eq!(get(Cat::Collective), stats.collective.picos(), "rank {r} collective");
        }
        assert!(rec.sim_spans().iter().any(|s| s.name == "send_wait"), "rendezvous stalls traced");
        assert!(rec.sim_spans().iter().any(|s| s.name == "allreduce"), "collectives traced");
    }

    #[test]
    fn tracing_does_not_change_results() {
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 250.0, 2.0, 16384.0);
        m.noise = NoiseModel::commodity();
        let mk = || {
            vec![
                prog(&[
                    Op::Compute { flops: 5e7, working_set: 1024 },
                    Op::Send { to: 1, bytes: 4096, tag: 1 },
                    Op::Barrier,
                ]),
                prog(&[Op::Recv { from: 0, tag: 1 }, Op::Barrier]),
            ]
        };
        let plain = Engine::new(&m, mk()).run().unwrap();
        let rec = Recorder::enabled();
        let traced = Engine::new(&m, mk()).with_recorder(&rec, 0).run().unwrap();
        assert_eq!(plain, traced, "tracing must be invisible to the simulation");
        let disabled = Recorder::disabled();
        let off = Engine::new(&m, mk()).with_recorder(&disabled, 0).run().unwrap();
        assert_eq!(plain, off);
        assert!(disabled.sim_spans().is_empty());
    }

    #[test]
    fn per_rank_spans_are_ordered_and_non_overlapping() {
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 250.0, 2.0, 16384.0);
        let rec = Recorder::enabled();
        let p0 = prog(&[
            Op::Compute { flops: 5e7, working_set: 0 },
            Op::Send { to: 1, bytes: 4096, tag: 1 },
            Op::Barrier,
        ]);
        let p1 = prog(&[Op::Recv { from: 0, tag: 1 }, Op::Barrier]);
        Engine::new(&m, vec![p0, p1]).with_recorder(&rec, 0).run().unwrap();
        let spans = rec.sim_spans();
        for tid in 0..2u32 {
            let track: Vec<_> = spans.iter().filter(|s| s.tid == tid).collect();
            assert!(!track.is_empty());
            for w in track.windows(2) {
                assert!(w[0].end() <= w[1].start, "rank {tid}: overlapping spans");
            }
        }
    }

    #[test]
    fn time_accounting_closes() {
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 250.0, 2.0, 16384.0);
        let p0 = prog(&[
            Op::Compute { flops: 5e7, working_set: 0 },
            Op::Send { to: 1, bytes: 4096, tag: 1 },
            Op::Barrier,
        ]);
        let p1 = prog(&[Op::Recv { from: 0, tag: 1 }, Op::Barrier]);
        let report = Engine::new(&m, vec![p0, p1]).run().unwrap();
        for (i, r) in report.ranks.iter().enumerate() {
            let diff = (r.accounted().as_secs() - r.finish.as_secs()).abs();
            assert!(diff < 1e-9, "rank {i}: accounted {} vs finish {}", r.accounted(), r.finish);
        }
    }

    #[test]
    fn from_set_equals_new() {
        let mut m = ideal(100.0);
        m.network = NetworkModel::from_link(10.0, 250.0, 2.0, 16384.0);
        m.noise = NoiseModel::commodity();
        m.rendezvous_bytes = Some(4096);
        let programs = vec![
            prog(&[
                Op::Compute { flops: 5e7, working_set: 1024 },
                Op::Send { to: 1, bytes: 16_000, tag: 1 },
                Op::Barrier,
            ]),
            prog(&[Op::Recv { from: 0, tag: 1 }, Op::Barrier]),
        ];
        let set = ProgramSet::from_programs(&programs);
        let a = Engine::new(&m, programs).run().unwrap();
        let b = Engine::from_set(&m, set).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn probe_reports_topology_fixed_channels() {
        let m = ideal(100.0);
        let mk = |blocks: usize| {
            let ranks = 3usize;
            let mut programs = Vec::new();
            for r in 0..ranks {
                let mut p = Program::new();
                for b in 0..blocks {
                    if r > 0 {
                        p.push(Op::Recv { from: r - 1, tag: b as u32 });
                    }
                    p.push(Op::Compute { flops: 1e6, working_set: 0 });
                    if r + 1 < ranks {
                        p.push(Op::Send { to: r + 1, bytes: 8, tag: b as u32 });
                    }
                }
                programs.push(p);
            }
            programs
        };
        let (_, short) = Engine::new(&m, mk(2)).run_probed().unwrap();
        let (_, long) = Engine::new(&m, mk(64)).run_probed().unwrap();
        // Channel count is set by the topology, not the run length.
        assert_eq!(short.channels, long.channels);
        assert!(short.channels > 0);
        assert!(long.peak_queued >= 1);
    }

    /// The items of `list`, front to back; checks that `tail` is the
    /// last node walked.
    fn items<T: Copy>(pool: &NodePool<T>, list: Fifo) -> Vec<T> {
        let mut out = Vec::new();
        let (mut prev, mut cur) = (NIL, list.head);
        while cur != NIL {
            out.push(pool.nodes[cur as usize].item);
            (prev, cur) = (cur, pool.nodes[cur as usize].next);
        }
        assert_eq!(list.tail, prev, "tail must be the last node");
        out
    }

    /// `(tag, id)` items on one list, for the pool tests.
    fn filled(tags: &[u32]) -> (NodePool<(u32, usize)>, Fifo) {
        let mut pool = NodePool::new();
        let mut list = Fifo::EMPTY;
        for (id, &tag) in tags.iter().enumerate() {
            pool.push_back(&mut list, (tag, id));
        }
        (pool, list)
    }

    #[test]
    fn pool_takes_first_tag_match_from_head_middle_and_tail() {
        let (mut pool, mut list) = filled(&[1, 2, 3, 2, 4]);
        // Head.
        assert_eq!(pool.take_first(&mut list, |e| e.0 == 1), Some((1, 0)));
        assert_eq!(items(&pool, list), vec![(2, 1), (3, 2), (2, 3), (4, 4)]);
        // Middle: the first of two equal tags leaves first.
        assert_eq!(pool.take_first(&mut list, |e| e.0 == 2), Some((2, 1)));
        assert_eq!(pool.take_first(&mut list, |e| e.0 == 2), Some((2, 3)));
        assert_eq!(items(&pool, list), vec![(3, 2), (4, 4)]);
        // Tail: a later push must land after the new tail.
        assert_eq!(pool.take_first(&mut list, |e| e.0 == 4), Some((4, 4)));
        pool.push_back(&mut list, (5, 5));
        assert_eq!(items(&pool, list), vec![(3, 2), (5, 5)]);
        assert_eq!(pool.take_first(&mut list, |e| e.0 == 9), None);
        // Draining leaves an empty list that accepts pushes again.
        assert_eq!(pool.take_first(&mut list, |e| e.0 == 3), Some((3, 2)));
        assert_eq!(pool.take_first(&mut list, |e| e.0 == 5), Some((5, 5)));
        assert_eq!(list, Fifo::EMPTY);
        pool.push_back(&mut list, (6, 6));
        assert_eq!(items(&pool, list), vec![(6, 6)]);
    }

    #[test]
    fn pool_reuses_freed_nodes_before_growing() {
        let (mut pool, mut a) = filled(&[1, 2, 3]);
        let mut b = Fifo::EMPTY;
        for tag in [1, 2, 3] {
            pool.take_first(&mut a, |e| e.0 == tag).unwrap();
        }
        // Three live at most so far: three fresh pushes on another list
        // recycle the freed nodes.
        for id in 0..3 {
            pool.push_back(&mut b, (7, id));
        }
        assert_eq!((pool.nodes.len(), pool.peak_live()), (3, 3));
        assert_eq!(items(&pool, b), vec![(7, 0), (7, 1), (7, 2)]);
        assert!(a.is_empty());
        // A fourth live entry grows the pool by doubling.
        pool.push_back(&mut a, (8, 3));
        assert_eq!((pool.nodes.len(), pool.peak_live()), (4, 4));
        assert_eq!(pool.capacity(), 4);
    }

    #[test]
    fn channel_queues_keep_messages_and_parked_sends_apart() {
        let mut q = ChannelQueues::new(3);
        let msg = |tag| Msg { tag, cost: 0, bytes: 8, arrival: SimTime::ZERO };
        let zero = SimTime::ZERO;
        let pend = |tag| Pend { tag, cost: 1, bytes: 9, ready: zero, jitter: zero, nic_busy: zero };
        assert_eq!(q.first_busy(), None);
        q.push_pend(2, pend(5));
        q.push_msg(2, msg(6));
        q.push_msg(1, msg(5));
        assert_eq!(q.first_busy(), Some(1));
        // Each list answers only for its own kind of entry.
        assert!(q.take_msg(2, 5).is_none());
        assert_eq!(q.take_pend(2, 5).map(|p| p.bytes), Some(9));
        assert!(q.take_pend(2, 6).is_none());
        assert_eq!(q.take_msg(2, 6).map(|m| m.tag), Some(6));
        assert_eq!(q.take_msg(1, 5).map(|m| m.tag), Some(5));
        assert_eq!(q.first_busy(), None);
        assert_eq!(q.parked_sends, 1);
        assert_eq!(q.pool.peak_live(), 3);
    }

    /// Operations of the pool property tests: `(push?, channel, tag)`.
    type PoolOps = Vec<(bool, usize, u32)>;

    /// A pool with four channel lists checked against one `VecDeque` per
    /// channel: pushes append, takes remove the first tag match.
    #[derive(Clone)]
    struct Checked {
        pool: NodePool<(u32, usize)>,
        lists: Vec<Fifo>,
        model: Vec<VecDeque<(u32, usize)>>,
        next_id: usize,
        peak: usize,
    }

    impl Checked {
        fn new() -> Self {
            Checked {
                pool: NodePool::new(),
                lists: vec![Fifo::EMPTY; 4],
                model: vec![VecDeque::new(); 4],
                next_id: 0,
                peak: 0,
            }
        }

        fn apply(&mut self, ops: &PoolOps) -> Result<(), TestCaseError> {
            for &(push, chan, tag) in ops {
                if push {
                    let item = (tag, self.next_id);
                    self.next_id += 1;
                    self.pool.push_back(&mut self.lists[chan], item);
                    self.model[chan].push_back(item);
                } else {
                    let got = self.pool.take_first(&mut self.lists[chan], |e| e.0 == tag);
                    let q = &mut self.model[chan];
                    let want = q.iter().position(|e| e.0 == tag).and_then(|i| q.remove(i));
                    prop_assert_eq!(got, want);
                }
                let live: usize = self.model.iter().map(VecDeque::len).sum();
                self.peak = self.peak.max(live);
                prop_assert_eq!(self.pool.peak_live(), self.peak);
                // Freed nodes are reused before the vector grows.
                prop_assert_eq!(self.pool.nodes.len(), self.peak);
                prop_assert!(self.pool.capacity() <= 2 * self.peak);
            }
            for (chan, q) in self.model.iter().enumerate() {
                prop_assert_eq!(items(&self.pool, self.lists[chan]), Vec::from(q.clone()));
            }
            Ok(())
        }
    }

    fn pool_ops() -> impl Strategy<Value = PoolOps> {
        prop::collection::vec((any::<bool>(), 0usize..4, 0u32..3), 0..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn pool_lists_match_a_deque_per_channel(ops in pool_ops()) {
            Checked::new().apply(&ops)?;
        }

        #[test]
        fn cloned_pool_evolves_independently(
            prefix in pool_ops(),
            left in pool_ops(),
            right in pool_ops(),
        ) {
            let mut original = Checked::new();
            original.apply(&prefix)?;
            let mut fork = original.clone();
            original.apply(&left)?;
            fork.apply(&right)?;
            // Replaying the fork's suffix on a fresh copy of the prefix
            // gives the same lists: the original's suffix did not leak.
            let mut replay = Checked::new();
            replay.apply(&prefix)?;
            replay.apply(&right)?;
            for chan in 0..4 {
                prop_assert_eq!(
                    items(&fork.pool, fork.lists[chan]),
                    items(&replay.pool, replay.lists[chan])
                );
            }
        }
    }
}
