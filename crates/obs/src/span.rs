//! The span/event recorder.
//!
//! Two time domains are kept strictly apart:
//!
//! * **sim spans** are keyed on the simulator's virtual clock (integer
//!   picoseconds) and are a pure function of the run — two identical runs
//!   produce byte-identical sim streams, so golden-value and determinism
//!   tests hold with tracing on or off;
//! * **wall spans** carry host wall-clock timestamps (microseconds since
//!   the recorder's epoch) and are for throughput diagnostics only — every
//!   exporter and snapshot can exclude them.
//!
//! The recorder is thread-safe (workers of a sweep record concurrently)
//! and cheap when disabled: every recording call starts with a plain
//! `bool` check and touches no lock.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Activity category of a span. The first four mirror the simulator's
/// [`RankStats`](https://docs.rs) breakdown (compute / communication /
/// collective / idle); the rest label orchestration-level work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cat {
    /// Executing a compute block.
    Compute,
    /// CPU time in messaging calls (send/recv overhead, rendezvous stalls).
    Comm,
    /// Blocked in a collective (wait + tree cost).
    Collective,
    /// Idle, waiting for a message to arrive.
    Idle,
    /// One sweep scenario evaluation.
    Scenario,
    /// A pool task or replication.
    Task,
    /// A coarse program phase (calibration, benchmarking, merge…).
    Phase,
}

impl Cat {
    /// The category string used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Cat::Compute => "compute",
            Cat::Comm => "comm",
            Cat::Collective => "collective",
            Cat::Idle => "idle",
            Cat::Scenario => "scenario",
            Cat::Task => "task",
            Cat::Phase => "phase",
        }
    }
}

/// A span/event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

/// Key/value argument list attached to a span or event.
pub type Args = Vec<(&'static str, ArgValue)>;

/// One completed span on a `(pid, tid)` track.
///
/// For sim spans `start` and `dur` are virtual-time picoseconds; for wall
/// spans they are microseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Track group (a simulated run / row / subsystem).
    pub pid: u32,
    /// Track within the group (a rank / worker).
    pub tid: u32,
    /// Span name (e.g. `compute`, `recv_wait`, a scenario label).
    pub name: Cow<'static, str>,
    /// Activity category.
    pub cat: Cat,
    /// Start time (ps for sim spans, µs for wall spans).
    pub start: u64,
    /// Duration (same unit as `start`).
    pub dur: u64,
    /// Attached arguments.
    pub args: Args,
}

impl SpanRecord {
    /// End time (`start + dur`).
    pub fn end(&self) -> u64 {
        self.start + self.dur
    }
}

/// What kind of causality an [`EdgeRecord`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// A point-to-point message: the receiver's wait ends at `recv`.
    Message,
    /// A collective: every participant resumes at `recv`; `src`/`dst`
    /// name the rank whose late arrival set the entry time.
    Collective,
}

impl EdgeKind {
    /// The kind string used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            EdgeKind::Message => "message",
            EdgeKind::Collective => "collective",
        }
    }
}

/// One message-causality edge in the sim domain: the send that caused a
/// receive, with every gate timestamp in integer picoseconds.
///
/// Like sim spans, edges are a pure function of the run: the sequential
/// and windowed-parallel engines emit identical edge multisets
/// for the same run, so [`Recorder::sim_edges`] is byte-deterministic.
///
/// Timestamp semantics (all ps):
/// * `send_post` — the sender finished its send overhead and posted the
///   transfer (for rendezvous handshakes: when the sender parked);
/// * `recv_post` — the receiver-side clock gating the handshake (0 when
///   the receiver does not gate, e.g. an eager send below the limit);
/// * `wire_start` — the transfer left the sender's NIC:
///   `max(send_post, nic_busy, recv_post)`;
/// * `recv` — arrival at the receiver (`wire_start + wire + jitter`); for
///   collectives, the completion time every participant resumes at;
/// * `resume` — when the sender's buffer was reusable (`send_post` for
///   eager sends, the serialization end for blocking/rendezvous sends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRecord {
    /// Track group the edge belongs to (same pid as the run's spans).
    pub pid: u32,
    /// Message or collective.
    pub kind: EdgeKind,
    /// Receiver-allocated channel id (`u32::MAX` for collectives).
    pub chan: u32,
    /// Sending rank (for collectives: the rank that set the entry time).
    pub src: u32,
    /// Receiving rank (for collectives: same as `src`).
    pub dst: u32,
    /// Message tag (0 for collectives).
    pub tag: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// Sender posted the transfer, ps.
    pub send_post: u64,
    /// Receiver-side gate clock, ps (0 when not gating).
    pub recv_post: u64,
    /// Wire transfer start, ps.
    pub wire_start: u64,
    /// Arrival at the receiver / collective completion, ps.
    pub recv: u64,
    /// Sender resume time, ps.
    pub resume: u64,
}

impl EdgeRecord {
    fn sort_key(&self) -> (u32, u64, u64, u32, u32, u32, u32, EdgeKind, u64, u64, u64, u64) {
        (
            self.pid,
            self.recv,
            self.wire_start,
            self.src,
            self.dst,
            self.chan,
            self.tag,
            self.kind,
            self.bytes,
            self.send_post,
            self.recv_post,
            self.resume,
        )
    }
}

/// One instantaneous event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Track group.
    pub pid: u32,
    /// Track within the group.
    pub tid: u32,
    /// Event name.
    pub name: Cow<'static, str>,
    /// Timestamp (ps for sim events, µs for wall events).
    pub ts: u64,
    /// True when `ts` is virtual time.
    pub sim_time: bool,
    /// Attached arguments.
    pub args: Args,
}

#[derive(Debug, Default)]
struct RecorderState {
    sim_spans: Vec<SpanRecord>,
    sim_edges: Vec<EdgeRecord>,
    wall_spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    process_names: BTreeMap<u32, String>,
    thread_names: BTreeMap<(u32, u32), String>,
}

/// Thread-safe span/event recorder with a cheap disabled path.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    state: Mutex<RecorderState>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    /// A recorder that keeps everything it is given.
    pub fn enabled() -> Recorder {
        Recorder { enabled: true, epoch: Instant::now(), state: Mutex::default() }
    }

    /// A recorder that drops everything without taking a lock.
    pub fn disabled() -> Recorder {
        Recorder { enabled: false, epoch: Instant::now(), state: Mutex::default() }
    }

    /// Whether recording calls store anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn state(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        self.state.lock().expect("recorder poisoned")
    }

    /// Record a completed virtual-time span (`start`/`dur` in picoseconds).
    // Flat positional args keep the simulator's hot path free of builder
    // allocation; every call site names them in order.
    #[allow(clippy::too_many_arguments)]
    pub fn sim_span(
        &self,
        pid: u32,
        tid: u32,
        name: impl Into<Cow<'static, str>>,
        cat: Cat,
        start_ps: u64,
        dur_ps: u64,
        args: Args,
    ) {
        if !self.enabled {
            return;
        }
        self.state().sim_spans.push(SpanRecord {
            pid,
            tid,
            name: name.into(),
            cat,
            start: start_ps,
            dur: dur_ps,
            args,
        });
    }

    /// Record a completed wall-clock span that started at `started`
    /// (an `Instant` taken from the same process).
    pub fn wall_span(
        &self,
        pid: u32,
        tid: u32,
        name: impl Into<Cow<'static, str>>,
        cat: Cat,
        started: Instant,
        args: Args,
    ) {
        if !self.enabled {
            return;
        }
        let start = started.saturating_duration_since(self.epoch).as_micros() as u64;
        let dur = started.elapsed().as_micros() as u64;
        self.state().wall_spans.push(SpanRecord {
            pid,
            tid,
            name: name.into(),
            cat,
            start,
            dur,
            args,
        });
    }

    /// Record a message-causality edge in the sim domain.
    pub fn sim_edge(&self, edge: EdgeRecord) {
        if !self.enabled {
            return;
        }
        self.state().sim_edges.push(edge);
    }

    /// Record an instantaneous virtual-time event (`ts` in picoseconds).
    pub fn sim_event(
        &self,
        pid: u32,
        tid: u32,
        name: impl Into<Cow<'static, str>>,
        ts_ps: u64,
        args: Args,
    ) {
        if !self.enabled {
            return;
        }
        self.state().events.push(EventRecord {
            pid,
            tid,
            name: name.into(),
            ts: ts_ps,
            sim_time: true,
            args,
        });
    }

    /// Label a track group (a Chrome-trace "process").
    pub fn set_process_name(&self, pid: u32, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        self.state().process_names.insert(pid, name.into());
    }

    /// Label one track (a Chrome-trace "thread").
    pub fn set_thread_name(&self, pid: u32, tid: u32, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        self.state().thread_names.insert((pid, tid), name.into());
    }

    /// The sim-domain spans, in deterministic order: sorted by
    /// `(pid, tid, start, end, name)`. Because sim timestamps are a pure
    /// function of the run, this order is identical however the recording
    /// threads interleaved.
    pub fn sim_spans(&self) -> Vec<SpanRecord> {
        self.with_sim_spans(|spans| spans.iter().map(|&s| s.clone()).collect())
    }

    /// Run `f` over the sim-domain spans in [`Recorder::sim_spans`] order,
    /// borrowed under the recorder's lock instead of copied (an exporter
    /// streaming millions of spans needs no second copy of them).
    pub(crate) fn with_sim_spans<R>(&self, f: impl FnOnce(&[&SpanRecord]) -> R) -> R {
        let state = self.state();
        let mut spans: Vec<&SpanRecord> = state.sim_spans.iter().collect();
        spans.sort_by(|a, b| {
            (a.pid, a.tid, a.start, a.end(), &a.name).cmp(&(
                b.pid,
                b.tid,
                b.start,
                b.end(),
                &b.name,
            ))
        });
        f(&spans)
    }

    /// The sim-domain causality edges, in deterministic order (sorted on
    /// the full field tuple). Engines that emit identical edge multisets
    /// therefore produce byte-identical edge streams regardless of how
    /// their threads interleaved.
    pub fn sim_edges(&self) -> Vec<EdgeRecord> {
        let mut edges = self.state().sim_edges.clone();
        edges.sort_by_key(|e| e.sort_key());
        edges
    }

    /// The wall-domain spans, in recording order (not deterministic).
    pub fn wall_spans(&self) -> Vec<SpanRecord> {
        self.state().wall_spans.clone()
    }

    /// The recorded events, sim-domain first, each sorted like the spans.
    pub fn events(&self) -> Vec<EventRecord> {
        let mut evs = self.state().events.clone();
        evs.sort_by(|a, b| {
            (!a.sim_time, a.pid, a.tid, a.ts, &a.name).cmp(&(
                !b.sim_time,
                b.pid,
                b.tid,
                b.ts,
                &b.name,
            ))
        });
        evs
    }

    /// Track-group labels.
    pub fn process_names(&self) -> BTreeMap<u32, String> {
        self.state().process_names.clone()
    }

    /// Track labels.
    pub fn thread_names(&self) -> BTreeMap<(u32, u32), String> {
        self.state().thread_names.clone()
    }

    /// Total recorded sim-span picoseconds per `(pid, tid, cat)`, in
    /// deterministic key order. The simulator's acceptance check: these
    /// totals must reproduce `RankStats` exactly.
    pub fn sim_totals(&self) -> BTreeMap<(u32, u32, Cat), u64> {
        let mut totals = BTreeMap::new();
        for s in self.state().sim_spans.iter() {
            *totals.entry((s.pid, s.tid, s.cat)).or_insert(0) += s.dur;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = Recorder::disabled();
        rec.sim_span(0, 0, "compute", Cat::Compute, 0, 10, vec![]);
        rec.sim_event(0, 0, "tick", 5, vec![]);
        rec.set_process_name(0, "run");
        assert!(!rec.is_enabled());
        assert!(rec.sim_spans().is_empty());
        assert!(rec.events().is_empty());
        assert!(rec.process_names().is_empty());
    }

    #[test]
    fn sim_spans_sort_deterministically() {
        let rec = Recorder::enabled();
        rec.sim_span(0, 1, "b", Cat::Comm, 50, 10, vec![]);
        rec.sim_span(0, 0, "a", Cat::Compute, 100, 10, vec![]);
        rec.sim_span(0, 0, "a", Cat::Compute, 0, 10, vec![]);
        let spans = rec.sim_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].tid, spans[0].start), (0, 0));
        assert_eq!((spans[1].tid, spans[1].start), (0, 100));
        assert_eq!((spans[2].tid, spans[2].start), (1, 50));
    }

    #[test]
    fn totals_accumulate_per_track_and_category() {
        let rec = Recorder::enabled();
        rec.sim_span(0, 0, "compute", Cat::Compute, 0, 10, vec![]);
        rec.sim_span(0, 0, "compute", Cat::Compute, 10, 5, vec![]);
        rec.sim_span(0, 0, "recv_wait", Cat::Idle, 15, 7, vec![]);
        rec.sim_span(0, 1, "compute", Cat::Compute, 0, 3, vec![]);
        let totals = rec.sim_totals();
        assert_eq!(totals[&(0, 0, Cat::Compute)], 15);
        assert_eq!(totals[&(0, 0, Cat::Idle)], 7);
        assert_eq!(totals[&(0, 1, Cat::Compute)], 3);
    }

    #[test]
    fn wall_spans_are_kept_apart_from_sim_spans() {
        let rec = Recorder::enabled();
        let t0 = Instant::now();
        rec.wall_span(9, 0, "scenario", Cat::Scenario, t0, vec![("id", 3usize.into())]);
        rec.sim_span(0, 0, "compute", Cat::Compute, 0, 10, vec![]);
        assert_eq!(rec.sim_spans().len(), 1);
        assert_eq!(rec.wall_spans().len(), 1);
        assert_eq!(rec.wall_spans()[0].cat, Cat::Scenario);
    }
}
