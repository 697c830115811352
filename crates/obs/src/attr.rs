//! Critical-path attribution over the recorded span + edge DAG.
//!
//! The engines record two byte-deterministic sim-domain streams: per-rank
//! spans that tile `[0, finish]` exactly (the span-totals == `RankStats`
//! cross-check) and message-causality edges linking every receive to the
//! send that caused it ([`crate::EdgeRecord`]). Together they form a DAG
//! whose longest path *is* the run's makespan — this module walks it
//! backwards from the last rank to finish and attributes every picosecond
//! on the way to a mechanism:
//!
//! * `compute` — executing a compute block;
//! * `overhead` — CPU time in send/recv calls;
//! * `wire` — Eq.-3 transfer time (serialization + latency + jitter) on
//!   the edge that unblocked the path;
//! * `blocked_send` — the sender stalled on a rendezvous or NIC backlog;
//! * `collective` — blocked in an allreduce/barrier;
//! * `idle` — receive-side waiting not resolved through an edge.
//!
//! The walk is exact by construction: each backward step attributes the
//! interval between the current time and the causal predecessor, so the
//! segment lengths sum to the makespan to the picosecond — enforced as a
//! hard internal gate ([`AttrError::PathMismatch`]), same spirit as the
//! span-totals cross-check. On top of the path the module computes
//! per-rank slack, the top-k critical edges, and a whole-run rollup
//! ([`Rollup`]) of mechanism totals over every rank.

use crate::json::escape;
use crate::span::{Cat, EdgeKind, EdgeRecord, Recorder, SpanRecord};
use std::collections::BTreeMap;

/// Why attribution failed. Every variant indicates a malformed trace
/// (missing edges, spans that do not tile) — never a property of the
/// simulated scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrError {
    /// The recorder holds no sim spans for the requested pid.
    NoSpans,
    /// A rank's spans do not tile: nothing covers `at_ps`.
    Gap {
        /// Rank whose coverage is broken.
        rank: u32,
        /// Uncovered instant, ps.
        at_ps: u64,
    },
    /// A receive wait ends at `at_ps` but no recorded edge arrives there
    /// (the run was traced without edge recording, or an engine bug).
    MissingEdge {
        /// Waiting rank.
        rank: u32,
        /// Arrival instant with no matching edge, ps.
        at_ps: u64,
    },
    /// The walk exceeded its step budget (malformed cyclic input).
    PathOverrun,
    /// The hard internal gate: the path segments did not sum to the
    /// makespan. A bug in the engines' edge emission, never expected.
    PathMismatch {
        /// Sum of attributed segment lengths, ps.
        path_ps: u64,
        /// Span-derived makespan, ps.
        makespan_ps: u64,
    },
}

impl std::fmt::Display for AttrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrError::NoSpans => write!(f, "no sim spans recorded for this pid"),
            AttrError::Gap { rank, at_ps } => {
                write!(f, "span coverage gap on rank {rank} at {at_ps} ps")
            }
            AttrError::MissingEdge { rank, at_ps } => {
                write!(f, "no causality edge arrives at rank {rank} at {at_ps} ps")
            }
            AttrError::PathOverrun => write!(f, "critical-path walk exceeded its step budget"),
            AttrError::PathMismatch { path_ps, makespan_ps } => {
                write!(f, "critical path {path_ps} ps != makespan {makespan_ps} ps")
            }
        }
    }
}

impl std::error::Error for AttrError {}

/// One attributed interval on the critical path (built backwards; stored
/// in forward time order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Rank the interval is attributed to.
    pub rank: u32,
    /// Interval start, ps.
    pub start_ps: u64,
    /// Interval end, ps.
    pub end_ps: u64,
    /// Mechanism label (`compute`, `overhead`, `wire`, `blocked_send`,
    /// `collective`, `idle`).
    pub cat: &'static str,
}

/// Per-mechanism breakdown of the critical path. Field order is the
/// canonical feature order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathBreakdown {
    /// Total path length (== makespan, gated).
    pub total_ps: u64,
    /// Compute blocks on the path.
    pub compute_ps: u64,
    /// Send/recv CPU overhead on the path.
    pub overhead_ps: u64,
    /// Wire transfer time on the path.
    pub wire_ps: u64,
    /// Sender-side stalls (rendezvous / NIC backlog) on the path.
    pub blocked_send_ps: u64,
    /// Collective time on the path.
    pub collective_ps: u64,
    /// Receive-side idle on the path not resolved through an edge.
    pub idle_ps: u64,
    /// Number of stored (non-empty) segments.
    pub segments: u64,
    /// Number of causality-edge traversals (rank hops).
    pub hops: u64,
}

impl PathBreakdown {
    fn add(&mut self, cat: &'static str, ps: u64) {
        self.total_ps += ps;
        match cat {
            "compute" => self.compute_ps += ps,
            "overhead" => self.overhead_ps += ps,
            "wire" => self.wire_ps += ps,
            "blocked_send" => self.blocked_send_ps += ps,
            "collective" => self.collective_ps += ps,
            _ => self.idle_ps += ps,
        }
    }

    /// `(name, picoseconds)` pairs in canonical order.
    pub fn features(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("path.total_ps", self.total_ps),
            ("path.compute_ps", self.compute_ps),
            ("path.overhead_ps", self.overhead_ps),
            ("path.wire_ps", self.wire_ps),
            ("path.blocked_send_ps", self.blocked_send_ps),
            ("path.collective_ps", self.collective_ps),
            ("path.idle_ps", self.idle_ps),
            ("path.segments", self.segments),
            ("path.hops", self.hops),
        ]
    }
}

/// Whole-run mechanism totals summed over every rank (not just the
/// path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rollup {
    /// Span-derived makespan (max rank finish), ps.
    pub makespan_ps: u64,
    /// Compute block time.
    pub compute_ps: u64,
    /// Send-call CPU overhead.
    pub send_overhead_ps: u64,
    /// Recv-call CPU overhead.
    pub recv_overhead_ps: u64,
    /// Sender-side blocking (rendezvous stalls, NIC backlog).
    pub blocked_send_ps: u64,
    /// Receive-side idle before the rank's first compute block (pipeline
    /// fill).
    pub fill_ps: u64,
    /// Receive-side idle between the rank's first and last compute
    /// blocks (blocking idle).
    pub blocking_idle_ps: u64,
    /// Receive-side idle after the rank's last compute block (pipeline
    /// drain).
    pub drain_ps: u64,
    /// Collective time.
    pub collective_ps: u64,
    /// Total wire occupancy over all message edges (`recv - wire_start`).
    pub wire_ps: u64,
    /// Number of message edges.
    pub messages: u64,
    /// Message edges that blocked their sender (`resume > send_post`).
    pub rendezvous: u64,
}

impl Rollup {
    /// `(name, picoseconds-or-count)` pairs in canonical order.
    pub fn features(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("rollup.makespan_ps", self.makespan_ps),
            ("rollup.compute_ps", self.compute_ps),
            ("rollup.send_overhead_ps", self.send_overhead_ps),
            ("rollup.recv_overhead_ps", self.recv_overhead_ps),
            ("rollup.blocked_send_ps", self.blocked_send_ps),
            ("rollup.fill_ps", self.fill_ps),
            ("rollup.blocking_idle_ps", self.blocking_idle_ps),
            ("rollup.drain_ps", self.drain_ps),
            ("rollup.collective_ps", self.collective_ps),
            ("rollup.wire_ps", self.wire_ps),
            ("rollup.messages", self.messages),
            ("rollup.rendezvous", self.rendezvous),
        ]
    }
}

/// One rank's attribution summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankAttr {
    /// Rank id (recorder tid).
    pub rank: u32,
    /// Last span end, ps.
    pub finish_ps: u64,
    /// `makespan - finish`, ps.
    pub slack_ps: u64,
    /// Picoseconds of the critical path attributed to this rank.
    pub on_path_ps: u64,
}

/// A message edge ranked by its wire contribution to the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalEdge {
    /// Channel id.
    pub chan: u32,
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// Path picoseconds attributed to this edge's wire/serialization.
    pub wire_ps: u64,
    /// Arrival instant, ps.
    pub at_ps: u64,
}

/// The result of [`attribute`]: the exact critical path plus whole-run
/// rollup, per-rank slack and top-k critical edges. Byte-deterministic:
/// identical runs — through any engine mode — yield identical
/// [`Attribution::to_json`] bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Track group the attribution covers.
    pub pid: u32,
    /// Span-derived makespan, ps (equals the `RunReport` total).
    pub makespan_ps: u64,
    /// Rank the run's finish time belongs to (smallest on ties).
    pub end_rank: u32,
    /// Per-mechanism critical-path breakdown; `total_ps == makespan_ps`.
    pub path: PathBreakdown,
    /// The attributed path segments in forward time order.
    pub segments: Vec<PathSegment>,
    /// Whole-run mechanism totals.
    pub rollup: Rollup,
    /// Per-rank finish/slack/on-path summary, ascending rank.
    pub ranks: Vec<RankAttr>,
    /// Message edges by descending path wire contribution (top 10).
    pub top_edges: Vec<CriticalEdge>,
}

/// How many critical edges [`Attribution::top_edges`] keeps.
pub const TOP_EDGES: usize = 10;

/// Find the unique non-empty span covering `(start, end]` around `t`.
/// Zero-duration spans (overhead-free sends on ideal machines) are
/// skipped — they never cover a positive interval.
fn find_span(spans: &[SpanRecord], t: u64) -> Option<&SpanRecord> {
    let idx = spans.partition_point(|s| s.start < t);
    let mut i = idx;
    while i > 0 {
        let s = &spans[i - 1];
        if s.end() >= t {
            return Some(s);
        }
        if s.dur > 0 {
            return None;
        }
        i -= 1;
    }
    None
}

fn mid_cat(s: &SpanRecord) -> &'static str {
    match (&*s.name, s.cat) {
        ("send_wait", _) => "blocked_send",
        ("recv_wait", _) | (_, Cat::Idle) => "idle",
        (_, Cat::Compute) => "compute",
        (_, Cat::Collective) => "collective",
        _ => "overhead",
    }
}

/// Walk the span + edge DAG backwards from the makespan and attribute
/// every picosecond of pid `pid`'s critical path. See the module docs for
/// the mechanism labels; fails only on malformed traces ([`AttrError`]).
pub fn attribute(rec: &Recorder, pid: u32) -> Result<Attribution, AttrError> {
    let mut by_rank: BTreeMap<u32, Vec<SpanRecord>> = BTreeMap::new();
    for s in rec.sim_spans() {
        if s.pid == pid {
            by_rank.entry(s.tid).or_default().push(s);
        }
    }
    if by_rank.is_empty() {
        return Err(AttrError::NoSpans);
    }
    let edges: Vec<EdgeRecord> = rec.sim_edges().into_iter().filter(|e| e.pid == pid).collect();

    // Edge indexes. Values are indexes into `edges`, kept in the stream's
    // deterministic order so lookups resolve ties identically everywhere.
    let mut msg_by_recv: BTreeMap<(u32, u64), Vec<usize>> = BTreeMap::new();
    let mut msg_by_resume: BTreeMap<(u32, u64), Vec<usize>> = BTreeMap::new();
    let mut col_by_recv: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, e) in edges.iter().enumerate() {
        match e.kind {
            EdgeKind::Message => {
                msg_by_recv.entry((e.dst, e.recv)).or_default().push(i);
                msg_by_resume.entry((e.src, e.resume)).or_default().push(i);
            }
            EdgeKind::Collective => col_by_recv.entry(e.recv).or_default().push(i),
        }
    }

    let finish: BTreeMap<u32, u64> = by_rank
        .iter()
        .map(|(&r, spans)| (r, spans.iter().map(SpanRecord::end).max().unwrap_or(0)))
        .collect();
    let (&end_rank, &makespan) =
        finish.iter().max_by_key(|&(&r, &f)| (f, std::cmp::Reverse(r))).expect("non-empty");

    // Backward walk. Each step attributes `[pred, t]` for some causal
    // predecessor instant `pred <= t`, so contiguity (and the exact-sum
    // gate) holds by construction.
    let mut segments: Vec<PathSegment> = Vec::new();
    let mut path = PathBreakdown::default();
    let mut on_path: BTreeMap<u32, u64> = BTreeMap::new();
    let mut edge_wire: BTreeMap<usize, u64> = BTreeMap::new();
    let mut rank = end_rank;
    let mut t = makespan;
    let total_spans: usize = by_rank.values().map(Vec::len).sum();
    let budget = 4 * (total_spans + edges.len()) + 64;
    let mut steps = 0usize;

    let push = |segments: &mut Vec<PathSegment>,
                path: &mut PathBreakdown,
                on_path: &mut BTreeMap<u32, u64>,
                rank: u32,
                start: u64,
                end: u64,
                cat: &'static str| {
        if end > start {
            path.add(cat, end - start);
            path.segments += 1;
            *on_path.entry(rank).or_insert(0) += end - start;
            segments.push(PathSegment { rank, start_ps: start, end_ps: end, cat });
        }
    };

    while t > 0 {
        steps += 1;
        if steps > budget {
            return Err(AttrError::PathOverrun);
        }
        let spans = by_rank.get(&rank).ok_or(AttrError::Gap { rank, at_ps: t })?;
        let Some(s) = find_span(spans, t) else {
            // Past the rank's last span: only reachable through a
            // NIC-gated edge whose serialization outlived the rank's
            // program (wire drain). Attribute the tail and re-enter the
            // rank's own coverage.
            let fin = finish[&rank];
            if fin < t {
                push(&mut segments, &mut path, &mut on_path, rank, fin, t, "wire");
                t = fin;
                continue;
            }
            return Err(AttrError::Gap { rank, at_ps: t });
        };
        if t < s.end() {
            // Mid-span landing: consume the part below `t`.
            let cat = mid_cat(s);
            push(&mut segments, &mut path, &mut on_path, rank, s.start, t, cat);
            t = s.start;
            continue;
        }
        match &*s.name {
            "recv_wait" => {
                // The wait ended because a message arrived at exactly
                // `t`: follow its edge across the wire, then resolve
                // which gate set the transfer's start time.
                let idx = msg_by_recv
                    .get(&(rank, t))
                    .and_then(|v| v.first().copied())
                    .ok_or(AttrError::MissingEdge { rank, at_ps: t })?;
                let e = edges[idx];
                push(&mut segments, &mut path, &mut on_path, rank, e.wire_start, t, "wire");
                *edge_wire.entry(idx).or_insert(0) += t - e.wire_start;
                path.hops += 1;
                if e.send_post == e.wire_start {
                    rank = e.src; // sender posted last: follow the sender
                } else if e.recv_post == e.wire_start {
                    rank = e.dst; // receiver's rendezvous post gated it
                } else {
                    rank = e.src; // sender's NIC backlog gated it
                }
                t = e.wire_start;
            }
            "send_wait" => {
                // The sender resumed at `t`: if the matching edge is
                // recorded, the stall end is the serialization end —
                // attribute the occupied wire and resolve the gate.
                let idx = msg_by_resume
                    .get(&(rank, t))
                    .and_then(|v| v.iter().find(|&&i| edges[i].send_post == s.start).copied());
                match idx {
                    Some(i) => {
                        let e = edges[i];
                        push(&mut segments, &mut path, &mut on_path, rank, e.wire_start, t, "wire");
                        *edge_wire.entry(i).or_insert(0) += t - e.wire_start;
                        if e.recv_post == e.wire_start && e.send_post != e.wire_start {
                            path.hops += 1;
                            rank = e.dst;
                        }
                        t = e.wire_start;
                    }
                    None => {
                        push(
                            &mut segments,
                            &mut path,
                            &mut on_path,
                            rank,
                            s.start,
                            t,
                            "blocked_send",
                        );
                        t = s.start;
                    }
                }
            }
            _ if s.cat == Cat::Collective => {
                // Jump to the rank whose late arrival set the entry time.
                let idx = col_by_recv
                    .get(&t)
                    .and_then(|v| v.iter().rfind(|&&i| edges[i].send_post >= s.start).copied());
                match idx {
                    Some(i) => {
                        let e = edges[i];
                        push(
                            &mut segments,
                            &mut path,
                            &mut on_path,
                            rank,
                            e.send_post,
                            t,
                            "collective",
                        );
                        path.hops += 1;
                        rank = e.src;
                        t = e.send_post;
                    }
                    None => {
                        push(
                            &mut segments,
                            &mut path,
                            &mut on_path,
                            rank,
                            s.start,
                            t,
                            "collective",
                        );
                        t = s.start;
                    }
                }
            }
            _ => {
                let cat = mid_cat(s);
                push(&mut segments, &mut path, &mut on_path, rank, s.start, t, cat);
                t = s.start;
            }
        }
    }
    segments.reverse();

    // The hard gate: contiguous backward segments must sum to the
    // makespan exactly. Anything else is an engine edge-emission bug.
    if path.total_ps != makespan {
        return Err(AttrError::PathMismatch { path_ps: path.total_ps, makespan_ps: makespan });
    }

    // Whole-run rollup from the span stream.
    let mut rollup = Rollup { makespan_ps: makespan, ..Rollup::default() };
    for (_, spans) in by_rank.iter() {
        let first_compute = spans.iter().filter(|s| s.cat == Cat::Compute).map(|s| s.start).min();
        let last_compute =
            spans.iter().filter(|s| s.cat == Cat::Compute).map(SpanRecord::end).max();
        for s in spans {
            match (&*s.name, s.cat) {
                (_, Cat::Compute) => rollup.compute_ps += s.dur,
                ("send", _) => rollup.send_overhead_ps += s.dur,
                ("recv", _) => rollup.recv_overhead_ps += s.dur,
                ("send_wait", _) => rollup.blocked_send_ps += s.dur,
                (_, Cat::Collective) => rollup.collective_ps += s.dur,
                (_, Cat::Idle) => match (first_compute, last_compute) {
                    (Some(fc), _) if s.end() <= fc => rollup.fill_ps += s.dur,
                    (_, Some(lc)) if s.start >= lc => rollup.drain_ps += s.dur,
                    (Some(_), Some(_)) => rollup.blocking_idle_ps += s.dur,
                    _ => rollup.fill_ps += s.dur,
                },
                _ => rollup.blocking_idle_ps += s.dur,
            }
        }
    }
    for e in &edges {
        if e.kind == EdgeKind::Message {
            rollup.messages += 1;
            rollup.wire_ps += e.recv - e.wire_start;
            if e.resume > e.send_post {
                rollup.rendezvous += 1;
            }
        }
    }

    let ranks = finish
        .iter()
        .map(|(&r, &f)| RankAttr {
            rank: r,
            finish_ps: f,
            slack_ps: makespan - f,
            on_path_ps: on_path.get(&r).copied().unwrap_or(0),
        })
        .collect();

    let mut top: Vec<CriticalEdge> = edge_wire
        .iter()
        .map(|(&i, &wire_ps)| {
            let e = edges[i];
            CriticalEdge {
                chan: e.chan,
                src: e.src,
                dst: e.dst,
                bytes: e.bytes,
                wire_ps,
                at_ps: e.recv,
            }
        })
        .collect();
    top.sort_by_key(|e| (std::cmp::Reverse(e.wire_ps), e.at_ps, e.chan, e.src, e.dst));
    top.truncate(TOP_EDGES);

    Ok(Attribution {
        pid,
        makespan_ps: makespan,
        end_rank,
        path,
        segments,
        rollup,
        ranks,
        top_edges: top,
    })
}

impl Attribution {
    /// Deterministic JSON document (`obs/attr-v1`). Identical runs —
    /// through any engine mode — produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.ranks.len() * 64);
        out.push_str("{\n  \"schema\": \"obs/attr-v1\",\n");
        out.push_str(&format!("  \"pid\": {},\n", self.pid));
        out.push_str(&format!("  \"makespan_ps\": {},\n", self.makespan_ps));
        out.push_str(&format!("  \"end_rank\": {},\n", self.end_rank));
        out.push_str("  \"critical_path\": {");
        let feats = self.path.features();
        let body: Vec<String> = feats
            .iter()
            .map(|(name, v)| format!("\"{}\": {v}", name.trim_start_matches("path.")))
            .collect();
        out.push_str(&body.join(", "));
        out.push_str("},\n  \"rollup\": {");
        let feats = self.rollup.features();
        let body: Vec<String> = feats
            .iter()
            .map(|(name, v)| format!("\"{}\": {v}", name.trim_start_matches("rollup.")))
            .collect();
        out.push_str(&body.join(", "));
        out.push_str("},\n  \"top_edges\": [\n");
        for (i, e) in self.top_edges.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"chan\": {}, \"src\": {}, \"dst\": {}, \"bytes\": {}, \"wire_ps\": {}, \"at_ps\": {}}}{}\n",
                e.chan,
                e.src,
                e.dst,
                e.bytes,
                e.wire_ps,
                e.at_ps,
                if i + 1 < self.top_edges.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"ranks\": [\n");
        for (i, r) in self.ranks.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rank\": {}, \"finish_ps\": {}, \"slack_ps\": {}, \"on_path_ps\": {}}}{}\n",
                r.rank,
                r.finish_ps,
                r.slack_ps,
                r.on_path_ps,
                if i + 1 < self.ranks.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable report (fixed-point ms formatting, deterministic).
    pub fn render(&self, title: &str) -> String {
        let ms =
            |ps: u64| format!("{}.{:03} ms", ps / 1_000_000_000, (ps % 1_000_000_000) / 1_000_000);
        let pct = |ps: u64| {
            if self.makespan_ps == 0 {
                "0.0%".to_string()
            } else {
                format!("{:.1}%", 100.0 * ps as f64 / self.makespan_ps as f64)
            }
        };
        let mut out = String::new();
        out.push_str(&format!("# Attribution: {}\n\n", escape_title(title)));
        out.push_str(&format!(
            "makespan {}  ·  ends on rank {}  ·  {} path segments, {} hops\n\n",
            ms(self.makespan_ps),
            self.end_rank,
            self.path.segments,
            self.path.hops
        ));
        out.push_str("## Critical path\n\n");
        out.push_str("| mechanism | on-path | share |\n|---|---:|---:|\n");
        for (name, v) in [
            ("compute", self.path.compute_ps),
            ("overhead", self.path.overhead_ps),
            ("wire", self.path.wire_ps),
            ("blocked_send", self.path.blocked_send_ps),
            ("collective", self.path.collective_ps),
            ("idle", self.path.idle_ps),
        ] {
            out.push_str(&format!("| {name} | {} | {} |\n", ms(v), pct(v)));
        }
        out.push_str("\n## Whole-run rollup\n\n");
        out.push_str("| mechanism | total |\n|---|---:|\n");
        for (name, v) in self.rollup.features() {
            let name = name.trim_start_matches("rollup.");
            if name.ends_with("_ps") {
                out.push_str(&format!("| {} | {} |\n", name.trim_end_matches("_ps"), ms(v)));
            } else {
                out.push_str(&format!("| {name} | {v} |\n"));
            }
        }
        if !self.top_edges.is_empty() {
            out.push_str("\n## Top critical edges\n\n");
            out.push_str(
                "| src → dst | chan | bytes | wire on path | at |\n|---|---:|---:|---:|---:|\n",
            );
            for e in &self.top_edges {
                out.push_str(&format!(
                    "| {} → {} | {} | {} | {} | {} |\n",
                    e.src,
                    e.dst,
                    e.chan,
                    e.bytes,
                    ms(e.wire_ps),
                    ms(e.at_ps)
                ));
            }
        }
        let mut slackers: Vec<&RankAttr> = self.ranks.iter().collect();
        slackers.sort_by_key(|r| (r.slack_ps, r.rank));
        out.push_str("\n## Tightest ranks (least slack)\n\n");
        out.push_str("| rank | finish | slack | on path |\n|---:|---:|---:|---:|\n");
        for r in slackers.iter().take(5) {
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                r.rank,
                ms(r.finish_ps),
                ms(r.slack_ps),
                ms(r.on_path_ps)
            ));
        }
        out
    }
}

fn escape_title(s: &str) -> String {
    // Titles land in markdown; keep the JSON escaper's guarantees for
    // control characters and strip pipes that would break tables.
    escape(s).replace('|', "\\|")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: u32, dst: u32, send_post: u64, wire_start: u64, recv: u64) -> EdgeRecord {
        EdgeRecord {
            pid: 0,
            kind: EdgeKind::Message,
            chan: 0,
            src,
            dst,
            tag: 7,
            bytes: 64,
            send_post,
            recv_post: 0,
            wire_start,
            recv,
            resume: send_post,
        }
    }

    /// Two ranks: rank 0 computes then sends; rank 1 waits, receives,
    /// computes. Path: r0 compute → wire → r1 recv+compute.
    #[test]
    fn two_rank_pipeline_path_is_exact() {
        let rec = Recorder::enabled();
        rec.sim_span(0, 0, "compute", Cat::Compute, 0, 100, vec![]);
        rec.sim_span(0, 0, "send", Cat::Comm, 100, 10, vec![]);
        rec.sim_span(0, 1, "recv_wait", Cat::Idle, 0, 140, vec![]);
        rec.sim_span(0, 1, "recv", Cat::Comm, 140, 10, vec![]);
        rec.sim_span(0, 1, "compute", Cat::Compute, 150, 50, vec![]);
        rec.sim_edge(edge(0, 1, 110, 110, 140));
        let a = attribute(&rec, 0).unwrap();
        assert_eq!(a.makespan_ps, 200);
        assert_eq!(a.path.total_ps, 200);
        assert_eq!(a.end_rank, 1);
        assert_eq!(a.path.compute_ps, 150);
        assert_eq!(a.path.overhead_ps, 20);
        assert_eq!(a.path.wire_ps, 30);
        assert_eq!(a.path.hops, 1);
        assert_eq!(a.rollup.fill_ps, 140);
        assert_eq!(a.top_edges.len(), 1);
        assert_eq!(a.top_edges[0].wire_ps, 30);
        let r1 = a.ranks.iter().find(|r| r.rank == 0).unwrap();
        assert_eq!(r1.slack_ps, 90);
    }

    #[test]
    fn missing_edge_is_reported() {
        let rec = Recorder::enabled();
        rec.sim_span(0, 0, "recv_wait", Cat::Idle, 0, 50, vec![]);
        rec.sim_span(0, 0, "recv", Cat::Comm, 50, 5, vec![]);
        assert_eq!(attribute(&rec, 0).unwrap_err(), AttrError::MissingEdge { rank: 0, at_ps: 50 });
    }

    #[test]
    fn empty_recorder_is_reported() {
        let rec = Recorder::enabled();
        assert_eq!(attribute(&rec, 0).unwrap_err(), AttrError::NoSpans);
    }

    #[test]
    fn json_is_deterministic_and_parses() {
        let rec = Recorder::enabled();
        rec.sim_span(0, 0, "compute", Cat::Compute, 0, 100, vec![]);
        let a = attribute(&rec, 0).unwrap();
        let j1 = a.to_json();
        let j2 = attribute(&rec, 0).unwrap().to_json();
        assert_eq!(j1, j2);
        let doc = crate::json::Json::parse(&j1).unwrap();
        assert_eq!(doc.get("schema").and_then(crate::json::Json::as_str), Some("obs/attr-v1"));
        assert_eq!(doc.get("makespan_ps").and_then(crate::json::Json::as_f64), Some(100.0));
    }
}
