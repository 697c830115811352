//! Shared (interned) program representation.
//!
//! An 8000-PE weak-scaling trace is built from a handful of *distinct*
//! per-rank schedules: a corner rank, an edge rank, an interior rank — the
//! op sequences are identical up to which absolute neighbor rank each
//! send/receive targets. Cloning a full `Vec<Op>` per rank therefore
//! stores the same stream thousands of times.
//!
//! A [`ProgramSet`] stores each distinct op stream once, behind an `Arc`,
//! with partner ranks replaced by small *slot* indices; every rank then
//! carries only `(stream id, partner table)`. Cloning a set — which
//! seed-replication campaigns do per run — costs one `Arc` bump per
//! distinct stream plus the per-rank partner tables, not a copy of every
//! op.
//!
//! A stream is stored as one *body* plus a lap count: every rank that runs
//! it executes the body `laps` times back to back. An iterative code
//! lowers one iteration body per role, run `laps` = iterations times, so
//! a 12-iteration SWEEP3D trace stores a twelfth of the ops it executes.
//! The engine wraps a rank's pc to the body's start at the end of each
//! lap; [`ProgramSet::materialize`] spells the laps out.
//!
//! Rank/slot invariants are enforced by [`ProgramSetBuilder`]: a rank's
//! partners are distinct and every slot its stream uses is in range, so
//! the engine can resolve slots to dense channel ids without checks on the
//! hot path.

use std::collections::HashMap;
use std::sync::Arc;

use crate::program::{Op, Program};

/// One operation of a shared op stream. Identical to [`Op`] except that
/// sends and receives name a *slot* into the executing rank's partner
/// table instead of an absolute rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SharedOp {
    /// Execute `flops` over `working_set` bytes.
    Compute {
        /// Floating-point operations in the block.
        flops: f64,
        /// Resident working-set size in bytes.
        working_set: usize,
    },
    /// Send `bytes` with `tag` to the partner in `slot`.
    Send {
        /// Index into the rank's partner table.
        slot: u16,
        /// Message size in bytes.
        bytes: usize,
        /// Match tag.
        tag: u32,
    },
    /// Blocking receive of `tag` from the partner in `slot`.
    Recv {
        /// Index into the rank's partner table.
        slot: u16,
        /// Match tag.
        tag: u32,
    },
    /// Global all-reduce of `bytes` payload.
    AllReduce {
        /// Payload size in bytes.
        bytes: usize,
    },
    /// Global barrier.
    Barrier,
}

/// Exact-identity interning key for one [`SharedOp`] (`f64` keyed by bit
/// pattern, so streams only merge when every constant is bit-equal).
type OpKey = (u8, u64, u64, u64);

fn op_key(op: &SharedOp) -> OpKey {
    match *op {
        SharedOp::Compute { flops, working_set } => (0, flops.to_bits(), working_set as u64, 0),
        SharedOp::Send { slot, bytes, tag } => (1, slot as u64, bytes as u64, tag as u64),
        SharedOp::Recv { slot, tag } => (2, slot as u64, tag as u64, 0),
        SharedOp::AllReduce { bytes } => (3, bytes as u64, 0, 0),
        SharedOp::Barrier => (4, 0, 0, 0),
    }
}

/// One rank's view of a shared set: which stream it executes and which
/// absolute ranks its slots refer to.
#[derive(Debug, Clone, PartialEq)]
struct RankProgram {
    stream: u32,
    partners: Vec<u32>,
}

/// A set of per-rank programs with the op streams stored once each.
///
/// Build with [`ProgramSet::from_programs`] (interning an existing
/// `Vec<Program>`, one lap per stream) or incrementally with
/// [`ProgramSetBuilder`] (trace generators that know their role structure
/// and iteration count up front). `Clone` is cheap: `Arc` bumps for the
/// streams plus the small per-rank partner tables.
#[derive(Debug, Clone, Default)]
pub struct ProgramSet {
    /// Each distinct stream's body.
    streams: Vec<Arc<[SharedOp]>>,
    /// Times each stream's body runs, by stream index (at least 1).
    laps: Vec<u32>,
    ranks: Vec<RankProgram>,
}

impl ProgramSet {
    /// Intern an existing per-rank program list. Ranks with bit-identical
    /// op sequences (up to partner renaming) share one stream.
    pub fn from_programs(programs: &[Program]) -> Self {
        let mut b = ProgramSetBuilder::new();
        for prog in programs {
            let (stream, partners) = b.intern_program(prog, 1);
            b.push_rank(stream, partners).expect("interned rank is well-formed");
        }
        b.build()
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// True when the set has no ranks.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Number of distinct op streams stored.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Rank `r`'s stream body, which it runs [`ProgramSet::laps`] times.
    pub fn ops(&self, r: usize) -> &[SharedOp] {
        &self.streams[self.ranks[r].stream as usize]
    }

    /// How many times rank `r` runs its body ([`ProgramSet::ops`]).
    pub fn laps(&self, r: usize) -> u32 {
        self.laps[self.ranks[r].stream as usize]
    }

    /// Rank `r`'s partner table (absolute rank per slot).
    pub fn partners(&self, r: usize) -> &[u32] {
        &self.ranks[r].partners
    }

    /// Index of the distinct stream rank `r` executes (into
    /// [`ProgramSet::streams`]).
    pub(crate) fn stream_index(&self, r: usize) -> usize {
        self.ranks[r].stream as usize
    }

    /// The distinct stream bodies, each stored once, in stream-index order.
    pub(crate) fn streams(&self) -> impl Iterator<Item = &[SharedOp]> {
        self.streams.iter().map(|s| &s[..])
    }

    /// Ops actually stored (each distinct body counted once).
    pub fn stored_ops(&self) -> usize {
        self.streams.iter().map(|s| s.len()).sum()
    }

    /// Ops as executed (per-rank body length × laps, summed) — what a
    /// cloned `Vec<Program>` representation would have to store.
    pub fn total_ops(&self) -> usize {
        (0..self.num_ranks()).map(|r| self.ops(r).len() * self.laps(r) as usize).sum()
    }

    /// Decode rank `r` back into a standalone [`Program`] with absolute
    /// partner ranks, its body repeated once per lap.
    pub fn materialize(&self, r: usize) -> Program {
        let partners = &self.ranks[r].partners;
        let mut p = Program::new();
        let body = self.ops(r);
        for op in (0..self.laps(r)).flat_map(|_| body) {
            p.push(match *op {
                SharedOp::Compute { flops, working_set } => Op::Compute { flops, working_set },
                SharedOp::Send { slot, bytes, tag } => {
                    Op::Send { to: partners[slot as usize] as usize, bytes, tag }
                }
                SharedOp::Recv { slot, tag } => {
                    Op::Recv { from: partners[slot as usize] as usize, tag }
                }
                SharedOp::AllReduce { bytes } => Op::AllReduce { bytes },
                SharedOp::Barrier => Op::Barrier,
            });
        }
        p
    }

    /// Decode the whole set (legacy representation; costs O(total ops)).
    #[cfg(test)]
    pub fn materialize_all(&self) -> Vec<Program> {
        (0..self.num_ranks()).map(|r| self.materialize(r)).collect()
    }

    /// Static validation, verdict-equivalent to
    /// [`crate::program::validate_programs`] on the materialized set but
    /// computed on the shared form: per-stream tag multisets are counted
    /// once over each distinct body, scaled by its laps, and compared per
    /// directed edge, so the cost is `O(stored ops + ranks × slots)`
    /// instead of `O(total ops)`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.ranks.len();

        // Per-stream facts, computed once per distinct stream.
        struct StreamInfo {
            /// tag → count multiset per slot, send side.
            sends: Vec<HashMap<u32, u64>>,
            /// tag → count multiset per slot, receive side.
            recvs: Vec<HashMap<u32, u64>>,
            collectives: u64,
            bad_flops: Option<f64>,
        }
        let infos: Vec<StreamInfo> = self
            .streams
            .iter()
            .zip(&self.laps)
            .map(|(stream, &laps)| {
                let slots = stream
                    .iter()
                    .map(|op| match *op {
                        SharedOp::Send { slot, .. } | SharedOp::Recv { slot, .. } => {
                            slot as usize + 1
                        }
                        _ => 0,
                    })
                    .max()
                    .unwrap_or(0);
                let mut info = StreamInfo {
                    sends: vec![HashMap::new(); slots],
                    recvs: vec![HashMap::new(); slots],
                    collectives: 0,
                    bad_flops: None,
                };
                for op in stream.iter() {
                    match *op {
                        SharedOp::Send { slot, tag, .. } => {
                            *info.sends[slot as usize].entry(tag).or_insert(0) += 1;
                        }
                        SharedOp::Recv { slot, tag } => {
                            *info.recvs[slot as usize].entry(tag).or_insert(0) += 1;
                        }
                        SharedOp::AllReduce { .. } | SharedOp::Barrier => info.collectives += 1,
                        SharedOp::Compute { flops, .. } => {
                            if !(flops.is_finite() && flops >= 0.0) && info.bad_flops.is_none() {
                                info.bad_flops = Some(flops);
                            }
                        }
                    }
                }
                // Every lap repeats the body's traffic.
                let laps = u64::from(laps);
                for counts in info.sends.iter_mut().chain(info.recvs.iter_mut()) {
                    counts.values_mut().for_each(|c| *c *= laps);
                }
                info.collectives *= laps;
                info
            })
            .collect();

        // Canonical multiset ids so edge comparisons are O(1); id 0 = empty.
        let mut canon: HashMap<Vec<(u32, u64)>, u32> = HashMap::new();
        let mut intern = |m: &HashMap<u32, u64>| -> u32 {
            if m.is_empty() {
                return 0;
            }
            let mut v: Vec<(u32, u64)> = m.iter().map(|(&t, &c)| (t, c)).collect();
            v.sort_unstable();
            let next = canon.len() as u32 + 1;
            *canon.entry(v).or_insert(next)
        };
        let send_ids: Vec<Vec<u32>> =
            infos.iter().map(|i| i.sends.iter().map(&mut intern).collect()).collect();
        let recv_ids: Vec<Vec<u32>> =
            infos.iter().map(|i| i.recvs.iter().map(&mut intern).collect()).collect();

        // Multiset id of rank `b`'s traffic toward rank `a`, by direction.
        let side = |ids: &[Vec<u32>], b: usize, a: usize| -> u32 {
            let rp = &self.ranks[b];
            match rp.partners.iter().position(|&x| x as usize == a) {
                Some(t) => ids[rp.stream as usize].get(t).copied().unwrap_or(0),
                None => 0,
            }
        };
        // On mismatch, reconstruct the offending tag counts for the error.
        let edge_error = |src: usize, dst: usize| -> String {
            let count = |of: &dyn Fn(&StreamInfo) -> &Vec<HashMap<u32, u64>>,
                         who: usize,
                         other: usize,
                         tag: u32|
             -> u64 {
                let rp = &self.ranks[who];
                rp.partners
                    .iter()
                    .position(|&x| x as usize == other)
                    .and_then(|t| of(&infos[rp.stream as usize]).get(t))
                    .and_then(|m| m.get(&tag).copied())
                    .unwrap_or(0)
            };
            let mut tags: Vec<u32> = Vec::new();
            let rp = &self.ranks[src];
            if let Some(t) = rp.partners.iter().position(|&x| x as usize == dst) {
                if let Some(m) = infos[rp.stream as usize].sends.get(t) {
                    tags.extend(m.keys());
                }
            }
            let rp = &self.ranks[dst];
            if let Some(t) = rp.partners.iter().position(|&x| x as usize == src) {
                if let Some(m) = infos[rp.stream as usize].recvs.get(t) {
                    tags.extend(m.keys());
                }
            }
            tags.sort_unstable();
            tags.dedup();
            for tag in tags {
                let ns = count(&|i| &i.sends, src, dst, tag);
                let nr = count(&|i| &i.recvs, dst, src, tag);
                if ns != nr {
                    return format!(
                        "unbalanced channel {src}→{dst} tag {tag}: {ns} sends vs {nr} recvs"
                    );
                }
            }
            format!("unbalanced channel {src}→{dst}")
        };

        let mut collectives0 = None;
        for (rank, rp) in self.ranks.iter().enumerate() {
            let info = &infos[rp.stream as usize];
            if let Some(f) = info.bad_flops {
                return Err(format!("rank {rank} has invalid flop count {f}"));
            }
            let sids = &send_ids[rp.stream as usize];
            let rids = &recv_ids[rp.stream as usize];
            for (s, &p) in rp.partners.iter().enumerate() {
                let p = p as usize;
                let sid = sids.get(s).copied().unwrap_or(0);
                let rid = rids.get(s).copied().unwrap_or(0);
                if sid != 0 {
                    if p >= n {
                        return Err(format!("rank {rank} sends to nonexistent rank {p}"));
                    }
                    if sid != side(&recv_ids, p, rank) {
                        return Err(edge_error(rank, p));
                    }
                }
                if rid != 0 {
                    if p >= n {
                        return Err(format!("rank {rank} receives from nonexistent rank {p}"));
                    }
                    if rid != side(&send_ids, p, rank) {
                        return Err(edge_error(p, rank));
                    }
                }
            }
            match collectives0 {
                None => collectives0 = Some(info.collectives),
                Some(c0) if c0 != info.collectives => {
                    return Err(format!(
                        "collective count mismatch: rank 0 has {c0}, rank {rank} has {}",
                        info.collectives
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// Incremental [`ProgramSet`] construction with stream interning.
#[derive(Debug, Default)]
pub struct ProgramSetBuilder {
    streams: Vec<Arc<[SharedOp]>>,
    laps: Vec<u32>,
    intern: HashMap<(Vec<OpKey>, u32), u32>,
    /// Highest slot index each stream touches, +1 (0 = touches none).
    stream_slots: Vec<usize>,
    ranks: Vec<RankProgram>,
}

impl ProgramSetBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a slot-relative body run `laps` times, returning its stream
    /// id. Streams with bit-identical bodies and equal laps share one id.
    fn intern_ops(&mut self, ops: Vec<SharedOp>, laps: u32) -> u32 {
        assert!(laps >= 1, "a stream runs its body at least once");
        let key = (ops.iter().map(op_key).collect::<Vec<OpKey>>(), laps);
        if let Some(&id) = self.intern.get(&key) {
            return id;
        }
        let id = self.streams.len() as u32;
        let slots = ops
            .iter()
            .map(|op| match *op {
                SharedOp::Send { slot, .. } | SharedOp::Recv { slot, .. } => slot as usize + 1,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        self.streams.push(ops.into());
        self.laps.push(laps);
        self.stream_slots.push(slots);
        self.intern.insert(key, id);
        id
    }

    /// Convert a legacy [`Program`] to slot-relative form (partners in
    /// first-appearance order) and intern it as a body that runs `laps`
    /// times (at least 1; pass 1 for a program that is the whole run).
    /// Does **not** add a rank; pair with [`ProgramSetBuilder::push_rank`].
    pub fn intern_program(&mut self, prog: &Program, laps: u32) -> (u32, Vec<u32>) {
        let mut partners: Vec<u32> = Vec::new();
        let slot_of = |partners: &mut Vec<u32>, rank: usize| -> u16 {
            let rank = u32::try_from(rank).expect("rank id fits in u32");
            match partners.iter().position(|&p| p == rank) {
                Some(s) => s as u16,
                None => {
                    let s = partners.len();
                    assert!(s < u16::MAX as usize, "more than 65534 partners on one rank");
                    partners.push(rank);
                    s as u16
                }
            }
        };
        let ops: Vec<SharedOp> = prog
            .ops()
            .iter()
            .map(|op| match *op {
                Op::Compute { flops, working_set } => SharedOp::Compute { flops, working_set },
                Op::Send { to, bytes, tag } => {
                    SharedOp::Send { slot: slot_of(&mut partners, to), bytes, tag }
                }
                Op::Recv { from, tag } => {
                    SharedOp::Recv { slot: slot_of(&mut partners, from), tag }
                }
                Op::AllReduce { bytes } => SharedOp::AllReduce { bytes },
                Op::Barrier => SharedOp::Barrier,
            })
            .collect();
        (self.intern_ops(ops, laps), partners)
    }

    /// Append the next rank, executing `stream` with the given partner
    /// table. Fails unless the partners are distinct and cover every slot
    /// the stream uses — the invariants the engine's channel resolution
    /// relies on.
    pub fn push_rank(&mut self, stream: u32, partners: Vec<u32>) -> Result<(), String> {
        let rank = self.ranks.len();
        let Some(&slots) = self.stream_slots.get(stream as usize) else {
            return Err(format!("rank {rank}: unknown stream id {stream}"));
        };
        if partners.len() < slots {
            return Err(format!(
                "rank {rank}: stream {stream} uses {slots} slot(s) but only {} partner(s) given",
                partners.len()
            ));
        }
        for (i, &p) in partners.iter().enumerate() {
            if partners[..i].contains(&p) {
                return Err(format!("rank {rank}: duplicate partner {p}"));
            }
        }
        self.ranks.push(RankProgram { stream, partners });
        Ok(())
    }

    /// Finish the set.
    pub fn build(self) -> ProgramSet {
        ProgramSet { streams: self.streams, laps: self.laps, ranks: self.ranks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::validate_programs;

    fn ring(ranks: usize) -> Vec<Program> {
        let mut programs = vec![Program::new(); ranks];
        for (r, prog) in programs.iter_mut().enumerate() {
            prog.push(Op::Compute { flops: 1e6, working_set: 512 });
            prog.push(Op::Send { to: (r + 1) % ranks, bytes: 256, tag: 3 });
            prog.push(Op::Recv { from: (r + ranks - 1) % ranks, tag: 3 });
            prog.push(Op::AllReduce { bytes: 8 });
        }
        programs
    }

    #[test]
    fn roundtrip_is_element_wise_equal() {
        let programs = ring(5);
        let set = ProgramSet::from_programs(&programs);
        assert_eq!(set.materialize_all(), programs);
    }

    #[test]
    fn identical_roles_share_one_stream() {
        let set = ProgramSet::from_programs(&ring(64));
        assert_eq!(set.num_ranks(), 64);
        // All ring ranks play the same role up to partner renaming.
        assert_eq!(set.num_streams(), 1);
        assert_eq!(set.stored_ops(), 4);
        assert_eq!(set.total_ops(), 64 * 4);
    }

    #[test]
    fn distinct_constants_do_not_merge() {
        let mut programs = ring(4);
        programs[2] = {
            let mut p = Program::new();
            p.push(Op::Compute { flops: 2e6, working_set: 512 }); // different flops
            p.push(Op::Send { to: 3, bytes: 256, tag: 3 });
            p.push(Op::Recv { from: 1, tag: 3 });
            p.push(Op::AllReduce { bytes: 8 });
            p
        };
        let set = ProgramSet::from_programs(&programs);
        assert_eq!(set.num_streams(), 2);
        assert_eq!(set.materialize_all(), programs);
    }

    #[test]
    fn clone_is_shallow() {
        let set = ProgramSet::from_programs(&ring(8));
        let copy = set.clone();
        assert!(Arc::ptr_eq(&set.streams[0], &copy.streams[0]), "streams must be shared");
    }

    #[test]
    fn validate_agrees_with_legacy_on_valid_set() {
        let programs = ring(6);
        assert!(validate_programs(&programs).is_ok());
        assert!(ProgramSet::from_programs(&programs).validate().is_ok());
    }

    #[test]
    fn validate_rejects_unbalanced_send() {
        let mut p0 = Program::new();
        p0.push(Op::Send { to: 1, bytes: 8, tag: 3 });
        let p1 = Program::new();
        let err = ProgramSet::from_programs(&[p0, p1]).validate().unwrap_err();
        assert!(err.contains("unbalanced"), "{err}");
        assert!(err.contains("tag 3"), "{err}");
    }

    #[test]
    fn validate_rejects_orphan_recv() {
        let p0 = Program::new();
        let mut p1 = Program::new();
        p1.push(Op::Recv { from: 0, tag: 9 });
        let err = ProgramSet::from_programs(&[p0, p1]).validate().unwrap_err();
        assert!(err.contains("unbalanced"), "{err}");
    }

    #[test]
    fn validate_rejects_out_of_range_partner() {
        let mut p0 = Program::new();
        p0.push(Op::Send { to: 5, bytes: 8, tag: 0 });
        let err = ProgramSet::from_programs(&[p0]).validate().unwrap_err();
        assert!(err.contains("nonexistent"), "{err}");
    }

    #[test]
    fn validate_rejects_collective_mismatch() {
        let mut p0 = Program::new();
        p0.push(Op::Barrier);
        let p1 = Program::new();
        let err = ProgramSet::from_programs(&[p0, p1]).validate().unwrap_err();
        assert!(err.contains("collective"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_flops() {
        let mut p0 = Program::new();
        p0.push(Op::Compute { flops: f64::NAN, working_set: 0 });
        let err = ProgramSet::from_programs(&[p0]).validate().unwrap_err();
        assert!(err.contains("invalid flop count"), "{err}");
    }

    #[test]
    fn validate_accepts_count_balanced_tags_any_order() {
        // Same multiset of tags on both sides, emitted in different order.
        let mut p0 = Program::new();
        p0.push(Op::Send { to: 1, bytes: 8, tag: 1 });
        p0.push(Op::Send { to: 1, bytes: 8, tag: 2 });
        let mut p1 = Program::new();
        p1.push(Op::Recv { from: 0, tag: 2 });
        p1.push(Op::Recv { from: 0, tag: 1 });
        assert!(ProgramSet::from_programs(&[p0, p1]).validate().is_ok());
    }

    #[test]
    fn builder_rejects_duplicate_partners_and_missing_slots() {
        let mut b = ProgramSetBuilder::new();
        let stream = b.intern_ops(
            vec![SharedOp::Send { slot: 0, bytes: 8, tag: 0 }, SharedOp::Recv { slot: 1, tag: 0 }],
            1,
        );
        assert!(b.push_rank(stream, vec![1, 1]).is_err(), "duplicate partner");
        assert!(b.push_rank(stream, vec![1]).is_err(), "slot 1 uncovered");
        assert!(b.push_rank(stream, vec![1, 2]).is_ok());
        assert!(b.push_rank(99, vec![]).is_err(), "unknown stream");
    }

    /// A set whose rank `r` runs `bodies[r]` `laps[r]` times.
    fn lapped(bodies: &[Program], laps: &[u32]) -> ProgramSet {
        let mut b = ProgramSetBuilder::new();
        for (body, &laps) in bodies.iter().zip(laps) {
            let (stream, partners) = b.intern_program(body, laps);
            b.push_rank(stream, partners).unwrap();
        }
        b.build()
    }

    #[test]
    fn laps_store_the_body_once_and_materialize_it_per_lap() {
        let body = ring(5);
        let set = lapped(&body, &[3; 5]);
        assert_eq!(set.num_streams(), 1);
        assert_eq!(set.laps(2), 3);
        assert_eq!(set.stored_ops(), 4);
        assert_eq!(set.total_ops(), 5 * 4 * 3);
        for (r, prog) in body.iter().enumerate() {
            let want: Vec<Op> = prog.ops().iter().cycle().take(3 * prog.len()).copied().collect();
            assert_eq!(set.materialize(r).ops(), &want[..]);
        }
        assert!(set.validate().is_ok());
    }

    #[test]
    fn equal_bodies_with_different_laps_do_not_merge() {
        let mut b = ProgramSetBuilder::new();
        let prog = &ring(2)[0];
        let (once, _) = b.intern_program(prog, 1);
        let (twice, _) = b.intern_program(prog, 2);
        assert_ne!(once, twice);
        assert_eq!(b.intern_program(prog, 2).0, twice);
    }

    #[test]
    fn validate_scales_traffic_and_collectives_by_laps() {
        // Rank 0 sends tag 3 twice and barriers twice in one lap; rank 1
        // receives once and barriers once per lap.
        let mut p0 = Program::new();
        p0.push(Op::Send { to: 1, bytes: 8, tag: 3 });
        p0.push(Op::Send { to: 1, bytes: 8, tag: 3 });
        p0.push(Op::Barrier);
        p0.push(Op::Barrier);
        let mut p1 = Program::new();
        p1.push(Op::Recv { from: 0, tag: 3 });
        p1.push(Op::Barrier);
        let bodies = [p0, p1];
        let set = lapped(&bodies, &[1, 2]);
        assert!(set.validate().is_ok());
        assert!(validate_programs(&set.materialize_all()).is_ok());
        let err = lapped(&bodies, &[1, 3]).validate().unwrap_err();
        assert!(err.contains("2 sends vs 3 recvs"), "{err}");

        // Traffic balanced, collectives not: 2 barriers against 3.
        let (mut q0, mut q1) = (Program::new(), Program::new());
        q0.push(Op::Barrier);
        q0.push(Op::Barrier);
        q1.push(Op::Barrier);
        let err = lapped(&[q0, q1], &[1, 3]).validate().unwrap_err();
        assert!(err.contains("collective count mismatch"), "{err}");
    }

    #[test]
    fn send_to_self_roundtrips() {
        let mut p0 = Program::new();
        p0.push(Op::Send { to: 0, bytes: 8, tag: 0 });
        p0.push(Op::Recv { from: 0, tag: 0 });
        let set = ProgramSet::from_programs(std::slice::from_ref(&p0));
        assert!(set.validate().is_ok());
        assert_eq!(set.materialize(0), p0);
    }
}
