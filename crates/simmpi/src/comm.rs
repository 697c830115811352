//! Communicators: point-to-point messaging and collectives.
//!
//! Every rank owns a [`Comm`] handle onto a shared set of mailboxes. A
//! blocking send deposits an envelope into the destination mailbox (eager
//! protocol — sends never block); a blocking receive scans its own mailbox
//! for the earliest envelope matching `(source, tag)` and parks on a condvar
//! until one arrives.
//!
//! Collectives are implemented over point-to-point trees in a reserved
//! negative-tag space. Each collective call consumes one *epoch* so that
//! back-to-back collectives cannot cross-match; this relies on all ranks
//! invoking collectives in the same order, which is also MPI's requirement.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::error::{MpiError, Result};
use crate::message::{Message, Payload};
use crate::ReduceOp;

/// Base of the reserved (negative) tag space used by collectives.
const COLLECTIVE_TAG_BASE: i32 = i32::MIN / 2;
/// Number of distinct collective epochs kept apart in tag space.
const EPOCH_MODULUS: i64 = 4096;
/// Tag slots reserved per epoch (rounds of a dissemination barrier etc.).
const SLOTS_PER_EPOCH: i64 = 64;

/// Status information returned by a successful receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvStatus {
    /// The actual source rank of the matched message.
    pub source: usize,
    /// The actual tag of the matched message.
    pub tag: i32,
    /// Payload length in bytes.
    pub len: usize,
}

/// One rank's mailbox.
struct Mailbox {
    queue: Mutex<VecDeque<Message>>,
    arrived: Condvar,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox { queue: Mutex::new(VecDeque::new()), arrived: Condvar::new() }
    }
}

/// State shared by all ranks of a communicator.
struct Shared {
    mailboxes: Vec<Mailbox>,
    /// Number of `Comm` handles still alive; used to detect that a blocking
    /// receive can never complete because every peer has exited.
    alive: AtomicUsize,
}

/// A communicator handle held by one rank.
///
/// Cloning is not provided: a rank's `Comm` is moved into its thread by
/// [`crate::Runtime::run`]. Dropping the handle marks the rank as exited so
/// that peers blocked in `recv` fail with [`MpiError::Disconnected`] instead
/// of hanging forever.
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
    /// Per-destination sequence counters for envelope numbering.
    send_seq: Vec<AtomicU64>,
    /// Collective epoch counter (local; all ranks advance in lockstep
    /// because collectives must be called in the same order everywhere).
    epoch: AtomicU64,
}

impl Comm {
    /// Build the full set of communicator handles for `size` ranks.
    pub(crate) fn create(size: usize) -> Vec<Comm> {
        assert!(size > 0, "communicator must have at least one rank");
        let shared = Arc::new(Shared {
            mailboxes: (0..size).map(|_| Mailbox::new()).collect(),
            alive: AtomicUsize::new(size),
        });
        (0..size)
            .map(|rank| Comm {
                rank,
                shared: Arc::clone(&shared),
                send_seq: (0..size).map(|_| AtomicU64::new(0)).collect(),
                epoch: AtomicU64::new(0),
            })
            .collect()
    }

    /// This rank's id, in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.shared.mailboxes.len()
    }

    fn check_rank(&self, rank: usize) -> Result<()> {
        if rank >= self.size() {
            Err(MpiError::InvalidRank { rank, size: self.size() })
        } else {
            Ok(())
        }
    }

    /// Buffered (eager) send: deposits the payload in `dest`'s mailbox and
    /// returns immediately.
    pub fn send(&self, dest: usize, tag: i32, payload: Payload) -> Result<()> {
        self.check_rank(dest)?;
        let seq = self.send_seq[dest].fetch_add(1, Ordering::Relaxed);
        let msg = Message { source: self.rank, tag, seq, payload };
        let mailbox = &self.shared.mailboxes[dest];
        {
            let mut q = mailbox.queue.lock();
            q.push_back(msg);
        }
        mailbox.arrived.notify_all();
        Ok(())
    }

    /// Convenience: send a slice of `f64`s.
    pub fn send_f64s(&self, dest: usize, tag: i32, values: &[f64]) -> Result<()> {
        self.send(dest, tag, Payload::from_f64s(values))
    }

    /// Blocking receive matching an exact `(source, tag)` pair.
    pub fn recv(&self, source: usize, tag: i32) -> Result<(Payload, RecvStatus)> {
        self.check_rank(source)?;
        let mailbox = &self.shared.mailboxes[self.rank];
        let mut q = mailbox.queue.lock();
        loop {
            if let Some(pos) = q.iter().position(|m| m.matches(source, tag)) {
                let msg = q.remove(pos).expect("position is in range");
                let status =
                    RecvStatus { source: msg.source, tag: msg.tag, len: msg.payload.len() };
                return Ok((msg.payload, status));
            }
            // No match queued. If this rank is the only one still alive, no
            // future send can satisfy us.
            if self.shared.alive.load(Ordering::SeqCst) <= 1 {
                return Err(MpiError::Disconnected);
            }
            mailbox.arrived.wait_for(&mut q, std::time::Duration::from_millis(50));
        }
    }

    /// Convenience: blocking receive decoded as `f64`s.
    pub fn recv_f64s(&self, source: usize, tag: i32) -> Result<(Vec<f64>, RecvStatus)> {
        let (payload, status) = self.recv(source, tag)?;
        Ok((payload.to_f64s()?, status))
    }

    fn next_epoch_tag(&self, slot: i64) -> i32 {
        debug_assert!(slot < SLOTS_PER_EPOCH);
        let epoch = (self.epoch.load(Ordering::Relaxed) as i64) % EPOCH_MODULUS;
        COLLECTIVE_TAG_BASE + (epoch * SLOTS_PER_EPOCH + slot) as i32
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Dissemination barrier: `ceil(log2 size)` rounds of pairwise messages.
    pub fn barrier(&self) -> Result<()> {
        let size = self.size();
        let mut round = 0i64;
        let mut dist = 1usize;
        while dist < size {
            let to = (self.rank + dist) % size;
            let from = (self.rank + size - dist % size) % size;
            let tag = self.next_epoch_tag(round);
            self.send(to, tag, Payload::from_f64s(&[]))?;
            self.recv(from, tag)?;
            dist *= 2;
            round += 1;
        }
        self.bump_epoch();
        Ok(())
    }

    /// Binomial-tree reduction of per-rank vectors to `root`.
    ///
    /// All ranks must pass slices of equal length; the root receives the
    /// element-wise reduction, non-roots receive `None`.
    pub fn reduce_f64s(
        &self,
        values: &[f64],
        op: ReduceOp,
        root: usize,
    ) -> Result<Option<Vec<f64>>> {
        self.check_rank(root)?;
        let size = self.size();
        // Rotate ranks so the tree is rooted at `root`.
        let vrank = (self.rank + size - root) % size;
        let mut acc: Vec<f64> = values.to_vec();
        let tag = self.next_epoch_tag(0);
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask != 0 {
                // Send partial result to parent and exit the tree.
                let parent = ((vrank & !mask) + root) % size;
                self.send_f64s(parent, tag, &acc)?;
                break;
            }
            let child_v = vrank | mask;
            if child_v < size {
                let child = (child_v + root) % size;
                let (theirs, _) = self.recv_f64s(child, tag)?;
                if theirs.len() != acc.len() {
                    return Err(MpiError::CollectiveMismatch {
                        detail: format!(
                            "reduce length {} from rank {child} vs local {}",
                            theirs.len(),
                            acc.len()
                        ),
                    });
                }
                for (a, b) in acc.iter_mut().zip(theirs) {
                    *a = op.apply(*a, b);
                }
            }
            mask <<= 1;
        }
        self.bump_epoch();
        if self.rank == root {
            Ok(Some(acc))
        } else {
            Ok(None)
        }
    }

    /// Binomial-tree broadcast from `root`. `value` is the send buffer on
    /// the root and ignored elsewhere; the broadcast vector is returned on
    /// every rank.
    pub fn bcast_f64s(&self, values: &[f64], root: usize) -> Result<Vec<f64>> {
        self.check_rank(root)?;
        let size = self.size();
        let vrank = (self.rank + size - root) % size;
        let tag = self.next_epoch_tag(0);
        let mut data: Option<Vec<f64>> = if vrank == 0 { Some(values.to_vec()) } else { None };
        // The highest set bit of vrank identifies the parent we receive
        // from; bits above it identify the children we forward to.
        // Receive phase.
        if vrank != 0 {
            let top = highest_bit(vrank);
            let parent = ((vrank & !(1 << top)) + root) % size;
            let (got, _) = self.recv_f64s(parent, tag)?;
            data = Some(got);
        }
        // Forward phase: children are vrank | bit for bits above our top bit.
        let data = data.expect("broadcast data present after receive phase");
        let start_bit = if vrank == 0 { 0 } else { highest_bit(vrank) + 1 };
        let mut bit = start_bit;
        while (1usize << bit) < size {
            let child_v = vrank | (1 << bit);
            if child_v != vrank && child_v < size {
                let child = (child_v + root) % size;
                self.send_f64s(child, tag, &data)?;
            }
            bit += 1;
        }
        self.bump_epoch();
        Ok(data)
    }

    /// All-reduce = reduce-to-0 + broadcast. Returns the reduced vector on
    /// every rank.
    pub fn allreduce_f64s(&self, values: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
        let reduced = self.reduce_f64s(values, op, 0)?;
        let buf = reduced.unwrap_or_default();
        self.bcast_f64s(&buf, 0)
    }

    /// Scalar all-reduce convenience, the shape SWEEP3D's `global_real_sum`
    /// and `global_real_max` use.
    pub fn allreduce_f64(&self, value: f64, op: ReduceOp) -> Result<f64> {
        let v = self.allreduce_f64s(&[value], op)?;
        Ok(v[0])
    }
}

impl Drop for Comm {
    fn drop(&mut self) {
        self.shared.alive.fetch_sub(1, Ordering::SeqCst);
        // Wake any peers parked in recv so they can observe the exit.
        for mb in &self.shared.mailboxes {
            mb.arrived.notify_all();
        }
    }
}

/// Index of the highest set bit; `n` must be nonzero.
#[inline]
fn highest_bit(n: usize) -> usize {
    usize::BITS as usize - 1 - n.leading_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_bit_values() {
        assert_eq!(highest_bit(1), 0);
        assert_eq!(highest_bit(2), 1);
        assert_eq!(highest_bit(3), 1);
        assert_eq!(highest_bit(8), 3);
        assert_eq!(highest_bit(12), 3);
    }

    #[test]
    fn single_rank_self_send() {
        let mut comms = Comm::create(1);
        let c = comms.remove(0);
        c.send_f64s(0, 5, &[1.0, 2.0]).unwrap();
        let (v, st) = c.recv_f64s(0, 5).unwrap();
        assert_eq!(v, vec![1.0, 2.0]);
        assert_eq!(st.source, 0);
        assert_eq!(st.tag, 5);
        assert_eq!(st.len, 16);
    }

    #[test]
    fn invalid_rank_rejected() {
        let mut comms = Comm::create(2);
        let c = comms.remove(0);
        assert!(matches!(c.send_f64s(7, 0, &[]), Err(MpiError::InvalidRank { rank: 7, size: 2 })));
        assert!(matches!(c.recv(9, 0), Err(MpiError::InvalidRank { rank: 9, size: 2 })));
    }

    #[test]
    fn fifo_per_source_tag() {
        let mut comms = Comm::create(1);
        let c = comms.remove(0);
        for i in 0..10 {
            c.send_f64s(0, 3, &[i as f64]).unwrap();
        }
        for i in 0..10 {
            let (v, _) = c.recv_f64s(0, 3).unwrap();
            assert_eq!(v[0], i as f64, "messages must not overtake");
        }
    }

    #[test]
    fn tag_selectivity() {
        let mut comms = Comm::create(1);
        let c = comms.remove(0);
        c.send_f64s(0, 1, &[1.0]).unwrap();
        c.send_f64s(0, 2, &[2.0]).unwrap();
        // Receive tag 2 first even though tag 1 arrived earlier.
        let (v, _) = c.recv_f64s(0, 2).unwrap();
        assert_eq!(v[0], 2.0);
        let (v, _) = c.recv_f64s(0, 1).unwrap();
        assert_eq!(v[0], 1.0);
    }

    #[test]
    fn disconnected_recv_errors() {
        let comms = Comm::create(2);
        let mut it = comms.into_iter();
        let c0 = it.next().unwrap();
        let c1 = it.next().unwrap();
        drop(c1); // rank 1 exits without sending
        assert_eq!(c0.recv(1, 0).unwrap_err(), MpiError::Disconnected);
    }
}
