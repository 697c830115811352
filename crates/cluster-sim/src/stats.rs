//! Run statistics: per-rank time breakdown and whole-run report.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;
use crate::Fnv1a;

/// Time breakdown for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RankStats {
    /// Time in compute blocks (noise included).
    pub compute: SimTime,
    /// CPU time in send calls.
    pub send_overhead: SimTime,
    /// Idle time blocked in rendezvous sends waiting for the receiver.
    pub send_wait: SimTime,
    /// CPU time in receive calls after message availability.
    pub recv_overhead: SimTime,
    /// Idle time blocked waiting for messages (pipeline fill/drain shows up
    /// here).
    pub recv_wait: SimTime,
    /// Time in collectives (wait + tree cost).
    pub collective: SimTime,
    /// Messages sent.
    pub messages_sent: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Completion time of the rank's program.
    pub finish: SimTime,
}

impl RankStats {
    /// Total accounted time. Every clock advance in the engine is mirrored
    /// by exactly one stats increment, so this equals `finish` **exactly**
    /// in integer picoseconds — the engine asserts it in debug builds, and
    /// a property test holds it across noise seeds.
    pub fn accounted(&self) -> SimTime {
        self.compute
            + self.send_overhead
            + self.send_wait
            + self.recv_overhead
            + self.recv_wait
            + self.collective
    }
}

// SimTime is a plain u64 newtype; serialize transparently as picoseconds.
impl Serialize for SimTime {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u64(self.picos())
    }
}

impl<'de> Deserialize<'de> for SimTime {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let ps = u64::deserialize(d)?;
        Ok(SimTime::from_secs(ps as f64 / 1e12))
    }
}

/// The result of a complete simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-rank statistics, indexed by rank.
    pub ranks: Vec<RankStats>,
}

impl RunReport {
    /// Wall-clock makespan: the latest rank finish time, in seconds.
    pub fn makespan(&self) -> f64 {
        self.ranks.iter().map(|r| r.finish).max().unwrap_or(SimTime::ZERO).as_secs()
    }

    /// Total messages sent across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.ranks.iter().map(|r| r.messages_sent).sum()
    }

    /// Total bytes sent across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_sent).sum()
    }

    /// Mean fraction of the makespan each rank spent computing (parallel
    /// efficiency proxy).
    pub fn mean_compute_fraction(&self) -> f64 {
        let total = self.makespan();
        if total == 0.0 || self.ranks.is_empty() {
            return 0.0;
        }
        let s: f64 = self.ranks.iter().map(|r| r.compute.as_secs() / total).sum();
        s / self.ranks.len() as f64
    }

    /// A 64-bit FNV-1a digest over the full report in **integer
    /// picoseconds** — every field of every rank, in rank order. Two
    /// reports are digest-equal iff they are bit-identical, which is what
    /// the golden regression fixtures pin across engine rewrites.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new().u64(self.ranks.len() as u64);
        for r in &self.ranks {
            for v in [
                r.compute.picos(),
                r.send_overhead.picos(),
                r.send_wait.picos(),
                r.recv_overhead.picos(),
                r.recv_wait.picos(),
                r.collective.picos(),
                r.messages_sent,
                r.bytes_sent,
                r.finish.picos(),
            ] {
                h = h.u64(v);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_sums() {
        let s = RankStats {
            compute: SimTime::from_secs(1.0),
            send_overhead: SimTime::from_secs(0.2),
            send_wait: SimTime::from_secs(0.05),
            recv_overhead: SimTime::from_secs(0.25),
            recv_wait: SimTime::from_secs(0.5),
            collective: SimTime::from_secs(1.0),
            messages_sent: 2,
            bytes_sent: 100,
            finish: SimTime::from_secs(3.0),
        };
        assert_eq!(s.accounted().as_secs(), 3.0);
    }

    #[test]
    fn report_aggregates() {
        let mk = |f: f64, c: f64| RankStats {
            compute: SimTime::from_secs(c),
            finish: SimTime::from_secs(f),
            messages_sent: 1,
            bytes_sent: 10,
            ..Default::default()
        };
        let report = RunReport { ranks: vec![mk(2.0, 1.0), mk(4.0, 3.0)] };
        assert_eq!(report.makespan(), 4.0);
        assert_eq!(report.total_messages(), 2);
        assert_eq!(report.total_bytes(), 20);
        let frac = report.mean_compute_fraction();
        assert!((frac - (0.25 + 0.75) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport { ranks: vec![] };
        assert_eq!(r.makespan(), 0.0);
        assert_eq!(r.mean_compute_fraction(), 0.0);
    }
}
