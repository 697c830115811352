//! Launching a set of ranks on OS threads.

use crossbeam::thread;

use crate::comm::Comm;

/// A runtime that executes one closure per rank, each on its own thread.
///
/// ```
/// use simmpi::Runtime;
/// let ranks: Vec<usize> = Runtime::new(3).run(|comm| comm.rank());
/// assert_eq!(ranks, vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Runtime {
    size: usize,
}

impl Runtime {
    /// Create a runtime for `size` ranks. Panics when `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "runtime needs at least one rank");
        Runtime { size }
    }

    /// Number of ranks launched by [`Runtime::run`].
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` once per rank and collect the return values in rank order.
    ///
    /// Panics in any rank propagate after all threads have been joined, so a
    /// failing test reports the original panic message rather than a hang.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&Comm) -> R + Sync,
        R: Send,
    {
        let comms = Comm::create(self.size);
        let results = thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let f = &f;
                    scope.spawn(move |_| f(&comm))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect::<Vec<std::thread::Result<R>>>()
        })
        .expect("rank threads joined");
        results
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReduceOp;

    #[test]
    fn ranks_are_distinct_and_ordered() {
        let out = Runtime::new(8).run(|c| (c.rank(), c.size()));
        for (i, (rank, size)) in out.iter().enumerate() {
            assert_eq!(*rank, i);
            assert_eq!(*size, 8);
        }
    }

    #[test]
    fn ping_pong() {
        let out = Runtime::new(2).run(|c| {
            if c.rank() == 0 {
                c.send_f64s(1, 1, &[3.0]).unwrap();
                let v = c.recv_f64s(1, 2).unwrap();
                v[0]
            } else {
                let v = c.recv_f64s(0, 1).unwrap();
                c.send_f64s(0, 2, &[v[0] * 2.0]).unwrap();
                v[0]
            }
        });
        assert_eq!(out, vec![6.0, 3.0]);
    }

    #[test]
    fn barrier_separates_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        Runtime::new(6).run(|c| {
            before.fetch_add(1, Ordering::SeqCst);
            c.barrier().unwrap();
            // After the barrier every rank must observe all 6 arrivals.
            if before.load(Ordering::SeqCst) != 6 {
                violations.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn reduce_sum_to_each_root() {
        for root in 0..5 {
            let out = Runtime::new(5)
                .run(|c| c.reduce_f64s(&[c.rank() as f64, 1.0], ReduceOp::Sum, root).unwrap());
            for (rank, res) in out.iter().enumerate() {
                if rank == root {
                    assert_eq!(res.as_deref(), Some(&[10.0, 5.0][..]));
                } else {
                    assert!(res.is_none());
                }
            }
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..6 {
            let out = Runtime::new(6).run(|c| {
                let data = [root as f64 * 10.0, 7.0];
                c.bcast_f64s(&data, root).unwrap()
            });
            for res in out {
                assert_eq!(res, vec![root as f64 * 10.0, 7.0]);
            }
        }
    }

    #[test]
    fn allreduce_max_and_sum() {
        let out = Runtime::new(7).run(|c| {
            let max = c.allreduce_f64(c.rank() as f64, ReduceOp::Max).unwrap();
            let sum = c.allreduce_f64(1.0, ReduceOp::Sum).unwrap();
            (max, sum)
        });
        for (max, sum) in out {
            assert_eq!(max, 6.0);
            assert_eq!(sum, 7.0);
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_cross() {
        let out = Runtime::new(4).run(|c| {
            let mut acc = Vec::new();
            for round in 0..20 {
                acc.push(c.allreduce_f64(round as f64, ReduceOp::Sum).unwrap());
            }
            acc
        });
        for res in out {
            for (round, v) in res.iter().enumerate() {
                assert_eq!(*v, round as f64 * 4.0);
            }
        }
    }
}
