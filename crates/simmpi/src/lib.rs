//! # simmpi — a threaded message-passing runtime
//!
//! A small, MPI-flavoured message-passing substrate used to *execute* the
//! SWEEP3D pipelined wavefront application in parallel on a single host.
//! Each simulated rank runs on its own OS thread; point-to-point messages
//! are matched on `(source, tag)` exactly as in MPI, and the collectives
//! needed by SWEEP3D (`barrier`, `reduce`, `allreduce`, `bcast`) are built
//! from point-to-point trees.
//!
//! The paper models an application written against MPI; Rust MPI bindings
//! are immature, so this crate supplies the same programming model in-process
//! (see DESIGN.md §2). The semantics intentionally mirror the blocking
//! `MPI_Send`/`MPI_Recv` subset SWEEP3D uses:
//!
//! * sends are buffered (never block on a matching receive),
//! * receives block until a matching envelope arrives,
//! * matching is FIFO per `(source, tag)` pair, with no wildcards.
//!
//! ## Quick example
//!
//! ```
//! use simmpi::{Runtime, ReduceOp};
//!
//! let outputs = Runtime::new(4).run(|comm| {
//!     // ring: each rank sends its rank number to the right.
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send_f64s(right, 7, &[comm.rank() as f64]).unwrap();
//!     let msg = comm.recv_f64s(left, 7).unwrap();
//!     let total = comm.allreduce_f64(msg[0], ReduceOp::Sum).unwrap();
//!     total
//! });
//! assert!(outputs.iter().all(|&t| t == 0.0 + 1.0 + 2.0 + 3.0));
//! ```

pub mod comm;
pub mod error;
pub mod message;
pub mod runtime;
pub mod topology;

pub use comm::Comm;
pub use error::{MpiError, Result};
pub use message::{Message, Payload};
pub use runtime::Runtime;
pub use topology::Cart2d;

/// Reduction operators supported by [`Comm::reduce_f64s`](crate::Comm::reduce_f64s) and friends.
///
/// SWEEP3D needs `Sum` (inner flux iteration error via `global_real_sum`)
/// and `Max` (`global_real_max` for convergence tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Arithmetic sum.
    Sum,
    /// Maximum value.
    Max,
    /// Minimum value.
    Min,
    /// Product.
    Prod,
}

impl ReduceOp {
    /// Apply the operator to two operands.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Prod => a * b,
        }
    }

    /// Identity element of the operator.
    #[inline]
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Prod => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_op_identities() {
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod] {
            for v in [-3.5, 0.0, 1.0, 42.0] {
                assert_eq!(op.apply(op.identity(), v), v, "{op:?} identity failed");
            }
        }
    }

    #[test]
    fn reduce_op_commutes() {
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod] {
            assert_eq!(op.apply(2.0, 5.0), op.apply(5.0, 2.0));
        }
    }
}
