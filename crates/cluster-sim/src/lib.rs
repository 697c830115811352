//! # cluster-sim — a deterministic discrete-event cluster simulator
//!
//! This crate stands in for the physical machines of the paper (Pentium 3 /
//! Myrinet, Opteron / Gigabit Ethernet, SGI Altix / NUMAlink — see DESIGN.md
//! §2). It executes *per-rank op programs* — sequences of
//! [`Op::Compute`], [`Op::Send`], [`Op::Recv`], [`Op::AllReduce`] and
//! [`Op::Barrier`] — in virtual time over a parameterised machine model:
//!
//! * a **CPU model** with a working-set-dependent achieved-flop-rate curve
//!   (the memory-hierarchy effect the paper's coarse benchmarking captures)
//!   and an SMP memory-contention factor (the Altix effect),
//! * an **interconnect model** with sender overhead, wire time and receiver
//!   overhead derived from the paper's piecewise-linear Eq. 3 family,
//!   plus per-NIC serialisation (contention),
//! * an **OS-noise model** injecting seeded multiplicative compute
//!   perturbations and per-message jitter ("background processes, network
//!   load and minor fluctuations", paper §5).
//!
//! The simulation is fully deterministic for a given seed: noise is drawn
//! per-rank in program order, independent of scheduling interleavings.
//! [`Engine::run`] is the driver every user path runs: one scheduler
//! state over the whole mesh, executing each op through one interpreter.
//! [`Engine::run_paused`] stops a run after a number of activations;
//! [`Paused::snapshot`] then forks that prefix into variants (rate
//! what-ifs) that resume from it. [`ReferenceEngine`] is the seed engine,
//! kept as the oracle the tests compare against.
//!
//! A second, windowed-parallel driver (`par`) runs the same interpreter
//! per rank partition and gives the same `RunReport` bit for bit. It is
//! hidden: only the benchmark's traced speculation rebuild and the
//! engine-equivalence tests call it, and ROADMAP item 2 deletes it.
//!
//! ```
//! use cluster_sim::{Engine, MachineSpec, Program, Op};
//!
//! let machine = MachineSpec::ideal(100.0); // 100 MFLOPS, zero-cost network
//! let mut programs = vec![Program::new(), Program::new()];
//! programs[0].push(Op::Compute { flops: 1e6, working_set: 0 });
//! programs[0].push(Op::Send { to: 1, bytes: 8, tag: 1 });
//! programs[1].push(Op::Recv { from: 0, tag: 1 });
//! let report = Engine::new(&machine, programs).run().unwrap();
//! assert!((report.makespan() - 0.01).abs() < 1e-9); // 1e6 flops @ 100 MFLOPS
//! ```

pub mod cpu;
pub mod engine;
pub mod error;
pub mod machine;
pub mod network;
pub mod noise;
#[doc(hidden)]
pub mod par;
pub mod program;
pub mod progset;
pub mod reference;
pub mod stats;
pub mod time;
pub mod timeline;

pub use cpu::CpuModel;
pub use engine::{snapshot_compatible, Engine, MemProbe, Paused};
pub use error::{SimError, SimResult};
pub use machine::MachineSpec;
pub use network::{NetworkModel, PiecewiseSegments};
pub use noise::NoiseModel;
#[doc(hidden)]
pub use par::{zero_lookahead_fallbacks, ParStats, PARTITION_PID};
pub use program::{Op, Program};
pub use progset::{ProgramSet, ProgramSetBuilder, SharedOp};
pub use reference::ReferenceEngine;
pub use stats::{RankStats, RunReport};
pub use time::SimTime;
