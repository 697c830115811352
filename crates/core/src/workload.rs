//! The workload abstraction: parallel application templates as first-class
//! objects.
//!
//! Historically this repository modelled exactly one application — SWEEP3D —
//! and every layer above `pace-core` was welded to [`Sweep3dParams`]. The
//! [`Workload`] enum names the closed set of templates the library ships,
//! one variant per template with its parameter struct, and supplies
//!
//! * the **analytic prediction inputs** — an [`ApplicationObject`] the
//!   evaluation engine prices against a [`HardwareModel`](crate::HardwareModel);
//! * a **discrete-event lowering** — a [`ProgramSet`] the `cluster-sim`
//!   engine replays rank by rank on a machine's simulated half;
//! * a stable **kind string** and **parameter digest** used for cache keys,
//!   campaign-planner deduplication and scenario identity.
//!
//! Three workloads ship with the library, one [`Workload`] variant each:
//!
//! | kind       | structure                                  | template       |
//! |------------|--------------------------------------------|----------------|
//! | `sweep3d`  | pipelined synchronous wavefront (the paper) | `pipeline`     |
//! | `stencil`  | bulk-synchronous 2D halo exchange           | `halo`         |
//! | `allreduce`| collective-dominated CG-style solver        | `collective`   |
//!
//! The SWEEP3D implementation is a mechanical refactor of the pre-existing
//! model and DES trace paths and is pinned bit-identical to them by the
//! `workload_identity` differential tests.
//!
//! Adding a template means adding a variant: every `match` on [`Workload`]
//! across the workspace that must grow then fails to compile.

use std::borrow::Cow;

use cluster_sim::{Fnv1a, Op, Program, ProgramSet};
use serde::{Deserialize, Serialize};

use crate::clc::ResourceVector;
use crate::model::{ApplicationObject, SubtaskObject, TemplateBinding};
use crate::sweep3d_model::{Sweep3dModel, Sweep3dParams};
use crate::templates::collective::{CollectiveParams, ReduceKind};
use crate::templates::halo::HaloParams;

/// Bytes of state per grid cell the DES lowerings charge as compute working
/// set (three double-precision arrays — e.g. `u`, `u_next` and a
/// coefficient field for the stencil; `x`, `r`, `p` for the solver). The
/// achieved-rate curve of the simulated CPU is keyed on working-set bytes,
/// the analytic rate table on cells per processor; this constant is the
/// published conversion between the two for the non-wavefront workloads.
pub const BYTES_PER_CELL: usize = 3 * 8;

// ---------------------------------------------------------------------------
// The enum
// ---------------------------------------------------------------------------

/// A parallel application workload: one template of the library with its
/// parameters. Each variant supplies analytic model inputs, a
/// discrete-event lowering and a stable identity.
///
/// Equality is equality of `(kind, param_digest)` — the same key the
/// campaign planner dedups on.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// The pipelined synchronous wavefront (SWEEP3D, the paper's subject).
    Wavefront(Sweep3dParams),
    /// The bulk-synchronous 2D halo-exchange stencil.
    Stencil(StencilParams),
    /// The allreduce-dominated CG-style solver.
    Allreduce(AllreduceParams),
}

impl Workload {
    /// The template this workload instantiates (its CLI and spec-file
    /// identifier is [`WorkloadKind::name`]).
    pub fn template(&self) -> WorkloadKind {
        match self {
            Workload::Wavefront(_) => WorkloadKind::Wavefront,
            Workload::Stencil(_) => WorkloadKind::Stencil,
            Workload::Allreduce(_) => WorkloadKind::Allreduce,
        }
    }

    /// Stable kind string (`"sweep3d"`, `"stencil"`, …). Reported as the
    /// `application` of every [`EvaluationReport`](crate::EvaluationReport)
    /// and used as the first component of cache/scenario identity.
    pub fn kind(&self) -> &'static str {
        self.template().kind()
    }

    /// Number of MPI ranks the workload decomposes over.
    pub fn pes(&self) -> usize {
        match self {
            Workload::Wavefront(p) => p.px * p.py,
            Workload::Stencil(p) => p.px * p.py,
            Workload::Allreduce(p) => p.procs,
        }
    }

    /// Outer iteration count.
    pub fn iterations(&self) -> usize {
        match self {
            Workload::Wavefront(p) => p.iterations,
            Workload::Stencil(p) => p.iterations,
            Workload::Allreduce(p) => p.iterations,
        }
    }

    /// The application-layer object the analytic evaluation engine prices.
    pub fn application(&self) -> ApplicationObject {
        match self {
            Workload::Wavefront(p) => Sweep3dModel::new(*p).application_object(),
            Workload::Stencil(p) => p.application(),
            Workload::Allreduce(p) => p.application(),
        }
    }

    /// Lower the workload to a rank-by-rank [`ProgramSet`] for the
    /// discrete-event engine. The machine is available for lowerings that
    /// adapt blocking to the target; the shipped workloads are
    /// machine-independent and ignore it.
    pub fn program_set(&self, machine: &cluster_sim::MachineSpec) -> Result<ProgramSet, String> {
        match self {
            Workload::Wavefront(p) => p.program_set(machine),
            Workload::Stencil(p) if p.px == 0 || p.py == 0 || p.nx == 0 || p.ny == 0 => {
                Err("stencil grid extents must be positive".to_string())
            }
            Workload::Stencil(p) => Ok(ProgramSet::from_programs(&p.programs())),
            Workload::Allreduce(p) if p.procs == 0 => {
                Err("allreduce needs at least one rank".to_string())
            }
            Workload::Allreduce(p) => Ok(ProgramSet::from_programs(&p.programs())),
        }
    }

    /// Stable digest over the workload's parameters (kind included). Two
    /// workloads with equal digests are interchangeable for caching,
    /// planner deduplication and snapshot-prefix sharing.
    pub fn param_digest(&self) -> u64 {
        // Canonical field encodings (never `Hash` derive output): the
        // digest keys scenario identity, stores and the planner, so it
        // must be stable across runs and platforms.
        let mut d = Fnv1a::new().bytes(self.kind().as_bytes());
        let mut feed = |fields: &[u64]| fields.iter().for_each(|&v| d = d.u64(v));
        match self {
            Workload::Wavefront(p) => {
                feed(&[
                    p.px as u64,
                    p.py as u64,
                    p.nx as u64,
                    p.ny as u64,
                    p.nz as u64,
                    p.mk as u64,
                    p.mmi as u64,
                    p.angles_per_octant as u64,
                    p.iterations as u64,
                ]);
                let k = &p.kernel;
                for v in [&k.sweep_per_cell_angle, &k.source_per_cell, &k.flux_err_per_cell] {
                    feed(&[v.mfdg, v.afdg, v.dfdg, v.ifbr, v.lfor, v.cmld].map(f64::to_bits));
                }
            }
            Workload::Stencil(p) => feed(&[
                p.px as u64,
                p.py as u64,
                p.nx as u64,
                p.ny as u64,
                p.iterations as u64,
                p.flops_per_cell.to_bits(),
            ]),
            Workload::Allreduce(p) => feed(&[
                p.procs as u64,
                p.cells_per_pe as u64,
                p.flops_per_cell.to_bits(),
                p.reduce_bytes as u64,
                p.reductions_per_iteration as u64,
                p.iterations as u64,
            ]),
        }
        d.finish()
    }
}

impl PartialEq for Workload {
    fn eq(&self, other: &Self) -> bool {
        self.kind() == other.kind() && self.param_digest() == other.param_digest()
    }
}

impl From<Sweep3dParams> for Workload {
    fn from(p: Sweep3dParams) -> Self {
        Workload::Wavefront(p)
    }
}

impl From<StencilParams> for Workload {
    fn from(p: StencilParams) -> Self {
        Workload::Stencil(p)
    }
}

impl From<AllreduceParams> for Workload {
    fn from(p: AllreduceParams) -> Self {
        Workload::Allreduce(p)
    }
}

// ---------------------------------------------------------------------------
// SWEEP3D: the wavefront workload (mechanical refactor of the old paths)
// ---------------------------------------------------------------------------

/// Recover the S_N order from an angles-per-octant count
/// (`angles = N(N+2)/8`, N even).
pub fn sn_order_for(angles_per_octant: usize) -> Result<usize, String> {
    (2..=64).step_by(2).find(|n| n * (n + 2) / 8 == angles_per_octant).ok_or_else(|| {
        format!("no even S_N order ≤ 64 yields {angles_per_octant} angles per octant")
    })
}

/// Translate the analytic parameter set into the simulator's problem
/// configuration (same decomposition, blocking and iteration count).
pub fn sweep3d_problem_config(params: &Sweep3dParams) -> Result<sweep3d::ProblemConfig, String> {
    let mut c = sweep3d::ProblemConfig::weak_scaling(1, params.px, params.py);
    c.it = params.nx * params.px;
    c.jt = params.ny * params.py;
    c.kt = params.nz;
    c.mk = params.mk.min(params.nz);
    c.mmi = params.mmi;
    c.sn_order = sn_order_for(params.angles_per_octant)?;
    c.iterations = params.iterations;
    c.validate()?;
    Ok(c)
}

/// The per-cell flop weights the trace generator should charge, taken from
/// the same kernel characterisation the analytic backends price.
pub fn sweep3d_flop_model(params: &Sweep3dParams) -> sweep3d::trace::FlopModel {
    sweep3d::trace::FlopModel {
        flops_per_cell_angle: params.kernel.sweep_per_cell_angle.flops(),
        source_flops_per_cell: params.kernel.source_per_cell.flops(),
        flux_err_flops_per_cell: params.kernel.flux_err_per_cell.flops(),
    }
}

impl Sweep3dParams {
    /// Build the interned program set the DES backend replays. The
    /// lowering is machine-independent, so `_machine` is unused; campaign
    /// planners pay trace generation once per problem cell and fork the
    /// simulation prefix across what-ifs.
    pub fn program_set(&self, _machine: &cluster_sim::MachineSpec) -> Result<ProgramSet, String> {
        let config = sweep3d_problem_config(self)?;
        Ok(sweep3d::trace::generate_program_set(&config, &sweep3d_flop_model(self)))
    }
}

// ---------------------------------------------------------------------------
// Stencil: bulk-synchronous 2D halo exchange
// ---------------------------------------------------------------------------

/// A 2D Jacobi-style halo-exchange stencil on a `px × py` processor grid:
/// each rank owns an `nx × ny` subgrid; every iteration updates it and
/// exchanges one face with each mesh neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StencilParams {
    /// Processor-grid extent in `x`.
    pub px: usize,
    /// Processor-grid extent in `y`.
    pub py: usize,
    /// Local subgrid cells in `x`.
    pub nx: usize,
    /// Local subgrid cells in `y`.
    pub ny: usize,
    /// Outer iterations.
    pub iterations: usize,
    /// Flops per cell per update (a 5-point stencil costs ~6).
    pub flops_per_cell: f64,
}

impl StencilParams {
    /// The library's weak-scaling configuration: 1000×1000 cells per rank
    /// (the faces are 8 kB, large enough to exercise MPI rendezvous
    /// protocols), a 5-point update, 100 iterations.
    pub fn weak_scaling(px: usize, py: usize) -> Self {
        assert!(px >= 1 && py >= 1);
        StencilParams { px, py, nx: 1000, ny: 1000, iterations: 100, flops_per_cell: 6.0 }
    }

    /// Cells per processor.
    pub fn cells_per_pe(&self) -> usize {
        self.nx * self.ny
    }

    /// Bytes of one east/west face message.
    pub fn x_msg_bytes(&self) -> usize {
        self.ny * 8
    }

    /// Bytes of one north/south face message.
    pub fn y_msg_bytes(&self) -> usize {
        self.nx * 8
    }

    fn update_flops(&self) -> f64 {
        self.cells_per_pe() as f64 * self.flops_per_cell
    }

    /// Rank-by-rank trace of the checkerboard exchange (see
    /// [`Workload::program_set`]); exposed for validation tests.
    pub fn programs(&self) -> Vec<Program> {
        let (px, py) = (self.px, self.py);
        let working_set = self.cells_per_pe() * BYTES_PER_CELL;
        // Tags name the direction a message travels, so sender and
        // receiver derive the same tag independently.
        const EASTBOUND: u32 = 0;
        const WESTBOUND: u32 = 1;
        const NORTHBOUND: u32 = 2;
        const SOUTHBOUND: u32 = 3;
        (0..px * py)
            .map(|rank| {
                let (pi, pj) = (rank % px, rank / px);
                let west = (pi > 0).then(|| rank - 1);
                let east = (pi + 1 < px).then(|| rank + 1);
                let south = (pj > 0).then(|| rank - px);
                let north = (pj + 1 < py).then(|| rank + px);
                let mut prog = Program::new();
                for iter in 0..self.iterations {
                    prog.push(Op::Compute { flops: self.update_flops(), working_set });
                    let t = |dir: u32| (iter * 4) as u32 + dir;
                    let sends = |prog: &mut Program| {
                        if let Some(to) = west {
                            prog.push(Op::Send {
                                to,
                                bytes: self.x_msg_bytes(),
                                tag: t(WESTBOUND),
                            });
                        }
                        if let Some(to) = east {
                            prog.push(Op::Send {
                                to,
                                bytes: self.x_msg_bytes(),
                                tag: t(EASTBOUND),
                            });
                        }
                        if let Some(to) = south {
                            prog.push(Op::Send {
                                to,
                                bytes: self.y_msg_bytes(),
                                tag: t(SOUTHBOUND),
                            });
                        }
                        if let Some(to) = north {
                            prog.push(Op::Send {
                                to,
                                bytes: self.y_msg_bytes(),
                                tag: t(NORTHBOUND),
                            });
                        }
                    };
                    let recvs = |prog: &mut Program| {
                        if let Some(from) = west {
                            prog.push(Op::Recv { from, tag: t(EASTBOUND) });
                        }
                        if let Some(from) = east {
                            prog.push(Op::Recv { from, tag: t(WESTBOUND) });
                        }
                        if let Some(from) = south {
                            prog.push(Op::Recv { from, tag: t(NORTHBOUND) });
                        }
                        if let Some(from) = north {
                            prog.push(Op::Recv { from, tag: t(SOUTHBOUND) });
                        }
                    };
                    // Checkerboard order: even-parity ranks send first, odd
                    // ranks receive first. The exchange graph is bipartite,
                    // so every send faces an already-posted (or imminently
                    // posted) receive and the schedule is deadlock-free even
                    // under a blocking rendezvous protocol.
                    if (pi + pj) % 2 == 0 {
                        sends(&mut prog);
                        recvs(&mut prog);
                    } else {
                        recvs(&mut prog);
                        sends(&mut prog);
                    }
                }
                prog
            })
            .collect()
    }

    /// The application-layer object the analytic engine prices (see
    /// [`Workload::application`]).
    pub fn application(&self) -> ApplicationObject {
        let flops = self.update_flops();
        let cells = self.cells_per_pe();
        // Split the per-cell cost into a multiply/add mix so the clc
        // vector's flop total reproduces `flops_per_cell` exactly.
        let per_unit = ResourceVector {
            mfdg: self.flops_per_cell * 0.5,
            afdg: self.flops_per_cell * 0.5,
            ..Default::default()
        };
        ApplicationObject {
            name: WorkloadKind::Stencil.kind().into(),
            iterations: self.iterations,
            subtasks: vec![SubtaskObject {
                name: "update".into(),
                flops,
                per_unit,
                units: cells as f64,
                cells_per_pe: cells,
                template: TemplateBinding::Halo(HaloParams {
                    px: self.px,
                    py: self.py,
                    flops,
                    cells_per_pe: cells,
                    x_msg_bytes: self.x_msg_bytes(),
                    y_msg_bytes: self.y_msg_bytes(),
                }),
            }],
        }
    }
}

// ---------------------------------------------------------------------------
// Allreduce: a collective-dominated CG-style iterative solver
// ---------------------------------------------------------------------------

/// An allreduce-dominated iterative solver in the shape of conjugate
/// gradients: every iteration does embarrassingly-parallel vector work and
/// a fixed number of small global reductions (the dot products) whose
/// log₂-depth collectives dominate at scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllreduceParams {
    /// Ranks participating (no mesh structure — collectives are global).
    pub procs: usize,
    /// Vector elements per rank.
    pub cells_per_pe: usize,
    /// Flops per element per iteration (sparse mat-vec + two axpys ≈ 10).
    pub flops_per_cell: f64,
    /// Payload of one reduction (one f64 dot product = 8).
    pub reduce_bytes: usize,
    /// Reductions per iteration (CG does two dot products).
    pub reductions_per_iteration: usize,
    /// Outer iterations.
    pub iterations: usize,
}

impl AllreduceParams {
    /// The library's CG-like configuration: 250 k elements per rank,
    /// 10 flops per element, two 8-byte reductions, 200 iterations.
    pub fn cg_like(procs: usize) -> Self {
        assert!(procs >= 1);
        AllreduceParams {
            procs,
            cells_per_pe: 250_000,
            flops_per_cell: 10.0,
            reduce_bytes: 8,
            reductions_per_iteration: 2,
            iterations: 200,
        }
    }

    fn local_flops(&self) -> f64 {
        self.cells_per_pe as f64 * self.flops_per_cell
    }

    /// Rank-by-rank trace (see [`Workload::program_set`]); exposed for
    /// validation tests.
    pub fn programs(&self) -> Vec<Program> {
        let working_set = self.cells_per_pe * BYTES_PER_CELL;
        (0..self.procs)
            .map(|_| {
                let mut prog = Program::new();
                for _ in 0..self.iterations {
                    prog.push(Op::Compute { flops: self.local_flops(), working_set });
                    for _ in 0..self.reductions_per_iteration {
                        prog.push(Op::AllReduce { bytes: self.reduce_bytes });
                    }
                }
                prog
            })
            .collect()
    }

    /// The application-layer object the analytic engine prices (see
    /// [`Workload::application`]).
    pub fn application(&self) -> ApplicationObject {
        let per_unit = ResourceVector {
            mfdg: self.flops_per_cell * 0.5,
            afdg: self.flops_per_cell * 0.5,
            ..Default::default()
        };
        let mut subtasks = vec![SubtaskObject {
            name: "local".into(),
            flops: self.local_flops(),
            per_unit,
            units: self.cells_per_pe as f64,
            cells_per_pe: self.cells_per_pe,
            template: TemplateBinding::Async,
        }];
        for i in 0..self.reductions_per_iteration {
            subtasks.push(SubtaskObject {
                name: reduce_name(i),
                flops: 0.0,
                per_unit: ResourceVector::zero(),
                units: 0.0,
                cells_per_pe: self.cells_per_pe,
                template: TemplateBinding::Collective(CollectiveParams {
                    kind: ReduceKind::Sum,
                    bytes: self.reduce_bytes,
                    procs: self.procs,
                }),
            });
        }
        ApplicationObject {
            name: WorkloadKind::Allreduce.kind().into(),
            iterations: self.iterations,
            subtasks,
        }
    }
}

/// The name of the allreduce workload's `i`-th reduction subtask,
/// `reduce.{i}`: a literal for the first few, so a report copies it for
/// free, formatted past them.
fn reduce_name(i: usize) -> Cow<'static, str> {
    const NAMES: [&str; 4] = ["reduce.0", "reduce.1", "reduce.2", "reduce.3"];
    NAMES.get(i).map_or_else(|| format!("reduce.{i}").into(), |&name| name.into())
}

// ---------------------------------------------------------------------------
// CLI-facing workload identifiers
// ---------------------------------------------------------------------------

/// The workload templates selectable from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The pipelined synchronous wavefront (SWEEP3D, the paper's subject).
    Wavefront,
    /// The bulk-synchronous 2D halo-exchange stencil.
    Stencil,
    /// The allreduce-dominated CG-style solver.
    Allreduce,
}

impl WorkloadKind {
    /// Every selectable workload.
    pub const ALL: [WorkloadKind; 3] =
        [WorkloadKind::Wavefront, WorkloadKind::Stencil, WorkloadKind::Allreduce];

    /// Parse a CLI identifier. The error lists every valid identifier.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL.into_iter().find(|k| k.name() == s).ok_or_else(|| {
            let names: Vec<&str> = Self::ALL.iter().map(|k| k.name()).collect();
            format!("unknown workload '{s}' (expected one of: {})", names.join(", "))
        })
    }

    /// The CLI identifier.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Wavefront => "wavefront",
            WorkloadKind::Stencil => "stencil",
            WorkloadKind::Allreduce => "allreduce",
        }
    }

    /// The [`Workload::kind`] string of this template.
    pub fn kind(self) -> &'static str {
        match self {
            WorkloadKind::Wavefront => "sweep3d",
            WorkloadKind::Stencil => "stencil",
            WorkloadKind::Allreduce => "allreduce",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::program::validate_programs;
    use cluster_sim::{Engine, MachineSpec};

    use crate::comm::CommModel;
    use crate::engine::EvaluationEngine;
    use crate::HardwareModel;

    #[test]
    fn sweep3d_workload_mirrors_the_direct_model() {
        let p = Sweep3dParams::weak_scaling_50cubed(4, 6);
        let w = Workload::from(p);
        assert_eq!(w.kind(), "sweep3d");
        assert_eq!(w.pes(), 24);
        assert_eq!(w.iterations(), 12);
        assert_eq!(w.application(), Sweep3dModel::new(p).application_object());
        let set = w.program_set(&MachineSpec::ideal(100.0)).unwrap();
        assert_eq!(set.num_ranks(), 24);
    }

    #[test]
    fn sweep3d_config_mirrors_params() {
        let p = Sweep3dParams::weak_scaling_50cubed(4, 6);
        let c = sweep3d_problem_config(&p).unwrap();
        assert_eq!((c.it, c.jt, c.kt), (200, 300, 50));
        assert_eq!((c.npe_i, c.npe_j), (4, 6));
        assert_eq!((c.mk, c.mmi, c.sn_order, c.iterations), (10, 3, 6, 12));
    }

    #[test]
    fn sn_order_inverts_angle_counts() {
        assert!(sn_order_for(6) == Ok(6) && sn_order_for(1) == Ok(2));
        assert!(sn_order_for(7).is_err());
    }

    #[test]
    fn digests_separate_kinds_and_params() {
        let s1 = Workload::from(StencilParams::weak_scaling(2, 2));
        let s2 = Workload::from(StencilParams::weak_scaling(2, 3));
        let a = Workload::from(AllreduceParams::cg_like(4));
        let w = Workload::from(Sweep3dParams::weak_scaling_50cubed(2, 2));
        let digests = [s1.param_digest(), s2.param_digest(), a.param_digest(), w.param_digest()];
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "digest collision between {i} and {j}");
            }
        }
        assert_eq!(s1, s1, "workload equality is (kind, digest)");
        assert!(s1 != s2);
    }

    #[test]
    fn stencil_trace_is_balanced_and_deadlock_free_under_rendezvous() {
        let mut p = StencilParams::weak_scaling(3, 4);
        p.iterations = 3;
        let programs = p.programs();
        validate_programs(&programs).expect("sends and receives must pair up");
        // Faces are 8 kB; a 4 kB rendezvous threshold makes every exchange
        // a blocking hand-shake, so completion proves the checkerboard
        // order is deadlock-free.
        let machine = MachineSpec::ideal(100.0).with_rendezvous(4096);
        let report = Engine::new(&machine, programs).run().expect("stencil trace must complete");
        assert!(report.makespan() > 0.0);
    }

    #[test]
    fn stencil_analytic_matches_des_on_an_ideal_machine() {
        // Free network + flat CPU: both engines reduce to pure compute, so
        // they must agree to float tolerance.
        let mut p = StencilParams::weak_scaling(3, 3);
        p.iterations = 5;
        let hw = HardwareModel::flat_rate("ideal", 100.0, CommModel::free());
        let analytic = EvaluationEngine::new().evaluate(&p.application(), &hw).total_secs;
        let machine = MachineSpec::ideal(100.0);
        let set = Workload::from(p).program_set(&machine).unwrap();
        let des = Engine::from_set(&machine, set).run().unwrap().makespan();
        assert!(
            (analytic - des).abs() / analytic < 1e-9,
            "ideal-machine stencil mismatch: analytic {analytic} vs DES {des}"
        );
    }

    #[test]
    fn allreduce_trace_is_balanced_and_runs() {
        let mut p = AllreduceParams::cg_like(6);
        p.iterations = 4;
        let programs = p.programs();
        validate_programs(&programs).expect("collective counts must agree across ranks");
        let machine = MachineSpec::ideal(200.0);
        let des = Engine::new(&machine, programs).run().unwrap().makespan();
        let hw = HardwareModel::flat_rate("ideal", 200.0, CommModel::free());
        let analytic = EvaluationEngine::new().evaluate(&p.application(), &hw).total_secs;
        assert!(
            (analytic - des).abs() / analytic < 1e-9,
            "ideal-machine allreduce mismatch: analytic {analytic} vs DES {des}"
        );
    }

    #[test]
    fn allreduce_collectives_grow_with_log_procs() {
        let comm = CommModel {
            send: crate::comm::CommCurve::linear(5.0, 0.01),
            recv: crate::comm::CommCurve::linear(5.0, 0.01),
            pingpong: crate::comm::CommCurve::linear(40.0, 0.02),
        };
        let hw = HardwareModel::flat_rate("t", 200.0, comm);
        let t = |procs| {
            let p = AllreduceParams::cg_like(procs);
            EvaluationEngine::new().evaluate(&p.application(), &hw).total_secs
        };
        assert!(t(16) > t(2), "more ranks pay deeper reduction trees");
        assert!((t(1) - t(16)).abs() > 0.0, "collectives must not be free at 16 ranks");
    }

    #[test]
    fn workload_kind_parses_and_rejects() {
        for k in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(k.name()), Ok(k));
        }
        let err = WorkloadKind::parse("tensor").unwrap_err();
        assert!(
            err.contains("wavefront") && err.contains("stencil") && err.contains("allreduce"),
            "error must list every identifier: {err}"
        );
        assert_eq!(WorkloadKind::Wavefront.kind(), "sweep3d");
    }
}
