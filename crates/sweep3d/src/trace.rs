//! Trace generation: SWEEP3D's communication/computation schedule as
//! [`cluster_sim`] op programs.
//!
//! The trace has *exactly* the structure of [`crate::parallel`] — the same
//! octant order, the same per-unit receive/compute/send sequence, the same
//! message sizes and tags, the same per-iteration all-reduce — but with the
//! numerical kernel replaced by its calibrated cost: `flops ≈ cells ×
//! angles × flops-per-cell-angle`, measured by instrumented execution of
//! the real kernel (see [`FlopModel::calibrate`]). Running the trace on a
//! [`cluster_sim::MachineSpec`] yields the "Measurement" columns of the
//! paper's validation tables on machines we do not physically have.
//!
//! Two functions produce the same trace:
//!
//! * [`generate_program_set`] is how every DES caller builds its trace
//!   (validation tables, profiling, studies, campaigns): one iteration
//!   body per mesh role, run `laps` = iterations times, with
//!   [`cluster_sim::Engine::from_set`];
//! * [`generate_programs`] is the per-rank reference — one `Vec<Op>` per
//!   rank — that tests decode the shared set against and that the
//!   benchmark's traced rebuild uses.

use std::collections::HashMap;

use cluster_sim::{Op, Program, ProgramSet, ProgramSetBuilder};
use simmpi::topology::{Cart2d, Direction};

use crate::config::{Decomposition, ProblemConfig};
use crate::parallel::octant_neighbors;
use crate::quadrature::Quadrature;
use crate::serial::{angle_block_list, k_block_list, SerialSolver};
use crate::sweep_order::{msg_tag, OCTANT_ORDER};

/// Calibrated per-cell-angle cost of the sweep kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlopModel {
    /// Average floating-point operations per (cell, angle) visit of the
    /// sweep kernel, fixups included.
    pub flops_per_cell_angle: f64,
    /// Per-cell flops of the source-update subtask.
    pub source_flops_per_cell: f64,
    /// Per-cell flops of the error-evaluation subtask.
    pub flux_err_flops_per_cell: f64,
}

impl FlopModel {
    /// Calibrate by instrumented execution of the serial solver on a small
    /// proxy problem with the same physics parameters. The per-cell-angle
    /// average is insensitive to the grid size (the fixup fraction is set
    /// by the flux field's shape, not its extent), which is what makes the
    /// paper's "profile small, predict large" methodology work.
    pub fn calibrate(reference: &ProblemConfig, proxy_cells: usize) -> Self {
        let mut proxy = ProblemConfig::weak_scaling(proxy_cells, 1, 1);
        proxy.mk = reference.mk.min(proxy_cells);
        proxy.mmi = reference.mmi;
        proxy.sn_order = reference.sn_order;
        proxy.iterations = reference.iterations;
        proxy.sigma_t = reference.sigma_t;
        proxy.scattering_ratio = reference.scattering_ratio;
        proxy.cell_size = reference.cell_size;
        proxy.source_strength = reference.source_strength;
        let solver = SerialSolver::new(&proxy).expect("proxy config valid");
        let cells = proxy.total_cells() as f64;
        let out = solver.run();
        let visits = cells * (8 * proxy.angles_per_octant()) as f64 * proxy.iterations as f64;
        FlopModel {
            flops_per_cell_angle: out.flops.sweep.total() as f64 / visits,
            source_flops_per_cell: out.flops.source as f64 / (cells * proxy.iterations as f64),
            flux_err_flops_per_cell: out.flops.flux_err as f64 / (cells * proxy.iterations as f64),
        }
    }
}

/// Approximate resident working set of one sweep work unit, in bytes:
/// the block's cells touch five f64 arrays, plus the face buffers.
pub fn block_working_set(nx: usize, ny: usize, klen: usize, n_ang: usize) -> usize {
    let cell_bytes = nx * ny * klen * 5 * 8;
    let face_bytes = n_ang * (klen * (nx + ny) + nx * ny) * 8;
    cell_bytes + face_bytes
}

/// Build the legacy op program of a single rank over `iterations`
/// iterations (see [`generate_programs`] for the trace structure). Every
/// iteration emits the same ops: tags name octant, angle block, k block
/// and direction, never the iteration.
fn rank_program(
    config: &ProblemConfig,
    flops: &FlopModel,
    topo: &Cart2d,
    a_blocks: &[(usize, usize)],
    rank: usize,
    iterations: usize,
) -> Program {
    let (pi, pj) = topo.coords(rank);
    let decomp = Decomposition::for_pe(config, pi, pj);
    let (nx, ny) = (decomp.nx, decomp.ny);
    let k_blocks = k_block_list(decomp.nz, config.mk);
    let cells = decomp.cells() as f64;
    let mut prog = Program::new();

    // Emit one octant's (angle-block) pipeline unit sequence.
    let emit_member =
        |prog: &mut Program, octant: crate::sweep_order::Octant, ab: usize, n_ang: usize| {
            let oi = octant.index();
            let (up_i, down_i, up_j, down_j) = octant_neighbors(topo, rank, octant);
            let block_seq: Vec<(usize, (usize, usize))> = if octant.sign_k >= 0 {
                k_blocks.iter().copied().enumerate().collect()
            } else {
                k_blocks.iter().copied().enumerate().rev().collect()
            };
            for (kb, (_k0, klen)) in block_seq {
                let i_bytes = n_ang * klen * ny * 8;
                let j_bytes = n_ang * klen * nx * 8;
                if let Some(src) = up_i {
                    prog.push(Op::Recv { from: src, tag: msg_tag(oi, ab, kb, 0) });
                }
                if let Some(src) = up_j {
                    prog.push(Op::Recv { from: src, tag: msg_tag(oi, ab, kb, 1) });
                }
                let block_flops = (nx * ny * klen * n_ang) as f64 * flops.flops_per_cell_angle;
                prog.push(Op::Compute {
                    flops: block_flops,
                    working_set: block_working_set(nx, ny, klen, n_ang),
                });
                if let Some(dst) = down_i {
                    prog.push(Op::Send { to: dst, bytes: i_bytes, tag: msg_tag(oi, ab, kb, 0) });
                }
                if let Some(dst) = down_j {
                    prog.push(Op::Send { to: dst, bytes: j_bytes, tag: msg_tag(oi, ab, kb, 1) });
                }
            }
        };

    for _iter in 0..iterations {
        // The octant nesting mirrors the drivers exactly: pair-major
        // with per-pair angle blocks under reflective boundaries,
        // octant-major otherwise (see crate::parallel).
        for pair in OCTANT_ORDER.chunks(2) {
            if config.reflective_k {
                for (ab, &(_a0, n_ang)) in a_blocks.iter().enumerate() {
                    for &octant in pair {
                        emit_member(&mut prog, octant, ab, n_ang);
                    }
                }
            } else {
                for &octant in pair {
                    for (ab, &(_a0, n_ang)) in a_blocks.iter().enumerate() {
                        emit_member(&mut prog, octant, ab, n_ang);
                    }
                }
            }
        }
        // flux_err + source subtasks, then the convergence all-reduce.
        prog.push(Op::Compute {
            flops: cells * (flops.flux_err_flops_per_cell + flops.source_flops_per_cell),
            working_set: decomp.cells() * 5 * 8,
        });
        prog.push(Op::AllReduce { bytes: 8 });
    }
    prog
}

fn trace_angle_blocks(config: &ProblemConfig) -> Vec<(usize, usize)> {
    // Only the angle count matters for the trace.
    let quad_len = Quadrature::level_symmetric(config.sn_order).len();
    angle_block_list(quad_len, config.mmi)
}

/// Generate the per-rank programs for a full run of the configured problem.
///
/// This is the per-rank reference form of the trace, used by tests (the
/// decode-equality checks against [`generate_program_set`]) and by the
/// benchmark's traced rebuild. Simulation callers build the shared form
/// with [`generate_program_set`] instead: it stores each role's iteration
/// body once rather than the whole run once per rank.
pub fn generate_programs(config: &ProblemConfig, flops: &FlopModel) -> Vec<Program> {
    config.validate().expect("valid config");
    let topo = Cart2d::new(config.npe_i, config.npe_j);
    let a_blocks = trace_angle_blocks(config);
    (0..config.num_pes())
        .map(|rank| rank_program(config, flops, &topo, &a_blocks, rank, config.iterations))
        .collect()
}

/// A rank's *role* on the processor array: which mesh neighbors exist,
/// plus its local grid extent. Two ranks with the same role run the same
/// op stream — all tags, byte counts and flop counts are determined by
/// the role and the global configuration — and differ only in which
/// concrete ranks their partner slots point at.
type RoleKey = (bool, bool, bool, bool, usize, usize);

/// Generate the trace as a shared [`ProgramSet`]: one iteration body per
/// *role* (corner, edge, interior, …), run `laps` = `config.iterations`
/// times, instead of one whole-run `Vec<Op>` clone per rank. An 8000-PE
/// weak-scaling sweep stores at most nine distinct bodies, so campaign
/// setup is O(roles × ops per iteration + ranks), not O(ranks × ops).
///
/// The decoded per-rank streams are element-wise identical to
/// [`generate_programs`] — a test pins this for every SWEEP3D role.
pub fn generate_program_set(config: &ProblemConfig, flops: &FlopModel) -> ProgramSet {
    config.validate().expect("valid config");
    let topo = Cart2d::new(config.npe_i, config.npe_j);
    let a_blocks = trace_angle_blocks(config);
    let laps = u32::try_from(config.iterations).expect("iteration count fits in u32");
    let mut builder = ProgramSetBuilder::new();
    // role → (interned stream, slot order as mesh directions).
    let mut roles: HashMap<RoleKey, (u32, Vec<Direction>)> = HashMap::new();

    for rank in 0..config.num_pes() {
        let (pi, pj) = topo.coords(rank);
        let decomp = Decomposition::for_pe(config, pi, pj);
        let neighbor = |d: Direction| topo.neighbor(rank, d);
        let key: RoleKey = (
            neighbor(Direction::West).is_some(),
            neighbor(Direction::East).is_some(),
            neighbor(Direction::South).is_some(),
            neighbor(Direction::North).is_some(),
            decomp.nx,
            decomp.ny,
        );
        let (stream, dirs) = roles.entry(key).or_insert_with(|| {
            // First rank of this role: generate one iteration of its
            // legacy program, intern it as a body run once per iteration,
            // and record the slot order as directions so every other rank
            // of the role can map its own neighbors.
            let prog = rank_program(config, flops, &topo, &a_blocks, rank, 1);
            let (stream, partners) = builder.intern_program(&prog, laps);
            let dirs = partners
                .iter()
                .map(|&p| {
                    Direction::ALL
                        .into_iter()
                        .find(|&d| neighbor(d) == Some(p as usize))
                        .expect("every trace partner is a mesh neighbor")
                })
                .collect();
            (stream, dirs)
        });
        let partners: Vec<u32> = dirs
            .iter()
            .map(|&d| neighbor(d).expect("same role implies same neighbor set") as u32)
            .collect();
        builder.push_rank(*stream, partners).expect("role streams are consistent");
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::program::validate_programs;
    use cluster_sim::{Engine, MachineSpec};

    fn flop_model() -> FlopModel {
        FlopModel {
            flops_per_cell_angle: 20.0,
            source_flops_per_cell: 2.0,
            flux_err_flops_per_cell: 3.0,
        }
    }

    fn cfg(px: usize, py: usize) -> ProblemConfig {
        let mut c = ProblemConfig::weak_scaling(4, px, py);
        c.mk = 2;
        c.iterations = 2;
        c
    }

    #[test]
    fn programs_validate_statically() {
        let c = cfg(3, 2);
        let progs = generate_programs(&c, &flop_model());
        assert_eq!(progs.len(), 6);
        validate_programs(&progs).expect("trace must be message-balanced");
    }

    #[test]
    fn trace_runs_without_deadlock() {
        let c = cfg(2, 2);
        let progs = generate_programs(&c, &flop_model());
        let m = MachineSpec::ideal(100.0);
        let report = Engine::new(&m, progs).run().expect("no deadlock");
        assert!(report.makespan() > 0.0);
    }

    #[test]
    fn trace_op_counts_match_parallel_run() {
        // The trace must send exactly the messages the real parallel code
        // sends, with the same byte counts.
        let c = cfg(2, 2);
        let progs = generate_programs(&c, &flop_model());
        let outcomes = crate::parallel::run_parallel(&c).unwrap();
        for (rank, out) in outcomes.iter().enumerate() {
            let sends = progs[rank].count(|op| matches!(op, Op::Send { .. })) as u64;
            // The parallel runtime's collectives also send, so compare only
            // the face-exchange messages tracked by the outcome.
            assert_eq!(sends, out.messages_sent, "rank {rank} send count");
            let bytes = progs[rank].total_sent_bytes() as u64;
            assert_eq!(bytes, out.bytes_sent, "rank {rank} bytes");
        }
    }

    #[test]
    fn corner_rank_has_fewer_messages_than_centre() {
        let c = cfg(3, 3);
        let progs = generate_programs(&c, &flop_model());
        let corner = progs[0].count(|op| matches!(op, Op::Send { .. }));
        let centre = progs[4].count(|op| matches!(op, Op::Send { .. }));
        assert!(corner < centre);
    }

    #[test]
    fn weak_scaling_flops_equal_per_rank() {
        let c = cfg(2, 3);
        let progs = generate_programs(&c, &flop_model());
        let f0 = progs[0].total_flops();
        for p in &progs {
            assert!((p.total_flops() - f0).abs() < 1e-6);
        }
    }

    #[test]
    fn calibration_reports_sane_values() {
        let c = cfg(1, 1);
        let fm = FlopModel::calibrate(&c, 6);
        // Base kernel is 18 flops/cell-angle + per-angle setup + fixups.
        assert!(
            fm.flops_per_cell_angle > 17.0 && fm.flops_per_cell_angle < 40.0,
            "flops/cell-angle {fm:?}"
        );
        assert!((fm.source_flops_per_cell - 2.0).abs() < 1e-9);
        assert!((fm.flux_err_flops_per_cell - 3.0).abs() < 1e-9);
    }

    /// The shared encoding must decode to exactly the programs the legacy
    /// generator emits — per rank, per op, element-wise — for every
    /// SWEEP3D neighbor role: corner (2 neighbors), edge (3), interior
    /// (4), and the degenerate 1-wide boundary column (≤2 neighbors with
    /// no E/W exchange), and at the paper's 12 iterations, where each
    /// role's one-iteration body runs 12 laps.
    #[test]
    fn program_set_decodes_to_legacy_programs_for_all_roles() {
        let fm = flop_model();
        // 3x3 covers corner/edge/interior; 1x4 covers the boundary-column
        // role (no i-direction neighbors at all); 1x1 covers the serial
        // degenerate case.
        let twelve = ProblemConfig { iterations: 12, ..cfg(3, 3) };
        for c in [cfg(3, 3), cfg(1, 4), cfg(1, 1), twelve] {
            let (px, py) = (c.npe_i, c.npe_j);
            let legacy = generate_programs(&c, &fm);
            let set = generate_program_set(&c, &fm);
            assert_eq!(set.num_ranks(), legacy.len());
            for (rank, want) in legacy.iter().enumerate() {
                let got = set.materialize(rank);
                assert_eq!(
                    got.ops(),
                    want.ops(),
                    "{px}x{py} x{} rank {rank}: decoded stream differs from legacy",
                    c.iterations
                );
            }
        }
    }

    #[test]
    fn program_set_stores_one_iteration_per_role() {
        let fm = flop_model();
        let one = generate_program_set(&ProblemConfig { iterations: 1, ..cfg(3, 3) }, &fm);
        let twelve = generate_program_set(&ProblemConfig { iterations: 12, ..cfg(3, 3) }, &fm);
        assert_eq!(twelve.num_streams(), one.num_streams());
        assert_eq!(twelve.stored_ops(), one.stored_ops());
        assert_eq!(twelve.total_ops(), 12 * one.total_ops());
        assert!((0..twelve.num_ranks()).all(|r| twelve.laps(r) == 12));
    }

    #[test]
    fn program_set_interns_one_stream_per_role() {
        let c = cfg(8, 8);
        let set = generate_program_set(&c, &flop_model());
        // An open 2D mesh has at most nine roles (4 corners, 4 edge
        // flavours, interior) regardless of rank count, so 64 ranks store
        // at most 9 streams.
        assert!(set.num_streams() <= 9, "streams {}", set.num_streams());
        assert!(
            set.stored_ops() <= set.total_ops() * 9 / 64,
            "sharing ratio should be ~roles/ranks"
        );
    }

    #[test]
    fn program_set_runs_identically_to_legacy() {
        let c = cfg(3, 2);
        let fm = flop_model();
        let mut m = MachineSpec::ideal(100.0);
        m.noise = cluster_sim::NoiseModel::commodity();
        let a = Engine::new(&m, generate_programs(&c, &fm)).run().unwrap();
        let b = Engine::from_set(&m, generate_program_set(&c, &fm)).run().unwrap();
        assert_eq!(a, b, "shared-set execution must be bit-identical");
    }

    #[test]
    fn makespan_grows_with_pipeline_depth() {
        // Weak scaling: same per-rank work, more pipeline stages.
        let m = MachineSpec::ideal(100.0);
        let fm = flop_model();
        let t_small = {
            let progs = generate_programs(&cfg(1, 2), &fm);
            Engine::new(&m, progs).run().unwrap().makespan()
        };
        let t_large = {
            let progs = generate_programs(&cfg(2, 4), &fm);
            Engine::new(&m, progs).run().unwrap().makespan()
        };
        assert!(t_large > t_small, "deeper pipeline must take longer: {t_large} vs {t_small}");
    }
}
