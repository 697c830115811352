//! The pipelined parallel wavefront driver over `simmpi`.
//!
//! The global grid is distributed over a `Px × Py` processor array; within
//! an octant, every `(angle-block, k-block)` work unit on a rank first
//! receives its upstream `i` and `j` boundary faces (or uses vacuum at the
//! domain boundary), sweeps the local subgrid block, then forwards the
//! outgoing faces downstream (paper §2, Fig. 6's `pipeline` template).
//! Octant pairs share an entry corner so the `k±` sweeps chain; successive
//! corners are adjacent, letting the next sweep fill while the previous
//! drains — the pipelining the paper's `pipeline` parallel template
//! characterises.
//!
//! The driver is numerically *identical* to [`crate::serial`]: each local
//! cell sees the same inflow values in the same order, so the distributed
//! flux field is bit-for-bit equal to the serial one (asserted in the
//! integration tests).

use simmpi::{Comm, ReduceOp, Runtime};

use crate::config::{Decomposition, ProblemConfig};
use crate::grid::LocalGrid;
use crate::kernel::{sweep_block, BlockShape};
use crate::quadrature::Quadrature;
use crate::serial::{angle_block_list, k_block_list, SubtaskFlops};
use crate::sweep_order::{msg_tag, Octant, OCTANT_ORDER};
use simmpi::topology::{Cart2d, Direction};

/// Per-rank result of a parallel solve.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// Rank id.
    pub rank: usize,
    /// The rank's subgrid origin and extent.
    pub decomp: Decomposition,
    /// Final local scalar flux.
    pub flux: Vec<f64>,
    /// Per-iteration global max-norm flux change (identical on all ranks).
    pub errors: Vec<f64>,
    /// Local flop tallies.
    pub flops: SubtaskFlops,
    /// Messages this rank sent.
    pub messages_sent: u64,
    /// Bytes this rank sent.
    pub bytes_sent: u64,
}

/// Upstream/downstream neighbours of a rank for a given octant.
pub fn octant_neighbors(
    topo: &Cart2d,
    rank: usize,
    octant: Octant,
) -> (Option<usize>, Option<usize>, Option<usize>, Option<usize>) {
    let (up_i_dir, down_i_dir) = if octant.sign_i > 0 {
        (Direction::West, Direction::East)
    } else {
        (Direction::East, Direction::West)
    };
    let (up_j_dir, down_j_dir) = if octant.sign_j > 0 {
        (Direction::South, Direction::North)
    } else {
        (Direction::North, Direction::South)
    };
    (
        topo.neighbor(rank, up_i_dir),
        topo.neighbor(rank, down_i_dir),
        topo.neighbor(rank, up_j_dir),
        topo.neighbor(rank, down_j_dir),
    )
}

/// Solve the problem on `config.num_pes()` threaded ranks; returns one
/// outcome per rank, in rank order.
pub fn run_parallel(config: &ProblemConfig) -> Result<Vec<RankOutcome>, String> {
    config.validate()?;
    let topo = Cart2d::new(config.npe_i, config.npe_j);
    let outcomes = Runtime::new(config.num_pes()).run(|comm| rank_main(config, &topo, comm));
    Ok(outcomes)
}

/// The per-rank solver body.
fn rank_main(config: &ProblemConfig, topo: &Cart2d, comm: &Comm) -> RankOutcome {
    let rank = comm.rank();
    let (pi, pj) = topo.coords(rank);
    let decomp = Decomposition::for_pe(config, pi, pj);
    let mut grid = LocalGrid::new(config, &decomp);
    let quad = Quadrature::level_symmetric(config.sn_order);
    let k_blocks = k_block_list(grid.nz, config.mk);
    let a_blocks = angle_block_list(quad.len(), config.mmi);
    let (nx, ny) = (grid.nx, grid.ny);

    let mut flops = SubtaskFlops::default();
    let mut errors = Vec::with_capacity(config.iterations);
    let mut messages_sent = 0u64;
    let mut bytes_sent = 0u64;

    // One octant's pipelined sweep of one angle block: receive upstream
    // faces per k block, sweep, forward downstream. The k-face state is
    // caller-owned so an octant pair can share it under reflective
    // boundaries.
    #[allow(clippy::too_many_arguments)]
    fn sweep_member(
        grid: &mut LocalGrid,
        comm: &Comm,
        topo: &Cart2d,
        quad: &Quadrature,
        k_blocks: &[(usize, usize)],
        octant: Octant,
        ab: usize,
        a0: usize,
        n_ang: usize,
        phik: &mut [f64],
        flops: &mut SubtaskFlops,
        messages_sent: &mut u64,
        bytes_sent: &mut u64,
    ) {
        let rank = comm.rank();
        let (nx, ny) = (grid.nx, grid.ny);
        let oi = octant.index();
        let (up_i, down_i, up_j, down_j) = octant_neighbors(topo, rank, octant);
        let angles = &quad.angles[a0..a0 + n_ang];
        let block_seq: Vec<(usize, (usize, usize))> = if octant.sign_k >= 0 {
            k_blocks.iter().copied().enumerate().collect()
        } else {
            k_blocks.iter().copied().enumerate().rev().collect()
        };
        for (kb, (k0, klen)) in block_seq {
            let shape = BlockShape { n_ang, k0, klen };
            // Receive upstream faces (vacuum at the domain edge).
            let mut face_i = match up_i {
                Some(src) => {
                    let tag = msg_tag(oi, ab, kb, 0) as i32;
                    let v = comm.recv_f64s(src, tag).expect("i-face receive");
                    debug_assert_eq!(v.len(), shape.face_i_len(ny));
                    v
                }
                None => vec![0.0; shape.face_i_len(ny)],
            };
            let mut face_j = match up_j {
                Some(src) => {
                    let tag = msg_tag(oi, ab, kb, 1) as i32;
                    let v = comm.recv_f64s(src, tag).expect("j-face receive");
                    debug_assert_eq!(v.len(), shape.face_j_len(nx));
                    v
                }
                None => vec![0.0; shape.face_j_len(nx)],
            };

            sweep_block(
                grid,
                angles,
                octant,
                shape,
                &mut face_i,
                &mut face_j,
                phik,
                &mut flops.sweep,
            );

            // Forward outgoing faces downstream.
            if let Some(dst) = down_i {
                let tag = msg_tag(oi, ab, kb, 0) as i32;
                comm.send_f64s(dst, tag, &face_i).expect("i-face send");
                *messages_sent += 1;
                *bytes_sent += (face_i.len() * 8) as u64;
            }
            if let Some(dst) = down_j {
                let tag = msg_tag(oi, ab, kb, 1) as i32;
                comm.send_f64s(dst, tag, &face_j).expect("j-face send");
                *messages_sent += 1;
                *bytes_sent += (face_j.len() * 8) as u64;
            }
        }
    }

    for _iter in 0..config.iterations {
        grid.begin_iteration();
        for pair in OCTANT_ORDER.chunks(2) {
            if config.reflective_k {
                // Reflective bottom: k faces persist across the pair.
                for (ab, &(a0, n_ang)) in a_blocks.iter().enumerate() {
                    let mut phik = vec![0.0; n_ang * nx * ny];
                    for &octant in pair {
                        sweep_member(
                            &mut grid,
                            comm,
                            topo,
                            &quad,
                            &k_blocks,
                            octant,
                            ab,
                            a0,
                            n_ang,
                            &mut phik,
                            &mut flops,
                            &mut messages_sent,
                            &mut bytes_sent,
                        );
                    }
                }
            } else {
                for &octant in pair {
                    for (ab, &(a0, n_ang)) in a_blocks.iter().enumerate() {
                        let mut phik = vec![0.0; n_ang * nx * ny];
                        sweep_member(
                            &mut grid,
                            comm,
                            topo,
                            &quad,
                            &k_blocks,
                            octant,
                            ab,
                            a0,
                            n_ang,
                            &mut phik,
                            &mut flops,
                            &mut messages_sent,
                            &mut bytes_sent,
                        );
                    }
                }
            }
        }
        let (local_err, err_flops) = grid.flux_error();
        flops.flux_err += err_flops;
        let global_err = comm.allreduce_f64(local_err, ReduceOp::Max).expect("error all-reduce");
        errors.push(global_err);
        flops.source += grid.update_source();
    }

    RankOutcome {
        rank,
        decomp,
        flux: std::mem::take(&mut grid.flux),
        errors,
        flops,
        messages_sent,
        bytes_sent,
    }
}

/// Assemble the distributed flux field into a single global array (for
/// verification against the serial solver).
pub fn assemble_global_flux(config: &ProblemConfig, outcomes: &[RankOutcome]) -> Vec<f64> {
    let mut global = vec![0.0; config.total_cells()];
    for out in outcomes {
        let d = &out.decomp;
        for k in 0..d.nz {
            for j in 0..d.ny {
                for i in 0..d.nx {
                    let g_idx = (k * config.jt + (d.j0 + j)) * config.it + (d.i0 + i);
                    global[g_idx] = out.flux[(k * d.ny + j) * d.nx + i];
                }
            }
        }
    }
    global
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialSolver;

    fn cfg(px: usize, py: usize) -> ProblemConfig {
        let mut c = ProblemConfig::weak_scaling(4, px, py);
        c.mk = 2;
        c.iterations = 3;
        c
    }

    #[test]
    fn parallel_matches_serial_bitwise_2x2() {
        let c = cfg(2, 2);
        let serial = SerialSolver::new(&c).unwrap().run();
        let outcomes = run_parallel(&c).unwrap();
        let parallel = assemble_global_flux(&c, &outcomes);
        assert_eq!(serial.flux.len(), parallel.len());
        for (idx, (s, p)) in serial.flux.iter().zip(&parallel).enumerate() {
            assert!(s.to_bits() == p.to_bits(), "cell {idx}: serial {s} vs parallel {p}");
        }
    }

    #[test]
    fn parallel_matches_serial_rectangular_3x2() {
        let c = cfg(3, 2);
        let serial = SerialSolver::new(&c).unwrap().run();
        let outcomes = run_parallel(&c).unwrap();
        let parallel = assemble_global_flux(&c, &outcomes);
        assert_eq!(serial.flux, parallel);
    }

    #[test]
    fn parallel_matches_serial_1xn_pipeline() {
        let c = cfg(1, 4);
        let serial = SerialSolver::new(&c).unwrap().run();
        let outcomes = run_parallel(&c).unwrap();
        let parallel = assemble_global_flux(&c, &outcomes);
        assert_eq!(serial.flux, parallel);
    }

    #[test]
    fn errors_agree_across_ranks() {
        let c = cfg(2, 2);
        let outcomes = run_parallel(&c).unwrap();
        for out in &outcomes[1..] {
            assert_eq!(out.errors, outcomes[0].errors);
        }
        // And agree with serial.
        let serial = SerialSolver::new(&c).unwrap().run();
        assert_eq!(outcomes[0].errors, serial.errors);
    }

    #[test]
    fn interior_ranks_send_both_dimensions() {
        let c = cfg(3, 3);
        let outcomes = run_parallel(&c).unwrap();
        // Centre rank (1,1) has downstream neighbours in every octant.
        let centre = &outcomes[4];
        // 8 octants × 2 angle blocks × 2 k blocks × 2 dims × 3 iterations.
        assert_eq!(centre.messages_sent, (8 * 2 * 2 * 2 * 3) as u64);
        assert!(centre.bytes_sent > 0);
    }

    #[test]
    fn octant_neighbor_orientation() {
        let topo = Cart2d::new(3, 3);
        let centre = topo.rank_of(1, 1);
        let oct_pp = Octant::new(1, 1, 1);
        let (up_i, down_i, up_j, down_j) = octant_neighbors(&topo, centre, oct_pp);
        assert_eq!(up_i, Some(topo.rank_of(0, 1)));
        assert_eq!(down_i, Some(topo.rank_of(2, 1)));
        assert_eq!(up_j, Some(topo.rank_of(1, 0)));
        assert_eq!(down_j, Some(topo.rank_of(1, 2)));
        let oct_mm = Octant::new(-1, -1, 1);
        let (up_i, down_i, up_j, down_j) = octant_neighbors(&topo, centre, oct_mm);
        assert_eq!(up_i, Some(topo.rank_of(2, 1)));
        assert_eq!(down_i, Some(topo.rank_of(0, 1)));
        assert_eq!(up_j, Some(topo.rank_of(1, 2)));
        assert_eq!(down_j, Some(topo.rank_of(1, 0)));
    }
}
