//! Spec-file format for workload parameters — the problem-side twin of
//! the machine spec files in [`json`](crate::json).
//!
//! A workload spec names one template of the workload library and carries
//! its full parameter struct, so a sweep's problem axis can be swapped
//! from the command line with no Rust changes (`experiments sweep
//! --workload <file>`). Same contract as machine specs:
//!
//! * **exact round-trip** — `from_json(to_json(spec)) == spec` bit for
//!   bit (floats use shortest-roundtrip formatting);
//! * **strictness** — unknown fields, missing fields and malformed values
//!   are errors naming the offending path, and an unknown `workload`
//!   identifier lists every valid one;
//! * **no aborts downstream** — every extent, blocking factor and count a
//!   template asserts on or divides by must be at least 1, the wavefront
//!   angle count must belong to an even S_N order, per-cell operation
//!   counts must lie in [`OPS_PER_CELL`], the rank count may not exceed
//!   [`MAX_RANKS`], and one rank's run must stay within the per-rank work
//!   ceiling (`MAX_RANK_OPS` operations, `MAX_RANK_STEPS` trace steps)
//!   and byte budget (`MAX_RANK_BYTES` reduced bytes).

use std::ops::RangeInclusive;

use obs::json::{escape, Json};
use pace_core::clc::ResourceVector;
use pace_core::sweep3d_model::KernelCharacterisation;
use pace_core::{AllreduceParams, StencilParams, Sweep3dParams, Workload, WorkloadKind};

use crate::json::{as_obj, check_fields, integer, num, ranged, req, string, Object};

/// Per-cell operation counts: stencil and allreduce `flops_per_cell` and
/// every component of the wavefront kernel's clc vectors. A million
/// operations per cell is far past any real cell update and keeps each
/// simulated compute op well inside the picosecond clock.
pub const OPS_PER_CELL: RangeInclusive<f64> = 0.0..=1e6;

/// Rank ceiling: a wavefront or stencil spec's `px · py` and an allreduce
/// spec's `procs` may not exceed 2^20 ranks, over a hundred times the
/// paper's 8000-PE speculative campaign. The DES allocates its per-rank
/// state before the first event, so a larger grid would abort allocating
/// rather than fail.
pub const MAX_RANKS: usize = 1 << 20;

/// Per-rank work ceiling, operations: cells per rank × operations per
/// cell update × iterations, with every cell update counted as at least
/// one operation. At the slowest admitted compute rate (1 MFLOPS, see
/// [`json`](crate::json)) 10^12 operations take under twelve simulated
/// days, inside the picosecond clock's ~213-day span even when background
/// load triples them, and a rank's working set stays far below `usize`.
/// Checked before a template is lowered to a trace, together with
/// `MAX_RANK_STEPS`.
const MAX_RANK_OPS: f64 = 1e12;

/// Per-rank work ceiling, trace steps: iterations × steps per iteration
/// (compute blocks, and an allreduce's collectives). The lowered trace
/// stores every step of every rank, so this bounds its memory. 10^5 is 26
/// times the largest built-in trace, the one-billion-cell wavefront's
/// 3,840 steps.
const MAX_RANK_STEPS: f64 = 1e5;

/// Per-rank byte budget: the bytes one rank's collectives reduce over its
/// run, `reduce_bytes × reductions_per_iteration × iterations`. A
/// binomial all-reduce over `MAX_RANKS` ranks costs each rank 40 messages
/// of its reduction's size; on the slowest built-in link (Gigabit
/// Ethernet, ~100 MB/s) 10^12 bytes keep that under a week of simulated
/// time, inside the picosecond clock's ~213-day span.
const MAX_RANK_BYTES: f64 = 1e12;

/// Emit the JSON spec-file form of a workload. Its `workload` field is
/// the template's CLI identifier ([`WorkloadKind::name`](pace_core::WorkloadKind::name)
/// — `"wavefront"`, not the [`Workload::kind`] string `"sweep3d"`).
pub fn workload_to_json(workload: &Workload) -> String {
    let params = match workload {
        Workload::Wavefront(p) => wavefront_json(p),
        Workload::Stencil(p) => stencil_json(p),
        Workload::Allreduce(p) => allreduce_json(p),
    };
    let name = workload.template().name();
    format!("{{\n  \"workload\": \"{}\",\n  \"params\": {params}\n}}\n", escape(name))
}

/// Parse a JSON workload spec. Unknown fields, missing fields and
/// malformed values are errors that name the offending path; an unknown
/// `workload` identifier lists every valid one.
pub fn workload_from_json(text: &str) -> Result<Workload, String> {
    let doc = Json::parse(text).map_err(|e| format!("workload spec: {e}"))?;
    let map = as_obj(&doc, "workload spec")?;
    check_fields(map, &["workload", "params"], "workload spec")?;
    let name = string(req(map, "workload", "workload spec")?, "workload spec.workload")?;
    let params = req(map, "params", "workload spec")?;
    let kind = WorkloadKind::parse(&name).map_err(|e| format!("workload spec.workload: {e}"))?;
    let ctx = "workload spec.params";
    Ok(match kind {
        WorkloadKind::Wavefront => Workload::Wavefront(wavefront(params, ctx)?),
        WorkloadKind::Stencil => Workload::Stencil(stencil(params, ctx)?),
        WorkloadKind::Allreduce => Workload::Allreduce(allreduce(params, ctx)?),
    })
}

/// Load a workload from a JSON spec file.
pub fn load_workload_file(path: &str) -> Result<Workload, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read workload spec file {path}: {e}"))?;
    workload_from_json(&text).map_err(|e| format!("{path}: {e}"))
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

fn vector_json(v: &ResourceVector) -> String {
    format!(
        "{{ \"mfdg\": {}, \"afdg\": {}, \"dfdg\": {}, \"ifbr\": {}, \"lfor\": {}, \"cmld\": {} }}",
        num(v.mfdg),
        num(v.afdg),
        num(v.dfdg),
        num(v.ifbr),
        num(v.lfor),
        num(v.cmld)
    )
}

fn wavefront_json(p: &Sweep3dParams) -> String {
    format!(
        "{{\n    \"px\": {}, \"py\": {}, \"nx\": {}, \"ny\": {}, \"nz\": {},\n    \"mk\": {}, \"mmi\": {}, \"angles_per_octant\": {}, \"iterations\": {},\n    \"kernel\": {{\n      \"sweep_per_cell_angle\": {},\n      \"source_per_cell\": {},\n      \"flux_err_per_cell\": {}\n    }}\n  }}",
        p.px,
        p.py,
        p.nx,
        p.ny,
        p.nz,
        p.mk,
        p.mmi,
        p.angles_per_octant,
        p.iterations,
        vector_json(&p.kernel.sweep_per_cell_angle),
        vector_json(&p.kernel.source_per_cell),
        vector_json(&p.kernel.flux_err_per_cell)
    )
}

fn stencil_json(p: &StencilParams) -> String {
    format!(
        "{{ \"px\": {}, \"py\": {}, \"nx\": {}, \"ny\": {}, \"iterations\": {}, \"flops_per_cell\": {} }}",
        p.px,
        p.py,
        p.nx,
        p.ny,
        p.iterations,
        num(p.flops_per_cell)
    )
}

fn allreduce_json(p: &AllreduceParams) -> String {
    format!(
        "{{ \"procs\": {}, \"cells_per_pe\": {}, \"flops_per_cell\": {}, \"reduce_bytes\": {}, \"reductions_per_iteration\": {}, \"iterations\": {} }}",
        p.procs,
        p.cells_per_pe,
        num(p.flops_per_cell),
        p.reduce_bytes,
        p.reductions_per_iteration,
        p.iterations
    )
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn usize_field(map: &Object, key: &str, ctx: &str) -> Result<usize, String> {
    Ok(integer(req(map, key, ctx)?, &format!("{ctx}.{key}"))? as usize)
}

/// An extent, blocking factor or count the templates assert on or divide
/// by: zero is rejected with the field's path.
fn positive(map: &Object, key: &str, ctx: &str) -> Result<usize, String> {
    match usize_field(map, key, ctx)? {
        0 => Err(format!("{ctx}.{key}: must be at least 1, got 0")),
        n => Ok(n),
    }
}

/// A `px × py` process grid within [`MAX_RANKS`].
fn grid(map: &Object, ctx: &str) -> Result<(usize, usize), String> {
    let px = positive(map, "px", ctx)?;
    let py = positive(map, "py", ctx)?;
    match px.checked_mul(py) {
        Some(ranks) if ranks <= MAX_RANKS => Ok((px, py)),
        _ => Err(format!(
            "{ctx}: px × py = {px} × {py} ranks exceeds the rank ceiling MAX_RANKS = {MAX_RANKS}"
        )),
    }
}

/// Hold one rank's run to the work ceiling: `cells` per rank (made of
/// the fields `cell_fields`) updated at `ops` operations each (`op_fields`)
/// for `iterations`, in `steps` trace steps per iteration.
fn rank_work(
    ctx: &str,
    (cells, cell_fields): (f64, &str),
    (ops, op_fields): (f64, &str),
    iterations: usize,
    steps: f64,
) -> Result<(), String> {
    let ops = ops.max(1.0);
    let work = cells * ops * iterations as f64;
    if work > MAX_RANK_OPS {
        return Err(format!(
            "{ctx}: per-rank work {cell_fields} × {op_fields} × iterations = {cells:.3e} cells × \
             {ops:.3e} operations × {iterations} = {work:.3e} operations exceeds the work \
             ceiling of {MAX_RANK_OPS:e}"
        ));
    }
    let trace = iterations as f64 * steps;
    if trace > MAX_RANK_STEPS {
        return Err(format!(
            "{ctx}.iterations: {iterations} iterations × {steps} steps = {trace:.3e} trace steps \
             per rank exceeds the work ceiling of {MAX_RANK_STEPS:e}"
        ));
    }
    Ok(())
}

fn vector(v: &Json, ctx: &str) -> Result<ResourceVector, String> {
    let map = as_obj(v, ctx)?;
    check_fields(map, &["mfdg", "afdg", "dfdg", "ifbr", "lfor", "cmld"], ctx)?;
    let op = |key: &str| ranged(map, key, ctx, OPS_PER_CELL);
    Ok(ResourceVector {
        mfdg: op("mfdg")?,
        afdg: op("afdg")?,
        dfdg: op("dfdg")?,
        ifbr: op("ifbr")?,
        lfor: op("lfor")?,
        cmld: op("cmld")?,
    })
}

fn wavefront(v: &Json, ctx: &str) -> Result<Sweep3dParams, String> {
    let map = as_obj(v, ctx)?;
    check_fields(
        map,
        &["px", "py", "nx", "ny", "nz", "mk", "mmi", "angles_per_octant", "iterations", "kernel"],
        ctx,
    )?;
    let kctx = format!("{ctx}.kernel");
    let kmap = as_obj(req(map, "kernel", ctx)?, &kctx)?;
    check_fields(kmap, &["sweep_per_cell_angle", "source_per_cell", "flux_err_per_cell"], &kctx)?;
    let kernel = KernelCharacterisation {
        sweep_per_cell_angle: vector(
            req(kmap, "sweep_per_cell_angle", &kctx)?,
            &format!("{kctx}.sweep_per_cell_angle"),
        )?,
        source_per_cell: vector(
            req(kmap, "source_per_cell", &kctx)?,
            &format!("{kctx}.source_per_cell"),
        )?,
        flux_err_per_cell: vector(
            req(kmap, "flux_err_per_cell", &kctx)?,
            &format!("{kctx}.flux_err_per_cell"),
        )?,
    };
    let angles_per_octant = positive(map, "angles_per_octant", ctx)?;
    pace_core::workload::sn_order_for(angles_per_octant)
        .map_err(|e| format!("{ctx}.angles_per_octant: {e}"))?;
    let (px, py) = grid(map, ctx)?;
    let p = Sweep3dParams {
        px,
        py,
        nx: positive(map, "nx", ctx)?,
        ny: positive(map, "ny", ctx)?,
        nz: positive(map, "nz", ctx)?,
        mk: positive(map, "mk", ctx)?,
        mmi: positive(map, "mmi", ctx)?,
        angles_per_octant,
        iterations: positive(map, "iterations", ctx)?,
        kernel,
    };
    // A cell update sweeps every angle of all eight octants, then adds the
    // source and flux-error terms.
    let ops = |v: &ResourceVector| v.flops() + v.ifbr + v.lfor + v.cmld;
    let k = &p.kernel;
    let cell_ops = 8.0 * angles_per_octant as f64 * ops(&k.sweep_per_cell_angle)
        + ops(&k.source_per_cell)
        + ops(&k.flux_err_per_cell);
    let cells = p.nx as f64 * p.ny as f64 * p.nz as f64;
    let steps = 8.0 * angles_per_octant.div_ceil(p.mmi) as f64 * p.nz.div_ceil(p.mk) as f64;
    rank_work(ctx, (cells, "nx × ny × nz"), (cell_ops, "kernel"), p.iterations, steps)?;
    Ok(p)
}

fn stencil(v: &Json, ctx: &str) -> Result<StencilParams, String> {
    let map = as_obj(v, ctx)?;
    check_fields(map, &["px", "py", "nx", "ny", "iterations", "flops_per_cell"], ctx)?;
    let (px, py) = grid(map, ctx)?;
    let p = StencilParams {
        px,
        py,
        nx: positive(map, "nx", ctx)?,
        ny: positive(map, "ny", ctx)?,
        iterations: usize_field(map, "iterations", ctx)?,
        flops_per_cell: ranged(map, "flops_per_cell", ctx, OPS_PER_CELL)?,
    };
    let cells = p.nx as f64 * p.ny as f64;
    rank_work(ctx, (cells, "nx × ny"), (p.flops_per_cell, "flops_per_cell"), p.iterations, 1.0)?;
    Ok(p)
}

fn allreduce(v: &Json, ctx: &str) -> Result<AllreduceParams, String> {
    let map = as_obj(v, ctx)?;
    check_fields(
        map,
        &[
            "procs",
            "cells_per_pe",
            "flops_per_cell",
            "reduce_bytes",
            "reductions_per_iteration",
            "iterations",
        ],
        ctx,
    )?;
    let procs = positive(map, "procs", ctx)?;
    if procs > MAX_RANKS {
        return Err(format!(
            "{ctx}.procs: {procs} ranks exceeds the rank ceiling MAX_RANKS = {MAX_RANKS}"
        ));
    }
    let p = AllreduceParams {
        procs,
        cells_per_pe: usize_field(map, "cells_per_pe", ctx)?,
        flops_per_cell: ranged(map, "flops_per_cell", ctx, OPS_PER_CELL)?,
        reduce_bytes: usize_field(map, "reduce_bytes", ctx)?,
        reductions_per_iteration: usize_field(map, "reductions_per_iteration", ctx)?,
        iterations: usize_field(map, "iterations", ctx)?,
    };
    rank_work(
        ctx,
        (p.cells_per_pe as f64, "cells_per_pe"),
        (p.flops_per_cell, "flops_per_cell"),
        p.iterations,
        1.0 + p.reductions_per_iteration as f64,
    )?;
    let bytes = p.reduce_bytes as f64 * p.reductions_per_iteration as f64 * p.iterations as f64;
    if bytes > MAX_RANK_BYTES {
        return Err(format!(
            "{ctx}.reduce_bytes: per-rank traffic reduce_bytes × reductions_per_iteration × \
             iterations = {} × {} × {} = {bytes:.3e} bytes exceeds the byte budget of \
             {MAX_RANK_BYTES:e}",
            p.reduce_bytes, p.reductions_per_iteration, p.iterations
        ));
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_template_round_trips_exactly() {
        let specs = [
            Workload::Wavefront(Sweep3dParams::weak_scaling_50cubed(2, 3)),
            Workload::Stencil(StencilParams::weak_scaling(4, 2)),
            Workload::Allreduce(AllreduceParams::cg_like(16)),
        ];
        for spec in specs {
            let doc = workload_to_json(&spec);
            let back = workload_from_json(&doc)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.template().name()));
            assert_eq!(back, spec, "{} must round-trip exactly", spec.template().name());
        }
    }

    #[test]
    fn unknown_workload_identifier_lists_the_valid_ones() {
        let err = workload_from_json(r#"{ "workload": "fft", "params": {} }"#).unwrap_err();
        assert!(err.contains("unknown workload 'fft'"), "{err}");
        for name in ["wavefront", "stencil", "allreduce"] {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
    }

    #[test]
    fn typos_and_missing_fields_name_the_offending_path() {
        let err = workload_from_json(
            r#"{ "workload": "stencil", "params": { "px": 2, "py": 2, "nx": 10, "ny": 10, "iterations": 1, "flops_per_cel": 6 } }"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown field `flops_per_cel`"), "{err}");
        assert!(err.contains("flops_per_cell"), "should list expected fields: {err}");
        let err = workload_from_json(r#"{ "workload": "allreduce", "params": { "procs": 4 } }"#)
            .unwrap_err();
        assert!(err.contains("missing required field"), "{err}");
    }

    #[test]
    fn values_the_templates_cannot_price_name_their_field() {
        let cases = [
            (Workload::Stencil(StencilParams::weak_scaling(2, 2)), "\"nx\": 1000", "\"nx\": 0"),
            (
                Workload::Stencil(StencilParams::weak_scaling(2, 2)),
                "\"flops_per_cell\": 6",
                "\"flops_per_cell\": \"inf\"",
            ),
            (Workload::Allreduce(AllreduceParams::cg_like(4)), "\"procs\": 4", "\"procs\": 0"),
            (
                Workload::Wavefront(Sweep3dParams::speculative_20m(2, 2)),
                "\"angles_per_octant\": 6",
                "\"angles_per_octant\": 5",
            ),
            (
                Workload::Wavefront(Sweep3dParams::speculative_20m(2, 2)),
                "\"cmld\": 12",
                "\"cmld\": -12",
            ),
        ];
        for (spec, from, to) in cases {
            let doc = workload_to_json(&spec);
            assert_eq!(doc.matches(from).count(), 1, "{from} must edit one field");
            let err = workload_from_json(&doc.replacen(from, to, 1)).unwrap_err();
            let field = to.split('"').nth(1).unwrap();
            assert!(err.contains(&format!(".{field}: ")), "{to}: {err}");
        }
    }

    #[test]
    fn rank_counts_past_the_ceiling_are_rejected() {
        let parse = |spec: Workload| workload_from_json(&workload_to_json(&spec));
        // 1024 x 1024 is exactly MAX_RANKS; a product past u64 must not
        // wrap into range.
        for (px, py, fits) in [(1024, 1024, true), (1024, 1025, false), (1 << 32, 1 << 32, false)] {
            for spec in [
                Workload::Stencil(StencilParams::weak_scaling(px, py)),
                Workload::Wavefront(Sweep3dParams::speculative_20m(px, py)),
            ] {
                let name = spec.template().name();
                match parse(spec) {
                    Ok(_) => assert!(fits, "{name} {px}x{py} must be rejected"),
                    Err(err) => {
                        assert!(!fits, "{name} {px}x{py}: {err}");
                        assert!(err.contains("rank ceiling"), "{err}");
                        assert!(err.contains(&MAX_RANKS.to_string()), "{err}");
                    }
                }
            }
        }
        let procs = |n| parse(Workload::Allreduce(AllreduceParams::cg_like(n)));
        assert!(procs(MAX_RANKS).is_ok());
        let err = procs(MAX_RANKS + 1).unwrap_err();
        assert!(err.contains("params.procs: ") && err.contains("rank ceiling"), "{err}");
    }

    #[test]
    fn per_rank_work_past_the_ceiling_is_rejected() {
        let stencil = |nx, ny, flops_per_cell, iterations| {
            Workload::Stencil(StencilParams { px: 2, py: 2, nx, ny, iterations, flops_per_cell })
        };
        let mut reductions = AllreduceParams::cg_like(4);
        reductions.reductions_per_iteration = 1 << 20;
        let mut k_blocks = Sweep3dParams::speculative_1b(2, 2);
        (k_blocks.nx, k_blocks.ny, k_blocks.nz, k_blocks.mk) = (1, 1, 100_000, 1);
        // `None`: the spec fits; otherwise a phrase the error must hold.
        let cases = [
            (stencil(1_000_000_000, 1_000_000_000, 1e6, 100), Some("nx × ny × flops_per_cell")),
            (stencil(10, 10, 6.0, 100_000_000_000), Some("× iterations")),
            // Free cell updates still count one operation each.
            (stencil(1_000_000_000, 1_000_000_000, 0.0, 1), Some("work ceiling of 1e12")),
            (stencil(1000, 1000, 1e6, 1), None), // exactly 1e12 operations
            (stencil(1, 1, 6.0, 100_000), None), // exactly 1e5 trace steps
            (stencil(1, 1, 6.0, 100_001), Some("params.iterations: ")),
            (Workload::Allreduce(reductions), Some("trace steps per rank")),
            (Workload::Wavefront(k_blocks), Some("params.iterations: ")),
            (Workload::Wavefront(Sweep3dParams::speculative_1b(80, 100)), None),
            (Workload::Stencil(StencilParams::weak_scaling(80, 100)), None),
            (Workload::Allreduce(AllreduceParams::cg_like(8000)), None),
        ];
        for (spec, want) in cases {
            match (workload_from_json(&workload_to_json(&spec)), want) {
                (Ok(back), None) => assert_eq!(back, spec),
                (Err(err), Some(phrase)) => {
                    assert!(err.contains("work ceiling") && err.contains(phrase), "{err}")
                }
                (got, _) => panic!("{spec:?}: unexpected {got:?}"),
            }
        }
    }

    #[test]
    fn reduced_bytes_past_the_budget_are_rejected() {
        let allreduce = |reduce_bytes, reductions_per_iteration, iterations| {
            Workload::Allreduce(AllreduceParams {
                procs: 4,
                cells_per_pe: 1,
                flops_per_cell: 1.0,
                reduce_bytes,
                reductions_per_iteration,
                iterations,
            })
        };
        // `true`: within the budget (exactly 1e12 bytes still fits).
        let cases = [
            (allreduce(1_000_000_000_000, 1, 1), true),
            (allreduce(1_000_000_000_000_000, 1, 1), false),
            (allreduce(1_000_000_000_001, 1, 1), false),
            (allreduce(1_000_000_000, 100, 10), true),
            (allreduce(1_000_000_000, 100, 11), false),
            (allreduce(1 << 52, 0, 1), true), // no reductions move no bytes
        ];
        for (spec, fits) in cases {
            match workload_from_json(&workload_to_json(&spec)) {
                Ok(back) => {
                    assert!(fits, "{spec:?} must be rejected");
                    assert_eq!(back, spec);
                }
                Err(err) => {
                    assert!(!fits, "{spec:?}: {err}");
                    assert!(err.contains("params.reduce_bytes: "), "{err}");
                    assert!(err.contains("byte budget of 1e12"), "{err}");
                }
            }
        }
    }

    #[test]
    fn kernel_vectors_survive_the_wavefront_trip() {
        let mut p = Sweep3dParams::weak_scaling_50cubed(1, 2);
        p.kernel.sweep_per_cell_angle.mfdg = 12.3456789;
        let spec = Workload::Wavefront(p);
        let back = workload_from_json(&workload_to_json(&spec)).unwrap();
        assert_eq!(back, spec);
    }
}
