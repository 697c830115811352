//! Hand-rolled JSON spec-file format for [`MachineSpec`](crate::MachineSpec).
//!
//! The workspace builds offline (the `serde` shim carries no data format),
//! so specs are emitted by string building and parsed with `obs`'s small
//! JSON parser. Two properties the tests pin:
//!
//! * **exact round-trip** — floats use Rust's shortest-roundtrip `{}`
//!   formatting, so `from_json(to_json(spec)) == spec` bit for bit;
//! * **strictness** — unknown fields, missing fields and malformed values
//!   are rejected with an error naming the offending path, so a typo in a
//!   hand-written spec file cannot silently fall back to a default.
//!
//! Infinite switch points (a curve with no eager→rendezvous transition,
//! e.g. from [`CommCurve::linear`]) are encoded as the strings `"inf"` /
//! `"-inf"`, as the Fig. 7 listing (`experiments::hmcl`) prints `A = inf`.
//! `u64` seeds are carried as JSON numbers and therefore must be ≤ 2⁵³
//! (all built-in seeds are); larger seeds are rejected rather than
//! silently rounded.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use cluster_sim::cpu::{CpuModel, RatePoint};
use cluster_sim::{NetworkModel, NoiseModel, PiecewiseSegments};
use obs::json::{escape, fmt_f64, Json};
use pace_core::comm::{CommCurve, CommModel};
use pace_core::hardware::{AchievedRate, HardwareModel};

use crate::MachineSpec;

/// Largest integer exactly representable as an `f64` (2⁵³); JSON numbers
/// beyond it would lose seed bits.
const MAX_JSON_INT: u64 = 1 << 53;

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// Format a float that may legitimately be infinite (curve switch points).
pub(crate) fn num(x: f64) -> String {
    if x.is_finite() {
        fmt_f64(x)
    } else if x.is_nan() {
        panic!("NaN has no spec-file encoding");
    } else if x > 0.0 {
        "\"inf\"".to_string()
    } else {
        "\"-inf\"".to_string()
    }
}

fn curve_json(c: &CommCurve) -> String {
    format!(
        "{{ \"a_bytes\": {}, \"b_us\": {}, \"c_us_per_byte\": {}, \"d_us\": {}, \"e_us_per_byte\": {} }}",
        num(c.a_bytes),
        num(c.b_us),
        num(c.c_us_per_byte),
        num(c.d_us),
        num(c.e_us_per_byte)
    )
}

fn segments_json(s: &PiecewiseSegments) -> String {
    format!(
        "{{ \"switch_bytes\": {}, \"small_intercept_us\": {}, \"small_slope_us\": {}, \"large_intercept_us\": {}, \"large_slope_us\": {} }}",
        num(s.switch_bytes),
        num(s.small_intercept_us),
        num(s.small_slope_us),
        num(s.large_intercept_us),
        num(s.large_slope_us)
    )
}

fn analytic_json(hw: &HardwareModel, indent: &str) -> String {
    let rates = hw
        .rates
        .iter()
        .map(|r| {
            format!(
                "{indent}    {{ \"cells_per_pe\": {}, \"mflops\": {} }}",
                num(r.cells_per_pe),
                num(r.mflops)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n{indent}  \"name\": \"{}\",\n{indent}  \"rates\": [\n{rates}\n{indent}  ],\n{indent}  \"comm\": {{\n{indent}    \"send\": {},\n{indent}    \"recv\": {},\n{indent}    \"pingpong\": {}\n{indent}  }}\n{indent}}}",
        escape(&hw.name),
        curve_json(&hw.comm.send),
        curve_json(&hw.comm.recv),
        curve_json(&hw.comm.pingpong)
    )
}

fn sim_json(sim: &cluster_sim::MachineSpec, indent: &str) -> String {
    let curve = sim
        .cpu
        .rate_curve
        .iter()
        .map(|p| {
            format!(
                "{indent}      {{ \"bytes\": {}, \"mflops\": {} }}",
                num(p.bytes),
                num(p.mflops)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let rendezvous = match sim.rendezvous_bytes {
        Some(b) => format!("{b}"),
        None => "null".to_string(),
    };
    format!(
        "{{\n\
         {indent}  \"name\": \"{}\",\n\
         {indent}  \"cpu\": {{\n\
         {indent}    \"name\": \"{}\",\n\
         {indent}    \"rate_curve\": [\n{curve}\n{indent}    ],\n\
         {indent}    \"smp_contention\": {}\n\
         {indent}  }},\n\
         {indent}  \"network\": {{\n\
         {indent}    \"send\": {},\n\
         {indent}    \"recv\": {},\n\
         {indent}    \"pingpong\": {},\n\
         {indent}    \"serialization_bw\": {}\n\
         {indent}  }},\n\
         {indent}  \"noise\": {{ \"compute_mean\": {}, \"compute_spread\": {}, \"message_jitter_us\": {}, \"run_bias\": {} }},\n\
         {indent}  \"smp_width\": {},\n\
         {indent}  \"seed\": {},\n\
         {indent}  \"rendezvous_bytes\": {rendezvous}\n\
         {indent}}}",
        escape(&sim.name),
        escape(&sim.cpu.name),
        num(sim.cpu.smp_contention),
        segments_json(&sim.network.send),
        segments_json(&sim.network.recv),
        segments_json(&sim.network.pingpong),
        num(sim.network.serialization_bw),
        num(sim.noise.compute_mean),
        num(sim.noise.compute_spread),
        num(sim.noise.message_jitter_us),
        num(sim.noise.run_bias),
        sim.smp_width,
        sim.seed,
    )
}

/// Emit a complete spec document.
pub fn emit(spec: &MachineSpec) -> String {
    let sim = match &spec.sim {
        Some(sim) => sim_json(sim, "  "),
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"id\": \"{}\",\n  \"analytic\": {},\n  \"sim\": {sim}\n}}\n",
        escape(&spec.id),
        analytic_json(&spec.analytic, "  ")
    )
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

pub(crate) fn as_obj<'a>(v: &'a Json, ctx: &str) -> Result<&'a BTreeMap<String, Json>, String> {
    match v {
        Json::Obj(map) => Ok(map),
        other => Err(format!("{ctx}: expected an object, got {other:?}")),
    }
}

/// Reject any key outside `allowed` — typos must not silently vanish.
pub(crate) fn check_fields(
    map: &BTreeMap<String, Json>,
    allowed: &[&str],
    ctx: &str,
) -> Result<(), String> {
    for key in map.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "{ctx}: unknown field `{key}` (expected one of: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

pub(crate) fn req<'a>(
    map: &'a BTreeMap<String, Json>,
    key: &str,
    ctx: &str,
) -> Result<&'a Json, String> {
    map.get(key).ok_or_else(|| format!("{ctx}: missing required field `{key}`"))
}

/// A float, with `"inf"` / `"-inf"` strings for the infinities.
pub(crate) fn float(v: &Json, ctx: &str) -> Result<f64, String> {
    match v {
        Json::Num(x) if x.is_nan() => Err(format!("{ctx}: NaN is not a valid spec value")),
        Json::Num(x) => Ok(*x),
        Json::Str(s) if s == "inf" => Ok(f64::INFINITY),
        Json::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
        other => Err(format!("{ctx}: expected a number or \"inf\"/\"-inf\", got {other:?}")),
    }
}

pub(crate) fn string(v: &Json, ctx: &str) -> Result<String, String> {
    v.as_str().map(str::to_string).ok_or_else(|| format!("{ctx}: expected a string"))
}

pub(crate) fn integer(v: &Json, ctx: &str) -> Result<u64, String> {
    let x = v.as_f64().ok_or_else(|| format!("{ctx}: expected an integer"))?;
    if !(x.is_finite() && x >= 0.0 && x.fract() == 0.0) {
        return Err(format!("{ctx}: expected a non-negative integer, got {x}"));
    }
    if x > MAX_JSON_INT as f64 {
        return Err(format!("{ctx}: {x} exceeds 2^53 and cannot round-trip through JSON"));
    }
    Ok(x as u64)
}

// Physical ranges of the noise, network and rate fields. A value outside
// its range is rejected with the field's path. The bounds also keep every
// simulated op's cost far inside the picosecond clock's ~213-day span.

/// Achieved compute rate per PE, MFLOPS: 1 MFLOPS to 1 PFLOPS.
const MFLOPS: RangeInclusive<f64> = 1.0..=1e9;
/// Fractional noise terms (`compute_mean`, `compute_spread`, `run_bias`):
/// background load at most triples a compute block.
const NOISE_FRACTION: RangeInclusive<f64> = 0.0..=2.0;
/// Mean additive message jitter, µs: at most one second.
const JITTER_US: RangeInclusive<f64> = 0.0..=1e6;
/// Per-message intercepts of comm curves and network segments, µs: at
/// most one second.
const INTERCEPT_US: RangeInclusive<f64> = 0.0..=1e6;
/// Per-byte slopes of comm curves and network segments, µs/byte: down to
/// 1 kB/s.
const SLOPE_US_PER_BYTE: RangeInclusive<f64> = 0.0..=1e3;
/// Eager-to-rendezvous switch points, bytes (`"inf"`: never switches).
const SWITCH_BYTES: RangeInclusive<f64> = 0.0..=f64::INFINITY;
/// Wire serialization bandwidth, bytes/s: 1 kB/s to 10 TB/s.
const SERIALIZATION_BW: RangeInclusive<f64> = 1e3..=1e13;

pub(crate) type Object = BTreeMap<String, Json>;

/// Required float field `key` of `map`, held to `range`.
pub(crate) fn ranged(
    map: &Object,
    key: &str,
    ctx: &str,
    range: RangeInclusive<f64>,
) -> Result<f64, String> {
    let path = format!("{ctx}.{key}");
    let x = float(req(map, key, ctx)?, &path)?;
    if !range.contains(&x) {
        return Err(format!(
            "{path}: must be in [{:?}, {:?}], got {x:?}",
            range.start(),
            range.end()
        ));
    }
    Ok(x)
}

/// A non-empty array field's elements, each checked to be an object with
/// only `fields`, paired with its `ctx.key[i]` path.
fn objects<'a>(
    map: &'a Object,
    key: &str,
    ctx: &str,
    fields: &[&str],
) -> Result<Vec<(String, &'a Object)>, String> {
    let items =
        req(map, key, ctx)?.as_arr().ok_or_else(|| format!("{ctx}.{key}: expected an array"))?;
    if items.is_empty() {
        return Err(format!("{ctx}.{key}: need at least one point"));
    }
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let ictx = format!("{ctx}.{key}[{i}]");
        let imap = as_obj(item, &ictx)?;
        check_fields(imap, fields, &ictx)?;
        out.push((ictx, imap));
    }
    Ok(out)
}

/// A finite, positive abscissa of a rate table, strictly above `prev`.
fn ascending(map: &Object, key: &str, ctx: &str, prev: f64) -> Result<f64, String> {
    let path = format!("{ctx}.{key}");
    let x = float(req(map, key, ctx)?, &path)?;
    if !(x > 0.0 && x.is_finite()) {
        return Err(format!("{path}: must be finite and positive, got {x:?}"));
    }
    if x <= prev {
        return Err(format!("{path}: must be strictly above the previous point's {prev}"));
    }
    Ok(x)
}

fn comm_curve(v: &Json, ctx: &str) -> Result<CommCurve, String> {
    let map = as_obj(v, ctx)?;
    check_fields(map, &["a_bytes", "b_us", "c_us_per_byte", "d_us", "e_us_per_byte"], ctx)?;
    Ok(CommCurve {
        a_bytes: ranged(map, "a_bytes", ctx, SWITCH_BYTES)?,
        b_us: ranged(map, "b_us", ctx, INTERCEPT_US)?,
        c_us_per_byte: ranged(map, "c_us_per_byte", ctx, SLOPE_US_PER_BYTE)?,
        d_us: ranged(map, "d_us", ctx, INTERCEPT_US)?,
        e_us_per_byte: ranged(map, "e_us_per_byte", ctx, SLOPE_US_PER_BYTE)?,
    })
}

fn analytic(v: &Json, ctx: &str) -> Result<HardwareModel, String> {
    let map = as_obj(v, ctx)?;
    check_fields(map, &["name", "rates", "comm"], ctx)?;
    let name = string(req(map, "name", ctx)?, &format!("{ctx}.name"))?;
    let mut rates: Vec<AchievedRate> = Vec::new();
    for (rctx, rmap) in objects(map, "rates", ctx, &["cells_per_pe", "mflops"])? {
        let prev = rates.last().map_or(0.0, |r| r.cells_per_pe);
        rates.push(AchievedRate {
            cells_per_pe: ascending(rmap, "cells_per_pe", &rctx, prev)?,
            mflops: ranged(rmap, "mflops", &rctx, MFLOPS)?,
        });
    }
    let comm_json = req(map, "comm", ctx)?;
    let cctx = format!("{ctx}.comm");
    let cmap = as_obj(comm_json, &cctx)?;
    check_fields(cmap, &["send", "recv", "pingpong"], &cctx)?;
    let comm = CommModel {
        send: comm_curve(req(cmap, "send", &cctx)?, &format!("{cctx}.send"))?,
        recv: comm_curve(req(cmap, "recv", &cctx)?, &format!("{cctx}.recv"))?,
        pingpong: comm_curve(req(cmap, "pingpong", &cctx)?, &format!("{cctx}.pingpong"))?,
    };
    Ok(HardwareModel { name, rates, comm })
}

fn segments(v: &Json, ctx: &str) -> Result<PiecewiseSegments, String> {
    let map = as_obj(v, ctx)?;
    check_fields(
        map,
        &[
            "switch_bytes",
            "small_intercept_us",
            "small_slope_us",
            "large_intercept_us",
            "large_slope_us",
        ],
        ctx,
    )?;
    Ok(PiecewiseSegments {
        switch_bytes: ranged(map, "switch_bytes", ctx, SWITCH_BYTES)?,
        small_intercept_us: ranged(map, "small_intercept_us", ctx, INTERCEPT_US)?,
        small_slope_us: ranged(map, "small_slope_us", ctx, SLOPE_US_PER_BYTE)?,
        large_intercept_us: ranged(map, "large_intercept_us", ctx, INTERCEPT_US)?,
        large_slope_us: ranged(map, "large_slope_us", ctx, SLOPE_US_PER_BYTE)?,
    })
}

fn cpu(v: &Json, ctx: &str) -> Result<CpuModel, String> {
    let map = as_obj(v, ctx)?;
    check_fields(map, &["name", "rate_curve", "smp_contention"], ctx)?;
    let name = string(req(map, "name", ctx)?, &format!("{ctx}.name"))?;
    // Re-state `CpuModel::with_curve`'s asserts as errors so a bad spec
    // file reports instead of panicking.
    let mut curve: Vec<RatePoint> = Vec::new();
    for (pctx, pmap) in objects(map, "rate_curve", ctx, &["bytes", "mflops"])? {
        let prev = curve.last().map_or(0.0, |p| p.bytes);
        curve.push(RatePoint {
            bytes: ascending(pmap, "bytes", &pctx, prev)?,
            mflops: ranged(pmap, "mflops", &pctx, MFLOPS)?,
        });
    }
    let smp_contention = float(req(map, "smp_contention", ctx)?, &format!("{ctx}.smp_contention"))?;
    if !(0.0..1.0).contains(&smp_contention) {
        return Err(format!("{ctx}.smp_contention: must be in [0, 1), got {smp_contention}"));
    }
    Ok(CpuModel { name, rate_curve: curve, smp_contention })
}

fn sim(v: &Json, ctx: &str) -> Result<cluster_sim::MachineSpec, String> {
    let map = as_obj(v, ctx)?;
    check_fields(
        map,
        &["name", "cpu", "network", "noise", "smp_width", "seed", "rendezvous_bytes"],
        ctx,
    )?;
    let nctx = format!("{ctx}.network");
    let nmap = as_obj(req(map, "network", ctx)?, &nctx)?;
    check_fields(nmap, &["send", "recv", "pingpong", "serialization_bw"], &nctx)?;
    let network = NetworkModel {
        send: segments(req(nmap, "send", &nctx)?, &format!("{nctx}.send"))?,
        recv: segments(req(nmap, "recv", &nctx)?, &format!("{nctx}.recv"))?,
        pingpong: segments(req(nmap, "pingpong", &nctx)?, &format!("{nctx}.pingpong"))?,
        serialization_bw: ranged(nmap, "serialization_bw", &nctx, SERIALIZATION_BW)?,
    };
    let octx = format!("{ctx}.noise");
    let omap = as_obj(req(map, "noise", ctx)?, &octx)?;
    check_fields(
        omap,
        &["compute_mean", "compute_spread", "message_jitter_us", "run_bias"],
        &octx,
    )?;
    let noise = NoiseModel {
        compute_mean: ranged(omap, "compute_mean", &octx, NOISE_FRACTION)?,
        compute_spread: ranged(omap, "compute_spread", &octx, NOISE_FRACTION)?,
        message_jitter_us: ranged(omap, "message_jitter_us", &octx, JITTER_US)?,
        run_bias: ranged(omap, "run_bias", &octx, NOISE_FRACTION)?,
    };
    let rendezvous_bytes = match map.get("rendezvous_bytes") {
        None | Some(Json::Null) => None,
        Some(v) => Some(integer(v, &format!("{ctx}.rendezvous_bytes"))? as usize),
    };
    Ok(cluster_sim::MachineSpec {
        name: string(req(map, "name", ctx)?, &format!("{ctx}.name"))?,
        cpu: cpu(req(map, "cpu", ctx)?, &format!("{ctx}.cpu"))?,
        network,
        noise,
        smp_width: integer(req(map, "smp_width", ctx)?, &format!("{ctx}.smp_width"))? as usize,
        seed: integer(req(map, "seed", ctx)?, &format!("{ctx}.seed"))?,
        rendezvous_bytes,
    })
}

/// Parse a complete spec document.
pub fn parse(text: &str) -> Result<MachineSpec, String> {
    let doc = Json::parse(text).map_err(|e| format!("machine spec: {e}"))?;
    let map = as_obj(&doc, "machine spec")?;
    check_fields(map, &["id", "analytic", "sim"], "machine spec")?;
    let id = string(req(map, "id", "machine spec")?, "machine spec.id")?;
    if id.is_empty() {
        return Err("machine spec.id: must be non-empty".to_string());
    }
    let analytic = analytic(req(map, "analytic", "machine spec")?, "machine spec.analytic")?;
    let sim = match map.get("sim") {
        None | Some(Json::Null) => None,
        Some(v) => Some(sim(v, "machine spec.sim")?),
    };
    Ok(MachineSpec { id, analytic, sim })
}
