//! Spec-file format contract, exercised from outside the crate:
//!
//! * **round-trip property** — `from_json(to_json(spec)) == spec` for
//!   arbitrary machines, including infinite curve switch points, quoted
//!   names, analytic-only specs, and full two-half specs;
//! * **NaN-free emission** — no float ever formats as `NaN`/`inf` bare
//!   tokens (infinities are the quoted `"inf"` / `"-inf"` strings);
//! * **strict rejection** — malformed documents, unknown fields and
//!   out-of-range values fail with an error naming the offending path.

use cluster_sim::cpu::{CpuModel, RatePoint};
use cluster_sim::{NetworkModel, NoiseModel, PiecewiseSegments};
use pace_core::comm::{CommCurve, CommModel};
use pace_core::hardware::{AchievedRate, HardwareModel};
use proptest::prelude::*;
use registry::MachineSpec;

/// Names chosen to stress JSON string escaping.
fn names() -> Vec<&'static str> {
    vec![
        "plain",
        "candidate: 3GHz nodes / IB-class interconnect",
        "quoted \"inner\" name",
        "backslash \\ and tab\there",
        "unicode Ω µ-machine",
    ]
}

fn curve((b, c, d, e): (f64, f64, f64, f64), a_infinite: bool, a: f64) -> CommCurve {
    CommCurve {
        a_bytes: if a_infinite { f64::INFINITY } else { a },
        b_us: b,
        c_us_per_byte: c,
        d_us: d,
        e_us_per_byte: e,
    }
}

fn segments(
    (sw, si, ss, li, ls): (f64, f64, f64, f64, f64),
    sw_infinite: bool,
) -> PiecewiseSegments {
    PiecewiseSegments {
        switch_bytes: if sw_infinite { f64::INFINITY } else { sw },
        small_intercept_us: si,
        small_slope_us: ss,
        large_intercept_us: li,
        large_slope_us: ls,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_specs_round_trip_exactly(
        name_idx in 0usize..5,
        rates in prop::collection::vec((1.0f64..1e7, 1.0f64..5000.0), 1..5),
        send in (0.01f64..200.0, 0.0001f64..0.5, 0.01f64..200.0, 0.0001f64..0.5),
        recv in (0.01f64..200.0, 0.0001f64..0.5, 0.01f64..200.0, 0.0001f64..0.5),
        ping in (0.01f64..200.0, 0.0001f64..0.5, 0.01f64..200.0, 0.0001f64..0.5),
        switch_a in 1.0f64..1e6,
        inf_send in any::<bool>(),
        inf_ping in any::<bool>(),
        with_sim in any::<bool>(),
        sim_curve in prop::collection::vec((1.0f64..1e6, 1.0f64..2000.0), 1..4),
        net in (1.0f64..65536.0, 0.1f64..50.0, 0.0001f64..0.1, 0.1f64..50.0, 0.0001f64..0.1),
        inf_net in any::<bool>(),
        serialization_bw in 1e6f64..1e10,
        noise in (0.9f64..1.1, 0.0f64..0.2, 0.0f64..50.0, 0.0f64..0.1),
        smp in (1usize..9, 0.0f64..0.9),
        seed in 0u64..(1 << 53),
        rendezvous in 0usize..100_000,
    ) {
        let name = names()[name_idx];
        // Strictly increasing cell counts by cumulative sum.
        let mut cells_per_pe = 0.0;
        let analytic = HardwareModel {
            name: name.to_string(),
            rates: rates
                .iter()
                .map(|&(delta, mflops)| {
                    cells_per_pe += delta;
                    AchievedRate { cells_per_pe, mflops }
                })
                .collect(),
            comm: CommModel {
                send: curve(send, inf_send, switch_a),
                recv: curve(recv, false, switch_a),
                pingpong: curve(ping, inf_ping, switch_a * 2.0),
            },
        };
        let sim = with_sim.then(|| {
            // Strictly increasing working-set sizes by cumulative sum.
            let mut bytes = 0.0;
            let rate_curve = sim_curve
                .iter()
                .map(|&(delta, mflops)| {
                    bytes += delta;
                    RatePoint { bytes, mflops }
                })
                .collect();
            cluster_sim::MachineSpec {
                name: format!("{name} (sim)"),
                cpu: CpuModel { name: name.to_string(), rate_curve, smp_contention: smp.1 },
                network: NetworkModel {
                    send: segments(net, inf_net),
                    recv: segments(net, false),
                    pingpong: segments(net, inf_net),
                    serialization_bw,
                },
                noise: NoiseModel {
                    compute_mean: noise.0,
                    compute_spread: noise.1,
                    message_jitter_us: noise.2,
                    run_bias: noise.3,
                },
                smp_width: smp.0,
                seed,
                rendezvous_bytes: (rendezvous >= 1024).then_some(rendezvous),
            }
        });
        let spec = MachineSpec { id: "prop-machine".to_string(), analytic, sim };

        let doc = spec.to_json();
        // No bare non-finite tokens: infinities must be quoted strings and
        // NaN must be unrepresentable.
        prop_assert!(!doc.contains("NaN"), "NaN leaked into the document:\n{doc}");
        for line in doc.lines() {
            prop_assert!(
                !line.contains(": inf") && !line.contains(": -inf"),
                "bare infinity token in: {line}"
            );
        }
        let back = MachineSpec::from_json(&doc)
            .unwrap_or_else(|e| panic!("emitted spec failed to parse: {e}\n{doc}"));
        prop_assert_eq!(back, spec);
    }
}

// ---------------------------------------------------------------- rejection

/// A minimal valid document to mutate in the rejection tests.
fn valid_doc() -> String {
    registry::builtin("opteron-gige").unwrap().to_json()
}

#[test]
fn rejects_unknown_top_level_field() {
    let doc = valid_doc().replacen("\"id\"", "\"colour\": \"blue\",\n  \"id\"", 1);
    let err = MachineSpec::from_json(&doc).unwrap_err();
    assert!(err.contains("unknown field `colour`"), "{err}");
    assert!(err.contains("id, analytic, sim"), "should list the schema: {err}");
}

#[test]
fn rejects_unknown_nested_field_naming_the_path() {
    let doc = valid_doc().replacen("\"a_bytes\"", "\"a_byts\"", 1);
    let err = MachineSpec::from_json(&doc).unwrap_err();
    assert!(err.contains("a_byts"), "{err}");
    assert!(err.contains("machine spec.analytic.comm.send"), "path missing: {err}");
}

#[test]
fn rejects_missing_required_field() {
    let doc = valid_doc().replacen("\"mflops\":", "\"mflops_gone\":", 1);
    let err = MachineSpec::from_json(&doc).unwrap_err();
    // The typo is caught either as unknown or as the missing original.
    assert!(err.contains("mflops"), "{err}");
}

#[test]
fn rejects_malformed_value_with_path() {
    let doc = valid_doc().replacen("\"seed\": ", "\"seed\": \"lots\", \"_x\": ", 1);
    let err = MachineSpec::from_json(&doc).unwrap_err();
    assert!(err.contains("seed") || err.contains("_x"), "{err}");
}

#[test]
fn rejects_oversized_seed() {
    let m = registry::builtin("opteron-gige").unwrap();
    let old = format!("\"seed\": {}", m.sim.as_ref().unwrap().seed);
    // 2^53 + 1 would round to 2^53 inside the f64 parser and slip the
    // check; use a seed far beyond the representable-integer range.
    let doc = m.to_json().replacen(&old, "\"seed\": 18446744073709551615", 1);
    let err = MachineSpec::from_json(&doc).unwrap_err();
    assert!(err.contains("seed"), "{err}");
}

#[test]
fn rejects_empty_rates_and_empty_id() {
    let m = registry::builtin("opteron-gige").unwrap();
    let doc = m.to_json().replacen(&format!("\"{}\"", m.id), "\"\"", 1);
    let err = MachineSpec::from_json(&doc).unwrap_err();
    assert!(err.contains("id"), "{err}");

    let mut no_rates = registry::builtin("opteron-gige").unwrap();
    no_rates.analytic.rates.clear();
    let err = MachineSpec::from_json(&no_rates.to_json()).unwrap_err();
    assert!(err.contains("rates"), "{err}");
}

#[test]
fn rejects_documents_that_are_not_json_objects() {
    assert!(MachineSpec::from_json("not json at all").is_err());
    assert!(MachineSpec::from_json("[1, 2, 3]").is_err());
    assert!(MachineSpec::from_json("").is_err());
}

#[test]
fn deeply_nested_documents_are_a_structured_error() {
    let err = MachineSpec::from_json(&"[".repeat(1_000_000)).unwrap_err();
    assert!(err.starts_with("machine spec: nesting deeper than"), "{err}");
    assert!(err.contains("at byte"), "{err}");
}

#[test]
fn load_file_errors_name_the_path() {
    let err = registry::load_file("/no/such/machine.json").unwrap_err();
    assert!(err.contains("/no/such/machine.json"), "{err}");
}
