//! # experiments — regenerating every table and figure of the paper
//!
//! Each module reproduces one artefact of the evaluation (see DESIGN.md §4
//! for the experiment index):
//!
//! | module | paper artefact |
//! |---|---|
//! | [`validation`] | Tables 1–3 (measurement vs prediction, error stats) |
//! | [`speculation`] | Figures 8–9 (8000-PE scaling, ±rate what-ifs) |
//! | [`related`] | §6 concurrence with LogGP / LANL models |
//! | [`ablation`] | §4's motivating opcode-vs-coarse benchmarking error |
//! | [`blocking`] | §2's mk/mmi pipelining trade-off |
//! | [`asci_goals`] | §6's 30-group × 1000-step ASCI-target overrun |
//! | [`wavefront_fig`] | Figure 1 (sweep progression illustration) |
//! | [`hmcl`] | Figure 7 (HMCL hardware-model listing) |
//! | [`rendezvous`] | eager-vs-rendezvous protocol ablation (extension) |
//! | [`host_validation`] | the full workflow on *this* host, wall-clock (extension) |
//! | [`strong_scaling`] | strong-scaling study (extension) |
//! | [`observability`] | telemetry cross-check: phase spans + span/stats agreement (extension) |
//!
//! The `experiments` binary drives them all; `experiments all` writes the
//! complete set of tables to stdout in the paper's row format.

pub mod ablation;
pub mod asci_goals;
pub mod attribute;
pub mod blocking;
pub mod hmcl;
pub mod host_validation;
pub mod observability;
pub mod related;
pub mod rendezvous;
pub mod report;
pub mod robustness;
pub mod speculation;
pub mod strong_scaling;
pub mod validation;
pub mod wavefront_fig;

/// Parse the integer operand of a command-line flag, or exit 2 with a
/// one-line usage error (the same treatment unknown flags get).
pub fn int_flag<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes an integer, got {value:?}");
        std::process::exit(2)
    })
}

/// Parse the operand of a count flag (`--ranks`, `--repeat`, …): a
/// positive integer, or exit 2 with a one-line usage error naming the flag.
pub fn positive_flag(flag: &str, value: &str) -> usize {
    match int_flag(flag, value) {
        0 => {
            eprintln!("{flag} takes a positive integer, got {value:?}");
            std::process::exit(2)
        }
        n => n,
    }
}

/// Paper-format error: `(measured − predicted) / measured × 100`.
/// Negative ⇒ over-prediction (prediction larger than measurement).
pub fn error_pct(measured: f64, predicted: f64) -> f64 {
    assert!(measured > 0.0);
    (measured - predicted) / measured * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_sign_convention() {
        // Over-prediction (pred > meas) is negative, as in Tables 1–2.
        assert!(error_pct(26.54, 28.59) < 0.0);
        assert!((error_pct(26.54, 28.59) - (-7.72)).abs() < 0.05);
        // Under-prediction is positive, as in Table 3.
        assert!((error_pct(14.66, 13.95) - 4.84).abs() < 0.05);
    }
}
