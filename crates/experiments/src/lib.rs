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

/// Exit 2 with a one-line usage error on stderr.
pub fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Reads a subcommand's flags in order: loop on [`FlagReader::next_flag`],
/// read each flag's operand with [`FlagReader::value`] or
/// [`FlagReader::positive`], and hand anything else to
/// [`FlagReader::unknown`]. A flag missing its value, a count that is not
/// a positive integer and an unknown flag each exit 2 with a one-line
/// message naming the flag.
pub struct FlagReader<'a> {
    command: &'static str,
    args: &'a [String],
    next: usize,
}

impl<'a> FlagReader<'a> {
    /// A reader over `command`'s operands.
    pub fn new(command: &'static str, args: &'a [String]) -> Self {
        FlagReader { command, args, next: 0 }
    }

    /// The next flag, or `None` after the last.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.args.get(self.next)?;
        self.next += 1;
        Some(flag)
    }

    /// The value of the flag just read.
    pub fn value(&mut self) -> &'a str {
        let Some(value) = self.args.get(self.next) else {
            usage_error(format!("{} requires a value", self.args[self.next - 1]))
        };
        self.next += 1;
        value
    }

    /// The value of the count flag just read (`--ranks`, `--repeat`, …):
    /// a positive integer.
    pub fn positive(&mut self) -> usize {
        let flag = &self.args[self.next - 1];
        let value = self.value();
        match value.parse() {
            Ok(0) => usage_error(format!("{flag} takes a positive integer, got {value:?}")),
            Ok(n) => n,
            Err(_) => usage_error(format!("{flag} takes an integer, got {value:?}")),
        }
    }

    /// Reject a flag the subcommand does not know.
    pub fn unknown(&self, flag: &str) -> ! {
        usage_error(format!("unknown {} flag {flag:?}", self.command))
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
